//! Temporal outer joins in standard SQL (Sec. 7.4, following Snodgrass,
//! reference \[21\] of the paper): the `sql` series of Fig. 15.
//!
//! The positive part pairs tuples with overlap predicates and computes the
//! intersection with `GREATEST`/`LEAST`. The negative part enumerates
//! candidate gap endpoints — a gap of `r` w.r.t. its matching `s` tuples
//! starts at `r.ts` or at a matching `s.te`, and ends at `r.te` or at a
//! matching `s.ts` — and keeps a candidate pair `[p1, p2)` iff
//! `NOT EXISTS` a matching `s` tuple overlapping it. Candidate-endpoint
//! construction automatically yields exactly the *maximal* gaps.

use temporal_core::error::{TemporalError, TemporalResult};
use temporal_engine::prelude::*;

const P1: &str = "__p1";
const P2: &str = "__p2";

/// The overlap conjunct `r.T ∩ s.T ≠ ∅` over `r ++ s` concatenated rows.
fn overlap(wr: usize, ws: usize) -> Expr {
    let (r_ts, r_te) = (wr - 2, wr - 1);
    let (s_ts, s_te) = (wr + ws - 2, wr + ws - 1);
    col(r_ts).lt(col(s_te)).and(col(s_ts).lt(col(r_te)))
}

/// Positive part: `SELECT r.*, s.*, greatest(r.ts, s.ts), least(r.te, s.te)
/// FROM r, s WHERE θ AND overlap`. Shared with the sql+normalize baseline.
pub(crate) fn positive_part(
    r: LogicalPlan,
    s: LogicalPlan,
    theta: Option<Expr>,
) -> TemporalResult<LogicalPlan> {
    let rs = r.schema();
    let ss = s.schema();
    let (wr, ws) = (rs.len(), ss.len());
    let cond = match theta {
        Some(t) => t.and(overlap(wr, ws)),
        None => overlap(wr, ws),
    };
    let joined = r.join(s, JoinType::Inner, Some(cond));
    let mut items: Vec<(Expr, String)> = Vec::new();
    for i in 0..wr - 2 {
        items.push((col(i), rs.col(i).name.clone()));
    }
    for i in 0..ws - 2 {
        items.push((col(wr + i), ss.col(i).name.clone()));
    }
    items.push((
        Expr::Func(Func::Greatest, vec![col(wr - 2), col(wr + ws - 2)]),
        "ts".to_string(),
    ));
    items.push((
        Expr::Func(Func::Least, vec![col(wr - 1), col(wr + ws - 1)]),
        "te".to_string(),
    ));
    Ok(joined.project_named(items)?)
}

/// Negative part of `r ⟕ᵀ_θ s`: the maximal sub-intervals of each `r`
/// tuple not covered by any matching `s`, as rows `(r.data, p1, p2)`.
fn negative_part(
    r: LogicalPlan,
    s: LogicalPlan,
    theta: Option<Expr>,
) -> TemporalResult<LogicalPlan> {
    let rs = r.schema();
    let ss = s.schema();
    let (wr, ws) = (rs.len(), ss.len());
    let (r_ts, r_te) = (wr - 2, wr - 1);
    let (s_ts, s_te) = (wr + ws - 2, wr + ws - 1);

    // Cheapest conjunct first so the nested loop short-circuits, as a
    // cost-based optimizer would order them.
    let match_cond = |extra: Expr| -> Expr {
        match &theta {
            Some(t) => extra.and(overlap(wr, ws)).and(t.clone()),
            None => extra.and(overlap(wr, ws)),
        }
    };

    let r_items = |extra: (Expr, String)| -> Vec<(Expr, String)> {
        let mut items: Vec<(Expr, String)> =
            (0..wr).map(|i| (col(i), rs.col(i).name.clone())).collect();
        items.push(extra);
        items
    };

    // Candidate gap starts: r.ts itself ∪ matching s.te strictly inside r.
    let self_starts = r
        .clone()
        .project_named(r_items((col(r_ts), P1.to_string())))?;
    let join_starts = r
        .clone()
        .join(
            s.clone(),
            JoinType::Inner,
            Some(match_cond(col(s_te).lt(col(r_te)))),
        )
        .project_named(r_items((col(s_te), P1.to_string())))?;
    let starts = self_starts.set_op(SetOpKind::Union, join_starts);

    // Candidate gap ends: r.te itself ∪ matching s.ts strictly inside r.
    let self_ends = r
        .clone()
        .project_named(r_items((col(r_te), P2.to_string())))?;
    let join_ends = r
        .clone()
        .join(
            s.clone(),
            JoinType::Inner,
            Some(match_cond(col(s_ts).gt(col(r_ts)))),
        )
        .project_named(r_items((col(s_ts), P2.to_string())))?;
    let ends = self_ends.set_op(SetOpKind::Union, join_ends);

    // Pair candidates of the same r tuple with p1 < p2 (equality on the
    // full r tuple → hash-joinable).
    let wc = wr + 1; // width of starts/ends rows
    let mut pair_conj: Vec<Expr> = (0..wr).map(|i| col(i).eq(col(wc + i))).collect();
    pair_conj.push(col(wr).lt(col(wc + wr))); // p1 < p2
    let pairs = starts
        .join(ends, JoinType::Inner, Expr::and_all(pair_conj))
        .project_named({
            let mut items: Vec<(Expr, String)> =
                (0..wr).map(|i| (col(i), rs.col(i).name.clone())).collect();
            items.push((col(wr), P1.to_string()));
            items.push((col(wc + wr), P2.to_string()));
            items
        })?;

    // NOT EXISTS (SELECT * FROM s WHERE θ AND s overlaps [p1, p2)) — an
    // anti join over (pairs ++ s). θ's s-columns shift by the two
    // candidate columns.
    let shifted_theta = theta
        .as_ref()
        .map(|t| t.remap_cols(&|i| if i < wr { i } else { i + 2 }));
    let (p1c, p2c) = (wr, wr + 1);
    let (ps_ts, ps_te) = (wr + 2 + ws - 2, wr + 2 + ws - 1);
    let gap_overlap = col(ps_ts).lt(col(p2c)).and(col(ps_te).gt(col(p1c)));
    let anti_cond = match shifted_theta {
        Some(t) => t.and(gap_overlap),
        None => gap_overlap,
    };
    let gaps = pairs.join(s, JoinType::Anti, Some(anti_cond));
    // Shape for padding: (r.data…, p1, p2).
    let mut keep: Vec<usize> = (0..wr - 2).collect();
    keep.push(p1c);
    keep.push(p2c);
    Ok(gaps.project_cols(&keep))
}

/// ω-pad a negative-part plan `(r.data…, p1, p2)` to the full outer-join
/// schema, with the NULL columns `where_side` ∈ {left, right} of the data.
fn pad_negative(
    neg: LogicalPlan,
    own_names: Vec<String>,
    other_width: usize,
    nulls_on_right: bool,
) -> TemporalResult<LogicalPlan> {
    let own_width = own_names.len();
    let mut items: Vec<(Expr, String)> = Vec::new();
    if nulls_on_right {
        for (i, n) in own_names.iter().enumerate() {
            items.push((col(i), n.clone()));
        }
        for j in 0..other_width {
            items.push((Expr::Lit(Value::Null), format!("__pad{j}")));
        }
    } else {
        for j in 0..other_width {
            items.push((Expr::Lit(Value::Null), format!("__pad{j}")));
        }
        for (i, n) in own_names.iter().enumerate() {
            items.push((col(i), n.clone()));
        }
    }
    items.push((col(own_width), "ts".to_string()));
    items.push((col(own_width + 1), "te".to_string()));
    Ok(neg.project_named(items)?)
}

fn data_names(schema: &Schema) -> Vec<String> {
    schema.cols()[..schema.len() - 2]
        .iter()
        .map(|c| c.name.clone())
        .collect()
}

/// `r ⟕ᵀ_θ s` in standard SQL: positive part ∪ ω-padded negative part.
pub fn sql_left_outer_join_plan(
    r: LogicalPlan,
    s: LogicalPlan,
    theta: Option<Expr>,
) -> TemporalResult<LogicalPlan> {
    let rs = r.schema();
    let ss = s.schema();
    if rs.len() < 2 || ss.len() < 2 {
        return Err(TemporalError::InvalidRelation(
            "arguments must carry ts/te columns".into(),
        ));
    }
    let pos = positive_part(r.clone(), s.clone(), theta.clone())?;
    let neg = negative_part(r, s.clone(), theta)?;
    let padded = pad_negative(neg, data_names(&rs), ss.len() - 2, true)?;
    Ok(pos.set_op(SetOpKind::Union, padded))
}

/// `r ⟗ᵀ_θ s` in standard SQL: positive ∪ negative(r) ∪ negative(s).
pub fn sql_full_outer_join_plan(
    r: LogicalPlan,
    s: LogicalPlan,
    theta: Option<Expr>,
) -> TemporalResult<LogicalPlan> {
    let rs = r.schema();
    let ss = s.schema();
    let (wr, ws) = (rs.len(), ss.len());
    let pos = positive_part(r.clone(), s.clone(), theta.clone())?;
    let neg_r = negative_part(r.clone(), s.clone(), theta.clone())?;
    let neg_r = pad_negative(neg_r, data_names(&rs), ws - 2, true)?;
    // Negative part of s: swap the roles (θ remapped to s ++ r coords).
    let swapped = theta.map(|e| e.remap_cols(&|i| if i < wr { i + ws } else { i - wr }));
    let neg_s = negative_part(s, r, swapped)?;
    let neg_s = pad_negative(neg_s, data_names(&ss), wr - 2, false)?;
    Ok(pos
        .set_op(SetOpKind::Union, neg_r)
        .set_op(SetOpKind::Union, neg_s))
}

/// The SQL this construction corresponds to (for documentation and the
/// SQL-front-end tests), for the θ-free left outer join of `r(a, ts, te)`
/// and `s(b, ts, te)`.
pub fn sql_left_outer_join_text() -> &'static str {
    "SELECT r.a, s.b, greatest(r.ts, s.ts) AS ts, least(r.te, s.te) AS te \
     FROM r, s \
     WHERE r.ts < s.te AND s.ts < r.te \
     UNION \
     SELECT r.a, NULL, p.p1 AS ts, p.p2 AS te \
     FROM (SELECT r.a, r.ts, r.te, c1.p1, c2.p2 \
           FROM r, (SELECT r.a, r.ts AS p1 FROM r \
                    UNION SELECT r.a, s.te FROM r, s \
                    WHERE r.ts < s.te AND s.ts < r.te AND s.te < r.te) c1, \
                   (SELECT r.a, r.te AS p2 FROM r \
                    UNION SELECT r.a, s.ts FROM r, s \
                    WHERE r.ts < s.te AND s.ts < r.te AND s.ts > r.ts) c2 \
           WHERE c1.p1 < c2.p2) p \
     WHERE NOT EXISTS (SELECT * FROM s \
                       WHERE s.ts < p.p2 AND s.te > p.p1)"
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::{assert_matches_reduction, rel, run};
    use temporal_core::interval::Interval;
    use temporal_core::semantics::TemporalOp;

    const LOJ: TemporalOp = TemporalOp::LeftOuterJoin { theta: None };

    #[test]
    fn matches_reduction_on_simple_loj() {
        let r = rel("r", &[(1, 0, 8), (2, 5, 12)]);
        let s = rel("s", &[(7, 2, 4), (8, 6, 15)]);
        assert_matches_reduction(sql_left_outer_join_plan, &LOJ, &r, &s);
    }

    #[test]
    fn matches_reduction_with_theta() {
        let r = rel("r", &[(1, 0, 8), (2, 5, 12), (1, 9, 14)]);
        let s = rel("s", &[(1, 2, 4), (2, 6, 15), (1, 5, 11)]);
        let op = TemporalOp::LeftOuterJoin {
            theta: Some(col(0).eq(col(3))), // r.k = s.k
        };
        assert_matches_reduction(sql_left_outer_join_plan, &op, &r, &s);
    }

    #[test]
    fn matches_reduction_on_full_outer_join() {
        let r = rel("r", &[(1, 0, 8), (2, 3, 6)]);
        let s = rel("s", &[(1, 2, 10), (3, 20, 30)]);
        let op = TemporalOp::FullOuterJoin {
            theta: Some(col(0).eq(col(3))),
        };
        assert_matches_reduction(sql_full_outer_join_plan, &op, &r, &s);
    }

    #[test]
    fn disjoint_data_keeps_whole_intervals() {
        let r = rel("r", &[(1, 0, 5), (2, 20, 25)]);
        let s = rel("s", &[(9, 10, 15)]);
        let sql = run(sql_left_outer_join_plan, &LOJ, &r, &s);
        // no overlaps: every r tuple survives whole, ω-padded.
        assert_eq!(sql.len(), 2);
        for (d, _) in sql.iter() {
            assert!(d[1].is_null());
        }
    }

    #[test]
    fn fully_covered_r_has_no_negative_rows() {
        let r = rel("r", &[(1, 2, 6)]);
        let s = rel("s", &[(9, 0, 10)]);
        let sql = run(sql_left_outer_join_plan, &LOJ, &r, &s);
        assert_eq!(sql.len(), 1);
        let (d, iv) = sql.iter().next().unwrap();
        assert_eq!(d[1], Value::Int(9));
        assert_eq!(iv, Interval::of(2, 6));
    }

    #[test]
    fn sql_text_is_wellformed_doc() {
        let t = sql_left_outer_join_text();
        assert!(t.contains("NOT EXISTS"));
        assert!(t.contains("greatest"));
    }
}
