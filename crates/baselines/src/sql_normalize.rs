//! Temporal outer joins via SQL + the normalization primitive (Sec. 7.5):
//! the `sql+normalize` series of Fig. 16.
//!
//! The join part is computed with standard SQL (overlap predicates); the
//! negative part is the **temporal difference** between the argument
//! relation and the join result projected onto that argument's attributes,
//! computed with normalization per Table 2:
//! `r −ᵀ π(J) = N_A(r; π(J)) − N_A(π(J); r)`.
//!
//! The expensive step — and the reason `align` wins in Fig. 16 — is
//! normalizing against the *intermediate join result*, which is large and
//! supplies many candidate splitting points.

use temporal_core::error::TemporalResult;
use temporal_core::primitives::adjustment::normalize_plan;
use temporal_engine::prelude::*;

/// Positive part: identical to the `sql` baseline's join part.
fn positive_part(
    r: LogicalPlan,
    s: LogicalPlan,
    theta: Option<Expr>,
) -> TemporalResult<LogicalPlan> {
    crate::sql_outer_join::positive_part(r, s, theta)
}

/// The *temporal* projection of the positive part onto one side's
/// attributes: `πᵀ_A(J) = π_{A,T}(N_A(J; J))` per Table 2. A plain column
/// projection would leave value-equivalent overlapping tuples (the join
/// result pairs one r tuple with many s tuples), violating the
/// duplicate-freeness the temporal difference requires — and this
/// normalization of the intermediate join result is precisely the
/// expensive step Fig. 16 measures.
fn project_side(
    pos: LogicalPlan,
    keep_left: bool,
    dl: usize,
    dr_other: usize,
) -> TemporalResult<LogicalPlan> {
    let idxs: Vec<usize> = if keep_left {
        (0..dl).collect()
    } else {
        (dl..dl + dr_other).collect()
    };
    temporal_core::algebra::reduce_projection(pos, &idxs)
}

/// The temporal difference `x −ᵀ y` per Table 2 (both plans carry
/// identically-shaped data columns + ts/te).
fn temporal_difference(x: LogicalPlan, y: LogicalPlan) -> TemporalResult<LogicalPlan> {
    let dw = x.schema().len() - 2;
    let pairs: Vec<(usize, usize)> = (0..dw).map(|i| (i, i)).collect();
    let xn = normalize_plan(x.clone(), y.clone(), &pairs)?;
    let yn = normalize_plan(y, x, &pairs)?;
    Ok(xn.set_op(SetOpKind::Except, yn))
}

/// ω-pad a difference result `(data…, ts, te)` into the join schema.
fn pad(
    diff: LogicalPlan,
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
    Ok(diff.project_named(items)?)
}

fn data_names(schema: &Schema) -> Vec<String> {
    schema.cols()[..schema.len() - 2]
        .iter()
        .map(|c| c.name.clone())
        .collect()
}

/// `r ⟕ᵀ_θ s` via sql+normalize.
pub fn sqlnorm_left_outer_join_plan(
    r: LogicalPlan,
    s: LogicalPlan,
    theta: Option<Expr>,
) -> TemporalResult<LogicalPlan> {
    let rs = r.schema();
    let ss = s.schema();
    let (dl, dr) = (rs.len() - 2, ss.len() - 2);
    let pos = positive_part(r.clone(), s, theta)?;
    let r_part = project_side(pos.clone(), true, dl, dr)?;
    let neg = temporal_difference(r, r_part)?;
    let padded = pad(neg, data_names(&rs), dr, true)?;
    Ok(pos.set_op(SetOpKind::Union, padded))
}

/// `r ⟗ᵀ_θ s` via sql+normalize.
pub fn sqlnorm_full_outer_join_plan(
    r: LogicalPlan,
    s: LogicalPlan,
    theta: Option<Expr>,
) -> TemporalResult<LogicalPlan> {
    let rs = r.schema();
    let ss = s.schema();
    let (dl, dr) = (rs.len() - 2, ss.len() - 2);
    let pos = positive_part(r.clone(), s.clone(), theta)?;
    let r_part = project_side(pos.clone(), true, dl, dr)?;
    let s_part = project_side(pos.clone(), false, dl, dr)?;
    let neg_r = pad(temporal_difference(r, r_part)?, data_names(&rs), dr, true)?;
    let neg_s = pad(temporal_difference(s, s_part)?, data_names(&ss), dl, false)?;
    Ok(pos
        .set_op(SetOpKind::Union, neg_r)
        .set_op(SetOpKind::Union, neg_s))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::{assert_matches_reduction, rel, run};
    use temporal_core::semantics::TemporalOp;

    #[test]
    fn matches_reduction_on_loj() {
        let r = rel("r", &[(1, 0, 8), (2, 5, 12), (1, 9, 14)]);
        let s = rel("s", &[(1, 2, 4), (2, 6, 15), (1, 5, 11)]);
        let op = TemporalOp::LeftOuterJoin {
            theta: Some(col(0).eq(col(3))),
        };
        assert_matches_reduction(sqlnorm_left_outer_join_plan, &op, &r, &s);
    }

    #[test]
    fn matches_reduction_on_foj() {
        let r = rel("r", &[(1, 0, 8), (2, 3, 6)]);
        let s = rel("s", &[(1, 2, 10), (3, 20, 30)]);
        let op = TemporalOp::FullOuterJoin {
            theta: Some(col(0).eq(col(3))),
        };
        assert_matches_reduction(sqlnorm_full_outer_join_plan, &op, &r, &s);
    }

    #[test]
    fn adjacent_join_intervals_merge_correctly_in_negative_part() {
        // J covers [2,4) and [4,6) adjacently: the gap computation must
        // not leave a phantom tuple at the seam.
        let r = rel("r", &[(1, 0, 10)]);
        let s = rel("s", &[(1, 2, 4), (1, 4, 6)]);
        let op = TemporalOp::LeftOuterJoin {
            theta: Some(col(0).eq(col(3))),
        };
        assert_matches_reduction(sqlnorm_left_outer_join_plan, &op, &r, &s);
    }

    #[test]
    fn empty_sides() {
        let r = rel("r", &[(1, 0, 5)]);
        let empty = rel("s", &[]);
        let loj = TemporalOp::LeftOuterJoin { theta: None };
        let out = run(sqlnorm_left_outer_join_plan, &loj, &r, &empty);
        assert_eq!(out.len(), 1);
        let foj = TemporalOp::FullOuterJoin { theta: None };
        let out = run(sqlnorm_full_outer_join_plan, &foj, &empty, &r);
        assert_eq!(out.len(), 1);
    }
}
