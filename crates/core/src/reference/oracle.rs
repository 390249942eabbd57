//! Point-wise oracle evaluation (see module docs of [`crate::reference`]).

use std::collections::{BTreeMap, HashSet};

use temporal_engine::exec::aggregate_rows;
use temporal_engine::prelude::*;

use crate::error::TemporalResult;
use crate::interval::{Interval, TimePoint};
use crate::semantics::lineage::{lineage, Lineage};
use crate::semantics::op::TemporalOp;
use crate::trel::TemporalRelation;

/// Evaluate the **nontemporal** counterpart of `op` on the snapshots of
/// `args` at time `t`, returning the set of result *data* rows.
///
/// θ conditions reference full argument rows, so live rows keep their
/// ts/te columns during evaluation and are projected to data columns at
/// the end.
///
/// One deliberate deviation from the literal definitions: a *global*
/// aggregation (empty grouping) over an empty snapshot yields no row
/// (instead of the identity row a nontemporal aggregate would produce),
/// because a temporal relation can only represent results over finitely
/// many intervals. The reduction rules behave identically.
pub fn snapshot_eval(
    op: &TemporalOp,
    args: &[&TemporalRelation],
    t: TimePoint,
) -> TemporalResult<Vec<Row>> {
    let live = |r: &TemporalRelation| -> Vec<Row> {
        r.rows()
            .iter()
            .filter(|row| r.interval_of(row).contains_point(t))
            .cloned()
            .collect()
    };
    let dedup = |rows: Vec<Row>| -> Vec<Row> {
        let mut seen = HashSet::new();
        rows.into_iter()
            .filter(|r| seen.insert(r.clone()))
            .collect()
    };

    let out: Vec<Row> = match op {
        TemporalOp::Selection { predicate } => {
            let r = args[0];
            let mut rows = Vec::new();
            for row in live(r) {
                if predicate.eval_pred(row.values())? {
                    rows.push(Row::new(r.data_of(&row).to_vec()));
                }
            }
            dedup(rows)
        }
        TemporalOp::Projection { attrs } => {
            let r = args[0];
            dedup(live(r).into_iter().map(|row| row.project(attrs)).collect())
        }
        TemporalOp::Aggregation { group, aggs } => {
            let r = args[0];
            let rows = live(r);
            if rows.is_empty() {
                Vec::new()
            } else {
                let group_exprs: Vec<Expr> = group.iter().map(|&i| col(i)).collect();
                let calls: Vec<AggCall> = aggs.iter().map(|(c, _)| c.clone()).collect();
                aggregate_rows(&rows, &group_exprs, &calls)?
            }
        }
        TemporalOp::Union => {
            let (r, s) = (args[0], args[1]);
            let mut rows: Vec<Row> = live(r)
                .into_iter()
                .map(|row| Row::new(r.data_of(&row).to_vec()))
                .collect();
            rows.extend(
                live(s)
                    .into_iter()
                    .map(|row| Row::new(s.data_of(&row).to_vec())),
            );
            dedup(rows)
        }
        TemporalOp::Difference => {
            let (r, s) = (args[0], args[1]);
            let s_set: HashSet<Row> = live(s)
                .into_iter()
                .map(|row| Row::new(s.data_of(&row).to_vec()))
                .collect();
            dedup(
                live(r)
                    .into_iter()
                    .map(|row| Row::new(r.data_of(&row).to_vec()))
                    .filter(|row| !s_set.contains(row))
                    .collect(),
            )
        }
        TemporalOp::Intersection => {
            let (r, s) = (args[0], args[1]);
            let s_set: HashSet<Row> = live(s)
                .into_iter()
                .map(|row| Row::new(s.data_of(&row).to_vec()))
                .collect();
            dedup(
                live(r)
                    .into_iter()
                    .map(|row| Row::new(r.data_of(&row).to_vec()))
                    .filter(|row| s_set.contains(row))
                    .collect(),
            )
        }
        TemporalOp::CartesianProduct
        | TemporalOp::Join { .. }
        | TemporalOp::LeftOuterJoin { .. }
        | TemporalOp::RightOuterJoin { .. }
        | TemporalOp::FullOuterJoin { .. } => {
            let (r, s) = (args[0], args[1]);
            let theta = op.theta();
            let (lr, ls) = (live(r), live(s));
            let (dr, ds) = (r.data_width(), s.data_width());
            let mut rows = Vec::new();
            let mut r_matched = vec![false; lr.len()];
            let mut s_matched = vec![false; ls.len()];
            for (i, rrow) in lr.iter().enumerate() {
                for (j, srow) in ls.iter().enumerate() {
                    let combined = rrow.concat(srow);
                    let ok = match theta {
                        None => true,
                        Some(e) => e.eval_pred(combined.values())?,
                    };
                    if ok {
                        r_matched[i] = true;
                        s_matched[j] = true;
                        let mut vals = r.data_of(rrow).to_vec();
                        vals.extend_from_slice(s.data_of(srow));
                        rows.push(Row::new(vals));
                    }
                }
            }
            let pad_left = matches!(
                op,
                TemporalOp::LeftOuterJoin { .. } | TemporalOp::FullOuterJoin { .. }
            );
            let pad_right = matches!(
                op,
                TemporalOp::RightOuterJoin { .. } | TemporalOp::FullOuterJoin { .. }
            );
            if pad_left {
                for (i, rrow) in lr.iter().enumerate() {
                    if !r_matched[i] {
                        let mut vals = r.data_of(rrow).to_vec();
                        vals.extend(std::iter::repeat_n(Value::Null, ds));
                        rows.push(Row::new(vals));
                    }
                }
            }
            if pad_right {
                for (j, srow) in ls.iter().enumerate() {
                    if !s_matched[j] {
                        let mut vals = vec![Value::Null; dr];
                        vals.extend_from_slice(s.data_of(srow));
                        rows.push(Row::new(vals));
                    }
                }
            }
            dedup(rows)
        }
        TemporalOp::AntiJoin { theta } => {
            let (r, s) = (args[0], args[1]);
            let (lr, ls) = (live(r), live(s));
            let mut rows = Vec::new();
            for rrow in &lr {
                let mut matched = false;
                for srow in &ls {
                    let combined = rrow.concat(srow);
                    let ok = match theta {
                        None => true,
                        Some(e) => e.eval_pred(combined.values())?,
                    };
                    if ok {
                        matched = true;
                        break;
                    }
                }
                if !matched {
                    rows.push(Row::new(r.data_of(rrow).to_vec()));
                }
            }
            dedup(rows)
        }
    };
    Ok(out)
}

/// Evaluate `op(args)` by snapshots + lineage stitching (see module docs).
pub fn evaluate_oracle(
    op: &TemporalOp,
    args: &[&TemporalRelation],
) -> TemporalResult<TemporalRelation> {
    let data_schema = op.result_data_schema(args)?;

    // Critical points: all argument endpoints. Snapshots and lineage are
    // constant within [p_i, p_{i+1}).
    let mut points: Vec<TimePoint> = Vec::new();
    for a in args {
        points.extend(a.endpoints());
    }
    points.sort_unstable();
    points.dedup();

    let mut out: Vec<(Vec<Value>, Interval)> = Vec::new();
    // value row → (segment start, lineage at that segment)
    let mut active: BTreeMap<Row, (TimePoint, Lineage)> = BTreeMap::new();

    for win in points.windows(2) {
        let (seg_start, _seg_end) = (win[0], win[1]);
        let rows = snapshot_eval(op, args, seg_start)?;
        let mut current: BTreeMap<Row, Lineage> = BTreeMap::new();
        for row in rows {
            let lin = lineage(op, args, row.values(), seg_start)?;
            current.insert(row, lin);
        }
        // Close tuples that disappeared or changed lineage.
        let mut to_close: Vec<Row> = Vec::new();
        for (row, (_, lin)) in &active {
            match current.get(row) {
                Some(new_lin) if new_lin == lin => {}
                _ => to_close.push(row.clone()),
            }
        }
        for row in to_close {
            let (start, _) = active.remove(&row).expect("present");
            out.push((row.to_vec(), Interval::of(start, seg_start)));
        }
        // Open tuples that appeared (or reopened with new lineage).
        for (row, lin) in current {
            active.entry(row).or_insert((seg_start, lin));
        }
    }
    // Close everything at the final endpoint.
    if let Some(&last) = points.last() {
        for (row, (start, _)) in active {
            out.push((row.to_vec(), Interval::of(start, last)));
        }
    }

    TemporalRelation::from_rows(data_schema, out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interval::Interval;

    fn rel(rows: &[(&str, i64, i64)]) -> TemporalRelation {
        TemporalRelation::from_rows(
            Schema::new(vec![Column::new("v", DataType::Str)]),
            rows.iter()
                .map(|&(v, s, e)| (vec![Value::str(v)], Interval::of(s, e)))
                .collect(),
        )
        .unwrap()
    }

    #[test]
    fn oracle_left_outer_join_fragments_correctly() {
        let r = rel(&[("a", 0, 8)]);
        let s = rel(&[("x", 2, 4)]);
        let op = TemporalOp::LeftOuterJoin { theta: None };
        let out = evaluate_oracle(&op, &[&r, &s]).unwrap();
        let expected = TemporalRelation::from_rows(
            op.result_data_schema(&[&r, &s]).unwrap(),
            vec![
                (vec![Value::str("a"), Value::Null], Interval::of(0, 2)),
                (vec![Value::str("a"), Value::str("x")], Interval::of(2, 4)),
                (vec![Value::str("a"), Value::Null], Interval::of(4, 8)),
            ],
        )
        .unwrap();
        assert!(out.same_set(&expected), "{out}");
    }

    #[test]
    fn oracle_preserves_changes_at_touching_intervals() {
        // Two value-equivalent r tuples that meet at 5: the union keeps
        // the change (two fragments), because lineage flips.
        let r = rel(&[("a", 0, 5), ("a", 5, 9)]);
        let s = rel(&[]);
        let out = evaluate_oracle(&TemporalOp::Union, &[&r, &s]).unwrap();
        assert_eq!(out.len(), 2, "{out}");
    }

    #[test]
    fn oracle_matches_reduction_on_difference() {
        let planner = Planner::default();
        let r = rel(&[("a", 0, 8), ("b", 0, 3)]);
        let s = rel(&[("a", 2, 5)]);
        let fast = TemporalOp::Difference
            .evaluate(&planner, &[&r, &s])
            .unwrap();
        let slow = evaluate_oracle(&TemporalOp::Difference, &[&r, &s]).unwrap();
        assert!(fast.same_set(&slow), "fast:\n{fast}\nslow:\n{slow}");
    }

    #[test]
    fn oracle_matches_reduction_on_aggregation() {
        let planner = Planner::default();
        let r = rel(&[("a", 0, 5), ("b", 3, 9), ("c", 4, 6)]);
        let op = TemporalOp::Aggregation {
            group: vec![],
            aggs: vec![(AggCall::count_star(), "cnt".to_string())],
        };
        let fast = op.evaluate(&planner, &[&r]).unwrap();
        let slow = evaluate_oracle(&op, &[&r]).unwrap();
        assert!(fast.same_set(&slow), "fast:\n{fast}\nslow:\n{slow}");
    }

    #[test]
    fn snapshot_eval_respects_theta() {
        let r = rel(&[("a", 0, 9)]);
        let s = rel(&[("a", 0, 9), ("b", 0, 9)]);
        // θ: r.v = s.v → concat cols: r.v=0, s.v=3.
        let op = TemporalOp::Join {
            theta: Some(col(0).eq(col(3))),
        };
        let rows = snapshot_eval(&op, &[&r, &s], 1).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].values()[1], Value::str("a"));
    }

    #[test]
    fn empty_args_produce_empty_results() {
        let r = rel(&[]);
        let out = evaluate_oracle(&TemporalOp::Union, &[&r, &r]).unwrap();
        assert!(out.is_empty());
        let op = TemporalOp::Aggregation {
            group: vec![],
            aggs: vec![(AggCall::count_star(), "c".to_string())],
        };
        let out = evaluate_oracle(&op, &[&r]).unwrap();
        assert!(out.is_empty());
    }
}
