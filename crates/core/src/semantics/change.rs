//! Change preservation (Def. 7) as an executable check.
//!
//! A temporal operator is change preserving iff for every result tuple `z`:
//!
//! 1. the lineage set is constant over `z.T`;
//! 2. if a value-equivalent tuple `z'` covers `z.Ts − 1`, the lineage just
//!    before `z` differs from `z`'s lineage (no missed coalescing to the
//!    left);
//! 3. symmetrically at `z.Te`.
//!
//! Lineage at a time point depends only on a tuple's *values* (Def. 6), so
//! conditions 2/3 compare lineage of the same value row at adjacent points.

use crate::error::TemporalResult;
use crate::semantics::lineage::lineage;
use crate::semantics::op::TemporalOp;
use crate::semantics::snapshot::critical_points;
use crate::trel::TemporalRelation;

/// Check Def. 7 for `result = opᵀ(args)`. Returns human-readable
/// descriptions of violations (empty = change preserving on this input).
pub fn check_change_preservation(
    op: &TemporalOp,
    args: &[&TemporalRelation],
    result: &TemporalRelation,
) -> TemporalResult<Vec<String>> {
    let mut violations = Vec::new();
    let arg_points = critical_points(args);

    for row in result.rows() {
        let z = result.data_of(row);
        let iv = result.interval_of(row);

        // (1) Constant lineage over z.T: check at z.Ts and at every
        // argument endpoint strictly inside z.T (lineage is constant
        // between argument endpoints).
        let base = lineage(op, args, z, iv.start())?;
        for &p in arg_points
            .iter()
            .filter(|&&p| p > iv.start() && p < iv.end())
        {
            let lin = lineage(op, args, z, p)?;
            if lin != base {
                violations.push(format!(
                    "tuple {z:?} over {iv}: lineage changes inside the interval at t={p}"
                ));
            }
        }

        // (2)+(3) Maximality: a value-equivalent tuple covering the
        // adjacent point must have different lineage there.
        for (boundary, probe) in [(iv.start(), iv.start() - 1), (iv.end(), iv.end())] {
            let covered_by_equivalent = result.rows().iter().any(|other| {
                result.data_of(other) == z && result.interval_of(other).contains_point(probe)
            });
            if covered_by_equivalent {
                let adjacent = lineage(op, args, z, probe)?;
                if adjacent == base {
                    violations.push(format!(
                        "tuple {z:?} over {iv}: not maximal at {boundary} \
                         (equal lineage at t={probe})"
                    ));
                }
            }
        }
    }
    Ok(violations)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interval::Interval;
    use temporal_engine::prelude::*;

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
    fn reduced_union_is_change_preserving() {
        let planner = Planner::default();
        let r = rel(&[("a", 0, 10)]);
        let s = rel(&[("a", 5, 20)]);
        let out = TemporalOp::Union.evaluate(&planner, &[&r, &s]).unwrap();
        let v = check_change_preservation(&TemporalOp::Union, &[&r, &s], &out).unwrap();
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn coalesced_result_violates_change_preservation() {
        // Two meeting value-equivalent tuples: coalescing them into one
        // loses the change at t = 5 (Example 4's essence).
        let r = rel(&[("a", 0, 5), ("a", 5, 9)]);
        let s = rel(&[]);
        let coalesced = rel(&[("a", 0, 9)]);
        let v = check_change_preservation(&TemporalOp::Union, &[&r, &s], &coalesced).unwrap();
        assert!(!v.is_empty());
        assert!(v[0].contains("lineage changes inside"));
    }

    #[test]
    fn over_fragmented_result_violates_maximality() {
        let r = rel(&[("a", 0, 9)]);
        let s = rel(&[]);
        let fragmented = rel(&[("a", 0, 4), ("a", 4, 9)]);
        let v = check_change_preservation(&TemporalOp::Union, &[&r, &s], &fragmented).unwrap();
        assert!(!v.is_empty());
        assert!(v.iter().any(|m| m.contains("not maximal")));
    }

    #[test]
    fn paper_example4_z3_z4_not_coalesced() {
        // Reduced left outer join of the running example keeps z3/z4 apart;
        // the checker must accept that result and reject the coalesced one.
        use crate::interval::month::ym;
        let r = TemporalRelation::from_rows(
            Schema::new(vec![Column::new("n", DataType::Str)]),
            vec![
                (
                    vec![Value::str("ann")],
                    Interval::of(ym(2012, 1), ym(2012, 8)),
                ),
                (
                    vec![Value::str("ann")],
                    Interval::of(ym(2012, 8), ym(2012, 12)),
                ),
            ],
        )
        .unwrap();
        let p = TemporalRelation::from_rows(
            Schema::new(vec![Column::new("a", DataType::Int)]),
            vec![(vec![Value::Int(40)], Interval::of(ym(2012, 1), ym(2012, 6)))],
        )
        .unwrap();
        let planner = Planner::default();
        let op = TemporalOp::LeftOuterJoin { theta: None };
        let out = op.evaluate(&planner, &[&r, &p]).unwrap();
        let v = check_change_preservation(&op, &[&r, &p], &out).unwrap();
        assert!(v.is_empty(), "{v:?}\n{out}");
        // ω rows: [6,8) and [8,12) — not coalesced.
        let omega_rows: Vec<_> = out
            .iter()
            .filter(|(d, _)| d[1].is_null())
            .map(|(_, iv)| iv)
            .collect();
        assert_eq!(omega_rows.len(), 2);
    }
}
