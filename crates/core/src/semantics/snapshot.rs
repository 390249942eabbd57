//! Snapshot reducibility (Def. 1) and extended snapshot reducibility
//! (Def. 4) as executable checks.
//!
//! `ψᵀ` is snapshot reducible to `ψ` iff
//! `∀t: τ_t(ψᵀ(r₁,…,rₙ)) ≡ ψ(τ_t(r₁),…,τ_t(rₙ))`. Because snapshots are
//! constant between consecutive interval endpoints, verifying the equation
//! at every *critical point* (each argument/result endpoint) is exhaustive
//! over the whole (infinite) time domain.
//!
//! Extended snapshot reducibility is the same check run on *extended*
//! arguments (timestamps propagated into data columns and θ referencing
//! the propagated copies) followed by a projection onto E — callers
//! construct that shape with [`crate::primitives::extend`]; the check
//! itself is identical.

use temporal_engine::relation::Relation;

use crate::error::TemporalResult;
use crate::interval::TimePoint;
use crate::reference::oracle::snapshot_eval;
use crate::semantics::op::TemporalOp;
use crate::trel::TemporalRelation;

/// All distinct endpoints of the given relations, sorted — the points at
/// which snapshots can change.
pub fn critical_points(rels: &[&TemporalRelation]) -> Vec<TimePoint> {
    let mut pts: Vec<TimePoint> = rels.iter().flat_map(|r| r.endpoints()).collect();
    pts.sort_unstable();
    pts.dedup();
    pts
}

/// Check Def. 1 for `result = opᵀ(args)`: returns the time points at which
/// `τ_t(result)` differs from the nontemporal evaluation (empty = the
/// operator is snapshot reducible on this input).
pub fn check_snapshot_reducibility(
    op: &TemporalOp,
    args: &[&TemporalRelation],
    result: &TemporalRelation,
) -> TemporalResult<Vec<TimePoint>> {
    let mut rels: Vec<&TemporalRelation> = args.to_vec();
    rels.push(result);
    let mut violations = Vec::new();
    for t in critical_points(&rels) {
        let expected_rows = snapshot_eval(op, args, t)?;
        let expected = Relation::new(result.data_schema(), expected_rows)
            .map_err(crate::error::TemporalError::from)?;
        let actual = result.timeslice(t);
        if !actual.same_set(&expected) {
            violations.push(t);
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
    fn critical_points_union_endpoints() {
        let a = rel(&[("x", 0, 4)]);
        let b = rel(&[("y", 2, 8)]);
        assert_eq!(critical_points(&[&a, &b]), vec![0, 2, 4, 8]);
    }

    #[test]
    fn reduced_join_is_snapshot_reducible() {
        let planner = Planner::default();
        let r = rel(&[("a", 0, 8), ("b", 1, 4)]);
        let s = rel(&[("x", 2, 6), ("y", 5, 10)]);
        let op = TemporalOp::FullOuterJoin { theta: None };
        let result = op.evaluate(&planner, &[&r, &s]).unwrap();
        let violations = check_snapshot_reducibility(&op, &[&r, &s], &result).unwrap();
        assert!(violations.is_empty(), "violations at {violations:?}");
    }

    #[test]
    fn checker_detects_wrong_results() {
        let r = rel(&[("a", 0, 8)]);
        let s = rel(&[("x", 2, 6)]);
        let op = TemporalOp::Join { theta: None };
        // Deliberately wrong "result": the un-intersected interval.
        let wrong = TemporalRelation::from_rows(
            op.result_data_schema(&[&r, &s]).unwrap(),
            vec![(vec![Value::str("a"), Value::str("x")], Interval::of(0, 8))],
        )
        .unwrap();
        let violations = check_snapshot_reducibility(&op, &[&r, &s], &wrong).unwrap();
        assert!(!violations.is_empty());
    }

    #[test]
    fn checker_detects_missing_tuples() {
        let r = rel(&[("a", 0, 8)]);
        let op = TemporalOp::Selection {
            predicate: lit(true),
        };
        let empty = TemporalRelation::from_rows(r.data_schema(), vec![]).unwrap();
        let violations = check_snapshot_reducibility(&op, &[&r], &empty).unwrap();
        assert!(!violations.is_empty());
    }
}
