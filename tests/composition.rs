//! Composability: the temporal algebra is *closed* — every reduced
//! operator emits a valid duplicate-free temporal relation that can feed
//! the next temporal operator, and snapshot reducibility composes
//! (the snapshot of a pipeline equals the nontemporal pipeline on
//! snapshots).

mod common;

use common::{paper_p, paper_r, random_trel};
use temporal_alignment::core::prelude::*;
use temporal_alignment::core::reference::snapshot_eval;
use temporal_alignment::core::semantics::{critical_points, TemporalOp};
use temporal_alignment::engine::prelude::*;

/// Snapshot of a composed pipeline = composition of nontemporal snapshots.
fn check_pipeline_snapshots(
    stages: &[TemporalOp],
    inputs: &[&TemporalRelation],
    result: &TemporalRelation,
) {
    // Evaluate the pipeline per snapshot: each stage's snapshot result
    // feeds the next stage (binary stages pair with the next input).
    let mut rels: Vec<&TemporalRelation> = inputs.to_vec();
    rels.push(result);
    for t in critical_points(&rels) {
        // stage 0 consumes inputs[0] (and inputs[1] if binary), later
        // stages consume the running result plus the next input.
        let mut arg_idx = 0usize;
        let mut current: Option<TemporalRelation> = None;
        for op in stages {
            let args_owned: Vec<TemporalRelation>;
            let args: Vec<&TemporalRelation> = match (&current, op.arity()) {
                (None, 1) => {
                    arg_idx += 1;
                    vec![inputs[arg_idx - 1]]
                }
                (None, 2) => {
                    arg_idx += 2;
                    vec![inputs[arg_idx - 2], inputs[arg_idx - 1]]
                }
                (Some(c), 1) => {
                    args_owned = vec![c.clone()];
                    args_owned.iter().collect()
                }
                (Some(c), 2) => {
                    arg_idx += 1;
                    args_owned = vec![c.clone()];
                    let mut v: Vec<&TemporalRelation> = args_owned.iter().collect();
                    v.push(inputs[arg_idx - 1]);
                    v
                }
                _ => unreachable!(),
            };
            // Evaluate nontemporal op at time t over the *temporal* args:
            // snapshot_eval handles the timeslice internally, so feed it
            // temporal relations and rebuild a "point relation" whose rows
            // live exactly at t (interval [t, t+1)).
            let rows = snapshot_eval(op, &args, t).expect("snapshot eval");
            let data_schema = op.result_data_schema(&args).expect("schema");
            let point_rel = TemporalRelation::from_rows(
                data_schema,
                rows.into_iter()
                    .map(|r| (r.to_vec(), Interval::of(t, t + 1)))
                    .collect(),
            )
            .expect("point relation");
            current = Some(point_rel);
        }
        let expected = current.expect("nonempty pipeline").timeslice(t);
        let actual = result.timeslice(t);
        assert!(
            actual.same_set(&expected),
            "pipeline snapshot mismatch at t={t}:\nactual:\n{actual}\nexpected:\n{expected}"
        );
    }
}

#[test]
fn join_then_aggregate() {
    // headcount of matched reservation-price pairs over time:
    // ϑ_count(R ⋈ᵀ P)
    let (r, p) = (paper_r(), paper_p());
    let planner = Planner::default();
    let join_op = TemporalOp::Join { theta: None };
    let joined = join_op.evaluate(&planner, &[&r, &p]).unwrap();
    assert!(joined.is_duplicate_free());
    let agg_op = TemporalOp::Aggregation {
        group: vec![],
        aggs: vec![(AggCall::count_star(), "cnt".to_string())],
    };
    let out = agg_op.evaluate(&planner, &[&joined]).unwrap();
    assert!(out.is_duplicate_free());
    check_pipeline_snapshots(&[join_op, agg_op], &[&r, &p], &out);
}

#[test]
fn difference_then_projection() {
    let r = random_trel(61, 10, 3, 20);
    let s = random_trel(62, 10, 3, 20);
    let planner = Planner::default();
    let diff_op = TemporalOp::Difference;
    let diffed = diff_op.evaluate(&planner, &[&r, &s]).unwrap();
    assert!(diffed.is_duplicate_free());
    let proj_op = TemporalOp::Projection { attrs: vec![0] };
    let out = proj_op.evaluate(&planner, &[&diffed]).unwrap();
    assert!(out.is_duplicate_free());
    check_pipeline_snapshots(&[diff_op, proj_op], &[&r, &s], &out);
}

#[test]
fn join_of_join_results() {
    // (r ⋈ᵀ s) ⋈ᵀ u — three-way temporal join via two reductions.
    let r = random_trel(71, 8, 2, 16);
    let s = random_trel(72, 8, 2, 16);
    let u = random_trel(73, 8, 2, 16);
    let planner = Planner::default();
    let j1 = TemporalOp::Join { theta: None };
    let rs = j1.evaluate(&planner, &[&r, &s]).unwrap();
    assert!(rs.is_duplicate_free());
    let j2 = TemporalOp::Join { theta: None };
    let out = j2.evaluate(&planner, &[&rs, &u]).unwrap();
    assert!(out.is_duplicate_free());
    check_pipeline_snapshots(&[j1, j2], &[&r, &s, &u], &out);
}

#[test]
fn union_then_difference_then_aggregate() {
    let a = random_trel(81, 8, 2, 14);
    let b = random_trel(82, 8, 2, 14);
    let c = random_trel(83, 8, 2, 14);
    let planner = Planner::default();
    let u_op = TemporalOp::Union;
    let ab = u_op.evaluate(&planner, &[&a, &b]).unwrap();
    let d_op = TemporalOp::Difference;
    let abc = d_op.evaluate(&planner, &[&ab, &c]).unwrap();
    assert!(abc.is_duplicate_free());
    let agg_op = TemporalOp::Aggregation {
        group: vec![0],
        aggs: vec![(AggCall::count_star(), "cnt".to_string())],
    };
    let out = agg_op.evaluate(&planner, &[&abc]).unwrap();
    check_pipeline_snapshots(&[u_op, d_op, agg_op], &[&a, &b, &c], &out);
}

#[test]
fn outer_join_feeds_selection_and_antijoin() {
    let r = random_trel(91, 8, 2, 14);
    let s = random_trel(92, 8, 2, 14);
    let planner = Planner::default();
    let loj = TemporalOp::LeftOuterJoin { theta: None };
    let joined = loj.evaluate(&planner, &[&r, &s]).unwrap();
    // keep only the ω-padded rows (negative part): s-side is NULL
    let sel = TemporalOp::Selection {
        predicate: col(1).is_null(),
    };
    let negative = sel.evaluate(&planner, &[&joined]).unwrap();
    assert!(negative.is_duplicate_free());
    check_pipeline_snapshots(&[loj, sel], &[&r, &s], &negative);

    // The ω rows must exactly be the anti join's result (projected).
    let anti = TemporalOp::AntiJoin { theta: None };
    let anti_out = anti.evaluate(&planner, &[&r, &s]).unwrap();
    let projected = negative.project_data(&[0]).unwrap();
    assert!(
        projected.same_set(&anti_out),
        "ω rows:\n{projected}\nanti join:\n{anti_out}"
    );
}
