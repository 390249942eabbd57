//! Parallel/serial differential tests: executing the same physical plan
//! under `threads = 4` must be **row-for-row identical** — same rows, same
//! order — to `threads = 1` (whose results `tests/batch_differential.rs`
//! checks against the references). The parallel states use
//! `parallel_min_rows = 1` so even the small proptest inputs actually take
//! the partitioned code paths (exchange over scans, parallel sort,
//! partitioned hash join build + probe, data-run-partitioned temporal
//! sweeps).

mod common;

use std::sync::atomic::Ordering;

use proptest::prelude::*;
use temporal_alignment::core::prelude::*;
use temporal_alignment::core::semantics::TemporalOp;
use temporal_alignment::engine::catalog::Catalog;
use temporal_alignment::engine::prelude::*;
use temporal_datasets::{ddisj, deq, drand};

fn serial_state() -> ExecutionState {
    ExecutionState::new(PlannerConfig {
        threads: 1,
        ..Default::default()
    })
}

fn parallel_state() -> ExecutionState {
    ExecutionState::new(PlannerConfig {
        threads: 4,
        parallel_min_rows: 1,
        ..Default::default()
    })
}

/// Plan once, execute serially and on 4 workers, compare row-for-row.
fn assert_parallel_identical_logical(lp: &LogicalPlan, label: &str) {
    let physical = Planner::default()
        .plan(lp, &Catalog::new())
        .unwrap_or_else(|e| panic!("{label}: plan: {e}"));
    let serial = physical
        .collect(&serial_state())
        .unwrap_or_else(|e| panic!("{label}: serial: {e}"));
    let parallel = physical
        .collect(&parallel_state())
        .unwrap_or_else(|e| panic!("{label}: parallel: {e}"));
    assert_eq!(
        serial.rows(),
        parallel.rows(),
        "{label}: threads=4 diverges from threads=1"
    );
}

fn assert_parallel_identical(plan: &TemporalPlan, label: &str) {
    assert_parallel_identical_logical(plan.logical(), label);
}

fn check_chains(
    chains: &[Vec<TemporalOp>],
    r: &TemporalRelation,
    s: &TemporalRelation,
    label: &str,
) {
    for (i, chain) in chains.iter().enumerate() {
        let label = format!("{label} chain {i}");
        assert_parallel_identical(&common::compose_chain(chain, r, s, &label), &label);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Pipelines over the paper's synthetic datasets: threads=4 ≡
    /// threads=1 on Ddisj and Deq of random sizes.
    #[test]
    fn parallel_equals_serial_on_ddisj_and_deq(n in 2usize..7) {
        let chains = common::differential_chains_1col();
        let (r, s) = ddisj(n);
        check_chains(&chains, &r, &s, &format!("ddisj({n})"));
        let (r, s) = deq(n);
        check_chains(&chains, &r, &s, &format!("deq({n})"));
    }

    /// Pipelines on Drand (random intervals, asymmetric schemas).
    #[test]
    fn parallel_equals_serial_on_drand(n in 2usize..7, seed in 0u64..1000) {
        let (r, s) = drand(n, seed);
        check_chains(
            &common::differential_chains_drand(),
            &r,
            &s,
            &format!("drand({n},{seed})"),
        );
    }

    /// The raw primitives under parallel execution: alignment,
    /// normalization, the gaps-only sweep and absorb.
    #[test]
    fn parallel_equals_serial_on_raw_primitives(seed in 0u64..500) {
        let r = common::random_trel(seed, 14, 4, 30);
        let s = common::random_trel(seed + 10_000, 14, 4, 30);
        let theta = col(0).eq(col(3));

        let align = TemporalPlan::scan(&r)
            .align(TemporalPlan::scan(&s), Some(theta.clone()))
            .unwrap();
        assert_parallel_identical(&align, &format!("align seed {seed}"));

        let normalize = TemporalPlan::scan(&r)
            .normalize(TemporalPlan::scan(&s), &[(0, 0)])
            .unwrap();
        assert_parallel_identical(&normalize, &format!("normalize seed {seed}"));

        let gaps = TemporalPlan::scan(&r)
            .anti_join_optimized(TemporalPlan::scan(&s), Some(theta))
            .unwrap();
        assert_parallel_identical(&gaps, &format!("gaps-only seed {seed}"));

        let absorb = TemporalPlan::scan(&r).absorb();
        assert_parallel_identical(&absorb, &format!("absorb seed {seed}"));
    }

    /// Plan shapes whose root used to pull its subtree row-at-a-time — and
    /// therefore serially, whatever `threads` said: πᵀ (Table 2's
    /// `π_{B,T}(N_B(r; r))` ends in a `Distinct`) with the normalization's
    /// join, sort and sweep beneath it, and a `Distinct`/`Limit` pair over
    /// a filtered, sorted scan.
    #[test]
    fn parallel_equals_serial_under_distinct_and_limit(seed in 0u64..500, n in 0usize..40) {
        let r = common::random_trel2(seed, 60, 4, 40);
        let projection = TemporalPlan::scan(&r)
            .projection(&[0])
            .unwrap()
            .selection(col(0).ge(lit(1i64)))
            .unwrap();
        assert_parallel_identical(&projection, &format!("πᵀ seed {seed}"));

        let lp = LogicalPlan::inline_scan(r.rel().clone())
            .filter(col(2).lt(lit(30i64)))
            .project_cols(&[0, 1])
            .distinct()
            .sort(vec![SortKey::desc(col(1)), SortKey::asc(col(0))])
            .limit(n);
        assert_parallel_identical_logical(&lp, &format!("distinct/limit {n} seed {seed}"));
    }
}

// ---- partition-boundary edge cases -----------------------------------

/// Sweep groups that straddle the naive equal-size partition cuts: 3
/// oversized groups over 4 workers force every cut to snap forward past a
/// group, and one group dwarfs the others (skew).
#[test]
fn boundary_straddling_groups_are_swept_whole() {
    let mut r_rows: Vec<(i64, i64, i64)> = Vec::new();
    // Group 0: 50 tuples; group 1: 400 tuples (dwarfs the rest); group 2: 73.
    for (k, count) in [(0i64, 50i64), (1, 400), (2, 73)] {
        for i in 0..count {
            r_rows.push((k, 3 * i, 3 * i + 2));
        }
    }
    let r = common::rel1("r", &r_rows);
    let s_rows: Vec<(i64, i64, i64)> = (0..200).map(|i| (i % 3, 6 * i + 1, 6 * i + 4)).collect();
    let s = common::rel1("s", &s_rows);

    let align = TemporalPlan::scan(&r)
        .align(TemporalPlan::scan(&s), Some(col(0).eq(col(3))))
        .unwrap();
    assert_parallel_identical(&align, "straddling align");
    let absorb = TemporalPlan::scan(&r).absorb();
    assert_parallel_identical(&absorb, "straddling absorb");
}

/// Exact-boundary case: the input size divides evenly by the worker count
/// AND every data-run boundary coincides with a naive cut point, so the
/// snap loop takes zero steps. The partitioned sweep must still agree and
/// must actually have partitioned (not fallen back to serial).
#[test]
fn exact_partition_boundaries() {
    // 400 rows, 4 workers → cuts at 100/200/300; data changes exactly there.
    let rows: Vec<(i64, i64, i64)> = (0..400).map(|i| (i / 100, 2 * i, 2 * i + 1)).collect();
    let r = common::rel1("r", &rows);
    let plan = TemporalPlan::scan(&r).absorb();
    let physical = Planner::default()
        .plan(plan.logical(), &Catalog::new())
        .unwrap();
    let serial = physical.collect(&serial_state()).unwrap();
    let par_state = parallel_state();
    let parallel = physical.collect(&par_state).unwrap();
    assert_eq!(serial.rows(), parallel.rows());
    let partitions = par_state.partitions_run.load(Ordering::Relaxed);
    assert!(
        partitions > 1,
        "exact-boundary input must still run partitioned, got {partitions}"
    );
}
