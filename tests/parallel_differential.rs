//! Parallel/serial differential tests. The executor runs each statement
//! on one thread, but statements run in parallel: the server gives every
//! connection its own thread over one shared database. Executing the same
//! physical plan on four threads at once must be **row-for-row
//! identical** — same rows, same order — to executing it alone (whose
//! results `tests/batch_differential.rs` checks against the references).
//! Shared plan state — `Arc`'d scan inputs, spooled operands, the
//! statement cost model — must never leak from one execution into another.

mod common;

use std::sync::Arc;
use std::thread;

use proptest::prelude::*;
use temporal_alignment::core::prelude::*;
use temporal_alignment::core::reference::evaluate_oracle;
use temporal_alignment::core::semantics::TemporalOp;
use temporal_alignment::engine::catalog::Catalog;
use temporal_alignment::engine::prelude::*;
use temporal_datasets::{ddisj, deq, drand};

/// Executions that run at once against the one physical plan.
const CONCURRENT: usize = 4;

/// Plan once, execute alone and then on [`CONCURRENT`] threads at once,
/// compare row-for-row; returns the rows of the lone execution.
fn assert_parallel_identical_logical(lp: &LogicalPlan, label: &str) -> Relation {
    let physical = Arc::new(
        Planner::default()
            .plan(lp, &Catalog::new())
            .unwrap_or_else(|e| panic!("{label}: plan: {e}")),
    );
    let serial = physical
        .collect(&ExecutionState::default())
        .unwrap_or_else(|e| panic!("{label}: serial: {e}"));
    let workers: Vec<_> = (0..CONCURRENT)
        .map(|_| {
            let physical = Arc::clone(&physical);
            thread::spawn(move || physical.collect(&ExecutionState::default()))
        })
        .collect();
    for (i, worker) in workers.into_iter().enumerate() {
        let parallel = worker
            .join()
            .unwrap_or_else(|_| panic!("{label}: execution {i} panicked"))
            .unwrap_or_else(|e| panic!("{label}: execution {i}: {e}"));
        assert_eq!(
            serial.rows(),
            parallel.rows(),
            "{label}: concurrent execution {i} diverges from the lone one"
        );
    }
    serial
}

fn assert_parallel_identical(plan: &TemporalPlan, label: &str) -> TemporalRelation {
    let rel = assert_parallel_identical_logical(plan.logical(), label);
    TemporalRelation::new(rel).unwrap_or_else(|e| panic!("{label}: temporal result: {e}"))
}

fn assert_same_set(got: &TemporalRelation, reference: &TemporalRelation, label: &str) {
    assert!(
        got.same_set(reference),
        "{label}: executor diverges from the reference.\nexecutor:\n{got}\nreference:\n{reference}"
    );
}

fn check_chains(
    chains: &[Vec<TemporalOp>],
    r: &TemporalRelation,
    s: &TemporalRelation,
    label: &str,
) {
    for (i, chain) in chains.iter().enumerate() {
        let label = format!("{label} chain {i}");
        assert_parallel_identical(
            &common::compose_chain(chain, TemporalPlan::scan(r), TemporalPlan::scan(s), &label),
            &label,
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Pipelines over the paper's synthetic datasets: concurrent ≡ lone
    /// execution on Ddisj and Deq of random sizes.
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

    /// The raw primitives executed concurrently: alignment,
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

    /// Plan shapes that end in a `Distinct`: πᵀ (Table 2's
    /// `π_{B,T}(N_B(r; r))`) with the normalization's join, sort and sweep
    /// beneath it, checked against the oracle, and a `Distinct`/`Limit`
    /// pair over a filtered, sorted scan, checked against the same steps
    /// done by hand.
    #[test]
    fn parallel_equals_serial_under_distinct_and_limit(seed in 0u64..500, n in 0usize..40) {
        let r = common::random_trel2(seed, 60, 4, 40);
        let predicate = col(0).ge(lit(1i64));
        let projection = TemporalPlan::scan(&r)
            .projection(&[0])
            .unwrap()
            .selection(predicate.clone())
            .unwrap();
        let got = assert_parallel_identical(&projection, &format!("πᵀ seed {seed}"));
        let projected = evaluate_oracle(&TemporalOp::Projection { attrs: vec![0] }, &[&r]).unwrap();
        let reference = evaluate_oracle(&TemporalOp::Selection { predicate }, &[&projected]).unwrap();
        assert_same_set(&got, &reference, &format!("πᵀ seed {seed}"));

        let lp = LogicalPlan::inline_scan(r.rel().clone())
            .filter(col(2).lt(lit(30i64)))
            .project_cols(&[0, 1])
            .distinct()
            .sort(vec![SortKey::desc(col(1)), SortKey::asc(col(0))])
            .limit(n);
        let got = assert_parallel_identical_logical(&lp, &format!("distinct/limit {n} seed {seed}"));
        let got: Vec<Vec<Value>> = got.rows().iter().map(|r| r.to_vec()).collect();
        let mut want: Vec<Vec<Value>> = r
            .rel()
            .rows()
            .iter()
            .filter(|r| r[2].as_int().unwrap() < 30)
            .map(|r| r.values()[..2].to_vec())
            .collect();
        want.sort_by(|a, b| b[1].cmp(&a[1]).then_with(|| a[0].cmp(&b[0])));
        want.dedup();
        want.truncate(n);
        prop_assert_eq!(got, want, "distinct/limit {} seed {}", n, seed);
    }
}

// ---- skewed sweep groups ---------------------------------------------

/// Runs of one data value over many r tuples, one of which dwarfs the
/// others (50, 400 and 73 tuples): the sweep's duplicate test and absorb's
/// group state carry from tuple to tuple, and every group must be swept
/// whole — concurrent executions agree with the lone one, and all agree
/// with `align_ref`/`absorb_ref`.
#[test]
fn boundary_straddling_groups_are_swept_whole() {
    let mut r_rows: Vec<(i64, i64, i64)> = Vec::new();
    for (k, count) in [(0i64, 50i64), (1, 400), (2, 73)] {
        r_rows.extend((0..count).map(|i| (k, 3 * i, 3 * i + 2)));
    }
    let r = common::rel1("r", &r_rows);
    let s_rows: Vec<(i64, i64, i64)> = (0..200).map(|i| (i % 3, 6 * i + 1, 6 * i + 4)).collect();
    let s = common::rel1("s", &s_rows);

    let theta = col(0).eq(col(3));
    let align = TemporalPlan::scan(&r)
        .align(TemporalPlan::scan(&s), Some(theta.clone()))
        .unwrap();
    let got = assert_parallel_identical(&align, "skewed align");
    let reference = align_ref(&r, &s, &Theta::Predicate(theta)).unwrap();
    assert_same_set(&got, &reference, "skewed align");

    let absorb = TemporalPlan::scan(&r).absorb();
    let got = assert_parallel_identical(&absorb, "skewed absorb");
    assert_same_set(&got, &absorb_ref(&r).unwrap(), "skewed absorb");
}
