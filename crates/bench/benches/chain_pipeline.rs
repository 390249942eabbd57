//! Multi-operator chain: `ϑᵀ_{pcn; COUNT} ∘ σᵀ_{ssn < cap} ∘ ⋈ᵀ_{pcn}` on
//! Incumben — the plan-first composition benchmark.
//!
//! `eager` evaluates the chain one operator at a time, materializing a
//! temporal relation between stages (N× `Planner::run`). `plan-first`
//! compiles the whole chain into one `TemporalPlan` and executes it with a
//! single `Planner::run`; the planner's rewrite pass pushes the selection
//! across the alignment extension nodes into the base scans, so the join
//! aligns only the surviving tuples. `plan-first-norw` disables the
//! rewrites to separate barrier removal from cross-operator optimization.
//!
//! Plans are rebuilt inside the timed closure: a composed plan carries
//! spool caches for its shared subtrees, and reusing one plan across
//! iterations would let later iterations read the first iteration's cache.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use temporal_bench::{run_chain, ChainMode};
use temporal_datasets::{incumben, prefix, IncumbenSpec};
use temporal_engine::prelude::*;

fn bench(c: &mut Criterion) {
    let data = incumben(IncumbenSpec::default());
    // Pinned to the paper-faithful planner for comparability with the
    // reproduce binary's chain sweep (the chain's joins carry equi keys,
    // so the interval-join heuristic is a no-op here either way).
    let planner = Planner::new(PlannerConfig::paper());
    let mut group = c.benchmark_group("chain_pipeline");
    group.sample_size(10);
    for &n in &[250usize, 500, 1_000] {
        let r = prefix(&data, n);
        // A prefix of n rows introduces ssns 0..n, so this keeps ~10% of
        // the employees — selective enough that pushdown pays.
        let cap = (n / 10) as i64;
        for mode in [
            ChainMode::Eager,
            ChainMode::PlanFirst,
            ChainMode::PlanFirstNoRewrites,
        ] {
            group.bench_with_input(BenchmarkId::new(mode.label(), n), &r, |b, r| {
                b.iter(|| run_chain(mode, r, r, cap, &planner))
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
