//! Executor-vs-reference differential tests. Every operator runs through
//! the one execution protocol (`ExecNode::next_batch` /
//! `PhysicalPlan::collect`) and its result must equal what the
//! independent references compute: the point-wise snapshot oracle
//! (`reference::oracle::evaluate_oracle`) for composed operator chains —
//! filter, project, the join algorithms (hash, nested-loop, interval
//! sweep), set operations, aggregation — and `align_ref`, `normalize_ref`
//! and `absorb_ref` for the raw primitives (both adjustment modes, the
//! gaps-only anti-join sweep, absorb). Plus batch-boundary edge cases:
//! empty inputs, batches emptied by a filter, inputs of exactly
//! `BATCH_SIZE` rows, and sweep/absorb groups spanning batch boundaries.
//! And the key table behind every hash operator, over key columns that
//! switch representation from batch to batch: the hash join against the
//! brute-force nested loop, HashAggregate and DISTINCT against a grouping
//! by owned `Vec<Value>` keys.

mod common;

use proptest::prelude::*;
use temporal_alignment::core::prelude::*;
use temporal_alignment::core::semantics::TemporalOp;
use temporal_alignment::engine::catalog::Catalog;
use temporal_alignment::engine::prelude::*;
use temporal_datasets::{ddisj, deq, drand};

fn assert_same_set(got: &TemporalRelation, reference: &TemporalRelation, label: &str) {
    assert!(
        got.same_set(reference),
        "{label}: executor diverges from the reference.\nexecutor:\n{got}\nreference:\n{reference}"
    );
}

/// Execute a composed chain and compare it with the oracle, applied
/// operator by operator.
fn check_chains(
    chains: &[Vec<TemporalOp>],
    r: &TemporalRelation,
    s: &TemporalRelation,
    label: &str,
) {
    let planner = Planner::default();
    for (i, chain) in chains.iter().enumerate() {
        let label = format!("{label} chain {i}");
        let got =
            common::compose_chain(chain, TemporalPlan::scan(r), TemporalPlan::scan(s), &label)
                .execute(&planner)
                .unwrap_or_else(|e| panic!("{label}: execute: {e}"));
        assert_same_set(&got, &common::oracle_chain(chain, r, s, &label), &label);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Pipelines over the paper's synthetic datasets: executor ≡ oracle on
    /// Ddisj and Deq of random sizes.
    #[test]
    fn executor_equals_oracle_on_ddisj_and_deq(n in 2usize..7) {
        let chains = common::differential_chains_1col();
        let (r, s) = ddisj(n);
        check_chains(&chains, &r, &s, &format!("ddisj({n})"));
        let (r, s) = deq(n);
        check_chains(&chains, &r, &s, &format!("deq({n})"));
    }

    /// Pipelines on Drand (random intervals, asymmetric schemas).
    #[test]
    fn executor_equals_oracle_on_drand(n in 2usize..7, seed in 0u64..1000) {
        let (r, s) = drand(n, seed);
        check_chains(
            &common::differential_chains_drand(),
            &r,
            &s,
            &format!("drand({n},{seed})"),
        );
    }

    /// The raw primitives against their quadratic references: alignment,
    /// normalization, the gaps-only anti-join sweep and absorb.
    #[test]
    fn executor_equals_reference_on_raw_primitives(seed in 0u64..500) {
        let r = common::random_trel(seed, 14, 4, 30);
        let s = common::random_trel(seed + 10_000, 14, 4, 30);
        let planner = Planner::default();
        let theta = col(0).eq(col(3));

        let align = TemporalPlan::scan(&r)
            .align(TemporalPlan::scan(&s), Some(theta.clone()))
            .unwrap()
            .execute(&planner)
            .unwrap();
        let reference = align_ref(&r, &s, &Theta::Predicate(theta.clone())).unwrap();
        assert_same_set(&align, &reference, &format!("align seed {seed}"));

        let normalize = TemporalPlan::scan(&r)
            .normalize(TemporalPlan::scan(&s), &[(0, 0)])
            .unwrap()
            .execute(&planner)
            .unwrap();
        let reference = normalize_ref(&r, &s, &[(0, 0)]).unwrap();
        assert_same_set(&normalize, &reference, &format!("normalize seed {seed}"));

        let gaps = TemporalPlan::scan(&r)
            .anti_join_optimized(TemporalPlan::scan(&s), Some(theta.clone()))
            .unwrap()
            .execute(&planner)
            .unwrap();
        let anti = TemporalOp::AntiJoin { theta: Some(theta) };
        let reference = common::oracle_chain(&[anti], &r, &s, "gaps-only");
        assert_same_set(&gaps, &reference, &format!("gaps-only seed {seed}"));

        let absorb = TemporalPlan::scan(&r).absorb().execute(&planner).unwrap();
        let reference = absorb_ref(&r).unwrap();
        assert_same_set(&absorb, &reference, &format!("absorb seed {seed}"));
    }
}

/// A duplicate-free relation over `(k Int, name Str, x Double, ts, te)`:
/// data columns of three types, so the batches carry `Str` and `Double`
/// columns (with `-0.0` beside `0.0`) through every operator.
fn random_mixed_trel(seed: u64, max_rows: usize) -> TemporalRelation {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    let mut kept: Vec<(Vec<Value>, Interval)> = Vec::new();
    for _ in 0..max_rows {
        let data = vec![
            Value::Int(rng.gen_range(0..3)),
            Value::str(["ann", "joe", "a\tb"][rng.gen_range(0..3)]),
            Value::Double([-0.0, 0.0, 1.5, 2.5][rng.gen_range(0..4)]),
        ];
        let ts = rng.gen_range(0..19);
        let iv = Interval::of(ts, rng.gen_range(ts + 1..=20));
        if kept
            .iter()
            .all(|(d, iv2)| *d != data || (!iv2.overlaps(&iv) && *iv2 != iv))
        {
            kept.push((data, iv));
        }
    }
    TemporalRelation::from_rows(
        Schema::new(vec![
            Column::new("k", DataType::Int),
            Column::new("name", DataType::Str),
            Column::new("x", DataType::Double),
        ]),
        kept,
    )
    .expect("constructed duplicate free")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The chain corpus over string and double data columns: θ reads the
    /// concat row `(k, name, x, ts, te, k, name, x, ts, te)`; a join's
    /// result has data columns `(k, name, x, k, name, x)`.
    #[test]
    fn executor_equals_oracle_on_str_and_double_columns(seed in 0u64..1000) {
        let r = random_mixed_trel(seed, 10);
        let s = random_mixed_trel(seed + 5_000, 10);
        let count = vec![(AggCall::count_star(), "cnt".to_string())];
        let chains = vec![
            vec![
                TemporalOp::Join { theta: Some(col(1).eq(col(6))) },
                TemporalOp::Selection { predicate: col(2).ge(lit(0.0f64)) },
                TemporalOp::Projection { attrs: vec![1, 2] },
            ],
            // (A projection keeps only columns that are never ω: the
            // executor's projection groups by SQL equality, under which ω
            // never equals ω, while the oracle groups ω with ω.)
            vec![
                TemporalOp::LeftOuterJoin { theta: Some(col(2).lt(col(7))) },
                TemporalOp::Projection { attrs: vec![1, 2] },
            ],
            vec![TemporalOp::FullOuterJoin {
                theta: Some(col(0).eq(col(5)).and(col(1).ne(col(6)))),
            }],
            vec![TemporalOp::AntiJoin { theta: Some(col(1).eq(col(6))) }],
            vec![
                TemporalOp::Union,
                TemporalOp::Aggregation { group: vec![1], aggs: count.clone() },
            ],
            vec![TemporalOp::Difference, TemporalOp::Projection { attrs: vec![2] }],
            vec![TemporalOp::Intersection],
        ];
        check_chains(&chains, &r, &s, &format!("mixed({seed})"));
    }
}

// ---- batch-boundary edge cases ---------------------------------------

/// A sweep group larger than `BATCH_SIZE`: one r tuple split at ~1.5·1024
/// interior points, so the adjustment's sorted group spans several input
/// batches — and the output spans several output batches.
#[test]
fn sweep_group_spanning_batches() {
    let k = BATCH_SIZE as i64 + 512;
    let r = TemporalRelation::from_rows(
        Schema::new(vec![Column::new("k", DataType::Int)]),
        vec![(vec![Value::Int(0)], Interval::of(0, 2 * k + 2))],
    )
    .unwrap();
    // Disjoint unit intervals strictly inside r's interval: every endpoint
    // is a split point.
    let s = TemporalRelation::from_rows(
        Schema::new(vec![Column::new("k", DataType::Int)]),
        (0..k)
            .map(|i| (vec![Value::Int(i)], Interval::of(2 * i + 1, 2 * i + 2)))
            .collect(),
    )
    .unwrap();
    let planner = Planner::default();
    let normalize = TemporalPlan::scan(&r)
        .normalize(TemporalPlan::scan(&s), &[] as &[(usize, usize)])
        .unwrap()
        .execute(&planner)
        .unwrap();
    // One piece per split point, plus one: more than a batch of output.
    assert_eq!(normalize.len(), 2 * k as usize + 1);
    let reference = normalize_ref(&r, &s, &[]).unwrap();
    assert_same_set(&normalize, &reference, "giant normalize group");
    let align = TemporalPlan::scan(&r)
        .align(TemporalPlan::scan(&s), None)
        .unwrap()
        .execute(&planner)
        .unwrap();
    let reference = align_ref(&r, &s, &Theta::True).unwrap();
    assert_same_set(&align, &reference, "giant align group");
}

/// An absorb group larger than `BATCH_SIZE` (nested same-value intervals):
/// group state must carry across input batches.
#[test]
fn absorb_group_spanning_batches() {
    let k = BATCH_SIZE as i64 + 300;
    let schema = Schema::new(vec![
        Column::new("v", DataType::Int),
        Column::new("ts", DataType::Int),
        Column::new("te", DataType::Int),
    ]);
    // (0, [i, 2k - i)) for i in 0..k — all absorbed into (0, [0, 2k)).
    let rel = Relation::from_values(
        schema,
        (0..k)
            .map(|i| vec![Value::Int(0), Value::Int(i), Value::Int(2 * k - i)])
            .collect(),
    )
    .unwrap();
    let input = TemporalRelation::new(rel).unwrap();
    let absorbed = TemporalPlan::scan(&input)
        .absorb()
        .execute(&Planner::default())
        .unwrap();
    assert_eq!(absorbed.len(), 1);
    let reference = absorb_ref(&input).unwrap();
    assert_same_set(&absorbed, &reference, "giant absorb group");
}

/// Inputs of exactly `BATCH_SIZE` rows: one full batch, then `None` — and
/// empty inputs: `None` immediately, never an empty batch.
#[test]
fn exact_batch_size_and_empty_inputs() {
    let schema = Schema::new(vec![Column::new("a", DataType::Int)]);
    let exact = Relation::from_values(
        schema.clone(),
        (0..BATCH_SIZE as i64)
            .map(|i| vec![Value::Int(i)])
            .collect(),
    )
    .unwrap();
    let state = ExecutionState::default();
    let mut scan = temporal_alignment::engine::exec::SeqScanExec::new(exact.into_shared());
    let first = scan.next_batch(&state).unwrap().expect("one full batch");
    assert_eq!(first.len(), BATCH_SIZE);
    assert!(scan.next_batch(&state).unwrap().is_none());

    let empty = Relation::empty(schema.clone());
    let mut scan = temporal_alignment::engine::exec::SeqScanExec::new(empty.into_shared());
    assert!(scan.next_batch(&state).unwrap().is_none());
    assert!(scan.next_batch(&state).unwrap().is_none());
}

/// A filter that empties whole input batches must skip them (batches are
/// never empty) and still terminate.
#[test]
fn filter_skips_emptied_batches() {
    let n = 3 * BATCH_SIZE as i64;
    let schema = Schema::new(vec![Column::new("a", DataType::Int)]);
    let rel = Relation::from_values(schema, (0..n).map(|i| vec![Value::Int(i)]).collect()).unwrap();
    // Keep only a sliver from the middle batch.
    let lo = BATCH_SIZE as i64 + 10;
    let hi = lo + 5;
    let lp =
        LogicalPlan::inline_scan(rel.clone()).filter(col(0).ge(lit(lo)).and(col(0).lt(lit(hi))));
    let out = Planner::default().run(&lp, &Catalog::new()).unwrap();
    let kept: Vec<i64> = out.rows().iter().map(|r| r[0].as_int().unwrap()).collect();
    assert_eq!(kept, (lo..hi).collect::<Vec<i64>>());
    // Keep nothing at all.
    let lp = LogicalPlan::inline_scan(rel).filter(col(0).lt(lit(0i64)));
    let physical = Planner::default().plan(&lp, &Catalog::new()).unwrap();
    let state = ExecutionState::default();
    let mut exec = physical.execute(&state).unwrap();
    assert!(exec.next_batch(&state).unwrap().is_none());
}

// ---- the key table: hash join, HashAggregate, DISTINCT -----------------

mod key_table {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::{HashMap, HashSet};
    use std::sync::Arc;
    use temporal_alignment::engine::exec::{
        collect, DistinctExec, HashAggregateExec, HashJoinExec, MergeJoinExec, NestedLoopJoinExec,
        SeqScanExec, SortExec,
    };
    use temporal_alignment::engine::value::num_add;

    /// A key value of `kind` — 0 Int, 1 Double (NaN, −0.0 and integral
    /// values among them), 2 Str, 3 Bool, 4 Int or Double — NULL one time
    /// in six. Small domains, so keys collide within and across kinds.
    fn key(rng: &mut StdRng, kind: usize) -> Value {
        if rng.gen_range(0..6) == 0 {
            return Value::Null;
        }
        let double = |rng: &mut StdRng| {
            let d = [f64::NAN, -0.0, 0.0, 1.0, 2.0, 0.5];
            Value::Double(d[rng.gen_range(0..d.len())])
        };
        match kind {
            0 => Value::Int(rng.gen_range(-1..3)),
            1 => double(rng),
            2 => Value::str(["a", "b"][rng.gen_range(0..2)]),
            3 => Value::Bool(rng.gen_range(0..2) == 0),
            _ if rng.gen_range(0..2) == 0 => Value::Int(rng.gen_range(-1..3)),
            _ => double(rng),
        }
    }

    /// `(k0, k1, v)` rows in batches of 1–7 rows. Each batch draws the kind
    /// of each key column anew, so a column is `Int` in one batch and
    /// `Double`, `Str` or `Mixed` in the next; `v` is a small integer, NULL
    /// or a Double now and then.
    fn keyed_rel(rng: &mut StdRng, batches: usize) -> Arc<Relation> {
        let schema = Schema::new(vec![
            Column::new("k0", DataType::Int),
            Column::new("k1", DataType::Int),
            Column::new("v", DataType::Int),
        ]);
        let batches = (0..batches)
            .map(|_| {
                let kinds = [rng.gen_range(0..5), rng.gen_range(0..5)];
                let rows: Vec<Row> = (0..rng.gen_range(1..8))
                    .map(|_| {
                        let v = match rng.gen_range(0..12) {
                            0 => Value::Null,
                            1 => Value::Double(2.5),
                            _ => Value::Int(rng.gen_range(0..8)),
                        };
                        Row::new(vec![key(rng, kinds[0]), key(rng, kinds[1]), v])
                    })
                    .collect();
                RowBatch::from_rows(schema.clone(), &rows)
            })
            .collect();
        Relation::from_batches(schema, batches)
            .unwrap()
            .into_shared()
    }

    fn scan(rel: &Arc<Relation>) -> BoxedExec {
        Box::new(SeqScanExec::new(rel.clone()))
    }

    /// Every join type of the hash join on two keys, with and without a
    /// range-ordered residual, against the
    /// nested loop testing `k0 = k0 ∧ k1 = k1 ∧ residual` on every pair —
    /// and the merge join's three join types over the sorted inputs.
    #[test]
    fn hash_join_equals_the_nested_loop() {
        let mut rng = StdRng::seed_from_u64(28);
        // Over `probe (k0, k1, v) ++ build (k0, k1, v)`: build v bounded
        // by probe v from below and a literal from above.
        let ranged = col(5).gt(col(2)).and(col(5).le(lit(6i64)));
        for round in 0..40 {
            let (l, r) = (
                keyed_rel(&mut rng, 1 + round % 5),
                keyed_rel(&mut rng, 1 + round % 7),
            );
            for residual in [None, Some(ranged.clone())] {
                for jt in [
                    JoinType::Inner,
                    JoinType::Left,
                    JoinType::Right,
                    JoinType::Full,
                    JoinType::Semi,
                    JoinType::Anti,
                ] {
                    let label = format!("round {round}, {jt:?}, residual {residual:?}");
                    let hash = HashJoinExec::new(
                        scan(&l),
                        scan(&r),
                        vec![(0, 0), (1, 1)],
                        residual.clone(),
                        jt,
                    );
                    let got = collect(Box::new(hash), &ExecutionState::default()).unwrap();
                    let keys = col(0).eq(col(3)).and(col(1).eq(col(4)));
                    let theta = match &residual {
                        None => keys,
                        Some(res) => keys.and(res.clone()),
                    };
                    let nl = NestedLoopJoinExec::new(scan(&l), scan(&r), jt, Some(theta));
                    let want = collect(Box::new(nl), &ExecutionState::default()).unwrap();
                    assert!(got.same_bag(&want), "{label}:\n{got}\nvs\n{want}");
                    if matches!(jt, JoinType::Inner | JoinType::Left | JoinType::Full) {
                        let sorted = |rel| -> BoxedExec {
                            let keys = vec![SortKey::asc(col(0)), SortKey::asc(col(1))];
                            Box::new(SortExec::new(scan(rel), keys))
                        };
                        let merge = MergeJoinExec::new(
                            sorted(&l),
                            sorted(&r),
                            vec![(0, 0), (1, 1)],
                            residual.clone(),
                            jt,
                        );
                        let got = collect(Box::new(merge), &ExecutionState::default()).unwrap();
                        assert!(
                            got.same_bag(&want),
                            "merge join, {label}:\n{got}\nvs\n{want}"
                        );
                    }
                }
            }
        }
    }

    /// Grouping by owned keys, the way the executor grouped before the key
    /// table: a map from the group's `Vec<Value>` key to its slot, groups
    /// in first-seen order, COUNT(*), COUNT, SUM, MIN and MAX of column 2.
    fn aggregate_by_value_keys(rows: &[Row], group: &[usize]) -> Vec<Vec<Value>> {
        let mut index: HashMap<Vec<Value>, usize> = HashMap::new();
        let mut out: Vec<(Vec<Value>, [Value; 5])> = Vec::new();
        for row in rows {
            let key: Vec<Value> = group.iter().map(|&c| row[c].clone()).collect();
            let slot = *index.entry(key.clone()).or_insert_with(|| {
                let empty = [
                    Value::Int(0),
                    Value::Int(0),
                    Value::Null,
                    Value::Null,
                    Value::Null,
                ];
                out.push((key, empty));
                out.len() - 1
            });
            let [count_star, count, sum, min, max] = &mut out[slot].1;
            *count_star = Value::Int(count_star.as_int().unwrap() + 1);
            let v = &row[2];
            if v.is_null() {
                continue;
            }
            *count = Value::Int(count.as_int().unwrap() + 1);
            *sum = if sum.is_null() {
                v.clone()
            } else {
                num_add(sum, v).unwrap()
            };
            if min.is_null() || v.sql_cmp(min) == Some(std::cmp::Ordering::Less) {
                *min = v.clone();
            }
            if max.is_null() || v.sql_cmp(max) == Some(std::cmp::Ordering::Greater) {
                *max = v.clone();
            }
        }
        if out.is_empty() && group.is_empty() {
            let empty = [
                Value::Int(0),
                Value::Int(0),
                Value::Null,
                Value::Null,
                Value::Null,
            ];
            out.push((Vec::new(), empty));
        }
        out.into_iter()
            .map(|(mut key, aggs)| {
                key.extend(aggs);
                key
            })
            .collect()
    }

    #[test]
    fn hash_aggregate_and_distinct_equal_grouping_by_value_keys() {
        let mut rng = StdRng::seed_from_u64(29);
        let v = || col(2);
        let aggs = vec![
            AggCall::count_star(),
            AggCall::new(AggFunc::Count, v()),
            AggCall::new(AggFunc::Sum, v()),
            AggCall::new(AggFunc::Min, v()),
            AggCall::new(AggFunc::Max, v()),
        ];
        for round in 0..60 {
            let rel = keyed_rel(&mut rng, round % 9);
            let rows = rel.rows();
            for group in [vec![], vec![0], vec![1, 0]] {
                let names = group.iter().map(|c| format!("g{c}"));
                let names = names.chain(["cs", "c", "s", "mn", "mx"].map(String::from));
                let schema = Schema::new(names.map(|n| Column::new(n, DataType::Int)).collect());
                let agg = HashAggregateExec::new(
                    scan(&rel),
                    group.iter().map(|&c| col(c)).collect(),
                    aggs.clone(),
                    schema,
                );
                let got = collect(Box::new(agg), &ExecutionState::default()).unwrap();
                let got: Vec<Vec<Value>> = got.rows().iter().map(|r| r.to_vec()).collect();
                let want = aggregate_by_value_keys(rows, &group);
                assert_eq!(got, want, "round {round}, group by {group:?}");
            }
            let distinct = collect(
                Box::new(DistinctExec::new(scan(&rel))),
                &ExecutionState::default(),
            )
            .unwrap();
            let mut seen = HashSet::new();
            let want: Vec<&Row> = rows.iter().filter(|r| seen.insert(r.to_vec())).collect();
            let got: Vec<&Row> = distinct.rows().iter().collect();
            assert_eq!(got, want, "round {round}: DISTINCT");
        }
    }
}
