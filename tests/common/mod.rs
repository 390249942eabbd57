//! Shared helpers for the integration test suites: deterministic random
//! generation of *valid* (duplicate-free) temporal relations, fixture
//! builders for the paper's running example, and the operator-chain
//! corpus the plan-first and differential suites compose plans from.

#![allow(dead_code)]

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use temporal_alignment::core::prelude::*;
use temporal_alignment::core::reference::evaluate_oracle;
use temporal_alignment::core::semantics::TemporalOp;
use temporal_alignment::engine::prelude::*;

/// Build a one-data-column relation from `(value, ts, te)` triples.
pub fn rel1(name: &str, rows: &[(i64, i64, i64)]) -> TemporalRelation {
    TemporalRelation::from_rows(
        Schema::new(vec![Column::qualified(name, "k", DataType::Int)]),
        rows.iter()
            .map(|&(k, s, e)| (vec![Value::Int(k)], Interval::of(s, e)))
            .collect(),
    )
    .expect("valid fixture")
}

/// Build a two-data-column relation from `(k, w, ts, te)` tuples.
pub fn rel2(name: &str, rows: &[(i64, i64, i64, i64)]) -> TemporalRelation {
    TemporalRelation::from_rows(
        Schema::new(vec![
            Column::qualified(name, "k", DataType::Int),
            Column::qualified(name, "w", DataType::Int),
        ]),
        rows.iter()
            .map(|&(k, w, s, e)| (vec![Value::Int(k), Value::Int(w)], Interval::of(s, e)))
            .collect(),
    )
    .expect("valid fixture")
}

/// Generate a random duplicate-free temporal relation with one Int data
/// column drawn from `0..val_dom` and intervals inside `[0, time_dom)`.
/// Candidate rows violating duplicate-freeness are dropped greedily, so
/// the result is always a valid temporal relation (Sec. 3.1).
pub fn random_trel(seed: u64, max_rows: usize, val_dom: i64, time_dom: i64) -> TemporalRelation {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut kept: Vec<(i64, Interval)> = Vec::new();
    for _ in 0..max_rows {
        let v = rng.gen_range(0..val_dom);
        let ts = rng.gen_range(0..time_dom - 1);
        let te = rng.gen_range(ts + 1..=time_dom);
        let iv = Interval::of(ts, te);
        let ok = kept
            .iter()
            .all(|(v2, iv2)| *v2 != v || (!iv2.overlaps(&iv) && *iv2 != iv));
        if ok {
            kept.push((v, iv));
        }
    }
    TemporalRelation::from_rows(
        Schema::new(vec![Column::new("k", DataType::Int)]),
        kept.into_iter()
            .map(|(v, iv)| (vec![Value::Int(v)], iv))
            .collect(),
    )
    .expect("constructed duplicate free")
}

/// Random duplicate-free relation with two Int data columns.
pub fn random_trel2(seed: u64, max_rows: usize, val_dom: i64, time_dom: i64) -> TemporalRelation {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut kept: Vec<(i64, i64, Interval)> = Vec::new();
    for _ in 0..max_rows {
        let k = rng.gen_range(0..val_dom);
        let w = rng.gen_range(0..val_dom);
        let ts = rng.gen_range(0..time_dom - 1);
        let te = rng.gen_range(ts + 1..=time_dom);
        let iv = Interval::of(ts, te);
        let ok = kept
            .iter()
            .all(|(k2, w2, iv2)| *k2 != k || *w2 != w || (!iv2.overlaps(&iv) && *iv2 != iv));
        if ok {
            kept.push((k, w, iv));
        }
    }
    TemporalRelation::from_rows(
        Schema::new(vec![
            Column::new("k", DataType::Int),
            Column::new("w", DataType::Int),
        ]),
        kept.into_iter()
            .map(|(k, w, iv)| (vec![Value::Int(k), Value::Int(w)], iv))
            .collect(),
    )
    .expect("constructed duplicate free")
}

/// The paper's reservations relation R (Fig. 1a), months as integers via
/// `month::ym`.
pub fn paper_r() -> TemporalRelation {
    use temporal_core::interval::month::ym;
    TemporalRelation::from_rows(
        Schema::new(vec![Column::new("n", DataType::Str)]),
        vec![
            (
                vec![Value::str("ann")],
                Interval::of(ym(2012, 1), ym(2012, 8)),
            ),
            (
                vec![Value::str("joe")],
                Interval::of(ym(2012, 2), ym(2012, 6)),
            ),
            (
                vec![Value::str("ann")],
                Interval::of(ym(2012, 8), ym(2012, 12)),
            ),
        ],
    )
    .expect("valid fixture")
}

/// The paper's price relation P (Fig. 1a).
pub fn paper_p() -> TemporalRelation {
    use temporal_core::interval::month::ym;
    let row = |a: i64, min: i64, max: i64, from: (i64, i64), to: (i64, i64)| {
        (
            vec![Value::Int(a), Value::Int(min), Value::Int(max)],
            Interval::of(ym(from.0, from.1), ym(to.0, to.1)),
        )
    };
    TemporalRelation::from_rows(
        Schema::new(vec![
            Column::new("a", DataType::Int),
            Column::new("min", DataType::Int),
            Column::new("max", DataType::Int),
        ]),
        vec![
            row(50, 1, 2, (2012, 1), (2012, 6)),
            row(40, 3, 7, (2012, 1), (2012, 6)),
            row(30, 8, 12, (2012, 1), (2013, 1)),
            row(50, 1, 2, (2012, 10), (2013, 1)),
            row(40, 3, 7, (2012, 10), (2013, 1)),
        ],
    )
    .expect("valid fixture")
}

/// Compose a chain — first operator binary over the sources `(r, s)`, the
/// rest unary — into one `TemporalPlan`.
pub fn compose_chain(
    chain: &[TemporalOp],
    r: TemporalPlan,
    s: TemporalPlan,
    label: &str,
) -> TemporalPlan {
    let mut plan = chain[0]
        .plan(vec![r, s])
        .unwrap_or_else(|e| panic!("{label}: compose {}: {e}", chain[0].name()));
    for op in &chain[1..] {
        plan = op
            .plan(vec![plan])
            .unwrap_or_else(|e| panic!("{label}: compose {}: {e}", op.name()));
    }
    plan
}

/// The same chain through the point-wise reference evaluator, operator by
/// operator.
pub fn oracle_chain(
    chain: &[TemporalOp],
    r: &TemporalRelation,
    s: &TemporalRelation,
    label: &str,
) -> TemporalRelation {
    let mut out = evaluate_oracle(&chain[0], &[r, s])
        .unwrap_or_else(|e| panic!("{label}: oracle {}: {e}", chain[0].name()));
    for op in &chain[1..] {
        out = evaluate_oracle(op, &[&out])
            .unwrap_or_else(|e| panic!("{label}: oracle {}: {e}", op.name()));
    }
    out
}

/// Chains over two one-data-column relations covering filter, project,
/// aggregation, every join family and every set operation — and, through
/// the reductions, both adjustment modes (joins align, group-based
/// operators and set ops normalize) plus absorb, sorts and the
/// hash/interval group-construction joins.
pub fn differential_chains_1col() -> Vec<Vec<TemporalOp>> {
    let count = vec![(AggCall::count_star(), "cnt".to_string())];
    vec![
        vec![
            TemporalOp::Join {
                theta: Some(col(0).eq(col(3))),
            },
            TemporalOp::Selection {
                predicate: col(0).ge(lit(1i64)),
            },
            TemporalOp::Projection { attrs: vec![0] },
        ],
        // θ = None: the group-construction join is a pure overlap join, so
        // the default planner's heuristic picks the interval sweep join.
        vec![
            TemporalOp::LeftOuterJoin { theta: None },
            TemporalOp::Aggregation {
                group: vec![0],
                aggs: count.clone(),
            },
        ],
        vec![
            TemporalOp::FullOuterJoin {
                theta: Some(col(0).eq(col(3))),
            },
            TemporalOp::Projection { attrs: vec![0, 1] },
        ],
        vec![
            TemporalOp::AntiJoin {
                theta: Some(col(0).eq(col(3))),
            },
            TemporalOp::Selection {
                predicate: col(0).ge(lit(0i64)),
            },
        ],
        vec![
            TemporalOp::Union,
            TemporalOp::Selection {
                predicate: col(0).lt(lit(4i64)),
            },
        ],
        vec![
            TemporalOp::Difference,
            TemporalOp::Projection { attrs: vec![0] },
        ],
        vec![
            TemporalOp::Intersection,
            TemporalOp::Aggregation {
                group: vec![],
                aggs: count,
            },
        ],
    ]
}

/// Chains for `temporal_datasets::drand` (random intervals, asymmetric
/// schemas): concat row = `(id, ts, te, a, min, max, ts, te)`.
pub fn differential_chains_drand() -> Vec<Vec<TemporalOp>> {
    vec![
        vec![
            TemporalOp::Join {
                theta: Some(col(0).lt(col(3))),
            },
            TemporalOp::Projection { attrs: vec![0] },
        ],
        vec![
            TemporalOp::LeftOuterJoin {
                theta: Some(col(0).lt(col(3))),
            },
            TemporalOp::Selection {
                predicate: col(1).ge(lit(0i64)),
            },
            TemporalOp::Projection { attrs: vec![0, 1] },
        ],
        vec![
            TemporalOp::AntiJoin {
                theta: Some(col(0).eq(col(3))),
            },
            TemporalOp::Aggregation {
                group: vec![0],
                aggs: vec![(AggCall::count_star(), "cnt".to_string())],
            },
        ],
    ]
}

/// `plan AS OF v`: the timeslice `ts <= v AND te > v` over the plan's
/// trailing `(ts, te)` — the range shape SQL's `FROM t AS OF v` lowers
/// to, so both surfaces get the same access path.
pub fn as_of(plan: TemporalPlan, v: i64) -> TemporalPlan {
    let n = plan.schema().len();
    plan.selection(col(n - 2).le(lit(v)).and(col(n - 1).gt(lit(v))))
        .unwrap()
}

/// Plan `plan` against `db` with its shared planner, for a test that
/// executes it under its own `ExecutionState` to read the operator
/// counters (pages read and skipped) of that one execution.
pub fn physical(db: &Database, plan: &TemporalPlan) -> PhysicalPlan {
    db.read(|catalog, planner| planner.plan(plan.logical(), catalog))
        .unwrap()
}

// ---- the adjustment plans under every join method (normalize_plan.rs,
// align_plan.rs) -----------------------------------------------------------

pub fn int(v: i64) -> Value {
    Value::Int(v)
}

pub fn dbl(v: f64) -> Value {
    Value::Double(v)
}

pub const NULL: Value = Value::Null;

/// A table as SQL may hold it — NULL data, a key column mixing `Int` and
/// `Double`, NULL bounds — with data columns `names` and then `ts`, `te`.
pub fn table(name: &str, names: &[&str], rows: Vec<Vec<Value>>) -> Relation {
    let mut cols: Vec<Column> = names
        .iter()
        .map(|n| Column::qualified(name, *n, DataType::Int))
        .collect();
    cols.push(Column::qualified(name, "ts", DataType::Int));
    cols.push(Column::qualified(name, "te", DataType::Int));
    Relation::from_values(Schema::new(cols), rows).unwrap()
}

/// The planner settings that force each join method the planner has for
/// a group-construction join: hash, merge and nested loop for a keyed
/// condition, nested loop and the interval join for an overlap alone.
pub fn join_methods(keyed: bool) -> Vec<(&'static str, PlannerConfig)> {
    let only = |hash: bool, merge: bool, nestloop: bool, interval: bool| PlannerConfig {
        enable_hashjoin: hash,
        enable_mergejoin: merge,
        enable_nestloop: nestloop,
        enable_intervaljoin_auto: interval,
        ..PlannerConfig::default()
    };
    if keyed {
        vec![
            ("HashJoin", only(true, false, false, false)),
            ("MergeJoin", only(false, true, false, false)),
            ("NestedLoopJoin", only(false, false, true, false)),
        ]
    } else {
        vec![
            ("NestedLoopJoin", only(false, false, true, false)),
            ("IntervalJoin", only(false, false, false, true)),
        ]
    }
}

/// `s` rows listed latest first, so a join that keeps the right side's
/// order (the nested loop, the interval join's active set) delivers each
/// group's points out of order.
pub fn s_descending() -> Relation {
    table(
        "s",
        &["k"],
        vec![
            vec![int(1), int(15), int(18)],
            vec![int(2), int(11), int(30)],
            vec![int(1), int(9), int(13)],
            vec![int(2), int(5), int(7)],
            vec![int(1), int(2), int(4)],
        ],
    )
}
