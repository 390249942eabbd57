//! Property-based tests of the engine: the three join algorithms must
//! agree with each other on arbitrary inputs, set operations must satisfy
//! their algebraic laws, and sort/distinct/aggregate must respect their
//! contracts.

use proptest::prelude::*;
use temporal_engine::catalog::Catalog;
use temporal_engine::prelude::*;

fn rel_from(rows: &[(i64, i64)]) -> Relation {
    Relation::from_values(
        Schema::new(vec![
            Column::new("k", DataType::Int),
            Column::new("v", DataType::Int),
        ]),
        rows.iter()
            .map(|&(k, v)| vec![Value::Int(k), Value::Int(v)])
            .collect(),
    )
    .unwrap()
}

fn arb_rows(max: usize) -> impl Strategy<Value = Vec<(i64, i64)>> {
    proptest::collection::vec((0..5i64, 0..20i64), 0..max)
}

fn run_join(
    l: &Relation,
    r: &Relation,
    jt: JoinType,
    cond: Expr,
    config: PlannerConfig,
) -> Relation {
    let plan = LogicalPlan::inline_scan(l.clone()).join(
        LogicalPlan::inline_scan(r.clone()),
        jt,
        Some(cond),
    );
    Planner::new(config).run(&plan, &Catalog::new()).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Hash join ≡ merge join ≡ nested loop on equi conditions, for every
    /// join type each algorithm supports.
    #[test]
    fn join_algorithms_agree(l in arb_rows(12), r in arb_rows(12)) {
        let (lr, rr) = (rel_from(&l), rel_from(&r));
        let cond = col(0).eq(col(2)); // l.k = r.k
        for jt in [JoinType::Inner, JoinType::Left, JoinType::Right,
                   JoinType::Full, JoinType::Semi, JoinType::Anti] {
            let nl = run_join(&lr, &rr, jt, cond.clone(), PlannerConfig::nestloop_only());
            let hash = run_join(&lr, &rr, jt, cond.clone(), PlannerConfig::no_merge());
            prop_assert!(nl.same_bag(&hash), "{jt:?}: nl {nl} vs hash {hash}");
            let best = run_join(&lr, &rr, jt, cond.clone(), PlannerConfig::all_enabled());
            prop_assert!(nl.same_bag(&best), "{jt:?}: nl {nl} vs best {best}");
        }
    }

    /// With an added residual predicate the algorithms still agree.
    #[test]
    fn join_algorithms_agree_with_residual(l in arb_rows(10), r in arb_rows(10)) {
        let (lr, rr) = (rel_from(&l), rel_from(&r));
        let cond = col(0).eq(col(2)).and(col(1).lt(col(3)));
        for jt in [JoinType::Inner, JoinType::Left, JoinType::Full] {
            let nl = run_join(&lr, &rr, jt, cond.clone(), PlannerConfig::nestloop_only());
            let best = run_join(&lr, &rr, jt, cond.clone(), PlannerConfig::all_enabled());
            prop_assert!(nl.same_bag(&best), "{jt:?}");
        }
    }

    /// Inner join commutes (modulo column order).
    #[test]
    fn inner_join_commutes(l in arb_rows(10), r in arb_rows(10)) {
        let (lr, rr) = (rel_from(&l), rel_from(&r));
        let ab = run_join(&lr, &rr, JoinType::Inner, col(0).eq(col(2)),
                          PlannerConfig::all_enabled());
        let ba = run_join(&rr, &lr, JoinType::Inner, col(0).eq(col(2)),
                          PlannerConfig::all_enabled());
        // reorder ba's columns to ab's layout
        let plan = LogicalPlan::inline_scan(ba).project_cols(&[2, 3, 0, 1]);
        let ba = Planner::default().run(&plan, &Catalog::new()).unwrap();
        prop_assert!(ab.same_bag(&ba));
    }

    /// Semi ∪ Anti partitions the left relation.
    #[test]
    fn semi_and_anti_partition_left(l in arb_rows(10), r in arb_rows(10)) {
        let (lr, rr) = (rel_from(&l), rel_from(&r));
        let cond = col(0).eq(col(2));
        let semi = run_join(&lr, &rr, JoinType::Semi, cond.clone(),
                            PlannerConfig::all_enabled());
        let anti = run_join(&lr, &rr, JoinType::Anti, cond,
                            PlannerConfig::all_enabled());
        prop_assert_eq!(semi.len() + anti.len(), lr.len());
        // and they are disjoint on rows (up to multiplicity of l)
        let mut both = semi.rows().to_vec();
        both.extend(anti.rows().iter().cloned());
        let mut l_rows = lr.rows().to_vec();
        both.sort();
        l_rows.sort();
        prop_assert_eq!(both, l_rows);
    }

    /// Set-operation laws under set semantics:
    /// (A ∪ B) = (B ∪ A), A ∩ B ⊆ A, A − B disjoint from B, and
    /// |A ∪ B| = |A∖B| + |B∖A| + |A ∩ B| on deduplicated inputs.
    #[test]
    fn set_operation_laws(l in arb_rows(12), r in arb_rows(12)) {
        let (lr, rr) = (rel_from(&l), rel_from(&r));
        let run = |kind: SetOpKind, a: &Relation, b: &Relation| {
            let plan = LogicalPlan::inline_scan(a.clone())
                .set_op(kind, LogicalPlan::inline_scan(b.clone()));
            Planner::default().run(&plan, &Catalog::new()).unwrap()
        };
        let ab = run(SetOpKind::Union, &lr, &rr);
        let ba = run(SetOpKind::Union, &rr, &lr);
        prop_assert!(ab.same_set(&ba));

        let inter = run(SetOpKind::Intersect, &lr, &rr);
        for row in inter.rows() {
            prop_assert!(lr.rows().contains(row));
            prop_assert!(rr.rows().contains(row));
        }

        let diff = run(SetOpKind::Except, &lr, &rr);
        for row in diff.rows() {
            prop_assert!(!rr.rows().contains(row));
        }
        let rdiff = run(SetOpKind::Except, &rr, &lr);
        prop_assert_eq!(ab.len(), diff.len() + rdiff.len() + inter.len());
    }

    /// Sorting is a permutation and respects the key order.
    #[test]
    fn sort_is_ordered_permutation(rows in arb_rows(20)) {
        let rel = rel_from(&rows);
        let plan = LogicalPlan::inline_scan(rel.clone())
            .sort(vec![SortKey::asc(col(0)), SortKey::desc(col(1))]);
        let out = Planner::default().run(&plan, &Catalog::new()).unwrap();
        prop_assert!(out.same_bag(&rel));
        for w in out.rows().windows(2) {
            let (a, b) = (&w[0], &w[1]);
            let ka = a[0].as_int().unwrap();
            let kb = b[0].as_int().unwrap();
            prop_assert!(ka <= kb);
            if ka == kb {
                prop_assert!(a[1].as_int().unwrap() >= b[1].as_int().unwrap());
            }
        }
    }

    /// DISTINCT yields a set that covers the input.
    #[test]
    fn distinct_contract(rows in arb_rows(20)) {
        let rel = rel_from(&rows);
        let plan = LogicalPlan::inline_scan(rel.clone()).distinct();
        let out = Planner::default().run(&plan, &Catalog::new()).unwrap();
        prop_assert!(out.is_set());
        prop_assert!(out.same_set(&rel));
    }

    /// Aggregates: SUM(v) per group equals the naive fold; COUNT(*) sums
    /// to the input cardinality.
    #[test]
    fn aggregate_contract(rows in arb_rows(20)) {
        let rel = rel_from(&rows);
        let plan = LogicalPlan::inline_scan(rel.clone())
            .aggregate_named(
                vec![(col(0), "k")],
                vec![
                    (AggCall::count_star(), "c"),
                    (AggCall::new(AggFunc::Sum, col(1)), "s"),
                ],
            )
            .unwrap();
        let out = Planner::default().run(&plan, &Catalog::new()).unwrap();
        let mut total = 0i64;
        for row in out.rows() {
            let k = row[0].as_int().unwrap();
            let expect_sum: i64 = rows.iter().filter(|(k2, _)| *k2 == k).map(|(_, v)| v).sum();
            let expect_cnt = rows.iter().filter(|(k2, _)| *k2 == k).count() as i64;
            prop_assert_eq!(row[1].clone(), Value::Int(expect_cnt));
            if expect_cnt > 0 {
                prop_assert_eq!(row[2].clone(), Value::Int(expect_sum));
            }
            total += expect_cnt;
        }
        prop_assert_eq!(total, rows.len() as i64);
    }
}

/// The sort's packed integer keys order rows like the plain comparator
/// (NULL placement per key, then the direction, then the full row) at
/// every key span: a few values (packed into a `u64`), ~2^41 per key (a
/// `u128`), and ~2^64 per key (too wide to pack: the general comparator).
#[test]
fn sort_orders_like_the_comparator_at_every_key_width() {
    use std::cmp::Ordering;
    let pools: [&[i64]; 3] = [
        &[0, 3, -2],
        &[-(1 << 40), 7, 1 << 40],
        &[i64::MIN + 2, -1, 0, i64::MAX - 2],
    ];
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut pick = |n: usize| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state % n as u64) as usize
    };
    let nulls_last_desc = SortKey {
        nulls_first: false,
        ..SortKey::desc(col(0))
    };
    let key_sets = [
        vec![SortKey::asc(col(0))],
        vec![SortKey::desc(col(1)), SortKey::asc(col(0))],
        vec![SortKey::asc(col(2)), nulls_last_desc, SortKey::asc(col(1))],
    ];
    let schema = Schema::new(
        ["a", "b", "c"]
            .map(|c| Column::new(c, DataType::Int))
            .to_vec(),
    );
    for pool in pools {
        let rows: Vec<Vec<Value>> = (0..200)
            .map(|_| {
                (0..3)
                    .map(|_| match pick(pool.len() + 1) {
                        0 => Value::Null,
                        j => Value::Int(pool[j - 1]),
                    })
                    .collect()
            })
            .collect();
        let rel = Relation::from_values(schema.clone(), rows).unwrap();
        for keys in &key_sets {
            let key_cmp = |a: &Row, b: &Row| -> Ordering {
                for k in keys {
                    let Expr::Col(c) = k.expr else { unreachable!() };
                    let o = match (a[c].is_null(), b[c].is_null()) {
                        (true, true) => Ordering::Equal,
                        (true, false) if k.nulls_first => Ordering::Less,
                        (true, false) => Ordering::Greater,
                        (false, true) if k.nulls_first => Ordering::Greater,
                        (false, true) => Ordering::Less,
                        (false, false) if k.desc => b[c].cmp(&a[c]),
                        (false, false) => a[c].cmp(&b[c]),
                    };
                    if o.is_ne() {
                        return o;
                    }
                }
                a.cmp(b)
            };
            let mut want = rel.rows().to_vec();
            want.sort_by(key_cmp);
            let plan = LogicalPlan::inline_scan(rel.clone()).sort(keys.clone());
            let got = Planner::default().run(&plan, &Catalog::new()).unwrap();
            assert_eq!(got.rows(), want.as_slice(), "keys={keys:?} pool={pool:?}");
        }
    }
}
