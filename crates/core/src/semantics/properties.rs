//! Table 1 of the paper: which operators are *schema robust* (Def. 2) and
//! which are *timestamp propagating* (Def. 5) — with executable evidence.
//!
//! Schema robustness is what makes timestamp propagation sound: an
//! operator unaffected by extra attributes can safely receive relations
//! extended with propagated timestamps. The set operators are **not**
//! schema robust — independently extended arguments stop being
//! union-compatible in spirit (value equivalence now involves the foreign
//! attributes), so propagated timestamps must be projected away before
//! ∪/−/∩ (Sec. 3.3).

use temporal_engine::prelude::*;

use crate::error::TemporalResult;
use crate::semantics::op::TemporalOp;
use crate::trel::TemporalRelation;

/// One row of Table 1.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OperatorProperties {
    pub operator: &'static str,
    pub schema_robust: bool,
    pub timestamp_propagating: bool,
}

/// The paper's Table 1.
pub fn table1() -> Vec<OperatorProperties> {
    let row = |operator, schema_robust, timestamp_propagating| OperatorProperties {
        operator,
        schema_robust,
        timestamp_propagating,
    };
    vec![
        row("σ", true, true),
        row("×", true, true),
        row("⋈", true, true),
        row("⟕", true, true),
        row("⟖", true, true),
        row("⟗", true, true),
        row("▷", true, true),
        row("π", true, false),
        row("ϑ", true, false),
        row("−", false, false),
        row("∩", false, false),
        row("∪", false, false),
    ]
}

/// Render Table 1 as text (used by the `reproduce` harness).
pub fn render_table1() -> String {
    let mut out = String::from(
        "Table 1: Properties of Operators\n\
         operator   schema robust   timestamp propagating\n",
    );
    for p in table1() {
        out.push_str(&format!(
            "{:<10} {:<15} {}\n",
            p.operator,
            if p.schema_robust { "yes" } else { "no" },
            if p.timestamp_propagating { "yes" } else { "no" },
        ));
    }
    out
}

/// Extend `r` with an extra Int data column `name` holding unique values
/// `base + row index` — an adversarial witness for Def. 2 ("for all Xi").
pub fn extend_with_tag(
    r: &TemporalRelation,
    name: &str,
    base: i64,
) -> TemporalResult<TemporalRelation> {
    let dw = r.data_width();
    let mut cols = r.data_schema().cols().to_vec();
    cols.push(Column::new(name, DataType::Int));
    let schema = Schema::new(cols);
    let rows = r
        .iter()
        .enumerate()
        .map(|(i, (data, iv))| {
            let mut vals = data.to_vec();
            vals.push(Value::Int(base + i as i64));
            debug_assert_eq!(vals.len(), dw + 1);
            (vals, iv)
        })
        .collect();
    TemporalRelation::from_rows(schema, rows)
}

/// Remap a θ (over plain `r ++ s` full rows) to extended coordinates where
/// both arguments gained one data column before ts/te.
fn remap_theta(theta: &Expr, dr: usize, ds: usize) -> Expr {
    theta.remap_cols(&|i| {
        if i < dr {
            i // r data
        } else if i < dr + 2 + ds {
            i + 1 // r ts/te and s data shift past r's tag column
        } else {
            i + 2 // s ts/te shift past both tag columns
        }
    })
}

/// Rebuild `op` with θ/predicates remapped for tag-extended arguments.
fn remap_op(op: &TemporalOp, dr: usize, ds: usize) -> TemporalOp {
    let remap = |t: &Option<Expr>| t.as_ref().map(|e| remap_theta(e, dr, ds));
    match op {
        TemporalOp::Selection { predicate } => TemporalOp::Selection {
            // Unary: only r's ts/te shift.
            predicate: predicate.remap_cols(&|i| if i < dr { i } else { i + 1 }),
        },
        TemporalOp::Projection { attrs } => TemporalOp::Projection {
            attrs: attrs.clone(),
        },
        TemporalOp::Aggregation { group, aggs } => TemporalOp::Aggregation {
            group: group.clone(),
            aggs: aggs
                .iter()
                .map(|(c, n)| {
                    let call = AggCall {
                        func: c.func,
                        arg: c
                            .arg
                            .as_ref()
                            .map(|e| e.remap_cols(&|i| if i < dr { i } else { i + 1 })),
                    };
                    (call, n.clone())
                })
                .collect(),
        },
        TemporalOp::Union => TemporalOp::Union,
        TemporalOp::Difference => TemporalOp::Difference,
        TemporalOp::Intersection => TemporalOp::Intersection,
        TemporalOp::CartesianProduct => TemporalOp::CartesianProduct,
        TemporalOp::Join { theta } => TemporalOp::Join {
            theta: remap(theta),
        },
        TemporalOp::LeftOuterJoin { theta } => TemporalOp::LeftOuterJoin {
            theta: remap(theta),
        },
        TemporalOp::RightOuterJoin { theta } => TemporalOp::RightOuterJoin {
            theta: remap(theta),
        },
        TemporalOp::FullOuterJoin { theta } => TemporalOp::FullOuterJoin {
            theta: remap(theta),
        },
        TemporalOp::AntiJoin { theta } => TemporalOp::AntiJoin {
            theta: remap(theta),
        },
    }
}

/// Def. 2 on concrete arguments: does
/// `π_E(ψ(extended args)) ≡ ψ(args)` hold for adversarial tag columns?
pub fn check_schema_robust(
    op: &TemporalOp,
    args: &[&TemporalRelation],
    planner: &Planner,
) -> TemporalResult<bool> {
    let plain = op.evaluate(planner, args)?;
    let extended: Vec<TemporalRelation> = args
        .iter()
        .enumerate()
        .map(|(i, r)| extend_with_tag(r, &format!("__x{i}"), 1000 * (i as i64 + 1)))
        .collect::<TemporalResult<Vec<_>>>()?;
    let ext_refs: Vec<&TemporalRelation> = extended.iter().collect();
    let dr = args[0].data_width();
    let ds = args.get(1).map_or(0, |s| s.data_width());
    let ext_op = remap_op(op, dr, ds);
    let ext_result = match ext_op.evaluate(planner, &ext_refs) {
        Ok(r) => r,
        // Evaluation failures on extended arguments (e.g. broken union
        // compatibility) are themselves evidence of non-robustness.
        Err(_) => return Ok(false),
    };
    // π_E: drop the tag columns from the extended result.
    let data_schema = ext_result.data_schema();
    let keep: Vec<usize> = (0..ext_result.data_width())
        .filter(|&i| !data_schema.col(i).name.starts_with("__x"))
        .collect();
    let projected = ext_result.project_data(&keep)?;
    Ok(projected.same_set(&plain))
}

/// Def. 5 on concrete arguments: do the tag columns survive into the
/// result schema (with the operator otherwise unchanged)?
///
/// Nuance for the anti join: its output schema is `r`'s schema, so only
/// the left argument's propagated attributes can flow *through* it — the
/// right argument's propagated timestamps are consumed by θ inside the
/// operator. Table 1 still lists ▷ as timestamp propagating, and we check
/// propagation only for output-contributing arguments.
pub fn check_timestamp_propagating(
    op: &TemporalOp,
    args: &[&TemporalRelation],
    planner: &Planner,
) -> TemporalResult<bool> {
    let extended: Vec<TemporalRelation> = args
        .iter()
        .enumerate()
        .map(|(i, r)| extend_with_tag(r, &format!("__x{i}"), 1000 * (i as i64 + 1)))
        .collect::<TemporalResult<Vec<_>>>()?;
    let ext_refs: Vec<&TemporalRelation> = extended.iter().collect();
    let dr = args[0].data_width();
    let ds = args.get(1).map_or(0, |s| s.data_width());
    let ext_op = remap_op(op, dr, ds);
    let ext_result = match ext_op.evaluate(planner, &ext_refs) {
        Ok(r) => r,
        Err(_) => return Ok(false),
    };
    let data_schema = ext_result.data_schema();
    let names: Vec<String> = data_schema.cols().iter().map(|c| c.name.clone()).collect();
    let contributing: Vec<usize> = match op {
        TemporalOp::AntiJoin { .. } => vec![0],
        _ => (0..args.len()).collect(),
    };
    Ok(contributing
        .into_iter()
        .all(|i| names.iter().any(|n| n == &format!("__x{i}"))))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interval::Interval;

    fn r() -> TemporalRelation {
        TemporalRelation::from_rows(
            Schema::new(vec![Column::new("v", DataType::Str)]),
            vec![
                (vec![Value::str("a")], Interval::of(0, 10)),
                (vec![Value::str("b")], Interval::of(3, 7)),
            ],
        )
        .unwrap()
    }

    fn s() -> TemporalRelation {
        TemporalRelation::from_rows(
            Schema::new(vec![Column::new("v", DataType::Str)]),
            vec![
                (vec![Value::str("a")], Interval::of(5, 20)),
                (vec![Value::str("c")], Interval::of(0, 4)),
            ],
        )
        .unwrap()
    }

    fn ops_with_claims() -> Vec<(TemporalOp, bool, bool)> {
        // θ: r.v = s.v in plain coordinates (r data=1 → r=(v,ts,te)).
        let theta = Some(col(0).eq(col(3)));
        vec![
            (
                TemporalOp::Selection {
                    predicate: col(0).eq(lit(Value::str("a"))),
                },
                true,
                true,
            ),
            (TemporalOp::CartesianProduct, true, true),
            (
                TemporalOp::Join {
                    theta: theta.clone(),
                },
                true,
                true,
            ),
            (
                TemporalOp::LeftOuterJoin {
                    theta: theta.clone(),
                },
                true,
                true,
            ),
            (
                TemporalOp::RightOuterJoin {
                    theta: theta.clone(),
                },
                true,
                true,
            ),
            (
                TemporalOp::FullOuterJoin {
                    theta: theta.clone(),
                },
                true,
                true,
            ),
            (TemporalOp::AntiJoin { theta }, true, true),
            (TemporalOp::Projection { attrs: vec![0] }, true, false),
            (
                TemporalOp::Aggregation {
                    group: vec![],
                    aggs: vec![(AggCall::count_star(), "c".to_string())],
                },
                true,
                false,
            ),
            (TemporalOp::Difference, false, false),
            (TemporalOp::Intersection, false, false),
            (TemporalOp::Union, false, false),
        ]
    }

    #[test]
    fn table1_claims_verified_executably() {
        let planner = Planner::default();
        let (rr, ss) = (r(), s());
        for (op, robust, propagating) in ops_with_claims() {
            let args: Vec<&TemporalRelation> = if op.arity() == 1 {
                vec![&rr]
            } else {
                vec![&rr, &ss]
            };
            let got_robust = check_schema_robust(&op, &args, &planner).unwrap();
            assert_eq!(
                got_robust,
                robust,
                "schema robustness of {} should be {robust}",
                op.name()
            );
            if got_robust {
                let got_prop = check_timestamp_propagating(&op, &args, &planner).unwrap();
                assert_eq!(
                    got_prop,
                    propagating,
                    "timestamp propagation of {} should be {propagating}",
                    op.name()
                );
            }
        }
    }

    #[test]
    fn table1_matches_paper_shape() {
        let t = table1();
        assert_eq!(t.len(), 12);
        assert_eq!(t.iter().filter(|p| p.schema_robust).count(), 9);
        assert_eq!(t.iter().filter(|p| p.timestamp_propagating).count(), 7);
        // No operator propagates without being robust.
        assert!(t
            .iter()
            .all(|p| p.schema_robust || !p.timestamp_propagating));
        let rendered = render_table1();
        assert!(rendered.contains("σ"));
        assert!(rendered.contains("yes"));
    }
}
