//! The planner/optimizer: logical plan → physical plan.
//!
//! The centrepiece is join-method selection. As in PostgreSQL, every
//! applicable algorithm is costed and the cheapest wins; disabled methods
//! (`enable_nestloop` / `enable_hashjoin` / `enable_mergejoin`) receive the
//! `DISABLE_COST` penalty instead of being removed, so a plan always
//! exists. The paper's Fig. 13 experiment is a direct sweep over these
//! switches.

use std::collections::HashMap;
use std::sync::Arc;

use crate::catalog::Catalog;
use crate::error::{EngineError, EngineResult};
use crate::exec::ExecutionState;
use crate::expr::{col, detect_overlap_pattern, fold, split_join_condition, CmpOp, Expr, SortKey};
use crate::plan::cost::{CostModel, DISABLE_COST};
use crate::plan::{JoinType, LogicalPlan, PhysicalPlan};
use crate::relation::Relation;
use crate::storage::ZoneBounds;
use crate::value::Value;

/// Planner switches (PostgreSQL GUC equivalents).
#[derive(Debug, Clone, Copy)]
pub struct PlannerConfig {
    pub enable_nestloop: bool,
    pub enable_hashjoin: bool,
    pub enable_mergejoin: bool,
    /// The sweep-based interval overlap join — the paper's future-work
    /// extension (Sec. 8): when the join condition is a pure
    /// interval-overlap pattern *without* hashable equi keys (the shape the
    /// temporal primitives' group-construction join takes when θ carries no
    /// equality), the sweep candidate is costed against the nested loop and
    /// the cheaper plan wins. On by default; switch off (or use
    /// [`PlannerConfig::paper`]) to reproduce the paper's PostgreSQL
    /// behaviour, which has no such operator.
    pub enable_intervaljoin_auto: bool,
    /// Logical rewrites (constant folding, filter pushdown across
    /// extension boundaries, projection pruning — [`crate::plan::rewrite`])
    /// applied before costing. On by default; switchable so benchmarks can
    /// isolate the effect of cross-operator optimization.
    pub enable_rewrites: bool,
    /// Zone-map scan pruning: storage scans under a filter with temporal
    /// (or first-key-column) range conjuncts skip pages whose header
    /// min/max synopsis cannot match. On by default.
    pub enable_zonemaps: bool,
    /// Interval-index access path: `AS OF` timeslices (and any filter with
    /// `ts <=` / `te >` bounds) may probe the table's in-memory interval
    /// index instead of sweeping zone maps. On by default.
    pub enable_interval_index: bool,
    /// Span tracing (`SET trace = on`): statements run instrumented and
    /// the session layer records query/plan/operator spans into the
    /// database's ring-buffer tracer (dumpable as chrome-trace JSON via
    /// tsql `.trace <file>`). Off by default.
    pub trace: bool,
    /// Slow-statement logging threshold in milliseconds (`SET
    /// slow_query_ms = N`). 0 — the default — disables it; above 0 every
    /// statement runs instrumented and those at or over the threshold log
    /// their text and per-operator breakdown to stderr.
    pub slow_query_ms: usize,
}

/// The right-hand side of a `SET`: `on`/`off`/`true`/`false`, an integer,
/// or a bare word (`SET sync_mode = commit`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SettingValue {
    Bool(bool),
    Int(i64),
    Str(String),
}

impl From<bool> for SettingValue {
    fn from(v: bool) -> Self {
        SettingValue::Bool(v)
    }
}

impl From<i64> for SettingValue {
    fn from(v: i64) -> Self {
        SettingValue::Int(v)
    }
}

impl From<&str> for SettingValue {
    fn from(v: &str) -> Self {
        SettingValue::Str(v.to_string())
    }
}

impl Default for PlannerConfig {
    fn default() -> Self {
        PlannerConfig {
            enable_nestloop: true,
            enable_hashjoin: true,
            enable_mergejoin: true,
            enable_intervaljoin_auto: true,
            enable_rewrites: true,
            enable_zonemaps: true,
            enable_interval_index: true,
            trace: false,
            slow_query_ms: 0,
        }
    }
}

impl PlannerConfig {
    /// The paper-faithful configuration: exactly PostgreSQL 9.0's join
    /// methods — the sweep interval join (a Sec. 8 future-work extension)
    /// is never a candidate. Every other field is `Default`'s. The
    /// per-setting presets below all build on it.
    pub fn paper() -> Self {
        PlannerConfig {
            enable_intervaljoin_auto: false,
            ..Default::default()
        }
    }

    /// The paper's setting (a): all of PostgreSQL's join methods enabled
    /// (paper-faithful, so the sweep extension is not auto-selected).
    pub fn all_enabled() -> Self {
        PlannerConfig::paper()
    }

    /// The paper's setting (b): `SET enable_mergejoin = false`.
    pub fn no_merge() -> Self {
        PlannerConfig {
            enable_mergejoin: false,
            ..PlannerConfig::paper()
        }
    }

    /// The paper's setting (c): merge and hash joins disabled.
    pub fn nestloop_only() -> Self {
        PlannerConfig {
            enable_mergejoin: false,
            enable_hashjoin: false,
            ..PlannerConfig::paper()
        }
    }

    /// Set a planner setting by its PostgreSQL GUC name: the boolean
    /// switches (`enable_mergejoin = off`, `trace = on`, …) and the
    /// integer `slow_query_ms`. The planner has no string settings.
    pub fn set(&mut self, name: &str, value: impl Into<SettingValue>) -> EngineResult<()> {
        let unknown = |kind: &str| {
            Err(EngineError::Unsupported(format!(
                "unknown {kind} setting '{name}'"
            )))
        };
        match value.into() {
            SettingValue::Bool(on) => {
                let switch = match name {
                    "enable_nestloop" => &mut self.enable_nestloop,
                    "enable_hashjoin" => &mut self.enable_hashjoin,
                    "enable_mergejoin" => &mut self.enable_mergejoin,
                    "enable_intervaljoin_auto" => &mut self.enable_intervaljoin_auto,
                    "enable_rewrites" => &mut self.enable_rewrites,
                    "enable_zonemaps" => &mut self.enable_zonemaps,
                    "enable_interval_index" => &mut self.enable_interval_index,
                    "trace" => &mut self.trace,
                    _ => return unknown("planner"),
                };
                *switch = on;
            }
            // 0 is meaningful here: it turns slow-statement logging off.
            SettingValue::Int(v) if name == "slow_query_ms" => {
                self.slow_query_ms = usize::try_from(v).map_err(|_| {
                    EngineError::Unsupported(format!("setting '{name}' requires a value ≥ 0"))
                })?
            }
            SettingValue::Int(_) => return unknown("integer planner"),
            SettingValue::Str(_) => return unknown("string"),
        }
        Ok(())
    }
}

/// Plans logical trees into executable physical trees.
#[derive(Debug, Clone, Copy, Default)]
pub struct Planner {
    pub config: PlannerConfig,
}

impl Planner {
    pub fn new(config: PlannerConfig) -> Self {
        Planner { config }
    }

    /// Plan a logical tree, resolving table scans against `catalog`. The
    /// logical rewrites (constant folding, filter pushdown, projection
    /// pruning) run first unless `enable_rewrites` is off.
    pub fn plan(&self, lp: &LogicalPlan, catalog: &Catalog) -> EngineResult<PhysicalPlan> {
        // Shared extension nodes (a spool referenced from several plan
        // occurrences) are planned once and the physical subtree reused.
        let mut memo = HashMap::new();
        if self.config.enable_rewrites {
            self.plan_inner(&crate::plan::rewrite::optimize(lp), catalog, &mut memo)
        } else {
            self.plan_inner(lp, catalog, &mut memo)
        }
    }

    fn plan_inner(
        &self,
        lp: &LogicalPlan,
        catalog: &Catalog,
        memo: &mut HashMap<usize, PhysicalPlan>,
    ) -> EngineResult<PhysicalPlan> {
        Ok(match lp {
            LogicalPlan::TableScan { name, schema } => {
                let source = catalog.source(name)?;
                if source.schema().len() != schema.len() {
                    return Err(EngineError::SchemaMismatch(format!(
                        "table '{name}' has {} columns, plan expected {}",
                        source.schema().len(),
                        schema.len()
                    )));
                }
                match source {
                    crate::catalog::TableSource::Mem(rel) => PhysicalPlan::SeqScan {
                        rel,
                        label: name.clone(),
                    },
                    crate::catalog::TableSource::Stored(table) => PhysicalPlan::StorageScan {
                        table,
                        label: name.clone(),
                        bounds: None,
                    },
                }
            }
            LogicalPlan::InlineScan { rel } => PhysicalPlan::SeqScan {
                rel: rel.clone(),
                label: "inline".to_string(),
            },
            LogicalPlan::Filter { input, predicate } => {
                let planned = self.plan_inner(input, catalog, memo)?;
                let predicate = fold(predicate);
                // Filter-over-storage-scan is the access-path hook: the
                // pushdown rewrite has already sunk predicates to their
                // scans, so temporal range conjuncts recognized here can
                // prune pages. The filter always stays on top — pruning
                // only ever skips pages that cannot contain a match.
                let planned = self.choose_access_path(planned, &predicate);
                PhysicalPlan::Filter {
                    input: Box::new(planned),
                    predicate,
                }
            }
            LogicalPlan::Project {
                input,
                exprs,
                schema,
            } => PhysicalPlan::Project {
                input: Box::new(self.plan_inner(input, catalog, memo)?),
                exprs: exprs.clone(),
                schema: schema.clone(),
            },
            LogicalPlan::Aggregate {
                input,
                group,
                aggs,
                schema,
            } => PhysicalPlan::HashAggregate {
                input: Box::new(self.plan_inner(input, catalog, memo)?),
                group: group.clone(),
                aggs: aggs.clone(),
                schema: schema.clone(),
            },
            LogicalPlan::Sort { input, keys } => PhysicalPlan::Sort {
                input: Box::new(self.plan_inner(input, catalog, memo)?),
                keys: keys.clone(),
            },
            LogicalPlan::Distinct { input } => PhysicalPlan::Distinct {
                input: Box::new(self.plan_inner(input, catalog, memo)?),
            },
            LogicalPlan::Join {
                left,
                right,
                join_type,
                condition,
            } => {
                let l = self.plan_inner(left, catalog, memo)?;
                let r = self.plan_inner(right, catalog, memo)?;
                // Fold constants; a condition folded to TRUE disappears
                // (cross/overlap joins written as `… AND 1 = 1` in SQL).
                let condition = match condition.as_ref().map(fold) {
                    Some(Expr::Lit(Value::Bool(true))) => None,
                    other => other,
                };
                self.plan_join(l, r, *join_type, condition)?
            }
            LogicalPlan::SetOp { kind, left, right } => PhysicalPlan::HashSetOp {
                kind: *kind,
                left: Box::new(self.plan_inner(left, catalog, memo)?),
                right: Box::new(self.plan_inner(right, catalog, memo)?),
            },
            LogicalPlan::Limit { input, n } => PhysicalPlan::Limit {
                input: Box::new(self.plan_inner(input, catalog, memo)?),
                n: *n,
            },
            LogicalPlan::Extension { node } => {
                let key = Arc::as_ptr(node) as *const u8 as usize;
                if let Some(planned) = memo.get(&key) {
                    return Ok(planned.clone());
                }
                let mut children = Vec::new();
                for i in node.inputs() {
                    children.push(self.plan_inner(i, catalog, memo)?);
                }
                let planned = PhysicalPlan::Extension {
                    node: node.clone(),
                    children,
                };
                memo.insert(key, planned.clone());
                planned
            }
        })
    }

    /// Access-path selection for a storage scan under a filter. When the
    /// (folded, pushed-down) predicate carries range conjuncts over the
    /// table's temporal columns (or its first key column), the scan is
    /// pruned: an interval-index probe when a bound limits `ts` from above
    /// or `te` from below (the index serves exactly those), else a
    /// zone-map pruned scan. The chosen path only narrows the *page set*;
    /// the caller keeps the full filter on top, so an over-approximate
    /// page set can never change results.
    ///
    /// The choice needs no costing: under the planner's [`CostModel`] a
    /// zone sweep (one check per page, then `√sel` of the heap) always
    /// undercuts the full scan, and an index probe (`sel` of the entries
    /// and of the heap) never loses to the zone sweep, at every
    /// selectivity a bound can estimate (`0.33ⁿ`).
    fn choose_access_path(&self, input: PhysicalPlan, predicate: &Expr) -> PhysicalPlan {
        let PhysicalPlan::StorageScan {
            table,
            label,
            bounds: None,
        } = &input
        else {
            return input;
        };
        let Some((tsi, tei)) = table.temporal_cols() else {
            return input;
        };
        let bounds = extract_zone_bounds(predicate, tsi, tei, table.key_col());
        if bounds.is_empty() {
            return input;
        }
        // Every temporal table has an index.
        if self.config.enable_interval_index && (bounds.ts_le.is_some() || bounds.te_gt.is_some()) {
            PhysicalPlan::IndexScan {
                table: table.clone(),
                label: label.clone(),
                bounds,
            }
        } else if self.config.enable_zonemaps {
            PhysicalPlan::StorageScan {
                table: table.clone(),
                label: label.clone(),
                bounds: Some(bounds),
            }
        } else {
            input
        }
    }

    /// Plan and execute in one step: one [`ExecutionState`] is created
    /// from the planner's GUC snapshot and drives the whole execution —
    /// the single entry point for running a plan.
    pub fn run(&self, lp: &LogicalPlan, catalog: &Catalog) -> EngineResult<Relation> {
        let state = ExecutionState::new(self.config);
        self.plan(lp, catalog)?.collect(&state)
    }

    /// Cost-based join algorithm selection.
    fn plan_join(
        &self,
        left: PhysicalPlan,
        right: PhysicalPlan,
        join_type: JoinType,
        condition: Option<Expr>,
    ) -> EngineResult<PhysicalPlan> {
        let model = &CostModel::default();
        let left_width = left.schema().len();
        let parts = split_join_condition(condition.as_ref(), left_width);

        let mut candidates: Vec<(f64, PhysicalPlan)> = Vec::new();

        // Nested loop: always applicable.
        {
            let plan = PhysicalPlan::NestedLoopJoin {
                left: Box::new(left.clone()),
                right: Box::new(right.clone()),
                join_type,
                condition: condition.clone(),
            };
            let mut cost = plan.stats(model).cost;
            if !self.config.enable_nestloop {
                cost += DISABLE_COST;
            }
            candidates.push((cost, plan));
        }

        if !parts.equi_keys.is_empty() {
            // Hash join: equi keys, any join type.
            let plan = PhysicalPlan::HashJoin {
                left: Box::new(left.clone()),
                right: Box::new(right.clone()),
                join_type,
                keys: parts.equi_keys.clone(),
                residual: parts.residual.clone(),
            };
            let mut cost = plan.stats(model).cost;
            if !self.config.enable_hashjoin {
                cost += DISABLE_COST;
            }
            candidates.push((cost, plan));

            // Merge join: equi keys; Inner/Left/Full only (Right would need
            // an output-reordering projection; hash/NL cover it).
            if matches!(join_type, JoinType::Inner | JoinType::Left | JoinType::Full) {
                let lkeys: Vec<SortKey> = parts
                    .equi_keys
                    .iter()
                    .map(|&(l, _)| SortKey::asc(col(l)))
                    .collect();
                let rkeys: Vec<SortKey> = parts
                    .equi_keys
                    .iter()
                    .map(|&(_, r)| SortKey::asc(col(r)))
                    .collect();
                let plan = PhysicalPlan::MergeJoin {
                    left: Box::new(PhysicalPlan::Sort {
                        input: Box::new(left.clone()),
                        keys: lkeys,
                    }),
                    right: Box::new(PhysicalPlan::Sort {
                        input: Box::new(right.clone()),
                        keys: rkeys,
                    }),
                    join_type,
                    keys: parts.equi_keys.clone(),
                    residual: parts.residual.clone(),
                };
                let mut cost = plan.stats(model).cost;
                if !self.config.enable_mergejoin {
                    cost += DISABLE_COST;
                }
                candidates.push((cost, plan));
            }
        }

        // Interval sweep join: considered when the condition is an overlap
        // pattern without hashable keys and the join is Inner/Left
        // (`enable_intervaljoin_auto`), left to compete on cost with the
        // nested loop.
        if self.config.enable_intervaljoin_auto
            && parts.equi_keys.is_empty()
            && matches!(join_type, JoinType::Inner | JoinType::Left)
        {
            if let Some(p) = detect_overlap_pattern(condition.as_ref(), left_width) {
                let plan = PhysicalPlan::IntervalJoin {
                    left: Box::new(left.clone()),
                    right: Box::new(right.clone()),
                    join_type,
                    endpoints: (p.l_ts, p.l_te, p.r_ts, p.r_te),
                    residual: p.residual,
                };
                let cost = plan.stats(model).cost;
                candidates.push((cost, plan));
            }
        }

        let best = candidates
            .into_iter()
            .min_by(|a, b| a.0.total_cmp(&b.0))
            .expect("at least the nested-loop candidate exists");
        Ok(best.1)
    }
}

/// Extract page-pruning [`ZoneBounds`] from the range conjuncts of a
/// (folded) predicate: comparisons between the table's temporal columns
/// (`ts_col`, `te_col`) or its zone key column and integer literals, plus
/// non-negated `BETWEEN`. Conjuncts that don't fit contribute nothing —
/// the bounds are an over-approximation of the predicate by construction,
/// and the caller re-applies the full predicate above the pruned scan.
pub fn extract_zone_bounds(
    predicate: &Expr,
    ts_col: usize,
    te_col: usize,
    key_col: Option<usize>,
) -> ZoneBounds {
    let mut bounds = ZoneBounds::default();
    for conj in predicate.conjuncts() {
        match conj {
            Expr::Cmp(op, l, r) => {
                let (c, op, v) = match (l.as_ref(), r.as_ref()) {
                    (Expr::Col(c), Expr::Lit(Value::Int(v))) => (*c, *op, *v),
                    (Expr::Lit(Value::Int(v)), Expr::Col(c)) => (*c, op.swapped(), *v),
                    _ => continue,
                };
                apply_bound(&mut bounds, c, op, v, ts_col, te_col, key_col);
            }
            Expr::Between {
                expr,
                low,
                high,
                negated: false,
            } => {
                if let (Expr::Col(c), Expr::Lit(Value::Int(lo)), Expr::Lit(Value::Int(hi))) =
                    (expr.as_ref(), low.as_ref(), high.as_ref())
                {
                    apply_bound(&mut bounds, *c, CmpOp::Ge, *lo, ts_col, te_col, key_col);
                    apply_bound(&mut bounds, *c, CmpOp::Le, *hi, ts_col, te_col, key_col);
                }
            }
            _ => {}
        }
    }
    bounds
}

/// Fold one `col op literal` conjunct into `bounds`, tightening any bound
/// already present. Comparisons whose strictness differs from the bound's
/// shift by one (integer domain). At the i64 edges a shift that would
/// *loosen* the conjunct saturates (still conservative); one that would
/// tighten it (`te >= i64::MIN` as `te > i64::MIN`) contributes no bound.
fn apply_bound(
    bounds: &mut ZoneBounds,
    c: usize,
    op: CmpOp,
    v: i64,
    ts_col: usize,
    te_col: usize,
    key_col: Option<usize>,
) {
    fn tighten_min(slot: &mut Option<i64>, v: i64) {
        *slot = Some(slot.map_or(v, |s| s.min(v)));
    }
    fn tighten_max(slot: &mut Option<i64>, v: i64) {
        *slot = Some(slot.map_or(v, |s| s.max(v)));
    }
    if c == ts_col {
        match op {
            CmpOp::Le => tighten_min(&mut bounds.ts_le, v),
            CmpOp::Lt => tighten_min(&mut bounds.ts_le, v.saturating_sub(1)),
            CmpOp::Ge => tighten_max(&mut bounds.ts_ge, v),
            CmpOp::Gt => tighten_max(&mut bounds.ts_ge, v.saturating_add(1)),
            CmpOp::Eq => {
                tighten_min(&mut bounds.ts_le, v);
                tighten_max(&mut bounds.ts_ge, v);
            }
            CmpOp::Ne => {}
        }
    } else if c == te_col {
        match op {
            CmpOp::Gt => tighten_max(&mut bounds.te_gt, v),
            CmpOp::Lt => tighten_min(&mut bounds.te_lt, v),
            // `te >= v` is `te > v - 1`, `te <= v` is `te < v + 1`, `=` is
            // both; at the i64 edge that side admits every integer.
            CmpOp::Ge | CmpOp::Le | CmpOp::Eq => {
                if op != CmpOp::Le {
                    if let Some(below) = v.checked_sub(1) {
                        tighten_max(&mut bounds.te_gt, below);
                    }
                }
                if op != CmpOp::Ge {
                    if let Some(above) = v.checked_add(1) {
                        tighten_min(&mut bounds.te_lt, above);
                    }
                }
            }
            CmpOp::Ne => {}
        }
    } else if Some(c) == key_col {
        match op {
            CmpOp::Le => tighten_min(&mut bounds.key_le, v),
            CmpOp::Lt => tighten_min(&mut bounds.key_le, v.saturating_sub(1)),
            CmpOp::Ge => tighten_max(&mut bounds.key_ge, v),
            CmpOp::Gt => tighten_max(&mut bounds.key_ge, v.saturating_add(1)),
            CmpOp::Eq => {
                tighten_min(&mut bounds.key_le, v);
                tighten_max(&mut bounds.key_ge, v);
            }
            CmpOp::Ne => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::lit;
    use crate::relation::Relation;
    use crate::schema::{Column, DataType, Schema};
    use crate::value::Value;

    fn rel(n: i64) -> Relation {
        let schema = Schema::new(vec![
            Column::new("k", DataType::Int),
            Column::new("v", DataType::Int),
        ]);
        Relation::from_values(
            schema,
            (0..n)
                .map(|i| vec![Value::Int(i % 10), Value::Int(i)])
                .collect(),
        )
        .unwrap()
    }

    fn join_plan(config: PlannerConfig, cond: Expr, join_type: JoinType) -> PhysicalPlan {
        let l = LogicalPlan::inline_scan(rel(1000));
        let r = LogicalPlan::inline_scan(rel(1000));
        let lp = l.join(r, join_type, Some(cond));
        Planner::new(config).plan(&lp, &Catalog::new()).unwrap()
    }

    #[test]
    fn equi_join_avoids_nested_loop_when_enabled() {
        let p = join_plan(
            PlannerConfig::all_enabled(),
            col(0).eq(col(2)),
            JoinType::Inner,
        );
        let alg = p.root_join_algorithm().unwrap();
        assert_ne!(alg, "nestloop", "plan was: {}", p.explain());
    }

    #[test]
    fn disabling_methods_walks_down_the_preference_list() {
        // (b) merge disabled → hash; (c) merge+hash disabled → nestloop.
        let p = join_plan(
            PlannerConfig::no_merge(),
            col(0).eq(col(2)),
            JoinType::Inner,
        );
        assert_ne!(p.root_join_algorithm().unwrap(), "merge");
        let p = join_plan(
            PlannerConfig::nestloop_only(),
            col(0).eq(col(2)),
            JoinType::Inner,
        );
        assert_eq!(p.root_join_algorithm().unwrap(), "nestloop");
    }

    #[test]
    fn non_equi_condition_forces_nested_loop() {
        let p = join_plan(
            PlannerConfig::all_enabled(),
            col(1).lt(col(3)),
            JoinType::Inner,
        );
        assert_eq!(p.root_join_algorithm().unwrap(), "nestloop");
    }

    #[test]
    fn overlap_pattern_auto_enables_interval_join() {
        // A pure overlap condition (l.ts < r.te ∧ r.ts < l.te, no equi
        // keys): the default config auto-considers the sweep join and its
        // cost wins; the paper-faithful config keeps the nested loop.
        let overlap = col(0).lt(col(3)).and(col(2).lt(col(1)));
        let p = join_plan(PlannerConfig::default(), overlap.clone(), JoinType::Inner);
        assert_eq!(p.root_join_algorithm().unwrap(), "interval");
        let p = join_plan(PlannerConfig::paper(), overlap, JoinType::Inner);
        assert_eq!(p.root_join_algorithm().unwrap(), "nestloop");
    }

    #[test]
    fn merge_not_considered_for_right_joins() {
        let mut config = PlannerConfig::all_enabled();
        config.enable_hashjoin = false;
        config.enable_nestloop = false;
        // Even with everything else "disabled", Right join can't use merge,
        // so one of the penalized methods is chosen (plan still exists).
        let p = join_plan(config, col(0).eq(col(2)), JoinType::Right);
        assert_ne!(p.root_join_algorithm().unwrap(), "merge");
    }

    #[test]
    fn all_algorithms_agree_on_results() {
        let cond = col(0).eq(col(2)).and(col(1).lt(col(3)));
        for jt in [JoinType::Inner, JoinType::Left, JoinType::Full] {
            let reference = join_plan(PlannerConfig::nestloop_only(), cond.clone(), jt)
                .collect(&ExecutionState::default())
                .unwrap();
            for config in [PlannerConfig::all_enabled(), PlannerConfig::no_merge()] {
                let out = join_plan(config, cond.clone(), jt)
                    .collect(&ExecutionState::default())
                    .unwrap();
                assert!(out.same_bag(&reference), "join type {jt:?}");
            }
        }
    }

    #[test]
    fn table_scan_resolves_catalog() {
        let mut catalog = Catalog::new();
        catalog.register("t", rel(5)).unwrap();
        let lp = LogicalPlan::table_scan("t", rel(0).schema().clone()).filter(col(1).ge(lit(3i64)));
        let out = Planner::default().run(&lp, &catalog).unwrap();
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn unknown_table_errors() {
        let lp = LogicalPlan::table_scan("nope", rel(0).schema().clone());
        assert!(Planner::default().run(&lp, &Catalog::new()).is_err());
    }

    #[test]
    fn zone_bounds_over_approximate_their_conjuncts() {
        // Columns: 0 = key, 1 = ts, 2 = te.
        let bounds = |p: Expr| extract_zone_bounds(&p, 1, 2, Some(0));
        let b = bounds(col(1).le(lit(7i64)).and(col(2).gt(lit(7i64))));
        assert_eq!(b, ZoneBounds::as_of(7));
        let b = bounds(col(2).ge(lit(5i64)).and(col(2).le(lit(9i64))));
        assert_eq!((b.te_gt, b.te_lt), (Some(4), Some(10)));
        // `te >= MIN` and `te <= MAX` hold for every integer: a shifted,
        // saturated bound would exclude the edge value itself.
        let b = bounds(col(2).ge(lit(i64::MIN)).and(col(2).le(lit(i64::MAX))));
        assert!(b.is_empty(), "{b:?}");
        let b = bounds(col(2).eq(lit(i64::MAX)));
        assert_eq!((b.te_gt, b.te_lt), (Some(i64::MAX - 1), None));
        // The loosening direction may saturate.
        let b = bounds(col(1).lt(lit(i64::MIN)).and(col(0).gt(lit(i64::MAX))));
        assert_eq!((b.ts_le, b.key_ge), (Some(i64::MIN), Some(i64::MAX)));
    }

    #[test]
    fn set_gucs_by_name() {
        let mut c = PlannerConfig::default();
        c.set("enable_mergejoin", false).unwrap();
        assert!(!c.enable_mergejoin);
        assert!(c.enable_intervaljoin_auto, "heuristic is on by default");
        c.set("enable_intervaljoin_auto", false).unwrap();
        assert!(!c.enable_intervaljoin_auto);
        assert!(c.set("enable_warp_drive", true).is_err());
    }
}
