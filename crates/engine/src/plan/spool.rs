//! Shared materialization (spool) for plans that reference one subtree
//! from several places.
//!
//! The reduction rules of the paper are *self-referencing*: a reduced
//! θ-join aligns `r` against `s` **and** `s` against `r`, and a reduced
//! group-based operator normalizes its input against itself, so composing
//! whole temporal queries into a single plan duplicates the operand
//! subtree. A duplicated composed subtree would re-execute. [`SpoolNode`]
//! is the engine's equivalent of PostgreSQL's shared CTE scan: every clone
//! of the wrapped plan shares one result cache, so the subtree runs
//! exactly once per query execution no matter how many times the
//! reduction rules mention it. The planner puts every composed subtree a
//! statement repeats behind one ([`crate::plan::share`]).
//!
//! Duplicated *base* scans stay unshared. Rescanning an inline relation
//! is free (the scans share its rows), but rescanning a persisted heap
//! larger than the buffer pool is not: every page of every scan is a pool
//! miss (the `normalize` workload's `N_pcn` statement scans its table
//! three times, at 0.73–1.0 ms a scan). A spool would still cost more: it would
//! hold the whole table in memory, which is what paged storage avoids.
//!
//! In a physical plan a spool is [`PhysicalPlan::Spool`]: its occurrences
//! share one `Arc` of the planned input, which the first occurrence to be
//! pulled builds and drains. `EXPLAIN` prints that input once, under the
//! first occurrence.
//!
//! The cache lives in the per-query [`ExecutionState`] spool registry,
//! keyed by the spool node's identity — not in the plan. A plan therefore
//! carries no execution state at all: re-running it under a fresh state
//! observes current table contents, and two concurrent executions of the
//! same plan cannot step on each other's cache.

use std::sync::Arc;

use crate::batch::RowBatch;
use crate::error::{EngineError, EngineResult};
use crate::exec::{BoxedExec, ExecNode, ExecutionState};
use crate::plan::cost::{CostModel, PlanStats};
use crate::plan::logical::{ExtensionNode, LogicalPlan};
use crate::plan::PhysicalPlan;
use crate::relation::Relation;
use crate::schema::Schema;

/// A logical node that materializes its input once per execution and
/// serves the buffered rows to every plan occurrence sharing this node.
#[derive(Debug)]
pub struct SpoolNode {
    input: LogicalPlan,
    schema: Schema,
}

impl SpoolNode {
    /// Wrap `input` so that every *clone* of the returned plan shares one
    /// materialization of it.
    pub fn shared(input: LogicalPlan) -> LogicalPlan {
        let schema = input.schema();
        LogicalPlan::extension(Arc::new(SpoolNode { input, schema }))
    }
}

/// Is `node` a [`SpoolNode`]?
pub(crate) fn is_spool(node: &dyn ExtensionNode) -> bool {
    node.as_any().is::<SpoolNode>()
}

impl ExtensionNode for SpoolNode {
    fn name(&self) -> &str {
        "Spool"
    }

    fn inputs(&self) -> Vec<&LogicalPlan> {
        vec![&self.input]
    }

    fn with_new_inputs(&self, mut inputs: Vec<LogicalPlan>) -> Arc<dyn ExtensionNode> {
        assert_eq!(inputs.len(), 1);
        let input = inputs.remove(0);
        let schema = input.schema();
        Arc::new(SpoolNode { input, schema })
    }

    fn schema(&self) -> Schema {
        self.schema.clone()
    }

    fn estimate(&self, input_stats: &[PlanStats], model: &CostModel) -> PlanStats {
        model.spool(input_stats[0])
    }

    /// A spool adds nothing to its input's computation.
    fn same_computation(&self, other: &dyn ExtensionNode) -> bool {
        is_spool(other)
    }

    /// Never called: the planner plans a spool as [`PhysicalPlan::Spool`],
    /// whose occurrences share their input's plan, not a built child.
    fn build_exec(&self, _children: Vec<BoxedExec>) -> EngineResult<BoxedExec> {
        Err(EngineError::Internal(
            "a spool executes as PhysicalPlan::Spool".to_string(),
        ))
    }

    // No passthrough: pushing a filter below a *shared* node would detach
    // this occurrence from the others (with_new_inputs makes a fresh
    // node) and silently drop the sharing the spool exists for.

    fn explain(&self) -> String {
        "Spool (shared materialization)".to_string()
    }
}

/// Executor for one occurrence of a [`PhysicalPlan::Spool`]: the first
/// occurrence to pull builds and drains the shared input into the
/// execution state's spool registry (keyed by the input's address); every
/// occurrence then serves rows from that materialization (resolved once
/// per stream, then read lock-free).
pub struct SpoolExec {
    input: Arc<PhysicalPlan>,
    /// The address of this occurrence's plan node, noted as the filler
    /// when its pull runs the input under instrumentation.
    node: usize,
    schema: Schema,
    /// Local handle to the materialized relation, filled on first pull so
    /// the registry is consulted once per stream, not once per batch.
    local: Option<Arc<Relation>>,
    pos: usize,
}

impl SpoolExec {
    /// The occurrence at address `node` of a spool over `input`.
    pub(crate) fn new(input: &Arc<PhysicalPlan>, node: usize) -> SpoolExec {
        SpoolExec {
            input: Arc::clone(input),
            node,
            schema: input.schema(),
            local: None,
            pos: 0,
        }
    }

    /// Materialize (or attach to) the shared cache in `state`: the first
    /// stream to pull runs the input.
    fn materialized(&mut self, state: &ExecutionState) -> EngineResult<&Relation> {
        if self.local.is_none() {
            let key = Arc::as_ptr(&self.input) as usize;
            let rel = state.spool_get_or_fill(key, || {
                if let Some(ins) = state.instrumentation() {
                    ins.note_spool_filler(key, self.node);
                }
                self.input.collect(state)
            })?;
            self.local = Some(rel);
        }
        Ok(self.local.as_ref().expect("filled above"))
    }
}

impl ExecNode for SpoolExec {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Serve the next chunk of the shared materialization (whole stored
    /// batches pass on as `Arc` clones of their columns).
    fn next_batch(&mut self, state: &ExecutionState) -> EngineResult<Option<RowBatch>> {
        let (pos, schema) = (self.pos, self.schema.clone());
        let batch = self.materialized(state)?.batch_at(pos, &schema);
        if let Some(b) = &batch {
            self.pos += b.len();
        }
        Ok(batch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Catalog;
    use crate::expr::{col, lit};
    use crate::plan::{JoinType, Planner};
    use crate::schema::{Column, DataType};
    use crate::value::Value;

    fn rel() -> Relation {
        Relation::from_values(
            Schema::new(vec![Column::new("a", DataType::Int)]),
            (0..5).map(|i| vec![Value::Int(i)]).collect(),
        )
        .unwrap()
    }

    #[test]
    fn occurrences_share_one_materialization() {
        let input = Arc::new(PhysicalPlan::SeqScan {
            rel: Arc::new(rel()),
            label: "t".to_string(),
        });
        let spool = PhysicalPlan::Spool { input };
        let twice = PhysicalPlan::HashSetOp {
            kind: crate::plan::SetOpKind::Union,
            left: Box::new(spool.clone()),
            right: Box::new(spool),
        };
        let state = ExecutionState::default().with_instrumentation();
        assert_eq!(twice.collect(&state).unwrap().len(), 5);
        // The scan ran once, under one occurrence, and is printed once.
        let scans = twice.operator_stats(&state);
        let scans: Vec<_> = scans
            .iter()
            .filter(|(_, l, _)| l.starts_with("SeqScan"))
            .collect();
        assert_eq!(scans.len(), 1);
        assert_eq!(
            scans[0].2.rows.load(std::sync::atomic::Ordering::Relaxed),
            5
        );
        let text = twice.explain_analyze(&state);
        assert_eq!(text.matches("SeqScan").count(), 1, "{text}");
        assert_eq!(text.matches("input printed once").count(), 1, "{text}");
    }

    #[test]
    fn spooled_self_join_matches_plain_self_join() {
        let base = LogicalPlan::inline_scan(rel()).filter(col(0).lt(lit(3i64)));
        let shared = SpoolNode::shared(base.clone());
        let cond = Some(col(0).eq(col(1)));
        let spooled = shared.clone().join(shared, JoinType::Inner, cond.clone());
        let plain = base.clone().join(base, JoinType::Inner, cond);
        let planner = Planner::default();
        let a = planner.run(&spooled, &Catalog::new()).unwrap();
        let b = planner.run(&plain, &Catalog::new()).unwrap();
        assert!(a.same_bag(&b), "{a} vs {b}");
    }

    #[test]
    fn reexecution_observes_current_table_contents() {
        use crate::plan::PlannerConfig;
        use crate::schema::{Column, DataType};
        // With rewrites off, plan_inner keeps the ORIGINAL spool node, so
        // the same physical node is executed twice — each execution runs
        // under a fresh ExecutionState, so the second run must
        // re-materialize against the current catalog.
        let planner = Planner::new(PlannerConfig {
            enable_rewrites: false,
            ..Default::default()
        });
        let schema = Schema::new(vec![Column::new("a", DataType::Int)]);
        let shared = SpoolNode::shared(LogicalPlan::table_scan("t", schema.clone()));
        let plan = shared.clone().join(
            shared,
            crate::plan::JoinType::Inner,
            Some(col(0).eq(col(1))),
        );
        let mut catalog = Catalog::new();
        catalog.register("t", rel()).unwrap();
        assert_eq!(planner.run(&plan, &catalog).unwrap().len(), 5);
        let bigger =
            Relation::from_values(schema, (0..7).map(|i| vec![Value::Int(i)]).collect()).unwrap();
        catalog.register_or_replace("t", bigger);
        assert_eq!(
            planner.run(&plan, &catalog).unwrap().len(),
            7,
            "second execution must not serve the first execution's cache"
        );
    }

    #[test]
    fn with_new_inputs_gets_a_fresh_cache() {
        // Plan with rewrites off so the warm-up run fills the cache of THIS
        // node (the default rewrite pass would rebuild it and warm a clone).
        let planner = Planner::new(crate::plan::PlannerConfig {
            enable_rewrites: false,
            ..Default::default()
        });
        let shared = SpoolNode::shared(LogicalPlan::inline_scan(rel()));
        // Warm the original node's cache in one execution state: build an
        // executor and pull once (the first pull materializes into the
        // registry).
        let physical = planner.plan(&shared, &Catalog::new()).unwrap();
        let state = ExecutionState::default();
        let mut exec = physical.execute(&state).unwrap();
        assert!(exec.next_batch(&state).unwrap().is_some());
        // Rebuild with a different input: must not serve the warm cache.
        let LogicalPlan::Extension { node } = &shared else {
            panic!("spool is an extension")
        };
        let filtered = LogicalPlan::inline_scan(rel()).filter(col(0).lt(lit(2i64)));
        let rebuilt = LogicalPlan::extension(node.with_new_inputs(vec![filtered]));
        let out = planner.run(&rebuilt, &Catalog::new()).unwrap();
        assert_eq!(out.len(), 2);
    }
}
