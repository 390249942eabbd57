//! Shared materialization (spool) for plans that reference one subtree
//! from several places.
//!
//! The reduction rules of the paper are *self-referencing*: a reduced
//! θ-join aligns `r` against `s` **and** `s` against `r`, and a reduced
//! group-based operator normalizes its input against itself, so composing
//! whole temporal queries into a single plan duplicates the operand
//! subtree. Duplicated *base* scans are free (they share the relation),
//! but a duplicated composed subtree would re-execute. [`SpoolNode`] is
//! the engine's equivalent of PostgreSQL's shared CTE scan: every clone of
//! the wrapped plan shares one result cache, so the subtree runs exactly
//! once per query execution no matter how many times the reduction rules
//! mention it.
//!
//! The cache lives in the per-query [`ExecutionState`] spool registry,
//! keyed by the spool node's identity — not in the plan. A plan therefore
//! carries no execution state at all: re-running it under a fresh state
//! observes current table contents, and two concurrent executions of the
//! same plan cannot step on each other's cache.

use std::sync::Arc;

use crate::batch::RowBatch;
use crate::error::EngineResult;
use crate::exec::{collect, BoxedExec, ExecNode, ExecutionState};
use crate::plan::cost::{CostModel, PlanStats};
use crate::plan::logical::{ExtensionNode, LogicalPlan};
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

    /// Registry key: the node's address. Occurrences of the same spool
    /// share the node (behind one `Arc`), so they build executors with the
    /// same key; a rebuilt node ([`ExtensionNode::with_new_inputs`]) is a
    /// new allocation and therefore a new key.
    fn cache_key(&self) -> usize {
        self as *const SpoolNode as usize
    }
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

    fn build_exec(&self, mut children: Vec<BoxedExec>) -> EngineResult<BoxedExec> {
        Ok(Box::new(SpoolExec {
            child: Some(children.remove(0)),
            schema: self.schema.clone(),
            key: self.cache_key(),
            local: None,
            pos: 0,
        }))
    }

    // No passthrough: pushing a filter below a *shared* node would detach
    // this occurrence from the cache (with_new_inputs makes a fresh node,
    // hence a fresh cache key) and silently drop the sharing the spool
    // exists for.

    fn explain(&self) -> String {
        "Spool (shared materialization)".to_string()
    }
}

/// Executor for [`SpoolNode`]: the first stream to pull drains the child
/// into the execution state's spool registry; every stream then serves
/// rows from the shared materialization (resolved once per stream, then
/// read lock-free).
pub struct SpoolExec {
    child: Option<BoxedExec>,
    schema: Schema,
    key: usize,
    /// Local handle to the materialized relation, filled on first pull so
    /// the registry is consulted once per stream, not once per batch.
    local: Option<Arc<Relation>>,
    pos: usize,
}

impl SpoolExec {
    /// Materialize (or attach to) the shared cache in `state`: the first
    /// stream to pull drains the child.
    fn materialized(&mut self, state: &ExecutionState) -> EngineResult<&Relation> {
        if self.local.is_none() {
            let child = &mut self.child;
            let rel = state.spool_get_or_fill(self.key, || {
                let node = child.take().expect("spool child built exactly once");
                collect(node, state)
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
    use std::sync::Mutex;

    /// An exec that counts how many times its source is drained, via a
    /// shared counter.
    struct CountingScan {
        rel: Relation,
        pos: usize,
        drains: Arc<Mutex<usize>>,
    }

    impl ExecNode for CountingScan {
        fn schema(&self) -> &Schema {
            self.rel.schema()
        }
        fn next_batch(&mut self, _state: &ExecutionState) -> EngineResult<Option<RowBatch>> {
            if self.pos == 0 {
                *self.drains.lock().unwrap() += 1;
            }
            let rows = self.rel.rows()[self.pos..].to_vec();
            self.pos += rows.len();
            Ok((!rows.is_empty()).then(|| RowBatch::from_rows(self.rel.schema().clone(), &rows)))
        }
    }

    fn rel() -> Relation {
        Relation::from_values(
            Schema::new(vec![Column::new("a", DataType::Int)]),
            (0..5).map(|i| vec![Value::Int(i)]).collect(),
        )
        .unwrap()
    }

    #[test]
    fn clones_share_one_materialization() {
        let drains = Arc::new(Mutex::new(0usize));
        // Build a spool by hand around a counting child executor.
        let node = SpoolNode {
            input: LogicalPlan::inline_scan(rel()),
            schema: rel().schema().clone(),
        };
        let mk_child = || -> BoxedExec {
            Box::new(CountingScan {
                rel: rel(),
                pos: 0,
                drains: Arc::clone(&drains),
            })
        };
        let state = ExecutionState::default();
        let mut a = node.build_exec(vec![mk_child()]).unwrap();
        let mut b = node.build_exec(vec![mk_child()]).unwrap();
        let mut n = 0;
        while let Some(batch) = a.next_batch(&state).unwrap() {
            n += batch.len();
        }
        while let Some(batch) = b.next_batch(&state).unwrap() {
            n += batch.len();
        }
        assert_eq!(n, 10);
        assert_eq!(*drains.lock().unwrap(), 1, "child must be drained once");
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
