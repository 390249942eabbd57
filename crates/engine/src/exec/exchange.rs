//! Exchange: gather partitioned subtrees with a worker pool.
//!
//! The morsel-driven entry point of the parallel executor: the planner
//! splits a scan pipeline into contiguous-range partitions (morsels), and
//! this node hands them to `state.threads()` workers, each worker claiming
//! the next unprocessed partition from a shared atomic counter
//! ([`crate::exec::workers::par_run`]). Partition outputs are reassembled
//! **in partition order**, so the gather is deterministic and byte-equal to
//! running the partitions serially — which is itself row-equal to the
//! unpartitioned pipeline, because partitions are contiguous input ranges
//! of order-preserving operators (scan / filter / project).

use std::sync::Mutex;

use crate::batch::RowBatch;
use crate::error::EngineResult;
use crate::exec::workers::par_run;
use crate::exec::{drain, BoxedExec, ExecNode, ExecutionState};
use crate::schema::Schema;

/// Materializing gather over partitioned subtrees (see module docs).
pub struct ExchangeExec {
    schema: Schema,
    parts: Vec<BoxedExec>,
    /// Gathered output batches, filled on first pull.
    out: Option<std::vec::IntoIter<RowBatch>>,
}

impl ExchangeExec {
    pub fn new(schema: Schema, parts: Vec<BoxedExec>) -> Self {
        ExchangeExec {
            schema,
            parts,
            out: None,
        }
    }

    /// Drain every partition on the worker pool; keep the batches in
    /// partition order.
    fn gather(&mut self, state: &ExecutionState) -> EngineResult<()> {
        let parts: Vec<Mutex<BoxedExec>> = self.parts.drain(..).map(Mutex::new).collect();
        let outs = par_run(state.threads(), parts.len(), |i| {
            state.check_cancelled()?;
            state.note_partitions(1);
            let mut node = parts[i].lock().expect("partition claimed once");
            drain(node.as_mut(), state)
        })?;
        self.out = Some(outs.into_iter().flatten().collect::<Vec<_>>().into_iter());
        Ok(())
    }
}

impl ExecNode for ExchangeExec {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next_batch(&mut self, state: &ExecutionState) -> EngineResult<Option<RowBatch>> {
        if self.out.is_none() {
            self.gather(state)?;
        }
        let it = self.out.as_mut().expect("gathered");
        Ok(it.next().map(|b| b.with_schema(self.schema.clone())))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::test_util::int_rel;
    use crate::exec::{collect, SeqScanExec};
    use crate::plan::PlannerConfig;

    fn four_thread_state() -> ExecutionState {
        ExecutionState::new(PlannerConfig {
            threads: 4,
            parallel_min_rows: 1,
            ..Default::default()
        })
    }

    #[test]
    fn gathers_partitions_in_order() {
        let vals: Vec<i64> = (0..1000).collect();
        let rel = int_rel("a", &vals).into_shared();
        let parts: Vec<BoxedExec> = (0..4)
            .map(|i| {
                Box::new(SeqScanExec::with_range(rel.clone(), i * 250, (i + 1) * 250)) as BoxedExec
            })
            .collect();
        let exchange = ExchangeExec::new(rel.schema().clone(), parts);
        let out = collect(Box::new(exchange), &four_thread_state()).unwrap();
        assert_eq!(out.len(), 1000);
        for (i, r) in out.rows().iter().enumerate() {
            assert_eq!(r[0].as_int().unwrap(), i as i64);
        }
    }

    #[test]
    fn empty_partitions_gather_empty() {
        let rel = int_rel("a", &[]).into_shared();
        let parts: Vec<BoxedExec> = vec![Box::new(SeqScanExec::new(rel.clone()))];
        let mut ex = ExchangeExec::new(rel.schema().clone(), parts);
        let state = four_thread_state();
        assert!(ex.next_batch(&state).unwrap().is_none());
    }
}
