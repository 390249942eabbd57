//! Sequential scan over a materialized relation.

use std::sync::Arc;

use crate::batch::RowBatch;
use crate::error::EngineResult;
use crate::exec::{ExecNode, ExecutionState};
use crate::relation::Relation;
use crate::schema::Schema;

/// Scans an `Arc<Relation>`; its column batches pass on without a copy.
pub struct SeqScanExec {
    rel: Arc<Relation>,
    pos: usize,
}

impl SeqScanExec {
    pub fn new(rel: Arc<Relation>) -> Self {
        SeqScanExec { rel, pos: 0 }
    }
}

impl ExecNode for SeqScanExec {
    fn schema(&self) -> &Schema {
        self.rel.schema()
    }

    /// The next chunk of the backing relation's batches: a whole stored
    /// batch passes on as `Arc` clones of its columns.
    fn next_batch(&mut self, _state: &ExecutionState) -> EngineResult<Option<RowBatch>> {
        let batch = self.rel.batch_at(self.pos, self.rel.schema());
        if let Some(b) = &batch {
            self.pos += b.len();
        }
        Ok(batch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::test_util::int_rel;
    use crate::exec::{collect, BoxedExec};

    #[test]
    fn scans_all_rows_in_order() {
        let rel = int_rel("a", &[3, 1, 2]).into_shared();
        let scan: BoxedExec = Box::new(SeqScanExec::new(rel.clone()));
        let out = collect(scan, &ExecutionState::default()).unwrap();
        assert_eq!(out.rows(), rel.rows());
    }

    #[test]
    fn empty_scan() {
        let rel = int_rel("a", &[]).into_shared();
        let mut scan = SeqScanExec::new(rel);
        let state = ExecutionState::default();
        assert!(scan.next_batch(&state).unwrap().is_none());
        assert!(scan.next_batch(&state).unwrap().is_none());
    }
}
