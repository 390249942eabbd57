//! LIMIT: stop after `n` rows.

use crate::batch::RowBatch;
use crate::error::EngineResult;
use crate::exec::{BoxedExec, ExecNode, ExecutionState};
use crate::schema::Schema;

/// Emits at most `n` input rows.
pub struct LimitExec {
    input: BoxedExec,
    remaining: usize,
}

impl LimitExec {
    pub fn new(input: BoxedExec, n: usize) -> Self {
        LimitExec {
            input,
            remaining: n,
        }
    }
}

impl ExecNode for LimitExec {
    fn schema(&self) -> &Schema {
        self.input.schema()
    }

    /// Stops pulling its input with the batch that fills the limit.
    fn next_batch(&mut self, state: &ExecutionState) -> EngineResult<Option<RowBatch>> {
        if self.remaining == 0 {
            return Ok(None);
        }
        match self.input.next_batch(state)? {
            Some(batch) => {
                let n = batch.len().min(self.remaining);
                self.remaining -= n;
                Ok(Some(batch.slice(0..n)))
            }
            None => {
                self.remaining = 0;
                Ok(None)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::BATCH_SIZE;
    use crate::exec::test_util::int_rel;
    use crate::exec::SeqScanExec;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    /// Passes its input through, counting the pulls it receives.
    struct CountingExec {
        input: BoxedExec,
        pulls: Arc<AtomicUsize>,
    }

    impl ExecNode for CountingExec {
        fn schema(&self) -> &Schema {
            self.input.schema()
        }

        fn next_batch(&mut self, state: &ExecutionState) -> EngineResult<Option<RowBatch>> {
            self.pulls.fetch_add(1, Ordering::Relaxed);
            self.input.next_batch(state)
        }
    }

    /// `LIMIT n` over `0..rows`: the batch sizes it emitted and how many
    /// times it pulled its input.
    fn run(rows: usize, n: usize) -> (Vec<usize>, usize) {
        let vals: Vec<i64> = (0..rows as i64).collect();
        let pulls = Arc::new(AtomicUsize::new(0));
        let source = CountingExec {
            input: Box::new(SeqScanExec::new(int_rel("a", &vals).into_shared())),
            pulls: pulls.clone(),
        };
        let mut limit = LimitExec::new(Box::new(source), n);
        let state = ExecutionState::default();
        let mut sizes = Vec::new();
        let mut next = 0i64;
        while let Some(batch) = limit.next_batch(&state).unwrap() {
            for row in batch.to_rows() {
                assert_eq!(row[0].as_int(), Some(next), "a prefix, in input order");
                next += 1;
            }
            sizes.push(batch.len());
        }
        assert!(limit.next_batch(&state).unwrap().is_none(), "stays done");
        (sizes, pulls.load(Ordering::Relaxed))
    }

    #[test]
    fn limit_zero_emits_nothing_and_never_pulls() {
        assert_eq!(run(3 * BATCH_SIZE, 0), (vec![], 0));
    }

    #[test]
    fn limit_inside_the_first_batch() {
        assert_eq!(run(3 * BATCH_SIZE, 7), (vec![7], 1));
    }

    #[test]
    fn limit_of_exactly_one_batch_stops_after_it() {
        assert_eq!(run(3 * BATCH_SIZE, BATCH_SIZE), (vec![BATCH_SIZE], 1));
    }

    #[test]
    fn limit_ending_mid_second_batch() {
        let (sizes, pulls) = run(3 * BATCH_SIZE, BATCH_SIZE + 10);
        assert_eq!(sizes, vec![BATCH_SIZE, 10]);
        assert_eq!(pulls, 2, "no pull after the batch that fills the limit");
    }

    #[test]
    fn limit_larger_than_the_input() {
        // Two batches of rows, then the pull that finds the input exhausted.
        let (sizes, pulls) = run(BATCH_SIZE + 5, 10 * BATCH_SIZE);
        assert_eq!(sizes, vec![BATCH_SIZE, 5]);
        assert_eq!(pulls, 3);
        assert_eq!(run(0, 5), (vec![], 1));
    }
}
