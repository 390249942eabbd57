//! Shared plumbing for partitioned (morsel-parallel) temporal sweeps.
//!
//! The plane sweeps ([`AdjustmentExec`](crate::primitives::adjustment) and
//! [`AbsorbExec`](crate::primitives::absorb)) run over input sorted so that
//! value-equivalent tuples are adjacent. All of their carried state is
//! per *data-run* (a maximal run of rows agreeing on the data columns):
//! absorb resets its group state whenever the data columns change, and the
//! aligner's duplicate-suppression row embeds the data values, so it can
//! never match across a data change. Cutting the sorted input only at
//! data-run boundaries therefore yields partitions whose independent,
//! serial sweeps — concatenated in partition order — are row-for-row
//! identical to one serial sweep of the whole input. Groups that would
//! straddle a naive equal-size cut are pushed whole into the earlier
//! partition by snapping each cut forward to the next data change.

use temporal_engine::batch::RowBatch;
use temporal_engine::exec::workers::split_ranges;

/// Cut `0..rows.len()` into at most `parts` contiguous ranges whose inner
/// boundaries coincide with a change in the first `data_width` columns.
/// Every data-run (and hence every sweep group) lands whole in exactly one
/// range; ranges are never empty. Skewed inputs may yield fewer than
/// `parts` ranges (a single giant run yields one).
pub(crate) fn data_partition_ranges(
    rows: &RowBatch,
    data_width: usize,
    parts: usize,
) -> Vec<(usize, usize)> {
    let n = rows.len();
    if n == 0 {
        return Vec::new();
    }
    let mut cuts: Vec<usize> = vec![0];
    for (_, target) in split_ranges(n, parts) {
        if target >= n {
            break;
        }
        // Snap the cut forward to the next data change so no run straddles.
        let mut t = target;
        while t < n && rows.rows_eq(t, rows, t - 1, 0..data_width) {
            t += 1;
        }
        if t < n && t > *cuts.last().expect("non-empty") {
            cuts.push(t);
        }
    }
    cuts.push(n);
    cuts.windows(2).map(|w| (w[0], w[1])).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use temporal_engine::prelude::{Column, DataType, Row, Schema};
    use temporal_engine::value::Value;

    fn row(d: i64, t: i64) -> Row {
        Row::new(vec![Value::Int(d), Value::Int(t)])
    }

    fn batch(rows: &[Row]) -> RowBatch {
        let schema = Schema::new(vec![
            Column::new("d", DataType::Int),
            Column::new("t", DataType::Int),
        ]);
        RowBatch::from_rows(schema, rows)
    }

    #[test]
    fn cuts_only_at_data_changes_and_covers_input() {
        // Runs: 0×5, 1×1, 2×7, 3×2 — 15 rows, data in column 0.
        let mut rows = Vec::new();
        for (d, c) in [(0, 5), (1, 1), (2, 7), (3, 2)] {
            for t in 0..c {
                rows.push(row(d, t));
            }
        }
        for parts in 1..=6 {
            let ranges = data_partition_ranges(&batch(&rows), 1, parts);
            assert_eq!(ranges.first().unwrap().0, 0);
            assert_eq!(ranges.last().unwrap().1, rows.len());
            for w in ranges.windows(2) {
                assert_eq!(w[0].1, w[1].0, "contiguous");
            }
            for &(a, b) in &ranges {
                assert!(a < b, "non-empty");
                if a > 0 {
                    assert_ne!(
                        rows[a].values()[..1],
                        rows[a - 1].values()[..1],
                        "cut at {a} must sit on a data change"
                    );
                }
            }
        }
    }

    #[test]
    fn one_giant_run_yields_one_partition() {
        let rows: Vec<Row> = (0..20).map(|t| row(7, t)).collect();
        assert_eq!(data_partition_ranges(&batch(&rows), 1, 4), vec![(0, 20)]);
    }

    #[test]
    fn empty_input_yields_no_partitions() {
        assert!(data_partition_ranges(&batch(&[]), 1, 4).is_empty());
    }
}
