//! Sort: materialize the input and emit in key order.
//!
//! The temporal adjustment pipeline (paper Figs. 8/9) sorts the
//! group-construction join output by (group identity, intersection
//! timestamps); this node provides that ordering.

use std::cmp::Ordering;

use crate::batch::RowBatch;
use crate::error::EngineResult;
use crate::exec::{collect_rows, next_chunk, BoxedExec, ExecNode, ExecutionState};
use crate::expr::{Expr, SortKey};
use crate::schema::Schema;
use crate::tuple::Row;
use crate::value::Value;

/// Compare two evaluated key vectors under the given sort keys.
fn cmp_keys(keys: &[SortKey], a: &[Value], b: &[Value]) -> Ordering {
    for (i, k) in keys.iter().enumerate() {
        let (va, vb) = (&a[i], &b[i]);
        let ord = match (va.is_null(), vb.is_null()) {
            (true, true) => Ordering::Equal,
            (true, false) => {
                if k.nulls_first {
                    Ordering::Less
                } else {
                    Ordering::Greater
                }
            }
            (false, true) => {
                if k.nulls_first {
                    Ordering::Greater
                } else {
                    Ordering::Less
                }
            }
            (false, false) => {
                let o = va.cmp(vb);
                if k.desc {
                    o.reverse()
                } else {
                    o
                }
            }
        };
        if ord != Ordering::Equal {
            return ord;
        }
    }
    Ordering::Equal
}

/// One sort key's values over a row vector: a column reference is read in
/// place, anything computed is evaluated once, vectorized.
enum KeyCol {
    Ref(usize),
    Vals(Vec<Value>),
}

impl KeyCol {
    fn all(keys: &[SortKey], rows: &[Row]) -> EngineResult<Vec<KeyCol>> {
        let width = rows.iter().map(Row::len).min().unwrap_or(0);
        keys.iter()
            .map(|k| match &k.expr {
                Expr::Col(i) if *i < width => Ok(KeyCol::Ref(*i)),
                // (An out-of-range reference gets the evaluator's error.)
                e => e.eval_batch(rows).map(KeyCol::Vals),
            })
            .collect()
    }

    #[inline]
    fn get<'a>(&'a self, rows: &'a [Row], ri: usize) -> &'a Value {
        match self {
            KeyCol::Ref(c) => &rows[ri][*c],
            KeyCol::Vals(vals) => &vals[ri],
        }
    }
}

/// The key values of every row, cloned out for the general comparator.
fn key_values(key_cols: &[KeyCol], rows: &[Row]) -> Vec<Vec<Value>> {
    (0..rows.len())
        .map(|ri| key_cols.iter().map(|c| c.get(rows, ri).clone()).collect())
        .collect()
}

/// Sort a row vector in place by `keys`, NULLs placed per key before the
/// direction applies and ties broken by the full-row order. Column keys
/// are read straight from the rows, each computed key expression is
/// evaluated once over the whole row vector, and
/// all-integer key sets (every temporal sort: data ids, timestamps, split
/// points) are order-encoded into flat `i64` vectors so the comparator is
/// a machine-word slice compare instead of a `Value` tree walk. Same order
/// as the general comparator in every case: the encoding is an
/// order-isomorphism on the admitted values, with equal encodings ⇔ equal
/// keys, so ties fall to the identical full-row comparator.
pub fn sort_rows_batched(rows: &mut Vec<Row>, keys: &[SortKey]) -> EngineResult<()> {
    let key_cols = KeyCol::all(keys, rows)?;
    if let Some(enc) = encode_int_keys(&key_cols, rows, keys) {
        let k = keys.len();
        let mut decorated: Vec<(usize, Row)> = rows.drain(..).enumerate().collect();
        decorated.sort_by(|(ia, ra), (ib, rb)| {
            enc[ia * k..ia * k + k]
                .cmp(&enc[ib * k..ib * k + k])
                .then_with(|| ra.cmp(rb))
        });
        rows.extend(decorated.into_iter().map(|(_, r)| r));
        return Ok(());
    }
    let kvs = key_values(&key_cols, rows);
    let mut decorated: Vec<(Vec<Value>, Row)> = kvs.into_iter().zip(rows.drain(..)).collect();
    decorated.sort_by(|(ka, ra), (kb, rb)| cmp_keys(keys, ka, kb).then_with(|| ra.cmp(rb)));
    rows.extend(decorated.into_iter().map(|(_, r)| r));
    Ok(())
}

/// Encode the key values of `rows` as flat `i64`s (row-major, stride =
/// `keys.len()`) such that ascending lexicographic order of the encodings
/// equals [`cmp_keys`] order, and equal encodings imply equal key values.
/// NULLs map to the `i64::MIN`/`i64::MAX` sentinels per their position
/// (nulls-first/last) and descending keys negate. Returns `None` — falling
/// back to the general comparator — when any value is not Int/NULL or lies
/// at the extremes, where sentinel/negation collisions would break the
/// isomorphism.
fn encode_int_keys(key_cols: &[KeyCol], rows: &[Row], keys: &[SortKey]) -> Option<Vec<i64>> {
    let mut enc = vec![0i64; rows.len() * keys.len()];
    for (ki, (col, key)) in key_cols.iter().zip(keys).enumerate() {
        for ri in 0..rows.len() {
            enc[ri * keys.len() + ki] = match col.get(rows, ri) {
                Value::Null => {
                    // NULLS FIRST sorts below everything, NULLS LAST above
                    // — in encoding space, regardless of `desc` (cmp_keys
                    // places NULLs before applying the direction).
                    if key.nulls_first {
                        i64::MIN
                    } else {
                        i64::MAX
                    }
                }
                Value::Int(x) if *x > i64::MIN + 1 && *x < i64::MAX - 1 => {
                    if key.desc {
                        -x
                    } else {
                        *x
                    }
                }
                _ => return None,
            };
        }
    }
    Some(enc)
}

/// Parallel sort: evaluate key columns over contiguous chunks on workers,
/// sort per-chunk index runs in parallel, then k-way merge the runs.
///
/// The comparator is shared with the serial paths and is a **total
/// order** — key comparison falls through to the full-row comparator on
/// ties — so the merged output is row-identical to [`sort_rows_batched`]
/// regardless of how the input was chunked.
pub fn sort_rows_parallel(
    rows: &mut Vec<Row>,
    keys: &[SortKey],
    threads: usize,
) -> EngineResult<()> {
    use crate::exec::workers::{par_run, split_ranges};
    use std::sync::Mutex;
    let n = rows.len();
    let ranges = split_ranges(n, threads);
    if ranges.len() <= 1 {
        return sort_rows_batched(rows, keys);
    }
    let k = keys.len();
    // Phase 1: evaluate key columns per chunk, on workers.
    let chunk_cols = par_run(threads, ranges.len(), |i| {
        let (a, b) = ranges[i];
        KeyCol::all(keys, &rows[a..b])
    })?;
    // The fast path / fallback decision must be global: all chunks encode,
    // or all use the general comparator (per-chunk choices could disagree).
    let chunk_encs: Option<Vec<Vec<i64>>> = if k <= ENC_WIDTH {
        chunk_cols
            .iter()
            .zip(&ranges)
            .map(|(cols, &(a, b))| encode_int_keys(cols, &rows[a..b], keys))
            .collect()
    } else {
        None
    };
    // Move the rows out into their chunks so workers can own them.
    let mut drained = std::mem::take(rows).into_iter();
    let chunk_rows: Vec<Mutex<Option<Vec<Row>>>> = ranges
        .iter()
        .map(|&(a, b)| Mutex::new(Some(drained.by_ref().take(b - a).collect())))
        .collect();

    // Phase 2: each worker sorts its chunk locally — decorated, contiguous,
    // rows moved not cloned — producing a sorted run (keys + rows aligned).
    // Phase 3 merges the runs' heads; the comparator is a total order (key
    // order, full-row tiebreak), so the result is row-identical to the
    // serial sort however the input was chunked.
    match chunk_encs {
        Some(encs) => {
            let enc_slots: Vec<Mutex<Option<Vec<i64>>>> =
                encs.into_iter().map(|e| Mutex::new(Some(e))).collect();
            let runs = par_run(threads, ranges.len(), |i| {
                let chunk = chunk_rows[i]
                    .lock()
                    .expect("chunk lock")
                    .take()
                    .expect("chunk claimed once");
                let enc = enc_slots[i]
                    .lock()
                    .expect("enc lock")
                    .take()
                    .expect("enc claimed once");
                // Pad the per-row encoding to a fixed, `Copy` width; the
                // padding is equal on every row so it never affects order.
                let mut decorated: Vec<([i64; ENC_WIDTH], Row)> = chunk
                    .into_iter()
                    .enumerate()
                    .map(|(j, row)| {
                        let mut a = [0i64; ENC_WIDTH];
                        a[..k].copy_from_slice(&enc[j * k..j * k + k]);
                        (a, row)
                    })
                    .collect();
                decorated
                    .sort_unstable_by(|(ea, ra), (eb, rb)| ea.cmp(eb).then_with(|| ra.cmp(rb)));
                Ok(decorated)
            })?;
            merge_runs(rows, runs, |a, b| a.cmp(b));
        }
        None => {
            let runs = par_run(threads, ranges.len(), |i| {
                let chunk = chunk_rows[i]
                    .lock()
                    .expect("chunk lock")
                    .take()
                    .expect("chunk claimed once");
                let kvs = key_values(&chunk_cols[i], &chunk);
                let mut decorated: Vec<(Vec<Value>, Row)> = kvs.into_iter().zip(chunk).collect();
                decorated.sort_unstable_by(|(ka, ra), (kb, rb)| {
                    cmp_keys(keys, ka, kb).then_with(|| ra.cmp(rb))
                });
                Ok(decorated)
            })?;
            merge_runs(rows, runs, |a, b| cmp_keys(keys, a, b));
        }
    }
    Ok(())
}

/// Fixed per-row width of the `Copy` integer key encoding in the parallel
/// sort (real key counts are 1–4; wider key sets take the general path).
const ENC_WIDTH: usize = 6;

/// K-way merge of sorted decorated runs into `out`, draining the runs by
/// move. Key order with full-row tiebreak is a total order, so the merge
/// is deterministic.
fn merge_runs<K>(
    out: &mut Vec<Row>,
    runs: Vec<Vec<(K, Row)>>,
    key_cmp: impl Fn(&K, &K) -> Ordering,
) {
    let total: usize = runs.iter().map(Vec::len).sum();
    out.reserve(total);
    let mut iters: Vec<std::vec::IntoIter<(K, Row)>> =
        runs.into_iter().map(Vec::into_iter).collect();
    let mut heads: Vec<Option<(K, Row)>> = iters.iter_mut().map(Iterator::next).collect();
    loop {
        let mut best: Option<usize> = None;
        for (c, head) in heads.iter().enumerate() {
            if let Some((ck, cr)) = head {
                best = match best {
                    Some(b) => {
                        let (bk, br) = heads[b].as_ref().expect("best head present");
                        if key_cmp(ck, bk).then_with(|| cr.cmp(br)) == Ordering::Less {
                            Some(c)
                        } else {
                            Some(b)
                        }
                    }
                    None => Some(c),
                };
            }
        }
        let Some(c) = best else { break };
        let (_, row) = heads[c].take().expect("selected head present");
        heads[c] = iters[c].next();
        out.push(row);
    }
}

/// Materializing sort node.
pub struct SortExec {
    input: BoxedExec,
    keys: Vec<SortKey>,
    sorted: Option<std::vec::IntoIter<Row>>,
}

impl SortExec {
    pub fn new(input: BoxedExec, keys: Vec<SortKey>) -> Self {
        SortExec {
            input,
            keys,
            sorted: None,
        }
    }
}

impl ExecNode for SortExec {
    fn schema(&self) -> &Schema {
        self.input.schema()
    }

    /// Materialize the input, sort with vectorized key decoration, then
    /// drain a chunk per call.
    fn next_batch(&mut self, state: &ExecutionState) -> EngineResult<Option<RowBatch>> {
        if self.sorted.is_none() {
            let mut rows = collect_rows(self.input.as_mut(), state)?;
            if state.parallel(rows.len()) {
                sort_rows_parallel(&mut rows, &self.keys, state.threads())?;
            } else {
                sort_rows_batched(&mut rows, &self.keys)?;
            }
            self.sorted = Some(rows.into_iter());
        }
        let it = self.sorted.as_mut().expect("initialized");
        Ok(next_chunk(it, self.input.schema()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::test_util::int2_rel;
    use crate::exec::{collect, ExecutionState, SeqScanExec};
    use crate::expr::col;
    use crate::relation::Relation;
    use crate::schema::{Column, DataType};

    /// Sort a row vector in place by `keys` (decorate–sort–undecorate): the
    /// plain comparator sort that specifies the order [`sort_rows_batched`]
    /// must reproduce, kept as its test oracle.
    fn sort_rows(rows: &mut Vec<Row>, keys: &[SortKey]) -> EngineResult<()> {
        let mut decorated: Vec<(Vec<Value>, Row)> = Vec::with_capacity(rows.len());
        for row in rows.drain(..) {
            let mut kv = Vec::with_capacity(keys.len());
            for k in keys {
                kv.push(k.expr.eval(row.values())?);
            }
            decorated.push((kv, row));
        }
        decorated.sort_by(|(ka, ra), (kb, rb)| cmp_keys(keys, ka, kb).then_with(|| ra.cmp(rb)));
        rows.extend(decorated.into_iter().map(|(_, r)| r));
        Ok(())
    }

    #[test]
    fn multi_key_sort_asc_desc() {
        let rel = int2_rel(("a", "b"), &[(2, 1), (1, 2), (1, 9), (2, 5)]).into_shared();
        let scan = Box::new(SeqScanExec::new(rel));
        let sort = Box::new(SortExec::new(
            scan,
            vec![SortKey::asc(col(0)), SortKey::desc(col(1))],
        ));
        let out = collect(sort, &ExecutionState::default()).unwrap();
        let vals: Vec<(i64, i64)> = out
            .rows()
            .iter()
            .map(|r| (r[0].as_int().unwrap(), r[1].as_int().unwrap()))
            .collect();
        assert_eq!(vals, vec![(1, 9), (1, 2), (2, 5), (2, 1)]);
    }

    #[test]
    fn nulls_ordering() {
        let rel = Relation::from_values(
            Schema::new(vec![Column::new("a", DataType::Int)]),
            vec![vec![Value::Int(2)], vec![Value::Null], vec![Value::Int(1)]],
        )
        .unwrap()
        .into_shared();
        let scan = Box::new(SeqScanExec::new(rel.clone()));
        let sort = Box::new(SortExec::new(scan, vec![SortKey::asc(col(0))]));
        let out = collect(sort, &ExecutionState::default()).unwrap();
        assert!(out.rows()[0][0].is_null());
        // NULLS LAST on desc by default:
        let scan = Box::new(SeqScanExec::new(rel));
        let sort = Box::new(SortExec::new(scan, vec![SortKey::desc(col(0))]));
        let out = collect(sort, &ExecutionState::default()).unwrap();
        assert!(out.rows()[2][0].is_null());
        assert_eq!(out.rows()[0][0], Value::Int(2));
    }

    #[test]
    fn parallel_sort_is_row_identical_to_serial() {
        // Mixed data: duplicate keys, duplicate full rows, NULLs (breaking
        // the int fast path), and enough rows for several chunks.
        let mut rows: Vec<Row> = (0..997)
            .map(|i: i64| {
                let a = if i % 97 == 0 {
                    Value::Null
                } else {
                    Value::Int(i % 13)
                };
                Row::new(vec![a, Value::Int(i % 7)])
            })
            .collect();
        rows.extend(rows.clone()); // duplicate full rows
        let keys = vec![SortKey::asc(col(0)), SortKey::desc(col(1))];
        let mut serial = rows.clone();
        sort_rows_batched(&mut serial, &keys).unwrap();
        for threads in [2, 3, 4, 8] {
            let mut par = rows.clone();
            sort_rows_parallel(&mut par, &keys, threads).unwrap();
            assert_eq!(par, serial, "threads={threads}");
        }
        // All-int keys (fast path) too.
        let int_rows: Vec<Row> = (0..1000)
            .map(|i: i64| Row::new(vec![Value::Int(i % 13), Value::Int(999 - i)]))
            .collect();
        let mut serial = int_rows.clone();
        sort_rows_batched(&mut serial, &keys).unwrap();
        let mut par = int_rows.clone();
        sort_rows_parallel(&mut par, &keys, 4).unwrap();
        assert_eq!(par, serial);
    }

    #[test]
    fn batched_sort_matches_the_plain_comparator_sort() {
        // Mixed key types (no integer fast path), NULLs, key ties and
        // duplicate full rows, under every direction / NULL placement.
        let mixed: Vec<Row> = (0..300)
            .map(|i: i64| {
                let a = match i % 5 {
                    0 => Value::Null,
                    1 => Value::Double((i % 7) as f64 / 2.0),
                    2 => Value::str(format!("s{}", i % 3)),
                    _ => Value::Int(i % 4),
                };
                let b = if i % 11 == 0 {
                    Value::Null
                } else {
                    Value::Int(i % 6)
                };
                Row::new(vec![a, b, Value::Int(i % 2)])
            })
            .collect();
        // All Int/NULL keys: the order-encoded fast path.
        let ints: Vec<Row> = mixed
            .iter()
            .map(|r| Row::new(vec![r[1].clone(), r[2].clone(), r[1].clone()]))
            .collect();
        let key_sets = [
            vec![SortKey::asc(col(0)), SortKey::desc(col(1))],
            vec![SortKey::desc(col(0)), SortKey::asc(col(1))],
            vec![SortKey::desc(col(1))],
            vec![SortKey::asc(col(1).add(col(2))), SortKey::desc(col(0))],
            vec![SortKey {
                nulls_first: false,
                ..SortKey::asc(col(0))
            }],
            vec![SortKey {
                nulls_first: true,
                ..SortKey::desc(col(1))
            }],
        ];
        for rows in [&mixed, &ints] {
            for keys in &key_sets {
                let mut spec = rows.clone();
                sort_rows(&mut spec, keys).unwrap();
                let mut got = rows.clone();
                sort_rows_batched(&mut got, keys).unwrap();
                assert_eq!(got, spec, "keys={keys:?}");
            }
        }
    }

    #[test]
    fn sort_is_deterministic_via_row_tiebreak() {
        let rel = int2_rel(("a", "b"), &[(1, 5), (1, 3), (1, 4)]).into_shared();
        let scan = Box::new(SeqScanExec::new(rel));
        // Sorting only by column a — ties broken by full row order.
        let sort = Box::new(SortExec::new(scan, vec![SortKey::asc(col(0))]));
        let out = collect(sort, &ExecutionState::default()).unwrap();
        let b: Vec<i64> = out.rows().iter().map(|r| r[1].as_int().unwrap()).collect();
        assert_eq!(b, vec![3, 4, 5]);
    }
}
