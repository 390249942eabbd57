//! Sort: materialize the input and emit in key order.
//!
//! The temporal adjustment pipeline (paper Figs. 8/9) sorts the
//! group-construction join output by (group identity, intersection
//! timestamps); this node provides that ordering.

use std::cmp::Ordering;
use std::sync::Arc;

use crate::batch::{ColumnVec, RowBatch, BATCH_SIZE};
use crate::error::EngineResult;
use crate::exec::{collect_batch, BoxedExec, ExecNode, ExecutionState};
use crate::expr::SortKey;
use crate::schema::Schema;
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

/// The permutation that sorts `batch` by `keys`, NULLs placed per key
/// before the direction applies and ties broken by the full-row order —
/// gather the batch at it to sort. Each key is one vectorized evaluation
/// (a column reference is the input column itself), and all-integer key
/// sets (every temporal sort: data ids, timestamps, split points) are
/// order-encoded and packed into one `u64`/`u128` per row, sorted inline
/// beside the row index, so the comparator is one integer compare instead
/// of a `Value` tree walk. Same order as the general comparator in every
/// case: encoding and packing are order-isomorphisms on the admitted
/// values, with equal packs ⇔ equal keys, so ties fall to the identical
/// full-row comparator. Key sets that do not pack take the general
/// comparator.
pub fn sort_permutation(batch: &RowBatch, keys: &[SortKey]) -> EngineResult<Vec<u32>> {
    let n = batch.len();
    let key_cols = keys
        .iter()
        .map(|k| k.expr.eval_batch(batch))
        .collect::<EngineResult<Vec<_>>>()?;
    let k = keys.len();
    // The common case: every row's keys pack into one integer, sorted
    // inline beside the row index.
    fn packed<K: Ord + Copy>(keys: Vec<K>, batch: &RowBatch) -> Vec<u32> {
        let mut items: Vec<(K, u32)> = keys.into_iter().zip(0..).collect();
        items.sort_unstable_by(|a, b| {
            a.0.cmp(&b.0)
                .then_with(|| batch.cmp_rows(a.1 as usize, b.1 as usize))
        });
        items.into_iter().map(|(_, i)| i).collect()
    }
    let perm = match encode_int_keys(&key_cols, n, keys).and_then(|enc| pack_keys(&enc, n, k)) {
        Some((p, bits)) if bits <= 64 => packed(p.into_iter().map(|x| x as u64).collect(), batch),
        Some((p, _)) => packed(p, batch),
        None => {
            let kvs: Vec<Vec<Value>> = (0..n)
                .map(|i| key_cols.iter().map(|c| c.value(i)).collect())
                .collect();
            let mut perm: Vec<u32> = (0..n as u32).collect();
            perm.sort_unstable_by(|a, b| {
                let (a, b) = (*a as usize, *b as usize);
                cmp_keys(keys, &kvs[a], &kvs[b]).then_with(|| batch.cmp_rows(a, b))
            });
            perm
        }
    };
    Ok(perm)
}

/// Pack each row's order-encoded keys (see [`encode_int_keys`]) into one
/// `u128`, key by key from the most significant bits down, each key as its
/// offset from the key's smallest value in as many bits as its span needs
/// (the NULL sentinels take the slots below and above the span). Unsigned
/// order of the packed integers is the lexicographic order of the
/// encodings, and equal packs ⇔ equal encodings. `None` when the spans
/// need more than 128 bits; else the packs and the bits they use.
fn pack_keys(enc: &[i64], n: usize, k: usize) -> Option<(Vec<u128>, u32)> {
    let mut fields = Vec::with_capacity(k);
    let mut total = 0u32;
    for ki in 0..k {
        let vals = (0..n)
            .map(|r| enc[r * k + ki])
            .filter(|&v| v != i64::MIN && v != i64::MAX);
        let (lo, hi) = vals.fold((i64::MAX, i64::MIN), |(lo, hi), v| (lo.min(v), hi.max(v)));
        let span = if lo > hi {
            0
        } else {
            (hi as i128 - lo as i128) as u128
        };
        let bits = 128 - (span + 2).leading_zeros();
        total += bits;
        if total > 128 {
            return None;
        }
        fields.push((lo, span, bits));
    }
    let packs = (0..n)
        .map(|r| {
            fields
                .iter()
                .enumerate()
                .fold(0u128, |acc, (ki, &(lo, span, bits))| {
                    let off = match enc[r * k + ki] {
                        i64::MIN => 0,
                        i64::MAX => span + 2,
                        v => (v as i128 - lo as i128) as u128 + 1,
                    };
                    acc.checked_shl(bits).unwrap_or(0) | off
                })
        })
        .collect();
    Some((packs, total))
}

/// Encode the key values of `n` rows as flat `i64`s (row-major, stride =
/// `keys.len()`) such that ascending lexicographic order of the encodings
/// equals [`cmp_keys`] order, and equal encodings imply equal key values.
/// NULLs map to the `i64::MIN`/`i64::MAX` sentinels per their position
/// (nulls-first/last) and descending keys negate. Returns `None` — falling
/// back to the general comparator — when any value is not Int/NULL or lies
/// at the extremes, where sentinel/negation collisions would break the
/// isomorphism.
fn encode_int_keys(key_cols: &[Arc<ColumnVec>], n: usize, keys: &[SortKey]) -> Option<Vec<i64>> {
    let mut enc = vec![0i64; n * keys.len()];
    for (ki, (col, key)) in key_cols.iter().zip(keys).enumerate() {
        for ri in 0..n {
            enc[ri * keys.len() + ki] = match col.int_at(ri) {
                // NULLS FIRST sorts below everything, NULLS LAST above —
                // in encoding space, regardless of `desc` (cmp_keys places
                // NULLs before applying the direction).
                None if col.is_null(ri) => {
                    if key.nulls_first {
                        i64::MIN
                    } else {
                        i64::MAX
                    }
                }
                Some(x) if x > i64::MIN + 1 && x < i64::MAX - 1 => {
                    if key.desc {
                        -x
                    } else {
                        x
                    }
                }
                _ => return None,
            };
        }
    }
    Some(enc)
}

/// Materializing sort node.
pub struct SortExec {
    input: BoxedExec,
    keys: Vec<SortKey>,
    /// The materialized input, its sorted permutation and the emit cursor.
    sorted: Option<(RowBatch, Vec<u32>, usize)>,
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

    /// Materialize the input, compute the sorting permutation, then
    /// gather a chunk of it per call.
    fn next_batch(&mut self, state: &ExecutionState) -> EngineResult<Option<RowBatch>> {
        if self.sorted.is_none() {
            let batch = collect_batch(self.input.as_mut(), state)?;
            let perm = sort_permutation(&batch, &self.keys)?;
            self.sorted = Some((batch, perm, 0));
        }
        let (batch, perm, pos) = self.sorted.as_mut().expect("initialized");
        let start = *pos;
        let end = (start + BATCH_SIZE).min(perm.len());
        *pos = end;
        Ok((start < end).then(|| batch.gather(&perm[start..end])))
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
    use crate::tuple::Row;

    /// `rows` sorted through [`sort_permutation`].
    fn sort_rows_batched(rows: &mut Vec<Row>, keys: &[SortKey]) -> EngineResult<()> {
        let width = rows.first().map_or(0, Row::len);
        let schema = Schema::new(
            (0..width)
                .map(|i| Column::new(format!("c{i}"), DataType::Int))
                .collect(),
        );
        let batch = RowBatch::from_rows(schema, rows);
        let perm = sort_permutation(&batch, keys)?;
        *rows = batch.gather(&perm).to_rows();
        Ok(())
    }

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
