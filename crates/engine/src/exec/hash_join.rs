//! Hash join on equi-key pairs with an optional residual predicate.
//!
//! The reduction rules conjoin `r.T = s.T` to every θ, so reduced temporal
//! joins always expose hashable keys — the mechanism behind the paper's
//! fast Fig. 15d results.
//!
//! **Range-ordered buckets.** The group-construction joins of the
//! adjustment primitives carry, beside their equi keys, a residual that
//! bounds one build-side column by the probe row (`p1 > r.ts ∧ p1 < r.te`
//! for normalization, the overlap test for alignment). When the residual
//! is a conjunction of simple comparisons (a compiled [`JoinPred`]) and names
//! such a column ([`RangeSpec`]), the build keeps every bucket ordered by
//! it — ties by build index — with the column's values in a contiguous
//! `i64` array beside the build indices, and a probe row binary-searches
//! its bounds into a sub-slice of its bucket instead of visiting all of
//! it. *Every* conjunct is still evaluated on the survivors: the bounds
//! select candidates, they never decide a match, so the only observable
//! effect is the order of a bucket's matches. A build side holding a NULL
//! or non-`Int` value in the column is left in build order, and a probe
//! row whose bound is NULL or not an `Int` scans its whole bucket (NULL
//! never compares TRUE and `Int`↔`Double` coerces — the ordered path does
//! not second-guess the comparison).
//!
//! **Keys.** The build side's keys are grouped by the engine's one
//! [`KeyTable`] in join mode: equi-keys match exactly when the replaced
//! `=` conjuncts are TRUE (a NULL never matches; an `Int` matches the
//! `Double` it equals), the hash of each build and probe row is computed
//! once, a column at a time, straight from the typed key columns, and a
//! probe reads the build keys in place — no key is copied into a `Value`.
//! The build numbers each row's group and counting-sorts the rows into
//! contiguous buckets of one `order` array, one bucket per group.
//!
//! Under a parallel [`ExecutionState`] the join partitions both sides:
//! the build rows are sharded by their row hash and each worker groups one
//! shard into a key table of its own (a probe looks up the shard of its
//! hash), and the probe input is split into contiguous morsels probed on
//! workers against the shared read-only table. Matched-flags on the build
//! side are atomic booleans — monotonic false→true marks,
//! order-independent — so even Right/Full joins probe in parallel and the
//! trailing unmatched-scan observes the same flags as a serial probe.
//! Morsel outputs concatenate in input order, keeping the parallel probe
//! row-identical to the serial one.

use std::ops::Range;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use crate::batch::{hash_rows, ColumnVec, KeyEq, KeyTable, RowBatch, NULL_ROW};
use crate::error::EngineResult;
use crate::exec::workers::{par_run, split_ranges};
use crate::exec::{
    collect_batch, join_left_row, next_chunk, BoxedExec, ExecNode, ExecutionState, JoinPairs,
    OperatorStats,
};
use crate::expr::{CmpOp, Expr, JoinPred, PredOperand};
use crate::plan::JoinType;
use crate::schema::Schema;
use crate::value::Value;

enum Phase {
    Probe,
    /// Morsel-parallel probe output, drained a batch at a time.
    Buffered(Option<RowBatch>, usize),
    BuildUnmatched(usize),
    Done,
}

/// What a range conjunct compares the range column with.
#[derive(Debug, Clone, Copy)]
enum BoundOperand {
    ProbeCol(usize),
    Int(i64),
}

/// The build-side column a residual bounds by the probe row, with its
/// bounds normalized to `column <op> operand`, `op ∈ {<, <=, >, >=}`.
#[derive(Debug, Clone)]
pub(crate) struct RangeSpec {
    /// Index into the build row.
    col: usize,
    bounds: Vec<(CmpOp, BoundOperand)>,
}

impl RangeSpec {
    /// The range column of a residual over `probe ++ build` rows, if it
    /// compiled and has one: the first build-side column bounded from both
    /// sides by probe-side columns or integer literals, else the first
    /// bounded from one side. A plan-time property — `EXPLAIN` prints it.
    pub(crate) fn of(
        residual: &JoinPred,
        left_width: usize,
        right_width: usize,
    ) -> Option<RangeSpec> {
        let build_col = |o: &PredOperand| match *o {
            PredOperand::Col(i) if (left_width..left_width + right_width).contains(&i) => {
                Some(i - left_width)
            }
            _ => None,
        };
        let bound = |o: &PredOperand| match *o {
            PredOperand::Col(i) if i < left_width => Some(BoundOperand::ProbeCol(i)),
            PredOperand::Lit(Value::Int(x)) => Some(BoundOperand::Int(x)),
            _ => None,
        };
        let mut found: Vec<(usize, CmpOp, BoundOperand)> = Vec::new();
        for &(op, ref a, ref b) in residual.compiled()?.conjuncts() {
            if matches!(op, CmpOp::Eq | CmpOp::Ne) {
                continue;
            }
            if let (Some(c), Some(v)) = (build_col(a), bound(b)) {
                found.push((c, op, v));
            } else if let (Some(c), Some(v)) = (build_col(b), bound(a)) {
                found.push((c, op.swapped(), v));
            }
        }
        let bounded = |c: usize, lower: bool| {
            found
                .iter()
                .any(|&(fc, op, _)| fc == c && matches!(op, CmpOp::Gt | CmpOp::Ge) == lower)
        };
        let col = found
            .iter()
            .map(|&(c, ..)| c)
            .find(|&c| bounded(c, true) && bounded(c, false))
            .or_else(|| found.first().map(|&(c, ..)| c))?;
        let bounds = found
            .into_iter()
            .filter(|&(c, ..)| c == col)
            .map(|(_, op, v)| (op, v))
            .collect();
        Some(RangeSpec { col, bounds })
    }

    /// The range column's index in the build row.
    pub(crate) fn col(&self) -> usize {
        self.col
    }

    /// The sub-slice of an ordered bucket (`keys` ascending) outside which
    /// row `li` of probe batch `left` fails a bound; the whole slice when
    /// one of the row's bounds is not an integer.
    fn narrow(&self, keys: &[i64], left: &RowBatch, li: usize) -> Range<usize> {
        let (mut lo, mut hi) = (0, keys.len());
        for &(op, operand) in &self.bounds {
            let v = match operand {
                BoundOperand::Int(x) => x,
                BoundOperand::ProbeCol(i) => match left.columns().get(i).and_then(|c| c.int_at(li))
                {
                    Some(x) => x,
                    None => return 0..keys.len(),
                },
            };
            match op {
                CmpOp::Gt => lo = lo.max(keys.partition_point(|&k| k <= v)),
                CmpOp::Ge => lo = lo.max(keys.partition_point(|&k| k < v)),
                CmpOp::Lt => hi = hi.min(keys.partition_point(|&k| k < v)),
                CmpOp::Le => hi = hi.min(keys.partition_point(|&k| k <= v)),
                CmpOp::Eq | CmpOp::Ne => unreachable!("not a range bound"),
            }
        }
        lo.min(hi)..hi
    }
}

/// The build side's hash table, flattened: the build keys' groups (a
/// [`KeyTable`] in join mode) index contiguous ranges of `order`, so a
/// probe cursor is two integers.
#[derive(Default)]
struct BuildTable {
    /// One key table, or one per hash shard of a partitioned build — shard
    /// [`shard_of`]`(hash)` holds the groups of every build row with that
    /// hash and numbers them from `bases[shard]` on. NULL keys never join
    /// and are in no group.
    shards: Vec<KeyTable>,
    bases: Vec<u32>,
    /// Group `g`'s build rows are `order[bounds[g]..bounds[g + 1]]`:
    /// ascending by `(range column, build index)` when range-ordered, else
    /// by build index — either way the same for a serial and a sharded
    /// build.
    bounds: Vec<u32>,
    order: Vec<u32>,
    /// The range column of `order`'s rows, position for position; empty
    /// unless the buckets are range-ordered.
    range_keys: Vec<i64>,
}

/// The shard of a row hash among `shards` (the hash's high half, which the
/// key tables do not index by).
fn shard_of(hash: u64, shards: usize) -> usize {
    (((hash >> 32) * shards as u64) >> 32) as usize
}

impl BuildTable {
    /// Lay out the buckets: counting-sort the build rows by group (`ids`,
    /// the global group of each row), ordering each bucket by
    /// `range_col[index]` when the range column was all integers.
    fn assemble(shards: Vec<KeyTable>, ids: &[u32], range_col: Option<Vec<i64>>) -> BuildTable {
        let (mut bases, mut groups) = (Vec::new(), 0);
        for table in &shards {
            bases.push(groups as u32);
            groups += table.len();
        }
        let mut bounds = vec![0u32; groups + 1];
        for &g in ids.iter().filter(|&&g| g != NULL_ROW) {
            bounds[g as usize + 1] += 1;
        }
        for g in 0..groups {
            bounds[g + 1] += bounds[g];
        }
        let mut fill = bounds.clone();
        let mut order = vec![0u32; bounds[groups] as usize];
        for (i, &g) in ids.iter().enumerate().filter(|&(_, &g)| g != NULL_ROW) {
            order[fill[g as usize] as usize] = i as u32;
            fill[g as usize] += 1;
        }
        let mut range_keys = Vec::new();
        if let Some(c) = range_col {
            for w in bounds.windows(2) {
                order[w[0] as usize..w[1] as usize].sort_unstable_by_key(|&i| (c[i as usize], i));
            }
            range_keys = order.iter().map(|&i| c[i as usize]).collect();
        }
        BuildTable {
            shards,
            bases,
            bounds,
            order,
            range_keys,
        }
    }

    /// The ranges of `order` probe row `li` of `left` has to test, one per
    /// group whose key is SQL-equal to the row's (probe key columns
    /// `probe_keys`, row hash `hash`) — each cut down to the sub-slice
    /// inside the row's bounds when buckets are range-ordered.
    fn candidates(
        &self,
        probe_keys: &[Arc<ColumnVec>],
        hash: u64,
        left: &RowBatch,
        li: usize,
        range: Option<&RangeSpec>,
        out: &mut Vec<Range<usize>>,
    ) {
        let s = shard_of(hash, self.shards.len());
        for g in self.shards[s].matches(probe_keys, li, hash) {
            let g = (self.bases[s] + g) as usize;
            let (start, end) = (self.bounds[g] as usize, self.bounds[g + 1] as usize);
            out.push(match range {
                Some(spec) if !self.range_keys.is_empty() => {
                    let within = spec.narrow(&self.range_keys[start..end], left, li);
                    start + within.start..start + within.end
                }
                _ => start..end,
            });
        }
    }
}

/// Hash join. Builds on the right input, probes with the left.
pub struct HashJoinExec {
    left: BoxedExec,
    right: Option<BoxedExec>,
    /// `(left column, right column)` equality pairs; SQL semantics (NULL
    /// keys never match).
    keys: Vec<(usize, usize)>,
    /// The residual θ over `probe ++ build`, tested on each candidate pair.
    residual: JoinPred,
    /// The build column `residual` bounds by the probe row, if any.
    range: Option<RangeSpec>,
    join_type: JoinType,
    schema: Schema,
    /// `candidates_checked` ledger of this plan node, when instrumented.
    ledger: Option<Arc<OperatorStats>>,

    table: BuildTable,
    /// The whole build side, one batch.
    build: RowBatch,
    build_matched: Vec<AtomicBool>,
    built: bool,
    phase: Phase,
}

impl HashJoinExec {
    pub fn new(
        left: BoxedExec,
        right: BoxedExec,
        keys: Vec<(usize, usize)>,
        residual: Option<Expr>,
        join_type: JoinType,
    ) -> Self {
        let left_width = left.schema().len();
        let right_width = right.schema().len();
        let schema = if join_type.emits_right() {
            left.schema().concat(right.schema())
        } else {
            left.schema().clone()
        };
        let residual = JoinPred::new(residual);
        HashJoinExec {
            left,
            build: RowBatch::empty(right.schema().clone()),
            right: Some(right),
            keys,
            range: RangeSpec::of(&residual, left_width, right_width),
            residual,
            join_type,
            schema,
            ledger: None,
            table: BuildTable::default(),
            build_matched: Vec::new(),
            built: false,
            phase: Phase::Probe,
        }
    }

    /// Count the candidates every probe row scans into `stats`
    /// (`EXPLAIN ANALYZE`'s `candidates=`).
    pub fn with_ledger(mut self, stats: Arc<OperatorStats>) -> Self {
        self.ledger = Some(stats);
        self
    }

    fn build(&mut self, state: &ExecutionState) -> EngineResult<()> {
        if self.built {
            return Ok(());
        }
        let mut right = self.right.take().expect("build called once");
        let build = collect_batch(right.as_mut(), state)?;
        let keys: Vec<Arc<ColumnVec>> = self
            .keys
            .iter()
            .map(|&(_, r)| build.column(r).clone())
            .collect();
        let hashes = hash_rows(&keys, build.len());
        // NULL keys never join, but the row may still surface as unmatched
        // for Right/Full joins.
        let shards = match state.parallel(build.len()) {
            true => state.threads(),
            false => 1,
        };
        let (shards, ids) = Self::group_keys(state, shards, &keys, &hashes)?;
        // The one place buckets are laid out, whichever way the groups were
        // gathered. An all-`Int` range column orders them; one holding a
        // NULL or a Double does not.
        let range_col: Option<Vec<i64>> = self.range.as_ref().and_then(|spec| {
            let c = build.column(spec.col);
            (0..build.len()).map(|i| c.int_at(i)).collect()
        });
        self.table = BuildTable::assemble(shards, &ids, range_col);
        self.build_matched = (0..build.len()).map(|_| AtomicBool::new(false)).collect();
        self.build = build;
        self.built = true;
        Ok(())
    }

    /// Group the build rows into `shards` key tables: table `s` groups, in
    /// ascending order, the rows whose hash falls in shard `s` (on workers
    /// when there are several). Every row with a given hash lands in one
    /// shard in build order, so each key's rows — and the order of the
    /// groups sharing a hash — are those of one serial table. Returns the
    /// tables and each row's group, numbered across shards in shard order.
    fn group_keys(
        state: &ExecutionState,
        shards: usize,
        keys: &[Arc<ColumnVec>],
        hashes: &[u64],
    ) -> EngineResult<(Vec<KeyTable>, Vec<u32>)> {
        let in_shard =
            |s: usize| (0..hashes.len()).filter(move |&i| shard_of(hashes[i], shards) == s);
        let mut tables = par_run(shards, shards, |s| {
            let mut table = KeyTable::new(KeyEq::Join, keys.len());
            let ids = table.insert(keys, hashes, in_shard(s));
            Ok((table, ids))
        })?;
        if shards == 1 {
            let (table, ids) = tables.pop().expect("one shard");
            return Ok((vec![table], ids));
        }
        state.note_partitions(shards);
        let (mut ids, mut base) = (vec![NULL_ROW; hashes.len()], 0);
        for (s, (table, local)) in tables.iter().enumerate() {
            for (i, &g) in in_shard(s).zip(local) {
                if g != NULL_ROW {
                    ids[i] = base + g;
                }
            }
            base += table.len() as u32;
        }
        Ok((tables.into_iter().map(|(table, _)| table).collect(), ids))
    }

    /// The immutable probe context: everything a worker needs to probe a
    /// morsel of left rows against the built table.
    fn probe_side(&self) -> ProbeSide<'_> {
        ProbeSide {
            table: &self.table,
            build: &self.build,
            build_matched: &self.build_matched,
            keys: &self.keys,
            pred: &self.residual,
            range: self.range.as_ref(),
            join_type: self.join_type,
            ledger: self.ledger.as_deref(),
        }
    }
}

/// Shared read-only probe state (see [`HashJoinExec::probe_side`]). All
/// fields are `Sync`; matched-marks go through atomics, so any number of
/// workers can probe disjoint morsels concurrently.
struct ProbeSide<'a> {
    table: &'a BuildTable,
    build: &'a RowBatch,
    build_matched: &'a [AtomicBool],
    keys: &'a [(usize, usize)],
    pred: &'a JoinPred,
    range: Option<&'a RangeSpec>,
    join_type: JoinType,
    ledger: Option<&'a OperatorStats>,
}

impl ProbeSide<'_> {
    fn note_candidates(&self, n: usize) {
        if let Some(stats) = self.ledger {
            stats
                .candidates_checked
                .fetch_add(n as u64, Ordering::Relaxed);
        }
    }

    /// Probe rows `rows` of `left` (its probe-key row hashes `hashes`):
    /// each row's candidates — its buckets, cut down to the sub-slices
    /// inside the row's bounds when range-ordered — are read in place and
    /// θ is tested on each `(probe, build)` pair; the pairs that join come
    /// back as indices.
    fn probe(
        &self,
        left: &RowBatch,
        hashes: &[u64],
        rows: Range<usize>,
    ) -> EngineResult<JoinPairs> {
        let mut out = JoinPairs::default();
        let probe_keys = self.probe_keys(left);
        let mut spans: Vec<Range<usize>> = Vec::new();
        let mut checked = 0usize;
        let mut pred = self.pred.bind(left, self.build);
        for li in rows {
            spans.clear();
            self.table
                .candidates(&probe_keys, hashes[li], left, li, self.range, &mut spans);
            checked += spans.iter().map(ExactSizeIterator::len).sum::<usize>();
            let cands = spans
                .iter()
                .flat_map(|span| &self.table.order[span.clone()])
                .map(|&bi| bi as usize);
            join_left_row(
                li,
                cands,
                &mut pred,
                self.join_type,
                |bi| self.build_matched[bi].store(true, Ordering::Relaxed),
                &mut out,
            )?;
        }
        self.note_candidates(checked);
        Ok(out)
    }

    /// The probe-key columns of `left`.
    fn probe_keys(&self, left: &RowBatch) -> Vec<Arc<ColumnVec>> {
        self.keys
            .iter()
            .map(|&(l, _)| left.column(l).clone())
            .collect()
    }

    /// The probe-key row hashes of `left`.
    fn hashes(&self, left: &RowBatch) -> Vec<u64> {
        hash_rows(&self.probe_keys(left), left.len())
    }
}

impl ExecNode for HashJoinExec {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Probe a whole left batch per call (serial), or — under a parallel
    /// state — drain the left side once and probe contiguous morsels on
    /// workers, then emit the buffered output a batch at a time.
    fn next_batch(&mut self, state: &ExecutionState) -> EngineResult<Option<RowBatch>> {
        self.build(state)?;
        loop {
            match self.phase {
                Phase::Done => return Ok(None),
                Phase::Buffered(ref all, ref mut pos) => {
                    if let Some(batch) = all.as_ref().and_then(|all| next_chunk(all, pos)) {
                        return Ok(Some(batch));
                    }
                    self.phase = if self.join_type.emits_right_unmatched() {
                        Phase::BuildUnmatched(0)
                    } else {
                        Phase::Done
                    };
                }
                Phase::BuildUnmatched(ref mut next) => {
                    let matched = |i: usize| self.build_matched[i].load(Ordering::Relaxed);
                    let out = JoinPairs::unmatched_right(self.build.len(), next, matched);
                    if *next >= self.build.len() {
                        self.phase = Phase::Done;
                    }
                    let none = RowBatch::empty(self.left.schema().clone());
                    let batch = out.into_batch(&self.schema, &none, &self.build, self.join_type);
                    if batch.is_some() {
                        return Ok(batch);
                    }
                }
                Phase::Probe if state.threads() > 1 => {
                    // Morsel-parallel probe: materialize the probe input,
                    // split it into contiguous morsels, probe them on
                    // workers and concatenate in morsel order.
                    let left = collect_batch(self.left.as_mut(), state)?;
                    let pairs = if state.parallel(left.len()) {
                        let threads = state.threads();
                        let ranges = split_ranges(left.len(), threads);
                        let side = self.probe_side();
                        let hashes = side.hashes(&left);
                        let chunks = par_run(threads, ranges.len(), |i| {
                            let (a, b) = ranges[i];
                            side.probe(&left, &hashes, a..b)
                        })?;
                        state.note_partitions(ranges.len());
                        let mut pairs = JoinPairs::default();
                        for mut chunk in chunks {
                            pairs.left.append(&mut chunk.left);
                            pairs.right.append(&mut chunk.right);
                        }
                        pairs
                    } else {
                        let side = self.probe_side();
                        side.probe(&left, &side.hashes(&left), 0..left.len())?
                    };
                    let all = pairs.into_batch(&self.schema, &left, &self.build, self.join_type);
                    self.phase = Phase::Buffered(all, 0);
                }
                Phase::Probe => {
                    let Some(batch) = self.left.next_batch(state)? else {
                        self.phase = if self.join_type.emits_right_unmatched() {
                            Phase::BuildUnmatched(0)
                        } else {
                            Phase::Done
                        };
                        continue;
                    };
                    let side = self.probe_side();
                    let pairs = side.probe(&batch, &side.hashes(&batch), 0..batch.len())?;
                    let out = pairs.into_batch(&self.schema, &batch, &self.build, self.join_type);
                    if out.is_some() {
                        return Ok(out);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::test_util::{brute_join, int2_rel};
    use crate::exec::{collect, ExecutionState, SeqScanExec};
    use crate::expr::col;
    use crate::plan::PlannerConfig;
    use crate::relation::Relation;
    use crate::schema::{Column, DataType};

    fn scan(vals: &[(i64, i64)]) -> BoxedExec {
        Box::new(SeqScanExec::new(int2_rel(("k", "v"), vals).into_shared()))
    }

    fn run_hash(
        l: &[(i64, i64)],
        r: &[(i64, i64)],
        jt: JoinType,
        residual: Option<Expr>,
    ) -> Relation {
        let node = HashJoinExec::new(scan(l), scan(r), vec![(0, 0)], residual, jt);
        collect(Box::new(node), &ExecutionState::default()).unwrap()
    }

    /// Same join by definition (key equality ∧ residual), as the oracle.
    fn run_brute(
        l: &[(i64, i64)],
        r: &[(i64, i64)],
        jt: JoinType,
        residual: Option<Expr>,
    ) -> Relation {
        let cond = match residual {
            None => col(0).eq(col(2)),
            Some(res) => col(0).eq(col(2)).and(res),
        };
        let rel = |vals| int2_rel(("k", "v"), vals);
        brute_join(&rel(l), &rel(r), jt, Some(&cond)).unwrap()
    }

    #[test]
    fn agrees_with_brute_force_on_all_join_types() {
        let l = [(1, 10), (2, 20), (2, 21), (4, 40)];
        let r = [(2, 200), (2, 201), (3, 300)];
        for jt in [
            JoinType::Inner,
            JoinType::Left,
            JoinType::Right,
            JoinType::Full,
            JoinType::Semi,
            JoinType::Anti,
        ] {
            let h = run_hash(&l, &r, jt, None);
            let n = run_brute(&l, &r, jt, None);
            assert!(h.same_bag(&n), "join type {jt:?}: {h} vs {n}");
        }
    }

    #[test]
    fn residual_predicate_applies() {
        let l = [(2, 20), (2, 25)];
        let r = [(2, 22), (2, 24)];
        // residual: l.v < r.v
        let residual = Some(col(1).lt(col(3)));
        for jt in [
            JoinType::Inner,
            JoinType::Left,
            JoinType::Right,
            JoinType::Full,
            JoinType::Semi,
            JoinType::Anti,
        ] {
            let h = run_hash(&l, &r, jt, residual.clone());
            let n = run_brute(&l, &r, jt, residual.clone());
            assert!(h.same_bag(&n), "join type {jt:?}");
        }
    }

    #[test]
    fn null_keys_never_match_but_surface_in_outer() {
        let l_rel = Relation::from_values(
            Schema::new(vec![
                Column::new("k", DataType::Int),
                Column::new("v", DataType::Int),
            ]),
            vec![
                vec![Value::Null, Value::Int(1)],
                vec![Value::Int(2), Value::Int(2)],
            ],
        )
        .unwrap()
        .into_shared();
        let r_rel = Relation::from_values(
            Schema::new(vec![
                Column::new("k", DataType::Int),
                Column::new("w", DataType::Int),
            ]),
            vec![
                vec![Value::Null, Value::Int(9)],
                vec![Value::Int(2), Value::Int(8)],
            ],
        )
        .unwrap()
        .into_shared();
        let node = HashJoinExec::new(
            Box::new(SeqScanExec::new(l_rel)),
            Box::new(SeqScanExec::new(r_rel)),
            vec![(0, 0)],
            None,
            JoinType::Full,
        );
        let out = collect(Box::new(node), &ExecutionState::default()).unwrap();
        // matched (2,2,2,8); unmatched left (ω,1,ω,ω); unmatched right (ω,ω,ω,9)
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn empty_sides() {
        assert_eq!(run_hash(&[], &[(1, 1)], JoinType::Full, None).len(), 1);
        assert_eq!(run_hash(&[(1, 1)], &[], JoinType::Full, None).len(), 1);
        assert_eq!(run_hash(&[], &[], JoinType::Full, None).len(), 0);
        assert_eq!(run_hash(&[(1, 1)], &[], JoinType::Anti, None).len(), 1);
    }

    #[test]
    fn parallel_probe_is_row_identical_to_serial() {
        // Enough rows to trip the parallel gate with parallel_min_rows=1,
        // duplicate keys for fanout, NULL keys, unmatched rows both sides.
        let l: Vec<(i64, i64)> = (0..500).map(|i| (i % 23, i)).collect();
        let r: Vec<(i64, i64)> = (0..300).map(|i| (i % 31, 1000 + i)).collect();
        let par_state = ExecutionState::new(PlannerConfig {
            threads: 4,
            parallel_min_rows: 1,
            ..Default::default()
        });
        let serial_state = ExecutionState::default();
        let residuals = [None, Some(col(1).lt(col(3)))];
        for jt in [
            JoinType::Inner,
            JoinType::Left,
            JoinType::Right,
            JoinType::Full,
            JoinType::Semi,
            JoinType::Anti,
        ] {
            for residual in &residuals {
                let mk = || {
                    Box::new(HashJoinExec::new(
                        scan(&l),
                        scan(&r),
                        vec![(0, 0)],
                        residual.clone(),
                        jt,
                    ))
                };
                let serial = collect(mk(), &serial_state).unwrap();
                let par = collect(mk(), &par_state).unwrap();
                assert_eq!(serial.rows(), par.rows(), "join type {jt:?}");
            }
        }
        assert!(
            par_state.partitions_run.load(Ordering::Relaxed) > 0,
            "parallel probe must actually partition"
        );
    }

    /// Random `(k, lo, hi)` probe rows and `(k, c)` build rows. `c` always
    /// has duplicates; with `mixed` it also holds NULLs and Doubles (so the
    /// build stays in build order). Probe bounds are always mixed, so some
    /// probe rows fall back to their whole bucket either way.
    fn range_tables(seed: u64, mixed: bool) -> (Arc<Relation>, Arc<Relation>) {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let noisy = |rng: &mut StdRng, mixed: bool| match rng.gen_range(0..10) {
            0 if mixed => Value::Null,
            1 if mixed => Value::Double(rng.gen_range(0..40) as f64 / 2.0),
            _ => Value::Int(rng.gen_range(0..20)),
        };
        let key = |rng: &mut StdRng| match rng.gen_range(0..12) {
            0 => Value::Null,
            _ => Value::Int(rng.gen_range(0..4)),
        };
        let int_cols = |names: &[&str]| {
            Schema::new(
                names
                    .iter()
                    .map(|n| Column::new(*n, DataType::Int))
                    .collect(),
            )
        };
        let probe: Vec<Vec<Value>> = (0..90)
            .map(|_| vec![key(&mut rng), noisy(&mut rng, true), noisy(&mut rng, true)])
            .collect();
        let build: Vec<Vec<Value>> = (0..120)
            .map(|_| vec![key(&mut rng), noisy(&mut rng, mixed)])
            .collect();
        (
            Relation::from_values(int_cols(&["k", "lo", "hi"]), probe)
                .unwrap()
                .into_shared(),
            Relation::from_values(int_cols(&["k", "c"]), build)
                .unwrap()
                .into_shared(),
        )
    }

    #[test]
    fn range_ordered_buckets_agree_with_brute_force_on_every_path() {
        use crate::expr::lit;
        // Concatenated row: probe (k, lo, hi) = 0..3, build (k, c) = 3..5.
        let (lo, hi, c) = (col(1), col(2), col(4));
        let residuals = [
            (
                "both strict",
                c.clone().gt(lo.clone()).and(c.clone().lt(hi.clone())),
            ),
            (
                "both, operands swapped",
                lo.clone().le(c.clone()).and(hi.clone().ge(c.clone())),
            ),
            ("lower only", c.clone().ge(lo.clone())),
            ("upper only, swapped", hi.clone().gt(c.clone())),
            (
                "literals",
                c.clone().gt(lit(3i64)).and(lit(12i64).ge(c.clone())),
            ),
            (
                "column and literal",
                c.clone().ge(lo.clone()).and(c.clone().lt(lit(10i64))),
            ),
            (
                "double literal is no bound",
                c.clone().lt(lit(7.5f64)).and(c.clone().gt(lo.clone())),
            ),
            (
                "bounds beside another conjunct",
                c.clone().gt(lo).and(c.clone().ne(lit(5i64))).and(c.lt(hi)),
            ),
        ];
        let par_state = || {
            ExecutionState::new(PlannerConfig {
                threads: 4,
                parallel_min_rows: 1,
                ..Default::default()
            })
        };
        for (mixed, seed) in [(false, 11), (true, 12), (false, 13), (true, 14)] {
            let (probe, build) = range_tables(seed, mixed);
            // What an unordered probe scans: every probe row's whole bucket.
            let whole_buckets: u64 = probe
                .rows()
                .iter()
                .filter(|l| !l[0].is_null())
                .map(|l| build.rows().iter().filter(|b| b[0] == l[0]).count() as u64)
                .sum();
            for (name, residual) in &residuals {
                for jt in [
                    JoinType::Inner,
                    JoinType::Left,
                    JoinType::Right,
                    JoinType::Full,
                    JoinType::Semi,
                    JoinType::Anti,
                ] {
                    let label = format!("{name}, {jt:?}, mixed build = {mixed}, seed {seed}");
                    let run = |state: &ExecutionState| {
                        let stats = Arc::new(OperatorStats::default());
                        let node = Box::new(
                            HashJoinExec::new(
                                Box::new(SeqScanExec::new(probe.clone())),
                                Box::new(SeqScanExec::new(build.clone())),
                                vec![(0, 0)],
                                Some(residual.clone()),
                                jt,
                            )
                            .with_ledger(stats.clone()),
                        );
                        (
                            collect(node, state).unwrap(),
                            stats.candidates_checked.load(Ordering::Relaxed),
                        )
                    };
                    let (batch, checked) = run(&ExecutionState::default());
                    let (par, checked_par) = run(&par_state());
                    assert_eq!(par.rows(), batch.rows(), "threads 4 vs 1: {label}");
                    assert_eq!(checked_par, checked, "{label}");

                    let theta = col(0).eq(col(3)).and(residual.clone());
                    let oracle = brute_join(&probe, &build, jt, Some(&theta)).unwrap();
                    assert!(batch.same_bag(&oracle), "{label}: {batch} vs {oracle}");

                    // The bounds save work exactly when the build column
                    // is all integers.
                    if mixed {
                        assert_eq!(checked, whole_buckets, "{label}");
                    } else {
                        assert!(checked < whole_buckets, "{label}: {checked}");
                    }
                }
            }
        }
    }

    #[test]
    fn semi_and_anti_never_test_the_residual_past_the_first_match() {
        use crate::expr::lit;
        // Residual r.v = 5 OR r.v + 1 > 0: the second build row's `'x' + 1`
        // is a type error, reached only past the first (matching) one.
        let schema = int2_rel(("k", "v"), &[]).schema().clone();
        let build = Relation::from_values(
            schema,
            vec![
                vec![Value::Int(1), Value::Int(5)],
                vec![Value::Int(1), Value::str("x")],
            ],
        )
        .unwrap();
        let residual = col(3).eq(lit(5i64)).or(col(3).add(lit(1i64)).gt(lit(0i64)));
        for jt in [JoinType::Semi, JoinType::Anti, JoinType::Inner] {
            let node = HashJoinExec::new(
                scan(&[(1, 1)]),
                Box::new(SeqScanExec::new(build.clone().into_shared())),
                vec![(0, 0)],
                Some(residual.clone()),
                jt,
            );
            let got = collect(Box::new(node), &ExecutionState::default());
            match jt {
                JoinType::Semi => assert_eq!(got.unwrap().len(), 1),
                JoinType::Anti => assert_eq!(got.unwrap().len(), 0),
                _ => assert!(got.is_err()),
            }
        }
    }

    #[test]
    fn range_column_prefers_two_sided_bounds() {
        use crate::expr::lit;
        // probe width 3, build width 3: build columns are 3, 4, 5.
        let of = |e: Expr| RangeSpec::of(&JoinPred::new(Some(e)), 3, 3).map(|r| r.col());
        // One-sided on build col 0, two-sided on build col 2.
        let e = col(3)
            .lt(col(1))
            .and(col(5).gt(col(1)))
            .and(col(5).le(col(2)));
        assert_eq!(of(e), Some(2));
        // Only one-sided bounds: the first one.
        assert_eq!(of(col(0).lt(col(4)).and(col(3).lt(col(1)))), Some(1));
        // Equalities, build-vs-build and probe-only comparisons bound nothing.
        assert_eq!(
            of(col(3)
                .eq(col(1))
                .and(col(3).lt(col(4)))
                .and(col(0).lt(lit(1i64)))),
            None
        );
        // A residual that does not compile has no range column.
        assert_eq!(of(col(3).add(lit(1i64)).lt(col(1))), None);
        assert_eq!(
            RangeSpec::of(&JoinPred::Always, 3, 3).map(|r| r.col()),
            None
        );
    }
}
