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
//! **Derived bounds.** The overlap test bounds *two* build columns: with
//! buckets ordered by `s.te` (bounded below by `r.ts`), `s.ts < r.te`
//! bounds `s.ts` only. When both columns are all `Int`, the build keeps
//! each bucket's least and greatest `s.te − s.ts` (every difference
//! checked), and the second column's bounds become bounds on the first:
//! `s.ts < v` gives `s.te < v + max`, `s.ts > v` gives `s.te > v + min`.
//! A bucket is then cut from both ends. An addition that overflows gives
//! no bound; the residual still decides every match.
//!
//! **Keys.** The build side's keys are grouped by the engine's one
//! [`KeyTable`] in join mode: equi-keys match exactly when the replaced
//! `=` conjuncts are TRUE (a NULL never matches; an `Int` matches the
//! `Double` it equals), the hash of each build and probe row is computed
//! once, a column at a time, straight from the typed key columns, and a
//! probe reads the build keys in place — no key is copied into a `Value`.
//! The build numbers each row's group and counting-sorts the rows into
//! contiguous buckets of one `order` array, one bucket per group.

use std::ops::Range;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use crate::batch::{group_runs, hash_rows, ColumnVec, KeyEq, KeyTable, RowBatch};
use crate::error::EngineResult;
use crate::exec::{
    collect_batch, join_left_row, BoxedExec, ExecNode, ExecutionState, JoinPairs, OperatorStats,
};
use crate::expr::{CmpOp, Expr, JoinPred, PredOperand};
use crate::plan::JoinType;
use crate::schema::Schema;
use crate::value::Value;

enum Phase {
    Probe,
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
    /// Another build column the residual bounds, with its bounds: through
    /// a bucket's spread of `col − second` they bound `col` too.
    second: Option<(usize, Vec<(CmpOp, BoundOperand)>)>,
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
        let bounds_on = |c: usize| -> Vec<(CmpOp, BoundOperand)> {
            found
                .iter()
                .filter(|&&(fc, ..)| fc == c)
                .map(|&(_, op, v)| (op, v))
                .collect()
        };
        let second = found
            .iter()
            .map(|&(c, ..)| c)
            .find(|&c| c != col)
            .map(|c| (c, bounds_on(c)));
        Some(RangeSpec {
            col,
            bounds: bounds_on(col),
            second,
        })
    }

    /// The range column's index in the build row.
    pub(crate) fn col(&self) -> usize {
        self.col
    }

    /// The second bounded build column, if the residual has one.
    fn second_col(&self) -> Option<usize> {
        self.second.as_ref().map(|&(c, _)| c)
    }

    /// The sub-slice of an ordered bucket (`keys` ascending) outside which
    /// row `li` of probe batch `left` fails a bound; the whole slice when
    /// one of the row's bounds on the range column is not an integer.
    /// `spread`, the bucket's least and greatest `range column − second
    /// column`, turns the second column's bounds into bounds on the range
    /// column.
    fn narrow(
        &self,
        keys: &[i64],
        spread: Option<(i64, i64)>,
        left: &RowBatch,
        li: usize,
    ) -> Range<usize> {
        let value = |operand: BoundOperand| match operand {
            BoundOperand::Int(x) => Some(x),
            BoundOperand::ProbeCol(i) => left.columns().get(i).and_then(|c| c.int_at(li)),
        };
        let (mut lo, mut hi) = (0, keys.len());
        let mut cut = |op: CmpOp, v: i64| match op {
            CmpOp::Gt => lo = lo.max(keys.partition_point(|&k| k <= v)),
            CmpOp::Ge => lo = lo.max(keys.partition_point(|&k| k < v)),
            CmpOp::Lt => hi = hi.min(keys.partition_point(|&k| k < v)),
            CmpOp::Le => hi = hi.min(keys.partition_point(|&k| k <= v)),
            CmpOp::Eq | CmpOp::Ne => unreachable!("not a range bound"),
        };
        for &(op, operand) in &self.bounds {
            match value(operand) {
                Some(v) => cut(op, v),
                None => return 0..keys.len(),
            }
        }
        if let (Some((_, second)), Some((min, max))) = (&self.second, spread) {
            // `col = second + d` with `d` in `[min, max]`: `second < v`
            // puts `col` below `v + max`, `second > v` above `v + min`.
            for &(op, operand) in second {
                let far = if matches!(op, CmpOp::Lt | CmpOp::Le) {
                    max
                } else {
                    min
                };
                if let Some(v) = value(operand).and_then(|v| v.checked_add(far)) {
                    cut(op, v);
                }
            }
        }
        lo.min(hi)..hi
    }
}

/// The build side's hash table, flattened: the build keys' groups (a
/// [`KeyTable`] in join mode) index contiguous ranges of `order`, so a
/// probe cursor is two integers.
struct BuildTable {
    /// The build keys' groups. NULL keys never join and are in no group.
    groups: KeyTable,
    /// Group `g`'s build rows are `order[bounds[g]..bounds[g + 1]]`:
    /// ascending by `(range column, build index)` when range-ordered, else
    /// by build index.
    bounds: Vec<u32>,
    order: Vec<u32>,
    /// The range column of `order`'s rows, position for position; empty
    /// unless the buckets are range-ordered.
    range_keys: Vec<i64>,
    /// Per group, the least and greatest `range column − second column`
    /// of its rows; empty unless both columns are all `Int` and no
    /// difference overflows.
    spread: Vec<(i64, i64)>,
}

impl BuildTable {
    /// Lay out the buckets: counting-sort the build rows by group (`ids`,
    /// the group of each row in `table`), ordering each bucket by
    /// `range_col[index]` when the range column was all integers, and
    /// noting each bucket's spread of `range_col − second_col` when the
    /// second column was too.
    fn assemble(
        table: KeyTable,
        ids: &[u32],
        range_col: Option<Vec<i64>>,
        second_col: Option<Vec<i64>>,
    ) -> BuildTable {
        let (bounds, mut order) = group_runs(ids, table.len());
        let (mut range_keys, mut spread) = (Vec::new(), Vec::new());
        if let Some(c) = range_col {
            for w in bounds.windows(2) {
                order[w[0] as usize..w[1] as usize].sort_unstable_by_key(|&i| (c[i as usize], i));
            }
            range_keys = order.iter().map(|&i| c[i as usize]).collect();
            if let Some(c2) = second_col {
                let bucket_spread = |rows: &[u32]| {
                    rows.iter()
                        .try_fold((i64::MAX, i64::MIN), |(min, max), &i| {
                            let d = c[i as usize].checked_sub(c2[i as usize])?;
                            Some((min.min(d), max.max(d)))
                        })
                };
                spread = bounds
                    .windows(2)
                    .map(|w| bucket_spread(&order[w[0] as usize..w[1] as usize]))
                    .collect::<Option<Vec<_>>>()
                    .unwrap_or_default();
            }
        }
        BuildTable {
            groups: table,
            bounds,
            order,
            range_keys,
            spread,
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
        for g in self.groups.matches(probe_keys, li, hash) {
            let g = g as usize;
            let (start, end) = (self.bounds[g] as usize, self.bounds[g + 1] as usize);
            out.push(match range {
                Some(spec) if !self.range_keys.is_empty() => {
                    let spread = self.spread.get(g).copied();
                    let within = spec.narrow(&self.range_keys[start..end], spread, left, li);
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

    /// `None` until the build side has been read.
    table: Option<BuildTable>,
    /// The whole build side, one batch.
    build: RowBatch,
    build_matched: Vec<bool>,
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
            table: None,
            build_matched: Vec::new(),
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
        if self.table.is_some() {
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
        let mut groups = KeyTable::new(KeyEq::Join, keys.len());
        let ids = groups.insert(&keys, &hashes, 0..build.len());
        // An all-`Int` range column orders the buckets; one holding a NULL
        // or a Double does not. The second bounded column likewise.
        let ints = |c: usize| -> Option<Vec<i64>> {
            let c = build.column(c);
            (0..build.len()).map(|i| c.int_at(i)).collect()
        };
        let range_col = self.range.as_ref().and_then(|spec| ints(spec.col));
        let second_col = self
            .range
            .as_ref()
            .and_then(RangeSpec::second_col)
            .and_then(ints);
        self.table = Some(BuildTable::assemble(groups, &ids, range_col, second_col));
        self.build_matched = vec![false; build.len()];
        self.build = build;
        Ok(())
    }

    /// Probe the rows of `left`: each row's candidates — its buckets, cut
    /// down to the sub-slices inside the row's bounds when range-ordered —
    /// are read in place and θ is tested on each `(probe, build)` pair; the
    /// pairs that join come back as indices.
    fn probe(&mut self, left: &RowBatch) -> EngineResult<JoinPairs> {
        let table = self.table.as_ref().expect("built");
        let probe_keys: Vec<Arc<ColumnVec>> = self
            .keys
            .iter()
            .map(|&(l, _)| left.column(l).clone())
            .collect();
        let hashes = hash_rows(&probe_keys, left.len());
        let mut out = JoinPairs::default();
        let mut spans: Vec<Range<usize>> = Vec::new();
        let mut checked = 0usize;
        let mut pred = self.residual.bind(left, &self.build);
        let matched = &mut self.build_matched;
        for (li, &hash) in hashes.iter().enumerate() {
            spans.clear();
            table.candidates(&probe_keys, hash, left, li, self.range.as_ref(), &mut spans);
            checked += spans.iter().map(ExactSizeIterator::len).sum::<usize>();
            let cands = spans
                .iter()
                .flat_map(|span| &table.order[span.clone()])
                .map(|&bi| bi as usize);
            join_left_row(
                li,
                cands,
                &mut pred,
                self.join_type,
                |bi| matched[bi] = true,
                &mut out,
            )?;
        }
        if let Some(stats) = &self.ledger {
            stats
                .candidates_checked
                .fetch_add(checked as u64, Ordering::Relaxed);
        }
        Ok(out)
    }
}

impl ExecNode for HashJoinExec {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Probe a whole left batch per call; then, for Right/Full, emit the
    /// build rows no probe row matched.
    fn next_batch(&mut self, state: &ExecutionState) -> EngineResult<Option<RowBatch>> {
        self.build(state)?;
        loop {
            match self.phase {
                Phase::Done => return Ok(None),
                Phase::BuildUnmatched(ref mut next) => {
                    let matched = |i: usize| self.build_matched[i];
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
                Phase::Probe => {
                    let Some(batch) = self.left.next_batch(state)? else {
                        self.phase = if self.join_type.emits_right_unmatched() {
                            Phase::BuildUnmatched(0)
                        } else {
                            Phase::Done
                        };
                        continue;
                    };
                    let pairs = self.probe(&batch)?;
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

    /// Random `(k, lo, hi)` probe rows and `(k, c, d)` build rows. `c` and
    /// `d` always have duplicates; with `mixed` they also hold NULLs and
    /// Doubles (so the build stays in build order). Probe bounds are always
    /// mixed, so some probe rows fall back to their whole bucket either
    /// way. With `edges` the integers sit next to `i64::MIN`, 0 and
    /// `i64::MAX`, where a difference or a derived bound overflows.
    fn range_tables(seed: u64, mixed: bool, edges: bool) -> (Arc<Relation>, Arc<Relation>) {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let int = |rng: &mut StdRng| match edges {
            false => rng.gen_range(0..20),
            true => {
                let base = [i64::MIN, 0, i64::MAX][rng.gen_range(0..3)];
                base.saturating_add(rng.gen_range(-3..4))
            }
        };
        let noisy = |rng: &mut StdRng, mixed: bool| match rng.gen_range(0..10) {
            0 if mixed => Value::Null,
            1 if mixed => Value::Double(rng.gen_range(0..40) as f64 / 2.0),
            _ => Value::Int(int(rng)),
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
            .map(|_| {
                let c = noisy(&mut rng, mixed);
                // Mostly `c` plus a short length, sometimes below `c`.
                let d = match (&c, rng.gen_range(0..8)) {
                    (Value::Int(c), 0..=5) => Value::Int(c.saturating_add(rng.gen_range(-1..5))),
                    _ => noisy(&mut rng, mixed),
                };
                vec![key(&mut rng), c, d]
            })
            .collect();
        (
            Relation::from_values(int_cols(&["k", "lo", "hi"]), probe)
                .unwrap()
                .into_shared(),
            Relation::from_values(int_cols(&["k", "c", "d"]), build)
                .unwrap()
                .into_shared(),
        )
    }

    #[test]
    fn range_ordered_buckets_agree_with_brute_force_on_every_path() {
        use crate::expr::lit;
        // Concatenated row: probe (k, lo, hi) = 0..3, build (k, c, d) =
        // 3..6. The overlap residuals read the build row as an interval
        // `[c, d)`: ordered by `d`, their bounds on `c` derive bounds on
        // `d` from each bucket's spread of `d − c`.
        let (lo, hi, c, d) = (col(1), col(2), col(4), col(5));
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
                c.clone()
                    .gt(lo.clone())
                    .and(c.clone().ne(lit(5i64)))
                    .and(c.clone().lt(hi.clone())),
            ),
            (
                "overlap",
                lo.clone().lt(d.clone()).and(c.clone().lt(hi.clone())),
            ),
            (
                "overlap, inclusive and swapped",
                d.clone().ge(lo.clone()).and(hi.clone().ge(c.clone())),
            ),
            (
                "overlap, second column bounded below",
                d.clone().lt(hi.clone()).and(c.clone().gt(lo.clone())),
            ),
            (
                "overlap with literal bounds",
                d.clone().gt(lit(2i64)).and(c.clone().le(lit(9i64))),
            ),
        ];
        let cases = [
            (false, false, 11),
            (true, false, 12),
            (false, false, 13),
            (true, false, 14),
            (false, true, 15),
            (true, true, 16),
            (false, true, 17),
        ];
        for (mixed, edges, seed) in cases {
            let (probe, build) = range_tables(seed, mixed, edges);
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
                    let label =
                        format!("{name}, {jt:?}, mixed = {mixed}, edges = {edges}, seed {seed}");
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
                    let batch = collect(node, &ExecutionState::default()).unwrap();
                    let checked = stats.candidates_checked.load(Ordering::Relaxed);
                    let theta = col(0).eq(col(3)).and(residual.clone());
                    let oracle = brute_join(&probe, &build, jt, Some(&theta)).unwrap();
                    assert!(batch.same_bag(&oracle), "{label}: {batch} vs {oracle}");

                    // The bounds save work exactly when the build column
                    // is all integers (near the edges they may cut nothing).
                    if mixed {
                        assert_eq!(checked, whole_buckets, "{label}");
                    } else if !edges {
                        assert!(checked < whole_buckets, "{label}: {checked}");
                    }
                }
            }
        }
    }

    #[test]
    fn overlap_buckets_are_cut_from_both_ends() {
        // One key; build intervals `[c, c + 3)` along 0..300, probe
        // intervals `[x, x + 2)`. Ordered by the end `d`, `lo < d` alone
        // leaves every interval ending after `lo`; `c < hi` with the
        // bucket's spread (3) also drops those ending at `hi + 3` or later.
        let build: Vec<(i64, i64)> = (0..300).map(|c| (c, c + 3)).collect();
        let probe: Vec<(i64, i64)> = (0..300).step_by(7).map(|x| (x, x + 2)).collect();
        let rel = |name: &str, rows: &[(i64, i64)]| {
            let cols = ["k", name, "e"].map(|n| Column::new(n, DataType::Int));
            let rows = rows
                .iter()
                .map(|&(s, e)| vec![Value::Int(1), Value::Int(s), Value::Int(e)])
                .collect();
            Relation::from_values(Schema::new(cols.to_vec()), rows)
                .unwrap()
                .into_shared()
        };
        let (probe, build) = (rel("lo", &probe), rel("c", &build));
        let overlap = col(1).lt(col(5)).and(col(4).lt(col(2)));
        let stats = Arc::new(OperatorStats::default());
        let node = HashJoinExec::new(
            Box::new(SeqScanExec::new(probe.clone())),
            Box::new(SeqScanExec::new(build.clone())),
            vec![(0, 0)],
            Some(overlap.clone()),
            JoinType::Left,
        )
        .with_ledger(stats.clone());
        let out = collect(Box::new(node), &ExecutionState::default()).unwrap();
        let theta = col(0).eq(col(3)).and(overlap);
        let oracle = brute_join(&probe, &build, JoinType::Left, Some(&theta)).unwrap();
        assert!(out.same_bag(&oracle), "{out} vs {oracle}");
        // Each probe row tests the intervals ending in `(lo, hi + 3)`:
        // four, all of them matches.
        let checked = stats.candidates_checked.load(Ordering::Relaxed);
        assert_eq!(checked, out.len() as u64);
        assert!(checked <= 4 * probe.len() as u64, "{checked}");
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
