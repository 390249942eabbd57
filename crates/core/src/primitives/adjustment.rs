//! The pipelined adjustment primitive: the paper's `ExecAdjustment`
//! executor function (Fig. 10) plus the plan constructions that feed it
//! (Figs. 8, 9 and 12).
//!
//! Both temporal alignment (Def. 11, `isalign = true`) and temporal
//! normalization (Def. 9, `isalign = false`) are implemented as:
//!
//! 1. a **nontemporal left outer join** of `DISTINCT r` that attaches, to
//!    every `r` tuple, its group of matching `s` tuples (for alignment) or
//!    the candidate split points (for normalization). The engine's
//!    optimizer is free to pick nested-loop/hash/merge for this join —
//!    which is precisely what the paper's Fig. 13 experiment measures.
//!    Every join method emits a left row's matches together, so each `r`
//!    tuple reaches the sweep as one run of rows, and the DISTINCT keeps a
//!    bag duplicate of an `r` tuple from adding a second run;
//! 2. for alignment, a projection computing `[P1, P2)`, the precomputed
//!    intersection of the r- and s-timestamps. Normalization has nothing
//!    to compute — its split point `P1` is a column of the join's own row,
//!    which the sweep addresses where the join left it (Fig. 9 draws an
//!    explicit π there; it would only copy every join row);
//! 3. no sort: Fig. 9 sorts by `(r.*, P1, P2)`, but the sweep needs only
//!    each group's points in order, so **the sweep orders each group's
//!    points itself** — the hash join's range-ordered buckets usually
//!    deliver them ascending already — and drops repeated intersections
//!    (Def. 10's intersections are a set);
//! 4. the **plane sweep** over each group ([`AdjustmentExec`]), which
//!    emits a batch of adjusted tuples per pull, fully pipelined.

use std::sync::Arc;

use temporal_engine::batch::{ColumnVec, RowBatch, BATCH_SIZE};
use temporal_engine::exec::{ExecNode, ExecutionState};
use temporal_engine::plan::{CostModel, ExtensionNode, PlanStats};
use temporal_engine::prelude::*;

use crate::error::{TemporalError, TemporalResult};

/// Internal column names for the adjusted-point columns of the sweep input.
const P1: &str = "__p1";
const P2: &str = "__p2";

/// What the plane sweep emits (paper Fig. 10, plus the Sec. 8 future-work
/// specialization).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdjustMode {
    /// Alignment (Def. 11): intersections and maximal uncovered pieces.
    Align,
    /// Normalization (Def. 9): split at the group's interior points.
    Normalize,
    /// Only the maximal uncovered pieces — the customized primitive for
    /// the anti join (Sec. 8: "customize the temporal primitives for
    /// specific temporal operators to not produce adjusted tuples that do
    /// not contribute to the result"): `r ▷ᵀ_θ s` *is* the gaps, so the
    /// intersections the generic aligner would emit (and the nontemporal
    /// anti join would then discard) are never produced.
    GapsOnly,
}

/// Build the logical plan for the temporal alignment `r Φ_θ s` (Def. 11)
/// following Fig. 8/9. `theta` is expressed over the concatenation of a
/// full `r` row and a full `s` row; the output schema equals `r`'s schema.
pub fn align_plan(
    r: LogicalPlan,
    s: LogicalPlan,
    theta: Option<Expr>,
) -> TemporalResult<LogicalPlan> {
    intersection_sweep_plan(r, s, theta, AdjustMode::Align, "alignment")
}

/// The customized anti-join primitive (Sec. 8 future work): the plan that
/// directly produces `r ▷ᵀ_θ s` — each `r` tuple's *maximal sub-intervals
/// not covered by any matching `s` tuple* — using the same group
/// construction as [`align_plan`] but a gaps-only plane sweep. No second
/// alignment and no nontemporal anti join are needed.
pub fn antijoin_gaps_plan(
    r: LogicalPlan,
    s: LogicalPlan,
    theta: Option<Expr>,
) -> TemporalResult<LogicalPlan> {
    intersection_sweep_plan(r, s, theta, AdjustMode::GapsOnly, "anti-join")
}

/// Group construction shared by [`align_plan`] and [`antijoin_gaps_plan`]:
/// left join `DISTINCT r` on `θ ∧ overlap`, project the intersections,
/// sweep in `mode`.
fn intersection_sweep_plan(
    r: LogicalPlan,
    s: LogicalPlan,
    theta: Option<Expr>,
    mode: AdjustMode,
    what: &str,
) -> TemporalResult<LogicalPlan> {
    let r_schema = r.schema();
    let s_schema = s.schema();
    let (wr, ws) = (r_schema.len(), s_schema.len());
    if wr < 2 || ws < 2 {
        return Err(TemporalError::InvalidRelation(format!(
            "{what} arguments must carry ts/te columns"
        )));
    }
    if let Some(e) = &theta {
        if let Some(m) = e.max_col() {
            if m >= wr + ws {
                return Err(TemporalError::Incompatible(format!(
                    "θ references column {m}, combined width is {}",
                    wr + ws
                )));
            }
        }
    }
    let (r_ts, r_te) = (wr - 2, wr - 1);
    let (s_ts, s_te) = (wr + ws - 2, wr + ws - 1);

    // θ ∧ r.T ∩ s.T ≠ ∅ — as in Fig. 8, the overlap test joins the groups.
    let overlap = col(r_ts).lt(col(s_te)).and(col(s_ts).lt(col(r_te)));
    let cond = match theta {
        Some(t) => t.and(overlap),
        None => overlap,
    };
    // As for normalization: each distinct r tuple's matches arrive as one
    // run, and the sweep orders and deduplicates its intersections itself.
    let joined = r.distinct().join(s, JoinType::Left, Some(cond));

    // Project to (r.*, P1, P2) where [P1, P2) = r.T ∩ s.T (NULL for ω rows).
    let mut items: Vec<(Expr, String)> = (0..wr)
        .map(|i| (col(i), r_schema.col(i).name.clone()))
        .collect();
    items.push((
        Expr::Func(Func::Greatest, vec![col(r_ts), col(s_ts)]),
        P1.to_string(),
    ));
    items.push((
        Expr::Func(Func::Least, vec![col(r_te), col(s_te)]),
        P2.to_string(),
    ));
    let projected = joined.project_named(items)?;

    Ok(LogicalPlan::extension(Arc::new(AdjustmentNode {
        input: projected,
        out_schema: r_schema,
        mode,
        p1: wr,
        p2: Some(wr + 1),
    })))
}

/// Build the logical plan for the temporal normalization `N_B(r; s)`
/// (Def. 9) following Sec. 6.3: join `r` not with `s` directly but with the
/// union of its start and end points `π_{B,Ts/P1}(s) ∪ π_{B,Te/P1}(s)`,
/// keeping only points strictly inside `r.T`, then plane-sweep from split
/// point to split point. `b` pairs `(r data column, s data column)` define
/// the grouping equality; empty `b` means every `s` tuple is in the group.
pub fn normalize_plan(
    r: LogicalPlan,
    s: LogicalPlan,
    b: &[(usize, usize)],
) -> TemporalResult<LogicalPlan> {
    let r_schema = r.schema();
    let s_schema = s.schema();
    let (wr, ws) = (r_schema.len(), s_schema.len());
    if wr < 2 || ws < 2 {
        return Err(TemporalError::InvalidRelation(
            "normalization arguments must carry ts/te columns".into(),
        ));
    }
    for &(br, bs) in b {
        if br >= wr - 2 || bs >= ws - 2 {
            return Err(TemporalError::Incompatible(format!(
                "grouping pair ({br}, {bs}) out of bounds for data widths {} and {}",
                wr - 2,
                ws - 2
            )));
        }
    }
    let (s_ts, s_te) = (ws - 2, ws - 1);

    // Endpoint relation: π_{B, Ts as P1}(s) ∪ π_{B, Te as P1}(s).
    // The set-semantics union also removes duplicate split points early.
    let mut start_items: Vec<(Expr, String)> = b
        .iter()
        .map(|&(_, bs)| (col(bs), s_schema.col(bs).name.clone()))
        .collect();
    let mut end_items = start_items.clone();
    start_items.push((col(s_ts), P1.to_string()));
    end_items.push((col(s_te), P1.to_string()));
    let endpoints = s
        .clone()
        .project_named(start_items)?
        .set_op(SetOpKind::Union, s.project_named(end_items)?);

    // Join condition: B-equality plus the split point strictly inside r.T.
    let (r_ts, r_te) = (wr - 2, wr - 1);
    let p1_col = wr + b.len();
    let mut conjuncts: Vec<Expr> = b
        .iter()
        .enumerate()
        .map(|(i, &(br, _))| col(br).eq(col(wr + i)))
        .collect();
    conjuncts.push(col(p1_col).gt(col(r_ts)));
    conjuncts.push(col(p1_col).lt(col(r_te)));
    let cond = Expr::and_all(conjuncts).expect("non-empty");
    // Every join method emits each left row's matches together, so the
    // sweep sees each r tuple's split points as one run and orders them
    // itself: no sort. DISTINCT makes the runs one per distinct r tuple —
    // a bag duplicate adds nothing, as when a sort collapsed it.
    let joined = r.distinct().join(endpoints, JoinType::Left, Some(cond));

    // The sweep reads the split point from the join row (r.*, B, P1) as it
    // is; a projection would add nothing.
    Ok(LogicalPlan::extension(Arc::new(AdjustmentNode {
        input: joined,
        out_schema: r_schema,
        mode: AdjustMode::Normalize,
        p1: p1_col,
        p2: None,
    })))
}

/// Logical extension node wrapping the plane sweep. Its child plan produces
/// rows that start with the full `r` tuple and carry `P1` (and `P2`, for
/// the intersection modes) at the given columns, each `r` tuple's rows
/// together.
#[derive(Debug)]
pub struct AdjustmentNode {
    input: LogicalPlan,
    out_schema: Schema,
    mode: AdjustMode,
    p1: usize,
    p2: Option<usize>,
}

impl ExtensionNode for AdjustmentNode {
    fn name(&self) -> &str {
        match self.mode {
            AdjustMode::Align => "TemporalAligner",
            AdjustMode::Normalize => "TemporalNormalizer",
            AdjustMode::GapsOnly => "TemporalAntiAligner",
        }
    }

    fn inputs(&self) -> Vec<&LogicalPlan> {
        vec![&self.input]
    }

    fn with_new_inputs(&self, mut inputs: Vec<LogicalPlan>) -> Arc<dyn ExtensionNode> {
        assert_eq!(inputs.len(), 1);
        Arc::new(AdjustmentNode {
            input: inputs.remove(0),
            out_schema: self.out_schema.clone(),
            mode: self.mode,
            p1: self.p1,
            p2: self.p2,
        })
    }

    fn schema(&self) -> Schema {
        self.out_schema.clone()
    }

    /// The cost estimates of Sec. 6.2/6.3: every input tuple yields at most
    /// three (alignment) or two (normalization) output tuples, at a cost of
    /// two (resp. one) tuple comparisons each — expressed through the
    /// planner's [`CostModel`] so composed temporal plans cost as one tree.
    fn estimate(&self, input_stats: &[PlanStats], model: &CostModel) -> PlanStats {
        let x = input_stats[0];
        let num_cols = self.out_schema.len() as f64;
        match self.mode {
            AdjustMode::Align => model.sweep(x, 3.0 * x.rows, 2.0 * num_cols),
            AdjustMode::Normalize => model.sweep(x, 2.0 * x.rows, num_cols),
            // Gaps only: at most one gap per input tuple plus the tails.
            AdjustMode::GapsOnly => model.sweep(x, x.rows, num_cols),
        }
    }

    /// The data columns of the sweep input pass through verbatim and key
    /// the partition into independent groups, so a selection on them
    /// commutes with the adjustment (a dropped group produces exactly the
    /// output tuples the selection would drop). The adjusted `ts`/`te`
    /// columns do **not** pass through.
    fn passthrough_column(&self, out_col: usize) -> Option<(usize, usize)> {
        (out_col + 2 < self.out_schema.len()).then_some((0, out_col))
    }

    fn build_exec(&self, mut children: Vec<BoxedExec>) -> EngineResult<BoxedExec> {
        let child = children.remove(0);
        Ok(Box::new(AdjustmentExec::new(
            child,
            self.out_schema.clone(),
            self.mode,
            self.p1,
            self.p2,
        )))
    }

    fn explain(&self) -> String {
        format!(
            "{} (plane sweep, {})",
            self.name(),
            match self.mode {
                AdjustMode::Align => "intersections + gaps",
                AdjustMode::Normalize => "split points",
                AdjustMode::GapsOnly => "gaps only",
            }
        )
    }
}

/// The paper's `ExecAdjustment` (Fig. 10): a pipelined plane sweep over
/// groups of join tuples, integrated into the executor pipeline like the
/// PostgreSQL original — with the unit of exchange a batch: one
/// `next_batch()` call sweeps on through the groups, pulling the input a
/// batch at a time, until it has a batch of adjusted tuples.
///
/// The sweep reads `ts`, `te`, `P1` and `P2` as integers straight from the
/// input's columns and emits, per adjusted tuple, the index of the input
/// row whose data it carries plus its `[s, e)`: an output batch is the
/// data columns gathered at those indices beside two `i64` columns.
pub struct AdjustmentExec {
    input: BoxedExec,
    schema: Schema,
    r_width: usize,
    sweep: Sweep,
    /// The input not yet swept; row `pos` is the first row of a group.
    window: RowBatch,
    pos: usize,
    /// An input batch pulled while the window still had tuples to emit.
    pending: Option<RowBatch>,
    input_done: bool,
}

/// The Fig. 10 sweep over one group at a time. No state crosses groups,
/// so the groups may come in any order.
struct Sweep {
    mode: AdjustMode,
    ts_idx: usize,
    te_idx: usize,
    p1_idx: usize,
    /// `None` for [`AdjustMode::Normalize`], whose sweep reads only `P1`.
    p2_idx: Option<usize>,
    /// Normalization's split points of the group being swept, ascending.
    points: Vec<i64>,
    /// The intersections `[P1, P2)` of the group being swept, ascending
    /// and distinct.
    pairs: Vec<(i64, i64)>,
}

/// The adjusted tuples of one call: the input row each one's data come
/// from, and its interval.
#[derive(Default)]
struct Adjusted {
    src: Vec<u32>,
    ts: Vec<i64>,
    te: Vec<i64>,
}

impl Adjusted {
    fn push(&mut self, src: usize, s: i64, e: i64) {
        self.src.push(src as u32);
        self.ts.push(s);
        self.te.push(e);
    }
}

/// Column `c` of row `i` as an integer, with `Value::expect_int`'s error
/// (`what: expected int, got …`) otherwise.
pub(crate) fn int_in(batch: &RowBatch, c: usize, i: usize, what: &str) -> EngineResult<i64> {
    match batch.column(c).int_at(i) {
        Some(x) => Ok(x),
        None => batch.value(c, i).expect_int(what),
    }
}

/// `[s, e)` must be non-empty — the invariant `TemporalRelation::new`
/// checks, applied to rows that reach a sweep from a SQL table.
pub(crate) fn check_interval(what: &str, s: i64, e: i64) -> EngineResult<()> {
    if s < e {
        Ok(())
    } else {
        Err(EngineError::Evaluation(format!(
            "{what}: empty interval [{s}, {e})"
        )))
    }
}

impl Sweep {
    /// Sweep the group `s..g` of `w` (Fig. 10): the uncovered pieces
    /// before each intersection, the intersections (alignment), and the
    /// uncovered tail of the `r` tuple's interval. The join delivers a
    /// group's intersections in its own order and once per matching `s`
    /// tuple, so they are sorted here unless already ascending, then
    /// deduplicated — Def. 10's set of intersections.
    fn group(&mut self, w: &RowBatch, s: usize, g: usize, out: &mut Adjusted) -> EngineResult<()> {
        let ts = int_in(w, self.ts_idx, s, "adjustment ts")?;
        let te = int_in(w, self.te_idx, s, "adjustment te")?;
        check_interval("adjustment", ts, te)?;
        let Some(p2_idx) = self.p2_idx else {
            self.split(w, s, g, ts, te, out);
            return Ok(());
        };
        let (p1c, p2c) = (w.column(self.p1_idx), w.column(p2_idx));
        self.pairs.clear();
        // The ω row of an r tuple that matched nothing has NULL P1 and P2.
        self.pairs
            .extend((s..g).filter_map(|i| Some((p1c.int_at(i)?, p2c.int_at(i)?))));
        if !self.pairs.is_sorted() {
            self.pairs.sort_unstable();
        }
        self.pairs.dedup();
        let mut sweepline = ts;
        for &(p1, p2) in &self.pairs {
            // First block: the uncovered piece [sweepline, P1).
            if sweepline < p1 {
                out.push(s, sweepline, p1);
                sweepline = p1;
            }
            // Second block: the intersection [P1, P2) (alignment only),
            // then the sweepline moves over the covered region.
            if self.mode == AdjustMode::Align {
                out.push(s, p1, p2);
            }
            sweepline = sweepline.max(p2);
        }
        // Third block: the group ended — the uncovered tail.
        if sweepline < te {
            out.push(s, sweepline, te);
        }
        Ok(())
    }

    /// Normalization's sweep of the group `s..g`, one `r` tuple valid over
    /// `[ts, te)`: the pieces between consecutive split points. The join
    /// delivers a group's split points in its own order — ascending from
    /// range-ordered hash buckets, in build or right-input order otherwise
    /// — so they are sorted here unless already ascending.
    fn split(&mut self, w: &RowBatch, s: usize, g: usize, ts: i64, te: i64, out: &mut Adjusted) {
        let p1c = w.column(self.p1_idx);
        self.points.clear();
        // The ω row of an r tuple without a split point has P1 = NULL.
        self.points.extend((s..g).filter_map(|i| p1c.int_at(i)));
        if !self.points.is_sorted() {
            self.points.sort_unstable();
        }
        let mut sweepline = ts;
        for &p in self.points.iter().chain([&te]) {
            if sweepline < p {
                out.push(s, sweepline, p);
                sweepline = p;
            }
        }
    }
}

impl AdjustmentExec {
    /// `input` rows start with the full `r` tuple and hold `P1`/`P2` at
    /// `p1_idx`/`p2_idx`, each distinct `r` tuple's rows together, in any
    /// order; `out_schema` is `r`'s schema. The sweep orders each group's
    /// points itself.
    pub fn new(
        input: BoxedExec,
        out_schema: Schema,
        mode: AdjustMode,
        p1_idx: usize,
        p2_idx: Option<usize>,
    ) -> AdjustmentExec {
        let r_width = out_schema.len();
        debug_assert!(r_width <= p1_idx && p1_idx < input.schema().len());
        AdjustmentExec {
            window: RowBatch::empty(input.schema().clone()),
            input,
            schema: out_schema,
            r_width,
            sweep: Sweep {
                mode,
                ts_idx: r_width - 2,
                te_idx: r_width - 1,
                p1_idx,
                p2_idx,
                points: Vec::new(),
                pairs: Vec::new(),
            },
            pos: 0,
            pending: None,
            input_done: false,
        }
    }

    /// The output batch of `out`: the data columns of the window gathered
    /// at the source rows, beside the adjusted `ts`/`te`.
    fn emit(&self, out: Adjusted) -> RowBatch {
        let data = &self.window.columns()[..self.sweep.ts_idx];
        let mut columns: Vec<Arc<ColumnVec>> =
            data.iter().map(|c| Arc::new(c.gather(&out.src))).collect();
        columns.push(Arc::new(ColumnVec::from_ints(out.ts)));
        columns.push(Arc::new(ColumnVec::from_ints(out.te)));
        RowBatch::new(self.schema.clone(), out.src.len(), columns)
    }
}

impl ExecNode for AdjustmentExec {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The plane sweep of Fig. 10, re-entrant at batch granularity: each
    /// call sweeps whole groups of the input window until a batch of
    /// adjusted tuples has been produced or the input is exhausted. A
    /// group is swept once its end is in the window; the window is
    /// refilled (keeping the unfinished group) only after the tuples
    /// gathered from it have been emitted, since they index it.
    fn next_batch(&mut self, state: &ExecutionState) -> EngineResult<Option<RowBatch>> {
        let mut out = Adjusted::default();
        while out.src.len() < BATCH_SIZE {
            let (w, s) = (&self.window, self.pos);
            // The group starting at `s` ends before `g`.
            let mut g = s + 1;
            while g < w.len() && w.rows_eq(s, w, g, 0..self.r_width) {
                g += 1;
            }
            if g >= w.len() && !self.input_done {
                // The group may continue in the next input batch.
                let next = match self.pending.take() {
                    Some(b) => Some(b),
                    None => self.input.next_batch(state)?,
                };
                match next {
                    None => self.input_done = true,
                    Some(b) if !out.src.is_empty() => {
                        self.pending = Some(b);
                        break;
                    }
                    Some(b) if s >= w.len() => (self.window, self.pos) = (b, 0),
                    Some(b) => {
                        let rest = w.slice(s..w.len());
                        let schema = rest.schema().clone();
                        (self.window, self.pos) = (RowBatch::concat(schema, &[rest, b]), 0);
                    }
                }
                continue;
            }
            if s >= w.len() {
                break; // input exhausted
            }
            self.sweep.group(&self.window, s, g, &mut out)?;
            self.pos = g;
        }
        Ok((!out.src.is_empty()).then(|| self.emit(out)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algebra::TemporalPlan;
    use crate::interval::Interval;
    use crate::primitives::aligner::{align_ref, Theta};
    use crate::primitives::splitter::{normalize_ref, self_normalize_ref};
    use crate::trel::TemporalRelation;

    fn rel(name: &str, rows: &[(&str, i64, i64)]) -> TemporalRelation {
        TemporalRelation::from_rows(
            Schema::new(vec![Column::qualified(name, "v", DataType::Str)]),
            rows.iter()
                .map(|&(v, s, e)| (vec![Value::str(v)], Interval::of(s, e)))
                .collect(),
        )
        .unwrap()
    }

    fn planner() -> Planner {
        Planner::default()
    }

    /// `r Φ_θ s` as a one-operator plan.
    fn aligned(
        r: &TemporalRelation,
        s: &TemporalRelation,
        theta: Option<Expr>,
        planner: &Planner,
    ) -> TemporalRelation {
        let plan = TemporalPlan::scan(r).align(TemporalPlan::scan(s), theta);
        plan.unwrap().execute(planner).unwrap()
    }

    /// `N_B(r; s)` as a one-operator plan.
    fn normalized(
        r: &TemporalRelation,
        s: &TemporalRelation,
        b: &[(usize, usize)],
        planner: &Planner,
    ) -> TemporalRelation {
        let plan = TemporalPlan::scan(r).normalize(TemporalPlan::scan(s), b);
        plan.unwrap().execute(planner).unwrap()
    }

    #[test]
    fn align_matches_reference_no_theta() {
        let r = rel("r", &[("a", 0, 10), ("b", 2, 8), ("a", 12, 15)]);
        let s = rel("s", &[("x", 1, 3), ("y", 4, 6), ("z", 5, 9), ("w", 20, 22)]);
        let fast = aligned(&r, &s, None, &planner());
        let slow = align_ref(&r, &s, &Theta::True).unwrap();
        assert!(fast.same_set(&slow), "fast:\n{fast}\nslow:\n{slow}");
    }

    #[test]
    fn align_matches_reference_with_theta() {
        // θ: r.v = s.v; columns r=(v,ts,te), s=(v,ts,te) → r.v=0, s.v=3.
        let r = rel("r", &[("a", 0, 10), ("b", 0, 10)]);
        let s = rel("s", &[("a", 2, 4), ("a", 3, 6), ("b", 8, 12)]);
        let theta = col(0).eq(col(3));
        let fast = aligned(&r, &s, Some(theta.clone()), &planner());
        let slow = align_ref(&r, &s, &Theta::Predicate(theta)).unwrap();
        assert!(fast.same_set(&slow), "fast:\n{fast}\nslow:\n{slow}");
    }

    #[test]
    fn align_paper_fig8_fig11_trace() {
        // Fig. 8: r1=(a,β,[1,7)), r2=(b,β,[3,9)), r3=(c,γ,[8,10));
        // s1=(1,β,[2,5)), s2=(2,β,[3,4)), s3=(3,β,[7,9));
        // θ ≡ B = D (the overlap is added by the plan itself).
        let r = TemporalRelation::from_rows(
            Schema::new(vec![
                Column::new("a", DataType::Str),
                Column::new("b", DataType::Str),
            ]),
            vec![
                (
                    vec![Value::str("a"), Value::str("beta")],
                    Interval::of(1, 7),
                ),
                (
                    vec![Value::str("b"), Value::str("beta")],
                    Interval::of(3, 9),
                ),
                (
                    vec![Value::str("c"), Value::str("gamma")],
                    Interval::of(8, 10),
                ),
            ],
        )
        .unwrap();
        let s = TemporalRelation::from_rows(
            Schema::new(vec![
                Column::new("c", DataType::Int),
                Column::new("d", DataType::Str),
            ]),
            vec![
                (vec![Value::Int(1), Value::str("beta")], Interval::of(2, 5)),
                (vec![Value::Int(2), Value::str("beta")], Interval::of(3, 4)),
                (vec![Value::Int(3), Value::str("beta")], Interval::of(7, 9)),
            ],
        )
        .unwrap();
        // concat columns: r = (a,b,ts,te) s = (c,d,ts,te) → b = 1, d = 5.
        let theta = col(1).eq(col(5));
        let fast = aligned(&r, &s, Some(theta.clone()), &planner());
        // Expected (from walking Fig. 9/11):
        // r1: gap [1,2), ∩s1 [2,5), ∩s2 [3,4), tail [5,7)
        // r2: ∩s2 [3,4), ∩s1 [3,5), gap [5,7), ∩s3 [7,9)
        // r3: whole [8,10)
        let expected = TemporalRelation::from_rows(
            r.data_schema(),
            vec![
                (
                    vec![Value::str("a"), Value::str("beta")],
                    Interval::of(1, 2),
                ),
                (
                    vec![Value::str("a"), Value::str("beta")],
                    Interval::of(2, 5),
                ),
                (
                    vec![Value::str("a"), Value::str("beta")],
                    Interval::of(3, 4),
                ),
                (
                    vec![Value::str("a"), Value::str("beta")],
                    Interval::of(5, 7),
                ),
                (
                    vec![Value::str("b"), Value::str("beta")],
                    Interval::of(3, 4),
                ),
                (
                    vec![Value::str("b"), Value::str("beta")],
                    Interval::of(3, 5),
                ),
                (
                    vec![Value::str("b"), Value::str("beta")],
                    Interval::of(5, 7),
                ),
                (
                    vec![Value::str("b"), Value::str("beta")],
                    Interval::of(7, 9),
                ),
                (
                    vec![Value::str("c"), Value::str("gamma")],
                    Interval::of(8, 10),
                ),
            ],
        )
        .unwrap();
        assert!(fast.same_set(&expected), "got:\n{fast}");
        let slow = align_ref(&r, &s, &Theta::Predicate(theta)).unwrap();
        assert!(fast.same_set(&slow));
    }

    /// Two value-equivalent overlapping `r` tuples: the second one's
    /// intersection `[5, 10)` repeats the first one's last output, and is
    /// still an intersection of its own (Def. 10), so its sweep moves past
    /// it to the gap `[10, 12)`. Under every join method.
    #[test]
    fn value_equivalent_r_tuples_are_aligned_independently() {
        let ints = |name: &str, rows: &[(i64, i64, i64)]| {
            TemporalRelation::from_rows(
                Schema::new(vec![Column::qualified(name, "k", DataType::Int)]),
                rows.iter()
                    .map(|&(k, s, e)| (vec![Value::Int(k)], Interval::of(s, e)))
                    .collect(),
            )
            .unwrap()
        };
        let r = ints("r", &[(1, 0, 10), (1, 5, 20)]);
        let s = ints("s", &[(7, 5, 10), (8, 12, 20)]);
        let slow = align_ref(&r, &s, &Theta::True).unwrap();
        let want = ints(
            "r",
            &[(1, 0, 5), (1, 5, 10), (1, 5, 10), (1, 10, 12), (1, 12, 20)],
        );
        assert!(slow.same_set(&want), "reference:\n{slow}");
        for config in [PlannerConfig::all_enabled(), PlannerConfig::nestloop_only()] {
            let fast = aligned(&r, &s, None, &Planner::new(config));
            assert_eq!(fast.sorted().rel().rows(), slow.sorted().rel().rows());
        }
    }

    #[test]
    fn normalize_matches_reference() {
        let r = rel("r", &[("a", 0, 10), ("b", 2, 8), ("a", 12, 15)]);
        let s = rel("s", &[("a", 1, 3), ("b", 4, 6), ("a", 5, 9), ("a", 20, 22)]);
        // N_{} — every s tuple splits every r tuple.
        let fast = normalized(&r, &s, &[], &planner());
        let slow = normalize_ref(&r, &s, &[]).unwrap();
        assert!(fast.same_set(&slow), "fast:\n{fast}\nslow:\n{slow}");
        // N_{v} — only same-letter tuples split.
        let fast = normalized(&r, &s, &[(0, 0)], &planner());
        let slow = normalize_ref(&r, &s, &[(0, 0)]).unwrap();
        assert!(fast.same_set(&slow), "fast:\n{fast}\nslow:\n{slow}");
    }

    #[test]
    fn self_normalization_matches_paper_fig3() {
        let r = rel("r", &[("ann", 1, 8), ("joe", 2, 6), ("ann", 8, 12)]);
        let fast = normalized(&r, &r, &[], &planner());
        let slow = self_normalize_ref(&r, &[]).unwrap();
        assert!(fast.same_set(&slow), "fast:\n{fast}\nslow:\n{slow}");
        assert_eq!(fast.len(), 5); // Fig. 3 has five result tuples
    }

    #[test]
    fn sweep_reerrors_cleanly_after_input_error() {
        // An input that yields one tuple, then fails: the error must
        // surface on every poll (no panic on re-poll — the sweep puts the
        // taken tuple back before propagating).
        struct FailingInput {
            schema: Schema,
            emitted: bool,
        }
        impl FailingInput {
            fn row() -> Row {
                Row::new(vec![
                    Value::Int(1),
                    Value::Int(0),
                    Value::Int(10),
                    Value::Null,
                    Value::Null,
                ])
            }
        }
        impl ExecNode for FailingInput {
            fn schema(&self) -> &Schema {
                &self.schema
            }
            // The failure arrives on the *second* pull — mid-group, after
            // the sweep has taken its current tuple.
            fn next_batch(&mut self, _state: &ExecutionState) -> EngineResult<Option<RowBatch>> {
                if !self.emitted {
                    self.emitted = true;
                    Ok(Some(RowBatch::from_rows(
                        self.schema.clone(),
                        &[Self::row()],
                    )))
                } else {
                    Err(EngineError::Internal("input failed".into()))
                }
            }
        }
        let out_schema = Schema::new(vec![
            Column::new("v", DataType::Int),
            Column::new("ts", DataType::Int),
            Column::new("te", DataType::Int),
        ]);
        let mut exec = {
            let in_schema = Schema::new(vec![
                Column::new("v", DataType::Int),
                Column::new("ts", DataType::Int),
                Column::new("te", DataType::Int),
                Column::new("__p1", DataType::Int),
                Column::new("__p2", DataType::Int),
            ]);
            AdjustmentExec::new(
                Box::new(FailingInput {
                    schema: in_schema,
                    emitted: false,
                }),
                out_schema,
                AdjustMode::Align,
                3,
                Some(4),
            )
        };
        let state = ExecutionState::default();
        assert!(exec.next_batch(&state).is_err());
        assert!(exec.next_batch(&state).is_err(), "re-poll must re-error");
    }

    #[test]
    fn adjustment_handles_empty_inputs() {
        let r = rel("r", &[]);
        let s = rel("s", &[("x", 0, 5)]);
        let out = aligned(&r, &s, None, &planner());
        assert!(out.is_empty());
        let out = normalized(&s, &r, &[], &planner());
        assert!(out.same_set(&s)); // nothing to split against
    }

    #[test]
    fn alignment_cardinality_respects_lemma1() {
        let r = rel("r", &[("a", 0, 30), ("b", 5, 25), ("c", 10, 20)]);
        let s = rel(
            "s",
            &[
                ("x", 2, 4),
                ("y", 6, 9),
                ("z", 11, 14),
                ("w", 16, 23),
                ("v", 26, 28),
            ],
        );
        let out = aligned(&r, &s, None, &planner());
        let (n, m) = (r.len() as i64, s.len() as i64);
        assert!((out.len() as i64) <= 2 * n * m + n, "|out| = {}", out.len());
    }

    #[test]
    fn join_method_switches_do_not_change_results() {
        let r = rel("r", &[("a", 0, 10), ("b", 3, 12), ("a", 15, 20)]);
        let s = rel("s", &[("a", 2, 6), ("b", 4, 8), ("a", 9, 18)]);
        let theta = col(0).eq(col(3));
        let reference = aligned(
            &r,
            &s,
            Some(theta.clone()),
            &Planner::new(PlannerConfig::nestloop_only()),
        );
        for config in [PlannerConfig::all_enabled(), PlannerConfig::no_merge()] {
            let out = aligned(&r, &s, Some(theta.clone()), &Planner::new(config));
            assert!(out.same_set(&reference));
        }
    }

    #[test]
    fn plan_rejects_theta_out_of_range() {
        let r = rel("r", &[("a", 0, 1)]);
        let s = rel("s", &[("b", 0, 1)]);
        let res = align_plan(
            LogicalPlan::inline_scan(r.rel().clone()),
            LogicalPlan::inline_scan(s.rel().clone()),
            Some(col(42).eq(col(0))),
        );
        assert!(res.is_err());
    }

    #[test]
    fn normalize_rejects_bad_grouping() {
        let r = rel("r", &[("a", 0, 1)]);
        let s = rel("s", &[("b", 0, 1)]);
        assert!(normalize_plan(
            LogicalPlan::inline_scan(r.rel().clone()),
            LogicalPlan::inline_scan(s.rel().clone()),
            &[(0, 7)],
        )
        .is_err());
    }
}
