//! Physical plans: the engine's "plan tree" with concrete algorithm
//! choices, executable into a tree of pull operators.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use std::sync::atomic::Ordering;
use std::time::Instant;

use crate::error::EngineResult;
use crate::exec::{
    collect, BoxedExec, DistinctExec, ExecutionState, FilterExec, HashAggregateExec, HashJoinExec,
    HashSetOpExec, InstrumentedExec, IntervalJoinExec, LimitExec, MergeJoinExec,
    NestedLoopJoinExec, OperatorStats, ProjectExec, RangeSpec, SeqScanExec, SortExec,
    StorageScanExec,
};
use crate::expr::{AggCall, Expr, JoinPred, SortKey};
use crate::plan::cost::{CostModel, PlanStats};
use crate::plan::logical::ExtensionNode;
use crate::plan::spool::SpoolExec;
use crate::plan::{JoinType, SetOpKind};
use crate::relation::Relation;
use crate::schema::Schema;
use crate::storage::{SlotRange, StoredTable, ZoneBounds, ALL_SLOTS};

/// A pruned-scan resolution: the slot ranges, ascending by page, that
/// survived zone-map / interval-index / key-filter pruning, the bounds
/// that selected them — which the scan applies once more, per record —
/// and how many pages the key filter alone dropped.
type PrunedScan = (Vec<SlotRange>, ZoneBounds, u64);

/// A physical (executable) plan.
#[derive(Debug, Clone)]
pub enum PhysicalPlan {
    SeqScan {
        rel: Arc<Relation>,
        label: String,
    },
    /// Streaming scan over a heap-file table: pages decode into batches
    /// through the table's buffer pool, never materializing the heap.
    /// With `bounds` set, the zone maps the interval index keeps prune
    /// pages whose min/max summaries cannot satisfy the bounds — checks in
    /// memory, no page read; the planner keeps the originating filter on
    /// top, so the over-approximate page set never changes results.
    StorageScan {
        table: Arc<StoredTable>,
        label: String,
        bounds: Option<ZoneBounds>,
    },
    /// Probe the table's in-memory interval index (entries sorted on
    /// valid-start, with a max-valid-end per block) for the page set that
    /// can overlap the bounds, then scan only those pages. Degrades to a
    /// zone-map sweep or a full scan when the GUCs turn the index off at
    /// execution time.
    IndexScan {
        table: Arc<StoredTable>,
        label: String,
        bounds: ZoneBounds,
    },
    Filter {
        input: Box<PhysicalPlan>,
        predicate: Expr,
    },
    Project {
        input: Box<PhysicalPlan>,
        exprs: Vec<Expr>,
        schema: Schema,
    },
    Sort {
        input: Box<PhysicalPlan>,
        keys: Vec<SortKey>,
    },
    HashAggregate {
        input: Box<PhysicalPlan>,
        group: Vec<Expr>,
        aggs: Vec<AggCall>,
        schema: Schema,
    },
    Distinct {
        input: Box<PhysicalPlan>,
    },
    NestedLoopJoin {
        left: Box<PhysicalPlan>,
        right: Box<PhysicalPlan>,
        join_type: JoinType,
        condition: Option<Expr>,
    },
    HashJoin {
        left: Box<PhysicalPlan>,
        right: Box<PhysicalPlan>,
        join_type: JoinType,
        keys: Vec<(usize, usize)>,
        residual: Option<Expr>,
    },
    /// Children are already wrapped in the required sorts by the planner.
    MergeJoin {
        left: Box<PhysicalPlan>,
        right: Box<PhysicalPlan>,
        join_type: JoinType,
        keys: Vec<(usize, usize)>,
        residual: Option<Expr>,
    },
    /// Sweep-based interval overlap join (opt-in; the paper's future-work
    /// extension). Sorts internally.
    IntervalJoin {
        left: Box<PhysicalPlan>,
        right: Box<PhysicalPlan>,
        join_type: JoinType,
        endpoints: (usize, usize, usize, usize), // (l_ts, l_te, r_ts, r_te)
        residual: Option<Expr>,
    },
    HashSetOp {
        kind: SetOpKind,
        left: Box<PhysicalPlan>,
        right: Box<PhysicalPlan>,
    },
    Limit {
        input: Box<PhysicalPlan>,
        n: usize,
    },
    Extension {
        node: Arc<dyn ExtensionNode>,
        children: Vec<PhysicalPlan>,
    },
    /// One occurrence of a shared materialization: every occurrence holds
    /// the same `Arc` of the planned input, which runs once per execution
    /// ([`crate::plan::SpoolNode`]).
    Spool {
        input: Arc<PhysicalPlan>,
    },
}

impl PhysicalPlan {
    /// Output schema.
    pub fn schema(&self) -> Schema {
        match self {
            PhysicalPlan::SeqScan { rel, .. } => rel.schema().clone(),
            PhysicalPlan::StorageScan { table, .. } | PhysicalPlan::IndexScan { table, .. } => {
                table.schema().clone()
            }
            PhysicalPlan::Filter { input, .. } => input.schema(),
            PhysicalPlan::Project { schema, .. } => schema.clone(),
            PhysicalPlan::Sort { input, .. } => input.schema(),
            PhysicalPlan::HashAggregate { schema, .. } => schema.clone(),
            PhysicalPlan::Distinct { input } => input.schema(),
            PhysicalPlan::NestedLoopJoin {
                left,
                right,
                join_type,
                ..
            } => {
                if join_type.emits_right() {
                    left.schema().concat(&right.schema())
                } else {
                    left.schema()
                }
            }
            PhysicalPlan::HashJoin {
                left,
                right,
                join_type,
                ..
            } => {
                if join_type.emits_right() {
                    left.schema().concat(&right.schema())
                } else {
                    left.schema()
                }
            }
            PhysicalPlan::MergeJoin { left, right, .. } => left.schema().concat(&right.schema()),
            PhysicalPlan::IntervalJoin { left, right, .. } => left.schema().concat(&right.schema()),
            PhysicalPlan::HashSetOp { left, .. } => left.schema(),
            PhysicalPlan::Limit { input, .. } => input.schema(),
            PhysicalPlan::Extension { node, .. } => node.schema(),
            PhysicalPlan::Spool { input } => input.schema(),
        }
    }

    /// Direct children in left-to-right order (empty for leaves) — the one
    /// place that knows each variant's child layout; every generic
    /// traversal below goes through it.
    pub fn children(&self) -> Vec<&PhysicalPlan> {
        match self {
            PhysicalPlan::SeqScan { .. }
            | PhysicalPlan::StorageScan { .. }
            | PhysicalPlan::IndexScan { .. } => vec![],
            PhysicalPlan::Filter { input, .. }
            | PhysicalPlan::Project { input, .. }
            | PhysicalPlan::Sort { input, .. }
            | PhysicalPlan::HashAggregate { input, .. }
            | PhysicalPlan::Distinct { input }
            | PhysicalPlan::Limit { input, .. } => vec![input],
            PhysicalPlan::NestedLoopJoin { left, right, .. }
            | PhysicalPlan::HashJoin { left, right, .. }
            | PhysicalPlan::MergeJoin { left, right, .. }
            | PhysicalPlan::IntervalJoin { left, right, .. }
            | PhysicalPlan::HashSetOp { left, right, .. } => vec![left, right],
            PhysicalPlan::Extension { children, .. } => children.iter().collect(),
            PhysicalPlan::Spool { input } => vec![input],
        }
    }

    /// Visit this tree in pre-order with each node's depth, entering the
    /// input of a shared spool once: under the occurrence that ran it when
    /// `state` instruments and one did, else under the first. `f` gets
    /// `false` for the other occurrences — the shared input runs once, so
    /// `EXPLAIN`, traces and tests see it once, and its time nests inside
    /// the occurrence whose pull it took.
    fn walk(&self, state: Option<&ExecutionState>, f: &mut impl FnMut(&PhysicalPlan, usize, bool)) {
        fn go(
            p: &PhysicalPlan,
            depth: usize,
            filler: &dyn Fn(usize) -> Option<usize>,
            seen: &mut HashSet<usize>,
            f: &mut impl FnMut(&PhysicalPlan, usize, bool),
        ) {
            let first = match p {
                PhysicalPlan::Spool { input } => {
                    let key = Arc::as_ptr(input) as usize;
                    match filler(key) {
                        Some(node) => node == p.node_key(),
                        None => seen.insert(key),
                    }
                }
                _ => true,
            };
            f(p, depth, first);
            if first {
                for c in p.children() {
                    go(c, depth + 1, filler, seen, f);
                }
            }
        }
        let ins = state.and_then(ExecutionState::instrumentation);
        let filler = |input| ins.and_then(|ins| ins.spool_filler(input));
        go(self, 0, &filler, &mut HashSet::new(), f)
    }

    /// Build the executor tree for one execution under `state`. Plans
    /// carry no per-execution state (a spool's cache lives in `state`'s
    /// registry), so the same plan can be executed repeatedly — each run
    /// under a fresh [`ExecutionState`] observes current table contents.
    pub fn execute(&self, state: &ExecutionState) -> EngineResult<BoxedExec> {
        self.build_subtree(state)
    }

    /// Recursive build entry: this node's operator over its children's,
    /// metered when the state instruments.
    fn build_subtree(&self, state: &ExecutionState) -> EngineResult<BoxedExec> {
        let exec = self.build_exec_tree(state)?;
        Ok(self.instrumented(exec, state))
    }

    /// This plan node's identity in the instrumentation registry: its
    /// address, stable for as long as the caller borrows the plan (which
    /// covers both execution and a subsequent `explain_analyze` render).
    fn node_key(&self) -> usize {
        self as *const PhysicalPlan as usize
    }

    /// Wrap `exec` in a metering shim when the state instruments; the
    /// no-instrumentation path returns `exec` untouched.
    fn instrumented(&self, exec: BoxedExec, state: &ExecutionState) -> BoxedExec {
        match state.instrumentation() {
            Some(ins) => Box::new(InstrumentedExec::new(exec, ins.op(self.node_key()))),
            None => exec,
        }
    }

    /// Box a storage scan, attaching this plan node's page ledger when
    /// the state instruments.
    fn boxed_scan(&self, scan: StorageScanExec, state: &ExecutionState) -> BoxedExec {
        match state.instrumentation() {
            Some(ins) => Box::new(scan.with_ledger(ins.op(self.node_key()))),
            None => Box::new(scan),
        }
    }

    /// The page set this scan should read, resolved against the table's
    /// zone maps and interval index under the execution-time GUC snapshot.
    /// `None` means "read everything" — either the node carries no bounds
    /// or every pruning structure is disabled/absent. The result is
    /// conservative: pages are only dropped when their zone or index
    /// evidence proves no row can match. Resolved page sets are clamped to
    /// the statement's heap snapshot, so a zone sweep or index probe that
    /// races a concurrent appender never hands the scan a page past the
    /// snapshot watermark.
    ///
    /// This runs while the executor tree is built, before any metered
    /// pull, so under instrumentation its time — an index probe can be
    /// most of a point query — is added to this scan's `OperatorStats`
    /// here. (Nodes above the scan time only their pulls and do not
    /// include it.)
    fn resolve_scan_pages(&self, state: &ExecutionState) -> EngineResult<Option<PrunedScan>> {
        let Some(ins) = state.instrumentation() else {
            return self.resolve_scan_pages_unmetered(state);
        };
        let started = Instant::now();
        let resolved = self.resolve_scan_pages_unmetered(state);
        ins.op(self.node_key())
            .nanos
            .fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
        resolved
    }

    fn resolve_scan_pages_unmetered(
        &self,
        state: &ExecutionState,
    ) -> EngineResult<Option<PrunedScan>> {
        let config = state.config();
        let (table, bounds, probe) = match self {
            PhysicalPlan::StorageScan {
                table,
                bounds: Some(bounds),
                ..
            } => (table, bounds, false),
            PhysicalPlan::IndexScan { table, bounds, .. } => {
                (table, bounds, config.enable_interval_index)
            }
            _ => return Ok(None),
        };
        let snap = state.snapshot_for(table);
        let probed = if probe {
            table.probe_index(bounds.ts_le, bounds.te_gt)?
        } else {
            None
        };
        // Without an index probe, the candidates are every page the
        // snapshot sees, whole: a zone sweep, or a full scan when zone
        // maps are off too.
        let mut pages = match probed {
            Some(mut pages) => {
                pages.retain_mut(|(p, slots)| {
                    *slots = snap.visible_slots(*p, slots.clone());
                    slots.start < slots.end
                });
                pages
            }
            None if config.enable_zonemaps => {
                (0..snap.visible_pages()).map(|p| (p, ALL_SLOTS)).collect()
            }
            None => return Ok(None),
        };
        // The index knows only ts/te; the zone maps and key filters also
        // know the key and the lower ts / upper te bounds.
        let key_filtered = if config.enable_zonemaps {
            table.admit_pages(&mut pages, bounds)?
        } else {
            0
        };
        Ok(Some((pages, *bounds, key_filtered)))
    }

    fn build_exec_tree(&self, state: &ExecutionState) -> EngineResult<BoxedExec> {
        Ok(match self {
            PhysicalPlan::SeqScan { rel, .. } => Box::new(SeqScanExec::new(rel.clone())),
            PhysicalPlan::StorageScan { table, .. } | PhysicalPlan::IndexScan { table, .. } => {
                // One statement snapshot, fixed here, before any page
                // list is resolved or any page is read.
                let snap = state.snapshot_for(table);
                match self.resolve_scan_pages(state)? {
                    Some((pages, bounds, key_filtered)) => {
                        // The one accounting site for page skips: every
                        // page the statement snapshot sees is either read
                        // or skipped, as on a full scan, which reads them
                        // all.
                        if let Some(ins) = state.instrumentation() {
                            let seen = snap.visible_pages() as usize;
                            let read = pages.chunk_by(|a, b| a.0 == b.0).count();
                            ins.op(self.node_key())
                                .note_pages_skipped((seen - read) as u64, key_filtered);
                        }
                        let scan =
                            StorageScanExec::with_page_list(table.clone(), snap, Arc::new(pages));
                        self.boxed_scan(scan.with_bounds(&bounds), state)
                    }
                    None => self.boxed_scan(StorageScanExec::new(table.clone(), snap), state),
                }
            }
            PhysicalPlan::Filter { input, predicate } => Box::new(FilterExec::new(
                input.build_subtree(state)?,
                predicate.clone(),
            )),
            PhysicalPlan::Project {
                input,
                exprs,
                schema,
            } => Box::new(ProjectExec::new(
                input.build_subtree(state)?,
                exprs.clone(),
                schema.clone(),
            )),
            PhysicalPlan::Sort { input, keys } => {
                Box::new(SortExec::new(input.build_subtree(state)?, keys.clone()))
            }
            PhysicalPlan::HashAggregate {
                input,
                group,
                aggs,
                schema,
            } => Box::new(HashAggregateExec::new(
                input.build_subtree(state)?,
                group.clone(),
                aggs.clone(),
                schema.clone(),
            )),
            PhysicalPlan::Distinct { input } => {
                Box::new(DistinctExec::new(input.build_subtree(state)?))
            }
            PhysicalPlan::NestedLoopJoin {
                left,
                right,
                join_type,
                condition,
            } => {
                let join = NestedLoopJoinExec::new(
                    left.build_subtree(state)?,
                    right.build_subtree(state)?,
                    *join_type,
                    condition.clone(),
                );
                match state.instrumentation() {
                    Some(ins) => Box::new(join.with_ledger(ins.op(self.node_key()))),
                    None => Box::new(join),
                }
            }
            PhysicalPlan::HashJoin {
                left,
                right,
                join_type,
                keys,
                residual,
            } => {
                let join = HashJoinExec::new(
                    left.build_subtree(state)?,
                    right.build_subtree(state)?,
                    keys.clone(),
                    residual.clone(),
                    *join_type,
                );
                match state.instrumentation() {
                    Some(ins) => Box::new(join.with_ledger(ins.op(self.node_key()))),
                    None => Box::new(join),
                }
            }
            PhysicalPlan::MergeJoin {
                left,
                right,
                join_type,
                keys,
                residual,
            } => Box::new(MergeJoinExec::new(
                left.build_subtree(state)?,
                right.build_subtree(state)?,
                keys.clone(),
                residual.clone(),
                *join_type,
            )),
            PhysicalPlan::IntervalJoin {
                left,
                right,
                join_type,
                endpoints,
                residual,
            } => Box::new(IntervalJoinExec::new(
                left.build_subtree(state)?,
                right.build_subtree(state)?,
                endpoints.0,
                endpoints.1,
                endpoints.2,
                endpoints.3,
                residual.clone(),
                *join_type,
            )),
            PhysicalPlan::HashSetOp { kind, left, right } => Box::new(HashSetOpExec::new(
                *kind,
                left.build_subtree(state)?,
                right.build_subtree(state)?,
            )?),
            PhysicalPlan::Limit { input, n } => {
                Box::new(LimitExec::new(input.build_subtree(state)?, *n))
            }
            PhysicalPlan::Extension { node, children } => {
                let mut built = Vec::with_capacity(children.len());
                for c in children {
                    built.push(c.build_subtree(state)?);
                }
                node.build_exec(built)?
            }
            // The input is built when the spool fills, by the occurrence
            // pulled first.
            PhysicalPlan::Spool { input } => Box::new(SpoolExec::new(input, self.node_key())),
        })
    }

    /// Execute and materialize the result, draining the executor tree
    /// through [`crate::exec::ExecNode::next_batch`].
    pub fn collect(&self, state: &ExecutionState) -> EngineResult<Relation> {
        collect(self.execute(state)?, state)
    }

    /// Estimated rows/cost for this subtree, as a plan of its own: the
    /// input of a spool it holds twice is costed once.
    pub fn stats(&self, model: &CostModel) -> PlanStats {
        self.estimate(model, &mut HashMap::new(), &mut |_, _| {})
    }

    /// Every node's estimate within this plan, by node address — what
    /// `EXPLAIN` prints. Each node is estimated as part of the whole plan:
    /// the first occurrence of a shared spool (left to right) carries its
    /// input's cost, a later one only the re-read of the materialized rows.
    fn estimates(&self, model: &CostModel) -> HashMap<usize, PlanStats> {
        let mut out = HashMap::new();
        self.estimate(model, &mut HashMap::new(), &mut |p, st| {
            out.insert(p.node_key(), st);
        });
        out
    }

    /// [`Self::stats`] with the spool inputs already costed in `costed`
    /// (by input address, with their estimates): the first occurrence of
    /// a shared input, left to right, costs it in full, and a later one
    /// the re-read of its rows. `note` hears every node's estimate.
    fn estimate(
        &self,
        model: &CostModel,
        costed: &mut HashMap<usize, PlanStats>,
        note: &mut impl FnMut(&PhysicalPlan, PlanStats),
    ) -> PlanStats {
        let mut est = |p: &PhysicalPlan| p.estimate(model, costed, note);
        let st = match self {
            PhysicalPlan::SeqScan { rel, .. } => model.scan(rel.len() as f64),
            // StorageScan keeps the page-blind estimate even when bounds
            // are attached: pruning narrows pages read, not rows emitted
            // (the filter above does the row-level work), and the legacy
            // shape is pinned by golden EXPLAIN output.
            PhysicalPlan::StorageScan { table, .. } => model.scan(table.row_count() as f64),
            PhysicalPlan::IndexScan { table, bounds, .. } => {
                let rows = table.row_count() as f64;
                let pages = (table.page_count() as f64).max(1.0);
                let sel = 0.33f64.powi(bounds.bound_count() as i32);
                // The probe tests `sel` of the entries, then reads `sel` of
                // the heap, at one cost unit a page plus the decode.
                let heap = pages + rows * model.cpu_tuple_cost;
                PlanStats::new(
                    (rows * sel).max(1.0),
                    sel * (rows * model.cpu_operator_cost + heap),
                )
            }
            PhysicalPlan::Filter { input, predicate } => model.filter(est(input), predicate),
            PhysicalPlan::Project { input, exprs, .. } => model.project(est(input), exprs.len()),
            PhysicalPlan::Sort { input, .. } => model.sort(est(input)),
            PhysicalPlan::HashAggregate {
                input, group, aggs, ..
            } => model.aggregate(est(input), group.len(), aggs.len()),
            PhysicalPlan::Distinct { input } => model.distinct(est(input)),
            PhysicalPlan::NestedLoopJoin {
                left,
                right,
                join_type,
                condition,
            } => {
                let (l, r) = (est(left), est(right));
                let rows = model.join_rows(
                    l,
                    r,
                    0,
                    join_type.emits_left_unmatched(),
                    join_type.emits_right_unmatched(),
                );
                let n_conj = condition.as_ref().map_or(0, |c| c.conjuncts().len());
                model.nested_loop_join(l, r, rows, n_conj)
            }
            PhysicalPlan::HashJoin {
                left,
                right,
                join_type,
                keys,
                ..
            } => {
                let (l, r) = (est(left), est(right));
                let rows = model.join_rows(
                    l,
                    r,
                    keys.len(),
                    join_type.emits_left_unmatched(),
                    join_type.emits_right_unmatched(),
                );
                model.hash_join(l, r, rows)
            }
            PhysicalPlan::MergeJoin {
                left,
                right,
                join_type,
                keys,
                ..
            } => {
                let (l, r) = (est(left), est(right));
                let rows = model.join_rows(
                    l,
                    r,
                    keys.len(),
                    join_type.emits_left_unmatched(),
                    join_type.emits_right_unmatched(),
                );
                model.merge_join(l, r, rows)
            }
            PhysicalPlan::IntervalJoin {
                left,
                right,
                join_type,
                ..
            } => {
                let (l, r) = (est(left), est(right));
                let rows = model.join_rows(
                    l,
                    r,
                    0,
                    join_type.emits_left_unmatched(),
                    join_type.emits_right_unmatched(),
                );
                // sort both sides + sweep
                model.merge_join(model.sort(l), model.sort(r), rows)
            }
            PhysicalPlan::HashSetOp { left, right, .. } => model.set_op(est(left), est(right)),
            PhysicalPlan::Limit { input, n } => model.limit(est(input), *n),
            PhysicalPlan::Extension { node, children } => {
                let stats: Vec<PlanStats> = children.iter().map(&mut est).collect();
                node.estimate(&stats, model)
            }
            PhysicalPlan::Spool { input } => {
                let key = Arc::as_ptr(input) as usize;
                match costed.get(&key) {
                    Some(input) => model.spool(PlanStats::new(input.rows, 0.0)),
                    None => {
                        let input = input.estimate(model, costed, note);
                        costed.insert(key, input);
                        model.spool(input)
                    }
                }
            }
        };
        note(self, st);
        st
    }

    /// Pretty-printed physical plan with row estimates (EXPLAIN).
    pub fn explain(&self) -> String {
        let estimates = self.estimates(&CostModel::default());
        let mut out = String::new();
        self.walk(None, &mut |p, depth, first| {
            let st = estimates[&p.node_key()];
            out.push_str(&format!(
                "{}{}  (rows≈{:.0} cost≈{:.2})\n",
                "  ".repeat(depth),
                p.label(first),
                st.rows,
                st.cost
            ));
        });
        out
    }

    /// [`Self::node_label`], with a spool occurrence whose shared input
    /// is printed under another occurrence marked so.
    fn label(&self, first: bool) -> String {
        match (self, first) {
            (PhysicalPlan::Spool { .. }, false) => "Spool (shared, input printed once)".to_string(),
            _ => self.node_label(),
        }
    }

    /// The head-line label of this node, shared by `EXPLAIN` and
    /// `EXPLAIN ANALYZE` so the two surfaces print identical trees.
    fn node_label(&self) -> String {
        match self {
            PhysicalPlan::SeqScan { rel, label } => {
                format!("SeqScan on {label} [{} rows]", rel.len())
            }
            PhysicalPlan::StorageScan {
                table,
                label,
                bounds,
            } => {
                let zone = match bounds {
                    Some(b) => format!(" using zonemap ({b})"),
                    None => String::new(),
                };
                format!(
                    "StorageScan on {label}{zone} [{} pages, {} rows]",
                    table.page_count(),
                    table.row_count()
                )
            }
            PhysicalPlan::IndexScan {
                table,
                label,
                bounds,
            } => format!(
                "IndexScan on {label} using interval index ({bounds}) [{} pages, {} rows]",
                table.page_count(),
                table.row_count()
            ),
            PhysicalPlan::Filter { input, predicate } => {
                format!("Filter: {}", predicate.display(Some(&input.schema())))
            }
            PhysicalPlan::Project { .. } => "Project".to_string(),
            PhysicalPlan::Sort { keys, .. } => format!("Sort ({} keys)", keys.len()),
            PhysicalPlan::HashAggregate { group, .. } => {
                format!("HashAggregate ({} group cols)", group.len())
            }
            PhysicalPlan::Distinct { .. } => "Distinct".to_string(),
            PhysicalPlan::NestedLoopJoin {
                left,
                right,
                join_type,
                condition,
            } => {
                let head = format!("NestedLoopJoin[{}]", join_type.name());
                match condition {
                    Some(c) => {
                        let combined = left.schema().concat(&right.schema());
                        format!("{head}: {}", c.display(Some(&combined)))
                    }
                    None => head,
                }
            }
            PhysicalPlan::HashJoin {
                left,
                right,
                join_type,
                keys,
                residual,
            } => {
                let head = format!("HashJoin[{}] on {} key(s)", join_type.name(), keys.len());
                let right_schema = right.schema();
                let residual = JoinPred::new(residual.clone());
                match RangeSpec::of(&residual, left.schema().len(), right_schema.len()) {
                    Some(range) => format!(
                        "{head} range-ordered on {}",
                        right_schema.col(range.col()).qualified_name()
                    ),
                    None => head,
                }
            }
            PhysicalPlan::MergeJoin {
                join_type, keys, ..
            } => format!("MergeJoin[{}] on {} key(s)", join_type.name(), keys.len()),
            PhysicalPlan::IntervalJoin { join_type, .. } => {
                format!("IntervalJoin[{}] (sweep)", join_type.name())
            }
            PhysicalPlan::HashSetOp { kind, .. } => format!("HashSetOp[{}]", kind.name()),
            PhysicalPlan::Limit { n, .. } => format!("Limit {n}"),
            PhysicalPlan::Extension { node, .. } => node.explain(),
            PhysicalPlan::Spool { .. } => "Spool (shared materialization)".to_string(),
        }
    }

    /// Render this (already executed) plan annotated with the actual
    /// per-operator counters the instrumented `state` collected: rows and
    /// batches emitted, wall time inside the operator (inclusive of
    /// children), pages read/skipped and tuples checked for storage scans,
    /// and the candidates a join tested. The tree shape and estimates are exactly [`Self::explain`]'s,
    /// so plan-shape assertions hold across both.
    ///
    /// `state` must be the state the plan was executed under — operator
    /// identity is the plan node address, so a different plan clone (or a
    /// fresh state) renders every node as `never executed`.
    pub fn explain_analyze(&self, state: &ExecutionState) -> String {
        let estimates = self.estimates(&CostModel::default());
        let mut out = String::new();
        self.walk(Some(state), &mut |p, depth, first| {
            let st = estimates[&p.node_key()];
            out.push_str(&format!(
                "{}{}  (rows≈{:.0} cost≈{:.2}){}\n",
                "  ".repeat(depth),
                p.label(first),
                st.rows,
                st.cost,
                p.actual(state)
            ));
        });
        out
    }

    /// The `(actual …)` annotation of this node under `state`.
    fn actual(&self, state: &ExecutionState) -> String {
        match state
            .instrumentation()
            .and_then(|ins| ins.get(self.node_key()))
        {
            Some(op) => {
                let pages_read = op.pages_read.load(Ordering::Relaxed);
                let pages_skipped = op.pages_skipped.load(Ordering::Relaxed);
                let is_scan = pages_read > 0 || pages_skipped > 0;
                let mut s = format!(" (actual rows={}", op.rows.load(Ordering::Relaxed));
                if is_scan {
                    // Beside the rows the scan emitted, the tuples its
                    // record-level bounds were tested on.
                    s.push_str(&format!(
                        " tuples_checked={}",
                        op.tuples_checked.load(Ordering::Relaxed)
                    ));
                }
                if matches!(
                    self,
                    PhysicalPlan::HashJoin { .. } | PhysicalPlan::NestedLoopJoin { .. }
                ) {
                    // Beside the rows the join emitted, the right-side
                    // candidates its left rows were tested against.
                    s.push_str(&format!(
                        " candidates={}",
                        op.candidates_checked.load(Ordering::Relaxed)
                    ));
                }
                s.push_str(&format!(
                    " batches={} time={:.3}ms",
                    op.batches.load(Ordering::Relaxed),
                    op.millis(),
                ));
                if is_scan {
                    s.push_str(&format!(
                        " pages_read={pages_read} pages_skipped={pages_skipped}"
                    ));
                    let key_filtered = op.key_filtered.load(Ordering::Relaxed);
                    if key_filtered > 0 {
                        s.push_str(&format!(" key_filtered={key_filtered}"));
                    }
                }
                s.push(')');
                s
            }
            None => " (never executed)".to_string(),
        }
    }

    /// `(depth, label, stats)` for every node of this tree that executed
    /// under `state`, in explain (pre-)order — powers operator trace spans
    /// and slow-query breakdowns without re-rendering the whole tree.
    pub fn operator_stats(
        &self,
        state: &ExecutionState,
    ) -> Vec<(usize, String, Arc<OperatorStats>)> {
        let mut out = Vec::new();
        let Some(ins) = state.instrumentation() else {
            return out;
        };
        self.walk(Some(state), &mut |p, depth, _| {
            if let Some(op) = ins.get(p.node_key()) {
                out.push((depth, p.node_label(), op));
            }
        });
        out
    }

    /// Count the nodes of this (single) physical tree satisfying `pred` —
    /// used by tests asserting that composed temporal queries plan without
    /// intermediate materialization barriers. A shared spool's input
    /// counts once.
    pub fn count_nodes(&self, pred: &dyn Fn(&PhysicalPlan) -> bool) -> usize {
        let mut n = 0;
        self.walk(None, &mut |p, _, _| n += usize::from(pred(p)));
        n
    }

    /// The name of the join algorithm at the root, if the root is a join —
    /// convenient for tests asserting planner choices (Fig. 13).
    pub fn root_join_algorithm(&self) -> Option<&'static str> {
        match self {
            PhysicalPlan::NestedLoopJoin { .. } => Some("nestloop"),
            PhysicalPlan::HashJoin { .. } => Some("hash"),
            PhysicalPlan::MergeJoin { .. } => Some("merge"),
            PhysicalPlan::IntervalJoin { .. } => Some("interval"),
            _ => None,
        }
    }

    /// Find the first join algorithm in a pre-order walk of the plan.
    pub fn first_join_algorithm(&self) -> Option<&'static str> {
        if let Some(a) = self.root_join_algorithm() {
            return Some(a);
        }
        self.children()
            .into_iter()
            .find_map(|c| c.first_join_algorithm())
    }
}
