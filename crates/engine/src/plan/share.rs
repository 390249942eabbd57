//! Evaluate a repeated subplan once.
//!
//! The paper's reduction rules repeat their operands: `r ⟗ᵀ s` is
//! `α((r Φθ s) ⟗ (s Φθ r))`, so a self outer join written out in SQL
//! aligns the same relation with itself twice, and a group-based operator
//! normalizes its input against itself. Before the rewrites run, the
//! planner finds every *composed* subplan that occurs more than once in a
//! statement with the same computation and puts it behind one
//! [`SpoolNode`]: it runs once and every occurrence reads its result
//! (Zhou, Larson, Freytag & Lehner, SIGMOD 2007, on exploiting similar
//! subexpressions).
//!
//! * **Composed** means anything [`cheap_to_rescan`] rejects. A leaf scan,
//!   or a filter or projection over one, re-executes more cheaply than it
//!   materializes, and stays unshared: a spool would hold a whole table.
//! * **The same computation** means equal node kinds, equal positional
//!   expressions, join and set-operation kinds, column types and table
//!   names, the same inline relation (`Arc` identity), and extension nodes
//!   that say so through [`ExtensionNode::same_computation`]. Column names
//!   and qualifiers do not count: each occurrence keeps its own, through a
//!   renaming projection over the spool when they differ.
//! * The largest repeated subtree is shared first, then the walk repeats
//!   on the result, so a subtree repeated only inside a shared one is not
//!   shared again while one repeated elsewhere too still is.
//!
//! Candidates are bucketed by a structural hash and compared exactly
//! within a bucket. A plan with fewer than two composed nodes — every
//! point read — costs one hashing walk and no comparison.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use crate::expr::Expr;
use crate::hashing::FxHasher;
use crate::plan::logical::{ExtensionNode, LogicalPlan};
use crate::plan::spool::{is_spool, SpoolNode};
use crate::schema::Schema;

/// Is this subtree cheap to execute more than once? Leaf scans share their
/// relation, a spool serves its materialization, and a pipelined
/// filter/projection over either re-evaluates a few expressions per row —
/// cheaper than materializing, and it keeps the subtree transparent to
/// filter pushdown. Everything else is *composed*, and shared when
/// repeated.
pub fn cheap_to_rescan(plan: &LogicalPlan) -> bool {
    match plan {
        LogicalPlan::TableScan { .. } | LogicalPlan::InlineScan { .. } => true,
        LogicalPlan::Filter { input, .. } | LogicalPlan::Project { input, .. } => {
            cheap_to_rescan(input)
        }
        LogicalPlan::Extension { node } => is_spool(node.as_ref()),
        _ => false,
    }
}

/// `plan` with each composed subplan it repeats evaluated once, or `None`
/// when it repeats none.
pub(crate) fn share_repeated(plan: &LogicalPlan) -> Option<LogicalPlan> {
    let mut shared: Option<LogicalPlan> = None;
    loop {
        let current = shared.as_ref().unwrap_or(plan);
        let Some(occurrences) = largest_repeated(current) else {
            return shared;
        };
        let spool = SpoolNode::shared(occurrences[0].clone());
        let targets = occurrences.iter().map(|&p| address(p)).collect();
        let mut rebuilt = current.clone();
        Rebuild {
            targets: &targets,
            spool: &spool,
            nodes: HashMap::new(),
        }
        .replace(current, &mut rebuilt);
        shared = Some(rebuilt);
    }
}

fn address(plan: &LogicalPlan) -> usize {
    plan as *const LogicalPlan as usize
}

fn node_address(node: &Arc<dyn ExtensionNode>) -> usize {
    Arc::as_ptr(node) as *const u8 as usize
}

/// The occurrences of the largest composed subplan `plan` evaluates more
/// than once, if there is one.
fn largest_repeated(plan: &LogicalPlan) -> Option<Vec<&LogicalPlan>> {
    let mut walk = Walk::default();
    walk.visit(plan);
    if walk.composed.len() < 2 {
        return None;
    }
    // Ordered, so that which of two equally large repeats goes first does
    // not change from run to run.
    let mut buckets: BTreeMap<u64, Vec<(&LogicalPlan, usize)>> = BTreeMap::new();
    for (p, hash, size) in walk.composed {
        buckets.entry(hash).or_default().push((p, size));
    }
    let mut best: Option<(usize, Vec<&LogicalPlan>)> = None;
    for bucket in buckets.into_values().filter(|b| b.len() > 1) {
        // Split the bucket into classes of equal subplans.
        let mut classes: Vec<(usize, Vec<&LogicalPlan>)> = Vec::new();
        for (p, size) in bucket {
            match classes.iter_mut().find(|(_, c)| same(c[0], p)) {
                Some((_, class)) => class.push(p),
                None => classes.push((size, vec![p])),
            }
        }
        for (size, class) in classes.into_iter().filter(|(_, c)| c.len() > 1) {
            if best.as_ref().is_none_or(|(s, _)| size > *s) {
                best = Some((size, class));
            }
        }
    }
    best.map(|(_, class)| class)
}

/// A walk that hashes every node and lists the composed ones.
#[derive(Default)]
struct Walk<'a> {
    /// Each composed node: the node, its structural hash, its node count.
    composed: Vec<(&'a LogicalPlan, u64, usize)>,
    /// The hash and size of each spool met: a spool's input runs once
    /// however often the spool occurs, so it is walked once.
    spools: HashMap<usize, (u64, usize)>,
}

impl<'a> Walk<'a> {
    fn visit(&mut self, plan: &'a LogicalPlan) -> (u64, usize) {
        let spool = match plan {
            LogicalPlan::Extension { node } if is_spool(node.as_ref()) => {
                let key = node_address(node);
                if let Some(&seen) = self.spools.get(&key) {
                    return seen;
                }
                Some(key)
            }
            _ => None,
        };
        let mut h = FxHasher::default();
        hash_node(plan, &mut h);
        let mut size = 1;
        for input in plan.children() {
            let (ih, is) = self.visit(input);
            h.write_u64(ih);
            size += is;
        }
        let out = (h.finish(), size);
        match spool {
            Some(key) => {
                self.spools.insert(key, out);
            }
            None if !cheap_to_rescan(plan) => self.composed.push((plan, out.0, size)),
            None => {}
        }
        out
    }
}

/// Hash what [`same_node`] compares of one node (its inputs aside).
fn hash_node(plan: &LogicalPlan, h: &mut FxHasher) {
    std::mem::discriminant(plan).hash(h);
    let types = |s: &Schema, h: &mut FxHasher| s.cols().iter().for_each(|c| c.dtype.hash(h));
    match plan {
        LogicalPlan::TableScan { name, schema } => {
            name.hash(h);
            types(schema, h);
        }
        LogicalPlan::InlineScan { rel } => (Arc::as_ptr(rel) as usize).hash(h),
        LogicalPlan::Filter { predicate, .. } => predicate.hash(h),
        LogicalPlan::Project { exprs, schema, .. } => {
            exprs.hash(h);
            types(schema, h);
        }
        LogicalPlan::Aggregate {
            group,
            aggs,
            schema,
            ..
        } => {
            group.hash(h);
            aggs.hash(h);
            types(schema, h);
        }
        LogicalPlan::Sort { keys, .. } => keys.hash(h),
        LogicalPlan::Distinct { .. } => {}
        LogicalPlan::Join {
            join_type,
            condition,
            ..
        } => {
            join_type.hash(h);
            condition.hash(h);
        }
        LogicalPlan::SetOp { kind, .. } => kind.hash(h),
        LogicalPlan::Limit { n, .. } => n.hash(h),
        LogicalPlan::Extension { node } => {
            node.name().hash(h);
            types(&node.schema(), h);
        }
    }
}

fn same_types(a: &Schema, b: &Schema) -> bool {
    a.len() == b.len()
        && a.cols()
            .iter()
            .zip(b.cols())
            .all(|(x, y)| x.dtype == y.dtype)
}

/// Do `a` and `b` compute the same relation, up to column names?
fn same(a: &LogicalPlan, b: &LogicalPlan) -> bool {
    if let (LogicalPlan::Extension { node: x }, LogicalPlan::Extension { node: y }) = (a, b) {
        if node_address(x) == node_address(y) {
            return true;
        }
    }
    let (ia, ib) = (a.children(), b.children());
    same_node(a, b) && ia.len() == ib.len() && ia.iter().zip(&ib).all(|(x, y)| same(x, y))
}

/// The node-local half of [`same`].
fn same_node(a: &LogicalPlan, b: &LogicalPlan) -> bool {
    use LogicalPlan as P;
    match (a, b) {
        (P::TableScan { name: n, schema: s }, P::TableScan { name: m, schema: t }) => {
            n == m && same_types(s, t)
        }
        (P::InlineScan { rel: r }, P::InlineScan { rel: q }) => Arc::ptr_eq(r, q),
        (P::Filter { predicate: p, .. }, P::Filter { predicate: q, .. }) => p == q,
        (
            P::Project {
                exprs: e,
                schema: s,
                ..
            },
            P::Project {
                exprs: f,
                schema: t,
                ..
            },
        ) => e == f && same_types(s, t),
        (
            P::Aggregate {
                group: g,
                aggs: a,
                schema: s,
                ..
            },
            P::Aggregate {
                group: h,
                aggs: b,
                schema: t,
                ..
            },
        ) => g == h && a == b && same_types(s, t),
        (P::Sort { keys: k, .. }, P::Sort { keys: l, .. }) => k == l,
        (P::Distinct { .. }, P::Distinct { .. }) => true,
        (
            P::Join {
                join_type: j,
                condition: c,
                ..
            },
            P::Join {
                join_type: k,
                condition: d,
                ..
            },
        ) => j == k && c == d,
        (P::SetOp { kind: k, .. }, P::SetOp { kind: l, .. }) => k == l,
        (P::Limit { n, .. }, P::Limit { n: m, .. }) => n == m,
        (P::Extension { node: x }, P::Extension { node: y }) => {
            x.name() == y.name()
                && same_types(&x.schema(), &y.schema())
                && x.same_computation(y.as_ref())
        }
        _ => false,
    }
}

/// The mutable children of a plan node, except an extension node's (they
/// sit behind its shared `Arc`).
fn children_mut(plan: &mut LogicalPlan) -> Vec<&mut LogicalPlan> {
    match plan {
        LogicalPlan::TableScan { .. }
        | LogicalPlan::InlineScan { .. }
        | LogicalPlan::Extension { .. } => vec![],
        LogicalPlan::Filter { input, .. }
        | LogicalPlan::Project { input, .. }
        | LogicalPlan::Aggregate { input, .. }
        | LogicalPlan::Sort { input, .. }
        | LogicalPlan::Distinct { input }
        | LogicalPlan::Limit { input, .. } => vec![input],
        LogicalPlan::Join { left, right, .. } | LogicalPlan::SetOp { left, right, .. } => {
            vec![left, right]
        }
    }
}

/// Replaces every node of a plan at one of `targets` by `spool`.
struct Rebuild<'a> {
    targets: &'a HashSet<usize>,
    spool: &'a LogicalPlan,
    /// Extension nodes already rebuilt, by the original's address: a node
    /// that occurs twice (one `Arc`) stays one node.
    nodes: HashMap<usize, Arc<dyn ExtensionNode>>,
}

impl Rebuild<'_> {
    /// Make `copy`, a clone of `orig`, `orig` with its targets replaced;
    /// whether anything changed.
    fn replace(&mut self, orig: &LogicalPlan, copy: &mut LogicalPlan) -> bool {
        if self.targets.contains(&address(orig)) {
            *copy = self.occurrence(orig.schema());
            return true;
        }
        let LogicalPlan::Extension { node } = orig else {
            let pairs = orig.children().into_iter().zip(children_mut(copy));
            return pairs.fold(false, |changed, (o, c)| self.replace(o, c) | changed);
        };
        let key = node_address(node);
        let done = match self.nodes.get(&key) {
            Some(done) => Arc::clone(done),
            None => {
                let mut inputs: Vec<LogicalPlan> = node.inputs().into_iter().cloned().collect();
                let pairs = node.inputs().into_iter().zip(&mut inputs);
                let done = match pairs.fold(false, |changed, (o, c)| self.replace(o, c) | changed) {
                    true => node.with_new_inputs(inputs),
                    false => Arc::clone(node),
                };
                self.nodes.insert(key, Arc::clone(&done));
                done
            }
        };
        let changed = node_address(&done) != key;
        *copy = LogicalPlan::extension(done);
        changed
    }

    /// The spool under the names of an occurrence with schema `schema`.
    fn occurrence(&self, schema: Schema) -> LogicalPlan {
        if self.spool.schema() == schema {
            return self.spool.clone();
        }
        LogicalPlan::Project {
            input: Box::new(self.spool.clone()),
            exprs: (0..schema.len()).map(Expr::Col).collect(),
            schema,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Catalog;
    use crate::expr::{col, lit};
    use crate::plan::{JoinType, Planner, SetOpKind};
    use crate::relation::Relation;
    use crate::schema::{Column, DataType};
    use crate::value::Value;

    fn rel() -> Relation {
        Relation::from_values(
            Schema::new(vec![
                Column::new("a", DataType::Int),
                Column::new("b", DataType::Int),
            ]),
            (0..6)
                .map(|i| vec![Value::Int(i % 3), Value::Int(i)])
                .collect(),
        )
        .unwrap()
    }

    fn table() -> LogicalPlan {
        LogicalPlan::table_scan("t", rel().schema().clone())
    }

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.register("t", rel()).unwrap();
        c.register("u", rel()).unwrap();
        c
    }

    /// A composed subplan: the distinct values of `a` with `b > 1`.
    fn composed(source: LogicalPlan, bound: i64) -> LogicalPlan {
        source
            .filter(col(1).gt(lit(bound)))
            .project_cols(&[0])
            .distinct()
    }

    fn spools(plan: &LogicalPlan) -> usize {
        let mut seen = HashSet::new();
        fn walk(p: &LogicalPlan, seen: &mut HashSet<usize>) {
            if let LogicalPlan::Extension { node } = p {
                if is_spool(node.as_ref()) && !seen.insert(node_address(node)) {
                    return;
                }
            }
            p.children().into_iter().for_each(|i| walk(i, seen));
        }
        walk(plan, &mut seen);
        seen.len()
    }

    /// `composed(source, bound)` written another way: the same rows, but
    /// not the same computation, so it is never shared with it.
    fn unshared(source: LogicalPlan, bound: i64) -> LogicalPlan {
        source
            .filter(col(1).ge(lit(bound + 1)))
            .project_cols(&[0])
            .distinct()
    }

    fn run(plan: &LogicalPlan) -> Relation {
        Planner::default().run(plan, &catalog()).unwrap()
    }

    #[test]
    fn a_repeated_composed_subplan_runs_once_under_its_own_names() {
        let x = composed(table(), 1);
        let rename = |p: LogicalPlan| p.project_named(vec![(col(0), "y")]).unwrap();
        // The renaming projection over the second occurrence is cheap: the
        // repeated composed subplan is `x` itself.
        let plan = x
            .clone()
            .join(rename(x), JoinType::Inner, Some(col(0).eq(col(1))));
        let shared = share_repeated(&plan).expect("x repeats");
        assert_eq!(spools(&shared), 1, "{}", shared.explain());
        assert_eq!(shared.schema().names(), vec!["a", "y"]);
        let apart = composed(table(), 1).join(
            rename(unshared(table(), 1)),
            JoinType::Inner,
            Some(col(0).eq(col(1))),
        );
        assert!(share_repeated(&apart).is_none());
        assert!(run(&shared).same_bag(&run(&apart)));
    }

    #[test]
    fn different_computations_and_leaves_stay_unshared() {
        let u = || LogicalPlan::table_scan("u", rel().schema().clone());
        let leaf = || table().filter(col(0).gt(lit(0i64)));
        let pairs = [
            ("two tables", composed(table(), 1), composed(u(), 1)),
            (
                "a differing literal",
                composed(table(), 1),
                composed(table(), 2),
            ),
            ("leaf scans", leaf(), leaf()),
        ];
        for (what, l, r) in pairs {
            let plan = l.join(r, JoinType::Inner, None);
            assert!(share_repeated(&plan).is_none(), "{what}");
        }
        // Joins of different kinds differ; only `x` (four times) is shared.
        let x = composed(table(), 1);
        let join = |t| x.clone().join(x.clone(), t, None);
        let plan = join(JoinType::Inner).set_op(SetOpKind::Union, join(JoinType::Left));
        let shared = share_repeated(&plan).expect("x repeats");
        assert_eq!(spools(&shared), 1, "{}", shared.explain());
    }

    #[test]
    fn the_largest_repeat_is_shared_and_inner_repeats_elsewhere_too() {
        let y = |x: &dyn Fn() -> LogicalPlan| x().join(x(), JoinType::Inner, None).distinct();
        let x = || composed(table(), 1);
        // `y` twice (holding `x` twice each) and `x` once more on its own.
        let plan = y(&x)
            .join(y(&x), JoinType::Inner, None)
            .join(x(), JoinType::Inner, None);
        let shared = share_repeated(&plan).expect("y repeats");
        // One spool for `y`; `x` is still read twice inside it and once
        // outside, so it is shared too.
        assert_eq!(spools(&shared), 2, "{}", shared.explain());
        // A second pass finds nothing more.
        assert!(share_repeated(&shared).is_none());
        let apart = y(&x)
            .join(y(&|| unshared(table(), 1)), JoinType::Inner, None)
            .join(unshared(table(), 1), JoinType::Inner, None);
        assert!(run(&shared).same_bag(&run(&apart)));
    }

    #[test]
    fn an_existing_spool_is_a_leaf() {
        let s = SpoolNode::shared(composed(table(), 1));
        let plan = s.clone().join(s, JoinType::Inner, None);
        assert!(share_repeated(&plan).is_none());
    }
}
