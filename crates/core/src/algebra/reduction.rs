//! Plan-level reduction rules (Table 2 of the paper).
//!
//! Each function takes logical plans whose last two columns are the
//! interval (the temporal-relation convention) and returns the reduced
//! nontemporal plan. These are used both by [`crate::algebra::TemporalPlan`]
//! and by the SQL front end / baselines for composition.

use temporal_engine::prelude::*;

use crate::error::{TemporalError, TemporalResult};
use crate::primitives::absorb::AbsorbNode;
use crate::primitives::adjustment::{align_plan, normalize_plan};

/// Grouping pairs `(i, i)` for self-normalization `N_B(r; r)`.
pub fn self_pairs(b: &[usize]) -> Vec<(usize, usize)> {
    b.iter().map(|&i| (i, i)).collect()
}

/// σᵀ_θ(r) = σ_θ(r) — Table 2, Selection.
pub fn reduce_selection(r: LogicalPlan, predicate: Expr) -> LogicalPlan {
    r.filter(predicate)
}

/// πᵀ_B(r) = π_{B,T}(N_B(r; r)) — Table 2, Projection (set semantics).
pub fn reduce_projection(r: LogicalPlan, b: &[usize]) -> TemporalResult<LogicalPlan> {
    let width = r.schema().len();
    let data_width = width - 2;
    for &i in b {
        if i >= data_width {
            return Err(TemporalError::Incompatible(format!(
                "projection attribute {i} is not a data column (width {data_width})"
            )));
        }
    }
    let normalized = normalize_plan(r.clone(), r, &self_pairs(b))?;
    let mut idxs: Vec<usize> = b.to_vec();
    idxs.push(width - 2);
    idxs.push(width - 1);
    Ok(normalized.project_cols(&idxs).distinct())
}

/// `_Bϑᵀ_F(r) = _{B,T}ϑ_F(N_B(r; r))` — Table 2, Aggregation.
/// Output schema: `B…, aggregates…, ts, te`.
pub fn reduce_aggregation(
    r: LogicalPlan,
    b: &[usize],
    aggs: Vec<(AggCall, String)>,
) -> TemporalResult<LogicalPlan> {
    let schema = r.schema();
    let width = schema.len();
    let data_width = width - 2;
    for &i in b {
        if i >= data_width {
            return Err(TemporalError::Incompatible(format!(
                "grouping attribute {i} is not a data column (width {data_width})"
            )));
        }
    }
    let normalized = normalize_plan(r.clone(), r, &self_pairs(b))?;

    // Engine aggregate: group = (B…, ts, te) → output (B…, ts, te, aggs…).
    let mut group_items: Vec<(Expr, String)> = b
        .iter()
        .map(|&i| (col(i), schema.col(i).name.clone()))
        .collect();
    group_items.push((col(width - 2), schema.col(width - 2).name.clone()));
    group_items.push((col(width - 1), schema.col(width - 1).name.clone()));
    let n_aggs = aggs.len();
    let aggregated = normalized.aggregate_named(group_items, aggs)?;

    // Reorder to (B…, aggs…, ts, te).
    let nb = b.len();
    let mut idxs: Vec<usize> = (0..nb).collect();
    idxs.extend(nb + 2..nb + 2 + n_aggs);
    idxs.push(nb);
    idxs.push(nb + 1);
    Ok(aggregated.project_cols(&idxs))
}

/// ∪ᵀ / −ᵀ / ∩ᵀ: `N_A(r; s) ⟨op⟩ N_A(s; r)` — Table 2, set operators.
pub fn reduce_setop(
    kind: SetOpKind,
    r: LogicalPlan,
    s: LogicalPlan,
) -> TemporalResult<LogicalPlan> {
    let rs = r.schema();
    let ss = s.schema();
    if !rs.union_compatible(&ss) {
        return Err(TemporalError::Incompatible(format!(
            "set operation arguments not union compatible: {rs} vs {ss}"
        )));
    }
    let data_width = rs.len() - 2;
    let all: Vec<usize> = (0..data_width).collect();
    let pairs = self_pairs(&all);
    let rn = normalize_plan(r.clone(), s.clone(), &pairs)?;
    let sn = normalize_plan(s, r, &pairs)?;
    Ok(rn.set_op(kind, sn))
}

/// ×ᵀ, ⋈ᵀ, ⟕ᵀ, ⟖ᵀ, ⟗ᵀ — Table 2, tuple-based joins:
/// `α((rΦ_θ s) ⟨join⟩_{θ ∧ r.T=s.T} (sΦ_θ r))` followed by a projection to
/// `(r.A…, s.C…, T)` where `T` coalesces the two (equal) adjusted
/// timestamps so that ω-padded rows keep the surviving side's interval.
pub fn reduce_join(
    r: LogicalPlan,
    s: LogicalPlan,
    join_type: JoinType,
    theta: Option<Expr>,
) -> TemporalResult<LogicalPlan> {
    if !matches!(
        join_type,
        JoinType::Inner | JoinType::Left | JoinType::Right | JoinType::Full
    ) {
        return Err(TemporalError::Unsupported(format!(
            "reduce_join handles Inner/Left/Right/Full, got {join_type:?}"
        )));
    }
    let rs = r.schema();
    let ss = s.schema();
    let (wr, ws) = (rs.len(), ss.len());

    let r_aligned = align_plan(r.clone(), s.clone(), theta.clone())?;
    let s_aligned = align_plan(s, r, swap_theta(theta.as_ref(), wr, ws))?;

    let mut conjuncts = Vec::new();
    if let Some(t) = theta {
        conjuncts.push(t);
    }
    conjuncts.push(col(wr - 2).eq(col(wr + ws - 2))); // r.ts = s.ts
    conjuncts.push(col(wr - 1).eq(col(wr + ws - 1))); // r.te = s.te
    let cond = Expr::and_all(conjuncts);

    let joined = r_aligned.join(s_aligned, join_type, cond);

    // Project to (r data, s data, ts, te); data columns keep their
    // qualifiers so name-based expressions still resolve downstream.
    let mut items: Vec<(Expr, Column)> = Vec::with_capacity(wr + ws - 2);
    for i in 0..wr - 2 {
        items.push((col(i), rs.col(i).clone()));
    }
    for i in 0..ws - 2 {
        items.push((col(wr + i), ss.col(i).clone()));
    }
    items.push((
        Expr::Func(Func::Coalesce, vec![col(wr - 2), col(wr + ws - 2)]),
        Column::new("ts", DataType::Int),
    ));
    items.push((
        Expr::Func(Func::Coalesce, vec![col(wr - 1), col(wr + ws - 1)]),
        Column::new("te", DataType::Int),
    ));
    let projected = joined.project_columns(items);

    Ok(AbsorbNode::plan(projected))
}

/// ▷ᵀ_θ: `(rΦ_θ s) ▷_{θ ∧ r.T=s.T} (sΦ_θ r)` — Table 2, Anti Join
/// (no absorb).
pub fn reduce_antijoin(
    r: LogicalPlan,
    s: LogicalPlan,
    theta: Option<Expr>,
) -> TemporalResult<LogicalPlan> {
    let (wr, ws) = (r.schema().len(), s.schema().len());
    let r_aligned = align_plan(r.clone(), s.clone(), theta.clone())?;
    let s_aligned = align_plan(s, r, swap_theta(theta.as_ref(), wr, ws))?;
    let mut conjuncts = Vec::new();
    if let Some(t) = theta {
        conjuncts.push(t);
    }
    conjuncts.push(col(wr - 2).eq(col(wr + ws - 2)));
    conjuncts.push(col(wr - 1).eq(col(wr + ws - 1)));
    Ok(r_aligned.join(s_aligned, JoinType::Anti, Expr::and_all(conjuncts)))
}

/// Rewrite θ from `(r ++ s)` coordinates to `(s ++ r)` coordinates for the
/// symmetric alignment `s Φ_θ r`.
fn swap_theta(theta: Option<&Expr>, wr: usize, ws: usize) -> Option<Expr> {
    theta.map(|e| e.remap_cols(&|i| if i < wr { i + ws } else { i - wr }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interval::Interval;
    use crate::trel::TemporalRelation;
    use temporal_engine::catalog::Catalog;

    fn rel(rows: &[(i64, i64, i64)]) -> TemporalRelation {
        TemporalRelation::from_rows(
            Schema::new(vec![Column::new("k", DataType::Int)]),
            rows.iter()
                .map(|&(k, s, e)| (vec![Value::Int(k)], Interval::of(s, e)))
                .collect(),
        )
        .unwrap()
    }

    #[test]
    fn swap_theta_round_trips() {
        let theta = col(0).eq(col(4)).and(col(2).lt(col(5)));
        let swapped = swap_theta(Some(&theta), 3, 4).unwrap();
        let back = swap_theta(Some(&swapped), 4, 3).unwrap();
        assert_eq!(back, theta);
    }

    #[test]
    fn reduce_join_rejects_semi() {
        let r = rel(&[(1, 0, 5)]);
        let plan = LogicalPlan::inline_scan(r.rel().clone());
        assert!(reduce_join(plan.clone(), plan, JoinType::Semi, None).is_err());
    }

    #[test]
    fn reduced_join_condition_enables_hash_join() {
        // The reduction conjoins r.T = s.T, so even a θ-free temporal join
        // plans as a hash or merge join — the paper's Sec. 7.4 argument.
        let r = rel(&[(1, 0, 5), (2, 3, 9)]);
        let plan = reduce_join(
            LogicalPlan::inline_scan(r.rel().clone()),
            LogicalPlan::inline_scan(r.rel().clone()),
            JoinType::Inner,
            None,
        )
        .unwrap();
        let physical = Planner::default().plan(&plan, &Catalog::new()).unwrap();
        // Find the top-level (reduced) join: it is the first join reachable
        // without descending into the alignment extensions.
        let explain = physical.explain();
        assert!(
            explain.contains("HashJoin[Inner] on 2 key(s)")
                || explain.contains("MergeJoin[Inner] on 2 key(s)"),
            "expected keyed join in:\n{explain}"
        );
    }

    #[test]
    fn antijoin_of_self_is_empty() {
        let r = rel(&[(1, 0, 5), (2, 3, 9)]);
        let plan = reduce_antijoin(
            LogicalPlan::inline_scan(r.rel().clone()),
            LogicalPlan::inline_scan(r.rel().clone()),
            Some(col(0).eq(col(3))), // k = k
        )
        .unwrap();
        let out = Planner::default().run(&plan, &Catalog::new()).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn projection_validates_attributes() {
        let r = rel(&[(1, 0, 5)]);
        let plan = LogicalPlan::inline_scan(r.rel().clone());
        assert!(reduce_projection(plan.clone(), &[1]).is_err()); // ts column
        assert!(reduce_projection(plan, &[0]).is_ok());
    }

    #[test]
    fn aggregation_validates_groups() {
        let r = rel(&[(1, 0, 5)]);
        let plan = LogicalPlan::inline_scan(r.rel().clone());
        assert!(
            reduce_aggregation(plan, &[2], vec![(AggCall::count_star(), "c".to_string())]).is_err()
        );
    }

    #[test]
    fn setop_validates_compatibility() {
        let r = rel(&[(1, 0, 5)]);
        let wide = TemporalRelation::from_rows(
            Schema::new(vec![
                Column::new("k", DataType::Int),
                Column::new("w", DataType::Int),
            ]),
            vec![(vec![Value::Int(1), Value::Int(2)], Interval::of(0, 5))],
        )
        .unwrap();
        assert!(reduce_setop(
            SetOpKind::Union,
            LogicalPlan::inline_scan(r.rel().clone()),
            LogicalPlan::inline_scan(wide.rel().clone()),
        )
        .is_err());
    }
}
