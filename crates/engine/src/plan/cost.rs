//! Cardinality and cost estimation.
//!
//! Deliberately PostgreSQL-flavoured: abstract cost units built from
//! per-tuple and per-operator constants, and a large additive penalty for
//! disabled join methods (PostgreSQL's `disable_cost`), so "disabling" a
//! method still leaves a plan when nothing else is applicable — exactly the
//! behaviour the paper exploits in the Fig. 13 experiment
//! (`SET enable_mergejoin=false`, …).

use crate::expr::{CmpOp, Expr};

/// Estimated output rows and total cost of a plan subtree.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlanStats {
    pub rows: f64,
    pub cost: f64,
}

impl PlanStats {
    pub fn new(rows: f64, cost: f64) -> Self {
        PlanStats { rows, cost }
    }
}

/// Additive penalty for disabled access paths (PostgreSQL uses 1.0e10).
pub const DISABLE_COST: f64 = 1.0e10;

/// Cost constants, named after their PostgreSQL counterparts.
#[derive(Debug, Clone, Copy)]
pub struct CostModel {
    /// Cost to process one tuple (`cpu_tuple_cost`).
    pub cpu_tuple_cost: f64,
    /// Cost to evaluate one operator/function (`cpu_operator_cost`).
    pub cpu_operator_cost: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            cpu_tuple_cost: 0.01,
            cpu_operator_cost: 0.0025,
        }
    }
}

impl CostModel {
    pub fn scan(&self, rows: f64) -> PlanStats {
        PlanStats::new(rows, rows * self.cpu_tuple_cost)
    }

    pub fn filter(&self, input: PlanStats, predicate: &Expr) -> PlanStats {
        let sel = selectivity(predicate);
        PlanStats::new(
            (input.rows * sel).max(0.0),
            input.cost + input.rows * self.cpu_operator_cost * predicate.conjuncts().len() as f64,
        )
    }

    pub fn project(&self, input: PlanStats, n_exprs: usize) -> PlanStats {
        PlanStats::new(
            input.rows,
            input.cost + input.rows * self.cpu_operator_cost * n_exprs as f64,
        )
    }

    pub fn sort(&self, input: PlanStats) -> PlanStats {
        let n = input.rows.max(2.0);
        PlanStats::new(
            input.rows,
            input.cost + 2.0 * self.cpu_operator_cost * n * n.log2(),
        )
    }

    pub fn aggregate(&self, input: PlanStats, n_group: usize, n_aggs: usize) -> PlanStats {
        let out_rows = if n_group == 0 {
            1.0
        } else {
            // Square-root heuristic for group count.
            input.rows.sqrt().max(1.0)
        };
        PlanStats::new(
            out_rows,
            input.cost
                + input.rows * self.cpu_operator_cost * (n_group + n_aggs) as f64
                + out_rows * self.cpu_tuple_cost,
        )
    }

    pub fn distinct(&self, input: PlanStats) -> PlanStats {
        PlanStats::new(
            (input.rows * 0.9).max(1.0).min(input.rows),
            input.cost + input.rows * self.cpu_operator_cost,
        )
    }

    /// Output-row estimate shared by all join algorithms so the choice is
    /// driven by algorithm cost, not by disagreeing row estimates.
    pub fn join_rows(
        &self,
        left: PlanStats,
        right: PlanStats,
        n_equi_keys: usize,
        emits_left_unmatched: bool,
        emits_right_unmatched: bool,
    ) -> f64 {
        let cross = left.rows * right.rows;
        let mut rows = if n_equi_keys > 0 {
            // Classic equi-join estimate: |L|·|R| / max(ndv); we approximate
            // ndv of the key with the larger input's cardinality.
            cross / left.rows.max(right.rows).max(1.0)
        } else {
            cross * 0.33
        };
        if emits_left_unmatched {
            rows = rows.max(left.rows);
        }
        if emits_right_unmatched {
            rows = rows.max(right.rows);
        }
        rows.max(1.0)
    }

    pub fn nested_loop_join(
        &self,
        left: PlanStats,
        right: PlanStats,
        out_rows: f64,
        n_conjuncts: usize,
    ) -> PlanStats {
        PlanStats::new(
            out_rows,
            left.cost
                + right.cost
                + left.rows * right.rows * self.cpu_operator_cost * n_conjuncts.max(1) as f64
                + out_rows * self.cpu_tuple_cost,
        )
    }

    pub fn hash_join(&self, left: PlanStats, right: PlanStats, out_rows: f64) -> PlanStats {
        PlanStats::new(
            out_rows,
            left.cost
                + right.cost
                + right.rows * (self.cpu_operator_cost * 2.0 + self.cpu_tuple_cost) // build
                + left.rows * self.cpu_operator_cost * 2.0 // probe
                + out_rows * self.cpu_tuple_cost,
        )
    }

    /// Cost of the merge phase only; inputs are expected to carry their own
    /// sort costs already.
    pub fn merge_join(&self, left: PlanStats, right: PlanStats, out_rows: f64) -> PlanStats {
        PlanStats::new(
            out_rows,
            left.cost
                + right.cost
                + (left.rows + right.rows) * self.cpu_operator_cost
                + out_rows * self.cpu_tuple_cost,
        )
    }

    pub fn set_op(&self, left: PlanStats, right: PlanStats) -> PlanStats {
        PlanStats::new(
            (left.rows + right.rows).max(1.0),
            left.cost + right.cost + (left.rows + right.rows) * self.cpu_operator_cost * 2.0,
        )
    }

    pub fn limit(&self, input: PlanStats, n: usize) -> PlanStats {
        PlanStats::new(input.rows.min(n as f64), input.cost)
    }

    /// A streaming pass over already-ordered input that emits `out_rows`
    /// tuples at `ops_per_tuple` operator evaluations each — the shape of
    /// the paper's plane-sweep adjustment executors (Sec. 6.2/6.3), used by
    /// extension nodes so composed temporal plans cost as one tree.
    pub fn sweep(&self, input: PlanStats, out_rows: f64, ops_per_tuple: f64) -> PlanStats {
        PlanStats::new(
            out_rows.max(0.0),
            input.cost
                + input.rows * self.cpu_operator_cost * ops_per_tuple.max(1.0)
                + out_rows.max(0.0) * self.cpu_tuple_cost,
        )
    }

    /// Shared materialization (spool): the input is computed once and the
    /// buffered rows are re-read by each consumer.
    pub fn spool(&self, input: PlanStats) -> PlanStats {
        PlanStats::new(input.rows, input.cost + input.rows * self.cpu_tuple_cost)
    }
}

/// Crude predicate selectivity: equality 0.1 per conjunct, range 0.33,
/// everything else 0.5 — enough to order join candidates sensibly.
pub fn selectivity(predicate: &Expr) -> f64 {
    predicate
        .conjuncts()
        .iter()
        .map(|c| match c {
            Expr::Cmp(CmpOp::Eq, _, _) => 0.1,
            Expr::Cmp(_, _, _) | Expr::Between { .. } => 0.33,
            _ => 0.5,
        })
        .product()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{col, lit};

    #[test]
    fn selectivity_composes_conjuncts() {
        let eq = col(0).eq(lit(1i64));
        assert!((selectivity(&eq) - 0.1).abs() < 1e-9);
        let both = col(0).eq(lit(1i64)).and(col(1).lt(lit(2i64)));
        assert!((selectivity(&both) - 0.033).abs() < 1e-9);
    }

    #[test]
    fn hash_beats_nested_loop_on_large_equi_joins() {
        let m = CostModel::default();
        let l = m.scan(10_000.0);
        let r = m.scan(10_000.0);
        let rows = m.join_rows(l, r, 1, false, false);
        let nl = m.nested_loop_join(l, r, rows, 1);
        let hj = m.hash_join(l, r, rows);
        assert!(hj.cost < nl.cost);
    }

    #[test]
    fn merge_join_cost_excludes_sort() {
        let m = CostModel::default();
        let l = m.sort(m.scan(1000.0));
        let r = m.sort(m.scan(1000.0));
        let rows = m.join_rows(l, r, 1, false, false);
        let mj = m.merge_join(l, r, rows);
        assert!(mj.cost > l.cost + r.cost);
    }

    #[test]
    fn outer_joins_keep_at_least_outer_rows() {
        let m = CostModel::default();
        let l = m.scan(100.0);
        let r = m.scan(5.0);
        let rows = m.join_rows(l, r, 1, true, false);
        assert!(rows >= 100.0);
    }
}
