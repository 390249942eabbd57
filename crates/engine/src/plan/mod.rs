//! Query planning: logical plans, physical plans, and the cost-based
//! optimizer that chooses join algorithms.

mod cost;
mod logical;
mod optimizer;
mod physical;
pub mod rewrite;
pub mod share;
mod spool;

pub use cost::{CostModel, PlanStats, DISABLE_COST};
pub use logical::{ExtensionNode, LogicalPlan};
pub use optimizer::{Planner, PlannerConfig, SettingValue};
pub use physical::PhysicalPlan;
pub use share::cheap_to_rescan;
pub use spool::{SpoolExec, SpoolNode};

/// Join types. The temporal algebra reduces to all six (Table 2 of the
/// paper covers ×, ⋈, ⟕, ⟖, ⟗ and ▷; Semi backs `EXISTS`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JoinType {
    Inner,
    Left,
    Right,
    Full,
    /// Left semi join: emit left rows with at least one match.
    Semi,
    /// Left anti join: emit left rows with no match (SQL `NOT EXISTS`).
    Anti,
}

impl JoinType {
    /// Does the output include the right side's columns?
    pub fn emits_right(&self) -> bool {
        matches!(
            self,
            JoinType::Inner | JoinType::Left | JoinType::Right | JoinType::Full
        )
    }

    /// Does the join emit unmatched right rows (ω-padded)?
    pub fn emits_right_unmatched(&self) -> bool {
        matches!(self, JoinType::Right | JoinType::Full)
    }

    /// Does the join emit unmatched left rows?
    pub fn emits_left_unmatched(&self) -> bool {
        matches!(self, JoinType::Left | JoinType::Full | JoinType::Anti)
    }

    pub fn name(&self) -> &'static str {
        match self {
            JoinType::Inner => "Inner",
            JoinType::Left => "Left",
            JoinType::Right => "Right",
            JoinType::Full => "Full",
            JoinType::Semi => "Semi",
            JoinType::Anti => "Anti",
        }
    }
}

/// Set operations (set semantics).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SetOpKind {
    Union,
    Intersect,
    Except,
}

impl SetOpKind {
    pub fn name(&self) -> &'static str {
        match self {
            SetOpKind::Union => "Union",
            SetOpKind::Intersect => "Intersect",
            SetOpKind::Except => "Except",
        }
    }
}
