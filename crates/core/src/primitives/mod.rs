//! The temporal primitives of the paper.
//!
//! * [`extend`] — timestamp propagation `U(r)` (Def. 3), the mechanism
//!   behind extended snapshot reducibility;
//! * [`splitter`] — the temporal splitter (Def. 8) and normalization
//!   `N_B(r; s)` (Def. 9) for group-based operators {π, ϑ, ∪, −, ∩};
//! * [`aligner`] — the temporal aligner (Def. 10) and alignment `r Φ_θ s`
//!   (Def. 11) for tuple-based operators {σ, ×, ⋈, outer joins, ▷};
//! * [`absorb`] — the absorb operator α (Def. 12) removing temporal
//!   duplicates;
//! * [`adjustment`] — the paper's pipelined plane-sweep executor
//!   `ExecAdjustment` (Fig. 10) and the plan constructions of Figs. 8/9/12,
//!   shared by alignment (`isalign = true`) and normalization
//!   (`isalign = false`).
//!
//! Each primitive exists twice: a specification-level implementation
//! straight from the definitions (quadratic, obviously correct — used as a
//! test oracle) and the efficient plan/executor used by the algebra.

pub mod absorb;
pub mod adjustment;
pub mod aligner;
pub mod extend;
pub mod splitter;
