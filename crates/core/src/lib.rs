//! # temporal-core
//!
//! The primary contribution of *Temporal Alignment* (Dignös, Böhlen,
//! Gamper; SIGMOD 2012): native relational-algebra support for the
//! **sequenced semantics** over interval-timestamped relations, via two
//! adjustment primitives and a set of reduction rules.
//!
//! ## The three properties of sequenced semantics (Sec. 3)
//!
//! * **Snapshot reducibility** (Def. 1): each snapshot of a temporal
//!   result equals the nontemporal operator on the argument snapshots.
//! * **Extended snapshot reducibility** (Def. 4): predicates/functions may
//!   reference the original interval timestamps, enabled by *timestamp
//!   propagation* ([`primitives::extend`]).
//! * **Change preservation** (Def. 7): result intervals are maximal
//!   intervals of constant *lineage* ([`mod@semantics::lineage`]).
//!
//! ## The two primitives (Sec. 4)
//!
//! * the **temporal splitter** / normalization `N_B(r; s)`
//!   ([`primitives::splitter`]) for group-based operators {π, ϑ, ∪, −, ∩};
//! * the **temporal aligner** / alignment `r Φ_θ s`
//!   ([`primitives::aligner`]) for tuple-based operators
//!   {σ, ×, ⋈, ⟕, ⟖, ⟗, ▷}.
//!
//! Both are executed by the pipelined plane sweep of Fig. 10
//! ([`primitives::adjustment`]), fed by an ordinary left outer join that
//! the engine's optimizer is free to execute with nested-loop, hash or
//! merge strategies.
//!
//! ## Reduction rules (Sec. 5, Table 2)
//!
//! [`algebra::TemporalPlan`] composes every operator of the sequenced
//! temporal algebra, each implemented *only* through its reduction to
//! nontemporal operators plus adjustment, timestamp-equality and the
//! absorb operator α ([`primitives::absorb`]), into one logical plan that
//! a single `Planner::run` executes. [`semantics::TemporalOp`] names the
//! same operators positionally: [`semantics::TemporalOp::plan`] compiles
//! one onto `TemporalPlan`, and [`semantics::TemporalOp::evaluate`] runs
//! it over materialized relations.
//!
//! ## The front door
//!
//! The database object — catalog, planner, storage, WAL, sessions — is the
//! kernel's, as in the paper's PostgreSQL integration: it lives in the
//! engine (`temporal_engine::db::Database`). This crate holds only the
//! algebra. [`algebra::TemporalPlan::table`] starts a name-based plan over
//! one of the database's tables and [`algebra::TemporalPlan::run`] runs
//! it: `TemporalPlan::table(&db, "r")?.selection(col("team").eq(lit("db")))?
//! .run(&db)?`. The SQL surface (`temporal-sql`) plans through the same
//! `Database`, so both surfaces see one catalog and one planner.
//!
//! ## Verification layer
//!
//! [`semantics`] makes the paper's formal machinery executable (timeslice,
//! snapshot-reducibility checkers, lineage sets, change preservation,
//! Table 1 operator properties), and [`mod@reference`] provides a point-wise
//! evaluation oracle used to test Theorem 1 on arbitrary inputs.
//!
//! ## Example
//!
//! ```
//! use temporal_core::prelude::*;
//! use temporal_engine::prelude::*;
//!
//! // R (reservations) and P (prices) from the paper's running example.
//! let r = TemporalRelation::from_rows(
//!     Schema::new(vec![Column::new("n", DataType::Str)]),
//!     vec![(vec![Value::str("ann")], Interval::of(0, 7))],
//! )
//! .unwrap();
//! let p = TemporalRelation::from_rows(
//!     Schema::new(vec![Column::new("a", DataType::Int)]),
//!     vec![(vec![Value::Int(50)], Interval::of(0, 5))],
//! )
//! .unwrap();
//!
//! let q = TemporalPlan::scan(&r)
//!     .left_outer_join(TemporalPlan::scan(&p), None)
//!     .unwrap()
//!     .execute(&Planner::default())
//!     .unwrap();
//! // ann joins the price over [0,5) and stands alone over [5,7).
//! assert_eq!(q.len(), 2);
//! ```

pub mod algebra;
pub mod allen;
pub mod coalesce;
pub mod date;
pub mod error;
pub mod interval;
pub mod primitives;
pub mod reference;
pub mod semantics;
pub mod trel;

/// Convenience re-exports.
pub mod prelude {
    pub use crate::algebra::TemporalPlan;
    pub use crate::allen::{relate, AllenRelation};
    pub use crate::coalesce::{coalesce, snapshot_equivalent};
    pub use crate::date::{date_interval, fmt_day, Date};
    pub use crate::error::{TemporalError, TemporalResult};
    pub use crate::interval::{month, Interval, TimePoint};
    pub use crate::primitives::absorb::{absorb_ref, AbsorbNode};
    pub use crate::primitives::adjustment::{
        align_plan, antijoin_gaps_plan, normalize_plan, AdjustMode,
    };
    pub use crate::primitives::aligner::{align, align_ref, Theta};
    pub use crate::primitives::extend::{extend, extend_named, extend_plan};
    pub use crate::primitives::splitter::{normalize_ref, self_normalize_ref, split};
    pub use crate::trel::{temporal_schema, TemporalRelation, TE, TS};
}
