//! # temporal-engine
//!
//! An in-memory relational query engine built from scratch. It plays the role
//! that the PostgreSQL 9.0 kernel plays in *Temporal Alignment* (Dignös,
//! Böhlen, Gamper; SIGMOD 2012): the nontemporal substrate on which the
//! temporal primitives and reduction rules of the paper are implemented.
//!
//! The engine deliberately mirrors the parts of PostgreSQL the paper relies
//! on:
//!
//! * a **pipelined pull executor** ([`exec::ExecNode`]) — the paper's
//!   `ExecAdjustment` (Fig. 10) plugs in as one more node. Its one pull
//!   method, [`exec::ExecNode::next_batch`], moves a [`batch::RowBatch`]
//!   per call, amortizing per-tuple dispatch in every operator;
//! * **three join algorithms** — nested-loop, hash and sort-merge — selected
//!   by a **cost-based planner** ([`plan::Planner`]) honouring the
//!   PostgreSQL-style switches `enable_nestloop`, `enable_hashjoin` and
//!   `enable_mergejoin` ([`plan::PlannerConfig`]), which drive the paper's
//!   Fig. 13 experiment;
//! * **extension plan nodes** ([`plan::ExtensionNode`]) so that downstream
//!   crates add the temporal alignment / normalization / absorb operators
//!   without forking the engine, just as the paper adds custom nodes to the
//!   PostgreSQL parse/query/plan/execution trees (Sec. 6).
//!
//! The engine itself knows nothing about time: interval timestamps are plain
//! integer columns, which is precisely the architectural point of the paper
//! (reduced temporal queries are ordinary relational queries).
//!
//! ## Quick tour
//!
//! ```
//! use temporal_engine::prelude::*;
//!
//! // Build a relation.
//! let schema = Schema::new(vec![
//!     Column::new("name", DataType::Str),
//!     Column::new("dept", DataType::Int),
//! ]);
//! let rel = Relation::from_values(
//!     schema,
//!     vec![
//!         vec![Value::str("ann"), Value::Int(1)],
//!         vec![Value::str("joe"), Value::Int(2)],
//!     ],
//! )
//! .unwrap();
//!
//! // Plan and run: SELECT name FROM rel WHERE dept = 1.
//! let plan = LogicalPlan::inline_scan(rel)
//!     .filter(col(1).eq(lit(Value::Int(1))))
//!     .project_named(vec![(col(0), "name")])
//!     .unwrap();
//! let out = Planner::default().run(&plan, &Catalog::new()).unwrap();
//! assert_eq!(out.len(), 1);
//! ```

pub mod batch;
pub mod catalog;
pub mod db;
pub mod error;
pub mod exec;
pub mod expr;
pub mod hashing;
pub mod plan;
pub mod recovery;
pub mod relation;
pub mod schema;
pub mod storage;
pub mod trace;
pub mod tuple;
pub mod value;

/// The metrics registry lives with the store, whose buffer pools and
/// log count into it; the engine and the server add their own instruments
/// to the same registry.
pub use temporal_store::metrics;

/// Convenience re-exports for downstream crates.
pub mod prelude {
    pub use crate::batch::{RowBatch, BATCH_SIZE};
    pub use crate::catalog::{Catalog, TableSource};
    pub use crate::db::{Database, SessionGuard};
    pub use crate::error::{EngineError, EngineResult};
    pub use crate::exec::{BoxedExec, ExecNode, ExecutionState, Instrumentation, OperatorStats};
    pub use crate::expr::{
        col, lit, name, AggCall, AggFunc, ArithOp, CmpOp, ColumnRef, Expr, Func, SortKey,
    };
    pub use crate::metrics::{
        Counter, Gauge, Histogram, HistogramSnapshot, MetricsRegistry, MetricsSnapshot,
    };
    pub use crate::plan::{
        ExtensionNode, JoinType, LogicalPlan, PhysicalPlan, Planner, PlannerConfig, SetOpKind,
        SettingValue,
    };
    pub use crate::relation::Relation;
    pub use crate::schema::{Column, DataType, Schema};
    pub use crate::storage::StoredTable;
    pub use crate::trace::{Span, Tracer};
    pub use crate::tuple::Row;
    pub use crate::value::Value;
}
