//! Plan-first composition of the sequenced temporal algebra.
//!
//! [`TemporalPlan`] is a builder whose operators compose the Table-2
//! reductions into **one** [`LogicalPlan`]: a whole temporal query —
//! e.g. σᵀ ∘ ⋈ᵀ ∘ ϑᵀ — compiles to a single tree that the engine plans,
//! optimizes and executes with a single [`Planner::run`], exactly as the
//! paper integrates alignment into the DBMS kernel (Sec. 6) so "the
//! optimizer sees the whole query". This replaces the eager evaluation
//! style (materialize a [`TemporalRelation`] after every operator and
//! re-wrap it in an inline scan), which put a materialization barrier
//! between every pair of operators and hid the query from cross-operator
//! optimization.
//!
//! Two engine facilities make the composition sound and fast:
//!
//! * the reduction rules are self-referencing (a reduced θ-join aligns
//!   `r` with `s` *and* `s` with `r`; group-based operators normalize
//!   their input against itself), so a composed operand would be
//!   re-executed several times — unless it is a cheap-to-rescan leaf, the
//!   builder wraps it in a [`SpoolNode`] whose clones share one
//!   materialization;
//! * the planner's rewrite pass pushes non-timestamp selections across
//!   the alignment/normalization/absorb extension nodes (via their
//!   pass-through hooks), so a late σᵀ filters base relations early.
//!
//! `TemporalPlan` is also the name-based front door over a [`Database`]:
//! [`TemporalPlan::table`] scans a catalog table with its columns
//! qualified by the table name, every column argument is a [`ColumnRef`]
//! (a position or a name such as `"staff.team"`), and a builder error —
//! an unknown or ambiguous name, incompatible schemas — is returned by the
//! step that causes it. Nothing executes until [`TemporalPlan::run`].

use temporal_engine::catalog::Catalog;
use temporal_engine::plan::SpoolNode;
use temporal_engine::prelude::*;

use crate::error::{TemporalError, TemporalResult};
use crate::primitives::absorb::AbsorbNode;
use crate::primitives::adjustment::{align_plan, antijoin_gaps_plan, normalize_plan};
use crate::trel::TemporalRelation;

use super::{
    reduce_aggregation, reduce_antijoin, reduce_join, reduce_projection, reduce_selection,
    reduce_setop,
};

/// A composed temporal query: a logical plan whose output is a temporal
/// relation (last two columns `ts`/`te`). Built by chaining the operators
/// of the sequenced temporal algebra; executed by one [`Planner::run`].
#[derive(Debug, Clone)]
pub struct TemporalPlan {
    plan: LogicalPlan,
}

/// Is this subtree cheap to execute more than once? Leaf scans share their
/// relation, and a pipelined filter/projection over them re-evaluates a
/// few expressions per row — cheaper than materializing, and it keeps the
/// subtree transparent to filter pushdown.
fn cheap_to_rescan(plan: &LogicalPlan) -> bool {
    match plan {
        LogicalPlan::TableScan { .. } | LogicalPlan::InlineScan { .. } => true,
        LogicalPlan::Filter { input, .. } | LogicalPlan::Project { input, .. } => {
            cheap_to_rescan(input)
        }
        _ => false,
    }
}

/// An operand that the reduction rules will reference more than once:
/// cheap subtrees are used as-is, composed subtrees are spooled so every
/// reference shares one materialization.
fn shared_operand(plan: LogicalPlan) -> LogicalPlan {
    if cheap_to_rescan(&plan) {
        plan
    } else {
        SpoolNode::shared(plan)
    }
}

fn check_temporal(schema: &Schema, what: &str) -> TemporalResult<()> {
    let n = schema.len();
    if n < 2 || schema.col(n - 2).dtype != DataType::Int || schema.col(n - 1).dtype != DataType::Int
    {
        return Err(TemporalError::InvalidRelation(format!(
            "{what} must produce a temporal relation (last two columns Int ts/te), found {schema}"
        )));
    }
    Ok(())
}

impl TemporalPlan {
    // ---- sources --------------------------------------------------------

    /// Scan a materialized temporal relation (shares its rows, no copy).
    pub fn scan(r: &TemporalRelation) -> TemporalPlan {
        TemporalPlan {
            plan: LogicalPlan::inline_scan(r.rel().clone()),
        }
    }

    /// Scan table `name` of `db`, whose schema must be temporal. Columns
    /// are qualified with the table name, so `col("staff.team")`
    /// resolves. Only the schema is read here: the plan runs against the
    /// catalog's rows at [`TemporalPlan::run`] time (a persisted table's
    /// pages stream then).
    ///
    /// ```
    /// use temporal_core::prelude::*;
    /// use temporal_engine::prelude::*;
    ///
    /// let db = Database::new();
    /// let staff = TemporalRelation::from_rows(
    ///     Schema::new(vec![
    ///         Column::new("person", DataType::Str),
    ///         Column::new("team", DataType::Str),
    ///     ]),
    ///     vec![
    ///         (vec![Value::str("ann"), Value::str("db")], Interval::of(0, 8)),
    ///         (vec![Value::str("joe"), Value::str("db")], Interval::of(2, 6)),
    ///     ],
    /// )
    /// .unwrap();
    /// let oncall = TemporalRelation::from_rows(
    ///     Schema::new(vec![Column::new("team", DataType::Str)]),
    ///     vec![(vec![Value::str("db")], Interval::of(3, 5))],
    /// )
    /// .unwrap();
    /// db.register("staff", &staff).unwrap();
    /// db.register("oncall", &oncall).unwrap();
    ///
    /// // Who was staffed while their team was on call? (⋈ᵀ then ϑᵀ)
    /// let theta = col("staff.team").eq(col("oncall.team"));
    /// let headcount = TemporalPlan::table(&db, "staff")
    ///     .unwrap()
    ///     .join(TemporalPlan::table(&db, "oncall").unwrap(), Some(theta))
    ///     .unwrap()
    ///     .aggregation(&[] as &[usize], vec![(AggCall::count_star(), "cnt")])
    ///     .unwrap()
    ///     .run(&db)
    ///     .unwrap();
    /// assert!(headcount.iter().all(|(d, _)| d[0] == Value::Int(2)));
    /// ```
    pub fn table(db: &Database, name: &str) -> TemporalResult<TemporalPlan> {
        let schema = db.read(|catalog, _| catalog.schema_of(name))?;
        let schema = schema.with_qualifier(name);
        check_temporal(&schema, "table")?;
        Ok(TemporalPlan {
            plan: LogicalPlan::table_scan(name, schema),
        })
    }

    /// Wrap an arbitrary logical plan with a temporal output schema — the
    /// bridge to the SQL front end and the raw primitives.
    pub fn from_logical(plan: LogicalPlan) -> TemporalResult<TemporalPlan> {
        check_temporal(&plan.schema(), "plan")?;
        Ok(TemporalPlan { plan })
    }

    // ---- tuple-based operators (aligner) --------------------------------

    /// σᵀ_θ(r) = σ_θ(r) — needs no adjustment (Table 2). Named column
    /// references in `predicate` are resolved against the input schema.
    pub fn selection(self, predicate: Expr) -> TemporalResult<TemporalPlan> {
        let schema = self.plan.schema();
        let predicate = if predicate.has_names() {
            predicate.resolve(&schema)?
        } else {
            predicate
        };
        let width = schema.len();
        if let Some(m) = predicate.max_col() {
            if m >= width {
                return Err(TemporalError::Incompatible(format!(
                    "selection predicate references column {m}, relation width is {width}"
                )));
            }
        }
        Ok(TemporalPlan {
            plan: reduce_selection(self.plan, predicate),
        })
    }

    /// ×ᵀ: temporal Cartesian product.
    pub fn cartesian_product(self, other: TemporalPlan) -> TemporalResult<TemporalPlan> {
        self.join(other, None)
    }

    /// ⋈ᵀ_θ: temporal inner join; `theta` is over the concatenation of
    /// full `self` and `other` rows.
    pub fn join(
        self,
        other: TemporalPlan,
        theta: impl Into<Option<Expr>>,
    ) -> TemporalResult<TemporalPlan> {
        self.reduced_join(other, JoinType::Inner, theta)
    }

    /// ⟕ᵀ_θ: temporal left outer join.
    pub fn left_outer_join(
        self,
        other: TemporalPlan,
        theta: impl Into<Option<Expr>>,
    ) -> TemporalResult<TemporalPlan> {
        self.reduced_join(other, JoinType::Left, theta)
    }

    /// ⟖ᵀ_θ: temporal right outer join.
    pub fn right_outer_join(
        self,
        other: TemporalPlan,
        theta: impl Into<Option<Expr>>,
    ) -> TemporalResult<TemporalPlan> {
        self.reduced_join(other, JoinType::Right, theta)
    }

    /// ⟗ᵀ_θ: temporal full outer join.
    pub fn full_outer_join(
        self,
        other: TemporalPlan,
        theta: impl Into<Option<Expr>>,
    ) -> TemporalResult<TemporalPlan> {
        self.reduced_join(other, JoinType::Full, theta)
    }

    fn reduced_join(
        self,
        other: TemporalPlan,
        join_type: JoinType,
        theta: impl Into<Option<Expr>>,
    ) -> TemporalResult<TemporalPlan> {
        let theta = self.resolve_theta(&other, theta)?;
        Ok(TemporalPlan {
            plan: reduce_join(
                shared_operand(self.plan),
                shared_operand(other.plan),
                join_type,
                theta,
            )?,
        })
    }

    /// ▷ᵀ_θ: temporal anti join (Table 2 reduction).
    pub fn anti_join(
        self,
        other: TemporalPlan,
        theta: impl Into<Option<Expr>>,
    ) -> TemporalResult<TemporalPlan> {
        let theta = self.resolve_theta(&other, theta)?;
        Ok(TemporalPlan {
            plan: reduce_antijoin(shared_operand(self.plan), shared_operand(other.plan), theta)?,
        })
    }

    /// ▷ᵀ_θ via the customized gaps-only primitive (Sec. 8 future work).
    pub fn anti_join_optimized(
        self,
        other: TemporalPlan,
        theta: impl Into<Option<Expr>>,
    ) -> TemporalResult<TemporalPlan> {
        let theta = self.resolve_theta(&other, theta)?;
        // The gaps-only plan references each operand once.
        Ok(TemporalPlan {
            plan: antijoin_gaps_plan(self.plan, other.plan, theta)?,
        })
    }

    /// Resolve a θ condition (expressed over the concatenation of full
    /// `self` and `other` rows) from named to positional references.
    fn resolve_theta(
        &self,
        other: &TemporalPlan,
        theta: impl Into<Option<Expr>>,
    ) -> TemporalResult<Option<Expr>> {
        match theta.into() {
            Some(t) if t.has_names() => {
                let combined = self.plan.schema().concat(&other.plan.schema());
                Ok(Some(t.resolve(&combined)?))
            }
            other => Ok(other),
        }
    }

    // ---- group-based operators (splitter) -------------------------------

    /// πᵀ_B(r) = π_{B,T}(N_B(r; r)); `b` are data columns, by position or
    /// by name.
    pub fn projection<C: Into<ColumnRef> + Clone>(self, b: &[C]) -> TemporalResult<TemporalPlan> {
        let b = resolve_columns(&self.plan.schema(), b)?;
        Ok(TemporalPlan {
            plan: reduce_projection(shared_operand(self.plan), &b)?,
        })
    }

    /// ϑᵀ: temporal aggregation `_Bϑ_F(r) = _{B,T}ϑ_F(N_B(r; r))`, grouped
    /// by the data columns `b` (by position or by name). Output schema:
    /// `B…, aggregates…, ts, te`. Named column references in aggregate
    /// arguments are resolved against the input schema.
    pub fn aggregation<C: Into<ColumnRef> + Clone>(
        self,
        b: &[C],
        aggs: Vec<(AggCall, impl Into<String>)>,
    ) -> TemporalResult<TemporalPlan> {
        let schema = self.plan.schema();
        let b = resolve_columns(&schema, b)?;
        let aggs = aggs
            .into_iter()
            .map(|(AggCall { func, arg }, alias)| {
                let arg = match arg {
                    Some(e) if e.has_names() => Some(e.resolve(&schema)?),
                    other => other,
                };
                Ok((AggCall { func, arg }, alias.into()))
            })
            .collect::<TemporalResult<Vec<_>>>()?;
        Ok(TemporalPlan {
            plan: reduce_aggregation(shared_operand(self.plan), &b, aggs)?,
        })
    }

    /// ∪ᵀ: temporal union `N_A(r; s) ∪ N_A(s; r)`.
    pub fn union(self, other: TemporalPlan) -> TemporalResult<TemporalPlan> {
        self.setop(SetOpKind::Union, other)
    }

    /// −ᵀ: temporal difference `N_A(r; s) − N_A(s; r)`.
    pub fn difference(self, other: TemporalPlan) -> TemporalResult<TemporalPlan> {
        self.setop(SetOpKind::Except, other)
    }

    /// ∩ᵀ: temporal intersection `N_A(r; s) ∩ N_A(s; r)`.
    pub fn intersection(self, other: TemporalPlan) -> TemporalResult<TemporalPlan> {
        self.setop(SetOpKind::Intersect, other)
    }

    fn setop(self, kind: SetOpKind, other: TemporalPlan) -> TemporalResult<TemporalPlan> {
        Ok(TemporalPlan {
            plan: reduce_setop(kind, shared_operand(self.plan), shared_operand(other.plan))?,
        })
    }

    // ---- primitives, exposed for composition ----------------------------

    /// The alignment primitive `r Φ_θ s` itself.
    pub fn align(
        self,
        other: TemporalPlan,
        theta: impl Into<Option<Expr>>,
    ) -> TemporalResult<TemporalPlan> {
        let theta = self.resolve_theta(&other, theta)?;
        Ok(TemporalPlan {
            plan: align_plan(self.plan, other.plan, theta)?,
        })
    }

    /// The normalization primitive `N_B(r; s)` itself; `b` pairs
    /// `(self data column, other data column)`, each by position or by
    /// name in its own side's schema.
    pub fn normalize<C: Into<ColumnRef> + Clone>(
        self,
        other: TemporalPlan,
        b: &[(C, C)],
    ) -> TemporalResult<TemporalPlan> {
        let (ls, rs) = (self.plan.schema(), other.plan.schema());
        let b = b
            .iter()
            .map(|(l, r)| {
                Ok((
                    resolve_column(&ls, l.clone())?,
                    resolve_column(&rs, r.clone())?,
                ))
            })
            .collect::<TemporalResult<Vec<_>>>()?;
        Ok(TemporalPlan {
            plan: normalize_plan(self.plan, shared_operand(other.plan), &b)?,
        })
    }

    /// The absorb operator α.
    pub fn absorb(self) -> TemporalPlan {
        TemporalPlan {
            plan: AbsorbNode::plan(self.plan),
        }
    }

    /// `U(r)`: timestamp propagation (Def. 4) — appends copies of the
    /// interval endpoints as data columns `us`/`ue` before the interval,
    /// enabling θ conditions over the *original* timestamps.
    pub fn extend(self) -> TemporalResult<TemporalPlan> {
        Ok(TemporalPlan {
            plan: crate::primitives::extend::extend_plan(
                self.plan,
                crate::primitives::extend::US,
                crate::primitives::extend::UE,
            )?,
        })
    }

    /// Re-qualify every output column with `alias` (an identity
    /// projection), so self-joins can tell their two sides apart:
    /// `plan.aliased("a")` makes `col("a.k")` resolvable.
    pub fn aliased(self, alias: &str) -> TemporalPlan {
        let schema = self.plan.schema().with_qualifier(alias);
        let exprs: Vec<Expr> = (0..schema.len()).map(Expr::Col).collect();
        TemporalPlan {
            plan: LogicalPlan::Project {
                input: Box::new(self.plan),
                exprs,
                schema,
            },
        }
    }

    // ---- reflection and execution ---------------------------------------

    /// The composed logical plan.
    pub fn logical(&self) -> &LogicalPlan {
        &self.plan
    }

    /// Consume into the composed logical plan.
    pub fn into_logical(self) -> LogicalPlan {
        self.plan
    }

    /// Output schema (`data…, ts, te`).
    pub fn schema(&self) -> Schema {
        self.plan.schema()
    }

    /// Plan and optimize against `db` under its shared lock, returning the
    /// self-contained physical plan (it captures its scans) and the
    /// configuration to execute it with.
    fn physical(&self, db: &Database) -> TemporalResult<(PhysicalPlan, PlannerConfig)> {
        let (physical, config) =
            db.read(|catalog, planner| (planner.plan(&self.plan, catalog), planner.config));
        Ok((physical?, config))
    }

    /// Run the whole composed query against `db` with a **single**
    /// physical plan. The shared lock is held only while planning, so
    /// execution never blocks concurrent registration or `SET`.
    pub fn run(&self, db: &Database) -> TemporalResult<TemporalRelation> {
        let (physical, config) = self.physical(db)?;
        let out = physical.collect(&ExecutionState::new(config))?;
        TemporalRelation::new(out)
    }

    /// EXPLAIN the whole composed query against `db` as one costed
    /// physical tree — the same rendering SQL `EXPLAIN` produces.
    pub fn explain(&self, db: &Database) -> TemporalResult<String> {
        Ok(self.physical(db)?.0.explain())
    }

    /// EXPLAIN ANALYZE: run the query against `db` with per-operator
    /// instrumentation (the result is discarded) and render the
    /// [`TemporalPlan::explain`] tree annotated with actual rows, batches,
    /// wall-time and access-path counters — the same rendering SQL
    /// `EXPLAIN ANALYZE` produces.
    pub fn explain_analyze(&self, db: &Database) -> TemporalResult<String> {
        let (physical, config) = self.physical(db)?;
        let state = ExecutionState::new(config).with_instrumentation();
        physical.collect(&state)?;
        Ok(physical.explain_analyze(&state))
    }

    /// Execute a plan over [`TemporalPlan::scan`] sources only (no catalog
    /// tables) with `planner`.
    pub fn execute(&self, planner: &Planner) -> TemporalResult<TemporalRelation> {
        TemporalRelation::new(planner.run(&self.plan, &Catalog::new())?)
    }
}

/// Resolve one column argument against `schema`: a position is taken as
/// is (the operator checks its range), a name is looked up.
fn resolve_column(schema: &Schema, c: impl Into<ColumnRef>) -> TemporalResult<usize> {
    match c.into() {
        ColumnRef::Index(i) => Ok(i),
        ColumnRef::Named(n) => Ok(schema.index_of(&n)?),
    }
}

fn resolve_columns<C: Into<ColumnRef> + Clone>(
    schema: &Schema,
    cols: &[C],
) -> TemporalResult<Vec<usize>> {
    cols.iter()
        .map(|c| resolve_column(schema, c.clone()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interval::Interval;
    use crate::reference::evaluate_oracle;
    use crate::semantics::TemporalOp;
    use crate::trel::TemporalRelation;

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
    fn chained_plan_matches_the_oracle() {
        // ϑᵀ_count(σᵀ_{k ≥ 1}(r ⋈ᵀ_{r.k = s.k} s)) in one run, against the
        // point-wise oracle applied operator by operator.
        let r = rel(&[(1, 0, 8), (2, 5, 12), (3, 1, 3)]);
        let s = rel(&[(1, 2, 4), (2, 6, 15), (2, 1, 5)]);
        let join = TemporalOp::Join {
            theta: Some(col(0).eq(col(3))),
        };
        let select = TemporalOp::Selection {
            predicate: col(0).ge(lit(1i64)),
        };
        let count = TemporalOp::Aggregation {
            group: vec![0],
            aggs: vec![(AggCall::count_star(), "cnt".to_string())],
        };

        let joined = join
            .plan(vec![TemporalPlan::scan(&r), TemporalPlan::scan(&s)])
            .unwrap();
        let selected = select.plan(vec![joined]).unwrap();
        let composed = count
            .plan(vec![selected])
            .unwrap()
            .execute(&Planner::default())
            .unwrap();

        let joined = evaluate_oracle(&join, &[&r, &s]).unwrap();
        let selected = evaluate_oracle(&select, &[&joined]).unwrap();
        let oracle = evaluate_oracle(&count, &[&selected]).unwrap();

        assert!(
            composed.same_set(&oracle),
            "composed:\n{composed}\noracle:\n{oracle}"
        );
    }

    #[test]
    fn composed_operands_are_spooled_leaves_are_not() {
        let r = rel(&[(1, 0, 5), (2, 3, 9)]);
        // Leaf join: no spool anywhere.
        let plan = TemporalPlan::scan(&r)
            .join(TemporalPlan::scan(&r), None)
            .unwrap();
        let db = Database::new();
        let text = plan.explain(&db).unwrap();
        assert!(!text.contains("Spool"), "{text}");
        // Group-based operator over a composed input: the join result is
        // referenced three times by the self-normalization and must spool.
        let nested = TemporalPlan::scan(&r)
            .join(TemporalPlan::scan(&r), None)
            .unwrap()
            .projection(&[0])
            .unwrap();
        let text = nested.explain(&db).unwrap();
        assert!(text.contains("Spool"), "{text}");
    }

    #[test]
    fn execute_twice_is_stable() {
        let r = rel(&[(1, 0, 5), (2, 3, 9)]);
        let plan = TemporalPlan::scan(&r)
            .join(TemporalPlan::scan(&r), None)
            .unwrap()
            .projection(&[0])
            .unwrap();
        let planner = Planner::default();
        let a = plan.execute(&planner).unwrap();
        let b = plan.execute(&planner).unwrap();
        assert!(a.same_set(&b));
    }

    #[test]
    fn from_logical_validates_temporal_shape() {
        let nontemporal = Relation::from_values(
            Schema::new(vec![Column::new("a", DataType::Str)]),
            vec![vec![Value::str("x")]],
        )
        .unwrap();
        assert!(TemporalPlan::from_logical(LogicalPlan::inline_scan(nontemporal)).is_err());
        let r = rel(&[(1, 0, 5)]);
        assert!(TemporalPlan::from_logical(LogicalPlan::inline_scan(r.rel().clone())).is_ok());
    }

    #[test]
    fn selection_validates_columns() {
        let r = rel(&[(1, 0, 5)]);
        assert!(TemporalPlan::scan(&r)
            .selection(col(17).gt(lit(0i64)))
            .is_err());
    }

    #[test]
    fn table_sources_run_against_the_database() {
        let r = rel(&[(1, 0, 5), (2, 2, 8)]);
        let db = Database::new();
        db.register("r", &r).unwrap();
        let plan = TemporalPlan::table(&db, "r")
            .unwrap()
            .selection(col("r.k").eq(lit(2i64)))
            .unwrap();
        assert_eq!(plan.run(&db).unwrap().len(), 1);
        // A plan holds no database handle: run against a database without
        // its table, it fails at planning.
        let err = plan.run(&Database::new()).unwrap_err();
        assert_eq!(err.to_string(), "unknown table: r");
    }

    #[test]
    fn column_lists_take_positions_or_names() {
        let r = rel(&[(1, 0, 5), (2, 3, 9)]);
        let db = Database::new();
        db.register("r", &r).unwrap();
        let table = || TemporalPlan::table(&db, "r").unwrap();
        let by_name = table().projection(&["k"]).unwrap().run(&db).unwrap();
        let by_position = table().projection(&[0]).unwrap().run(&db).unwrap();
        assert!(by_name.same_set(&by_position));
        let err = table().projection(&["q"]).unwrap_err().to_string();
        assert!(err.contains("unknown column: q"), "{err}");
        let counted = table()
            .aggregation(&["r.k"], vec![(AggCall::count_star(), "cnt")])
            .unwrap();
        assert_eq!(counted.schema().names(), vec!["k", "cnt", "ts", "te"]);
        let normalized = table()
            .normalize(TemporalPlan::scan(&r), &[("k", "k")])
            .unwrap()
            .run(&db)
            .unwrap();
        let reference = table()
            .normalize(TemporalPlan::scan(&r), &[(0, 0)])
            .unwrap();
        assert!(normalized.same_set(&reference.run(&db).unwrap()));
    }
}
