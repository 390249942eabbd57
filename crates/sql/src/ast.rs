//! Abstract syntax tree for the SQL dialect (the "parse tree" of the
//! paper's Fig. 12a).

use temporal_engine::plan::SettingValue;
use temporal_engine::schema::DataType;

/// A parsed statement.
#[derive(Debug, Clone, PartialEq)]
#[allow(clippy::large_enum_variant)]
pub enum Statement {
    Select(SelectStmt),
    /// `SET <guc> = on|off|true|false|<int>|<word>` — planner switches
    /// (Sec. 7.2), integer GUCs such as `slow_query_ms` and string ones
    /// such as `sync_mode`.
    Set {
        name: String,
        value: SettingValue,
    },
    /// `EXPLAIN [ANALYZE] <select>` — print the physical plan. With
    /// `ANALYZE` the query is *executed* under per-operator
    /// instrumentation and the same tree is annotated with actual rows,
    /// wall-time and pages read/skipped.
    Explain {
        analyze: bool,
        query: Box<Statement>,
    },
    /// `CREATE TABLE t (col type, …) [PERSISTED]` — DDL. On a database
    /// opened on a storage directory every table is durably backed by a
    /// heap file; `PERSISTED` *asserts* that durability is available and
    /// errors on an in-memory database instead of silently creating a
    /// volatile table.
    CreateTable {
        name: String,
        columns: Vec<(String, DataType)>,
        persisted: bool,
    },
    /// `DROP TABLE t` — removes the table (and its heap file, if
    /// persisted).
    DropTable {
        name: String,
    },
    /// `COPY t FROM 'file.csv'` / `COPY t TO 'file.csv'` — bulk CSV
    /// import/export.
    Copy {
        table: String,
        path: String,
        direction: CopyDirection,
    },
    /// `INSERT INTO t VALUES (lit, …), (lit, …)` — literal row append.
    /// Values are restricted to literals (optionally signed numbers,
    /// strings, booleans, NULL); arity is checked against the table
    /// schema at execution.
    Insert {
        table: String,
        rows: Vec<Vec<AstExpr>>,
    },
}

/// Direction of a `COPY` statement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CopyDirection {
    /// `COPY t FROM 'path'`: append the file's rows to the table.
    From,
    /// `COPY t TO 'path'`: write the table's rows to the file.
    To,
}

/// Projection quantifier: `ALL` (default), `DISTINCT`, or the paper's
/// `ABSORB` (Sec. 6.2: "In the select clause ABSORB can be specified
/// instead of DISTINCT to eliminate temporal duplicates").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Quantifier {
    All,
    Distinct,
    Absorb,
}

/// Set operation chaining.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SetOp {
    Union,
    Except,
    Intersect,
}

/// A `SELECT` statement (optionally with a `WITH` prefix and set-operation
/// continuations).
#[derive(Debug, Clone, PartialEq)]
pub struct SelectStmt {
    /// `WITH name AS (select), …` — later CTEs and the main query see
    /// earlier ones; names shadow catalog tables (used for timestamp
    /// propagation, Sec. 6.2).
    pub with: Vec<(String, SelectStmt)>,
    pub quantifier: Quantifier,
    pub items: Vec<SelectItem>,
    pub from: Option<TableRef>,
    pub where_clause: Option<AstExpr>,
    pub group_by: Vec<AstExpr>,
    pub order_by: Vec<(AstExpr, bool)>,
    pub limit: Option<usize>,
    /// `UNION | EXCEPT | INTERSECT <select>` continuation.
    pub set_op: Option<(SetOp, Box<SelectStmt>)>,
}

impl SelectStmt {
    /// An empty SELECT skeleton (filled by the parser).
    pub fn new() -> SelectStmt {
        SelectStmt {
            with: Vec::new(),
            quantifier: Quantifier::All,
            items: Vec::new(),
            from: None,
            where_clause: None,
            group_by: Vec::new(),
            order_by: Vec::new(),
            limit: None,
            set_op: None,
        }
    }
}

impl Default for SelectStmt {
    fn default() -> Self {
        SelectStmt::new()
    }
}

/// One item of the select list.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectItem {
    /// `*`
    Wildcard,
    /// `alias.*`
    QualifiedWildcard(String),
    /// `expr [AS] alias`
    Expr {
        expr: AstExpr,
        alias: Option<String>,
    },
}

/// Join kinds in the FROM clause.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinKind {
    Inner,
    Left,
    Right,
    Full,
    Cross,
}

/// A FROM-clause item. `Align` and `Normalize` are the paper's grammar
/// extension (Sec. 6.2):
///
/// ```text
/// aligned_table: table_ref ALIGN table_ref ON a_expr;
/// table_ref: … '(' aligned_table ')' alias_clause
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum TableRef {
    Named {
        name: String,
        alias: Option<String>,
        /// `AS OF <expr>` timeslice: rows whose valid interval contains
        /// the instant. Lowered to the canonical `ts <= v AND te > v`
        /// range predicate, which the planner can serve from page zone
        /// maps or the interval index.
        as_of: Option<AstExpr>,
    },
    Subquery {
        query: Box<SelectStmt>,
        alias: String,
    },
    Join {
        left: Box<TableRef>,
        right: Box<TableRef>,
        kind: JoinKind,
        on: Option<AstExpr>,
    },
    /// `(left ALIGN right ON cond) alias`
    Align {
        left: Box<TableRef>,
        right: Box<TableRef>,
        on: AstExpr,
        alias: Option<String>,
    },
    /// `(left NORMALIZE right USING (cols)) alias`
    Normalize {
        left: Box<TableRef>,
        right: Box<TableRef>,
        using: Vec<String>,
        alias: Option<String>,
    },
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    And,
    Or,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    Add,
    Sub,
    Mul,
    Div,
}

/// Scalar expression AST.
#[derive(Debug, Clone, PartialEq)]
pub enum AstExpr {
    Column {
        qualifier: Option<String>,
        name: String,
    },
    IntLit(i64),
    FloatLit(f64),
    StringLit(String),
    BoolLit(bool),
    NullLit,
    Binary {
        op: BinOp,
        left: Box<AstExpr>,
        right: Box<AstExpr>,
    },
    Not(Box<AstExpr>),
    Neg(Box<AstExpr>),
    /// Function call; `count(*)` sets `star`.
    Func {
        name: String,
        args: Vec<AstExpr>,
        star: bool,
    },
    Between {
        expr: Box<AstExpr>,
        low: Box<AstExpr>,
        high: Box<AstExpr>,
        negated: bool,
    },
    IsNull {
        expr: Box<AstExpr>,
        negated: bool,
    },
    /// `[NOT] EXISTS (subquery)` — compiled to semi/anti joins.
    Exists {
        query: Box<SelectStmt>,
        negated: bool,
    },
}

impl AstExpr {
    /// Flatten a conjunction into its conjuncts.
    pub fn conjuncts(self) -> Vec<AstExpr> {
        match self {
            AstExpr::Binary {
                op: BinOp::And,
                left,
                right,
            } => {
                let mut out = left.conjuncts();
                out.extend(right.conjuncts());
                out
            }
            other => vec![other],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conjunct_flattening() {
        let e = AstExpr::Binary {
            op: BinOp::And,
            left: Box::new(AstExpr::BoolLit(true)),
            right: Box::new(AstExpr::Binary {
                op: BinOp::And,
                left: Box::new(AstExpr::IntLit(1)),
                right: Box::new(AstExpr::IntLit(2)),
            }),
        };
        assert_eq!(e.conjuncts().len(), 3);
        let single = AstExpr::BoolLit(false);
        assert_eq!(single.conjuncts().len(), 1);
    }
}
