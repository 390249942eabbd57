//! Recursive-descent parser producing the AST of [`crate::ast`].
//!
//! Implements the grammar extension of Sec. 6.2: `ALIGN`/`NORMALIZE`
//! table references in the FROM clause, and `ABSORB` as a projection
//! quantifier.

use crate::ast::*;
use crate::error::{SqlError, SqlResult};
use crate::lexer::lex;
use crate::token::{Kw, Token};
use temporal_engine::plan::SettingValue;

/// Parse a single SQL statement (a trailing semicolon is allowed).
pub fn parse_statement(sql: &str) -> SqlResult<Statement> {
    let tokens = lex(sql)?;
    let mut p = Parser { tokens, pos: 0 };
    let stmt = p.statement()?;
    p.eat(&Token::Semicolon);
    p.expect(Token::Eof)?;
    Ok(stmt)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> &Token {
        &self.tokens[self.pos]
    }

    fn peek2(&self) -> &Token {
        self.tokens.get(self.pos + 1).unwrap_or(&Token::Eof)
    }

    fn advance(&mut self) -> Token {
        let t = self.tokens[self.pos].clone();
        if self.pos < self.tokens.len() - 1 {
            self.pos += 1;
        }
        t
    }

    fn eat(&mut self, t: &Token) -> bool {
        if self.peek() == t {
            self.advance();
            true
        } else {
            false
        }
    }

    fn eat_kw(&mut self, k: Kw) -> bool {
        self.eat(&Token::Keyword(k))
    }

    fn expect(&mut self, t: Token) -> SqlResult<()> {
        if self.eat(&t) {
            Ok(())
        } else {
            Err(SqlError::Parse(format!(
                "expected {t}, found {}",
                self.peek()
            )))
        }
    }

    fn expect_kw(&mut self, k: Kw) -> SqlResult<()> {
        self.expect(Token::Keyword(k))
    }

    fn expect_ident(&mut self) -> SqlResult<String> {
        match self.advance() {
            Token::Ident(s) => Ok(s),
            other => Err(SqlError::Parse(format!(
                "expected identifier, found {other}"
            ))),
        }
    }

    // ---- statements ------------------------------------------------------

    fn statement(&mut self) -> SqlResult<Statement> {
        if self.eat_kw(Kw::Explain) {
            let analyze = self.eat_kw(Kw::Analyze);
            let inner = self.statement()?;
            return Ok(Statement::Explain {
                analyze,
                query: Box::new(inner),
            });
        }
        if self.eat_kw(Kw::Set) {
            let name = self.expect_ident()?;
            self.expect(Token::Eq)?;
            let value = match self.advance() {
                Token::Keyword(Kw::True) => SettingValue::Bool(true),
                Token::Keyword(Kw::False) => SettingValue::Bool(false),
                // `on` happens to lex as the ON keyword.
                Token::Keyword(Kw::On) => SettingValue::Bool(true),
                Token::Ident(s) if s == "off" => SettingValue::Bool(false),
                Token::Int(v) => SettingValue::Int(v),
                // Other bare identifiers are string-valued settings, e.g.
                // `SET sync_mode = commit`.
                Token::Ident(s) => SettingValue::Str(s),
                other => {
                    return Err(SqlError::Parse(format!(
                        "expected on/off/true/false, an integer or an identifier, found {other}"
                    )))
                }
            };
            return Ok(Statement::Set { name, value });
        }
        if self.eat_kw(Kw::Create) {
            return self.create_table();
        }
        if self.eat_kw(Kw::Drop) {
            self.expect_kw(Kw::Table)?;
            let name = self.expect_ident()?;
            return Ok(Statement::DropTable { name });
        }
        if self.eat_kw(Kw::Copy) {
            return self.copy();
        }
        if self.eat_kw(Kw::Insert) {
            return self.insert();
        }
        Ok(Statement::Select(self.select_stmt()?))
    }

    /// `INSERT INTO t VALUES (lit, …) [, (lit, …)]*` (INSERT already
    /// eaten). Values are literal-only: numbers (optionally signed),
    /// strings, booleans and NULL.
    fn insert(&mut self) -> SqlResult<Statement> {
        self.expect_kw(Kw::Into)?;
        let table = self.expect_ident()?;
        self.expect_kw(Kw::Values)?;
        let mut rows = Vec::new();
        loop {
            self.expect(Token::LParen)?;
            let mut row = Vec::new();
            loop {
                row.push(self.insert_literal()?);
                if !self.eat(&Token::Comma) {
                    break;
                }
            }
            self.expect(Token::RParen)?;
            rows.push(row);
            if !self.eat(&Token::Comma) {
                break;
            }
        }
        Ok(Statement::Insert { table, rows })
    }

    /// One literal of a VALUES row.
    fn insert_literal(&mut self) -> SqlResult<AstExpr> {
        let negate = self.eat(&Token::Minus);
        match self.advance() {
            Token::Int(v) => Ok(AstExpr::IntLit(if negate { -v } else { v })),
            Token::Float(v) => Ok(AstExpr::FloatLit(if negate { -v } else { v })),
            Token::Str(s) if !negate => Ok(AstExpr::StringLit(s)),
            Token::Keyword(Kw::True) if !negate => Ok(AstExpr::BoolLit(true)),
            Token::Keyword(Kw::False) if !negate => Ok(AstExpr::BoolLit(false)),
            Token::Keyword(Kw::Null) if !negate => Ok(AstExpr::NullLit),
            other => Err(SqlError::Parse(format!(
                "VALUES accepts literals (number, string, true/false, NULL), found {other}"
            ))),
        }
    }

    /// `CREATE TABLE t (col type, …) [PERSISTED]` (CREATE already eaten).
    fn create_table(&mut self) -> SqlResult<Statement> {
        use temporal_engine::schema::DataType;
        self.expect_kw(Kw::Table)?;
        let name = self.expect_ident()?;
        self.expect(Token::LParen)?;
        let mut columns = Vec::new();
        loop {
            let col = self.expect_ident()?;
            let ty = self.expect_ident()?;
            let dtype = match ty.as_str() {
                "int" | "integer" | "bigint" => DataType::Int,
                "double" | "float" | "real" => DataType::Double,
                "bool" | "boolean" => DataType::Bool,
                "str" | "text" | "varchar" => DataType::Str,
                other => {
                    return Err(SqlError::Parse(format!(
                        "unknown column type '{other}' (use int, double, bool or str)"
                    )))
                }
            };
            columns.push((col, dtype));
            if !self.eat(&Token::Comma) {
                break;
            }
        }
        self.expect(Token::RParen)?;
        let persisted = self.eat_kw(Kw::Persisted);
        Ok(Statement::CreateTable {
            name,
            columns,
            persisted,
        })
    }

    /// `COPY t FROM 'path'` / `COPY t TO 'path'` (COPY already eaten).
    fn copy(&mut self) -> SqlResult<Statement> {
        let table = self.expect_ident()?;
        let direction = if self.eat_kw(Kw::From) {
            CopyDirection::From
        } else if self.eat_kw(Kw::To) {
            CopyDirection::To
        } else {
            return Err(SqlError::Parse(format!(
                "expected FROM or TO after COPY {table}, found {}",
                self.peek()
            )));
        };
        let path = match self.advance() {
            Token::Str(s) => s,
            other => {
                return Err(SqlError::Parse(format!(
                    "expected a quoted file path, found {other}"
                )))
            }
        };
        Ok(Statement::Copy {
            table,
            path,
            direction,
        })
    }

    fn select_stmt(&mut self) -> SqlResult<SelectStmt> {
        let mut with = Vec::new();
        if self.eat_kw(Kw::With) {
            loop {
                let name = self.expect_ident()?;
                self.expect_kw(Kw::As)?;
                self.expect(Token::LParen)?;
                let q = self.select_stmt()?;
                self.expect(Token::RParen)?;
                with.push((name, q));
                if !self.eat(&Token::Comma) {
                    break;
                }
            }
        }
        let mut stmt = self.select_core()?;
        stmt.with = with;
        Ok(stmt)
    }

    fn select_core(&mut self) -> SqlResult<SelectStmt> {
        self.expect_kw(Kw::Select)?;
        let mut stmt = SelectStmt::new();
        stmt.quantifier = if self.eat_kw(Kw::Distinct) {
            Quantifier::Distinct
        } else if self.eat_kw(Kw::Absorb) {
            Quantifier::Absorb
        } else {
            self.eat_kw(Kw::All);
            Quantifier::All
        };
        loop {
            stmt.items.push(self.select_item()?);
            if !self.eat(&Token::Comma) {
                break;
            }
        }
        if self.eat_kw(Kw::From) {
            stmt.from = Some(self.table_ref_list()?);
        }
        if self.eat_kw(Kw::Where) {
            stmt.where_clause = Some(self.expr()?);
        }
        if self.eat_kw(Kw::Group) {
            self.expect_kw(Kw::By)?;
            loop {
                stmt.group_by.push(self.expr()?);
                if !self.eat(&Token::Comma) {
                    break;
                }
            }
        }
        if self.eat_kw(Kw::Having) {
            return Err(SqlError::Parse("HAVING is not supported".into()));
        }
        if self.eat_kw(Kw::Order) {
            self.expect_kw(Kw::By)?;
            loop {
                let e = self.expr()?;
                let desc = if self.eat_kw(Kw::Desc) {
                    true
                } else {
                    self.eat_kw(Kw::Asc);
                    false
                };
                stmt.order_by.push((e, desc));
                if !self.eat(&Token::Comma) {
                    break;
                }
            }
        }
        if self.eat_kw(Kw::Limit) {
            match self.advance() {
                Token::Int(n) if n >= 0 => stmt.limit = Some(n as usize),
                other => {
                    return Err(SqlError::Parse(format!(
                        "expected LIMIT count, found {other}"
                    )))
                }
            }
        }
        // Set-operation continuation (right-nested).
        let op = if self.eat_kw(Kw::Union) {
            Some(SetOp::Union)
        } else if self.eat_kw(Kw::Except) {
            Some(SetOp::Except)
        } else if self.eat_kw(Kw::Intersect) {
            Some(SetOp::Intersect)
        } else {
            None
        };
        if let Some(op) = op {
            if self.eat_kw(Kw::All) {
                return Err(SqlError::Parse(
                    "bag semantics (UNION/EXCEPT/INTERSECT ALL) is not supported; \
                     the temporal algebra is set based (paper Sec. 3.1)"
                        .into(),
                ));
            }
            let rhs = self.select_core()?;
            stmt.set_op = Some((op, Box::new(rhs)));
        }
        Ok(stmt)
    }

    fn select_item(&mut self) -> SqlResult<SelectItem> {
        if self.eat(&Token::Star) {
            return Ok(SelectItem::Wildcard);
        }
        // alias.* ?
        if let (Token::Ident(q), Token::Dot) = (self.peek().clone(), self.peek2().clone()) {
            if self.tokens.get(self.pos + 2) == Some(&Token::Star) {
                self.advance();
                self.advance();
                self.advance();
                return Ok(SelectItem::QualifiedWildcard(q));
            }
        }
        let expr = self.expr()?;
        let alias = if self.eat_kw(Kw::As) {
            Some(self.expect_ident()?)
        } else if let Token::Ident(_) = self.peek() {
            // bare alias: `SELECT Ts Us, …`
            Some(self.expect_ident()?)
        } else {
            None
        };
        Ok(SelectItem::Expr { expr, alias })
    }

    // ---- FROM clause -----------------------------------------------------

    fn table_ref_list(&mut self) -> SqlResult<TableRef> {
        let mut t = self.table_ref_join()?;
        while self.eat(&Token::Comma) {
            let rhs = self.table_ref_join()?;
            t = TableRef::Join {
                left: Box::new(t),
                right: Box::new(rhs),
                kind: JoinKind::Cross,
                on: None,
            };
        }
        Ok(t)
    }

    fn table_ref_join(&mut self) -> SqlResult<TableRef> {
        let mut t = self.table_ref_primary()?;
        loop {
            let kind = if self.eat_kw(Kw::Join) || self.eat_kw(Kw::Inner) {
                // INNER requires JOIN; plain JOIN is inner.
                if self.tokens[self.pos.saturating_sub(1)] == Token::Keyword(Kw::Inner) {
                    self.expect_kw(Kw::Join)?;
                }
                JoinKind::Inner
            } else if self.eat_kw(Kw::Left) {
                self.eat_kw(Kw::Outer);
                self.expect_kw(Kw::Join)?;
                JoinKind::Left
            } else if self.eat_kw(Kw::Right) {
                self.eat_kw(Kw::Outer);
                self.expect_kw(Kw::Join)?;
                JoinKind::Right
            } else if self.eat_kw(Kw::Full) {
                self.eat_kw(Kw::Outer);
                self.expect_kw(Kw::Join)?;
                JoinKind::Full
            } else if self.eat_kw(Kw::Cross) {
                self.expect_kw(Kw::Join)?;
                JoinKind::Cross
            } else {
                break;
            };
            let rhs = self.table_ref_primary()?;
            let on = if kind == JoinKind::Cross {
                None
            } else {
                self.expect_kw(Kw::On)?;
                Some(self.expr()?)
            };
            t = TableRef::Join {
                left: Box::new(t),
                right: Box::new(rhs),
                kind,
                on,
            };
        }
        Ok(t)
    }

    fn table_ref_primary(&mut self) -> SqlResult<TableRef> {
        if self.eat(&Token::LParen) {
            // Subquery or parenthesized (possibly aligned/normalized) table.
            if matches!(
                self.peek(),
                Token::Keyword(Kw::Select) | Token::Keyword(Kw::With)
            ) {
                let q = self.select_stmt()?;
                self.expect(Token::RParen)?;
                self.eat_kw(Kw::As);
                let alias = self.expect_ident()?;
                return Ok(TableRef::Subquery {
                    query: Box::new(q),
                    alias,
                });
            }
            let left = self.table_ref_primary()?;
            if self.eat_kw(Kw::Align) {
                let right = self.table_ref_primary()?;
                self.expect_kw(Kw::On)?;
                let on = self.expr()?;
                self.expect(Token::RParen)?;
                let alias = self.opt_alias();
                return Ok(TableRef::Align {
                    left: Box::new(left),
                    right: Box::new(right),
                    on,
                    alias,
                });
            }
            if self.eat_kw(Kw::Normalize) {
                let right = self.table_ref_primary()?;
                self.expect_kw(Kw::Using)?;
                self.expect(Token::LParen)?;
                let mut using = Vec::new();
                if !self.eat(&Token::RParen) {
                    loop {
                        using.push(self.expect_ident()?);
                        if !self.eat(&Token::Comma) {
                            break;
                        }
                    }
                    self.expect(Token::RParen)?;
                }
                self.expect(Token::RParen)?;
                let alias = self.opt_alias();
                return Ok(TableRef::Normalize {
                    left: Box::new(left),
                    right: Box::new(right),
                    using,
                    alias,
                });
            }
            // plain parenthesized table ref
            self.expect(Token::RParen)?;
            return Ok(left);
        }
        let name = self.expect_ident()?;
        // `t AS OF <expr>` — the OF lookahead keeps `t AS x` aliases working.
        let as_of = if matches!(self.peek(), Token::Keyword(Kw::As))
            && matches!(self.peek2(), Token::Keyword(Kw::Of))
        {
            self.eat_kw(Kw::As);
            self.eat_kw(Kw::Of);
            Some(self.add_expr()?)
        } else {
            None
        };
        let alias = self.opt_alias();
        Ok(TableRef::Named { name, alias, as_of })
    }

    fn opt_alias(&mut self) -> Option<String> {
        if self.eat_kw(Kw::As) {
            return self.expect_ident().ok();
        }
        if let Token::Ident(_) = self.peek() {
            return self.expect_ident().ok();
        }
        None
    }

    // ---- expressions -----------------------------------------------------

    fn expr(&mut self) -> SqlResult<AstExpr> {
        self.or_expr()
    }

    fn or_expr(&mut self) -> SqlResult<AstExpr> {
        let mut e = self.and_expr()?;
        while self.eat_kw(Kw::Or) {
            let r = self.and_expr()?;
            e = AstExpr::Binary {
                op: BinOp::Or,
                left: Box::new(e),
                right: Box::new(r),
            };
        }
        Ok(e)
    }

    fn and_expr(&mut self) -> SqlResult<AstExpr> {
        let mut e = self.not_expr()?;
        while self.eat_kw(Kw::And) {
            let r = self.not_expr()?;
            e = AstExpr::Binary {
                op: BinOp::And,
                left: Box::new(e),
                right: Box::new(r),
            };
        }
        Ok(e)
    }

    fn not_expr(&mut self) -> SqlResult<AstExpr> {
        if self.eat_kw(Kw::Not) {
            let inner = self.not_expr()?;
            // NOT EXISTS / NOT BETWEEN get dedicated nodes.
            return Ok(match inner {
                AstExpr::Exists { query, negated } => AstExpr::Exists {
                    query,
                    negated: !negated,
                },
                other => AstExpr::Not(Box::new(other)),
            });
        }
        self.cmp_expr()
    }

    fn cmp_expr(&mut self) -> SqlResult<AstExpr> {
        let e = self.add_expr()?;
        let op = match self.peek() {
            Token::Eq => Some(BinOp::Eq),
            Token::Ne => Some(BinOp::Ne),
            Token::Lt => Some(BinOp::Lt),
            Token::Le => Some(BinOp::Le),
            Token::Gt => Some(BinOp::Gt),
            Token::Ge => Some(BinOp::Ge),
            _ => None,
        };
        if let Some(op) = op {
            self.advance();
            let r = self.add_expr()?;
            return Ok(AstExpr::Binary {
                op,
                left: Box::new(e),
                right: Box::new(r),
            });
        }
        if self.eat_kw(Kw::Between) {
            let low = self.add_expr()?;
            self.expect_kw(Kw::And)?;
            let high = self.add_expr()?;
            return Ok(AstExpr::Between {
                expr: Box::new(e),
                low: Box::new(low),
                high: Box::new(high),
                negated: false,
            });
        }
        if self.eat_kw(Kw::Not) {
            self.expect_kw(Kw::Between)?;
            let low = self.add_expr()?;
            self.expect_kw(Kw::And)?;
            let high = self.add_expr()?;
            return Ok(AstExpr::Between {
                expr: Box::new(e),
                low: Box::new(low),
                high: Box::new(high),
                negated: true,
            });
        }
        if self.eat_kw(Kw::Is) {
            let negated = self.eat_kw(Kw::Not);
            self.expect_kw(Kw::Null)?;
            return Ok(AstExpr::IsNull {
                expr: Box::new(e),
                negated,
            });
        }
        Ok(e)
    }

    fn add_expr(&mut self) -> SqlResult<AstExpr> {
        let mut e = self.mul_expr()?;
        loop {
            let op = match self.peek() {
                Token::Plus => BinOp::Add,
                Token::Minus => BinOp::Sub,
                _ => break,
            };
            self.advance();
            let r = self.mul_expr()?;
            e = AstExpr::Binary {
                op,
                left: Box::new(e),
                right: Box::new(r),
            };
        }
        Ok(e)
    }

    fn mul_expr(&mut self) -> SqlResult<AstExpr> {
        let mut e = self.unary_expr()?;
        loop {
            let op = match self.peek() {
                Token::Star => BinOp::Mul,
                Token::Slash => BinOp::Div,
                _ => break,
            };
            self.advance();
            let r = self.unary_expr()?;
            e = AstExpr::Binary {
                op,
                left: Box::new(e),
                right: Box::new(r),
            };
        }
        Ok(e)
    }

    fn unary_expr(&mut self) -> SqlResult<AstExpr> {
        if self.eat(&Token::Minus) {
            let inner = self.unary_expr()?;
            return Ok(AstExpr::Neg(Box::new(inner)));
        }
        self.primary_expr()
    }

    fn primary_expr(&mut self) -> SqlResult<AstExpr> {
        match self.advance() {
            Token::Int(v) => Ok(AstExpr::IntLit(v)),
            Token::Float(v) => Ok(AstExpr::FloatLit(v)),
            Token::Str(s) => Ok(AstExpr::StringLit(s)),
            Token::Keyword(Kw::True) => Ok(AstExpr::BoolLit(true)),
            Token::Keyword(Kw::False) => Ok(AstExpr::BoolLit(false)),
            Token::Keyword(Kw::Null) => Ok(AstExpr::NullLit),
            Token::Keyword(Kw::Exists) => {
                self.expect(Token::LParen)?;
                let q = self.select_stmt()?;
                self.expect(Token::RParen)?;
                Ok(AstExpr::Exists {
                    query: Box::new(q),
                    negated: false,
                })
            }
            Token::LParen => {
                let e = self.expr()?;
                self.expect(Token::RParen)?;
                Ok(e)
            }
            Token::Ident(name) => {
                // function call?
                if self.peek() == &Token::LParen {
                    self.advance();
                    if self.eat(&Token::Star) {
                        self.expect(Token::RParen)?;
                        return Ok(AstExpr::Func {
                            name,
                            args: Vec::new(),
                            star: true,
                        });
                    }
                    let mut args = Vec::new();
                    if !self.eat(&Token::RParen) {
                        loop {
                            args.push(self.expr()?);
                            if !self.eat(&Token::Comma) {
                                break;
                            }
                        }
                        self.expect(Token::RParen)?;
                    }
                    return Ok(AstExpr::Func {
                        name,
                        args,
                        star: false,
                    });
                }
                // qualified column?
                if self.eat(&Token::Dot) {
                    let col = self.expect_ident()?;
                    return Ok(AstExpr::Column {
                        qualifier: Some(name),
                        name: col,
                    });
                }
                Ok(AstExpr::Column {
                    qualifier: None,
                    name,
                })
            }
            other => Err(SqlError::Parse(format!(
                "unexpected token {other} in expression"
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sel(sql: &str) -> SelectStmt {
        match parse_statement(sql).unwrap() {
            Statement::Select(s) => s,
            other => panic!("expected select, got {other:?}"),
        }
    }

    #[test]
    fn simple_select() {
        let s = sel("SELECT a, b AS bb FROM t WHERE a = 1 ORDER BY b DESC LIMIT 5;");
        assert_eq!(s.items.len(), 2);
        assert!(matches!(
            &s.items[1],
            SelectItem::Expr { alias: Some(a), .. } if a == "bb"
        ));
        assert!(s.where_clause.is_some());
        assert_eq!(s.order_by.len(), 1);
        assert!(s.order_by[0].1);
        assert_eq!(s.limit, Some(5));
    }

    #[test]
    fn bare_alias_and_wildcards() {
        let s = sel("SELECT Ts Us, Te Ue, *, r.* FROM r");
        assert_eq!(s.items.len(), 4);
        assert!(matches!(
            &s.items[0],
            SelectItem::Expr { alias: Some(a), .. } if a == "us"
        ));
        assert!(matches!(&s.items[2], SelectItem::Wildcard));
        assert!(matches!(
            &s.items[3],
            SelectItem::QualifiedWildcard(q) if q == "r"
        ));
    }

    #[test]
    fn paper_q1_align_query_parses() {
        // Sec. 6.2, the SQL formulation of Q1 (identifiers lowercased).
        let s = sel("WITH R AS (SELECT Ts Us, Te Ue, * FROM R) \
             SELECT ABSORB n, a, min, max, r.Ts, r.Te \
             FROM (R ALIGN P ON DUR(Us,Ue) BETWEEN Min AND Max) r \
             LEFT OUTER JOIN \
             (P ALIGN R ON DUR(Us,Ue) BETWEEN Min AND Max) p \
             ON DUR(Us,Ue) BETWEEN Min AND Max AND \
             r.Ts=p.Ts AND r.Te=p.Te");
        assert_eq!(s.quantifier, Quantifier::Absorb);
        assert_eq!(s.with.len(), 1);
        let from = s.from.unwrap();
        match from {
            TableRef::Join {
                left, right, kind, ..
            } => {
                assert_eq!(kind, JoinKind::Left);
                assert!(matches!(*left, TableRef::Align { .. }));
                assert!(matches!(*right, TableRef::Align { .. }));
            }
            other => panic!("unexpected from: {other:?}"),
        }
    }

    #[test]
    fn paper_normalize_aggregation_parses() {
        // Sec. 6.3, the temporal aggregation formulation.
        let s = sel("WITH R AS (SELECT Ts Us, Te Ue, * FROM R) \
             SELECT AVG(DUR(Us,Ue)), Ts, Te \
             FROM (R R1 NORMALIZE R R2 USING()) r \
             GROUP BY Ts, Te");
        assert_eq!(s.group_by.len(), 2);
        match s.from.unwrap() {
            TableRef::Normalize {
                left,
                right,
                using,
                alias,
            } => {
                assert!(using.is_empty());
                assert_eq!(alias.as_deref(), Some("r"));
                assert!(matches!(
                    *left,
                    TableRef::Named { ref alias, .. } if alias.as_deref() == Some("r1")
                ));
                assert!(matches!(*right, TableRef::Named { .. }));
            }
            other => panic!("unexpected from: {other:?}"),
        }
    }

    #[test]
    fn normalize_with_using_columns() {
        let s = sel("SELECT * FROM (a NORMALIZE b USING(ssn, pcn)) n");
        match s.from.unwrap() {
            TableRef::Normalize { using, .. } => assert_eq!(using, vec!["ssn", "pcn"]),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn exists_and_not_exists() {
        let s = sel("SELECT * FROM r WHERE NOT EXISTS (SELECT * FROM s WHERE s.k = r.k)");
        match s.where_clause.unwrap() {
            AstExpr::Exists { negated, .. } => assert!(negated),
            other => panic!("{other:?}"),
        }
        let s = sel("SELECT * FROM r WHERE EXISTS (SELECT * FROM s)");
        match s.where_clause.unwrap() {
            AstExpr::Exists { negated, .. } => assert!(!negated),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn set_operations_chain() {
        let s = sel("SELECT a FROM r UNION SELECT a FROM s EXCEPT SELECT a FROM t");
        let (op1, rhs) = s.set_op.unwrap();
        assert_eq!(op1, SetOp::Union);
        let (op2, _) = rhs.set_op.clone().unwrap();
        assert_eq!(op2, SetOp::Except);
    }

    #[test]
    fn union_all_rejected() {
        let e = parse_statement("SELECT a FROM r UNION ALL SELECT a FROM s").unwrap_err();
        assert!(e.to_string().contains("set based"));
    }

    #[test]
    fn set_and_explain_statements() {
        match parse_statement("SET enable_mergejoin = off").unwrap() {
            Statement::Set { name, value } => {
                assert_eq!(name, "enable_mergejoin");
                assert_eq!(value, SettingValue::Bool(false));
            }
            other => panic!("{other:?}"),
        }
        match parse_statement("SET slow_query_ms = 4").unwrap() {
            Statement::Set { name, value } => {
                assert_eq!(name, "slow_query_ms");
                assert_eq!(value, SettingValue::Int(4));
            }
            other => panic!("{other:?}"),
        }
        assert!(matches!(
            parse_statement("EXPLAIN SELECT * FROM r").unwrap(),
            Statement::Explain { analyze: false, .. }
        ));
        assert!(matches!(
            parse_statement("EXPLAIN ANALYZE SELECT * FROM r").unwrap(),
            Statement::Explain { analyze: true, .. }
        ));
    }

    #[test]
    fn between_and_is_null_and_precedence() {
        let s = sel("SELECT * FROM r WHERE a BETWEEN 1 AND 3 AND b IS NOT NULL OR c = 2");
        // ((a BETWEEN …) AND (b IS NOT NULL)) OR (c = 2)
        match s.where_clause.unwrap() {
            AstExpr::Binary {
                op: BinOp::Or,
                left,
                ..
            } => match *left {
                AstExpr::Binary { op: BinOp::And, .. } => {}
                other => panic!("{other:?}"),
            },
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn arithmetic_precedence() {
        let s = sel("SELECT 1 + 2 * 3 FROM r");
        match &s.items[0] {
            SelectItem::Expr {
                expr:
                    AstExpr::Binary {
                        op: BinOp::Add,
                        right,
                        ..
                    },
                ..
            } => assert!(matches!(**right, AstExpr::Binary { op: BinOp::Mul, .. })),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn insert_values_parses() {
        let s = parse_statement("INSERT INTO t VALUES ('ann', -1.5, 0, 8), (NULL, 2.0, -3, true)")
            .unwrap();
        match s {
            Statement::Insert { table, rows } => {
                assert_eq!(table, "t");
                assert_eq!(rows.len(), 2);
                assert_eq!(rows[0][0], AstExpr::StringLit("ann".into()));
                assert_eq!(rows[0][1], AstExpr::FloatLit(-1.5));
                assert_eq!(rows[1][0], AstExpr::NullLit);
                assert_eq!(rows[1][2], AstExpr::IntLit(-3));
                assert_eq!(rows[1][3], AstExpr::BoolLit(true));
            }
            other => panic!("{other:?}"),
        }
        // Non-literal values and malformed forms error.
        assert!(parse_statement("INSERT INTO t VALUES (a + 1)").is_err());
        assert!(parse_statement("INSERT t VALUES (1)").is_err());
        assert!(parse_statement("INSERT INTO t VALUES 1, 2").is_err());
        assert!(parse_statement("INSERT INTO t VALUES (-'x')").is_err());
    }

    #[test]
    fn parse_errors_are_descriptive() {
        assert!(parse_statement("SELECT FROM").is_err());
        assert!(parse_statement("SELECT * FROM (r ALIGN s)").is_err()); // missing ON
        assert!(parse_statement("SELECT * HAVING x").is_err());
        assert!(parse_statement("SELECT * FROM r GROUP a").is_err());
    }

    #[test]
    fn count_star_parses() {
        let s = sel("SELECT count(*) FROM r");
        match &s.items[0] {
            SelectItem::Expr {
                expr: AstExpr::Func { name, star, .. },
                ..
            } => {
                assert_eq!(name, "count");
                assert!(*star);
            }
            other => panic!("{other:?}"),
        }
    }
}
