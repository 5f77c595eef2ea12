//! Recursive-descent parser for the SQL dialect with SQL-PLE.
//!
//! Expression parsing uses classic precedence climbing. Keywords are matched
//! contextually against identifier tokens, so the grammar stays extensible;
//! a small reserved-word list keeps implicit aliases from swallowing clause
//! keywords (`FROM x BASERELATION` must not read `BASERELATION` as an
//! alias).

use perm_types::{DataType, PermError, Result, Value};

use crate::ast::*;
use crate::lexer::tokenize;
use crate::token::{Token, TokenKind};

/// Parse exactly one statement (a trailing `;` is allowed).
pub fn parse_statement(sql: &str) -> Result<Statement> {
    let mut p = Parser::new(sql)?;
    let stmt = p.parse_statement()?;
    p.eat(&TokenKind::Semicolon);
    p.expect_eof()?;
    Ok(stmt)
}

/// Parse a `;`-separated script. Each statement comes with its source
/// text, from its first token through its last: the separators and the
/// comments between statements are not part of it, and the text
/// re-parses through [`parse_statement`] to the same statement.
pub fn parse_statements(sql: &str) -> Result<Vec<(Statement, &str)>> {
    let mut p = Parser::new(sql)?;
    let mut out = Vec::new();
    loop {
        while p.eat(&TokenKind::Semicolon) {}
        if p.at_eof() {
            return Ok(out);
        }
        let first = p.pos;
        let stmt = p.parse_statement()?;
        out.push((stmt, p.text_from(first)));
        if !p.at_eof() && !p.check(&TokenKind::Semicolon) {
            return Err(p.error("expected ';' between statements"));
        }
    }
}

/// Parse a standalone scalar expression (used by tests and tools).
pub fn parse_expression(sql: &str) -> Result<Expr> {
    let mut p = Parser::new(sql)?;
    let e = p.parse_expr()?;
    p.expect_eof()?;
    Ok(e)
}

/// Words that cannot be used as an *implicit* (un-`AS`ed) alias or swallow
/// the start of the next clause.
const RESERVED: &[&str] = &[
    "select",
    "from",
    "where",
    "group",
    "having",
    "order",
    "limit",
    "offset",
    "union",
    "intersect",
    "except",
    "on",
    "join",
    "inner",
    "left",
    "right",
    "full",
    "cross",
    "natural",
    "as",
    "and",
    "or",
    "not",
    "in",
    "is",
    "like",
    "between",
    "case",
    "when",
    "then",
    "else",
    "end",
    "exists",
    "distinct",
    "all",
    "null",
    "true",
    "false",
    "cast",
    "provenance",
    "baserelation",
    "asc",
    "desc",
    "values",
    "by",
    "into",
    "create",
    "insert",
    "drop",
    "table",
    "view",
    "explain",
    "using",
];

fn is_reserved(word: &str) -> bool {
    RESERVED.iter().any(|r| r.eq_ignore_ascii_case(word))
}

struct Parser<'a> {
    src: &'a str,
    tokens: Vec<Token>,
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(src: &'a str) -> Result<Parser<'a>> {
        Ok(Parser {
            src,
            tokens: tokenize(src)?,
            pos: 0,
        })
    }

    // ------------------------------------------------------------------
    // Cursor helpers
    // ------------------------------------------------------------------

    fn peek(&self) -> &Token {
        &self.tokens[self.pos.min(self.tokens.len() - 1)]
    }

    fn peek_kind(&self) -> &TokenKind {
        &self.peek().kind
    }

    fn peek_ahead(&self, n: usize) -> &TokenKind {
        &self.tokens[(self.pos + n).min(self.tokens.len() - 1)].kind
    }

    fn advance(&mut self) -> Token {
        let t = self.tokens[self.pos.min(self.tokens.len() - 1)].clone();
        if self.pos < self.tokens.len() - 1 {
            self.pos += 1;
        }
        t
    }

    /// The source text from token `first` through the last consumed one.
    fn text_from(&self, first: usize) -> &'a str {
        &self.src[self.tokens[first].span.start..self.tokens[self.pos - 1].span.end]
    }

    fn at_eof(&self) -> bool {
        matches!(self.peek_kind(), TokenKind::Eof)
    }

    fn check(&self, kind: &TokenKind) -> bool {
        self.peek_kind() == kind
    }

    fn eat(&mut self, kind: &TokenKind) -> bool {
        if self.check(kind) {
            self.advance();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, kind: &TokenKind) -> Result<()> {
        if self.eat(kind) {
            Ok(())
        } else {
            Err(self.error(format!("expected '{kind}'")))
        }
    }

    fn check_keyword(&self, kw: &str) -> bool {
        self.peek_kind().is_keyword(kw)
    }

    fn check_keyword_ahead(&self, n: usize, kw: &str) -> bool {
        self.peek_ahead(n).is_keyword(kw)
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if self.check_keyword(kw) {
            self.advance();
            true
        } else {
            false
        }
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<()> {
        if self.eat_keyword(kw) {
            Ok(())
        } else {
            Err(self.error(format!("expected '{}'", kw.to_uppercase())))
        }
    }

    fn expect_ident(&mut self) -> Result<String> {
        match self.peek_kind().clone() {
            TokenKind::Ident(s) => {
                self.advance();
                Ok(s)
            }
            other => Err(self.error(format!("expected identifier, found '{other}'"))),
        }
    }

    fn expect_eof(&mut self) -> Result<()> {
        if self.at_eof() {
            Ok(())
        } else {
            Err(self.error("unexpected trailing input"))
        }
    }

    fn error(&self, msg: impl Into<String>) -> PermError {
        let t = self.peek();
        PermError::Parse(format!(
            "{} at line {}, column {} (near '{}')",
            msg.into(),
            t.line,
            t.col,
            t.kind
        ))
    }

    // ------------------------------------------------------------------
    // Statements
    // ------------------------------------------------------------------

    fn parse_statement(&mut self) -> Result<Statement> {
        if self.check_keyword("create") {
            return self.parse_create();
        }
        if self.check_keyword("insert") {
            return self.parse_insert();
        }
        if self.check_keyword("drop") {
            return self.parse_drop();
        }
        if self.check_keyword("delete") {
            return self.parse_delete();
        }
        if self.check_keyword("update") {
            return self.parse_update();
        }
        if self.eat_keyword("explain") {
            let verify = self.eat_keyword("verify");
            let verbose = self.eat_keyword("verbose");
            return Ok(Statement::Explain {
                query: self.parse_query()?,
                verbose,
                verify,
            });
        }
        Ok(Statement::Query(self.parse_query()?))
    }

    fn parse_delete(&mut self) -> Result<Statement> {
        self.expect_keyword("delete")?;
        self.expect_keyword("from")?;
        let table = self.expect_ident()?;
        let predicate = if self.eat_keyword("where") {
            Some(self.parse_expr()?)
        } else {
            None
        };
        Ok(Statement::Delete { table, predicate })
    }

    fn parse_update(&mut self) -> Result<Statement> {
        self.expect_keyword("update")?;
        let table = self.expect_ident()?;
        self.expect_keyword("set")?;
        let mut assignments = Vec::new();
        loop {
            let col = self.expect_ident()?;
            self.expect(&TokenKind::Eq)?;
            let value = self.parse_expr()?;
            assignments.push((col, value));
            if !self.eat(&TokenKind::Comma) {
                break;
            }
        }
        let predicate = if self.eat_keyword("where") {
            Some(self.parse_expr()?)
        } else {
            None
        };
        Ok(Statement::Update {
            table,
            assignments,
            predicate,
        })
    }

    fn parse_create(&mut self) -> Result<Statement> {
        self.expect_keyword("create")?;
        if self.eat_keyword("view") {
            let name = self.expect_ident()?;
            self.expect_keyword("as")?;
            let first = self.pos;
            let query = self.parse_query()?;
            let sql = self.text_from(first).to_string();
            return Ok(Statement::CreateView { name, query, sql });
        }
        self.expect_keyword("table")?;
        let name = self.expect_ident()?;
        if self.eat_keyword("as") {
            let query = self.parse_query()?;
            return Ok(Statement::CreateTableAs { name, query });
        }
        self.expect(&TokenKind::LParen)?;
        let mut columns = Vec::new();
        loop {
            let col_name = self.expect_ident()?;
            let ty_name = self.expect_ident()?;
            let ty = DataType::parse(&ty_name)?;
            let mut not_null = false;
            if self.eat_keyword("not") {
                self.expect_keyword("null")?;
                not_null = true;
            }
            columns.push(ColumnDef {
                name: col_name,
                ty,
                not_null,
            });
            if !self.eat(&TokenKind::Comma) {
                break;
            }
        }
        self.expect(&TokenKind::RParen)?;
        Ok(Statement::CreateTable { name, columns })
    }

    fn parse_insert(&mut self) -> Result<Statement> {
        self.expect_keyword("insert")?;
        self.expect_keyword("into")?;
        let table = self.expect_ident()?;
        let columns = if self.check(&TokenKind::LParen) {
            self.advance();
            let mut cols = Vec::new();
            loop {
                cols.push(self.expect_ident()?);
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
            self.expect(&TokenKind::RParen)?;
            Some(cols)
        } else {
            None
        };
        self.expect_keyword("values")?;
        let mut rows = Vec::new();
        loop {
            self.expect(&TokenKind::LParen)?;
            let mut row = Vec::new();
            loop {
                row.push(self.parse_expr()?);
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
            self.expect(&TokenKind::RParen)?;
            rows.push(row);
            if !self.eat(&TokenKind::Comma) {
                break;
            }
        }
        Ok(Statement::Insert {
            table,
            columns,
            rows,
        })
    }

    fn parse_drop(&mut self) -> Result<Statement> {
        self.expect_keyword("drop")?;
        let kind = if self.eat_keyword("view") {
            ObjectKind::View
        } else {
            self.expect_keyword("table")?;
            ObjectKind::Table
        };
        let mut if_exists = false;
        if self.eat_keyword("if") {
            self.expect_keyword("exists")?;
            if_exists = true;
        }
        let name = self.expect_ident()?;
        Ok(Statement::Drop {
            kind,
            name,
            if_exists,
        })
    }

    // ------------------------------------------------------------------
    // Queries
    // ------------------------------------------------------------------

    fn parse_query(&mut self) -> Result<Query> {
        let body = self.parse_query_body(0)?;
        let mut order_by = Vec::new();
        if self.eat_keyword("order") {
            self.expect_keyword("by")?;
            loop {
                let expr = self.parse_expr()?;
                let desc = if self.eat_keyword("desc") {
                    true
                } else {
                    self.eat_keyword("asc");
                    false
                };
                order_by.push(OrderItem { expr, desc });
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
        }
        let mut limit = None;
        let mut offset = None;
        if self.eat_keyword("limit") {
            limit = Some(self.parse_u64()?);
        }
        if self.eat_keyword("offset") {
            offset = Some(self.parse_u64()?);
        }
        Ok(Query {
            body,
            order_by,
            limit,
            offset,
        })
    }

    fn parse_u64(&mut self) -> Result<u64> {
        match self.peek_kind().clone() {
            TokenKind::IntLit(i) if i >= 0 => {
                self.advance();
                Ok(i as u64)
            }
            other => Err(self.error(format!("expected non-negative integer, found '{other}'"))),
        }
    }

    /// Set-operation precedence: `INTERSECT` (2) binds tighter than `UNION`
    /// and `EXCEPT` (1), as in standard SQL.
    fn parse_query_body(&mut self, min_prec: u8) -> Result<QueryBody> {
        let mut left = self.parse_query_primary()?;
        loop {
            let (op, prec) = if self.check_keyword("union") {
                (SetOpKind::Union, 1)
            } else if self.check_keyword("except") {
                (SetOpKind::Except, 1)
            } else if self.check_keyword("intersect") {
                (SetOpKind::Intersect, 2)
            } else {
                break;
            };
            if prec < min_prec {
                break;
            }
            self.advance();
            let all = if self.eat_keyword("all") {
                true
            } else {
                self.eat_keyword("distinct");
                false
            };
            let right = self.parse_query_body(prec + 1)?;
            left = QueryBody::SetOp {
                op,
                all,
                left: Box::new(left),
                right: Box::new(right),
            };
        }
        Ok(left)
    }

    fn parse_query_primary(&mut self) -> Result<QueryBody> {
        if self.check(&TokenKind::LParen) {
            self.advance();
            let q = self.parse_query()?;
            self.expect(&TokenKind::RParen)?;
            if !q.order_by.is_empty() || q.limit.is_some() || q.offset.is_some() {
                return Err(self.error(
                    "ORDER BY / LIMIT inside a set-operation operand is not supported; \
                     apply it to the whole query",
                ));
            }
            return Ok(q.body);
        }
        Ok(QueryBody::Select(Box::new(self.parse_select_core()?)))
    }

    fn parse_select_core(&mut self) -> Result<Select> {
        self.expect_keyword("select")?;

        // SQL-PLE: SELECT PROVENANCE [ON CONTRIBUTION (semantics)] ...
        let provenance = if self.eat_keyword("provenance") {
            let semantics =
                if self.check_keyword("on") && self.check_keyword_ahead(1, "contribution") {
                    self.advance(); // on
                    self.advance(); // contribution
                    self.expect(&TokenKind::LParen)?;
                    let sem = self.parse_contribution_semantics()?;
                    self.expect(&TokenKind::RParen)?;
                    Some(sem)
                } else {
                    None
                };
            Some(ProvenanceClause { semantics })
        } else {
            None
        };

        let distinct = if self.eat_keyword("distinct") {
            true
        } else {
            self.eat_keyword("all");
            false
        };

        let mut items = Vec::new();
        loop {
            items.push(self.parse_select_item()?);
            if !self.eat(&TokenKind::Comma) {
                break;
            }
        }

        let mut from = Vec::new();
        if self.eat_keyword("from") {
            loop {
                from.push(self.parse_table_ref()?);
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
        }

        let where_clause = if self.eat_keyword("where") {
            Some(self.parse_expr()?)
        } else {
            None
        };

        let mut group_by = Vec::new();
        if self.eat_keyword("group") {
            self.expect_keyword("by")?;
            loop {
                group_by.push(self.parse_expr()?);
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
        }

        let having = if self.eat_keyword("having") {
            Some(self.parse_expr()?)
        } else {
            None
        };

        Ok(Select {
            provenance,
            distinct,
            items,
            from,
            where_clause,
            group_by,
            having,
        })
    }

    fn parse_contribution_semantics(&mut self) -> Result<ContributionSemantics> {
        if self.eat_keyword("influence") {
            Ok(ContributionSemantics::Influence)
        } else if self.eat_keyword("lineage") {
            Ok(ContributionSemantics::Lineage)
        } else if self.eat_keyword("copy") {
            let mode = if self.eat_keyword("complete") {
                CopyMode::Complete
            } else {
                self.eat_keyword("partial");
                CopyMode::Partial
            };
            Ok(ContributionSemantics::Copy(mode))
        } else {
            Err(self.error(
                "expected contribution semantics: INFLUENCE, COPY [PARTIAL|COMPLETE] or LINEAGE",
            ))
        }
    }

    fn parse_select_item(&mut self) -> Result<SelectItem> {
        if self.eat(&TokenKind::Star) {
            return Ok(SelectItem::Wildcard);
        }
        // `alias.*`
        if let TokenKind::Ident(name) = self.peek_kind().clone() {
            if *self.peek_ahead(1) == TokenKind::Dot && *self.peek_ahead(2) == TokenKind::Star {
                self.advance();
                self.advance();
                self.advance();
                return Ok(SelectItem::QualifiedWildcard(name));
            }
        }
        let expr = self.parse_expr()?;
        let alias = self.parse_opt_alias()?;
        Ok(SelectItem::Expr { expr, alias })
    }

    fn parse_opt_alias(&mut self) -> Result<Option<String>> {
        if self.eat_keyword("as") {
            return Ok(Some(self.expect_ident()?));
        }
        if let TokenKind::Ident(name) = self.peek_kind().clone() {
            if !is_reserved(&name) {
                self.advance();
                return Ok(Some(name));
            }
        }
        Ok(None)
    }

    // ------------------------------------------------------------------
    // FROM items
    // ------------------------------------------------------------------

    fn parse_table_ref(&mut self) -> Result<TableRef> {
        let mut left = self.parse_table_primary()?;
        loop {
            let kind = if self.eat_keyword("cross") {
                self.expect_keyword("join")?;
                JoinKind::Cross
            } else if self.eat_keyword("inner") {
                self.expect_keyword("join")?;
                JoinKind::Inner
            } else if self.eat_keyword("left") {
                self.eat_keyword("outer");
                self.expect_keyword("join")?;
                JoinKind::Left
            } else if self.eat_keyword("right") {
                self.eat_keyword("outer");
                self.expect_keyword("join")?;
                JoinKind::Right
            } else if self.eat_keyword("full") {
                self.eat_keyword("outer");
                self.expect_keyword("join")?;
                JoinKind::Full
            } else if self.eat_keyword("join") {
                JoinKind::Inner
            } else {
                break;
            };
            let right = self.parse_table_primary()?;
            let on = if kind == JoinKind::Cross {
                None
            } else {
                self.expect_keyword("on")?;
                Some(self.parse_expr()?)
            };
            left = TableRef::Join {
                left: Box::new(left),
                right: Box::new(right),
                kind,
                on,
            };
        }
        Ok(left)
    }

    fn parse_table_primary(&mut self) -> Result<TableRef> {
        if self.check(&TokenKind::LParen) {
            // Subquery or parenthesized join tree. A subquery starts with
            // SELECT, or with '(' that eventually reaches SELECT.
            if self.starts_subquery() {
                self.advance(); // (
                let query = self.parse_query()?;
                self.expect(&TokenKind::RParen)?;
                let alias = self.parse_table_alias(true)?;
                let column_aliases = self.parse_column_alias_list()?;
                let modifiers = self.parse_from_modifiers()?;
                return Ok(TableRef::Subquery {
                    query: Box::new(query),
                    alias,
                    column_aliases,
                    modifiers,
                });
            }
            self.advance(); // (
            let inner = self.parse_table_ref()?;
            self.expect(&TokenKind::RParen)?;
            return Ok(inner);
        }
        let name = self.expect_ident()?;
        let alias = self.parse_opt_alias()?;
        let column_aliases = if alias.is_some() {
            self.parse_column_alias_list()?
        } else {
            None
        };
        let modifiers = self.parse_from_modifiers()?;
        Ok(TableRef::Relation {
            name,
            alias,
            column_aliases,
            modifiers,
        })
    }

    /// Optional `(c1, c2, …)` column alias list after a table alias.
    fn parse_column_alias_list(&mut self) -> Result<Option<Vec<String>>> {
        if !self.check(&TokenKind::LParen) {
            return Ok(None);
        }
        self.advance();
        let mut cols = Vec::new();
        loop {
            cols.push(self.expect_ident()?);
            if !self.eat(&TokenKind::Comma) {
                break;
            }
        }
        self.expect(&TokenKind::RParen)?;
        Ok(Some(cols))
    }

    /// Look ahead over nested '(' to see if a parenthesized FROM item is a
    /// subquery (`(SELECT …)`), as opposed to a parenthesized join.
    fn starts_subquery(&self) -> bool {
        let mut i = 0;
        while *self.peek_ahead(i) == TokenKind::LParen {
            i += 1;
        }
        self.peek_ahead(i).is_keyword("select")
    }

    fn parse_table_alias(&mut self, required: bool) -> Result<String> {
        match self.parse_opt_alias()? {
            Some(a) => Ok(a),
            None if required => Err(self.error("subquery in FROM must have an alias")),
            None => Ok(String::new()),
        }
    }

    /// SQL-PLE FROM-item modifiers: `BASERELATION` and `PROVENANCE (attrs)`.
    fn parse_from_modifiers(&mut self) -> Result<FromModifiers> {
        let mut m = FromModifiers::none();
        loop {
            if self.eat_keyword("baserelation") {
                m.baserelation = true;
            } else if self.check_keyword("provenance") {
                self.advance();
                self.expect(&TokenKind::LParen)?;
                let mut attrs = Vec::new();
                loop {
                    attrs.push(self.expect_ident()?);
                    if !self.eat(&TokenKind::Comma) {
                        break;
                    }
                }
                self.expect(&TokenKind::RParen)?;
                m.provenance_attrs = Some(attrs);
            } else {
                break;
            }
        }
        Ok(m)
    }

    // ------------------------------------------------------------------
    // Expressions (precedence climbing)
    // ------------------------------------------------------------------

    pub(crate) fn parse_expr(&mut self) -> Result<Expr> {
        self.parse_or()
    }

    fn parse_or(&mut self) -> Result<Expr> {
        let mut left = self.parse_and()?;
        while self.eat_keyword("or") {
            let right = self.parse_and()?;
            left = Expr::binary(BinaryOp::Or, left, right);
        }
        Ok(left)
    }

    fn parse_and(&mut self) -> Result<Expr> {
        let mut left = self.parse_not()?;
        while self.eat_keyword("and") {
            let right = self.parse_not()?;
            left = Expr::binary(BinaryOp::And, left, right);
        }
        Ok(left)
    }

    fn parse_not(&mut self) -> Result<Expr> {
        if self.eat_keyword("not") {
            let inner = self.parse_not()?;
            return Ok(Expr::Unary {
                op: UnaryOp::Not,
                expr: Box::new(inner),
            });
        }
        self.parse_comparison()
    }

    fn parse_comparison(&mut self) -> Result<Expr> {
        let left = self.parse_additive()?;

        // IS [NOT] NULL / IS [NOT] DISTINCT FROM
        if self.eat_keyword("is") {
            let negated = self.eat_keyword("not");
            if self.eat_keyword("null") {
                return Ok(Expr::IsNull {
                    expr: Box::new(left),
                    negated,
                });
            }
            self.expect_keyword("distinct")?;
            self.expect_keyword("from")?;
            let right = self.parse_additive()?;
            return Ok(Expr::IsDistinctFrom {
                left: Box::new(left),
                right: Box::new(right),
                negated: !negated, // IS DISTINCT FROM <=> negated NULL-safe eq
            });
        }

        // [NOT] LIKE / BETWEEN / IN
        let negated = if self.check_keyword("not")
            && (self.check_keyword_ahead(1, "like")
                || self.check_keyword_ahead(1, "between")
                || self.check_keyword_ahead(1, "in"))
        {
            self.advance();
            true
        } else {
            false
        };

        if self.eat_keyword("like") {
            let pattern = self.parse_additive()?;
            return Ok(Expr::Like {
                expr: Box::new(left),
                pattern: Box::new(pattern),
                negated,
            });
        }
        if self.eat_keyword("between") {
            let low = self.parse_additive()?;
            self.expect_keyword("and")?;
            let high = self.parse_additive()?;
            return Ok(Expr::Between {
                expr: Box::new(left),
                low: Box::new(low),
                high: Box::new(high),
                negated,
            });
        }
        if self.eat_keyword("in") {
            self.expect(&TokenKind::LParen)?;
            if self.check_keyword("select") {
                let query = self.parse_query()?;
                self.expect(&TokenKind::RParen)?;
                return Ok(Expr::InSubquery {
                    expr: Box::new(left),
                    query: Box::new(query),
                    negated,
                });
            }
            let mut list = Vec::new();
            loop {
                list.push(self.parse_expr()?);
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
            self.expect(&TokenKind::RParen)?;
            return Ok(Expr::InList {
                expr: Box::new(left),
                list,
                negated,
            });
        }
        if negated {
            return Err(self.error("expected LIKE, BETWEEN or IN after NOT"));
        }

        let op = match self.peek_kind() {
            TokenKind::Eq => BinaryOp::Eq,
            TokenKind::Neq => BinaryOp::NotEq,
            TokenKind::Lt => BinaryOp::Lt,
            TokenKind::LtEq => BinaryOp::LtEq,
            TokenKind::Gt => BinaryOp::Gt,
            TokenKind::GtEq => BinaryOp::GtEq,
            _ => return Ok(left),
        };
        self.advance();
        let right = self.parse_additive()?;
        Ok(Expr::binary(op, left, right))
    }

    fn parse_additive(&mut self) -> Result<Expr> {
        let mut left = self.parse_multiplicative()?;
        loop {
            let op = match self.peek_kind() {
                TokenKind::Plus => BinaryOp::Add,
                TokenKind::Minus => BinaryOp::Sub,
                TokenKind::Concat => BinaryOp::Concat,
                _ => break,
            };
            self.advance();
            let right = self.parse_multiplicative()?;
            left = Expr::binary(op, left, right);
        }
        Ok(left)
    }

    fn parse_multiplicative(&mut self) -> Result<Expr> {
        let mut left = self.parse_unary()?;
        loop {
            let op = match self.peek_kind() {
                TokenKind::Star => BinaryOp::Mul,
                TokenKind::Slash => BinaryOp::Div,
                TokenKind::Percent => BinaryOp::Mod,
                _ => break,
            };
            self.advance();
            let right = self.parse_unary()?;
            left = Expr::binary(op, left, right);
        }
        Ok(left)
    }

    fn parse_unary(&mut self) -> Result<Expr> {
        if self.eat(&TokenKind::Minus) {
            let inner = self.parse_unary()?;
            return Ok(Expr::Unary {
                op: UnaryOp::Neg,
                expr: Box::new(inner),
            });
        }
        if self.eat(&TokenKind::Plus) {
            let inner = self.parse_unary()?;
            return Ok(Expr::Unary {
                op: UnaryOp::Plus,
                expr: Box::new(inner),
            });
        }
        self.parse_primary()
    }

    fn parse_primary(&mut self) -> Result<Expr> {
        // Literals.
        match self.peek_kind().clone() {
            TokenKind::IntLit(i) => {
                self.advance();
                return Ok(Expr::Literal(Value::Int(i)));
            }
            TokenKind::FloatLit(f) => {
                self.advance();
                return Ok(Expr::Literal(Value::Float(f)));
            }
            TokenKind::StringLit(s) => {
                self.advance();
                return Ok(Expr::Literal(Value::text(s)));
            }
            _ => {}
        }
        if self.eat_keyword("true") {
            return Ok(Expr::Literal(Value::Bool(true)));
        }
        if self.eat_keyword("false") {
            return Ok(Expr::Literal(Value::Bool(false)));
        }
        if self.eat_keyword("null") {
            return Ok(Expr::Literal(Value::Null));
        }

        // CASE.
        if self.eat_keyword("case") {
            return self.parse_case();
        }

        // CAST(expr AS type).
        if self.check_keyword("cast") && *self.peek_ahead(1) == TokenKind::LParen {
            self.advance();
            self.advance();
            let expr = self.parse_expr()?;
            self.expect_keyword("as")?;
            let ty_name = self.expect_ident()?;
            let ty = DataType::parse(&ty_name)?;
            self.expect(&TokenKind::RParen)?;
            return Ok(Expr::Cast {
                expr: Box::new(expr),
                ty,
            });
        }

        // EXISTS (subquery).
        if self.check_keyword("exists") && *self.peek_ahead(1) == TokenKind::LParen {
            self.advance();
            self.advance();
            let query = self.parse_query()?;
            self.expect(&TokenKind::RParen)?;
            return Ok(Expr::Exists {
                query: Box::new(query),
                negated: false,
            });
        }

        // Parenthesized expression or scalar subquery.
        if self.check(&TokenKind::LParen) {
            if self.starts_subquery() {
                self.advance();
                let query = self.parse_query()?;
                self.expect(&TokenKind::RParen)?;
                return Ok(Expr::ScalarSubquery(Box::new(query)));
            }
            self.advance();
            let e = self.parse_expr()?;
            self.expect(&TokenKind::RParen)?;
            return Ok(e);
        }

        // Function call or column reference.
        let name = self.expect_ident()?;
        if self.check(&TokenKind::LParen) {
            self.advance();
            if self.eat(&TokenKind::Star) {
                self.expect(&TokenKind::RParen)?;
                return Ok(Expr::Function {
                    name,
                    args: vec![],
                    distinct: false,
                    star: true,
                });
            }
            let distinct = self.eat_keyword("distinct");
            let mut args = Vec::new();
            if !self.check(&TokenKind::RParen) {
                loop {
                    args.push(self.parse_expr()?);
                    if !self.eat(&TokenKind::Comma) {
                        break;
                    }
                }
            }
            self.expect(&TokenKind::RParen)?;
            return Ok(Expr::Function {
                name,
                args,
                distinct,
                star: false,
            });
        }
        if self.eat(&TokenKind::Dot) {
            let col = self.expect_ident()?;
            return Ok(Expr::Column {
                qualifier: Some(name),
                name: col,
            });
        }
        Ok(Expr::Column {
            qualifier: None,
            name,
        })
    }

    fn parse_case(&mut self) -> Result<Expr> {
        let operand = if !self.check_keyword("when") {
            Some(Box::new(self.parse_expr()?))
        } else {
            None
        };
        let mut branches = Vec::new();
        while self.eat_keyword("when") {
            let cond = self.parse_expr()?;
            self.expect_keyword("then")?;
            let result = self.parse_expr()?;
            branches.push((cond, result));
        }
        if branches.is_empty() {
            return Err(self.error("CASE requires at least one WHEN branch"));
        }
        let else_branch = if self.eat_keyword("else") {
            Some(Box::new(self.parse_expr()?))
        } else {
            None
        };
        self.expect_keyword("end")?;
        Ok(Expr::Case {
            operand,
            branches,
            else_branch,
        })
    }
}

#[cfg(test)]
mod tests;
