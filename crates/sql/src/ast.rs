//! Abstract syntax tree for our SQL dialect with the SQL-PLE provenance
//! extension.

use perm_types::{DataType, Value};

/// A top-level SQL statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    /// A (possibly provenance-) query.
    Query(Query),
    /// `CREATE TABLE name (col type [NOT NULL], …)`.
    CreateTable {
        name: String,
        columns: Vec<ColumnDef>,
    },
    /// `CREATE TABLE name AS query` — the *eager* provenance computation
    /// path: materializing a `SELECT PROVENANCE` query stores provenance
    /// for later reuse (demo paper, Section 1).
    CreateTableAs { name: String, query: Query },
    /// `CREATE VIEW name AS query` (q2 of Figure 1). `sql` is the
    /// query's source text, which is what a checkpoint stores.
    CreateView {
        name: String,
        query: Query,
        sql: String,
    },
    /// `INSERT INTO name [(cols)] VALUES (…), (…)`.
    Insert {
        table: String,
        columns: Option<Vec<String>>,
        rows: Vec<Vec<Expr>>,
    },
    /// `DELETE FROM name [WHERE predicate]`.
    Delete {
        table: String,
        predicate: Option<Expr>,
    },
    /// `UPDATE name SET col = expr, … [WHERE predicate]`.
    Update {
        table: String,
        assignments: Vec<(String, Expr)>,
        predicate: Option<Expr>,
    },
    /// `DROP TABLE/VIEW [IF EXISTS] name`.
    Drop {
        kind: ObjectKind,
        name: String,
        if_exists: bool,
    },
    /// `EXPLAIN [VERIFY] [VERBOSE] query` — show the physical execution
    /// plan instead of rows (`VERBOSE` adds the optimized logical tree
    /// with schema annotations; `VERIFY` runs the static plan verifier
    /// after every optimizer phase and reports each check).
    Explain {
        query: Query,
        verbose: bool,
        verify: bool,
    },
}

/// The kind of catalog object a `DROP` refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObjectKind {
    Table,
    View,
}

/// A column definition in `CREATE TABLE`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnDef {
    pub name: String,
    pub ty: DataType,
    pub not_null: bool,
}

/// A full query: a set-operation tree over select cores plus the trailing
/// `ORDER BY` / `LIMIT` / `OFFSET`.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    pub body: QueryBody,
    pub order_by: Vec<OrderItem>,
    pub limit: Option<u64>,
    pub offset: Option<u64>,
}

impl Query {
    /// Wrap a bare select core into a query with no ordering or limit.
    pub fn simple(select: Select) -> Query {
        Query {
            body: QueryBody::Select(Box::new(select)),
            order_by: vec![],
            limit: None,
            offset: None,
        }
    }

    /// The provenance clause governing this query: the clause of the
    /// outermost select core, or — for a set operation — of its *leftmost*
    /// select core. As in Perm, `SELECT PROVENANCE … UNION …` computes the
    /// provenance of the whole set operation (the paper's q1 provenance,
    /// Figure 2).
    pub fn provenance_clause(&self) -> Option<&ProvenanceClause> {
        fn leftmost(b: &QueryBody) -> Option<&ProvenanceClause> {
            match b {
                QueryBody::Select(s) => s.provenance.as_ref(),
                QueryBody::SetOp { left, .. } => leftmost(left),
            }
        }
        leftmost(&self.body)
    }
}

/// The body of a query.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryBody {
    Select(Box<Select>),
    SetOp {
        op: SetOpKind,
        /// `ALL` keeps duplicates (bag semantics).
        all: bool,
        left: Box<QueryBody>,
        right: Box<QueryBody>,
    },
}

/// `UNION`, `INTERSECT` or `EXCEPT`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SetOpKind {
    Union,
    Intersect,
    Except,
}

/// One select core.
#[derive(Debug, Clone, PartialEq)]
pub struct Select {
    /// `SELECT PROVENANCE …` — Some when provenance computation is
    /// requested for this select.
    pub provenance: Option<ProvenanceClause>,
    pub distinct: bool,
    pub items: Vec<SelectItem>,
    /// Comma-separated FROM items (each possibly a join tree).
    pub from: Vec<TableRef>,
    pub where_clause: Option<Expr>,
    pub group_by: Vec<Expr>,
    pub having: Option<Expr>,
}

impl Select {
    /// An empty `SELECT` skeleton, convenient for tests and builders.
    pub fn empty() -> Select {
        Select {
            provenance: None,
            distinct: false,
            items: vec![],
            from: vec![],
            where_clause: None,
            group_by: vec![],
            having: None,
        }
    }
}

/// The SQL-PLE `PROVENANCE [ON CONTRIBUTION (…)]` clause.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ProvenanceClause {
    /// `None` means the session default (INFLUENCE in Perm).
    pub semantics: Option<ContributionSemantics>,
}

/// Contribution semantics selectable via `ON CONTRIBUTION (…)`.
///
/// The demo paper names `INFLUENCE` (Why-provenance, Perm's PI-CS) and
/// "several types of Where-provenance as keyword COPY"; we additionally
/// expose Cui-Widom lineage as `LINEAGE` (the demo paper's Section 1 cites
/// it as one of the prominent contribution definitions).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ContributionSemantics {
    /// PI-CS: the witnesses that influenced the existence of the tuple.
    Influence,
    /// Copy-CS: only the base values actually copied to the output.
    Copy(CopyMode),
    /// Cui-Widom lineage (set semantics; difference keeps the full right
    /// side as contributing).
    Lineage,
}

/// Variants of Where-provenance (`COPY`): whether a base tuple must have
/// *all* its attributes copied to count, or any.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CopyMode {
    /// Keep base tuples that copied at least one attribute (Perm's
    /// `COPY PARTIAL`), the default.
    #[default]
    Partial,
    /// Keep base tuples only if every attribute was copied
    /// (`COPY COMPLETE`).
    Complete,
}

/// One item of the SELECT list.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectItem {
    /// `*`
    Wildcard,
    /// `alias.*`
    QualifiedWildcard(String),
    /// An expression with an optional `AS alias`.
    Expr { expr: Expr, alias: Option<String> },
}

/// A FROM-clause item.
#[derive(Debug, Clone, PartialEq)]
pub enum TableRef {
    /// A base relation or view reference.
    Relation {
        name: String,
        alias: Option<String>,
        /// `AS alias(c1, c2, …)` column aliases (may rename a prefix of
        /// the columns, as in standard SQL).
        column_aliases: Option<Vec<String>>,
        modifiers: FromModifiers,
    },
    /// A derived table `(query) AS alias`.
    Subquery {
        query: Box<Query>,
        alias: String,
        /// `AS alias(c1, c2, …)` column aliases.
        column_aliases: Option<Vec<String>>,
        modifiers: FromModifiers,
    },
    /// An explicit join.
    Join {
        left: Box<TableRef>,
        right: Box<TableRef>,
        kind: JoinKind,
        /// `ON` condition; `None` only for `CROSS JOIN`.
        on: Option<Expr>,
    },
}

impl TableRef {
    /// The alias this item is visible under (`alias`, else relation name).
    pub fn binding_name(&self) -> Option<&str> {
        match self {
            TableRef::Relation { name, alias, .. } => Some(alias.as_deref().unwrap_or(name)),
            TableRef::Subquery { alias, .. } => Some(alias),
            TableRef::Join { .. } => None,
        }
    }
}

/// The SQL-PLE FROM-item modifiers of Section 2.4.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FromModifiers {
    /// `BASERELATION`: treat this view/subquery like a base relation —
    /// rewrite rules are not applied below it; its output attributes are
    /// duplicated as its provenance.
    pub baserelation: bool,
    /// `PROVENANCE (a, b, …)`: the listed attributes of this item are
    /// externally produced provenance and are propagated untouched.
    pub provenance_attrs: Option<Vec<String>>,
}

impl FromModifiers {
    pub fn none() -> FromModifiers {
        FromModifiers::default()
    }

    pub fn is_plain(&self) -> bool {
        !self.baserelation && self.provenance_attrs.is_none()
    }
}

/// Join kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JoinKind {
    Inner,
    Left,
    Right,
    Full,
    Cross,
}

/// `ORDER BY` item.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderItem {
    pub expr: Expr,
    pub desc: bool,
}

/// Scalar expressions.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    Literal(Value),
    /// Possibly qualified column reference.
    Column {
        qualifier: Option<String>,
        name: String,
    },
    Binary {
        op: BinaryOp,
        left: Box<Expr>,
        right: Box<Expr>,
    },
    Unary {
        op: UnaryOp,
        expr: Box<Expr>,
    },
    /// `expr IS [NOT] NULL`.
    IsNull {
        expr: Box<Expr>,
        negated: bool,
    },
    /// `a IS [NOT] DISTINCT FROM b` (NULL-safe comparison).
    IsDistinctFrom {
        left: Box<Expr>,
        right: Box<Expr>,
        negated: bool,
    },
    /// `expr [NOT] LIKE pattern`.
    Like {
        expr: Box<Expr>,
        pattern: Box<Expr>,
        negated: bool,
    },
    /// `expr [NOT] BETWEEN low AND high`.
    Between {
        expr: Box<Expr>,
        low: Box<Expr>,
        high: Box<Expr>,
        negated: bool,
    },
    /// `expr [NOT] IN (e1, e2, …)`.
    InList {
        expr: Box<Expr>,
        list: Vec<Expr>,
        negated: bool,
    },
    /// `expr [NOT] IN (subquery)` — a sublink (EDBT'09 rewrites).
    InSubquery {
        expr: Box<Expr>,
        query: Box<Query>,
        negated: bool,
    },
    /// `[NOT] EXISTS (subquery)`.
    Exists {
        query: Box<Query>,
        negated: bool,
    },
    /// A scalar subquery `(SELECT …)` used as a value.
    ScalarSubquery(Box<Query>),
    /// `CASE [operand] WHEN … THEN … [ELSE …] END`.
    Case {
        operand: Option<Box<Expr>>,
        branches: Vec<(Expr, Expr)>,
        else_branch: Option<Box<Expr>>,
    },
    /// Function call: scalar (`upper(x)`) or aggregate
    /// (`count(*)`, `sum(DISTINCT x)`).
    Function {
        name: String,
        args: Vec<Expr>,
        distinct: bool,
        /// `count(*)`.
        star: bool,
    },
    /// `CAST(expr AS type)`.
    Cast {
        expr: Box<Expr>,
        ty: DataType,
    },
}

impl Expr {
    /// Convenience: unqualified column reference.
    pub fn col(name: impl Into<String>) -> Expr {
        Expr::Column {
            qualifier: None,
            name: name.into(),
        }
    }

    /// Convenience: qualified column reference.
    pub fn qcol(qualifier: impl Into<String>, name: impl Into<String>) -> Expr {
        Expr::Column {
            qualifier: Some(qualifier.into()),
            name: name.into(),
        }
    }

    /// Convenience: integer literal.
    pub fn int(v: i64) -> Expr {
        Expr::Literal(Value::Int(v))
    }

    /// Convenience: build `left op right`.
    pub fn binary(op: BinaryOp, left: Expr, right: Expr) -> Expr {
        Expr::Binary {
            op,
            left: Box::new(left),
            right: Box::new(right),
        }
    }
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinaryOp {
    Eq,
    NotEq,
    Lt,
    LtEq,
    Gt,
    GtEq,
    And,
    Or,
    Add,
    Sub,
    Mul,
    Div,
    Mod,
    Concat,
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnaryOp {
    Not,
    Neg,
    Plus,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_simple_has_no_ordering() {
        let q = Query::simple(Select::empty());
        assert!(q.order_by.is_empty());
        assert!(q.limit.is_none());
        assert!(q.provenance_clause().is_none());
    }

    #[test]
    fn provenance_clause_surfaces_from_select_core() {
        let mut s = Select::empty();
        s.provenance = Some(ProvenanceClause {
            semantics: Some(ContributionSemantics::Influence),
        });
        let q = Query::simple(s);
        assert_eq!(
            q.provenance_clause().unwrap().semantics,
            Some(ContributionSemantics::Influence)
        );
    }

    #[test]
    fn binding_names() {
        let r = TableRef::Relation {
            name: "messages".into(),
            alias: Some("m".into()),
            column_aliases: None,
            modifiers: FromModifiers::none(),
        };
        assert_eq!(r.binding_name(), Some("m"));
        let r2 = TableRef::Relation {
            name: "users".into(),
            alias: None,
            column_aliases: None,
            modifiers: FromModifiers::none(),
        };
        assert_eq!(r2.binding_name(), Some("users"));
    }

    #[test]
    fn from_modifiers_plain_check() {
        assert!(FromModifiers::none().is_plain());
        let m = FromModifiers {
            baserelation: true,
            provenance_attrs: None,
        };
        assert!(!m.is_plain());
    }

    #[test]
    fn expr_builders() {
        let e = Expr::binary(BinaryOp::Eq, Expr::qcol("v1", "mid"), Expr::int(4));
        match e {
            Expr::Binary { op, left, right } => {
                assert_eq!(op, BinaryOp::Eq);
                assert_eq!(
                    *left,
                    Expr::Column {
                        qualifier: Some("v1".into()),
                        name: "mid".into()
                    }
                );
                assert_eq!(*right, Expr::Literal(Value::Int(4)));
            }
            _ => panic!("expected binary"),
        }
    }
}
