//! The analyzer/binder: SQL AST → bound [`LogicalPlan`].
//!
//! This is the "Parser & Analyzer" stage of the paper's Figure 3 pipeline.
//! It performs name resolution (with nested-query scopes), type checking,
//! **view unfolding**, implicit-coercion insertion for set operations,
//! aggregation analysis, and — when a `SELECT PROVENANCE` clause is present —
//! hands the bound subtree to the provenance rewriter
//! ([`ProvenanceTransform`]) exactly where Figure 3's "provenance rewrite"
//! box sits.
//!
//! SQL-PLE FROM-item modifiers become [`LogicalPlan::Boundary`] nodes:
//! `BASERELATION` stops the rewrite at that subtree, `PROVENANCE (attrs)`
//! declares external provenance attributes.

use std::sync::Arc;

use perm_sql::{
    BinaryOp, Expr as AstExpr, JoinKind, ObjectKind, OrderItem, Query, QueryBody, Select,
    SelectItem, SetOpKind, Statement, TableRef, UnaryOp,
};
use perm_types::{Column, DataType, PermError, Result, Schema, Value};

use crate::catalog::{CatalogProvider, ProvenanceTransform};
use crate::expr::{
    AggCall, AggFunc, BinOp, ScalarExpr, ScalarFunc, SubqueryExpr, SubqueryKind, UnOp,
};
use crate::plan::{AggOutput, BoundaryKind, JoinType, LogicalPlan, SetOpType, SortKey};
use crate::typecheck::{agg_type, expr_type};

/// Maximum view-unfolding depth (guards against recursive views).
const MAX_VIEW_DEPTH: usize = 32;

/// The binder. Holds the catalog, the (optional) provenance rewriter, and
/// the scopes enclosing the sublink body being bound.
pub struct Binder<'a> {
    catalog: &'a dyn CatalogProvider,
    provenance: Option<&'a dyn ProvenanceTransform>,
    /// One frame per sublink being bound, innermost last.
    frames: Vec<Frame>,
    view_depth: usize,
    /// Provenance-attribute positions of the most recently completed
    /// provenance rewrite (used by the eager-materialization path to record
    /// catalog metadata).
    last_provenance: Option<Vec<usize>>,
}

impl<'a> Binder<'a> {
    /// A binder that rejects `SELECT PROVENANCE` (no rewriter wired in).
    pub fn new(catalog: &'a dyn CatalogProvider) -> Binder<'a> {
        Binder {
            catalog,
            provenance: None,
            frames: vec![],
            view_depth: 0,
            last_provenance: None,
        }
    }

    /// A binder with the provenance rewriter attached (the full Figure 3
    /// pipeline).
    pub fn with_provenance(
        catalog: &'a dyn CatalogProvider,
        transform: &'a dyn ProvenanceTransform,
    ) -> Binder<'a> {
        Binder {
            catalog,
            provenance: Some(transform),
            frames: vec![],
            view_depth: 0,
            last_provenance: None,
        }
    }

    /// Provenance attributes of the last `SELECT PROVENANCE` rewrite bound,
    /// as positions into that plan's output schema.
    pub fn last_provenance_attrs(&self) -> Option<&[usize]> {
        self.last_provenance.as_deref()
    }

    fn expect_bool(&self, e: &ScalarExpr, schema: &Schema, ctx: &str) -> Result<()> {
        let t = expr_type(e, schema)?;
        if t == DataType::Bool || t == DataType::Unknown {
            Ok(())
        } else {
            Err(PermError::Analysis(format!(
                "{ctx} must be a boolean expression, got {t}"
            )))
        }
    }

    // ==================================================================
    // Queries
    // ==================================================================

    /// Bind a full query (set-operation tree plus ORDER BY / LIMIT).
    pub fn bind_query(&mut self, q: &Query) -> Result<LogicalPlan> {
        let (mut plan, sorted) = match &q.body {
            // Plain selects get the extended ORDER BY resolution (hidden
            // sort columns for non-selected input columns).
            QueryBody::Select(s) => self.bind_select_with_order(s, &q.order_by)?,
            body => (self.bind_query_body(body)?, false),
        };
        if !q.order_by.is_empty() && !sorted {
            plan = self.bind_order_by(plan, &q.order_by)?;
        }
        if q.limit.is_some() || q.offset.is_some() {
            plan = LogicalPlan::Limit {
                input: Box::new(plan),
                limit: q.limit,
                offset: q.offset.unwrap_or(0),
            };
        }
        Ok(plan)
    }

    fn bind_query_body(&mut self, body: &QueryBody) -> Result<LogicalPlan> {
        match body {
            QueryBody::Select(s) => self.bind_select(s),
            QueryBody::SetOp {
                op,
                all,
                left,
                right,
            } => {
                // As in Perm, `SELECT PROVENANCE … UNION …` computes the
                // provenance of the *whole* set operation (Figure 2 shows
                // exactly this for q1): a provenance clause on the leftmost
                // select core governs the set-operation tree.
                if let Some(clause) = leftmost_provenance(body) {
                    let clause = clause.clone();
                    let stripped = strip_leftmost_provenance(body);
                    let plan = self.bind_query_body(&stripped)?;
                    let transform = self.provenance.ok_or_else(|| {
                        PermError::Rewrite(
                            "SELECT PROVENANCE is not available: no provenance rewriter attached"
                                .into(),
                        )
                    })?;
                    let original = plan.schema().clone();
                    let rewritten = transform.rewrite_provenance(plan, clause.semantics)?;
                    crate::verify::verify_provenance_schema(
                        &original,
                        &rewritten.plan,
                        &rewritten.prov_attrs,
                        "provenance-rewrite",
                    )?;
                    self.last_provenance = Some(rewritten.prov_attrs);
                    return Ok(rewritten.plan);
                }
                let l = self.bind_query_body(left)?;
                let r = self.bind_query_body(right)?;
                self.bind_setop(*op, *all, l, r)
            }
        }
    }

    fn bind_setop(
        &mut self,
        op: SetOpKind,
        all: bool,
        left: LogicalPlan,
        right: LogicalPlan,
    ) -> Result<LogicalPlan> {
        let (ln, rn) = (left.arity(), right.arity());
        if ln != rn {
            return Err(PermError::Analysis(format!(
                "each side of a set operation must have the same number of columns \
                 ({ln} vs {rn})"
            )));
        }
        // Unify column types; remember which sides need casts.
        let mut unified = Vec::with_capacity(ln);
        for i in 0..ln {
            let lt = left.schema().column(i).ty;
            let rt = right.schema().column(i).ty;
            unified.push(lt.unify(rt).map_err(|_| {
                PermError::Analysis(format!(
                    "set operation column {} has incompatible types {lt} and {rt}",
                    i + 1
                ))
            })?);
        }
        let left = cast_to(left, &unified);
        let right = cast_to(right, &unified);
        // Output schema: names from the left side, unqualified; nullable if
        // either side is nullable.
        let columns: Vec<Column> = (0..ln)
            .map(|i| {
                let lc = left.schema().column(i);
                let rc = right.schema().column(i);
                let mut c = Column::new(lc.name.clone(), unified[i]);
                c.nullable = lc.nullable || rc.nullable;
                c
            })
            .collect();
        let kind = match op {
            SetOpKind::Union => SetOpType::Union,
            SetOpKind::Intersect => SetOpType::Intersect,
            SetOpKind::Except => SetOpType::Except,
        };
        Ok(LogicalPlan::SetOp {
            op: kind,
            all,
            left: Box::new(left),
            right: Box::new(right),
            schema: Schema::new(columns),
        })
    }

    fn bind_order_by(&mut self, plan: LogicalPlan, items: &[OrderItem]) -> Result<LogicalPlan> {
        let schema = plan.schema().clone();
        let mut keys = Vec::with_capacity(items.len());
        for item in items {
            // `ORDER BY 2` means output position 2 (1-based), as in SQL.
            let expr = if let AstExpr::Literal(Value::Int(pos)) = &item.expr {
                let pos = *pos;
                if pos < 1 || pos as usize > schema.len() {
                    return Err(PermError::Analysis(format!(
                        "ORDER BY position {pos} is out of range (1..{})",
                        schema.len()
                    )));
                }
                ScalarExpr::Column(pos as usize - 1)
            } else {
                let e = self.bind_expr(&item.expr, &schema)?;
                expr_type(&e, &schema)?;
                e
            };
            keys.push(SortKey {
                expr,
                desc: item.desc,
            });
        }
        Ok(LogicalPlan::Sort {
            input: Box::new(plan),
            keys,
        })
    }

    // ==================================================================
    // Select cores
    // ==================================================================

    /// Steps 1–3 of select binding: FROM, WHERE, aggregation analysis.
    /// Returns the plan *before* the SELECT-list projection plus the bound
    /// select items.
    fn bind_select_parts(
        &mut self,
        s: &Select,
    ) -> Result<(LogicalPlan, Vec<(ScalarExpr, Column)>)> {
        // 1. FROM.
        let mut plan = self.bind_from(&s.from)?;

        // 2. WHERE.
        if let Some(pred) = &s.where_clause {
            let schema = plan.schema().clone();
            let bound = self.bind_expr(pred, &schema)?;
            self.expect_bool(&bound, &schema, "WHERE clause")?;
            plan = LogicalPlan::filter(plan, bound);
        }

        // 3. Aggregation.
        let has_agg = !s.group_by.is_empty()
            || s.items.iter().any(select_item_has_aggregate)
            || s.having.as_ref().is_some_and(expr_has_aggregate);

        if has_agg {
            self.bind_aggregate_select(plan, s)
        } else {
            if s.having.is_some() {
                return Err(PermError::Analysis(
                    "HAVING requires GROUP BY or an aggregate function".into(),
                ));
            }
            let schema = plan.schema().clone();
            let items = self.bind_select_items(&s.items, &schema)?;
            Ok((plan, items))
        }
    }

    fn bind_select(&mut self, s: &Select) -> Result<LogicalPlan> {
        let (mut plan, items) = self.bind_select_parts(s)?;

        // 4. SELECT-list projection.
        let (exprs, columns): (Vec<ScalarExpr>, Vec<Column>) = items.into_iter().unzip();
        plan = LogicalPlan::project(plan, exprs, columns);

        // 5. DISTINCT.
        if s.distinct {
            plan = LogicalPlan::Distinct {
                input: Box::new(plan),
            };
        }

        // 6. SQL-PLE: SELECT PROVENANCE — invoke the rewriter (Figure 3).
        if let Some(clause) = &s.provenance {
            let transform = self.provenance.ok_or_else(|| {
                PermError::Rewrite(
                    "SELECT PROVENANCE is not available: no provenance rewriter attached".into(),
                )
            })?;
            let original = plan.schema().clone();
            let rewritten = transform.rewrite_provenance(plan, clause.semantics)?;
            crate::verify::verify_provenance_schema(
                &original,
                &rewritten.plan,
                &rewritten.prov_attrs,
                "provenance-rewrite",
            )?;
            self.last_provenance = Some(rewritten.prov_attrs);
            plan = rewritten.plan;
        }

        Ok(plan)
    }

    /// Bind a select core together with its query-level ORDER BY, allowing
    /// sort keys to reference non-selected columns of the select's input
    /// (standard SQL). Such keys are carried as *hidden* projection columns
    /// and stripped after the sort.
    ///
    /// Falls back to output-schema-only resolution (returning
    /// `sorted = false`) for `DISTINCT` and `SELECT PROVENANCE` queries,
    /// where hidden columns would change semantics.
    fn bind_select_with_order(
        &mut self,
        s: &Select,
        order: &[OrderItem],
    ) -> Result<(LogicalPlan, bool)> {
        if order.is_empty() || s.distinct || s.provenance.is_some() {
            return Ok((self.bind_select(s)?, false));
        }
        let (pre, items) = self.bind_select_parts(s)?;
        let n = items.len();
        let out_schema = Schema::new(items.iter().map(|(_, c)| c.clone()).collect());
        let pre_schema = pre.schema().clone();
        // Select-item ASTs, for `ORDER BY <same expression>` matching
        // (e.g. `ORDER BY count(*)` when `count(*)` is selected).
        let item_asts: Vec<Option<&AstExpr>> = {
            let mut v = Vec::new();
            for it in &s.items {
                match it {
                    SelectItem::Expr { expr, .. } => v.push(Some(expr)),
                    SelectItem::Wildcard | SelectItem::QualifiedWildcard(_) => {
                        // Wildcards expand to multiple items; positions
                        // after a wildcard cannot be AST-matched reliably,
                        // so stop collecting (name resolution still works).
                        v.clear();
                        break;
                    }
                }
            }
            if v.len() == s.items.len() {
                v
            } else {
                vec![None; items.len()]
            }
        };

        let mut hidden: Vec<(ScalarExpr, Column)> = Vec::new();
        let mut keys: Vec<SortKey> = Vec::new();
        for item in order {
            if let Some(i) = item_asts
                .iter()
                .position(|a| a.is_some_and(|a| a == &item.expr))
            {
                keys.push(SortKey {
                    expr: ScalarExpr::Column(i),
                    desc: item.desc,
                });
                continue;
            }
            let expr = if let AstExpr::Literal(Value::Int(pos)) = &item.expr {
                let pos = *pos;
                if pos < 1 || pos as usize > n {
                    return Err(PermError::Analysis(format!(
                        "ORDER BY position {pos} is out of range (1..{n})"
                    )));
                }
                ScalarExpr::Column(pos as usize - 1)
            } else {
                match self.bind_expr(&item.expr, &out_schema) {
                    Ok(e) => {
                        expr_type(&e, &out_schema)?;
                        e
                    }
                    Err(output_err) => {
                        // Fall back to the pre-projection scope for plain
                        // column references (`ORDER BY uid` with uid not
                        // selected).
                        let AstExpr::Column { qualifier, name } = &item.expr else {
                            return Err(output_err);
                        };
                        let bound = self.resolve_column(qualifier.as_deref(), name, &pre_schema)?;
                        // Reuse a select item computing the same value.
                        if let Some(i) = items.iter().position(|(e, _)| *e == bound) {
                            ScalarExpr::Column(i)
                        } else if let Some(h) = hidden.iter().position(|(e, _)| *e == bound) {
                            ScalarExpr::Column(n + h)
                        } else {
                            let col = match &bound {
                                ScalarExpr::Column(i) => pre_schema.column(*i).clone(),
                                _ => Column::new(name.clone(), DataType::Unknown),
                            };
                            hidden.push((bound, col));
                            ScalarExpr::Column(n + hidden.len() - 1)
                        }
                    }
                }
            };
            keys.push(SortKey {
                expr,
                desc: item.desc,
            });
        }

        // Project (visible + hidden), sort, then strip the hidden columns.
        let mut exprs: Vec<ScalarExpr> = Vec::with_capacity(n + hidden.len());
        let mut columns: Vec<Column> = Vec::with_capacity(n + hidden.len());
        for (e, c) in items {
            exprs.push(e);
            columns.push(c);
        }
        for (e, c) in hidden {
            exprs.push(e);
            columns.push(c);
        }
        let strip = columns.len() > n;
        let mut plan = LogicalPlan::project(pre, exprs, columns);
        plan = LogicalPlan::Sort {
            input: Box::new(plan),
            keys,
        };
        if strip {
            plan = LogicalPlan::project_positions(plan, &(0..n).collect::<Vec<_>>());
        }
        Ok((plan, true))
    }

    /// Bind the SELECT list of a non-aggregate query.
    fn bind_select_items(
        &mut self,
        items: &[SelectItem],
        schema: &Schema,
    ) -> Result<Vec<(ScalarExpr, Column)>> {
        let mut out = Vec::new();
        for item in items {
            match item {
                SelectItem::Wildcard => {
                    for (i, c) in schema.iter().enumerate() {
                        out.push((ScalarExpr::Column(i), c.clone()));
                    }
                }
                SelectItem::QualifiedWildcard(q) => {
                    let idxs = schema.indexes_for_qualifier(q);
                    if idxs.is_empty() {
                        return Err(PermError::Analysis(format!(
                            "relation '{q}' in '{q}.*' not found in FROM clause"
                        )));
                    }
                    for i in idxs {
                        out.push((ScalarExpr::Column(i), schema.column(i).clone()));
                    }
                }
                SelectItem::Expr { expr, alias } => {
                    let bound = self.bind_expr(expr, schema)?;
                    let ty = expr_type(&bound, schema)?;
                    let col = output_column(alias.as_deref(), expr, &bound, schema, ty);
                    out.push((bound, col));
                }
            }
        }
        Ok(out)
    }

    /// Bind an aggregate select: build the [`LogicalPlan::Aggregate`] node
    /// and return select-list expressions bound over its output.
    fn bind_aggregate_select(
        &mut self,
        input: LogicalPlan,
        s: &Select,
    ) -> Result<(LogicalPlan, Vec<(ScalarExpr, Column)>)> {
        let input_schema = input.schema().clone();

        // Bind GROUP BY expressions over the aggregate's input.
        let mut agg = AggBinding {
            input_schema: input_schema.clone(),
            group_ast: s.group_by.to_vec(),
            group_exprs: Vec::new(),
            group_cols: Vec::new(),
            aggs: Vec::new(),
        };
        for g in &s.group_by {
            let bound = self.bind_expr(g, &input_schema)?;
            let ty = expr_type(&bound, &input_schema)?;
            let col = match &bound {
                ScalarExpr::Column(i) => input_schema.column(*i).clone(),
                _ => Column::new(display_name(g), ty),
            };
            agg.group_exprs.push(bound);
            agg.group_cols.push(col);
        }

        // Bind select items and HAVING over the aggregate scope, collecting
        // aggregate calls on the fly.
        let mut items: Vec<(AstExpr, Option<String>, ScalarExpr)> = Vec::new();
        for item in &s.items {
            match item {
                SelectItem::Wildcard => {
                    // Expand to all input columns; each must be grouped (or
                    // becomes an implicit any_value).
                    for (i, c) in input_schema.iter().enumerate() {
                        let ast = AstExpr::Column {
                            qualifier: c.qualifier.clone(),
                            name: c.name.clone(),
                        };
                        let bound = agg.scoped(ScalarExpr::Column(i), &ast)?;
                        items.push((ast, None, bound));
                    }
                }
                SelectItem::QualifiedWildcard(q) => {
                    let idxs = input_schema.indexes_for_qualifier(q);
                    if idxs.is_empty() {
                        return Err(PermError::Analysis(format!(
                            "relation '{q}' in '{q}.*' not found in FROM clause"
                        )));
                    }
                    for i in idxs {
                        let c = input_schema.column(i);
                        let ast = AstExpr::Column {
                            qualifier: c.qualifier.clone(),
                            name: c.name.clone(),
                        };
                        let bound = agg.scoped(ScalarExpr::Column(i), &ast)?;
                        items.push((ast, None, bound));
                    }
                }
                SelectItem::Expr { expr, alias } => {
                    let bound = self.bind_agg_expr(expr, &mut agg)?;
                    items.push((expr.clone(), alias.clone(), bound));
                }
            }
        }
        let having = s
            .having
            .as_ref()
            .map(|h| self.bind_agg_expr(h, &mut agg))
            .transpose()?;

        // Assemble the Aggregate node's schema: group columns, then one
        // column per aggregate call.
        let mut columns = agg.group_cols.clone();
        for (_, call, col) in &agg.aggs {
            let _ = call; // column already carries the computed type
            columns.push(col.clone());
        }
        let agg_schema = Schema::new(columns);
        let plan = LogicalPlan::Aggregate {
            input: Box::new(input),
            group_by: agg.group_exprs.clone(),
            aggs: agg.aggs.iter().map(|(_, c, _)| c.clone()).collect(),
            schema: agg_schema.clone(),
            output: AggOutput::Groups,
        };

        // HAVING sits above the aggregate.
        let plan = match having {
            Some(h) => {
                self.expect_bool(&h, &agg_schema, "HAVING clause")?;
                LogicalPlan::filter(plan, h)
            }
            None => plan,
        };

        // Produce select-list output with names.
        let out = items
            .into_iter()
            .map(|(ast, alias, bound)| {
                let ty = expr_type(&bound, &agg_schema)?;
                let col = output_column(alias.as_deref(), &ast, &bound, &agg_schema, ty);
                Ok((bound, col))
            })
            .collect::<Result<Vec<_>>>()?;
        Ok((plan, out))
    }

    /// Bind an expression in the aggregate output scope.
    fn bind_agg_expr(&mut self, e: &AstExpr, agg: &mut AggBinding) -> Result<ScalarExpr> {
        // A subtree structurally equal to a GROUP BY expression refers to
        // the group column.
        if let Some(i) = agg.group_ast.iter().position(|g| g == e) {
            return Ok(ScalarExpr::Column(i));
        }
        match e {
            AstExpr::Function { name, .. } if AggFunc::is_aggregate_name(name) => {
                self.bind_aggregate_call(e, agg)
            }
            AstExpr::Column { qualifier, name } => {
                // Resolve over the aggregate input, then map into the
                // aggregate scope; a parameter is an enclosing query's
                // value and stays as it is.
                match self.resolve_column(qualifier.as_deref(), name, &agg.input_schema)? {
                    param @ ScalarExpr::Param { .. } => Ok(param),
                    bound => agg.scoped(bound, e),
                }
            }
            AstExpr::Literal(v) => Ok(ScalarExpr::Literal(v.clone())),
            AstExpr::Binary { op, left, right } => {
                let l = self.bind_agg_expr(left, agg)?;
                let r = self.bind_agg_expr(right, agg)?;
                bind_binary(*op, l, r)
            }
            AstExpr::Unary { op, expr } => {
                let inner = self.bind_agg_expr(expr, agg)?;
                Ok(bind_unary(*op, inner))
            }
            AstExpr::IsNull { expr, negated } => Ok(ScalarExpr::IsNull {
                expr: Box::new(self.bind_agg_expr(expr, agg)?),
                negated: *negated,
            }),
            AstExpr::IsDistinctFrom {
                left,
                right,
                negated,
            } => {
                let l = self.bind_agg_expr(left, agg)?;
                let r = self.bind_agg_expr(right, agg)?;
                let op = if *negated {
                    BinOp::DistinctFrom
                } else {
                    BinOp::NotDistinctFrom
                };
                Ok(ScalarExpr::binary(op, l, r))
            }
            AstExpr::Like {
                expr,
                pattern,
                negated,
            } => Ok(ScalarExpr::Like {
                expr: Box::new(self.bind_agg_expr(expr, agg)?),
                pattern: Box::new(self.bind_agg_expr(pattern, agg)?),
                negated: *negated,
            }),
            AstExpr::Between {
                expr,
                low,
                high,
                negated,
            } => {
                let e = self.bind_agg_expr(expr, agg)?;
                let lo = self.bind_agg_expr(low, agg)?;
                let hi = self.bind_agg_expr(high, agg)?;
                Ok(desugar_between(e, lo, hi, *negated))
            }
            AstExpr::InList {
                expr,
                list,
                negated,
            } => Ok(ScalarExpr::InList {
                expr: Box::new(self.bind_agg_expr(expr, agg)?),
                list: list
                    .iter()
                    .map(|x| self.bind_agg_expr(x, agg))
                    .collect::<Result<_>>()?,
                negated: *negated,
            }),
            AstExpr::Case {
                operand,
                branches,
                else_branch,
            } => Ok(ScalarExpr::Case {
                operand: operand
                    .as_ref()
                    .map(|o| self.bind_agg_expr(o, agg).map(Box::new))
                    .transpose()?,
                branches: branches
                    .iter()
                    .map(|(c, r)| Ok((self.bind_agg_expr(c, agg)?, self.bind_agg_expr(r, agg)?)))
                    .collect::<Result<_>>()?,
                else_branch: else_branch
                    .as_ref()
                    .map(|x| self.bind_agg_expr(x, agg).map(Box::new))
                    .transpose()?,
            }),
            AstExpr::Cast { expr, ty } => Ok(ScalarExpr::Cast {
                expr: Box::new(self.bind_agg_expr(expr, agg)?),
                ty: *ty,
            }),
            AstExpr::Function { name, args, .. } => {
                let func = ScalarFunc::from_name(name)
                    .ok_or_else(|| PermError::Analysis(format!("unknown function '{name}'")))?;
                Ok(ScalarExpr::ScalarFn {
                    func,
                    args: args
                        .iter()
                        .map(|a| self.bind_agg_expr(a, agg))
                        .collect::<Result<_>>()?,
                })
            }
            AstExpr::InSubquery { .. } | AstExpr::Exists { .. } | AstExpr::ScalarSubquery(_) => {
                let mut scope = Scope::Agg(std::mem::take(agg));
                let bound = self.bind_sublink(e, &mut scope);
                if let Scope::Agg(taken) = scope {
                    *agg = taken;
                }
                bound
            }
        }
    }

    /// Bind one aggregate function call and return its output position.
    fn bind_aggregate_call(&mut self, e: &AstExpr, agg: &mut AggBinding) -> Result<ScalarExpr> {
        let AstExpr::Function {
            name,
            args,
            distinct,
            star,
        } = e
        else {
            unreachable!("caller checked this is a function");
        };
        let func = AggFunc::from_name(name).expect("caller checked aggregate name");

        // Deduplicate structurally identical calls (count(*) used in both
        // SELECT and HAVING shares one computed column).
        if let Some(j) = agg.aggs.iter().position(|(ast, _, _)| ast == e) {
            return Ok(ScalarExpr::Column(agg.group_exprs.len() + j));
        }

        let arg = if *star {
            if func != AggFunc::Count {
                return Err(PermError::Analysis(format!("{name}(*) is not valid")));
            }
            None
        } else {
            if args.len() != 1 {
                return Err(PermError::Analysis(format!(
                    "{name}() takes exactly one argument, got {}",
                    args.len()
                )));
            }
            if expr_has_aggregate(&args[0]) {
                return Err(PermError::Analysis(
                    "aggregate calls cannot be nested".into(),
                ));
            }
            let schema = agg.input_schema.clone();
            Some(self.bind_expr(&args[0], &schema)?)
        };
        let call = AggCall {
            func,
            arg,
            distinct: *distinct,
        };
        let ty = agg_type(&call, &agg.input_schema)?;
        let col = Column::new(func.name(), ty);
        agg.aggs.push((e.clone(), call, col));
        Ok(ScalarExpr::Column(
            agg.group_exprs.len() + agg.aggs.len() - 1,
        ))
    }

    // ==================================================================
    // FROM clause
    // ==================================================================

    fn bind_from(&mut self, items: &[TableRef]) -> Result<LogicalPlan> {
        if items.is_empty() {
            // `SELECT expr` without FROM scans one empty tuple.
            return Ok(LogicalPlan::empty_row());
        }
        let mut plan: Option<LogicalPlan> = None;
        for item in items {
            let bound = self.bind_table_ref(item)?;
            plan = Some(match plan {
                None => bound,
                Some(p) => LogicalPlan::join(p, bound, JoinType::Cross, None)?,
            });
        }
        Ok(plan.expect("at least one FROM item"))
    }

    fn bind_table_ref(&mut self, r: &TableRef) -> Result<LogicalPlan> {
        match r {
            TableRef::Relation {
                name,
                alias,
                column_aliases,
                modifiers,
            } => {
                let binding = alias.as_deref().unwrap_or(name);
                let plan = if let Some(meta) = self.catalog.base_table(name) {
                    LogicalPlan::Scan {
                        table: name.clone(),
                        schema: meta.schema.requalify(binding),
                        provenance_cols: meta.provenance_cols,
                    }
                } else if let Some(view_query) = self.catalog.view_definition(name) {
                    // View unfolding: bind the definition in a fresh scope
                    // (views cannot be correlated with the enclosing query).
                    if self.view_depth >= MAX_VIEW_DEPTH {
                        return Err(PermError::Analysis(format!(
                            "view nesting deeper than {MAX_VIEW_DEPTH} (recursive view '{name}'?)"
                        )));
                    }
                    self.view_depth += 1;
                    let saved = std::mem::take(&mut self.frames);
                    let bound = self.bind_query(&view_query);
                    self.frames = saved;
                    self.view_depth -= 1;
                    rename(bound?, binding)
                } else {
                    return Err(PermError::Analysis(format!(
                        "relation '{name}' does not exist"
                    )));
                };
                let plan = apply_column_aliases(plan, binding, column_aliases.as_deref())?;
                self.apply_modifiers(plan, binding, modifiers)
            }
            TableRef::Subquery {
                query,
                alias,
                column_aliases,
                modifiers,
            } => {
                // A derived table sees no sibling FROM item (no LATERAL),
                // but inside a sublink body it sees the enclosing queries
                // as the body does: its outer references are the body's
                // parameters.
                let plan = rename(self.bind_query(query)?, alias);
                let plan = apply_column_aliases(plan, alias, column_aliases.as_deref())?;
                self.apply_modifiers(plan, alias, modifiers)
            }
            TableRef::Join {
                left,
                right,
                kind,
                on,
            } => {
                let l = self.bind_table_ref(left)?;
                let r = self.bind_table_ref(right)?;
                match kind {
                    JoinKind::Cross => LogicalPlan::join(l, r, JoinType::Cross, None),
                    JoinKind::Inner | JoinKind::Left | JoinKind::Full => {
                        let combined = l.schema().join(r.schema());
                        let cond = on.as_ref().expect("parser guarantees ON");
                        let bound = self.bind_expr(cond, &combined)?;
                        self.expect_bool(&bound, &combined, "JOIN condition")?;
                        let jt = match kind {
                            JoinKind::Inner => JoinType::Inner,
                            JoinKind::Left => JoinType::Left,
                            JoinKind::Full => JoinType::Full,
                            _ => unreachable!(),
                        };
                        LogicalPlan::join(l, r, jt, Some(bound))
                    }
                    JoinKind::Right => {
                        // RIGHT JOIN is normalized to a LEFT JOIN with
                        // swapped inputs plus a reordering projection.
                        let (nl, nr) = (l.arity(), r.arity());
                        let combined = r.schema().join(l.schema());
                        let cond = on.as_ref().expect("parser guarantees ON");
                        let bound = self.bind_expr(cond, &combined)?;
                        self.expect_bool(&bound, &combined, "JOIN condition")?;
                        let swapped = LogicalPlan::join(r, l, JoinType::Left, Some(bound))?;
                        let order: Vec<usize> = (nr..nr + nl).chain(0..nr).collect();
                        Ok(LogicalPlan::project_positions(swapped, &order))
                    }
                }
            }
        }
    }

    /// Apply SQL-PLE FROM-item modifiers as [`LogicalPlan::Boundary`] nodes.
    fn apply_modifiers(
        &self,
        plan: LogicalPlan,
        binding: &str,
        modifiers: &perm_sql::FromModifiers,
    ) -> Result<LogicalPlan> {
        let mut plan = plan;
        if let Some(attrs) = &modifiers.provenance_attrs {
            let schema = plan.schema();
            let mut positions = Vec::with_capacity(attrs.len());
            for a in attrs {
                positions.push(schema.resolve(None, a).map_err(|_| {
                    PermError::Analysis(format!(
                        "provenance attribute '{a}' not found in FROM item '{binding}'"
                    ))
                })?);
            }
            plan = LogicalPlan::Boundary {
                input: Box::new(plan),
                name: binding.to_string(),
                kind: BoundaryKind::External { attrs: positions },
            };
        }
        if modifiers.baserelation {
            plan = LogicalPlan::Boundary {
                input: Box::new(plan),
                name: binding.to_string(),
                kind: BoundaryKind::BaseRelation,
            };
        }
        Ok(plan)
    }

    // ==================================================================
    // Expressions (non-aggregate scope)
    // ==================================================================

    /// Resolve a column over `schema`, else as an outer reference: the
    /// innermost enclosing scope that has the column binds it exactly as
    /// that scope's own clause would, and each sublink from there inwards
    /// passes it on as a parameter of its body.
    fn resolve_column(
        &mut self,
        qualifier: Option<&str>,
        name: &str,
        schema: &Schema,
    ) -> Result<ScalarExpr> {
        if let Some(i) = schema.try_resolve(qualifier, name)? {
            return Ok(ScalarExpr::Column(i));
        }
        for depth in (0..self.frames.len()).rev() {
            if let Some((mut e, ty)) = self.frames[depth].scope.resolve(qualifier, name)? {
                for frame in &mut self.frames[depth..] {
                    e = frame.param(e, ty);
                }
                return Ok(e);
            }
        }
        Err(PermError::Analysis(format!(
            "column '{}' does not exist",
            match qualifier {
                Some(q) => format!("{q}.{name}"),
                None => name.to_string(),
            }
        )))
    }

    /// Bind a scalar expression over `schema` (aggregates rejected).
    pub fn bind_expr(&mut self, e: &AstExpr, schema: &Schema) -> Result<ScalarExpr> {
        match e {
            AstExpr::Literal(v) => Ok(ScalarExpr::Literal(v.clone())),
            AstExpr::Column { qualifier, name } => {
                self.resolve_column(qualifier.as_deref(), name, schema)
            }
            AstExpr::Binary { op, left, right } => {
                let l = self.bind_expr(left, schema)?;
                let r = self.bind_expr(right, schema)?;
                bind_binary(*op, l, r)
            }
            AstExpr::Unary { op, expr } => Ok(bind_unary(*op, self.bind_expr(expr, schema)?)),
            AstExpr::IsNull { expr, negated } => Ok(ScalarExpr::IsNull {
                expr: Box::new(self.bind_expr(expr, schema)?),
                negated: *negated,
            }),
            AstExpr::IsDistinctFrom {
                left,
                right,
                negated,
            } => {
                let l = self.bind_expr(left, schema)?;
                let r = self.bind_expr(right, schema)?;
                let op = if *negated {
                    BinOp::DistinctFrom
                } else {
                    BinOp::NotDistinctFrom
                };
                Ok(ScalarExpr::binary(op, l, r))
            }
            AstExpr::Like {
                expr,
                pattern,
                negated,
            } => Ok(ScalarExpr::Like {
                expr: Box::new(self.bind_expr(expr, schema)?),
                pattern: Box::new(self.bind_expr(pattern, schema)?),
                negated: *negated,
            }),
            AstExpr::Between {
                expr,
                low,
                high,
                negated,
            } => {
                let e = self.bind_expr(expr, schema)?;
                let lo = self.bind_expr(low, schema)?;
                let hi = self.bind_expr(high, schema)?;
                Ok(desugar_between(e, lo, hi, *negated))
            }
            AstExpr::InList {
                expr,
                list,
                negated,
            } => Ok(ScalarExpr::InList {
                expr: Box::new(self.bind_expr(expr, schema)?),
                list: list
                    .iter()
                    .map(|x| self.bind_expr(x, schema))
                    .collect::<Result<_>>()?,
                negated: *negated,
            }),
            AstExpr::Case {
                operand,
                branches,
                else_branch,
            } => Ok(ScalarExpr::Case {
                operand: operand
                    .as_ref()
                    .map(|o| self.bind_expr(o, schema).map(Box::new))
                    .transpose()?,
                branches: branches
                    .iter()
                    .map(|(c, r)| Ok((self.bind_expr(c, schema)?, self.bind_expr(r, schema)?)))
                    .collect::<Result<_>>()?,
                else_branch: else_branch
                    .as_ref()
                    .map(|x| self.bind_expr(x, schema).map(Box::new))
                    .transpose()?,
            }),
            AstExpr::Cast { expr, ty } => Ok(ScalarExpr::Cast {
                expr: Box::new(self.bind_expr(expr, schema)?),
                ty: *ty,
            }),
            AstExpr::Function { name, args, .. } => {
                if AggFunc::is_aggregate_name(name) {
                    return Err(PermError::Analysis(format!(
                        "aggregate function {name}() is not allowed here"
                    )));
                }
                let func = ScalarFunc::from_name(name)
                    .ok_or_else(|| PermError::Analysis(format!("unknown function '{name}'")))?;
                Ok(ScalarExpr::ScalarFn {
                    func,
                    args: args
                        .iter()
                        .map(|a| self.bind_expr(a, schema))
                        .collect::<Result<_>>()?,
                })
            }
            AstExpr::InSubquery { .. } | AstExpr::Exists { .. } | AstExpr::ScalarSubquery(_) => {
                self.bind_sublink(e, &mut Scope::Plain(schema.clone()))
            }
        }
    }

    /// Bind a sublink written in `scope`: the `IN` operand as any
    /// expression of that scope, the body with `scope` as its innermost
    /// enclosing frame. The frame's collected outer references become the
    /// sublink's `outer_refs`.
    fn bind_sublink(&mut self, e: &AstExpr, scope: &mut Scope) -> Result<ScalarExpr> {
        let (kind, query, negated, operand) = match e {
            AstExpr::InSubquery {
                expr,
                query,
                negated,
            } => (SubqueryKind::In, query, *negated, Some(expr)),
            AstExpr::Exists { query, negated } => (SubqueryKind::Exists, query, *negated, None),
            AstExpr::ScalarSubquery(query) => (SubqueryKind::Scalar, query, false, None),
            _ => unreachable!("callers pass sublinks only"),
        };
        let operand = match (operand, &mut *scope) {
            (None, _) => None,
            (Some(x), Scope::Plain(schema)) => Some(self.bind_expr(x, schema)?),
            (Some(x), Scope::Agg(agg)) => Some(self.bind_agg_expr(x, agg)?),
        };
        self.frames.push(Frame {
            scope: std::mem::replace(scope, Scope::Plain(Schema::default())),
            refs: Vec::new(),
        });
        let plan = self.bind_query(query);
        let frame = self.frames.pop().expect("pushed above");
        *scope = frame.scope;
        let plan = plan?;
        if kind != SubqueryKind::Exists && plan.arity() != 1 {
            let what = if kind == SubqueryKind::In {
                "IN"
            } else {
                "scalar"
            };
            return Err(PermError::Analysis(format!(
                "{what} subquery must return one column, returns {}",
                plan.arity()
            )));
        }
        Ok(ScalarExpr::Subquery(SubqueryExpr {
            kind,
            plan: Arc::new(plan),
            negated,
            operand: operand.map(Box::new),
            outer_refs: frame.refs,
        }))
    }
}

/// The scope a sublink is written in, as its body's outer references see
/// it.
enum Scope {
    /// A plain clause over this schema (WHERE, a non-aggregate select
    /// list, a join condition, ORDER BY).
    Plain(Schema),
    /// The select list or HAVING clause of an aggregate select: a column
    /// binds through its group position or an implicit `any_value`.
    Agg(AggBinding),
}

impl Scope {
    /// The column as this scope's own clause binds it, with its type;
    /// `None` if the scope has no such column.
    fn resolve(
        &mut self,
        qualifier: Option<&str>,
        name: &str,
    ) -> Result<Option<(ScalarExpr, DataType)>> {
        let schema = match self {
            Scope::Plain(schema) => schema,
            Scope::Agg(agg) => &agg.input_schema,
        };
        let Some(i) = schema.try_resolve(qualifier, name)? else {
            return Ok(None);
        };
        let ty = schema.column(i).ty;
        let e = match self {
            Scope::Plain(_) => ScalarExpr::Column(i),
            Scope::Agg(agg) => {
                let ast = AstExpr::Column {
                    qualifier: qualifier.map(str::to_string),
                    name: name.to_string(),
                };
                agg.scoped(ScalarExpr::Column(i), &ast)?
            }
        };
        Ok(Some((e, ty)))
    }
}

/// One enclosing scope of the sublink body being bound, and the outer
/// references the body has made to it so far.
struct Frame {
    scope: Scope,
    /// The sublink's `outer_refs`: expressions of `scope`.
    refs: Vec<ScalarExpr>,
}

impl Frame {
    /// The body's parameter for `outer`, an expression of this frame's
    /// scope; repeated references share one parameter.
    fn param(&mut self, outer: ScalarExpr, ty: DataType) -> ScalarExpr {
        let index = self
            .refs
            .iter()
            .position(|r| *r == outer)
            .unwrap_or_else(|| {
                self.refs.push(outer);
                self.refs.len() - 1
            });
        ScalarExpr::Param { index, ty }
    }
}

/// State accumulated while binding one aggregate select.
#[derive(Default)]
struct AggBinding {
    input_schema: Schema,
    group_ast: Vec<AstExpr>,
    group_exprs: Vec<ScalarExpr>,
    group_cols: Vec<Column>,
    /// `(original AST, bound call, output column)` per aggregate.
    aggs: Vec<(AstExpr, AggCall, Column)>,
}

impl AggBinding {
    /// Map an expression bound over the aggregate's input into the
    /// aggregate scope: a grouped expression becomes its group position,
    /// anything else an implicit `any_value` (see [`AggFunc::AnyValue`]).
    fn scoped(&mut self, bound: ScalarExpr, ast: &AstExpr) -> Result<ScalarExpr> {
        if let Some(g) = self.group_exprs.iter().position(|e| *e == bound) {
            return Ok(ScalarExpr::Column(g));
        }
        // Reuse an existing implicit any_value over the same expression.
        if let Some(j) = self
            .aggs
            .iter()
            .position(|(_, c, _)| c.func == AggFunc::AnyValue && c.arg.as_ref() == Some(&bound))
        {
            return Ok(ScalarExpr::Column(self.group_exprs.len() + j));
        }
        let ty = expr_type(&bound, &self.input_schema)?;
        let name = match ast {
            AstExpr::Column { name, .. } => name.clone(),
            other => display_name(other),
        };
        let call = AggCall {
            func: AggFunc::AnyValue,
            arg: Some(bound),
            distinct: false,
        };
        self.aggs.push((ast.clone(), call, Column::new(name, ty)));
        Ok(ScalarExpr::Column(
            self.group_exprs.len() + self.aggs.len() - 1,
        ))
    }
}

// ----------------------------------------------------------------------
// Helpers
// ----------------------------------------------------------------------

fn bind_binary(op: BinaryOp, l: ScalarExpr, r: ScalarExpr) -> Result<ScalarExpr> {
    let op = match op {
        BinaryOp::Eq => BinOp::Eq,
        BinaryOp::NotEq => BinOp::NotEq,
        BinaryOp::Lt => BinOp::Lt,
        BinaryOp::LtEq => BinOp::LtEq,
        BinaryOp::Gt => BinOp::Gt,
        BinaryOp::GtEq => BinOp::GtEq,
        BinaryOp::And => BinOp::And,
        BinaryOp::Or => BinOp::Or,
        BinaryOp::Add => BinOp::Add,
        BinaryOp::Sub => BinOp::Sub,
        BinaryOp::Mul => BinOp::Mul,
        BinaryOp::Div => BinOp::Div,
        BinaryOp::Mod => BinOp::Mod,
        BinaryOp::Concat => BinOp::Concat,
    };
    Ok(ScalarExpr::binary(op, l, r))
}

fn bind_unary(op: UnaryOp, inner: ScalarExpr) -> ScalarExpr {
    match op {
        UnaryOp::Not => ScalarExpr::Unary {
            op: UnOp::Not,
            expr: Box::new(inner),
        },
        UnaryOp::Neg => ScalarExpr::Unary {
            op: UnOp::Neg,
            expr: Box::new(inner),
        },
        UnaryOp::Plus => inner,
    }
}

/// `a BETWEEN lo AND hi` desugars to `a >= lo AND a <= hi`.
fn desugar_between(e: ScalarExpr, lo: ScalarExpr, hi: ScalarExpr, negated: bool) -> ScalarExpr {
    let within = ScalarExpr::binary(
        BinOp::And,
        ScalarExpr::binary(BinOp::GtEq, e.clone(), lo),
        ScalarExpr::binary(BinOp::LtEq, e, hi),
    );
    if negated {
        ScalarExpr::Unary {
            op: UnOp::Not,
            expr: Box::new(within),
        }
    } else {
        within
    }
}

/// Rename a prefix of `plan`'s columns per a `(c1, c2, …)` alias list.
fn apply_column_aliases(
    plan: LogicalPlan,
    binding: &str,
    aliases: Option<&[String]>,
) -> Result<LogicalPlan> {
    let Some(aliases) = aliases else {
        return Ok(plan);
    };
    if aliases.len() > plan.arity() {
        return Err(PermError::Analysis(format!(
            "FROM item '{binding}' has {} columns but {} column aliases",
            plan.arity(),
            aliases.len()
        )));
    }
    let mut columns: Vec<Column> = plan.schema().columns().to_vec();
    for (c, a) in columns.iter_mut().zip(aliases) {
        c.name = a.clone();
    }
    let exprs = (0..plan.arity()).map(ScalarExpr::Column).collect();
    Ok(LogicalPlan::Project {
        input: Box::new(plan),
        exprs,
        schema: Schema::new(columns),
    })
}

/// Wrap `plan` so its columns are visible under the alias `binding`
/// (derived tables, unfolded views).
fn rename(plan: LogicalPlan, binding: &str) -> LogicalPlan {
    let schema = plan.schema().requalify(binding);
    let exprs = (0..plan.arity()).map(ScalarExpr::Column).collect();
    LogicalPlan::Project {
        input: Box::new(plan),
        exprs,
        schema,
    }
}

/// Cast each column of `plan` to the target types where they differ.
fn cast_to(plan: LogicalPlan, targets: &[DataType]) -> LogicalPlan {
    let schema = plan.schema().clone();
    let needs_cast = (0..schema.len()).any(|i| {
        let t = schema.column(i).ty;
        t != targets[i] && t != DataType::Unknown
    });
    // Unknown (bare NULL) columns evaluate fine without casts.
    if !needs_cast && (0..schema.len()).all(|i| schema.column(i).ty == targets[i]) {
        return plan;
    }
    let exprs: Vec<ScalarExpr> = (0..schema.len())
        .map(|i| {
            if schema.column(i).ty == targets[i] {
                ScalarExpr::Column(i)
            } else {
                ScalarExpr::Cast {
                    expr: Box::new(ScalarExpr::Column(i)),
                    ty: targets[i],
                }
            }
        })
        .collect();
    let columns: Vec<Column> = schema
        .iter()
        .zip(targets)
        .map(|(c, &t)| {
            let mut c = c.clone();
            c.ty = t;
            c
        })
        .collect();
    LogicalPlan::Project {
        input: Box::new(plan),
        exprs,
        schema: Schema::new(columns),
    }
}

/// The output column of a select item: alias, else a derived name.
fn output_column(
    alias: Option<&str>,
    ast: &AstExpr,
    bound: &ScalarExpr,
    schema: &Schema,
    ty: DataType,
) -> Column {
    if let Some(a) = alias {
        return Column::new(a, ty);
    }
    match ast {
        AstExpr::Column { name, .. } => Column::new(name.clone(), ty),
        AstExpr::Function { name, .. } => Column::new(name.to_ascii_lowercase(), ty),
        AstExpr::Cast { expr, .. } => {
            if let AstExpr::Column { name, .. } = expr.as_ref() {
                Column::new(name.clone(), ty)
            } else {
                Column::new("?column?", ty)
            }
        }
        _ => {
            if let ScalarExpr::Column(i) = bound {
                let c = schema.column(*i);
                Column::new(c.name.clone(), ty)
            } else {
                Column::new("?column?", ty)
            }
        }
    }
}

/// The provenance clause on the leftmost select core of a set-operation
/// tree, if any.
fn leftmost_provenance(body: &QueryBody) -> Option<&perm_sql::ProvenanceClause> {
    match body {
        QueryBody::Select(s) => s.provenance.as_ref(),
        QueryBody::SetOp { left, .. } => leftmost_provenance(left),
    }
}

/// A copy of `body` with the leftmost select core's provenance clause
/// removed.
fn strip_leftmost_provenance(body: &QueryBody) -> QueryBody {
    match body {
        QueryBody::Select(s) => {
            let mut s = (**s).clone();
            s.provenance = None;
            QueryBody::Select(Box::new(s))
        }
        QueryBody::SetOp {
            op,
            all,
            left,
            right,
        } => QueryBody::SetOp {
            op: *op,
            all: *all,
            left: Box::new(strip_leftmost_provenance(left)),
            right: right.clone(),
        },
    }
}

/// A printable name for a synthesized column.
fn display_name(e: &AstExpr) -> String {
    match e {
        AstExpr::Column { name, .. } => name.clone(),
        AstExpr::Function { name, .. } => name.to_ascii_lowercase(),
        _ => "?column?".to_string(),
    }
}

fn select_item_has_aggregate(item: &SelectItem) -> bool {
    match item {
        SelectItem::Expr { expr, .. } => expr_has_aggregate(expr),
        _ => false,
    }
}

/// AST walk: does this expression contain an aggregate call (not inside a
/// subquery)?
fn expr_has_aggregate(e: &AstExpr) -> bool {
    match e {
        AstExpr::Function { name, args, .. } => {
            AggFunc::is_aggregate_name(name) || args.iter().any(expr_has_aggregate)
        }
        AstExpr::Literal(_) | AstExpr::Column { .. } => false,
        AstExpr::Binary { left, right, .. } => {
            expr_has_aggregate(left) || expr_has_aggregate(right)
        }
        AstExpr::Unary { expr, .. } | AstExpr::IsNull { expr, .. } => expr_has_aggregate(expr),
        AstExpr::IsDistinctFrom { left, right, .. } => {
            expr_has_aggregate(left) || expr_has_aggregate(right)
        }
        AstExpr::Like { expr, pattern, .. } => {
            expr_has_aggregate(expr) || expr_has_aggregate(pattern)
        }
        AstExpr::Between {
            expr, low, high, ..
        } => expr_has_aggregate(expr) || expr_has_aggregate(low) || expr_has_aggregate(high),
        AstExpr::InList { expr, list, .. } => {
            expr_has_aggregate(expr) || list.iter().any(expr_has_aggregate)
        }
        AstExpr::Case {
            operand,
            branches,
            else_branch,
        } => {
            operand.as_deref().is_some_and(expr_has_aggregate)
                || branches
                    .iter()
                    .any(|(c, r)| expr_has_aggregate(c) || expr_has_aggregate(r))
                || else_branch.as_deref().is_some_and(expr_has_aggregate)
        }
        AstExpr::Cast { expr, .. } => expr_has_aggregate(expr),
        // Aggregates inside a subquery belong to the subquery.
        AstExpr::InSubquery { expr, .. } => expr_has_aggregate(expr),
        AstExpr::Exists { .. } | AstExpr::ScalarSubquery(_) => false,
    }
}

/// Bind a DDL/DML statement's embedded query parts. Returned by
/// [`bind_statement`] so callers can execute each kind.
#[derive(Debug, Clone, PartialEq)]
pub enum BoundStatement {
    Query(LogicalPlan),
    CreateTable {
        name: String,
        schema: Schema,
    },
    CreateTableAs {
        name: String,
        plan: LogicalPlan,
        /// Provenance attribute positions when the query was a
        /// `SELECT PROVENANCE` (eager provenance metadata).
        provenance_attrs: Option<Vec<usize>>,
    },
    CreateView {
        name: String,
        definition: Query,
        /// The definition's source text.
        sql: String,
    },
    Insert {
        table: String,
        /// One bound row of expressions per VALUES tuple, already reordered
        /// to table-column order (missing columns filled with NULL).
        rows: Vec<Vec<ScalarExpr>>,
    },
    Drop {
        kind: ObjectKind,
        name: String,
        if_exists: bool,
    },
    Delete {
        table: String,
        /// Bound over the table's schema.
        predicate: Option<ScalarExpr>,
    },
    Update {
        table: String,
        /// `(column position, bound value expression)` pairs, value
        /// expressions bound over the table's schema.
        assignments: Vec<(usize, ScalarExpr)>,
        predicate: Option<ScalarExpr>,
    },
    Explain {
        plan: LogicalPlan,
        verbose: bool,
        verify: bool,
    },
}

/// The schema an `UPDATE` / `DELETE` binds its expressions against: the
/// target table's, qualified by its name as a FROM-clause scan of it is,
/// so `t.x` resolves in `UPDATE t …` and in its sublinks.
fn write_target(catalog: &dyn CatalogProvider, table: &str) -> Result<Schema> {
    let meta = catalog
        .base_table(table)
        .ok_or_else(|| PermError::Analysis(format!("table '{table}' does not exist")))?;
    Ok(meta.schema.requalify(table))
}

/// Bind any statement.
pub fn bind_statement(
    stmt: &Statement,
    catalog: &dyn CatalogProvider,
    transform: Option<&dyn ProvenanceTransform>,
) -> Result<BoundStatement> {
    let mut binder = match transform {
        Some(t) => Binder::with_provenance(catalog, t),
        None => Binder::new(catalog),
    };
    match stmt {
        Statement::Query(q) => Ok(BoundStatement::Query(binder.bind_query(q)?)),
        Statement::Explain {
            query,
            verbose,
            verify,
        } => Ok(BoundStatement::Explain {
            plan: binder.bind_query(query)?,
            verbose: *verbose,
            verify: *verify,
        }),
        Statement::Delete { table, predicate } => {
            let schema = write_target(catalog, table)?;
            let predicate = predicate
                .as_ref()
                .map(|p| binder.bind_expr(p, &schema))
                .transpose()?;
            Ok(BoundStatement::Delete {
                table: table.clone(),
                predicate,
            })
        }
        Statement::Update {
            table,
            assignments,
            predicate,
        } => {
            let schema = write_target(catalog, table)?;
            let mut bound = Vec::with_capacity(assignments.len());
            for (col, value) in assignments {
                let pos = schema.resolve(None, col)?;
                bound.push((pos, binder.bind_expr(value, &schema)?));
            }
            let predicate = predicate
                .as_ref()
                .map(|p| binder.bind_expr(p, &schema))
                .transpose()?;
            Ok(BoundStatement::Update {
                table: table.clone(),
                assignments: bound,
                predicate,
            })
        }
        Statement::CreateTable { name, columns } => {
            if columns.is_empty() {
                return Err(PermError::Analysis(
                    "a table needs at least one column".into(),
                ));
            }
            let mut cols = Vec::with_capacity(columns.len());
            for c in columns {
                let mut col = Column::new(c.name.clone(), c.ty);
                col.nullable = !c.not_null;
                cols.push(col);
            }
            Ok(BoundStatement::CreateTable {
                name: name.clone(),
                schema: Schema::new(cols),
            })
        }
        Statement::CreateTableAs { name, query } => {
            let plan = binder.bind_query(query)?;
            let provenance_attrs = if query.provenance_clause().is_some() {
                binder.last_provenance_attrs().map(|a| a.to_vec())
            } else {
                None
            };
            Ok(BoundStatement::CreateTableAs {
                name: name.clone(),
                plan,
                provenance_attrs,
            })
        }
        Statement::CreateView { name, query, sql } => {
            // Validate the definition eagerly (so errors surface at CREATE
            // VIEW time), then store the raw AST.
            binder.bind_query(query)?;
            Ok(BoundStatement::CreateView {
                name: name.clone(),
                definition: query.clone(),
                sql: sql.clone(),
            })
        }
        Statement::Insert {
            table,
            columns,
            rows,
        } => {
            let meta = catalog
                .base_table(table)
                .ok_or_else(|| PermError::Analysis(format!("relation '{table}' does not exist")))?;
            let schema = meta.schema;
            // Map the INSERT column list to table positions.
            let targets: Vec<usize> = match columns {
                None => (0..schema.len()).collect(),
                Some(names) => names
                    .iter()
                    .map(|n| schema.resolve(None, n))
                    .collect::<Result<_>>()?,
            };
            let empty = Schema::empty();
            let mut bound_rows = Vec::with_capacity(rows.len());
            for row in rows {
                if row.len() != targets.len() {
                    return Err(PermError::Analysis(format!(
                        "INSERT expects {} values per row, got {}",
                        targets.len(),
                        row.len()
                    )));
                }
                let mut full: Vec<ScalarExpr> =
                    vec![ScalarExpr::Literal(Value::Null); schema.len()];
                for (e, &pos) in row.iter().zip(&targets) {
                    full[pos] = binder.bind_expr(e, &empty)?;
                }
                bound_rows.push(full);
            }
            Ok(BoundStatement::Insert {
                table: table.clone(),
                rows: bound_rows,
            })
        }
        Statement::Drop {
            kind,
            name,
            if_exists,
        } => Ok(BoundStatement::Drop {
            kind: *kind,
            name: name.clone(),
            if_exists: *if_exists,
        }),
    }
}

#[cfg(test)]
mod tests;
