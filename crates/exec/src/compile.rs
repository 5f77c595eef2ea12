//! Expression compilation: lower a bound [`ScalarExpr`] once per operator
//! into a [`CompiledExpr`] the per-row loop evaluates without re-walking
//! the original tree.
//!
//! Compilation performs the preparation work the interpreter would
//! otherwise redo for every row:
//!
//! * **constant folding** — any subtree without column references or
//!   sublinks is evaluated once at compile time (subtrees whose evaluation
//!   errors are left in place so the error still surfaces, per row, exactly
//!   when the interpreter would raise it);
//! * **flattened conjunctions/disjunctions** — `AND`/`OR` chains become a
//!   single short-circuiting loop over a vector instead of a recursive
//!   descent, with identity elements dropped and the chain truncated at
//!   the first constant absorbing element (left-to-right evaluation order,
//!   and therefore error behavior, is preserved);
//! * **pre-compiled `LIKE` patterns** — a constant pattern is decoded into
//!   a [`LikeMatcher`] once;
//! * **pre-hashed `IN` lists** — an all-constant list of mutually
//!   comparable values becomes a [`HashedList`] probed by `hashed_in`,
//!   which answers exactly as the interpreter's `in_semantics` (a NULL or
//!   NaN element makes a miss unknown, a NaN needle is unknown). The
//!   executor hashes an uncorrelated `IN` sublink's body with the same
//!   helper, `try_hash_list`;
//! * **pre-resolved column slots** — column references become direct slot
//!   loads.
//!
//! Sublinks cannot be compiled — they run whole lowered bodies through
//! the [`Executor`] — so any subtree containing one falls back to the
//! interpreter ([`crate::eval::eval`]) as a single [`CompiledExpr::Interp`]
//! node. The interpreter remains the reference semantics; the equivalence
//! property tests in `tests/equivalence_props.rs` pin the compiled path to
//! it.

use std::borrow::Cow;

use perm_types::hash::{set_with_capacity, FxHashSet};
use perm_types::ops::{self, ArithOp, LikeMatcher};
use perm_types::{DataType, PermError, Result, Tuple, Value};

use perm_algebra::expr::{BinOp, ScalarExpr, ScalarFunc, UnOp};

use crate::eval::{eval, eval_scalar_fn, in_semantics, Env};
use crate::executor::Executor;

/// A compiled scalar expression. Build one per operator with
/// [`CompiledExpr::compile`], then evaluate it per row with
/// [`CompiledExpr::eval`].
#[derive(Debug)]
pub enum CompiledExpr {
    /// A literal or a successfully pre-evaluated constant subtree.
    Const(Value),
    /// A direct load of tuple slot `i`.
    Slot(usize),
    /// A load of parameter `i` of the running sublink body.
    Param(usize),
    /// A non-logical binary operator.
    Binary {
        op: BinOp,
        left: Box<CompiledExpr>,
        right: Box<CompiledExpr>,
    },
    /// A flattened `AND` chain, evaluated left to right with Kleene
    /// short-circuiting.
    And(Vec<CompiledExpr>),
    /// A flattened `OR` chain.
    Or(Vec<CompiledExpr>),
    Unary {
        op: UnOp,
        expr: Box<CompiledExpr>,
    },
    IsNull {
        expr: Box<CompiledExpr>,
        negated: bool,
    },
    /// `expr LIKE <constant pattern>`: the pattern is decoded once.
    LikeConst {
        expr: Box<CompiledExpr>,
        matcher: LikeMatcher,
        negated: bool,
    },
    /// `LIKE` with a non-constant (or non-text constant) pattern.
    Like {
        expr: Box<CompiledExpr>,
        pattern: Box<CompiledExpr>,
        negated: bool,
    },
    /// `expr IN (<all-constant list>)` probed through a hash set.
    InHashed {
        expr: Box<CompiledExpr>,
        list: HashedList,
        negated: bool,
    },
    /// `IN` over a list with non-constant (or non-hashable) elements.
    InList {
        expr: Box<CompiledExpr>,
        list: Vec<CompiledExpr>,
        negated: bool,
    },
    Case {
        operand: Option<Box<CompiledExpr>>,
        branches: Vec<(CompiledExpr, CompiledExpr)>,
        else_branch: Option<Box<CompiledExpr>>,
    },
    Cast {
        expr: Box<CompiledExpr>,
        ty: DataType,
    },
    Fn {
        func: ScalarFunc,
        args: Vec<CompiledExpr>,
    },
    /// Interpreter fallback for subtrees containing sublinks. The clone
    /// shares each sublink's body with the plan, which is how the
    /// executor finds the body's lowering and result slot.
    Interp(Box<ScalarExpr>),
}

impl CompiledExpr {
    /// Lower `e` for repeated evaluation. `exec` is only used to evaluate
    /// constant subtrees (which, containing no sublinks, never actually
    /// reach it).
    pub fn compile(exec: &Executor, e: &ScalarExpr) -> CompiledExpr {
        match e {
            ScalarExpr::Literal(v) => CompiledExpr::Const(v.clone()),
            ScalarExpr::Column(i) => CompiledExpr::Slot(*i),
            ScalarExpr::Param { index, .. } => CompiledExpr::Param(*index),
            ScalarExpr::Binary {
                op: op @ (BinOp::And | BinOp::Or),
                ..
            } => compile_chain(exec, e, *op),
            ScalarExpr::Binary { op, left, right } => fold(
                exec,
                CompiledExpr::Binary {
                    op: *op,
                    left: Box::new(CompiledExpr::compile(exec, left)),
                    right: Box::new(CompiledExpr::compile(exec, right)),
                },
            ),
            ScalarExpr::Unary { op, expr } => fold(
                exec,
                CompiledExpr::Unary {
                    op: *op,
                    expr: Box::new(CompiledExpr::compile(exec, expr)),
                },
            ),
            ScalarExpr::IsNull { expr, negated } => fold(
                exec,
                CompiledExpr::IsNull {
                    expr: Box::new(CompiledExpr::compile(exec, expr)),
                    negated: *negated,
                },
            ),
            ScalarExpr::Like {
                expr,
                pattern,
                negated,
            } => {
                let expr = Box::new(CompiledExpr::compile(exec, expr));
                let pattern = CompiledExpr::compile(exec, pattern);
                let node = match pattern {
                    CompiledExpr::Const(Value::Text(p)) => CompiledExpr::LikeConst {
                        expr,
                        matcher: LikeMatcher::new(&p),
                        negated: *negated,
                    },
                    other => CompiledExpr::Like {
                        expr,
                        pattern: Box::new(other),
                        negated: *negated,
                    },
                };
                fold(exec, node)
            }
            ScalarExpr::InList {
                expr,
                list,
                negated,
            } => compile_in_list(exec, expr, list, *negated),
            ScalarExpr::Case {
                operand,
                branches,
                else_branch,
            } => fold(
                exec,
                CompiledExpr::Case {
                    operand: operand
                        .as_ref()
                        .map(|o| Box::new(CompiledExpr::compile(exec, o))),
                    branches: branches
                        .iter()
                        .map(|(c, r)| {
                            (
                                CompiledExpr::compile(exec, c),
                                CompiledExpr::compile(exec, r),
                            )
                        })
                        .collect(),
                    else_branch: else_branch
                        .as_ref()
                        .map(|e| Box::new(CompiledExpr::compile(exec, e))),
                },
            ),
            ScalarExpr::Cast { expr, ty } => fold(
                exec,
                CompiledExpr::Cast {
                    expr: Box::new(CompiledExpr::compile(exec, expr)),
                    ty: *ty,
                },
            ),
            ScalarExpr::ScalarFn { func, args } => fold(
                exec,
                CompiledExpr::Fn {
                    func: *func,
                    args: args
                        .iter()
                        .map(|a| CompiledExpr::compile(exec, a))
                        .collect(),
                },
            ),
            // Sublinks run their lowered bodies; evaluate through the
            // interpreter.
            ScalarExpr::Subquery(_) => CompiledExpr::Interp(Box::new(e.clone())),
        }
    }

    /// True for nodes whose evaluation cannot depend on the row.
    fn is_const(&self) -> bool {
        matches!(self, CompiledExpr::Const(_))
    }

    /// Whether every direct child is a folded constant (the node itself is
    /// then a candidate for compile-time evaluation).
    fn children_const(&self) -> bool {
        match self {
            CompiledExpr::Const(_) => true,
            CompiledExpr::Slot(_) | CompiledExpr::Param(_) | CompiledExpr::Interp(_) => false,
            CompiledExpr::Binary { left, right, .. } => left.is_const() && right.is_const(),
            CompiledExpr::And(items) | CompiledExpr::Or(items) => {
                items.iter().all(CompiledExpr::is_const)
            }
            CompiledExpr::Unary { expr, .. }
            | CompiledExpr::IsNull { expr, .. }
            | CompiledExpr::LikeConst { expr, .. }
            | CompiledExpr::Cast { expr, .. }
            | CompiledExpr::InHashed { expr, .. } => expr.is_const(),
            CompiledExpr::Like { expr, pattern, .. } => expr.is_const() && pattern.is_const(),
            CompiledExpr::InList { expr, list, .. } => {
                expr.is_const() && list.iter().all(CompiledExpr::is_const)
            }
            CompiledExpr::Case {
                operand,
                branches,
                else_branch,
            } => {
                operand.as_deref().is_none_or(CompiledExpr::is_const)
                    && branches.iter().all(|(c, r)| c.is_const() && r.is_const())
                    && else_branch.as_deref().is_none_or(CompiledExpr::is_const)
            }
            CompiledExpr::Fn { args, .. } => args.iter().all(CompiledExpr::is_const),
        }
    }

    /// Evaluate without cloning when the result already lives in the row
    /// (slot loads) or in the compiled expression (constants); interior
    /// nodes delegate to [`CompiledExpr::eval`]. Operand fetches go
    /// through this, so a comparison like `#0 % 4 = 0` moves no values.
    fn eval_cow<'a>(&'a self, exec: &Executor, env: &Env<'a>) -> Result<Cow<'a, Value>> {
        match self {
            CompiledExpr::Const(v) => Ok(Cow::Borrowed(v)),
            CompiledExpr::Slot(i) => {
                if *i >= env.tuple.len() {
                    return Err(PermError::Execution(format!(
                        "column position {i} out of range for tuple of width {}",
                        env.tuple.len()
                    )));
                }
                Ok(Cow::Borrowed(env.tuple.get(*i)))
            }
            CompiledExpr::Param(i) => env.param(*i).map(Cow::Borrowed),
            other => other.eval(exec, env).map(Cow::Owned),
        }
    }

    /// Evaluate against one row. Semantically identical to running
    /// [`crate::eval::eval`] on the original expression.
    pub fn eval(&self, exec: &Executor, env: &Env<'_>) -> Result<Value> {
        match self {
            // The borrowing leaves live in eval_cow; cloning the borrow is
            // exactly what the interpreter does for these nodes.
            CompiledExpr::Const(_) | CompiledExpr::Slot(_) | CompiledExpr::Param(_) => {
                self.eval_cow(exec, env).map(Cow::into_owned)
            }
            CompiledExpr::Binary { op, left, right } => {
                let l = left.eval_cow(exec, env)?;
                let r = right.eval_cow(exec, env)?;
                apply_binary(*op, &l, &r)
            }
            CompiledExpr::And(items) => {
                let mut saw_null = false;
                for item in items {
                    match item.eval_cow(exec, env)?.as_bool()? {
                        Some(false) => return Ok(Value::Bool(false)),
                        Some(true) => {}
                        None => saw_null = true,
                    }
                }
                Ok(if saw_null {
                    Value::Null
                } else {
                    Value::Bool(true)
                })
            }
            CompiledExpr::Or(items) => {
                let mut saw_null = false;
                for item in items {
                    match item.eval_cow(exec, env)?.as_bool()? {
                        Some(true) => return Ok(Value::Bool(true)),
                        Some(false) => {}
                        None => saw_null = true,
                    }
                }
                Ok(if saw_null {
                    Value::Null
                } else {
                    Value::Bool(false)
                })
            }
            CompiledExpr::Unary { op, expr } => {
                let v = expr.eval_cow(exec, env)?;
                match op {
                    UnOp::Not => ops::not(&v),
                    UnOp::Neg => ops::neg(&v),
                }
            }
            CompiledExpr::IsNull { expr, negated } => {
                let v = expr.eval_cow(exec, env)?;
                Ok(Value::Bool(v.is_null() != *negated))
            }
            CompiledExpr::LikeConst {
                expr,
                matcher,
                negated,
            } => {
                let v = expr.eval_cow(exec, env)?;
                let m = match &*v {
                    Value::Null => Value::Null,
                    Value::Text(s) => Value::Bool(matcher.matches(s)),
                    other => {
                        return Err(PermError::Value(format!(
                            "LIKE requires text operands, got {} and {}",
                            other.data_type(),
                            DataType::Text
                        )))
                    }
                };
                if *negated {
                    ops::not(&m)
                } else {
                    Ok(m)
                }
            }
            CompiledExpr::Like {
                expr,
                pattern,
                negated,
            } => {
                let v = expr.eval_cow(exec, env)?;
                let p = pattern.eval_cow(exec, env)?;
                let m = ops::like(&v, &p)?;
                if *negated {
                    ops::not(&m)
                } else {
                    Ok(m)
                }
            }
            CompiledExpr::InHashed {
                expr,
                list,
                negated,
            } => {
                let needle = expr.eval_cow(exec, env)?;
                let r = hashed_in(&needle, list)?;
                if *negated {
                    ops::not(&r)
                } else {
                    Ok(r)
                }
            }
            CompiledExpr::InList {
                expr,
                list,
                negated,
            } => {
                let needle = expr.eval_cow(exec, env)?;
                let mut values = Vec::with_capacity(list.len());
                for item in list {
                    values.push(item.eval_cow(exec, env)?);
                }
                let r = in_semantics(&needle, values.iter().map(|c| &**c))?;
                if *negated {
                    ops::not(&r)
                } else {
                    Ok(r)
                }
            }
            CompiledExpr::Case {
                operand,
                branches,
                else_branch,
            } => {
                let op_val = operand
                    .as_ref()
                    .map(|o| o.eval_cow(exec, env))
                    .transpose()?;
                for (cond, result) in branches {
                    let c = cond.eval_cow(exec, env)?;
                    let fire = match &op_val {
                        // `CASE x WHEN v`: SQL equality (NULL never matches).
                        Some(x) => ops::eq(x, &c)?.as_bool()?.unwrap_or(false),
                        None => c.as_bool()?.unwrap_or(false),
                    };
                    if fire {
                        return result.eval(exec, env);
                    }
                }
                match else_branch {
                    Some(e) => e.eval(exec, env),
                    None => Ok(Value::Null),
                }
            }
            CompiledExpr::Cast { expr, ty } => expr.eval_cow(exec, env)?.cast(*ty),
            CompiledExpr::Fn { func, args } => {
                let mut vals = Vec::with_capacity(args.len());
                for a in args {
                    vals.push(a.eval(exec, env)?);
                }
                eval_scalar_fn(*func, &vals)
            }
            CompiledExpr::Interp(e) => eval(exec, e, env),
        }
    }

    /// Evaluate as a predicate: `Ok(Some(true))` means the row passes.
    pub fn eval_bool(&self, exec: &Executor, env: &Env<'_>) -> Result<Option<bool>> {
        self.eval_cow(exec, env)?.as_bool()
    }
}

/// One output column of a [`Gather`]: a copy of an input slot, or a
/// constant.
#[derive(Debug)]
enum Gathered {
    Slot(usize),
    Const(Value),
}

/// A projection made of bare slots and constants — the shape provenance
/// rewrites produce when they shuffle, duplicate and NULL-pad columns.
/// Each output row is built in one allocation with no per-expression
/// dispatch; a slot-only projection is the special case without
/// constants.
#[derive(Debug)]
pub struct Gather {
    items: Vec<Gathered>,
    /// The minimal input arity (largest gathered slot + 1).
    width_needed: usize,
}

impl Gather {
    /// The gather computing `compiled`, if every expression is a slot
    /// load or a (folded) constant.
    fn new(compiled: &[CompiledExpr]) -> Option<Gather> {
        let items = compiled
            .iter()
            .map(|c| match c {
                CompiledExpr::Slot(i) => Some(Gathered::Slot(*i)),
                CompiledExpr::Const(v) => Some(Gathered::Const(v.clone())),
                _ => None,
            })
            .collect::<Option<Vec<_>>>()?;
        let width_needed = items
            .iter()
            .map(|g| match g {
                Gathered::Slot(i) => i + 1,
                Gathered::Const(_) => 0,
            })
            .max()
            .unwrap_or(0);
        Some(Gather {
            items,
            width_needed,
        })
    }

    /// Build the output row for `row`. A row narrower than a gathered slot
    /// raises the interpreter's out-of-range error for the first such
    /// slot (constants never fail).
    pub fn apply(&self, row: &Tuple) -> Result<Tuple> {
        if row.len() < self.width_needed {
            let bad = self
                .items
                .iter()
                .find_map(|g| match g {
                    Gathered::Slot(i) if *i >= row.len() => Some(*i),
                    _ => None,
                })
                // INVARIANT: width_needed = max(slots) + 1, so a row
                // shorter than it has an out-of-range slot.
                .expect("some slot is out of range");
            return Err(PermError::Execution(format!(
                "column position {bad} out of range for tuple of width {}",
                row.len()
            )));
        }
        if self.items.is_empty() {
            // The shared empty tuple: no allocation.
            return Ok(Tuple::empty());
        }
        Ok(self
            .items
            .iter()
            .map(|g| match g {
                Gathered::Slot(i) => row.get(*i).clone(),
                Gathered::Const(v) => v.clone(),
            })
            .collect())
    }
}

/// A compiled projection (or group-key) list.
///
/// Provenance rewrites mostly *shuffle, widen and pad* columns — their
/// projections are long lists of plain column references and NULLs.
/// [`Gather`] detects that shape and builds each output row by direct
/// copy; anything else evaluates through [`CompiledExpr`].
#[derive(Debug)]
pub enum CompiledProjection {
    /// Every expression is a column reference or a constant.
    Gather(Gather),
    /// General expressions.
    Exprs(Vec<CompiledExpr>),
}

impl CompiledProjection {
    pub fn compile(exec: &Executor, exprs: &[ScalarExpr]) -> CompiledProjection {
        let compiled: Vec<CompiledExpr> = exprs
            .iter()
            .map(|e| CompiledExpr::compile(exec, e))
            .collect();
        match Gather::new(&compiled) {
            Some(gather) => CompiledProjection::Gather(gather),
            None => CompiledProjection::Exprs(compiled),
        }
    }

    /// Build one output row.
    pub fn apply(&self, exec: &Executor, env: &Env<'_>) -> Result<Tuple> {
        match self {
            CompiledProjection::Gather(g) => g.apply(env.tuple),
            CompiledProjection::Exprs(exprs) => {
                let mut vals = Vec::with_capacity(exprs.len());
                for e in exprs {
                    vals.push(e.eval(exec, env)?);
                }
                Ok(Tuple::new(vals))
            }
        }
    }
}

/// Non-logical binary operator dispatch (AND/OR are compiled to chains).
fn apply_binary(op: BinOp, l: &Value, r: &Value) -> Result<Value> {
    match op {
        BinOp::Eq => ops::eq(l, r),
        BinOp::NotEq => ops::neq(l, r),
        BinOp::Lt => ops::lt(l, r),
        BinOp::LtEq => ops::lte(l, r),
        BinOp::Gt => ops::gt(l, r),
        BinOp::GtEq => ops::gte(l, r),
        BinOp::Add => ops::arith(ArithOp::Add, l, r),
        BinOp::Sub => ops::arith(ArithOp::Sub, l, r),
        BinOp::Mul => ops::arith(ArithOp::Mul, l, r),
        BinOp::Div => ops::arith(ArithOp::Div, l, r),
        BinOp::Mod => ops::arith(ArithOp::Mod, l, r),
        BinOp::Concat => ops::concat(l, r),
        BinOp::NotDistinctFrom => Ok(ops::not_distinct(l, r)),
        BinOp::DistinctFrom => Ok(ops::distinct(l, r)),
        BinOp::And | BinOp::Or => unreachable!("AND/OR compile to chains"),
    }
}

/// If every child of `node` is a folded constant, evaluate it once now.
/// Evaluation errors leave the node in place so the error surfaces at
/// runtime exactly as the interpreter would raise it.
fn fold(exec: &Executor, node: CompiledExpr) -> CompiledExpr {
    if !node.children_const() {
        return node;
    }
    let empty = Tuple::empty();
    let env = Env::new(&empty, &[]);
    match node.eval(exec, &env) {
        Ok(v) => CompiledExpr::Const(v),
        Err(_) => node,
    }
}

/// Flatten an `AND`/`OR` tree into one chain, dropping identity elements
/// and truncating at the first absorbing constant. Left-to-right order is
/// preserved, so short-circuit and error behavior match the interpreter.
fn compile_chain(exec: &Executor, e: &ScalarExpr, op: BinOp) -> CompiledExpr {
    fn flatten<'a>(e: &'a ScalarExpr, op: BinOp, out: &mut Vec<&'a ScalarExpr>) {
        match e {
            ScalarExpr::Binary {
                op: node_op,
                left,
                right,
            } if *node_op == op => {
                flatten(left, op, out);
                flatten(right, op, out);
            }
            other => out.push(other),
        }
    }
    let mut parts = Vec::new();
    flatten(e, op, &mut parts);

    // For AND: `true` is the identity (dropped), `false` absorbs (later
    // conjuncts can never be evaluated). Symmetric for OR.
    let identity = op == BinOp::And;
    let mut chain = Vec::with_capacity(parts.len());
    for p in parts {
        let c = CompiledExpr::compile(exec, p);
        if let CompiledExpr::Const(Value::Bool(b)) = &c {
            if *b == identity {
                continue;
            }
            chain.push(c);
            break; // absorbing element: the rest never evaluates
        }
        chain.push(c);
    }
    let node = if op == BinOp::And {
        CompiledExpr::And(chain)
    } else {
        CompiledExpr::Or(chain)
    };
    fold(exec, node)
}

/// Compile `expr [NOT] IN (list)`, pre-hashing all-constant lists of
/// mutually comparable values.
fn compile_in_list(
    exec: &Executor,
    expr: &ScalarExpr,
    list: &[ScalarExpr],
    negated: bool,
) -> CompiledExpr {
    let needle = Box::new(CompiledExpr::compile(exec, expr));
    let compiled: Vec<CompiledExpr> = list
        .iter()
        .map(|e| CompiledExpr::compile(exec, e))
        .collect();
    let constants = compiled
        .iter()
        .map(|c| match c {
            CompiledExpr::Const(v) => Some(v),
            _ => None,
        })
        .collect::<Option<Vec<&Value>>>();
    let node = match constants.and_then(try_hash_list) {
        Some(list) => CompiledExpr::InHashed {
            expr: needle,
            list,
            negated,
        },
        None => CompiledExpr::InList {
            expr: needle,
            list: compiled,
            negated,
        },
    };
    fold(exec, node)
}

/// An `IN` list hashed for probing, answering as `in_semantics` over
/// the list would (`hashed_in`).
#[derive(Debug)]
pub struct HashedList {
    /// The elements that can match: neither NULL nor NaN.
    set: FxHashSet<Value>,
    /// A NULL or NaN element: a needle that matches no other element is
    /// unknown rather than absent.
    has_null: bool,
    /// The first element that is not NULL: the interpreter raises its
    /// type-mismatch error against it.
    first: Option<Value>,
}

/// Hash a list of values if they are mutually comparable under SQL
/// equality (one "family": numeric, text or bool, plus NULLs) — an
/// uncorrelated `IN` sublink's body column, or an all-constant `IN`
/// list. Under `=` a NaN element matches nothing, like a NULL one, so it
/// goes to `has_null`, not to the set.
pub(crate) fn try_hash_list<'v>(values: impl IntoIterator<Item = &'v Value>) -> Option<HashedList> {
    #[derive(PartialEq, Clone, Copy)]
    enum Family {
        Numeric,
        Text,
        Bool,
    }
    let values = values.into_iter();
    let mut list = HashedList {
        set: set_with_capacity(values.size_hint().0),
        has_null: false,
        first: None,
    };
    let mut family: Option<Family> = None;
    for v in values {
        let f = match v {
            Value::Null => {
                list.has_null = true;
                continue;
            }
            Value::Int(_) | Value::Float(_) => Family::Numeric,
            Value::Text(_) => Family::Text,
            Value::Bool(_) => Family::Bool,
        };
        match family {
            None => family = Some(f),
            Some(existing) if existing != f => return None,
            Some(_) => {}
        }
        if list.first.is_none() {
            list.first = Some(v.clone());
        }
        if is_nan(v) {
            list.has_null = true;
        } else {
            list.set.insert(v.clone());
        }
    }
    Some(list)
}

fn is_nan(v: &Value) -> bool {
    matches!(v, Value::Float(f) if f.is_nan())
}

/// Hash-probe `IN` with the interpreter's three-valued semantics,
/// including its error on incomparable operand types. Shared with the
/// vectorized kernels ([`crate::kernels`]) and the executor's
/// uncorrelated `IN` sublinks.
pub(crate) fn hashed_in(needle: &Value, list: &HashedList) -> Result<Value> {
    if needle.is_null() {
        return Ok(Value::Null);
    }
    // The interpreter compares the needle against each element with
    // `ops::eq`; within one family only the first non-null element can
    // raise its type-mismatch error, and raises it first.
    if let Some(first) = &list.first {
        ops::eq(needle, first)?;
    }
    // The set holds no NaN, and every comparison with a NaN needle is
    // unknown.
    let unknown = list.has_null || (is_nan(needle) && !list.set.is_empty());
    Ok(if list.set.contains(needle) {
        Value::Bool(true)
    } else if unknown {
        Value::Null
    } else {
        Value::Bool(false)
    })
}
