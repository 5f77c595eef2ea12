//! Expression evaluation.
//!
//! Evaluates bound [`ScalarExpr`]s over a tuple and the parameters of the
//! sublink body it runs in, running sublink bodies — lowered with their
//! statement — through the [`Executor`]. A correlated sublink's
//! `outer_refs` are evaluated once per outer row and become its body's
//! parameters; an uncorrelated body runs once per statement and its
//! result stays in the executor's slot for that sublink.

use std::cmp::Ordering;

use perm_types::ops::{self, ArithOp};
use perm_types::{PermError, Result, Tuple, Value};

use perm_algebra::expr::{BinOp, ScalarExpr, ScalarFunc, UnOp};

use crate::executor::Executor;

/// The evaluation environment: the current tuple plus the parameters of
/// the sublink body being run (empty outside one).
pub struct Env<'a> {
    pub tuple: &'a Tuple,
    pub params: &'a [Value],
}

impl<'a> Env<'a> {
    pub fn new(tuple: &'a Tuple, params: &'a [Value]) -> Env<'a> {
        Env { tuple, params }
    }

    /// Parameter `index`; out of range is an execution error, as an
    /// out-of-range column is.
    pub fn param(&self, index: usize) -> Result<&'a Value> {
        self.params.get(index).ok_or_else(|| {
            PermError::Execution(format!(
                "parameter ${index} out of range ({} bound)",
                self.params.len()
            ))
        })
    }
}

/// Evaluate `e` in `env`, executing sublinks through `exec`.
pub fn eval(exec: &Executor, e: &ScalarExpr, env: &Env<'_>) -> Result<Value> {
    match e {
        ScalarExpr::Literal(v) => Ok(v.clone()),
        ScalarExpr::Column(i) => {
            if *i >= env.tuple.len() {
                return Err(PermError::Execution(format!(
                    "column position {i} out of range for tuple of width {}",
                    env.tuple.len()
                )));
            }
            Ok(env.tuple.get(*i).clone())
        }
        ScalarExpr::Param { index, .. } => env.param(*index).cloned(),
        ScalarExpr::Binary { op, left, right } => eval_binary(exec, *op, left, right, env),
        ScalarExpr::Unary { op, expr } => {
            let v = eval(exec, expr, env)?;
            match op {
                UnOp::Not => ops::not(&v),
                UnOp::Neg => ops::neg(&v),
            }
        }
        ScalarExpr::IsNull { expr, negated } => {
            let v = eval(exec, expr, env)?;
            Ok(Value::Bool(v.is_null() != *negated))
        }
        ScalarExpr::Like {
            expr,
            pattern,
            negated,
        } => {
            let v = eval(exec, expr, env)?;
            let p = eval(exec, pattern, env)?;
            let m = ops::like(&v, &p)?;
            if *negated {
                ops::not(&m)
            } else {
                Ok(m)
            }
        }
        ScalarExpr::InList {
            expr,
            list,
            negated,
        } => {
            let needle = eval(exec, expr, env)?;
            let mut values = Vec::with_capacity(list.len());
            for item in list {
                values.push(eval(exec, item, env)?);
            }
            let r = in_semantics(&needle, values.iter())?;
            if *negated {
                ops::not(&r)
            } else {
                Ok(r)
            }
        }
        ScalarExpr::Case {
            operand,
            branches,
            else_branch,
        } => {
            let op_val = operand.as_ref().map(|o| eval(exec, o, env)).transpose()?;
            for (cond, result) in branches {
                let c = eval(exec, cond, env)?;
                let fire = match &op_val {
                    // `CASE x WHEN v`: SQL equality (NULL never matches).
                    Some(x) => ops::eq(x, &c)?.as_bool()?.unwrap_or(false),
                    None => c.as_bool()?.unwrap_or(false),
                };
                if fire {
                    return eval(exec, result, env);
                }
            }
            match else_branch {
                Some(e) => eval(exec, e, env),
                None => Ok(Value::Null),
            }
        }
        ScalarExpr::Cast { expr, ty } => eval(exec, expr, env)?.cast(*ty),
        ScalarExpr::ScalarFn { func, args } => {
            let mut vals = Vec::with_capacity(args.len());
            for a in args {
                vals.push(eval(exec, a, env)?);
            }
            eval_scalar_fn(*func, &vals)
        }
        ScalarExpr::Subquery(sq) => exec.eval_sublink(sq, env),
    }
}

fn eval_binary(
    exec: &Executor,
    op: BinOp,
    left: &ScalarExpr,
    right: &ScalarExpr,
    env: &Env<'_>,
) -> Result<Value> {
    // AND/OR get Kleene short-circuiting.
    if op == BinOp::And {
        let l = eval(exec, left, env)?;
        if l.as_bool()? == Some(false) {
            return Ok(Value::Bool(false));
        }
        let r = eval(exec, right, env)?;
        return ops::and(&l, &r);
    }
    if op == BinOp::Or {
        let l = eval(exec, left, env)?;
        if l.as_bool()? == Some(true) {
            return Ok(Value::Bool(true));
        }
        let r = eval(exec, right, env)?;
        return ops::or(&l, &r);
    }
    let l = eval(exec, left, env)?;
    let r = eval(exec, right, env)?;
    match op {
        BinOp::Eq => ops::eq(&l, &r),
        BinOp::NotEq => ops::neq(&l, &r),
        BinOp::Lt => ops::lt(&l, &r),
        BinOp::LtEq => ops::lte(&l, &r),
        BinOp::Gt => ops::gt(&l, &r),
        BinOp::GtEq => ops::gte(&l, &r),
        BinOp::Add => ops::arith(ArithOp::Add, &l, &r),
        BinOp::Sub => ops::arith(ArithOp::Sub, &l, &r),
        BinOp::Mul => ops::arith(ArithOp::Mul, &l, &r),
        BinOp::Div => ops::arith(ArithOp::Div, &l, &r),
        BinOp::Mod => ops::arith(ArithOp::Mod, &l, &r),
        BinOp::Concat => ops::concat(&l, &r),
        BinOp::NotDistinctFrom => Ok(ops::not_distinct(&l, &r)),
        BinOp::DistinctFrom => Ok(ops::distinct(&l, &r)),
        BinOp::And | BinOp::Or => unreachable!("handled above"),
    }
}

/// SQL `IN` three-valued semantics over a list of candidate values.
/// Shared with the compiled-expression path ([`crate::compile`]).
pub(crate) fn in_semantics<'v>(
    needle: &Value,
    candidates: impl Iterator<Item = &'v Value>,
) -> Result<Value> {
    if needle.is_null() {
        return Ok(Value::Null);
    }
    let mut saw_null = false;
    for c in candidates {
        match ops::eq(needle, c)?.as_bool()? {
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

/// Built-in scalar function dispatch. Shared with the compiled-expression
/// path ([`crate::compile`]).
pub(crate) fn eval_scalar_fn(func: ScalarFunc, args: &[Value]) -> Result<Value> {
    use ScalarFunc::*;
    // NULL propagation for the strict single-argument string/number
    // functions.
    let strict_null = matches!(
        func,
        Upper | Lower | Length | Abs | Round | Floor | Ceil | Trim | Substr | Replace
    );
    if strict_null && args.iter().any(Value::is_null) {
        return Ok(Value::Null);
    }
    match func {
        Upper => text_fn(&args[0], |s| s.to_uppercase()),
        Lower => text_fn(&args[0], |s| s.to_lowercase()),
        Trim => text_fn(&args[0], |s| s.trim().to_string()),
        Length => match &args[0] {
            Value::Text(s) => Ok(Value::Int(s.chars().count() as i64)),
            v => Err(PermError::Value(format!("length() requires text, got {v}"))),
        },
        Abs => match &args[0] {
            Value::Int(i) => i
                .checked_abs()
                .map(Value::Int)
                .ok_or_else(|| PermError::Value("integer overflow in abs".into())),
            Value::Float(f) => Ok(Value::Float(f.abs())),
            v => Err(PermError::Value(format!(
                "abs() requires a number, got {v}"
            ))),
        },
        Round => {
            let x = args[0].as_f64()?;
            if args.len() == 2 {
                let digits = match &args[1] {
                    Value::Int(d) => *d,
                    v => {
                        return Err(PermError::Value(format!(
                            "round() digits must be int, got {v}"
                        )))
                    }
                };
                let factor = 10f64.powi(digits as i32);
                Ok(Value::Float((x * factor).round() / factor))
            } else {
                match &args[0] {
                    Value::Int(i) => Ok(Value::Int(*i)),
                    _ => Ok(Value::Float(x.round())),
                }
            }
        }
        Floor => match &args[0] {
            Value::Int(i) => Ok(Value::Int(*i)),
            v => Ok(Value::Float(v.as_f64()?.floor())),
        },
        Ceil => match &args[0] {
            Value::Int(i) => Ok(Value::Int(*i)),
            v => Ok(Value::Float(v.as_f64()?.ceil())),
        },
        Coalesce => Ok(args
            .iter()
            .find(|v| !v.is_null())
            .cloned()
            .unwrap_or(Value::Null)),
        NullIf => {
            if !args[0].is_null()
                && !args[1].is_null()
                && ops::eq(&args[0], &args[1])?.as_bool()? == Some(true)
            {
                return Ok(Value::Null);
            }
            Ok(args[0].clone())
        }
        Substr => {
            let s = match &args[0] {
                Value::Text(s) => s,
                v => return Err(PermError::Value(format!("substr() requires text, got {v}"))),
            };
            let start = match &args[1] {
                Value::Int(i) => *i,
                v => {
                    return Err(PermError::Value(format!(
                        "substr() start must be int, got {v}"
                    )))
                }
            };
            let chars: Vec<char> = s.chars().collect();
            // SQL substr is 1-based; clamp like PostgreSQL.
            let from = (start.max(1) - 1) as usize;
            let len = if args.len() == 3 {
                match &args[2] {
                    Value::Int(l) if *l >= 0 => *l as usize,
                    Value::Int(_) => return Err(PermError::Value("negative substr length".into())),
                    v => {
                        return Err(PermError::Value(format!(
                            "substr() length must be int, got {v}"
                        )))
                    }
                }
            } else {
                usize::MAX
            };
            let out: String = chars.iter().skip(from).take(len).collect();
            Ok(Value::text(out))
        }
        Replace => {
            let (s, from, to) = match (&args[0], &args[1], &args[2]) {
                (Value::Text(s), Value::Text(f), Value::Text(t)) => (s, f, t),
                _ => {
                    return Err(PermError::Value(
                        "replace() requires three text arguments".into(),
                    ))
                }
            };
            Ok(Value::text(s.replace(&**from, to.as_ref())))
        }
        Greatest | Least => {
            let non_null: Vec<&Value> = args.iter().filter(|v| !v.is_null()).collect();
            if non_null.is_empty() {
                return Ok(Value::Null);
            }
            let want = if func == Greatest {
                Ordering::Greater
            } else {
                Ordering::Less
            };
            let mut best = non_null[0];
            for v in &non_null[1..] {
                if let Some(ord) = ops::sql_compare(v, best)? {
                    if ord == want {
                        best = v;
                    }
                }
            }
            Ok(best.clone())
        }
    }
}

fn text_fn(v: &Value, f: impl Fn(&str) -> String) -> Result<Value> {
    match v {
        Value::Text(s) => Ok(Value::text(f(s))),
        other => Err(PermError::Value(format!("expected text, got {other}"))),
    }
}
