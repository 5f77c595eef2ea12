//! Static typing of bound expressions.

use perm_types::{DataType, PermError, Result, Schema};

use crate::expr::{AggCall, AggFunc, BinOp, ScalarExpr, ScalarFunc, SubqueryKind, UnOp};

/// Compute the static type of a bound expression over `schema`, the input
/// relation's schema. A [`ScalarExpr::Param`] carries its own type, so a
/// sublink body needs no enclosing scope; a sublink's operand and
/// `outer_refs` are checked against `schema`.
pub fn expr_type(expr: &ScalarExpr, schema: &Schema) -> Result<DataType> {
    match expr {
        ScalarExpr::Literal(v) => Ok(v.data_type()),
        ScalarExpr::Column(i) => {
            if *i >= schema.len() {
                return Err(PermError::Analysis(format!(
                    "column position {i} out of range ({} columns)",
                    schema.len()
                )));
            }
            Ok(schema.column(*i).ty)
        }
        ScalarExpr::Param { ty, .. } => Ok(*ty),
        ScalarExpr::Binary { op, left, right } => {
            let lt = expr_type(left, schema)?;
            let rt = expr_type(right, schema)?;
            binary_type(*op, lt, rt)
        }
        ScalarExpr::Unary { op, expr } => {
            let t = expr_type(expr, schema)?;
            match op {
                UnOp::Not => expect_bool(t, "NOT"),
                UnOp::Neg => {
                    if t.is_numeric() || t == DataType::Unknown {
                        Ok(t)
                    } else {
                        Err(PermError::Analysis(format!("cannot negate {t}")))
                    }
                }
            }
        }
        ScalarExpr::IsNull { expr, .. } => {
            expr_type(expr, schema)?;
            Ok(DataType::Bool)
        }
        ScalarExpr::Like { expr, pattern, .. } => {
            let et = expr_type(expr, schema)?;
            let pt = expr_type(pattern, schema)?;
            for t in [et, pt] {
                if t != DataType::Text && t != DataType::Unknown {
                    return Err(PermError::Analysis(format!("LIKE requires text, got {t}")));
                }
            }
            Ok(DataType::Bool)
        }
        ScalarExpr::InList { expr, list, .. } => {
            let mut t = expr_type(expr, schema)?;
            for e in list {
                t = t.unify(expr_type(e, schema)?)?;
            }
            Ok(DataType::Bool)
        }
        ScalarExpr::Case {
            operand,
            branches,
            else_branch,
        } => {
            let op_ty = operand.as_ref().map(|o| expr_type(o, schema)).transpose()?;
            let mut result_ty = DataType::Unknown;
            for (cond, res) in branches {
                let ct = expr_type(cond, schema)?;
                match op_ty {
                    // `CASE x WHEN v …` compares x with v.
                    Some(ot) => {
                        ot.unify(ct)?;
                    }
                    None => {
                        expect_bool(ct, "CASE WHEN")?;
                    }
                }
                result_ty = result_ty.unify(expr_type(res, schema)?)?;
            }
            if let Some(e) = else_branch {
                result_ty = result_ty.unify(expr_type(e, schema)?)?;
            }
            Ok(result_ty)
        }
        ScalarExpr::Cast { expr, ty } => {
            expr_type(expr, schema)?;
            Ok(*ty)
        }
        ScalarExpr::ScalarFn { func, args } => {
            let (min, max) = func.arity();
            if args.len() < min || args.len() > max {
                return Err(PermError::Analysis(format!(
                    "{} expects {} arguments, got {}",
                    func.name(),
                    if min == max {
                        min.to_string()
                    } else if max == usize::MAX {
                        format!("at least {min}")
                    } else {
                        format!("{min}..{max}")
                    },
                    args.len()
                )));
            }
            let arg_tys: Vec<DataType> = args
                .iter()
                .map(|a| expr_type(a, schema))
                .collect::<Result<_>>()?;
            scalar_fn_type(*func, &arg_tys)
        }
        ScalarExpr::Subquery(sq) => {
            for e in sq.operand.as_deref().into_iter().chain(&sq.outer_refs) {
                expr_type(e, schema)?;
            }
            match sq.kind {
                SubqueryKind::Scalar => {
                    let sub_schema = sq.plan.schema();
                    if sub_schema.len() != 1 {
                        return Err(PermError::Analysis(format!(
                            "scalar subquery must return one column, returns {}",
                            sub_schema.len()
                        )));
                    }
                    Ok(sub_schema.column(0).ty)
                }
                SubqueryKind::Exists | SubqueryKind::In => Ok(DataType::Bool),
            }
        }
    }
}

fn expect_bool(t: DataType, ctx: &str) -> Result<DataType> {
    if t == DataType::Bool || t == DataType::Unknown {
        Ok(DataType::Bool)
    } else {
        Err(PermError::Analysis(format!("{ctx} requires bool, got {t}")))
    }
}

fn binary_type(op: BinOp, lt: DataType, rt: DataType) -> Result<DataType> {
    if op.is_logical() {
        expect_bool(lt, op.sql())?;
        expect_bool(rt, op.sql())?;
        return Ok(DataType::Bool);
    }
    if op.is_comparison() {
        lt.unify(rt)
            .map_err(|_| PermError::Analysis(format!("cannot compare {lt} {} {rt}", op.sql())))?;
        return Ok(DataType::Bool);
    }
    match op {
        BinOp::Concat => Ok(DataType::Text),
        BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Mod => {
            let t = lt.unify(rt).map_err(|_| {
                PermError::Analysis(format!("cannot apply {} to {lt} and {rt}", op.sql()))
            })?;
            if t.is_numeric() || t == DataType::Unknown {
                Ok(t)
            } else {
                Err(PermError::Analysis(format!(
                    "arithmetic requires numbers, got {t}"
                )))
            }
        }
        _ => unreachable!("comparisons and logicals handled above"),
    }
}

fn scalar_fn_type(func: ScalarFunc, args: &[DataType]) -> Result<DataType> {
    use ScalarFunc::*;
    let expect_text = |t: DataType| -> Result<()> {
        if t == DataType::Text || t == DataType::Unknown {
            Ok(())
        } else {
            Err(PermError::Analysis(format!(
                "{} requires text, got {t}",
                func.name()
            )))
        }
    };
    Ok(match func {
        Upper | Lower | Trim => {
            expect_text(args[0])?;
            DataType::Text
        }
        Replace => {
            for &a in args {
                expect_text(a)?;
            }
            DataType::Text
        }
        Substr => {
            expect_text(args[0])?;
            for &a in &args[1..] {
                if !a.is_numeric() && a != DataType::Unknown {
                    return Err(PermError::Analysis(format!(
                        "substr() positions must be numbers, got {a}"
                    )));
                }
            }
            DataType::Text
        }
        Length => {
            expect_text(args[0])?;
            DataType::Int
        }
        Abs | Round | Floor | Ceil => {
            let t = args[0];
            if !t.is_numeric() && t != DataType::Unknown {
                return Err(PermError::Analysis(format!(
                    "{} requires a number, got {t}",
                    func.name()
                )));
            }
            if func == Round && args.len() == 2 {
                DataType::Float
            } else {
                t
            }
        }
        Coalesce | Greatest | Least => {
            let mut t = DataType::Unknown;
            for &a in args {
                t = t.unify(a)?;
            }
            t
        }
        NullIf => args[0].unify(args[1])?,
    })
}

/// Result type of an aggregate call given its argument type.
pub fn agg_type(call: &AggCall, schema: &Schema) -> Result<DataType> {
    let arg_ty = call
        .arg
        .as_ref()
        .map(|a| expr_type(a, schema))
        .transpose()?;
    Ok(match call.func {
        AggFunc::Count => DataType::Int,
        AggFunc::Sum => match arg_ty.expect("sum has an argument") {
            DataType::Int => DataType::Int,
            DataType::Float | DataType::Unknown => DataType::Float,
            t => {
                return Err(PermError::Analysis(format!(
                    "sum() requires numbers, got {t}"
                )));
            }
        },
        AggFunc::Avg => {
            let t = arg_ty.expect("avg has an argument");
            if !t.is_numeric() && t != DataType::Unknown {
                return Err(PermError::Analysis(format!(
                    "avg() requires numbers, got {t}"
                )));
            }
            DataType::Float
        }
        AggFunc::Min | AggFunc::Max | AggFunc::AnyValue => {
            arg_ty.expect("min/max/any_value has an argument")
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use perm_types::{Column, Value};

    fn schema() -> Schema {
        Schema::new(vec![
            Column::new("i", DataType::Int),
            Column::new("t", DataType::Text),
            Column::new("b", DataType::Bool),
            Column::new("f", DataType::Float),
        ])
    }

    fn ty(e: &ScalarExpr) -> Result<DataType> {
        expr_type(e, &schema())
    }

    #[test]
    fn columns_and_literals() {
        assert_eq!(ty(&ScalarExpr::Column(0)).unwrap(), DataType::Int);
        assert_eq!(ty(&ScalarExpr::Column(1)).unwrap(), DataType::Text);
        assert!(ty(&ScalarExpr::Column(9)).is_err());
        assert_eq!(
            ty(&ScalarExpr::Literal(Value::Null)).unwrap(),
            DataType::Unknown
        );
    }

    #[test]
    fn arithmetic_widens() {
        let e = ScalarExpr::binary(BinOp::Add, ScalarExpr::Column(0), ScalarExpr::Column(3));
        assert_eq!(ty(&e).unwrap(), DataType::Float);
        let bad = ScalarExpr::binary(BinOp::Add, ScalarExpr::Column(0), ScalarExpr::Column(1));
        assert!(ty(&bad).is_err());
    }

    #[test]
    fn comparisons_are_bool_and_need_compatible_sides() {
        let e = ScalarExpr::eq(ScalarExpr::Column(0), ScalarExpr::Column(3));
        assert_eq!(ty(&e).unwrap(), DataType::Bool);
        let bad = ScalarExpr::eq(ScalarExpr::Column(0), ScalarExpr::Column(1));
        assert!(ty(&bad).is_err());
    }

    #[test]
    fn logical_ops_require_bool() {
        let ok = ScalarExpr::binary(BinOp::And, ScalarExpr::Column(2), ScalarExpr::Column(2));
        assert_eq!(ty(&ok).unwrap(), DataType::Bool);
        let bad = ScalarExpr::binary(BinOp::And, ScalarExpr::Column(0), ScalarExpr::Column(2));
        assert!(ty(&bad).is_err());
    }

    #[test]
    fn case_branches_unify() {
        let e = ScalarExpr::Case {
            operand: None,
            branches: vec![(ScalarExpr::Column(2), ScalarExpr::Column(0))],
            else_branch: Some(Box::new(ScalarExpr::Column(3))),
        };
        assert_eq!(ty(&e).unwrap(), DataType::Float);
        let bad = ScalarExpr::Case {
            operand: None,
            branches: vec![(ScalarExpr::Column(2), ScalarExpr::Column(0))],
            else_branch: Some(Box::new(ScalarExpr::Column(1))),
        };
        assert!(ty(&bad).is_err());
    }

    #[test]
    fn scalar_function_arity_is_checked() {
        let bad = ScalarExpr::ScalarFn {
            func: ScalarFunc::Upper,
            args: vec![],
        };
        assert!(ty(&bad).is_err());
        let ok = ScalarExpr::ScalarFn {
            func: ScalarFunc::Coalesce,
            args: vec![ScalarExpr::Column(0), ScalarExpr::Literal(Value::Int(0))],
        };
        assert_eq!(ty(&ok).unwrap(), DataType::Int);
    }

    #[test]
    fn params_are_typed_by_themselves() {
        let e = ScalarExpr::Param {
            index: 3,
            ty: DataType::Text,
        };
        assert_eq!(ty(&e).unwrap(), DataType::Text);
    }

    #[test]
    fn aggregate_types() {
        let count = AggCall {
            func: AggFunc::Count,
            arg: None,
            distinct: false,
        };
        assert_eq!(agg_type(&count, &schema()).unwrap(), DataType::Int);
        let sum_int = AggCall {
            func: AggFunc::Sum,
            arg: Some(ScalarExpr::Column(0)),
            distinct: false,
        };
        assert_eq!(agg_type(&sum_int, &schema()).unwrap(), DataType::Int);
        let avg = AggCall {
            func: AggFunc::Avg,
            arg: Some(ScalarExpr::Column(0)),
            distinct: false,
        };
        assert_eq!(agg_type(&avg, &schema()).unwrap(), DataType::Float);
        let bad = AggCall {
            func: AggFunc::Sum,
            arg: Some(ScalarExpr::Column(1)),
            distinct: false,
        };
        assert!(agg_type(&bad, &schema()).is_err());
    }
}
