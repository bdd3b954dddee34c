//! Scalar expression evaluation.
//!
//! NULL handling is simplified two-valued logic: comparisons involving NULL
//! evaluate to NULL, and NULL is treated as *false* in filter position. This
//! matches what the bundled benchmarks require (they never rely on
//! three-valued edge cases).

use bp_storage::Value;

use crate::ast::{BinOp, Expr};
use crate::error::{Result, SqlError};

/// What an expression is evaluated against: the current row — the joined
/// tuple, or a group's representative followed by its aggregate results —
/// and the statement parameters. Column references were resolved to
/// positions in that row when the statement was bound ([`crate::plan`]).
pub struct EvalScope<'a> {
    row: &'a [Value],
    params: &'a [Value],
}

impl<'a> EvalScope<'a> {
    pub fn new(row: &'a [Value], params: &'a [Value]) -> EvalScope<'a> {
        EvalScope { row, params }
    }

    /// No row: literals and parameters only.
    pub fn empty(params: &'a [Value]) -> EvalScope<'a> {
        EvalScope { row: &[], params }
    }

    pub fn param(&self, i: usize) -> Result<Value> {
        self.params
            .get(i)
            .cloned()
            .ok_or(SqlError::ParamCount { expected: i + 1, got: self.params.len() })
    }
}

/// Evaluate an expression to a value. Aggregate nodes are an error here;
/// the executor computes them separately.
pub fn eval(expr: &Expr, scope: &EvalScope<'_>) -> Result<Value> {
    match expr {
        Expr::Lit(v) => Ok(v.clone()),
        Expr::Param(i) => scope.param(*i),
        Expr::Slot(i) => Ok(scope.row[*i].clone()),
        // A reference the binder could not resolve against the statement's
        // tables fails when (and only when) a row reaches it.
        Expr::Column { table: Some(t), name } => {
            Err(SqlError::Binding(format!("{}.{name}", t.to_ascii_lowercase())))
        }
        Expr::Column { table: None, name } => Err(SqlError::Binding(name.clone())),
        Expr::Neg(e) => match eval(e, scope)? {
            Value::Int(i) => Ok(Value::Int(-i)),
            Value::Float(f) => Ok(Value::Float(-f)),
            Value::Null => Ok(Value::Null),
            other => Err(SqlError::Eval(format!("cannot negate {other}"))),
        },
        Expr::Not(e) => match truthy(&eval(e, scope)?) {
            Some(b) => Ok(Value::Bool(!b)),
            None => Ok(Value::Null),
        },
        Expr::IsNull { expr, negated } => {
            let v = eval(expr, scope)?;
            Ok(Value::Bool(v.is_null() != *negated))
        }
        Expr::InList { expr, list, negated } => {
            let v = eval(expr, scope)?;
            if v.is_null() {
                return Ok(Value::Null);
            }
            let mut found = false;
            for item in list {
                let iv = eval(item, scope)?;
                if !iv.is_null() && values_equal(&v, &iv) {
                    found = true;
                    break;
                }
            }
            Ok(Value::Bool(found != *negated))
        }
        Expr::Between { expr, low, high, negated } => {
            let v = eval(expr, scope)?;
            let lo = eval(low, scope)?;
            let hi = eval(high, scope)?;
            if v.is_null() || lo.is_null() || hi.is_null() {
                return Ok(Value::Null);
            }
            let inside = v >= lo && v <= hi;
            Ok(Value::Bool(inside != *negated))
        }
        Expr::Binary { op, left, right } => eval_binary(*op, left, right, scope),
        Expr::Agg { .. } => Err(SqlError::Eval("aggregate in scalar context".into())),
        Expr::Func { name, args } => eval_func(name, args, scope),
    }
}

/// Truthiness for filter position: Bool→bool, NULL→None (filters drop it).
pub fn truthy(v: &Value) -> Option<bool> {
    match v {
        Value::Bool(b) => Some(*b),
        Value::Null => None,
        Value::Int(i) => Some(*i != 0),
        _ => Some(true),
    }
}

/// Evaluate a filter expression; NULL counts as false.
pub fn eval_filter(expr: &Expr, scope: &EvalScope<'_>) -> Result<bool> {
    Ok(truthy(&eval(expr, scope)?).unwrap_or(false))
}

fn values_equal(a: &Value, b: &Value) -> bool {
    a.cmp(b) == std::cmp::Ordering::Equal
}

fn eval_binary(op: BinOp, left: &Expr, right: &Expr, scope: &EvalScope<'_>) -> Result<Value> {
    // Short-circuit logic ops.
    match op {
        BinOp::And => {
            let l = truthy(&eval(left, scope)?);
            if l == Some(false) {
                return Ok(Value::Bool(false));
            }
            let r = truthy(&eval(right, scope)?);
            return Ok(match (l, r) {
                (Some(true), Some(b)) => Value::Bool(b),
                (_, Some(false)) => Value::Bool(false),
                _ => Value::Null,
            });
        }
        BinOp::Or => {
            let l = truthy(&eval(left, scope)?);
            if l == Some(true) {
                return Ok(Value::Bool(true));
            }
            let r = truthy(&eval(right, scope)?);
            return Ok(match (l, r) {
                (Some(false), Some(b)) => Value::Bool(b),
                (_, Some(true)) => Value::Bool(true),
                _ => Value::Null,
            });
        }
        _ => {}
    }

    let l = eval(left, scope)?;
    let r = eval(right, scope)?;
    if l.is_null() || r.is_null() {
        return Ok(Value::Null);
    }

    if op.is_comparison() {
        let ord = l.cmp(&r);
        let b = match op {
            BinOp::Eq => ord == std::cmp::Ordering::Equal,
            BinOp::NotEq => ord != std::cmp::Ordering::Equal,
            BinOp::Lt => ord == std::cmp::Ordering::Less,
            BinOp::LtEq => ord != std::cmp::Ordering::Greater,
            BinOp::Gt => ord == std::cmp::Ordering::Greater,
            BinOp::GtEq => ord != std::cmp::Ordering::Less,
            _ => unreachable!(),
        };
        return Ok(Value::Bool(b));
    }

    match op {
        BinOp::Like => {
            let (Value::Str(s), Value::Str(p)) = (&l, &r) else {
                return Err(SqlError::Eval("LIKE requires strings".into()));
            };
            Ok(Value::Bool(like_match(s.as_bytes(), p.as_bytes())))
        }
        BinOp::Concat => {
            let ls = value_to_text(&l);
            let rs = value_to_text(&r);
            Ok(Value::Str(ls + &rs))
        }
        BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Mod => arith(op, &l, &r),
        _ => unreachable!(),
    }
}

fn value_to_text(v: &Value) -> String {
    match v {
        Value::Str(s) => s.clone(),
        Value::Int(i) => i.to_string(),
        Value::Float(f) => f.to_string(),
        Value::Bool(b) => b.to_string(),
        other => other.to_string(),
    }
}

fn arith(op: BinOp, l: &Value, r: &Value) -> Result<Value> {
    match (l, r) {
        (Value::Int(a), Value::Int(b)) => {
            let a = *a;
            let b = *b;
            let out = match op {
                BinOp::Add => a.checked_add(b).map(Value::Int),
                BinOp::Sub => a.checked_sub(b).map(Value::Int),
                BinOp::Mul => a.checked_mul(b).map(Value::Int),
                BinOp::Div => {
                    if b == 0 {
                        Some(Value::Null)
                    } else {
                        a.checked_div(b).map(Value::Int)
                    }
                }
                BinOp::Mod => {
                    if b == 0 {
                        Some(Value::Null)
                    } else {
                        a.checked_rem(b).map(Value::Int)
                    }
                }
                _ => unreachable!(),
            };
            out.ok_or_else(|| SqlError::Eval("integer overflow".into()))
        }
        _ => {
            let a = l
                .as_float()
                .ok_or_else(|| SqlError::Eval(format!("non-numeric operand {l}")))?;
            let b = r
                .as_float()
                .ok_or_else(|| SqlError::Eval(format!("non-numeric operand {r}")))?;
            let out = match op {
                BinOp::Add => a + b,
                BinOp::Sub => a - b,
                BinOp::Mul => a * b,
                BinOp::Div => {
                    if b == 0.0 {
                        return Ok(Value::Null);
                    }
                    a / b
                }
                BinOp::Mod => {
                    if b == 0.0 {
                        return Ok(Value::Null);
                    }
                    a % b
                }
                _ => unreachable!(),
            };
            Ok(Value::Float(out))
        }
    }
}

/// SQL LIKE with `%` (any sequence) and `_` (any single byte).
pub fn like_match(s: &[u8], p: &[u8]) -> bool {
    if p.is_empty() {
        return s.is_empty();
    }
    match p[0] {
        b'%' => {
            // Collapse consecutive %.
            let rest = &p[1..];
            if rest.is_empty() {
                return true;
            }
            for i in 0..=s.len() {
                if like_match(&s[i..], rest) {
                    return true;
                }
            }
            false
        }
        b'_' => !s.is_empty() && like_match(&s[1..], &p[1..]),
        c => !s.is_empty() && s[0] == c && like_match(&s[1..], &p[1..]),
    }
}

fn eval_func(name: &str, args: &[Expr], scope: &EvalScope<'_>) -> Result<Value> {
    let vals: Vec<Value> = args.iter().map(|a| eval(a, scope)).collect::<Result<_>>()?;
    match name {
        "length" | "len" | "char_length" => match vals.as_slice() {
            [Value::Str(s)] => Ok(Value::Int(s.chars().count() as i64)),
            [Value::Null] => Ok(Value::Null),
            _ => Err(SqlError::Eval("LENGTH requires one string".into())),
        },
        "lower" => match vals.as_slice() {
            [Value::Str(s)] => Ok(Value::Str(s.to_lowercase())),
            [Value::Null] => Ok(Value::Null),
            _ => Err(SqlError::Eval("LOWER requires one string".into())),
        },
        "upper" => match vals.as_slice() {
            [Value::Str(s)] => Ok(Value::Str(s.to_uppercase())),
            [Value::Null] => Ok(Value::Null),
            _ => Err(SqlError::Eval("UPPER requires one string".into())),
        },
        "abs" => match vals.as_slice() {
            [Value::Int(i)] => Ok(Value::Int(i.abs())),
            [Value::Float(f)] => Ok(Value::Float(f.abs())),
            [Value::Null] => Ok(Value::Null),
            _ => Err(SqlError::Eval("ABS requires one number".into())),
        },
        "coalesce" => {
            for v in vals {
                if !v.is_null() {
                    return Ok(v);
                }
            }
            Ok(Value::Null)
        }
        "mod" => match vals.as_slice() {
            [a, b] => arith(BinOp::Mod, a, b),
            _ => Err(SqlError::Eval("MOD requires two arguments".into())),
        },
        "substr" | "substring" => match vals.as_slice() {
            [Value::Str(s), Value::Int(start)] => {
                let start = (*start - 1).max(0) as usize;
                Ok(Value::Str(s.chars().skip(start).collect()))
            }
            [Value::Str(s), Value::Int(start), Value::Int(len)] => {
                let start = (*start - 1).max(0) as usize;
                let len = (*len).max(0) as usize;
                Ok(Value::Str(s.chars().skip(start).take(len).collect()))
            }
            [Value::Null, ..] => Ok(Value::Null),
            _ => Err(SqlError::Eval("SUBSTR requires (string, start[, len])".into())),
        },
        other => Err(SqlError::Unsupported(format!("function {other}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use crate::ast::{SelectItem, Statement};

    fn eval_str(expr_sql: &str, params: &[Value]) -> Result<Value> {
        let stmt = parse(&format!("SELECT {expr_sql}")).unwrap();
        let Statement::Select(sel) = stmt else { panic!() };
        let SelectItem::Expr { expr, .. } = &sel.items[0] else { panic!() };
        let scope = EvalScope::empty(params);
        eval(expr, &scope)
    }

    #[test]
    fn arithmetic() {
        assert_eq!(eval_str("1 + 2 * 3", &[]).unwrap(), Value::Int(7));
        assert_eq!(eval_str("(1 + 2) * 3", &[]).unwrap(), Value::Int(9));
        assert_eq!(eval_str("7 / 2", &[]).unwrap(), Value::Int(3));
        assert_eq!(eval_str("7.0 / 2", &[]).unwrap(), Value::Float(3.5));
        assert_eq!(eval_str("7 % 3", &[]).unwrap(), Value::Int(1));
        assert_eq!(eval_str("-5", &[]).unwrap(), Value::Int(-5));
        assert_eq!(eval_str("1 / 0", &[]).unwrap(), Value::Null);
    }

    #[test]
    fn comparisons() {
        assert_eq!(eval_str("1 < 2", &[]).unwrap(), Value::Bool(true));
        assert_eq!(eval_str("2 <= 2", &[]).unwrap(), Value::Bool(true));
        assert_eq!(eval_str("'a' <> 'b'", &[]).unwrap(), Value::Bool(true));
        assert_eq!(eval_str("1 = 1.0", &[]).unwrap(), Value::Bool(true));
    }

    #[test]
    fn null_propagation() {
        assert_eq!(eval_str("NULL + 1", &[]).unwrap(), Value::Null);
        assert_eq!(eval_str("NULL = NULL", &[]).unwrap(), Value::Null);
        assert_eq!(eval_str("NULL IS NULL", &[]).unwrap(), Value::Bool(true));
        assert_eq!(eval_str("1 IS NOT NULL", &[]).unwrap(), Value::Bool(true));
    }

    #[test]
    fn logic_short_circuit() {
        assert_eq!(eval_str("FALSE AND (1/0 = 1)", &[]).unwrap(), Value::Bool(false));
        assert_eq!(eval_str("TRUE OR (1/0 = 1)", &[]).unwrap(), Value::Bool(true));
        assert_eq!(eval_str("NOT FALSE", &[]).unwrap(), Value::Bool(true));
        assert_eq!(eval_str("NULL AND TRUE", &[]).unwrap(), Value::Null);
        assert_eq!(eval_str("NULL OR TRUE", &[]).unwrap(), Value::Bool(true));
    }

    #[test]
    fn in_and_between() {
        assert_eq!(eval_str("2 IN (1, 2, 3)", &[]).unwrap(), Value::Bool(true));
        assert_eq!(eval_str("5 NOT IN (1, 2)", &[]).unwrap(), Value::Bool(true));
        assert_eq!(eval_str("2 BETWEEN 1 AND 3", &[]).unwrap(), Value::Bool(true));
        assert_eq!(eval_str("0 NOT BETWEEN 1 AND 3", &[]).unwrap(), Value::Bool(true));
    }

    #[test]
    fn like_patterns() {
        assert_eq!(eval_str("'BARBAR' LIKE 'BAR%'", &[]).unwrap(), Value::Bool(true));
        assert_eq!(eval_str("'hello' LIKE 'h_llo'", &[]).unwrap(), Value::Bool(true));
        assert_eq!(eval_str("'hello' LIKE '%ell%'", &[]).unwrap(), Value::Bool(true));
        assert_eq!(eval_str("'hello' NOT LIKE 'x%'", &[]).unwrap(), Value::Bool(true));
        assert_eq!(eval_str("'' LIKE '%'", &[]).unwrap(), Value::Bool(true));
        assert_eq!(eval_str("'abc' LIKE 'abc'", &[]).unwrap(), Value::Bool(true));
        assert_eq!(eval_str("'abc' LIKE 'ab'", &[]).unwrap(), Value::Bool(false));
    }

    #[test]
    fn params() {
        assert_eq!(
            eval_str("? + ?", &[Value::Int(3), Value::Int(4)]).unwrap(),
            Value::Int(7)
        );
        assert!(matches!(
            eval_str("?", &[]).unwrap_err(),
            SqlError::ParamCount { .. }
        ));
    }

    #[test]
    fn functions() {
        assert_eq!(eval_str("LENGTH('abc')", &[]).unwrap(), Value::Int(3));
        assert_eq!(eval_str("LOWER('AbC')", &[]).unwrap(), Value::Str("abc".into()));
        assert_eq!(eval_str("UPPER('x')", &[]).unwrap(), Value::Str("X".into()));
        assert_eq!(eval_str("ABS(-4)", &[]).unwrap(), Value::Int(4));
        assert_eq!(eval_str("COALESCE(NULL, NULL, 5)", &[]).unwrap(), Value::Int(5));
        assert_eq!(eval_str("SUBSTR('hello', 2, 3)", &[]).unwrap(), Value::Str("ell".into()));
        assert_eq!(eval_str("MOD(10, 3)", &[]).unwrap(), Value::Int(1));
        assert_eq!(eval_str("'a' || 'b' || 1", &[]).unwrap(), Value::Str("ab1".into()));
    }

    #[test]
    fn integer_overflow_detected() {
        let e = eval_str("9223372036854775807 + 1", &[]).unwrap_err();
        assert!(matches!(e, SqlError::Eval(_)));
    }
}
