//! Scalar expressions and predicates evaluated over tuples.

use crate::error::{RelError, RelResult};
use crate::schema::{DataType, Schema};
use crate::tuple::Tuple;
use crate::value::Value;
use std::fmt;

/// Binary operators usable in expressions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// Equality (SQL `=`, three-valued with NULL).
    Eq,
    /// Inequality (SQL `<>`).
    Neq,
    /// Less-than.
    Lt,
    /// Less-than-or-equal.
    Le,
    /// Greater-than.
    Gt,
    /// Greater-than-or-equal.
    Ge,
    /// Logical AND (three-valued).
    And,
    /// Logical OR (three-valued).
    Or,
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BinOp::Eq => "=",
            BinOp::Neq => "<>",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::And => "AND",
            BinOp::Or => "OR",
        };
        f.write_str(s)
    }
}

/// A scalar expression evaluated against a single tuple.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Reference to a column by name (resolved against the input schema at
    /// evaluation time).
    Column(String),
    /// A literal value.
    Literal(Value),
    /// Binary operation.
    Binary {
        /// Operator.
        op: BinOp,
        /// Left operand.
        left: Box<Expr>,
        /// Right operand.
        right: Box<Expr>,
    },
    /// Logical negation (three-valued: NOT NULL = NULL).
    Not(Box<Expr>),
    /// `expr IN (v1, v2, ...)` membership test against literals.
    InList {
        /// Tested expression.
        expr: Box<Expr>,
        /// Candidate values.
        list: Vec<Value>,
    },
}

impl Expr {
    /// Column reference.
    pub fn col(name: impl Into<String>) -> Expr {
        Expr::Column(name.into())
    }

    /// Literal.
    pub fn lit(v: impl Into<Value>) -> Expr {
        Expr::Literal(v.into())
    }

    /// `self = other`.
    pub fn eq(self, other: Expr) -> Expr {
        self.binary(BinOp::Eq, other)
    }

    /// `self <> other`.
    pub fn neq(self, other: Expr) -> Expr {
        self.binary(BinOp::Neq, other)
    }

    /// `self < other`.
    pub fn lt(self, other: Expr) -> Expr {
        self.binary(BinOp::Lt, other)
    }

    /// `self <= other`.
    pub fn le(self, other: Expr) -> Expr {
        self.binary(BinOp::Le, other)
    }

    /// `self > other`.
    pub fn gt(self, other: Expr) -> Expr {
        self.binary(BinOp::Gt, other)
    }

    /// `self >= other`.
    pub fn ge(self, other: Expr) -> Expr {
        self.binary(BinOp::Ge, other)
    }

    /// `self AND other`.
    pub fn and(self, other: Expr) -> Expr {
        self.binary(BinOp::And, other)
    }

    /// `self OR other`.
    pub fn or(self, other: Expr) -> Expr {
        self.binary(BinOp::Or, other)
    }

    /// `NOT self`.
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Expr {
        Expr::Not(Box::new(self))
    }

    /// `self IN (list)`.
    pub fn in_list(self, list: Vec<Value>) -> Expr {
        Expr::InList {
            expr: Box::new(self),
            list,
        }
    }

    fn binary(self, op: BinOp, other: Expr) -> Expr {
        Expr::Binary {
            op,
            left: Box::new(self),
            right: Box::new(other),
        }
    }

    /// Evaluate against a tuple interpreted under `schema`.
    pub fn eval(&self, tuple: &Tuple, schema: &Schema) -> RelResult<Value> {
        match self {
            Expr::Column(name) => {
                let idx = schema.try_index_of(name)?;
                Ok(*tuple.get(idx))
            }
            Expr::Literal(v) => Ok(*v),
            Expr::Binary { op, left, right } => {
                let l = left.eval(tuple, schema)?;
                let r = right.eval(tuple, schema)?;
                eval_binary(*op, &l, &r)
            }
            Expr::Not(e) => match e.eval(tuple, schema)? {
                Value::Null => Ok(Value::Null),
                v => {
                    let b = v.as_bool().ok_or_else(|| RelError::TypeError {
                        detail: format!("NOT applied to non-boolean `{v}`"),
                    })?;
                    Ok(Value::Bool(!b))
                }
            },
            Expr::InList { expr, list } => {
                let v = expr.eval(tuple, schema)?;
                if v.is_null() {
                    return Ok(Value::Null);
                }
                let found = list.iter().any(|cand| v.sql_eq(cand) == Some(true));
                Ok(Value::Bool(found))
            }
        }
    }

    /// Evaluate as a predicate: NULL and false both reject the tuple
    /// (SQL WHERE semantics).
    pub fn eval_predicate(&self, tuple: &Tuple, schema: &Schema) -> RelResult<bool> {
        match self.eval(tuple, schema)? {
            Value::Null => Ok(false),
            v => v.as_bool().ok_or_else(|| RelError::TypeError {
                detail: format!("predicate evaluated to non-boolean `{v}`"),
            }),
        }
    }

    /// Best-effort static result type (used for projected column naming).
    pub fn result_type(&self, schema: &Schema) -> DataType {
        match self {
            Expr::Column(name) => schema
                .index_of(name)
                .map(|i| schema.field(i).data_type)
                .unwrap_or(DataType::Any),
            Expr::Literal(v) => match v {
                Value::Int(_) => DataType::Int,
                Value::Float(_) => DataType::Float,
                Value::Bool(_) => DataType::Bool,
                Value::Str(_) => DataType::Str,
                Value::Null => DataType::Any,
            },
            Expr::Binary { .. } | Expr::Not(_) | Expr::InList { .. } => DataType::Bool,
        }
    }

    /// A display name for this expression when used as a projected column.
    pub fn display_name(&self) -> String {
        match self {
            Expr::Column(c) => c.clone(),
            other => other.to_string(),
        }
    }
}

fn eval_binary(op: BinOp, l: &Value, r: &Value) -> RelResult<Value> {
    use BinOp::*;
    match op {
        Eq | Neq | Lt | Le | Gt | Ge => {
            let cmp = match l.sql_cmp(r) {
                None => return Ok(Value::Null),
                Some(c) => c,
            };
            let b = match op {
                Eq => cmp == std::cmp::Ordering::Equal,
                Neq => cmp != std::cmp::Ordering::Equal,
                Lt => cmp == std::cmp::Ordering::Less,
                Le => cmp != std::cmp::Ordering::Greater,
                Gt => cmp == std::cmp::Ordering::Greater,
                Ge => cmp != std::cmp::Ordering::Less,
                _ => unreachable!(),
            };
            Ok(Value::Bool(b))
        }
        And => match (l.as_bool(), r.as_bool()) {
            // three-valued logic: false AND anything = false
            (Some(false), _) | (_, Some(false)) => Ok(Value::Bool(false)),
            (Some(true), Some(true)) => Ok(Value::Bool(true)),
            _ if l.is_null() || r.is_null() => Ok(Value::Null),
            _ => Err(RelError::TypeError {
                detail: format!("AND applied to `{l}` and `{r}`"),
            }),
        },
        Or => match (l.as_bool(), r.as_bool()) {
            (Some(true), _) | (_, Some(true)) => Ok(Value::Bool(true)),
            (Some(false), Some(false)) => Ok(Value::Bool(false)),
            _ if l.is_null() || r.is_null() => Ok(Value::Null),
            _ => Err(RelError::TypeError {
                detail: format!("OR applied to `{l}` and `{r}`"),
            }),
        },
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Column(c) => write!(f, "{c}"),
            Expr::Literal(v) => match v {
                Value::Str(s) => write!(f, "'{s}'"),
                other => write!(f, "{other}"),
            },
            Expr::Binary { op, left, right } => write!(f, "({left} {op} {right})"),
            Expr::Not(e) => write!(f, "(NOT {e})"),
            Expr::InList { expr, list } => {
                write!(f, "({expr} IN (")?;
                for (i, v) in list.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, "))")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Field;
    use crate::tuple;

    fn schema() -> Schema {
        Schema::new(vec![
            Field::int("ta"),
            Field::str("operation"),
            Field::int("object"),
            Field::float("weight"),
        ])
    }

    #[test]
    fn column_and_literal_evaluation() {
        let s = schema();
        let t = tuple![7, "w", 42, 0.5];
        assert_eq!(Expr::col("ta").eval(&t, &s).unwrap(), Value::Int(7));
        assert_eq!(Expr::lit(3).eval(&t, &s).unwrap(), Value::Int(3));
        assert!(Expr::col("missing").eval(&t, &s).is_err());
    }

    #[test]
    fn comparison_and_logic() {
        let s = schema();
        let t = tuple![7, "w", 42, 0.5];
        let pred = Expr::col("operation")
            .eq(Expr::lit("w"))
            .and(Expr::col("object").gt(Expr::lit(40)));
        assert!(pred.eval_predicate(&t, &s).unwrap());
        let pred2 = Expr::col("ta")
            .lt(Expr::lit(5))
            .or(Expr::col("ta").ge(Expr::lit(7)));
        assert!(pred2.eval_predicate(&t, &s).unwrap());
        let pred3 = Expr::col("ta").neq(Expr::lit(7));
        assert!(!pred3.eval_predicate(&t, &s).unwrap());
    }

    #[test]
    fn null_propagation_in_where_semantics() {
        let s = Schema::new(vec![Field::int("x")]);
        let t = Tuple::new(vec![Value::Null]);
        // NULL = 1 is NULL, which a WHERE clause treats as rejection.
        let pred = Expr::col("x").eq(Expr::lit(1));
        assert!(!pred.eval_predicate(&t, &s).unwrap());
        // NOT NULL stays NULL -> rejected.
        assert!(!Expr::col("x")
            .eq(Expr::lit(1))
            .not()
            .eval_predicate(&t, &s)
            .unwrap());
    }

    #[test]
    fn in_list_membership() {
        let s = schema();
        let t = tuple![7, "c", 42, 0.5];
        let pred = Expr::col("operation").in_list(vec![Value::str("a"), Value::str("c")]);
        assert!(pred.eval_predicate(&t, &s).unwrap());
        let pred = Expr::col("operation").in_list(vec![Value::str("w")]);
        assert!(!pred.eval_predicate(&t, &s).unwrap());
    }

    #[test]
    fn three_valued_and_or_shortcuts() {
        // false AND NULL = false; true OR NULL = true
        assert_eq!(
            eval_binary(BinOp::And, &Value::Bool(false), &Value::Null).unwrap(),
            Value::Bool(false)
        );
        assert_eq!(
            eval_binary(BinOp::Or, &Value::Bool(true), &Value::Null).unwrap(),
            Value::Bool(true)
        );
        assert_eq!(
            eval_binary(BinOp::And, &Value::Bool(true), &Value::Null).unwrap(),
            Value::Null
        );
    }

    #[test]
    fn display_is_readable_sql_like() {
        let e = Expr::col("op")
            .eq(Expr::lit("w"))
            .and(Expr::col("ta").gt(Expr::lit(3)));
        assert_eq!(e.to_string(), "((op = 'w') AND (ta > 3))");
    }

    #[test]
    fn result_types() {
        let s = schema();
        assert_eq!(Expr::col("ta").result_type(&s), DataType::Int);
        assert_eq!(Expr::col("weight").result_type(&s), DataType::Float);
        assert_eq!(
            Expr::col("ta").eq(Expr::lit(1)).result_type(&s),
            DataType::Bool
        );
        assert_eq!(Expr::lit("x").result_type(&s), DataType::Str);
    }
}
