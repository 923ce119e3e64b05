//! Scalar expressions over tuples — selection predicates, projection inputs
//! and join conditions are built from these.

use std::borrow::Cow;
use std::cmp::Ordering;
use std::fmt;
use std::sync::Arc;

use sp_core::{Schema, Tuple, Value};

/// Comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    fn test(self, ord: Ordering) -> bool {
        match self {
            CmpOp::Eq => ord == Ordering::Equal,
            CmpOp::Ne => ord != Ordering::Equal,
            CmpOp::Lt => ord == Ordering::Less,
            CmpOp::Le => ord != Ordering::Greater,
            CmpOp::Gt => ord == Ordering::Greater,
            CmpOp::Ge => ord != Ordering::Less,
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "!=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        })
    }
}

/// Arithmetic operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArithOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
}

impl fmt::Display for ArithOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ArithOp::Add => "+",
            ArithOp::Sub => "-",
            ArithOp::Mul => "*",
            ArithOp::Div => "/",
        })
    }
}

/// A scalar expression evaluated against one tuple.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// The attribute at a positional index.
    Attr(usize),
    /// A constant.
    Const(Value),
    /// Comparison of two sub-expressions (SQL three-valued: incomparable
    /// operands evaluate to false).
    Cmp(CmpOp, Arc<Expr>, Arc<Expr>),
    /// Arithmetic over numerics (`Null` if either side is non-numeric).
    Arith(ArithOp, Arc<Expr>, Arc<Expr>),
    /// Logical conjunction.
    And(Arc<Expr>, Arc<Expr>),
    /// Logical disjunction.
    Or(Arc<Expr>, Arc<Expr>),
    /// Logical negation.
    Not(Arc<Expr>),
}

impl Expr {
    /// `attr op const` shorthand.
    #[must_use]
    pub fn cmp(op: CmpOp, left: Expr, right: Expr) -> Expr {
        Expr::Cmp(op, Arc::new(left), Arc::new(right))
    }

    /// Conjunction shorthand.
    #[must_use]
    pub fn and(left: Expr, right: Expr) -> Expr {
        Expr::And(Arc::new(left), Arc::new(right))
    }

    /// Disjunction shorthand.
    #[must_use]
    pub fn or(left: Expr, right: Expr) -> Expr {
        Expr::Or(Arc::new(left), Arc::new(right))
    }

    /// Negation shorthand.
    #[must_use]
    #[allow(clippy::should_implement_trait)] // associated constructor, not an operator impl
    pub fn not(inner: Expr) -> Expr {
        Expr::Not(Arc::new(inner))
    }

    /// Arithmetic shorthand.
    #[must_use]
    pub fn arith(op: ArithOp, left: Expr, right: Expr) -> Expr {
        Expr::Arith(op, Arc::new(left), Arc::new(right))
    }

    /// Evaluates to a [`Value`].
    #[must_use]
    pub fn eval(&self, tuple: &Tuple) -> Value {
        match self {
            Expr::Attr(i) => tuple.value(*i).cloned().unwrap_or(Value::Null),
            Expr::Const(v) => v.clone(),
            Expr::Cmp(op, l, r) => {
                let (lv, rv) = (l.eval(tuple), r.eval(tuple));
                match lv.compare(&rv) {
                    Some(ord) => Value::Bool(op.test(ord)),
                    None => Value::Bool(false),
                }
            }
            Expr::Arith(op, l, r) => {
                let (lv, rv) = (l.eval(tuple), r.eval(tuple));
                match (lv.as_i64(), rv.as_i64()) {
                    // Integer arithmetic when both sides are ints.
                    (Some(a), Some(b)) => match op {
                        ArithOp::Add => Value::Int(a.wrapping_add(b)),
                        ArithOp::Sub => Value::Int(a.wrapping_sub(b)),
                        ArithOp::Mul => Value::Int(a.wrapping_mul(b)),
                        ArithOp::Div => {
                            if b == 0 {
                                Value::Null
                            } else {
                                Value::Int(a.wrapping_div(b))
                            }
                        }
                    },
                    _ => match (lv.as_f64(), rv.as_f64()) {
                        (Some(a), Some(b)) => match op {
                            ArithOp::Add => Value::Float(a + b),
                            ArithOp::Sub => Value::Float(a - b),
                            ArithOp::Mul => Value::Float(a * b),
                            ArithOp::Div => Value::Float(a / b),
                        },
                        _ => Value::Null,
                    },
                }
            }
            Expr::And(l, r) => Value::Bool(
                l.eval(tuple).as_bool().unwrap_or(false)
                    && r.eval(tuple).as_bool().unwrap_or(false),
            ),
            Expr::Or(l, r) => Value::Bool(
                l.eval(tuple).as_bool().unwrap_or(false)
                    || r.eval(tuple).as_bool().unwrap_or(false),
            ),
            Expr::Not(inner) => Value::Bool(!inner.eval(tuple).as_bool().unwrap_or(false)),
        }
    }

    /// Evaluates as a predicate (`Null`/non-boolean → false), exactly as
    /// `eval(tuple).as_bool().unwrap_or(false)` but without cloning: a
    /// comparison reads its attribute and constant operands in place, and
    /// `AND`/`OR`/`NOT` recurse. Only an arithmetic operand is evaluated.
    #[must_use]
    pub fn test(&self, tuple: &Tuple) -> bool {
        match self {
            Expr::Cmp(op, l, r) => {
                l.operand(tuple).compare(&r.operand(tuple)).is_some_and(|ord| op.test(ord))
            }
            Expr::And(l, r) => l.test(tuple) && r.test(tuple),
            Expr::Or(l, r) => l.test(tuple) || r.test(tuple),
            Expr::Not(inner) => !inner.test(tuple),
            Expr::Attr(_) | Expr::Const(_) | Expr::Arith(..) => {
                self.operand(tuple).as_bool().unwrap_or(false)
            }
        }
    }

    /// The value of this expression as an operand: borrowed from the
    /// tuple or the constant where it can be, evaluated otherwise.
    fn operand<'a>(&'a self, tuple: &'a Tuple) -> Cow<'a, Value> {
        /// What a missing attribute reads as.
        static NULL: Value = Value::Null;
        match self {
            Expr::Attr(i) => Cow::Borrowed(tuple.value(*i).unwrap_or(&NULL)),
            Expr::Const(v) => Cow::Borrowed(v),
            other => Cow::Owned(other.eval(tuple)),
        }
    }

    /// Every attribute index referenced by this expression.
    pub fn referenced_attrs(&self, out: &mut Vec<usize>) {
        match self {
            Expr::Attr(i) => {
                if !out.contains(i) {
                    out.push(*i);
                }
            }
            Expr::Const(_) => {}
            Expr::Cmp(_, l, r) | Expr::Arith(_, l, r) | Expr::And(l, r) | Expr::Or(l, r) => {
                l.referenced_attrs(out);
                r.referenced_attrs(out);
            }
            Expr::Not(inner) => inner.referenced_attrs(out),
        }
    }

    /// Rewrites attribute indices through `mapping` (used when commuting
    /// operators past projections).
    #[must_use]
    pub fn remap_attrs(&self, mapping: &dyn Fn(usize) -> usize) -> Expr {
        match self {
            Expr::Attr(i) => Expr::Attr(mapping(*i)),
            Expr::Const(v) => Expr::Const(v.clone()),
            Expr::Cmp(op, l, r) => {
                Expr::Cmp(*op, Arc::new(l.remap_attrs(mapping)), Arc::new(r.remap_attrs(mapping)))
            }
            Expr::Arith(op, l, r) => {
                Expr::Arith(*op, Arc::new(l.remap_attrs(mapping)), Arc::new(r.remap_attrs(mapping)))
            }
            Expr::And(l, r) => Expr::and(l.remap_attrs(mapping), r.remap_attrs(mapping)),
            Expr::Or(l, r) => Expr::or(l.remap_attrs(mapping), r.remap_attrs(mapping)),
            Expr::Not(inner) => Expr::not(inner.remap_attrs(mapping)),
        }
    }

    /// Renders the expression with attribute names from `schema`.
    #[must_use]
    pub fn display(&self, schema: &Schema) -> String {
        match self {
            Expr::Attr(i) => {
                schema.field(*i).map_or_else(|| format!("#{i}"), |f| f.name.to_string())
            }
            Expr::Const(v) => match v {
                Value::Text(s) => format!("'{s}'"),
                other => other.to_string(),
            },
            Expr::Cmp(op, l, r) => {
                format!("{} {} {}", l.display(schema), op, r.display(schema))
            }
            Expr::Arith(op, l, r) => {
                format!("({} {} {})", l.display(schema), op, r.display(schema))
            }
            Expr::And(l, r) => format!("({} AND {})", l.display(schema), r.display(schema)),
            Expr::Or(l, r) => format!("({} OR {})", l.display(schema), r.display(schema)),
            Expr::Not(inner) => format!("NOT {}", inner.display(schema)),
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;
    use sp_core::{StreamId, Timestamp, TupleId, ValueType};

    fn tup(vals: Vec<Value>) -> Tuple {
        Tuple::new(StreamId(0), TupleId(0), Timestamp(0), vals)
    }

    #[test]
    fn comparisons() {
        let t = tup(vec![Value::Int(5), Value::text("x")]);
        assert!(Expr::cmp(CmpOp::Gt, Expr::Attr(0), Expr::Const(Value::Int(3))).test(&t));
        assert!(Expr::cmp(CmpOp::Le, Expr::Attr(0), Expr::Const(Value::Int(5))).test(&t));
        assert!(Expr::cmp(CmpOp::Eq, Expr::Attr(1), Expr::Const(Value::text("x"))).test(&t));
        assert!(Expr::cmp(CmpOp::Ne, Expr::Attr(1), Expr::Const(Value::text("y"))).test(&t));
        // incomparable -> false
        assert!(!Expr::cmp(CmpOp::Eq, Expr::Attr(1), Expr::Const(Value::Int(1))).test(&t));
        // missing attr -> Null -> false
        assert!(!Expr::cmp(CmpOp::Eq, Expr::Attr(9), Expr::Const(Value::Int(1))).test(&t));
    }

    #[test]
    fn boolean_logic() {
        let t = tup(vec![Value::Int(5)]);
        let gt3 = Expr::cmp(CmpOp::Gt, Expr::Attr(0), Expr::Const(Value::Int(3)));
        let lt4 = Expr::cmp(CmpOp::Lt, Expr::Attr(0), Expr::Const(Value::Int(4)));
        assert!(Expr::or(gt3.clone(), lt4.clone()).test(&t));
        assert!(!Expr::and(gt3.clone(), lt4.clone()).test(&t));
        assert!(Expr::not(lt4).test(&t));
        assert!(Expr::and(gt3.clone(), Expr::not(Expr::not(gt3))).test(&t));
    }

    #[test]
    fn arithmetic() {
        let t = tup(vec![Value::Int(10), Value::Float(2.5)]);
        let sum = Expr::arith(ArithOp::Add, Expr::Attr(0), Expr::Attr(1));
        assert_eq!(sum.eval(&t), Value::Float(12.5));
        let int_div = Expr::arith(ArithOp::Div, Expr::Attr(0), Expr::Const(Value::Int(3)));
        assert_eq!(int_div.eval(&t), Value::Int(3));
        let div0 = Expr::arith(ArithOp::Div, Expr::Attr(0), Expr::Const(Value::Int(0)));
        assert!(div0.eval(&t).is_null());
        let bad = Expr::arith(ArithOp::Mul, Expr::Attr(0), Expr::Const(Value::text("x")));
        assert!(bad.eval(&t).is_null());
        let float_div0 = Expr::arith(ArithOp::Div, Expr::Attr(1), Expr::Const(Value::Float(0.0)));
        assert_eq!(float_div0.eval(&t), Value::Float(f64::INFINITY));
    }

    #[test]
    fn referenced_and_remap() {
        let e = Expr::and(
            Expr::cmp(CmpOp::Eq, Expr::Attr(2), Expr::Attr(0)),
            Expr::cmp(CmpOp::Gt, Expr::Attr(2), Expr::Const(Value::Int(1))),
        );
        let mut attrs = Vec::new();
        e.referenced_attrs(&mut attrs);
        assert_eq!(attrs, vec![2, 0]);
        let remapped = e.remap_attrs(&|i| i + 10);
        let mut attrs2 = Vec::new();
        remapped.referenced_attrs(&mut attrs2);
        assert_eq!(attrs2, vec![12, 10]);
    }

    /// `test` reads operands in place; whatever the expression and the
    /// values — `Null`, `NaN`, text, booleans, missing attributes,
    /// arithmetic operands — it answers what `eval` does.
    #[test]
    fn test_agrees_with_eval_on_random_expressions() {
        use proptest::prelude::*;
        let value = || {
            prop_oneof![
                Just(Value::Null),
                (-3i64..4).prop_map(Value::Int),
                prop_oneof![
                    Just(f64::NAN),
                    Just(-0.0),
                    Just(2.5),
                    (-3i64..4).prop_map(|i| i as f64)
                ]
                .prop_map(Value::Float),
                prop_oneof![Just("a"), Just("b"), Just("")].prop_map(Value::text),
                proptest::bool::ANY.prop_map(Value::Bool),
            ]
        };
        let op = || {
            prop_oneof![
                Just(CmpOp::Eq),
                Just(CmpOp::Ne),
                Just(CmpOp::Lt),
                Just(CmpOp::Le),
                Just(CmpOp::Gt),
                Just(CmpOp::Ge),
            ]
        };
        let arith = || {
            prop_oneof![
                Just(ArithOp::Add),
                Just(ArithOp::Sub),
                Just(ArithOp::Mul),
                Just(ArithOp::Div),
            ]
        };
        // Attribute 4 is past the tuple's end: it reads as `Null`.
        let leaf = prop_oneof![(0usize..5).prop_map(Expr::Attr), value().prop_map(Expr::Const)];
        let expr = leaf.prop_recursive(4, 32, 2, move |inner| {
            prop_oneof![
                (op(), inner.clone(), inner.clone()).prop_map(|(o, l, r)| Expr::cmp(o, l, r)),
                (arith(), inner.clone(), inner.clone()).prop_map(|(o, l, r)| Expr::arith(o, l, r)),
                (inner.clone(), inner.clone()).prop_map(|(l, r)| Expr::and(l, r)),
                (inner.clone(), inner.clone()).prop_map(|(l, r)| Expr::or(l, r)),
                inner.prop_map(Expr::not),
            ]
        });
        proptest!(ProptestConfig::with_cases(2048), |(
            e in expr,
            vals in proptest::collection::vec(value(), 4..5),
        )| {
            let t = tup(vals);
            prop_assert_eq!(e.test(&t), e.eval(&t).as_bool().unwrap_or(false), "{:?}", e);
        });
    }

    #[test]
    fn display_uses_schema_names() {
        let schema = Schema::of("s", &[("x", ValueType::Int), ("y", ValueType::Int)]);
        let e = Expr::cmp(CmpOp::Lt, Expr::Attr(0), Expr::Const(Value::Int(9)));
        assert_eq!(e.display(&schema), "x < 9");
        let txt = Expr::cmp(CmpOp::Eq, Expr::Attr(1), Expr::Const(Value::text("hi")));
        assert_eq!(txt.display(&schema), "y = 'hi'");
    }
}
