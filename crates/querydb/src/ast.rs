//! Abstract syntax of the mini statistical query language.

use std::cmp::Ordering;
use std::fmt;
use tdf_microdata::Value;

/// Aggregate functions supported by the engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Aggregate {
    /// `COUNT(*)`.
    Count,
    /// `SUM(attr)`.
    Sum(String),
    /// `AVG(attr)`.
    Avg(String),
    /// `MIN(attr)`.
    Min(String),
    /// `MAX(attr)`.
    Max(String),
}

impl Aggregate {
    /// The attribute the aggregate reads, if any.
    pub fn attribute(&self) -> Option<&str> {
        match self {
            Aggregate::Count => None,
            Aggregate::Sum(a) | Aggregate::Avg(a) | Aggregate::Min(a) | Aggregate::Max(a) => {
                Some(a)
            }
        }
    }
}

/// Comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `=`
    Eq,
    /// `!=`
    Ne,
}

impl CmpOp {
    /// True when a cell that orders `ord` against the literal (under
    /// `Value::total_cmp`) satisfies the comparison.
    pub fn holds(self, ord: Ordering) -> bool {
        match self {
            CmpOp::Lt => ord.is_lt(),
            CmpOp::Le => ord.is_le(),
            CmpOp::Gt => ord.is_gt(),
            CmpOp::Ge => ord.is_ge(),
            CmpOp::Eq => ord.is_eq(),
            CmpOp::Ne => ord.is_ne(),
        }
    }
}

/// A selection predicate.
#[derive(Debug, Clone, PartialEq)]
pub enum Predicate {
    /// Always true (no WHERE clause).
    True,
    /// Attribute comparison against a literal.
    Cmp {
        /// Attribute name.
        attribute: String,
        /// Operator.
        op: CmpOp,
        /// Literal value.
        literal: Value,
    },
    /// Conjunction.
    And(Box<Predicate>, Box<Predicate>),
    /// Disjunction.
    Or(Box<Predicate>, Box<Predicate>),
    /// Negation.
    Not(Box<Predicate>),
    /// Set membership: `attribute IN (v1, v2, …)`.
    In {
        /// Attribute name.
        attribute: String,
        /// Accepted values.
        values: Vec<Value>,
    },
}

impl Predicate {
    /// Convenience conjunction.
    pub fn and(self, other: Predicate) -> Predicate {
        Predicate::And(Box::new(self), Box::new(other))
    }

    /// Convenience disjunction.
    pub fn or(self, other: Predicate) -> Predicate {
        Predicate::Or(Box::new(self), Box::new(other))
    }

    /// Convenience negation (a DSL builder, deliberately named like SQL's
    /// `NOT` rather than implementing `std::ops::Not`).
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Predicate {
        Predicate::Not(Box::new(self))
    }

    /// Convenience comparison.
    pub fn cmp(attribute: impl Into<String>, op: CmpOp, literal: impl Into<Value>) -> Predicate {
        Predicate::Cmp {
            attribute: attribute.into(),
            op,
            literal: literal.into(),
        }
    }

    /// Convenience range: `lo <= attribute <= hi` (SQL `BETWEEN`).
    pub fn between(
        attribute: impl Into<String> + Clone,
        lo: impl Into<Value>,
        hi: impl Into<Value>,
    ) -> Predicate {
        Predicate::cmp(attribute.clone(), CmpOp::Ge, lo).and(Predicate::cmp(
            attribute,
            CmpOp::Le,
            hi,
        ))
    }
}

/// A full statistical query.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    /// The aggregate to compute.
    pub aggregate: Aggregate,
    /// The selection predicate.
    pub predicate: Predicate,
}

impl fmt::Display for Aggregate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Aggregate::Count => write!(f, "COUNT(*)"),
            Aggregate::Sum(a) => write!(f, "SUM({a})"),
            Aggregate::Avg(a) => write!(f, "AVG({a})"),
            Aggregate::Min(a) => write!(f, "MIN({a})"),
            Aggregate::Max(a) => write!(f, "MAX({a})"),
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
            CmpOp::Eq => "=",
            CmpOp::Ne => "!=",
        };
        write!(f, "{s}")
    }
}

impl fmt::Display for Predicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Predicate::True => write!(f, "TRUE"),
            Predicate::Cmp {
                attribute,
                op,
                literal,
            } => write!(f, "{attribute} {op} {literal}"),
            Predicate::And(a, b) => write!(f, "({a} AND {b})"),
            Predicate::Or(a, b) => write!(f, "({a} OR {b})"),
            Predicate::Not(p) => write!(f, "(NOT {p})"),
            Predicate::In { attribute, values } => {
                let list: Vec<String> = values
                    .iter()
                    .map(|v| match v {
                        Value::Str(s) => format!("'{s}'"),
                        other => other.to_string(),
                    })
                    .collect();
                write!(f, "{attribute} IN ({})", list.join(", "))
            }
        }
    }
}

impl fmt::Display for Query {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.predicate == Predicate::True {
            write!(f, "SELECT {} FROM t", self.aggregate)
        } else {
            write!(
                f,
                "SELECT {} FROM t WHERE {}",
                self.aggregate, self.predicate
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_round_trips_visually() {
        let q = Query {
            aggregate: Aggregate::Avg("blood_pressure".into()),
            predicate: Predicate::cmp("height", CmpOp::Lt, 165.0).and(Predicate::cmp(
                "weight",
                CmpOp::Gt,
                105.0,
            )),
        };
        let s = q.to_string();
        assert!(s.contains("AVG(blood_pressure)"));
        assert!(s.contains("height < 165"));
        assert!(s.contains("AND"));
    }
}
