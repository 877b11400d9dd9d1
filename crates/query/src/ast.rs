//! Query AST: select list plus conjunctive comparison predicates.

use udi_store::{like_match, LikePattern, Value};

/// Comparison operators supported in `WHERE` clauses (§7.1: "the operator
/// can be =, ≠, <, ≤, >, ≥ and LIKE").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CompareOp {
    /// `=`
    Eq,
    /// `!=` / `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `LIKE` with `%`/`_` wildcards, case-insensitive.
    Like,
}

impl CompareOp {
    /// Evaluate the operator under SQL three-valued logic: comparisons with
    /// NULL are not satisfied.
    pub fn eval(self, left: &Value, right: &Value) -> bool {
        use std::cmp::Ordering::*;
        if let CompareOp::Like = self {
            if left.is_null() || right.is_null() {
                return false;
            }
            return like_match(&left.to_string(), &right.to_string());
        }
        let Some(ord) = left.sql_cmp(right) else {
            return false;
        };
        match self {
            CompareOp::Eq => ord == Equal,
            CompareOp::Ne => ord != Equal,
            CompareOp::Lt => ord == Less,
            CompareOp::Le => ord != Greater,
            CompareOp::Gt => ord == Greater,
            CompareOp::Ge => ord != Less,
            // Returned early at the top of the function; any ordering here
            // is unreachable, and `false` is the safe SQL answer anyway.
            CompareOp::Like => false,
        }
    }

    /// SQL spelling of the operator.
    pub fn symbol(self) -> &'static str {
        match self {
            CompareOp::Eq => "=",
            CompareOp::Ne => "!=",
            CompareOp::Lt => "<",
            CompareOp::Le => "<=",
            CompareOp::Gt => ">",
            CompareOp::Ge => ">=",
            CompareOp::Like => "LIKE",
        }
    }
}

/// A single predicate `attribute OP literal`.
#[derive(Debug, Clone, PartialEq)]
pub struct Predicate {
    /// Attribute the predicate constrains (a mediated/source attribute name).
    pub attribute: String,
    /// Comparison operator.
    pub op: CompareOp,
    /// Literal right-hand side.
    pub value: Value,
}

impl Predicate {
    /// Construct a predicate.
    pub fn new(attribute: impl Into<String>, op: CompareOp, value: impl Into<Value>) -> Predicate {
        Predicate {
            attribute: attribute.into(),
            op,
            value: value.into(),
        }
    }

    /// This predicate prepared for one scan.
    pub(crate) fn prepare(&self) -> PredicateTest<'_> {
        let like = (self.op == CompareOp::Like && !self.value.is_null())
            .then(|| LikePattern::new(&self.value.to_string()));
        PredicateTest {
            predicate: self,
            like,
        }
    }
}

/// A [`Predicate`] prepared for one scan: a `LIKE` pattern is lowercased
/// once, not once per row, and matched without allocating per cell.
pub(crate) struct PredicateTest<'a> {
    predicate: &'a Predicate,
    like: Option<LikePattern>,
}

impl PredicateTest<'_> {
    /// Whether `cell` satisfies the predicate; always the answer of
    /// [`CompareOp::eval`].
    pub(crate) fn test(&mut self, cell: &Value) -> bool {
        match &mut self.like {
            Some(like) => like.matches_value(cell),
            None => self.predicate.op.eval(cell, &self.predicate.value),
        }
    }
}

/// A select–project query: `SELECT select... FROM <table> WHERE predicates`.
///
/// The `FROM` table name is kept for display but is semantically inert —
/// the paper's mediated schema is a single virtual table.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    /// Projected attributes, in output order.
    pub select: Vec<String>,
    /// Conjunctive predicates.
    pub predicates: Vec<Predicate>,
    /// The (inert) table name from the FROM clause.
    pub from: String,
}

impl Query {
    /// Build a query programmatically.
    pub fn new<I, S>(select: I, predicates: Vec<Predicate>) -> Query
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        Query {
            select: select.into_iter().map(Into::into).collect(),
            predicates,
            from: "T".to_owned(),
        }
    }

    /// Every attribute the query reads, in clause order: one per select
    /// item, then one per predicate.
    fn clause_attributes(&self) -> impl Iterator<Item = &str> {
        let filters = self.predicates.iter().map(|p| p.attribute.as_str());
        self.select.iter().map(String::as_str).chain(filters)
    }

    /// All attribute names the query references (select list then predicate
    /// attributes), deduplicated, in first-appearance order.
    pub fn referenced_attributes(&self) -> Vec<&str> {
        first_appearances(self.clause_attributes())
    }

    /// The table column of every attribute the query reads, in clause
    /// order — one per select item, then one per predicate — as
    /// [`execute`](crate::execute) takes them. `resolve` gives the column
    /// an attribute is bound to; `None` when it leaves any attribute
    /// unbound, because a source cannot answer the query then. This is the
    /// one place a binding meets attribute names.
    pub fn columns(&self, resolve: impl FnMut(&str) -> Option<usize>) -> Option<Vec<usize>> {
        self.clause_attributes().map(resolve).collect()
    }
}

/// `attrs` without repeats, in first-appearance order.
pub(crate) fn first_appearances<'a>(attrs: impl Iterator<Item = &'a str>) -> Vec<&'a str> {
    let mut out: Vec<&str> = Vec::new();
    for a in attrs {
        if !out.contains(&a) {
            out.push(a);
        }
    }
    out
}

impl std::fmt::Display for Query {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SELECT {} FROM {}", self.select.join(", "), self.from)?;
        if !self.predicates.is_empty() {
            let preds: Vec<String> = self
                .predicates
                .iter()
                .map(|p| {
                    let rhs = match &p.value {
                        Value::Text(s) => format!("'{s}'"),
                        v => v.to_string(),
                    };
                    format!("{} {} {}", p.attribute, p.op.symbol(), rhs)
                })
                .collect();
            write!(f, " WHERE {}", preds.join(" AND "))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compare_op_numeric() {
        let a = Value::Int(3);
        let b = Value::Int(5);
        assert!(CompareOp::Lt.eval(&a, &b));
        assert!(CompareOp::Le.eval(&a, &b));
        assert!(CompareOp::Ne.eval(&a, &b));
        assert!(!CompareOp::Gt.eval(&a, &b));
        assert!(!CompareOp::Ge.eval(&a, &b));
        assert!(!CompareOp::Eq.eval(&a, &b));
        assert!(CompareOp::Eq.eval(&a, &Value::Float(3.0)));
    }

    #[test]
    fn compare_op_null_is_never_satisfied() {
        for op in [
            CompareOp::Eq,
            CompareOp::Ne,
            CompareOp::Lt,
            CompareOp::Le,
            CompareOp::Gt,
            CompareOp::Ge,
            CompareOp::Like,
        ] {
            assert!(!op.eval(&Value::Null, &Value::Int(1)), "{op:?}");
            assert!(!op.eval(&Value::Int(1), &Value::Null), "{op:?}");
        }
    }

    #[test]
    fn like_operator_delegates_to_pattern_matching() {
        let txt = Value::text("Data Integration");
        assert!(CompareOp::Like.eval(&txt, &Value::text("%integr%")));
        assert!(!CompareOp::Like.eval(&txt, &Value::text("integr")));
    }

    #[test]
    fn prepared_like_agrees_with_eval() {
        let cells = [
            Value::text("ΟΔΟΣ"),
            Value::text("οδος"),
            Value::text("Silver Metallic"),
            Value::text("né"),
            Value::text(""),
            Value::Int(2024),
            Value::Int(-7),
            Value::Float(2.5),
            Value::Float(2.0),
            Value::Null,
        ];
        let patterns = [
            Value::text("%ς"),
            Value::text("%σ"),
            Value::text("%Σ"),
            Value::text("ΟΔΟΣ"),
            Value::text("%silver%"),
            Value::text("n_"),
            Value::text("_"),
            Value::text("20%"),
            Value::text("2._"),
            Value::text("-_"),
            Value::Int(2),
            Value::Null,
        ];
        for pattern in &patterns {
            let p = Predicate::new("a", CompareOp::Like, pattern.clone());
            let mut test = p.prepare();
            for cell in &cells {
                assert_eq!(
                    test.test(cell),
                    CompareOp::Like.eval(cell, pattern),
                    "{cell:?} LIKE {pattern:?}"
                );
            }
        }
        let like = |cell: Value, pattern: Value| {
            Predicate::new("a", CompareOp::Like, pattern)
                .prepare()
                .test(&cell)
        };
        // `str::to_lowercase` turns a word-final Σ into ς.
        assert!(like(Value::text("ΟΔΟΣ"), Value::text("%ς")));
        assert!(!like(Value::text("ΟΔΟΣ"), Value::text("οδοσ")));
        assert!(like(Value::text("né"), Value::text("n_")));
        assert!(!like(Value::text(""), Value::text("_")));
        assert!(like(Value::Int(2024), Value::text("20%")));
        assert!(like(Value::Float(2.5), Value::text("2._")));
        assert!(like(Value::Float(2.0), Value::Int(2)));
        assert!(!like(Value::text("ΟΔΟΣ"), Value::Null));
    }

    #[test]
    fn referenced_attributes_dedupes_in_order() {
        let q = Query::new(
            ["name", "phone"],
            vec![
                Predicate::new("phone", CompareOp::Eq, "x"),
                Predicate::new("city", CompareOp::Eq, "y"),
            ],
        );
        assert_eq!(q.referenced_attributes(), vec!["name", "phone", "city"]);
    }

    #[test]
    fn display_round_trip_shape() {
        let q = Query::new(
            ["name"],
            vec![Predicate::new("year", CompareOp::Ge, 1990_i64)],
        );
        assert_eq!(q.to_string(), "SELECT name FROM T WHERE year >= 1990");
    }
}
