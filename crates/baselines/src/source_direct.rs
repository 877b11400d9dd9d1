//! The `Source` baseline of §7.3: pose the query directly on every source
//! that contains all the query's attributes, union the answers.

use udi_query::{AnswerSet, Query, SourceAccumulator};
use udi_store::Catalog;

use crate::Integrator;

/// "The second alternative approach, `Source`, answers Q directly on every
/// data source that contains all the attributes in Q, and takes the union
/// of returned answers."
///
/// In essence this considers only attribute-identity mappings, so it misses
/// every answer that needs an actual match (`phone-no` ≠ `phone`) — high
/// precision, low recall. Its precision dips below 1 only through artifacts
/// like the Course domain's string-typed numeric comparisons, which this
/// substrate reproduces.
pub struct SourceDirect<'a> {
    catalog: &'a Catalog,
}

impl<'a> SourceDirect<'a> {
    /// Wrap a catalog.
    pub fn new(catalog: &'a Catalog) -> Self {
        SourceDirect { catalog }
    }
}

impl Integrator for SourceDirect<'_> {
    fn name(&self) -> &'static str {
        "Source"
    }

    fn answer(&self, query: &Query) -> AnswerSet {
        let mut set = AnswerSet::new();
        for (sid, table) in self.catalog.iter_sources() {
            // The identity binding: a source lacking a query attribute
            // cannot answer.
            let Some(columns) = query.columns(|a| table.attribute_index(a)) else {
                continue;
            };
            let mut acc = SourceAccumulator::new();
            acc.add_select(table, query, &columns, 1.0);
            set.add_source(sid, acc.finish().to_tuples());
        }
        set
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use udi_query::parse_query;
    use udi_store::{Table, Value};

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        let mut t0 = Table::new("s0", ["name", "phone"]);
        t0.push_raw_row(["Alice", "123"]).unwrap();
        c.add_source(t0).unwrap();
        let mut t1 = Table::new("s1", ["name", "phone-no"]);
        t1.push_raw_row(["Bob", "456"]).unwrap();
        c.add_source(t1).unwrap();
        c
    }

    #[test]
    fn answers_only_from_exact_attribute_sources() {
        let c = catalog();
        let s = SourceDirect::new(&c);
        let q = parse_query("SELECT name, phone FROM t").unwrap();
        let ans = s.answer(&q);
        // Only s0 has the literal attribute `phone`: Bob is missed (the
        // low-recall behaviour of the baseline).
        assert_eq!(ans.len(), 1);
        assert_eq!(ans.flat()[0].values[0], Value::text("Alice"));
        assert_eq!(ans.flat()[0].probability, 1.0);
    }

    #[test]
    fn predicates_apply() {
        let c = catalog();
        let s = SourceDirect::new(&c);
        let q = parse_query("SELECT name FROM t WHERE phone = '999'").unwrap();
        assert!(s.answer(&q).is_empty());
    }

    #[test]
    fn stringly_numeric_artifact_lowers_precision() {
        // A source storing a number as text answers `> 30` wrongly for "9".
        let mut c = Catalog::new();
        let mut t = Table::new("course", ["title", "enrollment"]);
        t.push_row(vec![Value::text("Algebra"), Value::text("9")])
            .unwrap();
        t.push_row(vec![Value::text("Calculus"), Value::Int(45)])
            .unwrap();
        c.add_source(t).unwrap();
        let s = SourceDirect::new(&c);
        let q = parse_query("SELECT title FROM t WHERE enrollment > 30").unwrap();
        let names: Vec<String> = s
            .answer(&q)
            .flat()
            .iter()
            .map(|t| t.values[0].to_string())
            .collect();
        // "9" > 30 lexicographically: the incorrect answer appears.
        assert!(names.contains(&"Algebra".to_owned()));
        assert!(names.contains(&"Calculus".to_owned()));
    }
}
