//! The catalog of registered data sources.

use std::collections::BTreeMap;

use crate::{StoreError, Table};

/// Opaque identifier of a registered source.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SourceId(pub u32);

impl std::fmt::Display for SourceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "S{}", self.0)
    }
}

/// The set of data sources UDI integrates over, plus the attribute universe
/// statistics Algorithm 1 needs:
///
/// - `A = attr(S1) ∪ ... ∪ attr(Sn)` (distinct attribute names), and
/// - `f(a) = |{i | a ∈ Si}| / n`, the fraction of sources containing `a`.
///
/// Sources are one list in registration order; a source's id is its
/// position in that list, so removing a source shifts later ids down by one.
#[derive(Debug, Clone, Default)]
pub struct Catalog {
    tables: Vec<Table>,
    /// attribute name → number of sources whose schema contains it.
    attr_source_counts: BTreeMap<String, usize>,
}

impl Catalog {
    /// Empty catalog.
    pub fn new() -> Catalog {
        Catalog::default()
    }

    /// Register a source table, returning its id.
    ///
    /// Ids are positional `u32`s; once the catalog holds `u32::MAX` sources
    /// the next id cannot be represented, and registration is refused with
    /// [`StoreError::SourceIdOverflow`] *before* any state is touched (the
    /// catalog is unchanged on error).
    pub fn add_source(&mut self, table: Table) -> Result<SourceId, StoreError> {
        let count = self.source_count();
        let id = u32::try_from(count)
            .map(SourceId)
            .map_err(|_| StoreError::SourceIdOverflow(count))?;
        for a in table.attributes() {
            *self.attr_source_counts.entry(a.clone()).or_insert(0) += 1;
        }
        self.tables.push(table);
        Ok(id)
    }

    /// Remove the first source named `name`, returning the dropped table.
    ///
    /// Later source ids shift down by one (ids are positional); attribute
    /// frequencies are updated in place.
    /// `Err(StoreError::UnknownSourceName)` when no source has that name.
    pub fn remove_source(&mut self, name: &str) -> Result<Table, StoreError> {
        let i = self
            .tables
            .iter()
            .position(|t| t.name() == name)
            .ok_or_else(|| StoreError::UnknownSourceName(name.to_owned()))?;
        let table = self.tables.remove(i);
        for a in table.attributes() {
            if let Some(c) = self.attr_source_counts.get_mut(a) {
                *c -= 1;
                if *c == 0 {
                    self.attr_source_counts.remove(a);
                }
            }
        }
        Ok(table)
    }

    /// Number of registered sources.
    pub fn source_count(&self) -> usize {
        self.tables.len()
    }

    /// Total number of rows across all sources.
    pub fn total_rows(&self) -> usize {
        self.tables.iter().map(Table::row_count).sum()
    }

    /// Fetch a source by id.
    pub fn source(&self, id: SourceId) -> Result<&Table, StoreError> {
        self.tables
            .get(id.0 as usize)
            .ok_or(StoreError::UnknownSource(id.0))
    }

    /// Iterate `(id, table)` over all sources.
    pub fn iter_sources(&self) -> impl Iterator<Item = (SourceId, &Table)> {
        self.tables
            .iter()
            .enumerate()
            .map(|(i, t)| (SourceId(i as u32), t))
    }

    /// The distinct attribute names across all sources, in deterministic
    /// (lexicographic) order.
    pub fn attribute_universe(&self) -> impl Iterator<Item = &str> {
        self.attr_source_counts.keys().map(String::as_str)
    }

    /// Attribute name → number of sources whose schema contains it.
    pub fn attr_source_counts(&self) -> &BTreeMap<String, usize> {
        &self.attr_source_counts
    }

    /// Number of distinct attribute names.
    pub fn attribute_count(&self) -> usize {
        self.attr_source_counts.len()
    }

    /// `f(a)`: the fraction of sources whose schema contains `a` (0 when the
    /// catalog is empty or the attribute is unknown).
    pub fn attribute_frequency(&self, attribute: &str) -> f64 {
        let n = self.source_count();
        if n == 0 {
            return 0.0;
        }
        let c = self.attr_source_counts.get(attribute).copied().unwrap_or(0);
        c as f64 / n as f64
    }

    /// The ids of sources whose schema contains `attribute`.
    pub fn sources_with_attribute(&self, attribute: &str) -> Vec<SourceId> {
        self.iter_sources()
            .filter(|(_, t)| t.has_attribute(attribute))
            .map(|(id, _)| id)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.add_source(Table::new("s0", ["name", "phone"])).unwrap();
        c.add_source(Table::new("s1", ["name", "address"])).unwrap();
        c.add_source(Table::new("s2", ["name", "phone", "email"]))
            .unwrap();
        c.add_source(Table::new("s3", ["title"])).unwrap();
        c
    }

    #[test]
    fn frequencies() {
        let c = catalog();
        assert_eq!(c.attribute_frequency("name"), 0.75);
        assert_eq!(c.attribute_frequency("phone"), 0.5);
        assert_eq!(c.attribute_frequency("email"), 0.25);
        assert_eq!(c.attribute_frequency("missing"), 0.0);
    }

    #[test]
    fn universe_is_sorted_and_distinct() {
        let c = catalog();
        let u: Vec<&str> = c.attribute_universe().collect();
        assert_eq!(u, vec!["address", "email", "name", "phone", "title"]);
    }

    #[test]
    fn source_lookup_and_errors() {
        let c = catalog();
        assert_eq!(c.source(SourceId(2)).unwrap().name(), "s2");
        assert!(matches!(
            c.source(SourceId(99)),
            Err(StoreError::UnknownSource(99))
        ));
    }

    #[test]
    fn sources_with_attribute_lists_ids() {
        let c = catalog();
        assert_eq!(
            c.sources_with_attribute("phone"),
            vec![SourceId(0), SourceId(2)]
        );
        assert!(c.sources_with_attribute("zzz").is_empty());
    }

    #[test]
    fn empty_catalog_behaves() {
        let c = Catalog::new();
        assert_eq!(c.source_count(), 0);
        assert_eq!(c.attribute_frequency("x"), 0.0);
        assert_eq!(c.total_rows(), 0);
    }

    #[test]
    fn remove_source_updates_counts() {
        let mut c = catalog();
        let t = c.remove_source("s2").unwrap();
        assert_eq!(t.name(), "s2");
        assert_eq!(c.source_count(), 3);
        assert_eq!(c.attribute_frequency("email"), 0.0);
        assert!(!c.attribute_universe().any(|a| a == "email"));
        assert!((c.attribute_frequency("name") - 2.0 / 3.0).abs() < 1e-12);
        assert!(matches!(
            c.remove_source("nope"),
            Err(StoreError::UnknownSourceName(_))
        ));
    }

    #[test]
    fn display_of_source_id() {
        assert_eq!(SourceId(3).to_string(), "S3");
    }

    // The next three tests predate the flat catalog, when sources were
    // split into shards; the catalog is now a single contiguous range and
    // they check what the shard tests checked of it.

    #[test]
    fn sharding_splits_sources_into_contiguous_ranges() {
        let mut c = Catalog::new();
        for i in 0..5 {
            let id = c.add_source(Table::new(format!("s{i}"), ["name"])).unwrap();
            assert_eq!(id, SourceId(i));
        }
        assert_eq!(c.source(SourceId(3)).unwrap().name(), "s3");
        assert_eq!(
            c.source(SourceId(5)).err(),
            Some(StoreError::UnknownSource(5))
        );
        let ids: Vec<u32> = c.iter_sources().map(|(id, _)| id.0).collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn per_shard_counts_slice_the_global_stat() {
        let mut c = Catalog::new();
        c.add_source(table("a", &["name", "phone"], 2)).unwrap();
        c.add_source(table("b", &["name"], 0)).unwrap();
        c.add_source(table("c", &["phone"], 1)).unwrap();
        // Each source's share of a count is its schema containing the
        // attribute; the shares sum to the catalog-wide count.
        for a in ["name", "phone", "zzz"] {
            let per_source = c.iter_sources().filter(|(_, t)| t.has_attribute(a)).count();
            let global = c.attr_source_counts().get(a).copied().unwrap_or(0);
            assert_eq!(per_source, global, "{a}");
        }
        assert_eq!(c.attr_source_counts().get("name"), Some(&2));
        assert_eq!(c.attr_source_counts().get("phone"), Some(&2));
        assert_eq!(c.total_rows(), 3);
    }

    #[test]
    fn removal_drops_emptied_shards() {
        let mut c = Catalog::new();
        c.add_source(table("a", &["x", "w"], 1)).unwrap();
        c.add_source(table("b", &["y", "w"], 2)).unwrap();
        c.add_source(table("c", &["z"], 0)).unwrap();
        assert_eq!(c.remove_source("b").unwrap().name(), "b");
        assert_eq!(c.source_count(), 2);
        // Ids shifted: "c" is now id 1.
        assert_eq!(c.source(SourceId(1)).unwrap().name(), "c");
        // A count that reaches zero drops its entry; shared ones decrement.
        assert!(!c.attr_source_counts().contains_key("y"));
        assert_eq!(c.attr_source_counts().get("w"), Some(&1));
        assert_eq!(c.total_rows(), 1);
        // A later add takes the next id after the shift.
        assert_eq!(c.add_source(Table::new("d", ["w"])).unwrap(), SourceId(2));
        assert_eq!(c.attr_source_counts().get("w"), Some(&2));
    }

    const NAMES: [&str; 5] = ["a", "b", "c", "d", "e"];
    const ATTRS: [&str; 4] = ["email", "name", "phone", "title"];

    /// One step of a random catalog history.
    #[derive(Debug, Clone)]
    enum Step {
        /// Register `NAMES[name]` with these attributes and this many rows.
        Add(usize, Vec<&'static str>, usize),
        /// Remove by the name of the first (0), a middle (1) or the last
        /// (2) source, or by a name no source has (3).
        Remove(usize),
    }

    /// The naive model: `(name, attributes, rows)` per source, in id order.
    type Model = Vec<(&'static str, Vec<&'static str>, usize)>;

    /// Whether `t` is the model's entry `m`.
    fn is(t: &Table, m: &(&str, Vec<&str>, usize)) -> bool {
        t.name() == m.0 && t.attributes().iter().eq(m.1.iter()) && t.row_count() == m.2
    }

    fn table(name: &str, attrs: &[&str], rows: usize) -> Table {
        let mut t = Table::new(name, attrs.iter().copied());
        for _ in 0..rows {
            t.push_raw_row(attrs.iter().map(|_| "v")).unwrap();
        }
        t
    }

    /// Compare every read of `c` with the model, recounting the model's
    /// statistics from scratch.
    fn assert_matches(c: &Catalog, model: &Model) {
        let n = model.len();
        assert_eq!(c.source_count(), n);
        let ids: Vec<(SourceId, &str)> = c.iter_sources().map(|(id, t)| (id, t.name())).collect();
        let want: Vec<(SourceId, &str)> = (0..n as u32)
            .map(SourceId)
            .zip(model.iter().map(|m| m.0))
            .collect();
        assert_eq!(ids, want);
        for (i, m) in model.iter().enumerate() {
            assert!(is(c.source(SourceId(i as u32)).unwrap(), m), "source {i}");
        }
        assert_eq!(
            c.source(SourceId(n as u32)).err(),
            Some(StoreError::UnknownSource(n as u32))
        );
        let mut counts = BTreeMap::new();
        for a in model.iter().flat_map(|m| &m.1) {
            *counts.entry(a.to_string()).or_insert(0) += 1;
        }
        assert_eq!(c.attr_source_counts(), &counts);
        for a in ATTRS {
            let f = match (n, counts.get(a)) {
                (0, _) | (_, None) => 0.0,
                (_, Some(&k)) => k as f64 / n as f64,
            };
            assert_eq!(c.attribute_frequency(a).to_bits(), f.to_bits(), "f({a})");
        }
        assert_eq!(c.total_rows(), model.iter().map(|m| m.2).sum::<usize>());
    }

    /// Remove `name` from both and check the catalog returns the model's
    /// first source of that name, or `UnknownSourceName` when there is none.
    fn remove(c: &mut Catalog, model: &mut Model, name: &str) {
        let got = c.remove_source(name);
        match model.iter().position(|m| m.0 == name) {
            Some(i) => assert!(is(&got.unwrap(), &model.remove(i))),
            None => assert_eq!(got.err(), Some(StoreError::UnknownSourceName(name.into()))),
        }
    }

    proptest! {
        /// Random add/remove histories agree with the model after every
        /// step: ids stay positional and shift down after a removal, and
        /// the statistics equal a recount. Five names make duplicates
        /// common; the history ends by removing down to empty.
        #[test]
        fn catalog_agrees_with_a_naive_model(
            // `Add` is listed twice so adds outnumber removals 2:1 and
            // histories reach the sizes where first, middle and last differ.
            steps in prop::collection::vec(
                prop_oneof![
                    (0usize..5, prop::sample::subsequence(ATTRS.to_vec(), 1..5), 0usize..3)
                        .prop_map(|(n, a, r)| Step::Add(n, a, r)),
                    (0usize..5, prop::sample::subsequence(ATTRS.to_vec(), 1..5), 0usize..3)
                        .prop_map(|(n, a, r)| Step::Add(n, a, r)),
                    (0usize..4).prop_map(Step::Remove),
                ],
                0..30,
            )
        ) {
            let mut c = Catalog::new();
            let mut model: Model = Vec::new();
            for step in steps {
                match step {
                    Step::Add(name, attrs, rows) => {
                        let id = c.add_source(table(NAMES[name], &attrs, rows)).unwrap();
                        prop_assert_eq!(id, SourceId(model.len() as u32));
                        model.push((NAMES[name], attrs, rows));
                    }
                    Step::Remove(at) => {
                        let name = match (at, model.len()) {
                            (3, _) | (_, 0) => "zz",
                            (0, _) => model[0].0,
                            (1, len) => model[len / 2].0,
                            (_, len) => model[len - 1].0,
                        };
                        remove(&mut c, &mut model, name);
                    }
                }
                assert_matches(&c, &model);
            }
            while let Some(&(name, _, _)) = model.last() {
                remove(&mut c, &mut model, name);
                assert_matches(&c, &model);
            }
        }
    }
}
