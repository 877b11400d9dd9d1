//! The catalog of registered data sources, organized into shards.

use std::collections::BTreeMap;
use std::ops::Range;

use crate::{Shard, StoreError, Table};

/// Default number of sources per shard. Small enough that an incremental
/// `add_source` touches a bounded slice, large enough that shard overhead
/// is negligible at paper scale (≤ 817 sources is a single shard).
pub const DEFAULT_SHARD_CAPACITY: usize = 1024;

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
/// Sources are stored in contiguous [`Shard`]s of at most
/// [`Catalog::shard_capacity`] tables each. Ids stay positional across the
/// whole catalog (shard boundaries are invisible to id-based lookups); the
/// shard structure exists so that scans, artifact building, and incremental
/// updates can operate on bounded, independently parallelizable slices.
#[derive(Debug, Clone)]
pub struct Catalog {
    shards: Vec<Shard>,
    shard_capacity: usize,
    /// attribute name → number of sources whose schema contains it
    /// (catalog-wide; each shard holds its own slice of the same stat).
    attr_source_counts: BTreeMap<String, usize>,
}

impl Default for Catalog {
    fn default() -> Catalog {
        Catalog {
            shards: Vec::new(),
            shard_capacity: DEFAULT_SHARD_CAPACITY,
            attr_source_counts: BTreeMap::new(),
        }
    }
}

impl Catalog {
    /// Empty catalog with the default shard capacity.
    pub fn new() -> Catalog {
        Catalog::default()
    }

    /// Empty catalog whose shards hold at most `capacity` sources each.
    /// A capacity of 0 is treated as 1.
    pub fn with_shard_capacity(capacity: usize) -> Catalog {
        Catalog {
            shard_capacity: capacity.max(1),
            ..Catalog::default()
        }
    }

    /// Sources per shard.
    pub fn shard_capacity(&self) -> usize {
        self.shard_capacity
    }

    /// Resolve an id to `(shard index, local index)`.
    fn locate(&self, id: usize) -> Option<(usize, usize)> {
        let mut start = 0;
        for (si, shard) in self.shards.iter().enumerate() {
            if id < start + shard.len() {
                return Some((si, id - start));
            }
            start += shard.len();
        }
        None
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
        let needs_new = self
            .shards
            .last()
            .is_none_or(|s| s.len() >= self.shard_capacity);
        if needs_new {
            self.shards.push(Shard::new());
        }
        if let Some(last) = self.shards.last_mut() {
            last.push(table);
        }
        Ok(id)
    }

    /// Remove the source named `name`, returning the dropped table.
    ///
    /// Later source ids shift down by one (ids are positional); attribute
    /// frequencies are updated in place, and a shard emptied by the removal
    /// is dropped so shard ranges stay contiguous.
    /// `Err(StoreError::UnknownSourceName)` when no source has that name.
    pub fn remove_source(&mut self, name: &str) -> Result<Table, StoreError> {
        let (si, local) = self
            .shards
            .iter()
            .enumerate()
            .find_map(|(si, s)| {
                s.tables()
                    .iter()
                    .position(|t| t.name() == name)
                    .map(|local| (si, local))
            })
            .ok_or_else(|| StoreError::UnknownSourceName(name.to_owned()))?;
        let Some(shard) = self.shards.get_mut(si) else {
            return Err(StoreError::UnknownSourceName(name.to_owned()));
        };
        let table = shard.remove(local);
        if shard.is_empty() {
            self.shards.remove(si);
        }
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
        self.shards.iter().map(Shard::len).sum()
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shards, in source-id order.
    pub fn shards(&self) -> &[Shard] {
        &self.shards
    }

    /// Fetch a shard by index.
    pub fn shard(&self, idx: usize) -> Option<&Shard> {
        self.shards.get(idx)
    }

    /// The contiguous source-id range covered by each shard, in order.
    /// Ranges partition `0..source_count()`.
    pub fn shard_ranges(&self) -> Vec<Range<usize>> {
        let mut start = 0;
        self.shards
            .iter()
            .map(|s| {
                let r = start..start + s.len();
                start += s.len();
                r
            })
            .collect()
    }

    /// The index of the shard holding `id`, if the id is registered.
    pub fn shard_of(&self, id: SourceId) -> Option<usize> {
        self.locate(id.0 as usize).map(|(si, _)| si)
    }

    /// Total number of rows across all sources.
    pub fn total_rows(&self) -> usize {
        self.shards.iter().map(Shard::row_count).sum()
    }

    /// Fetch a source by id.
    pub fn source(&self, id: SourceId) -> Result<&Table, StoreError> {
        self.locate(id.0 as usize)
            .and_then(|(si, local)| self.shards.get(si)?.table(local))
            .ok_or(StoreError::UnknownSource(id.0))
    }

    /// Iterate `(id, table)` over all sources.
    pub fn iter_sources(&self) -> impl Iterator<Item = (SourceId, &Table)> {
        self.shards
            .iter()
            .flat_map(|s| s.tables().iter())
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

    /// Attributes whose frequency is at least `theta`, in lexicographic
    /// order (Algorithm 1 step 3).
    pub fn frequent_attributes(&self, theta: f64) -> Vec<String> {
        let n = self.source_count();
        self.attr_source_counts
            .iter()
            .filter(|(_, &c)| n != 0 && c as f64 / n as f64 >= theta)
            .map(|(a, _)| a.clone())
            .collect()
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
    fn frequent_attribute_filter() {
        let c = catalog();
        assert_eq!(
            c.frequent_attributes(0.5),
            vec!["name".to_string(), "phone".to_string()]
        );
        assert_eq!(c.frequent_attributes(0.76), vec![] as Vec<String>);
        // Threshold 0 admits everything.
        assert_eq!(c.frequent_attributes(0.0).len(), 5);
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
        assert!(c.frequent_attributes(0.0).is_empty());
        assert_eq!(c.total_rows(), 0);
        assert_eq!(c.shard_count(), 0);
        assert!(c.shard_ranges().is_empty());
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

    #[test]
    fn sharding_splits_sources_into_contiguous_ranges() {
        let mut c = Catalog::with_shard_capacity(2);
        for i in 0..5 {
            c.add_source(Table::new(format!("s{i}"), ["name"])).unwrap();
        }
        assert_eq!(c.shard_count(), 3);
        assert_eq!(c.shard_ranges(), vec![0..2, 2..4, 4..5]);
        assert_eq!(c.shard_of(SourceId(0)), Some(0));
        assert_eq!(c.shard_of(SourceId(3)), Some(1));
        assert_eq!(c.shard_of(SourceId(4)), Some(2));
        assert_eq!(c.shard_of(SourceId(5)), None);
        // Id-based access is oblivious to shard boundaries.
        assert_eq!(c.source(SourceId(3)).unwrap().name(), "s3");
        let ids: Vec<u32> = c.iter_sources().map(|(id, _)| id.0).collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn per_shard_counts_slice_the_global_stat() {
        let mut c = Catalog::with_shard_capacity(2);
        c.add_source(Table::new("a", ["name", "phone"])).unwrap();
        c.add_source(Table::new("b", ["name"])).unwrap();
        c.add_source(Table::new("c", ["phone"])).unwrap();
        let per_shard: usize = c.shards().iter().map(|s| s.attribute_count("phone")).sum();
        assert_eq!(per_shard, 2);
        assert_eq!(c.shard(0).unwrap().attribute_count("name"), 2);
        assert_eq!(c.shard(1).unwrap().attribute_count("name"), 0);
    }

    #[test]
    fn removal_drops_emptied_shards() {
        let mut c = Catalog::with_shard_capacity(1);
        c.add_source(Table::new("a", ["x"])).unwrap();
        c.add_source(Table::new("b", ["y"])).unwrap();
        c.add_source(Table::new("c", ["z"])).unwrap();
        assert_eq!(c.shard_count(), 3);
        c.remove_source("b").unwrap();
        assert_eq!(c.shard_count(), 2);
        assert_eq!(c.shard_ranges(), vec![0..1, 1..2]);
        // Ids shifted: "c" is now id 1.
        assert_eq!(c.source(SourceId(1)).unwrap().name(), "c");
        // A later add reuses the tail shard only if it has room (capacity 1
        // here, so a fresh shard opens).
        c.add_source(Table::new("d", ["w"])).unwrap();
        assert_eq!(c.shard_count(), 3);
    }
}
