//! Core model types: vocabulary, source schemas, mediated schemas,
//! p-med-schemas, mappings and p-mappings.

use std::cmp::Ordering;
use std::collections::{BTreeSet, HashMap};
use std::fmt;

/// Identifier of a distinct attribute *name* across all sources.
///
/// The paper treats attributes by name: `f(a)` counts the sources whose
/// schema contains the name `a`, and mediated attributes are sets of names.
/// Two sources using the same label therefore share one `AttrId`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AttrId(pub u32);

/// Bidirectional attribute-name registry.
#[derive(Debug, Clone, Default)]
pub struct Vocabulary {
    names: Vec<String>,
    // udi-audit: allow(deterministic-iteration, "reverse index queried by name; iteration always goes through `names`")
    index: HashMap<String, AttrId>,
}

impl Vocabulary {
    /// Empty vocabulary.
    pub fn new() -> Vocabulary {
        Vocabulary::default()
    }

    /// Intern a name, returning its stable id.
    pub fn intern(&mut self, name: &str) -> AttrId {
        if let Some(&id) = self.index.get(name) {
            return id;
        }
        let id = AttrId(self.names.len() as u32);
        self.names.push(name.to_owned());
        self.index.insert(name.to_owned(), id);
        id
    }

    /// Look up an already-interned name.
    pub fn id_of(&self, name: &str) -> Option<AttrId> {
        self.index.get(name).copied()
    }

    /// The name behind an id. A foreign id reads as the empty string —
    /// ids only come from this vocabulary, so the fallback is inert.
    pub fn name(&self, id: AttrId) -> &str {
        self.names
            .get(id.0 as usize)
            .map(String::as_str)
            .unwrap_or("")
    }

    /// Number of distinct names.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether the vocabulary is empty.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Iterate all `(id, name)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (AttrId, &str)> {
        self.names
            .iter()
            .enumerate()
            .map(|(i, n)| (AttrId(i as u32), n.as_str()))
    }
}

/// One source schema: a name plus its attribute ids.
#[derive(Debug, Clone)]
pub struct SourceSchema {
    /// Source name (table name).
    pub name: String,
    /// Attribute ids in schema order.
    pub attrs: Vec<AttrId>,
}

/// A set of source schemas sharing one vocabulary — the input to the whole
/// setup pipeline.
#[derive(Debug, Clone, Default)]
pub struct SchemaSet {
    vocab: Vocabulary,
    sources: Vec<SourceSchema>,
    /// `counts[a]` = number of sources whose schema contains `AttrId(a)`,
    /// maintained incrementally so `frequency` is O(1) and
    /// `frequent_attributes` is O(|vocab|) instead of O(|vocab| × |sources|
    /// × arity) — at 100k sources the old scan dominated every refresh.
    counts: Vec<usize>,
}

/// The distinct attribute ids of one source schema, in first-occurrence
/// order. Frequency counts a source once per attribute *name* no matter how
/// often the schema repeats it.
fn distinct_attrs(s: &SourceSchema) -> impl Iterator<Item = AttrId> + '_ {
    let mut seen = BTreeSet::new();
    s.attrs.iter().copied().filter(move |&a| seen.insert(a))
}

impl SchemaSet {
    /// Build from `(source name, attribute names)` pairs.
    pub fn from_sources<I, S, A>(sources: I) -> SchemaSet
    where
        I: IntoIterator<Item = (S, Vec<A>)>,
        S: Into<String>,
        A: AsRef<str>,
    {
        let mut set = SchemaSet::default();
        for (name, attrs) in sources {
            set.add_source(name, attrs.iter().map(AsRef::as_ref));
        }
        set
    }

    /// Register one source schema.
    pub fn add_source<'a>(
        &mut self,
        name: impl Into<String>,
        attrs: impl IntoIterator<Item = &'a str>,
    ) {
        let attrs: Vec<AttrId> = attrs.into_iter().map(|a| self.vocab.intern(a)).collect();
        let schema = SourceSchema {
            name: name.into(),
            attrs,
        };
        if self.counts.len() < self.vocab.len() {
            self.counts.resize(self.vocab.len(), 0);
        }
        for a in distinct_attrs(&schema) {
            if let Some(c) = self.counts.get_mut(a.0 as usize) {
                *c += 1;
            }
        }
        self.sources.push(schema);
    }

    /// Drop the source schema named `name`, returning whether it existed.
    ///
    /// The vocabulary is deliberately left intact: attribute ids are stable
    /// across removals, so downstream artifacts keyed by [`AttrId`] (similar-
    /// ity caches, mediated schemas, mappings) stay valid. Attributes no
    /// longer used by any source simply fall to frequency 0 and drop out of
    /// the frequent set on the next graph build.
    pub fn remove_source(&mut self, name: &str) -> bool {
        match self.sources.iter().position(|s| s.name == name) {
            Some(i) => {
                let schema = self.sources.remove(i);
                for a in distinct_attrs(&schema) {
                    if let Some(c) = self.counts.get_mut(a.0 as usize) {
                        *c = c.saturating_sub(1);
                    }
                }
                true
            }
            None => false,
        }
    }

    /// The shared vocabulary.
    pub fn vocab(&self) -> &Vocabulary {
        &self.vocab
    }

    /// The source schemas in registration order.
    pub fn sources(&self) -> &[SourceSchema] {
        &self.sources
    }

    /// `f(a)`: fraction of sources whose schema contains `a`. O(1): served
    /// from the incrementally maintained per-attribute counts.
    pub fn frequency(&self, a: AttrId) -> f64 {
        if self.sources.is_empty() {
            return 0.0;
        }
        let c = self.counts.get(a.0 as usize).copied().unwrap_or(0);
        c as f64 / self.sources.len() as f64
    }

    /// Attribute ids whose frequency is at least `theta`, ascending.
    /// O(|vocab|): one pass over the maintained counts.
    pub fn frequent_attributes(&self, theta: f64) -> Vec<AttrId> {
        let n = self.sources.len();
        if n == 0 {
            return Vec::new();
        }
        self.counts
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c as f64 / n as f64 >= theta)
            .map(|(i, _)| AttrId(i as u32))
            .collect()
    }
}

/// A deterministic mediated schema: a partition of (a subset of) the
/// attribute universe into disjoint clusters. Each cluster is one *mediated
/// attribute*.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MediatedSchema {
    clusters: Vec<BTreeSet<AttrId>>,
}

/// Why a model value could not be built: the invariant of
/// [`MediatedSchema`], [`PMedSchema`], [`Mapping`] or [`PMapping`] that the
/// input breaks. The `try_` constructors return it; the plain constructors
/// panic with its message.
#[derive(Debug, Clone, PartialEq)]
pub enum ModelError {
    /// An attribute appears in two clusters of one mediated schema.
    OverlappingClusters(AttrId),
    /// A p-med-schema with no mediated schema.
    NoSchemas,
    /// A p-mapping with no mapping.
    NoMappings,
    /// Probabilities that do not sum to 1 (±1e-6).
    ProbabilitySum(f64),
    /// A probability outside `(0, 1]`.
    ProbabilityOutOfRange(f64),
    /// The same mediated schema listed twice in a p-med-schema.
    DuplicateSchema,
    /// The same mapping listed twice in a p-mapping.
    DuplicateMapping,
    /// A mediated attribute that already corresponds to another source
    /// attribute.
    MediatedAttributeTaken(usize),
    /// A mediated attribute index beyond `u32`, the width mappings store.
    MediatedIndexTooLarge(usize),
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::OverlappingClusters(a) => {
                write!(f, "attribute {a:?} appears in two clusters")
            }
            ModelError::NoSchemas => write!(f, "a p-med-schema needs at least one schema"),
            ModelError::NoMappings => write!(f, "a p-mapping needs at least one mapping"),
            ModelError::ProbabilitySum(total) => write!(f, "probabilities sum to {total}, not 1"),
            ModelError::ProbabilityOutOfRange(p) => write!(f, "probability {p} out of range"),
            ModelError::DuplicateSchema => write!(f, "duplicate mediated schema in p-med-schema"),
            ModelError::DuplicateMapping => write!(f, "duplicate mapping"),
            ModelError::MediatedAttributeTaken(j) => write!(
                f,
                "mediated attribute {j} already corresponds to a different source attribute"
            ),
            ModelError::MediatedIndexTooLarge(j) => {
                write!(f, "mediated attribute index {j} does not fit in u32")
            }
        }
    }
}

impl std::error::Error for ModelError {}

/// Checks Definition 3.1/3.2's side conditions on a probability
/// distribution over distinct alternatives: non-empty, every probability in
/// `(0, 1]`, total 1 (±1e-6), no alternative listed twice. Of the
/// per-item failures the earliest item's wins, a range error over a
/// repeat of the same item. Repeats are found by sorting references, so the
/// check is O(n log n).
fn check_distribution<T: Ord>(
    items: &[(T, f64)],
    empty: ModelError,
    duplicate: ModelError,
) -> Result<(), ModelError> {
    if items.is_empty() {
        return Err(empty);
    }
    // Written as positive tests so a NaN fails them.
    let total: f64 = items.iter().map(|(_, p)| p).sum();
    let sums_to_one = (total - 1.0).abs() < 1e-6;
    if !sums_to_one {
        return Err(ModelError::ProbabilitySum(total));
    }
    let in_range = |p: f64| p > 0.0 && p <= 1.0 + 1e-9;
    let out_of_range = items.iter().enumerate().find(|(_, (_, p))| !in_range(*p));
    // Sorted by (item, position), every entry equal to its predecessor
    // repeats an earlier item; the earliest such position fails first.
    let mut sorted: Vec<(&T, usize)> = items.iter().map(|(m, _)| m).zip(0..).collect();
    sorted.sort_unstable();
    let next = sorted.iter().skip(1);
    let repeat = sorted
        .iter()
        .zip(next)
        .filter(|(x, y)| x.0 == y.0)
        .map(|(_, y)| y.1)
        .min();
    match (out_of_range, repeat) {
        (Some((i, (_, p))), r) if r.is_none_or(|r| i <= r) => {
            Err(ModelError::ProbabilityOutOfRange(*p))
        }
        (_, Some(_)) => Err(duplicate),
        _ => Ok(()),
    }
}

impl MediatedSchema {
    /// Build from clusters; empty clusters are dropped and the result is
    /// canonicalized (clusters sorted by their smallest member) so equal
    /// partitions compare equal. Panics if clusters overlap — use
    /// [`MediatedSchema::try_new`] for fallible construction.
    pub fn new(clusters: Vec<BTreeSet<AttrId>>) -> MediatedSchema {
        // udi-audit: allow(no-panic-in-lib, "documented panic: the infallible constructor variant; try_new is the fallible one")
        MediatedSchema::try_new(clusters).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`MediatedSchema::new`], rejecting overlapping clusters.
    pub fn try_new(clusters: Vec<BTreeSet<AttrId>>) -> Result<MediatedSchema, ModelError> {
        let mut clusters: Vec<BTreeSet<AttrId>> =
            clusters.into_iter().filter(|c| !c.is_empty()).collect();
        let mut seen = BTreeSet::new();
        for c in &clusters {
            for &a in c {
                if !seen.insert(a) {
                    return Err(ModelError::OverlappingClusters(a));
                }
            }
        }
        clusters.sort_by(|a, b| a.iter().next().cmp(&b.iter().next()));
        Ok(MediatedSchema { clusters })
    }

    /// Build from slices of ids (test/construction convenience).
    pub fn from_slices(clusters: &[&[AttrId]]) -> MediatedSchema {
        MediatedSchema::new(
            clusters
                .iter()
                .map(|c| c.iter().copied().collect())
                .collect(),
        )
    }

    /// The clusters (mediated attributes).
    pub fn clusters(&self) -> &[BTreeSet<AttrId>] {
        &self.clusters
    }

    /// Number of mediated attributes.
    pub fn len(&self) -> usize {
        self.clusters.len()
    }

    /// Whether the schema has no attributes.
    pub fn is_empty(&self) -> bool {
        self.clusters.is_empty()
    }

    /// Index of the cluster containing `a`, if any.
    pub fn cluster_of(&self, a: AttrId) -> Option<usize> {
        self.clusters.iter().position(|c| c.contains(&a))
    }

    /// All attributes covered by the schema.
    pub fn attribute_set(&self) -> BTreeSet<AttrId> {
        self.clusters.iter().flatten().copied().collect()
    }

    /// Definition 4.1: consistent with a source iff no two of the source's
    /// attributes share a cluster.
    pub fn is_consistent_with(&self, source: &SourceSchema) -> bool {
        for c in &self.clusters {
            let mut hits = 0;
            for a in &source.attrs {
                if c.contains(a) {
                    hits += 1;
                    if hits > 1 {
                        return false;
                    }
                }
            }
        }
        true
    }

    /// Human-readable rendering using a vocabulary.
    pub fn display(&self, vocab: &Vocabulary) -> String {
        let parts: Vec<String> = self
            .clusters
            .iter()
            .map(|c| {
                let names: Vec<&str> = c.iter().map(|&a| vocab.name(a)).collect();
                format!("{{{}}}", names.join(", "))
            })
            .collect();
        format!("({})", parts.join(", "))
    }
}

/// A probabilistic mediated schema (Definition 3.1): mediated schemas with
/// probabilities summing to 1.
#[derive(Debug, Clone)]
pub struct PMedSchema {
    schemas: Vec<(MediatedSchema, f64)>,
}

impl PMedSchema {
    /// Build from `(schema, probability)` pairs. Probabilities must be in
    /// `(0, 1]` and sum to 1 (±1e-6); schemas must be pairwise distinct.
    /// Panics otherwise — use [`PMedSchema::try_new`] for fallible
    /// construction.
    pub fn new(schemas: Vec<(MediatedSchema, f64)>) -> PMedSchema {
        // udi-audit: allow(no-panic-in-lib, "documented panic: the infallible constructor variant; try_new is the fallible one")
        PMedSchema::try_new(schemas).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`PMedSchema::new`], returning the broken side condition instead of
    /// panicking.
    pub fn try_new(schemas: Vec<(MediatedSchema, f64)>) -> Result<PMedSchema, ModelError> {
        check_distribution(&schemas, ModelError::NoSchemas, ModelError::DuplicateSchema)?;
        Ok(PMedSchema { schemas })
    }

    /// The `(schema, probability)` pairs, highest probability first.
    pub fn schemas(&self) -> &[(MediatedSchema, f64)] {
        &self.schemas
    }

    /// Number of possible mediated schemas (always at least 1 — a
    /// p-med-schema cannot be empty, so there is no `is_empty`).
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> usize {
        self.schemas.len()
    }

    /// Whether there is exactly one possible schema.
    pub fn is_deterministic(&self) -> bool {
        self.schemas.len() == 1
    }

    /// The most probable mediated schema. A p-med-schema is non-empty by
    /// construction; the fallback empty schema is unreachable in practice.
    pub fn top(&self) -> &MediatedSchema {
        // udi-audit: allow(shared-mutable-static, "write-once fallback schema; no observable mutation after init")
        static EMPTY: std::sync::OnceLock<MediatedSchema> = std::sync::OnceLock::new();
        match self.schemas.first() {
            Some((m, _)) => m,
            None => EMPTY.get_or_init(|| MediatedSchema::new(Vec::new())),
        }
    }
}

/// A (possibly one-to-many) schema mapping between one source and one
/// mediated schema: each source attribute maps to a set of mediated
/// attributes (cluster indices); each mediated attribute corresponds to at
/// most one source attribute.
///
/// Stored flat: one sorted, repeat-free slice of `(source attribute,
/// mediated index)` pairs — a 16-byte handle and one allocation. The
/// order ([`Ord`]) is the one the tree form `BTreeMap<AttrId,
/// BTreeSet<usize>>` had, which consolidation's merge order, and through it
/// every probability fold, depends on (DESIGN.md §15).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Mapping {
    /// Sorted by attribute, then mediated index; no pair repeats and no
    /// mediated index appears twice.
    pairs: Box<[(AttrId, u32)]>,
}

impl Mapping {
    /// The empty mapping.
    pub fn empty() -> Mapping {
        Mapping {
            pairs: Box::default(),
        }
    }

    /// Build from `(source attr, mediated index)` pairs in any order; the
    /// result holds one allocation. A repeated pair counts once; a source
    /// attribute may repeat with different indices (one-to-many). Panics if a mediated
    /// index has two source attributes or does not fit in `u32` — use
    /// [`Mapping::try_new`] for fallible construction.
    pub fn new<I>(pairs: I) -> Mapping
    where
        I: IntoIterator<Item = (AttrId, usize)>,
    {
        // udi-audit: allow(no-panic-in-lib, "documented panic: the infallible constructor variant; try_new is the fallible one")
        Mapping::try_new(pairs).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`Mapping::new`], returning the broken invariant instead of
    /// panicking: [`ModelError::MediatedAttributeTaken`] for a mediated
    /// index with two source attributes, [`ModelError::MediatedIndexTooLarge`]
    /// for one beyond `u32`.
    pub fn try_new<I>(pairs: I) -> Result<Mapping, ModelError>
    where
        I: IntoIterator<Item = (AttrId, usize)>,
    {
        let mut pairs = pairs
            .into_iter()
            .map(|(a, j)| match u32::try_from(j) {
                Ok(j) => Ok((a, j)),
                Err(_) => Err(ModelError::MediatedIndexTooLarge(j)),
            })
            .collect::<Result<Vec<_>, _>>()?;
        pairs.sort_unstable();
        pairs.dedup();
        if let Some(j) = repeated_target(&pairs) {
            return Err(ModelError::MediatedAttributeTaken(j as usize));
        }
        Ok(Mapping {
            pairs: pairs.into_boxed_slice(),
        })
    }

    /// The mediated attributes `a` maps to, ascending (none if `a` is
    /// unmapped).
    pub fn targets_of(&self, a: AttrId) -> impl Iterator<Item = usize> + '_ {
        let from = self.pairs.partition_point(|&(b, _)| b < a);
        self.pairs
            .get(from..)
            .unwrap_or_default()
            .iter()
            .take_while(move |&&(b, _)| b == a)
            .map(|&(_, j)| j as usize)
    }

    /// The unique source attribute corresponding to mediated attribute `j`.
    pub fn source_of(&self, j: usize) -> Option<AttrId> {
        let j = u32::try_from(j).ok()?;
        self.pairs.iter().find(|&&(_, t)| t == j).map(|&(a, _)| a)
    }

    /// Iterate `(source attr, mediated index)` correspondences, by
    /// attribute and then index.
    pub fn correspondences(&self) -> impl Iterator<Item = (AttrId, usize)> + '_ {
        self.pairs.iter().map(|&(a, j)| (a, j as usize))
    }

    /// Number of correspondences.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// Whether this is the empty mapping.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// Whether every source attribute maps to exactly one mediated
    /// attribute (Definition 3.2's one-to-one case).
    pub fn is_one_to_one(&self) -> bool {
        let next = self.pairs.iter().skip(1);
        self.pairs.iter().zip(next).all(|(x, y)| x.0 != y.0)
    }
}

/// A mediated index that two pairs of a sorted, repeat-free pair list
/// share, if any.
fn repeated_target(pairs: &[(AttrId, u32)]) -> Option<u32> {
    let mut targets: Vec<u32> = pairs.iter().map(|&(_, j)| j).collect();
    targets.sort_unstable();
    let next = targets.iter().skip(1);
    targets
        .iter()
        .zip(next)
        .find(|(x, y)| x == y)
        .map(|(&j, _)| j)
}

impl Ord for Mapping {
    /// The tree form's order: attribute groups `(a, targets of a)` compared
    /// one after another, targets as ascending lists, fewer groups first
    /// when one list of groups is a prefix of the other. A plain
    /// lexicographic order over the pairs differs where one mapping's group
    /// goes on and the other's ends: `{1→{2,5}}` vs `{1→{2}, 3→{0}}`
    /// compares `(1,5)` with `(3,0)` pairwise, but `{2,5}` with `{2}` —
    /// the larger set — group-wise.
    fn cmp(&self, other: &Mapping) -> Ordering {
        let (x, y) = (&*self.pairs, &*other.pairs);
        let shared = x.iter().zip(y).take_while(|(p, q)| p == q).count();
        match (x.get(shared), y.get(shared)) {
            (Some(&(a, i)), Some(&(b, j))) if a == b => i.cmp(&j),
            (Some(&(a, _)), Some(&(b, _))) => {
                // The group in progress at the first difference, if any:
                // the mapping that continues it has the longer target list.
                let open = shared.checked_sub(1).and_then(|k| x.get(k)).map(|p| p.0);
                if open == Some(a) {
                    Ordering::Greater
                } else if open == Some(b) {
                    Ordering::Less
                } else {
                    a.cmp(&b)
                }
            }
            // A mapping that ends first has a shorter target list or fewer
            // groups.
            (p, q) => p.is_some().cmp(&q.is_some()),
        }
    }
}

impl PartialOrd for Mapping {
    fn partial_cmp(&self, other: &Mapping) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A probabilistic mapping (Definition 3.2): distinct mappings with
/// probabilities summing to 1.
#[derive(Debug, Clone)]
pub struct PMapping {
    mappings: Vec<(Mapping, f64)>,
}

impl PMapping {
    /// Build from `(mapping, probability)` pairs; validates the
    /// Definition 3.2 side conditions and panics if one fails — use
    /// [`PMapping::try_new`] for fallible construction.
    pub fn new(mappings: Vec<(Mapping, f64)>) -> PMapping {
        // udi-audit: allow(no-panic-in-lib, "documented panic: the infallible constructor variant; try_new is the fallible one")
        PMapping::try_new(mappings).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`PMapping::new`], returning the broken side condition instead of
    /// panicking.
    pub fn try_new(mappings: Vec<(Mapping, f64)>) -> Result<PMapping, ModelError> {
        check_distribution(
            &mappings,
            ModelError::NoMappings,
            ModelError::DuplicateMapping,
        )?;
        Ok(PMapping { mappings })
    }

    /// The `(mapping, probability)` pairs.
    pub fn mappings(&self) -> &[(Mapping, f64)] {
        &self.mappings
    }

    /// Number of possible mappings (always at least 1 — a p-mapping cannot
    /// be empty, so there is no `is_empty`).
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> usize {
        self.mappings.len()
    }

    /// The single most probable mapping (ties broken by position).
    pub fn top_mapping(&self) -> &Mapping {
        let (m, _) = self
            .mappings
            .iter()
            .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))
            // udi-audit: allow(no-panic-in-lib, "PMapping::new requires at least one mapping; emptiness is unconstructible")
            .expect("non-empty by construction");
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(xs: &[u32]) -> Vec<AttrId> {
        xs.iter().map(|&x| AttrId(x)).collect()
    }

    #[test]
    fn remove_source_keeps_vocabulary_stable() {
        let mut set =
            SchemaSet::from_sources([("s1", vec!["name", "phone"]), ("s2", vec!["name", "email"])]);
        let email = set.vocab().id_of("email").unwrap();
        assert!(set.remove_source("s2"));
        assert!(!set.remove_source("s2"), "already gone");
        assert_eq!(set.sources().len(), 1);
        // Ids survive; the orphaned attribute just drops to frequency 0.
        assert_eq!(set.vocab().id_of("email"), Some(email));
        assert_eq!(set.frequency(email), 0.0);
        assert!(!set.frequent_attributes(0.5).contains(&email));
    }

    #[test]
    fn vocabulary_interns_stably() {
        let mut v = Vocabulary::new();
        let a = v.intern("name");
        let b = v.intern("phone");
        assert_eq!(v.intern("name"), a);
        assert_ne!(a, b);
        assert_eq!(v.name(a), "name");
        assert_eq!(v.id_of("phone"), Some(b));
        assert_eq!(v.id_of("zzz"), None);
        assert_eq!(v.len(), 2);
    }

    #[test]
    fn schema_set_frequencies() {
        let set = SchemaSet::from_sources([
            ("s1", vec!["name", "phone"]),
            ("s2", vec!["name", "addr"]),
            ("s3", vec!["name", "phone"]),
            ("s4", vec!["title"]),
        ]);
        let name = set.vocab().id_of("name").unwrap();
        let phone = set.vocab().id_of("phone").unwrap();
        assert_eq!(set.frequency(name), 0.75);
        assert_eq!(set.frequency(phone), 0.5);
        let freq = set.frequent_attributes(0.5);
        assert_eq!(freq, vec![name, phone]);
    }

    #[test]
    fn maintained_counts_track_mutations_and_duplicates() {
        let mut set = SchemaSet::default();
        // A schema repeating an attribute name still counts the source once.
        set.add_source("s1", ["name", "name", "phone"]);
        set.add_source("s2", ["name"]);
        let name = set.vocab().id_of("name").unwrap();
        let phone = set.vocab().id_of("phone").unwrap();
        assert_eq!(set.frequency(name), 1.0);
        assert_eq!(set.frequency(phone), 0.5);
        set.remove_source("s1");
        assert_eq!(set.frequency(name), 1.0, "s2 still has name");
        assert_eq!(set.frequency(phone), 0.0);
        assert_eq!(set.frequent_attributes(0.5), vec![name]);
    }

    #[test]
    fn mediated_schema_canonicalization() {
        let a = MediatedSchema::from_slices(&[&ids(&[2, 3]), &ids(&[0, 1])]);
        let b = MediatedSchema::from_slices(&[&ids(&[1, 0]), &ids(&[3, 2])]);
        assert_eq!(a, b);
        assert_eq!(a.cluster_of(AttrId(3)), a.cluster_of(AttrId(2)));
        assert_eq!(a.cluster_of(AttrId(9)), None);
        assert_eq!(a.len(), 2);
    }

    #[test]
    #[should_panic(expected = "two clusters")]
    fn overlapping_clusters_rejected() {
        MediatedSchema::from_slices(&[&ids(&[0, 1]), &ids(&[1, 2])]);
    }

    #[test]
    fn consistency_definition_4_1() {
        // M groups attrs 0 and 1 together.
        let m = MediatedSchema::from_slices(&[&ids(&[0, 1]), &ids(&[2])]);
        let s_ok = SourceSchema {
            name: "a".into(),
            attrs: ids(&[0, 2]),
        };
        let s_bad = SourceSchema {
            name: "b".into(),
            attrs: ids(&[0, 1]),
        };
        assert!(m.is_consistent_with(&s_ok));
        assert!(!m.is_consistent_with(&s_bad));
    }

    #[test]
    fn p_med_schema_validation() {
        let m1 = MediatedSchema::from_slices(&[&ids(&[0, 1])]);
        let m2 = MediatedSchema::from_slices(&[&ids(&[0]), &ids(&[1])]);
        let p = PMedSchema::new(vec![(m1.clone(), 0.7), (m2, 0.3)]);
        assert_eq!(p.len(), 2);
        assert!(!p.is_deterministic());
        assert_eq!(p.top(), &m1);
    }

    #[test]
    #[should_panic(expected = "sum to")]
    fn p_med_schema_rejects_bad_sum() {
        let m1 = MediatedSchema::from_slices(&[&ids(&[0])]);
        PMedSchema::new(vec![(m1, 0.5)]);
    }

    #[test]
    fn mapping_one_to_one_and_inverse() {
        let m = Mapping::new([(AttrId(5), 0), (AttrId(7), 2)]);
        assert!(m.is_one_to_one());
        assert_eq!(m.source_of(0), Some(AttrId(5)));
        assert_eq!(m.source_of(1), None);
        assert_eq!(m.targets_of(AttrId(7)).collect::<Vec<_>>(), vec![2]);
        assert_eq!(m.targets_of(AttrId(6)).count(), 0);
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn mapping_one_to_many() {
        let m = Mapping::new([(AttrId(1), 3), (AttrId(1), 0), (AttrId(1), 3)]);
        assert!(!m.is_one_to_one());
        assert_eq!(m.len(), 2);
        let cs: Vec<(AttrId, usize)> = m.correspondences().collect();
        assert_eq!(cs, vec![(AttrId(1), 0), (AttrId(1), 3)]);
    }

    #[test]
    #[should_panic(expected = "already corresponds")]
    fn mapping_rejects_two_sources_for_one_mediated() {
        Mapping::new([(AttrId(1), 0), (AttrId(2), 0)]);
    }

    #[test]
    fn pmapping_top_mapping() {
        let a = Mapping::new([(AttrId(0), 0)]);
        let b = Mapping::empty();
        let pm = PMapping::new(vec![(a.clone(), 0.4), (b, 0.6)]);
        assert_eq!(pm.top_mapping(), &Mapping::empty());
        assert_eq!(pm.len(), 2);
    }

    #[test]
    #[should_panic(expected = "duplicate mapping")]
    fn pmapping_rejects_duplicates() {
        let a = Mapping::empty();
        PMapping::new(vec![(a.clone(), 0.5), (a, 0.5)]);
    }

    #[test]
    fn try_constructors_return_the_broken_condition() {
        let m0 = MediatedSchema::from_slices(&[&ids(&[0])]);
        let pmed = |s: Vec<(MediatedSchema, f64)>| PMedSchema::try_new(s).err();
        assert_eq!(pmed(vec![]), Some(ModelError::NoSchemas));
        let dup = vec![(m0.clone(), 0.5), (m0.clone(), 0.5)];
        assert_eq!(pmed(dup), Some(ModelError::DuplicateSchema));
        // A NaN fails the sum check instead of slipping past it.
        let nan = pmed(vec![(m0, f64::NAN)]);
        assert!(matches!(nan, Some(ModelError::ProbabilitySum(t)) if t.is_nan()));
        let pairs = vec![
            (Mapping::empty(), 1.5),
            (Mapping::new([(AttrId(0), 0)]), -0.5),
        ];
        let range = PMapping::try_new(pairs).err();
        assert_eq!(range, Some(ModelError::ProbabilityOutOfRange(1.5)));
        let taken = Mapping::try_new([(AttrId(1), 0), (AttrId(2), 0)]).err();
        assert_eq!(taken, Some(ModelError::MediatedAttributeTaken(0)));
        // Indices are stored as u32: a wider one is refused, not truncated.
        if let Ok(wide) = usize::try_from(u64::from(u32::MAX) + 1) {
            let err = Mapping::try_new([(AttrId(0), wide)]).err();
            assert_eq!(err, Some(ModelError::MediatedIndexTooLarge(wide)));
        }
    }

    #[test]
    fn mediated_schema_display() {
        let mut v = Vocabulary::new();
        let n = v.intern("name");
        let p = v.intern("phone");
        let m = MediatedSchema::from_slices(&[&[n], &[p]]);
        assert_eq!(m.display(&v), "({name}, {phone})");
    }
}
