//! Persistence of a configured system.
//!
//! A pay-as-you-go deployment sets up once and serves queries for a long
//! time; nobody wants to re-run entropy maximization on every restart. The
//! snapshot keeps exactly the three inputs [`UdiSystem::from_parts`] needs
//! — catalog, p-med-schema, per-(source, schema) p-mappings — plus the
//! accumulated feedback, and rebuilds everything else (vocabulary,
//! consolidation) on load, so the format cannot drift out of sync with
//! derived state.
//!
//! The snapshot is JSON written and read with the workspace codec
//! ([`udi_obs::json`]); keys render sorted, and floats use the shortest
//! round-trip form, so save → load → save is byte-identical. The version-2
//! shape (attribute ids number the catalog's attributes in order of first
//! appearance, as a reload interns them; see `Renumbering`):
//!
//! ```text
//! {"catalog":   {"attr_source_counts": {"<attr>": n, …},
//!                "sources": [{"attributes": [..], "name": .., "rows": [[cell, …], …]}, …]},
//!  "feedback":  {"different": [[a, b], …], "same": [[a, b], …]},
//!  "pmappings": [[{"mappings": [[{"assignments": {"<attr id>": [j, …]}}, p], …]}, …], …],
//!  "pmed":      {"schemas": [[{"clusters": [[attr id, …], …]}, p], …]},
//!  "version":   2}
//! ```
//!
//! A cell is `"Null"`, `{"Int": i}`, `{"Float": f}` or `{"Text": s}`. JSON
//! has no infinities, so a non-finite float is written as its Rust spelling
//! (`{"Float": "inf"}`) and read back bit-exact. `attr_source_counts` is
//! written for readers of the file and ignored on load: the catalog
//! recounts from its sources. Decoding goes through the model's validating
//! constructors, so a malformed snapshot is an error, never a panic.

use std::collections::{BTreeMap, BTreeSet};

use udi_obs::json::{self, Json, ParseJsonError};
use udi_schema::{AttrId, Mapping, MediatedSchema, ModelError, PMapping, PMedSchema, Vocabulary};
use udi_store::{Catalog, Table, Value};

use crate::engine::import_schema_set;
use crate::feedback::Feedback;
use crate::system::UdiSystem;
use crate::UdiError;

/// Schema version of the snapshot format. Version 2 added the accumulated
/// feedback; version-1 snapshots still load (with empty feedback).
const SNAPSHOT_VERSION: u32 = 2;

/// Errors from snapshot decoding.
#[derive(Debug)]
pub enum PersistError {
    /// The snapshot is not valid JSON.
    Json(ParseJsonError),
    /// The JSON lacks the named field, or holds the wrong kind of value
    /// there.
    Shape(&'static str),
    /// A decoded mediated schema, p-med-schema, mapping or p-mapping breaks
    /// its invariant.
    Model(ModelError),
    /// The snapshot is from an incompatible format version.
    VersionMismatch {
        /// Version found in the snapshot.
        found: u32,
        /// Version this build writes.
        expected: u32,
    },
    /// The decoded parts failed to reassemble.
    Rebuild(UdiError),
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Json(e) => write!(f, "snapshot JSON error: {e}"),
            PersistError::Shape(field) => {
                write!(f, "snapshot field `{field}` is missing or malformed")
            }
            PersistError::Model(e) => write!(f, "snapshot holds an invalid model: {e}"),
            PersistError::VersionMismatch { found, expected } => {
                write!(f, "snapshot version {found}, this build reads {expected}")
            }
            PersistError::Rebuild(e) => write!(f, "snapshot could not be reassembled: {e}"),
        }
    }
}

impl std::error::Error for PersistError {}

impl UdiSystem {
    /// Serialize the configured system to a JSON snapshot.
    pub fn to_json(&self) -> String {
        let ids = Renumbering::new(self.schema_set().vocab(), self.catalog());
        let (schemas, positions): (Vec<_>, Vec<_>) = self
            .pmed()
            .schemas()
            .iter()
            .map(|(m, p)| {
                let (clusters, position) = ids.clusters(m);
                ((clusters, *p), position)
            })
            .unzip();
        // The top-level keys in the sorted order a `Json::Obj` renders
        // them. Each source's catalog entry and p-mappings are built as a
        // tree and rendered at once, so the whole document never exists
        // as one tree.
        let mut out = String::new();
        out.push_str("{\"catalog\":");
        catalog_into(self.catalog(), &mut out);
        out.push_str(",\"feedback\":");
        feedback_to_json(self.feedback()).render_into(&mut out);
        out.push_str(",\"pmappings\":");
        array_into(&mut out, 0..self.catalog().source_count(), |s, out| {
            let per_schema = positions.iter().enumerate().map(|(m, position)| {
                alternatives_to_json("mappings", self.pmapping(s, m).mappings(), |a| {
                    ids.mapping_to_json(a, position)
                })
            });
            Json::Arr(per_schema.collect()).render_into(out);
        });
        out.push_str(",\"pmed\":");
        alternatives_to_json("schemas", &schemas, |c| clusters_to_json(c)).render_into(&mut out);
        out.push_str(",\"version\":");
        json::render_int(i64::from(SNAPSHOT_VERSION), &mut out);
        out.push('}');
        out
    }

    /// Rebuild a system from a JSON snapshot produced by
    /// [`UdiSystem::to_json`]. Consolidation and derived indexes are
    /// recomputed, so Theorem 6.2 equivalence holds for the loaded system
    /// exactly as for the original.
    pub fn from_json(text: &str) -> Result<UdiSystem, PersistError> {
        let snapshot = json::parse(text).map_err(PersistError::Json)?;
        let version: u32 = integer(field(&snapshot, "version")?, "version")?;
        if !(1..=SNAPSHOT_VERSION).contains(&version) {
            return Err(PersistError::VersionMismatch {
                found: version,
                expected: SNAPSHOT_VERSION,
            });
        }
        let catalog = catalog_from_json(field(&snapshot, "catalog")?)?;
        // The size of the vocabulary `from_parts` rebuilds from the catalog:
        // every attribute id must name one of its entries.
        let n_attrs = catalog.attribute_count();
        let pmed = PMedSchema::try_new(alternatives(field(&snapshot, "pmed")?, "schemas", |m| {
            mediated_from_json(m, n_attrs)
        })?)
        .map_err(PersistError::Model)?;
        // A mapping targets clusters of its own schema; surplus columns are
        // left to `from_parts` to report.
        let width = |m: usize| pmed.schemas().get(m).map_or(usize::MAX, |(s, _)| s.len());
        let pmappings = array(field(&snapshot, "pmappings")?, "pmappings")?
            .iter()
            .map(|row| {
                array(row, "pmappings")?
                    .iter()
                    .enumerate()
                    .map(|(m, p)| pmapping_from_json(p, width(m), n_attrs))
                    .collect()
            })
            .collect::<Result<_, _>>()?;
        // Absent in version-1 snapshots.
        let feedback = match snapshot.get("feedback") {
            Some(f) => feedback_from_json(f)?,
            None => Feedback::new(),
        };
        let mut system =
            UdiSystem::from_parts(catalog, pmed, pmappings).map_err(PersistError::Rebuild)?;
        system.restore_feedback(feedback);
        Ok(system)
    }
}

fn object<const N: usize>(fields: [(&str, Json); N]) -> Json {
    Json::Obj(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
}

fn strings<'a>(items: impl IntoIterator<Item = &'a str>) -> Json {
    Json::Arr(items.into_iter().map(|s| Json::Str(s.to_owned())).collect())
}

/// Live attribute id → the id a reload gives the same name.
///
/// `from_json` rebuilds the vocabulary from the catalog
/// ([`import_schema_set`]). The live one can differ: after `remove_source`
/// it keeps the removed source's names, so every id interned after them
/// would shift on reload. The writer therefore renumbers through the names.
/// An attribute no source has any more gets no id: it drops out of its
/// cluster, and a cluster left empty drops out of its schema.
struct Renumbering(Vec<Option<AttrId>>);

impl Renumbering {
    fn new(live: &Vocabulary, catalog: &Catalog) -> Renumbering {
        let reload = import_schema_set(catalog);
        Renumbering(
            live.iter()
                .map(|(_, name)| reload.vocab().id_of(name))
                .collect(),
        )
    }

    fn id(&self, a: AttrId) -> Option<AttrId> {
        self.0.get(a.0 as usize).copied().flatten()
    }

    /// `schema`'s clusters renumbered and put in the order
    /// [`MediatedSchema::try_new`] gives them, with the new position of
    /// each old cluster.
    fn clusters(&self, schema: &MediatedSchema) -> (Vec<BTreeSet<AttrId>>, Vec<Option<usize>>) {
        let renumbered: Vec<BTreeSet<AttrId>> = schema
            .clusters()
            .iter()
            .map(|c| c.iter().filter_map(|&a| self.id(a)).collect())
            .collect();
        // One-to-one renumbering keeps the clusters disjoint, so `try_new`
        // succeeds (dropping emptied clusters); were it to fail, the
        // clusters are written as they are and the load reports it.
        let sorted = match MediatedSchema::try_new(renumbered.clone()) {
            Ok(m) => m.clusters().to_vec(),
            Err(_) => renumbered.clone(),
        };
        let position = renumbered
            .iter()
            .map(|c| sorted.iter().position(|s| s == c))
            .collect();
        (sorted, position)
    }

    /// `mapping` with its source attributes renumbered and its targets
    /// moved to their clusters' new `position`s.
    fn mapping_to_json(&self, mapping: &Mapping, position: &[Option<usize>]) -> Json {
        let mut assignments: BTreeMap<String, BTreeSet<usize>> = BTreeMap::new();
        for (a, j) in mapping.correspondences() {
            if let (Some(a), Some(&Some(j))) = (self.id(a), position.get(j)) {
                assignments.entry(a.0.to_string()).or_default().insert(j);
            }
        }
        let assignments = assignments
            .into_iter()
            .map(|(a, targets)| {
                let targets = targets.into_iter().map(|j| Json::Int(j as i64)).collect();
                (a, Json::Arr(targets))
            })
            .collect();
        object([("assignments", Json::Obj(assignments))])
    }
}

/// Append `[render(item), …]` to `out`.
fn array_into<T>(
    out: &mut String,
    items: impl IntoIterator<Item = T>,
    mut render: impl FnMut(T, &mut String),
) {
    out.push('[');
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        render(item, out);
    }
    out.push(']');
}

/// Append the catalog object to `out`, one source at a time, its keys in
/// sorted order.
fn catalog_into(catalog: &Catalog, out: &mut String) {
    out.push_str("{\"attr_source_counts\":");
    let counts = catalog.attr_source_counts().iter();
    Json::Obj(
        counts
            .map(|(a, &n)| (a.clone(), Json::Int(n as i64)))
            .collect(),
    )
    .render_into(out);
    out.push_str(",\"sources\":");
    array_into(out, catalog.iter_sources(), |(_, t), out| {
        let rows = t
            .to_rows()
            .iter()
            .map(|row| Json::Arr(row.iter().map(cell_to_json).collect()))
            .collect();
        object([
            ("name", Json::Str(t.name().to_owned())),
            (
                "attributes",
                strings(t.attributes().iter().map(String::as_str)),
            ),
            ("rows", Json::Arr(rows)),
        ])
        .render_into(out);
    });
    out.push('}');
}

fn cell_to_json(cell: &Value) -> Json {
    match cell {
        Value::Null => Json::Str("Null".to_owned()),
        Value::Int(i) => object([("Int", Json::Int(*i))]),
        Value::Float(f) if f.is_finite() => object([("Float", Json::Float(*f))]),
        Value::Float(f) => object([("Float", Json::Str(format!("{f:?}")))]),
        Value::Text(s) => object([("Text", Json::Str(s.to_string()))]),
    }
}

/// `[[alternative, p], …]` under `key`: the shape p-med-schemas and
/// p-mappings share.
fn alternatives_to_json<T>(key: &str, items: &[(T, f64)], encode: impl Fn(&T) -> Json) -> Json {
    let items = items
        .iter()
        .map(|(item, p)| Json::Arr(vec![encode(item), Json::Float(*p)]))
        .collect();
    object([(key, Json::Arr(items))])
}

fn clusters_to_json(clusters: &[BTreeSet<AttrId>]) -> Json {
    let clusters = clusters
        .iter()
        .map(|c| Json::Arr(c.iter().map(|a| Json::Int(i64::from(a.0))).collect()))
        .collect();
    object([("clusters", Json::Arr(clusters))])
}

fn feedback_to_json(feedback: &Feedback) -> Json {
    let pairs = |same: bool| {
        Json::Arr(
            feedback
                .judgments()
                .filter(|&(_, _, s)| s == same)
                .map(|(a, b, _)| strings([a, b]))
                .collect(),
        )
    };
    object([("same", pairs(true)), ("different", pairs(false))])
}

/// `value[key]`, or a shape error naming `key`.
fn field<'a>(value: &'a Json, key: &'static str) -> Result<&'a Json, PersistError> {
    value.get(key).ok_or(PersistError::Shape(key))
}

/// The items of an array, or a shape error naming `what`.
fn array<'a>(value: &'a Json, what: &'static str) -> Result<&'a [Json], PersistError> {
    match value {
        Json::Arr(items) => Ok(items),
        _ => Err(PersistError::Shape(what)),
    }
}

/// A two-element array, such as `[alternative, p]` or a feedback pair.
fn pair<'a>(value: &'a Json, what: &'static str) -> Result<(&'a Json, &'a Json), PersistError> {
    match array(value, what)? {
        [a, b] => Ok((a, b)),
        _ => Err(PersistError::Shape(what)),
    }
}

/// An integer that fits `T` (a `u32` id, a `usize` index).
fn integer<T: TryFrom<i64>>(value: &Json, what: &'static str) -> Result<T, PersistError> {
    value
        .as_i64()
        .and_then(|i| T::try_from(i).ok())
        .ok_or(PersistError::Shape(what))
}

fn string<'a>(value: &'a Json, what: &'static str) -> Result<&'a str, PersistError> {
    value.as_str().ok_or(PersistError::Shape(what))
}

fn number(value: &Json, what: &'static str) -> Result<f64, PersistError> {
    value.as_f64().ok_or(PersistError::Shape(what))
}

fn catalog_from_json(value: &Json) -> Result<Catalog, PersistError> {
    let store = |e| PersistError::Rebuild(UdiError::Store(e));
    let mut catalog = Catalog::new();
    for source in array(field(value, "sources")?, "sources")? {
        let name = string(field(source, "name")?, "name")?;
        let attributes = array(field(source, "attributes")?, "attributes")?
            .iter()
            .map(|a| string(a, "attributes"))
            .collect::<Result<Vec<_>, _>>()?;
        let mut table = Table::try_new(name, attributes).map_err(store)?;
        for row in array(field(source, "rows")?, "rows")? {
            let row = array(row, "rows")?
                .iter()
                .map(cell_from_json)
                .collect::<Result<_, _>>()?;
            table.push_row(row).map_err(store)?;
        }
        catalog.add_source(table).map_err(store)?;
    }
    Ok(catalog)
}

fn cell_from_json(cell: &Json) -> Result<Value, PersistError> {
    if cell.as_str() == Some("Null") {
        return Ok(Value::Null);
    }
    let Json::Obj(tagged) = cell else {
        return Err(PersistError::Shape("cell"));
    };
    let mut entries = tagged.iter();
    let (Some((tag, value)), None) = (entries.next(), entries.next()) else {
        return Err(PersistError::Shape("cell"));
    };
    match (tag.as_str(), value) {
        ("Int", Json::Int(i)) => Ok(Value::Int(*i)),
        ("Float", Json::Str(s)) => s
            .parse()
            .map(Value::Float)
            .map_err(|_| PersistError::Shape("Float")),
        ("Float", v) => number(v, "Float").map(Value::Float),
        ("Text", Json::Str(s)) => Ok(Value::text(s.as_str())),
        _ => Err(PersistError::Shape("cell")),
    }
}

/// Reads `[[alternative, p], …]` under `key`.
fn alternatives<T>(
    value: &Json,
    key: &'static str,
    decode: impl Fn(&Json) -> Result<T, PersistError>,
) -> Result<Vec<(T, f64)>, PersistError> {
    array(field(value, key)?, key)?
        .iter()
        .map(|alternative| {
            let (item, p) = pair(alternative, key)?;
            Ok((decode(item)?, number(p, key)?))
        })
        .collect()
}

/// An attribute id below `n_attrs`, the size of the reloaded vocabulary.
fn attr_id(id: Option<u32>, n_attrs: usize, what: &'static str) -> Result<AttrId, PersistError> {
    id.filter(|&a| (a as usize) < n_attrs)
        .map(AttrId)
        .ok_or(PersistError::Shape(what))
}

fn mediated_from_json(value: &Json, n_attrs: usize) -> Result<MediatedSchema, PersistError> {
    let clusters = array(field(value, "clusters")?, "clusters")?
        .iter()
        .map(|c| {
            array(c, "clusters")?
                .iter()
                .map(|a| attr_id(integer(a, "clusters").ok(), n_attrs, "clusters"))
                .collect::<Result<BTreeSet<_>, _>>()
        })
        .collect::<Result<_, _>>()?;
    MediatedSchema::try_new(clusters).map_err(PersistError::Model)
}

/// A p-mapping onto a schema with `width` clusters.
fn pmapping_from_json(
    value: &Json,
    width: usize,
    n_attrs: usize,
) -> Result<PMapping, PersistError> {
    PMapping::try_new(alternatives(value, "mappings", |m| {
        mapping_from_json(m, width, n_attrs)
    })?)
    .map_err(PersistError::Model)
}

fn mapping_from_json(value: &Json, width: usize, n_attrs: usize) -> Result<Mapping, PersistError> {
    let Json::Obj(assignments) = field(value, "assignments")? else {
        return Err(PersistError::Shape("assignments"));
    };
    let mut pairs = Vec::new();
    for (a, targets) in assignments {
        let a = attr_id(a.parse().ok(), n_attrs, "assignments")?;
        for j in array(targets, "assignments")? {
            let j = integer(j, "assignments")?;
            if j >= width {
                return Err(PersistError::Shape("assignments"));
            }
            pairs.push((a, j));
        }
    }
    Mapping::try_new(pairs).map_err(PersistError::Model)
}

fn feedback_from_json(value: &Json) -> Result<Feedback, PersistError> {
    let mut feedback = Feedback::new();
    for (key, same) in [("same", true), ("different", false)] {
        for judgment in array(field(value, key)?, key)? {
            let (a, b) = pair(judgment, key)?;
            let (a, b) = (string(a, key)?, string(b, key)?);
            if same {
                feedback.confirm_same(a, b);
            } else {
                feedback.confirm_different(a, b);
            }
        }
    }
    Ok(feedback)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::UdiConfig;
    use udi_query::parse_query;

    fn catalog(extra: Option<Table>) -> Catalog {
        let mut catalog = Catalog::new();
        for (name, attrs, row) in [
            ("s1", vec!["name", "phone"], vec!["Alice", "123"]),
            ("s2", vec!["name", "phone-no"], vec!["Bob", "456"]),
            ("s3", vec!["name", "phone"], vec!["Carol", "789"]),
        ] {
            let mut t = Table::new(name, attrs);
            t.push_raw_row(row).unwrap();
            catalog.add_source(t).unwrap();
        }
        if let Some(t) = extra {
            catalog.add_source(t).unwrap();
        }
        catalog
    }

    fn system() -> UdiSystem {
        UdiSystem::setup(catalog(None), UdiConfig::default()).unwrap()
    }

    /// The value at `path` (object keys, or array indices as decimal
    /// strings), for tests that corrupt one spot of a snapshot.
    fn at<'a>(value: &'a mut Json, path: &[&str]) -> &'a mut Json {
        path.iter().fold(value, |v, step| match v {
            Json::Obj(map) => map.get_mut(*step).unwrap(),
            Json::Arr(items) => items.get_mut(step.parse::<usize>().unwrap()).unwrap(),
            other => panic!("cannot step into {other:?} at {step}"),
        })
    }

    #[test]
    fn round_trip_preserves_answers() {
        let original = system();
        let json = original.to_json();
        let loaded = UdiSystem::from_json(&json).unwrap();

        assert_eq!(loaded.pmed().len(), original.pmed().len());
        assert_eq!(loaded.consolidated(), original.consolidated());
        for sql in [
            "SELECT name, phone FROM t",
            "SELECT name FROM t WHERE phone = '456'",
        ] {
            let q = parse_query(sql).unwrap();
            let a = original.answer(&q).combined();
            let b = loaded.answer(&q).combined();
            assert_eq!(a.len(), b.len(), "{sql}");
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.values, y.values, "{sql}");
                assert_eq!(x.probability.to_bits(), y.probability.to_bits(), "{sql}");
            }
        }
    }

    #[test]
    fn save_load_save_is_byte_identical() {
        let mut original = system();
        let mut f = crate::Feedback::new();
        f.confirm_different("name", "phone");
        original.apply_feedback(&f).unwrap();
        let json = original.to_json();
        let json2 = UdiSystem::from_json(&json).unwrap().to_json();
        assert_eq!(json2, json);
    }

    #[test]
    fn snapshot_after_remove_source_reloads_identically() {
        // Removing s1 leaves the live vocabulary numbering name, phone,
        // phone-no; a reload interns s2 first and numbers phone-no before
        // phone. The writer renumbers, so the reload answers the same.
        let mut original = system();
        original.remove_source("s1").unwrap();
        let json = original.to_json();
        let loaded = UdiSystem::from_json(&json).unwrap();
        let live = original.schema_set().vocab();
        let reload = loaded.schema_set().vocab();
        assert_ne!(live.id_of("phone"), reload.id_of("phone"));
        let names = |sys: &UdiSystem| -> BTreeSet<BTreeSet<String>> {
            let vocab = sys.schema_set().vocab();
            sys.consolidated()
                .clusters()
                .iter()
                .map(|c| c.iter().map(|&a| vocab.name(a).to_owned()).collect())
                .collect()
        };
        assert_eq!(names(&loaded), names(&original));
        for sql in [
            "SELECT name, phone FROM t",
            "SELECT phone-no FROM t",
            "SELECT name FROM t WHERE phone = '789'",
        ] {
            let q = parse_query(sql).unwrap();
            let a = original.answer(&q).combined();
            let b = loaded.answer(&q).combined();
            assert!(!a.is_empty(), "{sql}");
            assert_eq!(a.len(), b.len(), "{sql}");
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.values, y.values, "{sql}");
                assert_eq!(x.probability.to_bits(), y.probability.to_bits(), "{sql}");
            }
        }
        assert_eq!(loaded.to_json(), json);
    }

    #[test]
    fn version_gate() {
        let json = system().to_json();
        let bumped = json.replacen("\"version\":2", "\"version\":99", 1);
        let err = UdiSystem::from_json(&bumped).unwrap_err();
        assert!(matches!(
            err,
            PersistError::VersionMismatch {
                found: 99,
                expected: 2
            }
        ));
        assert!(err.to_string().contains("99"));
    }

    #[test]
    fn version_1_snapshots_still_load() {
        let original = system();
        // A v1 snapshot is a v2 snapshot minus the feedback field.
        let mut v1 = json::parse(&original.to_json()).unwrap();
        let Json::Obj(top) = &mut v1 else {
            panic!("snapshot is an object")
        };
        assert!(top.remove("feedback").is_some());
        top.insert("version".to_owned(), Json::Int(1));
        let loaded = UdiSystem::from_json(&v1.render()).unwrap();
        assert_eq!(loaded.pmed().len(), original.pmed().len());
        assert!(loaded.feedback().is_empty());
    }

    #[test]
    fn feedback_survives_the_round_trip() {
        let mut original = system();
        let mut f = crate::Feedback::new();
        f.confirm_same("phone", "phone-no");
        original.apply_feedback(&f).unwrap();
        let loaded = UdiSystem::from_json(&original.to_json()).unwrap();
        assert_eq!(loaded.feedback().judgment("phone", "phone-no"), Some(true));
        assert_eq!(loaded.consolidated(), original.consolidated());
    }

    #[test]
    fn garbage_is_rejected() {
        assert!(matches!(
            UdiSystem::from_json("not json").unwrap_err(),
            PersistError::Json(_)
        ));
        assert!(matches!(
            UdiSystem::from_json("{}").unwrap_err(),
            PersistError::Shape("version")
        ));
    }

    #[test]
    fn snapshot_is_self_contained_json() {
        let v = json::parse(&system().to_json()).unwrap();
        assert_eq!(v.get("version"), Some(&Json::Int(2)));
        assert!(matches!(v.get("catalog"), Some(Json::Obj(_))));
        assert!(matches!(v.get("pmed"), Some(Json::Obj(_))));
        assert!(matches!(v.get("pmappings"), Some(Json::Arr(_))));
    }

    #[test]
    fn derive_written_snapshots_load() {
        // The v2 layout as the earlier derive-based writer laid it out:
        // fields in declaration order, attribute-id keys in numeric order,
        // floats with a decimal point.
        let snapshot = r#"{"version":2,"catalog":{"sources":[
            {"name":"s1","attributes":["name","phone"],"rows":[[{"Text":"Alice"},{"Int":123}]]},
            {"name":"s2","attributes":["name","phone-no"],"rows":[["Null",{"Float":4.5}]]}],
            "attr_source_counts":{"name":2,"phone":1,"phone-no":1}},
            "pmed":{"schemas":[[{"clusters":[[0],[1,2]]},1.0]]},
            "pmappings":[[{"mappings":[[{"assignments":{"0":[0],"1":[1]}},1.0]]}],
                         [{"mappings":[[{"assignments":{"0":[0],"2":[1]}},0.75],
                                       [{"assignments":{"0":[0]}},0.25]]}]],
            "feedback":{"same":[["phone","phone-no"]],"different":[]}}"#;
        let loaded = UdiSystem::from_json(snapshot).unwrap();
        assert_eq!(loaded.catalog().source_count(), 2);
        assert_eq!(loaded.consolidated().len(), 2);
        assert_eq!(loaded.pmapping(1, 0).len(), 2);
        assert_eq!(loaded.feedback().judgment("phone", "phone-no"), Some(true));
        let rows = loaded.catalog().iter_sources().nth(1).unwrap().1.to_rows();
        assert_eq!(rows, vec![vec![Value::Null, Value::Float(4.5)]]);
    }

    #[test]
    fn extreme_cells_round_trip_bit_exact() {
        let cells = vec![
            Value::Float(f64::INFINITY),
            Value::Float(f64::NEG_INFINITY),
            Value::Float(-0.0),
            Value::Float(5e-324),
            Value::text("tab\t nul\u{0} bell\u{7} quote\" \\ \u{1F600}"),
            Value::Int(i64::MIN),
        ];
        let mut t = Table::new("s4", ["a", "b", "c", "d", "e", "f"]);
        t.push_row(cells.clone()).unwrap();
        let original = UdiSystem::setup(catalog(Some(t)), UdiConfig::default()).unwrap();
        let json = original.to_json();
        assert!(json.contains(r#"{"Float":"inf"}"#), "{json}");
        assert!(json.contains(r#"{"Float":"-inf"}"#), "{json}");
        let loaded = UdiSystem::from_json(&json).unwrap();
        let (_, t) = loaded.catalog().iter_sources().nth(3).unwrap();
        let back = t.row(0).unwrap();
        assert_eq!(back.len(), cells.len());
        for (x, y) in cells.iter().zip(&back) {
            match (x, y) {
                (Value::Float(x), Value::Float(y)) => assert_eq!(x.to_bits(), y.to_bits()),
                (Value::Text(x), Value::Text(y)) => assert_eq!(x, y),
                (Value::Int(x), Value::Int(y)) => assert_eq!(x, y),
                _ => panic!("cell changed kind: {x:?} -> {y:?}"),
            }
        }
        assert_eq!(loaded.to_json(), json);
    }

    #[test]
    fn invalid_snapshots_are_errors_not_panics() {
        let valid = json::parse(&system().to_json()).unwrap();
        let mapping: &[&str] = &["pmappings", "0", "0", "mappings"];
        let clusters: &[&str] = &["pmed", "schemas", "0", "0", "clusters"];
        let rows: &[&str] = &["catalog", "sources", "0", "rows"];
        // (where, replacement, part of the error message)
        #[rustfmt::skip]
        let cases: [(&[&str], &str, &str); 17] = [
            (mapping, "[]", "at least one mapping"),
            (mapping, r#"[[{"assignments":{}},0.5]]"#, "sum to 0.5"),
            (&["pmed", "schemas"], r#"[[{"clusters":[[0]]},0.5]]"#, "sum to 0.5"),
            (clusters, "[[0,1],[1,2]]", "two clusters"),
            (mapping, r#"[[{"assignments":{"0":[0],"1":[0]}},1.0]]"#, "already corresponds"),
            (clusters, "[[-1]]", "`clusters`"),
            (clusters, "[[4294967296]]", "`clusters`"),
            (clusters, "[[0],[1],[2],[3]]", "`clusters`"),
            (mapping, r#"[[{"assignments":{"-1":[0]}},1.0]]"#, "`assignments`"),
            (mapping, r#"[[{"assignments":{"0":[-1]}},1.0]]"#, "`assignments`"),
            (mapping, r#"[[{"assignments":{"0":[99]}},1.0]]"#, "`assignments`"),
            (mapping, r#"[[{"assignments":{"3":[0]}},1.0]]"#, "`assignments`"),
            (&["pmappings"], "[]", "one p-mapping row per source"),
            (&["pmappings", "0"], "[]", "one p-mapping per possible schema"),
            (rows, r#"[[{"Int":1}]]"#, "storage error"),
            (rows, r#"[[{"Int":1,"Text":"x"},"Null"]]"#, "`cell`"),
            (&["feedback", "same"], r#"[["a"]]"#, "`same`"),
        ];
        for (path, replacement, expected) in cases {
            let mut snapshot = valid.clone();
            *at(&mut snapshot, path) = json::parse(replacement).unwrap();
            let err = UdiSystem::from_json(&snapshot.render())
                .err()
                .unwrap_or_else(|| panic!("{path:?} = {replacement} loaded"));
            assert!(err.to_string().contains(expected), "{path:?}: {err}");
        }
    }
}
