//! Equivalence of the incremental setup engine with batch setup, on
//! randomized catalogs: evolving a system must be indistinguishable from
//! rebuilding it.
//!
//! Three properties, one per mutation the engine supports:
//!
//! * `setup(catalog + S)` ≡ `setup(catalog).add_source(S)` — same
//!   p-med-schema, same p-mappings, same answers.
//! * `setup(catalog).remove_source(S)` ≡ `setup(catalog − S)` — compared
//!   by attribute name, because the evolved system's vocabulary keeps the
//!   removed source's names and so numbers attributes differently.
//! * `setup_with_measure(c, feedback.wrap(m))` ≡
//!   `setup(c).apply_feedback(f)` — folding feedback incrementally equals
//!   re-running the whole pipeline under the wrapped measure.

use std::collections::BTreeSet;

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

use udi::core::{Feedback, UdiConfig, UdiSystem};
use udi::query::parse_query;
use udi::schema::{MediatedSchema, PMapping};
use udi::similarity::AttributeSimilarity;
use udi::store::{Catalog, Table};

const ATTR_POOL: [&str; 7] = [
    "name", "phone", "phone no", "tel", "address", "year", "price",
];

/// Source `s{i}`: one row whose cells name the attribute and the source.
fn source(i: usize, attrs: &[&'static str]) -> Table {
    let mut t = Table::new(format!("s{i}"), attrs.to_vec());
    let row: Vec<String> = attrs.iter().map(|a| format!("{a}-v{i}")).collect();
    t.push_raw_row(row).unwrap();
    t
}

fn catalog_from(sources: &[Vec<&'static str>]) -> Catalog {
    let mut catalog = Catalog::new();
    for (i, attrs) in sources.iter().enumerate() {
        catalog.add_source(source(i, attrs)).unwrap();
    }
    catalog
}

/// Assert two systems are observably identical: schema distribution,
/// mappings, and answers over single-attribute projections.
fn assert_equivalent(a: &UdiSystem, b: &UdiSystem) -> Result<(), TestCaseError> {
    prop_assert_eq!(a.pmed().len(), b.pmed().len(), "schema count");
    for ((ma, pa), (mb, pb)) in a.pmed().schemas().iter().zip(b.pmed().schemas()) {
        prop_assert_eq!(ma, mb, "schema content");
        prop_assert!(
            (pa - pb).abs() < 1e-12,
            "schema probability {} vs {}",
            pa,
            pb
        );
    }
    prop_assert_eq!(a.consolidated(), b.consolidated(), "consolidated schema");
    for src in 0..a.catalog().source_count() {
        for schema in 0..a.pmed().len() {
            prop_assert_eq!(
                a.pmapping(src, schema).mappings(),
                b.pmapping(src, schema).mappings(),
                "p-mapping of source {} under schema {}",
                src,
                schema
            );
        }
        prop_assert_eq!(
            a.consolidated_pmapping(src).mappings(),
            b.consolidated_pmapping(src).mappings(),
            "consolidated p-mapping of source {}",
            src
        );
    }
    assert_same_answers(a, b)
}

/// Same answers over single-attribute projections.
fn assert_same_answers(a: &UdiSystem, b: &UdiSystem) -> Result<(), TestCaseError> {
    for attr in ["name", "phone", "address", "year", "price"] {
        let q = parse_query(&format!("SELECT {attr} FROM T")).unwrap();
        let mut xs = a.answer(&q).combined();
        let mut ys = b.answer(&q).combined();
        xs.sort_by(|x, y| x.values.cmp(&y.values));
        ys.sort_by(|x, y| x.values.cmp(&y.values));
        prop_assert_eq!(xs.len(), ys.len(), "answer count for {}", attr);
        for (x, y) in xs.iter().zip(&ys) {
            prop_assert_eq!(&x.values, &y.values);
            prop_assert!((x.probability - y.probability).abs() < 1e-12);
        }
    }
    Ok(())
}

/// A mediated schema as sets of attribute names, in cluster order.
fn named_clusters(u: &UdiSystem, m: &MediatedSchema) -> Vec<BTreeSet<String>> {
    let vocab = u.schema_set().vocab();
    m.clusters()
        .iter()
        .map(|c| c.iter().map(|&a| vocab.name(a).to_owned()).collect())
        .collect()
}

/// A p-mapping as (sorted `source attribute → cluster names` pairs,
/// probability), sorted by mapping.
type NamedMapping = (Vec<(String, BTreeSet<String>)>, f64);

fn named_pmapping(u: &UdiSystem, m: &MediatedSchema, pm: &PMapping) -> Vec<NamedMapping> {
    let vocab = u.schema_set().vocab();
    let clusters = named_clusters(u, m);
    let mut out: Vec<NamedMapping> = pm
        .mappings()
        .iter()
        .map(|(mapping, p)| {
            let mut pairs: Vec<(String, BTreeSet<String>)> = mapping
                .correspondences()
                .map(|(a, j)| {
                    let cluster = clusters.get(j).cloned().unwrap_or_default();
                    (vocab.name(a).to_owned(), cluster)
                })
                .collect();
            pairs.sort();
            (pairs, *p)
        })
        .collect();
    out.sort_by(|x, y| x.0.cmp(&y.0));
    out
}

/// The whole configuration by name: per mediated schema (sorted clusters,
/// probability, and each source's p-mapping keyed by table name), sorted
/// by schema; then the consolidated schema and p-mappings.
type NamedSchema = (Vec<BTreeSet<String>>, f64, Vec<(String, Vec<NamedMapping>)>);

fn named_config(u: &UdiSystem) -> (Vec<NamedSchema>, NamedSchema) {
    // `schema`: an index into the p-med-schema, or `None` for the
    // consolidated schema.
    let per_source = |m: &MediatedSchema, schema: Option<usize>| {
        let mut out: Vec<(String, Vec<NamedMapping>)> = u
            .catalog()
            .iter_sources()
            .map(|(sid, t)| {
                let src = sid.0 as usize;
                let pm = match schema {
                    Some(i) => u.pmapping(src, i),
                    None => u.consolidated_pmapping(src),
                };
                (t.name().to_owned(), named_pmapping(u, m, pm))
            })
            .collect();
        out.sort_by(|x, y| x.0.cmp(&y.0));
        out
    };
    let sorted = |m: &MediatedSchema| {
        let mut c = named_clusters(u, m);
        c.sort();
        c
    };
    let mut schemas: Vec<NamedSchema> = u
        .pmed()
        .schemas()
        .iter()
        .enumerate()
        .map(|(i, (m, p))| (sorted(m), *p, per_source(m, Some(i))))
        .collect();
    schemas.sort_by(|x, y| x.0.cmp(&y.0));
    let consolidated = (
        sorted(u.consolidated()),
        1.0,
        per_source(u.consolidated(), None),
    );
    (schemas, consolidated)
}

fn assert_same_schema(a: &NamedSchema, b: &NamedSchema) -> Result<(), TestCaseError> {
    prop_assert_eq!(&a.0, &b.0, "schema clusters");
    prop_assert!(
        (a.1 - b.1).abs() < 1e-12,
        "schema probability {} vs {}",
        a.1,
        b.1
    );
    prop_assert_eq!(a.2.len(), b.2.len(), "source count");
    for ((na, ma), (nb, mb)) in a.2.iter().zip(&b.2) {
        prop_assert_eq!(na, nb, "source name");
        prop_assert_eq!(ma.len(), mb.len(), "mapping count of {}", na);
        for ((xa, pa), (xb, pb)) in ma.iter().zip(mb) {
            prop_assert_eq!(xa, xb, "mapping of {}", na);
            prop_assert!(
                (pa - pb).abs() < 1e-12,
                "mapping probability {} vs {}",
                pa,
                pb
            );
        }
    }
    Ok(())
}

/// [`assert_equivalent`] for systems whose attribute ids differ: schemas,
/// p-mappings and answers compared by attribute and source name.
fn assert_equivalent_by_name(a: &UdiSystem, b: &UdiSystem) -> Result<(), TestCaseError> {
    let (schemas_a, consolidated_a) = named_config(a);
    let (schemas_b, consolidated_b) = named_config(b);
    prop_assert_eq!(schemas_a.len(), schemas_b.len(), "schema count");
    for (x, y) in schemas_a.iter().zip(&schemas_b) {
        assert_same_schema(x, y)?;
    }
    assert_same_schema(&consolidated_a, &consolidated_b)?;
    assert_same_answers(a, b)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn add_source_equals_batch_setup(
        sources in proptest::collection::vec(
            prop::sample::subsequence(ATTR_POOL.to_vec(), 2..6),
            2..6,
        ),
        extra in prop::sample::subsequence(ATTR_POOL.to_vec(), 2..6),
    ) {
        let mut all = sources.clone();
        all.push(extra.clone());
        let batch = match UdiSystem::setup(catalog_from(&all), UdiConfig::default()) {
            Ok(u) => u,
            Err(_) => return Ok(()), // e.g. matching explosion: nothing to compare
        };
        let mut incr = match UdiSystem::setup(catalog_from(&sources), UdiConfig::default()) {
            Ok(u) => u,
            Err(_) => return Ok(()),
        };
        if incr.add_source(source(sources.len(), &extra)).is_err() {
            return Ok(());
        }
        assert_equivalent(&incr, &batch)?;
    }

    #[test]
    fn remove_source_equals_batch_setup(
        sources in proptest::collection::vec(
            prop::sample::subsequence(ATTR_POOL.to_vec(), 2..6),
            3..7,
        ),
        removed in 0usize..6,
    ) {
        let removed = removed % sources.len();
        let mut rest = Catalog::new();
        for (i, attrs) in sources.iter().enumerate() {
            if i != removed {
                rest.add_source(source(i, attrs)).unwrap();
            }
        }
        let batch = match UdiSystem::setup(rest, UdiConfig::default()) {
            Ok(u) => u,
            Err(_) => return Ok(()),
        };
        let mut incr = match UdiSystem::setup(catalog_from(&sources), UdiConfig::default()) {
            Ok(u) => u,
            Err(_) => return Ok(()),
        };
        if incr.remove_source(&format!("s{removed}")).is_err() {
            return Ok(());
        }
        assert_equivalent_by_name(&incr, &batch)?;
    }

    #[test]
    fn apply_feedback_equals_wrapped_rebuild(
        sources in proptest::collection::vec(
            prop::sample::subsequence(ATTR_POOL.to_vec(), 2..6),
            2..6,
        ),
        judged in proptest::collection::vec(
            (0usize..ATTR_POOL.len(), 0usize..ATTR_POOL.len(), any::<bool>()),
            1..4,
        ),
    ) {
        let mut feedback = Feedback::new();
        for &(i, j, same) in &judged {
            if i == j {
                continue;
            }
            if same {
                feedback.confirm_same(ATTR_POOL[i], ATTR_POOL[j]);
            } else {
                feedback.confirm_different(ATTR_POOL[i], ATTR_POOL[j]);
            }
        }
        let base = AttributeSimilarity::default();
        let wrapped = feedback.wrap(&base);
        let full = match UdiSystem::setup_with_measure(
            catalog_from(&sources),
            &wrapped,
            UdiConfig::default(),
        ) {
            Ok(u) => u,
            Err(_) => return Ok(()),
        };
        let mut incr = match UdiSystem::setup(catalog_from(&sources), UdiConfig::default()) {
            Ok(u) => u,
            Err(_) => return Ok(()),
        };
        if incr.apply_feedback(&feedback).is_err() {
            return Ok(());
        }
        assert_equivalent(&incr, &full)?;
    }
}
