//! The corpus generator: entity universe + heterogeneous source projection.

use std::collections::BTreeMap;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use udi_store::{Catalog, Table, Value};

use crate::spec::{ConceptSpec, Domain};
use crate::truth::GroundTruth;
use crate::value::ValueKind;

/// Generator configuration.
#[derive(Debug, Clone)]
pub struct GenConfig {
    /// Number of sources; `None` uses the domain's Table 1 count.
    pub n_sources: Option<usize>,
    /// Master seed; every artifact is a pure function of `(domain, config)`.
    pub seed: u64,
    /// Number of distinct entities in the domain universe. Sources sample
    /// from a shared universe, so the same entity shows up in several
    /// sources (which is what makes cross-source recall meaningful).
    pub universe_size: usize,
    /// Minimum rows per source ("tens to a few hundreds of tuples").
    pub rows_min: usize,
    /// Maximum rows per source.
    pub rows_max: usize,
    /// Probability that a cell is NULL (web-table sparsity).
    pub null_rate: f64,
}

impl Default for GenConfig {
    fn default() -> Self {
        GenConfig {
            n_sources: None,
            seed: 0x5EED_2008,
            universe_size: 300,
            rows_min: 10,
            rows_max: 120,
            null_rate: 0.02,
        }
    }
}

/// A generated domain corpus: the source catalog plus exact ground truth.
#[derive(Debug)]
pub struct GeneratedDomain {
    /// Which domain this is.
    pub domain: Domain,
    /// The concept inventory the corpus was generated from (usually
    /// `domain.concepts()`, but custom inventories are supported for
    /// stress experiments).
    pub concepts: Vec<ConceptSpec>,
    /// The source tables.
    pub catalog: Catalog,
    /// Attribute→concept oracle.
    pub truth: GroundTruth,
}

/// Generate a domain corpus deterministically from the seed.
pub fn generate(domain: Domain, cfg: &GenConfig) -> GeneratedDomain {
    generate_with_concepts(domain, domain.concepts(), cfg)
}

/// Generate a corpus from a custom concept inventory (e.g. the Example 2.1
/// ambiguity stress corpus), labeled as `domain` for bookkeeping.
pub fn generate_with_concepts(
    domain: Domain,
    concepts: Vec<ConceptSpec>,
    cfg: &GenConfig,
) -> GeneratedDomain {
    assert!(
        cfg.rows_min >= 1 && cfg.rows_min <= cfg.rows_max,
        "bad row range"
    );
    assert!(
        cfg.universe_size >= cfg.rows_max,
        "universe must cover the largest source"
    );
    assert!(!concepts.is_empty(), "need at least one concept");
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ domain_salt(domain));
    let n_sources = cfg
        .n_sources
        .unwrap_or_else(|| domain.default_source_count());

    // Entity universe: one value per (entity, concept). Stringly conversion
    // happens per source, so generate pure numerics here.
    let universe: Vec<Vec<Value>> = (0..cfg.universe_size)
        .map(|_| {
            concepts
                .iter()
                .map(|c| purify(c.value).generate(&mut rng))
                .collect()
        })
        .collect();

    let mut catalog = Catalog::new();
    let mut per_source_truth: Vec<BTreeMap<String, String>> = Vec::with_capacity(n_sources);
    let entity_indices: Vec<usize> = (0..cfg.universe_size).collect();

    let required = domain.required_groups();
    for s in 0..n_sources {
        // 1. Pick the concepts this source covers.
        let mut chosen: Vec<usize> = (0..concepts.len())
            .filter(|&i| {
                let pop = concepts.get(i).map(|c| c.popularity).unwrap_or(0.0);
                rng.gen_bool(pop)
            })
            .collect();
        if chosen.len() < 2 {
            chosen = vec![0, 1.min(concepts.len() - 1)];
            chosen.dedup();
        }
        // Enforce the Table 1 keyword filter: the paper's corpus only
        // contains tables matching the domain keywords, so every source
        // covers at least one concept from each required group. (Custom
        // inventories may not know the groups' keys; missing keys are
        // ignored.)
        for group in required {
            let satisfied = chosen
                .iter()
                .any(|&i| concepts.get(i).is_some_and(|c| group.contains(&c.key)));
            if !satisfied {
                if let Some(pick) = group
                    .iter()
                    .filter_map(|k| concepts.iter().position(|c| c.key == *k))
                    .max_by(|&a, &b| {
                        let pa = concepts.get(a).map(|c| c.popularity).unwrap_or(0.0);
                        let pb = concepts.get(b).map(|c| c.popularity).unwrap_or(0.0);
                        pa.partial_cmp(&pb).unwrap_or(std::cmp::Ordering::Equal)
                    })
                {
                    chosen.push(pick);
                    chosen.sort_unstable();
                    chosen.dedup();
                }
            }
        }

        // 2. Pick one attribute-name variant per concept, avoiding
        // duplicate names within the source (two concepts may share a
        // variant like `phone`; only one of them can use it here).
        let mut attrs: Vec<(usize, String)> = Vec::with_capacity(chosen.len());
        let mut used: Vec<&str> = Vec::new();
        for &ci in &chosen {
            let Some(c) = concepts.get(ci) else { continue };
            if let Some(v) = pick_variant(c, &used, &mut rng) {
                used.push(v);
                attrs.push((ci, v.to_owned()));
            }
            // All variants taken → the concept is skipped for this source.
        }

        // 3. Decide per-source stringly storage for numeric concepts.
        let stringly: Vec<bool> = attrs
            .iter()
            .map(|&(ci, _)| match concepts.get(ci).map(|c| c.value) {
                Some(ValueKind::IntRange { stringly, .. }) => rng.gen_bool(stringly),
                _ => false,
            })
            .collect();

        // 4. Sample entities and project them onto the chosen concepts.
        let n_rows = rng.gen_range(cfg.rows_min..=cfg.rows_max);
        let rows: Vec<usize> = entity_indices
            .choose_multiple(&mut rng, n_rows)
            .copied()
            .collect();
        let mut table = Table::new(
            format!("{}_{s:03}", domain.name().to_lowercase()),
            attrs.iter().map(|(_, a)| a.clone()),
        );
        for &e in &rows {
            let row: Vec<Value> = attrs
                .iter()
                .zip(&stringly)
                .map(|(&(ci, _), &as_text)| {
                    if rng.gen_bool(cfg.null_rate) {
                        return Value::Null;
                    }
                    let v = universe
                        .get(e)
                        .and_then(|row| row.get(ci))
                        .cloned()
                        .unwrap_or(Value::Null);
                    if as_text {
                        Value::text(v.to_string())
                    } else {
                        v
                    }
                })
                .collect();
            // udi-audit: allow(effect-cert, "row is built by mapping the table's own attrs, so the arity always matches")
            table.push_row(row).expect("arity by construction");
        }
        // Generated corpora are bounded far below the u32 id space; if
        // registration is ever refused the loop stops emitting instead of
        // desynchronizing the catalog from the per-source ground truth.
        if catalog.add_source(table).is_err() {
            break;
        }
        per_source_truth.push(
            attrs
                .into_iter()
                .map(|(ci, a)| {
                    let key = concepts
                        .get(ci)
                        .map(|c| c.key.to_owned())
                        .unwrap_or_default();
                    (a, key)
                })
                .collect(),
        );
    }

    let truth = GroundTruth::new(
        per_source_truth,
        concepts.iter().map(|c| c.key.to_owned()).collect(),
    );
    GeneratedDomain {
        domain,
        concepts,
        catalog,
        truth,
    }
}

/// Variant weights decay as `1/(rank+1)`: the canonical label is the most
/// common but alternatives remain well represented — the heterogeneity that
/// separates UDI (which clusters the variants) from the `Source` baseline
/// (which needs exact matches).
fn pick_variant<'a>(c: &ConceptSpec, used: &[&str], rng: &mut StdRng) -> Option<&'a str>
where
    'static: 'a,
{
    // Each variant carries its rank through the filter, so the weight
    // needs no second scan over `c.variants`.
    let available: Vec<(usize, &'static str)> = c
        .variants
        .iter()
        .copied()
        .enumerate()
        .filter(|(_, v)| !used.contains(v))
        .collect();
    if available.is_empty() {
        return None;
    }
    let weights: Vec<f64> = available
        .iter()
        .map(|&(rank, _)| 1.0 / (rank + 1) as f64)
        .collect();
    let total: f64 = weights.iter().sum();
    let mut roll = rng.gen_range(0.0..total);
    for (&(_, v), w) in available.iter().zip(&weights) {
        if roll < *w {
            return Some(v);
        }
        roll -= w;
    }
    available.last().map(|&(_, v)| v)
}

/// Strip per-source randomness from the universe generator (stringly
/// storage is a per-source property, not a per-entity one).
fn purify(v: ValueKind) -> ValueKind {
    match v {
        ValueKind::IntRange { min, max, .. } => ValueKind::IntRange {
            min,
            max,
            stringly: 0.0,
        },
        other => other,
    }
}

fn domain_salt(d: Domain) -> u64 {
    match d {
        Domain::Movie => 0x4d4f,
        Domain::Car => 0x4341,
        Domain::People => 0x5045,
        Domain::Course => 0x434f,
        Domain::Bib => 0x4249,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(domain: Domain, n: usize) -> GeneratedDomain {
        generate(
            domain,
            &GenConfig {
                n_sources: Some(n),
                ..GenConfig::default()
            },
        )
    }

    #[test]
    fn respects_source_count_and_row_bounds() {
        let g = small(Domain::Movie, 40);
        assert_eq!(g.catalog.source_count(), 40);
        for (_, t) in g.catalog.iter_sources() {
            assert!((10..=120).contains(&t.row_count()), "{}", t.name());
            assert!(t.arity() >= 2);
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let a = small(Domain::Bib, 20);
        let b = small(Domain::Bib, 20);
        for ((_, ta), (_, tb)) in a.catalog.iter_sources().zip(b.catalog.iter_sources()) {
            assert_eq!(ta.attributes(), tb.attributes());
            assert_eq!(ta.to_rows(), tb.to_rows());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = small(Domain::Car, 10);
        let b = generate(
            Domain::Car,
            &GenConfig {
                n_sources: Some(10),
                seed: 999,
                ..GenConfig::default()
            },
        );
        let schema_a: Vec<Vec<String>> = a
            .catalog
            .iter_sources()
            .map(|(_, t)| t.attributes().to_vec())
            .collect();
        let schema_b: Vec<Vec<String>> = b
            .catalog
            .iter_sources()
            .map(|(_, t)| t.attributes().to_vec())
            .collect();
        assert_ne!(schema_a, schema_b);
    }

    #[test]
    fn every_source_satisfies_the_table_1_keyword_filter() {
        for domain in Domain::all() {
            let g = small(domain, 50);
            for src in 0..50 {
                for group in domain.required_groups() {
                    assert!(
                        group
                            .iter()
                            .any(|k| g.truth.source_attr_for(src, k).is_some()),
                        "{domain:?} source {src} violates required group {group:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn truth_covers_every_attribute() {
        let g = small(Domain::Course, 30);
        for (sid, t) in g.catalog.iter_sources() {
            for a in t.attributes() {
                assert!(
                    g.truth.source_concept(sid.0 as usize, a).is_some(),
                    "source {sid} attr {a}"
                );
            }
        }
    }

    #[test]
    fn canonical_variant_is_frequent() {
        let g = small(Domain::Bib, 100);
        // `author` must clear the 10% frequency threshold by a wide margin.
        assert!(g.catalog.attribute_frequency("author") > 0.4);
        // Mandatory concepts are present in every source under some name.
        for src in 0..100 {
            assert!(
                g.truth.source_attr_for(src, "author").is_some(),
                "source {src}"
            );
        }
    }

    #[test]
    fn sources_share_entities() {
        let g = small(Domain::Movie, 12);
        // Count distinct titles across sources; with a 300-entity universe
        // and 12 sources × ≥10 rows there must be collisions.
        let mut counts: std::collections::HashMap<std::sync::Arc<str>, usize> = Default::default();
        for (sid, t) in g.catalog.iter_sources() {
            let Some(attr) = g.truth.source_attr_for(sid.0 as usize, "movie") else {
                continue;
            };
            let col = t.attribute_index(attr).unwrap();
            let mut seen = std::collections::HashSet::new();
            for v in t.column(col).unwrap() {
                if let Value::Text(s) = v {
                    if seen.insert(s.clone()) {
                        *counts.entry(s.clone()).or_insert(0) += 1;
                    }
                }
            }
        }
        assert!(
            counts.values().any(|&c| c >= 2),
            "some movie must appear in two sources"
        );
    }

    #[test]
    fn people_benchmark_corpus_has_no_per_source_ambiguity() {
        // Genuine shared-label ambiguity is exercised by the hand-built
        // Example 2.1 fixtures, not the benchmark corpus (see spec.rs).
        let g = small(Domain::People, 60);
        for name in g.truth.attribute_names() {
            assert!(!g.truth.is_ambiguous(name), "{name} is ambiguous");
        }
    }

    #[test]
    fn no_duplicate_attribute_names_within_a_source() {
        let g = small(Domain::People, 80);
        for (_, t) in g.catalog.iter_sources() {
            let set: std::collections::HashSet<_> = t.attributes().iter().collect();
            assert_eq!(set.len(), t.arity(), "{}", t.name());
        }
    }

    #[test]
    fn stringly_enrollment_exists_in_course() {
        let g = small(Domain::Course, 80);
        let mut text = 0;
        let mut int = 0;
        for (sid, t) in g.catalog.iter_sources() {
            let Some(attr) = g.truth.source_attr_for(sid.0 as usize, "enrollment") else {
                continue;
            };
            let col = t.attribute_index(attr).unwrap();
            for v in t.column(col).unwrap() {
                match v {
                    Value::Text(_) => text += 1,
                    Value::Int(_) => int += 1,
                    _ => {}
                }
            }
        }
        assert!(text > 0, "some sources must store enrollment as text");
        assert!(int > 0, "some sources must store enrollment as numbers");
    }
}
