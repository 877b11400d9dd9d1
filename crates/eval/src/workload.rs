//! Query-workload generation (§7.1).
//!
//! "For each domain, we chose 10 queries, each containing one to four
//! attributes in the SELECT clause and zero to three predicates in the
//! WHERE clause. ... When we selected the queries, we varied selectivity of
//! the predicates and likelihood of the attributes being mapped correctly
//! to cover all typical cases."

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use udi_datagen::GeneratedDomain;
use udi_query::{CompareOp, Predicate, Query};
use udi_store::Value;

/// Generate a deterministic workload of `n` queries over a generated
/// corpus.
///
/// The paper poses queries over the *exposed* mediated schema, whose
/// representative names are the most frequent labels — i.e. the canonical
/// variant of each concept. The candidate pool is therefore: the canonical
/// variant of every concept (when frequent), plus frequent *ambiguous*
/// labels (`phone`, `address`), which are exactly the attributes "with
/// varied likelihood of being mapped correctly". A query never references
/// two different names of the same concept (no real user would write
/// `SELECT company ... WHERE employer = ...`). Predicate literals are
/// sampled from actual cell values so selectivity varies realistically.
pub fn generate_workload(gen: &GeneratedDomain, n: usize, seed: u64) -> Vec<Query> {
    let mut rng = StdRng::seed_from_u64(seed);
    let pool = attribute_pool(gen);
    assert!(
        !pool.is_empty(),
        "corpus has no frequent canonical attributes"
    );
    let mut queries = Vec::with_capacity(n);
    let mut attempts = 0;
    while queries.len() < n && attempts < n * 50 {
        attempts += 1;
        if let Some(q) = generate_one(gen, &pool, &mut rng) {
            queries.push(q);
        }
    }
    assert_eq!(queries.len(), n, "workload generation starved");
    queries
}

/// `(concept key, attribute name, weight)` candidates. Ambiguous names get
/// a synthetic key covering all their concepts so they never co-occur with
/// a sibling variant. Weights are cubed concept popularities: hand-picked
/// workloads (like the paper's) query the central attributes of a domain
/// far more often than its long tail.
fn attribute_pool(gen: &GeneratedDomain) -> Vec<(String, String, f64)> {
    let mut pool: Vec<(String, String, f64)> = Vec::new();
    for c in &gen.concepts {
        let Some(canonical) = c.variants.first().copied() else {
            continue;
        };
        if gen.catalog.attribute_frequency(canonical) >= 0.10 && !gen.truth.is_ambiguous(canonical)
        {
            pool.push((c.key.to_owned(), canonical.to_owned(), c.popularity.powi(3)));
        }
    }
    // Ambiguous frequent labels, keyed by the union of their concepts.
    let concepts = &gen.concepts;
    for name in gen.truth.attribute_names() {
        if gen.truth.is_ambiguous(name) && gen.catalog.attribute_frequency(name) >= 0.10 {
            let keys: Vec<&str> = gen.truth.concepts_of(name).into_iter().collect();
            let pop = concepts
                .iter()
                .filter(|c| keys.contains(&c.key))
                .map(|c| c.popularity)
                .fold(0.0_f64, f64::max);
            pool.push((keys.join("|"), name.to_owned(), pop.powi(3)));
        }
    }
    pool
}

fn generate_one(
    gen: &GeneratedDomain,
    pool: &[(String, String, f64)],
    rng: &mut StdRng,
) -> Option<Query> {
    let n_select = rng.gen_range(1..=4.min(pool.len()));
    let n_pred = rng.gen_range(0..=3);

    // Weighted sampling without replacement for the select list.
    let mut remaining: Vec<&(String, String, f64)> = pool.iter().collect();
    let mut select: Vec<String> = Vec::new();
    let mut used_keys: Vec<String> = Vec::new();
    while select.len() < n_select && !remaining.is_empty() {
        let total: f64 = remaining.iter().map(|(_, _, w)| w).sum();
        let mut roll = rng.gen_range(0.0..total);
        let mut idx = remaining.len() - 1;
        for (i, (_, _, w)) in remaining.iter().enumerate() {
            if roll < *w {
                idx = i;
                break;
            }
            roll -= w;
        }
        let (key, name, _) = remaining.remove(idx);
        if used_keys.iter().any(|u| overlapping(u, key)) {
            continue;
        }
        used_keys.push(key.clone());
        select.push(name.clone());
    }
    if select.is_empty() {
        return None;
    }

    let mut predicates = Vec::new();
    for _ in 0..n_pred {
        let Some((key, attr, _)) = pool.get(rng.gen_range(0..pool.len())) else {
            continue;
        };
        // A predicate may reuse a select attribute (same name) but must not
        // introduce a different name for an already-referenced concept.
        if !select.contains(attr) && used_keys.iter().any(|u| overlapping(u, key)) {
            continue;
        }
        if !used_keys.contains(key) {
            used_keys.push(key.clone());
        }
        let Some(value) = sample_value(gen, attr, rng) else {
            continue;
        };
        let (op, value) = pick_op(&value, rng);
        predicates.push(Predicate {
            attribute: attr.clone(),
            op,
            value,
        });
    }

    Some(Query {
        select,
        predicates,
        from: "T".to_owned(),
    })
}

/// Two pool keys conflict when they share a concept (an ambiguous key is a
/// `|`-joined union).
fn overlapping(a: &str, b: &str) -> bool {
    a.split('|').any(|x| b.split('|').any(|y| x == y))
}

/// Sample a non-null cell value of some source column named `attr`.
fn sample_value(gen: &GeneratedDomain, attr: &str, rng: &mut StdRng) -> Option<Value> {
    let sources = gen.catalog.sources_with_attribute(attr);
    for _ in 0..8 {
        let sid = *sources.choose(rng)?;
        let table = gen.catalog.source(sid).ok()?;
        if table.row_count() == 0 {
            continue;
        }
        let row = rng.gen_range(0..table.row_count());
        let v = table.cell(row, attr)?;
        if !v.is_null() {
            return Some(v.clone());
        }
    }
    None
}

/// Choose an operator suited to the value type; LIKE patterns are built
/// from a substring of the text value.
fn pick_op(value: &Value, rng: &mut StdRng) -> (CompareOp, Value) {
    match value {
        Value::Int(_) | Value::Float(_) => {
            let ops = [
                CompareOp::Eq,
                CompareOp::Lt,
                CompareOp::Le,
                CompareOp::Gt,
                CompareOp::Ge,
            ];
            {
                let op = ops
                    .get(rng.gen_range(0..ops.len()))
                    .copied()
                    .unwrap_or(CompareOp::Eq);
                (op, value.clone())
            }
        }
        Value::Text(s) => {
            match rng.gen_range(0..4) {
                0 => (CompareOp::Eq, value.clone()),
                1 => (CompareOp::Ne, value.clone()),
                2 => {
                    // LIKE with a word of the value.
                    let words: Vec<&str> = s.split_whitespace().collect();
                    let w = words.choose(rng).copied().unwrap_or(s);
                    (CompareOp::Like, Value::text(format!("%{w}%")))
                }
                _ => {
                    // Range comparison on text exercises the lexicographic
                    // path (including the stringly-number artifact).
                    let ops = [CompareOp::Lt, CompareOp::Ge];
                    {
                        let op = ops
                            .get(rng.gen_range(0..ops.len()))
                            .copied()
                            .unwrap_or(CompareOp::Eq);
                        (op, value.clone())
                    }
                }
            }
        }
        Value::Null => (CompareOp::Eq, Value::Null),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use udi_datagen::{generate, Domain, GenConfig};

    fn corpus() -> GeneratedDomain {
        generate(
            Domain::Movie,
            &GenConfig {
                n_sources: Some(30),
                ..GenConfig::default()
            },
        )
    }

    #[test]
    fn workload_has_requested_size_and_shape() {
        let gen = corpus();
        let qs = generate_workload(&gen, 10, 7);
        assert_eq!(qs.len(), 10);
        for q in &qs {
            assert!((1..=4).contains(&q.select.len()), "{q}");
            assert!(q.predicates.len() <= 3, "{q}");
        }
    }

    #[test]
    fn workload_is_deterministic() {
        let gen = corpus();
        let a = generate_workload(&gen, 10, 7);
        let b = generate_workload(&gen, 10, 7);
        assert_eq!(a, b);
        let c = generate_workload(&gen, 10, 8);
        assert_ne!(a, c, "different seeds should differ");
    }

    #[test]
    fn select_attributes_are_frequent() {
        let gen = corpus();
        let qs = generate_workload(&gen, 10, 3);
        for q in &qs {
            for a in &q.select {
                assert!(
                    gen.catalog.attribute_frequency(a) >= 0.10,
                    "{a} below frequency threshold"
                );
            }
        }
    }

    #[test]
    fn some_queries_have_predicates() {
        let gen = corpus();
        let qs = generate_workload(&gen, 20, 11);
        assert!(qs.iter().any(|q| !q.predicates.is_empty()));
        assert!(qs.iter().any(|q| q.predicates.is_empty()));
    }

    #[test]
    fn predicate_values_come_from_the_data() {
        let gen = corpus();
        let qs = generate_workload(&gen, 20, 5);
        for q in &qs {
            for p in &q.predicates {
                assert!(!p.value.is_null(), "{q}");
            }
        }
    }
}
