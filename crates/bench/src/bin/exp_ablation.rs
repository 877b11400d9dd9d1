//! Extension experiment: ablations of UDI's three load-bearing design
//! choices.
//!
//! 1. **Maximum entropy vs uniform** p-mapping probabilities (§5.2 argues
//!    for the distribution "that does not introduce new information").
//! 2. **Consistency-based (Algorithm 2) vs uniform** mediated-schema
//!    probabilities.
//! 3. **Similarity measure**: the default normalized hybrid vs plain
//!    Jaro–Winkler (the paper's setup) vs Levenshtein vs trigram Jaccard.
//!
//! Each ablation runs the Bib domain (the one with real schema
//! uncertainty) and reports Table 2-style metrics against the true golden
//! standard.

use udi_bench::{ambiguous_people_concepts, banner, fmt_prf, seed, sources_for};
use udi_core::{MeasureKind, UdiConfig, UdiSystem};
use udi_datagen::{generate, generate_with_concepts, Domain, GenConfig};
use udi_eval::{
    generate_workload, precision_at_recall, rp_curve, score, GoldenIntegrator, Metrics,
};
use udi_maxent::CorrespondenceSet;
use udi_query::Query;
use udi_schema::{
    assign_probabilities, build_p_med_schema, build_similarity_graph, enumerate_mediated_schemas,
    weighted_correspondences, Mapping, MediatedSchema, PMapping, PMedSchema, SchemaSet,
    SimilarityMatrix, UdiParams,
};
use udi_similarity::AttributeSimilarity;

fn evaluate(udi: &UdiSystem, gen: &udi_datagen::GeneratedDomain, queries: &[Query]) -> Metrics {
    let golden = GoldenIntegrator::new(&gen.catalog, &gen.truth);
    let per_query: Vec<Metrics> = queries
        .iter()
        .map(|q| {
            let rows = golden.golden_rows(q);
            score(udi.answer(q).flat(), rows.iter())
        })
        .collect();
    Metrics::average(&per_query)
}

/// Ranking quality: mean interpolated precision over ten recall levels,
/// averaged across workload queries. Unlike flat precision/recall (which
/// only sees *which* tuples have nonzero probability), this metric is
/// sensitive to how probability mass is assigned — the thing the
/// max-entropy and Algorithm 2 choices actually control.
fn ranking_quality(udi: &UdiSystem, gen: &udi_datagen::GeneratedDomain, queries: &[Query]) -> f64 {
    let golden = GoldenIntegrator::new(&gen.catalog, &gen.truth);
    let levels: Vec<f64> = (1..=10).map(|k| k as f64 / 10.0).collect();
    let mut total = 0.0;
    let mut n = 0;
    for q in queries {
        let rows = golden.golden_rows(q);
        if rows.is_empty() {
            continue;
        }
        let curve = rp_curve(&udi.answer(q).combined(), &rows);
        total += levels
            .iter()
            .map(|&r| precision_at_recall(&curve, r))
            .sum::<f64>()
            / levels.len() as f64;
        n += 1;
    }
    total / n.max(1) as f64
}

/// Build a schema set mirroring the catalog.
fn schema_set(gen: &udi_datagen::GeneratedDomain) -> SchemaSet {
    let mut set = SchemaSet::default();
    for (_, t) in gen.catalog.iter_sources() {
        set.add_source(t.name(), t.attributes().iter().map(String::as_str));
    }
    set
}

/// Uniform-probability p-mapping: same candidate mappings as max-entropy,
/// equal probabilities.
fn uniform_pmapping(
    source: &udi_schema::SourceSchema,
    med: &MediatedSchema,
    matrix: &SimilarityMatrix<'_>,
    params: &UdiParams,
) -> PMapping {
    let raw = weighted_correspondences(source, med, matrix, params);
    let corrs = CorrespondenceSet::normalized(raw).expect("valid");
    let matchings = udi_maxent::enumerate_matchings(&corrs, params.mapping_cap).expect("under cap");
    let p = 1.0 / matchings.len() as f64;
    let list = corrs.correspondences();
    let mappings: Vec<(Mapping, f64)> = matchings
        .iter()
        .map(|m| {
            (
                Mapping::new(
                    m.iter()
                        .map(|&c| (source.attrs[list[c].source], list[c].target)),
                ),
                p,
            )
        })
        .collect();
    PMapping::new(mappings)
}

fn main() {
    banner("Extension: design-choice ablations (true golden standard)");
    // Ablations 1 & 2 run on the Example 2.1 ambiguity corpus — the regime
    // where probability assignment matters; the measure ablation (3) runs
    // on the Bib benchmark corpus.
    let gen = generate_with_concepts(
        Domain::People,
        ambiguous_people_concepts(),
        &GenConfig {
            n_sources: Some(49),
            seed: seed(),
            ..GenConfig::default()
        },
    );
    let queries = generate_workload(&gen, 12, seed().wrapping_add(1));
    let params = UdiParams::default();

    // Reference system.
    let reference = UdiSystem::setup(gen.catalog.clone(), UdiConfig::default()).expect("setup");
    println!("\n## 1. p-mapping probabilities");
    println!(
        "{:<22} {:>9} {:>9} {:>9} {:>9}",
        "Variant", "Precision", "Recall", "F-measure", "RankP"
    );
    println!(
        "{:<22} {} {:>9.3}",
        "max-entropy (UDI)",
        fmt_prf(evaluate(&reference, &gen, &queries)),
        ranking_quality(&reference, &gen, &queries)
    );

    // Ablation 1: uniform p-mappings over the same candidate sets.
    let set = schema_set(&gen);
    let sim = AttributeSimilarity::default();
    let matrix = SimilarityMatrix::new(set.vocab(), &sim);
    let pmed = build_p_med_schema(&set, &sim, &params).expect("p-med-schema");
    let pmappings: Vec<Vec<PMapping>> = set
        .sources()
        .iter()
        .map(|s| {
            pmed.schemas()
                .iter()
                .map(|(m, _)| uniform_pmapping(s, m, &matrix, &params))
                .collect()
        })
        .collect();
    let uniform_pm =
        UdiSystem::from_parts(gen.catalog.clone(), pmed.clone(), pmappings).expect("assemble");
    println!(
        "{:<22} {} {:>9.3}",
        "uniform",
        fmt_prf(evaluate(&uniform_pm, &gen, &queries)),
        ranking_quality(&uniform_pm, &gen, &queries)
    );

    // Ablation 2: uniform schema probabilities (skip Algorithm 2).
    println!("\n## 2. mediated-schema probabilities");
    println!(
        "{:<22} {:>9} {:>9} {:>9} {:>9}",
        "Variant", "Precision", "Recall", "F-measure", "RankP"
    );
    println!(
        "{:<22} {} {:>9.3}",
        "consistency (Alg. 2)",
        fmt_prf(evaluate(&reference, &gen, &queries)),
        ranking_quality(&reference, &gen, &queries)
    );
    let graph = build_similarity_graph(&set, &sim, &params);
    let schemas = enumerate_mediated_schemas(&graph, &params);
    let n = schemas.len();
    let uniform_weighted: Vec<(MediatedSchema, f64)> =
        schemas.into_iter().map(|m| (m, 1.0 / n as f64)).collect();
    // Sanity: Algorithm 2 would have produced different weights.
    let alg2 = assign_probabilities(
        uniform_weighted.iter().map(|(m, _)| m.clone()).collect(),
        &set,
    );
    assert!(alg2.len() <= n);
    let pmed_uniform = PMedSchema::new(uniform_weighted);
    let pmappings: Vec<Vec<PMapping>> = set
        .sources()
        .iter()
        .map(|s| {
            pmed_uniform
                .schemas()
                .iter()
                .map(|(m, _)| {
                    udi_schema::generate_pmapping(s, m, &matrix, &params).expect("p-mapping")
                })
                .collect()
        })
        .collect();
    let uniform_schema =
        UdiSystem::from_parts(gen.catalog.clone(), pmed_uniform, pmappings).expect("assemble");
    println!(
        "{:<22} {} {:>9.3}",
        "uniform",
        fmt_prf(evaluate(&uniform_schema, &gen, &queries)),
        ranking_quality(&uniform_schema, &gen, &queries)
    );

    // Ablation 3: similarity measures, on the Bib benchmark corpus.
    let domain = Domain::Bib;
    let gen = generate(
        domain,
        &GenConfig {
            n_sources: Some(sources_for(domain)),
            seed: seed(),
            ..GenConfig::default()
        },
    );
    let queries = generate_workload(&gen, 10, seed().wrapping_add(1));
    println!("\n## 3. similarity measure (Bib domain)");
    println!(
        "{:<22} {:>9} {:>9} {:>9}",
        "Measure", "Precision", "Recall", "F-measure"
    );
    for kind in [
        MeasureKind::Default,
        MeasureKind::JaroWinkler,
        MeasureKind::Levenshtein,
        MeasureKind::TrigramJaccard,
        MeasureKind::TokenHybrid,
    ] {
        let config = UdiConfig {
            measure: kind,
            ..UdiConfig::default()
        };
        match UdiSystem::setup(gen.catalog.clone(), config) {
            Ok(udi) => {
                println!(
                    "{:<22} {}",
                    format!("{kind:?}"),
                    fmt_prf(evaluate(&udi, &gen, &queries))
                )
            }
            Err(e) => println!("{:<22} setup failed: {e}", format!("{kind:?}")),
        }
    }
    println!(
        "\nExpected shape: max-entropy and Algorithm 2 each beat their uniform \
         ablations (they concentrate probability on consistent hypotheses); \
         measures differ mainly in recall (how many name variants they \
         unify). The probability ablations show up in RankP — flat P/R only \
         sees which tuples are possible, not how mass is assigned."
    );
    println!("peak RSS: {}", udi_obs::fmt_rss(udi_obs::peak_rss_bytes()));
}
