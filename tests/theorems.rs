//! Executable versions of the paper's theorems (Sections 3, 5 and 6).

use udi::core::UdiSystem;
use udi::maxent::{
    enumerate_matchings, solve_max_entropy, Correspondence, CorrespondenceSet, MaxEntConfig,
};
use udi::query::parse_query;
use udi::schema::{AttrId, Mapping, MediatedSchema, PMapping, PMedSchema};
use udi::store::{Catalog, Table};

use proptest::prelude::*;

/// Theorem 3.4(1): any (p-med-schema, one-to-one p-mappings) pair can be
/// represented by a single deterministic mediated schema with one-to-many
/// p-mappings. The proof's construction is exactly our consolidation
/// algorithm with all-singleton refinement; here we check the observable
/// consequence — query answers are preserved — on the paper's own example.
#[test]
fn theorem_3_4_subsumption_construction_preserves_answers() {
    // Source S(a, b); p-med-schema M1 = ({a},{b}) 0.7, M2 = ({a,b}) 0.3.
    let mut catalog = Catalog::new();
    let mut s = Table::new("S", ["a", "b"]);
    s.push_raw_row(["x1", "x2"]).unwrap();
    catalog.add_source(s).unwrap();
    let (a, b) = (AttrId(0), AttrId(1));
    let m1 = MediatedSchema::from_slices(&[&[a], &[b]]);
    let m2 = MediatedSchema::from_slices(&[&[a, b]]);
    let pmed = PMedSchema::new(vec![(m1.clone(), 0.7), (m2.clone(), 0.3)]);
    let pm1 = PMapping::new(vec![(Mapping::new([(a, 0), (b, 1)]), 1.0)]);
    let pm2 = PMapping::new(vec![(Mapping::new([(a, 0)]), 1.0)]);
    let udi = UdiSystem::from_parts(catalog, pmed, vec![vec![pm1, pm2]]).unwrap();

    // The consolidated schema is deterministic (the theorem's T)...
    assert_eq!(
        udi.consolidated().len(),
        2,
        "T has singleton clusters {{a}}, {{b}}"
    );
    // ...its p-mapping is one-to-many (a maps to both clusters under M2)...
    assert!(udi
        .consolidated_pmapping(0)
        .mappings()
        .iter()
        .any(|(m, _)| !m.is_one_to_one() && !m.is_empty()));
    // ...and answers are identical for all queries.
    for sql in ["SELECT a FROM T", "SELECT b FROM T", "SELECT a, b FROM T"] {
        let q = parse_query(sql).unwrap();
        let direct = udi.answer_with_pmed(&q).combined();
        let cons = udi.answer(&q).combined();
        assert_eq!(direct.len(), cons.len(), "{sql}");
        for (x, y) in direct.iter().zip(&cons) {
            assert_eq!(x.values, y.values, "{sql}");
            assert!((x.probability - y.probability).abs() < 1e-9, "{sql}");
        }
    }
}

/// Theorem 3.5's witness: with one-to-one mappings only, the p-med-schema
/// `M = {M1: ({a1},{a2}) 0.7, M2: ({a1,a2}) 0.3}` cannot be represented by
/// any single mediated schema T. We verify the three behaviours the
/// appendix proof derives, which jointly rule every T out:
/// SELECT a1,a2 must return the mixed tuple (x1,x2); SELECT a1 must return
/// (x1) with probability 1; SELECT a2 must return (x1) with probability .3.
#[test]
fn theorem_3_5_expressive_power_witness() {
    let mut catalog = Catalog::new();
    let mut s = Table::new("S", ["a1", "a2"]);
    s.push_raw_row(["x1", "x2"]).unwrap();
    catalog.add_source(s).unwrap();
    let (a1, a2) = (AttrId(0), AttrId(1));
    let m1 = MediatedSchema::from_slices(&[&[a1], &[a2]]);
    let m2 = MediatedSchema::from_slices(&[&[a1, a2]]);
    let pmed = PMedSchema::new(vec![(m1, 0.7), (m2, 0.3)]);
    // pM1 maps both attributes; pM2 maps A3 = {a1, a2} to a1.
    let pm1 = PMapping::new(vec![(Mapping::new([(a1, 0), (a2, 1)]), 1.0)]);
    let pm2 = PMapping::new(vec![(Mapping::new([(a1, 0)]), 1.0)]);
    let udi = UdiSystem::from_parts(catalog, pmed, vec![vec![pm1, pm2]]).unwrap();

    // Q1: the pair (x1, x2) is an answer (T with a1,a2 in one cluster
    // could never produce it).
    let q1 = parse_query("SELECT a1, a2 FROM T").unwrap();
    let ans = udi.answer_with_pmed(&q1).combined();
    assert!(ans
        .iter()
        .any(|t| t.values[0].to_string() == "x1" && t.values[1].to_string() == "x2"));

    // Q2: (x1) with probability 1 (so a1 must always map "left").
    let q2 = parse_query("SELECT a1 FROM T").unwrap();
    let ans = udi.answer_with_pmed(&q2).combined();
    assert_eq!(ans.len(), 1);
    assert!((ans[0].probability - 1.0).abs() < 1e-9);

    // Q3: a2 returns (x1) with probability .3 — the contradiction the proof
    // derives for any single T with one-to-one mappings.
    let q3 = parse_query("SELECT a2 FROM T").unwrap();
    let ans = udi.answer_with_pmed(&q3).combined();
    let p_x1: f64 = ans
        .iter()
        .filter(|t| t.values[0].to_string() == "x1")
        .map(|t| t.probability)
        .sum();
    assert!((p_x1 - 0.3).abs() < 1e-9, "got {p_x1}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Theorem 5.2: after normalization, every weighted-correspondence set
    /// admits a consistent p-mapping — and the max-entropy solution is one:
    /// for every correspondence, the mappings containing it carry exactly
    /// its weight (Definition 5.1).
    #[test]
    fn theorem_5_2_normalized_correspondences_admit_consistent_pmapping(
        edges in proptest::collection::vec((0usize..4, 0usize..4, 0.05f64..2.0), 1..9)
    ) {
        let mut seen = std::collections::HashSet::new();
        let raw: Vec<Correspondence> = edges
            .into_iter()
            .filter(|(s, t, _)| seen.insert((*s, *t)))
            .map(|(s, t, w)| Correspondence::new(s, t, w))
            .collect();
        let set = CorrespondenceSet::normalized(raw).unwrap();
        prop_assume!(!set.is_empty());
        let matchings = enumerate_matchings(&set, 100_000).unwrap();
        let targets: Vec<f64> = set.correspondences().iter().map(|c| c.weight).collect();
        let sol = solve_max_entropy(set.len(), &matchings, &targets, &MaxEntConfig::default())
            .expect("Theorem 5.2 guarantees feasibility");
        // Definition 5.1 consistency, constraint by constraint.
        for (c, &w) in targets.iter().enumerate() {
            let mass: f64 = matchings
                .iter()
                .zip(&sol.probabilities)
                .filter(|(m, _)| m.contains(&c))
                .map(|(_, &p)| p)
                .sum();
            prop_assert!((mass - w).abs() < 1e-3, "corr {}: {} vs {}", c, mass, w);
        }
        // And it is a probability distribution.
        let total: f64 = sol.probabilities.iter().sum();
        prop_assert!((total - 1.0).abs() < 1e-9);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Theorem 6.2 as a property test: for randomly generated catalogs,
    /// automatically configured systems answer every projection query the
    /// same over the p-med-schema and over the consolidated schema.
    #[test]
    fn theorem_6_2_consolidation_preserves_answers(
        seed in 0u64..500,
        n_sources in 3usize..8,
    ) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        // Random sources over a small attribute pool with near-threshold
        // names to provoke multi-schema p-med-schemas.
        let pool = ["name", "phone", "phone no", "tel", "addr", "address", "year", "yr"];
        let mut catalog = Catalog::new();
        for i in 0..n_sources {
            let mut attrs: Vec<&str> = pool
                .iter()
                .copied()
                .filter(|_| rng.gen_bool(0.5))
                .collect();
            if attrs.len() < 2 {
                attrs = vec!["name", "phone"];
            }
            let mut t = Table::new(format!("s{i}"), attrs.clone());
            for r in 0..3 {
                let row: Vec<String> =
                    attrs.iter().map(|a| format!("{a}-{r}-{}", rng.gen_range(0..4))).collect();
                t.push_raw_row(row).unwrap();
            }
            catalog.add_source(t).unwrap();
        }
        let udi = match UdiSystem::setup(catalog, Default::default()) {
            Ok(u) => u,
            Err(_) => return Ok(()), // explosion on adversarial input: fine
        };
        for attr in ["name", "phone", "address", "year"] {
            let q = parse_query(&format!("SELECT {attr} FROM T")).unwrap();
            let mut a = udi.answer(&q).combined();
            let mut b = udi.answer_with_pmed(&q).combined();
            // `combined()` ranks by probability with arbitrary tie order;
            // answer equality is as a set of (tuple, probability) pairs.
            a.sort_by(|x, y| x.values.cmp(&y.values));
            b.sort_by(|x, y| x.values.cmp(&y.values));
            prop_assert_eq!(a.len(), b.len(), "attr {}", attr);
            for (x, y) in a.iter().zip(&b) {
                prop_assert_eq!(&x.values, &y.values);
                prop_assert!((x.probability - y.probability).abs() < 1e-9);
            }
        }
    }
}
