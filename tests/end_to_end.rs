//! End-to-end integration tests: full automatic setup and evaluation on
//! every domain at reduced scale.

use udi::baselines::{Integrator, SourceDirect, TopMapping, Udi};
use udi::datagen::Domain;
use udi::eval::harness::prepare;

fn scale_for(domain: Domain) -> usize {
    // Enough sources for stable statistics, small enough for CI.
    (domain.default_source_count() / 10).max(20)
}

#[test]
fn every_domain_configures_and_answers_well() {
    for domain in Domain::all() {
        let d = prepare(domain, Some(scale_for(domain)), 2008).expect("setup");
        let golden = d.golden_rows();
        let m = d.evaluate(&Udi(&d.udi), &golden);
        assert!(
            m.f_measure() > 0.72,
            "{}: UDI F-measure too low: {m:?}",
            domain.name()
        );
        assert!(m.recall > 0.6, "{}: recall {m:?}", domain.name());
    }
}

#[test]
fn udi_recall_dominates_source_everywhere() {
    for domain in Domain::all() {
        let d = prepare(domain, Some(scale_for(domain)), 2008).expect("setup");
        let golden = d.golden_rows();
        let udi = d.evaluate(&Udi(&d.udi), &golden);
        let source = d.evaluate(&SourceDirect::new(&d.gen.catalog), &golden);
        assert!(
            udi.recall >= source.recall - 1e-9,
            "{}: UDI {udi:?} vs Source {source:?}",
            domain.name()
        );
    }
}

#[test]
fn top_mapping_answers_are_a_subset_of_udi_answers() {
    let d = prepare(Domain::Movie, Some(30), 7).expect("setup");
    let tm = TopMapping::new(&d.udi);
    for q in &d.queries {
        let top: Vec<_> = tm.answer(q).combined();
        let full = d.udi.answer(q).combined();
        for t in &top {
            assert!(
                full.iter().any(|u| u.values == t.values),
                "top-mapping answer missing from full UDI: {q}"
            );
        }
    }
}

#[test]
fn setup_is_deterministic() {
    let a = prepare(Domain::Bib, Some(40), 99).expect("setup");
    let b = prepare(Domain::Bib, Some(40), 99).expect("setup");
    assert_eq!(a.udi.pmed().len(), b.udi.pmed().len());
    for ((ma, pa), (mb, pb)) in a.udi.pmed().schemas().iter().zip(b.udi.pmed().schemas()) {
        assert_eq!(ma, mb);
        assert!((pa - pb).abs() < 1e-12);
    }
    assert_eq!(a.queries, b.queries);
    for q in &a.queries {
        let ra = a.udi.answer(q).combined();
        let rb = b.udi.answer(q).combined();
        assert_eq!(ra.len(), rb.len());
        for (x, y) in ra.iter().zip(&rb) {
            assert_eq!(x.values, y.values);
            assert!((x.probability - y.probability).abs() < 1e-12);
        }
    }
}

#[test]
fn bib_reproduces_figure_3_uncertainty() {
    // The issue/issn uncertain edge must yield (at least) two possible
    // mediated schemas: one grouping issue with issn, one keeping it apart.
    let d = prepare(Domain::Bib, Some(65), 2008).expect("setup");
    let vocab = d.udi.schema_set().vocab();
    let issue = vocab.id_of("issue").expect("issue occurs");
    let issn = vocab.id_of("issn").expect("issn occurs");
    let mut merged = 0.0;
    let mut split = 0.0;
    for (m, p) in d.udi.pmed().schemas() {
        match (m.cluster_of(issue), m.cluster_of(issn)) {
            (Some(a), Some(b)) if a == b => merged += p,
            (Some(_), Some(_)) => split += p,
            _ => {}
        }
    }
    assert!(merged > 0.0, "some schema groups issue with issn");
    assert!(split > 0.0, "some schema keeps issue apart");
    // Many sources contain both labels, so the split must be favored.
    assert!(split > merged, "split {split} vs merged {merged}");
}

#[test]
fn answer_probabilities_are_valid_and_ranked() {
    let d = prepare(Domain::Car, Some(50), 3).expect("setup");
    for q in &d.queries {
        let combined = d.udi.answer(&q.clone()).combined();
        let mut prev = f64::INFINITY;
        for t in &combined {
            assert!(t.probability > 0.0 && t.probability <= 1.0 + 1e-9, "{q}");
            assert!(
                t.probability <= prev + 1e-12,
                "ranking must be descending: {q}"
            );
            prev = t.probability;
        }
    }
}

#[test]
fn course_domain_exhibits_the_stringly_precision_artifact() {
    // Somewhere in the Course corpus a numeric comparison on a text column
    // must produce an incorrect answer for the Source baseline — §7.3's
    // explanation for Source's sub-1 precision in Course.
    use udi::query::{execute, parse_query};
    use udi::store::Value;
    let d = prepare(Domain::Course, Some(65), 2008).expect("setup");
    let mut artifact = false;
    'outer: for (sid, t) in d.gen.catalog.iter_sources() {
        let Some(attr) = d.gen.truth.source_attr_for(sid.0 as usize, "enrollment") else {
            continue;
        };
        let col = t.attribute_index(attr).unwrap();
        let has_text_number = t
            .column(col)
            .unwrap()
            .iter()
            .any(|v| matches!(v, Value::Text(_)));
        if !has_text_number {
            continue;
        }
        let sql = format!("SELECT \"{attr}\" FROM T WHERE \"{attr}\" > 50");
        let q = parse_query(&sql).unwrap();
        let columns = q.columns(|a| t.attribute_index(a)).unwrap();
        for (_, r) in execute(t, &q, &columns) {
            if let Some(v) = r[0].as_f64() {
                if v <= 50.0 {
                    continue;
                }
            }
            if let Value::Text(s) = &r[0] {
                if s.parse::<f64>().map(|v| v <= 50.0).unwrap_or(false) {
                    artifact = true; // e.g. "9" > 50 lexicographically
                    break 'outer;
                }
            }
        }
    }
    assert!(
        artifact,
        "expected at least one lexicographic numeric artifact"
    );
}
