//! End-to-end p-mapping generation for one (source, mediated schema) pair
//! (§5.2).

use udi_maxent::{solve_correspondences_cached, CorrespondenceSet, MaxEntError, SolveCache};

use crate::correspondence::{weighted_correspondences, PairSimilarity};
use crate::model::{Mapping, MediatedSchema, PMapping, SourceSchema};
use crate::UdiParams;

/// Generate the maximum-entropy p-mapping between `source` and `med`:
///
/// 1. weighted correspondences (§5.1), thresholded;
/// 2. Theorem 5.2 normalization so a consistent p-mapping exists;
/// 3. one-to-one mapping enumeration and per-group entropy maximization;
/// 4. expansion of the group product into an explicit [`PMapping`].
///
/// Fails with [`MaxEntError::Explosion`] when the number of mappings exceeds
/// `params.mapping_cap` — with the paper's thresholds this does not happen
/// for UDI proper, but it does for the `UnionAll` baseline on Bib-sized
/// schemas (the OOM the paper reports).
pub fn generate_pmapping(
    source: &SourceSchema,
    med: &MediatedSchema,
    matrix: &dyn PairSimilarity,
    params: &UdiParams,
) -> Result<PMapping, MaxEntError> {
    generate_pmapping_cached(source, med, matrix, params, None)
}

/// [`generate_pmapping`] with an optional [`SolveCache`] memoizing the
/// per-group max-entropy solves across calls. Results are bit-identical to
/// the uncached path; only repeated work is skipped. The cache must be used
/// under a single set of solver parameters.
pub fn generate_pmapping_cached(
    source: &SourceSchema,
    med: &MediatedSchema,
    matrix: &dyn PairSimilarity,
    params: &UdiParams,
    cache: Option<&SolveCache>,
) -> Result<PMapping, MaxEntError> {
    let raw = weighted_correspondences(source, med, matrix, params);
    let corrs = CorrespondenceSet::normalized(raw)?;
    let mut cfg = params.maxent.clone();
    cfg.matching_cap = params.mapping_cap;
    let dist = solve_correspondences_cached(&corrs, &cfg, cache)?;
    let joint = dist.expand(params.mapping_cap)?;

    let list = corrs.correspondences();
    let mut mappings: Vec<(Mapping, f64)> = Vec::with_capacity(joint.len());
    let mut total = 0.0;
    for (matching, p) in joint {
        if p <= 1e-12 {
            continue;
        }
        let mapping = Mapping::new(matching.iter().filter_map(|&c| {
            let corr = list.get(c)?;
            Some((source.attrs.get(corr.source).copied()?, corr.target))
        }));
        total += p;
        mappings.push((mapping, p));
    }
    if mappings.is_empty() {
        return Ok(PMapping::new(vec![(Mapping::empty(), 1.0)]));
    }
    // Renormalize away the filtered tail and floating drift.
    for (_, p) in &mut mappings {
        *p /= total;
    }
    Ok(PMapping::new(mappings))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::correspondence::SimilarityMatrix;
    use crate::model::{AttrId, SchemaSet};

    /// Two-source fixture with an exactly controllable similarity measure.
    fn fixture() -> (SchemaSet, UdiParams) {
        let set =
            SchemaSet::from_sources([("donor", vec!["name", "phone"]), ("src", vec!["nm", "tel"])]);
        (
            set,
            UdiParams {
                theta: 0.0,
                ..UdiParams::default()
            },
        )
    }

    fn controlled_sim(a: &str, b: &str) -> f64 {
        if a == b {
            return 1.0;
        }
        match (a.min(b), a.max(b)) {
            ("name", "nm") => 0.9,
            ("phone", "tel") => 0.88,
            _ => 0.1,
        }
    }

    #[test]
    fn clean_correspondences_give_confident_mapping() {
        let (set, params) = fixture();
        let matrix = SimilarityMatrix::new(set.vocab(), &controlled_sim);
        let name = set.vocab().id_of("name").unwrap();
        let phone = set.vocab().id_of("phone").unwrap();
        let med = MediatedSchema::from_slices(&[&[name], &[phone]]);
        let src = &set.sources()[1]; // (nm, tel)
        let pm = generate_pmapping(src, &med, &matrix, &params).unwrap();
        // Weights 0.9 / 0.88 are already feasible: the maxent solution is
        // the independent product.
        let nm = set.vocab().id_of("nm").unwrap();
        let tel = set.vocab().id_of("tel").unwrap();
        let full = Mapping::new([(nm, 0), (tel, 1)]);
        let p_full = pm
            .mappings()
            .iter()
            .find(|(m, _)| m == &full)
            .map(|(_, p)| *p)
            .expect("full mapping present");
        assert!((p_full - 0.9 * 0.88).abs() < 1e-4, "got {p_full}");
        assert_eq!(pm.len(), 4);
    }

    #[test]
    fn probabilities_sum_to_one() {
        let (set, params) = fixture();
        let matrix = SimilarityMatrix::new(set.vocab(), &controlled_sim);
        let name = set.vocab().id_of("name").unwrap();
        let phone = set.vocab().id_of("phone").unwrap();
        let med = MediatedSchema::from_slices(&[&[name], &[phone]]);
        let pm = generate_pmapping(&set.sources()[1], &med, &matrix, &params).unwrap();
        let total: f64 = pm.mappings().iter().map(|(_, p)| p).sum();
        assert!((total - 1.0).abs() < 1e-9);
        assert!(pm
            .mappings()
            .iter()
            .all(|(m, _)| m.is_one_to_one() || m.is_empty()));
    }

    #[test]
    fn no_correspondences_yields_empty_mapping() {
        let (set, params) = fixture();
        // Similarity that never clears the threshold.
        let cold = |_: &str, _: &str| 0.0;
        let matrix = SimilarityMatrix::new(set.vocab(), &cold);
        let name = set.vocab().id_of("name").unwrap();
        let med = MediatedSchema::from_slices(&[&[name]]);
        let pm = generate_pmapping(&set.sources()[1], &med, &matrix, &params).unwrap();
        assert_eq!(pm.len(), 1);
        assert!(pm.mappings()[0].0.is_empty());
        assert_eq!(pm.mappings()[0].1, 1.0);
    }

    #[test]
    fn ambiguous_attribute_splits_probability() {
        // Source attr `phone` equally similar to clusters {hPhone} and
        // {oPhone}: Example 2.1's ambiguity.
        let set =
            SchemaSet::from_sources([("donor", vec!["hPhone", "oPhone"]), ("src", vec!["phone"])]);
        let sim = |a: &str, b: &str| -> f64 {
            if a == b {
                1.0
            } else if (a, b) != ("hPhone", "oPhone") && (a, b) != ("oPhone", "hPhone") {
                0.9 // phone ~ hPhone, phone ~ oPhone
            } else {
                0.1
            }
        };
        let matrix = SimilarityMatrix::new(set.vocab(), &sim);
        let h = set.vocab().id_of("hPhone").unwrap();
        let o = set.vocab().id_of("oPhone").unwrap();
        let med = MediatedSchema::from_slices(&[&[h], &[o]]);
        let params = UdiParams {
            theta: 0.0,
            ..UdiParams::default()
        };
        let pm = generate_pmapping(&set.sources()[1], &med, &matrix, &params).unwrap();
        let phone = set.vocab().id_of("phone").unwrap();
        // Raw weights (0.9, 0.9) share source attr `phone` → row sum 1.8 →
        // normalized to 0.5 each. Mappings: →h (0.5), →o (0.5); the empty
        // mapping gets zero mass because the two targets exhaust it.
        let p_h: f64 = pm
            .mappings()
            .iter()
            .filter(|(m, _)| m.targets_of(phone).any(|j| j == 0))
            .map(|(_, p)| p)
            .sum();
        let p_o: f64 = pm
            .mappings()
            .iter()
            .filter(|(m, _)| m.targets_of(phone).any(|j| j == 1))
            .map(|(_, p)| p)
            .sum();
        assert!((p_h - 0.5).abs() < 1e-4, "p(phone→hPhone) = {p_h}");
        assert!((p_o - 0.5).abs() < 1e-4, "p(phone→oPhone) = {p_o}");
    }

    #[test]
    fn explosion_is_reported() {
        // 8 source attrs all similar to 8 singleton clusters pairwise →
        // enormous matching count; tiny cap must trip.
        let names: Vec<String> = (0..8).map(|i| format!("a{i}")).collect();
        let cl_names: Vec<String> = (0..8).map(|i| format!("b{i}")).collect();
        let mut all: Vec<&str> = names.iter().map(String::as_str).collect();
        all.extend(cl_names.iter().map(String::as_str));
        let set = SchemaSet::from_sources([
            ("donor", all.clone()),
            ("src", names.iter().map(String::as_str).collect()),
        ]);
        let hot = |a: &str, b: &str| -> f64 {
            if a == b {
                1.0
            } else if a.starts_with('a') != b.starts_with('a') {
                0.9
            } else {
                0.0
            }
        };
        let matrix = SimilarityMatrix::new(set.vocab(), &hot);
        let clusters: Vec<Vec<AttrId>> = cl_names
            .iter()
            .map(|n| vec![set.vocab().id_of(n).unwrap()])
            .collect();
        let cluster_slices: Vec<&[AttrId]> = clusters.iter().map(Vec::as_slice).collect();
        let med = MediatedSchema::from_slices(&cluster_slices);
        let params = UdiParams {
            theta: 0.0,
            mapping_cap: 50,
            ..UdiParams::default()
        };
        let err = generate_pmapping(&set.sources()[1], &med, &matrix, &params).unwrap_err();
        assert!(matches!(err, MaxEntError::Explosion { .. }));
    }
}
