//! Consolidation of a p-med-schema into a single mediated schema with
//! consolidated (one-to-many) p-mappings (§6, Algorithm 3, Theorem 6.2).

use std::collections::BTreeMap;

use crate::model::{AttrId, Mapping, MediatedSchema, PMapping, PMedSchema};

/// Algorithm 3: the coarsest common refinement of the possible mediated
/// schemas — two attributes share a cluster in the result iff they share a
/// cluster in *every* input schema.
///
/// Attributes absent from some input schema (possible only for degenerate
/// inputs; UDI's candidates always cover the same frequent attributes) are
/// treated as forming their own cluster in the schemas that miss them.
pub fn consolidate_schemas(schemas: &[MediatedSchema]) -> MediatedSchema {
    assert!(!schemas.is_empty(), "nothing to consolidate");
    // Signature of an attribute: its cluster index in each schema.
    let universe: std::collections::BTreeSet<AttrId> =
        schemas.iter().flat_map(|m| m.attribute_set()).collect();
    let mut groups: BTreeMap<Vec<Option<usize>>, std::collections::BTreeSet<AttrId>> =
        BTreeMap::new();
    for &a in &universe {
        let mut sig: Vec<Option<usize>> = schemas.iter().map(|m| m.cluster_of(a)).collect();
        // An attribute missing from a schema is its own singleton there:
        // give it a unique marker so it never merges through that schema.
        for s in sig.iter_mut() {
            if s.is_none() {
                *s = Some(usize::MAX - a.0 as usize);
            }
        }
        groups.entry(sig).or_default().insert(a);
    }
    MediatedSchema::new(groups.into_values().collect())
}

/// Consolidate per-schema p-mappings into one p-mapping against the
/// consolidated schema `target` (§6, three steps):
///
/// 1. rewrite each mapping's correspondences `(a, A)` into the set
///    `{(a, B) : B ∈ target, B ⊆ A}` (one-to-many);
/// 2. scale each mapping's probability by `Pr(M_i)`;
/// 3. merge identical rewritten mappings across all `M_i`, summing
///    probabilities.
///
/// `pmappings[i]` must be the p-mapping for `pmed.schemas()[i].0`.
/// Theorem 6.2 guarantees the result answers every query exactly as the
/// p-med-schema does (executable as a property test in `udi-core`).
pub fn consolidate_pmappings(
    pmed: &PMedSchema,
    pmappings: &[PMapping],
    target: &MediatedSchema,
) -> PMapping {
    Consolidator::new(pmed, target).consolidate(pmappings)
}

/// The schema-level part of p-mapping consolidation, precomputed once per
/// `(p-med-schema, target)` pair: the cluster refinement table depends only
/// on the schemas, not the source, so consolidating a whole catalog should
/// build it once instead of once per source (it dominates the per-source
/// cost otherwise — every call is `schemas × clusters²` subset checks).
pub struct Consolidator<'a> {
    pmed: &'a PMedSchema,
    /// Per input schema, cluster index → target cluster indices.
    refinements: Vec<Vec<Vec<usize>>>,
}

impl<'a> Consolidator<'a> {
    /// Precompute the refinement table of `target` against every possible
    /// schema of `pmed`.
    pub fn new(pmed: &'a PMedSchema, target: &MediatedSchema) -> Consolidator<'a> {
        let refinements: Vec<Vec<Vec<usize>>> = pmed
            .schemas()
            .iter()
            .map(|(m, _)| {
                m.clusters()
                    .iter()
                    .map(|big| {
                        target
                            .clusters()
                            .iter()
                            .enumerate()
                            .filter(|(_, small)| small.is_subset(big))
                            .map(|(j, _)| j)
                            .collect()
                    })
                    .collect()
            })
            .collect();
        Consolidator { pmed, refinements }
    }

    /// Consolidate one source's per-schema p-mappings (see
    /// [`consolidate_pmappings`]).
    pub fn consolidate(&self, pmappings: &[PMapping]) -> PMapping {
        assert_eq!(
            self.pmed.len(),
            pmappings.len(),
            "one p-mapping per possible schema"
        );
        let mut merged: BTreeMap<Mapping, f64> = BTreeMap::new();
        for (i, ((_, p_schema), pm)) in self.pmed.schemas().iter().zip(pmappings).enumerate() {
            let refinement = self.refinements.get(i).map(Vec::as_slice).unwrap_or(&[]);
            for (m, p_map) in pm.mappings() {
                let rewritten = Mapping::new(m.correspondences().flat_map(|(a, big_idx)| {
                    let refined = refinement.get(big_idx).map(Vec::as_slice).unwrap_or(&[]);
                    refined.iter().map(move |&j| (a, j))
                }));
                *merged.entry(rewritten).or_insert(0.0) += p_map * p_schema;
            }
        }
        let mappings: Vec<(Mapping, f64)> =
            merged.into_iter().filter(|(_, p)| *p > 1e-15).collect();
        PMapping::new(mappings)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(xs: &[u32]) -> Vec<AttrId> {
        xs.iter().map(|&x| AttrId(x)).collect()
    }

    /// Example 6.1 from the paper.
    #[test]
    fn example_6_1() {
        // M1: {a1,a2,a3}, {a4}, {a5,a6};  M2: {a2,a3,a4}, {a1,a5,a6}.
        let m1 = MediatedSchema::from_slices(&[&ids(&[1, 2, 3]), &ids(&[4]), &ids(&[5, 6])]);
        let m2 = MediatedSchema::from_slices(&[&ids(&[2, 3, 4]), &ids(&[1, 5, 6])]);
        let t = consolidate_schemas(&[m1, m2]);
        // T: {a1}, {a2,a3}, {a4}, {a5,a6}.
        let expect =
            MediatedSchema::from_slices(&[&ids(&[1]), &ids(&[2, 3]), &ids(&[4]), &ids(&[5, 6])]);
        assert_eq!(t, expect);
    }

    #[test]
    fn consolidating_one_schema_is_identity() {
        let m = MediatedSchema::from_slices(&[&ids(&[0, 1]), &ids(&[2])]);
        assert_eq!(consolidate_schemas(std::slice::from_ref(&m)), m);
    }

    #[test]
    fn consolidation_is_coarsest_refinement() {
        let m1 = MediatedSchema::from_slices(&[&ids(&[0, 1, 2])]);
        let m2 = MediatedSchema::from_slices(&[&ids(&[0, 1]), &ids(&[2])]);
        let t = consolidate_schemas(&[m1.clone(), m2.clone()]);
        // a0,a1 together in both → together in T; a2 split in m2 → split.
        assert_eq!(t, m2);
        // Refinement property: every cluster of T is inside a cluster of
        // each input.
        for input in [&m1, &m2] {
            for small in t.clusters() {
                assert!(input.clusters().iter().any(|big| small.is_subset(big)));
            }
        }
    }

    #[test]
    fn attribute_missing_from_one_schema_stays_singleton() {
        let m1 = MediatedSchema::from_slices(&[&ids(&[0, 1])]);
        let m2 = MediatedSchema::from_slices(&[&ids(&[0])]); // lacks a1
        let t = consolidate_schemas(&[m1, m2]);
        let expect = MediatedSchema::from_slices(&[&ids(&[0]), &ids(&[1])]);
        assert_eq!(t, expect);
    }

    #[test]
    fn pmapping_consolidation_rewrites_one_to_many() {
        // M1 groups {a0,a1}; M2 splits them. T = split.
        let m1 = MediatedSchema::from_slices(&[&ids(&[0, 1])]);
        let m2 = MediatedSchema::from_slices(&[&ids(&[0]), &ids(&[1])]);
        let pmed = PMedSchema::new(vec![(m1, 0.6), (m2, 0.4)]);
        let t = consolidate_schemas(&[pmed.schemas()[0].0.clone(), pmed.schemas()[1].0.clone()]);

        // Source attr a9 maps to the big cluster under M1, to cluster {a0}
        // under M2.
        let pm1 = PMapping::new(vec![(Mapping::new([(AttrId(9), 0)]), 1.0)]);
        let pm2 = PMapping::new(vec![(Mapping::new([(AttrId(9), 0)]), 1.0)]);
        let pm = consolidate_pmappings(&pmed, &[pm1, pm2], &t);

        // Under M1, (a9 → {a0,a1}) rewrites to {(a9→T0), (a9→T1)} with
        // probability 0.6; under M2, (a9 → {a0}) rewrites to {(a9→T0)} with
        // probability 0.4.
        assert_eq!(pm.len(), 2);
        let both = Mapping::new([(AttrId(9), 0), (AttrId(9), 1)]);
        let single = Mapping::new([(AttrId(9), 0)]);
        let p_both = pm.mappings().iter().find(|(m, _)| m == &both).unwrap().1;
        let p_single = pm.mappings().iter().find(|(m, _)| m == &single).unwrap().1;
        assert!((p_both - 0.6).abs() < 1e-12);
        assert!((p_single - 0.4).abs() < 1e-12);
    }

    #[test]
    fn pmapping_consolidation_merges_identical_rewrites() {
        // Both schemas identical → rewritten mappings merge with total
        // probability 1.
        let m = MediatedSchema::from_slices(&[&ids(&[0]), &ids(&[1])]);
        let pmed = PMedSchema::new(vec![(m.clone(), 1.0)]);
        let t = consolidate_schemas(&[m]);
        let inner = PMapping::new(vec![
            (Mapping::new([(AttrId(9), 0)]), 0.7),
            (Mapping::empty(), 0.3),
        ]);
        let pm = consolidate_pmappings(&pmed, &[inner], &t);
        assert_eq!(pm.len(), 2);
        let total: f64 = pm.mappings().iter().map(|(_, p)| p).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_mapping_survives_consolidation() {
        let m1 = MediatedSchema::from_slices(&[&ids(&[0, 1])]);
        let m2 = MediatedSchema::from_slices(&[&ids(&[0]), &ids(&[1])]);
        let pmed = PMedSchema::new(vec![(m1.clone(), 0.5), (m2.clone(), 0.5)]);
        let t = consolidate_schemas(&[m1, m2]);
        let pm1 = PMapping::new(vec![(Mapping::empty(), 1.0)]);
        let pm2 = PMapping::new(vec![(Mapping::empty(), 1.0)]);
        let pm = consolidate_pmappings(&pmed, &[pm1, pm2], &t);
        assert_eq!(pm.len(), 1);
        assert!(pm.mappings()[0].0.is_empty());
        assert!((pm.mappings()[0].1 - 1.0).abs() < 1e-12);
    }
}
