#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! Probabilistic mediated schemas and probabilistic schema mappings — the
//! core contribution of the SIGMOD'08 paper (Sections 3–6).
//!
//! The pipeline this crate implements:
//!
//! 1. **Model** ([`model`]): attribute vocabulary, source schemas, mediated
//!    schemas as disjoint clusterings of source attributes, p-med-schemas
//!    (Definition 3.1), one-to-one and one-to-many mappings, p-mappings
//!    (Definition 3.2).
//! 2. **Similarity graph** ([`graph`]): frequency-filter the attribute
//!    universe (threshold θ), connect frequent attributes whose pairwise
//!    similarity clears τ−ε, and classify edges as *certain* (≥ τ+ε) or
//!    *uncertain* (within the ε error bar) — Algorithm 1, steps 1–5.
//! 3. **Mediated-schema generation** ([`med_schema`]): enumerate the
//!    mediated schemas induced by omitting subsets of uncertain edges
//!    (Algorithm 1, steps 6–8) and assign each a probability proportional to
//!    the number of source schemas it is *consistent* with (Definition 4.1,
//!    Algorithm 2).
//! 4. **Correspondences & p-mappings** ([`correspondence`], [`pmapping`]):
//!    weighted correspondences `p_{i,j} = Σ_{a∈A_j} s(a_i, a)`, Theorem 5.2
//!    normalization, and the maximum-entropy p-mapping via `udi-maxent`.
//! 5. **Consolidation** ([`consolidate`]): collapse the p-med-schema into
//!    one deterministic mediated schema (the coarsest common refinement,
//!    Algorithm 3) and rewrite the p-mappings against it (one-to-many),
//!    preserving all query answers (Theorem 6.2).
//!
//! # Quickstart
//!
//! ```
//! use udi_schema::{SchemaSet, UdiParams, build_p_med_schema};
//! use udi_similarity::AttributeSimilarity;
//!
//! let set = SchemaSet::from_sources([
//!     ("s1", vec!["name", "phone", "address"]),
//!     ("s2", vec!["name", "phone-no", "addr"]),
//!     ("s3", vec!["name", "phone", "address"]),
//! ]);
//! let params = UdiParams::default();
//! let pmed = build_p_med_schema(&set, &AttributeSimilarity::default(), &params).unwrap();
//! assert!(!pmed.schemas().is_empty());
//! ```

pub mod consolidate;
pub mod correspondence;
pub mod float;
pub mod graph;
pub mod med_schema;
pub mod model;
pub mod pmapping;

pub use consolidate::{consolidate_pmappings, consolidate_schemas, Consolidator};
pub use correspondence::{
    weighted_correspondences, FrozenMatrix, PairSimilarity, SimilarityMatrix,
};
pub use graph::{
    build_similarity_graph, build_similarity_graph_via, Edge, EdgeKind, SimilarityGraph,
};
pub use med_schema::{assign_probabilities, build_p_med_schema, enumerate_mediated_schemas};
pub use model::{
    AttrId, Mapping, MediatedSchema, ModelError, PMapping, PMedSchema, SchemaSet, SourceSchema,
    Vocabulary,
};
pub use pmapping::{generate_pmapping, generate_pmapping_cached};

pub use udi_maxent::{MaxEntError, SolveCache};

/// Tunable parameters of the UDI setup pipeline, defaulting to the values of
/// §7.1 of the paper ("we set the pairwise similarity threshold for creating
/// the mediated schema to 0.85, the error bar for uncertain edges to 0.02,
/// the frequency threshold ... to 10%, and the correspondence threshold to
/// 0.85").
#[derive(Debug, Clone)]
pub struct UdiParams {
    /// Frequency threshold θ: attributes must appear in at least this
    /// fraction of sources to enter the mediated schema.
    pub theta: f64,
    /// Edge-weight threshold τ for the similarity graph.
    pub tau: f64,
    /// Error bar ε: edges with weight in `[τ−ε, τ+ε)` are *uncertain*.
    pub epsilon: f64,
    /// Threshold below which a weighted correspondence is zeroed.
    pub corr_threshold: f64,
    /// Floor applied to each pairwise similarity term before it enters the
    /// correspondence sum `p_{i,j} = Σ_{a∈A_j} s(a_i, a)`. Keeps a pile of
    /// individually weak (clearly non-matching) terms from accumulating
    /// into a spurious correspondence; the paper achieves the same effect
    /// by choosing a high correspondence threshold. Defaults to τ − ε: a
    /// pair too weak to be a graph edge contributes nothing.
    pub pair_floor: f64,
    /// Hard cap on the number of uncertain edges expanded by Algorithm 1
    /// (the enumeration is exponential in this number). Excess edges —
    /// those least ambiguous, i.e. with weight farthest from τ — are
    /// resolved deterministically: kept as certain if at or above τ,
    /// dropped otherwise.
    pub max_uncertain_edges: usize,
    /// Cap on explicit mappings per p-mapping (enumeration and product
    /// expansion); exceeding it is the state explosion the paper reports
    /// for `UnionAll` on the Bib domain.
    pub mapping_cap: usize,
    /// Maximum-entropy solver settings.
    pub maxent: udi_maxent::MaxEntConfig,
}

impl Default for UdiParams {
    fn default() -> Self {
        UdiParams {
            theta: 0.10,
            tau: 0.85,
            epsilon: 0.02,
            corr_threshold: 0.85,
            pair_floor: 0.83,
            max_uncertain_edges: 12,
            mapping_cap: 20_000,
            maxent: udi_maxent::MaxEntConfig::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_params_match_paper() {
        let p = UdiParams::default();
        assert_eq!(p.theta, 0.10);
        assert_eq!(p.tau, 0.85);
        assert_eq!(p.epsilon, 0.02);
        assert_eq!(p.corr_threshold, 0.85);
    }
}
