//! Massive-corpus stress generator for the `exp_scale` benchmark.
//!
//! The five Table 1 domains top out at 817 sources — the paper's scale.
//! Probing the blocked setup path at 10k–100k sources needs a corpus with
//! two properties the domain generator does not (and should not) have:
//!
//! 1. **A vocabulary that grows with the corpus.** Each concept has a
//!    per-source *style space* proportional to `n_sources`: half the
//!    sources use the canonical label, the other half a deterministic
//!    decoration of it, so the distinct-name count keeps growing instead
//!    of saturating. All-pairs scoring is quadratic-ish in that
//!    vocabulary; blocking is what keeps it linear.
//! 2. **Bigram-disjoint concepts.** Every concept's labels are built from
//!    a private two-letter alphabet, so labels of *different* concepts
//!    share no character bigram — not even the space-adjacent ones
//!    (`"a "` contains the letter). Cross-concept pairs are therefore
//!    provably prunable by `udi_similarity::BlockIndex`, mirroring real
//!    corpora where concept names come from different lexical fields. The
//!    labels look alien (`"abaab babba"`), but this is a *scale* stress
//!    corpus: setup only ever sees the statistics, never the semantics.
//!
//! Generation is **streaming**: [`scale_source`] is a pure function of
//! `(config, source index)` with its own per-source RNG, so a 100k-source
//! corpus never materializes an entity universe or an intermediate
//! `Vec<Table>` — only the catalog being filled holds memory.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use udi_store::{Catalog, Table, Value};

/// Number of concepts in the scale corpus: 13 disjoint two-letter
/// alphabets cover the 26 lowercase letters exactly.
pub const SCALE_CONCEPTS: usize = 13;

/// Letter-pattern of each canonical-label token: `false` maps to the
/// concept's first letter, `true` to its second. Ten eight-letter tokens
/// make ~89-character labels — long enough that pairwise scoring
/// (token-hybrid over all token pairs) is expensive. That cost is the
/// point: the all-pairs path pays it for every (vocabulary × cluster)
/// pair, the blocked path only within a concept, so label length is the
/// knob that makes the difference measurable above per-source pipeline
/// overhead.
const TOKEN_PATTERNS: [[bool; 8]; 10] = [
    [false, true, false, false, true, true, false, true],
    [true, false, true, true, false, false, true, false],
    [false, false, true, true, false, true, false, false],
    [true, true, false, false, true, false, true, true],
    [false, true, true, false, false, true, true, false],
    [true, false, false, true, true, false, false, true],
    [false, false, false, true, false, true, true, true],
    [true, true, true, false, true, false, false, false],
    [false, true, false, true, true, false, true, false],
    [true, false, true, false, false, true, false, true],
];

/// Configuration of the scale corpus. Every artifact is a pure function
/// of this struct, and every *source* is a pure function of
/// `(config, index)` — the property the streaming iterator relies on.
#[derive(Debug, Clone)]
pub struct ScaleConfig {
    /// Number of sources to generate.
    pub n_sources: usize,
    /// Master seed.
    pub seed: u64,
    /// Minimum rows per source.
    pub rows_min: usize,
    /// Maximum rows per source.
    pub rows_max: usize,
    /// Probability that a source labels a concept with a decorated
    /// variant instead of the canonical label. The remainder keeps the
    /// canonical label frequent enough to clear the θ = 0.10 filter.
    pub decorate_rate: f64,
    /// Probability that a cell is NULL.
    pub null_rate: f64,
}

impl Default for ScaleConfig {
    fn default() -> Self {
        ScaleConfig {
            n_sources: 1_000,
            seed: 0x5CA1_E5ED,
            rows_min: 100,
            rows_max: 200,
            decorate_rate: 0.5,
            null_rate: 0.02,
        }
    }
}

impl ScaleConfig {
    /// A scale configuration for `n` sources with the default knobs.
    pub fn with_sources(n: usize) -> Self {
        ScaleConfig {
            n_sources: n,
            ..ScaleConfig::default()
        }
    }

    /// Per-concept decoration-style space. Proportional to the corpus so
    /// the vocabulary keeps growing with it (see the module docs); floored
    /// so tiny test corpora still exercise decoration variety.
    pub fn style_space(&self) -> usize {
        self.n_sources.max(16)
    }
}

/// The two private letters of concept `c`.
fn alphabet(c: usize) -> (char, char) {
    debug_assert!(c < SCALE_CONCEPTS);
    let base = b'a' + (2 * c) as u8;
    (base as char, (base + 1) as char)
}

/// Popularity of concept `c`, spread over `[0.25, 0.6]`. The floor keeps
/// every canonical label's frequency (popularity × canonical share) above
/// the θ = 0.10 filter with margin.
fn popularity(c: usize) -> f64 {
    0.25 + 0.35 * c as f64 / (SCALE_CONCEPTS - 1) as f64
}

/// Render token-pattern `p` in concept `c`'s alphabet.
fn token(c: usize, p: usize) -> String {
    let (lo, hi) = alphabet(c);
    TOKEN_PATTERNS
        .get(p % TOKEN_PATTERNS.len())
        .map(|pat| pat.as_slice())
        .unwrap_or_default()
        .iter()
        .map(|&bit| if bit { hi } else { lo })
        .collect()
}

/// The canonical label of concept `c`: one token per pattern, all in its
/// private alphabet.
pub fn canonical_label(c: usize) -> String {
    let tokens: Vec<String> = (0..TOKEN_PATTERNS.len()).map(|p| token(c, p)).collect();
    tokens.join(" ")
}

/// SplitMix64 — decorrelates consecutive source indices before they
/// become `StdRng` seeds.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The decorated variant of concept `c` in style `s`. A pure function of
/// `(c, s)`, so every source drawing the same style produces the *same*
/// string and the vocabulary is bounded by the style space. Decorations
/// only rearrange material from the concept's own alphabet, preserving
/// cross-concept bigram disjointness.
pub fn decorated_label(c: usize, s: usize) -> String {
    let mut tokens: Vec<String> = (0..TOKEN_PATTERNS.len()).map(|p| token(c, p)).collect();
    let mut ops = 1 + s % 2;
    let mut roll = mix(s as u64 ^ 0xDEC0);
    while ops > 0 {
        ops -= 1;
        let pick = roll % 4;
        roll = mix(roll);
        let at = (roll % tokens.len() as u64) as usize;
        roll = mix(roll);
        match pick {
            // Append one more alphabet token.
            0 => tokens.push(token(c, (roll % TOKEN_PATTERNS.len() as u64) as usize)),
            // Swap two adjacent tokens.
            1 => {
                let with = (at + 1) % tokens.len();
                tokens.swap(at, with);
            }
            // Double a letter inside one token.
            2 => {
                if let Some(t) = tokens.get_mut(at) {
                    let pos = (roll % t.len() as u64) as usize;
                    let ch = t.as_bytes().get(pos).copied().unwrap_or(b'a') as char;
                    t.push(ch);
                }
            }
            // Fuse a token with its neighbour (drop the space).
            _ => {
                let next = tokens.remove((at + 1) % tokens.len());
                let into = at.min(tokens.len() - 1);
                if let Some(t) = tokens.get_mut(into) {
                    t.push_str(&next);
                }
            }
        }
        roll = mix(roll);
    }
    tokens.join(" ")
}

/// Generate source `i` of the corpus — a pure function of `(cfg, i)`.
pub fn scale_source(cfg: &ScaleConfig, i: usize) -> Table {
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ mix(i as u64));

    // 1. Concepts this source covers (at least two).
    let mut chosen: Vec<usize> = (0..SCALE_CONCEPTS)
        .filter(|&c| rng.gen_bool(popularity(c)))
        .collect();
    if chosen.len() < 2 {
        chosen = vec![0, 1];
    }

    // 2. Label each concept: canonical or a style-space decoration.
    let style_space = cfg.style_space();
    let attrs: Vec<(usize, String)> = chosen
        .iter()
        .map(|&c| {
            let label = if rng.gen_bool(cfg.decorate_rate) {
                decorated_label(c, rng.gen_range(0..style_space))
            } else {
                canonical_label(c)
            };
            (c, label)
        })
        .collect();

    // 3. Rows. No shared entity universe — the scale corpus measures
    // setup, not cross-source recall — so cells are sampled directly.
    // Mostly integers to keep a 100k-source corpus inside the memory
    // budget; every third concept stores short text.
    let n_rows = rng.gen_range(cfg.rows_min..=cfg.rows_max);
    let mut table = Table::new(
        format!("scale_{i:06}"),
        attrs.iter().map(|(_, a)| a.clone()),
    );
    for _ in 0..n_rows {
        let row: Vec<Value> = attrs
            .iter()
            .map(|&(c, _)| {
                if rng.gen_bool(cfg.null_rate) {
                    Value::Null
                } else if c % 3 == 0 {
                    Value::text(format!("{}{}", token(c, 0), rng.gen_range(0..10_000)))
                } else {
                    Value::Int(rng.gen_range(0..1_000_000))
                }
            })
            .collect();
        // udi-audit: allow(effect-cert, "row is built by mapping the table's own attrs, so the arity always matches")
        table.push_row(row).expect("arity by construction");
    }
    table
}

/// Stream the corpus one source at a time.
pub fn scale_corpus(cfg: &ScaleConfig) -> impl Iterator<Item = Table> + '_ {
    (0..cfg.n_sources).map(move |i| scale_source(cfg, i))
}

/// Stream the corpus into a [`Catalog`]. Peak memory is the catalog
/// itself — no intermediate collection exists.
pub fn scale_catalog(cfg: &ScaleConfig) -> Catalog {
    let mut catalog = Catalog::new();
    for table in scale_corpus(cfg) {
        // `n_sources` is a usize config but ids are u32; stop streaming at
        // the id-space boundary rather than truncate ids.
        if catalog.add_source(table).is_err() {
            break;
        }
    }
    catalog
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{BTreeSet, HashSet};

    #[test]
    fn sources_are_pure_functions_of_config_and_index() {
        let cfg = ScaleConfig::with_sources(50);
        for i in [0, 7, 49] {
            let a = scale_source(&cfg, i);
            let b = scale_source(&cfg, i);
            assert_eq!(a.attributes(), b.attributes());
            assert_eq!(a.to_rows(), b.to_rows());
        }
        // The stream agrees with random access.
        let third = scale_corpus(&cfg).nth(3).unwrap();
        assert_eq!(third.attributes(), scale_source(&cfg, 3).attributes());
    }

    #[test]
    fn respects_row_bounds_and_minimum_arity() {
        let cfg = ScaleConfig {
            n_sources: 30,
            rows_min: 5,
            rows_max: 9,
            ..ScaleConfig::default()
        };
        for t in scale_corpus(&cfg) {
            assert!((5..=9).contains(&t.row_count()), "{}", t.name());
            assert!(t.arity() >= 2, "{}", t.name());
        }
    }

    #[test]
    fn concepts_use_disjoint_letter_alphabets() {
        // Disjoint letters imply disjoint character bigrams (space- and
        // padding-adjacent bigrams contain a letter), which is what makes
        // cross-concept pairs prunable by the block index.
        let mut seen = BTreeSet::new();
        for c in 0..SCALE_CONCEPTS {
            let mut letters: BTreeSet<char> = canonical_label(c).chars().collect();
            for s in 0..40 {
                letters.extend(decorated_label(c, s).chars());
            }
            letters.remove(&' ');
            assert!(letters.iter().all(|ch| ch.is_ascii_lowercase()));
            assert!(
                letters.is_disjoint(&seen),
                "concept {c} shares letters: {letters:?}"
            );
            seen.extend(letters);
        }
    }

    #[test]
    fn decorations_grow_the_vocabulary_with_the_corpus() {
        let names = |n: usize| -> HashSet<String> {
            scale_corpus(&ScaleConfig::with_sources(n))
                .flat_map(|t| t.attributes().to_vec())
                .collect()
        };
        let small = names(100);
        let large = names(400);
        assert!(small.len() > SCALE_CONCEPTS);
        assert!(
            large.len() > small.len(),
            "{} !> {}",
            large.len(),
            small.len()
        );
    }

    #[test]
    fn canonical_labels_clear_the_frequency_filter() {
        let cfg = ScaleConfig {
            n_sources: 400,
            rows_min: 1,
            rows_max: 1,
            ..ScaleConfig::default()
        };
        let catalog = scale_catalog(&cfg);
        for c in 0..SCALE_CONCEPTS {
            let f = catalog.attribute_frequency(&canonical_label(c));
            assert!(f > 0.10, "concept {c} frequency {f}");
        }
    }

    #[test]
    fn catalog_streams_every_source_in_order() {
        let cfg = ScaleConfig {
            n_sources: 20,
            rows_min: 1,
            rows_max: 2,
            ..ScaleConfig::default()
        };
        let catalog = scale_catalog(&cfg);
        assert_eq!(catalog.source_count(), 20);
        for (id, t) in catalog.iter_sources() {
            assert_eq!(t.name(), scale_source(&cfg, id.0 as usize).name());
        }
    }
}
