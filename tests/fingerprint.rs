//! Cross-version fingerprint: the snapshot bytes and every answer on all
//! five paths of one small fixed corpus, folded into FNV-1a digests that are
//! committed below.
//!
//! `tests/determinism.rs` compares two runs of one build, so a change to how
//! mappings or schemas are stored that reorders alternatives (and with them
//! every float fold) would pass it. This test pins the output itself: the
//! digests were recorded before the flat `Mapping` representation replaced
//! the tree one, and must not move when a representation changes. Update
//! them only for a change that is meant to alter answers or the snapshot
//! format, and say so where the change is recorded.

use udi::core::{AnswerPath, UdiConfig, UdiSystem};
use udi::datagen::{generate, Domain, GenConfig};
use udi::eval::generate_workload;
use udi::query::Query;

/// 64-bit FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// `query` as text for `path`: aggregates count rows per value of the
/// first selected attribute, under the same predicates.
fn text_on(path: AnswerPath, query: &Query) -> String {
    let text = query.to_string();
    match (path, query.select.first(), text.find(" FROM ")) {
        (AnswerPath::Aggregate, Some(first), Some(from)) => {
            format!("SELECT {first}, COUNT(*){} GROUP BY {first}", &text[from..])
        }
        _ => text,
    }
}

/// `(label, digest)` for the snapshot and for each answer path, in
/// [`AnswerPath::ALL`] order.
fn digests() -> Vec<(&'static str, u64)> {
    let seed = 2008;
    let gen = generate(
        Domain::Car,
        &GenConfig {
            n_sources: Some(120),
            seed,
            ..GenConfig::default()
        },
    );
    let queries = generate_workload(&gen, 20, seed + 1);
    let udi = UdiSystem::setup(gen.catalog.clone(), UdiConfig::default()).expect("setup");

    let mut snapshot = Fnv::new();
    snapshot.write(udi.to_json().as_bytes());
    let mut out = vec![("snapshot", snapshot.0)];
    for path in AnswerPath::ALL {
        let mut h = Fnv::new();
        let mut tuples_seen = 0;
        for q in &queries {
            let text = text_on(path, q);
            h.write(text.as_bytes());
            let answers = udi.answer_with(path, &text, 0).expect("workload parses");
            for (sid, tuples) in answers.by_source() {
                for t in tuples {
                    tuples_seen += 1;
                    h.write(&sid.0.to_le_bytes());
                    h.write(format!("{:?}", t.values).as_bytes());
                    h.write(&t.probability.to_bits().to_le_bytes());
                }
            }
        }
        assert!(
            tuples_seen > 0,
            "{}: the workload answers nothing",
            path.name()
        );
        out.push((path.name(), h.0));
    }
    out
}

/// Recorded on the tree-form `Mapping` (a `BTreeMap<AttrId,
/// BTreeSet<usize>>`), before the flat pair-slice representation.
const RECORDED: [(&str, u64); 6] = [
    ("snapshot", 0xd2379843b76f8689),
    ("consolidated", 0x205dd5914c936a81),
    ("pmed", 0xa8708a75e8bd8a73),
    ("top_mapping", 0xcb4efe2dd4ba348f),
    ("by_tuple", 0xc3d023fc47a61a59),
    ("aggregate", 0x4cfb6265bd9fbff5),
];

#[test]
fn snapshot_and_answers_match_the_recorded_digests() {
    let got = digests();
    let want: Vec<(&str, u64)> = RECORDED.to_vec();
    assert_eq!(
        got, want,
        "snapshot or answer bytes moved (got on the left)"
    );
}
