//! Snapshot persistence across randomized catalogs: a saved-and-reloaded
//! system must answer identically, always — also after a source was
//! removed, when the live attribute ids no longer match a reload's.

use std::collections::BTreeSet;

use proptest::prelude::*;

use udi::core::{UdiConfig, UdiSystem};
use udi::query::parse_query;
use udi::store::{Catalog, Table};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn snapshot_round_trip_preserves_everything(
        sources in proptest::collection::vec(
            prop::sample::subsequence(
                vec!["name", "phone", "phone no", "tel", "address", "year", "price"],
                2..6,
            ),
            2..6,
        ),
        seed in 0u64..100,
        removed in 0usize..8,
    ) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut catalog = Catalog::new();
        for (i, attrs) in sources.iter().enumerate() {
            let mut t = Table::new(format!("s{i}"), attrs.clone());
            for _ in 0..rng.gen_range(1..4usize) {
                let row: Vec<String> =
                    attrs.iter().map(|_| format!("v{}", rng.gen_range(0..6))).collect();
                t.push_raw_row(row).unwrap();
            }
            catalog.add_source(t).unwrap();
        }
        let mut original = match UdiSystem::setup(catalog, UdiConfig::default()) {
            Ok(u) => u,
            Err(_) => return Ok(()),
        };
        // Half the cases drop one source first (indices past the catalog
        // remove nothing).
        let renumbered = removed < sources.len();
        if renumbered {
            original.remove_source(&format!("s{removed}")).unwrap();
        }
        let json = original.to_json();
        let loaded = UdiSystem::from_json(&json).expect("deserializes");

        // Clusters by name: a removal renumbers the reloaded vocabulary.
        let named = |sys: &UdiSystem| -> BTreeSet<BTreeSet<String>> {
            let vocab = sys.schema_set().vocab();
            sys.consolidated()
                .clusters()
                .iter()
                .map(|c| c.iter().map(|&a| vocab.name(a).to_owned()).collect())
                .collect()
        };
        prop_assert_eq!(named(&loaded), named(&original));
        prop_assert_eq!(loaded.pmed().len(), original.pmed().len());
        for attr in ["name", "phone", "address", "year", "price"] {
            let q = parse_query(&format!("SELECT {attr} FROM T")).unwrap();
            let mut a = original.answer(&q).combined();
            let mut b = loaded.answer(&q).combined();
            a.sort_by(|x, y| x.values.cmp(&y.values));
            b.sort_by(|x, y| x.values.cmp(&y.values));
            prop_assert_eq!(a.len(), b.len(), "attr {}", attr);
            for (x, y) in a.iter().zip(&b) {
                prop_assert_eq!(&x.values, &y.values);
                if renumbered {
                    // Reloaded ids order the float sums of consolidation
                    // differently: agree to 1e-12, as incremental setup
                    // agrees with batch setup.
                    prop_assert!((x.probability - y.probability).abs() < 1e-12);
                } else {
                    prop_assert_eq!(x.probability.to_bits(), y.probability.to_bits());
                }
            }
        }
        // Floats render shortest-round-trip and parse correctly rounded, so
        // a second save is byte-identical to the first.
        let json2 = loaded.to_json();
        prop_assert_eq!(json2, json);
    }
}
