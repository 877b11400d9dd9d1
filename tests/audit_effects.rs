//! Property tests for the interprocedural effect-inference engine
//! (`udi_audit::effects::solve`), over arbitrary generated call graphs —
//! cycles, self-loops, and disconnected nodes included:
//!
//! - **deterministic**: the same graph always yields the same summaries;
//! - **extensive**: a fn's own local effects never disappear from its
//!   summary;
//! - **sound and complete**: each summary equals the union of local
//!   effects over the BFS-reachable set (the certificate's spec);
//! - **monotone**: adding a call edge never removes an effect from any
//!   summary — the property that makes the ratchet meaningful.

use std::collections::{BTreeSet, VecDeque};

use proptest::prelude::*;
use udi_audit::effects::{solve, Effect, EffectSet};

/// Cap on generated graph size; raw indices are folded modulo `n`.
const CAP: usize = 20;

fn effect_set(code: u16) -> EffectSet {
    let mut s = EffectSet::EMPTY;
    for (i, e) in Effect::ALL.into_iter().enumerate() {
        if code & (1 << i) != 0 {
            s.insert(e);
        }
    }
    s
}

/// Reference semantics: union of local effects over everything reachable
/// from `root` (root included).
fn reachable_union(adj: &[BTreeSet<usize>], local: &[EffectSet], root: usize) -> EffectSet {
    let mut seen = BTreeSet::from([root]);
    let mut queue = VecDeque::from([root]);
    let mut fx = EffectSet::EMPTY;
    while let Some(v) = queue.pop_front() {
        fx = fx.union(local.get(v).copied().unwrap_or(EffectSet::EMPTY));
        for &w in adj.get(v).into_iter().flatten() {
            if seen.insert(w) {
                queue.push_back(w);
            }
        }
    }
    fx
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn effect_inference_is_deterministic_sound_and_monotone(
        n in 1usize..CAP,
        raw_edges in proptest::collection::vec((0usize..64, 0usize..64), 0..60),
        raw_locals in proptest::collection::vec(0u16..1 << Effect::ALL.len(), CAP..CAP + 1),
        raw_extra in (0usize..64, 0usize..64),
    ) {
        let mut adj: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); n];
        for &(u, v) in &raw_edges {
            if let Some(out) = adj.get_mut(u % n) {
                out.insert(v % n);
            }
        }
        let local: Vec<EffectSet> = (0..n)
            .map(|i| effect_set(raw_locals.get(i).copied().unwrap_or(0)))
            .collect();

        let summary = solve(n, &adj, &local);
        prop_assert_eq!(summary.len(), n);

        // Deterministic: a second run over the same inputs agrees exactly.
        prop_assert_eq!(&solve(n, &adj, &local), &summary);

        for f in 0..n {
            let got = summary.get(f).copied().unwrap_or(EffectSet::EMPTY);
            let own = local.get(f).copied().unwrap_or(EffectSet::EMPTY);
            // Extensive: local effects are never dropped.
            prop_assert!(own.is_subset(got), "fn {f}: local {own} ⊄ summary {got}");
            // Sound + complete against the reachability spec.
            let want = reachable_union(&adj, &local, f);
            prop_assert_eq!(got, want, "fn {f}: summary {got} != reachable union {want}");
        }

        // Monotone: one more call edge can only grow summaries.
        let (u, v) = (raw_extra.0 % n, raw_extra.1 % n);
        let mut grown = adj.clone();
        if let Some(out) = grown.get_mut(u) {
            out.insert(v);
        }
        let after = solve(n, &grown, &local);
        for f in 0..n {
            let before = summary.get(f).copied().unwrap_or(EffectSet::EMPTY);
            let now = after.get(f).copied().unwrap_or(EffectSet::EMPTY);
            prop_assert!(
                before.is_subset(now),
                "adding edge {u}→{v} shrank fn {f}: {before} → {now}"
            );
        }
    }
}
