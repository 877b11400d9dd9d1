//! The flat `Mapping` against the tree form it replaced.
//!
//! The oracle is the old representation, `BTreeMap<AttrId,
//! BTreeSet<usize>>`, whose derived order consolidation's merge map (and
//! through it every probability fold) was built on; it lives only here.
//! The old quadratic duplicate check of `PMapping::try_new` /
//! `PMedSchema::try_new` is kept here too, to pin the error each input gets.

use std::cmp::Ordering;
use std::collections::{BTreeMap, BTreeSet};

use proptest::prelude::*;
use udi_schema::{AttrId, Mapping, MediatedSchema, ModelError, PMapping, PMedSchema};

type Tree = BTreeMap<AttrId, BTreeSet<usize>>;

const ATTRS: u32 = 5;
const TARGETS: usize = 7;

/// The old `Mapping::try_insert`: reject a mediated index that another
/// source attribute holds.
fn tree_try_insert(tree: &mut Tree, a: AttrId, j: usize) -> Result<(), ModelError> {
    let holder = tree.iter().find(|(_, ts)| ts.contains(&j)).map(|(&s, _)| s);
    if holder.is_some_and(|s| s != a) {
        return Err(ModelError::MediatedAttributeTaken(j));
    }
    tree.entry(a).or_default().insert(j);
    Ok(())
}

/// The pairs the tree accepts, in input order, and the tree they build.
fn accepted(raw: &[(u32, usize)]) -> (Vec<(AttrId, usize)>, Tree) {
    let mut tree = Tree::new();
    let mut pairs = Vec::new();
    for &(a, j) in raw {
        if tree_try_insert(&mut tree, AttrId(a), j).is_ok() {
            pairs.push((AttrId(a), j));
        }
    }
    (pairs, tree)
}

/// Raw pairs over a small universe, so attributes repeat (one-to-many) and
/// mappings share prefixes.
fn raw_pairs() -> impl Strategy<Value = Vec<(u32, usize)>> {
    prop::collection::vec((0..ATTRS, 0..TARGETS), 0..8)
}

/// `raw` with each attribute kept at its first occurrence only.
fn one_to_one(raw: Vec<(u32, usize)>) -> Vec<(u32, usize)> {
    let mut seen = BTreeSet::new();
    raw.into_iter().filter(|&(a, _)| seen.insert(a)).collect()
}

fn tree_pairs(tree: &Tree) -> Vec<(AttrId, usize)> {
    tree.iter()
        .flat_map(|(&a, ts)| ts.iter().map(move |&j| (a, j)))
        .collect()
}

/// Every observation a change of representation could alter.
fn check_against_tree(m: &Mapping, tree: &Tree) {
    assert_eq!(m.correspondences().collect::<Vec<_>>(), tree_pairs(tree));
    assert_eq!(m.len(), tree.values().map(BTreeSet::len).sum::<usize>());
    assert_eq!(m.is_empty(), tree.is_empty());
    assert_eq!(m.is_one_to_one(), tree.values().all(|ts| ts.len() == 1));
    for j in 0..=TARGETS {
        let holder = tree.iter().find(|(_, ts)| ts.contains(&j)).map(|(&a, _)| a);
        assert_eq!(m.source_of(j), holder, "source_of({j})");
    }
    for a in (0..=ATTRS).map(AttrId) {
        let want: Vec<usize> = tree.get(&a).into_iter().flatten().copied().collect();
        assert_eq!(
            m.targets_of(a).collect::<Vec<_>>(),
            want,
            "targets_of({a:?})"
        );
    }
}

/// Builds `raw` both ways: the tree one pair at a time, the flat mapping
/// with `try_new` over the pairs accepted so far plus the next one, so
/// `try_new` must reject exactly the pairs the tree rejects.
fn build(raw: &[(u32, usize)]) -> (Mapping, Tree) {
    let mut tree = Tree::new();
    let mut kept: Vec<(AttrId, usize)> = Vec::new();
    for &(a, j) in raw {
        let want = tree_try_insert(&mut tree, AttrId(a), j);
        let with_pair = kept.iter().copied().chain([(AttrId(a), j)]);
        let got = Mapping::try_new(with_pair).map(|_| ());
        assert_eq!(got, want, "adding ({a}, {j}) to {kept:?}");
        if want.is_ok() {
            kept.push((AttrId(a), j));
        }
    }
    let m = Mapping::try_new(kept.iter().rev().copied()).expect("accepted pairs are valid");
    check_against_tree(&m, &tree);
    (m, tree)
}

fn check_pair(x: &[(u32, usize)], y: &[(u32, usize)]) {
    let (mx, tx) = build(x);
    let (my, ty) = build(y);
    assert_eq!(mx.cmp(&my), tx.cmp(&ty), "cmp {tx:?} vs {ty:?}");
    assert_eq!(mx.partial_cmp(&my), Some(tx.cmp(&ty)));
    assert_eq!(mx == my, tx == ty, "eq {tx:?} vs {ty:?}");
}

/// The old `check_distribution`: per item in order, a range error, then a
/// repeat of any earlier item.
fn quadratic_check<T: PartialEq>(
    items: &[(T, f64)],
    empty: ModelError,
    duplicate: ModelError,
) -> Result<(), ModelError> {
    if items.is_empty() {
        return Err(empty);
    }
    let total: f64 = items.iter().map(|(_, p)| p).sum();
    let sums_to_one = (total - 1.0).abs() < 1e-6;
    if !sums_to_one {
        return Err(ModelError::ProbabilitySum(total));
    }
    for (i, (m, p)) in items.iter().enumerate() {
        if !(*p > 0.0 && *p <= 1.0 + 1e-9) {
            return Err(ModelError::ProbabilityOutOfRange(*p));
        }
        if items[..i].iter().any(|(m2, _)| m2 == m) {
            return Err(duplicate);
        }
    }
    Ok(())
}

/// Probabilities with planted failures: zero, negative, above one, NaN.
/// With `close` set, the last one is `1 − sum(rest)` so the sum check
/// passes and the per-item checks decide.
fn probabilities(raw: &[f64], close: bool) -> Vec<f64> {
    let mut ps = raw.to_vec();
    if close {
        if let Some(last) = ps.len().checked_sub(1) {
            ps[last] = 1.0 - ps[..last].iter().sum::<f64>();
        }
    }
    ps
}

fn probability_pool() -> Vec<f64> {
    vec![0.125, 0.25, 0.5, 0.0, -0.25, 1.25, f64::NAN]
}

/// A `Result`'s rendering, so a NaN payload compares equal to itself.
fn shown<T>(r: Result<T, ModelError>) -> String {
    format!("{:?}", r.err())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn one_to_many_mappings_agree_with_the_tree(x in raw_pairs(), y in raw_pairs()) {
        check_pair(&x, &y);
        // A shared prefix makes the group-wise order decide.
        let mut longer = x.clone();
        longer.extend(&y);
        check_pair(&x, &longer);
    }

    #[test]
    fn one_to_one_mappings_agree_with_the_tree(x in raw_pairs(), y in raw_pairs()) {
        let (x, y) = (one_to_one(x), one_to_one(y));
        check_pair(&x, &y);
        let (pairs, tree) = accepted(&x);
        let m = Mapping::new(pairs);
        prop_assert!(m.is_one_to_one());
        check_against_tree(&m, &tree);
    }

    #[test]
    fn pmapping_errors_match_the_quadratic_check(
        picks in prop::collection::vec((0..6usize, prop::sample::select(probability_pool())), 0..6),
        close in 0u8..4,
    ) {
        // A pool of six mappings, so picks repeat some of them; two differ
        // only in where a group ends.
        let pool: Vec<Mapping> = [
            &[][..],
            &[(0, 0)],
            &[(0, 1)],
            &[(1, 2), (1, 5)],
            &[(1, 2), (3, 0)],
            &[(0, 0), (1, 1), (2, 2)],
        ]
        .iter()
        .map(|pairs| Mapping::new(pairs.iter().map(|&(a, j)| (AttrId(a), j))))
        .collect();
        let raw: Vec<f64> = picks.iter().map(|&(_, p)| p).collect();
        let ps = probabilities(&raw, close > 0);
        let items: Vec<(Mapping, f64)> = picks
            .iter()
            .zip(&ps)
            .map(|(&(k, _), &p)| (pool[k].clone(), p))
            .collect();
        let want = quadratic_check(&items, ModelError::NoMappings, ModelError::DuplicateMapping);
        prop_assert_eq!(shown(PMapping::try_new(items)), shown(want));
    }

    #[test]
    fn pmed_schema_errors_match_the_quadratic_check(
        picks in prop::collection::vec((0..4usize, prop::sample::select(probability_pool())), 0..6),
        close in 0u8..4,
    ) {
        let ids = |xs: &[u32]| xs.iter().map(|&x| AttrId(x)).collect::<Vec<_>>();
        let pool = [
            MediatedSchema::from_slices(&[&ids(&[0, 1]), &ids(&[2])]),
            MediatedSchema::from_slices(&[&ids(&[0]), &ids(&[1, 2])]),
            MediatedSchema::from_slices(&[&ids(&[0]), &ids(&[1]), &ids(&[2])]),
            MediatedSchema::from_slices(&[&ids(&[0, 1, 2])]),
        ];
        let raw: Vec<f64> = picks.iter().map(|&(_, p)| p).collect();
        let ps = probabilities(&raw, close > 0);
        let items: Vec<(MediatedSchema, f64)> = picks
            .iter()
            .zip(&ps)
            .map(|(&(k, _), &p)| (pool[k].clone(), p))
            .collect();
        let want = quadratic_check(&items, ModelError::NoSchemas, ModelError::DuplicateSchema);
        prop_assert_eq!(shown(PMedSchema::try_new(items)), shown(want));
    }
}

#[test]
fn group_order_is_not_pair_order() {
    // {1→{2,5}} vs {1→{2}, 3→{0}}: pairwise, (1,5) < (3,0); group-wise,
    // {2} is a prefix of {2,5}, so the one-to-many mapping is larger.
    check_pair(&[(1, 2), (1, 5)], &[(1, 2), (3, 0)]);
    let wide = Mapping::new([(AttrId(1), 2), (AttrId(1), 5)]);
    let two = Mapping::new([(AttrId(1), 2), (AttrId(3), 0)]);
    assert_eq!(wide.cmp(&two), Ordering::Greater);
}

#[test]
fn range_error_wins_a_tie_with_a_repeat() {
    let m = Mapping::new([(AttrId(0), 0)]);
    let items = vec![(m.clone(), 0.75), (m, -0.25), (Mapping::empty(), 0.5)];
    let want = quadratic_check(&items, ModelError::NoMappings, ModelError::DuplicateMapping);
    assert_eq!(want, Err(ModelError::ProbabilityOutOfRange(-0.25)));
    assert_eq!(PMapping::try_new(items).err(), want.err());
}

#[test]
fn a_mapping_is_a_two_word_handle() {
    assert!(std::mem::size_of::<Mapping>() <= 16);
}
