//! Property tests for the itemset algebra — the foundation everything
//! else trusts.

use cfq::prelude::*;
use cfq::types::{intersect_sorted, ItemBits};
use proptest::prelude::*;

fn arb_itemset() -> impl Strategy<Value = Itemset> {
    prop::collection::vec(0u32..24, 0..12).prop_map(|v| v.into_iter().collect())
}

/// An ascending, duplicate-free id list in one of three bands: small ids
/// (lists overlap often), ids spread over the whole `u32` range, or ids
/// ending at `u32::MAX`.
fn sorted_ids(raw: Vec<u32>, band: u32) -> Vec<ItemId> {
    let mut ids: Vec<ItemId> = raw
        .into_iter()
        .map(|x| match band {
            0 => x,
            1 => x.wrapping_mul(0x9E37_79B9),
            _ => u32::MAX - x,
        })
        .map(ItemId)
        .collect();
    ids.sort_unstable();
    ids.dedup();
    ids
}

/// What `intersect_sorted` replaced: `a` filtered by a search of `b`.
fn searched(a: &[ItemId], b: &[ItemId]) -> Vec<ItemId> {
    a.iter().copied().filter(|i| b.binary_search(i).is_ok()).collect()
}

#[test]
fn intersect_sorted_on_edge_lists() {
    let ids = |v: &[u32]| v.iter().copied().map(ItemId).collect::<Vec<_>>();
    let top = u32::MAX;
    for (a, b) in [
        (ids(&[]), ids(&[])),
        (ids(&[]), ids(&[1, 2, 3])),
        (ids(&[1, 2, 3]), ids(&[])),
        (ids(&[1, 3, 5]), ids(&[2, 4, 6])),
        (ids(&[1, 2, 3]), ids(&[1, 2, 3])),
        (ids(&[0, 1, top]), ids(&[top])),
        (ids(&[0, top - 1, top]), ids(&[1, top - 1, top])),
        (ids(&[7]), ids(&[0, 1, 2, 3, 4, 5, 6, 7, 8])),
    ] {
        assert_eq!(intersect_sorted(&a, &b), searched(&a, &b), "{a:?} ∩ {b:?}");
        assert_eq!(intersect_sorted(&b, &a), searched(&a, &b), "{b:?} ∩ {a:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    #[test]
    fn construction_is_sorted_unique(v in prop::collection::vec(0u32..100, 0..30)) {
        let s: Itemset = v.iter().copied().collect();
        let slice = s.as_slice();
        prop_assert!(slice.windows(2).all(|w| w[0] < w[1]));
        for &x in &v {
            prop_assert!(s.contains(ItemId(x)));
        }
    }

    #[test]
    fn union_intersection_difference_laws(a in arb_itemset(), b in arb_itemset()) {
        let u = a.union(&b);
        let i = a.intersection(&b);
        let d = a.difference(&b);
        // |A ∪ B| = |A| + |B| - |A ∩ B|.
        prop_assert_eq!(u.len(), a.len() + b.len() - i.len());
        // A = (A \ B) ∪ (A ∩ B).
        prop_assert_eq!(d.union(&i), a.clone());
        // Subset relations.
        prop_assert!(i.is_subset_of(&a) && i.is_subset_of(&b));
        prop_assert!(a.is_subset_of(&u) && b.is_subset_of(&u));
        prop_assert!(!d.intersects(&b));
        // Commutativity.
        prop_assert_eq!(u, b.union(&a));
        prop_assert_eq!(i, b.intersection(&a));
    }

    #[test]
    fn intersect_sorted_equals_the_binary_search_filter(
        a in prop::collection::vec(0u32..48, 0..40),
        b in prop::collection::vec(0u32..48, 0..40),
        band in 0u32..3,
    ) {
        let (a, b) = (sorted_ids(a, band), sorted_ids(b, band));
        prop_assert_eq!(intersect_sorted(&a, &b), searched(&a, &b));
        prop_assert_eq!(intersect_sorted(&b, &a), searched(&a, &b));
        prop_assert_eq!(intersect_sorted(&a, &a), a.clone());
    }

    #[test]
    fn item_bits_membership_equals_binary_search(
        a in prop::collection::vec(0u32..200, 0..40),
        b in prop::collection::vec(0u32..200, 0..40),
        band in 0u32..3,
        span in 0usize..260,
    ) {
        let (a, b) = (sorted_ids(a, band), sorted_ids(b, band));
        let bits = ItemBits::new(&a, span);
        for &i in a.iter().chain(&b) {
            let member = i.index() < span && a.binary_search(&i).is_ok();
            prop_assert_eq!(bits.contains(i), member, "{:?} span {}", i, span);
        }
    }

    #[test]
    fn subset_iff_union_absorbs(a in arb_itemset(), b in arb_itemset()) {
        prop_assert_eq!(a.is_subset_of(&b), a.union(&b) == b);
        prop_assert_eq!(a.intersects(&b), !a.intersection(&b).is_empty());
    }

    #[test]
    fn with_item_and_without_index(a in arb_itemset(), x in 0u32..24) {
        let w = a.with_item(ItemId(x));
        prop_assert!(w.contains(ItemId(x)));
        prop_assert!(a.is_subset_of(&w));
        if !a.is_empty() {
            let removed = a.without_index(0);
            prop_assert_eq!(removed.len(), a.len() - 1);
            prop_assert!(removed.is_subset_of(&a));
        }
    }

    #[test]
    fn apriori_join_produces_supersets(a in arb_itemset(), b in arb_itemset()) {
        if let Some(j) = a.apriori_join(&b) {
            prop_assert_eq!(j.len(), a.len() + 1);
            prop_assert!(a.is_subset_of(&j));
            prop_assert!(b.is_subset_of(&j));
        }
    }

    #[test]
    fn subsets_of_size_counts(v in prop::collection::vec(0u32..16, 0..9), k in 0usize..10) {
        let s: Itemset = v.into_iter().collect();
        let n = s.len();
        let expected = if k > n {
            0
        } else {
            // C(n, k)
            let mut c = 1u64;
            for i in 0..k as u64 {
                c = c * (n as u64 - i) / (i + 1);
            }
            c as usize
        };
        let subs: Vec<Itemset> = s.subsets_of_size(k).collect();
        prop_assert_eq!(subs.len(), expected);
        for sub in &subs {
            prop_assert_eq!(sub.len(), k);
            prop_assert!(sub.is_subset_of(&s));
        }
        // All distinct.
        let mut sorted = subs.clone();
        sorted.sort();
        sorted.dedup();
        prop_assert_eq!(sorted.len(), expected);
    }

    #[test]
    fn support_monotone_under_subsets(
        txs in prop::collection::vec(prop::collection::vec(0u32..10, 0..6), 1..12),
        set in prop::collection::vec(0u32..10, 1..4),
    ) {
        let txs: Vec<Vec<ItemId>> =
            txs.into_iter().map(|t| t.into_iter().map(ItemId).collect()).collect();
        let db = TransactionDb::new(10, txs).unwrap();
        let s: Itemset = set.into_iter().collect();
        let sup = db.support(&s);
        s.for_each_len_minus_one(|sub| {
            assert!(db.support(sub) >= sup, "support not anti-monotone");
        });
    }
}
