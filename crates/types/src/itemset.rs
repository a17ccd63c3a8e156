//! Sorted, immutable itemsets and the algebra levelwise mining needs.

use crate::item::ItemId;
use std::fmt;

/// Sets of up to this many items are stored inside the [`Itemset`] value;
/// larger ones in a heap block. Five covers nearly every frequent set of
/// the paper's workloads (its lattices thin out by level 6) and keeps the
/// value at three words.
const INLINE_CAP: usize = 5;

#[derive(Clone)]
enum Repr {
    /// The first `len` slots hold the set; the rest are padding.
    Inline { len: u8, items: [ItemId; INLINE_CAP] },
    Heap(Box<[ItemId]>),
}

/// An immutable set of items, stored sorted and duplicate-free.
///
/// This is both the paper's `S`-set and `T`-set. Itemsets are created in
/// huge numbers during mining and never mutated after construction, so the
/// representation is three words with small sets held inline: a lattice
/// level is one allocation, not one per set.
///
/// Ordering (`Ord`) is lexicographic on the sorted item sequence, which makes
/// collections of itemsets canonically ordered — handy for deterministic
/// output and for the prefix-join used in candidate generation. Equality,
/// ordering and hashing are those of [`Itemset::as_slice`].
///
/// ```
/// use cfq_types::Itemset;
/// let a: Itemset = [3u32, 1, 2, 3].into(); // sorts, dedups
/// let b: Itemset = [2u32, 4].into();
/// assert_eq!(a.to_string(), "{1,2,3}");
/// assert!(b.intersects(&a));
/// assert_eq!(a.union(&b).len(), 4);
/// assert_eq!(a.apriori_join(&[1u32, 2, 4].into()), Some([1u32, 2, 3, 4].into()));
/// assert_eq!(a.apriori_join(&[2u32, 3, 4].into()), None); // prefixes differ
/// ```
#[derive(Clone)]
pub struct Itemset {
    repr: Repr,
}

impl Itemset {
    /// A set of `len` items written by `fill`, which must leave its slice
    /// sorted and duplicate-free.
    fn build(len: usize, fill: impl FnOnce(&mut [ItemId])) -> Self {
        let repr = if len <= INLINE_CAP {
            let mut items = [ItemId(0); INLINE_CAP];
            fill(&mut items[..len]);
            Repr::Inline { len: len as u8, items }
        } else {
            let mut items = vec![ItemId(0); len].into_boxed_slice();
            fill(&mut items);
            Repr::Heap(items)
        };
        let set = Itemset { repr };
        debug_assert!(set.as_slice().windows(2).all(|w| w[0] < w[1]), "input not sorted/unique");
        set
    }

    /// Copies an already sorted, duplicate-free slice.
    fn from_sorted(items: &[ItemId]) -> Self {
        Itemset::build(items.len(), |out| out.copy_from_slice(items))
    }

    /// The empty itemset.
    pub fn empty() -> Self {
        Itemset::from_sorted(&[])
    }

    /// A one-element itemset.
    pub fn singleton(item: ItemId) -> Self {
        Itemset::from_sorted(&[item])
    }

    /// Builds an itemset from an arbitrary iterator; sorts and dedups.
    pub fn from_items<I: IntoIterator<Item = ItemId>>(iter: I) -> Self {
        let mut v: Vec<ItemId> = iter.into_iter().collect();
        v.sort_unstable();
        v.dedup();
        Itemset::from_sorted_vec(v)
    }

    /// Builds an itemset from a vector the caller promises is already sorted
    /// and duplicate-free. Checked with a debug assertion.
    pub fn from_sorted_vec(v: Vec<ItemId>) -> Self {
        if v.len() <= INLINE_CAP {
            return Itemset::from_sorted(&v);
        }
        debug_assert!(v.windows(2).all(|w| w[0] < w[1]), "input not sorted/unique");
        Itemset { repr: Repr::Heap(v.into_boxed_slice()) }
    }

    /// Number of items.
    #[inline]
    pub fn len(&self) -> usize {
        self.as_slice().len()
    }

    /// `true` when the set has no items.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.as_slice().is_empty()
    }

    /// The items as a sorted slice.
    #[inline]
    pub fn as_slice(&self) -> &[ItemId] {
        match &self.repr {
            Repr::Inline { len, items } => &items[..*len as usize],
            Repr::Heap(items) => items,
        }
    }

    /// Bytes this set holds on the heap beyond its own value: none for a
    /// small (inline) set. For memory accounting.
    pub fn heap_bytes(&self) -> usize {
        match &self.repr {
            Repr::Inline { .. } => 0,
            Repr::Heap(items) => std::mem::size_of_val::<[ItemId]>(items),
        }
    }

    /// Iterates the items in ascending order.
    #[inline]
    pub fn iter(&self) -> impl Iterator<Item = ItemId> + '_ {
        self.as_slice().iter().copied()
    }

    /// Membership test (binary search).
    #[inline]
    pub fn contains(&self, item: ItemId) -> bool {
        self.as_slice().binary_search(&item).is_ok()
    }

    /// `true` iff `self ⊆ other`. Linear merge; both sides are sorted.
    pub fn is_subset_of(&self, other: &Itemset) -> bool {
        if self.len() > other.len() {
            return false;
        }
        let mut oi = other.as_slice().iter();
        'outer: for &a in self.as_slice() {
            for &b in oi.by_ref() {
                match b.cmp(&a) {
                    std::cmp::Ordering::Less => continue,
                    std::cmp::Ordering::Equal => continue 'outer,
                    std::cmp::Ordering::Greater => return false,
                }
            }
            return false;
        }
        true
    }

    /// `true` iff the two sets share at least one item.
    pub fn intersects(&self, other: &Itemset) -> bool {
        let (a, b) = (self.as_slice(), other.as_slice());
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => return true,
            }
        }
        false
    }

    /// Set union.
    pub fn union(&self, other: &Itemset) -> Itemset {
        let (a, b) = (self.as_slice(), other.as_slice());
        let mut out = Vec::with_capacity(a.len() + b.len());
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                std::cmp::Ordering::Less => {
                    out.push(a[i]);
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    out.push(b[j]);
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    out.push(a[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        out.extend_from_slice(&a[i..]);
        out.extend_from_slice(&b[j..]);
        Itemset::from_sorted_vec(out)
    }

    /// Set intersection.
    pub fn intersection(&self, other: &Itemset) -> Itemset {
        let (a, b) = (self.as_slice(), other.as_slice());
        let mut out = Vec::new();
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    out.push(a[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        Itemset::from_sorted_vec(out)
    }

    /// Set difference `self \ other`.
    pub fn difference(&self, other: &Itemset) -> Itemset {
        let b = other.as_slice();
        let mut out = Vec::with_capacity(self.len());
        let mut j = 0;
        for &a in self.as_slice() {
            while j < b.len() && b[j] < a {
                j += 1;
            }
            if j >= b.len() || b[j] != a {
                out.push(a);
            }
        }
        Itemset::from_sorted_vec(out)
    }

    /// Returns a new itemset with `item` inserted (no-op clone if present).
    pub fn with_item(&self, item: ItemId) -> Itemset {
        let items = self.as_slice();
        match items.binary_search(&item) {
            Ok(_) => self.clone(),
            Err(pos) => Itemset::build(items.len() + 1, |out| {
                out[..pos].copy_from_slice(&items[..pos]);
                out[pos] = item;
                out[pos + 1..].copy_from_slice(&items[pos..]);
            }),
        }
    }

    /// Returns a new itemset with the item at `idx` removed.
    pub fn without_index(&self, idx: usize) -> Itemset {
        let items = self.as_slice();
        Itemset::build(items.len() - 1, |out| {
            out[..idx].copy_from_slice(&items[..idx]);
            out[idx..].copy_from_slice(&items[idx + 1..]);
        })
    }

    /// Calls `f` once per (len-1)-subset, in order of the removed position.
    /// This is the Apriori prune enumeration.
    pub fn for_each_len_minus_one<F: FnMut(&Itemset)>(&self, mut f: F) {
        for idx in 0..self.len() {
            f(&self.without_index(idx));
        }
    }

    /// The Apriori join: if `self` and `other` are k-sets sharing their first
    /// k-1 items and `self < other` on the last item, returns the (k+1)-set
    /// `self ∪ other`; otherwise `None`.
    pub fn apriori_join(&self, other: &Itemset) -> Option<Itemset> {
        let (a, b) = (self.as_slice(), other.as_slice());
        let k = a.len();
        if k == 0 || b.len() != k {
            return None;
        }
        if a[..k - 1] != b[..k - 1] {
            return None;
        }
        if a[k - 1] >= b[k - 1] {
            return None;
        }
        Some(Itemset::build(k + 1, |out| {
            out[..k].copy_from_slice(a);
            out[k] = b[k - 1];
        }))
    }

    /// Enumerates all subsets of a given size (ascending lexicographic).
    /// Intended for brute-force oracles in tests and the Apriori⁺ baseline
    /// on small instances — cost is `C(n, k)`.
    pub fn subsets_of_size(&self, k: usize) -> SubsetIter<'_> {
        SubsetIter::new(self.as_slice(), k)
    }

    /// Enumerates every non-empty subset. Exponential; test/oracle use only.
    pub fn all_nonempty_subsets(&self) -> Vec<Itemset> {
        let n = self.len();
        assert!(n <= 20, "all_nonempty_subsets is for small sets only");
        let mut out = Vec::with_capacity((1usize << n) - 1);
        for mask in 1u32..(1u32 << n) {
            let mut v = Vec::with_capacity(mask.count_ones() as usize);
            for (i, &it) in self.as_slice().iter().enumerate() {
                if mask & (1 << i) != 0 {
                    v.push(it);
                }
            }
            out.push(Itemset::from_sorted_vec(v));
        }
        out
    }
}

impl Default for Itemset {
    fn default() -> Self {
        Itemset::empty()
    }
}

impl PartialEq for Itemset {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Itemset {}

impl PartialOrd for Itemset {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Itemset {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.as_slice().cmp(other.as_slice())
    }
}

impl std::hash::Hash for Itemset {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl FromIterator<ItemId> for Itemset {
    fn from_iter<I: IntoIterator<Item = ItemId>>(iter: I) -> Self {
        Itemset::from_items(iter)
    }
}

impl FromIterator<u32> for Itemset {
    fn from_iter<I: IntoIterator<Item = u32>>(iter: I) -> Self {
        Itemset::from_items(iter.into_iter().map(ItemId))
    }
}

impl<const N: usize> From<[u32; N]> for Itemset {
    fn from(arr: [u32; N]) -> Self {
        arr.into_iter().collect()
    }
}

impl Itemset {
    fn fmt_items(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, it) in self.as_slice().iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{}", it.0)?;
        }
        write!(f, "}}")
    }
}

impl fmt::Debug for Itemset {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.fmt_items(f)
    }
}

impl fmt::Display for Itemset {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.fmt_items(f)
    }
}

/// Iterator over the k-element subsets of a sorted slice, in lexicographic
/// order of index combinations.
pub struct SubsetIter<'a> {
    items: &'a [ItemId],
    idx: Vec<usize>,
    done: bool,
}

impl<'a> SubsetIter<'a> {
    fn new(items: &'a [ItemId], k: usize) -> Self {
        let done = k > items.len();
        SubsetIter { items, idx: (0..k).collect(), done }
    }
}

impl Iterator for SubsetIter<'_> {
    type Item = Itemset;

    fn next(&mut self) -> Option<Itemset> {
        if self.done {
            return None;
        }
        let out = Itemset::from_sorted_vec(self.idx.iter().map(|&i| self.items[i]).collect());
        // Advance the combination.
        let k = self.idx.len();
        let n = self.items.len();
        if k == 0 {
            self.done = true;
            return Some(out);
        }
        let mut i = k;
        loop {
            if i == 0 {
                self.done = true;
                break;
            }
            i -= 1;
            if self.idx[i] < n - (k - i) {
                self.idx[i] += 1;
                for j in i + 1..k {
                    self.idx[j] = self.idx[j - 1] + 1;
                }
                break;
            }
        }
        Some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: &[u32]) -> Itemset {
        v.iter().copied().collect()
    }

    #[test]
    fn construction_sorts_and_dedups() {
        let a = s(&[3, 1, 2, 3, 1]);
        assert_eq!(a.as_slice(), &[ItemId(1), ItemId(2), ItemId(3)]);
        assert_eq!(a.len(), 3);
    }

    #[test]
    fn empty_and_singleton() {
        assert!(Itemset::empty().is_empty());
        assert_eq!(Itemset::singleton(ItemId(5)).as_slice(), &[ItemId(5)]);
    }

    #[test]
    fn contains_and_subset() {
        let a = s(&[1, 3, 5, 7]);
        assert!(a.contains(ItemId(5)));
        assert!(!a.contains(ItemId(4)));
        assert!(s(&[3, 7]).is_subset_of(&a));
        assert!(s(&[]).is_subset_of(&a));
        assert!(a.is_subset_of(&a));
        assert!(!s(&[3, 4]).is_subset_of(&a));
        assert!(!s(&[1, 3, 5, 7, 9]).is_subset_of(&a));
    }

    #[test]
    fn intersects_cases() {
        assert!(s(&[1, 2]).intersects(&s(&[2, 3])));
        assert!(!s(&[1, 2]).intersects(&s(&[3, 4])));
        assert!(!Itemset::empty().intersects(&s(&[1])));
    }

    #[test]
    fn union_intersection_difference() {
        let a = s(&[1, 2, 4]);
        let b = s(&[2, 3, 4, 6]);
        assert_eq!(a.union(&b), s(&[1, 2, 3, 4, 6]));
        assert_eq!(a.intersection(&b), s(&[2, 4]));
        assert_eq!(a.difference(&b), s(&[1]));
        assert_eq!(b.difference(&a), s(&[3, 6]));
    }

    #[test]
    fn with_item_and_without_index() {
        let a = s(&[1, 3]);
        assert_eq!(a.with_item(ItemId(2)), s(&[1, 2, 3]));
        assert_eq!(a.with_item(ItemId(3)), a);
        assert_eq!(s(&[1, 2, 3]).without_index(1), s(&[1, 3]));
    }

    #[test]
    fn len_minus_one_enumeration() {
        let a = s(&[1, 2, 3]);
        let mut subs = Vec::new();
        a.for_each_len_minus_one(|x| subs.push(x.clone()));
        assert_eq!(subs, vec![s(&[2, 3]), s(&[1, 3]), s(&[1, 2])]);
    }

    #[test]
    fn apriori_join_rules() {
        // Join {1,2} ⋈ {1,3} = {1,2,3}.
        assert_eq!(s(&[1, 2]).apriori_join(&s(&[1, 3])), Some(s(&[1, 2, 3])));
        // Wrong order.
        assert_eq!(s(&[1, 3]).apriori_join(&s(&[1, 2])), None);
        // Differing prefixes.
        assert_eq!(s(&[1, 2]).apriori_join(&s(&[2, 3])), None);
        // Level-1 join.
        assert_eq!(s(&[1]).apriori_join(&s(&[2])), Some(s(&[1, 2])));
        // Equal sets never join.
        assert_eq!(s(&[1, 2]).apriori_join(&s(&[1, 2])), None);
    }

    #[test]
    fn subsets_of_size_enumerates_combinations() {
        let a = s(&[1, 2, 3, 4]);
        let subs: Vec<_> = a.subsets_of_size(2).collect();
        assert_eq!(subs.len(), 6);
        assert_eq!(subs[0], s(&[1, 2]));
        assert_eq!(subs[5], s(&[3, 4]));
        assert_eq!(a.subsets_of_size(0).count(), 1);
        assert_eq!(a.subsets_of_size(4).count(), 1);
        assert_eq!(a.subsets_of_size(5).count(), 0);
    }

    #[test]
    fn all_nonempty_subsets_count() {
        let a = s(&[1, 2, 3]);
        let subs = a.all_nonempty_subsets();
        assert_eq!(subs.len(), 7);
        assert!(subs.contains(&s(&[1, 3])));
    }

    #[test]
    fn ordering_is_lexicographic() {
        assert!(s(&[1, 2]) < s(&[1, 3]));
        assert!(s(&[1]) < s(&[1, 2]));
        assert!(s(&[2]) > s(&[1, 9, 10]));
    }

    #[test]
    fn small_sets_are_inline_and_the_boundary_is_invisible() {
        use std::hash::{Hash, Hasher};
        // Three words, so a lattice entry `(Itemset, u64)` is four.
        assert!(std::mem::size_of::<Itemset>() <= 24);
        let hash = |x: &Itemset| {
            let mut h = std::collections::hash_map::DefaultHasher::new();
            x.hash(&mut h);
            h.finish()
        };
        // Sizes on both sides of the inline capacity, through every
        // constructor: same slice, same equality, order and hash.
        for n in [0u32, 1, 4, 5, 6, 9] {
            let items: Vec<ItemId> = (0..n).map(|i| ItemId(2 * i + 1)).collect();
            let a = Itemset::from_sorted_vec(items.clone());
            let b = Itemset::from_items(items.iter().rev().copied());
            assert_eq!(a.as_slice(), items.as_slice());
            assert_eq!(a.len(), n as usize);
            assert_eq!(a, b);
            assert_eq!(a.cmp(&b), std::cmp::Ordering::Equal);
            assert_eq!(hash(&a), hash(&b));
            assert_eq!(a.clone(), a);
            assert_eq!(a.heap_bytes(), if n <= 5 { 0 } else { 4 * n as usize });
            // Growing and shrinking across the boundary.
            let grown = a.with_item(ItemId(2));
            assert_eq!(grown.len(), n as usize + 1);
            assert!(a.is_subset_of(&grown) && a != grown);
            let pos = grown.as_slice().iter().position(|&i| i == ItemId(2)).unwrap();
            assert_eq!(grown.without_index(pos), a);
        }
        assert_eq!(s(&[1, 2, 3, 4, 5]).apriori_join(&s(&[1, 2, 3, 4, 6])), Some(s(&[1, 2, 3, 4, 5, 6])));
        assert_eq!(s(&[1, 2, 3, 4]).union(&s(&[5, 6])), s(&[1, 2, 3, 4, 5, 6]));
        assert_eq!(s(&[1, 2, 3, 4, 5, 6]).intersection(&s(&[2, 4, 6, 8])), s(&[2, 4, 6]));
        assert_eq!(Itemset::default(), Itemset::empty());
    }

    #[test]
    fn display_format() {
        assert_eq!(format!("{}", s(&[1, 2, 3])), "{1,2,3}");
        assert_eq!(format!("{}", Itemset::empty()), "{}");
    }
}
