//! Item identifiers.

use std::fmt;

/// A compact identifier for an item of the mined domain.
///
/// Items are dense indices `0..n_items` into the [`Catalog`](crate::Catalog)
/// attribute columns, exactly like the paper's `Item` domain with the
/// auxiliary relation `itemInfo(Item, Type, Price)`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ItemId(pub u32);

impl ItemId {
    /// Returns the item id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl From<u32> for ItemId {
    #[inline]
    fn from(v: u32) -> Self {
        ItemId(v)
    }
}

impl From<ItemId> for u32 {
    #[inline]
    fn from(v: ItemId) -> Self {
        v.0
    }
}

/// The items both ascending, duplicate-free lists hold, ascending: one
/// linear merge, `O(|a| + |b|)`, where filtering one list by a
/// `binary_search` of the other costs `O(|a| log |b|)`.
pub fn intersect_sorted(a: &[ItemId], b: &[ItemId]) -> Vec<ItemId> {
    debug_assert!(a.windows(2).all(|w| w[0] < w[1]), "left list not ascending");
    debug_assert!(b.windows(2).all(|w| w[0] < w[1]), "right list not ascending");
    let mut out = Vec::with_capacity(a.len().min(b.len()));
    let (mut i, mut j) = (0, 0);
    while let (Some(&x), Some(&y)) = (a.get(i), b.get(j)) {
        if x == y {
            out.push(x);
        }
        // Advance the smaller side, or both on a match, without a
        // three-way branch.
        i += usize::from(x <= y);
        j += usize::from(y <= x);
    }
    out
}

/// A membership bitset of item ids, one bit an id below the span it was
/// built with: a test is a word load and a shift.
#[derive(Clone, Debug)]
pub struct ItemBits(Vec<u64>);

impl ItemBits {
    /// The set of the ascending, duplicate-free `items` whose ids are below
    /// `span`. The others are left out, so an id far beyond the catalog in
    /// a caller's list costs no memory; callers whose members may lie there
    /// test those ids another way.
    pub fn new(items: &[ItemId], span: usize) -> ItemBits {
        debug_assert!(items.windows(2).all(|w| w[0] < w[1]), "items not ascending");
        let below = &items[..items.partition_point(|i| i.index() < span)];
        let mut words = vec![0u64; below.last().map_or(0, |i| i.index() / 64 + 1)];
        for i in below {
            words[i.index() / 64] |= 1 << (i.index() % 64);
        }
        ItemBits(words)
    }

    /// Whether `item` is a member (never, at or above the span).
    #[inline]
    pub fn contains(&self, item: ItemId) -> bool {
        self.0.get(item.index() / 64).is_some_and(|w| w >> (item.index() % 64) & 1 == 1)
    }
}

impl fmt::Debug for ItemId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "i{}", self.0)
    }
}

impl fmt::Display for ItemId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn item_id_roundtrip() {
        let i = ItemId::from(42u32);
        assert_eq!(u32::from(i), 42);
        assert_eq!(i.index(), 42);
        assert_eq!(format!("{i}"), "42");
        assert_eq!(format!("{i:?}"), "i42");
    }

    #[test]
    fn item_id_ordering() {
        assert!(ItemId(1) < ItemId(2));
        assert_eq!(ItemId(7), ItemId(7));
    }
}
