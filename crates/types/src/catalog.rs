//! The item attribute catalog — the paper's `itemInfo(Item, Type, Price)`
//! auxiliary relation, generalized to any number of numeric and categorical
//! columns.

use crate::hash::FxHashMap;
use crate::item::ItemId;
use crate::itemset::Itemset;
use crate::{CfqError, Result};

/// Identifier of an attribute column in a [`Catalog`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct AttrId(pub u32);

/// Identifier of an interned categorical symbol (e.g. the type `"Snacks"`).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct SymbolId(pub u32);

/// The kind of an attribute column.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AttrKind {
    /// Numeric (`Price`-like): supports `min/max/sum/avg` aggregates.
    Num,
    /// Categorical (`Type`-like): supports domain/set constraints and
    /// `count(distinct)`-style class constraints.
    Cat,
}

enum Column {
    Num(Vec<f64>),
    Cat(Vec<SymbolId>),
}

/// Columnar per-item attribute store.
///
/// A catalog for `n` items holds, per attribute, a dense column of `n`
/// values. Values of categorical columns are interned [`SymbolId`]s; the
/// interner is shared across all categorical columns so symbol equality is
/// catalog-wide (the paper compares `S.Type` with `T.Type` directly).
pub struct Catalog {
    n_items: usize,
    names: Vec<String>,
    name_index: FxHashMap<String, AttrId>,
    columns: Vec<Column>,
    symbols: Vec<String>,
    symbol_index: FxHashMap<String, SymbolId>,
}

/// Builder for [`Catalog`]. Validates column lengths and rejects NaNs so the
/// rest of the workspace can use `f64::total_cmp` safely.
pub struct CatalogBuilder {
    catalog: Catalog,
}

impl CatalogBuilder {
    /// Starts a catalog for `n_items` items.
    pub fn new(n_items: usize) -> Self {
        CatalogBuilder {
            catalog: Catalog {
                n_items,
                names: Vec::new(),
                name_index: FxHashMap::default(),
                columns: Vec::new(),
                symbols: Vec::new(),
                symbol_index: FxHashMap::default(),
            },
        }
    }

    fn add_column(&mut self, name: &str, col: Column) -> Result<AttrId> {
        if self.catalog.name_index.contains_key(name) {
            return Err(CfqError::Attr(format!("duplicate attribute `{name}`")));
        }
        let id = AttrId(self.catalog.columns.len() as u32);
        self.catalog.names.push(name.to_string());
        self.catalog.name_index.insert(name.to_string(), id);
        self.catalog.columns.push(col);
        Ok(id)
    }

    /// Adds a numeric column. `values[i]` is the value for item `i`.
    pub fn num_attr(&mut self, name: &str, values: Vec<f64>) -> Result<AttrId> {
        if values.len() != self.catalog.n_items {
            return Err(CfqError::Attr(format!(
                "attribute `{name}` has {} values, catalog holds {} items",
                values.len(),
                self.catalog.n_items
            )));
        }
        if values.iter().any(|v| v.is_nan()) {
            return Err(CfqError::Attr(format!("attribute `{name}` contains NaN")));
        }
        self.add_column(name, Column::Num(values))
    }

    /// Adds a categorical column from string labels, interning the symbols.
    pub fn cat_attr<S: AsRef<str>>(&mut self, name: &str, labels: &[S]) -> Result<AttrId> {
        if labels.len() != self.catalog.n_items {
            return Err(CfqError::Attr(format!(
                "attribute `{name}` has {} values, catalog holds {} items",
                labels.len(),
                self.catalog.n_items
            )));
        }
        let ids: Vec<SymbolId> =
            labels.iter().map(|l| self.intern(l.as_ref())).collect();
        self.add_column(name, Column::Cat(ids))
    }

    /// Interns a symbol, returning its id (idempotent).
    pub fn intern(&mut self, sym: &str) -> SymbolId {
        if let Some(&id) = self.catalog.symbol_index.get(sym) {
            return id;
        }
        let id = SymbolId(self.catalog.symbols.len() as u32);
        self.catalog.symbols.push(sym.to_string());
        self.catalog.symbol_index.insert(sym.to_string(), id);
        id
    }

    /// Finishes the catalog.
    pub fn build(self) -> Catalog {
        self.catalog
    }
}

impl Catalog {
    /// An attribute-less catalog (queries over bare `S`, `T` only).
    pub fn empty(n_items: usize) -> Catalog {
        CatalogBuilder::new(n_items).build()
    }

    /// Number of items covered by this catalog.
    pub fn n_items(&self) -> usize {
        self.n_items
    }

    /// Number of attribute columns.
    pub fn n_attrs(&self) -> usize {
        self.columns.len()
    }

    /// Looks up an attribute by name.
    pub fn attr(&self, name: &str) -> Option<AttrId> {
        self.name_index.get(name).copied()
    }

    /// Looks up an attribute by name, erroring with context when absent.
    pub fn require_attr(&self, name: &str) -> Result<AttrId> {
        self.attr(name)
            .ok_or_else(|| CfqError::Attr(format!("no attribute `{name}` in catalog")))
    }

    /// The name of an attribute.
    pub fn attr_name(&self, attr: AttrId) -> &str {
        &self.names[attr.0 as usize]
    }

    /// The kind (numeric / categorical) of an attribute.
    pub fn kind(&self, attr: AttrId) -> AttrKind {
        match self.columns[attr.0 as usize] {
            Column::Num(_) => AttrKind::Num,
            Column::Cat(_) => AttrKind::Cat,
        }
    }

    /// Numeric value of `attr` for `item`. Panics if the column is
    /// categorical (callers validate kinds at plan time).
    #[inline]
    pub fn num(&self, attr: AttrId, item: ItemId) -> f64 {
        match &self.columns[attr.0 as usize] {
            Column::Num(v) => v[item.index()],
            Column::Cat(_) => panic!("attribute {} is categorical", self.attr_name(attr)),
        }
    }

    /// Categorical value of `attr` for `item`. Panics if numeric.
    #[inline]
    pub fn cat(&self, attr: AttrId, item: ItemId) -> SymbolId {
        match &self.columns[attr.0 as usize] {
            Column::Cat(v) => v[item.index()],
            Column::Num(_) => panic!("attribute {} is numeric", self.attr_name(attr)),
        }
    }

    /// Resolves a symbol name to its id, if interned.
    pub fn symbol(&self, name: &str) -> Option<SymbolId> {
        self.symbol_index.get(name).copied()
    }

    /// The label of a symbol id.
    pub fn symbol_name(&self, id: SymbolId) -> &str {
        &self.symbols[id.0 as usize]
    }

    /// Number of interned symbols.
    pub fn n_symbols(&self) -> usize {
        self.symbols.len()
    }

    /// The *value key* of `attr` for `item`: a catalog-wide 64-bit encoding
    /// under which two values are equal iff the attribute values are equal.
    ///
    /// Domain constraints such as `S.A ∩ T.B = ∅` compare *value sets*; this
    /// encoding lets numeric and categorical attributes share one code path.
    /// A bare variable (no attribute) uses the item id itself — see
    /// [`Catalog::value_set`].
    #[inline]
    pub fn value_key(&self, attr: AttrId, item: ItemId) -> u64 {
        match &self.columns[attr.0 as usize] {
            Column::Num(v) => v[item.index()].to_bits(),
            Column::Cat(v) => v[item.index()].0 as u64,
        }
    }

    /// The sorted, deduplicated set of value keys `X.A` for an itemset `X`,
    /// i.e. the paper's `S.A` treated as a set. With `attr = None` the
    /// "values" are the item ids themselves (the constraint is over the bare
    /// variable, e.g. `S ∩ T = ∅`).
    pub fn value_set(&self, attr: Option<AttrId>, set: &Itemset) -> Vec<u64> {
        let mut v = Vec::new();
        self.value_set_into(attr, set, &mut v);
        v
    }

    /// [`Catalog::value_set`] written over `out`, for a caller that keys
    /// thousands of sets and keeps none of the vectors (pair formation).
    pub fn value_set_into(&self, attr: Option<AttrId>, set: &Itemset, out: &mut Vec<u64>) {
        out.clear();
        match attr {
            None => out.extend(set.iter().map(|i| i.0 as u64)),
            Some(a) => out.extend(set.iter().map(|i| self.value_key(a, i))),
        }
        out.sort_unstable();
        out.dedup();
    }

    /// Iterator over numeric values of `attr` across `set`'s items.
    pub fn num_values<'a>(
        &'a self,
        attr: AttrId,
        set: &'a Itemset,
    ) -> impl Iterator<Item = f64> + 'a {
        set.iter().map(move |i| self.num(attr, i))
    }

    /// `min` aggregate of a numeric attribute over a set (None if empty).
    pub fn min_num(&self, attr: AttrId, set: &Itemset) -> Option<f64> {
        self.num_values(attr, set).min_by(|a, b| a.total_cmp(b))
    }

    /// `max` aggregate of a numeric attribute over a set (None if empty).
    pub fn max_num(&self, attr: AttrId, set: &Itemset) -> Option<f64> {
        self.num_values(attr, set).max_by(|a, b| a.total_cmp(b))
    }

    /// `sum` aggregate of a numeric attribute over a set (0 for empty).
    pub fn sum_num(&self, attr: AttrId, set: &Itemset) -> f64 {
        self.num_values(attr, set).sum()
    }

    /// `avg` aggregate of a numeric attribute over a set (None if empty).
    pub fn avg_num(&self, attr: AttrId, set: &Itemset) -> Option<f64> {
        if set.is_empty() {
            None
        } else {
            Some(self.sum_num(attr, set) / set.len() as f64)
        }
    }

    /// `count(distinct X.A)` — the paper's class constraint building block
    /// (`count(S.Type) = 1` means "all items of one type").
    pub fn count_distinct(&self, attr: Option<AttrId>, set: &Itemset) -> usize {
        self.value_set(attr, set).len()
    }

    /// The minimum value of a numeric column across *all* items (None for
    /// an empty catalog). Used to decide whether `sum` constraints are
    /// anti-monotone (they are only for non-negative domains, the paper's
    /// standing assumption in §5).
    pub fn column_min_num(&self, attr: AttrId) -> Option<f64> {
        match &self.columns[attr.0 as usize] {
            Column::Num(v) => v.iter().copied().min_by(f64::total_cmp),
            Column::Cat(_) => panic!("attribute {} is categorical", self.attr_name(attr)),
        }
    }

    /// The maximum value of a numeric column across *all* items (None for
    /// an empty catalog). Together with [`Catalog::column_min_num`] this
    /// bounds every possible aggregate, which lets the classifier fold
    /// trivially-true/false min/max comparisons into anti-monotone ones and
    /// recognize non-positive domains for `sum ≥ v`.
    pub fn column_max_num(&self, attr: AttrId) -> Option<f64> {
        match &self.columns[attr.0 as usize] {
            Column::Num(v) => v.iter().copied().max_by(f64::total_cmp),
            Column::Cat(_) => panic!("attribute {} is categorical", self.attr_name(attr)),
        }
    }

    /// All items whose numeric `attr` satisfies the predicate. Used to
    /// compile succinct constraints into item filters (the MGF in
    /// executable form).
    pub fn items_where_num<F: Fn(f64) -> bool>(&self, attr: AttrId, pred: F) -> Vec<ItemId> {
        match &self.columns[attr.0 as usize] {
            Column::Num(v) => v
                .iter()
                .enumerate()
                .filter(|(_, &x)| pred(x))
                .map(|(i, _)| ItemId(i as u32))
                .collect(),
            Column::Cat(_) => panic!("attribute {} is categorical", self.attr_name(attr)),
        }
    }

    /// All items whose value key satisfies the predicate (attribute-generic
    /// variant of [`Catalog::items_where_num`]).
    pub fn items_where_key<F: Fn(u64) -> bool>(
        &self,
        attr: Option<AttrId>,
        pred: F,
    ) -> Vec<ItemId> {
        (0..self.n_items as u32)
            .map(ItemId)
            .filter(|&i| {
                let key = match attr {
                    None => i.0 as u64,
                    Some(a) => self.value_key(a, i),
                };
                pred(key)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn catalog() -> Catalog {
        let mut b = CatalogBuilder::new(4);
        b.num_attr("Price", vec![10.0, 20.0, 30.0, 40.0]).unwrap();
        b.cat_attr("Type", &["Snacks", "Beers", "Snacks", "Dairy"]).unwrap();
        b.build()
    }

    #[test]
    fn lookup_and_kinds() {
        let c = catalog();
        let price = c.attr("Price").unwrap();
        let ty = c.attr("Type").unwrap();
        assert_eq!(c.kind(price), AttrKind::Num);
        assert_eq!(c.kind(ty), AttrKind::Cat);
        assert_eq!(c.attr_name(price), "Price");
        assert!(c.attr("Weight").is_none());
        assert!(c.require_attr("Weight").is_err());
    }

    #[test]
    fn values_and_symbols() {
        let c = catalog();
        let price = c.attr("Price").unwrap();
        let ty = c.attr("Type").unwrap();
        assert_eq!(c.num(price, ItemId(2)), 30.0);
        let snacks = c.symbol("Snacks").unwrap();
        assert_eq!(c.cat(ty, ItemId(0)), snacks);
        assert_eq!(c.cat(ty, ItemId(2)), snacks);
        assert_eq!(c.symbol_name(snacks), "Snacks");
        assert_eq!(c.n_symbols(), 3);
        assert!(c.symbol("Tools").is_none());
    }

    #[test]
    fn aggregates() {
        let c = catalog();
        let price = c.attr("Price").unwrap();
        let set: Itemset = [0u32, 1, 3].into();
        assert_eq!(c.min_num(price, &set), Some(10.0));
        assert_eq!(c.max_num(price, &set), Some(40.0));
        assert_eq!(c.sum_num(price, &set), 70.0);
        assert_eq!(c.avg_num(price, &set), Some(70.0 / 3.0));
        assert_eq!(c.min_num(price, &Itemset::empty()), None);
        assert_eq!(c.avg_num(price, &Itemset::empty()), None);
        assert_eq!(c.sum_num(price, &Itemset::empty()), 0.0);
    }

    #[test]
    fn value_sets_dedupe() {
        let c = catalog();
        let ty = c.attr("Type").unwrap();
        // Items 0 and 2 are both Snacks: value set has 2 entries.
        let set: Itemset = [0u32, 1, 2].into();
        assert_eq!(c.value_set(Some(ty), &set).len(), 2);
        assert_eq!(c.count_distinct(Some(ty), &set), 2);
        // Bare variable: values are the item ids.
        assert_eq!(c.value_set(None, &set), vec![0, 1, 2]);
        // The buffer form overwrites whatever the buffer held.
        let mut buf = vec![9, 9, 9, 9];
        c.value_set_into(Some(ty), &set, &mut buf);
        assert_eq!(buf, c.value_set(Some(ty), &set));
    }

    #[test]
    fn item_filters() {
        let c = catalog();
        let price = c.attr("Price").unwrap();
        let cheap = c.items_where_num(price, |p| p <= 20.0);
        assert_eq!(cheap, vec![ItemId(0), ItemId(1)]);
        let ty = c.attr("Type").unwrap();
        let snacks = c.symbol("Snacks").unwrap();
        let snack_items = c.items_where_key(Some(ty), |k| k == snacks.0 as u64);
        assert_eq!(snack_items, vec![ItemId(0), ItemId(2)]);
    }

    #[test]
    fn builder_validation() {
        let mut b = CatalogBuilder::new(2);
        assert!(b.num_attr("P", vec![1.0]).is_err());
        assert!(b.num_attr("P", vec![1.0, f64::NAN]).is_err());
        b.num_attr("P", vec![1.0, 2.0]).unwrap();
        assert!(b.num_attr("P", vec![1.0, 2.0]).is_err());
        assert!(b.cat_attr("T", &["a"]).is_err());
    }

    #[test]
    #[should_panic(expected = "categorical")]
    fn num_on_cat_panics() {
        let c = catalog();
        let ty = c.attr("Type").unwrap();
        c.num(ty, ItemId(0));
    }
}
