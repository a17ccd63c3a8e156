//! Compilation of 1-var constraints into executable succinct form.
//!
//! A succinct constraint's solution space has a member generating function
//! (Definition 2). Operationally, every succinct constraint used by CAP
//! compiles into one of:
//!
//! * an **allowed** item filter — valid sets are subsets of `allowed`
//!   (anti-monotone succinct constraints, CAP Strategy I);
//! * a **required group** — valid sets contain at least one item of the
//!   group (succinct non-anti-monotone constraints, CAP Strategy II);
//! * a **residual anti-monotone check** applied per candidate (succinct
//!   constraints whose MGF is a union of powersets, like `S.A ⊉ V`, and
//!   non-succinct anti-monotone constraints like `sum ≤ v`, CAP
//!   Strategy III);
//! * a **post filter** applied to frequent sets only (constraints that are
//!   neither, like `avg θ v` — CAP Strategy IV; where possible a weaker
//!   succinct constraint is *also* pushed, e.g. `avg(S.A) ≤ v` pushes the
//!   sound required group "contains an item with `A ≤ v`").
//!
//! The [`SuccinctForm`] of a conjunction merges all four parts.

use crate::bound::OneVar;
use crate::classify::classify_one;
use crate::lang::{Agg, CmpOp, SetRel};
use cfq_types::{intersect_sorted, Catalog, ItemId, Itemset};

/// The compiled, executable form of a conjunction of 1-var constraints on a
/// single variable.
#[derive(Clone, Debug, Default)]
pub struct SuccinctForm {
    /// Intersection of all `allowed` filters; `None` = unrestricted.
    pub allowed: Option<Vec<ItemId>>,
    /// Each group must contribute at least one item to a valid set.
    pub required_groups: Vec<Vec<ItemId>>,
    /// Anti-monotone residual checks (safe to prune candidates with).
    pub residual_am: Vec<OneVar>,
    /// Checks applied only to final frequent sets (sound completion).
    pub post_filters: Vec<OneVar>,
}

impl SuccinctForm {
    /// Compiles a conjunction of 1-var constraints.
    pub fn compile(constraints: &[OneVar], catalog: &Catalog) -> SuccinctForm {
        let mut form = SuccinctForm::default();
        for c in constraints {
            form.add(c, catalog);
        }
        form.normalize();
        form
    }

    /// Whether no set can satisfy the form (empty allowed universe or an
    /// empty required group).
    pub fn unsatisfiable(&self) -> bool {
        matches!(&self.allowed, Some(a) if a.is_empty())
            || self.required_groups.iter().any(|g| g.is_empty())
    }

    /// Restricts a universe to the allowed items (ascending, duplicate-free
    /// input and output).
    pub fn filter_universe(&self, universe: &[ItemId]) -> Vec<ItemId> {
        match &self.allowed {
            None => universe.to_vec(),
            Some(a) => intersect_sorted(universe, a),
        }
    }

    /// Evaluates the residual anti-monotone checks on a candidate.
    pub fn admits_candidate(&self, set: &Itemset, catalog: &Catalog) -> bool {
        self.residual_am.iter().all(|c| crate::eval::eval_one(c, set, catalog))
    }

    /// Evaluates the post filters on a frequent set.
    pub fn passes_post(&self, set: &Itemset, catalog: &Catalog) -> bool {
        self.post_filters.iter().all(|c| crate::eval::eval_one(c, set, catalog))
    }

    /// `true` if `set` contains at least one member of every required group.
    pub fn satisfies_required(&self, set: &Itemset) -> bool {
        self.required_groups
            .iter()
            .all(|g| g.iter().any(|&i| set.contains(i)))
    }

    /// Whether `c` compiles to an `allowed` filter and nothing else:
    /// `max ≤ / <`, `min ≥ / >`, `⊆` and `disjoint`. Such a condition
    /// holds on a set iff it holds on each of its items, so it can narrow
    /// a universe item by item ([`SuccinctForm::allows_item`]) with no
    /// compiled form at all.
    pub fn allowed_only(c: &OneVar) -> bool {
        match c {
            OneVar::Domain { rel, .. } => matches!(rel, SetRel::Subset | SetRel::Disjoint),
            OneVar::AggCmp { agg, op, .. } => matches!(
                (agg, op),
                (Agg::Min, CmpOp::Ge | CmpOp::Gt) | (Agg::Max, CmpOp::Le | CmpOp::Lt)
            ),
            OneVar::CountCmp { .. } => false,
        }
    }

    /// Whether the `allowed` filter of `c` — a condition
    /// [`SuccinctForm::allowed_only`] accepts — holds `item`: what
    /// `compile(&[c]).allowed` says of it, read off the item's own value.
    pub fn allows_item(c: &OneVar, item: ItemId, catalog: &Catalog) -> bool {
        debug_assert!(SuccinctForm::allowed_only(c), "{c:?} is not an allowed-only filter");
        match c {
            OneVar::Domain { attr, rel, value, .. } => {
                let key = attr.map_or(item.0 as u64, |a| catalog.value_key(a, item));
                value.binary_search(&key).is_ok() == (*rel == SetRel::Subset)
            }
            OneVar::AggCmp { attr, op, value, .. } => op.eval(catalog.num(*attr, item), *value),
            OneVar::CountCmp { .. } => false,
        }
    }

    fn intersect_allowed(&mut self, items: Vec<ItemId>) {
        debug_assert!(items.windows(2).all(|w| w[0] < w[1]));
        self.allowed = Some(match self.allowed.take() {
            None => items,
            Some(cur) => intersect_sorted(&cur, &items),
        });
    }

    fn add_group(&mut self, items: Vec<ItemId>) {
        self.required_groups.push(items);
    }

    /// Re-normalizes after out-of-band [`Self::add`] calls: restricts
    /// required groups to the allowed universe, deduplicates them, and
    /// orders them most-selective-first.
    pub fn normalize(&mut self) {
        // Required groups restricted to the allowed universe (an item
        // outside `allowed` can never appear in a valid set, so it cannot
        // satisfy the group either).
        if let Some(allowed) = &self.allowed {
            for g in &mut self.required_groups {
                *g = intersect_sorted(g, allowed);
            }
        }
        // Deduplicate identical groups; sort largest-last so the engine can
        // push the most selective group natively.
        self.required_groups.sort();
        self.required_groups.dedup();
        self.required_groups.sort_by_key(|g| g.len());
    }

    /// Adds one constraint to the form.
    pub fn add(&mut self, c: &OneVar, catalog: &Catalog) {
        match c {
            OneVar::Domain { attr, rel, value, .. } => {
                let in_value =
                    |cat: &Catalog| cat.items_where_key(*attr, |k| value.binary_search(&k).is_ok());
                let not_in_value =
                    |cat: &Catalog| cat.items_where_key(*attr, |k| value.binary_search(&k).is_err());
                match rel {
                    SetRel::Subset => self.intersect_allowed(in_value(catalog)),
                    SetRel::Disjoint => self.intersect_allowed(not_in_value(catalog)),
                    SetRel::Intersects => self.add_group(in_value(catalog)),
                    SetRel::NotSubset => self.add_group(not_in_value(catalog)),
                    SetRel::Superset => {
                        for &v in value {
                            self.add_group(catalog.items_where_key(*attr, |k| k == v));
                        }
                    }
                    SetRel::NotSuperset => self.residual_am.push(c.clone()),
                    SetRel::Eq => {
                        self.intersect_allowed(in_value(catalog));
                        for &v in value {
                            self.add_group(catalog.items_where_key(*attr, |k| k == v));
                        }
                    }
                    SetRel::Ne => self.post_filters.push(c.clone()),
                }
            }
            OneVar::AggCmp { var, agg, attr, op, value } => {
                let items_cmp = |cat: &Catalog, op: CmpOp| {
                    cat.items_where_num(*attr, |x| op.eval(x, *value))
                };
                match (agg, op) {
                    (Agg::Min, CmpOp::Ge | CmpOp::Gt) => {
                        self.intersect_allowed(items_cmp(catalog, *op))
                    }
                    (Agg::Min, CmpOp::Le | CmpOp::Lt) => self.add_group(items_cmp(catalog, *op)),
                    (Agg::Min, CmpOp::Eq) => {
                        self.intersect_allowed(items_cmp(catalog, CmpOp::Ge));
                        self.add_group(items_cmp(catalog, CmpOp::Eq));
                    }
                    (Agg::Max, CmpOp::Le | CmpOp::Lt) => {
                        self.intersect_allowed(items_cmp(catalog, *op))
                    }
                    (Agg::Max, CmpOp::Ge | CmpOp::Gt) => self.add_group(items_cmp(catalog, *op)),
                    (Agg::Max, CmpOp::Eq) => {
                        self.intersect_allowed(items_cmp(catalog, CmpOp::Le));
                        self.add_group(items_cmp(catalog, CmpOp::Eq));
                    }
                    (Agg::Min | Agg::Max, CmpOp::Ne) => self.post_filters.push(c.clone()),
                    (Agg::Sum, CmpOp::Le | CmpOp::Lt) => {
                        if classify_one(c, catalog).anti_monotone {
                            // Non-negative domain: a single item above the
                            // budget already violates, so filter it out, and
                            // keep the running-sum check anti-monotonically.
                            if *value >= 0.0 {
                                self.intersect_allowed(items_cmp(catalog, *op));
                            }
                            self.residual_am.push(c.clone());
                        } else {
                            self.post_filters.push(c.clone());
                        }
                    }
                    (Agg::Sum, _) => self.post_filters.push(c.clone()),
                    (Agg::Avg, CmpOp::Le | CmpOp::Lt) => {
                        // Weaker succinct constraint: min(S.A) op v.
                        self.add_group(items_cmp(catalog, *op));
                        self.post_filters.push(c.clone());
                    }
                    (Agg::Avg, CmpOp::Ge | CmpOp::Gt) => {
                        // Weaker succinct constraint: max(S.A) op v.
                        self.add_group(items_cmp(catalog, *op));
                        self.post_filters.push(c.clone());
                    }
                    (Agg::Avg, _) => self.post_filters.push(c.clone()),
                }
                let _ = var;
            }
            OneVar::CountCmp { var, attr, op, value } => match op {
                CmpOp::Le | CmpOp::Lt => self.residual_am.push(c.clone()),
                CmpOp::Eq => {
                    self.residual_am.push(OneVar::CountCmp {
                        var: *var,
                        attr: *attr,
                        op: CmpOp::Le,
                        value: *value,
                    });
                    self.post_filters.push(c.clone());
                }
                _ => self.post_filters.push(c.clone()),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bound::bind_query;
    use crate::parser::parse_query;
    use cfq_types::CatalogBuilder;

    fn catalog() -> Catalog {
        let mut b = CatalogBuilder::new(6);
        b.num_attr("Price", vec![10.0, 20.0, 30.0, 40.0, 50.0, 60.0]).unwrap();
        b.cat_attr("Type", &["A", "B", "A", "C", "B", "C"]).unwrap();
        b.build()
    }

    fn form(src: &str) -> SuccinctForm {
        let c = catalog();
        let q = bind_query(&parse_query(src).unwrap(), &c).unwrap();
        SuccinctForm::compile(&q.one_var, &c)
    }

    fn ids(v: &[u32]) -> Vec<ItemId> {
        v.iter().map(|&i| ItemId(i)).collect()
    }

    #[test]
    fn allowed_filters() {
        let f = form("max(S.Price) <= 30");
        assert_eq!(f.allowed, Some(ids(&[0, 1, 2])));
        assert!(f.required_groups.is_empty());

        let f = form("min(S.Price) >= 30");
        assert_eq!(f.allowed, Some(ids(&[2, 3, 4, 5])));

        let f = form("S.Type subset {A, B}");
        assert_eq!(f.allowed, Some(ids(&[0, 1, 2, 4])));

        let f = form("S.Type disjoint {A}");
        assert_eq!(f.allowed, Some(ids(&[1, 3, 4, 5])));
    }

    #[test]
    fn required_groups() {
        let f = form("min(S.Price) <= 20");
        assert_eq!(f.required_groups, vec![ids(&[0, 1])]);
        assert!(f.allowed.is_none());

        let f = form("max(S.Price) >= 50");
        assert_eq!(f.required_groups, vec![ids(&[4, 5])]);

        let f = form("S.Type intersects {C}");
        assert_eq!(f.required_groups, vec![ids(&[3, 5])]);

        // Superset of a 2-element literal: one group per element.
        let f = form("S.Type superset {A, B}");
        assert_eq!(f.required_groups.len(), 2);
    }

    #[test]
    fn conjunction_merges() {
        let f = form("max(S.Price) <= 40 & min(S.Price) <= 20 & S.Type subset {A, B}");
        // allowed: price ≤ 40 ∩ type ∈ {A,B} = {0,1,2}.
        assert_eq!(f.allowed, Some(ids(&[0, 1, 2])));
        // group (price ≤ 20) intersected with allowed: {0,1}.
        assert_eq!(f.required_groups, vec![ids(&[0, 1])]);
        assert!(!f.unsatisfiable());
    }

    #[test]
    fn unsatisfiable_forms() {
        let f = form("max(S.Price) <= 5");
        assert!(f.unsatisfiable());
        let f = form("min(S.Price) >= 100 & min(S.Price) <= 10");
        // allowed = ∅ from the first, group emptied by normalization.
        assert!(f.unsatisfiable());
    }

    #[test]
    fn residual_am_and_post() {
        let c = catalog();
        let f = form("sum(S.Price) <= 50");
        assert_eq!(f.residual_am.len(), 1);
        // Items with price > 50 are filtered out entirely.
        assert_eq!(f.allowed, Some(ids(&[0, 1, 2, 3, 4])));
        assert!(f.admits_candidate(&[0u32, 1].into(), &c));
        assert!(!f.admits_candidate(&[2u32, 3].into(), &c));

        let f = form("S.Type notsuperset {A, B}");
        assert_eq!(f.residual_am.len(), 1);
        assert!(f.admits_candidate(&[0u32, 3].into(), &c)); // types {A, C}
        assert!(!f.admits_candidate(&[0u32, 1].into(), &c)); // types {A, B}

        let f = form("S.Type != {A}");
        assert_eq!(f.post_filters.len(), 1);
        assert!(!f.passes_post(&[0u32, 2].into(), &c));
        assert!(f.passes_post(&[0u32, 1].into(), &c));
    }

    #[test]
    fn avg_pushes_weaker_group() {
        let c = catalog();
        let f = form("avg(S.Price) <= 25");
        // Weaker: must contain an item with price ≤ 25 → {0, 1}.
        assert_eq!(f.required_groups, vec![ids(&[0, 1])]);
        assert_eq!(f.post_filters.len(), 1);
        // {0,3}: avg 25 ≤ 25 → passes post; {1,3}: avg 30 → fails.
        assert!(f.passes_post(&[0u32, 3].into(), &c));
        assert!(!f.passes_post(&[1u32, 3].into(), &c));
    }

    #[test]
    fn count_eq_decomposes() {
        let c = catalog();
        let f = form("count(S) = 2");
        assert_eq!(f.residual_am.len(), 1);
        assert_eq!(f.post_filters.len(), 1);
        assert!(f.admits_candidate(&[0u32].into(), &c)); // ≤ 2 ok so far
        assert!(!f.admits_candidate(&[0u32, 1, 2].into(), &c));
        assert!(f.passes_post(&[0u32, 1].into(), &c));
        assert!(!f.passes_post(&[0u32].into(), &c));
    }

    #[test]
    fn equality_domain_constraint() {
        let f = form("S.Type = {A}");
        assert_eq!(f.allowed, Some(ids(&[0, 2])));
        assert_eq!(f.required_groups, vec![ids(&[0, 2])]);
    }

    /// The per-item reading agrees with the compiled form: a condition is
    /// `allowed_only` exactly when it compiles to an `allowed` filter and
    /// nothing else, and then `allows_item` is membership in that filter.
    #[test]
    fn allowed_only_is_the_compiled_filter_read_per_item() {
        let c = catalog();
        for src in [
            "max(S.Price) <= 30",
            "max(S.Price) < 30",
            "max(S.Price) >= 30",
            "max(S.Price) = 30",
            "min(S.Price) >= 30",
            "min(S.Price) > 30",
            "min(S.Price) <= 30",
            "sum(S.Price) <= 50",
            "avg(S.Price) <= 30",
            "count(S) <= 2",
            "S.Type subset {A, B}",
            "S.Type disjoint {A}",
            "S subset {1, 3}",
            "S disjoint {1, 3}",
            "S.Type = {A}",
            "S.Type intersects {A}",
            "S.Type notsuperset {A, B}",
        ] {
            let one = bind_query(&parse_query(src).unwrap(), &c).unwrap().one_var;
            let f = SuccinctForm::compile(&one, &c);
            let only = f.allowed.is_some()
                && f.required_groups.is_empty()
                && f.residual_am.is_empty()
                && f.post_filters.is_empty();
            assert_eq!(SuccinctForm::allowed_only(&one[0]), only, "`{src}`");
            if only {
                let per_item: Vec<ItemId> = (0..6)
                    .map(ItemId)
                    .filter(|&i| SuccinctForm::allows_item(&one[0], i, &c))
                    .collect();
                assert_eq!(f.allowed.as_ref(), Some(&per_item), "`{src}`");
            }
        }
    }

    #[test]
    fn filter_universe_and_required() {
        let f = form("max(S.Price) <= 30 & min(S.Price) <= 15");
        let uni = ids(&[0, 1, 2, 3, 4, 5]);
        assert_eq!(f.filter_universe(&uni), ids(&[0, 1, 2]));
        assert!(f.satisfies_required(&[0u32, 2].into()));
        assert!(!f.satisfies_required(&[1u32, 2].into()));
    }
}
