//! Final pair formation (the last box of Figure 7).
//!
//! Given the frequent valid S- and T-sets, form the pairs satisfying every
//! *original* 2-var constraint. This step also absorbs the looseness of any
//! non-tight or induced-weaker pruning upstream: whatever survived the
//! lattices is re-verified here, so the optimizer's answer is exact
//! regardless of how aggressive (or lazy) the pruning was.
//!
//! The cross product is what a warm request spends its time on, so the
//! work follows the answer instead of |S|·|T|. Constraints are *prepared*
//! once per call, and one S-set's valid T-sets are a **row**: a bitset over
//! the T-sets that each prepared constraint narrows without visiting every
//! T-set.
//!
//! * A numeric constraint (`agg(S.A) θ agg(T.B)`, `count θ count`) sorts
//!   the T values once. For a fixed S value the T-sets that hold are a run
//!   of that order (`!=`: everything outside the equal run), found by
//!   `partition_point`; the row keeps the run by setting its `k` bits or by
//!   clearing the other `|T| − k`, whichever is fewer. An empty run ends
//!   the row at the binary search, a full one costs nothing more.
//! * A domain constraint (`S.A rel T.B`) has one row per *distinct* S value
//!   set — ten types make a few dozen — built the first time an S-set with
//!   that value set comes up and ANDed in after that. The memo is bounded
//!   by `MASK_MEMO_BYTES`; past it (a bare-variable `S disjoint T`, where
//!   every set is its own key and nothing could be reused) a mask is built
//!   into scratch space each time.
//!
//! Pass 1 (`Kernel::mark`) counts every row by popcount and ORs it into
//! the used T-sets; pass 2 (`Kernel::emit`) recomputes only the rows that
//! had a pair and writes each pair once, into a vector of exactly the
//! length it ends with. Memory is O(|S| + |T|) words, the bounded memo and
//! the pairs — never a |S|×|T| matrix, so a count-only call
//! (`max_materialized = Some(0)`) allocates nothing that grows with the
//! cross product. [`pair_up`] is the form every execution ends with: it
//! compacts both sides to the sets that pair between the passes, so the
//! pairs are written in compacted index space directly.
//!
//! An *undefined* aggregate (min/max/avg of the empty set) fails every
//! operator, as `cfq_constraints::eval_two` has it: such a T-set is in no
//! row and such an S-set has an empty row. A NaN *value* (only an
//! `inf − inf` sum or average makes one; the catalog rejects NaN) keeps
//! IEEE semantics: it satisfies `!=` against everything and nothing else.

use cfq_constraints::{eval::agg_value, CmpOp, SetRel, TwoVar};
use cfq_types::{AttrId, Catalog, Itemset};
use std::collections::HashMap;
use std::ops::Range;

/// Result of pair formation; the default is the result over no sets.
#[derive(Clone, Debug, Default)]
pub struct PairResult {
    /// Number of valid pairs.
    pub count: u64,
    /// Materialized pairs as `(s_index, t_index)` — into the input slices
    /// from [`form_pairs`], into the returned (compacted) sides from
    /// [`pair_up`] — in ascending `(s_index, t_index)` order, truncated at
    /// the materialization cap if one was given.
    pub pairs: Vec<(u32, u32)>,
    /// Whether `pairs` was truncated.
    pub truncated: bool,
    /// 2-var constraint evaluations the cross product stands for:
    /// |S|·|T|·constraints. The unit it always had — the kernel no longer
    /// performs that many, but a ledger that moved with the kernel could
    /// not be compared across it.
    pub checks: u64,
    /// Per input S-set: participates in at least one valid pair. This is
    /// exactly Definition 3's *frequent valid S-set* (a frequent partner
    /// exists).
    pub s_used: Vec<bool>,
    /// Per input T-set: participates in at least one valid pair.
    pub t_used: Vec<bool>,
}

/// Keeps the flagged entries, returning the survivors and an old-index →
/// new-index remap (entries for dropped indices are unspecified). Used to
/// restrict reported sets to Definition 3's *frequent valid* sets — those
/// participating in at least one valid pair; [`pair_up`] is the one place
/// in the workspace that does, which is what makes every strategy's (and
/// the cache's) final answer identical.
pub fn compact_used(
    sets: Vec<(Itemset, u64)>,
    used: &[bool],
) -> (Vec<(Itemset, u64)>, Vec<u32>) {
    let mut remap = vec![0u32; sets.len()];
    let mut out = Vec::with_capacity(used.iter().filter(|&&u| u).count());
    for (i, entry) in sets.into_iter().enumerate() {
        if used[i] {
            remap[i] = out.len() as u32;
            out.push(entry);
        }
    }
    (out, remap)
}

/// Bytes of domain masks one constraint may keep. 256 KiB is 2,340 masks
/// over the 863 T-sets of the largest benchmark request, where a few dozen
/// are ever asked for; what it rules out is |S| masks of |T| bits when
/// every S-set has a value set of its own.
const MASK_MEMO_BYTES: usize = 256 << 10;

/// Largest cross product [`pair_up`] re-evaluates in debug builds.
const CROSS_CHECK_MAX: usize = 4096;

/// "No mask built yet" in [`Domain::mask_at`].
const UNBUILT: u32 = u32::MAX;

fn set_bit(words: &mut [u64], i: u32) {
    words[(i >> 6) as usize] |= 1 << (i & 63);
}

fn clear_bit(words: &mut [u64], i: u32) {
    words[(i >> 6) as usize] &= !(1 << (i & 63));
}

fn and_into(row: &mut [u64], mask: &[u64]) {
    for (r, m) in row.iter_mut().zip(mask) {
        *r &= m;
    }
}

/// A numeric constraint with both sides' values computed and the T side
/// ordered.
struct Num {
    op: CmpOp,
    /// Per S-set: its aggregate; `None` when undefined.
    s_vals: Vec<Option<f64>>,
    /// Every T index: those with a comparable value in ascending order of
    /// it, then (`sorted.len()..defined`) those whose value is NaN, then
    /// those whose aggregate is undefined.
    order: Vec<u32>,
    /// The values of `order[..sorted.len()]`.
    sorted: Vec<f64>,
    /// How many T-sets have a defined aggregate.
    defined: usize,
}

impl Num {
    fn new(op: CmpOp, s_vals: Vec<Option<f64>>, t_vals: impl Iterator<Item = Option<f64>>) -> Num {
        let (mut keyed, mut nan, mut undefined) = (Vec::new(), Vec::new(), Vec::new());
        for (ti, v) in t_vals.enumerate() {
            match v {
                Some(x) if x.is_nan() => nan.push(ti as u32),
                Some(x) => keyed.push((x, ti as u32)),
                None => undefined.push(ti as u32),
            }
        }
        // Ties (and -0.0 beside 0.0) land in an arbitrary order; every run
        // below takes or leaves a group of IEEE-equal values whole.
        keyed.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));
        let defined = keyed.len() + nan.len();
        let sorted = keyed.iter().map(|&(x, _)| x).collect();
        let order = keyed.iter().map(|&(_, ti)| ti).chain(nan).chain(undefined).collect();
        Num { op, s_vals, order, sorted, defined }
    }

    /// The positions of `order` whose T-sets satisfy `s op t`, as two
    /// ascending ranges (the second is empty for every operator but `!=`).
    fn valid(&self, s: Option<f64>) -> [Range<usize>; 2] {
        let end = self.order.len();
        let one = |r: Range<usize>| [r, end..end];
        let Some(s) = s else { return one(0..0) };
        if s.is_nan() {
            return one(0..if self.op == CmpOp::Ne { self.defined } else { 0 });
        }
        let below = || self.sorted.partition_point(|&t| t < s);
        let through = || self.sorted.partition_point(|&t| t <= s);
        match self.op {
            CmpOp::Le => one(below()..self.sorted.len()),
            CmpOp::Lt => one(through()..self.sorted.len()),
            CmpOp::Ge => one(0..through()),
            CmpOp::Gt => one(0..below()),
            CmpOp::Eq => one(below()..through()),
            CmpOp::Ne => [0..below(), through()..self.defined],
        }
    }

    /// Narrows `row` to the T-sets valid against S-set `si`; `false` when
    /// there are none (the row is then left as it was).
    fn narrow(&self, si: usize, row: &mut [u64], scratch: &mut [u64]) -> bool {
        let [a, b] = self.valid(self.s_vals[si]);
        let (k, n) = (a.len() + b.len(), self.order.len());
        if k == 0 {
            return false;
        }
        if k <= n - k {
            scratch.fill(0);
            for &ti in self.order[a].iter().chain(&self.order[b]) {
                set_bit(scratch, ti);
            }
            and_into(row, scratch);
        } else {
            let gaps = [0..a.start, a.end..b.start, b.end..n];
            for &ti in gaps.into_iter().flat_map(|gap| &self.order[gap]) {
                clear_bit(row, ti);
            }
        }
        true
    }
}

/// The distinct value sets of one side and which of them each set has.
struct Keys {
    ids: Vec<u32>,
    distinct: Vec<Vec<u64>>,
}

impl Keys {
    fn new(sets: &[(Itemset, u64)], attr: Option<AttrId>, catalog: &Catalog) -> Keys {
        let mut index: HashMap<Vec<u64>, u32> = HashMap::new();
        let mut buf = Vec::new();
        let ids = sets
            .iter()
            .map(|(set, _)| {
                catalog.value_set_into(attr, set, &mut buf);
                match index.get(buf.as_slice()) {
                    Some(&id) => id,
                    None => {
                        let id = index.len() as u32;
                        index.insert(buf.clone(), id);
                        id
                    }
                }
            })
            .collect();
        let mut distinct = vec![Vec::new(); index.len()];
        for (key, id) in index {
            distinct[id as usize] = key;
        }
        Keys { ids, distinct }
    }
}

/// A domain constraint with both sides' value sets deduplicated: the row
/// of an S-set depends only on its value set, so there is one mask per
/// distinct S value set, and building one evaluates the relation once per
/// distinct T value set and sets the bits of those that hold.
struct Domain {
    rel: SetRel,
    s: Keys,
    /// The distinct T value sets.
    t_distinct: Vec<Vec<u64>>,
    /// Every T index, grouped by value set: `t_distinct[k]` is the value
    /// set of the T-sets `t_order[t_starts[k]..t_starts[k + 1]]`.
    t_order: Vec<u32>,
    t_starts: Vec<u32>,
    /// Per distinct S value set: where its mask starts in `masks`, or
    /// [`UNBUILT`].
    mask_at: Vec<u32>,
    /// The memoised masks, a row's worth of words each; never longer than
    /// [`MASK_MEMO_BYTES`].
    masks: Vec<u64>,
}

impl Domain {
    fn new(rel: SetRel, s: Keys, t: Keys) -> Domain {
        // A counting sort of the T indices by value-set id.
        let mut t_starts = vec![0u32; t.distinct.len() + 1];
        for &id in &t.ids {
            t_starts[id as usize + 1] += 1;
        }
        for k in 1..t_starts.len() {
            t_starts[k] += t_starts[k - 1];
        }
        let mut next = t_starts.clone();
        let mut t_order = vec![0u32; t.ids.len()];
        for (ti, &id) in t.ids.iter().enumerate() {
            t_order[next[id as usize] as usize] = ti as u32;
            next[id as usize] += 1;
        }
        let mask_at = vec![UNBUILT; s.distinct.len()];
        Domain { rel, s, t_distinct: t.distinct, t_order, t_starts, mask_at, masks: Vec::new() }
    }

    fn narrow(&mut self, si: usize, row: &mut [u64], scratch: &mut [u64]) {
        let words = row.len();
        let key = self.s.ids[si] as usize;
        if self.mask_at[key] != UNBUILT {
            let at = self.mask_at[key] as usize;
            return and_into(row, &self.masks[at..at + words]);
        }
        let at = self.masks.len();
        let mask = if (at + words) * 8 <= MASK_MEMO_BYTES {
            self.mask_at[key] = at as u32;
            self.masks.resize(at + words, 0);
            &mut self.masks[at..]
        } else {
            scratch.fill(0);
            scratch
        };
        let s_key = &self.s.distinct[key];
        for (t_key, run) in self.t_distinct.iter().zip(self.t_starts.windows(2)) {
            if self.rel.eval(s_key, t_key) {
                for &ti in &self.t_order[run[0] as usize..run[1] as usize] {
                    set_bit(mask, ti);
                }
            }
        }
        and_into(row, mask);
    }
}

/// A 2-var constraint with its per-side inputs precomputed.
enum Prepared {
    Num(Num),
    Domain(Domain),
}

impl Prepared {
    fn build(
        c: &TwoVar,
        s_sets: &[(Itemset, u64)],
        t_sets: &[(Itemset, u64)],
        catalog: &Catalog,
    ) -> Prepared {
        match c {
            TwoVar::Domain { s_attr, rel, t_attr } => Prepared::Domain(Domain::new(
                *rel,
                Keys::new(s_sets, *s_attr, catalog),
                Keys::new(t_sets, *t_attr, catalog),
            )),
            TwoVar::AggCmp { s_agg, s_attr, op, t_agg, t_attr } => Prepared::Num(Num::new(
                *op,
                s_sets.iter().map(|(s, _)| agg_value(*s_agg, *s_attr, s, catalog)).collect(),
                t_sets.iter().map(|(t, _)| agg_value(*t_agg, *t_attr, t, catalog)),
            )),
            TwoVar::CountCmp { s_attr, op, t_attr } => {
                let mut buf = Vec::new();
                let mut count = |attr: Option<AttrId>, set: &Itemset| {
                    catalog.value_set_into(attr, set, &mut buf);
                    Some(buf.len() as f64)
                };
                let s_vals = s_sets.iter().map(|(s, _)| count(*s_attr, s)).collect();
                Prepared::Num(Num::new(*op, s_vals, t_sets.iter().map(|(t, _)| count(*t_attr, t))))
            }
        }
    }
}

/// The prepared conjunction and the row it is evaluated into.
struct Kernel {
    prepared: Vec<Prepared>,
    n_s: usize,
    n_t: usize,
    /// The current row: bit `ti` set while T-set `ti` is valid.
    row: Vec<u64>,
    scratch: Vec<u64>,
}

impl Kernel {
    fn build(
        s_sets: &[(Itemset, u64)],
        t_sets: &[(Itemset, u64)],
        two_var: &[TwoVar],
        catalog: &Catalog,
    ) -> Kernel {
        let words = t_sets.len().div_ceil(64);
        Kernel {
            prepared: two_var.iter().map(|c| Prepared::build(c, s_sets, t_sets, catalog)).collect(),
            n_s: s_sets.len(),
            n_t: t_sets.len(),
            row: vec![0; words],
            scratch: vec![0; words],
        }
    }

    /// Evaluates S-set `si`'s row into `self.row` and returns how many
    /// T-sets are valid (when none are, the row's content is unspecified).
    fn fill_row(&mut self, si: usize) -> u64 {
        self.row.fill(!0);
        let spare_bits = self.row.len() * 64 - self.n_t;
        if let Some(last) = self.row.last_mut() {
            *last >>= spare_bits;
        }
        for p in &mut self.prepared {
            match p {
                Prepared::Num(num) => {
                    if !num.narrow(si, &mut self.row, &mut self.scratch) {
                        return 0;
                    }
                }
                Prepared::Domain(domain) => domain.narrow(si, &mut self.row, &mut self.scratch),
            }
        }
        self.row.iter().map(|w| w.count_ones() as u64).sum()
    }

    /// Pass 1: every row, counted and ORed together; nothing is written
    /// per pair. The result has everything but its pairs — enough to size
    /// the pair vector and compact the sides before a pair is written.
    fn mark(&mut self) -> PairResult {
        let mut count = 0;
        let mut s_used = vec![false; self.n_s];
        let mut t_any = vec![0u64; self.row.len()];
        for (si, used) in s_used.iter_mut().enumerate() {
            let valid = self.fill_row(si);
            if valid > 0 {
                *used = true;
                count += valid;
                for (any, w) in t_any.iter_mut().zip(&self.row) {
                    *any |= w;
                }
            }
        }
        let t_used = (0..self.n_t).map(|ti| t_any[ti >> 6] >> (ti & 63) & 1 == 1).collect();
        PairResult {
            count,
            pairs: Vec::new(),
            truncated: count > 0,
            checks: (self.n_s * self.n_t * self.prepared.len()) as u64,
            s_used,
            t_used,
        }
    }

    /// Pass 2: fills in `marked`'s pairs — the first `max` of them (`None` =
    /// all) in `(si, ti)` order, each index written through its side's
    /// map. Only rows pass 1 found non-empty are evaluated again.
    fn emit(
        &mut self,
        marked: &mut PairResult,
        max: Option<usize>,
        s_index: impl Fn(usize) -> u32,
        t_index: impl Fn(usize) -> u32,
    ) {
        let len = max.map_or(marked.count, |cap| marked.count.min(cap as u64)) as usize;
        let mut pairs = Vec::with_capacity(len);
        for si in (0..self.n_s).filter(|&si| marked.s_used[si]) {
            let mut room = len - pairs.len();
            if room == 0 {
                break;
            }
            self.fill_row(si);
            let s = s_index(si);
            'row: for (w, &word) in self.row.iter().enumerate() {
                let mut bits = word;
                while bits != 0 {
                    pairs.push((s, t_index((w << 6) + bits.trailing_zeros() as usize)));
                    room -= 1;
                    if room == 0 {
                        break 'row;
                    }
                    bits &= bits - 1;
                }
            }
        }
        marked.truncated = marked.count > len as u64;
        marked.pairs = pairs;
    }
}

/// Forms all valid pairs; materializes up to `max_materialized` of them
/// (`None` = all, `Some(0)` = count only). Indices are into the input
/// slices.
pub fn form_pairs(
    s_sets: &[(Itemset, u64)],
    t_sets: &[(Itemset, u64)],
    two_var: &[TwoVar],
    catalog: &Catalog,
    max_materialized: Option<usize>,
) -> PairResult {
    let mut kernel = Kernel::build(s_sets, t_sets, two_var, catalog);
    let mut result = kernel.mark();
    kernel.emit(&mut result, max_materialized, |si| si as u32, |ti| ti as u32);
    result
}

/// The step every execution ends with: pair formation over both sides'
/// frequent valid sets, re-verifying every original 2-var constraint, and
/// compaction of the sides to Definition 3's frequent valid sets — those
/// in at least one valid pair. Returns the compacted sides and the pairs
/// as indices into them (`s_used`/`t_used` still describe the inputs).
///
/// In debug builds a cross product of at most `CROSS_CHECK_MAX`
/// candidates is also evaluated a pair at a time with
/// `cfq_constraints::eval_all_two` and must agree.
#[allow(clippy::type_complexity)]
pub fn pair_up(
    s_sets: Vec<(Itemset, u64)>,
    t_sets: Vec<(Itemset, u64)>,
    two_var: &[TwoVar],
    catalog: &Catalog,
    max_pairs: Option<usize>,
) -> (Vec<(Itemset, u64)>, Vec<(Itemset, u64)>, PairResult) {
    let expected = (cfg!(debug_assertions) && s_sets.len() * t_sets.len() <= CROSS_CHECK_MAX)
        .then(|| pair_at_a_time(&s_sets, &t_sets, two_var, catalog));
    let mut kernel = Kernel::build(&s_sets, &t_sets, two_var, catalog);
    let mut result = kernel.mark();
    let (s_sets, s_remap) = compact_used(s_sets, &result.s_used);
    let (t_sets, t_remap) = compact_used(t_sets, &result.t_used);
    kernel.emit(&mut result, max_pairs, |si| s_remap[si], |ti| t_remap[ti]);
    if let Some(expected) = expected {
        let compacted = |&(si, ti): &(u32, u32)| (s_remap[si as usize], t_remap[ti as usize]);
        let len = max_pairs.map_or(expected.pairs.len(), |cap| cap.min(expected.pairs.len()));
        let kept: Vec<_> = expected.pairs[..len].iter().map(compacted).collect();
        assert_eq!(result.count, expected.count, "pair count for {two_var:?}");
        assert_eq!(result.pairs, kept, "pairs for {two_var:?}");
        assert_eq!((&result.s_used, &result.t_used), (&expected.s_used, &expected.t_used));
    }
    (s_sets, t_sets, result)
}

/// The definition the kernel is an evaluation strategy for: every
/// candidate pair through the generic evaluator, in `(si, ti)` order, all
/// of them kept, indices into the inputs.
fn pair_at_a_time(
    s_sets: &[(Itemset, u64)],
    t_sets: &[(Itemset, u64)],
    two_var: &[TwoVar],
    catalog: &Catalog,
) -> PairResult {
    let mut pairs = Vec::new();
    let (mut s_used, mut t_used) = (vec![false; s_sets.len()], vec![false; t_sets.len()]);
    for (si, (s, _)) in s_sets.iter().enumerate() {
        for (ti, (t, _)) in t_sets.iter().enumerate() {
            if cfq_constraints::eval_all_two(two_var, s, t, catalog) {
                pairs.push((si as u32, ti as u32));
                (s_used[si], t_used[ti]) = (true, true);
            }
        }
    }
    PairResult {
        count: pairs.len() as u64,
        pairs,
        truncated: false,
        checks: (s_sets.len() * t_sets.len() * two_var.len()) as u64,
        s_used,
        t_used,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfq_constraints::{bind_query, parse_query, Agg};
    use cfq_types::{CatalogBuilder, ItemId};
    use proptest::prelude::*;

    fn catalog() -> Catalog {
        let mut b = CatalogBuilder::new(4);
        b.num_attr("Price", vec![10.0, 20.0, 30.0, 40.0]).unwrap();
        b.cat_attr("Type", &["a", "b", "a", "b"]).unwrap();
        b.build()
    }

    fn sets(v: &[&[u32]]) -> Vec<(Itemset, u64)> {
        v.iter().map(|s| (s.iter().copied().collect(), 1)).collect()
    }

    fn two_in(src: &str, catalog: &Catalog) -> Vec<TwoVar> {
        bind_query(&parse_query(src).unwrap(), catalog).unwrap().two_var
    }

    fn two(src: &str) -> Vec<TwoVar> {
        two_in(src, &catalog())
    }

    #[test]
    fn filters_by_two_var_constraint() {
        let cat = catalog();
        let q = two("max(S.Price) <= min(T.Price)");
        let s = sets(&[&[0], &[0, 1], &[3]]);
        let t = sets(&[&[2], &[2, 3]]);
        let r = form_pairs(&s, &t, &q, &cat, None);
        // {0} (max 10) and {0,1} (max 20) pair with both T sets (min 30);
        // {3} (max 40) pairs with neither.
        assert_eq!(r.count, 4);
        assert_eq!(r.pairs, [(0, 0), (0, 1), (1, 0), (1, 1)]);
        assert!(!r.truncated);
        assert_eq!(r.checks, 6);
        assert_eq!(r.s_used, vec![true, true, false]);
        assert_eq!(r.t_used, vec![true, true]);
    }

    #[test]
    fn domain_constraints_use_precomputed_keys() {
        let cat = catalog();
        let q = two("S.Type disjoint T.Type");
        let s = sets(&[&[0], &[1], &[0, 1]]); // types {a}, {b}, {a,b}
        let t = sets(&[&[2], &[3]]); // types {a}, {b}
        let r = form_pairs(&s, &t, &q, &cat, None);
        // {a}⟂{b}, {b}⟂{a}; {a,b} disjoint with nothing.
        assert_eq!(r.pairs, [(0, 1), (1, 0)]);
    }

    #[test]
    fn no_constraints_means_cross_product() {
        let cat = catalog();
        let s = sets(&[&[0], &[1]]);
        let t = sets(&[&[2], &[3], &[2, 3]]);
        let r = form_pairs(&s, &t, &[], &cat, None);
        assert_eq!(r.count, 6);
        assert_eq!(r.checks, 0);
    }

    #[test]
    fn truncation_and_counting() {
        let cat = catalog();
        let s = sets(&[&[0], &[1]]);
        let t = sets(&[&[2], &[3]]);
        let r = form_pairs(&s, &t, &[], &cat, Some(2));
        assert_eq!(r.count, 4);
        assert_eq!(r.pairs.len(), 2);
        assert!(r.truncated);
        let counted = form_pairs(&s, &t, &[], &cat, Some(0));
        assert_eq!((counted.count, counted.pairs.capacity()), (4, 0));
    }

    #[test]
    fn empty_sides() {
        let cat = catalog();
        let r = form_pairs(&[], &sets(&[&[0]]), &[], &cat, None);
        assert_eq!(r.count, 0);
        assert!(r.pairs.is_empty());
        assert_eq!(r.t_used, [false]);
    }

    #[test]
    fn undefined_aggregates_fail_every_operator() {
        // The reference evaluator's reading: min/max/avg of the empty set
        // compares false under every operator, `!=` included.
        let cat = catalog();
        let s = sets(&[&[], &[0]]); // max undefined, 10
        let t = sets(&[&[], &[1]]); // min undefined, 20
        for (op, holds) in
            [("<=", true), ("<", true), (">=", false), (">", false), ("=", false), ("!=", true)]
        {
            let q = two(&format!("max(S.Price) {op} min(T.Price)"));
            let r = form_pairs(&s, &t, &q, &cat, None);
            let expected: &[(u32, u32)] = if holds { &[(1, 1)] } else { &[] };
            assert_eq!(r.pairs, expected, "`{op}`");
            assert_eq!((r.s_used[0], r.t_used[0]), (false, false), "`{op}`");
            assert_eq!(r.pairs, pair_at_a_time(&s, &t, &q, &cat).pairs, "`{op}` vs eval_two");
        }
    }

    #[test]
    fn nan_values_keep_ieee_semantics() {
        let mut b = CatalogBuilder::new(4);
        b.num_attr("Price", vec![f64::INFINITY, f64::NEG_INFINITY, 1.0, 2.0]).unwrap();
        let cat = b.build();
        let s = sets(&[&[0, 1], &[2]]); // sum NaN, 1
        let t = sets(&[&[0, 1], &[3], &[2]]); // sum NaN, 2, 1
        for (op, expected) in [
            ("!=", &[(0, 0), (0, 1), (0, 2), (1, 0), (1, 1)][..]),
            ("=", &[(1, 2)][..]),
            ("<=", &[(1, 1), (1, 2)][..]),
            (">", &[][..]),
        ] {
            let q = two_in(&format!("sum(S.Price) {op} sum(T.Price)"), &cat);
            assert_eq!(form_pairs(&s, &t, &q, &cat, None).pairs, expected, "`{op}`");
            assert_eq!(pair_at_a_time(&s, &t, &q, &cat).pairs, expected, "`{op}` vs eval_two");
        }
    }

    #[test]
    fn capped_runs_agree_with_uncapped_and_allocate_exactly() {
        let n = 60usize;
        let mut b = CatalogBuilder::new(n);
        b.num_attr("Price", (0..n).map(|i| ((i * 13) % 60) as f64).collect()).unwrap();
        let cat = b.build();
        let q = two_in("max(S.Price) <= min(T.Price)", &cat);
        let sets: Vec<(Itemset, u64)> =
            (0..n as u32).map(|i| (Itemset::from([i, (i + 1) % n as u32]), 1)).collect();
        let full = form_pairs(&sets, &sets, &q, &cat, None);
        assert!(full.count > 100 && !full.truncated);
        assert_eq!(full.pairs.capacity(), full.pairs.len());
        for cap in [0usize, 1, 7, 100, full.count as usize, full.count as usize + 5] {
            let capped = form_pairs(&sets, &sets, &q, &cat, Some(cap));
            let kept = cap.min(full.pairs.len());
            assert_eq!(capped.pairs, full.pairs[..kept], "cap={cap}");
            assert_eq!(capped.truncated, kept < full.pairs.len());
            assert_eq!(capped.count, full.count);
            assert_eq!(capped.checks, full.checks);
            assert_eq!(capped.s_used, full.s_used);
            assert_eq!(capped.t_used, full.t_used);
            assert_eq!(capped.pairs.capacity(), kept, "cap={cap}: sized by what is kept");
        }
    }

    #[test]
    fn pair_up_indexes_the_compacted_sides() {
        let cat = catalog();
        let q = two("max(S.Price) <= min(T.Price)");
        let s = sets(&[&[3], &[1], &[2, 3], &[1, 2]]); // max 40, 20, 40, 30
        let t = sets(&[&[0], &[2], &[0, 1], &[2, 3]]); // min 10, 30, 10, 30
        let (s_out, t_out, r) = pair_up(s.clone(), t.clone(), &q, &cat, None);
        // {1} and {1,2} pair with {2} and {2,3}; nothing else pairs.
        assert_eq!(s_out, [s[1].clone(), s[3].clone()]);
        assert_eq!(t_out, [t[1].clone(), t[3].clone()]);
        assert_eq!(r.pairs, [(0, 0), (0, 1), (1, 0), (1, 1)]);
        assert_eq!(r.s_used, [false, true, false, true]);
        assert_eq!(r.t_used, [false, true, false, true]);
        assert_eq!((r.count, r.checks, r.truncated), (4, 16, false));
        let (_, _, capped) = pair_up(s, t, &q, &cat, Some(3));
        assert_eq!(capped.pairs, r.pairs[..3]);
        assert!(capped.truncated);
    }

    #[test]
    fn mask_memo_stays_under_its_bound_when_every_s_set_has_its_own_key() {
        // `S disjoint T` over singletons: 20,000 distinct S keys, two words
        // a mask. The memo fills and stops; later rows are built in
        // scratch space and are just as right.
        let n = 20_000u32;
        let cat = Catalog::empty(n as usize);
        let q = two_in("S disjoint T", &cat);
        let single = |i: u32| (Itemset::singleton(ItemId(i)), 1);
        let s: Vec<_> = (0..n).map(single).collect();
        let t: Vec<_> = (n - 65..n).map(single).collect();
        let mut kernel = Kernel::build(&s, &t, &q, &cat);
        let marked = kernel.mark();
        assert_eq!(marked.count, (n as u64 - 1) * 65);
        assert!(marked.s_used.iter().chain(&marked.t_used).all(|&u| u));
        // The last S-set is past the memo and misses exactly T-set 64.
        assert_eq!(kernel.fill_row(n as usize - 1), 64);
        assert_eq!(kernel.row, [!0, 0]);
        let Prepared::Domain(domain) = &kernel.prepared[0] else { panic!("a domain constraint") };
        assert_eq!(domain.s.distinct.len(), n as usize);
        assert_eq!(domain.masks.len() * 8, MASK_MEMO_BYTES, "the memo filled and stopped");
        assert_eq!(domain.mask_at[n as usize - 1], UNBUILT);
    }

    /// A catalog with ties, both zeros and both infinities in its numeric
    /// columns (so sums and averages reach NaN), and three types.
    fn hostile_catalog(rng: &mut TestRng, n: usize) -> Catalog {
        const POOL: [f64; 8] = [f64::NEG_INFINITY, -2.5, -0.0, 0.0, 1.0, 1.0, 3.0, f64::INFINITY];
        let mut b = CatalogBuilder::new(n);
        for name in ["A", "B"] {
            let column = (0..n).map(|_| POOL[rng.below(POOL.len() as u64) as usize]).collect();
            b.num_attr(name, column).unwrap();
        }
        let types: Vec<String> = (0..n).map(|_| format!("t{}", rng.below(3))).collect();
        b.cat_attr("Type", &types).unwrap();
        b.build()
    }

    fn pick<T: Copy>(rng: &mut TestRng, from: &[T]) -> T {
        from[rng.below(from.len() as u64) as usize]
    }

    fn random_two_var(rng: &mut TestRng, cat: &Catalog) -> TwoVar {
        const OPS: [CmpOp; 6] = [CmpOp::Le, CmpOp::Lt, CmpOp::Ge, CmpOp::Gt, CmpOp::Eq, CmpOp::Ne];
        const AGGS: [Agg; 4] = [Agg::Min, Agg::Max, Agg::Sum, Agg::Avg];
        const RELS: [SetRel; 8] = [
            SetRel::Disjoint,
            SetRel::Intersects,
            SetRel::Subset,
            SetRel::NotSubset,
            SetRel::Superset,
            SetRel::NotSuperset,
            SetRel::Eq,
            SetRel::Ne,
        ];
        let num = [cat.attr("A").unwrap(), cat.attr("B").unwrap()];
        let any = [None, cat.attr("Type"), cat.attr("A")];
        match rng.below(3) {
            0 => TwoVar::AggCmp {
                s_agg: pick(rng, &AGGS),
                s_attr: pick(rng, &num),
                op: pick(rng, &OPS),
                t_agg: pick(rng, &AGGS),
                t_attr: pick(rng, &num),
            },
            1 => TwoVar::CountCmp {
                s_attr: pick(rng, &any),
                op: pick(rng, &OPS),
                t_attr: pick(rng, &any),
            },
            _ => TwoVar::Domain {
                s_attr: pick(rng, &any),
                rel: pick(rng, &RELS),
                t_attr: pick(rng, &any),
            },
        }
    }

    /// `len` random sets of 0–3 items (the empty itemset included).
    fn random_sets(rng: &mut TestRng, n_items: usize, len: usize) -> Vec<(Itemset, u64)> {
        (0..len)
            .map(|i| {
                let size = rng.below(4);
                let set = (0..size).map(|_| rng.below(n_items as u64) as u32).collect();
                (set, i as u64 + 1)
            })
            .collect()
    }

    proptest! {
        /// The kernel against the pair-at-a-time definition, over the
        /// whole 2-var language and every way a cap can fall.
        #[test]
        fn kernel_matches_pair_at_a_time_evaluation(seed in 0u64..u64::MAX) {
            let mut rng = TestRng::new(seed);
            let n_items = 4 + rng.below(8) as usize;
            let cat = hostile_catalog(&mut rng, n_items);
            let n_s = rng.below(13) as usize;
            let n_t = pick(&mut rng, &[0usize, 1, 7, 63, 64, 65]);
            let s = random_sets(&mut rng, n_items, n_s);
            let t = random_sets(&mut rng, n_items, n_t);
            let two_var: Vec<TwoVar> =
                (0..rng.below(4)).map(|_| random_two_var(&mut rng, &cat)).collect();

            let naive = pair_at_a_time(&s, &t, &two_var, &cat);
            let all = &naive.pairs;
            // A cap that cuts a row in two, when some row has two pairs.
            let mid_row = all.windows(2).position(|w| w[0].0 == w[1].0).map(|i| i + 1);
            let caps = [None, Some(0), Some(1), mid_row, Some(all.len()), Some(all.len() + 5)];
            let (s_kept, s_remap) = compact_used(s.clone(), &naive.s_used);
            let (t_kept, t_remap) = compact_used(t.clone(), &naive.t_used);
            for cap in caps {
                let kept = cap.map_or(all.len(), |c| c.min(all.len()));
                let r = form_pairs(&s, &t, &two_var, &cat, cap);
                prop_assert_eq!(r.count, naive.count, "{:?} cap {:?}", two_var, cap);
                prop_assert_eq!(&r.pairs, &all[..kept], "{:?} cap {:?}", two_var, cap);
                prop_assert_eq!(r.pairs.capacity(), kept);
                prop_assert_eq!(r.truncated, kept < all.len());
                prop_assert_eq!(&r.s_used, &naive.s_used, "{:?}", two_var);
                prop_assert_eq!(&r.t_used, &naive.t_used, "{:?}", two_var);
                prop_assert_eq!(r.checks, naive.checks);

                let (s_out, t_out, up) = pair_up(s.clone(), t.clone(), &two_var, &cat, cap);
                prop_assert_eq!(&s_out, &s_kept);
                prop_assert_eq!(&t_out, &t_kept);
                let compacted: Vec<(u32, u32)> = all[..kept]
                    .iter()
                    .map(|&(si, ti)| (s_remap[si as usize], t_remap[ti as usize]))
                    .collect();
                prop_assert_eq!(up.pairs, compacted, "{:?} cap {:?}", two_var, cap);
                prop_assert_eq!(
                    (up.count, up.truncated, up.checks, up.s_used, up.t_used),
                    (r.count, r.truncated, r.checks, r.s_used, r.t_used)
                );
            }
        }
    }
}
