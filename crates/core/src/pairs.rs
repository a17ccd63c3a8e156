//! Final pair formation (the last box of Figure 7).
//!
//! Given the frequent valid S- and T-sets, form the pairs satisfying every
//! *original* 2-var constraint. This step also absorbs the looseness of any
//! non-tight or induced-weaker pruning upstream: whatever survived the
//! lattices is re-verified here, so the optimizer's answer is exact
//! regardless of how aggressive (or lazy) the pruning was.
//!
//! The cross product is the hot path of queries with weak 2-var
//! selectivity (tens of millions of candidate pairs at paper scale), so
//! constraints are *prepared* first: per-side value sets and aggregate
//! values are computed once per set, and each pair check touches only the
//! precomputed summaries. A sorted fast path answers count-only queries
//! with a single inequality constraint in `O((m+n) log n)`.

use cfq_constraints::{eval::agg_value, CmpOp, TwoVar};
use cfq_types::{Catalog, Itemset};
use std::collections::HashMap;

/// Result of pair formation.
#[derive(Clone, Debug)]
pub struct PairResult {
    /// Number of valid pairs.
    pub count: u64,
    /// Materialized pairs as `(s_index, t_index)` into the input slices —
    /// truncated at the materialization cap if one was given.
    pub pairs: Vec<(u32, u32)>,
    /// Whether `pairs` was truncated.
    pub truncated: bool,
    /// 2-var constraint evaluations performed.
    pub checks: u64,
    /// Per S-set: participates in at least one valid pair. This is exactly
    /// Definition 3's *frequent valid S-set* (a frequent partner exists).
    pub s_used: Vec<bool>,
    /// Per T-set: participates in at least one valid pair.
    pub t_used: Vec<bool>,
}

/// Keeps the flagged entries, returning the survivors and an old-index →
/// new-index remap (entries for dropped indices are unspecified). Used to
/// restrict reported sets to Definition 3's *frequent valid* sets — those
/// participating in at least one valid pair — after pair formation; the
/// optimizer and the session engine share this step, which is what makes
/// every strategy's (and the cache's) final answer identical.
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

/// A 2-var constraint with its per-side inputs precomputed.
enum Prepared {
    /// Domain constraint over precomputed sorted value-key sets. T-sets
    /// with the same value set share one `t_distinct` entry (`t_ids[ti]`
    /// indexes it): a lattice of thousands of sets over ten types has a
    /// few dozen type sets, so a row evaluates the relation a few dozen
    /// times, not once per T-set.
    Domain {
        rel: cfq_constraints::SetRel,
        s_keys: Vec<Vec<u64>>,
        t_distinct: Vec<Vec<u64>>,
        t_ids: Vec<u32>,
    },
    /// Numeric comparison over precomputed aggregate (or count) values.
    Num { op: CmpOp, s_vals: Vec<f64>, t_vals: Vec<f64> },
}

impl Prepared {
    fn build(
        c: &TwoVar,
        s_sets: &[(Itemset, u64)],
        t_sets: &[(Itemset, u64)],
        catalog: &Catalog,
    ) -> Prepared {
        match c {
            TwoVar::Domain { s_attr, rel, t_attr } => {
                let mut t_distinct = Vec::new();
                let mut ids: HashMap<Vec<u64>, u32> = HashMap::new();
                let t_ids = t_sets
                    .iter()
                    .map(|(t, _)| {
                        *ids.entry(catalog.value_set(*t_attr, t)).or_insert_with_key(|keys| {
                            t_distinct.push(keys.clone());
                            t_distinct.len() as u32 - 1
                        })
                    })
                    .collect();
                Prepared::Domain {
                    rel: *rel,
                    s_keys: s_sets.iter().map(|(s, _)| catalog.value_set(*s_attr, s)).collect(),
                    t_distinct,
                    t_ids,
                }
            }
            TwoVar::AggCmp { s_agg, s_attr, op, t_agg, t_attr } => Prepared::Num {
                op: *op,
                s_vals: s_sets
                    .iter()
                    .map(|(s, _)| agg_value(*s_agg, *s_attr, s, catalog).unwrap_or(f64::NAN))
                    .collect(),
                t_vals: t_sets
                    .iter()
                    .map(|(t, _)| agg_value(*t_agg, *t_attr, t, catalog).unwrap_or(f64::NAN))
                    .collect(),
            },
            TwoVar::CountCmp { s_attr, op, t_attr } => Prepared::Num {
                op: *op,
                s_vals: s_sets
                    .iter()
                    .map(|(s, _)| catalog.count_distinct(*s_attr, s) as f64)
                    .collect(),
                t_vals: t_sets
                    .iter()
                    .map(|(t, _)| catalog.count_distinct(*t_attr, t) as f64)
                    .collect(),
            },
        }
    }

    /// Clears `row[ti]` for every T-set that fails the constraint against
    /// S-set `si`. A whole row at a time, so the S side is read once and
    /// the inner loop is a compare (or a table load) per T-set with no
    /// dispatch in it. `scratch` is the caller's, reused across rows.
    fn and_row(&self, si: usize, row: &mut [bool], scratch: &mut Vec<bool>) {
        match self {
            Prepared::Domain { rel, s_keys, t_distinct, t_ids } => {
                scratch.clear();
                scratch.extend(t_distinct.iter().map(|t| rel.eval(&s_keys[si], t)));
                for (valid, &id) in row.iter_mut().zip(t_ids) {
                    *valid &= scratch[id as usize];
                }
            }
            Prepared::Num { op, s_vals, t_vals } => {
                fn and_cmp(row: &mut [bool], t_vals: &[f64], holds: impl Fn(f64) -> bool) {
                    for (valid, &t) in row.iter_mut().zip(t_vals) {
                        *valid &= holds(t);
                    }
                }
                let s = s_vals[si];
                match op {
                    CmpOp::Le => and_cmp(row, t_vals, |t| s <= t),
                    CmpOp::Lt => and_cmp(row, t_vals, |t| s < t),
                    CmpOp::Ge => and_cmp(row, t_vals, |t| s >= t),
                    CmpOp::Gt => and_cmp(row, t_vals, |t| s > t),
                    CmpOp::Eq => and_cmp(row, t_vals, |t| s == t),
                    CmpOp::Ne => and_cmp(row, t_vals, |t| s != t),
                }
            }
        }
    }
}

/// Forms all valid pairs; materializes up to `max_materialized` of them
/// (`None` = all).
pub fn form_pairs(
    s_sets: &[(Itemset, u64)],
    t_sets: &[(Itemset, u64)],
    two_var: &[TwoVar],
    catalog: &Catalog,
    max_materialized: Option<usize>,
) -> PairResult {
    form_pairs_with(s_sets, t_sets, two_var, catalog, max_materialized, 1)
}

/// [`form_pairs`] with `threads` workers sharding the S side (0 = one per
/// core). The result is identical to sequential, including pair order.
pub fn form_pairs_with(
    s_sets: &[(Itemset, u64)],
    t_sets: &[(Itemset, u64)],
    two_var: &[TwoVar],
    catalog: &Catalog,
    max_materialized: Option<usize>,
    threads: usize,
) -> PairResult {
    let cap = max_materialized.unwrap_or(usize::MAX);
    let prepared: Vec<Prepared> =
        two_var.iter().map(|c| Prepared::build(c, s_sets, t_sets, catalog)).collect();
    let threads = if threads == 0 {
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    } else {
        threads
    };

    // One S-range worth of work. Every valid pair is counted and marks
    // its two sets; only the first `cap` of the range are materialised
    // (the ranges before this one may hold none, so each keeps up to the
    // whole cap).
    struct Shard {
        pairs: Vec<(u32, u32)>,
        count: u64,
        s_used: Vec<bool>,
        t_used: Vec<bool>,
    }
    let scan_range = |lo: usize, hi: usize| -> Shard {
        let mut shard = Shard {
            pairs: Vec::new(),
            count: 0,
            s_used: vec![false; hi - lo],
            t_used: vec![false; t_sets.len()],
        };
        let mut row = vec![true; t_sets.len()];
        let mut valid_ti = vec![0u32; t_sets.len()];
        let mut scratch = Vec::new();
        for (si, s_used) in (lo..hi).zip(shard.s_used.iter_mut()) {
            row.fill(true);
            for p in &prepared {
                p.and_row(si, &mut row, &mut scratch);
            }
            let valid = row.iter().filter(|&&v| v).count();
            if valid == 0 {
                continue;
            }
            *s_used = true;
            shard.count += valid as u64;
            for (t_used, &v) in shard.t_used.iter_mut().zip(&row) {
                *t_used |= v;
            }
            let room = cap - shard.pairs.len();
            if room > 0 {
                // Gather the valid indices without a branch on `v` (valid
                // and invalid T-sets interleave unpredictably), then copy
                // the pairs out in one run of known length.
                let mut k = 0;
                for (ti, &v) in row.iter().enumerate() {
                    valid_ti[k] = ti as u32;
                    k += v as usize;
                }
                let kept = &valid_ti[..valid.min(room)];
                shard.pairs.extend(kept.iter().map(|&ti| (si as u32, ti)));
            }
        }
        shard
    };

    let checks = (s_sets.len() * t_sets.len() * prepared.len()) as u64;
    if threads <= 1 || s_sets.len() < 2 * threads {
        // The single range's vectors are the result: nothing is copied.
        let Shard { pairs, count, s_used, t_used } = scan_range(0, s_sets.len());
        let truncated = count > pairs.len() as u64;
        return PairResult { count, pairs, truncated, checks, s_used, t_used };
    }

    let n = s_sets.len();
    let chunk = n.div_ceil(threads);
    let shards: Vec<Shard> = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for t in 0..threads {
            let lo = t * chunk;
            let hi = ((t + 1) * chunk).min(n);
            if lo < hi {
                let scan_range = &scan_range;
                handles.push(scope.spawn(move || scan_range(lo, hi)));
            }
        }
        handles.into_iter().map(|h| h.join().expect("worker panicked")).collect()
    });

    let mut result = PairResult {
        count: 0,
        pairs: Vec::new(),
        truncated: false,
        checks,
        s_used: Vec::with_capacity(n),
        t_used: vec![false; t_sets.len()],
    };
    for shard in shards {
        result.count += shard.count;
        result.s_used.extend(shard.s_used);
        for (acc, x) in result.t_used.iter_mut().zip(shard.t_used) {
            *acc |= x;
        }
        let room = cap - result.pairs.len();
        result.pairs.extend(shard.pairs.into_iter().take(room));
    }
    result.truncated = result.count > result.pairs.len() as u64;
    result
}

/// Counts valid pairs without materializing them. With a single numeric
/// inequality constraint the count is computed by sorting one side and
/// binary-searching the other (`O((m+n) log n)` instead of `O(m·n)`).
pub fn count_pairs(
    s_sets: &[(Itemset, u64)],
    t_sets: &[(Itemset, u64)],
    two_var: &[TwoVar],
    catalog: &Catalog,
) -> u64 {
    if two_var.len() == 1 {
        if let [c] = two_var {
            if let Prepared::Num { op, s_vals, t_vals } =
                Prepared::build(c, s_sets, t_sets, catalog)
            {
                if let Some(n) = count_sorted(op, &s_vals, &t_vals) {
                    return n;
                }
            }
        }
    }
    form_pairs(s_sets, t_sets, two_var, catalog, Some(0)).count
}

/// Sorted counting for `s op t` with an inequality operator; `None` when
/// the operator is not an inequality or a NaN is present.
fn count_sorted(op: CmpOp, s_vals: &[f64], t_vals: &[f64]) -> Option<u64> {
    if !(op.is_upper() || op.is_lower()) {
        return None;
    }
    if s_vals.iter().chain(t_vals).any(|v| v.is_nan()) {
        return None;
    }
    let mut sorted_t: Vec<f64> = t_vals.to_vec();
    sorted_t.sort_by(f64::total_cmp);
    let mut count = 0u64;
    for &s in s_vals {
        // Number of t with `s op t` via partition point.
        let n = match op {
            // s <= t: t ≥ s.
            CmpOp::Le => sorted_t.len() - sorted_t.partition_point(|&t| t < s),
            // s < t: t > s.
            CmpOp::Lt => sorted_t.len() - sorted_t.partition_point(|&t| t <= s),
            // s >= t: t ≤ s.
            CmpOp::Ge => sorted_t.partition_point(|&t| t <= s),
            // s > t: t < s.
            CmpOp::Gt => sorted_t.partition_point(|&t| t < s),
            _ => unreachable!("guarded above"),
        };
        count += n as u64;
    }
    Some(count)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfq_constraints::{bind_query, parse_query};
    use cfq_types::CatalogBuilder;

    fn catalog() -> Catalog {
        let mut b = CatalogBuilder::new(4);
        b.num_attr("Price", vec![10.0, 20.0, 30.0, 40.0]).unwrap();
        b.cat_attr("Type", &["a", "b", "a", "b"]).unwrap();
        b.build()
    }

    fn sets(v: &[&[u32]]) -> Vec<(Itemset, u64)> {
        v.iter().map(|s| (s.iter().copied().collect(), 1)).collect()
    }

    fn two(src: &str) -> Vec<TwoVar> {
        bind_query(&parse_query(src).unwrap(), &catalog()).unwrap().two_var
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
        assert_eq!(r.pairs.len(), 4);
        assert!(!r.truncated);
        assert_eq!(r.checks, 6);
        assert!(r.pairs.contains(&(0, 0)));
        assert!(!r.pairs.contains(&(2, 0)));
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
        assert_eq!(r.count, 2);
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
        assert_eq!(count_pairs(&s, &t, &[], &cat), 4);
    }

    #[test]
    fn empty_sides() {
        let cat = catalog();
        let r = form_pairs(&[], &sets(&[&[0]]), &[], &cat, None);
        assert_eq!(r.count, 0);
        assert!(r.pairs.is_empty());
    }

    #[test]
    fn sorted_count_fast_path_matches_enumeration() {
        let cat = catalog();
        let s = sets(&[&[0], &[1], &[2], &[3], &[0, 3]]);
        let t = sets(&[&[0], &[1], &[2], &[3], &[1, 2]]);
        for src in [
            "max(S.Price) <= min(T.Price)",
            "max(S.Price) < min(T.Price)",
            "min(S.Price) >= max(T.Price)",
            "sum(S.Price) > sum(T.Price)",
            "avg(S.Price) <= avg(T.Price)",
            "count(S) <= count(T)",
        ] {
            let q = two(src);
            let fast = count_pairs(&s, &t, &q, &cat);
            let slow = form_pairs(&s, &t, &q, &cat, Some(0)).count;
            assert_eq!(fast, slow, "`{src}`");
        }
    }

    #[test]
    fn equality_ops_skip_fast_path_but_agree() {
        let cat = catalog();
        let s = sets(&[&[0], &[1]]);
        let t = sets(&[&[0], &[2]]);
        let q = two("max(S.Price) = min(T.Price)");
        assert_eq!(
            count_pairs(&s, &t, &q, &cat),
            form_pairs(&s, &t, &q, &cat, Some(0)).count
        );
    }
}

#[cfg(test)]
mod parallel_tests {
    use super::*;
    use cfq_constraints::{bind_query, parse_query};
    use cfq_types::CatalogBuilder;

    #[test]
    fn parallel_pairs_identical_to_sequential() {
        let n = 40usize;
        let mut b = CatalogBuilder::new(n);
        b.num_attr("Price", (0..n).map(|i| ((i * 13) % 60) as f64).collect()).unwrap();
        let cat = b.build();
        let q = bind_query(&parse_query("max(S.Price) <= min(T.Price)").unwrap(), &cat)
            .unwrap();
        let sets: Vec<(Itemset, u64)> = (0..n as u32)
            .map(|i| (Itemset::from([i, (i + 1) % n as u32]), 1))
            .collect();
        let seq = form_pairs_with(&sets, &sets, &q.two_var, &cat, None, 1);
        for threads in [0usize, 2, 3, 7] {
            let par = form_pairs_with(&sets, &sets, &q.two_var, &cat, None, threads);
            assert_eq!(par.count, seq.count, "threads={threads}");
            assert_eq!(par.pairs, seq.pairs, "threads={threads}");
            assert_eq!(par.s_used, seq.s_used);
            assert_eq!(par.t_used, seq.t_used);
        }
    }

    #[test]
    fn parallel_truncation_keeps_count_exact() {
        let cat = cfq_types::Catalog::empty(10);
        let sets: Vec<(Itemset, u64)> =
            (0..10u32).map(|i| (Itemset::singleton(cfq_types::ItemId(i)), 1)).collect();
        let r = form_pairs_with(&sets, &sets, &[], &cat, Some(5), 4);
        assert_eq!(r.count, 100);
        assert_eq!(r.pairs.len(), 5);
        assert!(r.truncated);
        assert!(r.s_used.iter().all(|&u| u));
    }

    #[test]
    fn capped_runs_agree_with_uncapped_and_allocate_by_the_cap() {
        let n = 60usize;
        let mut b = CatalogBuilder::new(n);
        b.num_attr("Price", (0..n).map(|i| ((i * 13) % 60) as f64).collect()).unwrap();
        let cat = b.build();
        let q = bind_query(&parse_query("max(S.Price) <= min(T.Price)").unwrap(), &cat)
            .unwrap();
        let sets: Vec<(Itemset, u64)> = (0..n as u32)
            .map(|i| (Itemset::from([i, (i + 1) % n as u32]), 1))
            .collect();
        for threads in [1usize, 2, 0] {
            let full = form_pairs_with(&sets, &sets, &q.two_var, &cat, None, threads);
            assert!(full.count > 100 && !full.truncated, "threads={threads}");
            for cap in [0usize, 1, 7, 100, full.count as usize, full.count as usize + 5] {
                let capped = form_pairs_with(&sets, &sets, &q.two_var, &cat, Some(cap), threads);
                let kept = cap.min(full.pairs.len());
                assert_eq!(capped.pairs, full.pairs[..kept], "threads={threads} cap={cap}");
                assert_eq!(capped.truncated, kept < full.pairs.len());
                assert_eq!(capped.count, full.count);
                assert_eq!(capped.checks, full.checks);
                assert_eq!(capped.s_used, full.s_used);
                assert_eq!(capped.t_used, full.t_used);
                // Growth doubles, so the bound is twice the cap (and the
                // smallest non-empty allocation), never the count.
                assert!(
                    capped.pairs.capacity() <= (2 * cap).max(4),
                    "threads={threads} cap={cap}: capacity {} follows the count {}",
                    capped.pairs.capacity(),
                    full.count
                );
            }
        }
    }
}
