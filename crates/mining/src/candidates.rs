//! Apriori candidate generation with a pluggable validity oracle.

use cfq_types::{FxHashSet, Itemset};

/// Generates level-(k+1) candidates from the sorted frequent k-sets
/// `frequent`, using the classic prefix join followed by the subset prune.
///
/// `subset_matters` is the *validity oracle*: the prune only requires
/// frequency of (k)-subsets for which `subset_matters` returns `true`.
/// Plain Apriori passes `|_| true`. CAP's succinct-only strategy passes an
/// oracle that returns `false` for subsets that are invalid w.r.t. the
/// pushed constraint — such subsets are never counted, so demanding their
/// frequency would wrongly kill valid candidates (see §4 of the paper and
/// the CAP paper's Strategy II).
///
/// The output is sorted and duplicate-free (the join of sorted input
/// produces sorted output).
pub fn generate_candidates<F>(frequent: &[Itemset], subset_matters: F) -> Vec<Itemset>
where
    F: Fn(&Itemset) -> bool,
{
    if frequent.is_empty() {
        return Vec::new();
    }
    debug_assert!(frequent.windows(2).all(|w| w[0] < w[1]), "frequent sets must be sorted");
    let k = frequent[0].len();
    debug_assert!(frequent.iter().all(|s| s.len() == k));
    if k == 1 {
        // Both 1-subsets of a joined pair are the frequent singletons it
        // was joined from: there is nothing to look up or prune. Kept apart
        // from the general loop below, which takes twice as long on the
        // level-2 flood (315k pairs: 5.5 ms here, 7.9–10.7 ms there).
        let n = frequent.len();
        let mut out = Vec::with_capacity(n * (n - 1) / 2);
        for (a, first) in frequent.iter().enumerate() {
            out.extend(frequent[a + 1..].iter().map(|second| {
                first.apriori_join(second).expect("sorted distinct singletons always join")
            }));
        }
        return out;
    }
    let lookup: FxHashSet<&Itemset> = frequent.iter().collect();

    let mut out = Vec::new();
    let mut group_start = 0usize;
    while group_start < frequent.len() {
        // Group = maximal run sharing the (k-1)-prefix.
        let prefix = &frequent[group_start].as_slice()[..k - 1];
        let mut group_end = group_start + 1;
        while group_end < frequent.len()
            && &frequent[group_end].as_slice()[..k - 1] == prefix
        {
            group_end += 1;
        }
        for a in group_start..group_end {
            for b in a + 1..group_end {
                let cand = frequent[a]
                    .apriori_join(&frequent[b])
                    .expect("same prefix, ordered last items always join");
                if prune_ok(&cand, &lookup, &subset_matters) {
                    out.push(cand);
                }
            }
        }
        group_start = group_end;
    }
    out
}

/// The subset prune: every k-subset of `cand` that matters must be frequent.
fn prune_ok<F>(cand: &Itemset, lookup: &FxHashSet<&Itemset>, subset_matters: &F) -> bool
where
    F: Fn(&Itemset) -> bool,
{
    let mut ok = true;
    cand.for_each_len_minus_one(|sub| {
        if ok && subset_matters(sub) && !lookup.contains(sub) {
            ok = false;
        }
    });
    ok
}

/// Level-1 → level-2 candidate generation from frequent singletons: all
/// pairs. (The generic join handles this too; kept as an explicit helper
/// because CAP's succinct strategy builds level 2 from `R × (R ∪ O)`.)
pub fn pairs_from_singletons(singletons: &[Itemset]) -> Vec<Itemset> {
    generate_candidates(singletons, |_| true)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sets(v: &[&[u32]]) -> Vec<Itemset> {
        v.iter().map(|s| s.iter().copied().collect()).collect()
    }

    #[test]
    fn classic_join_and_prune() {
        // Frequent 2-sets: {1,2},{1,3},{1,4},{2,3}. Joins: {1,2,3},{1,2,4},
        // {1,3,4}. Prune: {1,2,3} keeps ({2,3} frequent), {1,2,4} dies
        // ({2,4} missing), {1,3,4} dies ({3,4} missing).
        let freq = sets(&[&[1, 2], &[1, 3], &[1, 4], &[2, 3]]);
        let cands = generate_candidates(&freq, |_| true);
        assert_eq!(cands, sets(&[&[1, 2, 3]]));
    }

    #[test]
    fn oracle_relaxes_prune() {
        // Same as above, but subsets not containing item 1 "don't matter"
        // (e.g. item 1 is the required item of a succinct constraint, and
        // 1-free sets were never counted).
        let freq = sets(&[&[1, 2], &[1, 3], &[1, 4], &[2, 3]]);
        let cands = generate_candidates(&freq, |s| s.contains(cfq_types::ItemId(1)));
        assert_eq!(cands, sets(&[&[1, 2, 3], &[1, 2, 4], &[1, 3, 4]]));
    }

    #[test]
    fn singleton_join() {
        let freq = sets(&[&[1], &[3], &[5]]);
        let cands = pairs_from_singletons(&freq);
        assert_eq!(cands, sets(&[&[1, 3], &[1, 5], &[3, 5]]));
    }

    #[test]
    fn empty_input() {
        assert!(generate_candidates(&[], |_| true).is_empty());
    }

    #[test]
    fn no_joinable_pairs() {
        let freq = sets(&[&[1, 2], &[3, 4]]);
        assert!(generate_candidates(&freq, |_| true).is_empty());
    }

    #[test]
    fn output_sorted_unique() {
        let freq = sets(&[&[1, 2], &[1, 3], &[1, 4], &[2, 3], &[2, 4], &[3, 4]]);
        let cands = generate_candidates(&freq, |_| true);
        assert_eq!(cands, sets(&[&[1, 2, 3], &[1, 2, 4], &[1, 3, 4], &[2, 3, 4]]));
        assert!(cands.windows(2).all(|w| w[0] < w[1]));
    }
}
