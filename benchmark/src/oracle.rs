//! The answer oracle: Apriori⁺ as §6.2 states it — compute *all* frequent
//! sets, then check the constraints — with nothing pushed anywhere.
//!
//! The unconstrained lattice does not depend on the query, so it is mined
//! once per database and shared by every request checked against that
//! database; each request then filters it by universe, support and 1-var
//! constraints and verifies every candidate pair with the generic 2-var
//! evaluator. None of the optimizer, CAP, `J^k_max`, cache or pair-formation
//! code is on this path.

use cfq_constraints::{bind_query, eval_all_one, eval_all_two, parse_query, OneVar, Var};
use cfq_engine::json::{self, Json};
use cfq_engine::QueryRequest;
use cfq_mining::{apriori, AprioriConfig, CountingBackend, FrequentSets, WorkStats};
use cfq_types::{Catalog, FxHasher, Itemset, TransactionDb};
use std::hash::{Hash, Hasher};

/// A set as the wire shows it: ascending item ids and the support.
type WireSet = (Vec<u32>, u64);

/// An answer in canonical form: set lists sorted by items, pairs as sorted
/// `(rank in s_sets, rank in t_sets)`. Two answers are the same answer iff
/// their canonical forms are equal, whatever order the sets arrived in.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Answer {
    pub pair_count: u64,
    pub s_sets: Vec<WireSet>,
    pub t_sets: Vec<WireSet>,
    pub pairs: Vec<(u32, u32)>,
}

impl Answer {
    /// Builds the canonical form from sets in arrival order and pairs that
    /// index into them.
    pub fn canonical(
        pair_count: u64,
        s_sets: Vec<WireSet>,
        t_sets: Vec<WireSet>,
        pairs: &[(u32, u32)],
    ) -> Result<Answer, String> {
        let (s_sets, s_rank) = sort_with_ranks(s_sets);
        let (t_sets, t_rank) = sort_with_ranks(t_sets);
        let mut canon = Vec::with_capacity(pairs.len());
        for &(s, t) in pairs {
            match (s_rank.get(s as usize), t_rank.get(t as usize)) {
                (Some(&s), Some(&t)) => canon.push((s, t)),
                _ => return Err(format!("pair [{s},{t}] indexes outside the set lists")),
            }
        }
        canon.sort_unstable();
        Ok(Answer {
            pair_count,
            s_sets,
            t_sets,
            pairs: canon,
        })
    }

    /// `FxHasher` over the canonical form: the hash two equal answers share.
    pub fn hash(&self) -> u64 {
        let mut h = FxHasher::default();
        Hash::hash(self, &mut h);
        h.finish()
    }
}

/// Sorts `sets` by items; returns them with `old index -> new index`.
fn sort_with_ranks(sets: Vec<WireSet>) -> (Vec<WireSet>, Vec<u32>) {
    let mut order: Vec<usize> = (0..sets.len()).collect();
    order.sort_unstable_by(|&a, &b| sets[a].0.cmp(&sets[b].0));
    let mut rank = vec![0u32; sets.len()];
    for (new, &old) in order.iter().enumerate() {
        rank[old] = new as u32;
    }
    let mut slots: Vec<Option<WireSet>> = sets.into_iter().map(Some).collect();
    let sorted = order
        .iter()
        .map(|&old| slots[old].take().expect("a permutation"))
        .collect();
    (sorted, rank)
}

/// Parses a query reply (`{"v":1,"result":{...}}`) into a canonical answer.
pub fn parse_answer(reply: &str) -> Result<Answer, String> {
    let v = json::parse(reply).map_err(|e| format!("reply is not JSON: {e}"))?;
    let r = v
        .get("result")
        .ok_or_else(|| "reply has no result".to_string())?;
    let sets = |key: &str| -> Result<Vec<WireSet>, String> {
        let bad = || format!("malformed `{key}`");
        r.get(key)
            .and_then(Json::as_arr)
            .ok_or_else(bad)?
            .iter()
            .map(|s| {
                let items = s
                    .get("items")
                    .and_then(Json::as_arr)
                    .ok_or_else(bad)?
                    .iter()
                    .map(|i| i.as_u64().map(|i| i as u32).ok_or_else(bad))
                    .collect::<Result<Vec<u32>, String>>()?;
                Ok((
                    items,
                    s.get("support").and_then(Json::as_u64).ok_or_else(bad)?,
                ))
            })
            .collect()
    };
    let pairs = r
        .get("pairs")
        .and_then(Json::as_arr)
        .ok_or_else(|| "malformed `pairs`".to_string())?
        .iter()
        .map(|p| match p.as_arr() {
            Some([s, t]) => match (s.as_u64(), t.as_u64()) {
                (Some(s), Some(t)) => Ok((s as u32, t as u32)),
                _ => Err("malformed pair".to_string()),
            },
            _ => Err("malformed pair".to_string()),
        })
        .collect::<Result<Vec<_>, String>>()?;
    let pair_count = r
        .get("pair_count")
        .and_then(Json::as_u64)
        .ok_or_else(|| "reply has no pair_count".to_string())?;
    Answer::canonical(pair_count, sets("s_sets")?, sets("t_sets")?, &pairs)
}

/// The shared unconstrained lattice of one database.
pub struct Oracle<'a> {
    db: &'a TransactionDb,
    catalog: &'a Catalog,
    lattice: FrequentSets,
    min_support: u64,
}

impl<'a> Oracle<'a> {
    /// Mines every frequent set of `db` at `support` (a fraction of the
    /// rows) on the `auto` backend — the fastest way to the same lattice.
    pub fn new(db: &'a TransactionDb, catalog: &'a Catalog, support: f64) -> Oracle<'a> {
        let min_support = ((support * db.len() as f64).ceil() as u64).max(1);
        let cfg = AprioriConfig::new(min_support).with_backend(CountingBackend::Auto);
        let lattice = apriori(db, &cfg, &mut WorkStats::new());
        Oracle {
            db,
            catalog,
            lattice,
            min_support,
        }
    }

    /// The answer Apriori⁺ gives `req`, with *every* valid pair listed.
    pub fn expected(&self, req: &QueryRequest) -> Result<Answer, String> {
        let query = parse_query(&req.query).map_err(|e| e.to_string())?;
        let bound = bind_query(&query, self.catalog).map_err(|e| e.to_string())?;
        let (s_sup, t_sup) = req
            .support
            .resolve(self.db.len())
            .map_err(|e| e.to_string())?;
        if s_sup.min(t_sup) < self.min_support {
            return Err(format!(
                "request support {} is below the oracle lattice's {}",
                s_sup.min(t_sup),
                self.min_support
            ));
        }
        if req.max_level != 0 {
            return Err("the oracle does not model max_level".into());
        }
        let side = |var: Var, universe: &[cfq_types::ItemId], sup: u64| -> Vec<(&Itemset, u64)> {
            let one: Vec<OneVar> = bound.one_var_for(var).cloned().collect();
            let mut allowed = vec![universe.is_empty(); self.db.n_items()];
            universe.iter().for_each(|i| allowed[i.0 as usize] = true);
            self.lattice
                .iter()
                .filter(|(set, n)| *n >= sup && set.iter().all(|i| allowed[i.0 as usize]))
                .filter(|(set, _)| eval_all_one(&one, set, self.catalog))
                .collect()
        };
        let s_side = side(Var::S, &req.s_universe, s_sup);
        let t_side = side(Var::T, &req.t_universe, t_sup);
        let mut pairs = Vec::new();
        let (mut s_used, mut t_used) = (vec![false; s_side.len()], vec![false; t_side.len()]);
        for (si, (s, _)) in s_side.iter().enumerate() {
            for (ti, (t, _)) in t_side.iter().enumerate() {
                if eval_all_two(&bound.two_var, s, t, self.catalog) {
                    pairs.push((si as u32, ti as u32));
                    (s_used[si], t_used[ti]) = (true, true);
                }
            }
        }
        // Definition 3: only sets with a valid partner are part of the answer.
        let keep = |side: &[(&Itemset, u64)], used: &[bool]| -> (Vec<WireSet>, Vec<u32>) {
            let mut remap = vec![u32::MAX; side.len()];
            let mut out = Vec::new();
            for (i, (set, n)) in side.iter().enumerate() {
                if used[i] {
                    remap[i] = out.len() as u32;
                    out.push((set.iter().map(|i| i.0).collect(), *n));
                }
            }
            (out, remap)
        };
        let (s_sets, s_remap) = keep(&s_side, &s_used);
        let (t_sets, t_remap) = keep(&t_side, &t_used);
        for (s, t) in &mut pairs {
            (*s, *t) = (s_remap[*s as usize], t_remap[*t as usize]);
        }
        Answer::canonical(pairs.len() as u64, s_sets, t_sets, &pairs)
    }

    /// Checks `reply` against the oracle's answer to `req`. Uncapped
    /// replies must be the same answer; replies capped by `max_pairs` must
    /// report the same count and sets and materialise a duplicate-free
    /// subset of the right size.
    pub fn check(&self, req: &QueryRequest, reply: &str) -> Result<(), String> {
        compare(&self.expected(req)?, &parse_answer(reply)?, req.max_pairs)
    }
}

/// `want` lists every valid pair; `got` may be capped at `cap` pairs.
pub fn compare(want: &Answer, got: &Answer, cap: Option<usize>) -> Result<(), String> {
    if got.pair_count != want.pair_count {
        return Err(format!(
            "pair_count {} but the oracle counts {}",
            got.pair_count, want.pair_count
        ));
    }
    if got.s_sets != want.s_sets || got.t_sets != want.t_sets {
        return Err(format!(
            "valid sets differ: {} S / {} T sets but the oracle has {} / {}",
            got.s_sets.len(),
            got.t_sets.len(),
            want.s_sets.len(),
            want.t_sets.len()
        ));
    }
    let Some(cap) = cap else {
        return if got.hash() == want.hash() {
            Ok(())
        } else {
            Err("the materialised pairs are not the oracle's pairs".into())
        };
    };
    let expect = cap.min(want.pairs.len());
    if got.pairs.len() != expect {
        return Err(format!(
            "{} pairs materialised, expected {expect}",
            got.pairs.len()
        ));
    }
    if got.pairs.windows(2).any(|w| w[0] == w[1]) {
        return Err("a pair is materialised twice".into());
    }
    match got
        .pairs
        .iter()
        .find(|p| want.pairs.binary_search(p).is_err())
    {
        Some(p) => Err(format!("materialised pair {p:?} is not a valid pair")),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(items: &[u32], support: u64) -> WireSet {
        (items.to_vec(), support)
    }

    #[test]
    fn canonical_hash_ignores_arrival_order() {
        let a = Answer::canonical(
            2,
            vec![set(&[1], 9), set(&[0, 2], 4)],
            vec![set(&[5], 7), set(&[3], 8)],
            &[(0, 1), (1, 0)],
        )
        .unwrap();
        // The same answer with both lists reversed and pairs reordered.
        let b = Answer::canonical(
            2,
            vec![set(&[0, 2], 4), set(&[1], 9)],
            vec![set(&[3], 8), set(&[5], 7)],
            &[(0, 1), (1, 0)],
        )
        .unwrap();
        assert_eq!(a, b);
        assert_eq!(a.hash(), b.hash());
        // A different pairing of the same sets is a different answer.
        let c = Answer::canonical(
            2,
            vec![set(&[1], 9), set(&[0, 2], 4)],
            vec![set(&[5], 7), set(&[3], 8)],
            &[(0, 0), (1, 1)],
        )
        .unwrap();
        assert_ne!(a.hash(), c.hash());
        assert!(Answer::canonical(1, vec![set(&[1], 9)], vec![], &[(0, 0)]).is_err());
    }

    #[test]
    fn capped_replies_must_be_a_subset_of_the_right_size() {
        let sets = || (vec![set(&[0], 5), set(&[1], 5)], vec![set(&[2], 5)]);
        let (s, t) = sets();
        let want = Answer::canonical(2, s, t, &[(0, 0), (1, 0)]).unwrap();
        let capped = |pairs: &[(u32, u32)], count| {
            let (s, t) = sets();
            Answer::canonical(count, s, t, pairs).unwrap()
        };
        assert!(compare(&want, &capped(&[(1, 0)], 2), Some(1)).is_ok());
        assert!(compare(&want, &capped(&[], 2), Some(0)).is_ok());
        assert!(compare(&want, &want, None).is_ok());
        assert!(
            compare(&want, &capped(&[(1, 0)], 2), None).is_err(),
            "uncapped must list all"
        );
        assert!(compare(&want, &capped(&[], 2), Some(1)).is_err(), "too few");
        assert!(
            compare(&want, &capped(&[(1, 0)], 3), Some(1)).is_err(),
            "wrong count"
        );
        assert!(
            compare(&want, &capped(&[(0, 0), (0, 0)], 2), Some(2)).is_err(),
            "duplicate"
        );
    }

    #[test]
    fn oracle_agrees_with_the_optimizer_on_a_small_database() {
        let data = crate::inputs::generate(3, 0.02, 0);
        let oracle = Oracle::new(&data.db, &data.catalog, crate::inputs::SUPPORT);
        let engine = cfq_engine::Engine::new(data.db.clone(), crate::inputs::catalog(3)).unwrap();
        for r in crate::inputs::optimizer_cold(3) {
            let out = engine.session().execute(&r.req).unwrap();
            let body = cfq_engine::QueryResponse::from_outcome(&out).to_json();
            let reply = cfq_engine::wire::result_object(&body);
            oracle
                .check(&r.req, &reply)
                .unwrap_or_else(|e| panic!("{}: {e}", r.key));
            // And a wrong reply is caught.
            let wrong = reply.replacen("\"pair_count\":", "\"pair_count\":1", 1);
            assert!(oracle.check(&r.req, &wrong).is_err(), "{}", r.key);
        }
    }
}
