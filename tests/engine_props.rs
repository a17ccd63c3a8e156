//! Property tests for the session engine's cache-served path.
//!
//! * Incremental maintenance: for a random Quest database, a random
//!   base/delta split, and a random support, the answer served from a
//!   FUP-upgraded cache entry after `append` must equal a full re-mine of
//!   the combined database — sets, supports, and valid pairs alike — and
//!   must be served without a database scan. So must each upgraded entry
//!   itself: its stored levels plus the new epoch's item-support column
//!   are the complete family a fresh mine finds.
//! * The lattice filter: whatever 1-var conjunction, universe window,
//!   support and level cap a query carries, carving its answer out of a
//!   cached wider lattice — level 1 off the column, the rest off the
//!   entry — equals running the optimizer one-shot, and costs the
//!   constraint checks it always did over the universe Figs. 2–3 narrow.
//! * The narrowing: over every Fig. 1 cell whose reduction may be an
//!   `allowed` filter, a cold opening, a refinement of it and both after
//!   an append answer what the one-shot optimizer does; `avg ≤ avg` and
//!   `sum ≤ sum` narrow nothing.

use cfq::prelude::*;
use proptest::prelude::*;

const QUERIES: [&str; 3] = [
    "max(S.Price) <= 80 & min(T.Price) >= 80",
    "sum(S.Price) <= sum(T.Price)",
    "max(S.Price) <= min(T.Price)",
];

/// The 1-var pool of `tests/succinct_props.rs` (every class the compiled
/// form distinguishes: allowed filters, required groups, residual
/// anti-monotone checks, post filters), written for `var`.
fn one_var_pool(var: char, p1: u32, p2: u32) -> Vec<String> {
    [
        format!("max(S.Price) <= {p1}"),
        format!("max(S.Price) < {p1}"),
        format!("max(S.Price) >= {p2}"),
        format!("min(S.Price) <= {p2}"),
        format!("min(S.Price) >= {p2}"),
        format!("min(S.Price) = {p2}"),
        format!("sum(S.Price) <= {}", p1 + p2),
        format!("sum(S.Price) >= {p1}"),
        format!("avg(S.Price) <= {p1}"),
        format!("avg(S.Price) >= {p2}"),
        "count(S) <= 2".to_string(),
        "count(S) = 2".to_string(),
        "count(S.Type) = 1".to_string(),
        "S.Type subset {a, b}".to_string(),
        "S.Type superset {a}".to_string(),
        "S.Type = {a}".to_string(),
        "S.Type != {a}".to_string(),
        "S.Type disjoint {c}".to_string(),
        "S.Type intersects {b, c}".to_string(),
        "S.Type notsuperset {a, b}".to_string(),
        "S.Type notsubset {a}".to_string(),
        format!("{p2} in S.Price"),
    ]
    .into_iter()
    .map(|c| c.replace("S.", &format!("{var}.")).replace("(S)", &format!("({var})")))
    .collect()
}

const TWO_VAR: [&str; 4] = [
    "",
    "max(S.Price) <= max(T.Price)",
    "S.Type = T.Type",
    "sum(S.Price) <= sum(T.Price)",
];

const N_ITEMS: u32 = 7;

proptest! {
    #![proptest_config(ProptestConfig { cases: 200, ..ProptestConfig::default() })]

    #[test]
    fn warm_answer_equals_bypass_answer(
        rows in prop::collection::vec(prop::collection::vec(0u32..N_ITEMS, 1..6), 6..20),
        prices in prop::collection::vec(1u32..40, N_ITEMS as usize),
        types in prop::collection::vec(0u32..3, N_ITEMS as usize),
        s_picks in prop::collection::vec(0usize..22, 0..3),
        t_picks in prop::collection::vec(0usize..22, 0..3),
        two in 0usize..TWO_VAR.len(),
        p1 in 5u32..40,
        p2 in 1u32..25,
        windows in prop::collection::vec(0u32..N_ITEMS, 4),
        cached_support in 1u64..3,
        raise in 0u64..3,
        // At 1 the whole answer comes from the column.
        max_level in prop::sample::select(vec![0usize, 1, 2]),
    ) {
        let text = s_picks.iter().map(|&i| one_var_pool('S', p1, p2)[i].clone())
            .chain(t_picks.iter().map(|&i| one_var_pool('T', p1, p2)[i].clone()))
            .chain((!TWO_VAR[two].is_empty()).then(|| TWO_VAR[two].to_string()))
            .collect::<Vec<_>>()
            .join(" & ");
        prop_assume!(!text.is_empty());

        let mut b = CatalogBuilder::new(N_ITEMS as usize);
        b.num_attr("Price", prices.iter().map(|&p| p as f64).collect()).unwrap();
        let labels: Vec<String> =
            types.iter().map(|&t| ((b'a' + t as u8) as char).to_string()).collect();
        b.cat_attr("Type", &labels).unwrap();
        let rows: Vec<Vec<ItemId>> = rows
            .iter()
            .map(|r| Itemset::from_items(r.iter().map(|&i| ItemId(i))).iter().collect())
            .collect();
        let db = TransactionDb::new(N_ITEMS as usize, rows).unwrap();
        let engine = Engine::new(db.clone(), b.build()).unwrap();
        let catalog = engine.catalog();
        let session = engine.session();

        // One complete lattice over every item, mined once and cached:
        // every query below is a window of it at an equal or higher
        // threshold, so both of its sides must be carved out of this one.
        session.query("max(S.Price) <= max(T.Price)").min_support(cached_support).run().unwrap();
        let all: Vec<ItemId> = (0..N_ITEMS).map(ItemId).collect();
        let cached = apriori(
            &db,
            &AprioriConfig::new(cached_support).with_universe(all.clone()),
            &mut WorkStats::new(),
        );

        // A window `lo..=hi`; an inverted draw means "every item".
        let window = |a: u32, b: u32| -> Vec<ItemId> {
            if a > b { Vec::new() } else { (a..=b).map(ItemId).collect() }
        };
        let support = cached_support + raise;
        let mut req = QueryRequest::new(text.as_str());
        req.support = SupportSpec::Abs(support, support);
        req.s_universe = window(windows[0], windows[1]);
        req.t_universe = window(windows[2], windows[3]);
        req.max_level = max_level;
        let warm = session.execute(&req).unwrap();
        req.bypass_cache = true;
        let bypass = session.execute(&req).unwrap();

        prop_assert_eq!(warm.outcome.db_scans, 0, "`{}` must be served from the cache", &text);
        prop_assert!(bypass.outcome.provenance.s_lattice == LatticeSource::MinedCold);
        let (w, o) = (&warm.outcome, &bypass.outcome);
        prop_assert_eq!(&w.s_sets, &o.s_sets, "S side of `{}` {:?}", &text, &req);
        prop_assert_eq!(&w.t_sets, &o.t_sets, "T side of `{}` {:?}", &text, &req);
        prop_assert_eq!(w.pair_result.count, o.pair_result.count, "`{}`", &text);
        prop_assert_eq!(&w.pair_result.pairs, &o.pair_result.pairs, "`{}`", &text);
        prop_assert_eq!(w.pair_result.truncated, o.pair_result.truncated);

        // The work ledger: one check per 1-var constraint per cached set
        // that survives level cap, threshold and effective universe —
        // whether or not the filter had to evaluate anything for it. The
        // effective universe is narrowed by every reduced condition whose
        // compiled form is an `allowed` filter alone, compiled here over
        // the whole catalog.
        let bound = bind_query(&parse_query(&text).unwrap(), &catalog).unwrap();
        let one = |var| bound.one_var_for(var).cloned().collect::<Vec<OneVar>>();
        let effs = [(Var::S, &req.s_universe), (Var::T, &req.t_universe)].map(|(var, universe)| {
            let form = SuccinctForm::compile(&one(var), &catalog);
            let universe = if universe.is_empty() { &all } else { universe };
            if form.unsatisfiable() { Vec::new() } else { form.filter_universe(universe) }
        });
        let l1 = |eff: &[ItemId]| -> Vec<ItemId> {
            eff.iter().copied().filter(|&i| db.item_support(i) >= support).collect()
        };
        let plan = cfq::core::plan(&bound, &catalog);
        let reductions = cfq::core::reduce(&plan, &l1(&effs[0]), &l1(&effs[1]), &catalog);
        for ((var, stats), eff) in [(Var::S, &w.s_stats), (Var::T, &w.t_stats)].into_iter().zip(effs) {
            let mut eff = eff;
            for c in reductions.conditions(var) {
                let form = SuccinctForm::compile(std::slice::from_ref(&c), &catalog);
                if form.required_groups.is_empty()
                    && form.residual_am.is_empty()
                    && form.post_filters.is_empty()
                {
                    eff = form.filter_universe(&eff);
                }
            }
            let surviving = cached
                .iter()
                .filter(|(set, n)| {
                    (max_level == 0 || set.len() <= max_level)
                        && *n >= support
                        && set.iter().all(|i| eff.contains(&i))
                })
                .count();
            prop_assert_eq!(
                stats.constraint_checks,
                (one(var).len() * surviving) as u64,
                "{:?} checks of `{}` {:?}", var, &text, &req
            );
        }
    }
}

/// Fig. 1 cells for the narrowing property: every `max/min θ max/min`
/// in both directions and `⊆` / `=` on a categorical attribute — the
/// cells whose reduced conditions may compile to `allowed` filters — then
/// the two that must not narrow: `avg ≤ avg` (induced, required groups)
/// and `sum ≤ sum` (`J^k_max`).
const REDUCED: [&str; 12] = [
    "max(S.Price) <= min(T.Price)",
    "max(S.Price) <= max(T.Price)",
    "min(S.Price) <= min(T.Price)",
    "min(S.Price) <= max(T.Price)",
    "min(S.Price) >= max(T.Price)",
    "min(S.Price) >= min(T.Price)",
    "max(S.Price) >= max(T.Price)",
    "max(S.Price) >= min(T.Price)",
    "S.Type subset T.Type",
    "S.Type = T.Type",
    "avg(S.Price) <= avg(T.Price)",
    "sum(S.Price) <= sum(T.Price)",
];

proptest! {
    #![proptest_config(ProptestConfig { cases: 120, ..ProptestConfig::default() })]

    /// Cold opening, a refinement that narrows its 1-var bounds and raises
    /// its support, then an append: at each step the cached path — sides
    /// narrowed by Figs. 2–3, looked up by their frequent items — answers
    /// exactly what the one-shot optimizer does.
    #[test]
    fn narrowed_answer_equals_bypass_answer(
        rows in prop::collection::vec(prop::collection::vec(0u32..N_ITEMS, 1..6), 6..20),
        delta in prop::collection::vec(prop::collection::vec(0u32..N_ITEMS, 1..6), 1..8),
        prices in prop::collection::vec(1u32..40, N_ITEMS as usize),
        types in prop::collection::vec(0u32..3, N_ITEMS as usize),
        cell in 0usize..REDUCED.len(),
        lo in 0u32..15,
        hi in 25u32..41,
        raise_lo in 0u32..10,
        lower_hi in 0u32..10,
        support in 1u64..3,
        raise in 0u64..2,
    ) {
        let mut b = CatalogBuilder::new(N_ITEMS as usize);
        b.num_attr("Price", prices.iter().map(|&p| p as f64).collect()).unwrap();
        let labels: Vec<String> =
            types.iter().map(|&t| ((b'a' + t as u8) as char).to_string()).collect();
        b.cat_attr("Type", &labels).unwrap();
        let db = |rows: &[Vec<u32>]| {
            let rows: Vec<Vec<ItemId>> = rows
                .iter()
                .map(|r| Itemset::from_items(r.iter().map(|&i| ItemId(i))).iter().collect())
                .collect();
            TransactionDb::new(N_ITEMS as usize, rows).unwrap()
        };
        let engine = Engine::new(db(&rows), b.build()).unwrap();
        let session = engine.session();
        let text = |lo: u32, hi: u32| {
            format!("min(S.Price) >= {lo} & max(T.Price) <= {hi} & {}", REDUCED[cell])
        };
        let check = |text: &str, support: u64| {
            let mut req = QueryRequest::new(text);
            req.support = SupportSpec::Abs(support, support);
            let cached = session.execute(&req).unwrap();
            req.bypass_cache = true;
            let bypass = session.execute(&req).unwrap();
            let (c, o) = (&cached.outcome, &bypass.outcome);
            prop_assert_eq!(&c.s_sets, &o.s_sets, "S side of `{}` at {}", text, support);
            prop_assert_eq!(&c.t_sets, &o.t_sets, "T side of `{}` at {}", text, support);
            prop_assert_eq!(&c.pair_result.pairs, &o.pair_result.pairs, "`{}`", text);
            if cell >= REDUCED.len() - 2 {
                for (before, after) in c.provenance.universes.into_iter().flatten() {
                    prop_assert_eq!(before, after, "`{}` must not narrow", text);
                }
            }
        };

        let (open, refined) = (text(lo, hi), text(lo + raise_lo, hi - lower_hi));
        check(&open, support);
        check(&refined, support + raise);
        engine.append(db(&delta)).unwrap();
        check(&refined, support + raise);
        check(&open, support);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    #[test]
    fn fup_upgraded_cache_matches_full_remine(
        seed in 0u64..1_000,
        cut_pct in 50usize..95,
        support in 2u64..6,
        qi in 0usize..QUERIES.len(),
    ) {
        let sc = ScenarioBuilder::new(QuestConfig { seed, ..QuestConfig::tiny() })
            .split_uniform_prices((10.0, 100.0), (40.0, 160.0))
            .unwrap();
        let rows: Vec<Vec<ItemId>> = sc.db.iter().map(|r| r.to_vec()).collect();
        let cut = (rows.len() * cut_pct / 100).max(1);
        let base = TransactionDb::new(sc.db.n_items(), rows[..cut].to_vec()).unwrap();
        let delta = TransactionDb::new(sc.db.n_items(), rows[cut..].to_vec()).unwrap();
        let combined = base.concat(&delta).unwrap();
        let query = QUERIES[qi];

        let dir = std::env::temp_dir().join(format!(
            "cfq-engine-props-fup-{}-{seed}-{cut_pct}-{support}-{qi}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let config = EngineConfig::builder().wal_dir(&dir).snapshot_every(0).build();
        let engine = Engine::with_config(base, sc.catalog, config).unwrap();
        let session = engine.session();
        let run = || {
            session
                .query(query)
                .min_support(support)
                .s_universe(sc.s_items.clone())
                .t_universe(sc.t_items.clone())
                .run()
                .unwrap()
        };

        // Cold run populates the cache at epoch 0; the append FUP-upgrades
        // the cached lattices in place instead of discarding them.
        let _ = run();
        let info = engine.append(delta).unwrap();
        prop_assert_eq!(info.epoch, 1);
        prop_assert!(info.upgraded_lattices > 0, "`{}`: the append upgraded no lattice", query);

        let upgraded = run();
        prop_assert_eq!(upgraded.epoch, 1, "query `{}` should see the new epoch", query);
        prop_assert_eq!(
            upgraded.outcome.db_scans, 0,
            "query `{}` should answer from the upgraded cache without a scan", query
        );

        // Full re-mine of the combined database through the one-shot
        // optimizer. Equality of the `(set, support)` vectors checks the
        // upgraded support counts, not just set membership.
        let catalog = engine.catalog();
        let bound = bind_query(&parse_query(query).unwrap(), &catalog).unwrap();
        let env = QueryEnv::new(&combined, &catalog, support)
            .with_s_universe(sc.s_items.clone())
            .with_t_universe(sc.t_items.clone());
        let fresh = Optimizer::default().evaluate(&bound, &env).unwrap();
        prop_assert_eq!(&upgraded.outcome.s_sets, &fresh.s_sets, "S side for `{}`", query);
        prop_assert_eq!(&upgraded.outcome.t_sets, &fresh.t_sets, "T side for `{}`", query);
        prop_assert_eq!(
            upgraded.outcome.pair_result.count, fresh.pair_result.count,
            "pair count for `{}`", query
        );
        prop_assert_eq!(
            &upgraded.outcome.pair_result.pairs, &fresh.pair_result.pairs,
            "pairs for `{}`", query
        );

        // Each upgraded entry, as the snapshot writes what the cache
        // holds: its levels ≥ 2 plus the combined database's column are
        // the complete family a fresh mine of its universe finds.
        let written = engine.snapshot_now().unwrap();
        let image = cfq::engine::snapshot::load(&written.path).unwrap();
        prop_assert_eq!(image.lattices.len(), info.upgraded_lattices);
        for l in &image.lattices {
            let full = l.lattice.complete(&combined, &l.universe, l.min_support);
            let cfg = AprioriConfig::new(l.min_support).with_universe(l.universe.clone());
            let fresh = apriori(&combined, &cfg, &mut WorkStats::new());
            let sets = |f: &FrequentSets| -> Vec<(Itemset, u64)> {
                f.iter().map(|(s, n)| (s.clone(), n)).collect()
            };
            prop_assert_eq!(sets(&full), sets(&fresh), "entry over {:?}", &l.universe);
        }
        drop(engine);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// `db_scans` counts the levels ≥ 2 counted against the data, whichever
/// way they were counted: a cold side whose last level is 2 reads that
/// level off the epoch's pair-support column — no row touched — and still
/// books one scan for it, on the cached path and on `bypass_cache` alike.
/// Only a lattice served from the cache reports none. (`scripts/ci.sh`
/// asserts the same over TCP.)
#[test]
fn a_cold_side_that_stops_at_level_two_books_its_column_read_as_a_scan() {
    // Pairs {0, 1} and {2, 3} are frequent at support 2, no triple is a
    // candidate.
    let rows: &[&[u32]] = &[&[0, 1], &[0, 1, 4], &[2, 3], &[2, 3], &[0, 2], &[4]];
    let engine = Engine::new(TransactionDb::from_u32(5, rows), Catalog::empty(5)).unwrap();
    assert!(engine.db().pair_supports().is_some(), "an engine fills the column");
    let query = |bypass: bool| {
        let q = engine.session().query("count(S) >= 1 & count(T) >= 1").min_support(2);
        if bypass { q.bypass_cache() } else { q }.run().unwrap().outcome
    };
    for (bypass, tag) in [(true, "bypass_cache"), (false, "cold cached path")] {
        let cold = query(bypass);
        assert_eq!(cold.provenance.s_lattice, LatticeSource::MinedCold, "{tag}");
        assert!(cold.db_scans >= 1, "{tag}: a level-2 column read is a scan");
        assert_eq!((cold.scan.rows_scanned, cold.scan.items_scanned), (0, 0), "{tag}");
        for stats in [&cold.s_stats, &cold.t_stats].into_iter().filter(|s| !s.levels.is_empty()) {
            let last = stats.levels.last().unwrap();
            assert_eq!((last.level, last.frequent, last.counted_by), (2, 2, "column"), "{tag}");
        }
        assert_eq!(cold.s_sets.len(), 5 + 2, "{tag}: five items and two pairs");
    }
    let warm = query(false);
    assert_eq!(warm.provenance.s_lattice, LatticeSource::Cached);
    assert_eq!(warm.db_scans, 0, "a lattice served from the cache scans nothing");
}
