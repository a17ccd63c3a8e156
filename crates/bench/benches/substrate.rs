//! Criterion benches for the mining substrate: plain Apriori on Quest data
//! and the two support counters.

use cfq_bench::experiments::ExpEnv;
use cfq_core::{Optimizer, QueryEnv};
use cfq_datagen::ScenarioBuilder;
use cfq_mining::{
    apriori, AprioriConfig, NaiveCounter, ParallelTrieCounter, SupportCounter, TidsetIndex,
    TrieCounter, VerticalCounter, WorkStats,
};
use cfq_types::Itemset;
use criterion::{criterion_group, criterion_main, Criterion};

fn bench(c: &mut Criterion) {
    let e = ExpEnv { scale: 0.02, ..ExpEnv::default() };
    let db = cfq_datagen::generate_transactions(&e.quest()).unwrap();
    let support = e.abs_support(db.len());

    let mut g = c.benchmark_group("substrate");
    g.sample_size(10);
    g.bench_function("apriori_quest", |b| {
        b.iter(|| {
            let mut stats = WorkStats::new();
            apriori(&db, &AprioriConfig::new(support), &mut stats).total()
        })
    });
    g.bench_function("apriori_quest_untrimmed", |b| {
        b.iter(|| {
            let mut stats = WorkStats::new();
            apriori(&db, &AprioriConfig::new(support).with_trim(false), &mut stats).total()
        })
    });

    // Counter comparison on one level-2 candidate batch.
    let mut stats = WorkStats::new();
    let l1 = apriori(&db, &AprioriConfig::new(support).with_max_level(1), &mut stats);
    let singles: Vec<Itemset> = l1.level_sets(1);
    let cands = cfq_mining::generate_candidates(&singles, |_| true);
    g.bench_function("trie_counter_level2", |b| {
        b.iter(|| TrieCounter.count(&db, &cands).len())
    });
    g.bench_function("parallel_trie_counter_level2", |b| {
        b.iter(|| ParallelTrieCounter::default().count(&db, &cands).len())
    });
    let index = TidsetIndex::build(&db);
    g.bench_function("vertical_counter_level2", |b| {
        b.iter(|| VerticalCounter::new(&index).count(&db, &cands).len())
    });
    let bitmap_index = cfq_mining::BitmapIndex::build(&db);
    g.bench_function("bitmap_counter_level2", |b| {
        b.iter(|| cfq_mining::BitmapCounter::new(&bitmap_index).count(&db, &cands).len())
    });
    if cands.len() <= 2000 {
        g.bench_function("naive_counter_level2", |b| {
            b.iter(|| NaiveCounter.count(&db, &cands).len())
        });
    }
    g.bench_function("parse_bind_query", |b| {
        let mut cb = cfq_types::CatalogBuilder::new(10);
        cb.num_attr("Price", (0..10).map(|i| i as f64).collect()).unwrap();
        cb.cat_attr("Type", &["a", "b", "a", "b", "a", "b", "a", "b", "a", "b"]).unwrap();
        let cat = cb.build();
        let src = "sum(S.Price) <= 100 & S.Type = {a} & max(S.Price) <= min(T.Price)                    & count(T.Type) = 1";
        b.iter(|| {
            let q = cfq_constraints::parse_query(src).unwrap();
            cfq_constraints::bind_query(&q, &cat).unwrap().two_var.len()
        })
    });
    g.bench_function("quest_generate_2k", |b| {
        b.iter(|| {
            cfq_datagen::generate_transactions(&e.quest()).unwrap().len()
        })
    });

    // End-to-end optimizer on the Fig. 8(a) workload (16.6% overlap):
    // untrimmed sequential substrate vs per-level trimming + all-core counting.
    let sc = ScenarioBuilder::new(e.quest())
        .split_uniform_prices((400.0, 1000.0), (0.0, 500.0))
        .unwrap();
    let sc_support = e.abs_support(sc.db.len());
    let q = cfq_constraints::bind_query(
        &cfq_constraints::parse_query("max(S.Price) <= min(T.Price)").unwrap(),
        &sc.catalog,
    )
    .unwrap();
    let opt_env = |trim: bool, threads: usize| {
        QueryEnv::new(&sc.db, &sc.catalog, sc_support)
            .with_s_universe(sc.s_items.clone())
            .with_t_universe(sc.t_items.clone())
            .with_trim(trim)
            .with_counting_threads(threads)
    };
    g.bench_function("optimizer_fig8a_untrimmed_sequential", |b| {
        let env = opt_env(false, 1);
        b.iter(|| Optimizer::default().evaluate(&q, &env).unwrap().pair_result.count)
    });
    g.bench_function("optimizer_fig8a_trimmed_sequential", |b| {
        let env = opt_env(true, 1);
        b.iter(|| Optimizer::default().evaluate(&q, &env).unwrap().pair_result.count)
    });
    g.bench_function("optimizer_fig8a_trimmed_parallel", |b| {
        let env = opt_env(true, 0);
        b.iter(|| Optimizer::default().evaluate(&q, &env).unwrap().pair_result.count)
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
