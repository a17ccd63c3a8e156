//! Inputs: the database, the catalog, the append deltas and the four
//! request streams. Everything here is a pure function of the seed and the
//! mode (full or smoke); the server only ever sees the files and request
//! lines generated here.
//!
//! The *database* is fixed — the paper's Quest set at the generator's
//! default seed, the append deltas being the next slices of the same stream
//! — and `--seed` drives what is asked of it: request order, universes,
//! constants and supports.
//! (Fixed data with seeded query parameters, as TPC-style benchmarks do.
//! Measured on the seed commit with a database drawn from `--seed`: the
//! quartile spread of `warm_refine` throughput over ten seeds was 13.5 %
//! against 4.6 % for ten runs of one seed, because lattice and answer sizes
//! follow the Quest pattern table; no bound a regression gate can use
//! survives that.) The smoke mode runs on a second, smaller database
//! ([`SMOKE_DATA_SEED`], [`SMOKE_SCALE`]), so every `--smoke` is also the
//! correctness check on data the full runs never see.

use cfq_core::Strategy;
use cfq_datagen::{io, QuestConfig, ScenarioBuilder};
use cfq_engine::{QueryRequest, SupportSpec};
use cfq_types::{Catalog, ItemId, TransactionDb};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Seed of the database, and of the request streams when `--seed` is not
/// given (the paper's publication date, as in `QuestConfig::default`).
pub const DEFAULT_SEED: u64 = 19_990_601;
/// Seed of the smoke mode's database.
pub const SMOKE_DATA_SEED: u64 = 7;
/// Scale of the smoke mode's database (1.0 = the paper's 100,000
/// transactions).
pub const SMOKE_SCALE: f64 = 0.02;
/// Minimum support of every opening request: 0.4 % of the transactions.
pub const SUPPORT: f64 = 0.004;
/// Item universe of the paper's database.
pub const N_ITEMS: u32 = 1000;
/// Items in an `explore_session` universe.
pub const EXPLORE_UNIVERSE: usize = 400;
/// Items in a `warm_refine` window universe.
pub const WINDOW: u32 = 250;
/// Queries per `explore_session` session: one opening and seven refinements.
pub const SESSION_LEN: usize = 8;

/// The four workloads. Names are the contract with `BENCHMARK.json`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    OptimizerCold,
    WarmRefine,
    ExploreSession,
    AppendChurn,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::OptimizerCold,
        Workload::WarmRefine,
        Workload::ExploreSession,
        Workload::AppendChurn,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::OptimizerCold => "optimizer_cold",
            Workload::WarmRefine => "warm_refine",
            Workload::ExploreSession => "explore_session",
            Workload::AppendChurn => "append_churn",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The percentile `query_tail_ms` reports, fixed per workload so the
    /// metric means the same thing on every run. The rule is the highest
    /// percentile with ten samples beyond it, lowered — never the bound
    /// widened — where runs of one commit disagreed by more than a tenth
    /// (see README, "Tail percentiles").
    pub fn tail_percentile(self) -> u32 {
        match self {
            // ~90 samples a run resolve p75: among the two slow shapes.
            Workload::OptimizerCold => 75,
            // Resolves p99, which rides the tail of the one 1.5 MB reply
            // (quartile spread 6.5 % over ten seeds); p95 sits inside that
            // reply's cluster (1.5 %).
            Workload::WarmRefine => 95,
            // ~960 samples resolve p95: among the openings.
            Workload::ExploreSession => 95,
            // Resolves p99 too, but with both vCPUs busy every steal by
            // the host lands on the reader: 2-15 % of a run's queries sit
            // in 1.5x-slow bursts that no append explains. Quartile spread
            // over ten seeds at 20 s: 16 % at p99, 13 % at p95; at p90
            // 6.3 %, 10 % and 28 % in three sets; at p75, inside the
            // cluster of the three slower requests, 2.2-3.1 %. A stalled
            // reader shows in `throughput_qps`, which counts every query
            // against the wall clock.
            Workload::AppendChurn => 75,
        }
    }
}

/// SplitMix64: the benchmark's own generator for orders, universes and
/// constants, so request streams do not move when a vendored crate does.
pub struct Rng(u64);

impl Rng {
    /// A generator for one `(seed, stream)` pair; streams are independent.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is far below anything
    /// a request stream could show.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// One request of a stream.
#[derive(Clone, Debug)]
pub struct Request {
    /// Stable label, e.g. `c.full`, `f.window`, `s17.open`, `s17.r3`.
    pub key: String,
    /// Requests of one class cost about the same: the key for a palette
    /// request, `<shape>.open` or `<shape>.refine` in `explore_session`.
    pub class: String,
    /// Shape family `a`..`f` (see [`shape_text`]).
    pub shape: char,
    pub req: QueryRequest,
    /// The v1 envelope line sent on the wire.
    pub line: String,
}

impl Request {
    fn new(key: String, shape: char, req: QueryRequest) -> Request {
        let line = format!("{{\"v\":1,\"cmd\":\"query\",\"req\":{}}}", req.to_json());
        Request {
            class: key.clone(),
            key,
            shape,
            req,
            line,
        }
    }
}

pub const SHAPES: [char; 6] = ['a', 'b', 'c', 'd', 'e', 'f'];

/// The six query families, each reaching a constraint class the Fig. 7
/// optimizer handles differently. `s` and `t` are the 1-var price bounds.
///
/// * `a` Fig. 8b: succinct 1-var bounds plus the domain constraint;
/// * `b` Fig. 8a via footnote 2: a quasi-succinct 2-var `max <= min`;
/// * `c` `J^k_max`: `sum <= sum` with iterative pruning;
/// * `d` induced-weaker: `avg <= avg`;
/// * `e` domain plus a count bound;
/// * `f` pure 1-var succinct (CAP only, no 2-var constraint).
pub fn shape_text(shape: char, s: u32, t: u32) -> String {
    match shape {
        'a' => format!("max(S.Price) <= {s} & min(T.Price) >= {t} & S.Type = T.Type"),
        'b' => format!("min(S.Price) >= {s} & max(T.Price) <= {t} & max(S.Price) <= min(T.Price)"),
        'c' => format!("max(S.Price) <= {s} & sum(S.Price) <= sum(T.Price) & min(T.Price) >= {t}"),
        'd' => format!("avg(S.Price) <= avg(T.Price) & max(S.Price) <= {s} & min(T.Price) >= {t}"),
        'e' => {
            format!("S.Type = T.Type & max(S.Price) <= {s} & count(T) <= 2 & min(T.Price) >= {t}")
        }
        'f' => format!("max(S.Price) <= {s} & min(T.Price) >= {t}"),
        other => panic!("unknown shape `{other}`"),
    }
}

/// The paper-shaped constants of each family (the §7.2 split at 400/600).
fn paper_bounds(shape: char) -> (u32, u32) {
    match shape {
        'a' => (400, 600),
        'b' => (400, 500),
        'c' | 'f' => (300, 700),
        'd' => (200, 800),
        'e' => (250, 750),
        other => panic!("unknown shape `{other}`"),
    }
}

/// Loose opening bounds of each family for `explore_session`; the
/// refinements narrow them.
fn opening_bounds(shape: char) -> (u32, u32) {
    match shape {
        'a' | 'c' | 'f' => (500, 500),
        'b' => (300, 700),
        'd' => (400, 600),
        'e' => (450, 550),
        other => panic!("unknown shape `{other}`"),
    }
}

fn request(
    text: String,
    support: f64,
    universe: &[ItemId],
    max_pairs: Option<usize>,
) -> QueryRequest {
    let mut req = QueryRequest::new(text);
    req.support = SupportSpec::Frac(support);
    req.s_universe = universe.to_vec();
    req.t_universe = universe.to_vec();
    req.max_pairs = max_pairs;
    req.strategy = Strategy::default();
    req
}

/// `optimizer_cold`: the six families at the paper's constants, every one
/// with `bypass_cache`, in a seeded order that the client cycles.
pub fn optimizer_cold(seed: u64) -> Vec<Request> {
    let mut out: Vec<Request> = SHAPES
        .iter()
        .map(|&shape| {
            let (s, t) = paper_bounds(shape);
            // `f` counts ~165k pairs; materialising 1k of them keeps the
            // reply small so the mining, not the socket, is what is timed.
            let cap = (shape == 'f').then_some(1000);
            let mut req = request(shape_text(shape, s, t), SUPPORT, &[], cap);
            req.bypass_cache = true;
            Request::new(format!("{shape}.cold"), shape, req)
        })
        .collect();
    Rng::new(seed, 1).shuffle(&mut out);
    out
}

/// The request that fills the cache for `warm_refine`: no succinct 1-var
/// constraint, so its effective universe is every item and the lattice it
/// mines serves every later request by filtering. The count bounds keep
/// its own pair formation small.
pub fn warm_up_request() -> Request {
    let text = "S.Type = T.Type & count(S) <= 1 & count(T) <= 1".to_string();
    Request::new("warmup".into(), 'w', request(text, SUPPORT, &[], Some(0)))
}

/// `warm_refine`: the six families × {full universe, one seeded 250-item
/// window}, never bypassing the cache. Four carry `max_pairs` so pair
/// formation runs both count-only and materialising.
pub fn warm_palette(seed: u64) -> Vec<Request> {
    let start = Rng::new(seed, 2).below((N_ITEMS - WINDOW + 1) as u64) as u32;
    let window: Vec<ItemId> = (start..start + WINDOW).map(ItemId).collect();
    let mut out = Vec::new();
    for shape in SHAPES {
        let (s, t) = paper_bounds(shape);
        for (variant, universe) in [("full", &[][..]), ("window", &window[..])] {
            let cap = match (shape, variant) {
                ('f', "full") | ('c', "window") => Some(1000),
                ('f', "window") | ('d', "window") => Some(0),
                _ => None,
            };
            let req = request(shape_text(shape, s, t), SUPPORT, universe, cap);
            out.push(Request::new(format!("{shape}.{variant}"), shape, req));
        }
    }
    out
}

/// The order in which `client` cycles a palette of `n` requests.
pub fn client_order(seed: u64, client: usize, n: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    Rng::new(seed, 100 + client as u64).shuffle(&mut order);
    order
}

/// `explore_session`, session `index`: a fresh seeded 400-item universe,
/// one loose opening (a cold engine-path mine) and seven refinements that
/// narrow the opening's 1-var bounds and never lower its support, so each
/// is a new text (plan-cache miss) served from the opening's lattices.
pub fn explore_session(seed: u64, index: u64) -> Vec<Request> {
    let mut rng = Rng::new(seed, 1000 + index);
    let mut items: Vec<u32> = (0..N_ITEMS).collect();
    rng.shuffle(&mut items);
    let mut universe: Vec<ItemId> = items[..EXPLORE_UNIVERSE]
        .iter()
        .map(|&i| ItemId(i))
        .collect();
    universe.sort_unstable();

    // Families rotate from a seeded start, so any six consecutive sessions
    // hold one of each and the warm-mode median is not a draw of the mix.
    let start = Rng::new(seed, 4).below(SHAPES.len() as u64);
    let shape = SHAPES[((start + index) % SHAPES.len() as u64) as usize];
    let cap = (shape == 'f').then_some(1000);
    let (s0, t0) = opening_bounds(shape);
    let mut out = Vec::with_capacity(SESSION_LEN);
    let open = request(shape_text(shape, s0, t0), SUPPORT, &universe, cap);
    out.push(Request {
        class: format!("{shape}.open"),
        ..Request::new(format!("s{index}.open"), shape, open)
    });
    for r in 1..SESSION_LEN {
        let (ds, dt) = (rng.below(150) as u32 + 1, rng.below(150) as u32 + 1);
        // Family `b` bounds S from below and T from above; the others the
        // other way round. Either way the allowed items shrink.
        let (s, t) = if shape == 'b' {
            (s0 + ds, t0 - dt)
        } else {
            (s0 - ds, t0 + dt)
        };
        let support = SUPPORT + 0.0005 * rng.below(5) as f64;
        let req = request(shape_text(shape, s, t), support, &universe, cap);
        out.push(Request {
            class: format!("{shape}.refine"),
            ..Request::new(format!("s{index}.r{r}"), shape, req)
        });
    }
    out
}

/// `append_churn`: the reader's five warm requests. An odd count with
/// three of them (`a`, `b`, `d`) costing about the same, so the median
/// latency sits inside that cluster and not in the gap between it and the
/// two cheap ones, where one sample more or less would move it.
pub fn append_palette() -> Vec<Request> {
    ['a', 'b', 'd', 'e', 'f']
        .into_iter()
        .map(|shape| {
            let (s, t) = paper_bounds(shape);
            let cap = (shape == 'f').then_some(1000);
            let req = request(shape_text(shape, s, t), SUPPORT, &[], cap);
            Request::new(format!("{shape}.full"), shape, req)
        })
        .collect()
}

/// The generated database, catalog and append deltas.
pub struct Data {
    pub db: TransactionDb,
    pub catalog: Catalog,
    /// Consecutive slices of the same Quest stream, appended in order.
    pub deltas: Vec<TransactionDb>,
    /// Seconds spent in the Quest generator and catalog builder.
    pub quest_s: f64,
}

/// Transactions in the base database at `scale` (1.0 = the paper's 100k).
pub fn base_rows(scale: f64) -> usize {
    QuestConfig::paper_scaled(scale).n_transactions
}

/// Transactions per append delta at `scale` (1.0 = 1,000).
pub fn delta_rows(scale: f64) -> usize {
    ((1000.0 * scale).round() as usize).max(10)
}

/// Generates the §7.2 set-up from `data_seed`: Quest transactions over
/// 1,000 items with `Price ~ U[0,1000]` and `Type`. The deltas continue the
/// same stream, as new sales of the same shop would.
pub fn generate(data_seed: u64, scale: f64, n_deltas: usize) -> Data {
    let t0 = Instant::now();
    let (base, per_delta) = (base_rows(scale), delta_rows(scale));
    let quest = QuestConfig {
        seed: data_seed,
        n_transactions: base + n_deltas * per_delta,
        ..QuestConfig::paper_scaled(scale)
    };
    let sc = ScenarioBuilder::new(quest)
        .typed_overlap(400.0, 600.0, 10, 40.0)
        .expect("the quest configuration is valid");
    let slice = |lo: usize, hi: usize| {
        let rows = (lo..hi).map(|i| sc.db.transaction(i).to_vec()).collect();
        TransactionDb::new(sc.db.n_items(), rows).expect("rows of a valid database")
    };
    let (db, deltas) = if n_deltas == 0 {
        (sc.db, Vec::new())
    } else {
        let deltas = (0..n_deltas)
            .map(|d| slice(base + d * per_delta, base + (d + 1) * per_delta))
            .collect();
        (slice(0, base), deltas)
    };
    Data {
        db,
        catalog: sc.catalog,
        deltas,
        quest_s: t0.elapsed().as_secs_f64(),
    }
}

/// The catalog [`generate`] builds for `data_seed`, without the
/// transactions: `Catalog` is not `Clone`, and every in-process engine
/// needs its own.
pub fn catalog(data_seed: u64) -> Catalog {
    let quest = QuestConfig {
        seed: data_seed,
        n_transactions: 1,
        ..QuestConfig::paper_scaled(1.0)
    };
    ScenarioBuilder::new(quest)
        .typed_overlap(400.0, 600.0, 10, 40.0)
        .expect("the quest configuration is valid")
        .catalog
}

/// Paths of the generated input files.
pub struct Files {
    pub data: PathBuf,
    pub catalog: PathBuf,
    pub deltas: Vec<PathBuf>,
    /// Seconds spent writing them.
    pub write_s: f64,
}

impl Files {
    /// Bytes of the base file plus the first `n_deltas` delta files — what
    /// the user handed to the server.
    pub fn user_bytes(&self, n_deltas: usize) -> u64 {
        std::iter::once(&self.data)
            .chain(&self.deltas[..n_deltas])
            .map(|p| std::fs::metadata(p).map_or(0, |m| m.len()))
            .sum()
    }
}

/// Writes `data` under `dir` in the formats `cfq serve` reads.
pub fn write_files(data: &Data, dir: &Path) -> cfq_types::Result<Files> {
    let t0 = Instant::now();
    std::fs::create_dir_all(dir)?;
    let files = Files {
        data: dir.join("data.txt"),
        catalog: dir.join("catalog.txt"),
        deltas: (0..data.deltas.len())
            .map(|d| dir.join(format!("delta-{d:04}.txt")))
            .collect(),
        write_s: 0.0,
    };
    io::save_transactions(&data.db, &files.data)?;
    io::write_catalog(&data.catalog, std::fs::File::create(&files.catalog)?)?;
    for (delta, path) in data.deltas.iter().zip(&files.deltas) {
        io::save_transactions(delta, path)?;
    }
    Ok(Files {
        write_s: t0.elapsed().as_secs_f64(),
        ..files
    })
}

/// The four request streams as text, for `--emit`: byte-identical for one
/// seed. `explore_session` is endless, so its first `sessions` are shown.
pub fn emit(seed: u64, sessions: u64) -> String {
    let mut out = String::new();
    let mut section = |name: &str, lines: &mut dyn Iterator<Item = String>| {
        out.push_str(&format!("# {name}\n"));
        for line in lines {
            out.push_str(&line);
            out.push('\n');
        }
    };
    section(
        "optimizer_cold (one client cycles this order)",
        &mut optimizer_cold(seed).into_iter().map(|r| r.line),
    );
    let palette = warm_palette(seed);
    section(
        "warm_refine warm-up",
        &mut std::iter::once(warm_up_request().line),
    );
    for client in 0..2 {
        section(
            &format!("warm_refine client {client} (cycles this order)"),
            &mut client_order(seed, client, palette.len())
                .into_iter()
                .map(|i| palette[i].line.clone()),
        );
    }
    section(
        &format!("explore_session (first {sessions} sessions)"),
        &mut (0..sessions)
            .flat_map(|i| explore_session(seed, i))
            .map(|r| r.line),
    );
    let palette = append_palette();
    section(
        "append_churn reader (cycles this order)",
        &mut client_order(seed, 0, palette.len())
            .into_iter()
            .map(|i| palette[i].line.clone()),
    );
    section(
        "append_churn writer (closed loop, one delta file after another)",
        &mut std::iter::once(":append <work>/delta-NNNN.txt".to_string()),
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_a_pure_function_of_the_seed() {
        assert_eq!(emit(7, 5), emit(7, 5));
        assert_ne!(emit(7, 5), emit(8, 5));
    }

    #[test]
    fn every_request_line_is_a_valid_envelope() {
        let mut all = optimizer_cold(3);
        all.extend(warm_palette(3));
        all.push(warm_up_request());
        all.extend(explore_session(3, 0));
        all.extend(append_palette());
        for r in all {
            match cfq_engine::wire::parse_envelope(&r.line) {
                Ok(cfq_engine::wire::WireCmd::Query(req)) => assert_eq!(req, r.req, "{}", r.key),
                other => panic!("{} did not parse as a query: {other:?}", r.key),
            }
        }
    }

    #[test]
    fn refinements_narrow_the_opening() {
        for index in 0..50 {
            let session = explore_session(11, index);
            assert_eq!(session.len(), SESSION_LEN);
            let open = &session[0];
            assert_eq!(open.req.s_universe.len(), EXPLORE_UNIVERSE);
            let mut texts = std::collections::BTreeSet::new();
            for r in &session {
                assert_eq!(r.req.s_universe, open.req.s_universe);
                assert!(!r.req.bypass_cache);
                let (SupportSpec::Frac(f), SupportSpec::Frac(f0)) =
                    (r.req.support, open.req.support)
                else {
                    panic!("supports are fractions")
                };
                assert!(f >= f0);
                texts.insert((r.req.query.clone(), f.to_bits()));
            }
            assert!(texts.len() > 1, "refinements must differ from the opening");
        }
    }

    #[test]
    fn deltas_continue_the_base_stream() {
        let with = generate(5, 0.01, 3);
        let without = generate(5, 0.01, 0);
        assert_eq!(with.db.len(), base_rows(0.01));
        assert_eq!(with.deltas.len(), 3);
        assert!(with.deltas.iter().all(|d| d.len() == delta_rows(0.01)));
        assert!((0..with.db.len()).all(|i| with.db.transaction(i) == without.db.transaction(i)));
        let text = |c: &Catalog| {
            let mut out = Vec::new();
            io::write_catalog(c, &mut out).unwrap();
            out
        };
        assert_eq!(text(&catalog(5)), text(&with.catalog));
    }
}
