//! Crash-recovery properties of the durable engine.
//!
//! The contract under test: an *acknowledged* `Engine::append` is on the
//! fsynced WAL before the epoch swap makes it visible, so killing the
//! process at any point and rebooting from the same directory recovers
//! exactly the acknowledged state.

use cfq::prelude::*;
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Fresh per-test directory without `Date`/randomness: pid + counter.
fn temp_dir(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "cfq-durability-{}-{tag}-{n}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn catalog() -> Catalog {
    let mut b = CatalogBuilder::new(6);
    b.num_attr("Price", (0..6).map(|i| 10.0 * (i + 1) as f64).collect())
        .unwrap();
    b.build()
}

fn seed_db() -> TransactionDb {
    TransactionDb::from_u32(
        6,
        &[
            &[0, 1, 2, 3],
            &[0, 1, 2],
            &[1, 2, 3, 4],
            &[0, 2, 4],
            &[0, 1, 3, 5],
            &[2, 3, 4, 5],
            &[0, 1, 2, 3, 4],
            &[1, 3, 5],
        ],
    )
}

const QUERY: &str = "max(S.Price) <= 30 & min(T.Price) >= 40";

fn rows_to_db(rows: &[Vec<u32>]) -> TransactionDb {
    let cleaned: Vec<Vec<u32>> = rows
        .iter()
        .map(|r| {
            let mut r = r.clone();
            r.sort_unstable();
            r.dedup();
            r
        })
        .collect();
    let slices: Vec<&[u32]> = cleaned.iter().map(Vec::as_slice).collect();
    TransactionDb::from_u32(6, &slices)
}

/// The semantic payload of an answer: everything except scheduling
/// noise (`wait_us`) and provenance (which legitimately differs between
/// a cache-warm and a cache-cold engine).
type Answer = (u64, u64, Vec<(u32, u32)>, Vec<(Vec<u32>, u64)>, Vec<(Vec<u32>, u64)>);

fn answer(engine: &Arc<Engine>, min_support: u64) -> Answer {
    let out = engine
        .session()
        .query(QUERY)
        .min_support(min_support)
        .run()
        .unwrap();
    let r = QueryResponse::from_outcome(&out);
    (r.epoch, r.pair_count, r.pairs, r.s_sets, r.t_sets)
}

fn db_rows(db: &TransactionDb) -> Vec<Vec<u32>> {
    db.iter().map(|t| t.iter().map(|i| i.0).collect()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// Random append sequences against a durable engine; "kill" it by
    /// dropping, optionally smear a torn (never-acknowledged) frame onto
    /// the WAL tail, reboot from the directory — the recovered engine
    /// must match a reference engine that never crashed, for every
    /// snapshot cadence.
    #[test]
    fn reboot_recovers_every_acknowledged_append(
        deltas in prop::collection::vec(
            prop::collection::vec(prop::collection::vec(0u32..6, 1..5), 1..4),
            1..6,
        ),
        snapshot_every in 0u64..4,
        torn in prop::collection::vec(0u8..=255, 0..40),
        warm_queries in 0usize..3,
    ) {
        let dir = temp_dir("crash");
        let reference = Engine::new(seed_db(), catalog()).unwrap();
        let config = EngineConfig::builder()
            .wal_dir(&dir)
            .snapshot_every(snapshot_every)
            .build();
        let durable = Engine::with_config(seed_db(), catalog(), config.clone()).unwrap();

        // Some appends land on a query-warmed cache so snapshots carry
        // lattices; FUP keeps those exact across epochs.
        for _ in 0..warm_queries {
            let _ = answer(&durable, 2);
        }
        for rows in &deltas {
            let ack = durable.append(rows_to_db(rows)).unwrap();
            let want = reference.append(rows_to_db(rows)).unwrap();
            prop_assert_eq!(ack.epoch, want.epoch);
        }
        drop(durable);

        // A crash mid-write leaves a torn frame: an impossible length
        // prefix plus garbage. Recovery must discard it and nothing else.
        if !torn.is_empty() {
            use std::io::Write as _;
            let files = cfq::engine::wal::wal_files(&dir).unwrap();
            if let Some((_, path)) = files.last() {
                let mut f = std::fs::OpenOptions::new().append(true).open(path).unwrap();
                f.write_all(&[0xFF, 0xFF, 0xFF, 0xFF]).unwrap();
                f.write_all(&torn).unwrap();
            }
        }

        let recovered = Engine::with_config(seed_db(), catalog(), config).unwrap();
        prop_assert_eq!(recovered.epoch(), reference.epoch());
        prop_assert_eq!(db_rows(&recovered.db()), db_rows(&reference.db()));
        prop_assert_eq!(answer(&recovered, 2), answer(&reference, 2));
        // Nothing on disk holds the item-support column: a snapshot's rows
        // are recounted and each replayed delta's column added, which must
        // come to a recount over the base and every acknowledged delta.
        let acked: Vec<Vec<u32>> =
            db_rows(&seed_db()).into_iter().chain(deltas.iter().flatten().cloned()).collect();
        let recount: Vec<u32> =
            (0..6).map(|i| acked.iter().filter(|row| row.contains(&i)).count() as u32).collect();
        prop_assert_eq!(recovered.db().item_supports(), &recount[..]);
        prop_assert!(recovered.db().validate().is_ok());

        // The reopened writer keeps accepting appends past the torn tail.
        let extra: &[&[u32]] = &[&[0, 3], &[1, 4, 5]];
        let ack = recovered.append(TransactionDb::from_u32(6, extra)).unwrap();
        let want = reference.append(TransactionDb::from_u32(6, extra)).unwrap();
        prop_assert_eq!(ack.epoch, want.epoch);
        prop_assert_eq!(answer(&recovered, 3), answer(&reference, 3));
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A snapshot taken after cache-warming queries makes the rebooted
/// engine answer with zero database scans — the warm-restart headline.
#[test]
fn snapshot_reboot_serves_warm() {
    let dir = temp_dir("warm");
    let config = EngineConfig::builder().wal_dir(&dir).snapshot_every(1).build();
    let engine = Engine::with_config(seed_db(), catalog(), config.clone()).unwrap();

    let cold = engine.session().query(QUERY).min_support(2).run().unwrap();
    assert_eq!(cold.outcome.provenance.s_lattice, LatticeSource::MinedCold, "first run must mine");
    // This append FUP-upgrades the cached lattices and (cadence 1)
    // snapshots them together with the new epoch's database.
    engine.append(TransactionDb::from_u32(6, &[&[0, 1, 2], &[3, 4, 5]])).unwrap();
    let stats = engine.durability_stats();
    assert_eq!(stats.snapshot_writes, 1);
    assert_eq!(stats.last_snapshot_epoch, 1);
    drop(engine);

    let rebooted = Engine::with_config(seed_db(), catalog(), config).unwrap();
    assert_eq!(rebooted.epoch(), 1);
    assert!(rebooted.cache_stats().entries >= 1, "snapshot lattices re-enter the cache");
    assert_eq!(rebooted.durability_stats().replayed_records, 0, "snapshot covers the WAL");
    let warm = rebooted.session().query(QUERY).min_support(2).run().unwrap();
    assert_eq!(warm.outcome.db_scans, 0, "rebooted engine serves from the recovered cache");
    // The recovered answer matches an engine that lived through the
    // append instead of rebooting.
    let reference = Engine::new(seed_db(), catalog()).unwrap();
    reference.append(TransactionDb::from_u32(6, &[&[0, 1, 2], &[3, 4, 5]])).unwrap();
    let live = reference.session().query(QUERY).min_support(2).run().unwrap();
    assert_eq!(warm.outcome.s_sets, live.outcome.s_sets);
    assert_eq!(warm.outcome.t_sets, live.outcome.t_sets);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The snapshot format before cached lattices dropped their level 1
/// (`CFQSNAP1`, every lattice from level 1 up) still recovers, to the
/// answers of the engine whose state it holds, served warm; and a reader
/// that knows only that format refuses the current one with a typed
/// error instead of serving lattices without their singletons.
#[test]
fn previous_snapshot_format_recovers_and_old_readers_refuse_the_new() {
    use cfq::engine::snapshot::{self, SNAPSHOT_MAGIC, SNAPSHOT_MAGIC_V1};
    let dir = temp_dir("v1");
    let config = EngineConfig::builder().wal_dir(&dir).snapshot_every(0).build();
    let engine = Engine::with_config(seed_db(), catalog(), config.clone()).unwrap();
    let want = [answer(&engine, 2), answer(&engine, 3)];
    let written = engine.snapshot_now().unwrap();
    drop(engine);

    // A `CFQSNAP1` reader accepts its own header only, and refuses any
    // other with a typed error, as this reader refuses one it does not know.
    let current = std::fs::read(&written.path).unwrap();
    assert!(current.starts_with(SNAPSHOT_MAGIC) && !current.starts_with(SNAPSHOT_MAGIC_V1));
    let mut unknown = current.clone();
    unknown[..8].copy_from_slice(b"CFQSNAP9");
    std::fs::write(&written.path, &unknown).unwrap();
    let err = snapshot::load(&written.path).err().unwrap();
    assert!(matches!(err, CfqError::Io(_)), "{err}");
    std::fs::write(&written.path, &current).unwrap();

    // The same state, written the way a `CFQSNAP1` writer wrote it.
    let image = snapshot::load(&written.path).unwrap();
    assert!(!image.lattices.is_empty(), "the queries cached their lattices");
    let (mut payload, u32s, u64s) = (Vec::new(), u32::to_le_bytes, u64::to_le_bytes);
    payload.extend(u64s(image.epoch));
    payload.extend(u64s(image.db.n_items() as u64));
    payload.extend(u64s(image.db.len() as u64));
    for row in image.db.iter() {
        payload.extend(u32s(row.len() as u32));
        row.iter().for_each(|i| payload.extend(u32s(i.0)));
    }
    payload.extend(u64s(image.lattices.len() as u64));
    for l in &image.lattices {
        payload.extend(u64s(l.universe.len() as u64));
        l.universe.iter().for_each(|i| payload.extend(u32s(i.0)));
        payload.extend(u64s(l.min_support));
        payload.extend(u64s(l.scans_cost));
        let full = l.lattice.complete(&image.db, &l.universe, l.min_support);
        payload.extend(u64s(full.n_levels() as u64));
        for k in 1..=full.n_levels() {
            payload.extend(u64s(full.level(k).len() as u64));
            for (set, n) in full.level(k) {
                payload.extend(u32s(set.len() as u32));
                set.iter().for_each(|i| payload.extend(u32s(i.0)));
                payload.extend(u64s(*n));
            }
        }
    }
    let mut file = SNAPSHOT_MAGIC_V1.to_vec();
    file.extend(u32s(payload.len() as u32));
    file.extend(u32s(cfq::engine::wal::crc32(&payload)));
    file.extend(&payload);
    std::fs::write(&written.path, file).unwrap();

    let rebooted = Engine::with_config(seed_db(), catalog(), config).unwrap();
    assert_eq!(rebooted.cache_stats().entries, image.lattices.len());
    let warm = rebooted.session().query(QUERY).min_support(2).run().unwrap();
    assert_eq!(warm.outcome.db_scans, 0, "the recovered lattices serve");
    assert_eq!(warm.outcome.provenance.s_lattice, LatticeSource::Cached);
    assert_eq!([answer(&rebooted, 2), answer(&rebooted, 3)], want);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Recovery falls back to the older of the two snapshot generations when
/// the newest fails its checksum, and replays from there: the records it
/// needs are in the WAL generation `wal::prune` keeps. Cadence 2 over
/// five appends leaves snapshots at epochs 2 and 4 and segments starting
/// at epochs 3 and 5.
#[test]
fn newest_snapshot_corrupt_recovers_from_the_older_and_the_kept_wal() {
    let dir = temp_dir("fallback");
    let config = EngineConfig::builder().wal_dir(&dir).snapshot_every(2).build();
    let durable = Engine::with_config(seed_db(), catalog(), config.clone()).unwrap();
    let reference = Engine::new(seed_db(), catalog()).unwrap();
    let _ = answer(&durable, 2); // the snapshots carry a lattice
    let deltas: [&[&[u32]]; 5] =
        [&[&[0, 1, 2]], &[&[3, 4, 5], &[0, 3]], &[&[1, 4]], &[&[2, 5], &[0, 1, 3]], &[&[2, 3, 4]]];
    for rows in deltas {
        durable.append(TransactionDb::from_u32(6, rows)).unwrap();
        reference.append(TransactionDb::from_u32(6, rows)).unwrap();
    }
    drop(durable);

    let newest = cfq::engine::snapshot::snapshot_path(&dir, 4);
    let mut bytes = std::fs::read(&newest).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xff;
    std::fs::write(&newest, bytes).unwrap();

    let recovered = Engine::with_config(seed_db(), catalog(), config).unwrap();
    let stats = recovered.durability_stats();
    assert_eq!((stats.last_snapshot_epoch, stats.replayed_records), (2, 3));
    assert_eq!(recovered.epoch(), reference.epoch());
    assert_eq!(db_rows(&recovered.db()), db_rows(&reference.db()));
    assert_eq!(answer(&recovered, 2), answer(&reference, 2));
    let _ = std::fs::remove_dir_all(&dir);
}

/// The builder covers every knob.
#[test]
fn builder_round_trips_and_validates() {
    let cfg = EngineConfig::builder()
        .cache_budget_bytes(1 << 20)
        .plan_cache_entries(7)
        .max_inflight_queries(3)
        .max_queued_queries(9)
        .wal_dir("/tmp/cfq-nowhere")
        .snapshot_every(5)
        .build();
    assert_eq!(cfg.cache_budget_bytes, 1 << 20);
    assert_eq!(cfg.plan_cache_entries, 7);
    assert_eq!(cfg.max_inflight_queries, 3);
    assert_eq!(cfg.max_queued_queries, 9);
    assert_eq!(cfg.wal_dir.as_deref(), Some(std::path::Path::new("/tmp/cfq-nowhere")));
    assert_eq!(cfg.snapshot_every, 5);
}
