//! The end-to-end pass: set-up, and the four workloads driven over TCP
//! against a spawned `cfq serve` with tracing off.
//!
//! Every loop is closed, with at most two connections from this one
//! process. A client runs whole rounds (one cycle of its palette, or one
//! explore session) until the deadline, so the request mix of a run is the
//! same whatever its length.

use crate::inputs::{self, Data, Files, Request, Workload};
use crate::server::{RssSampler, Server};
use crate::tcp::{append_epoch, reply_meta, Conn, ReplyMeta};
use std::collections::{BTreeMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Delta files generated per second of run: about three times what the
/// seed commit appends, so the writer never runs dry.
const DELTAS_PER_SECOND: f64 = 12.0;

/// What a run is asked to do.
pub struct Config {
    pub workload: Workload,
    /// Drives the request streams.
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    /// The smoke mode: the same code on a second, fifty times smaller
    /// database.
    pub smoke: bool,
    /// The `cfq` binary to spawn.
    pub cfq: PathBuf,
    /// Scratch directory of this run (created and removed by the caller).
    pub work: PathBuf,
}

impl Config {
    /// Seed of the database and catalog.
    pub fn data_seed(&self) -> u64 {
        if self.smoke {
            inputs::SMOKE_DATA_SEED
        } else {
            inputs::DEFAULT_SEED
        }
    }

    /// 1.0 = the paper's 100,000 transactions.
    pub fn scale(&self) -> f64 {
        if self.smoke {
            inputs::SMOKE_SCALE
        } else {
            1.0
        }
    }

    pub fn n_deltas(&self) -> usize {
        match self.workload {
            Workload::AppendChurn => (self.seconds * DELTAS_PER_SECOND).ceil() as usize,
            _ => 0,
        }
    }
}

/// A server that is up, warm and ready for the measured phase.
pub struct SetUp {
    pub data: Data,
    pub files: Files,
    pub server: Server,
    wal_dir: Option<PathBuf>,
    log: PathBuf,
    /// Input generation + file writing + spawn until the first accepted
    /// connection + warm-up requests, in seconds.
    pub setup_s: f64,
}

/// Generates the inputs, starts a fresh server on them and warms it up.
/// `rep` names the sub-directory, so repeated set-ups do not collide.
pub fn set_up(cfg: &Config, rep: usize) -> Result<SetUp, String> {
    let t0 = Instant::now();
    let dir = cfg.work.join(format!("setup-{rep}"));
    let data = inputs::generate(cfg.data_seed(), cfg.scale(), cfg.n_deltas());
    let files = inputs::write_files(&data, &dir).map_err(|e| format!("write inputs: {e}"))?;
    let wal_dir = (cfg.workload == Workload::AppendChurn).then(|| dir.join("wal"));
    let log = dir.join("serve.log");
    let server = Server::spawn(
        &cfg.cfq,
        &files.data,
        &files.catalog,
        wal_dir.as_deref(),
        &log,
    )
    .map_err(|e| e.to_string())?;
    let mut conn = Conn::connect(&server.addr)?;
    for r in warm_up_requests(cfg) {
        let (_, reply) = conn.call(&r.line)?;
        reply_meta(reply).map_err(|e| format!("warm-up {}: {e}", r.key))?;
    }
    Ok(SetUp {
        data,
        files,
        server,
        wal_dir,
        log,
        setup_s: t0.elapsed().as_secs_f64(),
    })
}

/// The requests that bring a fresh server to the state the measured phase
/// assumes: plans cached, code paged in, and for the cache-path workloads
/// the lattices they refine.
fn warm_up_requests(cfg: &Config) -> Vec<Request> {
    match cfg.workload {
        Workload::OptimizerCold => inputs::optimizer_cold(cfg.seed),
        Workload::WarmRefine => {
            let mut v = vec![inputs::warm_up_request()];
            v.extend(inputs::warm_palette(cfg.seed));
            v
        }
        // One fixed session outside every measured stream: it only has to
        // page the code in, and a seeded one would make `setup_s` follow
        // the cost of whichever family the seed draws.
        Workload::ExploreSession => inputs::explore_session(inputs::DEFAULT_SEED, u64::MAX >> 1),
        Workload::AppendChurn => inputs::append_palette(),
    }
}

/// One timed query.
#[derive(Debug)]
pub struct Sample {
    /// Index into [`Pass::requests`].
    pub req: usize,
    pub client: usize,
    pub ms: f64,
    /// `Err` = error envelope, timeout, lost connection or malformed reply.
    pub meta: Result<ReplyMeta, String>,
}

/// Everything the measured phase observed.
#[derive(Default)]
pub struct Pass {
    /// Every distinct request sent.
    pub requests: Vec<Request>,
    pub samples: Vec<Sample>,
    /// `(request index, reply)` pairs to check against the oracle: the
    /// first reply to each distinct request on each connection.
    pub kept: Vec<(usize, String)>,
    /// Wall seconds each client's loop ran, first send to last reply.
    pub client_wall_s: Vec<f64>,
    /// Server user+sys CPU seconds over the measured phase.
    pub cpu_s: f64,
    /// Server `VmRSS` sampled through the measured phase, MB.
    pub rss_mb: Vec<f64>,
    /// Server `VmHWM` at the end of the measured phase, MB.
    pub peak_rss_mb: f64,
    /// `metrics` scrape deltas over the measured phase.
    pub counters: BTreeMap<String, f64>,
    /// `status` at the end of the measured phase.
    pub status: BTreeMap<String, f64>,
    /// `append_churn`: acknowledged `:append` round trips, ms.
    pub append_ms: Vec<f64>,
    /// `append_churn`: appends that were not acknowledged.
    pub append_failures: Vec<String>,
    /// `append_churn`: bytes in the WAL directory after `kill -9`.
    pub durable_bytes: u64,
    /// `append_churn`: spawn-to-listening seconds of the restarted server.
    pub restart_s: f64,
    /// `append_churn`: epoch the restarted server reports.
    pub restart_epoch: u64,
    /// `append_churn`: the palette re-asked of the restarted server —
    /// verified, not part of the timed statistics.
    pub restart_samples: Vec<Sample>,
}

#[derive(Default)]
struct ClientLog {
    samples: Vec<Sample>,
    kept: Vec<(usize, String)>,
    wall_s: f64,
}

impl Pass {
    fn absorb(&mut self, log: ClientLog) {
        self.samples.extend(log.samples);
        self.kept.extend(log.kept);
        self.client_wall_s.push(log.wall_s);
    }
}

/// Runs whole rounds on `conn` until `deadline`. `round(r)` names the
/// requests of round `r` as `(index, line)`. The first good reply to each
/// distinct request is kept when `keep` is set.
fn client_loop(
    conn: &mut Conn,
    client: usize,
    deadline: Instant,
    keep: bool,
    mut round: impl FnMut(u64) -> Vec<(usize, String)>,
) -> ClientLog {
    let mut log = ClientLog::default();
    let mut seen = HashSet::new();
    let start = Instant::now();
    for r in 0.. {
        for (req, line) in round(r) {
            match conn.call(&line) {
                Ok((ms, reply)) => {
                    let meta = reply_meta(reply);
                    if keep && meta.is_ok() && seen.insert(req) {
                        log.kept.push((req, reply.to_string()));
                    }
                    log.samples.push(Sample {
                        req,
                        client,
                        ms,
                        meta,
                    });
                }
                Err(e) => {
                    // The stream is gone; nothing more can be attributed.
                    log.samples.push(Sample {
                        req,
                        client,
                        ms: 0.0,
                        meta: Err(e),
                    });
                    log.wall_s = start.elapsed().as_secs_f64();
                    return log;
                }
            }
        }
        log.wall_s = start.elapsed().as_secs_f64();
        if Instant::now() >= deadline {
            break;
        }
    }
    log
}

fn palette_round(palette: &[Request], order: &[usize]) -> Vec<(usize, String)> {
    order
        .iter()
        .map(|&i| (i, palette[i].line.clone()))
        .collect()
}

/// Runs the measured phase of `cfg.workload` against `up.server` for
/// `seconds` (`cfg.seconds` for the end-to-end run, less for the traced
/// run's reference pass).
pub fn measure(cfg: &Config, up: &mut SetUp, seconds: f64) -> Result<Pass, String> {
    let mut control = Conn::connect(&up.server.addr)?;
    let before = control.scrape()?;
    let cpu0 = up.server.cpu_seconds().map_err(|e| e.to_string())?;
    let sampler = RssSampler::start(up.server.pid());
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let addr = up.server.addr.clone();
    let mut pass = Pass::default();

    match cfg.workload {
        Workload::OptimizerCold => {
            pass.requests = inputs::optimizer_cold(cfg.seed);
            let order: Vec<usize> = (0..pass.requests.len()).collect();
            let mut conn = Conn::connect(&addr)?;
            let log = client_loop(&mut conn, 0, deadline, true, |_| {
                palette_round(&pass.requests, &order)
            });
            pass.absorb(log);
        }
        Workload::WarmRefine => {
            pass.requests = inputs::warm_palette(cfg.seed);
            let palette = &pass.requests;
            let barrier = Barrier::new(2);
            let logs = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..2)
                    .map(|client| {
                        let (addr, barrier) = (&addr, &barrier);
                        scope.spawn(move || -> Result<ClientLog, String> {
                            let conn = Conn::connect(addr);
                            barrier.wait();
                            let order = inputs::client_order(cfg.seed, client, palette.len());
                            Ok(client_loop(&mut conn?, client, deadline, true, |_| {
                                palette_round(palette, &order)
                            }))
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("client thread panicked"))
                    .collect::<Vec<_>>()
            });
            for log in logs {
                pass.absorb(log?);
            }
        }
        Workload::ExploreSession => {
            let mut conn = Conn::connect(&addr)?;
            let requests = &mut pass.requests;
            let log = client_loop(&mut conn, 0, deadline, true, |r| {
                let first = requests.len();
                requests.extend(inputs::explore_session(cfg.seed, r));
                requests[first..]
                    .iter()
                    .enumerate()
                    .map(|(i, q)| (first + i, q.line.clone()))
                    .collect()
            });
            pass.absorb(log);
        }
        Workload::AppendChurn => {
            pass.requests = inputs::append_palette();
            let palette = &pass.requests;
            let deltas = &up.files.deltas;
            let barrier = Barrier::new(2);
            let (reader, writer) = std::thread::scope(|scope| {
                let reader = scope.spawn(|| -> Result<ClientLog, String> {
                    let conn = Conn::connect(&addr);
                    barrier.wait();
                    let order = inputs::client_order(cfg.seed, 0, palette.len());
                    // Answers change with every epoch, so no reply is kept:
                    // the restart below re-asks the palette at the final one.
                    Ok(client_loop(&mut conn?, 0, deadline, false, |_| {
                        palette_round(palette, &order)
                    }))
                });
                let writer = scope.spawn(|| -> Result<(Vec<f64>, Vec<String>), String> {
                    let conn = Conn::connect(&addr);
                    barrier.wait();
                    let mut conn = conn?;
                    let (mut acks, mut failures) = (Vec::new(), Vec::new());
                    for (i, delta) in deltas.iter().enumerate() {
                        if Instant::now() >= deadline {
                            break;
                        }
                        let ack = conn
                            .call(&format!(":append {}", delta.display()))
                            .and_then(|(ms, reply)| Ok((ms, append_epoch(reply)?)));
                        match ack {
                            Ok((ms, epoch)) if epoch == i as u64 + 1 => acks.push(ms),
                            Ok((_, epoch)) => {
                                failures.push(format!("append {i} acknowledged epoch {epoch}"))
                            }
                            Err(e) => failures.push(format!("append {i}: {e}")),
                        }
                        if !failures.is_empty() {
                            break; // later epochs would all be off by one
                        }
                    }
                    Ok((acks, failures))
                });
                (
                    reader.join().expect("reader thread panicked"),
                    writer.join().expect("writer thread panicked"),
                )
            });
            pass.absorb(reader?);
            (pass.append_ms, pass.append_failures) = writer?;
        }
    }

    pass.rss_mb = sampler.finish();
    pass.cpu_s = up.server.cpu_seconds().map_err(|e| e.to_string())? - cpu0;
    pass.peak_rss_mb = up.server.peak_rss_mb().map_err(|e| e.to_string())?;
    let after = control.scrape()?;
    pass.counters = after
        .iter()
        .map(|(name, v)| (name.clone(), v - before.get(name).copied().unwrap_or(0.0)))
        .collect();
    pass.status = control.status()?;
    drop(control);

    if cfg.workload == Workload::AppendChurn {
        crash_and_restart(cfg, up, &mut pass)?;
    }
    Ok(pass)
}

/// The durability check: `kill -9`, restart on the same WAL directory, and
/// re-ask the palette. The replies are kept for the oracle, which checks
/// them against base + every acknowledged delta.
fn crash_and_restart(cfg: &Config, up: &mut SetUp, pass: &mut Pass) -> Result<(), String> {
    let wal_dir = up.wal_dir.clone().expect("append_churn runs durable");
    up.server.kill();
    pass.durable_bytes =
        dir_bytes(&wal_dir).map_err(|e| format!("read {}: {e}", wal_dir.display()))?;
    up.server = Server::spawn(
        &cfg.cfq,
        &up.files.data,
        &up.files.catalog,
        Some(&wal_dir),
        &up.log.with_extension("restart.log"),
    )
    .map_err(|e| format!("restart: {e}"))?;
    pass.restart_s = up.server.boot_s;
    let mut conn = Conn::connect(&up.server.addr)?;
    pass.restart_epoch = conn.status()?.get("epoch").copied().unwrap_or(-1.0) as u64;
    for (i, r) in pass.requests.iter().enumerate() {
        let sample = match conn.call(&r.line) {
            Ok((ms, reply)) => {
                let meta = reply_meta(reply);
                if meta.is_ok() {
                    pass.kept.push((i, reply.to_string()));
                }
                Sample {
                    req: i,
                    client: RESTART_CONN,
                    ms,
                    meta,
                }
            }
            Err(e) => Sample {
                req: i,
                client: RESTART_CONN,
                ms: 0.0,
                meta: Err(e),
            },
        };
        pass.restart_samples.push(sample);
    }
    Ok(())
}

/// `Sample::client` of the connection to the restarted server (0 and 1
/// are the measured phase's).
const RESTART_CONN: usize = 2;

fn dir_bytes(dir: &Path) -> std::io::Result<u64> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir)? {
        let meta = entry?.metadata()?;
        if meta.is_file() {
            total += meta.len();
        }
    }
    Ok(total)
}
