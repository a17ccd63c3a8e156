//! The `cfq serve` child process: spawn with default flags on an ephemeral
//! port, find the port in its log, read its CPU and memory from `/proc`,
//! and make sure it is gone on every exit path.

use std::fs::File;
use std::io;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long a server may take to print its `listening on` line.
const BOOT_TIMEOUT: Duration = Duration::from_secs(60);

/// A running `cfq serve`. Dropping it kills the child and waits for it,
/// so a panic or an early return never leaves a server behind.
pub struct Server {
    child: Child,
    /// `host:port` parsed from the `listening on` line.
    pub addr: String,
    /// Seconds from spawn to the `listening on` line.
    pub boot_s: f64,
}

impl Server {
    /// Spawns `cfq serve --data .. --catalog .. --listen 127.0.0.1:0` —
    /// no `--backend/--threads/--shards/--trim`, so the benchmark measures
    /// what a user of the defaults gets — plus `--wal-dir` when durable.
    /// Output goes to `log` (a file, so a full pipe can never stall the
    /// server); the port is polled out of it.
    pub fn spawn(
        cfq: &Path,
        data: &Path,
        catalog: &Path,
        wal_dir: Option<&Path>,
        log: &Path,
    ) -> io::Result<Server> {
        let out = File::create(log)?;
        let mut cmd = Command::new(cfq);
        cmd.arg("serve")
            .arg("--data")
            .arg(data)
            .arg("--catalog")
            .arg(catalog)
            .args(["--listen", "127.0.0.1:0"]);
        if let Some(dir) = wal_dir {
            cmd.arg("--wal-dir").arg(dir);
        }
        let t0 = Instant::now();
        let child = cmd
            .stdin(Stdio::null())
            .stdout(out.try_clone()?)
            .stderr(out)
            .spawn()
            .map_err(|e| io::Error::new(e.kind(), format!("spawn {}: {e}", cfq.display())))?;
        // From here on `server` owns the child: an error below drops it,
        // which kills it.
        let mut server = Server {
            child,
            addr: String::new(),
            boot_s: 0.0,
        };
        loop {
            let text = std::fs::read_to_string(log)?;
            if let Some(addr) = text.lines().find_map(|l| l.strip_prefix("listening on ")) {
                server.addr = addr.trim().to_string();
                server.boot_s = t0.elapsed().as_secs_f64();
                return Ok(server);
            }
            if let Some(status) = server.child.try_wait()? {
                return Err(io::Error::other(format!(
                    "cfq serve exited ({status}) before listening: {}",
                    text.trim()
                )));
            }
            if t0.elapsed() > BOOT_TIMEOUT {
                return Err(io::Error::other("cfq serve did not listen within 60 s"));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    fn proc_file(&self, name: &str) -> io::Result<String> {
        std::fs::read_to_string(PathBuf::from(format!("/proc/{}/{name}", self.child.id())))
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// User + system CPU seconds the server has used so far
    /// (`/proc/<pid>/stat` fields 14 and 15, at the Linux default of 100
    /// clock ticks per second).
    pub fn cpu_seconds(&self) -> io::Result<f64> {
        let stat = self.proc_file("stat")?;
        // The command name (field 2) is parenthesised and may hold spaces;
        // fields are counted from after its closing parenthesis.
        let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
        let mut fields = rest.split_ascii_whitespace().skip(11);
        let mut ticks = || fields.next().and_then(|f| f.parse::<u64>().ok());
        match (ticks(), ticks()) {
            (Some(utime), Some(stime)) => Ok((utime + stime) as f64 / 100.0),
            _ => Err(io::Error::other(format!(
                "unreadable /proc stat line: {stat}"
            ))),
        }
    }

    /// Peak resident set of the server so far (`VmHWM`), in MB.
    pub fn peak_rss_mb(&self) -> io::Result<f64> {
        status_mb(self.pid(), "VmHWM:")
    }

    /// `kill -9` and reap. Safe to call twice.
    pub fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// A `kB` field of `/proc/<pid>/status`, in MB.
fn status_mb(pid: u32, field: &str) -> io::Result<f64> {
    std::fs::read_to_string(format!("/proc/{pid}/status"))?
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| io::Error::other(format!("no {field} in /proc/{pid}/status")))
}

/// Samples a process's resident set (`VmRSS`) twenty times a second from
/// its own thread. Unlike the peak (`VmHWM`), an order statistic of the
/// samples does not hinge on whether a snapshot buffer and a large reply
/// happened to coincide.
pub struct RssSampler {
    stop: Arc<AtomicBool>,
    handle: std::thread::JoinHandle<Vec<f64>>,
}

impl RssSampler {
    pub fn start(pid: u32) -> RssSampler {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            let mut samples = Vec::new();
            // A process that is gone ends the loop too, so an error path
            // that never calls `finish` still lets the thread end.
            while !flag.load(Ordering::SeqCst) {
                match status_mb(pid, "VmRSS:") {
                    Ok(mb) => samples.push(mb),
                    Err(_) => break,
                }
                std::thread::sleep(Duration::from_millis(50));
            }
            samples
        });
        RssSampler { stop, handle }
    }

    /// Stops the thread and returns the samples, MB.
    pub fn finish(self) -> Vec<f64> {
        self.stop.store(true, Ordering::SeqCst);
        self.handle
            .join()
            .expect("the sampler thread does not panic")
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.kill();
    }
}
