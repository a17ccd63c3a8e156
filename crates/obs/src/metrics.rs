//! Atomic metrics with Prometheus text-format export.
//!
//! A [`Registry`] owns named metric families — [`Counter`]s, [`Gauge`]s
//! and [`Histogram`]s, optionally carrying label sets — and renders them
//! in the Prometheus exposition format (`# HELP` / `# TYPE` headers, one
//! sample per line). Handles are `Arc`s over atomics: recording is a
//! single `fetch_add` (histograms add one CAS for the sum), so handles
//! are safe to hit from every connection thread of a server.
//!
//! Histograms additionally render derived `<name>_p50/_p95/_p99` gauge
//! families (linear interpolation inside the owning bucket) so latency
//! percentiles are directly greppable by scrapes and CI.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds 1.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Overwrites the value. Intended for counters mirrored from another
    /// monotonic source (e.g. the engine's cache counters synced at
    /// scrape time) — not for regular recording.
    pub fn store(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge: a value that can go up and down.
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// Sets the value.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds `delta` (may be negative).
    pub fn add(&self, delta: i64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A fixed-bucket histogram of `f64` observations (cumulative bucket
/// counts at render time, Prometheus-style `le` upper bounds).
#[derive(Debug)]
pub struct Histogram {
    /// Ascending finite upper bounds; an implicit `+Inf` bucket follows.
    bounds: Vec<f64>,
    /// Per-bucket (non-cumulative) observation counts; last is `+Inf`.
    counts: Vec<AtomicU64>,
    /// Sum of observations, stored as `f64` bits.
    sum_bits: AtomicU64,
}

/// Default latency buckets in seconds: 100us .. ~52s, doubling.
pub fn latency_buckets() -> Vec<f64> {
    (0..20).map(|i| 1e-4 * (1u64 << i) as f64).collect()
}

/// Buckets for short waits (the scheduler's admission queue) in seconds:
/// 10us .. ~5s, doubling. Finer at the bottom than [`latency_buckets`]
/// because a healthy scheduler wait is sub-millisecond.
pub fn wait_buckets() -> Vec<f64> {
    (0..20).map(|i| 1e-5 * (1u64 << i) as f64).collect()
}

impl Histogram {
    fn new(bounds: Vec<f64>) -> Self {
        assert!(!bounds.is_empty(), "a histogram needs at least one finite bucket bound");
        debug_assert!(bounds.windows(2).all(|w| w[0] < w[1]));
        let counts = (0..bounds.len() + 1).map(|_| AtomicU64::new(0)).collect();
        Histogram { bounds, counts, sum_bits: AtomicU64::new(0f64.to_bits()) }
    }

    /// Records one observation.
    pub fn observe(&self, v: f64) {
        let i = self.bounds.iter().position(|&ub| v <= ub).unwrap_or(self.bounds.len());
        self.counts[i].fetch_add(1, Ordering::Relaxed);
        let mut cur = self.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + v).to_bits();
            match self.sum_bits.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(now) => cur = now,
            }
        }
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.counts.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }

    /// Sum of observations.
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.sum_bits.load(Ordering::Relaxed))
    }

    /// Estimated `q`-quantile (`0 < q <= 1`) by linear interpolation
    /// inside the owning bucket; `0.0` with no observations. Values in
    /// the `+Inf` bucket clamp to the largest finite bound.
    pub fn quantile(&self, q: f64) -> f64 {
        let counts: Vec<u64> = self.counts.iter().map(|c| c.load(Ordering::Relaxed)).collect();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let rank = (q * total as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &n) in counts.iter().enumerate() {
            if n == 0 {
                continue;
            }
            if seen + n >= rank {
                let lo = if i == 0 { 0.0 } else { self.bounds[i - 1] };
                let hi = self.bounds.get(i).copied().unwrap_or(*self.bounds.last().unwrap());
                let within = (rank - seen) as f64 / n as f64;
                return lo + (hi - lo) * within;
            }
            seen += n;
        }
        *self.bounds.last().unwrap()
    }
}

enum Series {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

impl Series {
    fn kind(&self) -> &'static str {
        match self {
            Series::Counter(_) => "counter",
            Series::Gauge(_) => "gauge",
            Series::Histogram(_) => "histogram",
        }
    }
}

struct Family {
    help: String,
    /// Keyed by the rendered label set (`""` for an unlabelled series,
    /// `{k="v",...}` otherwise), so render output is deterministic.
    series: BTreeMap<String, Series>,
}

/// A collection of named metric families. Create one per process (or per
/// test) and share handles freely.
#[derive(Default)]
pub struct Registry {
    families: Mutex<BTreeMap<String, Family>>,
}

fn render_labels(labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let mut out = String::from("{");
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        // Escape per the exposition format.
        let v = v.replace('\\', "\\\\").replace('"', "\\\"").replace('\n', "\\n");
        out.push_str(&format!("{k}=\"{v}\""));
    }
    out.push('}');
    out
}

fn fmt_f64(v: f64) -> String {
    if v == f64::INFINITY {
        "+Inf".to_string()
    } else {
        // Rust's default float Display is the shortest round-trip form,
        // which is exactly what the exposition format wants.
        format!("{v}")
    }
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    fn series(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        make: impl FnOnce() -> Series,
    ) -> Series {
        let mut families = self.families.lock().unwrap_or_else(|e| e.into_inner());
        let family = families
            .entry(name.to_string())
            .or_insert_with(|| Family { help: help.to_string(), series: BTreeMap::new() });
        let key = render_labels(labels);
        let s = family.series.entry(key).or_insert_with(make);
        match s {
            Series::Counter(c) => Series::Counter(Arc::clone(c)),
            Series::Gauge(g) => Series::Gauge(Arc::clone(g)),
            Series::Histogram(h) => Series::Histogram(Arc::clone(h)),
        }
    }

    /// Gets or creates the unlabelled counter `name`.
    pub fn counter(&self, name: &str, help: &str) -> Arc<Counter> {
        self.counter_with(name, help, &[])
    }

    /// Gets or creates the counter `name` with a label set.
    /// Panics if `name` is already registered as a different metric kind.
    pub fn counter_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        match self.series(name, help, labels, || Series::Counter(Arc::new(Counter::default()))) {
            Series::Counter(c) => c,
            other => panic!("metric `{name}` already registered as a {}", other.kind()),
        }
    }

    /// Gets or creates the unlabelled gauge `name`.
    pub fn gauge(&self, name: &str, help: &str) -> Arc<Gauge> {
        match self.series(name, help, &[], || Series::Gauge(Arc::new(Gauge::default()))) {
            Series::Gauge(g) => g,
            other => panic!("metric `{name}` already registered as a {}", other.kind()),
        }
    }

    /// Gets or creates the histogram `name` over `bounds` (ascending
    /// finite upper bounds; `+Inf` is implicit).
    pub fn histogram(&self, name: &str, help: &str, bounds: &[f64]) -> Arc<Histogram> {
        self.histogram_with(name, help, &[], bounds)
    }

    /// Gets or creates the histogram `name` with a label set.
    pub fn histogram_with(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        bounds: &[f64],
    ) -> Arc<Histogram> {
        match self.series(name, help, labels, || Series::Histogram(Arc::new(Histogram::new(bounds.to_vec())))) {
            Series::Histogram(h) => h,
            other => panic!("metric `{name}` already registered as a {}", other.kind()),
        }
    }

    /// Renders every family in the Prometheus text exposition format.
    pub fn render(&self) -> String {
        let families = self.families.lock().unwrap_or_else(|e| e.into_inner());
        let mut out = String::new();
        let mut derived = String::new();
        for (name, family) in families.iter() {
            let kind = family.series.values().next().map(|s| s.kind()).unwrap_or("untyped");
            out.push_str(&format!("# HELP {name} {}\n", family.help));
            out.push_str(&format!("# TYPE {name} {kind}\n"));
            let mut histograms = Vec::new();
            for (labels, series) in &family.series {
                match series {
                    Series::Counter(c) => {
                        out.push_str(&format!("{name}{labels} {}\n", c.get()));
                    }
                    Series::Gauge(g) => {
                        out.push_str(&format!("{name}{labels} {}\n", g.get()));
                    }
                    Series::Histogram(h) => {
                        // `{a="b"}` + le -> `{a="b",le="…"}`.
                        let own = labels.strip_prefix('{').and_then(|l| l.strip_suffix('}'));
                        let own = own.map_or(String::new(), |l| format!("{l},"));
                        let mut cumulative = 0u64;
                        for (i, ub) in h
                            .bounds
                            .iter()
                            .copied()
                            .chain(std::iter::once(f64::INFINITY))
                            .enumerate()
                        {
                            cumulative += h.counts[i].load(Ordering::Relaxed);
                            out.push_str(&format!(
                                "{name}_bucket{{{own}le=\"{}\"}} {cumulative}\n",
                                fmt_f64(ub)
                            ));
                        }
                        out.push_str(&format!("{name}_sum{labels} {}\n", fmt_f64(h.sum())));
                        out.push_str(&format!("{name}_count{labels} {}\n", h.count()));
                        histograms.push((labels, h));
                    }
                }
            }
            // One derived gauge family per quantile, a sample per series.
            if !histograms.is_empty() {
                for (suffix, q) in [("p50", 0.5), ("p95", 0.95), ("p99", 0.99)] {
                    derived.push_str(&format!(
                        "# HELP {name}_{suffix} {q}-quantile of {name}.\n\
                         # TYPE {name}_{suffix} gauge\n"
                    ));
                    for (labels, h) in &histograms {
                        derived.push_str(&format!(
                            "{name}_{suffix}{labels} {}\n",
                            fmt_f64(h.quantile(q))
                        ));
                    }
                }
            }
        }
        out.push_str(&derived);
        out
    }
}

/// The process-wide default registry (what `cfq serve` exports when not
/// given a dedicated one; tests construct their own [`Registry`] to stay
/// isolated from parallel tests).
pub fn global() -> &'static Registry {
    static GLOBAL: std::sync::OnceLock<Registry> = std::sync::OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_record() {
        let r = Registry::new();
        let c = r.counter("cfq_queries_total", "Queries served.");
        c.inc();
        c.add(2);
        assert_eq!(c.get(), 3);
        // Same name and labels → same handle.
        assert_eq!(r.counter("cfq_queries_total", "Queries served.").get(), 3);

        let g = r.gauge("cfq_connections_open", "Open connections.");
        g.add(2);
        g.add(-1);
        assert_eq!(g.get(), 1);
        g.set(7);
        assert_eq!(g.get(), 7);
    }

    #[test]
    fn labelled_counters_are_distinct_series() {
        let r = Registry::new();
        let full = r.counter_with("cfq_q", "by strategy", &[("strategy", "full")]);
        let cap1 = r.counter_with("cfq_q", "by strategy", &[("strategy", "cap1")]);
        full.inc();
        full.inc();
        cap1.inc();
        let text = r.render();
        assert!(text.contains("cfq_q{strategy=\"full\"} 2"), "{text}");
        assert!(text.contains("cfq_q{strategy=\"cap1\"} 1"), "{text}");
    }

    #[test]
    fn histogram_buckets_sum_and_quantiles() {
        let h = Histogram::new(vec![0.001, 0.01, 0.1, 1.0]);
        for _ in 0..90 {
            h.observe(0.0005); // first bucket
        }
        for _ in 0..9 {
            h.observe(0.05); // third bucket
        }
        h.observe(10.0); // +Inf bucket
        assert_eq!(h.count(), 100);
        assert!((h.sum() - (90.0 * 0.0005 + 9.0 * 0.05 + 10.0)).abs() < 1e-9);
        assert!(h.quantile(0.5) <= 0.001);
        let p95 = h.quantile(0.95);
        assert!(p95 > 0.01 && p95 <= 0.1, "{p95}");
        // +Inf observations clamp to the largest finite bound.
        assert_eq!(h.quantile(1.0), 1.0);
    }

    #[test]
    fn render_is_prometheus_text_format() {
        let r = Registry::new();
        r.counter("cfq_queries_total", "Queries served.").add(2);
        r.gauge("cfq_epoch", "Engine epoch.").set(1);
        let h = r.histogram("cfq_query_seconds", "Query latency.", &[0.01, 0.1]);
        h.observe(0.005);
        h.observe(0.05);
        let text = r.render();
        for needle in [
            "# HELP cfq_queries_total Queries served.",
            "# TYPE cfq_queries_total counter",
            "cfq_queries_total 2",
            "# TYPE cfq_epoch gauge",
            "cfq_epoch 1",
            "# TYPE cfq_query_seconds histogram",
            "cfq_query_seconds_bucket{le=\"0.01\"} 1",
            "cfq_query_seconds_bucket{le=\"0.1\"} 2",
            "cfq_query_seconds_bucket{le=\"+Inf\"} 2",
            "cfq_query_seconds_count 2",
            "# TYPE cfq_query_seconds_p50 gauge",
            "cfq_query_seconds_p95",
            "cfq_query_seconds_p99",
        ] {
            assert!(text.contains(needle), "missing `{needle}` in:\n{text}");
        }
        // Structural sanity: every non-comment line is `name[labels] value`.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let (name, value) = line.rsplit_once(' ').expect("sample line");
            assert!(!name.is_empty());
            assert!(value == "+Inf" || value.parse::<f64>().is_ok(), "{line}");
        }
    }

    #[test]
    fn labelled_histograms_render_per_series() {
        let r = Registry::new();
        for (stage, v) in [("plan", 0.002), ("pairs", 0.5)] {
            r.histogram_with("h_seconds", "help", &[("stage", stage)], &[0.01, 1.0]).observe(v);
        }
        let text = r.render();
        for needle in [
            "h_seconds_bucket{stage=\"plan\",le=\"0.01\"} 1",
            "h_seconds_bucket{stage=\"pairs\",le=\"0.01\"} 0",
            "h_seconds_bucket{stage=\"pairs\",le=\"+Inf\"} 1",
            "h_seconds_sum{stage=\"pairs\"} 0.5",
            "h_seconds_count{stage=\"plan\"} 1",
            "h_seconds_p50{stage=\"plan\"}",
        ] {
            assert!(text.contains(needle), "missing `{needle}` in:\n{text}");
        }
        assert_eq!(text.matches("# TYPE h_seconds_p50 gauge").count(), 1, "{text}");
        assert_eq!(text.matches("# TYPE h_seconds histogram").count(), 1, "{text}");
    }

    #[test]
    fn label_values_are_escaped() {
        let r = Registry::new();
        r.counter_with("c", "h", &[("q", "a\"b\nc")]).inc();
        let text = r.render();
        assert!(text.contains("c{q=\"a\\\"b\\nc\"} 1"), "{text}");
    }

    #[test]
    fn latency_buckets_are_ascending() {
        let b = latency_buckets();
        assert_eq!(b.len(), 20);
        assert!(b.windows(2).all(|w| w[0] < w[1]));
        assert!((b[0] - 1e-4).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_conflict_panics() {
        let r = Registry::new();
        r.counter("m", "h");
        r.gauge("m", "h");
    }
}
