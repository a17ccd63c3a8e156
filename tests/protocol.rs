//! The serve/REPL protocol as one transcript through
//! [`Dispatcher::handle`]: a bare query cold then warm, every operator
//! `:command` on an ephemeral engine, every envelope command, and every
//! error kind `wire.rs` can answer with — compared byte for byte, timing
//! fields aside, with what the same lines drew from the binary of the
//! commit before the dispatcher moved into `cfq-engine`:
//!
//! ```text
//! cd <repo root>
//! <parent>/cfq repl --data tests/golden/protocol/tx.txt \
//!     --catalog tests/golden/protocol/catalog.txt \
//!     < tests/golden/protocol/transcript.in \
//!     | sed -e 1d -e 's/^cfq> //' > tests/golden/protocol/transcript.out
//! ```
//!
//! Re-record only with a parent's binary, never with the change's own —
//! unless the change moves a number the transcript prints on purpose: the
//! file was last re-recorded by the change that made level 1 a column
//! read, and differs from the recording before it only in scan counts
//! (`N db scans`, `"db_scans":N`, `N scans saved`, `cfq_db_scans_total`,
//! `cfq_scans_saved_total`) and in what `normalise` masks. Since then it
//! was edited by hand once, when cached lattices stopped storing level 1
//! and the batch window went: the two cache byte counts
//! (`"cache_bytes"`, `cfq_cache_bytes`) and the three
//! `cfq_scheduler_batched_total` lines are all that changed. It was edited
//! by hand a second time when the plan cache stopped keying plans by
//! strategy (one plan serves `full`, `cap1` and `apriori+`): EXPLAIN's
//! `plan:` line after `:strategy cap1`, the two `:stats` plan-cache counts
//! and `cfq_plan_hits_total` / `cfq_plan_misses_total` are all that changed.
//! One `#[test]`, so the process-wide mining registry the scrape ends
//! with counts this transcript and nothing else.

use cfq::datagen::io;
use cfq::engine::dispatch::PROTOCOL_HELP;
use cfq::engine::{json, Dispatcher, Engine, ServerMetrics, SessionPool};
use cfq_obs::SlowLog;
use std::sync::Arc;
use std::time::Duration;

const DIR: &str = "tests/golden/protocol";

/// Replaces what a clock decided: the seconds a prose summary ends with,
/// an envelope result's `wait_us`, and the value of every latency sample
/// in a scrape. The per-stage sample *counts* go too — since the one
/// query path, prose queries are staged like envelope ones, which the
/// parent's were not; the test asserts those counts on their own.
fn normalise(text: &str) -> String {
    let mut out = String::new();
    for line in text.lines() {
        let metric = line.split(['{', ' ']).next().unwrap_or_default();
        let clocked = metric.starts_with("cfq_request_stage_seconds")
            || metric.ends_with("_micros_total")
            || (metric.contains("_seconds") && !metric.ends_with("_count"));
        if let (true, Some((sample, _))) = (clocked, line.rsplit_once(' ')) {
            out.push_str(&format!("{sample} T"));
        } else if let (true, Some((answer, _))) =
            (line.contains(" valid pairs ("), line.rsplit_once(" | "))
        {
            out.push_str(&format!("{answer} | T"));
        } else if let (true, Some((answer, _))) =
            (line.starts_with("{\"v\":1,\"result\":{\"epoch\":"), line.rsplit_once("\"wait_us\":"))
        {
            out.push_str(&format!("{answer}\"wait_us\":T}}}}"));
        } else {
            out.push_str(line);
        }
        out.push('\n');
    }
    out
}

#[test]
fn transcript_replies_match_the_parent_binary_byte_for_byte() {
    let db = io::load_transactions(format!("{DIR}/tx.txt")).unwrap();
    let catalog = io::read_catalog(std::fs::File::open(format!("{DIR}/catalog.txt")).unwrap());
    let engine = Engine::new(db, catalog.unwrap()).unwrap();
    // What `cfq repl` builds: a pool of one and a 500 ms slow log.
    let mut dispatcher = Dispatcher::new(
        Arc::new(SessionPool::new(&engine, 1)),
        ServerMetrics::new(),
        Arc::new(SlowLog::new(Duration::from_millis(500), 64)),
    );
    let mut ask = |line: &str| {
        let mut reply = Vec::new();
        dispatcher.handle(line, &mut reply).unwrap().then(|| String::from_utf8(reply).unwrap())
    };

    let transcript = std::fs::read_to_string(format!("{DIR}/transcript.in")).unwrap();
    let mut got = String::new();
    let mut lines = transcript.lines();
    for line in lines.by_ref() {
        match ask(line) {
            Some(reply) => got.push_str(&reply),
            None => break,
        }
    }
    assert_eq!(lines.next(), Some("never reached"), "`:quit` ends the session");

    let want = std::fs::read_to_string(format!("{DIR}/transcript.out")).unwrap();
    let (got, want) = (normalise(&got), normalise(&want));
    for (n, (g, w)) in got.lines().zip(want.lines()).enumerate() {
        assert_eq!(g, w, "reply line {} differs from {DIR}/transcript.out", n + 1);
    }
    assert_eq!(got.lines().count(), want.lines().count(), "replies missing or left over");

    // Five queries were answered, three bare and two enveloped, and each
    // passed every engine stage; only the enveloped ones were encoded.
    let scrape = ask(":metrics").unwrap();
    for (stage, count) in
        [("plan", 5), ("s_lattice", 5), ("t_lattice", 5), ("pairs", 5), ("encode", 2), ("write", 0)]
    {
        let sample = format!("cfq_request_stage_seconds_count{{stage=\"{stage}\"}} {count}\n");
        assert!(scrape.contains(&sample), "missing `{sample}` in:\n{scrape}");
    }

    // The envelope `metrics` command wraps the very text `:metrics`
    // prints (nothing ran in between, so not a sample moved), and
    // `:help` prints the protocol summary `cfq serve --help` ends with.
    let wrapped = json::parse(&ask("{\"v\":1,\"cmd\":\"metrics\"}").unwrap()).unwrap();
    let text = wrapped.get("result").and_then(|r| r.get("text")).and_then(json::Json::as_str);
    assert_eq!(text.map(|t| format!("{t}\n")), Some(scrape));
    assert_eq!(ask(":help").unwrap(), format!("{PROTOCOL_HELP}\n"));
}
