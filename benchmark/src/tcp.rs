//! The TCP client side: one closed-loop connection, the cheap per-reply
//! bookkeeping done between requests, and the control-plane calls.

use cfq_engine::json::{self, Json};
use cfq_types::FxHasher;
use std::collections::BTreeMap;
use std::hash::Hasher;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// A reply that does not arrive within this long counts as failed.
const REPLY_TIMEOUT: Duration = Duration::from_secs(30);

/// One line-protocol connection. The loop is closed: `call` sends a line
/// and waits for the reply line, as an analyst or a script would.
pub struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    request: Vec<u8>,
    reply: String,
}

impl Conn {
    pub fn connect(addr: &str) -> Result<Conn, String> {
        let writer = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        writer
            .set_nodelay(true)
            .map_err(|e| format!("set_nodelay: {e}"))?;
        writer
            .set_read_timeout(Some(REPLY_TIMEOUT))
            .map_err(|e| format!("set_read_timeout: {e}"))?;
        let reader = BufReader::with_capacity(
            1 << 16,
            writer
                .try_clone()
                .map_err(|e| format!("clone socket: {e}"))?,
        );
        Ok(Conn {
            writer,
            reader,
            request: Vec::new(),
            reply: String::new(),
        })
    }

    /// Sends `line` and returns the round-trip time in milliseconds and
    /// the reply without its newline. The timer stops when the reply's
    /// newline has arrived; nothing is parsed inside the timed section.
    pub fn call(&mut self, line: &str) -> Result<(f64, &str), String> {
        self.reply.clear();
        self.request.clear();
        self.request.extend_from_slice(line.as_bytes());
        self.request.push(b'\n');
        let start = Instant::now();
        self.writer
            .write_all(&self.request)
            .map_err(|e| format!("write: {e}"))?;
        let n = self
            .reader
            .read_line(&mut self.reply)
            .map_err(|e| format!("read: {e}"))?;
        let ms = start.elapsed().as_secs_f64() * 1e3;
        if n == 0 || !self.reply.ends_with('\n') {
            return Err("the server closed the connection".into());
        }
        Ok((ms, self.reply.trim_end()))
    }

    /// A control command whose reply is `{"v":1,"result":{...}}`.
    fn control(&mut self, cmd: &str) -> Result<Json, String> {
        let (_, reply) = self.call(&format!("{{\"v\":1,\"cmd\":\"{cmd}\"}}"))?;
        let v = json::parse(reply).map_err(|e| format!("{cmd} reply is not JSON: {e}"))?;
        match v {
            Json::Obj(fields) => fields
                .into_iter()
                .find_map(|(k, v)| (k == "result").then_some(v))
                .ok_or_else(|| format!("{cmd} reply has no result: {reply}")),
            _ => Err(format!("{cmd} reply is not an object")),
        }
    }

    /// The `status` envelope's numeric fields (`epoch`, `cache_entries`,
    /// `cache_bytes`, `wal_records`, ...).
    pub fn status(&mut self) -> Result<BTreeMap<String, f64>, String> {
        match self.control("status")? {
            Json::Obj(fields) => Ok(fields
                .into_iter()
                .filter_map(|(k, v)| v.as_f64().map(|n| (k, n)))
                .collect()),
            _ => Err("status result is not an object".into()),
        }
    }

    /// Every unlabelled sample of a `metrics` scrape as `name -> value`.
    pub fn scrape(&mut self) -> Result<BTreeMap<String, f64>, String> {
        let result = self.control("metrics")?;
        let text = result
            .get("text")
            .and_then(Json::as_str)
            .ok_or_else(|| "metrics result has no text".to_string())?;
        Ok(text
            .lines()
            .filter(|l| !l.starts_with('#') && !l.contains('{'))
            .filter_map(|l| {
                let (name, value) = l.rsplit_once(' ')?;
                Some((name.to_string(), value.parse::<f64>().ok()?))
            })
            .collect())
    }
}

/// What the client notes about a query reply between two requests: the
/// short provenance tail parsed, the (possibly megabyte-long) answer only
/// hashed. Full parsing and the oracle run after the measured phase.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ReplyMeta {
    pub epoch: u64,
    pub db_scans: u64,
    /// Both lattices came from the cache (any provenance but a cold mine).
    pub both_hit: bool,
    pub plan_cached: bool,
    pub wait_us: u64,
    /// Hash of the answer fields (`pair_count`, `pairs`, `s_sets`,
    /// `t_sets`) as sent.
    pub answer_hash: u64,
    pub bytes: usize,
}

const RESULT_PREFIX: &str = "{\"v\":1,\"result\":{\"epoch\":";
const TAIL_KEY: &str = ",\"db_scans\":";

/// Splits a query reply into its metadata. An error envelope, or anything
/// that is not a query result, is an `Err` with the reason.
pub fn reply_meta(reply: &str) -> Result<ReplyMeta, String> {
    let Some(rest) = reply.strip_prefix(RESULT_PREFIX) else {
        let shown: String = reply.chars().take(300).collect();
        return Err(format!("not a query result: {shown}"));
    };
    let digits = rest.bytes().take_while(u8::is_ascii_digit).count();
    let epoch: u64 = rest[..digits]
        .parse()
        .map_err(|_| "reply has no epoch".to_string())?;
    // The tail is a few short fields; look for it from the end so the
    // search never walks the answer.
    let search_from = reply.len().saturating_sub(512);
    let tail_at = reply.as_bytes()[search_from..]
        .windows(TAIL_KEY.len())
        .rposition(|w| w == TAIL_KEY.as_bytes())
        .map(|i| search_from + i)
        .ok_or_else(|| "reply has no db_scans field".to_string())?;
    let answer = &reply.as_bytes()[RESULT_PREFIX.len() + digits..tail_at];
    // `,"db_scans":3,...,"wait_us":0}}` -> `{"db_scans":3,...,"wait_us":0}`
    let tail = format!("{{{}", &reply[tail_at + 1..reply.len() - 1]);
    let tail = json::parse(&tail).map_err(|e| format!("reply tail is not JSON: {e}"))?;
    let num = |key: &str| {
        tail.get(key)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("reply has no `{key}`"))
    };
    let hit = |key: &str| {
        tail.get(key)
            .and_then(Json::as_str)
            .map(|s| s != "freshly mined (cold)")
            .ok_or_else(|| format!("reply has no `{key}`"))
    };
    Ok(ReplyMeta {
        epoch,
        db_scans: num("db_scans")?,
        both_hit: hit("s_lattice")? && hit("t_lattice")?,
        plan_cached: tail
            .get("plan_cached")
            .and_then(Json::as_bool)
            .unwrap_or(false),
        wait_us: num("wait_us")?,
        answer_hash: answer_hash(answer),
        bytes: reply.len() + 1,
    })
}

/// Hash of a reply's answer bytes with the workspace's `FxHasher` (eight
/// bytes a step: cheap enough to run over a 1.5 MB reply between two
/// requests). The length goes in too, since the last word is zero-padded.
fn answer_hash(bytes: &[u8]) -> u64 {
    let mut h = FxHasher::default();
    h.write(bytes);
    h.write_usize(bytes.len());
    h.finish()
}

/// The epoch an `:append` acknowledgement names
/// (`appended N transactions: now epoch E with ...`).
pub fn append_epoch(reply: &str) -> Result<u64, String> {
    reply
        .split_once("now epoch ")
        .and_then(|(_, rest)| rest.split_whitespace().next())
        .and_then(|e| e.parse().ok())
        .ok_or_else(|| format!("not an append acknowledgement: {reply}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    const REPLY: &str = "{\"v\":1,\"result\":{\"epoch\":12,\"pair_count\":1,\"pairs\":[[0,0]],\
        \"s_sets\":[{\"items\":[1],\"support\":5}],\"t_sets\":[{\"items\":[2],\"support\":6}],\
        \"db_scans\":0,\"s_lattice\":\"cache hit (reused mined lattice)\",\
        \"t_lattice\":\"cache hit (FUP-upgraded at epoch swap)\",\"plan_cached\":true,\"wait_us\":3}}";

    #[test]
    fn meta_splits_answer_from_provenance() {
        let m = reply_meta(REPLY).unwrap();
        assert_eq!(
            (m.epoch, m.db_scans, m.both_hit, m.plan_cached, m.wait_us),
            (12, 0, true, true, 3)
        );
        // The hash covers the answer only: provenance and epoch may differ.
        let other = REPLY
            .replace("\"wait_us\":3", "\"wait_us\":99")
            .replace("\"epoch\":12", "\"epoch\":13")
            .replace("cache hit (reused mined lattice)", "freshly mined (cold)");
        let o = reply_meta(&other).unwrap();
        assert_eq!(o.answer_hash, m.answer_hash);
        assert!(!o.both_hit);
        let changed = REPLY.replace("\"support\":5", "\"support\":4");
        assert_ne!(reply_meta(&changed).unwrap().answer_hash, m.answer_hash);
    }

    #[test]
    fn errors_and_prose_are_not_results() {
        assert!(
            reply_meta("{\"v\":1,\"error\":{\"kind\":\"parse\",\"message\":\"bad\"}}").is_err()
        );
        assert!(reply_meta("error: no such file").is_err());
        assert_eq!(
            append_epoch(
                "appended 1000 transactions: now epoch 7 with 107000 transactions; 4 cached"
            )
            .unwrap(),
            7
        );
        assert!(append_epoch("error: no such file").is_err());
    }
}
