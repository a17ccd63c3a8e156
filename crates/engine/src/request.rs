//! The serializable query API: [`QueryRequest`] in, [`QueryResponse`] out.
//!
//! [`QueryRequest`] is the single source of truth for *every* option a
//! query can carry — [`QueryBuilder`](crate::QueryBuilder) is a thin
//! fluent front-end that mutates one, `Session::execute` consumes one,
//! and the serve protocol's envelope `query` command parses one off the
//! wire as its `req`. The JSON codec is hand-rolled on [`crate::json`]
//! because the workspace is dependency-free.
//!
//! ```
//! use cfq_engine::QueryRequest;
//!
//! let req = QueryRequest::from_json(
//!     r#"{"query": "max(S.Price) <= 30 & min(T.Price) >= 40",
//!         "support": {"frac": 0.25}, "strategy": "full"}"#,
//! ).unwrap();
//! let round = QueryRequest::from_json(&req.to_json()).unwrap();
//! assert_eq!(req, round);
//! ```

use crate::json::{self, Json};
use crate::session::QueryOutcome;
use cfq_core::Strategy;
use cfq_types::{CfqError, ItemId, Itemset, Result};
use std::fmt::Write as _;
use std::io::{self, Write};

/// How the support threshold is specified.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum SupportSpec {
    /// Fraction of the epoch's transaction count (default 1%).
    Frac(f64),
    /// Absolute thresholds, S and T.
    Abs(u64, u64),
}

impl SupportSpec {
    /// Resolves to absolute `(s, t)` thresholds against a transaction
    /// count, rejecting fractions outside `(0, 1]` and absolute zeros.
    pub fn resolve(self, rows: usize) -> Result<(u64, u64)> {
        match self {
            SupportSpec::Frac(f) => {
                // Zero is rejected, not clamped: `0` silently meaning
                // "support 1 transaction" misled serve clients into
                // mining everything.
                if !(f > 0.0 && f <= 1.0) {
                    return Err(CfqError::Config(format!(
                        "support fraction {f} is outside (0, 1]"
                    )));
                }
                let s = ((f * rows as f64).ceil() as u64).max(1);
                Ok((s, s))
            }
            SupportSpec::Abs(s, t) => {
                if s == 0 || t == 0 {
                    return Err(CfqError::Config(
                        "absolute minimum support must be at least 1".into(),
                    ));
                }
                Ok((s, t))
            }
        }
    }
}

/// One query, fully specified. Field-for-field this is everything
/// [`QueryBuilder`](crate::QueryBuilder) can express; the builder is
/// sugar over this struct.
#[derive(Clone, Debug, PartialEq)]
pub struct QueryRequest {
    /// CFQ text, e.g. `"max(S.Price) <= 30 & min(T.Price) >= 40"`.
    pub query: String,
    /// Support threshold (default: 1% of transactions).
    pub support: SupportSpec,
    /// Restriction of the S domain (empty = all items).
    pub s_universe: Vec<ItemId>,
    /// Restriction of the T domain (empty = all items).
    pub t_universe: Vec<ItemId>,
    /// Lattice depth cap (0 = unbounded).
    pub max_level: usize,
    /// Pair materialization cap (`None` = materialize all).
    pub max_pairs: Option<usize>,
    /// Strategy-family flags (plan shape; the executor when
    /// `bypass_cache` is set).
    pub strategy: Strategy,
    /// Run as a one-shot optimizer execution, skipping the lattice cache
    /// and the scheduler's single-flight groups.
    pub bypass_cache: bool,
}

impl QueryRequest {
    /// A request with the same defaults as `Session::query`.
    pub fn new(query: impl Into<String>) -> QueryRequest {
        QueryRequest {
            query: query.into(),
            support: SupportSpec::Frac(0.01),
            s_universe: Vec::new(),
            t_universe: Vec::new(),
            max_level: 0,
            max_pairs: None,
            strategy: Strategy::default(),
            bypass_cache: false,
        }
    }

    /// Validates every field whose legal range is known without touching
    /// the database, returning a typed [`CfqError::Config`] naming the
    /// offending field. Both entry points call this — `Session::execute`
    /// before taking an admission slot, and the v1 wire envelope right
    /// after decoding `req` — so a bad request is rejected identically
    /// whether it arrives through the builder or off the wire. (Unknown
    /// strategy *names* and unknown fields never reach this point: they
    /// fail JSON decoding with a [`CfqError::Parse`], and the typed fields
    /// cannot hold an invalid variant.)
    pub fn validate(&self) -> Result<()> {
        if self.query.trim().is_empty() {
            return Err(CfqError::Config("`query` must be a non-empty CFQ conjunction".into()));
        }
        match self.support {
            SupportSpec::Frac(f) if !(f > 0.0 && f <= 1.0) => {
                return Err(CfqError::Config(format!(
                    "support fraction {f} is outside (0, 1]"
                )));
            }
            SupportSpec::Abs(s, t) if s == 0 || t == 0 => {
                return Err(CfqError::Config(
                    "absolute minimum support must be at least 1".into(),
                ));
            }
            _ => {}
        }
        Ok(())
    }

    /// Renders the request as one line of JSON. Named strategy families
    /// serialize as their name; hand-rolled flag sets as a bool object.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        out.push_str("\"query\":");
        json::write_escaped(&mut out, &self.query);
        match self.support {
            SupportSpec::Frac(f) => {
                let _ = write!(out, ",\"support\":{{\"frac\":{f}}}");
            }
            SupportSpec::Abs(s, t) => {
                let _ = write!(out, ",\"support\":{{\"s\":{s},\"t\":{t}}}");
            }
        }
        for (key, universe) in
            [("s_universe", &self.s_universe), ("t_universe", &self.t_universe)]
        {
            if !universe.is_empty() {
                let _ = write!(out, ",\"{key}\":[");
                for (i, item) in universe.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    let _ = write!(out, "{}", item.0);
                }
                out.push(']');
            }
        }
        if self.max_level != 0 {
            let _ = write!(out, ",\"max_level\":{}", self.max_level);
        }
        if let Some(n) = self.max_pairs {
            let _ = write!(out, ",\"max_pairs\":{n}");
        }
        match self.strategy.name() {
            Some(name) => {
                let _ = write!(out, ",\"strategy\":\"{name}\"");
            }
            None => {
                let _ = write!(
                    out,
                    ",\"strategy\":{{\"push_one_var\":{},\"push_two_var\":{},\"use_jkmax\":{},\"dovetail\":{}}}",
                    self.strategy.push_one_var,
                    self.strategy.push_two_var,
                    self.strategy.use_jkmax,
                    self.strategy.dovetail
                );
            }
        }
        if self.bypass_cache {
            out.push_str(",\"bypass_cache\":true");
        }
        out.push('}');
        out
    }

    /// Parses a request from JSON. Only `"query"` is required; every
    /// other field falls back to its [`QueryRequest::new`] default.
    /// Unknown and repeated keys are rejected so typos fail loudly
    /// instead of silently running with defaults, and a request that
    /// says two things never runs one of them.
    pub fn from_json(text: &str) -> Result<QueryRequest> {
        let v = json::parse(text)?;
        QueryRequest::from_value(&v)
    }

    /// Parses a request from an already-parsed JSON value — the entry
    /// point the v1 wire envelope uses for its embedded `req` object.
    pub fn from_value(v: &Json) -> Result<QueryRequest> {
        let fields = match v {
            Json::Obj(fields) => fields,
            _ => return Err(CfqError::Parse("request must be a JSON object".into())),
        };
        const KNOWN: &[&str] = &[
            "query", "support", "s_universe", "t_universe", "max_level", "max_pairs", "strategy",
            "bypass_cache",
        ];
        for (key, _) in fields {
            if !KNOWN.contains(&key.as_str()) {
                return Err(CfqError::Parse(format!("unknown request field `{key}`")));
            }
        }
        for object in [Some(v), v.get("support"), v.get("strategy")].into_iter().flatten() {
            if let Some(key) = object.duplicate_key() {
                return Err(CfqError::Parse(format!("request field `{key}` is given twice")));
            }
        }
        let query = v
            .get("query")
            .and_then(Json::as_str)
            .ok_or_else(|| CfqError::Parse("request needs a string `query` field".into()))?;
        let mut req = QueryRequest::new(query);

        if let Some(s) = v.get("support") {
            req.support = parse_support(s)?;
        }
        for (key, slot) in
            [("s_universe", &mut req.s_universe), ("t_universe", &mut req.t_universe)]
        {
            if let Some(u) = v.get(key) {
                let items = u
                    .as_arr()
                    .ok_or_else(|| CfqError::Parse(format!("`{key}` must be an array")))?;
                *slot = items
                    .iter()
                    .map(|j| {
                        j.as_u64()
                            .filter(|&n| n <= u32::MAX as u64)
                            .map(|n| ItemId(n as u32))
                            .ok_or_else(|| {
                                CfqError::Parse(format!("`{key}` entries must be item ids"))
                            })
                    })
                    .collect::<Result<Vec<_>>>()?;
            }
        }
        if let Some(n) = v.get("max_level") {
            req.max_level = n
                .as_u64()
                .ok_or_else(|| CfqError::Parse("`max_level` must be a non-negative integer".into()))?
                as usize;
        }
        match v.get("max_pairs") {
            None => {}
            Some(j) if j.is_null() => {}
            Some(j) => {
                req.max_pairs = Some(j.as_u64().ok_or_else(|| {
                    CfqError::Parse("`max_pairs` must be a non-negative integer".into())
                })? as usize);
            }
        }
        if let Some(s) = v.get("strategy") {
            req.strategy = parse_strategy(s)?;
        }
        if let Some(b) = v.get("bypass_cache") {
            req.bypass_cache = b
                .as_bool()
                .ok_or_else(|| CfqError::Parse("`bypass_cache` must be a boolean".into()))?;
        }
        Ok(req)
    }
}

fn parse_support(v: &Json) -> Result<SupportSpec> {
    // Accepted shapes: 0.25 (fraction shorthand), {"frac": 0.25},
    // {"s": 3, "t": 4}, {"abs": 3} (both sides).
    if let Some(f) = v.as_f64() {
        return Ok(SupportSpec::Frac(f));
    }
    if let Some(f) = v.get("frac").and_then(Json::as_f64) {
        return Ok(SupportSpec::Frac(f));
    }
    if let Some(n) = v.get("abs").and_then(Json::as_u64) {
        return Ok(SupportSpec::Abs(n, n));
    }
    if let (Some(s), Some(t)) =
        (v.get("s").and_then(Json::as_u64), v.get("t").and_then(Json::as_u64))
    {
        return Ok(SupportSpec::Abs(s, t));
    }
    Err(CfqError::Parse(
        "`support` must be a fraction, {\"frac\":f}, {\"abs\":n}, or {\"s\":n,\"t\":n}".into(),
    ))
}

fn parse_strategy(v: &Json) -> Result<Strategy> {
    if let Some(name) = v.as_str() {
        return Strategy::from_name(name)
            .ok_or_else(|| CfqError::Parse(format!("unknown strategy `{name}`")));
    }
    if matches!(v, Json::Obj(_)) {
        let flag = |key: &str, default: bool| -> Result<bool> {
            match v.get(key) {
                None => Ok(default),
                Some(j) => j
                    .as_bool()
                    .ok_or_else(|| CfqError::Parse(format!("strategy `{key}` must be a boolean"))),
            }
        };
        let d = Strategy::default();
        return Ok(Strategy {
            push_one_var: flag("push_one_var", d.push_one_var)?,
            push_two_var: flag("push_two_var", d.push_two_var)?,
            use_jkmax: flag("use_jkmax", d.use_jkmax)?,
            dovetail: flag("dovetail", d.dovetail)?,
        });
    }
    Err(CfqError::Parse("`strategy` must be a name or a flag object".into()))
}

/// A query's answer in wire form: the valid sets and pairs plus the
/// provenance and work counters a client needs to reason about cost.
#[derive(Clone, Debug, PartialEq)]
pub struct QueryResponse {
    /// The engine epoch the answer is exact for.
    pub epoch: u64,
    /// Number of valid (S, T) pairs (counted even past `max_pairs`).
    pub pair_count: u64,
    /// Materialized pairs as `(s_index, t_index)` into the set lists.
    pub pairs: Vec<(u32, u32)>,
    /// Frequent valid S-sets as `(items, support)`.
    pub s_sets: Vec<(Vec<u32>, u64)>,
    /// Frequent valid T-sets as `(items, support)`.
    pub t_sets: Vec<(Vec<u32>, u64)>,
    /// Database scans this execution performed (0 = fully cache-served).
    pub db_scans: u64,
    /// Provenance of the S lattice (`LatticeSource::describe`).
    pub s_lattice: String,
    /// Provenance of the T lattice.
    pub t_lattice: String,
    /// Whether the plan came from the plan cache.
    pub plan_cached: bool,
    /// Microseconds the query waited in the scheduler's admission queue.
    pub wait_us: u64,
}

impl QueryResponse {
    /// Projects a [`QueryOutcome`] into wire form.
    pub fn from_outcome(out: &QueryOutcome) -> QueryResponse {
        let project = |sets: &[(Itemset, u64)]| {
            sets.iter()
                .map(|(set, n)| (set.iter().map(|i| i.0).collect(), *n))
                .collect()
        };
        QueryResponse {
            epoch: out.epoch,
            pair_count: out.outcome.pair_result.count,
            pairs: out.outcome.pair_result.pairs.clone(),
            s_sets: project(&out.outcome.s_sets),
            t_sets: project(&out.outcome.t_sets),
            db_scans: out.outcome.db_scans,
            s_lattice: out.outcome.provenance.s_lattice.describe().to_string(),
            t_lattice: out.outcome.provenance.t_lattice.describe().to_string(),
            plan_cached: out.outcome.provenance.plan_cached,
            wait_us: out.admission_wait.as_micros() as u64,
        }
    }

    /// Renders the response as one line of JSON.
    pub fn to_json(&self) -> String {
        let mut out = Vec::new();
        // Writing into a `Vec` cannot fail.
        let _ = ResultBody {
            epoch: self.epoch,
            pair_count: self.pair_count,
            pairs: &self.pairs,
            s_sets: &self.s_sets,
            t_sets: &self.t_sets,
            items: Vec::as_slice,
            db_scans: self.db_scans,
            s_lattice: &self.s_lattice,
            t_lattice: &self.t_lattice,
            plan_cached: self.plan_cached,
            wait_us: self.wait_us,
        }
        .write(&mut out);
        // The writer emits ASCII plus the two strings it was given.
        String::from_utf8(out).unwrap_or_else(|e| String::from_utf8_lossy(e.as_bytes()).into_owned())
    }

    /// Writes to `w` exactly the bytes of
    /// `QueryResponse::from_outcome(out).to_json()`, read in place from the
    /// outcome — no projection into owned vectors and no copy of the reply
    /// held anywhere, which is what a server answering from cached
    /// lattices otherwise spends its time and memory on.
    pub fn write_outcome(w: &mut impl Write, out: &QueryOutcome) -> io::Result<()> {
        ResultBody {
            epoch: out.epoch,
            pair_count: out.outcome.pair_result.count,
            pairs: &out.outcome.pair_result.pairs,
            s_sets: &out.outcome.s_sets,
            t_sets: &out.outcome.t_sets,
            items: Itemset::as_slice,
            db_scans: out.outcome.db_scans,
            s_lattice: out.outcome.provenance.s_lattice.describe(),
            t_lattice: out.outcome.provenance.t_lattice.describe(),
            plan_cached: out.outcome.provenance.plan_cached,
            wait_us: out.admission_wait.as_micros() as u64,
        }
        .write(w)
    }
}

/// The fields of a result body, borrowed from wherever they live (a
/// [`QueryResponse`] or a [`QueryOutcome`]) so that both render through
/// the one encoder, [`ResultBody::write`]. `S` is the set type, `T` its
/// item type.
struct ResultBody<'a, S, T> {
    epoch: u64,
    pair_count: u64,
    pairs: &'a [(u32, u32)],
    s_sets: &'a [(S, u64)],
    t_sets: &'a [(S, u64)],
    items: fn(&S) -> &[T],
    db_scans: u64,
    s_lattice: &'a str,
    t_lattice: &'a str,
    plan_cached: bool,
    wait_us: u64,
}

/// Bytes of reply [`ResultBody::write`] gathers on its stack before handing
/// them to the sink: the serve path's `REPLY_CHUNK`, so that a full block
/// passes a connection's buffer straight on to the socket instead of being
/// copied into it.
const BLOCK: usize = 64 << 10;

/// Room past [`BLOCK`] for what is stored between two checks for a full
/// block: a pair's two 16-byte index texts, or an integer with the bytes
/// around it.
const SLACK: usize = 64;

/// A pre-rendered piece of a pair, `,[s,` or `t]`, in one 16-byte store:
/// the text from byte 0, its length in byte 15. A `u32` index with its
/// brackets and commas takes at most 13 bytes, so the two never meet.
type IndexText = [u8; 16];

/// `prefix`, `n` in decimal, `suffix`, as an [`IndexText`].
fn index_text(prefix: &[u8], n: u32, suffix: &[u8]) -> IndexText {
    let mut text = [0; 16];
    text[..prefix.len()].copy_from_slice(prefix);
    let mut len = prefix.len();
    len += json::put_u64(&mut text[len..], u64::from(n));
    text[len..len + suffix.len()].copy_from_slice(suffix);
    text[15] = (len + suffix.len()) as u8;
    text
}

/// The texts of the S side's indices, `,[s,`.
fn s_text(s: u32) -> IndexText {
    index_text(b",[", s, b",")
}

/// The texts of the T side's indices, `t]`.
fn t_text(t: u32) -> IndexText {
    index_text(b"", t, b"]")
}

/// One side's [`IndexText`]s for one reply: one per set in its list, and
/// one rendered afresh for an index past it — a hand-built
/// [`QueryResponse`] may hold one, and it encodes like any other.
struct IndexTexts {
    table: Vec<IndexText>,
    render: fn(u32) -> IndexText,
}

impl IndexTexts {
    fn new(sets: usize, render: fn(u32) -> IndexText) -> IndexTexts {
        IndexTexts { table: (0..sets).map(|i| render(i as u32)).collect(), render }
    }

    /// The text of index `i`, rendered into `spare` if it has none.
    #[inline]
    fn get<'t>(&'t self, i: u32, spare: &'t mut IndexText) -> &'t IndexText {
        match self.table.get(i as usize) {
            Some(text) => text,
            None => {
                *spare = (self.render)(i);
                spare
            }
        }
    }
}

/// The encoder's block: `buf` holds `len` bytes not yet handed to `sink`.
/// [`Block::put`] and [`Block::room`] leave `len < BLOCK`, so the stores
/// that follow one of them fit without a check of their own as long as
/// they add up to at most [`SLACK`] bytes; a slice bounds check stands
/// behind every store all the same.
struct Block<'a> {
    buf: &'a mut [u8; BLOCK + SLACK],
    len: usize,
    sink: &'a mut dyn Write,
}

impl Block<'_> {
    /// Hands the block to the sink once it holds [`BLOCK`] bytes, which
    /// makes room for the next [`SLACK`].
    #[inline]
    fn room(&mut self) -> io::Result<()> {
        if self.len >= BLOCK {
            self.sink.write_all(&self.buf[..self.len])?;
            self.len = 0;
        }
        Ok(())
    }

    /// Appends `bytes`, however many, after whatever unchecked stores
    /// came before, and leaves room for the next.
    #[inline]
    fn put(&mut self, bytes: &[u8]) -> io::Result<()> {
        for piece in bytes.chunks(SLACK) {
            self.room()?;
            self.buf[self.len..self.len + piece.len()].copy_from_slice(piece);
            self.len += piece.len();
        }
        self.room()
    }

    /// Stores pairs, each as its S text and its T text, until the block
    /// is full or they run out, and returns the ones left. A text is one
    /// 16-byte store, of which the bytes that count are kept.
    #[inline]
    fn pairs<'p>(
        &mut self,
        mut pairs: &'p [(u32, u32)],
        s_texts: &IndexTexts,
        t_texts: &IndexTexts,
    ) -> &'p [(u32, u32)] {
        let buf = &mut *self.buf;
        let mut len = self.len;
        let mut spare = [0; 16];
        while let [(s, t), rest @ ..] = pairs {
            if len >= BLOCK {
                break;
            }
            let text = s_texts.get(*s, &mut spare);
            buf[len..len + 16].copy_from_slice(text);
            len += usize::from(text[15]);
            let text = t_texts.get(*t, &mut spare);
            buf[len..len + 16].copy_from_slice(text);
            len += usize::from(text[15]);
            pairs = rest;
        }
        self.len = len;
        pairs
    }

    /// Stores `n` in decimal (at most 20 bytes).
    #[inline]
    fn digits(&mut self, n: u64) {
        self.len += json::put_u64(&mut self.buf[self.len..], n);
    }

    /// Stores one byte.
    #[inline]
    fn byte(&mut self, b: u8) {
        self.buf[self.len] = b;
        self.len += 1;
    }

    /// Hands what is left to the sink.
    fn finish(self) -> io::Result<()> {
        self.sink.write_all(&self.buf[..self.len])
    }
}

impl<S, T: Copy + Into<u32>> ResultBody<'_, S, T> {
    /// Encodes the body into `w`, block by block. A pair costs two
    /// fixed-width stores: its S index's `,[s,` and its T index's `t]`,
    /// rendered once per reply into tables as long as the set lists, and
    /// only when there is a pair to write.
    fn write(&self, w: &mut dyn Write) -> io::Result<()> {
        let mut buf = [0; BLOCK + SLACK];
        let mut out = Block { buf: &mut buf, len: 0, sink: w };
        out.put(b"{\"epoch\":")?;
        out.digits(self.epoch);
        out.put(b",\"pair_count\":")?;
        out.digits(self.pair_count);
        out.put(b",\"pairs\":")?;
        if self.pairs.is_empty() {
            out.put(b"[]")?;
        } else {
            let s_texts = IndexTexts::new(self.s_sets.len(), s_text);
            let t_texts = IndexTexts::new(self.t_sets.len(), t_text);
            let open = out.len;
            let mut left = out.pairs(self.pairs, &s_texts, &t_texts);
            // Every pair is stored as `,[s,t]`: the first one's comma
            // opens the list.
            out.buf[open] = b'[';
            while !left.is_empty() {
                out.room()?;
                left = out.pairs(left, &s_texts, &t_texts);
            }
            out.put(b"]")?;
        }
        for (key, sets) in [(b"s_sets", self.s_sets), (b"t_sets", self.t_sets)] {
            out.put(b",\"")?;
            out.put(key)?;
            out.put(b"\":[")?;
            for (i, (set, support)) in sets.iter().enumerate() {
                out.put(if i > 0 { b",{\"items\":[" } else { b"{\"items\":[" })?;
                for (j, &item) in (self.items)(set).iter().enumerate() {
                    if j > 0 {
                        out.byte(b',');
                    }
                    out.digits(u64::from(item.into()));
                    out.room()?;
                }
                out.put(b"],\"support\":")?;
                out.digits(*support);
                out.byte(b'}');
                out.room()?;
            }
            out.put(b"]")?;
        }
        out.put(b",\"db_scans\":")?;
        out.digits(self.db_scans);
        out.put(b",\"s_lattice\":")?;
        json::escaped(self.s_lattice, |piece| out.put(piece.as_bytes()))?;
        out.put(b",\"t_lattice\":")?;
        json::escaped(self.t_lattice, |piece| out.put(piece.as_bytes()))?;
        out.put(if self.plan_cached {
            b",\"plan_cached\":true,\"wait_us\":"
        } else {
            b",\"plan_cached\":false,\"wait_us\":"
        })?;
        out.digits(self.wait_us);
        out.byte(b'}');
        out.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfq_core::{LatticeSource, PairResult};
    use proptest::prelude::{prop, prop_assert_eq, proptest, ProptestConfig, TestRng};
    use std::time::Duration;

    /// The `core::fmt` encoder every release up to the byte-level one
    /// shipped, kept as the oracle: replies must not move by a byte.
    fn to_json_fmt(r: &QueryResponse) -> String {
        let mut out = String::from("{");
        let _ = write!(out, "\"epoch\":{},\"pair_count\":{}", r.epoch, r.pair_count);
        out.push_str(",\"pairs\":[");
        for (i, (s, t)) in r.pairs.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "[{s},{t}]");
        }
        out.push(']');
        for (key, sets) in [("s_sets", &r.s_sets), ("t_sets", &r.t_sets)] {
            let _ = write!(out, ",\"{key}\":[");
            for (i, (items, support)) in sets.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str("{\"items\":[");
                for (j, item) in items.iter().enumerate() {
                    if j > 0 {
                        out.push(',');
                    }
                    let _ = write!(out, "{item}");
                }
                let _ = write!(out, "],\"support\":{support}}}");
            }
            out.push(']');
        }
        let _ = write!(out, ",\"db_scans\":{}", r.db_scans);
        out.push_str(",\"s_lattice\":");
        json::write_escaped(&mut out, &r.s_lattice);
        out.push_str(",\"t_lattice\":");
        json::write_escaped(&mut out, &r.t_lattice);
        let _ = write!(out, ",\"plan_cached\":{},\"wait_us\":{}", r.plan_cached, r.wait_us);
        out.push('}');
        out
    }

    /// A real outcome to overwrite: everything the encoder reads is a
    /// public field, the plan behind it is not.
    fn any_outcome() -> QueryOutcome {
        let db = cfq_types::TransactionDb::from_u32(3, &[&[0, 1], &[0, 1, 2], &[1, 2]]);
        let engine = crate::Engine::new(db, cfq_types::Catalog::empty(3)).unwrap();
        engine.session().query("count(S) >= 1").min_support(2).run().unwrap()
    }

    fn random_sets(rng: &mut TestRng, n: usize, max_len: u64, max_item: u64) -> Vec<(Itemset, u64)> {
        (0..n)
            .map(|_| {
                let len = 1 + rng.below(max_len);
                let set: Itemset = (0..len).map(|_| rng.below(max_item) as u32).collect();
                (set, rng.below(3) * rng.below(u64::MAX / 2) + rng.below(1000))
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

        #[test]
        fn byte_encoder_equals_the_fmt_reference(
            seed in 0u64..u64::MAX,
            n_s in 0usize..12,
            n_t in 0usize..12,
            n_pairs in 0usize..40,
            max_len in 1u64..9,
            cap in prop::sample::select(vec![Some(0usize), Some(3), Some(1000), None]),
            sources in prop::collection::vec(0usize..4, 2),
            wait_us in prop::sample::select(vec![0u64, 7, 1_000_000, u64::MAX / 1000]),
        ) {
            const SOURCES: [LatticeSource; 4] = [
                LatticeSource::MinedCold,
                LatticeSource::Cached,
                LatticeSource::FupUpgraded,
                LatticeSource::Coalesced,
            ];
            let mut rng = TestRng::new(seed);
            let mut out = any_outcome();
            // Small and huge item ids, inline and heap (6+ item) sets.
            let max_item = [10, 1000, u32::MAX as u64][rng.below(3) as usize];
            out.outcome.s_sets = random_sets(&mut rng, n_s, max_len, max_item);
            out.outcome.t_sets = random_sets(&mut rng, n_t, max_len, max_item);
            let all: Vec<(u32, u32)> = if n_s == 0 || n_t == 0 {
                Vec::new()
            } else {
                (0..n_pairs)
                    .map(|_| (rng.below(n_s as u64) as u32, rng.below(n_t as u64) as u32))
                    .collect()
            };
            let kept = cap.unwrap_or(usize::MAX).min(all.len());
            out.outcome.pair_result = PairResult {
                count: all.len() as u64,
                pairs: all[..kept].to_vec(),
                truncated: kept < all.len(),
                checks: 0,
                s_used: Vec::new(),
                t_used: Vec::new(),
            };
            out.outcome.db_scans = rng.below(5);
            out.outcome.provenance.s_lattice = SOURCES[sources[0]];
            out.outcome.provenance.t_lattice = SOURCES[sources[1]];
            out.outcome.provenance.plan_cached = rng.below(2) == 1;
            out.epoch = rng.below(3) * rng.below(u64::MAX / 2);
            out.admission_wait = Duration::from_micros(wait_us);
            let (got, want) = encodings(&out);
            prop_assert_eq!(&got[0], &want);
            prop_assert_eq!(&got[1], &want);
        }
    }

    /// The reply line of `out` as the encoder writes it, each way it can
    /// be asked for (`to_json` and `write_query_reply`), and the oracle's.
    fn encodings(out: &QueryOutcome) -> ([String; 2], String) {
        let resp = QueryResponse::from_outcome(out);
        let mut line = Vec::new();
        crate::wire::write_query_reply(&mut line, out).unwrap();
        (
            [crate::wire::result_object(&resp.to_json()) + "\n", String::from_utf8(line).unwrap()],
            crate::wire::result_object(&to_json_fmt(&resp)) + "\n",
        )
    }

    /// Asserts that every encoding of a long reply equals the oracle's,
    /// naming where one parts from it rather than printing megabytes, and
    /// returns the oracle's.
    fn assert_encodings_match(out: &QueryOutcome) -> String {
        let (got, want) = encodings(out);
        for got in got {
            let at = got.bytes().zip(want.bytes()).position(|(g, w)| g != w);
            let at = at.unwrap_or(got.len().min(want.len()));
            let around = at.saturating_sub(24)..at + 24;
            let near = |s: &str| s.get(around.start..s.len().min(around.end)).map(String::from);
            assert!(
                got == want,
                "{} bytes against the oracle's {}, parting at byte {at}: {:?} / {:?}",
                got.len(),
                want.len(),
                near(&got),
                near(&want),
            );
        }
        want
    }

    /// A reply many blocks (and serve-path chunks) long: `n_s` × `n_t`
    /// sets of one to eight items with ids up to `u32::MAX` and supports
    /// up to `u64::MAX`, and `n_pairs` pairs (`kept` of them materialised)
    /// whose indices mostly lie in the set lists, one in a hundred past
    /// them with 5 to 7 digits, and the last pair at `u32::MAX` on both
    /// sides.
    fn large_outcome(n_s: usize, n_t: usize, n_pairs: usize, kept: usize) -> QueryOutcome {
        let mut rng = TestRng::new(0x5EED);
        let mut out = any_outcome();
        // A number of 1 to `max` digits, the digit count drawn first.
        let number = |rng: &mut TestRng, max: u32| {
            let digits = 1 + rng.below(u64::from(max)) as u32;
            10u64.pow(digits - 1) - u64::from(digits == 1) + rng.below(9 * 10u64.pow(digits - 1))
        };
        let mut sets = |n: usize| -> Vec<(Itemset, u64)> {
            (0..n)
                .map(|_| {
                    let len = 1 + rng.below(8);
                    let mut set: Itemset = (0..len)
                        .map(|_| number(&mut rng, 10).min(u32::MAX.into()) as u32)
                        .collect();
                    if rng.below(50) == 0 {
                        set = set.iter().map(|i| i.0).chain([u32::MAX]).collect();
                    }
                    let support = match rng.below(50) {
                        0 => u64::MAX - rng.below(1000),
                        _ => number(&mut rng, 19),
                    };
                    (set, support)
                })
                .collect()
        };
        out.outcome.s_sets = sets(n_s);
        out.outcome.t_sets = sets(n_t);
        let mut index = |n: usize| -> u32 {
            match rng.below(100) {
                // 5 to 7 digits: past a list of fewer than 10,000 sets.
                0 => {
                    let digits = 5 + rng.below(3) as u32;
                    (10u64.pow(digits - 1) + rng.below(9 * 10u64.pow(digits - 1))) as u32
                }
                _ => rng.below(n as u64) as u32,
            }
        };
        let mut pairs: Vec<(u32, u32)> = (1..n_pairs).map(|_| (index(n_s), index(n_t))).collect();
        pairs.push((u32::MAX, u32::MAX));
        pairs.truncate(kept);
        out.outcome.pair_result = PairResult {
            count: n_pairs as u64,
            truncated: kept < n_pairs,
            pairs,
            checks: 0,
            s_used: Vec::new(),
            t_used: Vec::new(),
        };
        out.epoch = u64::MAX;
        out.admission_wait = Duration::from_micros(123_456_789);
        out
    }

    #[test]
    fn a_reply_of_many_blocks_equals_the_fmt_reference() {
        let out = large_outcome(1_200, 1_100, 150_001, usize::MAX);
        let indices = out.outcome.pair_result.pairs.iter().flat_map(|&(s, t)| [s, t]);
        let widths: std::collections::BTreeSet<usize> =
            indices.map(|i| i.to_string().len()).collect();
        assert_eq!(widths, (1..=7).chain([10]).collect(), "index widths");
        let past = out.outcome.pair_result.pairs.iter().filter(|&&(s, _)| s >= 1_200).count();
        assert!(past > 1_000, "{past} S indices past the list");
        assert!(assert_encodings_match(&out).len() > 20 * BLOCK);
    }

    #[test]
    fn a_count_only_reply_of_many_blocks_equals_the_fmt_reference() {
        let out = large_outcome(3_000, 3_000, 150_001, 0);
        assert!(out.outcome.pair_result.pairs.is_empty());
        let reply = assert_encodings_match(&out);
        assert!(reply.len() > 2 * BLOCK);
        assert!(reply.contains("\"pair_count\":150001,\"pairs\":[],\"s_sets\""));
    }

    #[test]
    fn minimal_request_gets_defaults() {
        let req = QueryRequest::from_json(r#"{"query": "count(S) >= 1"}"#).unwrap();
        assert_eq!(req, QueryRequest::new("count(S) >= 1"));
        assert_eq!(req.support, SupportSpec::Frac(0.01));
        assert!(!req.bypass_cache);
    }

    #[test]
    fn full_request_round_trips() {
        let req = QueryRequest {
            query: "max(S.Price) <= 30 & min(T.Price) >= 40".into(),
            support: SupportSpec::Abs(2, 3),
            s_universe: vec![ItemId(0), ItemId(1)],
            t_universe: vec![ItemId(4)],
            max_level: 3,
            max_pairs: Some(100),
            strategy: Strategy::cap_one_var(),
            bypass_cache: true,
        };
        let round = QueryRequest::from_json(&req.to_json()).unwrap();
        assert_eq!(req, round);
    }

    #[test]
    fn hand_rolled_strategy_round_trips_as_flags() {
        let mut req = QueryRequest::new("count(S) >= 1");
        req.strategy = Strategy { dovetail: false, ..Strategy::default() };
        assert!(req.strategy.name().is_none());
        assert!(req.to_json().contains("\"dovetail\":false"));
        assert_eq!(QueryRequest::from_json(&req.to_json()).unwrap(), req);
    }

    #[test]
    fn support_shorthands() {
        let frac =
            QueryRequest::from_json(r#"{"query":"q", "support": 0.5}"#).unwrap();
        assert_eq!(frac.support, SupportSpec::Frac(0.5));
        let abs = QueryRequest::from_json(r#"{"query":"q", "support": {"abs": 7}}"#).unwrap();
        assert_eq!(abs.support, SupportSpec::Abs(7, 7));
        let st =
            QueryRequest::from_json(r#"{"query":"q", "support": {"s": 2, "t": 9}}"#).unwrap();
        assert_eq!(st.support, SupportSpec::Abs(2, 9));
    }

    #[test]
    fn typos_are_rejected_not_defaulted() {
        let err = QueryRequest::from_json(r#"{"query":"q", "bypass_cahce": true}"#).unwrap_err();
        assert!(err.to_string().contains("bypass_cahce"), "{err}");
        assert!(QueryRequest::from_json(r#"{"support": 0.5}"#).is_err(), "query is required");
        assert!(QueryRequest::from_json(r#"{"query":"q","strategy":"fastest"}"#).is_err());
        // A repeated key is a contradiction, not "first wins".
        for twice in [
            r#"{"query":"count(S) >= 1","query":"count(S) >= 2"}"#,
            r#"{"query":"q","max_pairs":1,"max_pairs":1}"#,
            r#"{"query":"q","support":{"frac":0.5,"frac":0.1}}"#,
            r#"{"query":"q","strategy":{"dovetail":true,"dovetail":false}}"#,
        ] {
            let err = QueryRequest::from_json(twice).unwrap_err();
            assert!(matches!(err, CfqError::Parse(_)), "{twice} -> {err}");
            assert!(err.to_string().contains("is given twice"), "{twice} -> {err}");
        }
    }

    /// The counting knobs left the wire: a served query counts the
    /// engine's one way, and a request that still names one is refused by
    /// name, like any other unknown field.
    #[test]
    fn counting_knobs_are_unknown_fields() {
        let removed = [("backend", "\"bitmap\""), ("trim", "false"), ("counting_threads", "2")];
        for (key, value) in removed {
            let err = QueryRequest::from_json(&format!(r#"{{"query":"q","{key}":{value}}}"#))
                .unwrap_err();
            assert!(matches!(err, CfqError::Parse(_)), "{key} -> {err}");
            assert_eq!(err.to_string(), format!("parse error: unknown request field `{key}`"));
        }
    }

    #[test]
    fn validate_rejects_out_of_range_fields_with_typed_errors() {
        let ok = QueryRequest::new("count(S) >= 1");
        assert!(ok.validate().is_ok());

        let mut req = ok.clone();
        req.support = SupportSpec::Frac(0.0);
        let err = req.validate().unwrap_err();
        assert!(matches!(err, CfqError::Config(_)), "{err}");
        assert_eq!(err.to_string(), "configuration error: support fraction 0 is outside (0, 1]");
        req.support = SupportSpec::Frac(1.5);
        assert!(req.validate().is_err());
        req.support = SupportSpec::Abs(0, 3);
        assert!(matches!(req.validate().unwrap_err(), CfqError::Config(_)));

        let empty = QueryRequest::new("   ");
        assert!(matches!(empty.validate().unwrap_err(), CfqError::Config(_)));
    }

    #[test]
    fn support_resolution_validates() {
        assert_eq!(SupportSpec::Frac(0.5).resolve(8).unwrap(), (4, 4));
        assert_eq!(SupportSpec::Abs(2, 3).resolve(8).unwrap(), (2, 3));
        assert!(SupportSpec::Frac(0.0).resolve(8).is_err());
        assert!(SupportSpec::Frac(1.5).resolve(8).is_err());
        assert!(SupportSpec::Abs(0, 1).resolve(8).is_err());
    }

    #[test]
    fn response_renders_valid_json() {
        let resp = QueryResponse {
            epoch: 1,
            pair_count: 2,
            pairs: vec![(0, 1), (1, 0)],
            s_sets: vec![(vec![0, 2], 3)],
            t_sets: vec![(vec![4], 2), (vec![5], 2)],
            db_scans: 0,
            s_lattice: "cache hit (reused mined lattice)".into(),
            t_lattice: "coalesced (shared an in-flight mining)".into(),
            plan_cached: true,
            wait_us: 17,
        };
        let v = crate::json::parse(&resp.to_json()).unwrap();
        assert_eq!(v.get("epoch").unwrap().as_u64(), Some(1));
        assert_eq!(v.get("pairs").unwrap().as_arr().unwrap().len(), 2);
        let s0 = &v.get("s_sets").unwrap().as_arr().unwrap()[0];
        assert_eq!(s0.get("support").unwrap().as_u64(), Some(3));
        assert_eq!(v.get("t_lattice").unwrap().as_str().unwrap(), resp.t_lattice);
        assert_eq!(v.get("wait_us").unwrap().as_u64(), Some(17));
    }
}
