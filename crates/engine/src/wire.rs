//! The versioned wire envelope — v1 of the serve control protocol.
//!
//! Every JSON line a client sends is one envelope
//! `{"v":1,"cmd":"query"|"metrics"|"slowlog"|"status"|"snapshot",...}`;
//! every reply is either `{"v":1,"result":...}` or a typed error object
//! `{"v":1,"error":{"kind":"...","message":"..."}}`. The `kind` field is
//! machine-dispatchable (one value per [`CfqError`] variant plus the
//! protocol-level kinds below), so clients branch on a token instead of
//! string-matching prose. This module is the codec; what a command does
//! is [`crate::dispatch`]'s.
//!
//! Protocol-level error kinds (no `CfqError` behind them):
//!
//! * `protocol` — the line is not a well-formed envelope;
//! * `unsupported_version` — `v` is not a version this server speaks;
//! * `unknown_command` — `cmd` is not in the v1 command set.

use crate::json::{self, Json};
use crate::request::{QueryRequest, QueryResponse};
use crate::session::QueryOutcome;
use cfq_types::CfqError;
use std::io::{self, Write};

/// The one wire version this build speaks.
pub const WIRE_VERSION: u64 = 1;

/// A parsed v1 envelope command.
#[derive(Debug)]
pub enum WireCmd {
    /// `{"v":1,"cmd":"query","req":{...}}` — run one [`QueryRequest`].
    Query(QueryRequest),
    /// `{"v":1,"cmd":"metrics"}` — Prometheus text dump.
    Metrics,
    /// `{"v":1,"cmd":"slowlog"}` — slow-query log dump.
    Slowlog,
    /// `{"v":1,"cmd":"status"}` — engine + durability status object.
    Status,
    /// `{"v":1,"cmd":"snapshot"}` — write a snapshot now.
    Snapshot,
}

/// A wire-level error: a kind token plus a human-readable message.
#[derive(Debug)]
pub struct WireError {
    /// Machine-dispatchable kind token.
    pub kind: &'static str,
    /// Human-readable detail.
    pub message: String,
}

impl WireError {
    /// Renders the v1 error envelope line.
    pub fn render(&self) -> String {
        error_object(self.kind, &self.message, false)
    }
}

/// The `kind` token of a [`CfqError`] — one stable value per variant.
pub fn error_kind(e: &CfqError) -> &'static str {
    match e {
        CfqError::Parse(_) => "parse",
        CfqError::Attr(_) => "attr",
        CfqError::UnsupportedConstraint(_) => "unsupported_constraint",
        CfqError::Config(_) => "config",
        CfqError::Io(_) => "io",
        CfqError::Engine(_) => "engine",
        CfqError::CacheBudget(_) => "cache_budget",
        CfqError::Audit(_) => "audit",
        CfqError::Overloaded(_) => "overloaded",
    }
}

fn error_object(kind: &str, message: &str, overloaded: bool) -> String {
    let mut out = format!("{{\"v\":{WIRE_VERSION},\"error\":{{\"kind\":");
    json::write_escaped(&mut out, kind);
    out.push_str(",\"message\":");
    json::write_escaped(&mut out, message);
    if overloaded {
        out.push_str(",\"overloaded\":true");
    }
    out.push_str("}}");
    out
}

/// Renders a [`CfqError`] as the v1 error envelope. Overload rejections
/// additionally carry `"overloaded":true` inside the error object so
/// back-off logic stays a field check.
pub fn error_from(e: &CfqError) -> String {
    error_object(error_kind(e), &e.to_string(), matches!(e, CfqError::Overloaded(_)))
}

/// What a v1 result envelope opens with; the body and `}` follow.
const RESULT_OPEN: &str = "{\"v\":1,\"result\":";

/// Wraps an already-serialized JSON value in the v1 result envelope.
pub fn result_object(body_json: &str) -> String {
    let mut out = String::with_capacity(RESULT_OPEN.len() + body_json.len() + 1);
    out.push_str(RESULT_OPEN);
    out.push_str(body_json);
    out.push('}');
    out
}

/// Writes the complete reply line of an answered query to `w`:
/// `{"v":1,"result":{…}}` and the newline, byte for byte
/// `result_object(&QueryResponse::from_outcome(outcome).to_json())`, but
/// encoded in one pass from the outcome into whatever `w` is — the
/// server's fixed-size socket buffer, so a megabyte reply is never held
/// in memory.
pub fn write_query_reply(w: &mut impl Write, outcome: &QueryOutcome) -> io::Result<()> {
    w.write_all(RESULT_OPEN.as_bytes())?;
    QueryResponse::write_outcome(w, outcome)?;
    w.write_all(b"}\n")
}

/// Wraps plain text (a metrics scrape, a slowlog dump) in the v1 result
/// envelope as `{"text": "..."}`.
pub fn text_result(text: &str) -> String {
    let mut out = format!("{{\"v\":{WIRE_VERSION},\"result\":{{\"text\":");
    json::write_escaped(&mut out, text);
    out.push_str("}}");
    out
}

/// Parses one wire line into a v1 command, or the typed error the server
/// should answer with.
pub fn parse_envelope(line: &str) -> Result<WireCmd, WireError> {
    let v = json::parse(line).map_err(|e| WireError {
        kind: "protocol",
        message: format!("envelope is not valid JSON: {e}"),
    })?;
    let fields = match &v {
        Json::Obj(fields) => fields,
        _ => {
            return Err(WireError {
                kind: "protocol",
                message: "envelope must be a JSON object".into(),
            })
        }
    };
    for (key, _) in fields {
        if !matches!(key.as_str(), "v" | "cmd" | "req") {
            return Err(WireError {
                kind: "protocol",
                message: format!("unknown envelope field `{key}`"),
            });
        }
    }
    if let Some(key) = v.duplicate_key() {
        return Err(WireError {
            kind: "protocol",
            message: format!("envelope field `{key}` is given twice"),
        });
    }
    let version = v.get("v").and_then(Json::as_u64).ok_or_else(|| WireError {
        kind: "protocol",
        message: "envelope needs a numeric `v` field (this server speaks v1)".into(),
    })?;
    if version != WIRE_VERSION {
        return Err(WireError {
            kind: "unsupported_version",
            message: format!("wire version {version} is not supported (this server speaks v1)"),
        });
    }
    let cmd = v.get("cmd").and_then(Json::as_str).ok_or_else(|| WireError {
        kind: "protocol",
        message: "envelope needs a string `cmd` field".into(),
    })?;
    match cmd {
        "query" => {
            let req = v.get("req").ok_or_else(|| WireError {
                kind: "protocol",
                message: "cmd `query` needs a `req` request object".into(),
            })?;
            let req = QueryRequest::from_value(req).map_err(|e| WireError {
                kind: error_kind(&e),
                message: e.to_string(),
            })?;
            // Reject out-of-range field values here, at decode time, so a
            // bad request never reaches the scheduler — same typed errors
            // the builder path gets from `Session::execute`.
            req.validate().map_err(|e| WireError {
                kind: error_kind(&e),
                message: e.to_string(),
            })?;
            Ok(WireCmd::Query(req))
        }
        "metrics" => Ok(WireCmd::Metrics),
        "slowlog" => Ok(WireCmd::Slowlog),
        "status" => Ok(WireCmd::Status),
        "snapshot" => Ok(WireCmd::Snapshot),
        other => Err(WireError {
            kind: "unknown_command",
            message: format!(
                "unknown command `{other}` (v1 speaks query, metrics, slowlog, status, snapshot)"
            ),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_envelope_parses() {
        let cmd = parse_envelope(
            r#"{"v":1,"cmd":"query","req":{"query":"count(S) >= 1","support":0.25}}"#,
        )
        .unwrap();
        match cmd {
            WireCmd::Query(req) => assert_eq!(req.query, "count(S) >= 1"),
            other => panic!("wrong cmd: {other:?}"),
        }
    }

    #[test]
    fn control_commands_parse() {
        for (line, want) in [
            (r#"{"v":1,"cmd":"metrics"}"#, "Metrics"),
            (r#"{"v":1,"cmd":"slowlog"}"#, "Slowlog"),
            (r#"{"v":1,"cmd":"status"}"#, "Status"),
            (r#"{"v":1,"cmd":"snapshot"}"#, "Snapshot"),
        ] {
            let cmd = parse_envelope(line).unwrap();
            assert!(format!("{cmd:?}").starts_with(want), "{line} -> {cmd:?}");
        }
    }

    #[test]
    fn version_and_shape_errors_are_typed() {
        for (line, kind) in [
            ("{nope", "protocol"),
            ("[1,2]", "protocol"),
            (r#"{"cmd":"query"}"#, "protocol"),
            (r#"{"v":2,"cmd":"query"}"#, "unsupported_version"),
            (r#"{"v":1,"cmd":"reboot"}"#, "unknown_command"),
            (r#"{"v":1,"cmd":"query"}"#, "protocol"),
            (r#"{"v":1,"cmd":"query","req":{"quary":"q"}}"#, "parse"),
            (r#"{"v":1,"cmd":"query","req":{"query":"q","support":{"frac":0}}}"#, "config"),
            // The removed `shards` field: unknown, like any other typo.
            (r#"{"v":1,"cmd":"query","req":{"query":"q","shards":2}}"#, "parse"),
            (r#"{"v":1,"cmd":"status","extra":true}"#, "protocol"),
            (r#"{"v":1,"cmd":"status","cmd":"snapshot"}"#, "protocol"),
            (r#"{"v":1,"cmd":"query","req":{"query":"q","query":"r"}}"#, "parse"),
            // 200,000 open brackets: a typed error, not a dead server.
            (&format!("{{\"v\":1,\"cmd\":\"query\",\"req\":{}", "[".repeat(200_000)), "protocol"),
        ] {
            let err = parse_envelope(line).unwrap_err();
            assert_eq!(err.kind, kind, "{line} -> {err:?}");
            let rendered = err.render();
            let v = json::parse(&rendered).unwrap();
            assert_eq!(
                v.get("error").and_then(|e| e.get("kind")).and_then(Json::as_str),
                Some(kind),
                "{rendered}"
            );
        }
    }

    #[test]
    fn error_objects_carry_kind_and_overload_flag() {
        let over = error_from(&CfqError::Overloaded("full".into()));
        let v = json::parse(&over).unwrap();
        let e = v.get("error").unwrap();
        assert_eq!(e.get("kind").and_then(Json::as_str), Some("overloaded"));
        assert_eq!(e.get("overloaded").and_then(Json::as_bool), Some(true));

        let plain = error_from(&CfqError::Parse("bad".into()));
        let v = json::parse(&plain).unwrap();
        let e = v.get("error").unwrap();
        assert_eq!(e.get("kind").and_then(Json::as_str), Some("parse"));
        assert!(e.get("overloaded").is_none());
    }

    #[test]
    fn result_wrappers_render_valid_json() {
        assert_eq!(RESULT_OPEN, format!("{{\"v\":{WIRE_VERSION},\"result\":"));
        let r = result_object(r#"{"epoch":3}"#);
        let v = json::parse(&r).unwrap();
        assert_eq!(v.get("v").and_then(Json::as_u64), Some(1));
        assert_eq!(
            v.get("result").and_then(|r| r.get("epoch")).and_then(Json::as_u64),
            Some(3)
        );
        let t = text_result("line one\nline \"two\"");
        let v = json::parse(&t).unwrap();
        assert_eq!(
            v.get("result").and_then(|r| r.get("text")).and_then(Json::as_str),
            Some("line one\nline \"two\"")
        );
    }
}
