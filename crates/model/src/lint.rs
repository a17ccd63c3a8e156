//! A hand-rolled, token-level lint pass over the workspace's own
//! sources.
//!
//! The build environment is offline — no clippy plugins, no `syn` — so
//! the invariants code review relies on are enforced by a small lexer
//! (comments, strings, raw strings, char-vs-lifetime) plus line/token
//! pattern rules:
//!
//! * **no-unwrap** — `.unwrap()` / `.expect(...)` are banned in the
//!   request-handling hot paths (`serve.rs`, `dispatch.rs`, `wire.rs`,
//!   `scheduler.rs`, `request.rs`, `session.rs`, `json.rs`): a malformed
//!   request must surface as a protocol error, never a panic that kills
//!   a worker.
//! * **unsafe-needs-safety** — every `unsafe` block carries a
//!   `// SAFETY:` comment within three lines above (or on the line).
//! * **metric-name** — metric registration names match `cfq_[a-z0-9_]+`,
//!   counters end in `_total`, and each name is registered at exactly
//!   one call site in the workspace (the obs crate itself is exempt).
//! * **durability-metric** — the `cfq_wal_*` / `cfq_snapshot_*`
//!   families are a closed catalog: a registration outside
//!   [`DURABILITY_METRICS`], or with the wrong instrument kind, is a
//!   finding. Dashboards read the durability surface, so new families
//!   are added to the catalog deliberately.
//! * **span-guard-bound** — `obs::span(...)` in statement position is a
//!   guard dropped immediately (the span closes before the work runs);
//!   it must be bound to a local.
//! * **missing-docs** — `pub` items in non-bench crates carry a doc
//!   comment (`pub(...)`-scoped items and `pub use` re-exports are
//!   exempt).
//!
//! `#[cfg(test)]` modules and `#[test]` functions are excluded by brace
//! matching on the token stream; files under `tests/`, `benches/` or
//! `examples/` (and the bench crate) only get the `unsafe` rule.

use std::fs;
use std::path::{Path, PathBuf};

/// How a file is treated by the rules.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FileClass {
    /// Request-handling hot path: all rules, including no-unwrap.
    Hot,
    /// Library source: all rules except no-unwrap.
    Normal,
    /// Tests, benches, examples: only the unsafe rule.
    TestOrBench,
}

/// File names whose request-path position bans `unwrap`/`expect`.
const HOT_FILES: &[&str] = &[
    "serve.rs", "dispatch.rs", "wire.rs", "scheduler.rs", "request.rs", "session.rs", "json.rs",
];

/// One lint violation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// Path as scanned (repo-relative when walking a workspace).
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Stable rule name.
    pub rule: &'static str,
    /// Human-readable explanation.
    pub message: String,
}

/// The closed catalog of durability metric families with their
/// instrument kinds. Every `cfq_wal_*` / `cfq_snapshot_*` registration
/// in the workspace must appear here — the durability surface is part
/// of the wire contract with dashboards, so
/// growing it is a deliberate edit to this table, not a drive-by
/// `.counter(...)` call.
pub const DURABILITY_METRICS: &[(&str, &str)] = &[
    ("cfq_wal_records_total", "counter"),
    ("cfq_wal_bytes_total", "counter"),
    ("cfq_wal_fsyncs_total", "counter"),
    ("cfq_wal_replayed_records_total", "counter"),
    ("cfq_snapshot_writes_total", "counter"),
    ("cfq_snapshot_bytes_total", "counter"),
    ("cfq_snapshot_last_epoch", "gauge"),
];

/// One metric registration site, collected for the cross-file
/// exactly-once check.
#[derive(Clone, Debug)]
pub struct MetricReg {
    /// The literal metric name.
    pub name: String,
    /// Registration method (`counter`, `counter_with`, `gauge`,
    /// `histogram`).
    pub kind: String,
    /// Path as scanned.
    pub file: String,
    /// 1-based line.
    pub line: u32,
}

/// The result of a workspace scan.
#[derive(Clone, Debug, Default)]
pub struct LintReport {
    /// All violations, in file order.
    pub findings: Vec<Finding>,
    /// Files scanned.
    pub files: usize,
    /// Distinct metric names seen at registration sites.
    pub metrics: usize,
}

impl LintReport {
    /// Whether the scan found nothing.
    pub fn clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// One-line JSON rendering, mirroring the model report shape.
    pub fn render_json(&self) -> String {
        let mut out = format!(
            "{{\"bench\":\"lint\",\"files\":{},\"metrics\":{},\"findings\":[",
            self.files, self.metrics
        );
        for (i, f) in self.findings.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"file\":\"{}\",\"line\":{},\"rule\":\"{}\",\"message\":\"{}\"}}",
                escape(&f.file),
                f.line,
                f.rule,
                escape(&f.message),
            ));
        }
        out.push_str(&format!("],\"clean\":{}}}", self.clean()));
        out
    }
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

// ---------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum TokKind {
    Ident,
    Str,
    Char,
    Lifetime,
    Num,
    Punct,
}

#[derive(Clone, Debug)]
struct Tok {
    kind: TokKind,
    text: String,
    line: u32,
}

#[derive(Clone, Debug)]
struct Comment {
    /// Line the comment starts on.
    line: u32,
    /// Full text including the `//` / `/*` introducer.
    text: String,
}

struct Lexed {
    toks: Vec<Tok>,
    comments: Vec<Comment>,
}

fn is_ident_start(c: char) -> bool {
    c.is_ascii_alphabetic() || c == '_'
}

fn is_ident_cont(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// Tokenizes Rust source far enough for line/token rules: comments and
/// every string/char form are recognized so nothing inside them is ever
/// mistaken for code.
fn lex(src: &str) -> Lexed {
    let b: Vec<char> = src.chars().collect();
    let mut i = 0;
    let mut line: u32 = 1;
    let mut toks = Vec::new();
    let mut comments = Vec::new();

    macro_rules! peek {
        ($off:expr) => {
            b.get(i + $off).copied()
        };
    }

    while i < b.len() {
        let c = b[i];
        match c {
            '\n' => {
                line += 1;
                i += 1;
            }
            c if c.is_whitespace() => i += 1,
            '/' if peek!(1) == Some('/') => {
                let start = i;
                while i < b.len() && b[i] != '\n' {
                    i += 1;
                }
                comments.push(Comment { line, text: b[start..i].iter().collect() });
            }
            '/' if peek!(1) == Some('*') => {
                let start = i;
                let start_line = line;
                let mut depth = 1;
                i += 2;
                while i < b.len() && depth > 0 {
                    if b[i] == '\n' {
                        line += 1;
                        i += 1;
                    } else if b[i] == '/' && peek!(1) == Some('*') {
                        depth += 1;
                        i += 2;
                    } else if b[i] == '*' && peek!(1) == Some('/') {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
                comments.push(Comment { line: start_line, text: b[start..i].iter().collect() });
            }
            '"' => {
                let (text, nl) = scan_string(&b, &mut i);
                toks.push(Tok { kind: TokKind::Str, text, line });
                line += nl;
            }
            '\'' => {
                // Lifetime ('a) vs char literal ('x', '\n', '\'').
                let next = peek!(1);
                let after = peek!(2);
                let is_lifetime = match (next, after) {
                    (Some(n), a) if is_ident_start(n) => a != Some('\''),
                    _ => false,
                };
                if is_lifetime {
                    let start = i;
                    i += 1;
                    while i < b.len() && is_ident_cont(b[i]) {
                        i += 1;
                    }
                    toks.push(Tok {
                        kind: TokKind::Lifetime,
                        text: b[start..i].iter().collect(),
                        line,
                    });
                } else {
                    let start = i;
                    i += 1;
                    while i < b.len() {
                        if b[i] == '\\' {
                            i += 2;
                        } else if b[i] == '\'' {
                            i += 1;
                            break;
                        } else {
                            i += 1;
                        }
                    }
                    toks.push(Tok { kind: TokKind::Char, text: b[start..i].iter().collect(), line });
                }
            }
            c if is_ident_start(c) => {
                let start = i;
                while i < b.len() && is_ident_cont(b[i]) {
                    i += 1;
                }
                let text: String = b[start..i].iter().collect();
                // Raw / byte string prefixes: r"..", r#".."#, b"..", br#".."#.
                let is_raw_prefix = matches!(text.as_str(), "r" | "br")
                    && matches!(peek!(0), Some('"') | Some('#'));
                let is_byte_str = text == "b" && peek!(0) == Some('"');
                if is_raw_prefix {
                    let mut hashes = 0;
                    while peek!(0) == Some('#') {
                        hashes += 1;
                        i += 1;
                    }
                    if peek!(0) == Some('"') {
                        i += 1;
                        let start_line = line;
                        'scan: while i < b.len() {
                            if b[i] == '\n' {
                                line += 1;
                                i += 1;
                                continue;
                            }
                            if b[i] == '"' {
                                let mut ok = true;
                                for h in 0..hashes {
                                    if b.get(i + 1 + h) != Some(&'#') {
                                        ok = false;
                                        break;
                                    }
                                }
                                if ok {
                                    i += 1 + hashes;
                                    break 'scan;
                                }
                            }
                            i += 1;
                        }
                        toks.push(Tok { kind: TokKind::Str, text: String::new(), line: start_line });
                    } else {
                        toks.push(Tok { kind: TokKind::Ident, text, line });
                    }
                } else if is_byte_str {
                    let (text, nl) = scan_string(&b, &mut i);
                    toks.push(Tok { kind: TokKind::Str, text, line });
                    line += nl;
                } else {
                    toks.push(Tok { kind: TokKind::Ident, text, line });
                }
            }
            c if c.is_ascii_digit() => {
                let start = i;
                while i < b.len() && (is_ident_cont(b[i]) || b[i] == '.') {
                    // Stop a float scan before `1.method()` or `0..n`.
                    if b[i] == '.' && !peek!(1).map(|d| d.is_ascii_digit()).unwrap_or(false) {
                        break;
                    }
                    i += 1;
                }
                toks.push(Tok { kind: TokKind::Num, text: b[start..i].iter().collect(), line });
            }
            c => {
                toks.push(Tok { kind: TokKind::Punct, text: c.to_string(), line });
                i += 1;
            }
        }
    }
    Lexed { toks, comments }
}

/// Scans a `"…"` string starting at `b[*i] == '"'`; returns the contents
/// (without quotes) and the newlines crossed.
fn scan_string(b: &[char], i: &mut usize) -> (String, u32) {
    let mut out = String::new();
    let mut nl = 0;
    *i += 1;
    while *i < b.len() {
        match b[*i] {
            '\\' => {
                if let Some(e) = b.get(*i + 1) {
                    out.push('\\');
                    out.push(*e);
                }
                *i += 2;
            }
            '"' => {
                *i += 1;
                break;
            }
            c => {
                if c == '\n' {
                    nl += 1;
                }
                out.push(c);
                *i += 1;
            }
        }
    }
    (out, nl)
}

// ---------------------------------------------------------------------
// `#[cfg(test)]` / `#[test]` exclusion
// ---------------------------------------------------------------------

/// Marks token index ranges covered by `#[cfg(test)]` items and
/// `#[test]` functions, by matching the brace block (or trailing `;`)
/// after the attribute.
fn test_mask(toks: &[Tok]) -> Vec<bool> {
    let mut mask = vec![false; toks.len()];
    let mut i = 0;
    while i < toks.len() {
        if toks[i].text != "#" || toks.get(i + 1).map(|t| t.text.as_str()) != Some("[") {
            i += 1;
            continue;
        }
        // Collect this attribute group.
        let mut j = i + 2;
        let mut depth = 1;
        let mut attr_idents: Vec<&str> = Vec::new();
        while j < toks.len() && depth > 0 {
            match toks[j].text.as_str() {
                "[" => depth += 1,
                "]" => depth -= 1,
                _ => {
                    if toks[j].kind == TokKind::Ident {
                        attr_idents.push(&toks[j].text);
                    }
                }
            }
            j += 1;
        }
        let testish = attr_idents == ["test"]
            || (attr_idents.contains(&"cfg") && attr_idents.contains(&"test"));
        if !testish {
            i = j;
            continue;
        }
        // Skip any further attribute groups, then find the item's body
        // brace (or a `;` for extern/use forms) and mask through it.
        let mut k = j;
        while k + 1 < toks.len() && toks[k].text == "#" && toks[k + 1].text == "[" {
            let mut d = 1;
            k += 2;
            while k < toks.len() && d > 0 {
                match toks[k].text.as_str() {
                    "[" => d += 1,
                    "]" => d -= 1,
                    _ => {}
                }
                k += 1;
            }
        }
        let mut end = k;
        while end < toks.len() {
            match toks[end].text.as_str() {
                ";" => {
                    end += 1;
                    break;
                }
                "{" => {
                    let mut d = 1;
                    end += 1;
                    while end < toks.len() && d > 0 {
                        match toks[end].text.as_str() {
                            "{" => d += 1,
                            "}" => d -= 1,
                            _ => {}
                        }
                        end += 1;
                    }
                    break;
                }
                _ => end += 1,
            }
        }
        for m in mask.iter_mut().take(end.min(toks.len())).skip(i) {
            *m = true;
        }
        i = end;
    }
    mask
}

// ---------------------------------------------------------------------
// Rules
// ---------------------------------------------------------------------

const ITEM_KEYWORDS: &[&str] =
    &["fn", "struct", "enum", "trait", "mod", "const", "static", "type", "union"];

/// Lints one file's source. Returns the findings plus every (non-test)
/// metric registration site for the workspace-level exactly-once check.
pub fn lint_source(path: &str, class: FileClass, src: &str) -> (Vec<Finding>, Vec<MetricReg>) {
    let Lexed { toks, comments } = lex(src);
    let mask = test_mask(&toks);
    let mut findings = Vec::new();
    let mut metrics = Vec::new();
    let in_obs_crate = path.contains("crates/obs/") || path.starts_with("obs/");

    let finding = |line: u32, rule: &'static str, message: String| Finding {
        file: path.to_string(),
        line,
        rule,
        message,
    };

    for i in 0..toks.len() {
        if mask[i] {
            continue;
        }
        let t = &toks[i];
        let prev = i.checked_sub(1).map(|p| &toks[p]);
        let next = toks.get(i + 1);

        // unsafe-needs-safety: applies to every class.
        if t.kind == TokKind::Ident
            && t.text == "unsafe"
            && next.map(|n| n.text.as_str()) == Some("{")
        {
            // A `// SAFETY:` comment anywhere in the contiguous comment
            // block directly above the `unsafe` (or on the line itself /
            // the line after, for trailing and inner-comment styles).
            let comment_lines: std::collections::HashSet<u32> =
                comments.iter().map(|c| c.line).collect();
            let documented = comments.iter().any(|c| {
                c.text.contains("SAFETY:")
                    && c.line <= t.line + 1
                    && (c.line + 1..t.line).all(|l| comment_lines.contains(&l))
            });
            if !documented {
                findings.push(finding(
                    t.line,
                    "unsafe-needs-safety",
                    "unsafe block without a `// SAFETY:` comment justifying it".into(),
                ));
            }
        }

        if class == FileClass::TestOrBench {
            continue;
        }

        // no-unwrap: hot request paths only.
        if class == FileClass::Hot
            && t.kind == TokKind::Ident
            && (t.text == "unwrap" || t.text == "expect")
            && prev.map(|p| p.text.as_str()) == Some(".")
            && next.map(|n| n.text.as_str()) == Some("(")
        {
            findings.push(finding(
                t.line,
                "no-unwrap",
                format!(
                    "`.{}(...)` in a request-handling path — return a protocol error instead \
                     of panicking a worker",
                    t.text
                ),
            ));
        }

        // metric-name: registration sites `.counter("name" ...)` etc.
        if !in_obs_crate
            && t.kind == TokKind::Ident
            && matches!(
                t.text.as_str(),
                "counter" | "counter_with" | "gauge" | "histogram" | "histogram_with"
            )
            && prev.map(|p| p.text.as_str()) == Some(".")
            && next.map(|n| n.text.as_str()) == Some("(")
        {
            // First argument: an optional `&` then a string literal.
            let mut a = i + 2;
            if toks.get(a).map(|x| x.text.as_str()) == Some("&") {
                a += 1;
            }
            if let Some(arg) = toks.get(a).filter(|x| x.kind == TokKind::Str) {
                let name = arg.text.clone();
                let valid = name.strip_prefix("cfq_").is_some_and(|rest| {
                    !rest.is_empty()
                        && rest.chars().all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
                });
                if !valid {
                    findings.push(finding(
                        t.line,
                        "metric-name",
                        format!("metric `{name}` does not match `cfq_[a-z0-9_]+`"),
                    ));
                } else if t.text.starts_with("counter") && !name.ends_with("_total") {
                    findings.push(finding(
                        t.line,
                        "metric-name",
                        format!("counter `{name}` must end in `_total`"),
                    ));
                } else if name.starts_with("cfq_wal_") || name.starts_with("cfq_snapshot_") {
                    match DURABILITY_METRICS.iter().find(|(n, _)| *n == name) {
                        None => findings.push(finding(
                            t.line,
                            "durability-metric",
                            format!(
                                "durability metric `{name}` is not in the catalog — add it \
                                 to DURABILITY_METRICS (lint.rs) or fix the name"
                            ),
                        )),
                        Some((_, kind)) if !t.text.starts_with(kind) => findings.push(finding(
                            t.line,
                            "durability-metric",
                            format!(
                                "durability metric `{name}` must be registered as a {kind}, \
                                 not `{}`",
                                t.text
                            ),
                        )),
                        Some(_) => {}
                    }
                }
                metrics.push(MetricReg {
                    name,
                    kind: t.text.clone(),
                    file: path.to_string(),
                    line: t.line,
                });
            }
        }

        // span-guard-bound: statement-position `obs::span(...)`.
        if t.kind == TokKind::Ident
            && t.text == "obs"
            && toks.get(i + 1).map(|x| x.text.as_str()) == Some(":")
            && toks.get(i + 2).map(|x| x.text.as_str()) == Some(":")
            && toks.get(i + 3).map(|x| x.text.as_str()) == Some("span")
            && toks.get(i + 4).map(|x| x.text.as_str()) == Some("(")
        {
            let at_statement_start =
                prev.is_none() || matches!(prev.map(|p| p.text.as_str()), Some(";" | "{" | "}"));
            if at_statement_start {
                findings.push(finding(
                    t.line,
                    "span-guard-bound",
                    "`obs::span(...)` guard dropped immediately — bind it \
                     (`let _span = obs::span(...)`) so the span covers the work"
                        .into(),
                ));
            }
        }

        // missing-docs: `pub` items (not `pub(...)`, not `pub use`).
        if t.kind == TokKind::Ident && t.text == "pub" {
            if matches!(next.map(|n| n.text.as_str()), Some("(") | Some("use")) {
                continue;
            }
            // Identify the item keyword within the next few tokens
            // (skipping `unsafe`, `async`, `extern "C"`, …).
            let mut kw = None;
            for x in toks.iter().skip(i + 1).take(4) {
                if x.kind == TokKind::Ident && ITEM_KEYWORDS.contains(&x.text.as_str()) {
                    kw = Some(x.text.clone());
                    break;
                }
            }
            let Some(kw) = kw else { continue };
            let name = toks
                .iter()
                .skip(i + 1)
                .skip_while(|x| x.text != kw)
                .skip(1)
                .find(|x| x.kind == TokKind::Ident)
                .map(|x| x.text.clone())
                .unwrap_or_default();
            // `pub mod name;` declarations carry their docs as `//!`
            // inner comments in the module file — rustdoc counts those,
            // so this rule must too.
            if kw == "mod" && toks.get(i + 3).map(|x| x.text.as_str()) == Some(";") {
                continue;
            }
            // Walk back over attribute groups to the item's first line.
            let mut start = i;
            while let Some(close) = start.checked_sub(1) {
                if toks[close].text != "]" {
                    break;
                }
                let mut d = 1;
                let mut open = close;
                while d > 0 {
                    let Some(p) = open.checked_sub(1) else { break };
                    open = p;
                    match toks[open].text.as_str() {
                        "]" => d += 1,
                        "[" => d -= 1,
                        _ => {}
                    }
                }
                match open.checked_sub(1) {
                    Some(h) if toks[h].text == "#" && d == 0 => start = h,
                    _ => break,
                }
            }
            let start_line = toks[start].line;
            let documented = comments.iter().any(|c| {
                (c.text.starts_with("///") || c.text.starts_with("/**"))
                    && c.line + 1 == start_line
            });
            if !documented {
                findings.push(finding(
                    t.line,
                    "missing-docs",
                    format!("public {kw} `{name}` has no doc comment"),
                ));
            }
        }
    }

    (findings, metrics)
}

// ---------------------------------------------------------------------
// Workspace walk
// ---------------------------------------------------------------------

/// Directory names never descended into.
const SKIP_DIRS: &[&str] = &["target", "vendor", ".git", "fixtures", "corpus"];

fn classify(rel: &str) -> FileClass {
    let parts: Vec<&str> = rel.split('/').collect();
    let file = parts.last().copied().unwrap_or_default();
    let crate_name = match parts.first() {
        Some(&"crates") => parts.get(1).copied().unwrap_or_default(),
        _ => "cfq",
    };
    // `benchmark/` is a package of its own outside the workspace: a
    // binary that measures the crates, like `crates/bench`.
    if crate_name == "bench"
        || parts.first() == Some(&"benchmark")
        || parts.iter().any(|p| matches!(*p, "tests" | "benches" | "examples" | "bin"))
    {
        return FileClass::TestOrBench;
    }
    if HOT_FILES.contains(&file) && parts.contains(&"src") {
        return FileClass::Hot;
    }
    FileClass::Normal
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else { return };
    let mut paths: Vec<PathBuf> = entries.flatten().map(|e| e.path()).collect();
    paths.sort();
    for p in paths {
        if p.is_dir() {
            let name = p.file_name().and_then(|n| n.to_str()).unwrap_or_default();
            if !SKIP_DIRS.contains(&name) {
                walk(&p, out);
            }
        } else if p.extension().and_then(|e| e.to_str()) == Some("rs") {
            out.push(p);
        }
    }
}

/// Lints every Rust source in the workspace rooted at `root`.
pub fn lint_workspace(root: &Path) -> LintReport {
    let mut files = Vec::new();
    walk(root, &mut files);
    let mut findings = Vec::new();
    let mut regs: Vec<MetricReg> = Vec::new();
    for path in &files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        let Ok(src) = fs::read_to_string(path) else { continue };
        let (mut f, mut m) = lint_source(&rel, classify(&rel), src.as_str());
        findings.append(&mut f);
        regs.append(&mut m);
    }
    // Exactly-once registration: the same metric name at two distinct
    // call sites is a split registration.
    let mut names: Vec<&str> = regs.iter().map(|r| r.name.as_str()).collect();
    names.sort_unstable();
    names.dedup();
    for name in &names {
        let sites: Vec<&MetricReg> = regs.iter().filter(|r| r.name == *name).collect();
        if sites.len() > 1 {
            for extra in &sites[1..] {
                findings.push(Finding {
                    file: extra.file.clone(),
                    line: extra.line,
                    rule: "metric-name",
                    message: format!(
                        "metric `{name}` registered at {} sites (first at {}:{})",
                        sites.len(),
                        sites[0].file,
                        sites[0].line
                    ),
                });
            }
        }
    }
    findings.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    LintReport { findings, files: files.len(), metrics: names.len() }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hot(src: &str) -> Vec<Finding> {
        lint_source("crates/engine/src/scheduler.rs", FileClass::Hot, src).0
    }

    #[test]
    fn lexer_skips_strings_comments_and_lifetimes() {
        let mut src = String::new();
        src.push_str("// .unwrap() in a comment\n");
        src.push_str("/* nested /* block */ .unwrap() */\n");
        src.push_str("fn f<'a>(_s: &'a str) -> char {\n");
        src.push_str("    let _x = \".unwrap()\";\n");
        src.push_str("    let _r = r#\".expect(\"#;\n");
        src.push_str("    let _b = b\"bytes .unwrap()\";\n");
        src.push_str("    '\\''\n}\n");
        assert!(hot(&src).is_empty(), "{:?}", hot(&src));
    }

    #[test]
    fn unwrap_in_hot_path_flagged_and_test_code_excluded() {
        let src = "
            fn f(x: Option<u8>) -> u8 { x.unwrap() }
            fn g(x: Option<u8>) -> u8 { x.expect(\"boom\") }
            #[cfg(test)]
            mod tests {
                #[test]
                fn t() { Some(1u8).unwrap(); }
            }
        ";
        let f = hot(src);
        assert_eq!(f.len(), 2, "{f:?}");
        assert!(f.iter().all(|x| x.rule == "no-unwrap"));
        // The same source in a normal file is fine.
        let (f, _) = lint_source("crates/core/src/ccc.rs", FileClass::Normal, src);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn unsafe_requires_safety_comment() {
        let bad = "fn f(p: *const u8) -> u8 { unsafe { *p } }";
        let (f, _) = lint_source("x.rs", FileClass::Normal, bad);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "unsafe-needs-safety");
        let good = "fn f(p: *const u8) -> u8 {\n    // SAFETY: p is valid per the caller contract.\n    unsafe { *p }\n}";
        let (f, _) = lint_source("x.rs", FileClass::Normal, good);
        assert!(f.is_empty(), "{f:?}");
        // `unsafe fn` declarations are not blocks.
        let decl = "/// Docs.\npub unsafe fn f() {}";
        let (f, _) = lint_source("x.rs", FileClass::Normal, decl);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn metric_names_are_checked() {
        let src = r#"
            fn wire(r: &obs::Registry) {
                r.counter("cfq_good_total", "d");
                r.counter("cfq_bad_count", "d");
                r.gauge("queue_depth", "d");
                r.histogram("cfq_lat_micros", "d");
                r.histogram_with("cfq_stage_seconds", "d", &[("stage", s)], &b);
            }
        "#;
        let (f, m) = lint_source("crates/cli/src/commands.rs", FileClass::Normal, src);
        assert_eq!(m.len(), 5);
        let rules: Vec<&str> = f.iter().map(|x| x.message.as_str()).collect();
        assert_eq!(f.len(), 2, "{rules:?}");
        assert!(f.iter().any(|x| x.message.contains("cfq_bad_count")), "{rules:?}");
        assert!(f.iter().any(|x| x.message.contains("queue_depth")), "{rules:?}");
        // The obs crate registers internals without the prefix rule.
        let (f, m) = lint_source("crates/obs/src/metrics.rs", FileClass::Normal, src);
        assert!(f.is_empty() && m.is_empty());
    }

    #[test]
    fn unbound_span_guard_flagged() {
        let bad = "fn f() { obs::span(\"cfq.q\", &[]); work(); }";
        let (f, _) = lint_source("x.rs", FileClass::Normal, bad);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "span-guard-bound");
        let good = "fn f() { let _s = obs::span(\"cfq.q\", &[]); work(); }";
        let (f, _) = lint_source("x.rs", FileClass::Normal, good);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn missing_docs_on_pub_items() {
        let bad = "pub fn naked() {}";
        let (f, _) = lint_source("x.rs", FileClass::Normal, bad);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "missing-docs");
        let good = "/// Documented.\n#[inline]\npub fn dressed() {}";
        let (f, _) = lint_source("x.rs", FileClass::Normal, good);
        assert!(f.is_empty(), "{f:?}");
        // Scoped visibility and re-exports are exempt; so are test files.
        let exempt = "pub(crate) fn a() {}\npub use std::fmt;";
        let (f, _) = lint_source("x.rs", FileClass::Normal, exempt);
        assert!(f.is_empty(), "{f:?}");
        let (f, _) = lint_source("x.rs", FileClass::TestOrBench, bad);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn classification_covers_the_workspace_shapes() {
        assert_eq!(classify("crates/engine/src/scheduler.rs"), FileClass::Hot);
        assert_eq!(classify("crates/cli/src/serve.rs"), FileClass::Hot);
        assert_eq!(classify("crates/engine/src/dispatch.rs"), FileClass::Hot);
        assert_eq!(classify("crates/engine/src/wire.rs"), FileClass::Hot);
        assert_eq!(classify("crates/engine/src/metrics.rs"), FileClass::Normal);
        assert_eq!(classify("crates/engine/src/engine.rs"), FileClass::Normal);
        assert_eq!(classify("crates/engine/tests/concurrency.rs"), FileClass::TestOrBench);
        assert_eq!(classify("crates/bench/src/table.rs"), FileClass::TestOrBench);
        assert_eq!(classify("benchmark/src/report.rs"), FileClass::TestOrBench);
        assert_eq!(classify("tests/equivalence.rs"), FileClass::TestOrBench);
        assert_eq!(classify("src/lib.rs"), FileClass::Normal);
    }

    #[test]
    fn durability_metrics_come_from_the_catalog() {
        let src = r#"
            fn wire(r: &obs::Registry) {
                r.counter("cfq_wal_records_total", "d");
                r.gauge("cfq_snapshot_last_epoch", "d");
                r.counter("cfq_wal_torn_tails_total", "d");
                r.gauge("cfq_wal_bytes_total", "d");
            }
        "#;
        let (f, m) = lint_source("crates/cli/src/serve.rs", FileClass::Hot, src);
        assert_eq!(m.len(), 4);
        let hits: Vec<&Finding> = f.iter().filter(|x| x.rule == "durability-metric").collect();
        assert_eq!(hits.len(), 2, "{f:?}");
        // Unknown family name: points at the catalog.
        assert!(
            hits.iter().any(|x| x.message.contains("cfq_wal_torn_tails_total")
                && x.message.contains("DURABILITY_METRICS")),
            "{hits:?}"
        );
        // Known name, wrong instrument: a byte counter is not a gauge.
        assert!(
            hits.iter().any(|x| x.message.contains("cfq_wal_bytes_total")
                && x.message.contains("counter")),
            "{hits:?}"
        );
    }

    #[test]
    fn duplicate_metric_registration_is_cross_file() {
        // Exercised through lint_workspace in the fixture integration
        // test; here just confirm a single file yields its sites.
        let src = "fn a(r: &R) { r.counter(\"cfq_x_total\", \"d\"); }";
        let (_, m) = lint_source("a.rs", FileClass::Normal, src);
        assert_eq!(m[0].name, "cfq_x_total");
        assert_eq!(m[0].kind, "counter");
    }
}
