//! Minimal argument parsing (no external dependencies): `--key value`
//! options, `--flag` booleans, and positional arguments, each command
//! naming the options it reads — plus [`MiningArgs`], the
//! `--threads/--trim/--backend` surface of the two offline mining
//! subcommands (`query`, `mine`), parsed exactly once.

use cfq_mining::{AprioriConfig, CountingBackend};
use cfq_types::{CfqError, Result};
use std::collections::BTreeMap;

/// Parsed command-line arguments.
#[derive(Debug, Default)]
pub struct Args {
    /// Positional arguments in order.
    pub positional: Vec<String>,
    options: BTreeMap<String, String>,
    flags: Vec<String>,
}

impl Args {
    /// Parses `argv` (without the program/subcommand names). A `--name`
    /// in `option_names` takes the next token as its value, one in
    /// `flag_names` takes none, and any other is an error — not an option
    /// that swallows the token after it.
    pub fn parse_known<I: IntoIterator<Item = String>>(
        argv: I,
        flag_names: &[&str],
        option_names: &[&str],
    ) -> Result<Args> {
        let mut out = Args::default();
        let mut it = argv.into_iter();
        while let Some(tok) = it.next() {
            if let Some(name) = tok.strip_prefix("--") {
                if flag_names.contains(&name) {
                    out.flags.push(name.to_string());
                } else if !option_names.contains(&name) {
                    return Err(CfqError::Config(format!("unknown option --{name}")));
                } else {
                    let value = it.next().ok_or_else(|| {
                        CfqError::Config(format!("option --{name} needs a value"))
                    })?;
                    out.options.insert(name.to_string(), value);
                }
            } else {
                out.positional.push(tok);
            }
        }
        Ok(out)
    }

    /// A string option.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.options.get(name).map(|s| s.as_str())
    }

    /// A required string option.
    pub fn require(&self, name: &str) -> Result<&str> {
        self.get(name)
            .ok_or_else(|| CfqError::Config(format!("missing required option --{name}")))
    }

    /// A parsed numeric option with default.
    pub fn num<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| {
                CfqError::Config(format!("option --{name}: cannot parse `{v}`"))
            }),
        }
    }

    /// Whether a boolean flag was given.
    pub fn flag(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f == name)
    }
}

/// The mining-knob flags shared by `cfq query` and `cfq mine`:
/// `--threads N`, `--trim on|off`,
/// `--backend horizontal|tidset|bitmap|auto`. One parse, one validation.
/// (`cfq serve` and `cfq repl` take none of them: a served query counts
/// the engine's one way.)
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MiningArgs {
    /// Support-counting threads (0 = all cores).
    pub threads: usize,
    /// Per-level database reduction between counting passes.
    pub trim: bool,
    /// Support-counting backend.
    pub backend: CountingBackend,
}

impl MiningArgs {
    /// The help lines for the shared flags, so every subcommand's usage
    /// text stays in sync.
    pub const HELP: &'static str = "\
[--threads N]           support-counting threads (0 = all cores)\n\
[--trim on|off]         per-level database reduction (default on)\n\
[--backend NAME]        counting backend (horizontal|tidset|bitmap|auto)";

    /// The option names [`MiningArgs::from_args`] reads, for the option
    /// list of each subcommand that takes them.
    pub const OPTIONS: &'static [&'static str] = &["threads", "trim", "backend"];

    /// Parses the three shared flags out of `a`; threads default to 0
    /// (all cores).
    pub fn from_args(a: &Args) -> Result<MiningArgs> {
        let backend = match a.get("backend") {
            None => CountingBackend::Horizontal,
            Some(name) => CountingBackend::parse(name).ok_or_else(|| {
                CfqError::Config(format!(
                    "bad --backend `{name}` (use horizontal|tidset|bitmap|auto)"
                ))
            })?,
        };
        let trim = match a.get("trim") {
            None | Some("on") | Some("true") | Some("1") => true,
            Some("off") | Some("false") | Some("0") => false,
            Some(other) => {
                return Err(CfqError::Config(format!("bad --trim `{other}` (use on|off)")))
            }
        };
        Ok(MiningArgs { threads: a.num("threads", 0)?, trim, backend })
    }

    /// Applies the knobs to an [`AprioriConfig`] — the `mine` path.
    pub fn apply_to_apriori(&self, cfg: AprioriConfig) -> AprioriConfig {
        cfg.with_counting_threads(self.threads).with_trim(self.trim).with_backend(self.backend)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(v: &[&str]) -> Args {
        let options = ["min-support", "n"];
        Args::parse_known(v.iter().map(|s| s.to_string()), &["explain", "rules"], &options).unwrap()
    }

    #[test]
    fn options_flags_positional() {
        let a = parse(&["query.txt", "--min-support", "0.01", "--explain", "extra"]);
        assert_eq!(a.positional, vec!["query.txt", "extra"]);
        assert_eq!(a.get("min-support"), Some("0.01"));
        assert!(a.flag("explain"));
        assert!(!a.flag("rules"));
    }

    #[test]
    fn numeric_parsing_and_defaults() {
        let a = parse(&["--n", "42"]);
        assert_eq!(a.num("n", 0u32).unwrap(), 42);
        assert_eq!(a.num("missing", 7u32).unwrap(), 7);
        assert!(a.num::<u32>("n", 0).is_ok());
        let b = parse(&["--n", "xyz"]);
        assert!(b.num::<u32>("n", 0).is_err());
    }

    #[test]
    fn missing_value_is_an_error() {
        let r = Args::parse_known(vec!["--lonely".to_string()], &[], &["lonely"]);
        assert!(r.is_err());
    }

    #[test]
    fn parse_known_rejects_options_the_command_does_not_read() {
        let known = |v: &[&str]| {
            Args::parse_known(v.iter().map(|s| s.to_string()), &[], &["listen", "max-clients"])
        };
        let a = known(&["--listen", "127.0.0.1:0", "--max-clients", "4"]).unwrap();
        assert_eq!(a.get("listen"), Some("127.0.0.1:0"));
        // A removed flag must not eat `--listen`, nor a typo its value,
        // nor either be reported as an option short of one.
        for (argv, name) in [
            (&["--legacy-protocol", "--listen", "127.0.0.1:0"][..], "legacy-protocol"),
            (&["--listen", "127.0.0.1:0", "--max-client", "4"][..], "max-client"),
            (&["--legacy-protocol"][..], "legacy-protocol"),
        ] {
            match known(argv) {
                Err(CfqError::Config(msg)) => assert_eq!(msg, format!("unknown option --{name}")),
                other => panic!("{argv:?} -> {other:?}"),
            }
        }
    }

    #[test]
    fn require_reports_missing() {
        let a = parse(&[]);
        assert!(a.require("data").is_err());
    }

    fn mining(v: &[&str]) -> Result<MiningArgs> {
        MiningArgs::from_args(&Args::parse_known(
            v.iter().map(|s| s.to_string()),
            &[],
            MiningArgs::OPTIONS,
        )?)
    }

    #[test]
    fn mining_args_defaults_and_parsing() {
        let m = mining(&[]).unwrap();
        assert_eq!(m, MiningArgs { threads: 0, trim: true, backend: CountingBackend::Horizontal });

        let m = mining(&["--threads", "4", "--trim", "off", "--backend", "bitmap"]).unwrap();
        assert_eq!(m, MiningArgs { threads: 4, trim: false, backend: CountingBackend::Bitmap });
    }

    #[test]
    fn mining_args_rejects_bad_values() {
        assert!(mining(&["--trim", "sideways"]).is_err());
        assert!(mining(&["--backend", "diagonal"]).is_err());
        assert!(mining(&["--threads", "many"]).is_err());
    }

    #[test]
    fn mining_args_apply_to_apriori() {
        let m = mining(&["--threads", "2", "--trim", "off", "--backend", "auto"]).unwrap();
        let apriori = m.apply_to_apriori(AprioriConfig::new(5));
        assert_eq!(apriori.counting_threads, 2);
        assert!(!apriori.trim);
        assert_eq!(apriori.backend, CountingBackend::Auto);
    }
}
