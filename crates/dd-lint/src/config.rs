//! `dd-lint.toml` — per-rule scoping configuration.
//!
//! A deliberately tiny TOML subset (hand-rolled, offline-policy): section
//! headers `[rule.<name>]` and five array-of-string keys per section:
//! `crates` (crate directory names, `"*"` for all), `files`
//! (workspace-relative paths), `entry_points` (`::`-separated symbol
//! patterns rooting the graph rules — see [`RuleScope::entry_points`]),
//! `sinks` (fan-out sink patterns for `par-purity`), and `contracts`
//! (`"pattern = level"` declared-effect entries for `effect-contract`).
//! Anything else — unknown sections, unknown rules, unknown keys,
//! duplicate sections or keys, malformed arrays, unparsable contract
//! levels — is a configuration error, never silently ignored.

use crate::effects::Effect;
use crate::rules::RULE_NAMES;
use std::collections::{BTreeMap, BTreeSet};

/// Scope of one rule.
#[derive(Debug, Clone, Default)]
pub struct RuleScope {
    /// Crate directory names the rule applies to; `*` means every crate.
    /// For graph rules this is the *reporting* scope: the traversal
    /// crosses every crate, but findings are only emitted in these.
    pub crates: Vec<String>,
    /// Workspace-relative file paths the rule applies to. For the
    /// hot-path graph rules these double as root *files*: every function
    /// defined in a listed file is a traversal root, and the whole file
    /// is still token-checked line by line (v1 back-compat).
    pub files: Vec<String>,
    /// Graph-rule roots as `::`-separated symbol patterns. The last
    /// segment must equal the function name; every earlier segment must
    /// match the symbol's crate, an inline-module segment, its impl type
    /// or its trait (e.g. `Executor::run`, `dd-bench::experiments::run`,
    /// `dd-platform::DesFaasExecutor::run_with`).
    pub entry_points: Vec<String>,
    /// Fan-out sink patterns for `par-purity` (same syntax as
    /// `entry_points`): functions whose callees execute in parallel
    /// (`par_map`, the sweep executor submit, `FrontDoor::serve`). The
    /// sink itself is the synchronization barrier and is exempt; its
    /// direct callers are the fan-out contexts whose transitive callees
    /// must infer `⊑ panic`.
    pub sinks: Vec<String>,
    /// `effect-contract` entries: `(pattern, declared effect)`. Every
    /// function matching the pattern must infer an effect `⊑` the
    /// declared one — a CI-enforced API contract against silent effect
    /// strengthening.
    pub contracts: Vec<(String, Effect)>,
}

impl RuleScope {
    /// Whether the rule covers `crate_name` / `rel_path`.
    pub fn covers(&self, crate_name: &str, rel_path: &str) -> bool {
        self.crates.iter().any(|c| c == "*" || c == crate_name)
            || self.files.iter().any(|f| f == rel_path)
    }

    /// Whether the rule's `crates` list covers `crate_name` (the
    /// reporting scope of graph rules, which deliberately ignores
    /// `files` — those are fully covered by the per-file pass).
    pub fn covers_crate(&self, crate_name: &str) -> bool {
        self.crates.iter().any(|c| c == "*" || c == crate_name)
    }
}

/// Parsed configuration: rule name → scope.
#[derive(Debug, Clone, Default)]
pub struct Config {
    pub rules: BTreeMap<String, RuleScope>,
}

/// A configuration parse error with its line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    pub line: usize,
    pub message: String,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "dd-lint.toml:{}: {}", self.line, self.message)
    }
}

impl std::error::Error for ConfigError {}

impl Config {
    /// Scope for `rule`, empty (covers nothing) when unconfigured.
    pub fn scope(&self, rule: &str) -> RuleScope {
        self.rules.get(rule).cloned().unwrap_or_default()
    }

    /// Parses the `dd-lint.toml` subset described in the module docs.
    pub fn parse(text: &str) -> Result<Config, ConfigError> {
        let mut rules: BTreeMap<String, RuleScope> = BTreeMap::new();
        let mut current: Option<String> = None;
        // Duplicate sections and duplicate keys within a section would
        // silently overwrite (or merge) scopes — configuration rot that
        // must be an error, not a guess.
        let mut seen_keys: BTreeSet<(String, String)> = BTreeSet::new();
        for (idx, raw) in text.lines().enumerate() {
            let lineno = idx + 1;
            let line = strip_toml_comment(raw).trim().to_string();
            if line.is_empty() {
                continue;
            }
            if let Some(section) = line.strip_prefix('[') {
                let section = section.strip_suffix(']').ok_or_else(|| ConfigError {
                    line: lineno,
                    message: "unterminated section header".into(),
                })?;
                let rule = section.strip_prefix("rule.").ok_or_else(|| ConfigError {
                    line: lineno,
                    message: format!("unknown section [{section}] (expected [rule.<name>])"),
                })?;
                if !RULE_NAMES.contains(&rule) {
                    return Err(ConfigError {
                        line: lineno,
                        message: format!("unknown rule {rule:?} (known: {RULE_NAMES:?})"),
                    });
                }
                if rules.contains_key(rule) {
                    return Err(ConfigError {
                        line: lineno,
                        message: format!("duplicate section [rule.{rule}]"),
                    });
                }
                rules.insert(rule.to_string(), RuleScope::default());
                current = Some(rule.to_string());
                continue;
            }
            let (key, value) = line.split_once('=').ok_or_else(|| ConfigError {
                line: lineno,
                message: format!("expected `key = [..]`, got {line:?}"),
            })?;
            let rule = current.as_ref().ok_or_else(|| ConfigError {
                line: lineno,
                message: "key outside a [rule.<name>] section".into(),
            })?;
            let key = key.trim().to_string();
            if !seen_keys.insert((rule.clone(), key.clone())) {
                return Err(ConfigError {
                    line: lineno,
                    message: format!("duplicate key {key:?} in [rule.{rule}]"),
                });
            }
            let items = parse_string_array(value.trim()).map_err(|message| ConfigError {
                line: lineno,
                message,
            })?;
            let scope = rules.get_mut(rule).expect("section inserted above");
            match key.as_str() {
                "crates" => scope.crates = items,
                "files" => scope.files = items,
                "entry_points" => scope.entry_points = items,
                "sinks" => scope.sinks = items,
                "contracts" => {
                    scope.contracts = items
                        .iter()
                        .map(|item| parse_contract(item))
                        .collect::<Result<_, _>>()
                        .map_err(|message| ConfigError {
                            line: lineno,
                            message,
                        })?;
                }
                other => {
                    return Err(ConfigError {
                        line: lineno,
                        message: format!(
                            "unknown key {other:?} (expected \
                             crates/files/entry_points/sinks/contracts)"
                        ),
                    })
                }
            }
        }
        Ok(Config { rules })
    }
}

/// Parses one `contracts` item: `"<pattern> = <level>"`, where the level
/// is an effect spec (`pure`, `alloc`, `panic`, `shared-mut`, `nondet`,
/// `nondet(time, rng, hash-order)`, `io`).
fn parse_contract(item: &str) -> Result<(String, Effect), String> {
    let (pattern, level) = item
        .split_once('=')
        .ok_or_else(|| format!("contract {item:?} must be \"<pattern> = <level>\""))?;
    let pattern = pattern.trim();
    if pattern.is_empty() {
        return Err(format!("contract {item:?} has an empty pattern"));
    }
    let effect = Effect::parse(level).ok_or_else(|| {
        format!(
            "contract {item:?} declares unknown effect level {:?} (expected \
             pure/alloc/panic/shared-mut/nondet[(kinds)]/io)",
            level.trim()
        )
    })?;
    Ok((pattern.to_string(), effect))
}

/// Removes a trailing `# …` comment, respecting quoted strings: a `#`
/// inside a basic (`"…"`, with `\"`/`\\` escapes) or literal (`'…'`)
/// TOML string is data, not a comment start.
fn strip_toml_comment(line: &str) -> &str {
    let mut quote: Option<char> = None;
    let mut escaped = false;
    for (i, c) in line.char_indices() {
        if escaped {
            escaped = false;
            continue;
        }
        match (quote, c) {
            // Backslash escapes exist only in basic strings.
            (Some('"'), '\\') => escaped = true,
            (Some(q), c) if c == q => quote = None,
            (Some(_), _) => {}
            (None, '"') | (None, '\'') => quote = Some(c),
            (None, '#') => return &line[..i],
            (None, _) => {}
        }
    }
    line
}

/// Parses `["a", "b"]` into its items.
fn parse_string_array(value: &str) -> Result<Vec<String>, String> {
    let inner = value
        .strip_prefix('[')
        .and_then(|v| v.strip_suffix(']'))
        .ok_or_else(|| format!("expected a [..] array, got {value:?}"))?;
    let mut items = Vec::new();
    for part in inner.split(',') {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        let item = part
            .strip_prefix('"')
            .and_then(|p| p.strip_suffix('"'))
            .ok_or_else(|| format!("expected a quoted string, got {part:?}"))?;
        items.push(item.to_string());
    }
    Ok(items)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_sections_and_arrays() {
        let cfg = Config::parse(
            "# comment\n[rule.wall-clock]\ncrates = [\"dd-platform\", \"core\"] # tail\n\n[rule.hot-path-panic]\nfiles = [\"crates/dd-platform/src/des.rs\"]\n",
        )
        .unwrap();
        let wc = cfg.scope("wall-clock");
        assert_eq!(wc.crates, vec!["dd-platform", "core"]);
        assert!(wc.covers("core", "crates/core/src/lib.rs"));
        assert!(!wc.covers("dd-bench", "crates/dd-bench/src/lib.rs"));
        let hp = cfg.scope("hot-path-panic");
        assert!(hp.covers("dd-platform", "crates/dd-platform/src/des.rs"));
        assert!(!hp.covers("dd-platform", "crates/dd-platform/src/pool.rs"));
    }

    #[test]
    fn hash_inside_quoted_string_is_not_a_comment() {
        // Regression: a `#` inside a quoted TOML string value used to be
        // treated as a comment start, truncating the array mid-item.
        let cfg =
            Config::parse("[rule.wall-clock]\nfiles = [\"crates/x/src/a#b.rs\"] # real comment\n")
                .unwrap();
        assert_eq!(cfg.scope("wall-clock").files, vec!["crates/x/src/a#b.rs"]);
        // Escaped quotes inside basic strings don't terminate them.
        assert_eq!(
            strip_toml_comment(r##"k = "a\"#b" # c"##),
            r##"k = "a\"#b" "##
        );
        // Literal (single-quoted) strings may hold both `#` and `"`.
        assert_eq!(strip_toml_comment("k = 'a#\"b' # c"), "k = 'a#\"b' ");
        // An unterminated string swallows the rest of the line (no panic).
        assert_eq!(strip_toml_comment("k = \"open # not"), "k = \"open # not");
    }

    #[test]
    fn entry_points_key_parses() {
        let cfg = Config::parse(
            "[rule.hot-path-panic]\nentry_points = [\"Executor::run\", \"dd-bench::run\"]\n",
        )
        .unwrap();
        assert_eq!(
            cfg.scope("hot-path-panic").entry_points,
            vec!["Executor::run", "dd-bench::run"]
        );
    }

    #[test]
    fn wildcard_covers_everything() {
        let cfg = Config::parse("[rule.float-ord]\ncrates = [\"*\"]\n").unwrap();
        assert!(cfg.scope("float-ord").covers("anything", "a/b.rs"));
    }

    #[test]
    fn unknown_rule_rejected() {
        let err = Config::parse("[rule.bogus]\n").unwrap_err();
        assert_eq!(err.line, 1);
        assert!(err.message.contains("unknown rule"));
    }

    #[test]
    fn unconfigured_rule_covers_nothing() {
        let cfg = Config::parse("").unwrap();
        assert!(!cfg.scope("wall-clock").covers("dd-platform", "x.rs"));
    }

    #[test]
    fn sinks_and_contracts_parse() {
        let cfg = Config::parse(
            "[rule.par-purity]\nsinks = [\"dd-bench::sweep::par_map\"]\n\
             [rule.effect-contract]\ncontracts = [\"Executor::run = panic\", \
             \"traffic::arrivals = nondet(rng)\"]\n",
        )
        .unwrap();
        assert_eq!(
            cfg.scope("par-purity").sinks,
            vec!["dd-bench::sweep::par_map"]
        );
        let contracts = cfg.scope("effect-contract").contracts;
        assert_eq!(contracts.len(), 2);
        assert_eq!(contracts[0].0, "Executor::run");
        assert_eq!(contracts[0].1.to_string(), "panic");
        assert_eq!(contracts[1].1.to_string(), "nondet(rng)");
    }

    #[test]
    fn bad_contract_levels_rejected() {
        let err =
            Config::parse("[rule.effect-contract]\ncontracts = [\"Executor::run = fancy\"]\n")
                .unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.contains("unknown effect level"), "{err}");
        assert!(
            Config::parse("[rule.effect-contract]\ncontracts = [\"no-level-here\"]\n").is_err()
        );
    }

    #[test]
    fn duplicate_sections_and_keys_rejected() {
        let err =
            Config::parse("[rule.wall-clock]\ncrates = [\"a\"]\n[rule.wall-clock]\n").unwrap_err();
        assert_eq!(err.line, 3);
        assert!(err.message.contains("duplicate section"), "{err}");
        let err =
            Config::parse("[rule.wall-clock]\ncrates = [\"a\"]\ncrates = [\"b\"]\n").unwrap_err();
        assert_eq!(err.line, 3);
        assert!(err.message.contains("duplicate key"), "{err}");
    }

    #[test]
    fn malformed_lines_error_with_position() {
        assert_eq!(Config::parse("[rule.wall-clock\n").unwrap_err().line, 1);
        assert!(Config::parse("crates = [\"x\"]\n")
            .unwrap_err()
            .message
            .contains("outside"));
        assert!(Config::parse("[rule.wall-clock]\ncrates = \"x\"\n").is_err());
    }
}
