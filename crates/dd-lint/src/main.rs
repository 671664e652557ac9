//! `dd-lint` binary: lints the workspace tree and exits nonzero on any
//! unsuppressed finding.
//!
//! ```text
//! dd-lint [--format human|sarif] [--emit PATH] [--effects PATH]
//!         [--explain PATTERN] [--root DIR]
//! ```
//!
//! Without `--root`, the workspace root is found by walking up from the
//! current directory to the nearest `dd-lint.toml`. `--emit PATH` writes
//! the resolved workspace call graph as Graphviz DOT (conventionally
//! `callgraph.dot`); `--effects PATH` writes the inferred per-function
//! effect table as JSON (conventionally `effects.json`); `--explain
//! PATTERN` prints, instead of findings, the effect provenance of every
//! function matching the entry-point pattern.
//!
//! Exit codes are a stable contract, relied on by CI:
//!
//! * `0` — analysis ran, no unsuppressed findings (or `--explain` ran).
//! * `1` — analysis ran and produced at least one finding.
//! * `2` — the analysis could not run: usage error, unreadable tree or
//!   `dd-lint.toml`, malformed configuration, or an unwritable output
//!   path.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

enum Format {
    Human,
    Sarif,
}

const USAGE: &str = "usage: dd-lint [--format human|sarif] [--emit PATH] \
                     [--effects PATH] [--explain PATTERN] [--root DIR]";

/// Parsed command line.
struct Options {
    format: Format,
    root: Option<PathBuf>,
    emit: Option<PathBuf>,
    effects: Option<PathBuf>,
    explain: Option<String>,
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(Some(opts)) => opts,
        Ok(None) => {
            // --help.
            println!("{USAGE}");
            println!("exit codes: 0 clean, 1 findings, 2 config or I/O error");
            return ExitCode::SUCCESS;
        }
        Err(message) => {
            eprintln!("dd-lint: {message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    let root = match opts.root.clone().or_else(find_root) {
        Some(root) => root,
        None => {
            eprintln!(
                "dd-lint: no {} found walking up from the current directory; pass --root",
                dd_lint::CONFIG_FILE
            );
            return ExitCode::from(2);
        }
    };

    ExitCode::from(run(&opts, &root))
}

/// Parses the raw arguments. `Ok(None)` means `--help` was requested.
fn parse_args(args: &[String]) -> Result<Option<Options>, String> {
    let mut opts = Options {
        format: Format::Human,
        root: None,
        emit: None,
        effects: None,
        explain: None,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--format" => match it.next().map(String::as_str) {
                Some("human") => opts.format = Format::Human,
                Some("sarif") => opts.format = Format::Sarif,
                other => return Err(format!("--format expects human|sarif, got {other:?}")),
            },
            "--root" => match it.next() {
                Some(dir) => opts.root = Some(PathBuf::from(dir)),
                None => return Err("--root expects a directory".into()),
            },
            "--emit" => match it.next() {
                Some(path) => opts.emit = Some(PathBuf::from(path)),
                None => return Err("--emit expects an output path (e.g. callgraph.dot)".into()),
            },
            "--effects" => match it.next() {
                Some(path) => opts.effects = Some(PathBuf::from(path)),
                None => return Err("--effects expects an output path (e.g. effects.json)".into()),
            },
            "--explain" => match it.next() {
                Some(pattern) => opts.explain = Some(pattern.clone()),
                None => return Err("--explain expects an entry-point pattern".into()),
            },
            "--help" | "-h" => return Ok(None),
            other => return Err(format!("unexpected argument {other:?}")),
        }
    }
    Ok(Some(opts))
}

/// Runs the analysis and side outputs; returns the process exit code.
fn run(opts: &Options, root: &Path) -> u8 {
    let analysis = match dd_lint::analyze_tree(root) {
        Ok(analysis) => analysis,
        Err(err) => {
            eprintln!("dd-lint: {err}");
            return 2;
        }
    };
    if let Some(path) = &opts.emit {
        if let Err(e) = std::fs::write(path, analysis.callgraph_dot()) {
            eprintln!("dd-lint: write {}: {e}", path.display());
            return 2;
        }
    }
    if let Some(path) = &opts.effects {
        let mut json = analysis.effect_table().render_json();
        json.push('\n');
        if let Err(e) = std::fs::write(path, json) {
            eprintln!("dd-lint: write {}: {e}", path.display());
            return 2;
        }
    }
    if let Some(pattern) = &opts.explain {
        print!("{}", analysis.explain(pattern));
        return 0;
    }
    let findings = &analysis.findings;
    let rendered = match opts.format {
        Format::Human => dd_lint::render_human(findings),
        Format::Sarif => {
            dd_lint::render_sarif_with_effects(findings, Some(&analysis.effect_table()))
        }
    };
    print!("{rendered}");
    if matches!(opts.format, Format::Sarif) {
        println!();
    }
    u8::from(!findings.is_empty())
}

/// Nearest ancestor directory (including the current one) containing
/// `dd-lint.toml`.
fn find_root() -> Option<PathBuf> {
    let mut dir = std::env::current_dir().ok()?;
    loop {
        if dir.join(dd_lint::CONFIG_FILE).is_file() {
            return Some(dir);
        }
        if !dir.pop() {
            return None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn args_parse_and_reject() {
        let opts = parse_args(&[
            "--format".into(),
            "sarif".into(),
            "--effects".into(),
            "effects.json".into(),
        ])
        .unwrap()
        .unwrap();
        assert!(matches!(opts.format, Format::Sarif));
        assert_eq!(opts.effects.as_deref(), Some(Path::new("effects.json")));
        assert!(parse_args(&["--help".into()]).unwrap().is_none());
        assert!(parse_args(&["--format".into()]).is_err());
        assert!(parse_args(&["--explain".into()]).is_err());
        assert!(parse_args(&["--bogus".into()]).is_err());
    }

    /// Exit-code contract over temp trees: 0 clean, 1 findings, 2 config
    /// error.
    #[test]
    fn exit_codes_over_temp_trees() {
        let base = std::env::temp_dir().join("dd-lint-exit-codes");
        std::fs::remove_dir_all(&base).ok();
        let opts = Options {
            format: Format::Human,
            root: None,
            emit: None,
            effects: None,
            explain: None,
        };

        let config = "[rule.wall-clock]\ncrates = [\"*\"]\n";

        let clean = base.join("clean");
        std::fs::create_dir_all(clean.join("src")).unwrap();
        std::fs::write(clean.join(dd_lint::CONFIG_FILE), config).unwrap();
        std::fs::write(clean.join("src/lib.rs"), "pub fn main() {}\n").unwrap();
        assert_eq!(run(&opts, &clean), 0);

        let dirty = base.join("dirty");
        std::fs::create_dir_all(dirty.join("src")).unwrap();
        std::fs::write(dirty.join(dd_lint::CONFIG_FILE), config).unwrap();
        std::fs::write(
            dirty.join("src/lib.rs"),
            "fn main() {\n    let t = std::time::Instant::now();\n}\n",
        )
        .unwrap();
        assert_eq!(run(&opts, &dirty), 1);

        let broken = base.join("broken");
        std::fs::create_dir_all(broken.join("src")).unwrap();
        std::fs::write(
            broken.join(dd_lint::CONFIG_FILE),
            "[rule.wall-clock]\nbogus_key = []\n",
        )
        .unwrap();
        std::fs::write(broken.join("src/lib.rs"), "pub fn main() {}\n").unwrap();
        assert_eq!(run(&opts, &broken), 2);

        // Missing tree entirely.
        assert_eq!(run(&opts, &base.join("missing")), 2);
        std::fs::remove_dir_all(&base).ok();
    }
}
