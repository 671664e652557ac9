//! Fixture-driven self-tests: one positive and one suppressed case per
//! rule, exact `file:line:rule` spans, JSON schema stability, and a
//! clean-tree check over the real workspace.

use dd_lint::{lint_source, lint_tree, Config, Finding};
use std::path::Path;

/// Scoping used for the fixtures: file-scoped rules pin down exactly
/// which fixture each file-sensitive rule sees.
const FIXTURE_CONFIG: &str = r#"
[rule.hash-container]
crates = ["*"]
[rule.wall-clock]
files = ["wall_clock_positive.rs", "wall_clock_suppressed.rs", "bad_suppression.rs", "test_mod_exempt.rs", "scanner_edges.rs"]
[rule.rng-seed]
crates = ["*"]
[rule.float-ord]
crates = ["*"]
[rule.hot-path-panic]
files = ["hot_path_positive.rs", "hot_path_suppressed.rs"]
[rule.hot-path-alloc]
files = ["alloc_positive.rs", "alloc_suppressed.rs"]
[rule.executor-api]
files = ["executor_api_positive.rs", "executor_api_suppressed.rs"]
"#;

fn lint_fixture(name: &str) -> Vec<Finding> {
    let config = Config::parse(FIXTURE_CONFIG).expect("fixture config parses");
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    let source = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("read fixture {}: {e}", path.display()));
    lint_source(name, &source, &config)
}

/// `(line, rule)` pairs of the findings, sorted.
fn spans(findings: &[Finding]) -> Vec<(usize, String)> {
    let mut out: Vec<(usize, String)> = findings.iter().map(|f| (f.line, f.rule.clone())).collect();
    out.sort();
    out
}

fn owned(pairs: &[(usize, &str)]) -> Vec<(usize, String)> {
    pairs.iter().map(|&(l, r)| (l, r.to_string())).collect()
}

#[test]
fn hash_container_positive() {
    let findings = lint_fixture("hash_positive.rs");
    assert!(findings.iter().all(|f| f.file == "hash_positive.rs"));
    assert_eq!(
        spans(&findings),
        owned(&[
            (2, "hash-container"),
            (4, "hash-container"),
            (5, "hash-container"),
            (5, "hash-container"),
            (7, "hash-container"),
        ]),
        "{findings:#?}"
    );
}

#[test]
fn hash_container_suppressed_and_explicit_hasher_clean() {
    let findings = lint_fixture("hash_suppressed.rs");
    assert!(findings.is_empty(), "{findings:#?}");
}

#[test]
fn wall_clock_positive() {
    let findings = lint_fixture("wall_clock_positive.rs");
    assert_eq!(
        spans(&findings),
        owned(&[(5, "wall-clock"), (6, "wall-clock")]),
        "{findings:#?}"
    );
}

#[test]
fn wall_clock_suppressed() {
    let findings = lint_fixture("wall_clock_suppressed.rs");
    assert!(findings.is_empty(), "{findings:#?}");
}

#[test]
fn rng_seed_positive() {
    let findings = lint_fixture("rng_positive.rs");
    assert_eq!(
        spans(&findings),
        owned(&[(3, "rng-seed"), (4, "rng-seed")]),
        "{findings:#?}"
    );
}

#[test]
fn rng_seed_suppressed_and_seeded_constructors_clean() {
    let findings = lint_fixture("rng_suppressed.rs");
    assert!(findings.is_empty(), "{findings:#?}");
}

#[test]
fn float_ord_positive() {
    let findings = lint_fixture("float_ord_positive.rs");
    assert_eq!(
        spans(&findings),
        owned(&[(3, "float-ord"), (6, "float-ord")]),
        "{findings:#?}"
    );
}

#[test]
fn float_ord_suppressed_and_total_cmp_clean() {
    let findings = lint_fixture("float_ord_suppressed.rs");
    assert!(findings.is_empty(), "{findings:#?}");
}

#[test]
fn hot_path_panic_positive() {
    let findings = lint_fixture("hot_path_positive.rs");
    assert_eq!(
        spans(&findings),
        owned(&[
            (3, "hot-path-panic"),
            (5, "hot-path-panic"),
            (8, "hot-path-panic"),
        ]),
        "{findings:#?}"
    );
}

#[test]
fn hot_path_panic_suppressed() {
    let findings = lint_fixture("hot_path_suppressed.rs");
    assert!(findings.is_empty(), "{findings:#?}");
}

#[test]
fn hot_path_alloc_positive() {
    let findings = lint_fixture("alloc_positive.rs");
    assert_eq!(
        spans(&findings),
        owned(&[
            (3, "hot-path-alloc"),
            (4, "hot-path-alloc"),
            (5, "hot-path-alloc"),
            (6, "hot-path-alloc"),
            (7, "hot-path-alloc"),
        ]),
        "{findings:#?}"
    );
}

#[test]
fn hot_path_alloc_suppressed() {
    let findings = lint_fixture("alloc_suppressed.rs");
    assert!(findings.is_empty(), "{findings:#?}");
}

#[test]
fn executor_api_positive() {
    let findings = lint_fixture("executor_api_positive.rs");
    assert_eq!(
        spans(&findings),
        owned(&[(3, "executor-api"), (6, "executor-api")]),
        "{findings:#?}"
    );
}

#[test]
fn executor_api_suppressed() {
    let findings = lint_fixture("executor_api_suppressed.rs");
    assert!(findings.is_empty(), "{findings:#?}");
}

#[test]
fn malformed_suppressions_are_findings() {
    let findings = lint_fixture("bad_suppression.rs");
    assert_eq!(
        spans(&findings),
        owned(&[(3, "suppression"), (4, "wall-clock"), (5, "suppression")]),
        "{findings:#?}"
    );
}

#[test]
fn scanner_edge_cases_blank_literals_but_not_code() {
    // Lifetimes, `b'"'`, escaped char quotes, and raw strings must not
    // desynchronize the scanner: the tokens inside literals stay
    // invisible and the one genuine wall-clock call is still found.
    let findings = lint_fixture("scanner_edges.rs");
    assert_eq!(
        spans(&findings),
        owned(&[(15, "wall-clock")]),
        "{findings:#?}"
    );
}

#[test]
fn test_modules_strings_comments_exempt() {
    let findings = lint_fixture("test_mod_exempt.rs");
    assert!(findings.is_empty(), "{findings:#?}");
}

#[test]
fn workspace_tree_is_clean() {
    // The acceptance gate: the real tree (this repo) has no unsuppressed
    // findings and every suppression carries a justification.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root resolves");
    assert!(
        root.join(dd_lint::CONFIG_FILE).is_file(),
        "dd-lint.toml missing at {}",
        root.display()
    );
    let findings = lint_tree(&root).expect("lint_tree runs");
    assert!(
        findings.is_empty(),
        "workspace not lint-clean:\n{findings:#?}"
    );
}
