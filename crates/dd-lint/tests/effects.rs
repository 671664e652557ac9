//! Fixture-driven tests of the v3 effect-inference rules (`par-purity`,
//! `effect-contract`, `recursive-effect-cycle`): one deny and one
//! justified-allow fixture each, a non-ASCII fixture pinning code-point
//! columns, `--explain` provenance, workspace-clean gates running each
//! rule alone over the real tree with its production scoping from
//! `dd-lint.toml`.

use dd_lint::{
    analyze_sources, analyze_tree_with_config, render_sarif_with_effects, Analysis, Config, Finding,
};
use std::path::Path;

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/effects")
        .join(name);
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("read fixture {}: {e}", path.display()))
}

fn analyze(files: &[(&str, &str)], config: &str) -> Analysis {
    let config = Config::parse(config).expect("test config parses");
    analyze_sources(files, &[], &config)
}

const PURITY_CONFIG: &str = "[rule.par-purity]\ncrates = [\"*\"]\nsinks = [\"Sweep::par_map\"]\n";

#[test]
fn par_purity_denies_effectful_fanned_out_callee() {
    let src = fixture("par_purity_deny.rs");
    let f = analyze(
        &[("crates/simfix/src/par_purity_deny.rs", &src)],
        PURITY_CONFIG,
    )
    .findings;
    assert_eq!(f.len(), 1, "{f:#?}");
    assert_eq!(f[0].rule, "par-purity");
    assert_eq!(f[0].line, 19);
    assert!(
        f[0].message.contains("effect `nondet(time)`"),
        "{}",
        f[0].message
    );
    assert!(
        f[0].message.contains("through `Sweep::par_map`"),
        "{}",
        f[0].message
    );
    assert!(
        f[0].message
            .contains("[call chain: par_purity_deny::fan_out -> par_purity_deny::simulate]"),
        "{}",
        f[0].message
    );
}

#[test]
fn par_purity_justified_allow_is_silent() {
    let src = fixture("par_purity_allow.rs");
    let f = analyze(
        &[("crates/simfix/src/par_purity_allow.rs", &src)],
        PURITY_CONFIG,
    )
    .findings;
    assert!(f.is_empty(), "{f:#?}");
}

const CONTRACT_CONFIG: &str =
    "[rule.effect-contract]\ncrates = [\"*\"]\ncontracts = [\"Planner::plan = pure\"]\n";

#[test]
fn effect_contract_denies_silent_strengthening() {
    let src = fixture("contract_deny.rs");
    let f = analyze(
        &[("crates/simfix/src/contract_deny.rs", &src)],
        CONTRACT_CONFIG,
    )
    .findings;
    assert_eq!(f.len(), 1, "{f:#?}");
    assert_eq!(f[0].rule, "effect-contract");
    assert_eq!((f[0].line, f[0].column), (9, 1));
    assert!(
        f[0].message.contains("declared `⊑ pure`") && f[0].message.contains("`nondet(time)`"),
        "{}",
        f[0].message
    );
    assert!(
        f[0].message.contains(
            "[effect path: Planner::plan -> contract_deny::stamp (`Instant::now` at \
             crates/simfix/src/contract_deny.rs:15)]"
        ),
        "{}",
        f[0].message
    );
}

#[test]
fn effect_contract_justified_allow_is_silent() {
    let src = fixture("contract_allow.rs");
    let f = analyze(
        &[("crates/simfix/src/contract_allow.rs", &src)],
        CONTRACT_CONFIG,
    )
    .findings;
    assert!(f.is_empty(), "{f:#?}");
}

const CYCLE_CONFIG: &str = "[rule.recursive-effect-cycle]\ncrates = [\"*\"]\n";

#[test]
fn recursive_effect_cycle_denies_nondet_scc() {
    let src = fixture("cycle_deny.rs");
    let f = analyze(&[("crates/simfix/src/cycle_deny.rs", &src)], CYCLE_CONFIG).findings;
    assert_eq!(f.len(), 1, "{f:#?}");
    assert_eq!(f[0].rule, "recursive-effect-cycle");
    assert!(
        f[0].message
            .contains("{cycle_deny::tick <-> cycle_deny::tock}"),
        "{}",
        f[0].message
    );
    assert!(f[0].message.contains("`nondet(rng)`"), "{}", f[0].message);
}

#[test]
fn recursive_effect_cycle_justified_allow_is_silent() {
    let src = fixture("cycle_allow.rs");
    let f = analyze(&[("crates/simfix/src/cycle_allow.rs", &src)], CYCLE_CONFIG).findings;
    assert!(f.is_empty(), "{f:#?}");
}

#[test]
fn explain_renders_provenance_to_the_witness_token() {
    let src = fixture("contract_deny.rs");
    let analysis = analyze(
        &[("crates/simfix/src/contract_deny.rs", &src)],
        CONTRACT_CONFIG,
    );
    let out = analysis.explain("Planner::plan");
    assert!(
        out.contains("Planner::plan (crates/simfix/src/contract_deny.rs:9) — effect nondet(time)"),
        "{out}"
    );
    assert!(
        out.contains("via Planner::plan -> contract_deny::stamp (`Instant::now`"),
        "{out}"
    );
    assert!(analysis.explain("NoSuchFn").contains("no function matches"));
}

/// Non-ASCII fixture: the finding column and the SARIF `startColumn` are
/// 1-based Unicode code points, not bytes — the umlauts before the token
/// make the two diverge.
#[test]
fn non_ascii_columns_are_code_points() {
    let src = fixture("unicode_columns.rs");
    let f = analyze(
        &[("crates/simfix/src/unicode_columns.rs", &src)],
        "[rule.wall-clock]\ncrates = [\"*\"]\n",
    )
    .findings;
    assert_eq!(f.len(), 1, "{f:#?}");
    let line = src.lines().nth(f[0].line - 1).unwrap();
    let byte_at = line.find("Instant::now").unwrap();
    let char_col = line[..byte_at].chars().count() + 1;
    assert!(
        byte_at + 1 > char_col,
        "fixture must contain multibyte chars"
    );
    assert_eq!(f[0].column, char_col, "{f:#?}");
    let sarif = render_sarif_with_effects(&f, None);
    assert!(
        sarif.contains(&format!("\"startColumn\":{char_col}")),
        "{sarif}"
    );
    assert!(
        sarif.contains("\"columnKind\":\"unicodeCodePoints\""),
        "{sarif}"
    );
}

// ---------------------------------------------------------------------
// Workspace-clean gates: each effect rule, alone, with its production
// scoping from `dd-lint.toml`, over the real tree.
// ---------------------------------------------------------------------

fn workspace_root() -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root resolves")
}

fn workspace_findings(config: &str) -> Vec<Finding> {
    let config = Config::parse(config).expect("workspace config parses");
    analyze_tree_with_config(&workspace_root(), &config)
        .expect("analyze_tree runs")
        .findings
}

#[test]
fn workspace_clean_under_par_purity() {
    let f = workspace_findings(
        "[rule.par-purity]\ncrates = [\"*\"]\nsinks = [\"dd-bench::sweep::par_map\", \"dd-bench::sweep::par_map_with\", \"dd-platform::FrontDoor::serve\"]\n",
    );
    assert!(f.is_empty(), "workspace not par-purity-clean:\n{f:#?}");
}

#[test]
fn workspace_clean_under_effect_contract() {
    let f = workspace_findings(
        "[rule.effect-contract]\ncrates = [\"*\"]\ncontracts = [\"Executor::run = shared-mut\", \"dd-platform::traffic::arrivals = pure\", \"dd-stats::fit::fit_weibull_grid = pure\", \"dd-stats::incremental::moments_centered_grid_fit_memo = shared-mut\", \"dd-platform::FrontDoor::serve = panic\", \"core::PlacementOptimizer::place = panic\"]\n",
    );
    assert!(f.is_empty(), "workspace breaks an effect contract:\n{f:#?}");
}

#[test]
fn workspace_clean_under_recursive_effect_cycle() {
    let f = workspace_findings("[rule.recursive-effect-cycle]\ncrates = [\"*\"]\n");
    assert!(
        f.is_empty(),
        "workspace has a nondet recursion cycle:\n{f:#?}"
    );
}
