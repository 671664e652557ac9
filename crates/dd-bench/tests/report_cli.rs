//! Usage errors of the `report` binary: a missing or unparsable value,
//! `--runs 0` and an unknown figure name each exit with code 2 before
//! any work starts, instead of panicking, printing a table of NaNs or
//! skipping the name with exit code 0.

use std::process::{Command, Output};

fn report(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_report"))
        .args(args)
        .output()
        .expect("report binary runs")
}

fn assert_usage_error(args: &[&str], message: &str) {
    let out = report(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "report {args:?}: {stderr}");
    assert!(stderr.contains(message), "report {args:?}: {stderr}");
    assert!(
        stderr.contains("usage: report"),
        "report {args:?}: {stderr}"
    );
    assert!(out.stdout.is_empty(), "report {args:?} started work");
}

#[test]
fn missing_value_is_a_usage_error() {
    for flag in ["--runs", "--seed", "--scale", "--jobs", "--csv"] {
        assert_usage_error(&[flag], &format!("{flag} requires a value"));
    }
}

#[test]
fn unparsable_number_is_a_usage_error() {
    assert_usage_error(&["--runs", "many", "fig1"], "--runs takes a number");
    assert_usage_error(&["--seed", "-1", "fig1"], "--seed takes a number");
}

#[test]
fn zero_runs_is_a_usage_error() {
    assert_usage_error(&["--runs", "0", "fig11"], "--runs must be at least 1");
}

#[test]
fn unknown_figure_fails_before_any_work() {
    // fig1 is valid; the typo after it must stop the run before fig1 renders.
    assert_usage_error(&["--quick", "fig1", "fig99"], "unknown figure 'fig99'");
    assert_usage_error(&["--bogus"], "unknown flag '--bogus'");
}

#[test]
fn valid_selection_still_runs() {
    let out = report(&["--runs", "1", "--scale", "25", "--jobs", "1", "fig1", "zoo"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.starts_with("DayDream reproduction report — seed"));
}
