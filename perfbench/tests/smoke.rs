//! Smoke-scale test of the benchmark itself: every workload runs, its
//! checks pass, the traced run covers the wall time and matches the
//! untraced outputs, and a tampered digest shows up as failed operations.
//!
//! ```bash
//! cargo test --release --offline --manifest-path perfbench/Cargo.toml
//! ```

use std::process::Command;

/// Runs the benchmark at smoke size; returns its last stdout line.
fn run(workload: &str, extra: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "3", "--seconds", "0"])
        .args(["--size", "smoke"])
        .args(extra)
        .output()
        .expect("benchmark runs");
    assert!(out.status.success(), "{workload}: exit {}", out.status);
    let stdout = String::from_utf8(out.stdout).unwrap();
    stdout.lines().last().expect("a result line").to_string()
}

/// The number after `"key": ` in a result line.
fn field(line: &str, key: &str) -> f64 {
    let at = line
        .find(&format!("\"{key}\""))
        .unwrap_or_else(|| panic!("{key} missing: {line}"));
    let rest = &line[at + key.len() + 2..];
    let rest = rest.trim_start_matches([':', ' ', '{']);
    let rest = rest.strip_prefix("\"value\": ").unwrap_or(rest);
    let end = rest.find([',', '}']).unwrap();
    rest[..end]
        .trim()
        .parse()
        .unwrap_or_else(|e| panic!("{key}: {e} in {line}"))
}

const WORKLOADS: [&str; 3] = ["report", "des_replay", "serve"];

#[test]
fn every_workload_passes_its_checks() {
    for w in WORKLOADS {
        let line = run(w, &["--trace", "0"]);
        assert!(line.starts_with("{\"correct\": true"), "{w}: {line}");
        assert!(field(&line, "attempted") >= 2.0, "{w}: {line}");
        assert_eq!(field(&line, "failed"), 0.0, "{w}: {line}");
        for m in [
            "wall_s",
            "starts_per_s",
            "setup_s",
            "peak_rss_mb",
            "ok_frac",
        ] {
            assert!(field(&line, m) > 0.0, "{w}: {m} not positive in {line}");
        }
        for m in ["sim_service_s", "sim_cost_usd", "sla_attain"] {
            assert!(field(&line, m) > 0.0, "{w}: {m} not positive in {line}");
        }
    }
}

#[test]
fn traced_run_matches_and_covers_the_untraced_run() {
    for w in WORKLOADS {
        let line = run(w, &["--trace", "1"]);
        // The traced pass's digests are compared with the untraced
        // pass's: any difference would be a failed operation.
        assert!(line.starts_with("{\"correct\": true"), "{w}: {line}");
        assert!(field(&line, "trace.coverage") >= 0.95, "{w}: {line}");
        assert!(field(&line, "trace.passes") >= 1.0, "{w}: {line}");
        let layer = match w {
            "report" => "report.matrix_s",
            "des_replay" => "exec.self_s",
            _ => "frontdoor.serve_s",
        };
        assert!(
            field(&line, layer) > 0.0,
            "{w}: {layer} not measured in {line}"
        );
        assert!(
            !line.contains("\"wall_s\""),
            "{w}: traced run prints end-to-end metrics"
        );
    }
}

#[test]
fn tampered_digest_is_a_failed_operation() {
    for w in WORKLOADS {
        let line = run(w, &["--trace", "0", "--tamper"]);
        assert!(line.starts_with("{\"correct\": false"), "{w}: {line}");
        assert!(field(&line, "failed") >= 1.0, "{w}: {line}");
        assert!(field(&line, "ok_frac") < 1.0, "{w}: {line}");
    }
}
