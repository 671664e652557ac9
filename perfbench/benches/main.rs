//! The repository benchmark: one command, three workloads.
//!
//! ```text
//! perfbench --workload report|des_replay|serve --seed N --seconds S --trace 0|1
//!           [--size paper|smoke] [--tamper]
//! ```
//!
//! The parent process runs timed passes until `--seconds` have gone by
//! (at least two), with set-up-only runs spread between them. Every
//! pass runs in a child process of this binary, so process-wide memo tables start
//! cold and peak memory is the pass's own. It checks each pass's outputs
//! (inside the pass, and digest by digest against the set's first pass),
//! prints a summary with stamps, and ends with one JSON line: the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics of traced
//! passes (`--trace 1`). See `perfbench/README.md`.

mod des_replay;
mod pass;
mod report;
mod runs;
mod serve;
mod trace;
mod util;

use pass::{PassArgs, PassOut, Size, WHOLE_PASS};
use std::collections::BTreeSet;
use std::process::{Command, Stdio};
use std::time::Instant;
use util::{json_num, json_str, median, quantile};

const WORKLOADS: [&str; 3] = ["report", "des_replay", "serve"];
const DEFAULT_SEED: u64 = 0xDA1D;
/// Set-up-only child processes per run, paced over the run (before each
/// pass, as many as the elapsed share of `--seconds` calls for; topped up
/// after the last pass) so they sample the machine across the whole run;
/// `setup_s` is their median.
const SETUP_SAMPLES: usize = 21;
/// Untimed passes are compared against each other, so a set has at
/// least two.
const MIN_PASSES: usize = 2;

/// End-to-end metrics `(name, unit)`, printed with `--trace 0`.
pub const END_TO_END: [(&str, &str); 8] = [
    ("wall_s", "s"),
    ("starts_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "frac"),
    ("sim_service_s", "s"),
    ("sim_cost_usd", "USD"),
    ("sla_attain", "frac"),
];

/// Per-layer metrics `(name, unit)`, printed with `--trace 1`. A layer a
/// workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 72] = [
    ("report.matrix_s", "s"),
    ("report.fig1_s", "s"),
    ("report.fig2_s", "s"),
    ("report.fig3_s", "s"),
    ("report.fig4_s", "s"),
    ("report.fig5_s", "s"),
    ("report.fig6_s", "s"),
    ("report.fig7_s", "s"),
    ("report.chi2table_s", "s"),
    ("report.fig8_s", "s"),
    ("report.fig9_s", "s"),
    ("report.fig10_s", "s"),
    ("report.fig11_s", "s"),
    ("report.fig12_s", "s"),
    ("report.fig13_s", "s"),
    ("report.fig14_s", "s"),
    ("report.fig15_s", "s"),
    ("report.fig16_s", "s"),
    ("report.fig17_s", "s"),
    ("report.fig18_s", "s"),
    ("report.overhead_s", "s"),
    ("report.startup_s", "s"),
    ("report.sensitivity_s", "s"),
    ("report.limitation_s", "s"),
    ("report.distfit_s", "s"),
    ("report.concurrency_s", "s"),
    ("report.fixedpool_s", "s"),
    ("report.scaling_s", "s"),
    ("report.robustness_s", "s"),
    ("report.obs_s", "s"),
    ("report.ablations_s", "s"),
    ("wfdag.generate_s", "s"),
    ("wfdag.generate_calls", "count"),
    ("wfdag.components", "count"),
    ("learn.prepare_s", "s"),
    ("learn.prepare_calls", "count"),
    ("sched.build_s", "s"),
    ("sched.initial_pool_s", "s"),
    ("sched.pool_next_s", "s"),
    ("sched.place_s", "s"),
    ("sched.observe_s", "s"),
    ("sched.calls", "count"),
    ("exec.self_s", "s"),
    ("exec.runs", "count"),
    ("exec.component_starts", "count"),
    ("exec.des_events", "count"),
    ("exec.events_per_s", "1/s"),
    ("exec.run_p50_ms", "ms"),
    ("exec.run_p90_ms", "ms"),
    ("exec.starts_hot", "count"),
    ("exec.starts_warm", "count"),
    ("exec.starts_cold", "count"),
    ("exec.hot_frac", "frac"),
    ("faults.attempts", "count"),
    ("faults.retried", "count"),
    ("faults.spec_copies", "count"),
    ("faults.useful_ratio", "frac"),
    ("frontdoor.arrivals_s", "s"),
    ("frontdoor.plan_s", "s"),
    ("frontdoor.serve_s", "s"),
    ("frontdoor.admitted", "count"),
    ("frontdoor.admit_delay_mean_s", "s"),
    ("frontdoor.max_queue_depth", "count"),
    ("obs.events", "count"),
    ("obs.export_s", "s"),
    ("obs.export_bytes", "bytes"),
    ("sweep.busy_s", "s"),
    ("sweep.idle_frac", "frac"),
    ("trace.overhead_frac", "frac"),
    ("trace.coverage", "frac"),
    ("trace.other_s", "s"),
    ("trace.passes", "count"),
];

#[derive(Debug, Clone)]
struct Cli {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    jobs: usize,
    size: Size,
    tamper: bool,
    /// Child role: `setup`, `pass` or `traced`.
    child: Option<String>,
    index: usize,
    reference_check: bool,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let mut cli = Cli {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        jobs: nproc.min(2),
        size: Size::Paper,
        tamper: false,
        child: None,
        index: 0,
        reference_check: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        let num = |v: String| v.parse::<u64>().map_err(|e| format!("{flag} {v}: {e}"));
        match flag.as_str() {
            "--workload" => cli.workload = value()?,
            "--seed" => cli.seed = num(value()?)?,
            "--seconds" => {
                let v = value()?;
                cli.seconds = v.parse().map_err(|e| format!("--seconds {v}: {e}"))?;
            }
            "--trace" => {
                cli.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace {other}: expected 0 or 1")),
                }
            }
            "--size" => cli.size = Size::parse(&value()?)?,
            "--tamper" => cli.tamper = true,
            "--child" => cli.child = Some(value()?),
            "--index" => cli.index = num(value()?)? as usize,
            "--reference-check" => cli.reference_check = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if !WORKLOADS.contains(&cli.workload.as_str()) {
        return Err(format!(
            "--workload '{}' is not one of {}",
            cli.workload,
            WORKLOADS.join(", ")
        ));
    }
    Ok(cli)
}

fn pass_args(cli: &Cli) -> PassArgs {
    PassArgs {
        seed: cli.seed,
        size: cli.size,
        jobs: cli.jobs,
        index: cli.index,
        reference_check: cli.reference_check,
        tamper: cli.tamper,
    }
}

/// Child side: one set-up or one pass, printed in the line format.
fn child(cli: &Cli, role: &str) -> Result<(), String> {
    let a = pass_args(cli);
    let traced = match role {
        "setup" => {
            let secs = match cli.workload.as_str() {
                "report" => report::setup_only(&a),
                "des_replay" => des_replay::setup_only(&a),
                _ => serve::setup_only(&a),
            };
            println!("setup_s {secs:?}");
            return Ok(());
        }
        "pass" => false,
        "traced" => true,
        other => return Err(format!("unknown --child role '{other}'")),
    };
    let out = match cli.workload.as_str() {
        "report" => report::pass(&a, traced),
        "des_replay" => des_replay::pass(&a, traced),
        _ => serve::pass(&a, traced),
    };
    print!("{}", out.encode());
    Ok(())
}

/// Writes a traced pass's spans, once the pass has ended.
pub fn write_spans(workload: &str, seed: u64, tracer: &trace::Tracer) {
    let dir = std::path::Path::new(".bench_out");
    let path = dir.join(format!("spans-{workload}-{seed}.jsonl"));
    if let Err(e) =
        std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, tracer.to_jsonl()))
    {
        eprintln!("perfbench: could not write {}: {e}", path.display());
    }
}

/// Operations one pass of the workload attempts.
fn ops_per_pass(cli: &Cli) -> u64 {
    match cli.workload.as_str() {
        "report" => report::OPS,
        "des_replay" => des_replay::runs(cli.size) as u64,
        _ => {
            let p = serve::params(&pass_args(cli));
            (p.tenants * p.requests_per_tenant) as u64
        }
    }
}

/// Runs this binary as a child and returns its standard output, or why
/// it failed.
fn spawn(cli: &Cli, role: &str, index: usize, extra: &[&str]) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--child", role, "--workload", &cli.workload])
        .args(["--seed", &cli.seed.to_string()])
        .args(["--size", cli.size.name()])
        .args(["--index", &index.to_string()])
        .args(extra)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    let out = cmd.output().map_err(|e| format!("spawn: {e}"))?;
    if !out.status.success() {
        return Err(format!("{role} child exited with {}", out.status));
    }
    String::from_utf8(out.stdout).map_err(|e| e.to_string())
}

/// Operations of `pass` that failed: its own failed checks, plus every
/// digest that differs from (or is missing against) the set's reference
/// pass. A failure keyed [`WHOLE_PASS`] fails every operation.
pub fn failed_ops(reference: &[(String, u64)], pass: &PassOut) -> u64 {
    let mut bad: BTreeSet<&str> = pass.fails.iter().map(|(k, _)| k.as_str()).collect();
    for (k, d) in &pass.digests {
        if !reference.iter().any(|(rk, rd)| rk == k && rd == d) {
            bad.insert(k);
        }
    }
    for (k, _) in reference {
        if !pass.digests.iter().any(|(pk, _)| pk == k) {
            bad.insert(k);
        }
    }
    if bad.iter().any(|k| k.split(':').next() == Some(WHOLE_PASS)) {
        pass.ops
    } else {
        (bad.len() as u64).min(pass.ops)
    }
}

/// Median, quartiles and count of one metric's samples.
fn summary(name: &str, unit: &str, xs: &[f64]) -> String {
    format!(
        "metric {name:<28} median {:>14.6} q1 {:>14.6} q3 {:>14.6} n {:>3} {unit}",
        median(xs),
        quantile(xs, 0.25),
        quantile(xs, 0.75),
        xs.len()
    )
}

fn git_revision() -> String {
    Command::new("git")
        .args(["--git-dir=.git", "rev-parse", "--short=12", "HEAD"])
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// One set-up-only child's set-up seconds.
fn setup_sample(cli: &Cli) -> Result<f64, String> {
    spawn(cli, "setup", 0, &[])?
        .lines()
        .find_map(|l| l.strip_prefix("setup_s "))
        .and_then(|v| v.trim().parse::<f64>().ok())
        .ok_or_else(|| "set-up child printed no setup_s".to_string())
}

/// Parent side: set-ups, passes, checks, metrics.
fn coordinate(cli: &Cli) -> Result<(), String> {
    let ops = ops_per_pass(cli);
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut untimed: Vec<PassOut> = Vec::new();
    let mut traced: Vec<PassOut> = Vec::new();
    let mut reference: Option<Vec<(String, u64)>> = None;
    let mut account = |result: Result<String, String>, into: &mut Vec<PassOut>| {
        attempted += ops;
        match result.and_then(|t| PassOut::decode(&t)) {
            Ok(p) => {
                let base = reference.get_or_insert_with(|| p.digests.clone());
                let bad = failed_ops(base, &p);
                for (k, why) in &p.fails {
                    eprintln!("perfbench: {k} failed: {why}");
                }
                if bad > 0 {
                    eprintln!("perfbench: pass {} has {bad} failed operations", into.len());
                }
                failed += bad;
                into.push(p);
            }
            Err(why) => {
                eprintln!("perfbench: pass failed: {why}");
                failed += ops;
            }
        }
    };
    let mut setups = Vec::with_capacity(SETUP_SAMPLES);
    let start = Instant::now();
    let mut i = 0;
    loop {
        if !cli.trace {
            let share = util::ratio(start.elapsed().as_secs_f64(), cli.seconds, 1.0);
            let due = ((SETUP_SAMPLES as f64 * share).ceil() as usize).clamp(1, SETUP_SAMPLES);
            while setups.len() < due {
                setups.push(setup_sample(cli)?);
            }
        }
        let mut extra: Vec<&str> = Vec::new();
        if i == 0 {
            extra.push("--reference-check");
        }
        if i == 1 && cli.tamper {
            extra.push("--tamper");
        }
        account(spawn(cli, "pass", i, &extra), &mut untimed);
        if cli.trace {
            account(spawn(cli, "traced", i, &[]), &mut traced);
        }
        i += 1;
        let enough = if cli.trace { 1 } else { MIN_PASSES };
        // Another pass starts only if at least half of it fits in what
        // is left, so a run of long passes ends near `--seconds` on
        // average instead of always overrunning it.
        let elapsed = start.elapsed().as_secs_f64();
        let per_pass = elapsed / i as f64;
        if i >= enough && elapsed + per_pass / 2.0 > cli.seconds {
            break;
        }
    }

    while !cli.trace && setups.len() < SETUP_SAMPLES {
        setups.push(setup_sample(cli)?);
    }

    let col = |f: fn(&PassOut) -> f64, ps: &[PassOut]| ps.iter().map(f).collect::<Vec<f64>>();
    let walls = col(|p| p.wall_s, &untimed);
    let ok_frac = 1.0 - failed as f64 / attempted.max(1) as f64;
    let e2e: Vec<(&str, &str, Vec<f64>)> = END_TO_END
        .iter()
        .map(|&(name, unit)| {
            let xs = match name {
                "wall_s" => walls.clone(),
                "starts_per_s" => col(|p| util::ratio(p.starts as f64, p.wall_s, 0.0), &untimed),
                "setup_s" => setups.clone(),
                "peak_rss_mb" => col(|p| p.rss_mb, &untimed),
                "ok_frac" => vec![ok_frac],
                "sim_service_s" => col(|p| p.sim_service_s, &untimed),
                "sim_cost_usd" => col(|p| p.sim_cost_usd, &untimed),
                _ => col(|p| p.sla_attain, &untimed),
            };
            (name, unit, xs)
        })
        .collect();
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    println!(
        "stamp {{\"workload\":{},\"seed\":{},\"size\":{},\"nproc\":{nproc},\"jobs\":{},\
         \"git_rev\":{},\"profile\":{},\"passes\":{},\"traced_passes\":{},\"setup_samples\":{},\
         \"attempted\":{attempted},\"failed\":{failed},\"failed_frac\":{}}}",
        json_str(&cli.workload),
        cli.seed,
        json_str(cli.size.name()),
        cli.jobs,
        json_str(&git_revision()),
        json_str(if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        }),
        untimed.len(),
        traced.len(),
        setups.len(),
        json_num(1.0 - ok_frac),
    );
    for (name, unit, xs) in &e2e {
        println!("{}", summary(name, unit, xs));
    }

    let metrics: Vec<(&str, &str, f64)> = if cli.trace {
        let traced_wall = median(&col(|p| p.wall_s, &traced));
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let value = match name {
                    "trace.overhead_frac" => util::ratio(traced_wall, median(&walls), 1.0) - 1.0,
                    "trace.passes" => traced.len() as f64,
                    _ => median(
                        &traced
                            .iter()
                            .map(|p| {
                                p.layers
                                    .iter()
                                    .find(|(k, _)| k == name)
                                    .map_or(0.0, |(_, v)| *v)
                            })
                            .collect::<Vec<f64>>(),
                    ),
                };
                (name, unit, value)
            })
            .collect()
    } else {
        e2e.iter()
            .map(|(name, unit, xs)| (*name, *unit, median(xs)))
            .collect()
    };
    if cli.trace {
        for (name, unit, v) in &metrics {
            println!("layer  {name:<30} {v:>16.6} {unit}");
        }
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, v)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                json_num(*v),
                json_str(unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        body.join(", ")
    );
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_cli(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let result = match cli.child.clone() {
        Some(role) => child(&cli, &role),
        None => coordinate(&cli),
    };
    if let Err(e) = result {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The workloads `BENCHMARK.json` declares. `des_replay` stays runnable
    /// by hand but is left out: its paper-scale working set makes its wall
    /// time swing with the memory traffic of other tenants of a shared host
    /// more than the regression bounds allow (see `perfbench/README.md`),
    /// and `serve` measures every layer it measures.
    const BENCHMARKED: [&str; 2] = ["report", "serve"];

    fn pass_with(digests: &[(&str, u64)], fails: &[&str]) -> PassOut {
        let mut p = PassOut {
            ops: 3,
            ..PassOut::default()
        };
        for (k, d) in digests {
            p.digest(*k, *d);
        }
        for k in fails {
            p.fail(*k, "check");
        }
        p
    }

    #[test]
    fn changed_missing_and_whole_pass_digests_fail_operations() {
        let reference = pass_with(&[("a", 1), ("b", 2), ("all:x", 3)], &[]).digests;
        assert_eq!(
            failed_ops(
                &reference,
                &pass_with(&[("a", 1), ("b", 2), ("all:x", 3)], &[])
            ),
            0
        );
        assert_eq!(
            failed_ops(
                &reference,
                &pass_with(&[("a", 9), ("b", 2), ("all:x", 3)], &[])
            ),
            1
        );
        assert_eq!(
            failed_ops(&reference, &pass_with(&[("b", 2), ("all:x", 3)], &[])),
            1
        );
        assert_eq!(
            failed_ops(
                &reference,
                &pass_with(&[("a", 1), ("b", 2), ("all:x", 4)], &[])
            ),
            3
        );
        assert_eq!(
            failed_ops(
                &reference,
                &pass_with(&[("a", 1), ("b", 2), ("all:x", 3)], &["b"])
            ),
            1
        );
        assert_eq!(
            failed_ops(
                &reference,
                &pass_with(&[("a", 1), ("b", 2), ("all:x", 3)], &["all"])
            ),
            3
        );
    }

    /// `BENCHMARK.json` lists exactly the metrics this binary prints.
    #[test]
    fn benchmark_json_matches_metric_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let names = |section: &str| -> Vec<String> {
            let start = json
                .find(&format!("\"{section}\""))
                .expect("section present");
            let end = json[start..].find(']').map_or(json.len(), |e| start + e);
            json[start..end]
                .match_indices("\"name\": \"")
                .map(|(i, m)| {
                    let rest = &json[start + i + m.len()..];
                    rest[..rest.find('"').unwrap()].to_string()
                })
                .collect()
        };
        let e2e: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        let layers: Vec<String> = PER_LAYER.iter().map(|(n, _)| n.to_string()).collect();
        assert_eq!(names("end_to_end"), e2e);
        assert_eq!(names("per_layer"), layers);
        assert_eq!(
            names("workloads"),
            BENCHMARKED
                .iter()
                .map(|w| w.to_string())
                .collect::<Vec<_>>()
        );
        assert!(BENCHMARKED.iter().all(|w| WORKLOADS.contains(w)));
    }

    #[test]
    fn cli_rejects_unknown_workloads_and_flags() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        assert!(parse_cli(&args("--workload nope")).is_err());
        assert!(parse_cli(&args("--workload serve --bogus 1")).is_err());
        assert!(parse_cli(&args("--workload serve --trace 2")).is_err());
        let c = parse_cli(&args("--workload serve --seed 7 --seconds 3 --trace 1")).unwrap();
        assert_eq!(c.seed, 7);
        assert!(c.trace);
    }
}
