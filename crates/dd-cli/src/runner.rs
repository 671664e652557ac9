//! Command execution: run the workload, write/verify artifact files.

use crate::args::{Command, RunArgs, ServeArgs};
use crate::output::{as_written, read_series, run_series, write_obs, write_run_outputs, RunFiles};
use dd_baselines::registry;
use dd_bench::{simulate_stream, TrafficOutcome, TrafficParams};
use dd_obs::MemoryRecorder;
use dd_platform::{
    run_policy, CloudVendor, ExecutionTrace, FaasConfig, FaasExecutor, FaultConfig, PolicyContext,
    RunOutcome, SchedulerPolicy, Substrate,
};
use dd_stats::SeedStream;
use dd_wfdag::{RunGenerator, Workflow, WorkflowRun, WorkflowSpec};

/// Executes a parsed command.
pub fn run_command(cmd: &Command) -> Result<(), String> {
    match cmd {
        Command::Run(args) => {
            let results = execute_all(args, |idx, outcome| {
                eprintln!(
                    "run-{idx}: service time {:.1}s, cost ${:.4}",
                    outcome.service_time_secs,
                    outcome.service_cost()
                );
            })?;
            println!(
                "wrote {} runs of {} under {} to {}",
                results.len(),
                args.workflow.name(),
                args.policy,
                args.out.display()
            );
            Ok(())
        }
        Command::Verify(args) => {
            let report = verify_against(args)?;
            println!("{report}");
            Ok(())
        }
        Command::Serve(args) => {
            eprintln!("[serve: des executor, {} jobs]", args.jobs);
            let report = run_serve(args)?;
            print!("{report}");
            Ok(())
        }
        Command::PolicyHelp => {
            print!("{}", registry().help());
            Ok(())
        }
        Command::Info => {
            for wf in Workflow::ALL {
                let spec = WorkflowSpec::new(wf);
                println!(
                    "{:<14} catalog {:>6} components, ~{:>4} phases/run, mean concurrency {:>5.1}, \
                     Weibull(alpha={}, beta={}), runtimes {:?}",
                    spec.workflow.name(),
                    spec.catalog.len(),
                    spec.mean_phases,
                    spec.mean_concurrency(),
                    spec.concurrency_weibull.alpha(),
                    spec.concurrency_weibull.beta(),
                    spec.runtimes.iter().map(|r| r.name()).collect::<Vec<_>>(),
                );
            }
            Ok(())
        }
        Command::Help => Ok(()),
    }
}

/// Executes one run under the chosen policy, returning the outcome,
/// full trace and (when `--obs` is set) the run's recorder.
fn execute_one(
    args: &RunArgs,
    run: &WorkflowRun,
    runtimes: &[dd_wfdag::LanguageRuntime],
    policy: &dyn SchedulerPolicy,
) -> (RunOutcome, ExecutionTrace, Option<MemoryRecorder>) {
    // One recorder per run: recording stays deterministic under --jobs
    // because nothing is shared across worker threads.
    let mut recorder = args.obs.map(|_| MemoryRecorder::new());
    let seeds = SeedStream::new(args.seed)
        .derive("cli")
        .derive_index(run.label.run_index as u64);
    let pctx = PolicyContext {
        run,
        runtimes,
        vendor: CloudVendor::Aws,
        seeds,
    };
    // At the default `--fault-rate 0` this config is identical to
    // `FaasExecutor::aws()` — clean runs stay byte-identical to builds
    // without the fault engine. A cluster build leaves the recorder empty
    // and derives its artifact trace from the cluster contention model.
    let mut executor = FaasExecutor::new(FaasConfig {
        faults: FaultConfig::uniform(args.fault_rate).with_seed(args.fault_seed),
        recovery: args.retry_policy,
        ..FaasConfig::default()
    });
    let rec = recorder.as_mut().map(|r| r as &mut dyn dd_obs::Recorder);
    let (outcome, trace) =
        run_policy(policy, &pctx, Substrate::Analytic(&mut executor), rec, true).into_traced();
    (outcome, trace, recorder)
}

/// Instantiates the command's policy from the registry and trains it on
/// the workflow's dedicated training run (index 1000 — the same run the
/// pre-registry code learned `DayDreamHistory` from).
fn prepared_policy(policy: &str, gen: &RunGenerator) -> Result<Box<dyn SchedulerPolicy>, String> {
    let mut policy = registry().create(policy)?;
    policy.prepare(&gen.generate(1_000));
    Ok(policy)
}

/// Executes all runs of the command on `args.jobs` worker threads,
/// writing the artifact files; calls `progress` after each run.
///
/// Execution fans out over the sweep executor; file writes and progress
/// callbacks happen serially afterwards in run-index order, so the
/// artifact directory and terminal output are byte-identical at any
/// `--jobs` setting.
pub fn execute_all(
    args: &RunArgs,
    mut progress: impl FnMut(usize, &RunOutcome),
) -> Result<Vec<RunOutcome>, String> {
    let spec = WorkflowSpec::new(args.workflow).scaled_down(args.scale);
    let runtimes = spec.runtimes.clone();
    let gen = RunGenerator::new(spec, args.seed);
    let policy = prepared_policy(&args.policy, &gen)?;

    let executed = dd_bench::par_map(args.jobs, args.runs, |idx| {
        let run = gen.generate(idx);
        dd_wfdag::validate_run(&run)
            .map_err(|e| format!("run {idx} invalid: {e}"))
            .map(|()| execute_one(args, &run, &runtimes, policy.as_ref()))
    });

    let mut outcomes = Vec::with_capacity(args.runs);
    for (idx, cell) in executed.into_iter().enumerate() {
        let (outcome, trace, recorder) = cell?;
        let files = RunFiles::new(&args.out, idx + 1);
        write_run_outputs(&files, &outcome, &trace)
            .map_err(|e| format!("writing {}: {e}", files.dir.display()))?;
        if let (Some(format), Some(recorder)) = (args.obs, recorder.as_ref()) {
            let obs_base = args.obs_out.as_deref().unwrap_or(&args.out);
            let obs_files = RunFiles::new(obs_base, idx + 1);
            write_obs(&obs_files, format, recorder)
                .map_err(|e| format!("writing {}: {e}", obs_files.obs(format).display()))?;
        }
        progress(idx + 1, &outcome);
        outcomes.push(outcome);
    }
    Ok(outcomes)
}

/// Re-executes the command's runs and compares their aggregates against
/// the files already in `--out` — the artifact's "less than 10% error
/// bound" reproduction check. Returns a human-readable report; errors on
/// any aggregate outside the tolerance.
pub fn verify_against(args: &RunArgs) -> Result<String, String> {
    let spec = WorkflowSpec::new(args.workflow).scaled_down(args.scale);
    let runtimes = spec.runtimes.clone();
    let gen = RunGenerator::new(spec, args.seed);
    let policy = prepared_policy(&args.policy, &gen)?;

    // Re-execution fans out over the sweep executor; the file comparison
    // below stays serial so the report lines and the first-deviation
    // error are identical at any --jobs setting.
    let executed = dd_bench::par_map(args.jobs, args.runs, |idx| {
        let run = gen.generate(idx);
        execute_one(args, &run, &runtimes, policy.as_ref())
    });

    let mut report = String::new();
    let mut worst: f64 = 0.0;
    for (idx, (outcome, trace, _recorder)) in executed.into_iter().enumerate() {
        let files = RunFiles::new(&args.out, idx + 1);

        let compare = |path: std::path::PathBuf, fresh: f64| -> Result<f64, String> {
            let baseline: f64 = read_series(&path)
                .map_err(|e| format!("reading {}: {e}", path.display()))?
                .iter()
                .sum();
            if baseline == 0.0 && fresh == 0.0 {
                return Ok(0.0);
            }
            Ok((fresh - baseline).abs() / baseline.abs().max(1e-12))
        };

        // The fresh side goes through the writer's series and rounding,
        // so an exact reproduction deviates by exactly zero.
        let mut errors = [0.0; 3];
        for (error, (path, fresh)) in errors.iter_mut().zip(run_series(&files, &outcome, &trace)) {
            *error = compare(path, fresh.iter().map(|&v| as_written(v)).sum())?;
        }
        let [e1, e2, e3] = errors;
        let run_worst = e1.max(e2).max(e3);
        worst = worst.max(run_worst);
        report.push_str(&format!(
            "run-{}: phase {:.2}% service {:.2}% cost {:.2}%\n",
            idx + 1,
            e1 * 100.0,
            e2 * 100.0,
            e3 * 100.0
        ));
        if run_worst * 100.0 > args.tolerance_pct {
            return Err(format!(
                "run-{} deviates {:.1}% (> {}% bound)\n{report}",
                idx + 1,
                run_worst * 100.0,
                args.tolerance_pct
            ));
        }
    }
    report.push_str(&format!(
        "REPRODUCED: all {} runs within the {}% bound (worst {:.2}%)",
        args.runs,
        args.tolerance_pct,
        worst * 100.0
    ));
    Ok(report)
}

/// Serves one multi-tenant arrival stream through the front door and
/// returns the rendered report. With `--out` set the report and an
/// `admissions.csv` land in the directory; with `--obs` the front-door
/// recorder is exported too. Every byte — stdout and files — is
/// identical at any `--jobs` setting.
pub fn run_serve(args: &ServeArgs) -> Result<String, String> {
    let params = TrafficParams {
        seed: args.seed,
        tenants: args.tenants,
        model: args.model,
        rate_per_sec: args.rate,
        requests_per_tenant: args.requests,
        capacity: args.capacity,
        scale_down: args.scale,
        jobs: args.jobs,
        fault_rate: args.fault_rate,
        fault_seed: args.fault_seed,
        policy: args.policy.clone(),
        ..TrafficParams::default()
    };
    let outcome = simulate_stream(&params);
    let report = render_serve_report(&params, &outcome);

    if let Some(out) = &args.out {
        std::fs::create_dir_all(out)
            .map_err(|e| format!("cannot create {}: {e}", out.display()))?;
        let report_path = out.join("serve_report.txt");
        std::fs::write(&report_path, &report)
            .map_err(|e| format!("writing {}: {e}", report_path.display()))?;
        let csv_path = out.join("admissions.csv");
        std::fs::write(&csv_path, admissions_csv(&outcome))
            .map_err(|e| format!("writing {}: {e}", csv_path.display()))?;
    }
    if let Some(format) = args.obs {
        // The parser guarantees an export directory exists.
        let dir = args
            .obs_out
            .as_deref()
            .or(args.out.as_deref())
            .ok_or("--obs requires --out or --obs-out")?;
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        let rendered = match format {
            crate::args::ObsFormat::Jsonl => dd_obs::export::to_jsonl(&outcome.recorder),
            crate::args::ObsFormat::Chrome => dd_obs::export::to_chrome_trace(&outcome.recorder),
            crate::args::ObsFormat::Summary => dd_obs::export::summary(&outcome.recorder),
        };
        let path = dir.join(format.file_name());
        std::fs::write(&path, rendered).map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    Ok(report)
}

/// Renders a serve session: header, one line per tenant, session totals.
/// All values print at fixed precision so the bytes are diffable.
fn render_serve_report(params: &TrafficParams, outcome: &TrafficOutcome) -> String {
    let r = &outcome.report;
    let mut out = format!(
        "served {} runs from {} tenants ({} arrivals @ {:.4} req/s/tenant, \
         capacity {}, shared pool {}, seed {})\n",
        r.admissions.len(),
        params.tenants,
        params.model.name(),
        params.rate_per_sec,
        params.capacity,
        outcome.provisioned_concurrency,
        params.seed,
    );
    out.push_str(
        "tenant  workflow       completed  mean_adm_s  max_adm_s  mean_sojourn_s  \
         sla_attain  cost_usd  peak_conc\n",
    );
    for (i, t) in r.tenants.iter().enumerate() {
        out.push_str(&format!(
            "{:<7} {:<14} {:<10} {:<11.3} {:<10.3} {:<15.3} {:<11.4} {:<9.4} {}\n",
            t.tenant.to_string(),
            params.workflow_of(i).name(),
            t.completed,
            t.mean_admission_delay_secs,
            t.max_admission_delay_secs,
            t.mean_sojourn_secs,
            t.sla_attainment,
            t.ledger.total(),
            t.peak_concurrency,
        ));
    }
    out.push_str(&format!(
        "makespan {:.3}s, throughput {:.6} runs/s, jain {:.6}\n",
        r.makespan_secs, r.throughput_per_sec, r.jain_index,
    ));
    out
}

/// One row per admission, in admission order — the stream's determinism
/// witness (CI byte-compares this file across `--jobs`).
fn admissions_csv(outcome: &TrafficOutcome) -> String {
    let mut out = String::from(
        "arrival_idx,tenant,arrived_at_secs,admitted_at_secs,completed_at_secs,\
         admission_delay_secs,sojourn_secs\n",
    );
    for a in &outcome.report.admissions {
        out.push_str(&format!(
            "{},{},{:.6},{:.6},{:.6},{:.6},{:.6}\n",
            a.arrival_idx,
            a.tenant,
            a.arrived_at.as_secs(),
            a.admitted_at.as_secs(),
            a.completed_at.as_secs(),
            a.admission_delay_secs(),
            a.sojourn_secs(),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn args(policy: &str, out: PathBuf) -> RunArgs {
        RunArgs {
            workflow: Workflow::Ccl,
            runs: 2,
            policy: policy.to_string(),
            seed: 5,
            scale: 20,
            out,
            tolerance_pct: 10.0,
            jobs: 2,
            fault_rate: 0.0,
            fault_seed: 0,
            retry_policy: dd_platform::RecoveryPolicy::backoff(),
            obs: None,
            obs_out: None,
        }
    }

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("dd-cli-runner-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn run_then_verify_reproduces() {
        let out = tmpdir("repro");
        let a = args("daydream", out.clone());
        let outcomes = execute_all(&a, |_, _| {}).unwrap();
        assert_eq!(outcomes.len(), 2);
        // The artifact check: regenerate and compare within 10%.
        let report = verify_against(&a).unwrap();
        assert!(report.contains("REPRODUCED"), "{report}");
        let _ = std::fs::remove_dir_all(out);
    }

    #[test]
    fn jobs_setting_does_not_change_artifacts() {
        let out1 = tmpdir("jobs1");
        let out8 = tmpdir("jobs8");
        let a1 = RunArgs {
            jobs: 1,
            ..args("daydream", out1.clone())
        };
        let a8 = RunArgs {
            jobs: 8,
            ..args("daydream", out8.clone())
        };
        execute_all(&a1, |_, _| {}).unwrap();
        execute_all(&a8, |_, _| {}).unwrap();
        for idx in 1..=2 {
            let f1 = RunFiles::new(&out1, idx);
            let f8 = RunFiles::new(&out8, idx);
            for (p1, p8) in [
                (f1.phase_time(), f8.phase_time()),
                (f1.function_service_time(), f8.function_service_time()),
                (f1.execution_cost(), f8.execution_cost()),
            ] {
                let b1 = std::fs::read(&p1).unwrap();
                let b8 = std::fs::read(&p8).unwrap();
                assert_eq!(b1, b8, "artifact differs across --jobs: {}", p1.display());
            }
        }
        let _ = std::fs::remove_dir_all(out1);
        let _ = std::fs::remove_dir_all(out8);
    }

    #[test]
    fn obs_exports_identical_across_jobs_and_respect_obs_out() {
        use crate::args::ObsFormat;
        let out1 = tmpdir("obs-jobs1");
        let out8 = tmpdir("obs-jobs8");
        let obs_dir = tmpdir("obs-redirect");
        let a1 = RunArgs {
            jobs: 1,
            obs: Some(ObsFormat::Jsonl),
            ..args("daydream", out1.clone())
        };
        let a8 = RunArgs {
            jobs: 8,
            obs: Some(ObsFormat::Jsonl),
            obs_out: Some(obs_dir.clone()),
            ..args("daydream", out8.clone())
        };
        execute_all(&a1, |_, _| {}).unwrap();
        execute_all(&a8, |_, _| {}).unwrap();
        for idx in 1..=2 {
            let p1 = RunFiles::new(&out1, idx).obs(ObsFormat::Jsonl);
            let p8 = RunFiles::new(&obs_dir, idx).obs(ObsFormat::Jsonl);
            let b1 = std::fs::read(&p1).unwrap();
            let b8 = std::fs::read(&p8).unwrap();
            assert!(!b1.is_empty(), "empty obs export {}", p1.display());
            assert_eq!(b1, b8, "obs export differs across --jobs: {}", p1.display());
            // --obs-out redirected the export away from --out.
            assert!(!RunFiles::new(&out8, idx).obs(ObsFormat::Jsonl).exists());
        }
        for dir in [out1, out8, obs_dir] {
            let _ = std::fs::remove_dir_all(dir);
        }
    }

    #[test]
    fn obs_off_writes_no_export_files() {
        use crate::args::ObsFormat;
        let out = tmpdir("obs-off");
        let a = args("daydream", out.clone());
        execute_all(&a, |_, _| {}).unwrap();
        for format in [ObsFormat::Jsonl, ObsFormat::Chrome, ObsFormat::Summary] {
            assert!(!RunFiles::new(&out, 1).obs(format).exists());
        }
        let _ = std::fs::remove_dir_all(out);
    }

    #[test]
    fn faulty_runs_reproduce_deterministically() {
        let out = tmpdir("faulty");
        let a = RunArgs {
            fault_rate: 0.05,
            fault_seed: 7,
            retry_policy: dd_platform::RecoveryPolicy::speculative(),
            ..args("daydream", out.clone())
        };
        execute_all(&a, |_, _| {}).unwrap();
        // Fault injection is fully seeded: re-execution lands on the
        // exact same artifacts.
        let report = verify_against(&a).unwrap();
        assert!(report.contains("REPRODUCED"), "{report}");
        let _ = std::fs::remove_dir_all(out);
    }

    fn serve_args(out: PathBuf, jobs: usize) -> ServeArgs {
        ServeArgs {
            tenants: 4,
            model: dd_platform::traffic::ArrivalModel::Bursty,
            rate: 0.1,
            requests: 2,
            capacity: 2,
            seed: 0xDA1D,
            scale: 25,
            jobs,
            out: Some(out),
            fault_rate: 0.0,
            fault_seed: 7,
            policy: "daydream".to_string(),
            obs: Some(crate::args::ObsFormat::Jsonl),
            obs_out: None,
        }
    }

    #[test]
    fn serve_outputs_identical_across_jobs() {
        let base = tmpdir("serve-base");
        let jobs8 = tmpdir("serve-jobs8");
        let r1 = run_serve(&serve_args(base.clone(), 1)).unwrap();
        let r8 = run_serve(&serve_args(jobs8.clone(), 8)).unwrap();
        assert_eq!(r1, r8, "report differs across --jobs");
        assert!(r1.contains("served 8 runs from 4 tenants"), "{r1}");
        for name in ["serve_report.txt", "admissions.csv", "obs.jsonl"] {
            let b1 = std::fs::read(base.join(name)).unwrap();
            assert!(!b1.is_empty(), "empty {name}");
            assert_eq!(
                b1,
                std::fs::read(jobs8.join(name)).unwrap(),
                "{name} differs across --jobs"
            );
        }
        // The admission witness has a header plus one row per run.
        let csv = std::fs::read_to_string(base.join("admissions.csv")).unwrap();
        assert_eq!(csv.lines().count(), 9, "{csv}");
        for dir in [base, jobs8] {
            let _ = std::fs::remove_dir_all(dir);
        }
    }

    #[test]
    fn verify_detects_tampering() {
        let out = tmpdir("tamper");
        let a = args("daydream", out.clone());
        execute_all(&a, |_, _| {}).unwrap();
        // Corrupt run-1's phase times by 3x.
        let path = RunFiles::new(&out, 1).phase_time();
        let values = read_series(&path).unwrap();
        let tripled: String = values.iter().map(|v| format!("{:.6}\n", v * 3.0)).collect();
        std::fs::write(&path, tripled).unwrap();
        assert!(verify_against(&a).is_err());
        let _ = std::fs::remove_dir_all(out);
    }

    #[test]
    fn verify_bound_is_exact_and_printed_as_given() {
        // The files hold six decimals; the fresh side must be rounded the
        // same way, or an exact reproduction deviates by ~0.03%.
        let out = tmpdir("zero-tol");
        let a = RunArgs {
            tolerance_pct: 0.0,
            ..args("daydream", out.clone())
        };
        execute_all(&a, |_, _| {}).unwrap();
        let report = verify_against(&a).unwrap();
        assert!(
            report.contains("within the 0% bound (worst 0.00%)"),
            "{report}"
        );
        // The bound prints at the precision it was given.
        let half = RunArgs {
            tolerance_pct: 0.5,
            ..a.clone()
        };
        let report = verify_against(&half).unwrap();
        assert!(report.contains("within the 0.5% bound"), "{report}");
        // A tampered file still fails at the zero bound.
        let path = RunFiles::new(&out, 2).execution_cost();
        let mut values = read_series(&path).unwrap();
        values[0] += 0.001;
        let edited: String = values.iter().map(|v| format!("{v:.6}\n")).collect();
        std::fs::write(&path, edited).unwrap();
        let err = verify_against(&a).unwrap_err();
        assert!(err.starts_with("run-2 deviates"), "{err}");
        let _ = std::fs::remove_dir_all(out);
    }

    #[test]
    fn every_registered_policy_produces_files() {
        for name in dd_baselines::registry().names() {
            let out = tmpdir(name);
            let a = RunArgs {
                runs: 1,
                ..args(name, out.clone())
            };
            execute_all(&a, |_, _| {}).unwrap();
            let files = RunFiles::new(&out, 1);
            for path in [
                files.phase_time(),
                files.function_service_time(),
                files.execution_cost(),
            ] {
                let series = read_series(&path).unwrap();
                assert!(!series.is_empty(), "{name}: empty {path:?}");
                assert!(
                    series.iter().all(|v| v.is_finite() && *v >= 0.0),
                    "{name}: bad values in {path:?}"
                );
            }
            let _ = std::fs::remove_dir_all(out);
        }
    }

    #[test]
    fn unknown_policy_surfaces_registry_error() {
        let a = args("slurm", tmpdir("unknown-policy"));
        let err = execute_all(&a, |_, _| {}).expect_err("slurm must not resolve");
        assert!(err.starts_with("unknown policy 'slurm'"), "{err}");
    }

    #[test]
    fn file_sums_match_outcome() {
        let out = tmpdir("sums");
        let a = args("daydream", out.clone());
        let outcomes = execute_all(&a, |_, _| {}).unwrap();
        let files = RunFiles::new(&out, 1);
        let cost_sum: f64 = read_series(&files.execution_cost()).unwrap().iter().sum();
        assert!(
            (cost_sum - outcomes[0].ledger.execution).abs() < 1e-3,
            "cost file sum {cost_sum} vs ledger {}",
            outcomes[0].ledger.execution
        );
        let phase_sum: f64 = read_series(&files.phase_time()).unwrap().iter().sum();
        assert!(
            phase_sum <= outcomes[0].service_time_secs + 1e-6,
            "phase sum exceeds service time"
        );
        let _ = std::fs::remove_dir_all(out);
    }
}
