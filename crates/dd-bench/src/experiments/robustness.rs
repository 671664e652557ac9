//! Fault-matrix robustness (extension / failure injection).
//!
//! Real FaaS platforms fail: transient invocation errors, instance
//! crashes, start failures, storage hiccups, stragglers. The paper
//! evaluates a clean environment; this study sweeps injected failure
//! rate x recovery policy through the deterministic fault engine
//! (`dd_platform::faults`) and checks whether DayDream's ranking
//! survives once every scheduler pays for retries.
//!
//! Grid: failure rate ∈ {0%, 1%, 5%} (uniform across all fault kinds)
//! x recovery policy ∈ {none, backoff, speculate}, DayDream vs Wild on
//! the serverless executor, Pegasus on its HPC cluster through a fault
//! adapter that stretches each phase by the worst per-slot recovery
//! factor (a gang-scheduled cluster phase cannot finish before its
//! slowest retried node).
//!
//! Finding: the ranking survives every cell, but the lead compresses as
//! the rate grows — recovery time is scheduler-independent, so it
//! dilutes scheduling differences. Speculation claws back most of the
//! straggler tail at a small retry-cost premium.

use crate::report::{pct_change, section, Table};
use crate::workloads::{execute_policy_faulted, mean, ExperimentContext};
use daydream_core::DayDreamPolicy;
use dd_baselines::{PegasusPolicy, WildPolicy};
use dd_platform::{FaultConfig, RecoveryPolicy};
use dd_stats::SeedStream;
use dd_wfdag::Workflow;

/// Uniform per-kind failure rates swept by the matrix (shared with the
/// policy-zoo matrix).
pub(crate) const RATES: [f64; 3] = [0.0, 0.01, 0.05];

/// Recovery policies swept by the matrix (shared with the policy zoo).
pub(crate) const POLICIES: [RecoveryPolicy; 3] = [
    RecoveryPolicy::none(),
    RecoveryPolicy::backoff(),
    RecoveryPolicy::speculative(),
];

/// Runs the experiment.
pub fn run(ctx: &ExperimentContext) -> String {
    let gen = ctx.generator(Workflow::ExaFel);
    let runtimes = gen.spec().runtimes.clone();
    let history = ctx.history(Workflow::ExaFel);
    let runs: Vec<_> = (0..ctx.runs_per_workflow.min(3))
        .map(|i| gen.generate(i))
        .collect();
    let fault_seed = SeedStream::new(ctx.seed).derive("fault-matrix").seed();

    let mut table = Table::new([
        "fault rate",
        "policy",
        "daydream (s)",
        "wild (s)",
        "pegasus (s)",
        "dd retry ($)",
        "daydream vs wild",
    ]);
    // (rate x policy) x run cells, fanned over the sweep executor.
    let cell_count = RATES.len() * POLICIES.len() * runs.len();
    let cells = crate::sweep::par_map(ctx.jobs, cell_count, |cell| {
        let grid = cell / runs.len();
        let rate = RATES[grid / POLICIES.len()];
        let policy = POLICIES[grid % POLICIES.len()];
        let idx = cell % runs.len();
        let run = &runs[idx];
        let faults = FaultConfig::uniform(rate).with_seed(fault_seed);
        let seeds = SeedStream::new(ctx.seed)
            .derive("robustness")
            .derive_index(idx as u64);
        let daydream = DayDreamPolicy::with_history(history.clone());
        let dd = execute_policy_faulted(ctx, run, &runtimes, &daydream, seeds, faults, policy);
        let wild = execute_policy_faulted(ctx, run, &runtimes, &WildPolicy, seeds, faults, policy);
        let pegasus =
            execute_policy_faulted(ctx, run, &runtimes, &PegasusPolicy, seeds, faults, policy);
        [
            dd.service_time_secs,
            dd.ledger.retry,
            wild.service_time_secs,
            pegasus.service_time_secs,
        ]
    });

    for (grid, chunk) in cells.chunks(runs.len()).enumerate() {
        let rate = RATES[grid / POLICIES.len()];
        let policy = POLICIES[grid % POLICIES.len()];
        let dd = mean(chunk.iter().map(|c| c[0]));
        let retry = mean(chunk.iter().map(|c| c[1]));
        let wild = mean(chunk.iter().map(|c| c[2]));
        let pegasus = mean(chunk.iter().map(|c| c[3]));
        table.row([
            format!("{:.0}%", rate * 100.0),
            policy.name().to_string(),
            format!("{dd:.0}"),
            format!("{wild:.0}"),
            format!("{pegasus:.0}"),
            format!("{retry:.4}"),
            pct_change(dd, wild),
        ]);
    }
    section(
        "Fault matrix — failure rate x recovery policy (ExaFEL)",
        &format!(
            "{}\n(the ranking survives every cell but compresses with the failure rate: recovery\n time is scheduler-independent and dilutes scheduling differences; speculation\n recovers most of the straggler tail for a small retry-cost premium)",
            table.render()
        ),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data_rows(out: &str) -> Vec<Vec<String>> {
        out.lines()
            .filter(|l| l.trim_start().ends_with('%') && !l.contains("fault rate"))
            .map(|l| l.split_whitespace().map(str::to_string).collect())
            .collect()
    }

    #[test]
    fn ranking_survives_faults() {
        let ctx = ExperimentContext {
            runs_per_workflow: 2,
            scale_down: 15,
            ..ExperimentContext::default()
        };
        let out = run(&ctx);
        let rows = data_rows(&out);
        assert_eq!(rows.len(), RATES.len() * POLICIES.len(), "{out}");
        // Every cell's DayDream-vs-Wild delta stays negative.
        for row in &rows {
            let delta = row.last().expect("delta column");
            assert!(
                delta.starts_with('-'),
                "DayDream must stay ahead: {delta}\n{out}"
            );
        }
    }

    #[test]
    fn service_time_grows_with_fault_rate() {
        let ctx = ExperimentContext {
            runs_per_workflow: 1,
            scale_down: 15,
            ..ExperimentContext::default()
        };
        let out = run(&ctx);
        let rows = data_rows(&out);
        let dd_time = |rate: &str, policy: &str| -> f64 {
            rows.iter()
                .find(|r| r[0] == rate && r[1] == policy)
                .and_then(|r| r[2].parse().ok())
                .unwrap_or_else(|| panic!("missing cell {rate}/{policy}\n{out}"))
        };
        // Under backoff recovery, 5% faults must be slower than clean.
        assert!(
            dd_time("5%", "backoff") > dd_time("0%", "backoff"),
            "5% faults should be slower than 0%:\n{out}"
        );
        // Retry cost is zero on the clean rows, positive on faulty ones.
        let retry = |rate: &str, policy: &str| -> f64 {
            rows.iter()
                .find(|r| r[0] == rate && r[1] == policy)
                .and_then(|r| r[5].parse().ok())
                .expect("retry column")
        };
        assert!(retry("0%", "none").abs() < 1e-12, "{out}");
        assert!(retry("5%", "backoff") > 0.0, "{out}");
    }

    #[test]
    fn zero_rate_rows_match_across_policies() {
        // With every fault rate at zero the recovery policy must be
        // unobservable: all three 0% rows carry identical times.
        let ctx = ExperimentContext {
            runs_per_workflow: 1,
            scale_down: 15,
            ..ExperimentContext::default()
        };
        let out = run(&ctx);
        let rows = data_rows(&out);
        let zero: Vec<_> = rows.iter().filter(|r| r[0] == "0%").collect();
        assert_eq!(zero.len(), POLICIES.len(), "{out}");
        for r in &zero[1..] {
            assert_eq!(r[2..6], zero[0][2..6], "clean rows must agree\n{out}");
        }
    }
}
