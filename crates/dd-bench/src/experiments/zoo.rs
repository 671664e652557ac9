//! The policy zoo — every registered scheduler through the full fault
//! matrix (extension; standalone figure, `report zoo`).
//!
//! The capstone of the `--policy` registry: the PR-3 robustness grid
//! (failure rate × recovery policy, ExaFEL) crossed with **every**
//! policy in [`dd_baselines::registry`] — the paper's four techniques,
//! the naive floor, the hybrid and fixed-pool extensions, and the two
//! registry-only competitors (ICPS affinity clustering, Wukong
//! decentralized fan-out). Serverless policies run on the faulted FaaS
//! executor with a per-run [`MemoryRecorder`]; cluster policies go
//! through the `ClusterPolicy::execute_faulted` phase-stretch adapter.
//!
//! A second table reports per-policy dd-obs metrics merged over the
//! whole matrix (hot/cold starts, preload hits, retries) — the start-mix
//! fingerprint of each policy's pool strategy.
//!
//! Every cell is a pure function of (seed, policy, rate, recovery, run
//! index): byte-identical at any `--jobs`, pinned by the zoo golden.

use super::robustness::{POLICIES, RATES};
use crate::report::{section, Table};
use crate::workloads::{mean, ExperimentContext};
use dd_baselines::registry;
use dd_obs::{MemoryRecorder, MetricsRegistry};
use dd_platform::executor::metrics;
use dd_platform::{
    run_policy, FaasConfig, FaasExecutor, FaultConfig, PolicyContext, SchedulerPolicy, Substrate,
};
use dd_stats::SeedStream;
use dd_wfdag::Workflow;

/// Runs the experiment.
pub fn run(ctx: &ExperimentContext) -> String {
    let gen = ctx.generator(Workflow::ExaFel);
    let runtimes = gen.spec().runtimes.clone();
    let training = gen.generate(1_000);
    let runs: Vec<_> = (0..ctx.runs_per_workflow.min(2))
        .map(|i| gen.generate(i))
        .collect();
    let fault_seed = SeedStream::new(ctx.seed).derive("fault-matrix").seed();

    // Prepare every registered policy once, in registry order; prepared
    // policies are shared by `&` across the sweep workers.
    let reg = registry();
    let policies: Vec<(String, Box<dyn SchedulerPolicy>)> = reg
        .names()
        .into_iter()
        .map(|name| {
            let mut policy = reg.create(name).expect("registered policy");
            policy.prepare(&training);
            (name.to_string(), policy)
        })
        .collect();

    // (policy × rate × recovery × run) cells over the sweep executor.
    let grid = RATES.len() * POLICIES.len();
    let per_policy = grid * runs.len();
    let cells = crate::sweep::par_map(ctx.jobs, policies.len() * per_policy, |cell| {
        let (_, policy) = &policies[cell / per_policy];
        let rest = cell % per_policy;
        let rate = RATES[(rest / runs.len()) / POLICIES.len()];
        let recovery = POLICIES[(rest / runs.len()) % POLICIES.len()];
        let idx = rest % runs.len();
        let run = &runs[idx];
        let faults = FaultConfig::uniform(rate).with_seed(fault_seed);
        let seeds = SeedStream::new(ctx.seed)
            .derive("zoo")
            .derive_index(idx as u64);
        let pctx = PolicyContext {
            run,
            runtimes: &runtimes,
            vendor: ctx.vendor,
            seeds,
        };
        let mut executor = FaasExecutor::new(FaasConfig {
            vendor: ctx.vendor,
            faults,
            recovery,
            ..FaasConfig::default()
        });
        // Cluster builds leave the recorder empty: their start mix is
        // all-cold by construction.
        let mut recorder = MemoryRecorder::new();
        let outcome = run_policy(
            policy.as_ref(),
            &pctx,
            Substrate::Analytic(&mut executor),
            Some(&mut recorder),
            false,
        )
        .into_outcome();
        (outcome, recorder.metrics)
    });

    let mut matrix = Table::new([
        "policy",
        "fault rate",
        "recovery",
        "time (s)",
        "cost ($)",
        "retry ($)",
    ]);
    let mut obs_table = Table::new(["policy", "hot", "cold", "preload hits", "retries"]);
    for (p_idx, (name, _)) in policies.iter().enumerate() {
        let mut merged = MetricsRegistry::new();
        for g in 0..grid {
            let chunk = &cells[p_idx * per_policy + g * runs.len()..][..runs.len()];
            let rate = RATES[g / POLICIES.len()];
            let recovery = POLICIES[g % POLICIES.len()];
            matrix.row([
                name.clone(),
                format!("{:.0}%", rate * 100.0),
                recovery.name().to_string(),
                format!(
                    "{:.0}",
                    mean(chunk.iter().map(|(o, _)| o.service_time_secs))
                ),
                format!("{:.4}", mean(chunk.iter().map(|(o, _)| o.service_cost()))),
                format!("{:.4}", mean(chunk.iter().map(|(o, _)| o.ledger.retry))),
            ]);
            for (_, m) in chunk {
                merged.merge(m);
            }
        }
        obs_table.row([
            name.clone(),
            format!("{}", merged.counter(metrics::STARTS_HOT)),
            format!("{}", merged.counter(metrics::STARTS_COLD)),
            format!("{}", merged.counter(metrics::PRELOAD_HITS)),
            format!("{}", merged.counter(metrics::RETRIES)),
        ]);
    }

    section(
        "Policy zoo — every registered policy through the fault matrix (ExaFEL)",
        &format!(
            "{}\nper-policy dd-obs metrics, merged over the whole matrix\n\
             (cluster policies execute outside the FaaS recorder: all zeros):\n{}\n\
             policies from the registry, in registration order: {}",
            matrix.render(),
            obs_table.render(),
            reg.names().join(", "),
        ),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke_ctx(jobs: usize) -> ExperimentContext {
        ExperimentContext {
            runs_per_workflow: 1,
            scale_down: 20,
            ..ExperimentContext::default()
        }
        .with_jobs(jobs)
    }

    #[test]
    fn zoo_covers_every_policy_and_cell() {
        let out = run(&smoke_ctx(2));
        for name in registry().names() {
            assert!(out.contains(name), "policy {name} missing:\n{out}");
        }
        // One matrix row per (policy, rate, recovery).
        let rows = out
            .lines()
            .filter(|l| l.trim_start().starts_with(|c: char| c.is_ascii_lowercase()))
            .filter(|l| l.contains('%'))
            .count();
        assert_eq!(
            rows,
            registry().len() * RATES.len() * POLICIES.len(),
            "{out}"
        );
    }

    #[test]
    fn zoo_is_jobs_invariant() {
        assert_eq!(run(&smoke_ctx(1)), run(&smoke_ctx(8)));
    }

    #[test]
    fn daydream_outranks_naive_in_every_cell() {
        let out = run(&smoke_ctx(2));
        let time_of = |policy: &str, rate: &str, recovery: &str| -> f64 {
            out.lines()
                .find(|l| {
                    let c: Vec<&str> = l.split_whitespace().collect();
                    c.first() == Some(&policy)
                        && c.get(1) == Some(&rate)
                        && c.get(2) == Some(&recovery)
                })
                .and_then(|l| {
                    l.split_whitespace()
                        .nth(3)
                        .and_then(|v| v.parse::<f64>().ok())
                })
                .unwrap_or_else(|| panic!("missing cell {policy}/{rate}/{recovery}\n{out}"))
        };
        for rate in ["0%", "1%", "5%"] {
            for recovery in ["none", "backoff", "speculate"] {
                assert!(
                    time_of("daydream", rate, recovery) < time_of("naive", rate, recovery),
                    "daydream must beat the all-cold floor at {rate}/{recovery}\n{out}"
                );
            }
        }
    }
}
