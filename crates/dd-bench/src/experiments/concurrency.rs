//! Provisioned-concurrency sweep (extension).
//!
//! The paper configures "a provisioned concurrency of 1000, so that upon
//! invocation of a component there is always a function instance
//! available (hot or cold) … and no wait time is incurred". This
//! experiment shows what that setting buys: the same Cosmoscout-VR runs
//! executed under shrinking account concurrency limits, where components
//! beyond the limit must wait for an execution slot (wave scheduling).

use crate::report::{pct_change, section, Table};
use crate::workloads::{mean, ExperimentContext};
use daydream_core::DayDreamScheduler;
use dd_platform::{Executor, RunRequest};
use dd_platform::{FaasConfig, FaasExecutor};
use dd_stats::SeedStream;
use dd_wfdag::Workflow;

/// Runs the experiment.
pub fn run(ctx: &ExperimentContext) -> String {
    let gen = ctx.generator(Workflow::CosmoscoutVr);
    let runtimes = gen.spec().runtimes.clone();
    let history = ctx.history(Workflow::CosmoscoutVr);

    let runs: Vec<_> = (0..ctx.runs_per_workflow.min(3))
        .map(|i| gen.generate(i))
        .collect();
    let max_concurrency = runs.iter().map(|r| r.max_concurrency()).max().unwrap_or(0);

    let mut table = Table::new([
        "invocation limit",
        "mean time (s)",
        "Δ time",
        "mean cost ($)",
        "Δ cost",
    ]);
    let mut base: Option<(f64, f64)> = None;
    for limit in [1_000usize, 128, 64, 32, 16] {
        let mut executor = FaasExecutor::new(FaasConfig {
            vendor: ctx.vendor,
            invocation_limit: limit,
            ..FaasConfig::default()
        });
        let mut times = Vec::new();
        let mut costs = Vec::new();
        for (idx, run) in runs.iter().enumerate() {
            let seeds = SeedStream::new(ctx.seed)
                .derive("concurrency")
                .derive_index(idx as u64);
            let mut sched = DayDreamScheduler::aws(&history, seeds);
            let outcome = executor
                .run(RunRequest::new(run, &runtimes, &mut sched))
                .into_outcome();
            times.push(outcome.service_time_secs);
            costs.push(outcome.service_cost());
        }
        let t = mean(times.iter().copied());
        let c = mean(costs.iter().copied());
        let (bt, bc) = *base.get_or_insert((t, c));
        table.row([
            limit.to_string(),
            format!("{t:.0}"),
            pct_change(t, bt),
            format!("{c:.4}"),
            pct_change(c, bc),
        ]);
    }
    section(
        "Provisioned concurrency — why the paper provisions 1000 (Cosmoscout-VR, DayDream)",
        &format!(
            "{}\n(max phase concurrency in these runs: {max_concurrency}; limits below it force slot waits)",
            table.render()
        ),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tight_limits_slow_execution() {
        let ctx = ExperimentContext {
            runs_per_workflow: 1,
            scale_down: 20,
            ..ExperimentContext::default()
        };
        let out = run(&ctx);
        // The tightest limit's Δ time must be positive and the largest.
        let deltas: Vec<f64> = out
            .lines()
            .filter(|l| {
                l.starts_with("1000")
                    || l.starts_with("128")
                    || l.starts_with("64")
                    || l.starts_with("32")
                    || l.starts_with("16 ")
                    || l.starts_with("16")
            })
            .filter_map(|l| {
                l.split_whitespace()
                    .nth(2)
                    .and_then(|c| c.trim_start_matches('+').trim_end_matches('%').parse().ok())
            })
            .collect();
        assert!(deltas.len() >= 4, "parsed {deltas:?}\n{out}");
        let last = *deltas.last().unwrap();
        assert!(last > 5.0, "limit 16 should hurt: {last}%\n{out}");
        // Monotone non-decreasing penalty as limits tighten.
        for w in deltas.windows(2) {
            assert!(w[1] >= w[0] - 1e-9, "non-monotone: {deltas:?}");
        }
    }
}
