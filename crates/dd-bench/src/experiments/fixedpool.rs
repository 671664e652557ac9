//! Fixed-pool sweep (extension) — "naive pre-loading is cost prohibitive".
//!
//! Sec. V: *"It is trivial to reduce the service time of workflows by
//! simply pre-loading an excessively high number of instances … However,
//! this naive approach is cost prohibitive."* Swept here: fixed hot pools
//! sized at 0.5×–3× the historic mean concurrency, against DayDream on
//! the same runs. The curve shows the time floor arriving long before the
//! cost explosion stops — and DayDream sitting at the knee.

use crate::report::{pct_change, section, Table};
use crate::workloads::{execute_policy_faulted, mean, ExperimentContext};
use daydream_core::DayDreamPolicy;
use dd_baselines::FixedPoolPolicy;
use dd_platform::{FaultConfig, RecoveryPolicy, RunOutcome, SchedulerPolicy};
use dd_stats::SeedStream;
use dd_wfdag::{Workflow, WorkflowRun};

fn evaluate(
    ctx: &ExperimentContext,
    runs: &[WorkflowRun],
    runtimes: &[dd_wfdag::LanguageRuntime],
    policy: &dyn SchedulerPolicy,
) -> (f64, f64, f64) {
    let outcomes: Vec<RunOutcome> = runs
        .iter()
        .enumerate()
        .map(|(i, run)| {
            let seeds = SeedStream::new(ctx.seed)
                .derive("fixedpool")
                .derive_index(i as u64);
            let (faults, recovery) = (FaultConfig::none(), RecoveryPolicy::backoff());
            execute_policy_faulted(ctx, run, runtimes, policy, seeds, faults, recovery)
        })
        .collect();
    (
        mean(outcomes.iter().map(|o| o.service_time_secs)),
        mean(outcomes.iter().map(|o| o.service_cost())),
        mean(outcomes.iter().map(|o| o.ledger.keep_alive_wasted)),
    )
}

/// Runs the experiment.
pub fn run(ctx: &ExperimentContext) -> String {
    let gen = ctx.generator(Workflow::ExaFel);
    let runtimes = gen.spec().runtimes.clone();
    let history = ctx.history(Workflow::ExaFel);
    let runs: Vec<WorkflowRun> = (0..ctx.runs_per_workflow.min(4))
        .map(|i| gen.generate(i))
        .collect();

    let daydream = DayDreamPolicy::with_history(history.clone());
    let (dd_t, dd_c, dd_w) = evaluate(ctx, &runs, &runtimes, &daydream);

    let mut table = Table::new([
        "pool",
        "mean time (s)",
        "vs daydream",
        "mean cost ($)",
        "vs daydream",
        "wasted ($)",
    ]);
    table.row([
        "daydream (predicted)".to_string(),
        format!("{dd_t:.0}"),
        "+0.0%".to_string(),
        format!("{dd_c:.4}"),
        "+0.0%".to_string(),
        format!("{dd_w:.4}"),
    ]);
    for multiple in [0.5f64, 1.0, 1.5, 2.0, 3.0] {
        let fixed = FixedPoolPolicy::with_history(history.clone()).with_multiple(multiple);
        let (t, c, w) = evaluate(ctx, &runs, &runtimes, &fixed);
        table.row([
            format!("fixed {multiple}x mean"),
            format!("{t:.0}"),
            pct_change(t, dd_t),
            format!("{c:.4}"),
            pct_change(c, dd_c),
            format!("{w:.4}"),
        ]);
    }
    section(
        "Fixed-pool sweep — naive pre-loading vs prediction (ExaFEL)",
        &format!(
            "{}\n(paper: excessive pre-loading trivially buys time but is cost prohibitive;\n DayDream's prediction sits at the knee of this curve)",
            table.render()
        ),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cost_grows_with_pool_size() {
        let ctx = ExperimentContext {
            runs_per_workflow: 2,
            scale_down: 15,
            ..ExperimentContext::default()
        };
        let out = run(&ctx);
        // Rows look like: "fixed 1.5x mean  40  +0.2%  0.0791  +10.0%  …"
        let costs: Vec<f64> = out
            .lines()
            .filter(|l| l.starts_with("fixed"))
            .filter_map(|l| {
                let cells: Vec<&str> = l.split_whitespace().collect();
                cells.get(5).and_then(|c| c.parse().ok())
            })
            .collect();
        assert_eq!(costs.len(), 5, "five sweep rows:\n{out}");
        // Cost strictly grows from 1x onward.
        assert!(
            costs[4] > costs[1],
            "3x pool should cost more than 1x: {costs:?}"
        );
        // DayDream cheaper than the 3x strawman.
        let three_x_delta = out
            .lines()
            .find(|l| l.starts_with("fixed 3x"))
            .and_then(|l| {
                l.split_whitespace()
                    .filter(|c| c.ends_with('%'))
                    .nth(1)
                    .map(str::to_string)
            })
            .expect("3x row");
        assert!(
            three_x_delta.starts_with('+'),
            "3x pool must cost more than daydream: {three_x_delta}"
        );
    }
}
