//! Sec. V "Limitation" — runtime heterogeneity study.
//!
//! "DayDream's service cost benefits may be limited if a workflow has
//! multiple different language runtimes for its various components. In
//! such a case, all of these runtimes need to be compressed and stored in
//! every hot started function instance. … A mitigation strategy is to
//! spend development effort on limiting runtime heterogeneity to three or
//! less."
//!
//! Swept here directly: the same workflow executed under DayDream with
//! 1–4 distinct language runtimes declared. Every hot instance pre-loads
//! *all* of them, so preparation time and keep-alive memory grow with
//! heterogeneity — and with them, the hot pool's readiness risk and cost.

use crate::report::{pct_change, section, Table};
use crate::workloads::ExperimentContext;
use daydream_core::DayDreamScheduler;
use dd_platform::{Executor, RunRequest};
use dd_platform::{FaasExecutor, StartupModel};
use dd_stats::SeedStream;
use dd_wfdag::{LanguageRuntime, Workflow};

/// Runs the experiment.
pub fn run(ctx: &ExperimentContext) -> String {
    let runtime_sets: [&[LanguageRuntime]; 4] = [
        &[LanguageRuntime::Python],
        &[LanguageRuntime::Python, LanguageRuntime::Cpp],
        &[
            LanguageRuntime::Python,
            LanguageRuntime::Cpp,
            LanguageRuntime::Fortran,
        ],
        &[
            LanguageRuntime::Python,
            LanguageRuntime::Cpp,
            LanguageRuntime::Fortran,
            LanguageRuntime::Julia,
        ],
    ];

    let gen = ctx.generator(Workflow::Ccl);
    let history = ctx.history(Workflow::Ccl);
    let mut executor = FaasExecutor::aws();
    let startup = StartupModel::aws();

    let mut table = Table::new([
        "runtimes",
        "hot prepare (s)",
        "resident (MB)",
        "mean time (s)",
        "Δ time",
        "mean cost ($)",
        "Δ cost",
    ]);
    let mut base: Option<(f64, f64)> = None;
    for set in runtime_sets {
        let mut times = Vec::new();
        let mut costs = Vec::new();
        for idx in 0..ctx.runs_per_workflow.min(4) {
            let run = gen.generate(idx);
            let seeds = SeedStream::new(ctx.seed)
                .derive("limitation")
                .derive_index(idx as u64);
            let mut sched = DayDreamScheduler::aws(&history, seeds);
            let outcome = executor
                .run(RunRequest::new(&run, set, &mut sched))
                .into_outcome();
            times.push(outcome.service_time_secs);
            costs.push(outcome.service_cost());
        }
        let t = dd_stats::mean(&times);
        let c = dd_stats::mean(&costs);
        let (bt, bc) = *base.get_or_insert((t, c));
        let resident: f64 = set.iter().map(|r| r.resident_mb()).sum();
        table.row([
            set.iter().map(|r| r.name()).collect::<Vec<_>>().join("+"),
            format!("{:.2}", startup.hot_prepare_secs(set)),
            format!("{resident:.0}"),
            format!("{t:.0}"),
            pct_change(t, bt),
            format!("{c:.4}"),
            pct_change(c, bc),
        ]);
    }
    section(
        "Sec. V Limitation — runtime heterogeneity (hot instances pre-load every runtime)",
        &format!(
            "{}\n(paper's mitigation: keep runtime heterogeneity to three or less)",
            table.render()
        ),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prepare_time_grows_with_runtimes() {
        let out = run(&ExperimentContext::quick());
        let prepares: Vec<f64> = out
            .lines()
            .filter(|l| l.starts_with("python"))
            .map(|l| l.split_whitespace().nth(1).unwrap().parse().unwrap())
            .collect();
        assert_eq!(prepares.len(), 4, "four runtime sets");
        for w in prepares.windows(2) {
            assert!(w[1] > w[0], "prepare time must grow: {prepares:?}");
        }
    }

    #[test]
    fn cost_impact_bounded_below_four_runtimes() {
        // The paper's mitigation threshold: through 3 runtimes the cost
        // delta stays small.
        let out = run(&ExperimentContext::quick());
        let third = out
            .lines()
            .filter(|l| l.starts_with("python"))
            .nth(2)
            .unwrap();
        let delta = third
            .split_whitespace()
            .last()
            .unwrap()
            .trim_start_matches('+')
            .trim_end_matches('%')
            .parse::<f64>()
            .unwrap();
        assert!(delta.abs() < 10.0, "3-runtime cost delta {delta}%");
    }
}
