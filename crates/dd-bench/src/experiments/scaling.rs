//! Concurrency-scaling study (extension).
//!
//! The paper evaluates three fixed workflows (mean concurrency 9 / 17 /
//! 90). This study sweeps a *synthetic* workflow's mean concurrency from
//! 10 to 160 and measures how DayDream's advantage over Wild and Pegasus
//! scales — the expectation (borne out) being that hot starts matter more
//! as phases get wider: each additional component is another chance for a
//! Wild mispairing or a Pegasus cold start to sit on the critical path.

use crate::report::{pct_change, section, Table};
use crate::workloads::{execute_policy_faulted, mean, ExperimentContext};
use daydream_core::{DayDreamHistory, DayDreamPolicy};
use dd_baselines::{PegasusPolicy, WildPolicy};
use dd_platform::{FaultConfig, RecoveryPolicy, SchedulerPolicy};
use dd_stats::SeedStream;
use dd_wfdag::{RunGenerator, WorkflowSpec};

/// Runs the experiment.
pub fn run(ctx: &ExperimentContext) -> String {
    let mut table = Table::new([
        "mean concurrency",
        "daydream (s)",
        "vs wild",
        "vs pegasus",
        "daydream ($)",
        "vs wild",
        "vs pegasus",
    ]);
    let n_runs = ctx.runs_per_workflow.min(3);
    let phases = (120 / ctx.scale_down.max(1)).max(8);

    // Serial precompute per concurrency level (the shared history learn),
    // then fan the level x run cells over the sweep executor.
    let levels: Vec<_> = [10.0f64, 40.0, 90.0, 160.0]
        .into_iter()
        .enumerate()
        .map(|(tag, concurrency)| {
            let spec = WorkflowSpec::synthetic(tag, 600, concurrency, 3.2, phases);
            let runtimes = spec.runtimes.clone();
            let gen = RunGenerator::new(spec, ctx.seed);
            let mut history = DayDreamHistory::new();
            history.learn_from_run(&gen.generate(1_000), 0.20, 24);
            (concurrency, gen, runtimes, history)
        })
        .collect();

    let cells = crate::sweep::par_map(ctx.jobs, levels.len() * n_runs, |cell| {
        let (_, gen, runtimes, history) = &levels[cell / n_runs];
        let idx = cell % n_runs;
        let run = gen.generate(idx);
        let seeds = SeedStream::new(ctx.seed)
            .derive("scaling")
            .derive_index(idx as u64);
        let daydream = DayDreamPolicy::with_history(history.clone());
        let clean = |policy: &dyn SchedulerPolicy| {
            let (faults, recovery) = (FaultConfig::none(), RecoveryPolicy::backoff());
            execute_policy_faulted(ctx, &run, runtimes, policy, seeds, faults, recovery)
        };
        let dd = clean(&daydream);
        let wi = clean(&WildPolicy);
        let pe = clean(&PegasusPolicy);
        [
            [dd.service_time_secs, dd.service_cost()],
            [wi.service_time_secs, wi.service_cost()],
            [pe.service_time_secs, pe.service_cost()],
        ]
    });

    for (level, (concurrency, ..)) in levels.iter().enumerate() {
        let mut dd = (Vec::new(), Vec::new());
        let mut wi = (Vec::new(), Vec::new());
        let mut pe = (Vec::new(), Vec::new());
        for cell in &cells[level * n_runs..(level + 1) * n_runs] {
            dd.0.push(cell[0][0]);
            dd.1.push(cell[0][1]);
            wi.0.push(cell[1][0]);
            wi.1.push(cell[1][1]);
            pe.0.push(cell[2][0]);
            pe.1.push(cell[2][1]);
        }
        let m = |xs: &[f64]| mean(xs.iter().copied());
        table.row([
            format!("{concurrency:.0}"),
            format!("{:.0}", m(&dd.0)),
            pct_change(m(&dd.0), m(&wi.0)),
            pct_change(m(&dd.0), m(&pe.0)),
            format!("{:.4}", m(&dd.1)),
            pct_change(m(&dd.1), m(&wi.1)),
            pct_change(m(&dd.1), m(&pe.1)),
        ]);
    }
    section(
        "Concurrency scaling — DayDream's advantage vs phase width (synthetic workflows)",
        &format!(
            "{}\n(wider phases ⇒ more chances for a mispairing or cold start on the critical path)",
            table.render()
        ),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn daydream_wins_at_every_scale() {
        let ctx = ExperimentContext {
            runs_per_workflow: 1,
            scale_down: 10,
            ..ExperimentContext::default()
        };
        let out = run(&ctx);
        let rows: Vec<&str> = out
            .lines()
            .filter(|l| {
                l.starts_with("10 ")
                    || l.starts_with("40")
                    || l.starts_with("90")
                    || l.starts_with("160")
            })
            .collect();
        assert_eq!(rows.len(), 4, "{out}");
        for row in rows {
            let deltas: Vec<&str> = row
                .split_whitespace()
                .filter(|c| c.ends_with('%'))
                .collect();
            assert!(
                deltas.iter().all(|d| d.starts_with('-')),
                "daydream should win every column: {row}"
            );
        }
    }

    #[test]
    fn pegasus_gap_grows_with_concurrency() {
        let ctx = ExperimentContext {
            runs_per_workflow: 2,
            scale_down: 10,
            ..ExperimentContext::default()
        };
        let out = run(&ctx);
        // Time-vs-pegasus deltas (3rd column) should widen (more negative)
        // from concurrency 10 to 160.
        let deltas: Vec<f64> = out
            .lines()
            .filter(|l| {
                l.starts_with("10 ")
                    || l.starts_with("40")
                    || l.starts_with("90")
                    || l.starts_with("160")
            })
            .filter_map(|l| {
                l.split_whitespace()
                    .filter(|c| c.ends_with('%'))
                    .nth(1)
                    .and_then(|c| c.trim_end_matches('%').parse::<f64>().ok())
            })
            .collect();
        assert_eq!(deltas.len(), 4, "{out}");
        assert!(
            deltas[3] < deltas[0],
            "pegasus gap should widen with concurrency: {deltas:?}"
        );
    }
}
