//! Ablations — isolating DayDream's design choices (DESIGN.md §5).
//!
//! 1. **Dynamic re-fit vs static historic parameters**: disable the χ²
//!    interval re-fits (p_int = ∞) — matters most on hard-to-predict
//!    (drifting) runs.
//! 2. **Two-tier vs single-tier pools**: force all-high-end hot starts —
//!    isolates the low-end cost saving.
//! 3. **Half-phase vs phase-end trigger**: issue the next phase's pool
//!    only at phase completion — hot starts then race the next phase and
//!    arrive late.

use crate::report::{pct_change, section, Table};
use crate::workloads::{execute_policy_faulted, mean, ExperimentContext};
use daydream_core::{DayDreamConfig, DayDreamScheduler};
use dd_baselines::HybridPolicy;
use dd_platform::{Executor, FaultConfig, RecoveryPolicy, RunRequest};
use dd_platform::{FaasConfig, FaasExecutor, PoolTrigger};
use dd_stats::SeedStream;
use dd_wfdag::Workflow;

#[derive(Clone, Copy)]
struct Variant {
    name: &'static str,
    static_fit: bool,
    single_tier: bool,
    trigger: PoolTrigger,
}

const VARIANTS: [Variant; 4] = [
    Variant {
        name: "daydream (full)",
        static_fit: false,
        single_tier: false,
        trigger: PoolTrigger::HalfPhase,
    },
    Variant {
        name: "static fit",
        static_fit: true,
        single_tier: false,
        trigger: PoolTrigger::HalfPhase,
    },
    Variant {
        name: "single tier",
        static_fit: false,
        single_tier: true,
        trigger: PoolTrigger::HalfPhase,
    },
    Variant {
        name: "phase-end trigger",
        static_fit: false,
        single_tier: false,
        trigger: PoolTrigger::PhaseComplete,
    },
];

fn evaluate(ctx: &ExperimentContext, variant: Variant, hard_only: bool) -> (f64, f64, usize) {
    let shared: Vec<_> = Workflow::ALL
        .iter()
        .map(|&wf| {
            let gen = ctx.generator(wf);
            let runtimes = gen.spec().runtimes.clone();
            let history = ctx.history(wf);
            (gen, runtimes, history)
        })
        .collect();

    // Select the evaluated (workflow, run index) cells. When filtering
    // for hard runs, scan extra indices and keep the first `budget` hard
    // ones in index order — the same selection a serial scan makes.
    let budget = ctx.runs_per_workflow.min(4);
    let mut cells: Vec<(usize, usize)> = Vec::new();
    for (wf_idx, (gen, ..)) in shared.iter().enumerate() {
        if hard_only {
            let flags = crate::sweep::par_map(ctx.jobs, budget * 25, |idx| {
                gen.generate(idx).label.hard_to_predict
            });
            cells.extend(
                flags
                    .into_iter()
                    .enumerate()
                    .filter(|&(_, hard)| hard)
                    .take(budget)
                    .map(|(idx, _)| (wf_idx, idx)),
            );
        } else {
            cells.extend((0..budget).map(|idx| (wf_idx, idx)));
        }
    }

    let results = crate::sweep::par_map(ctx.jobs, cells.len(), |c| {
        let (wf_idx, idx) = cells[c];
        let (gen, runtimes, history) = &shared[wf_idx];
        let mut executor = FaasExecutor::new(FaasConfig {
            vendor: ctx.vendor,
            trigger: variant.trigger,
            ..FaasConfig::default()
        });
        let run = gen.generate(idx);
        let mut config = DayDreamConfig::default();
        if variant.static_fit {
            config = config.with_phase_interval(usize::MAX);
        }
        if variant.single_tier {
            config = config.single_tier();
        }
        let seeds = SeedStream::new(ctx.seed)
            .derive("ablation")
            .derive_index(idx as u64);
        let mut sched = DayDreamScheduler::new(history, config, ctx.vendor, seeds);
        let outcome = executor
            .run(RunRequest::new(&run, runtimes, &mut sched))
            .into_outcome();
        (outcome.service_time_secs, outcome.service_cost())
    });
    let times = results.iter().map(|r| r.0);
    let costs = results.iter().map(|r| r.1);
    (mean(times), mean(costs), results.len())
}

/// Runs the experiment.
pub fn run(ctx: &ExperimentContext) -> String {
    let mut regular = Table::new([
        "variant",
        "mean time (s)",
        "Δ time",
        "mean cost ($)",
        "Δ cost",
    ]);
    let (base_t, base_c, _) = evaluate(ctx, VARIANTS[0], false);
    for v in VARIANTS {
        let (t, c, _) = evaluate(ctx, v, false);
        regular.row([
            v.name.to_string(),
            format!("{t:.0}"),
            pct_change(t, base_t),
            format!("{c:.4}"),
            pct_change(c, base_c),
        ]);
    }

    // The paper's named future work: DayDream + Wild combined.
    let mut hybrid_row = Table::new([
        "scheduler",
        "mean time (s)",
        "Δ time",
        "mean cost ($)",
        "Δ cost",
    ]);
    {
        let shared: Vec<_> = Workflow::ALL
            .iter()
            .map(|&wf| {
                let gen = ctx.generator(wf);
                let runtimes = gen.spec().runtimes.clone();
                let history = ctx.history(wf);
                (gen, runtimes, history)
            })
            .collect();
        let budget = ctx.runs_per_workflow.min(4);
        let results = crate::sweep::par_map(ctx.jobs, shared.len() * budget, |cell| {
            let (gen, runtimes, history) = &shared[cell / budget];
            let idx = cell % budget;
            let run = gen.generate(idx);
            let seeds = SeedStream::new(ctx.seed)
                .derive("ablation-hybrid")
                .derive_index(idx as u64);
            let hybrid = HybridPolicy::with_history(history.clone());
            let (faults, recovery) = (FaultConfig::none(), RecoveryPolicy::backoff());
            let outcome =
                execute_policy_faulted(ctx, &run, runtimes, &hybrid, seeds, faults, recovery);
            (outcome.service_time_secs, outcome.service_cost())
        });
        let (t, c) = (
            mean(results.iter().map(|r| r.0)),
            mean(results.iter().map(|r| r.1)),
        );
        hybrid_row.row([
            "hybrid (daydream+wild)".to_string(),
            format!("{t:.0}"),
            pct_change(t, base_t),
            format!("{c:.4}"),
            pct_change(c, base_c),
        ]);
    }

    // The static-fit ablation on hard (drifting) runs, where the dynamic
    // re-fit earns its keep.
    let mut hard = Table::new(["variant", "hard runs", "mean time (s)", "mean cost ($)"]);
    for v in [VARIANTS[0], VARIANTS[1]] {
        let (t, c, n) = evaluate(ctx, v, true);
        hard.row([
            v.name.to_string(),
            n.to_string(),
            format!("{t:.0}"),
            format!("{c:.4}"),
        ]);
    }

    section(
        "Ablations — dynamic re-fit, two tiers, half-phase trigger, hybrid",
        &format!(
            "all runs:\n{}\nhard-to-predict (drifting) runs only:\n{}\nfuture work (paper Sec. V): combining Wild's warm pairing with DayDream's hot starts\n(a negative result: warm hits save only the ~0.08s component-load step, so mispairing\nwaste outweighs them — hot starts dominate, the paper's core argument):\n{}",
            regular.render(),
            hard.render(),
            hybrid_row.render()
        ),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_tier_costs_more() {
        let ctx = ExperimentContext {
            runs_per_workflow: 2,
            scale_down: 20,
            ..ExperimentContext::default()
        };
        let (_, full_cost, _) = evaluate(&ctx, VARIANTS[0], false);
        let (_, single_cost, _) = evaluate(&ctx, VARIANTS[2], false);
        assert!(
            single_cost > full_cost,
            "single-tier ${single_cost} should exceed two-tier ${full_cost}"
        );
    }

    #[test]
    fn phase_end_trigger_is_slower() {
        let ctx = ExperimentContext {
            runs_per_workflow: 2,
            scale_down: 20,
            ..ExperimentContext::default()
        };
        let (full_t, _, _) = evaluate(&ctx, VARIANTS[0], false);
        let (late_t, _, _) = evaluate(&ctx, VARIANTS[3], false);
        assert!(
            late_t >= full_t,
            "phase-end trigger {late_t}s should not beat half-phase {full_t}s"
        );
    }
}
