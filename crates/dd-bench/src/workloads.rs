//! Shared experiment infrastructure: workloads, schedulers, and the
//! (workflow × run × scheduler) evaluation matrix.
//!
//! The paper evaluates 50 runs of each of the three workflows under four
//! techniques (DayDream, Wild, Pegasus, Oracle; we add the all-cold naive
//! floor). [`EvaluationMatrix::compute_for`] executes that grid — runs
//! are generated, executed under every scheduler, and dropped, keeping
//! only the [`RunOutcome`]s, so even full-scale Cosmoscout-VR (≈ 120 000
//! component instances per run) fits comfortably in memory.

use daydream_core::{DayDreamHistory, DayDreamPolicy};
use dd_baselines::{NaivePolicy, OraclePolicy, PegasusPolicy, WildPolicy};
use dd_platform::SchedulerPolicy;
use dd_platform::{BuiltScheduler, CloudVendor, FaasConfig, FaasExecutor, FaultConfig};
use dd_platform::{Executor, PolicyContext, RecoveryPolicy, RunOutcome, RunRequest};
use dd_stats::SeedStream;
use dd_wfdag::{RunGenerator, Workflow, WorkflowRun, WorkflowSpec};

/// Experiment sizing and seeding.
#[derive(Debug, Clone, Copy)]
pub struct ExperimentContext {
    /// Root seed; every workload and scheduler derives from it.
    pub seed: u64,
    /// Runs per workflow (paper: 50).
    pub runs_per_workflow: usize,
    /// Phase-count divisor for quick smoke reports (1 = paper scale).
    pub scale_down: usize,
    /// Cloud vendor for the serverless executors.
    pub vendor: CloudVendor,
    /// Worker threads for multi-run sweeps (default: available
    /// parallelism). Results are identical at any setting — cells derive
    /// their randomness from (workflow, run index, seed) alone and are
    /// re-ordered by index before rendering.
    pub jobs: usize,
}

impl Default for ExperimentContext {
    fn default() -> Self {
        Self {
            seed: 0xDA1D,
            runs_per_workflow: 50,
            scale_down: 1,
            vendor: CloudVendor::Aws,
            jobs: crate::sweep::default_jobs(),
        }
    }
}

impl ExperimentContext {
    /// Quick sizing for smoke tests: 8 runs, phases ÷ 10.
    pub fn quick() -> Self {
        Self {
            runs_per_workflow: 8,
            scale_down: 10,
            ..Self::default()
        }
    }

    /// This context with a different worker-thread count.
    pub fn with_jobs(self, jobs: usize) -> Self {
        Self {
            jobs: jobs.max(1),
            ..self
        }
    }

    /// The (possibly scaled) spec of a workflow.
    pub fn spec(&self, workflow: Workflow) -> WorkflowSpec {
        WorkflowSpec::new(workflow).scaled_down(self.scale_down)
    }

    /// The run generator of a workflow.
    pub fn generator(&self, workflow: Workflow) -> RunGenerator {
        RunGenerator::new(self.spec(workflow), self.seed)
    }

    /// DayDream history learned on a dedicated training run (index 1000,
    /// outside the evaluated 0..runs range) — the paper's "first run".
    pub fn history(&self, workflow: Workflow) -> DayDreamHistory {
        let gen = self.generator(workflow);
        let mut history = DayDreamHistory::new();
        history.learn_from_run(&gen.generate(1_000), 0.20, 24);
        history
    }
}

/// The techniques compared in the evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SchedulerKind {
    /// Practically infeasible lower bound.
    Oracle,
    /// The paper's contribution.
    DayDream,
    /// Serverless in the Wild (ARIMA warm starts).
    Wild,
    /// HPC workflow manager on a rented cluster.
    Pegasus,
    /// All cold starts.
    Naive,
}

impl SchedulerKind {
    /// The four paper techniques plus the naive floor.
    pub const ALL: [SchedulerKind; 5] = [
        SchedulerKind::Oracle,
        SchedulerKind::DayDream,
        SchedulerKind::Wild,
        SchedulerKind::Pegasus,
        SchedulerKind::Naive,
    ];

    /// The paper's four techniques (Figs. 11–15).
    pub const PAPER: [SchedulerKind; 4] = [
        SchedulerKind::Oracle,
        SchedulerKind::DayDream,
        SchedulerKind::Wild,
        SchedulerKind::Pegasus,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            SchedulerKind::Oracle => "Oracle",
            SchedulerKind::DayDream => "DayDream",
            SchedulerKind::Wild => "Wild",
            SchedulerKind::Pegasus => "Pegasus",
            SchedulerKind::Naive => "Naive",
        }
    }
}

impl std::fmt::Display for SchedulerKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Executes one run under one scheduler kind by routing it through the
/// matching [`SchedulerPolicy`] (history-driven kinds are seeded with
/// the pre-trained history rather than re-trained per cell).
pub fn execute_run(
    ctx: &ExperimentContext,
    run: &WorkflowRun,
    runtimes: &[dd_wfdag::LanguageRuntime],
    history: &DayDreamHistory,
    kind: SchedulerKind,
) -> RunOutcome {
    let policy: Box<dyn SchedulerPolicy> = match kind {
        SchedulerKind::Oracle => Box::new(OraclePolicy::new()),
        SchedulerKind::DayDream => Box::new(DayDreamPolicy::with_history(history.clone())),
        SchedulerKind::Wild => Box::new(WildPolicy),
        SchedulerKind::Pegasus => Box::new(PegasusPolicy),
        SchedulerKind::Naive => Box::new(NaivePolicy),
    };
    execute_policy(ctx, run, runtimes, policy.as_ref())
}

/// Executes one run under an already-prepared policy — the single
/// dispatch point every experiment funnels through. Serverless builds
/// run on the analytic FaaS executor; cluster builds execute directly.
pub fn execute_policy(
    ctx: &ExperimentContext,
    run: &WorkflowRun,
    runtimes: &[dd_wfdag::LanguageRuntime],
    policy: &dyn SchedulerPolicy,
) -> RunOutcome {
    let seeds = SeedStream::new(ctx.seed)
        .derive("scheduler")
        .derive_index(run.label.run_index as u64);
    execute_policy_faulted(
        ctx,
        run,
        runtimes,
        policy,
        seeds,
        FaultConfig::none(),
        RecoveryPolicy::backoff(),
    )
}

/// Executes one run under a prepared policy with fault injection: the
/// serverless path runs on a faulted FaaS executor, the cluster path
/// goes through [`dd_platform::ClusterPolicy::execute_faulted`]'s
/// phase-stretch adapter. `seeds` feeds the policy's per-run scheduler:
/// experiments that predate the registry each pinned their own
/// derivation label and must keep it for byte-stable reports. With
/// `FaultConfig::none()` and `RecoveryPolicy::backoff()` (the
/// `FaasConfig` defaults) this is a clean run.
pub fn execute_policy_faulted(
    ctx: &ExperimentContext,
    run: &WorkflowRun,
    runtimes: &[dd_wfdag::LanguageRuntime],
    policy: &dyn SchedulerPolicy,
    seeds: SeedStream,
    faults: FaultConfig,
    recovery: RecoveryPolicy,
) -> RunOutcome {
    let pctx = PolicyContext {
        run,
        runtimes,
        vendor: ctx.vendor,
        seeds,
    };
    match policy.build(&pctx) {
        BuiltScheduler::Serverless(mut s) => {
            let mut executor = FaasExecutor::new(FaasConfig {
                vendor: ctx.vendor,
                faults,
                recovery,
                ..FaasConfig::default()
            });
            executor
                .run(RunRequest::new(run, runtimes, s.as_mut()))
                .into_outcome()
        }
        BuiltScheduler::Cluster(cluster) => {
            cluster.execute_faulted(run, runtimes, ctx.vendor, faults, recovery)
        }
    }
}

/// Outcomes of every evaluated run of one workflow, per scheduler.
#[derive(Debug)]
pub struct WorkflowEval {
    /// Which workflow.
    pub workflow: Workflow,
    /// Labels of the evaluated runs (run → hard-to-predict flag etc.).
    pub labels: Vec<dd_wfdag::RunLabel>,
    /// `outcomes[scheduler][run_index]`.
    pub outcomes: Vec<(SchedulerKind, Vec<RunOutcome>)>,
}

impl WorkflowEval {
    /// The outcome series of one scheduler.
    pub fn of(&self, kind: SchedulerKind) -> &[RunOutcome] {
        &self
            .outcomes
            .iter()
            .find(|(k, _)| *k == kind)
            .expect("scheduler evaluated")
            .1
    }

    /// Mean service time of a scheduler across runs.
    pub fn mean_time(&self, kind: SchedulerKind) -> f64 {
        mean(self.of(kind).iter().map(|o| o.service_time_secs))
    }

    /// Mean service cost of a scheduler across runs.
    pub fn mean_cost(&self, kind: SchedulerKind) -> f64 {
        mean(self.of(kind).iter().map(|o| o.service_cost()))
    }

    /// Per-run service time normalized to the Oracle's (Fig. 12).
    pub fn normalized_times(&self, kind: SchedulerKind) -> Vec<f64> {
        self.of(kind)
            .iter()
            .zip(self.of(SchedulerKind::Oracle))
            .map(|(o, oracle)| o.service_time_secs / oracle.service_time_secs)
            .collect()
    }

    /// Per-run service cost normalized to the Oracle's (Fig. 15).
    pub fn normalized_costs(&self, kind: SchedulerKind) -> Vec<f64> {
        self.of(kind)
            .iter()
            .zip(self.of(SchedulerKind::Oracle))
            .map(|(o, oracle)| o.service_cost() / oracle.service_cost())
            .collect()
    }
}

/// The full evaluation grid.
#[derive(Debug)]
pub struct EvaluationMatrix {
    /// One entry per workflow, in paper order.
    pub workflows: Vec<WorkflowEval>,
}

impl EvaluationMatrix {
    /// Executes the grid for a subset of schedulers, fanning the
    /// (workflow × run) cells over `ctx.jobs` worker threads. Each cell
    /// generates its run from (workflow, run index, seed) alone, so the
    /// result is identical at any thread count.
    pub fn compute_for(ctx: &ExperimentContext, kinds: &[SchedulerKind]) -> Self {
        // Per-workflow shared inputs (spec, generator, training history)
        // are cheap relative to the grid; precompute them serially.
        let shared: Vec<_> = Workflow::ALL
            .iter()
            .map(|&wf| {
                let gen = ctx.generator(wf);
                let runtimes = gen.spec().runtimes.clone();
                let history = ctx.history(wf);
                (wf, gen, runtimes, history)
            })
            .collect();

        let runs = ctx.runs_per_workflow;
        let cells = crate::sweep::par_map(ctx.jobs, shared.len() * runs, |cell| {
            let (_, gen, runtimes, history) = &shared[cell / runs];
            let run = gen.generate(cell % runs);
            let outcomes: Vec<RunOutcome> = kinds
                .iter()
                .map(|&kind| execute_run(ctx, &run, runtimes, history, kind))
                .collect();
            (run.label, outcomes)
        });

        // Reassemble in (workflow, run) index order — `par_map` already
        // returns cells ordered by index, independent of which worker
        // finished when.
        let mut cells = cells.into_iter();
        let workflows = shared
            .iter()
            .map(|(wf, ..)| {
                let mut labels = Vec::with_capacity(runs);
                let mut outcomes: Vec<(SchedulerKind, Vec<RunOutcome>)> = kinds
                    .iter()
                    .map(|&k| (k, Vec::with_capacity(runs)))
                    .collect();
                for _ in 0..runs {
                    let (label, cell_outcomes) = cells.next().expect("one cell per run");
                    labels.push(label);
                    for ((_, series), outcome) in outcomes.iter_mut().zip(cell_outcomes) {
                        series.push(outcome);
                    }
                }
                WorkflowEval {
                    workflow: *wf,
                    labels,
                    outcomes,
                }
            })
            .collect();
        Self { workflows }
    }

    /// The evaluation of one workflow.
    pub fn workflow(&self, wf: Workflow) -> &WorkflowEval {
        self.workflows
            .iter()
            .find(|w| w.workflow == wf)
            .expect("workflow evaluated")
    }
}

/// Mean of an iterator of f64 (0 when empty).
pub fn mean(xs: impl IntoIterator<Item = f64>) -> f64 {
    let mut sum = 0.0;
    let mut n = 0usize;
    for x in xs {
        sum += x;
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // exact equality asserts bit-reproducibility, the determinism contract
mod tests {
    use super::*;

    fn tiny_ctx() -> ExperimentContext {
        ExperimentContext {
            runs_per_workflow: 2,
            scale_down: 25,
            ..ExperimentContext::default()
        }
    }

    #[test]
    fn matrix_shape() {
        let ctx = tiny_ctx();
        let m =
            EvaluationMatrix::compute_for(&ctx, &[SchedulerKind::Oracle, SchedulerKind::DayDream]);
        assert_eq!(m.workflows.len(), 3);
        for wf in &m.workflows {
            assert_eq!(wf.labels.len(), 2);
            assert_eq!(wf.of(SchedulerKind::Oracle).len(), 2);
            assert_eq!(wf.of(SchedulerKind::DayDream).len(), 2);
        }
    }

    #[test]
    fn normalization_against_oracle() {
        let ctx = tiny_ctx();
        let m = EvaluationMatrix::compute_for(&ctx, &[SchedulerKind::Oracle, SchedulerKind::Naive]);
        let eval = m.workflow(Workflow::Ccl);
        for v in eval.normalized_times(SchedulerKind::Oracle) {
            assert!((v - 1.0).abs() < 1e-12);
        }
        for v in eval.normalized_times(SchedulerKind::Naive) {
            assert!(v > 1.0, "naive must be slower than oracle: {v}");
        }
    }

    #[test]
    fn paper_ordering_holds_on_small_grid() {
        // The headline result, smoke-sized: DayDream beats Wild and
        // Pegasus on both metrics, and sits above Oracle.
        let ctx = ExperimentContext {
            runs_per_workflow: 3,
            scale_down: 12,
            ..ExperimentContext::default()
        };
        let m = EvaluationMatrix::compute_for(
            &ctx,
            &[
                SchedulerKind::Oracle,
                SchedulerKind::DayDream,
                SchedulerKind::Wild,
                SchedulerKind::Pegasus,
            ],
        );
        for eval in &m.workflows {
            let t_or = eval.mean_time(SchedulerKind::Oracle);
            let t_dd = eval.mean_time(SchedulerKind::DayDream);
            let t_wi = eval.mean_time(SchedulerKind::Wild);
            let t_pe = eval.mean_time(SchedulerKind::Pegasus);
            assert!(
                t_or <= t_dd * 1.001,
                "{}: oracle {t_or} vs dd {t_dd}",
                eval.workflow
            );
            assert!(t_dd < t_wi, "{}: dd {t_dd} vs wild {t_wi}", eval.workflow);
            assert!(
                t_wi < t_pe,
                "{}: wild {t_wi} vs pegasus {t_pe}",
                eval.workflow
            );

            let c_dd = eval.mean_cost(SchedulerKind::DayDream);
            let c_wi = eval.mean_cost(SchedulerKind::Wild);
            let c_pe = eval.mean_cost(SchedulerKind::Pegasus);
            assert!(c_dd < c_wi, "{}: dd ${c_dd} vs wild ${c_wi}", eval.workflow);
            assert!(
                c_dd < c_pe,
                "{}: dd ${c_dd} vs pegasus ${c_pe}",
                eval.workflow
            );
        }
    }

    #[test]
    fn matrix_identical_at_any_thread_count() {
        let serial = EvaluationMatrix::compute_for(
            &tiny_ctx().with_jobs(1),
            &[SchedulerKind::DayDream, SchedulerKind::Wild],
        );
        let parallel = EvaluationMatrix::compute_for(
            &tiny_ctx().with_jobs(8),
            &[SchedulerKind::DayDream, SchedulerKind::Wild],
        );
        for (a, b) in serial.workflows.iter().zip(&parallel.workflows) {
            assert_eq!(a.workflow, b.workflow);
            for (&kind, _) in a.outcomes.iter().map(|(k, s)| (k, s)) {
                for (x, y) in a.of(kind).iter().zip(b.of(kind)) {
                    assert_eq!(x.service_time_secs, y.service_time_secs, "{kind}");
                    assert_eq!(x.service_cost(), y.service_cost(), "{kind}");
                }
            }
        }
    }

    #[test]
    fn execute_run_is_deterministic() {
        let ctx = tiny_ctx();
        let gen = ctx.generator(Workflow::Ccl);
        let runtimes = gen.spec().runtimes.clone();
        let history = ctx.history(Workflow::Ccl);
        let run = gen.generate(0);
        let a = execute_run(&ctx, &run, &runtimes, &history, SchedulerKind::DayDream);
        let b = execute_run(&ctx, &run, &runtimes, &history, SchedulerKind::DayDream);
        assert_eq!(a.service_time_secs, b.service_time_secs);
        assert_eq!(a.service_cost(), b.service_cost());
    }
}
