//! The pluggable scheduler-policy surface: one trait, one registry, one
//! dispatch.
//!
//! Everything that schedules a workflow run — DayDream itself, the six
//! evaluation baselines, and the post-paper competitors — is a
//! [`SchedulerPolicy`]: a named factory that, given per-run context
//! ([`PolicyContext`]), builds the object that actually makes decisions.
//! Two execution shapes exist ([`BuiltScheduler`]):
//!
//! * **Serverless** — a [`ServerlessScheduler`] driven by the FaaS
//!   executors' observe/decide/place lifecycle ([`crate::sched`]): pool
//!   sizing from [`crate::sched::PhaseObservation`]s, start-mode and tier
//!   decisions at placement, and optional
//!   [`crate::sched::StorageHints`] consumed by the storage-cost model.
//! * **Cluster** — a [`ClusterPolicy`] executing the whole run on a
//!   rented cluster (Pegasus). The trait ships default fault-stretch and
//!   trace adapters so cluster policies participate in the fault matrix
//!   and the CLI trace artifacts exactly like the serverless ones.
//!
//! [`run_policy`] is the one place a build meets its substrate: every
//! front end (the experiments, the serve stream, the CLI, the examples)
//! builds and runs through it. A serverless build runs on the caller's
//! [`Substrate`] — the analytic [`FaasExecutor`] or the event-driven
//! [`DesFaasExecutor`] on a reused [`DesSession`]; a cluster build runs
//! [`ClusterPolicy::execute_faulted`] under the vendor, faults and
//! recovery of that executor's [`FaasConfig`].
//!
//! The [`PolicyRegistry`] maps stable lowercase names to factories in
//! **registration order** — listings, `--policy help`, and the zoo
//! experiment's row order all derive from it, so output stays
//! byte-deterministic. dd-baselines owns the populated registry (it can
//! name every concrete policy); this module owns only the surface.
//!
//! Cross-run learning goes through [`SchedulerPolicy::prepare`]: the call
//! site hands the policy one *training* run (the same
//! `RunGenerator::generate(1_000)` run the pre-trait code trained
//! `DayDreamHistory` on) once per workflow, before fanning runs out over
//! worker threads. Policies that need no history ignore it.

use crate::cluster::{ClusterKind, ClusterSim};
use crate::des::SimTime;
use crate::executor::{Executor, RunReport, RunRequest};
use crate::faas::{FaasConfig, FaasExecutor};
use crate::faas_des::{DesFaasExecutor, DesSession};
use crate::faults::{FaultConfig, FaultPlan, RecoveryPolicy};
use crate::pricing::CloudVendor;
use crate::sched::{ServerlessScheduler, StartKind};
use crate::telemetry::RunOutcome;
use crate::tier::Tier;
use crate::trace::{ComponentTrace, ExecutionTrace};
use dd_obs::Recorder;
use dd_stats::SeedStream;
use dd_wfdag::{LanguageRuntime, WorkflowRun};

/// Per-run context a policy builds its scheduler from.
///
/// Every field mirrors an argument the pre-trait call sites passed to
/// the concrete constructors, so a ported policy can reproduce the old
/// construction byte-for-byte.
#[derive(Debug, Clone, Copy)]
pub struct PolicyContext<'a> {
    /// The run about to execute. Clairvoyant policies (Oracle) may read
    /// it in full; honest ones should only take structural facts a real
    /// platform would know (phase count, runtimes, DAG edges).
    pub run: &'a WorkflowRun,
    /// Language runtimes the DAG uses.
    pub runtimes: &'a [LanguageRuntime],
    /// Cloud vendor whose pricing/startup envelopes apply.
    pub vendor: CloudVendor,
    /// Deterministic seed stream for any sampling the policy does.
    /// Call sites derive it exactly as they did pre-trait.
    pub seeds: SeedStream,
}

/// What a policy builds for one run: a serverless scheduler driven by
/// the FaaS executors, or a whole-run cluster policy.
pub enum BuiltScheduler {
    /// Phase-by-phase scheduling through [`ServerlessScheduler`].
    Serverless(Box<dyn ServerlessScheduler + Send>),
    /// Whole-run execution on a rented cluster ([`ClusterPolicy`]).
    Cluster(Box<dyn ClusterPolicy>),
}

impl BuiltScheduler {
    /// The underlying scheduler's report name.
    pub fn name(&self) -> &'static str {
        match self {
            BuiltScheduler::Serverless(s) => s.name(),
            BuiltScheduler::Cluster(c) => c.name(),
        }
    }
}

impl std::fmt::Debug for BuiltScheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuiltScheduler::Serverless(s) => write!(f, "BuiltScheduler::Serverless({})", s.name()),
            BuiltScheduler::Cluster(c) => write!(f, "BuiltScheduler::Cluster({})", c.name()),
        }
    }
}

/// The FaaS executor a serverless build runs on in [`run_policy`]. Its
/// [`FaasConfig`] also supplies the vendor, faults and recovery of a
/// cluster build, so both shapes see one fault plan.
pub enum Substrate<'e> {
    /// The closed-form analytic executor.
    Analytic(&'e mut FaasExecutor),
    /// The discrete-event executor, reusing the session's allocations.
    Des(&'e DesFaasExecutor, &'e mut DesSession),
}

impl Substrate<'_> {
    fn config(&self) -> &FaasConfig {
        match self {
            Substrate::Analytic(e) => e.config(),
            Substrate::Des(e, _) => e.config(),
        }
    }
}

/// Builds `policy` for `ctx.run` and runs the build on its substrate.
///
/// A serverless build runs on `on` with `recorder` attached; a cluster
/// build runs [`ClusterPolicy::execute_faulted`] (its recorder stays
/// empty: cluster execution emits no FaaS events) and, when `traced`,
/// synthesizes its trace with [`ClusterPolicy::trace`].
pub fn run_policy(
    policy: &dyn SchedulerPolicy,
    ctx: &PolicyContext<'_>,
    on: Substrate<'_>,
    recorder: Option<&mut dyn Recorder>,
    traced: bool,
) -> RunReport {
    let (run, runtimes) = (ctx.run, ctx.runtimes);
    match policy.build(ctx) {
        BuiltScheduler::Serverless(mut scheduler) => {
            let mut req = RunRequest::new(run, runtimes, scheduler.as_mut());
            if let Some(recorder) = recorder {
                req = req.with_recorder(recorder);
            }
            req.collect_trace = traced;
            match on {
                Substrate::Analytic(executor) => executor.run(req),
                Substrate::Des(executor, session) => executor.run_with(session, req),
            }
        }
        BuiltScheduler::Cluster(cluster) => {
            let cfg = on.config();
            let outcome =
                cluster.execute_faulted(run, runtimes, cfg.vendor, cfg.faults, cfg.recovery);
            let trace = traced.then(|| cluster.trace(run, &outcome));
            RunReport { outcome, trace }
        }
    }
}

/// A named, registrable scheduling policy.
///
/// Implementations are factories, not schedulers: [`SchedulerPolicy::build`]
/// is called once per run and returns the stateful decision object. The
/// split keeps per-run state out of the shared policy (so one prepared
/// policy can fan out over worker threads by `&`-reference) and gives
/// every policy an identical construction surface for the registry.
pub trait SchedulerPolicy: Send + Sync {
    /// Stable lowercase registry name (also the report name).
    fn name(&self) -> &'static str;

    /// One-line description for `--policy help` listings.
    fn description(&self) -> &'static str;

    /// Folds one training run into the policy's cross-run state (e.g.
    /// fitting the historic Weibull). Called once per workflow, before
    /// any [`SchedulerPolicy::build`], with the same training run the
    /// pre-trait code learned history from. Default: stateless.
    fn prepare(&mut self, training: &WorkflowRun) {
        let _ = training;
    }

    /// Builds the per-run scheduler.
    fn build(&self, ctx: &PolicyContext<'_>) -> BuiltScheduler;
}

/// A policy that executes the whole run on a rented cluster (Pegasus).
///
/// The default methods adapt cluster execution to the rest of the
/// harness: [`ClusterPolicy::execute_faulted`] stretches phases under a
/// deterministic [`FaultPlan`] (a gang-scheduled phase cannot finish
/// before its slowest retried node) and [`ClusterPolicy::trace`]
/// synthesizes the per-component execution trace the CLI artifacts
/// expect; [`run_policy`] calls both.
pub trait ClusterPolicy: Send + Sync {
    /// Report name.
    fn name(&self) -> &'static str;

    /// Executes a run on the policy's cluster under `vendor` pricing.
    fn execute(
        &self,
        run: &WorkflowRun,
        runtimes: &[LanguageRuntime],
        vendor: CloudVendor,
    ) -> RunOutcome;

    /// Node count the trace adapter simulates with. Default: the
    /// Pegasus sizing — the run's maximum phase concurrency.
    fn trace_nodes(&self, run: &WorkflowRun) -> usize {
        run.max_concurrency().max(1) as usize
    }

    /// Executes under the fault plan: each phase is stretched by the
    /// worst per-slot recovery factor (unit-exec timelines), and the
    /// added node-time is billed to the `retry` ledger component at the
    /// run's effective execution rate. A strict no-op on clean plans.
    fn execute_faulted(
        &self,
        run: &WorkflowRun,
        runtimes: &[LanguageRuntime],
        vendor: CloudVendor,
        faults: FaultConfig,
        recovery: RecoveryPolicy,
    ) -> RunOutcome {
        let mut outcome = self.execute(run, runtimes, vendor);
        let plan = FaultPlan::for_run(faults, recovery, run.label.run_index as u64);
        if plan.is_clean() {
            return outcome;
        }
        let clean_exec: f64 = outcome.phases.iter().map(|p| p.exec_secs).sum();
        let mut extra = 0.0;
        for phase in &mut outcome.phases {
            let factor = (0..phase.concurrency.max(1) as usize)
                .map(|slot| {
                    plan.timeline(phase.index, slot, 0.0, 1.0, 0.0)
                        .completion_offset_secs
                })
                .fold(1.0_f64, f64::max);
            extra += phase.exec_secs * (factor - 1.0);
            phase.exec_secs *= factor;
        }
        outcome.service_time_secs += extra;
        if clean_exec > 0.0 {
            // Bill the stretch at the run's effective $/exec-second rate.
            outcome.ledger.retry = outcome.ledger.execution * (extra / clean_exec);
        }
        outcome
    }

    /// Synthesizes the execution trace of a completed cluster run: every
    /// component is a cold start on a high-end node, with per-component
    /// busy times from the cluster contention model.
    fn trace(&self, run: &WorkflowRun, outcome: &RunOutcome) -> ExecutionTrace {
        let sim = ClusterSim::new(ClusterKind::Hpc, self.trace_nodes(run));
        let mut trace = ExecutionTrace::default();
        let mut now = SimTime::ZERO;
        for (phase, record) in run.phases.iter().zip(&outcome.phases) {
            trace.phase_starts.push(now);
            let result = sim.phase_time(phase, &[]);
            for (slot, (_c, &busy)) in phase
                .components
                .iter()
                .zip(&result.busy_per_component)
                .enumerate()
            {
                trace.components.push(ComponentTrace {
                    phase: phase.index,
                    slot,
                    kind: StartKind::Cold,
                    tier: Tier::HighEnd,
                    instance: None,
                    start: now,
                    overhead_secs: 0.0,
                    exec_secs: busy,
                    write_secs: 0.0,
                    attempts: 1,
                    recovery_secs: 0.0,
                });
            }
            now = now.after(record.exec_secs.max(result.phase_secs));
            trace.phase_ends.push(now);
        }
        trace
    }
}

/// Factory signature the registry stores: policies must be constructible
/// without arguments (per-run inputs arrive via [`PolicyContext`]).
pub type PolicyFactory = fn() -> Box<dyn SchedulerPolicy>;

/// One registry row.
struct PolicyEntry {
    name: &'static str,
    summary: &'static str,
    factory: PolicyFactory,
}

/// A deterministic, name-keyed policy registry.
///
/// Names are matched case-insensitively; listings preserve registration
/// order (never a hash order), so `--policy help`, the zoo experiment's
/// rows, and error messages are byte-stable.
#[derive(Default)]
pub struct PolicyRegistry {
    entries: Vec<PolicyEntry>,
}

impl PolicyRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a policy. Panics on duplicate names: the registry is
    /// assembled once at startup from static registration lists, so a
    /// clash is a programming error worth failing loudly on.
    pub fn register(&mut self, name: &'static str, summary: &'static str, factory: PolicyFactory) {
        assert!(
            !self
                .entries
                .iter()
                .any(|e| e.name.eq_ignore_ascii_case(name)),
            "policy '{name}' registered twice"
        );
        self.entries.push(PolicyEntry {
            name,
            summary,
            factory,
        });
    }

    /// Registered names, in registration order.
    pub fn names(&self) -> Vec<&'static str> {
        self.entries.iter().map(|e| e.name).collect()
    }

    /// Whether `name` is registered (case-insensitive).
    pub fn contains(&self, name: &str) -> bool {
        self.entries
            .iter()
            .any(|e| e.name.eq_ignore_ascii_case(name))
    }

    /// Number of registered policies.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Instantiates the policy registered under `name` (case-insensitive).
    /// The error message lists every registered name in registration
    /// order — it is snapshot-tested, change it deliberately.
    pub fn create(&self, name: &str) -> Result<Box<dyn SchedulerPolicy>, String> {
        self.entries
            .iter()
            .find(|e| e.name.eq_ignore_ascii_case(name))
            .map(|e| (e.factory)())
            .ok_or_else(|| {
                format!(
                    "unknown policy '{name}' (known policies: {})",
                    self.names().join(", ")
                )
            })
    }

    /// Renders the `--policy help` listing: one `name — summary` line
    /// per policy, registration order.
    pub fn help(&self) -> String {
        let width = self.entries.iter().map(|e| e.name.len()).max().unwrap_or(0);
        let mut out = String::from("registered scheduler policies:\n");
        for e in &self.entries {
            out.push_str(&format!("  {:width$}  {}\n", e.name, e.summary));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::PoolRequest;
    use crate::sched::{PhaseObservation, Placement, RunInfo, StorageHints};
    use dd_wfdag::Phase;

    struct NullScheduler;
    impl ServerlessScheduler for NullScheduler {
        fn name(&self) -> &'static str {
            "null"
        }
        fn initial_pool(&mut self, _: &RunInfo) -> PoolRequest {
            PoolRequest::none()
        }
        fn pool_for_next_phase(&mut self, _: usize, _: &PhaseObservation) -> PoolRequest {
            PoolRequest::none()
        }
        fn place(
            &mut self,
            phase: &Phase,
            _: &[crate::pool::InstanceView],
            _: SimTime,
        ) -> Vec<Placement> {
            phase
                .components
                .iter()
                .map(|_| Placement {
                    tier: Tier::HighEnd,
                    instance: None,
                })
                .collect()
        }
    }

    struct NullPolicy;
    impl SchedulerPolicy for NullPolicy {
        fn name(&self) -> &'static str {
            "null"
        }
        fn description(&self) -> &'static str {
            "does nothing"
        }
        fn build(&self, _: &PolicyContext<'_>) -> BuiltScheduler {
            BuiltScheduler::Serverless(Box::new(NullScheduler))
        }
    }

    fn registry() -> PolicyRegistry {
        let mut r = PolicyRegistry::new();
        r.register("null", "does nothing", || Box::new(NullPolicy));
        r
    }

    #[test]
    fn create_is_case_insensitive_and_listing_is_ordered() {
        let mut r = registry();
        r.register("other", "also nothing", || Box::new(NullPolicy));
        assert_eq!(r.names(), vec!["null", "other"]);
        assert!(r.create("NULL").is_ok());
        assert!(r.contains("Other"));
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn unknown_name_error_lists_known_names() {
        let r = registry();
        let err = r.create("bogus").err().expect("bogus must not resolve");
        assert_eq!(err, "unknown policy 'bogus' (known policies: null)");
    }

    #[test]
    #[should_panic(expected = "registered twice")]
    fn duplicate_registration_panics() {
        let mut r = registry();
        r.register("NULL", "dup", || Box::new(NullPolicy));
    }

    #[test]
    fn help_lists_in_registration_order() {
        let help = registry().help();
        assert!(help.starts_with("registered scheduler policies:\n"));
        assert!(help.contains("null  does nothing"));
    }

    #[test]
    #[allow(clippy::float_cmp)] // clamp endpoints are exact constants
    fn storage_hints_clamp() {
        let h = StorageHints {
            colocated_read_fraction: 2.0,
            batched_write_fraction: -1.0,
        }
        .clamped();
        assert_eq!(h.colocated_read_fraction, 0.95);
        assert_eq!(h.batched_write_fraction, 0.0);
        assert_eq!(StorageHints::default(), StorageHints::NONE);
    }
}
