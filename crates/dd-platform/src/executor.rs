//! The unified run API: [`Executor`] + [`RunRequest`] + [`RunReport`].
//!
//! Both executors ([`crate::faas::FaasExecutor`] analytic,
//! [`crate::faas_des::DesFaasExecutor`] event-driven) implement the one
//! [`Executor`] trait; callers build a [`RunRequest`] and get back a
//! [`RunReport`]. It is the only execution entry point (dd-lint's
//! `executor-api` rule blocks adding `execute*` ones beside it).
//!
//! The request is passed **by value**, not by reference: it carries the
//! `&mut` scheduler and recorder borrows for the duration of the run, so
//! a shared `&RunRequest` could not hand them to the executor. Faults are
//! not part of a request: the executor's `FaasConfig` (`faults`,
//! `recovery`) is the one place a run's fault plan is set.
//! [`crate::policy::run_policy`] turns a policy build into a request on
//! the caller's executor.
//!
//! # Canonical observability emission order
//!
//! When a [`Recorder`] is attached, both executors emit the identical
//! event stream (the obs determinism tests compare exports byte for
//! byte). The order is the DES wall-stream order, which the analytic
//! executor reproduces explicitly:
//!
//! 1. run start: scheduler events from `initial_pool`, then the phase-0
//!    `pool_preboot` span at t = 0;
//! 2. per phase: `sched_place` span (decision overhead) → scheduler
//!    events from `place` → one `component` span per component in slot
//!    order (with `fault_attempt` instants) → wasted keep-alive samples
//!    → scheduler events from `pool_for_next_phase` + the next
//!    `pool_preboot` span at the trigger instant → `observe` instant and
//!    scheduler events from `observe_phase` → the `phase` span;
//! 3. run end: the `service_time_secs` gauge.

use crate::des::SimTime;
use crate::faults::ComponentTimeline;
use crate::pool::PooledInstance;
use crate::sched::{PhaseObservation, SchedulerEvent, ServerlessScheduler, StartKind};
use crate::telemetry::{PhaseRecord, RunOutcome};
use crate::tier::Tier;
use crate::trace::ExecutionTrace;
use dd_obs::{Recorder, Value};
use dd_wfdag::{LanguageRuntime, WorkflowRun};

/// Everything one execution needs, assembled with a builder.
///
/// ```
/// # use dd_platform::{Executor, FaasExecutor, RunRequest};
/// # use dd_wfdag::{RunGenerator, Workflow, WorkflowSpec};
/// # struct S;
/// # impl dd_platform::ServerlessScheduler for S {
/// #     fn name(&self) -> &'static str { "s" }
/// #     fn initial_pool(&mut self, _: &dd_platform::RunInfo) -> dd_platform::PoolRequest {
/// #         dd_platform::PoolRequest::none()
/// #     }
/// #     fn pool_for_next_phase(&mut self, _: usize, _: &dd_platform::PhaseObservation) -> dd_platform::PoolRequest {
/// #         dd_platform::PoolRequest::none()
/// #     }
/// #     fn place(&mut self, phase: &dd_wfdag::Phase, _: &[dd_platform::InstanceView], _: dd_platform::SimTime) -> Vec<dd_platform::Placement> {
/// #         phase.components.iter().map(|_| dd_platform::Placement { tier: dd_platform::Tier::HighEnd, instance: None }).collect()
/// #     }
/// # }
/// let spec = WorkflowSpec::new(Workflow::Ccl).scaled_down(20);
/// let runtimes = spec.runtimes.clone();
/// let run = RunGenerator::new(spec, 7).generate(0);
/// let mut sched = S;
/// let report = FaasExecutor::aws().run(RunRequest::new(&run, &runtimes, &mut sched).traced());
/// assert!(report.trace.is_some());
/// assert!(report.outcome.service_time_secs > 0.0);
/// ```
pub struct RunRequest<'a> {
    /// The workflow run to execute (its label carries the run index the
    /// fault engine seeds from).
    pub run: &'a WorkflowRun,
    /// The DAG's language-runtime set (pre-loaded into hot instances).
    pub runtimes: &'a [LanguageRuntime],
    /// The scheduler driving pool requests and placements.
    pub scheduler: &'a mut dyn ServerlessScheduler,
    /// Observability sink; `None` is the zero-cost disabled path.
    pub recorder: Option<&'a mut dyn Recorder>,
    /// Whether to collect the full [`ExecutionTrace`].
    pub collect_trace: bool,
}

impl<'a> RunRequest<'a> {
    /// A plain request: no trace, no recorder.
    pub fn new(
        run: &'a WorkflowRun,
        runtimes: &'a [LanguageRuntime],
        scheduler: &'a mut dyn ServerlessScheduler,
    ) -> Self {
        Self {
            run,
            runtimes,
            scheduler,
            recorder: None,
            collect_trace: false,
        }
    }

    /// Also collect the full [`ExecutionTrace`].
    #[must_use]
    pub fn traced(mut self) -> Self {
        self.collect_trace = true;
        self
    }

    /// Attach an observability recorder.
    #[must_use]
    pub fn with_recorder(mut self, recorder: &'a mut dyn Recorder) -> Self {
        self.recorder = Some(recorder);
        self
    }
}

/// What an execution produced.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// The run outcome (service time, ledger, phase records, faults).
    pub outcome: RunOutcome,
    /// The execution trace, present iff [`RunRequest::traced`] was set.
    pub trace: Option<ExecutionTrace>,
}

impl RunReport {
    /// Discards the trace (if any) and returns the outcome.
    #[must_use]
    pub fn into_outcome(self) -> RunOutcome {
        self.outcome
    }

    /// Splits into outcome and trace, panicking if no trace was
    /// requested.
    ///
    /// # Panics
    /// Panics when the request did not set [`RunRequest::traced`].
    #[must_use]
    pub fn into_traced(self) -> (RunOutcome, ExecutionTrace) {
        let trace = self.trace.expect("trace requested via RunRequest::traced");
        (self.outcome, trace)
    }
}

/// A workflow executor: one entry point for every execution mode
/// (plain, traced, recorded via [`RunRequest`]; fault-injected via the
/// executor's configuration).
pub trait Executor {
    /// Executes the request.
    fn run(&mut self, req: RunRequest<'_>) -> RunReport;
}

// ---------------------------------------------------------------------
// Shared observability glue. Both executors emit through these helpers
// so the event stream, metric names and registration order are
// identical by construction. Every call site guards with
// `recorder.enabled()` so the disabled path never builds arguments.
// ---------------------------------------------------------------------

/// Metric names, in canonical registration order (see
/// [`declare_metrics`]).
pub mod metrics {
    /// Components started on a warm (component pre-paired) instance.
    pub const STARTS_WARM: &str = "starts_warm";
    /// Components started on a hot (runtime-only) instance.
    pub const STARTS_HOT: &str = "starts_hot";
    /// Components cold started.
    pub const STARTS_COLD: &str = "starts_cold";
    /// Pool instances that executed a component.
    pub const PRELOAD_HITS: &str = "preload_hits";
    /// Pool instances terminated unused.
    pub const PRELOAD_MISSES: &str = "preload_misses";
    /// Components that needed more than one attempt.
    pub const RETRIES: &str = "retries";
    /// Fault-engine attempts launched (speculative copies included).
    pub const FAULT_ATTEMPTS: &str = "fault_attempts";
    /// Completed executions drained from the invocation-slot heap.
    pub const HEAP_DRAINS: &str = "heap_drains";
    /// Weibull re-fits performed by the concurrency predictor.
    pub const WEIBULL_REFITS: &str = "weibull_refits";
    /// Tier splits performed on pool requests.
    pub const TIER_SPLITS: &str = "tier_splits";
    /// Keep-alive seconds of used pool instances (request → start).
    pub const KEEP_ALIVE_USED_SECS: &str = "keep_alive_used_secs";
    /// Keep-alive seconds of wasted pool instances (request → release).
    pub const KEEP_ALIVE_WASTED_SECS: &str = "keep_alive_wasted_secs";
    /// Per-phase execution seconds.
    pub const PHASE_EXEC_SECS: &str = "phase_exec_secs";
    /// End-to-end service time (accumulates across merged runs).
    pub const SERVICE_TIME_SECS: &str = "service_time_secs";
}

/// Registers every executor metric in the canonical fixed order, so the
/// registry iterates identically no matter which metrics a given run
/// happens to touch.
pub(crate) fn declare_metrics(rec: &mut dyn Recorder) {
    use metrics as m;
    for c in [
        m::STARTS_WARM,
        m::STARTS_HOT,
        m::STARTS_COLD,
        m::PRELOAD_HITS,
        m::PRELOAD_MISSES,
        m::RETRIES,
        m::FAULT_ATTEMPTS,
        m::HEAP_DRAINS,
        m::WEIBULL_REFITS,
        m::TIER_SPLITS,
    ] {
        rec.declare_counter(c);
    }
    for h in [
        m::KEEP_ALIVE_USED_SECS,
        m::KEEP_ALIVE_WASTED_SECS,
        m::PHASE_EXEC_SECS,
    ] {
        rec.declare_histogram(h);
    }
    rec.declare_gauge(m::SERVICE_TIME_SECS);
}

/// Drains the scheduler's buffered decision events, stamping them at
/// `at` (the virtual time of the decision).
pub(crate) fn emit_sched_events(
    rec: &mut dyn Recorder,
    at: SimTime,
    scheduler: &mut dyn ServerlessScheduler,
) {
    for event in scheduler.drain_events() {
        match event {
            SchedulerEvent::WeibullRefit {
                alpha,
                beta,
                intervals,
            } => {
                rec.add(metrics::WEIBULL_REFITS, 1);
                rec.instant(
                    "weibull_refit",
                    "scheduler",
                    at.as_secs(),
                    vec![
                        ("alpha", Value::F64(alpha)),
                        ("beta", Value::F64(beta)),
                        ("intervals", Value::U64(intervals as u64)),
                    ],
                );
            }
            SchedulerEvent::TierSplit {
                pool,
                high_end,
                low_end,
            } => {
                rec.add(metrics::TIER_SPLITS, 1);
                rec.instant(
                    "tier_split",
                    "scheduler",
                    at.as_secs(),
                    vec![
                        ("pool", Value::U64(u64::from(pool))),
                        ("high_end", Value::U64(u64::from(high_end))),
                        ("low_end", Value::U64(u64::from(low_end))),
                    ],
                );
            }
        }
    }
}

/// Emits the pool pre-boot span: requested at `requested_at` for
/// `phase`, spanning until the last instance is ready.
pub(crate) fn emit_pool(
    rec: &mut dyn Recorder,
    phase: usize,
    requested_at: SimTime,
    pool: &[PooledInstance],
) {
    let prepare = pool
        .iter()
        .map(|i| i.ready_at.since(i.requested_at))
        .fold(0.0_f64, f64::max);
    rec.span(
        "pool_preboot",
        "pool",
        requested_at.as_secs(),
        prepare,
        vec![
            ("phase", Value::U64(phase as u64)),
            ("size", Value::U64(pool.len() as u64)),
        ],
    );
}

/// Emits the placement-decision span of `phase` (`at` is the phase
/// event time, before the scheduler's decision overhead elapses).
pub(crate) fn emit_place(
    rec: &mut dyn Recorder,
    phase: usize,
    at: SimTime,
    overhead_secs: f64,
    components: usize,
) {
    rec.span(
        "sched_place",
        "scheduler",
        at.as_secs(),
        overhead_secs,
        vec![
            ("phase", Value::U64(phase as u64)),
            ("components", Value::U64(components as u64)),
        ],
    );
}

/// Per-component emission context (bundled: the dispatch loop computes
/// all of these anyway).
pub(crate) struct ComponentObs<'t> {
    /// Phase index.
    pub phase: usize,
    /// Component slot within the phase.
    pub slot: usize,
    /// Start kind the placement resolved to.
    pub kind: StartKind,
    /// Tier the component executes on.
    pub tier: Tier,
    /// Actual start instant (pool readiness and slot waits included).
    pub start: SimTime,
    /// Resolved fault/recovery timeline.
    pub timeline: &'t ComponentTimeline,
    /// Keep-alive seconds billed for the pooled instance (`None` for
    /// cold starts).
    pub keep_alive_secs: Option<f64>,
    /// Completed executions popped off the invocation-slot heap while
    /// dispatching this component.
    pub heap_drains: u64,
}

/// Emits one component's span, fault-attempt instants and metrics.
pub(crate) fn emit_component(rec: &mut dyn Recorder, c: &ComponentObs<'_>) {
    let kind_metric = match c.kind {
        StartKind::Warm => metrics::STARTS_WARM,
        StartKind::Hot => metrics::STARTS_HOT,
        StartKind::Cold => metrics::STARTS_COLD,
    };
    rec.add(kind_metric, 1);
    if c.heap_drains > 0 {
        rec.add(metrics::HEAP_DRAINS, c.heap_drains);
    }
    if let Some(ka) = c.keep_alive_secs {
        rec.record(metrics::KEEP_ALIVE_USED_SECS, ka);
    }
    rec.span(
        "component",
        "exec",
        c.start.as_secs(),
        c.timeline.completion_offset_secs,
        vec![
            ("phase", Value::U64(c.phase as u64)),
            ("slot", Value::U64(c.slot as u64)),
            ("kind", Value::Str(c.kind.name())),
            ("tier", Value::Str(c.tier.name())),
            ("attempts", Value::U64(c.timeline.attempt_count() as u64)),
        ],
    );
    for a in &c.timeline.attempts {
        rec.instant(
            "fault_attempt",
            "fault",
            c.start.after(a.start_offset_secs).as_secs(),
            vec![
                ("phase", Value::U64(c.phase as u64)),
                ("slot", Value::U64(c.slot as u64)),
                ("attempt", Value::U64(u64::from(a.index))),
                ("speculative", Value::U64(u64::from(a.speculative))),
                (
                    "fault",
                    match a.fault {
                        Some(f) => Value::Text(format!("{f:?}")),
                        None => Value::Str("none"),
                    },
                ),
                ("outcome", Value::Text(format!("{:?}", a.outcome))),
            ],
        );
    }
    rec.add(metrics::FAULT_ATTEMPTS, c.timeline.attempt_count() as u64);
    rec.add(metrics::RETRIES, u64::from(c.timeline.retried()));
}

/// Emits the post-phase observation instant at `at` (phase completion).
pub(crate) fn emit_observe(rec: &mut dyn Recorder, at: SimTime, obs: &PhaseObservation) {
    rec.instant(
        "observe",
        "scheduler",
        at.as_secs(),
        vec![
            ("phase", Value::U64(obs.index as u64)),
            ("concurrency", Value::U64(u64::from(obs.concurrency))),
            ("friendly_fraction", Value::F64(obs.friendly_fraction)),
            ("retried", Value::U64(u64::from(obs.retried_components))),
        ],
    );
}

/// Emits the whole-phase span plus the phase-level metrics.
pub(crate) fn emit_phase(rec: &mut dyn Recorder, started_at: SimTime, record: &PhaseRecord) {
    rec.add(metrics::PRELOAD_HITS, u64::from(record.used_instances));
    rec.add(metrics::PRELOAD_MISSES, u64::from(record.wasted_instances));
    rec.record(metrics::PHASE_EXEC_SECS, record.exec_secs);
    rec.span(
        "phase",
        "phase",
        started_at.as_secs(),
        record.exec_secs,
        vec![
            ("phase", Value::U64(record.index as u64)),
            ("concurrency", Value::U64(u64::from(record.concurrency))),
            ("pool", Value::U64(u64::from(record.pool_size))),
        ],
    );
}
