//! Event-driven executor: the DES cross-check of [`crate::faas`].
//!
//! [`FaasExecutor`] computes each phase analytically (legal because
//! microVMs don't preempt each other, so completion times are known at
//! start). [`DesFaasExecutor`] runs the *same semantics* on the
//! discrete-event core ([`crate::des::EventQueue`]): component
//! completions, the half-phase storage notification and phase boundaries
//! are explicit events popped in time order.
//!
//! Both drive one shared execution core (placement, fault timelines,
//! billing, pools, trace and recorder emission) and keep only their own
//! way of advancing virtual time. They must agree **exactly** — same
//! [`RunOutcome`](crate::RunOutcome), trace and recorder output — for
//! every scheduler; the test suite (and `tests/end_to_end.rs`) asserts
//! it. A divergence means one time-advance model has a bug, which is
//! precisely what an analytic shortcut can otherwise hide.
//!
//! # API mapping
//!
//! [`DesFaasExecutor`] mirrors [`FaasExecutor`] one-to-one, so the two
//! are drop-in interchangeable behind [`crate::executor::Executor`]:
//!
//! | [`FaasExecutor`]                  | [`DesFaasExecutor`]                  |
//! |-----------------------------------|--------------------------------------|
//! | [`FaasExecutor::new`]             | [`DesFaasExecutor::new`]             |
//! | [`FaasExecutor::aws`]             | [`DesFaasExecutor::aws`]             |
//! | [`FaasExecutor::with_startup`]    | [`DesFaasExecutor::with_startup`]    |
//! | [`FaasExecutor::pricing`]         | [`DesFaasExecutor::pricing`]         |
//! | [`FaasExecutor::startup`]         | [`DesFaasExecutor::startup`]         |
//! | [`FaasExecutor::config`]          | [`DesFaasExecutor::config`]          |
//! | [`Executor::run`]                 | [`Executor::run`]                    |
//! | —                                 | [`DesFaasExecutor::run_with`] (session reuse) |

use crate::books::{PhaseScratch, PhaseTally, Platform, RunBooks};
use crate::des::{EventQueue, SimTime};
use crate::executor::{Executor, RunReport, RunRequest};
#[cfg(doc)]
use crate::faas::FaasExecutor;
use crate::faas::{FaasConfig, PoolTrigger};
use crate::pricing::PriceSheet;
use crate::startup::StartupModel;

/// Events of the serverless execution.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Event {
    /// A phase begins (placement happens here).
    PhaseStart { phase: usize },
    /// A component's output reached the back-end store.
    ComponentDone { phase: usize },
}

/// The per-event-hot slice of a phase's state: the three fields every
/// `ComponentDone` event touches, packed into one cache line per phase.
#[derive(Debug, Default, Clone, Copy)]
struct PhaseCounters {
    expected: u32,
    completed: u32,
    half_fired: bool,
}

/// Struct-of-arrays phase state: `counters[p]` is the hot slice, `cold[p]`
/// the tally read only at the trigger and at phase end, so completion
/// events do not drag its bytes through the cache (lock-step vectors).
#[derive(Debug, Default)]
struct PhaseStateSoA {
    counters: Vec<PhaseCounters>,
    cold: Vec<PhaseTally>,
}

/// Reusable simulation state for [`DesFaasExecutor`].
///
/// Keeps the event heap and per-phase buffers allocated across
/// [`DesFaasExecutor::run_with`] calls of a multi-run sweep. It is fully
/// reset at the start of each execution, so results are bit-identical to
/// a fresh [`Executor::run`] (the workspace test suite asserts this).
#[derive(Debug, Default)]
pub struct DesSession {
    queue: EventQueue<Event>,
    progress: PhaseStateSoA,
    scratch: PhaseScratch,
}

impl DesSession {
    /// Creates an empty session.
    pub fn new() -> Self {
        Self::default()
    }
}

/// The event-driven executor.
///
/// Construction mirrors [`FaasExecutor`]; a run produces its
/// [`RunReport`] through event flow instead of per-phase arithmetic.
#[derive(Debug, Clone)]
pub struct DesFaasExecutor {
    platform: Platform,
}

impl DesFaasExecutor {
    /// Creates an event-driven executor with the given configuration.
    pub fn new(config: FaasConfig) -> Self {
        Self {
            platform: Platform::new(config),
        }
    }

    /// AWS configuration.
    pub fn aws() -> Self {
        Self::new(FaasConfig::default())
    }

    /// Replaces the start-up model ([`FaasExecutor::with_startup`]).
    pub fn with_startup(mut self, startup: StartupModel) -> Self {
        self.platform.startup = startup;
        self
    }

    /// The active price sheet (mirrors [`FaasExecutor::pricing`]).
    pub fn pricing(&self) -> &PriceSheet {
        &self.platform.pricing
    }

    /// The active start-up model (mirrors [`FaasExecutor::startup`]).
    pub fn startup(&self) -> &StartupModel {
        &self.platform.startup
    }

    /// The active configuration (mirrors [`FaasExecutor::config`]).
    pub fn config(&self) -> &FaasConfig {
        &self.platform.config
    }

    /// Executes a [`RunRequest`] event by event, reusing `session`'s
    /// allocations — the fast path for multi-run sweeps. Produces exactly
    /// the same report as [`Executor::run`] (and as [`FaasExecutor`])
    /// regardless of what the session ran before.
    ///
    /// # Panics
    /// Panics if a phase has no components or the scheduler returns
    /// malformed placements, exactly as [`FaasExecutor`] does.
    pub fn run_with(&self, session: &mut DesSession, req: RunRequest<'_>) -> RunReport {
        let DesSession {
            queue,
            progress,
            scratch,
        } = session;
        queue.clear();
        progress.counters.clear();
        progress.cold.clear();
        let mut books = RunBooks::open(self.platform, req, scratch);
        let run = books.run;
        progress.counters.reserve(run.phases.len());
        progress.cold.reserve(run.phases.len());
        let mut end_time = SimTime::ZERO;
        if !run.phases.is_empty() {
            queue.push(SimTime::ZERO, Event::PhaseStart { phase: 0 });
        }

        // Local event tally flushed once to the process-wide throughput
        // counters after the run — the pop loop stays atomic-free.
        let mut events_popped: u64 = 0;
        while let Some((at, event)) = queue.pop() {
            events_popped += 1;
            match event {
                Event::PhaseStart { phase } => {
                    let tally = books.start_phase(phase, at, scratch, |finish, _| {
                        queue.push(finish, Event::ComponentDone { phase });
                    });
                    dd_debug_invariant!(
                        progress.cold.len() == phase,
                        "phase {phase} started out of order ({} records)",
                        progress.cold.len()
                    );
                    progress.counters.push(PhaseCounters {
                        expected: run.phases[phase].concurrency(),
                        completed: 0,
                        half_fired: false,
                    });
                    progress.cold.push(tally);
                }
                Event::ComponentDone { phase } => {
                    let ctr = &mut progress.counters[phase];
                    let tally = &mut progress.cold[phase];
                    ctr.completed += 1;
                    let phase_done = ctr.completed == ctr.expected;
                    // Half-phase trigger (or phase-complete, per config).
                    let trigger_now = !ctr.half_fired
                        && match self.platform.config.trigger {
                            PoolTrigger::HalfPhase => ctr.completed >= ctr.expected.div_ceil(2),
                            PoolTrigger::PhaseComplete => phase_done,
                        };
                    if trigger_now {
                        ctr.half_fired = true;
                        books.trigger(tally, at, scratch);
                    }
                    if phase_done {
                        books.finish_phase(tally, at);
                        end_time = at;
                        if phase + 1 < run.phases.len() {
                            queue.push(at, Event::PhaseStart { phase: phase + 1 });
                        }
                    }
                }
            }
        }
        crate::counters::add_des_events(events_popped);
        books.close(end_time)
    }
}

impl Executor for DesFaasExecutor {
    fn run(&mut self, req: RunRequest<'_>) -> RunReport {
        self.run_with(&mut DesSession::new(), req)
    }
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // exact equality asserts bit-reproducibility, the determinism contract
mod tests {
    use super::*;
    use crate::faas::FaasExecutor;
    use crate::pool::{InstanceView, PoolRequest};
    use crate::sched::{PhaseObservation, Placement, RunInfo, ServerlessScheduler};
    use crate::tier::Tier;
    use dd_wfdag::{LanguageRuntime, Phase, RunGenerator, Workflow, WorkflowRun, WorkflowSpec};

    /// Cold starts every component on a high-end instance.
    pub(super) struct AllCold;
    impl ServerlessScheduler for AllCold {
        fn name(&self) -> &'static str {
            "all-cold"
        }
        fn initial_pool(&mut self, _: &RunInfo) -> PoolRequest {
            PoolRequest::none()
        }
        fn pool_for_next_phase(&mut self, _: usize, _: &PhaseObservation) -> PoolRequest {
            PoolRequest::none()
        }
        fn place(&mut self, phase: &Phase, _: &[InstanceView], _: SimTime) -> Vec<Placement> {
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

    /// A deterministic scheduler exercising hot pools: requests the
    /// previous phase's concurrency, places greedily.
    struct Echo {
        last: usize,
    }

    impl ServerlessScheduler for Echo {
        fn name(&self) -> &'static str {
            "echo"
        }
        fn initial_pool(&mut self, _: &RunInfo) -> PoolRequest {
            PoolRequest::hot(4, 4)
        }
        fn pool_for_next_phase(&mut self, _: usize, obs: &PhaseObservation) -> PoolRequest {
            self.last = obs.concurrency as usize;
            PoolRequest::hot(self.last / 2, self.last - self.last / 2)
        }
        fn place(
            &mut self,
            phase: &Phase,
            available: &[InstanceView],
            _: SimTime,
        ) -> Vec<Placement> {
            let mut pool = available.iter();
            phase
                .components
                .iter()
                .map(|_| match pool.next() {
                    Some(i) => Placement {
                        tier: i.tier,
                        instance: Some(i.id),
                    },
                    None => Placement {
                        tier: Tier::HighEnd,
                        instance: None,
                    },
                })
                .collect()
        }
    }

    fn sample() -> (WorkflowRun, Vec<LanguageRuntime>) {
        let spec = WorkflowSpec::new(Workflow::Ccl).scaled_down(8);
        let runtimes = spec.runtimes.clone();
        (RunGenerator::new(spec, 17).generate(0), runtimes)
    }

    #[test]
    fn des_and_analytic_agree_exactly() {
        let (run, runtimes) = sample();
        let analytic = FaasExecutor::aws()
            .run(RunRequest::new(&run, &runtimes, &mut Echo { last: 0 }))
            .into_outcome();
        let des = DesFaasExecutor::aws()
            .run(RunRequest::new(&run, &runtimes, &mut Echo { last: 0 }))
            .into_outcome();
        assert_eq!(analytic, des);
    }

    #[test]
    fn des_and_analytic_agree_with_phase_end_trigger() {
        let (run, runtimes) = sample();
        let config = FaasConfig {
            trigger: PoolTrigger::PhaseComplete,
            ..FaasConfig::default()
        };
        let analytic = FaasExecutor::new(config)
            .run(RunRequest::new(&run, &runtimes, &mut Echo { last: 0 }))
            .into_outcome();
        let des = DesFaasExecutor::new(config)
            .run(RunRequest::new(&run, &runtimes, &mut Echo { last: 0 }))
            .into_outcome();
        assert_eq!(analytic, des);
    }

    #[test]
    fn reused_session_matches_fresh_executions() {
        // The fast path's contract: executing through a dirty session is
        // bit-identical to a fresh execute, for every run in a sweep.
        let spec = WorkflowSpec::new(Workflow::Ccl).scaled_down(10);
        let runtimes = spec.runtimes.clone();
        let gen = RunGenerator::new(spec, 17);
        let mut executor = DesFaasExecutor::aws();
        let mut session = DesSession::new();
        for idx in 0..3 {
            let run = gen.generate(idx);
            let reused = executor
                .run_with(
                    &mut session,
                    RunRequest::new(&run, &runtimes, &mut Echo { last: 0 }),
                )
                .into_outcome();
            let fresh = executor
                .run(RunRequest::new(&run, &runtimes, &mut Echo { last: 0 }))
                .into_outcome();
            assert_eq!(reused, fresh);
        }
    }

    #[test]
    fn des_handles_empty_run() {
        let (mut run, runtimes) = sample();
        run.phases.clear();
        let out = DesFaasExecutor::aws()
            .run(RunRequest::new(&run, &runtimes, &mut Echo { last: 0 }))
            .into_outcome();
        assert_eq!(out.service_time_secs, 0.0);
        assert!(out.phases.is_empty());
    }

    /// A run whose phase 1 lost its components (`WorkflowRun.phases` is
    /// a public field, so validation can be bypassed).
    fn run_with_empty_phase() -> (WorkflowRun, Vec<LanguageRuntime>) {
        let (mut run, runtimes) = sample();
        run.phases[1].components.clear();
        (run, runtimes)
    }

    #[test]
    #[should_panic(expected = "phase 1 has no components")]
    fn analytic_rejects_empty_phase() {
        let (run, runtimes) = run_with_empty_phase();
        let _ = FaasExecutor::aws().run(RunRequest::new(&run, &runtimes, &mut AllCold));
    }

    #[test]
    #[should_panic(expected = "phase 1 has no components")]
    fn des_rejects_empty_phase() {
        let (run, runtimes) = run_with_empty_phase();
        let _ = DesFaasExecutor::aws().run(RunRequest::new(&run, &runtimes, &mut AllCold));
    }
}

#[cfg(test)]
mod limit_tests {
    use super::tests::AllCold;
    use super::*;
    use crate::faas::FaasExecutor;
    use dd_wfdag::{RunGenerator, Workflow, WorkflowSpec};

    #[test]
    fn invocation_limit_binds_and_both_executors_agree() {
        let spec = WorkflowSpec::new(Workflow::Ccl).scaled_down(15);
        let runtimes = spec.runtimes.clone();
        let run = RunGenerator::new(spec, 5).generate(0);

        let unconstrained = FaasExecutor::aws()
            .run(RunRequest::new(&run, &runtimes, &mut AllCold))
            .into_outcome();
        let config = FaasConfig {
            invocation_limit: 2,
            ..FaasConfig::default()
        };
        let constrained = FaasExecutor::new(config)
            .run(RunRequest::new(&run, &runtimes, &mut AllCold))
            .into_outcome();
        assert!(
            constrained.service_time_secs > unconstrained.service_time_secs * 1.5,
            "a 2-slot limit must serialize phases: {:.1}s vs {:.1}s",
            constrained.service_time_secs,
            unconstrained.service_time_secs
        );

        // DES agreement under the binding limit.
        let des = DesFaasExecutor::new(config)
            .run(RunRequest::new(&run, &runtimes, &mut AllCold))
            .into_outcome();
        assert_eq!(des, constrained);
    }
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // exact equality asserts bit-reproducibility, the determinism contract
mod straggler_tests {
    use super::tests::AllCold;
    use super::*;
    use crate::faas::FaasExecutor;
    use dd_wfdag::{RunGenerator, Workflow, WorkflowSpec};

    #[test]
    fn stragglers_inflate_service_time_deterministically() {
        let spec = WorkflowSpec::new(Workflow::Ccl).scaled_down(12);
        let runtimes = spec.runtimes.clone();
        let run = RunGenerator::new(spec, 6).generate(0);

        let clean = FaasExecutor::aws()
            .run(RunRequest::new(&run, &runtimes, &mut AllCold))
            .into_outcome();
        let faulty_model = StartupModel {
            straggler_fraction: 0.10,
            straggler_multiplier: 8.0,
            ..StartupModel::aws()
        };
        let faulty = FaasExecutor::aws()
            .with_startup(faulty_model)
            .run(RunRequest::new(&run, &runtimes, &mut AllCold))
            .into_outcome();
        assert!(
            faulty.service_time_secs > clean.service_time_secs * 1.05,
            "10% 8x stragglers should hurt: {:.1}s vs {:.1}s",
            faulty.service_time_secs,
            clean.service_time_secs
        );
        // Deterministic: same model, same outcome.
        let again = FaasExecutor::aws()
            .with_startup(faulty_model)
            .run(RunRequest::new(&run, &runtimes, &mut AllCold))
            .into_outcome();
        assert_eq!(faulty.service_time_secs, again.service_time_secs);

        // And the DES executor agrees exactly.
        let des = DesFaasExecutor::aws()
            .with_startup(faulty_model)
            .run(RunRequest::new(&run, &runtimes, &mut AllCold))
            .into_outcome();
        assert_eq!(des, faulty);
    }

    #[test]
    fn different_run_indices_place_stragglers_differently() {
        // Regression for the hardcoded-zero seed: both executors used to
        // pass `straggler_multiplier_for(phase, slot, 0)`, so every run
        // of a sweep straggled in exactly the same places. Re-labelling
        // the *same* run content with a different run index must move the
        // placement — and both executors must agree on either variant.
        let spec = WorkflowSpec::new(Workflow::Ccl).scaled_down(12);
        let runtimes = spec.runtimes.clone();
        let run = RunGenerator::new(spec, 6).generate(0);
        let mut relabeled = run.clone();
        relabeled.label.run_index = 1;

        let faulty_model = StartupModel {
            straggler_fraction: 0.10,
            straggler_multiplier: 8.0,
            ..StartupModel::aws()
        };
        let mut exec = FaasExecutor::aws().with_startup(faulty_model);
        let a = exec
            .run(RunRequest::new(&run, &runtimes, &mut AllCold))
            .into_outcome();
        let b = exec
            .run(RunRequest::new(&relabeled, &runtimes, &mut AllCold))
            .into_outcome();
        assert!(
            (a.service_time_secs - b.service_time_secs).abs() > 1e-6,
            "straggler placement identical across run indices: {} vs {}",
            a.service_time_secs,
            b.service_time_secs
        );

        // With the engine disabled the run index has no effect at all.
        let clean_a = FaasExecutor::aws()
            .run(RunRequest::new(&run, &runtimes, &mut AllCold))
            .into_outcome();
        let clean_b = FaasExecutor::aws()
            .run(RunRequest::new(&relabeled, &runtimes, &mut AllCold))
            .into_outcome();
        assert_eq!(clean_a.service_time_secs, clean_b.service_time_secs);

        // Equal seeds: the DES executor reproduces both variants exactly.
        for (run, analytic) in [(&run, &a), (&relabeled, &b)] {
            let des = DesFaasExecutor::aws()
                .with_startup(faulty_model)
                .run(RunRequest::new(run, &runtimes, &mut AllCold))
                .into_outcome();
            assert_eq!(&des, analytic);
        }
    }

    #[test]
    fn zero_fraction_is_identity() {
        let m = StartupModel::aws();
        for phase in 0..50 {
            for slot in 0..20 {
                assert_eq!(m.straggler_multiplier_for(phase, slot, 0), 1.0);
            }
        }
    }

    #[test]
    fn straggler_rate_matches_fraction() {
        let m = StartupModel {
            straggler_fraction: 0.2,
            ..StartupModel::aws()
        };
        let hits = (0..100_000)
            .filter(|&i| m.straggler_multiplier_for(i / 100, i % 100, 7) > 1.0)
            .count();
        let rate = hits as f64 / 100_000.0;
        assert!((rate - 0.2).abs() < 0.01, "straggler rate {rate}");
    }
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // exact equality asserts bit-reproducibility, the determinism contract
mod fault_tests {
    use super::tests::AllCold;
    use super::*;
    use crate::faas::FaasExecutor;
    use crate::faults::{FaultConfig, RecoveryPolicy};
    use dd_wfdag::{RunGenerator, Workflow, WorkflowSpec};

    #[test]
    fn executors_agree_on_faulty_runs_under_every_policy() {
        // The acceptance check of the fault engine: with every fault
        // channel live, the analytic and event-driven executors resolve
        // the same timelines — same service time, same ledger including
        // the retry component — because both query one FaultPlan.
        let spec = WorkflowSpec::new(Workflow::Ccl).scaled_down(12);
        let runtimes = spec.runtimes.clone();
        let run = RunGenerator::new(spec, 6).generate(0);

        for policy in [
            RecoveryPolicy::none(),
            RecoveryPolicy::backoff(),
            RecoveryPolicy::timeout(),
            RecoveryPolicy::speculative(),
        ] {
            let config = FaasConfig {
                faults: FaultConfig::uniform(0.08).with_seed(0xFA17),
                recovery: policy,
                ..FaasConfig::default()
            };
            let analytic = FaasExecutor::new(config)
                .run(RunRequest::new(&run, &runtimes, &mut AllCold))
                .into_outcome();
            let des = DesFaasExecutor::new(config)
                .run(RunRequest::new(&run, &runtimes, &mut AllCold))
                .into_outcome();
            assert_eq!(analytic, des, "{policy:?}");
            // Faults actually fired, retry cost is a real non-negative
            // component, and conservation holds with it included.
            assert!(analytic.faults.failures() > 0, "{policy:?}");
            assert!(analytic.ledger.retry > 0.0, "{policy:?}");
            let l = analytic.ledger;
            assert!(
                (l.total()
                    - (l.execution
                        + l.keep_alive_used
                        + l.keep_alive_wasted
                        + l.storage
                        + l.retry))
                    .abs()
                    < 1e-12
            );
        }
    }

    #[test]
    fn clean_config_is_strict_noop() {
        // Every rate zero: outcomes must be *bit-identical* to an
        // executor that predates the fault engine — same service time,
        // zero retry cost, zero counters. (Debug-format equality is the
        // strongest cheap proxy for bitwise equality.)
        let spec = WorkflowSpec::new(Workflow::Ccl).scaled_down(10);
        let runtimes = spec.runtimes.clone();
        let run = RunGenerator::new(spec, 17).generate(0);
        let default_cfg = FaasExecutor::aws()
            .run(RunRequest::new(&run, &runtimes, &mut AllCold))
            .into_outcome();
        let explicit_clean = FaasExecutor::new(FaasConfig {
            faults: FaultConfig::none().with_seed(0xDEAD),
            recovery: RecoveryPolicy::speculative(),
            ..FaasConfig::default()
        })
        .run(RunRequest::new(&run, &runtimes, &mut AllCold))
        .into_outcome();
        assert_eq!(
            format!("{default_cfg:?}"),
            format!("{explicit_clean:?}"),
            "clean fault config must not perturb any output"
        );
        assert_eq!(default_cfg.ledger.retry, 0.0);
        assert_eq!(default_cfg.faults, crate::faults::FaultStats::default());
    }
}
