//! The serverless platform executor.
//!
//! [`FaasExecutor`] walks a [`dd_wfdag::WorkflowRun`] phase by phase, exactly as the
//! paper's three-level stack does (Sec. IV):
//!
//! 1. at phase start the DAG scheduler places each component on a pooled
//!    (hot/warm) instance or cold starts a fresh one;
//! 2. components run in parallel, each in its own microVM; outputs land in
//!    the back-end store;
//! 3. when **half** of the phase's outputs are present, the store notifies
//!    the scheduler, which requests the next phase's pool (hot starts
//!    begin booting in the background);
//! 4. when **all** outputs are present, unused pool instances were already
//!    terminated at placement time (Algorithm 1 line 11) and the next
//!    phase starts.
//!
//! Timing within a phase is computed analytically (component finish times
//! are known at start since microVMs don't preempt each other), which
//! makes the executor exact and fast; the half-phase trigger and pool
//! readiness interactions across phases are where the actual scheduling
//! dynamics live. The per-component bookkeeping (placement, fault
//! timelines, billing, trace and recorder emission) is the execution core
//! this executor shares with [`crate::faas_des::DesFaasExecutor`]; this
//! module only advances time.

use crate::books::{PhaseScratch, Platform, RunBooks};
use crate::des::SimTime;
use crate::executor::{Executor, RunReport, RunRequest};
use crate::faults::{FaultConfig, RecoveryPolicy};
use crate::pricing::{CloudVendor, PriceSheet};
use crate::startup::StartupModel;
use crate::storage::BackendStore;
use serde::{Deserialize, Serialize};

/// When the next phase's pool request is issued.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PoolTrigger {
    /// When half of the current phase's outputs are in storage —
    /// DayDream's design (Sec. IV).
    HalfPhase,
    /// Only when the phase fully completes (ablation: hot starts then
    /// race the next phase's start and may not be ready).
    PhaseComplete,
}

/// Executor configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaasConfig {
    /// Cloud vendor (scales start-up latencies and prices).
    pub vendor: CloudVendor,
    /// Slowdown threshold classifying high-end-friendly components
    /// (paper: 20%, with <3% sensitivity over 5–30%).
    pub friendly_threshold: f64,
    /// Provisioned concurrency: hard cap on pool size (paper: 1000).
    pub provisioned_concurrency: usize,
    /// When the next phase's pool is requested.
    pub trigger: PoolTrigger,
    /// Maximum concurrently *executing* instances the platform grants.
    /// The paper provisions 1000 "so that upon invocation of a component
    /// there is always a function instance available … and no wait time
    /// is incurred"; lowering this models a constrained account limit —
    /// excess components wait for a slot (`report concurrency`).
    pub invocation_limit: usize,
    /// Fault-injection rates and seed (all zero = the paper's clean
    /// environment; the engine is then a strict no-op).
    pub faults: FaultConfig,
    /// What the platform does about faulty attempts (retry backoff,
    /// timeout, speculation). Irrelevant while `faults` is clean.
    pub recovery: RecoveryPolicy,
}

impl Default for FaasConfig {
    fn default() -> Self {
        Self {
            vendor: CloudVendor::Aws,
            friendly_threshold: 0.20,
            provisioned_concurrency: 1_000,
            trigger: PoolTrigger::HalfPhase,
            invocation_limit: 1_000,
            faults: FaultConfig::none(),
            recovery: RecoveryPolicy::backoff(),
        }
    }
}

/// The serverless platform simulator.
#[derive(Debug, Clone)]
pub struct FaasExecutor {
    platform: Platform,
}

impl FaasExecutor {
    /// An executor with the configured vendor's calibrated models.
    pub fn new(config: FaasConfig) -> Self {
        Self {
            platform: Platform::new(config),
        }
    }

    /// AWS executor with paper-default configuration.
    pub fn aws() -> Self {
        Self::new(FaasConfig::default())
    }

    /// Replaces the start-up model (e.g. to inject stragglers or test a
    /// different calibration). The vendor multiplier of the replacement
    /// is used as-is.
    pub fn with_startup(mut self, startup: StartupModel) -> Self {
        self.platform.startup = startup;
        self
    }

    /// The active price sheet.
    pub fn pricing(&self) -> &PriceSheet {
        &self.platform.pricing
    }

    /// The active start-up model.
    pub fn startup(&self) -> &StartupModel {
        &self.platform.startup
    }

    /// The active configuration.
    pub fn config(&self) -> &FaasConfig {
        &self.platform.config
    }
}

impl Executor for FaasExecutor {
    /// Walks the run phase by phase; the back-end store turns each
    /// phase's output arrivals into its half-complete (pool trigger) and
    /// complete (next phase start) instants. Panics if a phase has no
    /// components or the scheduler returns malformed placements.
    fn run(&mut self, req: RunRequest<'_>) -> RunReport {
        let mut scratch = PhaseScratch::default();
        let mut books = RunBooks::open(self.platform, req, &mut scratch);
        let run = books.run;
        let mut store = BackendStore::new();
        let mut now = SimTime::ZERO;
        for (idx, phase) in run.phases.iter().enumerate() {
            store.begin_phase(idx, phase.components.len());
            let mut tally = books.start_phase(idx, now, &mut scratch, |finish| {
                store.record_output(idx, finish);
            });
            let notifications = store.notifications(idx);
            let trigger_at = match self.platform.config.trigger {
                PoolTrigger::HalfPhase => notifications.half_complete,
                PoolTrigger::PhaseComplete => notifications.complete,
            };
            books.trigger(&mut tally, trigger_at, &mut scratch);
            now = notifications.complete;
            books.finish_phase(&mut tally, now);
        }
        books.close(now)
    }
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // exact equality asserts bit-reproducibility, the determinism contract
mod tests {
    use super::*;
    use crate::pool::{InstanceView, PoolRequest};
    use crate::sched::{PhaseObservation, Placement, RunInfo, ServerlessScheduler};
    use crate::tier::Tier;
    use dd_wfdag::{LanguageRuntime, Phase, RunGenerator, Workflow, WorkflowRun, WorkflowSpec};

    /// A scheduler that cold starts everything on high-end instances.
    struct AllCold;

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

    /// A scheduler that hot starts exactly the next phase's concurrency
    /// (an oracle for pool *size*, high-end only).
    struct PerfectHot {
        run: WorkflowRun,
    }

    impl ServerlessScheduler for PerfectHot {
        fn name(&self) -> &'static str {
            "perfect-hot"
        }
        fn initial_pool(&mut self, _: &RunInfo) -> PoolRequest {
            PoolRequest::hot(self.run.phases[0].components.len(), 0)
        }
        fn pool_for_next_phase(&mut self, half_of: usize, _: &PhaseObservation) -> PoolRequest {
            PoolRequest::hot(self.run.phases[half_of + 1].components.len(), 0)
        }
        fn place(
            &mut self,
            phase: &Phase,
            available: &[InstanceView],
            _: SimTime,
        ) -> Vec<Placement> {
            phase
                .components
                .iter()
                .zip(available)
                .map(|(_, inst)| Placement {
                    tier: inst.tier,
                    instance: Some(inst.id),
                })
                .collect()
        }
    }

    fn small_run() -> (WorkflowRun, Vec<LanguageRuntime>) {
        let spec = WorkflowSpec::new(Workflow::Ccl).scaled_down(10);
        let runtimes = spec.runtimes.clone();
        let run = RunGenerator::new(spec, 7).generate(0);
        (run, runtimes)
    }

    #[test]
    fn all_cold_run_completes() {
        let (run, runtimes) = small_run();
        let outcome = FaasExecutor::aws()
            .run(RunRequest::new(&run, &runtimes, &mut AllCold))
            .into_outcome();
        assert_eq!(outcome.phases.len(), run.phase_count());
        assert!(outcome.service_time_secs > 0.0);
        assert!(outcome.ledger.execution > 0.0);
        assert_eq!(outcome.ledger.keep_alive_used, 0.0);
        assert_eq!(outcome.ledger.keep_alive_wasted, 0.0);
        let (w, h, c) = outcome.start_counts();
        assert_eq!(w, 0);
        assert_eq!(h, 0);
        assert_eq!(c as usize, run.total_components());
    }

    #[test]
    fn perfect_hot_beats_all_cold_on_time() {
        let (run, runtimes) = small_run();
        let mut exec = FaasExecutor::aws();
        let cold = exec
            .run(RunRequest::new(&run, &runtimes, &mut AllCold))
            .into_outcome();
        let hot = exec
            .run(RunRequest::new(
                &run,
                &runtimes,
                &mut PerfectHot { run: run.clone() },
            ))
            .into_outcome();
        assert!(
            hot.service_time_secs < cold.service_time_secs,
            "hot {:.1}s vs cold {:.1}s",
            hot.service_time_secs,
            cold.service_time_secs
        );
        // Perfect sizing wastes nothing.
        assert_eq!(hot.ledger.keep_alive_wasted, 0.0);
        assert_eq!(hot.mean_prediction_error(), 0.0);
        assert_eq!(hot.mean_preload_success(), 1.0);
    }

    #[test]
    fn phase_times_sum_to_service_time() {
        let (run, runtimes) = small_run();
        let mut sched = AllCold;
        let outcome = FaasExecutor::aws()
            .run(RunRequest::new(&run, &runtimes, &mut sched))
            .into_outcome();
        let phase_sum: f64 = outcome.phases.iter().map(|p| p.exec_secs).sum();
        let overheads = run.phase_count() as f64 * sched.overhead_secs();
        assert!(
            (phase_sum + overheads - outcome.service_time_secs).abs() < 1e-6,
            "phases {phase_sum} + overhead {overheads} vs service {}",
            outcome.service_time_secs
        );
    }

    #[test]
    fn storage_cost_scales_with_time() {
        let (run, runtimes) = small_run();
        let mut exec = FaasExecutor::aws();
        let outcome = exec
            .run(RunRequest::new(&run, &runtimes, &mut AllCold))
            .into_outcome();
        let want = exec.pricing().storage_per_sec * outcome.service_time_secs;
        assert!((outcome.ledger.storage - want).abs() < 1e-12);
    }

    #[test]
    fn provisioned_concurrency_caps_pool() {
        let (run, runtimes) = small_run();
        let mut exec = FaasExecutor::new(FaasConfig {
            provisioned_concurrency: 2,
            ..FaasConfig::default()
        });

        /// Requests an absurd pool; the cap must hold it to 2.
        struct Greedy;
        impl ServerlessScheduler for Greedy {
            fn name(&self) -> &'static str {
                "greedy"
            }
            fn initial_pool(&mut self, _: &RunInfo) -> PoolRequest {
                PoolRequest::hot(10_000, 0)
            }
            fn pool_for_next_phase(&mut self, _: usize, _: &PhaseObservation) -> PoolRequest {
                PoolRequest::hot(10_000, 0)
            }
            fn place(
                &mut self,
                phase: &Phase,
                available: &[InstanceView],
                _: SimTime,
            ) -> Vec<Placement> {
                let mut avail = available.iter();
                phase
                    .components
                    .iter()
                    .map(|_| match avail.next() {
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

        let outcome = exec
            .run(RunRequest::new(&run, &runtimes, &mut Greedy))
            .into_outcome();
        for p in &outcome.phases {
            assert!(p.pool_size <= 2, "pool {} exceeds cap", p.pool_size);
        }
    }

    #[test]
    #[should_panic(expected = "placements")]
    fn wrong_placement_count_panics() {
        struct Broken;
        impl ServerlessScheduler for Broken {
            fn name(&self) -> &'static str {
                "broken"
            }
            fn initial_pool(&mut self, _: &RunInfo) -> PoolRequest {
                PoolRequest::none()
            }
            fn pool_for_next_phase(&mut self, _: usize, _: &PhaseObservation) -> PoolRequest {
                PoolRequest::none()
            }
            fn place(&mut self, _: &Phase, _: &[InstanceView], _: SimTime) -> Vec<Placement> {
                vec![]
            }
        }
        let (run, runtimes) = small_run();
        let _ = FaasExecutor::aws().run(RunRequest::new(&run, &runtimes, &mut Broken));
    }

    #[test]
    fn vendor_multiplier_slows_service_time() {
        let (run, runtimes) = small_run();
        let aws = FaasExecutor::aws()
            .run(RunRequest::new(&run, &runtimes, &mut AllCold))
            .into_outcome();
        let azure = FaasExecutor::new(FaasConfig {
            vendor: CloudVendor::Azure,
            ..FaasConfig::default()
        })
        .run(RunRequest::new(&run, &runtimes, &mut AllCold))
        .into_outcome();
        assert!(
            azure.service_time_secs > aws.service_time_secs,
            "azure {:.1}s vs aws {:.1}s",
            azure.service_time_secs,
            aws.service_time_secs
        );
    }
}
