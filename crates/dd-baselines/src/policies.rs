//! The policy zoo: every competing technique as a [`SchedulerPolicy`].
//!
//! This module is the single place the platform learns about concrete
//! schedulers. Each baseline gets a thin policy wrapper that knows how to
//! *train* (via [`SchedulerPolicy::prepare`], for history-driven
//! techniques) and how to *build* a per-run scheduler from a
//! [`PolicyContext`], and [`registry`] assembles the deterministic
//! name-keyed catalogue that `--policy <name>` resolves against
//! everywhere: `dd-cli run`/`verify`/`serve`, the `dd-bench`
//! experiments, the report, and the traffic front door.
//!
//! Registration order is fixed and user-visible (it is the order of
//! `--policy help` and of unknown-name error listings), so new policies
//! append at the end.

use daydream_core::{DayDreamConfig, DayDreamHistory, DayDreamPolicy};
use dd_platform::{BuiltScheduler, PolicyContext, PolicyRegistry, SchedulerPolicy};
use dd_wfdag::WorkflowRun;

use crate::{
    FixedPoolScheduler, HybridScheduler, IcpsScheduler, NaiveScheduler, OracleScheduler, Pegasus,
    WildScheduler, WukongScheduler,
};

/// The practically infeasible lower bound: perfect foresight of every
/// phase's concurrency.
#[derive(Debug, Clone)]
pub struct OraclePolicy {
    friendly_threshold: f64,
}

impl OraclePolicy {
    /// The evaluation's threshold (matches `DayDreamConfig::default()`).
    pub fn new() -> Self {
        Self {
            friendly_threshold: 0.20,
        }
    }
}

impl Default for OraclePolicy {
    fn default() -> Self {
        Self::new()
    }
}

impl SchedulerPolicy for OraclePolicy {
    fn name(&self) -> &'static str {
        "oracle"
    }

    fn description(&self) -> &'static str {
        "perfect-foresight lower bound: hot starts exactly each phase's concurrency"
    }

    fn build(&self, ctx: &PolicyContext<'_>) -> BuiltScheduler {
        BuiltScheduler::Serverless(Box::new(OracleScheduler::build(
            ctx.run.clone(),
            self.friendly_threshold,
        )))
    }
}

/// Serverless in the Wild: per-component histogram + ARIMA warm pairing.
#[derive(Debug, Clone, Copy, Default)]
pub struct WildPolicy;

impl SchedulerPolicy for WildPolicy {
    fn name(&self) -> &'static str {
        "wild"
    }

    fn description(&self) -> &'static str {
        "Serverless in the Wild: per-component histogram/ARIMA warm pairing"
    }

    fn build(&self, _: &PolicyContext<'_>) -> BuiltScheduler {
        BuiltScheduler::Serverless(Box::new(WildScheduler::build()))
    }
}

/// Pegasus: the HPC workflow manager on a rented whole cluster.
#[derive(Debug, Clone, Copy, Default)]
pub struct PegasusPolicy;

impl SchedulerPolicy for PegasusPolicy {
    fn name(&self) -> &'static str {
        "pegasus"
    }

    fn description(&self) -> &'static str {
        "HPC workflow manager: max-concurrency rented cluster, whole-makespan billing"
    }

    fn build(&self, _: &PolicyContext<'_>) -> BuiltScheduler {
        BuiltScheduler::Cluster(Box::new(Pegasus))
    }
}

/// All cold starts: the sanity floor for hot-start benefit.
#[derive(Debug, Clone, Copy, Default)]
pub struct NaivePolicy;

impl SchedulerPolicy for NaivePolicy {
    fn name(&self) -> &'static str {
        "naive"
    }

    fn description(&self) -> &'static str {
        "all cold starts: the sanity floor for hot-start benefit"
    }

    fn build(&self, _: &PolicyContext<'_>) -> BuiltScheduler {
        BuiltScheduler::Serverless(Box::new(NaiveScheduler))
    }
}

/// DayDream's hot starts combined with Wild-style warm pairing.
#[derive(Debug, Clone, Default)]
pub struct HybridPolicy {
    config: DayDreamConfig,
    history: DayDreamHistory,
}

impl HybridPolicy {
    /// An untrained hybrid policy; [`SchedulerPolicy::prepare`] folds a
    /// training run into its history.
    pub fn new() -> Self {
        Self::default()
    }

    /// Seeds the policy with an already-trained history instead of
    /// calling [`SchedulerPolicy::prepare`] — never do both, or the
    /// history sees the training run twice.
    pub fn with_history(history: DayDreamHistory) -> Self {
        Self {
            config: DayDreamConfig::default(),
            history,
        }
    }
}

impl SchedulerPolicy for HybridPolicy {
    fn name(&self) -> &'static str {
        "hybrid"
    }

    fn description(&self) -> &'static str {
        "DayDream hot starts + Wild-style warm pairing of predictable components"
    }

    fn prepare(&mut self, training: &WorkflowRun) {
        self.history.learn_from_run(
            training,
            self.config.friendly_threshold,
            self.config.fit_grid_steps,
        );
    }

    fn build(&self, ctx: &PolicyContext<'_>) -> BuiltScheduler {
        BuiltScheduler::Serverless(Box::new(HybridScheduler::build(
            &self.history,
            self.config,
            ctx.vendor,
            ctx.seeds,
        )))
    }
}

/// The "excessively high pre-loading" strawman: a fixed hot pool sized
/// as a multiple of the historic mean concurrency.
#[derive(Debug, Clone)]
pub struct FixedPoolPolicy {
    multiple: f64,
    history: DayDreamHistory,
}

impl FixedPoolPolicy {
    /// A 1× mean-concurrency pool, untrained; `prepare` supplies history.
    pub fn new() -> Self {
        Self {
            multiple: 1.0,
            history: DayDreamHistory::default(),
        }
    }

    /// Sizes the pool as `multiple ×` the historic mean concurrency
    /// (the `report fixedpool` sweep's knob).
    pub fn with_multiple(mut self, multiple: f64) -> Self {
        self.multiple = multiple;
        self
    }

    /// Seeds the policy with an already-trained history instead of
    /// calling [`SchedulerPolicy::prepare`] — never do both.
    pub fn with_history(history: DayDreamHistory) -> Self {
        Self {
            multiple: 1.0,
            history,
        }
    }
}

impl Default for FixedPoolPolicy {
    fn default() -> Self {
        Self::new()
    }
}

impl SchedulerPolicy for FixedPoolPolicy {
    fn name(&self) -> &'static str {
        "fixed-pool"
    }

    fn description(&self) -> &'static str {
        "fixed hot pool (multiple of historic mean concurrency), no prediction"
    }

    fn prepare(&mut self, training: &WorkflowRun) {
        self.history.learn_from_run(training, 0.20, 24);
    }

    fn build(&self, _: &PolicyContext<'_>) -> BuiltScheduler {
        BuiltScheduler::Serverless(Box::new(FixedPoolScheduler::build_from_mean_multiple(
            self.multiple,
            &self.history,
        )))
    }
}

/// ICPS-style affinity clustering with real-time reconfiguration.
#[derive(Debug, Clone, Copy, Default)]
pub struct IcpsPolicy;

impl SchedulerPolicy for IcpsPolicy {
    fn name(&self) -> &'static str {
        "icps"
    }

    fn description(&self) -> &'static str {
        "affinity clustering over data-sharing edges + reactive pool reconfiguration"
    }

    fn build(&self, ctx: &PolicyContext<'_>) -> BuiltScheduler {
        BuiltScheduler::Serverless(Box::new(IcpsScheduler::build(ctx.run)))
    }
}

/// Wukong-style decentralized fan-out with task clustering.
#[derive(Debug, Clone, Copy, Default)]
pub struct WukongPolicy;

impl SchedulerPolicy for WukongPolicy {
    fn name(&self) -> &'static str {
        "wukong"
    }

    fn description(&self) -> &'static str {
        "decentralized completion-event fan-out, task clustering, delayed I/O"
    }

    fn build(&self, ctx: &PolicyContext<'_>) -> BuiltScheduler {
        BuiltScheduler::Serverless(Box::new(WukongScheduler::build(ctx.run)))
    }
}

/// The deterministic policy catalogue every `--policy <name>` resolves
/// against. Registration order is user-visible; append, never reorder.
pub fn registry() -> PolicyRegistry {
    let mut r = PolicyRegistry::new();
    r.register(
        "daydream",
        "Weibull-predicted hot starts with per-phase re-fitting (the paper's system)",
        || Box::new(DayDreamPolicy::new()),
    );
    r.register(
        "oracle",
        "perfect-foresight lower bound: hot starts exactly each phase's concurrency",
        || Box::new(OraclePolicy::new()),
    );
    r.register(
        "wild",
        "Serverless in the Wild: per-component histogram/ARIMA warm pairing",
        || Box::new(WildPolicy),
    );
    r.register(
        "pegasus",
        "HPC workflow manager: max-concurrency rented cluster, whole-makespan billing",
        || Box::new(PegasusPolicy),
    );
    r.register(
        "naive",
        "all cold starts: the sanity floor for hot-start benefit",
        || Box::new(NaivePolicy),
    );
    r.register(
        "hybrid",
        "DayDream hot starts + Wild-style warm pairing of predictable components",
        || Box::new(HybridPolicy::new()),
    );
    r.register(
        "fixed-pool",
        "fixed hot pool (multiple of historic mean concurrency), no prediction",
        || Box::new(FixedPoolPolicy::new()),
    );
    r.register(
        "icps",
        "affinity clustering over data-sharing edges + reactive pool reconfiguration",
        || Box::new(IcpsPolicy),
    );
    r.register(
        "wukong",
        "decentralized completion-event fan-out, task clustering, delayed I/O",
        || Box::new(WukongPolicy),
    );
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use dd_platform::{run_policy, CloudVendor, FaasExecutor, Substrate};
    use dd_stats::SeedStream;
    use dd_wfdag::{RunGenerator, Workflow, WorkflowSpec};

    #[test]
    fn registry_order_is_pinned() {
        let names = registry().names();
        assert_eq!(
            names,
            vec![
                "daydream",
                "oracle",
                "wild",
                "pegasus",
                "naive",
                "hybrid",
                "fixed-pool",
                "icps",
                "wukong"
            ]
        );
    }

    #[test]
    fn unknown_policy_error_lists_known_names() {
        let err = registry()
            .create("nope")
            .err()
            .expect("nope must not resolve");
        assert_eq!(
            err,
            "unknown policy 'nope' (known policies: daydream, oracle, wild, pegasus, \
             naive, hybrid, fixed-pool, icps, wukong)"
        );
    }

    #[test]
    fn every_policy_builds_and_completes_a_run() {
        let spec = WorkflowSpec::new(Workflow::Ccl).scaled_down(10);
        let runtimes = spec.runtimes.clone();
        let gen = RunGenerator::new(spec, 3);
        let training = gen.generate(1_000);
        let run = gen.generate(0);
        let reg = registry();
        for name in reg.names() {
            let mut policy = reg.create(name).unwrap();
            policy.prepare(&training);
            let ctx = PolicyContext {
                run: &run,
                runtimes: &runtimes,
                vendor: CloudVendor::Aws,
                seeds: SeedStream::new(7),
            };
            let on = Substrate::Analytic(&mut FaasExecutor::aws());
            let outcome = run_policy(policy.as_ref(), &ctx, on, None, false).into_outcome();
            assert_eq!(outcome.phases.len(), run.phase_count(), "policy {name}");
            assert!(outcome.service_time_secs > 0.0, "policy {name}");
            assert!(outcome.ledger.total() > 0.0, "policy {name}");
        }
    }
}
