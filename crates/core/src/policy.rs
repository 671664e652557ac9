//! DayDream as a registrable [`SchedulerPolicy`].
//!
//! The policy owns the cross-run state ([`DayDreamHistory`]) and builds
//! one [`DayDreamScheduler`] per run from the [`PolicyContext`], exactly
//! as the pre-trait call sites did by hand: `prepare` trains the history
//! on the workflow's training run with the configured friendly threshold
//! and fit grid, `build` passes the context's vendor and seed stream to
//! [`DayDreamScheduler::new`]. Byte-for-byte the same construction, so
//! every golden and perf-equivalence hash is unchanged.

use crate::config::DayDreamConfig;
use crate::history::DayDreamHistory;
use crate::scheduler::DayDreamScheduler;
use dd_platform::policy::{BuiltScheduler, PolicyContext, SchedulerPolicy};
use dd_wfdag::WorkflowRun;

/// The DayDream scheduler as a pluggable policy.
#[derive(Debug, Clone, Default)]
pub struct DayDreamPolicy {
    config: DayDreamConfig,
    history: DayDreamHistory,
}

impl DayDreamPolicy {
    /// Default-configured policy with no history yet (train it via
    /// [`SchedulerPolicy::prepare`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// Policy with a specific configuration (the ablation studies).
    pub fn with_config(config: DayDreamConfig) -> Self {
        Self {
            config,
            history: DayDreamHistory::new(),
        }
    }

    /// Policy over already-trained history (call sites that precompute
    /// one history per workflow and share it across runs).
    pub fn with_history(history: DayDreamHistory) -> Self {
        Self {
            config: DayDreamConfig::default(),
            history,
        }
    }

    /// The trained history (for inspection / reuse).
    pub fn history(&self) -> &DayDreamHistory {
        &self.history
    }
}

impl SchedulerPolicy for DayDreamPolicy {
    fn name(&self) -> &'static str {
        "daydream"
    }

    fn description(&self) -> &'static str {
        "the paper's scheduler: Weibull-predicted hot starts, two-tier pools, joint time/cost placement"
    }

    fn prepare(&mut self, training: &WorkflowRun) {
        self.history.learn_from_run(
            training,
            self.config.friendly_threshold,
            self.config.fit_grid_steps,
        );
    }

    fn build(&self, ctx: &PolicyContext<'_>) -> BuiltScheduler {
        BuiltScheduler::Serverless(Box::new(DayDreamScheduler::new(
            &self.history,
            self.config,
            ctx.vendor,
            ctx.seeds,
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dd_platform::prelude::*;
    use dd_platform::CloudVendor;
    use dd_stats::SeedStream;
    use dd_wfdag::{LanguageRuntime, RunGenerator, Workflow, WorkflowSpec};

    /// Builds `policy` for `run` and runs it on the AWS analytic executor.
    fn run_aws(
        policy: &dyn SchedulerPolicy,
        run: &WorkflowRun,
        runtimes: &[LanguageRuntime],
        seeds: SeedStream,
    ) -> RunOutcome {
        let ctx = PolicyContext {
            run,
            runtimes,
            vendor: CloudVendor::Aws,
            seeds,
        };
        let on = Substrate::Analytic(&mut FaasExecutor::aws());
        run_policy(policy, &ctx, on, None, false).into_outcome()
    }

    #[test]
    fn policy_build_matches_hand_construction() {
        let spec = WorkflowSpec::new(Workflow::Ccl).scaled_down(20);
        let runtimes = spec.runtimes.clone();
        let gen = RunGenerator::new(spec, 42);

        let mut history = DayDreamHistory::new();
        history.learn_from_run(&gen.generate(1_000), 0.20, 24);
        let run = gen.generate(1);
        let seeds = SeedStream::new(7);

        let mut by_hand = DayDreamScheduler::aws(&history, seeds);
        let hand = FaasExecutor::aws()
            .run(RunRequest::new(&run, &runtimes, &mut by_hand))
            .into_outcome();

        let mut policy = DayDreamPolicy::new();
        policy.prepare(&gen.generate(1_000));
        let via_policy = run_aws(&policy, &run, &runtimes, seeds);

        assert_eq!(hand, via_policy);
    }

    #[test]
    fn with_config_builds_the_configured_scheduler() {
        let spec = WorkflowSpec::new(Workflow::Ccl).scaled_down(20);
        let runtimes = spec.runtimes.clone();
        let gen = RunGenerator::new(spec, 42);
        let config = DayDreamConfig::default().single_tier();

        let mut history = DayDreamHistory::new();
        history.learn_from_run(&gen.generate(1_000), 0.20, 24);
        let run = gen.generate(1);
        let seeds = SeedStream::new(7);

        let mut by_hand = DayDreamScheduler::new(&history, config, CloudVendor::Aws, seeds);
        let hand = FaasExecutor::aws()
            .run(RunRequest::new(&run, &runtimes, &mut by_hand))
            .into_outcome();

        let mut policy = DayDreamPolicy::with_config(config);
        policy.prepare(&gen.generate(1_000));
        let via_policy = run_aws(&policy, &run, &runtimes, seeds);

        assert_eq!(hand, via_policy);
    }
}
