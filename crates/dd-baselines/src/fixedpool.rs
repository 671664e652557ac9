//! Fixed-pool baseline: pre-warming without prediction.
//!
//! The paper observes (Sec. V, "Service Cost"): *"It is trivial to reduce
//! the service time of workflows by simply pre-loading an excessively
//! high number of instances for different components and keeping them
//! alive in memory at all times. However, this naive approach is cost
//! prohibitive."* This scheduler is that strawman, parameterized: hot
//! start a **fixed** number of instances for every phase — no Weibull, no
//! re-fitting — sized as a multiple of the workflow's historic mean
//! concurrency. The `report fixedpool` sweep shows the time/cost curve
//! DayDream's prediction escapes.

use daydream_core::DayDreamHistory;
use dd_platform::{
    InstanceView, PhaseObservation, Placement, PoolRequest, RunInfo, ServerlessScheduler, SimTime,
    Tier,
};
use dd_wfdag::Phase;

/// Hot-starts a fixed pool every phase.
#[derive(Debug, Clone)]
pub struct FixedPoolScheduler {
    /// Instances hot-started per phase (high-end and low-end halves).
    pool_size: u32,
    friendly_fraction: f64,
}

impl FixedPoolScheduler {
    /// Crate-internal constructor the registry's
    /// [`crate::FixedPoolPolicy`] builds through.
    pub(crate) fn build(pool_size: u32, history: &DayDreamHistory) -> Self {
        Self {
            pool_size,
            friendly_fraction: history.friendly_prior(),
        }
    }

    /// Crate-internal mean-multiple sizing.
    pub(crate) fn build_from_mean_multiple(multiple: f64, history: &DayDreamHistory) -> Self {
        let mean = history.historic_weibull().map(|w| w.mean()).unwrap_or(10.0);
        Self::build((mean * multiple).round().max(1.0) as u32, history)
    }

    /// The fixed per-phase pool size.
    pub fn pool_size(&self) -> u32 {
        self.pool_size
    }

    fn request(&self) -> PoolRequest {
        let he = (f64::from(self.pool_size) * self.friendly_fraction).round() as usize;
        PoolRequest::hot(he, self.pool_size as usize - he)
    }
}

impl ServerlessScheduler for FixedPoolScheduler {
    fn name(&self) -> &'static str {
        "fixed-pool"
    }

    fn initial_pool(&mut self, _: &RunInfo) -> PoolRequest {
        self.request()
    }

    fn pool_for_next_phase(&mut self, _: usize, _: &PhaseObservation) -> PoolRequest {
        self.request()
    }

    fn place(&mut self, phase: &Phase, available: &[InstanceView], _: SimTime) -> Vec<Placement> {
        // Greedy: friendly components take high-end instances first,
        // everything else fills the rest; overflow cold starts high-end.
        let mut he: Vec<&InstanceView> = available
            .iter()
            .filter(|i| i.tier == Tier::HighEnd)
            .collect();
        let mut le: Vec<&InstanceView> = available
            .iter()
            .filter(|i| i.tier == Tier::LowEnd)
            .collect();
        phase
            .components
            .iter()
            .map(|c| {
                let preferred = if c.is_high_end_friendly(0.20) {
                    he.pop().or_else(|| le.pop())
                } else {
                    le.pop().or_else(|| he.pop())
                };
                match preferred {
                    Some(inst) => Placement {
                        tier: inst.tier,
                        instance: Some(inst.id),
                    },
                    None => Placement {
                        tier: Tier::HighEnd,
                        instance: None,
                    },
                }
            })
            .collect()
    }

    fn overhead_secs(&self) -> f64 {
        // No prediction machinery at all.
        0.0002
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use daydream_core::DayDreamScheduler;
    use dd_platform::FaasExecutor;
    use dd_platform::{Executor, RunRequest};
    use dd_stats::SeedStream;
    use dd_wfdag::{RunGenerator, Workflow, WorkflowRun, WorkflowSpec};

    fn setup() -> (WorkflowRun, Vec<dd_wfdag::LanguageRuntime>, DayDreamHistory) {
        let spec = WorkflowSpec::new(Workflow::Ccl).scaled_down(6);
        let runtimes = spec.runtimes.clone();
        let gen = RunGenerator::new(spec, 12);
        let mut history = DayDreamHistory::new();
        history.learn_from_run(&gen.generate(1_000), 0.20, 24);
        (gen.generate(0), runtimes, history)
    }

    #[test]
    fn oversized_pool_fast_but_wasteful() {
        // The paper's strawman: a 3× pool nearly eliminates cold starts
        // but pays for it in wasted keep-alive.
        let (run, runtimes, history) = setup();
        let mut exec = FaasExecutor::aws();
        let mut big = FixedPoolScheduler::build_from_mean_multiple(3.0, &history);
        let big_out = exec
            .run(RunRequest::new(&run, &runtimes, &mut big))
            .into_outcome();
        let (_, hot, cold) = big_out.start_counts();
        assert!(hot > cold * 10, "3x pool should almost never cold start");
        assert!(
            big_out.ledger.keep_alive_wasted > big_out.ledger.keep_alive_used,
            "most of the oversized pool is waste"
        );
    }

    #[test]
    fn daydream_beats_fixed_pool_on_cost_at_similar_time() {
        let (run, runtimes, history) = setup();
        let mut exec = FaasExecutor::aws();

        let mut dd = DayDreamScheduler::aws(&history, SeedStream::new(2));
        let dd_out = exec
            .run(RunRequest::new(&run, &runtimes, &mut dd))
            .into_outcome();

        let mut big = FixedPoolScheduler::build_from_mean_multiple(3.0, &history);
        let big_out = exec
            .run(RunRequest::new(&run, &runtimes, &mut big))
            .into_outcome();

        // The 3× pool may be marginally faster (never underprovisions)…
        assert!(big_out.service_time_secs < dd_out.service_time_secs * 1.05);
        // …but costs dramatically more.
        assert!(
            big_out.service_cost() > dd_out.service_cost() * 1.3,
            "fixed 3x ${:.4} vs daydream ${:.4}",
            big_out.service_cost(),
            dd_out.service_cost()
        );
    }

    #[test]
    fn undersized_pool_cold_starts() {
        let (run, runtimes, history) = setup();
        let mut tiny = FixedPoolScheduler::build(2, &history);
        assert_eq!(tiny.pool_size(), 2);
        let out = FaasExecutor::aws()
            .run(RunRequest::new(&run, &runtimes, &mut tiny))
            .into_outcome();
        let (_, hot, cold) = out.start_counts();
        assert!(cold > hot, "a 2-instance pool must mostly cold start");
    }
}
