//! The Hybrid scheduler — the paper's named future work.
//!
//! Sec. V ("Limitation"): *"There is also an opportunity to potentially
//! combine Wild and DayDream's prediction technique to further improve
//! the component prediction accuracy, more than what each technique can
//! achieve individually in isolation."*
//!
//! This scheduler does exactly that:
//!
//! 1. a Wild-style per-type tracker finds components whose near-future
//!    invocation is *confidently* predictable (present in most of the
//!    recent window — e.g. mid-streak components), and warm-pairs those
//!    instances: a warm start saves the component-load step a hot start
//!    pays at invocation;
//! 2. the remaining predicted phase concurrency (DayDream's Weibull
//!    sample minus the warm count) is hot-started, split across tiers by
//!    the high-end-friendly fraction, exactly like DayDream;
//! 3. placement matches warm instances by type first, then runs the
//!    joint time/cost optimizer over the rest.
//!
//! Mispredicted warm pairings degrade gracefully: the instance is wasted
//! (like Wild) but the hot pool still catches the component (like
//! DayDream) — the downside of each technique is bounded by the other.
//!
//! **Result (negative, and informative):** even with precise streak
//! tracking, the combination does *not* beat plain DayDream on these
//! workloads (`report ablations` measures ≈ +0.3–1 % service time and a
//! few % cost). A warm hit saves only the component-load step (~0.08 s)
//! over a hot start, while every miss strands a warm instance *and* a
//! component that must fall back — which is the paper's central argument
//! for hot starts, reproduced from the other direction.

use daydream_core::{DayDreamConfig, DayDreamHistory, PlacementOptimizer, WeibullPredictor};
use daydream_core::{FriendlyTracker, ObjectiveWeights};
use dd_platform::pool::PoolEntryRequest;
use dd_platform::pricing::PriceSheet;
use dd_platform::{
    CloudVendor, InstanceView, PhaseObservation, Placement, PoolRequest, RunInfo,
    ServerlessScheduler, SimTime, StartupModel, Tier,
};
use dd_stats::SeedStream;
use dd_wfdag::{ComponentTypeId, LanguageRuntime, Phase};
use std::collections::{BTreeMap, VecDeque};

/// Completed streak lengths remembered per type.
const STREAK_MEMORY: usize = 8;

/// The combined DayDream + Wild scheduler.
#[derive(Debug, Clone)]
pub struct HybridScheduler {
    predictor: WeibullPredictor,
    tracker: FriendlyTracker,
    optimizer: PlacementOptimizer,
    config: DayDreamConfig,
    runtimes: Vec<LanguageRuntime>,
    /// Per-type streak state: (current consecutive-presence length,
    /// last observed count, completed streak lengths).
    streaks: BTreeMap<ComponentTypeId, StreakState>,
}

/// Streak-tracking state of one component type.
#[derive(Debug, Clone, Default)]
struct StreakState {
    /// Consecutive phases the type has been present, ending now
    /// (0 = absent last phase).
    current: u32,
    /// Concurrency observed in the most recent present phase.
    last_count: u32,
    /// Lengths of recently completed streaks.
    completed: VecDeque<u32>,
}

impl StreakState {
    /// Modal completed streak length, if any streak has completed.
    fn modal_length(&self) -> Option<u32> {
        if self.completed.is_empty() {
            return None;
        }
        let hist: dd_stats::Histogram = self.completed.iter().copied().collect();
        hist.iter_nonzero()
            .max_by_key(|&(v, c)| (c, v))
            .map(|(v, _)| v)
    }
}

impl HybridScheduler {
    /// Crate-internal constructor the registry's [`crate::HybridPolicy`]
    /// builds through.
    pub(crate) fn build(
        history: &DayDreamHistory,
        config: DayDreamConfig,
        vendor: CloudVendor,
        seeds: SeedStream,
    ) -> Self {
        let startup = StartupModel::aws().with_vendor_multiplier(vendor.startup_multiplier());
        let pricing = PriceSheet::for_vendor(vendor);
        let historic = history
            .historic_weibull()
            .unwrap_or_else(|| dd_stats::Weibull::new(10.0, 1.5).expect("static"));
        Self {
            predictor: WeibullPredictor::new(historic, &config, seeds.derive("hybrid")),
            tracker: FriendlyTracker::new(history.friendly_prior()),
            optimizer: PlacementOptimizer::new(
                startup,
                pricing,
                ObjectiveWeights {
                    time: config.weight_time,
                    cost: config.weight_cost,
                },
                config.friendly_threshold,
                config.optimizer_max_components,
            ),
            config,
            runtimes: Vec::new(),
            streaks: BTreeMap::new(),
        }
    }

    /// AWS hybrid with default configuration (unit tests).
    #[cfg(test)]
    pub(crate) fn build_aws(history: &DayDreamHistory, seeds: SeedStream) -> Self {
        Self::build(history, DayDreamConfig::default(), CloudVendor::Aws, seeds)
    }

    /// Types confidently expected next phase, with predicted counts:
    /// the type is mid-streak (present last phase) and its typical streak
    /// length says more phases are coming. High precision is the whole
    /// game — a mispaired warm instance is pure waste, while an unpaired
    /// component still lands on the hot pool.
    fn confident_types(&self) -> Vec<(ComponentTypeId, u32)> {
        self.streaks
            .iter()
            .filter_map(|(&ty, st)| {
                if st.current == 0 {
                    return None;
                }
                let modal = st.modal_length()?;
                (st.current < modal).then_some((ty, st.last_count.max(1)))
            })
            .collect()
    }

    fn record(&mut self, observation: &PhaseObservation) {
        // Close streaks of types absent this phase.
        for (ty, st) in self.streaks.iter_mut() {
            if !observation.component_counts.contains_key(ty) && st.current > 0 {
                st.completed.push_back(st.current);
                if st.completed.len() > STREAK_MEMORY {
                    st.completed.pop_front();
                }
                st.current = 0;
            }
        }
        // Extend/open streaks of present types.
        for (&ty, &count) in &observation.component_counts {
            let st = self.streaks.entry(ty).or_default();
            st.current += 1;
            st.last_count = count;
        }
        // Drop types with no live streak and no memory.
        self.streaks
            .retain(|_, st| st.current > 0 || !st.completed.is_empty());
    }

    /// Builds the combined pool: warm pairs for confident types, hot
    /// starts for the remainder of the Weibull sample.
    fn pool(&mut self) -> PoolRequest {
        let total = self.predictor.sample_hot_starts();
        let mut entries = Vec::new();
        let mut warm_count = 0u32;
        for (ty, count) in self.confident_types() {
            let take = count.min(total.saturating_sub(warm_count));
            for _ in 0..take {
                entries.push(PoolEntryRequest {
                    tier: Tier::HighEnd,
                    preload: Some(ty),
                });
            }
            warm_count += take;
            if warm_count >= total {
                break;
            }
        }
        let remaining = total.saturating_sub(warm_count);
        let (he, le) = self.tracker.split(remaining);
        for _ in 0..he {
            entries.push(PoolEntryRequest {
                tier: Tier::HighEnd,
                preload: None,
            });
        }
        for _ in 0..le {
            entries.push(PoolEntryRequest {
                tier: Tier::LowEnd,
                preload: None,
            });
        }
        PoolRequest { entries }
    }
}

impl ServerlessScheduler for HybridScheduler {
    fn name(&self) -> &'static str {
        "hybrid"
    }

    fn initial_pool(&mut self, info: &RunInfo) -> PoolRequest {
        self.runtimes = info.runtimes.clone();
        self.pool()
    }

    fn pool_for_next_phase(&mut self, _: usize, observed: &PhaseObservation) -> PoolRequest {
        self.predictor.observe(observed.concurrency);
        self.tracker.observe(observed.friendly_fraction);
        self.record(observed);
        self.pool()
    }

    fn place(&mut self, phase: &Phase, available: &[InstanceView], now: SimTime) -> Vec<Placement> {
        // 1. Match warm instances by component type.
        let mut warm_by_type: BTreeMap<ComponentTypeId, Vec<&InstanceView>> = BTreeMap::new();
        for inst in available {
            if let Some(ty) = inst.preload {
                warm_by_type.entry(ty).or_default().push(inst);
            }
        }
        let mut placements: Vec<Option<Placement>> = vec![None; phase.components.len()];
        let mut leftover_idx = Vec::new();
        for (i, c) in phase.components.iter().enumerate() {
            match warm_by_type.get_mut(&c.type_id).and_then(Vec::pop) {
                Some(inst) => {
                    placements[i] = Some(Placement {
                        tier: inst.tier,
                        instance: Some(inst.id),
                    });
                }
                None => leftover_idx.push(i),
            }
        }

        // 2. Optimize the rest over the hot (runtime-only) instances.
        let hot_pool: Vec<InstanceView> = available
            .iter()
            .filter(|i| i.preload.is_none())
            .copied()
            .collect();
        let sub_phase = Phase {
            index: phase.index,
            components: leftover_idx
                .iter()
                .map(|&i| phase.components[i].clone())
                .collect(),
        };
        let sub = self
            .optimizer
            .place(&sub_phase, &hot_pool, now, &self.runtimes);
        for (&i, p) in leftover_idx.iter().zip(sub) {
            placements[i] = Some(p);
        }
        placements
            .into_iter()
            .map(|p| p.expect("every component placed"))
            .collect()
    }

    fn overhead_secs(&self) -> f64 {
        // Both machineries run: slightly above DayDream's 0.028%.
        self.config.overhead_secs + 0.0005
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dd_platform::FaasExecutor;
    use dd_platform::{Executor, RunRequest};
    use dd_wfdag::{RunGenerator, Workflow, WorkflowRun, WorkflowSpec};

    fn setup() -> (WorkflowRun, Vec<LanguageRuntime>, DayDreamHistory) {
        let spec = WorkflowSpec::new(Workflow::Ccl).scaled_down(6);
        let runtimes = spec.runtimes.clone();
        let gen = RunGenerator::new(spec, 8);
        let mut history = DayDreamHistory::new();
        history.learn_from_run(&gen.generate(1_000), 0.20, 24);
        (gen.generate(0), runtimes, history)
    }

    #[test]
    fn hybrid_mixes_warm_and_hot_starts() {
        // Warm pairing needs a type's *second* streak (one completed
        // streak to learn the modal length), which for CCL's 16-template
        // × 4-dwell cycle means ≥ ~64 phases: use the full-scale run.
        let spec = WorkflowSpec::new(Workflow::Ccl);
        let runtimes = spec.runtimes.clone();
        let gen = RunGenerator::new(spec, 8);
        let mut history = DayDreamHistory::new();
        history.learn_from_run(&gen.generate(1_000), 0.20, 24);
        let run = gen.generate(0);
        let mut hybrid = HybridScheduler::build_aws(&history, SeedStream::new(1));
        let outcome = FaasExecutor::aws()
            .run(RunRequest::new(&run, &runtimes, &mut hybrid))
            .into_outcome();
        let (warm, hot, _cold) = outcome.start_counts();
        assert!(hot > 0, "hybrid must hot start");
        assert!(warm > 0, "hybrid must warm-pair confident streaks");
    }

    #[test]
    fn hybrid_not_slower_than_daydream() {
        // The future-work claim: the combination should improve on (or at
        // least match) each technique alone. Allow a small tolerance —
        // the combination helps most when streaks dominate.
        let (run, runtimes, history) = setup();
        let mut exec = FaasExecutor::aws();
        let mut dd = daydream_core::DayDreamScheduler::aws(&history, SeedStream::new(2));
        let dd_outcome = exec
            .run(RunRequest::new(&run, &runtimes, &mut dd))
            .into_outcome();
        let mut hy = HybridScheduler::build_aws(&history, SeedStream::new(2));
        let hy_outcome = exec
            .run(RunRequest::new(&run, &runtimes, &mut hy))
            .into_outcome();
        assert!(
            hy_outcome.service_time_secs <= dd_outcome.service_time_secs * 1.03,
            "hybrid {:.1}s should track daydream {:.1}s",
            hy_outcome.service_time_secs,
            dd_outcome.service_time_secs
        );
    }

    #[test]
    fn hybrid_beats_wild() {
        let (run, runtimes, history) = setup();
        let mut exec = FaasExecutor::aws();
        let mut wild = crate::WildScheduler::build();
        let wild_outcome = exec
            .run(RunRequest::new(&run, &runtimes, &mut wild))
            .into_outcome();
        let mut hy = HybridScheduler::build_aws(&history, SeedStream::new(3));
        let hy_outcome = exec
            .run(RunRequest::new(&run, &runtimes, &mut hy))
            .into_outcome();
        assert!(hy_outcome.service_time_secs < wild_outcome.service_time_secs);
        assert!(hy_outcome.service_cost() < wild_outcome.service_cost());
    }

    fn observe(hy: &mut HybridScheduler, i: usize, counts: &[(u32, u32)]) {
        let component_counts: BTreeMap<ComponentTypeId, u32> = counts
            .iter()
            .map(|&(ty, c)| (ComponentTypeId(ty), c))
            .collect();
        let concurrency = counts.iter().map(|&(_, c)| c).sum();
        hy.record(&PhaseObservation {
            index: i,
            concurrency,
            component_counts,
            friendly_fraction: 0.4,
            retried_components: 0,
        });
    }

    #[test]
    fn mid_streak_types_are_confident() {
        let (_, _, history) = setup();
        let mut hy = HybridScheduler::build_aws(&history, SeedStream::new(4));
        // Type 1 streaks in blocks of 4 (present 4, absent 2, twice), so
        // its modal streak length is 4; then it re-enters and runs for 2
        // phases — mid-streak, 2 < 4 → confident at its last count.
        let mut i = 0;
        for _ in 0..2 {
            for _ in 0..4 {
                observe(&mut hy, i, &[(1, 3)]);
                i += 1;
            }
            for _ in 0..2 {
                observe(&mut hy, i, &[(2, 1)]);
                i += 1;
            }
        }
        observe(&mut hy, i, &[(1, 3)]);
        observe(&mut hy, i + 1, &[(1, 5)]);
        let confident = hy.confident_types();
        assert_eq!(confident, vec![(ComponentTypeId(1), 5)]);
    }

    #[test]
    fn completed_streaks_stop_warming() {
        let (_, _, history) = setup();
        let mut hy = HybridScheduler::build_aws(&history, SeedStream::new(5));
        // Same block structure, but the current streak has reached the
        // modal length (4): the streak is expected to end — not confident.
        let mut i = 0;
        for _ in 0..2 {
            for _ in 0..4 {
                observe(&mut hy, i, &[(1, 3)]);
                i += 1;
            }
            for _ in 0..2 {
                observe(&mut hy, i, &[(2, 1)]);
                i += 1;
            }
        }
        for _ in 0..4 {
            observe(&mut hy, i, &[(1, 3)]);
            i += 1;
        }
        assert!(hy.confident_types().is_empty());
    }

    #[test]
    fn unknown_streak_lengths_are_not_confident() {
        // A type that has never completed a streak has no modal length:
        // the hybrid refuses to gamble a warm pairing on it (its live
        // streak has no completed record yet).
        let (_, _, history) = setup();
        let mut hy = HybridScheduler::build_aws(&history, SeedStream::new(6));
        for i in 0..6 {
            observe(&mut hy, i, &[(9, 2)]);
        }
        assert!(hy.confident_types().is_empty());
    }
}
