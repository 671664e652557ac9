//! The "Serverless in the Wild" baseline (Shahrad et al., ATC'20).
//!
//! Wild warms up *specific* (component, runtime) pairings: it predicts,
//! per component type, how many instances the next phase will invoke —
//! using histogram + ARIMA time-series forecasting of each type's
//! concurrency — and warm-starts exactly those pairings. A warm instance
//! can only serve its own component; if a different component arrives, the
//! instance is wasted and the component cold starts.
//!
//! The paper demonstrates (Figs. 8, 13a–b) why this fails on dynamic HPC
//! DAGs: per-type concurrency has almost no temporal correlation, so the
//! forecasts miss, the warm pool pairs wrong components, and the wasted
//! keep-alive piles up. The mechanism is faithfully reproduced here,
//! following the original system's structure: each type is forecast from
//! its **idle/invocation histogram** when that histogram is
//! *representative* (concentrated — the original's coefficient-of-
//! variation test), and falls back to **ARIMA(3,1,1)** time-series
//! forecasting otherwise.
//!
//! As in the paper, Wild runs on nodes with "computational resources and
//! costs similar to the high-end AWS Lambda instances", so everything is
//! high-end tier.

use dd_platform::pool::PoolEntryRequest;
use dd_platform::{
    InstanceView, PhaseObservation, Placement, PoolRequest, RunInfo, ServerlessScheduler, SimTime,
    Tier,
};
use dd_stats::{Arima, ArimaConfig, ArimaScratch};
use dd_wfdag::{ComponentTypeId, Phase};
use std::collections::BTreeMap;
// dd-lint: allow(hash-container): memo table is point-lookup only; iteration order is never observed
use std::collections::{HashMap, VecDeque};
use std::sync::{Mutex, OnceLock, PoisonError};

/// Sliding-window length (phases) of per-type concurrency history.
const HISTORY_WINDOW: usize = 48;

/// Reusable buffers for the per-phase forecasting sweep. Wild forecasts
/// every known type every phase — hundreds of thousands of calls per
/// simulated run — so the sweep draws all intermediate storage from here
/// instead of allocating.
#[derive(Debug, Clone, Default)]
struct ForecastScratch {
    /// The current type's window, contiguous (`histogram_forecast` and
    /// ARIMA both want slices).
    xs: Vec<f64>,
    /// Gaps (in phases) between invocations of the current type.
    gaps: Vec<f64>,
    /// Dense count vector, reused for the gap and concurrency modes.
    counts: Vec<u64>,
    /// Lossless integer encoding of the current window, the ARIMA memo key.
    key: Vec<u32>,
    arima: ArimaScratch,
}

/// Process-wide memo for the ARIMA fallback, keyed by the exact series
/// contents and model order. The forecast is a pure function of both, so
/// identical inputs always return the identical — bit for bit — value and
/// memoization is invisible to callers. It pays off twice: many types
/// share identical concurrency windows *within* a run (types born in the
/// same phases at the same counts slide in lockstep), and the same
/// (workflow, run) pairs recur *across* figures and cloud-vendor columns
/// (Wild's observations don't depend on the vendor). Bounded like the
/// dd-stats fit memo: at capacity the table is cleared — the memo is a
/// pure cache, so eviction only costs recomputation.
#[allow(clippy::type_complexity)]
// dd-lint: allow(hash-container): memo table is point-lookup only; iteration order is never observed
static ARIMA_MEMO: OnceLock<Mutex<HashMap<(usize, usize, usize, Vec<u32>), f64>>> = OnceLock::new();
const ARIMA_MEMO_CAP: usize = 262_144;

/// [`Arima::forecast_or_mean_with`], memoized process-wide when the series
/// round-trips losslessly through `u32` (phase concurrency always does —
/// the windows hold `f64::from(u32)` counts); anything else falls through
/// to the direct call.
#[allow(clippy::float_cmp)] // exact round-trip check: any imprecision must disable the memo
fn arima_forecast_memo(
    series: &[f64],
    config: ArimaConfig,
    scratch: &mut ArimaScratch,
    key: &mut Vec<u32>,
) -> f64 {
    key.clear();
    for &x in series {
        let v = x as u32;
        if f64::from(v) != x {
            return Arima::forecast_or_mean_with(series, config, scratch);
        }
        key.push(v);
    }
    let full_key = (config.p, config.d, config.q, key.clone());
    // dd-lint: allow(hash-container, par-purity): memo table is point-lookup only and a hit returns exactly what recomputation would; neither iteration order nor thread interleaving is observable in results
    let memo = ARIMA_MEMO.get_or_init(|| Mutex::new(HashMap::new()));
    if let Some(&f) = memo
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .get(&full_key)
    {
        return f;
    }
    // Not held across the forecast: concurrent sweep workers may race to
    // compute the same entry, but they insert identical values.
    let f = Arima::forecast_or_mean_with(series, config, scratch);
    let mut guard = memo.lock().unwrap_or_else(PoisonError::into_inner);
    if guard.len() >= ARIMA_MEMO_CAP {
        guard.clear();
    }
    guard.insert(full_key, f);
    f
}

/// The Wild scheduler.
#[derive(Debug, Clone)]
pub struct WildScheduler {
    /// Per-type concurrency over the last `HISTORY_WINDOW` phases.
    /// Types whose window is all-zero are pruned.
    history: BTreeMap<ComponentTypeId, VecDeque<f64>>,
    /// Recent total phase concurrency (for the keep-alive budget).
    recent_concurrency: VecDeque<f64>,
    arima: ArimaConfig,
    /// Cap on warm instances requested per type per phase.
    per_type_cap: u32,
    scratch: ForecastScratch,
}

impl Default for WildScheduler {
    fn default() -> Self {
        Self::build()
    }
}

impl WildScheduler {
    /// Crate-internal constructor the registry's [`crate::WildPolicy`]
    /// builds through.
    pub(crate) fn build() -> Self {
        Self {
            history: BTreeMap::new(),
            recent_concurrency: VecDeque::new(),
            arima: ArimaConfig::wild_default(),
            per_type_cap: 64,
            scratch: ForecastScratch::default(),
        }
    }

    /// Forecast of next-phase concurrency for every known type: the
    /// histogram policy when representative, ARIMA otherwise (the
    /// original system's split).
    fn forecast_all(&mut self) -> Vec<(ComponentTypeId, u32)> {
        let Self {
            history,
            arima,
            per_type_cap,
            scratch,
            ..
        } = self;
        history
            .iter()
            .filter_map(|(&ty, series)| {
                scratch.xs.clear();
                scratch.xs.extend(series.iter().copied());
                let f = match histogram_forecast_with(
                    &scratch.xs,
                    &mut scratch.gaps,
                    &mut scratch.counts,
                ) {
                    Some(h) => h,
                    None => arima_forecast_memo(
                        &scratch.xs,
                        *arima,
                        &mut scratch.arima,
                        &mut scratch.key,
                    ),
                };
                let count = f.round().max(0.0) as u32;
                (count > 0).then_some((ty, count.min(*per_type_cap)))
            })
            .collect()
    }

    /// Folds a completed phase's per-type counts into the sliding window.
    fn record(&mut self, observation: &PhaseObservation) {
        self.recent_concurrency
            .push_back(f64::from(observation.concurrency));
        if self.recent_concurrency.len() > 8 {
            self.recent_concurrency.pop_front();
        }
        // Every known type gets a sample (0 when absent this phase).
        for (ty, series) in self.history.iter_mut() {
            let count = observation.component_counts.get(ty).copied().unwrap_or(0);
            series.push_back(f64::from(count));
            if series.len() > HISTORY_WINDOW {
                series.pop_front();
            }
        }
        // Newly seen types start a window.
        for (&ty, &count) in &observation.component_counts {
            self.history.entry(ty).or_insert_with(|| {
                let mut d = VecDeque::with_capacity(HISTORY_WINDOW);
                d.push_back(f64::from(count));
                d
            });
        }
        // Prune types that vanished from the window entirely.
        self.history
            .retain(|_, series| series.iter().any(|&x| x > 0.0));
    }

    /// Builds a warm-start request from the current forecasts.
    ///
    /// The total is budgeted at 1.5× the recent mean phase concurrency:
    /// Wild's idle-time histograms bound how long (and therefore how many)
    /// instances it keeps alive, so unbounded speculative warming is not
    /// faithful to the original system. Forecasts are trimmed
    /// proportionally when they exceed the budget.
    fn warm_request(&mut self) -> PoolRequest {
        let mut forecasts = self.forecast_all();
        let budget = {
            let xs: Vec<f64> = self.recent_concurrency.iter().copied().collect();
            let mean = dd_stats::mean(&xs);
            ((mean * 1.5).ceil() as usize).max(1)
        };
        let total: usize = forecasts.iter().map(|&(_, n)| n as usize).sum();
        if total > budget {
            // Trim the largest forecasts first until within budget.
            forecasts.sort_by_key(|&(_, n)| std::cmp::Reverse(n));
            let mut excess = total - budget;
            for entry in forecasts.iter_mut() {
                if excess == 0 {
                    break;
                }
                let cut = (entry.1 as usize).min(excess) as u32;
                entry.1 -= cut;
                excess -= cut as usize;
            }
        }
        let mut entries = Vec::new();
        for (ty, count) in forecasts {
            entries.extend(std::iter::repeat_n(
                PoolEntryRequest {
                    tier: Tier::HighEnd,
                    preload: Some(ty),
                },
                count as usize,
            ));
        }
        PoolRequest { entries }
    }
}

/// The histogram policy of Serverless in the Wild, adapted to the phase
/// domain. The original builds each function's **idle-time histogram**
/// and pre-warms just before the next invocation is due; here the "idle
/// time" is the gap (in phases) between a type's invocations:
///
/// * when the gap histogram is *representative* (concentrated — the
///   original's coefficient-of-variation cutoff), the type is warmed at
///   its modal concurrency exactly when the modal gap says the next
///   invocation lands in the next phase, and not otherwise;
/// * when it is unrepresentative, `None` defers to ARIMA.
///
/// `series` is most-recent-last.
///
/// This wrapper allocates fresh scratch; the per-phase forecasting sweep
/// goes through [`histogram_forecast_with`] directly with reused buffers.
#[cfg(test)]
fn histogram_forecast(series: &[f64]) -> Option<f64> {
    histogram_forecast_with(series, &mut Vec::new(), &mut Vec::new())
}

/// [`histogram_forecast`] with caller-provided scratch (`gaps` and a
/// dense count buffer), so the per-type sweep allocates nothing. The
/// count buffer replays [`dd_stats::Histogram`]'s dense value-indexed
/// counts; mode selection keeps the same tie-breaks (most frequent gap,
/// ties to the *smallest* gap; most frequent concurrency, ties to the
/// *largest*), which are unique maxima over distinct values either way.
fn histogram_forecast_with(
    series: &[f64],
    gaps: &mut Vec<f64>,
    counts: &mut Vec<u64>,
) -> Option<f64> {
    if series.len() < 4 {
        return None;
    }
    let mut last_invocation = None;
    let mut any = false;
    gaps.clear();
    for (i, &x) in series.iter().enumerate() {
        if x > 0.0 {
            if let Some(prev) = last_invocation {
                gaps.push((i - prev) as f64);
            }
            last_invocation = Some(i);
            any = true;
        }
    }
    if !any {
        return Some(0.0);
    }
    if gaps.len() < 3 {
        return None;
    }
    let cv = dd_stats::std_dev(gaps) / dd_stats::mean(gaps).max(1e-12);
    // The original treats a histogram as representative when it is
    // concentrated; CV ≤ 1 is its cutoff for usable idle-time histograms.
    if cv > 1.0 {
        return None;
    }
    let modal_gap = dense_mode(counts, gaps.iter().map(|&g| g.round() as u32), true)? as usize;
    // Phases elapsed since the type was last invoked.
    let since_last = series.len() - 1 - last_invocation.unwrap_or(0);
    if since_last + 1 != modal_gap {
        // Next invocation not due next phase: keep nothing warm (this is
        // the original's bounded keep-alive window).
        return Some(0.0);
    }
    // Warm the modal concurrency of past invocations.
    dense_mode(
        counts,
        series
            .iter()
            .filter(|&&x| x > 0.0)
            .map(|&x| x.round() as u32),
        false,
    )
    .map(f64::from)
}

/// Modal value of `values` over a reused dense count buffer. With
/// `ties_to_smallest` the most frequent value wins ties toward the
/// smallest value (`max_by_key` on `(count, Reverse(value))`), otherwise
/// toward the largest (`max_by_key` on `(count, value)`). `None` only
/// when `values` is empty.
fn dense_mode(
    counts: &mut Vec<u64>,
    values: impl Iterator<Item = u32>,
    ties_to_smallest: bool,
) -> Option<u32> {
    counts.clear();
    for v in values {
        let idx = v as usize;
        if idx >= counts.len() {
            counts.resize(idx + 1, 0);
        }
        counts[idx] += 1;
    }
    let mut best: Option<(u32, u64)> = None;
    for (v, &c) in counts.iter().enumerate() {
        if c == 0 {
            continue;
        }
        let v = v as u32;
        let wins = match best {
            None => true,
            // Ascending scan: strict `>` keeps the first (smallest) value
            // among equal counts, `>=` keeps the last (largest).
            Some((_, bc)) if ties_to_smallest => c > bc,
            Some((_, bc)) => c >= bc,
        };
        if wins {
            best = Some((v, c));
        }
    }
    best.map(|(v, _)| v)
}

impl ServerlessScheduler for WildScheduler {
    fn name(&self) -> &'static str {
        "wild"
    }

    fn initial_pool(&mut self, _: &RunInfo) -> PoolRequest {
        // No history before the first phase — nothing to warm.
        PoolRequest::none()
    }

    fn pool_for_next_phase(&mut self, _: usize, observed: &PhaseObservation) -> PoolRequest {
        self.record(observed);
        self.warm_request()
    }

    fn place(&mut self, phase: &Phase, available: &[InstanceView], _: SimTime) -> Vec<Placement> {
        // Warm instances can only serve their own component type.
        let mut by_type: BTreeMap<ComponentTypeId, Vec<&InstanceView>> = BTreeMap::new();
        for inst in available {
            if let Some(ty) = inst.preload {
                by_type.entry(ty).or_default().push(inst);
            }
        }
        phase
            .components
            .iter()
            .map(|c| match by_type.get_mut(&c.type_id).and_then(Vec::pop) {
                Some(inst) => Placement {
                    tier: inst.tier,
                    instance: Some(inst.id),
                },
                None => Placement {
                    tier: Tier::HighEnd,
                    instance: None,
                },
            })
            .collect()
    }

    fn overhead_secs(&self) -> f64 {
        // Paper: 0.043% of the 3.56 s mean component execution.
        0.0015
    }
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // exact equality asserts bit-reproducibility, the determinism contract
mod tests {
    use super::*;
    use dd_platform::FaasExecutor;
    use dd_platform::{Executor, RunRequest};
    use dd_wfdag::{RunGenerator, Workflow, WorkflowRun, WorkflowSpec};

    fn setup() -> (WorkflowRun, Vec<dd_wfdag::LanguageRuntime>) {
        let spec = WorkflowSpec::new(Workflow::Ccl).scaled_down(6);
        let runtimes = spec.runtimes.clone();
        (RunGenerator::new(spec, 4).generate(0), runtimes)
    }

    #[test]
    fn executes_and_mixes_warm_and_cold() {
        let (run, runtimes) = setup();
        let outcome = FaasExecutor::aws()
            .run(RunRequest::new(
                &run,
                &runtimes,
                &mut WildScheduler::build(),
            ))
            .into_outcome();
        let (warm, hot, cold) = outcome.start_counts();
        assert_eq!(hot, 0, "Wild never uses runtime-only hot starts");
        assert!(cold > 0, "dynamic DAGs must defeat some forecasts");
        // Some warm hits should land once history accumulates.
        assert!(warm > 0, "recurring types should produce warm hits");
    }

    #[test]
    fn wild_wastes_keep_alive() {
        // The paper's Fig. 16d: warming wrong components wastes cost.
        let (run, runtimes) = setup();
        let outcome = FaasExecutor::aws()
            .run(RunRequest::new(
                &run,
                &runtimes,
                &mut WildScheduler::build(),
            ))
            .into_outcome();
        assert!(
            outcome.ledger.keep_alive_wasted > 0.0,
            "mispredicted warm pairings must show up as waste"
        );
    }

    #[test]
    fn record_prunes_vanished_types() {
        let mut wild = WildScheduler::build();
        let mut obs = PhaseObservation {
            index: 0,
            concurrency: 2,
            component_counts: [(ComponentTypeId(1), 2)].into_iter().collect(),
            friendly_fraction: 0.5,
            retried_components: 0,
        };
        wild.record(&obs);
        assert_eq!(wild.history.len(), 1);
        // Type 1 disappears for a full window.
        obs.component_counts = [(ComponentTypeId(2), 1)].into_iter().collect();
        for i in 1..=HISTORY_WINDOW {
            obs.index = i;
            wild.record(&obs);
        }
        assert!(
            !wild.history.contains_key(&ComponentTypeId(1)),
            "all-zero windows must be pruned"
        );
        assert!(wild.history.contains_key(&ComponentTypeId(2)));
    }

    #[test]
    fn forecast_tracks_steady_type() {
        let mut wild = WildScheduler::build();
        let obs = |i: usize| PhaseObservation {
            index: i,
            concurrency: 5,
            component_counts: [(ComponentTypeId(9), 5)].into_iter().collect(),
            friendly_fraction: 0.5,
            retried_components: 0,
        };
        for i in 0..20 {
            wild.record(&obs(i));
        }
        let forecasts = wild.forecast_all();
        assert_eq!(forecasts.len(), 1);
        let (ty, n) = forecasts[0];
        assert_eq!(ty, ComponentTypeId(9));
        assert!(
            (4..=6).contains(&n),
            "steady 5s should forecast ≈5, got {n}"
        );
    }

    #[test]
    fn per_type_cap_bounds_requests() {
        let mut wild = WildScheduler::build();
        let obs = |i: usize| PhaseObservation {
            index: i,
            concurrency: 500,
            component_counts: [(ComponentTypeId(1), 500)].into_iter().collect(),
            friendly_fraction: 0.5,
            retried_components: 0,
        };
        for i in 0..10 {
            wild.record(&obs(i));
        }
        let req = wild.warm_request();
        // Both the per-type cap (64) and the 1.5× concurrency budget
        // (750) bound the request; the cap is the binding one here.
        assert!(req.len() <= 64, "cap must bound the request: {}", req.len());
    }

    #[test]
    fn warm_placement_requires_type_match() {
        let (run, runtimes) = setup();
        // Execute and verify the invariant the platform enforces: no
        // panic means Wild never paired a warm instance with the wrong
        // component type.
        let _ = FaasExecutor::aws()
            .run(RunRequest::new(
                &run,
                &runtimes,
                &mut WildScheduler::build(),
            ))
            .into_outcome();
    }
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // exact equality asserts bit-reproducibility, the determinism contract
mod histogram_policy_tests {
    use super::*;

    #[test]
    fn streak_mid_flight_warms_modal_count() {
        // Invoked every phase at count 5 (gap 1, last seen in the most
        // recent phase): next invocation due next phase → warm 5.
        let series = vec![5.0; 12];
        let f = histogram_forecast(&series).expect("representative");
        assert!((f - 5.0).abs() < 1e-9, "forecast {f}");
    }

    #[test]
    fn alternating_pattern_warms_on_beat() {
        // Present every 2nd phase at count 4, last seen one phase ago:
        // modal gap 2 = since_last(1) + 1 → warm 4.
        let series: Vec<f64> = (0..16)
            .map(|i| if i % 2 == 0 { 4.0 } else { 0.0 })
            .collect();
        let f = histogram_forecast(&series).expect("representative");
        assert!((f - 4.0).abs() < 1e-9, "forecast {f}");
        // Shifted by one (last seen in the most recent phase): off-beat,
        // nothing warmed.
        let mut shifted = series;
        shifted.push(4.0);
        let f = histogram_forecast(&shifted).expect("representative");
        assert_eq!(f, 0.0);
    }

    #[test]
    fn streak_break_stops_warming() {
        // A 1-gap streak that ended 3 phases ago: since_last + 1 = 4 ≠ 1
        // → the keep-alive window has closed.
        let mut series = vec![3.0; 8];
        series.extend([0.0, 0.0, 0.0]);
        assert_eq!(histogram_forecast(&series), Some(0.0));
    }

    #[test]
    fn dispersed_gaps_defer_to_arima() {
        // Erratic gaps (1, 1, 18, 1, 2): CV > 1 → unrepresentative.
        let mut series = vec![0.0; 24];
        for idx in [0usize, 1, 2, 20, 21, 23] {
            series[idx] = 2.0;
        }
        assert!(histogram_forecast(&series).is_none());
    }

    #[test]
    fn short_or_empty_series_defer() {
        assert!(histogram_forecast(&[5.0, 5.0]).is_none());
        assert_eq!(histogram_forecast(&[0.0; 8]), Some(0.0));
        // Too few gaps for a histogram → ARIMA.
        let series = [0.0, 5.0, 0.0, 0.0, 5.0, 0.0];
        assert!(histogram_forecast(&series).is_none());
    }
}
