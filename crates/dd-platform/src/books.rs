//! The execution core both executors drive.
//!
//! The platform semantics (Sec. IV) — place each component on the pool or
//! cold start it, run it, store its output, request the next phase's pool
//! at the trigger, close the phase — are written once here: placement
//! resolution, fault timelines, invocation slots, ledger and utilization
//! charges, trace and recorder emission, pool spawning and closing, and
//! the phase records. [`crate::faas::FaasExecutor`] and
//! [`crate::faas_des::DesFaasExecutor`] differ only in how virtual time
//! advances, so a semantics fix lands once for both.

use crate::des::SimTime;
use crate::executor::{self as obs, ComponentObs, RunReport, RunRequest};
use crate::faas::FaasConfig;
use crate::faults::{FaultPlan, FaultStats};
use crate::pool::{resolve_slot, InstanceId, InstanceView, PoolRequest, PooledInstance};
use crate::pricing::PriceSheet;
use crate::sched::{
    observe_phase, PhaseObservation, RunInfo, ServerlessScheduler, StartKind, StorageHints,
};
use crate::startup::StartupModel;
use crate::telemetry::{CostLedger, PhaseRecord, RunOutcome, Utilization};
use crate::tier::Tier;
use crate::trace::{AttemptTrace, ComponentTrace, ExecutionTrace, PoolTrace};
use dd_obs::Recorder;
use dd_wfdag::{LanguageRuntime, WorkflowRun};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// The platform both executors simulate: pricing, start-up model and
/// configuration.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Platform {
    pub(crate) pricing: PriceSheet,
    pub(crate) startup: StartupModel,
    pub(crate) config: FaasConfig,
}

impl Platform {
    /// Calibrated pricing and start-up models for the configured vendor.
    pub(crate) fn new(config: FaasConfig) -> Self {
        Self {
            pricing: PriceSheet::for_vendor(config.vendor),
            startup: StartupModel::aws().with_vendor_multiplier(config.vendor.startup_multiplier()),
            config,
        }
    }
}

/// Per-phase buffers, reused across phases (and, in a
/// [`crate::faas_des::DesSession`], across runs).
#[derive(Debug, Default)]
pub(crate) struct PhaseScratch {
    /// The pool the current phase places on.
    pool: Vec<PooledInstance>,
    /// The pool being prepared for the next phase; swapped in (never
    /// freed) at phase start.
    pending: Vec<PooledInstance>,
    used: Vec<bool>,
    views: Vec<InstanceView>,
    /// Invocation slots: finish instants of the executions running now.
    slots: BinaryHeap<Reverse<SimTime>>,
}

/// One phase's start counts, charges and snapshots, filled at dispatch
/// and read at the pool trigger and when the phase closes.
#[derive(Debug, Default)]
pub(crate) struct PhaseTally {
    phase: usize,
    warm: u32,
    hot: u32,
    cold: u32,
    wasted: u32,
    pool_size: u32,
    retried: u32,
    overhead_sum: f64,
    started_at: SimTime,
    // Run-book snapshots at phase start; the per-phase books are the
    // growth since, so the run totals keep one float-addition order.
    ledger_mark: CostLedger,
    faults_mark: FaultStats,
    // Built once (at the pool trigger) and reused at phase end: its
    // contents are final once the phase is dispatched.
    observation: Option<PhaseObservation>,
}

/// The books of one run: everything the executors account, trace and
/// emit, plus the request's scheduler and recorder.
pub(crate) struct RunBooks<'a> {
    pub(crate) run: &'a WorkflowRun,
    runtimes: &'a [LanguageRuntime],
    scheduler: &'a mut dyn ServerlessScheduler,
    /// `None` when no recorder is attached or it is disabled.
    rec: Option<&'a mut dyn Recorder>,
    platform: Platform,
    plan: FaultPlan,
    hints: StorageHints,
    trace: Option<ExecutionTrace>,
    ledger: CostLedger,
    utilization: Utilization,
    fault_stats: FaultStats,
    records: Vec<PhaseRecord>,
    next_instance_id: u64,
}

impl<'a> RunBooks<'a> {
    /// Opens the books for `req` and spawns the phase-0 pool (requested
    /// at t = 0) into `scratch`. Panics if a phase has no components: no
    /// output would ever close it.
    pub(crate) fn open(
        platform: Platform,
        req: RunRequest<'a>,
        scratch: &mut PhaseScratch,
    ) -> Self {
        let (run, scheduler) = (req.run, req.scheduler);
        for (i, p) in run.phases.iter().enumerate() {
            dd_invariant!(!p.components.is_empty(), "phase {i} has no components");
        }
        let mut rec = req.recorder.filter(|r| r.enabled());
        if let Some(r) = rec.as_deref_mut() {
            obs::declare_metrics(r);
        }
        scheduler.set_event_recording(rec.is_some());
        // One fault plan per run: the run index is mixed into the seed so
        // different runs of a sweep see different fault placements.
        let cfg = platform.config;
        let plan = FaultPlan::for_run(
            cfg.faults.absorbing_startup(&platform.startup),
            cfg.recovery,
            run.label.run_index as u64,
        );
        // Storage hints are sampled once per run; zero fractions keep the
        // arithmetic byte-identical to the hint-less path.
        let hints = scheduler.storage_hints().clamped();
        let info = RunInfo {
            workflow: run.label.workflow,
            runtimes: req.runtimes.to_vec(),
            phase_count: run.phases.len(),
        };
        let mut books = Self {
            run,
            runtimes: req.runtimes,
            scheduler,
            rec,
            platform,
            plan,
            hints,
            trace: req.collect_trace.then(ExecutionTrace::default),
            ledger: CostLedger::default(),
            utilization: Utilization::default(),
            fault_stats: FaultStats::default(),
            records: Vec::with_capacity(run.phases.len()),
            next_instance_id: 0,
        };
        scratch.pending.clear();
        let request = books.scheduler.initial_pool(&info);
        books.spawn(&request, SimTime::ZERO, 0, &mut scratch.pending);
        books
    }

    /// Starts `phase` after the scheduler's decision overhead from
    /// `decided_at`: swaps in the pending pool, places and dispatches
    /// every component (`on_finish` gets each output-arrival instant, in
    /// slot order) and terminates the unused pool (Algorithm 1, line 11).
    /// Panics on malformed placements: wrong count, an unknown or reused
    /// instance id, or a warm instance paired with another type.
    pub(crate) fn start_phase(
        &mut self,
        phase: usize,
        decided_at: SimTime,
        scratch: &mut PhaseScratch,
        mut on_finish: impl FnMut(SimTime),
    ) -> PhaseTally {
        let run = self.run;
        let components = &run.phases[phase].components;
        let decision_secs = self.scheduler.overhead_secs();
        let now = decided_at.after(decision_secs);
        if let Some(t) = self.trace.as_mut() {
            t.phase_starts.push(now);
        }
        let PhaseScratch {
            pool,
            pending,
            used,
            views,
            slots,
        } = scratch;
        std::mem::swap(pool, pending);
        pending.clear();
        views.clear();
        views.extend(pool.iter().map(InstanceView::from));
        let placements = self.scheduler.place(&run.phases[phase], views, now);
        if let Some(rec) = self.rec.as_deref_mut() {
            obs::emit_place(rec, phase, decided_at, decision_secs, components.len());
            obs::emit_sched_events(rec, now, self.scheduler);
        }
        dd_invariant!(
            placements.len() == components.len(),
            "scheduler '{}' returned {} placements for {} components",
            self.scheduler.name(),
            placements.len(),
            components.len()
        );

        let mut tally = PhaseTally {
            phase,
            pool_size: pool.len() as u32,
            started_at: now,
            ledger_mark: self.ledger,
            faults_mark: self.fault_stats,
            ..PhaseTally::default()
        };
        used.clear();
        used.resize(pool.len(), false);
        slots.clear();
        let (pricing, startup) = (&self.platform.pricing, &self.platform.startup);
        for (slot, (component, placement)) in components.iter().zip(&placements).enumerate() {
            let (tier, kind, start, pool_slot) = match placement.instance {
                Some(id) => {
                    let idx = resolve_slot(pool, id);
                    dd_invariant!(!used[idx], "instance {id} placed twice in one phase");
                    used[idx] = true;
                    let inst = &pool[idx];
                    let kind = match inst.preload {
                        None => StartKind::Hot,
                        Some(ty) => {
                            dd_invariant!(
                                ty == component.type_id,
                                "warm instance {id} preloaded with {ty} used for {}",
                                component.type_id
                            );
                            StartKind::Warm
                        }
                    };
                    (inst.tier, kind, now.max(inst.ready_at), Some(idx))
                }
                None => (placement.tier, StartKind::Cold, now, None),
            };
            let overhead = match kind {
                StartKind::Warm => startup.warm_overhead_secs(component, tier),
                StartKind::Hot => startup.hot_overhead_secs(component, tier),
                StartKind::Cold => startup.cold_overhead_secs(component, tier, self.runtimes),
            };
            match kind {
                StartKind::Warm => tally.warm += 1,
                StartKind::Hot => tally.hot += 1,
                StartKind::Cold => tally.cold += 1,
            }

            // Fault engine: resolve this component's attempt timeline
            // (stragglers, failures, retries, speculation). A strict
            // arithmetic no-op when every rate is zero.
            let exec = tier.exec_secs(component) * startup.exec_multiplier(kind == StartKind::Cold);
            let mut write = startup.output_write_secs(component, tier);
            if self.hints.batched_write_fraction > 0.0 {
                // Wukong-style batched writes elide part of every write leg.
                write *= 1.0 - self.hints.batched_write_fraction;
            }
            let timeline = self.plan.timeline(phase, slot, overhead, exec, write);
            // Drain finished executions so the heap tracks the set
            // *currently running* instead of growing all phase long.
            let mut heap_drains = 0u64;
            while slots.peek().is_some_and(|&Reverse(free)| free <= start) {
                slots.pop();
                heap_drains += 1;
            }
            // At the invocation limit, wait for the earliest finish (wave
            // scheduling, in placement order).
            let start = if slots.len() >= self.platform.config.invocation_limit {
                // dd-lint: allow(hot-path-panic): len() >= limit >= 1 guarantees a poppable slot on this branch
                let Reverse(free) = slots.pop().expect("at limit");
                start.max(free)
            } else {
                start
            };
            // Keep-alive: from request until the component actually
            // begins (slot waits included), at the instance's rate.
            let keep_alive_secs = pool_slot.map(|idx| {
                let inst = &pool[idx];
                let idle = start.since(inst.requested_at);
                self.ledger.keep_alive_used += pricing.cost(inst.tier, idle);
                self.utilization.record_idle(inst.tier, idle);
                idle
            });
            let finish = start.after(timeline.completion_offset_secs);
            // Recovery may only push a completion later, never rewind it.
            dd_invariant!(
                finish >= start,
                "phase {phase} slot {slot}: recovery rewound completion to {finish} before start {start}"
            );
            slots.push(Reverse(finish));
            if let Some(t) = self.trace.as_mut() {
                t.components.push(ComponentTrace {
                    phase,
                    slot,
                    kind,
                    tier,
                    instance: placement.instance,
                    start,
                    overhead_secs: timeline.overhead_secs,
                    exec_secs: exec,
                    write_secs: write,
                    attempts: timeline.attempt_count(),
                    recovery_secs: timeline.recovery_secs,
                });
                t.attempts
                    .extend(timeline.attempts.iter().map(|a| AttemptTrace {
                        phase,
                        slot,
                        attempt: a.index,
                        speculative: a.speculative,
                        fault: a.fault,
                        outcome: a.outcome,
                        start: start.after(a.start_offset_secs),
                        busy_secs: a.busy_secs,
                    }));
            }
            if let Some(rec) = self.rec.as_deref_mut() {
                let c = ComponentObs {
                    phase,
                    slot,
                    kind,
                    tier,
                    start,
                    timeline: &timeline,
                    keep_alive_secs,
                    heap_drains,
                };
                obs::emit_component(rec, &c);
            }
            let billed = start.after(timeline.primary_busy_secs).since(start);
            self.ledger.execution += pricing.cost(tier, billed);
            // Instance-seconds burned on losing attempts bill to the
            // separate retry component (billed-but-unused capacity).
            if timeline.retry_busy_secs > 0.0 {
                self.ledger.retry += pricing.cost(tier, timeline.retry_busy_secs);
                self.utilization.record_idle(tier, timeline.retry_busy_secs);
            }
            tally.retried += u32::from(timeline.retried());
            if !self.plan.is_clean() {
                self.fault_stats.absorb(&timeline);
            }
            tally.overhead_sum += timeline.overhead_secs;
            self.utilization.record_execution(
                tier,
                exec,
                billed,
                component.cpu_demand * Tier::HighEnd.vcpus(),
                component.mem_gb,
                startup.data_fetch_secs(component, tier) + write,
            );
            on_finish(finish);
        }

        // Unused pool instances are terminated now; their whole lifetime
        // was wasted keep-alive.
        for (inst, &was_used) in pool.iter().zip(used.iter()) {
            if !was_used {
                let idle = now.since(inst.requested_at);
                tally.wasted += 1;
                self.ledger.keep_alive_wasted += pricing.cost(inst.tier, idle);
                self.utilization.record_idle(inst.tier, idle);
                if let Some(rec) = self.rec.as_deref_mut() {
                    rec.record(obs::metrics::KEEP_ALIVE_WASTED_SECS, idle);
                }
            }
            if let Some(t) = self.trace.as_mut() {
                t.pool.push(PoolTrace {
                    instance: inst.id,
                    tier: inst.tier,
                    warm: inst.preload.is_some(),
                    requested_at: inst.requested_at,
                    ready_at: inst.ready_at,
                    used: was_used,
                    released_at: now.max(inst.ready_at),
                });
            }
        }
        tally
    }

    /// The pool trigger fired at `at`: requests the next phase's pool
    /// into `scratch` (a no-op after the last phase).
    pub(crate) fn trigger(
        &mut self,
        tally: &mut PhaseTally,
        at: SimTime,
        scratch: &mut PhaseScratch,
    ) {
        let phase = tally.phase;
        if phase + 1 < self.run.phases.len() {
            let observation = self.observe(tally);
            let request = self.scheduler.pool_for_next_phase(phase, observation);
            self.spawn(&request, at, phase + 1, &mut scratch.pending);
        }
    }

    /// Closes the phase at `end`, its last output arrival: hands the
    /// observation to the scheduler and books the phase record.
    pub(crate) fn finish_phase(&mut self, tally: &mut PhaseTally, end: SimTime) {
        let phase = tally.phase;
        let concurrency = self.run.phases[phase].concurrency();
        let used = tally.warm + tally.hot;
        // Pool hot/cold accounting must close exactly: every component
        // started once, and every pooled instance was used or wasted.
        dd_debug_invariant!(
            used + tally.cold == concurrency,
            "phase {phase} start-kind accounting: {}+{}+{} != {concurrency} components",
            tally.warm,
            tally.hot,
            tally.cold
        );
        dd_debug_invariant!(
            used + tally.wasted == tally.pool_size,
            "phase {phase} pool accounting: used {used} + wasted {} != pool {}",
            tally.wasted,
            tally.pool_size
        );
        let record = PhaseRecord {
            index: phase,
            concurrency,
            pool_size: tally.pool_size,
            warm_starts: tally.warm,
            hot_starts: tally.hot,
            cold_starts: tally.cold,
            used_instances: used,
            wasted_instances: tally.wasted,
            exec_secs: end.since(tally.started_at),
            mean_start_overhead_secs: tally.overhead_sum / concurrency.max(1) as f64,
            ledger: self.ledger.delta_since(&tally.ledger_mark),
            faults: self.fault_stats.delta_since(&tally.faults_mark),
        };
        let observation = self.observe(tally);
        self.scheduler.observe_phase(observation);
        if let Some(rec) = self.rec.as_deref_mut() {
            obs::emit_observe(rec, end, observation);
            obs::emit_sched_events(rec, end, self.scheduler);
            obs::emit_phase(rec, tally.started_at, &record);
        }
        self.records.push(record);
        if let Some(t) = self.trace.as_mut() {
            t.phase_ends.push(end);
        }
    }

    /// Closes the run at `end`: bills storage for its whole duration and
    /// assembles the report.
    pub(crate) fn close(self, end: SimTime) -> RunReport {
        let mut ledger = self.ledger;
        ledger.storage = self.platform.pricing.storage_per_sec * end.as_secs();
        if self.hints.colocated_read_fraction > 0.0 {
            // Affinity co-location (ICPS-style hints) serves part of the
            // traffic without touching the back end; it is not billed.
            ledger.storage *= 1.0 - self.hints.colocated_read_fraction;
        }
        ledger.debug_validate();
        if let Some(rec) = self.rec {
            rec.set(obs::metrics::SERVICE_TIME_SECS, end.as_secs());
        }
        // Every component of every phase started exactly once.
        crate::counters::add_component_starts(self.run.total_components() as u64);
        RunReport {
            outcome: RunOutcome {
                // dd-lint: allow(hot-path-alloc): one String per completed run, outside the event loop
                scheduler: self.scheduler.name().to_string(),
                service_time_secs: end.as_secs(),
                ledger,
                phases: self.records,
                utilization: self.utilization,
                faults: self.fault_stats,
            },
            trace: self.trace,
        }
    }

    /// What the scheduler learns about the phase, built on first use.
    fn observe<'t>(&self, tally: &'t mut PhaseTally) -> &'t PhaseObservation {
        let (threshold, retried) = (self.platform.config.friendly_threshold, tally.retried);
        tally.observation.get_or_insert_with(|| PhaseObservation {
            retried_components: retried,
            ..observe_phase(&self.run.phases[tally.phase], threshold)
        })
    }

    /// Materializes a pool request into `out`: caps it at provisioned
    /// concurrency, stamps each instance's background-preparation
    /// completion, and emits the `pool_preboot` span for `phase`.
    fn spawn(
        &mut self,
        request: &PoolRequest,
        requested_at: SimTime,
        phase: usize,
        out: &mut Vec<PooledInstance>,
    ) {
        let startup = &self.platform.startup;
        let next_id = &mut self.next_instance_id;
        let cap = self.platform.config.provisioned_concurrency;
        out.extend(request.entries.iter().take(cap).map(|entry| {
            let prepare = match entry.preload {
                None => startup.hot_prepare_secs(self.runtimes),
                Some(_) => startup.warm_prepare_secs(self.runtimes),
            };
            let id = InstanceId(*next_id);
            *next_id += 1;
            PooledInstance {
                id,
                tier: entry.tier,
                preload: entry.preload,
                requested_at,
                ready_at: requested_at.after(prepare),
            }
        }));
        if let Some(rec) = self.rec.as_deref_mut() {
            obs::emit_sched_events(rec, requested_at, self.scheduler);
            obs::emit_pool(rec, phase, requested_at, out);
        }
    }
}
