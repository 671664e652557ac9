//! What `des_replay` and `serve` share: per-run checks, run counters,
//! and the execution-layer metrics of a traced pass.

use crate::pass::PassOut;
use crate::trace::{Probe, SchedTimes, TimedScheduler, Tracer};
use crate::util::{quantile, ratio};
use dd_platform::{
    CostLedger, DesFaasExecutor, DesSession, RunOutcome, RunReport, RunRequest, ServerlessScheduler,
};
use dd_wfdag::{LanguageRuntime, WorkflowRun};

/// Runs one request on the DES executor, through [`TimedScheduler`]
/// (inside an `exec.run` span) when the probe records.
pub fn run_des<P: Probe>(
    probe: &mut P,
    executor: &DesFaasExecutor,
    session: &mut DesSession,
    run: &WorkflowRun,
    runtimes: &[LanguageRuntime],
    scheduler: &mut dyn ServerlessScheduler,
    req: u64,
) -> RunReport {
    if !P::ON {
        return executor.run_with(session, RunRequest::new(run, runtimes, scheduler));
    }
    let id = probe.open("exec.run", Some(req));
    let mut timed = TimedScheduler::new(scheduler);
    let report = executor.run_with(session, RunRequest::new(run, runtimes, &mut timed));
    probe.close(id);
    timed.times.add_to(probe);
    report
}

/// Checks that a run's ledger conserves money: every component finite
/// and non-negative, and each component equal to the sum of its per-phase
/// attributions (storage is billed once per run, so phases carry none).
pub fn ledger_conserves(o: &RunOutcome) -> Result<(), String> {
    let parts = |l: &CostLedger| {
        [
            ("execution", l.execution),
            ("keep_alive_used", l.keep_alive_used),
            ("keep_alive_wasted", l.keep_alive_wasted),
            ("storage", l.storage),
            ("retry", l.retry),
        ]
    };
    let run = parts(&o.ledger);
    for (name, v) in run {
        if !(v.is_finite() && v >= 0.0) {
            return Err(format!("ledger {name} is {v}"));
        }
    }
    let mut phases = [0.0; 5];
    for p in &o.phases {
        for (sum, (_, v)) in phases.iter_mut().zip(parts(&p.ledger)) {
            *sum += v;
        }
    }
    phases[3] = o.ledger.storage;
    for ((name, v), sum) in run.iter().zip(phases) {
        if (v - sum).abs() > 1e-9 * v.abs().max(1.0) {
            return Err(format!("ledger {name} is {v}, its phases sum to {sum}"));
        }
    }
    if o.phases.iter().any(|p| p.ledger.storage != 0.0) {
        return Err("a phase carries storage cost".to_string());
    }
    Ok(())
}

/// Counts over the runs of a pass.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunStats {
    pub runs: u64,
    pub components: u64,
    pub hot: u64,
    pub warm: u64,
    pub cold: u64,
    pub attempts: u64,
    pub retried: u64,
    pub spec_copies: u64,
}

impl RunStats {
    pub fn absorb(&mut self, o: &RunOutcome, components: usize) {
        let (warm, hot, cold) = o.start_counts();
        self.runs += 1;
        self.components += components as u64;
        self.hot += hot;
        self.warm += warm;
        self.cold += cold;
        self.attempts += o.faults.total_attempts;
        self.retried += o.faults.retried_components;
        self.spec_copies += o.faults.speculative_copies;
    }

    pub fn merge(&mut self, o: &RunStats) {
        self.runs += o.runs;
        self.components += o.components;
        self.hot += o.hot;
        self.warm += o.warm;
        self.cold += o.cold;
        self.attempts += o.attempts;
        self.retried += o.retried;
        self.spec_copies += o.spec_copies;
    }
}

/// The generation, learning, scheduling, execution and fault layers of a
/// traced pass, plus how much of the timed region the top-level spans
/// cover.
pub fn layers(out: &mut PassOut, tr: &Tracer, stats: &RunStats, des_events: u64, timed_from: f64) {
    let sched = SchedTimes {
        initial_pool: tr.total("sched.initial_pool_s"),
        pool_next: tr.total("sched.pool_next_s"),
        place: tr.total("sched.place_s"),
        observe: tr.total("sched.observe_s"),
        calls: tr.total("sched.calls") as u64,
    };
    let exec_s = tr.span_secs("exec.run");
    let runs_ms: Vec<f64> = tr.durations("exec.run").iter().map(|s| s * 1e3).collect();
    let starts = stats.hot + stats.warm + stats.cold;
    let gen = tr.durations("wfdag.generate");
    for (name, v) in [
        ("wfdag.generate_s", gen.iter().sum()),
        ("wfdag.generate_calls", gen.len() as f64),
        ("wfdag.components", stats.components as f64),
        ("learn.prepare_s", tr.span_secs("learn.prepare")),
        (
            "learn.prepare_calls",
            tr.durations("learn.prepare").len() as f64,
        ),
        ("sched.build_s", tr.span_secs("sched.build")),
        ("sched.initial_pool_s", sched.initial_pool),
        ("sched.pool_next_s", sched.pool_next),
        ("sched.place_s", sched.place),
        ("sched.observe_s", sched.observe),
        ("sched.calls", sched.calls as f64),
        ("exec.self_s", exec_s - sched.total()),
        ("exec.runs", stats.runs as f64),
        ("exec.component_starts", starts as f64),
        ("exec.des_events", des_events as f64),
        ("exec.events_per_s", ratio(des_events as f64, exec_s, 0.0)),
        ("exec.run_p50_ms", quantile(&runs_ms, 0.5)),
        ("exec.run_p90_ms", quantile(&runs_ms, 0.9)),
        ("exec.starts_hot", stats.hot as f64),
        ("exec.starts_warm", stats.warm as f64),
        ("exec.starts_cold", stats.cold as f64),
        ("exec.hot_frac", ratio(stats.hot as f64, starts as f64, 0.0)),
        ("faults.attempts", stats.attempts as f64),
        ("faults.retried", stats.retried as f64),
        ("faults.spec_copies", stats.spec_copies as f64),
        (
            "faults.useful_ratio",
            ratio(stats.components as f64, stats.attempts as f64, 1.0),
        ),
    ] {
        out.layer(name, v);
    }
    let covered = tr.top_level_secs(timed_from);
    out.layer("trace.coverage", ratio(covered, out.wall_s, 0.0));
    out.layer("trace.other_s", out.wall_s - covered);
}
