//! `des_replay`: Cosmoscout-VR at paper scale under DayDream on the DES
//! executor — one reused `DesSession`, no faults, no recorder, one
//! thread. An operation is one simulated run.

use crate::pass::{PassArgs, PassOut, Size};
use crate::runs::{ledger_conserves, run_des, RunStats};
use crate::trace::{Off, Probe, Tracer};
use crate::util::{debug_digest, mean, median, peak_rss_mb, ratio};
use daydream_core::DayDreamPolicy;
use dd_platform::{
    counters, BuiltScheduler, CloudVendor, DesFaasExecutor, DesSession, Executor, FaasConfig,
    FaasExecutor, PolicyContext, RunOutcome, RunRequest, SchedulerPolicy,
};
use dd_stats::SeedStream;
use dd_wfdag::{RunGenerator, Workflow, WorkflowSpec};
use std::time::Instant;

/// Index of the training run (outside the replayed range), as in the
/// paper evaluation.
const TRAINING_RUN: usize = 1_000;

pub fn runs(size: Size) -> usize {
    match size {
        Size::Paper => 50,
        Size::Smoke => 3,
    }
}

struct Setup {
    gen: RunGenerator,
    policy: DayDreamPolicy,
    config: FaasConfig,
}

fn setup<P: Probe>(a: &PassArgs, probe: &mut P) -> Setup {
    let scale = match a.size {
        Size::Paper => 1,
        Size::Smoke => 20,
    };
    let gen = RunGenerator::new(
        WorkflowSpec::new(Workflow::CosmoscoutVr).scaled_down(scale),
        a.seed,
    );
    let id = probe.open("wfdag.generate", Some(TRAINING_RUN as u64));
    let training = gen.generate(TRAINING_RUN);
    probe.close(id);
    let mut policy = DayDreamPolicy::new();
    let id = probe.open("learn.prepare", None);
    policy.prepare(&training);
    probe.close(id);
    Setup {
        gen,
        policy,
        config: FaasConfig {
            vendor: CloudVendor::Aws,
            ..FaasConfig::default()
        },
    }
}

fn context<'a>(a: &PassArgs, s: &'a Setup, run: &'a dd_wfdag::WorkflowRun) -> PolicyContext<'a> {
    PolicyContext {
        run,
        runtimes: &s.gen.spec().runtimes,
        vendor: s.config.vendor,
        seeds: SeedStream::new(a.seed)
            .derive("scheduler")
            .derive_index(run.label.run_index as u64),
    }
}

pub fn setup_only(a: &PassArgs) -> f64 {
    let t = Instant::now();
    setup(a, &mut Off);
    t.elapsed().as_secs_f64()
}

/// The timed replay: generate, build and execute every run in order.
fn replay<P: Probe>(
    a: &PassArgs,
    s: &Setup,
    probe: &mut P,
    stats: &mut RunStats,
) -> Vec<RunOutcome> {
    let executor = DesFaasExecutor::new(s.config);
    let mut session = DesSession::new();
    let runtimes = &s.gen.spec().runtimes;
    (0..runs(a.size))
        .map(|i| {
            let req = Some(i as u64);
            let id = probe.open("wfdag.generate", req);
            let run = s.gen.generate(i);
            probe.close(id);
            let id = probe.open("sched.build", req);
            let built = s.policy.build(&context(a, s, &run));
            probe.close(id);
            let BuiltScheduler::Serverless(mut scheduler) = built else {
                panic!("DayDream builds a serverless scheduler");
            };
            let outcome = run_des(
                probe,
                &executor,
                &mut session,
                &run,
                runtimes,
                scheduler.as_mut(),
                i as u64,
            )
            .into_outcome();
            stats.absorb(&outcome, run.total_components());
            outcome
        })
        .collect()
}

pub fn pass(a: &PassArgs, traced: bool) -> PassOut {
    let mut tracer = Tracer::new();
    let s = if traced {
        setup(a, &mut tracer)
    } else {
        setup(a, &mut Off)
    };

    let mut stats = RunStats::default();
    let from = tracer.now();
    let before = counters::snapshot();
    let t = Instant::now();
    let outcomes = if traced {
        replay(a, &s, &mut tracer, &mut stats)
    } else {
        replay(a, &s, &mut Off, &mut stats)
    };
    let wall_s = t.elapsed().as_secs_f64();
    let delta = counters::snapshot().since(before);

    let service: Vec<f64> = outcomes.iter().map(|o| o.service_time_secs).collect();
    let cost: Vec<f64> = outcomes.iter().map(RunOutcome::service_cost).collect();
    let sla = 1.5 * median(&service);
    let mut out = PassOut {
        wall_s,
        starts: delta.component_starts,
        rss_mb: peak_rss_mb(),
        ops: outcomes.len() as u64,
        sim_service_s: mean(&service),
        sim_cost_usd: mean(&cost),
        sla_attain: ratio(
            service.iter().filter(|&&x| x <= sla).count() as f64,
            service.len() as f64,
            0.0,
        ),
        ..PassOut::default()
    };
    for (i, o) in outcomes.iter().enumerate() {
        out.digest(format!("run{i}"), debug_digest(o));
        if let Err(why) = ledger_conserves(o) {
            out.fail(format!("run{i}"), why);
        }
    }
    // One run per pass, outside the timed region, must agree bit for bit
    // with the analytic executor.
    let k = a.index % outcomes.len();
    let run = s.gen.generate(k);
    if let BuiltScheduler::Serverless(mut scheduler) = s.policy.build(&context(a, &s, &run)) {
        let analytic = FaasExecutor::new(s.config)
            .run(RunRequest::new(
                &run,
                &s.gen.spec().runtimes,
                scheduler.as_mut(),
            ))
            .into_outcome();
        if debug_digest(&analytic) != debug_digest(&outcomes[k]) {
            out.fail(format!("run{k}"), "DES and analytic executors disagree");
        }
    }
    if a.tamper {
        out.tamper();
    }
    if traced {
        crate::runs::layers(&mut out, &tracer, &stats, delta.des_events, from);
        crate::write_spans("des_replay", a.seed, &tracer);
    }
    out
}
