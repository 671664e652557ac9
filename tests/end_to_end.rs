//! Cross-crate integration tests: generator → platform → schedulers →
//! metrics, exercised end to end.

// Exact float equality below asserts bit-reproducibility (determinism contract).
#![allow(clippy::float_cmp)]

use daydream::baselines::NaiveScheduler;
use daydream::core::{DayDreamConfig, DayDreamHistory, DayDreamScheduler};
use daydream::platform::{FaasConfig, FaasExecutor, PoolTrigger, RunOutcome};
use daydream::stats::SeedStream;
use daydream::wfdag::{RunGenerator, Workflow, WorkflowRun, WorkflowSpec};
use dd_platform::{
    run_policy, BuiltScheduler, CloudVendor, Executor, PolicyContext, RunRequest, Substrate,
};

fn setup(wf: Workflow, scale: usize) -> (RunGenerator, Vec<daydream::wfdag::LanguageRuntime>) {
    let spec = WorkflowSpec::new(wf).scaled_down(scale);
    let runtimes = spec.runtimes.clone();
    (RunGenerator::new(spec, 77), runtimes)
}

/// Builds the named registry policy's scheduler for one run (serverless
/// policies only).
fn policy_scheduler(
    name: &str,
    gen: &RunGenerator,
    run: &WorkflowRun,
    seed: u64,
) -> Box<dyn daydream::platform::ServerlessScheduler + Send> {
    let mut policy = daydream::baselines::registry()
        .create(name)
        .expect("registered policy");
    policy.prepare(&gen.generate(1_000));
    match policy.build(&PolicyContext {
        run,
        runtimes: &gen.spec().runtimes,
        vendor: CloudVendor::Aws,
        seeds: SeedStream::new(seed),
    }) {
        BuiltScheduler::Serverless(s) => s,
        BuiltScheduler::Cluster(_) => panic!("{name} is a cluster policy"),
    }
}

fn history_for(gen: &RunGenerator) -> DayDreamHistory {
    let mut h = DayDreamHistory::new();
    h.learn_from_run(&gen.generate(1_000), 0.20, 24);
    h
}

fn daydream_outcome(run: &WorkflowRun, gen: &RunGenerator, seed: u64) -> RunOutcome {
    let history = history_for(gen);
    let mut sched = DayDreamScheduler::aws(&history, SeedStream::new(seed));
    FaasExecutor::aws()
        .run(RunRequest::new(run, &gen.spec().runtimes, &mut sched))
        .into_outcome()
}

#[test]
fn full_pipeline_is_deterministic() {
    let (gen, _) = setup(Workflow::Ccl, 8);
    let run = gen.generate(0);
    let a = daydream_outcome(&run, &gen, 5);
    let b = daydream_outcome(&run, &gen, 5);
    assert_eq!(a.service_time_secs, b.service_time_secs);
    assert_eq!(a.ledger, b.ledger);
    assert_eq!(a.phases, b.phases);
}

#[test]
fn different_seeds_differ_only_in_prediction() {
    // The run is fixed; only DayDream's sampling changes with the seed.
    let (gen, _) = setup(Workflow::Ccl, 8);
    let run = gen.generate(0);
    let a = daydream_outcome(&run, &gen, 1);
    let b = daydream_outcome(&run, &gen, 2);
    // Times differ a little (different pool sizes), but both complete all
    // phases with the same concurrency profile.
    assert_eq!(a.phases.len(), b.phases.len());
    for (pa, pb) in a.phases.iter().zip(&b.phases) {
        assert_eq!(pa.concurrency, pb.concurrency);
    }
}

#[test]
fn headline_ordering_all_workflows() {
    // The paper's core claim, one run per workflow: Oracle ≤ DayDream <
    // Wild < Pegasus on time, and DayDream cheapest of the feasible
    // schedulers.
    for wf in Workflow::ALL {
        let (gen, runtimes) = setup(wf, 12);
        let run = gen.generate(1);
        let mut exec = FaasExecutor::aws();

        let mut oracle = policy_scheduler("oracle", &gen, &run, 0);
        let o = exec
            .run(RunRequest::new(&run, &runtimes, oracle.as_mut()))
            .into_outcome();
        let d = daydream_outcome(&run, &gen, 3);
        let mut wild = policy_scheduler("wild", &gen, &run, 0);
        let w = exec
            .run(RunRequest::new(&run, &runtimes, wild.as_mut()))
            .into_outcome();
        let pegasus = daydream::baselines::registry()
            .create("pegasus")
            .expect("registered policy");
        let ctx = PolicyContext {
            run: &run,
            runtimes: &runtimes,
            vendor: CloudVendor::Aws,
            seeds: SeedStream::new(0),
        };
        let on = Substrate::Analytic(&mut exec);
        let p = run_policy(pegasus.as_ref(), &ctx, on, None, false).into_outcome();

        assert!(
            o.service_time_secs <= d.service_time_secs * 1.02,
            "{wf}: oracle {:.1} vs daydream {:.1}",
            o.service_time_secs,
            d.service_time_secs
        );
        assert!(
            d.service_time_secs < w.service_time_secs,
            "{wf}: daydream {:.1} vs wild {:.1}",
            d.service_time_secs,
            w.service_time_secs
        );
        assert!(
            w.service_time_secs < p.service_time_secs,
            "{wf}: wild {:.1} vs pegasus {:.1}",
            w.service_time_secs,
            p.service_time_secs
        );
        assert!(d.service_cost() < w.service_cost(), "{wf}: cost vs wild");
        assert!(d.service_cost() < p.service_cost(), "{wf}: cost vs pegasus");
    }
}

#[test]
fn naive_is_upper_bound_for_daydream() {
    let (gen, runtimes) = setup(Workflow::ExaFel, 12);
    let run = gen.generate(2);
    let naive = FaasExecutor::aws()
        .run(RunRequest::new(&run, &runtimes, &mut NaiveScheduler))
        .into_outcome();
    let dd = daydream_outcome(&run, &gen, 4);
    assert!(dd.service_time_secs < naive.service_time_secs);
}

#[test]
fn cost_ledger_components_are_consistent() {
    let (gen, _) = setup(Workflow::Ccl, 10);
    let run = gen.generate(0);
    let outcome = daydream_outcome(&run, &gen, 6);
    let l = outcome.ledger;
    assert!(l.execution > 0.0);
    assert!(l.storage > 0.0);
    assert!(l.keep_alive_used >= 0.0);
    assert!(l.keep_alive_wasted >= 0.0);
    let total = l.execution + l.keep_alive_used + l.keep_alive_wasted + l.storage;
    assert!((outcome.service_cost() - total).abs() < 1e-12);
}

#[test]
fn start_counts_cover_every_component() {
    let (gen, _) = setup(Workflow::Ccl, 10);
    let run = gen.generate(3);
    let outcome = daydream_outcome(&run, &gen, 8);
    let (w, h, c) = outcome.start_counts();
    assert_eq!((w + h + c) as usize, run.total_components());
}

#[test]
fn phase_end_trigger_never_faster() {
    let (gen, runtimes) = setup(Workflow::Ccl, 10);
    let run = gen.generate(4);
    let history = history_for(&gen);

    let half = FaasExecutor::new(FaasConfig::default())
        .run(RunRequest::new(
            &run,
            &runtimes,
            &mut DayDreamScheduler::aws(&history, SeedStream::new(9)),
        ))
        .into_outcome();
    let late = FaasExecutor::new(FaasConfig {
        trigger: PoolTrigger::PhaseComplete,
        ..FaasConfig::default()
    })
    .run(RunRequest::new(
        &run,
        &runtimes,
        &mut DayDreamScheduler::aws(&history, SeedStream::new(9)),
    ))
    .into_outcome();
    assert!(
        late.service_time_secs >= half.service_time_secs,
        "late trigger {:.1}s vs half-phase {:.1}s",
        late.service_time_secs,
        half.service_time_secs
    );
}

#[test]
fn daydream_config_weights_shift_tradeoff() {
    // Weighting time only should not *slow down* execution relative to
    // the balanced default. (The cost direction has no such per-phase
    // guarantee: a shorter phase also shrinks the next pool's keep-alive
    // window, so time savings feed back into cost across phases.)
    let (gen, runtimes) = setup(Workflow::ExaFel, 15);
    let run = gen.generate(0);
    let history = history_for(&gen);
    let mut exec = FaasExecutor::aws();

    let balanced = exec
        .run(RunRequest::new(
            &run,
            &runtimes,
            &mut DayDreamScheduler::new(
                &history,
                DayDreamConfig::default(),
                daydream::platform::CloudVendor::Aws,
                SeedStream::new(11),
            ),
        ))
        .into_outcome();
    let time_heavy = exec
        .run(RunRequest::new(
            &run,
            &runtimes,
            &mut DayDreamScheduler::new(
                &history,
                DayDreamConfig::default().with_weights(1.0, 0.0),
                daydream::platform::CloudVendor::Aws,
                SeedStream::new(11),
            ),
        ))
        .into_outcome();
    assert!(
        time_heavy.service_time_secs <= balanced.service_time_secs * 1.005,
        "time-only weighting should not be slower: {:.1}s vs {:.1}s",
        time_heavy.service_time_secs,
        balanced.service_time_secs
    );
}

#[test]
fn execution_traces_validate_for_every_scheduler() {
    // The trace validator checks invariants aggregate metrics can't see:
    // one component per instance, starts after readiness, components
    // inside their phase span.
    let (gen, runtimes) = setup(Workflow::Ccl, 10);
    let run = gen.generate(5);
    let history = history_for(&gen);
    let mut exec = FaasExecutor::aws();

    let (_, trace) = exec
        .run(
            RunRequest::new(
                &run,
                &runtimes,
                &mut DayDreamScheduler::aws(&history, SeedStream::new(21)),
            )
            .traced(),
        )
        .into_traced();
    trace.validate().expect("daydream trace");
    assert_eq!(trace.components.len(), run.total_components());
    assert_eq!(trace.phase_starts.len(), run.phase_count());

    let mut wild = policy_scheduler("wild", &gen, &run, 0);
    let (_, trace) = exec
        .run(RunRequest::new(&run, &runtimes, wild.as_mut()).traced())
        .into_traced();
    trace.validate().expect("wild trace");

    let mut oracle = policy_scheduler("oracle", &gen, &run, 0);
    let (_, trace) = exec
        .run(RunRequest::new(&run, &runtimes, oracle.as_mut()).traced())
        .into_traced();
    trace.validate().expect("oracle trace");
    // The oracle's pool is never wasted: every pool trace entry is used.
    assert!(trace.pool.iter().all(|p| p.used));
}

#[test]
fn traced_and_untraced_outcomes_agree() {
    let (gen, runtimes) = setup(Workflow::ExaFel, 15);
    let run = gen.generate(1);
    let history = history_for(&gen);
    let mut exec = FaasExecutor::aws();
    let plain = exec
        .run(RunRequest::new(
            &run,
            &runtimes,
            &mut DayDreamScheduler::aws(&history, SeedStream::new(2)),
        ))
        .into_outcome();
    let (traced, trace) = exec
        .run(
            RunRequest::new(
                &run,
                &runtimes,
                &mut DayDreamScheduler::aws(&history, SeedStream::new(2)),
            )
            .traced(),
        )
        .into_traced();
    assert_eq!(plain.service_time_secs, traced.service_time_secs);
    assert_eq!(plain.ledger, traced.ledger);
    // Phase times derived from the trace match the phase records.
    for (rec, t) in traced.phases.iter().zip(trace.phase_times()) {
        assert!((rec.exec_secs - t).abs() < 1e-9);
    }
}

#[test]
fn des_executor_agrees_with_analytic_for_real_schedulers() {
    // The event-driven executor advances time on the DES core; any
    // divergence from the analytic executor means one of the two
    // time-advance models is wrong. Checked here with the real schedulers
    // (DayDream consumes RNG, so agreement also proves the callback
    // order is identical) — whole outcomes, bit for bit.
    use daydream::platform::DesFaasExecutor;
    let (gen, runtimes) = setup(Workflow::ExaFel, 12);
    let run = gen.generate(0);
    let history = history_for(&gen);

    let check = |a: &RunOutcome, b: &RunOutcome, name: &str| assert_eq!(a, b, "{name}");

    let analytic = FaasExecutor::aws()
        .run(RunRequest::new(
            &run,
            &runtimes,
            &mut DayDreamScheduler::aws(&history, SeedStream::new(5)),
        ))
        .into_outcome();
    let des = DesFaasExecutor::aws()
        .run(RunRequest::new(
            &run,
            &runtimes,
            &mut DayDreamScheduler::aws(&history, SeedStream::new(5)),
        ))
        .into_outcome();
    check(&analytic, &des, "daydream");

    let mut wild = policy_scheduler("wild", &gen, &run, 0);
    let analytic = FaasExecutor::aws()
        .run(RunRequest::new(&run, &runtimes, wild.as_mut()))
        .into_outcome();
    let mut wild = policy_scheduler("wild", &gen, &run, 0);
    let des = DesFaasExecutor::aws()
        .run(RunRequest::new(&run, &runtimes, wild.as_mut()))
        .into_outcome();
    check(&analytic, &des, "wild");

    let mut oracle = policy_scheduler("oracle", &gen, &run, 0);
    let analytic = FaasExecutor::aws()
        .run(RunRequest::new(&run, &runtimes, oracle.as_mut()))
        .into_outcome();
    let mut oracle = policy_scheduler("oracle", &gen, &run, 0);
    let des = DesFaasExecutor::aws()
        .run(RunRequest::new(&run, &runtimes, oracle.as_mut()))
        .into_outcome();
    check(&analytic, &des, "oracle");
}
