//! Quickstart: execute one run under every registered scheduling policy
//! and compare.
//!
//! ```bash
//! cargo run --release --example quickstart
//! ```

use daydream::platform::{run_policy, CloudVendor, FaasExecutor, PolicyContext, Substrate};
use daydream::stats::SeedStream;
use daydream::wfdag::{RunGenerator, Workflow, WorkflowSpec};

fn main() {
    // 1. The workload: the Cosmoscout-VR workflow, scaled down so the
    //    demo finishes in seconds (drop `scaled_down` for the full
    //    ~1030-phase runs of the paper).
    let spec = WorkflowSpec::new(Workflow::CosmoscoutVr).scaled_down(1);
    let runtimes = spec.runtimes.clone();
    let generator = RunGenerator::new(spec, 42);

    // 2. Policies that learn (DayDream's historic Weibull, Wild's gap
    //    histograms, …) train on run 0 via `prepare` …
    let training = generator.generate(0);

    // 3. … and every policy in the registry schedules run 1.
    let run = generator.generate(1);
    println!(
        "run 1: {} phases, {} component instances, operation '{}', input '{}'\n",
        run.phase_count(),
        run.total_components(),
        run.label.operation,
        run.label.input
    );

    let mut executor = FaasExecutor::aws();
    println!(
        "{:<12} {:>12} {:>12} {:>8} {:>8} {:>8}",
        "scheduler", "time (s)", "cost ($)", "warm", "hot", "cold"
    );
    for name in daydream::baselines::registry().names() {
        let mut policy = daydream::baselines::registry()
            .create(name)
            .expect("registered policy");
        policy.prepare(&training);
        let ctx = PolicyContext {
            run: &run,
            runtimes: &runtimes,
            vendor: CloudVendor::Aws,
            seeds: SeedStream::new(7),
        };
        let outcome = run_policy(
            policy.as_ref(),
            &ctx,
            Substrate::Analytic(&mut executor),
            None,
            false,
        )
        .into_outcome();
        let (w, h, c) = outcome.start_counts();
        println!(
            "{:<12} {:>12.1} {:>12.5} {:>8} {:>8} {:>8}",
            outcome.scheduler,
            outcome.service_time_secs,
            outcome.service_cost(),
            w,
            h,
            c
        );
    }
}
