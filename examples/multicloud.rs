//! Multicloud portability (paper Fig. 18): DayDream on AWS, Google Cloud
//! and Azure parameter sets.
//!
//! The vendor profiles differ in per-second pricing and start-up latency;
//! the claim is that DayDream's relative advantage over Wild survives
//! both.
//!
//! ```bash
//! cargo run --release --example multicloud
//! ```

use daydream::platform::{
    run_policy, CloudVendor, FaasConfig, FaasExecutor, PolicyContext, Substrate,
};
use daydream::stats::SeedStream;
use daydream::wfdag::{RunGenerator, Workflow, WorkflowSpec};

fn main() {
    let spec = WorkflowSpec::new(Workflow::Ccl).scaled_down(2);
    let runtimes = spec.runtimes.clone();
    let generator = RunGenerator::new(spec, 42);
    let training = generator.generate(1_000);

    let registry = daydream::baselines::registry();
    let prepared = |name: &str| {
        let mut policy = registry.create(name).expect("registered policy");
        policy.prepare(&training);
        policy
    };
    let daydream = prepared("daydream");
    let wild = prepared("wild");

    println!(
        "{:<14} {:>14} {:>12} {:>14} {:>12}",
        "vendor", "daydream (s)", "vs wild", "daydream ($)", "vs wild"
    );
    for vendor in CloudVendor::ALL {
        let mut executor = FaasExecutor::new(FaasConfig {
            vendor,
            ..FaasConfig::default()
        });
        let mut dd_time = 0.0;
        let mut dd_cost = 0.0;
        let mut wi_time = 0.0;
        let mut wi_cost = 0.0;
        let n_runs = 5;
        for idx in 0..n_runs {
            let run = generator.generate(idx);
            let ctx = PolicyContext {
                run: &run,
                runtimes: &runtimes,
                vendor,
                seeds: SeedStream::new(3).derive_index(idx as u64),
            };
            let mut run_one = |policy: &dyn daydream::platform::SchedulerPolicy| {
                let on = Substrate::Analytic(&mut executor);
                run_policy(policy, &ctx, on, None, false).into_outcome()
            };
            let outcome = run_one(daydream.as_ref());
            dd_time += outcome.service_time_secs;
            dd_cost += outcome.service_cost();
            let outcome = run_one(wild.as_ref());
            wi_time += outcome.service_time_secs;
            wi_cost += outcome.service_cost();
        }
        println!(
            "{:<14} {:>14.0} {:>11.1}% {:>14.4} {:>11.1}%",
            vendor.name(),
            dd_time / n_runs as f64,
            (dd_time / wi_time - 1.0) * 100.0,
            dd_cost / n_runs as f64,
            (dd_cost / wi_cost - 1.0) * 100.0,
        );
    }
    println!(
        "\n(negative = DayDream better; paper reports -14% time / -9% cost vs Wild on average)"
    );
}
