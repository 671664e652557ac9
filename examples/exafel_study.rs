//! ExaFEL case study: the paper's evaluation pipeline on one workflow.
//!
//! Runs N ExaFEL runs (default 10, first argument overrides) under all
//! four techniques and prints the Fig. 11/14-style summary: mean service
//! time and cost normalized to the Oracle, prediction quality, and the
//! wasted keep-alive comparison.
//!
//! ```bash
//! cargo run --release --example exafel_study -- 25
//! ```

use daydream::platform::{
    run_policy, CloudVendor, FaasExecutor, PolicyContext, RunOutcome, Substrate,
};
use daydream::stats::SeedStream;
use daydream::wfdag::{RunGenerator, Workflow, WorkflowSpec};

fn main() {
    let n_runs: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(10);

    let spec = WorkflowSpec::new(Workflow::ExaFel);
    println!(
        "ExaFEL: catalog of {} components, mean phase concurrency {:.0}, ~{} phases/run",
        spec.catalog.len(),
        spec.mean_concurrency(),
        spec.mean_phases
    );
    let runtimes = spec.runtimes.clone();
    let generator = RunGenerator::new(spec, 42);

    // Learning policies train on a run outside the evaluated set.
    let training = generator.generate(1_000);
    let registry = daydream::baselines::registry();
    let prepared = |name: &str| {
        let mut policy = registry.create(name).expect("registered policy");
        policy.prepare(&training);
        policy
    };

    let mut executor = FaasExecutor::aws();
    let mut results: Vec<(&str, _, Vec<RunOutcome>)> = ["oracle", "daydream", "wild", "pegasus"]
        .map(|name| (name, prepared(name), vec![]))
        .into_iter()
        .collect();
    for idx in 0..n_runs {
        let run = generator.generate(idx);
        let ctx = PolicyContext {
            run: &run,
            runtimes: &runtimes,
            vendor: CloudVendor::Aws,
            seeds: SeedStream::new(7).derive_index(idx as u64),
        };
        for (_, policy, outcomes) in &mut results {
            let on = Substrate::Analytic(&mut executor);
            outcomes.push(run_policy(policy.as_ref(), &ctx, on, None, false).into_outcome());
        }
        eprint!("\rrun {}/{n_runs} done", idx + 1);
    }
    eprintln!();

    let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len() as f64;
    let oracle_t = mean(
        &results[0]
            .2
            .iter()
            .map(|o| o.service_time_secs)
            .collect::<Vec<_>>(),
    );
    let oracle_c = mean(
        &results[0]
            .2
            .iter()
            .map(|o| o.service_cost())
            .collect::<Vec<_>>(),
    );

    println!(
        "\n{:<10} {:>10} {:>9} {:>11} {:>9} {:>10} {:>12} {:>12}",
        "scheduler",
        "time (s)",
        "t/oracle",
        "cost ($)",
        "c/oracle",
        "pred err",
        "preload ok",
        "wasted ($)"
    );
    for (name, _, outcomes) in &results {
        let t = mean(
            &outcomes
                .iter()
                .map(|o| o.service_time_secs)
                .collect::<Vec<_>>(),
        );
        let c = mean(
            &outcomes
                .iter()
                .map(|o| o.service_cost())
                .collect::<Vec<_>>(),
        );
        let err = mean(
            &outcomes
                .iter()
                .map(|o| o.mean_prediction_error())
                .collect::<Vec<_>>(),
        );
        let ok = mean(
            &outcomes
                .iter()
                .map(|o| o.mean_preload_success())
                .collect::<Vec<_>>(),
        );
        let wasted = mean(
            &outcomes
                .iter()
                .map(|o| o.ledger.keep_alive_wasted)
                .collect::<Vec<_>>(),
        );
        println!(
            "{name:<10} {t:>10.0} {:>8.2}x {c:>11.4} {:>8.2}x {err:>10.1} {:>11.0}% {wasted:>12.4}",
            t / oracle_t,
            c / oracle_c,
            ok * 100.0,
        );
    }

    let dd = mean(
        &results[1]
            .2
            .iter()
            .map(|o| o.service_time_secs)
            .collect::<Vec<_>>(),
    );
    let wi = mean(
        &results[2]
            .2
            .iter()
            .map(|o| o.service_time_secs)
            .collect::<Vec<_>>(),
    );
    let pe = mean(
        &results[3]
            .2
            .iter()
            .map(|o| o.service_time_secs)
            .collect::<Vec<_>>(),
    );
    println!(
        "\nDayDream service time: {:.0}% below Pegasus, {:.0}% below Wild (paper: 45% / 22%)",
        (1.0 - dd / pe) * 100.0,
        (1.0 - dd / wi) * 100.0
    );
}
