//! Property-based integration tests (proptest) across the workspace:
//! invariants that must hold for arbitrary seeds, workloads and
//! configurations — not just the calibrated defaults.

use daydream::core::{DayDreamConfig, DayDreamHistory, DayDreamScheduler};
use daydream::platform::{FaasExecutor, StartupModel, Tier};
use daydream::stats::{fit_weibull_grid, Histogram, SeedStream, Weibull};
use daydream::wfdag::{ComponentInstance, ComponentTypeId, RunGenerator, Workflow, WorkflowSpec};
use dd_platform::{BuiltScheduler, Executor, PolicyContext, RunRequest};
use proptest::prelude::*;

/// Builds the registry's oracle scheduler for one run (the oracle reads
/// the run itself; it consumes no history and no seeds).
fn oracle_for(
    run: &daydream::wfdag::WorkflowRun,
    runtimes: &[daydream::wfdag::LanguageRuntime],
) -> Box<dyn daydream::platform::ServerlessScheduler + Send> {
    let policy = daydream::baselines::registry()
        .create("oracle")
        .expect("registered policy");
    match policy.build(&PolicyContext {
        run,
        runtimes,
        vendor: daydream::platform::CloudVendor::Aws,
        seeds: SeedStream::new(0),
    }) {
        BuiltScheduler::Serverless(s) => s,
        BuiltScheduler::Cluster(_) => panic!("oracle is a serverless policy"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Generated runs are structurally sound for any seed and run index.
    #[test]
    fn generated_runs_are_well_formed(seed in 0u64..1_000, idx in 0usize..64) {
        let spec = WorkflowSpec::new(Workflow::Ccl).scaled_down(12);
        let catalog_len = spec.catalog.len() as u32;
        let run = RunGenerator::new(spec, seed).generate(idx);
        prop_assert!(run.phase_count() >= 2);
        for (i, phase) in run.phases.iter().enumerate() {
            prop_assert_eq!(phase.index, i);
            prop_assert!(!phase.components.is_empty());
            for c in &phase.components {
                prop_assert!(c.type_id.0 < catalog_len);
                prop_assert!(c.exec_he_secs > 0.0);
                prop_assert!(c.exec_le_secs >= c.exec_he_secs);
                prop_assert!(c.read_mb >= 0.0 && c.write_mb >= 0.0);
            }
        }
    }

    /// Weibull sampling → histogram → grid fit recovers the parameters
    /// within coarse bounds for a wide parameter range.
    #[test]
    fn weibull_fit_roundtrip(alpha in 3.0f64..40.0, beta in 1.2f64..8.0, seed in 0u64..100) {
        let truth = Weibull::new(alpha, beta).unwrap();
        let mut rng = SeedStream::new(seed).rng();
        let hist: Histogram = (0..3_000).map(|_| truth.sample_count(&mut rng)).collect();
        let fit = fit_weibull_grid(
            &hist,
            (alpha * 0.4, alpha * 1.8),
            ((beta * 0.4).max(0.3), beta * 1.8),
            32,
        );
        // Degenerate histograms (tiny alpha → everything lands on 0/1)
        // may not fit; otherwise the scale must come back within 30%.
        if let Some(f) = fit {
            if hist.variance() > 0.5 {
                prop_assert!(
                    (f.dist.alpha() - alpha).abs() < alpha * 0.3,
                    "alpha {} fitted as {}", alpha, f.dist.alpha()
                );
            }
        }
    }

    /// Start-up overheads preserve warm < hot < cold for any I/O volume
    /// and both tiers.
    #[test]
    fn startup_ordering_invariant(read_mb in 0.0f64..500.0, write_mb in 0.0f64..500.0) {
        let m = StartupModel::aws();
        let c = ComponentInstance {
            type_id: ComponentTypeId(0),
            exec_he_secs: 1.0,
            exec_le_secs: 1.2,
            read_mb,
            write_mb,
            cpu_demand: 0.5,
            mem_gb: 1.0,
        };
        let runtimes = [daydream::wfdag::LanguageRuntime::Python];
        for tier in [Tier::HighEnd, Tier::LowEnd] {
            let warm = m.warm_overhead_secs(&c, tier);
            let hot = m.hot_overhead_secs(&c, tier);
            let cold = m.cold_overhead_secs(&c, tier, &runtimes);
            prop_assert!(warm < hot && hot < cold);
            prop_assert!(warm > 0.0);
        }
    }

    /// The Oracle lower-bounds DayDream's service time for any seed
    /// (modulo a 2% numeric cushion for the joint-objective trade).
    #[test]
    fn oracle_is_a_time_lower_bound(seed in 0u64..40) {
        let spec = WorkflowSpec::new(Workflow::Ccl).scaled_down(20);
        let runtimes = spec.runtimes.clone();
        let gen = RunGenerator::new(spec, 13);
        let run = gen.generate((seed % 8) as usize);
        let mut exec = FaasExecutor::aws();

        let mut oracle = oracle_for(&run, &runtimes);
        let o = exec.run(RunRequest::new(&run, &runtimes, oracle.as_mut())).into_outcome();

        let mut history = DayDreamHistory::new();
        history.learn_from_run(&gen.generate(1_000), 0.20, 24);
        let mut dd = DayDreamScheduler::new(
            &history,
            DayDreamConfig::default(),
            daydream::platform::CloudVendor::Aws,
            SeedStream::new(seed),
        );
        let d = exec.run(RunRequest::new(&run, &runtimes, &mut dd)).into_outcome();
        prop_assert!(
            o.service_time_secs <= d.service_time_secs * 1.02,
            "oracle {} vs daydream {}", o.service_time_secs, d.service_time_secs
        );
    }

    /// Service cost is monotone under the vendor price multiplier.
    #[test]
    fn cost_scales_with_vendor_prices(seed in 0u64..20) {
        use daydream::platform::{CloudVendor, FaasConfig};
        let spec = WorkflowSpec::new(Workflow::Ccl).scaled_down(25);
        let runtimes = spec.runtimes.clone();
        let gen = RunGenerator::new(spec, seed);
        let run = gen.generate(0);
        let mut history = DayDreamHistory::new();
        history.learn_from_run(&gen.generate(1_000), 0.20, 24);

        let mut costs = Vec::new();
        for vendor in [CloudVendor::Azure, CloudVendor::Aws, CloudVendor::Gcp] {
            let mut exec = FaasExecutor::new(FaasConfig { vendor, ..FaasConfig::default() });
            let mut dd = DayDreamScheduler::new(
                &history,
                DayDreamConfig::default(),
                vendor,
                SeedStream::new(seed),
            );
            let o = exec.run(RunRequest::new(&run, &runtimes, &mut dd)).into_outcome();
            costs.push((vendor.price_multiplier(), o.service_cost() / o.service_time_secs));
        }
        // Higher price multiplier ⇒ higher cost per second of service.
        costs.sort_by(|a, b| a.0.total_cmp(&b.0));
        prop_assert!(costs[0].1 <= costs[2].1 * 1.05,
            "cost/s should roughly track the price multiplier: {:?}", costs);
    }

    /// The cost ledger is conserved across sweep workers: executing the
    /// same runs at any `--jobs` yields bitwise-identical ledgers, each
    /// summing exactly to its outcome's service cost.
    #[test]
    fn ledger_conserved_across_workers(seed in 0u64..12, jobs in 2usize..9) {
        let spec = WorkflowSpec::new(Workflow::Ccl).scaled_down(25);
        let runtimes = spec.runtimes.clone();
        let gen = RunGenerator::new(spec, seed);
        let mut history = DayDreamHistory::new();
        history.learn_from_run(&gen.generate(1_000), 0.20, 24);
        let execute = |idx: usize| {
            let mut dd = DayDreamScheduler::aws(
                &history,
                SeedStream::new(seed).derive_index(idx as u64),
            );
            FaasExecutor::aws().run(RunRequest::new(&gen.generate(idx), &runtimes, &mut dd)).into_outcome()
        };

        let serial = dd_bench::par_map(1, 6, execute);
        let parallel = dd_bench::par_map(jobs, 6, execute);
        for (a, b) in serial.iter().zip(&parallel) {
            prop_assert_eq!(a.ledger, b.ledger);
            let l = a.ledger;
            let total = l.execution + l.keep_alive_used + l.keep_alive_wasted + l.storage + l.retry;
            prop_assert!(
                (a.service_cost() - total).abs() < 1e-12,
                "ledger components must sum to the service cost"
            );
        }
    }

    /// Fault injection stays deterministic under the parallel sweep and
    /// across executors: for any fault seed, rate and policy, runs are
    /// byte-identical (Debug rendering) at any `--jobs`, the DES
    /// executor agrees with the analytic one, and the retry ledger
    /// component is non-negative while preserving conservation.
    #[test]
    fn fault_injection_is_deterministic_across_workers(
        fault_seed in 0u64..200,
        rate in 0.01f64..0.15,
        policy_idx in 0usize..4,
        jobs in 2usize..9,
    ) {
        use daydream::platform::{DesFaasExecutor, FaasConfig, FaultConfig, RecoveryPolicy};
        let policy = [
            RecoveryPolicy::none(),
            RecoveryPolicy::backoff(),
            RecoveryPolicy::timeout(),
            RecoveryPolicy::speculative(),
        ][policy_idx];
        let spec = WorkflowSpec::new(Workflow::Ccl).scaled_down(25);
        let runtimes = spec.runtimes.clone();
        let gen = RunGenerator::new(spec, 13);
        let config = FaasConfig {
            faults: FaultConfig::uniform(rate).with_seed(fault_seed),
            recovery: policy,
            ..FaasConfig::default()
        };
        let execute = |idx: usize| {
            let run = gen.generate(idx);
            let mut oracle = oracle_for(&run, &runtimes);
            FaasExecutor::new(config).run(RunRequest::new(&run, &runtimes, oracle.as_mut())).into_outcome()
        };

        let serial = dd_bench::par_map(1, 4, execute);
        let parallel = dd_bench::par_map(jobs, 4, execute);
        for (idx, (a, b)) in serial.iter().zip(&parallel).enumerate() {
            prop_assert_eq!(
                format!("{a:?}"), format!("{b:?}"),
                "faulty run must not depend on --jobs"
            );
            prop_assert!(a.ledger.retry >= 0.0);
            prop_assert!(
                (a.service_cost() - (a.ledger.execution + a.ledger.keep_alive_used
                    + a.ledger.keep_alive_wasted + a.ledger.storage + a.ledger.retry)).abs() < 1e-12,
                "retry must preserve ledger conservation"
            );
            // The DES executor replays the same fault plan to the same
            // outcome.
            let run = gen.generate(idx);
            let mut oracle = oracle_for(&run, &runtimes);
            let des = DesFaasExecutor::new(config).run(RunRequest::new(&run, &runtimes, oracle.as_mut())).into_outcome();
            prop_assert_eq!(a, &des, "DES diverges from analytic under faults");
        }
    }

    /// A cleared-and-reused DES event queue pops in exactly the order a
    /// fresh queue does — including the FIFO tie-break for equal times
    /// (the resettable-session fast path depends on this).
    #[test]
    fn event_queue_reuse_preserves_order(times in proptest::collection::vec(0u32..50, 1..64)) {
        use daydream::platform::{EventQueue, SimTime};
        fn drain(q: &mut EventQueue<usize>) -> Vec<(u64, usize)> {
            let mut order = Vec::new();
            while let Some((t, v)) = q.pop() {
                order.push((t.as_secs().to_bits(), v));
            }
            order
        }

        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(SimTime::from_secs(f64::from(t) / 8.0), i);
        }
        let fresh = drain(&mut q);

        q.clear();
        for (i, &t) in times.iter().enumerate() {
            q.push(SimTime::from_secs(f64::from(t) / 8.0), i);
        }
        prop_assert_eq!(drain(&mut q), fresh);
    }
}
