//! Multi-tenant serving simulation: glues the `dd_platform::traffic`
//! front door to the per-run executor.
//!
//! The two-level design keeps `--jobs` determinism trivial: every
//! arrival's run is a pure function of `(seed, tenant, arrival_index)`
//! — generated, scheduled, and executed in isolation (the shared pool
//! shows up as the merged-histogram `provisioned_concurrency` cap in its
//! `FaasConfig`) — so the per-run executions fan out over `par_map_with`
//! in merged-arrival order, and the strictly sequential [`FrontDoor`]
//! admission loop replays queueing over the precomputed service samples.
//! Streams always run on the DES executor, each worker reusing one
//! [`DesSession`]; the analytic executor agrees with it bit for bit
//! under the same capped, faulted `FaasConfig` (pinned per run in
//! `tests/perf_equivalence.rs`). The outcome is byte-identical at any
//! `--jobs`.

use crate::sweep::par_map_with;
use dd_platform::traffic::{
    arrivals, plan_shared_pool, Arrival, ArrivalModel, FrontDoor, ServeReport, ServiceSample,
    TenantId, TenantSpec, TrafficConfig,
};
use dd_platform::{
    run_policy, CloudVendor, DesFaasExecutor, DesSession, FaasConfig, FaultConfig, PolicyContext,
    SchedulerPolicy, Substrate,
};
use dd_stats::SeedStream;
use dd_wfdag::{RunGenerator, Workflow};

/// One serve session's shape.
#[derive(Debug, Clone)]
pub struct TrafficParams {
    /// Root seed (arrivals, run generation, schedulers, faults).
    pub seed: u64,
    /// Concurrent tenant streams.
    pub tenants: usize,
    /// Interarrival model shared by the streams.
    pub model: ArrivalModel,
    /// Mean per-tenant arrival rate, runs per virtual second.
    pub rate_per_sec: f64,
    /// Runs each tenant submits.
    pub requests_per_tenant: usize,
    /// Shared capacity: runs in flight at once across all tenants.
    pub capacity: usize,
    /// Workflow phase-count divisor (smoke scaling).
    pub scale_down: usize,
    /// Cloud vendor for the per-run executors.
    pub vendor: CloudVendor,
    /// Worker threads for the per-run fan-out (results identical at any
    /// setting).
    pub jobs: usize,
    /// Uniform fault-injection rate for every run (0 = clean).
    pub fault_rate: f64,
    /// Fault-injection seed (salted per tenant).
    pub fault_seed: u64,
    /// Scheduler policy serving every tenant (a name from
    /// [`dd_baselines::registry`]).
    pub policy: String,
}

impl Default for TrafficParams {
    fn default() -> Self {
        Self {
            seed: 0xDA1D,
            tenants: 4,
            model: ArrivalModel::Poisson,
            rate_per_sec: 0.05,
            requests_per_tenant: 8,
            capacity: 4,
            scale_down: 10,
            vendor: CloudVendor::Aws,
            jobs: crate::sweep::default_jobs(),
            fault_rate: 0.0,
            fault_seed: 7,
            policy: "daydream".to_string(),
        }
    }
}

impl TrafficParams {
    /// The tenant table this parameter set expands to: tenant `i` runs
    /// `Workflow::ALL[i % 3]`, tenant 0 carries DRR weight 2 (the "paying
    /// more" stream in the mixed-tenant evaluation), and per-tenant
    /// quotas split the shared capacity so no stream can monopolize it.
    /// SLAs are filled in by [`simulate_stream`] from the measured solo
    /// service times.
    pub fn tenant_specs(&self) -> Vec<TenantSpec> {
        (0..self.tenants)
            .map(|i| TenantSpec {
                tenant: TenantId(i as u32),
                arrivals: self.requests_per_tenant,
                rate_per_sec: self.rate_per_sec,
                weight: if i == 0 { 2 } else { 1 },
                max_in_flight: self.capacity.div_ceil(2).max(1),
                sla_secs: 0.0,
            })
            .collect()
    }

    /// The workflow tenant `i` submits.
    pub fn workflow_of(&self, tenant: usize) -> Workflow {
        Workflow::ALL[tenant % Workflow::ALL.len()]
    }
}

/// Everything one serve session produced.
#[derive(Debug, Clone)]
pub struct TrafficOutcome {
    /// The resolved traffic config (SLAs filled in).
    pub config: TrafficConfig,
    /// The merged arrival table that was served.
    pub arrivals: Vec<Arrival>,
    /// Per-arrival service samples, in merged-arrival order.
    pub samples: Vec<ServiceSample>,
    /// The front door's serve report.
    pub report: ServeReport,
    /// Shared-pool size the merged histograms produced.
    pub provisioned_concurrency: usize,
    /// Front-door obs stream (arrival/admit/complete events, aggregate +
    /// per-tenant metrics).
    pub recorder: dd_obs::MemoryRecorder,
}

/// The middle element of a sorted slice (empty → 0).
fn median(sorted: &[f64]) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[sorted.len() / 2]
}

/// Serves one multi-tenant arrival stream end to end: generates the
/// arrival table, fans the per-arrival runs out over `params.jobs`
/// worker threads on the DES executor (each run capped by the
/// merged-histogram shared-pool plan), derives per-tenant SLAs from the
/// solo service medians (1.5× — the "50% slack over dedicated" target),
/// and replays front-door admission sequentially.
pub fn simulate_stream(params: &TrafficParams) -> TrafficOutcome {
    let mut config = TrafficConfig {
        seed: params.seed,
        model: params.model,
        tenants: params.tenant_specs(),
        capacity: params.capacity.max(1),
    };

    // Per-tenant run generators + prepared scheduler policies (trained
    // on the dedicated run index 1000, as the single-tenant evaluation
    // does). Any registered policy serves the stream; the default
    // "daydream" reproduces the pre-registry front door byte for byte.
    let tenant_setup: Vec<(RunGenerator, Box<dyn SchedulerPolicy>)> = (0..params.tenants)
        .map(|i| {
            let spec =
                dd_wfdag::WorkflowSpec::new(params.workflow_of(i)).scaled_down(params.scale_down);
            let gen_seed = SeedStream::new(params.seed)
                .derive("traffic-runs")
                .derive_index(i as u64)
                .seed();
            let generator = RunGenerator::new(spec, gen_seed);
            let mut policy = dd_baselines::registry()
                .create(&params.policy)
                .unwrap_or_else(|e| panic!("traffic policy: {e}"));
            policy.prepare(&generator.generate(1_000));
            (generator, policy)
        })
        .collect();

    // Shared pool sizing: merge per-tenant concurrency quantile samples
    // (the same Weibull each tenant's predictor fits) into one histogram.
    let quantile_samples: Vec<Vec<f64>> = (0..params.tenants)
        .map(|i| {
            let spec = tenant_setup[i].0.spec();
            (1..=256)
                .map(|k| {
                    let q = f64::from(k) / 257.0;
                    spec.concurrency_weibull.quantile(q) * spec.concurrency_scale
                })
                .collect()
        })
        .collect();
    let plan = plan_shared_pool(&quantile_samples, config.capacity);

    let table = arrivals(&config);

    // Fan the per-arrival runs out: each is pure in (seed, tenant,
    // arrival index), so worker assignment cannot change any byte.
    let faas_config = |tenant: u32| FaasConfig {
        vendor: params.vendor,
        provisioned_concurrency: plan.provisioned_concurrency,
        faults: FaultConfig::uniform(params.fault_rate).with_seed(
            params
                .fault_seed
                .wrapping_add(u64::from(tenant).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
        ),
        ..FaasConfig::default()
    };
    let samples: Vec<ServiceSample> =
        par_map_with(params.jobs, table.len(), DesSession::new, |session, idx| {
            let arrival = table[idx];
            let tenant = arrival.tenant.0 as usize;
            let (generator, policy) = &tenant_setup[tenant];
            let run = generator.generate(arrival.index);
            let seeds = SeedStream::new(params.seed)
                .derive("traffic-sched")
                .derive_index(arrival.tenant.0.into())
                .derive_index(arrival.index as u64);
            let pctx = PolicyContext {
                run: &run,
                runtimes: &generator.spec().runtimes,
                vendor: params.vendor,
                seeds,
            };
            // Cluster policies bypass the FaaS pool (no shared-pool cap
            // applies) but pay the same injected faults.
            let executor = DesFaasExecutor::new(faas_config(arrival.tenant.0));
            let outcome = run_policy(
                policy.as_ref(),
                &pctx,
                Substrate::Des(&executor, session),
                None,
                false,
            )
            .into_outcome();
            ServiceSample::from_outcome(&outcome)
        });

    // Per-tenant SLA: 1.5x the median solo service time — met when the
    // front door adds at most 50% over a dedicated platform.
    for (t, spec) in config.tenants.iter_mut().enumerate() {
        let mut solo: Vec<f64> = table
            .iter()
            .zip(&samples)
            .filter(|(a, _)| a.tenant.0 as usize == t)
            .map(|(_, s)| s.service_secs)
            .collect();
        solo.sort_by(f64::total_cmp);
        spec.sla_secs = 1.5 * median(&solo);
    }

    let mut recorder = dd_obs::MemoryRecorder::new();
    let report = FrontDoor::new(config.clone()).serve(&table, &samples, Some(&mut recorder));
    TrafficOutcome {
        config,
        arrivals: table,
        samples,
        report,
        provisioned_concurrency: plan.provisioned_concurrency,
        recorder,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke_params() -> TrafficParams {
        TrafficParams {
            tenants: 3,
            requests_per_tenant: 3,
            scale_down: 25,
            rate_per_sec: 0.1,
            capacity: 2,
            jobs: 1,
            ..TrafficParams::default()
        }
    }

    #[test]
    fn stream_is_jobs_invariant() {
        let base = simulate_stream(&smoke_params());
        let threaded = simulate_stream(&TrafficParams {
            jobs: 8,
            ..smoke_params()
        });
        assert_eq!(base.report, threaded.report);
        assert_eq!(base.samples, threaded.samples);
        assert_eq!(base.recorder, threaded.recorder);
    }

    #[test]
    fn slas_derive_from_solo_medians() {
        let out = simulate_stream(&smoke_params());
        for spec in &out.config.tenants {
            assert!(
                spec.sla_secs > 0.0,
                "tenant {} SLA not derived",
                spec.tenant
            );
        }
        assert_eq!(out.arrivals.len(), 9);
        assert_eq!(out.samples.len(), 9);
        let completed: usize = out.report.tenants.iter().map(|t| t.completed).sum();
        assert_eq!(completed, 9);
        assert!(out.provisioned_concurrency >= out.config.capacity);
    }

    #[test]
    fn any_registered_policy_serves_the_stream() {
        // Every registry entry — including the cluster-backed pegasus —
        // must serve the full stream deterministically.
        for name in ["wild", "pegasus", "icps"] {
            let params = TrafficParams {
                policy: name.to_string(),
                ..smoke_params()
            };
            let out = simulate_stream(&params);
            let completed: usize = out.report.tenants.iter().map(|t| t.completed).sum();
            assert_eq!(completed, 9, "{name} dropped runs");
            let threaded = simulate_stream(&TrafficParams {
                jobs: 8,
                ..params.clone()
            });
            assert_eq!(out.report, threaded.report, "{name} not jobs-invariant");
        }
    }

    #[test]
    #[should_panic(expected = "unknown policy")]
    fn unknown_traffic_policy_panics_with_known_names() {
        simulate_stream(&TrafficParams {
            policy: "quantum".to_string(),
            ..smoke_params()
        });
    }
}
