//! `serve`: the multi-tenant front door, step for step as
//! `traffic_sim::simulate_stream` drives it — 64 tenants × 32 requests
//! over all three workflows at phase scale 1/20, bursty open-loop
//! arrivals in virtual time, the DES executor under 10 % injected faults
//! with backoff recovery, and the front door's recorder exported as
//! JSONL. An operation is one arrival's run.
//!
//! The steps are spelled out here (rather than one `simulate_stream`
//! call) so that set-up — training, `prepare`, the shared-pool plan —
//! is timed apart from serving, and so the traced run can put spans
//! around each layer. Pass 0 of every set checks that these steps give
//! exactly the bytes `simulate_stream` gives.

use crate::pass::{PassArgs, PassOut, Size, WHOLE_PASS};
use crate::runs::{ledger_conserves, run_des, RunStats};
use crate::trace::{Off, Probe, Tracer};
use crate::util::{debug_digest, fnv64, mean, peak_rss_mb, ratio};
use dd_bench::sweep::par_map_with;
use dd_bench::{simulate_stream, TrafficParams};
use dd_platform::traffic::{
    arrivals, plan_shared_pool, ArrivalModel, FrontDoor, ServeReport, ServiceSample, TrafficConfig,
};
use dd_platform::{
    counters, BuiltScheduler, DesFaasExecutor, DesSession, FaasConfig, FaultConfig, PolicyContext,
    SchedulerPolicy,
};
use dd_stats::SeedStream;
use dd_wfdag::{RunGenerator, WorkflowSpec};
use std::time::Instant;

/// Index of each tenant's training run, as in `simulate_stream`.
const TRAINING_RUN: usize = 1_000;

pub fn params(a: &PassArgs) -> TrafficParams {
    let (tenants, requests, scale) = match a.size {
        Size::Paper => (64, 32, 20),
        Size::Smoke => (6, 3, 25),
    };
    TrafficParams {
        seed: a.seed,
        tenants,
        model: ArrivalModel::Bursty,
        rate_per_sec: 0.0002,
        requests_per_tenant: requests,
        capacity: 16,
        scale_down: scale,
        jobs: a.jobs,
        fault_rate: 0.1,
        fault_seed: a.seed,
        policy: "daydream".to_string(),
        ..TrafficParams::default()
    }
}

struct Setup {
    params: TrafficParams,
    config: TrafficConfig,
    tenants: Vec<(RunGenerator, Box<dyn SchedulerPolicy>)>,
    provisioned_concurrency: usize,
}

fn setup<P: Probe>(a: &PassArgs, probe: &mut P) -> Setup {
    let params = params(a);
    let config = TrafficConfig {
        seed: params.seed,
        model: params.model,
        tenants: params.tenant_specs(),
        capacity: params.capacity.max(1),
    };
    let tenants: Vec<(RunGenerator, Box<dyn SchedulerPolicy>)> = (0..params.tenants)
        .map(|i| {
            let spec = WorkflowSpec::new(params.workflow_of(i)).scaled_down(params.scale_down);
            let gen_seed = SeedStream::new(params.seed)
                .derive("traffic-runs")
                .derive_index(i as u64)
                .seed();
            let generator = RunGenerator::new(spec, gen_seed);
            let mut policy = dd_baselines::registry()
                .create(&params.policy)
                .unwrap_or_else(|e| panic!("serve policy: {e}"));
            // Set-up spans carry the tenant as their request id.
            let id = probe.open("wfdag.generate", Some(i as u64));
            let training = generator.generate(TRAINING_RUN);
            probe.close(id);
            let id = probe.open("learn.prepare", Some(i as u64));
            policy.prepare(&training);
            probe.close(id);
            (generator, policy)
        })
        .collect();
    let id = probe.open("frontdoor.plan", None);
    let quantiles: Vec<Vec<f64>> = tenants
        .iter()
        .map(|(generator, _)| {
            let spec = generator.spec();
            (1..=256)
                .map(|k| {
                    let q = f64::from(k) / 257.0;
                    spec.concurrency_weibull.quantile(q) * spec.concurrency_scale
                })
                .collect()
        })
        .collect();
    let plan = plan_shared_pool(&quantiles, config.capacity);
    probe.close(id);
    Setup {
        params,
        config,
        tenants,
        provisioned_concurrency: plan.provisioned_concurrency,
    }
}

pub fn setup_only(a: &PassArgs) -> f64 {
    let t = Instant::now();
    setup(a, &mut Off);
    t.elapsed().as_secs_f64()
}

/// What serving produced.
struct Served {
    config: TrafficConfig,
    samples: Vec<ServiceSample>,
    report: ServeReport,
    jsonl: String,
    arrivals: usize,
    obs_events: usize,
    stats: RunStats,
    /// Runs whose ledger failed to conserve: `(arrival index, reason)`.
    bad_ledgers: Vec<(usize, String)>,
}

/// The timed region: arrivals, the per-arrival run fan-out, SLAs, front
/// door admission and the JSONL export.
fn serve<P: Probe>(s: &Setup, probe: &mut P) -> Served {
    let params = &s.params;
    let mut config = s.config.clone();

    let id = probe.open("frontdoor.arrivals", None);
    let table = arrivals(&config);
    probe.close(id);

    let faas_config = |tenant: u32| FaasConfig {
        vendor: params.vendor,
        provisioned_concurrency: s.provisioned_concurrency,
        faults: FaultConfig::uniform(params.fault_rate).with_seed(
            params
                .fault_seed
                .wrapping_add(u64::from(tenant).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
        ),
        ..FaasConfig::default()
    };
    let sweep_id = probe.open("sweep", None);
    let root: &P = probe;
    let cells = par_map_with(params.jobs, table.len(), DesSession::new, |session, idx| {
        let mut p = root.fork(sweep_id);
        let req = Some(idx as u64);
        let cell = p.open("sweep.cell", req);
        let arrival = table[idx];
        let (generator, policy) = &s.tenants[arrival.tenant.0 as usize];
        let id = p.open("wfdag.generate", req);
        let run = generator.generate(arrival.index);
        p.close(id);
        let seeds = SeedStream::new(params.seed)
            .derive("traffic-sched")
            .derive_index(arrival.tenant.0.into())
            .derive_index(arrival.index as u64);
        let id = p.open("sched.build", req);
        let built = policy.build(&PolicyContext {
            run: &run,
            runtimes: &generator.spec().runtimes,
            vendor: params.vendor,
            seeds,
        });
        p.close(id);
        let BuiltScheduler::Serverless(mut scheduler) = built else {
            panic!("the serve workload's policy builds serverless schedulers");
        };
        let outcome = run_des(
            &mut p,
            &DesFaasExecutor::new(faas_config(arrival.tenant.0)),
            session,
            &run,
            &generator.spec().runtimes,
            scheduler.as_mut(),
            idx as u64,
        )
        .into_outcome();
        p.close(cell);
        let mut stats = RunStats::default();
        stats.absorb(&outcome, run.total_components());
        let ledger = ledger_conserves(&outcome).err();
        (ServiceSample::from_outcome(&outcome), stats, ledger, p)
    });
    let mut samples = Vec::with_capacity(cells.len());
    let mut stats = RunStats::default();
    let mut bad_ledgers = Vec::new();
    for (idx, (sample, cell_stats, ledger, p)) in cells.into_iter().enumerate() {
        samples.push(sample);
        stats.merge(&cell_stats);
        if let Some(why) = ledger {
            bad_ledgers.push((idx, why));
        }
        probe.join(p);
    }
    probe.close(sweep_id);

    // Per-tenant SLA: 1.5x the median solo service time.
    let id = probe.open("frontdoor.sla", None);
    for (t, spec) in config.tenants.iter_mut().enumerate() {
        let mut solo: Vec<f64> = table
            .iter()
            .zip(&samples)
            .filter(|(a, _)| a.tenant.0 as usize == t)
            .map(|(_, s)| s.service_secs)
            .collect();
        solo.sort_by(f64::total_cmp);
        spec.sla_secs = 1.5 * solo.get(solo.len() / 2).copied().unwrap_or(0.0);
    }
    probe.close(id);

    let id = probe.open("frontdoor.serve", None);
    let mut recorder = dd_obs::MemoryRecorder::new();
    let report = FrontDoor::new(config.clone()).serve(&table, &samples, Some(&mut recorder));
    probe.close(id);

    let id = probe.open("obs.export", None);
    let jsonl = dd_obs::export::to_jsonl(&recorder);
    probe.close(id);

    Served {
        config,
        samples,
        report,
        jsonl,
        arrivals: table.len(),
        obs_events: recorder.events.len(),
        stats,
        bad_ledgers,
    }
}

pub fn pass(a: &PassArgs, traced: bool) -> PassOut {
    let mut tracer = Tracer::new();
    let s = if traced {
        setup(a, &mut tracer)
    } else {
        setup(a, &mut Off)
    };

    let from = tracer.now();
    let before = counters::snapshot();
    let t = Instant::now();
    let served = if traced {
        serve(&s, &mut tracer)
    } else {
        serve(&s, &mut Off)
    };
    let wall_s = t.elapsed().as_secs_f64();
    let delta = counters::snapshot().since(before);

    let r = &served.report;
    let mut out = PassOut {
        wall_s,
        starts: delta.component_starts,
        rss_mb: peak_rss_mb(),
        ops: served.arrivals as u64,
        sim_service_s: mean(
            &served
                .samples
                .iter()
                .map(|x| x.service_secs)
                .collect::<Vec<_>>(),
        ),
        sim_cost_usd: mean(
            &served
                .samples
                .iter()
                .map(|x| x.ledger.total())
                .collect::<Vec<_>>(),
        ),
        sla_attain: mean(
            &r.tenants
                .iter()
                .map(|t| t.sla_attainment)
                .collect::<Vec<_>>(),
        ),
        ..PassOut::default()
    };
    check(a, &served, &mut out);
    if traced {
        layers(a, &served, &tracer, delta.des_events, from, &mut out);
        crate::write_spans("serve", a.seed, &tracer);
    }
    out
}

fn check(a: &PassArgs, served: &Served, out: &mut PassOut) {
    let r = &served.report;
    out.digest("all:report", debug_digest(r));
    out.digest("all:obs", fnv64(served.jsonl.as_bytes()));
    let mut admitted = vec![None; served.arrivals];
    for rec in &r.admissions {
        if let Some(slot) = admitted.get_mut(rec.arrival_idx) {
            *slot = Some(rec);
        }
    }
    for (idx, sample) in served.samples.iter().enumerate() {
        match admitted[idx] {
            Some(rec) => out.digest(format!("a{idx}"), debug_digest(&(sample, rec))),
            None => out.fail(format!("a{idx}"), "arrival never admitted"),
        }
    }
    let completed: usize = r.tenants.iter().map(|t| t.completed).sum();
    if completed != served.arrivals {
        out.fail(
            WHOLE_PASS,
            format!("{completed} of {} arrivals completed", served.arrivals),
        );
    }
    for (idx, why) in &served.bad_ledgers {
        out.fail(format!("a{idx}"), why.clone());
    }
    if a.reference_check {
        let reference = simulate_stream(&params(a));
        let same = reference.report == served.report
            && reference.samples == served.samples
            && reference.config == served.config
            && dd_obs::export::to_jsonl(&reference.recorder) == served.jsonl;
        if !same {
            out.fail(WHOLE_PASS, "serve steps differ from simulate_stream");
        }
    }
    if a.tamper {
        out.tamper();
    }
}

fn layers(
    a: &PassArgs,
    served: &Served,
    tr: &Tracer,
    des_events: u64,
    from: f64,
    out: &mut PassOut,
) {
    crate::runs::layers(out, tr, &served.stats, des_events, from);
    let r = &served.report;
    let busy_s = tr.span_secs("sweep.cell");
    let delays: Vec<f64> = r
        .admissions
        .iter()
        .map(|rec| rec.admission_delay_secs())
        .collect();
    for (name, v) in [
        ("frontdoor.arrivals_s", tr.span_secs("frontdoor.arrivals")),
        ("frontdoor.plan_s", tr.span_secs("frontdoor.plan")),
        ("frontdoor.serve_s", tr.span_secs("frontdoor.serve")),
        ("frontdoor.admitted", r.admissions.len() as f64),
        ("frontdoor.admit_delay_mean_s", mean(&delays)),
        (
            "frontdoor.max_queue_depth",
            r.tenants
                .iter()
                .map(|t| t.max_queue_depth)
                .max()
                .unwrap_or(0) as f64,
        ),
        ("obs.events", served.obs_events as f64),
        ("obs.export_s", tr.span_secs("obs.export")),
        ("obs.export_bytes", served.jsonl.len() as f64),
        ("sweep.busy_s", busy_s),
        (
            "sweep.idle_frac",
            1.0 - ratio(busy_s, a.jobs as f64 * tr.span_secs("sweep"), 1.0),
        ),
    ] {
        out.layer(name, v);
    }
}
