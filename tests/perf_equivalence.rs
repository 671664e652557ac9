//! Perf-equivalence suite: pins the DES hot-path overhaul to the
//! reference semantics, byte for byte.
//!
//! The overhaul (radix event queue, SoA phase state, arena pools, flat
//! fit kernels, fit/forecast memos) is only legal because every output
//! stays bit-identical. This suite enforces that three ways:
//!
//! 1. **Pinned figure hashes.** Every report figure (except `overhead`,
//!    which self-measures wall-clock time) renders at smoke scale, at
//!    `--jobs 1` and `--jobs 8`, and its FNV-64 hash must match
//!    `tests/golden/perf_equivalence.txt`. The same golden holds when the
//!    workspace is built with `--features queue-oracle` — which swaps
//!    whole simulations onto the reference `BinaryHeap` event queue — so
//!    a green oracle build proves the radix queue changes nothing:
//!
//!    ```bash
//!    cargo test --test perf_equivalence
//!    cargo test --test perf_equivalence --features queue-oracle
//!    ```
//!
//! 2. **Executor agreement under faults.** The analytic and DES
//!    executors must produce identical run reports (outcome and
//!    execution trace) and recorder exports with fault injection and
//!    recovery active — uncapped, and under the serve stream's per-run
//!    configuration (a `provisioned_concurrency` cap below the requested
//!    pool and a tenant-salted fault seed), which runs only on the DES.
//!
//! 3. **Session reuse.** A reused `DesSession` (arena allocations kept
//!    across runs) must reproduce fresh-session results exactly.
//!
//! Re-bless after an intended behaviour change with
//! `DD_BLESS=1 cargo test --test perf_equivalence` and say why in the
//! commit message.

// Exact float equality below asserts bit-reproducibility (determinism contract).
#![allow(clippy::float_cmp)]

use daydream::core::{DayDreamHistory, DayDreamScheduler};
use daydream::platform::{FaasConfig, FaasExecutor};
use daydream::stats::SeedStream;
use daydream::wfdag::{RunGenerator, Workflow, WorkflowSpec};
use dd_bench::figures;
use dd_bench::ExperimentContext;
use dd_obs::{export, MemoryRecorder};
use dd_platform::{DesFaasExecutor, DesSession, Executor, FaultConfig, RunReport, RunRequest};

/// FNV-1a 64-bit: tiny, dependency-free, stable across platforms.
fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn smoke_ctx(jobs: usize) -> ExperimentContext {
    ExperimentContext {
        runs_per_workflow: 3,
        scale_down: 15,
        ..ExperimentContext::default()
    }
    .with_jobs(jobs)
}

/// Figures whose output is a pure function of (seed, scale): everything
/// except `overhead`, which measures its own wall-clock time.
fn deterministic_figures() -> Vec<&'static str> {
    figures::FIGURES
        .iter()
        .copied()
        .filter(|f| *f != "overhead")
        .collect()
}

#[test]
fn report_figures_match_pinned_hashes_at_any_jobs() {
    let selected = deterministic_figures();
    let serial = figures::render_report(&smoke_ctx(1), &selected, true);
    let parallel = figures::render_report(&smoke_ctx(8), &selected, true);
    assert_eq!(serial, parallel, "report must not depend on --jobs");

    // One hash line per figure gives a readable diff when something
    // drifts; the trailing `full` line seals the whole byte stream
    // (header + ordering included).
    let ctx = smoke_ctx(1);
    let matrix = dd_bench::EvaluationMatrix::compute_for(&ctx, &dd_bench::SchedulerKind::PAPER);
    let mut lines = String::new();
    for name in &selected {
        let out = figures::render(name, &ctx, Some(&matrix)).expect("known figure");
        lines.push_str(&format!("{name} {:016x}\n", fnv64(out.as_bytes())));
    }
    lines.push_str(&format!("full {:016x}\n", fnv64(serial.as_bytes())));

    if std::env::var_os("DD_BLESS").is_some() {
        std::fs::write(
            concat!(
                env!("CARGO_MANIFEST_DIR"),
                "/tests/golden/perf_equivalence.txt"
            ),
            &lines,
        )
        .expect("write golden");
        return;
    }
    let golden = include_str!("golden/perf_equivalence.txt");
    assert_eq!(
        lines, golden,
        "figure hashes drifted from tests/golden/perf_equivalence.txt — the \
         optimized hot path no longer reproduces the pinned bytes \
         (re-bless with DD_BLESS=1 only for an intended behaviour change)"
    );
}

fn setup(wf: Workflow) -> (RunGenerator, Vec<daydream::wfdag::LanguageRuntime>) {
    let spec = WorkflowSpec::new(wf).scaled_down(12);
    let runtimes = spec.runtimes.clone();
    (RunGenerator::new(spec, 77), runtimes)
}

fn history_for(gen: &RunGenerator) -> DayDreamHistory {
    let mut h = DayDreamHistory::new();
    h.learn_from_run(&gen.generate(1_000), 0.20, 24);
    h
}

/// Runs one faulty DayDream run on either executor under `config`,
/// capturing the traced report and the full recorder export.
fn faulty_run(
    wf: Workflow,
    run_index: usize,
    config: FaasConfig,
    des: bool,
) -> (RunReport, String, String) {
    let (gen, runtimes) = setup(wf);
    let run = gen.generate(run_index);
    let history = history_for(&gen);
    let mut sched = DayDreamScheduler::aws(&history, SeedStream::new(41));
    let mut rec = MemoryRecorder::new();
    let req = RunRequest::new(&run, &runtimes, &mut sched)
        .traced()
        .with_recorder(&mut rec);
    let report = if des {
        DesFaasExecutor::new(config).run(req)
    } else {
        FaasExecutor::new(config).run(req)
    };
    (report, export::to_jsonl(&rec), export::summary(&rec))
}

/// Pool cap of the serve-shaped configuration: below the pool DayDream
/// requests on every run checked here (asserted, so the cap binds).
const SERVE_POOL_CAP: usize = 3;

/// The per-run configuration `dd_bench::simulate_stream` hands tenant
/// `tenant`: the shared-pool cap and a fault seed salted by tenant id.
fn serve_config(tenant: u32) -> FaasConfig {
    let salted = 7u64.wrapping_add(u64::from(tenant).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    FaasConfig {
        provisioned_concurrency: SERVE_POOL_CAP,
        faults: FaultConfig::uniform(0.08).with_seed(salted),
        ..FaasConfig::default()
    }
}

#[test]
fn executors_agree_bitwise_under_faults() {
    let uncapped = FaasConfig {
        faults: FaultConfig::uniform(0.08).with_seed(13),
        ..FaasConfig::default()
    };
    let max_pool = |r: &RunReport| r.outcome.phases.iter().map(|p| p.pool_size).max();
    for wf in Workflow::ALL {
        for run_index in [0, 1] {
            let tenant = run_index as u32 + 1;
            let mut max_pools = vec![];
            for (shape, config) in [("uncapped", uncapped), ("serve", serve_config(tenant))] {
                let at = format!("{wf} run {run_index} ({shape})");
                let (a, aj, asum) = faulty_run(wf, run_index, config, false);
                let (b, bj, bsum) = faulty_run(wf, run_index, config, true);
                // Field by field first, so a failure names what diverged.
                let (ao, bo) = (&a.outcome, &b.outcome);
                assert_eq!(
                    ao.service_time_secs, bo.service_time_secs,
                    "{at}: service time"
                );
                assert_eq!(ao.ledger, bo.ledger, "{at}: ledger");
                assert_eq!(ao.phases, bo.phases, "{at}: phases");
                assert_eq!(ao.faults, bo.faults, "{at}: fault stats");
                assert_eq!(a.trace, b.trace, "{at}: execution trace");
                assert_eq!(a, b, "{at}: run report");
                assert_eq!(aj, bj, "{at}: obs jsonl export");
                assert_eq!(asum, bsum, "{at}: obs summary");
                assert!(
                    bo.faults.failures() > 0,
                    "{at}: fault injection never fired — the faults-on \
                     equivalence check is vacuous at this configuration"
                );
                max_pools.push(max_pool(&b));
            }
            assert!(
                max_pools[0] > Some(SERVE_POOL_CAP as u32) && max_pools[1] <= Some(SERVE_POOL_CAP as u32),
                "{wf} run {run_index}: the serve cap must bind (max pool uncapped vs capped: {max_pools:?})"
            );
        }
    }
}

#[test]
fn des_session_reuse_reproduces_fresh_runs() {
    let (gen, runtimes) = setup(Workflow::CosmoscoutVr);
    let history = history_for(&gen);
    let executor = DesFaasExecutor::new(FaasConfig::default());

    let mut reused = DesSession::new();
    for run_index in 0..4 {
        let run = gen.generate(run_index);
        let mut s1 = DayDreamScheduler::aws(&history, SeedStream::new(7));
        let warm = executor
            .run_with(&mut reused, RunRequest::new(&run, &runtimes, &mut s1))
            .into_outcome();
        let mut s2 = DayDreamScheduler::aws(&history, SeedStream::new(7));
        let fresh = executor
            .run_with(
                &mut DesSession::new(),
                RunRequest::new(&run, &runtimes, &mut s2),
            )
            .into_outcome();
        assert_eq!(warm.service_time_secs, fresh.service_time_secs);
        assert_eq!(warm.ledger, fresh.ledger);
        assert_eq!(warm.phases, fresh.phases);
    }
}
