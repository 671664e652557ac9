//! Property-based determinism tests for the multi-tenant traffic layer:
//! for arbitrary seeds, arrival models, shapes and fault rates, the
//! arrival streams, admission order and merged obs exports must be
//! identical across `--jobs` settings (DESIGN.md §10's determinism
//! rules). Per-run analytic ≡ DES agreement under the serve
//! configuration is pinned in `tests/perf_equivalence.rs`.

use dd_bench::{simulate_stream, TrafficParams};
use dd_platform::traffic::{arrivals, ArrivalModel, TenantId, TenantSpec, TrafficConfig};
use proptest::prelude::*;

fn model_strategy() -> impl Strategy<Value = ArrivalModel> {
    (0u8..3).prop_map(|i| match i {
        0 => ArrivalModel::Poisson,
        1 => ArrivalModel::Bursty,
        _ => ArrivalModel::Diurnal,
    })
}

fn config(seed: u64, model: ArrivalModel, tenants: usize, per_tenant: usize) -> TrafficConfig {
    TrafficConfig {
        seed,
        model,
        tenants: (0..tenants)
            .map(|i| TenantSpec {
                tenant: TenantId(i as u32),
                arrivals: per_tenant,
                rate_per_sec: 0.05 * (i + 1) as f64,
                weight: (i as u32 % 3) + 1,
                max_in_flight: 2,
                sla_secs: 0.0,
            })
            .collect(),
        capacity: 3,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The arrival table is a pure function of `(seed, tenant,
    /// arrival_index)`: regenerating yields identical streams, merged in
    /// a total order, with every tenant's clock strictly increasing.
    #[test]
    fn arrival_streams_are_pure_and_ordered(
        seed in 0u64..10_000,
        model in model_strategy(),
        tenants in 1usize..5,
        per_tenant in 1usize..20,
    ) {
        let cfg = config(seed, model, tenants, per_tenant);
        let a = arrivals(&cfg);
        prop_assert_eq!(&a, &arrivals(&cfg), "arrival stream not reproducible");
        prop_assert_eq!(a.len(), tenants * per_tenant);
        for w in a.windows(2) {
            prop_assert!(
                (w[0].at, w[0].tenant, w[0].index) < (w[1].at, w[1].tenant, w[1].index),
                "merged table not totally ordered"
            );
        }
        for t in 0..tenants {
            let mine: Vec<_> = a.iter().filter(|x| x.tenant.0 as usize == t).collect();
            prop_assert_eq!(mine.len(), per_tenant);
            for (i, x) in mine.iter().enumerate() {
                prop_assert_eq!(x.index, i, "per-tenant indices must be dense");
                prop_assert!(x.at.as_secs() > 0.0 && x.at.as_secs().is_finite());
            }
            for w in mine.windows(2) {
                prop_assert!(w[0].at < w[1].at, "tenant clock must strictly increase");
            }
        }
    }

    /// Serving the same stream at `--jobs 1` and `--jobs 8` produces
    /// identical serve reports (admission order included), service
    /// samples and obs recorders — also under fault injection.
    #[test]
    fn serve_is_invariant_across_jobs(
        seed in 0u64..10_000,
        model in model_strategy(),
        tenants in 1usize..4,
        requests in 1usize..3,
        capacity in 1usize..4,
        faulty in proptest::bool::ANY,
    ) {
        let params = TrafficParams {
            seed,
            tenants,
            model,
            rate_per_sec: 0.1,
            requests_per_tenant: requests,
            capacity,
            scale_down: 25,
            jobs: 1,
            fault_rate: if faulty { 0.05 } else { 0.0 },
            ..TrafficParams::default()
        };
        let base = simulate_stream(&params);
        let threaded = simulate_stream(&TrafficParams { jobs: 8, ..params });
        prop_assert_eq!(&base.report, &threaded.report);
        prop_assert_eq!(&base.samples, &threaded.samples);
        prop_assert_eq!(&base.recorder, &threaded.recorder);

        // Serve-loop invariants on the admission witness itself.
        let r = &base.report;
        prop_assert_eq!(r.admissions.len(), tenants * requests);
        for w in r.admissions.windows(2) {
            prop_assert!(
                w[0].admitted_at <= w[1].admitted_at,
                "admission order must follow virtual time"
            );
        }
        for a in &r.admissions {
            prop_assert!(a.arrived_at <= a.admitted_at);
            prop_assert!(a.admitted_at < a.completed_at);
        }
        for (t, tr) in r.tenants.iter().enumerate() {
            prop_assert_eq!(tr.completed, requests, "tenant {} lost runs", t);
            prop_assert!(tr.ledger.total() > 0.0);
        }
        prop_assert!(r.jain_index > 0.0 && r.jain_index <= 1.0 + 1e-12);
    }
}
