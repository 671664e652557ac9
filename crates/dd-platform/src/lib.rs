//! # dd-platform — execution substrates
//!
//! The cloud infrastructure the DayDream paper runs on, rebuilt as
//! simulators:
//!
//! * [`faas`] — the serverless platform: a pool of two-tier microVM
//!   function instances with hot / warm / cold start semantics, driven by
//!   a pluggable [`sched::ServerlessScheduler`] (DayDream, Wild, Oracle all
//!   implement it),
//! * [`cluster`] — fixed-size node clusters with co-location contention,
//!   the substrate of the Pegasus baseline and of the Fig. 4
//!   HPC / VM / container / microVM comparison,
//! * [`des`] — a small discrete-event simulation core,
//! * [`tier`], [`pricing`], [`startup`], [`contention`], [`storage`] — the
//!   resource envelopes, billing, start-up latency, CPU-steal, and
//!   back-end storage models, each calibrated to the constants the paper
//!   reports (Sec. IV–V),
//! * [`pool`], [`telemetry`] — instance-pool bookkeeping and the cost /
//!   metrics ledger every experiment reads,
//! * [`policy`] — the pluggable [`policy::SchedulerPolicy`] surface, the
//!   deterministic name-keyed [`policy::PolicyRegistry`] behind
//!   `--policy <name>`, and [`policy::run_policy`], the one dispatch
//!   that runs a build on its substrate,
//! * [`faults`] — the deterministic fault-injection and recovery engine
//!   (retry / timeout / backoff / speculation) shared by both executors.
//!
//! ```
//! use dd_platform::{BackendStore, SimTime};
//!
//! // The control plane: the store notifies at half completion (DayDream's
//! // hot-start trigger) and at full completion (next phase starts).
//! let mut store = BackendStore::new();
//! store.begin_phase(0, 4);
//! for (i, t) in [4.0, 1.0, 3.0, 2.0].into_iter().enumerate() {
//!     store.record_output(0, SimTime::from_secs(t), i as f64);
//! }
//! let n = store.notifications(0);
//! assert_eq!(n.half_complete, SimTime::from_secs(2.0));
//! assert_eq!(n.complete, SimTime::from_secs(4.0));
//! ```

// The DES hot path must not panic on un-modelled states: every unwrap is
// either rewritten as a dd_invariant! or individually justified (see the
// workspace lint policy in Cargo.toml and crates/dd-lint).
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

#[macro_use]
pub mod invariant;

mod books;
pub mod cluster;
pub mod contention;
pub mod counters;
pub mod des;
pub mod executor;
pub mod faas;
pub mod faas_des;
pub mod faults;
pub mod instance;
pub mod policy;
pub mod pool;
pub mod pricing;
pub mod sched;
pub mod startup;
pub mod storage;
pub mod telemetry;
pub mod tier;
pub mod trace;
pub mod traffic;

pub use cluster::{ClusterKind, ClusterSim};
pub use contention::ContentionModel;
pub use des::{BinaryHeapEventQueue, EventQueue, RadixEventQueue, SimTime};
pub use executor::{Executor, RunReport, RunRequest};
pub use faas::{FaasConfig, FaasExecutor, PoolTrigger};
pub use faas_des::{DesFaasExecutor, DesSession};
pub use faults::{
    Attempt, AttemptOutcome, ComponentTimeline, FaultConfig, FaultKind, FaultPlan, FaultStats,
    RecoveryPolicy,
};
pub use instance::{InstanceLifecycle, InstanceState};
pub use policy::{
    run_policy, BuiltScheduler, ClusterPolicy, PolicyContext, PolicyFactory, PolicyRegistry,
    SchedulerPolicy, Substrate,
};
pub use pool::{InstanceId, InstanceView, PoolEntryRequest, PoolRequest, PooledInstance};
pub use pricing::{CloudVendor, PriceSheet};
pub use sched::{
    PhaseObservation, Placement, RunInfo, SchedulerEvent, ServerlessScheduler, StartKind,
    StorageHints,
};
pub use startup::StartupModel;
pub use storage::BackendStore;
pub use telemetry::{CostLedger, PhaseRecord, RunOutcome, Utilization};
pub use tier::Tier;
pub use trace::{AttemptTrace, ComponentTrace, ExecutionTrace, PoolTrace};
pub use traffic::{
    arrivals, jain_index, plan_shared_pool, AdmissionRecord, Arrival, ArrivalModel, FrontDoor,
    ServeReport, ServiceSample, SharedPoolPlan, TenantId, TenantReport, TenantSpec, TrafficConfig,
};

/// Everything a caller needs to build and execute runs through the
/// unified [`Executor`] API, importable in one line:
///
/// ```
/// use dd_platform::prelude::*;
/// ```
///
/// Re-exports the executor trait and its request/report types, both
/// executors, the scheduler interface, the telemetry types every
/// experiment reads, and the [`dd_obs`] recorder surface.
pub mod prelude {
    pub use crate::executor::{metrics, Executor, RunReport, RunRequest};
    pub use crate::faas::{FaasConfig, FaasExecutor, PoolTrigger};
    pub use crate::faas_des::{DesFaasExecutor, DesSession};
    pub use crate::faults::{FaultConfig, FaultStats, RecoveryPolicy};
    pub use crate::policy::{
        run_policy, BuiltScheduler, ClusterPolicy, PolicyContext, PolicyRegistry, SchedulerPolicy,
        Substrate,
    };
    pub use crate::sched::{
        PhaseObservation, Placement, RunInfo, SchedulerEvent, ServerlessScheduler, StartKind,
        StorageHints,
    };
    pub use crate::telemetry::{CostLedger, PhaseRecord, RunOutcome, Utilization};
    pub use crate::trace::ExecutionTrace;
    pub use crate::traffic::{
        ArrivalModel, FrontDoor, ServeReport, ServiceSample, TenantId, TenantSpec, TrafficConfig,
    };
    pub use dd_obs::{MemoryRecorder, MetricsRegistry, NoopRecorder, Recorder};
}
