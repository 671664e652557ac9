//! # dd-bench — the experiment harness
//!
//! Regenerates **every table and figure** of the DayDream paper's
//! characterization (Sec. III) and evaluation (Sec. V). Each figure has a
//! module under [`experiments`]; the `report` binary runs them:
//!
//! ```bash
//! cargo run --release -p dd-bench --bin report            # everything
//! cargo run --release -p dd-bench --bin report fig11      # one figure
//! cargo run --release -p dd-bench --bin report --quick    # smoke sizes
//! ```
//!
//! The paper's absolute numbers came from AWS Lambda hardware; this
//! harness runs on the `dd-platform` simulator, so EXPERIMENTS.md records
//! shape (who wins, by what factor) rather than absolute equality.

pub mod csv;
pub mod experiments;
pub mod figures;
pub mod report;
pub mod sweep;
pub mod traffic_sim;
pub mod workloads;

pub use csv::write_matrix_csv;
pub use sweep::{default_jobs, par_map, par_map_with};
pub use traffic_sim::{simulate_stream, TrafficOutcome, TrafficParams};
pub use workloads::{EvaluationMatrix, ExperimentContext, SchedulerKind, WorkflowEval};
