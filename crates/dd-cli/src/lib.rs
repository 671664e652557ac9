//! Library side of `daydream-cli`: argument parsing, run execution and
//! the artifact's per-run output files.
//!
//! Kept as a library so the whole command surface is unit-testable
//! without spawning processes.

pub mod args;
pub mod output;
pub mod runner;

pub use args::{parse_args, Command, ObsFormat, RunArgs, ServeArgs};
pub use output::{read_series, write_obs, write_run_outputs, RunFiles};
pub use runner::{execute_all, run_command, run_serve, verify_against};

/// CLI usage text.
pub const USAGE: &str = "\
daydream-cli — execute dynamic scientific workflows with hot starts

USAGE:
    daydream-cli run    --workflow <exafel|cosmoscout|ccl> [--runs N] [--policy P]
                        [--seed N] [--scale N] [--jobs N] --out <dir>
                        [--fault-rate P] [--fault-seed N] [--retry-policy R]
                        [--obs FMT] [--obs-out <dir>]
    daydream-cli verify --workflow <exafel|cosmoscout|ccl> [--runs N] [--policy P]
                        [--seed N] [--scale N] [--jobs N] --out <dir> [--tolerance PCT]
                        [--fault-rate P] [--fault-seed N] [--retry-policy R]
    daydream-cli serve  [--tenants N] [--arrival <poisson|bursty|diurnal>] [--rate R]
                        [--requests N] [--capacity N]
                        [--seed N] [--scale N] [--jobs N] [--out <dir>] [--policy P]
                        [--fault-rate P] [--fault-seed N] [--obs FMT] [--obs-out <dir>]
    daydream-cli info
    daydream-cli help

POLICIES: daydream (default), oracle, wild, pegasus, naive, hybrid,
          fixed-pool, icps, wukong — `--policy help` lists them with
          summaries
RETRY POLICIES: none, backoff (default), timeout, speculate
OBS FORMATS: jsonl, chrome, summary

`run` executes N runs (default 50) and writes run-1/ .. run-N/ under
--out, each containing phase_time.txt, function_service_time.txt and
execution_cost.txt — the paper artifact's per-run files. `verify`
re-executes and compares against existing files, succeeding when every
aggregate matches within the tolerance (default 10%, the artifact's
reproduction bound). Both execute runs on --jobs worker threads
(default: all cores); output is byte-identical at any setting.

--fault-rate injects failures (transient errors, crashes, start
failures, storage hiccups, stragglers) uniformly at probability P per
component attempt, recovered per --retry-policy; placement is fully
determined by --fault-seed, so faulty runs reproduce exactly. The
default P = 0 executes cleanly and matches fault-free output byte for
byte.

`serve` runs the multi-tenant front door: N tenant streams (round-robin
over the three workflows, tenant t0 at fair-share weight 2) submit runs
at mean rate R per virtual second under the chosen arrival model, admitted
by deficit-round-robin onto a shared hot pool sized from the merged
per-tenant concurrency histograms. The per-tenant report (admission
delay, sojourn, SLA attainment, attributed cost) prints to stdout; with
--out it also writes serve_report.txt and admissions.csv, and --obs adds
the front-door event stream. Each run executes on the discrete-event
executor; every byte is identical at any --jobs setting.

--obs enables the deterministic observability recorder and writes one
export per run next to the artifact files (obs.jsonl, trace.json for
chrome://tracing, or obs_summary.txt); --obs-out redirects them to a
separate directory. All timestamps come from the simulator's virtual
clock, so exports are byte-identical at any --jobs setting. Without
--obs the no-op recorder runs and output bytes are unchanged.";
