//! Argument parsing for `daydream-cli` (hand-rolled; the workspace's
//! dependency policy has no CLI crate).

use dd_platform::traffic::ArrivalModel;
use dd_platform::RecoveryPolicy;
use dd_wfdag::Workflow;
use std::path::PathBuf;
use std::str::FromStr;

/// Parses a `--policy` value: `help` lists the registry, anything else
/// must be a registered policy name (the registry's unknown-name error —
/// which lists every known policy — propagates verbatim).
fn parse_policy(s: &str) -> Result<PolicyArg, String> {
    if s.eq_ignore_ascii_case("help") || s.eq_ignore_ascii_case("list") {
        return Ok(PolicyArg::Help);
    }
    let registry = dd_baselines::registry();
    registry.create(s)?;
    Ok(PolicyArg::Named(s.to_ascii_lowercase()))
}

/// A parsed `--policy` value.
enum PolicyArg {
    /// `--policy help`: print the registry listing and exit.
    Help,
    /// A validated registered policy name, lowercased.
    Named(String),
}

/// Observability export format (`--obs`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObsFormat {
    /// One JSON object per trace event, plus the metric table.
    Jsonl,
    /// chrome://tracing / Perfetto `trace.json`.
    Chrome,
    /// Human-readable per-phase timing and metric tables.
    Summary,
}

impl ObsFormat {
    /// Parses a format name.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s.to_ascii_lowercase().as_str() {
            "jsonl" => Ok(Self::Jsonl),
            "chrome" => Ok(Self::Chrome),
            "summary" => Ok(Self::Summary),
            other => Err(format!("unknown --obs format '{other}'")),
        }
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Self::Jsonl => "jsonl",
            Self::Chrome => "chrome",
            Self::Summary => "summary",
        }
    }

    /// Per-run export file name.
    pub fn file_name(self) -> &'static str {
        match self {
            Self::Jsonl => "obs.jsonl",
            Self::Chrome => "trace.json",
            Self::Summary => "obs_summary.txt",
        }
    }
}

/// Parameters shared by `run` and `verify`.
#[derive(Debug, Clone, PartialEq)]
pub struct RunArgs {
    /// Which workflow.
    pub workflow: Workflow,
    /// Number of runs (artifact: 50).
    pub runs: usize,
    /// Scheduler policy name (a [`dd_baselines::registry`] entry,
    /// validated at parse time).
    pub policy: String,
    /// Root seed.
    pub seed: u64,
    /// Phase-count divisor (1 = paper scale).
    pub scale: usize,
    /// Output directory.
    pub out: PathBuf,
    /// Verification tolerance, fractional (verify only; artifact: 0.10).
    pub tolerance: f64,
    /// Worker threads for executing runs (default: all cores). Results
    /// are byte-identical at any setting.
    pub jobs: usize,
    /// Uniform fault-injection rate across all fault kinds (default 0 =
    /// clean execution, byte-identical to builds without the fault
    /// engine).
    pub fault_rate: f64,
    /// Seed for the deterministic fault plan (independent of `--seed`
    /// so fault placement can be varied without regenerating runs).
    pub fault_seed: u64,
    /// Recovery policy for faulted attempts
    /// (none|backoff|timeout|speculate).
    pub retry_policy: RecoveryPolicy,
    /// Observability export written per run (None = recording off, the
    /// zero-cost no-op recorder).
    pub obs: Option<ObsFormat>,
    /// Directory for the observability exports (defaults to `--out`).
    pub obs_out: Option<PathBuf>,
}

/// Parameters of `serve` (the multi-tenant front door).
#[derive(Debug, Clone, PartialEq)]
pub struct ServeArgs {
    /// Concurrent tenant streams (`--tenants`).
    pub tenants: usize,
    /// Interarrival model (`--arrival`).
    pub model: ArrivalModel,
    /// Mean per-tenant arrival rate, runs per virtual second (`--rate`).
    pub rate: f64,
    /// Runs each tenant submits (`--requests`).
    pub requests: usize,
    /// Shared capacity: runs in flight at once across all tenants.
    pub capacity: usize,
    /// Root seed (arrivals, run generation, schedulers).
    pub seed: u64,
    /// Phase-count divisor (1 = paper scale).
    pub scale: usize,
    /// Worker threads for the per-run fan-out; output is byte-identical
    /// at any setting.
    pub jobs: usize,
    /// Output directory for `serve_report.txt` + `admissions.csv`
    /// (omitted = stdout only).
    pub out: Option<PathBuf>,
    /// Uniform fault-injection rate for every run (0 = clean).
    pub fault_rate: f64,
    /// Fault-injection seed (salted per tenant).
    pub fault_seed: u64,
    /// Scheduler policy serving every tenant (`--policy`).
    pub policy: String,
    /// Observability export of the front-door stream (None = off).
    pub obs: Option<ObsFormat>,
    /// Directory for the observability export (defaults to `--out`).
    pub obs_out: Option<PathBuf>,
}

/// A parsed CLI invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Execute runs and write output files.
    Run(RunArgs),
    /// Re-execute and compare against existing output files.
    Verify(RunArgs),
    /// Serve a multi-tenant arrival stream through the front door.
    Serve(ServeArgs),
    /// Print the registered-policy listing (`--policy help`).
    PolicyHelp,
    /// Print workload facts.
    Info,
    /// Print usage.
    Help,
}

fn parse_workflow(s: &str) -> Result<Workflow, String> {
    match s.to_ascii_lowercase().as_str() {
        "exafel" => Ok(Workflow::ExaFel),
        "cosmoscout" | "cosmoscout-vr" | "cosmoscoutvr" => Ok(Workflow::CosmoscoutVr),
        "ccl" => Ok(Workflow::Ccl),
        other => Err(format!("unknown workflow '{other}'")),
    }
}

/// One `--flag value` pair. The value is checked only when read, so an
/// unknown trailing flag still reports as unknown.
struct Flag<'a> {
    name: &'a str,
    value: Option<&'a str>,
}

impl<'a> Flag<'a> {
    fn value(&self) -> Result<&'a str, String> {
        self.value
            .ok_or_else(|| format!("{} requires a value", self.name))
    }

    /// The value parsed as `T`; `what` names the expected kind in the
    /// error ("a number", "a probability").
    fn parsed<T: FromStr>(&self, what: &str) -> Result<T, String> {
        self.value()?
            .parse()
            .map_err(|_| format!("{} takes {what}", self.name))
    }
}

/// The flags `run`, `verify` and `serve` share, parsed in one place by
/// [`parse_flags`]; each command seeds its own defaults.
struct SharedFlags {
    policy: String,
    seed: u64,
    scale: usize,
    jobs: usize,
    out: Option<PathBuf>,
    fault_rate: f64,
    fault_seed: u64,
    obs: Option<ObsFormat>,
    obs_out: Option<PathBuf>,
}

impl SharedFlags {
    /// The defaults of every command but the fault seed.
    fn with_fault_seed(fault_seed: u64) -> Self {
        Self {
            policy: "daydream".to_string(),
            seed: 0xDA1D,
            scale: 1,
            jobs: dd_bench::default_jobs(),
            out: None,
            fault_rate: 0.0,
            fault_seed,
            obs: None,
            obs_out: None,
        }
    }
}

/// Walks the `--flag value` pairs of `args`: shared flags land in
/// `shared`, the rest go to `own`, which returns `Ok(false)` for a flag
/// the command does not know. Returns `Ok(false)` when `--policy help`
/// asks for the registry listing instead of a run.
fn parse_flags(
    args: &[String],
    shared: &mut SharedFlags,
    mut own: impl FnMut(&Flag<'_>) -> Result<bool, String>,
) -> Result<bool, String> {
    for pair in args.chunks(2) {
        let flag = Flag {
            name: &pair[0],
            value: pair.get(1).map(String::as_str),
        };
        match flag.name {
            "--policy" => match parse_policy(flag.value()?)? {
                PolicyArg::Help => return Ok(false),
                PolicyArg::Named(name) => shared.policy = name,
            },
            "--seed" => shared.seed = flag.parsed("a number")?,
            "--scale" => shared.scale = flag.parsed::<usize>("a number")?.max(1),
            "--jobs" => shared.jobs = flag.parsed::<usize>("a number")?.max(1),
            "--out" => shared.out = Some(PathBuf::from(flag.value()?)),
            "--fault-rate" => {
                shared.fault_rate = flag.parsed("a probability")?;
                if !(0.0..=1.0).contains(&shared.fault_rate) {
                    return Err("--fault-rate must be within [0, 1]".to_string());
                }
            }
            "--fault-seed" => shared.fault_seed = flag.parsed("a number")?,
            "--obs" => shared.obs = Some(ObsFormat::parse(flag.value()?)?),
            "--obs-out" => shared.obs_out = Some(PathBuf::from(flag.value()?)),
            name => {
                if !own(&flag)? {
                    return Err(format!("unknown flag '{name}'"));
                }
            }
        }
    }
    if shared.obs_out.is_some() && shared.obs.is_none() {
        return Err("--obs-out requires --obs".to_string());
    }
    Ok(true)
}

/// Parses CLI arguments into a [`Command`].
pub fn parse_args(args: &[String]) -> Result<Command, String> {
    let Some(verb) = args.first() else {
        return Ok(Command::Help);
    };
    match verb.as_str() {
        "help" | "--help" | "-h" => return Ok(Command::Help),
        "info" => return Ok(Command::Info),
        "serve" => return parse_serve(&args[1..]),
        "run" | "verify" => {}
        other => return Err(format!("unknown command '{other}'")),
    }

    let mut shared = SharedFlags::with_fault_seed(0);
    let mut workflow = None;
    let mut runs = 50usize;
    let mut tolerance = 0.10f64;
    let mut retry_policy = RecoveryPolicy::backoff();
    let listed = parse_flags(&args[1..], &mut shared, |flag| {
        match flag.name {
            "--workflow" => workflow = Some(parse_workflow(flag.value()?)?),
            "--runs" => {
                runs = flag.parsed("a number")?;
                if runs == 0 {
                    return Err("--runs must be at least 1".to_string());
                }
            }
            "--tolerance" => {
                let pct: f64 = flag.parsed("a percentage")?;
                // NaN, infinite and negative bounds would pass or fail
                // every run regardless of its deviation.
                if !(pct.is_finite() && pct >= 0.0) {
                    return Err("--tolerance must be a finite percentage >= 0".to_string());
                }
                tolerance = pct / 100.0;
            }
            "--retry-policy" => retry_policy = RecoveryPolicy::parse(flag.value()?)?,
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    if !listed {
        return Ok(Command::PolicyHelp);
    }

    let run_args = RunArgs {
        workflow: workflow.ok_or("--workflow is required")?,
        runs,
        policy: shared.policy,
        seed: shared.seed,
        scale: shared.scale,
        out: shared.out.ok_or("--out is required")?,
        tolerance,
        jobs: shared.jobs,
        fault_rate: shared.fault_rate,
        fault_seed: shared.fault_seed,
        retry_policy,
        obs: shared.obs,
        obs_out: shared.obs_out,
    };
    Ok(if verb == "run" {
        Command::Run(run_args)
    } else {
        Command::Verify(run_args)
    })
}

/// Parses `serve` flags (`args` excludes the verb).
fn parse_serve(args: &[String]) -> Result<Command, String> {
    let mut shared = SharedFlags::with_fault_seed(7);
    let mut tenants = 4;
    let mut model = ArrivalModel::Poisson;
    let mut rate = 0.05f64;
    let mut requests = 8;
    let mut capacity = 4;
    let listed = parse_flags(args, &mut shared, |flag| {
        match flag.name {
            "--tenants" => {
                tenants = flag.parsed("a number")?;
                if tenants == 0 {
                    return Err("--tenants must be at least 1".to_string());
                }
            }
            "--arrival" => model = ArrivalModel::parse(flag.value()?)?,
            "--rate" => {
                rate = flag.parsed("a number")?;
                if !(rate > 0.0 && rate.is_finite()) {
                    return Err("--rate must be a positive rate".to_string());
                }
            }
            "--requests" => {
                requests = flag.parsed("a number")?;
                if requests == 0 {
                    return Err("--requests must be at least 1".to_string());
                }
            }
            "--capacity" => capacity = flag.parsed::<usize>("a number")?.max(1),
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    if !listed {
        return Ok(Command::PolicyHelp);
    }
    if shared.obs.is_some() && shared.obs_out.is_none() && shared.out.is_none() {
        return Err("--obs requires --out or --obs-out".to_string());
    }
    Ok(Command::Serve(ServeArgs {
        tenants,
        model,
        rate,
        requests,
        capacity,
        seed: shared.seed,
        scale: shared.scale,
        jobs: shared.jobs,
        out: shared.out,
        fault_rate: shared.fault_rate,
        fault_seed: shared.fault_seed,
        policy: shared.policy,
        obs: shared.obs,
        obs_out: shared.obs_out,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strs(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_run_command() {
        let cmd = parse_args(&strs(&[
            "run",
            "--workflow",
            "ccl",
            "--runs",
            "5",
            "--out",
            "/tmp/x",
        ]))
        .unwrap();
        match cmd {
            Command::Run(a) => {
                assert_eq!(a.workflow, Workflow::Ccl);
                assert_eq!(a.runs, 5);
                assert_eq!(a.policy, "daydream");
                assert_eq!(a.out, PathBuf::from("/tmp/x"));
            }
            other => panic!("wrong command: {other:?}"),
        }
        // `--runs 0` would write nothing and still report success.
        assert_eq!(
            parse_args(&strs(&[
                "run",
                "--workflow",
                "ccl",
                "--runs",
                "0",
                "--out",
                "/tmp/x",
            ])),
            Err("--runs must be at least 1".to_string())
        );
    }

    #[test]
    fn parses_verify_with_tolerance() {
        let cmd = parse_args(&strs(&[
            "verify",
            "--workflow",
            "exafel",
            "--out",
            "o",
            "--tolerance",
            "5",
        ]))
        .unwrap();
        match cmd {
            Command::Verify(a) => {
                assert_eq!(a.workflow, Workflow::ExaFel);
                assert!((a.tolerance - 0.05).abs() < 1e-12);
            }
            other => panic!("wrong command: {other:?}"),
        }
        // A zero bound is in range.
        let zero = strs(&[
            "verify",
            "--workflow",
            "ccl",
            "--out",
            "o",
            "--tolerance",
            "0",
        ]);
        assert!(parse_args(&zero).is_ok());
    }

    #[test]
    fn tolerance_must_be_finite_and_non_negative() {
        // NaN and infinite bounds pass tampered artifacts; a negative one
        // fails exact reproductions.
        for bad in ["nan", "NaN", "inf", "-inf", "-5", "-0.001"] {
            let argv = strs(&[
                "verify",
                "--workflow",
                "ccl",
                "--out",
                "o",
                "--tolerance",
                bad,
            ]);
            assert_eq!(
                parse_args(&argv),
                Err("--tolerance must be a finite percentage >= 0".to_string()),
                "--tolerance {bad}"
            );
        }
    }

    #[test]
    fn parses_jobs_flag() {
        let cmd = parse_args(&strs(&[
            "run",
            "--workflow",
            "ccl",
            "--out",
            "x",
            "--jobs",
            "4",
        ]))
        .unwrap();
        match cmd {
            Command::Run(a) => assert_eq!(a.jobs, 4),
            other => panic!("wrong command: {other:?}"),
        }
        // 0 clamps to 1; a bad value errors.
        let cmd = parse_args(&strs(&[
            "run",
            "--workflow",
            "ccl",
            "--out",
            "x",
            "--jobs",
            "0",
        ]))
        .unwrap();
        match cmd {
            Command::Run(a) => assert_eq!(a.jobs, 1),
            other => panic!("wrong command: {other:?}"),
        }
        assert!(parse_args(&strs(&[
            "run",
            "--workflow",
            "ccl",
            "--out",
            "x",
            "--jobs",
            "many",
        ]))
        .is_err());
    }

    #[test]
    fn parses_fault_flags() {
        let cmd = parse_args(&strs(&[
            "run",
            "--workflow",
            "ccl",
            "--out",
            "x",
            "--fault-rate",
            "0.05",
            "--fault-seed",
            "99",
            "--retry-policy",
            "speculate",
        ]))
        .unwrap();
        match cmd {
            Command::Run(a) => {
                assert!((a.fault_rate - 0.05).abs() < 1e-12);
                assert_eq!(a.fault_seed, 99);
                assert_eq!(a.retry_policy, RecoveryPolicy::speculative());
            }
            other => panic!("wrong command: {other:?}"),
        }
        // Defaults: clean execution with the backoff policy armed.
        match parse_args(&strs(&["run", "--workflow", "ccl", "--out", "x"])).unwrap() {
            Command::Run(a) => {
                assert!(a.fault_rate.abs() < 1e-12);
                assert_eq!(a.fault_seed, 0);
                assert_eq!(a.retry_policy, RecoveryPolicy::backoff());
            }
            other => panic!("wrong command: {other:?}"),
        }
        // Out-of-range rate and unknown policy both error.
        assert!(parse_args(&strs(&[
            "run",
            "--workflow",
            "ccl",
            "--out",
            "x",
            "--fault-rate",
            "1.5",
        ]))
        .is_err());
        assert!(parse_args(&strs(&[
            "run",
            "--workflow",
            "ccl",
            "--out",
            "x",
            "--retry-policy",
            "pray",
        ]))
        .is_err());
    }

    #[test]
    fn parses_obs_flags() {
        let cmd = parse_args(&strs(&[
            "run",
            "--workflow",
            "ccl",
            "--out",
            "x",
            "--obs",
            "chrome",
            "--obs-out",
            "obs-dir",
        ]))
        .unwrap();
        match cmd {
            Command::Run(a) => {
                assert_eq!(a.obs, Some(ObsFormat::Chrome));
                assert_eq!(a.obs_out, Some(PathBuf::from("obs-dir")));
            }
            other => panic!("wrong command: {other:?}"),
        }
        // Defaults: recording off, exports land under --out.
        match parse_args(&strs(&["run", "--workflow", "ccl", "--out", "x"])).unwrap() {
            Command::Run(a) => {
                assert_eq!(a.obs, None);
                assert_eq!(a.obs_out, None);
            }
            other => panic!("wrong command: {other:?}"),
        }
        // Unknown format and an --obs-out without --obs both error.
        assert!(parse_args(&strs(&[
            "run",
            "--workflow",
            "ccl",
            "--out",
            "x",
            "--obs",
            "xml",
        ]))
        .is_err());
        assert!(parse_args(&strs(&[
            "run",
            "--workflow",
            "ccl",
            "--out",
            "x",
            "--obs-out",
            "obs-dir",
        ]))
        .is_err());
    }

    #[test]
    fn obs_format_names_roundtrip() {
        for name in ["jsonl", "chrome", "summary"] {
            assert_eq!(ObsFormat::parse(name).unwrap().name(), name);
        }
        assert_eq!(ObsFormat::Jsonl.file_name(), "obs.jsonl");
        assert_eq!(ObsFormat::Chrome.file_name(), "trace.json");
        assert_eq!(ObsFormat::Summary.file_name(), "obs_summary.txt");
    }

    #[test]
    fn policy_flag_accepts_every_registered_name() {
        for name in dd_baselines::registry().names() {
            let cmd = parse_args(&strs(&[
                "run",
                "--workflow",
                "ccl",
                "--out",
                "x",
                "--policy",
                name,
            ]))
            .unwrap();
            match cmd {
                Command::Run(a) => assert_eq!(a.policy, name),
                other => panic!("wrong command: {other:?}"),
            }
        }
    }

    #[test]
    fn policy_help_lists_instead_of_running() {
        for argv in [
            vec!["run", "--policy", "help"],
            vec!["serve", "--policy", "list"],
        ] {
            assert_eq!(parse_args(&strs(&argv)).unwrap(), Command::PolicyHelp);
        }
    }

    #[test]
    fn unknown_policy_error_snapshot() {
        // Snapshot of the registry's unknown-name message: it must name
        // every registered policy in registration order. Change it
        // deliberately.
        let err = parse_args(&strs(&[
            "run",
            "--workflow",
            "ccl",
            "--out",
            "x",
            "--policy",
            "slurm",
        ]))
        .expect_err("slurm must not resolve");
        assert_eq!(
            err,
            "unknown policy 'slurm' (known policies: daydream, oracle, wild, pegasus, \
             naive, hybrid, fixed-pool, icps, wukong)"
        );
    }

    #[test]
    fn workflow_aliases() {
        assert_eq!(
            parse_workflow("cosmoscout-vr").unwrap(),
            Workflow::CosmoscoutVr
        );
        assert_eq!(
            parse_workflow("COSMOSCOUT").unwrap(),
            Workflow::CosmoscoutVr
        );
        assert!(parse_workflow("montage").is_err());
    }

    #[test]
    fn missing_required_flags_error() {
        assert!(parse_args(&strs(&["run", "--out", "x"])).is_err());
        assert!(parse_args(&strs(&["run", "--workflow", "ccl"])).is_err());
        assert!(parse_args(&strs(&["run", "--workflow"])).is_err());
        assert!(parse_args(&strs(&["frobnicate"])).is_err());
    }

    #[test]
    fn parses_serve_command() {
        // Defaults: a 4-tenant Poisson stream, fault seed 7.
        match parse_args(&strs(&["serve"])).unwrap() {
            Command::Serve(a) => {
                assert_eq!(a.tenants, 4);
                assert_eq!(a.model, ArrivalModel::Poisson);
                assert!((a.rate - 0.05).abs() < 1e-12);
                assert_eq!(a.requests, 8);
                assert_eq!(a.capacity, 4);
                assert_eq!(a.fault_seed, 7);
                assert_eq!(a.scale, 1);
                assert_eq!(a.out, None);
                assert_eq!(a.obs, None);
            }
            other => panic!("wrong command: {other:?}"),
        }
        let cmd = parse_args(&strs(&[
            "serve",
            "--tenants",
            "6",
            "--arrival",
            "bursty",
            "--rate",
            "0.2",
            "--requests",
            "3",
            "--capacity",
            "2",
            "--scale",
            "25",
            "--jobs",
            "2",
            "--out",
            "served",
            "--obs",
            "jsonl",
        ]))
        .unwrap();
        match cmd {
            Command::Serve(a) => {
                assert_eq!(a.tenants, 6);
                assert_eq!(a.model, ArrivalModel::Bursty);
                assert!((a.rate - 0.2).abs() < 1e-12);
                assert_eq!(a.requests, 3);
                assert_eq!(a.capacity, 2);
                assert_eq!(a.scale, 25);
                assert_eq!(a.jobs, 2);
                assert_eq!(a.out, Some(PathBuf::from("served")));
                assert_eq!(a.obs, Some(ObsFormat::Jsonl));
            }
            other => panic!("wrong command: {other:?}"),
        }
    }

    #[test]
    fn serve_flag_validation() {
        assert!(parse_args(&strs(&["serve", "--tenants", "0"])).is_err());
        assert!(parse_args(&strs(&["serve", "--rate", "-1"])).is_err());
        assert!(parse_args(&strs(&["serve", "--rate", "inf"])).is_err());
        assert!(parse_args(&strs(&["serve", "--arrival", "solar"])).is_err());
        // `--requests 0` would serve nothing and still report success.
        assert_eq!(
            parse_args(&strs(&["serve", "--requests", "0"])),
            Err("--requests must be at least 1".to_string())
        );
        assert!(parse_args(&strs(&["serve", "--fault-rate", "1.5"])).is_err());
        assert!(parse_args(&strs(&["serve", "--frobnicate", "1"])).is_err());
        // An obs export needs somewhere to land.
        assert!(parse_args(&strs(&["serve", "--obs", "jsonl"])).is_err());
        assert!(parse_args(&strs(&["serve", "--obs-out", "d"])).is_err());
        assert!(parse_args(&strs(&["serve", "--obs", "jsonl", "--obs-out", "d"])).is_ok());
    }

    #[test]
    fn empty_and_help() {
        assert_eq!(parse_args(&[]).unwrap(), Command::Help);
        assert_eq!(parse_args(&strs(&["help"])).unwrap(), Command::Help);
        assert_eq!(parse_args(&strs(&["info"])).unwrap(), Command::Info);
    }
}
