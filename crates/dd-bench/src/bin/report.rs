//! The experiment report CLI: regenerates every table and figure of the
//! DayDream paper.
//!
//! ```bash
//! report                 # all figures, paper scale (50 runs/workflow)
//! report --quick         # smoke scale (8 runs, phases ÷ 10)
//! report fig11 fig14     # specific figures
//! report --runs 10       # override runs per workflow
//! report --seed 7        # different seed
//! report --scale 5       # phase-count divisor
//! report --jobs 8        # sweep worker threads (default: all cores)
//! ```
//!
//! Output is byte-identical at any `--jobs` setting: each run's
//! randomness derives only from (workflow, run index, seed), and the
//! sweep executor re-orders results by cell index.

use dd_bench::experiments as exp;
use dd_bench::figures::{self, FIGURES};
use dd_bench::{EvaluationMatrix, ExperimentContext, SchedulerKind};

/// One parsed `report` invocation.
struct Invocation {
    ctx: ExperimentContext,
    selected: Vec<String>,
    include_ablations: bool,
    csv_dir: Option<std::path::PathBuf>,
}

fn usage() -> String {
    format!(
        "usage: report [--quick] [--runs N] [--seed N] [--scale N] [--jobs N] [--csv DIR] [figures...]\n\
         figures: {} {} ablations all",
        FIGURES.join(" "),
        figures::STANDALONE.join(" ")
    )
}

fn number<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("{flag} takes a number, got '{value}'"))
}

/// Parses the arguments; `Ok(None)` means `--help`. Every name is checked
/// before any work starts, so a typo fails fast instead of being skipped.
fn parse(args: &[String]) -> Result<Option<Invocation>, String> {
    let mut ctx = ExperimentContext::default();
    let mut selected: Vec<String> = Vec::new();
    let mut include_ablations = false;
    let mut explicit_selection = false;
    let mut csv_dir = None;

    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        let mut value = || {
            i += 1;
            args.get(i)
                .ok_or_else(|| format!("{flag} requires a value"))
        };
        match flag {
            "--quick" => {
                ctx = ExperimentContext {
                    seed: ctx.seed,
                    jobs: ctx.jobs,
                    ..ExperimentContext::quick()
                };
            }
            "--runs" => {
                ctx.runs_per_workflow = number(flag, value()?)?;
                if ctx.runs_per_workflow == 0 {
                    return Err("--runs must be at least 1".to_string());
                }
            }
            "--seed" => ctx.seed = number(flag, value()?)?,
            "--scale" => ctx.scale_down = number(flag, value()?)?,
            "--jobs" => ctx.jobs = number::<usize>(flag, value()?)?.max(1),
            "--csv" => csv_dir = Some(std::path::PathBuf::from(value()?)),
            "--help" | "-h" => return Ok(None),
            "ablations" => {
                include_ablations = true;
                explicit_selection = true;
            }
            "all" => {
                selected = FIGURES.iter().map(|s| s.to_string()).collect();
                include_ablations = true;
                explicit_selection = true;
            }
            name if figures::is_known(name) => {
                selected.push(name.to_string());
                explicit_selection = true;
            }
            other if other.starts_with('-') => return Err(format!("unknown flag '{other}'")),
            other => return Err(format!("unknown figure '{other}'")),
        }
        i += 1;
    }
    if !explicit_selection {
        selected = FIGURES.iter().map(|s| s.to_string()).collect();
        include_ablations = true;
    }
    Ok(Some(Invocation {
        ctx,
        selected,
        include_ablations,
        csv_dir,
    }))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Invocation {
        ctx,
        selected,
        include_ablations,
        csv_dir,
    } = match parse(&args) {
        Ok(Some(invocation)) => invocation,
        Ok(None) => {
            eprintln!("{}", usage());
            return;
        }
        Err(e) => {
            eprintln!("report: {e}\n{}", usage());
            std::process::exit(2);
        }
    };

    println!(
        "DayDream reproduction report — seed {}, {} runs/workflow, phase scale 1/{}",
        ctx.seed, ctx.runs_per_workflow, ctx.scale_down
    );

    // The evaluation figures share one matrix; compute it lazily.
    let needs_matrix =
        csv_dir.is_some() || selected.iter().any(|f| figures::needs_matrix(f.as_str()));
    let matrix = needs_matrix.then(|| {
        eprintln!(
            "[computing evaluation matrix: 3 workflows x {} runs x {} schedulers...]",
            ctx.runs_per_workflow,
            SchedulerKind::PAPER.len()
        );
        EvaluationMatrix::compute_for(&ctx, &SchedulerKind::PAPER)
    });

    for figure in &selected {
        let out = figures::render(figure.as_str(), &ctx, matrix.as_ref())
            .expect("figure names are checked while parsing");
        println!("{out}");
    }
    if include_ablations {
        println!("{}", exp::ablations::run(&ctx));
    }
    if let (Some(dir), Some(matrix)) = (csv_dir, matrix.as_ref()) {
        match dd_bench::write_matrix_csv(matrix, &dir) {
            Ok(files) => eprintln!("[wrote {} to {}]", files.join(", "), dir.display()),
            Err(e) => eprintln!("csv export failed: {e}"),
        }
    }
}
