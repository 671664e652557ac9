//! Figure registry and dispatch shared by the `report` binary, the
//! repository benchmark (`perfbench/`), and the perf-equivalence test
//! suite.
//!
//! Rendering lives here (not in the binary) so that in-process consumers
//! — the benchmark timing a full report, the equivalence tests
//! byte-comparing two executor paths — produce exactly the bytes the CLI
//! prints, without shelling out.

use crate::experiments as exp;
use crate::{EvaluationMatrix, ExperimentContext, SchedulerKind};

/// Every report figure, in the order the full report prints them.
pub const FIGURES: [&str; 29] = [
    "fig1",
    "fig2",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "chi2table",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "fig12",
    "fig13",
    "fig14",
    "fig15",
    "fig16",
    "fig17",
    "fig18",
    "overhead",
    "startup",
    "sensitivity",
    "limitation",
    "distfit",
    "concurrency",
    "fixedpool",
    "scaling",
    "robustness",
    "obs",
];

/// Figures outside the full report that render on request only
/// (`report traffic`, `report zoo`): the full-report byte stream is pinned
/// by the perf-equivalence hashes.
pub const STANDALONE: [&str; 2] = ["traffic", "zoo"];

/// Whether [`render`] knows `name`.
pub fn is_known(name: &str) -> bool {
    FIGURES.contains(&name) || STANDALONE.contains(&name)
}

/// Whether a figure renders from the shared evaluation matrix (Figs.
/// 11–17) rather than computing its own sweep.
pub fn needs_matrix(name: &str) -> bool {
    matches!(
        name,
        "fig11" | "fig12" | "fig13" | "fig14" | "fig15" | "fig16" | "fig17"
    )
}

/// Renders one figure. `matrix` must be `Some` for matrix-based figures
/// (see [`needs_matrix`]); returns `None` for unknown figure names.
pub fn render(
    name: &str,
    ctx: &ExperimentContext,
    matrix: Option<&EvaluationMatrix>,
) -> Option<String> {
    let out = match name {
        "fig1" => exp::fig01::run(ctx),
        "fig2" => exp::fig02::run(ctx),
        "fig3" => exp::fig03::run(ctx),
        "fig4" => exp::fig04::run(ctx),
        "fig5" => exp::fig05::run(ctx),
        "fig6" => exp::fig06::run(ctx),
        "fig7" => exp::fig07::run(ctx),
        "chi2table" => exp::chi2table::run(ctx),
        "fig8" => exp::fig08::run(ctx),
        "fig9" => exp::fig09::run(ctx),
        "fig10" => exp::fig10::run(ctx),
        "fig11" => exp::fig11::run(matrix.expect("matrix")),
        "fig12" => exp::fig12::run(matrix.expect("matrix")),
        "fig13" => exp::fig13::run(matrix.expect("matrix")),
        "fig14" => exp::fig14::run(matrix.expect("matrix")),
        "fig15" => exp::fig15::run(matrix.expect("matrix")),
        "fig16" => exp::fig16::run(matrix.expect("matrix")),
        "fig17" => exp::fig17::run(matrix.expect("matrix")),
        "fig18" => exp::fig18::run(ctx),
        "overhead" => exp::overhead::run(ctx),
        "startup" => exp::startup::run(ctx),
        "sensitivity" => exp::sensitivity::run(ctx),
        "limitation" => exp::limitation::run(ctx),
        "distfit" => exp::distfit::run(ctx),
        "concurrency" => exp::concurrency::run(ctx),
        "fixedpool" => exp::fixedpool::run(ctx),
        "scaling" => exp::scaling::run(ctx),
        "robustness" => exp::robustness::run(ctx),
        "obs" => exp::obs::run(ctx),
        // STANDALONE figures.
        "traffic" => exp::traffic::run(ctx),
        "zoo" => exp::zoo::run(ctx),
        _ => return None,
    };
    Some(out)
}

/// Renders a selection of figures (plus optionally the ablations
/// appendix) into the exact bytes the `report` CLI writes to stdout for
/// that selection: header line, each figure's output, each terminated by
/// a newline.
///
/// Unknown names are skipped; the CLI rejects them before calling this.
pub fn render_report(
    ctx: &ExperimentContext,
    selected: &[&str],
    include_ablations: bool,
) -> String {
    let needs = selected.iter().any(|f| needs_matrix(f));
    let matrix = needs.then(|| EvaluationMatrix::compute_for(ctx, &SchedulerKind::PAPER));
    let mut out = String::new();
    out.push_str(&format!(
        "DayDream reproduction report — seed {}, {} runs/workflow, phase scale 1/{}\n",
        ctx.seed, ctx.runs_per_workflow, ctx.scale_down
    ));
    for name in selected {
        if let Some(fig) = render(name, ctx, matrix.as_ref()) {
            out.push_str(&fig);
            out.push('\n');
        }
    }
    if include_ablations {
        out.push_str(&exp::ablations::run(ctx));
        out.push('\n');
    }
    out
}

/// Renders the complete report — every figure plus ablations — exactly
/// as `report` with no arguments prints it.
pub fn render_full_report(ctx: &ExperimentContext) -> String {
    render_report(ctx, &FIGURES, true)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_figures_render_at_smoke_scale() {
        let ctx = ExperimentContext {
            runs_per_workflow: 2,
            scale_down: 25,
            jobs: 1,
            ..ExperimentContext::default()
        };
        let matrix = EvaluationMatrix::compute_for(&ctx, &SchedulerKind::PAPER);
        for name in FIGURES.into_iter().chain(STANDALONE) {
            assert!(is_known(name));
            let out = render(name, &ctx, Some(&matrix)).expect("known figure");
            assert!(!out.is_empty(), "{name} rendered empty");
        }
        assert!(render("no-such-figure", &ctx, None).is_none());
        assert!(!is_known("no-such-figure"));
    }
}
