//! `report`: the full paper report — every figure plus the ablations —
//! through `figures::render_full_report`, at paper scale.
//!
//! An operation is one figure (the ablations appendix counts as one).
//! The traced run calls the same public steps one at a time:
//! `EvaluationMatrix::compute_for`, `figures::render` per figure, then
//! `ablations::run`, and assembles the identical byte stream.

use crate::pass::{PassArgs, PassOut, Size, WHOLE_PASS};
use crate::trace::{Probe, Tracer};
use crate::util::{fnv64, mean, peak_rss_mb, ratio};
use dd_bench::experiments::ablations;
use dd_bench::figures::{self, FIGURES};
use dd_bench::{EvaluationMatrix, ExperimentContext, SchedulerKind};
use dd_platform::{counters, CloudVendor};
use dd_wfdag::Workflow;
use std::time::Instant;

/// Operations per pass: every figure plus the ablations appendix.
pub const OPS: u64 = FIGURES.len() as u64 + 1;

/// Measures its own wall time, so its bytes differ from pass to pass.
const SELF_TIMED: &str = "overhead";

/// Seed whose per-operation digests are pinned below.
pub const PINNED_SEED: u64 = 0xDA1D;

/// Digest of every operation's output at [`PINNED_SEED`], paper size
/// (50 runs per workflow, phase scale 1), in report order. The header
/// line belongs to `fig1`; `overhead` is not pinned.
const PINNED: [(&str, u64); 29] = [
    ("fig1", 0x3a36fc0ee5c169f2),
    ("fig2", 0x7f1ae63e980b7ee6),
    ("fig3", 0x192d8425ef365bfc),
    ("fig4", 0x4f56f8b3def24b07),
    ("fig5", 0x6ae7a5ca9d1aba2b),
    ("fig6", 0xf871013d9e03d245),
    ("fig7", 0xa1caf7fb4e70c64a),
    ("chi2table", 0x23f15ca195a85895),
    ("fig8", 0x1f40a26e192e870d),
    ("fig9", 0x927ce4bf1dc4b88a),
    ("fig10", 0x7f340a6fff846ade),
    ("fig11", 0xd78178b8158f6746),
    ("fig12", 0x69afc1df87ab2cef),
    ("fig13", 0x8cc5e0d8610936b2),
    ("fig14", 0xf67b5a66336b039e),
    ("fig15", 0x82f24aae9a771d88),
    ("fig16", 0xf2286ffb218c82d9),
    ("fig17", 0x091ca67e6260f344),
    ("fig18", 0x0bb33ebf76890b5a),
    ("startup", 0xa93f2724ef39f521),
    ("sensitivity", 0x76dce96b6a2e0c81),
    ("limitation", 0xf5a3a236291905b8),
    ("distfit", 0xab47756614f1d85a),
    ("concurrency", 0xb6b1da638c82aedd),
    ("fixedpool", 0x3495b824623ea818),
    ("scaling", 0x808d70b521da9acf),
    ("robustness", 0x728572c3cdfec01e),
    ("obs", 0x43e5ff748a785da1),
    ("ablations", 0x2ce943faed09932d),
];

/// Operation names in report order.
fn op_names() -> impl Iterator<Item = &'static str> {
    FIGURES.iter().copied().chain(std::iter::once("ablations"))
}

fn context(a: &PassArgs) -> ExperimentContext {
    let (runs, scale) = match a.size {
        Size::Paper => (50, 1),
        Size::Smoke => (2, 25),
    };
    ExperimentContext {
        seed: a.seed,
        runs_per_workflow: runs,
        scale_down: scale,
        vendor: CloudVendor::Aws,
        jobs: a.jobs,
    }
}

/// The report's set-up: each workflow's spec, training run and learned
/// history — the serial prelude of the evaluation matrix. The timed pass
/// redoes this work inside the report call; it runs alone here (in its
/// own process) so that set-up cost shows as its own metric while every
/// timed pass still starts with the fit memo tables cold.
pub fn setup_only(a: &PassArgs) -> f64 {
    let ctx = context(a);
    let t = Instant::now();
    for wf in Workflow::ALL {
        let history = ctx.history(wf);
        assert!(history.runs_learned() > 0, "no history learned for {wf:?}");
    }
    t.elapsed().as_secs_f64()
}

/// CPU seconds this process has used (all threads), from `/proc`.
fn cpu_secs() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| {
            // Fields after the parenthesised command name; utime and
            // stime are fields 14 and 15 of the whole line.
            let rest = &s[s.rfind(')')? + 2..];
            let f: Vec<&str> = rest.split_whitespace().collect();
            let ticks = f.get(11)?.parse::<f64>().ok()? + f.get(12)?.parse::<f64>().ok()?;
            Some(ticks / 100.0)
        })
        .unwrap_or(0.0)
}

fn header(ctx: &ExperimentContext) -> String {
    format!(
        "DayDream reproduction report — seed {}, {} runs/workflow, phase scale 1/{}\n",
        ctx.seed, ctx.runs_per_workflow, ctx.scale_down
    )
}

pub fn pass(a: &PassArgs, traced: bool) -> PassOut {
    let ctx = context(a);

    let mut tracer = Tracer::new();
    let from = tracer.now();
    let cpu0 = cpu_secs();
    let before = counters::snapshot();
    let t = Instant::now();
    let text = if traced {
        render_traced(&ctx, &mut tracer)
    } else {
        figures::render_full_report(&ctx)
    };
    let wall_s = t.elapsed().as_secs_f64();
    let starts = counters::snapshot().since(before).component_starts;
    let cpu_s = cpu_secs() - cpu0;

    let mut out = PassOut {
        wall_s,
        starts,
        rss_mb: peak_rss_mb(),
        ops: OPS,
        ..PassOut::default()
    };
    check(a, &text, &mut out);
    if traced {
        for name in op_names() {
            let span = span_name(name);
            out.layer(&format!("{span}_s"), tracer.span_secs(span));
        }
        out.layer("report.matrix_s", tracer.span_secs("report.matrix"));
        out.layer("sweep.busy_s", cpu_s);
        out.layer(
            "sweep.idle_frac",
            1.0 - ratio(cpu_s, a.jobs as f64 * wall_s, 1.0),
        );
        let covered = tracer.top_level_secs(from);
        out.layer("trace.coverage", ratio(covered, wall_s, 0.0));
        out.layer("trace.other_s", wall_s - covered);
        crate::write_spans("report", a.seed, &tracer);
    }
    out
}

/// Span name of an operation (`report.<figure>`).
fn span_name(op: &str) -> &'static str {
    Box::leak(format!("report.{op}").into_boxed_str())
}

/// The same bytes as `render_full_report`, one public step at a time.
fn render_traced(ctx: &ExperimentContext, tr: &mut Tracer) -> String {
    let id = tr.open("report.matrix", None);
    let matrix = EvaluationMatrix::compute_for(ctx, &SchedulerKind::PAPER);
    tr.close(id);
    let mut out = header(ctx);
    for name in FIGURES {
        let id = tr.open(span_name(name), None);
        let fig = figures::render(name, ctx, Some(&matrix)).expect("registered figure");
        tr.close(id);
        out.push_str(&fig);
        out.push('\n');
    }
    let id = tr.open(span_name("ablations"), None);
    let appendix = ablations::run(ctx);
    tr.close(id);
    out.push_str(&appendix);
    out.push('\n');
    out
}

/// Splits a report into its operations: each section starts at a
/// `=== title ===` line; the header joins the first section.
fn sections(text: &str) -> Vec<&str> {
    let mut starts: Vec<usize> = text.match_indices("\n=== ").map(|(i, _)| i + 1).collect();
    if text.starts_with("=== ") {
        starts.insert(0, 0);
    }
    if starts.is_empty() {
        return vec![text];
    }
    starts[0] = 0;
    starts.push(text.len());
    starts.windows(2).map(|w| &text[w[0]..w[1]]).collect()
}

/// Digests, pinned-digest comparison, the matrix ordering claim, and the
/// simulated metrics read back from the figures.
fn check(a: &PassArgs, text: &str, out: &mut PassOut) {
    let secs = sections(text);
    if secs.len() != OPS as usize {
        out.fail(
            WHOLE_PASS,
            format!("report has {} sections, expected {OPS}", secs.len()),
        );
        return;
    }
    let pinned = a.seed == PINNED_SEED && a.size == Size::Paper;
    for (name, sec) in op_names().zip(&secs) {
        if name == SELF_TIMED {
            continue;
        }
        let d = fnv64(sec.as_bytes());
        out.digest(name, d);
        if pinned {
            match PINNED.iter().find(|(n, _)| *n == name) {
                Some((_, want)) if *want == d => {}
                Some((_, want)) => out.fail(name, format!("digest {d:016x} != pinned {want:016x}")),
                None => out.fail(name, "no pinned digest"),
            }
        }
    }
    let fig = |name: &str| op_names().position(|n| n == name).map_or("", |i| secs[i]);
    match service_order(fig("fig11")) {
        Ok(daydream_means) => out.sim_service_s = mean(&daydream_means),
        Err(why) => out.fail("fig11", why),
    }
    let costs = daydream_column(fig("fig14"), 1);
    if costs.len() != Workflow::ALL.len() {
        out.fail("fig14", "DayDream cost rows missing");
    }
    out.sim_cost_usd = mean(&costs);
    let worst = daydream_column(fig("fig12"), 3);
    if worst.len() != Workflow::ALL.len() {
        out.fail("fig12", "DayDream rows missing");
    }
    let within = worst.iter().filter(|&&m| m <= 1.5).count();
    out.sla_attain = ratio(within as f64, worst.len() as f64, 0.0);
    if a.tamper {
        out.tamper();
    }
}

/// The value `offset` columns right of `DayDream` in every row of a
/// figure table that names it in its first or second column (rows of
/// Figs. 11/14 lead with the workflow, rows of Fig. 12 with the
/// scheduler).
fn daydream_column(section: &str, offset: usize) -> Vec<f64> {
    section
        .lines()
        .filter_map(|l| {
            let f: Vec<&str> = l.split_whitespace().collect();
            let at = f.iter().position(|t| *t == "DayDream")?;
            if at > 1 {
                return None;
            }
            f.get(at + offset)?.trim_end_matches('x').parse().ok()
        })
        .collect()
}

/// Checks Fig. 11's claim for every workflow: mean service time is
/// ordered Oracle ≤ DayDream < Wild < Pegasus (read from the "vs
/// daydream" column). Returns DayDream's mean service time per workflow.
fn service_order(section: &str) -> Result<Vec<f64>, String> {
    let mut means = Vec::new();
    for wf in Workflow::ALL {
        let name = wf.name();
        let row = |kind: &str| -> Result<(f64, f64), String> {
            section
                .lines()
                .find_map(|l| {
                    let f: Vec<&str> = l.split_whitespace().collect();
                    (f.len() >= 5 && f[0] == name && f[1] == kind).then(|| {
                        let pct = f[4].trim_end_matches('%').parse::<f64>().ok()?;
                        Some((f[2].parse::<f64>().ok()?, pct))
                    })?
                })
                .ok_or_else(|| format!("fig11 has no {name} {kind} row"))
        };
        let (oracle, dd, wild, pegasus) = (
            row("Oracle")?,
            row("DayDream")?,
            row("Wild")?,
            row("Pegasus")?,
        );
        if !(oracle.1 <= dd.1 && dd.1 < wild.1 && wild.1 < pegasus.1) {
            return Err(format!(
                "{name}: service time not ordered Oracle <= DayDream < Wild < Pegasus \
                 ({:+}% {:+}% {:+}% {:+}%)",
                oracle.1, dd.1, wild.1, pegasus.1
            ));
        }
        means.push(dd.0);
    }
    Ok(means)
}

#[cfg(test)]
mod tests {
    use super::*;

    const FIG11: &str = "=== Fig. 11 ===\n\
        ExaFEL            Oracle             27      1.00x        -1.1%         ####\n\
        ExaFEL          DayDream             27      1.01x        +0.0%         ####\n\
        ExaFEL              Wild             30      1.14x       +12.5%      #####\n\
        ExaFEL           Pegasus             35      1.30x       +28.9%  ######\n";

    #[test]
    fn sections_split_at_titles() {
        let s = sections("head\n\n=== A ===\nx\n\n=== B ===\ny\n");
        assert_eq!(s, vec!["head\n\n=== A ===\nx\n\n", "=== B ===\ny\n"]);
    }

    #[test]
    fn ordering_is_checked_per_workflow() {
        // Only ExaFEL rows: the other workflows are reported missing.
        let err = service_order(FIG11).unwrap_err();
        assert!(err.contains("Cosmoscout"), "{err}");
        let swapped = FIG11.replace("+12.5%", "-5.0%");
        let err = service_order(&swapped).unwrap_err();
        assert!(err.contains("not ordered"), "{err}");
    }

    #[test]
    fn daydream_rows_parse() {
        assert_eq!(daydream_column(FIG11, 1), vec![27.0]);
        let fig12 = "DayDream   1.00  1.01  1.02   x\nWild 1.0 1.1 1.2\n";
        assert_eq!(daydream_column(fig12, 3), vec![1.02]);
    }
}
