//! Curve and distribution fitting.
//!
//! Two families:
//!
//! * **Weibull fitting** ([`fit_weibull_grid`], [`fit_weibull_moments`]) —
//!   the χ² grid search of paper Eq. 2, used by DayDream's predictor to
//!   re-fit the running phase-concurrency histogram, plus a fast
//!   method-of-moments initializer.
//! * **Temporal fits** ([`fit_polynomial`], [`fit_sinusoid`],
//!   [`fit_logarithmic`]) — the models the paper shows *failing* to capture
//!   concurrency over time (normalized χ² errors of 0.8–0.94, Sec. III).

use crate::chi2::{chi2_statistic_regularized, normalized_chi2_error};
use crate::histogram::Histogram;
use crate::linalg::{least_squares_ridge_into, least_squares_ridge_rows, LsScratch};
use crate::weibull::{gamma, Weibull};
use serde::{Deserialize, Serialize};

/// Result of a Weibull fit: the distribution and its χ² objective value.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WeibullFit {
    /// The fitted distribution.
    pub dist: Weibull,
    /// The χ² objective at the optimum (Eq. 2, regularized).
    pub chi2: f64,
    /// Fraction of histogram mass explained, in `[0, 1]`
    /// (1 − normalized error of the expected vs observed counts).
    pub fit_fraction: f64,
}

/// Fits a Weibull distribution to an integer histogram by χ² grid search —
/// the optimization of paper Eq. 2.
///
/// Candidate scales `α ∈ A` and shapes `β ∈ B` are taken from inclusive
/// ranges discretized into `steps` points each; for each candidate the
/// expected histogram is `total · bin_mass(k)` and the regularized χ²
/// statistic is minimized.
///
/// The scan is branch-and-bound: the χ² statistic accumulates bin by bin
/// (sharing each CDF evaluation between adjacent bins, since
/// `bin_mass(k) = cdf(k+0.5) − cdf(k−0.5)`), and a candidate is abandoned
/// as soon as its partial sum exceeds the incumbent minimum. Because every
/// term of the regularized statistic is non-negative and bins accumulate
/// in the same left-to-right order, the abandoned candidates are exactly
/// those that could never win, and the surviving winner — value and
/// identity — is bit-identical to the dense scan
/// ([`fit_weibull_grid_reference`], kept as the test oracle).
///
/// Returns `None` for an empty histogram or degenerate ranges.
pub fn fit_weibull_grid(
    hist: &Histogram,
    alpha_range: (f64, f64),
    beta_range: (f64, f64),
    steps: usize,
) -> Option<WeibullFit> {
    if hist.is_empty() || steps < 2 {
        return None;
    }
    let (a_lo, a_hi) = alpha_range;
    let (b_lo, b_hi) = beta_range;
    if !(a_lo > 0.0 && a_hi >= a_lo && b_lo > 0.0 && b_hi >= b_lo) {
        return None;
    }

    let len = hist.trimmed_len().max(1);
    // One extra overflow bin (observed 0) absorbs the candidate's tail mass
    // beyond the histogram support. Without it, mass above the largest
    // observation escapes the statistic entirely and the argmin drifts to
    // the high-α corner of the grid on sparse histograms.
    let mut observed: Vec<f64> = hist.counts()[..len].iter().map(|&c| c as f64).collect();
    observed.push(0.0);
    let total = hist.total() as f64;

    // Seed the abort threshold with the grid's central candidate — the
    // ranges are centered on a moments estimate by the predictor, so the
    // center is usually near-optimal and prunes most of the grid. Any
    // threshold ≥ the global minimum is sound: the eventual winner's
    // partial sums never exceed its own (minimal) statistic, so it is
    // never aborted, and aborted candidates have a statistic strictly
    // above the minimum.
    let mid = steps / 2;
    let mid_alpha = lerp(a_lo, a_hi, mid as f64 / (steps - 1) as f64);
    let mid_beta = lerp(b_lo, b_hi, mid as f64 / (steps - 1) as f64);
    let seed = Weibull::new(mid_alpha, mid_beta)
        .ok()
        .and_then(|w| chi2_grid_candidate(&w, &observed, total, len, f64::INFINITY))
        .unwrap_or(f64::INFINITY);

    // Shared-power table for the approximate rejection filter: the exact
    // CDF at a bin edge is `1 − exp(−(x/α)^β)`; factorizing the power as
    // `x^β · α^{−β}` lets each shape row β pay its `x^β` evaluations once
    // (steps·len powf calls total) instead of once per (α, β) candidate
    // (steps²·len). The factorized product differs from `(x/α)^β` only in
    // rounding, so the filter is approximate — candidates it rejects are
    // those whose approximate statistic exceeds the incumbent by more
    // than a conservative rounding-error bound, and every survivor still
    // runs the exact canonical scan. The winner (value and identity) is
    // therefore unchanged.
    let mut edge_pows = vec![0.0; steps * len];
    for bi in 0..steps {
        let beta = lerp(b_lo, b_hi, bi as f64 / (steps - 1) as f64);
        for (k, cell) in edge_pows[bi * len..(bi + 1) * len].iter_mut().enumerate() {
            *cell = (k as f64 + 0.5).powf(beta);
        }
    }

    let mut best: Option<(f64, Weibull)> = None;
    for ai in 0..steps {
        let alpha = lerp(a_lo, a_hi, ai as f64 / (steps - 1) as f64);
        for bi in 0..steps {
            let beta = lerp(b_lo, b_hi, bi as f64 / (steps - 1) as f64);
            let Ok(w) = Weibull::new(alpha, beta) else {
                continue;
            };
            let abort_above = match best {
                Some((s, _)) => s.min(seed),
                None => seed,
            };
            if approx_chi2_exceeds(
                &edge_pows[bi * len..(bi + 1) * len],
                alpha,
                beta,
                &observed,
                total,
                abort_above,
            ) {
                continue;
            }
            let Some(stat) = chi2_grid_candidate(&w, &observed, total, len, abort_above) else {
                continue;
            };
            if best.is_none_or(|(s, _)| stat < s) {
                best = Some((stat, w));
            }
        }
    }

    best.map(|(chi2, dist)| {
        let mut fitted: Vec<f64> = (0..len).map(|k| total * dist.bin_mass(k as u32)).collect();
        fitted.push(total * (1.0 - dist.cdf(len as f64 - 0.5)));
        WeibullFit {
            dist,
            chi2,
            fit_fraction: 1.0 - normalized_chi2_error(&observed, &fitted),
        }
    })
}

/// Regularized χ² of one grid candidate against `observed`, accumulated
/// bin by bin with early abort.
///
/// Bit-for-bit equal to building the expected histogram
/// (`expected[k] = total·bin_mass(k)`, tail `total·(1 − cdf(len−0.5))`)
/// and calling [`chi2_statistic_regularized`] with ε = 0.5: each bin's CDF
/// upper edge is reused as the next bin's lower edge (the same float the
/// dense path computes twice), terms accumulate in the same left-to-right
/// order, and the `(…).max(0.0)` clamp of `bin_mass` is preserved.
///
/// Returns `None` as soon as the partial sum strictly exceeds
/// `abort_above`; since every term is non-negative the full statistic of
/// an aborted candidate is also strictly above that bound.
fn chi2_grid_candidate(
    w: &Weibull,
    observed: &[f64],
    total: f64,
    len: usize,
    abort_above: f64,
) -> Option<f64> {
    let mut acc = 0.0;
    let mut prev_cdf = 0.0; // cdf(0.0), the lower edge of bin 0
    for (k, &o) in observed[..len].iter().enumerate() {
        let hi_cdf = w.cdf(k as f64 + 0.5);
        let e = total * (hi_cdf - prev_cdf).max(0.0);
        let d = o - e;
        acc += d * d / (e + 0.5);
        if acc > abort_above {
            return None;
        }
        prev_cdf = hi_cdf;
    }
    // Overflow bin: observed 0, expected = total·(1 − cdf(len − 0.5));
    // prev_cdf already holds cdf((len−1) + 0.5) = cdf(len − 0.5).
    let e = total * (1.0 - prev_cdf);
    let d = 0.0 - e;
    acc += d * d / (e + 0.5);
    (acc <= abort_above).then_some(acc)
}

/// Approximate rejection filter for [`chi2_grid_candidate`]: replays the
/// canonical scan with the candidate's CDF factorized as
/// `1 − exp(−x^β·α^{−β})` — `x^β` comes precomputed per shape row in
/// `edge_pows`, so each term costs one multiply and one `exp` instead of
/// a `powf` and an `exp`. Reports whether the approximate statistic
/// proves the exact statistic must exceed `abort_above`.
///
/// Soundness: `x^β·α^{−β}` differs from the exact `(x/α)^β` only by a
/// handful of ULPs, and the CDF damps that to an absolute error
/// ≤ ~2e-15 per edge (`|d cdf| = e^{−t}·t·δ ≤ δ/e`). Propagated through
/// `e = total·Δcdf` and the regularized terms (denominator ≥ 0.5,
/// `Σ|observed − expected| ≤ 2·total`), the approximate statistic S̃
/// satisfies `|S̃ − S| ≤ ~3e-14·total² + 1e-14·total·S`. The guard
/// subtracted before comparing — `1e-12·total·(total + S̃)` — exceeds
/// that bound by two orders of magnitude, so `true` implies the exact
/// scan would have aborted, and a candidate whose exact statistic is
/// ≤ `abort_above` is never pruned: `best` is left exactly as the dense
/// reference scan would leave it. A NaN CDF (only reachable through
/// overflow of `x^β` against underflow of `α^{−β}`, or vice versa)
/// disables the filter for the candidate, which falls through to the
/// exact scan.
fn approx_chi2_exceeds(
    edge_pows: &[f64],
    alpha: f64,
    beta: f64,
    observed: &[f64],
    total: f64,
    abort_above: f64,
) -> bool {
    let a_pow = alpha.powf(-beta);
    let mut acc = 0.0;
    let mut prev_cdf = 0.0;
    for (&u, &o) in edge_pows.iter().zip(observed) {
        let cdf = 1.0 - (-u * a_pow).exp();
        if cdf.is_nan() {
            return false;
        }
        let e = total * (cdf - prev_cdf).max(0.0);
        let d = o - e;
        acc += d * d / (e + 0.5);
        if acc - 1e-12 * total * (total + acc) > abort_above {
            return true;
        }
        prev_cdf = cdf;
    }
    let e = total * (1.0 - prev_cdf);
    acc += e * e / (e + 0.5);
    acc - 1e-12 * total * (total + acc) > abort_above
}

/// The original dense-scan grid fit, kept as the equivalence oracle for
/// the branch-and-bound rewrite ([`fit_weibull_grid`] must agree with it
/// bit for bit). Used by the equivalence test; not called on any
/// production path.
pub fn fit_weibull_grid_reference(
    hist: &Histogram,
    alpha_range: (f64, f64),
    beta_range: (f64, f64),
    steps: usize,
) -> Option<WeibullFit> {
    if hist.is_empty() || steps < 2 {
        return None;
    }
    let (a_lo, a_hi) = alpha_range;
    let (b_lo, b_hi) = beta_range;
    if !(a_lo > 0.0 && a_hi >= a_lo && b_lo > 0.0 && b_hi >= b_lo) {
        return None;
    }

    let len = hist.trimmed_len().max(1);
    let mut observed: Vec<f64> = hist.counts()[..len].iter().map(|&c| c as f64).collect();
    observed.push(0.0);
    let total = hist.total() as f64;

    let mut best: Option<(f64, Weibull)> = None;
    let mut expected = vec![0.0; len + 1];
    for ai in 0..steps {
        let alpha = lerp(a_lo, a_hi, ai as f64 / (steps - 1) as f64);
        for bi in 0..steps {
            let beta = lerp(b_lo, b_hi, bi as f64 / (steps - 1) as f64);
            let Ok(w) = Weibull::new(alpha, beta) else {
                continue;
            };
            for (k, e) in expected[..len].iter_mut().enumerate() {
                *e = total * w.bin_mass(k as u32);
            }
            expected[len] = total * (1.0 - w.cdf(len as f64 - 0.5));
            let stat = chi2_statistic_regularized(&observed, &expected, 0.5);
            if best.is_none_or(|(s, _)| stat < s) {
                best = Some((stat, w));
            }
        }
    }

    best.map(|(chi2, dist)| {
        let mut fitted: Vec<f64> = (0..len).map(|k| total * dist.bin_mass(k as u32)).collect();
        fitted.push(total * (1.0 - dist.cdf(len as f64 - 0.5)));
        WeibullFit {
            dist,
            chi2,
            fit_fraction: 1.0 - normalized_chi2_error(&observed, &fitted),
        }
    })
}

/// Method-of-moments Weibull fit: matches the sample mean and variance.
///
/// Solves `CV² = Γ(1+2/β)/Γ(1+1/β)² − 1` for β by bisection, then
/// `α = mean / Γ(1+1/β)`. Fast and a good initializer / sanity check for
/// the grid search. Returns `None` when the histogram has fewer than two
/// distinct values (variance 0) or zero mean.
pub fn fit_weibull_moments(hist: &Histogram) -> Option<Weibull> {
    let mean = hist.mean();
    let var = hist.variance();
    if hist.total() < 2 || mean <= 0.0 || var <= 0.0 {
        return None;
    }
    let cv2 = var / (mean * mean);

    // CV² is strictly decreasing in β; bisect on [0.05, 50].
    let cv2_of = |beta: f64| {
        let g1 = gamma(1.0 + 1.0 / beta);
        let g2 = gamma(1.0 + 2.0 / beta);
        g2 / (g1 * g1) - 1.0
    };
    let (mut lo, mut hi) = (0.05_f64, 50.0_f64);
    if cv2 > cv2_of(lo) || cv2 < cv2_of(hi) {
        return None;
    }
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if cv2_of(mid) > cv2 {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    let beta = 0.5 * (lo + hi);
    let alpha = mean / gamma(1.0 + 1.0 / beta);
    Weibull::new(alpha, beta).ok()
}

/// A fitted temporal model together with its quality metric.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FitReport {
    /// Human-readable model name (e.g. `"poly2"`, `"sinusoid"`).
    pub model: String,
    /// Fitted values at the observation abscissas.
    pub fitted: Vec<f64>,
    /// Normalized χ² error in `[0, 1]` (0 = perfect; see
    /// [`crate::chi2::normalized_chi2_error`]).
    pub error: f64,
}

/// Least-squares polynomial fit of the given `degree` to `ys` observed at
/// abscissas `0, 1, 2, …`.
///
/// Falls back to the mean (a degree-0 fit) when the normal equations are
/// singular, e.g. for series shorter than `degree + 1`.
pub fn fit_polynomial(ys: &[f64], degree: usize) -> FitReport {
    let n = ys.len();
    let model = format!("poly{degree}");
    if n == 0 {
        return FitReport {
            model,
            fitted: vec![],
            error: 0.0,
        };
    }
    // Scale abscissas to [0, 1] to keep the Vandermonde system conditioned.
    // The design is built flat (one row per observation, concatenated):
    // `least_squares_ridge_rows` with λ = 0 is the same normal-equation
    // path the nested `least_squares` delegates to, so the fit is
    // bit-identical while the per-row `Vec` allocations disappear.
    let scale = (n.max(2) - 1) as f64;
    let cols = degree + 1;
    let mut design = vec![0.0; n * cols];
    for (i, row) in design.chunks_exact_mut(cols).enumerate() {
        let t = i as f64 / scale;
        for (d, cell) in row.iter_mut().enumerate() {
            *cell = t.powi(d as i32);
        }
    }
    let fitted = match least_squares_ridge_rows(&design, cols, ys, 0.0) {
        Ok(beta) => design
            .chunks_exact(cols)
            .map(|row| row.iter().zip(&beta).map(|(x, b)| x * b).sum())
            .collect(),
        Err(_) => vec![crate::series::mean(ys); n],
    };
    let error = normalized_chi2_error(ys, &fitted);
    FitReport {
        model,
        fitted,
        error,
    }
}

/// Least-squares sinusoidal fit `y = a·sin(ωt) + b·cos(ωt) + c`, with the
/// angular frequency ω selected by a coarse log-spaced grid over
/// `freq_steps` candidates spanning 0.5–32 cycles across the series,
/// followed by a fine linear refinement around the best coarse candidate.
pub fn fit_sinusoid(ys: &[f64], freq_steps: usize) -> FitReport {
    let n = ys.len();
    let model = "sinusoid".to_string();
    if n < 4 {
        return FitReport {
            model,
            fitted: vec![crate::series::mean(ys); n],
            error: if n == 0 { 0.0 } else { 1.0 },
        };
    }
    let span = (n - 1) as f64;
    let steps = freq_steps.max(2);

    // One flat 3-column design, normal-equation scratch and fitted buffer
    // are shared across every frequency candidate (~steps + 65 evals per
    // call): the flat path is the one the nested `least_squares` delegates
    // to, so each candidate's fit is bit-identical to the allocating
    // version while the per-row `Vec` churn disappears.
    let mut design = vec![0.0; n * 3];
    let mut scratch = LsScratch::default();
    let mut beta: Vec<f64> = Vec::new();
    let mut fitted_buf: Vec<f64> = Vec::new();

    // For a candidate cycle count, solve the linear subproblem and score;
    // the fitted values are left in `fitted_buf`.
    let eval = |cycles: f64,
                design: &mut [f64],
                scratch: &mut LsScratch,
                beta: &mut Vec<f64>,
                fitted: &mut Vec<f64>|
     -> Option<f64> {
        let omega = 2.0 * std::f64::consts::PI * cycles / span;
        for (i, row) in design.chunks_exact_mut(3).enumerate() {
            let t = i as f64;
            row[0] = (omega * t).sin();
            row[1] = (omega * t).cos();
            row[2] = 1.0;
        }
        least_squares_ridge_into(design, 3, ys, 0.0, scratch, beta).ok()?;
        fitted.clear();
        fitted.extend(
            design
                .chunks_exact(3)
                .map(|row| row.iter().zip(&*beta).map(|(x, b)| x * b).sum::<f64>()),
        );
        Some(normalized_chi2_error(ys, fitted))
    };

    // Coarse pass: log-spaced cycle counts.
    let mut best: Option<(f64, f64, Vec<f64>)> = None;
    for s in 0..steps {
        let cycles = 0.5 * 64f64.powf(s as f64 / (steps - 1) as f64);
        if let Some(err) = eval(
            cycles,
            &mut design,
            &mut scratch,
            &mut beta,
            &mut fitted_buf,
        ) {
            if best.as_ref().is_none_or(|(e, _, _)| err < *e) {
                let slot = best.get_or_insert_with(|| (err, cycles, Vec::new()));
                slot.0 = err;
                slot.1 = cycles;
                slot.2.clone_from(&fitted_buf);
            }
        }
    }

    // Fine pass: linear sweep ± one coarse step around the winner, which
    // pins the frequency well enough that phase drift over the series
    // becomes negligible.
    if let Some((_, coarse_cycles, _)) = best {
        let ratio = 64f64.powf(1.0 / (steps - 1) as f64);
        let lo = coarse_cycles / ratio;
        let hi = coarse_cycles * ratio;
        for s in 0..=64 {
            let cycles = lo + (hi - lo) * s as f64 / 64.0;
            if let Some(err) = eval(
                cycles,
                &mut design,
                &mut scratch,
                &mut beta,
                &mut fitted_buf,
            ) {
                if best.as_ref().is_none_or(|(e, _, _)| err < *e) {
                    let slot = best.get_or_insert_with(|| (err, cycles, Vec::new()));
                    slot.0 = err;
                    slot.1 = cycles;
                    slot.2.clone_from(&fitted_buf);
                }
            }
        }
    }

    match best {
        Some((error, _, fitted)) => FitReport {
            model,
            fitted,
            error,
        },
        None => FitReport {
            model,
            fitted: vec![crate::series::mean(ys); n],
            error: 1.0,
        },
    }
}

/// Least-squares logarithmic fit `y = a·ln(t + 1) + b` at abscissas
/// `t = 0, 1, 2, …`.
pub fn fit_logarithmic(ys: &[f64]) -> FitReport {
    let n = ys.len();
    let model = "logarithmic".to_string();
    if n < 2 {
        return FitReport {
            model,
            fitted: ys.to_vec(),
            error: 0.0,
        };
    }
    let mut design = vec![0.0; n * 2];
    for (i, row) in design.chunks_exact_mut(2).enumerate() {
        row[0] = (i as f64 + 1.0).ln();
        row[1] = 1.0;
    }
    let fitted = match least_squares_ridge_rows(&design, 2, ys, 0.0) {
        Ok(beta) => design
            .chunks_exact(2)
            .map(|row| row.iter().zip(&beta).map(|(x, b)| x * b).sum())
            .collect(),
        Err(_) => vec![crate::series::mean(ys); n],
    };
    let error = normalized_chi2_error(ys, &fitted);
    FitReport {
        model,
        fitted,
        error,
    }
}

fn lerp(lo: f64, hi: f64, t: f64) -> f64 {
    lo + (hi - lo) * t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SeedStream;

    fn sample_hist(w: &Weibull, n: usize, seed: u64) -> Histogram {
        let mut rng = SeedStream::new(seed).rng();
        (0..n).map(|_| w.sample_count(&mut rng)).collect()
    }

    #[test]
    fn grid_fit_recovers_generating_parameters() {
        let truth = Weibull::new(10.0, 3.2).unwrap();
        let hist = sample_hist(&truth, 5000, 7);
        let fit = fit_weibull_grid(&hist, (1.0, 20.0), (0.5, 10.0), 40).unwrap();
        assert!(
            (fit.dist.alpha() - 10.0).abs() < 1.0,
            "alpha = {}",
            fit.dist.alpha()
        );
        assert!(
            (fit.dist.beta() - 3.2).abs() < 0.8,
            "beta = {}",
            fit.dist.beta()
        );
        assert!(fit.fit_fraction > 0.9, "fit = {}", fit.fit_fraction);
    }

    #[test]
    fn grid_fit_matches_reference_oracle_bitwise() {
        // The branch-and-bound grid fit must agree bit for bit with the
        // dense-scan oracle it replaced, on both a generated histogram and
        // a tiny hand-built one.
        let truth = Weibull::new(8.0, 2.5).unwrap();
        for (hist, steps) in [
            (sample_hist(&truth, 2000, 11), 25),
            (Histogram::from_samples([1, 2, 2, 3, 5, 8]), 12),
        ] {
            let fast = fit_weibull_grid(&hist, (1.0, 20.0), (0.5, 10.0), steps).unwrap();
            let oracle =
                fit_weibull_grid_reference(&hist, (1.0, 20.0), (0.5, 10.0), steps).unwrap();
            assert_eq!(fast.dist.alpha().to_bits(), oracle.dist.alpha().to_bits());
            assert_eq!(fast.dist.beta().to_bits(), oracle.dist.beta().to_bits());
            assert_eq!(fast.chi2.to_bits(), oracle.chi2.to_bits());
            assert_eq!(fast.fit_fraction.to_bits(), oracle.fit_fraction.to_bits());
        }
    }

    #[test]
    fn grid_fit_empty_none() {
        assert!(fit_weibull_grid(&Histogram::new(), (1.0, 10.0), (1.0, 5.0), 10).is_none());
    }

    #[test]
    fn grid_fit_degenerate_ranges_none() {
        let hist = Histogram::from_samples([1, 2, 3]);
        assert!(fit_weibull_grid(&hist, (-1.0, 10.0), (1.0, 5.0), 10).is_none());
        assert!(fit_weibull_grid(&hist, (1.0, 10.0), (1.0, 5.0), 1).is_none());
        assert!(fit_weibull_grid(&hist, (10.0, 1.0), (1.0, 5.0), 10).is_none());
    }

    #[test]
    fn moments_fit_recovers_parameters() {
        let truth = Weibull::new(6.0, 3.0).unwrap();
        let hist = sample_hist(&truth, 20_000, 9);
        let fit = fit_weibull_moments(&hist).unwrap();
        assert!((fit.alpha() - 6.0).abs() < 0.5, "alpha = {}", fit.alpha());
        assert!((fit.beta() - 3.0).abs() < 0.6, "beta = {}", fit.beta());
    }

    #[test]
    fn moments_fit_degenerate_none() {
        assert!(fit_weibull_moments(&Histogram::new()).is_none());
        assert!(fit_weibull_moments(&Histogram::from_samples([5, 5, 5])).is_none());
        assert!(fit_weibull_moments(&Histogram::from_samples([0, 0, 0])).is_none());
    }

    #[test]
    fn polynomial_fits_exact_polynomial() {
        // Quadratic data must be fit perfectly by poly2 (and poly3, poly4).
        let ys: Vec<f64> = (0..30).map(|i| 2.0 + 0.5 * (i * i) as f64).collect();
        for degree in [2, 3, 4] {
            let rep = fit_polynomial(&ys, degree);
            assert!(rep.error < 1e-6, "poly{degree} error = {}", rep.error);
        }
        // A line cannot capture a strong quadratic as well.
        assert!(fit_polynomial(&ys, 1).error > 0.01);
    }

    #[test]
    fn polynomial_handles_tiny_series() {
        let rep = fit_polynomial(&[3.0], 4);
        assert_eq!(rep.fitted.len(), 1);
        let rep = fit_polynomial(&[], 2);
        assert!(rep.fitted.is_empty());
    }

    #[test]
    fn sinusoid_fits_sine_wave() {
        let ys: Vec<f64> = (0..200)
            .map(|i| 5.0 + 3.0 * (i as f64 * 0.2).sin())
            .collect();
        let rep = fit_sinusoid(&ys, 64);
        assert!(rep.error < 0.05, "sinusoid error = {}", rep.error);
    }

    #[test]
    fn sinusoid_fails_on_noise() {
        // Weibull-distributed iid noise has no frequency content to fit.
        let w = Weibull::new(10.0, 3.2).unwrap();
        let mut rng = SeedStream::new(11).rng();
        let ys: Vec<f64> = (0..300).map(|_| w.sample(&mut rng)).collect();
        let rep = fit_sinusoid(&ys, 32);
        assert!(rep.error > 0.5, "noise should not fit: {}", rep.error);
    }

    #[test]
    fn logarithmic_fits_log_curve() {
        let ys: Vec<f64> = (0..100)
            .map(|i| 2.0 * ((i + 1) as f64).ln() + 1.0)
            .collect();
        let rep = fit_logarithmic(&ys);
        assert!(rep.error < 1e-9, "log error = {}", rep.error);
    }

    #[test]
    fn iid_weibull_series_defeats_all_temporal_models() {
        // The Sec. III claim: temporal models leave most variance
        // unexplained on concurrency series (errors 0.8–0.94).
        let w = Weibull::new(10.0, 6.0).unwrap();
        let mut rng = SeedStream::new(23).rng();
        let ys: Vec<f64> = (0..400).map(|_| w.sample(&mut rng)).collect();
        for rep in [
            fit_polynomial(&ys, 2),
            fit_polynomial(&ys, 3),
            fit_polynomial(&ys, 4),
            fit_sinusoid(&ys, 32),
            fit_logarithmic(&ys),
        ] {
            assert!(rep.error > 0.6, "{} error = {}", rep.model, rep.error);
        }
    }
}
