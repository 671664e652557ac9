//! Small helpers shared by the parent process and the workloads: digests,
//! order statistics, peak memory and number formatting.

/// FNV-1a 64-bit digest of `bytes`.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// Digest of a value's `Debug` rendering. Rust prints floats in their
/// shortest round-trip form, so equal digests mean bit-equal outputs.
pub fn debug_digest<T: std::fmt::Debug>(value: &T) -> u64 {
    fnv64(format!("{value:?}").as_bytes())
}

/// Quantile of `xs` with linear interpolation between order statistics
/// (`q` in `[0, 1]`; empty input gives 0).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median of `xs` (0 when empty).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Mean of `xs` (0 when empty).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// `num / den`, or `otherwise` when the denominator is not positive.
pub fn ratio(num: f64, den: f64, otherwise: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        otherwise
    }
}

/// Peak resident memory of this process in MiB (`VmHWM`), 0 where
/// `/proc` is unavailable. Every pass runs in its own process, so this
/// is the pass's own peak.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|rest| rest.split_whitespace().next())
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A finite f64 as a JSON number with all its digits (non-finite → 0).
pub fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "0.0".to_string()
    }
}

/// Escapes a string for a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert!((median(&xs) - 2.5).abs() < 1e-12);
        assert!((quantile(&xs, 0.0) - 1.0).abs() < 1e-12);
        assert!((quantile(&xs, 1.0) - 4.0).abs() < 1e-12);
        assert!(median(&[]).abs() < 1e-12);
    }

    #[test]
    fn fnv_is_stable() {
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(fnv64(b"a"), fnv64(b"b"));
    }

    #[test]
    fn json_helpers() {
        assert_eq!(json_num(f64::NAN), "0.0");
        assert_eq!(json_num(0.5), "0.5");
        assert_eq!(json_str("a\"b"), "\"a\\\"b\"");
    }
}
