//! What one pass reports to the parent process, and the line format it
//! travels in. Each pass runs in a child process (so process-wide memo tables
//! start cold and the peak memory is the pass's own) and prints one
//! `key value` line per field on its standard output.

use crate::util::fnv64;

/// Sizing of a workload: the paper-scale benchmark or a fast smoke run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Paper,
    Smoke,
}

impl Size {
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "paper" => Ok(Self::Paper),
            "smoke" => Ok(Self::Smoke),
            other => Err(format!("unknown --size '{other}' (paper|smoke)")),
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Self::Paper => "paper",
            Self::Smoke => "smoke",
        }
    }
}

/// Everything a pass needs to know.
#[derive(Debug, Clone, Copy)]
pub struct PassArgs {
    pub seed: u64,
    pub size: Size,
    pub jobs: usize,
    /// Position of this pass in its set (picks the cross-checked run).
    pub index: usize,
    /// Also run the (untimed) check against the program's reference path.
    pub reference_check: bool,
    /// Corrupt the first operation's digest (the smoke test's proof that
    /// a changed output is counted as a failed operation).
    pub tamper: bool,
}

/// Key of a digest or failure that covers every operation of the pass.
pub const WHOLE_PASS: &str = "all";

/// One pass's measurements and checks.
#[derive(Debug, Clone, Default)]
pub struct PassOut {
    /// Host seconds of the timed region.
    pub wall_s: f64,
    /// Simulated component starts in the timed region.
    pub starts: u64,
    /// Peak resident memory of the pass, MiB.
    pub rss_mb: f64,
    /// Operations attempted.
    pub ops: u64,
    /// Per-operation output digests, compared across passes by the
    /// parent process. Key [`WHOLE_PASS`] covers all operations.
    pub digests: Vec<(String, u64)>,
    /// Operations that failed a check inside the pass: `(key, reason)`.
    pub fails: Vec<(String, String)>,
    pub sim_service_s: f64,
    pub sim_cost_usd: f64,
    pub sla_attain: f64,
    /// Per-layer metrics (traced passes only).
    pub layers: Vec<(String, f64)>,
}

impl PassOut {
    pub fn digest(&mut self, key: impl Into<String>, value: u64) {
        self.digests.push((key.into(), value));
    }

    pub fn fail(&mut self, key: impl Into<String>, reason: impl Into<String>) {
        self.fails.push((key.into(), reason.into()));
    }

    pub fn layer(&mut self, name: &str, value: f64) {
        self.layers.push((name.to_string(), value));
    }

    /// Applies `--tamper`: changes the first digest as a changed output
    /// would.
    pub fn tamper(&mut self) {
        if let Some((_, d)) = self.digests.first_mut() {
            *d ^= fnv64(b"tamper");
        }
    }

    /// The line format a child prints.
    pub fn encode(&self) -> String {
        let mut out = String::new();
        let mut line = |k: &str, v: String| {
            out.push_str(k);
            out.push(' ');
            out.push_str(&v);
            out.push('\n');
        };
        line("wall_s", format!("{:?}", self.wall_s));
        line("starts", self.starts.to_string());
        line("rss_mb", format!("{:?}", self.rss_mb));
        line("ops", self.ops.to_string());
        line("sim_service_s", format!("{:?}", self.sim_service_s));
        line("sim_cost_usd", format!("{:?}", self.sim_cost_usd));
        line("sla_attain", format!("{:?}", self.sla_attain));
        for (k, d) in &self.digests {
            line("digest", format!("{k} {d:016x}"));
        }
        for (k, why) in &self.fails {
            line("fail", format!("{k} {}", why.replace('\n', " ")));
        }
        for (k, v) in &self.layers {
            line("layer", format!("{k} {v:?}"));
        }
        out
    }

    /// Parses [`PassOut::encode`] output; unknown lines are ignored so a
    /// child may print diagnostics too.
    pub fn decode(text: &str) -> Result<Self, String> {
        let mut out = Self::default();
        let num = |v: &str| {
            v.trim()
                .parse::<f64>()
                .map_err(|e| format!("bad number '{v}': {e}"))
        };
        for l in text.lines() {
            let (key, rest) = l.split_once(' ').unwrap_or((l, ""));
            match key {
                "wall_s" => out.wall_s = num(rest)?,
                "starts" => out.starts = num(rest)? as u64,
                "rss_mb" => out.rss_mb = num(rest)?,
                "ops" => out.ops = num(rest)? as u64,
                "sim_service_s" => out.sim_service_s = num(rest)?,
                "sim_cost_usd" => out.sim_cost_usd = num(rest)?,
                "sla_attain" => out.sla_attain = num(rest)?,
                "digest" => {
                    let (k, hex) = rest.split_once(' ').ok_or("digest line without value")?;
                    let d = u64::from_str_radix(hex.trim(), 16).map_err(|e| e.to_string())?;
                    out.digests.push((k.to_string(), d));
                }
                "fail" => {
                    let (k, why) = rest.split_once(' ').unwrap_or((rest, ""));
                    out.fails.push((k.to_string(), why.to_string()));
                }
                "layer" => {
                    let (k, v) = rest.split_once(' ').ok_or("layer line without value")?;
                    out.layers.push((k.to_string(), num(v)?));
                }
                _ => {}
            }
        }
        if out.ops == 0 {
            return Err("pass reported no operations".to_string());
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_roundtrip() {
        let mut p = PassOut {
            wall_s: 1.5,
            starts: 42,
            rss_mb: 12.0,
            ops: 3,
            sim_service_s: 10.0,
            sim_cost_usd: 0.125,
            sla_attain: 1.0,
            ..PassOut::default()
        };
        p.digest("run0", 0xdead_beef);
        p.fail("run1", "ledger\ndiverged");
        p.layer("exec.self_s", 0.75);
        let q = PassOut::decode(&p.encode()).unwrap();
        assert_eq!(q.digests, p.digests);
        assert_eq!(
            q.fails,
            vec![("run1".to_string(), "ledger diverged".to_string())]
        );
        assert_eq!(q.layers, p.layers);
        assert_eq!(q.starts, 42);
        assert!((q.wall_s - 1.5).abs() < 1e-15);
    }

    #[test]
    fn tamper_changes_first_digest() {
        let mut p = PassOut::default();
        p.digest("a", 1);
        p.digest("b", 2);
        p.tamper();
        assert_ne!(p.digests[0].1, 1);
        assert_eq!(p.digests[1].1, 2);
    }
}
