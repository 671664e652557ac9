//! The artifact's per-run output files.
//!
//! For every run the Zenodo artifact writes three files into `run-<n>/`:
//!
//! * `phase_time.txt` — time to complete each phase (their sum is the
//!   run's total execution time),
//! * `function_service_time.txt` — the service time of every individual
//!   component,
//! * `execution_cost.txt` — the cost incurred per component (their sum
//!   is the run's execution cost).
//!
//! This module writes and reads that exact layout (one `%.6f` value per
//! line) so outputs are diffable against any other producer.

use crate::args::ObsFormat;
use dd_obs::MemoryRecorder;
use dd_platform::{ExecutionTrace, RunOutcome};
use std::fs;
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};

/// Paths of one run's output files.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunFiles {
    /// The `run-<n>` directory.
    pub dir: PathBuf,
}

impl RunFiles {
    /// Files of run `index` (1-based, like the artifact's `run-1`…).
    pub fn new(out_dir: &Path, index: usize) -> Self {
        Self {
            dir: out_dir.join(format!("run-{index}")),
        }
    }

    /// `phase_time.txt` path.
    pub fn phase_time(&self) -> PathBuf {
        self.dir.join("phase_time.txt")
    }

    /// `function_service_time.txt` path.
    pub fn function_service_time(&self) -> PathBuf {
        self.dir.join("function_service_time.txt")
    }

    /// `execution_cost.txt` path.
    pub fn execution_cost(&self) -> PathBuf {
        self.dir.join("execution_cost.txt")
    }

    /// Path of the observability export for `format` (`--obs`).
    pub fn obs(&self, format: ObsFormat) -> PathBuf {
        self.dir.join(format.file_name())
    }
}

/// Renders one run's recorder into `format` and writes it next to the
/// run's artifact files (or under `--obs-out`). All timestamps in the
/// export come from the executor's virtual clock, so the bytes are
/// identical at any `--jobs` setting.
pub fn write_obs(
    files: &RunFiles,
    format: ObsFormat,
    recorder: &MemoryRecorder,
) -> std::io::Result<()> {
    fs::create_dir_all(&files.dir)?;
    let rendered = match format {
        ObsFormat::Jsonl => dd_obs::export::to_jsonl(recorder),
        ObsFormat::Chrome => dd_obs::export::to_chrome_trace(recorder),
        ObsFormat::Summary => dd_obs::export::summary(recorder),
    };
    // dd-lint: allow(par-purity): called only from the runner's sequential section after the par_map barrier; the fanned-out closures execute simulation only
    fs::write(files.obs(format), rendered)
}

/// One value as a series line holds it (`%.6f`).
fn format_value(v: f64) -> String {
    format!("{v:.6}")
}

/// `v` as [`read_series`] reads it back from a written series: rounded
/// to the six decimals a line keeps.
pub(crate) fn as_written(v: f64) -> f64 {
    format_value(v).parse().unwrap_or(v)
}

/// Writes one value per line.
fn write_series(path: &Path, values: &[f64]) -> std::io::Result<()> {
    // dd-lint: allow(par-purity): called only from the runner's sequential section after the par_map barrier; the fanned-out closures execute simulation only
    let file = fs::File::create(path)?;
    let mut w = std::io::BufWriter::new(file);
    for &v in values {
        writeln!(w, "{}", format_value(v))?;
    }
    w.flush()
}

/// Reads a one-value-per-line series.
pub fn read_series(path: &Path) -> std::io::Result<Vec<f64>> {
    // dd-lint: allow(par-purity): the verify loop reads baselines serially after the re-execution barrier; nothing here runs inside fanned-out closures
    let file = fs::File::open(path)?;
    let mut out = Vec::new();
    for line in BufReader::new(file).lines() {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        let v: f64 = trimmed.parse().map_err(|e| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("bad value '{trimmed}': {e}"),
            )
        })?;
        out.push(v);
    }
    Ok(out)
}

/// The three artifact series of one run, each with the file it goes to,
/// in write order.
///
/// Per-component execution cost is apportioned from the outcome's
/// execution ledger by each component's busy share, so the series sums
/// to the run's execution cost.
pub(crate) fn run_series(
    files: &RunFiles,
    outcome: &RunOutcome,
    trace: &ExecutionTrace,
) -> [(PathBuf, Vec<f64>); 3] {
    let busy_total: f64 = trace.components.iter().map(|c| c.busy_secs()).sum();
    let costs: Vec<f64> = trace
        .components
        .iter()
        .map(|c| {
            if busy_total > 0.0 {
                outcome.ledger.execution * c.busy_secs() / busy_total
            } else {
                0.0
            }
        })
        .collect();
    [
        (files.phase_time(), trace.phase_times()),
        (files.function_service_time(), trace.service_times()),
        (files.execution_cost(), costs),
    ]
}

/// Writes the three artifact files for one run ([`run_series`]).
pub fn write_run_outputs(
    files: &RunFiles,
    outcome: &RunOutcome,
    trace: &ExecutionTrace,
) -> std::io::Result<()> {
    fs::create_dir_all(&files.dir)?;
    for (path, values) in run_series(files, outcome, trace) {
        write_series(&path, &values)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("dd-cli-test-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn series_roundtrip() {
        let dir = tmpdir("roundtrip");
        let path = dir.join("series.txt");
        write_series(&path, &[1.5, 0.000001, 42.0]).unwrap();
        let back = read_series(&path).unwrap();
        assert_eq!(back.len(), 3);
        assert!((back[0] - 1.5).abs() < 1e-9);
        assert!((back[2] - 42.0).abs() < 1e-9);
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn read_rejects_garbage() {
        let dir = tmpdir("garbage");
        let path = dir.join("bad.txt");
        fs::write(&path, "1.0\nnot-a-number\n").unwrap();
        assert!(read_series(&path).is_err());
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn run_files_layout() {
        let f = RunFiles::new(Path::new("/tmp/out"), 3);
        assert_eq!(f.dir, Path::new("/tmp/out/run-3"));
        assert!(f.phase_time().ends_with("phase_time.txt"));
        assert!(f
            .function_service_time()
            .ends_with("function_service_time.txt"));
        assert!(f.execution_cost().ends_with("execution_cost.txt"));
        assert_eq!(
            f.obs(ObsFormat::Jsonl),
            Path::new("/tmp/out/run-3/obs.jsonl")
        );
        assert_eq!(
            f.obs(ObsFormat::Chrome),
            Path::new("/tmp/out/run-3/trace.json")
        );
        assert_eq!(
            f.obs(ObsFormat::Summary),
            Path::new("/tmp/out/run-3/obs_summary.txt")
        );
    }

    #[test]
    fn write_obs_renders_each_format() {
        use dd_obs::Recorder;
        let dir = tmpdir("obs");
        let mut rec = MemoryRecorder::new();
        rec.declare_counter("starts_hot");
        rec.add("starts_hot", 3);
        rec.span("phase", "phase", 0.0, 1.0, Vec::new());
        for format in [ObsFormat::Jsonl, ObsFormat::Chrome, ObsFormat::Summary] {
            let files = RunFiles::new(&dir, 1);
            write_obs(&files, format, &rec).unwrap();
            let text = fs::read_to_string(files.obs(format)).unwrap();
            assert!(
                text.contains("starts_hot") || format == ObsFormat::Chrome,
                "{text}"
            );
            assert!(!text.is_empty());
        }
        let _ = fs::remove_dir_all(dir);
    }
}
