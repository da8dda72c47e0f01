//! Wall-clock recording for sweep runs: the `BENCH_sweep.json` report.
//!
//! The experiments binary times each figure's generation and serializes a
//! [`SweepBenchReport`] so per-figure wall times stay diffable across
//! commits: thread count **with its provenance** (flag/env/cores — so the
//! report can never silently contradict `available_cores`), per-figure
//! wall seconds with serial baselines, and the git commit the numbers
//! belong to. End-to-end and per-layer performance lives in the
//! repository benchmark (`linkbench/`), not here.

use std::path::Path;
use std::process::Command;
use std::time::Instant;

use serde::{Deserialize, Serialize};

use crate::ThreadSource;

/// Timing for one named unit of sweep work (usually a figure).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FigureTiming {
    pub name: String,
    /// Wall time with the report's thread count.
    pub wall_seconds: f64,
    /// Wall time of the same work forced serial, when it was measured
    /// (`None` when the run skipped the baseline).
    #[serde(default)]
    pub serial_seconds: Option<f64>,
}

impl FigureTiming {
    /// Serial-over-parallel speedup, when both sides were measured.
    pub fn speedup(&self) -> Option<f64> {
        self.serial_seconds.map(|s| {
            if self.wall_seconds > 0.0 {
                s / self.wall_seconds
            } else {
                1.0
            }
        })
    }
}

/// The on-disk `BENCH_sweep.json` document.
///
/// Fields added after the first release carry `#[serde(default)]` so old
/// reports still load.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepBenchReport {
    /// Worker threads the timed runs used.
    pub threads: usize,
    /// Where `threads` came from: `"flag"`, `"env"`, or `"cores"`.
    #[serde(default)]
    pub thread_source: String,
    /// Cores the machine reported at run time
    /// ([`std::thread::available_parallelism`] — logical CPUs).
    pub available_cores: usize,
    /// Commit the numbers were measured at (`git rev-parse HEAD`), empty
    /// when git was unavailable.
    #[serde(default)]
    pub git_commit: String,
    pub figures: Vec<FigureTiming>,
    pub total_seconds: f64,
}

impl SweepBenchReport {
    /// Creates a report recording both the worker count and how it was
    /// chosen, plus the current git commit when resolvable.
    pub fn with_thread_source(threads: usize, source: ThreadSource) -> Self {
        SweepBenchReport {
            threads,
            thread_source: source.as_str().to_string(),
            available_cores: crate::place::logical_cores(),
            git_commit: current_git_commit().unwrap_or_default(),
            figures: Vec::new(),
            total_seconds: 0.0,
        }
    }

    /// Times `f`, records it under `name`, and returns its output.
    pub fn time<R>(&mut self, name: &str, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let out = f();
        let dt = t0.elapsed().as_secs_f64();
        self.figures.push(FigureTiming {
            name: name.to_string(),
            wall_seconds: dt,
            serial_seconds: None,
        });
        self.total_seconds += dt;
        out
    }

    /// Attaches a serial-baseline wall time to an already-recorded figure.
    pub fn set_serial_baseline(&mut self, name: &str, serial_seconds: f64) {
        if let Some(fig) = self.figures.iter_mut().find(|f| f.name == name) {
            fig.serial_seconds = Some(serial_seconds);
        }
    }

    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("report serializes")
    }

    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_json())
    }
}

/// `git rev-parse HEAD` of the working directory, if git is present and
/// this is a repository.
fn current_git_commit() -> Option<String> {
    let out = Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()?;
    if !out.status.success() {
        return None;
    }
    let hash = String::from_utf8(out.stdout).ok()?.trim().to_string();
    if hash.is_empty() {
        None
    } else {
        Some(hash)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_round_trips_through_json() {
        let mut report = SweepBenchReport::with_thread_source(4, ThreadSource::Env);
        let x = report.time("fig7", || 41 + 1);
        assert_eq!(x, 42);
        report.time("fig8", || ());
        report.set_serial_baseline("fig7", 2.0);
        assert_eq!(report.figures.len(), 2);
        assert!(report.total_seconds >= 0.0);
        assert_eq!(report.thread_source, "env");

        let json = report.to_json();
        let back: SweepBenchReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
        assert!(back.figures[0].serial_seconds.is_some());
        assert!(back.figures[1].serial_seconds.is_none());
    }

    #[test]
    fn old_reports_without_new_fields_still_load() {
        // The first on-disk schema: no thread_source or git_commit keys.
        let legacy = r#"{
            "threads": 2,
            "available_cores": 1,
            "figures": [
                {"name": "fig7", "wall_seconds": 1.5, "serial_seconds": 3.0}
            ],
            "total_seconds": 1.5
        }"#;
        let report: SweepBenchReport = serde_json::from_str(legacy).unwrap();
        assert_eq!(report.threads, 2);
        assert_eq!(report.thread_source, "");
        assert_eq!(report.git_commit, "");
        assert_eq!(report.figures[0].speedup(), Some(2.0));
    }

    #[test]
    fn provenance_records_core_topology() {
        let report = SweepBenchReport::with_thread_source(1, ThreadSource::Cores);
        assert!(report.available_cores >= 1);
        assert_eq!(report.available_cores, crate::place::logical_cores());
        assert_eq!(report.thread_source, "cores");
    }

    #[test]
    fn speedup_needs_both_measurements() {
        let fig = FigureTiming {
            name: "f".into(),
            wall_seconds: 1.0,
            serial_seconds: Some(3.0),
        };
        assert_eq!(fig.speedup(), Some(3.0));
        let fig = FigureTiming {
            name: "f".into(),
            wall_seconds: 1.0,
            serial_seconds: None,
        };
        assert_eq!(fig.speedup(), None);
    }
}
