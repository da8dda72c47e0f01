//! Result persistence: CSV exports for plotting and JSON round-trips for
//! archiving smoothing runs (so an evaluation can be re-analyzed without
//! re-running).

use smooth_core::{theorem1_bounds, RateSegment, SmoothingResult};
use std::fmt::Write as _;
use std::path::Path;

/// Renders a per-picture schedule as CSV
/// (`index,start_s,rate_bps,depart_s,delay_s,lower0_bps,upper0_bps`).
///
/// `sizes` are the smoothed trace's picture sizes (bits, display order):
/// the Theorem 1 bounds columns are recomputed from them with
/// [`theorem1_bounds`], the delay column with [`PictureSchedule::delay`].
///
/// [`PictureSchedule::delay`]: smooth_core::PictureSchedule::delay
pub fn schedule_to_csv(result: &SmoothingResult, sizes: &[u64]) -> String {
    let mut out = String::from("index,start_s,rate_bps,depart_s,delay_s,lower0_bps,upper0_bps\n");
    for p in &result.schedule {
        let (lower0, upper0) = theorem1_bounds(&result.params, p.index, p.start, sizes[p.index]);
        let _ = writeln!(
            out,
            "{},{:.9},{:.3},{:.9},{:.9},{:.3},{}",
            p.index,
            p.start,
            p.rate,
            p.depart,
            p.delay(result.params.tau),
            lower0,
            if upper0.is_finite() {
                format!("{upper0:.3}")
            } else {
                "inf".into()
            },
        );
    }
    out
}

/// Renders rate segments as CSV (`start_s,end_s,rate_bps`).
pub fn segments_to_csv(segments: &[RateSegment]) -> String {
    let mut out = String::from("start_s,end_s,rate_bps\n");
    for s in segments {
        let _ = writeln!(out, "{:.9},{:.9},{:.3}", s.start, s.end, s.rate);
    }
    out
}

/// Saves a full [`SmoothingResult`] (parameters + schedule) as JSON.
pub fn save_result_json(
    result: &SmoothingResult,
    path: impl AsRef<Path>,
) -> Result<(), std::io::Error> {
    let json = serde_json::to_string_pretty(result).expect("SmoothingResult serializes");
    std::fs::write(path, json)
}

/// Loads a [`SmoothingResult`] saved by [`save_result_json`].
pub fn load_result_json(path: impl AsRef<Path>) -> Result<SmoothingResult, LoadError> {
    let text = std::fs::read_to_string(path).map_err(LoadError::Io)?;
    serde_json::from_str(&text).map_err(LoadError::Json)
}

/// Errors from [`load_result_json`].
#[derive(Debug)]
pub enum LoadError {
    /// Filesystem error.
    Io(std::io::Error),
    /// Malformed JSON.
    Json(serde_json::Error),
}

impl std::fmt::Display for LoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LoadError::Io(e) => write!(f, "I/O error: {e}"),
            LoadError::Json(e) => write!(f, "JSON error: {e}"),
        }
    }
}

impl std::error::Error for LoadError {}

#[cfg(test)]
mod tests {
    use super::*;
    use smooth_core::{smooth, SmootherParams};
    use smooth_trace::{driving1, generate, SequenceId, VideoTrace};

    fn sample_trace() -> VideoTrace {
        driving1().truncated(27)
    }

    fn sample() -> SmoothingResult {
        smooth(
            &sample_trace(),
            SmootherParams::at_30fps(0.2, 1, 9).unwrap(),
        )
    }

    #[test]
    fn schedule_csv_has_one_row_per_picture() {
        let r = sample();
        let csv = schedule_to_csv(&r, &sample_trace().sizes);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 1 + 27);
        assert!(lines[0].starts_with("index,start_s"));
        // Row fields parse back as numbers (except possible "inf").
        let fields: Vec<&str> = lines[1].split(',').collect();
        assert_eq!(fields.len(), 7);
        assert_eq!(fields[0], "0");
        assert!(fields[2].parse::<f64>().unwrap() > 0.0);
    }

    #[test]
    fn segments_csv_roundtrips_structure() {
        let r = sample();
        let csv = segments_to_csv(&r.rate_segments());
        assert_eq!(csv.lines().count(), 1 + r.rate_segments().len());
    }

    #[test]
    fn json_roundtrip_is_exact() {
        let r = sample();
        let dir = std::env::temp_dir().join("smooth_metrics_export_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("result.json");
        save_result_json(&r, &path).unwrap();
        let back = load_result_json(&path).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn load_errors_are_typed() {
        assert!(matches!(
            load_result_json("/nonexistent/r.json"),
            Err(LoadError::Io(_))
        ));
        let dir = std::env::temp_dir().join("smooth_metrics_export_test2");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.json");
        std::fs::write(&path, "not json").unwrap();
        assert!(matches!(load_result_json(&path), Err(LoadError::Json(_))));
    }

    #[test]
    fn json_with_derived_fields_still_loads() {
        // Saved before the schedule record dropped its derived fields: every
        // picture still carries `delay`, `lower0`, `upper0` (`null` when
        // infinite) and `lookahead_used`. The loader ignores those keys and
        // reads the decision `(index, start, rate, depart)` bit for bit.
        // The run: `generate --sequence tennis --pictures 12 --seed 3`,
        // smoothed at D = 0.15 s, K = 1 (H = N).
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/tests/fixtures/result_with_derived_fields.json"
        );
        let text = std::fs::read_to_string(path).unwrap();
        assert!(text.contains("\"lookahead_used\"") && text.contains("\"upper0\": null"));
        let loaded = load_result_json(path).unwrap();
        let trace = generate(SequenceId::Tennis, 12, 3);
        let params = SmootherParams::at_30fps(0.15, 1, trace.pattern.n()).unwrap();
        assert_eq!(loaded.params, params);
        let bits = |r: &SmoothingResult| -> Vec<(usize, u64, u64, u64)> {
            r.schedule
                .iter()
                .map(|p| {
                    (
                        p.index,
                        p.start.to_bits(),
                        p.rate.to_bits(),
                        p.depart.to_bits(),
                    )
                })
                .collect()
        };
        assert_eq!(bits(&loaded), bits(&smooth(&trace, params)));
    }

    #[test]
    fn infinite_upper_bound_serializes_as_inf() {
        // r_U(0) is infinite when service starts at or after (i+K+1)·τ;
        // fabricate such a start for picture 0.
        let mut r = sample();
        r.schedule[0].start = 1.0;
        let csv = schedule_to_csv(&r, &sample_trace().sizes);
        assert!(csv.lines().nth(1).unwrap().ends_with(",inf"));
    }
}
