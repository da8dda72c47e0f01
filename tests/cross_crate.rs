//! Cross-crate interactions and the ablation experiments DESIGN.md calls
//! out (X-mod: moving-average selection; estimator choice; K = N vs ideal
//! smoothing).

use mpeg_smooth::prelude::*;
use smooth_core::{smooth_with, OracleEstimator, TypeDefaultEstimator};
use smooth_metrics::{baseline_rate_function, rate_function};
use smooth_trace::{from_csv, to_csv};

const TAU: f64 = 1.0 / 30.0;

/// X-mod ablation (paper §4.4): the moving-average variant makes *more,
/// smaller* rate changes and tracks ideal smoothing more closely — a
/// smaller area difference — on every paper sequence.
#[test]
fn moving_average_tracks_ideal_more_closely() {
    let est = PatternEstimator::default();
    for video in paper_sequences() {
        let n = video.pattern.n();
        let params = SmootherParams::at_30fps(0.2, 1, n).unwrap();
        let basic = smooth_with(&video, params, &est, RateSelection::Basic);
        let ma = smooth_with(&video, params, &est, RateSelection::MovingAverage);

        let m_basic = measure(&video, &basic);
        let m_ma = measure(&video, &ma);

        assert!(
            m_ma.rate_changes > m_basic.rate_changes,
            "{}: MA should change rate more often ({} vs {})",
            video.name,
            m_ma.rate_changes,
            m_basic.rate_changes
        );
        assert!(
            m_ma.area_difference < m_basic.area_difference,
            "{}: MA should have smaller area difference ({} vs {})",
            video.name,
            m_ma.area_difference,
            m_basic.area_difference
        );
    }
}

/// Estimator ablation: on the paper's own measure — area difference to
/// the ideal rate function — the pattern estimator (S_{j−N}) beats fixed
/// type defaults, and the oracle beats both, on EVERY paper sequence.
/// All three satisfy the delay bound (Theorem 1 does not need estimates).
#[test]
fn estimator_quality_only_affects_smoothness() {
    for video in paper_sequences() {
        let n = video.pattern.n();
        let params = SmootherParams::at_30fps(0.2, 1, n).unwrap();

        let pattern_est = PatternEstimator::default();
        let default_est = TypeDefaultEstimator::default();
        let oracle_est = OracleEstimator {
            sizes: video.sizes.clone(),
        };

        let r_pattern = smooth_with(&video, params, &pattern_est, RateSelection::Basic);
        let r_default = smooth_with(&video, params, &default_est, RateSelection::Basic);
        let r_oracle = smooth_with(&video, params, &oracle_est, RateSelection::Basic);

        for (name, r) in [
            ("pattern", &r_pattern),
            ("default", &r_default),
            ("oracle", &r_oracle),
        ] {
            assert_eq!(r.delay_violations(), 0, "{}/{name}", video.name);
            assert!(r.continuous_service(), "{}/{name}", video.name);
        }

        let area = |r: &SmoothingResult| measure(&video, r).area_difference;
        assert!(
            area(&r_pattern) < area(&r_default),
            "{}: pattern memory should beat fixed defaults: {} vs {}",
            video.name,
            area(&r_pattern),
            area(&r_default)
        );
        assert!(
            area(&r_oracle) < area(&r_pattern),
            "{}: the oracle should track ideal most closely: {} vs {}",
            video.name,
            area(&r_oracle),
            area(&r_pattern)
        );
    }
}

/// Paper §5.2: "For K = H = N = 9, the smoothing algorithm does not
/// estimate picture sizes. In this case, the basic algorithm is very
/// similar to ideal smoothing." — the two rate functions nearly coincide
/// after alignment.
#[test]
fn k_equals_n_approaches_ideal_smoothing() {
    let video = driving1();
    let n = video.pattern.n();
    let params = SmootherParams::constant_slack(n, n, TAU); // K = H = N
    let result = smooth(&video, params);
    assert_eq!(result.delay_violations(), 0);

    let r = rate_function(&result);
    let ideal = baseline_rate_function(&ideal_smooth(&video));
    // Align: the algorithm starts (N - K)·τ = 0 earlier than ideal here
    // (K = N), so no shift is needed.
    let t_end = video.duration();
    let diff = r.integrate_with(&ideal, 0.5, t_end, |a, b| (a - b).abs());
    let mass = ideal.integral(0.5, t_end);
    let rel = diff / mass;
    assert!(
        rel < 0.15,
        "K=N should nearly reproduce ideal smoothing: rel diff {rel}"
    );
}

/// The ideal-smoothing rate levels equal the trace's pattern rates.
#[test]
fn ideal_levels_match_pattern_rates() {
    let video = backyard();
    let ideal = ideal_smooth(&video);
    let rates = video.pattern_rates_bps();
    // Sample the ideal rate function in the middle of each pattern slot.
    let f = baseline_rate_function(&ideal);
    let n_tau = video.pattern.n() as f64 * TAU;
    for (p, &want) in rates.iter().enumerate() {
        let t = (p as f64 + 1.5) * n_tau; // inside pattern p's send window
        let have = f.value_at(t);
        assert!(
            (have / want - 1.0).abs() < 1e-9,
            "pattern {p}: ideal sends at {have}, pattern rate {want}"
        );
    }
}

/// Traces survive a CSV round trip through the io layer and still smooth
/// to identical schedules.
#[test]
fn csv_roundtrip_preserves_smoothing() {
    for video in paper_sequences() {
        let csv = to_csv(&video);
        let back = from_csv(&csv).expect("roundtrip");
        assert_eq!(back, video);
        let params = SmootherParams::recommended(video.pattern.n());
        assert_eq!(smooth(&video, params), smooth(&back, params));
    }
}

/// The four sequences each stress a different code path; make sure the
/// recommended configuration works on ALL of them with one call.
#[test]
fn recommended_params_work_everywhere() {
    for video in paper_sequences() {
        let params = SmootherParams::recommended(video.pattern.n());
        let result = smooth(&video, params);
        let report = check_theorem1(&result, &video.sizes);
        assert!(report.holds(), "{}: {report:?}", video.name);
        // And produce a genuinely smooth output: SD under a third of the
        // mean rate.
        let m = measure(&video, &result);
        assert!(
            m.std_dev_bps < video.mean_rate_bps() / 3.0 + 1.0,
            "{}: SD {} vs mean {}",
            video.name,
            m.std_dev_bps,
            video.mean_rate_bps()
        );
    }
}

/// Rate functions produced by the algorithm integrate to the trace's
/// total bits even when converted through the metrics layer.
#[test]
fn metrics_rate_function_conserves_bits() {
    let video = driving2();
    let params = SmootherParams::recommended(video.pattern.n());
    let result = smooth(&video, params);
    let f = rate_function(&result);
    let sent = f.integral(f.domain_start(), f.domain_end());
    assert!((sent / video.total_bits() as f64 - 1.0).abs() < 1e-9);
}
