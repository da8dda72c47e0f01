//! Property tests for [`smooth_netsim::cyclic_wrap`], the phase-shifted
//! cyclic fold that turns a finite video's rate function into the steady
//! state of a looping source: `g(t) = Σ_k f(t − offset + k·period)`.
//!
//! The invariants: mass (total bits) is conserved for any offset and
//! period, the result lives in `[0, period]`, offset 0 with a covering
//! period is the identity, and an offset of exactly one period is the
//! same fold as offset 0 — including offsets that park pieces right on
//! the wrap boundary.

use proptest::prelude::*;
use smooth_core::RateSegment;
use smooth_metrics::StepFunction;
use smooth_netsim::cyclic_wrap;

/// Total mass (bits) under a rate function.
fn mass(f: &StepFunction) -> f64 {
    f.pieces().map(|(s, e, v)| v * (e - s)).sum()
}

/// A random piecewise-constant source over [0, ~5 s].
fn arb_source() -> impl Strategy<Value = StepFunction> {
    proptest::collection::vec((0.01f64..0.5, 0.0f64..10.0e6), 1..12).prop_map(|pieces| {
        let mut segs = Vec::with_capacity(pieces.len());
        let mut t = 0.0;
        for (dur, rate) in pieces {
            segs.push(RateSegment {
                start: t,
                end: t + dur,
                rate,
            });
            t += dur;
        }
        StepFunction::from_segments(&segs)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Folding conserves mass for any offset (including offsets beyond
    /// one period) and any period — even periods shorter than the video,
    /// where pieces overlap themselves after wrapping, and periods well
    /// below one piece's length, where a single piece crosses several
    /// wrap boundaries.
    #[test]
    fn wrap_conserves_mass_and_stays_in_window(
        source in arb_source(),
        offset in 0.0f64..12.0,
        // Log-uniform period scale over [0.005, 3]: most cases fold the
        // source more than once.
        log_period_scale in -5.3f64..1.1,
    ) {
        let period = source.domain_end() * log_period_scale.exp();
        prop_assume!(period > 1e-6);
        let g = cyclic_wrap(&source, offset, period);
        let m0 = mass(&source);
        let m1 = mass(&g);
        prop_assert!(
            (m1 - m0).abs() <= 1e-9 * m0.max(1.0),
            "mass not conserved: {} -> {}", m0, m1
        );
        prop_assert!(g.domain_start() >= -1e-12);
        prop_assert!(g.domain_end() <= period + 1e-9);
    }

    /// Offset 0 with a period covering the whole video is the identity.
    #[test]
    fn zero_offset_with_covering_period_is_identity(source in arb_source()) {
        let period = source.domain_end() + 1.0;
        let g = cyclic_wrap(&source, 0.0, period);
        prop_assert_eq!(mass(&g), mass(&source));
        for (s, e, v) in source.pieces() {
            let mid = 0.5 * (s + e);
            prop_assert_eq!(g.value_at(mid), v, "at t={}", mid);
        }
    }

    /// An offset of exactly one period is the same fold as offset 0
    /// (`g` is periodic in the offset), up to ulp-level boundary jitter
    /// from the `s + period − period` round trip.
    #[test]
    fn offset_of_one_period_matches_zero_offset(
        source in arb_source(),
        period_scale in 0.5f64..2.0,
    ) {
        let period = source.domain_end() * period_scale;
        prop_assume!(period > 1e-3);
        let g0 = cyclic_wrap(&source, 0.0, period);
        let g1 = cyclic_wrap(&source, period, period);
        prop_assert!(
            (mass(&g0) - mass(&g1)).abs() <= 1e-9 * mass(&g0).max(1.0)
        );
        // Values agree away from piece boundaries.
        for (s, e, v) in g0.pieces() {
            prop_assume!(e - s > 1e-9);
            let mid = 0.5 * (s + e);
            prop_assert!(
                (g1.value_at(mid) - v).abs() <= 1e-6 * v.abs().max(1.0),
                "at t={}: {} vs {}", mid, g1.value_at(mid), v
            );
        }
    }
}

/// A piece pushed across the wrap boundary splits into a tail at the end
/// of the window and a head at the start — with the analytic values.
#[test]
fn near_boundary_offset_splits_piece_across_wrap() {
    let v = 6.0e6;
    let d = 0.4;
    let source = StepFunction::from_segments(&[RateSegment {
        start: 0.0,
        end: d,
        rate: v,
    }]);
    let period = 2.0;
    // Half the piece hangs past the boundary.
    let offset = period - d / 2.0;
    let g = cyclic_wrap(&source, offset, period);

    assert!((mass(&g) - v * d).abs() <= 1e-6);
    // Tail: [period - d/2, period); head: [0, d/2).
    assert_eq!(g.value_at(period - d / 4.0), v);
    assert_eq!(g.value_at(d / 4.0), v);
    // Middle of the window is silent.
    assert_eq!(g.value_at(period / 2.0), 0.0);
}

/// Offset exactly 0 versus offset exactly equal to the period on a
/// boundary-aligned piece: both place the mass identically.
#[test]
fn exact_zero_and_exact_period_offsets_agree_on_aligned_piece() {
    let source = StepFunction::from_segments(&[RateSegment {
        start: 0.0,
        end: 1.0,
        rate: 3.0e6,
    }]);
    let period = 1.0;
    let g0 = cyclic_wrap(&source, 0.0, period);
    let g1 = cyclic_wrap(&source, period, period);
    for i in 0..10 {
        let t = (i as f64 + 0.5) / 10.0;
        assert_eq!(g0.value_at(t), 3.0e6);
        assert_eq!(g1.value_at(t), 3.0e6);
    }
    assert!((mass(&g0) - 3.0e6).abs() <= 1e-6);
    assert!((mass(&g1) - 3.0e6).abs() <= 1e-6);
}
