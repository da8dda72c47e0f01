//! Property-based verification of Theorem 1 and the core invariants.
//!
//! The paper *proves* that for `K ≥ 1` and `D ≥ (K+1)τ` the algorithm
//! satisfies the delay bound and continuous service for every input.
//! These properties quantify over random traces and random feasible
//! parameters, so any implementation drift from the theorem shows up as a
//! counterexample, not a hunch.

use proptest::prelude::*;
use smooth_core::{
    check_theorem1, ott_smooth, smooth, smooth_streaming, smooth_with, PatternEstimator,
    RateSelection, SmootherParams, TypeDefaultEstimator,
};
use smooth_metrics::StepFunction;
use smooth_mpeg::{GopPattern, PictureType, Resolution};
use smooth_trace::VideoTrace;

const TAU: f64 = 1.0 / 30.0;

/// Strategy: a random trace with a random regular pattern and wildly
/// varying picture sizes (1 kbit .. 1 Mbit).
fn arb_trace() -> impl Strategy<Value = VideoTrace> {
    let patterns = prop_oneof![
        Just((3usize, 9usize)),
        Just((2, 6)),
        Just((3, 12)),
        Just((1, 5)),
        Just((1, 1)),
        Just((4, 12)),
        Just((2, 2)),
    ];
    (patterns, 1usize..120)
        .prop_flat_map(|((m, n), len)| {
            (
                Just((m, n)),
                proptest::collection::vec(1_000u64..1_000_000, len),
            )
        })
        .prop_map(|((m, n), sizes)| {
            VideoTrace::new(
                "prop",
                GopPattern::new(m, n).expect("regular"),
                Resolution::VGA,
                30.0,
                sizes,
            )
            .expect("positive sizes")
        })
}

/// Strategy: feasible parameters for a given K range, sometimes with a
/// channel rate grid (the snapped rate must keep every guarantee).
fn arb_params() -> impl Strategy<Value = SmootherParams> {
    (
        1usize..=6,
        1usize..=20,
        0.0f64..0.4,
        proptest::option::of(1_000.0f64..500_000.0),
    )
        .prop_map(|(k, h, extra_slack, grid)| {
            let d = (k as f64 + 1.0) * TAU + extra_slack;
            let p = SmootherParams::new(d, k, h, TAU).expect("feasible by construction");
            match grid {
                Some(g) => p.with_rate_grid(g),
                None => p,
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Theorem 1, full strength: delay bound, continuous service, rate
    /// bounds, and no underflow, for every random (trace, params) pair
    /// with K >= 1.
    #[test]
    fn theorem1_holds_for_all_feasible_configs(trace in arb_trace(), params in arb_params()) {
        let result = smooth(&trace, params);
        let report = check_theorem1(&result, &trace.sizes);
        prop_assert!(report.holds(), "violation: {report:?} (params {params:?})");
    }

    /// The same, under the moving-average rate selection (eq. 15): the
    /// modification never endangers the theorem.
    #[test]
    fn theorem1_holds_for_moving_average(trace in arb_trace(), params in arb_params()) {
        let est = PatternEstimator::default();
        let result = smooth_with(&trace, params, &est, RateSelection::MovingAverage);
        let report = check_theorem1(&result, &trace.sizes);
        prop_assert!(report.holds(), "violation: {report:?}");
    }

    /// And under a deliberately bad estimator: Theorem 1 requires only
    /// S_i to be exact, so constant per-type guesses must not break it.
    #[test]
    fn theorem1_immune_to_estimation_error(trace in arb_trace(), params in arb_params()) {
        let est = TypeDefaultEstimator::default();
        let result = smooth_with(&trace, params, &est, RateSelection::Basic);
        let report = check_theorem1(&result, &trace.sizes);
        prop_assert!(report.holds(), "violation: {report:?}");
    }

    /// Work conservation: the rate function integrates to exactly the
    /// trace's total bits.
    #[test]
    fn bits_are_conserved(trace in arb_trace(), params in arb_params()) {
        let result = smooth(&trace, params);
        let f = StepFunction::from_segments(&result.rate_segments());
        let sent = f.integral(f.domain_start(), f.domain_end());
        let expected = trace.total_bits() as f64;
        prop_assert!((sent / expected - 1.0).abs() < 1e-9,
            "sent {sent} vs trace {expected}");
    }

    /// Offline and streaming (stored mode) produce bit-identical results.
    #[test]
    fn streaming_equals_offline(trace in arb_trace(), params in arb_params()) {
        let offline = smooth(&trace, params);
        let streamed = smooth_streaming(&trace, params);
        prop_assert_eq!(offline, streamed);
    }

    /// The a-priori (taut string) schedule respects its delay bound and
    /// never beats physics: it sends no bit before it has arrived.
    #[test]
    fn taut_string_is_feasible(trace in arb_trace(), extra in 0.01f64..0.4) {
        let d = 1.5 * TAU + extra;
        let r = ott_smooth(&trace, d).expect("feasible bound");
        for p in &r.schedule {
            prop_assert!(p.delay <= d + 1e-6, "picture {} delay {}", p.index, p.delay);
        }
        // Causality at every arrival instant.
        let cum_at = |time: f64| -> f64 {
            r.segments.iter()
                .take_while(|s| s.start < time)
                .map(|s| s.rate * (time.min(s.end) - s.start).max(0.0))
                .sum()
        };
        let mut prefix = 0.0;
        for j in 0..trace.len() {
            let arrival = (j as f64 + 1.0) * TAU;
            prop_assert!(cum_at(arrival) <= prefix + trace.sizes[j] as f64 + 1.0,
                "sent ahead of arrival at picture {j}");
            prefix += trace.sizes[j] as f64;
        }
    }

    /// The oracle schedule's peak rate is a lower bound for the online
    /// algorithm's peak at the same delay bound (oracle optimality).
    #[test]
    fn oracle_peak_never_exceeds_online_peak(trace in arb_trace(), extra in 0.05f64..0.3) {
        let d = 2.0 * TAU + extra;
        let opt = ott_smooth(&trace, d).expect("feasible");
        let online = smooth(&trace, SmootherParams::new(d, 1, 9, TAU).expect("feasible"));
        let online_peak = online.rates().fold(0.0f64, f64::max);
        prop_assert!(opt.max_rate() <= online_peak + 1e-6,
            "oracle {} > online {}", opt.max_rate(), online_peak);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Step-function algebra: integral additivity over adjacent windows.
    #[test]
    fn step_integral_is_additive(
        breaks in proptest::collection::vec(0.0f64..100.0, 2..20),
        split in 0.0f64..100.0,
    ) {
        let mut b = breaks;
        b.sort_by(|x, y| x.partial_cmp(y).expect("finite"));
        b.dedup_by(|x, y| (*x - *y).abs() < 1e-9);
        prop_assume!(b.len() >= 2);
        let values: Vec<f64> = (0..b.len() - 1).map(|i| (i as f64) * 7.5 % 13.0).collect();
        let f = StepFunction::new(b.clone(), values);
        let (lo, hi) = (b[0], *b.last().expect("nonempty"));
        let mid = split.clamp(lo, hi);
        let whole = f.integral(lo, hi);
        let parts = f.integral(lo, mid) + f.integral(mid, hi);
        prop_assert!((whole - parts).abs() < 1e-6 * whole.abs().max(1.0));
    }

    /// Shifting left by dt moves the integration window exactly.
    #[test]
    fn step_shift_preserves_mass(dt in -50.0f64..50.0) {
        let f = StepFunction::new(vec![0.0, 1.0, 3.0, 7.0], vec![2.0, 8.0, 1.0]);
        let g = f.shifted_left(dt);
        let a = f.integral(0.0, 7.0);
        let b = g.integral(-dt, 7.0 - dt);
        prop_assert!((a - b).abs() < 1e-9);
    }
}

/// Deterministic adversarial check (not a proptest: it must always fire):
/// K = 0 with near-zero slack CAN violate the bound — the paper's §5.2
/// observation, and the reason Theorem 1 requires K >= 1.
#[test]
fn k0_violations_are_constructible() {
    let pattern = GopPattern::new(3, 9).unwrap();
    let mut sizes = vec![4_000u64; 36];
    for (i, s) in sizes.iter_mut().enumerate() {
        if pattern.type_at(i) == PictureType::I {
            *s = 450_000;
        }
    }
    let trace = VideoTrace::new("adv", pattern, Resolution::VGA, 30.0, sizes).unwrap();
    let params = SmootherParams::new_unchecked(TAU + 0.001, 0, 9, TAU);
    let result = smooth(&trace, params);
    assert!(
        result.delay_violations() > 0,
        "K=0 with ~1ms slack must violate on an I-picture surprise (max delay {})",
        result.max_delay()
    );
}
