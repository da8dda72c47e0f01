//! Properties pinning every SIMD dispatch path to the scalar fallback.
//!
//! The `std::arch` kernels of `smooth_core::simd` must be **bit
//! identical** to the portable scalar kernel (which the
//! `incremental_props` suite in turn pins to the frozen naive
//! reference). These tests force each available dispatch level on the
//! same inputs and byte-compare the full schedules, exercise the cold
//! crossing path, and check that `BlockLanes` reuse across pictures
//! cannot leak lane state.
//!
//! The dispatch level is process-global, so every test that forces it
//! holds [`LEVEL_LOCK`] — the harness runs `#[test]` functions on
//! worker threads in one process.

use std::sync::Mutex;

use proptest::prelude::*;
use smooth_core::simd::{
    available_levels, bound_blocks8_at_level, reset_active_level, set_active_level, SimdLevel,
};
use smooth_core::{
    smooth_with, BlockLanes, PatternEstimator, RateSelection, SmootherParams, SmoothingResult,
    TypeDefaultEstimator,
};
use smooth_mpeg::{GopPattern, Resolution};
use smooth_trace::VideoTrace;

/// Serializes every test that flips the process-global dispatch level.
static LEVEL_LOCK: Mutex<()> = Mutex::new(());

const TAU: f64 = 1.0 / 30.0;

/// Strategy: a random regular GOP pattern.
fn arb_pattern() -> impl Strategy<Value = GopPattern> {
    prop_oneof![
        Just((3usize, 9usize)),
        Just((2, 6)),
        Just((3, 12)),
        Just((1, 5)),
        Just((1, 1)),
        Just((4, 12)),
    ]
    .prop_map(|(m, n)| GopPattern::new(m, n).expect("regular pattern"))
}

/// Strategy: a random trace over a random pattern. Sizes span three
/// orders of magnitude so the bound-crossing early exit fires often.
fn arb_trace() -> impl Strategy<Value = VideoTrace> {
    (arb_pattern(), 1usize..150)
        .prop_flat_map(|(pattern, len)| {
            (
                Just(pattern),
                proptest::collection::vec(1_000u64..1_000_000, len),
            )
        })
        .prop_map(|(pattern, sizes)| {
            VideoTrace::new("prop", pattern, Resolution::VGA, 30.0, sizes).expect("positive sizes")
        })
}

/// Strategy: feasible parameters with `H` well past one block so the
/// kernels run multi-block (`H = 8..40`), plus sub-block tails.
fn arb_params() -> impl Strategy<Value = SmootherParams> {
    (1usize..=5, 1usize..=40, 0.0f64..0.4).prop_map(|(k, h, extra_slack)| {
        let d = (k as f64 + 1.0) * TAU + extra_slack;
        SmootherParams::new(d, k, h, TAU).expect("feasible by construction")
    })
}

/// The schedule as raw bytes: every `f64` as its IEEE bit pattern, so
/// `-0.0 != +0.0` and comparisons are exact. The loop's exit state (the
/// h = 0 bounds and the lookahead used) is not in the record; the
/// smoother's `exit_state_matches_reference_at_every_dispatch_level`
/// unit test pins it per kernel.
fn schedule_bits(result: &SmoothingResult) -> Vec<(usize, u64, u64, u64)> {
    result
        .schedule
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
}

/// Restores auto-detection even if a test panics mid-override.
struct LevelGuard;
impl Drop for LevelGuard {
    fn drop(&mut self) {
        reset_active_level();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Forcing each available dispatch level on the same trace and
    /// parameters produces byte-identical schedules, for both
    /// estimators and both rate selections.
    #[test]
    fn all_dispatch_paths_produce_identical_schedules(
        trace in arb_trace(),
        params in arb_params(),
    ) {
        let _lock = LEVEL_LOCK.lock().unwrap();
        let _restore = LevelGuard;
        for selection in [RateSelection::Basic, RateSelection::MovingAverage] {
            let mut want_pat = None;
            let mut want_typed = None;
            for level in available_levels() {
                prop_assert!(set_active_level(level), "level {level:?} refused");
                let pat = schedule_bits(&smooth_with(
                    &trace, params, &PatternEstimator::default(), selection,
                ));
                let typed = schedule_bits(&smooth_with(
                    &trace, params, &TypeDefaultEstimator::default(), selection,
                ));
                match &want_pat {
                    None => want_pat = Some(pat),
                    Some(w) => prop_assert_eq!(
                        w, &pat, "pattern estimator diverged at {:?}", level
                    ),
                }
                match &want_typed {
                    None => want_typed = Some(typed),
                    Some(w) => prop_assert_eq!(
                        w, &typed, "type-default estimator diverged at {:?}", level
                    ),
                }
            }
        }
    }

    /// Kernel-level pinning on raw windows: every level returns the same
    /// `(h, crossed, exit-state)` bits for the same window, in both
    /// prefix-sum modes and across start-up transients (`time` large
    /// enough that denominators start nonpositive, exercising the
    /// branchless +∞ select and the crossing locator).
    #[test]
    fn kernels_agree_on_raw_windows(
        sizes in proptest::collection::vec(0u64..2_000_000, 8..64),
        i in 0usize..400,
        k in 0usize..4,
        d_centi in 1u32..60,
        time_centi in 0u32..2_000,
    ) {
        let _lock = LEVEL_LOCK.lock().unwrap();
        let sizes: Vec<f64> = sizes.into_iter().map(|s| s as f64).collect();
        let d_bound = d_centi as f64 * 0.01;
        let time = time_centi as f64 * 0.01;
        for exact in [false, true] {
            let mut want = None;
            for level in available_levels() {
                let mut lanes = BlockLanes::default();
                let got = bound_blocks8_at_level(
                    level, &sizes, i, k, TAU, d_bound, time, exact, &mut lanes,
                ).expect("available level");
                let key = (
                    got.0,
                    got.1,
                    got.2.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                );
                match &want {
                    None => want = Some(key),
                    Some(w) => prop_assert_eq!(
                        w, &key, "kernel {:?} diverged (exact={})", level, exact
                    ),
                }
            }
        }
    }

    /// `BlockLanes` reuse across calls cannot leak state: running an
    /// arbitrary dirtying window first (crossing blocks included — they
    /// write every lane array) must leave a second call's result
    /// byte-identical to one made with a fresh buffer.
    #[test]
    fn lanes_reuse_across_pictures_cannot_leak(
        dirty_sizes in proptest::collection::vec(0u64..2_000_000, 8..64),
        probe_sizes in proptest::collection::vec(0u64..2_000_000, 8..64),
        dirty_time_centi in 0u32..2_000,
        i in 0usize..400,
        k in 0usize..4,
        exact in prop_oneof![Just(false), Just(true)],
    ) {
        let _lock = LEVEL_LOCK.lock().unwrap();
        let dirty: Vec<f64> = dirty_sizes.into_iter().map(|s| s as f64).collect();
        let probe: Vec<f64> = probe_sizes.into_iter().map(|s| s as f64).collect();
        for level in available_levels() {
            let mut reused = BlockLanes::default();
            // Dirty the buffer with an unrelated window (a large `time`
            // biases toward nonpositive denominators and crossings).
            let _ = bound_blocks8_at_level(
                level, &dirty, 0, 1, TAU, 0.05,
                dirty_time_centi as f64 * 0.01, !exact, &mut reused,
            );
            let with_reused = bound_blocks8_at_level(
                level, &probe, i, k, TAU, 0.2, 0.1, exact, &mut reused,
            ).expect("available level");
            let mut fresh = BlockLanes::default();
            let with_fresh = bound_blocks8_at_level(
                level, &probe, i, k, TAU, 0.2, 0.1, exact, &mut fresh,
            ).expect("available level");
            prop_assert_eq!(with_reused.0, with_fresh.0, "h diverged at {:?}", level);
            prop_assert_eq!(with_reused.1, with_fresh.1, "crossed diverged at {:?}", level);
            let reused_bits: Vec<u64> = with_reused.2.iter().map(|v| v.to_bits()).collect();
            let fresh_bits: Vec<u64> = with_fresh.2.iter().map(|v| v.to_bits()).collect();
            prop_assert_eq!(reused_bits, fresh_bits, "exit state diverged at {:?}", level);
        }
    }
}

/// On x86-64 the ladder must contain the explicit SSE2 kernel (it is
/// baseline), and forcing a level the CPU lacks must be refused.
#[test]
fn dispatch_ladder_is_sane() {
    let _lock = LEVEL_LOCK.lock().unwrap();
    let _restore = LevelGuard;
    let levels = available_levels();
    assert_eq!(levels[0], SimdLevel::Scalar);
    #[cfg(target_arch = "x86_64")]
    assert!(levels.contains(&SimdLevel::Sse2));
    for level in [SimdLevel::Scalar, SimdLevel::Sse2, SimdLevel::Avx2] {
        assert_eq!(set_active_level(level), levels.contains(&level));
    }
}
