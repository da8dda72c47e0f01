//! Properties of the live (unknown-length) streaming path.
//!
//! Two claims the module docs of `online.rs` make but PR 3 never pinned:
//!
//! 1. **Tail-only divergence.** A live session that learns the length
//!    only at `finish` matches the offline schedule everywhere except
//!    possibly the final `H − 1` pictures: decision `i` consults the
//!    lookahead `[i, i + H)`, so every `i ≤ n − H` sees pictures only —
//!    no end-of-stream estimates — and the divergent suffix has at most
//!    `H − 1` entries.
//! 2. **Theorem 1 on the tail.** Whatever the tail does, the delay bound
//!    and continuous service hold for the whole live schedule — Theorem 1
//!    needs exact sizes only for `S_i` itself, never for the lookahead.
//!
//! Plus the PR 5 memory contract: a live session prunes its decided
//! prefix (`SizeEstimator::history_window`), stays bit-identical to the
//! full-history naive reference, and retains O(H + N + K + D/τ) sizes no
//! matter how long it runs.

use proptest::prelude::*;
use smooth_core::reference::{smooth_live_reference, ReferencePatternEstimator};
use smooth_core::{
    check_theorem1, prunable_prefix, smooth, LiveCursor, OnlineSmoother, RateSelection,
    SmootherParams, SmoothingResult,
};
use smooth_mpeg::{GopPattern, Resolution};
use smooth_trace::VideoTrace;

const TAU: f64 = 1.0 / 30.0;

fn arb_pattern() -> impl Strategy<Value = GopPattern> {
    prop_oneof![
        Just((3usize, 9usize)),
        Just((2, 6)),
        Just((3, 12)),
        Just((1, 5)),
        Just((1, 1)),
        Just((2, 2)),
    ]
    .prop_map(|(m, n)| GopPattern::new(m, n).expect("regular pattern"))
}

fn arb_trace(max_len: usize) -> impl Strategy<Value = VideoTrace> {
    (arb_pattern(), 1usize..max_len)
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

fn arb_params() -> impl Strategy<Value = SmootherParams> {
    (1usize..=5, 1usize..=40, 0.0f64..0.4).prop_map(|(k, h, extra_slack)| {
        let d = (k as f64 + 1.0) * TAU + extra_slack;
        SmootherParams::new(d, k, h, TAU).expect("feasible by construction")
    })
}

/// Streams the trace through a live smoother (length unknown until
/// `finish`), returning the schedule and the peak retained-history size.
fn run_live(trace: &VideoTrace, params: SmootherParams) -> (SmoothingResult, usize) {
    let mut online = OnlineSmoother::new(params, trace.pattern);
    let mut schedule = Vec::with_capacity(trace.len());
    let mut max_retained = 0;
    for &s in &trace.sizes {
        schedule.extend(online.push(s));
        max_retained = max_retained.max(online.retained());
    }
    schedule.extend(online.finish());
    (SmoothingResult { params, schedule }, max_retained)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    /// Live vs offline: bit-identical on every picture except possibly
    /// the final `H − 1`.
    #[test]
    fn live_diverges_only_in_final_h_minus_1(
        trace in arb_trace(150),
        params in arb_params(),
    ) {
        let offline = smooth(&trace, params);
        let (live, _) = run_live(&trace, params);
        let n = trace.len();
        prop_assert_eq!(live.schedule.len(), n);
        let stable = n.saturating_sub(params.h.saturating_sub(1));
        for i in 0..stable {
            prop_assert_eq!(
                &live.schedule[i],
                &offline.schedule[i],
                "divergence at {} of {} (H = {})",
                i, n, params.h
            );
        }
    }

    /// Theorem 1 (delay bound, continuous service, rate-change cadence)
    /// holds for the live schedule, tail included.
    #[test]
    fn live_tail_satisfies_theorem1(
        trace in arb_trace(150),
        params in arb_params(),
    ) {
        let (live, _) = run_live(&trace, params);
        let report = check_theorem1(&live, &trace.sizes);
        prop_assert!(report.holds(), "{:?}", report);
    }

    /// History compaction is invisible: the pruning live smoother equals
    /// the full-history naive reference bit for bit, on traces long
    /// enough to force many prune steps, while the retained slice stays
    /// bounded by the live-session constant (Theorem 1 bounds the
    /// undecided backlog by max(⌈D/τ⌉, K); add the estimator window 2N,
    /// the lookahead reach H, and pattern-alignment slop).
    #[test]
    fn compaction_is_bit_identical_and_bounded(
        trace in arb_trace(600),
        params in arb_params(),
    ) {
        let (live, max_retained) = run_live(&trace, params);
        let walk = ReferencePatternEstimator::default();
        let reference = smooth_live_reference(&trace, params, &walk, RateSelection::Basic);
        prop_assert_eq!(live.schedule, reference.schedule);

        // Undecided backlog ≤ ⌈D/τ⌉ + K (Theorem 1); the prune cut lags
        // the decided front by another backlog + 2N (estimator window)
        // + N (alignment); lazy compaction doubles the whole thing.
        let n = trace.pattern.n();
        let backlog = (params.delay_bound / params.tau).ceil() as usize + params.k;
        let bound = 4 * backlog + 8 * n + 32;
        prop_assert!(
            max_retained <= bound,
            "retained {} exceeds bound {}", max_retained, bound
        );
    }

    /// `prunable_prefix` never cuts into state a future decision reads:
    /// pattern-aligned, at most `decided`, and leaves the declared
    /// estimator window intact below the watermark.
    #[test]
    fn prunable_prefix_is_safe(
        decided in 0usize..100_000,
        lead in 0usize..64,
        n in 1usize..16,
        w in 0usize..64,
    ) {
        let cursor = LiveCursor {
            decided,
            depart: 0.0,
            prev_rate: None,
            watermark: decided + lead,
        };
        let cut = prunable_prefix(&cursor, Some(w), n);
        prop_assert_eq!(cut % n, 0);
        prop_assert!(cut <= cursor.decided);
        prop_assert!(cut + w <= cursor.watermark.max(w));
        prop_assert_eq!(prunable_prefix(&cursor, None, n), 0);
    }
}

/// The satellite regression: ~100k pushes through a live session keep
/// both the retained length and the buffer's allocated capacity at a
/// small constant — and the schedule still equals the full-history
/// reference bit for bit.
#[test]
fn hundred_thousand_pushes_bounded_memory() {
    let pattern = GopPattern::new(3, 9).unwrap();
    let params = SmootherParams::at_30fps(0.2, 1, 9).unwrap();
    let total = 100_000usize;
    // Deterministic LCG sizes so the reference run sees the same stream.
    let mut state = 0x9e3779b97f4a7c15u64;
    let sizes: Vec<u64> = (0..total)
        .map(|i| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let jitter = state >> 52;
            match pattern.type_at(i) {
                smooth_mpeg::PictureType::I => 180_000 + jitter,
                smooth_mpeg::PictureType::P => 80_000 + jitter / 2,
                smooth_mpeg::PictureType::B => 16_000 + jitter / 8,
            }
        })
        .collect();

    let mut online = OnlineSmoother::new(params, pattern);
    let mut schedule = Vec::with_capacity(total);
    let mut max_retained = 0;
    let mut max_capacity = 0;
    for &s in &sizes {
        schedule.extend(online.push(s));
        max_retained = max_retained.max(online.retained());
        max_capacity = max_capacity.max(online.retained_capacity());
    }
    schedule.extend(online.finish());
    assert_eq!(schedule.len(), total);
    assert_eq!(online.pictures_pushed(), total);

    // O(H + N + K + D/τ), emphatically not O(total).
    assert!(max_retained < 128, "retained grew to {max_retained}");
    assert!(max_capacity < 256, "capacity grew to {max_capacity}");

    // Same bits as the smoother that kept all 100k sizes.
    let trace = VideoTrace::new("mem", pattern, Resolution::VGA, 30.0, sizes).unwrap();
    let walk = ReferencePatternEstimator::default();
    let reference = smooth_live_reference(&trace, params, &walk, RateSelection::Basic);
    assert_eq!(schedule, reference.schedule);

    let live = SmoothingResult { params, schedule };
    let report = check_theorem1(&live, &trace.sizes);
    assert!(report.holds(), "{report:?}");
}
