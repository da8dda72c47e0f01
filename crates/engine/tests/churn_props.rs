//! The dynamic engine's load-bearing equalities, pinned property-style:
//!
//! 1. **Wheel vs. scan.** Replaying a churn trace through the
//!    timing-wheel [`DynamicEngine`] yields the same per-session
//!    digests, fleet digest, and decision count as the frozen
//!    brute-force scan-all reference ([`smooth_engine::scanref`]) —
//!    the wheel, the compact store, and slot recycling are invisible.
//! 2. **Determinism.** The digests are invariant under thread count and
//!    shard size, and under mid-run snapshot/restore migration,
//!    rebalancing, and checkpoint/recovery.
//! 3. **Slot recycling.** Interleaved add/remove/re-add over the shards
//!    leaves every *surviving* session with exactly the digest a fresh
//!    engine fed only the survivors' traces produces — a recycled slot
//!    carries nothing over from its previous occupant.

use proptest::prelude::*;
use smooth_core::SmootherParams;
use smooth_engine::{
    churn_trace, mux_digest, scanref::run_scan, ChurnEvent, ChurnSpec, ChurnTrace, DynamicClass,
    DynamicEngine, LiveMux, MuxConfig, SessionClass, SyntheticFleet, MUX_INGEST_SPAN_TICKS,
    TICKS_PER_SEC,
};
use smooth_mpeg::GopPattern;

const TAU: f64 = 1.0 / 30.0;

fn arb_pattern() -> impl Strategy<Value = GopPattern> {
    prop_oneof![Just((3usize, 9usize)), Just((2, 6)), Just((1, 5))]
        .prop_map(|(m, n)| GopPattern::new(m, n).expect("regular pattern"))
}

/// A dynamic class: smoother parameters plus a small period in ticks.
fn arb_dynamic_class() -> impl Strategy<Value = DynamicClass> {
    (
        arb_pattern(),
        1usize..=3,
        1usize..=12,
        0.0f64..0.2,
        1u64..=7,
    )
        .prop_map(|(pattern, k, h, extra_slack, period_ticks)| {
            let d = (k as f64 + 1.0) * TAU + extra_slack;
            let params = SmootherParams::new(d, k, h, TAU).expect("feasible by construction");
            DynamicClass {
                class: SessionClass::new(params, pattern),
                period_ticks,
            }
        })
}

/// A churn scenario: 1–3 classes with weights, a small initial fleet,
/// and a hot churn rate so joins *and* leaves actually happen inside
/// the horizon.
#[derive(Debug, Clone)]
struct Scenario {
    classes: Vec<DynamicClass>,
    trace: ChurnTrace,
    seed: u64,
}

/// Scenarios over `horizon` ticks: 1–3 weighted classes, `initial`
/// sessions ramped in over the first `ticks_per_sec` ticks, then churn
/// at `churn_ppm_per_sec` of the initial fleet.
fn scenario(
    initial: std::ops::RangeInclusive<usize>,
    horizon: std::ops::Range<u64>,
    ticks_per_sec: u64,
    churn_ppm_per_sec: u64,
) -> impl Strategy<Value = Scenario> {
    (
        proptest::collection::vec((arb_dynamic_class(), 1u32..=3), 1..=3),
        initial,
        horizon,
        any::<u64>(),
    )
        .prop_map(move |(weighted, initial, horizon, seed)| {
            let (classes, weights): (Vec<_>, Vec<_>) = weighted.into_iter().unzip();
            let spec = ChurnSpec {
                seed,
                initial,
                weights,
                periods: classes.iter().map(|c| c.period_ticks).collect(),
                ticks_per_sec,
                horizon,
                churn_ppm_per_sec,
            };
            Scenario {
                trace: churn_trace(&spec),
                classes,
                seed,
            }
        })
}

/// Short horizons (20–200 ticks, inside one ingest span) with very hot
/// churn (500 %/s of the initial fleet) so they still exercise leave +
/// recycle + re-add.
fn arb_scenario() -> impl Strategy<Value = Scenario> {
    scenario(1..=12, 20..200, 10, 5_000_000)
}

/// Horizons of 2–5 [`MUX_INGEST_SPAN_TICKS`] spans, so trace replays
/// drain mid-trace, with a small fleet and hot churn (200 %/s): every
/// span sees joins, leaves and slot reuse that no drain separates.
fn arb_span_scenario() -> impl Strategy<Value = Scenario> {
    scenario(
        1..=4,
        2 * MUX_INGEST_SPAN_TICKS..5 * MUX_INGEST_SPAN_TICKS + 1,
        100,
        2_000_000,
    )
}

fn source(s: &Scenario) -> SyntheticFleet {
    SyntheticFleet {
        seed: s.seed,
        pattern: s.classes[0].class.pattern,
    }
}

fn capacity(s: &Scenario) -> usize {
    s.trace.peak_live.max(1)
}

fn check_wheel_matches_scan(s: &Scenario) -> Result<(), TestCaseError> {
    let src = source(s);
    for finish in [false, true] {
        let want = run_scan(&s.classes, &s.trace, &src, finish);
        let mut engine =
            DynamicEngine::new(s.classes.clone(), capacity(s), 4).expect("valid config");
        engine
            .run_trace(&src, &s.trace, 1)
            .expect("trace fits capacity");
        if finish {
            engine.finish(&src, 1);
        }
        prop_assert_eq!(
            engine.session_digests(),
            want.session_digests,
            "finish={} seed={}",
            finish,
            s.seed
        );
        prop_assert_eq!(engine.digest(), want.digest);
        prop_assert_eq!(engine.decisions(), want.decisions);
    }
    Ok(())
}

fn check_thread_and_shard_invariance(s: &Scenario, threads: &[usize]) -> Result<(), TestCaseError> {
    let src = source(s);
    let cap = capacity(s);
    let mut baseline = DynamicEngine::new(s.classes.clone(), cap, 64).expect("valid");
    baseline.run_trace(&src, &s.trace, 1).expect("fits");
    baseline.finish(&src, 1);
    let want_digest = baseline.digest();
    let want_sessions = baseline.session_digests();

    for shard_size in [1usize, 3, 7] {
        for &threads in threads {
            let mut engine = DynamicEngine::new(s.classes.clone(), cap, shard_size).expect("valid");
            engine.run_trace(&src, &s.trace, threads).expect("fits");
            engine.finish(&src, threads);
            prop_assert_eq!(
                engine.digest(),
                want_digest,
                "digest diverged at shard_size={} threads={}",
                shard_size,
                threads
            );
            prop_assert_eq!(&engine.session_digests(), &want_sessions);
            prop_assert_eq!(engine.decisions(), baseline.decisions());
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Wheel vs. frozen scan-all reference, with and without the final
    /// end-of-run drain.
    #[test]
    fn wheel_matches_scan_reference(s in arb_scenario()) {
        check_wheel_matches_scan(&s)?;
    }

    /// Thread count and shard size never change a bit.
    #[test]
    fn churn_digests_invariant_across_threads_and_shards(s in arb_scenario()) {
        check_thread_and_shard_invariance(&s, &[1, 2, 4])?;
    }

    /// The arrival-batch quantum is a pure throughput knob: replays at
    /// B ∈ {1, 2, 7, 16} all match the frozen scan-all reference bit
    /// for bit. B=1 is the unbatched wheel (one arrival per visit), so
    /// this pins batching itself, not just batch-vs-batch agreement.
    #[test]
    fn churn_digests_invariant_in_arrival_batch(s in arb_scenario()) {
        let src = source(&s);
        let cap = capacity(&s);
        let want = run_scan(&s.classes, &s.trace, &src, true);
        for batch in [1u64, 2, 7, 16] {
            let mut engine =
                DynamicEngine::new(s.classes.clone(), cap, 4).expect("valid");
            engine.set_arrival_batch(batch);
            engine.run_trace(&src, &s.trace, 1).expect("fits");
            engine.finish(&src, 1);
            prop_assert_eq!(
                engine.digest(),
                want.digest,
                "digest diverged at batch={} seed={}",
                batch,
                s.seed
            );
            prop_assert_eq!(&engine.session_digests(), &want.session_digests);
            prop_assert_eq!(engine.decisions(), want.decisions);
        }
    }

    /// Mid-trace rebalancing and checkpoint/recovery continue
    /// bit-identically: split the trace at a cut tick, disturb the
    /// engine there, replay the remainder.
    #[test]
    fn migration_and_recovery_preserve_digests(s in arb_scenario(), cut_frac in 0.1f64..0.9) {
        let src = source(&s);
        let cap = capacity(&s);
        let cut = ((s.trace.horizon as f64 * cut_frac) as u64).max(1);
        let head = ChurnTrace {
            events: s.trace.events.iter().filter(|(t, _)| *t < cut).cloned().collect(),
            horizon: cut - 1,
            peak_live: s.trace.peak_live,
        };
        let tail = ChurnTrace {
            events: s.trace.events.iter().filter(|(t, _)| *t >= cut).cloned().collect(),
            horizon: s.trace.horizon,
            peak_live: s.trace.peak_live,
        };

        let mut plain = DynamicEngine::new(s.classes.clone(), cap, 4).expect("valid");
        plain.run_trace(&src, &s.trace, 1).expect("fits");
        plain.finish(&src, 1);

        let mut disturbed = DynamicEngine::new(s.classes.clone(), cap, 4).expect("valid");
        disturbed.run_trace(&src, &head, 1).expect("fits");
        disturbed.rebalance();
        let cp = disturbed.checkpoint();
        let mut recovered =
            DynamicEngine::restore_checkpoint(s.classes.clone(), cap, 4, &cp).expect("valid");
        recovered.run_trace(&src, &tail, 1).expect("fits");
        recovered.finish(&src, 1);

        prop_assert_eq!(plain.digest(), recovered.digest());
        prop_assert_eq!(plain.session_digests(), recovered.session_digests());
        prop_assert_eq!(plain.decisions(), recovered.decisions());
    }

    /// Slot recycling: after interleaved add/remove/re-add, every
    /// surviving session's digest equals what a fresh engine fed *only
    /// the survivors' traces* (same streams, same join ticks and phases,
    /// no churn) produces — recycled slots carry nothing over.
    #[test]
    fn recycled_slots_match_fresh_engine_of_survivors(s in arb_scenario()) {
        let src = source(&s);
        let mut engine =
            DynamicEngine::new(s.classes.clone(), capacity(&s), 3).expect("valid");
        engine.run_trace(&src, &s.trace, 1).expect("fits");
        engine.finish(&src, 1);
        let churned = engine.session_digests();

        // Survivors: joins whose sid never appears in a Leave.
        let departed: std::collections::HashSet<u64> = s
            .trace
            .events
            .iter()
            .filter_map(|(_, e)| match e {
                ChurnEvent::Leave { sid } => Some(*sid),
                _ => None,
            })
            .collect();
        let mut surviving_joins = Vec::new();
        let mut sid = 0u64;
        for (t, e) in &s.trace.events {
            if let ChurnEvent::Join { .. } = e {
                if !departed.contains(&sid) {
                    surviving_joins.push((*t, *e));
                }
                sid += 1;
            }
        }
        prop_assume!(!surviving_joins.is_empty());
        let survivors_trace = ChurnTrace {
            events: surviving_joins.clone(),
            horizon: s.trace.horizon,
            peak_live: surviving_joins.len(),
        };
        let mut fresh =
            DynamicEngine::new(s.classes.clone(), surviving_joins.len(), 3).expect("valid");
        fresh.run_trace(&src, &survivors_trace, 1).expect("fits");
        fresh.finish(&src, 1);
        let fresh_digests = fresh.session_digests();

        // Fresh sid i is the i-th surviving join; map back to the
        // churned engine's sid via the stream id (streams are unique).
        let mut fresh_i = 0usize;
        let mut churned_sid = 0u64;
        let mut checked = 0usize;
        for (_, e) in &s.trace.events {
            if let ChurnEvent::Join { stream, .. } = e {
                if !departed.contains(&churned_sid) {
                    let fe = &survivors_trace.events[fresh_i].1;
                    if let ChurnEvent::Join { stream: fs, .. } = fe {
                        prop_assert_eq!(*fs, *stream, "survivor order preserved");
                    }
                    prop_assert_eq!(
                        churned[churned_sid as usize],
                        fresh_digests[fresh_i],
                        "survivor stream {} diverged after slot recycling",
                        stream
                    );
                    fresh_i += 1;
                    checked += 1;
                }
                churned_sid += 1;
            }
        }
        prop_assert!(checked > 0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Wheel vs. scan over several ingest spans: the replay drains once
    /// per span, so joins, leaves and recycled slots between drains
    /// must still land on the tick-by-tick reference's bits.
    #[test]
    fn wheel_matches_scan_reference_across_spans(s in arb_span_scenario()) {
        check_wheel_matches_scan(&s)?;
    }

    /// Thread and shard invariance over several ingest spans.
    #[test]
    fn churn_digests_invariant_across_threads_and_shards_across_spans(
        s in arb_span_scenario()
    ) {
        check_thread_and_shard_invariance(&s, &[1, 2, 3])?;
    }
}

/// Bounded memory under heavy churn: 100k+ churn events recycle slots
/// instead of growing the shards — resident slots never exceed the
/// engine capacity (peak concurrency), no matter how many sessions pass
/// through.
#[test]
fn hundred_k_churn_events_keep_memory_bounded() {
    let pattern = GopPattern::new(3, 9).unwrap();
    let class = DynamicClass {
        class: SessionClass::new(SmootherParams::new(0.1, 1, 4, TAU).unwrap(), pattern),
        period_ticks: 3,
    };
    let spec = ChurnSpec {
        seed: 0xC0FFEE,
        initial: 500,
        weights: vec![1],
        periods: vec![3],
        ticks_per_sec: 20,
        horizon: 2_100,
        // 100 %/s of the initial fleet: 25 joins + 25 leaves per tick-
        // second — over the 105 simulated seconds, 100k+ events.
        churn_ppm_per_sec: 1_000_000,
    };
    let trace = churn_trace(&spec);
    assert!(
        trace.events.len() >= 100_000,
        "trace has only {} events",
        trace.events.len()
    );
    let shard_size = 64usize;
    let cap = trace.peak_live;
    let mut engine = DynamicEngine::new(vec![class], cap, shard_size).unwrap();
    let src = SyntheticFleet {
        seed: 0xC0FFEE,
        pattern,
    };
    engine.run_trace(&src, &trace, 1).unwrap();
    // Far more sessions passed through than are ever resident…
    assert!(engine.joined() as usize > 50 * cap);
    // …yet resident slots are bounded by the peak-concurrency capacity
    // (rounded up to whole shards), not by the 50k+ sessions that ever
    // lived: churn recycles slots instead of growing the arrays.
    let slot_budget = cap.div_ceil(shard_size) * shard_size;
    assert!(
        engine.allocated_slots() <= slot_budget,
        "{} slots resident for peak {} live",
        engine.allocated_slots(),
        cap
    );
    let slot_bytes = engine.state_bytes_per_slot();
    assert!(
        slot_bytes < 1024,
        "slot bytes {slot_bytes} not a small constant"
    );
}

/// A 30 fps class on the 600 tick/s clock.
fn class_30fps() -> DynamicClass {
    DynamicClass {
        class: SessionClass::new(
            SmootherParams::new(0.2, 1, 9, TAU).unwrap(),
            GopPattern::new(3, 9).unwrap(),
        ),
        period_ticks: TICKS_PER_SEC / 30,
    }
}

/// Fused replay of `trace` on `threads` workers, optionally cut at tick
/// `cut` by an engine + mux checkpoint → restore: (fleet digest, mux
/// digest, engine fan-out passes of the replay).
fn fused_replay(
    classes: &[DynamicClass],
    trace: &ChurnTrace,
    batch: u64,
    threads: usize,
    cut: Option<u64>,
) -> (u64, u64, u64) {
    let src = SyntheticFleet {
        seed: 0x5107,
        pattern: classes[0].class.pattern,
    };
    let cfg = MuxConfig {
        capacity_bps: 3.0e6,
        buffer_bits: 1.0e5,
        t_start: 0.0,
        t_end: trace.horizon as f64 / TICKS_PER_SEC as f64,
        descriptor_rho_bps: 1.5e6,
    };
    let cap = trace.peak_live;
    let shard_size = 1;
    let mut engine = DynamicEngine::new(classes.to_vec(), cap, shard_size).unwrap();
    engine.set_arrival_batch(batch);
    let mut mux = LiveMux::with_joins(trace.total_joins(), shard_size, cfg);
    let mut fan_outs = 0;
    let rest = match cut {
        None => trace.clone(),
        Some(cut) => {
            let part = |keep: &dyn Fn(u64) -> bool, horizon| ChurnTrace {
                events: trace
                    .events
                    .iter()
                    .copied()
                    .filter(|&(t, _)| keep(t))
                    .collect(),
                horizon,
                peak_live: trace.peak_live,
            };
            engine
                .run_trace_fused(&src, &part(&|t| t <= cut, cut), threads, &mut mux)
                .unwrap();
            fan_outs += engine.fan_outs();
            let ecp = engine.checkpoint();
            let mcp = mux.checkpoint();
            engine =
                DynamicEngine::restore_checkpoint(classes.to_vec(), cap, shard_size, &ecp).unwrap();
            engine.set_arrival_batch(batch);
            mux = LiveMux::restore(&mcp);
            part(&|t| t > cut, trace.horizon)
        }
    };
    engine
        .run_trace_fused(&src, &rest, threads, &mut mux)
        .unwrap();
    fan_outs += engine.fan_outs();
    let stats = engine.finish_fused(&src, threads, &mut mux);
    (
        engine.digest(),
        mux_digest(&stats, &mux.descriptors()),
        fan_outs,
    )
}

/// Slot reuse inside one ingest span: session 0 joins, comes due on the
/// wheel, and leaves, and session 2 joins into its recycled slot — all
/// before the first drain. No drain ever touches session 0: its leave
/// catches it up, and its armed wheel item (due at tick 61) is stale by
/// generation when the next drain pops it.
#[test]
fn slot_reuse_inside_one_span_matches_references() {
    let join = |stream| ChurnEvent::Join {
        class: 0,
        stream,
        phase: 0,
    };
    let trace = ChurnTrace {
        events: vec![
            (0, join(10)),
            (0, join(11)),
            (200, ChurnEvent::Leave { sid: 0 }),
            (250, join(12)),
            (500, ChurnEvent::Leave { sid: 1 }),
            (700, join(13)),
        ],
        horizon: 1000,
        peak_live: 2,
    };
    // Batch 4 arms session 0 at its 4th arrival, tick 1 + 3·20 = 61.
    let batch = 4;
    let classes = vec![class_30fps()];
    let src = SyntheticFleet {
        seed: 0x5107,
        pattern: classes[0].class.pattern,
    };
    for finish in [false, true] {
        let want = run_scan(&classes, &trace, &src, finish);
        let mut engine = DynamicEngine::new(classes.clone(), 2, 1).unwrap();
        engine.set_arrival_batch(batch);
        engine.run_trace(&src, &trace, 1).unwrap();
        // One span drain (to tick 499, before the leave at 500) and the
        // closing advance: nothing drained the fleet before tick 250.
        assert_eq!(engine.fan_outs(), 2);
        assert_eq!(engine.allocated_slots(), 2, "session 2 reused a slot");
        if finish {
            engine.finish(&src, 1);
        }
        assert_eq!(engine.session_digests(), want.session_digests);
        assert_eq!(engine.decisions(), want.decisions);
    }

    let (want_fleet, want_mux, _) = fused_replay(&classes, &trace, batch, 1, None);
    let bare = {
        let mut engine = DynamicEngine::new(classes.clone(), 2, 1).unwrap();
        engine.run_trace(&src, &trace, 1).unwrap();
        engine.finish(&src, 1);
        engine.digest()
    };
    assert_eq!(want_fleet, bare);
    for threads in [1, 2] {
        // Cut inside the span, right after the slot was reused.
        for cut in [None, Some(260)] {
            let (fleet, mux, _) = fused_replay(&classes, &trace, batch, threads, cut);
            assert_eq!(fleet, want_fleet, "threads={threads} cut={cut:?}");
            assert_eq!(mux, want_mux, "threads={threads} cut={cut:?}");
        }
    }
}

/// A replay of `H` ticks fans out over the shards at most
/// ⌈H / MUX_INGEST_SPAN_TICKS⌉ + 1 times — once per span and once to
/// settle at the horizon — however many distinct ticks carry events,
/// and the count does not depend on the thread count.
#[test]
fn replay_fans_out_once_per_span() {
    let classes: Vec<_> = [24u64, 25, 30, 60]
        .iter()
        .map(|&fps| smooth_engine::fps_class(fps))
        .collect();
    let trace = churn_trace(&ChurnSpec {
        seed: 0xFA9,
        initial: 300,
        weights: vec![1; 4],
        periods: classes.iter().map(|c| c.period_ticks).collect(),
        ticks_per_sec: TICKS_PER_SEC,
        horizon: 4 * TICKS_PER_SEC,
        churn_ppm_per_sec: 200_000,
    });
    let mut ticks: Vec<u64> = trace.events.iter().map(|&(t, _)| t).collect();
    ticks.dedup();
    let h = trace.horizon;
    let bound = h.div_ceil(MUX_INGEST_SPAN_TICKS) + 1;
    assert!(
        ticks.len() as u64 > 10 * bound,
        "only {} event ticks",
        ticks.len()
    );
    let src = SyntheticFleet {
        seed: 0xFA9,
        pattern: classes[0].class.pattern,
    };
    let mut counts = Vec::new();
    for threads in [1, 2] {
        let mut engine = DynamicEngine::new(classes.clone(), trace.peak_live, 64).unwrap();
        engine.run_trace(&src, &trace, threads).unwrap();
        assert!(
            engine.fan_outs() <= bound,
            "{} fan-outs over {h} ticks ({} event ticks), bound {bound}",
            engine.fan_outs(),
            ticks.len()
        );
        counts.push(engine.fan_outs());
    }
    assert_eq!(counts[0], counts[1], "fan-outs depend on threads");
    // The fused replay drains on the same cadence.
    let (_, _, fused) = fused_replay(&classes, &trace, smooth_engine::ARRIVAL_BATCH, 2, None);
    assert_eq!(fused, counts[0]);
}
