//! `lockstep_link`: a million sessions of one 30 fps class, all joining
//! at t = 0 and none leaving, run fused into `LiveMux` at about 0.9
//! nominal load — the densest decision path.

use smooth_core::{PictureSchedule, SmootherParams};
use smooth_engine::mux::mux_sessions;
use smooth_engine::{
    mux_digest, LiveMux, LiveMuxStats, MuxConfig, SessionClass, SessionEngine, SyntheticFleet,
    FUSED_CHUNK,
};
use smooth_mpeg::GopPattern;
use smooth_netsim::RateSweep;

use crate::span::Recorder;
use crate::stats::median;
use crate::{mix, repeat, timed, Digests, Gate, Metrics, Opts};

/// Full-size fleet and run length.
const SESSIONS: usize = 1_000_000;
const TICKS: u64 = 16;
/// Fleet the `mux_sessions` oracle is compared on (its breakpoint heap
/// is serial and allocation-heavy, so it runs reduced).
const ORACLE_SESSIONS: usize = 20_000;
/// Offered load over link capacity.
const LOAD: f64 = 0.9;
/// Link buffer per session, bits.
const BUFFER_PER_SESSION: f64 = 2.0e3;

struct Size {
    sessions: usize,
    ticks: u64,
    oracle_sessions: usize,
}

fn size(opts: &Opts) -> Size {
    if opts.tiny {
        Size {
            sessions: 3_000,
            ticks: 12,
            oracle_sessions: 500,
        }
    } else {
        Size {
            sessions: SESSIONS,
            ticks: TICKS,
            oracle_sessions: ORACLE_SESSIONS,
        }
    }
}

/// The paper-recommended class: D = 0.2 s, K = 1, H = N on (3, 9).
fn class() -> SessionClass {
    SessionClass::new(
        SmootherParams::at_30fps(0.2, 1, 9).expect("0.2 s is feasible at 30 fps"),
        GopPattern::new(3, 9).expect("(3, 9) is a valid pattern"),
    )
}

fn fleet(seed: u64) -> SyntheticFleet {
    SyntheticFleet {
        seed: mix(seed),
        pattern: class().pattern,
    }
}

/// Link sized for `LOAD` against the fleet's mean rate, with a window
/// past every departure.
fn mux_config(fleet: &SyntheticFleet, sessions: usize, ticks: u64) -> MuxConfig {
    let per_session = crate::mean_picture_bits(fleet) * 30.0 / LOAD;
    MuxConfig {
        capacity_bps: per_session * sessions as f64,
        buffer_bits: BUFFER_PER_SESSION * sessions as f64,
        t_start: 0.0,
        t_end: (ticks as f64 + 60.0) / 30.0,
        descriptor_rho_bps: per_session,
    }
}

fn new_engine(sessions: usize, threads: usize) -> SessionEngine {
    let mut engine = SessionEngine::new(vec![class()]);
    engine.add_sessions_placed(0, sessions, threads);
    engine
}

fn digests(engine: &SessionEngine, stats: &LiveMuxStats, mux: &LiveMux) -> Digests {
    Digests {
        fleet: engine.digest(),
        mux: mux_digest(stats, &mux.descriptors()),
        decisions: engine.decisions(),
    }
}

/// One set-up plus fused replay: `(setup_s, run_s, digests)`.
fn fused_once(
    sz: &Size,
    fleet: &SyntheticFleet,
    cfg: MuxConfig,
    threads: usize,
    gate: &mut Gate,
    rec: &mut Recorder,
) -> Option<(f64, f64, Digests)> {
    let (setup_s, (mut engine, mut mux)) = timed(|| {
        rec.span("engine.lockstep.setup", |_| {
            let engine = new_engine(sz.sessions, threads);
            let mux = LiveMux::new(sz.sessions, engine.shard_size(), cfg);
            (engine, mux)
        })
    });
    let (run_s, stats) = timed(|| {
        rec.span("bench.replay", |rec| {
            rec.span("engine.lockstep.fused", |_| {
                engine.run_fused(fleet, sz.ticks, threads, &mut mux)
            })
        })
    });
    let stats = gate.ok("run_fused", stats)?;
    Some((setup_s, run_s, digests(&engine, &stats, &mux)))
}

/// At reduced size, `LiveMux` stats must be bit-equal to the
/// `mux_sessions` / `RateSweep` oracle over the same fleet and window.
fn oracle_gate(sz: &Size, fleet: &SyntheticFleet, gate: &mut Gate) {
    let n = sz.oracle_sessions;
    let cfg = mux_config(fleet, n, sz.ticks);
    let mut engine = new_engine(n, 1);
    let mut mux = LiveMux::new(n, engine.shard_size(), cfg);
    let Some(fused) = gate.ok(
        "run_fused (oracle)",
        engine.run_fused(fleet, sz.ticks, 1, &mut mux),
    ) else {
        return;
    };
    let sweep = RateSweep {
        capacity_bps: cfg.capacity_bps,
        buffer_bits: cfg.buffer_bits,
    };
    let Some(want) = gate.ok(
        "mux_sessions",
        mux_sessions(
            new_engine(n, 1),
            *fleet,
            sz.ticks,
            &sweep,
            cfg.t_start,
            cfg.t_end,
        ),
    ) else {
        return;
    };
    let got = fused.mux;
    for (name, a, b) in [
        ("arrived_bits", want.arrived_bits, got.arrived_bits),
        ("lost_bits", want.lost_bits, got.lost_bits),
        ("served_bits", want.served_bits, got.served_bits),
        (
            "final_queue_bits",
            want.final_queue_bits,
            got.final_queue_bits,
        ),
        ("max_queue_bits", want.max_queue_bits, got.max_queue_bits),
        ("utilization", want.utilization, got.utilization),
    ] {
        gate.check(
            &format!("LiveMux {name} vs mux_sessions oracle: {a} != {b}"),
            a.to_bits() == b.to_bits(),
        );
    }
}

/// The untraced run: end-to-end metrics.
pub fn run(opts: &Opts, gate: &mut Gate) -> Metrics {
    let sz = size(opts);
    let fleet = fleet(opts.seed);
    let cfg = mux_config(&fleet, sz.sessions, sz.ticks);
    oracle_gate(&sz, &fleet, gate);

    let off = &mut Recorder::new(false);
    let (mut setups, mut runs) = (Vec::new(), Vec::new());
    let mut first: Option<Digests> = None;
    repeat(opts.seconds, 3, || {
        let Some((setup_s, run_s, d)) = fused_once(&sz, &fleet, cfg, opts.threads, gate, off)
        else {
            return;
        };
        setups.push(setup_s);
        runs.push(run_s);
        crate::log_repeat(runs.len(), setup_s, run_s);
        match first {
            None => first = Some(d),
            Some(want) => gate.same_digests("repeat", want, d),
        }
    });
    let peak_rss_mb = crate::peak_rss_mb();
    // The same fleet on the other thread count must land on the same bits.
    if let (Some(want), Some((_, _, d))) = (
        first,
        fused_once(&sz, &fleet, cfg, opts.other_threads(), gate, off),
    ) {
        gate.same_digests("threads", want, d);
    }
    let run_s = median(&runs);
    vec![
        ("setup_s", median(&setups)),
        ("run_s", run_s),
        (
            "decisions_per_s",
            first.map_or(0, |d| d.decisions) as f64 / run_s,
        ),
        ("peak_rss_mb", peak_rss_mb),
    ]
}

/// The traced run: per-layer decomposition.
pub fn traced(opts: &Opts, gate: &mut Gate, rec: &mut Recorder) -> Metrics {
    let sz = size(opts);
    let fleet = fleet(opts.seed);
    let cfg = mux_config(&fleet, sz.sessions, sz.ticks);
    let threads = opts.threads;

    // The bare engine, no aggregation: the decision floor. Its fleet
    // digest must match the fused run's.
    let bare =
        |name: &'static str, t: usize, want: Digests, gate: &mut Gate, rec: &mut Recorder| {
            rec.begin_run();
            let mut engine = rec.span("engine.lockstep.setup", |_| new_engine(sz.sessions, t));
            let made = rec.span(name, |_| engine.run(&fleet, sz.ticks, true, t));
            rec.count("engine.lockstep.decisions", made as f64);
            gate.same("bare fleet_digest", want.fleet, engine.digest());
        };
    // Each round: a fused replay untraced and one traced (the tracing
    // overhead), then the bare engine, so that fused - bare is taken
    // from neighbouring replays.
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut want: Option<Digests> = None;
    repeat(opts.seconds, 2, || {
        let off = &mut Recorder::new(false);
        if let Some((_, run_s, d)) = fused_once(&sz, &fleet, cfg, threads, gate, off) {
            plain.push(run_s);
            want.get_or_insert(d);
        }
        rec.begin_run();
        if let Some((_, run_s, d)) = fused_once(&sz, &fleet, cfg, threads, gate, rec) {
            traced.push(run_s);
            if let Some(w) = want {
                gate.same_digests("traced repeat", w, d);
            }
        }
        if let Some(w) = want {
            bare("engine.lockstep.decide", threads, w, gate, rec);
        }
    });
    let Some(want) = want else {
        return Vec::new();
    };
    for _ in 0..2 {
        bare(
            "engine.lockstep.decide_other",
            opts.other_threads(),
            want,
            gate,
            rec,
        );
    }

    let mux_split = livemux_split(&sz, &fleet, cfg, want, opts.nproc, gate, rec);

    let decide = rec.median_s("engine.lockstep.decide");
    let fused = rec.median_s("engine.lockstep.fused");
    let class_engine = SessionEngine::new(vec![class()]);
    let mut m = vec![
        (
            "engine.lockstep.setup_s",
            rec.median_s("engine.lockstep.setup"),
        ),
        ("engine.lockstep.decide_s", decide),
        ("engine.lockstep.fused_s", fused),
        (
            "engine.lockstep.decide_speedup_2t",
            opts.speedup_2t(decide, rec.median_s("engine.lockstep.decide_other")),
        ),
        (
            "engine.lockstep.bytes_per_session",
            (class_engine.state_bytes_per_session(0) + class_engine.window_bytes_per_session(0))
                as f64,
        ),
        ("engine.lockstep.decisions", want.decisions as f64),
        ("engine.livemux.extra_s", fused - decide),
        ("bench.replay_s", median(&traced)),
        (
            "bench.trace_overhead_frac",
            crate::stats::overhead_frac(&plain, &traced),
        ),
    ];
    m.extend(mux_split);
    m
}

/// `LiveMux` layer by layer: decisions captured tick by tick through
/// `tick_serial_with`, then posted with `push_decision`, ingested every
/// `FUSED_CHUNK` ticks (into a second mux on the other thread count as
/// well), checkpointed and restored halfway, and finalized. Both muxes
/// must land on the fused run's `mux_digest`.
fn livemux_split(
    sz: &Size,
    fleet: &SyntheticFleet,
    cfg: MuxConfig,
    want: Digests,
    nproc: usize,
    gate: &mut Gate,
    rec: &mut Recorder,
) -> Metrics {
    let other = 2.min(nproc);
    let run = rec.begin_run();
    let mut engine = new_engine(sz.sessions, 1);
    let mut mux = LiveMux::new(sz.sessions, engine.shard_size(), cfg);
    let mut mux2 = LiveMux::new(sz.sessions, engine.shard_size(), cfg);
    let mut captured: Vec<(u64, PictureSchedule)> = Vec::with_capacity(sz.sessions);
    let post = |rec: &mut Recorder,
                mux: &mut LiveMux,
                mux2: &mut LiveMux,
                c: &[(u64, PictureSchedule)]| {
        rec.span("engine.livemux.post", |_| {
            for (sid, d) in c {
                mux.push_decision(*sid, d);
            }
        });
        for (sid, d) in c {
            mux2.push_decision(*sid, d);
        }
    };
    let ingest = |rec: &mut Recorder, mux: &mut LiveMux, mux2: &mut LiveMux| {
        let applied = rec.span("engine.livemux.ingest", |_| mux.ingest(1, f64::INFINITY));
        rec.count("engine.livemux.events_applied", applied as f64);
        rec.count(
            "engine.livemux.empty_ingests",
            f64::from(u8::from(applied == 0)),
        );
        rec.span("engine.livemux.ingest_other", |_| {
            mux2.ingest(other, f64::INFINITY)
        });
    };
    for tick in 1..=sz.ticks {
        captured.clear();
        rec.span("engine.lockstep.tick_capture", |_| {
            engine.tick_serial_with(fleet, &mut |sid, d| captured.push((sid, *d)))
        });
        post(rec, &mut mux, &mut mux2, &captured);
        if tick % FUSED_CHUNK == 0 {
            ingest(rec, &mut mux, &mut mux2);
        }
        if tick == sz.ticks / 2 {
            ingest(rec, &mut mux, &mut mux2);
            let cp = rec.span("engine.livemux.checkpoint", |_| mux.checkpoint());
            mux = rec.span("engine.livemux.restore", |_| LiveMux::restore(&cp));
        }
    }
    captured.clear();
    rec.span("engine.lockstep.tick_capture", |_| {
        engine.finish_serial_with(fleet, &mut |sid, d| captured.push((sid, *d)))
    });
    post(rec, &mut mux, &mut mux2, &captured);
    rec.span("engine.livemux.post", |_| {
        for sid in 0..sz.sessions as u64 {
            mux.finish_session(sid);
        }
    });
    for sid in 0..sz.sessions as u64 {
        mux2.finish_session(sid);
    }
    ingest(rec, &mut mux, &mut mux2);
    let stats = rec.span("engine.livemux.finalize", |_| mux.finalize());
    let stats2 = mux2.finalize();
    gate.same(
        "split mux_digest",
        want.mux,
        mux_digest(&stats, &mux.descriptors()),
    );
    gate.same(
        "split mux_digest (other threads)",
        want.mux,
        mux_digest(&stats2, &mux2.descriptors()),
    );
    gate.same("split fleet_digest", want.fleet, engine.digest());

    let ingest_s = rec.median_s("engine.livemux.ingest");
    let ingest_other = rec.median_s("engine.livemux.ingest_other");
    vec![
        ("engine.livemux.post_s", rec.median_s("engine.livemux.post")),
        ("engine.livemux.ingest_s", ingest_s),
        (
            "engine.livemux.finalize_s",
            rec.median_s("engine.livemux.finalize"),
        ),
        ("engine.livemux.ingest_speedup_2t", ingest_s / ingest_other),
        (
            "engine.livemux.events_applied",
            rec.count_in_run("engine.livemux.events_applied", run),
        ),
        (
            "engine.livemux.empty_ingests",
            rec.count_in_run("engine.livemux.empty_ingests", run),
        ),
        (
            "engine.livemux.checkpoint_s",
            rec.median_s("engine.livemux.checkpoint"),
        ),
        (
            "engine.livemux.restore_s",
            rec.median_s("engine.livemux.restore"),
        ),
    ]
}
