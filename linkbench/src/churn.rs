//! `churn_link`: 100k initial sessions in an equal 24/25/30/60 fps mix
//! with 10 %/s churn, run fused into `LiveMux` with one mid-run engine +
//! mux checkpoint → restore — the production-shaped live path.

use smooth_core::TimingWheel;
use smooth_engine::scanref::run_scan;
use smooth_engine::{
    churn_trace, fps_class, mux_digest, ChurnEvent, ChurnSpec, ChurnTrace, DynamicClass,
    DynamicEngine, EngineError, LiveMux, LiveMuxStats, MuxConfig, SyntheticFleet, ARRIVAL_BATCH,
    TICKS_PER_SEC,
};

use crate::span::Recorder;
use crate::stats::median;
use crate::{mix, repeat, timed, Digests, Gate, Metrics, Opts};

/// Worker threads the workload runs on by default.
pub const THREADS: usize = 2;

const FPS: [u64; 4] = [24, 25, 30, 60];
/// 10 % of the initial fleet joins, and as many leave, per second.
const CHURN_PPM_PER_SEC: u64 = 100_000;
/// Sessions per engine shard and per mux lane block.
const SHARD: usize = 4096;
/// Offered load over link capacity.
const LOAD: f64 = 0.9;
/// Link buffer per initial session, bits.
const BUFFER_PER_SESSION: f64 = 2.0e3;

#[derive(Clone, Copy)]
struct Size {
    initial: usize,
    seconds: u64,
    /// Fleet the brute-force `scanref` oracle replays.
    scan_initial: usize,
    scan_seconds: u64,
}

fn size(opts: &Opts) -> Size {
    if opts.tiny {
        Size {
            initial: 2_000,
            seconds: 3,
            scan_initial: 200,
            scan_seconds: 2,
        }
    } else {
        Size {
            initial: 100_000,
            seconds: 4,
            scan_initial: 1_500,
            scan_seconds: 2,
        }
    }
}

fn classes() -> Vec<DynamicClass> {
    FPS.iter().map(|&f| fps_class(f)).collect()
}

fn source(seed: u64) -> SyntheticFleet {
    SyntheticFleet {
        seed: mix(seed),
        pattern: classes()[0].class.pattern,
    }
}

/// The workload's input: the churn trace, its two halves around the
/// checkpoint, and the link.
struct Input {
    trace: ChurnTrace,
    first: ChurnTrace,
    second: ChurnTrace,
    cfg: MuxConfig,
}

fn input(
    seed: u64,
    initial: usize,
    seconds: u64,
    src: &SyntheticFleet,
    rec: &mut Recorder,
) -> Input {
    let periods: Vec<u64> = classes().iter().map(|c| c.period_ticks).collect();
    let horizon = TICKS_PER_SEC * seconds;
    let trace = rec.span("trace.churn_gen", |_| {
        churn_trace(&ChurnSpec {
            seed: mix(seed ^ 0xC4u64),
            initial,
            weights: vec![1; FPS.len()],
            periods,
            ticks_per_sec: TICKS_PER_SEC,
            horizon,
            churn_ppm_per_sec: CHURN_PPM_PER_SEC,
        })
    });
    let cut = horizon / 2;
    let split = |keep: &dyn Fn(u64) -> bool, horizon| ChurnTrace {
        events: trace
            .events
            .iter()
            .filter(|&&(t, _)| keep(t))
            .copied()
            .collect(),
        horizon,
        peak_live: trace.peak_live,
    };
    let first = split(&|t| t <= cut, cut);
    let second = split(&|t| t > cut, horizon);
    // Mean rate of the mix: bits per picture times the mean picture clock.
    let mean_fps = FPS.iter().sum::<u64>() as f64 / FPS.len() as f64;
    let per_session = crate::mean_picture_bits(src) * mean_fps / LOAD;
    let cfg = MuxConfig {
        capacity_bps: per_session * initial as f64,
        buffer_bits: BUFFER_PER_SESSION * initial as f64,
        t_start: 0.0,
        t_end: seconds as f64 + 1.0,
        descriptor_rho_bps: per_session,
    };
    Input {
        trace,
        first,
        second,
        cfg,
    }
}

fn new_engine(trace: &ChurnTrace) -> Result<DynamicEngine, EngineError> {
    DynamicEngine::new(classes(), trace.peak_live.max(1), SHARD)
}

/// One interrupted replay's timings.
struct Replay {
    setup_s: f64,
    run_s: f64,
    recover_s: f64,
    shard_skew: f64,
    digests: Digests,
}

/// Set-up, then the fused replay of the first half, an engine + mux
/// checkpoint → restore, and the fused replay of the second half.
fn interrupted(
    seed: u64,
    sz: &Size,
    src: &SyntheticFleet,
    threads: usize,
    rec: &mut Recorder,
) -> Result<Replay, EngineError> {
    let (setup_s, built) = timed(|| {
        let inp = input(seed, sz.initial, sz.seconds, src, rec);
        rec.span("engine.dynamic.setup", |_| {
            let engine = new_engine(&inp.trace)?;
            let mux = LiveMux::with_joins(inp.trace.total_joins(), SHARD, inp.cfg);
            Ok::<_, EngineError>((inp, engine, mux))
        })
    });
    let (inp, mut engine, mut mux) = built?;
    let mut recover_s = 0.0;
    let mut shard_skew = 0.0;
    let (run_s, stats) = timed(|| {
        rec.span("bench.replay", |rec| {
            rec.span("engine.dynamic.fused_part", |_| {
                engine.run_trace_fused(src, &inp.first, threads, &mut mux)
            })?;
            let loads = engine.shard_loads();
            shard_skew = *loads.iter().max().unwrap_or(&0) as f64
                / (loads.iter().sum::<usize>() as f64 / loads.len().max(1) as f64);
            let (rs, restored) = timed(|| {
                let ecp = rec.span("engine.dynamic.checkpoint", |_| engine.checkpoint());
                let mcp = rec.span("engine.livemux.checkpoint", |_| mux.checkpoint());
                let e = rec.span("engine.dynamic.restore", |_| {
                    DynamicEngine::restore_checkpoint(
                        classes(),
                        inp.trace.peak_live.max(1),
                        SHARD,
                        &ecp,
                    )
                });
                let m = rec.span("engine.livemux.restore", |_| LiveMux::restore(&mcp));
                e.map(|e| (e, m))
            });
            recover_s = rs;
            (engine, mux) = restored?;
            rec.span("engine.dynamic.fused_part", |_| {
                engine.run_trace_fused(src, &inp.second, threads, &mut mux)?;
                Ok::<_, EngineError>(engine.finish_fused(src, threads, &mut mux))
            })
        })
    });
    Ok(Replay {
        setup_s,
        run_s,
        recover_s,
        shard_skew,
        digests: digests(&engine, &stats?, &mux),
    })
}

fn digests(engine: &DynamicEngine, stats: &LiveMuxStats, mux: &LiveMux) -> Digests {
    Digests {
        fleet: engine.digest(),
        mux: mux_digest(stats, &mux.descriptors()),
        decisions: engine.decisions(),
    }
}

/// Reduced-size oracles: the wheel engine against the brute-force scan,
/// and an interrupted fused replay against an uninterrupted one.
fn reduced_gate(seed: u64, sz: &Size, src: &SyntheticFleet, threads: usize, gate: &mut Gate) {
    let off = &mut Recorder::new(false);
    let inp = input(seed, sz.scan_initial, sz.scan_seconds, src, off);
    let scan = run_scan(&classes(), &inp.trace, src, false);
    if let Some(mut engine) = gate.ok("engine (scan gate)", new_engine(&inp.trace)) {
        if gate
            .ok("run_trace", engine.run_trace(src, &inp.trace, threads))
            .is_some()
        {
            gate.same("run_trace vs scanref digest", scan.digest, engine.digest());
            gate.check(
                "run_trace vs scanref decisions",
                scan.decisions == engine.decisions(),
            );
        }
    }
    let small = Size {
        initial: sz.scan_initial,
        seconds: sz.scan_seconds,
        ..*sz
    };
    let whole = uninterrupted(&inp, src, threads, off);
    let cut = interrupted(seed, &small, src, threads, off);
    if let (Some(want), Some(got)) = (gate.ok("uninterrupted", whole), gate.ok("interrupted", cut))
    {
        gate.same_digests("checkpoint→restore", want, got.digests);
    }
}

/// The fused replay without the checkpoint.
fn uninterrupted(
    inp: &Input,
    src: &SyntheticFleet,
    threads: usize,
    rec: &mut Recorder,
) -> Result<Digests, EngineError> {
    let (mut engine, mut mux) = rec.span("engine.dynamic.setup", |_| {
        let mux = LiveMux::with_joins(inp.trace.total_joins(), SHARD, inp.cfg);
        new_engine(&inp.trace).map(|e| (e, mux))
    })?;
    let stats = rec.span("engine.dynamic.fused", |_| {
        engine.run_trace_fused(src, &inp.trace, threads, &mut mux)?;
        Ok::<_, EngineError>(engine.finish_fused(src, threads, &mut mux))
    })?;
    Ok(digests(&engine, &stats, &mux))
}

/// The untraced run: end-to-end metrics.
pub fn run(opts: &Opts, gate: &mut Gate) -> Metrics {
    let sz = size(opts);
    let src = source(opts.seed);
    reduced_gate(opts.seed, &sz, &src, opts.threads, gate);
    let off = &mut Recorder::new(false);
    let (mut setups, mut runs) = (Vec::new(), Vec::new());
    let mut first: Option<Digests> = None;
    repeat(opts.seconds, 3, || {
        let Some(r) = gate.ok(
            "replay",
            interrupted(opts.seed, &sz, &src, opts.threads, off),
        ) else {
            return;
        };
        setups.push(r.setup_s);
        runs.push(r.run_s);
        crate::log_repeat(runs.len(), r.setup_s, r.run_s);
        match first {
            None => first = Some(r.digests),
            Some(want) => gate.same_digests("repeat", want, r.digests),
        }
    });
    let run_s = median(&runs);
    vec![
        ("setup_s", median(&setups)),
        ("run_s", run_s),
        (
            "decisions_per_s",
            first.map_or(0, |d| d.decisions) as f64 / run_s,
        ),
        ("peak_rss_mb", crate::peak_rss_mb()),
    ]
}

/// The traced run: per-layer decomposition.
pub fn traced(opts: &Opts, gate: &mut Gate, rec: &mut Recorder) -> Metrics {
    let sz = size(opts);
    let src = source(opts.seed);
    let threads = opts.threads;

    let off = &mut Recorder::new(false);
    let inp = input(opts.seed, sz.initial, sz.seconds, &src, off);
    let mut joins = 0;
    // The bare replay, no aggregation: its fleet digest must match the
    // fused one.
    let mut bare =
        |name: &'static str, t: usize, want: Digests, gate: &mut Gate, rec: &mut Recorder| {
            rec.begin_run();
            let Some(mut engine) = gate.ok("engine", new_engine(&inp.trace)) else {
                return;
            };
            let done = rec.span(name, |_| {
                engine.run_trace(&src, &inp.trace, t)?;
                engine.finish(&src, t);
                Ok::<_, EngineError>(())
            });
            if gate.ok("bare replay", done).is_some() {
                gate.same("bare fleet_digest", want.fleet, engine.digest());
                joins = engine.joined();
            }
        };

    // Each round: the interrupted replay untraced and traced (the tracing
    // overhead), the uninterrupted fused replay, which must match it, and
    // the bare replay, so that fused - bare comes from neighbouring runs.
    let (mut plain, mut traced, mut recovers, mut skews) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut want: Option<Digests> = None;
    repeat(opts.seconds, 2, || {
        let off = &mut Recorder::new(false);
        if let Some(r) = gate.ok("replay", interrupted(opts.seed, &sz, &src, threads, off)) {
            plain.push(r.run_s);
            want.get_or_insert(r.digests);
        }
        rec.begin_run();
        if let Some(r) = gate.ok("replay", interrupted(opts.seed, &sz, &src, threads, rec)) {
            traced.push(r.run_s);
            recovers.push(r.recover_s);
            skews.push(r.shard_skew);
            if let Some(w) = want {
                gate.same_digests("traced repeat", w, r.digests);
            }
        }
        let Some(w) = want else {
            return;
        };
        rec.begin_run();
        if let Some(d) = gate.ok("uninterrupted", uninterrupted(&inp, &src, threads, rec)) {
            gate.same_digests("uninterrupted", w, d);
        }
        bare("engine.dynamic.replay", threads, w, gate, rec);
    });
    let Some(want) = want else {
        return Vec::new();
    };
    for _ in 0..2 {
        bare(
            "engine.dynamic.replay_other",
            opts.other_threads(),
            want,
            gate,
            rec,
        );
    }

    let wheel_ops = wheel_replay(&inp.trace, rec);
    let leaves = inp
        .trace
        .events
        .iter()
        .filter(|(_, e)| matches!(e, ChurnEvent::Leave { .. }))
        .count();
    let replay = rec.median_s("engine.dynamic.replay");
    let fused = rec.median_s("engine.dynamic.fused");
    let replay_other = rec.median_s("engine.dynamic.replay_other");
    let bytes_per_slot = new_engine(&inp.trace).map_or(0, |e| e.state_bytes_per_slot());
    vec![
        ("trace.churn_gen_s", rec.median_s("trace.churn_gen")),
        (
            "engine.dynamic.setup_s",
            rec.median_s("engine.dynamic.setup"),
        ),
        ("engine.dynamic.replay_s", replay),
        ("engine.dynamic.fused_s", fused),
        (
            "engine.dynamic.replay_speedup_2t",
            opts.speedup_2t(replay, replay_other),
        ),
        (
            "engine.dynamic.checkpoint_s",
            rec.median_s("engine.dynamic.checkpoint"),
        ),
        (
            "engine.dynamic.restore_s",
            rec.median_s("engine.dynamic.restore"),
        ),
        ("engine.dynamic.decisions", want.decisions as f64),
        ("engine.dynamic.joins", joins as f64),
        ("engine.dynamic.leaves", leaves as f64),
        ("engine.dynamic.bytes_per_slot", bytes_per_slot as f64),
        ("engine.dynamic.shard_skew", median(&skews)),
        ("engine.livemux.extra_s", fused - replay),
        (
            "engine.livemux.checkpoint_s",
            rec.median_s("engine.livemux.checkpoint"),
        ),
        (
            "engine.livemux.restore_s",
            rec.median_s("engine.livemux.restore"),
        ),
        ("core.eventsim.wheel_s", rec.median_s("core.eventsim.wheel")),
        ("core.eventsim.wheel_ops", wheel_ops as f64),
        ("recover_s", median(&recovers)),
        ("bench.replay_s", median(&traced)),
        (
            "bench.trace_overhead_frac",
            crate::stats::overhead_frac(&plain, &traced),
        ),
    ]
}

/// Replays the trace's arm/pop pattern through one `TimingWheel`: a
/// join arms its session's first batch deadline, each pop re-arms the
/// session a batch of periods later until it leaves or the horizon
/// passes, and departed sessions' entries die when popped. Returns the
/// wheel operations (schedules plus popped items).
fn wheel_replay(trace: &ChurnTrace, rec: &mut Recorder) -> u64 {
    let periods: Vec<u64> = classes().iter().map(|c| c.period_ticks).collect();
    // Per session: batch period in ticks, and whether it is still live.
    let mut step: Vec<u64> = Vec::with_capacity(trace.events.len());
    let mut live: Vec<bool> = Vec::with_capacity(trace.events.len());
    rec.begin_run();
    rec.span("core.eventsim.wheel", |_| {
        let mut wheel = TimingWheel::new();
        let mut due = Vec::new();
        let mut ops = 0u64;
        let mut drain =
            |wheel: &mut TimingWheel, until: u64, step: &[u64], live: &[bool], ops: &mut u64| {
                while wheel.pop_due(until, &mut due).is_some() {
                    let now = wheel.now();
                    *ops += due.len() as u64;
                    for &sid in &due {
                        if live[sid as usize] {
                            wheel.schedule(now + step[sid as usize], sid);
                            *ops += 1;
                        }
                    }
                    due.clear();
                }
            };
        for &(t, ev) in &trace.events {
            if t > wheel.now() {
                drain(&mut wheel, t - 1, &step, &live, &mut ops);
            }
            match ev {
                ChurnEvent::Join { class, phase, .. } => {
                    let period = periods[class as usize];
                    let first = t + 1 + phase % period;
                    wheel.schedule(first + (ARRIVAL_BATCH - 1) * period, step.len() as u64);
                    step.push(ARRIVAL_BATCH * period);
                    live.push(true);
                    ops += 1;
                }
                ChurnEvent::Leave { sid } => live[sid as usize] = false,
            }
        }
        drain(&mut wheel, trace.horizon, &step, &live, &mut ops);
        ops
    })
}
