//! `paper_grid`: the paper's four sequences at about an hour each,
//! smoothed offline over a D × K × H grid, then — for every config with
//! the largest delay bound — a phase-staggered looping ensemble through
//! `rate_function` → `cyclic_wrap` → `RateSweep`.

use smooth_core::reference::smooth_reference;
use smooth_core::{PatternEstimator, RateSelection, SmootherParams, SmoothingResult};
use smooth_metrics::{rate_function, StepFunction};
use smooth_netsim::mux::reference;
use smooth_netsim::{cyclic_wrap, FluidMux, FluidMuxStats, RateSweep};
use smooth_rng::Rng;
use smooth_sweep::{smooth_jobs, SweepJob};
use smooth_trace::{generate, SequenceId, VideoTrace};

use crate::span::Recorder;
use crate::stats::median;
use crate::{fnv, mix, repeat, timed, Gate, Metrics, Opts, FNV_OFFSET};

/// Delay bounds (s), K values and H multiples of the GOP length N.
const DS: [f64; 5] = [0.1, 0.15, 0.2, 0.3, 0.5];
const KS: [usize; 3] = [1, 2, 3];
const HS: [usize; 2] = [1, 2];
/// Configs with this delay bound also run the mux step. They are the
/// smoothest of the grid (a few thousand rate pieces per hour), which
/// keeps the quadratic `cyclic_wrap` in proportion to the smoother.
const MUX_D: f64 = 0.5;
/// Offered load over link capacity for the looping ensembles.
const LOAD: f64 = 0.9;
/// Link buffer per ensemble source, bits.
const BUFFER_PER_SOURCE: f64 = 100.0e3;

struct Size {
    pictures: usize,
    /// Looping copies per sequence in the mux step.
    ensemble: usize,
    /// Length of the sequences the reference oracles run on.
    oracle_pictures: usize,
}

fn size(opts: &Opts) -> Size {
    if opts.tiny {
        Size {
            pictures: 3_000,
            ensemble: 2,
            oracle_pictures: 600,
        }
    } else {
        Size {
            pictures: 108_000,
            ensemble: 8,
            oracle_pictures: 2_000,
        }
    }
}

/// The four sequences, as seed variants of the paper's scripts.
fn traces(seed: u64, pictures: usize, rec: &mut Recorder) -> Vec<VideoTrace> {
    rec.span("trace.generate", |_| {
        SequenceId::ALL
            .iter()
            .enumerate()
            .map(|(i, &id)| generate(id, pictures, mix(seed ^ (i as u64 + 1))))
            .collect()
    })
}

/// Every feasible (D, K, H) per trace, trace-major; and the indices of
/// the jobs that also run the mux step.
fn grid(traces: &[VideoTrace]) -> (Vec<SweepJob<'_>>, Vec<usize>) {
    let mut jobs = Vec::new();
    let mut muxed = Vec::new();
    for trace in traces {
        let n = trace.pattern.n();
        for &d in &DS {
            for &k in &KS {
                for &h in &HS {
                    if let Ok(params) = SmootherParams::new(d, k, h * n, trace.tau()) {
                        if d == MUX_D {
                            muxed.push(jobs.len());
                        }
                        jobs.push(SweepJob { trace, params });
                    }
                }
            }
        }
    }
    (jobs, muxed)
}

/// The looping ensemble of one trace: `ensemble` phase offsets over its
/// duration, and the link for it.
fn ensemble(trace: &VideoTrace, copies: usize, rng: &mut Rng) -> (Vec<f64>, RateSweep) {
    let period = trace.duration();
    let offsets = (0..copies).map(|_| rng.range_f64(0.0, period)).collect();
    let link = RateSweep {
        capacity_bps: trace.mean_rate_bps() * copies as f64 / LOAD,
        buffer_bits: BUFFER_PER_SOURCE * copies as f64,
    };
    (offsets, link)
}

fn stats_digest(d: u64, s: &FluidMuxStats) -> u64 {
    [
        s.arrived_bits,
        s.lost_bits,
        s.served_bits,
        s.final_queue_bits,
        s.max_queue_bits,
        s.utilization,
    ]
    .iter()
    .fold(d, |d, v| fnv(d, v.to_bits()))
}

fn result_digest(d: u64, r: &SmoothingResult) -> u64 {
    r.schedule.iter().fold(d, |d, p| {
        fnv(
            fnv(fnv(d, p.start.to_bits()), p.rate.to_bits()),
            p.depart.to_bits(),
        )
    })
}

/// One replay's output.
struct Replay {
    results: Vec<SmoothingResult>,
    mux: Vec<FluidMuxStats>,
}

/// The timed replay: the grid, then the mux step for the `muxed` jobs.
fn replay(
    jobs: &[SweepJob<'_>],
    muxed: &[usize],
    copies: usize,
    seed: u64,
    rec: &mut Recorder,
) -> Replay {
    let estimator = PatternEstimator::default();
    let results = rec.span("core.smoother.smooth", |_| {
        smooth_jobs(1, jobs, &estimator, RateSelection::Basic)
    });
    let mut rng = Rng::seed_from_u64(mix(seed ^ 0x6E1D));
    let mut mux = Vec::with_capacity(muxed.len());
    for &j in muxed {
        let trace = jobs[j].trace;
        let (offsets, link) = ensemble(trace, copies, &mut rng);
        let period = trace.duration();
        let f = rec.span("metrics.rate_function", |_| rate_function(&results[j]));
        rec.count("netsim.wrap_pieces", (f.pieces().count() * copies) as f64);
        let inputs: Vec<StepFunction> = rec.span("netsim.wrap", |_| {
            offsets
                .iter()
                .map(|&o| cyclic_wrap(&f, o, period))
                .collect()
        });
        rec.count(
            "netsim.sweep_events",
            inputs.iter().map(|g| g.breakpoints().len()).sum::<usize>() as f64,
        );
        mux.push(rec.span("netsim.sweep", |_| link.run(&inputs, 0.0, period)));
    }
    Replay { results, mux }
}

/// Checks every schedule against Theorem 1 (no delay violation,
/// continuous service) and fingerprints the replay.
fn check(gate: &mut Gate, r: &Replay) -> u64 {
    let mut d = FNV_OFFSET;
    for res in &r.results {
        gate.check(
            &format!("delay violations at {:?}", res.params),
            res.delay_violations() == 0,
        );
        gate.check(
            &format!("continuous service at {:?}", res.params),
            res.continuous_service(),
        );
        d = result_digest(d, res);
    }
    r.mux.iter().fold(d, stats_digest)
}

/// At reduced length: the smoother against `smooth_reference` on every
/// grid config, and `RateSweep` against the quadratic mux reference on
/// every ensemble.
fn reduced_gate(sz: &Size, seed: u64, gate: &mut Gate) {
    let off = &mut Recorder::new(false);
    let traces = traces(seed, sz.oracle_pictures, off);
    let (jobs, muxed) = grid(&traces);
    let r = replay(&jobs, &muxed, sz.ensemble, seed, off);
    for (job, got) in jobs.iter().zip(&r.results) {
        let want = smooth_reference(job.trace, job.params);
        gate.same(
            &format!("smooth vs smooth_reference at {:?}", job.params),
            result_digest(FNV_OFFSET, &want),
            result_digest(FNV_OFFSET, got),
        );
    }
    let mut rng = Rng::seed_from_u64(mix(seed ^ 0x6E1D));
    for (&j, got) in muxed.iter().zip(&r.mux) {
        let trace = jobs[j].trace;
        let (offsets, link) = ensemble(trace, sz.ensemble, &mut rng);
        let period = trace.duration();
        let f = rate_function(&r.results[j]);
        let inputs: Vec<StepFunction> = offsets
            .iter()
            .map(|&o| cyclic_wrap(&f, o, period))
            .collect();
        let fluid = FluidMux {
            capacity_bps: link.capacity_bps,
            buffer_bits: link.buffer_bits,
        };
        let want = reference::run(&fluid, &inputs, 0.0, period);
        gate.same(
            &format!("RateSweep vs mux reference on {}", trace.name),
            stats_digest(FNV_OFFSET, &want),
            stats_digest(FNV_OFFSET, got),
        );
    }
}

/// Set-up plus one timed replay: `(setup_s, run_s, pictures, replay)`.
fn once(opts: &Opts, sz: &Size, rec: &mut Recorder) -> (f64, f64, usize, Replay) {
    let (setup_s, traces) = timed(|| traces(opts.seed, sz.pictures, rec));
    let (jobs, muxed) = grid(&traces);
    let (run_s, r) = timed(|| {
        rec.span("bench.replay", |rec| {
            replay(&jobs, &muxed, sz.ensemble, opts.seed, rec)
        })
    });
    let pictures = jobs.iter().map(|j| j.trace.len()).sum();
    (setup_s, run_s, pictures, r)
}

/// The untraced run: end-to-end metrics.
pub fn run(opts: &Opts, gate: &mut Gate) -> Metrics {
    let sz = size(opts);
    reduced_gate(&sz, opts.seed, gate);
    let off = &mut Recorder::new(false);
    let (mut setups, mut runs) = (Vec::new(), Vec::new());
    let mut first: Option<u64> = None;
    let mut pictures = 0;
    repeat(opts.seconds, 3, || {
        let (setup_s, run_s, n, r) = once(opts, &sz, off);
        pictures = n;
        setups.push(setup_s);
        runs.push(run_s);
        crate::log_repeat(runs.len(), setup_s, run_s);
        let d = check(gate, &r);
        match first {
            None => first = Some(d),
            Some(want) => gate.same("repeat grid digest", want, d),
        }
    });
    let run_s = median(&runs);
    vec![
        ("setup_s", median(&setups)),
        ("run_s", run_s),
        ("decisions_per_s", pictures as f64 / run_s),
        ("peak_rss_mb", crate::peak_rss_mb()),
    ]
}

/// The traced run: per-layer decomposition.
pub fn traced(opts: &Opts, gate: &mut Gate, rec: &mut Recorder) -> Metrics {
    let sz = size(opts);
    // Replays untraced and traced alternately; every one must land on
    // the same grid digest.
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut want: Option<u64> = None;
    let mut last_run = 0;
    repeat(opts.seconds, 2, || {
        let (_, run_s, _, r) = once(opts, &sz, &mut Recorder::new(false));
        plain.push(run_s);
        let d = check(gate, &r);
        want.get_or_insert(d);
        drop(r);

        last_run = rec.begin_run();
        let (_, run_s, pictures, r) = once(opts, &sz, rec);
        traced.push(run_s);
        rec.count("core.smoother.pictures", pictures as f64);
        rec.count(
            "core.smoother.rate_changes",
            r.results.iter().map(|x| x.rate_changes()).sum::<usize>() as f64,
        );
        let d = check(gate, &r);
        gate.same("traced grid digest", want.unwrap_or(d), d);
    });
    let count = |name| rec.count_in_run(name, last_run);
    vec![
        ("trace.generate_s", rec.median_s("trace.generate")),
        (
            "core.smoother.smooth_s",
            rec.median_s("core.smoother.smooth"),
        ),
        ("core.smoother.pictures", count("core.smoother.pictures")),
        (
            "core.smoother.rate_changes",
            count("core.smoother.rate_changes"),
        ),
        (
            "metrics.rate_function_s",
            rec.median_s("metrics.rate_function"),
        ),
        ("netsim.wrap_s", rec.median_s("netsim.wrap")),
        ("netsim.wrap_pieces", count("netsim.wrap_pieces")),
        ("netsim.sweep_s", rec.median_s("netsim.sweep")),
        ("netsim.sweep_events", count("netsim.sweep_events")),
        ("bench.replay_s", median(&traced)),
        (
            "bench.trace_overhead_frac",
            crate::stats::overhead_frac(&plain, &traced),
        ),
    ]
}
