//! `linkbench`: the repository benchmark. Each workload is a closed
//! batch job — all input is generated from `--seed` during set-up, then
//! replayed as fast as it runs, with no arrival process — driven through
//! the library's public API only.
//!
//! ```text
//! linkbench --workload <lockstep_link|churn_link|paper_grid> --seed <n>
//!           --seconds <s> --trace <0|1> [--threads <n>] [--out-dir <dir>]
//!           [--provenance <json>] [--tiny] [--corrupt-digest]
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` runs the
//! per-layer decomposition with the span recorder on and prints the
//! per-layer metrics. The last line of standard output is always the
//! result object `{"correct", "attempted", "failed", "metrics"}`.
//! `--tiny` shrinks every workload for the harness self-check, and
//! `--corrupt-digest` corrupts one digest the gate compares, which must
//! fail the run.

mod churn;
mod grid;
mod json;
mod lockstep;
mod span;
mod stats;

use std::time::Instant;

use json::Json;
use smooth_engine::{SizeSource, SyntheticFleet};
use span::Recorder;

/// End-to-end metrics, reported by every untraced run.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("run_s", "s"),
    ("decisions_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, reported by every traced run. A layer the
/// workload never calls reports 0.
pub const PER_LAYER: [(&str, &str); 41] = [
    ("trace.generate_s", "s"),
    ("trace.churn_gen_s", "s"),
    ("engine.lockstep.setup_s", "s"),
    ("engine.lockstep.decide_s", "s"),
    ("engine.lockstep.fused_s", "s"),
    ("engine.lockstep.decide_speedup_2t", "x"),
    ("engine.lockstep.bytes_per_session", "bytes"),
    ("engine.lockstep.decisions", "count"),
    ("engine.dynamic.setup_s", "s"),
    ("engine.dynamic.replay_s", "s"),
    ("engine.dynamic.fused_s", "s"),
    ("engine.dynamic.replay_speedup_2t", "x"),
    ("engine.dynamic.checkpoint_s", "s"),
    ("engine.dynamic.restore_s", "s"),
    ("engine.dynamic.decisions", "count"),
    ("engine.dynamic.joins", "count"),
    ("engine.dynamic.leaves", "count"),
    ("engine.dynamic.bytes_per_slot", "bytes"),
    ("engine.dynamic.shard_skew", "ratio"),
    ("engine.livemux.extra_s", "s"),
    ("engine.livemux.post_s", "s"),
    ("engine.livemux.ingest_s", "s"),
    ("engine.livemux.finalize_s", "s"),
    ("engine.livemux.ingest_speedup_2t", "x"),
    ("engine.livemux.events_applied", "count"),
    ("engine.livemux.empty_ingests", "count"),
    ("engine.livemux.checkpoint_s", "s"),
    ("engine.livemux.restore_s", "s"),
    ("core.eventsim.wheel_s", "s"),
    ("core.eventsim.wheel_ops", "count"),
    ("core.smoother.smooth_s", "s"),
    ("core.smoother.pictures", "count"),
    ("core.smoother.rate_changes", "count"),
    ("metrics.rate_function_s", "s"),
    ("netsim.wrap_s", "s"),
    ("netsim.wrap_pieces", "count"),
    ("netsim.sweep_s", "s"),
    ("netsim.sweep_events", "count"),
    ("recover_s", "s"),
    ("bench.replay_s", "s"),
    ("bench.trace_overhead_frac", "frac"),
];

/// Run options shared by every workload.
pub struct Opts {
    pub seed: u64,
    pub seconds: f64,
    pub threads: usize,
    pub nproc: usize,
    pub tiny: bool,
}

impl Opts {
    /// The other thread count of the 1-vs-2 comparisons: 2 when the run
    /// uses 1 and the machine has a second core, else 1.
    pub fn other_threads(&self) -> usize {
        if self.threads == 1 {
            2.min(self.nproc)
        } else {
            1
        }
    }

    /// 1-thread wall over 2-thread wall, from the wall at the run's
    /// thread count and the wall at [`other_threads`](Self::other_threads).
    pub fn speedup_2t(&self, this: f64, other: f64) -> f64 {
        if self.other_threads() > self.threads {
            this / other
        } else {
            other / this
        }
    }
}

/// Fingerprints of one fleet replay: the engine's `fleet_digest`, the
/// `mux_digest` of the link stats and (σ, ρ) descriptors, and the
/// decision count.
#[derive(Clone, Copy, Debug)]
pub struct Digests {
    pub fleet: u64,
    pub mux: u64,
    pub decisions: u64,
}

/// The correctness gate: every comparison is one attempted operation
/// and every mismatch or engine error one failed operation.
pub struct Gate {
    pub attempted: u64,
    pub failed: u64,
    corrupt: bool,
}

impl Gate {
    pub fn new(corrupt: bool) -> Self {
        Gate {
            attempted: 0,
            failed: 0,
            corrupt,
        }
    }

    pub fn check(&mut self, what: &str, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("linkbench: gate mismatch: {what}");
        }
    }

    /// Compares two digests. With `--corrupt-digest` the first digest
    /// compared is flipped in one bit, which must trip the gate.
    pub fn same(&mut self, what: &str, want: u64, got: u64) {
        let got = if std::mem::take(&mut self.corrupt) {
            got ^ 1
        } else {
            got
        };
        self.check(&format!("{what}: {want:#018x} != {got:#018x}"), want == got);
    }

    pub fn same_digests(&mut self, what: &str, want: Digests, got: Digests) {
        self.same(&format!("{what} fleet_digest"), want.fleet, got.fleet);
        self.same(&format!("{what} mux_digest"), want.mux, got.mux);
        self.check(
            &format!("{what} decisions: {} != {}", want.decisions, got.decisions),
            want.decisions == got.decisions,
        );
    }

    /// Unwraps an engine result, counting an error as a failed operation.
    pub fn ok<T, E: std::fmt::Display>(&mut self, what: &str, r: Result<T, E>) -> Option<T> {
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.check(&format!("{what}: {e}"), false);
                None
            }
        }
    }
}

/// A workload's outcome: its metrics by name.
pub type Metrics = Vec<(&'static str, f64)>;

/// Runs `rep` until `seconds` of wall time have passed and it ran at
/// least `min` times.
pub fn repeat(seconds: f64, min: usize, mut rep: impl FnMut()) {
    let t0 = Instant::now();
    let mut i = 0;
    while i < min || t0.elapsed().as_secs_f64() < seconds {
        rep();
        i += 1;
    }
}

/// Logs one repeat of an untraced run to standard error.
pub fn log_repeat(n: usize, setup_s: f64, run_s: f64) {
    eprintln!("linkbench: repeat {n}: setup {setup_s:.4} s, run {run_s:.4} s");
}

/// Wall seconds of `f`, with its result.
pub fn timed<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let t0 = Instant::now();
    let r = f();
    (t0.elapsed().as_secs_f64(), r)
}

/// FNV-1a step, for the harness's own digests of library outputs.
pub fn fnv(h: u64, x: u64) -> u64 {
    let mut h = h;
    for b in x.to_le_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// splitmix64 of `x`: derives independent sub-seeds from `--seed`.
pub fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Mean coded picture size of a synthetic fleet, in bits, sampled over
/// the first eight GOPs of its first 256 streams.
pub fn mean_picture_bits(src: &SyntheticFleet) -> f64 {
    let (streams, pictures) = (256u64, 8 * src.pattern.n() as u64);
    let bits: u64 = (0..streams)
        .flat_map(|s| (0..pictures).map(move |p| (s, p)))
        .map(|(s, p)| src.size(s, p))
        .sum();
    bits as f64 / (streams * pictures) as f64
}

/// Peak resident set size of this process so far, in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

struct Args {
    workload: String,
    trace: bool,
    opts: Opts,
    corrupt: bool,
    out_dir: Option<String>,
    provenance: String,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut threads, mut out_dir, mut provenance) = (None, None, String::from("{}"));
    let (mut tiny, mut corrupt) = (false, false);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err("--seconds must be a non-negative number".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not {other}")),
                })
            }
            "--threads" => {
                threads = Some(
                    value()?
                        .parse::<usize>()
                        .map_err(|e| format!("--threads: {e}"))?,
                )
            }
            "--out-dir" => out_dir = Some(value()?),
            "--provenance" => provenance = value()?,
            "--tiny" => tiny = true,
            "--corrupt-digest" => corrupt = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let default_threads = match workload.as_str() {
        "lockstep_link" | "paper_grid" => 1,
        "churn_link" => churn::THREADS,
        other => return Err(format!("unknown workload {other}")),
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = match threads {
        Some(0) => return Err("--threads must be at least 1".into()),
        Some(t) if t > nproc => {
            return Err(format!("--threads {t} exceeds the {nproc} available cores"))
        }
        Some(t) => t,
        None => default_threads.min(nproc),
    };
    Ok(Args {
        workload,
        trace: trace.ok_or("--trace is required")?,
        opts: Opts {
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            threads,
            nproc,
            tiny,
        },
        corrupt,
        out_dir,
        provenance,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("linkbench: {e}");
            std::process::exit(2);
        }
    };
    let opts = &args.opts;
    let mut gate = Gate::new(args.corrupt);
    let mut rec = Recorder::new(args.trace);
    let t0 = Instant::now();
    let metrics = match (args.workload.as_str(), args.trace) {
        ("lockstep_link", false) => lockstep::run(opts, &mut gate),
        ("lockstep_link", true) => lockstep::traced(opts, &mut gate, &mut rec),
        ("churn_link", false) => churn::run(opts, &mut gate),
        ("churn_link", true) => churn::traced(opts, &mut gate, &mut rec),
        ("paper_grid", false) => grid::run(opts, &mut gate),
        ("paper_grid", true) => grid::traced(opts, &mut gate, &mut rec),
        _ => unreachable!("workload validated by parse_args"),
    };
    let wall = t0.elapsed().as_secs_f64();

    let table: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    for (name, _) in &metrics {
        assert!(
            table.iter().any(|(n, _)| n == name),
            "metric {name} is not declared for this mode"
        );
    }
    let out = table
        .iter()
        .map(|&(name, unit)| {
            let value = metrics
                .iter()
                .find(|(n, _)| *n == name)
                .map_or(0.0, |&(_, v)| v);
            (
                name,
                Json::obj([("value", Json::from(value)), ("unit", Json::str(unit))]),
            )
        })
        .collect::<Vec<_>>();

    let provenance = Json::obj([
        ("workload", Json::str(&args.workload)),
        ("seed", Json::from(opts.seed as f64)),
        ("seconds", Json::from(opts.seconds)),
        ("trace", Json::Bool(args.trace)),
        ("threads", Json::from(opts.threads as f64)),
        ("nproc", Json::from(opts.nproc as f64)),
        ("cpu_model", Json::str(&cpu_model())),
        ("tiny", Json::Bool(opts.tiny)),
        ("wall_s", Json::from(wall)),
        // Git commit, source digest and rustc version, from the wrapper.
        (
            "build",
            if args.provenance.starts_with('{') && args.provenance.ends_with('}') {
                Json::Raw(args.provenance.clone())
            } else {
                Json::Str(args.provenance.clone())
            },
        ),
    ]);
    println!("record: {provenance}");
    if let (true, Some(dir)) = (args.trace, &args.out_dir) {
        let path = format!(
            "{dir}/trace-{}-seed{}{}.json",
            args.workload,
            opts.seed,
            if opts.tiny { "-tiny" } else { "" }
        );
        let body = Json::obj([("record", provenance), ("trace", rec.to_json())]);
        if let Err(e) =
            std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, body.to_string()))
        {
            eprintln!("linkbench: writing {path}: {e}");
            std::process::exit(1);
        }
    }
    let result = Json::obj([
        ("correct", Json::Bool(gate.failed == 0)),
        ("attempted", Json::from(gate.attempted.max(1) as f64)),
        ("failed", Json::from(gate.failed as f64)),
        ("metrics", Json::obj(out)),
    ]);
    println!("{result}");
}
