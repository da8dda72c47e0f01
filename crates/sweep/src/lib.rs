//! Deterministic parallel sweep engine.
//!
//! The paper's evaluation (Figures 4–8, the multiplexing study, the
//! parameter ablations) is a grid of *independent* smoothing runs:
//! sequences × (D, K, H) × buffer sizes × source counts. This crate
//! expresses "run [`smooth_with`](smooth_core::smooth_with) over a grid"
//! as a parallel map with **deterministic, index-ordered result
//! collection**: output is byte-identical to a serial run regardless of
//! thread count or scheduling, because each job's result is placed by its
//! input index and nothing about a job depends on execution order.
//!
//! The executor is a scoped-thread work-stealing loop over
//! [`std::thread::scope`] rather than `rayon`: this build environment is
//! hermetic (no crates.io), so the dependency is vendored in spirit — the
//! API mirrors a `par_iter().map().collect()` at the one call shape the
//! workspace needs. Swapping the internals for rayon later only touches
//! [`par_map_with`] (which [`par_map`] and [`smooth_batch`] wrap).
//!
//! Thread-count resolution order: explicit argument, else a process-wide
//! override ([`set_default_threads`], what `--threads` flags set), else
//! the `SMOOTH_THREADS` environment variable, else all cores
//! ([`std::thread::available_parallelism`]).

// `unsafe` is denied everywhere except the one hand-declared
// `sched_setaffinity` FFI call in [`place`], which scopes an `allow`
// and documents its safety argument; nested unsafe operations always
// need their own block.
#![deny(unsafe_code)]
#![deny(unsafe_op_in_unsafe_fn)]

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use smooth_core::estimate::SizeEstimator;
use smooth_core::{
    smooth_with_scratch, RateSelection, SmoothScratch, Smoother, SmootherParams, SmoothingResult,
};
use smooth_trace::VideoTrace;

pub mod bench;
pub mod place;
pub mod reduce;

pub use place::{
    logical_cores, par_map_pinned, physical_cores, pin_current_thread, pinning_supported,
};
pub use reduce::{ShardPlan, SumTree};

/// Process-wide thread-count override; 0 means unset.
static GLOBAL_THREADS: AtomicUsize = AtomicUsize::new(0);

/// Sets (n > 0) or clears (n = 0) the process-wide default worker count.
/// Because sweep output is deterministic, changing this mid-process never
/// changes any result — only how fast it arrives.
pub fn set_default_threads(n: usize) {
    GLOBAL_THREADS.store(n, Ordering::Relaxed);
}

/// Default worker count: the [`set_default_threads`] override if set,
/// else `SMOOTH_THREADS` if set and positive, else all available cores.
pub fn default_threads() -> usize {
    resolve_threads_with_source(None).0
}

/// Resolves an optional user-facing thread request (`--threads`):
/// `None` or `Some(0)` mean "use the default".
pub fn resolve_threads(requested: Option<usize>) -> usize {
    resolve_threads_with_source(requested).0
}

/// Where a resolved worker count came from — recorded in
/// `BENCH_sweep.json` so a report can never claim a thread count the
/// machine does not explain (e.g. `threads: 2` next to
/// `available_cores: 1` with no hint that a flag forced it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ThreadSource {
    /// An explicit request (a `--threads` flag or API argument), including
    /// a [`set_default_threads`] override installed by a flag.
    Flag,
    /// The `SMOOTH_THREADS` environment variable.
    Env,
    /// [`std::thread::available_parallelism`] (or 1 if unknown).
    Cores,
}

impl ThreadSource {
    /// Stable lowercase label used in reports.
    pub fn as_str(self) -> &'static str {
        match self {
            ThreadSource::Flag => "flag",
            ThreadSource::Env => "env",
            ThreadSource::Cores => "cores",
        }
    }
}

/// [`resolve_threads`] plus the provenance of the returned count.
pub fn resolve_threads_with_source(requested: Option<usize>) -> (usize, ThreadSource) {
    if let Some(n) = requested {
        if n > 0 {
            return (n, ThreadSource::Flag);
        }
    }
    let global = GLOBAL_THREADS.load(Ordering::Relaxed);
    if global > 0 {
        return (global, ThreadSource::Flag);
    }
    if let Ok(v) = std::env::var("SMOOTH_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 {
                return (n, ThreadSource::Env);
            }
        }
    }
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    (cores, ThreadSource::Cores)
}

/// Applies `f` to every item and collects results **in input order**.
///
/// Work distribution is dynamic (an atomic cursor, so long jobs do not
/// stall a fixed chunk), but each result is stored at its item's index —
/// the output is identical to `items.iter().enumerate().map(f).collect()`
/// for any `threads`. With `threads <= 1` (or one item) it *is* that
/// serial loop, on the calling thread.
///
/// Panics in `f` propagate to the caller.
pub fn par_map<T, R, F>(threads: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    par_map_with(threads, items, || (), |_, i, t| f(i, t))
}

/// [`par_map`] with per-worker state: each worker calls `init` once and
/// threads the resulting value through every job it claims.
///
/// Determinism is unchanged — results are placed by input index, and the
/// contract on `f` is that its *output* must not depend on the state's
/// history (state is scratch memory, not an accumulator). This is the
/// hook [`smooth_batch`] uses to give every worker one reused
/// [`SmoothScratch`], so the per-picture hot path allocates nothing no
/// matter how jobs are distributed.
pub fn par_map_with<T, R, S, I, F>(threads: usize, items: &[T], init: I, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize, &T) -> R + Sync,
{
    let n = items.len();
    let workers = threads.max(1).min(n.max(1));
    if workers <= 1 {
        let mut state = init();
        return items
            .iter()
            .enumerate()
            .map(|(i, t)| f(&mut state, i, t))
            .collect();
    }

    let cursor = AtomicUsize::new(0);
    let buckets: Vec<Vec<(usize, R)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut state = init();
                    let mut local = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        local.push((i, f(&mut state, i, &items[i])));
                    }
                    local
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("sweep worker panicked"))
            .collect()
    });

    let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
    for bucket in buckets {
        for (i, r) in bucket {
            debug_assert!(slots[i].is_none(), "index {i} produced twice");
            slots[i] = Some(r);
        }
    }
    slots
        .into_iter()
        .map(|s| s.expect("every index is claimed exactly once"))
        .collect()
}

/// One cell of a smoothing sweep: a trace paired with parameters.
#[derive(Clone)]
pub struct SweepJob<'a> {
    pub trace: &'a VideoTrace,
    pub params: SmootherParams,
}

/// Runs [`smooth_with`](smooth_core::smooth_with) over explicit (trace,
/// params) jobs in parallel; results arrive in job order. Like
/// [`smooth_batch`], each worker reuses one [`SmoothScratch`] across its
/// jobs.
pub fn smooth_jobs(
    threads: usize,
    jobs: &[SweepJob<'_>],
    estimator: &(dyn SizeEstimator + Sync),
    selection: RateSelection,
) -> Vec<SmoothingResult> {
    par_map_with(threads, jobs, SmoothScratch::new, |scratch, _, job| {
        Smoother::new(job.trace, job.params, estimator, selection).run_with_scratch(scratch)
    })
}

/// Runs [`smooth_with`](smooth_core::smooth_with) over the full cross
/// product `traces × params`, row-major (all parameter points of
/// `traces[0]`, then `traces[1]`, ...).
pub fn smooth_grid(
    threads: usize,
    traces: &[&VideoTrace],
    params: &[SmootherParams],
    estimator: &(dyn SizeEstimator + Sync),
    selection: RateSelection,
) -> Vec<SmoothingResult> {
    let jobs: Vec<SweepJob<'_>> = traces
        .iter()
        .flat_map(|t| {
            params.iter().map(move |&p| SweepJob {
                trace: t,
                params: p,
            })
        })
        .collect();
    smooth_jobs(threads, &jobs, estimator, selection)
}

/// Aggregate throughput of one [`smooth_batch`] call.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchStats {
    /// Jobs executed.
    pub jobs: usize,
    /// Total pictures scheduled across all jobs.
    pub pictures: u64,
    /// Wall-clock seconds for the whole batch.
    pub wall_seconds: f64,
    /// Worker threads used.
    pub threads: usize,
}

impl BatchStats {
    /// Aggregate pictures scheduled per wall-clock second.
    pub fn pictures_per_sec(&self) -> f64 {
        if self.wall_seconds > 0.0 {
            self.pictures as f64 / self.wall_seconds
        } else {
            0.0
        }
    }
}

/// Smooths many (trace, params) jobs with the paper's defaults, sharding
/// across `threads` deterministic workers that each reuse one
/// [`SmoothScratch`], and reports aggregate throughput.
///
/// Results arrive in job order and are bit-identical for every thread
/// count (the `batch_is_thread_count_invariant` proptest pins this); only
/// [`BatchStats::wall_seconds`] varies between runs.
pub fn smooth_batch(threads: usize, jobs: &[SweepJob<'_>]) -> (Vec<SmoothingResult>, BatchStats) {
    let t0 = Instant::now();
    let results = par_map_with(threads, jobs, SmoothScratch::new, |scratch, _, job| {
        smooth_with_scratch(job.trace, job.params, scratch)
    });
    let stats = BatchStats {
        jobs: jobs.len(),
        pictures: jobs.iter().map(|j| j.trace.len() as u64).sum(),
        wall_seconds: t0.elapsed().as_secs_f64(),
        threads: threads.max(1),
    };
    (results, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use smooth_core::estimate::PatternEstimator;
    use smooth_mpeg::{GopPattern, PictureType, Resolution};

    fn trace(n: usize, seed: u64) -> VideoTrace {
        let pattern = GopPattern::new(3, 9).unwrap();
        let sizes: Vec<u64> = (0..n)
            .map(|i| match pattern.type_at(i) {
                PictureType::I => 180_000 + (i as u64 * 31 + seed) % 40_000,
                PictureType::P => 80_000 + (i as u64 * 17 + seed) % 20_000,
                PictureType::B => 16_000 + (i as u64 * 7 + seed) % 8_000,
            })
            .collect();
        VideoTrace::new("sweep-test", pattern, Resolution::VGA, 30.0, sizes).unwrap()
    }

    #[test]
    fn par_map_preserves_input_order() {
        let items: Vec<usize> = (0..100).collect();
        for threads in [1, 2, 3, 8, 64] {
            let out = par_map(threads, &items, |i, &x| {
                assert_eq!(i, x);
                x * x
            });
            assert_eq!(out, items.iter().map(|x| x * x).collect::<Vec<_>>());
        }
    }

    #[test]
    fn par_map_handles_empty_and_single() {
        let empty: Vec<u32> = vec![];
        assert!(par_map(8, &empty, |_, &x| x).is_empty());
        assert_eq!(par_map(8, &[7u32], |_, &x| x + 1), vec![8]);
    }

    #[test]
    fn grid_results_are_identical_across_thread_counts() {
        let t0 = trace(120, 1);
        let t1 = trace(120, 2);
        let traces = [&t0, &t1];
        let params: Vec<SmootherParams> = [(0.1, 1, 9), (0.2, 1, 9), (0.2, 3, 18)]
            .iter()
            .map(|&(d, k, h)| SmootherParams::at_30fps(d, k, h).unwrap())
            .collect();
        let est = PatternEstimator::default();

        let serial = smooth_grid(1, &traces, &params, &est, RateSelection::Basic);
        for threads in [2, 4, 16] {
            let parallel = smooth_grid(threads, &traces, &params, &est, RateSelection::Basic);
            assert_eq!(serial, parallel, "threads={threads}");
        }
        assert_eq!(serial.len(), traces.len() * params.len());
    }

    #[test]
    fn grid_is_row_major() {
        let t0 = trace(30, 1);
        let t1 = trace(30, 9);
        let params = [
            SmootherParams::at_30fps(0.1, 1, 9).unwrap(),
            SmootherParams::at_30fps(0.2, 1, 9).unwrap(),
        ];
        let est = PatternEstimator::default();
        let out = smooth_grid(4, &[&t0, &t1], &params, &est, RateSelection::Basic);
        assert_eq!(out[0].params, params[0]);
        assert_eq!(out[1].params, params[1]);
        // Rows 2,3 are the second trace: same params again, different data.
        assert_eq!(out[2].params, params[0]);
        assert_ne!(out[0].schedule, out[2].schedule);
    }

    #[test]
    fn resolve_threads_prefers_explicit() {
        assert_eq!(resolve_threads(Some(3)), 3);
        assert!(resolve_threads(None) >= 1);
        assert!(resolve_threads(Some(0)) >= 1);
    }

    #[test]
    fn resolve_threads_reports_source() {
        assert_eq!(
            resolve_threads_with_source(Some(3)),
            (3, ThreadSource::Flag)
        );
        let (n, src) = resolve_threads_with_source(None);
        assert!(n >= 1);
        // Without an explicit request the source is whatever the process
        // environment dictates — never Flag unless an override is set.
        if GLOBAL_THREADS.load(Ordering::Relaxed) == 0 {
            assert_ne!(src, ThreadSource::Flag);
        }
        assert_eq!(ThreadSource::Cores.as_str(), "cores");
        assert_eq!(ThreadSource::Env.as_str(), "env");
        assert_eq!(ThreadSource::Flag.as_str(), "flag");
    }

    #[test]
    fn par_map_with_reuses_state_within_worker() {
        let items: Vec<usize> = (0..50).collect();
        // State counts how many jobs this worker has run; output must not
        // depend on it (the contract), but we can observe reuse serially.
        let out = par_map_with(
            1,
            &items,
            || 0usize,
            |seen, i, &x| {
                *seen += 1;
                assert_eq!(*seen, i + 1, "serial worker sees every job");
                x * 2
            },
        );
        assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn batch_matches_smooth_jobs_for_any_thread_count() {
        let t0 = trace(120, 3);
        let t1 = trace(90, 8);
        let jobs: Vec<SweepJob<'_>> = [
            (&t0, SmootherParams::at_30fps(0.1, 1, 9).unwrap()),
            (&t1, SmootherParams::at_30fps(0.2, 1, 9).unwrap()),
            (&t0, SmootherParams::at_30fps(0.2, 3, 18).unwrap()),
        ]
        .into_iter()
        .map(|(trace, params)| SweepJob { trace, params })
        .collect();
        let est = PatternEstimator::default();
        let expected = smooth_jobs(1, &jobs, &est, RateSelection::Basic);
        for threads in [1, 2, 4] {
            let (got, stats) = smooth_batch(threads, &jobs);
            assert_eq!(got, expected, "threads={threads}");
            assert_eq!(stats.jobs, 3);
            assert_eq!(stats.pictures, 120 + 90 + 120);
            assert!(stats.pictures_per_sec() > 0.0);
        }
    }
}
