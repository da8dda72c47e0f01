//! **LiveMux**: online incremental link aggregation, fused with the
//! session engines.
//!
//! [`crate::mux::mux_sessions`] multiplexes a fleet by pumping the
//! engine through an `Rc<RefCell<_>>` cursor layer into
//! [`smooth_netsim::RateSweep`]'s k-way merge: every rate change of
//! every session becomes an entry in a million-source breakpoint heap,
//! popped one at a time with a cold random walk over the per-session
//! builders. That is exact, but serial and allocation-heavy — the heap
//! alone is tens of megabytes of pointer-chased state, and the engine
//! must run in one-tick lockstep so the cursors can lazily pull.
//!
//! `LiveMux` inverts the flow. As each session's `decide_live` emits a
//! rate change during a (batched, shard-parallel) engine pass, the
//! change is recorded as a tiny *delta event* `(t, leaf, new_rate)`.
//! Ingestion then applies events in global time order to the canonical
//! [`SumTree`] pairwise-summation tree — an O(log S) leaf update per
//! event instead of a heap pop — advancing the exact fluid queue
//! ([`smooth_netsim::QueueState`], the *same* stepper the sweep uses)
//! across each interval between distinct event times. Nothing is ever
//! materialized: no [`smooth_metrics::StepFunction`] per source, no
//! per-source heap entry; resident state is O(S) lanes plus the tree.
//!
//! ### Why the bits still match the sweep oracle
//!
//! [`smooth_netsim::sweep_cursors`] closes an interval only when the
//! popped event time strictly exceeds the current time, and its
//! aggregate is the root of a [`SumTree`] whose value is a pure
//! function of the current leaves. So any schedule that (a) applies the
//! same set of `(t, leaf, value)` updates, (b) in globally
//! non-decreasing time order, (c) closing each interval *before*
//! applying the updates at its right endpoint, reads the same roots and
//! feeds the same `(agg, dt)` pairs to the same [`QueueState`] — bit
//! for bit. LiveMux guarantees (a) by replicating the exact streaming
//! builder `rate_segments ∘ StepFunction::from_segments` from
//! [`crate::mux`] (same `TIME_EPS` merge, same `1e-12` gap threshold),
//! (b) by only flushing events strictly below a **fence** no future
//! event can undercut (the minimum over per-session frontiers, capped
//! by the caller's clock), and (c) by sorting each flush on
//! `(t.to_bits(), leaf)` and applying equal-time groups atomically.
//!
//! ### Shard-parallel, thread-invariant
//!
//! Leaves are partitioned by a [`ShardPlan`] (fixed by session count,
//! never by worker count), one subtree per shard. Workers apply their
//! shard's events to the shard subtree and record a time-ordered run of
//! `(t, subtree_root)` pairs; a serial k-way merge then replays the
//! runs through the top levels of the tree. Because shard boundaries
//! coincide with subtree boundaries, the composed root is *the same
//! tree* the serial engine reads — the identical discipline (and
//! identity argument) as [`smooth_netsim::RateSweep::run_threaded`].
//!
//! ### Live (σ, ρ) descriptors
//!
//! Alongside the aggregate, each session's lane maintains the tightest
//! leaky-bucket envelope of its smoothed schedule over the measurement
//! window — [`TrafficDescriptor`]`{ sigma, rho }` for the configured
//! drain rate ρ — by running [`smooth_netsim::min_bucket_for`]'s exact
//! recurrence incrementally on its own breakpoints (same `1e-12` cut
//! dedup, same update order). A future admission controller reads
//! descriptors for free; the proptests pin them bit-identical to the
//! offline oracle.

use std::sync::Mutex;

use smooth_core::{PictureSchedule, RateSegment, TIME_EPS};
use smooth_netsim::{FluidMuxStats, QueueState, MUX_MAX_SHARDS};
use smooth_sweep::{par_map, ShardPlan, SumTree};

/// Whether `SMOOTH_MUX_PROF=1` hot-path profiling is on (checked once;
/// when off, the probe points cost nothing — not even a clock read).
pub(crate) fn prof_enabled() -> bool {
    static PROF: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *PROF.get_or_init(|| std::env::var_os("SMOOTH_MUX_PROF").is_some())
}

/// Configuration of a fused link-aggregation run: the link, the
/// measurement window, and the descriptor drain rate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MuxConfig {
    /// Output link capacity, bits/second.
    pub capacity_bps: f64,
    /// Link buffer size, bits.
    pub buffer_bits: f64,
    /// Start of the measurement window, seconds.
    pub t_start: f64,
    /// End of the measurement window, seconds.
    pub t_end: f64,
    /// Drain rate ρ for the per-session leaky-bucket descriptors,
    /// bits/second.
    pub descriptor_rho_bps: f64,
}

impl MuxConfig {
    /// Mirrors [`smooth_netsim::RateSweep`]'s and
    /// [`smooth_netsim::min_bucket_for`]'s parameter checks so the
    /// fused path rejects exactly what the oracle would.
    fn check(&self) {
        assert!(self.capacity_bps > 0.0, "capacity must be positive");
        assert!(self.buffer_bits >= 0.0, "buffer must be non-negative");
        assert!(self.descriptor_rho_bps > 0.0, "token rate must be positive");
        assert!(
            self.t_start.is_finite() && self.t_end.is_finite(),
            "window bounds must be finite"
        );
    }
}

/// The tightest leaky-bucket envelope of one session's smoothed
/// schedule over the measurement window: the schedule is (σ, ρ)-smooth,
/// i.e. a token bucket of depth σ draining at ρ never drops a bit of
/// it. σ is maintained incrementally, bit-identical to
/// [`smooth_netsim::min_bucket_for`] over the materialized schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrafficDescriptor {
    /// Bucket depth σ, bits.
    pub sigma: f64,
    /// Drain rate ρ, bits/second (the configured
    /// [`MuxConfig::descriptor_rho_bps`]).
    pub rho: f64,
}

/// Aggregate outcome of a fused fleet-to-link run: the exact fluid
/// queue stats (bit-identical to the [`smooth_netsim::RateSweep`]
/// oracle) plus the running peak of the link aggregate rate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LiveMuxStats {
    /// The fluid finite-buffer FIFO stats over the window.
    pub mux: FluidMuxStats,
    /// Peak aggregate input rate observed on any interval of the
    /// window, bits/second (0 over an empty window).
    pub peak_rate_bps: f64,
}

/// FNV-1a fingerprint of a fused run: the six queue stats, the peak,
/// then every session's (σ, ρ) bits in session-id order. The
/// machine-parsable determinism witness the CLI prints as
/// `mux_digest=`.
pub fn mux_digest(stats: &LiveMuxStats, descriptors: &[TrafficDescriptor]) -> u64 {
    let mut d = crate::FNV_OFFSET;
    for w in [
        stats.mux.arrived_bits,
        stats.mux.lost_bits,
        stats.mux.served_bits,
        stats.mux.final_queue_bits,
        stats.mux.max_queue_bits,
        stats.mux.utilization,
        stats.peak_rate_bps,
    ] {
        d = crate::fnv(d, w.to_bits());
    }
    for td in descriptors {
        d = crate::fnv(d, td.sigma.to_bits());
        d = crate::fnv(d, td.rho.to_bits());
    }
    d
}

/// One rate-change delta: session `leaf`'s rate becomes `v` at absolute
/// time `t`. 24 bytes; the only thing the fused path buffers.
#[derive(Debug, Clone, Copy)]
struct Event {
    t: f64,
    v: f64,
    leaf: u32,
}

/// Per-session streaming state: the exact builder replica (events out
/// instead of arrays), the join bookkeeping, and the incremental (σ, ρ)
/// recurrence.
#[derive(Debug, Clone)]
struct SessionLane {
    /// Whether the session has joined the mux (batch fleets join at
    /// construction; churn fleets via [`LiveMux::begin_session`]).
    joined: bool,
    /// Whether the stream has ended (builder flushed, final zero-rate
    /// event emitted, descriptor window closed).
    finished: bool,
    /// Absolute time of the session's local t = 0 (its join time).
    offset: f64,
    // --- builder: rate_segments ∘ from_segments, streaming ---
    has_prev: bool,
    /// End of the last raw (pre-merge) segment, local time.
    prev_end: f64,
    has_cur: bool,
    cur_start: f64,
    cur_end: f64,
    cur_rate: f64,
    /// Whether any breakpoint has been placed yet.
    started: bool,
    /// The dangling breakpoint: placed, but the value taking effect at
    /// it is not yet known (local time). The session's next event is at
    /// exactly `offset + last_break`.
    last_break: f64,
    // --- descriptor: min_bucket_for's recurrence, incremental ---
    /// Last retained cut (absolute time; starts at the window start).
    last_cut: f64,
    /// Rate in effect since `last_cut`.
    value: f64,
    /// Cumulative arrivals since the window start.
    cum: f64,
    g_min: f64,
    sigma: f64,
}

impl SessionLane {
    fn new(joined: bool, t_start: f64) -> Self {
        SessionLane {
            joined,
            finished: false,
            offset: 0.0,
            has_prev: false,
            prev_end: 0.0,
            has_cur: false,
            cur_start: 0.0,
            cur_end: 0.0,
            cur_rate: 0.0,
            started: false,
            last_break: 0.0,
            last_cut: t_start,
            value: 0.0,
            cum: 0.0,
            g_min: 0.0,
            sigma: 0.0,
        }
    }

    /// Earliest absolute time at which this lane can still emit an
    /// event; the ingestion fence is the fleet-wide minimum. Unjoined
    /// lanes don't bound the fence (the caller's clock cap covers
    /// future joins); finished lanes never emit again.
    fn frontier(&self) -> f64 {
        if !self.joined || self.finished {
            f64::INFINITY
        } else {
            self.offset + self.last_break
        }
    }

    /// One decision: `rate_segments`' zero-rate gap insertion, then its
    /// equal-rate merge — identical to the builder in [`crate::mux`].
    #[inline]
    fn decision(&mut self, cfg: &MuxConfig, d: &PictureSchedule, leaf: u32, out: &mut Vec<Event>) {
        // Hot path: a gapless decision at the current rate extends the
        // open merged segment (most decisions of a smoothed schedule
        // keep the rate) — one branch instead of the gap check plus the
        // merge check below, with identical state updates.
        if self.has_prev
            && self.has_cur
            && d.start <= self.prev_end + TIME_EPS
            && self.cur_rate == d.rate
            && (d.start - self.cur_end).abs() <= TIME_EPS
        {
            self.cur_end = d.depart;
            self.prev_end = d.depart;
            return;
        }
        if self.has_prev && d.start > self.prev_end + TIME_EPS {
            let gap = RateSegment {
                start: self.prev_end,
                end: d.start,
                rate: 0.0,
            };
            self.raw(cfg, gap, leaf, out);
        }
        self.raw(
            cfg,
            RateSegment {
                start: d.start,
                end: d.depart,
                rate: d.rate,
            },
            leaf,
            out,
        );
        self.has_prev = true;
        self.prev_end = d.depart;
    }

    fn raw(&mut self, cfg: &MuxConfig, seg: RateSegment, leaf: u32, out: &mut Vec<Event>) {
        if self.has_cur {
            if self.cur_rate == seg.rate && (seg.start - self.cur_end).abs() <= TIME_EPS {
                self.cur_end = seg.end;
                return;
            }
            let done = RateSegment {
                start: self.cur_start,
                end: self.cur_end,
                rate: self.cur_rate,
            };
            self.cur_start = seg.start;
            self.cur_end = seg.end;
            self.cur_rate = seg.rate;
            self.emit_seg(cfg, done, leaf, out);
        } else {
            self.has_cur = true;
            self.cur_start = seg.start;
            self.cur_end = seg.end;
            self.cur_rate = seg.rate;
        }
    }

    /// Streaming `StepFunction::from_segments`, emitting the stream's
    /// breakpoints as delta events with one-breakpoint deferral: a
    /// breakpoint is announced only once the value taking effect *at*
    /// it is known (the next segment's rate, a gap's zero, or the final
    /// zero at end of stream).
    fn emit_seg(&mut self, cfg: &MuxConfig, seg: RateSegment, leaf: u32, out: &mut Vec<Event>) {
        if !self.started {
            self.started = true;
            self.last_break = seg.start;
        }
        if seg.start > self.last_break + 1e-12 {
            let at = self.last_break;
            self.push_event(cfg, at, 0.0, leaf, out);
            self.last_break = seg.start;
        }
        if seg.end > self.last_break {
            let at = self.last_break;
            self.push_event(cfg, at, seg.rate, leaf, out);
            self.last_break = seg.end;
        }
    }

    /// End of stream: flush the pending merged segment, resolve the
    /// dangling breakpoint to zero (after the last piece the rate is
    /// 0), and close the descriptor window at `t_end`. A session that
    /// never decided anything contributes `StepFunction::zero`'s single
    /// `t = 0` event.
    fn finish(&mut self, cfg: &MuxConfig, leaf: u32, out: &mut Vec<Event>) {
        debug_assert!(self.joined && !self.finished);
        if self.has_cur {
            self.has_cur = false;
            let done = RateSegment {
                start: self.cur_start,
                end: self.cur_end,
                rate: self.cur_rate,
            };
            self.emit_seg(cfg, done, leaf, out);
        }
        if !self.started {
            self.started = true;
            self.last_break = 0.0;
        }
        let at = self.last_break;
        self.push_event(cfg, at, 0.0, leaf, out);
        // min_bucket_for's final cut is the window end itself, dropped
        // by the same 1e-12 dedup when the last kept cut crowds it.
        let t1 = cfg.t_end;
        if t1 - self.last_cut >= 1e-12 {
            self.cum += self.value * (t1 - self.last_cut);
            let g = self.cum - cfg.descriptor_rho_bps * (t1 - cfg.t_start);
            self.sigma = self.sigma.max(g - self.g_min);
            self.g_min = self.g_min.min(g);
            self.last_cut = t1;
        }
        self.finished = true;
    }

    /// Records one breakpoint: feed the descriptor recurrence, then
    /// buffer the delta event (the sweep oracle's heap only ever holds
    /// breakpoints below the window end, so later ones are dropped —
    /// their leaf value would never be observed).
    fn push_event(
        &mut self,
        cfg: &MuxConfig,
        t_local: f64,
        v: f64,
        leaf: u32,
        out: &mut Vec<Event>,
    ) {
        let t = self.offset + t_local;
        debug_assert!(t >= 0.0, "breakpoints are non-negative");
        self.descriptor_cut(cfg, t, v);
        if t < cfg.t_end {
            out.push(Event { t, v, leaf });
        }
    }

    /// [`smooth_netsim::min_bucket_for`]'s loop body, one cut at a
    /// time. Cuts outside the open window `(t_start, t_end)` are not
    /// cuts (they only set the rate in effect); a cut within `1e-12` of
    /// the last kept one is deduplicated exactly like the oracle's
    /// chained `dedup_by`.
    fn descriptor_cut(&mut self, cfg: &MuxConfig, t: f64, v: f64) {
        if t >= cfg.t_end {
            return;
        }
        if t <= cfg.t_start {
            self.value = v;
            return;
        }
        if t - self.last_cut < 1e-12 {
            self.value = v;
            return;
        }
        self.cum += self.value * (t - self.last_cut);
        let g = self.cum - cfg.descriptor_rho_bps * (t - cfg.t_start);
        self.sigma = self.sigma.max(g - self.g_min);
        self.g_min = self.g_min.min(g);
        self.last_cut = t;
        self.value = v;
    }
}

/// A contiguous run of session lanes plus their shared event buffer —
/// one block per engine shard, so the fused batch path writes events
/// with zero cross-thread contention.
#[derive(Debug)]
pub(crate) struct LaneBlock {
    cfg: MuxConfig,
    first_leaf: u32,
    lanes: Vec<SessionLane>,
    events: Vec<Event>,
}

impl LaneBlock {
    /// Feeds one decision of session `sid` (a global id) to its lane.
    #[inline]
    pub(crate) fn decision(&mut self, sid: u64, d: &PictureSchedule) {
        let leaf = u32::try_from(sid).expect("session id fits u32");
        let j = (leaf - self.first_leaf) as usize;
        self.lanes[j].decision(&self.cfg, d, leaf, &mut self.events);
    }

    /// Ends every still-open joined lane of the block (the batch path's
    /// end-of-stream, reached once per fused run).
    pub(crate) fn finish_lanes(&mut self) {
        for j in 0..self.lanes.len() {
            if self.lanes[j].joined && !self.lanes[j].finished {
                let leaf = self.first_leaf + j as u32;
                self.lanes[j].finish(&self.cfg, leaf, &mut self.events);
            }
        }
    }
}

/// One aggregation shard: the [`SumTree`] subtree over its leaf range,
/// events routed to it but still above the fence, and the time-ordered
/// `(t, subtree_root)` run of the current ingest pass.
#[derive(Debug)]
struct MuxShard {
    tree: SumTree,
    pending: Vec<Event>,
    /// Smallest and largest event times in `pending` (`INFINITY` /
    /// `NEG_INFINITY` when empty). A pass whose fence doesn't clear the
    /// minimum has nothing to flush and skips the partition/sort/apply
    /// work entirely — the common case mid-run, when one slow lane pins
    /// the fleet fence. A fence past the maximum flushes the buffer
    /// whole, without a partition pass.
    pending_min: f64,
    pending_max: f64,
    run: Vec<(f64, f64)>,
}

/// Opaque snapshot of a [`LiveMux`]'s full aggregation state — lanes,
/// shard subtrees, pending events, queue, clock — for mid-trace
/// checkpoint/restore alongside [`crate::EngineCheckpoint`].
#[derive(Debug, Clone)]
pub struct MuxCheckpoint {
    cfg: MuxConfig,
    sessions: usize,
    block_size: usize,
    lanes: Vec<SessionLane>,
    shards: Vec<(SumTree, Vec<Event>)>,
    top: SumTree,
    queue: QueueState,
    cur_t: f64,
    peak: f64,
}

/// The online link aggregator. See the module docs for the
/// architecture; see [`crate::SessionEngine::run_fused`] and
/// [`crate::DynamicEngine::run_trace_fused`] for the engine hookups.
pub struct LiveMux {
    cfg: MuxConfig,
    sessions: usize,
    block_size: usize,
    plan: ShardPlan,
    blocks: Vec<Mutex<LaneBlock>>,
    shards: Vec<Mutex<MuxShard>>,
    top: SumTree,
    queue: QueueState,
    /// Left edge of the next interval to close (starts at `t_start`).
    cur_t: f64,
    peak: f64,
    finalized: bool,
}

impl LiveMux {
    /// An aggregator for a fixed fleet of `sessions` sessions, all
    /// present from time 0 (the [`crate::SessionEngine`] batch case).
    /// `block_size` must match the engine's shard size so each engine
    /// shard owns exactly one lane block.
    pub fn new(sessions: usize, block_size: usize, cfg: MuxConfig) -> Self {
        Self::build(sessions, block_size, cfg, true)
    }

    /// An aggregator whose sessions join over time (the
    /// [`crate::DynamicEngine`] churn case): size it to the total
    /// number of session ids the trace will ever issue and announce
    /// each via [`begin_session`](Self::begin_session).
    pub fn with_joins(capacity: usize, block_size: usize, cfg: MuxConfig) -> Self {
        Self::build(capacity, block_size, cfg, false)
    }

    fn build(sessions: usize, block_size: usize, cfg: MuxConfig, joined: bool) -> Self {
        cfg.check();
        assert!(block_size > 0, "block size must be positive");
        assert!(
            u32::try_from(sessions).is_ok(),
            "session count must fit u32"
        );
        let plan = ShardPlan::new(sessions, MUX_MAX_SHARDS);
        let blocks = (0..sessions.div_ceil(block_size))
            .map(|b| {
                let lo = b * block_size;
                let hi = ((b + 1) * block_size).min(sessions);
                Mutex::new(LaneBlock {
                    cfg,
                    first_leaf: lo as u32,
                    lanes: (lo..hi)
                        .map(|_| SessionLane::new(joined, cfg.t_start))
                        .collect(),
                    events: Vec::new(),
                })
            })
            .collect();
        let shards = (0..plan.count)
            .map(|_| {
                Mutex::new(MuxShard {
                    tree: SumTree::new(plan.width),
                    pending: Vec::new(),
                    pending_min: f64::INFINITY,
                    pending_max: f64::NEG_INFINITY,
                    run: Vec::new(),
                })
            })
            .collect();
        LiveMux {
            cfg,
            sessions,
            block_size,
            plan,
            blocks,
            shards,
            top: SumTree::new(plan.count),
            queue: QueueState::new(),
            cur_t: cfg.t_start,
            peak: 0.0,
            finalized: false,
        }
    }

    /// Number of session lanes.
    pub fn session_count(&self) -> usize {
        self.sessions
    }

    /// Lanes per block (must equal the batch engine's shard size).
    pub fn block_size(&self) -> usize {
        self.block_size
    }

    /// The configuration the aggregator was built with.
    pub fn config(&self) -> MuxConfig {
        self.cfg
    }

    /// The current link aggregate rate (bits/second) as of the last
    /// ingested event — the live queryable an admission controller
    /// polls.
    pub fn aggregate_bps(&self) -> f64 {
        self.top.total()
    }

    /// Running peak of the aggregate rate over closed intervals so far.
    pub fn peak_bps(&self) -> f64 {
        self.peak
    }

    /// The lane block of engine shard `s` (the fused batch path locks
    /// engine shard and lane block pairwise).
    pub(crate) fn block(&self, s: usize) -> &Mutex<LaneBlock> {
        &self.blocks[s]
    }

    /// Marks session `sid` as joined at absolute time `offset_sec`
    /// (its decisions' local times are offset by this much).
    ///
    /// # Panics
    ///
    /// Panics if the session already joined.
    pub fn begin_session(&mut self, sid: u64, offset_sec: f64) {
        let lane = self.lane_mut(sid);
        assert!(!lane.joined, "session {sid} already joined");
        lane.joined = true;
        lane.offset = offset_sec;
    }

    /// Ends session `sid`'s stream: flushes its builder, emits its
    /// final zero-rate event, and closes its descriptor window.
    pub fn finish_session(&mut self, sid: u64) {
        let leaf = u32::try_from(sid).expect("session id fits u32");
        let b = leaf as usize / self.block_size;
        let block = self.blocks[b].get_mut().expect("unshared");
        let j = (leaf - block.first_leaf) as usize;
        let cfg = block.cfg;
        block.lanes[j].finish(&cfg, leaf, &mut block.events);
    }

    /// Feeds one decision of session `sid` directly (the churn path,
    /// where decisions are gathered per dynamic shard and applied in
    /// session order).
    pub fn push_decision(&mut self, sid: u64, d: &PictureSchedule) {
        let b = sid as usize / self.block_size;
        self.blocks[b].get_mut().expect("unshared").decision(sid, d);
    }

    /// Feeds one engine visit of session `sid` — its decisions, in
    /// order — through the lane-block mutex: one lock per visit, not
    /// one per decision. This is the dynamic fused path, where
    /// round-robin placement spreads a block's sessions over every
    /// engine shard, so any worker may feed any block. Per-session
    /// decision order is preserved (a session lives in exactly one
    /// shard, which visits it sequentially); cross-session interleaving
    /// in the buffer is irrelevant because [`ingest`](Self::ingest)
    /// orders by `(t, leaf)`.
    pub(crate) fn feed_visit(&self, sid: u64, decisions: &[PictureSchedule]) {
        if decisions.is_empty() {
            return;
        }
        let b = sid as usize / self.block_size;
        let mut block = self.blocks[b].lock().expect("block poisoned");
        for d in decisions {
            block.decision(sid, d);
        }
    }

    fn lane_mut(&mut self, sid: u64) -> &mut SessionLane {
        let b = sid as usize / self.block_size;
        let block = self.blocks[b].get_mut().expect("unshared");
        let j = sid as usize - block.first_leaf as usize;
        &mut block.lanes[j]
    }

    /// Applies every buffered event whose time is strictly below the
    /// fence — `clock_cap` (an upper bound on any *future* session's
    /// join-derived event times; `INFINITY` for fixed fleets) min'd
    /// with every live lane's frontier — to the summation tree in
    /// global `(t, leaf)` order, closing queue intervals as time
    /// advances. Thread-invariant: shard routing is fixed by the
    /// [`ShardPlan`], runs merge in shard order. Returns the number of
    /// events applied; zero means the fence didn't move past any
    /// buffered event, and the caller may relax its ingest cadence
    /// (see [`crate::SessionEngine::run_fused`]).
    pub fn ingest(&mut self, threads: usize, clock_cap: f64) -> u64 {
        let prof = prof_enabled();
        let t_all = prof.then(std::time::Instant::now);
        let mut fence = clock_cap;
        for blk in &self.blocks {
            let blk = blk.lock().expect("block poisoned");
            for lane in &blk.lanes {
                fence = fence.min(lane.frontier());
            }
        }

        let plan = self.plan;
        let block_size = self.block_size;
        let blocks = &self.blocks;
        let shards = &self.shards;
        let flushed = std::sync::atomic::AtomicU64::new(0);
        let fence_ns = t_all.map_or(0, |t| t.elapsed().as_nanos() as u64);
        let route_ns = std::sync::atomic::AtomicU64::new(0);
        let part_ns = std::sync::atomic::AtomicU64::new(0);
        let sort_ns = std::sync::atomic::AtomicU64::new(0);
        let apply_ns = std::sync::atomic::AtomicU64::new(0);
        // One closure per probe point: a no-op (no clock read at all)
        // unless profiling is on.
        let lap = |acc: &std::sync::atomic::AtomicU64, t0: &mut Option<std::time::Instant>| {
            if let Some(t) = t0 {
                acc.fetch_add(
                    t.elapsed().as_nanos() as u64,
                    std::sync::atomic::Ordering::Relaxed,
                );
                *t0 = prof.then(std::time::Instant::now);
            }
        };
        let idx: Vec<usize> = (0..plan.count).collect();
        par_map(threads, &idx, |_, &m| {
            let mut tp = prof.then(std::time::Instant::now);
            let mut shard = shards[m].lock().expect("shard poisoned");
            let lo = m * plan.width;
            let hi = lo + plan.width;
            // Route: pull this shard's events out of every overlapping
            // block buffer (wholly-contained blocks copy unfiltered),
            // tracking the pending time bounds as we go.
            let b0 = lo / block_size;
            let b1 = (hi - 1) / block_size;
            for (b, blk) in blocks.iter().enumerate().take(b1 + 1).skip(b0) {
                let blk = blk.lock().expect("block poisoned");
                if b * block_size >= lo && (b + 1) * block_size <= hi {
                    for e in &blk.events {
                        shard.pending_min = shard.pending_min.min(e.t);
                        shard.pending_max = shard.pending_max.max(e.t);
                    }
                    shard.pending.extend_from_slice(&blk.events);
                } else {
                    let (mut min, mut max) = (shard.pending_min, shard.pending_max);
                    shard.pending.extend(
                        blk.events
                            .iter()
                            .filter(|e| (e.leaf as usize) >= lo && (e.leaf as usize) < hi)
                            .inspect(|e| {
                                min = min.min(e.t);
                                max = max.max(e.t);
                            }),
                    );
                    shard.pending_min = min;
                    shard.pending_max = max;
                }
            }
            lap(&route_ns, &mut tp);
            shard.run.clear();
            // Nothing below the fence (an empty buffer's minimum is
            // +inf): the whole pass is a no-op for this shard — its
            // buffer just grows until the fence moves.
            if shard.pending_min >= fence {
                return;
            }
            // Flush below the fence: no event at or past it can be
            // undercut by anything a session emits later, so the
            // global time order across ingest passes is total. A fence
            // past everything (the usual end-of-run shape) takes the
            // buffer whole instead of partitioning it.
            let mut flush = if shard.pending_max < fence {
                shard.pending_min = f64::INFINITY;
                shard.pending_max = f64::NEG_INFINITY;
                std::mem::take(&mut shard.pending)
            } else {
                let mut kept_min = f64::INFINITY;
                let (flush, keep): (Vec<Event>, Vec<Event>) =
                    shard.pending.drain(..).partition(|e| {
                        if e.t < fence {
                            true
                        } else {
                            kept_min = kept_min.min(e.t);
                            false
                        }
                    });
                shard.pending = keep;
                shard.pending_min = kept_min;
                flush
            };
            flushed.fetch_add(flush.len() as u64, std::sync::atomic::Ordering::Relaxed);
            lap(&part_ns, &mut tp);
            // `(t.to_bits(), leaf)` packed into one integer: a single
            // branchless compare per sort step on the hottest loop of
            // the pass. `to_bits` order is `<` order here because event
            // times are non-negative.
            flush.sort_unstable_by_key(|e| ((e.t.to_bits() as u128) << 32) | e.leaf as u128);
            lap(&sort_ns, &mut tp);
            shard.run.reserve(flush.len());
            let mut i = 0;
            while i < flush.len() {
                let t = flush[i].t;
                while i < flush.len() && flush[i].t.to_bits() == t.to_bits() {
                    let e = flush[i];
                    shard.tree.set(e.leaf as usize - lo, e.v);
                    i += 1;
                }
                let root = shard.tree.total();
                shard.run.push((t, root));
            }
            lap(&apply_ns, &mut tp);
        });
        // Buffers may have been read by several shards; clear serially.
        for blk in &self.blocks {
            blk.lock().expect("block poisoned").events.clear();
        }
        let t_merge = prof.then(std::time::Instant::now);

        // Serial top merge: replay the shard runs in global time order
        // through the top of the tree, advancing the queue across each
        // interval exactly like the sweep's merge loop. The k-way merge
        // is a flat winner tree over the (at most [`MUX_MAX_SHARDS`])
        // runs — each step is log₂(shards) sequential min() nodes, a
        // fraction of a binary heap's pop-push churn on this hot loop.
        // Keys pack `(t.to_bits(), shard)` into a u128, so equal times
        // resolve in shard order, exactly like the old heap's tuples.
        let runs: Vec<Vec<(f64, f64)>> = self
            .shards
            .iter()
            .map(|s| std::mem::take(&mut s.lock().expect("shard poisoned").run))
            .collect();
        debug_assert!(runs.len() <= 128, "winner-tree keys pack a 7-bit shard");
        const DONE: u128 = u128::MAX;
        let key = |t: f64, m: usize| ((t.to_bits() as u128) << 7) | m as u128;
        let k2 = runs.len().next_power_of_two();
        let mut nodes_buf = vec![DONE; 2 * k2];
        // Length pinned symbolically to `2 * k2` so the level walks
        // below (`i / 2 < k2` implies `2 * (i / 2) + 1 < 2 * k2`) index
        // without per-level bounds checks.
        let nodes = &mut nodes_buf[..2 * k2];
        // Per-run tails advanced by `split_first` — the replay loop
        // below touches each entry exactly once, with no positional
        // re-indexing. Queue state lives in locals for the duration.
        let mut rem: Vec<&[(f64, f64)]> = runs.iter().map(|r| r.as_slice()).collect();
        for (m, run) in rem.iter().enumerate() {
            if let Some(&(t, _)) = run.first() {
                nodes[k2 + m] = key(t, m);
            }
        }
        for i in (1..k2).rev() {
            nodes[i] = nodes[2 * i].min(nodes[2 * i + 1]);
        }
        let mut cur_t = self.cur_t;
        let mut peak = self.peak;
        while nodes[1] != DONE {
            let m = (nodes[1] & 0x7F) as usize;
            let (&(t, root), tail) = rem[m].split_first().expect("non-empty keyed run");
            rem[m] = tail;
            if t > cur_t {
                let agg = self.top.total();
                self.queue
                    .advance(agg, t - cur_t, self.cfg.capacity_bps, self.cfg.buffer_bits);
                peak = peak.max(agg);
                cur_t = t;
            }
            self.top.set(m, root);
            let mut i = k2 + m;
            nodes[i] = match tail.first() {
                Some(&(next, _)) => key(next, m),
                None => DONE,
            };
            while i > 1 {
                i /= 2;
                nodes[i] = nodes[2 * i].min(nodes[2 * i + 1]);
            }
        }
        self.cur_t = cur_t;
        self.peak = peak;
        drop(rem);
        // Hand the (now empty) run vectors' capacity back to the shards.
        for (m, run) in runs.into_iter().enumerate() {
            let mut shard = self.shards[m].lock().expect("shard poisoned");
            shard.run = run;
            shard.run.clear();
        }
        if let (Some(t0), Some(tm)) = (t_all, t_merge) {
            eprintln!(
                "mux_prof: flushed={} fence={:.3}ms route={:.3}ms part={:.3}ms sort={:.3}ms apply={:.3}ms merge={:.3}ms total={:.3}ms",
                flushed.load(std::sync::atomic::Ordering::Relaxed),
                fence_ns as f64 / 1e6,
                route_ns.into_inner() as f64 / 1e6,
                part_ns.into_inner() as f64 / 1e6,
                sort_ns.into_inner() as f64 / 1e6,
                apply_ns.into_inner() as f64 / 1e6,
                tm.elapsed().as_secs_f64() * 1e3,
                t0.elapsed().as_secs_f64() * 1e3,
            );
        }
        flushed.into_inner()
    }

    /// Closes the final interval up to the window end and returns the
    /// run's stats. Every lane must be finished and every event
    /// ingested (call [`ingest`](Self::ingest) with an `INFINITY` cap
    /// after the engine finishes).
    pub fn finalize(&mut self) -> LiveMuxStats {
        assert!(!self.finalized, "finalize called twice");
        self.finalized = true;
        debug_assert!(
            self.shards
                .iter()
                .all(|s| s.lock().expect("shard poisoned").pending.is_empty()),
            "finalize with unflushed events"
        );
        if self.cfg.t_end > self.cur_t {
            let agg = self.top.total();
            self.queue.advance(
                agg,
                self.cfg.t_end - self.cur_t,
                self.cfg.capacity_bps,
                self.cfg.buffer_bits,
            );
            self.peak = self.peak.max(agg);
            self.cur_t = self.cfg.t_end;
        }
        LiveMuxStats {
            mux: self
                .queue
                .into_stats(self.cfg.capacity_bps, self.cfg.t_start, self.cfg.t_end),
            peak_rate_bps: self.peak,
        }
    }

    /// Session `sid`'s descriptor. σ is final once the lane finished;
    /// mid-run it covers the schedule ingested so far.
    pub fn descriptor(&self, sid: u64) -> TrafficDescriptor {
        let b = sid as usize / self.block_size;
        let block = self.blocks[b].lock().expect("block poisoned");
        let j = sid as usize - block.first_leaf as usize;
        TrafficDescriptor {
            sigma: block.lanes[j].sigma,
            rho: self.cfg.descriptor_rho_bps,
        }
    }

    /// Every session's descriptor, in session-id order.
    pub fn descriptors(&self) -> Vec<TrafficDescriptor> {
        let mut out = Vec::with_capacity(self.sessions);
        for blk in &self.blocks {
            let blk = blk.lock().expect("block poisoned");
            out.extend(blk.lanes.iter().map(|l| TrafficDescriptor {
                sigma: l.sigma,
                rho: self.cfg.descriptor_rho_bps,
            }));
        }
        out
    }

    /// Snapshots the full aggregation state. The lane blocks' event
    /// buffers must be drained first (any [`ingest`](Self::ingest)
    /// does that, whatever its fence — undrained *pending* events are
    /// captured).
    ///
    /// # Panics
    ///
    /// Panics if a lane block still buffers unrouted events.
    pub fn checkpoint(&self) -> MuxCheckpoint {
        for blk in &self.blocks {
            assert!(
                blk.lock().expect("block poisoned").events.is_empty(),
                "checkpoint with unrouted events; call ingest first"
            );
        }
        MuxCheckpoint {
            cfg: self.cfg,
            sessions: self.sessions,
            block_size: self.block_size,
            lanes: self
                .blocks
                .iter()
                .flat_map(|b| b.lock().expect("block poisoned").lanes.clone())
                .collect(),
            shards: self
                .shards
                .iter()
                .map(|s| {
                    let s = s.lock().expect("shard poisoned");
                    (s.tree.clone(), s.pending.clone())
                })
                .collect(),
            top: self.top.clone(),
            queue: self.queue,
            cur_t: self.cur_t,
            peak: self.peak,
        }
    }

    /// Rebuilds an aggregator from a [`checkpoint`](Self::checkpoint),
    /// bit-identical to the one that was snapshotted.
    pub fn restore(cp: &MuxCheckpoint) -> Self {
        let mut mux = Self::build(cp.sessions, cp.block_size, cp.cfg, false);
        for (lane, from) in mux
            .blocks
            .iter_mut()
            .flat_map(|b| b.get_mut().expect("unshared").lanes.iter_mut())
            .zip(&cp.lanes)
        {
            *lane = from.clone();
        }
        for (shard, (tree, pending)) in mux.shards.iter_mut().zip(&cp.shards) {
            let shard = shard.get_mut().expect("unshared");
            shard.tree = tree.clone();
            shard.pending = pending.clone();
            shard.pending_min = pending.iter().map(|e| e.t).fold(f64::INFINITY, f64::min);
            shard.pending_max = pending
                .iter()
                .map(|e| e.t)
                .fold(f64::NEG_INFINITY, f64::max);
        }
        mux.top = cp.top.clone();
        mux.queue = cp.queue;
        mux.cur_t = cp.cur_t;
        mux.peak = cp.peak;
        mux
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mux::{materialize_schedules, mux_sessions};
    use crate::{SessionClass, SessionEngine, SyntheticFleet};
    use smooth_core::SmootherParams;
    use smooth_metrics::StepFunction;
    use smooth_mpeg::GopPattern;
    use smooth_netsim::{min_bucket_for, sweep_cursors, RateSweep};

    fn fleet_setup(sessions: usize) -> (SessionEngine, SyntheticFleet) {
        let pattern = GopPattern::new(3, 9).unwrap();
        let class = SessionClass::new(SmootherParams::at_30fps(0.2, 1, 9).unwrap(), pattern);
        let mut engine = SessionEngine::with_shard_size(vec![class], 7);
        engine.add_sessions(0, sessions);
        (engine, SyntheticFleet { seed: 99, pattern })
    }

    fn cfg(capacity: f64, buffer: f64, a: f64, b: f64) -> MuxConfig {
        MuxConfig {
            capacity_bps: capacity,
            buffer_bits: buffer,
            t_start: a,
            t_end: b,
            descriptor_rho_bps: 1.5e6,
        }
    }

    fn assert_stats_bits_eq(got: &FluidMuxStats, want: &FluidMuxStats, what: &str) {
        for (name, x, y) in [
            ("arrived_bits", got.arrived_bits, want.arrived_bits),
            ("lost_bits", got.lost_bits, want.lost_bits),
            ("served_bits", got.served_bits, want.served_bits),
            (
                "final_queue_bits",
                got.final_queue_bits,
                want.final_queue_bits,
            ),
            ("max_queue_bits", got.max_queue_bits, want.max_queue_bits),
            ("utilization", got.utilization, want.utilization),
        ] {
            assert_eq!(x.to_bits(), y.to_bits(), "{what}: {name}: {x} vs {y}");
        }
    }

    /// The oracle triple for a window: sweep stats, interval-max peak,
    /// and per-session min_bucket_for sigmas over the materialized
    /// schedules.
    fn oracle(inputs: &[StepFunction], c: &MuxConfig) -> (FluidMuxStats, f64, Vec<f64>) {
        let sweep = RateSweep {
            capacity_bps: c.capacity_bps,
            buffer_bits: c.buffer_bits,
        };
        let stats = sweep.run(inputs, c.t_start, c.t_end);
        let mut peak = 0.0f64;
        let mut cursors: Vec<_> = inputs.iter().map(|f| f.cursor_at(c.t_start)).collect();
        sweep_cursors(
            &mut cursors,
            inputs.len(),
            c.t_start,
            c.t_end,
            |agg, _, _| {
                peak = peak.max(agg);
            },
        );
        let sigmas = inputs
            .iter()
            .map(|f| min_bucket_for(f, c.descriptor_rho_bps, c.t_start, c.t_end))
            .collect();
        (stats, peak, sigmas)
    }

    #[test]
    fn fused_batch_matches_sweep_oracle_bitwise() {
        for sessions in [1usize, 4, 23] {
            let (engine, fleet) = fleet_setup(sessions);
            let inputs = materialize_schedules(engine, fleet, 40);
            let t_end = inputs.iter().map(|f| f.domain_end()).fold(0.0, f64::max);
            for (a, b) in [(0.0, t_end), (0.3, 0.9), (-1.0, t_end + 1.0), (0.5, 0.5)] {
                let c = cfg(4.0e6 * sessions as f64, 0.5e6, a, b);
                let (want, want_peak, want_sigmas) = oracle(&inputs, &c);

                let (mut engine, fleet) = fleet_setup(sessions);
                let mut mux = LiveMux::new(sessions, 7, c);
                let got = engine.run_fused(&fleet, 40, 1, &mut mux).expect("fresh");
                assert_stats_bits_eq(&got.mux, &want, &format!("S={sessions} window [{a}, {b}]"));
                assert_eq!(got.peak_rate_bps.to_bits(), want_peak.to_bits());
                for (sid, want_sigma) in want_sigmas.iter().enumerate() {
                    let d = mux.descriptor(sid as u64);
                    assert_eq!(
                        d.sigma.to_bits(),
                        want_sigma.to_bits(),
                        "S={sessions} sid={sid} window [{a}, {b}]"
                    );
                    assert_eq!(d.rho, c.descriptor_rho_bps);
                }
            }
        }
    }

    #[test]
    fn fused_batch_matches_lazy_mux_sessions() {
        let c = cfg(40.0e6, 0.5e6, 0.0, 2.0);
        let sweep = RateSweep {
            capacity_bps: c.capacity_bps,
            buffer_bits: c.buffer_bits,
        };
        let (engine, fleet) = fleet_setup(23);
        let want = mux_sessions(engine, fleet, 40, &sweep, c.t_start, c.t_end).expect("fresh");
        let (mut engine, fleet) = fleet_setup(23);
        let mut mux = LiveMux::new(23, 7, c);
        let got = engine.run_fused(&fleet, 40, 1, &mut mux).expect("fresh");
        assert_stats_bits_eq(&got.mux, &want, "vs mux_sessions");
    }

    #[test]
    fn fused_run_is_thread_invariant() {
        let (engine, fleet) = fleet_setup(23);
        let inputs = materialize_schedules(engine, fleet, 30);
        let t_end = inputs.iter().map(|f| f.domain_end()).fold(0.0, f64::max);
        let c = cfg(30.0e6, 0.3e6, 0.0, t_end);
        let mut baseline = None;
        for threads in [1usize, 2, 5, 8] {
            let (mut engine, fleet) = fleet_setup(23);
            let mut mux = LiveMux::new(23, 7, c);
            let got = engine
                .run_fused(&fleet, 30, threads, &mut mux)
                .expect("fresh");
            let digest = mux_digest(&got, &mux.descriptors());
            match baseline {
                None => baseline = Some(digest),
                Some(d) => assert_eq!(d, digest, "threads={threads}"),
            }
        }
    }

    #[test]
    fn stale_engine_is_a_typed_error() {
        let (mut engine, fleet) = fleet_setup(3);
        engine.run(&fleet, 5, false, 1);
        let c = cfg(1.0e6, 0.0, 0.0, 1.0);
        let mut mux = LiveMux::new(3, 7, c);
        let err = engine.run_fused(&fleet, 5, 1, &mut mux).unwrap_err();
        assert_eq!(
            err,
            crate::EngineError::StaleEngine {
                ticks: 5,
                finished: false
            }
        );
    }

    #[test]
    fn checkpoint_restore_is_bit_identical() {
        let c = cfg(30.0e6, 0.3e6, 0.0, 2.0);
        // Uninterrupted run.
        let (mut engine, fleet) = fleet_setup(23);
        let mut mux = LiveMux::new(23, 7, c);
        let want = engine.run_fused(&fleet, 30, 1, &mut mux).expect("fresh");
        let want_digest = mux_digest(&want, &mux.descriptors());

        // Same run driven tick-by-tick with a checkpoint in the middle.
        let (mut engine, fleet) = fleet_setup(23);
        let mut mux = LiveMux::new(23, 7, c);
        for _ in 0..17 {
            engine.tick_serial_with(&fleet, &mut |sid, d| mux.push_decision(sid, d));
        }
        mux.ingest(1, f64::INFINITY);
        let cp = mux.checkpoint();
        let mut mux = LiveMux::restore(&cp);
        for _ in 17..30 {
            engine.tick_serial_with(&fleet, &mut |sid, d| mux.push_decision(sid, d));
        }
        engine.finish_serial_with(&fleet, &mut |sid, d| mux.push_decision(sid, d));
        for sid in 0..23 {
            mux.finish_session(sid);
        }
        mux.ingest(1, f64::INFINITY);
        let got = mux.finalize();
        assert_eq!(mux_digest(&got, &mux.descriptors()), want_digest);
    }

    #[test]
    fn zero_and_inverted_windows_give_zero_stats() {
        for (a, b) in [(1.0, 1.0), (2.0, 1.0)] {
            let (mut engine, fleet) = fleet_setup(4);
            let mut mux = LiveMux::new(4, 7, cfg(1.0e6, 0.1e6, a, b));
            let got = engine.run_fused(&fleet, 10, 1, &mut mux).expect("fresh");
            assert_eq!(got.mux.arrived_bits, 0.0);
            assert_eq!(got.mux.utilization, 0.0);
            assert!(!got.mux.utilization.is_nan());
            assert_eq!(got.peak_rate_bps, 0.0);
        }
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        LiveMux::new(1, 1, cfg(0.0, 0.0, 0.0, 1.0));
    }

    #[test]
    #[should_panic(expected = "token rate must be positive")]
    fn zero_rho_rejected() {
        let mut c = cfg(1.0, 0.0, 0.0, 1.0);
        c.descriptor_rho_bps = 0.0;
        LiveMux::new(1, 1, c);
    }
}
