//! Event-driven dynamic session engine: timing-wheel ticks,
//! heterogeneous clocks, and live churn.
//!
//! The lockstep [`SessionEngine`](crate::SessionEngine) advances every
//! session on one shared picture clock — each tick costs O(sessions
//! live) even when most sessions have no picture due, and the fleet is
//! fixed at start. This module adds the event-driven path alongside it:
//!
//! * **Per-session clocks.** Time is an integer *scheduler tick* (a
//!   [`ChurnSpec::ticks_per_sec`](crate::synthetic::ChurnSpec) base
//!   clock — 600 ticks/s divides evenly by 24/25/30/60 fps). Each
//!   [`DynamicClass`] carries its picture period τ in ticks; each
//!   session carries its own next-deadline and re-arms a period after
//!   every arrival.
//! * **Timing-wheel scheduling.** Every shard owns a
//!   [`smooth_core::TimingWheel`] holding its sessions' next arrivals,
//!   so advancing the fleet to tick `t` costs O(sessions *due*), not
//!   O(sessions *live*): [`DynamicEngine::advance_to`] drains each
//!   shard's due slots in deadline order (the wheel's non-decreasing
//!   deadline contract) and decided sessions re-arm into the wheel.
//! * **Arrival batching.** Sessions re-arm every
//!   [`ARRIVAL_BATCH`]-th picture (configurable down to strict
//!   per-arrival cadence via [`DynamicEngine::set_arrival_batch`]) and
//!   a popped session is fed every arrival due in one visit — the
//!   lockstep engine's session-major amortization carried over to the
//!   wheel, which is what holds the per-decision cost near the lockstep
//!   path's instead of paying the full random-access toll per picture.
//!   Decisions and digests are invariant in the batch setting (a
//!   decision consults at most its own `need`-length prefix however
//!   many arrivals are in hand — the same property the lockstep batch
//!   path pins), and every API boundary still observes tick-exact
//!   state: `advance_to` flushes sub-batch tails before returning, and
//!   a leave catches its own session up first.
//! * **Live churn.** [`DynamicEngine::join`] and
//!   [`DynamicEngine::leave`] add and remove sessions mid-run. Shards
//!   keep the PR 6 compact struct-of-arrays store and recycle freed
//!   slots through a LIFO free list — the history ring slot is zeroed
//!   on reuse and the lookahead window reset, so a recycled slot is
//!   indistinguishable from a fresh one (pinned by proptests). Wheel
//!   entries of departed sessions die lazily via a per-slot generation
//!   counter.
//! * **Snapshot / restore.** [`DynamicEngine::snapshot`] captures one
//!   session's hot+cold state as a self-contained [`SessionSnapshot`];
//!   [`DynamicEngine::restore`] installs it into any engine with the
//!   same classes. [`DynamicEngine::rebalance`] migrates sessions
//!   between shards with it, and [`DynamicEngine::checkpoint`] /
//!   [`DynamicEngine::restore_checkpoint`] capture the whole fleet for
//!   crash recovery — all bit-identical to the uninterrupted run
//!   (the lookahead window rebuilds from retained history exactly;
//!   pinned by the churn proptests).
//!
//! **Determinism.** Sessions are independent state machines; shards are
//! advanced sequentially within [`drain`](DynShard) and fanned out with
//! index-ordered [`smooth_sweep::par_map`], and the fleet digest folds
//! per-session digests in session-id order — so a churn trace replays
//! bit-identically for any thread count, and against the brute-force
//! scan-all reference ([`crate::scanref`]), which is frozen as the
//! proptest oracle.

use std::collections::VecDeque;
use std::sync::Mutex;

use smooth_core::{
    decide_live, prunable_prefix, BlockLanes, LiveCursor, LiveParams, LookaheadWindow,
    PictureSchedule, SizeHistory, TimingWheel,
};
use smooth_sweep::par_map;

use crate::livemux::{LiveMux, LiveMuxStats};
use crate::synthetic::{ChurnEvent, ChurnTrace};
use crate::{fnv, ClassInfo, EngineError, SessionClass, SizeSource, FNV_OFFSET};

/// A session class bound to a picture period on the scheduler clock:
/// the event-driven analogue of handing a [`SessionClass`] to the
/// lockstep engine, plus the class's own τ in integer ticks (e.g. 25
/// ticks at 600 ticks/s for a 24 fps stream).
#[derive(Debug, Clone)]
pub struct DynamicClass {
    /// Smoother configuration shared by the class's sessions.
    pub class: SessionClass,
    /// Picture period τ in scheduler ticks (≥ 1).
    pub period_ticks: u64,
}

/// Scheduler ticks per simulated second used by the standard mixes and
/// the churn bench: 600 divides evenly by 24, 25, 30, and 60 fps, so
/// every broadcast picture clock lands on integer ticks.
pub const TICKS_PER_SEC: u64 = 600;

/// The standard class for an `fps` picture clock on the
/// [`TICKS_PER_SEC`] scheduler: the paper-recommended `D = 0.2 s`,
/// `K = 1`, `H = N` at `τ = 1/fps` on the (3, 12) GOP pattern.
///
/// # Panics
///
/// Panics if `fps` does not divide [`TICKS_PER_SEC`] (the mix helpers
/// exist for the broadcast clocks 24/25/30/60).
pub fn fps_class(fps: u64) -> DynamicClass {
    assert!(
        fps > 0 && TICKS_PER_SEC % fps == 0,
        "{fps} fps does not land on integer ticks at {TICKS_PER_SEC} ticks/s"
    );
    let pattern = smooth_mpeg::GopPattern::new(3, 12).expect("(3,12) is valid");
    let params = smooth_core::SmootherParams::new(0.2, 1, 12, 1.0 / fps as f64)
        .expect("0.2 s is feasible at every broadcast clock");
    DynamicClass {
        class: SessionClass::new(params, pattern),
        period_ticks: TICKS_PER_SEC / fps,
    }
}

/// Where a live session sits: shard index and shard-local slot.
/// `shard == u32::MAX` marks a departed (or migrating) session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Locator {
    shard: u32,
    slot: u32,
}

const GONE: Locator = Locator {
    shard: u32::MAX,
    slot: u32::MAX,
};

/// Free-slot sentinel in `class_of`.
const FREE: u16 = u16::MAX;

/// How many due-list entries ahead of the one being processed
/// [`drain_until`](DynShard::drain_until) pulls toward cache. Deep
/// enough to cover a line fill behind one arrival's work; past ~8 the
/// prefetched lines start aging out before use.
const PREFETCH_DUE: usize = 4;

/// Default arrival batch: sessions are armed on the wheel every
/// `ARRIVAL_BATCH`-th picture and fed the accumulated arrivals in one
/// visit (see [`DynamicEngine::set_arrival_batch`]). 16 keeps the
/// scheduling quantum sub-second on the broadcast clocks (0.27 s at
/// 60 fps to 0.67 s at 24 fps on the 600 tick/s grid)
/// while amortizing the per-visit slot walk far enough to clear the
/// churn throughput bar; digests are invariant in this knob (pinned by
/// the churn proptests), so it trades only *when* within a span a
/// decision is computed, never what is decided.
pub const ARRIVAL_BATCH: u64 = 16;

/// The trace replay's one cadence: half a simulated second. A
/// [`DynamicEngine::run_trace`] replay drains the fleet — one fan-out
/// over the shards — only when the next event tick lies more than a
/// span past the drained position, and
/// [`DynamicEngine::run_trace_fused`] ingests the buffered rate events
/// into [`LiveMux`] after each such drain. A 2-thread fan-out costs a
/// thread spawn and join, and an ingest pays an O(live sessions) fence
/// scan, so doing either at every event tick would swamp a churny
/// trace; half a second keeps the buffered-event footprint and each
/// leave's catch-up modest. The cadence is driven by trace time, never
/// by wall time or thread count, and no digest or mux bit depends on
/// it (see [`DynamicEngine::run_trace`]).
pub const MUX_INGEST_SPAN_TICKS: u64 = TICKS_PER_SEC / 2;

/// One session's complete smoother state, self-contained: everything
/// needed to continue its schedule bit-identically in another slot,
/// shard, or engine (same classes). The lookahead window is *not*
/// captured — it is a cache over the retained history and rebuilds
/// exactly (the same reset the compaction path relies on).
#[derive(Debug, Clone, PartialEq)]
pub struct SessionSnapshot {
    /// Engine-assigned session id.
    pub sid: u64,
    /// Size-source stream id (decoupled from `sid` so a replay engine
    /// can feed the same stream to a different session id).
    pub stream: u64,
    /// Class id.
    pub class: u16,
    /// Decisions already emitted (next undecided picture index).
    pub decided: u32,
    /// High-water mark of the visible prefix consulted so far.
    pub watermark: u32,
    /// Logical index of the first retained size.
    pub base: u32,
    /// Departure time of the last decided picture.
    pub depart: f64,
    /// Rate of the last decided picture (meaningful when `decided > 0`).
    pub prev_rate: f64,
    /// FNV-1a decision digest so far.
    pub digest: u64,
    /// Next not-yet-fed picture arrival, in scheduler ticks (snapshots
    /// are taken at tick-exact boundaries, so this is always past the
    /// capturing engine's position).
    pub next_arrival: u64,
    /// Retained history sizes (logical pictures `base ..`).
    pub history: Vec<u32>,
}

/// A whole-fleet checkpoint: the scheduler position, every live
/// session's [`SessionSnapshot`], and the digests of already-departed
/// sessions — enough to rebuild an engine that continues bit-identically
/// ([`DynamicEngine::restore_checkpoint`]).
#[derive(Debug, Clone, PartialEq)]
pub struct EngineCheckpoint {
    /// Scheduler position (ticks) at capture.
    pub now: u64,
    /// Session ids handed out so far.
    pub joined: u64,
    /// Total decisions made so far (so a recovered engine's
    /// [`decisions`](DynamicEngine::decisions) keeps counting from the
    /// interrupted run's total).
    pub decisions: u64,
    /// Live sessions, in session-id order.
    pub sessions: Vec<SessionSnapshot>,
    /// `(sid, digest)` of departed sessions, in session-id order.
    pub retired: Vec<(u64, u64)>,
}

/// One slot's complete per-event scalar state, packed into exactly one
/// cache line. The lockstep shard keeps these as parallel arrays and
/// streams them session-major, so the prefetcher hides the walks; the
/// wheel path visits slots in *deadline* order — effectively random
/// within the shard — and with parallel arrays every arrival paid ~9
/// scattered demand misses before any smoothing work started. One
/// 64-byte header turns those into a single line fill.
#[repr(C, align(64))]
struct SlotHot {
    decided: u32,
    watermark: u32,
    /// Logical index of the first retained size.
    base: u32,
    /// Bumped every time the slot is freed; a wheel item whose
    /// generation does not match is a departed session's stale entry
    /// (lazy delete).
    gen: u32,
    /// Retained history length.
    len: u16,
    /// Class id, or [`FREE`] for a recycled slot.
    class_of: u16,
    depart: f64,
    prev_rate: f64,
    digest: u64,
    /// Size-source stream id fed to [`SizeSource::size`].
    stream: u64,
    /// Next picture arrival of the slot's occupant, in ticks.
    next_arrival: u64,
}

/// The header must stay exactly one cache line — adding a field here
/// silently doubles the stride via the alignment, so fail loudly.
const _: () = assert!(std::mem::size_of::<SlotHot>() == 64);

impl SlotHot {
    fn fresh() -> Self {
        SlotHot {
            decided: 0,
            watermark: 0,
            base: 0,
            gen: 0,
            len: 0,
            class_of: FREE,
            depart: 0.0,
            prev_rate: 0.0,
            digest: FNV_OFFSET,
            stream: 0,
            next_arrival: 0,
        }
    }
}

/// One dynamic shard: the PR 6 compact store (one fixed `u32` ring slot
/// per session) with the per-slot scalars packed into a one-line
/// [`SlotHot`] header, extended with slot recycling and a per-shard
/// timing wheel. Slot `j`'s ring lives at `j * slot_cap` — every slot is
/// `slot_cap` (the widest class's `ring_cap`) so a freed slot can be
/// recycled by *any* class.
struct DynShard {
    /// Per-slot scalar headers, one cache line each.
    hot: Vec<SlotHot>,
    /// Engine session id of the slot's occupant (slots are recycled, so
    /// unlike the lockstep shard the id cannot be derived from `j`).
    /// Cold: only snapshots and diagnostics read it.
    sid: Vec<u64>,
    /// Flat history ring, one `slot_cap` slot per session.
    ring: Vec<u32>,
    windows: Vec<LookaheadWindow>,
    /// Recycled slots, LIFO.
    free: Vec<u32>,
    /// Per-shard arrival wheel; items pack `(gen << 32) | slot`.
    wheel: TimingWheel,
    /// `pop_due` scratch.
    due: Vec<u64>,
    /// Widened staging tail (see the lockstep `Shard`).
    stage: Vec<u64>,
    /// One visit's decisions, gathered for the fused mux feed.
    visit: Vec<PictureSchedule>,
    lanes: BlockLanes,
    decisions: u64,
    live: usize,
    slot_cap: usize,
}

impl DynShard {
    fn new(slot_cap: usize) -> Self {
        DynShard {
            hot: Vec::new(),
            sid: Vec::new(),
            ring: Vec::new(),
            windows: Vec::new(),
            free: Vec::new(),
            wheel: TimingWheel::new(),
            due: Vec::new(),
            stage: Vec::new(),
            visit: Vec::new(),
            lanes: BlockLanes::default(),
            decisions: 0,
            live: 0,
            slot_cap,
        }
    }

    /// Slots ever allocated (live + free) — the shard's resident
    /// footprint, which recycling keeps bounded by its peak occupancy.
    fn allocated(&self) -> usize {
        self.hot.len()
    }

    /// Grabs a slot: recycles from the free list (zeroing the history
    /// ring slot, so a recycled slot starts from the same bytes as a
    /// fresh one) or appends new arrays.
    fn alloc(&mut self) -> u32 {
        if let Some(slot) = self.free.pop() {
            let j = slot as usize;
            let off = j * self.slot_cap;
            self.ring[off..off + self.slot_cap].fill(0);
            slot
        } else {
            let j = self.allocated();
            self.hot.push(SlotHot::fresh());
            self.sid.push(0);
            self.ring.resize(self.ring.len() + self.slot_cap, 0);
            self.windows.push(LookaheadWindow::new());
            u32::try_from(j).expect("shard slot fits u32")
        }
    }

    /// Installs a fresh session into an allocated slot, with its first
    /// arrival at `first_arrival` and its wheel entry armed at `arm`
    /// (the batch boundary `first_arrival + (batch − 1) · τ`).
    fn install(
        &mut self,
        slot: u32,
        sid: u64,
        stream: u64,
        class_id: u16,
        first_arrival: u64,
        arm: u64,
    ) {
        let j = slot as usize;
        let h = &mut self.hot[j];
        debug_assert_eq!(h.class_of, FREE, "installing into an occupied slot");
        // The generation survives the reset — it is the lazy-delete
        // witness for wheel items armed by previous occupants.
        let gen = h.gen;
        *h = SlotHot::fresh();
        h.gen = gen;
        h.class_of = class_id;
        h.stream = stream;
        h.next_arrival = first_arrival;
        self.sid[j] = sid;
        self.windows[j].reset();
        self.live += 1;
        self.wheel
            .schedule(arm, (u64::from(gen) << 32) | u64::from(slot));
    }

    /// Installs a snapshot into an allocated slot: scalars and retained
    /// history are copied back verbatim; the lookahead window rebuilds
    /// from that history (exactly — the compaction-reset property), so
    /// the continued schedule is bit-identical.
    fn install_snapshot(&mut self, slot: u32, snap: &SessionSnapshot, arm: u64) {
        let j = slot as usize;
        let off = j * self.slot_cap;
        let h = &mut self.hot[j];
        debug_assert_eq!(h.class_of, FREE, "installing into an occupied slot");
        h.class_of = snap.class;
        h.stream = snap.stream;
        h.decided = snap.decided;
        h.len = snap.history.len() as u16;
        h.watermark = snap.watermark;
        h.depart = snap.depart;
        h.prev_rate = snap.prev_rate;
        h.digest = snap.digest;
        h.base = snap.base;
        h.next_arrival = snap.next_arrival;
        let gen = h.gen;
        self.sid[j] = snap.sid;
        self.ring[off..off + snap.history.len()].copy_from_slice(&snap.history);
        self.windows[j].reset();
        self.live += 1;
        self.wheel
            .schedule(arm, (u64::from(gen) << 32) | u64::from(slot));
    }

    /// Captures slot `j` as a [`SessionSnapshot`].
    fn snapshot_slot(&self, j: usize) -> SessionSnapshot {
        let h = &self.hot[j];
        debug_assert_ne!(h.class_of, FREE, "snapshot of a free slot");
        let off = j * self.slot_cap;
        let len = h.len as usize;
        SessionSnapshot {
            sid: self.sid[j],
            stream: h.stream,
            class: h.class_of,
            decided: h.decided,
            watermark: h.watermark,
            base: h.base,
            depart: h.depart,
            prev_rate: h.prev_rate,
            digest: h.digest,
            next_arrival: h.next_arrival,
            history: self.ring[off..off + len].to_vec(),
        }
    }

    /// Frees slot `j`: bumps the generation (the slot's pending wheel
    /// item dies lazily) and pushes it onto the free list.
    fn free_slot(&mut self, j: usize) {
        let h = &mut self.hot[j];
        debug_assert_ne!(h.class_of, FREE, "double free");
        h.class_of = FREE;
        h.gen = h.gen.wrapping_add(1);
        self.live -= 1;
        self.free.push(j as u32);
    }

    /// Runs slot `j` through `pushes` picture arrivals plus, when
    /// `ended` is set, the end-of-stream drain — mirroring the lockstep
    /// `Shard::run_session` body exactly (same staging, same push/decide
    /// interleave, same forced and lazy prune, same digest fold), so a
    /// dynamic session's schedule is bit-identical to a lockstep session
    /// fed the same sizes — for *any* split of its arrivals into visits:
    /// `decide_live` caps what a decision may consult at the decision's
    /// own `need`, never at everything pushed, so feeding a batch of
    /// arrivals decides exactly what feeding them one visit apiece would
    /// (the property the lockstep engine's batch path already pins).
    /// With a fused aggregator, the visit's decisions are gathered in
    /// order and handed to the session's mux lane in one
    /// [`LiveMux::feed_visit`] — one lane-block lock per visit, not one
    /// per decision. Returns the decisions made.
    fn step_slot<S: SizeSource>(
        &mut self,
        j: usize,
        classes: &[ClassInfo],
        source: &S,
        pushes: u64,
        ended: bool,
        mux: Option<&LiveMux>,
    ) -> u64 {
        let h = &self.hot[j];
        let info = &classes[h.class_of as usize];
        let off = j * self.slot_cap;
        let cap = info.ring_cap;
        let n = info.class.pattern.n();
        let stream = h.stream;
        let sid = self.sid[j];

        let mut cursor = LiveCursor {
            decided: h.decided as usize,
            depart: h.depart,
            prev_rate: if h.decided > 0 {
                Some(h.prev_rate)
            } else {
                None
            },
            watermark: h.watermark as usize,
        };
        let mut base = h.base as usize;
        let mut len = h.len as usize;
        let mut digest = h.digest;
        let mut made = 0u64;
        self.visit.clear();

        self.stage.clear();
        self.stage
            .extend(self.ring[off..off + len].iter().map(|&s| u64::from(s)));

        let cfg = LiveParams {
            params: &info.class.params,
            pattern: info.class.pattern,
            estimator: &info.class.estimator,
            selection: info.class.selection,
            total: None,
        };

        let steps = pushes + u64::from(ended);
        for t in 0..steps {
            let live = t < pushes;
            if live {
                if len == cap {
                    let cut = prunable_prefix(&cursor, Some(info.hist), n);
                    let drop = cut.saturating_sub(base);
                    assert!(
                        drop > 0,
                        "session {} history slot full ({cap} sizes) with nothing prunable",
                        self.sid[j]
                    );
                    self.ring.copy_within(off + drop..off + len, off);
                    self.stage.copy_within(drop..len, 0);
                    len -= drop;
                    self.stage.truncate(len);
                    base = cut;
                    self.windows[j].reset();
                }
                let size = source.size(stream, (base + len) as u64);
                self.ring[off + len] = u32::try_from(size).unwrap_or_else(|_| {
                    panic!("picture size {size} bits exceeds the engine's u32 size word")
                });
                self.stage.push(size);
                len += 1;
            }
            let tail_drain = !live;
            loop {
                let history = SizeHistory {
                    base,
                    tail: &self.stage[..len],
                };
                let Some(decision) = decide_live(
                    &cfg,
                    history,
                    tail_drain,
                    &mut cursor,
                    &mut self.windows[j],
                    &mut self.lanes,
                ) else {
                    break;
                };
                digest = fnv(digest, decision.index as u64);
                digest = fnv(digest, decision.start.to_bits());
                digest = fnv(digest, decision.rate.to_bits());
                digest = fnv(digest, decision.depart.to_bits());
                if mux.is_some() {
                    self.visit.push(decision);
                }
                made += 1;
            }

            // Lazy prune, as in the lockstep path.
            let cut = prunable_prefix(&cursor, Some(info.hist), n);
            let drop = cut.saturating_sub(base);
            if drop > 0 && drop >= len / 2 {
                self.ring.copy_within(off + drop..off + len, off);
                self.stage.copy_within(drop..len, 0);
                len -= drop;
                self.stage.truncate(len);
                base = cut;
                self.windows[j].reset();
            }
        }

        let h = &mut self.hot[j];
        h.decided = u32::try_from(cursor.decided).expect("picture index fits u32");
        h.watermark = u32::try_from(cursor.watermark).expect("watermark fits u32");
        h.base = u32::try_from(base).expect("history base fits u32");
        h.len = len as u16;
        h.depart = cursor.depart;
        if let Some(r) = cursor.prev_rate {
            h.prev_rate = r;
        }
        h.digest = digest;
        if let Some(m) = mux {
            m.feed_visit(sid, &self.visit);
        }
        made
    }

    /// Ends slot `j`'s stream: feeds its not-yet-fed arrivals up to and
    /// including tick `until` (batched visits leave up to `batch − 1`
    /// outstanding, and a trace replay's span drains up to a span),
    /// drains the tail decisions, records the final digest, and frees
    /// the slot. Returns the digest.
    fn retire<S: SizeSource>(
        &mut self,
        j: usize,
        classes: &[ClassInfo],
        periods: &[u64],
        source: &S,
        until: u64,
        mux: Option<&LiveMux>,
    ) -> u64 {
        let h = &self.hot[j];
        let na = h.next_arrival;
        let period = periods[h.class_of as usize];
        let pushes = if na <= until {
            (until - na) / period + 1
        } else {
            0
        };
        let made = self.step_slot(j, classes, source, pushes, true, mux);
        self.decisions += made;
        let digest = self.hot[j].digest;
        self.free_slot(j);
        digest
    }

    /// Pulls slot `j`'s working set toward cache while an earlier due
    /// slot is still being processed: the one-line scalar header, the
    /// head of its history ring, and the window's heap buffer (the
    /// lockstep shard's `prefetch` counterpart, but keyed by the due
    /// list — deadline order is effectively random slot order, so
    /// without this every arrival stalls on serial demand misses).
    #[inline(always)]
    fn prefetch_slot(&self, j: usize) {
        if let Some(h) = self.hot.get(j) {
            std::hint::black_box(h.decided);
            std::hint::black_box(self.ring.get(j * self.slot_cap).copied());
            self.windows[j].prewarm();
        }
    }

    /// Drains every wheel entry with deadline ≤ `until` in deadline
    /// order: a popped session is fed all of its arrivals up to the
    /// entry's deadline in one visit (up to `batch` of them — see
    /// [`DynamicEngine::set_arrival_batch`]) and re-armed `batch`
    /// arrivals out. The wheel yields deadlines non-decreasing; within a
    /// deadline, due slots are sorted ascending — sessions are
    /// independent, so this order changes no digest bit, but consecutive
    /// slots keep the store's streaming locality (churn bursts place
    /// whole runs of slots on one phase).
    fn drain_until<S: SizeSource>(
        &mut self,
        classes: &[ClassInfo],
        periods: &[u64],
        source: &S,
        until: u64,
        batch: u64,
        mux: Option<&LiveMux>,
    ) {
        let mut due = std::mem::take(&mut self.due);
        loop {
            due.clear();
            let Some(deadline) = self.wheel.pop_due(until, &mut due) else {
                break;
            };
            due.sort_unstable_by_key(|&item| item & 0xffff_ffff);
            for (k, &item) in due.iter().enumerate() {
                if let Some(&ahead) = due.get(k + PREFETCH_DUE) {
                    self.prefetch_slot((ahead & 0xffff_ffff) as usize);
                }
                let j = (item & 0xffff_ffff) as usize;
                let g = (item >> 32) as u32;
                if self.hot[j].class_of == FREE || self.hot[j].gen != g {
                    continue; // stale entry of a departed session
                }
                let period = periods[self.hot[j].class_of as usize];
                let na = self.hot[j].next_arrival;
                if na > deadline {
                    // A flush already fed past this entry's deadline;
                    // fall back onto the session's batch cadence.
                    self.wheel.schedule(na + (batch - 1) * period, item);
                    continue;
                }
                debug_assert_eq!(
                    (deadline - na) % period,
                    0,
                    "wheel deadline off the session's arrival grid"
                );
                let pushes = (deadline - na) / period + 1;
                let made = self.step_slot(j, classes, source, pushes, false, mux);
                self.decisions += made;
                self.hot[j].next_arrival = deadline + period;
                self.wheel.schedule(deadline + batch * period, item);
            }
        }
        self.due = due;
    }

    /// Feeds every live slot's outstanding arrivals up to and including
    /// tick `until`, in slot order (streaming — the lockstep access
    /// pattern). Wheel entries are left armed; a later pop whose
    /// deadline this flush overtook re-arms without feeding. Together
    /// with [`drain_until`](Self::drain_until) this makes a span exact:
    /// drain feeds whole batches as they come due, flush feeds each
    /// session's sub-batch tail.
    fn flush_until<S: SizeSource>(
        &mut self,
        classes: &[ClassInfo],
        periods: &[u64],
        source: &S,
        until: u64,
        mux: Option<&LiveMux>,
    ) {
        for j in 0..self.allocated() {
            self.prefetch_slot(j + 1);
            let h = &self.hot[j];
            if h.class_of == FREE {
                continue;
            }
            let na = h.next_arrival;
            if na > until {
                continue;
            }
            let period = periods[h.class_of as usize];
            let pushes = (until - na) / period + 1;
            let made = self.step_slot(j, classes, source, pushes, false, mux);
            self.decisions += made;
            self.hot[j].next_arrival = na + pushes * period;
        }
    }

    /// End-of-run drain of every live slot, in slot order (sessions are
    /// independent; digests fold by session id at the engine).
    fn finish_all<S: SizeSource>(
        &mut self,
        classes: &[ClassInfo],
        source: &S,
        mux: Option<&LiveMux>,
    ) {
        for j in 0..self.allocated() {
            if self.hot[j].class_of != FREE {
                self.prefetch_slot(j + 1);
                let made = self.step_slot(j, classes, source, 0, true, mux);
                self.decisions += made;
            }
        }
    }
}

/// The event-driven session engine: heterogeneous per-class picture
/// clocks, timing-wheel scheduling (per-tick work O(sessions due)), and
/// live join/leave with slot recycling. Lives alongside the lockstep
/// [`SessionEngine`](crate::SessionEngine); both drive the same
/// [`smooth_core::decide_live`] core, so a session's schedule depends
/// only on its stream and class, never on which engine ran it.
///
/// ```
/// use smooth_core::SmootherParams;
/// use smooth_engine::{DynamicClass, DynamicEngine, SessionClass, SyntheticFleet};
/// use smooth_mpeg::GopPattern;
///
/// let pattern = GopPattern::new(3, 9).unwrap();
/// let class = DynamicClass {
///     class: SessionClass::new(SmootherParams::recommended(9), pattern),
///     period_ticks: 20, // 30 fps on the 600 ticks/s clock
/// };
/// let fleet = SyntheticFleet { seed: 7, pattern };
/// let mut engine = DynamicEngine::new(vec![class], 100, 16).unwrap();
/// let a = engine.join(0, 42, 0).unwrap(); // stream 42, phase 0
/// engine.advance_to(&fleet, 1200, 1); // two seconds
/// engine.leave(a, &fleet).unwrap(); // final digest recorded
/// assert!(engine.decisions() >= 60);
/// ```
pub struct DynamicEngine {
    classes: Vec<ClassInfo>,
    periods: Vec<u64>,
    shards: Vec<Mutex<DynShard>>,
    shard_size: usize,
    capacity: usize,
    slot_cap: usize,
    now: u64,
    live: usize,
    /// Arrivals fed per wheel visit ([`set_arrival_batch`]
    /// (Self::set_arrival_batch)).
    batch: u64,
    /// Slot of each session ever joined, by sid ([`GONE`] once departed).
    locator: Vec<Locator>,
    /// Final digest of each departed session, by sid (live sessions'
    /// digests are read from their slots).
    digests: Vec<u64>,
    /// Decisions counted by the engine this one was recovered from.
    recovered_decisions: u64,
    /// Round-robin placement cursor (deterministic).
    rr: usize,
    /// Parallel passes over the shards ([`fan_outs`](Self::fan_outs)).
    fan_outs: u64,
    ended: bool,
}

/// How far one [`fan_out`](DynamicEngine::fan_out) pass takes each
/// shard; each variant includes the ones before it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Pass {
    /// Feed whole arrival batches as they come due; sub-batch tails stay
    /// outstanding (each session's `next_arrival` tracks what was fed).
    Drain,
    /// Then feed every session's sub-batch tail: tick-exact state, what
    /// every public API boundary observes.
    Settle,
    /// Then end every live session's stream.
    Finish,
}

impl DynamicEngine {
    /// An engine over `classes` with room for `capacity` concurrent
    /// sessions in shards of `shard_size`. Validates every compact-store
    /// width ([`EngineError`]) plus the per-class periods.
    pub fn new(
        classes: Vec<DynamicClass>,
        capacity: usize,
        shard_size: usize,
    ) -> Result<Self, EngineError> {
        if classes.is_empty() {
            return Err(EngineError::NoClasses);
        }
        if shard_size == 0 {
            return Err(EngineError::ZeroShardSize);
        }
        if capacity == 0 {
            return Err(EngineError::ZeroCapacity);
        }
        if classes.len() > 1 << 16 {
            return Err(EngineError::TooManyClasses {
                classes: classes.len(),
            });
        }
        let mut infos = Vec::with_capacity(classes.len());
        let mut periods = Vec::with_capacity(classes.len());
        for (i, c) in classes.into_iter().enumerate() {
            if c.period_ticks == 0 {
                return Err(EngineError::ZeroPeriod { class: i });
            }
            periods.push(c.period_ticks);
            infos.push(ClassInfo::try_new(c.class)?);
        }
        // Every slot is the widest class's ring_cap so recycling works
        // across classes.
        let slot_cap = infos.iter().map(|c| c.ring_cap).max().expect("non-empty");
        let shard_count = capacity.div_ceil(shard_size);
        let shards = (0..shard_count)
            .map(|_| Mutex::new(DynShard::new(slot_cap)))
            .collect();
        Ok(DynamicEngine {
            classes: infos,
            periods,
            shards,
            shard_size,
            capacity,
            slot_cap,
            now: 0,
            live: 0,
            batch: ARRIVAL_BATCH,
            locator: Vec::new(),
            digests: Vec::new(),
            recovered_decisions: 0,
            rr: 0,
            fan_outs: 0,
            ended: false,
        })
    }

    /// Scheduler position, in ticks.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Arrivals fed per wheel visit (the scheduling quantum).
    pub fn arrival_batch(&self) -> u64 {
        self.batch
    }

    /// Sets how many arrivals a session accumulates between wheel
    /// visits: sessions re-arm every `batch`-th picture, a popped
    /// session is fed everything due in one visit, and every API
    /// boundary ([`advance_to`](Self::advance_to) return, [`leave`]
    /// (Self::leave), snapshots, digests) still observes tick-exact
    /// state. Decisions and digests are invariant in this knob
    /// ([`decide_live`] caps each decision at its own `need`, so batch
    /// splits cannot change what is decided — the churn proptests pin
    /// this); it only sets how much per-slot work each visit amortizes.
    /// `1` recovers the strict one-arrival-per-visit cadence.
    ///
    /// # Panics
    ///
    /// Panics if `batch` is 0 or over 2²⁰ (keeping batch-deadline
    /// arithmetic far from `u64` wraparound).
    pub fn set_arrival_batch(&mut self, batch: u64) {
        assert!(
            batch > 0 && batch <= 1 << 20,
            "arrival batch must be in 1 ..= 2^20"
        );
        self.batch = batch;
    }

    /// Live session count.
    pub fn live_sessions(&self) -> usize {
        self.live
    }

    /// Session ids handed out so far (live + departed).
    pub fn joined(&self) -> u64 {
        self.locator.len() as u64
    }

    /// Concurrent-session capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Whether [`finish`](Self::finish) has run.
    pub fn is_finished(&self) -> bool {
        self.ended
    }

    /// Total picture decisions made across all sessions ever —
    /// including, after a [`restore_checkpoint`]
    /// (Self::restore_checkpoint), the interrupted run's count.
    pub fn decisions(&self) -> u64 {
        self.recovered_decisions
            + self
                .shards
                .iter()
                .map(|s| s.lock().expect("shard poisoned").decisions)
                .sum::<u64>()
    }

    /// Session slots resident across all shards (live + recycled). The
    /// free list bounds this by each shard's *peak* occupancy — churn
    /// reuses slots instead of growing the arrays, the bounded-memory
    /// property the churn proptests assert.
    pub fn allocated_slots(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("shard poisoned").allocated())
            .sum()
    }

    /// Resident array bytes per session slot under the dynamic compact
    /// layout: the one-cache-line scalar header, the cold session id,
    /// and the uniform `u32` history slot (`slot_cap` — the widest
    /// class's `ring_cap`, so any class can recycle any slot).
    pub fn state_bytes_per_slot(&self) -> usize {
        use std::mem::size_of;
        size_of::<SlotHot>() + size_of::<u64>() + size_of::<u32>() * self.slot_cap
    }

    /// Peak retained history length across live sessions (diagnostics).
    pub fn max_retained(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                let sh = s.lock().expect("shard poisoned");
                sh.hot
                    .iter()
                    .filter(|h| h.class_of != FREE)
                    .map(|h| h.len as usize)
                    .max()
                    .unwrap_or(0)
            })
            .max()
            .unwrap_or(0)
    }

    /// Live sessions per shard (diagnostics / rebalance tests).
    pub fn shard_loads(&self) -> Vec<usize> {
        self.shards
            .iter()
            .map(|s| s.lock().expect("shard poisoned").live)
            .collect()
    }

    /// Deterministic round-robin placement: the next shard (from the
    /// cursor) with a free slot. Placement is a pure function of the
    /// join/leave history, never of thread count.
    fn place(&mut self) -> Result<(usize, u32), EngineError> {
        if self.live >= self.capacity {
            return Err(EngineError::CapacityExhausted {
                capacity: self.capacity,
            });
        }
        let n = self.shards.len();
        for k in 0..n {
            let s = (self.rr + k) % n;
            let shard = self.shards[s].get_mut().expect("shard poisoned");
            if shard.live < self.shard_size {
                self.rr = (s + 1) % n;
                let slot = shard.alloc();
                return Ok((s, slot));
            }
        }
        unreachable!("live < capacity implies a shard has room");
    }

    /// Joins a new session of `class_id` reading stream `stream`, at the
    /// current scheduler position. Its first picture arrives `1 + phase
    /// mod τ` ticks from now and every τ ticks after. Returns the
    /// engine-assigned session id.
    pub fn join(&mut self, class_id: usize, stream: u64, phase: u64) -> Result<u64, EngineError> {
        self.join_at(self.now, class_id, stream, phase)
    }

    /// [`join`](Self::join) at trace tick `t`, which may run ahead of
    /// the drained position: the session is armed relative to `t`, and
    /// placement reads only live counts, so nothing is drained first.
    fn join_at(
        &mut self,
        t: u64,
        class_id: usize,
        stream: u64,
        phase: u64,
    ) -> Result<u64, EngineError> {
        assert!(!self.ended, "join after finish");
        if class_id >= self.classes.len() {
            return Err(EngineError::UnknownClass { class: class_id });
        }
        let (s, slot) = self.place()?;
        let sid = self.locator.len() as u64;
        let period = self.periods[class_id];
        let first = t + 1 + (phase % period);
        self.shards[s].get_mut().expect("shard poisoned").install(
            slot,
            sid,
            stream,
            class_id as u16,
            first,
            first + (self.batch - 1) * period,
        );
        self.locator.push(Locator {
            shard: s as u32,
            slot,
        });
        self.digests.push(FNV_OFFSET);
        self.live += 1;
        Ok(sid)
    }

    /// Departs session `sid` at the current scheduler position: feeds
    /// its arrivals up to the position (batched visits may have left a
    /// sub-batch tail outstanding), drains its tail decisions
    /// (end-of-stream), records its final digest, and recycles its slot.
    pub fn leave<S: SizeSource>(&mut self, sid: u64, source: &S) -> Result<(), EngineError> {
        self.leave_at(sid, self.now, source, None)
    }

    /// The mirror of [`join_at`](Self::join_at): departs session `sid`
    /// once its arrivals up to and including tick `until` are fed.
    /// `until` may run ahead of the drained position — the session
    /// catches itself up from its own `next_arrival`, whatever the wheel
    /// has not fed yet, and its pending wheel item goes stale with the
    /// slot's generation. With a fused aggregator, the catch-up and tail
    /// decisions stream into the session's mux lane before the caller
    /// closes it.
    fn leave_at<S: SizeSource>(
        &mut self,
        sid: u64,
        until: u64,
        source: &S,
        mux: Option<&LiveMux>,
    ) -> Result<(), EngineError> {
        assert!(!self.ended, "leave after finish");
        let loc = *self
            .locator
            .get(sid as usize)
            .ok_or(EngineError::UnknownSession { sid })?;
        if loc == GONE {
            return Err(EngineError::UnknownSession { sid });
        }
        let digest = self.shards[loc.shard as usize]
            .get_mut()
            .expect("shard poisoned")
            .retire(
                loc.slot as usize,
                &self.classes,
                &self.periods,
                source,
                until,
                mux,
            );
        self.digests[sid as usize] = digest;
        self.locator[sid as usize] = GONE;
        self.live -= 1;
        Ok(())
    }

    /// Advances the fleet to tick `until`: every shard drains its due
    /// wheel entries in deadline order (whole arrival batches) and then
    /// feeds each session's sub-batch tail, fanned over `threads`
    /// workers (bit-identical for any thread count — shards are disjoint
    /// and collected in index order). On return every arrival ≤ `until`
    /// is decided, whatever the batch setting.
    pub fn advance_to<S: SizeSource>(&mut self, source: &S, until: u64, threads: usize) {
        self.fan_out(source, until, threads, Pass::Settle, None);
    }

    /// Ends every live session's stream and drains the tail decisions.
    /// Slots are kept (digests stay readable); the engine only reports
    /// afterwards.
    pub fn finish<S: SizeSource>(&mut self, source: &S, threads: usize) {
        assert!(!self.ended, "finish twice");
        self.fan_out(source, self.now, threads, Pass::Finish, None);
    }

    /// The engine's one fan-out point: every shard, on `threads`
    /// workers, drains its due wheel entries up to `until` and then goes
    /// as far as `pass` says. Shards are disjoint and collected in index
    /// order, so the outcome is bit-identical for any thread count.
    /// Counted by [`fan_outs`](Self::fan_outs).
    fn fan_out<S: SizeSource>(
        &mut self,
        source: &S,
        until: u64,
        threads: usize,
        pass: Pass,
        mux: Option<&LiveMux>,
    ) {
        assert!(!self.ended, "advance after finish");
        assert!(until >= self.now, "scheduler time runs forward");
        let classes = &self.classes;
        let periods = &self.periods;
        let batch = self.batch;
        let shards = &self.shards;
        let idx: Vec<usize> = (0..shards.len()).collect();
        par_map(threads, &idx, |_, &s| {
            let mut shard = shards[s].lock().expect("shard poisoned");
            shard.drain_until(classes, periods, source, until, batch, mux);
            if pass >= Pass::Settle {
                shard.flush_until(classes, periods, source, until, mux);
            }
            if pass == Pass::Finish {
                shard.finish_all(classes, source, mux);
            }
        });
        self.fan_outs += 1;
        self.now = until;
        self.ended = pass == Pass::Finish;
    }

    /// Engine fan-out passes since construction: one per parallel pass
    /// over the shards — a span drain inside a trace replay, an
    /// [`advance_to`](Self::advance_to), a [`finish`](Self::finish).
    /// A function of the calls and the trace alone, never of the thread
    /// count. A [`run_trace`](Self::run_trace) over `H` ticks makes at
    /// most ⌈H / [`MUX_INGEST_SPAN_TICKS`]⌉ + 1 of them, however many
    /// distinct event ticks the trace has.
    pub fn fan_outs(&self) -> u64 {
        self.fan_outs
    }

    /// Replays a [`ChurnTrace`]: at each event tick, joins and leaves
    /// apply in trace order *before* that tick's arrivals (the scan
    /// reference follows the same rule); finally the fleet advances to
    /// the trace horizon. Returns the decisions made.
    ///
    /// The replay keeps two positions apart: the *trace* position (the
    /// tick of the event being applied) and the *drained* position
    /// [`now`](Self::now), which lags it by up to one
    /// [`MUX_INGEST_SPAN_TICKS`] span. The fleet is drained — one
    /// fan-out over the shards — only when the next event tick is more
    /// than a span past the drained position, not at every event tick.
    /// Nothing else needs the drain: a join is armed relative to its own
    /// tick and placed by live counts; a leave at tick `t` catches its
    /// own session up through `t − 1`; a recycled slot's old wheel item
    /// is stale by its generation tag; and sessions never interact. So
    /// digests are those of a tick-by-tick replay — pinned against the
    /// frozen scan-all reference ([`crate::scanref`]) by the churn
    /// proptests.
    pub fn run_trace<S: SizeSource>(
        &mut self,
        source: &S,
        trace: &ChurnTrace,
        threads: usize,
    ) -> Result<u64, EngineError> {
        self.replay(source, trace, threads, None)
    }

    /// [`run_trace`](Self::run_trace) fused with a [`LiveMux`]: every
    /// decision streams into its session's mux lane — one lane-block
    /// lock per session visit ([`LiveMux::feed_visit`]) — a join opens
    /// its lane at the session's first-arrival time on the scheduler
    /// clock, a leave closes it, and after each span drain the buffered
    /// rate events are ingested into the summation tree. The wheel drain
    /// and the link aggregation advance together, with no materialized
    /// schedules and no end-of-run mux pass over the fleet. The mux bits
    /// do not depend on when ingests happen (the fence argument in
    /// [`crate::livemux`]), so the span cadence is free to follow the
    /// drain.
    ///
    /// The engine and `mux` must agree on the fleet: a fresh engine
    /// with a [`LiveMux::with_joins`] aggregator sized to every session
    /// id the trace will issue, or an engine/mux pair restored from
    /// matching checkpoints ([`checkpoint`](Self::checkpoint) /
    /// [`LiveMux::checkpoint`]) taken at the same trace position.
    /// Call [`finish_fused`](Self::finish_fused) after the final trace
    /// to end still-live sessions and read the stats. Digests and mux
    /// bits are invariant in `threads`.
    ///
    /// Returns the decisions made, like [`run_trace`](Self::run_trace).
    pub fn run_trace_fused<S: SizeSource>(
        &mut self,
        source: &S,
        trace: &ChurnTrace,
        threads: usize,
        mux: &mut LiveMux,
    ) -> Result<u64, EngineError> {
        self.replay(source, trace, threads, Some(mux))
    }

    /// The one replay loop behind [`run_trace`](Self::run_trace) and
    /// [`run_trace_fused`](Self::run_trace_fused); see their docs.
    fn replay<S: SizeSource>(
        &mut self,
        source: &S,
        trace: &ChurnTrace,
        threads: usize,
        mut mux: Option<&mut LiveMux>,
    ) -> Result<u64, EngineError> {
        let before = self.decisions();
        for &(t, event) in &trace.events {
            if t > self.now + MUX_INGEST_SPAN_TICKS {
                self.fan_out(source, t - 1, threads, Pass::Drain, mux.as_deref());
                if let Some(m) = mux.as_deref_mut() {
                    m.ingest(threads, self.mux_clock_cap());
                }
            }
            match event {
                ChurnEvent::Join {
                    class,
                    stream,
                    phase,
                } => {
                    let sid = self.join_at(t, class as usize, stream, phase)?;
                    if let Some(m) = mux.as_deref_mut() {
                        // The lane's local t = 0 is the session's first
                        // picture arrival on the scheduler clock.
                        let first = t + 1 + (phase % self.periods[class as usize]);
                        m.begin_session(sid, first as f64 / TICKS_PER_SEC as f64);
                    }
                }
                ChurnEvent::Leave { sid } => {
                    self.leave_at(sid, t.saturating_sub(1), source, mux.as_deref())?;
                    if let Some(m) = mux.as_deref_mut() {
                        m.finish_session(sid);
                    }
                }
            }
        }
        self.fan_out(source, trace.horizon, threads, Pass::Settle, mux.as_deref());
        if let Some(m) = mux {
            m.ingest(threads, self.mux_clock_cap());
        }
        Ok(self.decisions() - before)
    }

    /// Ends the fused run: settles sub-batch tails, drains every live
    /// session's end-of-stream decisions into the mux, closes their
    /// lanes, ingests everything, and finalizes the aggregate — the
    /// fused counterpart of [`finish`](Self::finish) +
    /// [`LiveMux::finalize`].
    pub fn finish_fused<S: SizeSource>(
        &mut self,
        source: &S,
        threads: usize,
        mux: &mut LiveMux,
    ) -> LiveMuxStats {
        assert!(!self.ended, "finish twice");
        self.fan_out(source, self.now, threads, Pass::Finish, Some(mux));
        for (sid, loc) in self.locator.iter().enumerate() {
            if *loc != GONE {
                mux.finish_session(sid as u64);
            }
        }
        mux.ingest(threads, f64::INFINITY);
        mux.finalize()
    }

    /// An upper bound on the event times any *future* join can emit: a
    /// join at tick `t > now` has its first arrival at `t + 1 > now +
    /// 1`, so its lane's events sit strictly past `(now + 1)` ticks —
    /// safe as the [`LiveMux::ingest`] clock cap (events *at* the cap
    /// are not flushed).
    fn mux_clock_cap(&self) -> f64 {
        (self.now + 1) as f64 / TICKS_PER_SEC as f64
    }

    /// Per-session decision digests by session id — departed sessions
    /// report their final digest, live sessions their digest so far.
    pub fn session_digests(&self) -> Vec<u64> {
        let mut out = self.digests.clone();
        for shard in &self.shards {
            let sh = shard.lock().expect("shard poisoned");
            for (j, h) in sh.hot.iter().enumerate() {
                if h.class_of != FREE {
                    out[sh.sid[j] as usize] = h.digest;
                }
            }
        }
        out
    }

    /// One FNV-1a fingerprint over every session's digest in session-id
    /// order — the determinism witness the churn proptests compare
    /// across thread counts and against the scan reference.
    pub fn digest(&self) -> u64 {
        let mut d = FNV_OFFSET;
        for x in self.session_digests() {
            d = fnv(d, x);
        }
        d
    }

    /// Captures session `sid`'s complete state.
    pub fn snapshot(&self, sid: u64) -> Result<SessionSnapshot, EngineError> {
        let loc = *self
            .locator
            .get(sid as usize)
            .ok_or(EngineError::UnknownSession { sid })?;
        if loc == GONE {
            return Err(EngineError::UnknownSession { sid });
        }
        let sh = self.shards[loc.shard as usize]
            .lock()
            .expect("shard poisoned");
        Ok(sh.snapshot_slot(loc.slot as usize))
    }

    /// Removes session `sid` *without* ending its stream (migration,
    /// not departure) and returns its state; [`restore`](Self::restore)
    /// re-installs it here or in another engine with the same classes.
    pub fn take(&mut self, sid: u64) -> Result<SessionSnapshot, EngineError> {
        let loc = *self
            .locator
            .get(sid as usize)
            .ok_or(EngineError::UnknownSession { sid })?;
        if loc == GONE {
            return Err(EngineError::UnknownSession { sid });
        }
        let sh = self.shards[loc.shard as usize]
            .get_mut()
            .expect("shard poisoned");
        let snap = sh.snapshot_slot(loc.slot as usize);
        sh.free_slot(loc.slot as usize);
        self.locator[sid as usize] = GONE;
        self.live -= 1;
        Ok(snap)
    }

    /// Re-installs a snapshot (from [`take`](Self::take) or a
    /// checkpoint). The continued schedule is bit-identical to never
    /// having moved the session.
    pub fn restore(&mut self, snap: SessionSnapshot) -> Result<(), EngineError> {
        assert!(!self.ended, "restore after finish");
        let class = snap.class as usize;
        if class >= self.classes.len() {
            return Err(EngineError::UnknownClass { class });
        }
        let ring_cap = self.classes[class].ring_cap;
        if snap.history.len() > ring_cap {
            return Err(EngineError::SnapshotHistoryTooLong {
                len: snap.history.len(),
                ring_cap,
            });
        }
        let sid = snap.sid as usize;
        if self.locator.len() <= sid {
            self.locator.resize(sid + 1, GONE);
            self.digests.resize(sid + 1, FNV_OFFSET);
        }
        if self.locator[sid] != GONE {
            return Err(EngineError::UnknownSession { sid: snap.sid });
        }
        let (s, slot) = self.place()?;
        let arm = snap.next_arrival + (self.batch - 1) * self.periods[class];
        self.shards[s]
            .get_mut()
            .expect("shard poisoned")
            .install_snapshot(slot, &snap, arm);
        self.locator[sid] = Locator {
            shard: s as u32,
            slot,
        };
        self.live += 1;
        Ok(())
    }

    /// Evens the shard loads by migrating sessions (snapshot out of
    /// overloaded shards in slot order, re-install into underloaded ones
    /// in shard order — deterministic). Returns the sessions moved.
    /// Digests are unchanged: migration is [`take`](Self::take) +
    /// [`restore`](Self::restore), which is bit-identical.
    pub fn rebalance(&mut self) -> usize {
        let n = self.shards.len();
        if n == 0 || self.live == 0 {
            return 0;
        }
        let q = self.live / n;
        let r = self.live % n;
        let mut moved: VecDeque<SessionSnapshot> = VecDeque::new();
        for i in 0..n {
            let target = q + usize::from(i < r);
            let sh = self.shards[i].get_mut().expect("shard poisoned");
            let mut excess = sh.live.saturating_sub(target);
            let mut j = 0;
            while excess > 0 {
                if sh.hot[j].class_of != FREE {
                    let snap = sh.snapshot_slot(j);
                    sh.free_slot(j);
                    self.locator[snap.sid as usize] = GONE;
                    moved.push_back(snap);
                    excess -= 1;
                }
                j += 1;
            }
        }
        let count = moved.len();
        self.live -= count;
        for i in 0..n {
            let target = q + usize::from(i < r);
            while {
                let sh = self.shards[i].get_mut().expect("shard poisoned");
                sh.live < target && !moved.is_empty()
            } {
                let snap = moved.pop_front().expect("checked non-empty");
                let arm = snap.next_arrival + (self.batch - 1) * self.periods[snap.class as usize];
                let sh = self.shards[i].get_mut().expect("shard poisoned");
                let slot = sh.alloc();
                sh.install_snapshot(slot, &snap, arm);
                self.locator[snap.sid as usize] = Locator {
                    shard: i as u32,
                    slot,
                };
                self.live += 1;
            }
        }
        debug_assert!(moved.is_empty(), "every migrated session re-installed");
        count
    }

    /// Captures the whole fleet: scheduler position, every live
    /// session, and departed sessions' digests —
    /// [`restore_checkpoint`](Self::restore_checkpoint) rebuilds an
    /// engine that continues bit-identically (crash recovery).
    pub fn checkpoint(&self) -> EngineCheckpoint {
        let mut sessions = Vec::with_capacity(self.live);
        let mut retired = Vec::new();
        for (sid, loc) in self.locator.iter().enumerate() {
            if *loc == GONE {
                retired.push((sid as u64, self.digests[sid]));
            } else {
                let sh = self.shards[loc.shard as usize]
                    .lock()
                    .expect("shard poisoned");
                sessions.push(sh.snapshot_slot(loc.slot as usize));
            }
        }
        EngineCheckpoint {
            now: self.now,
            joined: self.joined(),
            decisions: self.decisions(),
            sessions,
            retired,
        }
    }

    /// Rebuilds an engine from a checkpoint. `classes`, `capacity`, and
    /// `shard_size` must match the captured engine's configuration;
    /// continuing the same trace from here yields the same digests as
    /// the uninterrupted run (pinned by the churn tests).
    pub fn restore_checkpoint(
        classes: Vec<DynamicClass>,
        capacity: usize,
        shard_size: usize,
        cp: &EngineCheckpoint,
    ) -> Result<Self, EngineError> {
        let mut engine = Self::new(classes, capacity, shard_size)?;
        engine.now = cp.now;
        engine.recovered_decisions = cp.decisions;
        // Fast-forward every (empty) shard wheel to the checkpoint
        // position — O(1) while empty.
        let mut scratch = Vec::new();
        for s in &mut engine.shards {
            let sh = s.get_mut().expect("shard poisoned");
            let _ = sh.wheel.pop_due(cp.now, &mut scratch);
        }
        engine.locator = vec![GONE; cp.joined as usize];
        engine.digests = vec![FNV_OFFSET; cp.joined as usize];
        for &(sid, digest) in &cp.retired {
            engine.digests[sid as usize] = digest;
        }
        for snap in &cp.sessions {
            engine.restore(snap.clone())?;
        }
        Ok(engine)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic::SyntheticFleet;
    use smooth_core::{OnlineSmoother, SmootherParams};
    use smooth_mpeg::GopPattern;

    fn test_class(period_ticks: u64) -> DynamicClass {
        let pattern = GopPattern::new(3, 9).unwrap();
        DynamicClass {
            class: SessionClass::new(SmootherParams::recommended(9), pattern),
            period_ticks,
        }
    }

    fn fleet() -> SyntheticFleet {
        SyntheticFleet {
            seed: 7,
            pattern: GopPattern::new(3, 9).unwrap(),
        }
    }

    /// A dynamic session's decisions match a dedicated OnlineSmoother
    /// fed the same sizes — same digest fold as the engine.
    #[test]
    fn matches_online_smoother() {
        let src = fleet();
        let mut engine = DynamicEngine::new(vec![test_class(20)], 10, 4).unwrap();
        let sid = engine.join(0, 3, 5).unwrap();
        engine.advance_to(&src, 2000, 1);
        engine.leave(sid, &src).unwrap();
        // Pictures fed: arrivals at 6, 26, 46, … ≤ 2000 → 100 pictures.
        let pushed = (2000 - 6) / 20 + 1;
        let class = test_class(20);
        let mut online = OnlineSmoother::new(class.class.params, class.class.pattern);
        let mut digest = FNV_OFFSET;
        let mut fold = |d: &smooth_core::PictureSchedule| {
            digest = fnv(digest, d.index as u64);
            digest = fnv(digest, d.start.to_bits());
            digest = fnv(digest, d.rate.to_bits());
            digest = fnv(digest, d.depart.to_bits());
        };
        for p in 0..pushed {
            for d in online.push(src.size(3, p)) {
                fold(&d);
            }
        }
        for d in online.finish() {
            fold(&d);
        }
        assert_eq!(engine.session_digests()[sid as usize], digest);
    }

    /// Two sessions with different periods interleave correctly and
    /// each matches its own single-session run.
    #[test]
    fn heterogeneous_periods_are_independent() {
        let src = fleet();
        let classes = vec![test_class(20), test_class(25)];
        let mut both = DynamicEngine::new(classes.clone(), 10, 4).unwrap();
        let a = both.join(0, 1, 0).unwrap();
        let b = both.join(1, 2, 7).unwrap();
        both.advance_to(&src, 3000, 1);
        both.finish(&src, 1);

        for (class_id, stream, sid) in [(0usize, 1u64, a), (1, 2, b)] {
            let mut solo = DynamicEngine::new(classes.clone(), 10, 4).unwrap();
            let s = solo
                .join(class_id, stream, if class_id == 0 { 0 } else { 7 })
                .unwrap();
            solo.advance_to(&src, 3000, 1);
            solo.finish(&src, 1);
            assert_eq!(
                solo.session_digests()[s as usize],
                both.session_digests()[sid as usize],
                "class {class_id}"
            );
        }
    }

    /// Slot recycling: leave then join reuses the freed slot and the
    /// newcomer's schedule is untouched by the previous occupant.
    #[test]
    fn recycled_slot_is_fresh() {
        let src = fleet();
        let mut engine = DynamicEngine::new(vec![test_class(20)], 1, 1).unwrap();
        let a = engine.join(0, 10, 0).unwrap();
        engine.advance_to(&src, 1000, 1);
        engine.leave(a, &src).unwrap();
        let b = engine.join(0, 11, 0).unwrap();
        assert_eq!(engine.allocated_slots(), 1, "slot was recycled, not grown");
        engine.advance_to(&src, 2000, 1);
        engine.leave(b, &src).unwrap();

        // A fresh engine running only stream 11 joined at the same tick.
        let mut fresh = DynamicEngine::new(vec![test_class(20)], 1, 1).unwrap();
        fresh.advance_to(&src, 1000, 1);
        let c = fresh.join(0, 11, 0).unwrap();
        fresh.advance_to(&src, 2000, 1);
        fresh.leave(c, &src).unwrap();
        assert_eq!(
            engine.session_digests()[b as usize],
            fresh.session_digests()[c as usize]
        );
    }

    /// take + restore (same or rebalanced shard) changes no digest bit.
    #[test]
    fn migration_is_bit_identical() {
        let src = fleet();
        let classes = vec![test_class(20), test_class(25)];
        let mut plain = DynamicEngine::new(classes.clone(), 64, 8).unwrap();
        let mut moved = DynamicEngine::new(classes.clone(), 64, 8).unwrap();
        for i in 0..20u64 {
            plain.join((i % 2) as usize, i, i % 13).unwrap();
            moved.join((i % 2) as usize, i, i % 13).unwrap();
        }
        plain.advance_to(&src, 1500, 1);
        moved.advance_to(&src, 1500, 1);
        // Migrate a few sessions and rebalance mid-run.
        for sid in [0u64, 7, 13] {
            let snap = moved.take(sid).unwrap();
            moved.restore(snap).unwrap();
        }
        moved.rebalance();
        let loads = moved.shard_loads();
        let (min, max) = (*loads.iter().min().unwrap(), *loads.iter().max().unwrap());
        assert!(max - min <= 1, "rebalanced loads {loads:?}");
        plain.advance_to(&src, 4000, 1);
        moved.advance_to(&src, 4000, 1);
        plain.finish(&src, 1);
        moved.finish(&src, 1);
        assert_eq!(plain.digest(), moved.digest());
    }

    /// checkpoint + restore_checkpoint continues bit-identically.
    #[test]
    fn checkpoint_restore_is_bit_identical() {
        let src = fleet();
        let classes = vec![test_class(20), test_class(25)];
        let mut a = DynamicEngine::new(classes.clone(), 32, 8).unwrap();
        for i in 0..12u64 {
            a.join((i % 2) as usize, i, i % 9).unwrap();
        }
        a.advance_to(&src, 1000, 1);
        a.leave(3, &src).unwrap();
        a.advance_to(&src, 1700, 1);
        let cp = a.checkpoint();
        let mut b = DynamicEngine::restore_checkpoint(classes, 32, 8, &cp).unwrap();
        for e in [&mut a, &mut b] {
            e.advance_to(&src, 4000, 1);
            e.finish(&src, 1);
        }
        assert_eq!(a.digest(), b.digest());
        assert_eq!(a.session_digests(), b.session_digests());
    }

    /// A small deterministic churn trace for the fused tests.
    fn small_trace() -> ChurnTrace {
        crate::synthetic::churn_trace(&crate::synthetic::ChurnSpec {
            seed: 0xFACE,
            initial: 9,
            weights: vec![2, 1],
            periods: vec![20, 25],
            ticks_per_sec: TICKS_PER_SEC,
            horizon: 2400,
            churn_ppm_per_sec: 200_000,
        })
    }

    /// Splits a trace at tick `cut`: the first half replays events up
    /// to and including `cut` (horizon `cut`), the second the rest.
    fn split_trace(trace: &ChurnTrace, cut: u64) -> (ChurnTrace, ChurnTrace) {
        let half = |keep: &dyn Fn(u64) -> bool, horizon| ChurnTrace {
            events: trace
                .events
                .iter()
                .filter(|&&(t, _)| keep(t))
                .copied()
                .collect(),
            horizon,
            peak_live: trace.peak_live,
        };
        (half(&|t| t <= cut, cut), half(&|t| t > cut, trace.horizon))
    }

    fn small_cfg() -> crate::livemux::MuxConfig {
        crate::livemux::MuxConfig {
            capacity_bps: 12.0e6,
            buffer_bits: 0.4e6,
            t_start: 0.0,
            t_end: 4.5,
            descriptor_rho_bps: 1.5e6,
        }
    }

    /// The fused trace replay leaves the engine bit-identical to the
    /// plain replay (same digests, same decision count), and the mux
    /// outcome is invariant in thread count.
    #[test]
    fn fused_trace_matches_plain_replay_and_threads() {
        let src = fleet();
        let classes = vec![test_class(20), test_class(25)];
        let trace = small_trace();

        let mut plain = DynamicEngine::new(classes.clone(), trace.peak_live, 4).unwrap();
        let made_plain = plain.run_trace(&src, &trace, 1).unwrap();
        plain.finish(&src, 1);

        let mut baseline = None;
        for threads in [1usize, 2, 5] {
            let mut engine = DynamicEngine::new(classes.clone(), trace.peak_live, 4).unwrap();
            let mut mux = LiveMux::with_joins(trace.total_joins(), 4, small_cfg());
            let made = engine
                .run_trace_fused(&src, &trace, threads, &mut mux)
                .unwrap();
            let stats = engine.finish_fused(&src, threads, &mut mux);
            assert_eq!(made, made_plain, "threads={threads}");
            assert_eq!(engine.digest(), plain.digest(), "threads={threads}");
            let digest = crate::livemux::mux_digest(&stats, &mux.descriptors());
            match baseline {
                None => baseline = Some(digest),
                Some(d) => assert_eq!(d, digest, "mux digest diverged at threads={threads}"),
            }
        }
    }

    /// Engine + mux checkpoints taken mid-trace continue bit-identical
    /// to the uninterrupted fused run.
    #[test]
    fn fused_trace_checkpoint_restore_is_bit_identical() {
        let src = fleet();
        let classes = vec![test_class(20), test_class(25)];
        let trace = small_trace();
        let cut = 1300u64;
        let (first, second) = split_trace(&trace, cut);

        let mut whole = DynamicEngine::new(classes.clone(), trace.peak_live, 4).unwrap();
        let total = trace.total_joins();
        let mut whole_mux = LiveMux::with_joins(total, 4, small_cfg());
        whole
            .run_trace_fused(&src, &trace, 1, &mut whole_mux)
            .unwrap();
        let want = whole.finish_fused(&src, 1, &mut whole_mux);
        let want_digest = crate::livemux::mux_digest(&want, &whole_mux.descriptors());
        let want_engine = whole.digest();

        let mut engine = DynamicEngine::new(classes.clone(), trace.peak_live, 4).unwrap();
        let mut mux = LiveMux::with_joins(total, 4, small_cfg());
        engine.run_trace_fused(&src, &first, 1, &mut mux).unwrap();
        // ingest drains the lane-block buffers, making the mux
        // checkpointable at the same trace position as the engine.
        mux.ingest(1, engine.mux_clock_cap());
        let ecp = engine.checkpoint();
        let mcp = mux.checkpoint();

        let mut engine =
            DynamicEngine::restore_checkpoint(classes, trace.peak_live, 4, &ecp).unwrap();
        let mut mux = LiveMux::restore(&mcp);
        engine.run_trace_fused(&src, &second, 1, &mut mux).unwrap();
        let got = engine.finish_fused(&src, 1, &mut mux);
        assert_eq!(engine.digest(), want_engine);
        assert_eq!(
            crate::livemux::mux_digest(&got, &mux.descriptors()),
            want_digest
        );
    }

    #[test]
    fn config_errors_are_typed() {
        assert_eq!(
            DynamicEngine::new(vec![], 10, 4).err(),
            Some(EngineError::NoClasses)
        );
        assert_eq!(
            DynamicEngine::new(vec![test_class(0)], 10, 4).err(),
            Some(EngineError::ZeroPeriod { class: 0 })
        );
        assert_eq!(
            DynamicEngine::new(vec![test_class(20)], 0, 4).err(),
            Some(EngineError::ZeroCapacity)
        );
        let mut engine = DynamicEngine::new(vec![test_class(20)], 1, 1).unwrap();
        engine.join(0, 0, 0).unwrap();
        assert_eq!(
            engine.join(0, 1, 0).unwrap_err(),
            EngineError::CapacityExhausted { capacity: 1 }
        );
        assert_eq!(
            engine.leave(99, &fleet()).unwrap_err(),
            EngineError::UnknownSession { sid: 99 }
        );
    }
}
