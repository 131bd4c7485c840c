//! Always-on flight recorder: a fixed-capacity ring of typed events.
//!
//! The recorder is the runtime-observability layer underneath the post-hoc
//! [`crate::telemetry::TraceDocument`]: where the trace document aggregates
//! a finished run, the recorder captures *when* things happened — span
//! begin/end pairs per pipeline phase, per-block outcomes on their lane
//! track, retry/fallback rungs, recycled pool checkouts, cache
//! hits/evictions and lane JIT compiles — cheap enough to leave enabled in
//! production.
//!
//! ## Cost model
//!
//! * **Disabled** (the default): every recording call is one relaxed
//!   atomic load and a branch. Nothing allocates, no locks are touched —
//!   `tests/alloc_regression.rs` pins this.
//! * **Enabled, steady state**: an event is a `Copy` struct stamped with a
//!   monotonic timestamp and written into the global ring under a short
//!   mutex — storage preallocated at [`enable`] time. No path allocates.
//! * **Overflow**: the ring overwrites its oldest events and counts them
//!   in [`RecorderStats::dropped`] — observability must never stall the
//!   pipeline it observes.
//!
//! Event names are `&'static str` by construction: no formatting happens
//! at record time.

use crate::telemetry::Telemetry;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};
use std::time::Instant;

/// Default ring capacity in events (~3 MB at 48 B/event).
pub const DEFAULT_CAPACITY: usize = 1 << 16;

/// Smallest ring [`enable`] allocates, in events.
const MIN_CAPACITY: usize = 256;

/// What a recorded event describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum EventKind {
    /// A phase/span opened on this track (`B` in the Chrome trace).
    SpanBegin,
    /// The most recent open span on this track closed (`E`).
    SpanEnd,
    /// One block's first attempt, on its lane's track: `a` = cycles (0
    /// when it failed), `b` = 0 ok, 1 failed. A failed attempt is followed
    /// by the ladder's `exec.retry` and, if the retry fails too,
    /// `exec.fallback` instants on the track that climbs it.
    BlockOutcome,
    /// The ladder's retry of a failed block ran: `a` = attempt number
    /// (always 1: a block gets one retry), `b` = job.
    Retry,
    /// A block was served from the raw-CSR fallback store: `a` = bytes.
    Fallback,
    /// A checkout was served by recycling a pooled lane.
    PoolRecycle,
    /// Decoded-block cache hit: `a` = bytes served.
    CacheHit,
    /// Decoded-block cache eviction.
    CacheEvict,
    /// A lane-image JIT compile finished: `a` packs blocks lowered (high 32
    /// bits) over machine-code bytes emitted (low 32), `b` = wall
    /// nanoseconds. The name is `jit.lane`, or `jit.lane.failed` when
    /// compilation failed and the interpreter tier took over. A compile
    /// that lowered dispatch groups to data
    /// tables is followed by a `jit.lane.tables` event: `a` packs the groups
    /// over the table bytes the same way, `b` = 0.
    JitCompile,
}

impl EventKind {
    /// Stable lowercase label (metrics / exporter phase names).
    pub fn label(self) -> &'static str {
        match self {
            EventKind::SpanBegin => "span_begin",
            EventKind::SpanEnd => "span_end",
            EventKind::BlockOutcome => "block_outcome",
            EventKind::Retry => "retry",
            EventKind::Fallback => "fallback",
            EventKind::PoolRecycle => "pool_recycle",
            EventKind::CacheHit => "cache_hit",
            EventKind::CacheEvict => "cache_evict",
            EventKind::JitCompile => "jit_compile",
        }
    }
}

/// Which timeline an event belongs to. Encoded in one `u32`: the high
/// nibble is the class, the rest the id — `Copy`, branch-free to stamp.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Track(u32);

const TRACK_CLASS_SHIFT: u32 = 28;

impl Track {
    /// The main/orchestration thread.
    pub const MAIN: Track = Track(0);

    /// A UDP lane's timeline.
    pub fn lane(id: usize) -> Track {
        Track((1 << TRACK_CLASS_SHIFT) | (id as u32 & 0x0fff_ffff))
    }

    /// A pipeline stage's timeline (0 = the tile walker: its decodes, its
    /// ladder rungs and its multiplies).
    pub fn stage(id: usize) -> Track {
        Track((3 << TRACK_CLASS_SHIFT) | (id as u32 & 0x0fff_ffff))
    }

    /// The id within the class.
    pub fn id(self) -> u32 {
        self.0 & 0x0fff_ffff
    }

    /// `"main"`, `"lane"`, or `"stage"`.
    pub fn class(self) -> &'static str {
        match self.0 >> TRACK_CLASS_SHIFT {
            1 => "lane",
            3 => "stage",
            _ => "main",
        }
    }

    /// Raw encoding (stable; the Chrome exporter's `tid`).
    pub fn encoded(self) -> u32 {
        self.0
    }
}

/// One recorded event. `Copy` and fixed-size so buffers are flat arrays.
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// Nanoseconds since the recorder was (first) enabled.
    pub ts_ns: u64,
    /// Global arrival sequence (ties on `ts_ns` sort stably).
    pub seq: u64,
    /// Event class.
    pub kind: EventKind,
    /// Timeline the event belongs to.
    pub track: Track,
    /// Static label (span/phase name, counter name).
    pub name: &'static str,
    /// Kind-specific payload (see [`EventKind`]).
    pub a: u64,
    /// Kind-specific payload.
    pub b: u64,
}

/// Point-in-time recorder counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecorderStats {
    /// Events accepted since enable (monotonic).
    pub recorded: u64,
    /// Events overwritten by ring wrap-around (monotonic).
    pub dropped: u64,
    /// Ring capacity in events (0 while disabled).
    pub capacity: usize,
}

/// Global ring sink. Storage is preallocated by [`enable`]; `push` never
/// allocates.
struct Ring {
    buf: Vec<Event>,
    head: usize,
    len: usize,
    capacity: usize,
    dropped: u64,
}

impl Ring {
    const fn empty() -> Ring {
        Ring { buf: Vec::new(), head: 0, len: 0, capacity: 0, dropped: 0 }
    }

    fn push(&mut self, e: Event) {
        if self.capacity == 0 {
            self.dropped += 1;
        } else if self.len < self.capacity {
            self.buf[(self.head + self.len) % self.capacity] = e;
            self.len += 1;
        } else {
            self.buf[self.head] = e;
            self.head = (self.head + 1) % self.capacity;
            self.dropped += 1;
        }
    }

    fn drain_ordered(&mut self) -> Vec<Event> {
        let mut out = Vec::with_capacity(self.len);
        for i in 0..self.len {
            out.push(self.buf[(self.head + i) % self.capacity]);
        }
        self.head = 0;
        self.len = 0;
        out
    }
}

/// A recorder: the ring every thread records into, and the count of events
/// accepted. The process has one
/// ([`SINK`]); tests that assert exact counts build their own, so events
/// other tests record while the recorder is enabled cannot reach them.
struct Sink {
    recorded: AtomicU64,
    ring: Mutex<Ring>,
}

impl Sink {
    const fn new() -> Sink {
        Sink { recorded: AtomicU64::new(0), ring: Mutex::new(Ring::empty()) }
    }

    /// Preallocates a cleared ring of `capacity` events and zeroes the count.
    fn reset(&self, capacity: usize) {
        let mut ring = self.ring.lock().unwrap_or_else(PoisonError::into_inner);
        *ring = Ring { buf: vec![EMPTY_EVENT; capacity], capacity, ..Ring::empty() };
        self.recorded.store(0, Ordering::Relaxed);
    }

    /// Counts `e` as accepted and writes it into the ring.
    fn accept(&self, e: Event) {
        self.recorded.fetch_add(1, Ordering::Relaxed);
        self.ring.lock().unwrap_or_else(PoisonError::into_inner).push(e);
    }

    /// Every ringed event in chronological order (ties broken by arrival),
    /// leaving the ring empty.
    fn drain(&self) -> Vec<Event> {
        let mut events = self.ring.lock().unwrap_or_else(PoisonError::into_inner).drain_ordered();
        events.sort_by_key(|e| (e.ts_ns, e.seq));
        events
    }

    fn stats(&self) -> RecorderStats {
        let ring = self.ring.lock().unwrap_or_else(PoisonError::into_inner);
        RecorderStats {
            recorded: self.recorded.load(Ordering::Relaxed),
            dropped: ring.dropped,
            capacity: ring.capacity,
        }
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static SEQ: AtomicU64 = AtomicU64::new(0);
static SINK: Sink = Sink::new();

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Is the recorder on? One relaxed load — the whole cost of the disabled
/// path.
#[inline]
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns the recorder on with a ring of `capacity` events (clamped to at
/// least [`MIN_CAPACITY`]), preallocating all sink storage up front and
/// installing the pool event hook. Re-enabling resizes and clears the ring.
pub fn enable(capacity: usize) {
    SINK.reset(capacity.max(MIN_CAPACITY));
    let _ = epoch();
    recode_udp::pool::set_event_hook(pool_event_hook);
    recode_udp::jit::set_compile_hook(jit_compile_hook);
    ENABLED.store(true, Ordering::Relaxed);
}

/// Turns the recorder off. Already-buffered events stay drainable.
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

const EMPTY_EVENT: Event = Event {
    ts_ns: 0,
    seq: 0,
    kind: EventKind::SpanBegin,
    track: Track::MAIN,
    name: "",
    a: 0,
    b: 0,
};

/// Records one event. No-op (one atomic load) while disabled.
#[inline]
pub fn record(kind: EventKind, track: Track, name: &'static str, a: u64, b: u64) {
    if is_enabled() {
        record_at(kind, track, name, a, b, Instant::now());
    }
}

/// Stamps an event with its time since the epoch (zero for an instant read
/// before the recorder was first enabled) and its arrival sequence.
fn stamp(kind: EventKind, track: Track, name: &'static str, a: u64, b: u64, at: Instant) -> Event {
    let ts_ns = at.saturating_duration_since(epoch()).as_nanos() as u64;
    Event { ts_ns, seq: SEQ.fetch_add(1, Ordering::Relaxed), kind, track, name, a, b }
}

/// Records one event whose clock the caller has already read.
#[cold]
fn record_at(kind: EventKind, track: Track, name: &'static str, a: u64, b: u64, at: Instant) {
    SINK.accept(stamp(kind, track, name, a, b, at));
}

/// Opens a span on `track`; the returned guard closes it on drop. Guards
/// nest, so each track's B/E events pair up like a stack.
#[must_use = "the span closes when the guard drops"]
pub fn span(track: Track, name: &'static str) -> SpanGuard {
    phase(track, name, false)
}

/// Opens one phase of a run: a [`span`] whose wall time a
/// [`Telemetry`] wants too when `traced`. This guard is the only place the
/// executors read a clock for a phase: the read that stamps the ring's
/// `SpanBegin`/`SpanEnd` is the read the document's [`Span`] is measured
/// from, so the two views cannot disagree. Untraced with the recorder off
/// it reads no clock at all.
///
/// [`Span`]: crate::telemetry::Span
#[must_use = "the phase closes when the guard drops"]
pub fn phase(track: Track, name: &'static str, traced: bool) -> SpanGuard {
    let recording = is_enabled();
    let opened = (traced || recording).then(Instant::now);
    if let (Some(at), true) = (opened, recording) {
        record_at(EventKind::SpanBegin, track, name, 0, 0, at);
    }
    SpanGuard { track, name, opened }
}

/// An open [`span`] or [`phase`]. Dropping it closes the ring's span (an
/// error return leaves the ring balanced); [`SpanGuard::finish`] also hands
/// the phase to the run's telemetry.
pub struct SpanGuard {
    track: Track,
    name: &'static str,
    /// The opening clock read; `None` when nobody wanted one, and once closed.
    opened: Option<Instant>,
}

impl SpanGuard {
    /// Reads the closing clock once, emits `SpanEnd`, and returns the wall
    /// nanoseconds between the two reads (0 when the open read no clock).
    fn close(&mut self) -> u64 {
        let Some(opened) = self.opened.take() else { return 0 };
        let closed = Instant::now();
        if is_enabled() {
            record_at(EventKind::SpanEnd, self.track, self.name, 0, 0, closed);
        }
        closed.duration_since(opened).as_nanos() as u64
    }

    /// Closes the phase and, when the run is traced, appends it to `tel` as
    /// a [`crate::telemetry::Span`] with the given modeled time and bytes.
    /// Only [`Track::MAIN`] phases become document spans: the other tracks
    /// run underneath one, and the document's spans have to add up to no
    /// more than the run's wall time.
    pub fn finish(mut self, tel: Option<&mut Telemetry>, modeled_seconds: f64, bytes: u64) {
        let wall_ns = self.close();
        if let Some(tel) = tel.filter(|_| self.track == Track::MAIN) {
            tel.span(self.name, wall_ns, modeled_seconds, bytes);
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        self.close();
    }
}

/// Every ringed event in chronological order (ties broken by arrival),
/// leaving the ring empty.
pub fn drain() -> Vec<Event> {
    SINK.drain()
}

/// Point-in-time counters (valid whether enabled or not).
pub fn stats() -> RecorderStats {
    SINK.stats()
}

/// The pool-side event hook (a recycled checkout → a `pool.recycle`
/// event). Installed by [`enable`]; itself gated on [`is_enabled`].
fn pool_event_hook() {
    record(EventKind::PoolRecycle, Track::MAIN, "pool.recycle", 0, 0);
}

/// The lane-JIT compile hook
/// ([`recode_udp::jit::CompileEvent`] → recorder events). Installed by
/// [`enable`]; itself gated on [`is_enabled`].
fn jit_compile_hook(event: &recode_udp::jit::CompileEvent) {
    let name = if event.ok { "jit.lane" } else { "jit.lane.failed" };
    let a = ((event.blocks as u64) << 32) | (event.code_bytes as u64 & 0xFFFF_FFFF);
    record(EventKind::JitCompile, Track::MAIN, name, a, event.wall_ns);
    if event.table_groups > 0 {
        let a = ((event.table_groups as u64) << 32) | (event.table_bytes as u64 & 0xFFFF_FFFF);
        record(EventKind::JitCompile, Track::MAIN, "jit.lane.tables", a, 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Recorder state is process-global, so every test in this module runs
    // under one lock to keep enable/disable/drain from interleaving.
    fn serialized() -> std::sync::MutexGuard<'static, ()> {
        static GATE: Mutex<()> = Mutex::new(());
        GATE.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Drains the global ring, keeping only events named in `mine`: while
    /// one of these tests has the recorder enabled, the exec and overlap
    /// tests running beside it record into the same ring.
    fn drain_named(mine: &[&str]) -> Vec<Event> {
        drain().into_iter().filter(|e| mine.contains(&e.name)).collect()
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let _g = serialized();
        disable();
        record(EventKind::Retry, Track::MAIN, "noop", 1, 2);
        let _span = span(Track::MAIN, "noop");
        assert!(drain().is_empty());
    }

    #[test]
    fn events_drain_in_timestamp_order_across_threads() {
        let _g = serialized();
        enable(4096);
        let before = stats().recorded;
        std::thread::scope(|s| {
            for w in 0..4 {
                s.spawn(move || {
                    for i in 0..50u64 {
                        record(EventKind::BlockOutcome, Track::lane(w), "blk", i, 0);
                    }
                });
            }
        });
        record(EventKind::Retry, Track::MAIN, "after", 0, 0);
        let events = drain_named(&["blk", "after"]);
        disable();
        assert_eq!(events.len(), 201, "4x50 thread events + 1 main event");
        assert!(stats().recorded - before >= 201, "every record() call is counted");
        assert!(events.windows(2).all(|w| w[0].ts_ns <= w[1].ts_ns), "chronological");
        for w in 0..4 {
            let n = events.iter().filter(|e| e.track == Track::lane(w)).count();
            assert_eq!(n, 50, "thread {w} events all reach the ring");
        }
    }

    #[test]
    fn ring_overwrites_oldest_and_counts_drops() {
        {
            let _g = serialized();
            enable(0); // clamped up to MIN_CAPACITY
            let capacity = stats().capacity;
            disable();
            assert_eq!(capacity, MIN_CAPACITY);
        }
        // The counts below are exact, so they run on a private sink: the
        // exec and overlap tests record into the global one whenever any
        // test has it enabled.
        let sink = Sink::new();
        sink.reset(MIN_CAPACITY);
        for i in 0..(MIN_CAPACITY as u64 * 3) {
            sink.accept(stamp(EventKind::Retry, Track::MAIN, "spin", i, 0, Instant::now()));
        }
        let events = sink.drain();
        let st = sink.stats();
        assert_eq!(st.recorded, MIN_CAPACITY as u64 * 3);
        assert_eq!(events.len(), MIN_CAPACITY, "ring keeps exactly its capacity");
        assert_eq!(st.dropped, MIN_CAPACITY as u64 * 2, "overflow is counted");
        // The survivors are the *newest* events.
        assert_eq!(events.last().expect("non-empty").a, MIN_CAPACITY as u64 * 3 - 1);
    }

    /// Seeded interleaving stress (ISSUE 9): many threads overflow a small
    /// ring concurrently from a fixed barrier. Whatever the schedule, the
    /// accounting must partition exactly — every accepted event is either
    /// drained or counted dropped, never both and never neither — and no
    /// surviving event is duplicated or reordered within its track.
    #[test]
    fn concurrent_overflow_accounting_is_exact() {
        const THREADS: usize = 8;
        const CAPACITY: usize = 512;
        // A private sink, for the reason given in
        // `ring_overwrites_oldest_and_counts_drops`; each thread accepts
        // into it exactly as `record` does into the global one.
        let sink = Sink::new();
        sink.reset(CAPACITY);
        // Fixed xorshift seed → fixed per-thread event counts, so the
        // totals below are deterministic across runs and machines.
        let mut seed = 0x9e37_79b9_7f4a_7c15u64;
        let counts: [u64; THREADS] = std::array::from_fn(|_| {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            300 + seed % 200
        });
        let total: u64 = counts.iter().sum();
        let barrier = std::sync::Barrier::new(THREADS);
        std::thread::scope(|s| {
            for (w, &n) in counts.iter().enumerate() {
                let (barrier, sink) = (&barrier, &sink);
                s.spawn(move || {
                    barrier.wait();
                    for i in 0..n {
                        let e = stamp(
                            EventKind::BlockOutcome,
                            Track::lane(w),
                            "stress",
                            i,
                            0,
                            Instant::now(),
                        );
                        sink.accept(e);
                    }
                });
            }
        });
        let events = sink.drain();
        let st = sink.stats();
        assert_eq!(st.recorded, total, "every accepted event is counted once");
        assert_eq!(
            events.len() as u64 + st.dropped,
            total,
            "drained + dropped partition the accepted events exactly"
        );
        assert_eq!(events.len(), CAPACITY, "overflowed ring keeps exactly its capacity");
        assert!(events.iter().all(|e| e.name == "stress"), "no phantom events survive");
        for w in 0..THREADS {
            let payloads: Vec<u64> =
                events.iter().filter(|e| e.track == Track::lane(w)).map(|e| e.a).collect();
            assert!(
                payloads.windows(2).all(|p| p[0] < p[1]),
                "lane {w} survivors are never duplicated or reordered: {payloads:?}"
            );
        }
    }

    #[test]
    fn span_guard_balances_begin_end() {
        let _g = serialized();
        enable(4096);
        {
            let _outer = span(Track::stage(0), "outer");
            let _inner = span(Track::stage(0), "inner");
        }
        let events = drain_named(&["outer", "inner"]);
        disable();
        let kinds: Vec<(EventKind, &str)> = events.iter().map(|e| (e.kind, e.name)).collect();
        assert_eq!(
            kinds,
            [
                (EventKind::SpanBegin, "outer"),
                (EventKind::SpanBegin, "inner"),
                (EventKind::SpanEnd, "inner"),
                (EventKind::SpanEnd, "outer"),
            ],
            "guards close in LIFO order"
        );
    }

    #[test]
    fn jit_compile_events_reach_the_ring() {
        let _g = serialized();
        enable(4096);
        // Drive the hook directly — assemble-time compiles fire the same
        // path, but depend on platform/env JIT availability.
        recode_udp::jit::report_compile(&recode_udp::jit::CompileEvent {
            code_bytes: 1234,
            blocks: 7,
            table_groups: 3,
            table_bytes: 1280,
            wall_ns: 42,
            ok: true,
        });
        recode_udp::jit::report_compile(&recode_udp::jit::CompileEvent {
            code_bytes: 0,
            blocks: 0,
            table_groups: 0,
            table_bytes: 0,
            wall_ns: 9,
            ok: false,
        });
        let events = drain();
        disable();
        let jit: Vec<_> = events.iter().filter(|e| e.kind == EventKind::JitCompile).collect();
        assert_eq!(jit.len(), 3, "both compile reports must reach the ring");
        assert_eq!(jit[0].name, "jit.lane");
        assert_eq!(jit[0].a >> 32, 7, "blocks lowered ride the high half of `a`");
        assert_eq!(jit[0].a & 0xFFFF_FFFF, 1234, "code bytes ride the low half");
        assert_eq!(jit[0].b, 42, "wall ns rides `b`");
        assert_eq!(jit[1].name, "jit.lane.tables", "table lowering is its own event");
        assert_eq!((jit[1].a >> 32, jit[1].a & 0xFFFF_FFFF), (3, 1280), "groups over bytes");
        assert_eq!(jit[2].name, "jit.lane.failed", "failures are distinguishable");
    }
}
