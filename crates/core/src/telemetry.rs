//! Lightweight span/counter/block-event telemetry for the whole recoded-SpMV
//! pipeline, exported as one JSON trace document.
//!
//! Everything here is plain data + `std` — no new dependencies. The
//! trace-off path costs nothing: a run carries `Option<&mut Telemetry>` in
//! its [`crate::ladder::RunCtx`] and skips all timing when it is `None`.
//!
//! ## Schema
//!
//! A [`TraceDocument`] (schema [`TRACE_SCHEMA`], the only one) aggregates:
//!
//! * [`Span`]s — wall-clock (`wall_ns`) and/or modeled (`modeled_seconds`)
//!   durations for each main-track phase, pushed by the one phase guard
//!   ([`crate::recorder::phase`]) from the clock reads that stamp the flight
//!   recorder's `B`/`E` pair: `exec.decode_batch`, one `exec.retry` (and
//!   `exec.fallback`) per block that climbed the ladder, `exec.reassemble`,
//!   `exec.cpu_multiply`, or `exec.overlap` on the tiled schedules, and
//!   `exec.software_decode` when an open breaker bypasses the lanes; plus the
//!   modeled-only `exec.mem_stream` and `exec.dma`;
//! * counters — dotted lowercase names. Those that are copies of a stats
//!   field come from the tables below ([`EXEC_COUNTERS`], ...), which
//!   [`TraceDocument::validate`] walks again; `mem.read.*`/`mem.write.*` are
//!   derived from the traffic ledger at the seal;
//! * per-block [`BlockEvent`] records (job, stream, block, lane, cycles,
//!   outcome), which [`render_report`] buckets by log₂ cycles;
//! * the accelerator's per-lane/per-opcode-class breakdown (via
//!   `ExecStats::accel`) and the memory traffic ledger by source;
//! * the flight recorder's summary when the run had it on.
//!
//! Every wall-clock number in a document is read by the phase guard, apart
//! from the run's own total: nothing beneath the executor reads a clock.

use crate::exec::ExecStats;
use crate::overlap::OverlapStats;
use crate::resilience::{BreakerState, CircuitBreaker};
use recode_mem::traffic::{TrafficLedger, TrafficReport};
use recode_mem::MemorySystem;
use recode_udp::pool::PoolStats;
use std::collections::BTreeMap;

/// The trace-document schema. There is one: every document is stamped with
/// it whatever the run touched, and [`TraceDocument::validate`] refuses any
/// other stamp.
pub const TRACE_SCHEMA: &str = "recode-trace/v3";

/// What a derived value is to a scraper: a monotonic count, or a
/// point-in-time value that may go down.
#[derive(Debug, Clone, Copy)]
pub enum Kind {
    /// Only ever grows over a run.
    Counter,
    /// A level or a state code; the function names a value for a report.
    Gauge(fn(u64) -> String),
}

impl Kind {
    /// The Prometheus `# TYPE` word.
    pub fn as_str(self) -> &'static str {
        match self {
            Counter => "counter",
            Gauge(_) => "gauge",
        }
    }
}

use Kind::{Counter, Gauge};

/// One derived counter: its dotted name, its kind and the stats field it is
/// a copy of.
pub type Derived<S> = (&'static str, Kind, fn(&S) -> u64);

/// Every run: written by [`Telemetry::derive`] when the run's stats exist,
/// re-read by [`TraceDocument::validate`] against `exec`.
pub const EXEC_COUNTERS: &[Derived<ExecStats>] = &[
    ("exec.jobs", Counter, |s| s.accel.jobs as u64),
    ("exec.jobs_failed", Counter, |s| s.accel.jobs_failed as u64),
    ("exec.blocks_retried", Counter, |s| s.blocks_retried as u64),
    ("exec.blocks_fell_back", Counter, |s| s.blocks_fell_back as u64),
    ("exec.fallback_bytes", Counter, |s| s.fallback_bytes as u64),
    ("exec.retry_cycles", Counter, |s| s.retry_cycles),
];

/// The tiled schedules only (a batch document carries none of these keys);
/// validated against `exec.overlap`.
pub const TILED_COUNTERS: &[Derived<OverlapStats>] = &[
    ("pipeline.overlap.stages", Counter, |o| o.stages as u64),
    ("pipeline.overlap.decode_cycles", Counter, |o| o.decode_cycles),
    ("pipeline.overlap.multiply_cycles", Counter, |o| o.multiply_cycles),
    ("pipeline.overlap.makespan_cycles", Counter, |o| o.overlapped_makespan_cycles),
    ("pipeline.overlap.serial_cycles", Counter, |o| o.serial_makespan_cycles),
    ("pipeline.overlap.saved_cycles", Counter, OverlapStats::saved_cycles),
    ("cache.hits", Counter, |o| o.cache_hits),
    ("cache.misses", Counter, |o| o.cache_misses),
    ("cache.evictions", Counter, |o| o.cache_evictions),
    ("cache.hit_bytes", Counter, |o| o.cache_hit_bytes),
];

/// Lane-pool traffic over a batch, as deltas of the process-wide pool's
/// monotonic counters. Parallel tests can inflate these (the pool is
/// shared) and the pool is not part of the document, so they are reported,
/// not validated.
pub const POOL_COUNTERS: &[Derived<PoolStats>] = &[
    ("pool.checkouts", Counter, |p| p.checkouts),
    ("pool.recycled_hits", Counter, |p| p.recycled_hits),
    ("pool.fresh_builds", Counter, |p| p.fresh_builds),
    ("pool.returned", Counter, |p| p.returned),
    ("pool.dropped_at_capacity", Counter, |p| p.dropped_at_capacity),
];

/// Breaker posture after a governed job (reported only).
/// `breaker.state` is [`BreakerState::code`], the one gauge.
pub const BREAKER_COUNTERS: &[Derived<CircuitBreaker>] = &[
    ("breaker.trips", Counter, CircuitBreaker::trips),
    ("breaker.probes", Counter, CircuitBreaker::probes),
    (
        "breaker.state",
        Gauge(|c| BreakerState::from_code(c).map_or(format!("unknown ({c})"), |s| s.to_string())),
        |b| b.state().code(),
    ),
];

/// The kind of counter `name` as its table row declares it; `mem.*` traffic
/// and names no table declares are counters.
pub fn counter_kind(name: &str) -> Kind {
    fn find<S>(rows: &[Derived<S>], name: &str) -> Option<Kind> {
        rows.iter().find(|row| row.0 == name).map(|row| row.1)
    }
    find(EXEC_COUNTERS, name)
        .or(find(TILED_COUNTERS, name))
        .or(find(POOL_COUNTERS, name))
        .or(find(BREAKER_COUNTERS, name))
        .unwrap_or(Counter)
}

/// One named pipeline phase. `wall_ns` is host wall-clock time actually
/// spent simulating/executing the phase; `modeled_seconds` is the
/// architectural model's time for the phase (0.0 when not applicable).
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Dotted lowercase phase name (e.g. `exec.decode_batch`).
    pub name: String,
    /// Host wall-clock nanoseconds spent in the phase.
    pub wall_ns: u64,
    /// Modeled seconds on the simulated system (0.0 if not modeled).
    pub modeled_seconds: f64,
    /// Bytes the phase processed (0 if not meaningful).
    pub bytes: u64,
}

/// Which compressed stream a block belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StreamKind {
    /// Column-index stream.
    Index,
    /// Value stream.
    Value,
}

/// How a block's decode ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockOutcome {
    /// Decoded cleanly on the first attempt.
    Ok,
    /// Failed at least once, recovered by a retry on a fresh lane.
    Retried,
    /// Retries exhausted; served from the raw fallback store.
    FellBack,
}

/// One block's journey through the decode batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockEvent {
    /// Job index in the interleaved batch.
    pub job: usize,
    /// Stream the block belongs to.
    pub stream: StreamKind,
    /// Block index within its stream.
    pub block: usize,
    /// Lane the job ran on (`job % lanes`).
    pub lane: usize,
    /// Decode cycles (the successful attempt's; 0 for fallback blocks).
    pub cycles: u64,
    /// Outcome classification.
    pub outcome: BlockOutcome,
}

/// Aggregate view of a flight-recorder session, embedded in a trace when
/// the recorder was enabled for the run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecorderSummary {
    /// Events accepted by the recorder over the run.
    pub recorded: u64,
    /// Events lost to ring overwrite (the ring never blocks the pipeline).
    pub dropped: u64,
    /// Ring capacity in events.
    pub capacity: usize,
    /// Drained events by kind label (`span_begin`, `block_outcome`, ...).
    pub by_kind: BTreeMap<String, u64>,
}

impl RecorderSummary {
    /// Builds the summary from a drained event list plus recorder stats.
    pub fn from_events(
        events: &[crate::recorder::Event],
        stats: crate::recorder::RecorderStats,
    ) -> Self {
        let mut by_kind = BTreeMap::new();
        for e in events {
            *by_kind.entry(e.kind.label().to_string()).or_insert(0u64) += 1;
        }
        RecorderSummary {
            recorded: stats.recorded,
            dropped: stats.dropped,
            capacity: stats.capacity,
            by_kind,
        }
    }
}

/// In-flight telemetry registry threaded through the pipeline.
#[derive(Debug, Default)]
pub struct Telemetry {
    spans: Vec<Span>,
    counters: BTreeMap<String, u64>,
    block_events: Vec<BlockEvent>,
    /// Memory traffic by source, filled by the exec path.
    pub traffic: TrafficLedger,
}

impl Telemetry {
    /// Fresh empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a finished span.
    pub fn span(&mut self, name: &str, wall_ns: u64, modeled_seconds: f64, bytes: u64) {
        self.spans.push(Span { name: name.to_string(), wall_ns, modeled_seconds, bytes });
    }

    /// Adds `delta` to counter `name` (created at zero).
    pub fn add(&mut self, name: &str, delta: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += delta;
    }

    /// Writes every counter of `rows`: `read` is handed each row's getter
    /// and applies it to the source (or to two snapshots of it, for a delta).
    pub fn derive<S>(&mut self, rows: &[Derived<S>], read: impl Fn(fn(&S) -> u64) -> u64) {
        for &(name, _, get) in rows {
            self.add(name, read(get));
        }
    }

    /// Records one block event.
    pub fn block_event(&mut self, event: BlockEvent) {
        self.block_events.push(event);
    }

    /// Puts the block events in job order: a tile walk settles value blocks
    /// between index blocks.
    pub(crate) fn sort_block_events(&mut self) {
        self.block_events.sort_by_key(|e| e.job);
    }

    /// Counter value (0 when never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Recorded block events, in batch order.
    pub fn block_events(&self) -> &[BlockEvent] {
        &self.block_events
    }

    /// Seals the registry into a [`TraceDocument`]. Memory-traffic counters
    /// (`mem.read.<source>` / `mem.write.<source>`) are derived from the
    /// ledger here so counters and the traffic report can never disagree.
    pub fn into_document(
        mut self,
        matrix: MatrixMeta,
        system: SystemMeta,
        exec: ExecStats,
        mem: &MemorySystem,
        wall_ns_total: u64,
    ) -> TraceDocument {
        use recode_mem::traffic::TrafficSource;
        for s in TrafficSource::ALL {
            let r = self.traffic.read_bytes(s);
            let w = self.traffic.write_bytes(s);
            if r > 0 {
                self.add(&format!("mem.read.{}", s.name()), r);
            }
            if w > 0 {
                self.add(&format!("mem.write.{}", s.name()), w);
            }
        }
        TraceDocument {
            schema: TRACE_SCHEMA.to_string(),
            matrix,
            system,
            wall_ns_total,
            spans: self.spans,
            counters: self.counters,
            block_events: self.block_events,
            mem_traffic: self.traffic.report(mem),
            exec,
            recorder: None,
        }
    }
}

/// Matrix identity in a trace.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MatrixMeta {
    /// Display name (file stem or generator name; may be empty).
    pub name: String,
    /// Rows.
    pub nrows: usize,
    /// Columns.
    pub ncols: usize,
    /// Stored non-zeros.
    pub nnz: usize,
    /// Compressed wire bytes.
    pub compressed_bytes: usize,
    /// Compressed bytes per non-zero (raw CSR = 12.0).
    pub bytes_per_nnz: f64,
}

/// Simulated-platform identity in a trace.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SystemMeta {
    /// Memory-system name.
    pub memory: String,
    /// UDP lanes.
    pub lanes: usize,
    /// UDP clock, Hz.
    pub freq_hz: f64,
}

/// The exported trace: one self-contained, schema-versioned JSON document.
#[derive(Debug, Clone)]
pub struct TraceDocument {
    /// Schema identifier ([`TRACE_SCHEMA`]).
    pub schema: String,
    /// Matrix identity.
    pub matrix: MatrixMeta,
    /// Platform identity.
    pub system: SystemMeta,
    /// Host wall-clock nanoseconds for the whole traced run.
    pub wall_ns_total: u64,
    /// Per-phase spans, in execution order.
    pub spans: Vec<Span>,
    /// Dotted-name counters.
    pub counters: BTreeMap<String, u64>,
    /// Per-block event records.
    pub block_events: Vec<BlockEvent>,
    /// Memory traffic by source.
    pub mem_traffic: TrafficReport,
    /// Execution stats, including the accelerator report with per-lane
    /// profiles, opcode-class and stage cycle attribution.
    pub exec: ExecStats,
    /// Flight-recorder summary (`None` when the recorder was off for the
    /// run).
    pub recorder: Option<RecorderSummary>,
}

impl TraceDocument {
    /// Sum of measured span time (nanoseconds).
    pub fn spans_wall_ns(&self) -> u64 {
        self.spans.iter().map(|s| s.wall_ns).sum()
    }

    /// Structural validation: the schema stamp plus the invariants the
    /// pipeline guarantees. Returns a list of violations (empty = valid).
    pub fn validate(&self) -> Vec<String> {
        let mut errs = Vec::new();
        if self.schema != TRACE_SCHEMA {
            errs.push(format!("schema `{}` is not `{TRACE_SCHEMA}`", self.schema));
        }
        if let Some(rec) = &self.recorder {
            let drained: u64 = rec.by_kind.values().sum();
            if drained > rec.recorded {
                errs.push(format!(
                    "recorder summary drains {drained} events but only {} were recorded",
                    rec.recorded
                ));
            }
        }
        if self.spans_wall_ns() > self.wall_ns_total {
            errs.push(format!(
                "span wall time {} ns exceeds total {} ns",
                self.spans_wall_ns(),
                self.wall_ns_total
            ));
        }
        // Every decode job ends once, as one event: its outcome counts are
        // the run's own tally.
        let outcomes =
            |o: BlockOutcome| self.block_events.iter().filter(|e| e.outcome == o).count();
        let e = &self.exec;
        let tally = [
            (BlockOutcome::Ok, e.blocks_ok),
            (BlockOutcome::Retried, e.blocks_recovered),
            (BlockOutcome::FellBack, e.blocks_fell_back),
        ];
        for (outcome, stat) in tally {
            if outcomes(outcome) != stat {
                errs.push(format!(
                    "{} block events are {outcome:?}, exec stats say {stat}",
                    outcomes(outcome)
                ));
            }
        }
        if self.block_events.len() != e.accel.jobs {
            errs.push(format!(
                "{} block events for {} decode jobs",
                self.block_events.len(),
                e.accel.jobs
            ));
        }
        // Certified-bound floor: a block that actually ran on a lane spent
        // at least one cycle (fallback blocks never ran and record zero).
        // The full envelope re-check — rebuilding the table-independent
        // stage programs and comparing against their certified CycleBounds —
        // lives in `recode trace-check --bounds`; this structural floor is
        // the part every trace can assert without access to the programs.
        for e in &self.block_events {
            if e.outcome != BlockOutcome::FellBack && e.cycles == 0 {
                errs.push(format!(
                    "block event (job {}, outcome {:?}) ran on a lane but recorded 0 cycles",
                    e.job, e.outcome
                ));
            }
        }
        let accel = &self.exec.accel;
        if !accel.lane_profiles.is_empty() && accel.lane_profiles.len() != accel.lanes {
            errs.push(format!(
                "{} lane profiles for {} lanes",
                accel.lane_profiles.len(),
                accel.lanes
            ));
        }
        let lane_busy: u64 =
            accel.lane_profiles.iter().map(|p| p.busy_cycles + p.stall_cycles).sum();
        // Retry cycles are folded into the batch totals after the fact, so
        // lane profiles may undercount busy cycles by exactly that much.
        if !accel.lane_profiles.is_empty()
            && lane_busy + self.exec.retry_cycles != accel.busy_cycles
        {
            errs.push(format!(
                "lane profiles sum to {} busy cycles, report says {} (retry {})",
                lane_busy, accel.busy_cycles, self.exec.retry_cycles
            ));
        }
        let traffic_total: u64 =
            self.mem_traffic.by_source.iter().map(|s| s.read_bytes + s.write_bytes).sum();
        if traffic_total != self.mem_traffic.total_bytes {
            errs.push(format!(
                "traffic by-source sum {} != total {}",
                traffic_total, self.mem_traffic.total_bytes
            ));
        }
        // Every derived counter against the stats field it copies. A batch
        // document has neither the tiled keys nor tiled stats (all zero).
        let mut check = |name: &str, stat: u64, of: &str| {
            if self.counter(name) != stat {
                errs.push(format!(
                    "counter {name} = {} disagrees with {of} stats {stat}",
                    self.counter(name)
                ));
            }
        };
        for &(name, _, get) in EXEC_COUNTERS {
            check(name, get(&self.exec), "exec");
        }
        for &(name, _, get) in TILED_COUNTERS {
            check(name, get(&self.exec.overlap), "overlap");
        }
        // Overlapped-schedule invariants, vacuously true of a batch's all-zero
        // OverlapStats.
        let ov = &self.exec.overlap;
        if ov.overlapped_makespan_cycles > ov.serial_makespan_cycles {
            errs.push(format!(
                "overlapped makespan {} exceeds serial makespan {}",
                ov.overlapped_makespan_cycles, ov.serial_makespan_cycles
            ));
        }
        if ov.overlapped_makespan_cycles < ov.decode_cycles.max(ov.multiply_cycles) {
            errs.push(format!(
                "overlapped makespan {} below an engine's critical path (decode {}, multiply {})",
                ov.overlapped_makespan_cycles, ov.decode_cycles, ov.multiply_cycles
            ));
        }
        if ov.enabled && self.exec.accel.makespan_cycles != ov.overlapped_makespan_cycles {
            errs.push(format!(
                "accel makespan {} != overlapped makespan {}",
                self.exec.accel.makespan_cycles, ov.overlapped_makespan_cycles
            ));
        }
        errs
    }

    /// Counter value (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }
}

/// Renders the human-readable `recode report` table for a trace.
pub fn render_report(doc: &TraceDocument) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let m = &doc.matrix;
    let _ = writeln!(out, "== recode trace report ({}) ==", doc.schema);
    let _ = writeln!(
        out,
        "matrix {}: {} x {}, {} nnz, {} compressed bytes ({:.2} B/nnz)",
        if m.name.is_empty() { "<unnamed>" } else { &m.name },
        m.nrows,
        m.ncols,
        m.nnz,
        m.compressed_bytes,
        m.bytes_per_nnz
    );
    let s = &doc.system;
    let _ =
        writeln!(out, "system: {} | {} UDP lanes @ {:.2} GHz", s.memory, s.lanes, s.freq_hz / 1e9);
    let _ = writeln!(out, "\n-- phases (wall {:.3} ms total) --", doc.wall_ns_total as f64 / 1e6);
    let _ = writeln!(out, "{:<20} {:>12} {:>14} {:>12}", "span", "wall us", "modeled us", "bytes");
    for sp in &doc.spans {
        let _ = writeln!(
            out,
            "{:<20} {:>12.1} {:>14.3} {:>12}",
            sp.name,
            sp.wall_ns as f64 / 1e3,
            sp.modeled_seconds * 1e6,
            sp.bytes
        );
    }
    let a = &doc.exec.accel;
    let _ = writeln!(out, "\n-- accelerator --");
    let _ = writeln!(
        out,
        "jobs {} (failed {}), makespan {} cycles, busy {}, utilization {:.1}%",
        a.jobs,
        a.jobs_failed,
        a.makespan_cycles,
        a.busy_cycles,
        a.lane_utilization * 100.0
    );
    let oc = &a.opclass;
    let total = oc.total().max(1);
    let _ = writeln!(
        out,
        "opcode classes: dispatch {:.1}% | alu {:.1}% | mem {:.1}% | stream {:.1}%",
        oc.dispatch as f64 * 100.0 / total as f64,
        oc.alu as f64 * 100.0 / total as f64,
        oc.mem as f64 * 100.0 / total as f64,
        oc.stream as f64 * 100.0 / total as f64
    );
    let st = &a.stage_cycles;
    let stotal = st.total().max(1);
    let _ = writeln!(
        out,
        "decode stages: huffman {:.1}% | snappy {:.1}% | delta {:.1}%",
        st.huffman as f64 * 100.0 / stotal as f64,
        st.snappy as f64 * 100.0 / stotal as f64,
        st.delta as f64 * 100.0 / stotal as f64
    );
    let cycles: Vec<u64> = doc.block_events.iter().map(|e| e.cycles).collect();
    let (min, max) = (cycles.iter().min().copied(), cycles.iter().max().copied());
    let mean = cycles.iter().sum::<u64>() as f64 / cycles.len().max(1) as f64;
    let _ = writeln!(out, "\n-- per-block decode cycles (log2 buckets) --");
    let _ = writeln!(
        out,
        "count {}, mean {mean:.0}, min {}, max {}",
        cycles.len(),
        min.unwrap_or(0),
        max.unwrap_or(0)
    );
    let mut buckets = BTreeMap::<(u64, u64), u64>::new();
    for &c in &cycles {
        *buckets.entry(log2_bucket(c)).or_default() += 1;
    }
    for ((lo, hi), n) in buckets {
        let _ = writeln!(out, "  [{lo:>10}, {hi:>10}] {n:>6}");
    }
    let _ = writeln!(out, "\n-- memory traffic ({}) --", doc.mem_traffic.memory);
    for src in &doc.mem_traffic.by_source {
        let _ = writeln!(
            out,
            "{:<20} read {:>12} B  write {:>12} B",
            src.source.name(),
            src.read_bytes,
            src.write_bytes
        );
    }
    let _ = writeln!(
        out,
        "total {} B, {:.3} us at peak bandwidth, {:.3} mJ",
        doc.mem_traffic.total_bytes,
        doc.mem_traffic.stream_seconds * 1e6,
        doc.mem_traffic.transfer_joules * 1e3
    );
    let e = &doc.exec;
    let _ = writeln!(out, "\n-- degradation --");
    let _ = writeln!(
        out,
        "retried {} | fell back {} | fallback bytes {} | retry cycles {} | degraded: {}",
        e.blocks_retried, e.blocks_fell_back, e.fallback_bytes, e.retry_cycles, e.degraded
    );
    let ov = &e.overlap;
    if ov.stages > 0 || ov.enabled {
        let _ = writeln!(out, "\n-- overlap --");
        let _ = writeln!(
            out,
            "pipelined: {} | stages {} | workers {} | decode {} cy | multiply {} cy",
            ov.enabled, ov.stages, ov.workers, ov.decode_cycles, ov.multiply_cycles
        );
        let _ = writeln!(
            out,
            "makespan {} cy overlapped vs {} cy serial (saved {} cy)",
            ov.overlapped_makespan_cycles,
            ov.serial_makespan_cycles,
            ov.saved_cycles()
        );
        let _ = writeln!(
            out,
            "cache: {} hits / {} misses / {} evictions, {} B served from cache",
            ov.cache_hits, ov.cache_misses, ov.cache_evictions, ov.cache_hit_bytes
        );
    }
    // Resilience section: lane-pool and breaker counters (the runs that
    // touched them) and the flight recorder (when it was on).
    let resilience = |k: &String| k.starts_with("pool.") || k.starts_with("breaker.");
    if doc.recorder.is_some() || doc.counters.keys().any(resilience) {
        let _ = writeln!(out, "\n-- resilience --");
        report_rows(&mut out, doc, "lane pool", POOL_COUNTERS);
        report_rows(&mut out, doc, "circuit breaker", BREAKER_COUNTERS);
        if let Some(rec) = &doc.recorder {
            let _ = writeln!(
                out,
                "flight recorder: {} events recorded, {} dropped (ring capacity {})",
                rec.recorded, rec.dropped, rec.capacity
            );
            for (kind, n) in &rec.by_kind {
                let _ = writeln!(out, "  {kind:<20} {n:>8}");
            }
        }
    }
    out
}

/// The inclusive range of the log₂ bucket `value` falls in: `[0, 0]`, then
/// `[2^(b-1), 2^b - 1]` for a value of `b` significant bits.
fn log2_bucket(value: u64) -> (u64, u64) {
    match u64::BITS - value.leading_zeros() {
        0 => (0, 0),
        bits => (1 << (bits - 1), u64::MAX >> (u64::BITS - bits)),
    }
}

/// One report line for the rows of a counter table that `doc` carries
/// (nothing when it carries none of them).
fn report_rows<S>(out: &mut String, doc: &TraceDocument, label: &str, rows: &[Derived<S>]) {
    use std::fmt::Write as _;
    let shown: Vec<String> = rows
        .iter()
        .filter(|row| doc.counters.contains_key(row.0))
        .map(|&(name, kind, _)| {
            let v = doc.counter(name);
            let field = name.split_once('.').map_or(name, |(_, field)| field);
            match kind {
                Counter => format!("{field} {v}"),
                Gauge(name_value) => format!("{field} {}", name_value(v)),
            }
        })
        .collect();
    if !shown.is_empty() {
        let _ = writeln!(out, "{label}: {}", shown.join(" | "));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log2_buckets_tile_the_u64_line() {
        assert_eq!(log2_bucket(0), (0, 0));
        let mut expected_lo = 1u64;
        for bits in 1..=64u32 {
            let (lo, hi) = log2_bucket(expected_lo);
            assert_eq!(lo, expected_lo, "{bits} bits");
            assert_eq!(hi, lo.wrapping_mul(2).wrapping_sub(1), "{bits} bits");
            // Every value in [lo, hi] lands in the same bucket.
            assert_eq!(log2_bucket(hi), (lo, hi));
            expected_lo = hi.wrapping_add(1);
        }
        assert_eq!(log2_bucket(u64::MAX), (1 << 63, u64::MAX));
        assert_eq!(log2_bucket(1000), (512, 1023));
    }

    #[test]
    fn counters_accumulate_and_default_to_zero() {
        let mut a = Telemetry::new();
        a.add("exec.blocks_retried", 2);
        a.add("exec.jobs", 10);
        a.add("exec.blocks_retried", 3);
        assert_eq!(a.counter("exec.blocks_retried"), 5);
        assert_eq!(a.counter("exec.jobs"), 10);
        assert_eq!(a.counter("never.touched"), 0);
    }

    #[test]
    fn block_events_sort_into_job_order() {
        let event = |job, cycles, outcome| BlockEvent {
            job,
            stream: StreamKind::Index,
            block: job,
            lane: job,
            cycles,
            outcome,
        };
        let mut a = Telemetry::new();
        a.span("exec.decode_batch", 100, 0.5, 64);
        a.block_event(event(1, 20, BlockOutcome::Retried));
        a.block_event(event(0, 10, BlockOutcome::Ok));
        a.sort_block_events();
        assert_eq!(a.spans.len(), 1);
        assert_eq!(a.block_events().iter().map(|e| e.job).collect::<Vec<_>>(), [0, 1]);
    }

    /// The counter tables drive both directions. Writing: a live batch, a
    /// live tiled run and a governed job seal exactly the key sets the
    /// hand-kept `tel.add` lists produced before the tables existed (listed
    /// here, not computed) — in particular a batch document carries no
    /// `pipeline.overlap.*`/`cache.*` key. Reading: tamper any counter whose
    /// source is in the document, round-trip through JSON, and `validate()`
    /// names it.
    #[test]
    fn counter_tables_write_the_documents_and_validate_reads_them_back() {
        use crate::arch::SystemConfig;
        use crate::exec::RecodedSpmv;
        use crate::json::{FromJson, ToJson};
        use crate::ladder::RunCtx;
        use crate::overlap::{OverlapConfig, OverlapExecutor};
        use crate::resilience::CircuitBreaker;
        use recode_codec::pipeline::MatrixCodecConfig;
        use recode_sparse::prelude::*;

        const EXEC: [&str; 6] = [
            "exec.blocks_fell_back",
            "exec.blocks_retried",
            "exec.fallback_bytes",
            "exec.jobs",
            "exec.jobs_failed",
            "exec.retry_cycles",
        ];
        const MEM: [&str; 4] = [
            "mem.read.compressed_stream",
            "mem.read.row_ptr",
            "mem.read.vectors",
            "mem.write.vectors",
        ];
        const POOL: [&str; 5] = [
            "pool.checkouts",
            "pool.dropped_at_capacity",
            "pool.fresh_builds",
            "pool.recycled_hits",
            "pool.returned",
        ];
        const TILED: [&str; 10] = [
            "cache.evictions",
            "cache.hit_bytes",
            "cache.hits",
            "cache.misses",
            "pipeline.overlap.decode_cycles",
            "pipeline.overlap.makespan_cycles",
            "pipeline.overlap.multiply_cycles",
            "pipeline.overlap.saved_cycles",
            "pipeline.overlap.serial_cycles",
            "pipeline.overlap.stages",
        ];
        const BREAKER: [&str; 3] = ["breaker.probes", "breaker.state", "breaker.trips"];
        let sorted = |parts: &[&[&str]]| {
            let mut keys: Vec<String> = parts.concat().into_iter().map(String::from).collect();
            keys.sort();
            keys
        };
        let keys = |doc: &TraceDocument| doc.counters.keys().cloned().collect::<Vec<_>>();

        let spec =
            GenSpec::Stencil2D { nx: 40, ny: 40, points: 5, values: ValueModel::StencilCoeffs };
        let a = generate(&spec, 3);
        let r = RecodedSpmv::new(&a, MatrixCodecConfig::udp_dsh()).unwrap();
        let sys = SystemConfig::ddr4();
        let x = vec![1.0; a.ncols()];
        let kernel = recode_sparse::spmv::SpmvKernel::Serial;

        let (_, _, batch) = r.spmv_traced(&sys, kernel, &x, RunCtx::default(), "batch").unwrap();
        assert_eq!(keys(&batch), sorted(&[&EXEC, &MEM, &POOL]));
        let ex = OverlapExecutor::new(&r, OverlapConfig::default());
        let (_, _, tiled) = ex.spmv_traced(&sys, &x, RunCtx::default(), "tiled").unwrap();
        assert_eq!(keys(&tiled), sorted(&[&EXEC, &MEM, &TILED]));
        let mut breaker = CircuitBreaker::new();
        let (mut tel, t_total) = (Telemetry::new(), std::time::Instant::now());
        let ctx = RunCtx { tel: Some(&mut tel), ..RunCtx::default() };
        let job = r.run_job(&sys, ctx, Some(&mut breaker));
        let stats = job.stats.as_ref().expect("a completed job has stats");
        let governed = r.seal(&sys, tel, stats, "job", t_total);
        // A bare decode multiplies nothing: no vector traffic.
        assert_eq!(keys(&governed), sorted(&[&EXEC, &MEM[..2], &POOL, &BREAKER]));
        // The report walks the same rows; the gauge prints as a state name.
        let report = render_report(&governed);
        assert!(report.contains("\nlane pool: checkouts "), "{report}");
        assert!(report.contains("\ncircuit breaker: trips 0 | probes 0 | state closed\n"));
        let mut unknown = governed.clone();
        unknown.counters.insert("breaker.state".into(), 7);
        assert!(render_report(&unknown).contains("| state unknown (7)\n"));

        let validated: Vec<&str> = EXEC_COUNTERS
            .iter()
            .map(|row| row.0)
            .chain(TILED_COUNTERS.iter().map(|row| row.0))
            .collect();
        assert_eq!(sorted(&[&validated]), sorted(&[&EXEC, &TILED]), "the tables are those rows");
        for doc in [&batch, &tiled, &governed] {
            assert!(doc.validate().is_empty(), "{:?}", doc.validate());
            for name in &validated {
                let bumped = doc.counter(name) + 1;
                let mut tampered = doc.clone();
                tampered.counters.insert(name.to_string(), bumped);
                let text = tampered.to_json().to_string_pretty();
                let parsed = crate::json::parse(&text).expect("tampered document parses");
                let errs = TraceDocument::from_json(&parsed).expect("and maps").validate();
                assert!(
                    errs.iter().any(|e| e.contains(&format!("counter {name} = {bumped} "))),
                    "{}: tampering `{name}` went unnoticed: {errs:?}",
                    doc.matrix.name
                );
            }
        }
    }
}
