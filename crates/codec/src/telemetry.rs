//! Per-stage codec telemetry: wall-clock timing and byte counters for the
//! software Delta/Snappy/Huffman stages, in both directions.
//!
//! A [`StageTelemetry`] is a bag of relaxed atomics so a single instance can
//! be shared (via `Arc`) across threads encoding or decoding at once with no
//! locking. The trace-off path carries zero cost: a [`Pipeline`] without
//! an attached telemetry never calls `Instant::now()`.
//!
//! [`Pipeline`]: crate::pipeline::Pipeline

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Lock-free accumulator for one (stage, direction) pair.
#[derive(Debug, Default)]
pub struct StageCounters {
    calls: AtomicU64,
    ns: AtomicU64,
    bytes_in: AtomicU64,
    bytes_out: AtomicU64,
}

impl StageCounters {
    /// Records one stage invocation.
    pub fn record(&self, started: Instant, bytes_in: usize, bytes_out: usize) {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.ns.fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.bytes_in.fetch_add(bytes_in as u64, Ordering::Relaxed);
        self.bytes_out.fetch_add(bytes_out as u64, Ordering::Relaxed);
    }

    /// Plain-value snapshot.
    pub fn snapshot(&self) -> StageStats {
        StageStats {
            calls: self.calls.load(Ordering::Relaxed),
            ns: self.ns.load(Ordering::Relaxed),
            bytes_in: self.bytes_in.load(Ordering::Relaxed),
            bytes_out: self.bytes_out.load(Ordering::Relaxed),
        }
    }
}

/// Snapshot of one (stage, direction) accumulator.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageStats {
    /// Stage invocations (blocks).
    pub calls: u64,
    /// Wall-clock nanoseconds across invocations.
    pub ns: u64,
    /// Bytes fed into the stage.
    pub bytes_in: u64,
    /// Bytes the stage produced.
    pub bytes_out: u64,
}

impl StageStats {
    /// Accumulates `other` into `self`.
    pub fn merge(&mut self, other: &StageStats) {
        self.calls += other.calls;
        self.ns += other.ns;
        self.bytes_in += other.bytes_in;
        self.bytes_out += other.bytes_out;
    }
}

/// One direction's three stages.
#[derive(Debug, Default)]
pub struct DirectionCounters {
    /// Zigzag-delta stage.
    pub delta: StageCounters,
    /// Snappy stage.
    pub snappy: StageCounters,
    /// Huffman stage.
    pub huffman: StageCounters,
}

impl DirectionCounters {
    fn snapshot(&self) -> DirectionStats {
        DirectionStats {
            delta: self.delta.snapshot(),
            snappy: self.snappy.snapshot(),
            huffman: self.huffman.snapshot(),
        }
    }
}

/// Snapshot of one direction's three stages.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DirectionStats {
    /// Zigzag-delta stage.
    pub delta: StageStats,
    /// Snappy stage.
    pub snappy: StageStats,
    /// Huffman stage.
    pub huffman: StageStats,
}

impl DirectionStats {
    /// Total nanoseconds across the three stages.
    pub fn total_ns(&self) -> u64 {
        self.delta.ns + self.snappy.ns + self.huffman.ns
    }

    /// Accumulates `other` into `self`.
    pub fn merge(&mut self, other: &DirectionStats) {
        self.delta.merge(&other.delta);
        self.snappy.merge(&other.snappy);
        self.huffman.merge(&other.huffman);
    }
}

/// Shared telemetry for the software codec: per-stage encode and decode
/// accumulators. Attach to a [`crate::pipeline::Pipeline`] via
/// `Pipeline::set_telemetry` or use
/// [`crate::pipeline::CompressedMatrix::compress_with_telemetry`].
#[derive(Debug, Default)]
pub struct StageTelemetry {
    /// Encode-direction counters.
    pub encode: DirectionCounters,
    /// Decode-direction counters.
    pub decode: DirectionCounters,
}

impl StageTelemetry {
    /// Fresh zeroed telemetry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Plain-value snapshot, serializable into a trace document.
    pub fn snapshot(&self) -> CodecStageReport {
        CodecStageReport { encode: self.encode.snapshot(), decode: self.decode.snapshot() }
    }
}

/// Serializable snapshot of a [`StageTelemetry`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CodecStageReport {
    /// Encode-direction stage stats.
    pub encode: DirectionStats,
    /// Decode-direction stage stats.
    pub decode: DirectionStats,
}

impl CodecStageReport {
    /// Accumulates `other` into `self`.
    pub fn merge(&mut self, other: &CodecStageReport) {
        self.encode.merge(&other.encode);
        self.decode.merge(&other.decode);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_accumulates_all_fields() {
        let tel = StageTelemetry::new();
        let t0 = Instant::now();
        tel.encode.snappy.record(t0, 100, 40);
        tel.encode.snappy.record(t0, 50, 20);
        let snap = tel.snapshot();
        assert_eq!(snap.encode.snappy.calls, 2);
        assert_eq!(snap.encode.snappy.bytes_in, 150);
        assert_eq!(snap.encode.snappy.bytes_out, 60);
        assert_eq!(snap.decode.snappy, StageStats::default());
    }

    #[test]
    fn merge_is_fieldwise_addition() {
        let mut a = CodecStageReport::default();
        let mut b = CodecStageReport::default();
        a.decode.delta = StageStats { calls: 1, ns: 10, bytes_in: 2, bytes_out: 3 };
        b.decode.delta = StageStats { calls: 4, ns: 40, bytes_in: 5, bytes_out: 6 };
        a.merge(&b);
        assert_eq!(a.decode.delta, StageStats { calls: 5, ns: 50, bytes_in: 7, bytes_out: 9 });
        assert_eq!(a.decode.total_ns(), 50);
    }

    #[test]
    fn shared_across_threads_counts_every_record() {
        use std::sync::Arc;
        let tel = Arc::new(StageTelemetry::new());
        let mut handles = Vec::new();
        for _ in 0..4 {
            let tel = Arc::clone(&tel);
            handles.push(std::thread::spawn(move || {
                for _ in 0..100 {
                    tel.decode.huffman.record(Instant::now(), 8, 16);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let snap = tel.snapshot();
        assert_eq!(snap.decode.huffman.calls, 400);
        assert_eq!(snap.decode.huffman.bytes_out, 6400);
    }
}
