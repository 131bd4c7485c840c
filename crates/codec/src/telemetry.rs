//! Per-stage codec timing: wall-clock nanoseconds and byte counters for the
//! software Delta/Snappy/Huffman stages, in both directions.
//!
//! The accumulator *is* the report the trace schema carries
//! ([`CodecStageReport`]), behind one mutex in a [`StageSink`] so a single
//! instance can be shared by the pipelines of both streams and by threads
//! decoding at once. The trace-off path carries zero cost: a [`Pipeline`]
//! without a sink never calls `Instant::now()`.
//!
//! [`Pipeline`]: crate::pipeline::Pipeline

use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

/// One (stage, direction) accumulator.
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
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DirectionStats {
    /// Delta stage.
    pub delta: StageStats,
    /// Snappy stage.
    pub snappy: StageStats,
    /// Huffman stage.
    pub huffman: StageStats,
}

/// Per-stage encode and decode stats of the software codec, as serialized
/// into a trace document.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CodecStageReport {
    /// Encode-direction stage stats.
    pub encode: DirectionStats,
    /// Decode-direction stage stats.
    pub decode: DirectionStats,
}

/// Names one (direction, stage) cell of a report.
pub type StageCell = fn(&mut CodecStageReport) -> &mut StageStats;

/// The six cells, by name.
impl CodecStageReport {
    pub const ENCODE_DELTA: StageCell = |r| &mut r.encode.delta;
    pub const ENCODE_SNAPPY: StageCell = |r| &mut r.encode.snappy;
    pub const ENCODE_HUFFMAN: StageCell = |r| &mut r.encode.huffman;
    pub const DECODE_HUFFMAN: StageCell = |r| &mut r.decode.huffman;
    pub const DECODE_SNAPPY: StageCell = |r| &mut r.decode.snappy;
    pub const DECODE_DELTA: StageCell = |r| &mut r.decode.delta;
}

/// A shared [`CodecStageReport`] that timed pipelines accumulate into.
/// Attach one with [`crate::pipeline::Pipeline::time_stages`], or pass it to
/// [`crate::pipeline::CompressedMatrix::compress_timed`].
#[derive(Debug, Clone, Default)]
pub struct StageSink(Arc<Mutex<CodecStageReport>>);

impl StageSink {
    /// The report accumulated so far.
    pub fn report(&self) -> CodecStageReport {
        // Every update leaves the plain counters valid, so a poisoned lock
        // still guards a usable report.
        *self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Records one invocation of the stage `cell` names, started at
    /// `started` and ending now.
    pub fn record(&self, cell: StageCell, started: Instant, bytes_in: usize, bytes_out: usize) {
        let ns = started.elapsed().as_nanos() as u64;
        let mut report = self.0.lock().unwrap_or_else(PoisonError::into_inner);
        let once =
            StageStats { calls: 1, ns, bytes_in: bytes_in as u64, bytes_out: bytes_out as u64 };
        cell(&mut report).merge(&once);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_accumulates_all_fields() {
        let sink = StageSink::default();
        let t0 = Instant::now();
        sink.record(CodecStageReport::ENCODE_SNAPPY, t0, 100, 40);
        sink.record(CodecStageReport::ENCODE_SNAPPY, t0, 50, 20);
        let report = sink.report();
        assert_eq!(report.encode.snappy.calls, 2);
        assert_eq!(report.encode.snappy.bytes_in, 150);
        assert_eq!(report.encode.snappy.bytes_out, 60);
        assert_eq!(report.decode.snappy, StageStats::default());
    }

    #[test]
    fn merge_is_fieldwise_addition() {
        let mut a = StageStats { calls: 1, ns: 10, bytes_in: 2, bytes_out: 3 };
        a.merge(&StageStats { calls: 4, ns: 40, bytes_in: 5, bytes_out: 6 });
        assert_eq!(a, StageStats { calls: 5, ns: 50, bytes_in: 7, bytes_out: 9 });
    }

    #[test]
    fn shared_across_threads_counts_every_record() {
        let sink = StageSink::default();
        let mut handles = Vec::new();
        for _ in 0..4 {
            let sink = sink.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..100 {
                    sink.record(CodecStageReport::DECODE_HUFFMAN, Instant::now(), 8, 16);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let report = sink.report();
        assert_eq!(report.decode.huffman.calls, 400);
        assert_eq!(report.decode.huffman.bytes_out, 6400);
    }
}
