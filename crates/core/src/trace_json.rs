//! `recode-trace/v1|v2` ⇄ [`Json`]: the one mapping between a
//! [`TraceDocument`] (and the public fields of everything nested in it) and
//! its JSON form. `recode spmv --trace` and `recode chaos` write
//! through it; `recode report`, `recode trace-check` and the tests read.
//!
//! Field names, nesting and order are the schema (the hand emitter in
//! `tests/common/golden.rs` is its independent oracle). Reading ignores keys
//! it does not know, so a newer writer's additions do not break it, and
//! fields a generation of the schema added after v1 default when absent.

use crate::exec::ExecStats;
use crate::json::{field, required, FromJson, Json, ToJson};
use crate::overlap::OverlapStats;
use crate::telemetry::{
    BlockEvent, BlockOutcome, CycleHistogram, MatrixMeta, RecorderSummary, Span, StreamKind,
    SystemMeta, TraceDocument,
};
use crate::{json_enum, json_struct};
use recode_codec::telemetry::{CodecStageReport, DirectionStats, StageStats};
use recode_mem::traffic::{SourceTraffic, TrafficReport, TrafficSource};
use recode_udp::accel::{AccelReport, LaneProfile, StageCycles};
use recode_udp::lane::OpClassCycles;

json_struct!(MatrixMeta { name, nrows, ncols, nnz, compressed_bytes, bytes_per_nnz });
json_struct!(SystemMeta { memory, lanes, freq_hz });
json_struct!(Span { name, wall_ns, modeled_seconds, bytes });
json_struct!(CycleHistogram { count, sum, min, max, buckets });
json_enum!(StreamKind { Index, Value });
json_enum!(BlockOutcome { Ok, Retried, FellBack });
json_struct!(BlockEvent { job, stream, block, lane, cycles, outcome });
json_struct!(RecorderSummary { recorded, dropped, capacity, by_kind });
json_struct!(StageStats { calls, ns, bytes_in, bytes_out });
json_struct!(DirectionStats { delta, snappy, huffman });
json_struct!(CodecStageReport { encode, decode });
json_enum!(TrafficSource { CompressedStream, FallbackRefetch, Vectors, RowPtr, DecodedCache });
json_struct!(SourceTraffic { source, read_bytes, write_bytes });
json_struct!(TrafficReport { memory, by_source, total_bytes, stream_seconds, transfer_joules });
json_struct!(OpClassCycles { dispatch, alu, mem, stream });
json_struct!(StageCycles { huffman, snappy, delta });
json_struct!(LaneProfile {
    lane,
    jobs,
    jobs_failed,
    busy_cycles,
    stall_cycles,
    output_bytes,
    opclass
});
json_struct!(AccelReport {
    jobs, jobs_failed, lanes, makespan_cycles, busy_cycles, injected_stall_cycles, output_bytes,
    lane_utilization, freq_hz;
    lane_profiles, opclass, stage_cycles
});
json_struct!(OverlapStats {;
    enabled, stages, workers, decode_cycles, multiply_cycles, overlapped_makespan_cycles,
    serial_makespan_cycles, cache_hits, cache_misses, cache_evictions, cache_hit_bytes
});

/// `backoff_cycles` and `software_decode` are written only when set, so
/// traces from runs that never met a budget or a breaker stay byte-identical
/// to pre-resilience documents; `blocks_ok`/`blocks_recovered` are in-memory
/// accounting and are not part of the schema.
impl ToJson for ExecStats {
    fn to_json(&self) -> Json {
        let mut j = Json::obj()
            .set("accel", self.accel.to_json())
            .set("mem_stream_seconds", self.mem_stream_seconds.to_json())
            .set("dma_seconds", self.dma_seconds.to_json())
            .set("compressed_bytes", self.compressed_bytes.to_json())
            .set("blocks_retried", self.blocks_retried.to_json())
            .set("blocks_fell_back", self.blocks_fell_back.to_json())
            .set("fallback_bytes", self.fallback_bytes.to_json())
            .set("retry_cycles", self.retry_cycles.to_json());
        if self.backoff_cycles != 0 {
            j = j.set("backoff_cycles", self.backoff_cycles.to_json());
        }
        j = j.set("degraded", self.degraded.to_json());
        if self.software_decode {
            j = j.set("software_decode", self.software_decode.to_json());
        }
        j.set("overlap", self.overlap.to_json())
    }
}

impl FromJson for ExecStats {
    fn from_json(j: &Json) -> Result<Self, String> {
        Ok(ExecStats {
            accel: required(j, "accel")?,
            mem_stream_seconds: required(j, "mem_stream_seconds")?,
            dma_seconds: required(j, "dma_seconds")?,
            compressed_bytes: required(j, "compressed_bytes")?,
            blocks_retried: required(j, "blocks_retried")?,
            blocks_fell_back: required(j, "blocks_fell_back")?,
            fallback_bytes: required(j, "fallback_bytes")?,
            retry_cycles: field(j, "retry_cycles")?.unwrap_or_default(),
            backoff_cycles: field(j, "backoff_cycles")?.unwrap_or_default(),
            degraded: required(j, "degraded")?,
            software_decode: field(j, "software_decode")?.unwrap_or_default(),
            blocks_ok: 0,
            blocks_recovered: 0,
            overlap: field(j, "overlap")?.unwrap_or_default(),
        })
    }
}

impl TraceDocument {
    /// The document as a JSON tree (`recorder` only when present).
    pub fn to_json(&self) -> Json {
        let mut j = Json::obj()
            .set("schema", self.schema.to_json())
            .set("matrix", self.matrix.to_json())
            .set("system", self.system.to_json())
            .set("wall_ns_total", self.wall_ns_total.to_json())
            .set("spans", self.spans.to_json())
            .set("counters", self.counters.to_json())
            .set("block_cycles", self.block_cycles.to_json())
            .set("block_events", self.block_events.to_json())
            .set("codec_stages", self.codec_stages.to_json())
            .set("mem_traffic", self.mem_traffic.to_json())
            .set("exec", self.exec.to_json());
        if let Some(rec) = &self.recorder {
            j = j.set("recorder", rec.to_json());
        }
        j
    }

    /// Reads a document back from its JSON tree. Structural only: run
    /// [`TraceDocument::validate`] on the result for the schema stamp and
    /// the pipeline's invariants.
    ///
    /// # Errors
    /// A message with the path of the first missing or mistyped field.
    pub fn from_json(j: &Json) -> Result<Self, String> {
        Ok(TraceDocument {
            schema: required(j, "schema")?,
            matrix: required(j, "matrix")?,
            system: required(j, "system")?,
            wall_ns_total: required(j, "wall_ns_total")?,
            spans: required(j, "spans")?,
            counters: required(j, "counters")?,
            block_cycles: required(j, "block_cycles")?,
            block_events: required(j, "block_events")?,
            codec_stages: required(j, "codec_stages")?,
            mem_traffic: required(j, "mem_traffic")?,
            exec: required(j, "exec")?,
            recorder: field(j, "recorder")?,
        })
    }
}
