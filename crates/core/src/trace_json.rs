//! `recode-trace/v3` ⇄ [`Json`](crate::json::Json): the one mapping between a
//! [`TraceDocument`] (and the public fields of everything nested in it) and
//! its JSON form. `recode spmv --trace` and `recode chaos` write
//! through it; `recode report`, `recode trace-check` and the tests read.
//!
//! Field names, nesting and order are the schema (the hand emitter in
//! `tests/common/golden.rs` is its independent oracle). Every field is
//! written and required on reading (`recorder` is `null` when the run had
//! the flight recorder off); keys the schema does not list are ignored. The
//! schema stamp itself is checked by [`TraceDocument::validate`].

use crate::exec::ExecStats;
use crate::overlap::OverlapStats;
use crate::telemetry::{
    BlockEvent, BlockOutcome, MatrixMeta, RecorderSummary, Span, StreamKind, SystemMeta,
    TraceDocument,
};
use crate::{json_enum, json_struct};
use recode_mem::traffic::{SourceTraffic, TrafficReport, TrafficSource};
use recode_udp::accel::{AccelReport, LaneProfile, StageCycles};
use recode_udp::lane::OpClassCycles;

json_struct!(MatrixMeta { name, nrows, ncols, nnz, compressed_bytes, bytes_per_nnz });
json_struct!(SystemMeta { memory, lanes, freq_hz });
json_struct!(Span { name, wall_ns, modeled_seconds, bytes });
json_enum!(StreamKind { Index, Value });
json_enum!(BlockOutcome { Ok, Retried, FellBack });
json_struct!(BlockEvent { job, stream, block, lane, cycles, outcome });
json_struct!(RecorderSummary { recorded, dropped, capacity, by_kind });
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
    jobs,
    jobs_failed,
    lanes,
    makespan_cycles,
    busy_cycles,
    injected_stall_cycles,
    output_bytes,
    lane_utilization,
    freq_hz,
    lane_profiles,
    opclass,
    stage_cycles
});
json_struct!(OverlapStats {
    enabled,
    stages,
    workers,
    decode_cycles,
    multiply_cycles,
    overlapped_makespan_cycles,
    serial_makespan_cycles,
    cache_hits,
    cache_misses,
    cache_evictions,
    cache_hit_bytes
});

json_struct!(ExecStats {
    accel,
    mem_stream_seconds,
    dma_seconds,
    compressed_bytes,
    blocks_retried,
    blocks_fell_back,
    fallback_bytes,
    retry_cycles,
    backoff_cycles,
    degraded,
    software_decode,
    blocks_ok,
    blocks_recovered,
    overlap
});

json_struct!(TraceDocument {
    schema,
    matrix,
    system,
    wall_ns_total,
    spans,
    counters,
    block_events,
    mem_traffic,
    exec,
    recorder
});
