//! Integration tests for the observability path: a traced SpMV must produce
//! a schema-stable JSON document whose numbers are internally consistent —
//! spans fit inside the wall clock, per-lane cycles sum to the batch totals,
//! traffic is attributed by source, and the JSON form round-trips losslessly.

use recode_spmv::codec::pipeline::MatrixCodecConfig;
use recode_spmv::core::exec::RecodedSpmv;
use recode_spmv::core::json::{FromJson, ToJson};
use recode_spmv::core::telemetry::{RecorderSummary, TraceDocument, TRACE_SCHEMA};
use recode_spmv::core::SystemConfig;
use recode_spmv::prelude::*;
use recode_spmv::sparse::spmv::SpmvKernel;

fn test_matrix() -> Csr {
    generate(
        &GenSpec::Stencil2D {
            nx: 70,
            ny: 70,
            points: 9,
            values: ValueModel::QuantizedGaussian { levels: 32 },
        },
        23,
    )
}

fn traced_run() -> (Csr, TraceDocument) {
    let a = test_matrix();
    let r = RecodedSpmv::new(&a, MatrixCodecConfig::udp_dsh()).unwrap();
    let sys = SystemConfig::ddr4();
    let x = vec![1.0; a.ncols()];
    let (_, _, doc) =
        r.spmv_traced(&sys, SpmvKernel::Serial, &x, RunCtx::default(), "stencil70").unwrap();
    (a, doc)
}

/// `to_json` → text → `parse` → `from_json`. The result must write the same
/// text again (so every field of the schema survived, a non-finite float
/// included) and still validate.
fn round_trip(doc: &TraceDocument) -> TraceDocument {
    let text = doc.to_json().to_string_pretty();
    let back = parse_trace(&text);
    assert_eq!(back.to_json().to_string_pretty(), text, "round trip changed the document");
    assert!(back.validate().is_empty(), "round-tripped trace must validate: {:?}", back.validate());
    back
}

fn parse_trace(text: &str) -> TraceDocument {
    let json = recode_spmv::core::json::parse(text).expect("trace text is JSON");
    TraceDocument::from_json(&json).expect("JSON maps onto a TraceDocument")
}

#[test]
fn trace_document_round_trips_through_json() {
    // A live batch run, with per-lane profiles and pool counters.
    let (_, mut doc) = traced_run();
    let back = round_trip(&doc);
    assert_eq!(back.schema, TRACE_SCHEMA);
    assert_eq!(back.matrix, doc.matrix);
    assert_eq!(back.system, doc.system);
    assert_eq!(back.wall_ns_total, doc.wall_ns_total);
    assert_eq!(back.spans, doc.spans);
    assert_eq!(back.counters, doc.counters);
    assert_eq!(back.block_events, doc.block_events);
    assert_eq!(back.mem_traffic, doc.mem_traffic);
    assert_eq!(back.exec.blocks_ok, doc.exec.blocks_ok);
    assert_eq!(back.exec.accel.lane_profiles.len(), doc.exec.accel.lanes);
    assert_eq!(back.exec.accel.stage_cycles, doc.exec.accel.stage_cycles);
    assert!(back.recorder.is_none());

    // The same run with a flight-recorder summary attached.
    let by_kind = std::collections::BTreeMap::from([("span_begin".to_string(), 2u64)]);
    let summary = RecorderSummary { recorded: 2, dropped: 0, capacity: 64, by_kind };
    doc.recorder = Some(summary.clone());
    assert_eq!(round_trip(&doc).recorder, Some(summary));

    // The golden fixture: a run with the recorder off writes it as `null`.
    let golden = include_str!("fixtures/golden_trace.json");
    assert!(golden.contains("\"recorder\": null"));
    let doc = round_trip(&parse_trace(golden));
    assert_eq!(doc.schema, TRACE_SCHEMA);
    assert!(doc.recorder.is_none());

    // Keys a newer writer might add, at the top and nested, are ignored.
    let extended = golden
        .replacen(
            "\"schema\":",
            "\"generator\": {\"name\": \"x\", \"tags\": [1, null]},\n  \"schema\":",
            1,
        )
        .replacen("\"jobs\":", "\"queue_depth\": 4, \"jobs\":", 1);
    assert_ne!(extended, golden);
    assert_eq!(parse_trace(&extended).to_json(), doc.to_json());

    // A matrix with no non-zeros: nothing to decode, every ratio finite or
    // written as `null`, and the trace still reads back.
    let empty = Csr::try_from_parts(5, 5, vec![0; 6], vec![], vec![]).unwrap();
    let r = RecodedSpmv::new(&empty, MatrixCodecConfig::udp_dsh()).unwrap();
    let x = vec![1.0; 5];
    let (y, _, mut doc) = r
        .spmv_traced(&SystemConfig::ddr4(), SpmvKernel::Serial, &x, RunCtx::default(), "empty")
        .unwrap();
    assert_eq!(y, vec![0.0; 5]);
    assert_eq!(round_trip(&doc).matrix.nnz, 0);
    doc.matrix.bytes_per_nnz = f64::INFINITY;
    doc.exec.accel.lane_utilization = f64::NAN;
    let back = round_trip(&doc);
    assert!(back.matrix.bytes_per_nnz.is_nan() && back.exec.accel.lane_utilization.is_nan());
}

#[test]
fn span_wall_times_fit_inside_the_total() {
    let (_, doc) = traced_run();
    assert!(doc.wall_ns_total > 0);
    assert!(
        doc.spans_wall_ns() <= doc.wall_ns_total,
        "phase spans ({} ns) exceed the run's wall clock ({} ns)",
        doc.spans_wall_ns(),
        doc.wall_ns_total
    );
    // Every expected phase is present, in execution order, and the
    // simulated decode actually cost wall time.
    let names: Vec<&str> = doc.spans.iter().map(|s| s.name.as_str()).collect();
    assert_eq!(
        names,
        [
            "exec.decode_batch",
            "exec.reassemble",
            "exec.mem_stream",
            "exec.dma",
            "exec.cpu_multiply"
        ],
        "clean run emits exactly the happy-path phases"
    );
    let batch = &doc.spans[0];
    assert!(batch.wall_ns > 0, "simulating the decode takes host time");
    assert!(batch.modeled_seconds > 0.0, "and models accelerator time");
    assert!(batch.bytes > 0);
}

#[test]
fn per_lane_and_per_stage_breakdowns_are_consistent() {
    let (a, doc) = traced_run();
    let accel = &doc.exec.accel;
    assert_eq!(accel.lane_profiles.len(), accel.lanes, "one profile per lane");
    let lane_busy: u64 = accel.lane_profiles.iter().map(|p| p.busy_cycles).sum();
    assert_eq!(lane_busy, accel.busy_cycles, "lane profiles tile the busy cycles");
    // Opcode-class attribution covers every busy cycle of the batch.
    assert_eq!(accel.opclass.total(), accel.busy_cycles);
    assert!(accel.opclass.stream > 0, "DSH decode is stream-dominated");
    // Stage cycles partition each job's cycles, so they sum to busy too.
    assert_eq!(accel.stage_cycles.total(), accel.busy_cycles);
    assert!(accel.stage_cycles.huffman > 0);
    assert!(accel.stage_cycles.snappy > 0);
    assert!(accel.stage_cycles.delta > 0);
    // Every block produced an event, and the events carry every busy cycle.
    assert_eq!(doc.block_events.len(), accel.jobs);
    assert_eq!(doc.block_events.iter().map(|e| e.cycles).sum::<u64>(), accel.busy_cycles);
    assert_eq!(doc.exec.blocks_ok, accel.jobs, "a clean run decodes every block first time");
    assert_eq!(doc.exec.compressed_bytes, doc.counter("mem.read.compressed_stream") as usize);
    assert_eq!(doc.matrix.nnz, a.nnz());
}

#[test]
fn memory_traffic_is_attributed_by_source() {
    let (a, doc) = traced_run();
    assert!(doc.counter("mem.read.compressed_stream") > 0);
    assert!(doc.counter("mem.read.row_ptr") >= (a.nrows() as u64 + 1) * 8);
    assert_eq!(doc.counter("mem.read.vectors"), (a.ncols() * 8) as u64);
    assert_eq!(doc.counter("mem.write.vectors"), (a.nrows() * 8) as u64);
    assert_eq!(doc.counter("mem.read.fallback_refetch"), 0, "clean run never re-fetches");
    let by_total: u64 =
        doc.mem_traffic.by_source.iter().map(|s| s.read_bytes + s.write_bytes).sum();
    assert_eq!(by_total, doc.mem_traffic.total_bytes);
    assert!(doc.mem_traffic.stream_seconds > 0.0);
    assert!(doc.mem_traffic.transfer_joules > 0.0);
}

#[test]
fn render_report_mentions_every_section() {
    let (_, doc) = traced_run();
    let text = recode_spmv::core::telemetry::render_report(&doc);
    for needle in [
        "recode trace report",
        "stencil70",
        "exec.decode_batch",
        "opcode classes",
        "decode stages",
        "log2 buckets",
        "memory traffic",
        "compressed_stream",
        "degradation",
        // The batch path reports lane-pool activity.
        "-- resilience --",
        "lane pool: checkouts ",
    ] {
        assert!(text.contains(needle), "report missing `{needle}`:\n{text}");
    }
}

/// The batch traced path reports `pool.*` counters: the document carries
/// the pool's checkout accounting under the one schema stamp.
#[test]
fn batch_traced_documents_carry_pool_counters() {
    let (_, doc) = traced_run();
    assert_eq!(doc.schema, TRACE_SCHEMA);
    assert!(doc.counter("pool.checkouts") > 0, "every decode job checks a lane out");
    assert_eq!(
        doc.counter("pool.checkouts"),
        doc.counter("pool.recycled_hits") + doc.counter("pool.fresh_builds"),
        "checkouts partition into recycled hits and fresh builds"
    );
    assert!(doc.validate().is_empty(), "{:?}", doc.validate());
}

/// A flight-recorder summary renders as the recorder section; an
/// inconsistent summary (more drained than recorded) fails validation.
#[test]
fn recorder_summary_renders_and_is_validated() {
    let (_, mut doc) = traced_run();
    let mut by_kind = std::collections::BTreeMap::new();
    by_kind.insert("block_outcome".to_string(), 40u64);
    by_kind.insert("span_begin".to_string(), 2u64);
    doc.recorder = Some(RecorderSummary { recorded: 42, dropped: 0, capacity: 65536, by_kind });
    assert!(doc.validate().is_empty(), "{:?}", doc.validate());
    let text = recode_spmv::core::telemetry::render_report(&doc);
    assert!(text.contains("flight recorder: 42 events recorded"), "{text}");
    assert!(text.contains("block_outcome"), "{text}");

    doc.recorder.as_mut().unwrap().recorded = 10;
    let errs = doc.validate();
    assert!(
        errs.iter().any(|e| e.contains("recorder summary")),
        "drained > recorded must be flagged: {errs:?}"
    );
}

/// Certified-bound floor (ISSUE 9): a block event that claims to have run
/// on a lane (Ok or Retried) but recorded zero cycles contradicts every
/// certified `CycleBound` minimum, so `validate()` must flag it. Fallback
/// events legitimately carry zero and stay exempt.
#[test]
fn zero_cycle_lane_events_fail_validation() {
    let (_, mut doc) = traced_run();
    assert!(doc.validate().is_empty(), "{:?}", doc.validate());
    assert!(!doc.block_events.is_empty(), "traced run has block events");
    doc.block_events[0].cycles = 0;
    let errs = doc.validate();
    assert!(
        errs.iter().any(|e| e.contains("0 cycles")),
        "zero-cycle lane event must be flagged: {errs:?}"
    );
}

/// There is one schema: the golden fixture carries its stamp and validates,
/// and the same document under an older generation's stamp does not. A
/// run that touched no pool, breaker or recorder renders no resilience
/// section.
#[test]
fn documents_of_another_schema_fail_validation() {
    let golden = include_str!("fixtures/golden_trace.json");
    let doc = parse_trace(golden);
    assert_eq!(doc.schema, TRACE_SCHEMA);
    assert!(doc.validate().is_empty(), "{:?}", doc.validate());
    let text = recode_spmv::core::telemetry::render_report(&doc);
    assert!(text.contains("recode trace report (recode-trace/v3)"), "{text}");
    assert!(!text.contains("-- resilience --"), "{text}");
    for old in ["recode-trace/v1", "recode-trace/v2"] {
        let errs = parse_trace(&golden.replace(TRACE_SCHEMA, old)).validate();
        assert_eq!(errs, [format!("schema `{old}` is not `{TRACE_SCHEMA}`")]);
    }
}

/// The block events are the run's tally: an event whose outcome disagrees
/// with the exec stats, or one event too many, fails validation.
#[test]
fn block_events_must_match_the_run_tally() {
    let (_, doc) = traced_run();
    let mut relabeled = doc.clone();
    relabeled.block_events[0].outcome = recode_spmv::core::BlockOutcome::Retried;
    let errs = relabeled.validate();
    assert!(
        errs.iter().any(|e| e.contains("block events are Retried, exec stats say 0")),
        "{errs:?}"
    );
    let mut extra = doc.clone();
    extra.block_events.push(doc.block_events[0]);
    let errs = extra.validate();
    assert!(errs.iter().any(|e| e.contains("decode jobs")), "{errs:?}");
}
