//! Golden-trace schema pinning.
//!
//! `tests/fixtures/golden_trace.json` is the canonical `recode-trace/v3`
//! document for one fixed pipelined run (16x16 5-point stencil, seed 7,
//! cache capacity 8). The trace schema is a public artifact —
//! `recode report` / `recode trace-check` consume it — so any field
//! rename, reorder, or value drift must be a conscious decision, not an
//! accident. This suite regenerates the canonical run and compares it to
//! the fixture field by field.
//!
//! Everything deterministic is pinned: cycle counts (the lane simulator is
//! cycle-exact), modeled seconds, traffic bytes, counters, block events.
//! Host wall-clock fields (`wall_ns_total`, span `wall_ns`) are normalized
//! to zero in both the fixture and the regenerated document.
//!
//! The serializer (shared with `trace_golden_tuned.rs` via
//! `tests/common/golden.rs`) is a hand-rolled JSON emitter, independent of
//! `core::json`, so the fixtures have an oracle the engine's own writer
//! cannot drift with. To regenerate the fixture after an
//! intentional schema change:
//! `RECODE_BLESS_TRACE=1 cargo test --test trace_golden`.

#[path = "common/golden.rs"]
mod golden;

use golden::{assert_matches_fixture, canonical_doc, to_golden_json};
use recode_spmv::core::json::FromJson;
use recode_spmv::core::telemetry::TraceDocument;

const FIXTURE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/golden_trace.json");

#[test]
fn golden_trace_matches_the_canonical_run() {
    let doc = canonical_doc();
    let errs = doc.validate();
    assert!(errs.is_empty(), "canonical run fails its own invariants: {errs:?}");
    assert_matches_fixture(&to_golden_json(&doc), FIXTURE, true);
}

#[test]
fn golden_fixture_pins_the_headline_fields() {
    let doc = canonical_doc();
    // Field-level pins, independent of the byte-level comparison: the
    // contract downstream consumers (report/trace-check, dashboards) lean
    // on hardest.
    assert_eq!(doc.schema, "recode-trace/v3");
    assert_eq!(doc.matrix.name, "golden_stencil16");
    assert_eq!((doc.matrix.nrows, doc.matrix.ncols), (256, 256));
    assert!(doc.matrix.nnz > 0);
    assert_eq!(doc.system.lanes, 64);
    let span_names: Vec<&str> = doc.spans.iter().map(|s| s.name.as_str()).collect();
    assert_eq!(span_names, ["exec.overlap", "exec.mem_stream", "exec.dma"]);
    for key in [
        "exec.jobs",
        "pipeline.overlap.stages",
        "pipeline.overlap.decode_cycles",
        "pipeline.overlap.multiply_cycles",
        "pipeline.overlap.makespan_cycles",
        "pipeline.overlap.serial_cycles",
        "pipeline.overlap.saved_cycles",
        "cache.hits",
        "cache.misses",
        "mem.read.compressed_stream",
    ] {
        assert!(doc.counters.contains_key(key), "counter `{key}` missing from the trace");
    }
    assert!(doc.exec.overlap.enabled);
    assert_eq!(
        doc.block_events.len() as u64,
        doc.counter("exec.jobs"),
        "one block event per decode job"
    );
}

/// The flight recorder must observe, never perturb: with the recorder ON
/// the canonical run renders byte-for-byte identical to the fixture — no
/// re-blessing.
#[test]
fn golden_trace_is_unchanged_with_the_recorder_enabled() {
    use recode_spmv::core::recorder;
    // Bless first if the fixture does not exist yet; the byte test owns
    // that flow.
    let Ok(golden) = std::fs::read_to_string(FIXTURE) else { return };
    recorder::enable(recorder::DEFAULT_CAPACITY);
    let doc = canonical_doc();
    let events = recorder::drain();
    recorder::disable();
    assert!(!events.is_empty(), "recorder must capture the canonical run");
    let rendered = to_golden_json(&doc);
    assert_eq!(rendered, golden, "recorder-on run must not move a byte of the golden trace");
}

/// The fixture must parse back into a `TraceDocument` through the JSON
/// stack the CLI reads traces with, and still validate — proving the
/// hand-rolled emitter writes exactly the schema `from_json` reads.
#[test]
fn golden_fixture_parses_through_the_json_stack() {
    // When bless has not been run yet, the byte test reports it.
    let Ok(golden) = std::fs::read_to_string(FIXTURE) else { return };
    let json = recode_spmv::core::json::parse(&golden).expect("golden fixture must be JSON");
    let doc = TraceDocument::from_json(&json).expect("golden fixture must map onto a trace");
    let errs = doc.validate();
    assert!(errs.is_empty(), "parsed fixture fails validation: {errs:?}");
    let live = canonical_doc();
    assert_eq!(doc.schema, live.schema);
    assert_eq!(doc.matrix, live.matrix);
    assert_eq!(doc.counters, live.counters);
    assert_eq!(doc.block_events, live.block_events);
    assert_eq!(doc.exec.blocks_ok, live.exec.blocks_ok);
}
