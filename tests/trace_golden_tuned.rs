//! Golden fixtures for the auto-tuned pipeline (ISSUE 8).
//!
//! Two artifacts are pinned for the canonical 16x16 5-point stencil
//! (seed 7, the same matrix `trace_golden.rs` uses):
//!
//! 1. `tests/fixtures/tuned_golden_stencil16.json` — the persisted
//!    `TunedConfig` the deterministic tuner selects for it. Any change to
//!    the search space, the cost model, or the JSON layout moves these
//!    bytes and must be re-blessed consciously.
//! 2. `tests/fixtures/golden_trace_tuned.json` — the `recode-trace/v3`
//!    document for the pipelined run driven by that config (built through
//!    `RecodedSpmv::new_tuned` + `OverlapExecutor::from_tuned`, cache 8,
//!    one worker), wall-clock normalized exactly like the default fixture.
//!
//! The suite also re-renders the DEFAULT canonical run with no bless
//! branch: adding the tuned path must leave `golden_trace.json`
//! byte-for-byte untouched, even under `RECODE_BLESS_TRACE=1`.
//!
//! To regenerate the two tuned fixtures after an intentional change:
//! `RECODE_BLESS_TRACE=1 cargo test --test trace_golden_tuned`.

#[path = "common/golden.rs"]
mod golden;

use golden::{
    assert_matches_fixture, canonical_doc, golden_matrix, normalize_wall, to_golden_json,
};
use recode_spmv::core::telemetry::TraceDocument;
use recode_spmv::prelude::*;

const DEFAULT_FIXTURE: &str =
    concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/golden_trace.json");
const TUNED_CONFIG_FIXTURE: &str =
    concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/tuned_golden_stencil16.json");
const TUNED_TRACE_FIXTURE: &str =
    concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/golden_trace_tuned.json");

/// The one canonical tuned config: the golden matrix on the DDR4 system.
fn canonical_tuned_config() -> TunedConfig {
    tune_matrix(&golden_matrix(), &SystemConfig::ddr4()).expect("tune canonical matrix").config
}

/// The canonical tuned run: the golden matrix recoded under the tuned
/// codec, executed through the tuned-aware constructors.
fn canonical_tuned_doc(tuned: &TunedConfig) -> TraceDocument {
    let a = golden_matrix();
    let sys = SystemConfig::ddr4();
    let recoded = RecodedSpmv::new_tuned(&a, tuned).expect("recode under tuned config");
    let ex = OverlapExecutor::from_tuned(&recoded, tuned, golden::golden_overlap_config())
        .expect("tuned executor");
    let x = vec![1.0; a.ncols()];
    let (_, _, mut doc) =
        ex.spmv_traced(&sys, &x, RunCtx::default(), "golden_stencil16_tuned").expect("traced run");
    normalize_wall(&mut doc);
    doc
}

#[test]
fn tuned_config_matches_the_golden_fixture() {
    let tuned = canonical_tuned_config();
    assert_matches_fixture(&tuned.to_json_string(), TUNED_CONFIG_FIXTURE, true);
}

#[test]
fn tuned_trace_matches_the_canonical_tuned_run() {
    let tuned = canonical_tuned_config();
    let doc = canonical_tuned_doc(&tuned);
    let errs = doc.validate();
    assert!(errs.is_empty(), "canonical tuned run fails its own invariants: {errs:?}");
    assert_matches_fixture(&to_golden_json(&doc), TUNED_TRACE_FIXTURE, true);
}

#[test]
fn tuned_fixture_pins_the_headline_fields() {
    let tuned = canonical_tuned_config();
    tuned.validate_for(&golden_matrix()).expect("fixture config keyed to the golden matrix");
    let doc = canonical_tuned_doc(&tuned);
    assert_eq!(doc.schema, "recode-trace/v3");
    assert_eq!(doc.matrix.name, "golden_stencil16_tuned");
    assert_eq!((doc.matrix.nrows, doc.matrix.ncols), (256, 256));
    assert!(doc.exec.overlap.enabled);
    assert_eq!(doc.exec.overlap.workers, 1);
    // The tuned codec drives the run: the trace's headline wire metric
    // must equal the one the tuner persisted, and the fetched payload can
    // never exceed the full wire size (payload + headers + tables).
    let recoded = RecodedSpmv::new_tuned(&golden_matrix(), &tuned).unwrap();
    assert_eq!(doc.matrix.bytes_per_nnz, tuned.wire_bytes_per_nnz);
    assert!(doc.matrix.compressed_bytes <= recoded.compressed().wire_bytes());
    assert!(doc.matrix.compressed_bytes > 0);
}

/// The guard the satellite asks for: growing a second golden fixture must
/// not move the first. This re-renders the DEFAULT canonical run and
/// compares it byte-for-byte with no bless branch, so even a
/// `RECODE_BLESS_TRACE=1` run of this binary cannot paper over drift in
/// `golden_trace.json`.
#[test]
fn default_golden_fixture_is_untouched_by_the_tuned_path() {
    let golden_bytes = std::fs::read_to_string(DEFAULT_FIXTURE)
        .expect("default fixture must exist before the tuned suite runs");
    let rendered = to_golden_json(&canonical_doc());
    assert_eq!(
        rendered, golden_bytes,
        "default golden trace moved while adding the tuned fixture — that drift must be \
         reviewed in trace_golden.rs, never silently re-blessed here"
    );
}
