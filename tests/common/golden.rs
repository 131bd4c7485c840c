//! Shared golden-trace machinery: the canonical default run and the
//! hand-rolled `TraceDocument` emitter (the schema's independent oracle:
//! same field names, nesting and order as `TraceDocument::to_json`),
//! included by both `trace_golden.rs` (default pipeline fixture) and
//! `trace_golden_tuned.rs` (auto-tuned pipeline fixture) via `#[path]`.
//! Lives under `tests/common/` so Cargo does not compile it as a test crate
//! of its own.

use recode_spmv::core::telemetry::TraceDocument;
use recode_spmv::prelude::*;
use std::fmt::Write as _;

/// The canonical matrix both golden fixtures pin: 16x16 5-point stencil,
/// seed 7.
pub fn golden_matrix() -> Csr {
    generate(
        &GenSpec::Stencil2D { nx: 16, ny: 16, points: 5, values: ValueModel::StencilCoeffs },
        7,
    )
}

/// The canonical executor settings both fixtures pin.
pub fn golden_overlap_config() -> OverlapConfig {
    OverlapConfig { overlap: true, cache_blocks: 8, workers: 1 }
}

/// Zeroes the host wall-clock fields, the only nondeterministic ones.
pub fn normalize_wall(doc: &mut TraceDocument) {
    doc.wall_ns_total = 0;
    for span in &mut doc.spans {
        span.wall_ns = 0;
    }
}

/// Runs the canonical pipelined job over `recoded` and normalizes the
/// host wall-clock fields.
pub fn traced_overlap_run(recoded: &RecodedSpmv, ncols: usize, name: &str) -> TraceDocument {
    let sys = SystemConfig::ddr4();
    let ex = OverlapExecutor::new(recoded, golden_overlap_config());
    let x = vec![1.0; ncols];
    let (_, _, mut doc) = ex.spmv_traced(&sys, &x, RunCtx::default(), name).expect("traced run");
    normalize_wall(&mut doc);
    doc
}

/// The one canonical default run `golden_trace.json` pins.
pub fn canonical_doc() -> TraceDocument {
    let a = golden_matrix();
    let recoded = RecodedSpmv::new(&a, MatrixCodecConfig::udp_dsh()).expect("compress");
    traced_overlap_run(&recoded, a.ncols(), "golden_stencil16")
}

pub fn fmt_f64(v: f64) -> String {
    format!("{v:?}")
}

pub fn esc(s: &str) -> String {
    // The fixture contains no characters needing more than this.
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Compares a rendered document against a fixture with a line-precise
/// failure message, or blesses the fixture when `RECODE_BLESS_TRACE` is
/// set and `allow_bless` is true.
pub fn assert_matches_fixture(rendered: &str, fixture: &str, allow_bless: bool) {
    if allow_bless && std::env::var("RECODE_BLESS_TRACE").is_ok() {
        std::fs::write(fixture, rendered).expect("write fixture");
        eprintln!("blessed {fixture}");
        return;
    }
    let golden = std::fs::read_to_string(fixture)
        .unwrap_or_else(|e| panic!("{fixture}: {e} (run with RECODE_BLESS_TRACE=1 to create)"));
    if rendered != golden {
        for (i, (got, want)) in rendered.lines().zip(golden.lines()).enumerate() {
            assert_eq!(
                got,
                want,
                "output drifted from the golden fixture {} at line {} — if the \
                 change is intentional, re-bless with RECODE_BLESS_TRACE=1",
                fixture,
                i + 1
            );
        }
        panic!(
            "output drifted from the golden fixture {fixture}: {} lines rendered vs {} in fixture",
            rendered.lines().count(),
            golden.lines().count()
        );
    }
}

/// Serializes a [`TraceDocument`] with the schema's field names and nesting
/// (unit enum variants as strings, u8 map keys as strings), pretty-printed
/// with 2-space indents and a trailing newline.
pub fn to_golden_json(doc: &TraceDocument) -> String {
    let mut o = String::new();
    let m = &doc.matrix;
    let s = &doc.system;
    let _ = writeln!(o, "{{");
    let _ = writeln!(o, "  \"schema\": \"{}\",", esc(&doc.schema));
    let _ = writeln!(o, "  \"matrix\": {{");
    let _ = writeln!(o, "    \"name\": \"{}\",", esc(&m.name));
    let _ = writeln!(o, "    \"nrows\": {},", m.nrows);
    let _ = writeln!(o, "    \"ncols\": {},", m.ncols);
    let _ = writeln!(o, "    \"nnz\": {},", m.nnz);
    let _ = writeln!(o, "    \"compressed_bytes\": {},", m.compressed_bytes);
    let _ = writeln!(o, "    \"bytes_per_nnz\": {}", fmt_f64(m.bytes_per_nnz));
    let _ = writeln!(o, "  }},");
    let _ = writeln!(o, "  \"system\": {{");
    let _ = writeln!(o, "    \"memory\": \"{}\",", esc(&s.memory));
    let _ = writeln!(o, "    \"lanes\": {},", s.lanes);
    let _ = writeln!(o, "    \"freq_hz\": {}", fmt_f64(s.freq_hz));
    let _ = writeln!(o, "  }},");
    let _ = writeln!(o, "  \"wall_ns_total\": {},", doc.wall_ns_total);
    let _ = writeln!(o, "  \"spans\": [");
    for (i, sp) in doc.spans.iter().enumerate() {
        let comma = if i + 1 < doc.spans.len() { "," } else { "" };
        let _ = writeln!(
            o,
            "    {{ \"name\": \"{}\", \"wall_ns\": {}, \"modeled_seconds\": {}, \"bytes\": {} }}{comma}",
            esc(&sp.name),
            sp.wall_ns,
            fmt_f64(sp.modeled_seconds),
            sp.bytes
        );
    }
    let _ = writeln!(o, "  ],");
    let _ = writeln!(o, "  \"counters\": {{");
    for (i, (k, v)) in doc.counters.iter().enumerate() {
        let comma = if i + 1 < doc.counters.len() { "," } else { "" };
        let _ = writeln!(o, "    \"{}\": {v}{comma}", esc(k));
    }
    let _ = writeln!(o, "  }},");
    let _ = writeln!(o, "  \"block_events\": [");
    for (i, e) in doc.block_events.iter().enumerate() {
        let comma = if i + 1 < doc.block_events.len() { "," } else { "" };
        let _ = writeln!(
            o,
            "    {{ \"job\": {}, \"stream\": \"{:?}\", \"block\": {}, \"lane\": {}, \"cycles\": {}, \"outcome\": \"{:?}\" }}{comma}",
            e.job, e.stream, e.block, e.lane, e.cycles, e.outcome
        );
    }
    let _ = writeln!(o, "  ],");
    let t = &doc.mem_traffic;
    let _ = writeln!(o, "  \"mem_traffic\": {{");
    let _ = writeln!(o, "    \"memory\": \"{}\",", esc(&t.memory));
    let _ = writeln!(o, "    \"by_source\": [");
    for (i, src) in t.by_source.iter().enumerate() {
        let comma = if i + 1 < t.by_source.len() { "," } else { "" };
        let _ = writeln!(
            o,
            "      {{ \"source\": \"{:?}\", \"read_bytes\": {}, \"write_bytes\": {} }}{comma}",
            src.source, src.read_bytes, src.write_bytes
        );
    }
    let _ = writeln!(o, "    ],");
    let _ = writeln!(o, "    \"total_bytes\": {},", t.total_bytes);
    let _ = writeln!(o, "    \"stream_seconds\": {},", fmt_f64(t.stream_seconds));
    let _ = writeln!(o, "    \"transfer_joules\": {}", fmt_f64(t.transfer_joules));
    let _ = writeln!(o, "  }},");
    let e = &doc.exec;
    let a = &e.accel;
    let _ = writeln!(o, "  \"exec\": {{");
    let _ = writeln!(o, "    \"accel\": {{");
    let _ = writeln!(o, "      \"jobs\": {},", a.jobs);
    let _ = writeln!(o, "      \"jobs_failed\": {},", a.jobs_failed);
    let _ = writeln!(o, "      \"lanes\": {},", a.lanes);
    let _ = writeln!(o, "      \"makespan_cycles\": {},", a.makespan_cycles);
    let _ = writeln!(o, "      \"busy_cycles\": {},", a.busy_cycles);
    let _ = writeln!(o, "      \"injected_stall_cycles\": {},", a.injected_stall_cycles);
    let _ = writeln!(o, "      \"output_bytes\": {},", a.output_bytes);
    let _ = writeln!(o, "      \"lane_utilization\": {},", fmt_f64(a.lane_utilization));
    let _ = writeln!(o, "      \"freq_hz\": {},", fmt_f64(a.freq_hz));
    assert!(
        a.lane_profiles.is_empty(),
        "golden writer pins the overlap path, which emits no lane profiles"
    );
    let _ = writeln!(o, "      \"lane_profiles\": [],");
    let oc = &a.opclass;
    let _ = writeln!(
        o,
        "      \"opclass\": {{ \"dispatch\": {}, \"alu\": {}, \"mem\": {}, \"stream\": {} }},",
        oc.dispatch, oc.alu, oc.mem, oc.stream
    );
    let st = &a.stage_cycles;
    let _ = writeln!(
        o,
        "      \"stage_cycles\": {{ \"huffman\": {}, \"snappy\": {}, \"delta\": {} }}",
        st.huffman, st.snappy, st.delta
    );
    let _ = writeln!(o, "    }},");
    let _ = writeln!(o, "    \"mem_stream_seconds\": {},", fmt_f64(e.mem_stream_seconds));
    let _ = writeln!(o, "    \"dma_seconds\": {},", fmt_f64(e.dma_seconds));
    let _ = writeln!(o, "    \"compressed_bytes\": {},", e.compressed_bytes);
    let _ = writeln!(o, "    \"blocks_retried\": {},", e.blocks_retried);
    let _ = writeln!(o, "    \"blocks_fell_back\": {},", e.blocks_fell_back);
    let _ = writeln!(o, "    \"fallback_bytes\": {},", e.fallback_bytes);
    let _ = writeln!(o, "    \"retry_cycles\": {},", e.retry_cycles);
    let _ = writeln!(o, "    \"backoff_cycles\": {},", e.backoff_cycles);
    let _ = writeln!(o, "    \"degraded\": {},", e.degraded);
    let _ = writeln!(o, "    \"software_decode\": {},", e.software_decode);
    let _ = writeln!(o, "    \"blocks_ok\": {},", e.blocks_ok);
    let _ = writeln!(o, "    \"blocks_recovered\": {},", e.blocks_recovered);
    let ov = &e.overlap;
    let _ = writeln!(o, "    \"overlap\": {{");
    let _ = writeln!(o, "      \"enabled\": {},", ov.enabled);
    let _ = writeln!(o, "      \"stages\": {},", ov.stages);
    let _ = writeln!(o, "      \"workers\": {},", ov.workers);
    let _ = writeln!(o, "      \"decode_cycles\": {},", ov.decode_cycles);
    let _ = writeln!(o, "      \"multiply_cycles\": {},", ov.multiply_cycles);
    let _ = writeln!(o, "      \"overlapped_makespan_cycles\": {},", ov.overlapped_makespan_cycles);
    let _ = writeln!(o, "      \"serial_makespan_cycles\": {},", ov.serial_makespan_cycles);
    let _ = writeln!(o, "      \"cache_hits\": {},", ov.cache_hits);
    let _ = writeln!(o, "      \"cache_misses\": {},", ov.cache_misses);
    let _ = writeln!(o, "      \"cache_evictions\": {},", ov.cache_evictions);
    let _ = writeln!(o, "      \"cache_hit_bytes\": {}", ov.cache_hit_bytes);
    let _ = writeln!(o, "    }}");
    let _ = writeln!(o, "  }},");
    assert!(doc.recorder.is_none(), "golden writer pins runs with the flight recorder off");
    let _ = writeln!(o, "  \"recorder\": null");
    let _ = writeln!(o, "}}");
    o
}
