//! End-to-end tests of the ISSUE 7 observability surface, driven through the
//! `recode` CLI the way a user would:
//!
//! * `--chrome-trace` produces a Chrome trace-event / Perfetto JSON file
//!   whose events are monotonic in time, whose `B`/`E` span markers balance
//!   per track, and which names one track per lane / stage;
//! * `--trace` and `--chrome-trace` of one run are two views of the same
//!   phases: every timed span of the document is a `B`/`E` pair of the
//!   timeline, measured from the same two clock reads;
//! * `recode metrics` emits the trace as Prometheus exposition text;
//! * `recode bench-compare` passes identical snapshots and fails a synthetic
//!   25% cycle regression with a nonzero exit code.
//!
//! The chrome trace is written by the dependency-free `json` writer, so
//! these tests run (and validate) on the offline stub build too.

use std::path::{Path, PathBuf};
use std::process::Command;

use recode_spmv::core::json::{self, FromJson, Json};

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_recode"))
}

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("recode-obs-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&d).expect("mkdir");
    d
}

fn gen_matrix(dir: &Path, family: &str, nnz: &str, seed: &str) -> PathBuf {
    let mtx = dir.join("m.mtx");
    let out = bin()
        .args(["gen", family, nnz, "-o", mtx.to_str().unwrap(), "--seed", seed])
        .output()
        .expect("run gen");
    assert!(out.status.success(), "gen: {}", String::from_utf8_lossy(&out.stderr));
    mtx
}

/// Parses a chrome trace file and returns its `traceEvents` array.
fn load_trace_events(path: &Path) -> Vec<Json> {
    let text = std::fs::read_to_string(path).expect("read chrome trace");
    let doc = json::parse(&text).expect("chrome trace parses");
    assert_eq!(
        doc.get("displayTimeUnit").and_then(Json::as_str),
        Some("ns"),
        "trace declares its display unit"
    );
    doc.get("traceEvents").and_then(Json::as_array).expect("traceEvents array present").to_vec()
}

/// Structural validation shared by every `--chrome-trace` output: monotonic
/// timestamps, balanced `B`/`E` per track, and a `thread_name` metadata row
/// for every referenced track.
fn validate_trace(events: &[Json]) -> Vec<String> {
    assert!(!events.is_empty(), "a run must record events");

    // Metadata rows: one thread_name per tid, collect the labels.
    let mut names: Vec<(u64, String)> = Vec::new();
    for e in events.iter().filter(|e| e.get("ph").and_then(Json::as_str) == Some("M")) {
        assert_eq!(e.get("name").and_then(Json::as_str), Some("thread_name"));
        let tid = e.get("tid").and_then(Json::as_u64).expect("metadata carries tid");
        let label = e
            .get("args")
            .and_then(|a| a.get("name"))
            .and_then(Json::as_str)
            .expect("thread_name carries a label")
            .to_string();
        assert!(!names.iter().any(|(t, _)| *t == tid), "duplicate thread_name for tid {tid}");
        names.push((tid, label));
    }

    // Real events: timestamps never go backwards, and every tid is named.
    let mut last_ts = f64::MIN;
    let mut stacks: std::collections::BTreeMap<u64, Vec<String>> =
        std::collections::BTreeMap::new();
    let mut spans = 0usize;
    for e in events.iter().filter(|e| e.get("ph").and_then(Json::as_str) != Some("M")) {
        let ph = e.get("ph").and_then(Json::as_str).expect("event has ph");
        let tid = e.get("tid").and_then(Json::as_u64).expect("event has tid");
        let ts = e.get("ts").and_then(Json::as_f64).expect("event has ts");
        let name = e.get("name").and_then(Json::as_str).expect("event has name").to_string();
        assert!(ts >= last_ts, "timestamps must be monotonic: {ts} after {last_ts}");
        last_ts = ts;
        assert!(names.iter().any(|(t, _)| *t == tid), "event on unnamed track {tid}");
        match ph {
            "B" => {
                spans += 1;
                stacks.entry(tid).or_default().push(name);
            }
            "E" => {
                let open = stacks.get_mut(&tid).and_then(Vec::pop);
                assert_eq!(open.as_deref(), Some(name.as_str()), "E must close the matching B");
            }
            "i" => {
                assert!(e.get("args").and_then(|a| a.get("a")).is_some(), "instant carries args");
            }
            other => panic!("unexpected phase `{other}`"),
        }
    }
    for (tid, stack) in &stacks {
        assert!(stack.is_empty(), "track {tid} has unbalanced spans: {stack:?}");
    }
    assert!(spans > 0, "a run must contain at least one span");
    names.into_iter().map(|(_, label)| label).collect()
}

#[test]
fn chrome_trace_from_the_batch_path_has_main_and_lane_tracks() {
    let dir = tmpdir("batch");
    let mtx = gen_matrix(&dir, "stencil2d", "40000", "3");
    let trace = dir.join("out.trace.json");

    let out = bin()
        .args(["spmv", mtx.to_str().unwrap(), "--chrome-trace", trace.to_str().unwrap()])
        .output()
        .expect("run spmv --chrome-trace");
    assert!(out.status.success(), "spmv: {}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("chrome trace written to"), "{text}");

    let labels = validate_trace(&load_trace_events(&trace));
    assert!(labels.iter().any(|l| l == "main"), "batch run names the main track: {labels:?}");
    assert!(
        labels.iter().any(|l| l.starts_with("lane ")),
        "batch run names one track per lane: {labels:?}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn chrome_trace_from_the_overlap_path_has_main_and_stage_tracks() {
    let dir = tmpdir("overlap");
    let mtx = gen_matrix(&dir, "femband", "40000", "9");
    let trace = dir.join("overlap.trace.json");

    let out = bin()
        .args([
            "spmv",
            mtx.to_str().unwrap(),
            "--overlap",
            "--chrome-trace",
            trace.to_str().unwrap(),
        ])
        .output()
        .expect("run spmv --overlap --chrome-trace");
    assert!(out.status.success(), "spmv --overlap: {}", String::from_utf8_lossy(&out.stderr));

    let events = load_trace_events(&trace);
    let labels = validate_trace(&events);
    assert!(labels.iter().any(|l| l == "main"), "overlap run names the main track: {labels:?}");
    assert!(
        labels.iter().any(|l| l == "stage 0 (tile walk)"),
        "overlap run names the tile walker's track: {labels:?}"
    );
    let multiplies = events
        .iter()
        .filter(|e| e.get("name").and_then(Json::as_str) == Some("multiply_tile"))
        .count();
    assert!(multiplies > 0, "every tile's multiply is a span on the walker's track");
    std::fs::remove_dir_all(&dir).ok();
}

/// A `block_outcome` instant is one block's first attempt on its lane's
/// track, `b` = 0 ok, 1 failed; a failed one is followed by the ladder's
/// `exec.retry` instant. One injected trap on job 0 is one failed attempt,
/// on lane 0, and one retry.
#[test]
fn a_trapped_first_attempt_is_a_failed_block_outcome_on_its_lane() {
    let dir = tmpdir("outcome");
    let mtx = gen_matrix(&dir, "stencil2d", "40000", "3");
    let trace = dir.join("trapped.trace.json");
    let out = bin()
        .arg("spmv")
        .arg(&mtx)
        .args(["--inject-trap", "0", "--chrome-trace"])
        .arg(&trace)
        .output()
        .expect("run spmv --inject-trap --chrome-trace");
    assert_eq!(out.status.code(), Some(3), "{}", String::from_utf8_lossy(&out.stderr));

    let events = load_trace_events(&trace);
    validate_trace(&events);
    let lane0 = events
        .iter()
        .filter(|e| e.get("ph").and_then(Json::as_str) == Some("M"))
        .find(|e| {
            e.get("args").and_then(|a| a.get("name")).and_then(Json::as_str) == Some("lane 0")
        })
        .and_then(|e| e.get("tid").and_then(Json::as_u64))
        .expect("the run names lane 0's track");
    let instants = |cat: &str| -> Vec<&Json> {
        events
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("i"))
            .filter(|e| e.get("cat").and_then(Json::as_str) == Some(cat))
            .collect()
    };
    let outcomes = instants("block_outcome");
    assert!(outcomes.len() > 1, "one instant per block: {}", outcomes.len());
    let failed: Vec<_> = outcomes
        .iter()
        .filter(|e| e.get("args").and_then(|a| a.get("b")).and_then(Json::as_u64) == Some(1))
        .collect();
    assert_eq!(failed.len(), 1, "exactly the trapped attempt failed");
    assert_eq!(failed[0].get("tid").and_then(Json::as_u64), Some(lane0), "job 0 runs on lane 0");
    let retries = instants("retry");
    assert_eq!(retries.len(), 1, "one retry follows the failed attempt");
    assert_eq!(retries[0].get("name").and_then(Json::as_str), Some("exec.retry"));
    std::fs::remove_dir_all(&dir).ok();
}

/// Durations (ns) of the balanced `B`/`E` pairs on the main track, by name.
/// The exporter writes microseconds as the shortest decimal that round-trips
/// the `f64`, so the recorder's nanosecond stamps are recovered exactly.
fn main_track_pairs(events: &[Json]) -> std::collections::BTreeMap<String, Vec<u64>> {
    let main_tid = events
        .iter()
        .filter(|e| e.get("ph").and_then(Json::as_str) == Some("M"))
        .find(|e| e.get("args").and_then(|a| a.get("name")).and_then(Json::as_str) == Some("main"))
        .and_then(|e| e.get("tid").and_then(Json::as_u64))
        .expect("the run names a main track");
    let mut open: Vec<(String, u64)> = Vec::new();
    let mut pairs = std::collections::BTreeMap::<String, Vec<u64>>::new();
    for e in events.iter().filter(|e| e.get("tid").and_then(Json::as_u64) == Some(main_tid)) {
        let ph = e.get("ph").and_then(Json::as_str).expect("event has ph");
        if ph != "B" && ph != "E" {
            continue;
        }
        let name = e.get("name").and_then(Json::as_str).expect("event has name").to_string();
        let ts_ns = (e.get("ts").and_then(Json::as_f64).expect("event has ts") * 1000.0).round();
        if ph == "B" {
            open.push((name, ts_ns as u64));
        } else {
            let (opened, began) = open.pop().expect("E closes an open B");
            assert_eq!(opened, name, "E must close the matching B");
            pairs.entry(name).or_default().push(ts_ns as u64 - began);
        }
    }
    assert!(open.is_empty(), "main track has unbalanced spans: {open:?}");
    pairs
}

/// One run's `--trace` document and `--chrome-trace` timeline come from one
/// phase guard: every document span that was timed (`wall_ns > 0`; the
/// modeled-only `exec.mem_stream`/`exec.dma` read no clock) is exactly one
/// `B`/`E` pair of that name on the main track, and the pair's duration *is*
/// the span's `wall_ns` — the same two clock reads, not two measurements.
/// Checked per name as multisets, so two `exec.retry` phases of equal length
/// still each need their own pair.
#[test]
fn document_spans_are_the_main_track_pairs_of_the_flight_recorder() {
    let dir = tmpdir("views");
    let mtx = gen_matrix(&dir, "stencil2d", "40000", "3");
    // One transient trap (one retry phase) and one corrupt block (a retry
    // phase whose attempts all fail, then a fallback phase) on the batch
    // schedule; a clean run on the tiled one.
    let batch: &[&str] = &["--inject-trap", "1", "--inject-corrupt", "0"];
    let batch_spans = [
        "exec.decode_batch",
        "exec.retry",
        "exec.fallback",
        "exec.reassemble",
        "exec.cpu_multiply",
    ];
    let overlap: &[&str] = &["--overlap"];
    for (args, code, expect) in [(batch, 4, &batch_spans[..]), (overlap, 0, &["exec.overlap"][..])]
    {
        let doc_path = dir.join("doc.json");
        let timeline = dir.join("timeline.json");
        let out = bin()
            .arg("spmv")
            .arg(&mtx)
            .args(args)
            .arg("--trace")
            .arg(&doc_path)
            .arg("--chrome-trace")
            .arg(&timeline)
            .output()
            .expect("run spmv --trace --chrome-trace");
        assert_eq!(out.status.code(), Some(code), "{}", String::from_utf8_lossy(&out.stderr));

        let text = std::fs::read_to_string(&doc_path).expect("read trace document");
        let doc = recode_spmv::core::telemetry::TraceDocument::from_json(
            &json::parse(&text).expect("trace document parses"),
        )
        .expect("trace document maps");
        assert!(doc.validate().is_empty(), "{args:?}: {:?}", doc.validate());
        let mut timed = std::collections::BTreeMap::<String, Vec<u64>>::new();
        for span in doc.spans.iter().filter(|s| s.wall_ns > 0) {
            timed.entry(span.name.clone()).or_default().push(span.wall_ns);
        }
        for name in expect {
            assert!(timed.contains_key(*name), "{args:?}: no timed `{name}` span in {timed:?}");
        }

        let events = load_trace_events(&timeline);
        validate_trace(&events);
        let mut pairs = main_track_pairs(&events);
        for (name, mut walls) in timed {
            let mut durations = pairs.remove(&name).unwrap_or_default();
            walls.sort_unstable();
            durations.sort_unstable();
            assert_eq!(
                durations, walls,
                "{args:?}: `{name}` — timeline pair durations vs document wall_ns"
            );
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_faulted_spmv_can_record_a_chrome_trace() {
    let dir = tmpdir("faulted");
    let mtx = gen_matrix(&dir, "stencil2d", "30000", "1");
    let trace = dir.join("faulted.trace.json");
    let out = bin()
        .args([
            "spmv",
            mtx.to_str().unwrap(),
            "--inject-trap",
            "0",
            "--inject-corrupt",
            "1",
            "--chrome-trace",
            trace.to_str().unwrap(),
        ])
        .output()
        .expect("run spmv --chrome-trace");
    assert_eq!(out.status.code(), Some(4), "{}", String::from_utf8_lossy(&out.stderr));
    let labels = validate_trace(&load_trace_events(&trace));
    assert!(labels.iter().any(|l| l == "main"), "{labels:?}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn metrics_subcommand_emits_prometheus_exposition_text() {
    let dir = tmpdir("metrics");
    let mtx = gen_matrix(&dir, "stencil2d", "30000", "5");

    let out = bin().args(["metrics", mtx.to_str().unwrap()]).output().expect("run metrics");
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    for needle in [
        "# TYPE recode_exec_jobs counter",
        "# TYPE recode_pool_checkouts counter",
        "# TYPE recode_trace_wall_ns_total gauge",
        "# TYPE recode_matrix_nnz gauge",
        "recode_span_wall_ns{span=\"exec.decode_batch\"}",
    ] {
        assert!(text.contains(needle), "metrics output missing `{needle}`:\n{text}");
    }
    // No breaker family, and every trace counter is typed a counter.
    assert!(!text.contains("recode_breaker_"), "{text}");
    for line in text.lines().filter(|l| l.starts_with("# TYPE recode_exec_")) {
        assert!(line.ends_with(" counter"), "{line}");
    }

    // `-o` writes the same exposition to a file.
    let prom = dir.join("m.prom");
    let out = bin()
        .args(["metrics", mtx.to_str().unwrap(), "-o", prom.to_str().unwrap()])
        .output()
        .expect("run metrics -o");
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    let file = std::fs::read_to_string(&prom).expect("metrics file");
    assert!(file.contains("# TYPE recode_exec_jobs counter"), "{file}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bench_compare_passes_identical_snapshots_and_fails_a_25pct_regression() {
    let baseline = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/benchcmp/baseline.json");
    let regressed =
        concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/benchcmp/regressed_25pct.json");

    // Identical snapshots: clean pass.
    let out =
        bin().args(["bench-compare", baseline, baseline]).output().expect("run bench-compare");
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("0 regression(s)"), "{text}");

    // A 25% makespan_cycles regression (beyond the 20% gate and the noise
    // floor) must fail with a nonzero exit; the 75% wall-clock swing in the
    // same snapshot is informational and must not be what trips it.
    let out = bin()
        .args(["bench-compare", baseline, regressed])
        .output()
        .expect("run bench-compare regressed");
    assert_eq!(out.status.code(), Some(1), "regression must exit 1");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("FAIL"), "{text}");
    assert!(text.contains("makespan_cycles"), "{text}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("regressed"), "{err}");

    // Order flipped: the same delta is an improvement and passes.
    let out = bin()
        .args(["bench-compare", regressed, baseline])
        .output()
        .expect("run bench-compare improved");
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
}
