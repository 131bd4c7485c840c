//! Auto-tuner contract tests: reproducibility, byte-stable persistence,
//! typed rejection of stale configs, and the full CLI flow (`recode tune`
//! → `recode spmv --tuned`).
//!
//! Determinism is the load-bearing property: the persisted `TunedConfig`
//! must be a pure function of the matrix and the system model, so tuned
//! runs reproduce across hosts and CI shards.

use recode_spmv::core::tune::{StageSubset, TUNED_SCHEMA};
use recode_spmv::prelude::*;
use std::path::PathBuf;
use std::process::Command;

fn sample_matrix() -> Csr {
    generate(
        &GenSpec::Stencil2D { nx: 14, ny: 11, points: 5, values: ValueModel::StencilCoeffs },
        7,
    )
}

fn tuned(a: &Csr) -> TunedConfig {
    tune_matrix(a, &SystemConfig::ddr4()).unwrap().config
}

/// The v1 document committed as `tuned_golden_stencil16.json` before the
/// kernel left the search space.
const V1_GOLDEN: &str = r#"{
  "schema": "recode-tuned/v1",
  "digest": "0912525c21e44637",
  "matrix": {
    "nrows": 256,
    "ncols": 256,
    "nnz": 1216
  },
  "seed": 7,
  "kernel": "partial-diagonal",
  "kernel_params": {
    "sell_c": 8,
    "sell_sigma": 64,
    "pdiag_occupancy_pct": 60
  },
  "codec": {
    "stages": "snappy",
    "block_bytes": 2048
  },
  "modeled": {
    "decode_cycles": 5249,
    "multiply_cycles": 196,
    "total_cycles": 5445,
    "wire_bytes_per_nnz": 2.841282894736842
  },
  "candidates": 45
}
"#;

#[test]
fn repeated_searches_score_every_candidate_identically() {
    let a = sample_matrix();
    let sys = SystemConfig::ddr4();
    let one = tune_matrix(&a, &sys).unwrap();
    let two = tune_matrix(&a, &sys).unwrap();
    assert_eq!(one.config, two.config);
    assert_eq!(one.config.to_json_string(), two.config.to_json_string());
    // Modeled scores are wall-clock-free, so the whole scored field —
    // not just the winner — must agree between the two runs.
    assert_eq!(one.candidates.len(), two.candidates.len());
    for (l, r) in one.candidates.iter().zip(&two.candidates) {
        assert_eq!(
            (l.stages, l.block_bytes, l.decode_cycles, l.multiply_cycles),
            (r.stages, r.block_bytes, r.decode_cycles, r.multiply_cycles)
        );
    }
}

#[test]
fn persistence_round_trips_byte_for_byte_through_the_filesystem() {
    let a = sample_matrix();
    let config = tuned(&a);
    let dir = scratch_dir("roundtrip");
    let path = dir.join("a.tuned.json");
    std::fs::write(&path, config.to_json_string()).unwrap();
    let text = std::fs::read_to_string(&path).unwrap();
    let parsed = TunedConfig::from_json_str(&text).unwrap();
    assert_eq!(parsed, config);
    assert_eq!(parsed.to_json_string(), text, "write -> read -> write must be byte-stable");
    parsed.validate_for(&a).unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn schema_and_digest_drift_are_rejected_with_typed_errors() {
    let a = sample_matrix();
    let config = tuned(&a);

    let wrong_schema = config.to_json_string().replace(TUNED_SCHEMA, "recode-tuned/v0");
    match TunedConfig::from_json_str(&wrong_schema) {
        Err(TuneError::SchemaMismatch { found }) => assert_eq!(found, "recode-tuned/v0"),
        other => panic!("want SchemaMismatch, got {other:?}"),
    }

    // A config tuned for one matrix must not validate against another.
    let b =
        generate(&GenSpec::Stencil2D { nx: 14, ny: 11, points: 5, values: ValueModel::Ones }, 7);
    assert!(matches!(config.validate_for(&b), Err(TuneError::DigestMismatch { .. })));

    // Malformed documents are errors, never defaults.
    for text in ["", "{}", "[1,2]", "{\"schema\": 3}", "not json at all"] {
        assert!(
            matches!(TunedConfig::from_json_str(text), Err(TuneError::Malformed(_))),
            "input {text:?} must be Malformed"
        );
    }

    // A tampered stage name is Malformed, not silently remapped.
    let stages = format!("\"stages\": \"{}\"", config.stages.name());
    let bad_stages = config.to_json_string().replace(&stages, "\"stages\": \"lz-magic\"");
    assert!(matches!(TunedConfig::from_json_str(&bad_stages), Err(TuneError::Malformed(_))));

    // A v1 document is refused whole, never read with its kernel ignored.
    match TunedConfig::from_json_str(V1_GOLDEN) {
        Err(e @ TuneError::SchemaMismatch { .. }) => {
            assert!(e.to_string().contains("re-run `recode tune`"), "{e}");
        }
        other => panic!("want SchemaMismatch for the v1 golden, got {other:?}"),
    }
}

#[test]
fn winner_is_reproducible_across_repeated_searches() {
    let a = sample_matrix();
    let first = tuned(&a);
    for _ in 0..3 {
        assert_eq!(tuned(&a), first);
    }
    // The config is keyed to this matrix and usable end to end.
    let recoded = RecodedSpmv::new_tuned(&a, &first).unwrap();
    assert_eq!(recoded.compressed().config, first.codec_config());
    let tuned_overlap = OverlapExecutor::from_tuned(
        &recoded,
        &first,
        OverlapConfig { cache_blocks: 4, ..OverlapConfig::default() },
    );
    assert!(tuned_overlap.is_ok());
    // An operand recoded under a different codec is refused.
    let other = StageSubset::ALL
        .into_iter()
        .find(|s| *s != first.stages)
        .expect("more than one stage subset exists");
    let mismatched = RecodedSpmv::new(&a, other.codec_config(first.block_bytes)).unwrap();
    assert!(matches!(
        OverlapExecutor::from_tuned(&mismatched, &first, OverlapConfig::default(),),
        Err(TuneError::CodecMismatch)
    ));
}

/// A scratch directory unique to this test binary invocation.
fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("recode-tune-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn recode() -> Command {
    Command::new(env!("CARGO_BIN_EXE_recode"))
}

#[test]
fn cli_tune_then_spmv_consumes_the_persisted_config() {
    let dir = scratch_dir("cli");
    let mtx = dir.join("m.mtx");
    let tuned = dir.join("m.tuned.json");

    let gen = recode()
        .args(["gen", "stencil2d", "2500", "-o"])
        .arg(&mtx)
        .output()
        .expect("spawn recode gen");
    assert!(gen.status.success(), "gen failed: {}", String::from_utf8_lossy(&gen.stderr));

    let out =
        recode().args(["tune"]).arg(&mtx).args(["-o"]).arg(&tuned).output().expect("spawn tune");
    assert!(out.status.success(), "tune failed: {}", String::from_utf8_lossy(&out.stderr));

    // The persisted config drives both the batch and the overlap path; the
    // batch path runs the default multiply, so it verifies bit for bit.
    for (extra, verified) in [
        (&[][..], "rows, bit-exact)"),
        (&["--overlap", "--cache-blocks", "4"][..], "verified against the uncompressed kernel"),
    ] {
        let out = recode()
            .args(["spmv"])
            .arg(&mtx)
            .args(["--tuned"])
            .arg(&tuned)
            .args(extra)
            .output()
            .expect("spawn recode spmv");
        assert!(
            out.status.success(),
            "spmv --tuned {extra:?} failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains("tuned: stages"), "missing tuned banner in: {stdout}");
        assert!(stdout.contains(verified), "{stdout}");
    }

    // A config tuned for a different matrix must hard-fail (exit 1).
    let other = dir.join("other.mtx");
    let gen2 = recode()
        .args(["gen", "circuit", "2500", "-o"])
        .arg(&other)
        .output()
        .expect("spawn recode gen");
    assert!(gen2.status.success());
    let out = recode()
        .args(["spmv"])
        .arg(&other)
        .args(["--tuned"])
        .arg(&tuned)
        .output()
        .expect("spawn recode spmv");
    assert_eq!(out.status.code(), Some(1), "stale config must be a hard error");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("different matrix"), "unexpected stderr: {stderr}");

    // So must a v1 config, whatever matrix it names.
    std::fs::write(&tuned, V1_GOLDEN).unwrap();
    let out = recode()
        .args(["spmv"])
        .arg(&mtx)
        .args(["--tuned"])
        .arg(&tuned)
        .output()
        .expect("spawn recode spmv");
    assert_eq!(out.status.code(), Some(1), "a v1 config must be a hard error");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("schema mismatch"), "unexpected stderr: {stderr}");

    std::fs::remove_dir_all(&dir).ok();
}
