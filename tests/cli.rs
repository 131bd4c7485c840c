//! End-to-end test of the `recode` CLI binary: generate, inspect, compress,
//! decompress, verify, and run the simulated SpMV — the full workflow a
//! downstream user drives from the shell.

use recode_spmv::core::json::{FromJson, ToJson};
use std::path::PathBuf;
use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_recode"))
}

fn tmpdir() -> PathBuf {
    let d = std::env::temp_dir().join(format!("recode-cli-test-{}", std::process::id()));
    std::fs::create_dir_all(&d).expect("mkdir");
    d
}

#[test]
fn gen_info_compress_decompress_spmv_workflow() {
    let dir = tmpdir();
    let mtx = dir.join("m.mtx");
    let rcmx = dir.join("m.rcmx");
    let back = dir.join("back.mtx");

    // gen
    let out = bin()
        .args(["gen", "femband", "60000", "-o", mtx.to_str().unwrap(), "--seed", "7"])
        .output()
        .expect("run gen");
    assert!(out.status.success(), "gen: {}", String::from_utf8_lossy(&out.stderr));

    // info
    let out = bin().args(["info", mtx.to_str().unwrap()]).output().expect("run info");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("non-zeros"), "{text}");
    assert!(text.contains("DSH compression"), "{text}");

    // compress
    let out = bin()
        .args(["compress", mtx.to_str().unwrap(), "-o", rcmx.to_str().unwrap()])
        .output()
        .expect("run compress");
    assert!(out.status.success(), "compress: {}", String::from_utf8_lossy(&out.stderr));
    assert!(rcmx.exists());

    // decompress
    let out = bin()
        .args(["decompress", rcmx.to_str().unwrap(), "-o", back.to_str().unwrap()])
        .output()
        .expect("run decompress");
    assert!(out.status.success(), "decompress: {}", String::from_utf8_lossy(&out.stderr));

    // The round trip must preserve the matrix exactly.
    let a = recode_spmv::sparse::io::read_matrix_market_path(&mtx).unwrap();
    let b = recode_spmv::sparse::io::read_matrix_market_path(&back).unwrap();
    assert_eq!(a, b, "CLI compress/decompress round trip");

    // spmv (verifies internally against the uncompressed kernel)
    let out = bin().args(["spmv", mtx.to_str().unwrap()]).output().expect("run spmv");
    assert!(out.status.success(), "spmv: {}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("verified against the uncompressed kernel"), "{text}");
    assert!(text.contains("Decomp(UDP+CPU)"), "{text}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn spmv_trace_report_and_check_workflow() {
    let dir = std::env::temp_dir().join(format!("recode-cli-trace-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let mtx = dir.join("t.mtx");
    let trace = dir.join("trace.json");

    let out = bin()
        .args(["gen", "stencil2d", "50000", "-o", mtx.to_str().unwrap(), "--seed", "3"])
        .output()
        .expect("run gen");
    assert!(out.status.success(), "gen: {}", String::from_utf8_lossy(&out.stderr));

    // spmv --trace writes the telemetry document alongside the normal report.
    let out = bin()
        .args(["spmv", mtx.to_str().unwrap(), "--trace", trace.to_str().unwrap()])
        .output()
        .expect("run spmv --trace");
    assert!(out.status.success(), "spmv: {}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("trace (recode-trace/v3) written"), "{text}");
    assert!(text.contains("verified against the uncompressed kernel"), "{text}");

    // The file is a valid, internally consistent TraceDocument.
    let text = std::fs::read_to_string(&trace).expect("read trace");
    let json = recode_spmv::core::json::parse(&text).expect("parse");
    let doc = recode_spmv::core::telemetry::TraceDocument::from_json(&json).expect("map");
    assert_eq!(doc.schema, recode_spmv::core::telemetry::TRACE_SCHEMA);
    assert!(doc.validate().is_empty(), "{:?}", doc.validate());
    assert_eq!(doc.matrix.name, "t");
    assert!(!doc.exec.accel.lane_profiles.is_empty());

    // `recode report` renders it.
    let out = bin().args(["report", trace.to_str().unwrap()]).output().expect("run report");
    assert!(out.status.success(), "report: {}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("recode trace report"), "{text}");
    assert!(text.contains("exec.decode_batch"), "{text}");

    // `recode trace-check` accepts it...
    let out =
        bin().args(["trace-check", trace.to_str().unwrap()]).output().expect("run trace-check");
    assert!(out.status.success(), "trace-check: {}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("trace OK"));

    // `--bounds` additionally re-verifies the stored per-stage cycles
    // against the certified envelopes of the rebuildable stage programs.
    let out = bin()
        .args(["trace-check", trace.to_str().unwrap(), "--bounds"])
        .output()
        .expect("run trace-check --bounds");
    assert!(out.status.success(), "trace-check --bounds: {}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("certified bounds OK"));

    // Inflated stage cycles no longer sum to the busy cycles: plain
    // validation refuses them before any bound is checked.
    let inflated = dir.join("inflated.json");
    let json = std::fs::read_to_string(&trace).unwrap();
    let snappy_cycles = doc.exec.accel.stage_cycles.snappy;
    std::fs::write(
        &inflated,
        json.replace(
            &format!("\"snappy\": {snappy_cycles}"),
            &format!("\"snappy\": {}", u64::MAX / 2),
        ),
    )
    .unwrap();
    let out = bin().args(["trace-check", inflated.to_str().unwrap()]).output().expect("run");
    assert_eq!(out.status.code(), Some(1), "inflated stage cycles must fail validation");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("stage attribution"), "{err}");

    // A block event under the certified floor is structurally valid: only
    // --bounds refuses it.
    let starved = dir.join("starved.json");
    let mut bad = doc.clone();
    bad.block_events[0].cycles = 1;
    assert!(bad.validate().is_empty(), "{:?}", bad.validate());
    std::fs::write(&starved, bad.to_json().to_string_pretty()).unwrap();
    let out = bin().args(["trace-check", starved.to_str().unwrap(), "--bounds"]).output();
    let err = String::from_utf8_lossy(&out.expect("run").stderr).into_owned();
    assert!(err.contains("under the certified floor"), "{err}");

    // ...and rejects a tampered schema with a nonzero exit.
    let tampered = dir.join("tampered.json");
    let json = std::fs::read_to_string(&trace).unwrap();
    std::fs::write(&tampered, json.replace("recode-trace/v3", "recode-trace/v2")).unwrap();
    for cmd in ["trace-check", "report"] {
        let out = bin().args([cmd, tampered.to_str().unwrap()]).output().expect("run tampered");
        assert_eq!(out.status.code(), Some(1), "{cmd}: a trace of another schema is refused");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("schema `recode-trace/v2` is not `recode-trace/v3`"), "{cmd}: {err}");
    }

    // A file nested deeper than any schema here is refused with the offset
    // of the offending bracket and the ordinary failure code; it used to
    // recurse until the stack overflowed and the process aborted.
    let deep = dir.join("deep.json");
    std::fs::write(&deep, "[".repeat(100_000)).unwrap();
    for cmd in ["trace-check", "report"] {
        let out = bin().args([cmd, deep.to_str().unwrap()]).output().expect("run on deep file");
        assert_eq!(out.status.code(), Some(1), "{cmd}: typed failure, not an abort");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("nesting deeper than 128 levels at byte 128"), "{cmd}: {err}");
    }
    // Well-formed JSON that is not a trace names the field it misses.
    let not_a_trace = dir.join("other.json");
    std::fs::write(&not_a_trace, r#"{"schema": "recode-trace/v3", "matrix": 3}"#).unwrap();
    let out = bin().args(["trace-check", not_a_trace.to_str().unwrap()]).output().expect("run");
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("matrix: expected an object"));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn spmv_exit_codes_distinguish_degraded_and_fallback_runs() {
    let dir = std::env::temp_dir().join(format!("recode-cli-exit-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let mtx = dir.join("e.mtx");
    let out = bin()
        .args(["gen", "stencil2d", "30000", "-o", mtx.to_str().unwrap(), "--seed", "5"])
        .output()
        .expect("run gen");
    assert!(out.status.success(), "gen: {}", String::from_utf8_lossy(&out.stderr));

    // The batch's modeled makespan, from the `UDP: … makespan N cycles` line.
    let makespan = |stdout: &[u8]| -> String {
        let text = String::from_utf8_lossy(stdout);
        let at = text.find("makespan ").unwrap_or_else(|| panic!("no makespan: {text}"));
        text[at..].split(',').next().unwrap().to_string()
    };

    // Clean run: exit 0.
    let out = bin().args(["spmv", mtx.to_str().unwrap()]).output().expect("run spmv");
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    let clean = makespan(&out.stdout);
    assert!(clean.ends_with(" cycles"), "{clean}");

    // A transient trap forces a retry: the run recovers bit-exact but the
    // exit code reports the degradation. The trapped job cost nothing and
    // its retry is the same decode on the same lane, so the makespan is the
    // clean run's.
    let out = bin()
        .args(["spmv", mtx.to_str().unwrap(), "--inject-trap", "0"])
        .output()
        .expect("run spmv --inject-trap");
    assert_eq!(out.status.code(), Some(3), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("verified against the uncompressed kernel"), "{text}");
    assert!(String::from_utf8_lossy(&out.stderr).contains("degraded"), "stderr notes the cause");
    assert_eq!(makespan(&out.stdout), clean, "a retry is charged to its own lane");

    // A corrupt block fails its retry too and is served from the raw-CSR
    // store: still bit-exact, exit 4.
    let out = bin()
        .args(["spmv", mtx.to_str().unwrap(), "--inject-corrupt", "0"])
        .output()
        .expect("run spmv --inject-corrupt");
    assert_eq!(out.status.code(), Some(4), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stderr).contains("raw-CSR"), "stderr notes the cause");

    // The overlap executor reports through the same codes.
    let out = bin()
        .args(["spmv", mtx.to_str().unwrap(), "--overlap", "--inject-trap", "0"])
        .output()
        .expect("run spmv --overlap --inject-trap");
    assert_eq!(out.status.code(), Some(3), "{}", String::from_utf8_lossy(&out.stderr));

    // An injection index past the end is refused, naming what exists.
    for (flag, what) in [("--inject-trap", "decode jobs"), ("--inject-corrupt", "blocks")] {
        let out = bin().args(["spmv", mtx.to_str().unwrap(), flag, "99999"]).output().expect("run");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{flag}: {err}");
        assert!(err.starts_with(&format!("error: {flag} 99999: the ")), "{err}");
        assert!(err.contains(what), "{err}");
    }

    // `--iters` on a non-square matrix is refused before any work is done.
    let rect = dir.join("rect.mtx");
    let text = "%%MatrixMarket matrix coordinate real general\n3 2 2\n1 1 1.0\n3 2 2.0\n";
    std::fs::write(&rect, text).expect("write rect.mtx");
    let out = bin()
        .args(["spmv", rect.to_str().unwrap(), "--overlap", "--iters", "2"])
        .output()
        .expect("run spmv --iters on a 3x2 matrix");
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{err}");
    assert!(err.contains("--iters needs a square matrix"), "{err}");
    assert!(out.stdout.is_empty(), "ran: {}", String::from_utf8_lossy(&out.stdout));
    std::fs::remove_dir_all(&dir).ok();
}

/// Whether a run is traced is a value in its context, not a second code
/// path: with and without `--trace`, on either schedule and under either
/// injected fault, `recode spmv` prints the same verification and statistics
/// lines (all modeled, so deterministic) and exits with the same code. Every
/// trace it writes passes `trace-check --bounds`: a tiled run attributes its
/// decode cycles to stages as a batch does.
#[test]
fn spmv_prints_and_exits_the_same_traced_or_not() {
    let dir = std::env::temp_dir().join(format!("recode-cli-traced-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let mtx = dir.join("p.mtx");
    let trace = dir.join("p.trace.json");
    let out = bin()
        .args(["gen", "stencil2d", "30000", "-o", mtx.to_str().unwrap(), "--seed", "5"])
        .output()
        .expect("run gen");
    assert!(out.status.success(), "gen: {}", String::from_utf8_lossy(&out.stderr));

    let faults: [(&[&str], i32); 3] =
        [(&[], 0), (&["--inject-trap", "0"], 3), (&["--inject-corrupt", "0"], 4)];
    for schedule in [&[][..], &["--overlap"][..]] {
        for (fault, code) in faults {
            let run = |traced: bool| {
                let mut cmd = bin();
                cmd.arg("spmv").arg(&mtx).args(schedule).args(fault);
                if traced {
                    cmd.arg("--trace").arg(&trace);
                }
                let out = cmd.output().expect("run spmv");
                let what = format!("{schedule:?} {fault:?} traced={traced}");
                let err = String::from_utf8_lossy(&out.stderr).into_owned();
                assert_eq!(out.status.code(), Some(code), "{what}: {err}");
                let text = String::from_utf8_lossy(&out.stdout).into_owned();
                assert_eq!(text.contains("trace (recode-trace/"), traced, "{what}: {text}");
                assert!(text.contains("verified against the uncompressed kernel"), "{what}");
                let lines: Vec<String> =
                    text.lines().filter(|l| !l.starts_with("trace (")).map(String::from).collect();
                (lines, err)
            };
            assert_eq!(run(false), run(true), "{schedule:?} {fault:?}");
            let out = bin().arg("trace-check").arg(&trace).arg("--bounds").output().expect("run");
            let err = String::from_utf8_lossy(&out.stderr);
            assert!(out.status.success(), "{schedule:?} {fault:?}: {err}");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A matrix with no stored entries has nothing to model: every `spmv`
/// schedule and the tuner verify it and exit 0 without a scenario table.
#[test]
fn a_matrix_with_no_stored_entries_runs_and_tunes_cleanly() {
    let dir = std::env::temp_dir().join(format!("recode-cli-empty-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let mtx = dir.join("empty.mtx");
    std::fs::write(&mtx, "%%MatrixMarket matrix coordinate real general\n4 4 0\n").unwrap();
    let trace = dir.join("empty.trace.json");
    let tuned = dir.join("empty.tuned.json");
    let (mtx, trace, tuned) =
        (mtx.to_str().unwrap(), trace.to_str().unwrap(), tuned.to_str().unwrap());

    let runs: [&[&str]; 5] = [
        &["spmv", mtx],
        &["spmv", mtx, "--trace", trace],
        &["spmv", mtx, "--overlap"],
        &["tune", mtx, "-o", tuned],
        &["spmv", mtx, "--tuned", tuned],
    ];
    for args in runs {
        let out = bin().args(args).output().expect("run recode");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{args:?}: {err}");
        let text = String::from_utf8_lossy(&out.stdout);
        if args[0] == "spmv" {
            assert!(text.contains("verified against the uncompressed kernel (4 rows"), "{text}");
            assert!(!text.contains("modeled on"), "{args:?} modeled an empty operand: {text}");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn chaos_subcommand_prints_the_committed_table_and_writes_json() {
    let dir = std::env::temp_dir().join(format!("recode-cli-chaos-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let json_path = dir.join("chaos.json");
    let out =
        bin().args(["chaos", "--json", json_path.to_str().unwrap()]).output().expect("run chaos");
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.starts_with("chaos: 4 index + 4 value blocks on 4 lanes"), "{text}");
    assert!(text.contains("HEALTHY"), "{text}");
    // A summary line, a header, one line per case, the file note.
    assert_eq!(text.lines().count(), 2 + 298 + 1, "{text}");
    let json = std::fs::read_to_string(&json_path).expect("chaos json");
    assert_eq!(json, include_str!("../results/chaos_campaign.json"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn verify_program_prints_certified_bounds_for_builtins() {
    // Every builtin spelling prints the findings report, the per-block
    // bounds table, and a certified envelope; `builtin:dsh` covers the
    // whole pipeline. Bare names stay accepted for compatibility.
    for target in ["builtin:delta", "builtin:snappy", "builtin:huffman", "builtin:dsh", "delta"] {
        let out = bin().args(["verify-program", target]).output().expect("run verify-program");
        assert!(out.status.success(), "{target}: {}", String::from_utf8_lossy(&out.stderr));
        let text = String::from_utf8_lossy(&out.stdout);
        assert!(text.contains("certified cycle envelope"), "{target}: {text}");
        assert!(text.contains("-- certified cycle bounds"), "{target}: {text}");
        assert!(text.contains("program envelope: ["), "{target}: {text}");
    }
    let out = bin()
        .args(["verify-program", "builtin:dsh"])
        .output()
        .expect("run verify-program builtin:dsh");
    let text = String::from_utf8_lossy(&out.stdout);
    for prog in ["udp-huffman-decode", "udp-snappy-decode", "udp-delta-decode"] {
        assert!(text.contains(prog), "dsh must verify all three stages: {text}");
    }
    let out = bin().args(["verify-program", "builtin:nope"]).output().expect("run verify-program");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown builtin"));
}

#[test]
fn disasm_and_verify_program_resolve_the_same_targets() {
    let dir = std::env::temp_dir().join(format!("recode-cli-lane-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let good = dir.join("halfwords.udp");
    std::fs::write(&good, ".entry m\nm:\n    mov r2, r14\n    loadhi r3, r2\n    halt\n").unwrap();
    let bad = dir.join("wide.udp");
    std::fs::write(&bad, ".entry m\nm:\n    limm r1, 20000\n    halt\n").unwrap();
    for command in ["disasm", "verify-program"] {
        let run = |target: &str| bin().args([command, target]).output().expect("run recode");
        // A builtin by bare name, then a file: both print the program.
        for (target, name) in
            [("huffman", "udp-huffman-decode"), (good.to_str().unwrap(), "halfwords")]
        {
            let out = run(target);
            assert!(out.status.success(), "{command} {target}: {out:?}");
            assert!(String::from_utf8_lossy(&out.stdout).contains(name), "{command} {target}");
        }
        // Unknown names and unassemblable files exit 1 and say why; an
        // operand range error names its source line, once.
        for (target, why) in [
            ("builtin:nope", "unknown builtin"),
            ("no-such-program", "not a builtin"),
            (bad.to_str().unwrap(), "wide.udp: line 3: `limm`"),
        ] {
            let out = run(target);
            assert_eq!(out.status.code(), Some(1), "{command} {target}");
            let err = String::from_utf8_lossy(&out.stderr);
            assert!(
                err.contains(why) && !err.contains("program error"),
                "{command} {target}: {err}"
            );
        }
    }
    let listing = bin().args(["disasm", good.to_str().unwrap()]).output().expect("run disasm");
    assert!(String::from_utf8_lossy(&listing.stdout).contains("loadhi r3, r2"));
    std::fs::remove_dir_all(&dir).ok();
}

/// A flag its command does not read is a usage error naming the flag and
/// the command, never a silent no-op; so are a missing or an extra operand
/// and a value that does not parse. Every one exits 2 with the command's
/// usage line, before any file is read. A failed run exits 1.
#[test]
fn cli_rejects_bad_usage() {
    let out = bin().output().expect("run bare");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("families: stencil2d, stencil2d9"));
    let out = bin().args(["info", "/nonexistent/file.mtx"]).output().expect("run info");
    assert_eq!(out.status.code(), Some(1));
    let out =
        bin().args(["gen", "nosuchfamily", "1000", "-o", "/tmp/x.mtx"]).output().expect("gen");
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown family"), "{err}");

    let cases: [(&[&str], &str); 19] = [
        (&["info", "x", "--overlap"], "`recode info` does not take --overlap"),
        (&["compress", "x", "-o", "y", "--seed", "3"], "`recode compress` does not take --seed"),
        (&["decompress", "x", "-o", "y", "--json"], "`recode decompress` does not take --json"),
        (&["spmv", "x", "--bounds"], "`recode spmv` does not take --bounds"),
        (&["tune", "x", "--config", "ds"], "`recode tune` does not take --config"),
        (&["report", "x", "--bounds"], "`recode report` does not take --bounds"),
        (&["trace-check", "x", "--json", "y"], "`recode trace-check` does not take --json"),
        (&["gen", "rmat", "9", "-o", "y", "--trials", "3"], "`recode gen` does not take --trials"),
        (&["disasm", "delta", "--bounds"], "`recode disasm` does not take --bounds"),
        (&["verify-program", "delta", "-o", "y"], "`recode verify-program` does not take -o"),
        (&["chaos", "--overlap"], "`recode chaos` does not take --overlap"),
        (&["metrics", "x", "--trace", "t.json"], "`recode metrics` does not take --trace"),
        (&["bench-compare", "x", "y", "--bogus"], "`recode bench-compare` does not take --bogus"),
        (&["info"], "missing operand <matrix.mtx>"),
        (&["gen", "stencil2d", "100"], "missing value for -o"),
        (&["bench-compare", "x"], "missing operand <new.json>"),
        (&["info", "x", "extra.mtx"], "unexpected operand `extra.mtx`"),
        (&["spmv", "x", "--config", "zstd"], "bad --config `zstd` (expected dsh|ds|snappy)"),
        (&["gen", "stencil2d", "many", "-o", "y"], "bad <target_nnz> `many`"),
    ];
    for (argv, why) in cases {
        let out = bin().args(argv).output().expect("run recode");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{argv:?}: {err}");
        assert!(err.contains(why), "{argv:?}: {err}");
        assert!(err.contains(&format!("usage: recode {} ", argv[0])), "{argv:?}: {err}");
        assert!(out.stdout.is_empty(), "{argv:?} ran: {}", String::from_utf8_lossy(&out.stdout));
    }
}

/// A reader that stops early ends the run by SIGPIPE, as it ends `cat`: no
/// panic and no exit 101. The listing outgrows a pipe buffer, so one of its
/// writes always finds the pipe closed.
#[test]
fn a_closed_stdout_ends_the_run_quietly() {
    use std::process::Stdio;
    let mut cmd = bin();
    cmd.args(["disasm", "dsh"]).stdout(Stdio::piped()).stderr(Stdio::piped());
    let mut child = cmd.spawn().expect("spawn recode");
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("wait for recode");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(!err.contains("panicked") && out.status.code() != Some(101), "{err}");
    #[cfg(unix)]
    assert_eq!(std::os::unix::process::ExitStatusExt::signal(&out.status), Some(13), "{err}");
}
