//! `recode` — command-line front end to the CPU-UDP recoding system.
//!
//! Run it with no arguments for the command list: [`COMMANDS`] is that list
//! and the dispatch table, and each `cmd_*` handler documents its command.
//! Handlers read their flags through `recode_core::cli`, so a flag a command
//! does not read is a usage error.
//!
//! Exit codes: `0` success, `1` error, `2` usage, [`EXIT_DEGRADED`] (3) when
//! the run recovered through retries, [`EXIT_FALLBACK`] (4) when any block
//! was served from the raw-CSR store.

use recode_spmv::codec::metrics::CompressionSummary;
use recode_spmv::codec::pipeline::{CompressedMatrix, MatrixCodecConfig};
use recode_spmv::core::cli::{self, Args, UsageError};
use recode_spmv::core::corpus;
use recode_spmv::core::json::{FromJson, Json, ToJson};
use recode_spmv::core::measure::measure_udp_decomp;
use recode_spmv::core::perfmodel::SpmvPerfModel;
use recode_spmv::core::recorder;
use recode_spmv::core::report;
use recode_spmv::core::telemetry::{RecorderSummary, Telemetry, TraceDocument, TRACE_SCHEMA};
use recode_spmv::core::StageSubset;
use recode_spmv::prelude::*;
use recode_spmv::sparse::io::{read_matrix_market_path, write_matrix_market};
use recode_spmv::sparse::spmv::SpmvKernel;
use recode_spmv::sparse::stats::MatrixStats;
use std::error::Error;
use std::num::NonZeroUsize;
use std::process::ExitCode;
use std::time::Instant;

/// Exit code for a run that finished bit-exact but needed retries.
const EXIT_DEGRADED: u8 = 3;
/// Exit code for a run that served blocks from the raw-CSR store.
const EXIT_FALLBACK: u8 = 4;

/// A command's exit code, or why it failed: a [`UsageError`] exits 2, any
/// other error 1.
type Outcome = Result<ExitCode, Box<dyn Error>>;

const LANE_TARGET: &str = "<file.udp | builtin:delta|snappy|huffman|dsh>";

/// A `recode` command: its name, the operands and flags its handler reads,
/// and the handler.
type Command = (&'static str, &'static str, fn(Args) -> Outcome);

const COMMANDS: [Command; 13] = [
    ("info", "<matrix.mtx>", cmd_info),
    ("compress", "<matrix.mtx> -o <out.rcmx> [--config dsh|ds|snappy]", cmd_compress),
    ("decompress", "<in.rcmx> -o <matrix.mtx>", cmd_decompress),
    (
        "spmv",
        "<matrix.mtx> [--trace <out.json>] [--chrome-trace <out.trace.json>]\n              \
         [--overlap] [--cache-blocks N] [--iters N] [--tuned <config.json>]\n              \
         [--config dsh|ds|snappy] [--inject-trap JOB] [--inject-corrupt BLOCK]",
        cmd_spmv,
    ),
    ("tune", "<matrix.mtx> [-o <config.json>]", cmd_tune),
    ("report", "<trace.json>", cmd_report),
    ("trace-check", "<trace.json> [--bounds]", cmd_trace_check),
    ("gen", "<family> <target_nnz> -o <matrix.mtx> [--seed N]", cmd_gen),
    ("disasm", LANE_TARGET, cmd_disasm),
    ("verify-program", LANE_TARGET, cmd_verify_program),
    ("chaos", "[--json <out.json>]", cmd_chaos),
    ("metrics", "<matrix.mtx> [-o <metrics.prom>] [--config dsh|ds|snappy]", cmd_metrics),
    ("bench-compare", "<old.json> <new.json>", cmd_bench_compare),
];

fn main() -> ExitCode {
    #[cfg(unix)]
    default_sigpipe();
    let mut args = Args::from_env();
    let command = args.subcommand().and_then(|name| COMMANDS.iter().find(|c| c.0 == name));
    let Some(&(name, usage, run)) = command else {
        eprintln!("usage:");
        for (name, usage, _) in COMMANDS {
            eprintln!("  recode {name} {usage}");
        }
        eprintln!(
            "\nspmv exit codes: 0 clean, 3 degraded (retries), 4 raw-CSR fallback\nfamilies: {}",
            corpus::FAMILIES.join(", ")
        );
        return ExitCode::from(cli::EXIT_USAGE);
    };
    match run(args).map_err(<dyn Error>::downcast::<UsageError>) {
        Ok(code) => code,
        Err(Ok(e)) => e.exit(&format!("recode {name} {usage}")),
        Err(Err(e)) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Puts back the default action for SIGPIPE, which the Rust runtime sets to
/// ignore: a write to a closed stdout (`recode info m.mtx | head -1`) then
/// ends the process quietly, as it ends `cat`, instead of making `println!`
/// panic.
#[cfg(unix)]
fn default_sigpipe() {
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGPIPE: i32 = 13;
    const SIG_DFL: usize = 0;
    // SAFETY: `signal` is the C library's own; SIG_DFL installs no handler,
    // so no Rust code runs on the signal, and no other thread exists yet.
    unsafe { signal(SIGPIPE, SIG_DFL) };
}

/// Maps a run's recovery stats onto the documented exit codes: raw-CSR
/// fallback beats plain degradation, which beats success.
fn exit_for(stats: &recode_spmv::core::ExecStats) -> ExitCode {
    if stats.blocks_fell_back > 0 {
        eprintln!(
            "note: {} block(s) served from the raw-CSR store (exit {EXIT_FALLBACK})",
            stats.blocks_fell_back,
        );
        ExitCode::from(EXIT_FALLBACK)
    } else if stats.degraded {
        eprintln!(
            "note: run degraded — {} block(s) recovered via retry (exit {EXIT_DEGRADED})",
            stats.blocks_recovered
        );
        ExitCode::from(EXIT_DEGRADED)
    } else {
        ExitCode::SUCCESS
    }
}

/// `--config dsh|ds|snappy`: the stages to recode with, full DSH by default.
fn codec(args: &mut Args) -> Result<MatrixCodecConfig, UsageError> {
    Ok(args
        .value("--config", "dsh|ds|snappy")?
        .map_or(MatrixCodecConfig::udp_dsh(), StageSubset::preset))
}

fn load(path: &str) -> Result<Csr, String> {
    read_matrix_market_path(path).map_err(|e| format!("{path}: {e}"))
}

/// The input matrix's file stem: how a trace document names its matrix.
fn matrix_name(path: &str) -> String {
    let stem = std::path::Path::new(path).file_stem();
    stem.map(|s| s.to_string_lossy().into_owned()).unwrap_or_default()
}

/// Switches on the flight recorder when `--chrome-trace` was given. Called
/// before the run so every span/instant of the pipeline lands in the ring.
fn arm_recorder(chrome_trace: Option<&str>) {
    if chrome_trace.is_some() {
        recorder::enable(recorder::DEFAULT_CAPACITY);
    }
}

/// Drains the flight recorder and writes the Chrome trace-event JSON.
/// Returns the ring's summary so a `--trace` document can carry it too.
fn finish_chrome_trace(path: &str) -> Result<RecorderSummary, String> {
    let events = recorder::drain();
    let stats = recorder::stats();
    let doc = recode_spmv::core::export_chrome_trace(&events);
    std::fs::write(path, doc.to_string_pretty()).map_err(|e| format!("{path}: {e}"))?;
    println!(
        "chrome trace written to {path}: {} events, {} dropped (open in Perfetto or chrome://tracing)",
        events.len(),
        stats.dropped
    );
    Ok(RecorderSummary::from_events(&events, stats))
}

/// `recode info`: structural and value statistics, and the DSH size.
fn cmd_info(mut args: Args) -> Outcome {
    let path = args.positional("matrix.mtx")?;
    args.finish()?;
    let a = load(&path)?;
    let s = MatrixStats::compute(&a);
    println!("shape            {} x {}", s.nrows, s.ncols);
    println!("non-zeros        {} (density {:.3e})", s.nnz, s.density);
    println!("nnz/row          avg {:.1}, max {}", s.avg_nnz_per_row, s.max_nnz_per_row);
    println!("empty rows       {}", s.empty_rows);
    println!("bandwidth        {} (avg |i-j| {:.1})", s.bandwidth, s.avg_band);
    println!("avg col delta    {:.2}", s.avg_col_delta);
    println!("distinct values  {} (sampled)", s.distinct_values_sampled);
    println!("value entropy    {:.2} bits/byte", s.value_byte_entropy);
    println!("symmetric        {} (structurally: {})", s.symmetric, s.structurally_symmetric);
    let cm = CompressedMatrix::compress(&a, MatrixCodecConfig::udp_dsh())?;
    let sum = CompressionSummary::of(&cm);
    println!(
        "DSH compression  {:.2} B/nnz (index {:.2} + value {:.2}; raw 12.00)",
        sum.bytes_per_nnz, sum.index_bytes_per_nnz, sum.value_bytes_per_nnz
    );
    Ok(ExitCode::SUCCESS)
}

/// `recode compress`: write the compressed matrix as a JSON container.
fn cmd_compress(mut args: Args) -> Outcome {
    let out: String = args.required("-o", "a path")?;
    let config = codec(&mut args)?;
    let input = args.positional("matrix.mtx")?;
    args.finish()?;
    let a = load(&input)?;
    let cm = CompressedMatrix::compress(&a, config)?;
    let container = cm.to_bytes();
    std::fs::write(&out, &container)?;
    let raw = a.nnz() * 12;
    println!(
        "{input} -> {out}: {} nnz, {:.2} B/nnz ({} compressed bytes vs {raw} raw, container {} bytes)",
        a.nnz(),
        cm.bytes_per_nnz(),
        cm.wire_bytes(),
        container.len()
    );
    Ok(ExitCode::SUCCESS)
}

/// `recode decompress`: restore a container as MatrixMarket.
fn cmd_decompress(mut args: Args) -> Outcome {
    let out: String = args.required("-o", "a path")?;
    let input = args.positional("in.rcmx")?;
    args.finish()?;
    let container = std::fs::read(&input).map_err(|e| format!("{input}: {e}"))?;
    let cm = CompressedMatrix::from_bytes(&container).map_err(|e| format!("{input}: {e}"))?;
    let a = cm.decompress()?;
    let mut buf = Vec::new();
    write_matrix_market(&a, &mut buf)?;
    std::fs::write(&out, buf)?;
    println!("{input} -> {out}: {} x {}, {} nnz", a.nrows(), a.ncols(), a.nnz());
    Ok(ExitCode::SUCCESS)
}

/// Applies `--inject-corrupt BLOCK`: flips a payload bit in one index-stream
/// block so CRC framing catches it on every decode attempt and the run is
/// forced through the retry → raw-CSR fallback ladder.
fn apply_injection(recoded: &mut RecodedSpmv, corrupt: Option<usize>) -> Result<(), String> {
    if let Some(b) = corrupt {
        let blocks = &mut recoded.compressed_mut().index_stream.blocks;
        let n = blocks.len();
        let blk = blocks
            .get_mut(b)
            .ok_or_else(|| format!("--inject-corrupt {b}: the index stream has {n} blocks"))?;
        let byte =
            blk.payload.first_mut().ok_or("--inject-corrupt: target block has no payload")?;
        *byte ^= 0x40;
    }
    Ok(())
}

/// Loads, parses, and digest-validates the `--tuned` config.
/// Every failure is a hard error — a stale or foreign tuning never falls
/// back silently to the defaults.
fn tuned_for(path: &str, a: &Csr) -> Result<TunedConfig, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let tuned = TunedConfig::from_json_str(&text).map_err(|e| format!("{path}: {e}"))?;
    tuned.validate_for(a).map_err(|e| format!("{path}: {e}"))?;
    println!(
        "tuned: stages {}, block {} B ({} candidates searched)",
        tuned.stages.name(),
        tuned.block_bytes,
        tuned.candidates
    );
    Ok(tuned)
}

/// `recode spmv`: run SpMV through the simulated heterogeneous system and
/// verify it bit-exact against the uncompressed kernel, on the batch
/// schedule or the pipelined one (`--overlap`), whose decoded-block LRU
/// holds `--cache-blocks` blocks and whose `--iters` shows the warm-cache
/// decode cost. `--tuned` recodes under a persisted `recode-tuned/v2`
/// config's codec.
fn cmd_spmv(mut args: Args) -> Outcome {
    let overlap = args.switch("--overlap");
    let cache_blocks = args.value("--cache-blocks", "an integer")?.unwrap_or(0);
    let iters = args.value("--iters", "an integer >= 1")?.map_or(1, NonZeroUsize::get);
    let config = codec(&mut args)?;
    let tuned: Option<String> = args.value("--tuned", "a path")?;
    let inject_trap: Option<usize> = args.value("--inject-trap", "a job index")?;
    let inject_corrupt = args.value("--inject-corrupt", "a block index")?;
    let trace: Option<String> = args.value("--trace", "a path")?;
    let chrome_trace: Option<String> = args.value("--chrome-trace", "a path")?;
    let path = args.positional("matrix.mtx")?;
    args.finish()?;
    let a = load(&path)?;
    if !overlap && (iters > 1 || cache_blocks > 0) {
        return Err(
            "--iters and --cache-blocks need --overlap (the batch path has no cache)".into()
        );
    }
    if iters > 1 && a.nrows() != a.ncols() {
        return Err("--iters needs a square matrix".into());
    }
    let tuned = tuned.map(|path| tuned_for(&path, &a)).transpose()?;
    let config = tuned.as_ref().map_or(config, TunedConfig::codec_config);
    let sys = SystemConfig::ddr4();
    let x = vec![1.0; a.ncols()];
    let y_ref = spmv(&a, &x);
    arm_recorder(chrome_trace.as_deref());
    // Whether the run is traced is one value: the registry in its context.
    let mut tel = trace.is_some().then(Telemetry::new);
    let mut recoded = RecodedSpmv::new(&a, config)?;
    // The batch run cross-checks losslessness through the software decode.
    if !overlap && recoded.decompress_via_software()? != a {
        return Err("software decode diverged from the original matrix".into());
    }
    apply_injection(&mut recoded, inject_corrupt)?;
    let jobs = recoded.total_jobs();
    if let Some(j) = inject_trap.filter(|&j| j >= jobs) {
        return Err(format!("--inject-trap {j}: the matrix has {jobs} decode jobs").into());
    }
    let hook = inject_trap.map(|j| FaultHook::new().trap(j));
    let overlap_config = OverlapConfig { cache_blocks, ..OverlapConfig::default() };
    // `from_tuned` re-checks the operand really carries the tuned stream.
    let ex = match (overlap, &tuned) {
        (false, _) => None,
        (true, Some(t)) => Some(OverlapExecutor::from_tuned(&recoded, t, overlap_config)?),
        (true, None) => Some(OverlapExecutor::new(&recoded, overlap_config)),
    };
    let t_total = Instant::now();
    let ctx = RunCtx { hook: hook.as_ref(), tel: tel.as_mut() };
    let (y, stats) = match &ex {
        Some(ex) => ex.spmv_with(&sys, &x, ctx),
        None => recoded.spmv_with(&sys, SpmvKernel::RowParallel, &x, ctx),
    }?;
    let recorded = chrome_trace.as_deref().map(finish_chrome_trace).transpose()?;
    if let (Some(tel), Some(trace_path)) = (tel, &trace) {
        let mut doc = recoded.seal(&sys, tel, &stats, &matrix_name(&path), t_total);
        doc.recorder = recorded;
        std::fs::write(trace_path, doc.to_json().to_string_pretty())
            .map_err(|e| format!("{trace_path}: {e}"))?;
        println!(
            "trace ({}) written to {trace_path}: {} spans, {} block events, {} counters",
            doc.schema,
            doc.spans.len(),
            doc.block_events.len(),
            doc.counters.len()
        );
    }
    if y != y_ref {
        return Err("recoded SpMV diverged from the uncompressed kernel".into());
    }
    let schedule = if overlap { "pipelined" } else { "recoded" };
    println!(
        "{schedule} SpMV verified against the uncompressed kernel ({} rows, bit-exact)",
        y.len()
    );
    let Some(ex) = &ex else {
        println!(
            "UDP: {} blocks, makespan {} cycles, {:.2} GB/s decompressed, {:.1}% lane utilization",
            stats.accel.jobs,
            stats.accel.makespan_cycles,
            stats.accel.throughput_bps() / 1e9,
            stats.accel.lane_utilization * 100.0
        );
        // The throughput measurement re-decodes sampled blocks outside the
        // retry/fallback ladder, so it only makes sense on a pristine stream;
        // an operand with no stored entries has no bytes per non-zero to model.
        if inject_trap.is_none() && inject_corrupt.is_none() && a.nnz() > 0 {
            let cm = recoded.compressed();
            let m = measure_udp_decomp(cm, &sys.udp, 24)?;
            let model = SpmvPerfModel {
                bytes_per_nnz: cm.bytes_per_nnz(),
                udp_out_bps_per_accel: m.accel_out_bps.max(1e9),
            };
            println!("\nmodeled on the 100 GB/s DDR4 system ({:.2} B/nnz):", cm.bytes_per_nnz());
            print!("{}", report::scenarios(&model.evaluate_all(&sys)));
            let p = PowerSavings::compute(&sys, cm.bytes_per_nnz(), m.accel_out_bps.max(1e9));
            println!(
                "iso-performance power: {:.1} W of {:.0} W saved",
                p.net_saving_w, p.max_power_w
            );
        }
        return Ok(exit_for(&stats));
    };
    let ov = stats.overlap;
    println!(
        "overlap: {} stages; decode {} + multiply {} cycles",
        ov.stages, ov.decode_cycles, ov.multiply_cycles
    );
    println!(
        "         makespan {} cycles vs {} serial ({} saved, {:.1}% lane utilization)",
        ov.overlapped_makespan_cycles,
        ov.serial_makespan_cycles,
        ov.saved_cycles(),
        stats.accel.lane_utilization * 100.0
    );
    if cache_blocks > 0 {
        println!(
            "cache: capacity {} blocks; {} hits / {} misses / {} evictions ({} decoded bytes served)",
            cache_blocks, ov.cache_hits, ov.cache_misses, ov.cache_evictions, ov.cache_hit_bytes
        );
    }
    if iters > 1 {
        // `x ← normalize(A x)`, the access pattern of an iterative solver,
        // with every warm product held to the uncompressed kernel too.
        let mut y = y;
        let mut decode = vec![ov.decode_cycles];
        for _ in 1..iters {
            let norm = y.iter().fold(0.0f64, |m, v| m.max(v.abs()));
            let x: Vec<f64> = if norm > 0.0 { y.iter().map(|v| v / norm).collect() } else { y };
            let (next, s) = ex.spmv(&sys, &x)?;
            if next != spmv(&a, &x) {
                return Err("a warm pipelined SpMV diverged from the uncompressed kernel".into());
            }
            decode.push(s.overlap.decode_cycles);
            y = next;
        }
        println!("\niterated multiply (decode cycles per iteration):");
        for (i, d) in decode.iter().enumerate() {
            println!("  iter {:>3}: {d:>12} decode cycles", i + 1);
        }
        let warm_sum: u64 = decode[1..].iter().sum();
        if warm_sum == 0 {
            println!("  warm iterations paid zero decode cycles (every block served from cache)");
        } else {
            let warm_avg = warm_sum as f64 / (decode.len() - 1) as f64;
            println!("  cold/warm decode ratio: {:.1}x", decode[0] as f64 / warm_avg);
        }
    }
    Ok(exit_for(&stats))
}

/// `recode tune`: search codec-stage × block size over the input matrix,
/// print the scored candidate table, and persist the winner as a
/// digest-keyed `recode-tuned/v2` document for `recode spmv --tuned`.
/// Selection is purely by modeled cycles, so the written config is a pure
/// function of the matrix.
fn cmd_tune(mut args: Args) -> Outcome {
    let out: Option<String> = args.value("-o", "a path")?;
    let input = args.positional("matrix.mtx")?;
    args.finish()?;
    let a = load(&input)?;
    println!("tuning {} ({} x {}, {} nnz)...", input, a.nrows(), a.ncols(), a.nnz());
    let outcome = tune_matrix(&a, &SystemConfig::ddr4())?;
    let mut ranked: Vec<&recode_spmv::core::CandidateScore> = outcome.candidates.iter().collect();
    ranked.sort_by_key(|c| c.total_cycles());
    println!(
        "\n{:>7} {:>7} {:>13} {:>13} {:>13} {:>8}",
        "stages", "block", "decode cyc", "multiply cyc", "total cyc", "B/nnz"
    );
    for c in ranked {
        println!(
            "{:>7} {:>7} {:>13} {:>13} {:>13} {:>8.2}",
            c.stages.name(),
            c.block_bytes,
            c.decode_cycles,
            c.multiply_cycles,
            c.total_cycles(),
            c.wire_bytes_per_nnz
        );
    }
    let cfg = &outcome.config;
    let out = out.unwrap_or_else(|| format!("{input}.tuned.json"));
    std::fs::write(&out, cfg.to_json_string()).map_err(|e| format!("{out}: {e}"))?;
    println!(
        "\nwinner: stages {}, block {} B — {} modeled cycles ({} decode + {} multiply)",
        cfg.stages.name(),
        cfg.block_bytes,
        cfg.modeled_total_cycles(),
        cfg.modeled_decode_cycles,
        cfg.modeled_multiply_cycles
    );
    println!("tuned config ({}) written to {out}", recode_spmv::core::TUNED_SCHEMA);
    println!("run it: recode spmv {input} --tuned {out}");
    Ok(ExitCode::SUCCESS)
}

/// Reads a trace document, refusing one of another schema by its stamp
/// before mapping any field.
fn load_trace(path: &str) -> Result<TraceDocument, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let json = recode_spmv::core::json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    match json.get("schema").and_then(Json::as_str) {
        Some(TRACE_SCHEMA) | None => {}
        Some(other) => return Err(format!("{path}: schema `{other}` is not `{TRACE_SCHEMA}`")),
    }
    TraceDocument::from_json(&json).map_err(|e| format!("{path}: {e}"))
}

/// `recode report`: render a trace document as a table.
fn cmd_report(mut args: Args) -> Outcome {
    let path = args.positional("trace.json")?;
    args.finish()?;
    let doc = load_trace(&path)?;
    print!("{}", recode_spmv::core::telemetry::render_report(&doc));
    Ok(ExitCode::SUCCESS)
}

/// `recode trace-check`: validate a trace document's schema and internal
/// invariants (exit 1 on a violation); `--bounds` also re-verifies its
/// stored cycles against the certified envelopes (see [`check_trace_bounds`]).
fn cmd_trace_check(mut args: Args) -> Outcome {
    let bounds = args.switch("--bounds");
    let path = args.positional("trace.json")?;
    args.finish()?;
    let doc = load_trace(&path)?;
    let errs = doc.validate();
    if !errs.is_empty() {
        for e in &errs {
            eprintln!("invariant violated: {e}");
        }
        return Err(format!("trace failed validation with {} error(s)", errs.len()).into());
    }
    if bounds {
        check_trace_bounds(&doc)?;
    }
    println!(
        "trace OK: schema {}, matrix {} ({} nnz), {} spans, {} block events, {} counters, {} lanes profiled",
        doc.schema,
        if doc.matrix.name.is_empty() { "<unnamed>" } else { &doc.matrix.name },
        doc.matrix.nnz,
        doc.spans.len(),
        doc.block_events.len(),
        doc.counters.len(),
        doc.exec.accel.lane_profiles.len()
    );
    Ok(ExitCode::SUCCESS)
}

/// The `--bounds` arm of `recode trace-check`: rebuild the
/// table-independent builtin stage programs (inverse delta, Snappy), take
/// their statically certified [`CycleBound`] envelopes, and re-verify the
/// trace's stored cycles against them. The compiled Huffman stage is
/// per-matrix (its table is not in the trace), so it contributes no bound
/// here — every check stays sound without it.
///
/// Checks, all vacuous on empty traces:
/// 1. the rebuildable stage programs still certify a bounded envelope;
/// 2. every block event that ran on a lane (Ok/Retried) spent at least the
///    summed certified minimum of the active rebuildable stages;
/// 3. when the Huffman stage was inactive, no event exceeds the summed
///    certified maximum at the lane output-window input cap;
/// 4. each rebuildable stage's aggregate cycles fit
///    `attempts x certified max`, where attempts = jobs + retries.
fn check_trace_bounds(doc: &TraceDocument) -> Result<(), String> {
    use recode_spmv::core::telemetry::BlockOutcome;
    use recode_spmv::udp::isa::SCRATCHPAD_BYTES;
    use recode_spmv::udp::progs;
    // Any intermediate stage input fits the lane output window (half the
    // scratchpad), which caps the bits a later stage can consume; first
    // stages see at most one compressed block, which is smaller still.
    let bits_cap = 8 * (SCRATCHPAD_BYTES as u64 / 2);
    let st = &doc.exec.accel.stage_cycles;
    let mut stages = Vec::new();
    for (name, image, active_cycles) in [
        ("snappy", progs::snappy::build().map_err(|e| e.to_string())?, st.snappy),
        ("delta", progs::delta::build().map_err(|e| e.to_string())?, st.delta),
    ] {
        let bound =
            image.verify_report.cycle_bound.filter(|b| b.max.is_some()).ok_or_else(|| {
                format!("builtin `{name}` no longer certifies a bounded envelope")
            })?;
        stages.push((name, bound, active_cycles));
    }
    let mut violations = Vec::new();
    let floor: u64 = stages.iter().filter(|(_, _, c)| *c > 0).map(|(_, b, _)| b.min).sum();
    let huffman_active = st.huffman > 0;
    let event_cap: u64 = stages
        .iter()
        .filter(|(_, _, c)| *c > 0)
        .map(|(_, b, _)| b.max.expect("filtered above").max_for(bits_cap))
        .sum();
    let mut ran = 0u64;
    for e in &doc.block_events {
        if e.outcome == BlockOutcome::FellBack {
            continue;
        }
        ran += 1;
        if e.cycles < floor {
            violations.push(format!(
                "block event (job {}, {:?}) spent {} cycles, under the certified floor {floor}",
                e.job, e.outcome, e.cycles
            ));
        }
        if !huffman_active && e.cycles > event_cap {
            violations.push(format!(
                "block event (job {}, {:?}) spent {} cycles, over the certified cap {event_cap}",
                e.job, e.outcome, e.cycles
            ));
        }
    }
    let attempts = (doc.exec.accel.jobs + doc.exec.blocks_retried) as u64;
    for (name, bound, stage_total) in &stages {
        let cap = attempts.saturating_mul(bound.max.expect("filtered above").max_for(bits_cap));
        if *stage_total > cap {
            violations.push(format!(
                "stage `{name}` spent {stage_total} cycles across {attempts} attempt(s), \
                 over the certified aggregate cap {cap}"
            ));
        }
    }
    if !violations.is_empty() {
        for v in &violations {
            eprintln!("certified bound violated: {v}");
        }
        return Err(format!(
            "trace escaped its certified envelopes ({} violation(s))",
            violations.len()
        ));
    }
    println!(
        "certified bounds OK: {ran} lane event(s) >= floor {floor}, stage aggregates within \
         {} certified envelope(s){}",
        stages.len(),
        if huffman_active { " (huffman stage active: per-matrix, not re-checked)" } else { "" }
    );
    Ok(())
}

/// Resolves the target of `recode disasm` / `recode verify-program` to the
/// images it names: a shipped program (`delta`, `snappy`, `huffman`, or
/// `dsh` for the whole pipeline in stage order; `builtin:` prefix optional)
/// or a `.udp` assembly file, whose verify findings get source lines.
fn lane_images(target: &str) -> Result<Vec<recode_spmv::udp::Image>, Box<dyn Error>> {
    use recode_spmv::udp::{asm, machine, progs};
    let spelled = target.strip_prefix("builtin:").unwrap_or(target);
    // A representative compiled decoder: uniform 8-bit code lengths
    // (Kraft-complete over 256 symbols).
    let huffman = || progs::huffman::compile(&[8u8; 256]);
    Ok(match spelled {
        "delta" => vec![progs::delta::build()?],
        "snappy" => vec![progs::snappy::build()?],
        "huffman" => vec![huffman()?],
        "dsh" => vec![huffman()?, progs::snappy::build()?, progs::delta::build()?],
        _ if spelled.len() != target.len() => {
            return Err(
                format!("unknown builtin `{spelled}` (try delta|snappy|huffman|dsh)").into()
            );
        }
        path => {
            let src = std::fs::read_to_string(path).map_err(|e| {
                format!("{path}: {e} (not a builtin either: delta|snappy|huffman|dsh)")
            })?;
            let name = std::path::Path::new(path)
                .file_stem()
                .map_or_else(|| "program".into(), |s| s.to_string_lossy().into_owned());
            let (program, map) =
                asm::assemble_text_with_map(&name, &src).map_err(|e| format!("{path}: {e}"))?;
            let mut image = machine::assemble(&program)?;
            image.verify_report.attach_lines(&map);
            vec![image]
        }
    })
}

/// `recode disasm`: disassemble a lane program (see [`lane_images`]).
fn cmd_disasm(mut args: Args) -> Outcome {
    let target = args.positional("file.udp | builtin:NAME")?;
    args.finish()?;
    for image in lane_images(&target)? {
        print!("{}", image.disassemble());
    }
    Ok(ExitCode::SUCCESS)
}

/// Renders the certified per-block bounds table for a verified image: one
/// row per placed code word (a word IS a basic block on this machine) with
/// its per-visit cycle cost, capped for very large compiled programs, then
/// the program's certified envelope.
fn render_bounds_table(image: &recode_spmv::udp::Image) -> String {
    use std::fmt::Write as _;
    const MAX_ROWS: usize = 32;
    let mut out = String::new();
    let _ = writeln!(out, "-- certified cycle bounds: {} --", image.name);
    let _ = writeln!(out, "{:>6}  {:>9}  {:>7}  terminator", "addr", "cyc/visit", "actions");
    let mut shown = 0usize;
    let mut total = 0usize;
    for addr in 0..image.words.len() as u32 {
        let Some(block) = image.decode(addr) else { continue };
        total += 1;
        if shown >= MAX_ROWS {
            continue;
        }
        shown += 1;
        let marker = if addr == image.entry { " <entry>" } else { "" };
        let _ = writeln!(
            out,
            "{addr:>6}  {:>9}  {:>7}  {}{marker}",
            1 + block.actions().len(),
            block.actions().len(),
            block.transition
        );
    }
    if total > shown {
        let _ = writeln!(out, "  ({} more blocks not shown)", total - shown);
    }
    match image.verify_report.cycle_bound {
        Some(b) => {
            let _ = writeln!(out, "program envelope: {b} cycles over the whole input");
        }
        None => {
            let _ = writeln!(out, "program envelope: none (no reachable halt)");
        }
    }
    out
}

/// `recode verify-program`: run the static verifier on a `.udp` assembly
/// file (findings annotated with source lines) or one of the shipped
/// programs by name (see [`lane_images`]).
/// Prints the severity-ranked report and the certified per-block bounds
/// table; exits nonzero when a program carries `Error` findings — the same
/// findings that make `Lane::run` refuse the image.
fn cmd_verify_program(mut args: Args) -> Outcome {
    let target = args.positional("file.udp | builtin:NAME")?;
    args.finish()?;
    let images = lane_images(&target)?;
    let mut errors = 0usize;
    for image in &images {
        print!("{}", image.verify_report);
        print!("{}", render_bounds_table(image));
        errors += image.verify_report.error_count();
    }
    if errors > 0 {
        return Err(format!("`{target}` rejected: {errors} error finding(s)").into());
    }
    Ok(ExitCode::SUCCESS)
}

/// `recode chaos`: run every fault case of `core::chaos` on every
/// schedule and print the table, one row per case. The table is a function
/// of the tree; `--json` writes it (`results/chaos_campaign.json` is that
/// file). Exits 1 when a run broke the contract.
fn cmd_chaos(mut args: Args) -> Outcome {
    let json: Option<String> = args.value("--json", "a path")?;
    args.finish()?;
    let table = recode_spmv::core::chaos::run();
    print!("{}", table.render());
    if let Some(path) = &json {
        std::fs::write(path, table.to_json()).map_err(|e| format!("{path}: {e}"))?;
        println!("table written to {path}");
    }
    if table.healthy() {
        Ok(ExitCode::SUCCESS)
    } else {
        Err("a fault case broke the resilience contract".into())
    }
}

/// `recode metrics`: run one traced batch decode and print the sealed
/// trace document as a Prometheus text exposition — the scrape surface for
/// the pipeline's counters, gauges, and span timings.
fn cmd_metrics(mut args: Args) -> Outcome {
    use recode_spmv::core::MetricsSnapshot;
    let out: Option<String> = args.value("-o", "a path")?;
    let config = codec(&mut args)?;
    let path = args.positional("matrix.mtx")?;
    args.finish()?;
    let a = load(&path)?;
    let sys = SystemConfig::ddr4();
    // Arm the flight recorder before compression so the exposition carries
    // per-kind event counters — including the jit_compile events fired
    // while the decoder's lane images are assembled just below.
    recorder::enable(recorder::DEFAULT_CAPACITY);
    let recoded = RecodedSpmv::new(&a, config)?;
    let (mut tel, t_total) = (Telemetry::new(), Instant::now());
    let (_, stats) = recoded.decompress_with(&sys, RunCtx::default().traced(&mut tel))?;
    let mut doc = recoded.seal(&sys, tel, &stats, &matrix_name(&path), t_total);
    doc.recorder = Some(RecorderSummary::from_events(&recorder::drain(), recorder::stats()));
    let text = MetricsSnapshot::from_document(&doc).render_prometheus();
    match &out {
        Some(path) => {
            std::fs::write(path, &text).map_err(|e| format!("{path}: {e}"))?;
            println!("metrics written to {path} ({} bytes)", text.len());
        }
        None => print!("{text}"),
    }
    Ok(ExitCode::SUCCESS)
}

/// `recode bench-compare`: diff two bench-snapshot JSON files and fail
/// (exit 1) when a gated deterministic metric regressed beyond the
/// threshold. Wall-clock metrics are reported but never gate — baselines
/// are blessed on whatever machine ran them.
fn cmd_bench_compare(mut args: Args) -> Outcome {
    use recode_spmv::core::benchcmp::GATE_THRESHOLD;
    let old_path = args.positional("old.json")?;
    let new_path = args.positional("new.json")?;
    args.finish()?;
    let old = std::fs::read_to_string(&old_path).map_err(|e| format!("{old_path}: {e}"))?;
    let new = std::fs::read_to_string(&new_path).map_err(|e| format!("{new_path}: {e}"))?;
    let report = recode_spmv::core::compare_snapshots(&old, &new)?;
    print!("{}", report.render());
    if report.has_regressions() {
        return Err(format!(
            "{} gated metric(s) regressed more than {:.0}% beyond noise",
            report.regressions().len(),
            GATE_THRESHOLD * 100.0
        )
        .into());
    }
    Ok(ExitCode::SUCCESS)
}

/// `recode gen`: write a synthetic matrix of one of the corpus families.
fn cmd_gen(mut args: Args) -> Outcome {
    let out: String = args.required("-o", "a path")?;
    let seed = args.value("--seed", "an integer")?.unwrap_or(2019);
    let family = args.positional("family")?;
    let target: usize = cli::parse("<target_nnz>", args.positional("target_nnz")?, "an integer")?;
    args.finish()?;
    let spec = corpus::spec_for_family(&family, target, seed)
        .ok_or_else(|| format!("unknown family {family} (try: {})", corpus::FAMILIES.join(", ")))?;
    let a = recode_spmv::sparse::gen::generate(&spec, seed);
    let mut buf = Vec::new();
    write_matrix_market(&a, &mut buf)?;
    std::fs::write(&out, buf)?;
    println!("{family} -> {out}: {} x {}, {} nnz", a.nrows(), a.ncols(), a.nnz());
    Ok(ExitCode::SUCCESS)
}
