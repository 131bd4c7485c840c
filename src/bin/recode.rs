//! `recode` — command-line front end to the CPU-UDP recoding system.
//!
//! ```text
//! recode info      <matrix.mtx>                  structural + value statistics
//! recode compress  <matrix.mtx> -o <out.rcmx>    DSH-compress (JSON container)
//! recode decompress <in.rcmx>   -o <matrix.mtx>  restore MatrixMarket
//! recode spmv      <matrix.mtx> [--trace <out.json>]
//!                  [--overlap] [--cache-blocks N] [--iters N]
//!                  [--tuned <config.json>]
//!                                                run SpMV through the simulated
//!                                                heterogeneous system and report;
//!                                                --trace writes the full telemetry
//!                                                document (recode-trace/v2 JSON; a
//!                                                document with no pool.*/breaker.*
//!                                                counters is stamped v1);
//!                                                --overlap routes through the
//!                                                pipelined decode/multiply
//!                                                executor, --cache-blocks seeds
//!                                                its decoded-block LRU cache, and
//!                                                --iters repeats the multiply to
//!                                                show the warm-cache decode cost;
//!                                                --tuned recodes under the codec
//!                                                a persisted recode-tuned/v2
//!                                                config prescribes (a digest or
//!                                                schema mismatch is a hard error)
//! recode tune      <matrix.mtx> [-o <config.json>]
//!                                                search codec-stage x block size,
//!                                                print the candidate table, and
//!                                                persist the winner (selection is
//!                                                by the deterministic modeled
//!                                                decode + multiply makespan)
//! recode report    <trace.json>                  render a trace as a table
//! recode trace-check <trace.json> [--bounds]     validate a trace's schema and
//!                                                internal invariants; --bounds
//!                                                additionally re-verifies the
//!                                                stored per-stage cycles against
//!                                                the certified static cycle
//!                                                envelopes of the builtin stage
//!                                                programs (exit 1 on violation)
//! recode gen       <family> <target_nnz> -o <matrix.mtx>
//!                                                emit a synthetic matrix
//! recode disasm    <file.udp | builtin:NAME>     disassemble a lane program (same
//!                                                targets as verify-program)
//! recode verify-program <file.udp | builtin:NAME>
//!                                                run the static verifier on a
//!                                                lane program and print its
//!                                                findings plus the certified
//!                                                per-block cycle-bounds table
//!                                                (exit 1 on Error); builtins:
//!                                                delta, snappy, huffman, or
//!                                                dsh for the whole pipeline
//!                                                (bare names also accepted)
//! recode chaos     [--trials N] [--seed N] [--json <out.json>]
//!                                                run a seeded chaos campaign
//!                                                over the resilient executors
//!                                                and report; exit 1 unless the
//!                                                resilience contract held on
//!                                                every trial
//! recode metrics   <matrix.mtx>                  run one budgeted job and print
//!                                                the trace counters as a
//!                                                Prometheus text exposition
//! recode bench-compare <old.json> <new.json>     diff two bench snapshots;
//!                                                exit 1 when a gated metric
//!                                                regressed >20% beyond noise
//! ```
//!
//! Flags: `-o PATH` output, `--config dsh|ds|snappy` codec choice,
//! `--seed N` for `gen`/`chaos`, `--trace PATH` / `--overlap` /
//! `--cache-blocks N` / `--iters N` for `spmv`, `--inject-trap JOB` /
//! `--inject-corrupt BLOCK` fault injection for `spmv`, `--trials N` /
//! `--json PATH` for `chaos`, and `--chrome-trace PATH` (`spmv`, `chaos`)
//! to switch on the flight recorder and export the run as a Chrome
//! trace-event / Perfetto JSON timeline.
//!
//! Exit codes: `0` success, `1` error, `2` usage, [`EXIT_DEGRADED`] (3) when
//! the run recovered through retries, [`EXIT_FALLBACK`] (4) when any block
//! was served from the raw-CSR store or the whole job degraded to the
//! software decoder.

use recode_spmv::codec::metrics::CompressionSummary;
use recode_spmv::codec::pipeline::{CompressedMatrix, MatrixCodecConfig};
use recode_spmv::core::corpus;
use recode_spmv::core::measure::measure_udp_decomp;
use recode_spmv::core::perfmodel::SpmvPerfModel;
use recode_spmv::core::recorder;
use recode_spmv::core::report;
use recode_spmv::core::telemetry::{RecorderSummary, Telemetry};
use recode_spmv::prelude::*;
use recode_spmv::sparse::io::{read_matrix_market_path, write_matrix_market};
use recode_spmv::sparse::spmv::SpmvKernel;
use recode_spmv::sparse::stats::MatrixStats;
use std::process::ExitCode;
use std::time::Instant;

/// Exit code for a run that finished bit-exact but needed retries.
const EXIT_DEGRADED: u8 = 3;
/// Exit code for a run that served blocks from the raw-CSR store or fell
/// back to the software decoder entirely.
const EXIT_FALLBACK: u8 = 4;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  recode info <matrix.mtx>\n  recode compress <matrix.mtx> -o <out.rcmx> [--config dsh|ds|snappy]\n  recode decompress <in.rcmx> -o <matrix.mtx>\n  recode spmv <matrix.mtx> [--trace <out.json>] [--chrome-trace <out.trace.json>]\n              [--overlap] [--cache-blocks N] [--iters N] [--tuned <config.json>]\n              [--inject-trap JOB] [--inject-corrupt BLOCK]\n  recode tune <matrix.mtx> [-o <config.json>]\n  recode report <trace.json>\n  recode trace-check <trace.json> [--bounds]\n  recode gen <family> <target_nnz> -o <matrix.mtx> [--seed N]\n  recode disasm <file.udp | builtin:delta|snappy|huffman|dsh>\n  recode verify-program <file.udp | builtin:delta|snappy|huffman|dsh>\n  recode chaos [--trials N] [--seed N] [--json <out.json>] [--chrome-trace <out.trace.json>]\n  recode metrics <matrix.mtx> [-o <metrics.prom>]\n  recode bench-compare <old.json> <new.json>\n\nspmv exit codes: 0 clean, 3 degraded (retries), 4 raw-CSR/software fallback\nfamilies: {}",
        FAMILIES.join(", ")
    );
    ExitCode::from(2)
}

const FAMILIES: [&str; 11] = [
    "stencil2d",
    "stencil2d9",
    "stencil3d",
    "multidiag",
    "femband",
    "blockjac",
    "circuit",
    "rmat",
    "erdos",
    "smallworld",
    "laplacian",
];

struct Flags {
    positional: Vec<String>,
    output: Option<String>,
    config: MatrixCodecConfig,
    seed: u64,
    trace: Option<String>,
    overlap: bool,
    cache_blocks: usize,
    iters: usize,
    inject_trap: Option<usize>,
    inject_corrupt: Option<usize>,
    trials: usize,
    json: Option<String>,
    chrome_trace: Option<String>,
    tuned: Option<String>,
    bounds: bool,
}

fn parse(args: &[String]) -> Result<Flags, String> {
    let mut f = Flags {
        positional: Vec::new(),
        output: None,
        config: MatrixCodecConfig::udp_dsh(),
        seed: 2019,
        trace: None,
        overlap: false,
        cache_blocks: 0,
        iters: 1,
        inject_trap: None,
        inject_corrupt: None,
        trials: 500,
        json: None,
        chrome_trace: None,
        tuned: None,
        bounds: false,
    };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "-o" | "--output" => {
                i += 1;
                f.output = Some(args.get(i).ok_or("missing value for -o")?.clone());
            }
            "--config" => {
                i += 1;
                f.config = match args.get(i).map(String::as_str) {
                    Some("dsh") => MatrixCodecConfig::udp_dsh(),
                    Some("ds") => MatrixCodecConfig::udp_ds(),
                    Some("snappy") => MatrixCodecConfig::cpu_snappy(),
                    other => return Err(format!("bad --config {other:?}")),
                };
            }
            "--trace" => {
                i += 1;
                f.trace = Some(args.get(i).ok_or("missing value for --trace")?.clone());
            }
            "--overlap" => f.overlap = true,
            "--cache-blocks" => {
                i += 1;
                f.cache_blocks =
                    args.get(i).and_then(|s| s.parse().ok()).ok_or("bad --cache-blocks value")?;
            }
            "--iters" => {
                i += 1;
                f.iters = args
                    .get(i)
                    .and_then(|s| s.parse::<usize>().ok())
                    .filter(|&n| n >= 1)
                    .ok_or("bad --iters value (need an integer >= 1)")?;
            }
            "--seed" => {
                i += 1;
                f.seed = args.get(i).and_then(|s| s.parse().ok()).ok_or("bad --seed value")?;
            }
            "--inject-trap" => {
                i += 1;
                f.inject_trap = Some(
                    args.get(i).and_then(|s| s.parse().ok()).ok_or("bad --inject-trap value")?,
                );
            }
            "--inject-corrupt" => {
                i += 1;
                f.inject_corrupt = Some(
                    args.get(i).and_then(|s| s.parse().ok()).ok_or("bad --inject-corrupt value")?,
                );
            }
            "--trials" => {
                i += 1;
                f.trials = args
                    .get(i)
                    .and_then(|s| s.parse::<usize>().ok())
                    .filter(|&n| n >= 1)
                    .ok_or("bad --trials value (need an integer >= 1)")?;
            }
            "--json" => {
                i += 1;
                f.json = Some(args.get(i).ok_or("missing value for --json")?.clone());
            }
            "--chrome-trace" => {
                i += 1;
                f.chrome_trace =
                    Some(args.get(i).ok_or("missing value for --chrome-trace")?.clone());
            }
            "--tuned" => {
                i += 1;
                f.tuned = Some(args.get(i).ok_or("missing value for --tuned")?.clone());
            }
            "--bounds" => f.bounds = true,
            other if other.starts_with('-') => return Err(format!("unknown flag {other}")),
            other => f.positional.push(other.to_string()),
        }
        i += 1;
    }
    Ok(f)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        return usage();
    };
    let flags = match parse(rest) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("error: {e}");
            return usage();
        }
    };
    let result = match cmd.as_str() {
        "info" => cmd_info(&flags),
        "compress" => cmd_compress(&flags),
        "decompress" => cmd_decompress(&flags),
        "spmv" => cmd_spmv(&flags),
        "tune" => cmd_tune(&flags),
        "report" => cmd_report(&flags),
        "trace-check" => cmd_trace_check(&flags),
        "gen" => cmd_gen(&flags),
        "disasm" => cmd_disasm(&flags),
        "verify-program" => cmd_verify_program(&flags),
        "chaos" => cmd_chaos(&flags),
        "metrics" => cmd_metrics(&flags),
        "bench-compare" => cmd_bench_compare(&flags),
        _ => return usage(),
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Maps a run's recovery stats onto the documented exit codes: raw-CSR or
/// software fallback beats plain degradation, which beats success.
fn exit_for(stats: &recode_spmv::core::ExecStats) -> ExitCode {
    if stats.blocks_fell_back > 0 || stats.software_decode {
        eprintln!(
            "note: {} block(s) served from the raw-CSR store{} (exit {EXIT_FALLBACK})",
            stats.blocks_fell_back,
            if stats.software_decode { ", software decode" } else { "" },
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

fn load(flags: &Flags) -> Result<Csr, String> {
    let path = flags.positional.first().ok_or("missing input matrix path")?;
    read_matrix_market_path(path).map_err(|e| format!("{path}: {e}"))
}

/// Worst error of `y` against `y_ref`, relative above magnitude 1.
fn worst_rel_err(y: &[f64], y_ref: &[f64]) -> f64 {
    y.iter().zip(y_ref).fold(0.0, |w, (got, want)| w.max((got - want).abs() / want.abs().max(1.0)))
}

/// The input matrix's file stem: how a trace document names its matrix.
fn matrix_name(flags: &Flags) -> String {
    let stem = std::path::Path::new(&flags.positional[0]).file_stem();
    stem.map(|s| s.to_string_lossy().into_owned()).unwrap_or_default()
}

/// Switches on the flight recorder when `--chrome-trace` was given. Called
/// before the run so every span/instant of the pipeline lands in the ring.
fn arm_recorder(flags: &Flags) {
    if flags.chrome_trace.is_some() {
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

/// What either `spmv` schedule does once its run is over: write the flight
/// recorder's timeline (`--chrome-trace`) and, when the run carried a
/// telemetry registry (`--trace`), seal it into the trace document.
fn finish_spmv_run(
    flags: &Flags,
    recoded: &RecodedSpmv,
    sys: &SystemConfig,
    tel: Option<Telemetry>,
    stats: &recode_spmv::core::ExecStats,
    t_total: Instant,
) -> Result<(), String> {
    let recorded = flags.chrome_trace.as_deref().map(finish_chrome_trace).transpose()?;
    let (Some(tel), Some(trace_path)) = (tel, &flags.trace) else {
        return Ok(());
    };
    let name = matrix_name(flags);
    let mut doc = recoded.seal(sys, tel, stats, &name, t_total);
    if let Some(summary) = recorded {
        doc.attach_recorder(summary);
    }
    std::fs::write(trace_path, doc.to_json().to_string_pretty())
        .map_err(|e| format!("{trace_path}: {e}"))?;
    println!(
        "trace ({}) written to {trace_path}: {} spans, {} block events, {} counters",
        doc.schema,
        doc.spans.len(),
        doc.block_events.len(),
        doc.counters.len()
    );
    Ok(())
}

fn cmd_info(flags: &Flags) -> Result<ExitCode, String> {
    let a = load(flags)?;
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
    let cm =
        CompressedMatrix::compress(&a, MatrixCodecConfig::udp_dsh()).map_err(|e| e.to_string())?;
    let sum = CompressionSummary::of(&cm);
    println!(
        "DSH compression  {:.2} B/nnz (index {:.2} + value {:.2}; raw 12.00)",
        sum.bytes_per_nnz, sum.index_bytes_per_nnz, sum.value_bytes_per_nnz
    );
    Ok(ExitCode::SUCCESS)
}

fn cmd_compress(flags: &Flags) -> Result<ExitCode, String> {
    let a = load(flags)?;
    let out = flags.output.as_ref().ok_or("compress needs -o <out.rcmx>")?;
    let cm = CompressedMatrix::compress(&a, flags.config).map_err(|e| e.to_string())?;
    let container = cm.to_bytes();
    std::fs::write(out, &container).map_err(|e| e.to_string())?;
    let raw = a.nnz() * 12;
    println!(
        "{} -> {}: {} nnz, {:.2} B/nnz ({} compressed bytes vs {} raw, container {} bytes)",
        flags.positional[0],
        out,
        a.nnz(),
        cm.bytes_per_nnz(),
        cm.wire_bytes(),
        raw,
        container.len()
    );
    Ok(ExitCode::SUCCESS)
}

fn cmd_decompress(flags: &Flags) -> Result<ExitCode, String> {
    let input = flags.positional.first().ok_or("missing input .rcmx path")?;
    let out = flags.output.as_ref().ok_or("decompress needs -o <matrix.mtx>")?;
    let container = std::fs::read(input).map_err(|e| format!("{input}: {e}"))?;
    let cm = CompressedMatrix::from_bytes(&container).map_err(|e| format!("{input}: {e}"))?;
    let a = cm.decompress().map_err(|e| e.to_string())?;
    let mut buf = Vec::new();
    write_matrix_market(&a, &mut buf).map_err(|e| e.to_string())?;
    std::fs::write(out, buf).map_err(|e| e.to_string())?;
    println!("{input} -> {out}: {} x {}, {} nnz", a.nrows(), a.ncols(), a.nnz());
    Ok(ExitCode::SUCCESS)
}

/// Applies `--inject-corrupt BLOCK`: flips a payload bit in one index-stream
/// block so CRC framing catches it on every decode attempt and the run is
/// forced through the retry → raw-CSR fallback ladder.
fn apply_injection(recoded: &mut RecodedSpmv, flags: &Flags) -> Result<(), String> {
    if let Some(b) = flags.inject_corrupt {
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

/// Loads, parses, and digest-validates the `--tuned` config, if given.
/// Every failure is a hard error — a stale or foreign tuning never falls
/// back silently to the defaults.
fn tuned_for(flags: &Flags, a: &Csr) -> Result<Option<TunedConfig>, String> {
    let Some(path) = &flags.tuned else {
        return Ok(None);
    };
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let tuned = TunedConfig::from_json_str(&text).map_err(|e| format!("{path}: {e}"))?;
    tuned.validate_for(a).map_err(|e| format!("{path}: {e}"))?;
    println!(
        "tuned: stages {}, block {} B ({} candidates searched)",
        tuned.stages.name(),
        tuned.block_bytes,
        tuned.candidates
    );
    Ok(Some(tuned))
}

fn cmd_spmv(flags: &Flags) -> Result<ExitCode, String> {
    let a = load(flags)?;
    if flags.overlap {
        return cmd_spmv_overlap(flags, &a);
    }
    if flags.iters > 1 {
        return Err("--iters needs --overlap (the batch path has no decoded-block cache)".into());
    }
    if flags.cache_blocks > 0 {
        return Err("--cache-blocks needs --overlap".into());
    }
    let tuned = tuned_for(flags, &a)?;
    let config = tuned.as_ref().map_or(flags.config, TunedConfig::codec_config);
    let sys = SystemConfig::ddr4();
    let x = vec![1.0; a.ncols()];
    let y_ref = spmv(&a, &x);
    let hook = flags.inject_trap.map(|j| FaultHook::new().trap(j));
    arm_recorder(flags);
    // Whether the run is traced is one value: the registry in its context
    // (and the stage timing of the operand it runs over).
    let mut tel = flags.trace.is_some().then(Telemetry::new);
    let mut recoded =
        RecodedSpmv::with_stage_timing(&a, config, tel.is_some()).map_err(|e| e.to_string())?;
    // The software decode cross-checks losslessness and, on a traced run,
    // fills the decode direction of the trace's codec-stage report.
    if recoded.decompress_via_software().map_err(|e| e.to_string())? != a {
        return Err("software decode diverged from the original matrix".into());
    }
    apply_injection(&mut recoded, flags)?;
    let t_total = Instant::now();
    let ctx = RunCtx { hook: hook.as_ref(), tel: tel.as_mut(), ..RunCtx::default() };
    let (y, stats) =
        recoded.spmv_with(&sys, SpmvKernel::RowParallel, &x, ctx).map_err(|e| e.to_string())?;
    finish_spmv_run(flags, &recoded, &sys, tel, &stats, t_total)?;
    if y != y_ref {
        return Err("recoded SpMV diverged from the uncompressed kernel".into());
    }
    println!("recoded SpMV verified against the uncompressed kernel ({} rows, bit-exact)", y.len());
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
    if flags.inject_trap.is_none() && flags.inject_corrupt.is_none() && a.nnz() > 0 {
        let cm = recoded.compressed();
        let m = measure_udp_decomp(cm, &sys.udp, 24).map_err(|e| e.to_string())?;
        let model = SpmvPerfModel {
            bytes_per_nnz: cm.bytes_per_nnz(),
            udp_out_bps_per_accel: m.accel_out_bps.max(1e9),
        };
        println!("\nmodeled on the 100 GB/s DDR4 system ({:.2} B/nnz):", cm.bytes_per_nnz());
        print!("{}", report::scenarios(&model.evaluate_all(&sys)));
        let p = PowerSavings::compute(&sys, cm.bytes_per_nnz(), m.accel_out_bps.max(1e9));
        println!("iso-performance power: {:.1} W of {:.0} W saved", p.net_saving_w, p.max_power_w);
    }
    Ok(exit_for(&stats))
}

/// The `--overlap` arm of `recode spmv`: route through the pipelined
/// decode/multiply executor with an optional decoded-block LRU cache.
/// Multi-tile pipelined results reassociate rows that straddle tile
/// boundaries, so verification is against a 1e-10 relative tolerance
/// rather than bit equality.
fn cmd_spmv_overlap(flags: &Flags, a: &Csr) -> Result<ExitCode, String> {
    let tuned = tuned_for(flags, a)?;
    let config = tuned.as_ref().map_or(flags.config, TunedConfig::codec_config);
    let sys = SystemConfig::ddr4();
    let x = vec![1.0; a.ncols()];
    let y_ref = spmv(a, &x);
    let hook = flags.inject_trap.map(|j| FaultHook::new().trap(j));
    arm_recorder(flags);
    let mut tel = flags.trace.is_some().then(Telemetry::new);
    let mut recoded =
        RecodedSpmv::with_stage_timing(a, config, tel.is_some()).map_err(|e| e.to_string())?;
    apply_injection(&mut recoded, flags)?;
    let overlap_config =
        OverlapConfig { overlap: true, cache_blocks: flags.cache_blocks, workers: 0 };
    // `from_tuned` re-checks the operand really carries the tuned stream.
    let ex = match &tuned {
        Some(t) => {
            OverlapExecutor::from_tuned(&recoded, t, overlap_config).map_err(|e| e.to_string())?
        }
        None => OverlapExecutor::new(&recoded, overlap_config),
    };
    let t_total = Instant::now();
    let ctx = RunCtx { hook: hook.as_ref(), tel: tel.as_mut(), ..RunCtx::default() };
    let (y, stats) = ex.spmv_with(&sys, &x, ctx).map_err(|e| e.to_string())?;
    finish_spmv_run(flags, &recoded, &sys, tel, &stats, t_total)?;
    let worst = worst_rel_err(&y, &y_ref);
    if worst > 1e-10 {
        return Err(format!(
            "pipelined SpMV diverged from the uncompressed kernel (worst rel err {worst:.3e})"
        ));
    }
    println!(
        "pipelined SpMV verified against the uncompressed kernel ({} rows, worst rel err {:.1e})",
        y.len(),
        worst
    );
    let ov = stats.overlap;
    println!(
        "overlap: {} stages on {} workers; decode {} + multiply {} cycles",
        ov.stages, ov.workers, ov.decode_cycles, ov.multiply_cycles
    );
    println!(
        "         makespan {} cycles vs {} serial ({} saved, {:.1}% lane utilization)",
        ov.overlapped_makespan_cycles,
        ov.serial_makespan_cycles,
        ov.saved_cycles(),
        stats.accel.lane_utilization * 100.0
    );
    if flags.cache_blocks > 0 {
        println!(
            "cache: capacity {} blocks; {} hits / {} misses / {} evictions ({} decoded bytes served)",
            flags.cache_blocks, ov.cache_hits, ov.cache_misses, ov.cache_evictions, ov.cache_hit_bytes
        );
    }
    if flags.iters > 1 {
        if a.nrows() != a.ncols() {
            return Err("--iters needs a square matrix".into());
        }
        let (_, per_iter) = ex.spmv_iter(&sys, &x, flags.iters - 1).map_err(|e| e.to_string())?;
        println!("\niterated multiply (decode cycles per iteration):");
        let decode: Vec<u64> = std::iter::once(ov.decode_cycles)
            .chain(per_iter.iter().map(|s| s.overlap.decode_cycles))
            .collect();
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
fn cmd_tune(flags: &Flags) -> Result<ExitCode, String> {
    let a = load(flags)?;
    let input = &flags.positional[0];
    println!("tuning {} ({} x {}, {} nnz)...", input, a.nrows(), a.ncols(), a.nnz());
    let outcome = tune_matrix(&a, &SystemConfig::ddr4()).map_err(|e| e.to_string())?;
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
    let out = flags.output.clone().unwrap_or_else(|| format!("{input}.tuned.json"));
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

fn load_trace(flags: &Flags) -> Result<recode_spmv::core::telemetry::TraceDocument, String> {
    let path = flags.positional.first().ok_or("missing trace.json path")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let json = recode_spmv::core::json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    recode_spmv::core::telemetry::TraceDocument::from_json(&json)
        .map_err(|e| format!("{path}: {e}"))
}

fn cmd_report(flags: &Flags) -> Result<ExitCode, String> {
    let doc = load_trace(flags)?;
    print!("{}", recode_spmv::core::telemetry::render_report(&doc));
    Ok(ExitCode::SUCCESS)
}

fn cmd_trace_check(flags: &Flags) -> Result<ExitCode, String> {
    let doc = load_trace(flags)?;
    let errs = doc.validate();
    if !errs.is_empty() {
        for e in &errs {
            eprintln!("invariant violated: {e}");
        }
        return Err(format!("trace failed validation with {} error(s)", errs.len()));
    }
    if flags.bounds {
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
fn check_trace_bounds(doc: &recode_spmv::core::telemetry::TraceDocument) -> Result<(), String> {
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
fn lane_images(target: Option<&String>) -> Result<Vec<recode_spmv::udp::Image>, String> {
    use recode_spmv::udp::{asm, machine, progs};
    let target =
        target.ok_or("needs a .udp file or a builtin (builtin:delta|snappy|huffman|dsh)")?;
    let built = |r: Result<_, recode_spmv::udp::UdpError>| r.map_err(|e| e.to_string());
    let spelled = target.strip_prefix("builtin:").unwrap_or(target);
    // A representative compiled decoder: uniform 8-bit code lengths
    // (Kraft-complete over 256 symbols).
    let huffman = || built(progs::huffman::compile(&[8u8; 256]));
    Ok(match spelled {
        "delta" => vec![built(progs::delta::build())?],
        "snappy" => vec![built(progs::snappy::build())?],
        "huffman" => vec![huffman()?],
        "dsh" => vec![huffman()?, built(progs::snappy::build())?, built(progs::delta::build())?],
        _ if spelled.len() != target.len() => {
            return Err(format!("unknown builtin `{spelled}` (try delta|snappy|huffman|dsh)"));
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
            let mut image = built(machine::assemble(&program))?;
            image.verify_report.attach_lines(&map);
            vec![image]
        }
    })
}

fn cmd_disasm(flags: &Flags) -> Result<ExitCode, String> {
    for image in lane_images(flags.positional.first())? {
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
fn cmd_verify_program(flags: &Flags) -> Result<ExitCode, String> {
    let images = lane_images(flags.positional.first())?;
    let mut errors = 0usize;
    for image in &images {
        print!("{}", image.verify_report);
        print!("{}", render_bounds_table(image));
        errors += image.verify_report.error_count();
    }
    if errors > 0 {
        return Err(format!("`{}` rejected: {errors} error finding(s)", flags.positional[0]));
    }
    Ok(ExitCode::SUCCESS)
}

/// `recode chaos`: run a seeded chaos campaign over the resilient
/// executors. The campaign is a pure function of `--seed` and `--trials`,
/// so a failing run reproduces exactly from its printed parameters.
/// `--json` writes the machine-readable summary (the CI artifact).
fn cmd_chaos(flags: &Flags) -> Result<ExitCode, String> {
    use recode_spmv::core::chaos::{run_campaign, ChaosConfig};
    let config = ChaosConfig { trials: flags.trials, seed: flags.seed };
    println!("running {} chaos trials with seed {:#x}...", config.trials, config.seed);
    arm_recorder(flags);
    let summary = run_campaign(&config);
    if let Some(ct_path) = &flags.chrome_trace {
        finish_chrome_trace(ct_path)?;
    }
    print!("{}", summary.render());
    if let Some(path) = &flags.json {
        std::fs::write(path, summary.to_json()).map_err(|e| format!("{path}: {e}"))?;
        println!("summary written to {path}");
    }
    if summary.healthy() {
        Ok(ExitCode::SUCCESS)
    } else {
        Err("chaos campaign violated the resilience contract".into())
    }
}

/// `recode metrics`: run one budgeted job through the resilient executor
/// (default budget, fresh circuit breaker) and print the sealed trace
/// document as a Prometheus text exposition — the scrape surface for the
/// pipeline's counters, gauges, and span timings.
fn cmd_metrics(flags: &Flags) -> Result<ExitCode, String> {
    use recode_spmv::core::MetricsSnapshot;
    let a = load(flags)?;
    let sys = SystemConfig::ddr4();
    // Arm the flight recorder before compression so the exposition carries
    // per-kind event counters — including the jit_compile events fired
    // while the decoder's lane images are assembled just below.
    recorder::enable(recorder::DEFAULT_CAPACITY);
    let recoded =
        RecodedSpmv::with_stage_timing(&a, flags.config, true).map_err(|e| e.to_string())?;
    let name = matrix_name(flags);
    let mut breaker = CircuitBreaker::new();
    let (mut tel, t_total) = (Telemetry::new(), Instant::now());
    let ctx = RunCtx { tel: Some(&mut tel), ..RunCtx::default() };
    let report = recoded.run_job(&sys, ctx, Some(&mut breaker));
    let stats = report
        .stats
        .as_ref()
        .ok_or_else(|| format!("job produced no trace document (state {:?})", report.state))?;
    let mut doc = recoded.seal(&sys, tel, stats, &name, t_total);
    doc.attach_recorder(RecorderSummary::from_events(&recorder::drain(), recorder::stats()));
    let text = MetricsSnapshot::from_document(&doc).render_prometheus();
    match &flags.output {
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
fn cmd_bench_compare(flags: &Flags) -> Result<ExitCode, String> {
    use recode_spmv::core::benchcmp::GATE_THRESHOLD;
    let old_path = flags.positional.first().ok_or("bench-compare needs <old.json> <new.json>")?;
    let new_path = flags.positional.get(1).ok_or("bench-compare needs <old.json> <new.json>")?;
    let old = std::fs::read_to_string(old_path).map_err(|e| format!("{old_path}: {e}"))?;
    let new = std::fs::read_to_string(new_path).map_err(|e| format!("{new_path}: {e}"))?;
    let report = recode_spmv::core::compare_snapshots(&old, &new)?;
    print!("{}", report.render());
    if report.has_regressions() {
        return Err(format!(
            "{} gated metric(s) regressed more than {:.0}% beyond noise",
            report.regressions().len(),
            GATE_THRESHOLD * 100.0
        ));
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_gen(flags: &Flags) -> Result<ExitCode, String> {
    let family = flags.positional.first().ok_or("gen needs a family")?;
    let target: usize =
        flags.positional.get(1).and_then(|s| s.parse().ok()).ok_or("gen needs a target nnz")?;
    let out = flags.output.as_ref().ok_or("gen needs -o <matrix.mtx>")?;
    // Reuse the corpus parameterization: scan corpus entries for the family
    // and rescale, or build directly for the common families.
    let spec = corpus::spec_for_family(family, target, flags.seed)
        .ok_or_else(|| format!("unknown family {family} (try: {})", FAMILIES.join(", ")))?;
    let a = recode_spmv::sparse::gen::generate(&spec, flags.seed);
    let mut buf = Vec::new();
    write_matrix_market(&a, &mut buf).map_err(|e| e.to_string())?;
    std::fs::write(out, buf).map_err(|e| e.to_string())?;
    println!("{family} -> {out}: {} x {}, {} nnz", a.nrows(), a.ncols(), a.nnz());
    Ok(ExitCode::SUCCESS)
}
