//! The traced pass: a span around each call into a layer, from outside,
//! through public functions only. Layers are the crates and modules of the
//! engine; `bench/README.md` says which end-to-end metric each should move.

use crate::timing::{alloc_bytes, median, Span};
use crate::{Bench, Metric, MIN_ROUNDS, RAW_REPS};
use recode_codec::block::CompressedBlock;
use recode_codec::huffman::{FlatDecoder, HuffmanTable};
use recode_codec::pipeline::{CompressedMatrix, MatrixCodecConfig, PipelineConfig};
use recode_codec::{delta, snappy, CodecResult};
use recode_core::arch::Scenario;
use recode_core::exec::{ExecStats, RecodedSpmv};
use recode_core::json::Json;
use recode_core::overlap::OverlapExecutor;
use recode_sparse::spmv::SpmvKernel;
use recode_udp::accel::FaultHook;
use recode_udp::pool;
use recode_udp::progs::DshDecoder;
use recode_udp::{Lane, RunConfig, UdpError};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

const POOL_CHECKOUTS: u64 = 1024;

type Job<'a> = (&'a DshDecoder, &'a CompressedBlock);

/// Runs `f`, adding its duration in ns to `busy`.
fn timed<T>(busy: &mut u64, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = f();
    *busy += t.elapsed().as_nanos() as u64;
    out
}

/// Runs every intact block through its stage images on `lane`, timing each
/// `Lane::run_into` (or `run_into_interp`) call; returns ns per stage
/// (Huffman, Snappy, inverse delta) and the blocks that decoded wrongly.
fn lane_stages(lane: &mut Lane, jobs: &[Job<'_>], interp: bool) -> ([u64; 3], u64) {
    let cfg = RunConfig::default();
    let (mut cur, mut nxt) = (Vec::new(), Vec::new());
    let mut busy = [0u64; 3];
    let mut wrong = 0;
    for (dec, blk) in jobs {
        // A block that fails its CRC never reaches a lane in the engine.
        if blk.verify_checksum().is_err() {
            continue;
        }
        cur.clear();
        cur.extend_from_slice(&blk.payload);
        let mut bits = blk.bit_len;
        let mut ok = true;
        for (stage, img) in [&dec.huffman, &dec.snappy, &dec.delta].into_iter().enumerate() {
            let Some(img) = img else { continue };
            let r = timed(&mut busy[stage], || {
                if interp {
                    lane.run_into_interp(img, &cur, bits, cfg, &mut nxt)
                } else {
                    lane.run_into(img, &cur, bits, cfg, &mut nxt)
                }
            });
            ok &= r.is_ok();
            std::mem::swap(&mut cur, &mut nxt);
            bits = cur.len() * 8;
        }
        wrong += u64::from(!ok || cur.len() != blk.uncompressed_len);
    }
    (busy, wrong)
}

/// The software codec, stage by stage, over every intact block of one
/// stream; returns ns per stage and the blocks that decoded wrongly.
fn software_stages(
    cfg: &PipelineConfig,
    table: Option<&FlatDecoder>,
    blocks: &[CompressedBlock],
) -> ([u64; 3], u64) {
    let mut busy = [0u64; 3];
    let mut wrong = 0;
    for blk in blocks.iter().filter(|b| b.verify_checksum().is_ok()) {
        let mut decode = || -> CodecResult<Vec<u8>> {
            let mut cur = blk.payload.clone();
            if let Some(flat) = table.filter(|_| cfg.huffman) {
                cur = timed(&mut busy[0], || flat.decode_all(&cur, blk.bit_len))?;
            }
            if cfg.snappy {
                let limit = cfg.block_bytes.max(blk.uncompressed_len);
                cur = timed(&mut busy[1], || snappy::decompress_with_limit(&cur, limit))?;
            }
            if cfg.delta {
                cur = timed(&mut busy[2], || delta::decode_bytes(&cur))?;
            }
            Ok(cur)
        };
        wrong += u64::from(decode().map_or(true, |out| out.len() != blk.uncompressed_len));
    }
    (busy, wrong)
}

fn flat_decoder(lengths: Option<&Vec<u8>>) -> Option<FlatDecoder> {
    let table = HuffmanTable::from_lengths(lengths?.clone()).ok()?;
    Some(FlatDecoder::build(&table))
}

/// `a / b`, or 0 where the layer does not exist on this workload.
fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Runs traced rounds for `seconds` and returns every per-layer metric.
/// Every layer call is checked and counts as one attempted operation.
pub fn run(
    b: &mut Bench,
    codec: MatrixCodecConfig,
    recoded: &RecodedSpmv,
    hook: Option<&FaultHook>,
    warm: &OverlapExecutor,
    seconds: f64,
) -> Vec<Metric> {
    let start = Instant::now();
    let cm = recoded.compressed();
    let jobs = cm.index_stream.blocks.len() + cm.value_stream.blocks.len();
    let no_faults = FaultHook::default();

    // The intact stream that the software path and the streaming executor
    // read on every workload (neither has a retry ladder).
    let clean = RecodedSpmv::from_compressed(
        CompressedMatrix::compress(&b.a, codec).expect("set-up already compressed this matrix"),
    )
    .expect("set-up already built these decoders");
    let clean_cm = clean.compressed();
    let flat_index = flat_decoder(clean_cm.index_table_lengths.as_ref());
    let flat_value = flat_decoder(clean_cm.value_table_lengths.as_ref());

    let mut lane = Lane::new();
    let (mut batch_stats, mut overlap_stats, mut warm_stats) = (None, None, None);
    let (mut exec_alloc, mut overlap_alloc) = (Vec::new(), Vec::new());
    let mut pool_delta = [0u64; 3];

    let mut rounds = 0;
    while rounds < MIN_ROUNDS || start.elapsed().as_secs_f64() < seconds {
        b.rec.round = rounds;
        rounds += 1;

        // The end-to-end operations. Batch runs twice, with spans and
        // allocation counting off and on, in alternating order; the
        // difference between the two timings is the tracing overhead.
        b.rec.calibrate();
        for tracing in [rounds % 2 == 0, rounds % 2 != 0] {
            b.rec.tracing = tracing;
            if !tracing {
                b.spmv_batch("untraced.spmv_batch", recoded, hook);
                continue;
            }
            let (pool0, alloc0) = (pool::global().stats(), alloc_bytes());
            batch_stats = b.spmv_batch("spmv_batch", recoded, hook).or(batch_stats);
            let pool1 = pool::global().stats();
            exec_alloc.push((alloc_bytes() - alloc0) as f64);
            pool_delta = [
                pool1.checkouts - pool0.checkouts,
                pool1.fresh_builds - pool0.fresh_builds,
                pool1.recycled_hits - pool0.recycled_hits,
            ];
        }
        b.rec.tracing = true;
        let alloc1 = alloc_bytes();
        overlap_stats = b.spmv_overlap(recoded, hook).or(overlap_stats);
        overlap_alloc.push((alloc_bytes() - alloc1) as f64);
        warm_stats = b.spmv_warm(warm).or(warm_stats);

        // The write side, and the part of it that is the codec's.
        drop(b.setup(codec));
        let r = b.rec.time("codec.encode", "setup", 1, || CompressedMatrix::compress(&b.a, codec));
        b.check(r.is_ok());

        // sparse: the raw-CSR baseline and the other kernels, same binary.
        // SELL-C-sigma and partial-diagonal convert the matrix on each call.
        b.spmv_raw("sparse.spmv_serial", SpmvKernel::Serial, RAW_REPS);
        b.spmv_raw("sparse.spmv_row_parallel", SpmvKernel::RowParallel, RAW_REPS);
        b.spmv_raw("sparse.spmv_merge_path", SpmvKernel::MergePath, 2);
        b.spmv_raw("sparse.spmv_sell_c_sigma", SpmvKernel::SellCSigma, 1);
        b.spmv_raw("sparse.spmv_partial_diagonal", SpmvKernel::PartialDiagonal, 1);

        // core.exec: decode and reassemble, without the multiply.
        let r = b.rec.time("core.exec.decompress", "spmv_batch", 1, || {
            recoded.decompress_via_udp_faulty(&b.sys, hook)
        });
        b.check(r.is_ok_and(|(a, _)| a == b.a));

        // udp: the lane decoders the engine builds at set-up, rebuilt here
        // because the engine's own are private.
        let decoders = b.rec.time("udp.decoder_build", "setup", 1, || {
            let index = DshDecoder::new(cm.config.index, cm.index_table_lengths.as_deref())?;
            let value = DshDecoder::new(cm.config.value, cm.value_table_lengths.as_deref())?;
            Ok::<_, UdpError>((index, value))
        });
        b.check(decoders.is_ok());
        let Ok((index_dec, value_dec)) = decoders else { continue };
        // Index blocks first, then value blocks: the engine's job numbering.
        let index_jobs = cm.index_stream.blocks.iter().map(|blk| (&index_dec, blk));
        let value_jobs = cm.value_stream.blocks.iter().map(|blk| (&value_dec, blk));
        let jobs: Vec<Job<'_>> = index_jobs.chain(value_jobs).collect();

        // Fan-out over 64 simulated lanes, pool checkouts, result collection.
        let outcome = b.rec.time("udp.accel_batch", "core.exec.decompress", 1, || {
            b.sys.udp.run_jobs_with_faults(
                &jobs,
                |lane, (dec, blk)| dec.decode_block(lane, blk),
                hook.unwrap_or(&no_faults),
            )
        });
        let expected_failures = batch_stats.as_ref().map(|s: &ExecStats| s.accel.jobs_failed);
        b.check(Some(outcome.report.jobs_failed) == expected_failures);

        // CRC check, the stages, buffer ping-pong and the output clone.
        b.rec.time("udp.decode_block", "udp.accel_batch", 1, || {
            for (dec, blk) in &jobs {
                black_box(dec.decode_block(&mut lane, blk).is_ok());
            }
        });
        b.rec.time("codec.crc", "udp.decode_block", 1, || {
            for (_, blk) in &jobs {
                black_box(blk.verify_checksum().is_ok());
            }
        });

        let t = Instant::now();
        let (busy, wrong) = lane_stages(&mut lane, &jobs, false);
        for (name, busy) in
            ["udp.lane_huffman", "udp.lane_snappy", "udp.lane_delta"].iter().zip(busy)
        {
            b.rec.add(name, "udp.decode_block", t, busy, 1);
        }
        b.rec.calibrate();
        b.check(wrong == 0);
        let t = Instant::now();
        let (busy, wrong) = lane_stages(&mut lane, &jobs, true);
        b.rec.add("udp.lane_interp", "udp.decode_block", t, busy.iter().sum(), 1);
        b.rec.calibrate();
        b.check(wrong == 0);

        // codec: the software decoder (it serves breaker-open runs only).
        let t = Instant::now();
        let index = &clean_cm.index_stream.blocks;
        let value = &clean_cm.value_stream.blocks;
        let (busy_i, wrong_i) = software_stages(&clean_cm.config.index, flat_index.as_ref(), index);
        let (busy_v, wrong_v) = software_stages(&clean_cm.config.value, flat_value.as_ref(), value);
        for (k, name) in
            ["codec.sw_huffman", "codec.sw_snappy", "codec.sw_delta"].iter().enumerate()
        {
            b.rec.add(name, "codec.sw_decode", t, busy_i[k] + busy_v[k], 1);
        }
        b.rec.calibrate();
        b.check(wrong_i + wrong_v == 0);
        let r = b.rec.time("codec.sw_decode", "round", 1, || clean_cm.decompress());
        b.check(r.is_ok_and(|a| a == b.a));

        // core.exec: the streaming tiled executor.
        let r = b.rec.time("core.exec.streaming", "round", 1, || clean.spmv_streaming(&b.x));
        b.verdict(r.map(|(y, _)| (y, ExecStats::default())), false);

        b.rec.time("udp.pool_checkout", "udp.accel_batch", POOL_CHECKOUTS, || {
            for _ in 0..POOL_CHECKOUTS {
                black_box(&mut *pool::global().checkout());
            }
        });
    }

    // Medians first, then the differences between them.
    const WALL: [(&str, &str); 21] = [
        ("sparse.spmv_serial_ns_per_nnz", "sparse.spmv_serial"),
        ("sparse.spmv_row_parallel_ns_per_nnz", "sparse.spmv_row_parallel"),
        ("sparse.spmv_merge_path_ns_per_nnz", "sparse.spmv_merge_path"),
        ("sparse.spmv_sell_c_sigma_ns_per_nnz", "sparse.spmv_sell_c_sigma"),
        ("sparse.spmv_partial_diagonal_ns_per_nnz", "sparse.spmv_partial_diagonal"),
        ("codec.crc_ns_per_nnz", "codec.crc"),
        ("codec.sw_huffman_ns_per_nnz", "codec.sw_huffman"),
        ("codec.sw_snappy_ns_per_nnz", "codec.sw_snappy"),
        ("codec.sw_delta_ns_per_nnz", "codec.sw_delta"),
        ("codec.sw_decode_ns_per_nnz", "codec.sw_decode"),
        ("udp.lane_huffman_ns_per_nnz", "udp.lane_huffman"),
        ("udp.lane_snappy_ns_per_nnz", "udp.lane_snappy"),
        ("udp.lane_delta_ns_per_nnz", "udp.lane_delta"),
        ("udp.lane_interp_ns_per_nnz", "udp.lane_interp"),
        ("udp.decode_block_ns_per_nnz", "udp.decode_block"),
        ("udp.accel_batch_ns_per_nnz", "udp.accel_batch"),
        ("core.exec.decompress_ns_per_nnz", "core.exec.decompress"),
        ("core.exec.streaming_ns_per_nnz", "core.exec.streaming"),
        ("bench.spmv_batch_traced_ns_per_nnz", "spmv_batch"),
        ("spmv_overlap_ns_per_nnz", "spmv_overlap"),
        ("spmv_warm_ns_per_nnz", "spmv_warm"),
    ];
    let mut out: Vec<Metric> = WALL.iter().map(|(name, key)| b.per_nnz(name, key)).collect();
    out.push(b.seconds("bench.setup_traced_s", "setup"));
    out.push(b.seconds("codec.encode_s", "codec.encode"));
    out.push(b.seconds("udp.decoder_build_s", "udp.decoder_build"));
    out.push(b.wall("udp.pool_checkout_ns", "udp.pool_checkout", "ns", 1.0));
    let checkout_ns = out.last().map_or(0.0, |m| m.value);

    let nnz = b.nnz();
    let ns = |key: &str| b.rec.summary(key).median / nnz;
    let batch = ns("spmv_batch");
    let overlap = ns("spmv_overlap");
    let warm_ns = ns("spmv_warm");
    let serial = ns("sparse.spmv_serial");
    let decompress = ns("core.exec.decompress");
    let accel = ns("udp.accel_batch");
    let decode_block = ns("udp.decode_block");
    let crc = ns("codec.crc");
    let lanes = ns("udp.lane_huffman") + ns("udp.lane_snappy") + ns("udp.lane_delta");
    // What the directly timed leaves explain of one batch SpMV; the rest is
    // buffer hand-off, output clones, fan-out and reassembly.
    let leaves = crc + lanes + serial + checkout_ns * pool_delta[0] as f64 / nnz;

    let mut exact =
        |name: &str, value: f64, unit: &'static str| out.push(Metric::exact(name, value, unit));
    exact("sparse.recoded_over_raw", ratio(batch, serial), "ratio");
    exact("sparse.warm_over_raw", ratio(warm_ns, serial), "ratio");
    exact("udp.jit_over_interp", ratio(lanes, ns("udp.lane_interp")), "ratio");
    exact("udp.decode_block_self_ns_per_nnz", decode_block - crc - lanes, "ns/nnz");
    exact("udp.accel_batch_self_ns_per_nnz", accel - decode_block, "ns/nnz");
    exact("core.exec.reassemble_self_ns_per_nnz", decompress - accel, "ns/nnz");
    exact("core.exec.multiply_self_ns_per_nnz", batch - decompress, "ns/nnz");
    exact("core.overlap.pipeline_self_ns_per_nnz", overlap - decode_block - serial, "ns/nnz");
    exact("core.overlap.warm_self_ns_per_nnz", warm_ns - serial, "ns/nnz");
    exact("core.exec.alloc_bytes_per_nnz", median(&mut exec_alloc) / nnz, "B/nnz");
    exact("core.overlap.alloc_bytes_per_nnz", median(&mut overlap_alloc) / nnz, "B/nnz");
    exact("codec.blocks", jobs as f64, "count");
    exact("codec.wire_bytes", cm.wire_bytes() as f64, "B");
    exact("udp.pool_checkouts", pool_delta[0] as f64, "count");
    exact("udp.pool_fresh_builds", pool_delta[1] as f64, "count");
    exact("udp.pool_recycled_hits", pool_delta[2] as f64, "count");

    // Simulated statistics: exact, and the same on every round (else
    // `modeled_drift` fails the run).
    if let Some(s) = &batch_stats {
        let a = &s.accel;
        exact("udp.huffman_cycles", a.stage_cycles.huffman as f64, "cycles");
        exact("udp.snappy_cycles", a.stage_cycles.snappy as f64, "cycles");
        exact("udp.delta_cycles", a.stage_cycles.delta as f64, "cycles");
        exact("udp.dispatch_cycles", a.opclass.dispatch as f64, "cycles");
        exact("udp.alu_cycles", a.opclass.alu as f64, "cycles");
        exact("udp.mem_cycles", a.opclass.mem as f64, "cycles");
        exact("udp.stream_cycles", a.opclass.stream as f64, "cycles");
        exact("udp.busy_cycles", a.busy_cycles as f64, "cycles");
        exact("udp.lane_utilization", a.lane_utilization, "ratio");
        exact("udp.jobs", a.jobs as f64, "count");
        exact("udp.jobs_failed", a.jobs_failed as f64, "count");
        exact("mem.stream_seconds", s.mem_stream_seconds, "modeled_s");
        exact("mem.dma_seconds", s.dma_seconds, "modeled_s");
        exact("mem.compressed_bytes", s.compressed_bytes as f64, "B");
        exact("mem.fallback_bytes", s.fallback_bytes as f64, "B");
        exact("core.exec.blocks_retried", s.blocks_retried as f64, "count");
        exact("core.exec.blocks_fell_back", s.blocks_fell_back as f64, "count");
        exact("core.exec.retry_cycles", s.retry_cycles as f64, "cycles");
        let hetero = crate::perf_model(cm, a).evaluate(&b.sys, Scenario::HeteroUdp);
        exact("core.perfmodel.udps_needed", hetero.udps as f64, "count");
        exact("core.perfmodel.hetero_gflops", hetero.gflops, "Gflop/s");
    }
    if let Some(s) = overlap_stats.map(|s| s.overlap) {
        exact("core.overlap.decode_cycles", s.decode_cycles as f64, "cycles");
        exact("core.overlap.multiply_cycles", s.multiply_cycles as f64, "cycles");
        exact(
            "core.overlap.overlapped_makespan_cycles",
            s.overlapped_makespan_cycles as f64,
            "cycles",
        );
        exact("core.overlap.serial_makespan_cycles", s.serial_makespan_cycles as f64, "cycles");
        exact(
            "core.overlap.saved_fraction",
            ratio(s.saved_cycles() as f64, s.serial_makespan_cycles as f64),
            "ratio",
        );
    }
    if let Some(s) = warm_stats.map(|s| s.overlap) {
        exact("core.overlap.cache_hits", s.cache_hits as f64, "count");
        exact("core.overlap.cache_misses", s.cache_misses as f64, "count");
    }
    exact("bench.calib_ms", b.rec.calib_ms(), "ms");
    exact("bench.ledger_residual_share", 1.0 - ratio(leaves, batch), "ratio");
    exact("bench.trace_overhead_share", ratio(batch, ns("untraced.spmv_batch")) - 1.0, "ratio");
    exact(
        "bench.spmv_batch_unscaled_ns_per_nnz",
        b.rec.summary("spmv_batch").raw_median / nnz,
        "ns/nnz",
    );
    exact("bench.ops_failed_share", b.failed as f64 / b.attempted.max(1) as f64, "ratio");
    exact("bench.modeled_drift", b.drift as f64, "count");
    exact("bench.rounds", rounds as f64, "count");
    out
}

/// Writes the traced pass's spans to `<dir>/<workload>.trace.json`.
pub fn write_spans(spans: &[Span], workload: &str, seed: u64, dir: &Path) -> std::io::Result<()> {
    let spans = spans
        .iter()
        .map(|s| {
            Json::obj()
                .set("name", Json::Str(s.name.into()))
                .set("parent", Json::Str(s.parent.into()))
                .set("workload", Json::Str(workload.into()))
                .set("round", Json::U64(s.round as u64))
                .set("start_ns", Json::U64(s.start_ns))
                .set("end_ns", Json::U64(s.end_ns))
                .set("busy_ns", Json::U64(s.busy_ns))
                .set("calls", Json::U64(s.calls))
        })
        .collect();
    let doc = Json::obj()
        .set("workload", Json::Str(workload.into()))
        .set("seed", Json::U64(seed))
        .set("spans", Json::Arr(spans));
    std::fs::create_dir_all(dir)?;
    std::fs::write(dir.join(format!("{workload}.trace.json")), doc.to_string_pretty())
}
