//! End-to-end fault-injection checks of the recoded-SpMV pipeline beyond
//! the enumerated fault contract of `tests/chaos.rs`: where recovery is
//! charged (lanes, makespan, retry cycles), the benchmark's fault recipe on
//! a matrix of more than 100 jobs, the telemetry a faulted run leaves, and
//! recovery in place on the tiled schedule with a warm cache.

use recode_spmv::core::exec::ExecStats;
use recode_spmv::core::telemetry::{BlockOutcome, Telemetry};
use recode_spmv::prelude::*;
use recode_spmv::udp::FaultHook;

fn test_matrix() -> Csr {
    generate(
        &GenSpec::FemBand {
            n: 700,
            band: 10,
            fill: 0.6,
            values: ValueModel::MixedRepeated { distinct: 8 },
        },
        99,
    )
}

/// The paper's stage mix, but 2 KB blocks: several blocks per stream at a
/// fraction of the simulation cost.
fn small_block_config() -> MatrixCodecConfig {
    MatrixCodecConfig {
        index: PipelineConfig { block_bytes: 2048, ..PipelineConfig::dsh_udp() },
        value: PipelineConfig { block_bytes: 2048, ..PipelineConfig::sh_udp() },
    }
}

#[test]
fn retry_cycles_land_on_their_lanes_under_traps() {
    let a = test_matrix();
    let r = RecodedSpmv::new(&a, small_block_config()).unwrap();
    let sys = SystemConfig::ddr4();
    let (_, clean) = r.decompress_via_udp(&sys).unwrap();
    assert_eq!(clean.retry_cycles, 0, "clean run has no retry cycles");
    let hook = FaultHook::new().trap(0).trap(1).trap(2);
    let (b, stats) = r.decompress_via_udp_faulty(&sys, Some(&hook)).unwrap();
    assert_eq!(b, a);
    assert!(stats.retry_cycles > 0, "trap retries must report their cycles");
    // A trapped job costs nothing and its retry is the same decode on the
    // lane that ran it, so every lane's timeline, the busy sum and the
    // makespan are the clean run's: recovery is charged where it ran.
    let lanes = |s: &ExecStats| -> Vec<u64> {
        s.accel.lane_profiles.iter().map(|p| p.busy_cycles).collect()
    };
    assert_eq!(lanes(&stats), lanes(&clean));
    assert_eq!(stats.accel.busy_cycles, clean.accel.busy_cycles);
    assert_eq!(stats.accel.makespan_cycles, clean.accel.makespan_cycles);
    let util = stats.accel.busy_cycles as f64
        / (stats.accel.makespan_cycles as f64 * stats.accel.lanes as f64);
    assert!(
        (stats.accel.lane_utilization - util).abs() < 1e-12,
        "utilization must be recomputed over the charged totals"
    );
}

/// The end-to-end benchmark's fault recipe, written out here: every 50th
/// block of each stream corrupted after sealing (it falls back) and every
/// 20th job trapped (it retries), on a matrix of more than 100 jobs. The
/// document's block events alone rebuild every lane's timeline, and with it
/// the lane profiles, the busy sum and the makespan; the batch's decode,
/// retry and fallback spans add up to that makespan.
#[test]
fn block_events_rebuild_the_lane_timelines_under_the_benchmark_fault_recipe() {
    let a = generate(
        &GenSpec::FemBand {
            n: 1500,
            band: 10,
            fill: 0.6,
            values: ValueModel::MixedRepeated { distinct: 8 },
        },
        99,
    );
    let config = MatrixCodecConfig {
        index: PipelineConfig { block_bytes: 1024, ..PipelineConfig::dsh_udp() },
        value: PipelineConfig { block_bytes: 1024, ..PipelineConfig::sh_udp() },
    };
    let mut r = RecodedSpmv::new(&a, config).unwrap();
    let sys = SystemConfig::ddr4();
    let (_, clean) = r.decompress_via_udp(&sys).unwrap();
    let cm = r.compressed_mut();
    let jobs = cm.index_stream.blocks.len() + cm.value_stream.blocks.len();
    assert!(jobs >= 100, "{jobs} jobs");
    for stream in [&mut cm.index_stream, &mut cm.value_stream] {
        assert!(stream.blocks.len() >= 50, "every stream has a corrupt block");
        for b in stream.blocks.iter_mut().skip(49).step_by(50) {
            let mid = b.payload.len() / 2;
            b.payload[mid] ^= 0x10;
        }
    }
    let hook = (19..jobs).step_by(20).fold(FaultHook::new(), FaultHook::trap);
    let x: Vec<f64> = (0..a.ncols()).map(|i| ((i * 23) % 19) as f64 - 9.0).collect();
    let ctx = RunCtx { hook: Some(&hook), ..RunCtx::default() };
    let (y, stats, doc) = r.spmv_traced(&sys, SpmvKernel::Serial, &x, ctx, "recipe").unwrap();
    assert_eq!(y, recode_spmv::sparse::spmv::spmv(&a, &x));
    assert!(doc.validate().is_empty(), "{:?}", doc.validate());
    assert!(stats.blocks_recovered > 0 && stats.blocks_fell_back > 0, "{stats:?}");

    let accel = &stats.accel;
    let mut lanes = vec![0u64; accel.lanes];
    for e in &doc.block_events {
        lanes[e.lane] += e.cycles;
    }
    for (lane, p) in accel.lane_profiles.iter().enumerate() {
        assert_eq!(lanes[lane], p.busy_cycles, "lane {lane}");
    }
    assert_eq!(lanes.iter().max(), Some(&accel.makespan_cycles));
    assert_eq!(lanes.iter().sum::<u64>(), accel.busy_cycles);
    assert!(accel.makespan_cycles <= clean.accel.makespan_cycles);

    let decode = ["exec.decode_batch", "exec.retry", "exec.fallback"];
    let spans: Vec<f64> = doc
        .spans
        .iter()
        .filter(|s| decode.contains(&s.name.as_str()))
        .map(|s| s.modeled_seconds)
        .collect();
    let cycles = spans.iter().sum::<f64>() * accel.freq_hz;
    assert!(
        (cycles - accel.makespan_cycles as f64).abs() <= spans.len() as f64,
        "{} spans model {cycles} cycles, makespan {}",
        spans.len(),
        accel.makespan_cycles
    );
}

#[test]
fn telemetry_events_record_fault_outcomes() {
    let a = test_matrix();
    let mut r = RecodedSpmv::new(&a, small_block_config()).unwrap();
    // Index block 1 is CRC-corrupt (falls back); the first value job traps
    // transiently (recovers via retry).
    r.compressed_mut().index_stream.blocks[1].payload[0] ^= 0x01;
    let n_index = r.compressed().index_stream.blocks.len();
    let hook = FaultHook::new().trap(n_index);
    let sys = SystemConfig::ddr4();
    let mut tel = Telemetry::new();
    let ctx = RunCtx { hook: Some(&hook), tel: Some(&mut tel) };
    let (b, stats) = r.decompress_with(&sys, ctx).unwrap();
    assert_eq!(b, a);
    let evs = tel.block_events();
    assert_eq!(evs.len(), stats.accel.jobs, "one event per job");
    assert_eq!(evs[1].outcome, BlockOutcome::FellBack);
    assert_eq!(evs[1].cycles, 0);
    assert_eq!(evs[n_index].outcome, BlockOutcome::Retried);
    assert!(evs[n_index].cycles > 0);
    let non_ok = evs.iter().filter(|e| e.outcome != BlockOutcome::Ok).count();
    assert_eq!(non_ok, 2, "exactly the two faulted jobs deviate");
    assert_eq!(tel.counter("exec.blocks_fell_back"), 1);
    assert!(tel.counter("exec.blocks_retried") >= 1);
    assert_eq!(tel.counter("exec.retry_cycles"), stats.retry_cycles);
}

#[test]
fn overlap_recovery_keeps_blocks_in_position_and_traces_stay_valid() {
    let a = test_matrix();
    let mut r = RecodedSpmv::new(&a, small_block_config()).unwrap();
    // A CRC-corrupt index block (falls back mid-pipeline) plus a transient
    // trap on another job: recovery must not disturb tile ordering, and the
    // sealed trace must satisfy every invariant.
    r.compressed_mut().index_stream.blocks[1].payload[0] ^= 0x01;
    let n_index = r.compressed().index_stream.blocks.len();
    let hook = FaultHook::new().trap(n_index);
    let sys = SystemConfig::ddr4();
    let x: Vec<f64> = (0..a.ncols()).map(|i| ((i * 31) % 17) as f64 - 8.0).collect();
    let y_ref = spmv(&a, &x);
    let config = OverlapConfig { cache_blocks: 256, ..OverlapConfig::default() };
    let ex = OverlapExecutor::new(&r, config);
    let ctx = RunCtx { hook: Some(&hook), ..RunCtx::default() };
    let (y, stats, doc) = ex.spmv_traced(&sys, &x, ctx, "fault_pipeline").unwrap();
    assert_eq!(y, y_ref, "recovered blocks must land in place");
    assert!(stats.degraded);
    assert_eq!(stats.blocks_fell_back, 1, "the CRC-broken block needs the raw store");
    assert_eq!(stats.blocks_retried, 2, "one retry per failed block");
    let errs = doc.validate();
    assert!(errs.is_empty(), "trace invariants violated under faults: {errs:?}");
    // Events stay in job order, and each fault shows up exactly where it
    // was injected — proof the pipeline kept recovered blocks in position.
    assert!(doc.block_events.windows(2).all(|w| w[0].job < w[1].job));
    assert_eq!(doc.block_events[1].outcome, BlockOutcome::FellBack);
    assert_eq!(doc.block_events[n_index].outcome, BlockOutcome::Retried);

    // A second run hits the warm cache and must agree with the first.
    let (y2, stats2) = ex.spmv(&sys, &x).unwrap();
    assert_eq!(y, y2, "warm-cache rerun of the same executor must be bit-identical");
    assert!(stats2.overlap.cache_hits > 0, "rerun should be served from the cache");
}

/// The tile walker submits a window of jobs at a time, but each job keeps
/// its batch number: the hook traps it and its lane runs it by that
/// number. On two lanes the matrix takes many windows; an index job and a
/// value job past the first one are trapped, and the tiled run retries
/// exactly those two, with the batch's tally, retry cycles and lane
/// timelines, and a bit-exact `y`.
#[test]
fn job_numbers_survive_windowing() {
    let a = test_matrix();
    let r = RecodedSpmv::new(&a, small_block_config()).unwrap();
    let mut sys = SystemConfig::ddr4();
    sys.udp.lanes = 2;
    let n_index = r.compressed().index_stream.blocks.len();
    assert!(n_index >= 3 * sys.udp.lanes, "{n_index} tiles");
    // Window 0 is index jobs 0 and 1 with at most 8 KiB of values: value
    // blocks 0..4 of 2 KiB.
    let (index_job, value_job) = (5, n_index + 10);
    let hook = FaultHook::new().trap(index_job).trap(value_job);
    let x: Vec<f64> = (0..a.ncols()).map(|i| ((i * 7) % 11) as f64 - 5.0).collect();
    let ctx = || RunCtx { hook: Some(&hook), ..RunCtx::default() };

    let (y_batch, batch) = r.spmv_with(&sys, SpmvKernel::Serial, &x, ctx()).unwrap();
    let ex = OverlapExecutor::new(&r, OverlapConfig::default());
    let (y, tiled, doc) = ex.spmv_traced(&sys, &x, ctx(), "windows").unwrap();
    assert!(doc.validate().is_empty(), "{:?}", doc.validate());
    assert!(tiled.overlap.stages >= 3, "{} windows", tiled.overlap.stages);
    assert_eq!(y, spmv(&a, &x));
    assert_eq!(y, y_batch);
    let retried: Vec<usize> =
        doc.block_events.iter().filter(|e| e.outcome != BlockOutcome::Ok).map(|e| e.job).collect();
    assert_eq!(retried, [index_job, value_job]);
    let tally = |s: &ExecStats| {
        (s.blocks_ok, s.blocks_recovered, s.blocks_fell_back, s.retry_cycles, s.accel.jobs_failed)
    };
    assert_eq!(tally(&tiled), tally(&batch));
    assert_eq!(tiled.blocks_recovered, 2);
    let lanes = |s: &ExecStats| -> Vec<(u64, usize, usize)> {
        s.accel.lane_profiles.iter().map(|p| (p.busy_cycles, p.jobs, p.jobs_failed)).collect()
    };
    assert_eq!(lanes(&tiled), lanes(&batch), "every job ran on its own lane");
}

#[test]
fn spmv_stays_correct_under_combined_faults() {
    let a = test_matrix();
    let mut r = RecodedSpmv::new(&a, small_block_config()).unwrap();
    // Corrupt one index block (CRC path) while also trapping a value job.
    r.compressed_mut().index_stream.blocks[0].payload[0] ^= 0x01;
    let n_index = r.compressed().index_stream.blocks.len();
    let hook = FaultHook::new().trap(n_index); // first value job
    let sys = SystemConfig::ddr4();
    let x: Vec<f64> = (0..a.ncols()).map(|i| ((i * 29) % 13) as f64 - 6.0).collect();
    let (y, stats) = r.spmv_faulty(&sys, SpmvKernel::Serial, &x, Some(&hook)).unwrap();
    assert_eq!(y, recode_spmv::sparse::spmv::spmv(&a, &x));
    assert!(stats.degraded);
    assert!(stats.blocks_retried > 0);
    assert_eq!(stats.blocks_fell_back, 1, "the CRC-broken block needs the raw store");
    assert!(stats.fallback_bytes > 0);
    assert!(stats.mem_stream_seconds > 0.0);
}
