//! End-to-end fault-injection suite for the recoded-SpMV pipeline.
//!
//! Every trial injects one seeded fault — a stream mutation from the codec's
//! [`FaultInjector`] or an accelerator-side trap/stall from a [`FaultHook`] —
//! and then demands exactly one of two outcomes:
//!
//! 1. **bit-exact recovery** with `degraded == true` and nonzero
//!    retry/fallback counters (or a clean result when the fault landed on
//!    dead bytes / was a pure stall), or
//! 2. a **typed error** that names the offending block.
//!
//! Panics and silently wrong results both fail the suite. The trial count
//! is ≥ 256 across all fault classes, per the robustness acceptance bar, and
//! every stream-mutation trial runs through every executor — which must
//! agree block for block, because one recovery ladder sits under all of them.

use recode_spmv::codec::faults::{FaultInjector, FaultKind};
use recode_spmv::codec::pipeline::{CompressedMatrix, MatrixCodecConfig};
use recode_spmv::core::error::ExecError;
use recode_spmv::core::exec::{ExecStats, RawFallbackStore};
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

/// The paper's stage mix, but 2 KB blocks: several blocks per stream (so
/// drop/reorder faults have targets) at a fraction of the simulation cost.
fn small_block_config() -> MatrixCodecConfig {
    MatrixCodecConfig {
        index: PipelineConfig { block_bytes: 2048, ..PipelineConfig::dsh_udp() },
        value: PipelineConfig { block_bytes: 2048, ..PipelineConfig::sh_udp() },
    }
}

/// Outcome bookkeeping across the whole campaign, one count per trial and
/// executor.
#[derive(Default, Debug)]
struct Tally {
    recovered_degraded: usize,
    clean: usize,
    typed_error: usize,
}

/// The schedules every stream-mutation trial is routed through: the 64-lane
/// batch, the pipelined tile walker (decode of tile i+1 overlapped with the
/// multiply of tile i, decoded-block cache enabled) with one and with two
/// multiply workers, and the same walker inline.
#[derive(Clone, Copy, Debug)]
enum Executor {
    Batch,
    Overlap { workers: usize },
    Streaming,
}

const EXECUTORS: [Executor; 4] = [
    Executor::Batch,
    Executor::Overlap { workers: 1 },
    Executor::Overlap { workers: 2 },
    Executor::Streaming,
];

/// Clean-run context shared by every stream fault trial: the matrix, the
/// probe vector, its reference product, and the uncorrupted streams.
#[derive(Clone, Copy)]
struct Probe<'a> {
    a: &'a Csr,
    x: &'a [f64],
    y_ref: &'a [f64],
    clean_cm: &'a CompressedMatrix,
}

/// What one executor made of one (possibly corrupted) operand.
struct Run {
    y: Vec<f64>,
    stats: ExecStats,
    /// Per-job outcome, in job order.
    outcomes: Vec<(usize, BlockOutcome)>,
}

/// Runs `r` through `executor`, traced so the per-job outcomes are visible.
/// The batch also proves the decoded matrix itself is the original.
fn run_on(executor: Executor, r: &RecodedSpmv, probe: &Probe<'_>) -> Result<Run, ExecError> {
    let sys = SystemConfig::ddr4();
    let mut tel = Telemetry::new();
    let ctx = RunCtx { tel: Some(&mut tel), ..RunCtx::default() };
    let (y, stats) = match executor {
        Executor::Batch => {
            let (b, stats) = r.decompress_with(&sys, ctx)?;
            assert_eq!(&b, probe.a, "decode differs from original without an error");
            (spmv(&b, probe.x), stats)
        }
        Executor::Overlap { workers } => {
            let config = OverlapConfig { overlap: true, cache_blocks: 64, workers };
            OverlapExecutor::new(r, config).spmv_with(&sys, probe.x, ctx)?
        }
        Executor::Streaming => r.spmv_streaming_with(&sys, probe.x, ctx)?,
    };
    let outcomes = tel.block_events().iter().map(|e| (e.job, e.outcome)).collect();
    Ok(Run { y, stats, outcomes })
}

/// Runs one stream-mutation trial through every executor; panics (failing
/// the test) on silent corruption, an error without block context, or two
/// executors disagreeing about what happened to any block.
fn run_stream_trial(
    probe: &Probe<'_>,
    seed: u64,
    kind: FaultKind,
    hit_values: bool,
    with_store: bool,
    tally: &mut Tally,
) {
    let Probe { a, y_ref, clean_cm, .. } = *probe;
    let mut cm = clean_cm.clone();
    let mut inj = FaultInjector::new(seed);
    let report = if hit_values {
        inj.inject(&mut cm.value_stream, kind)
    } else {
        inj.inject(&mut cm.index_stream, kind)
    };

    let r = if with_store {
        RecodedSpmv::from_compressed_with_store(cm, Some(RawFallbackStore::from_csr(a)))
            .expect("decoder construction is fault-independent")
    } else {
        RecodedSpmv::from_compressed(cm).expect("decoder construction is fault-independent")
    };

    let mut batch: Option<Result<Run, ExecError>> = None;
    for executor in EXECUTORS {
        let what = format!("seed {seed} kind {kind} (values={hit_values}) on {executor:?}");
        let run = run_on(executor, &r, probe);
        match &run {
            Ok(Run { y, stats, .. }) => {
                // Tile-merge reassociates rows that straddle block boundaries
                // on the pipelined schedule, so recovery there is numerically
                // identical only to 1e-10; the other two are bit-exact.
                match executor {
                    Executor::Overlap { .. } => assert_spmv_close(&what, y, y_ref),
                    _ => assert_eq!(y, y_ref, "{what}: silent corruption"),
                }
                assert_eq!(
                    stats.blocks_ok + stats.blocks_recovered + stats.blocks_fell_back,
                    stats.accel.jobs,
                    "{what}: block accounting"
                );
                if report.is_some() && stats.degraded {
                    assert!(
                        stats.blocks_retried > 0 || stats.blocks_fell_back > 0,
                        "{what}: degraded run must count retries or fallbacks"
                    );
                    tally.recovered_degraded += 1;
                } else {
                    // No-op mutation (e.g. truncation of an empty payload) or
                    // a fault on bytes the decode never depends on.
                    tally.clean += 1;
                }
            }
            Err(e) => {
                assert!(report.is_some(), "{what}: error {e} from an uncorrupted stream");
                match e {
                    ExecError::Udp(u) => assert!(
                        u.block().is_some() || u.codec_error().is_some(),
                        "{what}: untyped context in {e}"
                    ),
                    ExecError::Unrecoverable { block, .. } => {
                        assert!(block.is_some(), "{what}: no block in {e}");
                    }
                    ExecError::Reassembly(_) | ExecError::Codec(_) => {}
                    // These trials run unbudgeted, panic-free plans; the
                    // resilience-only terminal states must never appear here.
                    ExecError::DeadlineExceeded { .. } | ExecError::WorkerPanic { .. } => {
                        panic!("{what}: unexpected resilience error {e}")
                    }
                }
                tally.typed_error += 1;
            }
        }
        // One ladder under every schedule: the same operand recovers the
        // same blocks the same way, or fails with the same kind of error
        // naming the same block.
        let Some(batch) = &batch else {
            batch = Some(run);
            continue;
        };
        match (batch, &run) {
            (Ok(want), Ok(got)) => {
                let ladder = |s: &ExecStats| {
                    [
                        s.blocks_ok,
                        s.blocks_recovered,
                        s.blocks_retried,
                        s.blocks_fell_back,
                        s.fallback_bytes,
                        s.retry_cycles as usize,
                    ]
                };
                assert_eq!(ladder(&got.stats), ladder(&want.stats), "{what}: tally vs batch");
                assert_eq!(got.outcomes, want.outcomes, "{what}: per-job outcomes vs batch");
            }
            (Err(want), Err(got)) => {
                assert_eq!(
                    (std::mem::discriminant(got), got.block()),
                    (std::mem::discriminant(want), want.block()),
                    "{what}: failed with {got}, the batch with {want}"
                );
            }
            (want, got) => panic!(
                "{what}: {:?}, but the batch {:?}",
                got.as_ref().map(|_| "succeeded").map_err(ToString::to_string),
                want.as_ref().map(|_| "succeeded").map_err(ToString::to_string),
            ),
        }
    }
}

#[test]
fn seeded_stream_faults_recover_or_error_never_corrupt() {
    let a = test_matrix();
    let clean = CompressedMatrix::compress(&a, small_block_config()).unwrap();
    let x: Vec<f64> = (0..a.ncols()).map(|i| ((i * 29) % 13) as f64 - 6.0).collect();
    let y_ref = spmv(&a, &x);
    let probe = Probe { a: &a, x: &x, y_ref: &y_ref, clean_cm: &clean };
    let mut tally = Tally::default();
    let mut trials = 0usize;
    // 2 store modes x 2 streams x 6 kinds x 12 seeds = 288 trials, each
    // through all four executors.
    for with_store in [true, false] {
        for hit_values in [false, true] {
            for (ki, kind) in FaultKind::ALL.into_iter().enumerate() {
                for s in 0..12u64 {
                    let seed = 1 + s + 100 * ki as u64 + 10_000 * u64::from(hit_values);
                    run_stream_trial(&probe, seed, kind, hit_values, with_store, &mut tally);
                    trials += 1;
                }
            }
        }
    }
    assert!(trials >= 256, "need >=256 trials, ran {trials}");
    // The campaign must actually exercise both recovery paths.
    assert!(tally.recovered_degraded > 0, "no trial recovered via degradation: {tally:?}");
    assert!(tally.typed_error > 0, "no trial produced a typed error: {tally:?}");
}

#[test]
fn injected_lane_traps_recover_transparently() {
    let a = test_matrix();
    let r = RecodedSpmv::new(&a, small_block_config()).unwrap();
    let sys = SystemConfig::ddr4();
    let n_jobs =
        r.compressed().index_stream.blocks.len() + r.compressed().value_stream.blocks.len();
    assert!(n_jobs >= 2, "matrix too small for trap trials");
    for trial in 0..32usize {
        let hook = FaultHook::new().trap(trial % n_jobs).trap((trial * 7 + 1) % n_jobs);
        let (b, stats) = r.decompress_via_udp_faulty(&sys, Some(&hook)).unwrap();
        assert_eq!(b, a, "trial {trial}: trap recovery must stay bit-exact");
        assert!(stats.degraded, "trial {trial}: traps must mark the run degraded");
        assert!(stats.blocks_retried > 0);
        assert_eq!(stats.blocks_fell_back, 0, "transient traps never need the raw store");
    }
}

#[test]
fn injected_dma_stalls_only_cost_cycles() {
    let a = test_matrix();
    let r = RecodedSpmv::new(&a, small_block_config()).unwrap();
    let sys = SystemConfig::ddr4();
    for trial in 0..8u64 {
        let hook = FaultHook::new().stall(trial as usize, 50_000 * (trial + 1));
        let (b, stats) = r.decompress_via_udp_faulty(&sys, Some(&hook)).unwrap();
        assert_eq!(b, a);
        assert_eq!(stats.accel.injected_stall_cycles, 50_000 * (trial + 1));
        assert!(!stats.degraded, "stalls are slowdown, not degradation");
    }
}

#[test]
fn retry_cycles_fold_into_makespan_under_traps() {
    let a = test_matrix();
    let r = RecodedSpmv::new(&a, small_block_config()).unwrap();
    let sys = SystemConfig::ddr4();
    let (_, clean) = r.decompress_via_udp(&sys).unwrap();
    assert_eq!(clean.retry_cycles, 0, "clean run has no retry cycles");
    let hook = FaultHook::new().trap(0).trap(1).trap(2);
    let (b, stats) = r.decompress_via_udp_faulty(&sys, Some(&hook)).unwrap();
    assert_eq!(b, a);
    assert!(stats.retry_cycles > 0, "trap retries must report their cycles");
    // Trapped jobs cost nothing in the batch and their full decode cycles
    // on retry, so the folded totals do the same work over a longer
    // critical path — the makespan is honest about recovery cost.
    assert_eq!(stats.accel.busy_cycles, clean.accel.busy_cycles);
    assert!(stats.accel.makespan_cycles > clean.accel.makespan_cycles);
    let util = stats.accel.busy_cycles as f64
        / (stats.accel.makespan_cycles as f64 * stats.accel.lanes as f64);
    assert!(
        (stats.accel.lane_utilization - util).abs() < 1e-12,
        "utilization must be recomputed over the folded totals"
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
    let ctx = RunCtx { hook: Some(&hook), tel: Some(&mut tel), ..RunCtx::default() };
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

/// Relative-tolerance check for the pipelined executor: tile-merge
/// reassociates rows that straddle block boundaries, so recovery is
/// numerically identical only to 1e-10, not bit-exact.
fn assert_spmv_close(what: &str, y: &[f64], y_ref: &[f64]) {
    for (i, (g, w)) in y.iter().zip(y_ref).enumerate() {
        let err = (g - w).abs() / w.abs().max(1.0);
        assert!(
            err <= 1e-10,
            "{what}: row {i} diverged after recovery (got {g}, want {w}) — silent \
             corruption through the pipeline"
        );
    }
}

#[test]
fn overlap_recovery_keeps_blocks_in_position_and_traces_stay_valid() {
    let a = test_matrix();
    let mut r = RecodedSpmv::new(&a, small_block_config()).unwrap();
    // A CRC-corrupt index block (falls back mid-pipeline) plus a transient
    // trap and a DMA stall on other jobs: recovery must not disturb tile
    // ordering, and the sealed trace must satisfy every invariant.
    r.compressed_mut().index_stream.blocks[1].payload[0] ^= 0x01;
    let n_index = r.compressed().index_stream.blocks.len();
    let hook = FaultHook::new().trap(n_index).stall(n_index + 1, 25_000);
    let sys = SystemConfig::ddr4();
    let x: Vec<f64> = (0..a.ncols()).map(|i| ((i * 31) % 17) as f64 - 8.0).collect();
    let y_ref = spmv(&a, &x);
    let ex =
        OverlapExecutor::new(&r, OverlapConfig { overlap: true, cache_blocks: 256, workers: 0 });
    let ctx = RunCtx { hook: Some(&hook), ..RunCtx::default() };
    let (y, stats, doc) = ex.spmv_traced(&sys, &x, ctx, "fault_pipeline").unwrap();
    assert_spmv_close("fault_pipeline", &y, &y_ref);
    assert!(stats.degraded);
    assert_eq!(stats.blocks_fell_back, 1, "the CRC-broken block needs the raw store");
    assert!(stats.blocks_retried > 0, "the trapped value job recovers via retry");
    assert_eq!(stats.accel.injected_stall_cycles, 25_000);
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
