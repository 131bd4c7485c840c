//! `recode-bench-e2e`: encoded bytes -> `y`, end to end and layer by layer.
//!
//! One process measures one workload in one mode: `--trace 0` reports the
//! end-to-end metrics, `--trace 1` the per-layer ledger. The last line of
//! stdout is the JSON result; everything above it is the same numbers for a
//! reader, with quartiles and sample counts. See `bench/README.md`.

mod gen;
mod layers;
mod timing;

use gen::SplitMix64;
use recode_codec::pipeline::{CompressedMatrix, MatrixCodecConfig};
use recode_core::arch::SystemConfig;
use recode_core::error::{ExecError, ExecResult};
use recode_core::exec::{ExecStats, RecodedSpmv};
use recode_core::json::Json;
use recode_core::overlap::{OverlapConfig, OverlapExecutor};
use recode_core::perfmodel::SpmvPerfModel;
use recode_sparse::spmv::{spmv_with_into, SpmvKernel};
use recode_sparse::Csr;
use recode_udp::accel::{AccelReport, FaultHook};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use timing::{Recorder, Summary};

#[global_allocator]
static ALLOC: timing::CountingAlloc = timing::CountingAlloc;

/// Warm-cache SpMVs per round (one sample is their mean).
pub const WARM_REPS: u64 = 4;
/// Raw-CSR SpMVs per round (one sample is their mean).
pub const RAW_REPS: u64 = 10;
/// A run never reports medians of fewer rounds than this, however short
/// `--seconds` is.
pub const MIN_ROUNDS: usize = 3;
/// `fem_faulty`: block `k` of each stream is corrupted when
/// `k % 50 == 49`, job `g` is trapped when `g % 20 == 19`.
const CORRUPT_EVERY: usize = 50;
const TRAP_EVERY: usize = 20;

pub struct Workload {
    pub name: &'static str,
    matrix: fn(&mut SplitMix64) -> Csr,
    codec: fn() -> MatrixCodecConfig,
    faulty: bool,
}

fn fem(rng: &mut SplitMix64) -> Csr {
    gen::fem_band(30_000, 0.4, rng)
}

const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "stencil3d_dsh",
        matrix: |_| gen::stencil3d(64),
        codec: MatrixCodecConfig::udp_dsh,
        faulty: false,
    },
    Workload {
        name: "rmat_dsh",
        matrix: |rng| gen::rmat(15, 12, rng),
        codec: MatrixCodecConfig::udp_dsh,
        faulty: false,
    },
    Workload { name: "fem_ds", matrix: fem, codec: MatrixCodecConfig::udp_ds, faulty: false },
    Workload { name: "fem_faulty", matrix: fem, codec: MatrixCodecConfig::udp_dsh, faulty: true },
];

/// One reported number. `spread` is present for sampled wall-clock metrics.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub spread: Option<Summary>,
}

impl Metric {
    pub fn exact(name: &str, value: f64, unit: &'static str) -> Self {
        Metric { name: name.to_string(), value, unit, spread: None }
    }
}

/// The inputs, the reference result, the clock and the failure counts of
/// one run.
pub struct Bench {
    pub sys: SystemConfig,
    pub a: Csr,
    pub x: Vec<f64>,
    pub y_ref: Vec<f64>,
    pub rec: Recorder,
    /// Timed SpMVs attempted / returned `Err` or a wrong `y`.
    pub attempted: u64,
    pub failed: u64,
    /// Rounds whose simulated statistics differ from the first round's.
    pub drift: u64,
    first_modeled: Option<[u64; 5]>,
}

impl Bench {
    pub fn nnz(&self) -> f64 {
        self.a.nnz() as f64
    }

    /// A wall-clock metric: the quartiles of `key`'s samples (ns per call),
    /// in `unit`, which is `per` ns.
    pub fn wall(&self, name: &str, key: &str, unit: &'static str, per: f64) -> Metric {
        let spread = self.rec.summary(key).per(per);
        Metric { name: name.to_string(), value: spread.median, unit, spread: Some(spread) }
    }

    /// Median ns per call of `key`, per non-zero.
    pub fn per_nnz(&self, name: &str, key: &str) -> Metric {
        self.wall(name, key, "ns/nnz", self.nnz())
    }

    /// Median seconds per call of `key`.
    pub fn seconds(&self, name: &str, key: &str) -> Metric {
        self.wall(name, key, "s", 1e9)
    }

    /// Counts one checked operation.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// Counts one timed SpMV and checks its `y`: bit-for-bit when `exact`,
    /// else to 1e-10 relative (tile merge reassociates straddling rows).
    pub fn verdict(
        &mut self,
        result: ExecResult<(Vec<f64>, ExecStats)>,
        exact: bool,
    ) -> Option<ExecStats> {
        let ok = result.ok().filter(|(y, _)| {
            y.len() == self.y_ref.len()
                && y.iter().zip(&self.y_ref).all(|(g, w)| {
                    if exact {
                        g.to_bits() == w.to_bits()
                    } else {
                        (g - w).abs() <= 1e-10 * w.abs().max(1.0)
                    }
                })
        });
        self.check(ok.is_some());
        ok.map(|(_, stats)| stats)
    }

    /// Compressed bytes -> `y` through the batch executor, nothing cached.
    pub fn spmv_batch(
        &mut self,
        key: &'static str,
        recoded: &RecodedSpmv,
        hook: Option<&FaultHook>,
    ) -> Option<ExecStats> {
        let r = self.rec.time(key, "round", 1, || {
            recoded.spmv_faulty(&self.sys, SpmvKernel::Serial, &self.x, hook)
        });
        let stats = self.verdict(r, true)?;
        let modeled = [
            stats.accel.makespan_cycles,
            stats.accel.busy_cycles,
            stats.compressed_bytes as u64,
            stats.blocks_retried as u64,
            stats.blocks_fell_back as u64,
        ];
        if *self.first_modeled.get_or_insert(modeled) != modeled {
            self.drift += 1;
        }
        Some(stats)
    }

    /// The cold pipelined path: a fresh executor with no cache.
    pub fn spmv_overlap(
        &mut self,
        recoded: &RecodedSpmv,
        hook: Option<&FaultHook>,
    ) -> Option<ExecStats> {
        let r = self.rec.time("spmv_overlap", "round", 1, || {
            OverlapExecutor::new(recoded, overlap_config(0)).spmv_faulty(&self.sys, &self.x, hook)
        });
        self.verdict(r, false)
    }

    /// The iterative-solver steady state: every block served from `warm`'s
    /// cache. A miss counts as a failed operation.
    pub fn spmv_warm(&mut self, warm: &OverlapExecutor) -> Option<ExecStats> {
        let results = self.rec.time("spmv_warm", "round", WARM_REPS, || {
            (0..WARM_REPS).map(|_| warm.spmv(&self.sys, &self.x)).collect::<Vec<_>>()
        });
        let mut last = None;
        for r in results {
            let r = r.and_then(|(y, stats)| match stats.overlap.cache_misses {
                0 => Ok((y, stats)),
                n => Err(ExecError::Reassembly(format!("warm cache missed {n} blocks"))),
            });
            last = self.verdict(r, false);
        }
        last
    }

    /// `reps` SpMVs with `kernel` on the uncompressed matrix.
    pub fn spmv_raw(&mut self, key: &'static str, kernel: SpmvKernel, reps: u64) {
        let mut y = vec![0.0; self.a.nrows()];
        self.rec.time(key, "round", reps, || {
            for _ in 0..reps {
                spmv_with_into(kernel, &self.a, &self.x, &mut y);
            }
        });
        std::hint::black_box(&y);
    }

    /// The codec's write side: compress both streams, train Huffman,
    /// compile + verify + JIT both lane decoders.
    pub fn setup(&mut self, codec: MatrixCodecConfig) -> ExecResult<RecodedSpmv> {
        let r = self.rec.time("setup", "round", 1, || RecodedSpmv::new(&self.a, codec));
        self.check(r.is_ok());
        r
    }

    /// One untraced round: calib, set-up, calib, batch SpMV, calib, raw CSR,
    /// calib. The operations share a round so that a slow phase of the host
    /// hits all of them.
    fn round(
        &mut self,
        codec: MatrixCodecConfig,
        recoded: &RecodedSpmv,
        hook: Option<&FaultHook>,
    ) -> Option<ExecStats> {
        self.rec.calibrate();
        drop(self.setup(codec));
        let stats = self.spmv_batch("spmv_batch", recoded, hook);
        self.spmv_raw("sparse.spmv_serial", SpmvKernel::Serial, RAW_REPS);
        stats
    }
}

/// One client, one SpMV in flight: the producer plus one multiply worker.
pub fn overlap_config(cache_blocks: usize) -> OverlapConfig {
    OverlapConfig { overlap: true, cache_blocks, workers: 1 }
}

/// Corrupts every `CORRUPT_EVERY`th block of each stream after sealing (CRC
/// mismatch -> retries -> raw-store fallback) and traps every
/// `TRAP_EVERY`th job (the retry succeeds). A pure function of the indices.
fn inject_faults(recoded: &mut RecodedSpmv) -> FaultHook {
    let cm = recoded.compressed_mut();
    let jobs = cm.index_stream.blocks.len() + cm.value_stream.blocks.len();
    for stream in [&mut cm.index_stream, &mut cm.value_stream] {
        for b in stream.blocks.iter_mut().skip(CORRUPT_EVERY - 1).step_by(CORRUPT_EVERY) {
            let mid = b.payload.len() / 2;
            b.payload[mid] ^= 0x10;
        }
    }
    (TRAP_EVERY - 1..jobs).step_by(TRAP_EVERY).fold(FaultHook::new(), FaultHook::trap)
}

/// The paper's Fig. 14 model, fed with this run's compression and the
/// simulated 64-lane output rate.
pub fn perf_model(cm: &CompressedMatrix, accel: &AccelReport) -> SpmvPerfModel {
    SpmvPerfModel {
        bytes_per_nnz: cm.bytes_per_nnz(),
        udp_out_bps_per_accel: accel.output_bytes as f64 / accel.busy_cycles.max(1) as f64
            * accel.freq_hz
            * accel.lanes as f64,
    }
}

/// The end-to-end metrics that come from the batch run's simulated
/// statistics.
fn modeled_metrics(sys: &SystemConfig, recoded: &RecodedSpmv, stats: &ExecStats) -> Vec<Metric> {
    let accel = &stats.accel;
    let model = perf_model(recoded.compressed(), accel);
    vec![
        Metric::exact("bytes_per_nnz", model.bytes_per_nnz, "B/nnz"),
        Metric::exact("modeled_decode_cycles", accel.makespan_cycles as f64, "cycles"),
        Metric::exact(
            "modeled_us_per_block",
            accel.busy_cycles as f64 / accel.jobs.max(1) as f64 / accel.freq_hz * 1e6,
            "modeled_us",
        ),
        Metric::exact("modeled_hetero_speedup", model.hetero_speedup(sys), "ratio"),
    ]
}

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace, mut out) = (42u64, 25.0f64, false, PathBuf::from("."));
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: \"{value}\" is not {what}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WORKLOADS
                        .iter()
                        .find(|w| w.name == value)
                        .ok_or_else(|| bad("a workload (see BENCHMARK.json)"))?,
                );
            }
            "--seed" => seed = value.parse().map_err(|_| bad("a seed"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| bad("a duration in seconds"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--out" => out = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload <name> is required")?;
    Ok(Args { workload, seed, seconds, trace, out })
}

fn print_table(metrics: &[Metric]) {
    println!(
        "{:<44} {:>16} {:<11} {:>14} {:>14} {:>4} {:>14}",
        "metric", "value", "unit", "p25", "p75", "n", "unscaled"
    );
    for m in metrics {
        match &m.spread {
            Some(s) => println!(
                "{:<44} {:>16.6} {:<11} {:>14.6} {:>14.6} {:>4} {:>14.6}",
                m.name, m.value, m.unit, s.p25, s.p75, s.n, s.raw_median
            ),
            None => println!("{:<44} {:>16.6} {:<11}", m.name, m.value, m.unit),
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("recode-bench-e2e: {e}");
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    let sys = SystemConfig::ddr4();
    let a = (w.matrix)(&mut SplitMix64::new(args.seed));
    let x = gen::vector(a.ncols(), &mut SplitMix64::new(args.seed ^ 0x5851_F42D_4C95_7F2D));
    let mut y_ref = vec![0.0; a.nrows()];
    spmv_with_into(SpmvKernel::Serial, &a, &x, &mut y_ref);
    println!(
        "workload {} seed {} trace {} n {} nnz {} matrix_digest {:016x} host_threads {}",
        w.name,
        args.seed,
        u8::from(args.trace),
        a.nrows(),
        a.nnz(),
        gen::digest(&a),
        std::thread::available_parallelism().map_or(1, std::num::NonZero::get),
    );
    let mut b = Bench {
        sys,
        a,
        x,
        y_ref,
        rec: Recorder::new(),
        attempted: 0,
        failed: 0,
        drift: 0,
        first_modeled: None,
    };

    let codec = (w.codec)();
    b.rec.calibrate();
    let mut recoded = match b.setup(codec) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("recode-bench-e2e: set-up failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let hook = w.faulty.then(|| inject_faults(&mut recoded));
    let hook = hook.as_ref();
    let cm = recoded.compressed();
    let blocks = cm.index_stream.blocks.len() + cm.value_stream.blocks.len();
    let warm = OverlapExecutor::new(&recoded, overlap_config(blocks));
    // Untimed first touches, checked like any other operation: they fill
    // the warm cache and build the pooled lanes, and they put every executor
    // under `peak_rss_mib`.
    let filled = warm.spmv_faulty(&b.sys, &b.x, hook);
    b.verdict(filled, false);
    b.check(warm.cached_blocks() == blocks);
    let first = recoded.spmv_faulty(&b.sys, SpmvKernel::Serial, &b.x, hook);
    b.verdict(first, true);

    let start = Instant::now();
    let mut metrics;
    if args.trace {
        metrics = layers::run(&mut b, codec, &recoded, hook, &warm, args.seconds);
        if let Err(e) = layers::write_spans(&b.rec.spans, w.name, args.seed, &args.out) {
            eprintln!("recode-bench-e2e: cannot write the span file: {e}");
            return ExitCode::FAILURE;
        }
    } else {
        let mut stats = None;
        let mut rounds = 0;
        while rounds < MIN_ROUNDS || start.elapsed().as_secs_f64() < args.seconds {
            stats = b.round(codec, &recoded, hook).or(stats);
            rounds += 1;
        }
        metrics =
            vec![b.seconds("setup_s", "setup"), b.per_nnz("spmv_batch_ns_per_nnz", "spmv_batch")];
        if let Some(stats) = &stats {
            metrics.extend(modeled_metrics(&b.sys, &recoded, stats));
        }
        metrics.push(Metric::exact("peak_rss_mib", timing::peak_rss_mib(), "MiB"));
        // Reported beside the gated metrics, not among them (see README).
        print_table(&[
            b.per_nnz("sparse.spmv_serial_ns_per_nnz", "sparse.spmv_serial"),
            Metric::exact("bench.calib_ms", b.rec.calib_ms(), "ms"),
            Metric::exact("bench.rounds", rounds as f64, "count"),
        ]);
    }
    print_table(&metrics);

    let correct = b.failed == 0 && b.drift == 0 && metrics.iter().all(|m| m.value.is_finite());
    println!(
        "ops_attempted {} ops_failed {} ops_failed_share {} modeled_drift {} correct {correct}",
        b.attempted,
        b.failed,
        b.failed as f64 / b.attempted.max(1) as f64,
        b.drift,
    );
    let metrics_json = metrics.iter().fold(Json::obj(), |obj, m| {
        obj.set(
            &m.name,
            Json::obj().set("value", Json::F64(m.value)).set("unit", Json::Str(m.unit.into())),
        )
    });
    println!(
        "{}",
        Json::obj()
            .set("correct", Json::Bool(correct))
            .set("attempted", Json::U64(b.attempted))
            .set("failed", Json::U64(b.failed))
            .set("metrics", metrics_json)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
