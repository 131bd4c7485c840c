//! Per-figure experiment runners.
//!
//! Each function reproduces the data behind one (or one pair) of the
//! paper's figures and returns serializable rows; `crate::report` renders
//! them, and the `recode-bench` binaries drive them from the command line.

use crate::arch::SystemConfig;
use crate::corpus::CorpusEntry;
use crate::json_struct;
use crate::measure::{measure_udp_decomp, DecompMeasurement};
use crate::perfmodel::SpmvPerfModel;
use crate::power::PowerSavings;
use crate::seven;
use recode_codec::metrics::RAW_CSR_BYTES_PER_NNZ;
use recode_codec::pipeline::{CompressedMatrix, MatrixCodecConfig};
use recode_sparse::spmv::{spmv_with_into, SpmvKernel};
use recode_sparse::util::geometric_mean;
use recode_sparse::{par, Csr};

/// Default number of blocks simulated per stream when measuring UDP
/// throughput (evenly sampled; cycle counts extrapolate linearly).
pub const DEFAULT_BLOCK_SAMPLE: usize = 24;

// ---------------------------------------------------------------- Fig. 3

/// One matrix's CPU-only SpMV rates (modeled and host-measured).
#[derive(Debug, Clone)]
pub struct Fig3Row {
    /// Matrix name.
    pub name: String,
    /// Generator family.
    pub family: String,
    /// Non-zeros.
    pub nnz: usize,
    /// Modeled bandwidth-bound rate on the configured system (Gflop/s).
    pub modeled_gflops: f64,
    /// Host-machine measured rate with the row-parallel kernel (Gflop/s) —
    /// a sanity check that real kernels are memory-bound, not the
    /// reproduction target.
    pub host_gflops: f64,
}
json_struct!(write Fig3Row { name, family, nnz, modeled_gflops, host_gflops });

/// Runs the Fig. 3 study on `entries`.
pub fn fig3_cpu_spmv(sys: &SystemConfig, entries: &[CorpusEntry]) -> Vec<Fig3Row> {
    let modeled = sys.cpu.spmv_flops(&sys.mem, RAW_CSR_BYTES_PER_NNZ) / 1e9;
    par::map(entries, |_, e| {
        let a = e.generate();
        let x = vec![1.0f64; a.ncols()];
        let mut y = vec![0.0f64; a.nrows()];
        // Warm once, then time a few iterations.
        spmv_with_into(SpmvKernel::RowParallel, &a, &x, &mut y);
        let iters = (20_000_000 / a.nnz().max(1)).clamp(1, 50);
        let t0 = std::time::Instant::now();
        for _ in 0..iters {
            spmv_with_into(SpmvKernel::RowParallel, &a, &x, &mut y);
        }
        let secs = t0.elapsed().as_secs_f64();
        let host_gflops = (2.0 * a.nnz() as f64 * iters as f64) / secs / 1e9;
        Fig3Row {
            name: e.name.clone(),
            family: e.family.to_string(),
            nnz: a.nnz(),
            modeled_gflops: modeled,
            host_gflops,
        }
    })
}

// ---------------------------------------------------------- Figs. 10 / 11

/// Compressed sizes of one matrix under the three configurations.
#[derive(Debug, Clone)]
pub struct CompressionRow {
    /// Matrix name.
    pub name: String,
    /// Generator family.
    pub family: String,
    /// Non-zeros.
    pub nnz: usize,
    /// CPU Snappy (32 KB blocks) bytes/nnz — paper geomean 5.20.
    pub cpu_snappy_bpnnz: f64,
    /// UDP Delta+Snappy (8 KB blocks) bytes/nnz — paper geomean 5.92.
    pub ds_bpnnz: f64,
    /// UDP Delta+Snappy+Huffman bytes/nnz — paper geomean 5.00.
    pub dsh_bpnnz: f64,
}
json_struct!(write CompressionRow { name, family, nnz, cpu_snappy_bpnnz, ds_bpnnz, dsh_bpnnz });

/// Corpus-level geometric means for the three configurations.
#[derive(Debug, Clone, Copy)]
pub struct CompressionGeomeans {
    /// CPU Snappy geomean.
    pub cpu_snappy: f64,
    /// Delta+Snappy geomean.
    pub ds: f64,
    /// Delta+Snappy+Huffman geomean.
    pub dsh: f64,
}

/// Compresses every entry three ways (Figs. 10 and 11 share this data).
pub fn compression_study(entries: &[CorpusEntry]) -> Vec<CompressionRow> {
    par::map(entries, |_, e| {
        let a = e.generate();
        let bpnnz = |cfg: MatrixCodecConfig| {
            CompressedMatrix::compress(&a, cfg)
                .expect("corpus matrices satisfy codec preconditions")
                .bytes_per_nnz()
        };
        CompressionRow {
            name: e.name.clone(),
            family: e.family.to_string(),
            nnz: a.nnz(),
            cpu_snappy_bpnnz: bpnnz(MatrixCodecConfig::cpu_snappy()),
            ds_bpnnz: bpnnz(MatrixCodecConfig::udp_ds()),
            dsh_bpnnz: bpnnz(MatrixCodecConfig::udp_dsh()),
        }
    })
}

/// Geometric means over a compression study.
pub fn compression_geomeans(rows: &[CompressionRow]) -> Option<CompressionGeomeans> {
    Some(CompressionGeomeans {
        cpu_snappy: geometric_mean(&rows.iter().map(|r| r.cpu_snappy_bpnnz).collect::<Vec<_>>())?,
        ds: geometric_mean(&rows.iter().map(|r| r.ds_bpnnz).collect::<Vec<_>>())?,
        dsh: geometric_mean(&rows.iter().map(|r| r.dsh_bpnnz).collect::<Vec<_>>())?,
    })
}

// ---------------------------------------------------------- Figs. 12 / 13

/// Decompression throughput of one matrix: 32-thread CPU Snappy vs 64-lane
/// UDP DSH.
#[derive(Debug, Clone)]
pub struct DecompRow {
    /// Matrix name.
    pub name: String,
    /// Generator family.
    pub family: String,
    /// Non-zeros.
    pub nnz: usize,
    /// CPU Snappy decompression throughput, bytes/s (calibrated model).
    pub cpu_bps: f64,
    /// UDP accelerator decompressed-output throughput, bytes/s (simulated).
    pub udp_bps: f64,
    /// Single-lane µs per block (paper: geomean 21.7 µs for 8 KB).
    pub us_per_block: f64,
    /// `udp / cpu` (paper: geomean ≈ 7×, 2–5× on the seven).
    pub speedup: f64,
}
json_struct!(write DecompRow { name, family, nnz, cpu_bps, udp_bps, us_per_block, speedup });

/// Runs the Fig. 12/13 study on pre-generated `(name, family, matrix)`
/// triples (callers choose corpus or the seven).
pub fn decomp_study(
    sys: &SystemConfig,
    matrices: &[(String, String, Csr)],
    max_blocks_per_stream: usize,
) -> Vec<DecompRow> {
    let cpu_bps = sys.cpu.snappy_decomp_bps(sys.cpu.threads);
    par::map(matrices, |_, (name, family, a)| {
        let cm = CompressedMatrix::compress(a, MatrixCodecConfig::udp_dsh())
            .expect("codec preconditions");
        let m: DecompMeasurement = measure_udp_decomp(&cm, &sys.udp, max_blocks_per_stream)
            .expect("self-encoded blocks decode");
        DecompRow {
            name: name.clone(),
            family: family.clone(),
            nnz: a.nnz(),
            cpu_bps,
            udp_bps: m.accel_out_bps,
            us_per_block: m.us_per_block,
            speedup: if cpu_bps > 0.0 { m.accel_out_bps / cpu_bps } else { 0.0 },
        }
    })
}

// ---------------------------------------------------------- Figs. 14 / 15

/// The three-scenario SpMV comparison for one matrix.
#[derive(Debug, Clone)]
pub struct SpmvRow {
    /// Matrix name.
    pub name: String,
    /// Generator family.
    pub family: String,
    /// Non-zeros.
    pub nnz: usize,
    /// DSH compressed bytes per non-zero.
    pub bytes_per_nnz: f64,
    /// Max Uncompressed, Gflop/s.
    pub uncompressed_gflops: f64,
    /// Decomp(CPU), Gflop/s.
    pub cpu_decomp_gflops: f64,
    /// Decomp(UDP+CPU), Gflop/s.
    pub hetero_gflops: f64,
    /// Hetero / uncompressed (paper geomean 2.4×).
    pub speedup: f64,
    /// UDP accelerators the model sized for the memory rate.
    pub udps: usize,
}
json_struct!(write SpmvRow {
    name, family, nnz, bytes_per_nnz, uncompressed_gflops, cpu_decomp_gflops, hetero_gflops,
    speedup, udps
});

/// Runs the Fig. 14/15 study.
pub fn spmv_study(
    sys: &SystemConfig,
    matrices: &[(String, String, Csr)],
    max_blocks_per_stream: usize,
) -> Vec<SpmvRow> {
    par::map(matrices, |_, (name, family, a)| {
        let cm = CompressedMatrix::compress(a, MatrixCodecConfig::udp_dsh())
            .expect("codec preconditions");
        let m = measure_udp_decomp(&cm, &sys.udp, max_blocks_per_stream)
            .expect("self-encoded blocks decode");
        let model = SpmvPerfModel {
            bytes_per_nnz: cm.bytes_per_nnz().max(0.01),
            udp_out_bps_per_accel: m.accel_out_bps.max(1e9),
        };
        let [unc, sw, het] = model.evaluate_all(sys);
        SpmvRow {
            name: name.clone(),
            family: family.clone(),
            nnz: a.nnz(),
            bytes_per_nnz: cm.bytes_per_nnz(),
            uncompressed_gflops: unc.gflops,
            cpu_decomp_gflops: sw.gflops,
            hetero_gflops: het.gflops,
            speedup: het.gflops / unc.gflops,
            udps: het.udps,
        }
    })
}

// ---------------------------------------------------------- Figs. 16 / 17

/// Power savings for one of the seven representative matrices.
#[derive(Debug, Clone)]
pub struct PowerRow {
    /// Matrix name.
    pub name: String,
    /// DSH compressed bytes per non-zero.
    pub bytes_per_nnz: f64,
    /// The savings breakdown.
    pub savings: PowerSavings,
}
json_struct!(write PowerRow { name, bytes_per_nnz, savings });

/// Runs the Fig. 16/17 study on the seven representative matrices at the
/// given generation scale.
pub fn power_study(
    sys: &SystemConfig,
    rep_scale: f64,
    seed: u64,
    max_blocks_per_stream: usize,
) -> Vec<PowerRow> {
    par::map(seven::generate_all(rep_scale, seed), |_, (rep, a)| {
        let cm = CompressedMatrix::compress(&a, MatrixCodecConfig::udp_dsh())
            .expect("codec preconditions");
        let m = measure_udp_decomp(&cm, &sys.udp, max_blocks_per_stream)
            .expect("self-encoded blocks decode");
        let bpnnz = cm.bytes_per_nnz();
        PowerRow {
            name: rep.name.to_string(),
            bytes_per_nnz: bpnnz,
            savings: PowerSavings::compute(sys, bpnnz, m.accel_out_bps.max(1e9)),
        }
    })
}

/// Helper: materialize corpus entries as named matrices (streamed by the
/// caller for large scales).
pub fn materialize(entries: &[CorpusEntry]) -> Vec<(String, String, Csr)> {
    par::map(entries, |_, e| (e.name.clone(), e.family.to_string(), e.generate()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::{corpus, CorpusScale};

    fn small_entries(n: usize) -> Vec<CorpusEntry> {
        corpus(CorpusScale::Small, 11).into_iter().take(n).collect()
    }

    #[test]
    fn compression_study_produces_paper_shaped_geomeans() {
        let rows = compression_study(&small_entries(22));
        let g = compression_geomeans(&rows).unwrap();
        // Shape: everything well below 12 raw; DSH at least as good as DS.
        assert!(g.dsh < 9.0, "dsh geomean {:.2}", g.dsh);
        assert!(g.ds < 10.0, "ds geomean {:.2}", g.ds);
        assert!(g.cpu_snappy < 10.0, "snappy geomean {:.2}", g.cpu_snappy);
        assert!(g.dsh <= g.ds + 0.05, "huffman must not hurt: {:.2} vs {:.2}", g.dsh, g.ds);
    }

    #[test]
    fn decomp_study_shows_udp_advantage() {
        let sys = SystemConfig::ddr4();
        let m = materialize(&small_entries(6));
        let rows = decomp_study(&sys, &m, 6);
        let speedups: Vec<f64> = rows.iter().map(|r| r.speedup).collect();
        let g = geometric_mean(&speedups).unwrap();
        assert!(g > 1.5, "UDP should beat 32-thread CPU snappy, geomean {g:.2}");
    }

    #[test]
    fn spmv_study_speedup_in_paper_band() {
        let sys = SystemConfig::ddr4();
        let m = materialize(&small_entries(6));
        let rows = spmv_study(&sys, &m, 6);
        for r in &rows {
            assert!(r.speedup > 1.0, "{}: speedup {:.2}", r.name, r.speedup);
            assert!(r.cpu_decomp_gflops < r.hetero_gflops / 10.0, "{}", r.name);
            assert!((r.uncompressed_gflops - 16.67).abs() < 0.05);
        }
    }

    #[test]
    fn power_study_saves_power_on_all_seven() {
        let sys = SystemConfig::ddr4();
        let rows = power_study(&sys, 0.02, 5, 4);
        assert_eq!(rows.len(), 7);
        for r in &rows {
            assert!(
                r.savings.net_saving_w > 0.0,
                "{}: net {:.1} W at {:.2} B/nnz",
                r.name,
                r.savings.net_saving_w,
                r.bytes_per_nnz
            );
        }
    }
}
