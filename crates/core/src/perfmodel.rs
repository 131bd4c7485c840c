//! Analytic SpMV performance model (Figs. 3, 14, 15).
//!
//! SpMV at scale is bandwidth-bound (§II-B): the achieved flop rate is
//! `2 flops × (bytes moved per non-zero)⁻¹ × memory bandwidth`. The three
//! scenarios differ only in *how many bytes per non-zero cross the memory
//! interface* and in *what bounds the decompression*:
//!
//! | scenario | bytes/nnz on the wire | decompression bound |
//! |---|---|---|
//! | Max Uncompressed | 12 (raw CSR) | — |
//! | Decomp(CPU) | compressed | CPU software DSH throughput |
//! | Decomp(UDP+CPU) | compressed | UDP aggregate throughput (paper sizes the UDP count to the memory rate) |
//!
//! The heterogeneous multiply and the decode/multiply schedule each have one
//! formula, and this module holds the only copy: [`multiply_cycles`] (the
//! Fig. 14 wire rate, `2·BW / (B/nnz)`, in UDP-clock cycles) and
//! [`makespan`]. [`SpmvPerfModel::evaluate`] reads its `HeteroUdp` rate from
//! the same [`recode_mem::cpu::CpuModel::spmv_flops`] call, the overlap
//! executor applies both per tile, and the tuner scores every candidate with
//! them, so the three cannot disagree about what a multiply costs.

use crate::arch::{Scenario, SystemConfig};
use recode_codec::metrics::RAW_CSR_BYTES_PER_NNZ;

/// Inputs for one scenario evaluation.
#[derive(Debug, Clone, Copy)]
pub struct SpmvPerfModel {
    /// Compressed bytes per non-zero (12.0 for uncompressed CSR).
    pub bytes_per_nnz: f64,
    /// Measured UDP decompressed-output throughput per 64-lane accelerator
    /// (bytes/s); see `crate::measure`.
    pub udp_out_bps_per_accel: f64,
}

/// One scenario's modeled outcome.
#[derive(Debug, Clone, Copy)]
pub struct ScenarioResult {
    /// The scenario.
    pub scenario: Scenario,
    /// Achieved SpMV rate, Gflop/s.
    pub gflops: f64,
    /// Memory bandwidth actually consumed, bytes/s.
    pub mem_bw_used: f64,
    /// UDP accelerators required (0 for CPU scenarios).
    pub udps: usize,
}

impl SpmvPerfModel {
    /// Evaluates one scenario on `sys`.
    pub fn evaluate(&self, sys: &SystemConfig, scenario: Scenario) -> ScenarioResult {
        match scenario {
            Scenario::CpuUncompressed => {
                let flops = sys.cpu.spmv_flops(&sys.mem, RAW_CSR_BYTES_PER_NNZ);
                ScenarioResult {
                    scenario,
                    gflops: flops / 1e9,
                    mem_bw_used: sys.mem.peak_bw_bps,
                    udps: 0,
                }
            }
            Scenario::CpuSoftwareDecomp => {
                // The CPU must expand compressed data to 12 B/nnz CSR before
                // multiplying; its software DSH throughput (output bytes/s)
                // is the bound, far below memory bandwidth.
                let decomp_out = sys.cpu.dsh_decomp_bps(sys.cpu.threads);
                let nnz_rate_decomp = decomp_out / RAW_CSR_BYTES_PER_NNZ;
                // Memory could deliver compressed data faster; take the min.
                let nnz_rate_mem = sys.mem.peak_bw_bps / self.bytes_per_nnz;
                let nnz_rate = nnz_rate_decomp.min(nnz_rate_mem);
                ScenarioResult {
                    scenario,
                    gflops: 2.0 * nnz_rate / 1e9,
                    mem_bw_used: nnz_rate * self.bytes_per_nnz,
                    udps: 0,
                }
            }
            Scenario::HeteroUdp => {
                // Compressed stream saturates memory; UDP count is sized to
                // the decompressed-output rate that implies (the paper's
                // "sufficient number of UDPs to meet the desired memory
                // rate").
                let nnz_rate_mem = sys.mem.peak_bw_bps / self.bytes_per_nnz;
                let decomp_out_needed = nnz_rate_mem * RAW_CSR_BYTES_PER_NNZ;
                let udps =
                    (decomp_out_needed / self.udp_out_bps_per_accel).ceil().max(1.0) as usize;
                // The wire rate of `multiply_cycles`, compute ceiling
                // included (it never binds at realistic compression).
                let flops = sys.cpu.spmv_flops(&sys.mem, self.bytes_per_nnz);
                ScenarioResult {
                    scenario,
                    gflops: flops / 1e9,
                    mem_bw_used: sys.mem.peak_bw_bps,
                    udps,
                }
            }
        }
    }

    /// Evaluates all three scenarios.
    pub fn evaluate_all(&self, sys: &SystemConfig) -> [ScenarioResult; 3] {
        Scenario::ALL.map(|s| self.evaluate(sys, s))
    }

    /// Speedup of the heterogeneous system over uncompressed CPU — the
    /// paper's headline metric (geomean 2.4×).
    pub fn hetero_speedup(&self, sys: &SystemConfig) -> f64 {
        let base = self.evaluate(sys, Scenario::CpuUncompressed).gflops;
        let het = self.evaluate(sys, Scenario::HeteroUdp).gflops;
        het / base
    }
}

/// Modeled CPU cycles (in UDP-clock cycles, so they compose with lane
/// decode cycles) to multiply `nnz` non-zeros handed over as decoded CSR:
/// `2·nnz` flops at the rate the *compressed* stream crosses memory, the
/// bandwidth-bound SpMV rate of [`recode_mem::cpu::CpuModel`] at
/// `bytes_per_nnz` on the wire. Nothing to multiply costs nothing, whatever
/// `bytes_per_nnz` an empty operand reports.
pub fn multiply_cycles(sys: &SystemConfig, bytes_per_nnz: f64, nnz: usize) -> u64 {
    if nnz == 0 {
        return 0;
    }
    let flops = 2.0 * nnz as f64;
    let rate = sys.cpu.spmv_flops(&sys.mem, bytes_per_nnz);
    ((flops / rate) * sys.udp.freq_hz).ceil() as u64
}

/// Modeled makespan of a decode → multiply schedule over stages `i`, as
/// `(overlapped, serial)`. Overlapped, the lanes decode stage `i + 1` while
/// the CPU multiplies stage `i`: `d₀ + Σ max(dᵢ, mᵢ₋₁) + m_last`. Serial,
/// nothing overlaps: `Σ dᵢ + Σ mᵢ`. The two are equal at one stage and
/// `(0, 0)` at none.
///
/// # Panics
/// If the two slices differ in length.
pub fn makespan(decode: &[u64], multiply: &[u64]) -> (u64, u64) {
    assert_eq!(decode.len(), multiply.len(), "one decode and one multiply cost per stage");
    let serial = decode.iter().sum::<u64>() + multiply.iter().sum::<u64>();
    let (Some(&first), Some(&last)) = (decode.first(), multiply.last()) else {
        return (0, 0);
    };
    let steady: u64 = decode[1..].iter().zip(multiply).map(|(&d, &m)| d.max(m)).sum();
    (first + steady + last, serial)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::RecodedSpmv;
    use crate::overlap::{OverlapConfig, OverlapExecutor};
    use crate::tune::tune_matrix;
    use recode_sparse::gen::{generate, GenSpec, ValueModel};

    fn model(bpnnz: f64) -> SpmvPerfModel {
        SpmvPerfModel { bytes_per_nnz: bpnnz, udp_out_bps_per_accel: 24e9 }
    }

    #[test]
    fn uncompressed_ddr_matches_paper_fig3() {
        let r = model(12.0).evaluate(&SystemConfig::ddr4(), Scenario::CpuUncompressed);
        assert!((r.gflops - 16.666).abs() < 0.01, "{}", r.gflops);
    }

    #[test]
    fn five_bytes_per_nnz_gives_2_4x() {
        // The paper's headline: 12 -> 5 B/nnz is a 2.4x speedup.
        let m = model(5.0);
        let s = m.hetero_speedup(&SystemConfig::ddr4());
        assert!((s - 2.4).abs() < 0.01, "speedup {s}");
        let s = m.hetero_speedup(&SystemConfig::hbm2());
        assert!((s - 2.4).abs() < 0.01, "speedup is bandwidth-independent, got {s}");
    }

    #[test]
    fn cpu_software_decomp_is_30x_worse_than_hetero() {
        let m = model(5.0);
        let sys = SystemConfig::ddr4();
        let het = m.evaluate(&sys, Scenario::HeteroUdp).gflops;
        let sw = m.evaluate(&sys, Scenario::CpuSoftwareDecomp).gflops;
        assert!(het / sw > 30.0, "paper claims >30x, got {:.1}x", het / sw);
    }

    #[test]
    fn udp_count_scales_with_bandwidth() {
        let m = model(5.0);
        let ddr = m.evaluate(&SystemConfig::ddr4(), Scenario::HeteroUdp).udps;
        let hbm = m.evaluate(&SystemConfig::hbm2(), Scenario::HeteroUdp).udps;
        assert!(ddr >= 1);
        assert!(hbm > ddr, "1 TB/s needs more UDPs than 100 GB/s");
        // DDR: decompressed rate = 100e9 * 12/5 = 240 GB/s -> 10 UDPs at 24 GB/s.
        assert_eq!(ddr, 10);
    }

    #[test]
    fn software_decomp_memory_bw_is_tiny() {
        let m = model(5.0);
        let r = m.evaluate(&SystemConfig::ddr4(), Scenario::CpuSoftwareDecomp);
        assert!(r.mem_bw_used < 0.05 * SystemConfig::ddr4().mem.peak_bw_bps);
    }

    #[test]
    fn incompressible_matrix_gives_no_speedup() {
        let m = model(12.0);
        let s = m.hetero_speedup(&SystemConfig::ddr4());
        assert!((s - 1.0).abs() < 1e-9);
    }

    #[test]
    fn makespan_overlaps_each_decode_with_the_previous_multiply() {
        // lane:  [5][2      ][9]
        // cpu:      [7      ][1][4]   5 + max(2,7) + max(9,1) + 4
        assert_eq!(makespan(&[5, 2, 9], &[7, 1, 4]), (25, 28));
        assert_eq!(makespan(&[6], &[3]), (9, 9), "one stage has nothing to overlap");
        assert_eq!(makespan(&[], &[]), (0, 0));
        for (d, m) in [(vec![1, 1, 1], vec![9, 9, 9]), (vec![8, 0, 3, 5], vec![0, 4, 4, 1])] {
            let (overlapped, serial) = makespan(&d, &m);
            let bound = d.iter().sum::<u64>().max(m.iter().sum());
            assert!(bound <= overlapped && overlapped <= serial, "{d:?} {m:?}");
        }
    }

    #[test]
    fn an_empty_operand_multiplies_in_zero_cycles_at_any_rate() {
        assert_eq!(multiply_cycles(&SystemConfig::ddr4(), 0.0, 0), 0);
    }

    #[test]
    fn tuner_overlap_executor_and_scenario_model_agree_on_the_multiply() {
        let sys = SystemConfig::ddr4();
        let stencil =
            GenSpec::Stencil2D { nx: 40, ny: 40, points: 5, values: ValueModel::StencilCoeffs };
        let rmat = GenSpec::Rmat { scale: 10, edge_factor: 8, values: ValueModel::UniformRandom };
        for spec in [stencil, rmat] {
            let a = generate(&spec, 7);
            let tuned = tune_matrix(&a, &sys).unwrap().config;
            let recoded = RecodedSpmv::new_tuned(&a, &tuned).unwrap();
            let bpnnz = recoded.compressed().bytes_per_nnz();
            let whole = multiply_cycles(&sys, bpnnz, a.nnz());
            assert_eq!(tuned.modeled_multiply_cycles, whole, "{spec:?}: the tuner's score");

            // Per tile the executor rounds up once, so its sum runs at most
            // one cycle per tile ahead of the whole operand.
            let config = OverlapConfig { overlap: true, cache_blocks: 0, workers: 1 };
            let x = vec![1.0; a.ncols()];
            let (_, stats) = OverlapExecutor::new(&recoded, config).spmv(&sys, &x).unwrap();
            let ov = stats.overlap;
            assert!(ov.stages > 1, "{spec:?}: want a multi-tile walk");
            assert!(
                whole <= ov.multiply_cycles && ov.multiply_cycles <= whole + ov.stages as u64,
                "{spec:?}: {} tiles sum to {}, whole operand {whole}",
                ov.stages,
                ov.multiply_cycles
            );

            // The ceil is worth 1/cycles, so read the rate off a count large
            // enough to bury it.
            let many = 1usize << 40;
            let rate =
                2.0 * many as f64 * sys.udp.freq_hz / multiply_cycles(&sys, bpnnz, many) as f64;
            let hetero = SpmvPerfModel { bytes_per_nnz: bpnnz, udp_out_bps_per_accel: 24e9 }
                .evaluate(&sys, Scenario::HeteroUdp);
            let want = hetero.gflops * 1e9;
            assert!((rate - want).abs() <= 1e-6 * want, "{spec:?}: {rate} vs {want} flop/s");
        }
    }
}
