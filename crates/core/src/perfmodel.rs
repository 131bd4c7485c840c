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
                // Cap SpMV by the CPU compute ceiling too (never binds at
                // realistic compression).
                let flops = (2.0 * nnz_rate_mem).min(sys.cpu.peak_flops());
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

#[cfg(test)]
mod tests {
    use super::*;

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
}
