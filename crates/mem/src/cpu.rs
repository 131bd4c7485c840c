//! Host CPU model.
//!
//! The paper's platform is a dual-socket Xeon E5-2670v3 (12 cores/socket,
//! 2.3 GHz); its SpMV is memory-bandwidth-bound ("even a few cores is
//! plenty to keep up with a 100 GB/s memory system"), so the CPU model has
//! two halves:
//!
//! * **SpMV rate** — purely bandwidth-bound: `2 flops × BW / bytes-per-nnz`,
//!   with a generous compute ceiling that never binds in practice.
//! * **Software recoding throughput** — per-thread Snappy and DSH
//!   decompression rates. These are *calibrated constants*: the paper's
//!   machine is unavailable, so we fit them to the ratios its figures
//!   report (32-thread CPU Snappy ≈ several GB/s so the UDP's ~24 GB/s is a
//!   geomean ~7× win; DSH-on-CPU is Huffman-bound and so slow that
//!   Decomp(CPU)+SpMV lands >30× below the heterogeneous system). The real
//!   kernels in `recode-codec` can be timed on the host for a qualitative
//!   check, but reproduction uses these constants for determinism.

use crate::memsys::MemorySystem;

/// CPU configuration and software-codec throughput constants.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpuModel {
    /// Hardware threads used for recoding (paper Fig. 12 uses 32).
    pub threads: usize,
    /// Clock, Hz (Xeon E5-2670v3: 2.3 GHz).
    pub clock_hz: f64,
    /// Peak double-precision flops per cycle per thread (compute ceiling;
    /// never the SpMV bottleneck at these bandwidths).
    pub flops_per_cycle: f64,
    /// Per-thread Snappy decompression throughput (output bytes/s) —
    /// calibrated, see module docs.
    pub snappy_decomp_bps_per_thread: f64,
    /// Per-thread Delta+Snappy+Huffman decompression throughput (output
    /// bytes/s) — Huffman-bound, calibrated.
    pub dsh_decomp_bps_per_thread: f64,
    /// Per-thread Snappy *compression* throughput (bytes/s), for encode-side
    /// accounting.
    pub snappy_comp_bps_per_thread: f64,
}

impl Default for CpuModel {
    fn default() -> Self {
        CpuModel {
            threads: 32,
            clock_hz: 2.3e9,
            flops_per_cycle: 8.0,
            snappy_decomp_bps_per_thread: 0.10e9,
            dsh_decomp_bps_per_thread: 0.05e9,
            snappy_comp_bps_per_thread: 0.12e9,
        }
    }
}

impl CpuModel {
    /// Peak arithmetic rate (flops/s) across all threads.
    pub fn peak_flops(&self) -> f64 {
        self.threads as f64 * self.clock_hz * self.flops_per_cycle
    }

    /// Bandwidth-bound SpMV rate in flops/s when each non-zero moves
    /// `bytes_per_nnz` bytes through `mem` (2 flops per non-zero). This is
    /// the model behind the paper's Fig. 3: at 12 B/nnz and 100 GB/s,
    /// ~16.7 Gflops.
    pub fn spmv_flops(&self, mem: &MemorySystem, bytes_per_nnz: f64) -> f64 {
        assert!(bytes_per_nnz > 0.0, "bytes per nnz must be positive");
        let bw_bound = 2.0 * mem.peak_bw_bps / bytes_per_nnz;
        bw_bound.min(self.peak_flops())
    }

    /// Aggregate CPU Snappy decompression throughput (output bytes/s) using
    /// `threads` threads.
    pub fn snappy_decomp_bps(&self, threads: usize) -> f64 {
        threads.min(self.threads) as f64 * self.snappy_decomp_bps_per_thread
    }

    /// Aggregate CPU DSH decompression throughput (output bytes/s).
    pub fn dsh_decomp_bps(&self, threads: usize) -> f64 {
        threads.min(self.threads) as f64 * self.dsh_decomp_bps_per_thread
    }

    /// Aggregate CPU Snappy compression throughput (input bytes/s).
    pub fn snappy_comp_bps(&self, threads: usize) -> f64 {
        threads.min(self.threads) as f64 * self.snappy_comp_bps_per_thread
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig3_uncompressed_spmv_rate() {
        // 12 B/nnz on a 100 GB/s system: 2 * 100e9 / 12 = 16.7 Gflops.
        let cpu = CpuModel::default();
        let g = cpu.spmv_flops(&MemorySystem::ddr4(), 12.0) / 1e9;
        assert!((g - 16.666).abs() < 0.01, "got {g}");
    }

    #[test]
    fn hbm_scales_spmv_10x() {
        let cpu = CpuModel::default();
        let ddr = cpu.spmv_flops(&MemorySystem::ddr4(), 12.0);
        let hbm = cpu.spmv_flops(&MemorySystem::hbm2(), 12.0);
        assert!((hbm / ddr - 10.0).abs() < 1e-6);
    }

    #[test]
    fn compute_ceiling_binds_only_at_absurd_compression() {
        let cpu = CpuModel::default();
        let mem = MemorySystem::hbm2();
        // At 0.001 B/nnz the bandwidth bound (2 Pflops) exceeds the CPU peak.
        let capped = cpu.spmv_flops(&mem, 0.001);
        assert!((capped - cpu.peak_flops()).abs() < 1.0);
        // At realistic 5 B/nnz it does not bind.
        assert!(cpu.spmv_flops(&mem, 5.0) < cpu.peak_flops());
    }

    #[test]
    fn thread_scaling_saturates_at_model_limit() {
        let cpu = CpuModel::default();
        assert_eq!(cpu.snappy_decomp_bps(64), cpu.snappy_decomp_bps(32));
        assert!((cpu.snappy_decomp_bps(32) - 3.2e9).abs() < 1e-3);
        assert!(cpu.dsh_decomp_bps(32) < cpu.snappy_decomp_bps(32));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_bytes_per_nnz_rejected() {
        let _ = CpuModel::default().spmv_flops(&MemorySystem::ddr4(), 0.0);
    }
}
