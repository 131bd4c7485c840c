//! Iso-performance memory-power savings (Figs. 16, 17).
//!
//! §V-B: instead of spending the compression win on speed, hold SpMV
//! performance at the uncompressed system's level and *slow the memory
//! system down*. The required bandwidth shrinks by `bytes_per_nnz / 12`,
//! memory power shrinks linearly with it (per-bit energy model), and the
//! only new cost is the UDP accelerators doing the decompression.

use crate::arch::SystemConfig;
use recode_codec::metrics::RAW_CSR_BYTES_PER_NNZ;

/// Power accounting for one matrix on one memory system.
#[derive(Debug, Clone, Copy)]
pub struct PowerSavings {
    /// Full-bandwidth memory power (the paper's 80 W DDR / 64 W HBM).
    pub max_power_w: f64,
    /// Memory power after compression at iso-performance.
    pub compressed_power_w: f64,
    /// `max - compressed` (the paper's "raw" savings bars).
    pub raw_saving_w: f64,
    /// Power of the UDPs added to sustain the decompression rate.
    pub udp_power_w: f64,
    /// `raw - udp` (the paper's "net" bars).
    pub net_saving_w: f64,
    /// UDP accelerators required.
    pub udps: usize,
}
crate::json_struct!(write PowerSavings {
    max_power_w, compressed_power_w, raw_saving_w, udp_power_w, net_saving_w, udps
});

impl PowerSavings {
    /// Computes savings for a matrix compressed to `bytes_per_nnz`, with
    /// measured per-accelerator decompressed-output throughput
    /// `udp_out_bps_per_accel`.
    pub fn compute(sys: &SystemConfig, bytes_per_nnz: f64, udp_out_bps_per_accel: f64) -> Self {
        assert!(bytes_per_nnz > 0.0, "bytes per nnz must be positive");
        let max_power = sys.mem.max_power_w();
        // Iso-performance: the uncompressed system processes
        // BW / 12 nnz per second; keep that rate.
        let nnz_rate = sys.mem.peak_bw_bps / RAW_CSR_BYTES_PER_NNZ;
        // Compressed traffic for the same nnz rate.
        let compressed_bw = (nnz_rate * bytes_per_nnz).min(sys.mem.peak_bw_bps);
        let compressed_power = sys.mem.power_at_bw(compressed_bw);
        // The UDPs must reproduce the decompressed stream at full original
        // bandwidth (output side = 12 B/nnz × nnz rate = original BW).
        let decomp_out_needed = nnz_rate * RAW_CSR_BYTES_PER_NNZ;
        let udps = (decomp_out_needed / udp_out_bps_per_accel).ceil().max(1.0) as usize;
        let udp_power = udps as f64 * recode_udp::energy::POWER_W;
        let raw = max_power - compressed_power;
        PowerSavings {
            max_power_w: max_power,
            compressed_power_w: compressed_power,
            raw_saving_w: raw,
            udp_power_w: udp_power,
            net_saving_w: raw - udp_power,
            udps,
        }
    }

    /// Fractional net power reduction (`net / max`) — the paper quotes 63%
    /// (DDR) and 51% (HBM) averages.
    pub fn net_fraction(&self) -> f64 {
        if self.max_power_w == 0.0 {
            return 0.0;
        }
        self.net_saving_w / self.max_power_w
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ddr_savings_at_5_bytes_per_nnz() {
        // 5/12 of 80 W = 33.3 W burned, 46.7 W raw saving; UDP overhead is
        // a watt-scale correction.
        let s = PowerSavings::compute(&SystemConfig::ddr4(), 5.0, 24e9);
        assert!((s.max_power_w - 80.0).abs() < 1e-9);
        assert!((s.compressed_power_w - 80.0 * 5.0 / 12.0).abs() < 1e-6);
        assert!(s.raw_saving_w > 46.0 && s.raw_saving_w < 47.0);
        assert!(s.udp_power_w < 2.0, "udp power {:.2} W", s.udp_power_w);
        assert!(s.net_saving_w > 44.0);
        assert!(s.net_fraction() > 0.55);
    }

    #[test]
    fn hbm_needs_more_udps_but_still_saves() {
        let s = PowerSavings::compute(&SystemConfig::hbm2(), 5.0, 24e9);
        assert!((s.max_power_w - 64.0).abs() < 1e-9);
        assert!(s.udps >= 40, "1 TB/s decompressed needs ~42 UDPs, got {}", s.udps);
        assert!(s.net_saving_w > 15.0, "net {:.1} W", s.net_saving_w);
        assert!(s.net_fraction() > 0.25);
    }

    #[test]
    fn aggressive_compression_saves_up_to_6x_power() {
        // The paper's abstract: "up to 6x lower memory power at the same
        // performance" — bytes/nnz around 2 gives 12/2 = 6x.
        let s = PowerSavings::compute(&SystemConfig::ddr4(), 2.0, 24e9);
        let ratio = s.max_power_w / (s.compressed_power_w + s.udp_power_w);
        assert!(ratio > 5.0, "power ratio {ratio:.1}");
    }

    #[test]
    fn incompressible_matrix_saves_nothing_and_costs_udp_power() {
        let s = PowerSavings::compute(&SystemConfig::ddr4(), 12.0, 24e9);
        assert!(s.raw_saving_w.abs() < 1e-9);
        assert!(s.net_saving_w < 0.0, "pure overhead when compression fails");
    }

    #[test]
    fn bytes_per_nnz_above_raw_is_clamped_to_peak_bw() {
        let s = PowerSavings::compute(&SystemConfig::ddr4(), 20.0, 24e9);
        assert!(s.compressed_power_w <= s.max_power_w + 1e-9);
    }
}
