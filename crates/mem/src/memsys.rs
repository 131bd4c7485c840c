//! Bandwidth and energy models for the two memory systems the paper
//! evaluates.

/// A DRAM memory system characterized by peak bandwidth and transfer energy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemorySystem {
    /// Display name ("DDR4-100GB/s", "HBM2-1TB/s").
    pub name: &'static str,
    /// Peak sustainable bandwidth, bytes/second.
    pub peak_bw_bps: f64,
    /// Energy to read one bit from DRAM and ship it to the chip.
    pub pj_per_bit: f64,
}

impl MemorySystem {
    /// The paper's DDR4 system: one die of a 2-die AMD Epyc, 100 GB/s at
    /// 100 pJ/bit.
    pub const fn ddr4() -> Self {
        MemorySystem { name: "DDR4-100GB/s", peak_bw_bps: 100e9, pj_per_bit: 100.0 }
    }

    /// The paper's HBM2 system: four stacks, 1 TB/s at 8 pJ/bit
    /// (Chatterjee et al., HPCA'17).
    pub const fn hbm2() -> Self {
        MemorySystem { name: "HBM2-1TB/s", peak_bw_bps: 1000e9, pj_per_bit: 8.0 }
    }

    /// Power when streaming at full bandwidth:
    /// `bytes/s × 8 bits × pJ/bit`. DDR4: 80 W; HBM2: 64 W (paper §V-B).
    pub fn max_power_w(&self) -> f64 {
        self.power_at_bw(self.peak_bw_bps)
    }

    /// Power when streaming at `bw` bytes/second (linear energy model —
    /// every transferred bit costs `pj_per_bit`).
    pub fn power_at_bw(&self, bw: f64) -> f64 {
        assert!(bw >= 0.0, "bandwidth must be non-negative");
        bw * 8.0 * self.pj_per_bit * 1e-12
    }

    /// Seconds to stream `bytes` at peak bandwidth.
    pub fn stream_seconds(&self, bytes: u64) -> f64 {
        bytes as f64 / self.peak_bw_bps
    }

    /// Energy to move `bytes` through the memory interface.
    pub fn transfer_joules(&self, bytes: u64) -> f64 {
        bytes as f64 * 8.0 * self.pj_per_bit * 1e-12
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_power_numbers() {
        // §V-B: "100GB/s x 100pJ/bit x 8 bits/byte = 80W" and
        // "1000 GB/s x 8pJ/bit x 8 bits/byte = 64W".
        assert!((MemorySystem::ddr4().max_power_w() - 80.0).abs() < 1e-9);
        assert!((MemorySystem::hbm2().max_power_w() - 64.0).abs() < 1e-9);
    }

    #[test]
    fn power_scales_linearly_with_bandwidth() {
        let m = MemorySystem::ddr4();
        assert!((m.power_at_bw(50e9) - 40.0).abs() < 1e-9);
        assert_eq!(m.power_at_bw(0.0), 0.0);
    }

    #[test]
    fn stream_time_and_energy() {
        let m = MemorySystem::ddr4();
        assert!((m.stream_seconds(100_000_000_000) - 1.0).abs() < 1e-12);
        // 1 GB at 100 pJ/bit = 1e9 * 8 * 100e-12 = 0.8 J.
        assert!((m.transfer_joules(1_000_000_000) - 0.8).abs() < 1e-9);
    }

    #[test]
    fn hbm_moves_bits_cheaper_than_ddr() {
        let ddr = MemorySystem::ddr4();
        let hbm = MemorySystem::hbm2();
        assert!(hbm.transfer_joules(1 << 30) < ddr.transfer_joules(1 << 30) / 10.0);
    }
}
