//! The DMA engine that moves compressed blocks from the memory controller
//! into UDP local memory (paper §III-C, citing the DLT accelerator of
//! Thanh-Hoang et al.). It acts as an L2 agent: transfers are streaming,
//! on-die, and cheap — the model charges a small per-block descriptor
//! overhead plus bandwidth-limited transfer time.

/// DMA engine model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DmaModel {
    /// Per-block descriptor setup/completion overhead, seconds.
    pub per_block_overhead_s: f64,
    /// Peak on-die transfer bandwidth, bytes/second (NoC-limited; well above
    /// DRAM bandwidth so DRAM remains the bottleneck, as in the paper).
    pub peak_bw_bps: f64,
}

impl Default for DmaModel {
    fn default() -> Self {
        // 100 ns per descriptor; 512 GB/s on-die streaming.
        DmaModel { per_block_overhead_s: 100e-9, peak_bw_bps: 512e9 }
    }
}

impl DmaModel {
    /// Seconds to move `blocks` block descriptors totalling `bytes`.
    pub fn transfer_seconds(&self, blocks: u64, bytes: u64) -> f64 {
        blocks as f64 * self.per_block_overhead_s + bytes as f64 / self.peak_bw_bps
    }

    /// Effective bandwidth for a given block size — shows when small blocks
    /// make the descriptor overhead visible (an ablation axis).
    pub fn effective_bw(&self, block_bytes: usize) -> f64 {
        let t = self.transfer_seconds(1, block_bytes as u64);
        block_bytes as f64 / t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overhead_hurts_small_blocks_more() {
        let dma = DmaModel::default();
        let small = dma.effective_bw(512);
        let big = dma.effective_bw(64 * 1024);
        assert!(small < big);
        // 8 KB blocks should still achieve a healthy fraction of peak.
        let mid = dma.effective_bw(8 * 1024);
        assert!(mid > 0.1 * dma.peak_bw_bps, "8KB eff bw {mid:.3e}");
    }

    #[test]
    fn transfer_time_components() {
        let dma = DmaModel { per_block_overhead_s: 1e-6, peak_bw_bps: 1e9 };
        let t = dma.transfer_seconds(10, 1_000_000);
        assert!((t - (10e-6 + 1e-3)).abs() < 1e-12);
    }

    #[test]
    fn dma_is_faster_than_dram() {
        // Invariant the paper relies on: DMA never becomes the bottleneck.
        let dma = DmaModel::default();
        assert!(dma.peak_bw_bps > crate::memsys::MemorySystem::ddr4().peak_bw_bps);
    }
}
