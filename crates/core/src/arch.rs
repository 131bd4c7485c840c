//! System configurations for the three architectures the paper compares.

use recode_mem::{CpuModel, DmaModel, MemorySystem};
use recode_udp::accel::Accelerator;

/// Which system executes SpMV (the three bar groups of Figs. 14/15).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scenario {
    /// CPU streaming raw 12 B/nnz CSR — "Max Uncompressed".
    CpuUncompressed,
    /// CPU decompresses in software, then multiplies — "Decomp(CPU)".
    CpuSoftwareDecomp,
    /// UDP decompresses, CPU multiplies — "Decomp(UDP+CPU)".
    HeteroUdp,
}

impl Scenario {
    /// All scenarios, in the paper's plotting order.
    pub const ALL: [Scenario; 3] =
        [Scenario::CpuUncompressed, Scenario::CpuSoftwareDecomp, Scenario::HeteroUdp];

    /// The paper's bar label.
    pub fn label(&self) -> &'static str {
        match self {
            Scenario::CpuUncompressed => "Max Uncompressed",
            Scenario::CpuSoftwareDecomp => "Decomp(CPU)",
            Scenario::HeteroUdp => "Decomp(UDP+CPU)",
        }
    }
}

/// One complete modeled platform.
#[derive(Debug, Clone, Copy)]
pub struct SystemConfig {
    /// Host CPU.
    pub cpu: CpuModel,
    /// Memory system.
    pub mem: MemorySystem,
    /// UDP accelerator template (per-accelerator lanes/frequency).
    pub udp: Accelerator,
    /// On-die DMA between memory controller and UDP local memory.
    pub dma: DmaModel,
}

impl SystemConfig {
    /// The paper's DDR4 platform (single-die Epyc-class, 100 GB/s).
    pub fn ddr4() -> Self {
        SystemConfig {
            cpu: CpuModel::default(),
            mem: MemorySystem::ddr4(),
            udp: Accelerator::default(),
            dma: DmaModel::default(),
        }
    }

    /// The paper's HBM2 platform (4 stacks, 1 TB/s).
    pub fn hbm2() -> Self {
        SystemConfig { mem: MemorySystem::hbm2(), ..Self::ddr4() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_differ_only_in_memory() {
        let d = SystemConfig::ddr4();
        let h = SystemConfig::hbm2();
        assert_eq!(d.cpu, h.cpu);
        assert!(h.mem.peak_bw_bps > d.mem.peak_bw_bps);
        assert_eq!(d.udp.lanes, 64);
    }

    #[test]
    fn scenario_labels_match_paper() {
        assert_eq!(Scenario::HeteroUdp.label(), "Decomp(UDP+CPU)");
        assert_eq!(Scenario::ALL.len(), 3);
    }
}
