//! Regenerates Fig. 14: CPU vs CPU-UDP SpMV performance on DDR4
//! (100 GB/s): Max Uncompressed vs Decomp(CPU) vs Decomp(UDP+CPU).
//! Paper: geomean 2.4x heterogeneous speedup; CPU software decompression
//! lands >30x below the heterogeneous system.

use recode_bench::{parse_args, run_spmv_figure};
use recode_core::SystemConfig;

fn main() {
    let args = parse_args(Some(60));
    run_spmv_figure(&args, SystemConfig::ddr4(), "Fig. 14 — SpMV on DDR4 (100 GB/s)");
}
