//! Regenerates Fig. 15: CPU vs CPU-UDP SpMV performance on HBM2 (1 TB/s).
//! The speedup structure matches DDR4 (the compression ratio sets it);
//! absolute rates scale with the 10x bandwidth.

use recode_bench::{parse_args, run_spmv_figure};
use recode_core::SystemConfig;

fn main() {
    let args = parse_args(Some(60));
    run_spmv_figure(&args, SystemConfig::hbm2(), "Fig. 15 — SpMV on HBM2 (1 TB/s)");
}
