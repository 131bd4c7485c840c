//! Regenerates Fig. 16: raw and net memory-power savings at iso-performance
//! on the 100 GB/s DDR4 system (80 W max), over the seven representative
//! matrices. Paper: average 51 W saved.

use recode_bench::{maybe_dump_json, parse_args};
use recode_core::experiment::power_study;
use recode_core::{report, SystemConfig};

fn main() {
    let args = parse_args(None);
    let rows = power_study(&SystemConfig::ddr4(), args.rep_scale, args.seed, args.blocks);
    print!(
        "{}",
        report::fig16_17(
            "Fig. 16 — Memory power savings, DDR4 100 GB/s (80 W max; paper avg 51 W)",
            &rows
        )
    );
    maybe_dump_json(&args, &rows);
}
