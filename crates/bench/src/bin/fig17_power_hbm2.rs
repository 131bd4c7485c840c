//! Regenerates Fig. 17: raw and net memory-power savings at iso-performance
//! on the 1 TB/s HBM2 system (64 W max), over the seven representative
//! matrices. Paper: average 33 W saved.

use recode_bench::{maybe_dump_json, parse_args};
use recode_core::experiment::power_study;
use recode_core::{report, SystemConfig};

fn main() {
    let args = parse_args(None);
    let rows = power_study(&SystemConfig::hbm2(), args.rep_scale, args.seed, args.blocks);
    print!(
        "{}",
        report::fig16_17(
            "Fig. 17 — Memory power savings, HBM2 1 TB/s (64 W max; paper avg 33 W)",
            &rows
        )
    );
    maybe_dump_json(&args, &rows);
}
