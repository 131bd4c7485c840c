//! Regenerates Fig. 3: single-die CPU SpMV performance on a 100 GB/s DDR4
//! system — memory-bandwidth limited. Prints the modeled bound and a
//! host-measured rate for each matrix.

use recode_bench::{corpus_entries, maybe_dump_json, parse_args};
use recode_core::experiment::fig3_cpu_spmv;
use recode_core::{report, SystemConfig};

fn main() {
    // Fig. 3 is about the flat bandwidth bound; a modest sample shows it.
    let args = parse_args(Some(24));
    let entries = corpus_entries(&args);
    let sys = SystemConfig::ddr4();
    let rows = fig3_cpu_spmv(&sys, &entries);
    print!("{}", report::fig3(&rows));
    println!(
        "\nmodeled bound: 2 flops x 100 GB/s / 12 B per nnz = {:.2} Gflop/s",
        rows.first().map_or(0.0, |r| r.modeled_gflops)
    );
    maybe_dump_json(&args, &rows);
}
