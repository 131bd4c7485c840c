//! Regenerates Fig. 13: 64-lane UDP decompression throughput vs
//! #non-zeros, scatter across the corpus.

use recode_bench::{corpus_entries, maybe_dump_json, parse_args};
use recode_core::experiment::{decomp_study, materialize};
use recode_core::{report, SystemConfig};

fn main() {
    let args = parse_args(None);
    let sys = SystemConfig::ddr4();
    let entries = corpus_entries(&args);
    eprintln!("simulating {} matrices ({} blocks/stream each)...", entries.len(), args.blocks);
    let rows = decomp_study(&sys, &materialize(&entries), args.blocks);
    print!("{}", report::fig13(&rows));
    let bps: Vec<f64> = rows.iter().map(|r| r.udp_bps).collect();
    if let Some(g) = recode_sparse::util::geometric_mean(&bps) {
        println!("geomean UDP throughput: {:.2} GB/s", g / 1e9);
    }
    maybe_dump_json(&args, &rows);
}
