//! Regenerates Fig. 10: geometric-mean compressed size (bytes per non-zero)
//! under CPU Snappy (32 KB), UDP Delta+Snappy and UDP Delta+Snappy+Huffman
//! (8 KB blocks) across the corpus. Paper: 5.20 / 5.92 / 5.00.

use recode_bench::{corpus_entries, maybe_dump_json, parse_args};
use recode_core::experiment::compression_study;
use recode_core::report;

fn main() {
    let args = parse_args(None);
    let entries = corpus_entries(&args);
    eprintln!("compressing {} matrices three ways...", entries.len());
    let rows = compression_study(&entries);
    print!("{}", report::fig10(&rows));
    maybe_dump_json(&args, &rows);
}
