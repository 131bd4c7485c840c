//! Regenerates Fig. 12: decompression throughput of a 32-thread CPU
//! (Snappy, calibrated model) vs a 64-lane UDP (DSH, simulated) on the
//! seven representative matrices, plus the corpus geomean speedup and the
//! single-lane per-8KB-block latency (paper: 21.7 µs geomean).

use recode_bench::{corpus_entries, maybe_dump_json, parse_args};
use recode_codec::pipeline::{CompressedMatrix, MatrixCodecConfig};
use recode_core::experiment::{decomp_study, materialize};
use recode_core::measure::measure_host_codec;
use recode_core::{report, seven, SystemConfig};

fn main() {
    let args = parse_args(Some(60));
    let sys = SystemConfig::ddr4();

    // The seven representative matrices.
    let seven_mats: Vec<(String, String, recode_sparse::Csr)> =
        seven::generate_all(args.rep_scale, args.seed)
            .into_iter()
            .map(|(rep, m)| (rep.name.to_string(), rep.family.to_string(), m))
            .collect();
    let rows = decomp_study(&sys, &seven_mats, args.blocks);
    print!("{}", report::fig12(&rows));

    // Qualitative host check of the software-decode mechanism: this
    // machine's own single-thread rates (not the calibrated model inputs).
    if let Some((name, _, a)) = seven_mats.first() {
        let cm = CompressedMatrix::compress(a, MatrixCodecConfig::udp_dsh()).expect("compress");
        match measure_host_codec(&cm, 2) {
            Ok(h) => println!(
                "host check ({name}, 1 thread): snappy {:.2} GB/s vs DSH {:.2} GB/s ({:.1}x slower — the gap the UDP absorbs)",
                h.snappy_bps / 1e9,
                h.dsh_bps / 1e9,
                h.snappy_bps / h.dsh_bps
            ),
            Err(e) => eprintln!("host check failed: {e}"),
        }
    }

    // Corpus geomean (sampled; the paper reports ~7x over 369 matrices).
    let entries = corpus_entries(&args);
    eprintln!("\nsimulating corpus sample of {} matrices...", entries.len());
    let corpus_rows = decomp_study(&sys, &materialize(&entries), args.blocks);
    let speedups: Vec<f64> = corpus_rows.iter().map(|r| r.speedup).collect();
    if let Some(g) = recode_sparse::util::geometric_mean(&speedups) {
        println!(
            "corpus geomean UDP/CPU speedup ({} matrices): {g:.2}x (paper: ~7x)",
            corpus_rows.len()
        );
    }
    maybe_dump_json(&args, &(rows, corpus_rows));
}
