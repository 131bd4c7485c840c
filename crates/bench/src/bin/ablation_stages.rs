//! Ablation: per-stage contribution to compression — Delta alone,
//! Snappy alone, Delta+Snappy, Snappy+Huffman, full DSH — across a corpus
//! sample. Quantifies the paper's claim that "the delta encoding step on
//! its own provides no benefit, but combined with a compression algorithm
//! helps significantly".

use recode_bench::{corpus_entries, maybe_dump_json, parse_args};
use recode_codec::pipeline::{CompressedMatrix, MatrixCodecConfig, PipelineConfig};
use recode_sparse::par;
use recode_sparse::util::geometric_mean;

struct Row {
    name: String,
    family: String,
    nnz: usize,
    delta_only: f64,
    snappy_only: f64,
    delta_snappy: f64,
    snappy_huffman: f64,
    dsh: f64,
}
recode_core::json_struct!(write Row {
    name, family, nnz, delta_only, snappy_only, delta_snappy, snappy_huffman, dsh
});

fn config(delta: bool, snappy: bool, huffman: bool) -> MatrixCodecConfig {
    let base = PipelineConfig { delta, snappy, huffman, ..PipelineConfig::dsh_udp() };
    MatrixCodecConfig { index: base, value: PipelineConfig { delta: false, ..base } }
}

fn main() {
    let args = parse_args(Some(60));
    let entries = corpus_entries(&args);
    let rows: Vec<Row> = par::map(&entries, |_, e| {
        let a = e.generate();
        let bpnnz = |cfg| CompressedMatrix::compress(&a, cfg).unwrap().bytes_per_nnz();
        Row {
            name: e.name.clone(),
            family: e.family.to_string(),
            nnz: a.nnz(),
            delta_only: bpnnz(config(true, false, false)),
            snappy_only: bpnnz(config(false, true, false)),
            delta_snappy: bpnnz(config(true, true, false)),
            snappy_huffman: bpnnz(config(false, true, true)),
            dsh: bpnnz(config(true, true, true)),
        }
    });
    println!("Stage ablation — geometric mean bytes per non-zero ({} matrices)", rows.len());
    let g = |f: fn(&Row) -> f64| geometric_mean(&rows.iter().map(f).collect::<Vec<_>>()).unwrap();
    println!("{:<22} {:>8}", "configuration", "B/nnz");
    println!("{:<22} {:>8.2}", "raw CSR", 12.0);
    println!(
        "{:<22} {:>8.2}  <- fixed-width recode, no size change by design",
        "delta only",
        g(|r| r.delta_only)
    );
    println!("{:<22} {:>8.2}", "snappy only", g(|r| r.snappy_only));
    println!("{:<22} {:>8.2}", "delta+snappy", g(|r| r.delta_snappy));
    println!("{:<22} {:>8.2}", "snappy+huffman", g(|r| r.snappy_huffman));
    println!("{:<22} {:>8.2}", "delta+snappy+huffman", g(|r| r.dsh));
    maybe_dump_json(&args, &rows);
}
