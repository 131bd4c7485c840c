//! Ablation: block-size sweep. The paper fixes 8 KB blocks (a UDP lane's
//! working set) and 32 KB for the CPU baseline; this sweep shows the
//! compression-ratio cost of small, independently-decodable blocks and the
//! lane-parallelism benefit they buy.

use recode_bench::{corpus_entries, maybe_dump_json, parse_args};
use recode_codec::pipeline::{CompressedMatrix, MatrixCodecConfig, PipelineConfig};
use recode_sparse::par;
use recode_sparse::util::geometric_mean;

struct Row {
    name: String,
    block_bytes: usize,
    bpnnz: f64,
    blocks: usize,
}
recode_core::json_struct!(write Row { name, block_bytes, bpnnz, blocks });

fn main() {
    let args = parse_args(Some(40));
    let entries = corpus_entries(&args);
    let block_sizes = [2048usize, 4096, 8192, 16384, 32768, 65536];
    let mut all_rows = Vec::new();
    println!("Block-size ablation — DSH geometric-mean bytes/nnz vs block size");
    println!("{:>10} {:>10} {:>14}", "block B", "B/nnz", "blocks/matrix");
    for bs in block_sizes {
        let rows: Vec<Row> = par::map(&entries, |_, e| {
            let a = e.generate();
            let cfg = MatrixCodecConfig {
                index: PipelineConfig { block_bytes: bs, ..PipelineConfig::dsh_udp() },
                value: PipelineConfig { block_bytes: bs, ..PipelineConfig::sh_udp() },
            };
            let cm = CompressedMatrix::compress(&a, cfg).unwrap();
            Row {
                name: e.name.clone(),
                block_bytes: bs,
                bpnnz: cm.bytes_per_nnz(),
                blocks: cm.index_stream.len() + cm.value_stream.len(),
            }
        });
        let g = geometric_mean(&rows.iter().map(|r| r.bpnnz).collect::<Vec<_>>()).unwrap();
        let avg_blocks = rows.iter().map(|r| r.blocks).sum::<usize>() / rows.len();
        println!("{bs:>10} {g:>10.2} {avg_blocks:>14}");
        all_rows.extend(rows);
    }
    maybe_dump_json(&args, &all_rows);
}
