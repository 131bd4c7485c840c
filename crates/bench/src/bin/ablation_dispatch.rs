//! Ablation: Huffman primary-dispatch width. The UDP's multi-way dispatch
//! resolves `2^width` targets per cycle, so wider dispatch means fewer hops
//! per symbol — paid for in code-memory slots that EffCLiP must place.
//! This sweep quantifies the cycles-per-symbol vs code-footprint trade the
//! paper's 8-bit choice sits on.

use recode_bench::{maybe_dump_json, parse_args};
use recode_codec::pipeline::{Pipeline, PipelineConfig};
use recode_udp::lane::{Lane, RunConfig};
use recode_udp::progs::huffman::compile_with_width;

struct Row {
    width: u8,
    cycles_per_symbol: f64,
    code_bytes: usize,
    utilization: f64,
}
recode_core::json_struct!(write Row { width, cycles_per_symbol, code_bytes, utilization });

fn main() {
    let args = parse_args(None);
    // A realistic Huffman input: the snappy-compressed form of a banded
    // index stream.
    let data: Vec<u8> =
        (0..64 * 1024 / 4u32).flat_map(|i| ((i / 3) * 2 + (i % 3)).to_le_bytes()).collect();
    let config = PipelineConfig { huffman: false, ..PipelineConfig::dsh_udp() };
    let pipe = Pipeline::train(config, &data).expect("train");
    let pre = pipe.encode_stream(&data).expect("encode");
    // Concatenate the snappy payloads as the huffman stage's plaintext.
    let plaintext: Vec<u8> = pre.blocks.iter().flat_map(|b| b.payload.clone()).collect();
    let mut hist = [1u64; 256];
    for &b in &plaintext {
        hist[b as usize] += 1;
    }
    let table = recode_codec::huffman::HuffmanTable::from_histogram(&hist);
    let (bytes, bits) = recode_codec::huffman::encode(&plaintext, &table).expect("encode");

    println!("Huffman dispatch-width ablation ({} symbols)", plaintext.len());
    println!("{:>6} {:>14} {:>12} {:>12}", "width", "cycles/symbol", "code bytes", "packing");
    let mut rows = Vec::new();
    for width in [4u8, 5, 6, 7, 8, 9, 10, 11, 12] {
        let image = compile_with_width(&table.lengths, width).expect("compile");
        let mut lane = Lane::new();
        let r = lane.run(&image, &bytes, bits, RunConfig::default()).expect("decode");
        assert_eq!(r.output, plaintext);
        let cps = r.cycles as f64 / plaintext.len() as f64;
        println!(
            "{:>6} {:>14.2} {:>12} {:>11.0}%",
            width,
            cps,
            image.code_bytes(),
            image.utilization * 100.0
        );
        rows.push(Row {
            width,
            cycles_per_symbol: cps,
            code_bytes: image.code_bytes(),
            utilization: image.utilization,
        });
    }
    maybe_dump_json(&args, &rows);
}
