//! One decoder, many host threads at once.
//!
//! The batch fan-out runs the simulated lanes on every host core, and every
//! lane of a batch decodes through the same `DshDecoder`: the same Huffman,
//! Snappy and inverse-delta images, and on the compiled tier the same
//! published code pages and dispatch tables (`ExecBuf` is `Sync` on the
//! argument that nothing writes them after publish). This suite holds that
//! argument to its outcome: threads that decode the same blocks at the same
//! time, each on its own `Lane`, produce exactly the bytes, cycles, opcode
//! classes and stage split of one thread decoding them alone. It runs on
//! either tier: compiled images by default, the interpreter under
//! `RECODE_NO_JIT=1`.

use recode_codec::block::BlockStream;
use recode_codec::pipeline::{Pipeline, PipelineConfig};
use recode_sparse::util::SplitMix64;
use recode_udp::accel::StageCycles;
use recode_udp::lane::{Lane, OpClassCycles};
use recode_udp::progs::DshDecoder;
use std::sync::Barrier;

/// What one block decode produced.
type Decoded = (Vec<u8>, u64, OpClassCycles, StageCycles);

/// Trains a pipeline on `data`, encodes it into 2 KiB blocks and builds the
/// lane decoder for it.
fn operand(config: PipelineConfig, data: &[u8]) -> (BlockStream, DshDecoder) {
    let config = PipelineConfig { block_bytes: 2048, ..config };
    let pipe = Pipeline::train(config, data).unwrap();
    let stream = pipe.encode_stream(data).unwrap();
    let decoder = DshDecoder::new(config, pipe.table().map(|t| t.lengths.as_slice())).unwrap();
    (stream, decoder)
}

fn decode_all(lane: &mut Lane, stream: &BlockStream, decoder: &DshDecoder) -> Vec<Decoded> {
    stream
        .blocks
        .iter()
        .map(|block| {
            let o = decoder.decode_block(lane, block).expect("an encoder block decodes");
            (o.output, o.cycles, o.opclass, o.stage_cycles)
        })
        .collect()
}

#[test]
fn threads_sharing_one_decoder_decode_as_one_thread_does() {
    const THREADS: usize = 4;
    const ROUNDS: usize = 3;
    let mut rng = SplitMix64::new(11);
    // Noisy banded column indices (delta, Snappy, Huffman) and values drawn
    // from a small palette with random low bits (Snappy, Huffman): the
    // second keeps the Huffman stage literal-heavy.
    let indices: Vec<u8> =
        (0..48_000u32).flat_map(|i| (i / 3 + rng.below(24) as u32).to_le_bytes()).collect();
    let values: Vec<u8> = (0..12_000)
        .flat_map(|_| ([0.5f64, -1.25, 3.0][rng.below(3)] + rng.below(64) as f64).to_le_bytes())
        .collect();
    let operands =
        [operand(PipelineConfig::dsh_udp(), &indices), operand(PipelineConfig::sh_udp(), &values)];
    for (_, decoder) in &operands {
        let images = [&decoder.huffman, &decoder.snappy, &decoder.delta];
        for image in images.into_iter().flatten() {
            assert_eq!(image.jit().is_some(), recode_udp::jit::enabled(), "{}", image.name);
        }
    }
    let alone: Vec<Vec<Decoded>> =
        operands.iter().map(|(s, d)| decode_all(&mut Lane::new(), s, d)).collect();
    assert_eq!(alone[0].iter().flat_map(|d| d.0.iter().copied()).collect::<Vec<u8>>(), indices);
    assert_eq!(alone[1].iter().flat_map(|d| d.0.iter().copied()).collect::<Vec<u8>>(), values);

    // Every thread starts at the barrier on another operand and block, so
    // the same image runs on several threads at every moment.
    let start = Barrier::new(THREADS);
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let (start, operands, alone) = (&start, &operands, &alone);
            s.spawn(move || {
                let mut lane = Lane::new();
                start.wait();
                for round in 0..ROUNDS {
                    for which in 0..operands.len() {
                        let which = (which + t) % operands.len();
                        let (stream, decoder) = &operands[which];
                        let n = stream.blocks.len();
                        for k in (0..n).map(|k| (k + t * n / THREADS) % n) {
                            let o = decoder.decode_block(&mut lane, &stream.blocks[k]).unwrap();
                            let got = (o.output, o.cycles, o.opclass, o.stage_cycles);
                            assert!(
                                got == alone[which][k],
                                "thread {t}, round {round}: operand {which} block {k} decoded \
                                 unlike the single-thread run"
                            );
                        }
                    }
                }
            });
        }
    });
}
