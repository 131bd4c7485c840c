//! Property tests: the UDP decoder programs must agree bit-for-bit with the
//! software codecs on arbitrary inputs, and the EffCLiP pipeline must place
//! arbitrary generated programs validly.
//!
//! Each property runs its cases through
//! [`recode_sparse::util::for_each_case`]; a failure prints `(seed, case)`.

use recode_codec::huffman::HuffmanTable;
use recode_codec::pipeline::{Pipeline, PipelineConfig};
use recode_codec::{delta, huffman, snappy};
use recode_sparse::util::{for_each_case, SplitMix64};
use recode_udp::lane::{Lane, RunConfig};
use recode_udp::machine;
use recode_udp::progs::{self, DshDecoder};

const DECODER_CASES: usize = 32;
const PLACEMENT_CASES: usize = 48;

fn payload(rng: &mut SplitMix64) -> Vec<u8> {
    match rng.below(4) {
        0 => (0..rng.below(1500)).map(|_| rng.next_u64() as u8).collect(),
        1 => vec![rng.next_u64() as u8; 1 + rng.below(1499)],
        2 => (0..rng.below(1500)).map(|_| rng.below(6) as u8).collect(),
        _ => {
            let (p, n) = (1 + rng.below(11), 1 + rng.below(1499));
            (0..n).map(|i| (i % p) as u8).collect()
        }
    }
}

/// A payload the delta stage accepts: whole little-endian u32 words.
fn index_payload(rng: &mut SplitMix64) -> Vec<u8> {
    let mut data = payload(rng);
    data.truncate(data.len() & !3);
    data
}

#[test]
fn udp_snappy_matches_software() {
    for_each_case(0x0D9_0001, DECODER_CASES, |rng| {
        let c = snappy::compress(&payload(rng));
        let image = progs::snappy::build().unwrap();
        let mut lane = Lane::new();
        let out = lane.run(&image, &c, c.len() * 8, RunConfig::default()).unwrap().output;
        assert_eq!(out, snappy::decompress(&c).unwrap());
    });
}

#[test]
fn udp_huffman_matches_software() {
    for_each_case(0x0D9_0002, DECODER_CASES, |rng| {
        let data = payload(rng);
        let mut hist = [1u64; 256];
        for &b in &data {
            hist[b as usize] += 1;
        }
        let t = HuffmanTable::from_histogram(&hist);
        let (bytes, bits) = huffman::encode(&data, &t).unwrap();
        let image = progs::huffman::compile(&t.lengths).unwrap();
        let mut lane = Lane::new();
        let out = lane.run(&image, &bytes, bits, RunConfig::default()).unwrap().output;
        assert_eq!(out, data);
    });
}

#[test]
fn udp_delta_matches_software() {
    for_each_case(0x0D9_0003, DECODER_CASES, |rng| {
        let idx: Vec<u32> = (0..rng.below(400)).map(|_| rng.next_u64() as u32).collect();
        let enc = delta::encode_u32(&idx).unwrap();
        let image = progs::delta::build().unwrap();
        let mut lane = Lane::new();
        let out = lane.run(&image, &enc, enc.len() * 8, RunConfig::default()).unwrap().output;
        assert_eq!(out, delta::decode_bytes(&enc).unwrap());
    });
}

#[test]
fn udp_full_pipeline_matches_encoder_input() {
    for_each_case(0x0D9_0004, DECODER_CASES, |rng| {
        let data = index_payload(rng);
        let config = PipelineConfig { block_bytes: 2048, ..PipelineConfig::dsh_udp() };
        let pipe = Pipeline::train(config, &data).unwrap();
        let stream = pipe.encode_stream(&data).unwrap();
        let decoder = DshDecoder::new(config, pipe.table().map(|t| t.lengths.as_slice())).unwrap();
        let mut lane = Lane::new();
        let mut out = Vec::new();
        for block in &stream.blocks {
            out.extend(decoder.decode_block(&mut lane, block).unwrap().output);
        }
        assert_eq!(out, data);
    });
}

#[test]
fn corrupt_payload_never_panics_the_lane() {
    for_each_case(0x0D9_0005, DECODER_CASES, |rng| {
        let data = index_payload(rng);
        let config = PipelineConfig { block_bytes: 2048, ..PipelineConfig::dsh_udp() };
        let pipe = Pipeline::train(config, &data).unwrap();
        let mut stream = pipe.encode_stream(&data).unwrap();
        if stream.blocks.is_empty() {
            return;
        }
        let bi = rng.below(stream.blocks.len());
        let block = &mut stream.blocks[bi];
        if block.payload.is_empty() {
            return;
        }
        let pos = rng.below(block.payload.len());
        block.payload[pos] ^= rng.next_u64() as u8 | 1;
        let decoder = DshDecoder::new(config, pipe.table().map(|t| t.lengths.as_slice())).unwrap();
        let mut lane = Lane::new();
        let _ = decoder.decode_block(&mut lane, block); // trap or garbage, never panic
    });
}

/// Random well-formed programs place validly under EffCLiP and their
/// binary encodings decode back to the same logical blocks.
#[test]
fn random_programs_place_and_encode_round_trip() {
    use recode_udp::isa::{Action, Block, Cond, Transition};
    use recode_udp::program::ProgramBuilder;
    for_each_case(0x0D9_0006, PLACEMENT_CASES, |rng| {
        let n_singles = 1 + rng.below(39);
        let group_sizes: Vec<usize> = (0..rng.below(4)).map(|_| 1 + rng.below(19)).collect();
        let chain_lens: Vec<usize> = (0..rng.below(6)).map(|_| 1 + rng.below(5)).collect();
        let imm = rng.range(-100, 100) as i16;

        let mut pb = ProgramBuilder::new("fuzz");
        let done = pb.block(Block { actions: vec![], transition: Transition::Halt });
        let mut groups = Vec::new();
        for gs in &group_sizes {
            let members: Vec<_> = (0..*gs)
                .map(|k| {
                    pb.block(Block {
                        actions: vec![Action::LoadImm { rd: 1, imm: imm.wrapping_add(k as i16) }],
                        transition: Transition::Jump(done),
                    })
                })
                .collect();
            groups.push(
                pb.group(members.iter().enumerate().map(|(i, &b)| (2 * i as u32, b)).collect()),
            );
        }
        for len in &chain_lens {
            let mut next = done;
            for _ in 0..*len {
                let fall = pb.block(Block { actions: vec![], transition: Transition::Jump(done) });
                next = pb.block(Block {
                    actions: vec![],
                    transition: Transition::Branch {
                        cond: Cond::Ne,
                        rs: 1,
                        rt: 0,
                        taken: next,
                        fallthrough: fall,
                    },
                });
            }
        }
        for _ in 0..n_singles {
            pb.block(Block {
                actions: vec![Action::AddI { rd: 2, rs: 2, imm: 1 }],
                transition: Transition::Jump(done),
            });
        }
        let entry = if let Some(&g) = groups.first() {
            pb.block(Block {
                actions: vec![],
                transition: Transition::DispatchSym { bits: 6, group: g },
            })
        } else {
            pb.block(Block { actions: vec![], transition: Transition::Jump(done) })
        };
        pb.entry(entry);
        let program = pb.build().unwrap();
        let placement = recode_udp::effclip::place(&program).unwrap();
        recode_udp::effclip::verify(&program, &placement).unwrap();
        let image = machine::encode(&program, &placement).unwrap();
        // Every placed block decodes to its logical actions.
        for (bid, block) in program.blocks.iter().enumerate() {
            let dec = image.decode(placement.block_addr[bid]).unwrap();
            assert_eq!(dec.actions(), block.actions);
        }
        // Packing density stays reasonable even for adversarial mixes.
        assert!(placement.utilization > 0.3, "utilization {}", placement.utilization);
    });
}
