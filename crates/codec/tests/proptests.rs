//! Property tests: every codec stage and the composed pipeline must be the
//! identity on arbitrary inputs, and decoders must reject mutations
//! gracefully (error, never panic).
//!
//! Each property runs its cases through
//! [`recode_sparse::util::for_each_case`]; a failure prints `(seed, case)`.

use recode_codec::faults::{FaultInjector, FaultKind};
use recode_codec::huffman::HuffmanTable;
use recode_codec::pipeline::{CompressedMatrix, MatrixCodecConfig, Pipeline, PipelineConfig};
use recode_codec::{delta, huffman, snappy};
use recode_sparse::util::{for_each_case, SplitMix64};

const CASES: usize = 64;

/// Arbitrary byte payloads mixing random and compressible content.
fn payload(rng: &mut SplitMix64) -> Vec<u8> {
    match rng.below(4) {
        0 => (0..rng.below(2048)).map(|_| rng.next_u64() as u8).collect(),
        // Runs: highly compressible.
        1 => vec![rng.next_u64() as u8; 1 + rng.below(2047)],
        // Small-alphabet text-ish data.
        2 => (0..rng.below(2048)).map(|_| rng.below(8) as u8).collect(),
        // Periodic data (exercises overlapping copies).
        _ => {
            let (p, n) = (1 + rng.below(15), 1 + rng.below(2047));
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

fn indices(rng: &mut SplitMix64, min: usize, max: usize) -> Vec<u32> {
    (0..min + rng.below(max - min)).map(|_| rng.next_u64() as u32).collect()
}

#[test]
fn snappy_round_trip() {
    for_each_case(0xC0DE_0001, CASES, |rng| {
        let data = payload(rng);
        let c = snappy::compress(&data);
        assert_eq!(snappy::decompress(&c).unwrap(), data);
    });
}

#[test]
fn snappy_worst_case_expansion_bound() {
    for_each_case(0xC0DE_0002, CASES, |rng| {
        let data = payload(rng);
        let c = snappy::compress(&data);
        assert!(c.len() <= data.len() + data.len() / 6 + 32);
    });
}

#[test]
fn snappy_decoder_survives_mutation() {
    for_each_case(0xC0DE_0003, CASES, |rng| {
        let mut c = snappy::compress(&payload(rng));
        let pos = rng.below(c.len());
        c[pos] ^= rng.next_u64() as u8 | 1;
        // Must not panic; may error or decode to something else.
        let _ = snappy::decompress(&c);
    });
}

#[test]
fn huffman_round_trip() {
    for_each_case(0xC0DE_0004, CASES, |rng| {
        let data = payload(rng);
        let mut hist = [1u64; 256];
        for &b in &data {
            hist[b as usize] += 1;
        }
        let t = HuffmanTable::from_histogram(&hist);
        let (bytes, bits) = huffman::encode(&data, &t).unwrap();
        assert_eq!(huffman::decode(&bytes, bits, &t, data.len()).unwrap(), data);
    });
}

#[test]
fn huffman_never_beats_entropy_by_much() {
    for_each_case(0xC0DE_0005, CASES, |rng| {
        // Sanity: coded size >= data len * entropy estimate - slack.
        let data = payload(rng);
        if data.len() < 64 {
            return;
        }
        let mut hist = [0u64; 256];
        for &b in &data {
            hist[b as usize] += 1;
        }
        let entropy_bits: f64 = hist
            .iter()
            .filter(|&&c| c > 0)
            .map(|&c| -(c as f64 / data.len() as f64).log2() * c as f64)
            .sum();
        let t = HuffmanTable::from_histogram(&hist.map(|c| c + 1));
        let (_, bits) = huffman::encode(&data, &t).unwrap();
        assert!(
            bits as f64 + 1.0 >= entropy_bits,
            "coded {bits} bits below entropy {entropy_bits}"
        );
    });
}

#[test]
fn delta_round_trip() {
    for_each_case(0xC0DE_0006, CASES, |rng| {
        let idx = indices(rng, 0, 512);
        let enc = delta::encode_u32(&idx).unwrap();
        assert_eq!(delta::decode_u32(&enc).unwrap(), idx);
    });
}

#[test]
fn delta_decoder_survives_mutation() {
    for_each_case(0xC0DE_0007, CASES, |rng| {
        let mut enc = delta::encode_u32(&indices(rng, 1, 256)).unwrap();
        let pos = rng.below(enc.len());
        enc[pos] ^= rng.next_u64() as u8 | 1;
        let _ = delta::decode_u32(&enc);
    });
}

#[test]
fn full_pipeline_round_trip() {
    for_each_case(0xC0DE_0008, CASES, |rng| {
        let data = index_payload(rng);
        let config = PipelineConfig {
            delta: true,
            snappy: true,
            huffman: true,
            block_bytes: 1usize << (7 + rng.below(6)),
            huffman_sample_every: 2,
        };
        let pipe = Pipeline::train(config, &data).unwrap();
        let enc = pipe.encode_stream(&data).unwrap();
        assert_eq!(pipe.decode_stream(&enc).unwrap(), data);
    });
}

#[test]
fn pipeline_decoder_survives_payload_mutation() {
    for_each_case(0xC0DE_0009, CASES, |rng| {
        let data = index_payload(rng);
        let pipe = Pipeline::train(PipelineConfig::dsh_udp(), &data).unwrap();
        let mut enc = pipe.encode_stream(&data).unwrap();
        if enc.blocks.is_empty() {
            return;
        }
        let bi = rng.below(enc.blocks.len());
        let block = &mut enc.blocks[bi];
        if block.payload.is_empty() {
            return;
        }
        let pos = rng.below(block.payload.len());
        block.payload[pos] ^= rng.next_u64() as u8 | 1;
        // Either an error or (rarely) an aliased decode of equal length —
        // never a panic or OOB.
        if let Ok(out) = pipe.decode_stream(&enc) {
            assert_eq!(out.len(), data.len());
        }
    });
}

#[test]
fn faulted_streams_decode_ok_or_typed_error() {
    for_each_case(0xC0DE_000A, CASES, |rng| {
        let data = index_payload(rng);
        let config = PipelineConfig {
            delta: true,
            snappy: true,
            huffman: true,
            block_bytes: 256,
            huffman_sample_every: 2,
        };
        let pipe = Pipeline::train(config, &data).unwrap();
        let mut enc = pipe.encode_stream(&data).unwrap();
        let kind = FaultKind::ALL[rng.below(FaultKind::ALL.len())];
        let report = FaultInjector::new(rng.next_u64()).inject(&mut enc, kind);
        // Every outcome is Ok(original) or a typed error — never a panic,
        // never silently wrong bytes.
        match pipe.decode_stream(&enc) {
            Ok(out) => assert_eq!(out, data),
            Err(_) => assert!(report.is_some(), "typed error on an unmutated stream"),
        }
    });
}

#[test]
fn faulted_matrix_decompress_ok_or_typed_error() {
    use recode_sparse::prelude::*;
    for_each_case(0xC0DE_000B, CASES, |rng| {
        let a = generate(
            &GenSpec::ErdosRenyi {
                n: 20 + rng.below(60),
                avg_deg: 4.0,
                values: ValueModel::MixedRepeated { distinct: 4 },
            },
            rng.next_u64(),
        );
        // Small blocks so even small matrices span several of them.
        let cfg = MatrixCodecConfig {
            index: PipelineConfig { block_bytes: 512, ..PipelineConfig::dsh_udp() },
            value: PipelineConfig { block_bytes: 512, ..PipelineConfig::sh_udp() },
        };
        let mut c = CompressedMatrix::compress(&a, cfg).unwrap();
        let stream = if rng.below(2) == 0 { &mut c.index_stream } else { &mut c.value_stream };
        let kind = FaultKind::ALL[rng.below(FaultKind::ALL.len())];
        let report = FaultInjector::new(rng.next_u64()).inject(stream, kind);
        match c.decompress() {
            Ok(b) => assert_eq!(b, a),
            Err(_) => assert!(report.is_some(), "typed error on an unmutated matrix"),
        }
    });
}
