//! Byte pins for the write side: every block the encoder emits — payload,
//! `bit_len`, `uncompressed_len` and checksum — and every Huffman table's
//! code lengths, digested per stream and compared with constants recorded
//! from the bit-at-a-time encoder. A faster encoder must emit these bytes
//! exactly; the decoders and every byte count in `results/` depend on it.

use recode_codec::bitstream::BitWriter;
use recode_codec::pipeline::{CompressedMatrix, MatrixCodecConfig, Pipeline, PipelineConfig};
use recode_codec::{BlockStream, SplitMix64};
use recode_sparse::par;
use recode_sparse::prelude::*;

/// FNV-1a, 64-bit.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn word(&mut self, w: u64) {
        self.bytes(&w.to_le_bytes());
    }
}

/// One stream: its table's code lengths, then every block's payload,
/// `bit_len`, `uncompressed_len` and checksum, in order.
fn stream_digest(stream: &BlockStream, table: Option<&[u8]>) -> u64 {
    let mut h = Fnv::new();
    h.word(table.map_or(u64::MAX, |t| t.len() as u64));
    h.bytes(table.unwrap_or_default());
    h.word(stream.blocks.len() as u64);
    for b in &stream.blocks {
        h.word(b.payload.len() as u64);
        h.bytes(&b.payload);
        h.word(b.bit_len as u64);
        h.word(b.uncompressed_len as u64);
        h.word(u64::from(b.checksum));
    }
    h.0
}

fn banded() -> Csr {
    generate(
        &GenSpec::FemBand {
            n: 3000,
            band: 14,
            fill: 0.55,
            values: ValueModel::MixedRepeated { distinct: 12 },
        },
        42,
    )
}

fn random_valued() -> Csr {
    generate(&GenSpec::ErdosRenyi { n: 4000, avg_deg: 9.0, values: ValueModel::UniformRandom }, 7)
}

fn empty() -> Csr {
    Csr::try_from_parts(3, 5, vec![0; 4], Vec::new(), Vec::new()).expect("empty CSR")
}

/// `(matrix, codec, index digest, value digest)`.
#[allow(clippy::type_complexity)]
const MATRIX_PINS: [(&str, &str, u64, u64); 9] = [
    ("banded", "udp_dsh", 0x2fee_b616_ec92_3c83, 0xfc6f_3ee4_181f_c10d),
    ("banded", "udp_ds", 0xc756_0792_ce1b_fb2d, 0x7732_36e2_440f_ac3e),
    ("banded", "cpu_snappy", 0x8b12_0a1e_34df_4a5f, 0x6429_bcea_d8d3_bb80),
    ("random", "udp_dsh", 0xcf43_19bd_53e2_cd6a, 0xeeef_a8bf_7f2c_a4c4),
    ("random", "udp_ds", 0xbf76_b5f5_bff9_1b6c, 0x57dc_5c18_8101_9dd5),
    ("random", "cpu_snappy", 0x4d6d_96c5_9367_04f0, 0x7b41_81ab_6733_8ad8),
    ("empty", "udp_dsh", 0x1170_8ceb_31b1_982a, 0x1170_8ceb_31b1_982a),
    ("empty", "udp_ds", 0x780d_5836_6969_31dd, 0x780d_5836_6969_31dd),
    ("empty", "cpu_snappy", 0x780d_5836_6969_31dd, 0x780d_5836_6969_31dd),
];

#[test]
fn matrix_streams_are_byte_identical_to_the_recorded_encoder() {
    let mut got = Vec::new();
    for (name, codec, _, _) in MATRIX_PINS {
        let a = match name {
            "banded" => banded(),
            "random" => random_valued(),
            _ => empty(),
        };
        let config = match codec {
            "udp_dsh" => MatrixCodecConfig::udp_dsh(),
            "udp_ds" => MatrixCodecConfig::udp_ds(),
            _ => MatrixCodecConfig::cpu_snappy(),
        };
        let cm = CompressedMatrix::compress(&a, config).expect("compress");
        assert_eq!(cm.decompress().expect("decompress"), a, "{name} {codec}");
        // Called from a worker, the two streams encode one after the other.
        let inline = par::map([(), ()], |_, ()| CompressedMatrix::compress(&a, config))
            .swap_remove(0)
            .expect("compress inline");
        assert_eq!(inline.to_bytes(), cm.to_bytes(), "{name} {codec}: inline");
        for stream in [&cm.index_stream, &cm.value_stream] {
            let short = stream.total_uncompressed % stream.block_bytes;
            if a.nnz() > 0 {
                assert_ne!(short, 0, "{name} {codec}: the last block should be short");
            }
        }
        got.push((
            name,
            codec,
            stream_digest(&cm.index_stream, cm.index_table_lengths.as_deref()),
            stream_digest(&cm.value_stream, cm.value_table_lengths.as_deref()),
        ));
    }
    assert_eq!(got, MATRIX_PINS);
}

/// Bytes whose histogram halves from one byte value to the next, so the
/// trained table runs all the way to the 15-bit length limit.
fn geometric_bytes(len: usize, seed: u64) -> Vec<u8> {
    let mut rng = SplitMix64::new(seed);
    (0..len).map(|_| (rng.next_u64() | 1 << 40).trailing_zeros() as u8).collect()
}

#[test]
fn a_fifteen_bit_table_encodes_byte_identically() {
    const PIN: u64 = 0x4b90_cece_1ac1_d9be;
    let data = geometric_bytes(100_003, 9);
    let config = PipelineConfig { snappy: false, ..PipelineConfig::sh_udp() };
    let pipe = Pipeline::train(config, &data).expect("train");
    let table = pipe.table().expect("huffman stage on");
    assert_eq!(table.lengths.iter().max(), Some(&15), "{:?}", table.lengths);
    let stream = pipe.encode_stream(&data).expect("encode");
    assert_ne!(data.len() % config.block_bytes, 0, "the last block is short");
    assert_eq!(pipe.decode_stream(&stream).expect("decode"), data);
    let got = stream_digest(&stream, Some(&table.lengths));
    assert_eq!(got, PIN);
}

/// The reference: one bit at a time, MSB first, into a growing byte vector.
fn reference_bits(writes: &[(u32, u8)]) -> (Vec<u8>, usize) {
    let mut bytes = Vec::new();
    let mut bits = 0usize;
    for &(code, n) in writes {
        for i in (0..n).rev() {
            if bits.is_multiple_of(8) {
                bytes.push(0);
            }
            let bit = ((code >> i) & 1) as u8;
            *bytes.last_mut().expect("pushed above") |= bit << (7 - bits % 8);
            bits += 1;
        }
    }
    (bytes, bits)
}

#[test]
fn bit_writer_matches_a_bit_at_a_time_reference() {
    const WIDTHS: [u8; 6] = [0, 1, 7, 8, 31, 32];
    let mut rng = SplitMix64::new(0xB175);
    for trial in 0..400 {
        let count = (rng.next_u64() % 40) as usize;
        let writes: Vec<(u32, u8)> = (0..count)
            .map(|_| {
                let r = rng.next_u64();
                let n = if r & 1 == 0 {
                    WIDTHS[(r >> 1) as usize % WIDTHS.len()]
                } else {
                    ((r >> 1) % 33) as u8
                };
                // Bits above `n` are set too: the writer must ignore them.
                (rng.next_u64() as u32, n)
            })
            .collect();
        let mut w = BitWriter::new();
        for &(code, n) in &writes {
            w.write_bits(code, n);
        }
        let want = reference_bits(&writes);
        assert_eq!(w.bit_len(), want.1, "trial {trial}: {writes:?}");
        assert_eq!(w.finish(), want, "trial {trial}: {writes:?}");
    }
    // Every width alone, and each after every misalignment 0..8.
    for lead in 0..8u8 {
        for n in WIDTHS {
            let writes = [(0x5A5A_5A5A, lead), (0xFFFF_FFFF, n), (0b1, 1)];
            let mut w = BitWriter::new();
            for &(code, n) in &writes {
                w.write_bits(code, n);
            }
            assert_eq!(w.finish(), reference_bits(&writes), "lead {lead}, width {n}");
        }
    }
}
