//! Seeded property-based round-trip fuzzing of the DSH codec and its `.rcmx`
//! container. All randomness comes from the same [`SplitMix64`] generator
//! the fault injector uses, so any failure is a reproducible
//! `(MASTER_SEED, case index)` pair.
//!
//! Three identities, ~1k cases total, then the container's reader and the
//! Huffman decoder's fast region:
//!
//! 1. software `Pipeline` encode→decode is the identity on random
//!    CSR-shaped index streams and value payloads (768 cases);
//! 2. the lane `DshDecoder` (real UDP programs on the cycle simulator)
//!    produces byte-identical output to the software decoder (128 cases);
//! 3. `CompressedMatrix` compress→decompress is the identity on random CSR
//!    matrices covering empty rows, dense rows, single-element rows, and
//!    extreme column deltas (128 cases);
//! 4. `to_bytes` → `from_bytes` is the identity on those matrices, and the
//!    reader answers truncation, malformed headers and bit flips with a
//!    typed error, never a panic;
//! 5. `FlatDecoder::{decode_all, decode_exact}` (fast region, then the
//!    one-symbol-at-a-time loop) answer exactly as that loop alone does, on
//!    generated tables and streams cut and flipped around the hand-off.

use recode_codec::faults::SplitMix64;
use recode_codec::huffman::{self, FlatDecoder, HuffmanTable};
use recode_codec::pipeline::{CompressedMatrix, MatrixCodecConfig, Pipeline, PipelineConfig};
use recode_codec::{CodecError, CodecResult};
use recode_sparse::prelude::*;
use recode_udp::progs::DshDecoder;
use recode_udp::Lane;

const MASTER_SEED: u64 = 0x5eed_0001;

/// Row shapes the generator mixes: the structural corner cases the DSH
/// index stream has to survive.
#[derive(Clone, Copy)]
enum RowShape {
    /// No entries at all (row_ptr repeats).
    Empty,
    /// A run of consecutive columns (delta 1 — the stencil fast path).
    Dense,
    /// Exactly one entry at a random column.
    Single,
    /// A few entries scattered across the full column range (deltas up to
    /// ~2^20 — stresses the wide-delta path).
    ExtremeDeltas,
}

const SHAPES: [RowShape; 4] =
    [RowShape::Empty, RowShape::Dense, RowShape::Single, RowShape::ExtremeDeltas];

/// Random CSR with a per-row mix of the four shapes.
fn random_csr(rng: &mut SplitMix64) -> Csr {
    let nrows = 1 + rng.below(32);
    let ncols = 1 << (8 + rng.below(13)); // 256 .. 2^20 columns
    let mut coo = Coo::new(nrows, ncols).expect("coo dims");
    // A small value alphabet most of the time (compressible, like real PDE
    // coefficients), raw random doubles otherwise.
    let palette = [1.0, -4.0, 0.25, 1e-3];
    for row in 0..nrows {
        let shape = SHAPES[rng.below(SHAPES.len())];
        let mut cols: Vec<usize> = match shape {
            RowShape::Empty => Vec::new(),
            RowShape::Dense => {
                let len = 1 + rng.below(24.min(ncols));
                let start = rng.below(ncols - len + 1);
                (start..start + len).collect()
            }
            RowShape::Single => vec![rng.below(ncols)],
            RowShape::ExtremeDeltas => {
                let k = 1 + rng.below(5);
                let mut c: Vec<usize> = (0..k).map(|_| rng.below(ncols)).collect();
                c.sort_unstable();
                c.dedup();
                c
            }
        };
        cols.sort_unstable();
        for col in cols {
            let val = if rng.below(4) == 0 {
                rng.f64() * 2.0 - 1.0
            } else {
                palette[rng.below(palette.len())]
            };
            coo.push(row, col, val).expect("in-bounds push");
        }
    }
    coo.to_csr()
}

/// Random stream payload: 4-byte-aligned little-endian u32 words shaped
/// like a CSR column stream (all four row shapes), over the whole `u32`
/// range the delta stage codes.
fn random_index_payload(rng: &mut SplitMix64) -> Vec<u8> {
    let mut words: Vec<u32> = Vec::new();
    let rows = rng.below(40);
    for _ in 0..rows {
        match SHAPES[rng.below(SHAPES.len())] {
            RowShape::Empty => {}
            RowShape::Dense => {
                let len = 1 + rng.below(32);
                let start = rng.below(1 << 20) as u32;
                words.extend((0..len as u32).map(|k| start + k));
            }
            RowShape::Single => words.push(rng.below(1 << 30) as u32),
            RowShape::ExtremeDeltas => {
                // Deltas that swing across the whole `u32` range.
                let k = 1 + rng.below(4);
                for _ in 0..k {
                    words.push(rng.next_u64() as u32);
                }
            }
        }
    }
    words.iter().flat_map(|w| w.to_le_bytes()).collect()
}

/// Random value-like payload: runs, small alphabets, or raw bytes.
fn random_value_payload(rng: &mut SplitMix64) -> Vec<u8> {
    let len = rng.below(2048) & !3;
    match rng.below(3) {
        0 => vec![rng.below(256) as u8; len],
        1 => (0..len).map(|_| rng.below(6) as u8).collect(),
        _ => (0..len).map(|_| rng.below(256) as u8).collect(),
    }
}

fn small_block_config(rng: &mut SplitMix64) -> PipelineConfig {
    PipelineConfig {
        block_bytes: 256 << rng.below(3), // 256 / 512 / 1024
        ..PipelineConfig::dsh_udp()
    }
}

#[test]
fn software_pipeline_round_trips_random_csr_streams() {
    let mut rng = SplitMix64::new(MASTER_SEED);
    for case in 0..768 {
        let data = if case % 2 == 0 {
            random_index_payload(&mut rng)
        } else {
            random_value_payload(&mut rng)
        };
        let config = small_block_config(&mut rng);
        let pipe = Pipeline::train(config, &data)
            .unwrap_or_else(|e| panic!("case {case}: train failed: {e}"));
        let enc =
            pipe.encode_stream(&data).unwrap_or_else(|e| panic!("case {case}: encode failed: {e}"));
        let dec =
            pipe.decode_stream(&enc).unwrap_or_else(|e| panic!("case {case}: decode failed: {e}"));
        assert_eq!(dec, data, "case {case}: software round trip diverged");
        assert_eq!(enc.total_uncompressed, data.len(), "case {case}: stream header length drifted");
    }
}

#[test]
fn lane_decoder_matches_the_software_pipeline() {
    let mut rng = SplitMix64::new(MASTER_SEED ^ 0xDEC0DE);
    let mut lane = Lane::new();
    for case in 0..128 {
        let mut data = if case % 2 == 0 {
            random_index_payload(&mut rng)
        } else {
            random_value_payload(&mut rng)
        };
        data.truncate(1024); // keep the cycle-level simulation cheap
        data.truncate(data.len() & !3);
        let config = small_block_config(&mut rng);
        let pipe = Pipeline::train(config, &data)
            .unwrap_or_else(|e| panic!("case {case}: train failed: {e}"));
        let enc =
            pipe.encode_stream(&data).unwrap_or_else(|e| panic!("case {case}: encode failed: {e}"));
        let decoder = DshDecoder::new(config, pipe.table().map(|t| t.lengths.as_slice()))
            .unwrap_or_else(|e| panic!("case {case}: decoder build failed: {e}"));
        let mut out = Vec::new();
        for (bi, block) in enc.blocks.iter().enumerate() {
            let res = decoder
                .decode_block(&mut lane, block)
                .unwrap_or_else(|e| panic!("case {case}: lane decode of block {bi} failed: {e}"));
            out.extend(res.output);
        }
        assert_eq!(out, data, "case {case}: lane decoder diverged from encoder input");
    }
}

#[test]
fn compressed_matrix_round_trips_random_csr() {
    let mut rng = SplitMix64::new(MASTER_SEED ^ 0xCC55);
    for case in 0..128 {
        let a = random_csr(&mut rng);
        let cm = CompressedMatrix::compress(&a, small_block_matrix_config())
            .unwrap_or_else(|e| panic!("case {case}: compress failed: {e}"));
        let back =
            cm.decompress().unwrap_or_else(|e| panic!("case {case}: decompress failed: {e}"));
        assert_eq!(back, a, "case {case}: matrix round trip diverged");
        assert_eq!(cm.nnz, a.nnz(), "case {case}: nnz drifted");
    }
}

/// The small-block configuration the matrix properties share, so even tiny
/// matrices span several blocks per stream.
fn small_block_matrix_config() -> MatrixCodecConfig {
    MatrixCodecConfig {
        index: PipelineConfig { block_bytes: 512, ..PipelineConfig::dsh_udp() },
        value: PipelineConfig { block_bytes: 512, ..PipelineConfig::sh_udp() },
    }
}

#[test]
fn rcmx_container_round_trips_random_csr() {
    let mut rng = SplitMix64::new(MASTER_SEED ^ 0x5C3A);
    for case in 0..128 {
        let a = random_csr(&mut rng);
        // Every third case without Huffman: no code-length tables to carry.
        let cfg =
            if case % 3 == 0 { MatrixCodecConfig::udp_ds() } else { small_block_matrix_config() };
        let cm = CompressedMatrix::compress(&a, cfg).unwrap();
        let bytes = cm.to_bytes();
        let back = CompressedMatrix::from_bytes(&bytes)
            .unwrap_or_else(|e| panic!("case {case}: from_bytes failed: {e}"));
        assert_eq!(back.to_bytes(), bytes, "case {case}: container is not a fixed point");
        assert_eq!(
            (back.nrows, back.ncols, back.nnz, &back.row_ptr, back.config),
            (cm.nrows, cm.ncols, cm.nnz, &cm.row_ptr, cm.config),
            "case {case}"
        );
        assert_eq!(back.index_stream, cm.index_stream, "case {case}");
        assert_eq!(back.value_stream, cm.value_stream, "case {case}");
        assert_eq!(back.index_table_lengths, cm.index_table_lengths, "case {case}");
        assert_eq!(back.value_table_lengths, cm.value_table_lengths, "case {case}");
        assert_eq!(back.decompress().unwrap(), a, "case {case}: matrix diverged");
    }
}

#[test]
fn rcmx_reader_rejects_every_truncated_prefix_and_trailing_bytes() {
    let mut rng = SplitMix64::new(MASTER_SEED ^ 0x7A11);
    for case in 0..8 {
        let a = random_csr(&mut rng);
        let bytes = CompressedMatrix::compress(&a, small_block_matrix_config()).unwrap().to_bytes();
        for cut in 0..bytes.len() {
            match CompressedMatrix::from_bytes(&bytes[..cut]) {
                Err(CodecError::Truncated { .. }) => {}
                other => panic!("case {case}: prefix of {cut} bytes gave {other:?}"),
            }
        }
        let mut longer = bytes.clone();
        longer.push(0);
        assert!(
            matches!(CompressedMatrix::from_bytes(&longer), Err(CodecError::Corrupt(_))),
            "case {case}: a trailing byte must be refused"
        );
    }
}

#[test]
fn rcmx_reader_rejects_malformed_headers_without_allocating_for_them() {
    let a = random_csr(&mut SplitMix64::new(MASTER_SEED ^ 0xBAD));
    let good = CompressedMatrix::compress(&a, small_block_matrix_config()).unwrap().to_bytes();
    let patched = |at: usize, with: &[u8]| {
        let mut bytes = good.clone();
        bytes[at..at + with.len()].copy_from_slice(with);
        CompressedMatrix::from_bytes(&bytes)
    };
    let corrupt = |r: CodecResult<CompressedMatrix>| matches!(r, Err(CodecError::Corrupt(_)));
    let truncated =
        |r: CodecResult<CompressedMatrix>| matches!(r, Err(CodecError::Truncated { .. }));
    assert!(corrupt(patched(0, b"RCMY")), "bad magic");
    // Version 1 coded index words as zigzag differences: under a valid CRC
    // its index streams would decode to wrong indices, so it is refused.
    assert!(corrupt(patched(4, &1u32.to_le_bytes())), "a version-1 container");
    assert!(corrupt(patched(4, &3u32.to_le_bytes())), "unknown version");
    assert!(corrupt(CompressedMatrix::from_bytes(b"{\"nrows\": 3}")), "the old JSON container");
    // Lengths no input could back: refused before anything is reserved.
    assert!(truncated(patched(8, &u64::MAX.to_le_bytes())), "nrows = 2^64 - 1");
    assert!(truncated(patched(8, &(1u64 << 40).to_le_bytes())), "nrows = 2^40");
    // row_ptr starts at byte 32; entry 1 above entry 2 breaks monotonicity,
    // a last entry that is not nnz breaks the ramp.
    assert!(a.nrows() >= 2);
    assert!(corrupt(patched(32 + 8, &u64::MAX.to_le_bytes())), "non-monotone row_ptr");
    assert!(corrupt(patched(32, &1u64.to_le_bytes())), "row_ptr[0] != 0");
    assert!(corrupt(patched(24, &(a.nnz() as u64 + 1).to_le_bytes())), "nnz disagrees");
    let configs = 32 + 8 * (a.nrows() + 1);
    assert!(corrupt(patched(configs, &[0xFF])), "unknown stage flags");
    let tables = configs + 2 * 17;
    assert!(corrupt(patched(tables, &[7])), "table marker");
    assert!(truncated(patched(tables + 1, &u64::MAX.to_le_bytes())), "table length overruns");
}

/// A seeded sweep of 1-bit flips over the whole container. Whatever the flip
/// hits, reading and decompressing end in a typed error or a clean `Ok` —
/// never a panic — and a flip anywhere inside a block (header or payload)
/// is always caught, because the block's CRC covers both.
#[test]
fn rcmx_single_bit_flips_never_panic_and_block_flips_never_pass() {
    let mut rng = SplitMix64::new(MASTER_SEED ^ 0xF11B);
    for case in 0..4 {
        let a = random_csr(&mut rng);
        let cm = CompressedMatrix::compress(&a, small_block_matrix_config()).unwrap();
        let bytes = cm.to_bytes();
        // Byte ranges of the blocks: everything after a stream's 24-byte
        // header, up to the next stream.
        let value_len =
            24 + cm.value_stream.blocks.iter().map(|b| 32 + b.payload.len()).sum::<usize>();
        let index_len =
            24 + cm.index_stream.blocks.iter().map(|b| 32 + b.payload.len()).sum::<usize>();
        let value_blocks = bytes.len() - value_len + 24..bytes.len();
        let index_blocks = bytes.len() - value_len - index_len + 24..bytes.len() - value_len;
        // Every bit of the fixed header and row_ptr, then a seeded sample
        // of the rest.
        let dense = (32 + 8 * cm.row_ptr.len() + 64).min(bytes.len()) * 8;
        let flips = (0..dense).chain((0..4096).map(|_| rng.below(bytes.len() * 8)));
        for bit in flips {
            let mut flipped = bytes.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            let outcome = CompressedMatrix::from_bytes(&flipped).and_then(|cm| cm.decompress());
            let in_block = index_blocks.contains(&(bit / 8)) || value_blocks.contains(&(bit / 8));
            if in_block {
                assert!(outcome.is_err(), "case {case}: flip of bit {bit} inside a block passed");
            } else if let Ok(b) = outcome {
                // Outside the blocks only fields decode never reads
                // (`huffman_sample_every`, high `ncols` bits) can pass.
                assert_eq!(b.nnz(), a.nnz(), "case {case}: flip of bit {bit}");
            }
        }
    }
}

/// A Kraft-complete length table with `n` coded symbols: a code tree grown
/// by splitting one leaf at a time — mostly the newest one when `deep`,
/// which keeps a 1-bit code and reaches 15 bits — with the codes on random
/// byte values.
fn grown_lengths(rng: &mut SplitMix64, n: usize, deep: bool) -> Vec<u8> {
    let mut depths = vec![1u8, 1];
    while depths.len() < n {
        let pick =
            if deep && rng.below(4) != 0 { depths.len() - 1 } else { rng.below(depths.len()) };
        if depths[pick] < 15 {
            depths[pick] += 1;
            depths.push(depths[pick]);
        }
    }
    let mut symbols: Vec<usize> = (0..256).collect();
    let mut lengths = vec![0u8; 256];
    for d in depths {
        lengths[symbols.swap_remove(rng.below(symbols.len()))] = d;
    }
    lengths
}

/// `n` coded symbols: each equally likely when `uniform` (long codes turn up
/// as often as short ones), else with the probabilities the lengths imply.
fn draw_symbols(rng: &mut SplitMix64, lengths: &[u8], n: usize, uniform: bool) -> Vec<u8> {
    let weight = |l: u8| match l {
        0 => 0,
        _ if uniform => 1,
        _ => 1usize << (15 - l),
    };
    let total: usize = lengths.iter().map(|&l| weight(l)).sum();
    (0..n)
        .map(|_| {
            let mut r = rng.below(total);
            let mut s = 0;
            while r >= weight(lengths[s]) {
                r -= weight(lengths[s]);
                s += 1;
            }
            s as u8
        })
        .collect()
}

/// The fast region of `FlatDecoder` stops at "fewer than 64 bits past the
/// window", at an invalid window and at the symbol budget, and the
/// one-symbol-at-a-time loop takes over mid-byte. Whatever the table and
/// wherever the stream ends, is damaged or the budget lands, both entry
/// points must answer exactly as that loop alone does — `Debug`-equal, error
/// payloads included.
#[test]
fn huffman_fast_region_hands_off_exactly_like_the_scalar_loop() {
    fn agree(fd: &FlatDecoder, bytes: &[u8], bits: usize, expected: &[usize], what: &str) {
        let (fast, scalar) = (fd.decode_all(bytes, bits), fd.decode_all_scalar(bytes, bits));
        assert_eq!(format!("{fast:?}"), format!("{scalar:?}"), "{what}: decode_all");
        for &n in expected {
            let fast = fd.decode_exact(bytes, bits, n);
            let scalar = fd.decode_exact_scalar(bytes, bits, n);
            assert_eq!(format!("{fast:?}"), format!("{scalar:?}"), "{what}: decode_exact({n})");
        }
    }

    let mut rng = SplitMix64::new(MASTER_SEED ^ 0xFA57);
    // The corners first: one symbol on a 1-bit code (every window that starts
    // with a 1 is invalid), 256 codes of 15 bits (nearly every window is), no
    // code at all, and a complete table that is mostly 15-bit codes (a chain
    // of 1..=8 bits over 128 of them: the window is short of a whole code as
    // often as can be); then grown trees, shallow and deep.
    let mut single = vec![0u8; 256];
    single[0x5A] = 1;
    let mut long_codes = vec![0u8; 256];
    long_codes[..8].copy_from_slice(&[1, 2, 3, 4, 5, 6, 7, 8]);
    long_codes[128..].fill(15);
    let mut tables = vec![single, vec![15u8; 256], vec![0u8; 256], long_codes];
    for case in 0..14 {
        let n = [2, 3, 17, 64, 256][case % 5];
        tables.push(grown_lengths(&mut rng, n, case % 2 == 1));
    }
    let mut shortest_codes = std::collections::BTreeSet::new();
    for (ti, lengths) in tables.iter().enumerate() {
        let table = HuffmanTable::from_lengths(lengths.clone()).expect("lengths satisfy Kraft");
        let fd = FlatDecoder::build(&table);
        shortest_codes.insert(fd.min_code_len());
        // Streams shorter than one refill, a few refills long, and long
        // enough that the budget can land deep inside the region.
        for symbols in [rng.below(8), 8 + rng.below(40), 200 + rng.below(200)] {
            let (bytes, bits) = if fd.min_code_len() == 0 {
                ((0..symbols).map(|_| rng.below(256) as u8).collect(), symbols * 8)
            } else {
                let data = draw_symbols(&mut rng, lengths, symbols, symbols % 2 == 0);
                huffman::encode(&data, &table).expect("every drawn symbol has a code")
            };
            let what = format!("table {ti}, {symbols} symbols, {bits} bits");
            // Budgets inside the region, inside the tail, exact, past the end.
            let budgets =
                [0, symbols / 2, symbols.saturating_sub(2), symbols, symbols + 1, symbols + 9];
            agree(&fd, &bytes, bits, &budgets, &what);
            agree(&fd, &bytes, bytes.len() * 8 + 1, &budgets[3..4], &format!("{what}, overlong"));
            // Cut at every bit of the last 80, with and without the bytes
            // behind the cut (the reader must mask them).
            for cut in bits.saturating_sub(80)..bits {
                let kept = if cut % 2 == 0 { &bytes[..cut.div_ceil(8)] } else { &bytes[..] };
                agree(&fd, kept, cut, &budgets[2..5], &format!("{what}, cut at {cut}"));
            }
            // Single-bit flips: every bit of the last 80, a sample before.
            let sampled: Vec<usize> = (0..32).map(|_| rng.below(bits.max(1))).collect();
            for bit in (bits.saturating_sub(80)..bits).chain(sampled) {
                let mut flipped = bytes.clone();
                if let Some(byte) = flipped.get_mut(bit / 8) {
                    *byte ^= 0x80 >> (bit % 8);
                }
                agree(&fd, &flipped, bits, &budgets[3..4], &format!("{what}, bit {bit} flipped"));
            }
        }
    }
    assert!(
        shortest_codes.contains(&1) && shortest_codes.contains(&15) && shortest_codes.len() >= 5,
        "the generated tables must span the shortest-code range: {shortest_codes:?}"
    );
}
