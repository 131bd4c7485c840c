//! The Snappy and inverse-delta lane programs, path by path (ISSUE 18).
//!
//! Both programs decide at construction time whatever their input's tags
//! and lengths already say, so they have many short paths instead of a few
//! loops. This suite pins two things about them:
//!
//! * **the cost table** — a closed form written from DESIGN §11's table,
//!   with no simulator in it, must equal the modeled cycles of every run:
//!   on `snappy::compress` output of the three generator shapes and of random
//!   data, and on every hand-built stream below;
//! * **every path** — hand-built streams visit all 256 tags, every copy
//!   length at every offset tier (run extension included), every literal
//!   length and the extended lengths on both sides of a loop trip, and a cut
//!   inside every operand; inverse delta gets every word count around its
//!   four-word trip, the guard that skips its quad loop, every bit length of
//!   a valid stream, a ragged tail, the sums that wrap, and indices across
//!   2^31 through the whole DSH chain.
//!
//! Every run goes through all three tiers (`common::differential`): output,
//! cycles, opclass attribution and traps agree exactly, under the JIT and
//! under `RECODE_NO_JIT=1`.

mod common;

use common::{differential, differential_on};
use recode_codec::pipeline::{Pipeline, PipelineConfig};
use recode_codec::{delta, snappy};
use recode_sparse::gen::{generate, GenSpec, ValueModel};
use recode_sparse::util::SplitMix64;
use recode_udp::lane::{Lane, LaneError, RunConfig};
use recode_udp::machine::Image;
use recode_udp::progs;

// ---------------------------------------------------------------------------
// Snappy: the cost table
// ---------------------------------------------------------------------------

/// One element of a Snappy stream.
#[derive(Debug, Clone, Copy)]
enum Element {
    /// `length_bytes` is 0 when the tag holds the length.
    Literal { len: usize, length_bytes: usize },
    /// `offset_bytes` is 1, 2 or 4: `copy1`, `copy2`, `copy4`.
    Copy { offset_bytes: usize, len: usize, offset: usize },
}

/// Splits a well-formed stream into its preamble's byte count and elements.
fn parse(stream: &[u8]) -> (usize, Vec<Element>) {
    let le = |bytes: &[u8]| bytes.iter().rev().fold(0usize, |v, &b| v << 8 | usize::from(b));
    let preamble = stream.iter().position(|b| b & 0x80 == 0).map_or(stream.len(), |p| p + 1);
    let (mut pos, mut elements) = (preamble, Vec::new());
    while pos < stream.len() {
        let tag = usize::from(stream[pos]);
        pos += 1;
        let operand = match tag & 3 {
            0 => (tag >> 2).saturating_sub(59),
            1 => 1,
            2 => 2,
            _ => 4,
        };
        let value = le(&stream[pos..pos + operand]);
        pos += operand;
        elements.push(match tag & 3 {
            0 if operand == 0 => Element::Literal { len: (tag >> 2) + 1, length_bytes: 0 },
            0 => Element::Literal { len: value + 1, length_bytes: operand },
            1 => Element::Copy {
                offset_bytes: 1,
                len: (tag >> 2 & 7) + 4,
                offset: tag >> 5 << 8 | value,
            },
            _ => Element::Copy { offset_bytes: operand, len: (tag >> 2) + 1, offset: value },
        });
        if let Some(Element::Literal { len, .. }) = elements.last() {
            pos += len;
        }
    }
    (preamble, elements)
}

/// A block of its own holding `actions` (the handler's, or none) and then as
/// many moves of a `len`-byte chain, none wider than `widest`, as its free
/// slots hold; the rest of the chain two moves to a shared block. Two cycles
/// a move (fetch, store), one an action, one a block. The last block's
/// transition is the next tag's dispatch: with no move at all, the block
/// itself dispatches.
fn head(actions: usize, len: usize, widest: usize) -> u64 {
    let (mut moves, mut left) = (0, len);
    for width in [8, 4, 1] {
        if width <= widest {
            moves += left / width;
            left %= width;
        }
    }
    let here = ((4 - actions) / 2).min(moves);
    (actions + 2 * moves + 1 + (moves - here).div_ceil(2)) as u64
}

/// A chain of its own: `2m + ⌈m/2⌉` cycles for `m` moves, 1 for none.
fn chain(len: usize, widest: usize) -> u64 {
    head(0, len, widest)
}

/// A copy of `len >= 4` bytes entered through its length's tier test.
fn tiers(len: usize, offset: usize) -> u64 {
    let test8 = u64::from(len >= 8);
    if len >= 8 && offset >= 8 {
        return test8 + chain(len, 8);
    }
    test8
        + 1
        + match (offset >= 4, len <= 16) {
            // The byte loop: a limit (2), three cycles a byte, and `main`,
            // its fall-through, which dispatches (1).
            (false, _) => 2 + 3 * len as u64 + 1,
            (true, true) => chain(len, 4),
            // A limit (2), five cycles a trip of 8, the dispatch (2), the rest.
            (true, false) => 2 + 5 * (len / 8) as u64 + 2 + chain(len % 8, 4),
        }
}

/// DESIGN §11's per-element cost: every handler starts with the tag's
/// `skip 8`, and every element ends in the next tag's dispatch.
fn element_cycles(e: Element) -> u64 {
    match e {
        // Tag 0x00 sits behind window 0's `guard` (inrem, jump: 2) and `chk`
        // (the branch: 1).
        Element::Literal { len: 1, length_bytes: 0 } => 3 + head(1, 1, 8),
        Element::Literal { len, length_bytes: 0 } => head(1, len, 8),
        // Handler (5), test (1), five cycles a trip of 16, the dispatch (2).
        Element::Literal { len, .. } => 5 + 1 + 5 * (len / 16) as u64 + 2 + chain(len % 16, 8),
        // Skip, offset and source are three actions: no room for a move.
        Element::Copy { offset_bytes: 2 | 4, len: len @ 1..=3, .. } => head(3, len, 1),
        Element::Copy { offset_bytes: 2 | 4, len, offset } => 4 + tiers(len, offset),
        // `copy1` adds its tag's offset bits 1024 at a time, and with any of
        // them set knows the offset is wide; a second `addi` (offset 1280 and
        // up) does not fit beside the rest and takes a block of its own.
        Element::Copy { len, offset, .. } => match (offset >> 8 << 8).div_ceil(1024) as u64 {
            0 => 4 + tiers(len, offset),
            adds => 4 + adds + u64::from(adds == 2) + chain(len, 8),
        },
    }
}

/// Modeled cycles of the Snappy program on `stream`, by the table alone.
fn snappy_cycles(stream: &[u8]) -> u64 {
    let (preamble, elements) = parse(stream);
    // init (5), a test and a read (2 + 3) per preamble byte, and the first
    // tag's dispatch (1) — behind one more test (2) when the stream ran out
    // inside the preamble; at the end window 0's `guard` and `chk` (3) and
    // done (2).
    let terminated = stream[..preamble].last().is_some_and(|b| b & 0x80 == 0);
    let fixed = 5 + 5 * preamble as u64 + if terminated { 1 } else { 3 } + 3 + 2;
    fixed + elements.into_iter().map(element_cycles).sum::<u64>()
}

/// The Snappy preamble: `n` as a little-endian base-128 varint.
fn varint(mut n: usize) -> Vec<u8> {
    let mut out = Vec::new();
    while n >= 0x80 {
        out.push(n as u8 | 0x80);
        n >>= 7;
    }
    out.push(n as u8);
    out
}

/// Runs `stream` three ways and against the software decoder: the same bytes
/// in the table's cycles, or a trap where the software decoder fails too.
fn check_snappy(image: &Image, stream: &[u8], context: &str) {
    check_snappy_bits(image, stream, stream.len() * 8, context);
}

/// [`check_snappy`] on the first `bits` bits of `stream`; the software
/// decoder sees every byte of it.
fn check_snappy_bits(image: &Image, stream: &[u8], bits: usize, context: &str) {
    let run = differential(image, stream, bits, RunConfig::default(), context);
    match (run, snappy::decompress(stream)) {
        (Ok(r), Ok(want)) => {
            assert_eq!(r.output, want, "{context}: output");
            assert_eq!(r.cycles, snappy_cycles(stream), "{context}: cycles off the cost table");
        }
        // The lane does not read the declared length: a stream that ends on
        // an element boundary, or inside its preamble, halts short, and
        // `decode_block_into`'s length check refuses the block. The software
        // decoder may object to nothing else: the same elements under a
        // preamble that declares what they hold decode to the lane's bytes.
        (Ok(r), Err(_)) => {
            assert_eq!(bits, stream.len() * 8, "{context}: stray bits ran clean");
            let (preamble, _) = parse(stream);
            let mut framed = varint(r.output.len());
            framed.extend(&stream[preamble..]);
            let want = snappy::decompress(&framed);
            assert_eq!(want.ok().as_ref(), Some(&r.output), "{context}: a short stream's bytes");
            assert_eq!(r.cycles, snappy_cycles(stream), "{context}: cycles off the cost table");
        }
        (Err(LaneError::StreamUnderflow { .. }), Err(_)) => {}
        (run, want) => panic!("{context}: lane {run:?}, software {want:?}"),
    }
}

// ---------------------------------------------------------------------------
// Snappy: stream builders
// ---------------------------------------------------------------------------

fn random_bytes(rng: &mut SplitMix64, n: usize) -> Vec<u8> {
    (0..n).map(|_| rng.next_u64() as u8).collect()
}

/// A stream under construction: elements, and the bytes they decode to (for
/// the preamble, and so that a copy can be checked against its history).
#[derive(Default)]
struct Stream {
    elements: Vec<u8>,
    decoded: usize,
}

impl Stream {
    /// A stream that opens with `history` random bytes for copies to reach.
    fn with_history(rng: &mut SplitMix64, history: usize) -> Stream {
        let mut s = Stream::default();
        s.literal(&random_bytes(rng, history), 0);
        s
    }

    /// A literal of `data`, its length in the tag (`length_bytes == 0`, at
    /// most 60 bytes) or in `length_bytes` bytes behind it.
    fn literal(&mut self, data: &[u8], length_bytes: usize) {
        // Lengths the tag cannot hold take the fewest bytes that can.
        let needed = (1..=4).find(|&n| data.len() - 1 < 1 << (8 * n)).unwrap();
        let length_bytes = if length_bytes == 0 && data.len() > 60 { needed } else { length_bytes };
        if length_bytes == 0 {
            self.elements.push(((data.len() - 1) << 2) as u8);
        } else {
            assert!(length_bytes >= needed);
            self.elements.push(((59 + length_bytes) << 2) as u8);
            self.elements.extend(&(data.len() as u32 - 1).to_le_bytes()[..length_bytes]);
        }
        self.elements.extend(data);
        self.decoded += data.len();
    }

    /// A copy with its offset in `offset_bytes` (1, 2 or 4) bytes.
    fn copy(&mut self, offset_bytes: usize, len: usize, offset: usize) {
        assert!((1..=self.decoded).contains(&offset), "offset {offset} of {}", self.decoded);
        match offset_bytes {
            1 => {
                assert!((4..=11).contains(&len) && offset < 2048);
                self.elements.push((offset >> 8 << 5 | (len - 4) << 2 | 1) as u8);
                self.elements.push(offset as u8);
            }
            n => {
                assert!((1..=64).contains(&len) && (n == 4 || offset < 1 << 16));
                self.elements.push(((len - 1) << 2 | if n == 2 { 2 } else { 3 }) as u8);
                self.elements.extend(&(offset as u32).to_le_bytes()[..n]);
            }
        }
        self.decoded += len;
    }

    /// Preamble and elements.
    fn bytes(&self) -> Vec<u8> {
        let mut out = varint(self.decoded);
        out.extend(&self.elements);
        out
    }
}

// ---------------------------------------------------------------------------
// Snappy: the tests
// ---------------------------------------------------------------------------

/// Index and value streams of one matrix of each generator shape the
/// benchmark runs (stencil, power-law graph, FEM band), cut into 8 KiB blocks
/// the way the pipeline cuts them, plus random and constant blocks.
#[test]
fn compressed_blocks_cost_what_the_table_says() {
    let image = progs::snappy::build().unwrap();
    let specs = [
        GenSpec::Stencil3D { nx: 14, ny: 14, nz: 14, points: 7, values: ValueModel::StencilCoeffs },
        GenSpec::Rmat { scale: 10, edge_factor: 8, values: ValueModel::UniformRandom },
        GenSpec::FemBand {
            n: 1500,
            band: 24,
            fill: 0.4,
            values: ValueModel::MixedRepeated { distinct: 24 },
        },
    ];
    let mut blocks = 0;
    for spec in &specs {
        let a = generate(spec, 42);
        let indices = delta::encode_u32(a.col_idx()).unwrap();
        let values: Vec<u8> = a.values().iter().flat_map(|v| v.to_le_bytes()).collect();
        for (what, bytes) in [("indices", indices), ("values", values)] {
            for (i, block) in bytes.chunks(8192).enumerate() {
                let context = format!("{} {what} block {i}", spec.family());
                check_snappy(&image, &snappy::compress(block), &context);
                blocks += 1;
            }
        }
    }
    assert!(blocks > 40, "{blocks} blocks");
    let mut rng = SplitMix64::new(0x5EED_0018);
    for len in [0, 1, 59, 60, 61, 4096, 8192] {
        check_snappy(&image, &snappy::compress(&random_bytes(&mut rng, len)), "random");
        check_snappy(&image, &snappy::compress(&vec![7; len]), "constant");
    }
}

/// Every tag value once, behind enough history for the widest `copy1`
/// offset, with an offset in each tier the tag can express.
#[test]
fn every_tag_decodes_and_costs_what_the_table_says() {
    let image = progs::snappy::build().unwrap();
    let mut rng = SplitMix64::new(0x7A65);
    for tag in 0..=255usize {
        let (field, low) = (tag >> 2, tag & 3);
        let offsets: &[usize] = match low {
            0 => &[0],
            1 => &[1, 3, 4, 7, 8, 200],
            _ => &[1, 2, 3, 4, 5, 7, 8, 9, 64, 2047],
        };
        for &offset in offsets {
            let mut s = Stream::with_history(&mut rng, 2048);
            match low {
                0 if field < 60 => s.literal(&random_bytes(&mut rng, field + 1), 0),
                0 => s.literal(&random_bytes(&mut rng, 30 * (field - 59) + 3), field - 59),
                // `copy1`'s tag holds three offset bits of its own.
                1 => s.copy(1, (field & 7) + 4, ((field >> 3) << 8) | (offset % 256)),
                2 => s.copy(2, field + 1, offset),
                _ => s.copy(4, field + 1, offset),
            }
            let stream = s.bytes();
            let elements = parse(&stream).1;
            assert_eq!(stream[stream.len() - bytes_of(elements[1])], tag as u8, "tag {tag}");
            // A literal behind the element: its chain dispatched the next tag.
            s.literal(b"end", 0);
            check_snappy(&image, &s.bytes(), &format!("tag {tag:#04x} offset {offset}"));
        }
    }
}

/// The streams whose end is the question: only tag window 0 asks for it, so
/// a stream of nothing but 0x00 tags asks on every element; a preamble with
/// no element behind it, whole or cut short, asks at once; and whatever is
/// left after the last element — a bare 0x00 tag, or 1 to 7 stray bits of
/// any value — reaches a handler with too few bits and underflows there, as
/// the software decoder fails on the byte.
#[test]
fn streams_that_end_at_tag_window_zero() {
    let image = progs::snappy::build().unwrap();
    let mut rng = SplitMix64::new(0x2E80);
    let mut zeros = Stream::default();
    for _ in 0..300 {
        zeros.literal(&random_bytes(&mut rng, 1), 0);
    }
    // Data bytes of 0x00 too: a one-byte literal of zero is two zero bytes.
    for _ in 0..50 {
        zeros.literal(&[0], 0);
    }
    check_snappy(&image, &zeros.bytes(), "only 0x00 tags");
    for (preamble, what) in [
        (vec![], "an empty stream"),
        (varint(0), "a preamble of 0"),
        (varint(5000), "a preamble of 5000 and nothing behind it"),
        (vec![0x80], "a preamble cut after one byte"),
        (vec![0xFF; 3], "a preamble cut after three bytes"),
    ] {
        check_snappy(&image, &preamble, what);
    }
    let mut s = Stream::with_history(&mut rng, 100);
    s.copy(1, 8, 40);
    let whole = s.bytes();
    for last in [0x00, 0x01, 0x04, 0xF0, 0xFF] {
        let mut stream = whole.clone();
        stream.push(last);
        check_snappy(&image, &stream, &format!("a bare trailing tag {last:#04x}"));
        for stray in 1..8 {
            let bits = whole.len() * 8 + stray;
            let context = format!("{stray} stray bits of {last:#04x}");
            check_snappy_bits(&image, &stream, bits, &context);
        }
    }
}

/// A compressed block of a `fem_ds`-shaped matrix — delta-coded column
/// indices and repeated values — cut on every element boundary: each prefix
/// halts short in the table's cycles with the bytes its elements hold, which
/// `decode_block_into` then refuses for their length.
#[test]
fn a_cut_on_every_element_boundary_halts_short() {
    let image = progs::snappy::build().unwrap();
    let spec = GenSpec::FemBand {
        n: 1500,
        band: 24,
        fill: 0.4,
        values: ValueModel::MixedRepeated { distinct: 64 },
    };
    let a = generate(&spec, 25);
    let indices = delta::encode_u32(a.col_idx()).unwrap();
    let values: Vec<u8> = a.values().iter().flat_map(|v| v.to_le_bytes()).collect();
    for (what, bytes) in [("indices", &indices[..8192]), ("values", &values[..8192])] {
        let stream = snappy::compress(bytes);
        let (preamble, elements) = parse(&stream);
        assert!(elements.len() > 100, "{what}: {} elements", elements.len());
        let mut cut = preamble;
        for (i, &e) in elements.iter().enumerate() {
            let context = format!("{what} cut behind {i} of {} elements", elements.len());
            check_snappy(&image, &stream[..cut], &context);
            cut += bytes_of(e);
        }
        assert_eq!(cut, stream.len());
        check_snappy(&image, &stream, what);
    }
}

/// Stream bytes of one element: tag, operand, and a literal's data.
fn bytes_of(e: Element) -> usize {
    match e {
        Element::Literal { len, length_bytes } => 1 + length_bytes + len,
        Element::Copy { offset_bytes, .. } => 1 + offset_bytes,
    }
}

/// Every copy length at every offset tier — 1, 2, 3 (the byte loop, which is
/// run extension whenever the offset is below the length), 4..=7, and 8 up —
/// with the tier edges 4 and 8, and offsets on both sides of each length.
#[test]
fn every_copy_length_at_every_offset_tier() {
    let image = progs::snappy::build().unwrap();
    let mut rng = SplitMix64::new(0xC0B1);
    for len in 1..=64usize {
        let mut offsets = vec![1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 63, 64, 65, 300];
        offsets.extend([len.saturating_sub(1).max(1), len, len + 1]);
        let mut s = Stream::with_history(&mut rng, 320);
        for &offset in &offsets {
            for offset_bytes in [2, 4] {
                s.copy(offset_bytes, len, offset);
            }
            if (4..=11).contains(&len) {
                s.copy(1, len, offset);
            }
            // Fresh bytes between copies, so a run does not feed the next.
            s.literal(&random_bytes(&mut rng, 5), 0);
        }
        check_snappy(&image, &s.bytes(), &format!("copy length {len}"));
    }
}

/// Every literal length a tag holds, and extended lengths in 1..=4 length
/// bytes around the loop's 16-byte trip: none, one and several whole trips,
/// with every number of bytes left behind them.
#[test]
fn every_literal_length_short_and_extended() {
    let image = progs::snappy::build().unwrap();
    let mut rng = SplitMix64::new(0x117E);
    let mut s = Stream::default();
    for len in 1..=60 {
        s.literal(&random_bytes(&mut rng, len), 0);
    }
    check_snappy(&image, &s.bytes(), "literal lengths 1..=60");
    for length_bytes in 1..=4 {
        let mut s = Stream::default();
        for len in (1..=50).chain([61, 63, 64, 65, 255, 256, 257, 1000]) {
            s.literal(&random_bytes(&mut rng, len), length_bytes.max(1 + usize::from(len > 256)));
        }
        check_snappy(&image, &s.bytes(), &format!("{length_bytes}-byte literal lengths"));
    }
    // One block-sized literal: the loop at its steady state.
    let mut s = Stream::default();
    s.literal(&random_bytes(&mut rng, 8192), 2);
    check_snappy(&image, &s.bytes(), "an 8 KiB literal");
}

/// A cut anywhere inside an element — its operand, or a literal's data — is
/// a stream underflow on the lane and an error in software, identically on
/// all three tiers. A cut between elements is a shorter stream, which the
/// lane decodes (the block framing, not the lane, knows the length).
#[test]
fn a_cut_inside_any_operand_underflows() {
    type Last = fn(&mut Stream, &mut SplitMix64);
    let image = progs::snappy::build().unwrap();
    let mut rng = SplitMix64::new(0xC07);
    let lasts: [(&str, Last); 7] = [
        ("literal 13", |s, rng| s.literal(&random_bytes(rng, 13), 0)),
        ("literal 60", |s, rng| s.literal(&random_bytes(rng, 60), 0)),
        ("literal 70, 1 length byte", |s, rng| s.literal(&random_bytes(rng, 70), 1)),
        ("literal 9, 4 length bytes", |s, rng| s.literal(&random_bytes(rng, 9), 4)),
        ("copy1", |s, _| s.copy(1, 8, 300)),
        ("copy2", |s, _| s.copy(2, 33, 5)),
        ("copy4", |s, _| s.copy(4, 64, 100)),
    ];
    for (name, last) in lasts {
        let mut s = Stream::with_history(&mut rng, 400);
        let before = s.bytes().len();
        last(&mut s, &mut rng);
        let stream = s.bytes();
        for cut in before + 1..stream.len() {
            let context = format!("{name} cut at {} of {}", cut - before, stream.len() - before);
            let cfg = RunConfig::default();
            let run = differential(&image, &stream[..cut], cut * 8, cfg, &context);
            assert!(matches!(run, Err(LaneError::StreamUnderflow { .. })), "{context}: {run:?}");
            assert!(snappy::decompress(&stream[..cut]).is_err(), "{context}");
        }
        let whole = differential(&image, &stream[..before], before * 8, RunConfig::default(), name);
        assert_eq!(whole.unwrap().output.len(), 400, "{name}: a cut between elements");
    }
}

// ---------------------------------------------------------------------------
// Inverse delta
// ---------------------------------------------------------------------------

/// Modeled cycles of the inverse-delta program on `words` whole input words,
/// `q` whole quads and `r` words left: init's limit (a block of four actions,
/// 5) and its sum and guard (3), `tail`'s test (2) and done (2). With any
/// quad the guard falls through to the loop (1), which costs four words in
/// three blocks a trip (15) and falls through to `tail` (1). Each word left
/// is `tail`'s one-word body (4) and its test again (2).
fn delta_cycles(words: usize) -> u64 {
    let (q, r) = ((words / 4) as u64, (words % 4) as u64);
    let loop_cycles = if q > 0 { 1 + 15 * q + 1 } else { 0 };
    8 + 2 + 2 + loop_cycles + 6 * r
}

/// Encodes `indices` as wrapping differences by hand, and checks that the
/// codec writes the same words, that the lane decodes them three ways to the
/// indices, as the software decoder does, and in the table's cycles.
fn check_delta(image: &Image, indices: &[u32], context: &str) {
    let mut stream = Vec::new();
    let mut prev = 0u32;
    for &index in indices {
        stream.extend(index.wrapping_sub(prev).to_le_bytes());
        prev = index;
    }
    assert_eq!(stream, delta::encode_u32(indices).unwrap(), "{context}: codec words");
    let r = differential(image, &stream, stream.len() * 8, RunConfig::default(), context).unwrap();
    let want: Vec<u8> = indices.iter().flat_map(|w| w.to_le_bytes()).collect();
    assert_eq!(r.output, want, "{context}: output");
    assert_eq!(delta::decode_bytes(&stream).unwrap(), want, "{context}: software");
    assert_eq!(r.cycles, delta_cycles(indices.len()), "{context}: cycles off the cost table");
}

/// The paths around the quad loop, by name: no word leaves `init` through
/// the guard and finds `tail` empty; one to three take the guard and then
/// `tail`'s one-word body once a word; four make the loop's first and only
/// trip; five add a tail word behind it; an 8 KiB block is 512 trips.
#[test]
fn delta_guard_path_and_first_trip() {
    let image = progs::delta::build().unwrap();
    for (words, cycles, what) in [
        (0, 12, "no word: the guard skips the loop, tail finds nothing"),
        (1, 12 + 6, "one word: the guard, then tail's one-word body"),
        (2, 12 + 2 * 6, "two words: tail's body twice"),
        (3, 12 + 3 * 6, "three words: tail's body three times"),
        (4, 14 + 15, "four words: one trip"),
        (5, 14 + 15 + 6, "five words: one trip and a tail word"),
        (2048, 7_694, "2048 words: 512 trips"),
    ] {
        let indices: Vec<u32> = (0..words as u32).map(|i| 7 + 5 * i - 11 * (i % 2)).collect();
        assert_eq!(delta_cycles(words), cycles, "{what}");
        check_delta(&image, &indices, what);
    }
}

/// A valid 17-word stream — four trips and a tail word — cut at every bit
/// length from 0 to 544: a whole number of words decodes to that many indices
/// in the table's cycles, and anything else underflows in the one-word
/// `insymle` (it wants a byte and finds the ragged bits) identically on all
/// three tiers. Wherever the cut is whole bytes, the software decoder agrees.
#[test]
fn delta_every_bit_length_of_a_valid_stream() {
    let image = progs::delta::build().unwrap();
    let indices = [
        40u32,
        41,
        45,
        44,
        100,
        7,
        7,
        8,
        1 << 30,
        3,
        u32::MAX,
        0,
        1 << 31,
        (1 << 31) - 1,
        12,
        11,
        9_000_000,
    ];
    let stream = delta::encode_u32(&indices).unwrap();
    assert_eq!(stream.len() * 8, 544);
    let mut lanes = [Lane::new(), Lane::new(), Lane::new()];
    for bits in 0..=544usize {
        let input = &stream[..bits.div_ceil(8)];
        let context = format!("{bits} of 544 bits");
        let run = differential_on(&mut lanes, &image, input, bits, RunConfig::default(), &context);
        let words = bits / 32;
        let want: Vec<u8> = indices[..words].iter().flat_map(|w| w.to_le_bytes()).collect();
        match run {
            Ok(r) if bits % 32 == 0 => {
                assert_eq!(r.output, want, "{context}: output");
                assert_eq!(r.cycles, delta_cycles(words), "{context}: cycles off the cost table");
            }
            Err(LaneError::StreamUnderflow { wanted: 8, available }) if bits % 32 != 0 => {
                assert_eq!(available, bits % 8, "{context}");
            }
            run => panic!("{context}: {run:?}"),
        }
        if bits % 8 == 0 {
            let software = delta::decode_bytes(input);
            assert_eq!(software.ok(), (bits % 32 == 0).then_some(want), "{context}: software");
        }
    }
}

/// Every word count around the four-word trip, and a delta of either sign at
/// each of the four word positions of a trip: all 16 sign patterns of the
/// second trip, behind a first and ahead of a tail word.
#[test]
fn delta_word_counts_and_lane_signs() {
    let image = progs::delta::build().unwrap();
    let mut rng = SplitMix64::new(0xDE17A);
    for words in (0..=9).chain([64, 65, 66, 67, 2047, 2048]) {
        let indices: Vec<u32> = (0..words).map(|_| rng.next_u64() as u32).collect();
        check_delta(&image, &indices, &format!("{words} random words"));
        let climbing: Vec<u32> = (0..words as u32).map(|i| 1000 + 3 * i).collect();
        check_delta(&image, &climbing, &format!("{words} climbing words"));
    }
    for signs in 0..16u32 {
        let mut indices = vec![1000u32];
        for k in 1..9u32 {
            let down = signs >> (k % 4) & 1 == 1;
            let prev = *indices.last().unwrap();
            indices.push(if down { prev - 3 * k } else { prev + 5 * k });
        }
        check_delta(&image, &indices, &format!("sign pattern {signs:04b}"));
    }
}

/// Differences at the extremes of a word — 2^31, 2^31 - 1, 1 and all ones —
/// at every position of a trip, and running sums that wrap 32 bits: the
/// upper half of the sum is scratch, and nothing of it may reach a store.
#[test]
fn delta_extremes_and_wrapping_sums() {
    let image = progs::delta::build().unwrap();
    let (min, max) = (1u32 << 31, (1u32 << 31) - 1);
    check_delta(&image, &[0, min, 0, max, 0, min, 0, max, 0], "deltas 2^31 and 2^31 - 1 from zero");
    check_delta(
        &image,
        &[5, 5 + min, 4, 4 + max, 3, 3 + min, 2, 2 + max, 1],
        "2^31 at odd positions",
    );
    check_delta(
        &image,
        &[u32::MAX, 0, u32::MAX, 1, u32::MAX - 1, 0, u32::MAX, 2, 3],
        "sums across 2^32",
    );
    check_delta(&image, &[max, min, max, min, max, min, max, min, max], "alternating halves");
    check_delta(&image, &[u32::MAX; 9], "all ones, zero deltas");
    check_delta(
        &image,
        &[0, u32::MAX, u32::MAX - 1, 0, 1, 0, u32::MAX, 0],
        "steps of -1 and 1 across zero",
    );
    // Every word all ones: each 64-bit add carries into the upper half.
    let falling: Vec<u32> = (0..67u32).map(|i| u32::MAX - i).collect();
    check_delta(&image, &falling, "every word all ones");
}

/// Indices at and across 2^31 and at `u32::MAX` round-trip through the
/// codec, the software pipeline, and the full DSH chain — Huffman, Snappy,
/// inverse delta — on all three lane tiers.
#[test]
fn delta_indices_across_2_31_and_at_u32_max_round_trip() {
    let image = progs::delta::build().unwrap();
    let mut rng = SplitMix64::new(0x2_31);
    let mut indices: Vec<u32> = Vec::new();
    for _ in 0..60 {
        let base = [(1u32 << 31) - 8, u32::MAX - 15, 0][rng.below(3)];
        indices.extend((0..16).map(|k| base.wrapping_add(k)));
        indices.extend([u32::MAX, 1 << 31, (1 << 31) - 1, 0, rng.next_u64() as u32]);
    }
    assert_eq!(delta::decode_u32(&delta::encode_u32(&indices).unwrap()).unwrap(), indices);
    check_delta(&image, &indices, "indices across 2^31 and at u32::MAX");
    let data: Vec<u8> = indices.iter().flat_map(|w| w.to_le_bytes()).collect();
    let config = PipelineConfig { block_bytes: 1024, ..PipelineConfig::dsh_udp() };
    let pipe = Pipeline::train(config, &data).unwrap();
    let stream = pipe.encode_stream(&data).unwrap();
    assert!(stream.blocks.len() >= 4, "{} blocks", stream.blocks.len());
    assert_eq!(pipe.decode_stream(&stream).unwrap(), data, "software pipeline");
    let huffman = progs::huffman::compile(&pipe.table().unwrap().lengths).unwrap();
    let snappy = progs::snappy::build().unwrap();
    let mut decoded = Vec::new();
    for (i, block) in stream.blocks.iter().enumerate() {
        let (mut input, mut bits) = (block.payload.clone(), block.bit_len);
        for (name, stage) in [("huffman", &huffman), ("snappy", &snappy), ("delta", &image)] {
            let context = format!("block {i}, {name}");
            input =
                differential(stage, &input, bits, RunConfig::default(), &context).unwrap().output;
            bits = input.len() * 8;
        }
        decoded.extend(input);
    }
    assert_eq!(decoded, data, "three lane tiers");
}

/// A trailing partial word — 1 to 3 bytes, or a ragged bit count — is a
/// stream underflow behind every number of whole words around two trips,
/// identically on all three tiers, as it is an error in software.
#[test]
fn delta_ragged_tail_underflows() {
    let image = progs::delta::build().unwrap();
    let stream: Vec<u8> = (0..48u8).collect();
    for words in 0..=9 {
        for extra_bits in [1usize, 8, 13, 24, 31] {
            let bits = 32 * words + extra_bits;
            let input = &stream[..bits.div_ceil(8)];
            let context = format!("{words} words and {extra_bits} bits");
            let run = differential(&image, input, bits, RunConfig::default(), &context);
            assert!(matches!(run, Err(LaneError::StreamUnderflow { .. })), "{context}: {run:?}");
            if extra_bits % 8 == 0 {
                assert!(delta::decode_bytes(input).is_err(), "{context}");
            }
        }
    }
}
