//! From-scratch implementation of the Snappy block format.
//!
//! Wire format (after the little-endian varint giving the uncompressed
//! length): a sequence of elements, each starting with a tag byte whose low
//! two bits select the element type:
//!
//! | low bits | element | layout |
//! |---|---|---|
//! | `00` | literal | lengths ≤ 60 inline in the tag; 61–64 tag values add 1–4 little-endian length bytes |
//! | `01` | copy, 1-byte offset | length 4–11 in tag bits 2–4, offset 0–2047 from tag bits 5–7 + one byte |
//! | `10` | copy, 2-byte offset | length 1–64 in tag bits 2–7, 16-bit LE offset |
//! | `11` | copy, 4-byte offset | length 1–64 in tag bits 2–7, 32-bit LE offset |
//!
//! The compressor is a greedy hash-chain matcher in the style of the
//! reference implementation. The decompressor is shared — bit-exactly — with
//! the UDP Snappy program in `recode-udp`, which implements the same
//! element dispatch via the accelerator's 256-way multi-way dispatch.

mod compress;
mod decompress;

pub use compress::compress;
pub use decompress::{decompress, decompress_with_limit, uncompressed_length};

/// Tag low bits.
pub(crate) const TAG_LITERAL: u8 = 0b00;
/// Copy with 1-byte offset.
pub(crate) const TAG_COPY1: u8 = 0b01;
/// Copy with 2-byte offset.
pub(crate) const TAG_COPY2: u8 = 0b10;
/// Copy with 4-byte offset.
pub(crate) const TAG_COPY4: u8 = 0b11;

/// Default cap on the declared uncompressed size accepted by
/// [`decompress`] — prevents a corrupt varint from triggering a huge
/// allocation. Generous compared to the 8–32 KB blocks this workspace uses.
pub const DEFAULT_MAX_UNCOMPRESSED: usize = 1 << 28;

#[cfg(test)]
mod tests {
    use super::*;
    use recode_sparse::util::SplitMix64;

    fn round_trip(data: &[u8]) -> Vec<u8> {
        let c = compress(data);
        let d = decompress(&c).unwrap();
        assert_eq!(d, data, "round trip failed for {} bytes", data.len());
        c
    }

    #[test]
    fn empty_input() {
        let c = round_trip(&[]);
        assert_eq!(c, vec![0x00], "empty stream is just the varint 0");
    }

    #[test]
    fn short_literal_only() {
        let c = round_trip(b"abc");
        // varint 3, literal tag (len 3 -> (3-1)<<2 = 8), payload.
        assert_eq!(c, vec![3, 8, b'a', b'b', b'c']);
    }

    #[test]
    fn repeated_data_compresses() {
        let data = vec![0xABu8; 10_000];
        let c = round_trip(&data);
        // Copy elements cover at most 64 bytes each (~3 wire bytes), so a
        // run costs about 3/64 of its length — same as reference Snappy.
        assert!(c.len() < 600, "run of one byte should crush ~20x, got {}", c.len());
    }

    #[test]
    fn repeating_period_exercises_overlapping_copies() {
        // Period 3 < min match 4 forces overlapping copy semantics.
        let data: Vec<u8> = (0..5000).map(|i| (i % 3) as u8).collect();
        round_trip(&data);
    }

    #[test]
    fn incompressible_data_round_trips_with_bounded_expansion() {
        let mut rng = SplitMix64::new(7);
        let data: Vec<u8> = (0..100_000).map(|_| rng.next_u64() as u8).collect();
        let c = round_trip(&data);
        // Snappy guarantees ~ len + len/6 + 32 worst case.
        assert!(c.len() <= data.len() + data.len() / 6 + 32);
    }

    #[test]
    fn structured_data_compresses_well() {
        // Delta-encoded banded index stream look-alike: tiny LE words.
        let mut data = Vec::new();
        for _ in 0..4096 {
            data.extend_from_slice(&2u32.to_le_bytes());
        }
        let c = round_trip(&data);
        assert!(
            (c.len() as f64) < data.len() as f64 * 0.05,
            "repeating words should compress >20x, got {} -> {}",
            data.len(),
            c.len()
        );
    }

    #[test]
    fn long_matches_split_across_copy_elements() {
        // One long literal followed by a 1000-byte match.
        let mut data = vec![0u8; 0];
        let chunk: Vec<u8> = (0..=255u8).cycle().take(1111).collect();
        data.extend_from_slice(&chunk);
        data.extend_from_slice(&chunk);
        round_trip(&data);
    }

    #[test]
    fn all_byte_values() {
        let data: Vec<u8> = (0..=255u8).collect();
        round_trip(&data);
    }

    #[test]
    fn mixed_compressible_and_random_sections() {
        let mut rng = SplitMix64::new(11);
        let mut data = Vec::new();
        for section in 0..20 {
            if section % 2 == 0 {
                data.extend(std::iter::repeat_n(section as u8, 700));
            } else {
                data.extend((0..700).map(|_| rng.next_u64() as u8));
            }
        }
        round_trip(&data);
    }
}
