//! Greedy Snappy compressor: hash 4-byte windows, extend matches, emit
//! literal/copy elements.

use super::{TAG_COPY1, TAG_COPY2, TAG_COPY4, TAG_LITERAL};
use crate::varint::write_uvarint;

const HASH_BITS: u32 = 14;
const HASH_TABLE_SIZE: usize = 1 << HASH_BITS;
const MIN_MATCH: usize = 4;

#[inline]
fn load32(data: &[u8], i: usize) -> u32 {
    u32::from_le_bytes(data[i..i + 4].try_into().expect("4-byte window"))
}

#[inline]
fn load64(data: &[u8], i: usize) -> u64 {
    u64::from_le_bytes(data[i..i + 8].try_into().expect("8-byte window"))
}

#[inline]
fn hash(window: u32) -> usize {
    (window.wrapping_mul(0x1e35_a7bd) >> (32 - HASH_BITS)) as usize
}

/// How far the bytes at `cand` and `i` (`cand < i`) keep agreeing, up to
/// the end of `data`: eight bytes per compare, then one at a time.
#[inline]
fn match_len(data: &[u8], cand: usize, i: usize) -> usize {
    let mut len = 0;
    while i + len + 8 <= data.len() {
        let diff = load64(data, cand + len) ^ load64(data, i + len);
        if diff != 0 {
            return len + (diff.trailing_zeros() / 8) as usize;
        }
        len += 8;
    }
    while i + len < data.len() && data[cand + len] == data[i + len] {
        len += 1;
    }
    len
}

/// The match table of one stream's encode loop, reused from block to block.
///
/// A slot holds `base + position` of the last window that hashed to it.
/// Each block takes positions above every earlier block's, so a slot below
/// `base` is empty for the current block and nothing is cleared between
/// blocks; only when the `u32` positions run out is the table zeroed.
pub struct Matcher {
    table: Box<[u32; HASH_TABLE_SIZE]>,
    base: u32,
}

impl Default for Matcher {
    fn default() -> Self {
        Self::new()
    }
}

impl Matcher {
    /// An empty table.
    pub fn new() -> Self {
        let table = vec![0u32; HASH_TABLE_SIZE].into_boxed_slice().try_into().expect("table size");
        Matcher { table, base: 1 }
    }

    /// Compresses `data` into `out` (cleared first): varint preamble, then
    /// elements. The elements depend on `data` alone, never on the blocks
    /// this table saw before.
    ///
    /// # Panics
    /// If `data` is 4 GiB or longer: the format's offsets are 32-bit.
    pub fn compress_into(&mut self, data: &[u8], out: &mut Vec<u8>) {
        out.clear();
        write_uvarint(out, data.len() as u64);
        if data.is_empty() {
            return;
        }
        let n = u32::try_from(data.len()).ok().filter(|&n| n < u32::MAX);
        let n = n.expect("a Snappy block is shorter than 4 GiB");
        if self.base.checked_add(n).is_none() {
            self.table.fill(0);
            self.base = 1;
        }
        let (table, base) = (&mut *self.table, self.base);
        self.base += n;

        let mut literal_start = 0usize;
        let mut i = 0usize;
        while i + MIN_MATCH <= data.len() {
            let window = load32(data, i);
            let h = hash(window);
            let slot = table[h];
            table[h] = base + i as u32;
            // One branch per window, on the match itself: an empty slot
            // compares position `i` with itself and its flag spoils the
            // result, instead of a second, unpredictable branch.
            let live = slot >= base;
            let cand = if live { (slot - base) as usize } else { i };
            if (load32(data, cand) ^ window) | u32::from(!live) == 0 {
                let len = MIN_MATCH + match_len(data, cand + MIN_MATCH, i + MIN_MATCH);
                emit_literal(out, &data[literal_start..i]);
                emit_copy(out, i - cand, len);
                // Seed the table near the match end so back-to-back matches chain.
                let end = i + len;
                if end + MIN_MATCH <= data.len() {
                    table[hash(load32(data, end - 1))] = base + (end - 1) as u32;
                }
                i = end;
                literal_start = end;
            } else {
                i += 1;
            }
        }
        emit_literal(out, &data[literal_start..]);
    }
}

/// Compresses `data` into a fresh buffer (varint preamble + elements), with
/// a fresh match table; a loop over many blocks keeps one [`Matcher`].
///
/// # Panics
/// If `data` is 4 GiB or longer.
pub fn compress(data: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(data.len() / 2 + 16);
    Matcher::new().compress_into(data, &mut out);
    out
}

/// Emits one literal element (possibly with extended length bytes).
fn emit_literal(out: &mut Vec<u8>, lit: &[u8]) {
    // The format caps a literal's length field at 2^32; chunking at 2^24
    // keeps the length bytes at most 3 and sidesteps u32 edge cases.
    const CHUNK: usize = 1 << 24;
    let mut rest = lit;
    while !rest.is_empty() {
        let take = rest.len().min(CHUNK);
        let (head, tail) = rest.split_at(take);
        let n = head.len();
        if n <= 60 {
            out.push(TAG_LITERAL | (((n - 1) as u8) << 2));
        } else if n <= 0x100 {
            out.push(TAG_LITERAL | (60 << 2));
            out.push((n - 1) as u8);
        } else if n <= 0x1_0000 {
            out.push(TAG_LITERAL | (61 << 2));
            out.extend_from_slice(&((n - 1) as u16).to_le_bytes());
        } else {
            out.push(TAG_LITERAL | (62 << 2));
            out.extend_from_slice(&((n - 1) as u32).to_le_bytes()[..3]);
        }
        out.extend_from_slice(head);
        rest = tail;
    }
}

/// Emits one or more copy elements covering a match of `len` bytes at
/// distance `offset`.
fn emit_copy(out: &mut Vec<u8>, offset: usize, mut len: usize) {
    debug_assert!(offset >= 1);
    debug_assert!(len >= MIN_MATCH);
    // Long matches: peel 64-byte copies while at least 68 remain so the tail
    // never drops below the 4-byte minimum.
    while len >= 68 {
        emit_copy_upto64(out, offset, 64);
        len -= 64;
    }
    if len > 64 {
        emit_copy_upto64(out, offset, 60);
        len -= 60;
    }
    emit_copy_upto64(out, offset, len);
}

fn emit_copy_upto64(out: &mut Vec<u8>, offset: usize, len: usize) {
    debug_assert!((1..=64).contains(&len));
    if (4..=11).contains(&len) && offset < 2048 {
        out.push(TAG_COPY1 | (((len - 4) as u8) << 2) | (((offset >> 8) as u8) << 5));
        out.push((offset & 0xff) as u8);
    } else if offset <= 0xFFFF {
        out.push(TAG_COPY2 | (((len - 1) as u8) << 2));
        out.extend_from_slice(&(offset as u16).to_le_bytes());
    } else {
        out.push(TAG_COPY4 | (((len - 1) as u8) << 2));
        out.extend_from_slice(&(offset as u32).to_le_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snappy::decompress;

    #[test]
    fn literal_length_encodings() {
        for n in [1usize, 59, 60, 61, 255, 256, 257, 65_536, 70_000] {
            let data = vec![0x5Au8; 0]
                .into_iter()
                .chain((0..n).map(|i| (i % 251) as u8))
                .collect::<Vec<_>>();
            // Mostly-unique bytes => compressor leans on literals.
            let c = compress(&data);
            assert_eq!(decompress(&c).unwrap(), data, "n={n}");
        }
    }

    #[test]
    fn copy1_is_used_for_short_near_matches() {
        // "abcd" + noise + "abcd" within 2 KB at length 4..11.
        let mut data = b"abcdWXYZ".to_vec();
        data.extend_from_slice(b"abcd");
        let c = compress(&data);
        assert!(c.iter().any(|&b| b & 0b11 == TAG_COPY1), "expected a copy1 element in {c:?}");
        assert_eq!(decompress(&c).unwrap(), data);
    }

    #[test]
    fn copy4_is_used_for_far_matches() {
        // A 4+ byte match at distance > 65535.
        let marker = b"MAGICWORD!";
        let mut data = marker.to_vec();
        data.extend((0..70_000u32).map(|i| (i.wrapping_mul(2654435761) >> 24) as u8));
        data.extend_from_slice(marker);
        let c = compress(&data);
        assert_eq!(decompress(&c).unwrap(), data);
    }

    #[test]
    fn a_reused_table_emits_what_a_fresh_one_does() {
        let blocks: Vec<Vec<u8>> = (0..40u32)
            .map(|k| {
                let len = (k as usize * 397) % 9000;
                (0..len as u32).map(|i| ((i / (k % 7 + 1)) ^ k.wrapping_mul(31)) as u8).collect()
            })
            .collect();
        let mut matcher = Matcher::new();
        let mut out = Vec::new();
        for block in &blocks {
            matcher.compress_into(block, &mut out);
            assert_eq!(out, compress(block));
        }
        // Positions about to run out: the table is zeroed, not misread.
        matcher.base = u32::MAX - 100;
        for block in &blocks[..3] {
            matcher.compress_into(block, &mut out);
            assert_eq!(out, compress(block));
        }
    }

    #[test]
    fn match_lengths_near_chunking_boundaries() {
        for repeat in [64usize, 65, 66, 67, 68, 69, 127, 128, 200] {
            let mut data = b"0123456789abcdef".to_vec();
            data.extend(std::iter::repeat_n(b'q', repeat));
            data.extend_from_slice(b"END");
            let c = compress(&data);
            assert_eq!(decompress(&c).unwrap(), data, "repeat={repeat}");
        }
    }
}
