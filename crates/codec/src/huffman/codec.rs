//! Huffman encode/decode against a [`HuffmanTable`].
//!
//! Decoding uses a flat 15-bit lookup table (peek `MAX_CODE_LEN` bits,
//! zero-padded at end-of-stream, then skip the matched code's length) — the
//! software analogue of the UDP's multi-way dispatch decoder.

use super::{HuffmanTable, MAX_CODE_LEN};
use crate::bitstream::{BitReader, BitWriter};
use crate::error::{CodecError, CodecResult};

/// Encodes `data`, returning `(bytes, bit_len)`.
///
/// # Errors
/// [`CodecError::Corrupt`] if a byte has no code in the table (cannot happen
/// for tables built with add-one smoothing).
pub fn encode(data: &[u8], table: &HuffmanTable) -> CodecResult<(Vec<u8>, usize)> {
    let mut w = BitWriter::new();
    for &b in data {
        let len = table.lengths[b as usize];
        if len == 0 {
            return Err(CodecError::Corrupt(format!("byte {b:#04x} has no huffman code")));
        }
        w.write_bits(table.codes[b as usize] as u32, len);
    }
    Ok(w.finish())
}

/// A flat decode table: one entry per 15-bit window. Building it touches
/// all 2^15 entries, so callers that decode many blocks against one table
/// (the pipeline, benches) should build once and reuse — both decode entry
/// points here are methods on the prebuilt table.
#[derive(Clone)]
pub struct FlatDecoder {
    /// `(symbol, code_length)` per window; length 0 marks an invalid window.
    entries: Vec<(u8, u8)>,
    /// Shortest code length in the table (0 when the table has no codes).
    min_len: u8,
}

// The elided field is a 32 Ki-entry LUT — noise in debug output; the shape
// identifies the decoder.
#[allow(clippy::missing_fields_in_debug)]
impl std::fmt::Debug for FlatDecoder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlatDecoder")
            .field("windows", &self.entries.len())
            .field("min_len", &self.min_len)
            .finish()
    }
}

impl FlatDecoder {
    /// Builds the flat table (one pass over all 2^15 windows).
    pub fn build(table: &HuffmanTable) -> Self {
        let mut entries = vec![(0u8, 0u8); 1 << MAX_CODE_LEN];
        let mut min_len = 0u8;
        for s in 0..256usize {
            let l = table.lengths[s];
            if l == 0 {
                continue;
            }
            if min_len == 0 || l < min_len {
                min_len = l;
            }
            let lo = (table.codes[s] as usize) << (MAX_CODE_LEN - l);
            let hi = lo + (1usize << (MAX_CODE_LEN - l));
            for e in &mut entries[lo..hi] {
                *e = (s as u8, l);
            }
        }
        FlatDecoder { entries, min_len }
    }

    /// Shortest code length in the table (0 when the table has no codes).
    pub fn min_code_len(&self) -> u8 {
        self.min_len
    }

    /// Decodes one symbol at the reader's position — the single window-
    /// decode step every Huffman decode path in this crate goes through.
    #[inline]
    fn read_symbol(&self, r: &mut BitReader<'_>) -> CodecResult<u8> {
        let window = r.peek_bits_padded(MAX_CODE_LEN);
        let (sym, len) = self.entries[window as usize];
        if len == 0 {
            return Err(CodecError::Corrupt(format!(
                "invalid huffman window {window:#06x} at bit {}",
                r.bit_len() - r.remaining()
            )));
        }
        if (len as usize) > r.remaining() {
            return Err(CodecError::Truncated { context: "huffman code" });
        }
        r.skip_bits(len).expect("length checked against remaining");
        Ok(sym)
    }

    /// The fast region: decodes from a fresh reader while whole 64-bit words
    /// can be loaded and fewer than `limit` symbols are out, then leaves `r`
    /// at the first bit it did not consume. The window lives in locals, not
    /// in the reader — a word refill inside `BitReader::refill` alone leaves
    /// the per-symbol call and state round trip, which is most of the cost.
    ///
    /// Every window looked up here holds 15 real stream bits (a refill needs
    /// 64 bits past the window and appends whole bytes only), so the symbols
    /// are the scalar loop's; on anything else — fewer than 64 bits left, an
    /// invalid window — it stops and the scalar loop meets the same bits at
    /// the same position and reports them.
    fn fast_region(&self, r: &mut BitReader<'_>, limit: usize, out: &mut Vec<u8>) {
        let (bytes, bit_len) = (r.bytes(), r.bit_len());
        let entries: &[(u8, u8); 1 << MAX_CODE_LEN] =
            self.entries.as_slice().try_into().expect("one entry per window");
        // Bits `[pos, pos + bits)` of the stream, MSB-aligned, zero below.
        let (mut pos, mut window, mut bits) = (0usize, 0u64, 0usize);
        while out.len() < limit {
            if bits < MAX_CODE_LEN as usize {
                let next = pos + bits;
                if bit_len - next < 64 {
                    break;
                }
                let word: [u8; 8] = bytes[next / 8..next / 8 + 8].try_into().expect("8 bytes");
                // 48 bits: the most whole bytes that fit above 14 kept bits.
                window |= (u64::from_be_bytes(word) & !0xFFFF) >> bits;
                bits += 48;
            }
            let (sym, len) = entries[(window >> (64 - MAX_CODE_LEN)) as usize];
            if len == 0 {
                break;
            }
            out.push(sym);
            window <<= len;
            bits -= len as usize;
            pos += len as usize;
        }
        r.seek(pos);
    }

    /// Decodes exactly `expected_len` symbols from a bitstream of `bit_len`
    /// valid bits.
    ///
    /// # Errors
    /// [`CodecError`] on invalid windows, premature end, or trailing bits
    /// that don't form a whole code.
    pub fn decode_exact(
        &self,
        bytes: &[u8],
        bit_len: usize,
        expected_len: usize,
    ) -> CodecResult<Vec<u8>> {
        self.exact(bytes, bit_len, expected_len, true)
    }

    /// [`Self::decode_exact`] through the one-symbol-at-a-time loop alone —
    /// the reference the fast region is differenced against.
    ///
    /// # Errors
    /// As [`Self::decode_exact`].
    pub fn decode_exact_scalar(
        &self,
        bytes: &[u8],
        bit_len: usize,
        expected_len: usize,
    ) -> CodecResult<Vec<u8>> {
        self.exact(bytes, bit_len, expected_len, false)
    }

    fn exact(
        &self,
        bytes: &[u8],
        bit_len: usize,
        expected_len: usize,
        fast: bool,
    ) -> CodecResult<Vec<u8>> {
        let mut r = BitReader::new(bytes, bit_len)?;
        let mut out = Vec::with_capacity(expected_len);
        if fast {
            self.fast_region(&mut r, expected_len, &mut out);
        }
        while out.len() < expected_len {
            out.push(self.read_symbol(&mut r)?);
        }
        if r.remaining() >= 8 {
            return Err(CodecError::Corrupt(format!(
                "{} unread bits after decoding {expected_len} symbols",
                r.remaining()
            )));
        }
        Ok(out)
    }

    /// Decodes until the bitstream is exhausted (fewer bits remain than the
    /// shortest code, which must all be padding: zero leftover bits are
    /// tolerated at the end only because codes are byte-packed). Used when
    /// the symbol count is not stored explicitly.
    ///
    /// # Errors
    /// [`CodecError`] on invalid windows, premature end, leftover bits, or
    /// a code-less table facing a non-empty stream.
    pub fn decode_all(&self, bytes: &[u8], bit_len: usize) -> CodecResult<Vec<u8>> {
        self.all(bytes, bit_len, true)
    }

    /// [`Self::decode_all`] through the one-symbol-at-a-time loop alone —
    /// the reference the fast region is differenced against.
    ///
    /// # Errors
    /// As [`Self::decode_all`].
    pub fn decode_all_scalar(&self, bytes: &[u8], bit_len: usize) -> CodecResult<Vec<u8>> {
        self.all(bytes, bit_len, false)
    }

    fn all(&self, bytes: &[u8], bit_len: usize, fast: bool) -> CodecResult<Vec<u8>> {
        if self.min_len == 0 {
            return if bit_len == 0 {
                Ok(Vec::new())
            } else {
                Err(CodecError::Corrupt("bits present but table has no codes".into()))
            };
        }
        let mut r = BitReader::new(bytes, bit_len)?;
        let mut out = Vec::with_capacity(bit_len / self.min_len as usize + 1);
        if fast {
            self.fast_region(&mut r, usize::MAX, &mut out);
        }
        while r.remaining() >= self.min_len as usize {
            out.push(self.read_symbol(&mut r)?);
        }
        if r.remaining() != 0 {
            return Err(CodecError::Corrupt(format!(
                "{} leftover bits shorter than any code",
                r.remaining()
            )));
        }
        Ok(out)
    }
}

/// Decodes exactly `expected_len` symbols from a bitstream of `bit_len`
/// valid bits. Builds a throwaway [`FlatDecoder`]; repeat callers should
/// build one and use [`FlatDecoder::decode_exact`].
///
/// # Errors
/// [`CodecError`] on invalid windows, premature end, or trailing bits that
/// don't form a whole code.
pub fn decode(
    bytes: &[u8],
    bit_len: usize,
    table: &HuffmanTable,
    expected_len: usize,
) -> CodecResult<Vec<u8>> {
    FlatDecoder::build(table).decode_exact(bytes, bit_len, expected_len)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table_for(data: &[u8]) -> HuffmanTable {
        let mut hist = [1u64; 256]; // smoothing, as the pipeline does
        for &b in data {
            hist[b as usize] += 1;
        }
        HuffmanTable::from_histogram(&hist)
    }

    fn round_trip(data: &[u8]) {
        let t = table_for(data);
        let (bytes, bits) = encode(data, &t).unwrap();
        let back = decode(&bytes, bits, &t, data.len()).unwrap();
        assert_eq!(back, data);
    }

    #[test]
    fn round_trips() {
        round_trip(b"");
        round_trip(b"a");
        round_trip(b"abracadabra, abracadabra!");
        round_trip(&(0..=255u8).collect::<Vec<_>>());
        let skew: Vec<u8> = (0..5000).map(|i| if i % 17 == 0 { 7 } else { 0 }).collect();
        round_trip(&skew);
    }

    #[test]
    fn compresses_skewed_data() {
        let data: Vec<u8> = (0..8192).map(|i| if i % 20 == 0 { 99 } else { 0 }).collect();
        let t = table_for(&data);
        let (bytes, _) = encode(&data, &t).unwrap();
        assert!(
            bytes.len() < data.len() / 4,
            "skewed data should shrink 4x+, got {} -> {}",
            data.len(),
            bytes.len()
        );
    }

    #[test]
    fn uniform_random_does_not_shrink_much() {
        let data: Vec<u8> =
            (0..4096u32).map(|i| (i.wrapping_mul(2654435761) >> 20) as u8).collect();
        let t = table_for(&data);
        let (bytes, _) = encode(&data, &t).unwrap();
        assert!(bytes.len() as f64 > data.len() as f64 * 0.9);
    }

    #[test]
    fn missing_code_is_an_error() {
        let mut hist = [0u64; 256];
        hist[b'a' as usize] = 5;
        hist[b'b' as usize] = 5;
        let t = HuffmanTable::from_histogram(&hist);
        assert!(matches!(encode(b"abc", &t), Err(CodecError::Corrupt(_))));
    }

    #[test]
    fn truncated_stream_is_detected() {
        let data = b"hello hello hello";
        let t = table_for(data);
        let (bytes, bits) = encode(data, &t).unwrap();
        // Chop the last byte off.
        let chopped = &bytes[..bytes.len() - 1];
        let chopped_bits = bits.min(chopped.len() * 8);
        let r = decode(chopped, chopped_bits, &t, data.len());
        assert!(r.is_err());
    }

    #[test]
    fn wrong_expected_len_leaves_unread_bits() {
        let data = b"mississippi river mississippi";
        let t = table_for(data);
        let (bytes, bits) = encode(data, &t).unwrap();
        let r = decode(&bytes, bits, &t, data.len() / 2);
        assert!(matches!(r, Err(CodecError::Corrupt(_))), "got {r:?}");
    }

    /// The fast region must be observationally identical to the scalar
    /// loop — same symbols, same `CodecError` payloads — on clean,
    /// truncated, and bit-flipped streams, for both entry points. Miri
    /// interprets it on a corpus small enough to finish.
    #[test]
    fn fast_region_matches_scalar_exactly() {
        fn all_pairs(fd: &FlatDecoder, bytes: &[u8], bits: usize, expected: usize) {
            let fast_all = fd.decode_all(bytes, bits);
            let sc_all = fd.decode_all_scalar(bytes, bits);
            assert_eq!(format!("{fast_all:?}"), format!("{sc_all:?}"));
            let fast_ex = fd.decode_exact(bytes, bits, expected);
            let sc_ex = fd.decode_exact_scalar(bytes, bits, expected);
            assert_eq!(format!("{fast_ex:?}"), format!("{sc_ex:?}"));
        }

        let (skewed, mixed) = if cfg!(miri) { (300, 200) } else { (9000, 4096) };
        let datasets: Vec<Vec<u8>> = vec![
            Vec::new(),
            b"a".to_vec(),
            b"abracadabra, abracadabra!".to_vec(),
            (0..=255u8).collect(),
            (0..skewed).map(|i| if i % 17 == 0 { 7 } else { 0 }).collect(),
            (0..mixed).map(|i: u32| (i.wrapping_mul(2_654_435_761) >> 20) as u8).collect(),
        ];
        for data in &datasets {
            let t = table_for(data);
            let fd = FlatDecoder::build(&t);
            let (bytes, bits) = encode(data, &t).unwrap();
            all_pairs(&fd, &bytes, bits, data.len());
            // Truncations at every byte boundary.
            for cut in 0..bytes.len().min(24) {
                let chopped = &bytes[..cut];
                all_pairs(&fd, chopped, bits.min(cut * 8), data.len());
            }
            // Bit flips across the stream (every byte for short streams).
            let mut mutated = bytes.clone();
            for i in (0..mutated.len()).step_by(if cfg!(miri) { 37 } else { 1 }) {
                mutated[i] ^= 0x55;
                all_pairs(&fd, &mutated, bits, data.len());
                mutated[i] ^= 0x55;
            }
            // Wrong expected counts exercise the unread-bits tail error.
            for wrong in [data.len() / 2, data.len() + 3] {
                let fast = fd.decode_exact(&bytes, bits, wrong);
                let sc = fd.decode_exact_scalar(&bytes, bits, wrong);
                assert_eq!(format!("{fast:?}"), format!("{sc:?}"));
            }
        }
    }

    #[test]
    fn corrupt_bits_never_panic() {
        let data = b"some sample payload for corruption";
        let t = table_for(data);
        let (mut bytes, bits) = encode(data, &t).unwrap();
        for i in 0..bytes.len() {
            bytes[i] ^= 0xFF;
            let _ = decode(&bytes, bits, &t, data.len());
            bytes[i] ^= 0xFF;
        }
    }
}
