//! Huffman encode/decode against a [`HuffmanTable`].
//!
//! Decoding uses a flat 15-bit lookup table (peek `MAX_CODE_LEN` bits,
//! zero-padded at end-of-stream, then skip the matched code's length) — the
//! software analogue of the UDP's multi-way dispatch decoder.

use super::{HuffmanTable, MAX_CODE_LEN};
use crate::bitstream::{BitReader, BitWriter};
use crate::error::{CodecError, CodecResult};
#[cfg(all(target_arch = "x86_64", target_os = "linux", not(miri)))]
use crate::jit::huff::{HuffState, STATUS_BAIL};

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
    /// Compiled dispatch loop (x86-64 Linux with the JIT tier enabled);
    /// `None` sends every decode down the scalar path. Shared so clones
    /// reuse the published pages — the compiled code reads the entry table
    /// through per-call state, never a captured pointer, so a clone can
    /// never execute against a stale table.
    #[cfg(all(target_arch = "x86_64", target_os = "linux", not(miri)))]
    jit: Option<std::sync::Arc<crate::jit::huff::HuffJit>>,
}

// The elided fields are a 32 Ki-entry LUT and the compiled artifact —
// noise in debug output; the shape identifies the decoder.
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
        #[cfg(all(target_arch = "x86_64", target_os = "linux", not(miri)))]
        let jit = Self::compile_dispatch(entries.len());
        FlatDecoder {
            entries,
            min_len,
            #[cfg(all(target_arch = "x86_64", target_os = "linux", not(miri)))]
            jit,
        }
    }

    /// Lowers the dispatch loop to native code, reporting the compile (or
    /// its failure, which falls back to the scalar tier) to the JIT hook.
    #[cfg(all(target_arch = "x86_64", target_os = "linux", not(miri)))]
    fn compile_dispatch(windows: usize) -> Option<std::sync::Arc<crate::jit::huff::HuffJit>> {
        use crate::jit::{huff::HuffJit, report_compile, CompileEvent};
        if !crate::jit::enabled() {
            return None;
        }
        let t0 = std::time::Instant::now();
        let res = HuffJit::compile();
        let wall_ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
        report_compile(&CompileEvent {
            what: "huffman",
            code_bytes: res.as_ref().map_or(0, HuffJit::code_bytes),
            blocks: if res.is_ok() { windows } else { 0 },
            table_groups: 0,
            table_bytes: 0,
            wall_ns,
            ok: res.is_ok(),
        });
        res.ok().map(std::sync::Arc::new)
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
        #[cfg(all(target_arch = "x86_64", target_os = "linux", not(miri)))]
        if let Some(jit) = &self.jit {
            if bit_len <= bytes.len() * 8 {
                return self.decode_exact_jit(jit, bytes, bit_len, expected_len);
            }
            // Out-of-range bit_len: scalar produces the exact error.
        }
        self.decode_exact_scalar(bytes, bit_len, expected_len)
    }

    /// The scalar tier of [`Self::decode_exact`] — the semantic source of
    /// truth the compiled loop is differenced against, and the portable
    /// fallback.
    ///
    /// # Errors
    /// As [`Self::decode_exact`].
    pub fn decode_exact_scalar(
        &self,
        bytes: &[u8],
        bit_len: usize,
        expected_len: usize,
    ) -> CodecResult<Vec<u8>> {
        let mut r = BitReader::new(bytes, bit_len)?;
        let mut out = Vec::with_capacity(expected_len);
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
        #[cfg(all(target_arch = "x86_64", target_os = "linux", not(miri)))]
        if let Some(jit) = &self.jit {
            if self.min_len > 0 && bit_len <= bytes.len() * 8 {
                return self.decode_all_jit(jit, bytes, bit_len);
            }
            // min_len == 0 / out-of-range bit_len: scalar early paths apply.
        }
        self.decode_all_scalar(bytes, bit_len)
    }

    /// The scalar tier of [`Self::decode_all`] — the semantic source of
    /// truth the compiled loop is differenced against, and the portable
    /// fallback.
    ///
    /// # Errors
    /// As [`Self::decode_all`].
    pub fn decode_all_scalar(&self, bytes: &[u8], bit_len: usize) -> CodecResult<Vec<u8>> {
        if self.min_len == 0 {
            return if bit_len == 0 {
                Ok(Vec::new())
            } else {
                Err(CodecError::Corrupt("bits present but table has no codes".into()))
            };
        }
        let mut r = BitReader::new(bytes, bit_len)?;
        let mut out = Vec::with_capacity(bit_len / self.min_len as usize + 1);
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

#[cfg(all(target_arch = "x86_64", target_os = "linux", not(miri)))]
impl FlatDecoder {
    /// Seeds the per-call state for a compiled decode starting at bit 0.
    fn jit_state(
        &self,
        bytes: &[u8],
        bit_len: usize,
        out: &mut Vec<u8>,
        expected: usize,
    ) -> HuffState {
        HuffState {
            in_ptr: bytes.as_ptr(),
            bit_len: bit_len as u64,
            pos: 0,
            entries: self.entries.as_ptr().cast(),
            out_ptr: out.as_mut_ptr(),
            out_len: 0,
            expected: expected as u64,
            status: 0,
        }
    }

    /// Compiled tier of [`Self::decode_exact`]: fast loop over the easy
    /// region, scalar tail, full scalar re-run on bail (reproducing the
    /// exact error).
    fn decode_exact_jit(
        &self,
        jit: &crate::jit::huff::HuffJit,
        bytes: &[u8],
        bit_len: usize,
        expected_len: usize,
    ) -> CodecResult<Vec<u8>> {
        let mut out = Vec::with_capacity(expected_len);
        let mut st = self.jit_state(bytes, bit_len, &mut out, expected_len);
        // SAFETY: `bytes` backs `bit_len` (checked by the caller) and is
        // readable through any 8-byte refill window (the loop only loads
        // when >= 64 bits remain); `entries` is the live table; `out` has
        // capacity `expected_len` and the loop stops at that count.
        unsafe { jit.run_exact(&mut st) };
        if st.status == STATUS_BAIL {
            return self.decode_exact_scalar(bytes, bit_len, expected_len);
        }
        let produced = usize::try_from(st.out_len).expect("count fits usize");
        debug_assert!(produced <= expected_len);
        // SAFETY: the compiled loop initialized exactly `produced` bytes
        // (bounded by the capacity reserved above).
        unsafe { out.set_len(produced) };
        let mut r = BitReader::resume_at(bytes, bit_len, usize::try_from(st.pos).expect("pos"))?;
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

    /// Compiled tier of [`Self::decode_all`]; caller guarantees
    /// `min_len > 0` and an in-range `bit_len`.
    fn decode_all_jit(
        &self,
        jit: &crate::jit::huff::HuffJit,
        bytes: &[u8],
        bit_len: usize,
    ) -> CodecResult<Vec<u8>> {
        let cap = bit_len / self.min_len as usize + 1;
        let mut out = Vec::with_capacity(cap);
        let mut st = self.jit_state(bytes, bit_len, &mut out, usize::MAX);
        // SAFETY: as in `decode_exact_jit`; every decoded symbol consumes
        // at least `min_len >= 1` bits, so the loop writes at most
        // `bit_len / min_len < cap` symbols.
        unsafe { jit.run_all(&mut st) };
        if st.status == STATUS_BAIL {
            return self.decode_all_scalar(bytes, bit_len);
        }
        let produced = usize::try_from(st.out_len).expect("count fits usize");
        debug_assert!(produced < cap);
        // SAFETY: the compiled loop initialized exactly `produced` bytes.
        unsafe { out.set_len(produced) };
        let mut r = BitReader::resume_at(bytes, bit_len, usize::try_from(st.pos).expect("pos"))?;
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

    /// The compiled dispatch must be observationally identical to the
    /// scalar decoder — same symbols, same `CodecError` payloads — on
    /// clean, truncated, and bit-flipped streams, for both entry points.
    #[cfg(all(target_arch = "x86_64", target_os = "linux", not(miri)))]
    #[test]
    fn compiled_dispatch_matches_scalar_exactly() {
        fn all_pairs(fd: &FlatDecoder, bytes: &[u8], bits: usize, expected: usize) {
            let jit_all = fd.decode_all(bytes, bits);
            let sc_all = fd.decode_all_scalar(bytes, bits);
            assert_eq!(format!("{jit_all:?}"), format!("{sc_all:?}"));
            let jit_ex = fd.decode_exact(bytes, bits, expected);
            let sc_ex = fd.decode_exact_scalar(bytes, bits, expected);
            assert_eq!(format!("{jit_ex:?}"), format!("{sc_ex:?}"));
        }

        let datasets: Vec<Vec<u8>> = vec![
            Vec::new(),
            b"a".to_vec(),
            b"abracadabra, abracadabra!".to_vec(),
            (0..=255u8).collect(),
            (0..9000).map(|i| if i % 17 == 0 { 7 } else { 0 }).collect(),
            (0..4096u32).map(|i| (i.wrapping_mul(2_654_435_761) >> 20) as u8).collect(),
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
            for i in 0..mutated.len() {
                mutated[i] ^= 0x55;
                all_pairs(&fd, &mutated, bits, data.len());
                mutated[i] ^= 0x55;
            }
            // Wrong expected counts exercise the unread-bits tail error.
            for wrong in [data.len() / 2, data.len() + 3] {
                let jit = fd.decode_exact(&bytes, bits, wrong);
                let sc = fd.decode_exact_scalar(&bytes, bits, wrong);
                assert_eq!(format!("{jit:?}"), format!("{sc:?}"));
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
