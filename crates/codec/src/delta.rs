//! Fixed-width delta coding of 32-bit index streams.
//!
//! The paper is explicit that "the delta encoding step on its own provides
//! no benefit": output stays 4 bytes per index. What it does is turn the
//! arithmetic sequences of banded/diagonal matrices into *small repeating
//! integers* — e.g. a tridiagonal row's columns `[k-1, k, k+1]` become
//! deltas `[.., 1, 1]` — which Snappy's copy elements and Huffman's short
//! codes then compress aggressively.
//!
//! Word `k` is `idx[k] - idx[k-1]` in wrapping (two's-complement) `u32`
//! arithmetic, with `idx[-1] = 0`: the first word is the absolute index, a
//! negative difference is its two's complement, and decoding is a wrapping
//! running sum. Every `u32` index sequence codes, and every whole-word stream
//! decodes. Each block is self-contained, so blocks decode independently on
//! parallel UDP lanes.

use crate::error::{CodecError, CodecResult};
use crate::words;

/// Delta-encodes `indices` into little-endian bytes, 4 per index: the
/// stream's byte image through [`encode_bytes`].
///
/// # Errors
/// None: every `u32` sequence codes. The `Result` is the stage's interface.
pub fn encode_u32(indices: &[u32]) -> CodecResult<Vec<u8>> {
    encode_bytes(&words::le_bytes(indices))
}

/// Decodes bytes produced by [`encode_u32`].
///
/// # Errors
/// [`CodecError::Precondition`] if the length is not a multiple of 4.
pub fn decode_u32(bytes: &[u8]) -> CodecResult<Vec<u32>> {
    if !bytes.len().is_multiple_of(4) {
        return Err(CodecError::Precondition(format!(
            "delta stream length {} not a multiple of 4",
            bytes.len()
        )));
    }
    let mut prev = 0u32;
    Ok(bytes
        .chunks_exact(4)
        .map(|c| {
            prev = prev.wrapping_add(u32::from_le_bytes(c.try_into().expect("chunks_exact")));
            prev
        })
        .collect())
}

/// Byte-level wrapper used by the pipeline: treats `bytes` as a u32 stream.
///
/// # Errors
/// As [`decode_u32`]; `encode_bytes` errors on misaligned input length.
pub fn encode_bytes(bytes: &[u8]) -> CodecResult<Vec<u8>> {
    let mut out = Vec::new();
    encode_bytes_into(bytes, &mut out)?;
    Ok(out)
}

/// [`encode_bytes`] into `out` (replacing its contents), word by word with
/// no intermediate `u32` vector — the form an encode loop reuses per block,
/// and the one delta encode loop.
///
/// # Errors
/// As [`encode_bytes`].
pub fn encode_bytes_into(bytes: &[u8], out: &mut Vec<u8>) -> CodecResult<()> {
    if !bytes.len().is_multiple_of(4) {
        return Err(CodecError::Precondition(format!(
            "index stream length {} not a multiple of 4",
            bytes.len()
        )));
    }
    out.clear();
    out.resize(bytes.len(), 0);
    let mut prev = 0u32;
    for (dst, src) in out.chunks_exact_mut(4).zip(bytes.chunks_exact(4)) {
        let idx = u32::from_le_bytes(src.try_into().expect("chunks_exact"));
        dst.copy_from_slice(&idx.wrapping_sub(prev).to_le_bytes());
        prev = idx;
    }
    Ok(())
}

/// Inverse of [`encode_bytes`].
///
/// # Errors
/// As [`decode_u32`].
pub fn decode_bytes(bytes: &[u8]) -> CodecResult<Vec<u8>> {
    let indices = decode_u32(bytes)?;
    let mut out = Vec::with_capacity(indices.len() * 4);
    for idx in indices {
        out.extend_from_slice(&idx.to_le_bytes());
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn words(bytes: &[u8]) -> Vec<u32> {
        bytes.chunks_exact(4).map(|c| u32::from_le_bytes(c.try_into().unwrap())).collect()
    }

    #[test]
    fn encode_preserves_length() {
        let idx = [100u32, 101, 102, 50, 51];
        let enc = encode_u32(&idx).unwrap();
        assert_eq!(enc.len(), idx.len() * 4, "delta alone must not change size");
        assert_eq!(decode_u32(&enc).unwrap(), idx);
    }

    #[test]
    fn banded_indices_become_repeating_small_words() {
        // Tridiagonal-ish column pattern: after the absolute first word the
        // deltas run +1, +1, -1, ... — tiny repeating words.
        let idx = [9u32, 10, 11, 10, 11, 12, 11, 12, 13];
        let enc = words(&encode_u32(&idx).unwrap());
        assert_eq!(enc[..4], [9, 1, 1, u32::MAX]);
        assert!(enc[1..].iter().all(|&w| w == 1 || w == u32::MAX), "words: {enc:?}");
    }

    #[test]
    fn empty_and_singleton_streams() {
        assert_eq!(encode_u32(&[]).unwrap(), Vec::<u8>::new());
        assert_eq!(decode_u32(&[]).unwrap(), Vec::<u32>::new());
        let enc = encode_u32(&[7]).unwrap();
        assert_eq!(decode_u32(&enc).unwrap(), vec![7]);
    }

    #[test]
    fn misaligned_input_rejected() {
        assert!(decode_u32(&[1, 2, 3]).is_err());
        assert!(encode_bytes(&[1, 2, 3]).is_err());
    }

    #[test]
    fn indices_at_and_across_2_31_and_u32_max_code() {
        // Differences of either sign wrap, and the running sum wraps back.
        let idx = [u32::MAX, 0, 1 << 31, (1 << 31) - 1, u32::MAX, 5];
        let enc = encode_u32(&idx).unwrap();
        assert_eq!(words(&enc), [u32::MAX, 1, 1 << 31, u32::MAX, 1 << 31, 6]);
        assert_eq!(decode_u32(&enc).unwrap(), idx);
    }

    #[test]
    fn corrupt_stream_cannot_escape_u32_range() {
        // Any whole-word stream is some index sequence: an absolute start at
        // u32::MAX plus 10 wraps to 9, and nothing is refused.
        let stream: Vec<u8> = [u32::MAX, 10].iter().flat_map(|w| w.to_le_bytes()).collect();
        assert_eq!(decode_u32(&stream).unwrap(), [u32::MAX, 9]);
    }

    #[test]
    fn byte_wrappers_round_trip() {
        let idx = [3u32, 1, 4, 1, 5, 9, 2, 6];
        let raw: Vec<u8> = idx.iter().flat_map(|i| i.to_le_bytes()).collect();
        let enc = encode_bytes(&raw).unwrap();
        assert_eq!(decode_bytes(&enc).unwrap(), raw);
        // A reused buffer holding a longer, stale stream is replaced whole.
        let mut out = encode_u32(&[u32::MAX; 12]).unwrap();
        encode_bytes_into(&raw, &mut out).unwrap();
        assert_eq!(out, enc);
    }
}
