//! 8 KB block framing.
//!
//! The paper streams compressed matrices as independent blocks that each
//! decompress back to (at most) 8 KB — one block per UDP lane invocation.
//! Blocks are self-contained (the delta stage restarts per block) so all 64
//! lanes can decode in parallel.
//!
//! Every block is sealed with a CRC32c over its payload *and* header fields,
//! plus a sequence number identifying its position in the stream. Together
//! they let the decode path detect bit flips, truncation, header corruption,
//! and block drop/duplication/reorder before a corrupted block can poison an
//! SpMV result.

use crate::crc32c::Crc32c;
use crate::error::{CodecError, CodecResult};

/// Fixed per-block framing overhead charged by the size accounting:
/// a 2-byte uncompressed length, a 3-byte payload bit-length, 3 bytes of
/// alignment/sequence bookkeeping, and a 4-byte CRC32c — mirroring a
/// realistic DMA descriptor with end-to-end integrity protection.
pub const BLOCK_HEADER_BYTES: usize = 12;

/// One compressed block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompressedBlock {
    /// Stage-pipeline output. When a Huffman stage is present this is a
    /// bit-packed stream and `bit_len` counts its valid bits; otherwise
    /// `bit_len == payload.len() * 8`.
    pub payload: Vec<u8>,
    /// Valid bits in `payload`.
    pub bit_len: usize,
    /// Exact byte size this block decodes back to.
    pub uncompressed_len: usize,
    /// Position of this block in its stream (0-based).
    pub seq: u32,
    /// CRC32c over payload + header fields (see [`CompressedBlock::compute_checksum`]).
    pub checksum: u32,
}

impl CompressedBlock {
    /// Builds a block and seals it with its checksum.
    pub fn sealed(payload: Vec<u8>, bit_len: usize, uncompressed_len: usize, seq: u32) -> Self {
        let mut b = CompressedBlock { payload, bit_len, uncompressed_len, seq, checksum: 0 };
        b.checksum = b.compute_checksum();
        b
    }

    /// CRC32c over the payload followed by the little-endian header fields
    /// (`bit_len`, `uncompressed_len` as u64, `seq` as u32). Covering the
    /// header means a corrupted length or sequence number is caught even when
    /// the payload bits survive intact.
    pub fn compute_checksum(&self) -> u32 {
        let mut h = Crc32c::new();
        h.update(&self.payload);
        h.update(&(self.bit_len as u64).to_le_bytes());
        h.update(&(self.uncompressed_len as u64).to_le_bytes());
        h.update(&self.seq.to_le_bytes());
        h.finalize()
    }

    /// Recomputes the checksum after a deliberate mutation (encoder use only).
    pub fn reseal(&mut self) {
        self.checksum = self.compute_checksum();
    }

    /// Verifies the stored checksum against the block contents.
    pub fn verify_checksum(&self) -> CodecResult<()> {
        let computed = self.compute_checksum();
        if computed != self.checksum {
            return Err(CodecError::ChecksumMismatch { stored: self.checksum, computed });
        }
        Ok(())
    }

    /// On-wire size of the block including framing.
    pub fn wire_bytes(&self) -> usize {
        self.payload.len() + BLOCK_HEADER_BYTES
    }
}

/// A sequence of compressed blocks representing one byte stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockStream {
    /// Uncompressed bytes per block (last block may be short).
    pub block_bytes: usize,
    /// The blocks, in stream order.
    pub blocks: Vec<CompressedBlock>,
    /// Total uncompressed size of the stream.
    pub total_uncompressed: usize,
}

impl BlockStream {
    /// Total on-wire size (payloads + per-block framing).
    pub fn wire_bytes(&self) -> usize {
        self.blocks.iter().map(CompressedBlock::wire_bytes).sum()
    }

    /// Compression ratio `uncompressed / wire`.
    pub fn ratio(&self) -> f64 {
        let wire = self.wire_bytes();
        if wire == 0 {
            return 1.0;
        }
        self.total_uncompressed as f64 / wire as f64
    }

    /// Number of blocks.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// True if the stream holds no blocks.
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// Number of blocks this stream *should* contain given its declared
    /// uncompressed size and block granularity. Deviation means blocks were
    /// dropped or duplicated in transit.
    pub fn expected_blocks(&self) -> CodecResult<usize> {
        if self.block_bytes == 0 {
            return Err(CodecError::Precondition("block size must be positive".into()));
        }
        Ok(self.total_uncompressed.div_ceil(self.block_bytes))
    }

    /// Structural integrity check: block count matches the declared stream
    /// size, every block sits at its claimed sequence position, and every
    /// checksum verifies. Does not decode payloads.
    pub fn verify(&self) -> CodecResult<()> {
        let expected = self.expected_blocks()?;
        if self.blocks.len() != expected {
            return Err(CodecError::BlockCount { expected, actual: self.blocks.len() });
        }
        for (k, b) in self.blocks.iter().enumerate() {
            if b.seq as usize != k {
                return Err(CodecError::BlockSequence { expected: k, found: b.seq as usize });
            }
            b.verify_checksum()?;
        }
        Ok(())
    }
}

/// Splits `data` into chunks of `block_bytes` (the final chunk may be
/// shorter). A zero-length stream yields no blocks. Rejects a zero block
/// size instead of panicking — configs may come from untrusted input.
pub fn split_blocks(data: &[u8], block_bytes: usize) -> CodecResult<Vec<&[u8]>> {
    if block_bytes == 0 {
        return Err(CodecError::Precondition("block size must be positive".into()));
    }
    Ok(data.chunks(block_bytes).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_covers_input_exactly() {
        let data: Vec<u8> = (0..100u8).collect();
        let blocks = split_blocks(&data, 32).unwrap();
        assert_eq!(blocks.len(), 4);
        assert_eq!(blocks[3].len(), 4);
        let rejoined: Vec<u8> = blocks.concat();
        assert_eq!(rejoined, data);
    }

    #[test]
    fn empty_stream_has_no_blocks() {
        assert!(split_blocks(&[], 8192).unwrap().is_empty());
    }

    #[test]
    fn zero_block_size_is_an_error_not_a_panic() {
        let err = split_blocks(&[1, 2, 3], 0).unwrap_err();
        assert!(matches!(err, CodecError::Precondition(_)));
    }

    #[test]
    fn wire_bytes_include_header() {
        let b = CompressedBlock::sealed(vec![0; 10], 80, 100, 0);
        assert_eq!(b.wire_bytes(), 10 + BLOCK_HEADER_BYTES);
        let s = BlockStream {
            block_bytes: 100,
            blocks: vec![b.clone(), CompressedBlock::sealed(vec![0; 10], 80, 100, 1)],
            total_uncompressed: 200,
        };
        assert_eq!(s.wire_bytes(), 2 * (10 + BLOCK_HEADER_BYTES));
        assert!((s.ratio() - 200.0 / 44.0).abs() < 1e-12);
    }

    #[test]
    fn sealed_block_verifies() {
        let b = CompressedBlock::sealed(vec![1, 2, 3], 24, 12, 7);
        b.verify_checksum().unwrap();
    }

    #[test]
    fn payload_flip_fails_verification() {
        let mut b = CompressedBlock::sealed(vec![1, 2, 3], 24, 12, 0);
        b.payload[1] ^= 0x40;
        let err = b.verify_checksum().unwrap_err();
        assert!(matches!(err, CodecError::ChecksumMismatch { .. }));
    }

    #[test]
    fn header_field_corruption_fails_verification() {
        let base = CompressedBlock::sealed(vec![9; 16], 128, 16, 3);
        let mut b = base.clone();
        b.bit_len += 1;
        assert!(b.verify_checksum().is_err());
        let mut b = base.clone();
        b.uncompressed_len ^= 0x100;
        assert!(b.verify_checksum().is_err());
        let mut b = base;
        b.seq = 4;
        assert!(b.verify_checksum().is_err());
    }

    #[test]
    fn stream_verify_catches_drop_duplicate_reorder() {
        let mk = |seq: u32| CompressedBlock::sealed(vec![seq as u8; 4], 32, 10, seq);
        let good = BlockStream {
            block_bytes: 10,
            blocks: (0..4).map(mk).collect(),
            total_uncompressed: 40,
        };
        good.verify().unwrap();

        let mut dropped = good.clone();
        dropped.blocks.remove(2);
        assert!(matches!(dropped.verify().unwrap_err(), CodecError::BlockCount { .. }));

        let mut dup = good.clone();
        let extra = dup.blocks[1].clone();
        dup.blocks.insert(1, extra);
        assert!(matches!(dup.verify().unwrap_err(), CodecError::BlockCount { .. }));

        let mut swapped = good.clone();
        swapped.blocks.swap(0, 3);
        assert!(matches!(swapped.verify().unwrap_err(), CodecError::BlockSequence { .. }));
    }
}
