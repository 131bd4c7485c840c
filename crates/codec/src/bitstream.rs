//! MSB-first bit I/O used by the Huffman stage.
//!
//! MSB-first ordering means a canonical code's bits appear in the byte
//! stream in the same order they appear in the code word, which is also the
//! order the UDP's `dispatch.peek` consumes them — keeping the software
//! codec and the UDP program bit-compatible.

use crate::error::{CodecError, CodecResult};

/// Accumulates bits MSB-first into a byte vector.
///
/// Writes gather in a 64-bit accumulator and leave it four whole bytes at a
/// time, so a code costs a shift, an or and a compare, not a loop over its
/// bits.
#[derive(Debug, Default)]
pub struct BitWriter {
    bytes: Vec<u8>,
    /// The bits not yet in `bytes`: the low `pending` bits, oldest highest.
    /// Bits above them are stale and never read.
    acc: u64,
    /// Fewer than 32 between calls.
    pending: u32,
}

impl BitWriter {
    /// New empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// New empty writer whose byte vector holds `bytes` before it grows —
    /// a caller that knows the stream's length sizes it exactly.
    pub fn with_capacity(bytes: usize) -> Self {
        BitWriter { bytes: Vec::with_capacity(bytes), ..Self::default() }
    }

    /// Writes the low `nbits` of `code`, most significant of those first.
    ///
    /// # Panics
    /// If `nbits > 32`.
    #[inline]
    pub fn write_bits(&mut self, code: u32, nbits: u8) {
        assert!(nbits <= 32, "at most 32 bits per write");
        let n = u32::from(nbits);
        // `pending + n <= 63`: the shift keeps every pending bit.
        self.acc = (self.acc << n) | (u64::from(code) & ((1u64 << n) - 1));
        self.pending += n;
        if self.pending >= 32 {
            self.pending -= 32;
            self.bytes.extend_from_slice(&((self.acc >> self.pending) as u32).to_be_bytes());
        }
    }

    /// Total bits written so far.
    pub fn bit_len(&self) -> usize {
        self.bytes.len() * 8 + self.pending as usize
    }

    /// Finishes the stream, returning `(bytes, bit_len)`. Trailing padding
    /// bits in the final byte are zero.
    pub fn finish(self) -> (Vec<u8>, usize) {
        let bits = self.bit_len();
        let mut bytes = self.bytes;
        if self.pending > 0 {
            // MSB-align the pending bits; the stale ones shift out.
            let tail = (self.acc << (64 - self.pending)).to_be_bytes();
            bytes.extend_from_slice(&tail[..self.pending.div_ceil(8) as usize]);
        }
        (bytes, bits)
    }
}

/// Reads bits MSB-first from a byte slice.
///
/// Requests are served from a 64-bit refill buffer holding the bits at
/// `[pos, pos + buf_bits)` MSB-aligned; bits below `buf_bits` are zero, so
/// past-the-end peeks get their zero padding for free. Bytes are loaded
/// whole instead of the reader touching the slice bit-by-bit.
#[derive(Debug, Clone)]
pub struct BitReader<'a> {
    bytes: &'a [u8],
    /// Next (unconsumed) bit position.
    pos: usize,
    /// Total valid bits (may be less than `bytes.len() * 8`).
    bit_len: usize,
    buf: u64,
    buf_bits: u32,
}

impl<'a> BitReader<'a> {
    /// Wraps `bytes`, of which only the first `bit_len` bits are valid.
    ///
    /// # Errors
    /// [`CodecError::Corrupt`] if `bit_len` exceeds the buffer.
    pub fn new(bytes: &'a [u8], bit_len: usize) -> CodecResult<Self> {
        if bit_len > bytes.len() * 8 {
            return Err(CodecError::Corrupt(format!(
                "bit length {bit_len} exceeds buffer of {} bits",
                bytes.len() * 8
            )));
        }
        Ok(BitReader { bytes, pos: 0, bit_len, buf: 0, buf_bits: 0 })
    }

    /// Moves the cursor to bit `pos` (possibly mid-byte) and re-establishes
    /// the refill invariant — how the one-symbol-at-a-time Huffman loop takes
    /// over from the fast region that decoded up to `pos` on its own window.
    ///
    /// # Panics
    /// If `pos` is past the stream's valid bits.
    pub(crate) fn seek(&mut self, pos: usize) {
        assert!(pos <= self.bit_len, "seek to {pos} past bit length {}", self.bit_len);
        self.pos = pos;
        self.rebase();
    }

    /// The whole underlying byte slice.
    pub(crate) fn bytes(&self) -> &'a [u8] {
        self.bytes
    }

    /// Bits remaining.
    pub fn remaining(&self) -> usize {
        self.bit_len - self.pos
    }

    /// Total valid bits in the stream.
    pub fn bit_len(&self) -> usize {
        self.bit_len
    }

    /// Tops up the buffer. Invariant: the next load position
    /// (`pos + buf_bits`) is byte-aligned or `>= bit_len`, so whole bytes
    /// can be appended; the final partial byte is masked to `bit_len`.
    #[inline]
    fn refill(&mut self) {
        let mut next = self.pos + self.buf_bits as usize;
        while self.buf_bits <= 56 && next < self.bit_len {
            debug_assert_eq!(next % 8, 0);
            let avail = self.bit_len - next;
            let mut b = self.bytes[next / 8];
            if avail < 8 {
                b &= 0xFF << (8 - avail);
            }
            self.buf |= (b as u64) << (56 - self.buf_bits);
            self.buf_bits += if avail < 8 { avail as u32 } else { 8 };
            next += 8;
        }
    }

    /// Re-establishes the refill invariant after `pos` jumped past the
    /// buffer to a possibly mid-byte position.
    fn rebase(&mut self) {
        self.buf = 0;
        self.buf_bits = 0;
        let frac = self.pos % 8;
        if frac != 0 && self.pos < self.bit_len {
            let avail = (8 - frac).min(self.bit_len - self.pos);
            let b = (self.bytes[self.pos / 8] << frac) & (0xFFu16 << (8 - avail)) as u8;
            self.buf = (b as u64) << 56;
            self.buf_bits = avail as u32;
        }
    }

    /// Consumes `n` bits; caller has checked `n <= remaining()`.
    #[inline]
    fn advance(&mut self, n: usize) {
        self.pos += n;
        if (n as u64) < u64::from(self.buf_bits) {
            self.buf <<= n;
            self.buf_bits -= n as u32;
        } else {
            self.rebase();
        }
    }

    /// Reads `nbits` (<= 32) MSB-first.
    ///
    /// # Errors
    /// [`CodecError::Truncated`] if fewer than `nbits` remain.
    pub fn read_bits(&mut self, nbits: u8) -> CodecResult<u32> {
        debug_assert!(nbits <= 32, "at most 32 bits per read");
        if nbits as usize > self.remaining() {
            return Err(CodecError::Truncated { context: "bitstream" });
        }
        let out = self.peek_bits_padded(nbits);
        self.advance(nbits as usize);
        Ok(out)
    }

    /// Peeks up to `nbits` (<= 32) without consuming; missing tail bits
    /// read as 0 (the standard trick that lets table-driven decoders peek a
    /// full index near end-of-stream).
    pub fn peek_bits_padded(&mut self, nbits: u8) -> u32 {
        debug_assert!(nbits <= 32, "at most 32 bits per peek");
        if nbits == 0 {
            return 0;
        }
        if u32::from(nbits) > self.buf_bits {
            self.refill();
        }
        (self.buf >> (64 - u32::from(nbits))) as u32
    }

    /// Consumes `nbits`.
    ///
    /// # Errors
    /// [`CodecError::Truncated`] if fewer remain.
    pub fn skip_bits(&mut self, nbits: u8) -> CodecResult<()> {
        if nbits as usize > self.remaining() {
            return Err(CodecError::Truncated { context: "bitstream skip" });
        }
        self.advance(nbits as usize);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_read_round_trip() {
        let mut w = BitWriter::new();
        w.write_bits(0b101, 3);
        w.write_bits(0b0110, 4);
        w.write_bits(0xDEAD, 16);
        let (bytes, bits) = w.finish();
        assert_eq!(bits, 23);
        let mut r = BitReader::new(&bytes, bits).unwrap();
        assert_eq!(r.read_bits(3).unwrap(), 0b101);
        assert_eq!(r.read_bits(4).unwrap(), 0b0110);
        assert_eq!(r.read_bits(16).unwrap(), 0xDEAD);
        assert_eq!(r.remaining(), 0);
        assert!(r.read_bits(1).is_err());
    }

    #[test]
    fn msb_first_layout() {
        let mut w = BitWriter::new();
        w.write_bits(1, 1); // bit 7 of byte 0
        w.write_bits(0, 1);
        w.write_bits(1, 1);
        let (bytes, _) = w.finish();
        assert_eq!(bytes, vec![0b1010_0000]);
    }

    #[test]
    fn peek_pads_past_the_end_with_zeros() {
        let mut w = BitWriter::new();
        w.write_bits(0b11, 2);
        let (bytes, bits) = w.finish();
        let mut r = BitReader::new(&bytes, bits).unwrap();
        assert_eq!(r.peek_bits_padded(8), 0b1100_0000);
    }

    #[test]
    fn peek_does_not_consume() {
        let mut w = BitWriter::new();
        w.write_bits(0b1011, 4);
        let (bytes, bits) = w.finish();
        let mut r = BitReader::new(&bytes, bits).unwrap();
        assert_eq!(r.peek_bits_padded(4), 0b1011);
        assert_eq!(r.peek_bits_padded(4), 0b1011);
        assert_eq!(r.read_bits(4).unwrap(), 0b1011);
    }

    #[test]
    fn bad_bit_len_rejected() {
        assert!(BitReader::new(&[0u8], 9).is_err());
        assert!(BitReader::new(&[], 0).is_ok());
    }

    #[test]
    fn skip_bits_moves_cursor() {
        let mut w = BitWriter::new();
        w.write_bits(0xFF, 8);
        w.write_bits(0b01, 2);
        let (bytes, bits) = w.finish();
        let mut r = BitReader::new(&bytes, bits).unwrap();
        r.skip_bits(8).unwrap();
        assert_eq!(r.read_bits(2).unwrap(), 0b01);
        assert!(r.skip_bits(1).is_err());
    }
}
