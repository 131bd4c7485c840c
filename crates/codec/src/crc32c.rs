//! CRC32c (Castagnoli), no external deps: the CPU's own `crc32`
//! instruction where the host has it (x86-64 with SSE4.2, found at run
//! time), a hand-rolled slicing-by-8 table loop everywhere else. Both give
//! the same checksum bit for bit; the table loop is also the reference the
//! tests hold the instruction to.
//!
//! Used by the block framing layer to detect payload/header corruption
//! anywhere between the encoder and the lane that decodes the block. The
//! Castagnoli polynomial is preferred over CRC32 (IEEE) for its better
//! error-detection properties on short messages, and matches what real
//! storage/transport stacks (iSCSI, ext4, ROCKSDB) checksum blocks with.

/// Reflected Castagnoli polynomial.
const POLY: u32 = 0x82F6_3B78;

/// Slicing-by-8 tables: `TABLES[k][b]` is the CRC of byte `b` followed by
/// `k` zero bytes, so eight input bytes fold into the state with eight
/// independent lookups instead of a chain of eight dependent ones.
/// `TABLES[0]` is the classic byte-at-a-time table.
const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0usize;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ POLY } else { crc >> 1 };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1usize;
    while k < 8 {
        let mut i = 0usize;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = tables[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        k += 1;
    }
    tables
}

/// Lookup tables, computed at compile time (8 KiB).
static TABLES: [[u32; 256]; 8] = build_tables();

/// One byte into the state — the tail loop, and the definition the sliced
/// loop must agree with.
#[inline]
fn step(crc: u32, b: u8) -> u32 {
    TABLES[0][((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8)
}

/// Incremental CRC32c hasher.
#[derive(Debug, Clone)]
pub struct Crc32c {
    state: u32,
}

impl Default for Crc32c {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32c {
    /// Fresh hasher.
    pub fn new() -> Self {
        Crc32c { state: !0 }
    }

    /// Absorb `data`.
    pub fn update(&mut self, data: &[u8]) {
        #[cfg(target_arch = "x86_64")]
        if std::is_x86_feature_detected!("sse4.2") {
            // SAFETY: the host has SSE4.2, the one feature `sse42` enables.
            #[allow(unsafe_code)]
            let crc = unsafe { sse42(self.state, data) };
            self.state = crc;
            return;
        }
        self.state = sliced(self.state, data);
    }

    /// Final checksum value.
    pub fn finalize(&self) -> u32 {
        !self.state
    }
}

/// The `crc32` instruction over whole 8-byte words, then over the tail one
/// byte at a time. One chain of dependent instructions (3-cycle latency,
/// 8 bytes each): about 0.15 ns/B against the table loop's 0.8.
///
/// # Safety
/// Outside code compiled for SSE4.2 the call is `unsafe`: the caller must
/// have seen the host report the feature.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse4.2")]
fn sse42(crc: u32, data: &[u8]) -> u32 {
    use std::arch::x86_64::{_mm_crc32_u64, _mm_crc32_u8};
    let mut words = data.chunks_exact(8);
    let mut crc = u64::from(crc);
    for w in &mut words {
        crc = _mm_crc32_u64(crc, u64::from_le_bytes(w.try_into().expect("8-byte word")));
    }
    // The instruction leaves the upper half zero.
    let mut crc = crc as u32;
    for &b in words.remainder() {
        crc = _mm_crc32_u8(crc, b);
    }
    crc
}

/// The portable loop: slicing-by-8 over whole words, then [`step`] over the
/// tail.
fn sliced(crc: u32, data: &[u8]) -> u32 {
    let mut crc = crc;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let lo = u32::from_le_bytes([w[0], w[1], w[2], w[3]]) ^ crc;
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        crc = TABLES[7][(lo & 0xFF) as usize]
            ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][(hi & 0xFF) as usize]
            ^ TABLES[2][((hi >> 8) & 0xFF) as usize]
            ^ TABLES[1][((hi >> 16) & 0xFF) as usize]
            ^ TABLES[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        crc = step(crc, b);
    }
    crc
}

/// One-shot CRC32c of `data`.
pub fn crc32c(data: &[u8]) -> u32 {
    let mut h = Crc32c::new();
    h.update(data);
    h.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Standard check value for the CRC-32C polynomial.
        assert_eq!(crc32c(b"123456789"), 0xE306_9283);
        assert_eq!(crc32c(b""), 0);
        // RFC 3720 (iSCSI) appendix: 32 bytes of zeros.
        assert_eq!(crc32c(&[0u8; 32]), 0x8A91_36AA);
        // 32 bytes of 0xFF.
        assert_eq!(crc32c(&[0xFFu8; 32]), 0x62A8_AB43);
    }

    /// The byte-at-a-time definition both paths must agree with.
    fn bytewise(data: &[u8]) -> u32 {
        !data.iter().fold(!0, |crc, &b| step(crc, b))
    }

    /// `data` through the dispatched `update` (the `crc32` instruction on a
    /// host with SSE4.2) and through the portable loop, cut at `cut`.
    fn both_paths(data: &[u8], cut: usize) -> [u32; 2] {
        let mut h = Crc32c::new();
        h.update(&data[..cut]);
        h.update(&data[cut..]);
        [h.finalize(), !sliced(sliced(!0, &data[..cut]), &data[cut..])]
    }

    #[test]
    fn sliced_update_matches_bytewise_at_every_split() {
        let mut x = 0x9E37_79B9u32;
        let mut next = move || {
            x = x.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            x
        };
        let data: Vec<u8> = (0..77).map(|_| (next() >> 24) as u8).collect();
        // Every prefix length crosses every `len % 8`; every split point
        // puts the word loop and the tail loop at every phase of a word.
        for len in 0..=data.len() {
            let want = bytewise(&data[..len]);
            assert_eq!(crc32c(&data[..len]), want, "len {len}");
            for cut in 0..=len {
                assert_eq!(both_paths(&data[..len], cut), [want; 2], "len {len} cut {cut}");
            }
        }
        // Block-sized buffers up to 16 KiB, starting off the 8-byte grid,
        // each cut at a random point.
        let long: Vec<u8> = (0..16 * 1024 + 8).map(|_| (next() >> 24) as u8).collect();
        for _ in 0..if cfg!(miri) { 3 } else { 64 } {
            let start = 1 + next() as usize % 7;
            let len = next() as usize % (16 * 1024 + 1);
            let buf = &long[start..start + len];
            let cut = next() as usize % (len + 1);
            let want = bytewise(buf);
            assert_eq!(both_paths(buf, cut), [want; 2], "start {start} len {len} cut {cut}");
        }
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        let whole = crc32c(&data);
        let mut h = Crc32c::new();
        for chunk in data.chunks(7) {
            h.update(chunk);
        }
        assert_eq!(h.finalize(), whole);
    }

    #[test]
    fn single_bit_flip_changes_checksum() {
        let data = vec![0xA5u8; 64];
        let base = crc32c(&data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                let mut d = data.clone();
                d[byte] ^= 1 << bit;
                assert_ne!(crc32c(&d), base, "flip at {byte}:{bit} undetected");
            }
        }
    }
}
