//! Hand-rolled CRC32c (Castagnoli) — slicing-by-8, table-driven, no
//! external deps.
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
        let mut crc = self.state;
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
        self.state = crc;
    }

    /// Final checksum value.
    pub fn finalize(&self) -> u32 {
        !self.state
    }
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

    /// The byte-at-a-time loop the sliced `update` replaced.
    fn bytewise(data: &[u8]) -> u32 {
        !data.iter().fold(!0, |crc, &b| step(crc, b))
    }

    #[test]
    fn sliced_update_matches_bytewise_at_every_split() {
        let mut x = 0x9E37_79B9u32;
        let data: Vec<u8> = (0..77)
            .map(|_| {
                x = x.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                (x >> 24) as u8
            })
            .collect();
        // Every prefix length crosses every `len % 8`; every split point
        // puts the sliced loop and the tail loop at every phase of a word.
        for len in 0..=data.len() {
            let want = bytewise(&data[..len]);
            assert_eq!(crc32c(&data[..len]), want, "len {len}");
            for cut in 0..=len {
                let mut h = Crc32c::new();
                h.update(&data[..cut]);
                h.update(&data[cut..len]);
                assert_eq!(h.finalize(), want, "len {len} cut {cut}");
            }
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
