//! Deterministic, seed-driven fault injection for block streams.
//!
//! The fault-tolerance layer is only trustworthy if it is exercised against
//! every corruption class the transport can produce. This module mutates a
//! [`BlockStream`] the way a flaky DMA engine, a bad DRAM row, or a buggy
//! re-order buffer would: single-bit payload flips, payload truncation,
//! whole-block drop/duplication/reorder, and header-field corruption.
//!
//! A [`Fault`] names its site, so a test can place one directly; a
//! [`FaultInjector`] draws one from the workspace's [`SplitMix64`], so a
//! drawn fault is fully determined by its seed and the stream.

use crate::block::BlockStream;
pub use recode_sparse::util::SplitMix64;

/// The corruption classes the injector can apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Flip one bit of one block's payload.
    BitFlip,
    /// Remove bytes from the end of one block's payload (header untouched).
    Truncate,
    /// Remove one block from the stream.
    DropBlock,
    /// Insert a copy of one block into the stream.
    DuplicateBlock,
    /// Swap two distinct blocks.
    ReorderBlocks,
    /// Corrupt one header field (`bit_len`, `uncompressed_len`, `seq`, or
    /// the stored checksum) of one block.
    HeaderCorrupt,
}

impl FaultKind {
    /// Every fault class, for exhaustive sweeps.
    pub const ALL: [FaultKind; 6] = [
        FaultKind::BitFlip,
        FaultKind::Truncate,
        FaultKind::DropBlock,
        FaultKind::DuplicateBlock,
        FaultKind::ReorderBlocks,
        FaultKind::HeaderCorrupt,
    ];
}

impl std::fmt::Display for FaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            FaultKind::BitFlip => "bit-flip",
            FaultKind::Truncate => "truncate",
            FaultKind::DropBlock => "drop-block",
            FaultKind::DuplicateBlock => "duplicate-block",
            FaultKind::ReorderBlocks => "reorder-blocks",
            FaultKind::HeaderCorrupt => "header-corrupt",
        };
        f.write_str(name)
    }
}

/// One header field of a [`CompressedBlock`](crate::CompressedBlock).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HeaderField {
    /// Valid payload bits.
    BitLen,
    /// The byte size the block decodes to.
    UncompressedLen,
    /// The block's stream position.
    Seq,
    /// The stored CRC32c.
    Checksum,
}

impl HeaderField {
    /// Every header field, in [`FaultInjector`] draw order.
    pub const ALL: [HeaderField; 4] = [
        HeaderField::BitLen,
        HeaderField::UncompressedLen,
        HeaderField::Seq,
        HeaderField::Checksum,
    ];
}

impl std::fmt::Display for HeaderField {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            HeaderField::BitLen => "bit_len",
            HeaderField::UncompressedLen => "uncompressed_len",
            HeaderField::Seq => "seq",
            HeaderField::Checksum => "checksum",
        })
    }
}

/// One stream mutation and its site: [`Fault::apply`] makes exactly this
/// change, and `Display` says what it is. Blocks are stream positions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Flip bit `bit` of payload byte `byte` of `block`.
    BitFlip { block: usize, byte: usize, bit: u8 },
    /// Cut `block`'s payload to its first `len` bytes.
    Truncate { block: usize, len: usize },
    /// Remove `block` from the stream.
    DropBlock { block: usize },
    /// Insert a copy of `block` at position `at`.
    DuplicateBlock { block: usize, at: usize },
    /// Swap `block` with block `with`.
    ReorderBlocks { block: usize, with: usize },
    /// XOR header field `field` of `block` with `mask` (nonzero).
    HeaderCorrupt { block: usize, field: HeaderField, mask: u32 },
}

impl Fault {
    /// Mutates `stream` as the fault says (a truncation to the payload's
    /// length or more changes nothing).
    ///
    /// # Panics
    /// If the site is not in `stream`: a block, byte or position past its
    /// end.
    pub fn apply(&self, stream: &mut BlockStream) {
        let blocks = &mut stream.blocks;
        match *self {
            Fault::BitFlip { block, byte, bit } => blocks[block].payload[byte] ^= 1 << bit,
            Fault::Truncate { block, len } => blocks[block].payload.truncate(len),
            Fault::DropBlock { block } => drop(blocks.remove(block)),
            Fault::DuplicateBlock { block, at } => blocks.insert(at, blocks[block].clone()),
            Fault::ReorderBlocks { block, with } => blocks.swap(block, with),
            Fault::HeaderCorrupt { block, field, mask } => {
                let b = &mut blocks[block];
                match field {
                    HeaderField::BitLen => b.bit_len ^= mask as usize,
                    HeaderField::UncompressedLen => b.uncompressed_len ^= mask as usize,
                    HeaderField::Seq => b.seq ^= mask,
                    HeaderField::Checksum => b.checksum ^= mask,
                }
            }
        }
    }
}

impl std::fmt::Display for Fault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Fault::BitFlip { block, byte, bit } => {
                write!(f, "flipped bit {bit} of payload byte {byte} of block {block}")
            }
            Fault::Truncate { block, len } => {
                write!(f, "truncated the payload of block {block} to {len} bytes")
            }
            Fault::DropBlock { block } => write!(f, "dropped block {block}"),
            Fault::DuplicateBlock { block, at } => {
                write!(f, "duplicated block {block} at position {at}")
            }
            Fault::ReorderBlocks { block, with } => write!(f, "swapped blocks {block} and {with}"),
            Fault::HeaderCorrupt { block, field, mask } => {
                write!(f, "{field} of block {block} xor {mask:#x}")
            }
        }
    }
}

/// Seeded deterministic fault injector: it draws where a fault goes, and
/// [`Fault::apply`] puts it there.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    rng: SplitMix64,
}

impl FaultInjector {
    /// Injector whose whole draw sequence is determined by `seed`.
    pub fn new(seed: u64) -> Self {
        FaultInjector { rng: SplitMix64::new(seed) }
    }

    /// Draws a fault of class `kind` at a site of `stream`. Returns `None`
    /// when the stream offers no target for that class (empty stream;
    /// reorder with < 2 blocks; bit-flip/truncate on an empty payload).
    pub fn draw(&mut self, stream: &BlockStream, kind: FaultKind) -> Option<Fault> {
        let rng = &mut self.rng;
        let n = stream.blocks.len();
        if n == 0 {
            return None;
        }
        let fault = match kind {
            FaultKind::BitFlip => {
                let block = rng.below(n);
                let len = stream.blocks[block].payload.len();
                if len == 0 {
                    return None;
                }
                let byte = rng.below(len);
                Fault::BitFlip { block, byte, bit: rng.below(8) as u8 }
            }
            FaultKind::Truncate => {
                let block = rng.below(n);
                let len = stream.blocks[block].payload.len();
                if len == 0 {
                    return None;
                }
                Fault::Truncate { block, len: len - 1 - rng.below(len) }
            }
            FaultKind::DropBlock => Fault::DropBlock { block: rng.below(n) },
            FaultKind::DuplicateBlock => {
                let block = rng.below(n);
                Fault::DuplicateBlock { block, at: rng.below(n + 1) }
            }
            FaultKind::ReorderBlocks => {
                if n < 2 {
                    return None;
                }
                let block = rng.below(n);
                let mut with = rng.below(n - 1);
                if with >= block {
                    with += 1;
                }
                Fault::ReorderBlocks { block, with }
            }
            FaultKind::HeaderCorrupt => {
                let block = rng.below(n);
                let mask = (rng.next_u64() as u32) | 1; // never zero
                Fault::HeaderCorrupt { block, field: HeaderField::ALL[rng.below(4)], mask }
            }
        };
        Some(fault)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::CompressedBlock;

    fn stream(nblocks: usize) -> BlockStream {
        let blocks = (0..nblocks)
            .map(|k| CompressedBlock::sealed(vec![k as u8; 16], 128, 32, k as u32))
            .collect();
        BlockStream { block_bytes: 32, blocks, total_uncompressed: 32 * nblocks }
    }

    #[test]
    fn same_seed_same_mutation() {
        for kind in FaultKind::ALL {
            let mut a = stream(5);
            let mut b = stream(5);
            let fa = FaultInjector::new(42).draw(&a, kind).expect("five blocks are a target");
            let fb = FaultInjector::new(42).draw(&b, kind).expect("five blocks are a target");
            assert_eq!(fa, fb);
            fa.apply(&mut a);
            fb.apply(&mut b);
            assert_eq!(a, b);
        }
    }

    #[test]
    fn every_kind_is_caught_by_stream_verify() {
        for kind in FaultKind::ALL {
            for seed in 0..32u64 {
                let mut s = stream(6);
                // Every payload differs, so even a reorder changes the stream.
                let fault = FaultInjector::new(seed).draw(&s, kind).expect("six blocks");
                fault.apply(&mut s);
                assert!(s.verify().is_err(), "seed {seed}: {fault} went undetected by verify()");
            }
        }
    }

    #[test]
    fn an_empty_stream_offers_no_site() {
        let s = BlockStream { block_bytes: 32, blocks: vec![], total_uncompressed: 0 };
        for kind in FaultKind::ALL {
            assert_eq!(FaultInjector::new(7).draw(&s, kind), None);
        }
    }

    #[test]
    fn reorder_needs_two_blocks() {
        let s = stream(1);
        assert_eq!(FaultInjector::new(9).draw(&s, FaultKind::ReorderBlocks), None);
    }
}
