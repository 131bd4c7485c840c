//! Snappy decode as a UDP program.
//!
//! This is the paper's flagship multi-way-dispatch workload: the element
//! format is tag-value pairs, "with the corresponding operation to decode
//! the value stored in the tag field" (§III-E). The program peeks at each tag
//! byte and dispatches through a **256-entry `dispatch.peek 8` group** —
//! every tag value gets its own handler block with the literal length / copy
//! length / offset split baked in at program-construction time, so there is
//! no branch tree and no prediction, just `base + tag`. A handler's first
//! action is `skip 8`, past its tag.
//!
//! **The dispatch is the loop.** Every element ends in the next tag's
//! dispatch, as the transition of whichever block moves its last bytes: there
//! is no loop head. `main` is left only as an action-free block with that
//! transition, because a branch's fall-through has to be a block of its own
//! (the byte loop's), and so is the preamble's exit. The end of the stream is
//! asked for in one place, as in the Huffman program: `peek` pads an
//! exhausted stream with zeros, so only **tag window 0** can be the end. Its
//! slot holds `guard` (`inrem r3; jump chk`), and `chk` (`beq r3, r0, done`)
//! falls through to tag 0x00's handler, a one-byte literal. A stream cut
//! inside an element still traps `StreamUnderflow` in the handler's `skip` or
//! `insymle`, one cut on an element boundary halts short and is refused by
//! the decoder's length check, and stray bits behind the last element reach a
//! handler (by way of `guard` on window 0) that cannot skip 8 of them.
//!
//! What the tag says is decided here, not on the lane. A length the tag
//! holds becomes a straight **chain** of move pairs (`insymle`/`storeinc`
//! for a literal, `loadinc`/`storeinc` for a copy), two pairs per 4-action
//! block, widest moves first: 8-byte pairs, then a 4, then single bytes
//! (`StoreInc` has no 2-byte row). The one thing a copy's tag does not say
//! is how far back its source lies, and a move may only be as wide as the
//! offset, so a copy handler computes offset and source and jumps to its
//! length's **tier test**: one or two action-free branches (`offset < 8`,
//! `offset < 4`) that fall into the length's chain of 8-byte or 4-byte
//! moves, or leave for the byte loop (offsets 1..3: Snappy's run extension).
//! A `copy1` tag with offset bits of its own (offset ≥ 256) skips the test.
//!
//! Three loops remain behind the preamble's, each owning its back-edge
//! branch and running against a limit cursor instead of counting down: an
//! extended-length literal moves 16 bytes per 5-cycle trip, a copy of more
//! than 16 bytes at offset 4..7 moves 8, the byte loop 1 per 3 cycles. The
//! two wide loops hand what is left (fewer bytes than one trip) to a
//! register dispatch into a small group of chains.
//!
//! Three placement rules shape the blocks (see `crate::program`):
//! a member of a dispatch group cannot end in a branch (EffCLiP would want
//! its fall-through in the next member's slot), so a tier test, and `chk`, is
//! a block of its own; a block may be the fall-through of only one branch, so
//! the first block of a chain behind a tier test is private to it while
//! everything behind that is shared between all chains with the same moves
//! left; and a jump may target anything, which is what lets the sharing
//! happen.
//!
//! Register roles: `r2` output cursor · `r3` remaining-bits (`guard`, the
//! preamble) · `r4` byte-loop limit / bytes left after a loop · `r5` offset ·
//! `r6` data · `r7` copy-source cursor · `r8` limit cursor of the wide loops
//! · `r9` constant 0x80 · `r12` constant 4 · `r13` constant 8.

use crate::error::UdpError;
use crate::isa::{Action, Block, BlockId, Cond, Transition, Width, MAX_ACTIONS_PER_BLOCK};
use crate::machine::{assemble, Image};
use crate::program::ProgramBuilder;
use std::collections::HashMap;

/// Where a chain's bytes come from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Source {
    /// The input stream: a literal.
    Stream,
    /// The output written so far, through `r7`: a copy.
    Back,
}

impl Source {
    /// One move of `width` bytes to the output cursor.
    fn pair(self, width: Width) -> [Action; 2] {
        let get = match self {
            Source::Stream => Action::InSymLe { rd: 6, bytes: width.bytes() as u8 },
            Source::Back => Action::LoadInc { rd: 6, base: 7, width },
        };
        [get, Action::StoreInc { rs: 6, base: 2, width }]
    }
}

/// The moves of a `len`-byte chain, none wider than `widest` bytes: as many
/// of the widest as fit, then the next width down.
fn widths(len: usize, widest: usize) -> Vec<Width> {
    let mut out = Vec::new();
    let mut left = len;
    for width in [Width::B8, Width::B4, Width::B1] {
        let w = width.bytes();
        if w <= widest {
            out.extend(std::iter::repeat_n(width, left / w));
            left %= w;
        }
    }
    out
}

/// A two-way test that falls into `fallthrough`.
fn branch(cond: Cond, rs: u8, rt: u8, taken: BlockId, fallthrough: BlockId) -> Transition {
    Transition::Branch { cond, rs, rt, taken, fallthrough }
}

/// The program under construction.
struct Builder {
    pb: ProgramBuilder,
    /// The next element's tag dispatch, where every chain ends.
    next: Transition,
    /// Shared chain blocks, by what they and the blocks behind them move.
    shared: HashMap<(Source, Vec<Width>), BlockId>,
}

impl Builder {
    /// The shared block that moves `widths` (at least one) and, behind the
    /// blocks it jumps to, dispatches the next tag.
    fn chain(&mut self, from: Source, widths: &[Width]) -> BlockId {
        let key = (from, widths.to_vec());
        if let Some(&block) = self.shared.get(&key) {
            return block;
        }
        let block = self.head(Vec::new(), from, widths);
        self.shared.insert(key, block);
        block
    }

    /// A block of its own (a group member, a fall-through): `actions`, as
    /// many whole moves of `widths` as its free slots hold, and the next
    /// tag's dispatch when that was the last of them, else a jump to the
    /// shared chain of the rest.
    fn head(&mut self, mut actions: Vec<Action>, from: Source, widths: &[Width]) -> BlockId {
        let here = ((MAX_ACTIONS_PER_BLOCK - actions.len()) / 2).min(widths.len());
        for &width in &widths[..here] {
            actions.extend(from.pair(width));
        }
        let transition = if here == widths.len() {
            self.next
        } else {
            Transition::Jump(self.chain(from, &widths[here..]))
        };
        self.pb.block(Block { actions, transition })
    }

    /// A loop that moves two `width`-byte pairs per trip while a whole trip
    /// lies below the end of the element: `r8` holds that end less
    /// `trip − 1`, so the loop runs while the output cursor is below it, and
    /// then `r2 − r8` in `0..trip` says how few bytes are left — slot `s` of
    /// the dispatch behind the loop is the chain that moves `trip − 1 − s`.
    /// Returns the loop block and that dispatch, for a caller that may have
    /// no whole trip to make.
    fn wide_loop(&mut self, from: Source, width: Width) -> (BlockId, BlockId) {
        let trip = 2 * width.bytes();
        let slots = (0..trip)
            .map(|s| (s as u32, self.head(Vec::new(), from, &widths(trip - 1 - s, width.bytes()))))
            .collect();
        let group = self.pb.group(slots);
        let rest = self.pb.block(Block {
            actions: vec![Action::Sub { rd: 4, rs: 2, rt: 8 }],
            transition: Transition::DispatchReg { rs: 4, group },
        });
        let body = self.pb.reserve();
        let actions = [from.pair(width), from.pair(width)].concat();
        self.pb.define(body, Block { actions, transition: branch(Cond::Ltu, 2, 8, body, rest) });
        (body, rest)
    }
}

/// Longest copy a tag can ask for.
const MAX_COPY: usize = 64;
/// Longest copy at offset 4..7 that is a straight chain; above it, a loop.
const MAX_NARROW_CHAIN: usize = 16;

/// Builds the (table-independent) Snappy decode image.
///
/// # Errors
/// Construction/placement failures (a bug, not a data condition).
pub fn build() -> Result<Image, UdpError> {
    let mut pb = ProgramBuilder::new("udp-snappy-decode");
    // Every chain ends in the next tag's dispatch; the group is filled in
    // once its members exist.
    let tags = pb.group(vec![]);
    let next = Transition::DispatchPeek { bits: 8, group: tags };
    let mut b = Builder { pb, next, shared: HashMap::new() };

    // done: r15 = out length; halt.
    let done = b.pb.block(Block {
        actions: vec![Action::Sub { rd: 15, rs: 2, rt: 14 }],
        transition: Transition::Halt,
    });

    // ---- offsets 1..3: byte loop up to r4, falling into the next tag ----
    // (`main` dispatches and does nothing else: a branch's fall-through has
    // to be a block of its own.)
    let main = b.pb.block(Block { actions: vec![], transition: next });
    let byte_loop = b.pb.reserve();
    b.pb.define(
        byte_loop,
        Block {
            actions: Source::Back.pair(Width::B1).to_vec(),
            transition: branch(Cond::Ltu, 2, 4, byte_loop, main),
        },
    );

    // ---- copies of 4..=64 bytes: per length, where a handler enters ----
    // `test[len]` when the offset has to be looked at, `wide[len]` when the
    // tag says it is at least 8 (slots below 4 are never read).
    let (narrow_loop, _) = b.wide_loop(Source::Back, Width::B4);
    let mut test = [main; MAX_COPY + 1];
    let mut wide = [main; MAX_COPY + 1];
    for len in 4..=MAX_COPY {
        let bytes = b.pb.block(Block {
            actions: vec![Action::AddI { rd: 4, rs: 2, imm: len as i16 }],
            transition: Transition::Jump(byte_loop),
        });
        let narrow = if len <= MAX_NARROW_CHAIN {
            b.head(Vec::new(), Source::Back, &widths(len, 4))
        } else {
            b.pb.block(Block {
                actions: vec![Action::AddI { rd: 8, rs: 2, imm: len as i16 - 7 }],
                transition: Transition::Jump(narrow_loop),
            })
        };
        let test4 = b
            .pb
            .block(Block { actions: vec![], transition: branch(Cond::Ltu, 5, 12, bytes, narrow) });
        (test[len], wide[len]) = if len < 8 {
            (test4, narrow)
        } else {
            let chain = b.head(Vec::new(), Source::Back, &widths(len, 8));
            let test8 = b.pb.block(Block {
                actions: vec![],
                transition: branch(Cond::Ltu, 5, 13, test4, chain),
            });
            (test8, chain)
        };
    }

    // ---- extended-length literal: r4 = length - 1 ----
    let (literal_loop, literal_rest) = b.wide_loop(Source::Stream, Width::B8);
    let literal_test = b.pb.block(Block {
        actions: vec![],
        transition: branch(Cond::Geu, 2, 8, literal_rest, literal_loop),
    });

    // ---- 256 tag handlers, each behind the `dispatch.peek 8` of its tag ----
    let skip = Action::SkipSym { bits: 8 };
    // Past the tag: a copy's offset, in `bytes` stream bytes, and its source.
    let copy =
        |bytes| vec![skip, Action::InSymLe { rd: 5, bytes }, Action::Sub { rd: 7, rs: 2, rt: 5 }];
    let mut handlers = Vec::with_capacity(256);
    for tag in 0..=255u32 {
        let field = (tag >> 2) as usize;
        let handler = match tag & 0b11 {
            // Literal, its length in the tag or in 1..=4 bytes behind it.
            0 if field < 60 => b.head(vec![skip], Source::Stream, &widths(field + 1, 8)),
            0 => b.pb.block(Block {
                actions: vec![
                    skip,
                    Action::InSymLe { rd: 4, bytes: (field - 59) as u8 },
                    Action::Add { rd: 8, rs: 2, rt: 4 },
                    Action::AddI { rd: 8, rs: 8, imm: -14 },
                ],
                transition: Transition::Jump(literal_test),
            }),
            // Copy, 1-byte offset: len 4..11, three more offset bits in the
            // tag — `addi` takes them off the source 1024 at a time, and with
            // any of them set the offset is 256 or more: no test. From 1280
            // on the second `addi` does not fit beside the rest and takes a
            // block of its own.
            1 => {
                let (len, mut high) = ((field & 0x7) + 4, (tag >> 5 << 8) as i16);
                let mut target = if high == 0 { test[len] } else { wide[len] };
                let mut actions = copy(1);
                while high > 0 {
                    actions.push(Action::AddI { rd: 7, rs: 7, imm: -high.min(1024) });
                    high -= high.min(1024);
                }
                let spill = actions.split_off(actions.len().min(MAX_ACTIONS_PER_BLOCK));
                if !spill.is_empty() {
                    target =
                        b.pb.block(Block { actions: spill, transition: Transition::Jump(target) });
                }
                b.pb.block(Block { actions, transition: Transition::Jump(target) })
            }
            // Copy, 2- or 4-byte offset: len 1..64. Under 4 bytes there is
            // nothing to test for.
            low => {
                let (len, actions) = (field + 1, copy(if low == 2 { 2 } else { 4 }));
                if len < 4 {
                    b.head(actions, Source::Back, &widths(len, 1))
                } else {
                    b.pb.block(Block { actions, transition: Transition::Jump(test[len]) })
                }
            }
        };
        handlers.push((tag, handler));
    }

    // ---- the end of the stream ----
    // `peek` pads an exhausted stream with zeros, so only tag window 0 can be
    // the end: its slot alone asks (`guard`), and `chk` falls through to tag
    // 0x00's handler, a one-byte literal, when bits are left.
    let chk = b
        .pb
        .block(Block { actions: vec![], transition: branch(Cond::Eq, 3, 0, done, handlers[0].1) });
    handlers[0].1 = b
        .pb
        .block(Block { actions: vec![Action::InRem { rd: 3 }], transition: Transition::Jump(chk) });
    b.pb.set_group(tags, handlers);

    // ---- varint preamble skip ----
    // Guarded per byte: a truncated preamble (every byte with the
    // continuation bit set) must reach the first tag's dispatch, and with it
    // the end of the stream, not run the stream unit dry.
    let varint = b.pb.reserve();
    let first = b.pb.block(Block { actions: vec![], transition: next });
    let varint_body = b.pb.block(Block {
        actions: vec![Action::InSymLe { rd: 6, bytes: 1 }, Action::And { rd: 7, rs: 6, rt: 9 }],
        transition: branch(Cond::Ne, 7, 0, varint, first),
    });
    b.pb.define(
        varint,
        Block {
            actions: vec![Action::InRem { rd: 3 }],
            transition: branch(Cond::Eq, 3, 0, first, varint_body),
        },
    );

    // ---- init ----
    let init = b.pb.block(Block {
        actions: vec![
            Action::Mov { rd: 2, rs: 14 },
            Action::LoadImm { rd: 13, imm: 8 },
            Action::LoadImm { rd: 12, imm: 4 },
            Action::LoadImm { rd: 9, imm: 128 },
        ],
        transition: Transition::Jump(varint),
    });
    b.pb.entry(init);

    let program = b.pb.build()?;
    assemble(&program)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lane::{Lane, RunConfig};
    use recode_codec::snappy;

    fn udp_decode(compressed: &[u8]) -> Vec<u8> {
        let image = build().unwrap();
        let mut lane = Lane::new();
        lane.run(&image, compressed, compressed.len() * 8, RunConfig::default()).unwrap().output
    }

    fn check(data: &[u8]) {
        let c = snappy::compress(data);
        assert_eq!(udp_decode(&c), data, "UDP snappy decode mismatch ({} bytes)", data.len());
    }

    #[test]
    fn literals_only() {
        check(b"");
        check(b"x");
        check(b"The quick brown fox jumps over the lazy dog");
    }

    #[test]
    fn runs_and_overlapping_copies() {
        check(&vec![7u8; 3000]);
        let periodic: Vec<u8> = (0..2000).map(|i| (i % 3) as u8).collect();
        check(&periodic);
        let periodic5: Vec<u8> = (0..2000).map(|i| (i % 5) as u8).collect();
        check(&periodic5);
    }

    #[test]
    fn far_copies_and_long_literals() {
        // > 60-byte literal forces the extended-length handlers.
        let mut data: Vec<u8> =
            (0..1000u32).flat_map(|i| i.wrapping_mul(2654435761).to_le_bytes()).collect();
        let head = data[..200].to_vec();
        data.extend_from_slice(&head);
        check(&data);
    }

    #[test]
    fn delta_like_small_words_match_host_decoder() {
        let mut data = Vec::new();
        for i in 0..2048u32 {
            data.extend_from_slice(&(if i % 7 == 0 { 9u32 } else { 2 }).to_le_bytes());
        }
        let c = snappy::compress(&data);
        assert_eq!(udp_decode(&c), snappy::decompress(&c).unwrap());
    }

    #[test]
    fn full_8kb_block_throughput_is_plausible() {
        // The paper's single-lane geomean is 21.7 us per 8 KB block for the
        // whole DSH pipeline; the snappy stage alone must be well under that.
        let data: Vec<u8> = (0..2048u32).flat_map(|i| ((i / 5) % 300).to_le_bytes()).collect();
        assert_eq!(data.len(), 8192);
        let c = snappy::compress(&data);
        let image = build().unwrap();
        let mut lane = Lane::new();
        let r = lane.run(&image, &c, c.len() * 8, RunConfig::default()).unwrap();
        assert_eq!(r.output, data);
        let us = r.cycles as f64 / 1.6e9 * 1e6;
        assert!(us < 25.0, "snappy stage took {us:.1} us for one 8 KB block");
    }
}
