//! Machine encoding: placed programs become a flat image of 128-bit code
//! words (four 24-bit action slots + one 32-bit transition), the binary the
//! lane actually executes. Unoccupied addresses hold [`HOLE`]; dispatching
//! into one is a runtime trap, which is how corrupt streams surface on the
//! accelerator.

use crate::effclip::{self, Placement};
use crate::error::UdpError;
use crate::isa::{Action, Block, Cond, Op, Transition, CONDS, OPCODE_SHIFT};
use crate::program::Program;
use crate::verify::{self, VerifyReport};

/// Code word marking an unoccupied address.
pub const HOLE: u128 = u128::MAX;

/// Transition type tags (3 bits).
mod tt {
    pub const HALT: u32 = 0;
    pub const JUMP: u32 = 1;
    pub const DISPATCH_SYM: u32 = 2;
    pub const DISPATCH_PEEK: u32 = 3;
    pub const DISPATCH_REG: u32 = 4;
    pub const BRANCH: u32 = 5;
}

/// [`Transition`] after placement: all control targets are concrete code
/// addresses. Branch fall-through is implicit (`pc + 1`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodedTransition {
    /// Stop.
    Halt,
    /// Unconditional jump to an address.
    Jump(u32),
    /// Consume bits; next = `base + symbol`.
    DispatchSym {
        /// Bits consumed.
        bits: u8,
        /// Group base address.
        base: u32,
    },
    /// Peek bits; next = `base + symbol`.
    DispatchPeek {
        /// Bits peeked.
        bits: u8,
        /// Group base address.
        base: u32,
    },
    /// Next = `base + rs`.
    DispatchReg {
        /// Index register.
        rs: u8,
        /// Group base address.
        base: u32,
    },
    /// Conditional: `taken` or `pc + 1`.
    Branch {
        /// Condition.
        cond: Cond,
        /// Left register.
        rs: u8,
        /// Right register.
        rt: u8,
        /// Target address when the condition holds.
        taken: u32,
    },
}

/// The disassembler's spelling of a terminator.
impl std::fmt::Display for DecodedTransition {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            DecodedTransition::Halt => f.write_str("halt"),
            DecodedTransition::Jump(a) => write!(f, "jump @{a}"),
            DecodedTransition::DispatchSym { bits, base } => {
                write!(f, "dispatch.sym {bits}, @{base}+sym")
            }
            DecodedTransition::DispatchPeek { bits, base } => {
                write!(f, "dispatch.peek {bits}, @{base}+sym")
            }
            DecodedTransition::DispatchReg { rs, base } => {
                write!(f, "dispatch.reg r{rs}, @{base}+r{rs}")
            }
            DecodedTransition::Branch { cond, rs, rt, taken } => {
                write!(f, "{} r{rs}, r{rt}, @{taken}", CONDS[cond as usize].1)
            }
        }
    }
}

/// A code word decoded once at assemble time into a fixed-size record the
/// lane interpreter can index without allocating: the (at most four) action
/// slots are inlined as an array, unused slots padded with a placeholder
/// that [`PredecodedBlock::actions`] never exposes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PredecodedBlock {
    actions: [Action; 4],
    n_actions: u8,
    /// Resolved terminator (identical to the word-at-a-time decode).
    pub transition: DecodedTransition,
}

/// Placeholder filling unused action slots; never executed (`n_actions`
/// bounds every iteration) and a no-op even if it were (`r0` is hardwired).
const PAD_ACTION: Action = Action::Mov { rd: 0, rs: 0 };

impl PredecodedBlock {
    /// Decodes one code word: the occupied action slots compacted in slot
    /// order, then the transition. `None` for holes and malformed words, so
    /// a dispatch into `None` traps identically on both interpreter paths.
    pub fn from_word(w: u128) -> Option<PredecodedBlock> {
        if w == HOLE {
            return None;
        }
        let mut actions = [PAD_ACTION; 4];
        let mut n_actions = 0u8;
        for slot in 0..4 {
            let bits = ((w >> (24 * slot)) & 0xFF_FFFF) as u32;
            if bits == 0 {
                continue;
            }
            actions[n_actions as usize] = decode_action(bits)?;
            n_actions += 1;
        }
        let transition = decode_transition(((w >> 96) & 0xFFFF_FFFF) as u32)?;
        Some(PredecodedBlock { actions, n_actions, transition })
    }

    /// The occupied action slots, in execution order.
    #[inline]
    pub fn actions(&self) -> &[Action] {
        &self.actions[..self.n_actions as usize]
    }

    /// The occupied action slots, for the JIT's sibling analysis to zero a
    /// block's parametric immediates in a copy.
    pub(crate) fn actions_mut(&mut self) -> &mut [Action] {
        &mut self.actions[..self.n_actions as usize]
    }
}

/// An executable image: one code word per address, plus the entry address.
#[derive(Debug, Clone, PartialEq)]
pub struct Image {
    /// Diagnostic name.
    pub name: String,
    /// Code memory.
    pub words: Vec<u128>,
    /// Entry address.
    pub entry: u32,
    /// Packing density achieved by EffCLiP (for reports).
    pub utilization: f64,
    /// Static-analysis verdict attached by the encoder; the lane refuses to
    /// run images whose report carries `Error` findings unless the caller
    /// opts out via [`RunConfig::allow_unverified`](crate::lane::RunConfig).
    pub verify_report: VerifyReport,
    /// One predecoded record per word (`None` ⇔ [`Image::decode`] fails),
    /// built once at encode time; the lane's hot loop indexes this instead
    /// of re-decoding words per dispatch.
    predecoded: Vec<Option<PredecodedBlock>>,
    /// Native x86-64 lowering of the predecode table, shared across clones
    /// (the pages are immutable once published). `None` when the JIT tier
    /// is unsupported, disabled (`RECODE_NO_JIT=1`), or compilation failed
    /// — the lane then runs the interpreter tier.
    jit: Option<std::sync::Arc<crate::jit::LaneJit>>,
}

impl Image {
    /// Code memory footprint in bytes (16 per word).
    pub fn code_bytes(&self) -> usize {
        self.words.len() * 16
    }

    /// Decodes the word at `addr`. Returns `None` for holes or
    /// out-of-range addresses (runtime trap). This is the word-at-a-time
    /// reference path; the lane's hot loop uses [`Image::predecoded`].
    pub fn decode(&self, addr: u32) -> Option<PredecodedBlock> {
        decode_word(*self.words.get(addr as usize)?)
    }

    /// The predecoded record at `addr`; `None` agrees bit-for-bit with
    /// [`Image::decode`] returning `None` (hole, invalid word, or
    /// out-of-range).
    #[inline]
    pub fn predecoded(&self, addr: u32) -> Option<&PredecodedBlock> {
        self.predecoded.get(addr as usize)?.as_ref()
    }

    /// The whole predecode table, one record per word.
    pub(crate) fn predecode_table(&self) -> &[Option<PredecodedBlock>] {
        &self.predecoded
    }

    /// The compiled JIT artifact, when the encoder produced one.
    #[inline]
    pub fn jit(&self) -> Option<&crate::jit::LaneJit> {
        self.jit.as_deref()
    }

    /// Predecodes and lowers `words`; the verify report starts empty.
    fn from_words(name: &str, words: Vec<u128>, entry: u32, utilization: f64) -> Image {
        let predecoded: Vec<Option<PredecodedBlock>> =
            words.iter().map(|&w| PredecodedBlock::from_word(w)).collect();
        let jit = crate::jit::maybe_compile(&words, &predecoded, entry);
        Image {
            name: name.to_string(),
            words,
            entry,
            utilization,
            verify_report: VerifyReport::empty(name.to_string()),
            predecoded,
            jit,
        }
    }

    /// An image straight from code words: predecoded and lowered like any
    /// other, but past the builder's field-range validation and with an
    /// empty verify report (nothing certified, nothing gated). This is how
    /// the differential suite reaches encodings no valid program contains,
    /// such as 57-bit stream reads.
    #[doc(hidden)]
    pub fn from_words_for_test(name: &str, words: Vec<u128>, entry: u32) -> Image {
        Image::from_words(name, words, entry, 0.0)
    }
}

/// Encodes a validated, placed program into an executable image.
///
/// # Errors
/// [`UdpError::Encoding`] for field-range violations (address too large for
/// its encoding slot) or [`UdpError::Placement`] for an invalid placement.
pub fn encode(program: &Program, placement: &Placement) -> Result<Image, UdpError> {
    effclip::verify(program, placement)?;
    let mut words = vec![HOLE; placement.code_len];
    for (bid, block) in program.blocks.iter().enumerate() {
        let addr = placement.block_addr[bid] as usize;
        words[addr] = encode_word(block, placement)?;
    }
    let entry = placement.block_addr[program.entry as usize];
    // The predecode table is lowered to native code before verification so
    // the verifier can audit the artifact's digests alongside the table.
    let mut image = Image::from_words(&program.name, words, entry, placement.utilization);
    image.verify_report = verify::verify_image(program, placement, &image);
    Ok(image)
}

/// Convenience: place with EffCLiP then encode.
///
/// # Errors
/// Placement or encoding failures.
pub fn assemble(program: &Program) -> Result<Image, UdpError> {
    let placement = effclip::place(program)?;
    encode(program, &placement)
}

fn encode_word(block: &Block, placement: &Placement) -> Result<u128, UdpError> {
    block.validate()?;
    let mut w: u128 = 0;
    for (slot, action) in block.actions.iter().enumerate() {
        let bits = encode_action(*action)? as u128;
        w |= bits << (24 * slot);
    }
    let t = encode_transition(&block.transition, placement)? as u128;
    w |= t << 96;
    Ok(w)
}

fn encode_action(a: Action) -> Result<u32, UdpError> {
    let (op, values) = a.checked()?;
    let slot = u32::from(op.opcode) << OPCODE_SHIFT;
    Ok(op.operands.iter().zip(values).fold(slot, |slot, (o, v)| slot | o.pack(v)))
}

fn encode_transition(t: &Transition, placement: &Placement) -> Result<u32, UdpError> {
    // A block address or group base, held to the `bits` its field has.
    let fit = |what: &str, a: u32, bits: u32| {
        if a >> bits == 0 {
            Ok(a)
        } else {
            Err(UdpError::Encoding(format!("{what} {a} exceeds {bits} bits")))
        }
    };
    let addr_of = |what: &str, b: u32, bits| fit(what, placement.block_addr[b as usize], bits);
    let base_of = |g: u32| fit("group base", placement.group_base[g as usize], 24);
    Ok(match *t {
        Transition::Halt => tt::HALT << 29,
        Transition::Jump(b) => (tt::JUMP << 29) | addr_of("jump target address", b, 24)?,
        Transition::DispatchSym { bits, group } => {
            (tt::DISPATCH_SYM << 29) | ((bits as u32) << 24) | base_of(group)?
        }
        Transition::DispatchPeek { bits, group } => {
            (tt::DISPATCH_PEEK << 29) | ((bits as u32) << 24) | base_of(group)?
        }
        Transition::DispatchReg { rs, group } => {
            (tt::DISPATCH_REG << 29) | ((rs as u32) << 24) | base_of(group)?
        }
        Transition::Branch { cond, rs, rt, taken, .. } => {
            (tt::BRANCH << 29)
                | ((cond as u32) << 26)
                | ((rs as u32) << 22)
                | ((rt as u32) << 18)
                | addr_of("branch target address", taken, 18)?
        }
    })
}

/// Decodes one code word; `None` if any field is malformed.
pub fn decode_word(w: u128) -> Option<PredecodedBlock> {
    PredecodedBlock::from_word(w)
}

fn decode_action(slot: u32) -> Option<Action> {
    let op = Op::by_opcode(slot >> OPCODE_SHIFT)?;
    Some(Action::compose(op, op.values(|o| o.unpack(slot))))
}

fn decode_transition(t: u32) -> Option<DecodedTransition> {
    let (bits, base) = (((t >> 24) & 0x1F) as u8, t & 0xFF_FFFF);
    Some(match t >> 29 {
        tt::HALT => DecodedTransition::Halt,
        tt::JUMP => DecodedTransition::Jump(base),
        tt::DISPATCH_SYM => DecodedTransition::DispatchSym { bits, base },
        tt::DISPATCH_PEEK => DecodedTransition::DispatchPeek { bits, base },
        tt::DISPATCH_REG => DecodedTransition::DispatchReg { rs: bits & 0xF, base },
        tt::BRANCH => DecodedTransition::Branch {
            cond: CONDS.get(((t >> 26) & 0x7) as usize)?.0,
            rs: ((t >> 22) & 0xF) as u8,
            rt: ((t >> 18) & 0xF) as u8,
            taken: t & 0x3_FFFF,
        },
        _ => return None,
    })
}

impl Image {
    /// Disassembles the whole image as an address-annotated listing — the
    /// inspection tool a real accelerator toolchain ships with. Holes print
    /// as `--------`.
    pub fn disassemble(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ =
            writeln!(out, "; {} — {} words, entry @{}", self.name, self.words.len(), self.entry);
        for (addr, &w) in self.words.iter().enumerate() {
            if w == HOLE {
                let _ = writeln!(out, "{addr:6}: --------");
                continue;
            }
            let Some(block) = decode_word(w) else {
                let _ = writeln!(out, "{addr:6}: <invalid word {w:#034x}>");
                continue;
            };
            let marker = if addr as u32 == self.entry { " <entry>" } else { "" };
            let _ = writeln!(out, "{addr:6}:{marker}");
            for a in block.actions() {
                let _ = writeln!(out, "        {a}");
            }
            let t = block.transition;
            let _ = match t {
                DecodedTransition::Branch { .. } => {
                    writeln!(out, "        {t} ; else @{}", addr + 1)
                }
                _ => writeln!(out, "        {t}"),
            };
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::{Block, Width, OPS};
    use crate::program::ProgramBuilder;
    use recode_sparse::util::for_each_case;

    /// The first action of a one-statement program, through the assembler.
    fn assemble_one(stmt: &str) -> Result<Action, crate::asm::AsmError> {
        let src = format!(".entry m\nm:\n    {stmt}\n    halt\n");
        crate::asm::assemble_text("t", &src).map(|p| p.blocks[p.entry as usize].actions[0])
    }

    #[test]
    fn action_encode_decode_round_trip() {
        // Every row x in-range operands (all lowest, all highest, then
        // random): the action, its code word and its assembly text all
        // denote the same thing.
        let mut case = 0;
        for_each_case(0x15A_0001, 64, |rng| {
            for op in &OPS {
                let values = op.values(|o| match case {
                    0 => o.lo,
                    1 => o.hi,
                    _ => rng.range(o.lo.into(), i64::from(o.hi) + 1) as i32,
                });
                let a = Action::compose(op, values);
                assert_eq!(a.decompose(), Some((op, values)));
                let enc = encode_action(a).unwrap();
                assert_eq!(enc >> OPCODE_SHIFT, u32::from(op.opcode));
                assert_eq!(decode_action(enc), Some(a), "encoding {enc:#08x}");
                assert_eq!(assemble_one(&a.to_string()), Ok(a), "`{a}`");
            }
            case += 1;
        });
        // Every row x each operand one step outside its range: validation,
        // the assembler and the encoder all refuse, the assembler at the
        // statement's line.
        for op in &OPS {
            for (i, o) in op.operands.iter().enumerate() {
                for bad in [o.lo - 1, o.hi + 1] {
                    let mut values = op.values(|o| o.lo);
                    values[i] = bad;
                    let a = Action::compose(op, values);
                    assert!(a.validate().is_err(), "{a:?}");
                    assert!(encode_action(a).is_err(), "{a:?}");
                    let mut stmt = String::new();
                    op.write(&mut stmt, &values).unwrap();
                    let e = assemble_one(&stmt).expect_err("out-of-range operand assembled");
                    assert_eq!(e.line, 3, "{e}");
                    assert!(e.msg.contains(op.mnemonic) && !e.msg.contains("program error"), "{e}");
                }
            }
        }
        // The one action without a row.
        let a = Action::StoreInc { rs: 1, base: 2, width: Width::B2 };
        assert_eq!(a.decompose(), None);
        assert!(a.validate().is_err() && encode_action(a).is_err());
    }

    #[test]
    fn builtin_image_words_are_pinned() {
        // Digests of the three builtin images: delta as of its running-sum
        // quad loop, Huffman and Snappy as of the programs whose handlers
        // dispatch the next code.
        use crate::jit::fnv1a_words;
        use crate::progs::{delta, huffman, snappy};
        assert_eq!(fnv1a_words(&snappy::build().unwrap().words), 0x60f5_b915_414b_16f7);
        assert_eq!(fnv1a_words(&delta::build().unwrap().words), 0xbf25_1ef5_09f9_6022);
        assert_eq!(fnv1a_words(&huffman::compile(&[8; 256]).unwrap().words), 0x225a_aae8_16fa_f1e5);
    }

    #[test]
    fn store_encode_decode_round_trip() {
        // Store aliases rs into the rd slot; verify each width separately.
        for width in [Width::B1, Width::B2, Width::B4, Width::B8] {
            let a = Action::Store { rs: 9, base: 9, offset: 11, width };
            let dec = decode_action(encode_action(a).unwrap()).unwrap();
            match dec {
                Action::Store { rs, offset, width: w, .. } => {
                    assert_eq!((rs, offset, w), (9, 11, width));
                }
                other => panic!("decoded {other:?}"),
            }
        }
    }

    #[test]
    fn whole_program_round_trips_through_binary() {
        let mut pb = ProgramBuilder::new("roundtrip");
        let done = pb.block(Block { actions: vec![], transition: Transition::Halt });
        let members: Vec<_> = (0..4)
            .map(|i| {
                pb.block(Block {
                    actions: vec![Action::LoadImm { rd: 1, imm: i }],
                    transition: Transition::Jump(done),
                })
            })
            .collect();
        let g = pb.group(members.iter().enumerate().map(|(i, &b)| (i as u32, b)).collect());
        let start = pb.block(Block {
            actions: vec![Action::InRem { rd: 2 }],
            transition: Transition::DispatchSym { bits: 2, group: g },
        });
        pb.entry(start);
        let p = pb.build().unwrap();
        let image = assemble(&p).unwrap();

        // Every placed block decodes back to its logical content.
        let placement = crate::effclip::place(&p).unwrap();
        for (bid, block) in p.blocks.iter().enumerate() {
            let dec = image.decode(placement.block_addr[bid]).expect("placed block decodes");
            assert_eq!(dec.actions(), block.actions, "block {bid}");
        }
        // Entry resolves.
        assert!(image.decode(image.entry).is_some());
    }

    #[test]
    fn holes_decode_to_none() {
        let mut pb = ProgramBuilder::new("holey");
        let m = pb.block(Block { actions: vec![], transition: Transition::Halt });
        // Sparse group: offsets 0 and 5 leave holes at 1..5 until singletons
        // fill them — here there are no other blocks except entry, so at
        // least some holes remain.
        let m2 = pb.block(Block { actions: vec![], transition: Transition::Halt });
        let g = pb.group(vec![(0, m), (5, m2)]);
        let start = pb.block(Block {
            actions: vec![],
            transition: Transition::DispatchSym { bits: 3, group: g },
        });
        pb.entry(start);
        let p = pb.build().unwrap();
        let image = assemble(&p).unwrap();
        let holes = image.words.iter().filter(|&&w| w == HOLE).count();
        assert!(holes > 0);
        let hole_addr = image.words.iter().position(|&w| w == HOLE).unwrap();
        assert!(image.decode(hole_addr as u32).is_none());
        assert!(image.decode(10_000).is_none());
    }

    #[test]
    fn disassembly_lists_every_placed_block() {
        let image = crate::progs::delta::build().unwrap();
        let text = image.disassemble();
        assert!(text.contains("insymle r4, 4"), "{text}");
        assert!(text.contains("storewi r1, r2"));
        assert!(text.contains("halt"));
        assert!(text.contains("<entry>"));
        // One address line per word.
        assert_eq!(text.lines().filter(|l| l.contains(':')).count(), image.words.len());
    }

    #[test]
    fn garbage_words_decode_to_none_or_valid() {
        // Fuzz the decoder: must never panic.
        let mut x = 0xDEADBEEFu128;
        for _ in 0..10_000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let _ = decode_word(x);
        }
    }
}
