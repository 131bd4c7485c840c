//! Machine encoding: placed programs become a flat image of 128-bit code
//! words (four 24-bit action slots + one 32-bit transition), the binary the
//! lane actually executes. Unoccupied addresses hold [`HOLE`]; dispatching
//! into one is a runtime trap, which is how corrupt streams surface on the
//! accelerator.

use crate::effclip::{self, Placement};
use crate::error::UdpError;
use crate::isa::{Action, Block, Cond, Transition, Width};
use crate::program::Program;
use crate::verify::{self, VerifyConfig, VerifyReport};

/// Code word marking an unoccupied address.
pub const HOLE: u128 = u128::MAX;

/// Action opcodes (5 bits). 0 = empty slot.
mod op {
    /// Opcode 0 marks an empty action slot (checked by the decoder).
    #[allow(dead_code)]
    pub const NONE: u32 = 0;
    pub const LOAD_IMM: u32 = 1;
    pub const MOV: u32 = 2;
    pub const ADD: u32 = 3;
    pub const SUB: u32 = 4;
    pub const AND: u32 = 5;
    pub const OR: u32 = 6;
    pub const XOR: u32 = 7;
    pub const ADDI: u32 = 8;
    pub const SHLI: u32 = 9;
    pub const SHRI: u32 = 10;
    pub const LOAD_B: u32 = 11;
    pub const LOAD_H: u32 = 12;
    pub const LOAD_W: u32 = 13;
    pub const LOAD_D: u32 = 14;
    pub const STORE_B: u32 = 15;
    pub const STORE_H: u32 = 16;
    pub const STORE_W: u32 = 17;
    pub const STORE_D: u32 = 18;
    pub const IN_SYM: u32 = 19;
    pub const IN_SYM_LE: u32 = 20;
    pub const PEEK_SYM: u32 = 21;
    pub const SKIP_SYM: u32 = 22;
    pub const SKIP_REG: u32 = 23;
    pub const IN_REM: u32 = 24;
    pub const LOAD_B_INC: u32 = 25;
    pub const LOAD_W_INC: u32 = 26;
    pub const LOAD_D_INC: u32 = 27;
    pub const STORE_B_INC: u32 = 28;
    pub const STORE_W_INC: u32 = 29;
    pub const STORE_D_INC: u32 = 30;
    pub const LOAD_H_INC: u32 = 31;
}

/// Transition type tags (3 bits).
mod tt {
    pub const HALT: u32 = 0;
    pub const JUMP: u32 = 1;
    pub const DISPATCH_SYM: u32 = 2;
    pub const DISPATCH_PEEK: u32 = 3;
    pub const DISPATCH_REG: u32 = 4;
    pub const BRANCH: u32 = 5;
}

/// A block after placement: all control targets are concrete addresses.
/// Branch fall-through is implicit (`pc + 1`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodedBlock {
    /// Straight-line actions.
    pub actions: Vec<Action>,
    /// Resolved terminator.
    pub transition: DecodedTransition,
}

/// [`Transition`] with numeric code addresses.
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
    /// Predecodes one code word; `None` for holes and malformed words —
    /// exactly the cases where [`decode_word`] fails, so a dispatch into
    /// `None` traps identically on both interpreter paths.
    pub fn from_word(w: u128) -> Option<PredecodedBlock> {
        if w == HOLE {
            return None;
        }
        let mut actions = [PAD_ACTION; 4];
        let (n_actions, transition) = decode_word_into(w, &mut actions)?;
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
    pub fn decode(&self, addr: u32) -> Option<DecodedBlock> {
        let w = *self.words.get(addr as usize)?;
        if w == HOLE {
            return None;
        }
        decode_word(w)
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
    image.verify_report =
        verify::verify_image(program, placement, &image, &VerifyConfig::default());
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
    a.validate()?;
    let r = |x: u8| x as u32;
    let enc = match a {
        Action::LoadImm { rd, imm } => {
            (op::LOAD_IMM << 19) | (r(rd) << 15) | ((imm as u32) & 0x7FFF)
        }
        Action::Mov { rd, rs } => (op::MOV << 19) | (r(rd) << 15) | (r(rs) << 11),
        Action::Add { rd, rs, rt } => {
            (op::ADD << 19) | (r(rd) << 15) | (r(rs) << 11) | (r(rt) << 7)
        }
        Action::Sub { rd, rs, rt } => {
            (op::SUB << 19) | (r(rd) << 15) | (r(rs) << 11) | (r(rt) << 7)
        }
        Action::And { rd, rs, rt } => {
            (op::AND << 19) | (r(rd) << 15) | (r(rs) << 11) | (r(rt) << 7)
        }
        Action::Or { rd, rs, rt } => (op::OR << 19) | (r(rd) << 15) | (r(rs) << 11) | (r(rt) << 7),
        Action::Xor { rd, rs, rt } => {
            (op::XOR << 19) | (r(rd) << 15) | (r(rs) << 11) | (r(rt) << 7)
        }
        Action::AddI { rd, rs, imm } => {
            (op::ADDI << 19) | (r(rd) << 15) | (r(rs) << 11) | ((imm as u32) & 0x7FF)
        }
        Action::ShlI { rd, rs, amount } => {
            (op::SHLI << 19) | (r(rd) << 15) | (r(rs) << 11) | ((amount as u32) << 5)
        }
        Action::ShrI { rd, rs, amount } => {
            (op::SHRI << 19) | (r(rd) << 15) | (r(rs) << 11) | ((amount as u32) << 5)
        }
        Action::Load { rd, base, offset, width } => {
            let o = match width {
                Width::B1 => op::LOAD_B,
                Width::B2 => op::LOAD_H,
                Width::B4 => op::LOAD_W,
                Width::B8 => op::LOAD_D,
            };
            (o << 19) | (r(rd) << 15) | (r(base) << 11) | ((offset as u32) & 0x7FF)
        }
        Action::Store { rs, base, offset, width } => {
            let o = match width {
                Width::B1 => op::STORE_B,
                Width::B2 => op::STORE_H,
                Width::B4 => op::STORE_W,
                Width::B8 => op::STORE_D,
            };
            (o << 19) | (r(rs) << 15) | (r(base) << 11) | ((offset as u32) & 0x7FF)
        }
        Action::LoadInc { rd, base, width } => {
            let o = match width {
                Width::B1 => op::LOAD_B_INC,
                Width::B2 => op::LOAD_H_INC,
                Width::B4 => op::LOAD_W_INC,
                Width::B8 => op::LOAD_D_INC,
            };
            (o << 19) | (r(rd) << 15) | (r(base) << 11)
        }
        Action::StoreInc { rs, base, width } => {
            let o = match width {
                Width::B1 => op::STORE_B_INC,
                // The 5-bit opcode space has no row left for a 2-byte
                // post-increment store; no decoder program needs one.
                Width::B2 => {
                    return Err(UdpError::Encoding("StoreInc does not support 2-byte width".into()))
                }
                Width::B4 => op::STORE_W_INC,
                Width::B8 => op::STORE_D_INC,
            };
            (o << 19) | (r(rs) << 15) | (r(base) << 11)
        }
        Action::InSym { rd, bits } => (op::IN_SYM << 19) | (r(rd) << 15) | ((bits as u32) << 9),
        Action::InSymLe { rd, bytes } => {
            (op::IN_SYM_LE << 19) | (r(rd) << 15) | ((bytes as u32) << 9)
        }
        Action::PeekSym { rd, bits } => (op::PEEK_SYM << 19) | (r(rd) << 15) | ((bits as u32) << 9),
        Action::SkipSym { bits } => (op::SKIP_SYM << 19) | ((bits as u32) << 13),
        Action::SkipReg { rs } => (op::SKIP_REG << 19) | (r(rs) << 15),
        Action::InRem { rd } => (op::IN_REM << 19) | (r(rd) << 15),
    };
    Ok(enc)
}

fn encode_transition(t: &Transition, placement: &Placement) -> Result<u32, UdpError> {
    let addr_of = |b: u32| placement.block_addr[b as usize];
    let base_of = |g: u32| placement.group_base[g as usize];
    let enc = match *t {
        Transition::Halt => tt::HALT << 29,
        Transition::Jump(b) => {
            let a = addr_of(b);
            if a >= (1 << 24) {
                return Err(UdpError::Encoding(format!("jump target address {a} exceeds 24 bits")));
            }
            (tt::JUMP << 29) | a
        }
        Transition::DispatchSym { bits, group } => {
            let base = base_of(group);
            if base >= (1 << 24) {
                return Err(UdpError::Encoding(format!("group base {base} exceeds 24 bits")));
            }
            (tt::DISPATCH_SYM << 29) | ((bits as u32) << 24) | base
        }
        Transition::DispatchPeek { bits, group } => {
            let base = base_of(group);
            if base >= (1 << 24) {
                return Err(UdpError::Encoding(format!("group base {base} exceeds 24 bits")));
            }
            (tt::DISPATCH_PEEK << 29) | ((bits as u32) << 24) | base
        }
        Transition::DispatchReg { rs, group } => {
            let base = base_of(group);
            if base >= (1 << 24) {
                return Err(UdpError::Encoding(format!("group base {base} exceeds 24 bits")));
            }
            (tt::DISPATCH_REG << 29) | ((rs as u32) << 24) | base
        }
        Transition::Branch { cond, rs, rt, taken, .. } => {
            let a = addr_of(taken);
            if a >= (1 << 18) {
                return Err(UdpError::Encoding(format!(
                    "branch target address {a} exceeds 18 bits"
                )));
            }
            (tt::BRANCH << 29)
                | ((cond as u32) << 26)
                | ((rs as u32) << 22)
                | ((rt as u32) << 18)
                | a
        }
    };
    Ok(enc)
}

/// Decodes one code word; `None` if any field is malformed.
pub fn decode_word(w: u128) -> Option<DecodedBlock> {
    let mut buf = [PAD_ACTION; 4];
    let (n, transition) = decode_word_into(w, &mut buf)?;
    Some(DecodedBlock { actions: buf[..n as usize].to_vec(), transition })
}

/// Non-allocating word decode: fills `out` with the occupied action slots
/// (compacted, in slot order) and returns their count plus the transition;
/// `None` if any field is malformed.
fn decode_word_into(w: u128, out: &mut [Action; 4]) -> Option<(u8, DecodedTransition)> {
    let mut n = 0u8;
    for slot in 0..4 {
        let bits = ((w >> (24 * slot)) & 0xFF_FFFF) as u32;
        if bits == 0 {
            continue;
        }
        out[n as usize] = decode_action(bits)?;
        n += 1;
    }
    let transition = decode_transition(((w >> 96) & 0xFFFF_FFFF) as u32)?;
    Some((n, transition))
}

fn sign_extend(v: u32, bits: u32) -> i16 {
    let shift = 32 - bits;
    (((v << shift) as i32) >> shift) as i16
}

fn decode_action(bits: u32) -> Option<Action> {
    let opcode = bits >> 19;
    let rd = ((bits >> 15) & 0xF) as u8;
    let rs = ((bits >> 11) & 0xF) as u8;
    let rt = ((bits >> 7) & 0xF) as u8;
    let imm15 = sign_extend(bits & 0x7FFF, 15);
    let imm11 = sign_extend(bits & 0x7FF, 11);
    let amount6 = ((bits >> 5) & 0x3F) as u8;
    let bits6 = ((bits >> 9) & 0x3F) as u8;
    let skip6 = ((bits >> 13) & 0x3F) as u8;
    let a = match opcode {
        op::LOAD_IMM => Action::LoadImm { rd, imm: imm15 },
        op::MOV => Action::Mov { rd, rs },
        op::ADD => Action::Add { rd, rs, rt },
        op::SUB => Action::Sub { rd, rs, rt },
        op::AND => Action::And { rd, rs, rt },
        op::OR => Action::Or { rd, rs, rt },
        op::XOR => Action::Xor { rd, rs, rt },
        op::ADDI => Action::AddI { rd, rs, imm: imm11 },
        op::SHLI => Action::ShlI { rd, rs, amount: amount6 },
        op::SHRI => Action::ShrI { rd, rs, amount: amount6 },
        op::LOAD_B => Action::Load { rd, base: rs, offset: imm11, width: Width::B1 },
        op::LOAD_H => Action::Load { rd, base: rs, offset: imm11, width: Width::B2 },
        op::LOAD_W => Action::Load { rd, base: rs, offset: imm11, width: Width::B4 },
        op::LOAD_D => Action::Load { rd, base: rs, offset: imm11, width: Width::B8 },
        op::STORE_B => Action::Store { rs: rd, base: rs, offset: imm11, width: Width::B1 },
        op::STORE_H => Action::Store { rs: rd, base: rs, offset: imm11, width: Width::B2 },
        op::STORE_W => Action::Store { rs: rd, base: rs, offset: imm11, width: Width::B4 },
        op::STORE_D => Action::Store { rs: rd, base: rs, offset: imm11, width: Width::B8 },
        op::IN_SYM => Action::InSym { rd, bits: bits6 },
        op::IN_SYM_LE => Action::InSymLe { rd, bytes: bits6 },
        op::PEEK_SYM => Action::PeekSym { rd, bits: bits6 },
        op::SKIP_SYM => Action::SkipSym { bits: skip6 },
        op::SKIP_REG => Action::SkipReg { rs: rd },
        op::IN_REM => Action::InRem { rd },
        op::LOAD_B_INC => Action::LoadInc { rd, base: rs, width: Width::B1 },
        op::LOAD_H_INC => Action::LoadInc { rd, base: rs, width: Width::B2 },
        op::LOAD_W_INC => Action::LoadInc { rd, base: rs, width: Width::B4 },
        op::LOAD_D_INC => Action::LoadInc { rd, base: rs, width: Width::B8 },
        op::STORE_B_INC => Action::StoreInc { rs: rd, base: rs, width: Width::B1 },
        op::STORE_W_INC => Action::StoreInc { rs: rd, base: rs, width: Width::B4 },
        op::STORE_D_INC => Action::StoreInc { rs: rd, base: rs, width: Width::B8 },
        _ => return None,
    };
    Some(a)
}

fn decode_cond(c: u32) -> Option<Cond> {
    Some(match c {
        0 => Cond::Eq,
        1 => Cond::Ne,
        2 => Cond::Ltu,
        3 => Cond::Geu,
        4 => Cond::Lts,
        5 => Cond::Ges,
        _ => return None,
    })
}

fn decode_transition(t: u32) -> Option<DecodedTransition> {
    let ty = t >> 29;
    Some(match ty {
        x if x == tt::HALT => DecodedTransition::Halt,
        x if x == tt::JUMP => DecodedTransition::Jump(t & 0xFF_FFFF),
        x if x == tt::DISPATCH_SYM => {
            DecodedTransition::DispatchSym { bits: ((t >> 24) & 0x1F) as u8, base: t & 0xFF_FFFF }
        }
        x if x == tt::DISPATCH_PEEK => {
            DecodedTransition::DispatchPeek { bits: ((t >> 24) & 0x1F) as u8, base: t & 0xFF_FFFF }
        }
        x if x == tt::DISPATCH_REG => {
            DecodedTransition::DispatchReg { rs: ((t >> 24) & 0xF) as u8, base: t & 0xFF_FFFF }
        }
        x if x == tt::BRANCH => DecodedTransition::Branch {
            cond: decode_cond((t >> 26) & 0x7)?,
            rs: ((t >> 22) & 0xF) as u8,
            rt: ((t >> 18) & 0xF) as u8,
            taken: t & 0x3_FFFF,
        },
        _ => return None,
    })
}

/// Renders one action in the assembler's mnemonic syntax.
fn action_mnemonic(a: Action) -> String {
    match a {
        Action::LoadImm { rd, imm } => format!("limm r{rd}, {imm}"),
        Action::Mov { rd, rs } => format!("mov r{rd}, r{rs}"),
        Action::Add { rd, rs, rt } => format!("add r{rd}, r{rs}, r{rt}"),
        Action::Sub { rd, rs, rt } => format!("sub r{rd}, r{rs}, r{rt}"),
        Action::And { rd, rs, rt } => format!("and r{rd}, r{rs}, r{rt}"),
        Action::Or { rd, rs, rt } => format!("or r{rd}, r{rs}, r{rt}"),
        Action::Xor { rd, rs, rt } => format!("xor r{rd}, r{rs}, r{rt}"),
        Action::AddI { rd, rs, imm } => format!("addi r{rd}, r{rs}, {imm}"),
        Action::ShlI { rd, rs, amount } => format!("shli r{rd}, r{rs}, {amount}"),
        Action::ShrI { rd, rs, amount } => format!("shri r{rd}, r{rs}, {amount}"),
        Action::Load { rd, base, offset, width } => {
            format!("load{} r{rd}, r{base}, {offset}", width_suffix(width))
        }
        Action::Store { rs, base, offset, width } => {
            format!("store{} r{rs}, r{base}, {offset}", width_suffix(width))
        }
        Action::LoadInc { rd, base, width } => {
            format!("load{}i r{rd}, r{base}", width_suffix(width))
        }
        Action::StoreInc { rs, base, width } => {
            format!("store{}i r{rs}, r{base}", width_suffix(width))
        }
        Action::InSym { rd, bits } => format!("insym r{rd}, {bits}"),
        Action::InSymLe { rd, bytes } => format!("insymle r{rd}, {bytes}"),
        Action::PeekSym { rd, bits } => format!("peek r{rd}, {bits}"),
        Action::SkipSym { bits } => format!("skip {bits}"),
        Action::SkipReg { rs } => format!("skipreg r{rs}"),
        Action::InRem { rd } => format!("inrem r{rd}"),
    }
}

fn width_suffix(w: Width) -> char {
    match w {
        Width::B1 => 'b',
        Width::B2 => 'h',
        Width::B4 => 'w',
        Width::B8 => 'd',
    }
}

fn cond_mnemonic(c: Cond) -> &'static str {
    match c {
        Cond::Eq => "beq",
        Cond::Ne => "bne",
        Cond::Ltu => "bltu",
        Cond::Geu => "bgeu",
        Cond::Lts => "blts",
        Cond::Ges => "bges",
    }
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
            for a in &block.actions {
                let _ = writeln!(out, "        {}", action_mnemonic(*a));
            }
            let t = match block.transition {
                DecodedTransition::Halt => "halt".to_string(),
                DecodedTransition::Jump(a) => format!("jump @{a}"),
                DecodedTransition::DispatchSym { bits, base } => {
                    format!("dispatch.sym {bits}, @{base}+sym")
                }
                DecodedTransition::DispatchPeek { bits, base } => {
                    format!("dispatch.peek {bits}, @{base}+sym")
                }
                DecodedTransition::DispatchReg { rs, base } => {
                    format!("dispatch.reg r{rs}, @{base}+r{rs}")
                }
                DecodedTransition::Branch { cond, rs, rt, taken } => {
                    format!("{} r{rs}, r{rt}, @{taken} ; else @{}", cond_mnemonic(cond), addr + 1)
                }
            };
            let _ = writeln!(out, "        {t}");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::Block;
    use crate::program::ProgramBuilder;

    #[test]
    fn action_encode_decode_round_trip() {
        let actions = vec![
            Action::LoadImm { rd: 3, imm: -100 },
            Action::LoadImm { rd: 3, imm: 16383 },
            Action::Mov { rd: 1, rs: 15 },
            Action::Add { rd: 1, rs: 2, rt: 3 },
            Action::Sub { rd: 15, rs: 0, rt: 7 },
            Action::And { rd: 4, rs: 5, rt: 6 },
            Action::Or { rd: 4, rs: 5, rt: 6 },
            Action::Xor { rd: 4, rs: 5, rt: 6 },
            Action::AddI { rd: 2, rs: 2, imm: -1 },
            Action::AddI { rd: 2, rs: 2, imm: 1023 },
            Action::ShlI { rd: 9, rs: 9, amount: 63 },
            Action::ShrI { rd: 9, rs: 9, amount: 1 },
            Action::Load { rd: 5, base: 6, offset: -3, width: Width::B4 },
            Action::Load { rd: 5, base: 6, offset: 7, width: Width::B8 },
            Action::InSym { rd: 7, bits: 32 },
            Action::InSymLe { rd: 7, bytes: 8 },
            Action::PeekSym { rd: 7, bits: 15 },
            Action::SkipSym { bits: 9 },
            Action::SkipReg { rs: 11 },
            Action::InRem { rd: 12 },
        ];
        for a in actions {
            let enc = encode_action(a).unwrap();
            let dec = decode_action(enc).unwrap();
            assert_eq!(dec, a, "encoding {enc:#08x}");
        }
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
            assert_eq!(dec.actions, block.actions, "block {bid}");
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
