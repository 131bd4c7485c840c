//! The UDP lane instruction set.
//!
//! A UDP program is a set of *code blocks*. Each block holds up to
//! [`MAX_ACTIONS_PER_BLOCK`] actions (executed by the Action unit) and ends
//! in exactly one transition (executed by the Dispatch unit). The paper's
//! signature feature is **multi-way dispatch**: the next block address is
//! `group_base + symbol`, where the symbol comes from the input stream or a
//! register — several branches resolved in a single one-cycle dispatch, no
//! prediction needed.
//!
//! Register file: 16 × 64-bit data registers; `r0` is hard-wired to zero
//! (writes are discarded). Each lane owns a private scratchpad
//! ([`SCRATCHPAD_BYTES`]) and a bit-granular input stream with prefetch
//! (`insym`/`peek`/`skip`/`inrem`).

use crate::error::UdpError;

/// Register index (0..16). `r0` reads as zero and ignores writes.
pub type Reg = u8;

/// Number of data registers per lane.
pub const NUM_REGS: usize = 16;

/// Per-lane scratchpad size: 8 banks x 8 KB, as in the paper's Fig. 8.
pub const SCRATCHPAD_BYTES: usize = 64 * 1024;

/// Maximum actions per code block (the machine encoding packs four 24-bit
/// action slots plus a 32-bit transition into one 128-bit code word).
pub const MAX_ACTIONS_PER_BLOCK: usize = 4;

/// Memory access width in bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Width {
    /// 1 byte.
    B1,
    /// 2 bytes (little-endian).
    B2,
    /// 4 bytes (little-endian).
    B4,
    /// 8 bytes (little-endian).
    B8,
}

impl Width {
    /// Byte count.
    pub const fn bytes(self) -> usize {
        match self {
            Width::B1 => 1,
            Width::B2 => 2,
            Width::B4 => 4,
            Width::B8 => 8,
        }
    }
}

/// One action, executed by the lane's Action unit in one cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// `rd = imm` (sign-extended 15-bit immediate).
    LoadImm {
        /// Destination.
        rd: Reg,
        /// Immediate, must fit 15 bits signed.
        imm: i16,
    },
    /// `rd = rs`.
    Mov {
        /// Destination.
        rd: Reg,
        /// Source.
        rs: Reg,
    },
    /// `rd = rs + rt` (wrapping).
    Add {
        /// Destination.
        rd: Reg,
        /// Left operand.
        rs: Reg,
        /// Right operand.
        rt: Reg,
    },
    /// `rd = rs - rt` (wrapping).
    Sub {
        /// Destination.
        rd: Reg,
        /// Left operand.
        rs: Reg,
        /// Right operand.
        rt: Reg,
    },
    /// `rd = rs & rt`.
    And {
        /// Destination.
        rd: Reg,
        /// Left operand.
        rs: Reg,
        /// Right operand.
        rt: Reg,
    },
    /// `rd = rs | rt`.
    Or {
        /// Destination.
        rd: Reg,
        /// Left operand.
        rs: Reg,
        /// Right operand.
        rt: Reg,
    },
    /// `rd = rs ^ rt`.
    Xor {
        /// Destination.
        rd: Reg,
        /// Left operand.
        rs: Reg,
        /// Right operand.
        rt: Reg,
    },
    /// `rd = rs + imm` (wrapping, 11-bit signed immediate).
    AddI {
        /// Destination.
        rd: Reg,
        /// Source.
        rs: Reg,
        /// Immediate, must fit 11 bits signed.
        imm: i16,
    },
    /// `rd = rs << amount` (logical).
    ShlI {
        /// Destination.
        rd: Reg,
        /// Source.
        rs: Reg,
        /// Shift amount (0..64).
        amount: u8,
    },
    /// `rd = rs >> amount` (logical).
    ShrI {
        /// Destination.
        rd: Reg,
        /// Source.
        rs: Reg,
        /// Shift amount (0..64).
        amount: u8,
    },
    /// Scratchpad load: `rd = mem[rs + offset]` (zero-extended).
    Load {
        /// Destination.
        rd: Reg,
        /// Base register.
        base: Reg,
        /// Byte offset, must fit 11 bits signed.
        offset: i16,
        /// Access width.
        width: Width,
    },
    /// Scratchpad store: `mem[base + offset] = low_bytes(rs)`.
    Store {
        /// Source register.
        rs: Reg,
        /// Base register.
        base: Reg,
        /// Byte offset, must fit 11 bits signed.
        offset: i16,
        /// Access width.
        width: Width,
    },
    /// Post-increment load: `rd = mem[base]; base += width` — the streaming
    /// addressing mode every decode inner loop uses.
    LoadInc {
        /// Destination.
        rd: Reg,
        /// Base register (incremented).
        base: Reg,
        /// Access width.
        width: Width,
    },
    /// Post-increment store: `mem[base] = low_bytes(rs); base += width`.
    StoreInc {
        /// Source register.
        rs: Reg,
        /// Base register (incremented).
        base: Reg,
        /// Access width.
        width: Width,
    },
    /// Consume `bits` (1..=32) from the input stream, MSB-first, into `rd`.
    InSym {
        /// Destination.
        rd: Reg,
        /// Bit count.
        bits: u8,
    },
    /// Consume `bytes` (1..=8) from the (byte-aligned) input stream and
    /// assemble them little-endian into `rd` — the Stream Prefetch unit's
    /// byte-symbol mode.
    InSymLe {
        /// Destination.
        rd: Reg,
        /// Byte count.
        bytes: u8,
    },
    /// Peek `bits` (1..=32) MSB-first without consuming; bits past the end
    /// of stream read as zero.
    PeekSym {
        /// Destination.
        rd: Reg,
        /// Bit count.
        bits: u8,
    },
    /// Consume and discard `bits` from the input stream.
    SkipSym {
        /// Bit count (1..=32).
        bits: u8,
    },
    /// Consume and discard `rs` bits (register-specified).
    SkipReg {
        /// Bit-count register.
        rs: Reg,
    },
    /// `rd = number of unconsumed input bits`.
    InRem {
        /// Destination.
        rd: Reg,
    },
}

impl Action {
    /// Validates field ranges that the machine encoding can represent.
    ///
    /// # Errors
    /// [`UdpError::Program`] naming the violated field.
    pub fn validate(&self) -> Result<(), UdpError> {
        self.validate_str().map_err(UdpError::Program)
    }

    fn validate_str(self) -> Result<(), String> {
        let reg_ok = |r: Reg| (r as usize) < NUM_REGS;
        let regs: Vec<Reg> = match self {
            Action::LoadImm { rd, .. } => vec![rd],
            Action::Mov { rd, rs } => vec![rd, rs],
            Action::Add { rd, rs, rt }
            | Action::Sub { rd, rs, rt }
            | Action::And { rd, rs, rt }
            | Action::Or { rd, rs, rt }
            | Action::Xor { rd, rs, rt } => vec![rd, rs, rt],
            Action::AddI { rd, rs, .. } => vec![rd, rs],
            Action::ShlI { rd, rs, .. } | Action::ShrI { rd, rs, .. } => vec![rd, rs],
            Action::Load { rd, base, .. } => vec![rd, base],
            Action::Store { rs, base, .. } => vec![rs, base],
            Action::LoadInc { rd, base, .. } => vec![rd, base],
            Action::StoreInc { rs, base, .. } => vec![rs, base],
            Action::InSym { rd, .. } | Action::PeekSym { rd, .. } => vec![rd],
            Action::InSymLe { rd, .. } => vec![rd],
            Action::SkipSym { .. } => vec![],
            Action::SkipReg { rs } => vec![rs],
            Action::InRem { rd } => vec![rd],
        };
        for r in regs {
            if !reg_ok(r) {
                return Err(format!("register r{r} out of range"));
            }
        }
        match self {
            Action::LoadImm { imm, .. } if !(-(1 << 14)..(1 << 14)).contains(&(imm as i32)) => {
                Err(format!("LoadImm immediate {imm} exceeds 15 bits"))
            }
            Action::AddI { imm, .. } if !(-(1 << 10)..(1 << 10)).contains(&(imm as i32)) => {
                Err(format!("AddI immediate {imm} exceeds 11 bits"))
            }
            Action::Load { offset, .. } | Action::Store { offset, .. }
                if !(-(1 << 10)..(1 << 10)).contains(&(offset as i32)) =>
            {
                Err("memory offset exceeds 11 bits".to_string())
            }
            Action::ShlI { amount, .. } | Action::ShrI { amount, .. } if amount > 63 => {
                Err("shift amount exceeds 63".into())
            }
            Action::InSym { bits, .. } | Action::PeekSym { bits, .. } if bits == 0 || bits > 32 => {
                Err(format!("stream bit count {bits} outside 1..=32"))
            }
            Action::SkipSym { bits } if bits == 0 || bits > 32 => {
                Err(format!("skip bit count {bits} outside 1..=32"))
            }
            Action::InSymLe { bytes, .. } if bytes == 0 || bytes > 8 => {
                Err(format!("LE byte count {bytes} outside 1..=8"))
            }
            Action::StoreInc { width: Width::B2, .. } => {
                Err("StoreInc does not support 2-byte width (no opcode row)".into())
            }
            _ => Ok(()),
        }
    }
}

/// Branch conditions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cond {
    /// `rs == rt`.
    Eq,
    /// `rs != rt`.
    Ne,
    /// `rs < rt` (unsigned).
    Ltu,
    /// `rs >= rt` (unsigned).
    Geu,
    /// `rs < rt` (signed).
    Lts,
    /// `rs >= rt` (signed).
    Ges,
}

impl Cond {
    /// Evaluates the condition on two 64-bit register values.
    pub fn eval(self, rs: u64, rt: u64) -> bool {
        match self {
            Cond::Eq => rs == rt,
            Cond::Ne => rs != rt,
            Cond::Ltu => rs < rt,
            Cond::Geu => rs >= rt,
            Cond::Lts => (rs as i64) < (rt as i64),
            Cond::Ges => (rs as i64) >= (rt as i64),
        }
    }
}

/// Symbolic reference to a code block (pre-placement).
pub type BlockId = u32;

/// Symbolic reference to a dispatch group (pre-placement).
pub type GroupId = u32;

/// Block terminator, executed by the Dispatch unit in one cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transition {
    /// Stop the lane.
    Halt,
    /// Unconditional jump.
    Jump(BlockId),
    /// Consume `bits` from the stream; next = `base(group) + symbol`.
    DispatchSym {
        /// Bits to consume (1..=16).
        bits: u8,
        /// Target group.
        group: GroupId,
    },
    /// Peek `bits` (zero-padded past end); next = `base(group) + symbol`.
    /// The target block is responsible for consuming the code via `skip`.
    DispatchPeek {
        /// Bits to peek (1..=16).
        bits: u8,
        /// Target group.
        group: GroupId,
    },
    /// Next = `base(group) + rs` (register-indexed dispatch).
    DispatchReg {
        /// Index register.
        rs: Reg,
        /// Target group.
        group: GroupId,
    },
    /// Two-way conditional: `taken` if `cond(rs, rt)`, otherwise fall
    /// through to the block placed at the next code address (a placement
    /// constraint EffCLiP must honor).
    Branch {
        /// Condition.
        cond: Cond,
        /// Left register.
        rs: Reg,
        /// Right register.
        rt: Reg,
        /// Target when the condition holds.
        taken: BlockId,
        /// Block that must be placed at `this + 1` (fall-through).
        fallthrough: BlockId,
    },
}

impl Transition {
    /// Validates representable field ranges.
    ///
    /// # Errors
    /// [`UdpError::Program`] naming the violated field.
    pub fn validate(&self) -> Result<(), UdpError> {
        self.validate_str().map_err(UdpError::Program)
    }

    fn validate_str(&self) -> Result<(), String> {
        match *self {
            Transition::DispatchSym { bits, .. } | Transition::DispatchPeek { bits, .. } => {
                if bits == 0 || bits > 16 {
                    return Err(format!("dispatch bit width {bits} outside 1..=16"));
                }
                Ok(())
            }
            Transition::DispatchReg { rs, .. } => {
                if (rs as usize) >= NUM_REGS {
                    return Err(format!("register r{rs} out of range"));
                }
                Ok(())
            }
            Transition::Branch { rs, rt, .. } => {
                if (rs as usize) >= NUM_REGS || (rt as usize) >= NUM_REGS {
                    return Err("branch register out of range".into());
                }
                Ok(())
            }
            _ => Ok(()),
        }
    }
}

/// One code block: a short straight-line action sequence plus a transition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Block {
    /// Up to [`MAX_ACTIONS_PER_BLOCK`] actions.
    pub actions: Vec<Action>,
    /// The terminator.
    pub transition: Transition,
}

impl Block {
    /// Validates action count and field ranges.
    ///
    /// # Errors
    /// [`UdpError::Program`] naming the violation.
    pub fn validate(&self) -> Result<(), UdpError> {
        if self.actions.len() > MAX_ACTIONS_PER_BLOCK {
            return Err(UdpError::Program(format!(
                "{} actions exceed the {MAX_ACTIONS_PER_BLOCK}-slot code word",
                self.actions.len()
            )));
        }
        for a in &self.actions {
            a.validate()?;
        }
        self.transition.validate()
    }

    /// Cycle cost: one dispatch cycle plus one per action.
    pub fn cycles(&self) -> u64 {
        1 + self.actions.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn width_bytes() {
        assert_eq!(Width::B1.bytes(), 1);
        assert_eq!(Width::B8.bytes(), 8);
    }

    #[test]
    fn action_validation_catches_bad_fields() {
        assert!(Action::LoadImm { rd: 16, imm: 0 }.validate().is_err());
        assert!(Action::LoadImm { rd: 1, imm: i16::MAX }.validate().is_err());
        assert!(Action::LoadImm { rd: 1, imm: (1 << 14) - 1 }.validate().is_ok());
        assert!(Action::AddI { rd: 1, rs: 2, imm: 1 << 10 }.validate().is_err());
        assert!(Action::InSym { rd: 1, bits: 0 }.validate().is_err());
        assert!(Action::InSym { rd: 1, bits: 33 }.validate().is_err());
        assert!(Action::InSymLe { rd: 1, bytes: 9 }.validate().is_err());
        assert!(Action::ShlI { rd: 1, rs: 1, amount: 64 }.validate().is_err());
        assert!(Action::Store { rs: 3, base: 2, offset: -1024, width: Width::B8 }
            .validate()
            .is_ok());
    }

    #[test]
    fn transition_validation() {
        assert!(Transition::DispatchSym { bits: 17, group: 0 }.validate().is_err());
        assert!(Transition::DispatchSym { bits: 8, group: 0 }.validate().is_ok());
        assert!(Transition::DispatchReg { rs: 99, group: 0 }.validate().is_err());
    }

    #[test]
    fn cond_eval_signed_vs_unsigned() {
        let neg1 = -1i64 as u64;
        assert!(Cond::Ltu.eval(1, neg1), "unsigned: 1 < 2^64-1");
        assert!(!Cond::Lts.eval(1, neg1), "signed: 1 > -1");
        assert!(Cond::Ges.eval(0, neg1));
        assert!(Cond::Eq.eval(5, 5));
        assert!(Cond::Ne.eval(5, 6));
        assert!(Cond::Geu.eval(7, 7));
    }

    #[test]
    fn block_cycle_cost() {
        let b = Block {
            actions: vec![Action::Mov { rd: 1, rs: 2 }, Action::InRem { rd: 3 }],
            transition: Transition::Halt,
        };
        assert_eq!(b.cycles(), 3);
        assert!(b.validate().is_ok());
    }

    #[test]
    fn block_rejects_too_many_actions() {
        let b = Block { actions: vec![Action::InRem { rd: 1 }; 5], transition: Transition::Halt };
        assert!(b.validate().is_err());
    }
}
