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

/// Cycle class of an opcode: the column of [`OpClassCycles`] an executed
/// action is charged to (dispatch cycles belong to the block, not to a row).
///
/// [`OpClassCycles`]: crate::lane::OpClassCycles
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpClass {
    /// Register ALU actions (moves, arithmetic, logic, shifts).
    Alu,
    /// Scratchpad loads/stores (incl. post-increment forms).
    Mem,
    /// Stream-unit actions (`insym`/`peek`/`skip`/`inrem`).
    Stream,
}

/// What one operand of an action is: a register by what the action does to
/// it, or an immediate by signedness.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Register written.
    Def,
    /// Register read.
    Use,
    /// Register read, then written (a post-increment cursor).
    UseDef,
    /// Sign-extended immediate.
    Simm,
    /// Zero-extended immediate.
    Uimm,
}

impl Role {
    /// True for the three register roles.
    pub const fn is_reg(self) -> bool {
        matches!(self, Role::Def | Role::Use | Role::UseDef)
    }

    /// True if the action reads the register.
    pub const fn reads(self) -> bool {
        matches!(self, Role::Use | Role::UseDef)
    }

    /// True if the action writes the register.
    pub const fn writes(self) -> bool {
        matches!(self, Role::Def | Role::UseDef)
    }
}

/// One operand of an [`Op`]: its role, its field in the 24-bit action slot
/// (`width` bits starting at bit `shift`) and the values a valid program may
/// put there. The decoder extracts the whole field; only the encoder, the
/// assembler and [`Action::validate`] hold values to `lo..=hi`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Operand {
    /// Register def/use or immediate signedness.
    pub role: Role,
    /// Bit position of the field's least significant bit in the slot.
    pub shift: u8,
    /// Field width in bits.
    pub width: u8,
    /// Smallest valid value.
    pub lo: i32,
    /// Largest valid value.
    pub hi: i32,
}

impl Operand {
    const fn reg(role: Role, shift: u8) -> Operand {
        Operand { role, shift, width: 4, lo: 0, hi: NUM_REGS as i32 - 1 }
    }

    /// A signed immediate in the low `width` bits, valid over its whole field.
    const fn simm(width: u8) -> Operand {
        let half = 1 << (width - 1);
        Operand { role: Role::Simm, shift: 0, width, lo: -half, hi: half - 1 }
    }

    /// A 6-bit count at `shift`, valid over `lo..=hi` only.
    const fn count(shift: u8, lo: i32, hi: i32) -> Operand {
        Operand { role: Role::Uimm, shift, width: 6, lo, hi }
    }

    const fn mask(self) -> u32 {
        (1 << self.width) - 1
    }

    /// Places the low `width` bits of `value` at the operand's position.
    pub const fn pack(self, value: i32) -> u32 {
        (value as u32 & self.mask()) << self.shift
    }

    /// Reads the operand's field out of an action slot, sign-extending a
    /// [`Role::Simm`].
    pub const fn unpack(self, slot: u32) -> i32 {
        let raw = (slot >> self.shift) & self.mask();
        match self.role {
            Role::Simm => {
                let unused = 32 - self.width as u32;
                ((raw << unused) as i32) >> unused
            }
            _ => raw as i32,
        }
    }
}

/// One row of the opcode table: everything structural about one action
/// opcode. An action slot is `opcode << 19` or-ed with each operand packed
/// at its position; the assembler's statement is the mnemonic followed by
/// the operands in this order, registers spelled `rN`.
#[derive(Debug, PartialEq, Eq)]
pub struct Op {
    /// Assembler mnemonic.
    pub mnemonic: &'static str,
    /// 5-bit opcode (0 marks an empty action slot and has no row).
    pub opcode: u8,
    /// Cycle class.
    pub class: OpClass,
    /// Operands in assembly order.
    pub operands: &'static [Operand],
}

/// Most operands any opcode takes.
pub const MAX_OPERANDS: usize = 3;

/// Bit position of the opcode in an action slot.
pub const OPCODE_SHIFT: u32 = 19;

const RD: Operand = Operand::reg(Role::Def, 15);
/// A source register in the first field (stores and `skipreg` have no `rd`).
const SRC: Operand = Operand::reg(Role::Use, 15);
const RS: Operand = Operand::reg(Role::Use, 11);
const RT: Operand = Operand::reg(Role::Use, 7);
/// The base register of a post-increment access.
const CURSOR: Operand = Operand::reg(Role::UseDef, 11);
const IMM15: Operand = Operand::simm(15);
const IMM11: Operand = Operand::simm(11);
const SHAMT: Operand = Operand::count(5, 0, 63);
const BITS: Operand = Operand::count(9, 1, 32);
const BYTES: Operand = Operand::count(9, 1, 8);
const SKIP: Operand = Operand::count(13, 1, 32);

const fn op(
    opcode: u8,
    mnemonic: &'static str,
    class: OpClass,
    operands: &'static [Operand],
) -> Op {
    Op { mnemonic, opcode, class, operands }
}

/// The lane's action opcodes, row `i` holding opcode `i + 1`. This is the
/// one description of the instruction format: the encoder and decoder
/// (`machine`), the assembler and disassembler (`asm`, `Display for Action`),
/// operand validation, cycle-class attribution (`lane`) and the verifier's
/// register sets all walk a row instead of enumerating [`Action`]. The
/// 2-byte post-increment load took the last free opcode; a 2-byte
/// post-increment store has none, and no decoder program needs one.
pub static OPS: [Op; 31] = {
    use OpClass::{Alu, Mem, Stream};
    [
        op(1, "limm", Alu, &[RD, IMM15]),
        op(2, "mov", Alu, &[RD, RS]),
        op(3, "add", Alu, &[RD, RS, RT]),
        op(4, "sub", Alu, &[RD, RS, RT]),
        op(5, "and", Alu, &[RD, RS, RT]),
        op(6, "or", Alu, &[RD, RS, RT]),
        op(7, "xor", Alu, &[RD, RS, RT]),
        op(8, "addi", Alu, &[RD, RS, IMM11]),
        op(9, "shli", Alu, &[RD, RS, SHAMT]),
        op(10, "shri", Alu, &[RD, RS, SHAMT]),
        op(11, "loadb", Mem, &[RD, RS, IMM11]),
        op(12, "loadh", Mem, &[RD, RS, IMM11]),
        op(13, "loadw", Mem, &[RD, RS, IMM11]),
        op(14, "loadd", Mem, &[RD, RS, IMM11]),
        op(15, "storeb", Mem, &[SRC, RS, IMM11]),
        op(16, "storeh", Mem, &[SRC, RS, IMM11]),
        op(17, "storew", Mem, &[SRC, RS, IMM11]),
        op(18, "stored", Mem, &[SRC, RS, IMM11]),
        op(19, "insym", Stream, &[RD, BITS]),
        op(20, "insymle", Stream, &[RD, BYTES]),
        op(21, "peek", Stream, &[RD, BITS]),
        op(22, "skip", Stream, &[SKIP]),
        op(23, "skipreg", Stream, &[SRC]),
        op(24, "inrem", Stream, &[RD]),
        op(25, "loadbi", Mem, &[RD, CURSOR]),
        op(26, "loadwi", Mem, &[RD, CURSOR]),
        op(27, "loaddi", Mem, &[RD, CURSOR]),
        op(28, "storebi", Mem, &[SRC, CURSOR]),
        op(29, "storewi", Mem, &[SRC, CURSOR]),
        op(30, "storedi", Mem, &[SRC, CURSOR]),
        op(31, "loadhi", Mem, &[RD, CURSOR]),
    ]
};

/// Opcodes of the four width-indexed families, in [`Width`] order.
const LOAD: [u8; 4] = [11, 12, 13, 14];
const STORE: [u8; 4] = [15, 16, 17, 18];
const LOAD_INC: [u8; 4] = [25, 31, 26, 27];
const STORE_INC: [u8; 4] = [28, 0, 29, 30];

impl Op {
    /// The row of `opcode`, if it has one.
    pub fn by_opcode(opcode: u32) -> Option<&'static Op> {
        OPS.get((opcode as usize).wrapping_sub(1))
    }

    /// The row the assembler spells `mnemonic`.
    pub fn by_mnemonic(mnemonic: &str) -> Option<&'static Op> {
        OPS.iter().find(|op| op.mnemonic == mnemonic)
    }

    /// One value per operand, in order, from `pick`; unused slots are zero.
    pub fn values(&self, mut pick: impl FnMut(&Operand) -> i32) -> [i32; MAX_OPERANDS] {
        let mut values = [0; MAX_OPERANDS];
        for (v, o) in values.iter_mut().zip(self.operands) {
            *v = pick(o);
        }
        values
    }

    /// Writes the assembler's statement: the mnemonic, then `values` in
    /// operand order, registers spelled `rN`.
    ///
    /// # Errors
    /// Whatever `out` reports.
    pub fn write(&self, out: &mut impl std::fmt::Write, values: &[i32]) -> std::fmt::Result {
        out.write_str(self.mnemonic)?;
        for (i, (o, v)) in self.operands.iter().zip(values).enumerate() {
            let sep = if i == 0 { " " } else { ", " };
            let r = if o.role.is_reg() { "r" } else { "" };
            write!(out, "{sep}{r}{v}")?;
        }
        Ok(())
    }

    /// Holds each of `values` to its operand's valid range.
    ///
    /// # Errors
    /// The mnemonic, the offending value and the range it missed.
    pub fn check(&self, values: &[i32]) -> Result<(), String> {
        for (o, &v) in self.operands.iter().zip(values) {
            if !(o.lo..=o.hi).contains(&v) {
                let what = if o.role.is_reg() { "register r" } else { "immediate " };
                return Err(format!("`{}`: {what}{v} outside {}..={}", self.mnemonic, o.lo, o.hi));
            }
        }
        Ok(())
    }
}

impl Action {
    /// The action's row of [`OPS`] and its operand values in the row's
    /// order; `None` for the one action without an opcode (a 2-byte
    /// `StoreInc`). With [`Action::compose`], the only code that knows which
    /// variant and field a row's operands are.
    #[inline]
    pub fn decompose(self) -> Option<(&'static Op, [i32; MAX_OPERANDS])> {
        let (r, i) = (i32::from, i32::from);
        let (opcode, values) = match self {
            Action::LoadImm { rd, imm } => (1, [r(rd), i(imm), 0]),
            Action::Mov { rd, rs } => (2, [r(rd), r(rs), 0]),
            Action::Add { rd, rs, rt } => (3, [r(rd), r(rs), r(rt)]),
            Action::Sub { rd, rs, rt } => (4, [r(rd), r(rs), r(rt)]),
            Action::And { rd, rs, rt } => (5, [r(rd), r(rs), r(rt)]),
            Action::Or { rd, rs, rt } => (6, [r(rd), r(rs), r(rt)]),
            Action::Xor { rd, rs, rt } => (7, [r(rd), r(rs), r(rt)]),
            Action::AddI { rd, rs, imm } => (8, [r(rd), r(rs), i(imm)]),
            Action::ShlI { rd, rs, amount } => (9, [r(rd), r(rs), r(amount)]),
            Action::ShrI { rd, rs, amount } => (10, [r(rd), r(rs), r(amount)]),
            Action::Load { rd, base, offset, width } => {
                (LOAD[width as usize], [r(rd), r(base), i(offset)])
            }
            Action::Store { rs, base, offset, width } => {
                (STORE[width as usize], [r(rs), r(base), i(offset)])
            }
            Action::InSym { rd, bits } => (19, [r(rd), r(bits), 0]),
            Action::InSymLe { rd, bytes } => (20, [r(rd), r(bytes), 0]),
            Action::PeekSym { rd, bits } => (21, [r(rd), r(bits), 0]),
            Action::SkipSym { bits } => (22, [r(bits), 0, 0]),
            Action::SkipReg { rs } => (23, [r(rs), 0, 0]),
            Action::InRem { rd } => (24, [r(rd), 0, 0]),
            Action::LoadInc { rd, base, width } => (LOAD_INC[width as usize], [r(rd), r(base), 0]),
            Action::StoreInc { rs, base, width } => {
                (STORE_INC[width as usize], [r(rs), r(base), 0])
            }
        };
        Some((Op::by_opcode(u32::from(opcode))?, values))
    }

    /// The action of row `op` with operand values `v` (in the row's order,
    /// each truncated to its field's type); the inverse of
    /// [`Action::decompose`].
    pub fn compose(op: &Op, v: [i32; MAX_OPERANDS]) -> Action {
        const WIDTHS: [Width; 4] = [Width::B1, Width::B2, Width::B4, Width::B8];
        let width = |family: [u8; 4]| {
            let i = family.iter().position(|&o| o == op.opcode).expect("opcode is in its family");
            WIDTHS[i]
        };
        let (a, b, c) = (v[0] as u8, v[1] as u8, v[2] as u8);
        match op.opcode {
            1 => Action::LoadImm { rd: a, imm: v[1] as i16 },
            2 => Action::Mov { rd: a, rs: b },
            3 => Action::Add { rd: a, rs: b, rt: c },
            4 => Action::Sub { rd: a, rs: b, rt: c },
            5 => Action::And { rd: a, rs: b, rt: c },
            6 => Action::Or { rd: a, rs: b, rt: c },
            7 => Action::Xor { rd: a, rs: b, rt: c },
            8 => Action::AddI { rd: a, rs: b, imm: v[2] as i16 },
            9 => Action::ShlI { rd: a, rs: b, amount: c },
            10 => Action::ShrI { rd: a, rs: b, amount: c },
            11..=14 => Action::Load { rd: a, base: b, offset: v[2] as i16, width: width(LOAD) },
            15..=18 => Action::Store { rs: a, base: b, offset: v[2] as i16, width: width(STORE) },
            19 => Action::InSym { rd: a, bits: b },
            20 => Action::InSymLe { rd: a, bytes: b },
            21 => Action::PeekSym { rd: a, bits: b },
            22 => Action::SkipSym { bits: a },
            23 => Action::SkipReg { rs: a },
            24 => Action::InRem { rd: a },
            28..=30 => Action::StoreInc { rs: a, base: b, width: width(STORE_INC) },
            _ => Action::LoadInc { rd: a, base: b, width: width(LOAD_INC) },
        }
    }

    /// The action's row and operand values, each held to its valid range.
    ///
    /// # Errors
    /// [`UdpError::Program`] naming the mnemonic and the violated range.
    pub fn checked(self) -> Result<(&'static Op, [i32; MAX_OPERANDS]), UdpError> {
        let (op, values) = self.decompose().ok_or_else(|| {
            UdpError::Program("StoreInc does not support 2-byte width (no opcode row)".into())
        })?;
        op.check(&values).map_err(UdpError::Program)?;
        Ok((op, values))
    }

    /// Validates field ranges that the machine encoding can represent.
    ///
    /// # Errors
    /// [`UdpError::Program`] naming the violated field.
    pub fn validate(&self) -> Result<(), UdpError> {
        self.checked().map(|_| ())
    }
}

/// The assembler's spelling ([`Op::write`]).
impl std::fmt::Display for Action {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.decompose() {
            Some((op, values)) => op.write(f, &values),
            None => write!(f, "<no opcode: {self:?}>"),
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

/// The conditions by 3-bit code (a condition's discriminant), each with
/// the branch mnemonic the assembler and disassembler spell it.
pub const CONDS: [(Cond, &str); 6] = [
    (Cond::Eq, "beq"),
    (Cond::Ne, "bne"),
    (Cond::Ltu, "bltu"),
    (Cond::Geu, "bgeu"),
    (Cond::Lts, "blts"),
    (Cond::Ges, "bges"),
];

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
        let bad_reg = |r: Reg| r as usize >= NUM_REGS;
        Err(UdpError::Program(match *self {
            Transition::DispatchSym { bits, .. } | Transition::DispatchPeek { bits, .. }
                if bits == 0 || bits > 16 =>
            {
                format!("dispatch bit width {bits} outside 1..=16")
            }
            Transition::DispatchReg { rs, .. } if bad_reg(rs) => {
                format!("register r{rs} out of range")
            }
            Transition::Branch { rs, rt, .. } if bad_reg(rs) || bad_reg(rt) => {
                "branch register out of range".into()
            }
            _ => return Ok(()),
        }))
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
    fn opcode_table_is_well_formed() {
        for (i, op) in OPS.iter().enumerate() {
            // Row i holds opcode i + 1: opcodes are unique and in 1..=31.
            assert_eq!(usize::from(op.opcode), i + 1, "{}", op.mnemonic);
            assert_eq!(Op::by_mnemonic(op.mnemonic).map(|o| o.opcode), Some(op.opcode));
            assert!(op.operands.len() <= MAX_OPERANDS);
            // Fields lie below the opcode and no two share a bit.
            let mut used = 0u32;
            for o in op.operands {
                let field = o.pack(-1);
                assert_eq!(field >> OPCODE_SHIFT, 0, "{}", op.mnemonic);
                assert_eq!(used & field, 0, "{}: operands overlap", op.mnemonic);
                used |= field;
                // Every valid value survives its field.
                assert_eq!((o.unpack(o.pack(o.lo)), o.unpack(o.pack(o.hi))), (o.lo, o.hi));
            }
        }
        assert_eq!(Op::by_opcode(0), None);
        assert_eq!(Op::by_opcode(32), None);
        for (code, (cond, _)) in CONDS.iter().enumerate() {
            assert_eq!(*cond as usize, code);
        }
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
