//! A minimal x86-64 instruction emitter for the JIT tier.
//!
//! Deliberately tiny: only the encodings the lane lowering emits (the module
//! is private, so an encoder with no caller is a dead-code warning). Memory
//! operands are `[base + index*scale + disp]` in the shortest of the three
//! displacement forms (none, disp8, disp32), and ALU immediates take the
//! sign-extended imm8 form (`0x83`) when they fit: a lane image is hundreds
//! of blocks entered in data-dependent order through a 32 KB L1I, so bytes
//! per block are a first-order cost. Data published behind the code (the
//! dispatch tables) is addressed with `lea r, [rip + rel32]`. The
//! architectural special cases are the RSP/R12 SIB byte, RBP/R13 having no
//! displacement-free form, and index≠RSP.
//!
//! Emitted code is position-independent: intra-buffer control flow uses
//! rel32 jumps and calls patched via [`Asm::patch_rel32`] (or rel8 to an
//! already-emitted target), and host addresses (helper functions) are
//! materialized with `movabs` before an indirect call, so a buffer can be
//! staged in a `Vec` and copied into executable pages unchanged.

/// One of the 16 general-purpose registers, by hardware number.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reg(pub u8);

/// Register constants (hardware numbering).
pub mod reg {
    use super::Reg;
    pub const RAX: Reg = Reg(0);
    pub const RCX: Reg = Reg(1);
    pub const RDX: Reg = Reg(2);
    pub const RBX: Reg = Reg(3);
    pub const RSP: Reg = Reg(4);
    pub const RBP: Reg = Reg(5);
    pub const RSI: Reg = Reg(6);
    pub const RDI: Reg = Reg(7);
    pub const R8: Reg = Reg(8);
    pub const R9: Reg = Reg(9);
    pub const R10: Reg = Reg(10);
    pub const R11: Reg = Reg(11);
    pub const R12: Reg = Reg(12);
    pub const R13: Reg = Reg(13);
    pub const R14: Reg = Reg(14);
    pub const R15: Reg = Reg(15);
}

/// A memory operand: `[base + index*scale + disp]`.
#[derive(Debug, Clone, Copy)]
pub struct Mem {
    base: Reg,
    /// `(index, scale_shift)` — scale is `1 << scale_shift`.
    index: Option<(Reg, u8)>,
    disp: i32,
}

impl Mem {
    /// `[base + disp]`.
    pub fn base(base: Reg, disp: i32) -> Mem {
        Mem { base, index: None, disp }
    }

    /// `[base + index*(1<<scale_shift) + disp]`. `index` must not be RSP
    /// (architecturally unencodable).
    pub fn index(base: Reg, index: Reg, scale_shift: u8, disp: i32) -> Mem {
        assert!(index != reg::RSP, "rsp cannot be an index register");
        assert!(scale_shift <= 3, "scale is 1/2/4/8");
        Mem { base, index: Some((index, scale_shift)), disp }
    }
}

/// Two-operand ALU operations sharing the `op r/m, r` / `81 /n` / `83 /n`
/// encodings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Alu {
    Add,
    Or,
    And,
    Sub,
    Xor,
    Cmp,
}

impl Alu {
    /// Opcode for `op r/m64, r64`.
    fn mr_opcode(self) -> u8 {
        match self {
            Alu::Add => 0x01,
            Alu::Or => 0x09,
            Alu::And => 0x21,
            Alu::Sub => 0x29,
            Alu::Xor => 0x31,
            Alu::Cmp => 0x39,
        }
    }

    /// `/n` extension for the `81` imm32 and `83` imm8 forms.
    fn imm_ext(self) -> u8 {
        match self {
            Alu::Add => 0,
            Alu::Or => 1,
            Alu::And => 4,
            Alu::Sub => 5,
            Alu::Xor => 6,
            Alu::Cmp => 7,
        }
    }
}

/// Condition codes for `jcc` (hardware `cc` field values).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cc {
    /// Equal / zero.
    E = 0x4,
    /// Not equal / not zero.
    Ne = 0x5,
    /// Unsigned below.
    B = 0x2,
    /// Unsigned above or equal.
    Ae = 0x3,
    /// Unsigned above.
    A = 0x7,
    /// Signed less.
    L = 0xC,
    /// Signed greater or equal.
    Ge = 0xD,
}

/// Opcode of the group-1 immediate form that holds `imm`: `83` (imm8,
/// sign-extended) when it fits, else `81` (imm32).
fn imm_opcode(imm: i32) -> u8 {
    if i8::try_from(imm).is_ok() {
        0x83
    } else {
        0x81
    }
}

/// The instruction buffer.
#[derive(Debug, Default)]
pub struct Asm {
    code: Vec<u8>,
}

impl Asm {
    /// Fresh empty buffer.
    pub fn new() -> Asm {
        Asm::default()
    }

    /// Current offset — a label for later jumps/patches.
    pub fn here(&self) -> usize {
        self.code.len()
    }

    /// Consumes the buffer.
    pub fn into_bytes(self) -> Vec<u8> {
        self.code
    }

    fn u8(&mut self, b: u8) {
        self.code.push(b);
    }

    fn i32le(&mut self, v: i32) {
        self.code.extend_from_slice(&v.to_le_bytes());
    }

    /// REX prefix for operand size `w` and extension bits taken from the
    /// high bit of each register number. Emitted only when non-trivial
    /// (or forced by the caller passing `w = true`).
    fn rex(&mut self, w: bool, r: u8, x: u8, b: u8) {
        let byte = 0x40 | u8::from(w) << 3 | (r >> 3) << 2 | (x >> 3) << 1 | (b >> 3);
        if byte != 0x40 {
            self.u8(byte);
        }
    }

    /// The immediate of a group-1 instruction, in the width
    /// [`imm_opcode`] chose.
    fn imm8_or_32(&mut self, imm: i32) {
        match i8::try_from(imm) {
            Ok(b) => self.u8(b as u8),
            Err(_) => self.i32le(imm),
        }
    }

    /// ModRM + SIB + displacement for `reg_field` against memory operand
    /// `m`, in the shortest form: mod=00 (none) for a zero displacement,
    /// mod=01 (disp8) when it fits, else mod=10 (disp32). RBP/R13 as base
    /// have no mod=00 form (that slot means disp32-only/RIP-relative), so a
    /// zero displacement there is an explicit disp8.
    fn modrm_mem(&mut self, reg_field: u8, m: Mem) {
        let reg = reg_field & 7;
        let base = m.base.0 & 7;
        let disp8 = i8::try_from(m.disp).ok();
        let mode = match disp8 {
            Some(0) if base != 5 => 0x00,
            Some(_) => 0x40,
            None => 0x80,
        };
        match m.index {
            None if base != 4 => self.u8(mode | reg << 3 | base),
            // RSP/R12 base needs a SIB with "no index".
            None => {
                self.u8(mode | reg << 3 | 4);
                self.u8(4 << 3 | base);
            }
            Some((idx, scale)) => {
                self.u8(mode | reg << 3 | 4);
                self.u8(scale << 6 | (idx.0 & 7) << 3 | base);
            }
        }
        match (mode, disp8) {
            (0x00, _) => {}
            (0x40, Some(d)) => self.u8(d as u8),
            _ => self.i32le(m.disp),
        }
    }

    fn mem_rex(&mut self, w: bool, reg_field: u8, m: Mem) {
        let x = m.index.map_or(0, |(i, _)| i.0);
        self.rex(w, reg_field, x, m.base.0);
    }

    // ---- moves ----------------------------------------------------------

    /// `mov dst32, imm32` — zero-extends into the full register.
    pub fn mov32_ri(&mut self, dst: Reg, imm: u32) {
        self.rex(false, 0, 0, dst.0);
        self.u8(0xB8 | (dst.0 & 7));
        self.code.extend_from_slice(&imm.to_le_bytes());
    }

    /// `mov dst, src` (64-bit).
    pub fn mov_rr(&mut self, dst: Reg, src: Reg) {
        self.rex(true, src.0, 0, dst.0);
        self.u8(0x89);
        self.u8(0xC0 | (src.0 & 7) << 3 | (dst.0 & 7));
    }

    /// `mov dst32, src32` — zero-extends into the full register.
    pub fn mov32_rr(&mut self, dst: Reg, src: Reg) {
        self.rex(false, src.0, 0, dst.0);
        self.u8(0x89);
        self.u8(0xC0 | (src.0 & 7) << 3 | (dst.0 & 7));
    }

    /// `mov dst, qword [m]`.
    pub fn load(&mut self, dst: Reg, m: Mem) {
        self.mem_rex(true, dst.0, m);
        self.u8(0x8B);
        self.modrm_mem(dst.0, m);
    }

    /// `mov dst32, dword [m]` — zero-extends.
    pub fn load32(&mut self, dst: Reg, m: Mem) {
        self.mem_rex(false, dst.0, m);
        self.u8(0x8B);
        self.modrm_mem(dst.0, m);
    }

    /// `movzx dst, word [m]`.
    pub fn load16_zx(&mut self, dst: Reg, m: Mem) {
        self.mem_rex(true, dst.0, m);
        self.u8(0x0F);
        self.u8(0xB7);
        self.modrm_mem(dst.0, m);
    }

    /// `movzx dst, byte [m]`.
    pub fn load8_zx(&mut self, dst: Reg, m: Mem) {
        self.mem_rex(true, dst.0, m);
        self.u8(0x0F);
        self.u8(0xB6);
        self.modrm_mem(dst.0, m);
    }

    /// `movzx dst32, src8` — the low byte of `src`, zero-extended into the
    /// full register. Without a REX prefix only AL/CL/DL/BL encode as a
    /// byte source.
    pub fn movzx8_rr(&mut self, dst: Reg, src: Reg) {
        assert!(src.0 < 4 || src.0 >= 8, "8-bit source needs al/cl/dl/bl or r8b+");
        self.rex(false, dst.0, 0, src.0);
        self.u8(0x0F);
        self.u8(0xB6);
        self.u8(0xC0 | (dst.0 & 7) << 3 | (src.0 & 7));
    }

    /// `mov qword [m], src`.
    pub fn store(&mut self, m: Mem, src: Reg) {
        self.mem_rex(true, src.0, m);
        self.u8(0x89);
        self.modrm_mem(src.0, m);
    }

    /// `mov dword [m], src32`.
    pub fn store32(&mut self, m: Mem, src: Reg) {
        self.mem_rex(false, src.0, m);
        self.u8(0x89);
        self.modrm_mem(src.0, m);
    }

    /// `mov word [m], src16`.
    pub fn store16(&mut self, m: Mem, src: Reg) {
        self.u8(0x66);
        self.mem_rex(false, src.0, m);
        self.u8(0x89);
        self.modrm_mem(src.0, m);
    }

    /// `mov byte [m], src8`. Without a REX prefix only AL/CL/DL/BL encode;
    /// the assert keeps the emitter honest.
    pub fn store8(&mut self, m: Mem, src: Reg) {
        assert!(src.0 < 4 || src.0 >= 8, "8-bit store needs al/cl/dl/bl or r8b+");
        self.mem_rex(false, src.0, m);
        self.u8(0x88);
        self.modrm_mem(src.0, m);
    }

    /// `mov qword [m], imm32` (sign-extended).
    pub fn store_imm(&mut self, m: Mem, imm: i32) {
        self.mem_rex(true, 0, m);
        self.u8(0xC7);
        self.modrm_mem(0, m);
        self.i32le(imm);
    }

    // ---- ALU -------------------------------------------------------------

    /// `op dst, src` (64-bit, `dst` is the destination/left operand).
    pub fn alu_rr(&mut self, op: Alu, dst: Reg, src: Reg) {
        self.rex(true, src.0, 0, dst.0);
        self.u8(op.mr_opcode());
        self.u8(0xC0 | (src.0 & 7) << 3 | (dst.0 & 7));
    }

    /// `op dst, imm` (imm8 or imm32, sign-extended to 64 bits; RAX with an
    /// imm32 takes the accumulator short form, which has no ModRM byte).
    pub fn alu_ri(&mut self, op: Alu, dst: Reg, imm: i32) {
        self.rex(true, 0, 0, dst.0);
        if dst == reg::RAX && i8::try_from(imm).is_err() {
            self.u8(op.mr_opcode() | 0x04);
            self.i32le(imm);
            return;
        }
        self.u8(imm_opcode(imm));
        self.u8(0xC0 | op.imm_ext() << 3 | (dst.0 & 7));
        self.imm8_or_32(imm);
    }

    /// `op dst32, imm` (32-bit, wraps).
    pub fn alu32_ri(&mut self, op: Alu, dst: Reg, imm: i32) {
        self.rex(false, 0, 0, dst.0);
        self.u8(imm_opcode(imm));
        self.u8(0xC0 | op.imm_ext() << 3 | (dst.0 & 7));
        self.imm8_or_32(imm);
    }

    /// `op dst, qword [m]`.
    pub fn alu_rm(&mut self, op: Alu, dst: Reg, m: Mem) {
        self.mem_rex(true, dst.0, m);
        self.u8(op.mr_opcode() | 0x02);
        self.modrm_mem(dst.0, m);
    }

    /// `op qword [m], imm` (imm8 or imm32, sign-extended).
    pub fn alu_mi(&mut self, op: Alu, m: Mem, imm: i32) {
        self.mem_rex(true, 0, m);
        self.u8(imm_opcode(imm));
        self.modrm_mem(op.imm_ext(), m);
        self.imm8_or_32(imm);
    }

    /// `test dst32, imm32` (32-bit AND, flags only).
    pub fn test32_ri(&mut self, dst: Reg, imm: u32) {
        self.rex(false, 0, 0, dst.0);
        self.u8(0xF7);
        self.u8(0xC0 | (dst.0 & 7));
        self.code.extend_from_slice(&imm.to_le_bytes());
    }

    /// `neg dst` (64-bit two's complement).
    pub fn neg(&mut self, dst: Reg) {
        self.rex(true, 0, 0, dst.0);
        self.u8(0xF7);
        self.u8(0xC0 | 3 << 3 | (dst.0 & 7));
    }

    /// `cmovcc dst, src` (64-bit).
    pub fn cmov(&mut self, cc: Cc, dst: Reg, src: Reg) {
        self.rex(true, dst.0, 0, src.0);
        self.u8(0x0F);
        self.u8(0x40 | cc as u8);
        self.u8(0xC0 | (dst.0 & 7) << 3 | (src.0 & 7));
    }

    /// `xor dst32, dst32` — the canonical zeroing idiom.
    pub fn zero(&mut self, dst: Reg) {
        self.rex(false, dst.0, 0, dst.0);
        self.u8(0x31);
        self.u8(0xC0 | (dst.0 & 7) << 3 | (dst.0 & 7));
    }

    /// `lea dst, [m]`.
    pub fn lea(&mut self, dst: Reg, m: Mem) {
        self.mem_rex(true, dst.0, m);
        self.u8(0x8D);
        self.modrm_mem(dst.0, m);
    }

    /// `lea dst, [rip + rel32]` with a zero placeholder; returns the offset
    /// of the rel32 field for [`Asm::patch_rel32`] — the address of data
    /// published in the same buffer, position-independently.
    pub fn lea_rip(&mut self, dst: Reg) -> usize {
        self.rex(true, dst.0, 0, 0);
        self.u8(0x8D);
        self.u8((dst.0 & 7) << 3 | 5);
        let at = self.here();
        self.i32le(0);
        at
    }

    // ---- shifts ----------------------------------------------------------

    /// `shl dst, imm8`.
    pub fn shl_ri(&mut self, dst: Reg, amount: u8) {
        self.rex(true, 0, 0, dst.0);
        self.u8(0xC1);
        self.u8(0xC0 | 4 << 3 | (dst.0 & 7));
        self.u8(amount);
    }

    /// `shr dst, imm8`.
    pub fn shr_ri(&mut self, dst: Reg, amount: u8) {
        self.rex(true, 0, 0, dst.0);
        self.u8(0xC1);
        self.u8(0xC0 | 5 << 3 | (dst.0 & 7));
        self.u8(amount);
    }

    /// `sar dst, imm8` (arithmetic: sign-extends a field shifted to the top).
    pub fn sar_ri(&mut self, dst: Reg, amount: u8) {
        self.rex(true, 0, 0, dst.0);
        self.u8(0xC1);
        self.u8(0xC0 | 7 << 3 | (dst.0 & 7));
        self.u8(amount);
    }

    /// `shl dst, cl`.
    pub fn shl_cl(&mut self, dst: Reg) {
        self.rex(true, 0, 0, dst.0);
        self.u8(0xD3);
        self.u8(0xC0 | 4 << 3 | (dst.0 & 7));
    }

    /// `shr dst, cl`.
    pub fn shr_cl(&mut self, dst: Reg) {
        self.rex(true, 0, 0, dst.0);
        self.u8(0xD3);
        self.u8(0xC0 | 5 << 3 | (dst.0 & 7));
    }

    /// `bswap dst` (64-bit byte reversal — big-endian bit-stream loads).
    pub fn bswap(&mut self, dst: Reg) {
        self.rex(true, 0, 0, dst.0);
        self.u8(0x0F);
        self.u8(0xC8 | (dst.0 & 7));
    }

    // ---- control flow ----------------------------------------------------

    /// `push r`.
    pub fn push(&mut self, r: Reg) {
        self.rex(false, 0, 0, r.0);
        self.u8(0x50 | (r.0 & 7));
    }

    /// `pop r`.
    pub fn pop(&mut self, r: Reg) {
        self.rex(false, 0, 0, r.0);
        self.u8(0x58 | (r.0 & 7));
    }

    /// `add rsp, imm8`.
    pub fn add_rsp(&mut self, imm: u8) {
        self.u8(0x48);
        self.u8(0x83);
        self.u8(0xC4);
        self.u8(imm);
    }

    /// `call r` (indirect).
    fn call_r(&mut self, r: Reg) {
        self.rex(false, 0, 0, r.0);
        self.u8(0xFF);
        self.u8(0xC0 | 2 << 3 | (r.0 & 7));
    }

    /// `jmp qword [m]` (indirect through memory — table dispatch).
    pub fn jmp_m(&mut self, m: Mem) {
        self.mem_rex(false, 0, m);
        self.u8(0xFF);
        self.modrm_mem(4, m);
    }

    /// `ret`.
    pub fn ret(&mut self) {
        self.u8(0xC3);
    }

    /// `jmp rel32` with a zero placeholder; returns the offset of the
    /// rel32 field for [`Asm::patch_rel32`].
    pub fn jmp_rel32(&mut self) -> usize {
        self.u8(0xE9);
        let at = self.here();
        self.i32le(0);
        at
    }

    /// `jcc rel32` with a zero placeholder; returns the rel32 field offset.
    pub fn jcc_rel32(&mut self, cc: Cc) -> usize {
        self.u8(0x0F);
        self.u8(0x80 | cc as u8);
        let at = self.here();
        self.i32le(0);
        at
    }

    /// `call rel32` with a zero placeholder; returns the rel32 field offset.
    /// The callee is a stub in the same buffer and returns with `ret`.
    pub fn call_rel32(&mut self) -> usize {
        self.u8(0xE8);
        let at = self.here();
        self.i32le(0);
        at
    }

    /// `jmp` to an already-emitted `target`: rel8 when it reaches, else
    /// rel32.
    pub fn jmp_to(&mut self, target: usize) {
        if let Some(rel) = self.rel8_to(target) {
            self.u8(0xEB);
            self.u8(rel as u8);
        } else {
            let at = self.jmp_rel32();
            self.patch_rel32(at, target);
        }
    }

    /// `jcc` to an already-emitted `target`: rel8 when it reaches, else
    /// rel32.
    pub fn jcc_to(&mut self, cc: Cc, target: usize) {
        if let Some(rel) = self.rel8_to(target) {
            self.u8(0x70 | cc as u8);
            self.u8(rel as u8);
        } else {
            let at = self.jcc_rel32(cc);
            self.patch_rel32(at, target);
        }
    }

    /// Displacement of a 2-byte short jump emitted here to `target`.
    fn rel8_to(&self, target: usize) -> Option<i8> {
        i8::try_from(target as i64 - (self.here() as i64 + 2)).ok()
    }

    /// Points the rel32 field at `field_off` to the instruction at
    /// `target` (both buffer offsets).
    pub fn patch_rel32(&mut self, field_off: usize, target: usize) {
        let rel = i32::try_from(target as i64 - (field_off as i64 + 4))
            .expect("jump displacement fits rel32");
        self.code[field_off..field_off + 4].copy_from_slice(&rel.to_le_bytes());
    }

    /// `movabs rax, addr; call rax` — the helper-call idiom. Clobbers RAX
    /// (and, per the SysV ABI, all caller-saved registers).
    pub fn call_abs(&mut self, addr: usize) {
        self.rex(true, 0, 0, 0);
        self.u8(0xB8);
        self.code.extend_from_slice(&(addr as u64).to_le_bytes());
        self.call_r(reg::RAX);
    }
}

#[cfg(test)]
mod tests {
    use super::reg::*;
    use super::*;

    fn bytes_of(f: impl FnOnce(&mut Asm)) -> Vec<u8> {
        let mut a = Asm::new();
        f(&mut a);
        a.into_bytes()
    }

    #[test]
    fn canonical_encodings_match_hand_assembly() {
        assert_eq!(bytes_of(|a| a.load(RAX, Mem::base(R13, 0x10))), [0x49, 0x8B, 0x45, 0x10]);
        assert_eq!(bytes_of(|a| a.store(Mem::base(R12, 8), RCX)), [0x49, 0x89, 0x4C, 0x24, 0x08]);
        assert_eq!(
            bytes_of(|a| a.load8_zx(RDX, Mem::index(R13, RAX, 0, 0))),
            [0x49, 0x0F, 0xB6, 0x54, 0x05, 0x00]
        );
        assert_eq!(
            bytes_of(|a| a.load16_zx(RCX, Mem::index(R12, RDX, 1, 0))),
            [0x49, 0x0F, 0xB7, 0x0C, 0x54]
        );
        assert_eq!(bytes_of(|a| a.mov32_ri(RSI, 57)), [0xBE, 57, 0, 0, 0]);
        assert_eq!(bytes_of(|a| a.mov32_ri(R9, 64)), [0x41, 0xB9, 64, 0, 0, 0]);
        assert_eq!(bytes_of(|a| a.neg(RCX)), [0x48, 0xF7, 0xD9]);
        assert_eq!(bytes_of(|a| a.movzx8_rr(RCX, RDX)), [0x0F, 0xB6, 0xCA]);
        assert_eq!(bytes_of(|a| a.test32_ri(RDX, 0x300)), [0xF7, 0xC2, 0x00, 0x03, 0, 0]);
        assert_eq!(bytes_of(|a| a.sar_ri(RAX, 48)), [0x48, 0xC1, 0xF8, 48]);
        // Table lookup: a dword row at [table + window*4].
        assert_eq!(bytes_of(|a| a.load32(RDX, Mem::index(RCX, RAX, 2, 0))), [0x8B, 0x14, 0x81]);
        assert_eq!(bytes_of(|a| a.cmov(Cc::A, R13, RCX)), [0x4C, 0x0F, 0x47, 0xE9]);
    }

    #[test]
    fn displacement_takes_the_shortest_form() {
        // No displacement, disp8 at both ends of its range, disp32 past it.
        assert_eq!(bytes_of(|a| a.load(RAX, Mem::base(RBX, 0))), [0x48, 0x8B, 0x03]);
        assert_eq!(bytes_of(|a| a.load(RAX, Mem::base(RBX, 127))), [0x48, 0x8B, 0x43, 0x7F]);
        assert_eq!(bytes_of(|a| a.load(RAX, Mem::base(RBX, -128))), [0x48, 0x8B, 0x43, 0x80]);
        assert_eq!(
            bytes_of(|a| a.load(RAX, Mem::base(RBX, 128))),
            [0x48, 0x8B, 0x83, 0x80, 0, 0, 0]
        );
        assert_eq!(
            bytes_of(|a| a.load(RAX, Mem::base(RBX, -129))),
            [0x48, 0x8B, 0x83, 0x7F, 0xFF, 0xFF, 0xFF]
        );
        // RSP/R12 as base always carry a SIB byte.
        assert_eq!(bytes_of(|a| a.load(RAX, Mem::base(RSP, 0))), [0x48, 0x8B, 0x04, 0x24]);
        assert_eq!(bytes_of(|a| a.load(RAX, Mem::base(R12, 0))), [0x49, 0x8B, 0x04, 0x24]);
        assert_eq!(
            bytes_of(|a| a.load(RAX, Mem::base(R12, 0x100))),
            [0x49, 0x8B, 0x84, 0x24, 0, 1, 0, 0]
        );
        // RBP/R13 as base have no displacement-free form: disp8 of zero.
        assert_eq!(bytes_of(|a| a.load(RAX, Mem::base(RBP, 0))), [0x48, 0x8B, 0x45, 0x00]);
        assert_eq!(bytes_of(|a| a.load(RAX, Mem::base(R13, 0))), [0x49, 0x8B, 0x45, 0x00]);
        assert_eq!(bytes_of(|a| a.lea(RAX, Mem::index(R10, R9, 0, 0))), [0x4B, 0x8D, 0x04, 0x0A]);
        // Table dispatch: index*8 with a disp32 group base.
        assert_eq!(
            bytes_of(|a| a.jmp_m(Mem::index(R14, RAX, 3, 0x1000))),
            [0x41, 0xFF, 0xA4, 0xC6, 0x00, 0x10, 0, 0]
        );
        assert_eq!(bytes_of(|a| a.jmp_m(Mem::index(R14, RCX, 3, 0))), [0x41, 0xFF, 0x24, 0xCE]);
    }

    #[test]
    fn alu_immediates_take_the_shortest_form() {
        assert_eq!(bytes_of(|a| a.alu_ri(Alu::Add, R15, 3)), [0x49, 0x83, 0xC7, 0x03]);
        assert_eq!(bytes_of(|a| a.alu_ri(Alu::Cmp, R9, 8)), [0x49, 0x83, 0xF9, 0x08]);
        assert_eq!(bytes_of(|a| a.alu_ri(Alu::Sub, RAX, -128)), [0x48, 0x83, 0xE8, 0x80]);
        assert_eq!(
            bytes_of(|a| a.alu_ri(Alu::Add, RCX, 0x1234)),
            [0x48, 0x81, 0xC1, 0x34, 0x12, 0, 0]
        );
        assert_eq!(bytes_of(|a| a.alu_ri(Alu::Add, RCX, 128)), [0x48, 0x81, 0xC1, 0x80, 0, 0, 0]);
        // RAX with an imm32: the accumulator form, no ModRM.
        assert_eq!(bytes_of(|a| a.alu_ri(Alu::Cmp, RAX, 0xFFF8)), [0x48, 0x3D, 0xF8, 0xFF, 0, 0]);
        assert_eq!(bytes_of(|a| a.alu32_ri(Alu::Add, RCX, 0x100)), [0x81, 0xC1, 0, 1, 0, 0]);
        assert_eq!(bytes_of(|a| a.alu32_ri(Alu::Add, RCX, 1)), [0x83, 0xC1, 0x01]);
        assert_eq!(
            bytes_of(|a| a.alu_mi(Alu::Cmp, Mem::base(RBX, 0x20), 0)),
            [0x48, 0x83, 0x7B, 0x20, 0x00]
        );
        assert_eq!(
            bytes_of(|a| a.alu_mi(Alu::Add, Mem::base(RBX, 0x20), 0x12345)),
            [0x48, 0x81, 0x43, 0x20, 0x45, 0x23, 0x01, 0x00]
        );
    }

    #[test]
    fn calls_and_short_jumps_encode_relative_to_the_next_instruction() {
        let mut a = Asm::new();
        let call = a.call_rel32();
        a.ret();
        let stub = a.here();
        a.ret();
        a.patch_rel32(call, stub);
        assert_eq!(a.into_bytes(), [0xE8, 0x01, 0, 0, 0, 0xC3, 0xC3]);

        // Backward targets: rel8 while it reaches, rel32 beyond.
        let mut a = Asm::new();
        a.ret();
        a.jmp_to(0);
        a.jcc_to(Cc::Ae, 0);
        assert_eq!(a.into_bytes(), [0xC3, 0xEB, 0xFD, 0x73, 0xFB]);
        let mut a = Asm::new();
        for _ in 0..126 {
            a.ret();
        }
        a.jmp_to(0); // -128: the last rel8
        a.jmp_to(0); // -130: rel32
        a.jcc_to(Cc::B, 0);
        assert_eq!(
            a.into_bytes()[126..],
            [0xEB, 0x80, 0xE9, 0x7B, 0xFF, 0xFF, 0xFF, 0x0F, 0x82, 0x75, 0xFF, 0xFF, 0xFF]
        );
    }

    /// Publishes `code` as a function of two integers.
    #[cfg(all(target_arch = "x86_64", target_os = "linux", not(miri)))]
    fn published(code: &[u8]) -> impl Fn(u64, u64) -> u64 {
        let buf = crate::jit::exec::ExecBuf::publish(code).unwrap();
        // SAFETY: every caller emits a complete SysV function that reads at
        // most `rdi` and `rsi`, answers in `rax` and leaves through `ret`;
        // the closure owns the pages, so they stay mapped while it can run.
        let f =
            unsafe { std::mem::transmute::<usize, extern "C" fn(u64, u64) -> u64>(buf.addr_of(0)) };
        move |a, b| {
            let _mapped = &buf;
            f(a, b)
        }
    }

    #[cfg(all(target_arch = "x86_64", target_os = "linux", not(miri)))]
    #[test]
    fn local_stub_is_called_and_returned_through() {
        // fn(a, b) -> 2 * max(a, b) - 1, the doubling done by a stub behind
        // the function's own `ret`.
        let mut a = Asm::new();
        a.mov_rr(RAX, RDI);
        a.alu_rr(Alu::Cmp, RSI, RAX);
        a.cmov(Cc::A, RAX, RSI);
        let call = a.call_rel32();
        a.neg(RAX);
        a.ret();
        let stub = a.here();
        a.patch_rel32(call, stub);
        a.neg(RAX);
        a.alu_rr(Alu::Add, RAX, RAX);
        a.alu_ri(Alu::Add, RAX, 1);
        a.ret();
        let f = published(&a.into_bytes());
        for (x, y) in [(0u64, 1u64), (7, 3), (3, 7), (1 << 40, 5), (9, 9)] {
            assert_eq!(f(x, y), 2 * x.max(y) - 1, "x={x} y={y}");
        }
    }

    #[cfg(all(target_arch = "x86_64", target_os = "linux", not(miri)))]
    #[test]
    fn rip_relative_table_behind_the_code_is_read_in_place() {
        // fn(i) -> sign-extended high half of row i, shifted left by the
        // row's low byte; the rows sit behind the function's `ret`.
        let rows: [u32; 4] = [0x0001_0003, 0xFFFF_0000, 0x7FFF_0010, 0x8000_0001];
        let mut a = Asm::new();
        let table = a.lea_rip(RCX);
        a.load32(RDX, Mem::index(RCX, RDI, 2, 0));
        a.movzx8_rr(RCX, RDX);
        a.mov_rr(RAX, RDX);
        a.shl_ri(RAX, 32);
        a.sar_ri(RAX, 48);
        a.shl_cl(RAX);
        a.ret();
        for _ in a.here()..a.here().next_multiple_of(4) {
            a.ret();
        }
        let at = a.here();
        a.patch_rel32(table, at);
        let mut code = a.into_bytes();
        assert_eq!(code[..3], [0x48, 0x8D, 0x0D], "lea rcx, [rip + rel32]");
        code.extend(rows.iter().flat_map(|r| r.to_le_bytes()));
        let f = published(&code);
        for (i, row) in rows.iter().enumerate() {
            let want = i64::from((row >> 16) as u16 as i16) << (row & 0xFF);
            assert_eq!(f(i as u64, 0) as i64, want, "row {i}");
        }
    }

    #[cfg(all(target_arch = "x86_64", target_os = "linux", not(miri)))]
    #[test]
    fn emitted_arithmetic_executes_correctly() {
        // fn(a: u64 /*rdi*/, b: u64 /*rsi*/) -> (a + b*8 - 5) ^ (a >> 3)
        let mut a = Asm::new();
        a.mov_rr(RAX, RDI);
        a.lea(RCX, Mem::index(RAX, RSI, 3, -5));
        a.shr_ri(RAX, 3);
        a.alu_rr(Alu::Xor, RCX, RAX);
        a.mov_rr(RAX, RCX);
        a.ret();
        let f = published(&a.into_bytes());
        for (x, y) in [(0u64, 0u64), (123, 7), (u64::MAX, 1), (1 << 40, 9999)] {
            let want = x.wrapping_add(y.wrapping_mul(8)).wrapping_sub(5) ^ (x >> 3);
            assert_eq!(f(x, y), want, "x={x} y={y}");
        }
    }

    #[cfg(all(target_arch = "x86_64", target_os = "linux", not(miri)))]
    #[test]
    fn rel32_branches_loop_and_land() {
        // fn(n: u64) -> sum 1..=n, via a backwards branch.
        let mut a = Asm::new();
        a.zero(RAX);
        a.zero(RCX);
        let top = a.here();
        a.alu_rr(Alu::Cmp, RCX, RDI);
        let done = a.jcc_rel32(Cc::Ae);
        a.alu_ri(Alu::Add, RCX, 1);
        a.alu_rr(Alu::Add, RAX, RCX);
        let back = a.jmp_rel32();
        a.patch_rel32(back, top);
        let end = a.here();
        a.patch_rel32(done, end);
        a.ret();
        let f = published(&a.into_bytes());
        assert_eq!(f(0, 0), 0);
        assert_eq!(f(10, 0), 55);
        assert_eq!(f(1000, 0), 500_500);
    }
}
