//! JIT lowering of predecoded lane programs to native x86-64.
//!
//! At assemble time every verified [`Image`](crate::machine::Image) gets
//! its `PredecodedBlock` table compiled to straight-line machine code per
//! block, with branch-stitched control flow between blocks. Everything that
//! emits or maps machine code sits here, next to its one consumer: `x86`
//! is the instruction encoder, [`exec`] the W^X-managed pages (`ExecBuf`),
//! and [`enabled`] the tier's one switch (`RECODE_NO_JIT=1`).
//!
//! ## Multi-way dispatch: a table row where the targets are siblings
//!
//! A `DispatchSym`/`DispatchPeek` lowers to an indirect jump through the
//! per-image table of block entries — one mispredicted branch per
//! unpredictable window. Where the targets of the group are parametric
//! siblings (same actions, registers and successor; different immediates:
//! the emit handlers and the long-code prefix handlers of a Huffman image),
//! the lowering instead emits the block **once**, as a shared body, and a
//! data table of the immediates, one `u32` row per window, published behind
//! the code. The dispatch loads its window's row and falls into the body;
//! rows the table does not serve (other blocks, holes) keep the indirect
//! jump behind one tag test. The rule, the row layout and which blocks lose
//! their own code are in the `sibling` submodule; the accounting is unchanged because
//! siblings have the same actions, so a shared body charges what each of
//! its members would.
//!
//! A sibling's successor may itself be a dispatch: every emit handler of a
//! Huffman image ends in the `dispatch.peek` of the next code. The shared
//! body then ends in that dispatch — composed table, the group's own table,
//! the tag test — and what the dispatch enters is the body it sits in, so
//! the decode loop is the body and one jump back to its top.
//!
//! A two-level group — a Huffman image's primary dispatch, whose long codes
//! take a prefix handler (`skip b; dispatch.peek k`) into a second group of
//! emit handlers — also gets a **composed** table over a wider window of up
//! to 12 bits, whose rows are the second hop's rows with the first hop's
//! width and charge folded in. While the buffer holds a whole wide window,
//! one row load and the leaf body serve every code that fits it, long or
//! short, with no test the host could mispredict on the code's length; a
//! window the table does not cover and the stream's tail take the group's
//! own table as before.
//!
//! ## Steady state: registers only
//!
//! A block on its way through executes no helper call and no
//! read-modify-write of [`JitState`]. Modeled cycles, the three action-class
//! counters, the stream window (`buf`, `buf_bits`, `pos`) and the scratchpad
//! dirty mark live in host registers (the map is the `const` block below);
//! per block the accounting is one `add`/`cmp [cycle_limit]`/`ja` plus one
//! `add` per action class present. `actions`, `dispatches` and the dispatch
//! class are not counted at all: every block charges `1 + actions` cycles,
//! so after a clean halt `actions = alu + mem + stream` and `dispatches =
//! cycles − actions`, exactly.
//!
//! Stream operations of up to 57 bits (and `InSymLe` of up to 8 bytes, as
//! shifts and a `bswap` of the buffer) are served from the buffer register.
//! Everything else sits behind the last block: a short buffer jumps to a
//! per-site slow path that calls one shared **word-refill stub** (an 8-byte
//! big-endian load while a whole word lies below `bit_len`, appending whole
//! bytes only, so the `StreamUnit` invariants — next load byte-aligned, zero
//! bits below `buf_bits` — hold exactly) and resumes; past the last whole
//! word it calls the scalar helper through a trampoline that spills the
//! window to `JitState`, where the helper runs the interpreter's own
//! `StreamUnit` method on it. So helpers serve the stream's final < 8 bytes,
//! underflow, and the forms with no buffered lowering (`SkipReg`, widths
//! above 57 from garbage encodings).
//!
//! ## The bail-and-rerun contract
//!
//! Compiled code handles the *success* path exactly: architectural state
//! (registers, scratchpad, stream position, the dirty-granule mask), modeled cycles,
//! dispatch/action counts, and opclass attribution are all byte-identical
//! to the interpreter's. On **any** abnormal condition — a trap
//! precondition (scratchpad bounds, stream underflow, unmapped dispatch),
//! the cycle budget, or a dispatch into a hole (hole entries of the
//! dispatch table *are* the bail stub) — the code sets `status = 1` and
//! returns through one shared bail stub. The caller then
//! re-runs the interpreter from a fresh prologue; lane execution is
//! deterministic, so the re-run reproduces the exact [`LaneError`] with
//! exact payloads. The compiled code never fabricates an error value,
//! which keeps the lowering small and makes trap equivalence trivially
//! total: every divergent case is, by construction, the interpreter's own
//! answer.
//!
//! Mid-block bails discard the JIT's partial accounting with the rest of
//! the run, so per-block accounting can be charged as whole-block
//! constants at block entry — the same order the interpreter uses
//! (full block cost lands on the meter before the budget check).
//!
//! ## Integrity
//!
//! The artifact pins itself to its inputs with FNV digests: `code_digest`
//! over the published bytes (machine code and dispatch tables) and
//! `words_digest` over the image's code words. `verify_image` re-checks
//! both and re-derives every table row from the predecoded blocks (a
//! mismatch is an `Error` finding under `Analysis::TranslationValidation`),
//! and every run does a cheap sentinel check (first/last 8 bytes + length)
//! that gates `Lane::run` with
//! [`LaneError::JitInvalid`](crate::lane::LaneError) on damage.

pub mod exec;
mod sibling;
mod x86;

pub use exec::{ExecBuf, JitError};

use crate::isa::{Action, Cond, NUM_REGS, SCRATCHPAD_BYTES};
use crate::lane::{
    jit_stream_peek, jit_stream_read, jit_stream_read_le, jit_stream_skip, OpClassCycles,
};
use crate::machine::{DecodedTransition, PredecodedBlock};
use sibling::{Composed, Group, Plan, IMM_SHIFT, LINK_SHIFT, TAG_GENERIC, TAG_SHIFT, VIA_SHIFT};
use std::mem::offset_of;
use x86::reg::{R10, R11, R12, R13, R14, R15, R8, R9, RAX, RBP, RBX, RCX, RDI, RDX, RSI};
use x86::{Alu, Asm, Cc, Mem, Reg};

/// True when this build can emit native code at all: x86-64 Linux, not
/// under Miri (which interprets MIR and cannot run machine code).
#[must_use]
pub const fn supported() -> bool {
    cfg!(all(target_arch = "x86_64", target_os = "linux", not(miri)))
}

/// True when the JIT tier should be used: the platform supports it and
/// the `RECODE_NO_JIT=1` escape hatch is not set.
///
/// The environment is consulted exactly once per process — `Lane::run`
/// sits on an allocation-free hot path, and `std::env::var` allocates.
#[must_use]
pub fn enabled() -> bool {
    static ENABLED: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *ENABLED.get_or_init(|| {
        supported() && !std::env::var("RECODE_NO_JIT").is_ok_and(|v| v.trim() == "1")
    })
}

/// A completed (or failed) lane-image compilation, reported through the
/// process-wide hook so the flight recorder can turn it into an
/// `EventKind::JitCompile` span without this crate depending on the
/// recorder.
#[derive(Debug, Clone, Copy)]
pub struct CompileEvent {
    /// Machine-code bytes published (0 on failure).
    pub code_bytes: usize,
    /// Blocks lowered.
    pub blocks: usize,
    /// Dispatch groups the lowering serves from data tables instead of
    /// indirect jumps, and the bytes of those tables (part of `code_bytes`).
    pub table_groups: usize,
    /// See `table_groups`.
    pub table_bytes: usize,
    /// Wall time of the lowering + publish, in nanoseconds.
    pub wall_ns: u64,
    /// False when the compile failed and the tier fell back to the
    /// interpreter.
    pub ok: bool,
}

static COMPILE_HOOK: std::sync::OnceLock<fn(&CompileEvent)> = std::sync::OnceLock::new();

/// Installs the process-wide compile-event hook (first caller wins;
/// returns whether this call installed it).
pub fn set_compile_hook(hook: fn(&CompileEvent)) -> bool {
    COMPILE_HOOK.set(hook).is_ok()
}

/// Reports a compile to the hook, if one is installed.
pub fn report_compile(ev: &CompileEvent) {
    if let Some(h) = COMPILE_HOOK.get() {
        h(ev);
    }
}

/// 64-bit FNV-1a over a byte stream — the digest used to pin compiled
/// artifacts to the exact bytes they were lowered from. Not
/// cryptographic; it detects tampering and staleness, not adversaries
/// (the W^X page protection is the integrity boundary).
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// FNV-1a over a `u128` word table (little-endian bytes), for pinning a
/// lane-program JIT artifact to the image words it was compiled from.
#[must_use]
pub fn fnv1a_words(words: &[u128]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for &b in &w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

// Host register map. Everything a block touches on its way through lives in
// a register; `JitState` memory is read (never read-modify-written) by the
// steady state and is the spill area around helper calls.
/// `&JitState + STATE_BIAS`.
const STATE: Reg = RBX;
/// Stream window: MSB-aligned refill buffer, its valid bits, the cursor.
const BUF: Reg = R8;
const BITS: Reg = R9;
const POS: Reg = R10;
/// Opclass counters (`actions`, `dispatches` and the dispatch class are
/// derived from these and `CYCLES` after a clean halt).
const N_ALU: Reg = R11;
const N_MEM: Reg = RBP;
const N_STREAM: Reg = RDI;
/// Scratchpad base.
const SCRATCH: Reg = R12;
/// Scratchpad dirty-granule mask (see `Lane`'s `dirty`).
const DIRTY: Reg = R13;
/// Dispatch table base.
const TABLE: Reg = R14;
/// Modeled cycles.
const CYCLES: Reg = R15;
// Temporaries: RAX, RCX, RDX, RSI. The refill stub leaves RDX alone and the
// helper trampolines preserve it, so a value can ride in RDX across a
// stream operation.

/// In/out state for one compiled lane run. The emitted code addresses
/// fields by `offset_of`, so the layout must stay `repr(C)`.
#[repr(C)]
pub struct JitState {
    /// Lane register file (`r0` writes are suppressed at emit time,
    /// mirroring the hardwired zero).
    pub(crate) regs: [u64; NUM_REGS],
    /// Trap after this many cycles.
    pub(crate) cycle_limit: u64,
    /// Valid bits in the stream.
    pub(crate) bit_len: u64,
    /// Input stream base.
    pub(crate) in_ptr: *const u8,
    /// Scratchpad base (64 KB).
    pub(crate) scratch: *mut u8,
    /// Dispatch table: absolute compiled-entry address per image address
    /// (the bail stub for holes/invalid words).
    pub(crate) table: *const usize,
    /// 0 = clean halt, 1 = bail (re-run the interpreter).
    pub(crate) status: u64,
    /// Scratchpad dirty-granule mask (written on halt and on bail).
    pub(crate) dirty: u64,
    /// Modeled cycles (written on a clean halt).
    pub(crate) cycles: u64,
    /// Opclass attribution: ALU cycles (halt, and spilled around helpers).
    pub(crate) oc_alu: u64,
    /// Opclass attribution: memory cycles (written on a clean halt).
    pub(crate) oc_mem: u64,
    /// Opclass attribution: stream cycles (halt, and spilled around helpers).
    pub(crate) oc_stream: u64,
    /// Stream cursor, refill buffer and its valid bits — the `StreamUnit`
    /// fields, valid only while a helper runs.
    pub(crate) pos: u64,
    pub(crate) buf: u64,
    pub(crate) buf_bits: u64,
    /// RDX across a helper call.
    pub(crate) saved_rdx: u64,
    /// Input buffer length in bytes (helpers only).
    pub(crate) in_len: u64,
    /// Helper calls made by this run (counted by the helpers).
    pub(crate) helper_calls: u64,
}

/// `STATE` points this far into the state, so that the register file sits at
/// disp8 −128..−8 and the next 16 fields at disp8 0..120.
const STATE_BIAS: usize = NUM_REGS * 8;

#[allow(clippy::cast_possible_truncation, clippy::cast_possible_wrap)]
fn st(off: usize) -> Mem {
    Mem::base(STATE, off as i32 - STATE_BIAS as i32)
}

/// Lane register `r` (1..16; `r0` never reaches memory).
fn lane_reg(r: u8) -> Mem {
    st(offset_of!(JitState, regs) + usize::from(r) * 8)
}

/// All slow-path helpers share one shape; going through the fn-pointer type
/// (rather than casting the fn item directly) also type-checks each helper's
/// signature against what the emitted call sequence assumes.
type Helper = unsafe extern "C" fn(*mut JitState, u64) -> u64;

/// The stream unit's four operations. Each has a scalar helper (the
/// interpreter's own `StreamUnit` method) behind a trampoline.
#[derive(Clone, Copy, PartialEq, Eq)]
enum StreamOp {
    Read,
    Peek,
    Skip,
    ReadLe,
}

impl StreamOp {
    const ALL: [StreamOp; 4] = [StreamOp::Read, StreamOp::Peek, StreamOp::Skip, StreamOp::ReadLe];

    fn helper(self) -> usize {
        let h: Helper = match self {
            StreamOp::Read => jit_stream_read,
            StreamOp::Peek => jit_stream_peek,
            StreamOp::Skip => jit_stream_skip,
            StreamOp::ReadLe => jit_stream_read_le,
        };
        h as usize
    }
}

/// The out-of-line half of a buffered stream operation: entered when the
/// refill buffer holds fewer than `need` bits.
struct ColdSite {
    /// The helper that serves the operation past the last whole word; `None`
    /// when `done` is a narrower path that does its own asking.
    op: Option<StreamOp>,
    /// Helper argument (bits, or bytes for `ReadLe`) and the buffered bits
    /// the fast path needs; `None` when both are the table row's width, in
    /// DL (a shared body's stream operation).
    width: Option<(u8, u8)>,
    /// rel32 field of the hot path's `jb`.
    entry: usize,
    /// Hot-path offset of the buffered fast path (taken after a refill).
    back: usize,
    /// Hot-path offset just past it (taken after the helper served it).
    done: usize,
}

/// The lowering pass: one `Asm` buffer, per-block offsets, and the fixup
/// lists resolved after all blocks are emitted.
struct Lower {
    a: Asm,
    /// `(rel32 field, target image address)` forward references — resolved
    /// to the target's compiled entry, or to the bail stub when unmapped.
    fixups: Vec<(usize, u32)>,
    /// rel32 fields aimed at the shared bail stub.
    bail: Vec<usize>,
    /// rel32 fields aimed at the epilogue (clean halts).
    halt: Vec<usize>,
    /// rel32 fields of hot-path calls to a helper trampoline (operations
    /// with no buffered form).
    tramp_calls: Vec<(usize, StreamOp)>,
    /// Slow paths to emit behind the last block.
    cold: Vec<ColdSite>,
    /// Image address → compiled code offset.
    block_off: Vec<Option<usize>>,
    /// Which dispatch groups are served from tables, and by which bodies.
    plan: Plan,
    /// Sibling class → offset of its shared body, once emitted.
    class_off: Vec<Option<usize>>,
    /// `(rel32 field of a `lea`, first row)` references into the tables,
    /// resolved once they are placed behind the code.
    table_refs: Vec<(usize, u32)>,
}

/// Whether [`Lower::emit_action`] leaves RDX alone: a shared body keeps its
/// table row there until the row's last use (the slow paths of the stream
/// operations preserve it).
fn keeps_rdx(a: Action) -> bool {
    !matches!(
        a,
        Action::Load { .. }
            | Action::Store { .. }
            | Action::LoadInc { .. }
            | Action::StoreInc { .. }
            | Action::InSymLe { bytes: 8.., .. }
    )
}

impl Lower {
    fn read_reg(&mut self, dst: Reg, r: u8) {
        if r == 0 {
            self.a.zero(dst);
        } else {
            self.a.load(dst, lane_reg(r));
        }
    }

    fn write_reg(&mut self, r: u8, src: Reg) {
        if r != 0 {
            self.a.store(lane_reg(r), src);
        }
    }

    /// Unconditional helper call for an operation with no buffered form
    /// (oversized widths from garbage encodings, register-counted skips).
    /// RSI holds the argument; the result lands in RAX.
    fn helper_call(&mut self, op: StreamOp) {
        let at = self.a.call_rel32();
        self.tramp_calls.push((at, op));
    }

    fn helper_call_imm(&mut self, op: StreamOp, arg: u8) {
        self.a.mov32_ri(RSI, u32::from(arg));
        self.helper_call(op);
    }

    /// Drops `n <= 57` bits the buffer is known to hold. Shifting is exact
    /// for `n == BITS` too: the bits below `BITS` are zero.
    fn consume(&mut self, n: u8) {
        self.a.shl_ri(BUF, n);
        self.a.alu_ri(Alu::Sub, BITS, i32::from(n));
        self.a.alu_ri(Alu::Add, POS, i32::from(n));
    }

    /// A stream operation served from the refill buffer when it holds at
    /// least `need <= 57` bits (the buffer never holds invalid bits, so
    /// that also proves `need <= remaining`). A short buffer leaves the hot
    /// path: word refill, and past the last whole word the scalar helper
    /// with the interpreter's refill/underflow logic.
    fn buffered(&mut self, op: StreamOp, arg: u8, need: u8, fast: impl FnOnce(&mut Lower)) {
        debug_assert!((1..=57).contains(&need));
        self.a.alu_ri(Alu::Cmp, BITS, i32::from(need));
        let entry = self.a.jcc_rel32(Cc::B);
        let back = self.a.here();
        fast(self);
        let done = self.a.here();
        self.cold.push(ColdSite { op: Some(op), width: Some((arg, need)), entry, back, done });
    }

    /// The width of a shared body's stream operation, the low byte of the
    /// table row in RDX: into RSI for arithmetic, and the row itself into
    /// RCX, whose low byte is the shift count. The buffer shift is on the
    /// loop-carried path from one symbol's row to the next one's window, and
    /// a plain `mov` adds no latency to it.
    fn row_width(&mut self) {
        self.a.movzx8_rr(RSI, RDX);
        self.a.mov32_rr(RCX, RDX);
    }

    /// [`Self::buffered`] for a shared body, whose width (at most 57) comes
    /// from the row: `fast` finds it in RSI and CL ([`Self::row_width`]).
    fn buffered_row(&mut self, op: StreamOp, fast: impl FnOnce(&mut Lower)) {
        self.row_width();
        self.a.alu_rr(Alu::Cmp, BITS, RSI);
        let entry = self.a.jcc_rel32(Cc::B);
        let back = self.a.here();
        fast(self);
        let done = self.a.here();
        self.cold.push(ColdSite { op: Some(op), width: None, entry, back, done });
    }

    /// Drops the CL = RSI bits (at most 57) the buffer is known to hold.
    fn consume_row(&mut self) {
        self.a.shl_cl(BUF);
        self.a.alu_rr(Alu::Sub, BITS, RSI);
        self.a.alu_rr(Alu::Add, POS, RSI);
    }

    /// `stream.read(bits)` / `stream.peek(bits)` into RAX: zero bits →
    /// constant 0; 1..=57 bits → buffered; oversized (garbage encodings) →
    /// helper.
    fn stream_value(&mut self, op: StreamOp, bits: u8) {
        match bits {
            0 => self.a.zero(RAX),
            1..=57 => self.buffered(op, bits, bits, |lo| {
                lo.a.mov_rr(RAX, BUF);
                lo.a.shr_ri(RAX, 64 - bits);
                if op == StreamOp::Read {
                    lo.consume(bits);
                }
            }),
            _ => self.helper_call_imm(op, bits),
        }
    }

    /// `stream.read_le(k)` for `1 <= k <= 7` into RAX: the top `k` buffer
    /// bytes, byte-reversed.
    fn read_le_part(&mut self, k: u8) {
        self.buffered(StreamOp::ReadLe, k, 8 * k, |lo| {
            lo.a.mov_rr(RAX, BUF);
            match k {
                1 => lo.a.shr_ri(RAX, 56),
                4 => {
                    lo.a.bswap(RAX);
                    lo.a.mov32_rr(RAX, RAX);
                }
                _ => {
                    lo.a.bswap(RAX);
                    lo.a.shl_ri(RAX, 64 - 8 * k);
                    lo.a.shr_ri(RAX, 64 - 8 * k);
                }
            }
            lo.consume(8 * k);
        });
    }

    /// `stream.read_le(bytes)` into RAX. Eight bytes are two 4-byte reads
    /// (the buffer cannot hold 64 bits at every phase); a bail between the
    /// two discards the first with the rest of the run.
    fn read_le(&mut self, bytes: u8) {
        match bytes {
            1..=7 => self.read_le_part(bytes),
            8 => {
                self.read_le_part(4);
                self.a.mov_rr(RDX, RAX);
                self.read_le_part(4);
                self.a.shl_ri(RAX, 32);
                self.a.alu_rr(Alu::Or, RAX, RDX);
            }
            _ => self.helper_call_imm(StreamOp::ReadLe, bytes),
        }
    }

    /// Emits the effective-address computation + bounds check for a
    /// scratchpad access: RAX = `reg(base) + offset`, bailing unless
    /// `addr <= SCRATCHPAD_BYTES - width` (the one unsigned compare that
    /// covers both the negative and past-the-end interpreter traps).
    #[allow(clippy::cast_possible_truncation, clippy::cast_possible_wrap)]
    fn mem_address(&mut self, base: u8, offset: i16, width: usize) {
        self.read_reg(RAX, base);
        if offset != 0 {
            self.a.alu_ri(Alu::Add, RAX, i32::from(offset));
        }
        self.a.alu_ri(Alu::Cmp, RAX, (SCRATCHPAD_BYTES - width) as i32);
        self.bail.push(self.a.jcc_rel32(Cc::A));
    }

    /// RCX = `RAX + width`, the end of the store just emitted.
    #[allow(clippy::cast_possible_truncation, clippy::cast_possible_wrap)]
    fn store_end(&mut self, width: usize) {
        self.a.lea(RCX, Mem::base(RAX, width as i32));
    }

    /// Marks the granule holding the store end in RCX (clobbered): `bts`
    /// takes its bit number mod 64, so an end at the pad's end marks bit 0,
    /// as the interpreter's mark does.
    fn mark_dirty(&mut self) {
        self.a.shr32_ri(RCX, crate::lane::GRANULE_SHIFT);
        self.a.bts(DIRTY, RCX);
    }

    fn scratch_load(&mut self, dst: Reg, width: usize) {
        let m = Mem::index(SCRATCH, RAX, 0, 0);
        match width {
            1 => self.a.load8_zx(dst, m),
            2 => self.a.load16_zx(dst, m),
            4 => self.a.load32(dst, m),
            _ => self.a.load(dst, m),
        }
    }

    fn scratch_store(&mut self, src: Reg, width: usize) {
        let m = Mem::index(SCRATCH, RAX, 0, 0);
        match width {
            1 => self.a.store8(m, src),
            2 => self.a.store16(m, src),
            4 => self.a.store32(m, src),
            _ => self.a.store(m, src),
        }
    }

    fn alu3(&mut self, op: Alu, rd: u8, rs: u8, rt: u8) {
        self.read_reg(RAX, rs);
        if rt != 0 {
            self.a.alu_rm(op, RAX, lane_reg(rt));
        } else if op == Alu::And {
            self.a.zero(RAX);
        }
        self.write_reg(rd, RAX);
    }

    #[allow(clippy::cast_possible_wrap, clippy::cast_sign_loss)]
    fn emit_action(&mut self, act: Action) {
        match act {
            Action::LoadImm { rd, imm } => {
                if rd != 0 {
                    self.a.store_imm(lane_reg(rd), i32::from(imm));
                }
            }
            Action::Mov { rd, rs } => {
                self.read_reg(RAX, rs);
                self.write_reg(rd, RAX);
            }
            Action::Add { rd, rs, rt } => self.alu3(Alu::Add, rd, rs, rt),
            Action::Sub { rd, rs, rt } => self.alu3(Alu::Sub, rd, rs, rt),
            Action::And { rd, rs, rt } => self.alu3(Alu::And, rd, rs, rt),
            Action::Or { rd, rs, rt } => self.alu3(Alu::Or, rd, rs, rt),
            Action::Xor { rd, rs, rt } => self.alu3(Alu::Xor, rd, rs, rt),
            Action::AddI { rd, rs, imm } => {
                self.read_reg(RAX, rs);
                if imm != 0 {
                    self.a.alu_ri(Alu::Add, RAX, i32::from(imm));
                }
                self.write_reg(rd, RAX);
            }
            Action::ShlI { rd, rs, amount } => {
                if amount >= 64 {
                    self.a.zero(RAX);
                } else {
                    self.read_reg(RAX, rs);
                    if amount > 0 {
                        self.a.shl_ri(RAX, amount);
                    }
                }
                self.write_reg(rd, RAX);
            }
            Action::ShrI { rd, rs, amount } => {
                if amount >= 64 {
                    self.a.zero(RAX);
                } else {
                    self.read_reg(RAX, rs);
                    if amount > 0 {
                        self.a.shr_ri(RAX, amount);
                    }
                }
                self.write_reg(rd, RAX);
            }
            Action::Load { rd, base, offset, width } => {
                let w = width.bytes();
                self.mem_address(base, offset, w);
                self.scratch_load(RDX, w);
                self.write_reg(rd, RDX);
            }
            Action::Store { rs, base, offset, width } => {
                let w = width.bytes();
                self.mem_address(base, offset, w);
                self.read_reg(RDX, rs);
                self.scratch_store(RDX, w);
                self.store_end(w);
                self.mark_dirty();
            }
            Action::LoadInc { rd, base, width } => {
                let w = width.bytes();
                self.mem_address(base, 0, w);
                self.scratch_load(RDX, w);
                // Base increment before the destination write, so
                // `rd == base` keeps the loaded value (interpreter order).
                self.a.lea(RCX, Mem::base(RAX, w as i32));
                self.write_reg(base, RCX);
                self.write_reg(rd, RDX);
            }
            Action::StoreInc { rs, base, width } => {
                let w = width.bytes();
                self.mem_address(base, 0, w);
                self.read_reg(RDX, rs);
                self.scratch_store(RDX, w);
                self.store_end(w);
                self.write_reg(base, RCX);
                self.mark_dirty();
            }
            Action::InSym { rd, bits } => {
                self.stream_value(StreamOp::Read, bits);
                self.write_reg(rd, RAX);
            }
            Action::InSymLe { rd, bytes } => {
                self.read_le(bytes);
                self.write_reg(rd, RAX);
            }
            Action::PeekSym { rd, bits } => {
                self.stream_value(StreamOp::Peek, bits);
                self.write_reg(rd, RAX);
            }
            Action::SkipSym { bits } => match bits {
                // skip(0) never traps and moves nothing observable.
                0 => {}
                1..=57 => self.buffered(StreamOp::Skip, bits, bits, |lo| lo.consume(bits)),
                _ => self.helper_call_imm(StreamOp::Skip, bits),
            },
            Action::SkipReg { rs } => {
                self.read_reg(RSI, rs);
                self.helper_call(StreamOp::Skip);
            }
            Action::InRem { rd } => {
                self.a.load(RAX, st(offset_of!(JitState, bit_len)));
                self.a.alu_rr(Alu::Sub, RAX, POS);
                self.write_reg(rd, RAX);
            }
        }
    }

    /// Code offset of the block at image address `target`, once emitted.
    fn emitted(&self, target: u32) -> Option<usize> {
        self.block_off.get(target as usize).copied().flatten()
    }

    /// Jump to the block at image address `target` (the bail stub when it
    /// is unmapped). `next` is the address emitted right after this block:
    /// a jump there is a fall-through and emits nothing.
    fn jump_to(&mut self, target: u32, next: Option<u32>) {
        if next == Some(target) {
            return;
        }
        if let Some(off) = self.emitted(target) {
            self.a.jmp_to(off);
        } else {
            let j = self.a.jmp_rel32();
            self.fixups.push((j, target));
        }
    }

    fn branch_to(&mut self, cc: Cc, target: u32) {
        if let Some(off) = self.emitted(target) {
            self.a.jcc_to(cc, off);
        } else {
            let j = self.a.jcc_rel32(cc);
            self.fixups.push((j, target));
        }
    }

    /// Indirect dispatch on the value in EAX: the target is `base +₃₂
    /// value`, resolved through the run-time table so the code stays
    /// position-independent. Hole entries hold the bail stub, so only the
    /// table bound needs a check — and not even that when the value is
    /// known to be below `2^bits` and the whole group lies inside the table.
    #[allow(clippy::cast_possible_wrap)]
    fn dynamic_dispatch(&mut self, base: u32, bits: Option<u8>) {
        let table_len = self.block_off.len() as u64;
        if bits.is_some_and(|b| u64::from(base) + (1u64 << b) <= table_len) {
            self.a.jmp_m(Mem::index(TABLE, RAX, 3, base as i32 * 8));
            return;
        }
        self.a.mov32_rr(RCX, RAX);
        if base != 0 {
            self.a.alu32_ri(Alu::Add, RCX, base as i32);
        }
        self.a.alu_ri(Alu::Cmp, RCX, table_len as i32);
        self.bail.push(self.a.jcc_rel32(Cc::Ae));
        self.a.jmp_m(Mem::index(TABLE, RCX, 3, 0));
    }

    /// Whole-block accounting up front (interpreter order: the block's full
    /// cost lands before the budget check; a mid-block bail discards it all
    /// anyway). Siblings have the same actions up to immediates, so a shared
    /// body charges exactly what each of its members would.
    ///
    /// With `via`, the block is a leaf body whose row (in EDX) may stand for
    /// a link and the leaf behind it: the row's via-link bit `v` adds the
    /// link's hop, a lone `skip` — `1 + 1` cycles, one stream action —
    /// without a branch. The interpreter checks the budget after the link
    /// and again after the leaf; cycles only grow, so one compare on the sum
    /// bails exactly when either of those would trap.
    #[allow(clippy::cast_possible_truncation, clippy::cast_possible_wrap)]
    fn account(&mut self, actions: &[Action], via: bool) {
        let mut classes = OpClassCycles::default();
        for a in actions {
            classes.bump(a);
        }
        let cycles = 1 + actions.len() as i32;
        if via {
            self.a.mov32_rr(RAX, RDX);
            self.a.shr_ri(RAX, VIA_SHIFT as u8);
            self.a.alu32_ri(Alu::And, RAX, 1);
            self.a.lea(CYCLES, Mem::index(CYCLES, RAX, 1, cycles));
            self.a.lea(N_STREAM, Mem::index(N_STREAM, RAX, 0, classes.stream as i32));
            classes.stream = 0;
        } else {
            self.a.alu_ri(Alu::Add, CYCLES, cycles);
        }
        self.a.alu_rm(Alu::Cmp, CYCLES, st(offset_of!(JitState, cycle_limit)));
        self.bail.push(self.a.jcc_rel32(Cc::A));
        for (counter, n) in [(N_ALU, classes.alu), (N_MEM, classes.mem), (N_STREAM, classes.stream)]
        {
            if n > 0 {
                self.a.alu_ri(Alu::Add, counter, n as i32);
            }
        }
    }

    fn emit_block(&mut self, addr: u32, blk: &PredecodedBlock, next: Option<u32>) {
        self.block_off[addr as usize] = Some(self.a.here());
        self.account(blk.actions(), false);
        for act in blk.actions() {
            self.emit_action(*act);
        }
        self.emit_transition(addr, blk.transition, next);
    }

    /// The terminator of the block at `addr` (which only a branch's
    /// fall-through depends on).
    fn emit_transition(&mut self, addr: u32, t: DecodedTransition, next: Option<u32>) {
        match t {
            DecodedTransition::Halt => {
                self.halt.push(self.a.jmp_rel32());
            }
            DecodedTransition::Jump(t) => self.jump_to(t, next),
            DecodedTransition::Branch { cond, rs, rt, taken } => {
                if rs != 0 && rt == 0 {
                    self.a.alu_mi(Alu::Cmp, lane_reg(rs), 0);
                } else {
                    self.read_reg(RAX, rs);
                    self.read_reg(RDX, rt);
                    self.a.alu_rr(Alu::Cmp, RAX, RDX);
                }
                let cc = match cond {
                    Cond::Eq => Cc::E,
                    Cond::Ne => Cc::Ne,
                    Cond::Ltu => Cc::B,
                    Cond::Geu => Cc::Ae,
                    Cond::Lts => Cc::L,
                    Cond::Ges => Cc::Ge,
                };
                self.branch_to(cc, taken);
                self.jump_to(addr + 1, next);
            }
            DecodedTransition::DispatchSym { bits, base } => {
                self.stream_value(StreamOp::Read, bits);
                self.window_dispatch(base, bits);
            }
            DecodedTransition::DispatchPeek { bits, base } => {
                self.composed_dispatch(base, bits);
                self.stream_value(StreamOp::Peek, bits);
                self.window_dispatch(base, bits);
            }
            DecodedTransition::DispatchReg { rs, base } => {
                if rs == 0 {
                    self.a.zero(RAX);
                } else {
                    self.a.load32(RAX, lane_reg(rs));
                }
                self.dynamic_dispatch(base, None);
            }
        }
    }

    /// Points the forward jump whose rel32 field is at `field` here.
    fn land(&mut self, field: usize) {
        let at = self.a.here();
        self.a.patch_rel32(field, at);
    }

    /// The wide front of a `dispatch.peek` into a group with a composed
    /// table: while the buffer holds `W` bits, the row of the `W`-bit window
    /// is both hops of a two-level code in one load — a leaf row, with the
    /// link's width and charge folded in ([`Self::account`]) — and the leaf
    /// body is entered with it. Nothing can underflow there: a row that
    /// crossed a link skips at most `W` bits. A window the table does not
    /// cover, and a buffer still short of `W` bits after the word refill
    /// (the stream's tail), fall to the group's own dispatch, emitted next.
    fn composed_dispatch(&mut self, base: u32, bits: u8) {
        let Some(&Composed { bits: wide, leaf, start, .. }) =
            self.plan.group(bits, base).and_then(|g| g.composed.as_ref())
        else {
            return;
        };
        self.a.alu_ri(Alu::Cmp, BITS, i32::from(wide));
        let entry = self.a.jcc_rel32(Cc::B);
        let back = self.a.here();
        self.a.mov_rr(RAX, BUF);
        self.a.shr_ri(RAX, 64 - wide);
        let at = self.a.lea_rip(RCX);
        self.table_refs.push((at, start));
        self.a.load32(RDX, Mem::index(RCX, RAX, 2, 0));
        self.a.test32_ri(RDX, 3 << TAG_SHIFT);
        let not_covered = self.a.jcc_rel32(Cc::Ne);
        self.enter_class(leaf);
        self.land(not_covered);
        let done = self.a.here();
        self.cold.push(ColdSite { op: None, width: Some((0, wide)), entry, back, done });
    }

    /// Dispatch on the `bits`-bit window in EAX. A table-lowered group loads
    /// the window's row into EDX and enters the shared body its tag selects
    /// — the row is data, so an unpredictable window costs a load, not a
    /// mispredicted indirect branch. Rows the table does not serve (other
    /// blocks, holes) keep the indirect jump, behind the tag test.
    fn window_dispatch(&mut self, base: u32, bits: u8) {
        let Some(&Group { start, ref classes, has_generic, .. }) = self.plan.group(bits, base)
        else {
            return self.dynamic_dispatch(base, Some(bits));
        };
        let (first, second) = (classes[0], classes.get(1).copied());
        let at = self.a.lea_rip(RCX);
        self.table_refs.push((at, start));
        self.a.load32(RDX, Mem::index(RCX, RAX, 2, 0));
        if second.is_none() && !has_generic {
            return self.enter_class(first);
        }
        self.a.test32_ri(RDX, 3 << TAG_SHIFT);
        let other = self.a.jcc_rel32(Cc::Ne);
        self.enter_class(first);
        self.land(other);
        if let Some(second) = second {
            let generic = has_generic.then(|| {
                self.a.test32_ri(RDX, TAG_GENERIC << TAG_SHIFT);
                self.a.jcc_rel32(Cc::Ne)
            });
            self.enter_class(second);
            if let Some(generic) = generic {
                self.land(generic);
            }
        }
        if has_generic {
            self.dynamic_dispatch(base, Some(bits));
        }
    }

    /// Control reaches `class`'s shared body with a row of it in EDX: the
    /// body is emitted right here at its first use, and jumped to after.
    fn enter_class(&mut self, class: usize) {
        if let Some(off) = self.class_off[class] {
            self.a.jmp_to(off);
        } else {
            self.class_off[class] = Some(self.a.here());
            self.emit_body(class);
        }
    }

    /// The one body all siblings of `class` run, immediates from the row in
    /// EDX (layout in [`sibling`]).
    #[allow(clippy::cast_possible_truncation)]
    fn emit_body(&mut self, class: usize) {
        let shape = self.plan.classes[class];
        self.account(shape.blk.actions(), shape.via);
        for (i, act) in shape.blk.actions().iter().enumerate() {
            match *act {
                Action::SkipSym { .. } if shape.skip_at == Some(i) => {
                    self.buffered_row(StreamOp::Skip, Lower::consume_row);
                }
                Action::LoadImm { rd, .. } if shape.imm_at == Some(i) => {
                    if rd != 0 {
                        self.a.mov_rr(RAX, RDX);
                        self.a.shl_ri(RAX, 64 - 16 - IMM_SHIFT as u8);
                        self.a.sar_ri(RAX, 64 - 16);
                        self.a.store(lane_reg(rd), RAX);
                    }
                }
                act => self.emit_action(act),
            }
        }
        let Some(target) = shape.link else {
            // A leaf ends in `Halt`, `Jump` or — chained — the `DispatchPeek`
            // of the next symbol, none of which reads `addr`. The last is the
            // loop: the dispatch it lowers to enters the classes of its group,
            // and this body, whose offset is already known, by a jump back.
            return self.emit_transition(0, shape.blk.transition, None);
        };
        // A link: peek the row's width in bits (at least one), then take the
        // row of that window in the sibling's own group, which is pure of
        // `target`.
        self.buffered_row(StreamOp::Peek, |lo| {
            lo.a.mov_rr(RAX, BUF);
            lo.a.neg(RCX);
            lo.a.shr_cl(RAX);
        });
        self.a.mov32_rr(RCX, RDX);
        self.a.shr_ri(RCX, LINK_SHIFT as u8);
        self.a.alu_rr(Alu::Add, RCX, RAX);
        let at = self.a.lea_rip(RSI);
        self.table_refs.push((at, 0));
        self.a.load32(RDX, Mem::index(RSI, RCX, 2, 0));
        self.enter_class(target);
    }

    /// The registers a helper may clobber (or reads through `JitState`),
    /// stored to their state slots; `reload` is the inverse.
    fn spill(&mut self) {
        for (field, r) in Self::SPILLED {
            self.a.store(st(field), r);
        }
    }

    fn reload(&mut self) {
        for (field, r) in Self::SPILLED {
            self.a.load(r, st(field));
        }
    }

    const SPILLED: [(usize, Reg); 6] = [
        (offset_of!(JitState, pos), POS),
        (offset_of!(JitState, buf), BUF),
        (offset_of!(JitState, buf_bits), BITS),
        (offset_of!(JitState, oc_alu), N_ALU),
        (offset_of!(JitState, oc_stream), N_STREAM),
        (offset_of!(JitState, saved_rdx), RDX),
    ];

    /// Everything behind the last block: the bail stub, the epilogue, the
    /// word-refill stub, one trampoline per helper, and the slow half of
    /// every buffered stream operation. Returns the bail stub's offset.
    #[allow(clippy::cast_possible_wrap)]
    fn emit_cold(&mut self) -> usize {
        // Bail: only the dirty-granule mask survives (the next prologue
        // must zero everything the compiled code stored).
        let bail_at = self.a.here();
        self.a.store_imm(st(offset_of!(JitState, status)), 1);
        self.a.store(st(offset_of!(JitState, dirty)), DIRTY);
        let to_pops = self.a.jmp_rel32();

        let halt_at = self.a.here();
        for (field, r) in [
            (offset_of!(JitState, cycles), CYCLES),
            (offset_of!(JitState, oc_alu), N_ALU),
            (offset_of!(JitState, oc_mem), N_MEM),
            (offset_of!(JitState, oc_stream), N_STREAM),
            (offset_of!(JitState, dirty), DIRTY),
        ] {
            self.a.store(st(field), r);
        }
        let pops_at = self.a.here();
        self.a.patch_rel32(to_pops, pops_at);
        for r in [R15, R14, R13, R12, RBP, RBX] {
            self.a.pop(r);
        }
        self.a.ret();

        // Word refill. Entered with BITS <= 56 and, by the `StreamUnit`
        // invariant, `next = POS + BITS` byte-aligned whenever it is below
        // `bit_len`. When a whole 8-byte word lies at or below `bit_len` it
        // appends as many whole bytes of it as fit — exactly the bytes the
        // scalar refill would append one at a time — so `next` stays
        // byte-aligned and the bits below BITS stay zero. Otherwise it
        // returns with nothing changed and the caller's recheck falls
        // through to the scalar helper. Clobbers RAX, RCX, RSI.
        let refill_at = self.a.here();
        self.a.lea(RAX, Mem::index(POS, BITS, 0, 0));
        self.a.lea(RSI, Mem::base(RAX, 64));
        self.a.alu_rm(Alu::Cmp, RSI, st(offset_of!(JitState, bit_len)));
        let no_word = self.a.jcc_rel32(Cc::A);
        self.a.shr_ri(RAX, 3);
        self.a.load(RSI, st(offset_of!(JitState, in_ptr)));
        self.a.load(RAX, Mem::index(RSI, RAX, 0, 0));
        self.a.bswap(RAX);
        self.a.mov_rr(RCX, BITS);
        self.a.shr_cl(RAX);
        // The word fills the buffer to 64 - t bits, t = -BITS mod 8.
        self.a.neg(RCX);
        self.a.alu_ri(Alu::And, RCX, 7);
        self.a.shr_cl(RAX);
        self.a.shl_cl(RAX);
        self.a.alu_rr(Alu::Or, BUF, RAX);
        self.a.mov32_ri(BITS, 64);
        self.a.alu_rr(Alu::Sub, BITS, RCX);
        let no_word_at = self.a.here();
        self.a.patch_rel32(no_word, no_word_at);
        self.a.ret();

        // Helper trampolines: RSI = argument in, RAX = result out, RDX
        // preserved. Reached by `call`, which leaves RSP 16-aligned for the
        // helper (6 pushes + 2 return addresses). A trapping helper has set
        // `status`; drop the return address and leave through the bail stub.
        let mut tramp_at = [0usize; StreamOp::ALL.len()];
        for op in StreamOp::ALL {
            tramp_at[op as usize] = self.a.here();
            self.spill();
            self.a.lea(RDI, st(0));
            self.a.call_abs(op.helper());
            self.reload();
            self.a.alu_mi(Alu::Cmp, st(offset_of!(JitState, status)), 0);
            let trapped = self.a.jcc_rel32(Cc::Ne);
            self.a.ret();
            let trapped_at = self.a.here();
            self.a.patch_rel32(trapped, trapped_at);
            self.a.add_rsp(8);
            self.a.jmp_to(bail_at);
        }
        for (at, op) in std::mem::take(&mut self.tramp_calls) {
            self.a.patch_rel32(at, tramp_at[op as usize]);
        }

        for site in std::mem::take(&mut self.cold) {
            self.land(site.entry);
            let call = self.a.call_rel32();
            self.a.patch_rel32(call, refill_at);
            if let Some((_, need)) = site.width {
                self.a.alu_ri(Alu::Cmp, BITS, i32::from(need));
                self.a.jcc_to(Cc::Ae, site.back);
            } else {
                // The refill clobbered RCX and RSI; the row is still in RDX.
                self.row_width();
                self.a.alu_rr(Alu::Cmp, BITS, RSI);
                self.a.jcc_to(Cc::Ae, site.back);
            }
            if let Some(op) = site.op {
                if let Some((arg, _)) = site.width {
                    self.a.mov32_ri(RSI, u32::from(arg));
                }
                let call = self.a.call_rel32();
                self.a.patch_rel32(call, tramp_at[op as usize]);
            }
            self.a.jmp_to(site.done);
        }

        for off in std::mem::take(&mut self.bail) {
            self.a.patch_rel32(off, bail_at);
        }
        for off in std::mem::take(&mut self.halt) {
            self.a.patch_rel32(off, halt_at);
        }
        for (off, target) in std::mem::take(&mut self.fixups) {
            let dest = self.emitted(target).unwrap_or(bail_at);
            self.a.patch_rel32(off, dest);
        }
        bail_at
    }
}

/// A published lane-program JIT artifact.
#[derive(Debug)]
pub struct LaneJit {
    buf: ExecBuf,
    /// Absolute compiled-entry address per image address (the bail stub
    /// for unmapped ones).
    table: Vec<usize>,
    /// FNV-1a over the published machine code.
    code_digest: u64,
    /// FNV-1a over the image words the artifact was lowered from.
    words_digest: u64,
    /// Sentinels for the cheap per-run integrity check.
    code_len: usize,
    /// Bytes ahead of the out-of-line region (prologue, blocks and shared
    /// bodies).
    hot_len: usize,
    first8: u64,
    last8: u64,
    /// Blocks lowered: with code of their own, or as a table row.
    blocks: usize,
    /// Where the dispatch tables sit in the published bytes (behind the
    /// code, so `code_digest` and the page protection cover them).
    tables: std::ops::Range<usize>,
    /// The dispatch groups served from those tables.
    table_groups: Vec<TableGroup>,
}

/// A table-lowered dispatch group of a published artifact.
#[derive(Debug)]
struct TableGroup {
    bits: u8,
    base: u32,
    /// The composed table in front of it: window width, and where its rows
    /// sit in the published bytes.
    composed: Option<(u8, std::ops::Range<usize>)>,
}

/// Artifact identity is its digest pair: equal digests ⇔ compiled from
/// the same words into the same code.
impl PartialEq for LaneJit {
    fn eq(&self, other: &Self) -> bool {
        self.code_digest == other.code_digest && self.words_digest == other.words_digest
    }
}

impl LaneJit {
    /// Lowers a predecoded image to machine code and publishes it.
    ///
    /// # Errors
    /// [`JitError`] when lowering or page publication fails; callers fall
    /// back to the interpreter tier.
    pub(crate) fn compile(
        words: &[u128],
        predecoded: &[Option<PredecodedBlock>],
        entry: u32,
    ) -> Result<LaneJit, JitError> {
        // Table indices and `base * 8` displacements are emitted as imm32.
        if predecoded.len() > (1 << 27) {
            return Err(JitError::Lowering(format!(
                "{} code words exceed the dispatch-table encoding",
                predecoded.len()
            )));
        }
        let plan = Plan::new(predecoded, entry);
        let mut lo = Lower {
            a: Asm::new(),
            fixups: Vec::new(),
            bail: Vec::new(),
            halt: Vec::new(),
            tramp_calls: Vec::new(),
            cold: Vec::new(),
            block_off: vec![None; predecoded.len()],
            class_off: vec![None; plan.classes.len()],
            plan,
            table_refs: Vec::new(),
        };
        // Prologue: 6 callee-saved pushes leave RSP 8 off 16-alignment, so a
        // `call` to a trampoline realigns it for the helper with no padding.
        for r in [RBX, RBP, R12, R13, R14, R15] {
            lo.a.push(r);
        }
        #[allow(clippy::cast_possible_truncation, clippy::cast_possible_wrap)]
        lo.a.lea(STATE, Mem::base(RDI, STATE_BIAS as i32));
        lo.a.load(SCRATCH, st(offset_of!(JitState, scratch)));
        lo.a.load(TABLE, st(offset_of!(JitState, table)));
        for r in [BUF, BITS, POS, N_ALU, N_MEM, N_STREAM, DIRTY, CYCLES] {
            lo.a.zero(r);
        }

        // Siblings reached only through table rows get no code of their own.
        #[allow(clippy::cast_possible_truncation)]
        let emitted: Vec<u32> = (0..predecoded.len() as u32)
            .filter(|&a| predecoded[a as usize].is_some() && !lo.plan.elided[a as usize])
            .collect();
        lo.jump_to(entry, emitted.first().copied());
        for (i, &addr) in emitted.iter().enumerate() {
            let blk = predecoded[addr as usize].as_ref().expect("filtered to mapped addresses");
            lo.emit_block(addr, blk, emitted.get(i + 1).copied());
        }
        let hot_len = lo.a.here();
        let bail_at = lo.emit_cold();

        // The tables go behind the code, on cache lines of their own.
        let tables_at = lo.a.here().next_multiple_of(64);
        for (field, row) in std::mem::take(&mut lo.table_refs) {
            lo.a.patch_rel32(field, tables_at + row as usize * 4);
        }
        let mut code = lo.a.into_bytes();
        if !lo.plan.groups.is_empty() {
            code.resize(tables_at, 0xCC);
            let rows = lo.plan.tables().flat_map(|(.., rows)| rows);
            code.extend(rows.flat_map(|r| r.to_le_bytes()));
        }
        let tables = code.len() - lo.plan.table_bytes()..code.len();
        let table_groups = (lo.plan.groups.iter())
            .map(|g| {
                let composed = g.composed.as_ref().map(|c| {
                    let at = tables.start + c.start as usize * 4;
                    (c.bits, at..at + c.rows.len() * 4)
                });
                TableGroup { bits: g.bits, base: g.base, composed }
            })
            .collect();
        let buf = ExecBuf::publish(&code)?;
        let published = buf.code();
        let table = lo.block_off.iter().map(|off| buf.addr_of(off.unwrap_or(bail_at))).collect();
        Ok(LaneJit {
            code_digest: fnv1a(published),
            words_digest: fnv1a_words(words),
            code_len: published.len(),
            hot_len,
            first8: u64::from_le_bytes(published[..8].try_into().expect("prologue > 8 bytes")),
            last8: u64::from_le_bytes(
                published[published.len() - 8..].try_into().expect("epilogue > 8 bytes"),
            ),
            blocks: predecoded.iter().flatten().count(),
            tables,
            table_groups,
            table,
            buf,
        })
    }

    /// Bytes published: machine code and the dispatch tables behind it.
    pub fn code_bytes(&self) -> usize {
        self.code_len
    }

    /// The part of [`Self::code_bytes`] the steady state runs in: prologue,
    /// blocks and shared bodies, ahead of the out-of-line stubs and slow
    /// paths (and not counting the tables, which are data).
    pub fn hot_code_bytes(&self) -> usize {
        self.hot_len
    }

    /// Blocks lowered to native code, with code of their own or as a row of
    /// a dispatch table.
    pub fn blocks_lowered(&self) -> usize {
        self.blocks
    }

    /// Dispatch groups served from a data table rather than an indirect
    /// jump.
    pub fn table_groups(&self) -> usize {
        self.table_groups.len()
    }

    /// Bytes of those tables, the tail of [`Self::code_bytes`].
    pub fn table_bytes(&self) -> usize {
        self.tables.len()
    }

    /// Whether a `bits`-wide dispatch into the group at `base` is served
    /// from a table.
    pub fn table_lowered(&self, bits: u8, base: u32) -> bool {
        self.table_group(bits, base).is_some()
    }

    fn table_group(&self, bits: u8, base: u32) -> Option<&TableGroup> {
        self.table_groups.iter().find(|g| (g.bits, g.base) == (bits, base))
    }

    /// Bytes of the composed tables, the tail of [`Self::table_bytes`].
    pub fn composed_table_bytes(&self) -> usize {
        self.table_groups.iter().filter_map(|g| Some(g.composed.as_ref()?.1.len())).sum()
    }

    /// The composed table a `dispatch.peek` of `bits` into the group at
    /// `base` tries first, if the group has one: its window width and where
    /// its rows sit in the published bytes.
    #[doc(hidden)]
    pub fn composed(&self, bits: u8, base: u32) -> Option<(u8, std::ops::Range<usize>)> {
        self.table_group(bits, base)?.composed.clone()
    }

    /// Where the tables sit in the published bytes.
    #[doc(hidden)]
    pub fn table_span(&self) -> std::ops::Range<usize> {
        self.tables.clone()
    }

    /// Absolute address of the published byte at `off`.
    #[doc(hidden)]
    pub fn addr_of_for_test(&self, off: usize) -> usize {
        self.buf.addr_of(off)
    }

    /// Cheap per-run integrity check: length + first/last 8 code bytes.
    /// The full digest check lives in `verify_image`.
    pub(crate) fn quick_check(&self) -> bool {
        let code = self.buf.code();
        code.len() == self.code_len
            && code.len() >= 16
            && u64::from_le_bytes(code[..8].try_into().expect("len checked")) == self.first8
            && u64::from_le_bytes(code[code.len() - 8..].try_into().expect("len checked"))
                == self.last8
    }

    /// Full integrity audit for `verify_image`: recomputes both digests, and
    /// re-derives every dispatch table from `predecoded` to compare it with
    /// the published rows. Returns one message per violated pin (empty =
    /// intact), with the address of the group's first dispatching block for
    /// a table.
    pub fn integrity_errors(
        &self,
        words: &[u128],
        predecoded: &[Option<PredecodedBlock>],
        entry: u32,
    ) -> Vec<(Option<u32>, String)> {
        let mut out = Vec::new();
        if fnv1a(self.buf.code()) != self.code_digest {
            out.push((
                None,
                "JIT artifact failed translation validation: published machine code \
                 does not match the digest recorded at compile time (tampered buffer)"
                    .to_string(),
            ));
        }
        if fnv1a_words(words) != self.words_digest {
            out.push((
                None,
                "JIT artifact failed translation validation: image words changed after \
                 the artifact was compiled (stale buffer)"
                    .to_string(),
            ));
        }
        let plan = Plan::new(predecoded, entry);
        let published = &self.buf.code()[self.tables.clone()];
        if plan.table_bytes() != published.len() {
            out.push((
                None,
                format!(
                    "JIT artifact failed translation validation: {} bytes of dispatch tables \
                     published, the predecode table derives {}",
                    published.len(),
                    plan.table_bytes()
                ),
            ));
            return out;
        }
        for (g, what, start, rows) in plan.tables() {
            let got = published[start as usize * 4..].chunks_exact(4);
            if let Some(w) = rows.iter().zip(got).position(|(want, got)| want.to_le_bytes() != *got)
            {
                out.push((
                    Some(g.site),
                    format!(
                        "JIT artifact failed translation validation: row {w} of the {what} \
                         table for the {}-bit group at {} does not match the blocks it was \
                         derived from (tampered or stale table)",
                        g.bits, g.base
                    ),
                ));
            }
        }
        out
    }

    /// The dispatch table for seeding a [`JitState`].
    pub(crate) fn table(&self) -> &[usize] {
        &self.table
    }

    /// Test-only tamper hook (see `ExecBuf::corrupt_byte_for_test`).
    #[doc(hidden)]
    #[cfg(all(target_arch = "x86_64", target_os = "linux", not(miri)))]
    pub fn corrupt_for_test(&self, off: usize, xor: u8) {
        self.buf.corrupt_byte_for_test(off, xor);
    }

    /// Runs the compiled program.
    ///
    /// # Safety
    /// `st` must point at live buffers sized per the [`JitState`] field
    /// docs, the artifact must pass [`Self::quick_check`], and the pages
    /// must contain the code this artifact published (guaranteed by the
    /// W^X lifecycle unless a test hook tampered with them).
    pub(crate) unsafe fn run(&self, st: &mut JitState) {
        let entry: unsafe extern "C" fn(*mut JitState) =
            std::mem::transmute::<usize, unsafe extern "C" fn(*mut JitState)>(self.buf.addr_of(0));
        entry(st);
    }
}

/// Compiles `image`'s predecode table when the JIT tier is enabled,
/// reporting the compile (or its failure → interpreter fallback) to the
/// process-wide hook. Called by `machine::encode` after predecoding.
pub(crate) fn maybe_compile(
    words: &[u128],
    predecoded: &[Option<PredecodedBlock>],
    entry: u32,
) -> Option<std::sync::Arc<LaneJit>> {
    if !enabled() {
        return None;
    }
    let t0 = std::time::Instant::now();
    let res = LaneJit::compile(words, predecoded, entry);
    let wall_ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
    report_compile(&CompileEvent {
        code_bytes: res.as_ref().map_or(0, LaneJit::code_bytes),
        blocks: res.as_ref().map_or(0, LaneJit::blocks_lowered),
        table_groups: res.as_ref().map_or(0, LaneJit::table_groups),
        table_bytes: res.as_ref().map_or(0, LaneJit::table_bytes),
        wall_ns,
        ok: res.is_ok(),
    });
    res.ok().map(std::sync::Arc::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_is_stable_and_input_sensitive() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(fnv1a(b"a"), fnv1a(b"b"));
        assert_ne!(fnv1a_words(&[1]), fnv1a_words(&[2]));
        let w = [0x0102_0304_0506_0708_090a_0b0c_0d0e_0f10u128];
        assert_eq!(fnv1a_words(&w), fnv1a(&w[0].to_le_bytes()));
    }
}
