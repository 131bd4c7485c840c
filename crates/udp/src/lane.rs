//! One UDP lane: Dispatch unit + Stream Prefetch unit + Action unit, plus a
//! private scratchpad (paper Fig. 9), executing a binary [`Image`].
//!
//! ## Cycle model
//!
//! Each code block costs **1 dispatch cycle + 1 cycle per action**. The
//! stream prefetcher hides input latency (the paper's Stream Prefetch unit
//! exists precisely for that), and scratchpad banks are private per lane, so
//! neither adds stalls. This is the same abstraction level at which the
//! paper's cycle-accurate simulator feeds its evaluation: lane throughput =
//! `output bytes / (cycles / 1.6 GHz)`.
//!
//! ## Runtime conventions
//!
//! * `r0` is hard-wired zero.
//! * At start, `r14` holds the output base address in scratchpad.
//! * At halt, `r15` must hold the number of output bytes written at `r14`.
//! * Input is consumed through the stream unit (`insym`/`peek`/`skip`);
//!   programs must not assume input lives in the scratchpad.

use crate::isa::{Action, OpClass, NUM_REGS, SCRATCHPAD_BYTES};
use crate::machine::{DecodedTransition, Image};

/// Cycle attribution by opcode class (paper Figs. 12/13 break decode time
/// down the same way: dispatch overhead vs. ALU vs. memory vs. stream I/O).
///
/// Every cycle a lane spends is attributed to exactly one class, so
/// `total()` equals the run's cycle count — the invariant the telemetry
/// layer asserts on.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpClassCycles {
    /// Block-dispatch cycles (1 per dispatched code block).
    pub dispatch: u64,
    /// Register ALU actions (moves, arithmetic, logic, shifts).
    pub alu: u64,
    /// Scratchpad loads/stores (incl. post-increment forms).
    pub mem: u64,
    /// Stream-unit actions (`insym`/`peek`/`skip`/`inrem`).
    pub stream: u64,
}

impl OpClassCycles {
    /// Sum across all classes — equals the run's total cycles.
    pub fn total(&self) -> u64 {
        self.dispatch + self.alu + self.mem + self.stream
    }

    /// Accumulates `other` into `self`.
    pub fn merge(&mut self, other: &OpClassCycles) {
        self.dispatch += other.dispatch;
        self.alu += other.alu;
        self.mem += other.mem;
        self.stream += other.stream;
    }

    /// Charges one cycle to the class of `action`'s opcode row.
    #[inline]
    pub fn bump(&mut self, action: &Action) {
        match action.decompose().map(|(op, _)| op.class) {
            Some(OpClass::Alu) => self.alu += 1,
            Some(OpClass::Mem) => self.mem += 1,
            Some(OpClass::Stream) => self.stream += 1,
            // No code word decodes to an action without a row.
            None => {}
        }
    }
}

/// Errors a lane can trap on. Corrupt compressed blocks surface as traps,
/// never as panics or out-of-bounds access.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LaneError {
    /// Control transferred to an unmapped address (EffCLiP hole or out of
    /// range) — the hardware analogue of an invalid dispatch.
    UnmappedAddress {
        /// The offending code address.
        addr: u32,
        /// Address of the block that transferred there.
        from: u32,
    },
    /// A scratchpad access fell outside the 64 KB lane memory.
    ScratchpadOob {
        /// Byte address of the access.
        addr: i64,
        /// Access width.
        width: usize,
    },
    /// The stream unit was asked for more bits than remain.
    StreamUnderflow {
        /// Bits requested.
        wanted: usize,
        /// Bits available.
        available: usize,
    },
    /// The cycle budget was exhausted (runaway program).
    CycleLimit {
        /// The budget that was exceeded.
        limit: u64,
    },
    /// `r15` declared an output range outside the scratchpad at halt.
    BadOutputRange {
        /// Declared byte count.
        declared: u64,
    },
    /// The job's input declared more valid bits than its buffer holds —
    /// the framing layer handed the lane an inconsistent block.
    BadInputLength {
        /// Bits the caller declared.
        declared_bits: usize,
        /// Bits the buffer can hold.
        buffer_bits: usize,
    },
    /// A transient fault injected by the test harness (see
    /// `accel::FaultHook`) — models an SEU/DMA glitch that a retry clears.
    InjectedFault,
    /// The image's static [`VerifyReport`](crate::verify::VerifyReport)
    /// carries `Error` findings and the caller did not opt out via
    /// [`RunConfig::allow_unverified`].
    Unverified {
        /// Number of `Error`-severity findings in the report.
        errors: usize,
    },
    /// A panic escaped the lane runner and was contained by the dispatch
    /// layer's `catch_unwind` boundary (see `Accelerator::dispatch`). The
    /// lane's architectural state is unreliable afterwards; callers treat
    /// this like any other trap and retry on a fresh lane.
    Panicked {
        /// The panic payload, when it was a string.
        message: String,
    },
    /// The image's JIT artifact failed its run-time integrity sentinel
    /// (see [`crate::jit::LaneJit`]): the published machine code no longer
    /// matches what was compiled. The lane refuses to execute it; re-run
    /// `verify_image` for the full digest diagnosis.
    JitInvalid,
}

impl std::fmt::Display for LaneError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LaneError::UnmappedAddress { addr, from } => {
                write!(f, "dispatch from {from} into unmapped code address {addr}")
            }
            LaneError::ScratchpadOob { addr, width } => {
                write!(f, "scratchpad access at {addr} width {width} out of bounds")
            }
            LaneError::StreamUnderflow { wanted, available } => {
                write!(f, "stream underflow: wanted {wanted} bits, {available} left")
            }
            LaneError::CycleLimit { limit } => write!(f, "cycle limit {limit} exceeded"),
            LaneError::BadOutputRange { declared } => {
                write!(f, "r15 declared {declared} output bytes, outside scratchpad")
            }
            LaneError::BadInputLength { declared_bits, buffer_bits } => {
                write!(f, "input declares {declared_bits} bits but buffer holds {buffer_bits}")
            }
            LaneError::InjectedFault => write!(f, "injected transient fault"),
            LaneError::Panicked { message } => {
                write!(f, "lane worker panicked: {message}")
            }
            LaneError::Unverified { errors } => {
                write!(
                    f,
                    "image rejected by the static verifier ({errors} error finding(s)); \
                     set RunConfig::allow_unverified to run anyway"
                )
            }
            LaneError::JitInvalid => {
                write!(
                    f,
                    "compiled lane artifact failed its integrity sentinel; refusing to \
                     execute (re-verify the image for the full diagnosis)"
                )
            }
        }
    }
}

impl std::error::Error for LaneError {}

/// Per-run configuration; the default is the lane contract ([`OUT_BASE`],
/// [`CYCLE_LIMIT`]), which the verifier checks programs against.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Scratchpad address where output is written (`r14` at start).
    pub out_base: u32,
    /// Trap after this many cycles.
    pub cycle_limit: u64,
    /// Run images even when their static [`VerifyReport`] carries `Error`
    /// findings. Off by default; the escape hatch exists for research use
    /// (deliberately hostile programs, verifier stress tests).
    ///
    /// [`VerifyReport`]: crate::verify::VerifyReport
    pub allow_unverified: bool,
}

/// The most one run can emit: output goes to the upper half of the
/// scratchpad, which leaves the lower half for program temporaries. No block
/// may decode to more than this.
pub const OUTPUT_WINDOW_BYTES: usize = SCRATCHPAD_BYTES / 2;

/// Scratchpad address where output is written (`r14` at start): the base of
/// the output window.
pub const OUT_BASE: u32 = (SCRATCHPAD_BYTES - OUTPUT_WINDOW_BYTES) as u32;

/// Cycles after which a run traps.
pub const CYCLE_LIMIT: u64 = 200_000_000;

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig { out_base: OUT_BASE, cycle_limit: CYCLE_LIMIT, allow_unverified: false }
    }
}

/// Result of one lane run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Total cycles consumed (dispatches + actions).
    pub cycles: u64,
    /// Number of block dispatches executed.
    pub dispatches: u64,
    /// Number of actions executed.
    pub actions: u64,
    /// Cycle attribution by opcode class (`opclass.total() == cycles`).
    pub opclass: OpClassCycles,
    /// Output bytes (scratchpad `[r14, r14 + r15)` at halt).
    pub output: Vec<u8>,
}

/// The modeled-machine half of a [`RunResult`]: everything except the output
/// bytes, which [`Lane::run_into`] writes into a caller-owned buffer instead
/// of allocating.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Total cycles consumed (dispatches + actions).
    pub cycles: u64,
    /// Number of block dispatches executed.
    pub dispatches: u64,
    /// Number of actions executed.
    pub actions: u64,
    /// Cycle attribution by opcode class (`opclass.total() == cycles`).
    pub opclass: OpClassCycles,
}

/// Bit-granular input stream with MSB-first reads — the Stream Prefetch
/// unit's software model. Mirrors `recode_codec::bitstream::BitReader`
/// semantics exactly (peek pads zeros past the end).
///
/// Reads are served from a 64-bit refill buffer holding the bits at
/// `[pos, pos + buf_bits)` MSB-aligned (bits below `buf_bits` are zero, so
/// past-the-end peeks get their zero padding for free). The buffer is
/// topped up a byte at a time only when a request outruns it, instead of
/// the stream touching `bytes` bit-by-bit.
struct StreamUnit<'a> {
    bytes: &'a [u8],
    bit_len: usize,
    /// Logical position of the next unconsumed bit.
    pos: usize,
    buf: u64,
    buf_bits: u32,
}

impl<'a> StreamUnit<'a> {
    fn new(bytes: &'a [u8], bit_len: usize) -> Self {
        debug_assert!(bit_len <= bytes.len() * 8);
        StreamUnit { bytes, bit_len, pos: 0, buf: 0, buf_bits: 0 }
    }

    fn remaining(&self) -> usize {
        self.bit_len - self.pos
    }

    /// Tops up the buffer byte-by-byte. Invariant: the next load position
    /// (`pos + buf_bits`) is byte-aligned or `>= bit_len`, so whole bytes
    /// can be appended; the final partial byte is masked to `bit_len`.
    #[inline]
    fn refill(&mut self) {
        let mut next = self.pos + self.buf_bits as usize;
        while self.buf_bits <= 56 && next < self.bit_len {
            debug_assert_eq!(next % 8, 0);
            let avail = self.bit_len - next;
            let mut b = self.bytes[next / 8];
            if avail < 8 {
                b &= 0xFF << (8 - avail);
            }
            self.buf |= (b as u64) << (56 - self.buf_bits);
            self.buf_bits += if avail < 8 { avail as u32 } else { 8 };
            next += 8;
        }
    }

    /// Re-establishes the refill invariant after `pos` moved past the
    /// buffer to a possibly mid-byte position: load the valid remainder of
    /// the current byte so the next load is byte-aligned again.
    fn rebase(&mut self) {
        self.buf = 0;
        self.buf_bits = 0;
        let frac = self.pos % 8;
        if frac != 0 && self.pos < self.bit_len {
            let avail = (8 - frac).min(self.bit_len - self.pos);
            let b = (self.bytes[self.pos / 8] << frac) & (0xFFu16 << (8 - avail)) as u8;
            self.buf = (b as u64) << 56;
            self.buf_bits = avail as u32;
        }
    }

    /// Fallback for oversized requests the 64-bit buffer cannot stage
    /// (only reachable from fuzzed/garbage encodings; validated programs
    /// cap stream reads at 32 bits).
    fn peek_slow(&self, nbits: u8) -> u64 {
        let mut out = 0u64;
        for k in 0..nbits as usize {
            let p = self.pos + k;
            let bit = if p < self.bit_len { (self.bytes[p / 8] >> (7 - (p % 8))) & 1 } else { 0 };
            out = (out << 1) | bit as u64;
        }
        out
    }

    fn peek(&mut self, nbits: u8) -> u64 {
        if nbits == 0 {
            return 0;
        }
        if nbits > 57 {
            return self.peek_slow(nbits);
        }
        if u32::from(nbits) > self.buf_bits {
            self.refill();
        }
        self.buf >> (64 - u32::from(nbits))
    }

    /// Consumes `n` bits; caller has checked `n <= remaining()`.
    #[inline]
    fn advance(&mut self, n: usize) {
        self.pos += n;
        if (n as u64) < u64::from(self.buf_bits) {
            self.buf <<= n;
            self.buf_bits -= n as u32;
        } else {
            self.rebase();
        }
    }

    fn read(&mut self, nbits: u8) -> Result<u64, LaneError> {
        if nbits as usize > self.remaining() {
            return Err(LaneError::StreamUnderflow {
                wanted: nbits as usize,
                available: self.remaining(),
            });
        }
        let v = self.peek(nbits);
        self.advance(nbits as usize);
        Ok(v)
    }

    fn skip(&mut self, nbits: usize) -> Result<(), LaneError> {
        if nbits > self.remaining() {
            return Err(LaneError::StreamUnderflow { wanted: nbits, available: self.remaining() });
        }
        self.advance(nbits);
        Ok(())
    }

    /// Little-endian byte-symbol read: `bytes` 8-bit groups, first group in
    /// the least significant byte of the result.
    fn read_le(&mut self, bytes: u8) -> Result<u64, LaneError> {
        if bytes as usize * 8 > self.remaining() {
            return Err(LaneError::StreamUnderflow { wanted: 8, available: self.remaining() % 8 });
        }
        let mut v = 0u64;
        for k in 0..bytes {
            let b = self.peek(8);
            self.advance(8);
            v |= b << (8 * k);
        }
        Ok(v)
    }
}

/// Slow-path stream helpers the compiled lane code calls out to (see
/// `crate::jit`): the stream's last partial word, underflow, and the
/// operations with no buffered form. The compiled code keeps the stream
/// window in host registers and spills it to
/// [`JitState`](crate::jit::JitState) around the call; each helper
/// reconstructs a [`StreamUnit`] view over those fields, runs the *real*
/// scalar method — so tail refill/rebase/underflow behavior is the
/// interpreter's by construction, not a re-implementation — and writes the
/// cursor back. On a trap the helper sets `status = 1` (the bail signal); it
/// never fabricates an error payload, because the caller re-runs the
/// interpreter to reproduce the exact trap.
mod jit_helpers {
    use super::{JitStateRef, StreamUnit};

    /// Runs `f` over a `StreamUnit` view of `st`'s stream fields, writing
    /// the cursor back and translating `Err` into the bail status.
    ///
    /// # Safety
    /// `st` must be a live, exclusive `JitState` whose `in_ptr`/`in_len`
    /// describe a readable buffer with `bit_len <= in_len * 8`.
    #[allow(clippy::cast_possible_truncation)]
    unsafe fn with_stream<F>(st: JitStateRef, f: F) -> u64
    where
        F: FnOnce(&mut StreamUnit<'_>) -> Result<u64, super::LaneError>,
    {
        let s = &mut *st;
        s.helper_calls += 1;
        let mut su = StreamUnit {
            bytes: std::slice::from_raw_parts(s.in_ptr, s.in_len as usize),
            bit_len: s.bit_len as usize,
            pos: s.pos as usize,
            buf: s.buf,
            buf_bits: s.buf_bits as u32,
        };
        let out = f(&mut su);
        s.pos = su.pos as u64;
        s.buf = su.buf;
        s.buf_bits = u64::from(su.buf_bits);
        if let Ok(v) = out {
            v
        } else {
            s.status = 1;
            0
        }
    }

    /// `stream.read(n)` for the compiled code's slow path.
    ///
    /// # Safety
    /// See [`with_stream`].
    #[allow(clippy::cast_possible_truncation)]
    pub(crate) unsafe extern "C" fn jit_stream_read(st: JitStateRef, nbits: u64) -> u64 {
        with_stream(st, |su| su.read(nbits as u8))
    }

    /// `stream.peek(n)` for the compiled code's slow path (never traps).
    ///
    /// # Safety
    /// See [`with_stream`].
    #[allow(clippy::cast_possible_truncation)]
    pub(crate) unsafe extern "C" fn jit_stream_peek(st: JitStateRef, nbits: u64) -> u64 {
        with_stream(st, |su| Ok(su.peek(nbits as u8)))
    }

    /// `stream.skip(n)` for the compiled code's slow path. `nbits` is the
    /// full register width because `SkipReg` passes an arbitrary u64.
    ///
    /// # Safety
    /// See [`with_stream`].
    #[allow(clippy::cast_possible_truncation)]
    pub(crate) unsafe extern "C" fn jit_stream_skip(st: JitStateRef, nbits: u64) -> u64 {
        with_stream(st, |su| su.skip(nbits as usize).map(|()| 0))
    }

    /// `stream.read_le(n)` for the compiled code's slow path.
    ///
    /// # Safety
    /// See [`with_stream`].
    #[allow(clippy::cast_possible_truncation)]
    pub(crate) unsafe extern "C" fn jit_stream_read_le(st: JitStateRef, nbytes: u64) -> u64 {
        with_stream(st, |su| su.read_le(nbytes as u8))
    }
}

/// Raw-pointer alias keeping the helper signatures readable.
type JitStateRef = *mut crate::jit::JitState;
pub(crate) use jit_helpers::{
    jit_stream_peek, jit_stream_read, jit_stream_read_le, jit_stream_skip,
};

/// A reusable lane (scratchpad allocation is recycled across runs).
///
/// Every `run*` entry point fully re-initializes the architectural state
/// (registers, scratchpad contents, stream position), so a recycled lane —
/// e.g. one checked out of [`LanePool`](crate::pool::LanePool) — is
/// indistinguishable from `Lane::new()`.
pub struct Lane {
    scratch: Vec<u8>,
    regs: [u64; NUM_REGS],
    /// High-water mark of scratchpad bytes dirtied by stores since the last
    /// clear: the prologue zeroes only `scratch[..dirty_hi]` instead of all
    /// 64 KB. Invariant: outside `[0, dirty_hi)` the scratchpad is zero.
    dirty_hi: usize,
    /// Helper calls compiled runs on this lane have made (see
    /// [`Lane::jit_helper_calls`]).
    jit_helper_calls: u64,
    /// Compiled runs on this lane that bailed to the interpreter (see
    /// [`Lane::jit_bails`]).
    jit_bails: u64,
    /// Spare output buffers recycled by `DshDecoder::decode_block_into`'s stage
    /// chain (held here so every consumer of a pooled lane reuses the same
    /// allocations).
    pub(crate) io_a: Vec<u8>,
    pub(crate) io_b: Vec<u8>,
}

impl Default for Lane {
    fn default() -> Self {
        Self::new()
    }
}

/// Per-run accounting shared by the fast and reference interpreter loops.
#[derive(Default)]
struct Accounting {
    cycles: u64,
    dispatches: u64,
    actions: u64,
    opclass: OpClassCycles,
}

impl Lane {
    /// Fresh lane with a zeroed scratchpad.
    pub fn new() -> Self {
        Lane {
            scratch: vec![0u8; SCRATCHPAD_BYTES],
            regs: [0; NUM_REGS],
            dirty_hi: 0,
            jit_helper_calls: 0,
            jit_bails: 0,
            io_a: Vec::new(),
            io_b: Vec::new(),
        }
    }

    /// Lifetime count of calls from compiled code into the scalar stream
    /// helpers. The steady state makes none: the differential suite pins
    /// that a whole block costs a handful, all in the stream's last bytes.
    #[doc(hidden)]
    pub fn jit_helper_calls(&self) -> u64 {
        self.jit_helper_calls
    }

    /// Lifetime count of compiled runs that bailed and were rerun on the
    /// interpreter. A bail is correct but several times slower than either
    /// tier alone, and nothing else shows it: the differential suite pins
    /// that a well-formed block never bails and that a trapping one does.
    #[doc(hidden)]
    pub fn jit_bails(&self) -> u64 {
        self.jit_bails
    }

    /// Debug-only check that a completing run's modeled cycles landed
    /// inside the image's certified [`CycleBound`](crate::verify::CycleBound)
    /// envelope. Only gated-clean programs make that promise — an image run
    /// via `allow_unverified` may execute blocks the static model never
    /// certified, so it is exempt.
    #[inline]
    fn debug_assert_in_envelope(image: &Image, cycles: u64, input_bits: usize) {
        #[cfg(debug_assertions)]
        if image.verify_report.error_count() == 0 {
            if let Some(bound) = image.verify_report.cycle_bound {
                assert!(
                    bound.contains(cycles, input_bits as u64),
                    "certified cycle envelope violated: program `{}` completed in {cycles} \
                     cycles on {input_bits} input bits, outside {bound}",
                    image.name,
                );
            }
        }
        #[cfg(not(debug_assertions))]
        let _ = (image, cycles, input_bits);
    }

    /// Input/verify gates and architectural-state reset shared by every run
    /// entry point.
    fn prologue(
        &mut self,
        image: &Image,
        input: &[u8],
        input_bits: usize,
        cfg: RunConfig,
    ) -> Result<(), LaneError> {
        if input_bits > input.len() * 8 {
            return Err(LaneError::BadInputLength {
                declared_bits: input_bits,
                buffer_bits: input.len() * 8,
            });
        }
        let verify_errors = image.verify_report.error_count();
        if verify_errors > 0 && !cfg.allow_unverified {
            return Err(LaneError::Unverified { errors: verify_errors });
        }
        // Only the prefix a previous run dirtied needs zeroing; everything
        // past `dirty_hi` is still zero from `new()` or an earlier clear.
        self.scratch[..self.dirty_hi].fill(0);
        self.dirty_hi = 0;
        self.regs = [0; NUM_REGS];
        self.regs[14] = cfg.out_base as u64;
        Ok(())
    }

    /// Dispatch accounting + action execution for one code block. Order is
    /// load-bearing: the block's full cost lands on the meter *before* the
    /// budget check, and each action is attributed before it executes.
    #[inline]
    fn step_block(
        &mut self,
        actions: &[Action],
        acct: &mut Accounting,
        cfg: RunConfig,
        stream: &mut StreamUnit<'_>,
    ) -> Result<(), LaneError> {
        acct.dispatches += 1;
        acct.cycles += 1 + actions.len() as u64;
        acct.actions += actions.len() as u64;
        acct.opclass.dispatch += 1;
        if acct.cycles > cfg.cycle_limit {
            return Err(LaneError::CycleLimit { limit: cfg.cycle_limit });
        }
        for a in actions {
            acct.opclass.bump(a);
            self.exec_action(*a, stream)?;
        }
        Ok(())
    }

    /// Resolves a block terminator to the next pc (`None` = halt).
    #[inline]
    fn resolve_transition(
        &self,
        t: DecodedTransition,
        prev_pc: u32,
        stream: &mut StreamUnit<'_>,
    ) -> Result<Option<u32>, LaneError> {
        Ok(match t {
            DecodedTransition::Halt => None,
            DecodedTransition::Jump(a) => Some(a),
            DecodedTransition::DispatchSym { bits, base } => Some(base + stream.read(bits)? as u32),
            DecodedTransition::DispatchPeek { bits, base } => Some(base + stream.peek(bits) as u32),
            DecodedTransition::DispatchReg { rs, base } => {
                Some(base.wrapping_add(self.reg(rs) as u32))
            }
            DecodedTransition::Branch { cond, rs, rt, taken } => {
                Some(if cond.eval(self.reg(rs), self.reg(rt)) { taken } else { prev_pc + 1 })
            }
        })
    }

    /// Validates the output window `r14`/`r15` declared at halt and returns
    /// its scratchpad range.
    fn output_range(&self, cfg: RunConfig) -> Result<std::ops::Range<usize>, LaneError> {
        let declared = self.regs[15];
        let start = cfg.out_base as usize;
        let end = start.checked_add(declared as usize).filter(|&e| e <= SCRATCHPAD_BYTES);
        let end = end.ok_or(LaneError::BadOutputRange { declared })?;
        Ok(start..end)
    }

    /// Executes `image` over `input` (valid bits: `input_bits`).
    ///
    /// # Errors
    /// Any [`LaneError`] trap.
    pub fn run(
        &mut self,
        image: &Image,
        input: &[u8],
        input_bits: usize,
        cfg: RunConfig,
    ) -> Result<RunResult, LaneError> {
        let mut output = Vec::new();
        let stats = self.run_into(image, input, input_bits, cfg, &mut output)?;
        Ok(RunResult {
            cycles: stats.cycles,
            dispatches: stats.dispatches,
            actions: stats.actions,
            opclass: stats.opclass,
            output,
        })
    }

    /// Like [`Lane::run`], but writes the output bytes into `out` (cleared
    /// first) instead of allocating a fresh `Vec` — with a warm `out`
    /// buffer the whole call is allocation-free.
    ///
    /// Dispatches to the image's compiled JIT artifact when one is present
    /// (x86-64, `RECODE_NO_JIT` unset); otherwise — and whenever the
    /// compiled code bails — runs [`Lane::run_into_interp`]. Both tiers are
    /// bit-exact on outputs, modeled cycles, opclass attribution, and
    /// traps; the differential suite pins that.
    ///
    /// # Errors
    /// Any [`LaneError`] trap (on error, `out` contents are unspecified).
    pub fn run_into(
        &mut self,
        image: &Image,
        input: &[u8],
        input_bits: usize,
        cfg: RunConfig,
        out: &mut Vec<u8>,
    ) -> Result<RunStats, LaneError> {
        if let Some(jit) = image.jit() {
            if crate::jit::enabled() {
                return self.run_into_jit(image, jit, input, input_bits, cfg, out);
            }
        }
        self.run_into_interp(image, input, input_bits, cfg, out)
    }

    /// The portable interpreter tier: indexes the image's predecoded block
    /// table (never re-decoding a code word) and executes action-by-action.
    /// This is the canonical software semantics the JIT tier must match;
    /// it also serves as the re-run target when compiled code bails.
    ///
    /// # Errors
    /// Any [`LaneError`] trap (on error, `out` contents are unspecified).
    pub fn run_into_interp(
        &mut self,
        image: &Image,
        input: &[u8],
        input_bits: usize,
        cfg: RunConfig,
        out: &mut Vec<u8>,
    ) -> Result<RunStats, LaneError> {
        self.prologue(image, input, input_bits, cfg)?;
        let mut stream = StreamUnit::new(input, input_bits);
        let mut acct = Accounting::default();
        let mut pc = image.entry;
        let mut prev_pc = pc;
        loop {
            let Some(block) = image.predecoded(pc) else {
                return Err(LaneError::UnmappedAddress { addr: pc, from: prev_pc });
            };
            let (actions, transition) = (block.actions(), block.transition);
            self.step_block(actions, &mut acct, cfg, &mut stream)?;
            prev_pc = pc;
            match self.resolve_transition(transition, prev_pc, &mut stream)? {
                Some(next) => pc = next,
                None => break,
            }
        }
        let range = self.output_range(cfg)?;
        out.clear();
        out.extend_from_slice(&self.scratch[range]);
        Self::debug_assert_in_envelope(image, acct.cycles, input_bits);
        Ok(RunStats {
            cycles: acct.cycles,
            dispatches: acct.dispatches,
            actions: acct.actions,
            opclass: acct.opclass,
        })
    }

    /// The compiled tier: runs the image's published machine code, falling
    /// back to a full interpreter re-run whenever it bails (lane execution
    /// is deterministic, so the re-run reproduces the exact trap).
    #[allow(clippy::cast_possible_truncation)]
    fn run_into_jit(
        &mut self,
        image: &Image,
        jit: &crate::jit::LaneJit,
        input: &[u8],
        input_bits: usize,
        cfg: RunConfig,
        out: &mut Vec<u8>,
    ) -> Result<RunStats, LaneError> {
        self.prologue(image, input, input_bits, cfg)?;
        if !jit.quick_check() {
            return Err(LaneError::JitInvalid);
        }
        let mut st = crate::jit::JitState {
            regs: self.regs,
            cycle_limit: cfg.cycle_limit,
            bit_len: input_bits as u64,
            in_ptr: input.as_ptr(),
            scratch: self.scratch.as_mut_ptr(),
            table: jit.table().as_ptr(),
            status: 0,
            dirty_hi: 0,
            cycles: 0,
            oc_alu: 0,
            oc_mem: 0,
            oc_stream: 0,
            pos: 0,
            buf: 0,
            buf_bits: 0,
            saved_rdx: 0,
            in_len: input.len() as u64,
            helper_calls: 0,
        };
        // SAFETY: scratch (64 KB), the dispatch table, and the input buffer
        // all outlive the call; the prologue validated
        // `input_bits <= input.len() * 8`; quick_check vouched for the
        // published pages.
        unsafe { jit.run(&mut st) };
        self.jit_helper_calls += st.helper_calls;
        // Fold the compiled code's dirty high-water mark in *before* any
        // rerun or return: the next prologue must zero everything the
        // compiled code stored, or stale bytes leak into the next run.
        self.dirty_hi = self.dirty_hi.max(st.dirty_hi as usize);
        if st.status != 0 {
            self.jit_bails += 1;
            return self.run_into_interp(image, input, input_bits, cfg, out);
        }
        self.regs = st.regs;
        let range = self.output_range(cfg)?;
        out.clear();
        out.extend_from_slice(&self.scratch[range]);
        Self::debug_assert_in_envelope(image, st.cycles, input_bits);
        // Every block charged `1 + actions` cycles and its actions by
        // class, all at entry, so after a clean halt the class counts sum
        // to the actions and the rest of the cycles are the dispatches.
        let actions = st.oc_alu + st.oc_mem + st.oc_stream;
        let dispatches = st.cycles - actions;
        Ok(RunStats {
            cycles: st.cycles,
            dispatches,
            actions,
            opclass: OpClassCycles {
                dispatch: dispatches,
                alu: st.oc_alu,
                mem: st.oc_mem,
                stream: st.oc_stream,
            },
        })
    }

    /// The word-at-a-time interpreter: decodes every code word at dispatch
    /// time via [`Image::decode`] exactly as `run` did before images were
    /// predecoded. Kept as the semantic reference — the differential suite
    /// asserts `run` and `run_reference` agree on outputs, cycles, opclass
    /// attribution, and traps for every program and corrupt input.
    ///
    /// # Errors
    /// Any [`LaneError`] trap.
    pub fn run_reference(
        &mut self,
        image: &Image,
        input: &[u8],
        input_bits: usize,
        cfg: RunConfig,
    ) -> Result<RunResult, LaneError> {
        self.prologue(image, input, input_bits, cfg)?;
        let mut stream = StreamUnit::new(input, input_bits);
        let mut acct = Accounting::default();
        let mut pc = image.entry;
        let mut prev_pc = pc;
        loop {
            let block =
                image.decode(pc).ok_or(LaneError::UnmappedAddress { addr: pc, from: prev_pc })?;
            self.step_block(block.actions(), &mut acct, cfg, &mut stream)?;
            prev_pc = pc;
            match self.resolve_transition(block.transition, prev_pc, &mut stream)? {
                Some(next) => pc = next,
                None => break,
            }
        }
        let range = self.output_range(cfg)?;
        Self::debug_assert_in_envelope(image, acct.cycles, input_bits);
        Ok(RunResult {
            cycles: acct.cycles,
            dispatches: acct.dispatches,
            actions: acct.actions,
            opclass: acct.opclass,
            output: self.scratch[range].to_vec(),
        })
    }

    #[inline]
    fn reg(&self, r: u8) -> u64 {
        if r == 0 {
            0
        } else {
            self.regs[r as usize]
        }
    }

    #[inline]
    fn set_reg(&mut self, r: u8, v: u64) {
        if r != 0 {
            self.regs[r as usize] = v;
        }
    }

    fn mem_addr(&self, base: u8, offset: i16, width: usize) -> Result<usize, LaneError> {
        let addr = self.reg(base) as i64 + offset as i64;
        if addr < 0 || (addr as usize) + width > SCRATCHPAD_BYTES {
            return Err(LaneError::ScratchpadOob { addr, width });
        }
        Ok(addr as usize)
    }

    fn exec_action(&mut self, a: Action, stream: &mut StreamUnit<'_>) -> Result<(), LaneError> {
        match a {
            Action::LoadImm { rd, imm } => self.set_reg(rd, imm as i64 as u64),
            Action::Mov { rd, rs } => self.set_reg(rd, self.reg(rs)),
            Action::Add { rd, rs, rt } => {
                self.set_reg(rd, self.reg(rs).wrapping_add(self.reg(rt)));
            }
            Action::Sub { rd, rs, rt } => {
                self.set_reg(rd, self.reg(rs).wrapping_sub(self.reg(rt)));
            }
            Action::And { rd, rs, rt } => self.set_reg(rd, self.reg(rs) & self.reg(rt)),
            Action::Or { rd, rs, rt } => self.set_reg(rd, self.reg(rs) | self.reg(rt)),
            Action::Xor { rd, rs, rt } => self.set_reg(rd, self.reg(rs) ^ self.reg(rt)),
            Action::AddI { rd, rs, imm } => {
                self.set_reg(rd, self.reg(rs).wrapping_add(imm as i64 as u64));
            }
            Action::ShlI { rd, rs, amount } => {
                let v = if amount >= 64 { 0 } else { self.reg(rs) << amount };
                self.set_reg(rd, v);
            }
            Action::ShrI { rd, rs, amount } => {
                let v = if amount >= 64 { 0 } else { self.reg(rs) >> amount };
                self.set_reg(rd, v);
            }
            Action::Load { rd, base, offset, width } => {
                let w = width.bytes();
                let addr = self.mem_addr(base, offset, w)?;
                let mut v = 0u64;
                for k in 0..w {
                    v |= (self.scratch[addr + k] as u64) << (8 * k);
                }
                self.set_reg(rd, v);
            }
            Action::Store { rs, base, offset, width } => {
                let w = width.bytes();
                let addr = self.mem_addr(base, offset, w)?;
                let v = self.reg(rs);
                for k in 0..w {
                    self.scratch[addr + k] = (v >> (8 * k)) as u8;
                }
                self.dirty_hi = self.dirty_hi.max(addr + w);
            }
            Action::LoadInc { rd, base, width } => {
                let w = width.bytes();
                let addr = self.mem_addr(base, 0, w)?;
                let mut v = 0u64;
                for k in 0..w {
                    v |= (self.scratch[addr + k] as u64) << (8 * k);
                }
                // Increment before the destination write so `rd == base`
                // keeps the loaded value (load-then-update ordering).
                self.set_reg(base, self.reg(base).wrapping_add(w as u64));
                self.set_reg(rd, v);
            }
            Action::StoreInc { rs, base, width } => {
                let w = width.bytes();
                let addr = self.mem_addr(base, 0, w)?;
                let v = self.reg(rs);
                for k in 0..w {
                    self.scratch[addr + k] = (v >> (8 * k)) as u8;
                }
                self.dirty_hi = self.dirty_hi.max(addr + w);
                self.set_reg(base, self.reg(base).wrapping_add(w as u64));
            }
            Action::InSym { rd, bits } => {
                let v = stream.read(bits)?;
                self.set_reg(rd, v);
            }
            Action::InSymLe { rd, bytes } => {
                let v = stream.read_le(bytes)?;
                self.set_reg(rd, v);
            }
            Action::PeekSym { rd, bits } => self.set_reg(rd, stream.peek(bits)),
            Action::SkipSym { bits } => stream.skip(bits as usize)?,
            Action::SkipReg { rs } => stream.skip(self.reg(rs) as usize)?,
            Action::InRem { rd } => self.set_reg(rd, stream.remaining() as u64),
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::{Action, Block, Cond, Transition, Width};
    use crate::machine::assemble;
    use crate::program::ProgramBuilder;

    /// A program that copies its byte-aligned input to the output, one byte
    /// per iteration.
    fn byte_copy_program() -> crate::program::Program {
        let mut pb = ProgramBuilder::new("bytecopy");
        // done: r15 = r2 - r14; halt
        let done = pb.block(Block {
            actions: vec![Action::Sub { rd: 15, rs: 2, rt: 14 }],
            transition: Transition::Halt,
        });
        // body: r1 = in byte; mem[r2] = r1; r2 += 1  -> jump head
        let head = pb.reserve();
        let body = pb.block(Block {
            actions: vec![
                Action::InSymLe { rd: 1, bytes: 1 },
                Action::Store { rs: 1, base: 2, offset: 0, width: Width::B1 },
                Action::AddI { rd: 2, rs: 2, imm: 1 },
            ],
            transition: Transition::Jump(head),
        });
        // head: r3 = rem; if r3 == 0 -> done else fall to body2 (jump body)
        let cont = pb.block(Block { actions: vec![], transition: Transition::Jump(body) });
        pb.define(
            head,
            Block {
                actions: vec![Action::InRem { rd: 3 }],
                transition: Transition::Branch {
                    cond: Cond::Eq,
                    rs: 3,
                    rt: 0,
                    taken: done,
                    fallthrough: cont,
                },
            },
        );
        // init: r2 = r14
        let init = pb.block(Block {
            actions: vec![Action::Mov { rd: 2, rs: 14 }],
            transition: Transition::Jump(head),
        });
        pb.entry(init);
        pb.build().unwrap()
    }

    #[test]
    fn byte_copy_copies_and_counts_cycles() {
        let image = assemble(&byte_copy_program()).unwrap();
        let mut lane = Lane::new();
        let input = b"hello, udp lane!";
        let r = lane.run(&image, input, input.len() * 8, RunConfig::default()).unwrap();
        assert_eq!(r.output, input);
        // init(2) + n*(head(2) + cont(1) + body(4)) + final head(2) + done(2)
        let n = input.len() as u64;
        assert_eq!(r.cycles, 2 + n * 7 + 2 + 2);
        assert!(r.dispatches > n);
    }

    #[test]
    fn opclass_attribution_covers_every_cycle() {
        let image = assemble(&byte_copy_program()).unwrap();
        let mut lane = Lane::new();
        let input = b"opclass invariant";
        let r = lane.run(&image, input, input.len() * 8, RunConfig::default()).unwrap();
        assert_eq!(r.opclass.total(), r.cycles, "every cycle must land in one class");
        assert_eq!(r.opclass.dispatch, r.dispatches);
        assert_eq!(r.opclass.alu + r.opclass.mem + r.opclass.stream, r.actions);
        // The copy loop touches all three action classes.
        assert!(r.opclass.alu > 0 && r.opclass.mem > 0 && r.opclass.stream > 0);
    }

    #[test]
    fn empty_input_halts_immediately_with_empty_output() {
        let image = assemble(&byte_copy_program()).unwrap();
        let mut lane = Lane::new();
        let r = lane.run(&image, &[], 0, RunConfig::default()).unwrap();
        assert!(r.output.is_empty());
    }

    #[test]
    fn r0_is_hardwired_zero() {
        let mut pb = ProgramBuilder::new("r0");
        let start = pb.block(Block {
            actions: vec![
                Action::LoadImm { rd: 0, imm: 123 },
                Action::Add { rd: 15, rs: 0, rt: 0 },
            ],
            transition: Transition::Halt,
        });
        pb.entry(start);
        let image = assemble(&pb.build().unwrap()).unwrap();
        let mut lane = Lane::new();
        let r = lane.run(&image, &[], 0, RunConfig::default()).unwrap();
        assert!(r.output.is_empty(), "r15 stayed 0 because r0 ignores writes");
    }

    #[test]
    fn stream_underflow_traps() {
        let mut pb = ProgramBuilder::new("uf");
        let start = pb.block(Block {
            actions: vec![Action::InSym { rd: 1, bits: 16 }],
            transition: Transition::Halt,
        });
        pb.entry(start);
        let image = assemble(&pb.build().unwrap()).unwrap();
        let mut lane = Lane::new();
        let err = lane.run(&image, &[0xFF], 8, RunConfig::default()).unwrap_err();
        assert!(matches!(err, LaneError::StreamUnderflow { wanted: 16, available: 8 }));
    }

    #[test]
    fn scratchpad_oob_traps() {
        let mut pb = ProgramBuilder::new("oob");
        let start = pb.block(Block {
            actions: vec![
                Action::LoadImm { rd: 1, imm: -8 },
                Action::Store { rs: 2, base: 1, offset: 0, width: Width::B8 },
            ],
            transition: Transition::Halt,
        });
        pb.entry(start);
        let image = assemble(&pb.build().unwrap()).unwrap();
        // The static verifier proves this store always lands at -8.
        assert!(image.verify_report.error_count() > 0);
        let mut lane = Lane::new();
        let cfg = RunConfig { allow_unverified: true, ..Default::default() };
        let err = lane.run(&image, &[], 0, cfg).unwrap_err();
        assert!(matches!(err, LaneError::ScratchpadOob { .. }));
    }

    #[test]
    fn unmapped_dispatch_traps() {
        // Dispatch into a group hole.
        let mut pb = ProgramBuilder::new("hole");
        let only = pb.block(Block { actions: vec![], transition: Transition::Halt });
        let g = pb.group(vec![(0, only)]);
        let start = pb.block(Block {
            actions: vec![],
            transition: Transition::DispatchSym { bits: 4, group: g },
        });
        pb.entry(start);
        let image = assemble(&pb.build().unwrap()).unwrap();
        let mut lane = Lane::new();
        // Symbol 9 -> base+9, unmapped (only offset 0 exists).
        let err = lane.run(&image, &[0b1001_0000], 8, RunConfig::default()).unwrap_err();
        assert!(matches!(err, LaneError::UnmappedAddress { .. }), "{err:?}");
    }

    #[test]
    fn runaway_program_hits_cycle_limit() {
        let mut pb = ProgramBuilder::new("loop");
        let a = pb.reserve();
        pb.define(a, Block { actions: vec![], transition: Transition::Jump(a) });
        pb.entry(a);
        let image = assemble(&pb.build().unwrap()).unwrap();
        // The verifier flags the exit-less loop as Diverges; without the
        // opt-out the lane refuses to run it at all.
        assert!(image.verify_report.error_count() > 0);
        let mut lane = Lane::new();
        let strict = RunConfig { cycle_limit: 1000, ..Default::default() };
        assert!(matches!(
            lane.run(&image, &[], 0, strict).unwrap_err(),
            LaneError::Unverified { .. }
        ));
        let cfg = RunConfig { cycle_limit: 1000, allow_unverified: true, ..Default::default() };
        let err = lane.run(&image, &[], 0, cfg).unwrap_err();
        assert!(matches!(err, LaneError::CycleLimit { limit: 1000 }));
    }

    #[test]
    fn bad_output_range_traps() {
        let mut pb = ProgramBuilder::new("badout");
        let start = pb.block(Block {
            actions: vec![
                Action::LoadImm { rd: 1, imm: 1 },
                Action::ShlI { rd: 15, rs: 1, amount: 40 },
            ],
            transition: Transition::Halt,
        });
        pb.entry(start);
        let image = assemble(&pb.build().unwrap()).unwrap();
        // r15 = 1 << 40 provably exceeds the output window.
        assert!(image.verify_report.error_count() > 0);
        let mut lane = Lane::new();
        let cfg = RunConfig { allow_unverified: true, ..Default::default() };
        let err = lane.run(&image, &[], 0, cfg).unwrap_err();
        assert!(matches!(err, LaneError::BadOutputRange { .. }));
    }

    #[test]
    fn dispatch_peek_does_not_consume() {
        let mut pb = ProgramBuilder::new("peek");
        // Entry peeks 4 bits and dispatches; target consumes all 8 bits and
        // stores them; if peek had consumed, insym would underflow.
        let mut handlers = Vec::new();
        let done = pb.block(Block {
            actions: vec![Action::Sub { rd: 15, rs: 2, rt: 14 }],
            transition: Transition::Halt,
        });
        for _ in 0..16u32 {
            handlers.push(pb.block(Block {
                actions: vec![
                    Action::Mov { rd: 2, rs: 14 },
                    Action::InSym { rd: 1, bits: 8 },
                    Action::Store { rs: 1, base: 2, offset: 0, width: Width::B1 },
                    Action::AddI { rd: 2, rs: 2, imm: 1 },
                ],
                transition: Transition::Jump(done),
            }));
        }
        let g = pb.group(handlers.iter().enumerate().map(|(i, &b)| (i as u32, b)).collect());
        let start = pb.block(Block {
            actions: vec![],
            transition: Transition::DispatchPeek { bits: 4, group: g },
        });
        pb.entry(start);
        let image = assemble(&pb.build().unwrap()).unwrap();
        let mut lane = Lane::new();
        let r = lane.run(&image, &[0xA7], 8, RunConfig::default()).unwrap();
        assert_eq!(r.output, vec![0xA7]);
    }

    #[test]
    fn wide_loads_and_stores_are_little_endian() {
        let mut pb = ProgramBuilder::new("le");
        let start = pb.block(Block {
            actions: vec![
                Action::InSymLe { rd: 1, bytes: 8 },
                Action::Store { rs: 1, base: 14, offset: 0, width: Width::B8 },
                Action::LoadImm { rd: 15, imm: 8 },
            ],
            transition: Transition::Halt,
        });
        pb.entry(start);
        let image = assemble(&pb.build().unwrap()).unwrap();
        let mut lane = Lane::new();
        let input = [1u8, 2, 3, 4, 5, 6, 7, 8];
        let r = lane.run(&image, &input, 64, RunConfig::default()).unwrap();
        assert_eq!(r.output, input, "LE read then LE store must preserve byte order");
    }
}
