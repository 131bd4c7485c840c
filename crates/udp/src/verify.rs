//! Static verification of UDP lane programs.
//!
//! The UDP's pitch is *software* programmability: recoding pipelines are
//! user-supplied lane programs, not fixed-function hardware. That cuts both
//! ways — a bad program used to surface only at runtime, as a trap on one of
//! 64 lanes or a silently wrong decode. This module is the bytecode-verifier
//! analogue for lane programs: a set of static analyses over the symbolic
//! [`Program`] CFG, cross-checked against the encoded [`Image`], that runs
//! before anything is fanned out to the accelerator.
//!
//! Seven analyses:
//!
//! 1. **Reachability** — CFG construction from jump / branch / dispatch /
//!    group edges; unreachable blocks and programs with no reachable `halt`
//!    are reported.
//! 2. **Register initialization** — forward *must-initialize* dataflow over
//!    the 16 registers (intersection at joins). Reads of never-written
//!    registers are flagged per path; a backward liveness pass additionally
//!    flags ALU results that no path ever reads (dead writes).
//! 3. **Scratchpad bounds** — interval abstract interpretation over register
//!    values (join = hull, widening after repeated visits) proves or refutes
//!    that every load/store lands inside the 64 KB scratchpad, and checks
//!    the `r15` output contract at halt.
//! 4. **Termination / cycle budget** — Tarjan SCCs find loops; a loop with
//!    no exit edge (or whose only exits test loop-invariant registers) is a
//!    `Diverges` finding, and each loop's worst-case per-iteration cycle
//!    cost is reported so callers can budget against the lane's
//!    [`CYCLE_LIMIT`]. Acyclic programs get a longest-path cycle bound
//!    checked against the budget. A stream-consuming loop that never
//!    re-checks `inrem` is flagged as a potential input over-run, unless it
//!    is a *counted stream loop*, whose trip count was fixed from `inrem`
//!    before it was entered.
//! 5. **Dispatch tables** — multi-way dispatch completeness and target
//!    validity, at the image level: uncovered symbols that would trap,
//!    uncovered symbols that *alias into foreign code words* (EffCLiP packs
//!    singletons into holes, so a missing entry may silently execute
//!    unrelated code), group offsets unreachable at the dispatch width, and
//!    encode/decode round-trip mismatches.
//! 6. **Cycle-bound certification** — a WCET-style pass that folds the
//!    interpreter's per-block cost model through the CFG and derives a
//!    [`CycleBound`] envelope per program: a guaranteed minimum (shortest
//!    path to a reachable halt) and, when every loop makes provable
//!    progress (consumes stream bits or monotonically advances a scratchpad
//!    cursor it dereferences), an affine maximum
//!    `fixed + per_input_bit × input_bits` that every *completing* run
//!    respects. Programs whose loops cannot be bounded, or whose certified
//!    maximum exceeds the cycle budget, get `cycle-bound` warnings.
//! 7. **Predecode translation validation** — a word-by-word equivalence
//!    proof that the [`Image`]'s flat predecode table denotes exactly the
//!    same actions and transition as word-at-a-time
//!    [`decode_word`](crate::machine::decode_word) for *every* code
//!    address (holes included). A divergence — a stale or tampered table —
//!    is an `Error` that gates the accelerator, which is the admission
//!    discipline a JIT backend will inherit.
//!
//! Findings carry block id, action slot, and — when assembled from text via
//! [`crate::asm::assemble_text_with_map`] — source line numbers. The
//! encoder attaches a [`VerifyReport`] to every [`Image`];
//! [`Lane::run`](crate::lane::Lane::run) refuses images with `Error`
//! findings unless the caller opts out
//! ([`RunConfig::allow_unverified`](crate::lane::RunConfig)).

use crate::asm::SourceMap;
use crate::effclip::Placement;
use crate::error::UdpError;
use crate::isa::{
    Action, Block, BlockId, Cond, OpClass, Role, Transition, Width, NUM_REGS, SCRATCHPAD_BYTES,
};
use crate::lane::{CYCLE_LIMIT, OUT_BASE};
use crate::machine::{DecodedTransition, Image};
use crate::program::Program;
use std::collections::hash_map::{Entry, HashMap};
use std::fmt;

/// Finding severity, ordered `Info < Warn < Error`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Diagnostic only (e.g. an access that cannot be *proved* in bounds).
    Info,
    /// Almost certainly a bug, but the runtime contains it (trap, not UB).
    Warn,
    /// The program is rejected by the accelerator gate.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Info => write!(f, "info"),
            Severity::Warn => write!(f, "warn"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// Which analysis produced a finding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Analysis {
    /// CFG reachability (unreachable blocks, no reachable halt).
    Reachability,
    /// Must-initialize register dataflow.
    RegisterInit,
    /// Backward liveness (ALU results never read).
    DeadWrite,
    /// Interval analysis of scratchpad addresses.
    ScratchpadBounds,
    /// Stream-unit over-run checks.
    StreamBounds,
    /// Loop/termination and cycle-budget checks.
    Termination,
    /// Dispatch-table completeness/validity (image level).
    DispatchTable,
    /// `r15`/`r14` output-range contract at halt.
    OutputContract,
    /// Static cycle-bound certification (WCET envelope).
    CycleBound,
    /// Predecode-table ≡ `decode_word` equivalence proof (image level).
    TranslationValidation,
}

impl fmt::Display for Analysis {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Analysis::Reachability => "reachability",
            Analysis::RegisterInit => "register-init",
            Analysis::DeadWrite => "dead-write",
            Analysis::ScratchpadBounds => "scratchpad-bounds",
            Analysis::StreamBounds => "stream-bounds",
            Analysis::Termination => "termination",
            Analysis::DispatchTable => "dispatch-table",
            Analysis::OutputContract => "output-contract",
            Analysis::CycleBound => "cycle-bound",
            Analysis::TranslationValidation => "translation-validation",
        };
        write!(f, "{s}")
    }
}

/// One verifier finding, anchored to a block (and action slot, if any).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Severity class.
    pub severity: Severity,
    /// Producing analysis.
    pub analysis: Analysis,
    /// Block the finding anchors to.
    pub block: BlockId,
    /// Action slot within the block (`None` = the transition / whole block).
    pub slot: Option<usize>,
    /// 1-based source line, when a [`SourceMap`] has been attached.
    pub line: Option<usize>,
    /// Human-readable description.
    pub message: String,
    /// Findings this one stands for: itself, plus every later `Info` of the
    /// same analysis whose message differs from it only in its numbers
    /// (always 1 for warnings and errors, which are never folded).
    pub count: usize,
}

/// What an `Info` finding says with its numbers left out: the key infos
/// fold on. An image of a few hundred blocks repeats some infos once per
/// load/store slot, so only the first of each kind is formatted and kept.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
enum Info {
    /// A write to `r0`, which discards it.
    WriteToR0,
    /// A `load` or `store` not provably inside the scratchpad.
    UnprovenAccess { kind: &'static str },
    /// A register dispatch whose index cannot be bounded; `more_sites` when
    /// the finding also stands for other blocks that dispatch so.
    UnboundedDispatch { label: &'static str, more_sites: bool },
}

impl Info {
    fn analysis(self) -> Analysis {
        match self {
            Info::WriteToR0 => Analysis::RegisterInit,
            Info::UnprovenAccess { .. } => Analysis::ScratchpadBounds,
            Info::UnboundedDispatch { .. } => Analysis::DispatchTable,
        }
    }
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}] block {}", self.severity, self.analysis, self.block)?;
        if let Some(s) = self.slot {
            write!(f, " slot {s}")?;
        }
        if let Some(l) = self.line {
            write!(f, " (line {l})")?;
        }
        write!(f, ": {}", self.message)?;
        if self.count > 1 {
            write!(f, " (and {} more like it)", self.count - 1)?;
        }
        Ok(())
    }
}

/// Worst-case cost summary for one CFG loop (maximal SCC).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoopSummary {
    /// Blocks in the loop, ascending.
    pub blocks: Vec<BlockId>,
    /// Upper bound on the cycle cost of one full traversal of the loop
    /// (sum of member block costs).
    pub max_iter_cycles: u64,
    /// Number of edges leaving the loop.
    pub exits: usize,
}

/// Certified affine worst-case cycle model: `fixed + per_input_bit × bits`.
///
/// Every *completing* (non-trapping, in-budget) run of the program on an
/// input of `bits` stream bits finishes in at most
/// [`max_for(bits)`](MaxBound::max_for) modeled cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MaxBound {
    /// Input-independent cycle cost (setup, teardown, cursor-driven loops).
    pub fixed: u64,
    /// Cycles chargeable to each consumed input bit.
    pub per_input_bit: u64,
}

impl MaxBound {
    /// Evaluates the affine model for an input of `input_bits` stream bits.
    pub fn max_for(&self, input_bits: u64) -> u64 {
        self.fixed.saturating_add(self.per_input_bit.saturating_mul(input_bits))
    }
}

impl fmt::Display for MaxBound {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.per_input_bit == 0 {
            write!(f, "{}", self.fixed)
        } else {
            write!(f, "{} + {}·bits", self.fixed, self.per_input_bit)
        }
    }
}

/// Statically certified cycle envelope for one program.
///
/// `min` is a guaranteed lower bound (shortest CFG path from the entry to a
/// reachable halt, full block costs charged); `max` is the affine upper
/// bound, present only when every reachable loop makes provable progress.
/// The envelope holds for completing runs of gated-clean programs —
/// [`Lane::run`](crate::lane::Lane::run) debug-asserts it and
/// `recode trace-check --bounds` enforces it on stored traces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CycleBound {
    /// Cycles every completing run spends at minimum.
    pub min: u64,
    /// Affine worst case, when certifiable (`None` = loops not boundable).
    pub max: Option<MaxBound>,
}

impl CycleBound {
    /// `true` iff `cycles` lies inside the envelope for an input of
    /// `input_bits` stream bits (an absent `max` only checks the minimum).
    pub fn contains(&self, cycles: u64, input_bits: u64) -> bool {
        cycles >= self.min && self.max.is_none_or(|m| cycles <= m.max_for(input_bits))
    }
}

impl fmt::Display for CycleBound {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.max {
            Some(m) => write!(f, "[{}, {m}]", self.min),
            None => write!(f, "[{}, unbounded)", self.min),
        }
    }
}

/// Largest input, in stream bits, at which the certified maximum is checked
/// against [`CYCLE_LIMIT`]: a comfortably oversized compressed block (the
/// pipeline frames 8 KiB blocks).
pub const MAX_INPUT_BITS: u64 = 1 << 20;

/// Budget for the certified per-input-bit cycle cost; a certified
/// `per_input_bit` above it draws a `cycle-bound` warning. About 4× the
/// worst shipped program, so it flags real cost explosions, not noise.
pub const PER_BIT_BUDGET: u64 = 64;

/// Severity-ranked result of verifying one program.
#[derive(Debug, Clone, PartialEq)]
pub struct VerifyReport {
    /// Program name.
    pub program: String,
    /// Findings, sorted most severe first (then by block id).
    pub findings: Vec<Finding>,
    /// Total blocks in the program.
    pub blocks: usize,
    /// Blocks reachable from the entry.
    pub reachable: usize,
    /// Longest-path cycle bound when the CFG is acyclic (`None` = cyclic).
    pub max_acyclic_cycles: Option<u64>,
    /// Per-loop worst-case iteration costs.
    pub loops: Vec<LoopSummary>,
    /// Certified cycle envelope (`None` iff no halt is reachable).
    pub cycle_bound: Option<CycleBound>,
    /// Block-entry joins the interval fixpoint made: what verifying cost,
    /// as a count. It stays within a few times blocks + group windows.
    pub fixpoint_joins: u64,
}

impl VerifyReport {
    /// An empty (all-clean) report for `program`.
    pub fn empty(program: impl Into<String>) -> Self {
        VerifyReport {
            program: program.into(),
            findings: Vec::new(),
            blocks: 0,
            reachable: 0,
            max_acyclic_cycles: None,
            loops: Vec::new(),
            cycle_bound: None,
            fixpoint_joins: 0,
        }
    }

    fn count(&self, s: Severity) -> usize {
        self.findings.iter().filter(|f| f.severity == s).map(|f| f.count).sum()
    }

    /// Number of `Error` findings.
    pub fn error_count(&self) -> usize {
        self.count(Severity::Error)
    }

    /// Number of `Warn` findings.
    pub fn warn_count(&self) -> usize {
        self.count(Severity::Warn)
    }

    /// Number of `Info` findings, folded ones included.
    pub fn info_count(&self) -> usize {
        self.count(Severity::Info)
    }

    /// `true` when the report carries no `Error` or `Warn` findings
    /// (`Info` findings — unprovable-but-plausible facts — are allowed).
    pub fn is_clean(&self) -> bool {
        self.error_count() == 0 && self.warn_count() == 0
    }

    /// The most severe finding class present, if any.
    pub fn worst(&self) -> Option<Severity> {
        self.findings.iter().map(|f| f.severity).max()
    }

    /// The accelerator admission gate: `Err` iff any `Error` finding.
    ///
    /// # Errors
    /// [`UdpError::Verify`] carrying the rendered report.
    pub fn gate(&self) -> Result<(), UdpError> {
        if self.error_count() == 0 {
            return Ok(());
        }
        Err(UdpError::Verify {
            program: self.program.clone(),
            errors: self.error_count(),
            details: self.to_string(),
        })
    }

    /// Attaches source line numbers from the assembler's [`SourceMap`].
    pub fn attach_lines(&mut self, map: &SourceMap) {
        for f in &mut self.findings {
            f.line = map.line_for(f.block, f.slot);
        }
    }

    fn push(
        &mut self,
        severity: Severity,
        analysis: Analysis,
        block: BlockId,
        slot: Option<usize>,
        message: String,
    ) {
        self.findings.push(Finding {
            severity,
            analysis,
            block,
            slot,
            line: None,
            message,
            count: 1,
        });
    }
}

impl fmt::Display for VerifyReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "verify `{}`: {} error(s), {} warning(s), {} info — {}/{} blocks reachable, \
             {} fixpoint joins",
            self.program,
            self.error_count(),
            self.warn_count(),
            self.info_count(),
            self.reachable,
            self.blocks,
            self.fixpoint_joins,
        )?;
        if let Some(b) = self.cycle_bound {
            writeln!(f, "  certified cycle envelope: {b}")?;
        }
        match self.max_acyclic_cycles {
            Some(c) => writeln!(f, "  worst-case cycles (acyclic): {c}")?,
            None => {
                for l in &self.loops {
                    writeln!(
                        f,
                        "  loop over {} block(s) [{}..]: ≤{} cycles/iteration, {} exit(s)",
                        l.blocks.len(),
                        l.blocks.first().copied().unwrap_or(0),
                        l.max_iter_cycles,
                        l.exits,
                    )?;
                }
            }
        }
        for finding in &self.findings {
            writeln!(f, "  {finding}")?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Action/transition register effects
// ---------------------------------------------------------------------------

/// The register operands of `a` whose role in its opcode row satisfies
/// `pick`, in operand order.
fn action_regs(a: Action, pick: fn(Role) -> bool) -> impl Iterator<Item = u8> {
    a.decompose().into_iter().flat_map(move |(op, values)| {
        op.operands.iter().zip(values).filter(move |(o, _)| pick(o.role)).map(|(_, v)| v as u8)
    })
}

/// Registers an action reads (before any write it performs).
fn action_reads(a: Action) -> impl Iterator<Item = u8> {
    action_regs(a, Role::reads)
}

/// Registers an action writes.
fn action_writes(a: Action) -> impl Iterator<Item = u8> {
    action_regs(a, Role::writes)
}

/// Registers a transition reads.
fn transition_reads(t: &Transition) -> Vec<u8> {
    match *t {
        Transition::Branch { rs, rt, .. } => vec![rs, rt],
        Transition::DispatchReg { rs, .. } => vec![rs],
        _ => vec![],
    }
}

/// Stream bits an action is guaranteed to consume (0 = none).
fn action_consumes_stream(a: Action) -> bool {
    matches!(
        a,
        Action::InSym { .. }
            | Action::InSymLe { .. }
            | Action::SkipSym { .. }
            | Action::SkipReg { .. }
    )
}

/// Stream bits a block consumes on every execution that a completing run
/// makes of it: the widths of its `insym`/`insymle`/`skip` actions and of a
/// consuming dispatch. Each takes exactly its width or traps on under-run.
/// Strictly tighter than [`action_consumes_stream`]: `skipreg` may skip 0
/// bits (the stream unit accepts `skip(0)`), so it guarantees nothing even
/// though it touches the stream.
fn block_consumes_stream(blk: &Block) -> u64 {
    // InSym/SkipSym bits and InSymLe bytes are ISA-validated to be ≥ 1.
    let actions: u64 = (blk.actions.iter())
        .map(|a| match *a {
            Action::InSym { bits, .. } | Action::SkipSym { bits } => u64::from(bits),
            Action::InSymLe { bytes, .. } => 8 * u64::from(bytes),
            _ => 0,
        })
        .sum();
    match blk.transition {
        Transition::DispatchSym { bits, .. } => actions + u64::from(bits),
        _ => actions,
    }
}

/// The bytes `a` advances register `c` by, when it is a constant forward
/// step of `c` — the writes a *valid cursor* may take in a loop, for the
/// certifier's progress accounting and for a counted stream loop alike.
fn cursor_advance(a: Action, c: u8) -> Option<u64> {
    match a {
        Action::AddI { rd, rs, imm } if rd == c && rs == c && imm > 0 => Some(imm as u64),
        // `loadinc rd, base` with rd == base ends holding the loaded value,
        // not the bumped cursor, so it only advances when the destination is
        // a different register.
        Action::LoadInc { rd, base, width } if base == c && rd != c => Some(width.bytes() as u64),
        Action::StoreInc { base, width, .. } if base == c => Some(width.bytes() as u64),
        _ => None,
    }
}

/// `true` for pure ALU ops whose only effect is the register write — the
/// candidates for dead-write findings.
fn is_pure_alu(a: Action) -> bool {
    a.decompose().is_some_and(|(op, _)| op.class == OpClass::Alu)
}

// ---------------------------------------------------------------------------
// CFG
// ---------------------------------------------------------------------------

/// The control-flow graph: a node per block and, behind them, a node per
/// dispatch group. A dispatching block has one successor, its group's node,
/// and the group's node has the members — so whatever follows edges walks a
/// group's windows once per group, not once per block that dispatches into
/// it (every emit handler of a Huffman image does). A group node has no
/// actions, costs nothing and hands every state on as it got it.
struct Cfg {
    succ: Vec<Vec<BlockId>>,
    reachable: Vec<bool>,
    /// Nodes below this are blocks, by id; node `blocks + g` is group `g`.
    blocks: usize,
}

impl Cfg {
    fn build(p: &Program) -> Cfg {
        let n = p.blocks.len();
        let of_block = |b: &Block| match b.transition {
            Transition::Halt => vec![],
            Transition::Jump(t) => vec![t],
            Transition::Branch { taken, fallthrough, .. } => vec![taken, fallthrough],
            // Out-of-range group ids are rejected by Program::validate.
            Transition::DispatchSym { group, .. }
            | Transition::DispatchPeek { group, .. }
            | Transition::DispatchReg { group, .. } => {
                p.groups.get(group as usize).map_or(vec![], |_| vec![n as BlockId + group])
            }
        };
        let of_group =
            |entries: &Vec<(u32, BlockId)>| entries.iter().map(|&(_, bid)| bid).collect();
        let mut succ: Vec<Vec<BlockId>> =
            p.blocks.iter().map(of_block).chain(p.groups.iter().map(of_group)).collect();
        for s in &mut succ {
            s.sort_unstable();
            s.dedup();
        }
        let mut reachable = vec![false; succ.len()];
        let mut work = vec![p.entry];
        while let Some(b) = work.pop() {
            let bi = b as usize;
            if reachable[bi] {
                continue;
            }
            reachable[bi] = true;
            work.extend_from_slice(&succ[bi]);
        }
        Cfg { succ, reachable, blocks: n }
    }

    /// The blocks among `nodes`.
    fn blocks_of(&self, nodes: &[BlockId]) -> Vec<BlockId> {
        nodes.iter().copied().filter(|&b| (b as usize) < self.blocks).collect()
    }
}

// ---------------------------------------------------------------------------
// Intervals
// ---------------------------------------------------------------------------

const IV_MIN: i128 = i64::MIN as i128;
const IV_MAX: i128 = i64::MAX as i128;

/// Signed 64-bit value interval (registers are interpreted the way the lane
/// interprets them for addressing: as `i64`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Iv {
    lo: i128,
    hi: i128,
}

impl Iv {
    const TOP: Iv = Iv { lo: IV_MIN, hi: IV_MAX };

    fn exact(v: i128) -> Iv {
        Iv { lo: v, hi: v }
    }

    fn range(lo: i128, hi: i128) -> Iv {
        Iv { lo, hi }
    }

    fn clamp(self) -> Iv {
        if self.lo < IV_MIN || self.hi > IV_MAX {
            Iv::TOP
        } else {
            self
        }
    }

    fn add(self, o: Iv) -> Iv {
        Iv { lo: self.lo + o.lo, hi: self.hi + o.hi }.clamp()
    }

    fn sub(self, o: Iv) -> Iv {
        Iv { lo: self.lo - o.hi, hi: self.hi - o.lo }.clamp()
    }

    fn shl(self, k: u8) -> Iv {
        if k >= 64 {
            return Iv::TOP;
        }
        if self.lo < 0 {
            return Iv::TOP;
        }
        Iv { lo: self.lo << k, hi: self.hi << k }.clamp()
    }

    fn shr(self, k: u8) -> Iv {
        if k == 0 {
            return self;
        }
        if self.lo >= 0 {
            return Iv { lo: self.lo >> k, hi: self.hi >> k };
        }
        // Logical shift of a possibly-negative u64: result fits in 64-k bits.
        let hi = if k >= 64 { 0 } else { (u64::MAX >> k) as i128 };
        Iv { lo: 0, hi }.clamp()
    }

    fn and(self, o: Iv) -> Iv {
        // x & y is bounded above by either non-negative operand.
        match (self.lo >= 0, o.lo >= 0) {
            (true, true) => Iv { lo: 0, hi: self.hi.min(o.hi) },
            (true, false) => Iv { lo: 0, hi: self.hi },
            (false, true) => Iv { lo: 0, hi: o.hi },
            (false, false) => Iv::TOP,
        }
    }

    fn or(self, o: Iv) -> Iv {
        if self.lo >= 0 && o.lo >= 0 {
            // a|b >= max(a,b), a|b <= a+b.
            Iv { lo: self.lo.max(o.lo), hi: self.hi + o.hi }.clamp()
        } else {
            Iv::TOP
        }
    }

    fn xor(self, o: Iv) -> Iv {
        if self.lo >= 0 && o.lo >= 0 {
            Iv { lo: 0, hi: self.hi + o.hi }.clamp()
        } else {
            Iv::TOP
        }
    }

    fn join(self, o: Iv) -> Iv {
        Iv { lo: self.lo.min(o.lo), hi: self.hi.max(o.hi) }
    }

    /// Widening: bounds that moved since `prev` jump straight to ±∞.
    fn widen(self, prev: Iv) -> Iv {
        Iv {
            lo: if self.lo < prev.lo { IV_MIN } else { self.lo },
            hi: if self.hi > prev.hi { IV_MAX } else { self.hi },
        }
    }
}

impl fmt::Display for Iv {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let end = |v: i128, bound: i128, infinite: &str| -> String {
            if v == bound {
                infinite.into()
            } else {
                v.to_string()
            }
        };
        write!(f, "[{}, {}]", end(self.lo, IV_MIN, "-∞"), end(self.hi, IV_MAX, "∞"))
    }
}

type RegState = [Iv; NUM_REGS];

fn stream_value_bound(bits: u32) -> Iv {
    if bits >= 63 {
        Iv::range(0, IV_MAX)
    } else {
        Iv::range(0, (1i128 << bits) - 1)
    }
}

/// Applies one action to an interval register state.
fn interval_step(regs: &mut RegState, a: Action) {
    let set = |regs: &mut RegState, rd: u8, v: Iv| {
        if rd != 0 {
            regs[rd as usize] = v;
        }
    };
    let get = |regs: &RegState, r: u8| -> Iv {
        if r == 0 {
            Iv::exact(0)
        } else {
            regs[r as usize]
        }
    };
    match a {
        Action::LoadImm { rd, imm } => set(regs, rd, Iv::exact(imm as i128)),
        Action::Mov { rd, rs } => set(regs, rd, get(regs, rs)),
        Action::Add { rd, rs, rt } => set(regs, rd, get(regs, rs).add(get(regs, rt))),
        Action::Sub { rd, rs, rt } => set(regs, rd, get(regs, rs).sub(get(regs, rt))),
        Action::And { rd, rs, rt } => set(regs, rd, get(regs, rs).and(get(regs, rt))),
        Action::Or { rd, rs, rt } => set(regs, rd, get(regs, rs).or(get(regs, rt))),
        Action::Xor { rd, rs, rt } => set(regs, rd, get(regs, rs).xor(get(regs, rt))),
        Action::AddI { rd, rs, imm } => {
            set(regs, rd, get(regs, rs).add(Iv::exact(imm as i128)));
        }
        Action::ShlI { rd, rs, amount } => set(regs, rd, get(regs, rs).shl(amount)),
        Action::ShrI { rd, rs, amount } => set(regs, rd, get(regs, rs).shr(amount)),
        Action::Load { rd, width, .. } => {
            let v = match width {
                Width::B8 => Iv::TOP,
                w => stream_value_bound(8 * w.bytes() as u32),
            };
            set(regs, rd, v);
        }
        Action::LoadInc { rd, base, width } => {
            let v = match width {
                Width::B8 => Iv::TOP,
                w => stream_value_bound(8 * w.bytes() as u32),
            };
            set(regs, rd, v);
            let inc = get(regs, base).add(Iv::exact(width.bytes() as i128));
            set(regs, base, inc);
        }
        Action::StoreInc { base, width, .. } => {
            let inc = get(regs, base).add(Iv::exact(width.bytes() as i128));
            set(regs, base, inc);
        }
        Action::Store { .. } | Action::SkipSym { .. } | Action::SkipReg { .. } => {}
        Action::InSym { rd, bits } => set(regs, rd, stream_value_bound(bits as u32)),
        Action::PeekSym { rd, bits } => set(regs, rd, stream_value_bound(bits as u32)),
        Action::InSymLe { rd, bytes } => {
            set(regs, rd, stream_value_bound(8 * bytes as u32));
        }
        Action::InRem { rd } => set(regs, rd, Iv::range(0, IV_MAX)),
    }
}

// ---------------------------------------------------------------------------
// Tarjan SCC
// ---------------------------------------------------------------------------

/// Maximal SCCs of the reachable CFG; only SCCs that actually contain a
/// cycle (size > 1, or a self-loop) are returned.
fn cyclic_sccs(cfg: &Cfg) -> Vec<Vec<BlockId>> {
    // Iterative Tarjan (explicit state machine) to survive deep CFGs.
    enum Frame {
        Enter(usize),
        Resume(usize, usize),
    }
    let n = cfg.succ.len();
    let mut index = vec![usize::MAX; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut next = 0usize;
    let mut out: Vec<Vec<BlockId>> = Vec::new();

    for start in 0..n {
        if !cfg.reachable[start] || index[start] != usize::MAX {
            continue;
        }
        let mut frames = vec![Frame::Enter(start)];
        while let Some(frame) = frames.pop() {
            match frame {
                Frame::Enter(v) => {
                    index[v] = next;
                    low[v] = next;
                    next += 1;
                    stack.push(v);
                    on_stack[v] = true;
                    frames.push(Frame::Resume(v, 0));
                }
                Frame::Resume(v, mut i) => {
                    let mut descended = false;
                    while i < cfg.succ[v].len() {
                        let w = cfg.succ[v][i] as usize;
                        i += 1;
                        if index[w] == usize::MAX {
                            frames.push(Frame::Resume(v, i));
                            frames.push(Frame::Enter(w));
                            descended = true;
                            break;
                        } else if on_stack[w] {
                            low[v] = low[v].min(index[w]);
                        }
                    }
                    if descended {
                        continue;
                    }
                    if low[v] == index[v] {
                        let mut comp = Vec::new();
                        loop {
                            let w = stack.pop().expect("tarjan stack underflow");
                            on_stack[w] = false;
                            comp.push(w as BlockId);
                            if w == v {
                                break;
                            }
                        }
                        let is_cycle =
                            comp.len() > 1 || cfg.succ[comp[0] as usize].contains(&comp[0]);
                        if is_cycle {
                            comp.sort_unstable();
                            out.push(comp);
                        }
                    }
                    // Propagate lowlink to the parent Resume frame, if any.
                    if let Some(Frame::Resume(parent, _)) = frames.last() {
                        let p = *parent;
                        low[p] = low[p].min(low[v]);
                    }
                }
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// The verifier
// ---------------------------------------------------------------------------

/// How many times a block is revisited before interval widening kicks in.
const WIDEN_AFTER: u32 = 2;

/// Runs all symbolic analyses on `program`.
///
/// Use [`verify_image`] when the encoded image is available — it adds the
/// image-level dispatch-table and round-trip checks.
pub fn verify_program(program: &Program) -> VerifyReport {
    Verifier::new(program).run(None)
}

/// Runs all analyses, including the image-level cross-checks (dispatch
/// completeness/aliasing against real code words, encode round-trip).
pub fn verify_image(program: &Program, placement: &Placement, image: &Image) -> VerifyReport {
    Verifier::new(program).run(Some((placement, image)))
}

struct Verifier<'a> {
    p: &'a Program,
    g: Cfg,
    report: VerifyReport,
    /// Where in `report.findings` the first `Info` of each kind sits.
    infos: HashMap<Info, usize>,
    /// Interval state at each CFG node's entry (fixpoint result).
    entry_state: Vec<RegState>,
}

impl<'a> Verifier<'a> {
    fn new(p: &'a Program) -> Self {
        let g = Cfg::build(p);
        let mut report = VerifyReport::empty(p.name.clone());
        report.blocks = p.blocks.len();
        report.reachable = g.reachable[..g.blocks].iter().filter(|&&r| r).count();
        let entry_state = vec![[Iv::TOP; NUM_REGS]; g.succ.len()];
        Verifier { p, g, report, infos: HashMap::new(), entry_state }
    }

    /// Records an `Info` of `kind` at `block`/`slot`. Every analysis visits
    /// blocks, and a block's slots, in ascending order, so the first of a
    /// kind is the lowest (block, slot): it is the one formatted and kept,
    /// and a repeat only adds to its count.
    fn info(
        &mut self,
        kind: Info,
        block: BlockId,
        slot: Option<usize>,
        message: impl FnOnce() -> String,
    ) {
        match self.infos.entry(kind) {
            Entry::Occupied(first) => {
                let first = &mut self.report.findings[*first.get()];
                debug_assert!((first.block, first.slot) <= (block, slot), "infos out of order");
                first.count += 1;
            }
            Entry::Vacant(new) => {
                new.insert(self.report.findings.len());
                self.report.push(Severity::Info, kind.analysis(), block, slot, message());
            }
        }
    }

    /// The actions of CFG node `node`: none for a group node.
    fn actions(&self, node: usize) -> &'a [Action] {
        self.p.blocks.get(node).map_or(&[], |b| &b.actions)
    }

    /// The reachable CFG nodes with an edge into node `v`.
    fn preds(&self, v: usize) -> impl Iterator<Item = usize> + '_ {
        let into_v = move |&u: &usize| self.g.succ[u].contains(&(v as BlockId));
        (0..self.g.succ.len()).filter(move |&u| self.g.reachable[u]).filter(into_v)
    }

    /// What one visit of CFG node `node` costs: nothing for a group node.
    fn cost(&self, node: usize) -> u64 {
        self.p.blocks.get(node).map_or(0, Block::cycles)
    }

    fn run(mut self, img: Option<(&Placement, &Image)>) -> VerifyReport {
        self.check_reachability();
        self.check_register_init();
        self.check_dead_writes();
        self.interval_fixpoint();
        self.check_memory_and_output();
        self.check_loops();
        self.certify_cycle_bound();
        self.check_dispatch_tables(img);
        if let Some((placement, image)) = img {
            self.cross_check_image(placement, image);
            self.check_translation_validation(placement, image);
        }
        self.report.findings.sort_by(|a, b| {
            b.severity.cmp(&a.severity).then(a.block.cmp(&b.block)).then(a.slot.cmp(&b.slot))
        });
        self.report
    }

    // -- analysis 1: reachability ------------------------------------------

    fn check_reachability(&mut self) {
        let mut halts_reachable = false;
        for (i, b) in self.p.blocks.iter().enumerate() {
            if !self.g.reachable[i] {
                self.report.push(
                    Severity::Warn,
                    Analysis::Reachability,
                    i as BlockId,
                    None,
                    "block is unreachable from the entry (dead code)".into(),
                );
            } else if matches!(b.transition, Transition::Halt) {
                halts_reachable = true;
            }
        }
        if !halts_reachable {
            self.report.push(
                Severity::Error,
                Analysis::Reachability,
                self.p.entry,
                None,
                "no halt is reachable from the entry: the program can only end in a trap".into(),
            );
        }
    }

    // -- analysis 2a: must-initialize dataflow -----------------------------

    fn init_entry_mask() -> u16 {
        // r0 is hard-wired zero; r14 carries the output base by contract.
        (1 << 0) | (1 << 14)
    }

    fn check_register_init(&mut self) {
        let all: u16 = u16::MAX;
        // in[b] = mask of registers definitely written on *every* path.
        let mut inm = vec![all; self.g.succ.len()];
        let entry = self.p.entry as usize;
        inm[entry] = Self::init_entry_mask();
        let mut work: Vec<usize> = vec![entry];
        while let Some(b) = work.pop() {
            let mut m = inm[b];
            for a in self.actions(b) {
                for w in action_writes(*a) {
                    m |= 1 << w;
                }
            }
            for &s in &self.g.succ[b] {
                let s = s as usize;
                let base = if s == entry { Self::init_entry_mask() } else { all };
                let next = inm[s] & m & base;
                if next != inm[s] {
                    inm[s] = next;
                    work.push(s);
                }
            }
        }
        for (i, b) in self.p.blocks.iter().enumerate() {
            if !self.g.reachable[i] {
                continue;
            }
            let mut m = inm[i];
            for (slot, a) in b.actions.iter().enumerate() {
                for r in action_reads(*a) {
                    if m & (1 << r) == 0 {
                        self.report.push(
                            Severity::Warn,
                            Analysis::RegisterInit,
                            i as BlockId,
                            Some(slot),
                            format!(
                                "r{r} is read here but no path from the entry writes it \
                                 (it reads as 0)"
                            ),
                        );
                    }
                }
                for w in action_writes(*a) {
                    if w == 0 {
                        self.info(Info::WriteToR0, i as BlockId, Some(slot), || {
                            "write to r0 is discarded (r0 is hard-wired zero)".into()
                        });
                    }
                    m |= 1 << w;
                }
            }
            for r in transition_reads(&b.transition) {
                if m & (1 << r) == 0 {
                    self.report.push(
                        Severity::Warn,
                        Analysis::RegisterInit,
                        i as BlockId,
                        None,
                        format!(
                            "transition reads r{r} but no path from the entry writes it \
                             (it reads as 0)"
                        ),
                    );
                }
            }
        }
    }

    // -- analysis 2b: backward liveness (dead writes) ----------------------

    fn check_dead_writes(&mut self) {
        let n = self.g.succ.len();
        // live-in per CFG node.
        let mut live_in = vec![0u16; n];
        let block_live_in = |blocks: &[Block], live_in: &[u16], succs: &[BlockId], b: usize| {
            let mut live = succs.iter().fold(0u16, |live, &s| live | live_in[s as usize]);
            // A group node passes on what its members need.
            let Some(blk) = blocks.get(b) else { return live };
            if matches!(blk.transition, Transition::Halt) {
                // The hardware reads r15 (and r14 implicitly) at halt.
                live |= (1 << 15) | (1 << 14);
            }
            for r in transition_reads(&blk.transition) {
                live |= 1 << r;
            }
            for a in blk.actions.iter().rev() {
                for w in action_writes(*a) {
                    live &= !(1 << w);
                }
                for r in action_reads(*a) {
                    live |= 1 << r;
                }
            }
            live
        };
        let mut changed = true;
        while changed {
            changed = false;
            for b in (0..n).rev() {
                if !self.g.reachable[b] {
                    continue;
                }
                let li = block_live_in(&self.p.blocks, &live_in, &self.g.succ[b], b);
                if li != live_in[b] {
                    live_in[b] = li;
                    changed = true;
                }
            }
        }
        // Report pure ALU writes whose result is dead.
        for (i, blk) in self.p.blocks.iter().enumerate() {
            if !self.g.reachable[i] {
                continue;
            }
            let mut live: u16 = match blk.transition {
                Transition::Halt => (1 << 15) | (1 << 14),
                _ => 0,
            };
            for &s in &self.g.succ[i] {
                live |= live_in[s as usize];
            }
            for r in transition_reads(&blk.transition) {
                live |= 1 << r;
            }
            // Walk actions backwards, checking each write against liveness
            // *after* the action.
            let mut dead: Vec<(usize, u8)> = Vec::new();
            for (slot, a) in blk.actions.iter().enumerate().rev() {
                if is_pure_alu(*a) {
                    let rd = action_writes(*a).next().expect("an ALU row defines a register");
                    if rd != 0 && live & (1 << rd) == 0 {
                        dead.push((slot, rd));
                    }
                }
                for w in action_writes(*a) {
                    live &= !(1 << w);
                }
                for r in action_reads(*a) {
                    live |= 1 << r;
                }
            }
            for (slot, rd) in dead.into_iter().rev() {
                self.report.push(
                    Severity::Warn,
                    Analysis::DeadWrite,
                    i as BlockId,
                    Some(slot),
                    format!("r{rd} is written here but never read on any path (dead write)"),
                );
            }
        }
    }

    // -- analysis 3: interval fixpoint + memory / output checks ------------

    fn entry_regs() -> RegState {
        // The lane zeroes all registers, then loads r14 with the out base.
        let mut regs = [Iv::exact(0); NUM_REGS];
        regs[14] = Iv::exact(OUT_BASE as i128);
        regs
    }

    fn interval_fixpoint(&mut self) {
        let entry = self.p.entry as usize;
        let nodes = self.g.succ.len();
        self.entry_state[entry] = Self::entry_regs();
        let mut visits = vec![0u32; nodes];
        let mut work: Vec<usize> = vec![entry];
        let mut seen = vec![false; nodes];
        seen[entry] = true;
        // Whether a node's entry state moved since it was last stepped
        // through; a stale worklist entry has nothing new to say.
        let mut moved = vec![false; nodes];
        moved[entry] = true;
        while let Some(b) = work.pop() {
            if !std::mem::take(&mut moved[b]) {
                continue;
            }
            let mut regs = self.entry_state[b];
            for a in self.actions(b) {
                interval_step(&mut regs, *a);
            }
            self.report.fixpoint_joins += self.g.succ[b].len() as u64;
            for &s in &self.g.succ[b] {
                let s = s as usize;
                let incoming = if s == entry {
                    // The entry's state is pinned by the runtime contract.
                    Self::entry_regs()
                } else {
                    regs
                };
                let (next, first) = if seen[s] {
                    let prev = self.entry_state[s];
                    let mut j = [Iv::TOP; NUM_REGS];
                    let mut changed = false;
                    for r in 0..NUM_REGS {
                        let joined = prev[r].join(incoming[r]);
                        j[r] =
                            if visits[s] >= WIDEN_AFTER { joined.widen(prev[r]) } else { joined };
                        changed |= j[r] != prev[r];
                    }
                    (j, changed)
                } else {
                    (incoming, true)
                };
                if first {
                    seen[s] = true;
                    moved[s] = true;
                    visits[s] += 1;
                    self.entry_state[s] = next;
                    work.push(s);
                }
            }
        }
    }

    fn check_memory_and_output(&mut self) {
        let pad = SCRATCHPAD_BYTES as i128;
        for (i, blk) in self.p.blocks.iter().enumerate() {
            if !self.g.reachable[i] {
                continue;
            }
            let mut regs = self.entry_state[i];
            for (slot, a) in blk.actions.iter().enumerate() {
                let access: Option<(u8, i128, usize, &'static str)> = match *a {
                    Action::Load { base, offset, width, .. } => {
                        Some((base, offset as i128, width.bytes(), "load"))
                    }
                    Action::Store { base, offset, width, .. } => {
                        Some((base, offset as i128, width.bytes(), "store"))
                    }
                    Action::LoadInc { base, width, .. } => Some((base, 0, width.bytes(), "load")),
                    Action::StoreInc { base, width, .. } => Some((base, 0, width.bytes(), "store")),
                    _ => None,
                };
                if let Some((base, offset, width, kind)) = access {
                    let base_iv = if base == 0 { Iv::exact(0) } else { regs[base as usize] };
                    let addr = base_iv.add(Iv::exact(offset));
                    let w = width as i128;
                    if addr.hi < 0 || addr.lo > pad - w {
                        self.report.push(
                            Severity::Error,
                            Analysis::ScratchpadBounds,
                            i as BlockId,
                            Some(slot),
                            format!(
                                "{kind} of {width} byte(s) at address {addr} is always \
                                 outside the {SCRATCHPAD_BYTES}-byte scratchpad"
                            ),
                        );
                    } else if addr.lo < 0 || addr.hi > pad - w {
                        self.info(Info::UnprovenAccess { kind }, i as BlockId, Some(slot), || {
                            format!(
                                "cannot prove {kind} of {width} byte(s) at address {addr} \
                                 stays inside the scratchpad (checked at runtime)"
                            )
                        });
                    }
                }
                interval_step(&mut regs, *a);
            }
            if matches!(blk.transition, Transition::Halt) {
                let r15 = regs[15];
                let window = pad - OUT_BASE as i128;
                if r15.lo > window || r15.hi < 0 {
                    self.report.push(
                        Severity::Error,
                        Analysis::OutputContract,
                        i as BlockId,
                        None,
                        format!(
                            "at halt r15 (declared output bytes) is {r15}, which cannot \
                             fit the output window [{OUT_BASE}, {SCRATCHPAD_BYTES}) — \
                             the run would trap with BadOutputRange"
                        ),
                    );
                }
            }
        }
    }

    // -- analysis 4: loops, termination, cycle budget ----------------------

    fn check_loops(&mut self) {
        let sccs = cyclic_sccs(&self.g);
        for scc in &sccs {
            let members: Vec<bool> = {
                let mut m = vec![false; self.g.succ.len()];
                for &b in scc {
                    m[b as usize] = true;
                }
                m
            };
            // The loop as reported: its blocks (every cycle has one, and
            // blocks sort ahead of group nodes).
            let blocks = self.g.blocks_of(scc);
            let anchor = blocks[0];
            // Registers written anywhere inside the loop.
            let mut written: u16 = 0;
            let mut consumes_stream = false;
            let mut checks_inrem = false;
            for &b in &blocks {
                let blk = &self.p.blocks[b as usize];
                for a in &blk.actions {
                    for w in action_writes(*a) {
                        written |= 1 << w;
                    }
                    if action_consumes_stream(*a) {
                        consumes_stream = true;
                    }
                    if matches!(a, Action::InRem { .. }) {
                        checks_inrem = true;
                    }
                }
                if matches!(blk.transition, Transition::DispatchSym { .. }) {
                    consumes_stream = true;
                }
            }
            // Exit edges and whether any exit can vary between iterations.
            let mut exits = 0usize;
            let mut variant_exit = false;
            for &b in scc {
                let transition = self.p.blocks.get(b as usize).map(|blk| blk.transition);
                for &s in &self.g.succ[b as usize] {
                    if members[s as usize] {
                        continue;
                    }
                    exits += 1;
                    match transition {
                        Some(Transition::Branch { rs, rt, .. }) => {
                            let invariant = (rs == 0 || written & (1 << rs) == 0)
                                && (rt == 0 || written & (1 << rt) == 0);
                            if !invariant {
                                variant_exit = true;
                            }
                        }
                        // Dispatch exits depend on the stream or a register;
                        // stream-driven dispatch varies between iterations.
                        _ => variant_exit = true,
                    }
                }
            }
            let max_iter_cycles: u64 = blocks.iter().map(|&b| self.cost(b as usize)).sum();
            self.report.loops.push(LoopSummary { blocks: blocks.clone(), max_iter_cycles, exits });
            if exits == 0 {
                self.report.push(
                    Severity::Error,
                    Analysis::Termination,
                    anchor,
                    None,
                    format!(
                        "Diverges: loop over blocks {blocks:?} has no exit edge — once \
                         entered it can only end by exhausting the {CYCLE_LIMIT}-cycle budget"
                    ),
                );
            } else if !variant_exit {
                self.report.push(
                    Severity::Warn,
                    Analysis::Termination,
                    anchor,
                    None,
                    format!(
                        "Diverges: every exit of loop {blocks:?} tests registers the loop \
                         never writes — the exit condition cannot change between \
                         iterations"
                    ),
                );
            }
            if consumes_stream && !checks_inrem && !self.is_counted_stream_loop(scc, &members) {
                self.report.push(
                    Severity::Warn,
                    Analysis::StreamBounds,
                    anchor,
                    None,
                    format!(
                        "loop {blocks:?} consumes input-stream bits but never re-checks \
                         `inrem` — a truncated input under-runs the stream unit"
                    ),
                );
            }
        }
        if sccs.is_empty() {
            // Acyclic: longest path is a hard bound. Every reachable block
            // lies on a path from the entry and no block costs less than
            // nothing, so the longest path from any of them is the longest
            // from the entry.
            let bound = self.longest_path(&self.g);
            self.report.max_acyclic_cycles = Some(bound);
            if bound > CYCLE_LIMIT {
                self.report.push(
                    Severity::Warn,
                    Analysis::Termination,
                    self.p.entry,
                    None,
                    format!(
                        "worst-case path costs {bound} cycles, exceeding the \
                         {CYCLE_LIMIT}-cycle budget"
                    ),
                );
            }
        }
    }

    /// Whether `scc` is a *counted stream loop* (DESIGN §10, item 4): one
    /// that reads the stream without asking `inrem`, because its trip count
    /// was fixed from `inrem` before it was entered. That takes
    ///
    /// * (a) one straight chain of blocks, whose only exit is the back-edge
    ///   `bltu c, L, head`;
    /// * (b) the same `B` stream bits a trip, read at fixed widths, and the
    ///   same `k > 0` bytes of cursor advance ([`cursor_advance`], the only
    ///   writes to `c`), with `L` not written;
    /// * (c) on the one path in, `L` last set to `c + ((r >> s) << t)` for an
    ///   `r` from `inrem`, no stream read or write to `c` after that `inrem`,
    ///   `2^s ≥ B` and `2^t ≤ k`;
    /// * (d) a branch on that path that skips the loop when `L == c`;
    ///
    /// and the interval fixpoint puts `c` and `L` in `[0, 2^63)` on entry, so
    /// `c` cannot wrap past `L`. The loop then runs at most `⌊inrem / 2^s⌋`
    /// trips of `B ≤ 2^s` bits: no trip can under-run the stream.
    fn is_counted_stream_loop(&self, scc: &[BlockId], members: &[bool]) -> bool {
        let mut back = None;
        for &b in scc {
            match self.p.blocks.get(b as usize).map(|blk| blk.transition) {
                Some(Transition::Jump(to)) if members[to as usize] => {}
                Some(Transition::Branch { cond: Cond::Ltu, rs, rt, taken, fallthrough })
                    if back.is_none()
                        && members[taken as usize]
                        && !members[fallthrough as usize] =>
                {
                    back = Some((rs, rt, taken as usize));
                }
                _ => return false,
            }
        }
        let Some((c, lim, head)) = back else { return false };
        let mut entries = (scc.iter().map(|&m| m as usize))
            .flat_map(|m| self.preds(m).filter(|&u| !members[u]).map(move |u| (u, m)));
        let (Some((pred, into)), None) = (entries.next(), entries.next()) else { return false };
        if c == 0 || lim == 0 || into != head || members[self.p.entry as usize] {
            return false;
        }
        let (mut bits, mut k) = (0u64, 0u64);
        for &b in scc {
            let blk = &self.p.blocks[b as usize];
            bits += block_consumes_stream(blk);
            for &a in &blk.actions {
                if matches!(a, Action::SkipReg { .. }) || action_writes(a).any(|w| w == lim) {
                    return false;
                }
                if action_writes(a).any(|w| w == c) {
                    let Some(step) = cursor_advance(a, c) else { return false };
                    k += step;
                }
            }
        }
        let mut regs = self.entry_state[pred];
        for &a in self.actions(pred) {
            interval_step(&mut regs, a);
        }
        let no_wrap = regs[c as usize].lo >= 0 && regs[lim as usize].lo >= 0;
        // Backwards along the path in: the guard, then the last writes of
        // `L`, of its shifted and of its unshifted count, and the `inrem`. A
        // chain of sole predecessors cannot cycle: it ends at the entry.
        let (mut next, mut at, mut want, mut found) = (head, pred, lim, 0);
        let (mut shifts, mut guarded) = ([0u32; 2], false);
        loop {
            let Some(blk) = self.p.blocks.get(at) else { return false };
            if let Transition::Branch { cond, rs, rt, taken, fallthrough } = blk.transition {
                let (taken, fallthrough) = (taken as usize, fallthrough as usize);
                let skips = match cond {
                    Cond::Eq => fallthrough == next && taken != next,
                    Cond::Ne => taken == next && fallthrough != next,
                    _ => false,
                };
                guarded |= found == 0 && skips && (rs == c && rt == lim || rs == lim && rt == c);
            }
            for &a in blk.actions.iter().rev() {
                if action_consumes_stream(a) || action_writes(a).any(|w| w == c) {
                    return false;
                }
                if !action_writes(a).any(|w| w == want) {
                    continue;
                }
                want = match (found, a) {
                    (0, Action::Add { rs, rt, .. }) if rs == c => rt,
                    (0, Action::Add { rs, rt, .. }) if rt == c => rs,
                    (1, Action::ShlI { rs, amount, .. }) | (2, Action::ShrI { rs, amount, .. }) => {
                        shifts[found - 1] = u32::from(amount);
                        rs
                    }
                    (3, Action::InRem { .. }) => {
                        let [t, s] = shifts;
                        let widths = bits > 0 && 1 << s >= bits && k > 0 && 1 << t <= k;
                        return guarded && no_wrap && widths;
                    }
                    _ => return false,
                };
                found += 1;
            }
            if at == self.p.entry as usize {
                return false;
            }
            let mut preds = self.preds(at);
            let (Some(p), None) = (preds.next(), preds.next()) else { return false };
            (next, at) = (at, p);
        }
    }

    // -- analysis 6: cycle-bound certification -----------------------------

    /// Attaches a certified [`CycleBound`] envelope and budget warnings.
    ///
    /// Soundness sketch (details in DESIGN.md §10): the minimum is the
    /// shortest CFG path from the entry to a reachable halt — every run is
    /// a CFG path, so no completing run can cost less. For the maximum,
    /// execution decomposes into *progress events* (executions of blocks
    /// that each consume ≥1 stream bit, or advance-and-dereference a
    /// monotone scratchpad cursor) separated by paths through non-progress
    /// blocks; when the non-progress subgraph is acyclic its longest path
    /// bounds each separator, stream events are bounded by the input
    /// length over the fewest bits any of them consumes, and cursor events
    /// by the dereference window — giving an affine
    /// `fixed + per_input_bit × bits` worst case.
    fn certify_cycle_bound(&mut self) {
        let Some(min) = self.min_cycles_to_halt() else {
            // No reachable halt: reachability already reported the Error
            // and there is no completing run to put an envelope around.
            return;
        };
        let max = self.certify_max_bound();
        self.report.cycle_bound = Some(CycleBound { min, max });
        if let Some(m) = max {
            if m.max_for(MAX_INPUT_BITS) > CYCLE_LIMIT {
                self.report.push(
                    Severity::Warn,
                    Analysis::CycleBound,
                    self.p.entry,
                    None,
                    format!(
                        "certified worst case ({m}) reaches {} cycles at {MAX_INPUT_BITS} \
                         input bits, exceeding the {CYCLE_LIMIT}-cycle budget",
                        m.max_for(MAX_INPUT_BITS)
                    ),
                );
            }
            if m.per_input_bit > PER_BIT_BUDGET {
                self.report.push(
                    Severity::Warn,
                    Analysis::CycleBound,
                    self.p.entry,
                    None,
                    format!(
                        "certified per-bit cost is {} cycles/bit, over the \
                         {PER_BIT_BUDGET}-cycle/bit budget",
                        m.per_input_bit
                    ),
                );
            }
        }
    }

    /// Shortest-path cycle cost from the entry to any reachable halt
    /// (block costs charged in full, entry and halt included); `None` when
    /// no halt is reachable.
    fn min_cycles_to_halt(&self) -> Option<u64> {
        use std::cmp::Reverse;
        let entry = self.p.entry as usize;
        let mut dist = vec![u64::MAX; self.g.succ.len()];
        dist[entry] = self.cost(entry);
        // Dijkstra: no node costs less than nothing.
        let mut heap = std::collections::BinaryHeap::from([Reverse((dist[entry], entry))]);
        while let Some(Reverse((d, v))) = heap.pop() {
            if d > dist[v] {
                continue;
            }
            for &s in &self.g.succ[v] {
                let s = s as usize;
                let nd = d.saturating_add(self.cost(s));
                if nd < dist[s] {
                    dist[s] = nd;
                    heap.push(Reverse((nd, s)));
                }
            }
        }
        self.p
            .blocks
            .iter()
            .enumerate()
            .filter(|&(i, b)| self.g.reachable[i] && matches!(b.transition, Transition::Halt))
            .map(|(i, _)| dist[i])
            .filter(|&d| d != u64::MAX)
            .min()
    }

    /// The certified affine maximum, or `None` (plus a warning) when some
    /// loop cannot be shown to make progress.
    fn certify_max_bound(&mut self) -> Option<MaxBound> {
        let n = self.g.succ.len();
        // A *stream-progress* block consumes at least `b_min` ≥ 1 stream
        // bits on every execution, so an input of B bits executes such
        // blocks ≤ B / b_min times in total (the stream unit traps on
        // under-run; completing runs never replay a bit).
        let mut stream_progress = vec![false; n];
        let mut b_min = u64::MAX;
        for (i, blk) in self.p.blocks.iter().enumerate() {
            let consumed = block_consumes_stream(blk);
            stream_progress[i] = self.g.reachable[i] && consumed > 0;
            if stream_progress[i] {
                b_min = b_min.min(consumed);
            }
        }
        // Blocks on some CFG cycle; a reachable block on no cycle executes
        // at most once per run.
        let mut cyclic = vec![false; n];
        for scc in cyclic_sccs(&self.g) {
            for b in scc {
                cyclic[b as usize] = true;
            }
        }
        // A register is a *valid cursor* when every write to it inside a
        // cyclic block strictly advances it; writes in acyclic blocks are
        // resets (each runs ≤ once, so they bound the phase count).
        let advancing = |a: &Action, c: u8| cursor_advance(*a, c).is_some();
        let mut cursor_valid = [false; NUM_REGS];
        let mut cursor_resets = [0u64; NUM_REGS];
        for c in 1..NUM_REGS as u8 {
            let mut valid = true;
            let mut resets = 0u64;
            for (i, blk) in self.p.blocks.iter().enumerate() {
                if !self.g.reachable[i] {
                    continue;
                }
                for a in &blk.actions {
                    if !action_writes(*a).any(|w| w == c) {
                        continue;
                    }
                    if cyclic[i] {
                        if !advancing(a, c) {
                            valid = false;
                        }
                    } else {
                        resets += 1;
                    }
                }
            }
            cursor_valid[c as usize] = valid;
            cursor_resets[c as usize] = resets;
        }
        // A *cursor-progress* block advances a valid cursor it also
        // dereferences (offsets are ISA-bounded to ±1023), so in a
        // completing run every execution lands an in-bounds access and the
        // cursor's monotonicity caps executions per phase by the
        // dereference window. Blocks already counted as stream progress
        // are skipped so each event is charged against exactly one budget.
        let accesses = |a: &Action, c: u8| -> bool {
            match *a {
                Action::Load { base, .. }
                | Action::Store { base, .. }
                | Action::LoadInc { base, .. }
                | Action::StoreInc { base, .. } => base == c,
                _ => false,
            }
        };
        let mut cursor_progress = vec![false; n];
        let mut cursor_used = [false; NUM_REGS];
        for (i, blk) in self.p.blocks.iter().enumerate() {
            if !self.g.reachable[i] || stream_progress[i] {
                continue;
            }
            for c in 1..NUM_REGS as u8 {
                if cursor_valid[c as usize]
                    && blk.actions.iter().any(|a| advancing(a, c))
                    && blk.actions.iter().any(|a| accesses(a, c))
                {
                    cursor_progress[i] = true;
                    cursor_used[c as usize] = true;
                }
            }
        }
        // The non-progress subgraph must be acyclic, else some loop's trip
        // count is unbounded by anything this analysis can see.
        let np = |i: usize| self.g.reachable[i] && !stream_progress[i] && !cursor_progress[i];
        let sub = Cfg {
            succ: (0..n)
                .map(|i| {
                    if np(i) {
                        self.g.succ[i].iter().copied().filter(|&s| np(s as usize)).collect()
                    } else {
                        Vec::new()
                    }
                })
                .collect(),
            reachable: (0..n).map(np).collect(),
            blocks: self.g.blocks,
        };
        if let Some(scc) = cyclic_sccs(&sub).first() {
            self.report.push(
                Severity::Warn,
                Analysis::CycleBound,
                scc[0],
                None,
                format!(
                    "cannot certify a worst-case cycle bound: loop over blocks {:?} \
                     neither consumes stream bits nor provably advances a scratchpad \
                     cursor, so its trip count is unbounded",
                    sub.blocks_of(scc)
                ),
            );
            return None;
        }
        // Execution = progress events separated by acyclic non-progress
        // paths, each path ≤ the subgraph's longest-path cost `lp`.
        let lp = self.longest_path(&sub);
        let cmax = (0..n)
            .filter(|&i| stream_progress[i] || cursor_progress[i])
            .map(|i| self.cost(i))
            .max()
            .unwrap_or(0);
        // Stream events number at most `bits / b_min`, so each bit pays for
        // its share of one, rounded up; one further event in `fixed` keeps
        // the division's rounding out of the argument altogether.
        let has_stream = stream_progress.iter().any(|&s| s);
        let (per_input_bit, rounding) =
            if has_stream { ((lp + cmax).div_ceil(b_min), lp + cmax) } else { (0, 0) };
        // Cursor-progress events per run: (resets + 1) monotone phases,
        // each capped by the dereference window (scratchpad + ±1023
        // offsets, with 2× slack); see DESIGN.md §10 for the u64
        // wraparound argument.
        let cursor_events: u64 = (1..NUM_REGS)
            .filter(|&c| cursor_used[c])
            .map(|c| (cursor_resets[c] + 1).saturating_mul(4 * SCRATCHPAD_BYTES as u64))
            .fold(0u64, u64::saturating_add);
        let fixed =
            lp.saturating_add(rounding).saturating_add(cursor_events.saturating_mul(lp + cmax));
        Some(MaxBound { fixed, per_input_bit })
    }

    /// Longest-path cycle cost over an acyclic sub-CFG, maximized over
    /// every member start node (`cfg.reachable` marks membership).
    fn longest_path(&self, cfg: &Cfg) -> u64 {
        let n = cfg.succ.len();
        let mut order: Vec<usize> = Vec::new();
        let mut state = vec![0u8; n]; // 0 unvisited, 1 in-progress, 2 done
        for root in 0..n {
            if !cfg.reachable[root] || state[root] != 0 {
                continue;
            }
            let mut stack: Vec<(usize, usize)> = vec![(root, 0)];
            state[root] = 1;
            while let Some(&mut (v, ref mut i)) = stack.last_mut() {
                if *i < cfg.succ[v].len() {
                    let w = cfg.succ[v][*i] as usize;
                    *i += 1;
                    if state[w] == 0 {
                        state[w] = 1;
                        stack.push((w, 0));
                    }
                } else {
                    state[v] = 2;
                    order.push(v);
                    stack.pop();
                }
            }
        }
        // Post-order puts successors first: one forward sweep computes
        // "longest path starting at v".
        let mut dist = vec![0u64; n];
        let mut best = 0u64;
        for &v in &order {
            let tail = cfg.succ[v].iter().map(|&s| dist[s as usize]).max().unwrap_or(0);
            dist[v] = self.cost(v) + tail;
            best = best.max(dist[v]);
        }
        best
    }

    // -- analysis 7: predecode translation validation ----------------------

    /// Proves the image's flat predecode table equivalent to word-at-a-time
    /// decoding for *every* code address. `encode` builds the table from
    /// the same words, so a divergence means either the table went stale
    /// (words patched after assembly) or the two decoders disagree — in
    /// both cases the flat table no longer denotes the program and must
    /// not be trusted by the lane hot path (or a future JIT backend).
    fn check_translation_validation(&mut self, placement: &Placement, image: &Image) {
        // Anchor findings to the block placed at the offending address;
        // holes and table padding anchor to the entry.
        let mut owner = vec![self.p.entry; image.words.len()];
        for (i, &addr) in placement.block_addr.iter().enumerate() {
            if let Some(slot) = owner.get_mut(addr as usize) {
                *slot = i as BlockId;
            }
        }
        for addr in 0..image.words.len() as u32 {
            let slow = image.decode(addr);
            let flat = image.predecoded(addr);
            let why = match (&slow, flat) {
                (None, None) => None,
                (Some(_), None) => {
                    Some("the word decodes to a block but the flat table holds a hole".to_string())
                }
                (None, Some(_)) => Some(
                    "the word is a hole (or undecodable) but the flat table holds a block"
                        .to_string(),
                ),
                (Some(d), Some(p)) => {
                    if p.actions() != d.actions() {
                        Some(format!(
                            "action slots diverge ({} flat vs {} decoded)",
                            p.actions().len(),
                            d.actions().len()
                        ))
                    } else if p.transition != d.transition {
                        Some("the transition diverges".to_string())
                    } else {
                        None
                    }
                }
            };
            if let Some(why) = why {
                self.report.push(
                    Severity::Error,
                    Analysis::TranslationValidation,
                    owner[addr as usize],
                    None,
                    format!(
                        "predecode table is not equivalent to decode_word at address \
                         {addr}: {why}"
                    ),
                );
            }
        }
        // The JIT artifact is a further translation of the same table; audit
        // its digest pins and re-derive its dispatch tables, so a tampered
        // code buffer, a table row that no longer says what its block does,
        // or an artifact compiled from different words is an `Error` that
        // gates `Lane::run` exactly like a stale predecode table. A table
        // finding is anchored to the group's dispatching block.
        if let Some(jit) = image.jit() {
            for (site, why) in
                jit.integrity_errors(&image.words, image.predecode_table(), image.entry)
            {
                let block = site.map_or(self.p.entry, |addr| owner[addr as usize]);
                self.report.push(
                    Severity::Error,
                    Analysis::TranslationValidation,
                    block,
                    None,
                    why,
                );
            }
        }
    }

    // -- analysis 5: dispatch tables ---------------------------------------

    /// A group's coverage is a fact about the group and the index range it
    /// is entered with, so it is checked — and reported — once per such
    /// pair, at the first block that dispatches so, however many more do.
    fn check_dispatch_tables(&mut self, img: Option<(&Placement, &Image)>) {
        type Key = (u32, &'static str, Option<(i128, i128)>);
        let mut sites: HashMap<Key, (BlockId, usize)> = HashMap::new();
        for (i, blk) in self.p.blocks.iter().enumerate() {
            if !self.g.reachable[i] {
                continue;
            }
            let key: Key = match blk.transition {
                Transition::DispatchSym { bits, group } => {
                    (group, "dispatch.sym", Some((0, (1i128 << bits) - 1)))
                }
                Transition::DispatchPeek { bits, group } => {
                    (group, "dispatch.peek", Some((0, (1i128 << bits) - 1)))
                }
                Transition::DispatchReg { rs, group } => {
                    // Use the interval fixpoint for the index register at
                    // the dispatch point.
                    let mut regs = self.entry_state[i];
                    for a in &blk.actions {
                        interval_step(&mut regs, *a);
                    }
                    let iv = if rs == 0 { Iv::exact(0) } else { regs[rs as usize] };
                    let dom = if iv.lo >= 0 && iv.hi - iv.lo < 65536 && iv.hi < 1 << 20 {
                        Some((iv.lo, iv.hi))
                    } else {
                        None
                    };
                    (group, "dispatch.reg", dom)
                }
                _ => continue,
            };
            sites.entry(key).or_insert((i as BlockId, 0)).1 += 1;
        }
        let mut checks: Vec<(Key, (BlockId, usize))> = sites.into_iter().collect();
        checks.sort_unstable_by_key(|&(_, (first, _))| first);
        for ((group, label, domain), (site, count)) in checks {
            let more = match count {
                1 => String::new(),
                n => format!(" (and {} more sites)", n - 1),
            };
            let mut finding = |severity, message: String| {
                self.report.push(severity, Analysis::DispatchTable, site, None, message + &more);
            };
            // Out-of-range group ids are rejected by Program::validate.
            let Some(entries) = self.p.groups.get(group as usize) else { continue };
            if entries.is_empty() {
                finding(
                    Severity::Error,
                    format!(
                        "{label} targets group {group}, which has no entries — \
                             every dispatch traps"
                    ),
                );
                continue;
            }
            let Some((lo, hi)) = domain else {
                let kind = Info::UnboundedDispatch { label, more_sites: count > 1 };
                self.info(kind, site, None, || {
                    format!(
                        "{label} index range cannot be bounded statically; \
                         table completeness not checked{more}"
                    )
                });
                continue;
            };
            let mut covered = vec![false; (hi - lo + 1) as usize];
            for &(o, _) in entries {
                let slot =
                    usize::try_from(i128::from(o) - lo).ok().and_then(|i| covered.get_mut(i));
                match slot {
                    Some(slot) => *slot = true,
                    // Offsets no in-range symbol can ever select.
                    None => finding(
                        Severity::Warn,
                        format!(
                            "group {group} slot at offset {o} is outside this {label}'s \
                             index range [{lo}, {hi}] and can never be selected from \
                             here"
                        ),
                    ),
                }
            }
            // Symbols with no entry: they trap (hole) or alias (image check).
            let missing: Vec<i128> =
                (lo..=hi).zip(&covered).filter(|&(_, &c)| !c).map(|(sym, _)| sym).collect();
            if missing.is_empty() {
                continue;
            }
            let list = |syms: &[i128]| {
                let shown: Vec<String> =
                    syms.iter().take(8).map(std::string::ToString::to_string).collect();
                shown.join(", ") + if syms.len() > 8 { ", …" } else { "" }
            };
            finding(
                Severity::Warn,
                format!(
                    "{label} covers {} of {} possible symbols; missing \
                     symbols [{}] trap (or alias) at runtime",
                    covered.len() - missing.len(),
                    covered.len(),
                    list(&missing),
                ),
            );
            // Image-level: a missing symbol that lands on a *non-hole*
            // word silently executes foreign code instead of trapping.
            if let Some((placement, image)) = img {
                let base = placement.group_base[group as usize];
                let aliased: Vec<i128> = (missing.iter().copied())
                    .filter(|&sym| image.decode((i128::from(base) + sym) as u32).is_some())
                    .collect();
                if !aliased.is_empty() {
                    finding(
                        Severity::Warn,
                        format!(
                            "uncovered symbols [{}] alias into foreign code \
                             words at base {base} — they execute unrelated blocks \
                             instead of trapping",
                            list(&aliased),
                        ),
                    );
                }
            }
        }
    }

    // -- image cross-check --------------------------------------------------

    fn cross_check_image(&mut self, placement: &Placement, image: &Image) {
        if image.decode(image.entry).is_none() {
            self.report.push(
                Severity::Error,
                Analysis::DispatchTable,
                self.p.entry,
                None,
                format!("image entry address {} decodes to a hole", image.entry),
            );
        }
        for (i, blk) in self.p.blocks.iter().enumerate() {
            if !self.g.reachable[i] {
                continue;
            }
            let addr = placement.block_addr[i];
            match image.decode(addr) {
                None => {
                    self.report.push(
                        Severity::Error,
                        Analysis::DispatchTable,
                        i as BlockId,
                        None,
                        format!("reachable block encodes to a hole at address {addr}"),
                    );
                }
                Some(dec) => {
                    if dec.actions() != blk.actions {
                        self.report.push(
                            Severity::Error,
                            Analysis::DispatchTable,
                            i as BlockId,
                            None,
                            format!(
                                "encode/decode round-trip mismatch at address {addr}: \
                                 {} action(s) decoded, {} expected",
                                dec.actions().len(),
                                blk.actions.len()
                            ),
                        );
                    }
                    let tag_ok = matches!(
                        (&blk.transition, &dec.transition),
                        (Transition::Halt, DecodedTransition::Halt)
                            | (Transition::Jump(_), DecodedTransition::Jump(_))
                            | (
                                Transition::DispatchSym { .. },
                                DecodedTransition::DispatchSym { .. }
                            )
                            | (
                                Transition::DispatchPeek { .. },
                                DecodedTransition::DispatchPeek { .. }
                            )
                            | (
                                Transition::DispatchReg { .. },
                                DecodedTransition::DispatchReg { .. }
                            )
                            | (Transition::Branch { .. }, DecodedTransition::Branch { .. })
                    );
                    if !tag_ok {
                        self.report.push(
                            Severity::Error,
                            Analysis::DispatchTable,
                            i as BlockId,
                            None,
                            format!(
                                "encode/decode round-trip mismatch at address {addr}: \
                                 transition kind differs"
                            ),
                        );
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::assemble_text_with_map;
    use crate::machine::assemble;

    fn report_for(src: &str) -> VerifyReport {
        let (program, map) = assemble_text_with_map("t", src).unwrap();
        let image = assemble(&program).unwrap();
        let mut r = image.verify_report.clone();
        r.attach_lines(&map);
        r
    }

    #[test]
    fn trivial_program_is_clean() {
        let r = report_for(".entry m\nm:\n    limm r15, 0\n    halt\n");
        assert!(r.is_clean(), "{r}");
        assert_eq!(r.max_acyclic_cycles, Some(2));
    }

    #[test]
    fn interval_ops_are_sound() {
        let a = Iv::range(0, 10);
        let b = Iv::range(-3, 4);
        assert_eq!(a.add(b), Iv::range(-3, 14));
        assert_eq!(a.sub(b), Iv::range(-4, 13));
        assert_eq!(a.and(Iv::TOP), Iv::range(0, 10));
        assert_eq!(a.shl(2), Iv::range(0, 40));
        assert_eq!(b.shr(1).lo, 0);
        assert_eq!(Iv::TOP.add(Iv::exact(1)), Iv::TOP);
        assert_eq!(a.join(b), Iv::range(-3, 10));
        assert_eq!(Iv::range(-5, 20).widen(a), Iv::range(IV_MIN, IV_MAX));
    }

    #[test]
    fn severity_orders_error_above_warn_above_info() {
        assert!(Severity::Error > Severity::Warn);
        assert!(Severity::Warn > Severity::Info);
    }

    #[test]
    fn findings_get_source_lines() {
        // Line 4 reads r5 which nothing writes.
        let src =
            ".entry m\nm:\n    mov r2, r14\n    storeb r5, r2, 0\n    limm r15, 1\n    halt\n";
        let r = report_for(src);
        let f = r
            .findings
            .iter()
            .find(|f| f.analysis == Analysis::RegisterInit)
            .expect("expected a register-init finding");
        assert_eq!(f.severity, Severity::Warn);
        assert_eq!(f.line, Some(4), "{f}");
    }

    #[test]
    fn report_renders_with_counts() {
        let r = report_for(".entry m\nm:\n    limm r15, 0\n    halt\n");
        let text = r.to_string();
        assert!(text.contains("0 error(s)"), "{text}");
        assert!(text.contains("blocks reachable"), "{text}");
    }

    #[test]
    fn trivial_program_gets_tight_cycle_bound() {
        let r = report_for(".entry m\nm:\n    limm r15, 0\n    halt\n");
        let b = r.cycle_bound.expect("acyclic program must certify");
        assert_eq!(b.min, 2);
        assert_eq!(b.max, Some(MaxBound { fixed: 2, per_input_bit: 0 }));
        assert!(b.contains(2, 0));
        assert!(!b.contains(1, 0));
        assert!(!b.contains(3, 1 << 20));
    }

    #[test]
    fn stream_loop_certifies_affine_bound() {
        // One byte in, one byte out per iteration: the loop body is
        // stream-progress, so max is affine in the input bits.
        let src = "\
.entry init
init:
    mov r2, r14
    inrem r3
    beq r3, r0, done
body:
    insymle r1, 1
    storebi r1, r2
    inrem r3
    beq r3, r0, done
back:
    jump body
done:
    sub r15, r2, r14
    halt
";
        let r = report_for(src);
        assert!(r.is_clean(), "{r}");
        let b = r.cycle_bound.expect("must certify");
        let m = b.max.expect("stream loop is boundable");
        assert!(m.per_input_bit > 0, "{m}");
        // 8 bits consumed per iteration of a ≤(fixed + per_bit·8)-cycle
        // body: a real n-byte run must fit.
        assert!(b.contains(b.min, 0));
    }

    #[test]
    fn per_bit_cost_divides_by_the_least_a_progress_block_consumes() {
        // One loop, its only stream-progress block reading `bytes` bytes:
        // lp = 5 (init, done), cmax = 4, so an event costs at most 9 cycles
        // and there are at most bits / (8·bytes) of them.
        let bound = |bytes: u8| {
            let src = format!(
                ".entry init\ninit:\n    mov r2, r14\n    inrem r3\n    beq r3, r0, done\n\
                 body:\n    insymle r1, {bytes}\n    storebi r1, r2\n    inrem r3\n    \
                 beq r3, r0, done\nback:\n    jump body\ndone:\n    sub r15, r2, r14\n    halt\n"
            );
            report_for(&src).cycle_bound.expect("must certify").max.expect("boundable")
        };
        assert_eq!(bound(1), MaxBound { fixed: 5 + 9, per_input_bit: 2 });
        assert_eq!(bound(2), MaxBound { fixed: 5 + 9, per_input_bit: 1 });
        assert_eq!(bound(8), MaxBound { fixed: 5 + 9, per_input_bit: 1 });
    }

    #[test]
    fn a_counted_stream_loop_needs_a_fixed_cursor_step_and_a_fixed_limit() {
        // One trip per whole 64 bits, plus one action in the loop: stepping
        // the cursor back, or the limit on, unties the trip count from `inrem`.
        let counted = |extra: &str| {
            format!(
                ".entry m\nm:\n    mov r2, r14\n    inrem r3\n    shri r9, r3, 6\n    \
                 shli r9, r9, 3\n    add r9, r9, r2\n    beq r9, r2, done\nloop:\n    \
                 insymle r1, 8\n    storedi r1, r2\n{extra}    bltu r2, r9, loop\ndone:\n    \
                 sub r15, r2, r14\n    halt\n"
            )
        };
        let warns = |extra: &str| {
            let r = report_for(&counted(extra));
            r.findings.iter().any(|f| f.analysis == Analysis::StreamBounds)
        };
        assert!(!warns(""));
        assert!(warns("    addi r2, r2, -4\n"));
        assert!(warns("    addi r9, r9, 8\n"));
    }

    #[test]
    fn repeated_infos_fold_into_the_first_with_a_count() {
        // Two discarded writes to r0, lines 3 and 4: one finding, counted
        // twice, anchored at the first.
        let r = report_for(
            ".entry m\nm:\n    mov r0, r14\n    limm r0, 7\n    limm r15, 0\n    halt\n",
        );
        assert_eq!(r.findings.len(), 1, "{r}");
        let f = &r.findings[0];
        assert_eq!((f.severity, f.count, f.line), (Severity::Info, 2, Some(3)), "{f}");
        assert_eq!(r.info_count(), 2, "the header still counts what the analyses found");
        assert!(f.to_string().ends_with("(and 1 more like it)"), "{f}");
        assert!(r.is_clean() && r.gate().is_ok());
    }

    #[test]
    fn unbounded_dispatches_fold_by_kind_not_by_group() {
        // Group g is entered from two blocks, h and k from one each: the
        // finding for g names its other site, so it is another kind than
        // h's, and k's folds into h's.
        let r = report_for(
            ".entry main\n.group g { 0: gd }\n.group h { 0: hd }\n.group k { 0: kd }\n\
             main:\n    insymle r1, 8\n    shli r1, r1, 40\n    beq r1, r0, b\n\
             a:\n    bltu r1, r14, c\na2:\n    dispatch.reg r1, g\nc:\n    dispatch.reg r1, g\n\
             b:\n    bltu r1, r14, d\nb2:\n    dispatch.reg r1, h\nd:\n    dispatch.reg r1, k\n\
             gd:\n    limm r15, 0\n    halt\nhd:\n    limm r15, 0\n    halt\n\
             kd:\n    limm r15, 0\n    halt\n",
        );
        let infos: Vec<(usize, bool)> = r
            .findings
            .iter()
            .filter(|f| f.analysis == Analysis::DispatchTable)
            .map(|f| (f.count, f.message.ends_with("(and 1 more sites)")))
            .collect();
        assert_eq!(infos, [(1, true), (2, false)], "{r}");
        assert!(r.is_clean(), "{r}");
    }

    #[test]
    fn program_without_reachable_halt_has_no_bound() {
        let (program, _) = assemble_text_with_map("g", ".entry m\nm:\n    jump m\n").unwrap();
        let r = verify_program(&program);
        assert_eq!(r.cycle_bound, None);
    }

    #[test]
    fn progressless_loop_cannot_certify_a_max() {
        // The loop spins on a register the stream never feeds: no stream
        // consumption, no cursor dereference — unboundable trip count.
        let src = "\
.entry init
init:
    limm r1, 100
loop:
    addi r1, r1, -1
    bne r1, r0, loop
done:
    limm r15, 0
    halt
";
        let r = report_for(src);
        let b = r.cycle_bound.expect("min is still certifiable");
        assert_eq!(b.max, None);
        let f = r
            .findings
            .iter()
            .find(|f| f.analysis == Analysis::CycleBound)
            .expect("expected a cycle-bound warning");
        assert_eq!(f.severity, Severity::Warn);
        assert!(f.message.contains("cannot certify"), "{f}");
    }

    #[test]
    fn tampered_words_fail_translation_validation() {
        use crate::effclip;
        let (program, _) =
            assemble_text_with_map("t", ".entry m\nm:\n    limm r15, 0\n    halt\n").unwrap();
        let mut image = assemble(&program).unwrap();
        assert!(image.verify_report.error_count() == 0);
        // Patch the entry word after assembly: the flat predecode table is
        // now stale relative to decode_word.
        image.words[image.entry as usize] ^= 1 << 40;
        let placement = effclip::place(&program).unwrap();
        let r = verify_image(&program, &placement, &image);
        let f = r
            .findings
            .iter()
            .find(|f| f.analysis == Analysis::TranslationValidation)
            .expect("expected a translation-validation finding:\n{r}");
        assert_eq!(f.severity, Severity::Error);
        assert!(f.message.contains("not equivalent"), "{f}");
    }

    #[test]
    fn a_groups_coverage_is_reported_once_however_many_blocks_dispatch_into_it() {
        // Codes `0` and `10`: a quarter of the primary group's windows are
        // holes, and every one of the 192 emit handlers dispatches into it.
        let mut lengths = vec![0u8; 256];
        (lengths[65], lengths[66]) = (1, 2);
        let r = crate::progs::huffman::compile(&lengths).unwrap().verify_report;
        let tables: Vec<&Finding> =
            r.findings.iter().filter(|f| f.analysis == Analysis::DispatchTable).collect();
        assert_eq!(tables.len(), 2, "{r}");
        assert!(tables.iter().all(|f| f.severity == Severity::Warn && f.count == 1), "{r}");
        assert!(tables[0].message.contains("covers 192 of 256"), "{r}");
        assert!(tables[1].message.contains("alias into foreign code words"), "{r}");
        // Its first site, and the 192 others: `init` and every handler.
        assert!(tables.iter().all(|f| f.message.ends_with("(and 192 more sites)")), "{r}");
        assert_eq!(r.warn_count(), 2, "{r}");
    }

    #[test]
    fn gate_rejects_error_findings() {
        let (program, _) = assemble_text_with_map("g", ".entry m\nm:\n    jump m\n").unwrap();
        let r = verify_program(&program);
        assert!(r.error_count() > 0);
        let err = r.gate().unwrap_err();
        match err {
            UdpError::Verify { errors, .. } => assert_eq!(errors, r.error_count()),
            other => panic!("expected Verify error, got {other}"),
        }
    }
}
