//! Textual UDP assembly.
//!
//! The UDP's value proposition is that recoding transformations are
//! *software*; this module provides the human-writable format. Example — a
//! run-length decoder (pairs of `count, byte`):
//!
//! ```text
//! ; rle.udp — expand (count, byte) pairs
//! .entry init
//! init:
//!     mov r2, r14          ; output cursor
//!     jump head
//! head:
//!     inrem r3
//!     beq r3, r0, done
//!     insymle r4, 1        ; count
//!     insymle r5, 1        ; byte value
//! emit:
//!     beq r4, r0, head
//!     storeb r5, r2, 0
//!     addi r2, r2, 1
//!     addi r4, r4, -1
//!     jump emit
//! done:
//!     sub r15, r2, r14
//!     halt
//! ```
//!
//! Grammar (one statement per line; `;` starts a comment):
//!
//! * `.entry LABEL` — entry point (required once).
//! * `LABEL:` — block label. Falling off the end of a labeled run into the
//!   next label inserts an implicit `jump`.
//! * actions — a mnemonic of [`OPS`](crate::isa::OPS) followed by that
//!   row's operands, each checked against the row's range as it is parsed:
//!   `limm rd, imm` · `mov rd, rs` · `add|sub|and|or|xor rd, rs, rt`
//!   · `addi rd, rs, imm` · `shli|shri rd, rs, amt` ·
//!   `loadb|loadh|loadw|loadd rd, rbase, off` ·
//!   `storeb|storeh|storew|stored rs, rbase, off` ·
//!   `loadbi|loadhi|loadwi|loaddi rd, rbase` ·
//!   `storebi|storewi|storedi rs, rbase` (post-increment: access at
//!   `rbase`, then `rbase += width`; there is no `storehi`) ·
//!   `insym rd, bits` · `insymle rd, bytes` · `peek rd, bits` · `skip bits` ·
//!   `skipreg rs` · `inrem rd`
//! * terminators: `jump LABEL` · `halt` ·
//!   `beq|bne|bltu|bgeu|blts|bges rs, rt, LABEL` (fall-through = next line) ·
//!   `dispatch.sym BITS, GROUP` · `dispatch.peek BITS, GROUP` ·
//!   `dispatch.reg rs, GROUP`
//! * `.group NAME { OFFSET: LABEL ... }` — dispatch group (offsets decimal).
//!
//! Blocks longer than four actions are split automatically with `jump`
//! continuations, so straight-line code of any length assembles.

use crate::isa::{Action, Block, BlockId, Cond, Op, Transition, CONDS, MAX_OPERANDS, NUM_REGS};
use crate::program::{Program, ProgramBuilder};
use std::collections::HashMap;

/// Assembly error with a 1-based line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AsmError {
    /// Offending line (0 = file-level).
    pub line: usize,
    /// Description.
    pub msg: String,
}

impl std::fmt::Display for AsmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for AsmError {}

fn err(line: usize, msg: impl Into<String>) -> AsmError {
    AsmError { line, msg: msg.into() }
}

/// Source-line information for one emitted block.
///
/// Line 0 means "synthesized by the assembler" (auto-split continuation
/// chunks, implicit fall-through jumps, anonymous branch fall-through
/// blocks).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BlockLines {
    /// 1-based line of the label that opens this block (0 = anonymous).
    pub label_line: usize,
    /// 1-based source line of each action slot (0 = synthesized).
    pub action_lines: Vec<usize>,
    /// 1-based line of the terminator statement (0 = synthesized jump).
    pub transition_line: usize,
}

impl BlockLines {
    /// Smallest/largest non-zero source line covered by this block, if any.
    pub fn span(&self) -> Option<(usize, usize)> {
        let lines = std::iter::once(self.label_line)
            .chain(self.action_lines.iter().copied())
            .chain(std::iter::once(self.transition_line))
            .filter(|&l| l != 0);
        let (mut lo, mut hi) = (usize::MAX, 0);
        for l in lines {
            lo = lo.min(l);
            hi = hi.max(l);
        }
        (hi != 0).then_some((lo, hi))
    }
}

/// Block-id → source-line map produced alongside a [`Program`] by
/// [`assemble_text_with_map`]. Lets downstream diagnostics (the static
/// verifier in particular) point findings back at `.udp` source lines.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SourceMap {
    /// Indexed by `BlockId`.
    pub blocks: Vec<BlockLines>,
}

impl SourceMap {
    /// Source span `(first, last)` of `block`, if it maps to source at all.
    pub fn span(&self, block: BlockId) -> Option<(usize, usize)> {
        self.blocks.get(block as usize).and_then(BlockLines::span)
    }

    /// Best line for a finding at `block` / action `slot`: the slot's own
    /// line when it has one, else the start of the block's span.
    pub fn line_for(&self, block: BlockId, slot: Option<usize>) -> Option<usize> {
        let bl = self.blocks.get(block as usize)?;
        if let Some(s) = slot {
            if let Some(&l) = bl.action_lines.get(s) {
                if l != 0 {
                    return Some(l);
                }
            }
        }
        bl.span().map(|(lo, _)| lo)
    }
}

/// A group definition awaiting label resolution: `(name, entries, line)`.
type PendingGroup = (String, Vec<(u32, String)>, usize);

/// A pending statement in source order.
#[derive(Debug, Clone)]
enum Stmt {
    Label(String),
    Action(Action),
    Jump(String),
    Halt,
    Branch { cond: Cond, rs: u8, rt: u8, taken: String },
    DispatchSym { bits: u8, group: String },
    DispatchPeek { bits: u8, group: String },
    DispatchReg { rs: u8, group: String },
}

/// Assembles source text into a validated [`Program`].
///
/// # Errors
/// [`AsmError`] naming the offending line.
pub fn assemble_text(name: &str, src: &str) -> Result<Program, AsmError> {
    assemble_text_with_map(name, src).map(|(p, _)| p)
}

/// Like [`assemble_text`], but also returns the [`SourceMap`] tying each
/// emitted block (and action slot) back to 1-based source lines.
///
/// # Errors
/// [`AsmError`] naming the offending line.
pub fn assemble_text_with_map(name: &str, src: &str) -> Result<(Program, SourceMap), AsmError> {
    let mut stmts: Vec<(usize, Stmt)> = Vec::new();
    let mut groups: Vec<PendingGroup> = Vec::new();
    let mut entry: Option<(String, usize)> = None;

    let mut lines = src.lines().enumerate().peekable();
    while let Some((idx, raw)) = lines.next() {
        let lineno = idx + 1;
        let line = strip_comment(raw).trim().to_string();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix(".entry") {
            let label = rest.trim();
            if label.is_empty() {
                return Err(err(lineno, ".entry needs a label"));
            }
            if entry.is_some() {
                return Err(err(lineno, "duplicate .entry"));
            }
            entry = Some((label.to_string(), lineno));
            continue;
        }
        if let Some(rest) = line.strip_prefix(".group") {
            let rest = rest.trim();
            let (gname, tail) =
                rest.split_once('{').ok_or_else(|| err(lineno, ".group NAME { ... } expected"))?;
            let gname = gname.trim().to_string();
            if gname.is_empty() {
                return Err(err(lineno, ".group needs a name"));
            }
            let mut entries = Vec::new();
            let mut closed = tail.trim() == "}";
            let mut body_line = lineno;
            if !closed && !tail.trim().is_empty() {
                parse_group_entries(tail, lineno, &mut entries, &mut closed)?;
            }
            while !closed {
                let (gidx, graw) =
                    lines.next().ok_or_else(|| err(body_line, "unterminated .group"))?;
                body_line = gidx + 1;
                let gline = strip_comment(graw).trim().to_string();
                if gline.is_empty() {
                    continue;
                }
                parse_group_entries(&gline, body_line, &mut entries, &mut closed)?;
            }
            groups.push((gname, entries, lineno));
            continue;
        }
        if let Some(label) = line.strip_suffix(':') {
            let label = label.trim();
            if label.is_empty() || label.contains(char::is_whitespace) {
                return Err(err(lineno, "bad label"));
            }
            stmts.push((lineno, Stmt::Label(label.to_string())));
            continue;
        }
        stmts.push((lineno, parse_instruction(&line, lineno)?));
    }

    lower(name, &stmts, &groups, entry)
}

fn parse_group_entries(
    text: &str,
    lineno: usize,
    entries: &mut Vec<(u32, String)>,
    closed: &mut bool,
) -> Result<(), AsmError> {
    // Accepts `OFFSET:LABEL`, or `OFFSET:` followed by `LABEL` as separate
    // tokens (i.e. whitespace after the colon is fine).
    let mut pending_offset: Option<u32> = None;
    for part in text.split_whitespace() {
        if part == "}" {
            *closed = true;
            continue;
        }
        if *closed {
            return Err(err(lineno, "content after closing }"));
        }
        if let Some(off) = pending_offset.take() {
            entries.push((off, part.to_string()));
            continue;
        }
        let (off, label) = part
            .split_once(':')
            .ok_or_else(|| err(lineno, format!("group entry `{part}` needs OFFSET:LABEL")))?;
        let off: u32 = off.parse().map_err(|_| err(lineno, format!("bad group offset `{off}`")))?;
        if label.is_empty() {
            pending_offset = Some(off);
        } else {
            entries.push((off, label.to_string()));
        }
    }
    if pending_offset.is_some() {
        return Err(err(lineno, "group offset without a label"));
    }
    Ok(())
}

fn strip_comment(line: &str) -> &str {
    match line.find(';') {
        Some(p) => &line[..p],
        None => line,
    }
}

fn parse_reg(tok: &str, line: usize) -> Result<i32, AsmError> {
    let t = tok.trim();
    t.strip_prefix('r')
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| err(line, format!("expected register, got `{t}`")))
}

fn parse_int<T: std::str::FromStr>(tok: &str, line: usize) -> Result<T, AsmError> {
    tok.trim().parse::<T>().map_err(|_| err(line, format!("bad integer `{}`", tok.trim())))
}

/// A register operand of a terminator, which no opcode row describes.
fn parse_transition_reg(tok: &str, line: usize) -> Result<u8, AsmError> {
    let n = parse_reg(tok, line)?;
    if (0..NUM_REGS as i32).contains(&n) {
        Ok(n as u8)
    } else {
        Err(err(line, format!("register r{n} out of range")))
    }
}

/// Parses the operands of an action statement against its opcode row: one
/// token per operand, a register where the row has one, each value inside
/// the row's range.
fn parse_action(op: &Op, args: &[&str], lineno: usize) -> Result<Action, AsmError> {
    let mut values = [0; MAX_OPERANDS];
    for ((v, o), tok) in values.iter_mut().zip(op.operands).zip(args) {
        *v = if o.role.is_reg() { parse_reg(tok, lineno)? } else { parse_int(tok, lineno)? };
    }
    op.check(&values).map_err(|msg| err(lineno, msg))?;
    Ok(Action::compose(op, values))
}

fn parse_instruction(line: &str, lineno: usize) -> Result<Stmt, AsmError> {
    let (mnemonic, rest) = match line.split_once(char::is_whitespace) {
        Some((m, r)) => (m, r.trim()),
        None => (line, ""),
    };
    let args: Vec<&str> =
        if rest.is_empty() { vec![] } else { rest.split(',').map(str::trim).collect() };
    let need = |n: usize| -> Result<(), AsmError> {
        if args.len() == n {
            Ok(())
        } else {
            Err(err(lineno, format!("`{mnemonic}` expects {n} operands, got {}", args.len())))
        }
    };
    let m = mnemonic.to_ascii_lowercase();
    let stmt = match m.as_str() {
        "halt" => {
            need(0)?;
            Stmt::Halt
        }
        "jump" => {
            need(1)?;
            Stmt::Jump(args[0].to_string())
        }
        "dispatch.sym" | "dispatch.peek" => {
            need(2)?;
            let bits: u8 = parse_int(args[0], lineno)?;
            let group = args[1].to_string();
            if m == "dispatch.sym" {
                Stmt::DispatchSym { bits, group }
            } else {
                Stmt::DispatchPeek { bits, group }
            }
        }
        "dispatch.reg" => {
            need(2)?;
            let rs = parse_transition_reg(args[0], lineno)?;
            Stmt::DispatchReg { rs, group: args[1].to_string() }
        }
        other => {
            if let Some(&(cond, _)) = CONDS.iter().find(|(_, name)| *name == other) {
                need(3)?;
                Stmt::Branch {
                    cond,
                    rs: parse_transition_reg(args[0], lineno)?,
                    rt: parse_transition_reg(args[1], lineno)?,
                    taken: args[2].to_string(),
                }
            } else if let Some(op) = Op::by_mnemonic(other) {
                need(op.operands.len())?;
                Stmt::Action(parse_action(op, &args, lineno)?)
            } else {
                return Err(err(lineno, format!("unknown mnemonic `{other}`")));
            }
        }
    };
    Ok(stmt)
}

/// Closes the open block: splits the action run into ≤4-action chunks
/// chained by jumps, placing the first chunk into the reserved label
/// block when one is pending. Records per-chunk source lines.
fn finish(
    pb: &mut ProgramBuilder,
    current: &mut Option<(BlockId, usize)>,
    actions: &mut Vec<(Action, usize)>,
    transition: Transition,
    transition_line: usize,
    lines_out: &mut Vec<(BlockId, BlockLines)>,
) {
    let mut chunks: Vec<Vec<(Action, usize)>> = Vec::new();
    let mut run = std::mem::take(actions);
    while run.len() > 4 {
        let rest = run.split_off(4);
        chunks.push(run);
        run = rest;
    }
    chunks.push(run);
    // Build tail-first so each chunk knows its successor's id.
    let mut succ: Option<BlockId> = None;
    for (idx, chunk) in chunks.into_iter().enumerate().rev() {
        let (t, t_line) = match succ {
            // Synthesized continuation jump: no source line of its own.
            Some(next) => (Transition::Jump(next), 0),
            None => (transition, transition_line),
        };
        let (acts, act_lines): (Vec<Action>, Vec<usize>) = chunk.into_iter().unzip();
        let block = Block { actions: acts, transition: t };
        let (id, label_line) = if idx == 0 {
            match current.take() {
                Some((reserved, ll)) => {
                    pb.define(reserved, block);
                    (reserved, ll)
                }
                None => (pb.block(block), 0),
            }
        } else {
            (pb.block(block), 0)
        };
        lines_out.push((
            id,
            BlockLines { label_line, action_lines: act_lines, transition_line: t_line },
        ));
        succ = Some(id);
    }
}

/// Lowers the statement list to a [`Program`]: groups statements into
/// blocks, splits over-long action runs, and resolves labels.
fn lower(
    name: &str,
    stmts: &[(usize, Stmt)],
    group_defs: &[PendingGroup],
    entry: Option<(String, usize)>,
) -> Result<(Program, SourceMap), AsmError> {
    let mut pb = ProgramBuilder::new(name);
    let mut label_block: HashMap<String, BlockId> = HashMap::new();
    let mut group_ids: HashMap<String, u32> = HashMap::new();

    // Pre-reserve a block per label and an id per group so references
    // resolve in one pass.
    for (line, s) in stmts {
        if let Stmt::Label(l) = s {
            if label_block.contains_key(l) {
                return Err(err(*line, format!("duplicate label `{l}`")));
            }
            label_block.insert(l.clone(), pb.reserve());
        }
    }
    // Group ids follow after; entries resolved at the end.
    for (gname, _, gline) in group_defs {
        if group_ids.contains_key(gname) {
            return Err(err(*gline, format!("duplicate group `{gname}`")));
        }
        let placeholder = pb.group(vec![]);
        group_ids.insert(gname.clone(), placeholder);
    }

    let resolve_label = |label_block: &HashMap<String, BlockId>, l: &str, line: usize| {
        label_block.get(l).copied().ok_or_else(|| err(line, format!("unknown label `{l}`")))
    };
    let resolve_group = |group_ids: &HashMap<String, u32>, g: &str, line: usize| {
        group_ids.get(g).copied().ok_or_else(|| err(line, format!("unknown group `{g}`")))
    };

    // Walk statements, accumulating actions into the current block.
    // `current` is the reserved id the accumulated actions will fill,
    // paired with the line of the label that opened it (0 = anonymous).
    let mut current: Option<(BlockId, usize)> = None;
    let mut actions: Vec<(Action, usize)> = Vec::new();
    let mut lines_out: Vec<(BlockId, BlockLines)> = Vec::new();

    for (line, stmt) in stmts {
        let transition = match stmt {
            Stmt::Label(l) => {
                if current.is_some() || !actions.is_empty() {
                    // Implicit fall into the label: close with a jump.
                    let fall = Transition::Jump(label_block[l]);
                    finish(&mut pb, &mut current, &mut actions, fall, 0, &mut lines_out);
                }
                current = Some((label_block[l], *line));
                continue;
            }
            Stmt::Action(a) => {
                if current.is_none() && actions.is_empty() {
                    return Err(err(*line, "instruction before any label"));
                }
                actions.push((*a, *line));
                continue;
            }
            Stmt::Halt => Transition::Halt,
            Stmt::Jump(l) => Transition::Jump(resolve_label(&label_block, l, *line)?),
            Stmt::DispatchSym { bits, group } => Transition::DispatchSym {
                bits: *bits,
                group: resolve_group(&group_ids, group, *line)?,
            },
            Stmt::DispatchPeek { bits, group } => Transition::DispatchPeek {
                bits: *bits,
                group: resolve_group(&group_ids, group, *line)?,
            },
            Stmt::DispatchReg { rs, group } => {
                Transition::DispatchReg { rs: *rs, group: resolve_group(&group_ids, group, *line)? }
            }
            Stmt::Branch { cond, rs, rt, taken } => Transition::Branch {
                cond: *cond,
                rs: *rs,
                rt: *rt,
                taken: resolve_label(&label_block, taken, *line)?,
                // A fresh anonymous block starting at the next statement.
                fallthrough: pb.reserve(),
            },
        };
        finish(&mut pb, &mut current, &mut actions, transition, *line, &mut lines_out);
        if let Transition::Branch { fallthrough, .. } = transition {
            current = Some((fallthrough, 0));
        }
    }
    if let Some((_, ll)) = current {
        let at = if ll != 0 { ll } else { stmts.last().map_or(0, |(l, _)| *l) };
        return Err(err(at, "program falls off the end (missing halt/jump?)"));
    }
    if !actions.is_empty() {
        let at = actions.last().map_or(0, |(_, l)| *l);
        return Err(err(at, "program falls off the end (missing halt/jump?)"));
    }

    // Fill groups.
    for (gname, entries, gline) in group_defs {
        let gid = group_ids[gname];
        let mut resolved = Vec::with_capacity(entries.len());
        for (off, l) in entries {
            resolved.push((*off, resolve_label(&label_block, l, *gline)?));
        }
        pb.set_group(gid, resolved);
    }

    let (entry_label, entry_line) = entry.ok_or_else(|| err(0, "missing .entry"))?;
    let e = resolve_label(&label_block, &entry_label, entry_line)?;
    pb.entry(e);
    let program = pb.build().map_err(|m| err(0, m.to_string()))?;
    let mut blocks = vec![BlockLines::default(); program.blocks.len()];
    for (id, bl) in lines_out {
        blocks[id as usize] = bl;
    }
    Ok((program, SourceMap { blocks }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::{Operand, OPS};
    use crate::lane::{Lane, RunConfig};
    use crate::machine::assemble;

    const RLE: &str = "\n\
        ; rle decoder\n\
        .entry init\n\
        init:\n\
            mov r2, r14\n\
            jump head\n\
        head:\n\
            inrem r3\n\
            beq r3, r0, done\n\
            insymle r4, 1\n\
            insymle r5, 1\n\
        emit:\n\
            beq r4, r0, head\n\
            storeb r5, r2, 0\n\
            addi r2, r2, 1\n\
            addi r4, r4, -1\n\
            jump emit\n\
        done:\n\
            sub r15, r2, r14\n\
            halt\n";

    #[test]
    fn rle_decoder_assembles_and_runs() {
        let program = assemble_text("rle", RLE).unwrap();
        let image = assemble(&program).unwrap();
        let mut lane = Lane::new();
        let input = [3u8, b'a', 0, b'x', 2, b'b'];
        let r = lane.run(&image, &input, input.len() * 8, RunConfig::default()).unwrap();
        assert_eq!(r.output, b"aaabb");
    }

    #[test]
    fn dispatch_group_syntax() {
        let src = "\n\
            .entry main\n\
            main:\n\
                dispatch.sym 2, tbl\n\
            .group tbl { 0: h0 1: h1 2: h2 3: h3 }\n\
            h0:\n\
                limm r15, 0\n\
                halt\n\
            h1:\n\
                limm r15, 0\n\
                halt\n\
            h2:\n\
                limm r15, 0\n\
                halt\n\
            h3:\n\
                limm r1, 1\n\
                storeb r1, r14, 0\n\
                limm r15, 1\n\
                halt\n";
        let program = assemble_text("disp", src).unwrap();
        let image = assemble(&program).unwrap();
        let mut lane = Lane::new();
        // Symbol 3 (top 2 bits = 0b11) routes to h3, which emits one byte.
        let r = lane.run(&image, &[0b1100_0000], 8, RunConfig::default()).unwrap();
        assert_eq!(r.output, vec![1]);
        // Symbol 0 routes to h0: no output.
        let r = lane.run(&image, &[0b0000_0000], 8, RunConfig::default()).unwrap();
        assert!(r.output.is_empty());
    }

    #[test]
    fn long_action_runs_are_split() {
        let src = "\n\
            .entry main\n\
            main:\n\
                limm r1, 1\n\
                limm r2, 2\n\
                limm r3, 3\n\
                limm r4, 4\n\
                limm r5, 5\n\
                limm r6, 6\n\
                add r7, r5, r6\n\
                storeb r7, r14, 0\n\
                limm r15, 1\n\
                halt\n";
        let program = assemble_text("long", src).unwrap();
        assert!(program.blocks.iter().all(|b| b.actions.len() <= 4));
        let image = assemble(&program).unwrap();
        let mut lane = Lane::new();
        let r = lane.run(&image, &[], 0, RunConfig::default()).unwrap();
        assert_eq!(r.output, vec![11]);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let e = assemble_text("bad", ".entry m\nm:\n    bogus r1\n").unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.msg.contains("bogus"));
        let e = assemble_text("bad", ".entry m\nm:\n    limm r99, 0\n    halt\n").unwrap_err();
        assert!(e.msg.contains("register"));
        let e = assemble_text("bad", ".entry m\nm:\n    jump nowhere\n").unwrap_err();
        assert!(e.msg.contains("nowhere"));
    }

    #[test]
    fn every_opcode_row_assembles_under_its_own_mnemonic() {
        // One statement per row, operands at the row's bounds; `loadhi` is
        // a row, `storehi` is not.
        for bound in [|o: &Operand| o.lo, |o: &Operand| o.hi] {
            let want: Vec<Action> =
                OPS.iter().map(|op| Action::compose(op, op.values(bound))).collect();
            let body: Vec<String> = want.iter().map(|a| format!("    {a}\n")).collect();
            let src = format!(".entry m\nm:\n{}    halt\n", body.concat());
            assert!(src.contains("\n    loadhi r"), "{src}");
            let program = assemble_text("rows", &src).unwrap();
            // Follow the auto-split chain from the entry.
            let (mut got, mut at) = (Vec::new(), program.entry);
            loop {
                let block = &program.blocks[at as usize];
                got.extend_from_slice(&block.actions);
                match block.transition {
                    Transition::Jump(next) => at = next,
                    _ => break,
                }
            }
            assert_eq!(got, want);
        }
        let e = assemble_text("bad", ".entry m\nm:\n    storehi r3, r2\n    halt\n").unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.msg.contains("unknown mnemonic `storehi`"), "{e}");
    }

    #[test]
    fn missing_entry_or_trailing_code_rejected() {
        assert!(assemble_text("bad", "m:\n    halt\n").unwrap_err().msg.contains(".entry"));
        assert!(assemble_text("bad", ".entry m\nm:\n    limm r1, 0\n")
            .unwrap_err()
            .msg
            .contains("falls off"));
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let src = "; header\n\n.entry m ; entry\nm: ; label\n    halt ; stop\n";
        assert!(assemble_text("c", src).is_ok());
    }
}
