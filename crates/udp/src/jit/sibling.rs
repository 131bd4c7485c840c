//! Parametric-sibling analysis: which dispatch groups the lowering serves
//! from a data table instead of an indirect jump.
//!
//! A multi-way dispatch lowered to `jmp [table + window*8]` costs the host a
//! branch misprediction whenever the window is unpredictable — exactly the
//! cost the UDP's dispatch unit exists to avoid. But the targets of such a
//! group are often **parametric siblings**: blocks with the same actions,
//! the same register operands and the same successor, differing only in
//! immediates (a Huffman image's emit handlers are `skip n; limm r4, sym;
//! storebi r4, r2; dispatch.peek 8, primary` 256 times over). For those the
//! lowering emits the block **once**, as a shared body reading its immediates
//! from a table row indexed by the window: the unpredictable bits become a
//! data dependency instead of a control dependency.
//!
//! Two kinds of sibling class are recognised, from the predecoded blocks
//! alone:
//!
//! * a **leaf** ends in `Halt` or `Jump(t)`, or — a **chained leaf** — in
//!   the `DispatchPeek` of a group that is not pure, which siblings share
//!   like any other successor; its first `SkipSym` (of up to 57 bits) and
//!   its first `LoadImm` may differ between siblings;
//! * a **link** ends in a `DispatchPeek` of its own width into its own
//!   group, where every one of those groups is *pure* — all of its rows are
//!   leaves of one class, and that class is not chained into another group
//!   of one class; its actions are identical.
//!
//! The body of a chained leaf ends in the dispatch of its successor group,
//! and when the leaf is a row of that group — a Huffman image's emit
//! handlers all dispatch into the primary group — the dispatch enters the
//! body it ends: the loop closes inside one shared body, with no block of
//! its own in between.
//!
//! Every sibling of a class charges the same `1 + n` cycles and the same
//! class counts (they have the same actions), so the shared body's
//! accounting is the per-block accounting.
//!
//! A `dispatch.peek b` group whose links are a lone `skip b` is the first
//! level of a two-level code (a Huffman image's primary group): the window
//! behind the link is already in the stream, so both levels can be walked
//! ahead of time. Such a group also gets a **composed** table over a wider
//! window of `W <= 12` bits, each row the leaf row the two hops end in —
//! total skip width, the leaf's immediate, and a bit saying a link was
//! crossed, for which the leaf body charges the link's cycles as well. One
//! row load then serves every code of up to `W` bits. Windows it cannot
//! resolve (a longer code, another shape, a hole) are tagged not covered and
//! take the group's own table, as does a buffer holding fewer than `W` bits.
//!
//! This module only plans; `super::Lower` emits. The plan is a pure function
//! of the predecode table, so `verify_image` re-derives it and compares the
//! published tables row for row.

use super::keeps_rdx;
use crate::isa::Action;
use crate::machine::{DecodedTransition, PredecodedBlock};
use std::collections::{HashMap, HashSet};

/// Widest window a table is built for (4,096 rows, 16 KiB), dispatch or
/// composed.
const MAX_TABLE_BITS: u8 = 12;
/// Dispatch-table rows a plan may hold per code word of the image. Placed
/// groups do not overlap, so their windows add up to about the image; this
/// only keeps garbage words from costing more than that.
const ROWS_PER_WORD: usize = 8;
/// Rows a plan may hold in all, composed tables included: 1 MiB of tables
/// whatever the image says, and every row index fits a link row's field.
const MAX_TABLE_ROWS: usize = 1 << 18;
const _: () = assert!(MAX_TABLE_ROWS <= 1 << (32 - LINK_SHIFT));

/// Most table rows [`Plan::new`] derives from an image of `words` code
/// words: [`ROWS_PER_WORD`] each, plus one full-width composed table so that
/// a small two-level image can have its own, within [`MAX_TABLE_ROWS`].
pub(crate) fn max_table_rows(words: usize) -> usize {
    (ROWS_PER_WORD * words + (1 << MAX_TABLE_BITS)).min(MAX_TABLE_ROWS)
}

// Row layout, one `u32` per window:
//   bits 0..8    stream width: a leaf's `SkipSym` bits, a link's dispatch bits
//   bits 8..10   tag: index into the group's classes, or `TAG_GENERIC`
//   bit  10      leaf, composed tables only: the row crossed a link
//   bits 16..32  leaf: the `LoadImm` immediate
//   bits 10..32  link: first row of the target group's table
// A composed row is a leaf row with tag 0 (its width the link's and the
// leaf's together), or `TAG_GENERIC` for a window the table does not cover.
/// Bit position of the tag.
pub(crate) const TAG_SHIFT: u32 = 8;
/// Tag of a row the table does not serve: the window takes the per-block
/// path (the bail stub, for a hole).
pub(crate) const TAG_GENERIC: u32 = 2;
/// Bit of a composed leaf row that stands for a link and the leaf behind it.
pub(crate) const VIA_SHIFT: u32 = 10;
/// Bit position of a leaf row's immediate.
pub(crate) const IMM_SHIFT: u32 = 16;
/// Bit position of a link row's target table.
pub(crate) const LINK_SHIFT: u32 = 10;

/// A sibling class: the block all its members are, immediates aside.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Shape {
    /// A member with its parametric immediates zeroed (a link's width and
    /// group included).
    pub blk: PredecodedBlock,
    /// Index of the action whose `SkipSym` width comes from the row.
    pub skip_at: Option<usize>,
    /// Index of the action whose `LoadImm` immediate comes from the row.
    pub imm_at: Option<usize>,
    /// For a link: the class every member's target group is pure of.
    pub link: Option<usize>,
    /// For a leaf: a composed table enters it with rows that crossed a link,
    /// so its body charges the link's hop when the row says so.
    pub via: bool,
}

/// What one sibling contributes to its row.
#[derive(Debug, Clone, Copy)]
enum Param {
    Leaf { width: u8, imm: i16 },
    Link { width: u8, base: u32 },
}

/// `(bits, base)` of every pure group → its class.
type Pure = HashMap<(u8, u32), usize>;

/// A table-lowered dispatch group.
#[derive(Debug)]
pub(crate) struct Group {
    pub bits: u8,
    pub base: u32,
    /// Address of the first block that dispatches into the group.
    pub site: u32,
    /// The classes tags 0 and 1 select, most rows first.
    pub classes: Vec<usize>,
    /// Whether any row is [`TAG_GENERIC`].
    pub has_generic: bool,
    /// First row of this group's table, counted from the first table.
    pub start: u32,
    /// `1 << bits` rows.
    pub rows: Vec<u32>,
    /// The wider first-level table a `dispatch.peek` into the group tries
    /// first.
    pub composed: Option<Composed>,
}

/// A composed table: both levels of a two-level group, walked per window.
#[derive(Debug)]
pub(crate) struct Composed {
    /// Window width `W`: the most bits a link and the leaf behind it skip
    /// together, of those that fit [`MAX_TABLE_BITS`].
    pub bits: u8,
    /// The leaf class every covered row enters.
    pub leaf: usize,
    /// First row, counted from the first table; composed tables sit behind
    /// every dispatch table.
    pub start: u32,
    /// `1 << bits` rows.
    pub rows: Vec<u32>,
}

impl Composed {
    /// Walks both levels of `g` on every window as wide as the longest
    /// two-hop skip of at most [`MAX_TABLE_BITS`]; `None` when `g` has no
    /// link or no window could be covered through one. `tables` holds every
    /// group's rows, in table order.
    fn new(g: &Group, classes: &[Shape], tables: &[u32], start: u32) -> Option<Composed> {
        const NOT_COVERED: u32 = TAG_GENERIC << TAG_SHIFT;
        let tag_of = |row: u32| row >> TAG_SHIFT & 3;
        let width_of = |row: u32| row & 0xFF;
        // The link must be a lone `skip b`: the window behind it starts
        // where the group's own ends.
        let b = u32::from(g.bits);
        let (link_tag, leaf) = g.classes.iter().enumerate().find_map(|(tag, &class)| {
            let shape = &classes[class];
            let lone_skip = shape.blk.actions() == [Action::SkipSym { bits: g.bits }];
            Some((tag as u32, shape.link.filter(|_| lone_skip)?))
        })?;
        // Its other class, if any, must be the leaf the links end in: one
        // body then serves every covered row.
        let leaf_tag = g.classes.iter().position(|&class| class == leaf).map(|tag| tag as u32);
        if g.classes.len() > 1 && leaf_tag.is_none() {
            return None;
        }
        // The rows behind a link (its group is pure of `leaf`: every row
        // tag 0).
        let behind = |link: u32| {
            let at = (link >> LINK_SHIFT) as usize;
            &tables[at..at + (1 << width_of(link))]
        };
        let wide = (g.rows.iter().filter(|&&row| tag_of(row) == link_tag))
            .flat_map(|&link| behind(link))
            .map(|&second| b + width_of(second))
            .filter(|&total| total <= u32::from(MAX_TABLE_BITS))
            .max()
            .filter(|&wide| wide > b)?;
        let rows = (0..1u32 << wide)
            .map(|w| {
                let first = g.rows[(w >> (wide - b)) as usize];
                if Some(tag_of(first)) == leaf_tag {
                    return first & !(3 << TAG_SHIFT);
                }
                if tag_of(first) != link_tag {
                    return NOT_COVERED;
                }
                // The `have` window bits behind the first level select the
                // link's row, or — a link wider than that — a run of rows,
                // which must all say the same: a code no longer than the
                // window.
                let (k, have) = (width_of(first), wide - b);
                let below = w & ((1 << have) - 1);
                let run = if k <= have {
                    &behind(first)[(below >> (have - k)) as usize..][..1]
                } else {
                    &behind(first)[(below << (k - have)) as usize..][..1 << (k - have)]
                };
                let total = b + width_of(run[0]);
                if total > wide || run.iter().any(|&second| second != run[0]) {
                    return NOT_COVERED;
                }
                run[0] & !0xFF | total | 1 << VIA_SHIFT
            })
            .collect();
        Some(Composed { bits: wide as u8, leaf, start, rows })
    }
}

/// The lowering plan for one image.
#[derive(Debug)]
pub(crate) struct Plan {
    /// Shared bodies, by class index.
    pub classes: Vec<Shape>,
    /// Table-lowered groups; their tables are laid out in this order.
    pub groups: Vec<Group>,
    /// Per address: a sibling reached only through tables, which gets no
    /// code of its own (its dispatch-table entry is the bail stub).
    pub elided: Vec<bool>,
}

/// The index of `shape` in `classes`, added if it is new.
fn intern(classes: &mut Vec<Shape>, shape: Shape) -> usize {
    classes.iter().position(|s| *s == shape).unwrap_or_else(|| {
        classes.push(shape);
        classes.len() - 1
    })
}

fn dispatch_group(blk: &PredecodedBlock) -> Option<(u8, u32)> {
    match blk.transition {
        DecodedTransition::DispatchSym { bits, base }
        | DecodedTransition::DispatchPeek { bits, base } => Some((bits, base)),
        _ => None,
    }
}

/// The class `blk` would belong to and its row parameters; `None` when it
/// can only be lowered as a block of its own.
fn classify(blk: &PredecodedBlock, pure: &Pure) -> Option<(Shape, Param)> {
    let mut shape = Shape { blk: *blk, skip_at: None, imm_at: None, link: None, via: false };
    match blk.transition {
        DecodedTransition::DispatchPeek { bits, base } if pure.contains_key(&(bits, base)) => {
            shape.link = Some(pure[&(bits, base)]);
            shape.blk.transition = DecodedTransition::DispatchPeek { bits: 0, base: 0 };
            blk.actions()
                .iter()
                .all(|&a| keeps_rdx(a))
                .then_some((shape, Param::Link { width: bits, base }))
        }
        // A leaf; chained, when it ends in the dispatch of a group that is
        // not pure — which stays in the shape, so siblings agree on it.
        DecodedTransition::Halt
        | DecodedTransition::Jump(_)
        | DecodedTransition::DispatchPeek { .. } => {
            let (mut width, mut imm) = (0, 0);
            for (i, a) in shape.blk.actions_mut().iter_mut().enumerate() {
                match a {
                    Action::SkipSym { bits } if shape.skip_at.is_none() && *bits <= 57 => {
                        width = std::mem::take(bits);
                        shape.skip_at = Some(i);
                    }
                    Action::LoadImm { imm: v, .. } if shape.imm_at.is_none() => {
                        imm = std::mem::take(v);
                        shape.imm_at = Some(i);
                    }
                    _ => {}
                }
            }
            // The row rides in RDX until its last use.
            let last = shape.skip_at.max(shape.imm_at).unwrap_or(0);
            blk.actions()[..last]
                .iter()
                .all(|&a| keeps_rdx(a))
                .then_some((shape, Param::Leaf { width, imm }))
        }
        // A branch falls through to its own address + 1, a register dispatch
        // has no window to index a table with, and no program chains
        // consuming dispatches.
        DecodedTransition::Branch { .. }
        | DecodedTransition::DispatchReg { .. }
        | DecodedTransition::DispatchSym { .. } => None,
    }
}

impl Plan {
    /// Plans the table lowering of `predecoded`, entered at `entry`.
    #[allow(clippy::cast_possible_truncation)]
    pub(crate) fn new(predecoded: &[Option<PredecodedBlock>], entry: u32) -> Plan {
        let at = |addr: u32| predecoded.get(addr as usize).and_then(Option::as_ref);

        // Candidate groups, in address order of their first dispatch site.
        let mut seen = HashSet::new();
        let mut peeked = HashSet::new();
        let mut cands: Vec<(u8, u32, u32)> = Vec::new();
        let mut windows = 0usize;
        let cap = (ROWS_PER_WORD * predecoded.len()).min(MAX_TABLE_ROWS);
        for (addr, blk) in predecoded.iter().enumerate() {
            let Some(blk) = blk else { continue };
            let Some((bits, base)) = dispatch_group(blk) else { continue };
            if matches!(blk.transition, DecodedTransition::DispatchPeek { .. }) {
                peeked.insert((bits, base));
            }
            if (1..=MAX_TABLE_BITS).contains(&bits)
                && windows + (1 << bits) <= cap
                && seen.insert((bits, base))
            {
                cands.push((bits, base, addr as u32));
                windows += 1 << bits;
            }
        }

        // Classify every row of every candidate, twice. The first round
        // knows no pure group, so every row it classifies is a leaf, and it
        // names the pure groups: all rows one shape, and that shape not
        // chained into such a group itself (whose rows may yet turn out
        // links). The second round reads a block that dispatches into a pure
        // group as a link.
        let classify_rows = |pure: &Pure| -> Vec<Vec<Option<(Shape, Param)>>> {
            let row = |addr: u32| classify(at(addr)?, pure);
            (cands.iter())
                .map(|&(bits, base, _)| (0..1u32 << bits).map(|w| row(base + w)).collect())
                .collect()
        };
        let uniform: HashMap<(u8, u32), Shape> = (cands.iter().zip(classify_rows(&Pure::new())))
            .filter_map(|(&(bits, base, _), r)| {
                let (leaf, _) = r[0]?;
                r.iter().all(|x| x.is_some_and(|x| x.0 == leaf)).then_some(((bits, base), leaf))
            })
            .collect();
        let mut classes: Vec<Shape> = Vec::new();
        let pure: Pure = (cands.iter())
            .filter_map(|&(bits, base, _)| {
                let leaf = *uniform.get(&(bits, base))?;
                dispatch_group(&leaf.blk)
                    .is_none_or(|chained| !uniform.contains_key(&chained))
                    .then(|| ((bits, base), intern(&mut classes, leaf)))
            })
            .collect();
        let rows = classify_rows(&pure);

        // A group is lowered when at least two of its rows are siblings; its
        // two largest classes of two or more get tags (the earlier window
        // first, of two as large), every other row stays generic.
        let mut groups: Vec<Group> = Vec::new();
        let mut params = Vec::new();
        let mut start = 0u32;
        for (&(bits, base, site), r) in cands.iter().zip(rows) {
            let mut counts: Vec<(Shape, usize)> = Vec::new();
            for &(shape, _) in r.iter().flatten() {
                match counts.iter_mut().find(|c| c.0 == shape) {
                    Some(c) => c.1 += 1,
                    None => counts.push((shape, 1)),
                }
            }
            counts.retain(|c| c.1 >= 2);
            counts.sort_by_key(|c| std::cmp::Reverse(c.1));
            if counts.is_empty() {
                continue;
            }
            let tags = counts.iter().take(2).map(|c| intern(&mut classes, c.0)).collect();
            groups.push(Group {
                bits,
                base,
                site,
                classes: tags,
                has_generic: false,
                start,
                rows: vec![],
                composed: None,
            });
            params.push(r);
            start += 1 << bits;
        }

        let starts: HashMap<(u8, u32), u32> =
            groups.iter().map(|g| ((g.bits, g.base), g.start)).collect();
        // Blocks something other than a table row can reach keep their own
        // code: every window a table leaves generic, the entry, every jump
        // and branch target, and every window of a dispatch without a table.
        let mut direct = vec![false; predecoded.len()];
        let mut tagged = vec![false; predecoded.len()];
        for (g, r) in groups.iter_mut().zip(params) {
            g.rows = r
                .iter()
                .enumerate()
                .map(|(w, x)| {
                    let tagged_row = x.and_then(|(shape, param)| {
                        Some((g.classes.iter().position(|&c| classes[c] == shape)? as u32, param))
                    });
                    let Some((tag, param)) = tagged_row else {
                        g.has_generic = true;
                        if let Some(d) = direct.get_mut(g.base as usize + w) {
                            *d = true;
                        }
                        return TAG_GENERIC << TAG_SHIFT;
                    };
                    tagged[g.base as usize + w] = true;
                    tag << TAG_SHIFT
                        | match param {
                            Param::Leaf { width, imm } => {
                                u32::from(width) | u32::from(imm as u16) << IMM_SHIFT
                            }
                            // Pure groups are always lowered.
                            Param::Link { width, base } => {
                                u32::from(width) | starts[&(width, base)] << LINK_SHIFT
                            }
                        }
                })
                .collect();
        }

        // A composed table in front of every peeked two-level group, while
        // the image's rows last.
        let tables: Vec<u32> = groups.iter().flat_map(|g| g.rows.iter().copied()).collect();
        let mut total = tables.len();
        for g in groups.iter_mut().filter(|g| peeked.contains(&(g.bits, g.base))) {
            let Some(c) = Composed::new(g, &classes, &tables, total as u32) else { continue };
            if total + c.rows.len() <= max_table_rows(predecoded.len()) {
                total += c.rows.len();
                classes[c.leaf].via = true;
                g.composed = Some(c);
            }
        }

        let mut mark = |addr: u32| {
            if let Some(d) = direct.get_mut(addr as usize) {
                *d = true;
            }
        };
        mark(entry);
        for (addr, blk) in predecoded.iter().enumerate() {
            let Some(blk) = blk else { continue };
            match blk.transition {
                DecodedTransition::Jump(t) => mark(t),
                DecodedTransition::Branch { taken, .. } => {
                    mark(taken);
                    mark(addr as u32 + 1);
                }
                DecodedTransition::DispatchSym { bits, base }
                | DecodedTransition::DispatchPeek { bits, base }
                    if !starts.contains_key(&(bits, base)) =>
                {
                    let end = (u64::from(base) + (1u64 << bits)).min(predecoded.len() as u64);
                    (base..end as u32).for_each(&mut mark);
                }
                // A register dispatch can land anywhere; on a sibling that
                // has no code of its own it bails.
                _ => {}
            }
        }
        let elided = tagged.iter().zip(&direct).map(|(&t, &d)| t && !d).collect();
        Plan { classes, groups, elided }
    }

    /// The group a `(bits, base)` dispatch is served by, if it is lowered.
    pub(crate) fn group(&self, bits: u8, base: u32) -> Option<&Group> {
        self.groups.iter().find(|g| (g.bits, g.base) == (bits, base))
    }

    /// The composed tables, in table order.
    pub(crate) fn composed(&self) -> impl Iterator<Item = (&Group, &Composed)> {
        self.groups.iter().filter_map(|g| Some((g, g.composed.as_ref()?)))
    }

    /// Every table in published order — each group's own, then the composed
    /// ones — as `(group, kind, first row, rows)`.
    pub(crate) fn tables(&self) -> impl Iterator<Item = (&Group, &'static str, u32, &[u32])> {
        let dispatch = self.groups.iter().map(|g| (g, "dispatch", g.start, &g.rows[..]));
        dispatch.chain(self.composed().map(|(g, c)| (g, "composed", c.start, &c.rows[..])))
    }

    /// Total bytes of all tables.
    pub(crate) fn table_bytes(&self) -> usize {
        4 * self.tables().map(|(.., rows)| rows.len()).sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::{Block, Transition, Width};
    use crate::lane::{Lane, LaneError, RunConfig};
    use crate::machine::assemble;
    use crate::program::ProgramBuilder;

    fn plan_of(image: &crate::machine::Image) -> Plan {
        let predecoded: Vec<_> =
            (0..image.words.len() as u32).map(|a| image.predecoded(a).copied()).collect();
        Plan::new(&predecoded, image.entry)
    }

    /// `n` emit handlers behind a `dispatch.peek`, built by `handler(i)`.
    fn dispatch_program(bits: u8, handler: impl Fn(u32, u32) -> Option<Block>) -> crate::Program {
        let mut pb = ProgramBuilder::new("siblings");
        let done = pb.block(Block {
            actions: vec![Action::Sub { rd: 15, rs: 2, rt: 14 }],
            transition: Transition::Halt,
        });
        let members: Vec<(u32, u32)> =
            (0..1u32 << bits).filter_map(|w| handler(w, done).map(|b| (w, pb.block(b)))).collect();
        let g = pb.group(members);
        let start = pb.block(Block {
            actions: vec![Action::Mov { rd: 2, rs: 14 }],
            transition: Transition::DispatchPeek { bits, group: g },
        });
        pb.entry(start);
        pb.build().unwrap()
    }

    fn emit(skip: u8, sym: i16, to: u32) -> Block {
        Block {
            actions: vec![
                Action::SkipSym { bits: skip },
                Action::LoadImm { rd: 4, imm: sym },
                Action::StoreInc { rs: 4, base: 2, width: Width::B1 },
            ],
            transition: Transition::Jump(to),
        }
    }

    #[test]
    fn siblings_share_one_class_and_lose_their_blocks() {
        let p = dispatch_program(3, |w, done| Some(emit(1 + w as u8, 100 + w as i16, done)));
        let image = assemble(&p).unwrap();
        let plan = plan_of(&image);
        assert_eq!(plan.groups.len(), 1);
        let g = &plan.groups[0];
        assert_eq!((g.bits, g.classes.len(), g.has_generic), (3, 1, false));
        for (w, row) in g.rows.iter().enumerate() {
            assert_eq!(row & 0xFF, 1 + w as u32, "width");
            assert_eq!(row >> TAG_SHIFT & 3, 0, "tag");
            assert_eq!(row >> IMM_SHIFT, 100 + w as u32, "immediate");
            assert!(plan.elided[g.base as usize + w]);
        }
        let shape = plan.classes[g.classes[0]];
        assert_eq!((shape.skip_at, shape.imm_at, shape.link), (Some(0), Some(1), None));
        assert_eq!(plan.elided.iter().filter(|&&e| e).count(), 8);
    }

    #[test]
    fn near_siblings_stay_generic() {
        // Window 2 writes another register, window 5 has an extra action,
        // window 6 jumps elsewhere, window 7 is a hole.
        let p = dispatch_program(3, |w, done| {
            let mut b = emit(2, w as i16, done);
            match w {
                2 => b.actions[1] = Action::LoadImm { rd: 5, imm: 2 },
                5 => b.actions.push(Action::AddI { rd: 6, rs: 6, imm: 1 }),
                6 => b.transition = Transition::Halt,
                7 => return None,
                _ => {}
            }
            Some(b)
        });
        let image = assemble(&p).unwrap();
        let plan = plan_of(&image);
        let g = &plan.groups[0];
        assert!(g.has_generic);
        let tags: Vec<u32> = g.rows.iter().map(|r| r >> TAG_SHIFT & 3).collect();
        assert_eq!(tags, [0, 0, 2, 0, 0, 2, 2, 2]);
        for w in [2usize, 5, 6] {
            assert!(!plan.elided[g.base as usize + w], "window {w} keeps its block");
        }
    }

    #[test]
    fn a_row_that_would_outlive_rdx_is_not_a_sibling() {
        // The store ahead of the skip clobbers the register the row rides in.
        let p = dispatch_program(2, |w, done| {
            Some(Block {
                actions: vec![
                    Action::StoreInc { rs: 4, base: 2, width: Width::B1 },
                    Action::SkipSym { bits: 1 + w as u8 },
                ],
                transition: Transition::Jump(done),
            })
        });
        let plan = plan_of(&assemble(&p).unwrap());
        assert!(plan.groups.is_empty() && plan.elided.iter().all(|&e| !e));
    }

    #[test]
    fn huffman_images_lower_every_group() {
        // 40 short codes and a long tail: the primary group holds leaves and
        // links, every secondary group is pure.
        let mut hist = [1u64; 256];
        for (s, h) in hist.iter_mut().enumerate().take(40) {
            *h = 1 << (20 - s / 3);
        }
        let lengths = recode_codec::huffman::HuffmanTable::from_histogram(&hist).lengths;
        assert!(lengths.iter().any(|&l| l > 8));
        let image = crate::progs::huffman::compile(&lengths).unwrap();
        let plan = plan_of(&image);
        // Every handler dispatches; the groups they dispatch into are few.
        let groups: HashSet<(u8, u32)> = (0..image.words.len() as u32)
            .filter_map(|a| image.predecoded(a).and_then(dispatch_group))
            .collect();
        assert!(groups.len() > 2, "a primary group and secondary ones");
        assert_eq!(plan.groups.len(), groups.len(), "every group is table-lowered");
        assert_eq!(plan.classes.len(), 2, "one chained-leaf class, one link class");
        let primary = plan.groups.iter().find(|g| g.bits == 8).unwrap();
        assert_eq!((primary.classes.len(), primary.has_generic), (2, true), "window 0 asks");
        let leaf = plan.classes[primary.classes[0]];
        assert_eq!(dispatch_group(&leaf.blk), Some((8, primary.base)), "chained into the group");
        assert_eq!((leaf.link, leaf.via), (None, true));
        assert_eq!(plan.classes[primary.classes[1]].link, Some(primary.classes[0]));
        assert!(primary.composed.is_some());
        for g in plan.groups.iter().filter(|g| g.bits != 8) {
            let pure_of_the_leaf = g.classes == [primary.classes[0]] && !g.has_generic;
            assert!(pure_of_the_leaf, "secondary @{}: {:?}", g.base, g.classes);
        }
        // Only the ends of the run keep code of their own: `init`, `guard` in
        // window 0, `chk` and the handler it falls through to, and `done`.
        let kept: Vec<u32> = (0..image.words.len() as u32)
            .filter(|&a| image.predecoded(a).is_some() && !plan.elided[a as usize])
            .collect();
        let chk = kept.iter().find(|&&a| {
            matches!(image.predecoded(a).unwrap().transition, DecodedTransition::Branch { .. })
        });
        let mut want = vec![image.entry, primary.base, *chk.unwrap(), chk.unwrap() + 1];
        want.extend(kept.iter().find(|&&a| {
            matches!(image.predecoded(a).unwrap().transition, DecodedTransition::Halt)
        }));
        want.sort_unstable();
        assert_eq!(kept, want, "init, guard, chk, window 0's handler, done");
    }

    #[test]
    fn groups_of_one_class_that_chain_into_each_other_are_not_pure() {
        // Three 1-bit groups of two emit handlers each: `a` and `b` chain
        // into each other, `c` into `a`. Each is of one class, and chains
        // into a group that is too: were they pure, their handlers would be
        // links into each other with nothing for a link to land on. None is,
        // and every handler stays a chained leaf with a leaf's row.
        let mut pb = ProgramBuilder::new("chains");
        let [a, b, c] = [(); 3].map(|()| pb.group(vec![]));
        for (group, next) in [(a, b), (b, a), (c, a)] {
            let members = (0..2u32)
                .map(|w| {
                    let mut blk = emit(1, w as i16, 0);
                    blk.transition = Transition::DispatchPeek { bits: 1, group: next };
                    (w, pb.block(blk))
                })
                .collect();
            pb.set_group(group, members);
        }
        let start = pb.block(Block {
            actions: vec![Action::Mov { rd: 2, rs: 14 }],
            transition: Transition::DispatchPeek { bits: 1, group: c },
        });
        pb.entry(start);
        let image = assemble(&pb.build().unwrap()).unwrap();
        let plan = plan_of(&image);
        assert_eq!(plan.groups.len(), 3);
        assert_eq!(plan.classes.len(), 2, "a leaf chained into `a`, one chained into `b`");
        assert!(plan.classes.iter().all(|shape| shape.link.is_none()), "{:?}", plan.classes);
        for g in &plan.groups {
            assert_eq!((g.classes.len(), g.has_generic), (1, false));
            assert!(g.rows.iter().all(|row| row & 0x3FF == 1), "tag 0, one bit: {:x?}", g.rows);
        }
        // Nothing ever asks for the end of the stream: eight symbols, then
        // the ninth `skip` runs dry, on the compiled tier as on the others.
        let cfg = RunConfig { allow_unverified: true, ..RunConfig::default() };
        let trap = Lane::new().run(&image, &[0b0110_1001], 8, cfg).unwrap_err();
        assert_eq!(trap, Lane::new().run_reference(&image, &[0b0110_1001], 8, cfg).unwrap_err());
        assert!(matches!(trap, LaneError::StreamUnderflow { .. }), "{trap:?}");
    }

    #[test]
    fn two_level_groups_compose_while_the_images_rows_last() {
        // Twelve first levels, each `dispatch.peek 2` with two links into the
        // same 1,024 emit handlers: twelve 4,096-row composed tables asked
        // for by ~1,100 code words.
        let mut pb = ProgramBuilder::new("greedy");
        let done = pb.block(Block {
            actions: vec![Action::Sub { rd: 15, rs: 2, rt: 14 }],
            transition: Transition::Halt,
        });
        let behind = (0..1u32 << 10).map(|v| (v, pb.block(emit(10, v as i16, done)))).collect();
        let behind = pb.group(behind);
        let mut entry = done;
        for _ in 0..12 {
            let members = (0..4u32)
                .map(|w| {
                    let b = if w < 2 {
                        emit(2, w as i16, done)
                    } else {
                        Block {
                            actions: vec![Action::SkipSym { bits: 2 }],
                            transition: Transition::DispatchPeek { bits: 10, group: behind },
                        }
                    };
                    (w, pb.block(b))
                })
                .collect();
            let group = pb.group(members);
            entry = pb.block(Block {
                actions: vec![],
                transition: Transition::DispatchPeek { bits: 2, group },
            });
        }
        pb.entry(entry);
        let image = assemble(&pb.build().unwrap()).unwrap();
        let plan = plan_of(&image);
        assert_eq!(plan.groups.len(), 13, "every group is table-lowered");
        let composed: Vec<_> = plan.composed().map(|(_, c)| (c.bits, c.start)).collect();
        let narrow = (1 << 10) + 12 * 4;
        assert_eq!(composed, [(12, narrow), (12, narrow + 4096)], "two fit, in table order");
        let words = image.words.len();
        assert!(narrow as usize + 3 * 4096 > max_table_rows(words), "{words} words");
        assert!(plan.table_bytes() <= 4 * max_table_rows(words));
        // The leaf body charges a link's hop for the rows that crossed one.
        let (g, c) = plan.composed().next().unwrap();
        assert!(plan.classes[c.leaf].via && plan.classes[c.leaf].link.is_none());
        assert_eq!(c.rows[0b01 << 10], g.rows[1], "a leaf row is the group's own, tag 0");
        assert_eq!(c.rows[0b10 << 10 | 5] & 0xFFFF, 0xC | 1 << VIA_SHIFT, "both widths, via");
        assert_eq!(c.rows[0b10 << 10 | 5] >> IMM_SHIFT, 5, "the immediate behind the link");
    }

    #[test]
    fn no_image_gets_more_than_the_stated_rows() {
        // 40,000 code words of one emit handler, and 70 blocks that each
        // dispatch 12 bits wide into them: 8 rows per word would be 320,000.
        let p = dispatch_program(1, |w, done| Some(emit(1, w as i16, done)));
        let image = assemble(&p).unwrap();
        let at = |addr| *image.predecoded(addr).unwrap();
        let dispatcher = at(image.entry);
        let Some((_, leaf)) = dispatch_group(&dispatcher) else { panic!("{dispatcher:?}") };
        let mut predecoded = vec![Some(at(leaf)); 40_000];
        for (i, slot) in predecoded.iter_mut().enumerate().take(70) {
            let mut blk = dispatcher;
            blk.transition = DecodedTransition::DispatchPeek { bits: 12, base: 1000 + i as u32 };
            *slot = Some(blk);
        }
        let plan = Plan::new(&predecoded, 0);
        assert_eq!(max_table_rows(predecoded.len()), MAX_TABLE_ROWS);
        assert_eq!(plan.groups.len(), MAX_TABLE_ROWS >> 12, "the 65th group keeps its jump");
        assert_eq!(plan.table_bytes(), 4 * MAX_TABLE_ROWS);
    }
}
