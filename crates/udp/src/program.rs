//! Symbolic UDP programs and the builder API.
//!
//! A [`Program`] is the pre-placement form: blocks refer to each other by
//! [`BlockId`] and to dispatch groups by [`GroupId`]. The EffCLiP placer
//! (`crate::effclip`) assigns concrete code addresses; the machine encoder
//! (`crate::machine`) then produces the binary image the lane executes.
//!
//! Placement-facing validity rules (enforced by [`Program::validate`]):
//!
//! * a block may appear in at most one dispatch-group slot, and at most once;
//! * a group member must not end in a `Branch` and must not be any branch's
//!   fall-through target (its address is already pinned to `base + offset`;
//!   a fall-through constraint would over-determine it);
//! * every block is the fall-through target of at most one branch, and
//!   fall-through edges are acyclic (they form chains the placer lays out
//!   contiguously).

use crate::error::UdpError;
use crate::isa::{Block, BlockId, GroupId, Transition};
use std::collections::HashMap;

/// A complete symbolic program.
#[derive(Debug, Clone)]
pub struct Program {
    /// Diagnostic name (shows up in errors and reports).
    pub name: String,
    /// All code blocks, indexed by [`BlockId`].
    pub blocks: Vec<Block>,
    /// Dispatch groups: each a sparse set of `(offset, block)` slots.
    pub groups: Vec<Vec<(u32, BlockId)>>,
    /// Execution starts here.
    pub entry: BlockId,
}

impl Program {
    /// Number of code blocks.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// True if the program has no blocks.
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// Full structural validation (see module docs for the rules).
    ///
    /// # Errors
    /// [`UdpError::Program`] describing the first violated rule.
    pub fn validate(&self) -> Result<(), UdpError> {
        self.validate_str().map_err(UdpError::Program)
    }

    fn validate_str(&self) -> Result<(), String> {
        let n = self.blocks.len() as u32;
        if self.entry >= n {
            return Err(format!("entry block {} out of range ({n} blocks)", self.entry));
        }
        for (i, b) in self.blocks.iter().enumerate() {
            b.validate().map_err(|e| format!("block {i}: {e}"))?;
            match b.transition {
                Transition::Jump(t) if t >= n => {
                    return Err(format!("block {i}: jump target {t} out of range"));
                }
                Transition::Branch { taken, fallthrough, .. }
                    if (taken >= n || fallthrough >= n) =>
                {
                    return Err(format!("block {i}: branch target out of range"));
                }
                Transition::DispatchSym { group, .. }
                | Transition::DispatchPeek { group, .. }
                | Transition::DispatchReg { group, .. }
                    if group as usize >= self.groups.len() =>
                {
                    return Err(format!("block {i}: group {group} out of range"));
                }
                _ => {}
            }
        }

        // Group membership rules.
        let mut member_of: HashMap<BlockId, GroupId> = HashMap::new();
        for (gi, entries) in self.groups.iter().enumerate() {
            let mut seen_offsets: HashMap<u32, BlockId> = HashMap::new();
            for &(off, bid) in entries {
                if bid >= n {
                    return Err(format!("group {gi}: member {bid} out of range"));
                }
                if let Some(prev) = seen_offsets.insert(off, bid) {
                    return Err(format!(
                        "group {gi}: offset {off} assigned to both blocks {prev} and {bid}"
                    ));
                }
                if member_of.insert(bid, gi as GroupId).is_some() {
                    return Err(format!("block {bid} appears in more than one group slot"));
                }
                if matches!(self.blocks[bid as usize].transition, Transition::Branch { .. }) {
                    return Err(format!(
                        "group {gi}: member {bid} ends in a branch (fall-through would \
                         over-constrain its placement)"
                    ));
                }
            }
        }

        // Fall-through chain rules.
        let mut fall_pred: HashMap<BlockId, BlockId> = HashMap::new();
        for (i, b) in self.blocks.iter().enumerate() {
            if let Transition::Branch { fallthrough, .. } = b.transition {
                if let Some(prev) = fall_pred.insert(fallthrough, i as BlockId) {
                    return Err(format!(
                        "block {fallthrough} is the fall-through of both {prev} and {i}"
                    ));
                }
                if member_of.contains_key(&fallthrough) {
                    return Err(format!(
                        "block {fallthrough} is both a group member and a fall-through target"
                    ));
                }
            }
        }
        // Acyclicity: walk each chain; total steps bounded by n.
        for start in self.blocks.iter().enumerate().filter_map(|(i, b)| {
            matches!(b.transition, Transition::Branch { .. }).then_some(i as BlockId)
        }) {
            let mut cur = start;
            let mut steps = 0u32;
            while let Transition::Branch { fallthrough, .. } = self.blocks[cur as usize].transition
            {
                cur = fallthrough;
                steps += 1;
                if steps > n {
                    return Err(format!("fall-through cycle involving block {start}"));
                }
            }
        }
        Ok(())
    }
}

/// Incremental program builder with forward references.
#[derive(Debug)]
pub struct ProgramBuilder {
    name: String,
    blocks: Vec<Option<Block>>,
    groups: Vec<Vec<(u32, BlockId)>>,
    entry: Option<BlockId>,
}

impl ProgramBuilder {
    /// Starts an empty program.
    pub fn new(name: impl Into<String>) -> Self {
        ProgramBuilder { name: name.into(), blocks: Vec::new(), groups: Vec::new(), entry: None }
    }

    /// Reserves a block id for forward references; must be defined later.
    pub fn reserve(&mut self) -> BlockId {
        self.blocks.push(None);
        (self.blocks.len() - 1) as BlockId
    }

    /// Defines a previously reserved block.
    ///
    /// # Panics
    /// If the id is unknown or already defined.
    pub fn define(&mut self, id: BlockId, block: Block) {
        let slot =
            self.blocks.get_mut(id as usize).unwrap_or_else(|| panic!("unknown block id {id}"));
        assert!(slot.is_none(), "block {id} defined twice");
        *slot = Some(block);
    }

    /// Adds a fully formed block, returning its id.
    pub fn block(&mut self, block: Block) -> BlockId {
        self.blocks.push(Some(block));
        (self.blocks.len() - 1) as BlockId
    }

    /// Adds a dispatch group from `(offset, block)` slots.
    pub fn group(&mut self, entries: Vec<(u32, BlockId)>) -> GroupId {
        self.groups.push(entries);
        (self.groups.len() - 1) as GroupId
    }

    /// Replaces the slots of an existing group (used by the assembler,
    /// which reserves group ids before its labels resolve).
    ///
    /// # Panics
    /// If the id is unknown.
    pub fn set_group(&mut self, id: GroupId, entries: Vec<(u32, BlockId)>) {
        let slot =
            self.groups.get_mut(id as usize).unwrap_or_else(|| panic!("unknown group id {id}"));
        *slot = entries;
    }

    /// Sets the entry block.
    pub fn entry(&mut self, id: BlockId) {
        self.entry = Some(id);
    }

    /// Finalizes and validates.
    ///
    /// # Errors
    /// Undefined blocks, missing entry, or any [`Program::validate`] rule.
    pub fn build(self) -> Result<Program, UdpError> {
        let mut blocks = Vec::with_capacity(self.blocks.len());
        for (i, b) in self.blocks.into_iter().enumerate() {
            blocks.push(b.ok_or_else(|| {
                UdpError::Program(format!("block {i} reserved but never defined"))
            })?);
        }
        let program = Program {
            name: self.name,
            blocks,
            groups: self.groups,
            entry: self.entry.ok_or_else(|| UdpError::Program("no entry block set".into()))?,
        };
        program.validate()?;
        Ok(program)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::{Action, Cond};

    fn halt_block() -> Block {
        Block { actions: vec![], transition: Transition::Halt }
    }

    #[test]
    fn builder_happy_path() {
        let mut pb = ProgramBuilder::new("test");
        let done = pb.block(halt_block());
        let start = pb.block(Block {
            actions: vec![Action::LoadImm { rd: 1, imm: 5 }],
            transition: Transition::Jump(done),
        });
        pb.entry(start);
        let p = pb.build().unwrap();
        assert_eq!(p.len(), 2);
        assert_eq!(p.entry, start);
    }

    #[test]
    fn undefined_reserved_block_fails() {
        let mut pb = ProgramBuilder::new("test");
        let _hole = pb.reserve();
        let b = pb.block(halt_block());
        pb.entry(b);
        assert!(pb.build().unwrap_err().to_string().contains("never defined"));
    }

    #[test]
    fn missing_entry_fails() {
        let mut pb = ProgramBuilder::new("test");
        pb.block(halt_block());
        assert!(pb.build().unwrap_err().to_string().contains("entry"));
    }

    #[test]
    fn duplicate_group_membership_rejected() {
        let mut pb = ProgramBuilder::new("test");
        let b = pb.block(halt_block());
        let g = pb.group(vec![(0, b), (1, b)]);
        let start = pb.block(Block {
            actions: vec![],
            transition: Transition::DispatchSym { bits: 1, group: g },
        });
        pb.entry(start);
        assert!(pb.build().unwrap_err().to_string().contains("more than one group slot"));
    }

    #[test]
    fn duplicate_offset_rejected() {
        let mut pb = ProgramBuilder::new("test");
        let a = pb.block(halt_block());
        let b = pb.block(halt_block());
        let g = pb.group(vec![(0, a), (0, b)]);
        let start = pb.block(Block {
            actions: vec![],
            transition: Transition::DispatchSym { bits: 1, group: g },
        });
        pb.entry(start);
        assert!(pb.build().unwrap_err().to_string().contains("offset 0"));
    }

    #[test]
    fn branch_member_of_group_rejected() {
        let mut pb = ProgramBuilder::new("test");
        let done = pb.block(halt_block());
        let fall = pb.block(halt_block());
        let brancher = pb.block(Block {
            actions: vec![],
            transition: Transition::Branch {
                cond: Cond::Eq,
                rs: 0,
                rt: 0,
                taken: done,
                fallthrough: fall,
            },
        });
        let g = pb.group(vec![(0, brancher)]);
        let start = pb.block(Block {
            actions: vec![],
            transition: Transition::DispatchSym { bits: 1, group: g },
        });
        pb.entry(start);
        assert!(pb.build().unwrap_err().to_string().contains("ends in a branch"));
    }

    #[test]
    fn shared_fallthrough_rejected() {
        let mut pb = ProgramBuilder::new("test");
        let done = pb.block(halt_block());
        let shared = pb.block(halt_block());
        let mk_branch = |pb: &mut ProgramBuilder| {
            pb.block(Block {
                actions: vec![],
                transition: Transition::Branch {
                    cond: Cond::Eq,
                    rs: 0,
                    rt: 0,
                    taken: done,
                    fallthrough: shared,
                },
            })
        };
        let b1 = mk_branch(&mut pb);
        let _b2 = mk_branch(&mut pb);
        pb.entry(b1);
        assert!(pb.build().unwrap_err().to_string().contains("fall-through of both"));
    }

    #[test]
    fn fallthrough_cycle_rejected() {
        let mut pb = ProgramBuilder::new("test");
        let done = pb.block(halt_block());
        let a = pb.reserve();
        let b = pb.reserve();
        pb.define(
            a,
            Block {
                actions: vec![],
                transition: Transition::Branch {
                    cond: Cond::Eq,
                    rs: 0,
                    rt: 0,
                    taken: done,
                    fallthrough: b,
                },
            },
        );
        pb.define(
            b,
            Block {
                actions: vec![],
                transition: Transition::Branch {
                    cond: Cond::Ne,
                    rs: 0,
                    rt: 0,
                    taken: done,
                    fallthrough: a,
                },
            },
        );
        pb.entry(a);
        assert!(pb.build().unwrap_err().to_string().contains("cycle"));
    }

    #[test]
    fn out_of_range_targets_rejected() {
        let p = Program {
            name: "bad".into(),
            blocks: vec![Block { actions: vec![], transition: Transition::Jump(7) }],
            groups: vec![],
            entry: 0,
        };
        assert!(p.validate().unwrap_err().to_string().contains("jump target"));
        let p = Program {
            name: "bad".into(),
            blocks: vec![Block {
                actions: vec![],
                transition: Transition::DispatchSym { bits: 4, group: 3 },
            }],
            groups: vec![],
            entry: 0,
        };
        assert!(p.validate().unwrap_err().to_string().contains("group 3"));
    }
}
