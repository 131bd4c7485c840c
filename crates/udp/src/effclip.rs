//! EffCLiP — Efficient Coupled Linear Packing.
//!
//! Multi-way dispatch computes the next code address as `base + symbol`, so
//! every member of a dispatch group must sit at a fixed offset from a common
//! base, and every branch's fall-through must sit at `branch + 1`. EffCLiP
//! (Fang, Lehane, Chien — UChicago TR-2015-05) resolves these *coupled*
//! placement constraints into one dense linear code memory, so the dispatch
//! "hash" stays a plain integer addition and memory utilization stays high.
//!
//! This implementation mirrors the published algorithm's shape:
//!
//! 1. Build placement units — dispatch groups (sparse offset patterns) and
//!    fall-through chains (contiguous runs).
//! 2. Place units by first-fit linear probing, largest/most-constrained
//!    first, into a free bitmap.
//! 3. Fill the remaining holes with unconstrained singleton blocks.
//!
//! The result reports memory utilization, which the ablation benches track
//! (the paper's "dense memory utilization" claim).

use crate::error::UdpError;
use crate::isa::{BlockId, Transition};
use crate::program::Program;

/// Placement result: concrete code addresses for every block and group base.
#[derive(Debug, Clone)]
pub struct Placement {
    /// Code address per block.
    pub block_addr: Vec<u32>,
    /// Base address per dispatch group.
    pub group_base: Vec<u32>,
    /// Size of the code memory (highest used address + 1).
    pub code_len: usize,
    /// Blocks placed / code_len — the packing density EffCLiP maximizes.
    pub utilization: f64,
}

/// Places `program` into linear code memory.
///
/// # Errors
/// [`UdpError::Program`] if the program violates the placement rules
/// ([`Program::validate`] catches these earlier; this is a defensive check).
pub fn place(program: &Program) -> Result<Placement, UdpError> {
    program.validate()?;
    let n = program.blocks.len();
    let mut addr: Vec<Option<u32>> = vec![None; n];
    // Free map grows on demand; `true` = occupied.
    let mut used: Vec<bool> = Vec::new();

    // ---- 1. Build chains (fall-through runs). ----
    // chain_next[b] = fall-through successor of b, if b branches.
    let mut is_fall_target = vec![false; n];
    for b in &program.blocks {
        if let Transition::Branch { fallthrough, .. } = b.transition {
            is_fall_target[fallthrough as usize] = true;
        }
    }
    // A chain starts at a branching block that is not itself a fall target,
    // or at a fall target chain continuation — we enumerate maximal chains.
    let mut in_chain = vec![false; n];
    let mut chains: Vec<Vec<BlockId>> = Vec::new();
    for (start, fall_target) in is_fall_target.iter().enumerate() {
        let starts_chain =
            matches!(program.blocks[start].transition, Transition::Branch { .. }) && !fall_target;
        if !starts_chain {
            continue;
        }
        let mut chain = vec![start as BlockId];
        let mut cur = start;
        while let Transition::Branch { fallthrough, .. } = program.blocks[cur].transition {
            chain.push(fallthrough);
            cur = fallthrough as usize;
        }
        for &b in &chain {
            in_chain[b as usize] = true;
        }
        chains.push(chain);
    }

    // ---- 2. Place groups, most-constrained (largest span) first. ----
    let mut group_order: Vec<usize> = (0..program.groups.len()).collect();
    group_order.sort_by_key(|&g| {
        let entries = &program.groups[g];
        let span = entries.iter().map(|&(o, _)| o).max().unwrap_or(0);
        std::cmp::Reverse((entries.len() as u64) << 32 | span as u64)
    });
    let mut group_base = vec![0u32; program.groups.len()];
    for g in group_order {
        let entries = &program.groups[g];
        if entries.is_empty() {
            group_base[g] = 0;
            continue;
        }
        let mut base = 0u32;
        'probe: loop {
            for &(off, _) in entries {
                let a = base as usize + off as usize;
                if *used_at(&mut used, a) {
                    base += 1;
                    continue 'probe;
                }
            }
            break;
        }
        group_base[g] = base;
        for &(off, bid) in entries {
            let a = base + off;
            *used_at(&mut used, a as usize) = true;
            addr[bid as usize] = Some(a);
        }
    }

    // ---- 3. Place chains (need contiguous runs), longest first. ----
    chains.sort_by_key(|c| std::cmp::Reverse(c.len()));
    for chain in &chains {
        let len = chain.len();
        let mut base = 0usize;
        'probe2: loop {
            for k in 0..len {
                if *used_at(&mut used, base + k) {
                    base += k + 1;
                    continue 'probe2;
                }
            }
            break;
        }
        for (k, &bid) in chain.iter().enumerate() {
            let a = (base + k) as u32;
            *used_at(&mut used, a as usize) = true;
            addr[bid as usize] = Some(a);
        }
    }

    // ---- 4. Singletons fill holes first-fit. ----
    let mut cursor = 0usize;
    for (bid, slot) in addr.iter_mut().enumerate() {
        if slot.is_some() {
            continue;
        }
        debug_assert!(!in_chain[bid]);
        while *used_at(&mut used, cursor) {
            cursor += 1;
        }
        used[cursor] = true;
        *slot = Some(cursor as u32);
    }

    let block_addr: Vec<u32> = addr.into_iter().map(|a| a.expect("all blocks placed")).collect();
    let code_len = used.iter().rposition(|&u| u).map_or(0, |p| p + 1);
    let utilization = if code_len == 0 { 1.0 } else { n as f64 / code_len as f64 };
    Ok(Placement { block_addr, group_base, code_len, utilization })
}

/// Grows the bitmap on demand and returns a mutable slot.
fn used_at(used: &mut Vec<bool>, idx: usize) -> &mut bool {
    if idx >= used.len() {
        used.resize(idx + 1, false);
    }
    &mut used[idx]
}

/// Verifies that a placement satisfies every coupling constraint — used by
/// tests and by the machine encoder as a pre-encoding assertion.
///
/// # Errors
/// [`UdpError::Placement`] naming the first violated constraint.
pub fn verify(program: &Program, p: &Placement) -> Result<(), UdpError> {
    verify_str(program, p).map_err(UdpError::Placement)
}

fn verify_str(program: &Program, p: &Placement) -> Result<(), String> {
    let n = program.blocks.len();
    if p.block_addr.len() != n {
        return Err("placement size mismatch".into());
    }
    // Uniqueness.
    let mut seen = std::collections::HashMap::new();
    for (b, &a) in p.block_addr.iter().enumerate() {
        if let Some(prev) = seen.insert(a, b) {
            return Err(format!("blocks {prev} and {b} share address {a}"));
        }
    }
    // Group coupling.
    for (g, entries) in program.groups.iter().enumerate() {
        for &(off, bid) in entries {
            let want = p.group_base[g] + off;
            if p.block_addr[bid as usize] != want {
                return Err(format!(
                    "group {g} member {bid}: at {} but base+offset = {want}",
                    p.block_addr[bid as usize]
                ));
            }
        }
    }
    // Fall-through coupling.
    for (b, blk) in program.blocks.iter().enumerate() {
        if let Transition::Branch { fallthrough, .. } = blk.transition {
            if p.block_addr[fallthrough as usize] != p.block_addr[b] + 1 {
                return Err(format!(
                    "branch {b} at {} but fall-through {fallthrough} at {}",
                    p.block_addr[b], p.block_addr[fallthrough as usize]
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::{Action, Block, Cond, Transition};
    use crate::program::ProgramBuilder;

    fn halt() -> Block {
        Block { actions: vec![], transition: Transition::Halt }
    }

    #[test]
    fn dense_group_places_contiguously_with_full_utilization() {
        let mut pb = ProgramBuilder::new("dense");
        let members: Vec<_> = (0..16).map(|_| pb.block(halt())).collect();
        let g = pb.group(members.iter().enumerate().map(|(i, &b)| (i as u32, b)).collect());
        let start = pb.block(Block {
            actions: vec![Action::InSym { rd: 1, bits: 4 }],
            transition: Transition::DispatchSym { bits: 4, group: g },
        });
        pb.entry(start);
        let p = pb.build().unwrap();
        let placement = place(&p).unwrap();
        verify(&p, &placement).unwrap();
        assert_eq!(placement.code_len, 17);
        assert!((placement.utilization - 1.0).abs() < 1e-12);
    }

    #[test]
    fn sparse_groups_interleave() {
        // Two groups with complementary offset patterns can share space.
        let mut pb = ProgramBuilder::new("interleave");
        let a: Vec<_> = (0..4).map(|_| pb.block(halt())).collect();
        let b: Vec<_> = (0..4).map(|_| pb.block(halt())).collect();
        // Group A occupies even offsets, group B also even offsets — placed
        // at odd base they interleave perfectly.
        let ga = pb.group(a.iter().enumerate().map(|(i, &x)| (2 * i as u32, x)).collect());
        let gb = pb.group(b.iter().enumerate().map(|(i, &x)| (2 * i as u32, x)).collect());
        let start = pb.block(Block {
            actions: vec![],
            transition: Transition::DispatchSym { bits: 3, group: ga },
        });
        let start2 = pb.block(Block {
            actions: vec![],
            transition: Transition::DispatchSym { bits: 3, group: gb },
        });
        // Keep start2 reachable for realism.
        let _ = start2;
        pb.entry(start);
        let p = pb.build().unwrap();
        let placement = place(&p).unwrap();
        verify(&p, &placement).unwrap();
        // 10 blocks; perfect interleave would be 10 slots; allow tiny slack.
        assert!(placement.utilization > 0.8, "utilization {}", placement.utilization);
    }

    #[test]
    fn chains_are_contiguous() {
        let mut pb = ProgramBuilder::new("chain");
        let done = pb.block(halt());
        let c = pb.reserve();
        let b = pb.reserve();
        let a = pb.reserve();
        pb.define(c, halt());
        pb.define(
            b,
            Block {
                actions: vec![],
                transition: Transition::Branch {
                    cond: Cond::Ne,
                    rs: 1,
                    rt: 0,
                    taken: done,
                    fallthrough: c,
                },
            },
        );
        pb.define(
            a,
            Block {
                actions: vec![],
                transition: Transition::Branch {
                    cond: Cond::Eq,
                    rs: 1,
                    rt: 0,
                    taken: done,
                    fallthrough: b,
                },
            },
        );
        pb.entry(a);
        let p = pb.build().unwrap();
        let placement = place(&p).unwrap();
        verify(&p, &placement).unwrap();
        let (aa, ab, ac) = (
            placement.block_addr[a as usize],
            placement.block_addr[b as usize],
            placement.block_addr[c as usize],
        );
        assert_eq!(ab, aa + 1);
        assert_eq!(ac, ab + 1);
    }

    #[test]
    fn verify_catches_violations() {
        let mut pb = ProgramBuilder::new("v");
        let m = pb.block(halt());
        let g = pb.group(vec![(3, m)]);
        let start = pb.block(Block {
            actions: vec![],
            transition: Transition::DispatchSym { bits: 2, group: g },
        });
        pb.entry(start);
        let p = pb.build().unwrap();
        let mut placement = place(&p).unwrap();
        verify(&p, &placement).unwrap();
        placement.block_addr[m as usize] += 1;
        assert!(verify(&p, &placement).is_err());
    }

    #[test]
    fn empty_group_is_fine() {
        let mut pb = ProgramBuilder::new("empty-group");
        let g = pb.group(vec![]);
        let start = pb.block(Block {
            actions: vec![],
            transition: Transition::DispatchSym { bits: 1, group: g },
        });
        pb.entry(start);
        let p = pb.build().unwrap();
        let placement = place(&p).unwrap();
        verify(&p, &placement).unwrap();
    }

    #[test]
    fn big_random_ish_program_places_validly() {
        // 8 groups of 32 sparse offsets + 50 chains + 100 singletons.
        let mut pb = ProgramBuilder::new("big");
        let mut group_ids = Vec::new();
        for g in 0..8u32 {
            let members: Vec<_> = (0..32u32).map(|i| (i * (g % 3 + 1), pb.block(halt()))).collect();
            group_ids.push(pb.group(members));
        }
        let done = pb.block(halt());
        for k in 0..50u32 {
            let tail = pb.block(halt());
            let _head = pb.block(Block {
                actions: vec![],
                transition: Transition::Branch {
                    cond: if k % 2 == 0 { Cond::Eq } else { Cond::Ltu },
                    rs: (k % 15 + 1) as u8,
                    rt: 0,
                    taken: done,
                    fallthrough: tail,
                },
            });
        }
        for _ in 0..100 {
            pb.block(halt());
        }
        let start = pb.block(Block {
            actions: vec![],
            transition: Transition::DispatchSym { bits: 8, group: group_ids[0] },
        });
        pb.entry(start);
        let p = pb.build().unwrap();
        let placement = place(&p).unwrap();
        verify(&p, &placement).unwrap();
        assert!(placement.utilization > 0.5, "utilization {}", placement.utilization);
    }
}
