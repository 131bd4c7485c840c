//! Per-matrix compiled Huffman decoders.
//!
//! The paper generates a Huffman tree per matrix; the UDP consumes it as a
//! *program*: this compiler turns canonical code lengths into a two-level
//! multi-way dispatch structure —
//!
//! * a **primary 256-entry `dispatch.peek 8` group**: every 8-bit window
//!   resolves either to an emit handler (codes ≤ 8 bits, which skip their
//!   code length and store the symbol) or to a secondary dispatch (the
//!   window is a prefix of longer codes);
//! * **secondary `dispatch.peek k` groups** (k ≤ 7, since codes are capped
//!   at 15 bits) per long-code prefix.
//!
//! **The dispatch is the loop.** Every emit handler, primary or secondary,
//! ends in the primary `dispatch.peek` of the next code, and the entry block
//! is `mov r2, r14` and the same dispatch: there is no loop head and no
//! block that only dispatches. A code within the primary width costs `skip,
//! limm, storebi, dispatch` = 4 cycles, a longer one 2 more for its prefix
//! handler.
//!
//! The end of the stream is asked for in one place. `peek` pads an
//! exhausted stream with zeros and the first canonical code is all zeros, so
//! an exhausted stream always dispatches to **window 0** of the primary
//! group. That slot holds `guard` (`inrem r3; jump chk`), and `chk` (`beq r3,
//! r0, done`) falls through to what window 0's handler was — an emit handler,
//! or the prefix handler when the all-zero code is long. A symbol that
//! really starts with eight zero bits pays those 3 cycles; no other does. A
//! stream cut inside a code still traps `StreamUnderflow` in the handler's
//! `skip`, and one cut on a code boundary halts short and is refused by the
//! decoder's length check.
//!
//! EffCLiP then packs the hundreds of handler blocks densely. Because the
//! codec's tables are Kraft-complete (add-one smoothing covers all 256 byte
//! values), every window in both levels is mapped; there are no reachable
//! holes on valid streams. A table that is not complete leaves holes the
//! verifier warns about (once per group), and one with no code at all an
//! empty primary group, which the verifier rejects.
//!
//! Register roles: `r2` output cursor · `r3` remaining-bits · `r4` symbol.

use crate::error::UdpError;
use crate::isa::{Action, Block, Cond, Transition, Width};
use crate::machine::{assemble, Image};
use crate::program::{Program, ProgramBuilder};
use recode_codec::huffman::HuffmanTable;

/// Default primary dispatch width in bits.
const PRIMARY_BITS: u8 = 8;

/// Compiles the decode image with the default 8-bit primary dispatch.
///
/// # Errors
/// Invalid lengths (Kraft violation, >15 bits) or placement failures.
pub fn compile(lengths: &[u8]) -> Result<Image, UdpError> {
    compile_with_width(lengths, PRIMARY_BITS)
}

/// Compiles with an explicit primary dispatch width (4..=12 bits) — the
/// knob behind the dispatch-width ablation: wider dispatch resolves more
/// codes in one hop but costs exponentially more code-memory slots.
///
/// # Errors
/// Invalid width/lengths or placement failures.
pub fn compile_with_width(lengths: &[u8], primary_bits: u8) -> Result<Image, UdpError> {
    assemble(&program(lengths, primary_bits)?)
}

/// The decode program [`compile_with_width`] places and encodes.
///
/// # Errors
/// Invalid width or lengths.
pub fn program(lengths: &[u8], primary_bits: u8) -> Result<Program, UdpError> {
    if !(4..=12).contains(&primary_bits) {
        return Err(UdpError::Table(format!(
            "primary dispatch width {primary_bits} outside 4..=12"
        )));
    }
    let table =
        HuffmanTable::from_lengths(lengths.to_vec()).map_err(|e| UdpError::Table(e.to_string()))?;
    let mut pb = ProgramBuilder::new("udp-huffman-decode");
    // Every handler ends in the next symbol's dispatch; the group is filled
    // in once its members exist.
    let primary = pb.group(vec![]);
    let next = Transition::DispatchPeek { bits: primary_bits, group: primary };

    let done = pb.block(Block {
        actions: vec![Action::Sub { rd: 15, rs: 2, rt: 14 }],
        transition: Transition::Halt,
    });

    // Emit handler: consume `skip` bits, output `sym`, dispatch the next code.
    let emit = |pb: &mut ProgramBuilder, skip: u8, sym: u8| {
        pb.block(Block {
            actions: vec![
                Action::SkipSym { bits: skip },
                Action::LoadImm { rd: 4, imm: sym as i16 },
                Action::StoreInc { rs: 4, base: 2, width: Width::B1 },
            ],
            transition: next,
        })
    };

    // Partition symbols by code length.
    let mut primary_entries: Vec<(u32, u32)> = Vec::new();
    // Long codes grouped by their first `primary_bits` bits.
    let mut by_prefix: std::collections::BTreeMap<u32, Vec<(u8, u8, u16)>> =
        std::collections::BTreeMap::new();
    for s in 0..256usize {
        let l = table.lengths[s];
        if l == 0 {
            continue;
        }
        let c = table.codes[s] as u32;
        if l <= primary_bits {
            // All primary windows whose top `l` bits equal the code.
            let lo = c << (primary_bits - l);
            let hi = lo + (1 << (primary_bits - l));
            for w in lo..hi {
                let h = emit(&mut pb, l, s as u8);
                primary_entries.push((w, h));
            }
        } else {
            let prefix = c >> (l - primary_bits);
            by_prefix.entry(prefix).or_default().push((s as u8, l, table.codes[s]));
        }
    }

    // Secondary groups.
    for (prefix, syms) in by_prefix {
        let max_ext = syms.iter().map(|&(_, l, _)| l - primary_bits).max().expect("non-empty");
        let mut secondary_entries: Vec<(u32, u32)> = Vec::new();
        for &(sym, l, code) in &syms {
            let ext_len = l - primary_bits;
            let ext = (code as u32) & ((1 << ext_len) - 1);
            let lo = ext << (max_ext - ext_len);
            let hi = lo + (1 << (max_ext - ext_len));
            for v in lo..hi {
                let h = emit(&mut pb, ext_len, sym);
                secondary_entries.push((v, h));
            }
        }
        let sec_group = pb.group(secondary_entries);
        // Primary handler for this prefix: consume the prefix bits, then
        // peek-dispatch the extension.
        let h = pb.block(Block {
            actions: vec![Action::SkipSym { bits: primary_bits }],
            transition: Transition::DispatchPeek { bits: max_ext, group: sec_group },
        });
        primary_entries.push((prefix, h));
    }

    // An exhausted stream peeks as zeros, and the first canonical code is
    // all zeros: window 0 is the only slot that can be the end of the
    // stream, so it alone asks, and falls through to its handler otherwise.
    if let Some(slot) = primary_entries.iter_mut().find(|&&mut (w, _)| w == 0) {
        let chk = pb.block(Block {
            actions: vec![],
            transition: Transition::Branch {
                cond: Cond::Eq,
                rs: 3,
                rt: 0,
                taken: done,
                fallthrough: slot.1,
            },
        });
        slot.1 = pb.block(Block {
            actions: vec![Action::InRem { rd: 3 }],
            transition: Transition::Jump(chk),
        });
    }
    pb.set_group(primary, primary_entries);
    let init = pb.block(Block { actions: vec![Action::Mov { rd: 2, rs: 14 }], transition: next });
    pb.entry(init);

    pb.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lane::{Lane, RunConfig};
    use recode_codec::huffman::{decode, encode};

    fn smoothed_table(data: &[u8]) -> HuffmanTable {
        let mut hist = [1u64; 256];
        for &b in data {
            hist[b as usize] += 1;
        }
        HuffmanTable::from_histogram(&hist)
    }

    fn round_trip(data: &[u8]) -> u64 {
        let t = smoothed_table(data);
        let (bytes, bits) = encode(data, &t).unwrap();
        let image = compile(&t.lengths).unwrap();
        let mut lane = Lane::new();
        let r = lane.run(&image, &bytes, bits, RunConfig::default()).unwrap();
        assert_eq!(r.output, data, "UDP huffman decode mismatch");
        // Cross-check against the software decoder too.
        assert_eq!(decode(&bytes, bits, &t, data.len()).unwrap(), data);
        r.cycles
    }

    #[test]
    fn decodes_skewed_data() {
        let data: Vec<u8> = (0..4000).map(|i| if i % 11 == 0 { 200 } else { 3 }).collect();
        round_trip(&data);
    }

    #[test]
    fn decodes_uniform_bytes_with_8bit_codes() {
        let data: Vec<u8> = (0..2048u32).map(|i| (i % 256) as u8).collect();
        round_trip(&data);
    }

    #[test]
    fn decodes_data_requiring_long_codes() {
        // Exponentially skewed histogram drives some codes past 8 bits,
        // exercising the secondary dispatch level.
        let mut data = Vec::new();
        for s in 0..40u8 {
            let reps = 1usize << (s.min(16) as usize / 3);
            data.extend(std::iter::repeat_n(s, reps));
        }
        let t = smoothed_table(&data);
        let max_len = t.lengths.iter().copied().max().unwrap();
        assert!(max_len > 8, "test needs long codes, got max {max_len}");
        round_trip(&data);
    }

    #[test]
    fn empty_stream() {
        round_trip(&[]);
    }

    #[test]
    fn single_byte() {
        round_trip(&[0x42]);
    }

    /// The modeled charge, exactly, on every tier. Per run 7: `init` (`mov`,
    /// dispatch: 2), the final window 0 with nothing left (`guard`, an
    /// `inrem` and a jump: 2; `chk`, the branch: 1) and `done` (2). Per
    /// symbol the emit handler and nothing else (`skip`, `limm`, `storebi`,
    /// dispatch: 4), behind the prefix handler (`skip 8`, dispatch: 2) for a
    /// code longer than the primary width; and `guard` and `chk` (3) again
    /// for every dispatch that lands on window 0 with bits left. Whatever a
    /// tier does to get there faster, this is what it must report.
    #[test]
    fn cycles_and_opclass_are_exact_per_code_length() {
        use crate::lane::{OpClassCycles, RunResult};
        // Three common symbols and a quarter of the stream spread over 150
        // rare ones, which land on 9- and 10-bit codes; against 40 equally
        // likely symbols, none above 6 bits.
        let long_tail: Vec<u8> = (0..4096usize)
            .map(|i| if i % 4 == 0 { 100 + (i / 4 % 150) as u8 } else { (i % 3) as u8 })
            .collect();
        let flat: Vec<u8> = (0..4096).map(|i| ((i * 7) % 40) as u8).collect();
        // And one symbol fifteen times in sixteen: a 1-bit all-zero code,
        // whose runs dispatch through window 0 most of the time.
        let runs: Vec<u8> =
            (0..4096).map(|i| if i % 16 == 0 { 1 + (i / 16 % 4) as u8 } else { 0 }).collect();
        for (data, has_long, zero_runs) in
            [(long_tail, true, false), (flat, false, false), (runs, false, true)]
        {
            let t = smoothed_table(&data);
            let long =
                data.iter().filter(|&&s| t.lengths[s as usize] > PRIMARY_BITS).count() as u64;
            let short = data.len() as u64 - long;
            if has_long {
                assert!(long * 5 >= data.len() as u64, "{long} long codes: under 20 %");
            } else {
                assert_eq!(long, 0);
            }
            let (bytes, bits) = encode(&data, &t).unwrap();
            // Replay the windows: the eight bits a symbol's dispatch peeked.
            let bit = |i: usize| if i < bits { bytes[i / 8] >> (7 - i % 8) & 1 } else { 0 };
            let window = |at: usize| (at..at + 8).fold(0u8, |w, i| w << 1 | bit(i));
            let starts = data.iter().scan(0usize, |at, &s| {
                let here = *at;
                *at += usize::from(t.lengths[s as usize]);
                Some(here)
            });
            let zeros = starts.filter(|&at| window(at) == 0).count() as u64;
            if zero_runs {
                assert!(zeros > 1000, "{zeros} dispatches through window 0");
            } else {
                assert_eq!(zeros, u64::from(has_long), "dispatches through window 0");
            }
            let want = OpClassCycles {
                dispatch: 4 + short + 2 * long + 2 * zeros,
                alu: 2 + short + long,
                mem: short + long,
                stream: 1 + short + 2 * long + zeros,
            };
            assert_eq!(want.total(), 7 + 4 * short + 6 * long + 3 * zeros);

            let image = compile(&t.lengths).unwrap();
            let cfg = RunConfig::default();
            let mut out = Vec::new();
            let interp = Lane::new().run_into_interp(&image, &bytes, bits, cfg, &mut out).unwrap();
            let tiers: [(&str, RunResult); 3] = [
                ("run", Lane::new().run(&image, &bytes, bits, cfg).unwrap()),
                (
                    "interpreter",
                    RunResult {
                        cycles: interp.cycles,
                        dispatches: interp.dispatches,
                        actions: interp.actions,
                        opclass: interp.opclass,
                        output: out,
                    },
                ),
                ("reference", Lane::new().run_reference(&image, &bytes, bits, cfg).unwrap()),
            ];
            for (tier, r) in tiers {
                assert_eq!(r.output, data, "{tier}");
                assert_eq!(r.cycles, want.total(), "{tier}: cycles");
                assert_eq!(r.opclass, want, "{tier}: op-class attribution");
                assert_eq!((r.dispatches, r.actions), (want.dispatch, r.cycles - want.dispatch));
            }
        }
    }

    #[test]
    fn alternate_dispatch_widths_decode_identically() {
        let data: Vec<u8> = (0..3000).map(|i| ((i * 13) % 97) as u8).collect();
        let t = smoothed_table(&data);
        let (bytes, bits) = encode(&data, &t).unwrap();
        for width in [4u8, 6, 10, 12] {
            let image = compile_with_width(&t.lengths, width).unwrap();
            let mut lane = Lane::new();
            let r = lane.run(&image, &bytes, bits, RunConfig::default()).unwrap();
            assert_eq!(r.output, data, "width {width}");
        }
        assert!(compile_with_width(&t.lengths, 3).is_err());
        assert!(compile_with_width(&t.lengths, 13).is_err());
    }

    #[test]
    fn wider_dispatch_costs_code_memory() {
        let data: Vec<u8> = (0..3000).map(|i| ((i * 7) % 61) as u8).collect();
        let t = smoothed_table(&data);
        let narrow = compile_with_width(&t.lengths, 6).unwrap();
        let wide = compile_with_width(&t.lengths, 12).unwrap();
        assert!(
            wide.code_bytes() > narrow.code_bytes(),
            "wide {} vs narrow {}",
            wide.code_bytes(),
            narrow.code_bytes()
        );
    }

    #[test]
    fn rejects_invalid_lengths() {
        let mut bad = vec![0u8; 256];
        bad[0] = 16;
        assert!(compile(&bad).is_err());
        let mut overfull = vec![0u8; 256];
        overfull[0] = 1;
        overfull[1] = 1;
        overfull[2] = 1;
        assert!(compile(&overfull).is_err());
    }
}
