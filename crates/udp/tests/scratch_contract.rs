//! The scratchpad contract on recycled lanes: whatever a run stored —
//! below the output window, across a 1 KiB granule seam, up to a granule's
//! end, into the pad's last 8 bytes (whose end wraps the dirty mask to bit 0)
//! or into the output window — the next run on the same lane reads as zero.
//! The prologue zeroes only the granules the last runs marked, so every
//! probe here sits where a mark that missed a byte would show.
//!
//! Every run goes through all three tiers on the same three lanes
//! (`common::differential_on`), under the JIT and under `RECODE_NO_JIT=1`.

mod common;

use common::{differential, differential_on};
use recode_udp::isa::{Action, Block, Transition, Width, SCRATCHPAD_BYTES};
use recode_udp::lane::{Lane, LaneError, RunConfig, OUT_BASE};
use recode_udp::machine::{assemble, Image};
use recode_udp::program::ProgramBuilder;

/// Where the writers store 8 bytes and the reader loads them.
const PROBES: [u32; 6] = [100, 1020, 2040, 40_000, OUT_BASE + 1000, SCRATCHPAD_BYTES as u32 - 8];

/// A straight-line program of `actions`, four to a block, then halt.
fn straight_line(name: &str, actions: &[Action]) -> Image {
    let mut pb = ProgramBuilder::new(name);
    let mut next = None;
    for chunk in actions.chunks(4).rev() {
        let transition = next.map_or(Transition::Halt, Transition::Jump);
        next = Some(pb.block(Block { actions: chunk.to_vec(), transition }));
    }
    pb.entry(next.expect("at least one action"));
    let image = assemble(&pb.build().unwrap()).unwrap();
    assert_eq!(image.verify_report.error_count(), 0, "{name}:\n{}", image.verify_report);
    image
}

/// `rd = addr` (an address past the 15-bit immediate is a multiple of 8).
fn address(rd: u8, addr: u32) -> Vec<Action> {
    if addr < 1 << 14 {
        vec![Action::LoadImm { rd, imm: addr as i16 }]
    } else {
        assert_eq!(addr % 8, 0);
        vec![Action::LoadImm { rd, imm: (addr / 8) as i16 }, Action::ShlI { rd, rs: rd, amount: 3 }]
    }
}

/// Eight `0xFF` bytes at each of `addrs`, through `Store` or, with `inc`,
/// `StoreInc`.
fn store_ones(addrs: &[u32], inc: bool) -> Vec<Action> {
    let mut actions = vec![Action::LoadImm { rd: 2, imm: -1 }];
    for &addr in addrs {
        actions.extend(address(1, addr));
        actions.push(if inc {
            Action::StoreInc { rs: 2, base: 1, width: Width::B8 }
        } else {
            Action::Store { rs: 2, base: 1, offset: 0, width: Width::B8 }
        });
    }
    actions
}

/// Loads the 8 bytes at every probe, then emits them, in probe order.
fn load_probes() -> Vec<Action> {
    let mut actions = Vec::new();
    for (reg, &addr) in (1..).zip(&PROBES) {
        actions.extend(address(13, addr));
        actions.push(Action::Load { rd: reg, base: 13, offset: 0, width: Width::B8 });
    }
    for (reg, offset) in (1..).zip((0..).step_by(8)).take(PROBES.len()) {
        actions.push(Action::Store { rs: reg, base: 14, offset, width: Width::B8 });
    }
    actions.push(Action::LoadImm { rd: 15, imm: 8 * PROBES.len() as i16 });
    actions
}

/// Stores ones at `addrs` and outputs nothing.
fn writer(addrs: &[u32], inc: bool) -> Image {
    let mut actions = store_ones(addrs, inc);
    actions.push(Action::LoadImm { rd: 15, imm: 0 });
    straight_line("writer", &actions)
}

/// Outputs the bytes at every probe.
fn reader() -> Image {
    straight_line("reader", &load_probes())
}

#[test]
fn a_run_reads_back_what_it_stored_at_every_probe() {
    // The reader is not vacuous: within one run it sees the stores.
    let mut actions = store_ones(&PROBES, false);
    actions.extend(load_probes());
    let image = straight_line("write-then-read", &actions);
    let r = differential(&image, &[], 0, RunConfig::default(), "write-then-read");
    assert_eq!(r.unwrap().output, vec![0xFF; 8 * PROBES.len()]);
}

#[test]
fn the_next_program_on_a_recycled_lane_reads_zeros_wherever_the_last_one_stored() {
    let reader = reader();
    let zeros = vec![0; 8 * PROBES.len()];
    // One set of lanes for every writer: each reader run follows a writer
    // and a reader on the same lane.
    let mut lanes = [Lane::new(), Lane::new(), Lane::new()];
    let cfg = RunConfig::default();
    for inc in [false, true] {
        let every = std::iter::once(PROBES.to_vec());
        for addrs in PROBES.iter().map(|&addr| vec![addr]).chain(every) {
            let context = format!("stores at {addrs:?} (inc {inc})");
            differential_on(&mut lanes, &writer(&addrs, inc), &[], 0, cfg, &context).unwrap();
            let read = differential_on(&mut lanes, &reader, &[], 0, cfg, &context).unwrap();
            assert_eq!(read.output, zeros, "{context}: stale bytes survived the prologue");
        }
    }
}

#[test]
fn the_prologue_clears_each_marked_run_of_granules_and_the_8_bytes_below() {
    let cfg = RunConfig::default();
    // (stores, bytes the next prologue zeroes): one granule and the 8 bytes
    // below it; the pad's last 8 bytes with granule 0 (both mark bit 0);
    // two adjacent granules as one run.
    let cases: [(&[u32], u64); 5] = [
        (&[1020], 8 + 1024),
        (&[2040], 8 + 1024),
        (&[100], 1024 + 8),
        (&[SCRATCHPAD_BYTES as u32 - 8], 1024 + 8),
        (&[3000, 4000], 8 + 2 * 1024),
    ];
    for (addrs, want) in cases {
        let mut lane = Lane::new();
        let image = writer(addrs, false);
        lane.run(&image, &[], 0, cfg).unwrap();
        assert_eq!(lane.prologue_clear_bytes(), 0, "a fresh lane has nothing to clear");
        lane.run(&image, &[], 0, cfg).unwrap();
        assert_eq!(lane.prologue_clear_bytes(), want, "stores at {addrs:?}");
    }
}

#[test]
fn a_run_that_bails_after_storing_keeps_its_granules_marked() {
    // Stores at 5,000 (granule 4), then reads a byte of an empty stream.
    let mut actions = store_ones(&[5000], false);
    actions.push(Action::InSym { rd: 3, bits: 8 });
    actions.push(Action::LoadImm { rd: 15, imm: 0 });
    let trapping = straight_line("store-then-trap", &actions);
    let cfg = RunConfig::default();
    let underflow = LaneError::StreamUnderflow { wanted: 8, available: 0 };

    // On one lane: the compiled run stores, marks granule 4 and bails; the
    // interpreter's rerun starts with a prologue that must zero what the
    // compiled code stored, so it clears granule 4 only if the compiled
    // run's mark survived the bail.
    let mut lane = Lane::new();
    assert_eq!(lane.run(&trapping, &[], 0, cfg).unwrap_err(), underflow);
    let jit = recode_udp::jit::enabled();
    assert_eq!(lane.jit_bails(), u64::from(jit));
    assert_eq!(lane.prologue_clear_bytes(), if jit { 8 + 1024 } else { 0 });

    // And on all three tiers, the next program reads zeros there.
    let mut lanes = [Lane::new(), Lane::new(), Lane::new()];
    let trap = differential_on(&mut lanes, &trapping, &[], 0, cfg, "store-then-trap");
    assert_eq!(trap.unwrap_err(), underflow);
    let probe = straight_line(
        "read 5000",
        &[
            Action::LoadImm { rd: 1, imm: 5000 },
            Action::Load { rd: 2, base: 1, offset: 0, width: Width::B8 },
            Action::Store { rs: 2, base: 14, offset: 0, width: Width::B8 },
            Action::LoadImm { rd: 15, imm: 8 },
        ],
    );
    let read = differential_on(&mut lanes, &probe, &[], 0, cfg, "read after a bail").unwrap();
    assert_eq!(read.output, [0; 8]);
}
