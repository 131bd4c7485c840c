//! Determinism contract of the transport-fault injector: an injector
//! seeded with the same value draws the *identical* fault sequence — same
//! kinds, same target blocks, same byte-level mutations — across runs, so a
//! failing seeded test reproduces exactly, never "roughly".

use recode_codec::faults::{Fault, FaultInjector, FaultKind, SplitMix64};
use recode_codec::pipeline::{CompressedMatrix, MatrixCodecConfig};
use recode_codec::BlockStream;
use recode_sparse::prelude::*;

fn fixture_stream() -> BlockStream {
    let a = generate(
        &GenSpec::Stencil2D {
            nx: 40,
            ny: 40,
            points: 5,
            values: ValueModel::QuantizedGaussian { levels: 16 },
        },
        23,
    );
    let cm = CompressedMatrix::compress(&a, MatrixCodecConfig::udp_dsh()).expect("compress");
    cm.index_stream
}

/// Replays one seeded injection sequence: `rounds` drawn faults of drawn
/// kinds, each applied to the stream the previous ones left, plus one
/// drawn fault of every [`FaultKind`] on a fresh stream, recording each
/// fault and a digest of the mutated stream after every step.
fn campaign(seed: u64, rounds: usize) -> (Vec<Option<Fault>>, Vec<u64>) {
    let mut stream = fixture_stream();
    let mut kinds = SplitMix64::new(seed);
    let mut injector = FaultInjector::new(seed);
    let mut faults = Vec::new();
    let mut digests = Vec::new();
    let mut step = |stream: &mut BlockStream, kind: FaultKind| {
        let fault = injector.draw(stream, kind);
        if let Some(f) = fault {
            f.apply(stream);
        }
        faults.push(fault);
        digests.push(digest(stream));
    };
    for _ in 0..rounds {
        step(&mut stream, FaultKind::ALL[kinds.below(FaultKind::ALL.len())]);
    }
    for kind in FaultKind::ALL {
        step(&mut fixture_stream(), kind);
    }
    (faults, digests)
}

/// Order-sensitive FNV-1a over every block's framing and payload.
fn digest(stream: &BlockStream) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |b: u8| {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    for block in &stream.blocks {
        for v in [block.seq as u64, block.bit_len as u64, block.checksum as u64] {
            v.to_le_bytes().into_iter().for_each(&mut eat);
        }
        block.payload.iter().copied().for_each(&mut eat);
    }
    h
}

#[test]
fn same_seed_produces_the_identical_fault_sequence() {
    let (faults_a, digests_a) = campaign(0xFA57_5EED, 64);
    let (faults_b, digests_b) = campaign(0xFA57_5EED, 64);
    assert_eq!(faults_a, faults_b, "fault kinds, targets, and details must replay exactly");
    assert_eq!(digests_a, digests_b, "the mutated streams must be byte-identical");
    // Sanity: the sequence actually did something (not 64 no-ops).
    assert!(faults_a.iter().filter(|f| f.is_some()).count() > 32);
}

#[test]
fn different_seeds_diverge() {
    let (faults_a, _) = campaign(1, 64);
    let (faults_b, _) = campaign(2, 64);
    assert_ne!(faults_a, faults_b, "distinct seeds must explore distinct fault sequences");
}

#[test]
fn splitmix_streams_are_reproducible_and_full_range() {
    let mut a = SplitMix64::new(99);
    let mut b = SplitMix64::new(99);
    let xs: Vec<u64> = (0..256).map(|_| a.next_u64()).collect();
    let ys: Vec<u64> = (0..256).map(|_| b.next_u64()).collect();
    assert_eq!(xs, ys);
    // below(n) stays in range and hits more than one residue.
    let mut c = SplitMix64::new(7);
    let draws: Vec<usize> = (0..128).map(|_| c.below(10)).collect();
    assert!(draws.iter().all(|&d| d < 10));
    assert!(draws.iter().collect::<std::collections::BTreeSet<_>>().len() > 5);
}
