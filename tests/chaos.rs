//! The fault contract, case by case.
//!
//! `core::chaos::run` puts every fault the fixture can meet — a trap or a
//! panic at each job, a trap at each pair of jobs, each stream fault at each
//! block — through every schedule, with the raw store on and off. Here every
//! case must end exactly as the recovery ladder says it must: which jobs
//! were retried and which fell back, the ladder tally down to the retry
//! cycles and the re-fetched bytes, or the exact typed error naming its
//! block. The committed table is what the tree prints.

use recode_spmv::codec::faults::{Fault, HeaderField};
use recode_spmv::codec::CodecError;
use recode_spmv::core::chaos::{self, Case, Fixture, Injection, Row, Schedule, Settled, Table};
use recode_spmv::core::error::ExecError;
use recode_spmv::core::telemetry::{StreamKind, Telemetry};
use recode_spmv::prelude::*;
use recode_spmv::udp::UdpError;
use std::sync::OnceLock;

/// The enumeration, run once for the whole suite.
fn table() -> &'static Table {
    static TABLE: OnceLock<Table> = OnceLock::new();
    TABLE.get_or_init(chaos::run)
}

#[test]
fn chaos_campaign_terminates_typed_on_every_trial() {
    let table = table();
    // No run returned a result that is not the reference, broke block
    // accounting, wrote an invalid trace, ended in an error naming no
    // block, or disagreed with the batch; an escaped panic would have
    // failed this test before the table existed.
    assert!(table.healthy(), "{}", table.render());
    let cases = Fixture::default().cases();
    assert_eq!(table.rows.iter().map(|r| r.case).collect::<Vec<_>>(), cases);
    assert_eq!(table.runs, Schedule::ALL.len() * cases.len(), "a schedule dropped out");
}

/// How the fixture's clean run settles: each job's decode cycles, which a
/// retry of that job repeats exactly.
fn clean_cycles(f: &Fixture) -> Vec<u64> {
    let r = RecodedSpmv::from_compressed(f.compressed.clone()).expect("decoders build");
    let mut tel = Telemetry::new();
    let ctx = RunCtx { tel: Some(&mut tel), ..RunCtx::default() };
    r.decompress_with(&f.sys, ctx).expect("clean run");
    tel.block_events().iter().map(|e| e.cycles).collect()
}

/// What the ladder must make of `case`, from the fixture alone.
fn predict(f: &Fixture, cycles: &[u64], case: &Case) -> Result<Settled, ExecError> {
    let jobs = f.jobs();
    let retried = |retried: Vec<usize>| Settled {
        ok: jobs - retried.len(),
        recovered: retried.len(),
        retry_cycles: retried.iter().map(|&j| cycles[j]).sum(),
        retried,
        fell_back: vec![],
        fallback_bytes: 0,
    };
    let (kind, fault) = match case.injection {
        Injection::Clean => return Ok(retried(vec![])),
        Injection::Trap(j) | Injection::Panic(j) => return Ok(retried(vec![j])),
        Injection::TrapPair(j, k) => return Ok(retried(vec![j, k])),
        Injection::Stream(kind, fault) => (kind, fault),
    };
    let (stream, first_job) = match kind {
        StreamKind::Index => (&f.compressed.index_stream, 0),
        StreamKind::Value => (&f.compressed.value_stream, f.compressed.index_stream.blocks.len()),
    };
    let n = stream.blocks.len();
    // The structure check names the stream and the first position that does
    // not hold its own block.
    let structural = |position: usize, source: CodecError| {
        Err(ExecError::Structure { stream: kind, position, source })
    };
    let sequence =
        |at: usize, found: usize| structural(at, CodecError::BlockSequence { expected: at, found });
    match fault {
        // Block `block + 1` moves up into its place; a dropped last block
        // leaves its position empty.
        Fault::DropBlock { block } => {
            structural(block, CodecError::BlockCount { expected: n, actual: n - 1 })
        }
        // A copy inserted at its own position pushes the original one on.
        Fault::DuplicateBlock { block, at } => structural(
            if at == block { at + 1 } else { at },
            CodecError::BlockCount { expected: n, actual: n + 1 },
        ),
        Fault::ReorderBlocks { block, with } => sequence(block.min(with), block.max(with)),
        Fault::HeaderCorrupt { block, field: HeaderField::Seq, mask } => {
            sequence(block, block ^ mask as usize)
        }
        // Every other fault changes what the block's CRC covers: both
        // attempts fail its check, and only the raw store recovers it.
        Fault::BitFlip { block, .. }
        | Fault::Truncate { block, .. }
        | Fault::HeaderCorrupt { block, .. } => {
            if case.store {
                let job = first_job + block;
                let start = block * stream.block_bytes;
                return Ok(Settled {
                    retried: vec![job],
                    fell_back: vec![job],
                    ok: jobs - 1,
                    recovered: 0,
                    fallback_bytes: stream.block_bytes.min(stream.total_uncompressed - start),
                    retry_cycles: 0,
                });
            }
            let mut hit = stream.clone();
            fault.apply(&mut hit);
            let b = &hit.blocks[block];
            let source =
                CodecError::ChecksumMismatch { stored: b.checksum, computed: b.compute_checksum() };
            // Charged, like every rung, to the lane of the first attempt.
            Err(ExecError::Unrecoverable {
                block: Some(block),
                lane: Some((first_job + block) % f.sys.udp.lanes),
                source: UdpError::Codec { block: Some(block), source },
            })
        }
    }
}

#[test]
fn every_case_settles_exactly_as_the_ladder_predicts() {
    let f = Fixture::default();
    let cycles = clean_cycles(&f);
    assert_eq!(cycles.len(), f.jobs());
    for Row { case, result } in &table().rows {
        assert_eq!(
            *result,
            predict(&f, &cycles, case),
            "{} (store {})",
            case.injection,
            case.store
        );
    }
}

#[test]
fn the_ci_campaign_prints_its_committed_summary() {
    // `recode chaos --json` writes the same bytes, on every lane tier and
    // however many host cores the batch runs on.
    let (got, want) = (table().to_json(), include_str!("../results/chaos_campaign.json"));
    for (k, (got, want)) in got.lines().zip(want.lines()).enumerate() {
        assert_eq!(got, want, "results/chaos_campaign.json line {}", k + 1);
    }
    assert_eq!(got, want);
}
