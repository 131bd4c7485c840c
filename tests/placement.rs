//! Direct-placement suite (ISSUE 17): every lane decodes its block straight
//! into its final slice of the CSR arrays.
//!
//! Two things can go wrong with that which could not before. A block's
//! extent comes from the stream geometry, so any block size — one that cuts
//! an 8-byte value in two, one that leaves a last block of a few bytes — must
//! land every byte where concatenation would have put it, through the first
//! attempt and through every rung of the recovery ladder. And a block now
//! has a length to meet: one that passes its CRC but decodes to another
//! length is that block's failure, not the run's.

use recode_spmv::codec::pipeline::{CompressedMatrix, MatrixCodecConfig, PipelineConfig};
use recode_spmv::codec::CodecError;
use recode_spmv::core::error::ExecError;
use recode_spmv::core::exec::{ExecStats, RawFallbackStore};
use recode_spmv::prelude::*;
use recode_spmv::sparse::util::{for_each_case, SplitMix64};

/// A random valid CSR: up to 48 rows of up to 40 strictly increasing
/// columns, values drawn from a few repeated ones and arbitrary finite ones.
fn random_csr(rng: &mut SplitMix64) -> Csr {
    let nrows = 1 + rng.below(48);
    let ncols = 1 + rng.below(96);
    let keep = rng.f64() * 0.6;
    let repeated = [1.5, -0.25, 3.0, 1e-300];
    let mut row_ptr = vec![0usize];
    let (mut col_idx, mut values) = (Vec::new(), Vec::new());
    for _ in 0..nrows {
        for c in 0..ncols {
            if rng.f64() < keep {
                col_idx.push(c as u32);
                values.push(if rng.below(2) == 0 {
                    repeated[rng.below(repeated.len())]
                } else {
                    rng.range_f64(-1e6, 1e6)
                });
            }
        }
        row_ptr.push(col_idx.len());
    }
    Csr::try_from_parts(nrows, ncols, row_ptr, col_idx, values).unwrap()
}

/// A block size for a stream of `total` bytes. Without delta any size goes:
/// ones that are not a multiple of the word (1020 and 4100 cut a value in
/// two), odd ones, and — half the time — one that divides `total - r` for an
/// `r` in `1..=7`, so the last block is `r` bytes long.
fn random_block_bytes(rng: &mut SplitMix64, total: usize, delta: bool) -> usize {
    if delta {
        return [516, 1020, 2048, 4100, 8192][rng.below(5)];
    }
    let r = 1 + rng.below(7);
    if rng.below(2) == 0 && total > r + 16 {
        let body = total - r;
        let parts = (1..=12).rev().find(|d| body.is_multiple_of(*d) && body / d > r).unwrap();
        return body / parts;
    }
    [77, 1020, 1021, 2048, 4100, 8192][rng.below(6)]
}

fn bits(a: &Csr) -> (&[usize], &[u32], Vec<u64>) {
    (a.row_ptr(), a.col_idx(), a.values().iter().map(|v| v.to_bits()).collect())
}

/// The accounting every successful run must satisfy.
fn check_stats(what: &str, stats: &ExecStats, nnz: usize) {
    assert_eq!(
        stats.blocks_ok + stats.blocks_recovered + stats.blocks_fell_back,
        stats.accel.jobs,
        "{what}: block accounting"
    );
    assert_eq!(stats.accel.output_bytes, 12 * nnz as u64, "{what}: placed bytes");
}

#[test]
fn any_block_size_places_every_byte_through_every_rung() {
    let sys = SystemConfig::ddr4();
    for_each_case(0x91AC_E017, 40, |rng| {
        let a = random_csr(rng);
        let nnz = a.nnz();
        let index_delta = rng.below(2) == 0;
        let index = PipelineConfig {
            delta: index_delta,
            huffman: rng.below(2) == 0,
            block_bytes: random_block_bytes(rng, 4 * nnz, index_delta),
            ..PipelineConfig::dsh_udp()
        };
        let value = PipelineConfig {
            huffman: rng.below(2) == 0,
            block_bytes: random_block_bytes(rng, 8 * nnz, false),
            ..PipelineConfig::sh_udp()
        };
        let what = format!("index {}B, value {}B, nnz {nnz}", index.block_bytes, value.block_bytes);
        let clean = CompressedMatrix::compress(&a, MatrixCodecConfig { index, value }).unwrap();
        let n_index = clean.index_stream.blocks.len();
        let jobs = n_index + clean.value_stream.blocks.len();
        let x: Vec<f64> = (0..a.ncols()).map(|i| ((i * 29) % 13) as f64 - 6.0).collect();
        let y_ref = spmv(&a, &x);
        let with_store = |cm: CompressedMatrix| {
            RecodedSpmv::from_compressed_with_store(cm, Some(RawFallbackStore::from_csr(&a)))
                .unwrap()
        };
        // Both schedules: the batch cuts the final arrays into extents, the
        // walker sizes one buffer per block from the same geometry. A tile
        // is an index block, so the walker takes only whole-word ones.
        let tiles = index.block_bytes.is_multiple_of(4);
        let run = |r: &RecodedSpmv, hook: &FaultHook| {
            let ctx = || RunCtx { hook: Some(hook), ..RunCtx::default() };
            let batch = r.decompress_with(&sys, ctx());
            let streaming =
                OverlapExecutor::new(r, OverlapConfig { overlap: false, ..Default::default() })
                    .spmv_with(&sys, &x, ctx());
            (batch, streaming)
        };
        let expect_exact = |what: &str, r: &RecodedSpmv, hook: &FaultHook| {
            let (batch, streaming) = run(r, hook);
            let (b, batch) = batch.unwrap_or_else(|e| panic!("{what}: batch failed: {e}"));
            assert_eq!(bits(&b), bits(&a), "{what}: decoded matrix");
            check_stats(what, &batch, nnz);
            if !tiles {
                assert!(matches!(streaming, Err(ExecError::Reassembly(_))), "{what}: walker");
                return vec![batch];
            }
            let (y, streaming) = streaming.unwrap_or_else(|e| panic!("{what}: walker failed: {e}"));
            assert_eq!(y, y_ref, "{what}: streamed y");
            check_stats(what, &streaming, nnz);
            vec![batch, streaming]
        };

        for stats in
            expect_exact(&format!("{what}, intact"), &with_store(clean.clone()), &FaultHook::new())
        {
            assert_eq!(stats.blocks_ok, jobs);
        }
        if jobs == 0 {
            return;
        }

        let trapped = rng.below(jobs);
        let hook = FaultHook::new().trap(trapped);
        let what_trap = format!("{what}, job {trapped} trapped");
        for stats in expect_exact(&what_trap, &with_store(clean.clone()), &hook) {
            assert_eq!((stats.blocks_recovered, stats.blocks_fell_back), (1, 0), "{what_trap}");
        }

        // One payload bit of one block: its CRC fails on every attempt.
        let job = rng.below(jobs);
        let mut corrupt = clean.clone();
        let (stream, pos, word) = match job.checked_sub(n_index) {
            None => (&mut corrupt.index_stream, job, 4),
            Some(pos) => (&mut corrupt.value_stream, pos, 8),
        };
        let extent = stream.block_bytes.min(word * nnz - pos * stream.block_bytes);
        let payload = &mut stream.blocks[pos].payload;
        let at = rng.below(payload.len());
        payload[at] ^= 1 << rng.below(8);
        let what_bad = format!("{what}, job {job} corrupt");
        for stats in expect_exact(&what_bad, &with_store(corrupt.clone()), &FaultHook::new()) {
            assert_eq!((stats.blocks_recovered, stats.blocks_fell_back), (0, 1), "{what_bad}");
            assert_eq!(stats.fallback_bytes, extent, "{what_bad}: the raw range is the extent");
        }
        let bare = RecodedSpmv::from_compressed(corrupt).unwrap();
        let (batch, streaming) = run(&bare, &FaultHook::new());
        // (Without whole-word index blocks the walker refused before decoding.)
        let mut errs = vec![batch.map(|_| ()).unwrap_err()];
        errs.extend(streaming.map(|_| ()).err().filter(|_| tiles));
        for err in errs {
            assert!(matches!(err, ExecError::Unrecoverable { .. }), "{what_bad}, no store: {err}");
            assert_eq!(err.block(), Some(pos), "{what_bad}, no store: {err}");
            assert!(
                matches!(err.codec_error(), Some(CodecError::ChecksumMismatch { .. })),
                "{what_bad}, no store: {err}"
            );
        }
    });
}

fn fem() -> Csr {
    generate(
        &GenSpec::FemBand {
            n: 700,
            band: 10,
            fill: 0.6,
            values: ValueModel::MixedRepeated { distinct: 8 },
        },
        99,
    )
}

/// 2 KB blocks, so each stream has several.
fn small_block_config() -> MatrixCodecConfig {
    MatrixCodecConfig {
        index: PipelineConfig { block_bytes: 2048, ..PipelineConfig::dsh_udp() },
        value: PipelineConfig { block_bytes: 2048, ..PipelineConfig::sh_udp() },
    }
}

type Run<'a> = Box<dyn Fn(&RecodedSpmv) -> Result<(Vec<f64>, ExecStats), ExecError> + 'a>;

/// A block that passes its CRC but holds another number of bytes than its
/// extent — with a header that admits it, or one that still claims the
/// extent — fails as that block: served from the raw store when there is
/// one, named in a typed error when there is not, on every schedule.
#[test]
fn a_resealed_block_of_another_length_is_a_per_block_failure() {
    const BLOCK: usize = 2048;
    let a = fem();
    let sys = SystemConfig::ddr4();
    let x: Vec<f64> = (0..a.ncols()).map(|i| ((i * 31) % 17) as f64 - 8.0).collect();
    let y_ref = spmv(&a, &x);
    let clean = CompressedMatrix::compress(&a, small_block_config()).unwrap();
    let (index_pipe, value_pipe) = clean.pipelines().unwrap();
    let raw = RawFallbackStore::from_csr(&a);
    assert!(clean.index_stream.blocks.len() > 2 && clean.value_stream.blocks.len() > 3);

    for on_values in [false, true] {
        let (pipe, bytes, pos) = if on_values {
            (&value_pipe, &raw.value_bytes, 2)
        } else {
            (&index_pipe, &raw.index_bytes, 1)
        };
        let start = pos * BLOCK;
        for (len, honest_header) in
            [(BLOCK / 2, true), (BLOCK / 2, false), (BLOCK + 8, true), (BLOCK + 8, false)]
        {
            let what = format!(
                "{} block {pos} holding {len} bytes, header says {}",
                if on_values { "value" } else { "index" },
                if honest_header { len } else { BLOCK },
            );
            let mut block = pipe.encode_block_at(&bytes[start..start + len], pos as u32).unwrap();
            if !honest_header {
                block.uncompressed_len = BLOCK;
                block.reseal();
            }
            let mut cm = clean.clone();
            let stream = if on_values { &mut cm.value_stream } else { &mut cm.index_stream };
            stream.blocks[pos] = block;

            let with_store =
                RecodedSpmv::from_compressed_with_store(cm.clone(), Some(raw.clone())).unwrap();
            let bare = RecodedSpmv::from_compressed(cm).unwrap();
            let overlap = OverlapConfig { cache_blocks: 16, ..OverlapConfig::default() };
            let schedules: [(&str, Run<'_>); 3] = [
                (
                    "batch",
                    Box::new(|r| {
                        let (b, stats) = r.decompress_via_udp(&sys)?;
                        assert_eq!(b, a, "{what}: decoded matrix");
                        Ok((spmv(&b, &x), stats))
                    }),
                ),
                ("overlap", Box::new(|r| OverlapExecutor::new(r, overlap).spmv(&sys, &x))),
                ("streaming", Box::new(|r| r.spmv_streaming(&x))),
            ];
            for (schedule, run) in &schedules {
                let what = format!("{what}, on {schedule}");
                let (y, stats) = run(&with_store).unwrap_or_else(|e| panic!("{what}: {e}"));
                assert_eq!(y, y_ref, "{what}");
                assert_eq!(stats.blocks_fell_back, 1, "{what}");
                assert_eq!(stats.blocks_retried, 1, "{what}: it fails its retry");
                assert_eq!(stats.fallback_bytes, BLOCK, "{what}");
                check_stats(&what, &stats, a.nnz());

                let err = run(&bare).map(|_| ()).unwrap_err();
                assert!(matches!(err, ExecError::Unrecoverable { .. }), "{what}, no store: {err}");
                assert_eq!(err.block(), Some(pos), "{what}, no store: {err}");
                match err.codec_error() {
                    Some(CodecError::LengthMismatch { expected: BLOCK, actual }) => {
                        assert_eq!(*actual, len, "{what}, no store: {err}");
                    }
                    other => panic!("{what}, no store: expected a length mismatch, got {other:?}"),
                }
            }
        }
    }
}

/// Row 0 holds columns 0..200, except that entry 129 — the first of the
/// second 516-byte index block — repeats entry 128, the last of the first.
fn seam_operand() -> CompressedMatrix {
    let mut cols: Vec<u32> = (0..200).collect();
    cols[129] = 128;
    let a = Csr::from_parts_unchecked(1, 200, vec![0, 200], cols, vec![1.0; 200]);
    let index = PipelineConfig { block_bytes: 516, ..PipelineConfig::dsh_udp() };
    let cm = CompressedMatrix::compress(
        &a,
        MatrixCodecConfig { index, value: PipelineConfig::sh_udp() },
    )
    .unwrap();
    assert!(cm.index_stream.blocks.len() > 1, "the seam needs two index blocks");
    cm
}

/// Row 0 holds columns `0..400` in 516-byte index blocks (129 entries each),
/// except for `breaks`, each an entry and the column it holds instead.
fn broken_row(breaks: &[(usize, u32)]) -> CompressedMatrix {
    let mut cols: Vec<u32> = (0..400).collect();
    for &(k, col) in breaks {
        cols[k] = col;
    }
    let a = Csr::from_parts_unchecked(1, 400, vec![0, 400], cols, vec![1.0; 400]);
    let index = PipelineConfig { block_bytes: 516, ..PipelineConfig::dsh_udp() };
    CompressedMatrix::compress(&a, MatrixCodecConfig { index, value: PipelineConfig::sh_udp() })
        .unwrap()
}

/// Every schedule's result on `r` under `hook`: the batch plain and traced,
/// the hook-free streaming walk, and the overlapped walker cold, warm and
/// traced.
fn every_schedule(
    r: &RecodedSpmv,
    sys: &SystemConfig,
    hook: &FaultHook,
    what: &str,
) -> [(&'static str, Result<Vec<f64>, ExecError>); 6] {
    let x = vec![1.0; r.compressed().ncols];
    let ctx = || RunCtx { hook: Some(hook), ..RunCtx::default() };
    let overlap = OverlapExecutor::new(r, OverlapConfig { cache_blocks: 16, ..Default::default() });
    [
        ("batch", r.spmv_with(sys, SpmvKernel::Serial, &x, ctx()).map(|(y, _)| y)),
        ("traced batch", r.spmv_traced(sys, SpmvKernel::Serial, &x, ctx(), what).map(|(y, ..)| y)),
        ("streaming", r.spmv_streaming(&x).map(|(y, _)| y)),
        ("overlap", overlap.spmv_with(sys, &x, ctx()).map(|(y, _)| y)),
        ("overlap, warm", overlap.spmv_with(sys, &x, ctx()).map(|(y, _)| y)),
        ("traced overlap", overlap.spmv_traced(sys, &x, ctx(), what).map(|(y, ..)| y)),
    ]
}

/// Operands whose blocks all pass their CRCs but whose entries break CSR's
/// rule — a header that shrinks the shape under a stored column, columns
/// out of order inside a row (within a block, and across the seam between
/// two index blocks), two blocks that break it at once, a `row_ptr` that
/// goes backwards — are refused with one typed error, the first break in
/// storage order, on every schedule: each lane checks the index block it
/// decoded, and the calling thread checks the seams, in storage order, and
/// whole the blocks it recovered — here, the breaking block's first
/// attempt trapped and retried. The tile walker checks a decoded index
/// block before it multiplies or caches it, warm calls included.
#[test]
fn every_schedule_refuses_entries_that_break_csr() {
    let sys = SystemConfig::ddr4();
    let four_cols = |cols: Vec<u32>, row_ptr: Vec<usize>| {
        let values = (1..=cols.len()).map(|v| v as f64).collect();
        Csr::from_parts_unchecked(row_ptr.len() - 1, 4, row_ptr, cols, values)
    };
    let compress = |a: &Csr| CompressedMatrix::compress(a, MatrixCodecConfig::udp_dsh()).unwrap();
    let out_of_order = |row: usize, at: usize| {
        format!(
            "decoded matrix invalid: invalid structure: row {row} columns not strictly \
             increasing at position {at}"
        )
    };
    // (what, operand, the index block that breaks the rule first, error)
    let cases: [(&str, CompressedMatrix, usize, String); 7] = [
        (
            ".rcmx header says 3 columns, row 0 stores column 3",
            {
                let mut cm = compress(&four_cols(vec![1, 3, 0, 2], vec![0, 2, 3, 4, 4]));
                cm.ncols = 3;
                CompressedMatrix::from_bytes(&cm.to_bytes()).unwrap()
            },
            0,
            "decoded matrix invalid: entry (0, 3) outside matrix shape 4x3".into(),
        ),
        (
            "row 2 stores column 2 before column 1",
            compress(&four_cols(vec![1, 3, 0, 2, 1], vec![0, 2, 3, 5, 5])),
            0,
            out_of_order(2, 1),
        ),
        (
            "row 0 repeats a column across the seam of two index blocks",
            seam_operand(),
            1,
            out_of_order(0, 129),
        ),
        (
            "block 1 stores column 9999, block 2 repeats a column",
            broken_row(&[(300, 299), (200, 9999)]),
            1,
            "decoded matrix invalid: entry (0, 9999) outside matrix shape 1x400".into(),
        ),
        (
            "block 2 repeats a column across its seam, block 3 stores column 9999",
            broken_row(&[(390, 9999), (258, 257)]),
            2,
            out_of_order(0, 258),
        ),
        (
            "block 1 repeats a column, block 2 breaks at its seam",
            broken_row(&[(258, 100), (140, 139)]),
            1,
            out_of_order(0, 140),
        ),
        (
            "row_ptr [0, 4, 2, 5]",
            {
                let mut cm = compress(&four_cols(vec![0, 1, 2, 3, 1], vec![0, 4, 4, 5]));
                cm.row_ptr = vec![0, 4, 2, 5];
                cm
            },
            0,
            "declared matrix invalid: invalid structure: row_ptr decreases at row 1".into(),
        ),
    ];
    for (what, cm, job, want) in cases {
        let want = ExecError::Reassembly(want);
        let r = RecodedSpmv::from_compressed(cm).unwrap();
        for (hooked, hook) in [("", FaultHook::new()), (", retried", FaultHook::new().trap(job))] {
            for (schedule, got) in every_schedule(&r, &sys, &hook, what) {
                assert_eq!(got, Err(want.clone()), "{what}{hooked}, on {schedule}");
            }
        }
    }
}

/// What keeps the rule passes on every schedule, through every rung: random
/// valid CSRs in whole-column index blocks, plain and with one block's
/// first attempt trapped; and a block that fails its CRC and is served from
/// the raw store, whose entries the calling thread checks.
#[test]
fn every_schedule_accepts_entries_that_keep_the_rule() {
    let sys = SystemConfig::ddr4();
    let y_of = |a: &Csr| spmv(a, &vec![1.0; a.ncols()]);
    for_each_case(0xC01_0C4E, 24, |rng| {
        let a = random_csr(rng);
        let index = PipelineConfig {
            block_bytes: random_block_bytes(rng, 4 * a.nnz(), true),
            ..PipelineConfig::dsh_udp()
        };
        let value = PipelineConfig { block_bytes: 1020, ..PipelineConfig::sh_udp() };
        let cm = CompressedMatrix::compress(&a, MatrixCodecConfig { index, value }).unwrap();
        let jobs = cm.index_stream.blocks.len() + cm.value_stream.blocks.len();
        let r = RecodedSpmv::from_compressed(cm).unwrap();
        let what = format!("{}x{}, {} entries, {index:?}", a.nrows(), a.ncols(), a.nnz());
        let trapped = FaultHook::new().trap(rng.below(jobs.max(1)));
        for hook in [FaultHook::new(), trapped] {
            for (schedule, got) in every_schedule(&r, &sys, &hook, &what) {
                assert_eq!(got.as_ref(), Ok(&y_of(&a)), "{what}, on {schedule}");
            }
        }
    });

    let a = fem();
    let mut cm = CompressedMatrix::compress(&a, small_block_config()).unwrap();
    cm.index_stream.blocks[1].payload[0] ^= 1;
    let r =
        RecodedSpmv::from_compressed_with_store(cm, Some(RawFallbackStore::from_csr(&a))).unwrap();
    for (schedule, got) in every_schedule(&r, &sys, &FaultHook::new(), "fallback") {
        assert_eq!(got.as_ref(), Ok(&y_of(&a)), "index block 1 from the store, on {schedule}");
    }
}
