//! Allocation-regression suite (ISSUE 5): the hot paths must not touch the
//! heap in steady state.
//!
//! A counting `#[global_allocator]` wraps the system allocator; the test
//! warms each path (first calls are allowed to size buffers), then asserts
//! a **zero** allocation delta across many further iterations:
//!
//! 1. `Lane::run_into` with a reused output buffer — one decode per
//!    dispatched block, zero heap traffic;
//! 2. `OverlapExecutor` warm-cache tile decodes — a cache hit is an `Arc`
//!    clone, not a decode, and must stay allocation-free;
//! 3. the flight recorder (ISSUE 7): the disabled path is one relaxed
//!    atomic load per would-be event and must allocate **zero** times per
//!    dispatched block, and the *enabled* steady state (thread-local
//!    buffer warm, ring preallocated) must also allocate nothing;
//! 4. direct placement (ISSUE 17): a lane keeps its stage buffers across a
//!    trapping block, a batch decode allocates the CSR arrays plus per-job
//!    bookkeeping and nothing that grows with the block count, and a
//!    matrix whose declared geometry is inconsistent is refused before
//!    anything is sized from it.
//!
//! Everything lives in one `#[test]` so no concurrent harness thread can
//! allocate between the two counter reads.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use recode_spmv::codec::pipeline::{CompressedMatrix, MatrixCodecConfig, Pipeline, PipelineConfig};
use recode_spmv::core::error::ExecError;
use recode_spmv::core::exec::RecodedSpmv;
use recode_spmv::core::overlap::{OverlapConfig, OverlapExecutor};
use recode_spmv::core::telemetry::StreamKind;
use recode_spmv::prelude::*;
use recode_spmv::udp::progs::DshDecoder;
use recode_spmv::udp::{Lane, RunConfig};

/// System allocator with an allocation-event counter and a requested-bytes
/// counter (a `realloc` counts its whole new size). `dealloc` is not
/// counted: freeing is fine, acquiring is what the hot paths must avoid.
struct CountingAlloc;

static ALLOC_EVENTS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

fn count(bytes: usize) {
    ALLOC_EVENTS.fetch_add(1, Ordering::Relaxed);
    ALLOC_BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn alloc_events() -> u64 {
    ALLOC_EVENTS.load(Ordering::SeqCst)
}

fn alloc_bytes() -> u64 {
    ALLOC_BYTES.load(Ordering::SeqCst)
}

fn banded_index_stream(n: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(n * 4);
    for i in 0..n {
        let base = (i / 3) as u32;
        let col = base + (i % 3) as u32;
        out.extend_from_slice(&col.to_le_bytes());
    }
    out
}

/// Steady-state `Lane::run_into` over predecoded images: after one warm-up
/// pass per block the interpreter must run every stage of every block
/// without a single allocator call.
fn lane_run_into_is_allocation_free() {
    let data = banded_index_stream(8000);
    let config = PipelineConfig::dsh_udp();
    let pipe = Pipeline::train(config, &data).unwrap();
    let stream = pipe.encode_stream(&data).unwrap();
    let decoder = DshDecoder::new(config, pipe.table().map(|t| t.lengths.as_slice())).unwrap();
    let images: Vec<_> =
        [&decoder.huffman, &decoder.snappy, &decoder.delta].into_iter().flatten().collect();
    assert!(images.len() == 3, "dsh_udp must enable all three stages");
    let cfg = RunConfig::default();
    let mut lane = Lane::new();
    let mut out = Vec::new();

    // Warm-up pass: sizes the output buffer to the largest block's decode.
    for block in &stream.blocks {
        lane.run_into(images[0], &block.payload, block.bit_len, cfg, &mut out)
            .expect("huffman stage decodes its own encoder output");
    }

    let before = alloc_events();
    let mut total_cycles = 0u64;
    for _ in 0..3 {
        for block in &stream.blocks {
            let stats = lane
                .run_into(images[0], &block.payload, block.bit_len, cfg, &mut out)
                .expect("huffman stage decodes its own encoder output");
            total_cycles += stats.cycles;
        }
    }
    let delta = alloc_events() - before;
    assert!(total_cycles > 0);
    assert_eq!(
        delta,
        0,
        "steady-state Lane::run_into allocated {delta} times across {} block decodes",
        stream.blocks.len() * 3
    );
}

/// Warm-cache tile decodes on the overlap executor: once a block is
/// resident, serving it is an `Arc` clone and must not allocate.
fn warm_cache_tiles_are_allocation_free() {
    let a = generate(
        &GenSpec::FemBand {
            n: 600,
            band: 8,
            fill: 0.7,
            values: ValueModel::MixedRepeated { distinct: 8 },
        },
        7,
    );
    let codec_cfg = MatrixCodecConfig {
        index: PipelineConfig { block_bytes: 2048, ..PipelineConfig::dsh_udp() },
        value: PipelineConfig { block_bytes: 2048, ..PipelineConfig::sh_udp() },
    };
    let recoded = RecodedSpmv::new(&a, codec_cfg).unwrap();
    let cm = recoded.compressed();
    let n_index = cm.index_stream.blocks.len();
    let n_value = cm.value_stream.blocks.len();
    assert!(n_index >= 2 && n_value >= 2, "need several blocks per stream");
    let exec = OverlapExecutor::new(
        &recoded,
        OverlapConfig { cache_blocks: n_index + n_value, ..Default::default() },
    );

    // Cold pass populates the cache (allocates: decodes + inserts).
    for pos in 0..n_index {
        exec.decode_one_for_test(StreamKind::Index, pos).unwrap();
    }
    for pos in 0..n_value {
        exec.decode_one_for_test(StreamKind::Value, pos).unwrap();
    }
    let hits_before = exec.cache_stats().hits;

    let before = alloc_events();
    for _ in 0..5 {
        for pos in 0..n_index {
            exec.decode_one_for_test(StreamKind::Index, pos).unwrap();
        }
        for pos in 0..n_value {
            exec.decode_one_for_test(StreamKind::Value, pos).unwrap();
        }
    }
    let delta = alloc_events() - before;
    let served = exec.cache_stats().hits - hits_before;
    assert_eq!(served, 5 * (n_index + n_value) as u64, "every warm pass must be served from cache");
    assert_eq!(delta, 0, "warm-cache tile decode allocated {delta} times over {served} hits");
}

/// Recorder off (the default): `record()` is a relaxed load + branch. A
/// full batch decode — one `record` attempt per dispatched block plus the
/// surrounding span guards — must not allocate through the recorder.
fn disabled_recorder_records_allocation_free() {
    use recode_spmv::core::recorder::{self, EventKind, Track};
    assert!(!recorder::is_enabled(), "recorder must start disabled");
    let before = alloc_events();
    for block in 0..4096u64 {
        recorder::record(
            EventKind::BlockOutcome,
            Track::lane(block as usize % 64),
            "block",
            block,
            0,
        );
        let _span = recorder::span(Track::MAIN, "exec.decode_batch");
    }
    let delta = alloc_events() - before;
    assert_eq!(delta, 0, "disabled recorder allocated {delta} times over 4096 dispatched blocks");
}

/// Recorder on, steady state: the ring is preallocated by `enable()` and
/// the thread-local buffer is sized on first use, so after a warm-up burst
/// further events (including ring overwrite once full) allocate nothing.
fn enabled_recorder_steady_state_is_allocation_free() {
    use recode_spmv::core::recorder::{self, EventKind, Track};
    recorder::enable(1024);
    // Warm-up: first record on this thread sizes the thread-local buffer.
    for block in 0..2048u64 {
        recorder::record(EventKind::BlockOutcome, Track::lane(0), "block", block, 0);
    }
    let before = alloc_events();
    for block in 0..8192u64 {
        recorder::record(
            EventKind::BlockOutcome,
            Track::lane(block as usize % 64),
            "block",
            block,
            0,
        );
        let _span = recorder::span(Track::worker(1), "multiply_tile");
    }
    let delta = alloc_events() - before;
    let stats = recorder::stats();
    recorder::disable();
    assert!(stats.dropped > 0, "the 1024-slot ring must have overwritten under this load");
    assert_eq!(delta, 0, "enabled recorder steady state allocated {delta} times over 8192 blocks");
}

/// Where the last element of a Snappy stream starts, found by walking the
/// tags: a literal is its tag, its length bytes and its data; a copy is its
/// tag and 1, 2 or 4 offset bytes.
fn last_snappy_element(stream: &[u8]) -> usize {
    let (_, mut pos) = recode_spmv::codec::snappy::uncompressed_length(stream).unwrap();
    let mut last = pos;
    while pos < stream.len() {
        last = pos;
        let tag = usize::from(stream[pos]);
        pos += 1 + match tag & 3 {
            0 if tag >> 2 < 60 => (tag >> 2) + 1,
            0 => {
                let length_bytes = (tag >> 2) - 59;
                let len = stream[pos + 1..pos + 1 + length_bytes]
                    .iter()
                    .rev()
                    .fold(0, |v, &b| v << 8 | usize::from(b));
                length_bytes + len + 1
            }
            1 => 1,
            2 => 2,
            _ => 4,
        };
    }
    last
}

/// A stage trap must hand the lane its two stage buffers back: the next
/// clean block on the same lane places into its destination without a
/// single allocator call, and decodes exactly as on a fresh lane — same
/// cycles, op classes, stage split and bytes. On the compiled tier the trap
/// is a bail and an interpreter rerun, so this covers what either tier
/// leaves behind, and it is why the lane pool recycles a lane that trapped.
fn trapping_block_leaves_the_lane_its_buffers() {
    let data = banded_index_stream(8000);
    let config = PipelineConfig::ds_udp();
    let pipe = Pipeline::train(config, &data).unwrap();
    let mut stream = pipe.encode_stream(&data).unwrap();
    assert!(stream.blocks.len() >= 3, "need a block to break and clean ones around it");
    let decoder = DshDecoder::new(config, None).unwrap();
    // Block 1 keeps its frame but is cut one byte into its last Snappy
    // element, inside its operand or data, wherever the encoder put the
    // element boundaries: the CRC passes (resealed), the Snappy stage runs
    // out of input and traps. A cut between elements would halt short.
    let broken = &mut stream.blocks[1];
    broken.payload.truncate(last_snappy_element(&broken.payload) + 1);
    broken.bit_len = broken.payload.len() * 8;
    broken.reseal();

    let mut lane = Lane::new();
    let mut dst = vec![0u8; config.block_bytes];
    decoder.decode_block_into(&mut lane, &stream.blocks[0], &mut dst).expect("warm-up block");
    let err = decoder.decode_block_into(&mut lane, &stream.blocks[1], &mut dst).unwrap_err();
    assert!(err.lane_error().is_some(), "expected a stage trap, got {err}");

    let before = alloc_events();
    let after_trap =
        decoder.decode_block_into(&mut lane, &stream.blocks[2], &mut dst).expect("clean block");
    let delta = alloc_events() - before;
    assert_eq!(dst, data[2 * config.block_bytes..3 * config.block_bytes]);
    assert_eq!(
        delta, 0,
        "the block after a trap allocated {delta} times: the lane lost its buffers"
    );

    let mut fresh_dst = vec![0u8; config.block_bytes];
    let fresh = decoder
        .decode_block_into(&mut Lane::new(), &stream.blocks[2], &mut fresh_dst)
        .expect("clean block on a fresh lane");
    assert_eq!(
        (after_trap.cycles, after_trap.opclass, after_trap.stage_cycles, after_trap.output_bytes),
        (fresh.cycles, fresh.opclass, fresh.stage_cycles, fresh.output_bytes),
        "a lane that trapped decodes the next block unlike a fresh one"
    );
    assert_eq!(dst, fresh_dst);
}

/// A batch decode allocates the two CSR arrays at final length, the
/// `row_ptr` copy, and per-job bookkeeping in a fixed number of vectors: the
/// same matrix cut into four times as many blocks makes the same number of
/// allocations, and the bytes stay within a stated slack of what the CSR
/// itself needs.
fn batch_decode_allocates_the_csr_and_little_else() {
    /// Bookkeeping allowed per job (the job list and the outcome vectors)
    /// and per run (lane profiles, the stats).
    const SLACK_PER_JOB: u64 = 256;
    const SLACK_PER_RUN: u64 = 16 * 1024;
    let a = generate(
        &GenSpec::FemBand {
            n: 2000,
            band: 10,
            fill: 0.6,
            values: ValueModel::MixedRepeated { distinct: 8 },
        },
        7,
    );
    let sys = SystemConfig::ddr4();
    let mut events = Vec::new();
    for block_bytes in [8192, 2048] {
        let codec_cfg = MatrixCodecConfig {
            index: PipelineConfig { block_bytes, ..PipelineConfig::dsh_udp() },
            value: PipelineConfig { block_bytes, ..PipelineConfig::sh_udp() },
        };
        let recoded = RecodedSpmv::new(&a, codec_cfg).unwrap();
        // Warm-up: builds the pooled lanes and sizes their stage buffers.
        recoded.decompress_via_udp(&sys).unwrap();
        let (events0, bytes0) = (alloc_events(), alloc_bytes());
        let (b, stats) = recoded.decompress_via_udp(&sys).unwrap();
        let (events1, bytes1) = (alloc_events(), alloc_bytes());
        assert_eq!(b, a);
        let jobs = stats.accel.jobs as u64;
        let csr = (12 * a.nnz() + 8 * (a.nrows() + 1)) as u64;
        let allowed = csr + SLACK_PER_JOB * jobs + SLACK_PER_RUN;
        assert!(
            bytes1 - bytes0 <= allowed,
            "{block_bytes}-byte blocks: allocated {} bytes for a {csr}-byte CSR over {jobs} jobs \
             (allowed {allowed})",
            bytes1 - bytes0
        );
        events.push((jobs, events1 - events0));
    }
    let [(few_jobs, few), (many_jobs, many)] = events[..] else { unreachable!() };
    assert!(many_jobs >= 3 * few_jobs, "{few_jobs} vs {many_jobs} jobs");
    assert_eq!(
        few, many,
        "allocation count grew with the block count ({few_jobs} -> {many_jobs} jobs)"
    );
}

/// The arrays are sized from header fields, so a header that lies about the
/// geometry is refused before the first lane runs, with the typed error and
/// without an allocation anywhere near the claimed size.
fn inconsistent_geometry_is_refused_before_anything_is_sized() {
    type Edit = fn(&mut CompressedMatrix);
    let a = generate(
        &GenSpec::Stencil2D { nx: 40, ny: 40, points: 5, values: ValueModel::StencilCoeffs },
        3,
    );
    let image = CompressedMatrix::compress(&a, MatrixCodecConfig::udp_dsh()).unwrap().to_bytes();
    let sys = SystemConfig::ddr4();
    let edits: [(&str, Edit); 5] = [
        ("index stream claims 2^40 bytes", |cm| cm.index_stream.total_uncompressed = 1 << 40),
        ("value stream claims 2^40 bytes in as many blocks as it has", |cm| {
            cm.value_stream.total_uncompressed = 1 << 40;
            cm.value_stream.block_bytes = (1 << 40) / cm.value_stream.blocks.len();
        }),
        ("nnz off by one", |cm| cm.nnz += 1),
        ("nnz and both streams agree on 2^37 non-zeros, row_ptr does not", |cm| {
            cm.nnz = 1 << 37;
            cm.index_stream.total_uncompressed = 4 << 37;
            cm.value_stream.total_uncompressed = 8 << 37;
        }),
        ("blocks larger than a lane's output window", |cm| {
            cm.index_stream.block_bytes = 64 * 1024;
        }),
    ];
    for (what, edit) in edits {
        let mut cm = CompressedMatrix::from_bytes(&image).unwrap();
        edit(&mut cm);
        let recoded = RecodedSpmv::from_compressed(cm).unwrap();
        let x = vec![1.0; a.ncols()];
        let bytes0 = alloc_bytes();
        let batch = recoded.decompress_via_udp(&sys).map(|_| ());
        let streaming = recoded.spmv_streaming(&x).map(|_| ());
        let allocated = alloc_bytes() - bytes0;
        for (executor, result) in [("batch", batch), ("streaming", streaming)] {
            match result {
                Err(ExecError::Reassembly(_)) => {}
                other => panic!("{what} on {executor}: expected a Reassembly error, got {other:?}"),
            }
        }
        assert!(allocated < 64 * 1024, "{what}: allocated {allocated} bytes while refusing");
    }
}

#[test]
fn hot_paths_do_not_allocate_in_steady_state() {
    lane_run_into_is_allocation_free();
    warm_cache_tiles_are_allocation_free();
    disabled_recorder_records_allocation_free();
    enabled_recorder_steady_state_is_allocation_free();
    trapping_block_leaves_the_lane_its_buffers();
    batch_decode_allocates_the_csr_and_little_else();
    inconsistent_geometry_is_refused_before_anything_is_sized();
}
