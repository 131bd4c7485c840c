//! `BENCH_hotpath.json` — host-side wall-clock throughput of the three
//! innermost loops the simulator spends its time in: the UDP lane
//! (blocks/s over real DSH-compressed blocks — via `Lane::run`, which
//! executes the JIT artifact on x86-64 and the predecoded interpreter
//! elsewhere), the CPU Huffman decode stage, and the CPU Snappy decode
//! stage (both MB/s of uncompressed output). The `lane_decode_interp` and
//! `lane_decode_reference` sections force the two slower tiers over the
//! same blocks, so one snapshot holds the whole JIT/interp/reference
//! ladder; `huffman_flat` reads the codec's `FlatDecoder` against its own
//! one-symbol-at-a-time reference loop, and `jit.huffman_random` reads the lane
//! JIT's cost per Huffman symbol against the share of symbols on codes longer
//! than the primary dispatch width. The `encode` section reads the write
//! side: delta, Snappy and Huffman encode MB/s over the same index blocks,
//! and the CRC32c that seals (and, before every lane decode, checks) each
//! block, over their DSH payloads. `setup.huffman_decoder` splits what one
//! compiled Huffman image costs set-up into its phases, so the verifier's
//! share stays visible.
//! These are *host* numbers: modeled lane
//! cycles are pinned by the golden trace fixture, must not move when these
//! get faster, and must be byte-identical across all three tiers.
//!
//! Usage: `bench_hotpath [--json PATH] [--smoke]`
//! (`--smoke` shrinks the corpus and repetitions for CI).

use recode_codec::huffman::{self, HuffmanTable};
use recode_codec::pipeline::{Pipeline, PipelineConfig};
use recode_codec::{crc32c, delta, snappy, UDP_BLOCK_BYTES};
use recode_core::json::Json;
use recode_sparse::util::SplitMix64;
use recode_udp::jit::LaneJit;
use recode_udp::lane::{Lane, RunConfig};
use recode_udp::progs::{self, DshDecoder};
use recode_udp::{effclip, machine, verify};
use std::path::PathBuf;
use std::time::Instant;

struct Throughput {
    /// Compressed blocks decoded per repetition.
    blocks: usize,
    /// Timed repetitions over the whole block set.
    reps: usize,
    /// Total wall time for `reps * blocks` decodes.
    wall_ns: u64,
    /// Blocks decoded per second.
    blocks_per_s: f64,
    /// Uncompressed megabytes produced per second.
    mb_per_s: f64,
    /// Modeled lane cycles for one pass over the block set (lane passes
    /// only). Deterministic simulator output, so — unlike the wall-clock
    /// leaves above — `bench-compare` gates it across machines.
    modeled_cycles: Option<u64>,
}

impl Throughput {
    fn to_json(&self) -> Json {
        let doc = Json::obj()
            .set("blocks", Json::U64(self.blocks as u64))
            .set("reps", Json::U64(self.reps as u64))
            .set("wall_ns", Json::U64(self.wall_ns))
            .set("blocks_per_s", Json::F64(self.blocks_per_s))
            .set("mb_per_s", Json::F64(self.mb_per_s));
        match self.modeled_cycles {
            Some(c) => doc.set("modeled_cycles", Json::U64(c)),
            None => doc,
        }
    }
}

struct Snapshot {
    schema: &'static str,
    smoke: bool,
    /// Full DSH lane decode on one reused lane through `Lane::run` — the
    /// JIT tier when compiled artifacts are live, the predecoded
    /// interpreter otherwise.
    lane_decode: Throughput,
    /// Same blocks with the predecoded interpreter forced
    /// (`Lane::run_into_interp`), i.e. `Lane::run` as of the predecode PR.
    lane_decode_interp: Option<Throughput>,
    /// Same blocks through the word-at-a-time reference interpreter
    /// (`Lane::run_reference`), the pre-predecode baseline path.
    lane_decode_reference: Option<Throughput>,
    /// What the lane moves besides decoding ([`lane_section`]).
    lane: Json,
    /// Compiled-tier inventory: lane images lowered, native bytes
    /// published, and the lane JIT's cost per Huffman symbol. Absent when
    /// the JIT is disabled or unsupported, so a `RECODE_NO_JIT=1` snapshot
    /// still parses.
    jit: Option<Json>,
    /// The codec's `FlatDecoder::decode_all` against `decode_all_scalar`
    /// over the `huffman_cpu` blocks.
    huffman_flat: Json,
    /// CPU pipeline Huffman decode stage (8 KB blocks).
    huffman_cpu: Throughput,
    /// CPU pipeline Snappy decode stage (32 KB blocks).
    snappy_cpu: Throughput,
    /// The encoder's three stages and its seal by name ([`encode_section`]).
    encode: [(&'static str, Throughput); 4],
    /// Statically certified cycle envelopes for the three lane programs the
    /// decoder runs. Pure verifier output — deterministic on every machine —
    /// so `bench-compare` gates each `*_cycles` leaf and an accidental
    /// certifier regression (a looser bound) fails the gate.
    certified_bounds: Json,
    /// What building a lane image costs the host ([`image_build_section`]).
    image_build: Json,
    /// The same build by phase ([`setup_section`]).
    setup: Json,
}

/// Per-stage certified envelope parameters as a JSON object keyed by stage
/// name. Leaf names end in `_cycles` on purpose: the `bench-compare` policy
/// auto-gates those (lower-is-better), so a certifier change that loosens a
/// bound trips the gate instead of drifting silently.
fn certified_bounds_json(decoder: &DshDecoder) -> Json {
    let mut doc = Json::obj();
    for (name, img) in
        [("huffman", &decoder.huffman), ("snappy", &decoder.snappy), ("delta", &decoder.delta)]
    {
        let Some(img) = img else { continue };
        let Some(bound) = img.verify_report.cycle_bound else { continue };
        let mut stage = Json::obj().set("min_cycles", Json::U64(bound.min));
        if let Some(max) = bound.max {
            stage = stage
                .set("max_fixed_cycles", Json::U64(max.fixed))
                .set("max_per_bit_cycles", Json::U64(max.per_input_bit));
        }
        doc = doc.set(name, stage);
    }
    doc
}

impl Snapshot {
    /// The snapshot as the tree `bench-compare` reads back.
    fn to_json(&self) -> Json {
        let mut doc = Json::obj()
            .set("schema", Json::Str(self.schema.to_string()))
            .set("smoke", Json::Bool(self.smoke))
            .set("lane_decode", self.lane_decode.to_json());
        if let Some(r) = &self.lane_decode_interp {
            doc = doc.set("lane_decode_interp", r.to_json());
        }
        if let Some(r) = &self.lane_decode_reference {
            doc = doc.set("lane_decode_reference", r.to_json());
        }
        doc = doc.set("lane", self.lane.clone());
        if let Some(j) = &self.jit {
            doc = doc.set("jit", j.clone());
        }
        doc.set("huffman_flat", self.huffman_flat.clone())
            .set("huffman_cpu", self.huffman_cpu.to_json())
            .set("snappy_cpu", self.snappy_cpu.to_json())
            .set(
                "encode",
                self.encode.iter().fold(Json::obj(), |doc, (stage, t)| doc.set(stage, t.to_json())),
            )
            .set("certified_bounds", self.certified_bounds.clone())
            .set("image_build", self.image_build.clone())
            .set("setup", self.setup.clone())
    }
}

/// Tridiagonal-ish column indices as LE u32 words — the same shape the
/// pipeline tests use, representative of FEM index streams.
fn banded_index_stream(n: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(n * 4);
    for i in 0..n {
        let base = (i / 3) as u32;
        let col = base + (i % 3) as u32;
        out.extend_from_slice(&col.to_le_bytes());
    }
    out
}

/// Skewed byte stream (what post-delta/snappy data looks like to Huffman).
fn skewed_stream(n: usize) -> Vec<u8> {
    (0..n).map(|i| if i % 17 == 0 { 99 } else { (i % 5) as u8 }).collect()
}

/// Times `reps` passes of `pass()` (which must decode every block once and
/// return the uncompressed bytes produced).
fn measure(blocks: usize, reps: usize, mut pass: impl FnMut() -> usize) -> Throughput {
    // One warm-up pass so allocator/cache state is steady.
    let mut bytes = pass();
    let t0 = Instant::now();
    for _ in 0..reps {
        bytes = pass();
    }
    let wall_ns = t0.elapsed().as_nanos() as u64;
    let secs = wall_ns as f64 / 1e9;
    Throughput {
        blocks,
        reps,
        wall_ns,
        blocks_per_s: (blocks * reps) as f64 / secs,
        mb_per_s: (bytes * reps) as f64 / 1e6 / secs,
        modeled_cycles: None,
    }
}

/// Decodes every block once, returning `(uncompressed bytes, modeled lane
/// cycles)`. The cycle count is identical on every pass.
fn lane_pass(
    decoder: &DshDecoder,
    blocks: &[recode_codec::block::CompressedBlock],
) -> (usize, u64) {
    let mut lane = Lane::new();
    let mut bytes = 0usize;
    let mut cycles = 0u64;
    for b in blocks {
        let o = decoder.decode_block(&mut lane, b).expect("bench blocks decode");
        bytes += o.output.len();
        cycles += o.cycles;
        std::hint::black_box(&o.output);
    }
    (bytes, cycles)
}

/// The same DSH stage chain as [`lane_pass`], but with the predecoded
/// interpreter forced (`Lane::run_into_interp`) — exactly what `Lane::run`
/// executed before the JIT tier, and what it still runs under
/// `RECODE_NO_JIT=1` or on non-x86-64 hosts. Checksum verification is kept
/// so all passes do identical non-interpreter work.
fn interp_pass(
    decoder: &DshDecoder,
    blocks: &[recode_codec::block::CompressedBlock],
) -> (usize, u64) {
    let cfg = RunConfig::default();
    let mut lane = Lane::new();
    let mut bytes = 0usize;
    let mut cycles = 0u64;
    for b in blocks {
        b.verify_checksum().expect("bench blocks are well-formed");
        let mut cur: Vec<u8> = Vec::new();
        let mut bits = b.bit_len;
        let mut first = true;
        for img in [&decoder.huffman, &decoder.snappy, &decoder.delta].into_iter().flatten() {
            let mut out = Vec::new();
            let input: &[u8] = if first { &b.payload } else { &cur };
            let s = lane.run_into_interp(img, input, bits, cfg, &mut out).expect("blocks decode");
            cycles += s.cycles;
            cur = out;
            bits = cur.len() * 8;
            first = false;
        }
        bytes += cur.len();
        std::hint::black_box(&cur);
    }
    (bytes, cycles)
}

/// The scratchpad bytes a lane's prologue zeroes per stage run
/// (informational), over one pass of `blocks` on one lane: what the
/// dirty-granule mask leaves of the 64 KB a run could dirty.
fn lane_section(decoder: &DshDecoder, blocks: &[recode_codec::block::CompressedBlock]) -> Json {
    let mut lane = Lane::new();
    for b in blocks {
        decoder.decode_block(&mut lane, b).expect("bench blocks decode");
    }
    let stages = [&decoder.huffman, &decoder.snappy, &decoder.delta].into_iter().flatten().count();
    let runs = (blocks.len() * stages).max(1);
    Json::obj().set(
        "prologue_clear_bytes_per_run",
        Json::F64(lane.prologue_clear_bytes() as f64 / runs as f64),
    )
}

/// Compiled-tier inventory for the decoder's lane images, plus what a
/// Huffman symbol costs the lane JIT ([`huffman_random_section`]).
fn jit_section(decoder: &DshDecoder, reps: usize) -> Json {
    type Leaf = fn(&LaneJit) -> usize;
    let jits: Vec<&LaneJit> = [&decoder.huffman, &decoder.snappy, &decoder.delta]
        .into_iter()
        .flatten()
        .filter_map(|img| img.jit())
        .collect();
    let inventory: [(&str, Leaf); 7] = [
        ("lane_images", |_| 1),
        ("lane_blocks_lowered", LaneJit::blocks_lowered),
        ("lane_code_bytes", LaneJit::code_bytes),
        ("lane_hot_code_bytes", LaneJit::hot_code_bytes),
        ("lane_table_groups", LaneJit::table_groups),
        ("lane_table_bytes", LaneJit::table_bytes),
        ("lane_composed_table_bytes", LaneJit::composed_table_bytes),
    ];
    let section = inventory.into_iter().fold(Json::obj(), |section, (leaf, of)| {
        section.set(leaf, Json::U64(jits.iter().map(|jit| of(jit) as u64).sum()))
    });
    section.set("huffman_random", huffman_random_section(reps))
}

/// The codec's Huffman `FlatDecoder` (`decode_all`: fast region, then the
/// one-symbol-at-a-time loop for the tail) against that loop alone
/// (`decode_all_scalar`) over the same encoded blocks. Host wall-clock —
/// informational under the `bench-compare` policy, like every other
/// throughput reading here.
fn huffman_flat_section(
    flat: &recode_codec::huffman::FlatDecoder,
    huff_blocks: &[recode_codec::block::CompressedBlock],
    reps: usize,
) -> Json {
    let fast = measure(huff_blocks.len(), reps, || {
        huff_blocks
            .iter()
            .map(|b| flat.decode_all(&b.payload, b.bit_len).expect("flat decode").len())
            .sum()
    });
    let reference = measure(huff_blocks.len(), reps, || {
        huff_blocks
            .iter()
            .map(|b| flat.decode_all_scalar(&b.payload, b.bit_len).expect("scalar decode").len())
            .sum()
    });
    Json::obj()
        .set("mb_per_s", Json::F64(fast.mb_per_s))
        .set("wall_ns", Json::U64(fast.wall_ns))
        .set("reference_mb_per_s", Json::F64(reference.mb_per_s))
        .set("reference_wall_ns", Json::U64(reference.wall_ns))
}

/// What a Huffman symbol costs the lane JIT on the host, against the share of
/// symbols whose code is longer than the 8-bit primary dispatch: the
/// `ns_per_symbol_long_{0,12,25}` leaves, for tables that put 0, 12.5 and 25 %
/// of the symbols drawn on 9-bit codes. Every reading is the fastest of
/// `reps + 1` passes over 64 *distinct* random blocks of 8,192 symbols, so the
/// branch predictor cannot learn the stream (a loop over one block lets it).
/// Host wall-clock, informational under `bench-compare`.
fn huffman_random_section(reps: usize) -> Json {
    const BLOCKS: usize = 64;
    const SYMBOLS: usize = 8192;
    let mut rng = SplitMix64::new(0x010C_0DE5);
    let mut section = Json::obj();
    for nine_bit in [0usize, 64, 128] {
        // `nine_bit` 9-bit codes and half as many 7-bit ones among 8-bit
        // codes: Kraft-complete over all 256 symbols, and `nine_bit / 512` of
        // the probability the lengths imply sits on the 9-bit codes.
        let mut lengths = vec![8u8; 256];
        lengths[..nine_bit / 2].fill(7);
        lengths[256 - nine_bit..].fill(9);
        let table = HuffmanTable::from_lengths(lengths.clone()).expect("a complete length table");
        let image = progs::huffman::compile(&lengths).expect("compile the decoder");
        let by_window: Vec<u8> = (0..=255u8)
            .flat_map(|s| std::iter::repeat_n(s, 1 << (9 - lengths[usize::from(s)])))
            .collect();
        let blocks: Vec<(Vec<u8>, usize)> = (0..BLOCKS)
            .map(|_| {
                let data: Vec<u8> = (0..SYMBOLS).map(|_| by_window[rng.below(512)]).collect();
                huffman::encode(&data, &table).expect("every symbol has a code")
            })
            .collect();
        let mut lane = Lane::new();
        let mut out = Vec::new();
        let mut best = u128::MAX;
        for _ in 0..=reps {
            let t0 = Instant::now();
            for (bytes, bits) in &blocks {
                lane.run_into(&image, bytes, *bits, RunConfig::default(), &mut out)
                    .expect("intact blocks decode");
                std::hint::black_box(&out);
            }
            best = best.min(t0.elapsed().as_nanos());
        }
        section = section.set(
            &format!("ns_per_symbol_long_{}", nine_bit * 100 / 512),
            Json::F64(best as f64 / (BLOCKS * SYMBOLS) as f64),
        );
    }
    section
}

/// What the encoder's stages cost the host, in MB/s of each stage's input,
/// over the index stream's 8 KB blocks as the DSH pipeline feeds them: delta
/// over the raw blocks, Snappy (one match table for the whole stream) over
/// the delta output, Huffman with the trained `table` over the Snappy
/// output — and the CRC32c over the DSH `blocks`' payloads, which seals each
/// block and is checked again before every lane decode. Host wall-clock,
/// informational under `bench-compare`.
fn encode_section(
    index_data: &[u8],
    table: &HuffmanTable,
    blocks: &[recode_codec::block::CompressedBlock],
    reps: usize,
) -> [(&'static str, Throughput); 4] {
    let raw: Vec<&[u8]> = index_data.chunks(UDP_BLOCK_BYTES).collect();
    let after_delta: Vec<Vec<u8>> =
        raw.iter().map(|b| delta::encode_bytes(b).expect("whole words")).collect();
    let after_snappy: Vec<Vec<u8>> = after_delta.iter().map(|b| snappy::compress(b)).collect();
    let mut out = Vec::new();
    let delta = measure(raw.len(), reps, || {
        raw.iter()
            .map(|b| {
                delta::encode_bytes_into(b, &mut out).expect("whole words");
                std::hint::black_box(&out);
                b.len()
            })
            .sum()
    });
    let mut matcher = snappy::Matcher::new();
    let snappy = measure(raw.len(), reps, || {
        after_delta
            .iter()
            .map(|b| {
                matcher.compress_into(b, &mut out);
                std::hint::black_box(&out);
                b.len()
            })
            .sum()
    });
    let huffman = measure(raw.len(), reps, || {
        after_snappy
            .iter()
            .map(|b| {
                std::hint::black_box(huffman::encode(b, table).expect("every byte has a code"));
                b.len()
            })
            .sum()
    });
    let crc = measure(blocks.len(), reps, || {
        blocks
            .iter()
            .map(|b| {
                std::hint::black_box(crc32c(&b.payload));
                b.payload.len()
            })
            .sum()
    });
    [("delta", delta), ("snappy", snappy), ("huffman", huffman), ("crc32c", crc)]
}

/// What `progs::huffman::compile` costs on the trained table — program,
/// placement, encoding, verifier and JIT — as the median of five calls, in
/// microseconds. Host wall-clock, informational under `bench-compare`; the
/// verifier's share is guarded without a clock by its join count
/// (`VerifyReport::fixpoint_joins`).
fn image_build_section(lengths: &[u8]) -> Json {
    let mut us: Vec<f64> = (0..5)
        .map(|_| {
            let t0 = Instant::now();
            std::hint::black_box(progs::huffman::compile(lengths).expect("compile the decoder"));
            t0.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    us.sort_by(f64::total_cmp);
    Json::obj().set("huffman_us", Json::F64(us[2]))
}

/// What one compiled Huffman image for the trained table costs set-up, by
/// phase, as the median of five builds in milliseconds: the program and
/// its EffCLiP placement; lowering — word encoding, predecode and JIT
/// (`machine::encode` less its `verify_image`); and `verify_image`, timed on
/// its own over the encoded image. Host wall-clock, informational under
/// `bench-compare`.
fn setup_section(lengths: &[u8]) -> Json {
    let median = |mut ms: Vec<f64>| {
        ms.sort_by(f64::total_cmp);
        Json::F64(ms[ms.len() / 2])
    };
    let ms = |t0: Instant| t0.elapsed().as_secs_f64() * 1e3;
    let (mut place, mut lower, mut verify) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..5 {
        let t0 = Instant::now();
        let program = progs::huffman::program(lengths, 8).expect("the trained table compiles");
        let placement = effclip::place(&program).expect("the program places");
        place.push(ms(t0));
        let t0 = Instant::now();
        let image = machine::encode(&program, &placement).expect("the program encodes");
        let encode = ms(t0);
        let t0 = Instant::now();
        std::hint::black_box(verify::verify_image(&program, &placement, &image));
        let checked = ms(t0);
        lower.push(encode - checked);
        verify.push(checked);
    }
    let decoder = Json::obj()
        .set("compile_place_ms", median(place))
        .set("lowering_ms", median(lower))
        .set("verify_ms", median(verify));
    Json::obj().set("huffman_decoder", decoder)
}

/// The same DSH stage chain as [`lane_pass`], but through
/// `Lane::run_reference` — the word-at-a-time interpreter `run` used before
/// images were predecoded. Checksum verification is kept so both passes do
/// identical non-interpreter work.
fn reference_pass(
    decoder: &DshDecoder,
    blocks: &[recode_codec::block::CompressedBlock],
) -> (usize, u64) {
    let cfg = RunConfig::default();
    let mut lane = Lane::new();
    let mut bytes = 0usize;
    let mut cycles = 0u64;
    for b in blocks {
        b.verify_checksum().expect("bench blocks are well-formed");
        let mut cur: Vec<u8> = Vec::new();
        let mut bits = b.bit_len;
        let mut first = true;
        for img in [&decoder.huffman, &decoder.snappy, &decoder.delta].into_iter().flatten() {
            let input: &[u8] = if first { &b.payload } else { &cur };
            let r = lane.run_reference(img, input, bits, cfg).expect("bench blocks decode");
            cycles += r.cycles;
            cur = r.output;
            bits = cur.len() * 8;
            first = false;
        }
        bytes += cur.len();
        std::hint::black_box(&cur);
    }
    (bytes, cycles)
}

fn cpu_pass(pipe: &Pipeline, blocks: &[recode_codec::block::CompressedBlock]) -> usize {
    let mut bytes = 0usize;
    for b in blocks {
        let out = pipe.decode_block(b).expect("bench blocks decode");
        bytes += out.len();
        std::hint::black_box(&out);
    }
    bytes
}

fn main() {
    let (mut args, usage) = recode_bench::command_line("[--json PATH] [--smoke]");
    let smoke = args.switch("--smoke");
    let json = args.value("--json", "a path").unwrap_or_else(|e| e.exit(&usage));
    let json = json.unwrap_or_else(|| PathBuf::from("BENCH_hotpath.json"));
    args.finish().unwrap_or_else(|e| e.exit(&usage));

    // Corpus sizes: enough blocks that per-block setup cost dominates noise,
    // small enough that a smoke run stays in CI budget.
    let (nnz, reps) = if smoke { (64_000, 3) } else { (512_000, 10) };
    let index_data = banded_index_stream(nnz);

    // 1) Lane interpreter over full-DSH blocks.
    let dsh_cfg = PipelineConfig::dsh_udp();
    let dsh_pipe = Pipeline::train(dsh_cfg, &index_data).expect("train dsh");
    let dsh_stream = dsh_pipe.encode_stream(&index_data).expect("encode dsh");
    let decoder = DshDecoder::new(dsh_cfg, dsh_pipe.table().map(|t| t.lengths.as_slice()))
        .expect("build decoder");
    let mut lane_cycles = 0u64;
    let mut lane_decode = measure(dsh_stream.blocks.len(), reps, || {
        let (bytes, cycles) = lane_pass(&decoder, &dsh_stream.blocks);
        lane_cycles = cycles;
        bytes
    });
    lane_decode.modeled_cycles = Some(lane_cycles);
    let mut interp_cycles = 0u64;
    let mut lane_decode_interp = measure(dsh_stream.blocks.len(), reps, || {
        let (bytes, cycles) = interp_pass(&decoder, &dsh_stream.blocks);
        interp_cycles = cycles;
        bytes
    });
    lane_decode_interp.modeled_cycles = Some(interp_cycles);
    let mut reference_cycles = 0u64;
    let mut lane_decode_reference = measure(dsh_stream.blocks.len(), reps, || {
        let (bytes, cycles) = reference_pass(&decoder, &dsh_stream.blocks);
        reference_cycles = cycles;
        bytes
    });
    lane_decode_reference.modeled_cycles = Some(reference_cycles);
    // The tiers are different execution strategies for one machine model:
    // any cycle drift between them is a lowering bug, not a perf result.
    assert_eq!(lane_cycles, interp_cycles, "jit and interpreter modeled cycles diverge");
    assert_eq!(lane_cycles, reference_cycles, "interpreter and reference modeled cycles diverge");

    // 2) CPU Huffman decode (huffman-only pipeline, 8 KB blocks).
    let huff_cfg = PipelineConfig {
        delta: false,
        snappy: false,
        huffman: true,
        block_bytes: 8192,
        huffman_sample_every: 3,
    };
    let huff_data = skewed_stream(nnz * 4);
    let huff_pipe = Pipeline::train(huff_cfg, &huff_data).expect("train huffman");
    let huff_stream = huff_pipe.encode_stream(&huff_data).expect("encode huffman");
    let huffman_cpu =
        measure(huff_stream.blocks.len(), reps, || cpu_pass(&huff_pipe, &huff_stream.blocks));
    let flat = recode_codec::huffman::FlatDecoder::build(
        huff_pipe.table().expect("huffman-only pipeline has a table"),
    );
    let huffman_flat = huffman_flat_section(&flat, &huff_stream.blocks, reps);
    let jit = recode_udp::jit::enabled().then(|| jit_section(&decoder, reps));

    // 3) CPU Snappy decode (the paper's CPU baseline config, 32 KB blocks).
    let snap_cfg = PipelineConfig::snappy_cpu();
    let snap_pipe = Pipeline::train(snap_cfg, &index_data).expect("train snappy");
    let snap_stream = snap_pipe.encode_stream(&index_data).expect("encode snappy");
    let snappy_cpu =
        measure(snap_stream.blocks.len(), reps, || cpu_pass(&snap_pipe, &snap_stream.blocks));

    let dsh_table = dsh_pipe.table().expect("dsh trains a table");
    let encode = encode_section(&index_data, dsh_table, &dsh_stream.blocks, reps);

    let snap = Snapshot {
        schema: "recode-bench-hotpath/v1",
        smoke,
        lane_decode,
        lane_decode_interp: Some(lane_decode_interp),
        lane_decode_reference: Some(lane_decode_reference),
        lane: lane_section(&decoder, &dsh_stream.blocks),
        jit,
        huffman_flat,
        huffman_cpu,
        snappy_cpu,
        encode,
        certified_bounds: certified_bounds_json(&decoder),
        image_build: image_build_section(&dsh_table.lengths),
        setup: setup_section(&dsh_table.lengths),
    };
    eprintln!(
        "lane_decode      {:>12.0} blocks/s  {:>8.1} MB/s  (jit {})",
        snap.lane_decode.blocks_per_s,
        snap.lane_decode.mb_per_s,
        if recode_udp::jit::enabled() { "on" } else { "off" }
    );
    if let Some(r) = &snap.lane_decode_interp {
        eprintln!("lane_interp      {:>12.0} blocks/s  {:>8.1} MB/s", r.blocks_per_s, r.mb_per_s);
    }
    if let Some(r) = &snap.lane_decode_reference {
        eprintln!("lane_reference   {:>12.0} blocks/s  {:>8.1} MB/s", r.blocks_per_s, r.mb_per_s);
    }
    eprintln!(
        "huffman_cpu      {:>12.0} blocks/s  {:>8.1} MB/s",
        snap.huffman_cpu.blocks_per_s, snap.huffman_cpu.mb_per_s
    );
    eprintln!(
        "snappy_cpu       {:>12.0} blocks/s  {:>8.1} MB/s",
        snap.snappy_cpu.blocks_per_s, snap.snappy_cpu.mb_per_s
    );
    for (stage, t) in &snap.encode {
        eprintln!(
            "{:<16} {:>12.0} blocks/s  {:>8.1} MB/s",
            format!("encode.{stage}"),
            t.blocks_per_s,
            t.mb_per_s
        );
    }
    eprintln!("setup            {}", snap.setup);
    let text = snap.to_json().to_string_pretty();
    std::fs::write(&json, &text).expect("write BENCH_hotpath.json");
    println!("{text}");
    eprintln!("wrote {}", json.display());
}
