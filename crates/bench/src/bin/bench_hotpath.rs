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
//! than the primary dispatch width. These are *host* numbers: modeled lane
//! cycles are pinned by the golden trace fixture, must not move when these
//! get faster, and must be byte-identical across all three tiers.
//!
//! Usage: `bench_hotpath [--json PATH] [--smoke]`
//! (`--smoke` shrinks the corpus and repetitions for CI).

use recode_codec::huffman::{self, HuffmanTable};
use recode_codec::pipeline::{Pipeline, PipelineConfig};
use recode_core::json::Json;
use recode_sparse::util::SplitMix64;
use recode_udp::jit::LaneJit;
use recode_udp::lane::{Lane, RunConfig};
use recode_udp::progs::{self, DshDecoder};
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
    /// Statically certified cycle envelopes for the three lane programs the
    /// decoder runs. Pure verifier output — deterministic on every machine —
    /// so `bench-compare` gates each `*_cycles` leaf and an accidental
    /// certifier regression (a looser bound) fails the gate.
    certified_bounds: Json,
    /// What building a lane image costs the host ([`image_build_section`]).
    image_build: Json,
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
        if let Some(j) = &self.jit {
            doc = doc.set("jit", j.clone());
        }
        doc.set("huffman_flat", self.huffman_flat.clone())
            .set("huffman_cpu", self.huffman_cpu.to_json())
            .set("snappy_cpu", self.snappy_cpu.to_json())
            .set("certified_bounds", self.certified_bounds.clone())
            .set("image_build", self.image_build.clone())
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

    let snap = Snapshot {
        schema: "recode-bench-hotpath/v1",
        smoke,
        lane_decode,
        lane_decode_interp: Some(lane_decode_interp),
        lane_decode_reference: Some(lane_decode_reference),
        jit,
        huffman_flat,
        huffman_cpu,
        snappy_cpu,
        certified_bounds: certified_bounds_json(&decoder),
        image_build: image_build_section(&dsh_pipe.table().expect("dsh trains a table").lengths),
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
    let text = snap.to_json().to_string_pretty();
    std::fs::write(&json, &text).expect("write BENCH_hotpath.json");
    println!("{text}");
    eprintln!("wrote {}", json.display());
}
