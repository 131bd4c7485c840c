//! Differential suite for the predecoded interpreter and the JIT tier
//! (ISSUEs 5 and 10).
//!
//! `Lane::run` executes the image's JIT artifact when one is present (and
//! falls back to the predecoded interpreter otherwise or on bail);
//! `Lane::run_into_interp` forces the predecoded interpreter; and
//! `Lane::run_reference` re-decodes every code word at dispatch time. These
//! tests drive all three tiers over every builtin decoder program (on real
//! encoded streams and on corrupted ones) and over the full 16-program
//! negative corpus, asserting bit-identical outputs, cycle counts, opclass
//! attribution — and identical traps. Any divergence means a lowering
//! changed machine semantics. Under `RECODE_NO_JIT=1` (CI's
//! interpreter-parity leg) the same suite pins the two interpreter paths.
//!
//! The compiled tier keeps the stream window in host registers, refills it
//! a word at a time from an out-of-line stub and leaves the stream's last
//! partial word to the scalar helpers (ISSUE 12), so the suite also sweeps
//! every stream operation over every width, start phase and input length
//! (`stream_ops_agree_at_every_width_phase_and_length`), pins the budget
//! edge, and counts helper calls over whole blocks.

use recode_codec::pipeline::{Pipeline, PipelineConfig};
use recode_udp::asm::assemble_text_with_map;
use recode_udp::effclip;
use recode_udp::isa::{Action, Block, Cond, Transition, Width};
use recode_udp::lane::{Lane, LaneError, RunConfig, RunResult};
use recode_udp::machine::{assemble, Image};
use recode_udp::program::ProgramBuilder;
use recode_udp::progs::DshDecoder;

/// Asserts two tiers agreed exactly — on success (output, cycles,
/// dispatches, actions, opclass) and on failure (the same `LaneError`).
fn assert_tiers_agree(
    a: &Result<RunResult, LaneError>,
    b: &Result<RunResult, LaneError>,
    pair: &str,
    context: &str,
) {
    match (a, b) {
        (Ok(f), Ok(s)) => {
            // The compiled tier derives `dispatches`, `actions` and the
            // dispatch class from its cycle and class counters; the
            // identities it relies on must hold on every tier.
            for r in [f, s] {
                assert_eq!(
                    r.cycles,
                    r.dispatches + r.actions,
                    "{context} [{pair}]: cycle identity"
                );
                assert_eq!(r.opclass.total(), r.cycles, "{context} [{pair}]: opclass identity");
            }
            assert_eq!(f.output, s.output, "{context} [{pair}]: outputs diverge");
            assert_eq!(f.cycles, s.cycles, "{context} [{pair}]: cycles diverge");
            assert_eq!(f.dispatches, s.dispatches, "{context} [{pair}]: dispatches diverge");
            assert_eq!(f.actions, s.actions, "{context} [{pair}]: actions diverge");
            assert_eq!(f.opclass, s.opclass, "{context} [{pair}]: opclass attribution diverges");
        }
        (Err(f), Err(s)) => assert_eq!(f, s, "{context} [{pair}]: traps diverge"),
        _ => panic!("{context} [{pair}]: one tier trapped, the other did not: {a:?} vs {b:?}"),
    }
}

/// Runs `image` over `input` on all three tiers — `run` (JIT when present),
/// the forced predecoded interpreter, and the word-at-a-time reference —
/// and asserts pairwise agreement. Returns the agreed result so callers can
/// chain stages.
fn differential(
    image: &Image,
    input: &[u8],
    input_bits: usize,
    cfg: RunConfig,
    context: &str,
) -> Result<RunResult, LaneError> {
    let mut lanes = [Lane::new(), Lane::new(), Lane::new()];
    differential_on(&mut lanes, image, input, input_bits, cfg, context)
}

/// [`differential`] on caller-owned lanes, one per tier: a sweep of many
/// small runs then also exercises lane recycling (the dirty high-water mark
/// each tier hands to the next prologue).
fn differential_on(
    lanes: &mut [Lane; 3],
    image: &Image,
    input: &[u8],
    input_bits: usize,
    cfg: RunConfig,
    context: &str,
) -> Result<RunResult, LaneError> {
    // When the JIT tier is live, images assembled here must actually carry
    // an artifact — otherwise this suite would silently degrade to a
    // two-way interpreter comparison and prove nothing about the JIT.
    if recode_codec::jit::enabled() {
        assert!(image.jit().is_some(), "{context}: image `{}` has no JIT artifact", image.name);
    }
    let [fast_lane, interp_lane, slow_lane] = lanes;
    let fast = fast_lane.run(image, input, input_bits, cfg);
    let interp = {
        let mut out = Vec::new();
        interp_lane.run_into_interp(image, input, input_bits, cfg, &mut out).map(|s| RunResult {
            cycles: s.cycles,
            dispatches: s.dispatches,
            actions: s.actions,
            opclass: s.opclass,
            output: out,
        })
    };
    let slow = slow_lane.run_reference(image, input, input_bits, cfg);
    assert_tiers_agree(&fast, &interp, "run vs interp", context);
    assert_tiers_agree(&fast, &slow, "run vs reference", context);
    fast
}

/// Exhaustive static check: at every code address the predecoded record
/// must agree with a fresh word-at-a-time decode — same occupied actions,
/// same transition, and `None` exactly where `decode` fails.
fn assert_predecode_agrees_everywhere(image: &Image) {
    for addr in 0..image.words.len() as u32 {
        let slow = image.decode(addr);
        let fast = image.predecoded(addr);
        match (&slow, fast) {
            (Some(d), Some(p)) => {
                assert_eq!(d.actions.as_slice(), p.actions(), "{}@{addr}: actions", image.name);
                assert_eq!(d.transition, p.transition, "{}@{addr}: transition", image.name);
            }
            (None, None) => {}
            _ => panic!("{}@{addr}: decode()={slow:?} but predecoded()={fast:?}", image.name),
        }
    }
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

/// Encodes `data` under `config`, then pushes every block through every
/// enabled stage image on both interpreter paths, chaining the agreed
/// output into the next stage exactly as `DshDecoder::decode_block` does.
fn differential_over_stream(config: PipelineConfig, data: &[u8]) {
    let pipe = Pipeline::train(config, data).unwrap();
    let stream = pipe.encode_stream(data).unwrap();
    let decoder = DshDecoder::new(config, pipe.table().map(|t| t.lengths.as_slice())).unwrap();
    let cfg = RunConfig::default();
    for img in [&decoder.huffman, &decoder.snappy, &decoder.delta].into_iter().flatten() {
        assert_predecode_agrees_everywhere(img);
    }
    let mut decoded = Vec::new();
    for (i, block) in stream.blocks.iter().enumerate() {
        let mut cur = block.payload.clone();
        let mut bits = block.bit_len;
        for (stage, img) in
            [("huffman", &decoder.huffman), ("snappy", &decoder.snappy), ("delta", &decoder.delta)]
        {
            let Some(img) = img else { continue };
            let r = differential(img, &cur, bits, cfg, &format!("block {i} stage {stage}"))
                .unwrap_or_else(|e| panic!("block {i} stage {stage} trapped: {e:?}"));
            cur = r.output;
            bits = cur.len() * 8;
        }
        decoded.extend_from_slice(&cur);
    }
    assert_eq!(decoded, data, "chained differential decode must equal encoder input");
}

#[test]
fn builtin_dsh_pipeline_paths_agree() {
    differential_over_stream(PipelineConfig::dsh_udp(), &banded_index_stream(6000));
}

#[test]
fn builtin_snappy_huffman_paths_agree() {
    let vals = [1.5f64, -0.25, 1.5, 3.0];
    let data: Vec<u8> = (0..3000).flat_map(|i| vals[i % 4].to_le_bytes()).collect();
    differential_over_stream(PipelineConfig::sh_udp(), &data);
}

#[test]
fn builtin_delta_snappy_paths_agree() {
    differential_over_stream(PipelineConfig::ds_udp(), &banded_index_stream(4000));
}

#[test]
fn corrupted_payloads_trap_identically() {
    // Resealed corruption slips past the CRC and reaches the lane; both
    // interpreter paths must agree on exactly how each mutation fails (or
    // doesn't — some flips decode to garbage without trapping).
    let data = banded_index_stream(4000);
    let config = PipelineConfig::dsh_udp();
    let pipe = Pipeline::train(config, &data).unwrap();
    let stream = pipe.encode_stream(&data).unwrap();
    let decoder = DshDecoder::new(config, pipe.table().map(|t| t.lengths.as_slice())).unwrap();
    let img = decoder.huffman.as_ref().unwrap();
    let cfg = RunConfig::default();
    let block = &stream.blocks[0];
    for i in 0..block.payload.len().min(24) {
        let mut payload = block.payload.clone();
        payload[i] ^= 0xA5;
        let _ = differential(img, &payload, block.bit_len, cfg, &format!("flip byte {i}"));
    }
    // Truncations exercise end-of-stream handling in both paths.
    for cut in [1usize, 3, 8, 17] {
        if cut >= block.bit_len {
            continue;
        }
        let bits = block.bit_len - cut;
        let payload = &block.payload[..bits.div_ceil(8)];
        let _ = differential(img, payload, bits, cfg, &format!("truncate {cut} bits"));
    }
}

/// The full ISSUE-4 negative corpus: deliberately broken programs, run with
/// the verifier gate bypassed. Whatever each one does — trap, halt with
/// output, burn the cycle budget — both interpreter paths must do the same.
#[test]
fn negative_corpus_paths_agree() {
    let corpus: [(&str, &str); 16] = [
        ("bad_output", include_str!("corpus/bad_output.udp")),
        ("budget_overflow_loop", include_str!("corpus/budget_overflow_loop.udp")),
        ("dead_write", include_str!("corpus/dead_write.udp")),
        ("dispatch_per_bit", include_str!("corpus/dispatch_per_bit.udp")),
        ("empty_group", include_str!("corpus/empty_group.udp")),
        ("incomplete_dispatch", include_str!("corpus/incomplete_dispatch.udp")),
        ("infinite_loop", include_str!("corpus/infinite_loop.udp")),
        ("invariant_exit", include_str!("corpus/invariant_exit.udp")),
        ("oob_store", include_str!("corpus/oob_store.udp")),
        ("predecode_tamper", include_str!("corpus/predecode_tamper.udp")),
        ("stream_loop_no_inrem", include_str!("corpus/stream_loop_no_inrem.udp")),
        ("unboundable_loop", include_str!("corpus/unboundable_loop.udp")),
        ("uninit_read", include_str!("corpus/uninit_read.udp")),
        ("unreachable_block", include_str!("corpus/unreachable_block.udp")),
        ("unselectable_slot", include_str!("corpus/unselectable_slot.udp")),
        ("write_r0", include_str!("corpus/write_r0.udp")),
    ];
    // A small cycle budget keeps the diverging programs cheap while still
    // requiring both paths to hit the limit at the same instant.
    let cfg = RunConfig { cycle_limit: 50_000, allow_unverified: true, ..Default::default() };
    let inputs: [&[u8]; 4] = [
        &[],
        &[0u8; 16],
        &[0xFF; 16],
        &[0x00, 0x01, 0x02, 0x03, 0x5A, 0xA5, 0x80, 0x7F, 0xFE, 0x01, 0x10, 0x20],
    ];
    for (name, src) in corpus {
        let (program, _) =
            assemble_text_with_map(name, src).unwrap_or_else(|e| panic!("{name}: {e}"));
        let image = assemble(&program).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_predecode_agrees_everywhere(&image);
        for (k, input) in inputs.iter().enumerate() {
            let _ = differential(&image, input, input.len() * 8, cfg, &format!("{name} input {k}"));
            // A non-byte-aligned bit length exercises stream tail masking.
            if !input.is_empty() {
                let bits = input.len() * 8 - 3;
                let _ = differential(&image, input, bits, cfg, &format!("{name} input {k} ragged"));
            }
        }
    }
}

/// The stream operations the sweep drives, by what one loop iteration does.
#[derive(Clone, Copy, Debug)]
enum StreamLoop {
    /// `insym r4, n`
    Read(u8),
    /// `peek r4, n; skip n`
    PeekSkip(u8),
    /// `insymle r4, k`
    ReadLe(u8),
}

/// Overwrites the 6-bit width field at bit `shift` of action slot `slot`.
fn patch_width(word: &mut u128, slot: u32, shift: u32, width: u8) {
    let at = 24 * slot + shift;
    *word = (*word & !(0x3Fu128 << at)) | (u128::from(width) << at);
}

/// A loop that starts `phase` bits into the stream and stores one 8-byte
/// word per iteration of `op`. Guarded, it stops when fewer bits remain
/// than an iteration consumes and finishes with one more (zero-padded) peek;
/// unguarded, it runs into the stream underflow. Widths above the ISA's 32
/// do not pass `Action::validate`, so the program is assembled with width 1
/// and the width fields are patched in the code words.
fn stream_loop_image(op: StreamLoop, phase: u8, guarded: bool) -> Image {
    const STORE: Action = Action::StoreInc { rs: 4, base: 2, width: Width::B8 };
    let (consumed, actions) = match op {
        StreamLoop::Read(n) => (n, vec![Action::InSym { rd: 4, bits: 1 }, STORE]),
        StreamLoop::PeekSkip(n) => {
            (n, vec![Action::PeekSym { rd: 4, bits: 1 }, Action::SkipSym { bits: 1 }, STORE])
        }
        StreamLoop::ReadLe(k) => (8 * k, vec![Action::InSymLe { rd: 4, bytes: k }, STORE]),
    };
    let mut pb = ProgramBuilder::new("stream-loop");
    let done = pb.block(Block {
        actions: vec![
            Action::PeekSym { rd: 4, bits: 1 },
            STORE,
            Action::Sub { rd: 15, rs: 2, rt: 14 },
        ],
        transition: Transition::Halt,
    });
    let head = pb.reserve();
    let body = pb.block(Block { actions, transition: Transition::Jump(head) });
    let transition = if guarded {
        Transition::Branch { cond: Cond::Ltu, rs: 3, rt: 5, taken: done, fallthrough: body }
    } else {
        Transition::Jump(body)
    };
    pb.define(head, Block { actions: vec![Action::InRem { rd: 3 }], transition });
    let mut init =
        vec![Action::Mov { rd: 2, rs: 14 }, Action::LoadImm { rd: 5, imm: i16::from(consumed) }];
    if phase > 0 {
        init.push(Action::SkipSym { bits: phase });
    }
    let init = pb.block(Block { actions: init, transition: Transition::Jump(head) });
    pb.entry(init);
    let program = pb.build().unwrap();
    let placement = effclip::place(&program).unwrap();
    let image = assemble(&program).unwrap();

    let mut words = image.words.clone();
    let body_word = &mut words[placement.block_addr[body as usize] as usize];
    match op {
        StreamLoop::Read(n) => patch_width(body_word, 0, 9, n),
        StreamLoop::PeekSkip(n) => {
            patch_width(body_word, 0, 9, n);
            patch_width(body_word, 1, 13, n);
        }
        StreamLoop::ReadLe(_) => {}
    }
    patch_width(&mut words[placement.block_addr[done as usize] as usize], 0, 9, consumed.min(57));
    let patched = Image::from_words_for_test("stream-loop", words, image.entry);
    assert!(patched.predecoded(image.entry).is_some());
    patched
}

/// Every stream operation, at every width the buffered fast path serves
/// (1..=57 bits, `InSymLe` 1..=8 bytes), from every start phase `pos % 8`,
/// over inputs of 0..=24 bytes with a whole and a ragged `bit_len`: the
/// refill stub's last-word boundary, the helper-served tail, zero-padded
/// peeks past the end, and the underflow bail all fall inside this grid.
#[test]
fn stream_ops_agree_at_every_width_phase_and_length() {
    let mut x = 0x2545_F491u32;
    let bytes: Vec<u8> = (0..24)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 17;
            x ^= x << 5;
            (x >> 11) as u8
        })
        .collect();
    let ops = (1..=57)
        .flat_map(|n| [StreamLoop::Read(n), StreamLoop::PeekSkip(n)])
        .chain((1..=8).map(StreamLoop::ReadLe));
    let cfg = RunConfig::default();
    let mut lanes = [Lane::new(), Lane::new(), Lane::new()];
    let mut clean = 0usize;
    let mut underflowed = 0usize;
    for op in ops {
        for phase in 0..8u8 {
            for guarded in [true, false] {
                let image = stream_loop_image(op, phase, guarded);
                for len in 0..=bytes.len() {
                    for ragged in [0usize, 3] {
                        if ragged > len * 8 {
                            continue;
                        }
                        let bits = len * 8 - ragged;
                        let context = format!("{op:?} phase {phase} guarded {guarded} bits {bits}");
                        match differential_on(
                            &mut lanes,
                            &image,
                            &bytes[..len],
                            bits,
                            cfg,
                            &context,
                        ) {
                            Ok(_) => clean += 1,
                            Err(LaneError::StreamUnderflow { .. }) => underflowed += 1,
                            Err(e) => panic!("{context}: unexpected trap {e:?}"),
                        }
                    }
                }
            }
        }
    }
    // Guarded loops halt unless the phase skip itself underflows; unguarded
    // ones always run into the end of the stream.
    assert!(clean > 40_000 && underflowed > 40_000, "{clean} clean, {underflowed} underflowed");
}

/// The first 8 KiB block of a poorly compressible index stream, per builtin
/// stage: `(stage, image, input, input bits)`, each stage fed the previous
/// stage's decoded output. Irregular strides keep Snappy on literals, so
/// all three images see thousands of stream operations.
fn builtin_stage_inputs() -> Vec<(&'static str, Image, Vec<u8>, usize)> {
    let mut x = 0x1234_5678u32;
    let mut col = 0u32;
    let data: Vec<u8> = (0..6000)
        .flat_map(|_| {
            x = x.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            col = col.wrapping_add(1 + (x >> 20));
            col.to_le_bytes()
        })
        .collect();
    let config = PipelineConfig::dsh_udp();
    let pipe = Pipeline::train(config, &data).unwrap();
    let stream = pipe.encode_stream(&data).unwrap();
    let decoder = DshDecoder::new(config, pipe.table().map(|t| t.lengths.as_slice())).unwrap();
    let block = &stream.blocks[0];
    let (mut cur, mut bits) = (block.payload.clone(), block.bit_len);
    let mut stages = Vec::new();
    for (stage, img) in
        [("huffman", decoder.huffman), ("snappy", decoder.snappy), ("delta", decoder.delta)]
    {
        let img = img.expect("dsh builds all three stages");
        let out = Lane::new().run(&img, &cur, bits, RunConfig::default()).unwrap().output;
        stages.push((stage, img, std::mem::replace(&mut cur, out), bits));
        bits = cur.len() * 8;
    }
    stages
}

/// The budget compare sits at block entry on a register-held counter. A
/// limit of exactly the run's cycles must pass on every tier, one less must
/// trap on every tier — and so must the certified minimum, which no real
/// block gets near.
#[test]
fn budget_edge_is_exact_on_every_tier() {
    for (stage, image, input, bits) in builtin_stage_inputs() {
        let exact = differential(&image, &input, bits, RunConfig::default(), stage).unwrap().cycles;
        let min = image.verify_report.cycle_bound.expect("builtins are certified").min;
        assert!(min < exact, "{stage}: certified min {min} vs {exact} cycles");
        for limit in [exact, exact - 1, min] {
            let cfg = RunConfig { cycle_limit: limit, ..RunConfig::default() };
            let r = differential(&image, &input, bits, cfg, &format!("{stage} limit {limit}"));
            if limit == exact {
                assert_eq!(r.unwrap().cycles, exact, "{stage}: limit = exact cycles must pass");
            } else {
                assert_eq!(r.unwrap_err(), LaneError::CycleLimit { limit }, "{stage}");
            }
        }
    }
}

/// The compiled steady state calls no helper: over a full 8 KiB block per
/// builtin image, thousands of stream operations make at most a handful of
/// helper calls, all for the stream's last partial word (fewer than 8 input
/// bytes, which the word refill cannot load).
#[test]
fn whole_blocks_call_helpers_only_for_the_stream_tail() {
    if !recode_codec::jit::enabled() {
        return;
    }
    let mut lane = Lane::new();
    for (stage, image, input, bits) in builtin_stage_inputs() {
        let before = lane.jit_helper_calls();
        let r = lane.run(&image, &input, bits, RunConfig::default()).unwrap();
        let calls = lane.jit_helper_calls() - before;
        if stage == "delta" {
            assert_eq!(r.output.len(), 8192, "the chain decodes one full block");
        }
        assert!(r.opclass.stream > 1000, "{stage}: {} stream cycles", r.opclass.stream);
        assert!(calls <= 8, "{stage}: {calls} helper calls over {} stream ops", r.opclass.stream);
    }
}

/// Bytes of machine code per block: the Huffman images are dispatched at
/// random through the L1I, so the lowering's compactness is part of its
/// contract. The fixed part is the stubs behind the last block; the first
/// lowering spent ~285 bytes per block.
#[test]
fn compiled_images_stay_compact() {
    for (stage, image, _, _) in builtin_stage_inputs() {
        let Some(jit) = image.jit() else { continue };
        let (total, hot, blocks) = (jit.code_bytes(), jit.hot_code_bytes(), jit.blocks_lowered());
        assert!(total <= 800 + 135 * blocks, "{stage}: {total} bytes for {blocks} blocks");
        assert!(hot <= 100 + 100 * blocks, "{stage}: {hot} hot bytes for {blocks} blocks");
        assert!(hot < total, "{stage}: slow paths sit behind the blocks");
    }
}
