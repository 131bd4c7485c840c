//! Differential suite for the predecoded interpreter and the JIT tier
//! (ISSUEs 5 and 10).
//!
//! `Lane::run` executes the image's JIT artifact when one is present (and
//! falls back to the predecoded interpreter otherwise or on bail);
//! `Lane::run_into_interp` forces the predecoded interpreter; and
//! `Lane::run_reference` re-decodes every code word at dispatch time. These
//! tests drive all three tiers over every builtin decoder program (on real
//! encoded streams and on corrupted ones) and over the full 22-program
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
//! edge, and counts helper calls and bails over whole blocks.
//!
//! Dispatch groups whose targets are parametric siblings are served from a
//! data table by one shared body (ISSUE 15), so the suite also generates
//! Huffman images — random Kraft-complete length tables × every primary
//! width × intact, truncated and bit-flipped streams × the budget edge × an
//! output window that overruns the scratchpad — and hand-builds the
//! near-siblings the rule must leave on the per-block path.
//!
//! A two-level group also gets a composed first-level table that resolves a
//! long code in one row load (ISSUE 16). The generated images pin when one
//! exists and how wide it is, run a stream long enough for it to be the
//! steady state, cut the stream at every bit of its tail and everywhere
//! inside a long code, and the hand-built two-level loops cover the shapes
//! that must not compose.

mod common;

use common::{differential, differential_on};
use recode_codec::huffman::{self, HuffmanTable};
use recode_codec::pipeline::{Pipeline, PipelineConfig};
use recode_sparse::util::{for_each_case, SplitMix64};
use recode_udp::asm::assemble_text_with_map;
use recode_udp::effclip;
use recode_udp::isa::{Action, Block, Cond, Transition, Width, SCRATCHPAD_BYTES};
use recode_udp::lane::{Lane, LaneError, RunConfig};
use recode_udp::machine::{assemble, DecodedTransition, Image};
use recode_udp::program::ProgramBuilder;
use recode_udp::progs::{self, DshDecoder};
use std::sync::Arc;

/// Exhaustive static check: at every code address the predecoded record
/// must agree with a fresh word-at-a-time decode — same occupied actions,
/// same transition, and `None` exactly where `decode` fails.
fn assert_predecode_agrees_everywhere(image: &Image) {
    for addr in 0..image.words.len() as u32 {
        let slow = image.decode(addr);
        let fast = image.predecoded(addr);
        match (&slow, fast) {
            (Some(d), Some(p)) => {
                assert_eq!(d.actions(), p.actions(), "{}@{addr}: actions", image.name);
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

/// The full verifier corpus: deliberately broken programs, and the one
/// counted stream loop that is not, run with the verifier gate bypassed.
/// Whatever each one does — trap, halt with output, burn the cycle budget —
/// both interpreter paths must do the same.
#[test]
fn negative_corpus_paths_agree() {
    let corpus: [(&str, &str); 22] = [
        ("bad_output", include_str!("corpus/bad_output.udp")),
        ("budget_overflow_loop", include_str!("corpus/budget_overflow_loop.udp")),
        ("counted_loop_constant_limit", include_str!("corpus/counted_loop_constant_limit.udp")),
        ("counted_loop_cursor_wraps", include_str!("corpus/counted_loop_cursor_wraps.udp")),
        ("counted_loop_no_guard", include_str!("corpus/counted_loop_no_guard.udp")),
        ("counted_loop_read_after_inrem", include_str!("corpus/counted_loop_read_after_inrem.udp")),
        ("counted_loop_shift_too_small", include_str!("corpus/counted_loop_shift_too_small.udp")),
        ("counted_stream_loop", include_str!("corpus/counted_stream_loop.udp")),
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
fn builtin_stage_inputs() -> Vec<(&'static str, Arc<Image>, Vec<u8>, usize)> {
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

/// The compiled steady state calls no helper and never bails: over a full
/// 8 KiB block per builtin image, thousands of stream operations make at
/// most a handful of helper calls, all for the stream's last partial word
/// (fewer than 8 input bytes, which the word refill cannot load). A bail is a
/// correct but several times slower interpreter rerun that nothing else
/// shows, so its counter is pinned from both sides: zero on a whole block
/// (even with the budget set to exactly its cycles), one on a run that traps.
#[test]
fn whole_blocks_call_helpers_only_for_the_stream_tail() {
    if !recode_udp::jit::enabled() {
        return;
    }
    let mut lane = Lane::new();
    for (stage, image, input, bits) in builtin_stage_inputs() {
        let (calls_before, bails_before) = (lane.jit_helper_calls(), lane.jit_bails());
        let r = lane.run(&image, &input, bits, RunConfig::default()).unwrap();
        let calls = lane.jit_helper_calls() - calls_before;
        if stage == "delta" {
            assert_eq!(r.output.len(), 8192, "the chain decodes one full block");
        }
        assert!(r.opclass.stream > 1000, "{stage}: {} stream cycles", r.opclass.stream);
        assert!(calls <= 8, "{stage}: {calls} helper calls over {} stream ops", r.opclass.stream);

        let exact = RunConfig { cycle_limit: r.cycles, ..RunConfig::default() };
        lane.run(&image, &input, bits, exact).unwrap();
        assert_eq!(lane.jit_bails(), bails_before, "{stage}: a whole block must not bail");

        let short = RunConfig { cycle_limit: r.cycles - 1, ..RunConfig::default() };
        assert!(lane.run(&image, &input, bits, short).is_err());
        assert_eq!(lane.jit_bails(), bails_before + 1, "{stage}: budget edge bails once");
        let cut = &input[..input.len() / 2];
        if lane.run(&image, cut, cut.len() * 8 - 3, RunConfig::default()).is_err() {
            assert_eq!(lane.jit_bails(), bails_before + 2, "{stage}: a trap is a bail");
        }
    }
}

/// `(bits, base)` of every group a `dispatch.sym`/`dispatch.peek` of `image`
/// enters, once each, in address order of its first dispatch site.
fn dispatch_groups(image: &Image) -> Vec<(u8, u32)> {
    let mut groups = Vec::new();
    for addr in 0..image.words.len() as u32 {
        if let Some(
            DecodedTransition::DispatchSym { bits, base }
            | DecodedTransition::DispatchPeek { bits, base },
        ) = image.predecoded(addr).map(|b| b.transition)
        {
            if !groups.contains(&(bits, base)) {
                groups.push((bits, base));
            }
        }
    }
    groups
}

/// The first level of a two-level decode loop: the group of the first
/// `dispatch.peek` on the way in from the entry (a Huffman image's entry
/// block itself; behind `init` and the loop head of the hand-built loops).
fn first_level_group(image: &Image) -> (u8, u32) {
    let mut addr = image.entry;
    loop {
        match image.predecoded(addr).expect("a mapped block").transition {
            DecodedTransition::DispatchPeek { bits, base } => return (bits, base),
            DecodedTransition::Jump(to) => addr = to,
            DecodedTransition::Branch { .. } => addr += 1,
            other => panic!("no dispatch.peek behind the entry: {other:?}"),
        }
    }
}

/// The shape of the compiled artifacts is part of the lowering's contract.
/// A Huffman image is a few hundred sibling handlers behind a two-level
/// dispatch: every one of its groups — the primary and each secondary — must
/// be served from a table, which leaves the loop scaffolding and the two
/// shared bodies as the only code the steady state runs. That code has to
/// stay L1I-resident whatever the table looks like: at most 4 KiB, tables
/// (data, behind the slow paths) not counted. No `jmp [m]` is left on the
/// path of a code within the primary width. The tables are one 4-byte row per
/// window of every group plus the composed table in front of the primary
/// group, at most 16 KiB, and nothing else. The other images have no sibling
/// groups; their hot bytes are bounded per block and per action, and by a
/// budget for the whole image. Every image's published bytes are bounded per
/// block, and per dispatch tail a table does not serve.
#[test]
fn compiled_images_stay_compact() {
    // A block whose transition is a window dispatch no table serves (a
    // Snappy chain's end: the next tag's `dispatch.peek 8`) ends in the
    // peek and an indirect jump of its own — threaded code, which beat one
    // shared dispatch that every such block jumps to on `fem_ds` — where a
    // `jmp` cost 5 bytes: hot `cmp r9, 8; jb; mov rax, r8; shr rax, 56;
    // jmp [r14 + rax·8 + disp32]`, and the slow path `call refill; cmp;
    // jae; mov esi, 8; call helper; jmp`.
    const TAIL: usize = (4 + 6 + 3 + 4 + 8) + (5 + 4 + 6 + 5 + 5 + 5);
    for (stage, image, _, _) in builtin_stage_inputs() {
        let Some(jit) = image.jit() else { continue };
        let (total, hot, blocks) = (jit.code_bytes(), jit.hot_code_bytes(), jit.blocks_lowered());
        let groups = dispatch_groups(&image);
        if stage == "huffman" {
            assert!(groups.len() > 1, "the test table has long codes");
            for &(bits, base) in &groups {
                assert!(jit.table_lowered(bits, base), "{bits}-bit group at {base} not lowered");
            }
            assert_eq!(jit.table_groups(), groups.len());
            let rows: usize = groups.iter().map(|&(bits, _)| 1usize << bits).sum();
            let composed: Vec<_> =
                groups.iter().filter_map(|&(bits, base)| jit.composed(bits, base)).collect();
            assert_eq!(composed.len(), 1, "the primary group has a composed table");
            for (wide, span) in &composed {
                assert_eq!(span.len(), 4 << wide, "one 4-byte row per {wide}-bit window");
                assert!(span.len() <= 16 << 10 && span.end <= jit.table_span().end);
            }
            assert_eq!(jit.composed_table_bytes(), composed[0].1.len());
            assert_eq!(
                jit.table_bytes(),
                rows * 4 + jit.composed_table_bytes(),
                "group rows and composed rows account for every table byte"
            );
            assert!(hot <= 4096, "{hot} hot bytes");
        } else {
            assert_eq!(jit.table_groups(), 0, "{stage} has no sibling groups");
            assert_eq!(jit.table_bytes(), 0, "{stage} has no tables");
            // Hot bytes follow the actions: a chain block of two moves is
            // four stream or scratchpad operations, a tier test none.
            let actions: usize = (0..image.words.len() as u32)
                .filter_map(|addr| Some(image.predecoded(addr)?.actions().len()))
                .sum();
            assert!(
                hot <= 100 + 24 * blocks + 40 * actions,
                "{stage}: {hot} hot bytes for {blocks} blocks of {actions} actions"
            );
            // What the whole image may cost: Snappy's chains fit 12 KiB of
            // code words, and the host's copy of them 72 KiB.
            let (max_words, max_hot) = if stage == "snappy" { (768, 72 << 10) } else { (16, 2048) };
            assert!(image.words.len() <= max_words, "{stage}: {} words", image.words.len());
            assert!(hot <= max_hot, "{stage}: {hot} hot bytes");
        }
        let tails = (0..image.words.len() as u32)
            .filter_map(|addr| image.predecoded(addr))
            .filter(|blk| match blk.transition {
                DecodedTransition::DispatchSym { bits, base }
                | DecodedTransition::DispatchPeek { bits, base } => !jit.table_lowered(bits, base),
                _ => false,
            })
            .count();
        assert!(
            total <= 800 + 135 * blocks + TAIL * tails,
            "{stage}: {total} bytes for {blocks} blocks, {tails} of them dispatch tails"
        );
        assert!(hot + jit.table_bytes() < total, "{stage}: slow paths sit behind the blocks");
    }
}

/// A Kraft-complete length table with `n` coded symbols: a code tree grown
/// by splitting one leaf at a time. Each split takes the deepest (`bias > 0`)
/// or shallowest (`bias < 0`) of `|bias| + 1` random leaves, so the bias
/// sets the skew; the codes go to random byte values.
fn grown_lengths(rng: &mut SplitMix64, n: usize, bias: i32) -> Vec<u8> {
    let mut depths = vec![1u8, 1];
    while depths.len() < n {
        let mut pick = rng.below(depths.len());
        for _ in 0..bias.unsigned_abs() {
            let other = rng.below(depths.len());
            let deeper = depths[other] > depths[pick];
            if depths[other] < 15 && (depths[pick] == 15 || deeper == (bias > 0)) {
                pick = other;
            }
        }
        if depths[pick] < 15 {
            depths[pick] += 1;
            depths.push(depths[pick]);
        }
    }
    let mut symbols: Vec<usize> = (0..256).collect();
    let mut lengths = vec![0u8; 256];
    for d in depths {
        lengths[symbols.swap_remove(rng.below(symbols.len()))] = d;
    }
    lengths
}

/// `n` symbols drawn with the probabilities the code lengths imply, so every
/// code — the 15-bit ones included — turns up in proportion.
fn draw_symbols(rng: &mut SplitMix64, lengths: &[u8], n: usize) -> Vec<u8> {
    let weight = |l: u8| if l == 0 { 0 } else { 1usize << (15 - l) };
    let total: usize = lengths.iter().map(|&l| weight(l)).sum();
    (0..n)
        .map(|_| {
            let mut r = rng.below(total);
            let mut s = 0;
            while r >= weight(lengths[s]) {
                r -= weight(lengths[s]);
                s += 1;
            }
            s as u8
        })
        .collect()
}

/// The window width of the composed table the primary group of a Huffman
/// image must get: the longest code of at most 12 bits behind a prefix
/// handler that is a row of the group, if there is one. Window 0's slot asks
/// for the end of the stream instead, so a prefix handler there is behind it
/// and not a row; and prefix handlers are siblings only of each other, so a
/// lone one is a class of one and stays on the per-block path.
fn expected_composed_width(table: &HuffmanTable, width: u8) -> Option<u8> {
    let long = (table.lengths.iter().zip(&table.codes))
        .filter(|&(&l, &c)| l > width && c >> (l - width) != 0)
        .map(|(&l, &c)| (l, c >> (l - width)));
    let prefixes: std::collections::BTreeSet<_> = long.clone().map(|(_, prefix)| prefix).collect();
    long.map(|(l, _)| l).filter(|&l| l <= 12 && prefixes.len() >= 2).max()
}

/// One generated Huffman image through every way a run can end: the intact
/// stream, a stream long enough for the composed table to be the steady
/// state, the budget edge, a cut at every bit of the tail and everywhere
/// inside a long code, bit flips, and an output window that runs off the
/// scratchpad — three tiers each.
fn huffman_image_agrees_three_ways(rng: &mut SplitMix64, lengths: &[u8], width: u8) {
    let table = HuffmanTable::from_lengths(lengths.to_vec()).unwrap();
    let image = progs::huffman::compile_with_width(lengths, width).unwrap();
    let what = format!("{} codes, width {width}", table.coded_symbols());
    assert_eq!(image.verify_report.error_count(), 0, "{what}");
    if let Some(jit) = image.jit() {
        // Only the primary group has links behind it.
        let primary = first_level_group(&image);
        for (bits, base) in dispatch_groups(&image) {
            assert!(jit.table_lowered(bits, base), "{what}: {bits}-bit group at {base}");
            let want = expected_composed_width(&table, width).filter(|_| (bits, base) == primary);
            let got = jit.composed(bits, base).map(|(wide, _)| wide);
            assert_eq!(got, want, "{what}: composed table of the {bits}-bit group at {base}");
        }
    }
    let n = 1 + rng.below(400);
    let data = draw_symbols(rng, lengths, n);
    let (bytes, bits) = huffman::encode(&data, &table).unwrap();
    let cfg = RunConfig::default();

    let mut lanes = [Lane::new(), Lane::new(), Lane::new()];
    let r = differential_on(&mut lanes, &image, &bytes, bits, cfg, &what).unwrap();
    assert_eq!(r.output, data, "{what}");

    let long_run = draw_symbols(rng, lengths, 4096);
    let (long_bytes, long_bits) = huffman::encode(&long_run, &table).unwrap();
    let calls = lanes[0].jit_helper_calls();
    let got = differential_on(&mut lanes, &image, &long_bytes, long_bits, cfg, &what).unwrap();
    assert_eq!(got.output, long_run, "{what}");
    // The scalar helpers serve the last partial word — two refills at most —
    // and a zero-padded peek for every symbol that starts inside the last
    // `width` bits.
    let calls = lanes[0].jit_helper_calls() - calls;
    assert!(calls <= 2 + u64::from(width), "{what}: {calls} helper calls in 4,096 symbols");
    assert_eq!(lanes[0].jit_bails(), 0, "{what}: an intact stream must not bail");

    let min = image.verify_report.cycle_bound.expect("certified").min;
    for limit in [r.cycles, r.cycles - 1, min] {
        let cfg = RunConfig { cycle_limit: limit, ..cfg };
        let got = differential_on(&mut lanes, &image, &bytes, bits, cfg, &what);
        if limit == r.cycles {
            assert_eq!(got.unwrap().cycles, r.cycles, "{what}: limit = exact cycles must pass");
        } else {
            assert_eq!(got.unwrap_err(), LaneError::CycleLimit { limit }, "{what}");
        }
    }
    // The stream's tail is where the compiled tier changes hands: from the
    // composed table to the group's own once the buffer is short of a wide
    // window, then to the scalar helpers.
    for cut in bits.saturating_sub(40)..bits {
        let _ = differential_on(&mut lanes, &image, &bytes[..cut.div_ceil(8)], cut, cfg, &what);
    }
    // The same hand-over in front of a code longer than the primary width,
    // which takes two hops on the narrow path: the stream ends 1..=16 bits
    // into (or, with the short codes that follow, past) the longest code.
    let longest = (0..256).max_by_key(|&s| lengths[s]).expect("256 symbols");
    if lengths[longest] > width {
        let shortest = (0..256).filter(|&s| lengths[s] > 0).min_by_key(|&s| lengths[s]).unwrap();
        let mut tail = data[..data.len().min(40)].to_vec();
        let (_, before) = huffman::encode(&tail, &table).unwrap();
        tail.push(longest as u8);
        tail.extend([shortest as u8; 16]);
        let (tail_bytes, _) = huffman::encode(&tail, &table).unwrap();
        for cut in before + 1..=before + 16 {
            let input = &tail_bytes[..cut.div_ceil(8)];
            let _ = differential_on(&mut lanes, &image, input, cut, cfg, &what);
        }
    }
    for _ in 0..3 {
        let mut flipped = bytes.clone();
        let at = rng.below(bits);
        flipped[at / 8] ^= 0x80 >> (at % 8);
        let _ = differential_on(&mut lanes, &image, &flipped, bits, cfg, &what);
    }
    let room = rng.below(data.len());
    let cfg = RunConfig { out_base: (SCRATCHPAD_BYTES - room) as u32, ..cfg };
    let got = differential_on(&mut lanes, &image, &bytes, bits, cfg, &what);
    assert!(matches!(got, Err(LaneError::ScratchpadOob { .. })), "{what}: {got:?}");
}

/// ROADMAP item 5, the Huffman slice: the differential suite on generated
/// programs, not only the shipped ones. Every table is Kraft-complete (as
/// the codec's are), so every window of every group is mapped and every
/// group must come out table-lowered at every primary width.
#[test]
fn generated_huffman_images_agree_at_every_primary_width() {
    let mut skewed = vec![0u8; 256];
    for (s, l) in skewed.iter_mut().enumerate().take(16) {
        *l = (s as u8 + 1).min(15);
    }
    let mut fixed = SplitMix64::new(0x0D9_0F15);
    let many_long = grown_lengths(&mut fixed, 256, 3);
    assert!(many_long.iter().filter(|&&l| l > 8).count() > 100, "{many_long:?}");
    let tables = [
        vec![8u8; 256],                    // no code shorter or longer than 8 bits
        skewed,                            // 1, 2, … 14, 15, 15: a 1-bit code and both 15-bit ones
        grown_lengths(&mut fixed, 16, -8), // sixteen 4-bit codes: no long code at any width
        grown_lengths(&mut fixed, 2, 0),   // two 1-bit codes
        many_long,                         // > 100 codes behind secondary groups
    ];
    for lengths in &tables {
        for width in 4..=12 {
            huffman_image_agrees_three_ways(&mut fixed, lengths, width);
        }
    }
    for_each_case(0x0D9_0F16, 12, |rng| {
        let (n, bias) = (2 + rng.below(255), rng.below(9) as i32 - 4);
        let lengths = grown_lengths(rng, n, bias);
        for width in 4..=12 {
            huffman_image_agrees_three_ways(rng, &lengths, width);
        }
    });
}

/// What building an image costs, without a clock: every handler of a Huffman
/// image dispatches, so a verifier that walked a group's windows once per
/// dispatching block would make blocks × windows joins (66 thousand for the
/// uniform table at width 8, 16.8 million at width 12). It walks them once
/// per change of the group's state, which widening caps at a handful.
#[test]
fn huffman_images_verify_in_joins_linear_in_blocks_and_windows() {
    let many_long = grown_lengths(&mut SplitMix64::new(0x0D9_0F15), 256, 3);
    for (what, lengths, width) in
        [("uniform", &vec![8u8; 256], 8), ("uniform", &vec![8u8; 256], 12), ("long", &many_long, 8)]
    {
        let image = progs::huffman::compile_with_width(lengths, width).unwrap();
        let report = &image.verify_report;
        let windows: usize = dispatch_groups(&image).iter().map(|&(bits, _)| 1usize << bits).sum();
        let (joins, bound) = (report.fixpoint_joins, 4 * (report.blocks + windows) as u64);
        assert!(joins > 0 && joins <= bound, "{what}, width {width}: {joins} joins, bound {bound}");
    }
}

/// Tables the codec never trains, which `compile` still has to be total on:
/// no coded symbol, one code, and two codes that leave a quarter of the code
/// space unused. A table with a code decodes its valid streams, ends a stream
/// cut on a code boundary short, and ends one whose window is a hole — or a
/// foreign word packed into it — the same way on every tier. The code-less
/// table has no window 0 to ask on and no handler at all: its image is the
/// one the verifier rejects, which no lane runs unless told to.
#[test]
fn degenerate_huffman_tables_stay_total_and_agree() {
    let with = |codes: &[(usize, u8)]| {
        let mut lengths = vec![0u8; 256];
        for &(s, l) in codes {
            lengths[s] = l;
        }
        lengths
    };
    // A window that lands on a foreign word can loop without reading; a
    // small budget ends that on all three tiers at the same cycle.
    let unchecked =
        RunConfig { cycle_limit: 50_000, allow_unverified: true, ..RunConfig::default() };
    let ragged: [(&[u8], usize); 4] = [(&[], 0), (&[0], 8), (&[0xFF, 0x0F], 13), (&[0x5A; 9], 72)];

    let image = progs::huffman::compile(&with(&[])).expect("an image, or a typed error");
    let why = image.verify_report.gate().unwrap_err().to_string();
    assert!(why.contains("dispatch.peek targets group 0, which has no entries"), "{why}");
    let refused = Lane::new().run(&image, &[], 0, RunConfig::default());
    assert!(matches!(refused, Err(LaneError::Unverified { .. })), "{refused:?}");
    for (input, bits) in ragged {
        let _ = differential(&image, input, bits, unchecked, "no coded symbol");
    }

    for (what, codes) in [("one code", &[(65, 1)][..]), ("two codes", &[(65, 1), (66, 2)])] {
        let lengths = with(codes);
        let table = HuffmanTable::from_lengths(lengths.clone()).unwrap();
        for width in [4, 8, 12] {
            let what = format!("{what}, width {width}");
            let image = progs::huffman::compile_with_width(&lengths, width).unwrap();
            assert_eq!(image.verify_report.error_count(), 0, "{what}");
            let data: Vec<u8> = (0..41usize).map(|i| codes[i % codes.len()].0 as u8).collect();
            let (bytes, bits) = huffman::encode(&data, &table).unwrap();
            let mut lanes = [Lane::new(), Lane::new(), Lane::new()];
            let r = differential_on(&mut lanes, &image, &bytes, bits, unchecked, &what).unwrap();
            assert_eq!(r.output, data, "{what}");
            for cut in 0..bits {
                let input = &bytes[..cut.div_ceil(8)];
                let _ = differential_on(&mut lanes, &image, input, cut, unchecked, &what);
            }
            // `11…` is no code of either table: a hole of the primary group,
            // first thing and behind whole symbols.
            for hole_at in [0, 1, 9] {
                let mut fields: Vec<(u32, u8)> = vec![(0, 1); hole_at];
                fields.extend([(0xFF, 8), (0, 3)]);
                let (input, input_bits) = pack_bits(&fields);
                let got = differential_on(&mut lanes, &image, &input, input_bits, unchecked, &what);
                assert_ne!(got.map(|r| r.output.len()).ok(), Some(hole_at + 2), "{what}");
            }
            for (input, bits) in ragged {
                let _ = differential_on(&mut lanes, &image, input, bits, unchecked, &what);
            }
        }
    }
}

/// The loop's own group in a [`sibling_loop`], and the two-handler group
/// beside it that only a tweak dispatches into.
const LOOP_GROUP: u32 = 0;
const ASIDE_GROUP: u32 = 1;

/// A decode loop over one `dispatch.peek 3` group of emit handlers (`skip 3;
/// limm r4, 10 + w; storebi r4, r2`, then on to the next symbol), each handed
/// to `tweak` with its window and the `done` block to change or drop
/// (`false`). Unchained, a handler jumps to a loop head that asks for the end
/// of the stream and dispatches; `chained`, its transition is the dispatch,
/// window 0's slot asks (the shape of a Huffman image), and [`ASIDE_GROUP`]
/// holds two more handlers of the same kind (`skip 1; limm r4, 90 + v; …`).
/// With `by_reg` the first dispatch is a `dispatch.reg r1` on the first three
/// bits into the same group.
fn sibling_loop(
    by_reg: bool,
    chained: bool,
    tweak: impl Fn(u32, &mut Block, u32) -> bool,
) -> Image {
    let mut pb = ProgramBuilder::new("near-siblings");
    let group = pb.group(vec![]);
    let dispatch = Transition::DispatchPeek { bits: 3, group };
    let done = pb.block(Block {
        actions: vec![Action::Sub { rd: 15, rs: 2, rt: 14 }],
        transition: Transition::Halt,
    });
    let head = pb.reserve();
    let handler = |skip: u8, sym: i16| Block {
        actions: vec![
            Action::SkipSym { bits: skip },
            Action::LoadImm { rd: 4, imm: sym },
            Action::StoreInc { rs: 4, base: 2, width: Width::B1 },
        ],
        transition: if chained { dispatch } else { Transition::Jump(head) },
    };
    assert_eq!(group, LOOP_GROUP);
    if chained {
        let aside = (0..2).map(|v| (v, pb.block(handler(1, 90 + v as i16)))).collect();
        assert_eq!(pb.group(aside), ASIDE_GROUP);
    }
    let mut members: Vec<(u32, u32)> = (0..8u32)
        .filter_map(|w| {
            let mut b = handler(3, 10 + w as i16);
            tweak(w, &mut b, done).then(|| (w, pb.block(b)))
        })
        .collect();
    let ask = |more: u32| Transition::Branch {
        cond: Cond::Eq,
        rs: 3,
        rt: 0,
        taken: done,
        fallthrough: more,
    };
    if chained {
        let first = members.iter_mut().find(|m| m.0 == 0).expect("window 0 keeps its handler");
        let chk = pb.block(Block { actions: vec![], transition: ask(first.1) });
        first.1 = pb.block(Block {
            actions: vec![Action::InRem { rd: 3 }],
            transition: Transition::Jump(chk),
        });
        pb.define(head, Block { actions: vec![], transition: dispatch });
    } else {
        let dispatch = pb.block(Block { actions: vec![], transition: dispatch });
        pb.define(
            head,
            Block { actions: vec![Action::InRem { rd: 3 }], transition: ask(dispatch) },
        );
    }
    pb.set_group(group, members);
    let init = pb.block(Block {
        actions: vec![Action::Mov { rd: 2, rs: 14 }, Action::PeekSym { rd: 1, bits: 3 }],
        transition: if by_reg {
            Transition::DispatchReg { rs: 1, group }
        } else {
            Transition::Jump(head)
        },
    });
    pb.entry(init);
    assemble(&pb.build().unwrap()).unwrap()
}

/// Packs `(value, width)` fields MSB-first; returns the bytes and the bit
/// length.
fn pack_bits(fields: &[(u32, u8)]) -> (Vec<u8>, usize) {
    let mut bytes = Vec::new();
    let mut at = 0usize;
    for &(value, width) in fields {
        for b in (0..width).rev() {
            if at.is_multiple_of(8) {
                bytes.push(0);
            }
            bytes[at / 8] |= ((value >> b & 1) as u8) << (7 - at % 8);
            at += 1;
        }
    }
    (bytes, at)
}

/// Near-siblings: a group where one handler writes another register, has an
/// extra action, leaves for another successor, or is missing must keep that
/// window on the per-block path (or the bail stub, for the hole) next to the
/// table-lowered rest; and a `dispatch.reg` that lands on a sibling's address
/// — which has no code of its own any more — must bail. The same of handlers
/// whose transition is the next dispatch: one that chains with another width
/// or into another group is no sibling of the rest, a lone `skip` that chains
/// into a group pure of the loop's leaves is a link (the composed table in
/// front of the group shows it), and a `dispatch.reg` onto an elided chained
/// leaf bails too. All of it three-way exact.
#[test]
fn near_siblings_take_the_per_block_path_and_agree() {
    type Tweak = fn(u32, &mut Block, u32) -> bool;
    let cases: [(&str, bool, bool, Tweak, u64); 11] = [
        ("all siblings", false, false, |_, _, _| true, 0),
        (
            "another register",
            false,
            false,
            |w, b, _| {
                if w == 2 {
                    b.actions[1] = Action::LoadImm { rd: 5, imm: 77 };
                    b.actions[2] = Action::StoreInc { rs: 5, base: 2, width: Width::B1 };
                }
                true
            },
            0,
        ),
        (
            "an extra action",
            false,
            false,
            |w, b, _| {
                if w == 5 {
                    b.actions.push(Action::AddI { rd: 6, rs: 6, imm: 1 });
                }
                true
            },
            0,
        ),
        (
            "another successor",
            false,
            false,
            |w, b, done| {
                if w == 6 {
                    b.transition = Transition::Jump(done);
                }
                true
            },
            0,
        ),
        // More windows missing than the program has other blocks to pack
        // into them, so at least one stays a hole.
        ("holes", false, false, |w, _, _| w < 3, 1),
        ("dispatch.reg into a sibling", true, false, |_, _, _| true, 1),
        ("chained siblings", false, true, |_, _, _| true, 0),
        (
            "chained with another width",
            false,
            true,
            |w, b, _| {
                if w == 5 {
                    b.transition = Transition::DispatchPeek { bits: 2, group: LOOP_GROUP };
                }
                true
            },
            0,
        ),
        (
            "chained into another group",
            false,
            true,
            |w, b, _| {
                if w == 5 {
                    b.transition = Transition::DispatchPeek { bits: 1, group: ASIDE_GROUP };
                }
                true
            },
            0,
        ),
        (
            "lone skips chained into a pure group",
            false,
            true,
            |w, b, _| {
                if w >= 6 {
                    b.actions.truncate(1);
                    b.transition = Transition::DispatchPeek { bits: 1, group: ASIDE_GROUP };
                }
                true
            },
            0,
        ),
        ("dispatch.reg into a chained sibling", true, true, |_, _, _| true, 1),
    ];
    let cfg = RunConfig { cycle_limit: 10_000, allow_unverified: true, ..RunConfig::default() };
    for (name, by_reg, chained, tweak, bails) in cases {
        let image = sibling_loop(by_reg, chained, tweak);
        let (bits, base) = dispatch_groups(&image).into_iter().find(|g| g.0 == 3).unwrap();
        let hole = (0..8).find(|&w| image.predecoded(base + w).is_none());
        // Every handler in order, then two more; the hole (if any) last.
        let mut windows: Vec<u32> = if hole.is_some() { vec![0, 1, 2] } else { (0..8).collect() };
        windows.extend([2, 1]);
        windows.extend(hole);
        if by_reg && chained {
            // Window 0's slot asks for the end of the stream and keeps its
            // code; the register dispatch has to land on a handler.
            windows.insert(0, 3);
        }
        // A handler that goes on into the group aside finds a `1` there.
        let aside_behind: &[u32] = match name {
            "chained into another group" => &[5],
            "lone skips chained into a pure group" => &[6, 7],
            _ => &[],
        };
        let fields: Vec<(u32, u8)> = (windows.iter())
            .flat_map(|&w| [(w, 3)].into_iter().chain(aside_behind.contains(&w).then_some((1, 1))))
            .collect();
        let (input, input_bits) = pack_bits(&fields);
        let mut lanes = [Lane::new(), Lane::new(), Lane::new()];
        let r = differential_on(&mut lanes, &image, &input, input_bits, cfg, name);
        match name {
            "holes" => {
                let addr = base + hole.expect("a window stayed unmapped");
                assert!(matches!(r, Err(LaneError::UnmappedAddress { addr: a, .. }) if a == addr));
            }
            _ if hole.is_some() => panic!("{name}: window {hole:?} is unmapped"),
            "another successor" => assert_eq!(r.unwrap().output, [10, 11, 12, 13, 14, 15, 16]),
            "another register" => assert_eq!(r.unwrap().output[..4], [10, 11, 77, 13]),
            // Handler 5 dispatched on two bits of window 6: `11`, handler 3.
            "chained with another width" => {
                assert_eq!(r.unwrap().output, [10, 11, 12, 13, 14, 15, 13, 17, 12, 11]);
            }
            "chained into another group" => {
                assert_eq!(r.unwrap().output, [10, 11, 12, 13, 14, 15, 91, 16, 17, 12, 11]);
            }
            // Windows 6 and 7 emit nothing themselves.
            "lone skips chained into a pure group" => {
                assert_eq!(r.unwrap().output, [10, 11, 12, 13, 14, 15, 91, 91, 12, 11]);
            }
            _ => {
                let want = [13, 10, 11, 12, 13, 14, 15, 16, 17, 12, 11];
                assert_eq!(r.unwrap().output, want[usize::from(windows[0] == 0)..]);
            }
        }
        let Some(jit) = image.jit() else { continue };
        assert!(jit.table_lowered(bits, base), "{name}: the siblings are still table-lowered");
        let links = name == "lone skips chained into a pure group";
        assert_eq!(jit.composed(bits, base).map(|c| c.0), links.then_some(4), "{name}");
        assert_eq!(lanes[0].jit_bails(), bails, "{name}");
    }
}

/// A decode loop over a two-level code, the shape of a Huffman image: a
/// `dispatch.peek b` group of emit handlers (`skip b; limm r4, w; storebi r4,
/// r2; jump head`) with, at each window of `links`, a prefix handler `skip b;
/// dispatch.peek k` into a group of `2^k` more emit handlers (`skip k; limm
/// r4, 100·i + v; …`). `tweak` gets every prefix handler and every handler
/// behind one to change.
fn two_level_loop(b: u8, links: &[(u32, u8)], tweak: impl Fn(&mut Block, &mut Block)) -> Image {
    let mut pb = ProgramBuilder::new("two-level");
    let done = pb.block(Block {
        actions: vec![Action::Sub { rd: 15, rs: 2, rt: 14 }],
        transition: Transition::Halt,
    });
    let head = pb.reserve();
    let emit = |skip: u8, sym: usize| Block {
        actions: vec![
            Action::SkipSym { bits: skip },
            Action::LoadImm { rd: 4, imm: sym as i16 },
            Action::StoreInc { rs: 4, base: 2, width: Width::B1 },
        ],
        transition: Transition::Jump(head),
    };
    let mut members = Vec::new();
    for w in 0..1u32 << b {
        let Some(i) = links.iter().position(|&(at, _)| at == w) else {
            members.push((w, pb.block(emit(b, w as usize))));
            continue;
        };
        let k = links[i].1;
        let mut link = Block {
            actions: vec![Action::SkipSym { bits: b }],
            transition: Transition::Halt, // the group comes with the handlers
        };
        let mut behind = Vec::new();
        for v in 0..1u32 << k {
            let mut leaf = emit(k, 100 * (i + 1) + v as usize);
            tweak(&mut link, &mut leaf);
            behind.push((v, pb.block(leaf)));
        }
        link.transition = Transition::DispatchPeek { bits: k, group: pb.group(behind) };
        members.push((w, pb.block(link)));
    }
    let group = pb.group(members);
    let dispatch = pb
        .block(Block { actions: vec![], transition: Transition::DispatchPeek { bits: b, group } });
    pb.define(
        head,
        Block {
            actions: vec![Action::InRem { rd: 3 }],
            transition: Transition::Branch {
                cond: Cond::Eq,
                rs: 3,
                rt: 0,
                taken: done,
                fallthrough: dispatch,
            },
        },
    );
    let init = pb.block(Block {
        actions: vec![Action::Mov { rd: 2, rs: 14 }],
        transition: Transition::Jump(head),
    });
    pb.entry(init);
    assemble(&pb.build().unwrap()).unwrap()
}

/// Which two-level groups get a composed table, and that the ones that do
/// not lose nothing but speed. The rule composes a link that is a lone `skip
/// b` into a group pure of the class the first level's own leaves have, as
/// far as the link's window fits 12 bits; a link with a second action, a
/// link into handlers of another class, and links too wide for any of them to
/// fit must leave the group on its own table, and a link too wide next to
/// one that fits is a row the composed table does not cover. Every stream
/// takes every first-level window and every handler behind every link, three
/// ways exact, and never bails.
#[test]
fn only_lone_skip_links_into_the_same_leaf_class_compose() {
    type Tweak = fn(&mut Block, &mut Block);
    type Case = (&'static str, u8, &'static [(u32, u8)], Tweak, Option<u8>);
    let cases: [Case; 6] = [
        ("two levels", 3, &[(5, 2), (6, 3)], |_, _| {}, Some(6)),
        (
            "a link with a second action",
            3,
            &[(5, 2), (6, 3)],
            |link, _| {
                if link.actions.len() == 1 {
                    link.actions.push(Action::AddI { rd: 6, rs: 6, imm: 1 });
                }
            },
            None,
        ),
        (
            "links into another class",
            3,
            &[(5, 2), (6, 3)],
            |_, leaf| leaf.actions.push(Action::AddI { rd: 6, rs: 6, imm: 1 }),
            None,
        ),
        ("a link past 12 bits beside one that fits", 6, &[(9, 2), (33, 7)], |_, _| {}, Some(8)),
        ("links past 12 bits only", 6, &[(9, 7), (33, 7)], |_, _| {}, None),
        ("no link", 3, &[], |_, _| {}, None),
    ];
    let cfg = RunConfig { cycle_limit: 100_000, allow_unverified: true, ..RunConfig::default() };
    for (name, b, links, tweak, composed) in cases {
        let image = two_level_loop(b, links, tweak);
        let mut fields = Vec::new();
        let mut want = Vec::new();
        for w in 0..1u32 << b {
            match links.iter().position(|&(at, _)| at == w) {
                None => {
                    fields.push((w, b));
                    want.push(w as u8);
                }
                Some(i) => {
                    for v in 0..1u32 << links[i].1 {
                        fields.extend([(w, b), (v, links[i].1)]);
                        want.push((100 * (i + 1) + v as usize) as u8);
                    }
                }
            }
        }
        // Once more from the top, so that the last windows are short ones
        // and the stream's tail is not the only place a link is taken.
        fields.extend((0..4).map(|w| (w, b)));
        want.extend(0..4);
        let (input, input_bits) = pack_bits(&fields);
        let mut lanes = [Lane::new(), Lane::new(), Lane::new()];
        let r = differential_on(&mut lanes, &image, &input, input_bits, cfg, name).unwrap();
        assert_eq!(r.output, want, "{name}");
        let Some(jit) = image.jit() else { continue };
        let first = first_level_group(&image);
        for (bits, base) in dispatch_groups(&image) {
            assert!(jit.table_lowered(bits, base), "{name}: {bits}-bit group at {base}");
            let want = composed.filter(|_| (bits, base) == first);
            let got = jit.composed(bits, base).map(|(wide, _)| wide);
            assert_eq!(got, want, "{name}: composed table of the {bits}-bit group at {base}");
        }
        assert_eq!(lanes[0].jit_bails(), 0, "{name}");
    }
}
