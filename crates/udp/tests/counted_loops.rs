//! Generated counted stream loops: the verifier's `stream-bounds` rule
//! against what the lane does.
//!
//! A loop that reads the stream with no `inrem` in it is accepted when its
//! trip count was fixed from `inrem` on the way in (DESIGN §10, item 4).
//! This suite draws such loops with every ingredient of that rule varied —
//! the bits a trip reads (`B` ∈ {8, 16, 32, 64, 128}, through `insymle`,
//! `insym` and `skip` of random widths, a 128-bit trip as two reads of 64),
//! the bytes its cursor advances (`k`, through one to four stores of random
//! widths, up to 32), the count's shifts `s` and `t`, the guard that skips a
//! loop of no trips (absent, `beq` or `bne`), and a stream read between the
//! `inrem` and the loop or none — and runs each on every input length from 0
//! to 320 bits, or to four trips and a tail when a trip is wider. The
//! inverse-delta quad loop (`B = 128`, `k = 16`) is one such draw. For every
//! run:
//!
//! * the three lane tiers agree on output, cycles, op-class attribution and
//!   trap (`common::differential`), and a model of the drawn program — the
//!   stream reads it makes, in order — names the same trap or the same number
//!   of output bytes;
//! * a loop the verifier accepted never under-runs the stream inside the loop;
//! * a completing run's cycles lie inside the certified envelope.
//!
//! The verifier must accept exactly the draws the rule describes, and both
//! kinds must occur.

mod common;

use common::differential;
use recode_sparse::util::{for_each_case, SplitMix64};
use recode_udp::asm::assemble_text;
use recode_udp::lane::{LaneError, RunConfig, OUT_BASE};
use recode_udp::machine::assemble;
use recode_udp::verify::Analysis;

/// One stream read: `insym` of `bits`, `insymle` of `bytes`, `skip` of `bits`.
#[derive(Debug, Clone, Copy)]
enum Read {
    Sym(usize),
    Le(usize),
    Skip(usize),
}

impl Read {
    fn bits(self) -> usize {
        match self {
            Read::Sym(bits) | Read::Skip(bits) => bits,
            Read::Le(bytes) => 8 * bytes,
        }
    }

    /// The statement, reading into `rd` where it reads into a register.
    fn text(self, rd: usize) -> String {
        match self {
            Read::Sym(bits) => format!("insym r{rd}, {bits}"),
            Read::Le(bytes) => format!("insymle r{rd}, {bytes}"),
            Read::Skip(bits) => format!("skip {bits}"),
        }
    }

    /// The stream unit's trap when `left` bits remain, if the read traps.
    fn underflow(self, left: usize) -> Option<LaneError> {
        (self.bits() > left).then_some(match self {
            Read::Le(_) => LaneError::StreamUnderflow { wanted: 8, available: left % 8 },
            _ => LaneError::StreamUnderflow { wanted: self.bits(), available: left },
        })
    }
}

/// The guard in front of the loop.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Guard {
    None,
    /// `beq r9, r2, done`: taken when there is nothing to do.
    Beq,
    /// `bne r2, r9, loop`: taken when there is.
    Bne,
}

/// One drawn program.
#[derive(Debug)]
struct Draw {
    /// What a trip reads, in order: `B` bits in total.
    reads: Vec<Read>,
    /// Bytes of each post-increment store a trip makes: `k` in total.
    stores: Vec<usize>,
    s: u32,
    t: u32,
    guard: Guard,
    /// A read between the `inrem` and the loop.
    interposed: Option<Read>,
}

impl Draw {
    fn new(rng: &mut SplitMix64) -> Draw {
        let trip_bits: usize = [8, 16, 32, 64, 128][rng.below(5)];
        let mut reads = Vec::new();
        // No read is wider than 64 bits: a 128-bit trip reads two halves.
        for half in 0..trip_bits.div_ceil(64) {
            let mut left = trip_bits.min(64 * (half + 1)) - 64 * half;
            while left > 0 {
                let w = if rng.below(2) == 0 { left } else { 1 + rng.below(left) };
                reads.push(if w > 32 || (w % 8 == 0 && rng.below(2) == 0) {
                    Read::Le(w / 8)
                } else if rng.below(2) == 0 {
                    Read::Sym(w)
                } else {
                    Read::Skip(w)
                });
                left -= reads.last().unwrap().bits();
            }
        }
        let stores: Vec<usize> = (0..=rng.below(4)).map(|_| [1, 4, 8][rng.below(3)]).collect();
        // Each ingredient is mostly right, so that a draw the rule rejects is
        // mostly one ingredient away from one it accepts.
        let (s_least, t_most) = (trip_bits.ilog2(), stores.iter().sum::<usize>().ilog2());
        let t = match rng.below(4) {
            0 => t_most + 1 + rng.below(2) as u32,
            _ => rng.below(t_most as usize + 1) as u32,
        };
        let s = match rng.below(8) {
            0 | 1 => rng.below(s_least as usize) as u32,
            // As small as the widths allow: at `s == t` the interval domain
            // cannot keep the limit below 2^63.
            2 => s_least.max(t),
            _ => s_least + rng.below(8 - s_least as usize) as u32,
        };
        let interposed = match rng.below(8) {
            0 => Some(Read::Sym(1 + rng.below(16))),
            1 => Some(Read::Skip(1 + rng.below(16))),
            _ => None,
        };
        let guard = [Guard::None, Guard::Beq, Guard::Bne, Guard::Beq, Guard::Bne][rng.below(5)];
        Draw { reads, stores, s, t, guard, interposed }
    }

    fn trip_bits(&self) -> usize {
        self.reads.iter().map(|r| r.bits()).sum()
    }

    fn trip_bytes(&self) -> usize {
        self.stores.iter().sum()
    }

    fn source(&self) -> String {
        let mut lines = vec!["mov r2, r14".to_string(), "inrem r3".into()];
        lines.extend(self.interposed.map(|read| read.text(8)));
        lines.push(format!("shri r9, r3, {}", self.s));
        lines.push(format!("shli r9, r9, {}", self.t));
        lines.push("add r9, r9, r2".into());
        match self.guard {
            Guard::None => {}
            Guard::Beq => lines.push("beq r9, r2, done".into()),
            Guard::Bne => lines.extend(["bne r2, r9, loop".into(), "jump done".into()]),
        }
        lines.push("loop:".into());
        lines.extend(self.reads.iter().enumerate().map(|(i, read)| read.text(4 + i % 4)));
        // Each store writes what some read of the trip left in a register,
        // or the count, which is always written.
        let written: Vec<usize> = (self.reads.iter().enumerate())
            .filter(|(_, r)| !matches!(r, Read::Skip(_)))
            .map(|(i, _)| 4 + i % 4)
            .chain([3])
            .collect();
        for (i, bytes) in self.stores.iter().enumerate() {
            let op = match bytes {
                1 => "storebi",
                4 => "storewi",
                _ => "storedi",
            };
            lines.push(format!("{op} r{}, r2", written[i % written.len()]));
        }
        lines.extend(["bltu r2, r9, loop", "done:", "sub r15, r2, r14", "halt"].map(String::from));
        format!(".entry init\ninit:\n{}\n", lines.join("\n"))
    }

    /// What the rule accepts: a guard, no read after the `inrem`, `2^s ≥ B`,
    /// `2^t ≤ k`, and a limit the interval domain keeps below 2^63 (the
    /// `inrem` it starts from is only known to be non-negative).
    fn counted(&self) -> bool {
        let widest_limit = ((i64::MAX as i128 >> self.s) << self.t) + i128::from(OUT_BASE);
        self.guard != Guard::None
            && self.interposed.is_none()
            && 1 << self.s >= self.trip_bits()
            && 1 << self.t <= self.trip_bytes()
            && widest_limit <= i64::MAX as i128
    }

    /// The run on `bits` input bits, by the reads it makes: the output bytes,
    /// or the trap and whether it came inside the loop.
    fn model(&self, bits: usize) -> Result<usize, (LaneError, bool)> {
        let mut left = bits;
        if let Some(read) = self.interposed {
            if let Some(trap) = read.underflow(left) {
                return Err((trap, false));
            }
            left -= read.bits();
        }
        let limit = (bits >> self.s) << self.t;
        if limit == 0 && self.guard != Guard::None {
            return Ok(0);
        }
        let mut cursor = 0;
        loop {
            for &read in &self.reads {
                if let Some(trap) = read.underflow(left) {
                    return Err((trap, true));
                }
                left -= read.bits();
            }
            cursor += self.trip_bytes();
            if cursor >= limit {
                return Ok(cursor);
            }
        }
    }
}

#[test]
fn generated_counted_loops_never_under_run_once_accepted() {
    let (mut accepted, mut rejected, mut under_ran) = (0, 0, 0);
    let input: Vec<u8> = (0..80u8).map(|b| b.wrapping_mul(0x9D) ^ 0x5A).collect();
    for_each_case(0xC0_0417, 128, |rng| {
        let draw = Draw::new(rng);
        let src = draw.source();
        let image = assemble(&assemble_text("counted", &src).unwrap()).unwrap();
        let report = &image.verify_report;
        assert_eq!(report.error_count(), 0, "{src}\n{report}");
        let warned = report.findings.iter().any(|f| f.analysis == Analysis::StreamBounds);
        assert_eq!(!warned, draw.counted(), "{draw:?}\n{src}\n{report}");
        if warned {
            rejected += 1;
        } else {
            accepted += 1;
        }
        let bound = report.cycle_bound.expect("a halt is reachable");
        for bits in 0..=320.max(4 * draw.trip_bits() + 64) {
            let context = format!("{draw:?} on {bits} bits");
            let cfg = RunConfig::default();
            let run = differential(&image, &input, bits, cfg, &context);
            match (run, draw.model(bits)) {
                (Ok(r), Ok(bytes)) => {
                    assert_eq!(r.output.len(), bytes, "{context}");
                    let in_envelope = bound.contains(r.cycles, bits as u64);
                    assert!(in_envelope, "{context}: {} cycles outside {bound}", r.cycles);
                }
                (Err(got), Err((want, in_loop))) => {
                    assert_eq!(got, want, "{context}");
                    assert!(!in_loop || warned, "{context}: an accepted loop under-ran");
                    under_ran += usize::from(in_loop);
                }
                (run, model) => panic!("{context}: lane {run:?}, model {model:?}"),
            }
        }
    });
    println!("{accepted} accepted, {rejected} rejected, {under_ran} runs under-ran");
    assert!(accepted > 0 && rejected > 0, "{accepted} accepted, {rejected} rejected");
    assert!(under_ran > 0, "no rejected loop ever under-ran");
}
