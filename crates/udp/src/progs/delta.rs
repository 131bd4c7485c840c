//! Inverse delta, written in UDP assembly (see `crate::asm` for the
//! grammar). Input: 4-byte little-endian words, each the wrapping difference
//! of an index from the one before it, the first from 0
//! (`recode_codec::delta`). Output: their running sum, the restored
//! little-endian `u32` index stream.

use crate::asm::assemble_text;
use crate::error::UdpError;
use crate::machine::{assemble, Image};

/// The program source. Four words per trip, two per 64-bit read: the sum
/// runs through the low half of `r1`, adding the read whole and then its
/// upper word. 4-byte stores never see the upper half, which holds whatever
/// the 64-bit adds carried there, and a difference's two's complement wraps
/// the low half exactly as the encoder's wrapping subtraction did.
///
/// The quad loop is *counted*: `init` reads `inrem` once and sets the output
/// limit `r9` 16 bytes ahead of the cursor for each whole 128 bits, so the
/// loop tests only its own cursor against `r9`. The one to three words left
/// after it take the one-word body in `tail`, which asks `inrem`.
///
/// Register roles: `r1` running sum · `r2` output cursor · `r3`
/// remaining-bits · `r4` current word(s) · `r9` the quad loop's output limit.
pub const SOURCE: &str = "\
; inverse delta over 4-byte LE words: a wrapping running sum
.entry init
init:
    mov r2, r14
    inrem r3
    shri r9, r3, 7       ; whole quads...
    shli r9, r9, 4       ; ...16 output bytes each
    add r9, r9, r2
    limm r1, 0           ; the sum starts at 0, written for the register-init lint
    beq r9, r2, tail
quad:
    insymle r4, 8
    add r1, r1, r4       ; the lower word (wrapping in the low half)
    storewi r1, r2       ; 4-byte store truncates to u32 naturally
    shri r4, r4, 32
    add r1, r1, r4       ; the upper word
    storewi r1, r2
    insymle r4, 8
    add r1, r1, r4
    storewi r1, r2
    shri r4, r4, 32
    add r1, r1, r4
    storewi r1, r2
    bltu r2, r9, quad
tail:
    inrem r3
    beq r3, r0, done
    insymle r4, 4
    add r1, r1, r4
    storewi r1, r2
    jump tail
done:
    sub r15, r2, r14
    halt
";

/// Assembles the inverse-delta image (table-independent; build once, reuse
/// across blocks and matrices).
///
/// # Errors
/// Assembly/placement failures (a bug, not a data condition).
pub fn build() -> Result<Image, UdpError> {
    let program =
        assemble_text("udp-delta-decode", SOURCE).map_err(|e| UdpError::Program(e.to_string()))?;
    assemble(&program)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lane::{Lane, RunConfig};
    use recode_codec::delta;

    fn run(input: &[u8]) -> Vec<u8> {
        let image = build().unwrap();
        let mut lane = Lane::new();
        lane.run(&image, input, input.len() * 8, RunConfig::default()).unwrap().output
    }

    #[test]
    fn decodes_banded_indices() {
        let idx: Vec<u32> = (0..2048u32).map(|i| (i / 3) * 2 + (i % 3)).collect();
        let enc = delta::encode_u32(&idx).unwrap();
        let out = run(&enc);
        assert_eq!(out, delta::decode_bytes(&enc).unwrap());
        let words: Vec<u32> =
            out.chunks_exact(4).map(|c| u32::from_le_bytes(c.try_into().unwrap())).collect();
        assert_eq!(words, idx);
    }

    #[test]
    fn decodes_descending_and_large_jumps() {
        let idx = vec![1_000_000u32, 5, 2_000_000, 0, 123, 122, 121];
        let enc = delta::encode_u32(&idx).unwrap();
        let words: Vec<u32> =
            run(&enc).chunks_exact(4).map(|c| u32::from_le_bytes(c.try_into().unwrap())).collect();
        assert_eq!(words, idx);
    }

    #[test]
    fn empty_input_gives_empty_output() {
        assert!(run(&[]).is_empty());
    }

    #[test]
    fn single_word() {
        let enc = delta::encode_u32(&[42]).unwrap();
        assert_eq!(run(&enc), 42u32.to_le_bytes());
    }

    #[test]
    fn cycle_cost_is_linear_and_modest() {
        let idx: Vec<u32> = (0..2048u32).collect();
        let enc = delta::encode_u32(&idx).unwrap();
        let image = build().unwrap();
        let mut lane = Lane::new();
        let r = lane.run(&image, &enc, enc.len() * 8, RunConfig::default()).unwrap();
        // The limit and the way out (12), into and out of the quad loop (2),
        // and 15 per trip of four words: 0.94 cycles per output byte.
        assert_eq!(r.cycles, 12 + 2 + 15 * 512);
        assert_eq!(r.cycles, 7_694);
    }
}
