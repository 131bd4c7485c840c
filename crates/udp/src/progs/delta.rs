//! Inverse zigzag delta, written in UDP assembly (see `crate::asm` for the
//! grammar). Input: 4-byte little-endian words — the first absolute, the
//! rest zigzagged differences (`recode_codec::delta`). Output: the restored
//! little-endian `u32` index stream.

use crate::asm::assemble_text;
use crate::error::UdpError;
use crate::machine::{assemble, Image};

/// The program source. Two words per trip: both sign bits with one `and`,
/// both magnitudes with one shift (the sign bits are cleared first, so the
/// upper word's cannot slide into the lower word's top bit), both masks with
/// one `shli`/`sub` — the lower lane's sign bit, shifted up 32, minus the
/// pair of sign bits is all-ones in exactly the lanes whose bit was set, the
/// borrow stopping where the upper lane needs it — and one `xor`. The prefix
/// sum then runs through the low half of `r1`: 4-byte stores never see the
/// upper half, which holds whatever the 64-bit adds carried there.
///
/// The pair loop is *counted*: after the first word, `init` reads `inrem`
/// once and sets the output limit `r9` 8 bytes ahead of the cursor for each
/// whole 64 bits left, so the loop tests only its own cursor against `r9`.
/// What is left after it, a last odd word, takes the one-word body in `tail`,
/// which asks `inrem` as before.
///
/// Register roles: `r1` previous index · `r2` output cursor · `r3`
/// remaining-bits · `r4` current word(s) · `r5`/`r6`/`r7` zigzag temporaries
/// · `r9` the pair loop's output limit · `r11` constant 1 · `r12` constant
/// 2^32 + 1.
pub const SOURCE: &str = "\
; inverse zigzag delta over 4-byte LE words
.entry init
init:
    mov r2, r14
    limm r11, 1
    shli r12, r11, 32
    inrem r3
    beq r3, r0, done
    or r12, r12, r11     ; the sign bit of either lane
    insymle r1, 4        ; the first word is absolute
    storewi r1, r2       ; 4-byte store truncates to u32 naturally
    inrem r3
    shri r9, r3, 6       ; whole pairs left...
    shli r9, r9, 3       ; ...8 output bytes each
    add r9, r9, r2
    beq r9, r2, tail
pair:
    insymle r4, 8
    and r5, r4, r12      ; sign bits
    xor r6, r4, r5
    shri r6, r6, 1       ; magnitudes
    shli r7, r5, 32
    sub r7, r7, r5       ; 0 or all-ones, per lane
    xor r6, r6, r7       ; signed deltas (two's complement, per lane)
    add r1, r1, r6       ; prev += delta (wrapping; valid streams stay in range)
    storewi r1, r2
    shri r6, r6, 32
    add r1, r1, r6
    storewi r1, r2
    bltu r2, r9, pair
tail:
    inrem r3
    beq r3, r0, done
    insymle r4, 4
    and r5, r4, r11      ; sign bit
    shri r6, r4, 1       ; magnitude
    sub r5, r0, r5       ; 0 or all-ones
    xor r6, r6, r5
    add r1, r1, r6
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
        // The first word and the way out (18), into and out of the pair loop
        // (2), 15 per trip of two words, and the last odd word (11): 1.88
        // cycles per output byte.
        assert_eq!(r.cycles, 18 + 2 + 15 * 1023 + 11);
    }
}
