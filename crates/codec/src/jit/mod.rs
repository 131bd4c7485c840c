//! JIT infrastructure shared by the codec and UDP tiers.
//!
//! Three pieces live here because `recode-udp` depends on `recode-codec`
//! and both tiers lower to the same substrate:
//!
//! - [`exec`]: W^X-managed executable pages (`ExecBuf`) with raw
//!   `mmap`/`mprotect` syscalls, page accounting, and a typed protection
//!   enum that cannot express writable+executable.
//! - [`asm`]: a minimal x86-64 encoder emitting position-independent
//!   machine code into a plain `Vec<u8>`.
//! - [`huff`]: the compiled two-level Huffman dispatch for
//!   `FlatDecoder` (x86-64 only).
//!
//! The whole tier is *optional*: every compiled entry point has a scalar
//! Rust twin that remains the semantic source of truth, and
//! [`enabled()`] gates dispatch at runtime via `RECODE_NO_JIT=1`.

pub mod asm;
pub mod exec;
#[cfg(all(target_arch = "x86_64", target_os = "linux", not(miri)))]
pub mod huff;

pub use exec::{ExecBuf, JitError};

/// True when this build can emit native code at all: x86-64 Linux, not
/// under Miri (which interprets MIR and cannot run machine code).
#[must_use]
pub const fn supported() -> bool {
    cfg!(all(target_arch = "x86_64", target_os = "linux", not(miri)))
}

/// True when the JIT tier should be used: the platform supports it and
/// the `RECODE_NO_JIT=1` escape hatch is not set.
///
/// The environment is consulted exactly once per process — `Lane::run`
/// and `FlatDecoder::decode_*` sit on allocation-free hot paths, and
/// `std::env::var` allocates.
#[must_use]
pub fn enabled() -> bool {
    static ENABLED: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *ENABLED.get_or_init(|| {
        supported() && !std::env::var("RECODE_NO_JIT").is_ok_and(|v| v.trim() == "1")
    })
}

/// A completed (or failed) JIT compilation, reported through the
/// process-wide hook so the flight recorder can turn it into an
/// `EventKind::JitCompile` span without this crate depending on the
/// recorder.
#[derive(Debug, Clone, Copy)]
pub struct CompileEvent {
    /// What was lowered: `"huffman"` or `"lane"`.
    pub what: &'static str,
    /// Machine-code bytes published (0 on failure).
    pub code_bytes: usize,
    /// Blocks (lane) or dispatch entries (huffman) lowered.
    pub blocks: usize,
    /// Dispatch groups the lane lowering serves from data tables instead of
    /// indirect jumps, and the bytes of those tables (part of `code_bytes`).
    pub table_groups: usize,
    /// See `table_groups`.
    pub table_bytes: usize,
    /// Wall time of the lowering + publish, in nanoseconds.
    pub wall_ns: u64,
    /// False when the compile failed and the tier fell back to the
    /// interpreter.
    pub ok: bool,
}

static COMPILE_HOOK: std::sync::OnceLock<fn(&CompileEvent)> = std::sync::OnceLock::new();

/// Installs the process-wide compile-event hook (first caller wins;
/// returns whether this call installed it).
pub fn set_compile_hook(hook: fn(&CompileEvent)) -> bool {
    COMPILE_HOOK.set(hook).is_ok()
}

/// Reports a compile to the hook, if one is installed.
pub fn report_compile(ev: &CompileEvent) {
    if let Some(h) = COMPILE_HOOK.get() {
        h(ev);
    }
}

/// 64-bit FNV-1a over a byte stream — the digest used to pin compiled
/// artifacts to the exact bytes they were lowered from. Not
/// cryptographic; it detects tampering and staleness, not adversaries
/// (the W^X page protection is the integrity boundary).
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// FNV-1a over a `u128` word table (little-endian bytes), for pinning a
/// lane-program JIT artifact to the image words it was compiled from.
#[must_use]
pub fn fnv1a_words(words: &[u128]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for &b in &w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_is_stable_and_input_sensitive() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(fnv1a(b"a"), fnv1a(b"b"));
        assert_ne!(fnv1a_words(&[1]), fnv1a_words(&[2]));
        let w = [0x0102_0304_0506_0708_090a_0b0c_0d0e_0f10u128];
        assert_eq!(fnv1a_words(&w), fnv1a(&w[0].to_le_bytes()));
    }
}
