//! W^X executable code buffers for the JIT tier.
//!
//! Pages are obtained straight from the kernel (raw `mmap`/`mprotect`/
//! `munmap` syscalls — no new crate dependency) and move through a strict
//! write-xor-execute lifecycle:
//!
//! 1. `mmap(PROT_READ | PROT_WRITE)` — anonymous, private, never executable;
//! 2. the emitted machine code is copied in;
//! 3. `mprotect(PROT_READ | PROT_EXEC)` — the write permission is dropped in
//!    the same call that grants execute.
//!
//! There is no state in which a mapping is writable *and* executable:
//! [`Prot`] has no member carrying both bits, and every protection change
//! funnels through the one private `protect` choke point. A global counter
//! tracks the mapped bytes so tests can prove pages are reclaimed when the
//! owning image is dropped.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Why a code buffer could not be published.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JitError {
    /// The kernel refused the anonymous mapping.
    Map(isize),
    /// The kernel refused the RW→RX protection flip; the mapping was
    /// released before returning (a partial buffer must never leak as
    /// executable-intent memory).
    Protect(isize),
    /// The emitter produced no code, or the lowering refused the input.
    Lowering(String),
    /// A test hook poisoned this publish to exercise the fallback path.
    Poisoned,
}

impl std::fmt::Display for JitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JitError::Map(e) => write!(f, "mmap failed (errno {})", -e),
            JitError::Protect(e) => write!(f, "mprotect failed (errno {})", -e),
            JitError::Lowering(why) => write!(f, "lowering failed: {why}"),
            JitError::Poisoned => write!(f, "publish poisoned by test hook"),
        }
    }
}

impl std::error::Error for JitError {}

/// Page protections a code buffer may hold. Deliberately *not* a bitmask:
/// the type has no representation for `WRITE | EXEC`, so the W^X policy is
/// enforced at the type level rather than by auditing call sites.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Prot {
    /// `PROT_READ | PROT_WRITE` — the staging state while code is copied.
    ReadWrite,
    /// `PROT_READ | PROT_EXEC` — the published, immutable state.
    ReadExec,
}

impl Prot {
    fn bits(self) -> usize {
        const PROT_READ: usize = 1;
        const PROT_WRITE: usize = 2;
        const PROT_EXEC: usize = 4;
        match self {
            Prot::ReadWrite => PROT_READ | PROT_WRITE,
            Prot::ReadExec => PROT_READ | PROT_EXEC,
        }
    }
}

/// Executable bytes currently mapped (page-rounded, live buffers only).
static LIVE_BYTES: AtomicUsize = AtomicUsize::new(0);
/// Incremented if a protection request ever carried write+exec together.
/// Structurally impossible with [`Prot`]; the counter exists so tests can
/// assert the invariant held for a whole workload.
static WX_VIOLATIONS: AtomicU64 = AtomicU64::new(0);

/// Executable bytes currently mapped by live [`ExecBuf`]s.
pub fn live_exec_bytes() -> usize {
    LIVE_BYTES.load(Ordering::SeqCst)
}

/// Number of protection requests that carried write and execute at once.
/// Always zero: [`Prot`] cannot express that state.
pub fn wx_violations() -> u64 {
    WX_VIOLATIONS.load(Ordering::SeqCst)
}

/// Remaining `publish` calls to poison (test hook).
static POISON_NEXT: AtomicU64 = AtomicU64::new(0);

/// Test-only fault hook: the next `count` calls to [`ExecBuf::publish`]
/// fail with [`JitError::Poisoned`], exercising the compile-failure →
/// interpreter fallback ladder without needing the kernel to misbehave.
#[doc(hidden)]
pub fn poison_next_publish_for_test(count: u64) {
    POISON_NEXT.store(count, Ordering::SeqCst);
}

fn take_poison() -> bool {
    POISON_NEXT.fetch_update(Ordering::SeqCst, Ordering::SeqCst, |v| v.checked_sub(1)).is_ok()
}

const PAGE: usize = 4096;

#[cfg(all(target_arch = "x86_64", target_os = "linux", not(miri)))]
mod sys {
    use std::arch::asm;

    /// One raw Linux syscall. Returns the kernel's raw result (negative
    /// errno on failure).
    ///
    /// # Safety
    /// The caller must pass argument values valid for syscall `n`; this
    /// wrapper adds no checking of its own.
    unsafe fn syscall6(
        n: usize,
        a1: usize,
        a2: usize,
        a3: usize,
        a4: usize,
        a5: usize,
        a6: usize,
    ) -> isize {
        let ret: isize;
        asm!(
            "syscall",
            inlateout("rax") n => ret,
            in("rdi") a1,
            in("rsi") a2,
            in("rdx") a3,
            in("r10") a4,
            in("r8") a5,
            in("r9") a6,
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack),
        );
        ret
    }

    const SYS_MMAP: usize = 9;
    const SYS_MPROTECT: usize = 10;
    const SYS_MUNMAP: usize = 11;
    const MAP_PRIVATE: usize = 0x02;
    const MAP_ANONYMOUS: usize = 0x20;

    /// Anonymous private mapping of `len` bytes with protection `prot`.
    pub(super) fn mmap_anon(len: usize, prot: usize) -> isize {
        // SAFETY: anonymous MAP_PRIVATE mapping at a kernel-chosen address;
        // no existing memory is affected, fd is unused (-1).
        unsafe { syscall6(SYS_MMAP, 0, len, prot, MAP_PRIVATE | MAP_ANONYMOUS, usize::MAX, 0) }
    }

    /// Changes the protection of `[addr, addr + len)`.
    ///
    /// # Safety
    /// `addr..addr + len` must be a mapping this process owns (created by
    /// [`mmap_anon`]) and no reference into it may be live across a
    /// permission downgrade.
    pub(super) unsafe fn mprotect(addr: usize, len: usize, prot: usize) -> isize {
        syscall6(SYS_MPROTECT, addr, len, prot, 0, 0, 0)
    }

    /// Unmaps `[addr, addr + len)`.
    ///
    /// # Safety
    /// Same ownership requirement as [`mprotect`]; additionally nothing may
    /// execute or read the region afterwards.
    pub(super) unsafe fn munmap(addr: usize, len: usize) -> isize {
        syscall6(SYS_MUNMAP, addr, len, 0, 0, 0, 0)
    }
}

/// A published, immutable, executable code buffer.
///
/// Created through [`ExecBuf::publish`], which performs the full W^X
/// staging sequence; from the moment a value of this type exists its pages
/// are read+execute only, and they stay that way until `Drop` unmaps them.
#[derive(Debug)]
pub struct ExecBuf {
    base: usize,
    /// Page-rounded mapping length.
    map_len: usize,
    /// Bytes of actual code (`<= map_len`).
    code_len: usize,
}

// SAFETY: the buffer is immutable after publish (RX pages, no interior
// mutability) and the raw base pointer is only dereferenced for reads and
// instruction fetch.
unsafe impl Send for ExecBuf {}
// SAFETY: same argument — shared access to immutable pages.
unsafe impl Sync for ExecBuf {}

/// The single protection choke point: converts the typed protection to
/// syscall bits and audits the (structurally impossible) W+X combination.
fn prot_bits(prot: Prot) -> usize {
    let bits = prot.bits();
    if bits & 0x2 != 0 && bits & 0x4 != 0 {
        WX_VIOLATIONS.fetch_add(1, Ordering::SeqCst);
    }
    bits
}

impl ExecBuf {
    /// Maps fresh pages, copies `code` in while they are read+write, then
    /// flips them to read+execute in a single protection change.
    ///
    /// # Errors
    /// [`JitError::Map`]/[`JitError::Protect`] when the kernel refuses;
    /// [`JitError::Lowering`] for an empty buffer. On any error nothing
    /// stays mapped.
    #[cfg(all(target_arch = "x86_64", target_os = "linux", not(miri)))]
    pub fn publish(code: &[u8]) -> Result<ExecBuf, JitError> {
        if take_poison() {
            return Err(JitError::Poisoned);
        }
        if code.is_empty() {
            return Err(JitError::Lowering("empty code buffer".into()));
        }
        let map_len = code.len().div_ceil(PAGE) * PAGE;
        let base = sys::mmap_anon(map_len, prot_bits(Prot::ReadWrite));
        if base < 0 {
            return Err(JitError::Map(base));
        }
        let base = base as usize;
        // SAFETY: `base..base + map_len` is a fresh private RW mapping owned
        // by us; `code` cannot overlap it.
        unsafe {
            std::ptr::copy_nonoverlapping(code.as_ptr(), base as *mut u8, code.len());
        }
        // SAFETY: our own mapping; no references into it are live.
        let rc = unsafe { sys::mprotect(base, map_len, prot_bits(Prot::ReadExec)) };
        if rc < 0 {
            // SAFETY: releasing the mapping we just created.
            unsafe { sys::munmap(base, map_len) };
            return Err(JitError::Protect(rc));
        }
        LIVE_BYTES.fetch_add(map_len, Ordering::SeqCst);
        Ok(ExecBuf { base, map_len, code_len: code.len() })
    }

    /// Unsupported-platform stand-in so callers can compile unconditionally.
    ///
    /// # Errors
    /// Always [`JitError::Lowering`].
    #[cfg(not(all(target_arch = "x86_64", target_os = "linux", not(miri))))]
    pub fn publish(code: &[u8]) -> Result<ExecBuf, JitError> {
        let _ = (code, take_poison());
        Err(JitError::Lowering("JIT tier requires x86-64 Linux".into()))
    }

    /// Absolute address of the code byte at `off`.
    ///
    /// # Panics
    /// If `off` is outside the published code.
    pub fn addr_of(&self, off: usize) -> usize {
        assert!(off < self.code_len, "offset {off} outside {} code bytes", self.code_len);
        self.base + off
    }

    /// Bytes of published code.
    pub fn code_len(&self) -> usize {
        self.code_len
    }

    /// The published code bytes (readable: pages are RX).
    pub fn code(&self) -> &[u8] {
        // SAFETY: `base..base + code_len` is our live R+X mapping; the
        // pages are readable and immutable for the life of `self`.
        unsafe { std::slice::from_raw_parts(self.base as *const u8, self.code_len) }
    }

    /// Test-only tamper hook: flips one code byte by staging the pages back
    /// through RW and republishing them RX — the buffer is never writable
    /// and executable at once even while being corrupted. Exists so
    /// integrity tests can prove a tampered buffer is caught; hidden from
    /// normal use.
    #[doc(hidden)]
    #[cfg(all(target_arch = "x86_64", target_os = "linux", not(miri)))]
    pub fn corrupt_byte_for_test(&self, off: usize, xor: u8) {
        assert!(off < self.code_len);
        // SAFETY: our own mapping; the RW window is transient and no
        // execution happens until the RX flip below.
        unsafe {
            let rc = sys::mprotect(self.base, self.map_len, prot_bits(Prot::ReadWrite));
            assert_eq!(rc, 0, "mprotect RW failed");
            let p = (self.base + off) as *mut u8;
            *p ^= xor;
            let rc = sys::mprotect(self.base, self.map_len, prot_bits(Prot::ReadExec));
            assert_eq!(rc, 0, "mprotect RX failed");
        }
    }
}

impl Drop for ExecBuf {
    fn drop(&mut self) {
        #[cfg(all(target_arch = "x86_64", target_os = "linux", not(miri)))]
        // SAFETY: unmapping our own mapping; `Drop` guarantees no further
        // use of the code through `self`.
        unsafe {
            sys::munmap(self.base, self.map_len);
        }
        LIVE_BYTES.fetch_sub(self.map_len, Ordering::SeqCst);
    }
}

#[cfg(all(test, target_arch = "x86_64", target_os = "linux", not(miri)))]
mod tests {
    use super::*;

    #[test]
    fn publish_executes_and_reclaims() {
        let before = live_exec_bytes();
        // mov eax, 0x2a; ret
        let buf = ExecBuf::publish(&[0xB8, 0x2A, 0x00, 0x00, 0x00, 0xC3]).unwrap();
        assert!(live_exec_bytes() >= before + PAGE);
        let f: extern "C" fn() -> u32 =
            // SAFETY: the buffer holds a complete SysV-ABI function with
            // this exact signature.
            unsafe { std::mem::transmute::<usize, extern "C" fn() -> u32>(buf.addr_of(0)) };
        assert_eq!(f(), 0x2A);
        drop(buf);
        assert_eq!(live_exec_bytes(), before, "pages reclaimed on drop");
        assert_eq!(wx_violations(), 0);
    }

    #[test]
    fn empty_code_is_refused() {
        assert!(matches!(ExecBuf::publish(&[]), Err(JitError::Lowering(_))));
    }

    #[test]
    fn published_pages_are_read_exec_in_proc_maps() {
        let buf = ExecBuf::publish(&[0xC3]).unwrap();
        let maps = std::fs::read_to_string("/proc/self/maps").unwrap();
        let line = maps
            .lines()
            .find(|l| {
                let Some((range, _)) = l.split_once(' ') else { return false };
                let Some((lo, hi)) = range.split_once('-') else { return false };
                let lo = usize::from_str_radix(lo, 16).unwrap_or(usize::MAX);
                let hi = usize::from_str_radix(hi, 16).unwrap_or(0);
                lo <= buf.addr_of(0) && buf.addr_of(0) < hi
            })
            .expect("mapping listed in /proc/self/maps");
        let perms = line.split_whitespace().nth(1).unwrap();
        assert_eq!(&perms[..3], "r-x", "published pages must be read+exec, not writable: {line}");
    }
}
