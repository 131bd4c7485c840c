//! The harness's clock: a calibration kernel that rescales every wall-clock
//! sample to "reference speed", the sample/span recorder built on it, the
//! counting allocator and the peak-RSS reader.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

/// Median of one calibration-kernel run on the host the benchmark was
/// defined on. A sample is scaled by `CAL_REF_NS / (adjacent calibrations)`,
/// so calibrated values read "ns at reference speed" on any host state.
pub const CAL_REF_NS: f64 = 4_520_000.0;

const CAL_WORDS: usize = 2048;
const CAL_PASSES: usize = 7000;

/// Fixed work shaped like the engine's hot loops: 16 KiB, L1-resident, every
/// word loaded, run through four independent ALU chains (multiply,
/// add-rotate, shift-xor, subtract-xor) and stored back, with no
/// unpredictable branch. A kernel of this kind slows down with the host as
/// much as the decoders do; a branch-bound or a memory-bound one does not
/// (README, "Calibrated wall-clock time"). It updates one buffer in place:
/// with separate source and destination, a heap layout that put them a
/// multiple of 4 KiB apart halved its speed for a whole process. It shares
/// no code with the engine, so an engine change cannot move it.
struct Calib {
    words: Vec<u64>,
}

impl Calib {
    fn new() -> Self {
        let mut rng = crate::gen::SplitMix64::new(0xCA11_B7A7E);
        Calib { words: (0..CAL_WORDS).map(|_| rng.next_u64()).collect() }
    }

    fn run_ns(&mut self) -> f64 {
        let t = Instant::now();
        let mut acc = [1u64, 2, 3, 4];
        for _ in 0..CAL_PASSES {
            for w in self.words.chunks_exact_mut(4) {
                acc[0] = (acc[0] ^ w[0]).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                acc[1] = acc[1].wrapping_add(w[1]).rotate_left(13);
                acc[2] = acc[2].wrapping_add(w[2] >> 7) ^ w[2];
                acc[3] = acc[3].wrapping_sub(w[3]) ^ (w[3] << 3);
                w.copy_from_slice(&acc);
            }
            black_box(&mut self.words);
        }
        t.elapsed().as_nanos() as f64
    }
}

/// One measured call (or summed group of calls) of one layer.
pub struct Span {
    pub name: &'static str,
    pub parent: &'static str,
    pub round: usize,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Time inside the layer: `end - start` for a plain span, the sum of the
    /// inner per-call timings for a summed one.
    pub busy_ns: u64,
    pub calls: u64,
}

#[derive(Clone, Copy)]
pub struct Sample {
    /// ns per call at reference speed.
    pub cal: f64,
    /// ns per call as the host clock read it.
    pub raw: f64,
}

/// Quartiles of one metric's samples.
#[derive(Clone, Copy, Default)]
pub struct Summary {
    pub median: f64,
    pub p25: f64,
    pub p75: f64,
    pub raw_median: f64,
    pub n: usize,
}

impl Summary {
    /// The same quartiles in another unit (`per` of the old one per new one).
    pub fn per(self, per: f64) -> Summary {
        Summary {
            median: self.median / per,
            p25: self.p25 / per,
            p75: self.p75 / per,
            raw_median: self.raw_median / per,
            n: self.n,
        }
    }
}

/// Median of `values` (0 for none); sorts them.
pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    if values.is_empty() {
        0.0
    } else {
        quantile(values, 0.5)
    }
}

fn quantile(sorted: &[f64], q: f64) -> f64 {
    let pos = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub struct Recorder {
    calib: Calib,
    epoch: Instant,
    last_cal_ns: f64,
    cal_runs: Vec<f64>,
    /// Timed since the last calibration, waiting for the next one.
    pending: Vec<(&'static str, f64)>,
    samples: BTreeMap<&'static str, Vec<Sample>>,
    /// Spans are kept, and allocations counted, only while this is set.
    pub tracing: bool,
    pub round: usize,
    pub spans: Vec<Span>,
}

impl Recorder {
    pub fn new() -> Self {
        let mut calib = Calib::new();
        calib.run_ns();
        let last_cal_ns = calib.run_ns();
        Recorder {
            calib,
            epoch: Instant::now(),
            last_cal_ns,
            cal_runs: Vec::new(),
            pending: Vec::new(),
            samples: BTreeMap::new(),
            tracing: false,
            round: 0,
            spans: Vec::new(),
        }
    }

    /// Runs the calibration kernel and scales everything timed since the
    /// previous run by the mean of the two.
    pub fn calibrate(&mut self) {
        let now = self.calib.run_ns();
        let scale = CAL_REF_NS / (0.5 * (self.last_cal_ns + now));
        self.last_cal_ns = now;
        self.cal_runs.push(now);
        for (name, raw) in self.pending.drain(..) {
            self.samples.entry(name).or_default().push(Sample { cal: raw * scale, raw });
        }
    }

    /// Records `busy_ns` spent in `calls` calls of layer `name` since
    /// `start`; the sample is per call and is scaled at the next
    /// [`Recorder::calibrate`].
    pub fn add(
        &mut self,
        name: &'static str,
        parent: &'static str,
        start: Instant,
        busy_ns: u64,
        calls: u64,
    ) {
        self.pending.push((name, busy_ns as f64 / calls.max(1) as f64));
        if self.tracing {
            let start_ns = start.duration_since(self.epoch).as_nanos() as u64;
            let end_ns = self.epoch.elapsed().as_nanos() as u64;
            self.spans.push(Span {
                name,
                parent,
                round: self.round,
                start_ns,
                end_ns,
                busy_ns,
                calls,
            });
        }
    }

    /// Times `f`, which makes `calls` calls into layer `name`, between two
    /// calibrations. Allocations inside `f` are counted while tracing.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: &'static str,
        calls: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        COUNT_ALLOCS.store(self.tracing, Ordering::Relaxed);
        let start = Instant::now();
        let out = f();
        let busy = start.elapsed().as_nanos() as u64;
        COUNT_ALLOCS.store(false, Ordering::Relaxed);
        self.add(name, parent, start, busy, calls);
        self.calibrate();
        out
    }

    pub fn summary(&self, name: &str) -> Summary {
        let Some(samples) = self.samples.get(name).filter(|s| !s.is_empty()) else {
            return Summary::default();
        };
        let mut cal: Vec<f64> = samples.iter().map(|s| s.cal).collect();
        let mut raw: Vec<f64> = samples.iter().map(|s| s.raw).collect();
        cal.sort_by(f64::total_cmp);
        raw.sort_by(f64::total_cmp);
        Summary {
            median: quantile(&cal, 0.5),
            p25: quantile(&cal, 0.25),
            p75: quantile(&cal, 0.75),
            raw_median: quantile(&raw, 0.5),
            n: cal.len(),
        }
    }

    /// Median calibration-kernel run, in ms.
    pub fn calib_ms(&self) -> f64 {
        median(&mut self.cal_runs.clone()) / 1e6
    }
}

static COUNT_ALLOCS: AtomicBool = AtomicBool::new(false);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

/// Bytes requested from the allocator inside traced [`Recorder::time`]
/// calls so far, on any thread.
pub fn alloc_bytes() -> u64 {
    ALLOC_BYTES.load(Ordering::Relaxed)
}

/// The system allocator plus a byte counter that is live only inside traced
/// [`Recorder::time`] calls. Both atomics are statistics and publish no
/// other data, hence `Relaxed`.
pub struct CountingAlloc;

fn count(bytes: usize) {
    if COUNT_ALLOCS.load(Ordering::Relaxed) {
        ALLOC_BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter touches no allocation.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's obligations are `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's obligations are `System.alloc_zeroed`'s.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size.saturating_sub(layout.size()));
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// `VmHWM` of this process in MiB, or 0 where `/proc` has no such line.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
