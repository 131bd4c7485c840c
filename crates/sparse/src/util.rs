//! Small shared helpers: prefix sums, float comparison, geometric means, and
//! the workspace's one PRNG.

/// Exclusive prefix sum: `out[0] = 0`, `out[i] = counts[0] + .. + counts[i-1]`,
/// with one extra trailing element holding the total.
///
/// This is the canonical step for bucketing entries into CSR/CSC rows.
pub fn exclusive_prefix_sum(counts: &[usize]) -> Vec<usize> {
    let mut out = Vec::with_capacity(counts.len() + 1);
    let mut acc = 0usize;
    out.push(0);
    for &c in counts {
        acc += c;
        out.push(acc);
    }
    out
}

/// Relative-tolerance float comparison used by structural/numeric symmetry
/// checks and test assertions.
pub fn approx_eq(a: f64, b: f64, rel: f64) -> bool {
    if a == b {
        return true;
    }
    if !a.is_finite() || !b.is_finite() {
        return false;
    }
    let scale = a.abs().max(b.abs()).max(1e-300);
    (a - b).abs() <= rel * scale
}

/// Geometric mean of strictly positive samples. Returns `None` for an empty
/// slice or any non-positive sample (the paper reports geometric means for
/// bytes/nnz, throughput and speedup — all positive quantities).
pub fn geometric_mean(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut acc = 0.0f64;
    for &x in xs {
        if x <= 0.0 || x.is_nan() || !x.is_finite() {
            return None;
        }
        acc += x.ln();
    }
    Some((acc / xs.len() as f64).exp())
}

/// SplitMix64 (Steele, Lea & Flood 2014): the workspace's one PRNG. The
/// generators, the fault injector, the chaos harness and every seeded test
/// draw from it, so a run is reproducible from its seed alone.
///
/// The stream is pinned (`tests/gen_digests.rs`): state = seed, exactly one
/// [`next_u64`](Self::next_u64) per draw, whatever the draw's type.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Generator whose whole sequence is determined by `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next 64-bit draw (the splitmix64 step function).
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw in `0..n`. `n` must be nonzero.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform draw in `[0, 1)`.
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform integer draw in `lo..hi`. The range must be non-empty.
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        assert!(lo < hi, "range: empty range {lo}..{hi}");
        let span = (i128::from(hi) - i128::from(lo)) as u128;
        (i128::from(lo) + (u128::from(self.next_u64()) % span) as i128) as i64
    }

    /// Uniform float draw in `[lo, hi)`.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.f64()
    }
}

/// The seeded-case loop the property suites run on: `property` is called
/// `cases` times, each time with a generator seeded from the next draw of a
/// master stream over `seed`, so one number reproduces the whole run. When a
/// case panics, `(seed, case)` is printed on the way out. There is no
/// shrinking: the failing input is whatever that case drew.
pub fn for_each_case(seed: u64, cases: usize, mut property: impl FnMut(&mut SplitMix64)) {
    struct Report(u64, usize);
    impl Drop for Report {
        fn drop(&mut self) {
            if std::thread::panicking() {
                eprintln!("property failed at (seed {:#x}, case {})", self.0, self.1);
            }
        }
    }
    let mut master = SplitMix64::new(seed);
    for case in 0..cases {
        let _report = Report(seed, case);
        property(&mut SplitMix64::new(master.next_u64()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefix_sum_basic() {
        assert_eq!(exclusive_prefix_sum(&[2, 0, 3]), vec![0, 2, 2, 5]);
        assert_eq!(exclusive_prefix_sum(&[]), vec![0]);
    }

    #[test]
    fn approx_eq_handles_scales_and_nan() {
        assert!(approx_eq(1.0, 1.0 + 1e-13, 1e-9));
        assert!(!approx_eq(1.0, 1.1, 1e-9));
        assert!(!approx_eq(f64::NAN, f64::NAN, 1e-9));
        assert!(approx_eq(0.0, 0.0, 1e-12));
    }

    #[test]
    fn geometric_mean_matches_hand_computation() {
        let g = geometric_mean(&[1.0, 4.0]).unwrap();
        assert!((g - 2.0).abs() < 1e-12);
        assert!(geometric_mean(&[]).is_none());
        assert!(geometric_mean(&[1.0, 0.0]).is_none());
        assert!(geometric_mean(&[1.0, -2.0]).is_none());
    }

    #[test]
    fn splitmix_stream_is_pinned_and_every_draw_takes_one_step() {
        // Reference values for seed 0 (Vigna's splitmix64.c).
        let mut rng = SplitMix64::new(0);
        assert_eq!(rng.next_u64(), 0xE220_A839_7B1D_CDAF);
        assert_eq!(rng.next_u64(), 0x6E78_9E6A_A1B9_65F4);

        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        assert_eq!(a.below(10) as u64, b.next_u64() % 10);
        assert_eq!(a.f64(), (b.next_u64() >> 11) as f64 / (1u64 << 53) as f64);
        assert_eq!(a.range(-8, 8), -8 + (b.next_u64() % 16) as i64);
        let unit = (b.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        assert_eq!(a.range_f64(-4.0, 4.0), -4.0 + 8.0 * unit);
        assert_eq!(a.next_u64(), b.next_u64(), "streams stayed in step");
    }

    #[test]
    fn for_each_case_gives_every_case_its_own_reproducible_stream() {
        let draw = |seed| {
            let mut firsts = Vec::new();
            for_each_case(seed, 8, |rng| firsts.push(rng.next_u64()));
            firsts
        };
        let a = draw(7);
        assert_eq!(a, draw(7));
        assert_ne!(a, draw(8));
        let mut distinct = a.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), 8);
    }
}
