//! Offline stand-in for `rand`: SplitMix64 behind the `Rng`/`SeedableRng`
//! surface `recode_sparse::gen` uses. The streams differ from the real
//! crate's, which is why the harness never builds its inputs through `gen`.

use std::ops::{Range, RangeInclusive};

pub trait RngCore {
    fn next_u64(&mut self) -> u64;
}

pub trait SeedableRng: Sized {
    fn seed_from_u64(seed: u64) -> Self;
}

/// SplitMix64 (Steele, Lea & Flood 2014).
pub struct SplitMix64(u64);

impl SeedableRng for SplitMix64 {
    fn seed_from_u64(seed: u64) -> Self {
        SplitMix64(seed)
    }
}

impl RngCore for SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// A type `Rng::gen` and `Rng::gen_range` can produce from 64 random bits.
pub trait Sample: Copy {
    fn any(bits: u64) -> Self;
    fn between(lo: Self, hi: Self, inclusive: bool, bits: u64) -> Self;
}

macro_rules! sample_int {
    ($($t:ty),*) => {$(
        impl Sample for $t {
            fn any(bits: u64) -> Self {
                bits as $t
            }
            fn between(lo: Self, hi: Self, inclusive: bool, bits: u64) -> Self {
                let span = (hi as i128 - lo as i128 + i128::from(inclusive)) as u128;
                assert!(span > 0, "gen_range: empty range");
                (lo as i128 + (u128::from(bits) % span) as i128) as $t
            }
        }
    )*};
}
sample_int!(i32, usize);

impl Sample for f64 {
    fn any(bits: u64) -> Self {
        (bits >> 11) as f64 / (1u64 << 53) as f64
    }
    fn between(lo: Self, hi: Self, _inclusive: bool, bits: u64) -> Self {
        lo + (hi - lo) * Self::any(bits)
    }
}

pub trait SampleRange<T> {
    fn sample(self, bits: u64) -> T;
}

impl<T: Sample> SampleRange<T> for Range<T> {
    fn sample(self, bits: u64) -> T {
        T::between(self.start, self.end, false, bits)
    }
}

impl<T: Sample> SampleRange<T> for RangeInclusive<T> {
    fn sample(self, bits: u64) -> T {
        T::between(*self.start(), *self.end(), true, bits)
    }
}

pub trait Rng: RngCore {
    fn gen<T: Sample>(&mut self) -> T {
        T::any(self.next_u64())
    }

    fn gen_range<T, R: SampleRange<T>>(&mut self, range: R) -> T {
        range.sample(self.next_u64())
    }
}

impl<R: RngCore + ?Sized> Rng for R {}
