//! Offline stand-in for `rand_chacha`: the name `ChaCha8Rng` over the
//! `rand` stand-in's SplitMix64.

pub use rand::SplitMix64 as ChaCha8Rng;
