#![warn(missing_docs)]

//! Offline stand-in for the [`rand`](https://crates.io/crates/rand)
//! crate, API-compatible with the subset the Pandora workspace uses:
//! [`rngs::SmallRng`], [`SeedableRng::seed_from_u64`], and
//! [`Rng::gen_range`] over integer ranges.
//!
//! The build environment has no registry access, so the workspace
//! vendors this tiny deterministic implementation instead of the real
//! crate. The generator is xoshiro256++ seeded via SplitMix64 — fast,
//! well distributed, and fully reproducible from a `u64` seed, which is
//! all the simulator's seeded structures (noise streams, co-runner
//! traffic, fault plans) require. It makes no attempt to
//! match the real crate's value streams, only its API.

use core::ops::Range;

/// A low-level source of random 64-bit values.
pub trait RngCore {
    /// The next 64 random bits.
    fn next_u64(&mut self) -> u64;

    /// The next 32 random bits.
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

/// Types that can be sampled uniformly from a half-open range.
pub trait SampleUniform: Copy + PartialOrd {
    /// Samples uniformly from `[lo, hi)` using `rng`.
    fn sample_range<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self;
}

macro_rules! impl_sample_uniform {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_range<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self {
                assert!(lo < hi, "cannot sample empty range");
                let span = (hi as i128 - lo as i128) as u128;
                // Multiply-shift bounded sampling; the tiny modulo bias
                // is irrelevant for simulation noise.
                let r = ((u128::from(rng.next_u64()) * span) >> 64) as i128;
                (lo as i128 + r) as $t
            }
        }
    )*};
}

impl_sample_uniform!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// User-facing sampling methods, available on every [`RngCore`].
pub trait Rng: RngCore {
    /// Samples uniformly from the half-open `range`.
    fn gen_range<T: SampleUniform>(&mut self, range: Range<T>) -> T {
        T::sample_range(self, range.start, range.end)
    }

    /// A uniformly random `u64`.
    fn gen_u64(&mut self) -> u64 {
        self.next_u64()
    }

    /// `true` with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool {
        (self.next_u64() as f64 / u64::MAX as f64) < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// RNGs constructible from a seed.
pub trait SeedableRng: Sized {
    /// Builds the generator from a 64-bit seed (deterministic).
    fn seed_from_u64(seed: u64) -> Self;
}

/// Named RNG flavours, mirroring the real crate's module layout.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// A small, fast, deterministic generator (xoshiro256++).
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct SmallRng {
        s: [u64; 4],
    }

    impl SeedableRng for SmallRng {
        fn seed_from_u64(seed: u64) -> SmallRng {
            // SplitMix64 stream expands the seed into the full state;
            // guarantees a nonzero state for any seed.
            let mut x = seed;
            let mut next = move || {
                x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = x;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                z ^ (z >> 31)
            };
            SmallRng {
                s: [next(), next(), next(), next()],
            }
        }
    }

    impl RngCore for SmallRng {
        fn next_u64(&mut self) -> u64 {
            let s = &mut self.s;
            let result = s[0]
                .wrapping_add(s[3])
                .rotate_left(23)
                .wrapping_add(s[0]);
            let t = s[1] << 17;
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            result
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::SmallRng;
    use super::{Rng, RngCore, SeedableRng};

    #[test]
    fn same_seed_same_stream() {
        let mut a = SmallRng::seed_from_u64(42);
        let mut b = SmallRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SmallRng::seed_from_u64(1);
        let mut b = SmallRng::seed_from_u64(2);
        assert_ne!(
            (0..8).map(|_| a.next_u64()).collect::<Vec<_>>(),
            (0..8).map(|_| b.next_u64()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn gen_range_stays_in_bounds() {
        let mut rng = SmallRng::seed_from_u64(7);
        for _ in 0..10_000 {
            let v = rng.gen_range(10u64..20);
            assert!((10..20).contains(&v));
            let w = rng.gen_range(0usize..3);
            assert!(w < 3);
            let s = rng.gen_range(-5i64..5);
            assert!((-5..5).contains(&s));
        }
    }

    #[test]
    fn gen_range_covers_the_range() {
        let mut rng = SmallRng::seed_from_u64(9);
        let mut seen = [false; 8];
        for _ in 0..1_000 {
            seen[rng.gen_range(0usize..8)] = true;
        }
        assert!(seen.iter().all(|&s| s), "all buckets hit: {seen:?}");
    }
}
