//! Offline stand-in for `rand` 0.8.
//!
//! The stub is **fully functional** for the API surface the workspace uses: `StdRng::seed_from_u64`, `Rng::gen_range`
//! (half-open and inclusive integer/float ranges), `Rng::gen_bool`, and
//! `seq::SliceRandom::{choose, choose_multiple}`. The generator is
//! splitmix64 — deterministic for a given seed, statistically fine for
//! synthetic data generation, **not** the same stream as the real
//! `StdRng` (ChaCha12), so generated corpora differ between the stub and
//! the real crate. Everything downstream of a fixed seed is still fully
//! reproducible within one build flavor.

/// Core RNG trait (subset of `rand::RngCore`).
pub trait RngCore {
    /// Next 64 random bits.
    fn next_u64(&mut self) -> u64;

    /// Next 32 random bits.
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

/// Seedable construction (subset of `rand::SeedableRng`).
pub trait SeedableRng: Sized {
    /// Build a generator from a `u64` seed.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Named generators, mirroring `rand::rngs`.
pub mod rngs {
    /// Deterministic splitmix64 generator standing in for `rand::rngs::StdRng`.
    #[derive(Debug, Clone)]
    pub struct StdRng {
        state: u64,
    }

    impl super::RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    }

    impl super::SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            let mut rng = StdRng { state: seed ^ 0xA076_1D64_78BD_642F };
            // Warm up so nearby seeds diverge immediately.
            use super::RngCore;
            rng.next_u64();
            rng
        }
    }
}

/// Uniform sampling over ranges, mirroring `rand::distributions::uniform`.
pub mod distributions {
    /// Uniform-range machinery.
    pub mod uniform {
        use crate::RngCore;

        /// Types uniformly sampleable from a `lo..hi` span. Mirrors the real
        /// crate's shape (blanket `SampleRange` impls over `T: SampleUniform`)
        /// so integer-literal inference behaves identically, e.g.
        /// `slice[rng.gen_range(0..5)]` unifies with `usize`.
        pub trait SampleUniform: Sized + Copy + PartialOrd {
            /// Sample from `[lo, hi)` (`inclusive = false`) or `[lo, hi]`.
            fn sample_span<R: RngCore + ?Sized>(lo: Self, hi: Self, inclusive: bool, rng: &mut R) -> Self;
        }

        macro_rules! int_uniform {
            ($($t:ty),*) => {$(
                impl SampleUniform for $t {
                    fn sample_span<R: RngCore + ?Sized>(lo: $t, hi: $t, inclusive: bool, rng: &mut R) -> $t {
                        let span = (hi as i128 - lo as i128) as u128 + inclusive as u128;
                        assert!(span > 0, "gen_range: empty range");
                        let draw = (rng.next_u64() as u128) % span;
                        (lo as i128 + draw as i128) as $t
                    }
                }
            )*};
        }
        int_uniform!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

        macro_rules! float_uniform {
            ($($t:ty),*) => {$(
                impl SampleUniform for $t {
                    fn sample_span<R: RngCore + ?Sized>(lo: $t, hi: $t, inclusive: bool, rng: &mut R) -> $t {
                        assert!(lo < hi || (inclusive && lo <= hi), "gen_range: empty range");
                        let unit = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
                        lo + (hi - lo) * (unit as $t)
                    }
                }
            )*};
        }
        float_uniform!(f32, f64);

        /// A range producing uniform samples of `T`.
        pub trait SampleRange<T> {
            /// Draw one sample from the range.
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
        }

        impl<T: SampleUniform> SampleRange<T> for std::ops::Range<T> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
                T::sample_span(self.start, self.end, false, rng)
            }
        }

        impl<T: SampleUniform> SampleRange<T> for std::ops::RangeInclusive<T> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
                T::sample_span(*self.start(), *self.end(), true, rng)
            }
        }
    }
}

/// User-facing RNG methods (subset of `rand::Rng`).
pub trait Rng: RngCore {
    /// Uniform sample from `range`.
    fn gen_range<T, R>(&mut self, range: R) -> T
    where
        R: distributions::uniform::SampleRange<T>,
    {
        range.sample_single(self)
    }

    /// Bernoulli draw with success probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "gen_bool: p={p} out of range");
        let unit = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        unit < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Sequence-related helpers, mirroring `rand::seq`.
pub mod seq {
    use crate::{Rng, RngCore};

    /// Subset of `rand::seq::SliceRandom`.
    pub trait SliceRandom {
        /// Element type.
        type Item;

        /// Uniformly random element, `None` on an empty slice.
        fn choose<R: RngCore + ?Sized>(&self, rng: &mut R) -> Option<&Self::Item>;

        /// `amount` distinct elements in random order (fewer if the slice is
        /// shorter). The stub returns a concrete iterator over references,
        /// matching how the workspace consumes the real return type.
        fn choose_multiple<R: RngCore + ?Sized>(
            &self,
            rng: &mut R,
            amount: usize,
        ) -> std::vec::IntoIter<&Self::Item>;
    }

    impl<T> SliceRandom for [T] {
        type Item = T;

        fn choose<R: RngCore + ?Sized>(&self, rng: &mut R) -> Option<&T> {
            if self.is_empty() {
                None
            } else {
                Some(&self[rng.gen_range(0..self.len())])
            }
        }

        fn choose_multiple<R: RngCore + ?Sized>(
            &self,
            rng: &mut R,
            amount: usize,
        ) -> std::vec::IntoIter<&T> {
            let k = amount.min(self.len());
            let mut idx: Vec<usize> = (0..self.len()).collect();
            // Partial Fisher–Yates: the first k positions become the sample.
            for i in 0..k {
                let j = rng.gen_range(i..idx.len());
                idx.swap(i, j);
            }
            idx.truncate(k);
            idx.into_iter().map(|i| &self[i]).collect::<Vec<_>>().into_iter()
        }
    }

    impl<T> SliceRandom for Vec<T> {
        type Item = T;

        fn choose<R: RngCore + ?Sized>(&self, rng: &mut R) -> Option<&T> {
            self.as_slice().choose(rng)
        }

        fn choose_multiple<R: RngCore + ?Sized>(
            &self,
            rng: &mut R,
            amount: usize,
        ) -> std::vec::IntoIter<&T> {
            self.as_slice().choose_multiple(rng, amount)
        }
    }

    /// Iterator-based selection (subset of `rand::seq::IteratorRandom`) —
    /// included for completeness; unused paths compile away.
    pub trait IteratorRandom: Iterator + Sized {
        /// Reservoir-sample one element.
        fn choose<R: RngCore + ?Sized>(mut self, rng: &mut R) -> Option<Self::Item> {
            let mut picked = self.next()?;
            let mut seen = 1usize;
            for item in self {
                seen += 1;
                if rng.gen_range(0..seen) == 0 {
                    picked = item;
                }
            }
            Some(picked)
        }
    }

    impl<I: Iterator> IteratorRandom for I {}
}

/// Prelude mirroring `rand::prelude`.
pub mod prelude {
    pub use crate::rngs::StdRng;
    pub use crate::seq::{IteratorRandom, SliceRandom};
    pub use crate::{Rng, RngCore, SeedableRng};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn deterministic_and_in_range() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            let x = a.gen_range(10..20);
            assert_eq!(x, b.gen_range(10..20));
            assert!((10..20).contains(&x));
        }
        let f = a.gen_range(0.25f64..0.75);
        assert!((0.25..0.75).contains(&f));
        let i = a.gen_range(-5i64..=5);
        assert!((-5..=5).contains(&i));
    }

    #[test]
    fn slice_helpers() {
        let mut rng = StdRng::seed_from_u64(7);
        let v = vec![1, 2, 3, 4, 5];
        assert!(v.choose(&mut rng).is_some());
        let picked: Vec<i32> = v.choose_multiple(&mut rng, 3).copied().collect();
        assert_eq!(picked.len(), 3);
        let distinct: std::collections::BTreeSet<i32> = picked.iter().copied().collect();
        assert_eq!(distinct.len(), 3);
        let empty: Vec<i32> = vec![];
        assert!(empty.choose(&mut rng).is_none());
    }

    #[test]
    fn gen_bool_extremes() {
        let mut rng = StdRng::seed_from_u64(1);
        assert!(!rng.gen_bool(0.0));
        assert!(rng.gen_bool(1.0));
    }
}
