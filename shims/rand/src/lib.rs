//! Offline stand-in for the `rand` crate.
//!
//! The container this repo builds in has no crates.io access, so the real
//! `rand` cannot be fetched. This shim provides exactly the API subset the
//! xqr generators use — `StdRng::seed_from_u64`, `Rng::gen_range` over
//! integer/float ranges, and `Rng::gen_bool` — on top of a SplitMix64
//! core. It is deterministic for a given seed (which is all the
//! generators require), but its streams differ from upstream `rand`, so
//! generated documents differ in content (not in shape or schema) from a
//! build against the real crate.

use std::ops::{Range, RangeInclusive};

/// The minimal generator core (`rand_core::RngCore` analogue).
pub trait RngCore {
    fn next_u64(&mut self) -> u64;
}

/// Seeding entry point (`rand::SeedableRng` analogue, u64 form only).
pub trait SeedableRng: Sized {
    fn seed_from_u64(seed: u64) -> Self;
}

/// User-facing sampling methods (`rand::Rng` analogue).
pub trait Rng: RngCore {
    fn gen_range<T, R>(&mut self, range: R) -> T
    where
        R: SampleRange<T>,
        Self: Sized,
    {
        range.sample_from(self)
    }

    fn gen_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        unit_f64(self.next_u64()) < p
    }
}

impl<T: RngCore> Rng for T {}

/// Ranges that can be sampled uniformly (`rand::distributions::uniform`
/// analogue, reduced to the used instantiations).
pub trait SampleRange<T> {
    fn sample_from<R: RngCore>(self, rng: &mut R) -> T;
}

fn unit_f64(bits: u64) -> f64 {
    // 53 uniform mantissa bits in [0, 1).
    (bits >> 11) as f64 / (1u64 << 53) as f64
}

macro_rules! int_sample_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample_from<R: RngCore>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "gen_range: empty range");
                let span = (self.end as i128 - self.start as i128) as u128;
                let offset = (rng.next_u64() as u128) % span;
                (self.start as i128 + offset as i128) as $t
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample_from<R: RngCore>(self, rng: &mut R) -> $t {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "gen_range: empty range");
                let span = (end as i128 - start as i128) as u128 + 1;
                let offset = (rng.next_u64() as u128) % span;
                (start as i128 + offset as i128) as $t
            }
        }
    )*};
}

int_sample_range!(i8, i16, i32, i64, isize, u8, u16, u32, u64, usize);

impl SampleRange<f64> for Range<f64> {
    fn sample_from<R: RngCore>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "gen_range: empty range");
        self.start + unit_f64(rng.next_u64()) * (self.end - self.start)
    }
}

pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// SplitMix64 — deterministic, seedable, and plenty for data generation.
    #[derive(Clone, Debug)]
    pub struct StdRng {
        state: u64,
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            StdRng { state: seed }
        }
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, SeedableRng};

    #[test]
    fn deterministic_for_seed() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.gen_range(0..1000i64), b.gen_range(0..1000i64));
        }
    }

    #[test]
    fn ranges_in_bounds() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..1000 {
            let v = rng.gen_range(3..10);
            assert!((3..10).contains(&v));
            let v = rng.gen_range(-5i64..=5);
            assert!((-5..=5).contains(&v));
            let f = rng.gen_range(1.5..2.5);
            assert!((1.5..2.5).contains(&f));
            let u: u64 = rng.gen_range(1_000_000_000_000_000..=9_999_999_999_999_999);
            assert!(u >= 1_000_000_000_000_000);
        }
    }

    #[test]
    fn gen_bool_extremes() {
        let mut rng = StdRng::seed_from_u64(1);
        assert!(!rng.gen_bool(0.0));
        assert!(rng.gen_bool(1.0));
    }
}
