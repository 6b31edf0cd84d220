//! Offline stand-in for the part of `rand` 0.8 the repository calls:
//! `StdRng::seed_from_u64`, `Rng::{gen_range, gen_bool, gen}` and
//! `SliceRandom::shuffle`.
//!
//! The generator is xoshiro256++ seeded through splitmix64, so streams
//! differ from the published crate's ChaCha12. Nothing the benchmark
//! reports depends on the published streams: its inputs come from its
//! own generator, and model weights only need to be the same on both
//! sides of a comparison, which they are when both sides build against
//! this stub.

use std::ops::{Range, RangeInclusive};

/// The raw 64-bit source every other method is derived from.
pub trait RngCore {
    /// Next 64 uniformly distributed bits.
    fn next_u64(&mut self) -> u64;
}

/// Construction from a 64-bit seed.
pub trait SeedableRng: Sized {
    /// A generator whose whole stream is a function of `seed`.
    fn seed_from_u64(seed: u64) -> Self;
}

pub mod rngs {
    //! The one concrete generator.

    use super::{RngCore, SeedableRng};

    /// xoshiro256++ (Blackman & Vigna), seeded by splitmix64.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            let mut z = seed;
            let mut next = || {
                z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut x = z;
                x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                x ^ (x >> 31)
            };
            Self {
                s: [next(), next(), next(), next()],
            }
        }
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            let s = &mut self.s;
            let out = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
            let t = s[1] << 17;
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            out
        }
    }
}

/// A uniform `f64` in `[0, 1)` from the top 53 bits.
fn unit_f64<R: RngCore + ?Sized>(rng: &mut R) -> f64 {
    (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// A uniform integer in `[0, span)` (`span > 0`) by widening multiply.
fn below<R: RngCore + ?Sized>(rng: &mut R, span: u64) -> u64 {
    ((u128::from(rng.next_u64()) * u128::from(span)) >> 64) as u64
}

/// A type `gen_range` can draw uniformly between two bounds.
pub trait SampleUniform: Sized {
    /// One draw from `[lo, hi)`, or `[lo, hi]` when `inclusive`; panics
    /// on an empty range, like the real crate.
    fn sample_between<R: RngCore + ?Sized>(
        lo: Self,
        hi: Self,
        inclusive: bool,
        rng: &mut R,
    ) -> Self;
}

/// A range `gen_range` can sample from. Blanket-implemented over
/// [`SampleUniform`] (as in the real crate) so an untyped literal range
/// infers its element type from the call site.
pub trait SampleRange<T> {
    /// One uniform draw.
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

impl<T: SampleUniform> SampleRange<T> for Range<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        T::sample_between(self.start, self.end, false, rng)
    }
}

impl<T: SampleUniform> SampleRange<T> for RangeInclusive<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        let (lo, hi) = self.into_inner();
        T::sample_between(lo, hi, true, rng)
    }
}

impl SampleUniform for f64 {
    fn sample_between<R: RngCore + ?Sized>(lo: f64, hi: f64, inclusive: bool, rng: &mut R) -> f64 {
        if inclusive {
            assert!(lo <= hi, "cannot sample empty range");
            return (lo + (hi - lo) * unit_f64(rng)).min(hi);
        }
        assert!(lo < hi, "cannot sample empty range");
        loop {
            let x = lo + (hi - lo) * unit_f64(rng);
            // Rounding can land on the excluded end point; redraw.
            if x < hi {
                return x;
            }
        }
    }
}

macro_rules! uniform_ints {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_between<R: RngCore + ?Sized>(
                lo: $t,
                hi: $t,
                inclusive: bool,
                rng: &mut R,
            ) -> $t {
                assert!(lo < hi || (inclusive && lo == hi), "cannot sample empty range");
                let span = (hi as i128 - lo as i128) as u64;
                let off = if !inclusive {
                    below(rng, span)
                } else {
                    // A full-width inclusive range has span + 1 == 2^64.
                    match span.checked_add(1) {
                        Some(s) => below(rng, s),
                        None => rng.next_u64(),
                    }
                };
                (lo as i128 + off as i128) as $t
            }
        }
    )*};
}
uniform_ints!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// A type `Rng::gen` can produce.
pub trait Standard: Sized {
    /// One draw from the type's standard distribution.
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for f64 {
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        unit_f64(rng)
    }
}
impl Standard for u64 {
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

/// The user-facing sampling methods, blanket-implemented for every
/// [`RngCore`].
pub trait Rng: RngCore {
    /// A uniform draw from `range`.
    fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample_single(self)
    }

    /// `true` with probability `p`; panics unless `0 <= p <= 1`.
    fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "p={p} is outside [0, 1]");
        unit_f64(self) < p
    }

    /// A draw from `T`'s standard distribution.
    fn gen<T: Standard>(&mut self) -> T {
        T::draw(self)
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

pub mod seq {
    //! Slice helpers.

    use super::{below, RngCore};

    /// In-place uniform shuffling.
    pub trait SliceRandom {
        /// Fisher–Yates shuffle.
        fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R);
    }

    impl<T> SliceRandom for [T] {
        fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                self.swap(i, below(rng, i as u64 + 1) as usize);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::seq::SliceRandom;
    use super::{Rng, SeedableRng};

    #[test]
    fn ranges_stay_inside_their_bounds() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..20_000 {
            let x: f64 = rng.gen_range(-2.5..4.0);
            assert!((-2.5..4.0).contains(&x));
            let y: f64 = rng.gen_range(1.0..=1.5);
            assert!((1.0..=1.5).contains(&y));
            let i: usize = rng.gen_range(3..9);
            assert!((3..9).contains(&i));
            let j: u32 = rng.gen_range(0..=4);
            assert!(j <= 4);
            let k: i32 = rng.gen_range(-3..3);
            assert!((-3..3).contains(&k));
            let u: f64 = rng.gen();
            assert!((0.0..1.0).contains(&u));
        }
        let tiny: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        assert!(tiny > 0.0 && tiny < 1.0);
    }

    #[test]
    fn integer_ranges_reach_both_ends() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut seen = [false; 6];
        for _ in 0..1_000 {
            seen[rng.gen_range(0..6usize)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn same_seed_same_stream_and_shuffle_permutes() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        let xs: Vec<u64> = (0..8).map(|_| a.gen()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.gen()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, (0..8).map(|_| a.gen()).collect::<Vec<u64>>());

        let mut v: Vec<usize> = (0..100).collect();
        v.shuffle(&mut a);
        assert_ne!(v, (0..100).collect::<Vec<_>>());
        v.sort_unstable();
        assert_eq!(v, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn gen_bool_tracks_its_probability() {
        let mut rng = StdRng::seed_from_u64(3);
        let hits = (0..20_000).filter(|_| rng.gen_bool(0.25)).count();
        assert!((4_500..5_500).contains(&hits), "{hits}");
        assert!(!rng.gen_bool(0.0));
        assert!(rng.gen_bool(1.0));
    }
}
