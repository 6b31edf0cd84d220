//! The workspace's one pseudo-random generator.
//!
//! NeuTraj is seed-driven end to end — seed sampling, distance-weighted
//! pair sampling, weight initialisation, the synthetic corpora — so the
//! generator behind those draws is part of the reproduction. Everything
//! random in the workspace comes from here:
//!
//! * [`mix64`] / [`splitmix64`] — the stateless finalizer and the
//!   one-word stream built on it (hashed HNSW levels, k-means sampling,
//!   the synthetic rows of the bench binaries);
//! * [`Rng`] — xoshiro256++ (Blackman & Vigna) seeded through
//!   splitmix64, with the handful of draw mappings the crates use;
//! * [`cases`] — the seeded case loop the property tests run on.
//!
//! The draw mappings are fixed: changing any of them changes every
//! trained weight and every generated corpus.

use std::ops::{Bound, RangeBounds};

/// The splitmix64 increment (2⁶⁴ / φ, odd).
pub const GOLDEN_GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

/// The splitmix64 output finalizer: a bijective 64-bit mixer.
#[inline]
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One splitmix64 step: advances `state` and returns the next output.
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(GOLDEN_GAMMA);
    mix64(*state)
}

/// xoshiro256++ seeded by splitmix64. The whole stream is a function of
/// the seed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// A generator whose state is the first four splitmix64 outputs
    /// from `seed`.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut z = seed;
        Self {
            s: std::array::from_fn(|_| splitmix64(&mut z)),
        }
    }

    /// Next 64 uniformly distributed bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
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

    /// A uniform `f64` in `[0, 1)` from the top 53 bits.
    #[inline]
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniform integer in `[0, span)` (`span > 0`) by widening multiply.
    #[inline]
    fn below(&mut self, span: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(span)) >> 64) as u64
    }

    /// A uniform draw from `lo..hi` or `lo..=hi`. Panics on an empty or
    /// unbounded range.
    pub fn gen_range<T: Uniform>(&mut self, range: impl RangeBounds<T>) -> T {
        let (Bound::Included(&lo), end) = (range.start_bound(), range.end_bound()) else {
            panic!("cannot sample a range without a start");
        };
        match end {
            Bound::Excluded(&hi) => T::between(self, lo, hi, false),
            Bound::Included(&hi) => T::between(self, lo, hi, true),
            Bound::Unbounded => panic!("cannot sample a range without an end"),
        }
    }

    /// `true` with probability `p`; panics unless `0 <= p <= 1`.
    #[inline]
    pub fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "p={p} is outside [0, 1]");
        self.unit_f64() < p
    }

    /// In-place uniform shuffle (descending Fisher–Yates).
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// A type [`Rng::gen_range`] can draw uniformly between two bounds.
pub trait Uniform: Copy {
    /// One draw from `[lo, hi)`, or `[lo, hi]` when `inclusive`; panics
    /// on an empty range.
    fn between(rng: &mut Rng, lo: Self, hi: Self, inclusive: bool) -> Self;
}

impl Uniform for f64 {
    #[inline]
    fn between(rng: &mut Rng, lo: f64, hi: f64, inclusive: bool) -> f64 {
        if inclusive {
            assert!(lo <= hi, "cannot sample empty range");
            return (lo + (hi - lo) * rng.unit_f64()).min(hi);
        }
        assert!(lo < hi, "cannot sample empty range");
        loop {
            let x = lo + (hi - lo) * rng.unit_f64();
            // Rounding can land on the excluded end point; redraw.
            if x < hi {
                return x;
            }
        }
    }
}

macro_rules! uniform_ints {
    ($($t:ty),*) => {$(
        impl Uniform for $t {
            #[inline]
            fn between(rng: &mut Rng, lo: $t, hi: $t, inclusive: bool) -> $t {
                assert!(lo < hi || (inclusive && lo == hi), "cannot sample empty range");
                let span = (hi as i128 - lo as i128) as u64;
                let off = if !inclusive {
                    rng.below(span)
                } else {
                    // A full-width inclusive range has span + 1 == 2^64.
                    match span.checked_add(1) {
                        Some(s) => rng.below(s),
                        None => rng.next_u64(),
                    }
                };
                (lo as i128 + off as i128) as $t
            }
        }
    )*};
}
uniform_ints!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// Runs `body` on `n` generators seeded `0..n` — the loop behind the
/// property tests ("for random sizes, seeds and thread counts, fast ==
/// oracle"). A failing case prints its seed while unwinding, so it can
/// be replayed alone as `body(&mut Rng::seed_from_u64(seed))`.
pub fn cases(n: u64, mut body: impl FnMut(&mut Rng)) {
    struct Report(u64);
    impl Drop for Report {
        fn drop(&mut self) {
            if std::thread::panicking() {
                eprintln!("failing case: Rng::seed_from_u64({})", self.0);
            }
        }
    }
    for seed in 0..n {
        let _report = Report(seed);
        body(&mut Rng::seed_from_u64(seed));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix64_matches_the_reference_vector() {
        // Vigna's splitmix64.c from state 0.
        let mut state = 0u64;
        let got: [u64; 4] = std::array::from_fn(|_| splitmix64(&mut state));
        let want = [
            0xe220_a839_7b1d_cdaf,
            0x6e78_9e6a_a1b9_65f4,
            0x06c4_5d18_8009_454f,
            0xf88b_b8a8_724c_81ec,
        ];
        assert_eq!(got, want);
        assert_eq!(mix64(GOLDEN_GAMMA), want[0]);
        assert_eq!(Rng::seed_from_u64(0).s, want);
    }

    #[test]
    fn xoshiro256plusplus_matches_the_reference_vector() {
        // xoshiro256plusplus.c from state {1, 2, 3, 4}.
        let mut rng = Rng { s: [1, 2, 3, 4] };
        let want = [
            41943041,
            58720359,
            3588806011781223,
            3591011842654386,
            9228616714210784205,
            9973669472204895162,
            14011001112246962877,
            12406186145184390807,
            15849039046786891736,
            10450023813501588000,
        ];
        for w in want {
            assert_eq!(rng.next_u64(), w);
        }
        // And through the seeding path every crate uses.
        let mut rng = Rng::seed_from_u64(0);
        assert_eq!(rng.next_u64(), 0x53175d61490b23df);
        assert_eq!(rng.next_u64(), 0x61da6f3dc380d507);
    }

    #[test]
    fn ranges_stay_inside_their_bounds_and_reach_both_ends() {
        let mut rng = Rng::seed_from_u64(7);
        let mut seen = [false; 6];
        let mut ends = [false; 2];
        for _ in 0..20_000 {
            let x: f64 = rng.gen_range(-2.5..4.0);
            assert!((-2.5..4.0).contains(&x));
            let y: f64 = rng.gen_range(1.0..=1.5);
            assert!((1.0..=1.5).contains(&y));
            seen[rng.gen_range(0..6usize)] = true;
            let j: u32 = rng.gen_range(0..=4);
            assert!(j <= 4);
            ends[0] |= j == 0;
            ends[1] |= j == 4;
            let k: i32 = rng.gen_range(-3..3);
            assert!((-3..3).contains(&k));
            assert!((0.0..1.0).contains(&rng.unit_f64()));
        }
        assert!(seen.iter().chain(&ends).all(|&s| s));
        let tiny: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        assert!(tiny > 0.0 && tiny < 1.0);
        // Degenerate inclusive ranges are a single point; the widest
        // ones do not overflow.
        assert_eq!(rng.gen_range(9..=9usize), 9);
        assert_eq!(rng.gen_range(2.5..=2.5), 2.5);
        let _: u64 = rng.gen_range(0..=u64::MAX);
        let _: i64 = rng.gen_range(i64::MIN..=i64::MAX);
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_integer_range_panics() {
        Rng::seed_from_u64(1).gen_range(5..5usize);
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_float_range_panics() {
        Rng::seed_from_u64(1).gen_range(1.0..1.0);
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn inverted_inclusive_range_panics() {
        let (lo, hi) = (3, 2);
        Rng::seed_from_u64(1).gen_range(lo..=hi);
    }

    #[test]
    fn gen_bool_tracks_its_probability() {
        let mut rng = Rng::seed_from_u64(3);
        let hits = (0..20_000).filter(|_| rng.gen_bool(0.25)).count();
        assert!((4_500..5_500).contains(&hits), "{hits}");
        for _ in 0..1_000 {
            assert!(!rng.gen_bool(0.0));
            assert!(rng.gen_bool(1.0));
        }
    }

    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn gen_bool_rejects_a_probability_above_one() {
        Rng::seed_from_u64(1).gen_bool(1.5);
    }

    #[test]
    fn same_seed_same_stream_and_shuffle_permutes() {
        let mut a = Rng::seed_from_u64(42);
        let mut b = Rng::seed_from_u64(42);
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, (0..8).map(|_| a.next_u64()).collect::<Vec<_>>());

        let mut v: Vec<usize> = (0..100).collect();
        a.shuffle(&mut v);
        assert_ne!(v, (0..100).collect::<Vec<_>>());
        v.sort_unstable();
        assert_eq!(v, (0..100).collect::<Vec<_>>());
        // Nothing to permute, nothing drawn.
        let before = a.clone();
        a.shuffle(&mut [0u8; 0]);
        a.shuffle(&mut [7u8]);
        assert_eq!(a, before);
    }

    #[test]
    fn cases_seeds_each_case_with_its_index() {
        let mut firsts = Vec::new();
        cases(5, |rng| firsts.push(rng.next_u64()));
        let want: Vec<u64> = (0..5).map(|s| Rng::seed_from_u64(s).next_u64()).collect();
        assert_eq!(firsts, want);
    }
}
