//! The benchmark's own random stream and input hash.
//!
//! Inputs never come from `rand` or `neutraj_trajectory::gen`: the
//! roadmap plans to swap the repository's RNG, and a benchmark whose
//! inputs moved with that swap could not compare the commits around it.

/// splitmix64 (Steele, Lea & Flood): one add and three xor-shift-multiply
/// steps per draw, full 2^64 period.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// A stream that is a pure function of `seed`.
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// A stream for one named purpose (`corpus`, `pool`, ...), so adding
    /// a consumer never shifts the draws another consumer sees.
    pub fn stream(seed: u64, purpose: u64) -> Self {
        let mut mix = Self::new(seed ^ purpose.wrapping_mul(0xd6e8_feb8_6659_fd93));
        Self::new(mix.next_u64())
    }

    /// Next 64 bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` from the top 53 bits.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    /// Uniform integer in `[0, n)`; `n > 0`.
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Zero-mean noise with standard deviation `sigma`: a centred sum of
    /// four uniforms (variance 1/3), which needs no libm call and so
    /// yields the same bytes on every host.
    pub fn noise(&mut self, sigma: f64) -> f64 {
        let s = self.unit() + self.unit() + self.unit() + self.unit() - 2.0;
        s * sigma * 3f64.sqrt()
    }

    /// An exponential gap with mean `1 / rate` (Poisson arrivals).
    pub fn exp_gap(&mut self, rate: f64) -> f64 {
        // 1 - unit() is in (0, 1], so the logarithm is finite.
        -(1.0 - self.unit()).ln() / rate
    }
}

/// FNV-1a, 64 bit: the fingerprint printed as `inputs_fnv64` so two
/// commits can be shown to have run the same bytes.
#[derive(Debug, Clone, Copy)]
pub struct Fnv64(u64);

impl Default for Fnv64 {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv64 {
    /// Folds `bytes` into the hash.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds one `u64` (little-endian) into the hash.
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// The hash so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_matches_the_published_vectors() {
        // Reference outputs of splitmix64 seeded with 1234567 (Vigna's
        // splitmix64.c) and with 0.
        let mut r = SplitMix64::new(1_234_567);
        assert_eq!(r.next_u64(), 6_457_827_717_110_365_317);
        assert_eq!(r.next_u64(), 3_203_168_211_198_807_973);
        assert_eq!(r.next_u64(), 9_817_491_932_198_370_423);
        let mut z = SplitMix64::new(0);
        assert_eq!(z.next_u64(), 0xe220_a839_7b1d_cdaf);
        assert_eq!(z.next_u64(), 0x6e78_9e6a_a1b9_65f4);
    }

    #[test]
    fn derived_draws_stay_in_range_and_streams_differ() {
        let mut r = SplitMix64::new(7);
        for _ in 0..10_000 {
            assert!((0.0..1.0).contains(&r.unit()));
            assert!((2.0..5.0).contains(&r.range(2.0, 5.0)));
            assert!(r.below(13) < 13);
            assert!(r.noise(2.0).abs() <= 2.0 * 2.0 * 3f64.sqrt());
            assert!(r.exp_gap(400.0) >= 0.0);
        }
        let a = SplitMix64::stream(2019, 1).next_u64();
        let b = SplitMix64::stream(2019, 2).next_u64();
        let c = SplitMix64::stream(7, 1).next_u64();
        assert!(a != b && a != c);
        assert_eq!(a, SplitMix64::stream(2019, 1).next_u64());
    }

    #[test]
    fn noise_has_the_requested_spread() {
        let mut r = SplitMix64::new(99);
        let n = 200_000;
        let (mut s, mut s2) = (0.0, 0.0);
        for _ in 0..n {
            let x = r.noise(3.0);
            s += x;
            s2 += x * x;
        }
        let mean = s / n as f64;
        let sd = (s2 / n as f64 - mean * mean).sqrt();
        assert!(mean.abs() < 0.05, "{mean}");
        assert!((sd - 3.0).abs() < 0.05, "{sd}");
    }

    #[test]
    fn fnv_matches_the_published_vectors() {
        let mut h = Fnv64::default();
        assert_eq!(h.finish(), 0xcbf2_9ce4_8422_2325);
        h.write(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
        let mut h = Fnv64::default();
        h.write(b"foobar");
        assert_eq!(h.finish(), 0x8594_4171_f739_67e8);
    }
}
