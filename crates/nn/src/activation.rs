//! The crate's one `exp`, one `tanh` and one `sigmoid` (`DESIGN.md` §12).
//!
//! Every recurrent step spends a few hundred transcendental calls on its
//! gates, its attention softmax and its cell state. Going through the
//! platform's libm made those calls the larger half of the step and tied
//! every embedding to one libm build. The functions here use nothing but
//! IEEE-754 `+ − × ÷`, comparisons and integer operations on the bit
//! pattern, so a result is the same on every host:
//!
//! * the scalar functions [`exp`], [`sigmoid`], [`tanh`] **are** the
//!   definition;
//! * [`exp_slice`], [`sigmoid_slice`], [`tanh_slice`] map a whole slice
//!   in place. Their portable loop calls the functions above inlined;
//!   they are branch-free, so `target-cpu=native` vectorizes it across
//!   elements. At [`SimdLevel::Avx512`] an `unsafe` arm maps the whole
//!   groups of eight first, with the same operations on eight lanes in
//!   the same order, and the loop takes the rest. Multiply and add stay
//!   separate everywhere (rustc never contracts, and a fused step would
//!   round once where the definition rounds twice), so both agree bit
//!   for bit, including on NaN, ±inf and subnormal inputs.
//!
//! `exp`: `x = k·ln2 + r` with `k = round(x·log₂e)` taken by the
//! add-a-big-constant trick (no float→int conversion, so nothing to go
//! wrong on NaN) and `ln2` split in two so `x − k·ln2_hi` is exact; the
//! rounding error of `r` is carried as `c`. `e^r = 1 + r + (r²·q(r) + c)`
//! with `q` the degree-11 Taylor tail (remainder `< 0.04` ulp on
//! `|r| ≤ ln2/2`), evaluated as two interleaved Horner chains in `r²`,
//! and the rounding error of `1 + r` recovered exactly. `2^k` is built
//! from exponent bits and applied in two halves, which makes overflow to
//! `inf` and gradual underflow come out of the ordinary multiply.
//!
//! `tanh`: below `TANH_SMALL = 0.8125` the depth-9 continued fraction
//! `x/(1 + x²/(3 + x²/(5 + …)))`, rearranged as `x − x·z·N(z)/D(z)`
//! (`z = x²`, integer coefficients) so the rounding errors of the
//! quotient are scaled by the small correction; above it
//! `1 − 2/(e^{2|x|} + 1)`. Both arms are evaluated on `|x|` and blended
//! by mask, and the sign is put back by bit-or, so `tanh(−x) == −tanh(x)`
//! exactly.
//!
//! `sigmoid`: `1/(1 + e^{−x})`, the definition the cells always used.
//!
//! Measured against 200-bit arithmetic (4·10⁵ points each): `exp` ≤ 0.69
//! ulp, `tanh` ≤ 0.97 ulp, `sigmoid` ≤ 1.96 ulp (the reciprocal of a
//! value just above a power of two doubles its error). Against glibc
//! (2·10⁷ points each): `exp` differs in 1.8 % of results, never by more
//! than 1 ulp; `tanh` never by more than 2 (glibc's own error reaches 2.1
//! ulp below `|x| = 1`); `sigmoid` never by more than 2 above `x = −35`.

#[cfg(target_arch = "x86_64")]
use crate::simd::use_avx512;
use neutraj_obs::simd::SimdLevel;

const LOG2E: f64 = std::f64::consts::LOG2_E;
/// `ln 2` rounded to 32 mantissa bits (21 trailing zeros): `k·LN2_HI` is
/// exact for every `|k| < 2²¹`.
const LN2_HI: f64 = f64::from_bits(0x3fe6_2e42_fee0_0000);
/// `ln 2 − LN2_HI`.
const LN2_LO: f64 = f64::from_bits(0x3dea_39ef_3579_3c76);
/// `1.5·2⁵²`: adding it to `|v| < 2⁵¹` rounds `v` to the nearest integer
/// `k` (ties to even) and leaves `ROUND.to_bits() + k` as the bit pattern.
const ROUND: f64 = 6_755_399_441_055_744.0;
/// Arguments outside `[EXP_LO, EXP_HI]` give the same result as the
/// bound: `0` and `inf`.
const EXP_LO: f64 = -746.0;
const EXP_HI: f64 = 710.0;
/// Where `tanh` switches from the continued fraction to `exp`: the two
/// arms' worst errors cross here.
const TANH_SMALL: f64 = 0.8125;
/// From here on `tanh` rounds to `1`.
const TANH_ONE: f64 = 22.0;
const SIGN: u64 = 1 << 63;

/// `1/n!` for the Taylor tail of `e^r` (every `n!` here is exact, so the
/// quotients are correctly rounded).
const INV_FACT: [f64; 14] = {
    let mut c = [1.0; 14];
    let (mut n, mut fact) = (1, 1.0);
    while n < 14 {
        fact *= n as f64;
        c[n] = 1.0 / fact;
        n += 1;
    }
    c
};

/// `a > b ? a : b` — `_mm256_max_pd(a, b)` and `_mm512_max_pd(a, b)`,
/// which return `b` when either is NaN.
#[inline(always)]
fn max(a: f64, b: f64) -> f64 {
    if a > b {
        a
    } else {
        b
    }
}

/// `a < b ? a : b` — `_mm256_min_pd(a, b)`, `_mm512_min_pd(a, b)`.
#[inline(always)]
fn min(a: f64, b: f64) -> f64 {
    if a < b {
        a
    } else {
        b
    }
}

/// `x` into `[EXP_LO, EXP_HI]`. NaN compares false and takes the lower
/// bound; [`keep_nan`] puts it back.
#[inline(always)]
fn clamp(x: f64) -> f64 {
    min(max(x, EXP_LO), EXP_HI)
}

/// `x` where `x` is NaN, else `y`.
#[inline(always)]
fn keep_nan(x: f64, y: f64) -> f64 {
    if x.is_nan() {
        x
    } else {
        y
    }
}

/// For finite `x` in `[EXP_LO, EXP_HI]`: `(e, t)` with `e^x = e·2^k`,
/// `e ∈ [0.70, 1.42]` and `k` the integer `t.to_bits() − ROUND.to_bits()`.
#[inline(always)]
fn exp_reduced(x: f64) -> (f64, f64) {
    let t = x * LOG2E + ROUND;
    let k = t - ROUND;
    let hi = x - k * LN2_HI;
    let lo = k * LN2_LO;
    let r = hi - lo;
    let c = (hi - r) - lo;
    let r2 = r * r;
    let c_ = &INV_FACT;
    let even = ((((c_[12] * r2 + c_[10]) * r2 + c_[8]) * r2 + c_[6]) * r2 + c_[4]) * r2 + c_[2];
    let odd = ((((c_[13] * r2 + c_[11]) * r2 + c_[9]) * r2 + c_[7]) * r2 + c_[5]) * r2 + c_[3];
    let q = even + r * odd;
    // 1 + r + (r²·q + c), the rounding error of `1 + r` recovered exactly.
    let u = 1.0 + r;
    let lost = (1.0 - u) + r;
    (u + (lost + (r2 * q + c)), t)
}

/// `e·2^k` for the pair [`exp_reduced`] returns, `k ∈ [−1076, 1024]`:
/// `2^k` as two normal factors `2^⌊k/2⌋ · 2^⌈k/2⌉`, so the last multiply
/// is the only one that can round (into a subnormal) or overflow.
#[inline(always)]
fn scale(e: f64, t: f64) -> f64 {
    // k + 2048 > 0, so the halving is a logical shift (AVX2 has no
    // arithmetic one on 64-bit lanes).
    let w = t.to_bits().wrapping_sub(ROUND.to_bits() - 2048);
    let h = w >> 1;
    let lower = f64::from_bits(h.wrapping_sub(1) << 52);
    let upper = f64::from_bits(w.wrapping_sub(h).wrapping_sub(1) << 52);
    (e * lower) * upper
}

/// `e^x`. Total: NaN in → that NaN out, `exp(−inf) = 0`, overflow to
/// `inf` above `709.78…`, gradual underflow to `0` below `−745.13…`.
/// Within 1 ulp of libm.
#[inline(always)]
pub fn exp(x: f64) -> f64 {
    let (e, t) = exp_reduced(clamp(x));
    keep_nan(x, scale(e, t))
}

/// Logistic sigmoid `1/(1 + e^{−x})`; `sigmoid(0) == 0.5` exactly.
/// Within 2 ulp of the same expression over libm's `exp` (wherever that
/// expression is itself that accurate: above `x ≈ −35`).
#[inline(always)]
pub fn sigmoid(x: f64) -> f64 {
    let (e, t) = exp_reduced(clamp(-x));
    keep_nan(x, 1.0 / (1.0 + scale(e, t)))
}

/// Hyperbolic tangent. Odd exactly (`tanh(−x) == −tanh(x)`, `tanh(±0) =
/// ±0`), `tanh(±inf) = ±1`, NaN in → that NaN out. Within 2 ulp of libm.
#[inline(always)]
pub fn tanh(x: f64) -> f64 {
    let a = f64::from_bits(x.to_bits() & !SIGN);
    let z = a * a;
    let n = ((44.0 * z + 12_870.0) * z + 810_810.0) * z + 11_486_475.0;
    let d = (((45.0 * z + 13_860.0) * z + 945_945.0) * z + 16_216_200.0) * z + 34_459_425.0;
    let small = a - a * (z * (n / d));
    // 2a ≤ 44: one normal factor 2^k is enough.
    let (e, t) = exp_reduced(2.0 * min(a, TANH_ONE));
    let pow = f64::from_bits(t.to_bits().wrapping_sub(ROUND.to_bits() - 1023) << 52);
    let big = 1.0 - 2.0 / (e * pow + 1.0);
    let y = if a < TANH_SMALL { small } else { big };
    keep_nan(x, f64::from_bits(y.to_bits() | (x.to_bits() & SIGN)))
}

/// The three maps, for the one dispatcher below.
#[derive(Clone, Copy)]
enum Map {
    Exp,
    Sigmoid,
    Tanh,
}

/// At [`SimdLevel::Avx512`] the 512-bit arm maps the whole groups of
/// eight; the portable loop maps what it left (all of `x` at any other
/// level). Each loop calls its function directly, so it is inlined and
/// vectorized (through a function pointer it would stay scalar).
#[inline]
#[allow(unsafe_code)]
fn map_slice(level: SimdLevel, map: Map, x: &mut [f64]) {
    #[allow(unused_mut)]
    let mut done = 0;
    #[cfg(target_arch = "x86_64")]
    if use_avx512(level) {
        // SAFETY: AVX-512F/DQ presence just verified; the kernel stays
        // inside `x`.
        done = unsafe { avx512::map_slice(map, x) };
    }
    let _ = level;
    let rest = &mut x[done..];
    match map {
        Map::Exp => rest.iter_mut().for_each(|v| *v = exp(*v)),
        Map::Sigmoid => rest.iter_mut().for_each(|v| *v = sigmoid(*v)),
        Map::Tanh => rest.iter_mut().for_each(|v| *v = tanh(*v)),
    }
}

/// `x[i] ← exp(x[i])`.
pub fn exp_slice(x: &mut [f64]) {
    exp_slice_with_level(neutraj_obs::simd::level(), x);
}

/// [`exp_slice`] with the dispatch level pinned (for the bit-identity
/// tests, like [`crate::linalg::matmul_nt_with_level`]).
pub fn exp_slice_with_level(level: SimdLevel, x: &mut [f64]) {
    map_slice(level, Map::Exp, x);
}

/// `x[i] ← sigmoid(x[i])`.
pub fn sigmoid_slice(x: &mut [f64]) {
    sigmoid_slice_with_level(neutraj_obs::simd::level(), x);
}

/// [`sigmoid_slice`] with the dispatch level pinned.
pub fn sigmoid_slice_with_level(level: SimdLevel, x: &mut [f64]) {
    map_slice(level, Map::Sigmoid, x);
}

/// `x[i] ← tanh(x[i])`.
pub fn tanh_slice(x: &mut [f64]) {
    tanh_slice_with_level(neutraj_obs::simd::level(), x);
}

/// [`tanh_slice`] with the dispatch level pinned.
pub fn tanh_slice_with_level(level: SimdLevel, x: &mut [f64]) {
    map_slice(level, Map::Tanh, x);
}

/// The scalar functions above, eight lanes at a time: every line is the
/// line of the same name there, each operation its `_mm512_` instruction;
/// the two selects compare into a mask register (`_mm512_cmp_pd_mask`)
/// and blend by it (`_mm512_mask_blend_pd`). `min`/`max` keep their
/// operand order (`vminpd`/`vmaxpd` return the second operand on NaN, as
/// the scalar ones do), so NaN lanes take the same operand. The bitwise
/// `pd` operations are AVX512DQ. The lane functions take and return
/// values only, so they are safe `#[target_feature]` functions (callable
/// from AVX-512 code alone); the `unsafe` is the slice walk in
/// `map_slice`.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod avx512 {
    use super::*;
    use core::arch::x86_64::*;

    #[inline]
    #[target_feature(enable = "avx512f,avx512dq")]
    fn splat_bits(b: u64) -> __m512i {
        _mm512_set1_epi64(b as i64)
    }

    #[inline]
    #[target_feature(enable = "avx512f,avx512dq")]
    fn exp_reduced(x: __m512d) -> (__m512d, __m512d) {
        let s = |v: f64| _mm512_set1_pd(v);
        let round = s(ROUND);
        let t = _mm512_add_pd(_mm512_mul_pd(x, s(LOG2E)), round);
        let k = _mm512_sub_pd(t, round);
        let hi = _mm512_sub_pd(x, _mm512_mul_pd(k, s(LN2_HI)));
        let lo = _mm512_mul_pd(k, s(LN2_LO));
        let r = _mm512_sub_pd(hi, lo);
        let c = _mm512_sub_pd(_mm512_sub_pd(hi, r), lo);
        let r2 = _mm512_mul_pd(r, r);
        let c_ = &INV_FACT;
        let mut even = s(c_[12]);
        let mut odd = s(c_[13]);
        for n in [10, 8, 6, 4, 2] {
            even = _mm512_add_pd(_mm512_mul_pd(even, r2), s(c_[n]));
            odd = _mm512_add_pd(_mm512_mul_pd(odd, r2), s(c_[n + 1]));
        }
        let q = _mm512_add_pd(even, _mm512_mul_pd(r, odd));
        let tail = _mm512_add_pd(_mm512_mul_pd(r2, q), c);
        let u = _mm512_add_pd(s(1.0), r);
        let lost = _mm512_add_pd(_mm512_sub_pd(s(1.0), u), r);
        (_mm512_add_pd(u, _mm512_add_pd(lost, tail)), t)
    }

    #[inline]
    #[target_feature(enable = "avx512f,avx512dq")]
    fn scale(e: __m512d, t: __m512d) -> __m512d {
        let one = splat_bits(1);
        let w = _mm512_sub_epi64(_mm512_castpd_si512(t), splat_bits(ROUND.to_bits() - 2048));
        let h = _mm512_srli_epi64::<1>(w);
        let lower = _mm512_slli_epi64::<52>(_mm512_sub_epi64(h, one));
        let upper = _mm512_slli_epi64::<52>(_mm512_sub_epi64(_mm512_sub_epi64(w, h), one));
        _mm512_mul_pd(
            _mm512_mul_pd(e, _mm512_castsi512_pd(lower)),
            _mm512_castsi512_pd(upper),
        )
    }

    /// `x` where `x` is NaN, else `y`.
    #[inline]
    #[target_feature(enable = "avx512f,avx512dq")]
    fn keep_nan(x: __m512d, y: __m512d) -> __m512d {
        _mm512_mask_blend_pd(_mm512_cmp_pd_mask::<_CMP_UNORD_Q>(x, x), y, x)
    }

    #[inline]
    #[target_feature(enable = "avx512f,avx512dq")]
    fn clamp(x: __m512d) -> __m512d {
        _mm512_min_pd(
            _mm512_max_pd(x, _mm512_set1_pd(EXP_LO)),
            _mm512_set1_pd(EXP_HI),
        )
    }

    #[inline]
    #[target_feature(enable = "avx512f,avx512dq")]
    fn exp(x: __m512d) -> __m512d {
        let (e, t) = exp_reduced(clamp(x));
        keep_nan(x, scale(e, t))
    }

    #[inline]
    #[target_feature(enable = "avx512f,avx512dq")]
    fn sigmoid(x: __m512d) -> __m512d {
        let sign = _mm512_castsi512_pd(splat_bits(SIGN));
        let (e, t) = exp_reduced(clamp(_mm512_xor_pd(x, sign)));
        let one = _mm512_set1_pd(1.0);
        keep_nan(x, _mm512_div_pd(one, _mm512_add_pd(one, scale(e, t))))
    }

    #[inline]
    #[target_feature(enable = "avx512f,avx512dq")]
    fn tanh(x: __m512d) -> __m512d {
        let s = |v: f64| _mm512_set1_pd(v);
        let sign = _mm512_castsi512_pd(splat_bits(SIGN));
        let a = _mm512_andnot_pd(sign, x);
        let z = _mm512_mul_pd(a, a);
        let mut n = s(44.0);
        for c in [12_870.0, 810_810.0, 11_486_475.0] {
            n = _mm512_add_pd(_mm512_mul_pd(n, z), s(c));
        }
        let mut d = s(45.0);
        for c in [13_860.0, 945_945.0, 16_216_200.0, 34_459_425.0] {
            d = _mm512_add_pd(_mm512_mul_pd(d, z), s(c));
        }
        let small = _mm512_sub_pd(a, _mm512_mul_pd(a, _mm512_mul_pd(z, _mm512_div_pd(n, d))));
        let (e, t) = exp_reduced(_mm512_mul_pd(s(2.0), _mm512_min_pd(a, s(TANH_ONE))));
        let pow = _mm512_slli_epi64::<52>(_mm512_sub_epi64(
            _mm512_castpd_si512(t),
            splat_bits(ROUND.to_bits() - 1023),
        ));
        let e = _mm512_mul_pd(e, _mm512_castsi512_pd(pow));
        let one = s(1.0);
        let big = _mm512_sub_pd(one, _mm512_div_pd(s(2.0), _mm512_add_pd(e, one)));
        let y = _mm512_mask_blend_pd(
            _mm512_cmp_pd_mask::<_CMP_LT_OQ>(a, s(TANH_SMALL)),
            big,
            small,
        );
        keep_nan(x, _mm512_or_pd(y, _mm512_and_pd(x, sign)))
    }

    /// Maps the whole groups of eight in `x` and returns how many
    /// elements that was; the caller finishes the rest.
    ///
    /// # Safety
    /// AVX-512F and AVX-512DQ must be available.
    #[target_feature(enable = "avx512f,avx512dq")]
    pub(super) unsafe fn map_slice(map: Map, x: &mut [f64]) -> usize {
        let done = x.len() - x.len() % 8;
        let p = x.as_mut_ptr();
        macro_rules! each8 {
            ($f:ident) => {
                for i in (0..done).step_by(8) {
                    // SAFETY (of the loads and stores): i + 8 <= done <= len.
                    _mm512_storeu_pd(p.add(i), $f(_mm512_loadu_pd(p.add(i))));
                }
            };
        }
        match map {
            Map::Exp => each8!(exp),
            Map::Sigmoid => each8!(sigmoid),
            Map::Tanh => each8!(tanh),
        }
        done
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use neutraj_trajectory::rng::cases;

    /// Distance in representable values (libm is the reference here and
    /// nowhere else in the crate).
    fn ulps(a: f64, b: f64) -> u64 {
        assert!(a.is_finite() && b.is_finite() && a.signum() == b.signum());
        a.to_bits().abs_diff(b.to_bits())
    }

    /// Worst distance from libm over `lo..=hi` in steps of `step`, each
    /// point nudged off the grid so mantissas vary.
    fn sweep(lo: f64, hi: f64, step: f64, ours: fn(f64) -> f64, libm: fn(f64) -> f64) -> u64 {
        let mut worst = 0;
        let mut x = lo;
        while x <= hi {
            let p = x * (1.0 + 3.0 * f64::EPSILON) + step / 3.0;
            let (got, want) = (ours(p), libm(p));
            if want.is_finite() && want != 0.0 {
                worst = worst.max(ulps(got, want));
            } else {
                assert_eq!(got.to_bits(), want.to_bits(), "at {p}");
            }
            x += step;
        }
        worst
    }

    fn libm_sigmoid(x: f64) -> f64 {
        1.0 / (1.0 + (-x).exp())
    }

    #[test]
    fn exp_is_within_one_ulp_of_libm() {
        assert!(sweep(-40.0, 40.0, 1.0 / 8192.0, exp, f64::exp) <= 1);
        // Through overflow, the subnormal range and underflow.
        assert!(sweep(-750.0, 750.0, 1.0 / 64.0, exp, f64::exp) <= 1);
    }

    #[test]
    fn tanh_is_within_two_ulp_of_libm() {
        assert!(sweep(-40.0, 40.0, 1.0 / 8192.0, tanh, f64::tanh) <= 2);
        assert!(sweep(-750.0, 750.0, 1.0 / 64.0, tanh, f64::tanh) <= 2);
        // The small arm and the junction, densely.
        assert!(sweep(-1.0, 1.0, 1.0 / 1_048_576.0, tanh, f64::tanh) <= 2);
    }

    #[test]
    fn sigmoid_is_within_two_ulp_of_the_libm_expression() {
        assert!(sweep(-35.0, 40.0, 1.0 / 8192.0, sigmoid, libm_sigmoid) <= 2);
        // Below −35 the reference is itself up to 2.4 ulp from the true
        // value: 1 + e^{−x} rounds at ties there (e^{−x} ≥ 2⁵²) and the
        // reciprocal doubles what that leaves. Two evaluations of it over
        // exponentials one ulp apart differ by up to 4.
        assert!(sweep(-40.0, -35.0, 1.0 / 8192.0, sigmoid, libm_sigmoid) <= 4);
        assert!(sweep(-750.0, 750.0, 1.0 / 64.0, sigmoid, libm_sigmoid) <= 4);
    }

    #[test]
    fn exact_values_and_symmetry() {
        assert_eq!(exp(0.0), 1.0);
        assert_eq!(exp(-0.0), 1.0);
        assert_eq!(sigmoid(0.0), 0.5);
        assert_eq!(sigmoid(-0.0), 0.5);
        assert_eq!(tanh(0.0).to_bits(), 0.0f64.to_bits());
        assert_eq!(tanh(-0.0).to_bits(), (-0.0f64).to_bits());
        cases(256, |rng| {
            let x = rng.gen_range(-25.0f64..25.0);
            assert_eq!(tanh(-x).to_bits(), (-tanh(x)).to_bits());
            assert!(tanh(x).abs() <= 1.0);
        });
    }

    #[test]
    fn total_on_nan_infinities_overflow_and_underflow() {
        for f in [exp, sigmoid, tanh] {
            assert!(f(f64::NAN).is_nan());
            assert!(f(-f64::NAN).is_nan());
        }
        assert_eq!(exp(f64::NEG_INFINITY), 0.0);
        assert_eq!(exp(f64::INFINITY), f64::INFINITY);
        assert_eq!(exp(710.0), f64::INFINITY);
        assert!(exp(709.78).is_finite());
        assert_eq!(exp(-745.0), 5e-324);
        assert_eq!(exp(-746.0), 0.0);
        assert_eq!(exp(-1e300), 0.0);
        assert_eq!(tanh(f64::INFINITY), 1.0);
        assert_eq!(tanh(f64::NEG_INFINITY), -1.0);
        assert_eq!(tanh(1e300), 1.0);
        assert_eq!(sigmoid(f64::INFINITY), 1.0);
        assert_eq!(sigmoid(f64::NEG_INFINITY), 0.0);
        assert_eq!(sigmoid(-1e300), 0.0);
        // Subnormal arguments: e^x rounds to 1, tanh x to x.
        for x in [5e-324, -5e-324, 2.2e-308, -1.1e-308] {
            assert_eq!(exp(x), 1.0);
            assert_eq!(tanh(x).to_bits(), x.to_bits());
            assert_eq!(sigmoid(x), 0.5);
        }
    }

    /// Inputs for the arm comparison: ordinary magnitudes salted with
    /// every edge the scalar tests name.
    fn salted(rng: &mut neutraj_trajectory::rng::Rng) -> f64 {
        const EDGES: [f64; 20] = [
            0.0,
            -0.0,
            5e-324,
            -5e-324,
            2.2e-308,
            -2.2e-308,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            709.78,
            710.0,
            -745.0,
            -745.2,
            -746.0,
            TANH_SMALL,
            -TANH_SMALL,
            TANH_ONE,
            19.06,
            1e300,
            -1e300,
        ];
        match rng.gen_range(0..8u32) {
            0 => EDGES[rng.gen_range(0..EDGES.len())],
            1 => rng.gen_range(-750.0..750.0),
            2 => rng.gen_range(-1.0..1.0),
            _ => rng.gen_range(-40.0..40.0),
        }
    }

    /// Every level equals the scalar functions bit for bit, at every
    /// slice length up to 40 and at 512: the portable loop's vector body
    /// and its remainder, and the AVX-512 arm followed by every tail of 1
    /// to 7 that the portable loop maps (on a host without AVX-512 that
    /// level runs the portable loop alone).
    #[test]
    fn slices_agree_bit_for_bit_across_levels() {
        type Oracle = fn(f64) -> f64;
        type Slice = fn(SimdLevel, &mut [f64]);
        let maps: [(Oracle, Slice); 3] = [
            (exp, exp_slice_with_level),
            (sigmoid, sigmoid_slice_with_level),
            (tanh, tanh_slice_with_level),
        ];
        cases(512, |rng| {
            for len in (0..=40).chain([512]) {
                let x: Vec<f64> = (0..len).map(|_| salted(rng)).collect();
                for (f, slice) in maps {
                    for level in SimdLevel::ALL {
                        let mut got = x.clone();
                        slice(level, &mut got);
                        for (&xi, g) in x.iter().zip(&got) {
                            assert_eq!(g.to_bits(), f(xi).to_bits(), "{level:?}: x = {xi:e}");
                        }
                    }
                }
            }
        });
    }
}
