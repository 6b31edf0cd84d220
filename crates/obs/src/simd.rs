//! Runtime SIMD dispatch policy for the kernels that keep a hand-written
//! vector arm, all in `neutraj-nn`: the AVX-512 packed GEMM tile and
//! activation lanes, the AVX2 small-`m` `A·Bᵀ` product, gathered-rows dot
//! and BPTT rank-`T` accumulate, and the int8 code scan. Every other
//! kernel (the `neutraj-measures` DP lane rows among them) is one portable
//! body that `target-cpu=native` vectorizes, with no level to dispatch.
//!
//! The policy is deliberately tiny (see DESIGN.md §12):
//!
//! * **Three ordered tiers.** [`SimdLevel::Scalar`] < [`SimdLevel::Avx2`]
//!   < [`SimdLevel::Avx512`], and a level implies every level below it:
//!   a kernel with no arm at the requested tier runs its widest arm
//!   below it (every AVX2 arm runs at `Avx512`), so a kernel gains a
//!   tier without any caller changing.
//! * **Detect once, cache forever.** [`level`] probes the host CPU the
//!   first time it is called and caches the answer in a `OnceLock`; the
//!   hot paths pay one relaxed atomic load per *kernel invocation* (not
//!   per element).
//! * **One env kill-switch.** Setting `NEUTRAJ_NO_SIMD` (to anything
//!   except `0` or the empty string) forces [`SimdLevel::Scalar`], so CI
//!   can run the whole workspace suite with the vector paths off and the
//!   scalar oracles on.
//! * **Explicit levels for tests.** Every kernel with a hand-written arm
//!   also has an entry point taking a [`SimdLevel`] parameter, so
//!   property tests compare every arm *in one process* (looping over
//!   [`SimdLevel::ALL`]) without racing on environment variables
//!   ([`level`] is only the default argument, never the only switch).
//!
//! Detection itself is safe code (`is_x86_feature_detected!`); the
//! `unsafe` lives next to the intrinsics in `neutraj-nn`, scoped by
//! `#[allow(unsafe_code)]` on the items that hold them.

use std::sync::OnceLock;

/// The instruction-set tiers the workspace dispatches between. Ordered:
/// a level implies every level below it, so kernels test `level >= …`
/// for each arm they have and never `==`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SimdLevel {
    /// Portable scalar Rust — the bit-identity oracle, always available.
    Scalar,
    /// AVX2 256-bit vectors (4 × f64 lanes). Used without FMA
    /// contraction so results stay bit-identical to the scalar oracle
    /// (rustc never contracts `a * b + c` on its own).
    Avx2,
    /// AVX-512 (`avx512f` + `avx512dq`) 512-bit vectors (8 × f64 lanes),
    /// for the kernels that have an arm for it (the packed GEMM tile, the
    /// activation lanes, and with `avx512vnni` the int8 code scan); a
    /// kernel whose widest arm is AVX2 runs that arm here. Same no-FMA
    /// rule.
    Avx512,
}

impl SimdLevel {
    /// Every level, lowest first — what the bit-identity tests loop over.
    pub const ALL: [SimdLevel; 3] = [Self::Scalar, Self::Avx2, Self::Avx512];

    /// Stable lowercase name (`"scalar"` / `"avx2"` / `"avx512"`), used
    /// in bench JSON and log markers.
    pub fn name(self) -> &'static str {
        match self {
            Self::Scalar => "scalar",
            Self::Avx2 => "avx2",
            Self::Avx512 => "avx512",
        }
    }

    /// The value the `neutraj_simd_dispatch` gauge carries for this
    /// level (`0.0` scalar, `1.0` avx2, `2.0` avx512) — a gauge is
    /// numeric, so the tiers are encoded by rank.
    pub fn gauge_value(self) -> f64 {
        match self {
            Self::Scalar => 0.0,
            Self::Avx2 => 1.0,
            Self::Avx512 => 2.0,
        }
    }
}

/// Raw hardware probe, ignoring both the cache and the env override:
/// the highest tier whose features the host reports. On non-x86_64
/// targets this is a compile-time `Scalar`.
pub fn detect() -> SimdLevel {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512dq")
        {
            return SimdLevel::Avx512;
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            return SimdLevel::Avx2;
        }
    }
    SimdLevel::Scalar
}

/// Whether `NEUTRAJ_NO_SIMD` asks for the scalar path. Empty and `"0"`
/// mean "not set" so `NEUTRAJ_NO_SIMD=0 cargo test` behaves as naively
/// expected.
fn env_disabled() -> bool {
    match std::env::var("NEUTRAJ_NO_SIMD") {
        Ok(v) => !(v.is_empty() || v == "0"),
        Err(_) => false,
    }
}

/// The process-wide dispatch level: [`detect`] gated by the
/// `NEUTRAJ_NO_SIMD` kill-switch, computed once and cached. This is the
/// default every vectorized kernel uses when the caller does not force a
/// level explicitly.
pub fn level() -> SimdLevel {
    static LEVEL: OnceLock<SimdLevel> = OnceLock::new();
    *LEVEL.get_or_init(|| {
        if env_disabled() {
            SimdLevel::Scalar
        } else {
            detect()
        }
    })
}

/// Publishes the cached dispatch level into `registry` as the
/// [`crate::names::SIMD_DISPATCH`] gauge and returns the level — call
/// sites that instrument a workload report which path actually ran.
pub fn publish(registry: &crate::Registry) -> SimdLevel {
    let l = level();
    registry
        .gauge(crate::names::SIMD_DISPATCH)
        .set(l.gauge_value());
    l
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_are_ordered_and_named() {
        assert!(SimdLevel::Scalar < SimdLevel::Avx2);
        assert!(SimdLevel::Avx2 < SimdLevel::Avx512);
        assert!(SimdLevel::ALL.windows(2).all(|w| w[0] < w[1]));
        let names: Vec<&str> = SimdLevel::ALL.iter().map(|l| l.name()).collect();
        assert_eq!(names, ["scalar", "avx2", "avx512"]);
        let gauges: Vec<f64> = SimdLevel::ALL.iter().map(|l| l.gauge_value()).collect();
        assert_eq!(gauges, [0.0, 1.0, 2.0]);
    }

    /// Names the host's tier; CI runs this with `--nocapture` so the log
    /// says which arms the SIMD-live test leg exercised.
    #[test]
    fn host_level_is_named() {
        let host = detect();
        println!("simd: detect() = {}", host.name());
        assert!(SimdLevel::ALL.contains(&host));
    }

    #[test]
    fn cached_level_never_exceeds_detection() {
        // level() folds in the env override, so it can only be <= the
        // raw hardware capability, and it is stable across calls.
        assert!(level() <= detect());
        assert_eq!(level(), level());
    }

    #[test]
    fn publish_writes_the_dispatch_gauge() {
        let r = crate::Registry::new();
        let l = publish(&r);
        let report = r.snapshot();
        let g = report
            .gauges
            .iter()
            .find(|(n, _)| n == crate::names::SIMD_DISPATCH)
            .expect("dispatch gauge registered")
            .1;
        assert_eq!(g, l.gauge_value());
    }
}
