//! Estimators for a noisy shared host.
//!
//! Interference from other tenants only ever slows a trial down, so the
//! noise is one-sided: a phase is split into many short trials and the
//! reported figure is the **quiet-decile trial** — the 10th percentile
//! of per-trial times, the 90th of per-trial rates. The median moves
//! with how busy the host was; the quiet decile moves with the code.

/// Nearest-rank percentile (`p` in `[0, 1]`) of an ascending-sorted,
/// non-empty sample.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    sorted[((sorted.len() - 1) as f64 * p).round() as usize]
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The quiet-decile trial of per-trial **times** (lower is quieter).
pub fn quiet_time(trials: &[f64]) -> f64 {
    percentile(&sorted(trials), 0.10)
}

/// The quiet-decile trial of per-trial **rates** (higher is quieter).
pub fn quiet_rate(trials: &[f64]) -> f64 {
    percentile(&sorted(trials), 0.90)
}

/// Median of a non-empty sample.
pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values), 0.50)
}

/// `p` percentile of an unsorted, non-empty sample.
pub fn percentile_of(values: &[f64], p: f64) -> f64 {
    percentile(&sorted(values), p)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_decile_on_known_samples() {
        // 1..=100 shuffled by a fixed stride: p10 of 100 samples is the
        // value at rank round(99 * 0.1) = 10, i.e. 11; p90 is 90.
        let v: Vec<f64> = (0..100).map(|i| ((i * 37) % 100 + 1) as f64).collect();
        assert_eq!(quiet_time(&v), 11.0);
        assert_eq!(quiet_rate(&v), 90.0);
        assert_eq!(median(&v), 51.0);
        assert_eq!(percentile_of(&v, 0.99), 99.0);
    }

    #[test]
    fn a_noisy_minority_does_not_move_the_quiet_decile() {
        // 30 trials at 10 ms; make a third of them 2-5x slower.
        let mut times = vec![10.0; 30];
        for (i, t) in times.iter_mut().enumerate().take(10) {
            *t *= 2.0 + i as f64 * 0.3;
        }
        assert_eq!(quiet_time(&times), 10.0);
        let rates: Vec<f64> = times.iter().map(|t| 1000.0 / t).collect();
        assert_eq!(quiet_rate(&rates), 100.0);
        // The median survives too, the mean does not.
        assert_eq!(median(&times), 10.0);
    }

    #[test]
    fn tiny_samples_fall_back_to_the_extreme() {
        assert_eq!(quiet_time(&[3.0]), 3.0);
        assert_eq!(quiet_time(&[5.0, 4.0, 6.0]), 4.0);
        assert_eq!(quiet_rate(&[5.0, 4.0, 6.0]), 6.0);
    }
}
