//! Distance-weighted sampling of training pairs (§V-B).
//!
//! For an anchor seed `T_a`, NeuTraj samples `n` *similar* seeds with
//! probability proportional to the anchor's similarity row `I_a`, and `n`
//! *dissimilar* seeds with probability proportional to `1 − I_a` — then
//! ranks both lists so the ranking loss can weight pairs by `1/rank`.
//! The NT-No-WS ablation replaces this with uniform random sampling.

use crate::similarity::SimilarityMatrix;
use neutraj_trajectory::rng::Rng;

/// The sampled pair lists for one anchor.
#[derive(Debug, Clone, PartialEq)]
pub struct AnchorSamples {
    /// The anchor's seed index.
    pub anchor: usize,
    /// Similar seeds, sorted by **decreasing** similarity to the anchor.
    pub similar: Vec<usize>,
    /// Dissimilar seeds, sorted by **increasing** similarity to the anchor
    /// (most dissimilar first, per the paper's "increase order" of rank
    /// importance on the dissimilar side).
    pub dissimilar: Vec<usize>,
}

/// Weighted sampling *without replacement* of `n` indices from `weights`
/// (index `skip` excluded), via the Efraimidis–Spirakis exponential-keys
/// method. Zero-weight items are only drawn when fewer positive-weight
/// items exist than requested.
fn weighted_sample_without_replacement(
    weights: &[f64],
    skip: usize,
    n: usize,
    rng: &mut Rng,
) -> Vec<usize> {
    let mut keyed: Vec<(f64, usize)> = Vec::with_capacity(weights.len().saturating_sub(1));
    for (i, &w) in weights.iter().enumerate() {
        if i == skip {
            continue;
        }
        let key = if w > 0.0 {
            // Standard E-S key: u^(1/w); use -ln(u)/w and pick smallest
            // for numerical stability.
            let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
            -u.ln() / w
        } else {
            // Zero weight sorts after every positive weight; a random tail
            // key shuffles ties among zero-weight items.
            f64::MAX * rng.gen_range(0.5..1.0)
        };
        keyed.push((key, i));
    }
    keyed.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
    keyed.into_iter().take(n).map(|(_, i)| i).collect()
}

/// Distance-weighted sampling for one anchor (§V-B): `n` similar seeds
/// (importance ∝ `S` row) and `n` dissimilar seeds (importance ∝ `1 − S`
/// row), both without replacement, each ranked as [`AnchorSamples`]
/// documents. Requesting more samples than available truncates.
pub fn ranked_weighted_samples(
    sim: &SimilarityMatrix,
    anchor: usize,
    n: usize,
    rng: &mut Rng,
) -> AnchorSamples {
    let row = sim.row(anchor);
    let mut similar = weighted_sample_without_replacement(row, anchor, n, rng);
    let inv: Vec<f64> = row.iter().map(|&s| (1.0 - s).max(0.0)).collect();
    let mut dissimilar = weighted_sample_without_replacement(&inv, anchor, n, rng);
    sort_by_similarity(&mut similar, row, true);
    sort_by_similarity(&mut dissimilar, row, false);
    AnchorSamples {
        anchor,
        similar,
        dissimilar,
    }
}

/// Uniform random sampling for one anchor — the NT-No-WS ablation. The
/// 2n drawn seeds are split into the n most similar (ranked descending)
/// and the n least similar (ranked ascending) so the loss shape stays
/// comparable.
pub fn ranked_random_samples(
    sim: &SimilarityMatrix,
    anchor: usize,
    n: usize,
    rng: &mut Rng,
) -> AnchorSamples {
    let uniform = vec![1.0; sim.n()];
    let mut drawn = weighted_sample_without_replacement(&uniform, anchor, 2 * n, rng);
    let row = sim.row(anchor);
    sort_by_similarity(&mut drawn, row, true);
    let mid = drawn.len() / 2;
    let similar = drawn[..mid].to_vec();
    let mut dissimilar = drawn[mid..].to_vec();
    dissimilar.reverse(); // least similar first
    AnchorSamples {
        anchor,
        similar,
        dissimilar,
    }
}

fn sort_by_similarity(idx: &mut [usize], row: &[f64], descending: bool) {
    idx.sort_by(|&a, &b| {
        let ord = row[a]
            .partial_cmp(&row[b])
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(b.cmp(&a));
        if descending {
            ord.reverse()
        } else {
            ord
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use neutraj_measures::DistanceMatrix;

    fn line_sim(n: usize) -> SimilarityMatrix {
        let mut data = vec![0.0; n * n];
        for i in 0..n {
            for j in 0..n {
                data[i * n + j] = (i as f64 - j as f64).abs();
            }
        }
        SimilarityMatrix::from_distances(&DistanceMatrix::from_raw(n, data), 0.8)
    }

    #[test]
    fn weighted_samples_exclude_anchor_and_are_distinct() {
        let sim = line_sim(30);
        let mut rng = Rng::seed_from_u64(1);
        for anchor in [0, 7, 29] {
            let s = ranked_weighted_samples(&sim, anchor, 8, &mut rng);
            assert_eq!(s.similar.len(), 8);
            assert_eq!(s.dissimilar.len(), 8);
            assert!(!s.similar.contains(&anchor));
            assert!(!s.dissimilar.contains(&anchor));
            let mut ss = s.similar.clone();
            ss.sort_unstable();
            ss.dedup();
            assert_eq!(ss.len(), 8, "similar list has duplicates");
        }
    }

    #[test]
    fn similar_list_is_ranked_descending() {
        let sim = line_sim(40);
        let mut rng = Rng::seed_from_u64(2);
        let s = ranked_weighted_samples(&sim, 5, 10, &mut rng);
        let row = sim.row(5);
        for w in s.similar.windows(2) {
            assert!(row[w[0]] >= row[w[1]], "similar list not descending");
        }
        for w in s.dissimilar.windows(2) {
            assert!(row[w[0]] <= row[w[1]], "dissimilar list not ascending");
        }
    }

    #[test]
    fn weighted_sampling_prefers_near_seeds() {
        // Statistically: the similar list of anchor 0 should be dominated
        // by small indices (nearby on the line).
        let sim = line_sim(50);
        let mut rng = Rng::seed_from_u64(3);
        let mut near_hits = 0usize;
        let mut total = 0usize;
        for _ in 0..50 {
            let s = ranked_weighted_samples(&sim, 0, 5, &mut rng);
            near_hits += s.similar.iter().filter(|&&i| i <= 10).count();
            total += s.similar.len();
        }
        let frac = near_hits as f64 / total as f64;
        assert!(frac > 0.8, "only {frac:.2} of similar samples were near");
    }

    #[test]
    fn random_sampling_is_roughly_uniform() {
        let sim = line_sim(50);
        let mut rng = Rng::seed_from_u64(4);
        let mut near_hits = 0usize;
        let mut total = 0usize;
        for _ in 0..50 {
            let s = ranked_random_samples(&sim, 0, 5, &mut rng);
            for &i in s.similar.iter().chain(&s.dissimilar) {
                if i <= 10 {
                    near_hits += 1;
                }
                total += 1;
            }
        }
        let frac = near_hits as f64 / total as f64;
        // 10 of 49 non-anchor seeds are "near" ⇒ expect ~0.2.
        assert!(
            (0.1..0.35).contains(&frac),
            "frac {frac:.2} not uniform-ish"
        );
    }

    #[test]
    fn over_asking_truncates() {
        let sim = line_sim(5);
        let mut rng = Rng::seed_from_u64(5);
        let s = ranked_weighted_samples(&sim, 0, 10, &mut rng);
        assert_eq!(s.similar.len(), 4);
        let r = ranked_random_samples(&sim, 0, 10, &mut rng);
        assert_eq!(r.similar.len() + r.dissimilar.len(), 4);
    }

    #[test]
    fn deterministic_given_rng_seed() {
        let sim = line_sim(20);
        let a = ranked_weighted_samples(&sim, 3, 6, &mut Rng::seed_from_u64(9));
        let b = ranked_weighted_samples(&sim, 3, 6, &mut Rng::seed_from_u64(9));
        assert_eq!(a, b);
    }
}
