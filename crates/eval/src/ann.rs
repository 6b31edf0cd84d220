//! Recall of an approximate neighbour list against its exact truth.
//!
//! `bench_query` scores each shortlist view (an IVF probe, an HNSW beam)
//! against the brute-force scan of the same store with
//! [`mean_overlap_at_k`] and publishes the result into
//! `neutraj_ann_recall_at_k` or `neutraj_graph_recall_at_k`; the serving
//! path never writes a recall gauge (it has no ground truth).

use neutraj_measures::Neighbor;

/// Fraction of `truth`'s first `k` indices present anywhere in
/// `result`'s first `k`. Both rankings shorter than `k` are used as-is;
/// the denominator is the truth's (clamped) depth so a short corpus
/// still scores 1.0 when everything is recovered.
fn overlap_at_k(truth: &[Neighbor], result: &[Neighbor], k: usize) -> f64 {
    let t = &truth[..k.min(truth.len())];
    if t.is_empty() {
        return 1.0;
    }
    let r = &result[..k.min(result.len())];
    let hits = t
        .iter()
        .filter(|n| r.iter().any(|m| m.index == n.index))
        .count();
    hits as f64 / t.len() as f64
}

/// Mean, over a query set, of the fraction of each `truth` top-`k` that
/// the matching `approx` list recovered; 1.0 for an empty set.
pub fn mean_overlap_at_k(truth: &[Vec<Neighbor>], approx: &[Vec<Neighbor>], k: usize) -> f64 {
    if truth.is_empty() {
        return 1.0;
    }
    let total: f64 = truth
        .iter()
        .zip(approx)
        .map(|(t, a)| overlap_at_k(t, a, k))
        .sum();
    total / truth.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn list(indices: &[usize]) -> Vec<Neighbor> {
        indices
            .iter()
            .map(|&index| Neighbor {
                index,
                dist: index as f64,
            })
            .collect()
    }

    #[test]
    fn mean_overlap_scores_short_truth_and_empty_sets() {
        assert_eq!(mean_overlap_at_k(&[], &[], 10), 1.0);
        // An empty truth list has nothing to miss.
        assert_eq!(mean_overlap_at_k(&[list(&[])], &[list(&[4])], 3), 1.0);
        // Truth shorter than k: the denominator is the truth's depth, and
        // order inside the first k does not matter.
        assert_eq!(
            mean_overlap_at_k(&[list(&[1, 2])], &[list(&[2, 9, 1])], 5),
            1.0
        );
        // Only the result's first k count: 3 sits at depth 3 of k = 2.
        assert_eq!(
            mean_overlap_at_k(&[list(&[1, 3])], &[list(&[1, 2, 3])], 2),
            0.5
        );
        // The mean runs over queries: 1.0 and 0.0 average to 0.5.
        let truth = [list(&[1, 2]), list(&[5, 6])];
        let approx = [list(&[2, 1]), list(&[7, 8])];
        assert_eq!(mean_overlap_at_k(&truth, &approx, 2), 0.5);
    }
}
