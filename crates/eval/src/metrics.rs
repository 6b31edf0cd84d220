//! Top-k search quality metrics (§VII-A.4).

/// The quality metrics of one method on one query set, matching the
/// columns of Tables II/III: `HR@10`, `HR@50`, `R10@50` and the distance
/// distortions `δ_H10`/`δ_R10` (in the distance unit of the supplied
/// ground truth; the harness reports metres).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SearchQuality {
    /// Top-10 hitting ratio.
    pub hr10: f64,
    /// Top-50 hitting ratio.
    pub hr50: f64,
    /// Top-50 recall of the top-10 ground truth.
    pub r10_at_50: f64,
    /// Distortion of the average exact distance of the method's top-10.
    pub delta_h10: f64,
    /// Distortion of the average exact distance of the 10 best (by exact
    /// distance) among the method's top-50.
    pub delta_r10: f64,
}

/// Overlap fraction `|result_k ∩ truth_k| / k` over the first `k` entries
/// of each ranking (the paper's hitting ratio). Rankings shorter than `k`
/// are used as-is; the denominator stays `k`.
pub fn hitting_ratio(truth: &[usize], result: &[usize], k: usize) -> f64 {
    if k == 0 {
        return 1.0;
    }
    let t: &[usize] = &truth[..k.min(truth.len())];
    let r: &[usize] = &result[..k.min(result.len())];
    let hits = r.iter().filter(|i| t.contains(i)).count();
    hits as f64 / k as f64
}

/// `R10@50`-style cross recall: fraction of the top-`k_truth` ground
/// truth recovered anywhere in the method's top-`k_result` list.
pub fn cross_recall(truth: &[usize], result: &[usize], k_truth: usize, k_result: usize) -> f64 {
    if k_truth == 0 {
        return 1.0;
    }
    let t: &[usize] = &truth[..k_truth.min(truth.len())];
    let r: &[usize] = &result[..k_result.min(result.len())];
    let hits = t.iter().filter(|i| r.contains(i)).count();
    hits as f64 / k_truth as f64
}

/// Average of the first `k` exact distances along a ranking, where
/// `exact[i]` is the ground-truth distance of database item `i` to the
/// query. Returns `None` when the ranking is empty.
fn avg_exact_distance(ranking: &[usize], exact: &[f64], k: usize) -> Option<f64> {
    let take = k.min(ranking.len());
    if take == 0 {
        return None;
    }
    Some(ranking[..take].iter().map(|&i| exact[i]).sum::<f64>() / take as f64)
}

/// Computes all five metrics for one query.
///
/// * `truth` — ground-truth ranking (ascending exact distance), at least
///   50 entries for faithful `HR@50`;
/// * `result` — the method's ranking (its own distance order);
/// * `exact` — exact distance from the query to every database item.
pub fn evaluate_query(truth: &[usize], result: &[usize], exact: &[f64]) -> SearchQuality {
    let hr10 = hitting_ratio(truth, result, 10);
    let hr50 = hitting_ratio(truth, result, 50);
    let r10_at_50 = cross_recall(truth, result, 10, 50);
    let truth_avg10 = avg_exact_distance(truth, exact, 10).unwrap_or(0.0);
    // δ_H10: method's own top-10, measured in exact distance.
    let delta_h10 =
        avg_exact_distance(result, exact, 10).map_or(0.0, |avg| (avg - truth_avg10).abs());
    // δ_R10: best 10 by exact distance within the method's top-50.
    let mut top50: Vec<usize> = result[..50.min(result.len())].to_vec();
    top50.sort_by(|&a, &b| {
        exact[a]
            .partial_cmp(&exact[b])
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    });
    let delta_r10 =
        avg_exact_distance(&top50, exact, 10).map_or(0.0, |avg| (avg - truth_avg10).abs());
    SearchQuality {
        hr10,
        hr50,
        r10_at_50,
        delta_h10,
        delta_r10,
    }
}

impl SearchQuality {
    /// Element-wise mean over per-query results. Returns the default
    /// (all zeros) for an empty slice.
    pub fn mean(items: &[SearchQuality]) -> SearchQuality {
        if items.is_empty() {
            return SearchQuality::default();
        }
        let n = items.len() as f64;
        let mut acc = SearchQuality::default();
        for q in items {
            acc.hr10 += q.hr10;
            acc.hr50 += q.hr50;
            acc.r10_at_50 += q.r10_at_50;
            acc.delta_h10 += q.delta_h10;
            acc.delta_r10 += q.delta_r10;
        }
        SearchQuality {
            hr10: acc.hr10 / n,
            hr50: acc.hr50 / n,
            r10_at_50: acc.r10_at_50 / n,
            delta_h10: acc.delta_h10 / n,
            delta_r10: acc.delta_r10 / n,
        }
    }

    /// Scales the distance distortions (grid units → metres).
    pub fn scale_distortions(mut self, factor: f64) -> Self {
        self.delta_h10 *= factor;
        self.delta_r10 *= factor;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hitting_ratio_basics() {
        let truth = [1, 2, 3, 4, 5];
        assert_eq!(hitting_ratio(&truth, &[1, 2, 3, 4, 5], 5), 1.0);
        assert_eq!(hitting_ratio(&truth, &[5, 4, 3, 2, 1], 5), 1.0); // order-free
        assert_eq!(hitting_ratio(&truth, &[1, 2, 9, 9, 9], 5), 0.4);
        assert_eq!(hitting_ratio(&truth, &[9, 8, 7, 6, 0], 5), 0.0);
        // Short result list penalized via fixed denominator.
        assert_eq!(hitting_ratio(&truth, &[1], 5), 0.2);
        assert_eq!(hitting_ratio(&truth, &[], 0), 1.0);
    }

    #[test]
    fn cross_recall_basics() {
        let truth = [1, 2, 3];
        // Truth items may appear anywhere in the (larger) result prefix.
        assert_eq!(cross_recall(&truth, &[9, 3, 8, 1, 7, 2], 3, 6), 1.0);
        assert_eq!(cross_recall(&truth, &[9, 3, 8], 3, 3), 1.0 / 3.0);
    }

    #[test]
    fn perfect_method_scores_perfectly() {
        let exact: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let truth: Vec<usize> = (0..100).collect();
        let q = evaluate_query(&truth, &truth, &exact);
        assert_eq!(q.hr10, 1.0);
        assert_eq!(q.hr50, 1.0);
        assert_eq!(q.r10_at_50, 1.0);
        assert_eq!(q.delta_h10, 0.0);
        assert_eq!(q.delta_r10, 0.0);
    }

    #[test]
    fn delta_r10_rescues_from_top50() {
        // The method's top-10 is bad, but the true neighbours are inside
        // its top-50, so δ_R10 ≪ δ_H10.
        let exact: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let truth: Vec<usize> = (0..100).collect();
        // Result: reversed first 50 (true best at the end of the window).
        let result: Vec<usize> = (0..50).rev().chain(50..100).collect();
        let q = evaluate_query(&truth, &result, &exact);
        assert!(q.delta_h10 > 30.0, "δ_H10 = {}", q.delta_h10);
        assert_eq!(q.delta_r10, 0.0);
        assert_eq!(q.r10_at_50, 1.0);
        assert_eq!(q.hr10, 0.0);
    }

    #[test]
    fn mean_aggregates() {
        let a = SearchQuality {
            hr10: 1.0,
            hr50: 1.0,
            r10_at_50: 1.0,
            delta_h10: 0.0,
            delta_r10: 0.0,
        };
        let b = SearchQuality {
            hr10: 0.0,
            hr50: 0.5,
            r10_at_50: 0.5,
            delta_h10: 10.0,
            delta_r10: 4.0,
        };
        let m = SearchQuality::mean(&[a, b]);
        assert_eq!(m.hr10, 0.5);
        assert_eq!(m.hr50, 0.75);
        assert_eq!(m.delta_h10, 5.0);
        assert_eq!(SearchQuality::mean(&[]), SearchQuality::default());
    }

    #[test]
    fn distortion_scaling() {
        let q = SearchQuality {
            delta_h10: 2.0,
            delta_r10: 1.0,
            ..Default::default()
        }
        .scale_distortions(50.0);
        assert_eq!(q.delta_h10, 100.0);
        assert_eq!(q.delta_r10, 50.0);
    }
}
