//! Clustering agreement metrics (Fig. 9): homogeneity, completeness,
//! V-measure (Rosenberg & Hirschberg) and the Adjusted Rand Index
//! (Hubert & Arabie).

use crate::dbscan::Label;
use std::collections::BTreeMap;

/// The four agreement scores the paper reports in Fig. 9.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterAgreement {
    /// Each predicted cluster contains members of a single true cluster.
    pub homogeneity: f64,
    /// All members of a true cluster land in the same predicted cluster.
    pub completeness: f64,
    /// Harmonic mean of homogeneity and completeness.
    pub v_measure: f64,
    /// Adjusted Rand Index (chance-corrected pair-counting agreement).
    pub ari: f64,
}

impl ClusterAgreement {
    /// Computes all four metrics between a reference labelling (`truth`)
    /// and a candidate labelling (`pred`). Noise is treated as one
    /// ordinary label on each side (the convention sklearn users apply to
    /// DBSCAN output before scoring).
    ///
    /// Panics when the labellings differ in length.
    pub fn between(truth: &[Label], pred: &[Label]) -> Self {
        assert_eq!(truth.len(), pred.len(), "labelling length mismatch");
        let t: Vec<i64> = truth.iter().map(label_code).collect();
        let p: Vec<i64> = pred.iter().map(label_code).collect();
        let (h, c, v) = homogeneity_completeness_v_codes(&t, &p);
        let ari = ari_codes(&t, &p);
        Self {
            homogeneity: h,
            completeness: c,
            v_measure: v,
            ari,
        }
    }
}

fn label_code(l: &Label) -> i64 {
    match l {
        Label::Noise => -1,
        Label::Cluster(c) => *c as i64,
    }
}

/// Homogeneity, completeness and V-measure of two labellings.
pub fn homogeneity_completeness_v(truth: &[Label], pred: &[Label]) -> (f64, f64, f64) {
    assert_eq!(truth.len(), pred.len(), "labelling length mismatch");
    let t: Vec<i64> = truth.iter().map(label_code).collect();
    let p: Vec<i64> = pred.iter().map(label_code).collect();
    homogeneity_completeness_v_codes(&t, &p)
}

/// Adjusted Rand Index of two labellings.
pub fn adjusted_rand_index(truth: &[Label], pred: &[Label]) -> f64 {
    assert_eq!(truth.len(), pred.len(), "labelling length mismatch");
    let t: Vec<i64> = truth.iter().map(label_code).collect();
    let p: Vec<i64> = pred.iter().map(label_code).collect();
    ari_codes(&t, &p)
}

/// Joint counts `n_tp[(t, p)]` and the two marginals.
/// Ordered maps, so every sum over them runs in key order and the scores
/// repeat bit for bit.
type Contingency = (
    BTreeMap<(i64, i64), f64>,
    BTreeMap<i64, f64>,
    BTreeMap<i64, f64>,
);

/// Contingency counts: `n_tp[(t, p)]`, `n_t[t]`, `n_p[p]`.
fn contingency(t: &[i64], p: &[i64]) -> Contingency {
    let mut joint: BTreeMap<(i64, i64), f64> = BTreeMap::new();
    let mut mt: BTreeMap<i64, f64> = BTreeMap::new();
    let mut mp: BTreeMap<i64, f64> = BTreeMap::new();
    for (&a, &b) in t.iter().zip(p) {
        *joint.entry((a, b)).or_insert(0.0) += 1.0;
        *mt.entry(a).or_insert(0.0) += 1.0;
        *mp.entry(b).or_insert(0.0) += 1.0;
    }
    (joint, mt, mp)
}

fn entropy(marginal: &BTreeMap<i64, f64>, n: f64) -> f64 {
    marginal
        .values()
        .filter(|&&c| c > 0.0)
        .map(|&c| -(c / n) * (c / n).ln())
        .sum()
}

fn homogeneity_completeness_v_codes(t: &[i64], p: &[i64]) -> (f64, f64, f64) {
    let n = t.len() as f64;
    if n == 0.0 {
        return (1.0, 1.0, 1.0);
    }
    let (joint, mt, mp) = contingency(t, p);
    let h_t = entropy(&mt, n);
    let h_p = entropy(&mp, n);
    // Conditional entropies H(T|P) and H(P|T).
    let mut h_t_given_p = 0.0;
    let mut h_p_given_t = 0.0;
    for (&(a, b), &c) in &joint {
        let pt = mt[&a];
        let pp = mp[&b];
        h_t_given_p -= (c / n) * (c / pp).ln();
        h_p_given_t -= (c / n) * (c / pt).ln();
    }
    let homogeneity = if h_t == 0.0 {
        1.0
    } else {
        1.0 - h_t_given_p / h_t
    };
    let completeness = if h_p == 0.0 {
        1.0
    } else {
        1.0 - h_p_given_t / h_p
    };
    let v = if homogeneity + completeness == 0.0 {
        0.0
    } else {
        2.0 * homogeneity * completeness / (homogeneity + completeness)
    };
    (homogeneity, completeness, v)
}

fn comb2(x: f64) -> f64 {
    x * (x - 1.0) / 2.0
}

fn ari_codes(t: &[i64], p: &[i64]) -> f64 {
    let n = t.len() as f64;
    if n < 2.0 {
        return 1.0;
    }
    let (joint, mt, mp) = contingency(t, p);
    let sum_comb: f64 = joint.values().map(|&c| comb2(c)).sum();
    let sum_t: f64 = mt.values().map(|&c| comb2(c)).sum();
    let sum_p: f64 = mp.values().map(|&c| comb2(c)).sum();
    let total = comb2(n);
    let expected = sum_t * sum_p / total;
    let max_index = 0.5 * (sum_t + sum_p);
    if (max_index - expected).abs() < 1e-15 {
        // Degenerate: both labellings are single-cluster or all-singletons.
        return 1.0;
    }
    (sum_comb - expected) / (max_index - expected)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn labels(codes: &[i64]) -> Vec<Label> {
        codes
            .iter()
            .map(|&c| {
                if c < 0 {
                    Label::Noise
                } else {
                    Label::Cluster(c as u32)
                }
            })
            .collect()
    }

    #[test]
    fn perfect_agreement() {
        let a = labels(&[0, 0, 1, 1, 2]);
        let ag = ClusterAgreement::between(&a, &a);
        assert_eq!(ag.homogeneity, 1.0);
        assert_eq!(ag.completeness, 1.0);
        assert_eq!(ag.v_measure, 1.0);
        assert_eq!(ag.ari, 1.0);
    }

    #[test]
    fn permuted_labels_still_perfect() {
        // Agreement metrics are invariant to label renaming.
        let a = labels(&[0, 0, 1, 1]);
        let b = labels([5, 5, 2, 2].map(|x: i64| x).as_slice());
        let ag = ClusterAgreement::between(&a, &b);
        assert!((ag.ari - 1.0).abs() < 1e-12);
        assert!((ag.v_measure - 1.0).abs() < 1e-12);
    }

    #[test]
    fn split_cluster_is_homogeneous_not_complete() {
        // Truth: one cluster. Pred: split in two.
        let t = labels(&[0, 0, 0, 0]);
        let p = labels(&[0, 0, 1, 1]);
        let (h, c, v) = homogeneity_completeness_v(&t, &p);
        assert!((h - 1.0).abs() < 1e-12, "h = {h}");
        assert!(c < 1.0, "c = {c}");
        // Truth carries no information (one cluster): completeness is 0,
        // so the harmonic mean collapses to 0 (sklearn agrees).
        assert_eq!(v, 0.0);
    }

    #[test]
    fn merged_clusters_are_complete_not_homogeneous() {
        let t = labels(&[0, 0, 1, 1]);
        let p = labels(&[0, 0, 0, 0]);
        let (h, c, _) = homogeneity_completeness_v(&t, &p);
        assert!(h < 1.0);
        assert!((c - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ari_near_zero_for_random_labelling() {
        // A checkerboard split of two balanced clusters carries no signal.
        let t = labels(&[0, 0, 0, 0, 1, 1, 1, 1]);
        let p = labels(&[0, 1, 0, 1, 0, 1, 0, 1]);
        let ari = adjusted_rand_index(&t, &p);
        assert!(ari.abs() < 0.3, "ari = {ari}");
    }

    #[test]
    fn ari_known_value() {
        // sklearn: ARI([0,0,1,1],[0,0,1,2]) = 0.5714285714285715
        let t = labels(&[0, 0, 1, 1]);
        let p = labels(&[0, 0, 1, 2]);
        let ari = adjusted_rand_index(&t, &p);
        assert!((ari - 0.571428571).abs() < 1e-6, "ari = {ari}");
    }

    #[test]
    fn v_measure_known_value() {
        // By hand: H(T)=ln2, H(P|T)=ln2/2, H(P)=(3/2)ln2 ⇒ h=1, c=2/3,
        // v = 2·(1·(2/3))/(5/3) = 0.8 (matches sklearn).
        let t = labels(&[0, 0, 1, 1]);
        let p = labels(&[0, 0, 1, 2]);
        let (h, c, v) = homogeneity_completeness_v(&t, &p);
        assert!((h - 1.0).abs() < 1e-9);
        assert!((c - 2.0 / 3.0).abs() < 1e-9, "c = {c}");
        assert!((v - 0.8).abs() < 1e-9, "v = {v}");
    }

    #[test]
    fn noise_is_its_own_label() {
        let t = labels(&[0, 0, -1, -1]);
        let p = labels(&[0, 0, -1, -1]);
        assert_eq!(ClusterAgreement::between(&t, &p).ari, 1.0);
    }

    #[test]
    fn empty_labellings() {
        let e: Vec<Label> = vec![];
        let ag = ClusterAgreement::between(&e, &e);
        assert_eq!(ag.v_measure, 1.0);
        assert_eq!(ag.ari, 1.0);
    }

    #[test]
    fn scores_repeat_bit_for_bit() {
        // Dozens of uneven clusters on each side: summed in hash order,
        // the entropy terms round differently from one map to the next.
        let t: Vec<i64> = (0..600).map(|i| (i * i) % 53).collect();
        let p: Vec<i64> = (0..600).map(|i| (i * 7) % 41 - 1).collect();
        let (t, p) = (labels(&t), labels(&p));
        let bits = |a: ClusterAgreement| {
            [a.homogeneity, a.completeness, a.v_measure, a.ari].map(f64::to_bits)
        };
        let first = bits(ClusterAgreement::between(&t, &p));
        for _ in 0..200 {
            assert_eq!(bits(ClusterAgreement::between(&t, &p)), first);
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_panic() {
        let _ = ClusterAgreement::between(&labels(&[0]), &labels(&[0, 1]));
    }
}
