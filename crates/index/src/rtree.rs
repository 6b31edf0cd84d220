//! STR bulk-loaded R-tree over trajectory MBRs.

use crate::SpatialIndex;
use neutraj_trajectory::{BoundingBox, Trajectory};

/// Maximum entries per node (fan-out).
const NODE_CAPACITY: usize = 16;

#[derive(Debug, Clone)]
enum Node {
    Leaf {
        bbox: BoundingBox,
        /// `(mbr, corpus index)` entries.
        entries: Vec<(BoundingBox, usize)>,
    },
    Internal {
        bbox: BoundingBox,
        children: Vec<Node>,
    },
}

impl Node {
    fn bbox(&self) -> &BoundingBox {
        match self {
            Node::Leaf { bbox, .. } | Node::Internal { bbox, .. } => bbox,
        }
    }
}

/// A static R-tree over trajectory minimum bounding rectangles, built once
/// with Sort-Tile-Recursive packing (Leutenegger et al.) — the "bounding
/// box r-tree index" of Table V.
#[derive(Debug, Clone)]
pub struct RTree {
    root: Option<Node>,
    len: usize,
}

impl RTree {
    /// Bulk-loads the index from a corpus.
    pub fn build(corpus: &[Trajectory]) -> Self {
        let entries: Vec<(BoundingBox, usize)> = corpus
            .iter()
            .enumerate()
            .filter(|(_, t)| !t.is_empty())
            .map(|(i, t)| (t.mbr(), i))
            .collect();
        let len = entries.len();
        if entries.is_empty() {
            return Self { root: None, len: 0 };
        }
        let leaves = str_pack_leaves(entries);
        let root = build_upward(leaves);
        Self {
            root: Some(root),
            len,
        }
    }

    /// Indices of all trajectories whose MBR intersects `query`.
    pub fn range_query(&self, query: &BoundingBox) -> Vec<usize> {
        let mut out = Vec::new();
        if let Some(root) = &self.root {
            let mut stack = vec![root];
            while let Some(node) = stack.pop() {
                if !node.bbox().intersects(query) {
                    continue;
                }
                match node {
                    Node::Leaf { entries, .. } => {
                        for (bb, idx) in entries {
                            if bb.intersects(query) {
                                out.push(*idx);
                            }
                        }
                    }
                    Node::Internal { children, .. } => {
                        stack.extend(children.iter());
                    }
                }
            }
        }
        out.sort_unstable();
        out
    }

    /// Indices of trajectories whose MBR lies within `radius` of `bbox`
    /// (MBR-to-MBR minimum distance).
    pub fn within(&self, bbox: &BoundingBox, radius: f64) -> Vec<usize> {
        let mut out = Vec::new();
        if let Some(root) = &self.root {
            let mut stack = vec![root];
            while let Some(node) = stack.pop() {
                if node.bbox().min_dist_box(bbox) > radius {
                    continue;
                }
                match node {
                    Node::Leaf { entries, .. } => {
                        for (bb, idx) in entries {
                            if bb.min_dist_box(bbox) <= radius {
                                out.push(*idx);
                            }
                        }
                    }
                    Node::Internal { children, .. } => {
                        stack.extend(children.iter());
                    }
                }
            }
        }
        out.sort_unstable();
        out
    }

    /// The `k` indexed trajectories with smallest MBR-to-MBR distance to
    /// `query`, ascending (ties by index) — best-first search (Hjaltason
    /// & Samet). Because MBR distance lower-bounds Hausdorff and Fréchet,
    /// this is an exact-k candidate generator for those measures: the
    /// true top-k under the measure is contained in the MBR top-k' for a
    /// sufficiently enlarged k', and the returned bound values tell the
    /// caller when it may stop refining.
    pub fn knn_mbr(&self, query: &BoundingBox, k: usize) -> Vec<(usize, f64)> {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;

        /// Heap entry ordered by (distance, tie) — f64 wrapped for Ord.
        struct Entry<'a> {
            dist: f64,
            node: Option<&'a Node>,
            leaf: Option<usize>,
        }
        impl PartialEq for Entry<'_> {
            fn eq(&self, other: &Self) -> bool {
                self.dist == other.dist && self.leaf == other.leaf
            }
        }
        impl Eq for Entry<'_> {}
        impl PartialOrd for Entry<'_> {
            fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
                Some(self.cmp(other))
            }
        }
        impl Ord for Entry<'_> {
            fn cmp(&self, other: &Self) -> std::cmp::Ordering {
                self.dist
                    .partial_cmp(&other.dist)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(self.leaf.cmp(&other.leaf))
            }
        }

        let mut out = Vec::with_capacity(k.min(self.len));
        let Some(root) = &self.root else {
            return out;
        };
        if k == 0 {
            return out;
        }
        let mut heap: BinaryHeap<Reverse<Entry>> = BinaryHeap::new();
        heap.push(Reverse(Entry {
            dist: root.bbox().min_dist_box(query),
            node: Some(root),
            leaf: None,
        }));
        while let Some(Reverse(e)) = heap.pop() {
            match (e.node, e.leaf) {
                (_, Some(idx)) => {
                    out.push((idx, e.dist));
                    if out.len() == k {
                        break;
                    }
                }
                (Some(Node::Internal { children, .. }), _) => {
                    for c in children {
                        heap.push(Reverse(Entry {
                            dist: c.bbox().min_dist_box(query),
                            node: Some(c),
                            leaf: None,
                        }));
                    }
                }
                (Some(Node::Leaf { entries, .. }), _) => {
                    for (bb, idx) in entries {
                        heap.push(Reverse(Entry {
                            dist: bb.min_dist_box(query),
                            node: None,
                            leaf: Some(*idx),
                        }));
                    }
                }
                (None, None) => unreachable!("entry must carry a node or a leaf"),
            }
        }
        out
    }

    /// Tree height (0 for an empty tree, 1 for a single leaf).
    pub fn height(&self) -> usize {
        fn depth(node: &Node) -> usize {
            match node {
                Node::Leaf { .. } => 1,
                Node::Internal { children, .. } => {
                    1 + children.iter().map(depth).max().unwrap_or(0)
                }
            }
        }
        self.root.as_ref().map_or(0, depth)
    }
}

impl SpatialIndex for RTree {
    fn candidates(&self, query: &Trajectory, radius: f64) -> Vec<usize> {
        self.within(&query.mbr(), radius)
    }

    fn len(&self) -> usize {
        self.len
    }
}

/// STR leaf packing: sort by center x, slice into √(n/M) vertical runs,
/// sort each run by center y, chunk into leaves of `NODE_CAPACITY`.
fn str_pack_leaves(mut entries: Vec<(BoundingBox, usize)>) -> Vec<Node> {
    let n = entries.len();
    let leaf_count = n.div_ceil(NODE_CAPACITY);
    let slices = (leaf_count as f64).sqrt().ceil() as usize;
    let per_slice = n.div_ceil(slices.max(1));
    entries.sort_by(|a, b| {
        a.0.center()
            .x
            .partial_cmp(&b.0.center().x)
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    let mut leaves = Vec::with_capacity(leaf_count);
    for slice in entries.chunks_mut(per_slice.max(1)) {
        slice.sort_by(|a, b| {
            a.0.center()
                .y
                .partial_cmp(&b.0.center().y)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        for chunk in slice.chunks(NODE_CAPACITY) {
            let bbox = chunk
                .iter()
                .fold(BoundingBox::EMPTY, |bb, (b, _)| bb.union(b));
            leaves.push(Node::Leaf {
                bbox,
                entries: chunk.to_vec(),
            });
        }
    }
    leaves
}

/// Packs nodes level by level until a single root remains.
fn build_upward(mut level: Vec<Node>) -> Node {
    while level.len() > 1 {
        let mut next = Vec::with_capacity(level.len().div_ceil(NODE_CAPACITY));
        // Sort level by center-x/center-y tiles again for packing quality.
        level.sort_by(|a, b| {
            let (ca, cb) = (a.bbox().center(), b.bbox().center());
            ca.x.partial_cmp(&cb.x)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(ca.y.partial_cmp(&cb.y).unwrap_or(std::cmp::Ordering::Equal))
        });
        let mut iter = level.into_iter().peekable();
        while iter.peek().is_some() {
            let children: Vec<Node> = iter.by_ref().take(NODE_CAPACITY).collect();
            let bbox = children
                .iter()
                .fold(BoundingBox::EMPTY, |bb, c| bb.union(c.bbox()));
            next.push(Node::Internal { bbox, children });
        }
        level = next;
    }
    level.into_iter().next().expect("non-empty level")
}

#[cfg(test)]
mod tests {
    use super::*;
    use neutraj_trajectory::rng::Rng;
    use neutraj_trajectory::Point;

    fn corpus(n: usize, seed: u64) -> Vec<Trajectory> {
        let mut rng = Rng::seed_from_u64(seed);
        (0..n as u64)
            .map(|id| {
                let x0: f64 = rng.gen_range(0.0..1000.0);
                let y0: f64 = rng.gen_range(0.0..1000.0);
                Trajectory::new_unchecked(
                    id,
                    (0..6)
                        .map(|k| Point::new(x0 + 10.0 * k as f64, y0 + 5.0 * k as f64))
                        .collect(),
                )
            })
            .collect()
    }

    #[test]
    fn range_query_matches_linear_scan() {
        let ts = corpus(300, 1);
        let tree = RTree::build(&ts);
        assert_eq!(tree.len(), 300);
        let query = BoundingBox::new(200.0, 300.0, 500.0, 700.0);
        let expected: Vec<usize> = ts
            .iter()
            .enumerate()
            .filter(|(_, t)| t.mbr().intersects(&query))
            .map(|(i, _)| i)
            .collect();
        assert_eq!(tree.range_query(&query), expected);
    }

    #[test]
    fn within_matches_linear_scan() {
        let ts = corpus(200, 2);
        let tree = RTree::build(&ts);
        let q = ts[17].mbr();
        for radius in [0.0, 50.0, 300.0] {
            let expected: Vec<usize> = ts
                .iter()
                .enumerate()
                .filter(|(_, t)| t.mbr().min_dist_box(&q) <= radius)
                .map(|(i, _)| i)
                .collect();
            assert_eq!(tree.within(&q, radius), expected, "radius {radius}");
        }
    }

    #[test]
    fn candidates_prune_but_never_lose() {
        let ts = corpus(400, 3);
        let tree = RTree::build(&ts);
        let cands = tree.candidates(&ts[0], 100.0);
        // Prunes something…
        assert!(cands.len() < ts.len());
        // …but keeps everything genuinely near (linear-scan superset check).
        for (i, t) in ts.iter().enumerate() {
            if t.mbr().min_dist_box(&ts[0].mbr()) <= 100.0 {
                assert!(cands.contains(&i), "lost candidate {i}");
            }
        }
        // Query trajectory finds itself at radius 0.
        assert!(tree.candidates(&ts[0], 0.0).contains(&0));
    }

    #[test]
    fn empty_and_tiny_corpora() {
        let tree = RTree::build(&[]);
        assert!(tree.is_empty());
        assert_eq!(tree.height(), 0);
        assert!(tree
            .range_query(&BoundingBox::new(0.0, 0.0, 1.0, 1.0))
            .is_empty());
        let ts = corpus(1, 4);
        let tree = RTree::build(&ts);
        assert_eq!(tree.len(), 1);
        assert_eq!(tree.height(), 1);
        assert_eq!(tree.range_query(&ts[0].mbr()), vec![0]);
    }

    #[test]
    fn knn_mbr_matches_linear_scan() {
        let ts = corpus(250, 8);
        let tree = RTree::build(&ts);
        let q = ts[42].mbr();
        for k in [1usize, 7, 30] {
            let got = tree.knn_mbr(&q, k);
            // Linear-scan reference with the same tie-break.
            let mut expected: Vec<(usize, f64)> = ts
                .iter()
                .enumerate()
                .map(|(i, t)| (i, t.mbr().min_dist_box(&q)))
                .collect();
            expected.sort_by(|a, b| {
                a.1.partial_cmp(&b.1)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(a.0.cmp(&b.0))
            });
            expected.truncate(k);
            assert_eq!(got.len(), k);
            for ((gi, gd), (ei, ed)) in got.iter().zip(&expected) {
                assert_eq!(gi, ei, "k={k}");
                assert!((gd - ed).abs() < 1e-12);
            }
        }
        // Self query: item 42 at distance 0 first.
        assert_eq!(tree.knn_mbr(&q, 1)[0], (42, 0.0));
    }

    #[test]
    fn knn_mbr_edge_cases() {
        let empty = RTree::build(&[]);
        assert!(empty
            .knn_mbr(&BoundingBox::new(0.0, 0.0, 1.0, 1.0), 5)
            .is_empty());
        let ts = corpus(5, 9);
        let tree = RTree::build(&ts);
        assert!(tree.knn_mbr(&ts[0].mbr(), 0).is_empty());
        // Over-asking returns everything.
        assert_eq!(tree.knn_mbr(&ts[0].mbr(), 100).len(), 5);
    }

    #[test]
    fn tree_is_balanced_log_height() {
        let ts = corpus(2000, 5);
        let tree = RTree::build(&ts);
        // 2000 entries at fan-out 16: leaves ≈ 125, height 3.
        assert!(tree.height() <= 4, "height {}", tree.height());
    }

    #[test]
    fn skips_empty_trajectories() {
        let mut ts = corpus(5, 6);
        ts.push(Trajectory::new_unchecked(99, vec![]));
        let tree = RTree::build(&ts);
        assert_eq!(tree.len(), 5);
        let all = tree.within(&BoundingBox::new(-1e9, -1e9, 1e9, 1e9), 0.0);
        assert!(!all.contains(&5));
    }
}
