//! Synthetic road networks and random-walk trajectory simulation.
//!
//! Drives the paper's zero-shot experiment (§VII-G): "we generate 6,000
//! synthetic trajectories by employing random walk on road node graph and
//! interpolating coordinates between the nodes". The paper uses the Beijing
//! road network of Zhan et al.; we synthesize a perturbed-grid planar graph
//! with comparable local structure (degree ≤ 4, block-scale edge lengths).

use super::jitter;
use crate::rng::Rng;
use crate::{Dataset, Point, Trajectory};

/// An undirected planar road graph: nodes with coordinates and adjacency
/// lists.
#[derive(Debug, Clone)]
pub struct RoadNetwork {
    nodes: Vec<Point>,
    adjacency: Vec<Vec<u32>>,
}

impl RoadNetwork {
    /// Builds a synthetic city road network: an `nx × ny` street grid with
    /// jittered intersections and a fraction of edges removed to create
    /// irregular blocks. `block_m` is the nominal block side in metres.
    ///
    /// The resulting graph is guaranteed connected on its largest
    /// component; nodes outside it are dropped.
    pub fn synthetic_grid_city(nx: usize, ny: usize, block_m: f64, seed: u64) -> Self {
        assert!(nx >= 2 && ny >= 2, "need at least a 2x2 grid");
        let mut rng = Rng::seed_from_u64(seed);
        let n = nx * ny;
        let mut nodes = Vec::with_capacity(n);
        for j in 0..ny {
            for i in 0..nx {
                let base = Point::new(i as f64 * block_m, j as f64 * block_m);
                nodes.push(jitter(&mut rng, base, block_m * 0.12));
            }
        }
        let idx = |i: usize, j: usize| (j * nx + i) as u32;
        let mut adjacency = vec![Vec::new(); n];
        let add = |adj: &mut Vec<Vec<u32>>, a: u32, b: u32| {
            adj[a as usize].push(b);
            adj[b as usize].push(a);
        };
        for j in 0..ny {
            for i in 0..nx {
                // Keep ~88% of grid edges; removing some yields irregular,
                // city-like blocks.
                if i + 1 < nx && rng.gen_bool(0.88) {
                    add(&mut adjacency, idx(i, j), idx(i + 1, j));
                }
                if j + 1 < ny && rng.gen_bool(0.88) {
                    add(&mut adjacency, idx(i, j), idx(i, j + 1));
                }
            }
        }
        Self { nodes, adjacency }.largest_component()
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of undirected edges.
    pub fn num_edges(&self) -> usize {
        self.adjacency.iter().map(Vec::len).sum::<usize>() / 2
    }

    /// Node coordinates.
    pub fn node(&self, id: u32) -> Point {
        self.nodes[id as usize]
    }

    /// Neighbours of a node.
    pub fn neighbors(&self, id: u32) -> &[u32] {
        &self.adjacency[id as usize]
    }

    /// Restricts the graph to its largest connected component, relabelling
    /// node ids compactly.
    fn largest_component(self) -> Self {
        let n = self.nodes.len();
        let mut comp = vec![u32::MAX; n];
        let mut sizes = Vec::new();
        for start in 0..n {
            if comp[start] != u32::MAX {
                continue;
            }
            let c = sizes.len() as u32;
            let mut stack = vec![start];
            let mut size = 0usize;
            comp[start] = c;
            while let Some(v) = stack.pop() {
                size += 1;
                for &w in &self.adjacency[v] {
                    if comp[w as usize] == u32::MAX {
                        comp[w as usize] = c;
                        stack.push(w as usize);
                    }
                }
            }
            sizes.push(size);
        }
        let best = sizes
            .iter()
            .enumerate()
            .max_by_key(|(_, s)| **s)
            .map(|(i, _)| i as u32)
            .unwrap_or(0);
        let mut remap = vec![u32::MAX; n];
        let mut nodes = Vec::new();
        for (i, &c) in comp.iter().enumerate() {
            if c == best {
                remap[i] = nodes.len() as u32;
                nodes.push(self.nodes[i]);
            }
        }
        let mut adjacency = vec![Vec::new(); nodes.len()];
        for (i, &c) in comp.iter().enumerate() {
            if c == best {
                let ni = remap[i] as usize;
                adjacency[ni] = self.adjacency[i]
                    .iter()
                    .map(|&w| remap[w as usize])
                    .collect();
            }
        }
        Self { nodes, adjacency }
    }
}

/// Simulates trajectories by random walk on a [`RoadNetwork`], with
/// coordinates interpolated between nodes — the zero-shot seed generator.
#[derive(Debug, Clone)]
pub struct RoadWalkGenerator {
    /// Number of trajectories to simulate.
    pub num_trajectories: usize,
    /// Number of road nodes each walk visits.
    pub walk_nodes: usize,
    /// Interpolated points inserted per edge (in addition to endpoints).
    pub points_per_edge: usize,
    /// GPS-style noise added to every emitted point, metres (1σ).
    pub gps_noise_m: f64,
}

impl Default for RoadWalkGenerator {
    fn default() -> Self {
        Self {
            num_trajectories: 6000,
            walk_nodes: 10,
            points_per_edge: 3,
            gps_noise_m: 6.0,
        }
    }
}

impl RoadWalkGenerator {
    /// Generates the corpus deterministically from `seed`.
    pub fn generate(&self, net: &RoadNetwork, seed: u64) -> Dataset {
        assert!(net.num_nodes() > 1, "road network too small");
        let mut rng = Rng::seed_from_u64(seed);
        let trajectories = (0..self.num_trajectories as u64)
            .map(|id| self.walk(net, &mut rng, id))
            .collect();
        Dataset::new(trajectories)
    }

    fn walk(&self, net: &RoadNetwork, rng: &mut Rng, id: u64) -> Trajectory {
        // Start anywhere; avoid immediate backtracking when possible so
        // walks look like trips rather than jitter.
        let mut cur = rng.gen_range(0..net.num_nodes() as u32);
        let mut prev: Option<u32> = None;
        let mut pts = Vec::with_capacity(self.walk_nodes * (self.points_per_edge + 1) + 1);
        pts.push(jitter(rng, net.node(cur), self.gps_noise_m));
        for _ in 1..self.walk_nodes.max(2) {
            let nbrs = net.neighbors(cur);
            if nbrs.is_empty() {
                break;
            }
            let choices: Vec<u32> = nbrs.iter().copied().filter(|&n| Some(n) != prev).collect();
            let next = if choices.is_empty() {
                nbrs[0]
            } else {
                choices[rng.gen_range(0..choices.len())]
            };
            let a = net.node(cur);
            let b = net.node(next);
            for k in 1..=self.points_per_edge {
                let t = k as f64 / (self.points_per_edge + 1) as f64;
                pts.push(jitter(rng, a.lerp(&b, t), self.gps_noise_m));
            }
            pts.push(jitter(rng, b, self.gps_noise_m));
            prev = Some(cur);
            cur = next;
        }
        // Slight speed variation: drop a random small suffix occasionally.
        if pts.len() > 12 && rng.gen_bool(0.3) {
            let cut = rng.gen_range(0..pts.len() / 6);
            pts.truncate(pts.len() - cut);
        }
        Trajectory::new_unchecked(id, pts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn network_is_connected_and_planar_scale() {
        let net = RoadNetwork::synthetic_grid_city(10, 10, 200.0, 1);
        assert!(net.num_nodes() > 50, "nodes {}", net.num_nodes());
        assert!(net.num_edges() >= net.num_nodes() - 1);
        // Max degree 4 in a grid graph.
        for id in 0..net.num_nodes() as u32 {
            assert!(net.neighbors(id).len() <= 4);
        }
    }

    #[test]
    fn network_connectivity_via_bfs() {
        let net = RoadNetwork::synthetic_grid_city(8, 8, 150.0, 7);
        let n = net.num_nodes();
        let mut seen = vec![false; n];
        let mut stack = vec![0u32];
        seen[0] = true;
        let mut count = 0;
        while let Some(v) = stack.pop() {
            count += 1;
            for &w in net.neighbors(v) {
                if !seen[w as usize] {
                    seen[w as usize] = true;
                    stack.push(w);
                }
            }
        }
        assert_eq!(count, n, "largest component extraction failed");
    }

    #[test]
    fn walks_are_deterministic_and_sized() {
        let net = RoadNetwork::synthetic_grid_city(12, 12, 200.0, 2);
        let g = RoadWalkGenerator {
            num_trajectories: 40,
            ..Default::default()
        };
        let a = g.generate(&net, 9);
        let b = g.generate(&net, 9);
        assert_eq!(a, b);
        assert_eq!(a.len(), 40);
        for t in a.trajectories() {
            assert!(t.len() >= 10, "walk too short: {}", t.len());
        }
    }

    #[test]
    fn walks_follow_edges() {
        // With zero noise, every emitted point must lie on a segment
        // between two adjacent road nodes.
        let net = RoadNetwork::synthetic_grid_city(6, 6, 100.0, 3);
        let g = RoadWalkGenerator {
            num_trajectories: 5,
            walk_nodes: 6,
            points_per_edge: 2,
            gps_noise_m: 0.0,
        };
        let ds = g.generate(&net, 4);
        for t in ds.trajectories() {
            for p in t.points() {
                let on_some_edge = (0..net.num_nodes() as u32).any(|a| {
                    net.neighbors(a).iter().any(|&b| {
                        let pa = net.node(a);
                        let pb = net.node(b);
                        dist_point_segment(*p, pa, pb) < 1e-6
                    })
                });
                assert!(on_some_edge, "point {p} off-network");
            }
        }
    }

    fn dist_point_segment(p: Point, a: Point, b: Point) -> f64 {
        let ab = b - a;
        let denom = ab.x * ab.x + ab.y * ab.y;
        if denom == 0.0 {
            return p.dist(&a);
        }
        let t = (((p.x - a.x) * ab.x + (p.y - a.y) * ab.y) / denom).clamp(0.0, 1.0);
        p.dist(&a.lerp(&b, t))
    }
}
