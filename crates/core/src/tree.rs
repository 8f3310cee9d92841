//! The geometric clock tree produced by hierarchical routing.
//!
//! A [`ClockTopo`] separates the **trunk** (clock root down to the low-level
//! clustering centroids — a binary tree, the domain of the DP) from the
//! **leaf stars** (low centroid to its ≤ `Lc` sinks, always front-side),
//! mirroring Fig. 7 of the paper where the DP-tree leaves are the low-level
//! clustering centroids.

use dscts_geom::{Point, TreeCsr};
use std::sync::OnceLock;

/// One trunk node. Node 0 is the clock root (source); every other node
/// defines the trunk edge from its parent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrunkNode {
    /// Embedded position (nm).
    pub pos: Point,
    /// Parent node (`None` only for node 0).
    pub parent: Option<u32>,
    /// Electrical length of the edge from the parent (nm, ≥ Manhattan
    /// distance; the excess is balancing snake wire).
    pub edge_len: i64,
    /// Index into [`ClockTopo::stars`] when this node is a low-level
    /// clustering centroid.
    pub star: Option<u32>,
}

/// A leaf net: the star from a low-level centroid to its member sinks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LeafStar {
    /// Trunk node hosting this star (a low-level centroid).
    pub node: u32,
    /// Global sink indices.
    pub sinks: Vec<u32>,
    /// Manhattan branch length to each sink (nm), aligned with `sinks`.
    pub branch_len: Vec<i64>,
}

/// The routed (pre-buffering) clock tree: binary trunk plus leaf stars.
///
/// The trunk adjacency is cached as a flat [`TreeCsr`] (built lazily on
/// first use, invalidated by [`ClockTopo::subdivide`]): every consumer —
/// the DP, the evaluators, the baselines — borrows the same
/// `child_index`/`child_list` arrays instead of rebuilding a
/// `Vec<Vec<u32>>` per call. Code that rewires `nodes[..].parent` directly
/// must call [`ClockTopo::invalidate_topology`] afterwards.
#[derive(Debug)]
pub struct ClockTopo {
    /// Trunk nodes; node 0 is the clock root.
    pub nodes: Vec<TrunkNode>,
    /// Leaf stars, one per low-level cluster.
    pub stars: Vec<LeafStar>,
    /// All sink positions (nm), indexed by global sink id.
    pub sink_pos: Vec<Point>,
    /// All sink capacitances (fF), aligned with `sink_pos`.
    pub sink_cap: Vec<f64>,
    /// Cached flat adjacency + topological order over `nodes`.
    csr: OnceLock<TreeCsr>,
}

impl Clone for ClockTopo {
    fn clone(&self) -> Self {
        ClockTopo {
            nodes: self.nodes.clone(),
            stars: self.stars.clone(),
            sink_pos: self.sink_pos.clone(),
            sink_cap: self.sink_cap.clone(),
            // The clone has identical structure; the cache stays valid.
            csr: self.csr.clone(),
        }
    }
}

impl PartialEq for ClockTopo {
    fn eq(&self, other: &Self) -> bool {
        // The cache is derived state and never part of topology identity.
        self.nodes == other.nodes
            && self.stars == other.stars
            && self.sink_pos == other.sink_pos
            && self.sink_cap == other.sink_cap
    }
}

impl ClockTopo {
    /// Assembles a topology from its parts.
    pub fn new(
        nodes: Vec<TrunkNode>,
        stars: Vec<LeafStar>,
        sink_pos: Vec<Point>,
        sink_cap: Vec<f64>,
    ) -> Self {
        ClockTopo {
            nodes,
            stars,
            sink_pos,
            sink_cap,
            csr: OnceLock::new(),
        }
    }

    /// The cached flat trunk adjacency + topological order, built on first
    /// use from the current parent pointers.
    pub fn csr(&self) -> &TreeCsr {
        self.csr
            .get_or_init(|| TreeCsr::from_parents(self.nodes.iter().map(|n| n.parent)))
    }

    /// Drops the cached adjacency. Must be called after any direct
    /// mutation of `nodes[..].parent` (or after adding/removing nodes);
    /// [`ClockTopo::subdivide`] does this itself.
    pub fn invalidate_topology(&mut self) {
        self.csr.take();
    }

    /// Child lists for every trunk node, as owned vectors. Prefer
    /// borrowing [`ClockTopo::csr`] on hot paths.
    pub fn children(&self) -> Vec<Vec<u32>> {
        self.csr().to_nested()
    }

    /// Trunk nodes in root-first topological order, as an owned vector.
    /// Prefer borrowing [`ClockTopo::csr`] on hot paths.
    pub fn topo_order(&self) -> Vec<u32> {
        self.csr().order().to_vec()
    }

    /// Total trunk wirelength (electrical, nm).
    pub fn trunk_wirelength(&self) -> i64 {
        self.nodes.iter().map(|n| n.edge_len).sum()
    }

    /// Total leaf-star wirelength (nm).
    pub fn star_wirelength(&self) -> i64 {
        self.stars.iter().flat_map(|s| s.branch_len.iter()).sum()
    }

    /// Total clock wirelength (nm) — the paper's "Clk WL" metric.
    pub fn total_wirelength(&self) -> i64 {
        self.trunk_wirelength() + self.star_wirelength()
    }

    /// Number of sinks below each trunk node (the DP's *fanout*).
    pub fn fanout(&self) -> Vec<u32> {
        let mut f = vec![0u32; self.nodes.len()];
        for s in &self.stars {
            f[s.node as usize] += s.sinks.len() as u32;
        }
        for &n in self.csr().order().iter().rev() {
            if let Some(p) = self.nodes[n as usize].parent {
                f[p as usize] += f[n as usize];
            }
        }
        f
    }

    /// Sorted distinct trunk fanout values that can flip a node's
    /// insertion mode under [`crate::ModeRule::FanoutThreshold`] —
    /// every fanout value except the total sink count (top-net nodes
    /// always stay full mode).
    ///
    /// These are the mode-class boundaries of a threshold sweep: the mode
    /// vector of threshold `t` is fully determined by *how many* of these
    /// values lie below `t`, so any two thresholds with no boundary in
    /// between are provably equivalent. The batched DSE engine
    /// ([`crate::dse::SweepEngine`]) uses this to run the DP once per
    /// equivalence class instead of once per threshold.
    pub fn distinct_fanouts(&self) -> Vec<u32> {
        let mut f = self.fanout();
        let total = f[0];
        f.retain(|&x| x != total);
        f.sort_unstable();
        f.dedup();
        f
    }

    /// Splits every trunk edge longer than `max_len` into a chain of
    /// segments of at most `max_len`, inserting Steiner nodes along the
    /// L-shaped path between the endpoints. Electrical snake excess is
    /// spread proportionally over the segments.
    ///
    /// This sets the DP granularity: each segment hosts one edge pattern,
    /// so long nets can receive several buffers / nTSV stages.
    ///
    /// # Panics
    ///
    /// Panics if `max_len <= 0`.
    pub fn subdivide(&mut self, max_len: i64) {
        assert!(max_len > 0, "max segment length must be positive");
        let n0 = self.nodes.len();
        for i in 1..n0 {
            if self.nodes[i].edge_len <= max_len {
                continue;
            }
            let parent = self.nodes[i].parent.expect("non-root");
            let ppos = self.nodes[parent as usize].pos;
            let cpos = self.nodes[i].pos;
            let total = self.nodes[i].edge_len;
            let geom = ppos.manhattan(cpos);
            let k = (total + max_len - 1) / max_len; // number of segments
            let mut prev = parent;
            // Waypoint `s` sits at `min(geom, total·s/k)` along the L-path:
            // `total >= geom` and `min(geom, ·)` is monotone and 1-Lipschitz,
            // so every segment's length covers its span, snaked or not.
            for s in 1..k {
                let pos = ppos.walk_toward(cpos, geom.min(total * s / k));
                let id = self.nodes.len() as u32;
                self.nodes.push(TrunkNode {
                    pos,
                    parent: Some(prev),
                    edge_len: total * s / k - total * (s - 1) / k,
                    star: None,
                });
                prev = id;
            }
            // Final segment re-targets the original node.
            self.nodes[i].parent = Some(prev);
            self.nodes[i].edge_len = total - total * (k - 1) / k;
        }
        self.invalidate_topology();
        debug_assert_eq!(self.validate(), Ok(()));
    }

    /// Structural validation: connectivity, lengths covering geometry,
    /// stars referencing valid centroids, every sink in exactly one star.
    pub fn validate(&self) -> Result<(), String> {
        if self.nodes.is_empty() {
            return Err("no trunk nodes".into());
        }
        if self.nodes[0].parent.is_some() {
            return Err("node 0 must be the clock root".into());
        }
        for (i, n) in self.nodes.iter().enumerate().skip(1) {
            let p = match n.parent {
                Some(p) if (p as usize) < self.nodes.len() => p,
                Some(p) => return Err(format!("node {i}: bad parent {p}")),
                None => return Err(format!("node {i}: missing parent")),
            };
            let d = n.pos.manhattan(self.nodes[p as usize].pos);
            if n.edge_len < d {
                return Err(format!("node {i}: edge_len {} < geometry {d}", n.edge_len));
            }
        }
        // Binary trunk (root may have a single child). Counted directly
        // from the parent pointers: validation must not trust a cache that
        // a buggy caller may have left stale.
        let mut child_count = vec![0u32; self.nodes.len()];
        for n in &self.nodes {
            if let Some(p) = n.parent {
                child_count[p as usize] += 1;
            }
        }
        for (i, &c) in child_count.iter().enumerate() {
            if c > 2 {
                return Err(format!("node {i} has {c} children"));
            }
        }
        let mut star_of = vec![None; self.nodes.len()];
        for (si, s) in self.stars.iter().enumerate() {
            if s.node as usize >= self.nodes.len() {
                return Err(format!("star {si}: bad node {}", s.node));
            }
            if self.nodes[s.node as usize].star != Some(si as u32) {
                return Err(format!("star {si}: node back-reference mismatch"));
            }
            if star_of[s.node as usize].replace(si).is_some() {
                return Err(format!("node {} hosts two stars", s.node));
            }
            if s.sinks.len() != s.branch_len.len() {
                return Err(format!("star {si}: branch length arity mismatch"));
            }
            for (&sk, &bl) in s.sinks.iter().zip(&s.branch_len) {
                let sk = sk as usize;
                if sk >= self.sink_pos.len() {
                    return Err(format!("star {si}: sink {sk} out of range"));
                }
                let d = self.sink_pos[sk].manhattan(self.nodes[s.node as usize].pos);
                if bl < d {
                    return Err(format!(
                        "star {si}: branch to sink {sk} shorter than geometry"
                    ));
                }
            }
        }
        let mut covered = vec![false; self.sink_pos.len()];
        for s in &self.stars {
            for &sk in &s.sinks {
                if covered[sk as usize] {
                    return Err(format!("sink {sk} appears in two stars"));
                }
                covered[sk as usize] = true;
            }
        }
        if !covered.iter().all(|&c| c) {
            return Err("not every sink is connected".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// root(0,0) -> a(10k,0) -> {b(20k,10k): star0, c(20k,-10k): star1}
    pub(crate) fn two_cluster_topo() -> ClockTopo {
        ClockTopo::new(
            vec![
                TrunkNode {
                    pos: Point::new(0, 0),
                    parent: None,
                    edge_len: 0,
                    star: None,
                },
                TrunkNode {
                    pos: Point::new(10_000, 0),
                    parent: Some(0),
                    edge_len: 10_000,
                    star: None,
                },
                TrunkNode {
                    pos: Point::new(20_000, 10_000),
                    parent: Some(1),
                    edge_len: 20_000,
                    star: Some(0),
                },
                TrunkNode {
                    pos: Point::new(20_000, -10_000),
                    parent: Some(1),
                    edge_len: 20_000,
                    star: Some(1),
                },
            ],
            vec![
                LeafStar {
                    node: 2,
                    sinks: vec![0, 1],
                    branch_len: vec![1_000, 2_000],
                },
                LeafStar {
                    node: 3,
                    sinks: vec![2],
                    branch_len: vec![500],
                },
            ],
            vec![
                Point::new(20_500, 10_500),
                Point::new(19_000, 11_000),
                Point::new(20_000, -10_500),
            ],
            vec![1.1, 1.1, 1.1],
        )
    }

    #[test]
    fn validates_and_measures() {
        let t = two_cluster_topo();
        assert_eq!(t.validate(), Ok(()));
        assert_eq!(t.trunk_wirelength(), 50_000);
        assert_eq!(t.star_wirelength(), 3_500);
        assert_eq!(t.total_wirelength(), 53_500);
    }

    #[test]
    fn fanout_counts_sinks() {
        let t = two_cluster_topo();
        let f = t.fanout();
        assert_eq!(f[0], 3);
        assert_eq!(f[1], 3);
        assert_eq!(f[2], 2);
        assert_eq!(f[3], 1);
    }

    #[test]
    fn distinct_fanouts_excludes_total_and_dedups() {
        let t = two_cluster_topo();
        // Fanouts are [3, 3, 2, 1]; the total (3) is excluded because
        // top-net nodes never change mode.
        assert_eq!(t.distinct_fanouts(), vec![1, 2]);
    }

    #[test]
    fn topo_order_is_parent_first() {
        let t = two_cluster_topo();
        let order = t.topo_order();
        let rank: Vec<usize> = {
            let mut r = vec![0; t.nodes.len()];
            for (k, &n) in order.iter().enumerate() {
                r[n as usize] = k;
            }
            r
        };
        for (i, n) in t.nodes.iter().enumerate().skip(1) {
            assert!(rank[n.parent.unwrap() as usize] < rank[i]);
        }
    }

    #[test]
    fn subdivide_preserves_length_and_validity() {
        let mut t = two_cluster_topo();
        let before = t.total_wirelength();
        t.subdivide(6_000);
        assert_eq!(t.validate(), Ok(()));
        assert_eq!(t.total_wirelength(), before);
        // Every edge now at most 6 µm.
        assert!(t.nodes.iter().skip(1).all(|n| n.edge_len <= 6_000));
        // Stars untouched.
        assert_eq!(t.stars.len(), 2);
    }

    #[test]
    fn subdivide_handles_snaked_edges() {
        let mut t = two_cluster_topo();
        t.nodes[1].edge_len = 25_000; // 15 µm of snaking over 10 µm span
        assert_eq!(t.validate(), Ok(()));
        t.subdivide(8_000);
        assert_eq!(t.validate(), Ok(()));
        assert_eq!(t.trunk_wirelength(), 65_000);
        // A little snaking cut into many segments: rounding must never
        // leave a segment shorter than its span.
        for slack in 1..50 {
            for cuts in 2..40 {
                let mut t = two_cluster_topo();
                let len = 10_000 + slack;
                t.nodes[1].edge_len = len;
                let trunk = t.trunk_wirelength();
                t.subdivide((len + cuts - 1) / cuts);
                assert_eq!(t.validate(), Ok(()), "slack {slack}, {cuts} cuts");
                assert_eq!(t.trunk_wirelength(), trunk, "slack {slack}, {cuts} cuts");
            }
        }
    }

    #[test]
    fn validate_catches_orphan_sink() {
        let mut t = two_cluster_topo();
        t.stars[0].sinks.pop();
        t.stars[0].branch_len.pop();
        assert!(t.validate().unwrap_err().contains("not every sink"));
    }

    #[test]
    fn validate_catches_short_branch() {
        let mut t = two_cluster_topo();
        t.stars[0].branch_len[0] = 10; // geometry needs 1000
        assert!(t.validate().is_err());
    }
}
