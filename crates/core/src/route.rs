//! Hierarchical clock routing (§III-B).
//!
//! Dual-level k-means clustering (sizes `Hc`/`Lc`) feeds a hierarchy of
//! zero-skew DME runs: each high-level cluster routes its low-level
//! centroids from the high centroid; a top-level DME then routes the high
//! centroids from the clock root. Sinks connect to their low centroid by a
//! star (the *leaf nets*). The result is a [`ClockTopo`]: a binary trunk
//! (the DP's domain) plus leaf stars.
//!
//! The flat matching-based alternative of Fig. 5(c) — one DME over all low
//! centroids — is available as [`RoutingStyle::FlatMatching`] and is used
//! by the ablation benches to reproduce the paper's wirelength argument.

use crate::error::CtsError;
use crate::resilience::fault;
use crate::tree::{ClockTopo, LeafStar, TrunkNode};
use dscts_cluster::DualHierarchy;
use dscts_dme::{RoutedTree, Terminal, Topology, ZstDme};
use dscts_netlist::Design;
use dscts_tech::{Side, Technology};
use rayon::prelude::*;

/// Trunk construction style.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RoutingStyle {
    /// Dual-level clustering + hierarchical DME (the paper's router).
    #[default]
    Hierarchical,
    /// Single matching-based DME over all low centroids (Fig. 5(c)).
    FlatMatching,
}

/// Hierarchical clock router.
///
/// ```
/// use dscts_core::HierarchicalRouter;
/// use dscts_netlist::BenchmarkSpec;
/// use dscts_tech::Technology;
///
/// let design = BenchmarkSpec::c4_riscv32i().generate();
/// let topo = HierarchicalRouter::new()
///     .try_route(&design, &Technology::asap7())
///     .unwrap();
/// assert_eq!(topo.validate(), Ok(()));
/// // 1056 sinks at Lc=30 -> ≈ 36 leaf clusters (plus a few splits of
/// // outlier clusters for load/radius feasibility).
/// assert!((35..=52).contains(&topo.stars.len()));
/// ```
#[derive(Debug, Clone)]
pub struct HierarchicalRouter {
    hc: usize,
    lc: usize,
    seed: u64,
    style: RoutingStyle,
}

impl Default for HierarchicalRouter {
    fn default() -> Self {
        Self::new()
    }
}

impl HierarchicalRouter {
    /// Router with the paper's defaults: `Hc = 3000`, `Lc = 30`.
    pub fn new() -> Self {
        HierarchicalRouter {
            hc: 3000,
            lc: 30,
            seed: 7,
            style: RoutingStyle::Hierarchical,
        }
    }

    /// Sets the high-level cluster size bound.
    pub fn hc(mut self, hc: usize) -> Self {
        assert!(hc > 0);
        self.hc = hc;
        self
    }

    /// Sets the low-level cluster size bound.
    pub fn lc(mut self, lc: usize) -> Self {
        assert!(lc > 0);
        self.lc = lc;
        self
    }

    /// Sets the clustering seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Selects the trunk construction style.
    pub fn style(mut self, style: RoutingStyle) -> Self {
        self.style = style;
        self
    }

    /// Routes the clock tree for `design`, reporting unroutable inputs as
    /// [`CtsError`] instead of panicking.
    ///
    /// The per-high-cluster DME runs are independent of each other and
    /// execute in parallel; subtrees are grafted back in cluster order, so
    /// the resulting topology is bit-identical at any thread count.
    pub fn try_route(&self, design: &Design, tech: &Technology) -> Result<ClockTopo, CtsError> {
        if design.sinks.is_empty() {
            return Err(CtsError::EmptyDesign);
        }
        fault::fault_check(fault::SITE_ROUTE)?;
        let sinks = design.sink_positions();
        let hier = DualHierarchy::build(&sinks, self.hc, self.lc, self.seed);
        let rc = tech.rc(Side::Front);
        let dme = ZstDme::new(rc);
        let sink_cap: Vec<f64> = design.sinks.iter().map(|s| s.cap_ff).collect();

        // Low clusters, split further whenever their star load would bust
        // the max-capacitance budget (a leaf buffer must be able to drive
        // every leaf net — a feasibility requirement of the DP) or a star
        // branch would be so long that its unbuffered leaf-net delay stops
        // being negligible (§III-D relies on intra-cluster delays being
        // noise; k-means capacity rebalancing can strand far outliers).
        let budget = 0.85 * tech.max_load_ff();
        let branch_limit = 25_000i64; // 25 µm ≈ 2 ps of leaf-net delay
        let star_cap = |members: &[u32], centroid: dscts_geom::Point| -> f64 {
            members
                .iter()
                .map(|&s| rc.cap(sinks[s as usize].manhattan(centroid)) + sink_cap[s as usize])
                .sum()
        };
        let max_branch = |members: &[u32], centroid: dscts_geom::Point| -> i64 {
            members
                .iter()
                .map(|&s| sinks[s as usize].manhattan(centroid))
                .max()
                .unwrap_or(0)
        };
        let centroid_of = |members: &[u32]| -> dscts_geom::Point {
            let sx: i64 = members.iter().map(|&s| sinks[s as usize].x).sum();
            let sy: i64 = members.iter().map(|&s| sinks[s as usize].y).sum();
            dscts_geom::Point::new(sx / members.len() as i64, sy / members.len() as i64)
        };
        let mut queue: Vec<(u32, Vec<u32>)> = hier
            .low_clusters()
            .map(|lc| (lc.high, lc.sinks.clone()))
            .collect();
        let mut clusters: Vec<(u32, dscts_geom::Point, Vec<u32>)> = Vec::new();
        while let Some((high, members)) = queue.pop() {
            let centroid = centroid_of(&members);
            if members.len() <= 1
                || (star_cap(&members, centroid) <= budget
                    && max_branch(&members, centroid) <= branch_limit)
            {
                clusters.push((high, centroid, members));
                continue;
            }
            // Median split along the wider spatial axis.
            let mut m = members;
            let xs: Vec<i64> = m.iter().map(|&s| sinks[s as usize].x).collect();
            let ys: Vec<i64> = m.iter().map(|&s| sinks[s as usize].y).collect();
            // invariant: this branch requires members.len() > 1 (the <= 1
            // case pushed the cluster above), so both extrema exist.
            let span = |v: &[i64]| {
                v.iter().max().copied().unwrap_or(0) - v.iter().min().copied().unwrap_or(0)
            };
            if span(&xs) >= span(&ys) {
                m.sort_by_key(|&s| (sinks[s as usize].x, sinks[s as usize].y));
            } else {
                m.sort_by_key(|&s| (sinks[s as usize].y, sinks[s as usize].x));
            }
            let half = m.len() / 2;
            let right = m.split_off(half);
            queue.push((high, m));
            queue.push((high, right));
        }
        clusters.sort_by_key(|(h, c, _)| (*h, c.x, c.y)); // determinism

        // Summarise each low cluster as a DME terminal (star load + delay).
        // Clusters are independent; the collect preserves cluster order.
        let star_info: Vec<(Terminal, LeafStar)> = clusters
            .par_iter()
            .map(|(_, centroid, members)| {
                let mut cap = 0.0;
                let mut max_d = 0.0f64;
                let mut branch_len = Vec::with_capacity(members.len());
                for &s in members {
                    let len = sinks[s as usize].manhattan(*centroid);
                    branch_len.push(len);
                    cap += rc.cap(len) + sink_cap[s as usize];
                    let d = rc.res(len) * (rc.cap(len) + sink_cap[s as usize]);
                    max_d = max_d.max(d);
                }
                (
                    Terminal::with_delay(*centroid, cap, max_d),
                    LeafStar {
                        node: u32::MAX, // fixed during grafting
                        sinks: members.clone(),
                        branch_len,
                    },
                )
            })
            .collect();

        let mut builder = TopoBuilder::new(design, &sink_cap);
        match self.style {
            RoutingStyle::FlatMatching => {
                let terms: Vec<Terminal> = star_info.iter().map(|(t, _)| *t).collect();
                let topo = Topology::matching(&terms);
                let tree = dme.run(&topo, &terms, design.clock_root);
                let star_ids: Vec<usize> = (0..star_info.len()).collect();
                builder.graft(&tree, 0, &star_ids, &star_info);
            }
            RoutingStyle::Hierarchical => {
                // Group low clusters (and their star data) by high cluster.
                let k_high = hier.high.k();
                let mut groups: Vec<Vec<usize>> = vec![Vec::new(); k_high];
                for (i, (high, _, _)) in clusters.iter().enumerate() {
                    groups[*high as usize].push(i);
                }
                // Route each high cluster from its centroid. Every
                // cluster's DME run is independent — this is the routing
                // stage's hot path — and the order-preserving collect
                // keeps grafting (below) in deterministic cluster order.
                let occupied: Vec<(usize, &Vec<usize>)> = groups
                    .iter()
                    .enumerate()
                    .filter(|(_, g)| !g.is_empty())
                    .collect();
                let subtrees: Vec<(RoutedTree, Vec<usize>, Terminal)> = occupied
                    .par_iter()
                    .map(|&(h, group)| {
                        let terms: Vec<Terminal> = group.iter().map(|&i| star_info[i].0).collect();
                        let topo = Topology::matching(&terms);
                        let source = hier.high.centroid(h);
                        let tree = dme.run(&topo, &terms, source);
                        // Summarise the routed subtree for the top-level DME.
                        // The tapping delay is deliberately *not* propagated:
                        // unbuffered-wire delays at this scale are quadratic in
                        // distance and would be balanced with enormous snaking
                        // wire, which the following buffer insertion invalidates
                        // anyway (§III-B: post-routing stages make latency and
                        // skew resilient to topology; routing should optimise
                        // wirelength).
                        let cap: f64 = terms.iter().map(|t| t.cap).sum::<f64>()
                            + rc.cap(tree.total_wirelength());
                        (tree, group.clone(), Terminal::with_delay(source, cap, 0.0))
                    })
                    .collect();
                // Top-level DME over the high centroids.
                let top_terms: Vec<Terminal> = subtrees.iter().map(|(_, _, t)| *t).collect();
                let top_topo = Topology::matching(&top_terms);
                let top_tree = dme.run(&top_topo, &top_terms, design.clock_root);
                let anchors = builder.graft(&top_tree, 0, &[], &star_info);
                // Splice each high-cluster subtree under its top-level leaf.
                for (t_idx, (tree, group, _)) in subtrees.iter().enumerate() {
                    let parent = anchors[t_idx];
                    builder.graft(tree, parent, group, &star_info);
                }
            }
        }
        let topo = builder.finish(star_info);
        // Always-on structural validation: a malformed trunk must fail
        // loudly in release builds too, not only under debug_assert.
        topo.validate().map_err(CtsError::InvalidTopology)?;
        Ok(topo)
    }
}

/// Incrementally grafts [`RoutedTree`]s into one [`ClockTopo`] trunk.
struct TopoBuilder {
    nodes: Vec<TrunkNode>,
    /// For every star id: the trunk node hosting it (filled by grafting).
    star_node: Vec<Option<u32>>,
    sink_pos: Vec<dscts_geom::Point>,
    sink_cap: Vec<f64>,
}

impl TopoBuilder {
    fn new(design: &Design, sink_cap: &[f64]) -> Self {
        TopoBuilder {
            nodes: vec![TrunkNode {
                pos: design.clock_root,
                parent: None,
                edge_len: 0,
                star: None,
            }],
            star_node: Vec::new(),
            sink_pos: design.sink_positions(),
            sink_cap: sink_cap.to_vec(),
        }
    }

    /// Grafts `tree` under trunk node `under`. `tree`'s node 0 (its source)
    /// is identified with `under`; all other nodes are copied. Terminal `t`
    /// of the tree corresponds to star `star_ids[t]` when `star_ids` is
    /// non-empty (leaf-level graft); otherwise terminals become anchors
    /// whose trunk ids are returned in terminal order (top-level graft).
    fn graft(
        &mut self,
        tree: &RoutedTree,
        under: u32,
        star_ids: &[usize],
        star_info: &[(Terminal, LeafStar)],
    ) -> Vec<u32> {
        if self.star_node.len() < star_info.len() {
            self.star_node.resize(star_info.len(), None);
        }
        let mut map = vec![u32::MAX; tree.nodes().len()];
        map[0] = under;
        let mut anchors = vec![u32::MAX; tree.terminal_count()];
        for (i, n) in tree.nodes().iter().enumerate().skip(1) {
            // invariant: DME emits exactly one parentless node, its source,
            // which is index 0 and skipped here.
            let parent = map[n.parent.expect("non-root") as usize];
            debug_assert_ne!(parent, u32::MAX, "parent grafted before child");
            let id = self.nodes.len() as u32;
            self.nodes.push(TrunkNode {
                pos: n.pos,
                parent: Some(parent),
                edge_len: n.edge_len,
                star: None,
            });
            map[i] = id;
            if let Some(t) = n.terminal {
                if star_ids.is_empty() {
                    anchors[t as usize] = id;
                } else {
                    let star = star_ids[t as usize];
                    self.nodes[id as usize].star = Some(star as u32);
                    self.star_node[star] = Some(id);
                }
            }
        }
        // Single-node tree (source == terminal) degenerate case.
        if tree.nodes().len() == 1 {
            anchors.clear();
        }
        anchors
    }

    fn finish(self, star_info: Vec<(Terminal, LeafStar)>) -> ClockTopo {
        let stars: Vec<LeafStar> = star_info
            .into_iter()
            .enumerate()
            .map(|(i, (_, mut star))| {
                // invariant: each star id appears in exactly one leaf-level
                // graft's star_ids, which fills star_node[i].
                star.node = self.star_node[i].expect("every star grafted");
                star
            })
            .collect();
        let mut nodes = self.nodes;
        for (si, s) in stars.iter().enumerate() {
            nodes[s.node as usize].star = Some(si as u32);
        }
        ClockTopo::new(nodes, stars, self.sink_pos, self.sink_cap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dscts_netlist::BenchmarkSpec;

    fn tech() -> Technology {
        Technology::asap7()
    }

    fn route(router: HierarchicalRouter, d: &Design) -> ClockTopo {
        router.try_route(d, &tech()).expect("routable")
    }

    #[test]
    fn routes_c4_with_expected_cluster_count() {
        let d = BenchmarkSpec::c4_riscv32i().generate();
        let topo = route(HierarchicalRouter::new(), &d);
        assert_eq!(topo.validate(), Ok(()));
        // ceil(1056/30) = 36 low clusters; capacitance- and radius-driven
        // splitting of outlier clusters adds a few more.
        assert!(
            (36..=52).contains(&topo.stars.len()),
            "{} stars",
            topo.stars.len()
        );
        // All sinks connected.
        let covered: usize = topo.stars.iter().map(|s| s.sinks.len()).sum();
        assert_eq!(covered, 1056);
    }

    #[test]
    fn routing_is_deterministic() {
        let d = BenchmarkSpec::c4_riscv32i().generate();
        let a = route(HierarchicalRouter::new(), &d);
        let b = route(HierarchicalRouter::new(), &d);
        assert_eq!(a, b);
    }

    #[test]
    fn flat_matching_also_valid() {
        let d = BenchmarkSpec::c4_riscv32i().generate();
        let topo = route(
            HierarchicalRouter::new().style(RoutingStyle::FlatMatching),
            &d,
        );
        assert_eq!(topo.validate(), Ok(()));
    }

    #[test]
    fn hierarchical_wirelength_competitive_on_imbalanced_designs() {
        // C1 has macros and banked FFs — the imbalanced case motivating
        // hierarchical routing. Hierarchical geometric metal should not
        // exceed flat matching by more than a small factor, and typically
        // beats it.
        let d = BenchmarkSpec::c1_jpeg().generate();
        let hier = route(HierarchicalRouter::new(), &d);
        let flat = route(
            HierarchicalRouter::new().style(RoutingStyle::FlatMatching),
            &d,
        );
        let h = hier.total_wirelength();
        let f = flat.total_wirelength();
        assert!((h as f64) < 1.3 * f as f64, "hierarchical {h} vs flat {f}");
    }

    #[test]
    fn trunk_is_binary_and_rooted_at_clock_root() {
        let d = BenchmarkSpec::c5_aes().generate();
        let topo = route(HierarchicalRouter::new(), &d);
        assert_eq!(topo.nodes[0].pos, d.clock_root);
        for v in 0..topo.nodes.len() {
            assert!(topo.csr().children(v as u32).len() <= 2);
        }
    }

    #[test]
    fn custom_cluster_sizes_scale_star_count() {
        // Smaller Lc means more leaf clusters; with Lc=15 the load budget
        // never binds, so the count tracks ceil(1056/15) = 71.
        let d = BenchmarkSpec::c4_riscv32i().generate();
        let topo = route(HierarchicalRouter::new().lc(15), &d);
        assert!(
            (71..=88).contains(&topo.stars.len()),
            "{} stars",
            topo.stars.len()
        );
        // Larger Lc is clamped by the capacitance budget, never infeasible.
        let big = route(HierarchicalRouter::new().lc(60), &d);
        assert_eq!(big.validate(), Ok(()));
        assert!(big.stars.len() < topo.stars.len());
    }
}
