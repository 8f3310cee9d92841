use crate::zst::Terminal;
use dscts_geom::Point;

/// One node of a binary clock topology.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TopologyNode {
    /// Children node indices (internal nodes) — `None` for leaves.
    pub children: Option<(u32, u32)>,
    /// Terminal index for leaves — `None` for internal nodes.
    pub terminal: Option<u32>,
}

/// A binary merge topology over a terminal set, in bottom-up order
/// (children always precede parents; the root is the last node).
///
/// Build one with [`Topology::matching`] (greedy nearest-neighbour pairing,
/// the classic Edahiro-style approach shown in Fig. 5(c) of the paper) or
/// [`Topology::bisection`] (recursive balanced splits along the wider axis).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Topology {
    nodes: Vec<TopologyNode>,
}

impl Topology {
    /// Nodes in bottom-up order.
    pub fn nodes(&self) -> &[TopologyNode] {
        &self.nodes
    }

    /// Index of the root node.
    pub fn root(&self) -> u32 {
        (self.nodes.len() - 1) as u32
    }

    /// Number of nodes (= `2·n_terminals − 1` for `n ≥ 1`).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the topology is empty (never true for valid inputs).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Greedy nearest-neighbour matching topology: at every level, the
    /// closest unmatched pair of subtree anchor points merges; an odd
    /// leftover is carried to the next level.
    ///
    /// Pairs are ranked by `(distance, i, j)` over anchor indices `i < j`,
    /// a strict total order, and each level's pairs are that order's
    /// greedy matching. They are found by mutual nearest neighbours: every
    /// free anchor keeps its nearest free anchor, each round merges every
    /// mutual pair, and only anchors whose nearest was merged look again.
    /// That gives the same pairs as sorting all `m(m − 1)/2` of them and
    /// sweeping greedily, in O(m) memory for `m` anchors and O(m²) time
    /// per level unless many anchors lose their nearest in every round.
    /// The merged pairs are emitted in `(distance, i, j)` order, then the
    /// leftover anchor (if any), so node order is the sorted sweep's too.
    ///
    /// # Panics
    ///
    /// Panics if `terminals` is empty.
    pub fn matching(terminals: &[Terminal]) -> Topology {
        assert!(
            !terminals.is_empty(),
            "topology needs at least one terminal"
        );
        let mut nodes: Vec<TopologyNode> = (0..terminals.len())
            .map(|i| TopologyNode {
                children: None,
                terminal: Some(i as u32),
            })
            .collect();
        // Active set: (node index, anchor point).
        let mut active: Vec<(u32, Point)> = terminals
            .iter()
            .enumerate()
            .map(|(i, t)| (i as u32, t.pos))
            .collect();
        let mut pts: Vec<Point> = Vec::with_capacity(active.len());
        let mut pairs: Vec<(i64, u32, u32)> = Vec::with_capacity(active.len() / 2);
        while active.len() > 1 {
            pts.clear();
            pts.extend(active.iter().map(|&(_, p)| p));
            greedy_pairs(&pts, &mut pairs);
            pairs.sort_unstable();
            let mut used = vec![false; active.len()];
            let mut next: Vec<(u32, Point)> = Vec::with_capacity(active.len() / 2 + 1);
            for &(_, i, j) in &pairs {
                let (i, j) = (i as usize, j as usize);
                used[i] = true;
                used[j] = true;
                let id = nodes.len() as u32;
                nodes.push(TopologyNode {
                    children: Some((active[i].0, active[j].0)),
                    terminal: None,
                });
                next.push((id, active[i].1.midpoint(active[j].1)));
            }
            for (i, &(id, p)) in active.iter().enumerate() {
                if !used[i] {
                    next.push((id, p));
                }
            }
            active = next;
        }
        Topology { nodes }
    }

    /// Balanced-bisection topology: recursively split the terminal set in
    /// half along the wider spatial axis. Produces depth `⌈log2 n⌉` trees
    /// that are robust on strongly imbalanced point sets.
    ///
    /// # Panics
    ///
    /// Panics if `terminals` is empty.
    pub fn bisection(terminals: &[Terminal]) -> Topology {
        assert!(
            !terminals.is_empty(),
            "topology needs at least one terminal"
        );
        let mut nodes = Vec::with_capacity(2 * terminals.len());
        let mut idx: Vec<u32> = (0..terminals.len() as u32).collect();
        let root = Self::bisect(&mut idx, terminals, &mut nodes);
        debug_assert_eq!(root as usize, nodes.len() - 1);
        Topology { nodes }
    }

    fn bisect(idx: &mut [u32], terminals: &[Terminal], nodes: &mut Vec<TopologyNode>) -> u32 {
        if idx.len() == 1 {
            nodes.push(TopologyNode {
                children: None,
                terminal: Some(idx[0]),
            });
            return (nodes.len() - 1) as u32;
        }
        let xs: Vec<i64> = idx.iter().map(|&i| terminals[i as usize].pos.x).collect();
        let ys: Vec<i64> = idx.iter().map(|&i| terminals[i as usize].pos.y).collect();
        // invariant: the idx.len() == 1 case returned above, so the slices
        // are non-empty and both extrema exist.
        let span =
            |v: &[i64]| v.iter().max().copied().unwrap_or(0) - v.iter().min().copied().unwrap_or(0);
        if span(&xs) >= span(&ys) {
            idx.sort_by_key(|&i| (terminals[i as usize].pos.x, terminals[i as usize].pos.y));
        } else {
            idx.sort_by_key(|&i| (terminals[i as usize].pos.y, terminals[i as usize].pos.x));
        }
        let mid = idx.len() / 2;
        let (lo, hi) = idx.split_at_mut(mid);
        let a = Self::bisect(lo, terminals, nodes);
        let b = Self::bisect(hi, terminals, nodes);
        nodes.push(TopologyNode {
            children: Some((a, b)),
            terminal: None,
        });
        (nodes.len() - 1) as u32
    }

    /// Checks structural sanity: bottom-up order, every terminal appearing
    /// exactly once, `2n − 1` nodes.
    pub fn validate(&self, n_terminals: usize) -> Result<(), String> {
        if n_terminals == 0 {
            return Err("a topology needs at least one terminal".to_owned());
        }
        if self.nodes.len() != 2 * n_terminals - 1 {
            return Err(format!(
                "expected {} nodes for {} terminals, got {}",
                2 * n_terminals - 1,
                n_terminals,
                self.nodes.len()
            ));
        }
        let mut seen = vec![false; n_terminals];
        for (i, n) in self.nodes.iter().enumerate() {
            match (n.children, n.terminal) {
                (Some((a, b)), None) => {
                    if a as usize >= i || b as usize >= i {
                        return Err(format!("node {i} references later child"));
                    }
                }
                (None, Some(t)) => {
                    if seen[t as usize] {
                        return Err(format!("terminal {t} appears twice"));
                    }
                    seen[t as usize] = true;
                }
                _ => return Err(format!("node {i} is neither leaf nor internal")),
            }
        }
        if !seen.iter().all(|&s| s) {
            return Err("not all terminals reachable".to_owned());
        }
        Ok(())
    }
}

/// Writes into `pairs` the greedy matching of `pts` under the pair order
/// `(distance, i, j)`, `i < j`, as `(distance, i, j)` triples in no
/// particular order.
///
/// Every free anchor keeps its nearest free anchor under that order,
/// which for a fixed anchor is the lowest index among the closest. Each
/// round merges every mutual pair, then re-scans only the anchors whose
/// nearest was just merged (removing anchors cannot change any other
/// anchor's nearest). This is greedy's result: the smallest free pair is
/// always mutual, so each round merges at least one pair; and no smaller
/// pair touches either end of a mutual pair, so greedy merges every
/// mutual pair too, whatever else it merged first.
fn greedy_pairs(pts: &[Point], pairs: &mut Vec<(i64, u32, u32)>) {
    pairs.clear();
    let m = pts.len();
    // near[a] = (distance, index) of a's nearest free anchor: the least
    // such pair, so the lowest index among the closest, and any real
    // candidate beats the `u32::MAX` placeholder, whatever its distance.
    let mut near = vec![(i64::MAX, u32::MAX); m];
    for i in 0..m {
        for j in i + 1..m {
            let d = pts[i].manhattan(pts[j]);
            near[i] = near[i].min((d, j as u32));
            near[j] = near[j].min((d, i as u32));
        }
    }
    let mut free: Vec<u32> = (0..m as u32).collect();
    let mut merged = vec![false; m];
    while free.len() > 1 {
        for &a in &free {
            let (d, b) = near[a as usize];
            if a < b && near[b as usize].1 == a {
                pairs.push((d, a, b));
                merged[a as usize] = true;
                merged[b as usize] = true;
            }
        }
        free.retain(|&a| !merged[a as usize]);
        if free.len() < 2 {
            break;
        }
        for &a in &free {
            if !merged[near[a as usize].1 as usize] {
                continue;
            }
            let p = pts[a as usize];
            let mut best = (i64::MAX, u32::MAX);
            for &b in &free {
                if b != a {
                    best = best.min((p.manhattan(pts[b as usize]), b));
                }
            }
            near[a as usize] = best;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn terms(pts: &[(i64, i64)]) -> Vec<Terminal> {
        pts.iter()
            .map(|&(x, y)| Terminal::new(Point::new(x, y), 1.0))
            .collect()
    }

    /// The matching oracle: every level lists all pairs, sorts them by
    /// `(distance, i, j)` and takes each pair whose ends are both free.
    fn matching_oracle(terminals: &[Terminal]) -> Topology {
        let mut nodes: Vec<TopologyNode> = (0..terminals.len())
            .map(|i| TopologyNode {
                children: None,
                terminal: Some(i as u32),
            })
            .collect();
        let mut active: Vec<(u32, Point)> = terminals
            .iter()
            .enumerate()
            .map(|(i, t)| (i as u32, t.pos))
            .collect();
        while active.len() > 1 {
            let mut pairs: Vec<(i64, usize, usize)> = Vec::new();
            for i in 0..active.len() {
                for j in (i + 1)..active.len() {
                    pairs.push((active[i].1.manhattan(active[j].1), i, j));
                }
            }
            pairs.sort_unstable();
            let mut used = vec![false; active.len()];
            let mut next: Vec<(u32, Point)> = Vec::with_capacity(active.len() / 2 + 1);
            for (_, i, j) in pairs {
                if used[i] || used[j] {
                    continue;
                }
                used[i] = true;
                used[j] = true;
                let id = nodes.len() as u32;
                nodes.push(TopologyNode {
                    children: Some((active[i].0, active[j].0)),
                    terminal: None,
                });
                next.push((id, active[i].1.midpoint(active[j].1)));
            }
            for (i, &(id, p)) in active.iter().enumerate() {
                if !used[i] {
                    next.push((id, p));
                }
            }
            active = next;
        }
        Topology { nodes }
    }

    /// One oracle case of `m` terminals; `kind` picks the point pattern.
    fn oracle_case(rng: &mut SmallRng, kind: usize, m: usize) -> Vec<Terminal> {
        let pts: Vec<Point> = match kind {
            // Scatter over a random span; small spans force distance ties.
            0 => {
                let span = rng.random_range(1..=100_000i64);
                (0..m)
                    .map(|_| Point::new(rng.random_range(0..span), rng.random_range(0..span)))
                    .collect()
            }
            // A lattice: every neighbour is equidistant.
            1 => {
                let pitch = rng.random_range(1..=1_000i64);
                let cols = (m as f64).sqrt().ceil() as i64;
                (0..m as i64)
                    .map(|i| Point::new(i % cols * pitch, i / cols * pitch))
                    .collect()
            }
            // 6×6 distinct positions, so most points are duplicates.
            2 => (0..m)
                .map(|_| {
                    Point::new(
                        rng.random_range(0..6i64) * 1_000,
                        rng.random_range(0..6i64) * 1_000,
                    )
                })
                .collect(),
            // A line whose gaps grow by 5% each, in shuffled index order:
            // every round of the first level merges exactly one pair.
            _ => {
                let mut x = 0i64;
                let mut line: Vec<Point> = (0..m)
                    .map(|k| {
                        x += (100.0 * 1.05f64.powi(k as i32)) as i64;
                        Point::new(x, 7)
                    })
                    .collect();
                for i in (1..m).rev() {
                    line.swap(i, rng.random_range(0..=i));
                }
                line
            }
        };
        pts.into_iter().map(|p| Terminal::new(p, 1.0)).collect()
    }

    #[test]
    fn matching_equals_sorted_greedy_oracle() {
        let mut rng = SmallRng::seed_from_u64(0x4D41_5443_4849_4E47);
        let mut large = 0;
        for case in 0..500 {
            let kind = case % 4;
            // One case in four spans the full range; the rest stay small,
            // since the oracle sorts all m(m − 1)/2 pairs of every level.
            let m = if rng.random_range(0..4) == 0 {
                rng.random_range(1..=400usize)
            } else {
                rng.random_range(1..=100usize)
            };
            large += usize::from(m > 200);
            let t = oracle_case(&mut rng, kind, m);
            assert_eq!(
                Topology::matching(&t),
                matching_oracle(&t),
                "case {case}: kind {kind}, {m} terminals"
            );
        }
        assert!(large >= 40, "{large} cases past 200 terminals");
    }

    #[test]
    fn matching_accepts_the_largest_distance() {
        // Every pair here is 0 or i64::MAX apart.
        let far = i64::MAX;
        for pts in [vec![(0, 0), (far, 0)], vec![(0, 0), (far, 0), (0, 0)]] {
            let t = terms(&pts);
            assert_eq!(Topology::matching(&t), matching_oracle(&t), "{pts:?}");
        }
    }

    #[test]
    fn matching_single_terminal() {
        let t = terms(&[(5, 5)]);
        let topo = Topology::matching(&t);
        assert_eq!(topo.len(), 1);
        assert!(topo.validate(1).is_ok());
    }

    #[test]
    fn matching_pairs_nearest_first() {
        // Two tight pairs far apart: matching must pair (0,1) and (2,3).
        let t = terms(&[(0, 0), (1, 0), (100, 100), (101, 100)]);
        let topo = Topology::matching(&t);
        assert!(topo.validate(4).is_ok());
        let pairs: Vec<(u32, u32)> = topo.nodes().iter().filter_map(|n| n.children).collect();
        // First two merges must combine the tight pairs (in some order).
        let leaf_pairs: Vec<(u32, u32)> = pairs
            .iter()
            .filter(|&&(a, b)| a < 4 && b < 4)
            .cloned()
            .collect();
        assert_eq!(leaf_pairs.len(), 2);
        for (a, b) in leaf_pairs {
            let (a, b) = (a.min(b), a.max(b));
            assert!(
                ((a, b) == (0, 1)) || ((a, b) == (2, 3)),
                "bad pair ({a},{b})"
            );
        }
    }

    #[test]
    fn matching_handles_odd_counts() {
        let t = terms(&[(0, 0), (10, 0), (20, 0), (30, 0), (40, 0)]);
        let topo = Topology::matching(&t);
        assert_eq!(topo.len(), 9);
        assert!(topo.validate(5).is_ok());
    }

    #[test]
    fn bisection_is_balanced() {
        let t: Vec<Terminal> = (0..16)
            .map(|i| Terminal::new(Point::new(i * 10, 0), 1.0))
            .collect();
        let topo = Topology::bisection(&t);
        assert!(topo.validate(16).is_ok());
        // Depth of a balanced 16-leaf tree is 4; count max depth.
        let mut depth = vec![0usize; topo.len()];
        for (i, n) in topo.nodes().iter().enumerate() {
            if let Some((a, b)) = n.children {
                depth[i] = 1 + depth[a as usize].max(depth[b as usize]);
            }
        }
        assert_eq!(depth[topo.root() as usize], 4);
    }

    #[test]
    fn validate_rejects_wrong_node_count() {
        let t = terms(&[(0, 0), (1, 1)]);
        let topo = Topology::matching(&t);
        assert!(topo.validate(3).is_err());
    }

    #[test]
    fn validate_rejects_zero_terminals() {
        let topo = Topology::matching(&terms(&[(5, 5)]));
        assert_eq!(
            topo.validate(0),
            Err("a topology needs at least one terminal".to_owned())
        );
    }

    #[test]
    #[should_panic(expected = "at least one terminal")]
    fn empty_terminals_panic() {
        let _ = Topology::matching(&[]);
    }
}
