use crate::{wire_slew, LN9};

/// Opaque handle to a node of an [`RcTree`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub(crate) u32);

impl NodeId {
    /// Index form, for use with external side tables.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

#[derive(Debug, Clone)]
struct Node {
    parent: Option<NodeId>,
    res_from_parent: f64,
    cap: f64,
}

/// An arena-based RC tree rooted at a driver output.
///
/// Nodes are added in topological order (parent before child), which lets
/// every analysis pass run as two linear sweeps. Caps are lumped at nodes;
/// each edge carries the series resistance from the parent — the L-type
/// Elmore convention of §II-B.
///
/// ```
/// use dscts_timing::RcTree;
/// let mut t = RcTree::new(0.0);
/// let a = t.add_node(t.root(), 2.0, 3.0);
/// let b = t.add_node(a, 1.0, 5.0);
/// // delay(b) = 2·(3+5) + 1·5 = 21
/// let d = t.elmore();
/// assert_eq!(d[b.index()], 21.0);
/// ```
#[derive(Debug, Clone)]
pub struct RcTree {
    nodes: Vec<Node>,
}

impl RcTree {
    /// Creates a tree whose root (the driver output node) carries `root_cap`.
    pub fn new(root_cap: f64) -> Self {
        RcTree {
            nodes: vec![Node {
                parent: None,
                res_from_parent: 0.0,
                cap: root_cap,
            }],
        }
    }

    /// The root node (driver output).
    pub fn root(&self) -> NodeId {
        NodeId(0)
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the tree has only its root.
    pub fn is_empty(&self) -> bool {
        self.nodes.len() == 1
    }

    /// Adds a node under `parent` connected through `res` (kΩ) and carrying
    /// `cap` (fF). Returns its id.
    ///
    /// # Panics
    ///
    /// Panics if `parent` is not a node of this tree or `res`/`cap` are
    /// negative.
    pub fn add_node(&mut self, parent: NodeId, res: f64, cap: f64) -> NodeId {
        assert!(
            (parent.0 as usize) < self.nodes.len(),
            "parent must belong to this tree"
        );
        assert!(res >= 0.0 && cap >= 0.0, "parasitics must be non-negative");
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node {
            parent: Some(parent),
            res_from_parent: res,
            cap,
        });
        id
    }

    /// Adds extra capacitance to an existing node (e.g. a fanout pin).
    pub fn add_cap(&mut self, node: NodeId, cap: f64) {
        assert!(cap >= 0.0, "capacitance must be non-negative");
        self.nodes[node.0 as usize].cap += cap;
    }

    /// Parent of `node` (`None` for the root).
    pub fn parent(&self, node: NodeId) -> Option<NodeId> {
        self.nodes[node.0 as usize].parent
    }

    /// Total capacitance hanging at or below each node; `[0]` is the load
    /// the driver sees.
    pub fn downstream_cap(&self) -> Vec<f64> {
        let mut caps: Vec<f64> = self.nodes.iter().map(|n| n.cap).collect();
        for i in (1..self.nodes.len()).rev() {
            let p = self.nodes[i].parent.expect("non-root has parent").0 as usize;
            caps[p] += caps[i];
        }
        caps
    }

    /// Total capacitance presented to the driver.
    pub fn total_cap(&self) -> f64 {
        self.downstream_cap()[0]
    }

    /// L-type Elmore delay from the root to every node (ps).
    pub fn elmore(&self) -> Vec<f64> {
        let caps = self.downstream_cap();
        let mut delay = vec![0.0; self.nodes.len()];
        for i in 1..self.nodes.len() {
            let n = &self.nodes[i];
            let p = n.parent.expect("non-root has parent").0 as usize;
            delay[i] = delay[p] + n.res_from_parent * caps[i];
        }
        delay
    }

    /// PERI slew at every node given the driver's output slew (ps).
    ///
    /// Each node's transition is the composition of the driver edge with the
    /// `ln 9 ×` Elmore ramp of the wire path to that node.
    pub fn slews(&self, driver_slew: f64) -> Vec<f64> {
        let mut out = self.elmore();
        for d in &mut out {
            *d = wire_slew(driver_slew, *d);
        }
        out
    }

    /// The wire's own 10–90 % ramp at a node (no driver edge),
    /// `ln 9 · elmore`. Computes the full Elmore vector, so for repeated
    /// queries compute [`RcTree::elmore`] once and scale by `ln 9`.
    pub fn wire_ramp(&self, node: NodeId) -> f64 {
        LN9 * self.elmore()[node.0 as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_node_tree() {
        let t = RcTree::new(4.0);
        assert_eq!(t.len(), 1);
        assert!(t.is_empty());
        assert_eq!(t.total_cap(), 4.0);
        assert_eq!(t.elmore(), vec![0.0]);
    }

    #[test]
    fn branching_tree_downstream_caps() {
        let mut t = RcTree::new(1.0);
        let a = t.add_node(t.root(), 1.0, 2.0);
        let _b = t.add_node(a, 1.0, 3.0);
        let _c = t.add_node(a, 1.0, 4.0);
        let caps = t.downstream_cap();
        assert_eq!(caps[0], 10.0);
        assert_eq!(caps[a.index()], 9.0);
    }

    #[test]
    fn elmore_matches_hand_computation() {
        // root -(R=2)- a(C=3) -(R=1)- b(C=5)
        //                \---(R=4)--- c(C=1)
        let mut t = RcTree::new(0.0);
        let a = t.add_node(t.root(), 2.0, 3.0);
        let b = t.add_node(a, 1.0, 5.0);
        let c = t.add_node(a, 4.0, 1.0);
        let d = t.elmore();
        assert_eq!(d[a.index()], 2.0 * 9.0);
        assert_eq!(d[b.index()], 18.0 + 1.0 * 5.0);
        assert_eq!(d[c.index()], 18.0 + 4.0 * 1.0);
    }

    #[test]
    fn add_cap_increases_upstream_delay_only() {
        let mut t = RcTree::new(0.0);
        let a = t.add_node(t.root(), 2.0, 1.0);
        let b = t.add_node(a, 3.0, 1.0);
        let before = t.elmore();
        t.add_cap(b, 10.0);
        let after = t.elmore();
        assert!(after[a.index()] > before[a.index()]);
        assert!(after[b.index()] > before[b.index()]);
        assert_eq!(t.total_cap(), 12.0);
    }

    #[test]
    fn slews_compose_monotonically() {
        let mut t = RcTree::new(0.0);
        let a = t.add_node(t.root(), 5.0, 10.0);
        let s = t.slews(10.0);
        assert_eq!(s[0], 10.0);
        assert!(s[a.index()] > 10.0);
        assert!((t.wire_ramp(a) - LN9 * 50.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn rejects_negative_resistance() {
        let mut t = RcTree::new(0.0);
        let _ = t.add_node(t.root(), -1.0, 0.0);
    }

    #[test]
    fn equivalence_with_chain_delay() {
        use crate::chain::{chain_delay, Element};
        let elems = [
            Element::new(0.5, 1.0),
            Element::new(2.0, 0.2),
            Element::new(0.1, 3.0),
        ];
        let load = 4.0;
        let (cd, cc) = chain_delay(&elems, load);
        let mut t = RcTree::new(0.0);
        let mut cur = t.root();
        for e in elems {
            cur = t.add_node(cur, e.res, e.cap);
        }
        t.add_cap(cur, load);
        assert!((t.elmore()[cur.index()] - cd).abs() < 1e-12);
        assert!((t.total_cap() - cc).abs() < 1e-12);
    }
}
