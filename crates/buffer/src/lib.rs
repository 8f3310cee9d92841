//! Classic van Ginneken buffer insertion (single side).
//!
//! The paper's concurrent buffer-and-nTSV dynamic program (§III-C) extends
//! van Ginneken's 1990 algorithm (\[16\]): candidate `(capacitance, delay)`
//! solutions propagate bottom-up through the tree, merge at branch points,
//! gain buffer options along edges, and dominated candidates are pruned.
//! This crate implements that classic single-side form as a standalone
//! library, re-exported by the `dscts` facade as `dscts::vanginneken`. No
//! other crate of the workspace calls it: the H-tree baseline places its
//! buffers itself, and no test yet checks the core DP against it.
//!
//! # Example
//!
//! ```
//! use dscts_buffer::{VgTree, insert_buffers};
//! use dscts_tech::BufferModel;
//!
//! // A 400 µm line with a heavy sink: buffering must pay off.
//! let buf = BufferModel::asap7_bufx4();
//! let mut tree = VgTree::new();
//! let rc = (0.024222e-3, 0.12918e-3);
//! let mut cur = VgTree::ROOT;
//! for _ in 0..8 {
//!     cur = tree.add_wire(cur, rc.0 * 50_000.0, rc.1 * 50_000.0);
//! }
//! tree.set_sink(cur, 30.0);
//! let unbuffered = insert_buffers(&tree, &buf, f64::INFINITY, 0).latency_ps;
//! let buffered = insert_buffers(&tree, &buf, f64::INFINITY, usize::MAX).latency_ps;
//! assert!(buffered < unbuffered / 2.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use dscts_geom::TreeCsr;
use dscts_tech::BufferModel;

/// Node handle within a [`VgTree`].
pub type VgNodeId = u32;

#[derive(Debug, Clone)]
struct VgNode {
    parent: Option<VgNodeId>,
    wire_res: f64,
    wire_cap: f64,
    sink_cap: f64,
}

/// A buffering problem instance: a tree of wire elements with sink loads.
///
/// Node 0 ([`VgTree::ROOT`]) is the driver output. Each added node carries
/// the wire element connecting it to its parent (L-type: resistance in
/// series, capacitance at the node).
#[derive(Debug, Clone, Default)]
pub struct VgTree {
    nodes: Vec<VgNode>,
}

impl VgTree {
    /// The driver node.
    pub const ROOT: VgNodeId = 0;

    /// Creates an instance containing only the driver node.
    pub fn new() -> Self {
        VgTree {
            nodes: vec![VgNode {
                parent: None,
                wire_res: 0.0,
                wire_cap: 0.0,
                sink_cap: 0.0,
            }],
        }
    }

    /// Appends a wire element under `parent`; returns the new node.
    ///
    /// # Panics
    ///
    /// Panics if `parent` does not exist or parasitics are negative.
    pub fn add_wire(&mut self, parent: VgNodeId, res: f64, cap: f64) -> VgNodeId {
        assert!((parent as usize) < self.nodes.len(), "unknown parent");
        assert!(res >= 0.0 && cap >= 0.0, "negative parasitics");
        self.nodes.push(VgNode {
            parent: Some(parent),
            wire_res: res,
            wire_cap: cap,
            sink_cap: 0.0,
        });
        (self.nodes.len() - 1) as VgNodeId
    }

    /// Attaches sink load at a node.
    pub fn set_sink(&mut self, node: VgNodeId, cap: f64) {
        assert!(cap >= 0.0, "negative sink cap");
        self.nodes[node as usize].sink_cap += cap;
    }

    /// Number of nodes including the driver.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if only the driver exists.
    pub fn is_empty(&self) -> bool {
        self.nodes.len() == 1
    }

    fn csr(&self) -> TreeCsr {
        TreeCsr::from_parents(self.nodes.iter().map(|n| n.parent))
    }
}

/// One non-dominated candidate during the bottom-up pass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Candidate {
    /// Capacitance presented upstream (fF).
    pub cap: f64,
    /// Worst delay from here to any downstream sink (ps).
    pub delay: f64,
    /// Buffers used downstream.
    pub buffers: u32,
}

/// Result of [`insert_buffers`].
#[derive(Debug, Clone, PartialEq)]
pub struct VgSolution {
    /// Source-to-worst-sink delay, excluding the external driver cell (ps).
    pub latency_ps: f64,
    /// Number of inserted buffers.
    pub buffer_count: u32,
    /// Capacitance presented to the driver (fF).
    pub root_cap_ff: f64,
    /// Nodes at which a buffer was placed (driving that node's subtree).
    pub buffer_nodes: Vec<VgNodeId>,
}

/// Runs van Ginneken insertion over `tree`, allowing a buffer to be placed
/// at any node (driving its subtree). Inserted buffers respect their own
/// [`BufferModel::max_load_ff`]; `max_load` bounds the capacitance the
/// **root driver** may see; `max_buffers` caps insertion count (use
/// `usize::MAX` for unlimited, `0` to forbid buffering).
///
/// Returns the minimum-latency solution at the root. If no candidate can
/// meet `max_load` at the driver, the minimum-latency infeasible solution
/// is returned instead (callers can check `root_cap_ff`).
pub fn insert_buffers(
    tree: &VgTree,
    buffer: &BufferModel,
    max_load: f64,
    max_buffers: usize,
) -> VgSolution {
    let csr = tree.csr();
    let n = tree.nodes.len();
    // Per-node candidate sets, plus back-pointers for reconstruction:
    // (buffer_here, child candidate indices aligned with `children[node]`).
    #[derive(Clone)]
    struct Tagged {
        cand: Candidate,
        buffered: bool,
        child_choice: Vec<u32>,
    }
    let mut sets: Vec<Vec<Tagged>> = vec![Vec::new(); n];

    // Bottom-up over the implicit ordering: children have larger indices
    // than parents (guaranteed by the builder), so sweep in reverse.
    for i in (0..n).rev() {
        let node = &tree.nodes[i];
        // Merge children candidate sets (cross product, then prune).
        let mut merged: Vec<Tagged> = vec![Tagged {
            cand: Candidate {
                cap: node.sink_cap,
                delay: 0.0,
                buffers: 0,
            },
            buffered: false,
            child_choice: Vec::new(),
        }];
        for &ch in csr.children(i as u32) {
            let mut next = Vec::new();
            for m in &merged {
                for (ci, c) in sets[ch as usize].iter().enumerate() {
                    let mut choice = m.child_choice.clone();
                    choice.push(ci as u32);
                    next.push(Tagged {
                        cand: Candidate {
                            cap: m.cand.cap + c.cand.cap,
                            delay: m.cand.delay.max(c.cand.delay),
                            buffers: m.cand.buffers + c.cand.buffers,
                        },
                        buffered: false,
                        child_choice: choice,
                    });
                }
            }
            merged = next;
            prune(&mut merged, |t| t.cand);
        }
        // Option: buffer at this node, driving the merged subtree.
        let mut with_buf: Vec<Tagged> = merged
            .iter()
            .filter(|m| {
                m.cand.buffers < max_buffers.min(u32::MAX as usize) as u32
                    && m.cand.cap <= buffer.max_load_ff()
            })
            .map(|m| Tagged {
                cand: Candidate {
                    cap: buffer.input_cap_ff(),
                    delay: m.cand.delay + buffer.delay_ps(m.cand.cap),
                    buffers: m.cand.buffers + 1,
                },
                buffered: true,
                child_choice: m.child_choice.clone(),
            })
            .collect();
        merged.append(&mut with_buf);
        // Wire element toward the parent.
        for t in &mut merged {
            t.cand.cap += node.wire_cap;
            t.cand.delay += node.wire_res * t.cand.cap;
        }
        prune(&mut merged, |t| t.cand);
        sets[i] = merged;
    }

    // Pick min latency among root candidates that respect the driver limit.
    let root_set = &sets[0];
    let best_idx = root_set
        .iter()
        .enumerate()
        .filter(|(_, t)| t.cand.cap <= max_load)
        .min_by(|a, b| a.1.cand.delay.total_cmp(&b.1.cand.delay))
        .map(|(i, _)| i)
        .unwrap_or_else(|| {
            root_set
                .iter()
                .enumerate()
                .min_by(|a, b| a.1.cand.delay.total_cmp(&b.1.cand.delay))
                .map(|(i, _)| i)
                .expect("root always has candidates")
        });

    // Top-down reconstruction of buffer placements.
    let mut buffer_nodes = Vec::new();
    let mut stack = vec![(0usize, best_idx)];
    while let Some((node, idx)) = stack.pop() {
        let t = &sets[node][idx];
        if t.buffered {
            buffer_nodes.push(node as VgNodeId);
        }
        for (k, &ch) in csr.children(node as u32).iter().enumerate() {
            stack.push((ch as usize, t.child_choice[k] as usize));
        }
    }
    buffer_nodes.sort_unstable();

    let best = &sets[0][best_idx];
    VgSolution {
        latency_ps: best.cand.delay,
        buffer_count: best.cand.buffers,
        root_cap_ff: best.cand.cap,
        buffer_nodes,
    }
}

/// Dominance pruning on `(cap, delay)` with buffer count as tie-breaker:
/// keeps the lower-left staircase.
fn prune<T>(cands: &mut Vec<T>, key: impl Fn(&T) -> Candidate) {
    if cands.len() <= 1 {
        return;
    }
    let mut idx: Vec<usize> = (0..cands.len()).collect();
    idx.sort_by(|&a, &b| {
        let (ka, kb) = (key(&cands[a]), key(&cands[b]));
        ka.cap
            .total_cmp(&kb.cap)
            .then(ka.delay.total_cmp(&kb.delay))
            .then(ka.buffers.cmp(&kb.buffers))
    });
    let mut keep = vec![false; cands.len()];
    let mut best_delay = f64::INFINITY;
    let mut best_bufs = u32::MAX;
    for &i in &idx {
        let k = key(&cands[i]);
        if k.delay < best_delay - 1e-12 || (k.delay <= best_delay + 1e-12 && k.buffers < best_bufs)
        {
            keep[i] = true;
            if k.delay < best_delay {
                best_delay = k.delay;
            }
            best_bufs = best_bufs.min(k.buffers);
        }
    }
    let mut j = 0;
    cands.retain(|_| {
        let k = keep[j];
        j += 1;
        k
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m3() -> (f64, f64) {
        (0.024222e-3, 0.12918e-3)
    }

    fn line(segments: usize, seg_nm: f64, sink: f64) -> VgTree {
        let (r, c) = m3();
        let mut t = VgTree::new();
        let mut cur = VgTree::ROOT;
        for _ in 0..segments {
            cur = t.add_wire(cur, r * seg_nm, c * seg_nm);
        }
        t.set_sink(cur, sink);
        t
    }

    #[test]
    fn no_buffers_equals_plain_elmore() {
        let t = line(4, 25_000.0, 10.0);
        let sol = insert_buffers(&t, &BufferModel::asap7_bufx4(), f64::INFINITY, 0);
        assert_eq!(sol.buffer_count, 0);
        // Hand Elmore: 4 segments of 25 µm.
        let (r, c) = m3();
        let (rs, cs) = (r * 25_000.0, c * 25_000.0);
        let mut cap = 10.0;
        let mut d = 0.0;
        for _ in 0..4 {
            cap += cs;
            d += rs * cap;
        }
        assert!((sol.latency_ps - d).abs() < 1e-9);
    }

    #[test]
    fn buffering_long_line_helps() {
        let t = line(10, 50_000.0, 30.0);
        let buf = BufferModel::asap7_bufx4();
        let none = insert_buffers(&t, &buf, f64::INFINITY, 0);
        let some = insert_buffers(&t, &buf, f64::INFINITY, usize::MAX);
        assert!(some.buffer_count >= 2);
        assert!(some.latency_ps < none.latency_ps / 2.0);
    }

    #[test]
    fn buffer_budget_is_respected() {
        let t = line(10, 50_000.0, 30.0);
        let buf = BufferModel::asap7_bufx4();
        let sol = insert_buffers(&t, &buf, f64::INFINITY, 1);
        assert!(sol.buffer_count <= 1);
    }

    #[test]
    fn max_load_forces_shielding() {
        // 60 fF of sinks at the end of a branch; driver limit 30 fF means a
        // buffer *must* shield.
        let t = line(2, 10_000.0, 60.0);
        let buf = BufferModel::asap7_bufx4();
        let sol = insert_buffers(&t, &buf, 30.0, usize::MAX);
        assert!(sol.buffer_count >= 1);
        assert!(sol.root_cap_ff <= 30.0);
    }

    #[test]
    fn branch_merge_takes_worst_delay() {
        let (r, c) = m3();
        let mut t = VgTree::new();
        let near = t.add_wire(VgTree::ROOT, r * 5_000.0, c * 5_000.0);
        t.set_sink(near, 2.0);
        let far1 = t.add_wire(VgTree::ROOT, r * 80_000.0, c * 80_000.0);
        let far2 = t.add_wire(far1, r * 80_000.0, c * 80_000.0);
        t.set_sink(far2, 2.0);
        let sol = insert_buffers(&t, &BufferModel::asap7_bufx4(), f64::INFINITY, 0);
        // Latency is governed by the far sink.
        let direct = {
            let mut cap = 2.0;
            let mut d = 0.0;
            for _ in 0..2 {
                cap += c * 80_000.0;
                d += r * 80_000.0 * cap;
            }
            d
        };
        assert!(sol.latency_ps >= direct - 1e-9);
    }

    #[test]
    fn buffer_nodes_reconstruction_is_consistent() {
        let t = line(10, 50_000.0, 30.0);
        let buf = BufferModel::asap7_bufx4();
        let sol = insert_buffers(&t, &buf, f64::INFINITY, usize::MAX);
        assert_eq!(sol.buffer_nodes.len(), sol.buffer_count as usize);
        for &n in &sol.buffer_nodes {
            assert!((n as usize) < t.len());
        }
    }

    #[test]
    fn pruning_keeps_min_delay() {
        let mut cands = vec![
            Candidate {
                cap: 10.0,
                delay: 5.0,
                buffers: 1,
            },
            Candidate {
                cap: 5.0,
                delay: 9.0,
                buffers: 0,
            },
            Candidate {
                cap: 12.0,
                delay: 6.0,
                buffers: 0,
            }, // dominated by first
            Candidate {
                cap: 3.0,
                delay: 20.0,
                buffers: 0,
            },
        ];
        prune(&mut cands, |c| *c);
        assert!(cands.iter().any(|c| (c.delay - 5.0).abs() < 1e-12));
        assert!(!cands
            .iter()
            .any(|c| (c.cap - 12.0).abs() < 1e-12 && (c.delay - 6.0).abs() < 1e-12));
    }
}
