//! Incremental (dirty-path) evaluation of a synthesized clock tree, under
//! one technology or K PVT corners.
//!
//! [`SynthesizedTree::evaluate`] walks the whole tree twice per call;
//! the post-CTS optimization loops (buffer sizing, end-point refinement,
//! DSE) call it once per *trial move*, making them O(moves × n). This
//! module keeps the full evaluation state resident and repairs only what a
//! mutation dirties, the standard trick of incremental timing engines:
//!
//! * **caps travel up, arrivals travel down.** Changing the knob of edge
//!   `e` (buffer scale, pattern, or the star buffer at its sink end)
//!   changes the capacitance `e` presents upstream; that propagates along
//!   the *ancestor path* only, and stops early at the first edge whose
//!   presented cap is unchanged — in practice the first shielding buffer.
//!   Arrival times change only below the topmost node whose load changed,
//!   so they are re-propagated over that *subtree* only. Total cost per
//!   mutation: O(depth + dirty subtree) instead of O(n).
//! * **bit-identical state invariant.** After every successful mutation,
//!   `cap`, `up_cap`, `arr`, `slew`, the per-star bases and the per-sink
//!   arrivals are bit-identical (as `f64`s) to what a from-scratch
//!   [`SynthesizedTree::evaluate`] of the mutated tree would compute: all
//!   repairs re-run the *same* arithmetic in the *same* order as the batch
//!   evaluator (shared helpers in `synth`), and early termination happens
//!   only when a recomputed value compares equal to the stored one. The
//!   property suite `incremental_matches_batch` enforces this for both
//!   [`EvalModel`]s under arbitrary interleaved mutations and undos.
//! * **journaled undo.** Every overwritten value is recorded in an undo
//!   journal. [`IncrementalEval::undo`] reverts the last mutation,
//!   [`IncrementalEval::mark`]/[`IncrementalEval::undo_to`] revert a group
//!   of mutations (e.g. one refinement round), and
//!   [`IncrementalEval::commit`] forgets history once a move is accepted.
//!   A mutation that would make any pattern electrically infeasible
//!   rolls itself back and returns `false`, leaving the state untouched —
//!   trial moves need no feasibility pre-probe.
//!
//! The evaluator borrows the tree mutably and writes accepted knob changes
//! (`buffer_scales`, `star_buffers`, `patterns`) through to it, so when the
//! evaluator is dropped the tree is already in its optimized state.
//!
//! # Corners
//!
//! All per-technology state and the repair arithmetic live in the
//! crate-internal `CornerState`. An evaluator holds one per corner over
//! the same tree: [`IncrementalEval::new`] times one technology (K = 1),
//! [`IncrementalEval::with_corners`] every corner of a [`CornerSet`]. A
//! mutation writes the knob once and repairs every corner's own dirty
//! path (early stops differ per corner because shielding is electrical);
//! it succeeds only if every corner stays feasible. Large trees repair
//! their corners in parallel ([`IncrementalEval::with_parallel`]),
//! bit-identically to the serial loop.
//!
//! Each corner journals into its own `Vec`. A mutation pushes one undo
//! record — the knob's old value — plus every corner's journal length
//! before the mutation; [`IncrementalEval::mark`] is the record count,
//! and [`IncrementalEval::undo_to`] truncates each corner's journal back
//! to the lengths recorded at the mark, reverting entries newest first.
//!
//! What the optimization passes ([`crate::opt`]) score with is the
//! *objective view* — [`IncrementalEval::latency_skew_ps`],
//! [`IncrementalEval::star_earliest`], [`IncrementalEval::star_load`],
//! [`IncrementalEval::load_at`], [`IncrementalEval::tech`] and
//! [`IncrementalEval::metrics`] — which reports according to the
//! evaluator's [`RobustObjective`]. At K = 1 that is the one corner, so
//! the same pass optimizes nominal or worst-corner MOES without changing
//! a line.

use crate::error::CtsError;
use crate::mcmm::{RobustMetrics, RobustObjective};
use crate::pattern::{Pattern, PatternEval};
use crate::resilience::{fault, CancelToken};
use crate::synth::{resources, star_loads, EvalModel, SynthesizedTree, TreeMetrics};
use dscts_geom::TreeCsr;
use dscts_tech::{CornerSet, Side, Technology};
use dscts_timing::{wire_slew, ArrivalStats};
use rayon::prelude::*;
use std::cell::Cell;

/// Minimum trunk-node count before the auto gate turns the corner-parallel
/// fan-out on. Below this, a per-corner dirty path is microseconds and the
/// shim's per-call thread spawn would dominate (the C1–C5 trunks are ~1k
/// nodes); above it — the 100k+-sink scaled designs — the per-corner
/// repair work amortizes the spawn.
const PAR_FANOUT_MIN_NODES: usize = 10_000;

/// One overwritten value of a corner's evaluation state, recorded for
/// rollback.
#[derive(Debug, Clone, Copy)]
enum Entry {
    /// `cap[node]` previous value.
    Cap(u32, f64),
    /// `up_cap[node]` previous value.
    UpCap(u32, f64),
    /// `arr[node]` previous value.
    Arr(u32, f64),
    /// `slew[node]` previous value.
    Slew(u32, f64),
    /// `(star_base, star_base_slew)[si]` previous values.
    StarBase(u32, f64, f64),
    /// `arrivals[sink]` previous value.
    SinkArr(u32, f64),
}

/// The previous value of the tree knob one mutation overwrote.
#[derive(Debug, Clone, Copy)]
enum Knob {
    /// `buffer_scales[edge]`.
    Scale(u32, f64),
    /// `patterns[edge]`.
    Pattern(u32, Option<Pattern>),
    /// `star_buffers[si]`.
    StarBuffer(u32, bool),
}

/// The resident evaluation state of one tree under one technology: the
/// per-topology constants, every quantity the dirty-path repairs
/// maintain, and the journal of values they overwrote. Owns no tree
/// borrow; [`IncrementalEval`] holds one per corner over the same tree.
///
/// Repair methods never roll themselves back: on infeasibility they
/// return `false`/`None` with their journal entries in place, and the
/// owning evaluator reverts the knob and every corner it touched.
#[derive(Debug, Clone)]
struct CornerState {
    /// Per-star unshielded load (wire + sink pins): constant per topology.
    star_load: Vec<f64>,
    /// Per-sink star-branch Elmore delay: constant per topology.
    branch_d: Vec<f64>,
    /// Per-star min/max of `branch_d` over its sinks (−∞ max for an empty
    /// star): constant per topology.
    star_min_d: Vec<f64>,
    star_max_d: Vec<f64>,
    /// Downstream capacitance at each trunk node (the load at the sink end
    /// of its incoming edge).
    cap: Vec<f64>,
    /// Capacitance each trunk node's incoming edge presents to its parent
    /// (undefined for node 0).
    up_cap: Vec<f64>,
    /// Arrival time at each trunk node.
    arr: Vec<f64>,
    /// Transition time at each trunk node.
    slew: Vec<f64>,
    /// Per-star arrival/slew at the star root, after the optional
    /// refinement buffer.
    star_base: Vec<f64>,
    star_base_slew: Vec<f64>,
    /// Per-sink arrival times (the batch evaluator's `arrivals` vector).
    arrivals: Vec<f64>,
    /// Every value overwritten since the last commit, oldest first.
    journal: Vec<Entry>,
    /// Grow-only DFS stack reused by every arrival re-propagation, so a
    /// trial move performs no per-move heap allocation once the stack has
    /// reached its high-water mark (asserted by `no_alloc_hot_loop`).
    arrival_scratch: Vec<u32>,
}

impl CornerState {
    /// Builds the constants and the bottom-up caps with one
    /// batch-equivalent pass, then propagates arrivals over the whole
    /// tree.
    ///
    /// Returns [`CtsError::NoFeasiblePattern`] for the first edge (in the
    /// batch evaluator's order) that is electrically infeasible under
    /// `tech` — exactly what [`SynthesizedTree::try_evaluate`] reports.
    ///
    /// # Panics
    ///
    /// Panics if any edge lacks a pattern.
    fn try_new(
        tree: &SynthesizedTree,
        tech: &Technology,
        model: EvalModel,
        csr: &TreeCsr,
    ) -> Result<Self, CtsError> {
        let topo = &tree.topo;
        let n = topo.nodes.len();
        let rc_front = tech.rc(Side::Front);
        let star_load = star_loads(topo, tech);

        // Constant star-branch delays and their per-star extremes.
        let mut branch_d = vec![0.0f64; topo.sink_pos.len()];
        let mut star_min_d = vec![f64::INFINITY; topo.stars.len()];
        let mut star_max_d = vec![f64::NEG_INFINITY; topo.stars.len()];
        for (si, s) in topo.stars.iter().enumerate() {
            for (&sk, &len) in s.sinks.iter().zip(&s.branch_len) {
                let d = rc_front.res(len) * (rc_front.cap(len) + topo.sink_cap[sk as usize]);
                branch_d[sk as usize] = d;
                star_min_d[si] = star_min_d[si].min(d);
                star_max_d[si] = star_max_d[si].max(d);
            }
        }

        // Bottom-up caps: same arithmetic and order as the batch pass.
        let mut cap = vec![0.0f64; n];
        let mut up_cap = vec![0.0f64; n];
        let buf = tech.buffer();
        for &v in csr.order().iter().rev() {
            let vu = v as usize;
            if let Some(si) = topo.nodes[vu].star {
                cap[vu] += if tree.star_buffers[si as usize] {
                    buf.input_cap_ff()
                } else {
                    star_load[si as usize]
                };
            }
            for &c in csr.children(v) {
                let cu = c as usize;
                let p = tree.patterns[cu].expect("assigned pattern");
                let ev = p
                    .eval_scaled(
                        topo.nodes[cu].edge_len,
                        cap[cu],
                        tech,
                        tree.buffer_scales[cu],
                    )
                    .ok_or(CtsError::NoFeasiblePattern {
                        node: c,
                        edge_len_nm: topo.nodes[cu].edge_len,
                    })?;
                up_cap[cu] = ev.up_cap_ff;
                cap[vu] += ev.up_cap_ff;
            }
        }

        let n_stars = topo.stars.len();
        let n_sinks = topo.sink_pos.len();
        let mut this = CornerState {
            star_load,
            branch_d,
            star_min_d,
            star_max_d,
            cap,
            up_cap,
            arr: vec![0.0; n],
            slew: vec![0.0; n],
            star_base: vec![0.0; n_stars],
            star_base_slew: vec![0.0; n_stars],
            arrivals: vec![0.0; n_sinks],
            journal: Vec::new(),
            arrival_scratch: Vec::new(),
        };
        // Top-down arrivals over the whole tree (node 0 = root driver),
        // then discard the bookkeeping journal: this is the base state.
        let ok = this.recompute_arrivals_from(tree, tech, model, csr, 0);
        // invariant: the cap pass above evaluated every edge at exactly
        // these caps and scales, so re-evaluating them cannot fail.
        assert!(ok, "cap pass vetted every edge");
        this.journal.clear();
        Ok(this)
    }

    // --- Queries ----------------------------------------------------------

    /// Earliest sink arrival within star `si`.
    fn star_earliest(&self, si: usize) -> f64 {
        self.star_base[si] + self.star_min_d[si]
    }

    /// `(latency_ps, skew_ps)` in one fold over the stars. Within a star,
    /// arrivals are `base + d` with `d ≥ 0` constant, and `x ↦ base + x`
    /// is monotone, so the per-star extremes are attained at the extreme
    /// `d`s and the fold equals the fold over all sinks.
    fn latency_skew_ps(&self) -> (f64, f64) {
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        for (si, &d) in self.star_max_d.iter().enumerate() {
            if d != f64::NEG_INFINITY {
                max = max.max(self.star_base[si] + d);
                min = min.min(self.star_base[si] + self.star_min_d[si]);
            }
        }
        (max, max - min)
    }

    /// Full metrics of the current state, bit-identical to
    /// [`SynthesizedTree::evaluate`] of the same tree under the same
    /// technology.
    fn metrics(&self, tree: &SynthesizedTree, tech: &Technology) -> TreeMetrics {
        let stats = ArrivalStats::from_arrivals(self.arrivals.iter().copied())
            .expect("designs have at least one sink");
        let res = resources(tree, tech);
        let mut max_sink_slew = 0.0f64;
        for (si, s) in tree.topo.stars.iter().enumerate() {
            for &sk in &s.sinks {
                max_sink_slew = max_sink_slew.max(wire_slew(
                    self.star_base_slew[si],
                    self.branch_d[sk as usize],
                ));
            }
        }
        TreeMetrics {
            latency_ps: stats.latency(),
            skew_ps: stats.skew(),
            buffers: res.buffers,
            ntsvs: res.ntsvs,
            wirelength_nm: tree.topo.total_wirelength(),
            trunk_wirelength_nm: tree.topo.trunk_wirelength(),
            switched_cap_ff: res.switched_cap_ff,
            cell_area_nm2: res.cell_area_nm2,
            max_sink_slew_ps: max_sink_slew,
            arrivals: self.arrivals.clone(),
        }
    }

    // --- Dirty-path propagation ------------------------------------------

    /// Electrical evaluation of the edge into `v` under the current state.
    fn eval_edge(
        &self,
        tree: &SynthesizedTree,
        tech: &Technology,
        v: usize,
    ) -> Option<PatternEval> {
        let p = tree.patterns[v].expect("assigned pattern");
        p.eval_scaled(
            tree.topo.nodes[v].edge_len,
            self.cap[v],
            tech,
            tree.buffer_scales[v],
        )
    }

    /// Recomputes the downstream cap of `v` from its star contribution and
    /// its children's `up_cap`s, in the batch evaluator's summation order.
    fn node_cap(&self, tree: &SynthesizedTree, tech: &Technology, csr: &TreeCsr, v: usize) -> f64 {
        let topo = &tree.topo;
        let buf = tech.buffer();
        let mut cap = 0.0f64;
        if let Some(si) = topo.nodes[v].star {
            cap += if tree.star_buffers[si as usize] {
                buf.input_cap_ff()
            } else {
                self.star_load[si as usize]
            };
        }
        for &c in csr.children(v as u32) {
            cap += self.up_cap[c as usize];
        }
        cap
    }

    /// After a knob change on the edge into `edge` (its downstream cap is
    /// unchanged): refresh its presented cap, push the change up the
    /// ancestor path, and re-propagate the dirty subtree's arrivals.
    /// Returns `false` — with the journal entries in place for the owner
    /// to revert — when the path becomes infeasible.
    fn repropagate_edge(
        &mut self,
        tree: &SynthesizedTree,
        tech: &Technology,
        model: EvalModel,
        csr: &TreeCsr,
        edge: usize,
    ) -> bool {
        let Some(ev) = self.eval_edge(tree, tech, edge) else {
            return false;
        };
        let mut top = edge;
        if ev.up_cap_ff != self.up_cap[edge] {
            self.journal
                .push(Entry::UpCap(edge as u32, self.up_cap[edge]));
            self.up_cap[edge] = ev.up_cap_ff;
            let p = tree.topo.nodes[edge].parent.expect("non-root") as usize;
            let new_cap = self.node_cap(tree, tech, csr, p);
            if new_cap != self.cap[p] {
                self.journal.push(Entry::Cap(p as u32, self.cap[p]));
                self.cap[p] = new_cap;
                top = p;
                if p != 0 {
                    match self.propagate_caps_up(tree, tech, csr, p) {
                        Some(t) => top = t,
                        None => return false,
                    }
                }
            }
        }
        self.recompute_arrivals_from(tree, tech, model, csr, top)
    }

    /// The state half of a star-buffer toggle (the knob was already
    /// written to the tree): refresh the star root's cap and either
    /// re-time the star alone (cap bit-unchanged) or push the cap change
    /// up and re-propagate the dirty subtree. Returns `false` — journal
    /// entries left for the owner to revert — on infeasibility.
    fn apply_star_toggle(
        &mut self,
        tree: &SynthesizedTree,
        tech: &Technology,
        model: EvalModel,
        csr: &TreeCsr,
        si: usize,
    ) -> bool {
        let v = tree.topo.stars[si].node as usize;
        let new_cap = self.node_cap(tree, tech, csr, v);
        if new_cap == self.cap[v] {
            // Load at the star root is (bit-)unchanged, so no trunk state
            // moves — but the star's own stage delay did change.
            self.recompute_star(tree, tech, model, si);
            return true;
        }
        self.journal.push(Entry::Cap(v as u32, self.cap[v]));
        self.cap[v] = new_cap;
        let top = if v == 0 {
            0
        } else {
            match self.propagate_caps_up(tree, tech, csr, v) {
                Some(top) => top,
                None => return false,
            }
        };
        self.recompute_arrivals_from(tree, tech, model, csr, top)
    }

    /// `cap[start]` just changed (`start` ≠ 0): walk the ancestor path,
    /// refreshing each edge's presented cap, until a presented cap (or an
    /// aggregated node cap) is bit-unchanged — typically at the first
    /// shielding buffer — or the root is reached. Returns the topmost node
    /// whose downstream cap changed (the arrival-recompute root), or
    /// `None` when an edge on the path becomes infeasible (caller reverts
    /// through the journal).
    fn propagate_caps_up(
        &mut self,
        tree: &SynthesizedTree,
        tech: &Technology,
        csr: &TreeCsr,
        start: usize,
    ) -> Option<usize> {
        let mut top = start;
        let mut v = start;
        while v != 0 {
            let ev = self.eval_edge(tree, tech, v)?;
            if ev.up_cap_ff == self.up_cap[v] {
                break;
            }
            self.journal.push(Entry::UpCap(v as u32, self.up_cap[v]));
            self.up_cap[v] = ev.up_cap_ff;
            let p = tree.topo.nodes[v].parent.expect("non-root") as usize;
            let new_cap = self.node_cap(tree, tech, csr, p);
            if new_cap == self.cap[p] {
                break;
            }
            self.journal.push(Entry::Cap(p as u32, self.cap[p]));
            self.cap[p] = new_cap;
            top = p;
            v = p;
        }
        Some(top)
    }

    /// Re-propagates arrivals and slews over the subtree rooted at `top`
    /// (whose own incoming-edge delay is dirty; `top == 0` re-times the
    /// root driver and therefore the whole tree), refreshing every star
    /// stage it passes. Returns `false` — journal entries left for the
    /// owner to revert — if an edge in the subtree is infeasible (only
    /// possible for edges whose caps changed, which the cap pass already
    /// vetted — kept defensive).
    fn recompute_arrivals_from(
        &mut self,
        tree: &SynthesizedTree,
        tech: &Technology,
        model: EvalModel,
        csr: &TreeCsr,
        top: usize,
    ) -> bool {
        let buf = tech.buffer();
        // Grow-only reuse: the stack is taken out of `self` for the
        // traversal (it cannot live in `self` while `self` is mutably
        // borrowed below) and put back — including on the infeasible exit —
        // so steady-state trial moves never touch the allocator.
        let mut stack = std::mem::take(&mut self.arrival_scratch);
        stack.clear();
        stack.push(top as u32);
        let mut ok = true;
        while let Some(v) = stack.pop() {
            let vu = v as usize;
            let computed = if vu == 0 {
                let nominal = buf.nominal_slew_ps();
                let a = match model {
                    EvalModel::Elmore => buf.delay_ps(self.cap[0]),
                    EvalModel::Nldm => buf.delay_nldm_ps(nominal, self.cap[0]),
                };
                Some((a, buf.output_slew_ps(nominal, self.cap[0])))
            } else {
                self.eval_edge(tree, tech, vu).map(|ev| {
                    let p = tree.topo.nodes[vu].parent.expect("non-root") as usize;
                    match (model, ev.stage) {
                        (EvalModel::Elmore, _) | (EvalModel::Nldm, None) => (
                            self.arr[p] + ev.delay_ps,
                            wire_slew(self.slew[p], ev.delay_ps),
                        ),
                        (EvalModel::Nldm, Some(st)) => {
                            let slew_in = wire_slew(self.slew[p], st.pre_delay_ps);
                            let d_buf = buf.delay_nldm_ps(slew_in, st.load_ff);
                            (
                                self.arr[p] + st.pre_delay_ps + d_buf + st.post_delay_ps,
                                wire_slew(
                                    buf.output_slew_ps(slew_in, st.load_ff),
                                    st.post_delay_ps,
                                ),
                            )
                        }
                    }
                })
            };
            let Some((new_arr, new_slew)) = computed else {
                ok = false;
                break;
            };
            self.journal.push(Entry::Arr(v, self.arr[vu]));
            self.arr[vu] = new_arr;
            self.journal.push(Entry::Slew(v, self.slew[vu]));
            self.slew[vu] = new_slew;
            if let Some(si) = tree.topo.nodes[vu].star {
                self.recompute_star(tree, tech, model, si as usize);
            }
            stack.extend_from_slice(csr.children(v));
        }
        self.arrival_scratch = stack;
        ok
    }

    /// Refreshes star `si`'s base arrival/slew (through the optional
    /// refinement buffer) and its sinks' arrivals, mirroring the batch
    /// evaluator's sink stage exactly.
    fn recompute_star(
        &mut self,
        tree: &SynthesizedTree,
        tech: &Technology,
        model: EvalModel,
        si: usize,
    ) {
        let v = tree.topo.stars[si].node as usize;
        let buf = tech.buffer();
        let mut base = self.arr[v];
        let mut base_slew = self.slew[v];
        if tree.star_buffers[si] {
            let slew_in = self.slew[v];
            base += match model {
                EvalModel::Elmore => buf.delay_ps(self.star_load[si]),
                EvalModel::Nldm => buf.delay_nldm_ps(slew_in, self.star_load[si]),
            };
            base_slew = buf.output_slew_ps(slew_in, self.star_load[si]);
        }
        self.journal.push(Entry::StarBase(
            si as u32,
            self.star_base[si],
            self.star_base_slew[si],
        ));
        self.star_base[si] = base;
        self.star_base_slew[si] = base_slew;
        for &sk in &tree.topo.stars[si].sinks {
            let sku = sk as usize;
            self.journal.push(Entry::SinkArr(sk, self.arrivals[sku]));
            self.arrivals[sku] = base + self.branch_d[sku];
        }
    }

    /// Reverts every journaled value past `len`, newest first.
    fn rollback(&mut self, len: usize) {
        while self.journal.len() > len {
            match self.journal.pop().expect("journal longer than len") {
                Entry::Cap(v, old) => self.cap[v as usize] = old,
                Entry::UpCap(v, old) => self.up_cap[v as usize] = old,
                Entry::Arr(v, old) => self.arr[v as usize] = old,
                Entry::Slew(v, old) => self.slew[v as usize] = old,
                Entry::StarBase(si, base, slew) => {
                    self.star_base[si as usize] = base;
                    self.star_base_slew[si as usize] = slew;
                }
                Entry::SinkArr(sk, old) => self.arrivals[sk as usize] = old,
            }
        }
    }
}

/// Incremental evaluator over a [`SynthesizedTree`] under K ≥ 1 corners.
/// See the module docs for the dirty-path invariants and the journal.
#[derive(Debug)]
pub struct IncrementalEval<'a> {
    tree: &'a mut SynthesizedTree,
    /// One technology per corner, in corner order.
    techs: &'a [Technology],
    /// Index of the nominal corner in `techs`.
    nominal: usize,
    model: EvalModel,
    objective: RobustObjective,
    /// Flat trunk adjacency (cloned from the topology's cache so the tree
    /// can stay mutably borrowed), shared by every corner state.
    csr: TreeCsr,
    /// One resident evaluation state per corner, in corner order.
    states: Vec<CornerState>,
    /// One undo record per mutation since the last commit: the knob's
    /// previous value.
    records: Vec<Knob>,
    /// For record `r`, `corner_lens[r * K + k]` is corner `k`'s journal
    /// length before that mutation.
    corner_lens: Vec<usize>,
    /// Record count at the start of the last mutation.
    last_mark: usize,
    /// Memoized [`IncrementalEval::focus_corner`]: the worst-skew fold is
    /// O(corners × stars), and passes query the objective view once per
    /// star when ranking — without this cache a ranking sweep would be
    /// O(corners × stars²). Invalidated by every mutation and undo.
    focus: Cell<Option<usize>>,
    /// Corner-parallel fan-out control; see
    /// [`IncrementalEval::with_parallel`].
    parallel: Option<bool>,
    /// Run-budget token: once it trips, every mutation is rejected.
    cancel: Option<CancelToken>,
    /// Telemetry counter for per-corner repairs, resolved once at
    /// construction: the per-move hot path is a branch on `None` when no
    /// collector is installed — no atomic, no lock, no allocation (the
    /// bench crate's counting-allocator harness pins this).
    corner_evals: Option<dscts_telemetry::Counter>,
}

impl<'a> IncrementalEval<'a> {
    /// Builds the single-corner evaluator under `tech` with one
    /// batch-equivalent pass.
    ///
    /// # Panics
    ///
    /// Panics if any edge lacks a pattern or is electrically infeasible
    /// under the current scales (exactly like [`SynthesizedTree::evaluate`]).
    pub fn new(tree: &'a mut SynthesizedTree, tech: &'a Technology, model: EvalModel) -> Self {
        Self::build(
            tree,
            std::slice::from_ref(tech),
            0,
            model,
            RobustObjective::Nominal,
        )
        .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Builds one state per corner of `corners` (one batch-equivalent pass
    /// each), scoring the objective view through `objective`.
    ///
    /// A derated corner can overload a buffer the DP placed near its
    /// nominal max-load budget; that returns the typed
    /// [`CtsError::NoFeasiblePattern`] of the first infeasible corner, in
    /// corner order — the same error [`crate::CornerReport::try_evaluate`]
    /// reports — so callers can retry through the recovery ladder.
    ///
    /// # Panics
    ///
    /// Panics if any edge lacks a pattern.
    pub fn with_corners(
        tree: &'a mut SynthesizedTree,
        corners: &'a CornerSet,
        model: EvalModel,
        objective: RobustObjective,
    ) -> Result<Self, CtsError> {
        Self::build(
            tree,
            corners.techs(),
            corners.nominal_index(),
            model,
            objective,
        )
    }

    fn build(
        tree: &'a mut SynthesizedTree,
        techs: &'a [Technology],
        nominal: usize,
        model: EvalModel,
        objective: RobustObjective,
    ) -> Result<Self, CtsError> {
        let csr = tree.topo.csr().clone();
        let states = techs
            .iter()
            .map(|tech| CornerState::try_new(tree, tech, model, &csr))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(IncrementalEval {
            tree,
            techs,
            nominal,
            model,
            objective,
            csr,
            states,
            records: Vec::new(),
            corner_lens: Vec::new(),
            last_mark: 0,
            focus: Cell::new(None),
            parallel: None,
            cancel: None,
            corner_evals: dscts_telemetry::active().map(|t| t.counter("mcmm.corner_evals")),
        })
    }

    /// Controls the corner-parallel mutation fan-out (builder style).
    ///
    /// The K per-corner dirty-path repairs of one mutation are independent
    /// given the shared knob write, so they can run on separate threads.
    /// `Some(true)` forces the parallel path, `Some(false)` forces the
    /// serial loop, and `None` (the default) picks automatically: parallel
    /// only when there is more than one corner, more than one thread, and
    /// the trunk is at least `PAR_FANOUT_MIN_NODES` nodes (so the repair
    /// work amortizes the per-mutation thread spawn).
    ///
    /// Both paths are bit-identical at any thread count: every corner
    /// repairs into its own journal either way.
    pub fn with_parallel(mut self, parallel: Option<bool>) -> Self {
        self.parallel = parallel;
        self
    }

    /// Attaches (or clears) a run-budget token. Once it trips, every
    /// mutation is rejected — knob and all corners untouched, `false`
    /// returned — exactly like an infeasible move, so a budgeted pass
    /// winds down through its normal reject path.
    pub(crate) fn set_cancel(&mut self, token: Option<CancelToken>) {
        self.cancel = token;
    }

    /// The attached run-budget token, if any.
    pub(crate) fn cancel(&self) -> Option<&CancelToken> {
        self.cancel.as_ref()
    }

    /// Whether the next mutation will fan out in parallel.
    fn use_parallel(&self) -> bool {
        let eligible = self.states.len() > 1;
        match self.parallel {
            Some(p) => p && eligible,
            None => {
                eligible
                    && self.tree.topo.nodes.len() >= PAR_FANOUT_MIN_NODES
                    && rayon::current_num_threads() > 1
            }
        }
    }

    /// The underlying tree (knobs reflect all non-undone mutations).
    pub fn tree(&self) -> &SynthesizedTree {
        self.tree
    }

    /// The delay model every corner propagates.
    pub fn model(&self) -> EvalModel {
        self.model
    }

    /// Current drive scale of the buffer embedded in edge `edge`.
    pub fn buffer_scale(&self, edge: usize) -> f64 {
        self.tree.buffer_scales[edge]
    }

    // --- Objective view ---------------------------------------------------

    /// The corner the objective view ranks stars with: the nominal
    /// corner, or — under [`RobustObjective::WorstCorner`] — the corner
    /// currently attaining the worst skew. Memoized between mutations
    /// (see the `focus` field) so per-star objective-view queries stay
    /// O(1) after the first.
    pub fn focus_corner(&self) -> usize {
        match self.objective {
            RobustObjective::Nominal => self.nominal,
            RobustObjective::WorstCorner => {
                if let Some(k) = self.focus.get() {
                    return k;
                }
                let mut worst = 0;
                let mut worst_skew = f64::NEG_INFINITY;
                for (k, s) in self.states.iter().enumerate() {
                    let (_, skew) = s.latency_skew_ps();
                    if skew > worst_skew {
                        worst_skew = skew;
                        worst = k;
                    }
                }
                self.focus.set(Some(worst));
                worst
            }
        }
    }

    /// The technology of the focus corner.
    pub fn tech(&self) -> &Technology {
        &self.techs[self.focus_corner()]
    }

    /// `(latency_ps, skew_ps)` of the objective view in one fold: the
    /// nominal corner's, or under [`RobustObjective::WorstCorner`] the
    /// component-wise maximum over all corners (possibly attained at
    /// different corners). Trial-move inner loops score through this.
    pub fn latency_skew_ps(&self) -> (f64, f64) {
        match self.objective {
            RobustObjective::Nominal => self.states[self.nominal].latency_skew_ps(),
            RobustObjective::WorstCorner => {
                let mut lat = f64::NEG_INFINITY;
                let mut skew = f64::NEG_INFINITY;
                for s in &self.states {
                    let (l, k) = s.latency_skew_ps();
                    lat = lat.max(l);
                    skew = skew.max(k);
                }
                (lat, skew)
            }
        }
    }

    /// Latency of the objective view. At K = 1 bit-identical to
    /// [`TreeMetrics::latency_ps`]: within a star, arrivals are `base + d`
    /// with `d ≥ 0` constant, and `x ↦ base + x` is monotone, so the
    /// per-star maximum is attained at the maximal `d` and equals the fold
    /// over all sinks.
    pub fn latency_ps(&self) -> f64 {
        self.latency_skew_ps().0
    }

    /// Skew of the objective view (at K = 1 bit-identical to
    /// [`TreeMetrics::skew_ps`]).
    pub fn skew_ps(&self) -> f64 {
        self.latency_skew_ps().1
    }

    /// Downstream capacitance at trunk node `v` (what the sink end of its
    /// incoming edge drives) in the focus corner.
    pub fn load_at(&self, v: usize) -> f64 {
        self.states[self.focus_corner()].cap[v]
    }

    /// Unshielded load of star `si` (wire + sink pins) in the focus
    /// corner.
    pub fn star_load(&self, si: usize) -> f64 {
        self.states[self.focus_corner()].star_load[si]
    }

    /// Earliest sink arrival within star `si` in the focus corner.
    pub fn star_earliest(&self, si: usize) -> f64 {
        self.states[self.focus_corner()].star_earliest(si)
    }

    /// Full metrics of the nominal corner, bit-identical to
    /// [`SynthesizedTree::evaluate`] of the mutated tree under its
    /// technology — so nominal and robust schedules report like for like.
    pub fn metrics(&self) -> TreeMetrics {
        self.corner_metrics(self.nominal)
    }

    // --- Per-corner queries -----------------------------------------------

    /// Number of corners.
    pub fn corner_count(&self) -> usize {
        self.states.len()
    }

    /// `(latency_ps, skew_ps)` of corner `k`.
    pub fn corner_latency_skew_ps(&self, k: usize) -> (f64, f64) {
        self.states[k].latency_skew_ps()
    }

    /// Full metrics of corner `k`, bit-identical to
    /// [`SynthesizedTree::evaluate`] under that corner's technology.
    pub fn corner_metrics(&self, k: usize) -> TreeMetrics {
        self.states[k].metrics(self.tree, &self.techs[k])
    }

    /// The cross-corner robust summary of the current state (full
    /// per-corner metrics are folded, so this is a reporting call, not an
    /// inner-loop one).
    pub fn robust_metrics(&self) -> RobustMetrics {
        let per_corner: Vec<TreeMetrics> = (0..self.states.len())
            .map(|k| self.corner_metrics(k))
            .collect();
        RobustMetrics::from_corner_metrics(&per_corner)
    }

    // --- Mutations -------------------------------------------------------

    /// Re-sizes the buffer embedded in `edge` (a non-root trunk node).
    ///
    /// Returns `false` — with the state fully rolled back — when the new
    /// scale makes any pattern on the dirty path infeasible in any corner.
    ///
    /// # Panics
    ///
    /// Panics if `edge` is 0 or `scale` is not positive.
    pub fn set_buffer_scale(&mut self, edge: usize, scale: f64) -> bool {
        assert!(edge != 0, "node 0 has no incoming edge");
        assert!(scale > 0.0, "buffer scale must be positive");
        self.last_mark = self.records.len();
        if self.tree.buffer_scales[edge] == scale {
            return true;
        }
        self.begin(Knob::Scale(edge as u32, self.tree.buffer_scales[edge]));
        self.tree.buffer_scales[edge] = scale;
        self.fan_out(|state, tree, tech, model, csr| {
            state.repropagate_edge(tree, tech, model, csr, edge)
        })
    }

    /// Re-assigns the pattern of `edge` (a non-root trunk node). Side
    /// legality is *not* checked here; run
    /// [`SynthesizedTree::validate_sides`] before accepting a final tree.
    ///
    /// Returns `false` — with the state fully rolled back — when the new
    /// pattern is infeasible on this edge or overloads an ancestor buffer
    /// in any corner.
    ///
    /// # Panics
    ///
    /// Panics if `edge` is 0.
    pub fn set_pattern(&mut self, edge: usize, pattern: Pattern) -> bool {
        assert!(edge != 0, "node 0 has no incoming edge");
        self.last_mark = self.records.len();
        if self.tree.patterns[edge] == Some(pattern) {
            return true;
        }
        self.begin(Knob::Pattern(edge as u32, self.tree.patterns[edge]));
        self.tree.patterns[edge] = Some(pattern);
        self.fan_out(|state, tree, tech, model, csr| {
            state.repropagate_edge(tree, tech, model, csr, edge)
        })
    }

    /// Adds or removes the skew-refinement buffer driving star `si`.
    ///
    /// Returns `false` — with the state fully rolled back — when the
    /// change overloads a buffer on the ancestor path in any corner.
    pub fn set_star_buffer(&mut self, si: usize, on: bool) -> bool {
        self.last_mark = self.records.len();
        if self.tree.star_buffers[si] == on {
            return true;
        }
        self.begin(Knob::StarBuffer(si as u32, self.tree.star_buffers[si]));
        self.tree.star_buffers[si] = on;
        self.fan_out(|state, tree, tech, model, csr| {
            state.apply_star_toggle(tree, tech, model, csr, si)
        })
    }

    /// Opens the undo record of one mutation: the knob's previous value
    /// plus every corner's current journal length.
    fn begin(&mut self, knob: Knob) {
        self.focus.set(None);
        self.records.push(knob);
        self.corner_lens
            .extend(self.states.iter().map(|s| s.journal.len()));
    }

    /// Repairs every corner after the knob write `begin` recorded:
    /// `apply(state, tree, tech, model, csr)` per corner, serially (stopping
    /// at the first infeasible corner) or in parallel. Rolls the whole
    /// mutation back and returns `false` when the run budget has tripped,
    /// any corner is infeasible, or the injected evaluator fault fires.
    fn fan_out(
        &mut self,
        apply: impl Fn(&mut CornerState, &SynthesizedTree, &Technology, EvalModel, &TreeCsr) -> bool
            + Sync,
    ) -> bool {
        let mark = self.records.len() - 1;
        // An expired budget rejects the move before any repair work, through
        // the same path as an infeasible corner.
        let cancelled = self.cancel.as_ref().is_some_and(CancelToken::is_cancelled);
        let ok = !cancelled && {
            if let Some(counter) = &self.corner_evals {
                counter.add(self.states.len() as u64);
            }
            let (tree, techs, model, csr) = (&*self.tree, self.techs, self.model, &self.csr);
            if self.use_parallel() {
                let mut work: Vec<(&mut CornerState, &Technology, bool)> = self
                    .states
                    .iter_mut()
                    .zip(techs)
                    .map(|(state, tech)| (state, tech, false))
                    .collect();
                work.par_iter_mut().for_each(|(state, tech, ok)| {
                    *ok = apply(state, tree, tech, model, csr);
                });
                work.iter().all(|&(.., ok)| ok)
            } else {
                self.states
                    .iter_mut()
                    .zip(techs)
                    .all(|(state, tech)| apply(state, tree, tech, model, csr))
            }
        };
        // The injected fault fires *after* propagation, so the rollback must
        // revert fully repaired dirty paths, not just the knob.
        if ok && !fault::fault_infeasible(fault::SITE_INCREMENTAL) {
            true
        } else {
            self.undo_to(mark);
            false
        }
    }

    // --- Undo machinery --------------------------------------------------

    /// Current journal position; pass to [`IncrementalEval::undo_to`] to
    /// revert every mutation — knob and all corners — made after this
    /// call.
    pub fn mark(&self) -> usize {
        self.records.len()
    }

    /// Reverts all state back to `mark` (from [`IncrementalEval::mark`]):
    /// every corner's journal is unwound to its length at the mark, and
    /// the knobs are restored newest first — so the tree and every corner
    /// land exactly where they were.
    pub fn undo_to(&mut self, mark: usize) {
        self.focus.set(None);
        if mark < self.records.len() {
            let k = self.states.len();
            for (state, &len) in self.states.iter_mut().zip(&self.corner_lens[mark * k..]) {
                state.rollback(len);
            }
            self.corner_lens.truncate(mark * k);
            for knob in self.records.drain(mark..).rev() {
                match knob {
                    Knob::Scale(e, old) => self.tree.buffer_scales[e as usize] = old,
                    Knob::Pattern(e, old) => self.tree.patterns[e as usize] = old,
                    Knob::StarBuffer(si, old) => self.tree.star_buffers[si as usize] = old,
                }
            }
        }
        self.last_mark = self.last_mark.min(mark);
    }

    /// Reverts the most recent mutation (no-op if it was already undone or
    /// committed).
    pub fn undo(&mut self) {
        self.undo_to(self.last_mark);
    }

    /// Accepts all mutations so far: clears the journals, making them
    /// permanent (undo can no longer cross this point).
    pub fn commit(&mut self) {
        self.records.clear();
        self.corner_lens.clear();
        for state in &mut self.states {
            state.journal.clear();
        }
        self.last_mark = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dp::{try_run_dp, DpConfig, MoesWeights};
    use crate::route::HierarchicalRouter;
    use dscts_netlist::BenchmarkSpec;

    fn tree() -> (SynthesizedTree, Technology) {
        let d = BenchmarkSpec::c4_riscv32i().generate();
        let tech = Technology::asap7();
        let mut topo = HierarchicalRouter::new().try_route(&d, &tech).unwrap();
        topo.subdivide(40_000);
        let cfg = DpConfig {
            moes: MoesWeights {
                alpha: 1.0,
                beta: 0.0,
                gamma: 0.0,
                delta: 0.0,
            },
            ..DpConfig::default()
        };
        let res = try_run_dp(&topo, &tech, &cfg, None, None, None).unwrap().0;
        (SynthesizedTree::new(topo, res.assignment), tech)
    }

    #[test]
    fn construction_matches_batch() {
        let (mut t, tech) = tree();
        for model in [EvalModel::Elmore, EvalModel::Nldm] {
            let batch = t.evaluate(&tech, model);
            let inc = IncrementalEval::new(&mut t, &tech, model);
            assert_eq!(inc.metrics(), batch);
            assert_eq!(inc.latency_ps(), batch.latency_ps);
            assert_eq!(inc.skew_ps(), batch.skew_ps);
        }
    }

    #[test]
    fn scale_mutation_matches_batch_and_undo_restores() {
        let (mut t, tech) = tree();
        let edge = (1..t.topo.nodes.len())
            .find(|&i| t.patterns[i].is_some_and(|p| p.buffers() > 0))
            .expect("some buffered edge");
        let baseline = t.evaluate(&tech, EvalModel::Elmore);
        let mut inc = IncrementalEval::new(&mut t, &tech, EvalModel::Elmore);
        assert!(inc.set_buffer_scale(edge, 2.0));
        let mutated = inc.metrics();
        inc.undo();
        assert_eq!(inc.metrics(), baseline);
        assert!(inc.set_buffer_scale(edge, 2.0));
        assert_eq!(inc.metrics(), mutated);
        drop(inc);
        // The evaluator wrote the accepted knob through to the tree.
        assert_eq!(t.buffer_scales[edge], 2.0);
        assert_eq!(t.evaluate(&tech, EvalModel::Elmore), mutated);
    }

    #[test]
    fn star_buffer_mutation_matches_batch() {
        let (mut t, tech) = tree();
        let mut inc = IncrementalEval::new(&mut t, &tech, EvalModel::Nldm);
        assert!(inc.set_star_buffer(0, true));
        let mutated = inc.metrics();
        drop(inc);
        assert_eq!(t.evaluate(&tech, EvalModel::Nldm), mutated);
    }

    #[test]
    fn infeasible_scale_rolls_back() {
        let (mut t, tech) = tree();
        // A vanishing buffer cannot drive its load: mutation must refuse
        // and leave no trace.
        let edge = (1..t.topo.nodes.len())
            .find(|&i| t.patterns[i].is_some_and(|p| p.buffers() > 0))
            .expect("some buffered edge");
        let baseline = t.evaluate(&tech, EvalModel::Elmore);
        let mut inc = IncrementalEval::new(&mut t, &tech, EvalModel::Elmore);
        assert!(!inc.set_buffer_scale(edge, 1e-6));
        assert_eq!(inc.metrics(), baseline);
        assert_eq!(inc.mark(), 0, "failed mutation leaves an empty journal");
    }

    #[test]
    fn mark_groups_roll_back_together() {
        let (mut t, tech) = tree();
        let baseline = t.evaluate(&tech, EvalModel::Elmore);
        let mut inc = IncrementalEval::new(&mut t, &tech, EvalModel::Elmore);
        let mark = inc.mark();
        assert!(inc.set_star_buffer(0, true));
        assert!(inc.set_star_buffer(1, true));
        assert_ne!(inc.metrics(), baseline);
        inc.undo_to(mark);
        assert_eq!(inc.metrics(), baseline);
    }

    #[test]
    fn load_at_matches_probe_semantics() {
        // `load_at` is what `probe_load` used to recompute from scratch.
        let (mut t, tech) = tree();
        let batch = t.evaluate(&tech, EvalModel::Elmore);
        let inc = IncrementalEval::new(&mut t, &tech, EvalModel::Elmore);
        // Root load equals the cap the DP reported for the driver.
        assert!(inc.load_at(0) > 0.0);
        drop(inc);
        let _ = batch;
    }

    #[test]
    fn one_corner_objective_view_is_that_corner() {
        // At K = 1 every objective-view query reads the only corner.
        let (mut t, tech) = tree();
        let mut inc = IncrementalEval::new(&mut t, &tech, EvalModel::Elmore);
        let m = inc.corner_metrics(0);
        assert_eq!(inc.corner_count(), 1);
        assert_eq!(inc.metrics(), m);
        assert_eq!(inc.focus_corner(), 0);
        assert_eq!(inc.latency_skew_ps(), (m.latency_ps, m.skew_ps));
        assert_eq!(inc.latency_skew_ps(), inc.corner_latency_skew_ps(0));
        assert!(inc.set_star_buffer(0, true));
        inc.undo();
        assert_eq!(inc.metrics(), m);
        assert_eq!(inc.robust_metrics().arrival_spread_ps, 0.0);
    }
}
