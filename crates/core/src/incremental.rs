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
//! * **one timing model.** Construction *is* the batch pass of
//!   [`SynthesizedTree::evaluate`]: each corner's state is the
//!   `TimingState` that pass returns (star constants, `cap`, `up_cap`,
//!   `arr`, `slew` and the per-star base arrivals and slews), taken as
//!   is. Repairs call the same step functions on it — the node cap, the
//!   root-driver, edge and star-buffer steps — and metrics use the same
//!   sink fold, so after every successful mutation the state is
//!   bit-identical (as `f64`s) to a from-scratch evaluation of the mutated
//!   tree. Early termination happens only when a recomputed value
//!   compares equal to the stored one. The property suite
//!   `incremental_matches_batch` enforces this for both [`EvalModel`]s
//!   under arbitrary interleaved mutations and undos, and checks that an
//!   evaluator rebuilt over the mutated tree equals the repaired one.
//! * **star-level state.** No per-sink value is stored. A sink's arrival
//!   is its star's base plus its constant branch delay, the expression the
//!   batch evaluator uses, so [`IncrementalEval::metrics`] derives the
//!   per-sink vector on demand and a mutation re-times each star it
//!   passes with one write and one journal entry, whatever its sink count.
//! * **journaled undo.** Every overwritten value is recorded in an undo
//!   journal. [`IncrementalEval::undo`] reverts the last mutation,
//!   [`IncrementalEval::mark`]/[`IncrementalEval::undo_to`] revert a group
//!   of mutations (e.g. one refinement round), and
//!   [`IncrementalEval::commit`] forgets history once a move is accepted.
//!   A mutation that would make any pattern electrically infeasible
//!   rolls itself back and returns `false`, leaving the state untouched —
//!   trial moves need no feasibility pre-probe. A re-pattern that would
//!   move either end of an edge to the other side is refused the same
//!   way, so no mutation makes a side-legal tree illegal.
//!
//! The evaluator borrows the tree mutably and writes accepted knob changes
//! (`buffer_scales`, `star_buffers`, `patterns`) through to it, so when the
//! evaluator is dropped the tree is already in its optimized state.
//!
//! # Corners
//!
//! Each corner's timing state, its journal and the repair walks live in
//! the crate-internal `CornerState`. An evaluator holds one per corner over
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
use crate::mcmm::RobustObjective;
use crate::pattern::Pattern;
use crate::resilience::{fault, CancelToken};
use crate::synth::{EvalModel, SynthesizedTree, TimingState, TreeMetrics};
use dscts_tech::{CornerSet, Technology};
use rayon::prelude::*;
use std::cell::Cell;

/// Minimum trunk-node count before the auto gate turns the corner-parallel
/// fan-out on. Below this, a per-corner dirty path is microseconds and the
/// shim's per-call thread spawn would dominate (the C1–C5 trunks are ~1k
/// nodes); above it — the 100k+-sink scaled designs — the per-corner
/// repair work amortizes the spawn.
const PAR_FANOUT_MIN_NODES: usize = 10_000;

/// One overwritten value of a corner's timing state, recorded for
/// rollback.
#[derive(Debug, Clone, Copy)]
enum Entry {
    /// `cap[node]` previous value.
    Cap(u32, f64),
    /// `up_cap[node]` previous value.
    UpCap(u32, f64),
    /// `(arr, slew)[node]` previous values.
    Node(u32, f64, f64),
    /// `(star_base, star_base_slew)[si]` previous values.
    StarBase(u32, f64, f64),
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

/// The resident timing state of one tree under one technology, as the
/// batch pass built it, plus the journal of values the dirty-path repairs
/// overwrote. Owns no tree borrow; [`IncrementalEval`] holds one per
/// corner over the same tree.
///
/// Repair methods never roll themselves back: on infeasibility they
/// return `false` with their journal entries in place, and the
/// owning evaluator reverts the knob and every corner it touched.
#[derive(Debug, Clone)]
struct CornerState {
    /// The batch pass's state, repaired in place.
    timing: TimingState,
    /// Every value overwritten since the last commit, oldest first.
    journal: Vec<Entry>,
    /// Grow-only DFS stack reused by every arrival re-propagation, so a
    /// trial move performs no per-move heap allocation once the stack has
    /// reached its high-water mark (asserted by `no_alloc_hot_loop`).
    arrival_scratch: Vec<u32>,
}

impl CornerState {
    /// After a knob change on the edge into `start`, or a change of
    /// `cap[start]`: walk the ancestor path, refreshing each edge's
    /// presented cap, until a presented cap (or an aggregated node cap) is
    /// bit-unchanged — typically at the first shielding buffer — or the
    /// root is reached; then re-propagate the arrivals below the topmost
    /// node whose downstream cap changed (`start` itself when none did).
    /// Returns `false` — journal entries left for the owner to revert —
    /// when an edge on the way becomes infeasible.
    fn repair_from(
        &mut self,
        tree: &SynthesizedTree,
        tech: &Technology,
        model: EvalModel,
        start: usize,
    ) -> bool {
        let mut top = start;
        let mut v = start;
        while v != 0 {
            let Some(ev) = self.timing.eval_edge(tree, tech, v) else {
                return false;
            };
            if ev.up_cap_ff == self.timing.up_cap[v] {
                break;
            }
            self.journal
                .push(Entry::UpCap(v as u32, self.timing.up_cap[v]));
            self.timing.up_cap[v] = ev.up_cap_ff;
            let p = tree.topo.nodes[v].parent.expect("non-root") as usize;
            let new_cap = self.timing.node_cap(tree, tech, p);
            if new_cap == self.timing.cap[p] {
                break;
            }
            self.journal.push(Entry::Cap(p as u32, self.timing.cap[p]));
            self.timing.cap[p] = new_cap;
            top = p;
            v = p;
        }
        self.recompute_arrivals_from(tree, tech, model, top)
    }

    /// The state half of a star-buffer toggle (the knob was already
    /// written to the tree): refresh the star root's cap and either
    /// re-time the star alone (cap bit-unchanged) or repair from the star
    /// root. Returns `false` — journal entries left for the owner to
    /// revert — on infeasibility.
    fn apply_star_toggle(
        &mut self,
        tree: &SynthesizedTree,
        tech: &Technology,
        model: EvalModel,
        si: usize,
    ) -> bool {
        let v = tree.topo.stars[si].node as usize;
        let new_cap = self.timing.node_cap(tree, tech, v);
        if new_cap == self.timing.cap[v] {
            // Load at the star root is (bit-)unchanged, so no trunk state
            // moves — but the star's own stage delay did change.
            self.retime_star(tree, tech, model, si);
            return true;
        }
        self.journal.push(Entry::Cap(v as u32, self.timing.cap[v]));
        self.timing.cap[v] = new_cap;
        self.repair_from(tree, tech, model, v)
    }

    /// Re-propagates arrivals and slews over the subtree rooted at `top`
    /// (whose own incoming-edge delay is dirty; `top == 0` re-times the
    /// root driver and therefore the whole tree), re-timing every star it
    /// passes. Returns `false` — journal entries left for the owner to
    /// revert — if an edge in the subtree is infeasible (only possible for
    /// edges whose caps changed, which the cap walk already vetted — kept
    /// defensive).
    fn recompute_arrivals_from(
        &mut self,
        tree: &SynthesizedTree,
        tech: &Technology,
        model: EvalModel,
        top: usize,
    ) -> bool {
        let csr = tree.topo.csr();
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
            let Some((arr, slew)) = self.timing.node_step(tree, tech, model, vu) else {
                ok = false;
                break;
            };
            let t = &mut self.timing;
            self.journal.push(Entry::Node(v, t.arr[vu], t.slew[vu]));
            (t.arr[vu], t.slew[vu]) = (arr, slew);
            if let Some(si) = tree.topo.nodes[vu].star {
                self.retime_star(tree, tech, model, si as usize);
            }
            stack.extend_from_slice(csr.children(v));
        }
        self.arrival_scratch = stack;
        ok
    }

    /// Refreshes star `si`'s base arrival and slew with the star-buffer
    /// step. Its sinks' arrivals follow from the base.
    fn retime_star(
        &mut self,
        tree: &SynthesizedTree,
        tech: &Technology,
        model: EvalModel,
        si: usize,
    ) {
        let (base, slew) = self.timing.star_step(tree, tech, model, si);
        let t = &mut self.timing;
        self.journal.push(Entry::StarBase(
            si as u32,
            t.star_base[si],
            t.star_base_slew[si],
        ));
        (t.star_base[si], t.star_base_slew[si]) = (base, slew);
    }

    /// Reverts every journaled value past `len`, newest first.
    fn rollback(&mut self, len: usize) {
        let t = &mut self.timing;
        while self.journal.len() > len {
            match self.journal.pop().expect("journal longer than len") {
                Entry::Cap(v, old) => t.cap[v as usize] = old,
                Entry::UpCap(v, old) => t.up_cap[v as usize] = old,
                Entry::Node(v, arr, slew) => (t.arr[v as usize], t.slew[v as usize]) = (arr, slew),
                Entry::StarBase(si, base, slew) => {
                    (t.star_base[si as usize], t.star_base_slew[si as usize]) = (base, slew);
                }
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
    /// Builds the single-corner evaluator under `tech` from one batch
    /// pass.
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

    /// Builds one state per corner of `corners` (one batch pass each),
    /// scoring the objective view through `objective`.
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
        let states = techs
            .iter()
            .map(|tech| {
                Ok(CornerState {
                    timing: TimingState::try_new(tree, tech, model)?,
                    journal: Vec::new(),
                    arrival_scratch: Vec::new(),
                })
            })
            .collect::<Result<Vec<_>, CtsError>>()?;
        Ok(IncrementalEval {
            tree,
            techs,
            nominal,
            model,
            objective,
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
                    let (_, skew) = s.timing.latency_skew_ps();
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
            RobustObjective::Nominal => self.states[self.nominal].timing.latency_skew_ps(),
            RobustObjective::WorstCorner => {
                let mut lat = f64::NEG_INFINITY;
                let mut skew = f64::NEG_INFINITY;
                for s in &self.states {
                    let (l, k) = s.timing.latency_skew_ps();
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
        self.states[self.focus_corner()].timing.cap[v]
    }

    /// Unshielded load of star `si` (wire + sink pins) in the focus
    /// corner.
    pub fn star_load(&self, si: usize) -> f64 {
        self.states[self.focus_corner()].timing.star_load[si]
    }

    /// Earliest sink arrival within star `si` in the focus corner.
    pub fn star_earliest(&self, si: usize) -> f64 {
        self.states[self.focus_corner()].timing.star_earliest(si)
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
        self.states[k].timing.latency_skew_ps()
    }

    /// Full metrics of corner `k`, bit-identical to
    /// [`SynthesizedTree::evaluate`] under that corner's technology. The
    /// evaluate stage builds [`crate::Outcome::corners`] from these.
    pub fn corner_metrics(&self, k: usize) -> TreeMetrics {
        self.states[k].timing.metrics(self.tree, &self.techs[k])
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
        self.fan_out(|state, tree, tech, model| state.repair_from(tree, tech, model, edge))
    }

    /// Re-assigns the pattern of `edge` (a non-root trunk node) to one
    /// that starts and ends on the same sides as the current pattern, so
    /// a side-legal tree ([`SynthesizedTree::validate_sides`]) stays
    /// legal.
    ///
    /// Returns `false`, changing nothing, when `pattern`'s root or sink
    /// side differs from the current pattern's; and `false` — with the
    /// state fully rolled back — when the new pattern is infeasible on
    /// this edge or overloads an ancestor buffer in any corner.
    ///
    /// # Panics
    ///
    /// Panics if `edge` is 0.
    pub fn set_pattern(&mut self, edge: usize, pattern: Pattern) -> bool {
        assert!(edge != 0, "node 0 has no incoming edge");
        self.last_mark = self.records.len();
        let current = self.tree.patterns[edge];
        if current == Some(pattern) {
            return true;
        }
        let sides = |p: Pattern| (p.root_side(), p.sink_side());
        if current.map(sides) != Some(sides(pattern)) {
            return false;
        }
        self.begin(Knob::Pattern(edge as u32, self.tree.patterns[edge]));
        self.tree.patterns[edge] = Some(pattern);
        self.fan_out(|state, tree, tech, model| state.repair_from(tree, tech, model, edge))
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
        self.fan_out(|state, tree, tech, model| state.apply_star_toggle(tree, tech, model, si))
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
    /// `apply(state, tree, tech, model)` per corner, serially (stopping
    /// at the first infeasible corner) or in parallel. Rolls the whole
    /// mutation back and returns `false` when the run budget has tripped,
    /// any corner is infeasible, or the injected evaluator fault fires.
    fn fan_out(
        &mut self,
        apply: impl Fn(&mut CornerState, &SynthesizedTree, &Technology, EvalModel) -> bool + Sync,
    ) -> bool {
        let mark = self.records.len() - 1;
        // An expired budget rejects the move before any repair work, through
        // the same path as an infeasible corner.
        let cancelled = self.cancel.as_ref().is_some_and(CancelToken::is_cancelled);
        let ok = !cancelled && {
            if let Some(counter) = &self.corner_evals {
                counter.add(self.states.len() as u64);
            }
            let (tree, techs, model) = (&*self.tree, self.techs, self.model);
            if self.use_parallel() {
                let mut work: Vec<(&mut CornerState, &Technology, bool)> = self
                    .states
                    .iter_mut()
                    .zip(techs)
                    .map(|(state, tech)| (state, tech, false))
                    .collect();
                work.par_iter_mut().for_each(|(state, tech, ok)| {
                    *ok = apply(state, tree, tech, model);
                });
                work.iter().all(|&(.., ok)| ok)
            } else {
                self.states
                    .iter_mut()
                    .zip(techs)
                    .all(|(state, tech)| apply(state, tree, tech, model))
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
    use crate::mcmm::RobustMetrics;
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
        let robust = RobustMetrics::from_corner_metrics(&[inc.corner_metrics(0)]);
        assert_eq!(robust.arrival_spread_ps, 0.0);
    }
}
