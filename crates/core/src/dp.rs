//! Concurrent buffer and nTSV insertion by multi-objective dynamic
//! programming (§III-C).
//!
//! The DP tree mirrors the clock-tree edges (Fig. 7): each trunk edge is a
//! DP node whose candidate solutions carry the pattern chosen for that edge
//! plus the aggregate downstream state. The four steps of the paper:
//!
//! 1. **Build heterogeneous DP tree** — every node gets an insertion
//!    [`Mode`] from a [`ModeRule`] (all-full reproduces Table III; a fanout
//!    threshold reproduces the DSE flow of §III-E);
//! 2. **Bottom-up generation** — leaf edges start from the leaf-star load
//!    with their sink end pinned to the front side (restricting them to
//!    {P1, P2, P4, P5}); merges require both children to agree on the side
//!    of the shared vertex, which makes every DP solution a *legal*
//!    double-side tree by construction;
//! 3. **Multi-objective selection** — the root candidate set is scored with
//!    the MOES (Eq. 3): `α·latency + β·buffers + γ·nTSVs` (an optional skew
//!    term extends it);
//! 4. **Top-down decision** — child choices recorded during merging retrace
//!    the full pattern assignment.
//!
//! Pruning follows van Ginneken's inferior-solution rule per side
//! ([`PruneMode::LatencyOnly`]), optionally extended with resource
//! dominance ([`PruneMode::MultiObjective`], the default) so the root set
//! keeps the buffer/nTSV diversity that Fig. 10 shows is essential in the
//! double-side design space.

use crate::error::CtsError;
use crate::pattern::{Mode, Pattern, PatternSet};
use crate::resilience::{fault, CancelToken};
use crate::tree::ClockTopo;
use dscts_geom::TreeCsr;
use dscts_tech::{Side, Technology};
use rayon::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// How DP nodes are assigned their insertion [`Mode`] (§III-E).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ModeRule {
    /// Every node in full mode (the Table III configuration).
    #[default]
    AllFull,
    /// Every node in intra-side mode (single-side insertion).
    AllIntraSide,
    /// Nodes with fanout **below** the threshold are full mode; nodes at or
    /// above it are intra-side (the DSE knob). The *top net* — the unshared
    /// root-feed chain whose fanout equals the total sink count — always
    /// stays full mode: the paper treats top nets as designer-designated,
    /// distinct from trunk nets (§II-A), and every published flipper moves
    /// them to the back side.
    FanoutThreshold(u32),
}

impl ModeRule {
    fn mode(self, fanout: u32, total: u32) -> Mode {
        match self {
            ModeRule::AllFull => Mode::Full,
            ModeRule::AllIntraSide => Mode::IntraSide,
            ModeRule::FanoutThreshold(t) => {
                if fanout < t || fanout == total {
                    Mode::Full
                } else {
                    Mode::IntraSide
                }
            }
        }
    }
}

/// The per-node insertion [`Mode`] vector `rule` induces over `topo`.
///
/// A node's mode depends only on its fanout (and the total sink count),
/// never on the candidate sets, so the vector can be computed up front —
/// the DSE engine uses this to prove two `FanoutThreshold` values
/// equivalent (identical vectors) and run the DP once per equivalence
/// class via [`try_run_dp`].
pub fn mode_vector(topo: &ClockTopo, rule: ModeRule) -> Vec<Mode> {
    let fanout = topo.fanout();
    let total = fanout[0];
    fanout.iter().map(|&f| rule.mode(f, total)).collect()
}

/// Candidate pruning discipline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PruneMode {
    /// The paper's inferior-solution rule: per side, drop candidates whose
    /// effective capacitance **and** maximum delay are both dominated.
    /// Optimal in latency (the default, as in §III-C).
    #[default]
    LatencyOnly,
    /// Per side, 4-D dominance over (cap, delay, #buffers, #nTSVs):
    /// resource-incomparable candidates survive, preserving the Fig. 10
    /// diversity of the double-side space at some latency cost. Used by
    /// the MOES-effectiveness and ablation experiments.
    MultiObjective,
}

/// Weights of the multi-objective enhancement score (Eq. 3), extended with
/// an optional skew term.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MoesWeights {
    /// Latency weight α.
    pub alpha: f64,
    /// Buffer-count weight β.
    pub beta: f64,
    /// nTSV-count weight γ.
    pub gamma: f64,
    /// Skew weight δ (0 in the paper's formulation).
    pub delta: f64,
}

impl Default for MoesWeights {
    /// The paper's experimental setting: α, β, γ = 1, 10, 1.
    fn default() -> Self {
        MoesWeights {
            alpha: 1.0,
            beta: 10.0,
            gamma: 1.0,
            delta: 0.0,
        }
    }
}

impl MoesWeights {
    /// The weighted sum `α·latency + β·buffers + γ·nTSVs + δ·skew` —
    /// the single place the MOES objective is written down. The DP's
    /// [`MoesWeights::score`] and the optimization passes'
    /// [`crate::opt::moes_objective`]/[`crate::opt::moes_objective_of`]
    /// all delegate here, so they cannot drift apart.
    pub fn weigh(&self, latency_ps: f64, buffers: f64, ntsvs: f64, skew_ps: f64) -> f64 {
        self.alpha * latency_ps + self.beta * buffers + self.gamma * ntsvs + self.delta * skew_ps
    }

    /// The MOES value of a root candidate.
    pub fn score(&self, c: &RootCand) -> f64 {
        self.weigh(
            c.latency_ps,
            f64::from(c.buffers),
            f64::from(c.ntsvs),
            c.skew_ps,
        )
    }
}

/// DP configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct DpConfig {
    /// Pattern alphabet (base P1–P6 or extended).
    pub patterns: PatternSet,
    /// Pruning discipline.
    pub prune: PruneMode,
    /// Candidate-set cap per DP node (diversity-preserving truncation).
    pub max_cands: usize,
    /// Insertion-mode rule.
    pub mode_rule: ModeRule,
    /// Root-selection weights.
    pub moes: MoesWeights,
    /// Restrict to the front side entirely ({P1, P2}): the "Our Buffered
    /// Clock Tree" flow.
    pub single_side: bool,
    /// Memory-bounding frontier cap. `None` (the default) leaves candidate
    /// propagation exactly as configured by `max_cands` — bit-identical to
    /// the pre-cap DP. `Some(f)` tightens the *stored* per-node candidate
    /// budget to `max_cands.min(f)` after the provable-dominance prune,
    /// but only for nodes deeper than `FRONTIER_FULL_DIVERSITY_DEPTH`
    /// (24) edges from the root (the transient merge working set keeps the
    /// full `max_cands`-keyed budget everywhere). Near-root diversity —
    /// what root selection quality rides on — is untouched, while the
    /// deep subdivision chains of huge designs are bounded
    /// (the stored total is reported
    /// in [`DpResult::stored_candidates`]). Dominated candidates are always
    /// dropped first, so the cap only thins the resource-diverse tail.
    pub frontier: Option<usize>,
}

impl Default for DpConfig {
    fn default() -> Self {
        DpConfig {
            patterns: PatternSet::Base,
            prune: PruneMode::default(),
            max_cands: 64,
            mode_rule: ModeRule::AllFull,
            moes: MoesWeights::default(),
            single_side: false,
            frontier: None,
        }
    }
}

/// A candidate at the root of the DP tree (one point of Fig. 10).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RootCand {
    /// Source-to-worst-sink latency including the root driver (ps).
    pub latency_ps: f64,
    /// Worst minus best sink delay (ps).
    pub skew_ps: f64,
    /// Buffers inserted by patterns (excluding the root driver).
    pub buffers: u32,
    /// nTSVs inserted by patterns.
    pub ntsvs: u32,
    /// Capacitance presented to the root driver (fF).
    pub cap_ff: f64,
}

/// Output of [`try_run_dp`].
#[derive(Debug, Clone, PartialEq)]
pub struct DpResult {
    /// Pattern for every trunk node's incoming edge (`None` for node 0).
    pub assignment: Vec<Option<Pattern>>,
    /// The surviving root candidate set (for Fig. 10 and DSE analysis).
    pub root_candidates: Vec<RootCand>,
    /// Index into `root_candidates` selected by the MOES.
    pub chosen: usize,
    /// Total candidate records stored across all DP nodes — the peak
    /// footprint of the candidate arena. This is what
    /// [`DpConfig::frontier`] bounds; the frontier gate in the bench
    /// crate's `gates` test reports it to show the cap's effect.
    pub stored_candidates: usize,
}

#[derive(Debug, Clone, Copy)]
struct Work {
    pattern: Option<Pattern>,
    side: Side,
    cap: f64,
    max_d: f64,
    min_d: f64,
    bufs: u32,
    ntsvs: u32,
    child: [u32; 2],
}

/// Nodes within this many edges of the clock root always keep the full
/// `max_cands` budget, even under a [`DpConfig::frontier`] cap. Root
/// selection quality rides on the diversity of the sets near the root,
/// so the cap must not thin them; 24 levels of trunk (branch points plus
/// their subdivision segments) cover every Table II preset at the
/// pipeline's default granularity, so the cap engages only on the deep
/// subdivision chains of 100k+-sink floorplans — which is exactly where
/// the candidate arena bloats.
const FRONTIER_FULL_DIVERSITY_DEPTH: u32 = 24;

/// Read-only inputs shared by every per-node DP computation.
struct DpCtx<'a> {
    topo: &'a ClockTopo,
    tech: &'a Technology,
    cfg: &'a DpConfig,
    patterns: &'a [Pattern],
    csr: &'a TreeCsr,
    modes: &'a [Mode],
    /// Per-node distance from the clock root, used to gate the frontier
    /// cap; empty when `cfg.frontier` is `None` (never read then).
    depths: &'a [u32],
}

/// Candidate-set capture of one DP run, reusable by later runs over the
/// *same* topology/technology/configuration whose per-node [`Mode`]
/// vector differs only on some nodes (mode-class *suffix sharing*, the
/// PR 3 follow-on).
///
/// A node's candidate set is a pure function of its subtree: the modes
/// of the node and all its descendants, plus the shared
/// topo/tech/config inputs. When a later class's mode vector agrees
/// with the cached one on a whole subtree, that subtree's sets are
/// bit-identical by construction and are copied from the cache instead
/// of recomputed. Fanout-threshold classes differ exactly on the nodes
/// whose fanout lies between the two thresholds — the high-fanout
/// trunk near the root — so deep subtrees (the bulk of the DP work)
/// are shared.
///
/// **Caller contract:** only the mode vector may vary between the
/// cached run and a reusing run. Reusing a cache across different
/// topologies, technologies or [`DpConfig`]s is a logic error (a
/// node-count mismatch is detected and silently disables reuse; other
/// mismatches are not detectable here). [`crate::dse::SweepEngine`]
/// upholds this by building one cache per routed design.
#[derive(Debug)]
pub struct DpSuffixCache {
    modes: Vec<Mode>,
    arena: CandArena,
}

/// Flat SoA arena holding every node's surviving candidate set — the
/// `TreeCsr`-style replacement for the former `Vec<Vec<Work>>`: one
/// contiguous `Work` buffer plus per-node `(offset, len)` slots. Sets are
/// appended in height order (children before parents), so by the time a
/// node is processed all of its children's slices are already resident.
#[derive(Debug)]
struct CandArena {
    off: Vec<u32>,
    len: Vec<u32>,
    works: Vec<Work>,
}

impl CandArena {
    fn with_nodes(n: usize) -> Self {
        CandArena {
            off: vec![0; n],
            len: vec![0; n],
            works: Vec::new(),
        }
    }

    fn node(&self, id: usize) -> &[Work] {
        &self.works[self.off[id] as usize..][..self.len[id] as usize]
    }

    fn push_set(&mut self, id: usize, set: Vec<Work>) {
        self.off[id] = self.works.len() as u32;
        self.len[id] = set.len() as u32;
        self.works.extend(set);
    }
}

/// The merge + insert computation for one DP node. Reads only the
/// candidate sets of the node's children, so all nodes of equal tree
/// height are independent and safe to process in parallel.
fn process_node(idu: usize, ctx: &DpCtx<'_>, sets: &CandArena) -> Result<Vec<Work>, CtsError> {
    fault::fault_check(fault::SITE_DP)?;
    let DpCtx {
        topo,
        tech,
        cfg,
        patterns,
        csr,
        modes,
        depths,
    } = *ctx;
    let rc_front = tech.rc(Side::Front);
    let max_load = tech.max_load_ff();
    let node = &topo.nodes[idu];
    let kids = csr.children(idu as u32);
    // --- Merge step: aggregate the state below this edge's sink end. ---
    let mut merged: Vec<Work> = match (kids.len(), node.star) {
        (0, Some(star)) => {
            let s = &topo.stars[star as usize];
            let mut cap = 0.0;
            let mut max_d = 0.0f64;
            let mut min_d = f64::INFINITY;
            for (&sk, &len) in s.sinks.iter().zip(&s.branch_len) {
                cap += rc_front.cap(len) + topo.sink_cap[sk as usize];
                let d = rc_front.res(len) * (rc_front.cap(len) + topo.sink_cap[sk as usize]);
                max_d = max_d.max(d);
                min_d = min_d.min(d);
            }
            vec![Work {
                pattern: None,
                side: Side::Front, // sinks live on the front side
                cap,
                max_d,
                min_d,
                bufs: 0,
                ntsvs: 0,
                child: [u32::MAX; 2],
            }]
        }
        (1, None) => sets
            .node(kids[0] as usize)
            .iter()
            .enumerate()
            .map(|(i, c)| Work {
                pattern: None,
                side: c
                    .pattern
                    .expect("stored candidates have patterns")
                    .root_side(),
                cap: c.cap,
                max_d: c.max_d,
                min_d: c.min_d,
                bufs: c.bufs,
                ntsvs: c.ntsvs,
                child: [i as u32, u32::MAX],
            })
            .collect(),
        (2, None) => {
            let (a, b) = (sets.node(kids[0] as usize), sets.node(kids[1] as usize));
            let mut out = Vec::with_capacity(a.len() * b.len() / 2);
            for (i, ca) in a.iter().enumerate() {
                let sa = ca.pattern.expect("stored").root_side();
                for (j, cb) in b.iter().enumerate() {
                    // Connectivity constraint: the shared vertex must
                    // have one side.
                    if sa != cb.pattern.expect("stored").root_side() {
                        continue;
                    }
                    out.push(Work {
                        pattern: None,
                        side: sa,
                        cap: ca.cap + cb.cap,
                        max_d: ca.max_d.max(cb.max_d),
                        min_d: ca.min_d.min(cb.min_d),
                        bufs: ca.bufs + cb.bufs,
                        ntsvs: ca.ntsvs + cb.ntsvs,
                        child: [i as u32, j as u32],
                    });
                }
            }
            out
        }
        (c, s) => {
            return Err(CtsError::MalformedTrunk {
                node: idu as u32,
                children: c,
                has_star: s.is_some(),
            })
        }
    };
    // The merge working set keeps the full `max_cands`-keyed budget even
    // under a frontier cap: the oversized intermediate is transient (it
    // never reaches the arena), and thinning it would change *which*
    // candidates survive rather than merely how many are stored.
    prune(&mut merged, cfg.prune, cfg.max_cands.max(4) * 2);
    // The frontier tightens only the stored (final) per-node budget, and
    // only beyond [`FRONTIER_FULL_DIVERSITY_DEPTH`]; with `frontier:
    // None` this is exactly `max_cands` and the DP is bit-identical to
    // the uncapped formulation.
    let budget = match cfg.frontier {
        Some(f) if depths[idu] > FRONTIER_FULL_DIVERSITY_DEPTH => cfg.max_cands.min(f),
        _ => cfg.max_cands,
    };

    // --- Insert step: assign a pattern to this edge. ---
    let mode = modes[idu];
    let mut cands: Vec<Work> = Vec::with_capacity(merged.len() * patterns.len());
    for base in &merged {
        for &p in patterns {
            if !p.allowed_in(mode) || p.sink_side() != base.side {
                continue;
            }
            let Some(ev) = p.eval(node.edge_len, base.cap, tech) else {
                continue;
            };
            // Max driven capacitance prune (§III-C pruning technique).
            if ev.up_cap_ff > max_load {
                continue;
            }
            cands.push(Work {
                pattern: Some(p),
                side: p.root_side(),
                cap: ev.up_cap_ff,
                max_d: base.max_d + ev.delay_ps,
                min_d: base.min_d + ev.delay_ps,
                bufs: base.bufs + p.buffers(),
                ntsvs: base.ntsvs + p.ntsvs(),
                child: base.child,
            });
        }
    }
    prune(&mut cands, cfg.prune, budget);
    if cands.is_empty() {
        return Err(CtsError::NoFeasiblePattern {
            node: idu as u32,
            edge_len_nm: node.edge_len,
        });
    }
    Ok(cands)
}

/// Runs the concurrent buffer-and-nTSV DP over a routed clock tree — the
/// one DP entry point.
///
/// * `modes` — the per-node [`Mode`] vector; `None` means
///   [`mode_vector`]`(topo, cfg.mode_rule)`, and `Some` ignores
///   `cfg.mode_rule`. The batched DSE engine passes one vector per
///   mode-equivalence class of its threshold sweep.
/// * `cancel` — a cooperative [`CancelToken`] checked between height
///   groups of the candidate propagation (the pipeline's mid-insertion
///   budget checkpoint).
/// * `reuse` — an earlier run's [`DpSuffixCache`]: candidate sets of
///   every node whose whole subtree carries the same modes as the cached
///   run are copied instead of recomputed. See [`DpSuffixCache`] for the
///   caller contract.
///
/// Returns the result plus the run's own [`DpSuffixCache`] (a move of the
/// arena the run built anyway, and of the mode vector). Infeasibility is
/// a [`CtsError`].
///
/// Candidate propagation is parallel across independent subtrees: nodes
/// are grouped by tree height (leaves first), and every node within one
/// height group is processed concurrently — a node depends only on its
/// children, which all live in lower groups. Each node's candidate set is
/// written back in node order, so the result is bit-identical at any
/// thread count, with or without `cancel` (until it trips) and with or
/// without `reuse` (a clean subtree's sets are pure functions of
/// unchanged inputs, so the copy *is* the recomputation; enforced by
/// `dp_suffix_proptests`).
///
/// # Panics
///
/// Panics if `modes.len() != topo.nodes.len()` (a caller bug, not a
/// data-dependent failure).
pub fn try_run_dp(
    topo: &ClockTopo,
    tech: &Technology,
    cfg: &DpConfig,
    modes: Option<&[Mode]>,
    cancel: Option<&CancelToken>,
    reuse: Option<&DpSuffixCache>,
) -> Result<(DpResult, DpSuffixCache), CtsError> {
    let modes = match modes {
        Some(modes) => modes.to_vec(),
        None => mode_vector(topo, cfg.mode_rule),
    };
    assert_eq!(modes.len(), topo.nodes.len(), "mode vector arity");
    // Whole-DP span plus per-height-group progress counters; handles
    // are resolved once here so the loop body never touches the
    // registry (and is a plain `None` branch with no collector).
    let _span = dscts_telemetry::Span::enter("dp");
    let height_counters =
        dscts_telemetry::active().map(|t| (t.counter("dp.height_groups"), t.counter("dp.nodes")));
    let csr = topo.csr();
    if csr.children(0).len() != 1 {
        return Err(CtsError::InvalidTopology(format!(
            "clock root must feed exactly one trunk edge, not {}",
            csr.children(0).len()
        )));
    }
    let order = csr.order();
    let max_load = tech.max_load_ff();

    let patterns: &[Pattern] = if cfg.single_side {
        &[Pattern::Buffer, Pattern::WiringF]
    } else {
        cfg.patterns.patterns()
    };

    let n = topo.nodes.len();

    // Group non-root nodes by height; children strictly precede parents.
    let mut height = vec![0usize; n];
    let mut max_height = 0usize;
    for &id in order.iter().rev() {
        let idu = id as usize;
        let h = csr
            .children(id)
            .iter()
            .map(|&c| height[c as usize] + 1)
            .max()
            .unwrap_or(0);
        height[idu] = h;
        max_height = max_height.max(h);
    }
    // Flat CSR-style height buckets built in one counting pass (replaces a
    // `Vec<Vec<u32>>` of per-height bucket allocations); counting sort
    // keeps node ids ascending within each bucket.
    let mut height_off = vec![0u32; max_height + 2];
    for id in 1..n {
        height_off[height[id] + 1] += 1;
    }
    for i in 1..height_off.len() {
        height_off[i] += height_off[i - 1];
    }
    let mut height_nodes = vec![0u32; n.saturating_sub(1)];
    let mut cursor = height_off.clone();
    for id in 1..n {
        height_nodes[cursor[height[id]] as usize] = id as u32;
        cursor[height[id]] += 1;
    }

    // Root distances, needed only to gate the frontier cap.
    let depths: Vec<u32> = if cfg.frontier.is_some() {
        let mut d = vec![0u32; n];
        for &id in order {
            if let Some(p) = topo.nodes[id as usize].parent {
                d[id as usize] = d[p as usize] + 1;
            }
        }
        d
    } else {
        Vec::new()
    };

    // Suffix sharing: a node is *clean* when its own mode and every
    // descendant's mode match the cached run, making its cached
    // candidate set bit-identical to what process_node would recompute.
    // Computed children-first so the check is O(n) total.
    let clean: Vec<bool> = match reuse {
        Some(cache) if cache.modes.len() == n => {
            let mut clean = vec![false; n];
            for &id in order.iter().rev() {
                let idu = id as usize;
                clean[idu] = cache.modes[idu] == modes[idu]
                    && csr.children(id).iter().all(|&c| clean[c as usize]);
            }
            clean
        }
        _ => vec![false; n],
    };
    if reuse.is_some() {
        if let Some(t) = dscts_telemetry::active() {
            t.counter("dp.suffix_reused")
                .add(clean.iter().skip(1).filter(|&&c| c).count() as u64);
        }
    }

    let ctx = DpCtx {
        topo,
        tech,
        cfg,
        patterns,
        csr,
        modes: &modes,
        depths: &depths,
    };
    let mut arena = CandArena::with_nodes(n);
    for h in 0..=max_height {
        // Budget checkpoint between height groups: the DP is the long
        // loop of the insertion stage, and a group boundary is the only
        // place where stopping leaves no half-written arena state.
        if let Some(token) = cancel {
            token.check("dp")?;
        }
        let group = &height_nodes[height_off[h] as usize..height_off[h + 1] as usize];
        if let Some((groups, nodes)) = &height_counters {
            groups.incr();
            nodes.add(group.len() as u64);
        }
        let results: Vec<(u32, Result<Vec<Work>, CtsError>)> = group
            .par_iter()
            .map(|&id| {
                // Clean subtree: lift the cached set instead of
                // recomputing (bit-identical — see the clean[] contract).
                if clean[id as usize] {
                    let cache = reuse.expect("clean nodes only exist under reuse");
                    return (id, Ok(cache.arena.node(id as usize).to_vec()));
                }
                // Panic isolation per worker closure: the rayon shim
                // re-raises worker panics on the joining thread, but
                // catching here pins the failure to the offending node's
                // computation and keeps the whole group's results typed.
                let r = catch_unwind(AssertUnwindSafe(|| process_node(id as usize, &ctx, &arena)))
                    .unwrap_or_else(|payload| {
                        Err(CtsError::Internal {
                            stage: "dp",
                            payload: crate::resilience::panic_message(payload.as_ref()),
                        })
                    });
                (id, r)
            })
            .collect();
        // Write back (and surface errors) in node order: deterministic
        // regardless of how the group was scheduled.
        for (id, r) in results {
            arena.push_set(id as usize, r?);
        }
    }

    // --- Multi-objective selection at the root. ---
    let root_edge = csr.children(0)[0] as usize;
    let buf = tech.buffer();
    let mut root_candidates = Vec::new();
    let mut root_index = Vec::new();
    for (i, c) in arena.node(root_edge).iter().enumerate() {
        // The clock source drives on the front side.
        if c.pattern.expect("stored").root_side() != Side::Front {
            continue;
        }
        if c.cap > max_load {
            continue;
        }
        root_candidates.push(RootCand {
            latency_ps: buf.delay_ps(c.cap) + c.max_d,
            skew_ps: c.max_d - c.min_d,
            buffers: c.bufs,
            ntsvs: c.ntsvs,
            cap_ff: c.cap,
        });
        root_index.push(i);
    }
    if root_candidates.is_empty() {
        return Err(CtsError::NoRootCandidate);
    }
    // invariant: the empty case returned NoRootCandidate just above.
    let chosen = root_candidates
        .iter()
        .enumerate()
        .min_by(|a, b| cfg.moes.score(a.1).total_cmp(&cfg.moes.score(b.1)))
        .map(|(i, _)| i)
        .expect("non-empty");

    // --- Top-down decision. ---
    let mut assignment: Vec<Option<Pattern>> = vec![None; n];
    let mut stack = vec![(root_edge, root_index[chosen])];
    while let Some((nid, cidx)) = stack.pop() {
        let c = &arena.node(nid)[cidx];
        assignment[nid] = c.pattern;
        for (k, &ch) in csr.children(nid as u32).iter().enumerate() {
            let ci = c.child[k];
            if ci != u32::MAX {
                stack.push((ch as usize, ci as usize));
            }
        }
    }

    let result = DpResult {
        assignment,
        root_candidates,
        chosen,
        stored_candidates: arena.works.len(),
    };
    Ok((result, DpSuffixCache { modes, arena }))
}

/// Per-side dominance pruning with diversity-preserving truncation.
fn prune(cands: &mut Vec<Work>, mode: PruneMode, max_cands: usize) {
    if cands.len() <= 1 {
        return;
    }
    let mut out: Vec<Work> = Vec::with_capacity(cands.len().min(2 * max_cands));
    for side in [Side::Front, Side::Back] {
        let mut group: Vec<Work> = cands.iter().filter(|c| c.side == side).copied().collect();
        if group.is_empty() {
            continue;
        }
        group.sort_by(|a, b| {
            a.cap
                .total_cmp(&b.cap)
                .then(a.max_d.total_cmp(&b.max_d))
                .then(a.bufs.cmp(&b.bufs))
                .then(a.ntsvs.cmp(&b.ntsvs))
        });
        let mut kept: Vec<Work> = Vec::new();
        match mode {
            PruneMode::LatencyOnly => {
                let mut best = f64::INFINITY;
                for c in group {
                    if c.max_d < best - 1e-12 {
                        best = c.max_d;
                        kept.push(c);
                    }
                }
            }
            PruneMode::MultiObjective => {
                for c in group {
                    let dominated = kept.iter().any(|k| {
                        k.cap <= c.cap + 1e-12
                            && k.max_d <= c.max_d + 1e-12
                            && k.bufs <= c.bufs
                            && k.ntsvs <= c.ntsvs
                    });
                    if !dominated {
                        kept.push(c);
                    }
                }
            }
        }
        // Diversity-preserving truncation. The (cap, max_d) staircase is
        // what propagates latency optimality (van Ginneken), so it is kept
        // in full whenever it fits; the resource-diverse remainder is
        // thinned by an even stride over the delay range.
        if kept.len() > max_cands {
            let mut staircase = Vec::new();
            let mut rest = Vec::new();
            let mut best = f64::INFINITY;
            for c in kept {
                if c.max_d < best - 1e-12 {
                    best = c.max_d;
                    staircase.push(c);
                } else {
                    rest.push(c);
                }
            }
            let stride = |mut v: Vec<Work>, budget: usize| -> Vec<Work> {
                if v.len() <= budget {
                    return v;
                }
                if budget == 0 {
                    return Vec::new();
                }
                v.sort_by(|a, b| a.max_d.total_cmp(&b.max_d));
                let m = v.len();
                let mut pick: Vec<Work> = Vec::with_capacity(budget);
                let mut last = usize::MAX;
                for i in 0..budget {
                    let j = if budget == 1 {
                        0
                    } else {
                        i * (m - 1) / (budget - 1)
                    };
                    if j != last {
                        pick.push(v[j]);
                        last = j;
                    }
                }
                pick
            };
            if staircase.len() >= max_cands {
                kept = stride(staircase, max_cands);
            } else {
                let budget = max_cands - staircase.len();
                staircase.extend(stride(rest, budget));
                kept = staircase;
            }
        }
        out.extend(kept);
    }
    *cands = out;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::route::HierarchicalRouter;
    use dscts_netlist::BenchmarkSpec;
    use dscts_tech::Technology;

    fn small_topo() -> (ClockTopo, Technology) {
        let d = BenchmarkSpec::c4_riscv32i().generate();
        let tech = Technology::asap7();
        let mut topo = HierarchicalRouter::new().try_route(&d, &tech).unwrap();
        topo.subdivide(20_000);
        (topo, tech)
    }

    /// The DP under `cfg`'s own mode rule, without cancellation or reuse.
    fn solve(topo: &ClockTopo, tech: &Technology, cfg: &DpConfig) -> DpResult {
        try_run_dp(topo, tech, cfg, None, None, None).unwrap().0
    }

    #[test]
    fn dp_produces_full_assignment() {
        let (topo, tech) = small_topo();
        let res = solve(&topo, &tech, &DpConfig::default());
        assert!(res.assignment[0].is_none());
        for (i, a) in res.assignment.iter().enumerate().skip(1) {
            assert!(a.is_some(), "edge {i} unassigned");
        }
        assert!(!res.root_candidates.is_empty());
        assert!(res.chosen < res.root_candidates.len());
    }

    #[test]
    fn assignment_satisfies_connectivity() {
        let (topo, tech) = small_topo();
        let res = solve(&topo, &tech, &DpConfig::default());
        let csr = topo.csr();
        for v in 0..topo.nodes.len() {
            for &c in csr.children(v as u32) {
                let child_pat = res.assignment[c as usize].unwrap();
                let vertex_side = if v == 0 {
                    Side::Front
                } else {
                    res.assignment[v].unwrap().sink_side()
                };
                assert_eq!(
                    child_pat.root_side(),
                    vertex_side,
                    "side mismatch at vertex {v}"
                );
            }
        }
        // Leaf edges end on the front side.
        for (i, node) in topo.nodes.iter().enumerate() {
            if node.star.is_some() {
                assert_eq!(res.assignment[i].unwrap().sink_side(), Side::Front);
            }
        }
    }

    #[test]
    fn single_side_uses_only_front_patterns() {
        let (topo, tech) = small_topo();
        let cfg = DpConfig {
            single_side: true,
            ..DpConfig::default()
        };
        let res = solve(&topo, &tech, &cfg);
        for a in res.assignment.iter().flatten() {
            assert!(matches!(a, Pattern::Buffer | Pattern::WiringF));
        }
        for c in &res.root_candidates {
            assert_eq!(c.ntsvs, 0);
        }
    }

    #[test]
    fn double_side_beats_single_side_latency() {
        let (topo, tech) = small_topo();
        let min_lat = |cands: &[RootCand]| {
            cands
                .iter()
                .map(|c| c.latency_ps)
                .fold(f64::INFINITY, f64::min)
        };
        let ds = solve(&topo, &tech, &DpConfig::default());
        let ss = solve(
            &topo,
            &tech,
            &DpConfig {
                single_side: true,
                ..DpConfig::default()
            },
        );
        let (dl, sl) = (min_lat(&ds.root_candidates), min_lat(&ss.root_candidates));
        assert!(
            dl < sl,
            "double-side min latency {dl} should beat single-side {sl}"
        );
    }

    #[test]
    fn intra_side_rule_yields_no_ntsvs() {
        let (topo, tech) = small_topo();
        let cfg = DpConfig {
            mode_rule: ModeRule::AllIntraSide,
            ..DpConfig::default()
        };
        let res = solve(&topo, &tech, &cfg);
        assert!(res.root_candidates.iter().all(|c| c.ntsvs == 0));
    }

    #[test]
    fn fanout_threshold_interpolates() {
        let (topo, tech) = small_topo();
        let full = solve(&topo, &tech, &DpConfig::default());
        let tight = solve(
            &topo,
            &tech,
            &DpConfig {
                mode_rule: ModeRule::FanoutThreshold(1),
                ..DpConfig::default()
            },
        );
        // Threshold 1 puts everything except the designer-level top net
        // intra-side, so nTSV usage collapses toward the top-net minimum.
        let max_ntsvs = |r: &DpResult| r.root_candidates.iter().map(|c| c.ntsvs).max().unwrap();
        assert!(max_ntsvs(&tight) < max_ntsvs(&full));
        // Full mode finds nTSV-bearing candidates.
        assert!(full.root_candidates.iter().any(|c| c.ntsvs > 0));
        // AllIntraSide remains strictly front/back-side-free.
        let none = solve(
            &topo,
            &tech,
            &DpConfig {
                mode_rule: ModeRule::AllIntraSide,
                ..DpConfig::default()
            },
        );
        assert!(none.root_candidates.iter().all(|c| c.ntsvs == 0));
    }

    #[test]
    fn dp_with_precomputed_modes_matches_rule_path() {
        let (topo, tech) = small_topo();
        for rule in [
            ModeRule::AllFull,
            ModeRule::AllIntraSide,
            ModeRule::FanoutThreshold(64),
        ] {
            let cfg = DpConfig {
                mode_rule: rule,
                ..DpConfig::default()
            };
            let via_rule = solve(&topo, &tech, &cfg);
            let modes = mode_vector(&topo, rule);
            let via_modes = try_run_dp(&topo, &tech, &cfg, Some(&modes), None, None)
                .unwrap()
                .0;
            assert_eq!(via_rule.assignment, via_modes.assignment);
            assert_eq!(via_rule.root_candidates, via_modes.root_candidates);
            assert_eq!(via_rule.chosen, via_modes.chosen);
        }
        // The explicit vector overrides whatever rule the config carries.
        let all_intra = mode_vector(&topo, ModeRule::AllIntraSide);
        let forced = try_run_dp(
            &topo,
            &tech,
            &DpConfig::default(),
            Some(&all_intra),
            None,
            None,
        )
        .unwrap()
        .0;
        assert!(forced.root_candidates.iter().all(|c| c.ntsvs == 0));
    }

    #[test]
    fn mode_vector_respects_threshold_and_top_net() {
        let (topo, _) = small_topo();
        let fanout = topo.fanout();
        let total = fanout[0];
        let modes = mode_vector(&topo, ModeRule::FanoutThreshold(30));
        for (i, &m) in modes.iter().enumerate() {
            let expect = if fanout[i] < 30 || fanout[i] == total {
                Mode::Full
            } else {
                Mode::IntraSide
            };
            assert_eq!(m, expect, "node {i} fanout {}", fanout[i]);
        }
        assert!(modes.contains(&Mode::IntraSide));
    }

    #[test]
    fn moes_weights_steer_selection() {
        let (topo, tech) = small_topo();
        let latency_first = solve(
            &topo,
            &tech,
            &DpConfig {
                moes: MoesWeights {
                    alpha: 1.0,
                    beta: 0.0,
                    gamma: 0.0,
                    delta: 0.0,
                },
                ..DpConfig::default()
            },
        );
        let resource_first = solve(
            &topo,
            &tech,
            &DpConfig {
                moes: MoesWeights {
                    alpha: 0.0,
                    beta: 100.0,
                    gamma: 100.0,
                    delta: 0.0,
                },
                ..DpConfig::default()
            },
        );
        let lat_pick = latency_first.root_candidates[latency_first.chosen];
        let res_pick = resource_first.root_candidates[resource_first.chosen];
        assert!(lat_pick.latency_ps <= res_pick.latency_ps + 1e-9);
        assert!(
            res_pick.buffers + res_pick.ntsvs <= lat_pick.buffers + lat_pick.ntsvs,
            "resource-first pick should not use more resources"
        );
    }

    #[test]
    fn latency_only_prune_preserves_min_latency() {
        let (topo, tech) = small_topo();
        let mo = solve(&topo, &tech, &DpConfig::default());
        let lo = solve(
            &topo,
            &tech,
            &DpConfig {
                prune: PruneMode::LatencyOnly,
                max_cands: 256,
                ..DpConfig::default()
            },
        );
        let min = |r: &DpResult| {
            r.root_candidates
                .iter()
                .map(|c| c.latency_ps)
                .fold(f64::INFINITY, f64::min)
        };
        // Multi-objective pruning (with truncation) must not lose more than
        // a whisker of latency optimality.
        assert!(
            min(&mo) <= min(&lo) * 1.05 + 1e-9,
            "multi-objective min latency {} vs latency-only {}",
            min(&mo),
            min(&lo)
        );
    }

    #[test]
    fn frontier_none_is_bit_identical_and_cap_shrinks_memory() {
        let (topo, tech) = small_topo();
        let base = solve(&topo, &tech, &DpConfig::default());
        let explicit_none = solve(
            &topo,
            &tech,
            &DpConfig {
                frontier: None,
                ..DpConfig::default()
            },
        );
        assert_eq!(base.assignment, explicit_none.assignment);
        assert_eq!(base.root_candidates, explicit_none.root_candidates);
        assert_eq!(base.chosen, explicit_none.chosen);
        assert_eq!(base.stored_candidates, explicit_none.stored_candidates);
        // A cap wider than max_cands changes nothing either.
        let loose = solve(
            &topo,
            &tech,
            &DpConfig {
                frontier: Some(1 << 20),
                ..DpConfig::default()
            },
        );
        assert_eq!(base.assignment, loose.assignment);
        assert_eq!(base.stored_candidates, loose.stored_candidates);
        // On a shallow topology (max depth within
        // FRONTIER_FULL_DIVERSITY_DEPTH) even a tight cap never engages:
        // the run stays bit-identical, not merely equivalent.
        let tight = solve(
            &topo,
            &tech,
            &DpConfig {
                frontier: Some(8),
                ..DpConfig::default()
            },
        );
        assert_eq!(base.assignment, tight.assignment);
        assert_eq!(base.stored_candidates, tight.stored_candidates);
        // A finer subdivision drives the trunk chains past the
        // full-diversity depth; there the tight cap bounds the
        // stored-candidate footprint but still produces a complete,
        // feasible assignment.
        let d = BenchmarkSpec::c4_riscv32i().generate();
        let mut deep_topo = HierarchicalRouter::new().try_route(&d, &tech).unwrap();
        deep_topo.subdivide(2_000);
        let deep_base = solve(&deep_topo, &tech, &DpConfig::default());
        let deep_tight = solve(
            &deep_topo,
            &tech,
            &DpConfig {
                frontier: Some(8),
                ..DpConfig::default()
            },
        );
        assert!(
            deep_tight.stored_candidates < deep_base.stored_candidates,
            "cap 8 should store fewer candidates on deep chains ({} vs {})",
            deep_tight.stored_candidates,
            deep_base.stored_candidates
        );
        for a in deep_tight.assignment.iter().skip(1) {
            assert!(a.is_some());
        }
    }

    #[test]
    fn root_candidate_diversity_in_double_side() {
        // Fig. 10's premise: the double-side root set spans a wider
        // resource range than the single-side one.
        let (topo, tech) = small_topo();
        let ds = solve(&topo, &tech, &DpConfig::default());
        let spread = |cands: &[RootCand]| {
            let lo = cands.iter().map(|c| c.buffers + c.ntsvs).min().unwrap();
            let hi = cands.iter().map(|c| c.buffers + c.ntsvs).max().unwrap();
            hi - lo
        };
        assert!(
            spread(&ds.root_candidates) > 0,
            "double-side root set should trade resources"
        );
    }
}
