//! The synthesized double-side clock tree and its evaluation.
//!
//! A [`SynthesizedTree`] is a routed [`ClockTopo`] whose trunk edges carry
//! [`Pattern`]s (the DP's output) plus optional skew-refinement buffers at
//! the low-level centroids (§III-D). Evaluation walks the tree twice —
//! bottom-up for effective capacitances (buffers shield, nTSVs do not),
//! top-down for arrivals — under either the L-type Elmore model used inside
//! the DP or the NLDM + slew-propagation model used for final sign-off
//! numbers (§IV-A).

use crate::error::CtsError;
use crate::pattern::Pattern;
use crate::tree::ClockTopo;
use dscts_geom::Point;
use dscts_tech::{Side, Technology};
use dscts_timing::{wire_slew, ArrivalStats};
use std::fmt;

/// Delay model used by [`SynthesizedTree::evaluate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EvalModel {
    /// L-type Elmore everywhere; linearised buffer delay. Matches the DP's
    /// internal arithmetic exactly.
    #[default]
    Elmore,
    /// NLDM table lookup for buffer delay/output-slew, PERI slew
    /// propagation along wires; wire delay remains Elmore.
    Nldm,
}

/// Quality metrics of a synthesized tree (one row of Table III).
#[derive(Debug, Clone, PartialEq)]
pub struct TreeMetrics {
    /// Max source-to-sink delay (ps), including the root driver.
    pub latency_ps: f64,
    /// Max minus min sink arrival (ps).
    pub skew_ps: f64,
    /// Total buffers: root driver + pattern buffers + refinement buffers.
    pub buffers: u32,
    /// Total nTSVs.
    pub ntsvs: u32,
    /// Total clock wirelength (nm), electrical (includes balancing snake
    /// wire).
    pub wirelength_nm: i64,
    /// Trunk wirelength only (nm) — the inter-buffer "clock net" metal,
    /// the paper's Clk WL granularity.
    pub trunk_wirelength_nm: i64,
    /// Total switched capacitance of the clock network (fF): wires, sink
    /// pins, buffer inputs and nTSVs. The clock toggles every cycle, so
    /// dynamic clock power is `C·V²·f` over this capacitance.
    pub switched_cap_ff: f64,
    /// Cell area of all inserted buffers and nTSVs (nm²).
    pub cell_area_nm2: i64,
    /// Worst transition time at any sink (ps).
    pub max_sink_slew_ps: f64,
    /// Per-sink arrival times (ps), indexed by global sink id.
    pub arrivals: Vec<f64>,
}

impl TreeMetrics {
    /// Summary statistics over the arrivals.
    pub fn stats(&self) -> ArrivalStats {
        ArrivalStats::from_arrivals(self.arrivals.iter().copied()).expect("non-empty arrivals")
    }

    /// Dynamic clock-network power `C·V²·f` in µW — fF · V² · GHz = µW
    /// (the clock switches its full capacitance every cycle; no activity
    /// derating).
    pub fn clock_power_uw(&self, vdd_v: f64, freq_ghz: f64) -> f64 {
        self.switched_cap_ff * vdd_v * vdd_v * freq_ghz
    }
}

impl fmt::Display for TreeMetrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "latency {:.3} ps | skew {:.3} ps | buffers {} | nTSVs {} | WL {:.3}e6 nm",
            self.latency_ps,
            self.skew_ps,
            self.buffers,
            self.ntsvs,
            self.wirelength_nm as f64 / 1e6
        )
    }
}

/// A clock tree with patterns assigned to every trunk edge.
#[derive(Debug, Clone, PartialEq)]
pub struct SynthesizedTree {
    /// The routed geometry.
    pub topo: ClockTopo,
    /// Pattern of each trunk node's incoming edge (`None` for node 0).
    pub patterns: Vec<Option<Pattern>>,
    /// Per-star flag: a skew-refinement buffer drives this leaf star.
    pub star_buffers: Vec<bool>,
    /// Drive-strength scale of the buffer embedded in each edge (1.0 =
    /// the library cell as inserted; adjusted by [`crate::sizing`]).
    pub buffer_scales: Vec<f64>,
}

impl SynthesizedTree {
    /// Wraps a routed topology with a pattern assignment.
    ///
    /// # Panics
    ///
    /// Panics if the assignment arity disagrees with the topology.
    pub fn new(topo: ClockTopo, patterns: Vec<Option<Pattern>>) -> Self {
        assert_eq!(topo.nodes.len(), patterns.len(), "assignment arity");
        let star_buffers = vec![false; topo.stars.len()];
        let buffer_scales = vec![1.0; topo.nodes.len()];
        SynthesizedTree {
            topo,
            patterns,
            star_buffers,
            buffer_scales,
        }
    }

    /// Buffers inserted by patterns and refinement (excluding root driver).
    pub fn inserted_buffers(&self) -> u32 {
        self.patterns
            .iter()
            .flatten()
            .map(|p| p.buffers())
            .sum::<u32>()
            + self.star_buffers.iter().filter(|&&b| b).count() as u32
    }

    /// Total nTSVs inserted by patterns.
    pub fn inserted_ntsvs(&self) -> u32 {
        self.patterns.iter().flatten().map(|p| p.ntsvs()).sum()
    }

    /// Placement sites of all buffers (root driver first, then mid-edge
    /// pattern buffers, then refinement buffers at centroids).
    pub fn buffer_sites(&self) -> Vec<Point> {
        let mut sites = vec![self.topo.nodes[0].pos];
        for (i, p) in self.patterns.iter().enumerate() {
            if p.is_some_and(|p| p.buffers() > 0) {
                let n = &self.topo.nodes[i];
                let ppos = self.topo.nodes[n.parent.expect("non-root") as usize].pos;
                let half = ppos.manhattan(n.pos) / 2;
                sites.push(ppos.walk_toward(n.pos, half));
            }
        }
        for (s, &has) in self.topo.stars.iter().zip(&self.star_buffers) {
            if has {
                sites.push(self.topo.nodes[s.node as usize].pos);
            }
        }
        sites
    }

    /// Placement sites of all nTSVs (at the edge endpoints that flip side).
    pub fn ntsv_sites(&self) -> Vec<Point> {
        let mut sites = Vec::new();
        for (i, p) in self.patterns.iter().enumerate() {
            let Some(p) = *p else { continue };
            let n = &self.topo.nodes[i];
            let ppos = self.topo.nodes[n.parent.expect("non-root") as usize].pos;
            match p {
                Pattern::Ntsv1 => {
                    sites.push(ppos);
                    sites.push(n.pos);
                }
                Pattern::Ntsv2 => sites.push(n.pos),
                Pattern::Ntsv3 => sites.push(ppos),
                Pattern::BufNtsv | Pattern::NtsvBuf => {
                    let half = ppos.manhattan(n.pos) / 2;
                    sites.push(ppos.walk_toward(n.pos, half));
                }
                _ => {}
            }
        }
        sites
    }

    /// Checks the connectivity (side-consistency) constraint of §III-C:
    /// every shared vertex has a single side, leaf stars and the clock root
    /// are on the front side.
    pub fn validate_sides(&self) -> Result<(), String> {
        let csr = self.topo.csr();
        for v in 0..self.topo.nodes.len() {
            let vertex_side = if v == 0 {
                Side::Front
            } else {
                match self.patterns[v] {
                    Some(p) => p.sink_side(),
                    None => return Err(format!("edge into node {v} unassigned")),
                }
            };
            if self.topo.nodes[v].star.is_some() && vertex_side != Side::Front {
                return Err(format!("leaf centroid {v} not on the front side"));
            }
            for &c in csr.children(v as u32) {
                let cp = self.patterns[c as usize]
                    .ok_or_else(|| format!("edge into node {c} unassigned"))?;
                if cp.root_side() != vertex_side {
                    return Err(format!(
                        "vertex {v}: child edge {c} starts on {} but vertex is {}",
                        cp.root_side(),
                        vertex_side
                    ));
                }
            }
        }
        Ok(())
    }

    /// Evaluates latency, skew, resource usage and wirelength.
    ///
    /// # Panics
    ///
    /// Panics if any edge lacks a pattern, or if an assigned pattern is
    /// electrically infeasible under `tech`. The latter cannot happen
    /// under the technology the DP selected the patterns with, but *can*
    /// under a different (derated corner) technology — use
    /// [`SynthesizedTree::try_evaluate`] there.
    pub fn evaluate(&self, tech: &Technology, model: EvalModel) -> TreeMetrics {
        self.try_evaluate(tech, model)
            .expect("chosen pattern feasible")
    }

    /// Fallible [`SynthesizedTree::evaluate`]: reports a typed
    /// [`CtsError::NoFeasiblePattern`] naming the offending edge when an
    /// assigned pattern is electrically infeasible under `tech`.
    ///
    /// This is the corner sign-off case: a derated corner raises wire
    /// and pin capacitances, so a pattern the DP chose right up against
    /// its buffer's max-load budget at nominal can overload that buffer
    /// at the corner. Corner-evaluation paths must treat this as a
    /// data-dependent infeasibility (it is recoverable — relaxations
    /// change the pattern assignment), not as a crash.
    ///
    /// # Panics
    ///
    /// Panics if any edge lacks a pattern (a structural invariant,
    /// independent of `tech`).
    pub fn try_evaluate(
        &self,
        tech: &Technology,
        model: EvalModel,
    ) -> Result<TreeMetrics, CtsError> {
        let topo = &self.topo;
        let csr = topo.csr();
        let order = csr.order();
        let rc_front = tech.rc(Side::Front);
        let buf = tech.buffer();

        // Star loads (and whether a refinement buffer shields them).
        let n = topo.nodes.len();
        let star_load = star_loads(topo, tech);

        // Bottom-up: effective capacitance at each vertex.
        let mut cap = vec![0.0f64; n];
        for &v in order.iter().rev() {
            let vu = v as usize;
            if let Some(si) = topo.nodes[vu].star {
                cap[vu] += if self.star_buffers[si as usize] {
                    buf.input_cap_ff()
                } else {
                    star_load[si as usize]
                };
            }
            for &c in csr.children(v) {
                let cu = c as usize;
                let p = self.patterns[cu].expect("assigned pattern");
                let ev = p
                    .eval_scaled(
                        topo.nodes[cu].edge_len,
                        cap[cu],
                        tech,
                        self.buffer_scales[cu],
                    )
                    .ok_or(CtsError::NoFeasiblePattern {
                        node: c,
                        edge_len_nm: topo.nodes[cu].edge_len,
                    })?;
                cap[vu] += ev.up_cap_ff;
            }
        }

        // Top-down: arrival and slew at each vertex.
        let mut arr = vec![0.0f64; n];
        let mut slew = vec![0.0f64; n];
        let nominal = buf.nominal_slew_ps();
        arr[0] = match model {
            EvalModel::Elmore => buf.delay_ps(cap[0]),
            EvalModel::Nldm => buf.delay_nldm_ps(nominal, cap[0]),
        };
        slew[0] = buf.output_slew_ps(nominal, cap[0]);
        for &v in order {
            let vu = v as usize;
            for &c in csr.children(v) {
                let cu = c as usize;
                let p = self.patterns[cu].expect("assigned pattern");
                // Identical call to the bottom-up pass (the cap vector is
                // fixed by now), which already vetted feasibility.
                let ev = p
                    .eval_scaled(
                        topo.nodes[cu].edge_len,
                        cap[cu],
                        tech,
                        self.buffer_scales[cu],
                    )
                    .expect("feasibility vetted bottom-up");
                match (model, ev.stage) {
                    (EvalModel::Elmore, _) => {
                        arr[cu] = arr[vu] + ev.delay_ps;
                        slew[cu] = wire_slew(slew[vu], ev.delay_ps);
                    }
                    (EvalModel::Nldm, None) => {
                        arr[cu] = arr[vu] + ev.delay_ps;
                        slew[cu] = wire_slew(slew[vu], ev.delay_ps);
                    }
                    (EvalModel::Nldm, Some(st)) => {
                        let slew_in = wire_slew(slew[vu], st.pre_delay_ps);
                        let d_buf = buf.delay_nldm_ps(slew_in, st.load_ff);
                        arr[cu] = arr[vu] + st.pre_delay_ps + d_buf + st.post_delay_ps;
                        slew[cu] =
                            wire_slew(buf.output_slew_ps(slew_in, st.load_ff), st.post_delay_ps);
                    }
                }
            }
        }

        // Sinks: through the star (and the refinement buffer when present).
        let mut arrivals = vec![0.0f64; topo.sink_pos.len()];
        let mut max_sink_slew = 0.0f64;
        for (si, s) in topo.stars.iter().enumerate() {
            let v = s.node as usize;
            let mut base = arr[v];
            let mut base_slew = slew[v];
            if self.star_buffers[si] {
                let slew_in = slew[v];
                base += match model {
                    EvalModel::Elmore => buf.delay_ps(star_load[si]),
                    EvalModel::Nldm => buf.delay_nldm_ps(slew_in, star_load[si]),
                };
                base_slew = buf.output_slew_ps(slew_in, star_load[si]);
            }
            for (&sk, &len) in s.sinks.iter().zip(&s.branch_len) {
                let d = rc_front.res(len) * (rc_front.cap(len) + topo.sink_cap[sk as usize]);
                arrivals[sk as usize] = base + d;
                max_sink_slew = max_sink_slew.max(wire_slew(base_slew, d));
            }
        }

        let res = resources(self, tech);
        let stats = ArrivalStats::from_arrivals(arrivals.iter().copied())
            .expect("designs have at least one sink");
        Ok(TreeMetrics {
            latency_ps: stats.latency(),
            skew_ps: stats.skew(),
            buffers: res.buffers,
            ntsvs: res.ntsvs,
            wirelength_nm: topo.total_wirelength(),
            trunk_wirelength_nm: topo.trunk_wirelength(),
            switched_cap_ff: res.switched_cap_ff,
            cell_area_nm2: res.cell_area_nm2,
            max_sink_slew_ps: max_sink_slew,
            arrivals,
        })
    }
}

/// Per-star load capacitance: branch wire plus sink pins, in sink order.
/// Shared by [`SynthesizedTree::evaluate`] and
/// [`crate::incremental::IncrementalEval`] so both sum in the same order
/// (bit-identical floats).
pub(crate) fn star_loads(topo: &ClockTopo, tech: &Technology) -> Vec<f64> {
    let rc_front = tech.rc(Side::Front);
    topo.stars
        .iter()
        .map(|s| {
            s.sinks
                .iter()
                .zip(&s.branch_len)
                .map(|(&sk, &len)| rc_front.cap(len) + topo.sink_cap[sk as usize])
                .sum()
        })
        .collect()
}

/// Resource/capacitance summary of a synthesized tree (the arrival-
/// independent half of [`TreeMetrics`]).
pub(crate) struct Resources {
    pub buffers: u32,
    pub ntsvs: u32,
    pub switched_cap_ff: f64,
    pub cell_area_nm2: i64,
}

/// Switched capacitance and cell area of the whole network. Shared by the
/// batch and incremental evaluators: a single summation order keeps their
/// metrics bit-identical.
pub(crate) fn resources(tree: &SynthesizedTree, tech: &Technology) -> Resources {
    let topo = &tree.topo;
    let buf = tech.buffer();
    let rc_front = tech.rc(Side::Front);
    let mut switched_cap = buf.input_cap_ff(); // root driver input pin
    let (bw, bh) = buf.footprint_nm();
    let (vw, vh) = tech.ntsv().footprint_nm();
    let buffers = 1 + tree.inserted_buffers();
    let ntsvs = tree.inserted_ntsvs();
    let cell_area_nm2 = buffers as i64 * bw * bh + ntsvs as i64 * vw * vh;
    switched_cap +=
        f64::from(buffers - 1) * buf.input_cap_ff() + f64::from(ntsvs) * tech.ntsv().cap_ff();
    for (i, p) in tree.patterns.iter().enumerate() {
        if let Some(p) = p {
            switched_cap += p.wire_cap_ff(topo.nodes[i].edge_len, tech);
        }
    }
    for s in &topo.stars {
        for (&sk, &len) in s.sinks.iter().zip(&s.branch_len) {
            switched_cap += rc_front.cap(len) + topo.sink_cap[sk as usize];
        }
    }
    Resources {
        buffers,
        ntsvs,
        switched_cap_ff: switched_cap,
        cell_area_nm2,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dp::{try_run_dp, DpConfig};
    use crate::route::HierarchicalRouter;
    use dscts_netlist::BenchmarkSpec;

    fn synth(single_side: bool) -> (SynthesizedTree, Technology) {
        let d = BenchmarkSpec::c4_riscv32i().generate();
        let tech = Technology::asap7();
        let mut topo = HierarchicalRouter::new().try_route(&d, &tech).unwrap();
        topo.subdivide(20_000);
        let cfg = DpConfig {
            single_side,
            ..DpConfig::default()
        };
        let res = try_run_dp(&topo, &tech, &cfg, None, None, None).unwrap().0;
        (SynthesizedTree::new(topo, res.assignment), tech)
    }

    #[test]
    fn synthesized_tree_is_legal_and_evaluates() {
        let (tree, tech) = synth(false);
        assert_eq!(tree.validate_sides(), Ok(()));
        let m = tree.evaluate(&tech, EvalModel::Elmore);
        assert!(m.latency_ps > 0.0);
        assert!(m.skew_ps >= 0.0);
        assert!(m.buffers >= 1);
        assert_eq!(m.arrivals.len(), 1056);
        assert!(m.latency_ps < 1_000.0, "latency {} ps absurd", m.latency_ps);
    }

    #[test]
    fn dp_root_latency_matches_evaluator() {
        // The DP's internal latency bookkeeping must agree with the
        // independent tree evaluation under the same (Elmore) model.
        let d = BenchmarkSpec::c4_riscv32i().generate();
        let tech = Technology::asap7();
        let mut topo = HierarchicalRouter::new().try_route(&d, &tech).unwrap();
        topo.subdivide(20_000);
        let res = try_run_dp(&topo, &tech, &DpConfig::default(), None, None, None)
            .unwrap()
            .0;
        let picked = res.root_candidates[res.chosen];
        let tree = SynthesizedTree::new(topo, res.assignment);
        let m = tree.evaluate(&tech, EvalModel::Elmore);
        assert!(
            (m.latency_ps - picked.latency_ps).abs() < 0.5,
            "DP {} vs eval {}",
            picked.latency_ps,
            m.latency_ps
        );
        assert_eq!(m.buffers, picked.buffers + 1); // + root driver
        assert_eq!(m.ntsvs, picked.ntsvs);
    }

    #[test]
    fn nldm_eval_is_close_to_elmore_at_nominal() {
        let (tree, tech) = synth(false);
        let e = tree.evaluate(&tech, EvalModel::Elmore);
        let n = tree.evaluate(&tech, EvalModel::Nldm);
        let rel = (e.latency_ps - n.latency_ps).abs() / e.latency_ps;
        assert!(
            rel < 0.25,
            "Elmore {} vs NLDM {}",
            e.latency_ps,
            n.latency_ps
        );
        assert_eq!(e.buffers, n.buffers);
    }

    #[test]
    fn star_buffer_shields_and_delays() {
        let (mut tree, tech) = synth(false);
        let before = tree.evaluate(&tech, EvalModel::Elmore);
        // Find the star whose sinks arrive earliest and buffer it.
        let earliest = {
            let mut best = (0usize, f64::INFINITY);
            for (si, s) in tree.topo.stars.iter().enumerate() {
                let a = before.arrivals[s.sinks[0] as usize];
                if a < best.1 {
                    best = (si, a);
                }
            }
            best.0
        };
        tree.star_buffers[earliest] = true;
        let after = tree.evaluate(&tech, EvalModel::Elmore);
        assert_eq!(after.buffers, before.buffers + 1);
        let s0 = tree.topo.stars[earliest].sinks[0] as usize;
        assert!(after.arrivals[s0] > before.arrivals[s0]);
    }

    #[test]
    fn sites_are_consistent_with_counts() {
        let (tree, tech) = synth(false);
        let m = tree.evaluate(&tech, EvalModel::Elmore);
        assert_eq!(tree.buffer_sites().len() as u32, m.buffers);
        // P7/P8 collapse two ends to one site; base patterns do not.
        assert_eq!(tree.ntsv_sites().len() as u32, m.ntsvs);
    }

    #[test]
    fn validate_sides_catches_corruption() {
        let (mut tree, _) = synth(false);
        // Force a back-side wire directly under the (front) root vertex.
        let root_child = tree.topo.csr().children(0)[0] as usize;
        tree.patterns[root_child] = Some(Pattern::WiringB);
        assert!(tree.validate_sides().is_err());
    }

    #[test]
    fn single_side_tree_has_no_ntsvs() {
        let (tree, tech) = synth(true);
        let m = tree.evaluate(&tech, EvalModel::Elmore);
        assert_eq!(m.ntsvs, 0);
        assert!(tree.ntsv_sites().is_empty());
    }

    #[test]
    fn metrics_display_is_readable() {
        let (tree, tech) = synth(true);
        let m = tree.evaluate(&tech, EvalModel::Elmore);
        let s = m.to_string();
        assert!(s.contains("latency") && s.contains("nTSVs"));
    }
}
