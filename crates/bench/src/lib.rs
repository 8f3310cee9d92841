//! Paper experiment regenerators and the release quality gates.
//!
//! Each binary in `src/bin/` regenerates one table or figure of the paper,
//! or one study beyond it; this table is the experiment index:
//!
//! | binary      | artifact  | what it reproduces                          |
//! |-------------|-----------|---------------------------------------------|
//! | `table3`    | Table III | main comparison across C1–C5 and all flows  |
//! | `fig8`      | Fig. 8    | adaptive scale factor t(N)                   |
//! | `fig10`     | Fig. 10   | MOES effectiveness on C3 (root clouds)       |
//! | `fig11`     | Fig. 11   | skew-refinement ablation                     |
//! | `fig12`     | Fig. 12   | DSE Pareto comparison on C3                  |
//! | `ablations` | —         | design-choice ablations (pruning, patterns…) |
//! | `scaling`   | —         | quality and runtime versus sink count        |
//!
//! Binaries print human-readable tables and write CSV series under
//! `results/`.
//!
//! Performance is measured by the repository benchmark (`benchmark/`, one
//! schema for end-to-end and per-layer numbers; its `opt.optimize_s` and
//! `opt.sizing_s` layers time the optimization passes). The quality gates
//! that must hold on every change — committed topology digests and flow
//! quality, annealed-versus-greedy sizing, robust-versus-nominal MCMM and
//! the n log n stage-scaling check — live in `tests/gates.rs`.

use dscts_core::{try_run_dp, DpConfig, HierarchicalRouter, MoesWeights, SynthesizedTree};
use dscts_netlist::{BenchmarkSpec, Design};
use dscts_tech::Technology;
use rayon::prelude::*;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Generates all five Table II designs (order C1..C5). Generation is
/// per-design deterministic and independent, so it fans out across
/// threads; the collect preserves C1..C5 order.
pub fn all_designs() -> Vec<Design> {
    let specs = BenchmarkSpec::all();
    specs.par_iter().map(|s| s.generate()).collect()
}

/// The design ids as used in the paper.
pub const DESIGN_IDS: [&str; 5] = ["C1", "C2", "C3", "C4", "C5"];

/// A post-CTS optimization workload: the given design routed and
/// DP-assigned with latency-greedy MOES weights, which leaves skew on the
/// table so the sizing and refinement passes do real work. Shared by the
/// `no_alloc_hot_loop` test and the sizing and MCMM gates in
/// `tests/gates.rs`, so they all exercise the *same* workloads.
pub fn sizing_workload(spec: &BenchmarkSpec) -> (SynthesizedTree, Technology) {
    let tech = Technology::asap7();
    let design = spec.generate();
    let cfg = DpConfig {
        moes: MoesWeights {
            alpha: 1.0,
            beta: 0.0,
            gamma: 0.0,
            delta: 0.0,
        },
        ..DpConfig::default()
    };
    let mut topo = HierarchicalRouter::new()
        .try_route(&design, &tech)
        .expect("benchmark designs route");
    topo.subdivide(40_000);
    let (res, _) = try_run_dp(&topo, &tech, &cfg, None, None, None)
        .expect("latency-greedy DP is feasible on benchmark designs");
    (SynthesizedTree::new(topo, res.assignment), tech)
}

/// The Fig. 12 fanout-threshold grid (20..=1000) at the given step. The
/// paper's sweep uses step 10 (99 configurations); `fig12 --quick`
/// coarsens it.
pub fn fig12_thresholds(step: usize) -> Vec<u32> {
    (20..=1000).step_by(step).collect()
}

/// Returns (creating if needed) the `results/` output directory.
pub fn results_dir() -> PathBuf {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root")
        .join("results");
    std::fs::create_dir_all(&dir).expect("create results dir");
    dir
}

/// Writes a CSV file under `results/`.
pub fn write_csv(name: &str, header: &[&str], rows: &[Vec<String>]) -> PathBuf {
    let path = results_dir().join(name);
    let mut text = header.join(",");
    text.push('\n');
    for row in rows {
        text.push_str(&row.join(","));
        text.push('\n');
    }
    std::fs::write(&path, text).expect("write csv");
    path
}

/// A fixed-width text table for terminal output.
#[derive(Debug, Default)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>>(header: impl IntoIterator<Item = S>) -> Self {
        TextTable {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header arity).
    pub fn row<S: Into<String>>(&mut self, cells: impl IntoIterator<Item = S>) {
        let row: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(row.len(), self.header.len(), "row arity");
        self.rows.push(row);
    }

    /// Renders with padded columns.
    pub fn render(&self) -> String {
        let ncol = self.header.len();
        let mut width = vec![0usize; ncol];
        for (i, h) in self.header.iter().enumerate() {
            width[i] = h.len();
        }
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                width[i] = width[i].max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], width: &[usize], out: &mut String| {
            for (i, c) in cells.iter().enumerate() {
                let _ = write!(out, "{:>w$}  ", c, w = width[i]);
            }
            out.push('\n');
        };
        fmt_row(&self.header, &width, &mut out);
        let total: usize = width.iter().sum::<usize>() + 2 * ncol;
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            fmt_row(row, &width, &mut out);
        }
        out
    }
}

/// Geometric mean of positive ratios (the paper's "Ratio" row style).
pub fn geomean(vals: impl IntoIterator<Item = f64>) -> f64 {
    let mut log_sum = 0.0;
    let mut n = 0usize;
    for v in vals {
        assert!(v > 0.0, "geomean needs positive values");
        log_sum += v.ln();
        n += 1;
    }
    if n == 0 {
        return f64::NAN;
    }
    (log_sum / n as f64).exp()
}

/// Formats picoseconds / counts / 1e6-nm consistently with the paper.
pub fn fmt_ps(v: f64) -> String {
    format!("{v:.3}")
}

/// Formats wirelength as `×10^6` nm.
pub fn fmt_wl(nm: i64) -> String {
    format!("{:.3}", nm as f64 / 1e6)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_of_equal_values() {
        assert!((geomean([2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn table_renders_aligned() {
        let mut t = TextTable::new(["a", "bb"]);
        t.row(["1", "22"]);
        let s = t.render();
        assert!(s.contains("a"));
        assert!(s.lines().count() == 3);
    }

    #[test]
    fn all_designs_match_table2() {
        let d = all_designs();
        assert_eq!(d.len(), 5);
        assert_eq!(d[0].sink_count(), 4380);
        assert_eq!(d[1].sink_count(), 14338);
    }
}
