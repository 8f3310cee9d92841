//! Design-choice ablations beyond the paper's figures:
//!
//! 1. **Pruning discipline** — the paper's latency-optimal rule versus the
//!    4-D multi-objective rule, at several candidate caps;
//! 2. **Pattern alphabet** — base P1–P6 versus the extended buffered-nTSV
//!    patterns P7/P8 (a future-work direction of §V);
//! 3. **MOES skew term** — adding δ·skew to Eq. (3);
//! 4. **DP granularity** — the trunk segmentation length;
//! 5. **Routing style** — hierarchical DME versus flat matching DME
//!    (the Fig. 5 wirelength argument).
//!
//! Run with `cargo run --release -p dscts-bench --bin ablations`.

use dscts_bench::{fmt_ps, fmt_wl, write_csv, TextTable};
use dscts_core::{DsCts, MoesWeights, PatternSet, PruneMode, RoutingStyle};
use dscts_netlist::BenchmarkSpec;
use dscts_tech::Technology;

fn main() {
    let tech = Technology::asap7();
    let design = BenchmarkSpec::c3_ethmac().generate();
    let mut csv = Vec::new();

    let mut table = TextTable::new([
        "Ablation",
        "Config",
        "Latency(ps)",
        "Skew(ps)",
        "Buffers",
        "nTSVs",
        "WL(e6)",
        "RT(s)",
    ]);
    let mut run = |ablation: &str, config: &str, pipe: DsCts| {
        let o = pipe.run(&design);
        let m = &o.metrics;
        let row = vec![
            ablation.to_owned(),
            config.to_owned(),
            fmt_ps(m.latency_ps),
            fmt_ps(m.skew_ps),
            m.buffers.to_string(),
            m.ntsvs.to_string(),
            fmt_wl(m.wirelength_nm),
            format!("{:.3}", o.runtime_s),
        ];
        table.row(row.clone());
        csv.push(row);
    };

    // 1. Pruning discipline.
    for (name, prune, k) in [
        ("latency-only k=64", PruneMode::LatencyOnly, 64),
        ("multi-objective k=64", PruneMode::MultiObjective, 64),
        ("multi-objective k=16", PruneMode::MultiObjective, 16),
        ("multi-objective k=128", PruneMode::MultiObjective, 128),
    ] {
        run(
            "pruning",
            name,
            DsCts::new(tech.clone()).prune(prune).max_candidates(k),
        );
    }

    // 2. Pattern alphabet.
    run("patterns", "base P1-P6", DsCts::new(tech.clone()));
    run(
        "patterns",
        "extended +P7/P8",
        DsCts::new(tech.clone()).patterns(PatternSet::Extended),
    );

    // 3. MOES skew term.
    for delta in [0.0, 1.0, 5.0] {
        run(
            "moes-skew",
            &format!("delta={delta}"),
            DsCts::new(tech.clone()).moes(MoesWeights {
                delta,
                ..MoesWeights::default()
            }),
        );
    }

    // 4. DP granularity.
    for seg in [20_000i64, 40_000, 80_000] {
        run(
            "segmentation",
            &format!("{} um", seg / 1000),
            DsCts::new(tech.clone()).max_segment(seg),
        );
    }

    // 5. Routing style.
    run(
        "routing",
        "hierarchical",
        DsCts::new(tech.clone()).routing_style(RoutingStyle::Hierarchical),
    );
    run(
        "routing",
        "flat matching",
        DsCts::new(tech.clone()).routing_style(RoutingStyle::FlatMatching),
    );

    println!("{}", table.render());
    let path = write_csv(
        "ablations.csv",
        &[
            "ablation",
            "config",
            "latency_ps",
            "skew_ps",
            "buffers",
            "ntsvs",
            "wl_e6nm",
            "rt_s",
        ],
        &csv,
    );
    println!("CSV written to {}", path.display());
}
