//! `dscts` — command-line double-side CTS driver.
//!
//! Reads a placed DEF (or generates a named Table II benchmark), runs the
//! selected flow, prints the quality report, and optionally writes the
//! post-CTS DEF with the inserted clock cells.
//!
//! ```text
//! USAGE:
//!   dscts --design <c1|c2|c3|c4|c5>          run a built-in benchmark
//!   dscts --def <placed.def>                 run on a placed DEF file
//!   dscts --design c3 --sweep 10             exact DSE threshold sweep
//!   dscts --train log.jsonl --model m.json   train a metric predictor
//!   dscts --design c3 --predict --model m.json   predictor-pruned sweep
//!
//! OPTIONS:
//!   --flow <ours|front|openroad|flip2|flip7|flip6>   flow to run   [ours]
//!   --fanout <N>       DSE fanout threshold (full/intra mode split)
//!   --out <file.def>   write the post-CTS DEF
//!   --nldm             evaluate with NLDM + slew instead of Elmore
//!   --size             run the post-CTS buffer-sizing pass
//!   --deadline-ms <N>  wall-clock run budget (degraded-but-valid on expiry)
//!   --recover          retry infeasible runs down the relaxation ladder
//!   --telemetry <file> write a JSON-lines telemetry snapshot of the run
//!   --sweep <step>     sweep fanout thresholds 20..=1000 by <step>
//!   --train <jsonl>    train on a telemetry log (requires --model)
//!   --predict          prune the sweep with a trained --model
//!   --model <file>     model file to write (--train) or read (--predict)
//!   --gbdt             train the GBDT ensemble instead of ridge
//!   --seed <N>         training seed (default 7)
//! ```

use dscts::baseline::{flip_backside, FlipMethod, HTreeCts};
use dscts::core::opt::PassManager;
use dscts::core::sizing::SizingPass;
use dscts::netlist::def::{parse_def, write_def_with_extras, ExtraComponent};
use dscts::{
    BenchmarkSpec, Design, DsCts, EvalModel, IncrementalEval, ModeRule, OptSchedule,
    RecoveryPolicy, RunBudget, Technology,
};
use std::process::ExitCode;
use std::time::Duration;

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!("run with --help for usage");
            ExitCode::FAILURE
        }
    }
}

fn run() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        print!("{}", USAGE);
        return Ok(());
    }
    let get = |flag: &str| -> Option<String> {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1).cloned())
    };
    let has = |flag: &str| args.iter().any(|a| a == flag);

    // Observability: with --telemetry, the whole run executes under a
    // live collector and the snapshot (stage/pass/DP span histograms,
    // counters, peak RSS) is written as JSON lines at exit.
    let telemetry_out = get("--telemetry");
    let collector = telemetry_out
        .is_some()
        .then(|| std::sync::Arc::new(dscts::telemetry::Telemetry::new()));
    let _telemetry_guard = collector
        .as_ref()
        .map(|c| dscts::telemetry::install(std::sync::Arc::clone(c)));

    // Model training runs standalone — no design, just a JSONL telemetry
    // log from a previous `--sweep --telemetry` run (or the service).
    if let Some(data_path) = get("--train") {
        return train_model(&data_path, get("--model"), has("--gbdt"), get("--seed"));
    }

    let design = load_design(get("--design"), get("--def"))?;
    let tech = Technology::asap7();
    let model = if has("--nldm") {
        EvalModel::Nldm
    } else {
        EvalModel::Elmore
    };
    let flow = get("--flow").unwrap_or_else(|| "ours".to_owned());

    println!(
        "design {}: {} sinks, core {:.0} x {:.0} um",
        design.name,
        design.sink_count(),
        design.core.width() as f64 / 1000.0,
        design.core.height() as f64 / 1000.0
    );

    let mut pipeline = DsCts::new(tech.clone()).eval_model(model);
    if let Some(f) = get("--fanout") {
        let t: u32 = f.parse().map_err(|_| format!("bad --fanout value `{f}`"))?;
        pipeline = pipeline.mode_rule(ModeRule::FanoutThreshold(t));
    }
    if let Some(ms) = get("--deadline-ms") {
        let ms: u64 = ms
            .parse()
            .map_err(|_| format!("bad --deadline-ms value `{ms}`"))?;
        pipeline = pipeline.budget(RunBudget::new().with_deadline(Duration::from_millis(ms)));
    }
    if has("--recover") {
        pipeline = pipeline.recovery(RecoveryPolicy::default());
    }

    // DSE sweeps: `--sweep` runs the exact batched engine (recording
    // per-class training rows when --telemetry is set); `--predict`
    // prunes the same grid with a trained model instead.
    if has("--predict") || get("--sweep").is_some() {
        let step: usize = match get("--sweep") {
            Some(s) => s.parse().map_err(|_| format!("bad --sweep value `{s}`"))?,
            None => 10,
        };
        if step == 0 {
            return Err("--sweep step must be positive".to_owned());
        }
        let thresholds: Vec<u32> = (20..=1000).step_by(step).collect();
        let base = DsCts::new(tech.clone()).eval_model(model);
        let engine = dscts::core::dse::SweepEngine::new(&base);
        let frontier = if has("--predict") {
            let model_path = get("--model").ok_or("--predict requires --model <file>")?;
            let text = std::fs::read_to_string(&model_path)
                .map_err(|e| format!("cannot read `{model_path}`: {e}"))?;
            let predictor = dscts::learn::LearnedModel::from_json(&text)?;
            let cfg = dscts::core::dse::PruneConfig::default();
            let learned = engine
                .sweep_fanout_learned(&design, thresholds.iter().copied(), &predictor, &cfg)
                .map_err(|e| e.to_string())?;
            println!(
                "learned sweep ({} model): {} thresholds, {} mode classes, {} evaluated, {} skipped",
                predictor.kind(),
                thresholds.len(),
                learned.classes.len(),
                learned.classes.len() - learned.classes_skipped,
                learned.classes_skipped,
            );
            println!(
                "guaranteed-vs-predicted frontier distance: {:.6}",
                learned.guaranteed_vs_predicted
            );
            dscts::core::dse::frontier_pairs(&learned.points)
        } else {
            let sweep = engine
                .try_sweep(&design, thresholds.iter().copied())
                .map_err(|e| e.to_string())?;
            println!(
                "exact sweep: {} thresholds collapsed into {} mode-class DP runs",
                thresholds.len(),
                sweep.classes.len(),
            );
            dscts::core::dse::frontier_pairs(&sweep.points)
        };
        println!("Pareto frontier ({} points):", frontier.len());
        for (res, lat) in frontier {
            println!("  {res:>6} resources  {lat:>10.3} ps latency");
        }
        if let (Some(path), Some(collector)) = (&telemetry_out, &collector) {
            std::fs::write(path, collector.snapshot().to_jsonl())
                .map_err(|e| format!("cannot write `{path}`: {e}"))?;
            println!("telemetry snapshot written to {path} (feed it to --train)");
        }
        return Ok(());
    }

    // Staged flows report which phase failed via CtsError instead of
    // panicking; per-stage wall clocks come along for free.
    let report_stages = |o: &dscts::Outcome| {
        let cells: Vec<String> = o
            .stages
            .iter()
            .map(|s| format!("{} {:.1} ms", s.name, s.seconds * 1e3))
            .collect();
        println!(
            "stages: {} | total {:.1} ms",
            cells.join(" | "),
            o.runtime_s * 1e3
        );
        if o.degraded {
            println!("NOTE: run budget expired mid-optimization; schedule truncated (tree is valid, metrics complete)");
        }
        for step in &o.recovery {
            println!(
                "recovered: {} -> retried with {:?}",
                step.error, step.relaxation
            );
        }
    };
    let mut tree = match flow.as_str() {
        "ours" => {
            let o = pipeline.try_run(&design).map_err(|e| e.to_string())?;
            report_stages(&o);
            o.tree
        }
        "front" => {
            let o = pipeline
                .single_side(true)
                .try_run(&design)
                .map_err(|e| e.to_string())?;
            report_stages(&o);
            o.tree
        }
        "openroad" => HTreeCts::default().synthesize(&design, &tech),
        "flip2" | "flip7" | "flip6" => {
            let bct = pipeline
                .single_side(true)
                .try_run(&design)
                .map_err(|e| e.to_string())?
                .tree;
            let method = match flow.as_str() {
                "flip2" => FlipMethod::Latency,
                "flip7" => FlipMethod::Fanout { threshold: 100 },
                _ => FlipMethod::Criticality { fraction: 0.5 },
            };
            flip_backside(&bct, &tech, method).tree
        }
        other => return Err(format!("unknown flow `{other}`")),
    };

    if has("--size") {
        let schedule = OptSchedule::new().with(SizingPass::default());
        let eval = IncrementalEval::new(&mut tree, &tech, model);
        let report = PassManager::new(&schedule).run(eval, None);
        println!(
            "sizing: {} buffers resized, skew {:.3} -> {:.3} ps",
            report.passes[0].accepted, report.before.skew_ps, report.after.skew_ps
        );
    }

    let m = tree.evaluate(&tech, model);
    println!("{m}");
    println!(
        "trunk WL {:.3}e6 nm | switched cap {:.1} fF | cell area {:.1} um^2 | worst sink slew {:.1} ps",
        m.trunk_wirelength_nm as f64 / 1e6,
        m.switched_cap_ff,
        m.cell_area_nm2 as f64 / 1e6,
        m.max_sink_slew_ps
    );
    println!(
        "clock power at 2 GHz, 0.7 V: {:.1} uW",
        m.clock_power_uw(0.7, 2.0)
    );

    if let Some(out) = get("--out") {
        let mut extras = Vec::new();
        for (i, pos) in tree.buffer_sites().into_iter().enumerate() {
            extras.push(ExtraComponent {
                name: format!("clkbuf_{i}"),
                cell: tech.buffer().name().to_owned(),
                pos,
            });
        }
        for (i, pos) in tree.ntsv_sites().into_iter().enumerate() {
            extras.push(ExtraComponent {
                name: format!("ntsv_{i}"),
                cell: "NTSV".to_owned(),
                pos,
            });
        }
        std::fs::write(&out, write_def_with_extras(&design, &extras))
            .map_err(|e| format!("cannot write `{out}`: {e}"))?;
        println!("post-CTS DEF written to {out}");
    }

    if let (Some(path), Some(collector)) = (telemetry_out, collector) {
        std::fs::write(&path, collector.snapshot().to_jsonl())
            .map_err(|e| format!("cannot write `{path}`: {e}"))?;
        println!("telemetry snapshot written to {path}");
    }
    Ok(())
}

/// Trains a metric predictor on a JSONL telemetry log and writes the
/// model file (`--train`). Ridge by default; `--gbdt` for the boosted
/// ensemble.
fn train_model(
    data_path: &str,
    model_out: Option<String>,
    gbdt: bool,
    seed: Option<String>,
) -> Result<(), String> {
    use dscts::learn::{Dataset, GbdtConfig, GbdtPredictor, LearnedModel, RidgePredictor};
    let out = model_out.ok_or("--train requires --model <file>")?;
    let seed: u64 = match seed {
        Some(s) => s.parse().map_err(|_| format!("bad --seed value `{s}`"))?,
        None => 7,
    };
    let text = std::fs::read_to_string(data_path)
        .map_err(|e| format!("cannot read `{data_path}`: {e}"))?;
    let data = Dataset::from_jsonl(&text)?;
    let model = if gbdt {
        let cfg = GbdtConfig {
            seed,
            ..GbdtConfig::default()
        };
        LearnedModel::Gbdt(GbdtPredictor::train(&data, &cfg)?)
    } else {
        LearnedModel::Ridge(Box::new(RidgePredictor::train(&data, 1.0, seed)?))
    };
    std::fs::write(&out, model.to_json()).map_err(|e| format!("cannot write `{out}`: {e}"))?;
    println!(
        "trained {} model on {} sweep records; written to {out}",
        model.kind(),
        data.len()
    );
    Ok(())
}

fn load_design(named: Option<String>, def_path: Option<String>) -> Result<Design, String> {
    match (named, def_path) {
        (Some(name), None) => {
            let spec = match name.to_lowercase().as_str() {
                "c1" | "jpeg" => BenchmarkSpec::c1_jpeg(),
                "c2" | "swerv" | "swerv_wrapper" => BenchmarkSpec::c2_swerv_wrapper(),
                "c3" | "ethmac" => BenchmarkSpec::c3_ethmac(),
                "c4" | "riscv32i" => BenchmarkSpec::c4_riscv32i(),
                "c5" | "aes" => BenchmarkSpec::c5_aes(),
                other => return Err(format!("unknown design `{other}`")),
            };
            Ok(spec.generate())
        }
        (None, Some(path)) => {
            let text =
                std::fs::read_to_string(&path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
            parse_def(&text).map_err(|e| e.to_string())
        }
        (None, None) => Err("one of --design or --def is required".to_owned()),
        (Some(_), Some(_)) => Err("--design and --def are mutually exclusive".to_owned()),
    }
}

const USAGE: &str = "\
dscts - systematic multi-objective double-side clock tree synthesis

USAGE:
  dscts --design <c1|c2|c3|c4|c5> [options]   run a built-in benchmark
  dscts --def <placed.def> [options]          run on a placed DEF file
  dscts --design c3 --sweep 10 --telemetry log.jsonl   exact DSE sweep,
                   recording per-class training rows
  dscts --train log.jsonl --model m.json [--gbdt] [--seed N]
                   train a metric predictor on a telemetry log
  dscts --design c3 --predict --model m.json  predictor-pruned sweep
                   (prints classes skipped + frontier distance)

OPTIONS:
  --flow <ours|front|openroad|flip2|flip7|flip6>   flow to run (default ours)
  --fanout <N>     DSE fanout threshold (nodes above it are intra-side)
  --out <file>     write the post-CTS DEF with inserted clock cells
  --nldm           evaluate with NLDM tables + slew propagation
  --size           run the post-CTS buffer-sizing pass
  --deadline-ms <N>  wall-clock run budget; expiry mid-optimization yields a
                     degraded-but-valid tree, earlier expiry aborts typed
  --recover        on infeasibility, retry down the relaxation ladder
                   (extended patterns, more candidates, single-side)
  --telemetry <file>  run under a telemetry collector and write its
                      JSON-lines snapshot (span histograms, counters;
                      with --sweep, per-class training rows)
  --sweep <step>   sweep fanout thresholds 20..=1000 by <step> with the
                   batched DSE engine and print the Pareto frontier
  --train <jsonl>  train a metric predictor on a telemetry log and write
                   it to --model (ridge unless --gbdt; exits afterwards)
  --predict        prune the --sweep grid with the trained --model: only
                   predicted-frontier classes are evaluated exactly
  --model <file>   model file to write (--train) or read (--predict)
  --gbdt           train the hand-rolled GBDT ensemble instead of ridge
  --seed <N>       training seed for reproducible model files (default 7)
  -h, --help       show this help
";
