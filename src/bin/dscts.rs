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
//! ```
//!
//! An unknown flag, or a value flag without its value, is an error. A
//! sweep takes `--nldm`, `--deadline-ms` and `--telemetry`; the flags of a
//! single flow run (`--flow`, `--fanout`, `--out`, `--size`, `--recover`)
//! are errors with `--sweep`.

use dscts::baseline::{flip_backside, FlipMethod, HTreeCts};
use dscts::core::sizing::SizingPass;
use dscts::netlist::def::{parse_def, write_def_with_extras, ExtraComponent};
use dscts::{
    BenchmarkSpec, Design, DsCts, EvalModel, IncrementalEval, ModeRule, OptSchedule,
    RecoveryPolicy, RunBudget, Technology,
};
use std::io::Write;
use std::process::ExitCode;
use std::time::Duration;

/// Writes one report line to stdout. A closed stdout (the reader of the
/// pipe went away) is not an error: the run goes on, still writes its
/// `--out` and `--telemetry` files and exits 0. Any other write error
/// ends the run with an `error:` line.
fn emit(line: std::fmt::Arguments<'_>) -> Result<(), String> {
    match writeln!(std::io::stdout(), "{line}") {
        Err(e) if e.kind() != std::io::ErrorKind::BrokenPipe => {
            Err(format!("cannot write to stdout: {e}"))
        }
        _ => Ok(()),
    }
}

/// `println!` through [`emit`], returning its error from the enclosing
/// function.
macro_rules! say {
    ($($arg:tt)*) => {
        emit(format_args!($($arg)*))?
    };
}

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
        say!("{}", USAGE.trim_end());
        return Ok(());
    }
    check_args(&args)?;
    let get = |flag: &str| -> Option<String> {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1).cloned())
    };
    let has = |flag: &str| args.iter().any(|a| a == flag);
    if has("--sweep") {
        if let Some(flag) = NOT_FOR_SWEEP.iter().find(|f| has(f)) {
            return Err(format!("`{flag}` does not apply to --sweep"));
        }
    }

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

    let design = load_design(get("--design"), get("--def"))?;
    let tech = Technology::asap7();
    let model = if has("--nldm") {
        EvalModel::Nldm
    } else {
        EvalModel::Elmore
    };
    let flow = get("--flow").unwrap_or_else(|| "ours".to_owned());

    say!(
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

    // DSE sweep: the exact batched engine, one DP run per mode class, on
    // the configured pipeline, so `--deadline-ms` budgets the class loop.
    if let Some(s) = get("--sweep") {
        let step: usize = s.parse().map_err(|_| format!("bad --sweep value `{s}`"))?;
        if step == 0 {
            return Err("--sweep step must be positive".to_owned());
        }
        let thresholds: Vec<u32> = (20..=1000).step_by(step).collect();
        let sweep = dscts::core::dse::SweepEngine::new(&pipeline)
            .try_sweep(&design, thresholds.iter().copied())
            .map_err(|e| e.to_string())?;
        say!(
            "exact sweep: {} thresholds collapsed into {} mode-class DP runs",
            thresholds.len(),
            sweep.classes.len(),
        );
        let frontier = dscts::core::dse::frontier_pairs(&sweep.points);
        say!("Pareto frontier ({} points):", frontier.len());
        for (res, lat) in frontier {
            say!("  {res:>6} resources  {lat:>10.3} ps latency");
        }
        if let (Some(path), Some(collector)) = (&telemetry_out, &collector) {
            std::fs::write(path, collector.snapshot().to_jsonl())
                .map_err(|e| format!("cannot write `{path}`: {e}"))?;
            say!("telemetry snapshot written to {path}");
        }
        return Ok(());
    }

    // Staged flows report which phase failed via CtsError instead of
    // panicking; per-stage wall clocks come along for free.
    let report_stages = |o: &dscts::Outcome| -> Result<(), String> {
        let cells: Vec<String> = o
            .stages
            .iter()
            .map(|s| format!("{} {:.1} ms", s.name, s.seconds * 1e3))
            .collect();
        say!(
            "stages: {} | total {:.1} ms",
            cells.join(" | "),
            o.runtime_s * 1e3
        );
        if o.degraded {
            say!("NOTE: run budget expired mid-optimization; schedule truncated (tree is valid, metrics complete)");
        }
        for step in &o.recovery {
            say!(
                "recovered: {} -> retried with {:?}",
                step.error,
                step.relaxation
            );
        }
        Ok(())
    };
    // The staged flows bring the metrics their evaluate stage measured;
    // the baselines are measured below.
    let (mut tree, measured) = match flow.as_str() {
        "ours" => {
            let o = pipeline.try_run(&design).map_err(|e| e.to_string())?;
            report_stages(&o)?;
            (o.tree, Some(o.metrics))
        }
        "front" => {
            let o = pipeline
                .single_side(true)
                .try_run(&design)
                .map_err(|e| e.to_string())?;
            report_stages(&o)?;
            (o.tree, Some(o.metrics))
        }
        "openroad" => (HTreeCts::default().synthesize(&design, &tech), None),
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
            (flip_backside(&bct, &tech, method).tree, None)
        }
        other => return Err(format!("unknown flow `{other}`")),
    };
    let measured = measured.unwrap_or_else(|| tree.evaluate(&tech, model));

    // The sizing line reads skew from the metrics lines of the flow before
    // the pass and of the evaluator the pass leaves, whose state is
    // bit-identical to a batch evaluation of the sized tree.
    let m = if has("--size") {
        let mut eval = IncrementalEval::new(&mut tree, &tech, model);
        let report = OptSchedule::new()
            .with(SizingPass::default())
            .run(&mut eval, None);
        let sized = eval.metrics();
        say!(
            "sizing: {} buffers resized, skew {:.3} -> {:.3} ps",
            report.passes[0].accepted,
            measured.skew_ps,
            sized.skew_ps
        );
        sized
    } else {
        measured
    };
    say!("{m}");
    say!(
        "trunk WL {:.3}e6 nm | switched cap {:.1} fF | cell area {:.1} um^2 | worst sink slew {:.1} ps",
        m.trunk_wirelength_nm as f64 / 1e6,
        m.switched_cap_ff,
        m.cell_area_nm2 as f64 / 1e6,
        m.max_sink_slew_ps
    );
    say!(
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
        say!("post-CTS DEF written to {out}");
    }

    if let (Some(path), Some(collector)) = (telemetry_out, collector) {
        std::fs::write(&path, collector.snapshot().to_jsonl())
            .map_err(|e| format!("cannot write `{path}`: {e}"))?;
        say!("telemetry snapshot written to {path}");
    }
    Ok(())
}

/// Flags that take a value, and flags that stand alone (`--help` is
/// handled before these are checked).
const VALUE_FLAGS: [&str; 8] = [
    "--design",
    "--def",
    "--flow",
    "--fanout",
    "--out",
    "--deadline-ms",
    "--telemetry",
    "--sweep",
];
const SWITCHES: [&str; 3] = ["--nldm", "--size", "--recover"];
/// Flags of a single flow run that `--sweep` cannot honour.
const NOT_FOR_SWEEP: [&str; 5] = ["--flow", "--fanout", "--out", "--size", "--recover"];

/// Rejects any argument that is not a flag from the usage text, and any
/// value flag whose value is missing (last argument, or followed by
/// another flag).
fn check_args(args: &[String]) -> Result<(), String> {
    let mut rest = args.iter();
    while let Some(arg) = rest.next() {
        if VALUE_FLAGS.contains(&arg.as_str()) {
            match rest.next() {
                Some(v) if !v.starts_with("--") => {}
                _ => return Err(format!("`{arg}` needs a value")),
            }
        } else if !SWITCHES.contains(&arg.as_str()) {
            return Err(format!("unknown argument `{arg}`"));
        }
    }
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
  dscts --design c3 --sweep 10                exact DSE threshold sweep

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
                      JSON-lines snapshot (span histograms, counters)
  --sweep <step>   sweep fanout thresholds 20..=1000 by <step> with the
                   batched DSE engine and print the Pareto frontier; takes
                   --nldm, --deadline-ms and --telemetry, and refuses
                   --flow, --fanout, --out, --size and --recover
  -h, --help       show this help

Unknown flags, and value flags given without a value, are errors.
";
