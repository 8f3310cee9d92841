//! The `dscts` binary's argument handling: misuse exits 1 with an
//! `error:` line instead of being ignored or panicking.

use std::process::{Command, Output};

fn dscts(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_dscts"))
        .args(args)
        .output()
        .expect("the dscts binary runs")
}

#[test]
fn unknown_flags_and_missing_values_are_errors() {
    // A sweep refuses the flags of a single flow run rather than
    // ignoring them; with `--out` it must not leave a file behind.
    let def = std::env::temp_dir().join(format!("dscts-cli-sweep-{}.def", std::process::id()));
    let def = def.to_str().expect("temp path is UTF-8");
    for args in [
        &["--design", "c4", "--predict"][..],
        &["--train", "x"],
        &["--design", "c4", "--fanuot", "100"],
        &["--design", "c4", "--fanout"],
        &["--design", "c4", "--telemetry", "--nldm"],
        &["c4"],
        &["--design", "c4", "--sweep", "20", "--flow", "front"],
        &["--design", "c4", "--sweep", "20", "--fanout", "100"],
        &["--design", "c4", "--sweep", "20", "--out", def],
        &["--design", "c4", "--sweep", "20", "--size"],
        &["--design", "c4", "--recover", "--sweep", "20"],
    ] {
        let out = dscts(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(stderr.starts_with("error: "), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
    assert!(
        !std::path::Path::new(def).exists(),
        "a refused sweep wrote {def}"
    );
}

#[test]
fn sweep_runs_under_the_deadline() {
    // An expired budget stops the class loop with the typed error.
    let out = dscts(&["--design", "c4", "--sweep", "20", "--deadline-ms", "0"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.starts_with("error: run budget exhausted during stage `dse`"),
        "{stderr}"
    );
    assert!(!String::from_utf8_lossy(&out.stdout).contains("Pareto"));
    // An ample one changes nothing.
    let plain = dscts(&["--design", "c4", "--sweep", "20"]);
    let budgeted = dscts(&[
        "--design",
        "c4",
        "--sweep",
        "20",
        "--deadline-ms",
        "3600000",
    ]);
    assert_eq!(plain.status.code(), Some(0));
    assert_eq!(budgeted.status.code(), Some(0));
    assert_eq!(plain.stdout, budgeted.stdout);
}

#[test]
fn known_flags_still_run() {
    let out = dscts(&["--design", "c4"]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    // The stage rows, in order: `stages: route 1.0 ms | … | total 9.9 ms`.
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout
        .lines()
        .find_map(|l| l.strip_prefix("stages: "))
        .unwrap_or_else(|| panic!("no stages line in {stdout}"));
    let rows: Vec<&str> = line
        .split(" | ")
        .map(|cell| cell.split(' ').next().unwrap_or(""))
        .collect();
    assert_eq!(
        rows,
        [
            "route",
            "insertion",
            "optimize",
            "opt:endpoint-refine",
            "evaluate",
            "total"
        ],
        "{line}"
    );
}

#[test]
fn size_line_reads_the_metrics_lines_before_and_after() {
    let run = |args: &[&str]| {
        let out = dscts(args);
        assert_eq!(out.status.code(), Some(0), "{args:?}");
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    // The skew field of a `latency … | skew 17.377 ps | …` metrics line.
    let metrics_skew = |stdout: &str| {
        let line = stdout
            .lines()
            .find(|l| l.starts_with("latency "))
            .unwrap_or_else(|| panic!("no metrics line in {stdout}"));
        let skew = line.split(" | ").nth(1).expect("skew field");
        skew.strip_prefix("skew ")
            .and_then(|s| s.strip_suffix(" ps"))
            .unwrap_or_else(|| panic!("malformed skew field in {line}"))
            .to_owned()
    };
    let plain = run(&["--design", "c4"]);
    let sized = run(&["--design", "c4", "--size"]);
    // `sizing: N buffers resized, skew X -> Y ps`
    let line = sized
        .lines()
        .find_map(|l| l.strip_prefix("sizing: "))
        .unwrap_or_else(|| panic!("no sizing line in {sized}"));
    let (resized, skews) = line
        .split_once(" buffers resized, skew ")
        .unwrap_or_else(|| panic!("malformed sizing line {line}"));
    let (before, after) = skews
        .strip_suffix(" ps")
        .and_then(|s| s.split_once(" -> "))
        .unwrap_or_else(|| panic!("malformed sizing line {line}"));
    assert!(resized.parse::<usize>().is_ok(), "{line}");
    assert_eq!(before, metrics_skew(&plain), "{line}");
    assert_eq!(after, metrics_skew(&sized), "{line}");
    assert_ne!(before, after, "C4 sizing changes skew: {line}");
}

#[test]
fn a_closed_stdout_is_not_a_crash() {
    // The reader of stdout is gone before the run starts, so every line
    // it prints meets a broken pipe. The run still finishes, writes its
    // files, exits 0 and says nothing on stderr.
    let tmp = |what: &str| {
        std::env::temp_dir().join(format!("dscts-cli-pipe-{}.{what}", std::process::id()))
    };
    let (def, jsonl) = (tmp("def"), tmp("jsonl"));
    let (def_arg, jsonl_arg) = (def.to_str().expect("UTF-8"), jsonl.to_str().expect("UTF-8"));
    for args in [
        &["--design", "c4", "--out", def_arg][..],
        &["--design", "c4", "--sweep", "20", "--telemetry", jsonl_arg],
    ] {
        let (reader, writer) = std::io::pipe().expect("a pipe");
        drop(reader);
        let out = Command::new(env!("CARGO_BIN_EXE_dscts"))
            .args(args)
            .stdout(writer)
            .output()
            .expect("the dscts binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{args:?}: {stderr}");
        assert!(stderr.is_empty(), "{args:?}: {stderr}");
    }
    for file in [def, jsonl] {
        assert!(file.exists(), "{} was not written", file.display());
        std::fs::remove_file(file).expect("remove the run's file");
    }
}
