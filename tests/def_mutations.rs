//! Seeded single-token mutation suite over the DEF reader and the flow
//! behind it: every mutant of a small generated DEF either fails to parse
//! with a `DefError`, fails `Design::validate`, or runs `DsCts::try_run`
//! to `Ok` or to a typed, non-`Internal` error. A panic anywhere fails
//! the suite.

use dscts::netlist::def::{parse_def, write_def};
use dscts::{BenchmarkSpec, CtsError, Design, DsCts, Technology};
use std::panic::{catch_unwind, AssertUnwindSafe};

const MUTANTS: usize = 2_000;

/// Replacement tokens: small, negative and overflow-prone numbers
/// (i64::MIN, i64::MAX, 2^62, past i64), the empty token (a deletion),
/// and the punctuation and keywords the reader keys on.
const HOSTILE: [&str; 21] = [
    "-1",
    "0",
    "1",
    "-5000000",
    "-9223372036854775808",
    "9223372036854775807",
    "4611686018427387904",
    "99999999999999999999",
    "1e3",
    "abc",
    "",
    "(",
    ")",
    ";",
    "-",
    "+",
    "#",
    "ROW",
    "END",
    "PLACED",
    "DFFHQNx1_ASAP7_75t_R",
];

/// C1 cut down to 120 sinks: it keeps C1's macros and register banks but
/// parses and synthesizes in milliseconds in the debug profile.
fn small_c1() -> Design {
    let mut spec = BenchmarkSpec::c1_jpeg();
    spec.num_ffs = 120;
    spec.num_cells = 1_500;
    spec.generate()
}

/// `Ok(true)` if the mutant reached `try_run`, `Ok(false)` if the reader
/// or `validate` rejected it, `Err` for an `Internal` error.
fn classify(pipeline: &DsCts, original: &Design, text: &str) -> Result<bool, CtsError> {
    let Ok(design) = parse_def(text) else {
        return Ok(false);
    };
    if design.validate().is_err() {
        return Ok(false);
    }
    // The flow is deterministic and the original design synthesizes, so
    // a mutant that parses back to it needs no second run.
    if design == *original {
        return Ok(true);
    }
    match pipeline.try_run(&design) {
        Err(e @ CtsError::Internal { .. }) => Err(e),
        _ => Ok(true),
    }
}

#[test]
fn single_token_def_mutants_fail_typed_or_synthesize() {
    let design = small_c1();
    assert!(
        !design.macros.is_empty(),
        "the suite must cover macro lines"
    );
    let pipeline = DsCts::new(Technology::asap7());
    let text = write_def(&design);
    let original = parse_def(&text).expect("generated DEF parses");
    assert_eq!(original.validate(), Ok(()));
    pipeline
        .try_run(&original)
        .expect("the unmutated design synthesizes");

    let lines: Vec<Vec<&str>> = text
        .lines()
        .map(|l| l.split_whitespace().collect())
        .collect();
    let slots: Vec<(usize, usize)> = lines
        .iter()
        .enumerate()
        .flat_map(|(li, toks)| (0..toks.len()).map(move |ti| (li, ti)))
        .collect();

    let mut state: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut next = || {
        // xorshift64*
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        state.wrapping_mul(0x2545_F491_4F6C_DD1D)
    };
    let mut reached_flow = 0usize;
    let mut failures = Vec::new();
    for _ in 0..MUTANTS {
        let (li, ti) = slots[(next() % slots.len() as u64) as usize];
        let with = HOSTILE[(next() % HOSTILE.len() as u64) as usize];
        let mutant: String = lines
            .iter()
            .enumerate()
            .map(|(l, toks)| {
                let mut toks = toks.clone();
                if l == li {
                    toks[ti] = with;
                }
                toks.join(" ") + "\n"
            })
            .collect();
        let what = format!("line {} token {ti} -> {with:?}", li + 1);
        match catch_unwind(AssertUnwindSafe(|| classify(&pipeline, &original, &mutant))) {
            Ok(Ok(true)) => reached_flow += 1,
            Ok(Ok(false)) => {}
            Ok(Err(e)) => failures.push(format!("{what}: {e}")),
            Err(_) => failures.push(format!("{what}: panicked")),
        }
    }
    assert!(
        failures.is_empty(),
        "{} of {MUTANTS} mutants broke the contract:\n{}",
        failures.len(),
        failures.join("\n")
    );
    // Most single-token mutants leave a valid design: the suite must
    // exercise the flow, not only the reader's error paths.
    assert!(
        reached_flow * 2 > MUTANTS,
        "only {reached_flow} of {MUTANTS} mutants reached try_run"
    );
}
