//! Reader/writer for the placed-DEF subset used by this workspace.
//!
//! The paper's flow exchanges `post-place` and `post-cts` DEF files between
//! OpenROAD and the CTS tool (\[37\]). This module implements the subset those
//! steps need: `DESIGN`, `UNITS`, `DIEAREA`, `ROW` (core box), `COMPONENTS`
//! (flip-flops, and optionally inserted clock cells), and the clock `PINS`
//! entry. Workspace-specific metadata that stock DEF cannot carry (cell
//! count, utilization, macro outlines, the exact core box) travels in
//! `# dscts ...` comment lines, which standard tools ignore and
//! [`parse_def`] understands.
//!
//! One database unit is one nanometre (`UNITS DISTANCE MICRONS 1000`).

use crate::{Design, Macro, Sink};
use dscts_geom::{Point, Rect};
use std::fmt;

/// Error from [`parse_def`], with the offending line number (1-based).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DefError {
    /// 1-based line number.
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for DefError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "DEF parse error at line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for DefError {}

/// An extra placed component to emit (used for post-CTS DEFs carrying the
/// inserted buffers and nTSVs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExtraComponent {
    /// Instance name.
    pub name: String,
    /// Cell (master) name.
    pub cell: String,
    /// Placement (nm).
    pub pos: Point,
}

/// Serializes a placed design to DEF.
pub fn write_def(design: &Design) -> String {
    write_def_with_extras(design, &[])
}

/// Serializes a placed design plus extra clock cells (post-CTS view).
pub fn write_def_with_extras(design: &Design, extras: &[ExtraComponent]) -> String {
    let mut s = String::with_capacity(64 * (design.sinks.len() + extras.len()) + 4096);
    s.push_str("VERSION 5.8 ;\nDIVIDERCHAR \"/\" ;\nBUSBITCHARS \"[]\" ;\n");
    s.push_str(&format!("DESIGN {} ;\n", design.name));
    s.push_str("UNITS DISTANCE MICRONS 1000 ;\n");
    s.push_str(&format!("# dscts numCells {}\n", design.num_cells));
    s.push_str(&format!("# dscts utilization {}\n", design.utilization));
    s.push_str(&format!(
        "# dscts core {} {} {} {}\n",
        design.core.xlo, design.core.ylo, design.core.xhi, design.core.yhi
    ));
    for m in &design.macros {
        s.push_str(&format!(
            "# dscts macro {} {} {} {} {}\n",
            m.name, m.rect.xlo, m.rect.ylo, m.rect.xhi, m.rect.yhi
        ));
    }
    s.push_str(&format!(
        "DIEAREA ( {} {} ) ( {} {} ) ;\n",
        design.die.xlo, design.die.ylo, design.die.xhi, design.die.yhi
    ));
    // Core rows (height 270 nm), from which the parser recovers the core box.
    let row_h = 270;
    let mut y = design.core.ylo;
    let mut row = 0usize;
    while y + row_h <= design.core.yhi {
        s.push_str(&format!(
            "ROW ROW_{row} coreSite {} {} N DO {} BY 1 STEP 270 0 ;\n",
            design.core.xlo,
            y,
            (design.core.width() / 270).max(1)
        ));
        y += row_h;
        row += 1;
    }
    let ncomp = design.sinks.len() + extras.len();
    s.push_str(&format!("COMPONENTS {ncomp} ;\n"));
    for sink in &design.sinks {
        s.push_str(&format!(
            "- {} DFFHQNx1_ASAP7_75t_R + PLACED ( {} {} ) N ;\n",
            sink.name, sink.pos.x, sink.pos.y
        ));
    }
    for e in extras {
        s.push_str(&format!(
            "- {} {} + PLACED ( {} {} ) N ;\n",
            e.name, e.cell, e.pos.x, e.pos.y
        ));
    }
    s.push_str("END COMPONENTS\n");
    s.push_str("PINS 1 ;\n");
    s.push_str(&format!(
        "- clk + NET clk + DIRECTION INPUT + USE CLOCK + PLACED ( {} {} ) N ;\n",
        design.clock_root.x, design.clock_root.y
    ));
    s.push_str("END PINS\n");
    s.push_str("END DESIGN\n");
    s
}

/// Parses the DEF subset produced by [`write_def`] (and by OpenROAD for the
/// constructs this subset covers).
///
/// The core box is the `# dscts core` comment when present, else the
/// union of the `ROW` statements (each one 270 nm tall), else the die.
///
/// # Errors
///
/// Returns [`DefError`] on malformed statements — including `ROW`s with a
/// non-positive count or step or an extent that overflows, and inverted
/// `# dscts` rectangles — or when mandatory sections (`DESIGN`,
/// `DIEAREA`) are missing.
pub fn parse_def(text: &str) -> Result<Design, DefError> {
    let mut name = None;
    let mut die = None;
    let mut core: Option<Rect> = None;
    let mut row_core: Option<Rect> = None;
    let mut clock_root = None;
    let mut sinks = Vec::new();
    let mut macros = Vec::new();
    let mut num_cells = 0usize;
    let mut utilization = 0.0f64;
    let mut in_components = false;
    let mut in_pins = false;
    let mut toks: Vec<&str> = Vec::new();

    for (idx, raw) in text.lines().enumerate() {
        let lineno = idx + 1;
        let line = raw.trim();
        if line.is_empty() {
            continue;
        }
        toks.clear();
        toks.extend(line.split_whitespace());
        if line.starts_with("# dscts ") {
            match toks.get(2) {
                Some(&"numCells") => {
                    num_cells = toks
                        .get(3)
                        .and_then(|t| t.parse().ok())
                        .ok_or_else(|| err(lineno, "bad numCells"))?;
                }
                Some(&"utilization") => {
                    utilization = toks
                        .get(3)
                        .and_then(|t| t.parse().ok())
                        .ok_or_else(|| err(lineno, "bad utilization"))?;
                }
                Some(&"core") => {
                    core = Some(comment_rect(toks.get(3..7), lineno, "core")?);
                }
                Some(&"macro") => {
                    let rect = comment_rect(toks.get(4..8), lineno, "macro")?;
                    macros.push(Macro {
                        name: toks[3].to_owned(),
                        rect,
                    });
                }
                _ => {}
            }
            continue;
        }
        if line.starts_with('#') {
            continue;
        }
        match toks[0] {
            "DESIGN" => {
                name = Some(
                    toks.get(1)
                        .ok_or_else(|| err(lineno, "DESIGN missing name"))?
                        .to_string(),
                );
            }
            "DIEAREA" => {
                let nums: Vec<i64> = toks.iter().filter_map(|t| t.parse().ok()).collect();
                if nums.len() < 4 {
                    return Err(err(lineno, "DIEAREA needs two points"));
                }
                die = Some(Rect::new(
                    nums[0].min(nums[2]),
                    nums[1].min(nums[3]),
                    nums[0].max(nums[2]),
                    nums[1].max(nums[3]),
                ));
            }
            "ROW" => {
                // ROW name site x y N DO n BY 1 STEP sx sy ;
                if toks.len() < 9 {
                    return Err(err(lineno, "short ROW statement"));
                }
                let x: i64 = toks[3].parse().map_err(|_| err(lineno, "bad ROW x"))?;
                let y: i64 = toks[4].parse().map_err(|_| err(lineno, "bad ROW y"))?;
                let n: i64 = toks[7].parse().map_err(|_| err(lineno, "bad ROW count"))?;
                let step: i64 = match toks.get(10) {
                    Some(&"STEP") => toks
                        .get(11)
                        .and_then(|t| t.parse().ok())
                        .ok_or_else(|| err(lineno, "bad ROW step"))?,
                    _ => 270,
                };
                if n <= 0 || step <= 0 {
                    return Err(err(lineno, "ROW count and step must be positive"));
                }
                let xhi = n.checked_mul(step).and_then(|w| x.checked_add(w));
                let (Some(xhi), Some(yhi)) = (xhi, y.checked_add(270)) else {
                    return Err(err(lineno, "ROW extent overflows"));
                };
                let row = Rect::new(x, y, xhi, yhi);
                row_core = Some(match row_core {
                    None => row,
                    Some(c) => c.union(&row),
                });
            }
            "COMPONENTS" => in_components = true,
            "PINS" => in_pins = true,
            "END" => match toks.get(1) {
                Some(&"COMPONENTS") => in_components = false,
                Some(&"PINS") => in_pins = false,
                _ => {}
            },
            "-" if in_components => {
                // - name cell + PLACED ( x y ) N ;
                let cell = *toks
                    .get(2)
                    .ok_or_else(|| err(lineno, "component missing cell"))?;
                let (x, y) =
                    parse_placed(&toks).ok_or_else(|| err(lineno, "component missing PLACED"))?;
                if cell.contains("DFF") {
                    sinks.push(Sink {
                        name: toks[1].to_owned(),
                        pos: Point::new(x, y),
                        cap_ff: 1.1,
                    });
                }
                // Buffers/nTSVs in post-CTS DEFs are accepted and skipped:
                // the tree structure itself is not representable in DEF.
            }
            "-" if in_pins && (toks.get(1) == Some(&"clk") || line.contains("USE CLOCK")) => {
                if let Some((x, y)) = parse_placed(&toks) {
                    clock_root = Some(Point::new(x, y));
                }
            }
            _ => {}
        }
    }

    let die = die.ok_or_else(|| err(0, "missing DIEAREA"))?;
    let name = name.ok_or_else(|| err(0, "missing DESIGN"))?;
    let core = core.or(row_core).unwrap_or(die);
    let clock_root = clock_root.unwrap_or_else(|| Point::new(core.center().x, core.ylo));
    Ok(Design {
        name,
        die,
        core,
        clock_root,
        sinks,
        macros,
        num_cells,
        utilization,
    })
}

fn err(line: usize, msg: &str) -> DefError {
    DefError {
        line,
        message: msg.to_owned(),
    }
}

/// The `xlo ylo xhi yhi` rectangle of a `# dscts` comment; missing,
/// non-integer or inverted bounds are an error.
fn comment_rect(toks: Option<&[&str]>, line: usize, what: &str) -> Result<Rect, DefError> {
    let bad = || err(line, &format!("bad {what} comment"));
    let nums: Vec<i64> = toks
        .ok_or_else(bad)?
        .iter()
        .map(|t| t.parse())
        .collect::<Result<_, _>>()
        .map_err(|_| bad())?;
    if nums[0] > nums[2] || nums[1] > nums[3] {
        return Err(err(line, &format!("inverted {what} rectangle")));
    }
    Ok(Rect::new(nums[0], nums[1], nums[2], nums[3]))
}

fn parse_placed(toks: &[&str]) -> Option<(i64, i64)> {
    let i = toks.iter().position(|&t| t == "PLACED" || t == "FIXED")?;
    // ... PLACED ( x y ) ...
    let x = toks.get(i + 2)?.parse().ok()?;
    let y = toks.get(i + 3)?.parse().ok()?;
    Some((x, y))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BenchmarkSpec;

    #[test]
    fn roundtrip_preserves_everything_we_model() {
        for spec in BenchmarkSpec::all() {
            let d = spec.generate();
            let text = write_def(&d);
            let back = parse_def(&text).unwrap();
            assert_eq!(back.name, d.name);
            assert_eq!(back.die, d.die);
            assert_eq!(back.core, d.core, "{}", d.name);
            assert_eq!(back.clock_root, d.clock_root);
            assert_eq!(back.sinks.len(), d.sinks.len());
            assert_eq!(back.num_cells, d.num_cells);
            assert_eq!(back.utilization, d.utilization);
            assert_eq!(back.macros, d.macros);
            for (a, b) in back.sinks.iter().zip(&d.sinks) {
                assert_eq!(a.name, b.name);
                assert_eq!(a.pos, b.pos);
            }
            assert_eq!(back.validate(), Ok(()), "{}", d.name);
        }
    }

    #[test]
    fn extras_are_emitted_and_skipped_on_parse() {
        let d = BenchmarkSpec::c4_riscv32i().generate();
        let extras = vec![ExtraComponent {
            name: "clkbuf_0".into(),
            cell: "BUFx4_ASAP7_75t_R".into(),
            pos: Point::new(100, 200),
        }];
        let text = write_def_with_extras(&d, &extras);
        assert!(text.contains("clkbuf_0 BUFx4_ASAP7_75t_R"));
        let back = parse_def(&text).unwrap();
        assert_eq!(back.sinks.len(), d.sinks.len()); // buffer not a sink
    }

    #[test]
    fn missing_diearea_is_an_error() {
        let e = parse_def("DESIGN x ;\n").unwrap_err();
        assert!(e.message.contains("DIEAREA"));
    }

    #[test]
    fn missing_design_is_an_error() {
        let e = parse_def("DIEAREA ( 0 0 ) ( 5 5 ) ;\n").unwrap_err();
        assert!(e.message.contains("DESIGN"));
    }

    #[test]
    fn bad_component_line_reports_line_number() {
        let text = "DESIGN x ;\nDIEAREA ( 0 0 ) ( 9 9 ) ;\nCOMPONENTS 1 ;\n- ff1 DFF_X1 ;\nEND COMPONENTS\n";
        let e = parse_def(text).unwrap_err();
        assert_eq!(e.line, 4);
        assert!(e.to_string().contains("line 4"));
    }

    #[test]
    fn foreign_statements_are_ignored() {
        let text = "VERSION 5.8 ;\nDESIGN y ;\nTRACKS X 0 DO 10 STEP 100 LAYER M1 ;\nDIEAREA ( 0 0 ) ( 100 100 ) ;\nGCELLGRID X 0 DO 5 STEP 20 ;\n";
        let d = parse_def(text).unwrap();
        assert_eq!(d.name, "y");
        assert_eq!(d.sinks.len(), 0);
    }

    #[test]
    fn rows_alone_give_the_core_when_the_comment_is_absent() {
        let text = "DESIGN r ;\nDIEAREA ( 0 0 ) ( 4000 4000 ) ;\n\
                    ROW ROW_0 coreSite 100 200 N DO 10 BY 1 STEP 300 0 ;\n\
                    ROW ROW_1 coreSite 100 470 N DO 10 BY 1 STEP 300 0 ;\n";
        assert_eq!(
            parse_def(text).unwrap().core,
            Rect::new(100, 200, 3100, 740)
        );
    }

    #[test]
    fn hostile_rows_and_rects_are_errors() {
        // i64::MAX, i64::MIN and 2^62 as the numbers an overflow needs.
        for bad in [
            "ROW R s 0 0 N DO -1 BY 1 STEP 270 0 ;",
            "ROW R s 0 0 N DO 0 BY 1 STEP 270 0 ;",
            "ROW R s 0 0 N DO 9223372036854775807 BY 1 STEP 270 0 ;",
            "ROW R s 0 0 N DO 4611686018427387904 BY 1 STEP 270 0 ;",
            "ROW R s 0 0 N DO 10 BY 1 STEP -270 0 ;",
            "ROW R s 0 0 N DO 10 BY 1 STEP ; 0 ;",
            "ROW R s 9223372036854775807 0 N DO 10 BY 1 STEP 270 0 ;",
            "ROW R s 0 9223372036854775807 N DO 10 BY 1 STEP 270 0 ;",
            "ROW R s -9223372036854775808 0 N DO abc BY 1 STEP 270 0 ;",
            "# dscts macro m 500 0 100 900",
            "# dscts macro m 0 900 100 500",
            "# dscts macro m 0 0 100",
            "# dscts core 9000 0 0 9000",
            "# dscts core 0 0 ( 9000",
        ] {
            let text = format!("DESIGN h ;\nDIEAREA ( 0 0 ) ( 9000 9000 ) ;\n{bad}\n");
            let e = parse_def(&text).expect_err(bad);
            assert_eq!(e.line, 3, "{bad}: {e}");
        }
    }
}
