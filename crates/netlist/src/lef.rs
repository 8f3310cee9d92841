//! Writer/reader for the LEF subset describing the clock cells.
//!
//! The flow only needs macro footprints (buffer, nTSV, flip-flop) and the
//! routing-layer list; electrical data lives in [`dscts_tech`]. Sizes are
//! written in microns, as LEF requires.

use dscts_tech::Technology;
use std::collections::BTreeMap;
use std::fmt;

/// A macro (cell) footprint from a LEF file, in nanometres.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LefMacro {
    /// Width (nm).
    pub width_nm: i64,
    /// Height (nm).
    pub height_nm: i64,
}

/// Error from [`parse_lef`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LefError {
    /// 1-based line number.
    pub line: usize,
    /// Description.
    pub message: String,
}

impl fmt::Display for LefError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "LEF parse error at line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for LefError {}

/// Emits a LEF snippet with the technology's clock cells and layers.
pub fn write_lef(tech: &Technology) -> String {
    let mut s = String::new();
    s.push_str("VERSION 5.8 ;\nBUSBITCHARS \"[]\" ;\nDIVIDERCHAR \"/\" ;\n");
    s.push_str("UNITS\n  DATABASE MICRONS 1000 ;\nEND UNITS\n");
    for layer in tech.layers() {
        s.push_str(&format!(
            "LAYER {}\n  TYPE ROUTING ;\n  RESISTANCE RPERSQ {} ;\n  CAPACITANCE CPERSQDIST {} ;\nEND {}\n",
            layer.name(),
            layer.res_kohm_per_um(),
            layer.cap_ff_per_um(),
            layer.name()
        ));
    }
    let buf = tech.buffer();
    let (bw, bh) = buf.footprint_nm();
    s.push_str(&macro_block(buf.name(), bw, bh));
    let (vw, vh) = tech.ntsv().footprint_nm();
    s.push_str(&macro_block("NTSV", vw, vh));
    s.push_str(&macro_block("DFFHQNx1_ASAP7_75t_R", 560, 270));
    s.push_str("END LIBRARY\n");
    s
}

fn macro_block(name: &str, w_nm: i64, h_nm: i64) -> String {
    format!(
        "MACRO {name}\n  CLASS CORE ;\n  SIZE {} BY {} ;\nEND {name}\n",
        w_nm as f64 / 1000.0,
        h_nm as f64 / 1000.0
    )
}

/// Parses macro footprints from a LEF text.
///
/// # Errors
///
/// Returns [`LefError`] on malformed `SIZE` statements.
pub fn parse_lef(text: &str) -> Result<BTreeMap<String, LefMacro>, LefError> {
    let mut out = BTreeMap::new();
    let mut current: Option<String> = None;
    for (idx, raw) in text.lines().enumerate() {
        let line = raw.trim();
        let toks: Vec<&str> = line.split_whitespace().collect();
        match toks.first() {
            Some(&"MACRO") => {
                current = toks.get(1).map(|s| s.to_string());
            }
            Some(&"SIZE") if current.is_some() => {
                // SIZE w BY h ; finite, non-negative and representable in
                // nm, or the statement is malformed.
                let parse_um = |t: Option<&&str>| -> Option<i64> {
                    let nm = (t?.parse::<f64>().ok()? * 1000.0).round();
                    (0.0..i64::MAX as f64).contains(&nm).then_some(nm as i64)
                };
                let w = parse_um(toks.get(1));
                let h = parse_um(toks.get(3));
                match (w, h) {
                    (Some(width_nm), Some(height_nm)) => {
                        out.insert(
                            current.clone().expect("inside MACRO"),
                            LefMacro {
                                width_nm,
                                height_nm,
                            },
                        );
                    }
                    _ => {
                        return Err(LefError {
                            line: idx + 1,
                            message: "malformed SIZE statement".to_owned(),
                        })
                    }
                }
            }
            Some(&"END") if toks.get(1).map(|s| s.to_string()) == current => {
                current = None;
            }
            _ => {}
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_footprints() {
        let tech = Technology::asap7();
        let text = write_lef(&tech);
        let macros = parse_lef(&text).unwrap();
        let buf = macros.get(tech.buffer().name()).unwrap();
        assert_eq!((buf.width_nm, buf.height_nm), tech.buffer().footprint_nm());
        let ntsv = macros.get("NTSV").unwrap();
        assert_eq!((ntsv.width_nm, ntsv.height_nm), tech.ntsv().footprint_nm());
        assert!(macros.contains_key("DFFHQNx1_ASAP7_75t_R"));
    }

    #[test]
    fn layers_are_emitted() {
        let text = write_lef(&Technology::asap7());
        assert!(text.contains("LAYER M3"));
        assert!(text.contains("LAYER BM1~BM3"));
    }

    #[test]
    fn malformed_size_reports_line() {
        let e = parse_lef("MACRO X\n SIZE nope BY 1 ;\nEND X\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.to_string().contains("line 2"));
        // Non-finite, negative and overflowing sizes are malformed too.
        for bad in ["NaN", "inf", "-inf", "-1", "1e300"] {
            for size in [format!("{bad} BY 1"), format!("1 BY {bad}")] {
                let text = format!("MACRO X\n SIZE {size} ;\nEND X\n");
                let e = parse_lef(&text).unwrap_err();
                assert_eq!(e.line, 2, "SIZE {size}");
            }
        }
    }

    #[test]
    fn empty_lef_is_empty_map() {
        assert!(parse_lef("").unwrap().is_empty());
    }
}
