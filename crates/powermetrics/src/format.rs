//! The text format — writing and parsing `powermetrics` output.
//!
//! The paper's pipeline writes samples to a text file with `-o FILENAME`
//! and then parses it "into a numeric format" (§4). The emitter below
//! mimics the relevant lines of the real tool's output; the parser
//! recovers exactly the fields the paper's scripts scrape
//! (`CPU Power`, `GPU Power`, `ANE Power`, `Combined Power`). Round-trip
//! fidelity is tested property-style: parse(write(s)) == s to integer mW.

use crate::rails::RailPowers;
use crate::sampler::Sample;
use std::fmt::Write as _;

/// Render one sample in `powermetrics`-style text.
pub fn write_sample(sample: &Sample) -> String {
    let mut out = String::new();
    let ms = sample.window().as_millis_f64();
    writeln!(out, "*** Sampled system activity ({ms:.0}ms elapsed) ***").unwrap();
    writeln!(out).unwrap();
    writeln!(out, "**** Processor usage ****").unwrap();
    writeln!(out).unwrap();
    writeln!(out, "CPU Power: {:.0} mW", sample.powers.cpu_mw).unwrap();
    writeln!(out, "GPU Power: {:.0} mW", sample.powers.gpu_mw).unwrap();
    writeln!(out, "ANE Power: {:.0} mW", sample.powers.ane_mw).unwrap();
    writeln!(
        out,
        "Combined Power (CPU + GPU + ANE): {:.0} mW",
        sample.powers.combined_mw()
    )
    .unwrap();
    writeln!(out).unwrap();
    writeln!(out, "DRAM Power: {:.0} mW", sample.powers.dram_mw).unwrap();
    out
}

/// A sample recovered from text.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ParsedSample {
    /// Window length, milliseconds (from the header line).
    pub elapsed_ms: f64,
    /// Rail powers, mW (integers in the text).
    pub powers: RailPowers,
    /// The file's own combined line, mW (cross-checked against rails).
    pub combined_mw: f64,
}

/// Parse failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// A required line is missing.
    MissingField(&'static str),
    /// A numeric field failed to parse.
    BadNumber(String),
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::MissingField(field) => write!(f, "missing field: {field}"),
            ParseError::BadNumber(s) => write!(f, "unparseable number: {s}"),
        }
    }
}

impl std::error::Error for ParseError {}

fn grab_number(line: &str) -> Result<f64, ParseError> {
    let tail = line
        .split(':')
        .nth(1)
        .ok_or(ParseError::MissingField("value after ':'"))?;
    let digits: String = tail
        .chars()
        .skip_while(|c| !c.is_ascii_digit() && *c != '-' && *c != '.')
        .take_while(|c| c.is_ascii_digit() || *c == '.' || *c == '-')
        .collect();
    digits
        .parse::<f64>()
        .map_err(|_| ParseError::BadNumber(line.to_string()))
}

/// Parse one sample block.
pub fn parse_sample(text: &str) -> Result<ParsedSample, ParseError> {
    let mut elapsed_ms = None;
    let mut cpu = None;
    let mut gpu = None;
    let mut ane = None;
    let mut dram = None;
    let mut combined = None;
    for line in text.lines() {
        let line = line.trim();
        if line.starts_with("*** Sampled system activity") {
            let inner: String = line
                .chars()
                .skip_while(|c| *c != '(')
                .skip(1)
                .take_while(|c| c.is_ascii_digit() || *c == '.')
                .collect();
            elapsed_ms = Some(
                inner
                    .parse::<f64>()
                    .map_err(|_| ParseError::BadNumber(line.to_string()))?,
            );
        } else if line.starts_with("Combined Power") {
            combined = Some(grab_number(line)?);
        } else if line.starts_with("CPU Power:") {
            cpu = Some(grab_number(line)?);
        } else if line.starts_with("GPU Power:") {
            gpu = Some(grab_number(line)?);
        } else if line.starts_with("ANE Power:") {
            ane = Some(grab_number(line)?);
        } else if line.starts_with("DRAM Power:") {
            dram = Some(grab_number(line)?);
        }
    }
    Ok(ParsedSample {
        elapsed_ms: elapsed_ms.ok_or(ParseError::MissingField("Sampled system activity"))?,
        powers: RailPowers {
            cpu_mw: cpu.ok_or(ParseError::MissingField("CPU Power"))?,
            gpu_mw: gpu.ok_or(ParseError::MissingField("GPU Power"))?,
            ane_mw: ane.unwrap_or(0.0),
            dram_mw: dram.unwrap_or(0.0),
        },
        combined_mw: combined.ok_or(ParseError::MissingField("Combined Power"))?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use oranges_soc::time::SimInstant;

    fn sample(cpu: f64, gpu: f64, ane: f64, dram: f64, ms: u64) -> Sample {
        Sample {
            window_start: SimInstant::EPOCH,
            window_end: SimInstant::from_nanos(ms * 1_000_000),
            powers: RailPowers {
                cpu_mw: cpu,
                gpu_mw: gpu,
                ane_mw: ane,
                dram_mw: dram,
            },
            energy_j: (cpu + gpu + ane + dram) / 1e3 * (ms as f64 / 1e3),
        }
    }

    #[test]
    fn emitter_shape_matches_the_tool() {
        let text = write_sample(&sample(5342.0, 123.0, 0.0, 456.0, 2000));
        assert!(text.contains("*** Sampled system activity (2000ms elapsed) ***"));
        assert!(text.contains("CPU Power: 5342 mW"));
        assert!(text.contains("GPU Power: 123 mW"));
        assert!(text.contains("Combined Power (CPU + GPU + ANE): 5465 mW"));
        assert!(text.contains("DRAM Power: 456 mW"));
    }

    #[test]
    fn parser_inverts_emitter() {
        let s = sample(1234.0, 5678.0, 9.0, 321.0, 1500);
        let parsed = parse_sample(&write_sample(&s)).unwrap();
        assert_eq!(parsed.powers.cpu_mw, 1234.0);
        assert_eq!(parsed.powers.gpu_mw, 5678.0);
        assert_eq!(parsed.powers.ane_mw, 9.0);
        assert_eq!(parsed.powers.dram_mw, 321.0);
        assert_eq!(parsed.elapsed_ms, 1500.0);
        assert_eq!(parsed.combined_mw, parsed.powers.combined_mw());
    }

    #[test]
    fn missing_fields_are_reported() {
        assert_eq!(
            parse_sample("CPU Power: 12 mW"),
            Err(ParseError::MissingField("Sampled system activity"))
        );
        let text = "*** Sampled system activity (10ms elapsed) ***\nGPU Power: 1 mW\nCombined Power (CPU + GPU + ANE): 1 mW";
        assert_eq!(
            parse_sample(text),
            Err(ParseError::MissingField("CPU Power"))
        );
    }

    #[test]
    fn tolerates_real_tool_noise() {
        // Real powermetrics interleaves other sections; the parser must
        // skip what it does not know.
        let text = "\
*** Sampled system activity (750ms elapsed) ***

**** Processor usage ****

E-Cluster Online: 100%
E-Cluster HW active frequency: 1187 MHz
CPU Power: 89 mW
GPU Power: 31 mW
ANE Power: 0 mW
Combined Power (CPU + GPU + ANE): 120 mW

**** GPU usage ****

GPU HW active frequency: 444 MHz
DRAM Power: 77 mW
";
        let parsed = parse_sample(text).unwrap();
        assert_eq!(parsed.powers.cpu_mw, 89.0);
        assert_eq!(parsed.powers.gpu_mw, 31.0);
        assert_eq!(parsed.powers.dram_mw, 77.0);
        assert_eq!(parsed.elapsed_ms, 750.0);
    }
}
