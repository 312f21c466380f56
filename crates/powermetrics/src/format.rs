//! The text format — writing and parsing `powermetrics` output.
//!
//! The paper's pipeline writes samples to a text file with `-o FILENAME`
//! and then parses it "into a numeric format" (§4). The emitter below
//! mimics the relevant lines of the real tool's output; the parser
//! recovers exactly the fields the paper's scripts scrape
//! (`CPU Power`, `GPU Power`, `ANE Power`, `Combined Power`). Round-trip
//! fidelity is tested property-style: parse(write(s)) == s to integer mW.
//!
//! Every modeled power reading takes this round trip, so the writer
//! formats no float in the model's range and the parser builds no
//! `String` per field. The writer prints each `{:.0}` field as an
//! integer: `{:.0}` rounds half to even, as [`f64::round_ties_even`]
//! does, and below 2^53 every rounded `f64` is an integer that an `i64`
//! holds exactly, so the integer's digits are `{:.0}`'s text.
//! `tests::rounded_fields_equal_float_formatting` (a proptest over
//! `f64::from_bits`, exact ties and the model's range) and
//! `tests::rounded_fields_equal_float_formatting_on_edge_values` check
//! that the two agree. The parser slices each number out of its line and
//! parses the slice.

use crate::rails::RailPowers;
use crate::sampler::Sample;
use std::fmt::Write as _;

/// Render one sample in `powermetrics`-style text.
pub fn write_sample(sample: &Sample) -> String {
    let powers = &sample.powers;
    let mut out = String::with_capacity(256);
    let mut line = |head: &str, value: f64, tail: &str| {
        out.push_str(head);
        push_rounded(&mut out, value);
        out.push_str(tail);
    };
    line(
        "*** Sampled system activity (",
        sample.window().as_millis_f64(),
        "ms elapsed) ***\n\n**** Processor usage ****\n\n",
    );
    line("CPU Power: ", powers.cpu_mw, " mW\n");
    line("GPU Power: ", powers.gpu_mw, " mW\n");
    line("ANE Power: ", powers.ane_mw, " mW\n");
    line(
        "Combined Power (CPU + GPU + ANE): ",
        powers.combined_mw(),
        " mW\n\n",
    );
    line("DRAM Power: ", powers.dram_mw, " mW\n");
    out
}

/// Append `x` exactly as `{x:.0}` writes it.
///
/// Below 2^53 the half-to-even rounding is an `i64` whose digits are the
/// text; `{:.0}` also keeps the sign of a negative value that rounds to
/// zero ("-0"), which the integer would drop. NaN, the infinities and
/// larger magnitudes (which the model never produces) take `{:.0}` itself.
fn push_rounded(out: &mut String, x: f64) {
    const EXACT: f64 = 9_007_199_254_740_992.0; // 2^53
    let rounded = x.round_ties_even();
    let written = if rounded == 0.0 && x.is_sign_negative() {
        out.write_str("-0")
    } else if rounded.abs() < EXACT {
        write!(out, "{}", rounded as i64)
    } else {
        write!(out, "{x:.0}")
    };
    written.expect("writing to a String cannot fail");
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

/// The longest prefix of `s` whose bytes `accept` takes. `accept` takes
/// only ASCII bytes, so the prefix ends on a character boundary.
fn prefix_of(s: &str, accept: impl Fn(u8) -> bool) -> &str {
    &s[..s.bytes().position(|b| !accept(b)).unwrap_or(s.len())]
}

/// The number in a field line: between the first ':' and the next one,
/// the run of digits, '-' and '.' that starts at the first of them.
fn grab_number(line: &str) -> Result<f64, ParseError> {
    let tail = line
        .split(':')
        .nth(1)
        .ok_or(ParseError::MissingField("value after ':'"))?;
    let is_number = |b: u8| b.is_ascii_digit() || b == b'-' || b == b'.';
    let start = tail.bytes().position(is_number).unwrap_or(tail.len());
    prefix_of(&tail[start..], is_number)
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
            let inner = line.find('(').map_or("", |open| {
                prefix_of(&line[open + 1..], |b| b.is_ascii_digit() || b == b'.')
            });
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
        sample_ns(cpu, gpu, ane, dram, ms * 1_000_000)
    }

    fn sample_ns(cpu: f64, gpu: f64, ane: f64, dram: f64, ns: u64) -> Sample {
        Sample {
            window_start: SimInstant::EPOCH,
            window_end: SimInstant::from_nanos(ns),
            powers: RailPowers {
                cpu_mw: cpu,
                gpu_mw: gpu,
                ane_mw: ane,
                dram_mw: dram,
            },
            energy_j: (cpu + gpu + ane + dram) / 1e3 * (ns as f64 / 1e9),
        }
    }

    fn rounded(x: f64) -> String {
        let mut out = String::new();
        push_rounded(&mut out, x);
        out
    }

    #[test]
    fn rounded_fields_equal_float_formatting_on_edge_values() {
        let two52 = 4_503_599_627_370_496.0f64;
        let two53 = 9_007_199_254_740_992.0f64;
        let edges = [
            0.0,
            0.4,
            0.5,
            0.5f64.next_down(),
            1.5,
            2.5,
            14_959.304348,
            two52 - 0.5,
            two53 - 1.0,
            two53,
            two53 + 2.0,
            9_223_372_036_854_775_808.0, // 2^63
            1e300,
            f64::MAX,
            f64::MIN_POSITIVE,
            f64::from_bits(1), // the smallest subnormal
            f64::NAN,
            f64::INFINITY,
        ];
        for x in edges {
            for x in [x, -x] {
                assert_eq!(rounded(x), format!("{x:.0}"), "{x:e}");
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(20_000))]
        #[test]
        fn rounded_fields_equal_float_formatting(
            bits in proptest::prelude::any::<u64>(),
            whole in -1i64 << 40..1i64 << 40,
            x in -1e7f64..1e7,
        ) {
            // Raw bit patterns are mostly huge or tiny, so exact ties and
            // the model's range are drawn as well.
            for x in [f64::from_bits(bits), whole as f64 + 0.5, x] {
                proptest::prop_assert_eq!(rounded(x), format!("{x:.0}"), "{:e}", x);
            }
        }
    }

    #[test]
    fn writer_emits_the_pinned_bytes() {
        let cases = [
            // Integral rails.
            (
                sample(5342.0, 123.0, 0.0, 456.0, 2000),
                "*** Sampled system activity (2000ms elapsed) ***\n\n\
                 **** Processor usage ****\n\n\
                 CPU Power: 5342 mW\nGPU Power: 123 mW\nANE Power: 0 mW\n\
                 Combined Power (CPU + GPU + ANE): 5465 mW\n\n\
                 DRAM Power: 456 mW\n",
            ),
            // Exact ties round to even: 2.5 → 2, 3.5 → 4, 0.5 → 0, 6.5 → 6.
            (
                sample(2.5, 3.5, 0.5, 1.5, 10),
                "*** Sampled system activity (10ms elapsed) ***\n\n\
                 **** Processor usage ****\n\n\
                 CPU Power: 2 mW\nGPU Power: 4 mW\nANE Power: 0 mW\n\
                 Combined Power (CPU + GPU + ANE): 6 mW\n\n\
                 DRAM Power: 2 mW\n",
            ),
            // A small negative rail keeps its sign: −0.4 → "-0".
            (
                sample(0.0, 0.0, -0.4, -0.4, 1),
                "*** Sampled system activity (1ms elapsed) ***\n\n\
                 **** Processor usage ****\n\n\
                 CPU Power: 0 mW\nGPU Power: 0 mW\nANE Power: -0 mW\n\
                 Combined Power (CPU + GPU + ANE): -0 mW\n\n\
                 DRAM Power: -0 mW\n",
            ),
            // A fractional window rounds to whole milliseconds.
            (
                sample_ns(18_512.7, 0.3, 0.0, 1_999.49, 14_959_304_348),
                "*** Sampled system activity (14959ms elapsed) ***\n\n\
                 **** Processor usage ****\n\n\
                 CPU Power: 18513 mW\nGPU Power: 0 mW\nANE Power: 0 mW\n\
                 Combined Power (CPU + GPU + ANE): 18513 mW\n\n\
                 DRAM Power: 1999 mW\n",
            ),
        ];
        for (sample, expected) in cases {
            assert_eq!(write_sample(&sample), expected);
        }
    }

    #[test]
    fn parser_pins_its_errors() {
        for header in [
            "*** Sampled system activity 10ms elapsed ***",
            // The window's digits must follow the '(' directly.
            "*** Sampled system activity ( 10ms elapsed) ***",
        ] {
            assert_eq!(
                parse_sample(&format!("{header}\nCPU Power: 1 mW")),
                Err(ParseError::BadNumber(header.to_string()))
            );
        }
        let head = "*** Sampled system activity (10ms elapsed) ***\n";
        for line in [
            "CPU Power: n/a mW",
            "GPU Power: - mW",
            "ANE Power: 1.2.3 mW",
            // Only the text up to a second ':' is the value.
            "DRAM Power: ab: 77 mW",
            "Combined Power (CPU + GPU + ANE): mW",
        ] {
            assert_eq!(
                parse_sample(&format!("{head}{line}\n")),
                Err(ParseError::BadNumber(line.to_string())),
                "{line}"
            );
        }
        assert_eq!(
            parse_sample(&format!("{head}Combined Power 12 mW\n")),
            Err(ParseError::MissingField("value after ':'"))
        );
        assert_eq!(
            ParseError::BadNumber("CPU Power: x".into()).to_string(),
            "unparseable number: CPU Power: x"
        );
    }

    #[test]
    fn parser_pins_line_endings_padding_and_non_ascii() {
        let crlf = write_sample(&sample(1234.0, 5678.0, 9.0, 321.0, 1500)).replace('\n', "\r\n");
        assert_eq!(
            parse_sample(&crlf),
            Ok(ParsedSample {
                elapsed_ms: 1500.0,
                powers: RailPowers {
                    cpu_mw: 1234.0,
                    gpu_mw: 5678.0,
                    ane_mw: 9.0,
                    dram_mw: 321.0,
                },
                combined_mw: 6921.0,
            })
        );
        let text = "  \t*** Sampled system activity (750.5ms — über) ***  \n\
                    \u{a0}CPU Power: ≈ 89 mW\u{a0}\n\
                    GPU Power:\t−31 mW (GPU 🍊)\n\
                    ANE Power: -0 mW\n\
                    Combined Power (CPU + GPU + ANE): 120.75mW:\n\
                    \x20DRAM Power: .5\n";
        let parsed = parse_sample(text).unwrap();
        assert_eq!(parsed.elapsed_ms, 750.5);
        assert_eq!(parsed.powers.cpu_mw, 89.0);
        // U+2212 is not '-': the digits after it are read unsigned.
        assert_eq!(parsed.powers.gpu_mw, 31.0);
        assert_eq!(parsed.powers.ane_mw.to_bits(), (-0.0f64).to_bits());
        assert_eq!(parsed.combined_mw, 120.75);
        assert_eq!(parsed.powers.dram_mw, 0.5);
        assert_eq!(
            parse_sample(&text.replace(" .5\n", " .5-\n")),
            Err(ParseError::BadNumber("DRAM Power: .5-".into()))
        );
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
