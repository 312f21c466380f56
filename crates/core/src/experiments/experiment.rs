//! The [`Experiment`] abstraction every runner implements.
//!
//! Introduced by the `oranges-campaign` orchestrator (which re-exports
//! it): a schedulable unit of paper reproduction. The trait is defined
//! here, next to the runners, because the nine experiment modules
//! implement it and the campaign crate sits above this one.
//!
//! An experiment names itself ([`Experiment::id`]), digests its
//! parameters into a stable cache key ([`Experiment::params`]), declares
//! its §4 repetition protocol, and runs against a [`Platform`] producing
//! an [`ExperimentOutput`]: provenance-stamped [`MetricSet`]s plus their
//! canonical JSON (value identity / caching). The simulation is
//! deterministic, so the same id + params always produce byte-identical
//! output — which is what makes content-keyed result caching sound.

use crate::platform::Platform;
use oranges_gemm::GemmError;
use oranges_harness::json::{JsonParseError, JsonValue, Member, Token, Tokenizer};
use oranges_harness::metric::{self, MetricParseError, MetricRow, MetricSet};
use oranges_harness::RepetitionProtocol;
use oranges_soc::chip::ChipGeneration;
use std::fmt;
use std::sync::OnceLock;

/// Failure of one experiment unit.
#[derive(Debug, Clone, PartialEq)]
pub enum ExperimentError {
    /// A GEMM kernel or its measurement failed.
    Gemm(GemmError),
    /// A result's JSON failed to decode.
    Serialization(String),
    /// Anything else.
    Other(String),
}

impl fmt::Display for ExperimentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExperimentError::Gemm(e) => write!(f, "gemm: {e}"),
            ExperimentError::Serialization(msg) => write!(f, "serialization: {msg}"),
            ExperimentError::Other(msg) => f.write_str(msg),
        }
    }
}

impl std::error::Error for ExperimentError {}

impl From<GemmError> for ExperimentError {
    fn from(e: GemmError) -> Self {
        ExperimentError::Gemm(e)
    }
}

impl From<JsonParseError> for ExperimentError {
    fn from(e: JsonParseError) -> Self {
        ExperimentError::Serialization(e.to_string())
    }
}

impl From<MetricParseError> for ExperimentError {
    fn from(e: MetricParseError) -> Self {
        ExperimentError::Serialization(e.to_string())
    }
}

/// What one experiment unit produces: the typed measurement records and
/// their canonical identity.
///
/// The identity is the canonical JSON of [`sets`](ExperimentOutput::sets),
/// read through [`json`](ExperimentOutput::json). It is always
/// [`metric::sets_to_json`]'s output, derived from the sets on first read:
/// [`from_sets`](ExperimentOutput::from_sets) derives it at once, so an
/// engine worker pays the emission next to the run, while
/// [`decode`](ExperimentOutput::decode) leaves it to the first reader, so
/// a client that only reads the sets never re-emits what it just parsed.
/// The result cache derives every output it stores before it takes its
/// lock, so a stored output's bytes are ready for the service to splice.
#[derive(Debug, Clone)]
pub struct ExperimentOutput {
    /// Canonical JSON of `sets`, derived on first read.
    json: OnceLock<String>,
    /// The unit's measurements: one [`MetricSet`] per grid coordinate.
    /// The canonical JSON is derived from them at most once, so a change
    /// to them after construction would leave it stale (wall-time
    /// stamps, which it leaves out, excepted).
    pub sets: Vec<MetricSet>,
    /// Human-readable rendering (chart or table), where the runner has
    /// one.
    pub rendered: Option<String>,
}

/// Equal outputs have byte-equal canonical JSON, equal sets and equal
/// renderings. Comparing the bytes keeps `0.0` and `-0.0` apart, which
/// the sets' own `f64` comparison would not.
impl PartialEq for ExperimentOutput {
    fn eq(&self, other: &Self) -> bool {
        self.json() == other.json() && self.sets == other.sets && self.rendered == other.rendered
    }
}

impl ExperimentOutput {
    /// The output envelope's own members, in the order the result cache
    /// writes them and [`decode`](ExperimentOutput::decode) predicts them.
    pub const MEMBERS: [&'static str; 3] = ["wall_time_s", "rendered", "sets"];

    /// Build from the unit's metric sets, deriving the canonical JSON
    /// here, so an engine worker pays the emission next to the run.
    /// Building cannot fail today; the `Result` is the shape the
    /// runners propagate.
    pub fn from_sets(
        sets: Vec<MetricSet>,
        rendered: Option<String>,
    ) -> Result<Self, ExperimentError> {
        let Ok(json) = metric::sets_to_json(&sets);
        Ok(ExperimentOutput {
            json: OnceLock::from(json),
            sets,
            rendered,
        })
    }

    /// Canonical JSON of the metric sets. Byte-equal across identical
    /// runs (wall-time is excluded from serialization and the
    /// deterministic simulation guarantees the rest); the campaign's
    /// value-identity checks and cache semantics rest on this.
    ///
    /// It is always `sets_to_json(sets)`, derived on the first call when
    /// [`from_sets`](ExperimentOutput::from_sets) did not already derive
    /// it, so it never holds a raw newline. The campaign service relies
    /// on that to splice these bytes into a wire line unchanged.
    pub fn json(&self) -> &str {
        self.json.get_or_init(|| {
            let Ok(json) = metric::sets_to_json(&self.sets);
            json
        })
    }

    /// Flat (coordinate, metric) rows for the generic emitters.
    pub fn rows(&self) -> Vec<MetricRow> {
        metric::rows(&self.sets)
    }

    /// Decode an output envelope from the tokenizer's next value: an
    /// object carrying `sets` (an array of serialized [`MetricSet`]s), an
    /// optional `rendered` string and an optional `wall_time_s` stamp.
    /// The disk-persistent result cache and the campaign service both
    /// carry outputs in this shape, each with members of its own: those
    /// go to `other` with the tokenizer at the member's value, and
    /// `other` either reads the value and returns `true` or returns
    /// `false` to have it skipped. Member order is free and a repeated
    /// key counts once, at its first occurrence. The canonical JSON is
    /// not emitted here: [`json`](ExperimentOutput::json) derives it
    /// from the decoded sets on first read, so a rebuilt output is
    /// value-identical to the original whatever the input's spacing,
    /// member order or number spelling.
    pub fn decode<'a>(
        tokens: &mut Tokenizer<'a>,
        mut other: impl FnMut(&str, &mut Tokenizer<'a>) -> Result<bool, ExperimentError>,
    ) -> Result<Self, ExperimentError> {
        ExperimentOutput::decode_carried(tokens, &[], |member, tokens| match member {
            Member::Other(key) => other(&key, tokens),
            Member::Known(_) => unreachable!("no carrier member names were given"),
        })
    }

    /// [`decode`](ExperimentOutput::decode) for a carrier that writes
    /// its own members, `names`, before the output's, in that order. A
    /// carrier member comes to `other` as [`Member::Known`] with its
    /// index in `names`, any other unknown member as [`Member::Other`].
    /// Members are read with [`Tokenizer::next_member`] over `names`
    /// followed by [`MEMBERS`](ExperimentOutput::MEMBERS), so on the
    /// writer's output every key is one predicted comparison.
    pub fn decode_carried<'a>(
        tokens: &mut Tokenizer<'a>,
        names: &[&str],
        mut other: impl FnMut(Member<'a>, &mut Tokenizer<'a>) -> Result<bool, ExperimentError>,
    ) -> Result<Self, ExperimentError> {
        let malformed = |message: String| ExperimentError::Serialization(message);
        if !tokens.begin_object()? {
            return Err(malformed("output is not an object".into()));
        }
        let members: Vec<&str> = names.iter().chain(&Self::MEMBERS).copied().collect();
        let (mut sets, mut rendered, mut wall) = (None, None, None);
        let mut next = 0;
        while let Some(member) = tokens.next_member(&members, &mut next)? {
            let own = match member {
                Member::Known(index) => index.checked_sub(names.len()),
                Member::Other(_) => None,
            };
            match own {
                None => {
                    if !other(member, tokens)? {
                        tokens.skip_value()?;
                    }
                }
                // A stamp that is not a number is ignored, not an error.
                Some(0) if wall.is_none() => {
                    wall = Some(tokens.read_or_skip(Tokenizer::f64_value)?)
                }
                Some(1) if rendered.is_none() => {
                    rendered = Some(match tokens.string_value()? {
                        Some(text) => Some(text.into_owned()),
                        None => match tokens.next_value()? {
                            Token::Null => None,
                            bad => return Err(malformed(format!("bad rendered field {bad:?}"))),
                        },
                    })
                }
                Some(2) if sets.is_none() => sets = Some(metric::decode_sets(tokens)?),
                _ => tokens.skip_value()?,
            }
        }
        let mut output = ExperimentOutput {
            json: OnceLock::new(),
            sets: sets.ok_or_else(|| malformed("output has no sets array".into()))?,
            rendered: rendered.flatten(),
        };
        if let Some((wall, _)) = wall.flatten() {
            output.stamp_wall_time(wall);
        }
        Ok(output)
    }

    /// [`decode`](ExperimentOutput::decode) over an already-parsed
    /// tree, ignoring members other than the output's own.
    pub fn from_json_value(value: &JsonValue) -> Result<Self, ExperimentError> {
        let text = value.to_json_string();
        ExperimentOutput::decode(&mut Tokenizer::new(&text), |_, _| Ok(false))
    }

    /// Stamp the unit's wall-clock time into every set's provenance.
    /// Called by the campaign scheduler after timing the run; the stamp
    /// does not perturb [`json`](ExperimentOutput::json) (wall-time is
    /// excluded from serialization by design).
    pub fn stamp_wall_time(&mut self, seconds: f64) {
        for set in &mut self.sets {
            set.provenance.wall_time_s = Some(seconds);
        }
    }

    /// The stamped per-unit wall time, if the scheduler has run this.
    pub fn wall_time_s(&self) -> Option<f64> {
        self.sets.first().and_then(|s| s.provenance.wall_time_s)
    }
}

/// A schedulable paper experiment.
///
/// `Send + Sync` because campaign workers share the plan across threads;
/// implementations are plain parameter holders, all mutable state lives
/// in the worker-owned [`Platform`].
pub trait Experiment: Send + Sync {
    /// Paper artifact id: `"fig1"` … `"fig4"`, `"tables"`,
    /// `"references"`, or an extension id.
    fn id(&self) -> &'static str;

    /// Stable, human-readable parameter digest. Together with [`id`]
    /// (and the chip) it forms the content key the result cache
    /// deduplicates on, so it must capture *every* input that affects
    /// the output.
    ///
    /// [`id`]: Experiment::id
    fn params(&self) -> String;

    /// The chip this unit is scoped to, or `None` for chip-independent
    /// units (tables, cross-system references). The scheduler hands the
    /// unit a platform of exactly this chip.
    fn chip(&self) -> Option<ChipGeneration>;

    /// The §4 repetition protocol the unit runs under.
    fn protocol(&self) -> RepetitionProtocol;

    /// Run the unit against `platform` (guaranteed by the scheduler to
    /// match [`chip`], when chip-scoped).
    ///
    /// [`chip`]: Experiment::chip
    fn run(&self, platform: &mut Platform) -> Result<ExperimentOutput, ExperimentError>;

    /// A [`MetricSet`] seeded with this unit's provenance (id, chip,
    /// params digest) — the starting point for every measurement the
    /// unit emits, so no runner hand-assembles provenance.
    fn base_set(&self) -> MetricSet {
        match self.chip() {
            Some(chip) => MetricSet::for_chip(self.id(), &self.params(), chip.name()),
            None => MetricSet::new(self.id(), &self.params()),
        }
    }
}

/// Format a size list for parameter digests. Lossless — the digest is a
/// cache key, so two different sweeps must never collide (a min-max-count
/// summary would alias e.g. `[2048, 4096, 8192]` and `[2048, 6144, 8192]`).
pub fn digest_sizes(sizes: &[usize]) -> String {
    if sizes.is_empty() {
        return "none".to_string();
    }
    sizes
        .iter()
        .map(|n| n.to_string())
        .collect::<Vec<_>>()
        .join(",")
}

/// The error returned when a chip-scoped experiment is handed a platform
/// of a different chip (the scheduler never does this; direct callers
/// might).
pub fn chip_mismatch(expected: ChipGeneration, got: ChipGeneration) -> ExperimentError {
    ExperimentError::Other(format!(
        "experiment is scoped to {expected} but was given a {got} platform"
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size_digests_are_stable_and_lossless() {
        assert_eq!(digest_sizes(&[32, 64, 128]), "32,64,128");
        assert_eq!(digest_sizes(&[]), "none");
        assert_eq!(digest_sizes(&[2048]), "2048");
        // Same bounds and count, different interior: distinct keys.
        assert_ne!(
            digest_sizes(&[2048, 4096, 8192]),
            digest_sizes(&[2048, 6144, 8192])
        );
    }

    #[test]
    fn output_rebuilds_from_its_json_envelope() {
        let mut original = ExperimentOutput::from_sets(
            vec![MetricSet::for_chip("fig1", "chip=M1", "M1").metric("gbs", 58.6, "GB/s")],
            Some("chart".to_string()),
        )
        .unwrap();
        original.stamp_wall_time(0.125);
        // The envelope shape the cache and service both use.
        let envelope = format!(
            "{{\"wall_time_s\":0.125,\"rendered\":\"chart\",\"sets\":{}}}",
            original.json()
        );
        let parsed = oranges_harness::json::parse(&envelope).unwrap();
        let rebuilt = ExperimentOutput::from_json_value(&parsed).unwrap();
        assert_eq!(rebuilt.json(), original.json(), "value identity survives");
        assert_eq!(rebuilt.sets, original.sets);
        assert_eq!(rebuilt.rendered.as_deref(), Some("chart"));
        assert_eq!(rebuilt.wall_time_s(), Some(0.125));

        let missing = oranges_harness::json::parse("{\"rendered\":null}").unwrap();
        assert!(ExperimentOutput::from_json_value(&missing).is_err());
    }

    #[test]
    fn errors_display_their_source() {
        let e = ExperimentError::from(GemmError::Dimension("bad".into()));
        assert!(e.to_string().contains("bad"));
        assert!(ExperimentError::Other("boom".into())
            .to_string()
            .contains("boom"));
    }
}
