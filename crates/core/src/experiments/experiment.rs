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
use oranges_harness::json::JsonValue;
use oranges_harness::metric::{self, MetricRow, MetricSet};
use oranges_harness::RepetitionProtocol;
use oranges_soc::chip::ChipGeneration;
use std::fmt;

/// Failure of one experiment unit.
#[derive(Debug, Clone, PartialEq)]
pub enum ExperimentError {
    /// A GEMM kernel or its measurement failed.
    Gemm(GemmError),
    /// Serialization of the result failed.
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

impl From<oranges_harness::json::JsonError> for ExperimentError {
    fn from(e: oranges_harness::json::JsonError) -> Self {
        ExperimentError::Serialization(e.to_string())
    }
}

/// What one experiment unit produces: the typed measurement records and
/// their canonical identity.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentOutput {
    /// Canonical JSON of the metric sets. Byte-equal across identical
    /// runs (wall-time is excluded from serialization and the
    /// deterministic simulation guarantees the rest); the campaign's
    /// value-identity checks and cache semantics rest on this.
    ///
    /// It is always the JSON emitter's output, derived by
    /// [`from_sets`](ExperimentOutput::from_sets), including for outputs
    /// rebuilt on cache load and fleet merge, so it never holds a raw
    /// newline. The campaign service relies on that to splice these
    /// bytes into a wire line unchanged.
    pub json: String,
    /// The unit's measurements: one [`MetricSet`] per grid coordinate.
    pub sets: Vec<MetricSet>,
    /// Human-readable rendering (chart or table), where the runner has
    /// one.
    pub rendered: Option<String>,
}

impl ExperimentOutput {
    /// Build from the unit's metric sets; the canonical JSON is derived
    /// here, once, so every consumer sees the same identity.
    pub fn from_sets(
        sets: Vec<MetricSet>,
        rendered: Option<String>,
    ) -> Result<Self, ExperimentError> {
        Ok(ExperimentOutput {
            json: metric::sets_to_json(&sets)?,
            sets,
            rendered,
        })
    }

    /// Flat (coordinate, metric) rows for the generic emitters.
    pub fn rows(&self) -> Vec<MetricRow> {
        metric::rows(&self.sets)
    }

    /// Rebuild an output from a parsed JSON object carrying `sets` (an
    /// array of serialized [`MetricSet`]s), an optional `rendered`
    /// string, and an optional `wall_time_s` stamp. This is the envelope
    /// shape both the disk-persistent result cache and the campaign
    /// service stream — the canonical JSON is re-derived from the parsed
    /// sets, so a rebuilt output is value-identical to the original.
    pub fn from_json_value(value: &JsonValue) -> Result<Self, ExperimentError> {
        let sets = value
            .get("sets")
            .and_then(JsonValue::as_array)
            .ok_or_else(|| ExperimentError::Serialization("output has no sets array".into()))?
            .iter()
            .map(metric::set_from_json)
            .collect::<Result<Vec<MetricSet>, _>>()
            .map_err(|e| ExperimentError::Serialization(e.to_string()))?;
        let rendered = match value.get("rendered") {
            None | Some(JsonValue::Null) => None,
            Some(JsonValue::String(s)) => Some(s.clone()),
            Some(other) => {
                return Err(ExperimentError::Serialization(format!(
                    "bad rendered field {other:?}"
                )))
            }
        };
        let mut output = ExperimentOutput::from_sets(sets, rendered)?;
        if let Some(wall) = value.get("wall_time_s").and_then(JsonValue::as_f64) {
            output.stamp_wall_time(wall);
        }
        Ok(output)
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
            original.json
        );
        let parsed = oranges_harness::json::parse(&envelope).unwrap();
        let rebuilt = ExperimentOutput::from_json_value(&parsed).unwrap();
        assert_eq!(rebuilt.json, original.json, "value identity survives");
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
