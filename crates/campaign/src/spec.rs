//! Campaign specifications: what to run, on what, with how many workers.

use oranges::experiments::{
    contention::ContentionExperiment, fig1::Fig1Experiment, fig2::Fig2Experiment,
    fig3::Fig3Experiment, fig4::Fig4Experiment, mixed_precision::MixedPrecisionExperiment,
    references::ReferencesExperiment, tables::TablesExperiment, thermal::ThermalExperiment,
    Experiment,
};
use oranges_harness::json::{self, JsonValue};
use oranges_soc::chip::ChipGeneration;
use std::fmt;
use std::sync::Arc;

/// The paper artifacts (and extensions) a campaign can schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExperimentKind {
    /// Figure 1 — STREAM bandwidth.
    Fig1,
    /// Figure 2 — GFLOPS grid.
    Fig2,
    /// Figure 3 — power grid.
    Fig3,
    /// Figure 4 — efficiency grid.
    Fig4,
    /// Tables 1–3 (chip-independent).
    Tables,
    /// HPC Perspective comparisons R1–R3 (chip-independent).
    References,
    /// Extension: CPU+GPU memory contention.
    Contention,
    /// Extension: sustained-load thermal behaviour.
    Thermal,
    /// Extension: mixed-precision headroom.
    MixedPrecision,
}

impl ExperimentKind {
    /// Every kind, in report order.
    pub const ALL: [ExperimentKind; 9] = [
        ExperimentKind::Fig1,
        ExperimentKind::Fig2,
        ExperimentKind::Fig3,
        ExperimentKind::Fig4,
        ExperimentKind::Tables,
        ExperimentKind::References,
        ExperimentKind::Contention,
        ExperimentKind::Thermal,
        ExperimentKind::MixedPrecision,
    ];

    /// The four paper figures — the acceptance grid.
    pub(crate) const FIGURES: [ExperimentKind; 4] = [
        ExperimentKind::Fig1,
        ExperimentKind::Fig2,
        ExperimentKind::Fig3,
        ExperimentKind::Fig4,
    ];

    /// Whether this kind expands into one unit per chip.
    pub(crate) fn per_chip(&self) -> bool {
        !matches!(self, ExperimentKind::Tables | ExperimentKind::References)
    }

    /// The stable artifact id this kind instantiates — identical to
    /// [`Experiment::id`] of the instantiated unit, and the token the
    /// JSON spec format uses.
    pub fn id(&self) -> &'static str {
        match self {
            ExperimentKind::Fig1 => "fig1",
            ExperimentKind::Fig2 => "fig2",
            ExperimentKind::Fig3 => "fig3",
            ExperimentKind::Fig4 => "fig4",
            ExperimentKind::Tables => "tables",
            ExperimentKind::References => "references",
            ExperimentKind::Contention => "contention",
            ExperimentKind::Thermal => "thermal",
            ExperimentKind::MixedPrecision => "mixed_precision",
        }
    }

    /// Parse an artifact id back into a kind (the inverse of
    /// [`id`](ExperimentKind::id)).
    pub fn parse(id: &str) -> Result<Self, SpecParseError> {
        ExperimentKind::ALL
            .into_iter()
            .find(|kind| kind.id() == id)
            .ok_or_else(|| SpecParseError(format!("unknown experiment id '{id}'")))
    }

    /// Instantiate the unit for `chip` (`None` for chip-independent
    /// kinds) under `spec`'s overrides.
    pub fn instantiate(
        &self,
        chip: Option<ChipGeneration>,
        spec: &CampaignSpec,
    ) -> Arc<dyn Experiment> {
        let chip_of =
            |chip: Option<ChipGeneration>| chip.expect("per-chip kind expands with a chip");
        match self {
            ExperimentKind::Fig1 => Arc::new(Fig1Experiment {
                chip: chip_of(chip),
            }),
            ExperimentKind::Fig2 => {
                let mut experiment = Fig2Experiment::paper(chip_of(chip));
                if let Some(sizes) = &spec.gemm_sizes {
                    experiment.sizes = sizes.clone();
                }
                if let Some(ceiling) = spec.verify_max_flops {
                    experiment.verify_max_flops = ceiling;
                }
                Arc::new(experiment)
            }
            ExperimentKind::Fig3 => {
                let mut experiment = Fig3Experiment::paper(chip_of(chip));
                if let Some(sizes) = &spec.power_sizes {
                    experiment.sizes = sizes.clone();
                }
                Arc::new(experiment)
            }
            ExperimentKind::Fig4 => {
                let mut experiment = Fig4Experiment::paper(chip_of(chip));
                if let Some(sizes) = &spec.power_sizes {
                    experiment.sizes = sizes.clone();
                }
                Arc::new(experiment)
            }
            ExperimentKind::Tables => Arc::new(TablesExperiment),
            ExperimentKind::References => Arc::new(ReferencesExperiment),
            ExperimentKind::Contention => Arc::new(ContentionExperiment {
                chip: chip_of(chip),
            }),
            ExperimentKind::Thermal => {
                Arc::new(ThermalExperiment::sustained_cutlass(chip_of(chip)))
            }
            ExperimentKind::MixedPrecision => Arc::new(MixedPrecisionExperiment {
                chip: chip_of(chip),
            }),
        }
    }
}

/// What a campaign runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignSpec {
    /// Experiment kinds to schedule.
    pub experiments: Vec<ExperimentKind>,
    /// Chips the per-chip kinds expand over.
    pub chips: Vec<ChipGeneration>,
    /// Override Figure 2's size sweep (`None` = the paper's sizes). At
    /// most [`MAX_SIZES`] sizes, each in [`MIN_SIZE`]`..=`[`MAX_SIZE`];
    /// parsing and plan expansion refuse anything else.
    pub gemm_sizes: Option<Vec<usize>>,
    /// Override Figures 3/4's size sweep (`None` = the paper's sizes),
    /// under the same limits as `gemm_sizes`.
    pub power_sizes: Option<Vec<usize>>,
    /// Override Figure 2's verification FLOP ceiling (a value above the
    /// backends' functional ceiling, 600 MFLOP, is clamped to it).
    pub verify_max_flops: Option<u64>,
    /// Worker threads (clamped to ≥ 1 by the scheduler).
    pub workers: usize,
    /// Run only shard `(index, count)` of the expanded plan (`None` =
    /// the whole plan). The union of all `count` shards — across
    /// processes, each with its own cache file — equals the unsharded
    /// campaign.
    pub shard: Option<(usize, usize)>,
}

impl CampaignSpec {
    /// A spec over `experiments` × `chips` with a default worker count
    /// of one per chip.
    pub fn new(experiments: Vec<ExperimentKind>, chips: Vec<ChipGeneration>) -> Self {
        let workers = chips.len().max(1);
        CampaignSpec {
            experiments,
            chips,
            gemm_sizes: None,
            power_sizes: None,
            verify_max_flops: None,
            workers,
            shard: None,
        }
    }

    /// The acceptance grid: Figures 1–4 across M1–M4 at the paper's
    /// full sizes.
    pub fn paper_grid() -> Self {
        CampaignSpec::new(
            ExperimentKind::FIGURES.to_vec(),
            ChipGeneration::ALL.to_vec(),
        )
    }

    /// Everything: figures, tables, references, and the three
    /// extensions, across all chips.
    pub fn full() -> Self {
        CampaignSpec::new(ExperimentKind::ALL.to_vec(), ChipGeneration::ALL.to_vec())
    }

    /// A fast grid for tests: all four figures on all chips but with
    /// reduced size sweeps and no functional verification.
    pub fn smoke() -> Self {
        CampaignSpec::new(
            ExperimentKind::FIGURES.to_vec(),
            ChipGeneration::ALL.to_vec(),
        )
        .with_gemm_sizes(vec![256, 1024])
        .with_power_sizes(vec![2048, 4096])
        .with_verify_max_flops(0)
    }

    /// Set the worker count.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Override Figure 2's size sweep.
    pub fn with_gemm_sizes(mut self, sizes: Vec<usize>) -> Self {
        self.gemm_sizes = Some(sizes);
        self
    }

    /// Override Figures 3/4's size sweep.
    pub fn with_power_sizes(mut self, sizes: Vec<usize>) -> Self {
        self.power_sizes = Some(sizes);
        self
    }

    /// Override Figure 2's verification ceiling.
    pub fn with_verify_max_flops(mut self, flops: u64) -> Self {
        self.verify_max_flops = Some(flops);
        self
    }

    /// Restrict the campaign to shard `index` of `count` (see
    /// [`Plan::shard`](crate::plan::Plan::shard)). A degenerate
    /// assignment — `count == 0` or `index >= count` — is a typed
    /// [`SpecParseError`] at spec-build time, so a bad CLI flag or wire
    /// document fails before any unit is scheduled, never mid-campaign.
    pub fn with_shard(mut self, index: usize, count: usize) -> Result<Self, SpecParseError> {
        validate_shard(index, count)?;
        self.shard = Some((index, count));
        Ok(self)
    }

    /// Check the size overrides against [`MIN_SIZE`]`..=`[`MAX_SIZE`]
    /// and [`MAX_SIZES`], as [`from_json`](CampaignSpec::from_json)
    /// does. Plan expansion calls this, so a spec built in code with an
    /// out-of-range size fails before any unit runs.
    pub(crate) fn validate_sizes(&self) -> Result<(), SpecParseError> {
        for (field, sizes) in [
            ("gemm_sizes", &self.gemm_sizes),
            ("power_sizes", &self.power_sizes),
        ] {
            if let Some(sizes) = sizes {
                check_size_list(field, sizes.iter().map(|&n| n as u64))?;
            }
        }
        Ok(())
    }

    /// Serialize to the JSON wire format the campaign service and the
    /// shard orchestrator exchange.
    pub fn to_json(&self) -> String {
        self.to_json_value().to_json_string()
    }

    /// The spec as a JSON tree, the body of a service `run` request.
    /// Stable field order; `None` overrides are omitted, so the emitted
    /// document stays minimal and byte-deterministic.
    pub(crate) fn to_json_value(&self) -> JsonValue {
        let ids = self
            .experiments
            .iter()
            .map(|kind| JsonValue::String(kind.id().to_string()))
            .collect();
        let chips = self
            .chips
            .iter()
            .map(|chip| JsonValue::String(chip.name().to_string()))
            .collect();
        let sizes = |sizes: &[usize]| {
            JsonValue::Array(
                sizes
                    .iter()
                    .map(|&n| JsonValue::integer(n as u64))
                    .collect(),
            )
        };
        let mut fields = vec![
            ("experiments".to_string(), JsonValue::Array(ids)),
            ("chips".to_string(), JsonValue::Array(chips)),
            (
                "workers".to_string(),
                JsonValue::integer(self.workers as u64),
            ),
        ];
        if let Some(gemm) = &self.gemm_sizes {
            fields.push(("gemm_sizes".to_string(), sizes(gemm)));
        }
        if let Some(power) = &self.power_sizes {
            fields.push(("power_sizes".to_string(), sizes(power)));
        }
        if let Some(flops) = self.verify_max_flops {
            fields.push(("verify_max_flops".to_string(), JsonValue::integer(flops)));
        }
        if let Some((index, count)) = self.shard {
            fields.push((
                "shard".to_string(),
                JsonValue::Array(vec![
                    JsonValue::integer(index as u64),
                    JsonValue::integer(count as u64),
                ]),
            ));
        }
        JsonValue::Object(fields)
    }

    /// Parse a spec from its JSON wire format (the inverse of
    /// [`to_json`](CampaignSpec::to_json)).
    pub fn from_json(text: &str) -> Result<Self, SpecParseError> {
        let value = json::parse(text).map_err(|e| SpecParseError(e.to_string()))?;
        CampaignSpec::from_json_value(&value)
    }

    /// Parse a spec from an already-parsed JSON tree (the shape a
    /// service request's `body` carries).
    pub fn from_json_value(value: &JsonValue) -> Result<Self, SpecParseError> {
        let string_list = |field: &str| -> Result<Vec<&str>, SpecParseError> {
            value
                .get(field)
                .and_then(JsonValue::as_array)
                .ok_or_else(|| SpecParseError(format!("spec has no '{field}' array")))?
                .iter()
                .map(|item| {
                    item.as_str()
                        .ok_or_else(|| SpecParseError(format!("'{field}' entries must be strings")))
                })
                .collect()
        };
        let size_list = |field: &str| -> Result<Option<Vec<usize>>, SpecParseError> {
            match value.get(field) {
                None | Some(JsonValue::Null) => Ok(None),
                Some(JsonValue::Array(items)) => {
                    let sizes = items
                        .iter()
                        .map(|item| {
                            item.as_u64().ok_or_else(|| {
                                SpecParseError(format!("'{field}' entries must be whole numbers"))
                            })
                        })
                        .collect::<Result<Vec<u64>, _>>()?;
                    check_size_list(field, sizes.iter().copied())?;
                    Ok(Some(sizes.into_iter().map(|n| n as usize).collect()))
                }
                Some(other) => Err(SpecParseError(format!(
                    "'{field}' is not an array: {other:?}"
                ))),
            }
        };

        let experiments = string_list("experiments")?
            .into_iter()
            .map(ExperimentKind::parse)
            .collect::<Result<Vec<_>, _>>()?;
        let chips = string_list("chips")?
            .into_iter()
            .map(|name| ChipGeneration::parse(name).map_err(|e| SpecParseError(e.to_string())))
            .collect::<Result<Vec<_>, _>>()?;

        let mut spec = CampaignSpec::new(experiments, chips);
        if let Some(workers) = value.get("workers") {
            let workers = workers
                .as_u64()
                .filter(|&w| w > 0)
                .ok_or_else(|| SpecParseError("'workers' must be a positive integer".into()))?;
            spec.workers = workers as usize;
        }
        spec.gemm_sizes = size_list("gemm_sizes")?;
        spec.power_sizes = size_list("power_sizes")?;
        spec.verify_max_flops = match value.get("verify_max_flops") {
            None | Some(JsonValue::Null) => None,
            Some(flops) => Some(flops.as_u64().ok_or_else(|| {
                SpecParseError("'verify_max_flops' must be a non-negative integer".into())
            })?),
        };
        match value.get("shard") {
            None | Some(JsonValue::Null) => {}
            Some(shard) => {
                let pair = shard
                    .as_array()
                    .filter(|items| items.len() == 2)
                    .ok_or_else(|| {
                        SpecParseError("'shard' must be an [index, count] pair".into())
                    })?;
                let (index, count) = match (pair[0].as_u64(), pair[1].as_u64()) {
                    (Some(index), Some(count)) => (index as usize, count as usize),
                    _ => {
                        return Err(SpecParseError(format!(
                            "'shard' pair {shard:?} is not a valid index/count"
                        )))
                    }
                };
                validate_shard(index, count)?;
                spec.shard = Some((index, count));
            }
        }
        Ok(spec)
    }
}

/// The smallest matrix size a spec may name. A 1×1 product models to
/// a measurement window with no elapsed time, which fails its unit.
pub const MIN_SIZE: usize = 2;

/// The largest matrix size a spec may name: four times the paper's
/// largest, 16,384. Its GEMM FLOP count (about 5.6 × 10¹⁴) is far inside
/// `u64`, and the experiments only model cells this large, without
/// allocating their operands.
pub const MAX_SIZE: usize = 65_536;

/// The most entries one size list (`gemm_sizes`, `power_sizes`) may
/// hold. The paper's longest sweep, Figure 2's, has 10.
pub const MAX_SIZES: usize = 64;

/// Check a size list against [`MIN_SIZE`]`..=`[`MAX_SIZE`] and
/// [`MAX_SIZES`]. The JSON spec parser and plan expansion both apply it,
/// so an out-of-range size is a typed error naming `field` whether the
/// spec came over the wire or was built in code.
fn check_size_list(
    field: &str,
    mut sizes: impl ExactSizeIterator<Item = u64>,
) -> Result<(), SpecParseError> {
    if sizes.len() > MAX_SIZES {
        return Err(SpecParseError(format!(
            "'{field}' holds {} sizes, more than {MAX_SIZES}",
            sizes.len()
        )));
    }
    let range = MIN_SIZE as u64..=MAX_SIZE as u64;
    match sizes.find(|n| !range.contains(n)) {
        Some(n) => Err(SpecParseError(format!(
            "'{field}' size {n} is outside {MIN_SIZE}..={MAX_SIZE}"
        ))),
        None => Ok(()),
    }
}

/// Check a shard assignment: `count` must be positive and `index` in
/// range. The one validation every shard entry point shares —
/// [`CampaignSpec::with_shard`], the JSON spec parser, and
/// [`Plan::shard`](crate::plan::Plan::shard) — so a degenerate
/// assignment is a typed error everywhere, never a panic or a silent
/// empty plan.
pub(crate) fn validate_shard(index: usize, count: usize) -> Result<(), SpecParseError> {
    if count == 0 {
        return Err(SpecParseError(
            "shard count must be positive (0 shards cannot cover a plan)".to_string(),
        ));
    }
    if index >= count {
        return Err(SpecParseError(format!(
            "shard index {index} out of range for {count} shards"
        )));
    }
    Ok(())
}

/// A spec document that does not describe a runnable campaign.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecParseError(pub(crate) String);

impl fmt::Display for SpecParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "spec parse error: {}", self.0)
    }
}

impl std::error::Error for SpecParseError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_grid_covers_figures_times_chips() {
        let spec = CampaignSpec::paper_grid();
        assert_eq!(spec.experiments.len(), 4);
        assert_eq!(spec.chips.len(), 4);
        assert!(spec.experiments.iter().all(|k| k.per_chip()));
    }

    #[test]
    fn chip_independent_kinds_do_not_expand_per_chip() {
        assert!(!ExperimentKind::Tables.per_chip());
        assert!(!ExperimentKind::References.per_chip());
        assert_eq!(
            ExperimentKind::ALL.iter().filter(|k| !k.per_chip()).count(),
            2
        );
    }

    #[test]
    fn kind_ids_round_trip_and_match_experiment_ids() {
        for kind in ExperimentKind::ALL {
            assert_eq!(ExperimentKind::parse(kind.id()), Ok(kind));
            // The JSON token must equal the instantiated unit's id —
            // they share the cache-key namespace.
            let chip = kind.per_chip().then_some(ChipGeneration::M1);
            let unit = kind.instantiate(chip, &CampaignSpec::smoke());
            assert_eq!(unit.id(), kind.id());
        }
        assert!(ExperimentKind::parse("fig9").is_err());
    }

    #[test]
    fn spec_json_round_trips_exactly() {
        let minimal = CampaignSpec::paper_grid();
        assert_eq!(CampaignSpec::from_json(&minimal.to_json()), Ok(minimal));

        let full = CampaignSpec::new(
            vec![ExperimentKind::Fig2, ExperimentKind::MixedPrecision],
            vec![ChipGeneration::M1, ChipGeneration::M4],
        )
        .with_workers(6)
        .with_gemm_sizes(vec![256, 1024])
        .with_power_sizes(vec![2048])
        .with_verify_max_flops(0)
        .with_shard(1, 3)
        .expect("valid shard");
        let json = full.to_json();
        assert_eq!(CampaignSpec::from_json(&json), Ok(full));
        // Byte-deterministic: re-serializing the parsed spec reproduces
        // the same document.
        assert_eq!(CampaignSpec::from_json(&json).unwrap().to_json(), json);
    }

    #[test]
    fn spec_json_rejects_bad_documents() {
        for bad in [
            "not json",
            "{}",
            r#"{"experiments":["fig9"],"chips":["M1"]}"#,
            r#"{"experiments":["fig1"],"chips":["M9"]}"#,
            r#"{"experiments":["fig1"],"chips":["M1"],"workers":0}"#,
            r#"{"experiments":["fig1"],"chips":["M1"],"gemm_sizes":[1.5]}"#,
            r#"{"experiments":["fig1"],"chips":["M1"],"shard":[3,3]}"#,
            r#"{"experiments":["fig1"],"chips":["M1"],"shard":[0]}"#,
            r#"{"experiments":["fig1"],"chips":["M1"],"shard":[0,0]}"#,
        ] {
            assert!(CampaignSpec::from_json(bad).is_err(), "accepted {bad}");
        }
    }

    /// A spec with every override drawn at random.
    fn random_spec(rng: &mut proptest::test_runner::TestRng) -> CampaignSpec {
        let subset = |rng: &mut proptest::test_runner::TestRng, len: usize| -> Vec<usize> {
            (0..len).filter(|_| rng.below(2) == 0).collect()
        };
        let experiments = subset(rng, ExperimentKind::ALL.len())
            .into_iter()
            .map(|i| ExperimentKind::ALL[i])
            .collect();
        let chips = subset(rng, ChipGeneration::ALL.len())
            .into_iter()
            .map(|i| ChipGeneration::ALL[i])
            .collect();
        let sizes = |rng: &mut proptest::test_runner::TestRng| -> Vec<usize> {
            (0..rng.below(MAX_SIZES as u64 + 1))
                .map(|_| MIN_SIZE + rng.below((MAX_SIZE - MIN_SIZE + 1) as u64) as usize)
                .collect()
        };
        let mut spec =
            CampaignSpec::new(experiments, chips).with_workers(1 + rng.below(64) as usize);
        if rng.below(2) == 0 {
            spec = spec.with_gemm_sizes(sizes(rng));
        }
        if rng.below(2) == 0 {
            spec = spec.with_power_sizes(sizes(rng));
        }
        if rng.below(2) == 0 {
            spec = spec.with_verify_max_flops(rng.next_u64());
        }
        if rng.below(2) == 0 {
            let count = 1 + rng.below(8) as usize;
            spec = spec
                .with_shard(rng.below(count as u64) as usize, count)
                .expect("index below count");
        }
        spec
    }

    #[test]
    fn the_spec_tree_is_what_its_json_parses_to() {
        let mut specs = vec![
            CampaignSpec::paper_grid(),
            CampaignSpec::smoke(),
            CampaignSpec::full(),
        ];
        let mut rng = proptest::test_runner::TestRng::new(0x5bec);
        specs.extend((0..200).map(|_| random_spec(&mut rng)));
        for spec in specs {
            let text = spec.to_json();
            assert_eq!(json::parse(&text), Ok(spec.to_json_value()), "{text}");
            assert_eq!(CampaignSpec::from_json(&text), Ok(spec));
        }
    }

    #[test]
    fn sizes_outside_the_documented_limits_are_rejected_naming_the_member() {
        for field in ["gemm_sizes", "power_sizes"] {
            let body = |sizes: &str| {
                format!(r#"{{"experiments":["fig2","fig3"],"chips":["M1"],"{field}":{sizes}}}"#)
            };
            for bad in [
                "[0]".to_string(),
                "[1]".to_string(),
                format!("[{}]", MAX_SIZE + 1),
                "[2048,18446744073709551615]".to_string(),
                "[9223372036854775872]".to_string(),
                format!("[{}]", vec!["2048"; MAX_SIZES + 1].join(",")),
            ] {
                let error = CampaignSpec::from_json(&body(&bad)).expect_err(&bad);
                assert!(error.to_string().contains(field), "{bad}: {error}");
            }
            for good in [
                format!("[{MIN_SIZE}]"),
                format!("[{MAX_SIZE}]"),
                "[16384]".to_string(),
                format!("[{}]", vec!["2048"; MAX_SIZES].join(",")),
            ] {
                assert!(CampaignSpec::from_json(&body(&good)).is_ok(), "{good}");
            }
        }
    }

    #[test]
    fn code_built_specs_with_out_of_range_sizes_fail_before_any_unit_runs() {
        let cache = crate::ResultCache::new();
        for (spec, field) in [
            (
                CampaignSpec::smoke().with_gemm_sizes(vec![usize::MAX]),
                "gemm_sizes",
            ),
            (
                CampaignSpec::smoke().with_power_sizes(vec![2048, MAX_SIZE + 1]),
                "power_sizes",
            ),
            (
                CampaignSpec::smoke().with_gemm_sizes(vec![256; MAX_SIZES + 1]),
                "gemm_sizes",
            ),
        ] {
            match crate::run_campaign(&spec, &cache) {
                Err(crate::CampaignError::Spec(error)) => {
                    assert!(error.to_string().contains(field), "{error}")
                }
                other => panic!("expected a spec error, got {other:?}"),
            }
        }
        assert_eq!(cache.stats().entries, 0, "nothing ran");
    }

    #[test]
    fn degenerate_shards_are_typed_errors_at_build_time() {
        let error = CampaignSpec::smoke()
            .with_shard(0, 0)
            .expect_err("0 shards is degenerate");
        assert!(error.to_string().contains("must be positive"), "{error}");
        let error = CampaignSpec::smoke()
            .with_shard(4, 4)
            .expect_err("index past the end");
        assert!(error.to_string().contains("out of range"), "{error}");
        assert!(CampaignSpec::smoke().with_shard(3, 4).is_ok());
    }

    #[test]
    fn overrides_flow_into_units() {
        let spec = CampaignSpec::smoke();
        let unit = ExperimentKind::Fig2.instantiate(Some(ChipGeneration::M2), &spec);
        assert!(unit.params().contains("sizes=256,1024"));
        assert!(unit.params().contains("verify_max_flops=0"));
    }
}
