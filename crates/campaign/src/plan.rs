//! Spec → plan expansion: the grid as dependency-free units.

use crate::spec::{CampaignSpec, SpecParseError};
use oranges::experiments::Experiment;
use std::fmt;
use std::sync::Arc;

/// The content key of one unit: experiment id + its full parameter
/// digest (which includes the chip). Two units with equal keys produce
/// byte-identical output, so the cache may serve either for both.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct UnitKey {
    /// Experiment id (`"fig1"`…).
    pub id: String,
    /// Parameter digest (`"chip=M1;sizes=…"`).
    pub params: String,
}

impl UnitKey {
    /// The key of an experiment instance.
    pub fn of(experiment: &dyn Experiment) -> Self {
        UnitKey {
            id: experiment.id().to_string(),
            params: experiment.params(),
        }
    }
}

impl fmt::Display for UnitKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]", self.id, self.params)
    }
}

/// One schedulable unit of a plan.
#[derive(Clone)]
pub struct PlanUnit {
    /// Position in the plan — the deterministic assembly order.
    pub index: usize,
    /// Content key.
    pub key: UnitKey,
    /// The experiment to run.
    pub experiment: Arc<dyn Experiment>,
}

impl fmt::Debug for PlanUnit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PlanUnit")
            .field("index", &self.index)
            .field("key", &self.key)
            .finish()
    }
}

/// A fully-expanded campaign: the unit list, in deterministic order.
#[derive(Debug, Clone, Default)]
pub struct Plan {
    /// Units in plan order (experiment kind outer, chip inner).
    pub units: Vec<PlanUnit>,
}

impl Plan {
    /// Expand a spec: per-chip kinds fan out over `spec.chips`,
    /// chip-independent kinds contribute one unit each. Duplicate keys
    /// (e.g. the same kind listed twice) are kept — the cache
    /// deduplicates the *work*, the plan preserves the *request*.
    pub fn expand(spec: &CampaignSpec) -> Plan {
        let mut units = Vec::new();
        for kind in &spec.experiments {
            if kind.per_chip() {
                for &chip in &spec.chips {
                    let experiment = kind.instantiate(Some(chip), spec);
                    units.push(PlanUnit {
                        index: units.len(),
                        key: UnitKey::of(experiment.as_ref()),
                        experiment,
                    });
                }
            } else {
                let experiment = kind.instantiate(None, spec);
                units.push(PlanUnit {
                    index: units.len(),
                    key: UnitKey::of(experiment.as_ref()),
                    experiment,
                });
            }
        }
        Plan { units }
    }

    /// Number of units.
    pub fn len(&self) -> usize {
        self.units.len()
    }

    /// Whether the plan is empty.
    pub fn is_empty(&self) -> bool {
        self.units.is_empty()
    }

    /// Deterministic 1-of-`count` partition for multi-process scale-out:
    /// shard `index` keeps every unit whose plan position is congruent to
    /// `index` modulo `count` (round-robin, so expensive kinds spread
    /// evenly instead of clumping in one shard). Kept units are
    /// re-indexed contiguously; the union of all `count` shards is
    /// exactly the unsharded plan, each unit exactly once.
    ///
    /// A degenerate assignment (`count == 0`, `index >= count`) is a
    /// typed [`SpecParseError`], matching the validation every spec
    /// entry point applies — never a panic, never a silently empty plan.
    pub fn shard(&self, index: usize, count: usize) -> Result<Plan, SpecParseError> {
        crate::spec::validate_shard(index, count)?;
        let units = self
            .units
            .iter()
            .filter(|unit| unit.index % count == index)
            .cloned()
            .enumerate()
            .map(|(position, mut unit)| {
                unit.index = position;
                unit
            })
            .collect();
        Ok(Plan { units })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{CampaignSpec, ExperimentKind};
    use oranges_soc::chip::ChipGeneration;

    #[test]
    fn paper_grid_expands_to_16_units() {
        let plan = Plan::expand(&CampaignSpec::paper_grid());
        assert_eq!(plan.len(), 16, "4 figures x 4 chips");
        // Deterministic order: kind-major, chip-minor.
        assert_eq!(plan.units[0].key.id, "fig1");
        assert!(plan.units[0].key.params.contains("M1"));
        assert_eq!(plan.units[15].key.id, "fig4");
        assert!(plan.units[15].key.params.contains("M4"));
    }

    #[test]
    fn chip_independent_kinds_expand_once() {
        let spec = CampaignSpec::new(
            vec![ExperimentKind::Tables, ExperimentKind::Fig1],
            vec![ChipGeneration::M1, ChipGeneration::M2],
        );
        let plan = Plan::expand(&spec);
        assert_eq!(plan.len(), 3);
        assert_eq!(plan.units[0].key.id, "tables");
    }

    #[test]
    fn shards_partition_the_plan_exactly() {
        let plan = Plan::expand(&CampaignSpec::paper_grid());
        for count in [1usize, 2, 3, 5] {
            let mut seen: Vec<UnitKey> = Vec::new();
            for index in 0..count {
                let shard = plan.shard(index, count).expect("valid assignment");
                // Contiguous re-indexing within the shard.
                assert!(shard.units.iter().enumerate().all(|(i, u)| u.index == i));
                seen.extend(shard.units.iter().map(|u| u.key.clone()));
            }
            let mut expected: Vec<UnitKey> = plan.units.iter().map(|u| u.key.clone()).collect();
            seen.sort();
            expected.sort();
            assert_eq!(seen, expected, "{count} shards must cover exactly");
        }
    }

    #[test]
    fn round_robin_spreads_kinds_across_shards() {
        let plan = Plan::expand(&CampaignSpec::paper_grid());
        let shard = plan.shard(0, 4).expect("valid assignment");
        let ids: Vec<&str> = shard.units.iter().map(|u| u.key.id.as_str()).collect();
        assert_eq!(ids, ["fig1", "fig2", "fig3", "fig4"], "one of each figure");
    }

    #[test]
    fn degenerate_shard_assignments_are_typed_errors() {
        let plan = Plan::expand(&CampaignSpec::paper_grid());
        let error = plan.shard(4, 4).expect_err("index past the end");
        assert!(error.to_string().contains("out of range"), "{error}");
        let error = plan.shard(0, 0).expect_err("zero shards");
        assert!(error.to_string().contains("must be positive"), "{error}");
    }

    #[test]
    fn duplicate_requests_share_a_key() {
        let spec = CampaignSpec::new(
            vec![ExperimentKind::Fig4, ExperimentKind::Fig4],
            vec![ChipGeneration::M3],
        );
        let plan = Plan::expand(&spec);
        assert_eq!(plan.len(), 2);
        assert_eq!(plan.units[0].key, plan.units[1].key);
    }
}
