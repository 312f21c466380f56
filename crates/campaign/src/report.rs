//! Campaign aggregation: per-unit [`MetricSet`]s → rows, tables and
//! CSV — all through the generic metric emitters, with per-unit
//! wall-time accounting.

use crate::cache::CacheStats;
use crate::engine::UnitSource;
use crate::plan::UnitKey;
use oranges::experiments::ExperimentOutput;
use oranges_harness::metric::{self, MetricRow, MetricSet};
use oranges_harness::table::TextTable;
use std::sync::Arc;
use std::time::Duration;

/// One unit's slot in the report.
#[derive(Debug, Clone)]
pub struct UnitReport {
    /// Plan index (report order).
    pub index: usize,
    /// Content key.
    pub key: UnitKey,
    /// How the engine satisfied the unit: computed, cache hit, or
    /// coalesced onto another campaign's in-flight computation.
    pub source: UnitSource,
    /// Wall time this campaign spent servicing the unit (near-zero for
    /// a cache hit or coalesced join — the compute cost is charged to
    /// the campaign that triggered it).
    pub wall: Duration,
    /// The unit's output.
    pub output: Arc<ExperimentOutput>,
}

impl UnitReport {
    /// Whether the result arrived without this campaign computing it
    /// (cache hit or coalesced join) — derived from
    /// [`source`](UnitReport::source) so the two can never disagree.
    pub fn from_cache(&self) -> bool {
        self.source.from_cache()
    }

    /// Wall time of the *producing* run, from provenance — for a cache
    /// hit this is the original compute time, not the probe time.
    pub fn compute_wall_s(&self) -> Option<f64> {
        self.output.wall_time_s()
    }
}

/// The aggregate result of a campaign.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// Per-unit results in plan order.
    pub units: Vec<UnitReport>,
    /// Worker threads used.
    pub workers: usize,
    /// Wall-clock time of the whole campaign.
    pub wall: Duration,
    /// Cache statistics at completion.
    pub cache: CacheStats,
}

impl CampaignReport {
    /// Assemble (units must already be in plan order).
    pub fn new(units: Vec<UnitReport>, workers: usize, wall: Duration, cache: CacheStats) -> Self {
        debug_assert!(
            units.iter().enumerate().all(|(i, u)| u.index == i),
            "plan order"
        );
        CampaignReport {
            units,
            workers,
            wall,
            cache,
        }
    }

    /// Every unit's metric sets, in plan order.
    pub fn sets(&self) -> Vec<&MetricSet> {
        self.units
            .iter()
            .flat_map(|u| u.output.sets.iter())
            .collect()
    }

    /// All flat (coordinate, metric) rows, in plan order (deterministic:
    /// unit order is the plan's, set and metric order within a unit is
    /// the runner's).
    pub fn rows(&self) -> Vec<MetricRow> {
        self.units.iter().flat_map(|u| u.output.rows()).collect()
    }

    /// The value-identity digest: every unit's canonical JSON, keyed and
    /// concatenated in plan order. Two campaigns over the same spec are
    /// equal iff their digests are equal (wall-times are excluded from
    /// the canonical JSON, so timing noise never breaks identity).
    pub fn digest(&self) -> String {
        let mut digest = String::new();
        for unit in &self.units {
            digest.push_str(&unit.key.to_string());
            digest.push('=');
            digest.push_str(unit.output.json());
            digest.push('\n');
        }
        digest
    }

    /// A compact token of the value-identity [`digest`]: the FNV-1a
    /// 64-bit hash of the digest text, as 16 hex characters. Two reports
    /// with equal digests always have equal fingerprints, so it is what
    /// the service streams (and the orchestrator logs) instead of the
    /// full digest — cheap to compare across processes and sockets.
    ///
    /// [`digest`]: CampaignReport::digest
    pub fn fingerprint(&self) -> String {
        oranges_harness::fnv1a_64_hex(&self.digest())
    }

    /// Units computed (not served from cache) in this campaign.
    pub fn computed_units(&self) -> usize {
        self.units.iter().filter(|u| !u.from_cache()).count()
    }

    /// Units this campaign received by coalescing onto a computation
    /// another (possibly concurrent) campaign already had in flight.
    pub fn coalesced_units(&self) -> usize {
        self.units
            .iter()
            .filter(|u| u.source == UnitSource::Coalesced)
            .count()
    }

    /// Total wall time spent inside units, summed across workers. On an
    /// N-worker campaign this approaches N × [`wall`](CampaignReport::wall)
    /// when the pool stays busy; the ratio is the pool's utilization.
    pub fn unit_wall(&self) -> Duration {
        self.units.iter().map(|u| u.wall).sum()
    }

    /// Total *compute* wall carried in provenance — for a fully cached
    /// campaign this reports what the original computation cost, not
    /// the (near-zero) probe time.
    pub fn compute_wall_s(&self) -> f64 {
        self.units.iter().filter_map(|u| u.compute_wall_s()).sum()
    }

    /// The slowest unit of the campaign, if any ran.
    pub(crate) fn slowest_unit(&self) -> Option<&UnitReport> {
        self.units.iter().max_by_key(|u| u.wall)
    }

    /// Campaign throughput in units per second.
    pub fn units_per_second(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs == 0.0 {
            f64::INFINITY
        } else {
            self.units.len() as f64 / secs
        }
    }

    /// Fraction of this campaign's units served from the cache.
    pub fn campaign_hit_rate(&self) -> f64 {
        if self.units.is_empty() {
            0.0
        } else {
            self.units.iter().filter(|u| u.from_cache()).count() as f64 / self.units.len() as f64
        }
    }

    /// CSV of all rows, through the generic metric emitter.
    pub fn to_csv(&self) -> String {
        metric::rows_to_csv(&self.rows())
    }

    /// Human-readable summary table: one row per unit, with per-unit
    /// wall-time.
    pub fn render_summary(&self) -> String {
        let mut table =
            TextTable::new(vec!["#", "Unit", "Sets", "Metrics", "Source", "Wall (ms)"]).numeric();
        for unit in &self.units {
            let metric_count: usize = unit.output.sets.iter().map(|s| s.metrics.len()).sum();
            table.row(vec![
                unit.index.to_string(),
                unit.key.to_string(),
                unit.output.sets.len().to_string(),
                metric_count.to_string(),
                unit.source.as_str().to_string(),
                format!("{:.2}", unit.wall.as_secs_f64() * 1e3),
            ]);
        }
        format!(
            "Campaign: {} units ({} computed) on {} workers in {:.3} s \
             ({:.1} units/s, {:.0}% campaign hit rate)\n\
             Unit wall: {:.3} s total across workers ({:.1}x the campaign wall); \
             slowest unit {}\n{}",
            self.units.len(),
            self.computed_units(),
            self.workers,
            self.wall.as_secs_f64(),
            self.units_per_second(),
            self.campaign_hit_rate() * 100.0,
            self.unit_wall().as_secs_f64(),
            self.unit_wall().as_secs_f64() / self.wall.as_secs_f64().max(1e-12),
            self.slowest_unit()
                .map(|u| format!("{} ({:.2} ms)", u.key, u.wall.as_secs_f64() * 1e3))
                .unwrap_or_else(|| "n/a".to_string()),
            table.render()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> CampaignReport {
        let output = Arc::new(
            ExperimentOutput::from_sets(
                vec![MetricSet::for_chip("fig4", "chip=M1", "M1")
                    .with_implementation("GPU-MPS")
                    .with_n(2048)
                    .metric("gflops_per_watt", 200.0, "GFLOPS/W")],
                None,
            )
            .expect("serializable"),
        );
        let unit = |index: usize, source: UnitSource, wall_ms: u64| UnitReport {
            index,
            key: UnitKey {
                id: "fig4".into(),
                params: format!("chip=M{}", index + 1),
            },
            source,

            wall: Duration::from_millis(wall_ms),
            output: output.clone(),
        };
        CampaignReport::new(
            vec![
                unit(0, UnitSource::Computed, 200),
                unit(1, UnitSource::CacheHit, 1),
            ],
            2,
            Duration::from_millis(500),
            CacheStats {
                hits: 1,
                misses: 1,
                entries: 1,
            },
        )
    }

    #[test]
    fn digest_is_keyed_and_ordered() {
        let digest = report().digest();
        let lines: Vec<&str> = digest.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("fig4[chip=M1]="));
        assert!(lines[1].starts_with("fig4[chip=M2]="));
    }

    #[test]
    fn fingerprint_tracks_the_digest() {
        let r = report();
        assert_eq!(r.fingerprint().len(), 16);
        assert_eq!(r.fingerprint(), r.fingerprint(), "deterministic");
        let mut other = r.clone();
        other.units[0].key.params = "chip=M4".to_string();
        assert_ne!(other.fingerprint(), r.fingerprint());
        // Wall-time changes never perturb value identity.
        let mut timed = r.clone();
        timed.units[0].wall = Duration::from_secs(30);
        assert_eq!(timed.fingerprint(), r.fingerprint());
    }

    #[test]
    fn throughput_hit_rate_and_wall_accounting() {
        let r = report();
        assert_eq!(r.units_per_second(), 4.0);
        assert_eq!(r.campaign_hit_rate(), 0.5);
        assert_eq!(r.computed_units(), 1);
        assert_eq!(r.coalesced_units(), 0);
        assert_eq!(r.unit_wall(), Duration::from_millis(201));
        assert_eq!(r.slowest_unit().unwrap().index, 0);
    }

    #[test]
    fn emitters_cover_all_rows_generically() {
        let r = report();
        let csv = r.to_csv();
        assert_eq!(csv.lines().count(), 3, "header + 2 units x 1 row");
        assert!(csv.starts_with("experiment,chip,implementation,n,metric,type,value,unit"));
        assert_eq!(r.sets().len(), 2);
        let summary = r.render_summary();
        assert!(summary.contains("2 units (1 computed) on 2 workers"));
        assert!(summary.contains("Unit wall: 0.201 s"));
        assert!(summary.contains("cache"), "source column names the hit");
        assert!(summary.contains("computed"));
        assert!(summary.contains("Wall (ms)"));
    }
}
