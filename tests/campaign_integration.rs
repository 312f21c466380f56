//! Campaign orchestrator integration: the acceptance criteria.
//!
//! (a) a concurrent full-grid campaign (Figures 1–4 × M1–M4) is
//!     value-identical to the serial baseline, with wall-time populated
//!     on every unit;
//! (b) an immediate re-run of the same spec hits the cache for every
//!     unit (100% campaign hit rate);
//! (c) worker-count 1 vs N parity on a reduced grid;
//! (d) sharded runs union to exactly the unsharded campaign;
//! (e) the paper ledger of the grid equals the standalone pipelines'.

use oranges::experiments::{fig1, fig2, fig4};
use oranges::ledger::Ledger;
use oranges_campaign::prelude::*;

/// (a) + (b) on the full paper grid. One test so the expensive grid runs
/// once and both properties are checked against the same results.
#[test]
fn full_grid_concurrent_equals_serial_and_rerun_is_all_hits() {
    let spec = CampaignSpec::paper_grid().with_workers(4);
    assert_eq!(spec.chips.len(), 4);

    let serial = run_campaign_serial(&spec).expect("serial baseline");
    let cache = ResultCache::new();
    let concurrent = run_campaign(&spec, &cache).expect("concurrent campaign");

    // 4 figures x 4 chips, same plan both ways.
    assert_eq!(serial.units.len(), 16);
    assert_eq!(concurrent.units.len(), 16);
    assert_eq!(concurrent.workers, 4);

    // Value identity: canonical JSON of every unit, in plan order —
    // despite per-run wall-times differing (they are excluded from the
    // canonical form by design).
    assert_eq!(concurrent.digest(), serial.digest());
    assert_eq!(concurrent.fingerprint(), "eb58ccace1744c65");
    // And the flat metric-row streams agree cell for cell.
    assert_eq!(concurrent.rows(), serial.rows());
    assert!(concurrent.rows().len() > 100, "the grid is not trivial");

    // Wall-time is populated on every unit: both the service wall and
    // the compute wall stamped into provenance.
    for unit in concurrent.units.iter().chain(&serial.units) {
        assert!(unit.wall > std::time::Duration::ZERO, "{}", unit.key);
        assert!(unit.compute_wall_s().unwrap_or(0.0) > 0.0, "{}", unit.key);
        assert!(unit
            .output
            .sets
            .iter()
            .all(|s| s.provenance.wall_time_s.is_some()));
    }
    assert!(concurrent.unit_wall() > std::time::Duration::ZERO);

    // Every emitted number carries its measurement context: figure rows
    // all name a chip, and the power figures carry power provenance.
    for set in concurrent.sets() {
        assert!(set.provenance.chip.is_some(), "{set}");
        assert!(!set.provenance.params.is_empty());
        assert!(set.metrics.iter().all(|m| !m.unit.is_empty()));
        if matches!(set.provenance.experiment.as_str(), "fig2" | "fig3" | "fig4") {
            let power = set.provenance.power.expect("power figures carry context");
            assert!(power.package_watts > 0.0);
        }
    }

    // Every verified cell passed.
    let verified: Vec<&MetricValue> = concurrent
        .sets()
        .into_iter()
        .filter_map(|s| s.get("verified").map(|m| &m.value))
        .collect();
    assert_eq!(verified.len(), 96);
    assert!(verified.iter().all(|v| **v == MetricValue::Bool(true)));

    // (e) The ledger of the grid's own sets equals, bit for bit, the
    // standalone pipelines' values (Figure 2's GFLOPS do not depend on
    // verification), measures every anchor, and stays within 10%.
    let ledger = Ledger::new(concurrent.sets());
    let fig1_data = fig1::run();
    let fig2_data = fig2::run(&fig2::Fig2Config {
        verify_max_flops: 0,
        ..fig2::Fig2Config::default()
    })
    .expect("standalone fig2");
    let fig4_data = fig4::run(&fig4::Fig4Config::default()).expect("standalone fig4");
    assert_eq!(ledger.rows().len(), 32);
    for row in ledger.rows() {
        let standalone = match row.figure {
            "fig1" => fig1_data.best(row.chip, row.subject),
            "fig2" => fig2_data.peak(row.chip, row.subject) / 1e3,
            "fig4" => fig4_data.peak(row.chip, row.subject) / 1e3,
            other => panic!("unexpected figure {other}"),
        };
        let measured = row.measured.expect("no anchor is missing");
        assert_eq!(
            measured.to_bits(),
            standalone.to_bits(),
            "{}",
            row.quantity()
        );
        let error = row.relative_error().expect("measured");
        assert!(error < 0.10, "{}: {:.2}%", row.quantity(), error * 100.0);
    }

    // (b) Immediate re-run of the same spec: served entirely from cache.
    let rerun = run_campaign(&spec, &cache).expect("cached re-run");
    assert!(
        rerun.units.iter().all(|u| u.from_cache()),
        "every unit a cache hit"
    );
    assert_eq!(rerun.campaign_hit_rate(), 1.0);
    assert_eq!(rerun.computed_units(), 0);
    assert_eq!(rerun.digest(), concurrent.digest());
}

/// The `references` unit's peaks are the paper grid's: each chip's
/// `mps_peak_tflops` and `mps_peak_gflops_per_watt` equal, bit for bit,
/// the grid ledger's GPU-MPS Figure 2 peak (in TFLOPS) and Figure 4 peak.
#[test]
fn references_unit_reports_the_paper_grid_peaks() {
    let grid = run_campaign(
        &CampaignSpec::paper_grid().with_verify_max_flops(0),
        &ResultCache::new(),
    )
    .expect("paper grid");
    let ledger = Ledger::new(grid.sets());
    let references = run_campaign(
        &CampaignSpec::new(
            vec![ExperimentKind::References],
            ChipGeneration::ALL.to_vec(),
        ),
        &ResultCache::new(),
    )
    .expect("references unit");
    let sets = references.sets();
    assert_eq!(sets.len(), 4);
    for (set, chip) in sets.into_iter().zip(ChipGeneration::ALL) {
        assert_eq!(set.provenance.chip.as_deref(), Some(chip.name()));
        let tflops = ledger.gflops_peak(chip, "GPU-MPS").expect("fig2 peak") / 1e3;
        let efficiency = ledger.efficiency_peak(chip, "GPU-MPS").expect("fig4 peak");
        assert_eq!(
            set.value("mps_peak_tflops").map(f64::to_bits),
            Some(tflops.to_bits()),
            "{chip}"
        );
        assert_eq!(
            set.value("mps_peak_gflops_per_watt").map(f64::to_bits),
            Some(efficiency.to_bits()),
            "{chip}"
        );
    }
}

/// The fingerprints of grids the benchmark, the daemon and the fleet
/// run, pinned: a change to any emitted value (a mean averaged
/// differently, a power context, a `verified` flag) moves one of them.
/// Sizes of 8192 and up cross §4's skip rule for CPU-Single and CPU-OMP,
/// and the last grid verifies sizes off the power-of-two lattice.
#[test]
fn grid_fingerprints_are_pinned() {
    use ExperimentKind::{Fig2, Fig3, Fig4};
    let power_grid = |gemm: Vec<usize>, power: Vec<usize>| {
        CampaignSpec::new(vec![Fig2, Fig3, Fig4], ChipGeneration::ALL.to_vec())
            .with_gemm_sizes(gemm)
            .with_power_sizes(power)
            .with_verify_max_flops(0)
    };
    let pins = [
        (
            CampaignSpec::paper_grid().with_verify_max_flops(0),
            "c951867bbf0d3385",
        ),
        (
            power_grid(vec![24, 40], vec![1000, 1100]),
            "c9afb6bea65c5d06",
        ),
        (
            power_grid(vec![1520, 9040], vec![2048, 12032]),
            "9ca90eb3375e5aac",
        ),
        (
            power_grid(vec![48, 16384], vec![1088, 16320]),
            "1d118fb65be86da4",
        ),
        (
            CampaignSpec::new(vec![Fig2], ChipGeneration::ALL.to_vec())
                .with_gemm_sizes(vec![24, 100, 200, 300]),
            "4b804061d6a8da39",
        ),
    ];
    for (spec, fingerprint) in pins {
        let report = run_campaign(&spec, &ResultCache::new()).expect("pinned grid");
        assert_eq!(report.fingerprint(), fingerprint, "{spec:?}");
    }
}

/// Figure 2 verified above the paper's sizes, as a wire spec may ask, up
/// to the backends' functional ceiling: n = 513 splits k at the Metal
/// bands' host-default KC (512), and n = 669 is the largest size any
/// backend computes. All 72 cells (6 implementations × 3 sizes × 4
/// chips) verify, and the grid's fingerprint is pinned.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "verifying n = 669 on four chips takes tens of seconds in debug; run with --release"
)]
fn verdicts_up_to_the_functional_ceiling_are_pinned() {
    let spec = CampaignSpec::new(vec![ExperimentKind::Fig2], ChipGeneration::ALL.to_vec())
        .with_gemm_sizes(vec![500, 513, 669])
        .with_verify_max_flops(oranges_gemm::DEFAULT_FUNCTIONAL_LIMIT);
    let report = run_campaign(&spec, &ResultCache::new()).expect("fig2 campaign");
    let verified: Vec<&MetricValue> = report
        .sets()
        .into_iter()
        .filter_map(|s| s.get("verified").map(|m| &m.value))
        .collect();
    assert_eq!(verified.len(), 72);
    assert!(verified.iter().all(|v| **v == MetricValue::Bool(true)));
    assert_eq!(report.fingerprint(), "18923db4ac7df41e");
}

/// (c) Worker-count parity: 1 vs N produce identical results.
#[test]
fn worker_count_parity() {
    let base = CampaignSpec::smoke();
    let one = run_campaign(&base.clone().with_workers(1), &ResultCache::new()).expect("1 worker");
    for workers in [2, 4, 8] {
        let many = run_campaign(&base.clone().with_workers(workers), &ResultCache::new())
            .unwrap_or_else(|e| panic!("{workers} workers: {e}"));
        assert_eq!(many.digest(), one.digest(), "{workers} workers diverged");
        assert_eq!(many.rows(), one.rows());
    }
}

/// (d) Sharding: the union of shard results equals the unsharded run —
/// the ROADMAP's multi-process scale-out story. Each shard runs in its
/// own cache (as separate processes would).
#[test]
fn union_of_shards_equals_unsharded_run() {
    let base = CampaignSpec::smoke();
    let whole = run_campaign(&base, &ResultCache::new()).expect("unsharded run");

    for count in [2usize, 3] {
        let mut union: Vec<MetricRow> = Vec::new();
        let mut total_units = 0;
        for index in 0..count {
            let shard_spec = base.clone().with_shard(index, count).expect("valid shard");
            let shard = run_campaign(&shard_spec, &ResultCache::new()).expect("sharded campaign");
            total_units += shard.units.len();
            union.extend(shard.rows());
        }
        assert_eq!(total_units, whole.units.len(), "{count} shards partition");

        let mut expected = whole.rows();
        union.sort_by_key(MetricRow::sort_key);
        expected.sort_by_key(MetricRow::sort_key);
        assert_eq!(union, expected, "{count}-shard union diverged");
    }
}

/// The cache key includes parameters: a different grid must not be
/// served from a previous campaign's entries.
#[test]
fn cache_distinguishes_specs() {
    let cache = ResultCache::new();
    let small = CampaignSpec::smoke().with_workers(2);
    let first = run_campaign(&small, &cache).expect("first");

    let larger = small.clone().with_power_sizes(vec![2048, 4096, 8192]);
    let second = run_campaign(&larger, &cache).expect("second");
    assert!(second
        .units
        .iter()
        .filter(|u| u.key.id == "fig3")
        .all(|u| !u.from_cache()));
    assert_ne!(first.digest(), second.digest());
}

/// Chip-independent units (tables) schedule alongside per-chip ones.
#[test]
fn mixed_grid_includes_chip_independent_units() {
    let spec = CampaignSpec::new(
        vec![ExperimentKind::Tables, ExperimentKind::MixedPrecision],
        vec![ChipGeneration::M1, ChipGeneration::M4],
    )
    .with_workers(3);
    let report = run_campaign(&spec, &ResultCache::new()).expect("mixed campaign");
    assert_eq!(report.units.len(), 3, "1 tables + 2 mixed_precision");
    let tables = &report.units[0];
    assert_eq!(tables.key.id, "tables");
    assert!(tables
        .output
        .rendered
        .as_deref()
        .unwrap_or("")
        .contains("Table 1"));
    let csv = report.to_csv();
    assert!(csv.contains("mixed_precision,M4"));
}

/// A wire or CLI spec may ask Figure 2 to verify any size, but no
/// backend computes above its functional ceiling: such cells are
/// reported unverified (no `verified` metric) instead of generating
/// operands nothing multiplies, and the unit's parameters — its cache
/// key — carry the clamped ceiling.
#[test]
fn verification_ceiling_is_clamped_to_what_the_backends_compute() {
    let spec = CampaignSpec::new(vec![ExperimentKind::Fig2], vec![ChipGeneration::M1])
        .with_gemm_sizes(vec![64, 1024])
        .with_verify_max_flops(u64::MAX);
    let report = run_campaign(&spec, &ResultCache::new()).expect("fig2 campaign");
    let unit = &report.units[0];
    assert!(
        unit.key.params.ends_with("verify_max_flops=600000000"),
        "{}",
        unit.key.params
    );
    let sets = &unit.output.sets;
    assert_eq!(sets.len(), 6 * 2);
    for set in sets {
        let verified = set.get("verified").map(|m| m.value.clone());
        match set.n {
            Some(64) => assert_eq!(verified, Some(MetricValue::Bool(true)), "{set:?}"),
            _ => assert_eq!(verified, None, "{set:?}"),
        }
    }
}
