//! Drive the full Figure 1–4 × M1–M4 grid through the campaign
//! orchestrator and print a throughput summary with per-unit wall-time
//! accounting, then the paper ledger of the campaign's own sets.
//!
//! The run fails (non-zero exit) when the concurrent grid differs from
//! the serial baseline, when the cached re-run computes a unit, or when
//! an anchored ledger row is more than 10% off the paper. A sharded run
//! reports the anchors outside its shard as missing.
//!
//! ```text
//! cargo run --release --example campaign [-- OPTIONS]
//!
//! Options:
//!   --workers N     worker threads (default 4)
//!   --shard I/N     run only shard I of N (deterministic partition;
//!                   the union of all N shards equals the full grid)
//!   --cache PATH    load the result cache from PATH if it exists and
//!                   save it back after the run — a second invocation
//!                   with the same PATH is served entirely from disk
//!   --fleet LIST    fleet mode: dispatch one shard to each of the
//!                   comma-separated service endpoints (e.g.
//!                   tcp:hostA:7771,tcp:hostB:7771 — daemons started
//!                   with `--example serve -- --listen …`), stream the
//!                   results back, and emit one unified
//!                   (value-identical) report. Endpoints may repeat:
//!                   the daemon's reactor multiplexes every connection
//!                   off one event loop, so listing one daemon N times
//!                   runs N shards against it concurrently. For process
//!                   isolation on one host, start N loopback daemons
//!                   and list them all
//! ```

use oranges::ledger::{Ledger, FAITHFUL_WITHIN};
use oranges_campaign::prelude::*;
use std::path::PathBuf;

struct Options {
    workers: usize,
    shard: Option<(usize, usize)>,
    cache_path: Option<PathBuf>,
    fleet: Option<Vec<Endpoint>>,
}

fn parse_options() -> Options {
    let mut options = Options {
        workers: 4,
        shard: None,
        cache_path: None,
        fleet: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .unwrap_or_else(|| panic!("{name} requires a value"))
        };
        match flag.as_str() {
            "--workers" => {
                options.workers = value("--workers").parse().expect("--workers N");
            }
            "--shard" => {
                let spec = value("--shard");
                let (index, count) = spec.split_once('/').expect("--shard I/N");
                options.shard = Some((
                    index.parse().expect("shard index"),
                    count.parse().expect("shard count"),
                ));
            }
            "--cache" => {
                options.cache_path = Some(PathBuf::from(value("--cache")));
            }
            "--fleet" => {
                let list = value("--fleet");
                options.fleet = Some(
                    list.split(',')
                        .map(|uri| {
                            uri.trim()
                                .parse()
                                .unwrap_or_else(|error| panic!("--fleet: {error}"))
                        })
                        .collect(),
                );
            }
            other => panic!("unknown option {other}"),
        }
    }
    options
}

/// Print the paper ledger of `report`'s sets and fail when an anchored
/// row is further than [`FAITHFUL_WITHIN`] from the paper.
fn check_ledger(report: &CampaignReport) {
    let ledger = Ledger::new(report.sets());
    println!("\n{}", ledger.render());
    println!("\n{}", ledger.summary());
    if let Some((row, error)) = ledger.worst() {
        assert!(
            error <= FAITHFUL_WITHIN,
            "{} is {:.2}% off the paper (bound {:.0}%)",
            row.quantity(),
            error * 100.0,
            FAITHFUL_WITHIN * 100.0
        );
    }
}

fn main() {
    let options = parse_options();
    let mut spec = CampaignSpec::paper_grid().with_workers(options.workers);
    if let Some((index, count)) = options.shard {
        spec = spec
            .with_shard(index, count)
            .unwrap_or_else(|error| panic!("--shard: {error}"));
    }

    // Warm-start from disk when a cache file is present: a second
    // process re-running the same spec computes nothing. A file written
    // under different model constants is invalidated, not trusted.
    let cache = match &options.cache_path {
        Some(path) if path.exists() => {
            let loaded = ResultCache::load_checked(path).expect("readable cache file");
            if loaded.invalidated > 0 {
                println!(
                    "Cache {} invalidated: {} stale units dropped \
                     (file model digest {}, current {})",
                    path.display(),
                    loaded.invalidated,
                    loaded.file_digest,
                    loaded.cache.model_digest(),
                );
            } else {
                println!(
                    "Loaded {} cached units from {}",
                    loaded.cache.stats().entries,
                    path.display()
                );
            }
            loaded.cache
        }
        _ => ResultCache::new(),
    };

    // Fleet mode: one shard per remote campaign daemon, streamed back
    // over the service protocol and merged into one report. The
    // orchestrator assigns the shards, so it refuses a `--shard` spec.
    if let Some(endpoints) = &options.fleet {
        println!(
            "=== Campaign: Figures 1-4 x M1-M4 across a {}-daemon fleet ===\n",
            endpoints.len()
        );
        for (index, endpoint) in endpoints.iter().enumerate() {
            println!("  shard {index}/{} -> {endpoint}", endpoints.len());
        }
        let run = Orchestrator::fleet(endpoints.clone())
            .run(&spec, &cache)
            .expect("fleet campaign");
        println!("\n{}", run.report.render_summary());
        println!(
            "\nFleet: {} daemons, merged {} remote units ({} already known, \
             {} stale-recomputed), assembly computed {} units (0 = the fleet \
             covered the plan), fingerprint {}",
            endpoints.len(),
            run.merged.added,
            run.merged.identical,
            run.merged.stale,
            run.report.computed_units(),
            run.report.fingerprint(),
        );
        if let Some(path) = &options.cache_path {
            cache.save(path).expect("writable cache file");
            println!(
                "Saved {} merged units to {}",
                cache.stats().entries,
                path.display()
            );
        }
        check_ledger(&run.report);
        return;
    }

    println!(
        "=== Campaign: Figures 1-4 x M1-M4, {} workers{} ===\n",
        spec.workers,
        match options.shard {
            Some((i, n)) => format!(", shard {i}/{n}"),
            None => String::new(),
        }
    );
    let report = run_campaign(&spec, &cache).expect("campaign runs");
    println!("{}", report.render_summary());

    println!(
        "\nThroughput: {:.2} units/s ({} metric rows aggregated, cache hit rate {:.0}%)",
        report.units_per_second(),
        report.rows().len(),
        report.campaign_hit_rate() * 100.0
    );
    println!(
        "Wall-time accounting: campaign {:.3} s, unit wall {:.3} s across {} workers \
         ({:.1}x, pool utilization {:.0}%), provenance compute wall {:.3} s",
        report.wall.as_secs_f64(),
        report.unit_wall().as_secs_f64(),
        report.workers,
        report.unit_wall().as_secs_f64() / report.wall.as_secs_f64().max(1e-12),
        report.unit_wall().as_secs_f64()
            / (report.wall.as_secs_f64() * report.workers as f64).max(1e-12)
            * 100.0,
        report.compute_wall_s(),
    );

    // Cross-check against the serial baseline: the concurrent grid is
    // value-identical.
    let serial = run_campaign_serial(&spec).expect("serial baseline");
    assert!(
        report.digest() == serial.digest(),
        "the concurrent grid differs from the serial baseline"
    );
    println!("Concurrent == serial baseline: yes (value-identical)");

    // An immediate re-run of the same spec is served from the cache.
    let rerun = run_campaign(&spec, &cache).expect("re-run");
    println!(
        "Re-run: {:.2} units/s, campaign hit rate {:.0}% ({} units computed)",
        rerun.units_per_second(),
        rerun.campaign_hit_rate() * 100.0,
        rerun.computed_units(),
    );
    assert_eq!(rerun.computed_units(), 0, "the cache serves the re-run");

    if let Some(path) = &options.cache_path {
        cache.save(path).expect("writable cache file");
        println!(
            "Saved {} units to {} (re-invoke with the same --cache for a 100% hit start)",
            cache.stats().entries,
            path.display()
        );
    }

    check_ledger(&report);
}
