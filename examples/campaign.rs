//! Drive the full Figure 1–4 × M1–M4 grid through the campaign
//! orchestrator and print a throughput summary with per-unit wall-time
//! accounting.
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
    println!(
        "Concurrent == serial baseline: {}",
        if report.digest() == serial.digest() {
            "yes (value-identical)"
        } else {
            "NO"
        }
    );

    // An immediate re-run of the same spec is served from the cache.
    let rerun = run_campaign(&spec, &cache).expect("re-run");
    println!(
        "Re-run: {:.2} units/s, campaign hit rate {:.0}% ({} units computed)",
        rerun.units_per_second(),
        rerun.campaign_hit_rate() * 100.0,
        rerun.computed_units(),
    );

    if let Some(path) = &options.cache_path {
        cache.save(path).expect("writable cache file");
        println!(
            "Saved {} units to {} (re-invoke with the same --cache for a 100% hit start)",
            cache.stats().entries,
            path.display()
        );
    }

    // A taste of the aggregate: the best efficiency cell per chip, with
    // its power provenance carried alongside.
    println!("\nBest Figure 4 cell per chip:");
    for chip in ChipGeneration::ALL {
        let best = report
            .sets()
            .into_iter()
            .filter(|s| {
                s.provenance.experiment == "fig4"
                    && s.provenance.chip.as_deref() == Some(chip.name())
            })
            .max_by(|a, b| {
                let value = |s: &MetricSet| s.value("gflops_per_watt").unwrap_or(0.0);
                value(a).partial_cmp(&value(b)).expect("finite")
            })
            .cloned();
        if let Some(set) = best {
            println!(
                "  {}: {:.0} GFLOPS/W ({} @ n={}, {:.1} W window, wall {:.1} ms)",
                chip.name(),
                set.value("gflops_per_watt").unwrap_or(0.0),
                set.implementation.as_deref().unwrap_or("?"),
                set.n.unwrap_or(0),
                set.provenance.power.map(|p| p.package_watts).unwrap_or(0.0),
                set.provenance.wall_time_s.unwrap_or(0.0) * 1e3,
            );
        }
    }
}
