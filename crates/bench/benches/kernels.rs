//! Host-kernel trajectory: times every `oranges-kernels` microkernel
//! against its scalar twin (min-of-reps, `Instant`-based) and writes the
//! per-kernel results — GB/s, GFLOPS, unrolled-vs-scalar speedup — to
//! `BENCH_kernels.json` at the workspace root, following the
//! `BENCH_campaign.json` convention so later changes can diff against
//! it. These measure *host* throughput (the cost of running the
//! simulator), not simulated M-series time. The trajectory includes an
//! SGEMM sweep at sizes straddling the modeled L2, pitting the
//! cache-blocked macrokernel against the unblocked microkernel (and,
//! where affordable, the scalar triple loop).
//!
//! Two env switches support CI smoke runs:
//!
//! - `KERNELS_BENCH_QUICK=1` shrinks the trajectory (fewer reps, smaller
//!   sizes) so the whole run finishes in seconds.
//! - `KERNELS_BENCH_CHECK=1` re-reads the written `BENCH_kernels.json`,
//!   validates its schema, and asserts the blocked macrokernel keeps a
//!   ≥ 1.0× speedup over the unblocked microkernel.

use std::hint::black_box;

/// One scalar-vs-unrolled measurement.
struct KernelSample {
    name: String,
    detail: &'static str,
    elements: usize,
    /// Memory traffic of the *unrolled* kernel per call (bytes).
    bytes: u64,
    /// FLOPs per call (same for both variants).
    flops: u64,
    scalar_s: f64,
    unrolled_s: f64,
    /// Third column for the blocked-GEMM sweep: the naive triple loop,
    /// measured only where it is affordable. `None` elsewhere.
    triple_loop_s: Option<f64>,
}

impl KernelSample {
    fn speedup(&self) -> f64 {
        self.scalar_s / self.unrolled_s
    }
}

/// Minimum wall time of `body` over `reps` timed calls (one warm-up call
/// first) — the STREAM convention: min filters scheduler noise.
fn min_secs<F: FnMut()>(reps: usize, mut body: F) -> f64 {
    body();
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let start = std::time::Instant::now();
        body();
        best = best.min(start.elapsed().as_secs_f64());
    }
    best
}

fn det_f32(n: usize, seed: u32) -> Vec<f32> {
    let mut state = seed.wrapping_mul(2654435761).wrapping_add(11);
    (0..n)
        .map(|_| {
            state = state.wrapping_mul(1664525).wrapping_add(1013904223);
            (state >> 8) as f32 / (1u32 << 24) as f32
        })
        .collect()
}

fn det_f64(n: usize, seed: u32) -> Vec<f64> {
    det_f32(n, seed).into_iter().map(f64::from).collect()
}

fn kernel_trajectory(quick: bool) -> Vec<KernelSample> {
    use oranges_kernels::{elem, gemm, reduce, stream};
    // Quick mode shrinks sizes and reps so a CI smoke run finishes in
    // seconds; the full run keeps the sizes the trajectory has always used.
    let n = if quick { 1 << 16 } else { 1 << 20 }; // cache-defeating streaming size
    let reps = if quick { 3 } else { 30 };
    // Reductions are measured cache-resident and batched: the multi-accumulator
    // win is an ILP (dependency-chain) effect, and at streaming sizes the
    // memory system caps both variants long before the FP adder does.
    let rn = 1 << 13;
    let batch = if quick { 32 } else { 256 };
    let af32 = det_f32(n, 1);
    let bf32 = det_f32(n, 2);
    let af64 = det_f64(n, 3);
    let bf64 = det_f64(n, 4);
    let cf64 = det_f64(n, 5);
    let mut out64 = vec![0.0f64; n];
    let mut out32 = vec![0.0f32; n];
    let mut samples = Vec::new();

    samples.push(KernelSample {
        name: "dot_f32".into(),
        detail: "8-accumulator f32 dot vs strict-order scalar (cache-resident)",
        elements: rn,
        bytes: 2 * 4 * rn as u64,
        flops: 2 * rn as u64,
        scalar_s: min_secs(reps, || {
            for _ in 0..batch {
                black_box(reduce::dot_f32_scalar(
                    black_box(&af32[..rn]),
                    black_box(&bf32[..rn]),
                ));
            }
        }) / batch as f64,
        unrolled_s: min_secs(reps, || {
            for _ in 0..batch {
                black_box(reduce::dot_f32(
                    black_box(&af32[..rn]),
                    black_box(&bf32[..rn]),
                ));
            }
        }) / batch as f64,
        triple_loop_s: None,
    });
    samples.push(KernelSample {
        name: "dot_f64".into(),
        detail: "8-accumulator f64 dot vs strict-order scalar (cache-resident)",
        elements: rn,
        bytes: 2 * 8 * rn as u64,
        flops: 2 * rn as u64,
        scalar_s: min_secs(reps, || {
            for _ in 0..batch {
                black_box(reduce::dot_f64_scalar(
                    black_box(&af64[..rn]),
                    black_box(&bf64[..rn]),
                ));
            }
        }) / batch as f64,
        unrolled_s: min_secs(reps, || {
            for _ in 0..batch {
                black_box(reduce::dot_f64(
                    black_box(&af64[..rn]),
                    black_box(&bf64[..rn]),
                ));
            }
        }) / batch as f64,
        triple_loop_s: None,
    });
    samples.push(KernelSample {
        name: "sum_f64".into(),
        detail: "8-accumulator f64 sum vs strict-order scalar (cache-resident)",
        elements: rn,
        bytes: 8 * rn as u64,
        flops: rn as u64,
        scalar_s: min_secs(reps, || {
            for _ in 0..batch {
                black_box(reduce::sum_f64_scalar(black_box(&af64[..rn])));
            }
        }) / batch as f64,
        unrolled_s: min_secs(reps, || {
            for _ in 0..batch {
                black_box(reduce::sum_f64(black_box(&af64[..rn])));
            }
        }) / batch as f64,
        triple_loop_s: None,
    });
    samples.push(KernelSample {
        name: "max_f32".into(),
        detail: "8-lane NaN-ignoring max vs scalar fold (cache-resident); select-based lanes sidestep the maxnum NaN fixup",
        elements: rn,
        bytes: 4 * rn as u64,
        flops: 0,
        scalar_s: min_secs(reps, || {
            for _ in 0..batch {
                black_box(reduce::max_f32_scalar(black_box(&af32[..rn])));
            }
        }) / batch as f64,
        unrolled_s: min_secs(reps, || {
            for _ in 0..batch {
                black_box(reduce::max_f32(black_box(&af32[..rn])));
            }
        }) / batch as f64,
        triple_loop_s: None,
    });
    samples.push(KernelSample {
        name: "axpy_f32".into(),
        detail: "unrolled out += s*x vs scalar loop; elementwise, so both vectorize — parity expected, bitwise-equal results",
        elements: n,
        bytes: 3 * 4 * n as u64,
        flops: 2 * n as u64,
        scalar_s: min_secs(reps, || {
            elem::axpy_f32_scalar(black_box(1.0009), black_box(&af32), &mut out32);
            black_box(out32[0]);
        }),
        unrolled_s: min_secs(reps, || {
            elem::axpy_f32(black_box(1.0009), black_box(&af32), &mut out32);
            black_box(out32[0]);
        }),
        triple_loop_s: None,
    });
    samples.push(KernelSample {
        name: "triad_f64_single_pass".into(),
        detail: "one triad pass; both variants vectorize and hit the same bandwidth ceiling, so parity is expected",
        elements: n,
        bytes: 3 * 8 * n as u64,
        flops: 2 * n as u64,
        scalar_s: min_secs(reps, || {
            stream::triad_f64_scalar(black_box(3.0), black_box(&bf64), black_box(&cf64), &mut out64);
            black_box(out64[0]);
        }),
        unrolled_s: min_secs(reps, || {
            stream::triad_f64(black_box(3.0), black_box(&bf64), black_box(&cf64), &mut out64);
            black_box(out64[0]);
        }),
        triple_loop_s: None,
    });
    {
        // The triad-family kernel the simulator actually runs: one fused
        // sweep of the full STREAM iteration vs the four discrete scalar
        // passes (copy, scale, add, triad). Fusion cuts memory traffic
        // from 10 words/element to 4 while staying bitwise-identical.
        let mut a1 = af64.clone();
        let mut b1 = bf64.clone();
        let mut c1 = cf64.clone();
        let scalar_s = min_secs(reps, || {
            stream::copy_f64_scalar(&a1, &mut c1);
            stream::scale_f64_scalar(3.0, &c1, &mut b1);
            stream::add_f64_scalar(&a1, &b1, &mut c1);
            stream::triad_f64_scalar(3.0, &b1, &c1, &mut a1);
            black_box(a1[0]);
        });
        let mut a2 = af64.clone();
        let mut b2 = bf64.clone();
        let mut c2 = cf64.clone();
        let unrolled_s = min_secs(reps, || {
            stream::fused_iteration_f64(&mut a2, &mut b2, &mut c2, 3.0);
            black_box(a2[0]);
        });
        samples.push(KernelSample {
            name: "triad_f64_fused".into(),
            detail: "the triad kernel as the simulator runs it: fused full STREAM iteration (1 sweep, 4 words/element) vs four scalar passes (10 words/element)",
            elements: n,
            bytes: 4 * 8 * n as u64,
            flops: 4 * n as u64,
            scalar_s,
            unrolled_s,
            triple_loop_s: None,
        });
    }
    let gemm_reps = if quick { 3 } else { 10 };
    {
        let gn = if quick { 96 } else { 192 };
        let ga = det_f32(gn * gn, 6);
        let gb = det_f32(gn * gn, 7);
        let mut gc = vec![0.0f32; gn * gn];
        samples.push(KernelSample {
            name: "sgemm_f32".into(),
            detail: "4x8 register-tiled packed microkernel vs triple loop",
            elements: gn * gn,
            bytes: 3 * 4 * (gn * gn) as u64,
            flops: 2 * (gn as u64).pow(3),
            scalar_s: min_secs(gemm_reps, || {
                gemm::sgemm_f32_scalar(
                    gn,
                    gn,
                    gn,
                    black_box(&ga),
                    gn,
                    black_box(&gb),
                    gn,
                    &mut gc,
                    gn,
                );
                black_box(gc[0]);
            }),
            unrolled_s: min_secs(gemm_reps, || {
                gemm::sgemm_f32(
                    gn,
                    gn,
                    gn,
                    black_box(&ga),
                    gn,
                    black_box(&gb),
                    gn,
                    &mut gc,
                    gn,
                );
                black_box(gc[0]);
            }),
            triple_loop_s: None,
        });
    }
    {
        // The macrokernel sweep: sizes straddling the modeled L2 (2 MiB
        // host default). The three-matrix working set is 12·n² bytes —
        // L2-resident at the smallest size, several multiples of L2 at the
        // largest — so the sweep records where packing starts to pay.
        // `scalar_s` holds the *unblocked microkernel* time (the baseline
        // the blocked path replaces); the naive triple loop is so slow at
        // these sizes that it is recorded separately, and only where
        // affordable.
        use oranges_kernels::{sgemm_f32_blocked, CacheParams};
        let cache = CacheParams::host_default();
        let sizes: &[usize] = if quick {
            &[128, 256]
        } else {
            &[256, 512, 1024]
        };
        let scalar_cap = if quick { 128 } else { 512 };
        for &bn in sizes {
            let ba = det_f32(bn * bn, 8);
            let bb = det_f32(bn * bn, 9);
            let mut bc = vec![0.0f32; bn * bn];
            let micro_s = min_secs(gemm_reps, || {
                gemm::sgemm_f32(
                    bn,
                    bn,
                    bn,
                    black_box(&ba),
                    bn,
                    black_box(&bb),
                    bn,
                    &mut bc,
                    bn,
                );
                black_box(bc[0]);
            });
            let blocked_s = min_secs(gemm_reps, || {
                sgemm_f32_blocked(
                    bn,
                    bn,
                    bn,
                    black_box(&ba),
                    bn,
                    black_box(&bb),
                    bn,
                    &mut bc,
                    bn,
                    &cache,
                );
                black_box(bc[0]);
            });
            let triple_loop_s = (bn <= scalar_cap).then(|| {
                min_secs(gemm_reps, || {
                    gemm::sgemm_f32_scalar(
                        bn,
                        bn,
                        bn,
                        black_box(&ba),
                        bn,
                        black_box(&bb),
                        bn,
                        &mut bc,
                        bn,
                    );
                    black_box(bc[0]);
                })
            });
            samples.push(KernelSample {
                name: format!("sgemm_f32_blocked_n{bn}"),
                detail: "cache-blocked macrokernel (packed MCxKC / KCxNC panels) vs the \
                         unblocked 4x8 microkernel; triple_loop_s adds the naive loop \
                         where affordable",
                elements: bn * bn,
                bytes: 3 * 4 * (bn * bn) as u64,
                flops: 2 * (bn as u64).pow(3),
                scalar_s: micro_s,
                unrolled_s: blocked_s,
                triple_loop_s,
            });
        }
    }
    samples
}

/// Workspace-root location of the trajectory artifact, regardless of the
/// invocation cwd (cargo runs benches from the package directory).
fn trajectory_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_kernels.json")
}

fn write_kernel_trajectory(samples: &[KernelSample]) {
    use oranges_harness::json::JsonValue;
    println!("\n=== oranges-kernels trajectory: scalar twin vs unrolled ===\n");
    println!(
        "{:<22} {:>10} {:>12} {:>12} {:>12} {:>9}",
        "kernel", "elements", "scalar", "unrolled", "GFLOPS", "speedup"
    );
    let mut entries = Vec::new();
    for s in samples {
        let scalar_gbs = s.bytes as f64 / s.scalar_s / 1e9;
        let unrolled_gbs = s.bytes as f64 / s.unrolled_s / 1e9;
        let scalar_gflops = s.flops as f64 / s.scalar_s / 1e9;
        let unrolled_gflops = s.flops as f64 / s.unrolled_s / 1e9;
        println!(
            "{:<22} {:>10} {:>9.3} ms {:>9.3} ms {:>12} {:>8.2}x",
            s.name,
            s.elements,
            s.scalar_s * 1e3,
            s.unrolled_s * 1e3,
            if s.flops > 0 {
                format!("{unrolled_gflops:.2}")
            } else {
                "-".to_string()
            },
            s.speedup()
        );
        let mut fields = vec![
            ("kernel".to_string(), JsonValue::String(s.name.to_string())),
            (
                "detail".to_string(),
                JsonValue::String(s.detail.to_string()),
            ),
            (
                "elements".to_string(),
                JsonValue::integer(s.elements as u64),
            ),
            ("bytes_per_call".to_string(), JsonValue::integer(s.bytes)),
            ("flops_per_call".to_string(), JsonValue::integer(s.flops)),
            ("scalar_s".to_string(), JsonValue::number(s.scalar_s)),
            ("unrolled_s".to_string(), JsonValue::number(s.unrolled_s)),
            ("scalar_gbs".to_string(), JsonValue::number(scalar_gbs)),
            ("unrolled_gbs".to_string(), JsonValue::number(unrolled_gbs)),
            (
                "scalar_gflops".to_string(),
                JsonValue::number(scalar_gflops),
            ),
            (
                "unrolled_gflops".to_string(),
                JsonValue::number(unrolled_gflops),
            ),
            ("speedup".to_string(), JsonValue::number(s.speedup())),
        ];
        if let Some(triple_loop_s) = s.triple_loop_s {
            fields.push((
                "triple_loop_s".to_string(),
                JsonValue::number(triple_loop_s),
            ));
            fields.push((
                "triple_loop_gflops".to_string(),
                JsonValue::number(s.flops as f64 / triple_loop_s / 1e9),
            ));
        }
        entries.push(JsonValue::Object(fields));
    }
    let document = JsonValue::Object(vec![
        (
            "bench".to_string(),
            JsonValue::String("kernels".to_string()),
        ),
        (
            "convention".to_string(),
            JsonValue::String("min-of-reps wall time; speedup = scalar_s / unrolled_s".to_string()),
        ),
        ("kernels".to_string(), JsonValue::Array(entries)),
    ]);
    let path = trajectory_path();
    match std::fs::write(&path, document.to_json_string() + "\n") {
        Ok(()) => println!("\nwrote {}", path.display()),
        Err(error) => eprintln!("could not write {}: {error}", path.display()),
    }
}

/// `KERNELS_BENCH_CHECK=1` smoke validation: re-parse the artifact this
/// run just wrote, require every schema field, and fail the run if the
/// blocked macrokernel has fallen behind the unblocked microkernel.
fn check_kernel_trajectory() {
    use oranges_harness::json;
    let path = trajectory_path();
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|error| panic!("could not read {}: {error}", path.display()));
    let document = json::parse(&text).expect("BENCH_kernels.json parses");
    assert_eq!(
        document.get("bench").and_then(|v| v.as_str()),
        Some("kernels"),
        "bench tag"
    );
    assert!(
        document
            .get("convention")
            .and_then(|v| v.as_str())
            .is_some(),
        "convention string"
    );
    let kernels = document
        .get("kernels")
        .and_then(|v| v.as_array())
        .expect("kernels array");
    assert!(!kernels.is_empty(), "kernels array is empty");
    let mut blocked_entries = 0usize;
    for entry in kernels {
        let name = entry
            .get("kernel")
            .and_then(|v| v.as_str())
            .expect("kernel name")
            .to_string();
        assert!(
            entry.get("detail").and_then(|v| v.as_str()).is_some(),
            "{name}: missing detail"
        );
        for key in ["elements", "bytes_per_call", "flops_per_call"] {
            assert!(
                entry.get(key).and_then(|v| v.as_u64()).is_some(),
                "{name}: missing integer field {key}"
            );
        }
        for key in [
            "scalar_s",
            "unrolled_s",
            "scalar_gbs",
            "unrolled_gbs",
            "scalar_gflops",
            "unrolled_gflops",
            "speedup",
        ] {
            let value = entry
                .get(key)
                .and_then(|v| v.as_f64())
                .unwrap_or_else(|| panic!("{name}: missing number field {key}"));
            assert!(value.is_finite() && value >= 0.0, "{name}: {key} = {value}");
        }
        if name.starts_with("sgemm_f32_blocked") {
            blocked_entries += 1;
            let speedup = entry.get("speedup").and_then(|v| v.as_f64()).unwrap();
            assert!(
                speedup >= 1.0,
                "{name}: blocked macrokernel regressed below the unblocked \
                 microkernel ({speedup:.2}x)"
            );
        }
    }
    assert!(blocked_entries > 0, "no blocked-GEMM sweep entries");
    println!(
        "check: {} kernels, {blocked_entries} blocked-GEMM entries; schema OK, blocked >= 1.0x",
        kernels.len()
    );
}

fn env_flag(name: &str) -> bool {
    std::env::var(name).is_ok_and(|v| !v.is_empty() && v != "0")
}

fn main() {
    let samples = kernel_trajectory(env_flag("KERNELS_BENCH_QUICK"));
    write_kernel_trajectory(&samples);
    if env_flag("KERNELS_BENCH_CHECK") {
        check_kernel_trajectory();
    }
}
