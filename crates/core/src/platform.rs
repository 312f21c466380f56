//! The platform facade: one handle per simulated device under test.

use oranges_gemm::suite::suite_for;
use oranges_gemm::{GemmError, GemmImplementation, GemmOutcome, Matrix};
use oranges_harness::metric::PowerContext;
use oranges_metal::Device;
use oranges_powermetrics::{PowerReading, PowerSession, SamplerError};
use oranges_soc::chip::ChipGeneration;
use oranges_soc::device::DeviceModel;
use oranges_stream::cpu::{CpuStream, CpuStreamConfig};
use oranges_stream::gpu::{GpuStream, GpuStreamConfig};
use oranges_stream::StreamRun;
use oranges_umem::buffer::SharedAddressSpace;

/// A complete run (performance + piggybacked power), as the paper's
/// harness produces for every experiment cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MeasuredRun {
    /// Timing outcome.
    pub outcome: GemmOutcome,
    /// Power reading over the same window.
    pub power: PowerReading,
}

impl MeasuredRun {
    /// GFLOPS of the run.
    pub fn gflops(&self) -> f64 {
        self.outcome.gflops()
    }

    /// GFLOPS per watt — the Figure 4 quantity.
    pub fn gflops_per_watt(&self) -> f64 {
        self.power.gflops_per_watt(self.outcome.flops)
    }

    /// The run's power/thermal provenance, ready to stamp onto the
    /// [`MetricSet`](oranges_harness::metric::MetricSet)s derived from
    /// it. Paper-protocol runs are short enough that DVFS never engages,
    /// so the thermal state is nominal (cap 1.0).
    pub(crate) fn power_context(&self) -> PowerContext {
        PowerContext {
            package_watts: self.power.package_watts(),
            energy_j: self.power.energy_j,
            window_s: self.power.window.as_secs_f64(),
            dvfs_cap: 1.0,
        }
    }
}

/// One simulated device under test (chip + Table 3 enclosure + substrates).
pub struct Platform {
    chip: ChipGeneration,
    device_model: &'static DeviceModel,
    space: SharedAddressSpace,
    power: PowerSession,
    suite: Vec<Box<dyn GemmImplementation>>,
}

impl Platform {
    /// Platform for a chip in its Table 3 enclosure.
    pub fn new(chip: ChipGeneration) -> Self {
        let space = Device::system_default(chip).address_space().clone();
        Platform {
            chip,
            device_model: DeviceModel::of(chip),
            space,
            power: PowerSession::new(chip),
            suite: suite_for(chip),
        }
    }

    /// The chip generation.
    pub fn chip(&self) -> ChipGeneration {
        self.chip
    }

    /// The Table 3 device.
    pub fn device_model(&self) -> &'static DeviceModel {
        self.device_model
    }

    /// The unified-memory space.
    pub fn address_space(&self) -> &SharedAddressSpace {
        &self.space
    }

    /// Names of the available GEMM implementations (Table 2 order).
    pub fn implementation_names(&self) -> Vec<&'static str> {
        self.suite.iter().map(|i| i.name()).collect()
    }

    /// Run one implementation at size `n` with freshly generated matrices
    /// (functional when under the implementation's ceiling) and measure
    /// power over the same window.
    pub fn gemm(&mut self, implementation: &str, n: usize) -> Result<MeasuredRun, GemmError> {
        let a = Matrix::random(&self.space, n, 0xA11CE)?;
        let b = Matrix::random(&self.space, n, 0xB0B)?;
        let mut c = Matrix::zeros(&self.space, n)?;
        self.measured(implementation, |i| {
            i.run(n, a.as_slice(), b.as_slice(), c.as_mut_slice())
        })
    }

    /// Model-only GEMM run (no matrices) with piggybacked power — what the
    /// figure sweeps use for the paper's largest sizes.
    pub fn gemm_modeled(
        &mut self,
        implementation: &str,
        n: usize,
    ) -> Result<MeasuredRun, GemmError> {
        self.measured(implementation, |i| i.model_run(n))
    }

    /// `c := a · b` through one implementation of this platform's suite,
    /// on the caller's `n×n` operands and with no power window — Figure
    /// 2's one-shot verification, which multiplies each verified size's
    /// A and B once, through CPU-Single, and lets that product stand for
    /// the suite. The outcome's `functional` flag says whether real
    /// arithmetic ran (the size was under the implementation's ceiling).
    pub fn gemm_on(
        &mut self,
        implementation: &str,
        n: usize,
        a: &[f32],
        b: &[f32],
        c: &mut [f32],
    ) -> Result<GemmOutcome, GemmError> {
        self.implementation(implementation)?.run(n, a, b, c)
    }

    /// The suite member named `name`.
    fn implementation(&mut self, name: &str) -> Result<&mut dyn GemmImplementation, GemmError> {
        match self.suite.iter_mut().find(|i| i.name() == name) {
            Some(implementation) => Ok(implementation.as_mut()),
            None => Err(GemmError::Dimension(format!(
                "unknown implementation {name}"
            ))),
        }
    }

    /// Run `name` through `run` and measure power over its window.
    fn measured(
        &mut self,
        name: &str,
        run: impl FnOnce(&mut dyn GemmImplementation) -> Result<GemmOutcome, GemmError>,
    ) -> Result<MeasuredRun, GemmError> {
        let implementation = self.implementation(name)?;
        let outcome = run(&mut *implementation)?;
        let class = implementation.work_class();
        let power = self
            .power
            .measure(class, outcome.duration, outcome.duty)
            .map_err(|e: SamplerError| GemmError::Verification(e.to_string()))?;
        Ok(MeasuredRun { outcome, power })
    }

    /// Full CPU STREAM with the paper's configuration.
    pub fn stream_cpu(&self) -> StreamRun {
        CpuStream::new(self.chip).run()
    }

    /// Small functional CPU STREAM (validates arithmetic; for examples
    /// and tests).
    pub fn stream_cpu_quick(&self) -> StreamRun {
        CpuStream::with_config(self.chip, CpuStreamConfig::functional_small()).run()
    }

    /// Full GPU STREAM with the paper's configuration.
    pub fn stream_gpu(&self) -> StreamRun {
        GpuStream::new(self.chip)
            .run()
            .expect("standard library kernels present")
    }

    /// Small functional GPU STREAM.
    pub fn stream_gpu_quick(&self) -> StreamRun {
        GpuStream::with_config(self.chip, GpuStreamConfig::functional_small())
            .run()
            .expect("standard library kernels present")
    }
}

/// A lazily-populated set of platforms, one per chip generation.
///
/// Campaign workers own one pool each: a worker services units for any
/// chip, but a [`Platform`] is chip-specific, so the pool materializes
/// platforms on first use and reuses them for every later unit on the
/// same chip. Construction is the expensive part (suite + substrate
/// wiring); reuse is what makes a full-grid campaign cheap per unit.
#[derive(Default)]
pub struct PlatformPool {
    platforms: Vec<Platform>,
}

impl PlatformPool {
    /// An empty pool; platforms materialize on first request.
    pub fn new() -> Self {
        PlatformPool::default()
    }

    /// The platform for `chip`, creating it on first use.
    pub fn platform(&mut self, chip: ChipGeneration) -> &mut Platform {
        match self.platforms.iter().position(|p| p.chip() == chip) {
            Some(index) => &mut self.platforms[index],
            None => {
                self.platforms.push(Platform::new(chip));
                self.platforms.last_mut().expect("just pushed")
            }
        }
    }

    /// How many platforms have been materialized so far.
    pub fn len(&self) -> usize {
        self.platforms.len()
    }

    /// Whether the pool is still empty.
    pub fn is_empty(&self) -> bool {
        self.platforms.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn platform_wires_all_substrates() {
        let platform = Platform::new(ChipGeneration::M2);
        assert_eq!(platform.chip(), ChipGeneration::M2);
        assert_eq!(platform.device_model().memory_gb, 16);
        assert_eq!(
            platform.implementation_names(),
            vec![
                "CPU-Single",
                "CPU-OMP",
                "CPU-Accelerate",
                "GPU-Naive",
                "GPU-CUTLASS",
                "GPU-MPS"
            ]
        );
    }

    #[test]
    fn gemm_runs_functionally_and_measures_power() {
        let mut platform = Platform::new(ChipGeneration::M1);
        let run = platform.gemm("GPU-MPS", 64).unwrap();
        assert!(run.outcome.functional);
        assert!(run.gflops() > 0.0);
        assert!(run.power.package_watts() > 0.0);
        assert!(run.gflops_per_watt() > 0.0);
        let context = run.power_context();
        assert_eq!(context.package_watts, run.power.package_watts());
        assert!(context.window_s > 0.0 && context.energy_j > 0.0);
        assert!(!context.throttled(), "paper-protocol runs are nominal");
    }

    #[test]
    fn modeled_runs_cover_paper_scale() {
        let mut platform = Platform::new(ChipGeneration::M4);
        let run = platform.gemm_modeled("GPU-MPS", 16384).unwrap();
        assert!(!run.outcome.functional);
        // The headline number: ~2.9 TFLOPS.
        assert!((run.gflops() / 1e3 - 2.9).abs() < 0.1, "{}", run.gflops());
    }

    /// Figures 2 and 3 evaluate each modeled cell once and let that run
    /// stand for all five repetitions, which holds only while
    /// `gemm_modeled` is a pure function of (chip, implementation, n).
    /// Per-repetition or per-platform state (a warm-up counter, a cache
    /// that functional products leave behind) would fail here. The
    /// `{:?}` text is compared so that `-0.0` and NaN cannot hide.
    #[test]
    fn modeled_runs_are_pure_functions_of_their_cell() {
        let mut sizes = oranges_gemm::suite::paper_sizes();
        sizes.extend([2, 24, 40, 100, 1000, 1520, 9040, 65_536]);
        for chip in ChipGeneration::ALL {
            let mut fresh = Platform::new(chip);
            let mut used = Platform::new(chip);
            let names = used.implementation_names();
            let n = 64;
            let a = Matrix::random(used.address_space(), n, 1).unwrap();
            let b = Matrix::random(used.address_space(), n, 2).unwrap();
            let mut c = vec![0.0f32; n * n];
            for &name in &names {
                let outcome = used
                    .gemm_on(name, n, a.as_slice(), b.as_slice(), &mut c)
                    .unwrap();
                assert!(outcome.functional, "{chip} {name}");
            }
            for &name in names.iter().rev() {
                for &n in sizes.iter().rev() {
                    used.gemm_modeled(name, n).unwrap();
                }
            }
            for &name in &names {
                for &n in &sizes {
                    let reference = format!("{:?}", used.gemm_modeled(name, n).unwrap());
                    for rep in 0..5 {
                        let run = format!("{:?}", fresh.gemm_modeled(name, n).unwrap());
                        assert_eq!(run, reference, "{chip} {name} n={n} rep {rep}");
                    }
                }
            }
        }
    }

    #[test]
    fn unknown_implementation_is_an_error() {
        let mut platform = Platform::new(ChipGeneration::M3);
        assert!(platform.gemm("GPU-FAST", 64).is_err());
    }

    #[test]
    fn stream_quick_paths_validate() {
        let platform = Platform::new(ChipGeneration::M1);
        assert!(platform.stream_cpu_quick().validated);
        assert!(platform.stream_gpu_quick().validated);
    }

    #[test]
    fn pool_materializes_once_per_chip() {
        let mut pool = PlatformPool::new();
        assert!(pool.is_empty());
        assert_eq!(pool.platform(ChipGeneration::M1).chip(), ChipGeneration::M1);
        assert_eq!(pool.platform(ChipGeneration::M4).chip(), ChipGeneration::M4);
        assert_eq!(pool.platform(ChipGeneration::M1).chip(), ChipGeneration::M1);
        assert_eq!(pool.len(), 2);
    }
}
