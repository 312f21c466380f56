//! Metal Performance Shaders — the first-party GEMM path.
//!
//! The paper's fastest GPU implementation (Listing 2) builds
//! `MPSMatrixDescriptor`s over no-copy buffers, wraps them in `MPSMatrix`,
//! and encodes an `MPSMatrixMultiplication` into a command buffer. This
//! module reproduces that API over the simulator. The MPS kernel's
//! calibrated efficiency encodes the paper's Figure 2 peaks
//! (1.36 / 2.24 / 2.47 / 2.9 TFLOPS on M1–M4) — Apple's hand-tuned kernels
//! sustain 52–70% of the roofline where the open-source shaders manage
//! 4–13%.

use crate::buffer::Buffer;
use crate::command::CommandBuffer;
use crate::error::MetalError;
use crate::kernel::{size_ramp, BandInvocation, ComputeKernel, KernelParams, Workload};
use crate::library::Library;
use crate::shaders::sgemm_band;
use crate::types::MtlSize;
use oranges_soc::chip::ChipGeneration;
use oranges_soc::time::SimDuration;

/// Element type tag (MPS supports more; the paper uses FP32 only).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DataType {
    /// `MPSDataTypeFloat32`.
    Float32,
}

/// `MPSMatrixDescriptor`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MatrixDescriptor {
    /// Number of rows.
    pub rows: usize,
    /// Number of columns.
    pub columns: usize,
    /// Bytes per row (must be `columns × 4` for packed FP32).
    pub row_bytes: usize,
    /// Element type.
    pub data_type: DataType,
}

impl MatrixDescriptor {
    /// `matrixDescriptorWithRows:columns:rowBytes:dataType:`.
    pub fn new(rows: usize, columns: usize, row_bytes: usize) -> Result<Self, MetalError> {
        if row_bytes != columns * 4 {
            return Err(MetalError::DescriptorMismatch(format!(
                "rowBytes {row_bytes} != columns*4 = {} (only packed FP32 rows supported)",
                columns * 4
            )));
        }
        Ok(MatrixDescriptor {
            rows,
            columns,
            row_bytes,
            data_type: DataType::Float32,
        })
    }

    /// Elements the matrix spans.
    pub(crate) fn element_count(&self) -> usize {
        self.rows * self.columns
    }
}

/// `MPSMatrix` — a descriptor bound to a buffer.
#[derive(Debug, Clone)]
pub struct Matrix {
    buffer: Buffer,
    descriptor: MatrixDescriptor,
}

impl Matrix {
    /// `initWithBuffer:descriptor:`.
    pub fn new(buffer: Buffer, descriptor: MatrixDescriptor) -> Result<Self, MetalError> {
        if buffer.len() < descriptor.element_count() {
            return Err(MetalError::DescriptorMismatch(format!(
                "buffer holds {} elements, descriptor needs {}",
                buffer.len(),
                descriptor.element_count()
            )));
        }
        Ok(Matrix { buffer, descriptor })
    }

    /// The bound buffer.
    pub fn buffer(&self) -> &Buffer {
        &self.buffer
    }

    /// The descriptor.
    pub fn descriptor(&self) -> &MatrixDescriptor {
        &self.descriptor
    }
}

/// `MPSMatrixMultiplication` — `C := A·B` (alpha = 1, beta = 0, no
/// transposes, like the paper's Listing 2).
#[derive(Debug, Clone)]
pub struct MatrixMultiplication {
    result_rows: usize,
    result_columns: usize,
    interior_columns: usize,
}

impl MatrixMultiplication {
    /// `initWithDevice:resultRows:resultColumns:interiorColumns:`.
    pub fn new(result_rows: usize, result_columns: usize, interior_columns: usize) -> Self {
        MatrixMultiplication {
            result_rows,
            result_columns,
            interior_columns,
        }
    }

    /// `encodeToCommandBuffer:leftMatrix:rightMatrix:resultMatrix:`.
    pub fn encode(
        &self,
        command_buffer: &mut CommandBuffer,
        left: &Matrix,
        right: &Matrix,
        result: &Matrix,
    ) -> Result<(), MetalError> {
        // Shape checks, exactly the constraints MPS asserts.
        let (m, n, k) = (self.result_rows, self.result_columns, self.interior_columns);
        if left.descriptor.rows != m || left.descriptor.columns != k {
            return Err(MetalError::DescriptorMismatch(format!(
                "left matrix is {}x{}, kernel expects {m}x{k}",
                left.descriptor.rows, left.descriptor.columns
            )));
        }
        if right.descriptor.rows != k || right.descriptor.columns != n {
            return Err(MetalError::DescriptorMismatch(format!(
                "right matrix is {}x{}, kernel expects {k}x{n}",
                right.descriptor.rows, right.descriptor.columns
            )));
        }
        if result.descriptor.rows != m || result.descriptor.columns != n {
            return Err(MetalError::DescriptorMismatch(format!(
                "result matrix is {}x{}, kernel expects {m}x{n}",
                result.descriptor.rows, result.descriptor.columns
            )));
        }

        // MPS picks its own grid: 32×32-thread tiles over the result.
        let lib = Library::standard();
        let pipeline = lib.pipeline("mps_sgemm")?;
        let tgs = MtlSize::d2(
            (n as u64).div_ceil(32).max(1),
            (m as u64).div_ceil(32).max(1),
        );
        let tpg = MtlSize::d2(32, 32);

        let mut encoder = command_buffer.compute_command_encoder();
        encoder.set_compute_pipeline_state(&pipeline);
        encoder.set_buffer(0, left.buffer());
        encoder.set_buffer(1, right.buffer());
        encoder.set_buffer(2, result.buffer());
        encoder.set_params(KernelParams {
            uints: vec![m as u64, n as u64, k as u64],
            floats: Vec::new(),
        });
        encoder.dispatch_threadgroups(tgs, tpg)?;
        encoder.end_encoding();
        Ok(())
    }
}

/// Peak sustained fraction of the FP32 roofline (paper Fig. 2 MPS anchors).
fn peak_efficiency(chip: ChipGeneration) -> f64 {
    match chip {
        ChipGeneration::M1 => 1.36 / 2.61,
        ChipGeneration::M2 => 2.24 / 3.57,
        ChipGeneration::M3 => 2.47 / 3.53,
        ChipGeneration::M4 => 2.90 / 4.26,
    }
}

const RAMP_N_HALF: f64 = 620.0;
const RAMP_POWER: f64 = 1.6;
/// MPS pipelines come pre-built — lower launch cost than custom shaders.
const DISPATCH_OVERHEAD: SimDuration = SimDuration::from_micros(120);

/// The internal MPS GEMM kernel (registered as `"mps_sgemm"`).
///
/// Params: `uints = [result_rows, result_columns, interior_columns]`;
/// bindings: 0 = left (m×k), 1 = right (k×n), 2 = result (m×n, output).
#[derive(Debug, Default)]
pub struct MpsSgemm;

impl ComputeKernel for MpsSgemm {
    fn name(&self) -> &'static str {
        "mps_sgemm"
    }

    fn validate(
        &self,
        params: &KernelParams,
        input_lens: &[usize],
        output_len: usize,
    ) -> Result<(), String> {
        let m = params.uint(0).ok_or("missing rows")? as usize;
        let n = params.uint(1).ok_or("missing columns")? as usize;
        let k = params.uint(2).ok_or("missing interior columns")? as usize;
        if m == 0 || n == 0 || k == 0 {
            return Err("all dimensions must be positive".into());
        }
        if input_lens.len() != 2 {
            return Err(format!(
                "expected left and right inputs, got {}",
                input_lens.len()
            ));
        }
        if input_lens[0] < m * k {
            return Err(format!(
                "left holds {} elements, need {}",
                input_lens[0],
                m * k
            ));
        }
        if input_lens[1] < k * n {
            return Err(format!(
                "right holds {} elements, need {}",
                input_lens[1],
                k * n
            ));
        }
        if output_len < m * n {
            return Err(format!(
                "result holds {output_len} elements, need {}",
                m * n
            ));
        }
        Ok(())
    }

    fn execute_band(&self, inv: BandInvocation<'_>) {
        let m = inv.params.uint(0).expect("rows") as usize;
        let n = inv.params.uint(1).expect("columns") as usize;
        let k = inv.params.uint(2).expect("interior") as usize;
        sgemm_band(
            m,
            n,
            k,
            inv.inputs[0],
            inv.inputs[1],
            inv.range.start,
            inv.output,
        );
    }

    fn workload(&self, chip: ChipGeneration, params: &KernelParams, _out: usize) -> Workload {
        let m = params.uint(0).unwrap_or(0);
        let n = params.uint(1).unwrap_or(0);
        let k = params.uint(2).unwrap_or(0);
        let flops = m * n * (2 * k).saturating_sub(1);
        let min_dim = m.min(n).min(k) as f64;
        Workload {
            flops,
            read_bytes: (m * k + k * n) * 4,
            write_bytes: m * n * 4,
            compute_efficiency: peak_efficiency(chip) * size_ramp(min_dim, RAMP_N_HALF, RAMP_POWER),
            dispatch_overhead: DISPATCH_OVERHEAD,
            stream_kernel: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::Device;
    use oranges_umem::StorageMode;

    fn square_matrix(device: &Device, n: usize, data: Option<&[f32]>) -> Matrix {
        let buffer = match data {
            Some(d) => device.new_buffer_with_data(d, StorageMode::Shared).unwrap(),
            None => device.new_buffer(n * n, StorageMode::Shared).unwrap(),
        };
        let desc = MatrixDescriptor::new(n, n, n * 4).unwrap();
        Matrix::new(buffer, desc).unwrap()
    }

    #[test]
    fn descriptor_requires_packed_rows() {
        assert!(MatrixDescriptor::new(4, 4, 16).is_ok());
        assert!(matches!(
            MatrixDescriptor::new(4, 4, 20),
            Err(MetalError::DescriptorMismatch(_))
        ));
    }

    #[test]
    fn matrix_requires_big_enough_buffer() {
        let dev = Device::with_memory(ChipGeneration::M1, 1);
        let buf = dev.new_buffer(8, StorageMode::Shared).unwrap();
        let desc = MatrixDescriptor::new(4, 4, 16).unwrap();
        assert!(matches!(
            Matrix::new(buf, desc),
            Err(MetalError::DescriptorMismatch(_))
        ));
    }

    #[test]
    fn listing2_flow_multiplies() {
        // The paper's Listing 2, in Rust: no-copy buffers, descriptors,
        // matrices, MPSMatrixMultiplication, commit, wait.
        let device = Device::with_memory(ChipGeneration::M2, 1);
        let n = 16usize;
        let a: Vec<f32> = (0..n * n).map(|i| ((i % 7) as f32) * 0.5).collect();
        let mut identity = vec![0.0f32; n * n];
        for i in 0..n {
            identity[i * n + i] = 1.0;
        }
        let mat_a = square_matrix(&device, n, Some(&a));
        let mat_b = square_matrix(&device, n, Some(&identity));
        let mat_c = square_matrix(&device, n, None);

        let mm = MatrixMultiplication::new(n, n, n);
        let queue = device.new_command_queue();
        let mut cb = queue.command_buffer();
        mm.encode(&mut cb, &mat_a, &mat_b, &mat_c).unwrap();
        cb.commit().unwrap();
        let reports = cb.wait_until_completed().unwrap();
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].kernel, "mps_sgemm");
        assert_eq!(mat_c.buffer().read_to_vec().unwrap(), a);
    }

    #[test]
    fn shape_mismatches_are_rejected() {
        let device = Device::with_memory(ChipGeneration::M3, 1);
        let a = square_matrix(&device, 8, None);
        let b = square_matrix(&device, 8, None);
        let c = square_matrix(&device, 8, None);
        let mm = MatrixMultiplication::new(16, 8, 8);
        let queue = device.new_command_queue();
        let mut cb = queue.command_buffer();
        assert!(matches!(
            mm.encode(&mut cb, &a, &b, &c),
            Err(MetalError::DescriptorMismatch(_))
        ));
    }

    #[test]
    fn efficiency_anchors_match_figure2() {
        for (chip, anchor) in [
            (ChipGeneration::M1, 1.36),
            (ChipGeneration::M2, 2.24),
            (ChipGeneration::M3, 2.47),
            (ChipGeneration::M4, 2.90),
        ] {
            let params = KernelParams {
                uints: vec![16384, 16384, 16384],
                floats: vec![],
            };
            let w = MpsSgemm.workload(chip, &params, 0);
            let sustained = chip.spec().gpu_tflops_published * w.compute_efficiency;
            assert!(
                (sustained - anchor).abs() / anchor < 0.03,
                "{chip}: {sustained} vs {anchor}"
            );
        }
    }

    #[test]
    fn mps_beats_custom_shaders_everywhere() {
        use crate::shaders::{SgemmNaive, SgemmTiled};
        for chip in ChipGeneration::ALL {
            for n in [512u64, 2048, 16384] {
                let mps = MpsSgemm.workload(
                    chip,
                    &KernelParams {
                        uints: vec![n, n, n],
                        floats: vec![],
                    },
                    0,
                );
                let naive = SgemmNaive.workload(chip, &KernelParams::with_n(n), 0);
                let tiled = SgemmTiled.workload(chip, &KernelParams::with_n(n), 0);
                assert!(
                    mps.compute_efficiency > naive.compute_efficiency,
                    "{chip} n={n}"
                );
                assert!(
                    mps.compute_efficiency > tiled.compute_efficiency,
                    "{chip} n={n}"
                );
            }
        }
    }
}
