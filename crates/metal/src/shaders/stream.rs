//! GPU STREAM kernels (Copy, Scale, Add, Triad).
//!
//! Ports of the MSL kernels the paper adapted from the CUDA/HIP GPU STREAM
//! (§3.1). FP32 arrays (the M-series GPU has no FP64); byte accounting
//! follows stream.c (2 arrays for Copy/Scale, 3 for Add/Triad). Timing goes
//! through the calibrated per-kernel Figure-1 bandwidth table via
//! `Workload::stream_kernel`.

use crate::kernel::{BandInvocation, ComputeKernel, KernelParams, Workload};
use oranges_soc::chip::ChipGeneration;
use oranges_soc::time::SimDuration;
use oranges_umem::bandwidth::StreamKernelKind;

/// The STREAM scalar `q` used when none is supplied (stream.c uses 3.0).
pub(crate) const DEFAULT_SCALAR: f32 = 3.0;

/// Per-dispatch overhead of a STREAM-class kernel launch.
const STREAM_DISPATCH_OVERHEAD: SimDuration = SimDuration::from_micros(100);

fn stream_workload(kind: StreamKernelKind, n: u64) -> Workload {
    let elem = std::mem::size_of::<f32>();
    let total = kind.bytes_per_element(elem) * n;
    let (read, write) = match kind {
        StreamKernelKind::Copy | StreamKernelKind::Scale => (total / 2, total / 2),
        StreamKernelKind::Add | StreamKernelKind::Triad => (total * 2 / 3, total / 3),
    };
    Workload {
        flops: kind.flops_per_element() * n,
        read_bytes: read,
        write_bytes: write,
        compute_efficiency: 1.0,
        dispatch_overhead: STREAM_DISPATCH_OVERHEAD,
        stream_kernel: Some(kind),
    }
}

fn validate_stream(
    params: &KernelParams,
    inputs: usize,
    input_lens: &[usize],
    output_len: usize,
) -> Result<(), String> {
    let n = params.uint(0).ok_or("missing n constant")? as usize;
    if input_lens.len() != inputs {
        return Err(format!(
            "expected {inputs} input buffers, got {}",
            input_lens.len()
        ));
    }
    for (i, len) in input_lens.iter().enumerate() {
        if *len < n {
            return Err(format!("input {i} holds {len} elements, need {n}"));
        }
    }
    if output_len < n {
        return Err(format!("output holds {output_len} elements, need {n}"));
    }
    Ok(())
}

/// `c[i] = a[i]`.
#[derive(Debug, Default)]
pub struct StreamCopy;

impl ComputeKernel for StreamCopy {
    fn name(&self) -> &'static str {
        "stream_copy"
    }

    fn validate(
        &self,
        params: &KernelParams,
        input_lens: &[usize],
        output_len: usize,
    ) -> Result<(), String> {
        validate_stream(params, 1, input_lens, output_len)
    }

    fn execute_band(&self, inv: BandInvocation<'_>) {
        let n = inv.params.n() as usize;
        let a = inv.inputs[0];
        for (off, out) in inv.output.iter_mut().enumerate() {
            let i = inv.range.start + off;
            if i < n {
                *out = a[i];
            }
        }
    }

    fn workload(&self, _chip: ChipGeneration, params: &KernelParams, _out: usize) -> Workload {
        stream_workload(StreamKernelKind::Copy, params.n())
    }
}

/// `b[i] = q * c[i]`.
#[derive(Debug, Default)]
pub struct StreamScale;

impl ComputeKernel for StreamScale {
    fn name(&self) -> &'static str {
        "stream_scale"
    }

    fn validate(
        &self,
        params: &KernelParams,
        input_lens: &[usize],
        output_len: usize,
    ) -> Result<(), String> {
        validate_stream(params, 1, input_lens, output_len)
    }

    fn execute_band(&self, inv: BandInvocation<'_>) {
        let n = inv.params.n() as usize;
        let q = inv.params.float(0).unwrap_or(DEFAULT_SCALAR);
        let c = inv.inputs[0];
        for (off, out) in inv.output.iter_mut().enumerate() {
            let i = inv.range.start + off;
            if i < n {
                *out = q * c[i];
            }
        }
    }

    fn workload(&self, _chip: ChipGeneration, params: &KernelParams, _out: usize) -> Workload {
        stream_workload(StreamKernelKind::Scale, params.n())
    }
}

/// `c[i] = a[i] + b[i]`.
#[derive(Debug, Default)]
pub struct StreamAdd;

impl ComputeKernel for StreamAdd {
    fn name(&self) -> &'static str {
        "stream_add"
    }

    fn validate(
        &self,
        params: &KernelParams,
        input_lens: &[usize],
        output_len: usize,
    ) -> Result<(), String> {
        validate_stream(params, 2, input_lens, output_len)
    }

    fn execute_band(&self, inv: BandInvocation<'_>) {
        let n = inv.params.n() as usize;
        let a = inv.inputs[0];
        let b = inv.inputs[1];
        for (off, out) in inv.output.iter_mut().enumerate() {
            let i = inv.range.start + off;
            if i < n {
                *out = a[i] + b[i];
            }
        }
    }

    fn workload(&self, _chip: ChipGeneration, params: &KernelParams, _out: usize) -> Workload {
        stream_workload(StreamKernelKind::Add, params.n())
    }
}

/// `a[i] = b[i] + q * c[i]`.
#[derive(Debug, Default)]
pub struct StreamTriad;

impl ComputeKernel for StreamTriad {
    fn name(&self) -> &'static str {
        "stream_triad"
    }

    fn validate(
        &self,
        params: &KernelParams,
        input_lens: &[usize],
        output_len: usize,
    ) -> Result<(), String> {
        validate_stream(params, 2, input_lens, output_len)
    }

    fn execute_band(&self, inv: BandInvocation<'_>) {
        let n = inv.params.n() as usize;
        let q = inv.params.float(0).unwrap_or(DEFAULT_SCALAR);
        let b = inv.inputs[0];
        let c = inv.inputs[1];
        for (off, out) in inv.output.iter_mut().enumerate() {
            let i = inv.range.start + off;
            if i < n {
                *out = b[i] + q * c[i];
            }
        }
    }

    fn workload(&self, _chip: ChipGeneration, params: &KernelParams, _out: usize) -> Workload {
        stream_workload(StreamKernelKind::Triad, params.n())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn invoke(
        kernel: &dyn ComputeKernel,
        inputs: &[&[f32]],
        out_len: usize,
        params: &KernelParams,
    ) -> Vec<f32> {
        let mut out = vec![0.0f32; out_len];
        kernel.execute_band(BandInvocation {
            range: 0..out_len,
            inputs,
            output: &mut out,
            params,
        });
        out
    }

    #[test]
    fn copy_kernel() {
        let a: Vec<f32> = (0..64).map(|i| i as f32).collect();
        let out = invoke(&StreamCopy, &[&a], 64, &KernelParams::with_n(64));
        assert_eq!(out, a);
    }

    #[test]
    fn scale_kernel_uses_q() {
        let c = vec![2.0f32; 16];
        let params = KernelParams {
            uints: vec![16],
            floats: vec![0.5],
        };
        let out = invoke(&StreamScale, &[&c], 16, &params);
        assert!(out.iter().all(|&v| v == 1.0));
        // Default scalar is 3.0 like stream.c.
        let out = invoke(&StreamScale, &[&c], 16, &KernelParams::with_n(16));
        assert!(out.iter().all(|&v| v == 6.0));
    }

    #[test]
    fn add_and_triad_kernels() {
        let a = vec![1.0f32; 8];
        let b = vec![2.0f32; 8];
        let out = invoke(&StreamAdd, &[&a, &b], 8, &KernelParams::with_n(8));
        assert!(out.iter().all(|&v| v == 3.0));

        let params = KernelParams {
            uints: vec![8],
            floats: vec![3.0],
        };
        let out = invoke(&StreamTriad, &[&b, &a], 8, &params);
        assert!(out.iter().all(|&v| v == 5.0)); // 2 + 3*1
    }

    #[test]
    fn band_split_respects_n() {
        // Output band past n must stay untouched.
        let a: Vec<f32> = (0..100).map(|i| i as f32).collect();
        let mut out = vec![-1.0f32; 10];
        StreamCopy.execute_band(BandInvocation {
            range: 95..105, // extends past n=100
            inputs: &[&a],
            output: &mut out,
            params: &KernelParams::with_n(100),
        });
        assert_eq!(out[..5], a[95..100]);
        assert!(out[5..].iter().all(|&v| v == -1.0));
    }

    #[test]
    fn workloads_use_stream_table() {
        let w = StreamTriad.workload(ChipGeneration::M1, &KernelParams::with_n(1000), 1000);
        assert_eq!(w.stream_kernel, Some(StreamKernelKind::Triad));
        assert_eq!(w.total_bytes(), 12_000);
        assert_eq!(w.read_bytes, 8_000);
        assert_eq!(w.write_bytes, 4_000);
        assert_eq!(w.flops, 2_000);

        let w = StreamCopy.workload(ChipGeneration::M1, &KernelParams::with_n(1000), 1000);
        assert_eq!(w.total_bytes(), 8_000);
        assert_eq!(w.flops, 0);
    }

    #[test]
    fn validation_catches_short_buffers() {
        assert!(StreamAdd
            .validate(&KernelParams::with_n(100), &[100, 50], 100)
            .is_err());
        assert!(StreamAdd
            .validate(&KernelParams::with_n(100), &[100, 100], 99)
            .is_err());
        assert!(StreamAdd
            .validate(&KernelParams::with_n(100), &[100], 100)
            .is_err());
        assert!(StreamAdd
            .validate(&KernelParams::with_n(100), &[100, 100], 100)
            .is_ok());
    }
}
