//! The four STREAM array kernels, executed for real on host memory.
//!
//! Matches stream.c: f64 arrays initialized `a = 1, b = 2, c = 0`, scalar
//! `q = 3`, per-iteration sequence Copy → Scale → Add → Triad, and the
//! closed-form validation stream.c performs after `k` iterations.
//!
//! The actual array math lives in [`oranges_kernels::stream`]: every pass
//! is elementwise on the same index, so a full iteration legally fuses
//! into one memory sweep per chunk ([`fused_iteration_f64`] — 4 words of
//! traffic per element instead of 10) with bitwise-identical results. For
//! the same reason, chunk `i` of iteration `t + 1` depends only on chunk
//! `i` of iteration `t`: a worker can run *all* iterations of its chunk
//! without ever synchronizing. `StreamArrays::run_iterations` exploits
//! both — one scoped worker pool serves the whole run, where the previous
//! implementation spawned a fresh thread scope per kernel pass (8
//! short-lived threads per iteration).

use oranges_kernels::stream::fused_iteration_f64;

/// stream.c's `scalar`.
pub const STREAM_SCALAR: f64 = 3.0;

/// The three STREAM arrays.
#[derive(Debug, Clone)]
pub struct StreamArrays {
    /// Array a.
    pub a: Vec<f64>,
    /// Array b.
    pub b: Vec<f64>,
    /// Array c.
    pub c: Vec<f64>,
}

impl StreamArrays {
    /// stream.c initialization: `a = 1.0, b = 2.0, c = 0.0`.
    pub fn new(elements: usize) -> Self {
        StreamArrays {
            a: vec![1.0; elements],
            b: vec![2.0; elements],
            c: vec![0.0; elements],
        }
    }

    /// Array length.
    pub fn len(&self) -> usize {
        self.a.len()
    }

    /// Whether the arrays are empty.
    pub fn is_empty(&self) -> bool {
        self.a.is_empty()
    }

    /// Run one full Copy → Scale → Add → Triad iteration on `threads`
    /// host threads (chunked, like the OpenMP pragmas in stream.c).
    pub fn run_iteration(&mut self, threads: usize) {
        self.run_iterations(1, threads);
    }

    /// Run `iterations` full iterations on one pool of `threads` chunk
    /// workers.
    ///
    /// Each worker owns one chunk of all three arrays and sweeps it with
    /// the fused iteration kernel `iterations` times — no per-pass or
    /// per-iteration thread churn, and no barriers (iteration `t + 1` of
    /// an element depends only on iteration `t` of the *same* element).
    /// Results are bitwise-identical for any thread count.
    pub(crate) fn run_iterations(&mut self, iterations: u32, threads: usize) {
        if self.is_empty() || iterations == 0 {
            return;
        }
        let threads = threads.clamp(1, self.len());
        let chunk = self.len().div_ceil(threads);
        // The scope joins every worker and re-raises a worker's panic here.
        std::thread::scope(|scope| {
            for ((a_chunk, b_chunk), c_chunk) in self
                .a
                .chunks_mut(chunk)
                .zip(self.b.chunks_mut(chunk))
                .zip(self.c.chunks_mut(chunk))
            {
                scope.spawn(move || {
                    for _ in 0..iterations {
                        fused_iteration_f64(a_chunk, b_chunk, c_chunk, STREAM_SCALAR);
                    }
                });
            }
        });
    }

    /// stream.c's closed-form expected values after `iterations` full
    /// iterations (it tracks scalar replicas of the arrays).
    pub fn expected_after(iterations: u32) -> (f64, f64, f64) {
        let (mut a, mut b, mut c) = (1.0f64, 2.0f64, 0.0f64);
        for _ in 0..iterations {
            c = a;
            b = STREAM_SCALAR * c;
            c = a + b;
            a = b + STREAM_SCALAR * c;
        }
        (a, b, c)
    }

    /// Validate against the recurrence, stream.c-style (relative error
    /// against the expected scalar value, all elements).
    pub fn validate(&self, iterations: u32) -> Result<(), String> {
        let (ea, eb, ec) = Self::expected_after(iterations);
        for (name, arr, expected) in [("a", &self.a, ea), ("b", &self.b, eb), ("c", &self.c, ec)] {
            for (i, &v) in arr.iter().enumerate() {
                let err = ((v - expected) / expected).abs();
                if err > 1e-13 {
                    return Err(format!(
                        "array {name}[{i}] = {v}, expected {expected} (rel err {err:.3e})"
                    ));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initialization_matches_stream_c() {
        let arrays = StreamArrays::new(10);
        assert!(arrays.a.iter().all(|&v| v == 1.0));
        assert!(arrays.b.iter().all(|&v| v == 2.0));
        assert!(arrays.c.iter().all(|&v| v == 0.0));
        assert_eq!(arrays.len(), 10);
    }

    #[test]
    fn one_iteration_matches_recurrence() {
        let mut arrays = StreamArrays::new(100);
        arrays.run_iteration(1);
        // c = 1; b = 3; c = 1 + 3 = 4; a = 3 + 12 = 15.
        assert!(arrays.c.iter().all(|&v| v == 4.0));
        assert!(arrays.b.iter().all(|&v| v == 3.0));
        assert!(arrays.a.iter().all(|&v| v == 15.0));
        arrays.validate(1).unwrap();
    }

    #[test]
    fn multiple_iterations_validate() {
        let mut arrays = StreamArrays::new(1000);
        for _ in 0..5 {
            arrays.run_iteration(4);
        }
        arrays.validate(5).unwrap();
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let mut one = StreamArrays::new(977); // awkward length
        let mut many = StreamArrays::new(977);
        for _ in 0..3 {
            one.run_iteration(1);
            many.run_iteration(7);
        }
        assert_eq!(one.a, many.a);
        assert_eq!(one.b, many.b);
        assert_eq!(one.c, many.c);
    }

    #[test]
    fn pooled_run_equals_per_iteration_runs_for_any_thread_count() {
        for threads in [1usize, 3, 8, 2000] {
            let mut pooled = StreamArrays::new(977);
            let mut stepped = StreamArrays::new(977);
            pooled.run_iterations(4, threads);
            for _ in 0..4 {
                stepped.run_iteration(threads);
            }
            assert_eq!(pooled.a, stepped.a, "threads={threads}");
            assert_eq!(pooled.b, stepped.b, "threads={threads}");
            assert_eq!(pooled.c, stepped.c, "threads={threads}");
            pooled.validate(4).unwrap();
        }
    }

    #[test]
    fn empty_arrays_and_zero_iterations_are_no_ops() {
        let mut empty = StreamArrays::new(0);
        empty.run_iterations(3, 4);
        assert!(empty.is_empty());
        let mut arrays = StreamArrays::new(8);
        arrays.run_iterations(0, 4);
        assert!(arrays.validate(0).is_ok());
    }

    #[test]
    fn validation_catches_corruption() {
        let mut arrays = StreamArrays::new(64);
        arrays.run_iteration(2);
        arrays.a[13] += 1.0;
        let err = arrays.validate(1).unwrap_err();
        assert!(err.contains("a[13]"));
    }

    #[test]
    fn expected_after_zero_iterations() {
        assert_eq!(StreamArrays::expected_after(0), (1.0, 2.0, 0.0));
    }
}
