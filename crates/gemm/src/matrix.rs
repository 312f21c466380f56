//! Benchmark matrices — §3.2's allocation and initialization discipline.
//!
//! "The matrices are dense and initialized as single-precision
//! `R^{n×n} ∈ [0, 1]`. … All matrices (input and output) are allocated via
//! `aligned_alloc`, using a page size of 16,384 bytes. Allocation lengths
//! were automatically extended to the nearest page multiple … such that
//! the GPU could bypass memory copying."

use crate::error::GemmError;
use oranges_umem::buffer::{SharedAddressSpace, UnifiedBuffer};
use oranges_umem::StorageMode;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A dense square FP32 matrix in unified memory.
#[derive(Debug)]
pub struct Matrix {
    n: usize,
    buffer: UnifiedBuffer<f32>,
}

impl Matrix {
    /// Allocate an `n×n` zero matrix (page-aligned, page-rounded).
    pub fn zeros(space: &SharedAddressSpace, n: usize) -> Result<Self, GemmError> {
        if n == 0 {
            return Err(GemmError::Dimension(
                "matrix dimension must be positive".into(),
            ));
        }
        let buffer = UnifiedBuffer::allocate(space, n * n, StorageMode::Shared)?;
        Ok(Matrix { n, buffer })
    }

    /// Allocate and fill with `R ∈ [0, 1)` from a seeded generator — the
    /// paper distributes its matrix generator with the source, so runs are
    /// reproducible.
    pub fn random(space: &SharedAddressSpace, n: usize, seed: u64) -> Result<Self, GemmError> {
        let mut matrix = Matrix::zeros(space, n)?;
        let mut rng = StdRng::seed_from_u64(seed);
        for v in matrix.buffer.as_mut_slice()?.iter_mut() {
            *v = rng.gen_range(0.0..1.0);
        }
        Ok(matrix)
    }

    /// Dimension `n`.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Element count (`n²`).
    pub fn len(&self) -> usize {
        self.n * self.n
    }

    /// Whether the matrix is empty (never true post-construction).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Read view.
    pub fn as_slice(&self) -> &[f32] {
        self.buffer
            .as_slice()
            .expect("benchmark matrices are Shared")
    }

    /// Write view.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        self.buffer
            .as_mut_slice()
            .expect("benchmark matrices are Shared")
    }

    /// The underlying allocation's base address.
    pub fn base_address(&self) -> u64 {
        self.buffer.base_address()
    }

    /// Allocated bytes (page multiple).
    pub fn capacity_bytes(&self) -> u64 {
        self.buffer.capacity_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm_flops;
    use oranges_umem::page::PAGE_SIZE;

    fn space() -> SharedAddressSpace {
        SharedAddressSpace::with_gib(1)
    }

    #[test]
    fn flop_count_formula() {
        assert_eq!(gemm_flops(1), 1);
        assert_eq!(gemm_flops(32), 32 * 32 * 63);
        assert_eq!(gemm_flops(16384), 16384u64 * 16384 * 32767);
    }

    #[test]
    fn matrices_are_page_aligned_and_rounded() {
        let s = space();
        let m = Matrix::zeros(&s, 100).unwrap(); // 40 kB → 3 pages
        assert_eq!(m.base_address() % PAGE_SIZE, 0);
        assert_eq!(m.capacity_bytes(), 3 * PAGE_SIZE);
        assert_eq!(m.len(), 10_000);
    }

    #[test]
    fn random_is_in_unit_interval_and_seeded() {
        let s = space();
        let a = Matrix::random(&s, 64, 42).unwrap();
        assert!(a.as_slice().iter().all(|&v| (0.0..1.0).contains(&v)));
        let b = Matrix::random(&s, 64, 42).unwrap();
        assert_eq!(a.as_slice(), b.as_slice(), "same seed, same matrix");
        let c = Matrix::random(&s, 64, 43).unwrap();
        assert_ne!(
            a.as_slice(),
            c.as_slice(),
            "different seed, different matrix"
        );
    }

    #[test]
    fn zero_dimension_rejected() {
        assert!(matches!(
            Matrix::zeros(&space(), 0),
            Err(GemmError::Dimension(_))
        ));
    }
}
