//! Scoped row-block parallelism for the blocked BLAS driver.
//!
//! Accelerate parallelizes large GEMMs across the performance cluster; the
//! simulator's functional path does the same on host threads: the output
//! row range is split into contiguous blocks, one scoped thread per
//! block, the calling thread taking the first. The block count is the
//! caller's worker count capped at the cores the process-wide
//! [`core_budget`] leaves this call: the caller's own core plus at most
//! one slab per spare core. A chip with more cores than the host never
//! oversubscribes it, and an engine worker whose siblings are computing
//! units keeps its slabs on its own core. (The *modeled* time comes from
//! [`AccelerateModel`](crate::timing::AccelerateModel) — host threads only
//! make functional verification fast.)

use oranges_kernels::core_budget;

/// Split `rows` into at most `workers` contiguous, non-empty ranges.
pub fn row_blocks(rows: usize, workers: usize) -> Vec<std::ops::Range<usize>> {
    if rows == 0 || workers == 0 {
        return Vec::new();
    }
    let workers = workers.min(rows);
    let base = rows / workers;
    let extra = rows % workers;
    let mut blocks = Vec::with_capacity(workers);
    let mut start = 0;
    for w in 0..workers {
        let len = base + usize::from(w < extra);
        blocks.push(start..start + len);
        start += len;
    }
    blocks
}

/// Run `body` over disjoint row-blocks of `output` in parallel.
///
/// `output` is a row-major matrix of `rows` rows × `row_len` columns;
/// it is split into at most `min(workers, core_budget().threads())` blocks,
/// and each receives its row range and the matching mutable slice.
pub fn parallel_row_blocks<F>(
    output: &mut [f32],
    rows: usize,
    row_len: usize,
    workers: usize,
    body: F,
) where
    F: Fn(std::ops::Range<usize>, &mut [f32]) + Sync,
{
    assert!(output.len() >= rows * row_len, "output too short");
    // Blocks are contiguous and cover `0..rows`, so carving each off the
    // front of the remaining output hands every worker its own slice.
    let mut remaining = &mut output[..rows * row_len];
    let mut work = row_blocks(rows, workers.min(core_budget().threads()))
        .into_iter()
        .map(|range| {
            let (own, tail) = std::mem::take(&mut remaining).split_at_mut(range.len() * row_len);
            remaining = tail;
            (range, own)
        });
    let first = work.next();
    let body = &body;
    // The scope joins every worker and re-raises a worker's panic here.
    std::thread::scope(|scope| {
        for (range, slice) in work {
            scope.spawn(move || body(range, slice));
        }
        if let Some((range, slice)) = first {
            body(range, slice);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_blocks_cover_exactly() {
        for rows in [1usize, 5, 16, 100, 1023] {
            for workers in [1usize, 2, 3, 8, 64] {
                let blocks = row_blocks(rows, workers);
                assert!(!blocks.is_empty());
                assert_eq!(blocks[0].start, 0);
                assert_eq!(blocks.last().unwrap().end, rows);
                for pair in blocks.windows(2) {
                    assert_eq!(pair[0].end, pair[1].start, "contiguous");
                }
                for b in &blocks {
                    assert!(!b.is_empty());
                }
                assert!(blocks.len() <= workers.min(rows));
            }
        }
    }

    #[test]
    fn degenerate_inputs() {
        assert!(row_blocks(0, 4).is_empty());
        assert!(row_blocks(4, 0).is_empty());
    }

    #[test]
    fn parallel_blocks_write_disjointly() {
        let rows = 37;
        let row_len = 11;
        let mut out = vec![0.0f32; rows * row_len];
        parallel_row_blocks(&mut out, rows, row_len, 4, |range, slice| {
            for (offset, v) in slice.iter_mut().enumerate() {
                let row = range.start + offset / row_len;
                *v = row as f32;
            }
        });
        for row in 0..rows {
            for col in 0..row_len {
                assert_eq!(out[row * row_len + col], row as f32, "row {row} col {col}");
            }
        }
    }

    #[test]
    fn single_worker_path() {
        let mut out = vec![0.0f32; 12];
        parallel_row_blocks(&mut out, 3, 4, 1, |range, slice| {
            assert_eq!(range, 0..3);
            slice.fill(5.0);
        });
        assert!(out.iter().all(|&v| v == 5.0));
    }
}
