//! Cache-blocked SGEMM macrokernel: Goto/BLIS panel loops over the 4×8
//! register tile.
//!
//! [`crate::gemm::sgemm_f32`] packs *all* of A and B up front and then
//! sweeps every B panel per A row-panel — at large `n` the B pack no
//! longer fits in L2 and the sweep streams it from the next cache level
//! on every row of tiles. This module adds the classic three-loop
//! macrokernel above the same `MR×NR` register tile:
//!
//! - **NC** over B columns — bounds the packed B panel (`KC×NC`);
//! - **KC** over the reduction dim, **ascending** — bounds the panels'
//!   k-extent so an `NR`-column B sliver plus an `MR`-row A sliver stay
//!   L1-resident through the inner loop;
//! - **MC** over A rows — bounds the packed A block (`MC×KC`) to fit L2.
//!
//! A is packed into `MR`-row k-major panels and B into `NR`-column
//! row-major panels once per block, then the microkernel runs over
//! resident panels. Block sizes come from [`CacheParams`] (an x86-64
//! server core's geometry by default; the `gemm` and `accelerate`
//! backends plug in per-chip geometry) or an explicit [`BlockSizes`]
//! override.
//!
//! # Bitwise equivalence
//!
//! Splitting k into KC panels normally *changes* the rounding: library
//! GEMMs accumulate each panel into a register tile and add panel sums
//! out of order. Here every output element keeps exactly one running
//! value: the first KC panel starts its tile accumulator at zero, every
//! later panel **seeds the accumulator from the f32 partial already
//! stored in C** (an f32 store/load round-trip is exact), accumulates its
//! k-range in ascending order, and stores back. The element therefore
//! sees the identical IEEE operation sequence as the scalar triple loop —
//! [`sgemm_f32_blocked`] is **bitwise identical** to
//! [`crate::gemm::sgemm_f32_scalar`], which is what lets every verified
//! backend adopt it without perturbing campaign value-identity. Packed
//! edge padding multiplies zeros into tile lanes that are never written
//! back, exactly like the unblocked microkernel.
//!
//! The inner tile here is the same 4×8 accumulator grid as
//! [`crate::gemm::sgemm_f32`], but reads its panels through fixed-size
//! `&[f32; MR]`/`&[f32; NR]` views — a shape LLVM turns into packed
//! vector code (the slice-iterator form in the unblocked path compiles to
//! scalar FP). The microkernel copies the tile into a local that never
//! escapes, so its accumulator vectors stay in registers for the whole
//! k loop and are stored back once per call. The copy matters: the
//! caller seeds and stores the tile with runtime row and column counts,
//! and a tile indexed that way lives on the stack, so accumulating into
//! it directly would store and reload every accumulator, and re-check a
//! slice bound, on every k step. Per-lane IEEE semantics are unchanged
//! (Rust never contracts `mul`+`add` into FMA), so vectorization does not
//! affect the bitwise contract.
//!
//! # Two builds of one body
//!
//! The panel loops, both packing routines and the tile are one private
//! body, and all of it is `#[inline(always)]`, so each caller compiles
//! its own copy. [`sgemm_f32_blocked_with`] checks its arguments, then
//! picks a copy per call. On an x86-64 CPU where
//! `is_x86_feature_detected!("avx2")` holds, it runs the copy built under
//! `#[target_feature(enable = "avx2")]`: each 8-lane accumulator row of
//! the tile is one 256-bit ymm register instead of two 128-bit xmm ones,
//! so a k step takes half the multiply and add instructions. Everywhere
//! else (x86-64 without AVX2, aarch64 and any other target) it runs the
//! copy built for the target's baseline, SSE2 or NEON. No build flag,
//! option or Cargo feature chooses between them, and calling the AVX2
//! copy is the crate's one `unsafe` block.
//!
//! Both copies give the same bits, because neither changes an element's
//! operation sequence. The `fma` feature stays off and no `mul_add` is
//! written, so every `acc += a * b` is a rounded multiply followed by a
//! rounded add in both builds, and a wider register changes how many
//! columns one instruction updates, not the ascending k order of any
//! element's sum. The unit tests run the portable body directly beside
//! the public entry, so an AVX2 host still proves the fallback.

use crate::gemm::{MR, NR};

/// Granularity of derived KC panels, in k steps.
const KU: usize = 4;

/// Per-core cache geometry the block-size model consumes.
///
/// Only the two levels that shape the Goto schedule are modeled: the B
/// sliver + A sliver working set must sit in L1d, and the packed A block
/// in L2.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheParams {
    /// Per-core L1 data cache capacity in bytes.
    pub l1d_bytes: usize,
    /// Per-core (or per-cluster share of) L2 capacity in bytes.
    pub l2_bytes: usize,
}

impl CacheParams {
    /// Cache model for explicit geometry (the `gemm` and `accelerate`
    /// backends feed per-chip `ChipSpec` L1/L2 numbers through this).
    pub const fn new(l1d_bytes: usize, l2_bytes: usize) -> Self {
        Self {
            l1d_bytes,
            l2_bytes,
        }
    }

    /// Defaults for an x86-64 server core with 48 KiB of L1d and 2 MiB of
    /// private L2, the geometry of Intel Xeon cores since Sapphire Rapids.
    /// The Metal shader bands and the timing gates block with these; the
    /// `gemm` and `accelerate` backends pass per-chip geometry to
    /// [`CacheParams::new`] instead.
    pub const fn host_default() -> Self {
        Self::new(48 * 1024, 2 * 1024 * 1024)
    }

    /// Derive concrete panel-loop block sizes from this geometry.
    pub(crate) fn block_sizes(&self) -> BlockSizes {
        BlockSizes::for_cache(self)
    }
}

/// Concrete NC/KC/MC panel-loop bounds.
///
/// Any positive values are legal (the macrokernel handles partial blocks
/// and degenerate `mc > m` shapes); [`sgemm_f32_blocked`] derives
/// cache-fitting ones from its [`CacheParams`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BlockSizes {
    /// A-block rows per MC iteration.
    pub mc: usize,
    /// Reduction-dim extent per KC panel.
    pub kc: usize,
    /// B-panel columns per NC iteration.
    pub nc: usize,
}

impl BlockSizes {
    /// Fit the Goto working sets to `params`:
    ///
    /// - `kc` so the L1-resident slivers (`NR·kc` of B + `MR·kc` of A)
    ///   fill about half of L1d;
    /// - `mc` so the packed `mc×kc` A block fills about half of L2;
    /// - `nc` so the packed `kc×nc` B panel stays within one L2's worth
    ///   of footprint in the level behind it.
    pub(crate) fn for_cache(params: &CacheParams) -> Self {
        let word = core::mem::size_of::<f32>();
        let kc = (params.l1d_bytes / 2 / (word * (MR + NR))).clamp(KU, 1024);
        let kc = kc - kc % KU;
        let mc = (params.l2_bytes / 2 / (word * kc)).max(MR);
        let mc = mc - mc % MR;
        let nc = (params.l2_bytes / (word * kc)).clamp(NR, 4096);
        let nc = nc - nc % NR;
        Self { mc, kc, nc }
    }
}

/// Blocked `c := a · b` for row-major `m×k` · `k×n` with leading
/// dimensions, block sizes derived from `params`. Same slice contract as
/// [`crate::gemm::sgemm_f32`]; bitwise-identical results.
// BLAS-shaped signature: the argument list is the interface.
#[allow(clippy::too_many_arguments)]
pub fn sgemm_f32_blocked(
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    lda: usize,
    b: &[f32],
    ldb: usize,
    c: &mut [f32],
    ldc: usize,
    params: &CacheParams,
) {
    sgemm_f32_blocked_with(m, n, k, a, lda, b, ldb, c, ldc, &params.block_sizes());
}

/// [`sgemm_f32_blocked`] with explicit panel-loop bounds (the form the
/// equivalence suite uses to park block boundaries on awkward sizes).
///
/// The panel loops run as their AVX2 build on an x86-64 CPU that has
/// AVX2, and as the target's baseline build everywhere else; both give
/// the same bits.
#[allow(clippy::too_many_arguments)]
// The one `unsafe` block in this crate: the call into the AVX2 build.
#[allow(unsafe_code)]
pub fn sgemm_f32_blocked_with(
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    lda: usize,
    b: &[f32],
    ldb: usize,
    c: &mut [f32],
    ldc: usize,
    sizes: &BlockSizes,
) {
    if m == 0 || n == 0 {
        return;
    }
    assert!(lda >= k && ldb >= n && ldc >= n, "leading dimensions");
    if k > 0 {
        assert!(a.len() >= (m - 1) * lda + k, "a too short");
        assert!(b.len() >= (k - 1) * ldb + n, "b too short");
    }
    assert!(c.len() >= (m - 1) * ldc + n, "c too short");
    assert!(sizes.mc > 0 && sizes.kc > 0 && sizes.nc > 0, "block sizes");

    if k == 0 {
        // Same contract as the scalar loop: k = 0 writes zeros.
        for row in c.chunks_mut(ldc).take(m) {
            row[..n].fill(0.0);
        }
        return;
    }

    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: `macrokernel_avx2` is a safe function whose only extra
        // requirement is the `avx2` target feature, and the check above
        // found it on the CPU running this call.
        unsafe { macrokernel_avx2(m, n, k, a, lda, b, ldb, c, ldc, sizes) };
        return;
    }
    macrokernel(m, n, k, a, lda, b, ldb, c, ldc, sizes);
}

/// [`macrokernel`] built for AVX2, without `fma` (see the module docs).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_arguments)]
fn macrokernel_avx2(
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    lda: usize,
    b: &[f32],
    ldb: usize,
    c: &mut [f32],
    ldc: usize,
    sizes: &BlockSizes,
) {
    macrokernel(m, n, k, a, lda, b, ldb, c, ldc, sizes);
}

/// The NC/KC/MC panel loops over the 4×8 tile, for arguments
/// [`sgemm_f32_blocked_with`] has checked: `m`, `n` and `k` positive, and
/// every slice and block size in range.
///
/// It and everything it calls are `#[inline(always)]`, so each caller
/// compiles its own copy of the whole loop nest: the baseline build in
/// [`sgemm_f32_blocked_with`] and the AVX2 build in `macrokernel_avx2`.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn macrokernel(
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    lda: usize,
    b: &[f32],
    ldb: usize,
    c: &mut [f32],
    ldc: usize,
    sizes: &BlockSizes,
) {
    let mc = sizes.mc.min(m.next_multiple_of(MR));
    let kc = sizes.kc.min(k);
    let nc = sizes.nc.min(n.next_multiple_of(NR));

    // Pack buffers are sized for full blocks and reused across panels;
    // the pack routines fully overwrite the region a block uses.
    let mut a_pack = vec![0.0f32; mc.next_multiple_of(MR) * kc];
    let mut b_pack = vec![0.0f32; kc * nc.next_multiple_of(NR)];

    let mut jc = 0;
    while jc < n {
        let ncb = nc.min(n - jc);
        let n_panels = ncb.div_ceil(NR);
        // KC panels in ascending-k order: each seeds from C's stored
        // partial, so every element accumulates k strictly ascending.
        let mut pc = 0;
        while pc < k {
            let kcb = kc.min(k - pc);
            pack_b(&mut b_pack, b, ldb, pc, jc, kcb, ncb);
            let first_panel = pc == 0;
            let mut ic = 0;
            while ic < m {
                let mcb = mc.min(m - ic);
                let m_panels = mcb.div_ceil(MR);
                pack_a(&mut a_pack, a, lda, ic, pc, mcb, kcb);
                for ip in 0..m_panels {
                    let rows = MR.min(mcb - ip * MR);
                    let ap = &a_pack[ip * MR * kcb..(ip + 1) * MR * kcb];
                    for jp in 0..n_panels {
                        let cols = NR.min(ncb - jp * NR);
                        let bp = &b_pack[jp * NR * kcb..(jp + 1) * NR * kcb];
                        let c0 = (ic + ip * MR) * ldc + jc + jp * NR;

                        let mut acc = [[0.0f32; NR]; MR];
                        if !first_panel {
                            for (r, row) in acc.iter_mut().enumerate().take(rows) {
                                row[..cols].copy_from_slice(&c[c0 + r * ldc..c0 + r * ldc + cols]);
                            }
                        }
                        microkernel_4x8(&mut acc, ap, bp, kcb);
                        for (r, row) in acc.iter().enumerate().take(rows) {
                            c[c0 + r * ldc..c0 + r * ldc + cols].copy_from_slice(&row[..cols]);
                        }
                    }
                }
                ic += mcb;
            }
            pc += kcb;
        }
        jc += ncb;
    }
}

/// Pack the `mcb×kcb` A block at `(ic, pc)` into `MR`-row k-major panels
/// (`panel[p*MR + r]`), zero-padding partial row groups.
#[inline(always)]
fn pack_a(a_pack: &mut [f32], a: &[f32], lda: usize, ic: usize, pc: usize, mcb: usize, kcb: usize) {
    for ip in 0..mcb.div_ceil(MR) {
        let rows = MR.min(mcb - ip * MR);
        let panel = &mut a_pack[ip * MR * kcb..(ip + 1) * MR * kcb];
        if rows < MR {
            panel.fill(0.0);
        }
        for r in 0..rows {
            let src = &a[(ic + ip * MR + r) * lda + pc..][..kcb];
            for (p, &v) in src.iter().enumerate() {
                panel[p * MR + r] = v;
            }
        }
    }
}

/// Pack the `kcb×ncb` B block at `(pc, jc)` into `NR`-column row-major
/// panels (`panel[p*NR + j]`), zero-padding partial column groups.
#[inline(always)]
fn pack_b(b_pack: &mut [f32], b: &[f32], ldb: usize, pc: usize, jc: usize, kcb: usize, ncb: usize) {
    for jp in 0..ncb.div_ceil(NR) {
        let cols = NR.min(ncb - jp * NR);
        let panel = &mut b_pack[jp * NR * kcb..(jp + 1) * NR * kcb];
        for p in 0..kcb {
            let src = &b[(pc + p) * ldb + jc + jp * NR..][..cols];
            let dst = &mut panel[p * NR..(p + 1) * NR];
            dst[..cols].copy_from_slice(src);
            dst[cols..].fill(0.0);
        }
    }
}

/// The 4×8 register tile over one A panel / B panel pair: `kc` ascending
/// k steps of `acc[r][j] += ap[p*MR+r] * bp[p*NR+j]` on the caller's
/// accumulators.
///
/// Same operation order as [`crate::gemm::sgemm_f32`]'s tile loop. The
/// tile is copied into a local that never escapes, so LLVM keeps all 32
/// accumulators in vector registers for the whole k loop and stores them
/// back once; the panels are walked as fixed-size `&[f32; MR]`/`&[f32;
/// NR]` steps, so no k step re-checks a slice bound.
#[inline(always)]
fn microkernel_4x8(acc: &mut [[f32; NR]; MR], ap: &[f32], bp: &[f32], kc: usize) {
    let a_steps = ap[..kc * MR].chunks_exact(MR);
    let b_steps = bp[..kc * NR].chunks_exact(NR);
    let mut tile = *acc;
    for (av, bv) in a_steps.zip(b_steps) {
        let av: &[f32; MR] = av.try_into().expect("chunks_exact yields MR lanes");
        let bv: &[f32; NR] = bv.try_into().expect("chunks_exact yields NR lanes");
        for (row, &ar) in tile.iter_mut().zip(av) {
            for (slot, &bj) in row.iter_mut().zip(bv) {
                *slot += ar * bj;
            }
        }
    }
    *acc = tile;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::{sgemm_f32, sgemm_f32_scalar};

    type Blocked =
        fn(usize, usize, usize, &[f32], usize, &[f32], usize, &mut [f32], usize, &BlockSizes);

    /// The public entry, which takes the AVX2 build where the CPU has
    /// AVX2, and the portable body it falls back to everywhere else; a
    /// test over both proves both paths on any host.
    const BLOCKED: [(&str, Blocked); 2] = [
        ("sgemm_f32_blocked_with", sgemm_f32_blocked_with),
        ("macrokernel", macrokernel),
    ];

    fn det_matrix(rows: usize, cols: usize, seed: u32) -> Vec<f32> {
        let mut state = seed.wrapping_mul(2654435761).wrapping_add(1);
        (0..rows * cols)
            .map(|_| {
                state = state.wrapping_mul(1664525).wrapping_add(1013904223);
                (state >> 8) as f32 / (1u32 << 24) as f32 - 0.5
            })
            .collect()
    }

    #[test]
    fn derived_block_sizes_fit_the_model() {
        let sizes = CacheParams::host_default().block_sizes();
        // Slivers in half of L1d, A block in half of L2.
        assert!(4 * (MR + NR) * sizes.kc <= 48 * 1024 / 2 + 4 * (MR + NR) * KU);
        assert!(4 * sizes.mc * sizes.kc <= 2 * 1024 * 1024 / 2);
        assert_eq!(sizes.mc % MR, 0);
        assert_eq!(sizes.nc % NR, 0);
        assert_eq!(sizes.kc % KU, 0);
    }

    #[test]
    fn tiny_cache_still_yields_positive_blocks() {
        let sizes = CacheParams::new(256, 1024).block_sizes();
        assert!(sizes.mc >= MR && sizes.kc >= 1 && sizes.nc >= NR);
    }

    #[test]
    fn matches_scalar_bitwise_across_panel_boundaries() {
        // Small explicit blocks so a modest matrix crosses every loop.
        let sizes = BlockSizes {
            mc: 8,
            kc: 12,
            nc: 16,
        };
        for (m, n, k) in [
            (1, 1, 1),
            (8, 16, 12),
            (9, 17, 13),
            (7, 15, 11),
            (24, 32, 36),
            (23, 31, 37),
        ] {
            let a = det_matrix(m, k, 1);
            let b = det_matrix(k, n, 2);
            let mut slow = vec![f32::NAN; m * n];
            sgemm_f32_scalar(m, n, k, &a, k, &b, n, &mut slow, n);
            for (name, blocked) in BLOCKED {
                let mut fast = vec![f32::NAN; m * n];
                blocked(m, n, k, &a, k, &b, n, &mut fast, n, &sizes);
                assert_eq!(fast, slow, "{name} m={m} n={n} k={k}");
            }
        }
    }

    #[test]
    fn zero_k_writes_zeros() {
        let mut c = vec![5.0f32; 4];
        sgemm_f32_blocked(
            2,
            2,
            0,
            &[],
            1,
            &[],
            2,
            &mut c,
            2,
            &CacheParams::host_default(),
        );
        assert_eq!(c, vec![0.0; 4]);
    }

    #[test]
    fn respects_leading_dimensions_and_untouched_storage() {
        let (lda, ldb, ldc) = (7, 5, 9);
        let a = det_matrix(3, lda, 3);
        let b = det_matrix(4, ldb, 4);
        let mut slow = vec![-2.0f32; 3 * ldc];
        let sizes = BlockSizes {
            mc: 4,
            kc: 2,
            nc: 8,
        };
        sgemm_f32_scalar(3, 5, 4, &a, lda, &b, ldb, &mut slow, ldc);
        for (name, blocked) in BLOCKED {
            let mut fast = vec![-2.0f32; 3 * ldc];
            blocked(3, 5, 4, &a, lda, &b, ldb, &mut fast, ldc, &sizes);
            assert_eq!(fast, slow, "{name}");
            // Storage beyond each row's n columns is untouched.
            assert_eq!(fast[5], -2.0, "{name}");
            assert_eq!(fast[ldc + 5], -2.0, "{name}");
        }
    }

    /// Times each speed-up against a baseline built for the same ISA, so
    /// each shows what it adds: the portable body against the unblocked
    /// [`sgemm_f32`] shows that the cache blocking pays, and, where the
    /// CPU has AVX2, the public entry against the portable body shows that
    /// the AVX2 build pays. Each side is the minimum of 3 calls after one
    /// warm-up call, since the minimum filters scheduler noise. Timings
    /// mean nothing unoptimized, so this runs in release only.
    #[test]
    #[cfg_attr(debug_assertions, ignore = "timing gate; run with --release")]
    fn blocking_and_the_avx2_build_each_pay_at_one_isa() {
        use std::hint::black_box;
        fn min_of_3_secs(mut call: impl FnMut()) -> f64 {
            call();
            (0..3)
                .map(|_| {
                    let started = std::time::Instant::now();
                    call();
                    started.elapsed().as_secs_f64()
                })
                .fold(f64::INFINITY, f64::min)
        }
        let sizes = CacheParams::host_default().block_sizes();
        for n in [128usize, 256] {
            let a = det_matrix(n, n, 31);
            let b = det_matrix(n, n, 32);
            let mut c = vec![0.0f32; n * n];
            let unblocked_s = min_of_3_secs(|| {
                sgemm_f32(n, n, n, black_box(&a), n, black_box(&b), n, &mut c, n);
                black_box(&c);
            });
            let mut blocked_s = |blocked: Blocked| {
                min_of_3_secs(|| {
                    blocked(
                        n,
                        n,
                        n,
                        black_box(&a),
                        n,
                        black_box(&b),
                        n,
                        &mut c,
                        n,
                        &sizes,
                    );
                    black_box(&c);
                })
            };
            let portable_s = blocked_s(macrokernel);
            assert!(
                portable_s <= unblocked_s,
                "n={n}: portable blocked {:.3} ms is slower than unblocked {:.3} ms",
                portable_s * 1e3,
                unblocked_s * 1e3
            );
            #[cfg(target_arch = "x86_64")]
            if std::arch::is_x86_feature_detected!("avx2") {
                let dispatched_s = blocked_s(sgemm_f32_blocked_with);
                assert!(
                    dispatched_s <= portable_s,
                    "n={n}: AVX2 blocked {:.3} ms is slower than portable {:.3} ms",
                    dispatched_s * 1e3,
                    portable_s * 1e3
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "a too short")]
    fn short_a_panics() {
        let mut c = vec![0.0f32; 4];
        sgemm_f32_blocked(
            2,
            2,
            3,
            &[0.0; 5],
            3,
            &[0.0; 6],
            2,
            &mut c,
            2,
            &CacheParams::host_default(),
        );
    }
}
