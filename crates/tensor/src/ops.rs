//! Matrix kernels: products in the three orientations backprop needs,
//! plus elementwise helpers.
//!
//! The GEMM family shares one register-tiled micro-kernel. The invariant
//! that makes tiling legal here is stronger than the usual "close enough"
//! float argument: every output element accumulates its `k` contributions
//! in **ascending `p` order, unconditionally and fused** (`mul_add`, one
//! rounding per contribution), and partial sums round-trip through `f32`
//! exactly, so the tiled kernels are *bitwise-identical* to the scalar
//! reference loop with the same arithmetic — only the schedule (registers
//! instead of memory, SIMD lanes instead of scalars) changes, at *any*
//! thread count. `tests/par_equivalence.rs` pins this.
//!
//! The seed's kernels branched on `a == 0.0` to skip work on post-ReLU
//! sparsity; with FMA lanes the unconditional multiply is cheaper than the
//! per-scalar branch (~30% on dense panels), so the branch is gone and the
//! reference loop dropped it too.
//!
//! **Write-once outputs.** Each product has one body, `*_into(…, out)`,
//! which writes every element of `out` exactly once and reads none of it
//! before writing: the first k-tile starts its accumulators at +0.0 instead
//! of loading `C` (the value a zero-filled `C` supplied, so the FMA chain
//! and the bits are unchanged), and later k-tiles resume from what the
//! previous one stored. So `out` may be a recycled buffer holding anything
//! (the training step's workspace, `gnn_dm_nn`), and the allocating forms
//! (`matmul`, `matmul_tn`, …) are wrappers that hand the body a fresh
//! matrix. `k == 0` writes the empty sum, +0.0.

use crate::matrix::Matrix;
use gnn_dm_par::{par_chunks_mut, par_reduce};

/// k-dimension tile: one packed `TILE_K x NR` panel of `B` is 16 KiB —
/// half an L1 — so it stays resident across a whole row panel. In
/// [`matmul_tn`] it is the `A` side that must stay resident: a register
/// tile touches one strided cache line of `A` per step, 8 KiB per tile.
const TILE_K: usize = 128;
/// Rows of `C` owned by one parallel work item. Fixed — never derived from
/// the thread count — so chunk boundaries, and therefore results, are
/// identical at any parallelism level (see `gnn_dm_par`). A whole number
/// of portable register tiles; nine 512-bit ones and a six-row remainder.
const TILE_M: usize = 96;
/// Register-tile width: columns of `C` accumulated per block. A `[f32; NR]`
/// accumulator row is two 512-bit or four 256-bit vector registers.
const NR: usize = 32;
/// Whether the register tile is written for 512-bit registers
/// ([`tile_steps_512`]). Decided by the build target alone — builds are
/// `-C target-cpu=native` by contract (`.cargo/config.toml`). The portable
/// body cannot get there by auto-vectorization: LLVM's `prefer-256-bit`
/// tuning compiles it to `ymm` code even where AVX-512 is enabled, which
/// leaves half of each FMA unit idle.
const WIDE_TILE: bool = cfg!(all(target_arch = "x86_64", target_feature = "avx512f"));
/// Register-tile height: rows of `C` accumulated simultaneously by the
/// widest micro-kernel instantiation, sized to the vector register file.
/// Portable body: 6 rows, the BLAS staple for 16 `ymm` — 8 rows measured
/// ~20% slower from spills, 4 rows ~10% from lost `B` reuse. 512-bit body,
/// 32 `zmm`: 10 rows are 20 accumulator registers, two for the `B` segment
/// and ten for the `A` broadcasts LLVM hoists to the top of a step — the
/// whole file; 12 rows spill (~25% slower), 8 rows lose `B` reuse on the
/// backward orientations (DESIGN §13.3 has the measured table).
const MR: usize = if WIDE_TILE { 10 } else { 6 };
/// Elements per parallel work item for elementwise kernels — fixed, so
/// chunk boundaries never depend on the thread count.
const ELEM_CHUNK: usize = 1 << 14;

// Tile invariants the kernels rely on. Row panels must pack evenly into
// MR-groups plus a remainder the `match` in `micro_block` handles (any
// 1..=MR works); ragged column/k edges are remainder-handled explicitly
// and asserted at the use sites.
const _: () = assert!(TILE_M >= MR && MR >= 1 && MR <= 10);
const _: () = assert!(NR == 32 && TILE_K >= 1);

/// Where a row panel's `A` values live, relative to the panel's first row
/// and the k-tile's first step: `a(p, r)` is what row `r` of the panel
/// multiplies at step `p`.
#[derive(Clone, Copy)]
enum APanel<'a> {
    /// `a(p, r) = data[r * stride + p]` — rows of a row-major `A`
    /// (`A · B`, `A · Bᵀ`).
    Rows(&'a [f32], usize),
    /// `a(p, r) = data[p * stride + r]` — columns of a row-major `A`
    /// (`Aᵀ · B`): for a fixed `p` a tile's values are adjacent.
    Cols(&'a [f32], usize),
}

/// The `kk` accumulation steps of one register tile:
/// `acc[r][j] = fma(a_at(p)[r], bp[p * b_stride + b_off + j], acc[r][j])`
/// for `p` ascending. `WIDE` picks the 512-bit body where the build has
/// one; both issue the same fused multiply-add per element in the same
/// order, so they agree to the bit (`tile_bodies_agree_bitwise`).
#[inline(always)]
fn tile_steps<const MR_: usize, const WIDE: bool>(
    acc: &mut [[f32; NR]; MR_],
    kk: usize,
    a_at: impl Fn(usize) -> [f32; MR_],
    bp: &[f32],
    b_stride: usize,
    b_off: usize,
) {
    #[cfg(all(target_arch = "x86_64", target_feature = "avx512f"))]
    if WIDE {
        return tile_steps_512(acc, kk, a_at, bp, b_stride, b_off);
    }
    for p in 0..kk {
        let b_seg = &bp[p * b_stride + b_off..][..NR];
        let a_p = a_at(p);
        for (row, &a_rp) in acc.iter_mut().zip(&a_p) {
            for (x, &bv) in row.iter_mut().zip(b_seg) {
                *x = a_rp.mul_add(bv, *x);
            }
        }
    }
}

/// [`tile_steps`] with each accumulator row held as two 512-bit registers:
/// `_mm512_fmadd_ps` is, lane by lane, the `mul_add` of the portable body.
#[cfg(all(target_arch = "x86_64", target_feature = "avx512f"))]
#[inline(always)]
fn tile_steps_512<const MR_: usize>(
    acc: &mut [[f32; NR]; MR_],
    kk: usize,
    a_at: impl Fn(usize) -> [f32; MR_],
    bp: &[f32],
    b_stride: usize,
    b_off: usize,
) {
    use std::arch::x86_64::{_mm512_fmadd_ps, _mm512_loadu_ps, _mm512_set1_ps, _mm512_storeu_ps};
    const LANES: usize = NR / 2;
    // SAFETY: the intrinsics need `avx512f`, which this function's `cfg`
    // makes a property of the whole build. Every load and store moves
    // `LANES` = 16 floats at offset 0 or `LANES` of a slice or array of
    // exactly `NR` = 32 floats: `row` is a `[f32; NR]`, and `b_seg` was cut
    // to `NR` elements by the bounds-checked slicing on the line before
    // its loads. Unaligned access is what `loadu`/`storeu` are for.
    unsafe {
        let mut regs = acc
            .each_ref()
            .map(|row| [_mm512_loadu_ps(row.as_ptr()), _mm512_loadu_ps(row.as_ptr().add(LANES))]);
        for p in 0..kk {
            let b_seg = &bp[p * b_stride + b_off..][..NR];
            let b_lo = _mm512_loadu_ps(b_seg.as_ptr());
            let b_hi = _mm512_loadu_ps(b_seg.as_ptr().add(LANES));
            for (reg, a_rp) in regs.iter_mut().zip(a_at(p)) {
                let a_rp = _mm512_set1_ps(a_rp);
                reg[0] = _mm512_fmadd_ps(a_rp, b_lo, reg[0]);
                reg[1] = _mm512_fmadd_ps(a_rp, b_hi, reg[1]);
            }
        }
        for (row, reg) in acc.iter_mut().zip(regs) {
            _mm512_storeu_ps(row.as_mut_ptr(), reg[0]);
            _mm512_storeu_ps(row.as_mut_ptr().add(LANES), reg[1]);
        }
    }
}

/// One register tile: rows `r0..r0 + MR_` and columns `j0..j0 + w` of the
/// row panel `c` (row stride `n`) accumulate
/// `c[r][j] = fma(a(p, r), bp[p * b_stride + b_off + j], c[r][j])` for `p`
/// ascending over `0..kk` — exactly the element order and rounding of the
/// scalar reference loop, so the result is bitwise-identical; the
/// accumulators just live in registers.
///
/// On the first k-tile of a product (`first`) the accumulators start at
/// +0.0 and `C` is never read, so `C` may hold anything: +0.0 is what a
/// zero-filled `C` would have supplied, the same FMA chain. Later k-tiles
/// resume from the partial sums the previous tile stored.
///
/// A ragged tile (`w < NR`) runs the same full-width arithmetic: `bp` must
/// hold `NR` readable values per step (callers point it at a padded
/// strip), and the lanes past `w` are computed and dropped.
#[inline]
#[allow(clippy::too_many_arguments, reason = "one tile = A panel + B view + C view")]
fn micro_kernel<const MR_: usize, const WIDE: bool>(
    kk: usize,
    a: APanel<'_>,
    bp: &[f32],
    b_stride: usize,
    b_off: usize,
    c: &mut [f32],
    n: usize,
    r0: usize,
    j0: usize,
    w: usize,
    first: bool,
) {
    let mut acc = [[0.0f32; NR]; MR_];
    if !first {
        for (r, row) in acc.iter_mut().enumerate() {
            let c_seg = &c[(r0 + r) * n + j0..][..w];
            if w == NR {
                row.copy_from_slice(c_seg);
            } else {
                // Through a temporary, so the runtime-length copy never
                // addresses the accumulators and they stay in registers.
                let mut padded = [0.0f32; NR];
                padded[..w].copy_from_slice(c_seg);
                *row = padded;
            }
        }
    }
    match a {
        APanel::Rows(data, stride) => {
            let rows: [&[f32]; MR_] =
                std::array::from_fn(|r| &data[(r0 + r) * stride..][..kk]);
            tile_steps::<MR_, WIDE>(
                &mut acc,
                kk,
                |p| std::array::from_fn(|r| rows[r][p]),
                bp,
                b_stride,
                b_off,
            );
        }
        APanel::Cols(data, stride) => {
            let a_at = |p: usize| {
                let seg = &data[p * stride + r0..][..MR_];
                std::array::from_fn(|r| seg[r])
            };
            tile_steps::<MR_, WIDE>(&mut acc, kk, a_at, bp, b_stride, b_off);
        }
    }
    for (r, row) in acc.iter().enumerate() {
        let c_seg = &mut c[(r0 + r) * n + j0..][..w];
        if w == NR {
            c_seg.copy_from_slice(row);
        } else {
            let padded = *row;
            c_seg.copy_from_slice(&padded[..w]);
        }
    }
}

/// One column block (`w` columns at `j0`, full when `w == NR`) across the
/// `rows` rows of panel `c`, dispatching to the widest micro-kernel that
/// fits each row group. Rows beyond the last full MR-group go through
/// narrower const instantiations, so every (row, column) pair is visited
/// exactly once — full and ragged column blocks alike.
#[allow(clippy::too_many_arguments, reason = "forwards the micro-kernel's tile description")]
fn micro_block<const WIDE: bool>(
    kk: usize,
    a: APanel<'_>,
    bp: &[f32],
    b_stride: usize,
    b_off: usize,
    c: &mut [f32],
    n: usize,
    rows: usize,
    j0: usize,
    w: usize,
    first: bool,
) {
    debug_assert!((1..=NR).contains(&w) && c.len() == rows * n);
    let mut r0 = 0;
    while r0 < rows {
        let mr = (rows - r0).min(MR);
        match mr {
            10 => micro_kernel::<10, WIDE>(kk, a, bp, b_stride, b_off, c, n, r0, j0, w, first),
            9 => micro_kernel::<9, WIDE>(kk, a, bp, b_stride, b_off, c, n, r0, j0, w, first),
            8 => micro_kernel::<8, WIDE>(kk, a, bp, b_stride, b_off, c, n, r0, j0, w, first),
            7 => micro_kernel::<7, WIDE>(kk, a, bp, b_stride, b_off, c, n, r0, j0, w, first),
            6 => micro_kernel::<6, WIDE>(kk, a, bp, b_stride, b_off, c, n, r0, j0, w, first),
            5 => micro_kernel::<5, WIDE>(kk, a, bp, b_stride, b_off, c, n, r0, j0, w, first),
            4 => micro_kernel::<4, WIDE>(kk, a, bp, b_stride, b_off, c, n, r0, j0, w, first),
            3 => micro_kernel::<3, WIDE>(kk, a, bp, b_stride, b_off, c, n, r0, j0, w, first),
            2 => micro_kernel::<2, WIDE>(kk, a, bp, b_stride, b_off, c, n, r0, j0, w, first),
            _ => micro_kernel::<1, WIDE>(kk, a, bp, b_stride, b_off, c, n, r0, j0, w, first),
        }
        r0 += mr;
    }
}

/// `B` (row stride `n`) as the micro-kernel reads it in place: the full
/// `NR`-wide column strips straight out of `rows`, and the ragged last
/// strip (`n % NR` columns) from `tail`, a zero-padded `NR`-stride copy, so
/// every strip — ragged or not — is a full-width register tile.
struct InPlaceB<'a> {
    rows: &'a [f32],
    n: usize,
    tail: Vec<f32>,
}

impl<'a> InPlaceB<'a> {
    fn new(b: &'a Matrix) -> Self {
        let (k, n) = b.shape();
        let (j0, w) = (n - n % NR, n % NR);
        let mut tail = vec![0.0f32; if w == 0 { 0 } else { k * NR }];
        for (dst, src) in tail.chunks_mut(NR).zip(b.as_slice().chunks(n.max(1))) {
            dst[..w].copy_from_slice(&src[j0..]);
        }
        InPlaceB { rows: b.as_slice(), n, tail }
    }

    /// For every row `r < rows` of panel `c` and every column `j`,
    /// `c[r][j] += Σ_p a(p, r) * B[p0 + p][j]` over `p` in `0..kk`,
    /// ascending — onto +0.0 instead of `c` when `first`.
    fn accumulate(
        &self,
        p0: usize,
        kk: usize,
        a: APanel<'_>,
        c: &mut [f32],
        rows: usize,
        first: bool,
    ) {
        let n = self.n;
        let (j_tail, w_tail) = (n - n % NR, n % NR);
        for j0 in (0..j_tail).step_by(NR) {
            micro_block::<WIDE_TILE>(kk, a, &self.rows[p0 * n..], n, j0, c, n, rows, j0, NR, first);
        }
        if w_tail > 0 {
            let tail = &self.tail[p0 * NR..];
            micro_block::<WIDE_TILE>(kk, a, tail, NR, 0, c, n, rows, j_tail, w_tail, first);
        }
    }
}

/// `C = A · B`. Row panels of `C` are computed in parallel; within a panel
/// the register micro-kernel accumulates each output element in
/// ascending-`p` order with fused multiply-adds, so the result is
/// bitwise-identical to the scalar reference i-k-j loop at any thread
/// count.
///
/// # Panics
///
/// Panics on a shape mismatch.
pub fn matmul(a: &Matrix, b: &Matrix) -> Matrix {
    let mut c = Matrix::zeros(a.rows(), b.cols());
    matmul_into(a, b, &mut c);
    c
}

/// [`matmul`] into `out` (`a.rows() × b.cols()`), whose contents are
/// ignored: every element is written once, nothing of it is read.
///
/// # Panics
///
/// Panics on a shape mismatch.
pub fn matmul_into(a: &Matrix, b: &Matrix, out: &mut Matrix) {
    assert_eq!(a.cols(), b.rows(), "matmul shape mismatch: {:?} x {:?}", a.shape(), b.shape());
    assert_eq!(out.shape(), (a.rows(), b.cols()), "matmul output shape");
    let (k, n) = b.shape();
    let a_slice = a.as_slice();
    let b_view = InPlaceB::new(b);
    par_chunks_mut(out.as_mut_slice(), TILE_M * n, |ci, c_chunk| {
        let i0 = ci * TILE_M;
        let a_panel = APanel::Rows(&a_slice[i0 * k..], k);
        b_view.accumulate(0, k, a_panel, c_chunk, c_chunk.len() / n, true);
    });
}

/// A `k × n` right-hand side repacked for the micro-kernel: panel
/// (k-tile `kt`, column strip `js`) holds rows `kt * TILE_K..` of columns
/// `js * NR..` contiguously with stride `NR`, zero-padded to `TILE_K × NR`,
/// so a register tile streams it unit-stride whatever the operand's own
/// layout was. Packed once per product and read by every row panel.
/// Copying reorders memory, not arithmetic, so results are unchanged.
struct PackedB {
    panels: Vec<f32>,
    k: usize,
    n: usize,
}

impl PackedB {
    /// `fill(panel, k0, kk, j0, w)` writes `panel[p * NR + t] = B[k0 + p][j0 + t]`
    /// for `p < kk`, `t < w` into a zeroed panel.
    fn new(k: usize, n: usize, fill: impl Fn(&mut [f32], usize, usize, usize, usize)) -> Self {
        let nstrips = n.div_ceil(NR);
        let mut panels = vec![0.0f32; k.div_ceil(TILE_K) * nstrips * TILE_K * NR];
        for (i, panel) in panels.chunks_mut(TILE_K * NR).enumerate() {
            let (k0, j0) = (i / nstrips * TILE_K, i % nstrips * NR);
            fill(panel, k0, (k - k0).min(TILE_K), j0, (n - j0).min(NR));
        }
        PackedB { panels, k, n }
    }

    /// `out = A · B` for a row-major `A` (`m × k`): row panels of `C` in
    /// parallel, the shared dimension in `TILE_K` blocks so a `B` panel
    /// stays L1/L2-resident across the whole row panel. The first k-tile
    /// writes `out`, later ones accumulate onto it: partial sums round-trip
    /// through `f32` exactly, and `p` still ascends across and within tiles.
    fn left_multiply(&self, a: &Matrix, out: &mut Matrix) {
        let (k, n) = (self.k, self.n);
        assert_eq!(out.shape(), (a.rows(), n), "matmul output shape");
        if k == 0 {
            // The empty sum: no k-tile runs to store it.
            out.as_mut_slice().fill(0.0);
            return;
        }
        let nstrips = n.div_ceil(NR);
        let a_slice = a.as_slice();
        par_chunks_mut(out.as_mut_slice(), TILE_M * n, |ci, c_chunk| {
            let i0 = ci * TILE_M;
            let rows = c_chunk.len() / n;
            for kt in 0..k.div_ceil(TILE_K) {
                let k0 = kt * TILE_K;
                let kk = (k - k0).min(TILE_K);
                let a_panel = APanel::Rows(&a_slice[i0 * k + k0..], k);
                for js in 0..nstrips {
                    let j0 = js * NR;
                    let panel = &self.panels[(kt * nstrips + js) * TILE_K * NR..];
                    let (w, first) = ((n - j0).min(NR), kt == 0);
                    micro_block::<WIDE_TILE>(
                        kk, a_panel, panel, NR, 0, c_chunk, n, rows, j0, w, first,
                    );
                }
            }
        });
    }
}

/// `C = A · B` with k-tiling and a packed `B` (`PackedB`) on top of
/// [`matmul`]'s register tiling — bitwise-identical to [`matmul`] (pinned
/// by `tiled_variants_match_naive_exactly`).
pub fn matmul_tiled(a: &Matrix, b: &Matrix) -> Matrix {
    let mut c = Matrix::zeros(a.rows(), b.cols());
    matmul_tiled_into(a, b, &mut c);
    c
}

/// [`matmul_tiled`] into `out` (`a.rows() × b.cols()`), written once and
/// never read before it is written.
pub fn matmul_tiled_into(a: &Matrix, b: &Matrix, out: &mut Matrix) {
    assert_eq!(a.cols(), b.rows(), "matmul shape mismatch: {:?} x {:?}", a.shape(), b.shape());
    let (k, n) = b.shape();
    let b_slice = b.as_slice();
    PackedB::new(k, n, |panel, k0, kk, j0, w| {
        for (p, dst) in panel.chunks_mut(NR).take(kk).enumerate() {
            dst[..w].copy_from_slice(&b_slice[(k0 + p) * n + j0..][..w]);
        }
    })
    .left_multiply(a, out)
}

/// Rows of `C = Aᵀ · B` owned by one parallel work item, from the shape
/// alone (never the thread count): about eight panels whatever `m` is,
/// each a whole number of `MR`-row register tiles — so a 64×32 or a 128×16
/// `dW` still fans out, where a fixed `TILE_M` panel would be one item.
fn tn_panel_rows(m: usize) -> usize {
    m.div_ceil(8).div_ceil(MR).max(1) * MR
}

/// `C = Aᵀ · B` without materializing or packing the transpose (the
/// `dW = Xᵀ·dY` orientation of backprop). For a fixed `p` the `MR` values
/// `A[p][i..i + MR]` a register tile needs are already adjacent in memory,
/// so the micro-kernel broadcasts them straight out of `A` against
/// `B[p][j0..j0 + NR]`. The shared dimension is walked in `TILE_K`-row
/// tiles, register tiles outermost, so a tile's `A` lines stay L1-resident
/// across its column strips while `B` streams; partial sums round-trip
/// through `C` between tiles, which is exact. Every output element still accumulates in ascending-`p`
/// order with the same fused multiply-adds, so the result is
/// bitwise-identical to the reference p-outer loop at any thread count.
pub fn matmul_tn(a: &Matrix, b: &Matrix) -> Matrix {
    let mut c = Matrix::zeros(a.cols(), b.cols());
    matmul_tn_into(a, b, &mut c);
    c
}

/// [`matmul_tn`] into `out` (`a.cols() × b.cols()`), written once and never
/// read before it is written.
pub fn matmul_tn_into(a: &Matrix, b: &Matrix, out: &mut Matrix) {
    assert_eq!(a.rows(), b.rows(), "matmul_tn shape mismatch: {:?}ᵀ x {:?}", a.shape(), b.shape());
    let (k, m, n) = (a.rows(), a.cols(), b.cols());
    assert_eq!(out.shape(), (m, n), "matmul_tn output shape");
    if k == 0 {
        // The empty sum: no k-tile runs to store it.
        out.as_mut_slice().fill(0.0);
        return;
    }
    let a_slice = a.as_slice();
    let b_view = InPlaceB::new(b);
    let panel = tn_panel_rows(m);
    par_chunks_mut(out.as_mut_slice(), panel * n, |ci, c_chunk| {
        let i0 = ci * panel;
        let rows = c_chunk.len() / n;
        for k0 in (0..k).step_by(TILE_K) {
            let kk = (k - k0).min(TILE_K);
            // Register tiles outermost: a tile's `A` values (one cache
            // line per step, strided) are swept once per column strip, so
            // they are the operand worth keeping L1-resident; `B` streams.
            for r0 in (0..rows).step_by(MR) {
                let mr = (rows - r0).min(MR);
                let a_tile = APanel::Cols(&a_slice[k0 * m + i0 + r0..], m);
                let c_tile = &mut c_chunk[r0 * n..(r0 + mr) * n];
                b_view.accumulate(k0, kk, a_tile, c_tile, mr, k0 == 0);
            }
        }
    });
}

/// `C = A · Bᵀ` without materializing the transpose (the `dX = dY·Wᵀ`
/// orientation of backprop). `Bᵀ` is packed interleaved
/// (`panel[p * NR + t] = B[j0 + t][k0 + p]`) once per call, so the
/// micro-kernel reads it unit-stride from a buffer all row panels share —
/// `W` is small next to the `dY` it multiplies. Ascending-`p` accumulation
/// with exact `f32` round-trips between tiles keeps the result
/// bitwise-identical to the reference loop with the same arithmetic.
pub fn matmul_nt(a: &Matrix, b: &Matrix) -> Matrix {
    let mut c = Matrix::zeros(a.rows(), b.rows());
    matmul_nt_into(a, b, &mut c);
    c
}

/// [`matmul_nt`] into `out` (`a.rows() × b.rows()`), written once and never
/// read before it is written.
pub fn matmul_nt_into(a: &Matrix, b: &Matrix, out: &mut Matrix) {
    assert_eq!(a.cols(), b.cols(), "matmul_nt shape mismatch: {:?} x {:?}ᵀ", a.shape(), b.shape());
    PackedB::new(b.cols(), b.rows(), |panel, k0, kk, j0, w| {
        for t in 0..w {
            for (p, &bv) in b.row(j0 + t)[k0..k0 + kk].iter().enumerate() {
                panel[p * NR + t] = bv;
            }
        }
    })
    .left_multiply(a, out)
}

/// `a += b` elementwise.
pub fn add_assign(a: &mut Matrix, b: &Matrix) {
    assert_eq!(a.shape(), b.shape(), "add_assign shape mismatch");
    let bs = b.as_slice();
    par_chunks_mut(a.as_mut_slice(), ELEM_CHUNK, |ci, chunk| {
        let (off, len) = (ci * ELEM_CHUNK, chunk.len());
        for (x, &y) in chunk.iter_mut().zip(&bs[off..off + len]) {
            *x += y;
        }
    });
}

/// `a += scale * b` elementwise (axpy).
pub fn add_scaled(a: &mut Matrix, b: &Matrix, scale: f32) {
    assert_eq!(a.shape(), b.shape(), "add_scaled shape mismatch");
    let bs = b.as_slice();
    par_chunks_mut(a.as_mut_slice(), ELEM_CHUNK, |ci, chunk| {
        let (off, len) = (ci * ELEM_CHUNK, chunk.len());
        for (x, &y) in chunk.iter_mut().zip(&bs[off..off + len]) {
            *x += scale * y;
        }
    });
}

/// `a *= s` elementwise.
pub fn scale(a: &mut Matrix, s: f32) {
    par_chunks_mut(a.as_mut_slice(), ELEM_CHUNK, |_ci, chunk| {
        for x in chunk {
            *x *= s;
        }
    });
}

/// Adds a bias row vector to every row. Parallel over `TILE_M`-row panels;
/// purely elementwise, so chunking cannot affect the bits.
pub fn add_bias(a: &mut Matrix, bias: &[f32]) {
    assert_eq!(a.cols(), bias.len(), "bias length must equal cols");
    let n = a.cols();
    par_chunks_mut(a.as_mut_slice(), TILE_M * n.max(1), |_ci, chunk| {
        for row in chunk.chunks_mut(n) {
            for (x, &bv) in row.iter_mut().zip(bias) {
                *x += bv;
            }
        }
    });
}

/// Column sums (the bias-gradient reduction), as an ordered parallel
/// reduction over fixed column blocks: each block sums its columns over
/// rows in ascending-row order (the seed's element order per column), and
/// the blockwise partials concatenate in block order — so the result is
/// bitwise-identical to the serial row-major accumulation at any thread
/// count.
pub fn column_sums(a: &Matrix) -> Vec<f32> {
    /// Columns per reduction work item.
    const COL_CHUNK: usize = 128;
    let rows = a.rows();
    let col_ids: Vec<u32> = (0..a.cols() as u32).collect();
    let sums = par_reduce(
        &col_ids,
        COL_CHUNK,
        |_, ids| {
            let c0 = ids[0] as usize;
            let mut part = vec![0.0f32; ids.len()]; // lint:allow(R003) the block partial IS the reduction's return value, one per COL_CHUNK columns
            for r in 0..rows {
                let seg = &a.row(r)[c0..c0 + ids.len()];
                for (s, &x) in part.iter_mut().zip(seg) {
                    *s += x;
                }
            }
            part
        },
        |mut acc, mut part| {
            acc.append(&mut part);
            acc
        },
    );
    match sums {
        Some(s) => s,
        None => Vec::new(),
    }
}

/// In-place ReLU; returns the pre-activation copy needed for backward.
pub fn relu_forward(a: &mut Matrix) -> Matrix {
    let pre = a.clone();
    relu_in_place(a);
    pre
}

/// In-place ReLU, no copy: `x < 0` becomes +0.0; +0.0, -0.0, NaN and
/// positive values stay as they are.
pub fn relu_in_place(a: &mut Matrix) {
    par_chunks_mut(a.as_mut_slice(), ELEM_CHUNK, |_ci, chunk| {
        for x in chunk {
            if *x < 0.0 {
                *x = 0.0;
            }
        }
    });
}

/// ReLU backward: zeroes gradient entries where the pre-activation was
/// non-positive.
///
/// The ReLU *output* is an equally good mask, so a caller that keeps the
/// output need not keep a pre-activation copy: [`relu_in_place`] maps
/// `pre < 0` to +0.0 and leaves every other value alone, so
/// `out <= 0 ⇔ pre <= 0` for negative values, ±0, NaN and positive values
/// alike (`relu_mask_of_the_output_is_the_mask_of_the_input`).
pub fn relu_backward(grad: &mut Matrix, pre: &Matrix) {
    assert_eq!(grad.shape(), pre.shape(), "relu_backward shape mismatch");
    let ps = pre.as_slice();
    par_chunks_mut(grad.as_mut_slice(), ELEM_CHUNK, |ci, chunk| {
        let (off, len) = (ci * ELEM_CHUNK, chunk.len());
        for (g, &p) in chunk.iter_mut().zip(&ps[off..off + len]) {
            if p <= 0.0 {
                *g = 0.0;
            }
        }
    });
}

/// Scatter-add: `out.row(dst[i]) += src.row(i)` for each i. The reverse of
/// `gather_rows`, used when backpropagating through a gather. Serial: two
/// sources may target the same destination row, so there is no disjoint
/// write partition to parallelize over without changing accumulation order.
pub fn scatter_add_rows(out: &mut Matrix, src: &Matrix, dst: &[u32]) {
    assert_eq!(src.rows(), dst.len(), "one destination per source row");
    assert_eq!(src.cols(), out.cols(), "column mismatch");
    for (i, &d) in dst.iter().enumerate() {
        let s = src.row(i);
        for (o, &x) in out.row_mut(d as usize).iter_mut().zip(s) {
            *o += x;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn approx_eq(a: &Matrix, b: &Matrix, tol: f32) -> bool {
        a.shape() == b.shape()
            && a.as_slice().iter().zip(b.as_slice()).all(|(x, y)| (x - y).abs() <= tol)
    }

    /// The seed's scalar i-k-j loop, kept as the bitwise reference the
    /// register-tiled kernels must reproduce exactly.
    fn matmul_naive(a: &Matrix, b: &Matrix) -> Matrix {
        let n = b.cols();
        let mut c = Matrix::zeros(a.rows(), n);
        for i in 0..a.rows() {
            let c_row = c.row_mut(i);
            for (p, &a_ip) in a.row(i).iter().enumerate() {
                for (c_val, &b_val) in c_row.iter_mut().zip(b.row(p)) {
                    *c_val = a_ip.mul_add(b_val, *c_val);
                }
            }
        }
        c
    }

    #[test]
    fn matmul_small() {
        let a = Matrix::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        let b = Matrix::from_vec(3, 2, vec![7., 8., 9., 10., 11., 12.]);
        let c = matmul(&a, &b);
        assert_eq!(c.as_slice(), &[58., 64., 139., 154.]);
    }

    /// `(m, k, n)` of `[m × k] · [k × n]` products deliberately off every
    /// tile boundary. The widths 1, 15, 16 and 47 are ragged column tails
    /// only (every model's class layer has one): they run the full-width
    /// register tile over a padded strip.
    fn ragged_shapes() -> Vec<(usize, usize, usize)> {
        let mut shapes = vec![
            (1usize, 1usize, 1usize),
            (5, 3, 17),
            (33, 65, 31),
            (37, 129, 49),
            (13, 40, 1),
            (19, 7, 15),
            (512, 128, 16),
            (29, 131, 47),
        ];
        // Every `micro_block` arm, alone and as the remainder under one
        // full-height tile, over a full and a ragged column strip.
        shapes.extend((1..=2 * MR).map(|m| (m, 9, 33)));
        shapes
    }

    /// `(k, m, n)` of `[k × m]ᵀ · [k × n]` products: the tall-skinny shapes
    /// backprop produces, and k = 0, 1 and either side of a tile edge.
    fn tall_skinny_shapes() -> Vec<(usize, usize, usize)> {
        let mut shapes = vec![(15_000usize, 64usize, 32usize), (4096, 602, 128), (512, 128, 16)];
        for m in [1usize, 5, 7] {
            for k in [0usize, 1, 511, 513] {
                shapes.push((k, m, 47));
            }
        }
        shapes
    }

    #[test]
    fn register_tiling_is_bitwise_scalar_on_ragged_shapes() {
        // Zeros salted in so sparse panels get the same unconditional-FMA
        // treatment; ragged tails must still match the scalar loop.
        for (m, k, n) in ragged_shapes() {
            let a = Matrix::from_fn(m, k, |r, c| {
                if (r + c) % 5 == 0 {
                    0.0
                } else {
                    ((r * 31 + c * 7) % 13) as f32 * 0.37 - 1.9
                }
            });
            let b = Matrix::from_fn(k, n, |r, c| ((r * 17 + c * 3) % 11) as f32 * 0.23 - 1.1);
            let expect = matmul_naive(&a, &b);
            assert_eq!(matmul(&a, &b).as_slice(), expect.as_slice(), "matmul {m}x{k}x{n}");
            assert_eq!(
                matmul_tiled(&a, &b).as_slice(),
                expect.as_slice(),
                "matmul_tiled {m}x{k}x{n}"
            );
        }
    }

    #[test]
    fn tn_and_nt_agree_with_explicit_transpose() {
        let a = Matrix::from_fn(4, 3, |r, c| (r * 3 + c) as f32 * 0.5 - 2.0);
        let b = Matrix::from_fn(4, 5, |r, c| ((r + c) % 7) as f32);
        assert!(approx_eq(&matmul_tn(&a, &b), &matmul(&a.transpose(), &b), 1e-5));
        let b2 = Matrix::from_fn(6, 3, |r, c| (r as f32 - c as f32) * 0.25);
        assert!(approx_eq(&matmul_nt(&a, &b2), &matmul(&a, &b2.transpose()), 1e-5));
    }

    #[test]
    fn tn_and_nt_are_bitwise_their_explicit_transpose_products() {
        // Packing must move bits, not arithmetic: against the explicit
        // transpose both orientations share the exact accumulation order,
        // so equality is bitwise, including on ragged shapes.
        let a = Matrix::from_fn(37, 21, |r, c| ((r * 13 + c * 5) % 9) as f32 * 0.11 - 0.4);
        let b = Matrix::from_fn(37, 19, |r, c| ((r * 7 + c) % 8) as f32 * 0.31 - 1.0);
        assert_eq!(matmul_tn(&a, &b).as_slice(), matmul_naive(&a.transpose(), &b).as_slice());
        let b2 = Matrix::from_fn(23, 21, |r, c| ((r + c * 11) % 6) as f32 * 0.21 - 0.6);
        assert_eq!(matmul_nt(&a, &b2).as_slice(), matmul_naive(&a, &b2.transpose()).as_slice());
    }

    /// `Aᵀ · B` reads `A` in place, k-tiled, with shape-derived panels:
    /// none of that may move a bit against the scalar loop over the explicit
    /// transpose — on the tall-skinny shapes backprop produces, on widths
    /// off every tile boundary, and at k = 0, 1 and either side of a tile
    /// edge — at any thread count.
    #[test]
    fn tn_is_bitwise_the_scalar_loop_on_tall_skinny_and_ragged_shapes() {
        for (k, m, n) in tall_skinny_shapes() {
            let a = Matrix::from_fn(k, m, |r, c| ((r * 13 + c * 5) % 9) as f32 * 0.11 - 0.4);
            let b = Matrix::from_fn(k, n, |r, c| ((r * 7 + c) % 8) as f32 * 0.31 - 1.0);
            let expect = matmul_naive(&a.transpose(), &b);
            assert_eq!(expect.shape(), (m, n));
            for threads in [1usize, 3] {
                let got = gnn_dm_par::with_threads(threads, || matmul_tn(&a, &b));
                assert_eq!(got.as_slice(), expect.as_slice(), "{k}x{m}ᵀ·{n} at {threads} threads");
            }
        }
    }

    /// Every `_into` form writes a buffer full of NaN and must leave exactly
    /// what its allocating form returns: a kernel that read `out` before
    /// writing it would carry a NaN (or a changed sign bit) through. On the
    /// ragged and the tall-skinny shapes above, with k = 0 in every
    /// orientation.
    #[test]
    fn into_forms_overwrite_a_dirty_buffer_exactly() {
        let bits = |m: &Matrix| m.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let dirty =
            |rows: usize, cols: usize| Matrix::from_vec(rows, cols, vec![f32::NAN; rows * cols]);
        let fill = |rows: usize, cols: usize, salt: usize| {
            Matrix::from_fn(rows, cols, |r, c| ((r * 13 + c * 5 + salt) % 9) as f32 * 0.11 - 0.4)
        };
        let mut shapes = ragged_shapes();
        shapes.extend([(5, 0, 33), (40, 0, 47), (1, 0, 1)]);
        for (m, k, n) in shapes {
            let (a, b, bt) = (fill(m, k, 1), fill(k, n, 2), fill(n, k, 3));
            let mut out = dirty(m, n);
            matmul_into(&a, &b, &mut out);
            assert_eq!(bits(&out), bits(&matmul(&a, &b)), "matmul {m}x{k}x{n}");
            let mut out = dirty(m, n);
            matmul_tiled_into(&a, &b, &mut out);
            assert_eq!(bits(&out), bits(&matmul_tiled(&a, &b)), "matmul_tiled {m}x{k}x{n}");
            let mut out = dirty(m, n);
            matmul_nt_into(&a, &bt, &mut out);
            assert_eq!(bits(&out), bits(&matmul_nt(&a, &bt)), "matmul_nt {m}x{k}x{n}");
        }
        for (k, m, n) in tall_skinny_shapes() {
            let (a, b) = (fill(k, m, 4), fill(k, n, 5));
            let mut out = dirty(m, n);
            matmul_tn_into(&a, &b, &mut out);
            assert_eq!(bits(&out), bits(&matmul_tn(&a, &b)), "matmul_tn {k}x{m}ᵀ·{n}");
        }
    }

    /// The mask `relu_backward` reads may be the ReLU output instead of the
    /// pre-activation: on ±0, NaN, ±subnormals, ±inf and ordinary values the
    /// gradient comes out bit for bit the same.
    #[test]
    fn relu_mask_of_the_output_is_the_mask_of_the_input() {
        let specials = [
            0.0f32,
            -0.0,
            f32::NAN,
            -f32::NAN,
            f32::MIN_POSITIVE / 4.0,
            -f32::MIN_POSITIVE / 4.0,
            f32::from_bits(1),
            -f32::from_bits(1),
            f32::INFINITY,
            f32::NEG_INFINITY,
            1.5,
            -2.5,
        ];
        let pre = Matrix::from_vec(1, specials.len(), specials.to_vec());
        let mut out = pre.clone();
        relu_in_place(&mut out);
        let grad = Matrix::from_fn(1, specials.len(), |_, c| c as f32 - 5.5);
        let (mut via_pre, mut via_out) = (grad.clone(), grad);
        relu_backward(&mut via_pre, &pre);
        relu_backward(&mut via_out, &out);
        let bits = |m: &Matrix| m.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&via_pre), bits(&via_out));
    }

    #[test]
    fn panel_height_depends_on_the_shape_alone() {
        // About eight panels of whole register tiles, so narrow outputs
        // still fan out — whatever tile height this build uses.
        for m in [1usize, 32, 64, 128, 602, 1204] {
            let rows = tn_panel_rows(m);
            assert_eq!(rows % MR, 0, "m = {m}");
            assert!(rows >= m.div_ceil(8) && rows < m.div_ceil(8) + MR, "m = {m}: {rows}");
        }
        assert!(
            64usize.div_ceil(tn_panel_rows(64)) >= 6 && 128usize.div_ceil(tn_panel_rows(128)) >= 6
        );
    }

    /// The 512-bit tile body against the portable one, through everything
    /// a register tile varies in: height, ragged width, k-tile length and
    /// where the `A` values come from.
    #[cfg(all(target_arch = "x86_64", target_feature = "avx512f"))]
    #[test]
    fn tile_bodies_agree_bitwise() {
        let (k_max, n) = (129usize, 40usize);
        // Read as `MR` rows of `k_max` (`Rows`) or `k_max` rows of `MR` (`Cols`).
        let a: Vec<f32> = (0..MR * k_max).map(|i| ((i * 29) % 23) as f32 * 0.19 - 2.0).collect();
        let bp: Vec<f32> = (0..k_max * NR).map(|i| ((i * 13) % 17) as f32 * 0.27 - 2.1).collect();
        for mr in 1..=MR {
            for w in [1usize, 15, 16, 17, 31, 32] {
                for kk in [1usize, 127, 128, 129] {
                    for (a_panel, first) in [APanel::Rows(&a, k_max), APanel::Cols(&a, MR)]
                        .into_iter()
                        .flat_map(|p| [(p, false), (p, true)])
                    {
                        let c0: Vec<f32> =
                            (0..mr * n).map(|i| (i % 7) as f32 * 0.5 - 1.0).collect();
                        let (mut portable, mut wide) = (c0.clone(), c0);
                        let (p, wd) = (&mut portable, &mut wide);
                        micro_block::<false>(kk, a_panel, &bp, NR, 0, p, n, mr, 3, w, first);
                        micro_block::<true>(kk, a_panel, &bp, NR, 0, wd, n, mr, 3, w, first);
                        let bits = |c: &[f32]| c.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                        let what = format!("mr {mr}, w {w}, kk {kk}, first {first}");
                        assert_eq!(bits(&portable), bits(&wide), "{what}");
                    }
                }
            }
        }
    }

    #[test]
    fn identity_is_neutral() {
        let a = Matrix::from_fn(3, 3, |r, c| (r + c) as f32);
        let id = Matrix::from_fn(3, 3, |r, c| if r == c { 1.0 } else { 0.0 });
        assert!(approx_eq(&matmul(&a, &id), &a, 1e-6));
        assert!(approx_eq(&matmul(&id, &a), &a, 1e-6));
    }

    #[test]
    fn relu_round_trip() {
        let mut a = Matrix::from_vec(1, 4, vec![-1.0, 2.0, 0.0, -3.0]);
        let pre = relu_forward(&mut a);
        assert_eq!(a.as_slice(), &[0.0, 2.0, 0.0, 0.0]);
        let mut g = Matrix::from_vec(1, 4, vec![1.0; 4]);
        relu_backward(&mut g, &pre);
        assert_eq!(g.as_slice(), &[0.0, 1.0, 0.0, 0.0]);
    }

    #[test]
    fn bias_and_column_sums() {
        let mut a = Matrix::zeros(3, 2);
        add_bias(&mut a, &[1.0, -1.0]);
        assert_eq!(column_sums(&a), vec![3.0, -3.0]);
    }

    #[test]
    fn column_sums_handles_empty_and_wide() {
        assert_eq!(column_sums(&Matrix::zeros(0, 0)), Vec::<f32>::new());
        // Wider than one COL_CHUNK so the concat fold actually runs.
        let a = Matrix::from_fn(3, 300, |r, c| (r * 300 + c) as f32 * 0.5);
        let serial: Vec<f32> =
            (0..300).map(|c| (0..3).map(|r| (r * 300 + c) as f32 * 0.5).sum()).collect();
        assert_eq!(column_sums(&a), serial);
    }

    #[test]
    fn axpy_and_scale() {
        let mut a = Matrix::from_vec(1, 2, vec![1.0, 2.0]);
        let b = Matrix::from_vec(1, 2, vec![10.0, 20.0]);
        add_scaled(&mut a, &b, 0.5);
        assert_eq!(a.as_slice(), &[6.0, 12.0]);
        scale(&mut a, 2.0);
        assert_eq!(a.as_slice(), &[12.0, 24.0]);
        add_assign(&mut a, &b);
        assert_eq!(a.as_slice(), &[22.0, 44.0]);
    }

    #[test]
    fn scatter_add_reverses_gather() {
        let src = Matrix::from_vec(2, 2, vec![1.0, 1.0, 2.0, 2.0]);
        let mut out = Matrix::zeros(3, 2);
        scatter_add_rows(&mut out, &src, &[2, 2]);
        assert_eq!(out.row(2), &[3.0, 3.0]);
        assert_eq!(out.row(0), &[0.0, 0.0]);
    }
}
