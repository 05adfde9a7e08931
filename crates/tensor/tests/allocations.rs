//! What one matrix product allocates, counted by a global allocator.
//!
//! Only the thread that opts in is counted, and every product runs under
//! `with_threads(1, ..)`, so each row panel runs inline on the counting
//! thread and the tally is the same on every run. A warm product makes
//! exactly the allocations its doc names, whatever the number of row
//! panels, k-tiles and column strips: the zero-padded copy of `B`'s ragged
//! last strip when `n % 32 != 0`, and `matmul_nt`'s packed panels. Nothing
//! is allocated per tile.

use gnn_dm_tensor::{ops, Matrix};

#[path = "../../../tests/common/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::counted;

/// Register-tile width and k-tile depth of the GEMM (`ops.rs`'s `NR` and
/// `TILE_K`).
const NR: usize = 32;
const TILE_K: usize = 128;

/// `(allocs, reallocs, bytes)` of one allocation of `floats` `f32`s, or of
/// none for zero floats.
fn buffer(floats: usize) -> (usize, usize, usize) {
    (usize::from(floats > 0), 0, floats * size_of::<f32>())
}

fn matrix(rows: usize, cols: usize, salt: usize) -> Matrix {
    Matrix::from_fn(rows, cols, |r, c| ((r * 31 + c * 7 + salt) % 17) as f32 * 0.25 - 2.0)
}

/// `m`: three 96-row panels and a remainder; `k`: three k-tiles and a
/// remainder; `n`: a 32-aligned width and a ragged one.
const M: usize = 300;
const K: usize = 400;
const WIDTHS: [usize; 2] = [96, 80];

/// Warms `product` once, then counts a second run into the same output:
/// `(allocs, reallocs, bytes)`.
fn warm_tally(product: impl Fn(&mut Matrix), out_shape: (usize, usize)) -> (usize, usize, usize) {
    let mut out = Matrix::zeros(out_shape.0, out_shape.1);
    gnn_dm_par::with_threads(1, || product(&mut out));
    let ((), t) = gnn_dm_par::with_threads(1, || counted(|| product(&mut out)));
    (t.allocs, t.reallocs, t.bytes)
}

/// The copy of `B`'s ragged last strip: `k` rows of `NR` floats.
fn ragged_tail(k: usize, n: usize) -> (usize, usize, usize) {
    buffer(if n % NR == 0 { 0 } else { k * NR })
}

#[test]
fn matmul_into_allocates_only_the_ragged_tail() {
    for n in WIDTHS {
        let (a, b) = (matrix(M, K, 1), matrix(K, n, 2));
        let tally = warm_tally(|out| ops::matmul_into(&a, &b, out), (M, n));
        assert_eq!(tally, ragged_tail(K, n), "{M}x{K} · {K}x{n}");
    }
}

#[test]
fn matmul_tn_into_allocates_only_the_ragged_tail() {
    for n in WIDTHS {
        let (a, b) = (matrix(K, M, 3), matrix(K, n, 4));
        let tally = warm_tally(|out| ops::matmul_tn_into(&a, &b, out), (M, n));
        assert_eq!(tally, ragged_tail(K, n), "{K}x{M}ᵀ · {K}x{n}");
    }
}

#[test]
fn matmul_nt_into_allocates_only_its_packed_panels() {
    for n in WIDTHS {
        let (a, b) = (matrix(M, K, 5), matrix(n, K, 6));
        let tally = warm_tally(|out| ops::matmul_nt_into(&a, &b, out), (M, n));
        let panels = K.div_ceil(TILE_K) * n.div_ceil(NR) * TILE_K * NR;
        assert_eq!(tally, buffer(panels), "{M}x{K} · {n}x{K}ᵀ");
    }
}
