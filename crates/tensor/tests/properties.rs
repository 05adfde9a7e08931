//! Property-based tests of the dense kernels: algebraic identities that
//! must hold for arbitrary matrices.

use gnn_dm_tensor::{ops, Matrix};
use proptest::prelude::*;

fn arb_matrix(max_r: usize, max_c: usize) -> impl Strategy<Value = Matrix> {
    (1..max_r, 1..max_c).prop_flat_map(|(r, c)| {
        proptest::collection::vec(-3.0f32..3.0, r * c)
            .prop_map(move |data| Matrix::from_vec(r, c, data))
    })
}

/// Frobenius norm.
fn frobenius_norm(a: &Matrix) -> f32 {
    a.as_slice().iter().map(|&x| x * x).sum::<f32>().sqrt()
}

fn approx_eq(a: &Matrix, b: &Matrix, tol: f32) -> bool {
    a.shape() == b.shape()
        && a.as_slice().iter().zip(b.as_slice()).all(|(x, y)| (x - y).abs() <= tol)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// (Aᵀ)ᵀ = A; gathering all rows is the identity.
    #[test]
    fn transpose_involution(a in arb_matrix(12, 12)) {
        prop_assert_eq!(a.transpose().transpose(), a.clone());
        let ids: Vec<u32> = (0..a.rows() as u32).collect();
        prop_assert_eq!(a.gather_rows(&ids), a);
    }

    /// matmul_tn and matmul_nt agree with explicit transposition.
    #[test]
    fn product_orientations_agree(
        a in arb_matrix(10, 8),
        b_data in proptest::collection::vec(-3.0f32..3.0, 80),
    ) {
        let b = Matrix::from_vec(a.rows(), b_data.len() / a.rows(), {
            let cols = b_data.len() / a.rows();
            b_data[..a.rows() * cols].to_vec()
        });
        prop_assume!(b.cols() > 0);
        let tn = ops::matmul_tn(&a, &b);
        let explicit = ops::matmul(&a.transpose(), &b);
        prop_assert!(approx_eq(&tn, &explicit, 1e-4));
    }

    /// Distributivity: (A + A) · B = 2 (A · B).
    #[test]
    fn matmul_distributes(
        a in arb_matrix(8, 6),
        bc in 1usize..6,
    ) {
        let b = Matrix::from_fn(a.cols(), bc, |r, c| ((r * 3 + c) as f32 * 0.37).sin());
        let mut a2 = a.clone();
        ops::add_assign(&mut a2, &a);
        let lhs = ops::matmul(&a2, &b);
        let mut rhs = ops::matmul(&a, &b);
        ops::scale(&mut rhs, 2.0);
        prop_assert!(approx_eq(&lhs, &rhs, 1e-3));
    }

    /// ReLU forward+backward zero exactly the same coordinates.
    #[test]
    fn relu_masks_consistently(a in arb_matrix(10, 10)) {
        let mut x = a.clone();
        let pre = ops::relu_forward(&mut x);
        let mut g = Matrix::from_fn(a.rows(), a.cols(), |_, _| 1.0);
        ops::relu_backward(&mut g, &pre);
        for i in 0..a.as_slice().len() {
            let zeroed_fwd = x.as_slice()[i] == 0.0 && a.as_slice()[i] < 0.0;
            let zeroed_bwd = g.as_slice()[i] == 0.0;
            if a.as_slice()[i] != 0.0 {
                prop_assert_eq!(zeroed_fwd, zeroed_bwd);
            }
        }
    }

    /// Column sums equal matmul with a ones row-vector.
    #[test]
    fn column_sums_identity(a in arb_matrix(10, 8)) {
        let ones = Matrix::from_fn(1, a.rows(), |_, _| 1.0);
        let product = ops::matmul(&ones, &a);
        let sums = ops::column_sums(&a);
        for (x, y) in product.as_slice().iter().zip(&sums) {
            prop_assert!((x - y).abs() < 1e-4);
        }
    }

    /// scatter_add after gather restores row sums for unique destinations.
    #[test]
    fn scatter_gather_round_trip(a in arb_matrix(10, 6)) {
        let ids: Vec<u32> = (0..a.rows() as u32).rev().collect();
        let gathered = a.gather_rows(&ids);
        let mut restored = Matrix::zeros(a.rows(), a.cols());
        ops::scatter_add_rows(&mut restored, &gathered, &ids);
        prop_assert!(approx_eq(&restored, &a, 1e-6));
    }

    /// Tiled GEMM agrees with the naive kernel to rounding error.
    #[test]
    fn tiled_matmul_matches_naive(a in arb_matrix(14, 14), bc in 1usize..10) {
        let b = Matrix::from_fn(a.cols(), bc, |r, c| ((r * 7 + c * 3) as f32 * 0.13).cos());
        let naive = ops::matmul(&a, &b);
        let tiled = ops::matmul_tiled(&a, &b);
        prop_assert!(approx_eq(&naive, &tiled, 1e-3));
    }

    /// Frobenius norm scales linearly with scalar multiplication.
    #[test]
    fn norm_homogeneity(a in arb_matrix(8, 8), s in 0.0f32..4.0) {
        let n0 = frobenius_norm(&a);
        let mut b = a.clone();
        ops::scale(&mut b, s);
        prop_assert!((frobenius_norm(&b) - s * n0).abs() < 1e-2_f32.max(n0 * 1e-4));
    }
}
