//! Dense f32 matrix kernels for the `gnn-dm` neural-network substrate.
//!
//! The paper trains with PyTorch; this reproduction substitutes a small,
//! dependency-free dense kernel library sufficient for GCN/GraphSAGE
//! forward/backward passes: matrix products in the three orientations
//! backprop needs, elementwise ops, row gathering, and deterministic
//! initializers.

#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::todo, clippy::unimplemented, clippy::print_stdout, clippy::print_stderr)]

pub mod init;
pub mod matrix;
pub mod ops;

pub use matrix::Matrix;
