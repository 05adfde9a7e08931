//! Recycled storage for the training step.
//!
//! One step of mini-batch training builds the same matrices every time —
//! per layer an aggregation output and a layer output kept for backward,
//! the logits, the loss gradient, per layer a weight gradient, the two
//! adjoint products and the source-major regrouping of the block — with
//! shapes that differ from batch to batch by a few rows. A [`Workspace`]
//! lets the step take that storage back instead of allocating it: every
//! matrix it hands out is written in full by the kernel that receives it
//! (the `*_into` kernels of `gnn_dm_tensor::ops` and [`crate::agg`]
//! never read their output before writing it), so what a buffer held
//! before is unobservable and the step's bits do not depend on it.
//!
//! `train_epoch` creates one per epoch; it is sized on first use and
//! holds one buffer per matrix a step has alive at once. The public
//! one-shot entry points (`train_step`, `forward_minibatch`, …) run on a
//! fresh one, which still recycles between the layers of the call.

use crate::agg::SourceMajor;
use gnn_dm_tensor::Matrix;

/// A free list of `f32` buffers plus the aggregation adjoints' scratch.
#[derive(Default)]
pub(crate) struct Workspace {
    free: Vec<Vec<f32>>,
    /// The block regrouping the adjoints walk, rebuilt in place per layer.
    pub(crate) by_source: SourceMajor,
}

impl Workspace {
    /// A `rows × cols` matrix on recycled storage, holding unspecified
    /// values. The best fit is used — the smallest buffer that holds it —
    /// so a small matrix never takes the buffer a large one will want, and
    /// a matrix whose shape moved by a few rows since the last step gets
    /// its own buffer back: the resize below only truncates, or
    /// zero-extends by that difference. A matrix larger than every free
    /// buffer frees them all first, so they coalesce and the step that
    /// outgrew the workspace lays its matrices out afresh, as a step
    /// without one would; the list never holds more buffers than a step
    /// has matrices alive.
    pub(crate) fn take(&mut self, rows: usize, cols: usize) -> Matrix {
        let len = rows * cols;
        let cap = |i: &usize| self.free[*i].capacity();
        let fit = (0..self.free.len()).filter(|i| cap(i) >= len).min_by_key(cap);
        let data = match fit {
            Some(i) => {
                let mut data = self.free.swap_remove(i);
                data.resize(len, 0.0);
                data
            }
            None => {
                self.release();
                vec![0.0; len]
            }
        };
        Matrix::from_vec(rows, cols, data)
    }

    /// Returns `m`'s storage for a later [`Self::take`]. In this crate's
    /// unit tests the buffer is first filled to capacity with NaN, so a
    /// kernel that read a recycled buffer before writing it would show.
    pub(crate) fn give(&mut self, m: Matrix) {
        let data = m.into_vec();
        #[cfg(test)]
        let data = poisoned(data);
        self.free.push(data);
    }

    /// Frees every buffer the workspace holds.
    pub(crate) fn release(&mut self) {
        self.free.clear();
    }

    /// [`Self::give`] for each matrix.
    pub(crate) fn give_all(&mut self, mats: impl IntoIterator<Item = Matrix>) {
        for m in mats {
            self.give(m);
        }
    }
}

/// `data` filled to its capacity with NaN.
#[cfg(test)]
fn poisoned(mut data: Vec<f32>) -> Vec<f32> {
    data.fill(f32::NAN);
    data.resize(data.capacity(), f32::NAN);
    data
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_is_a_best_fit_and_an_outgrown_list_is_freed() {
        let mut ws = Workspace::default();
        let (big, small) = (ws.take(100, 10), ws.take(10, 10));
        let (big_ptr, small_ptr) = (big.as_slice().as_ptr(), small.as_slice().as_ptr());
        ws.give_all([big, small]);
        // The small matrix, taken first, must not take the big buffer.
        let again_small = ws.take(9, 10);
        let again_big = ws.take(98, 10);
        assert_eq!(again_small.as_slice().as_ptr(), small_ptr);
        assert_eq!(again_big.as_slice().as_ptr(), big_ptr);
        ws.give_all([again_small, again_big]);
        // Outgrowing every free buffer frees them instead of adding one.
        let huge = ws.take(1000, 10);
        assert_eq!(huge.shape(), (1000, 10));
        assert!(ws.free.is_empty());
    }
}
