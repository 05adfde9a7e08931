//! A dependency-free DNN (MLP) baseline, unused.
//!
//! The paper contrasts GNN training with a plain 2-layer MLP trained on the
//! same vertex features: because DNN samples are independent, batch
//! preparation is a shuffle, data transfer moves exactly `batch_size` rows,
//! and NN computation dominates. Figure 2's comparison
//! (`breakdown::dnn_breakdown`) prices that MLP analytically and never
//! builds one, so nothing calls this module. It stays only because it holds
//! this crate's one use of `gnn-dm-tensor`: deleting it means dropping that
//! dependency from the manifest, which changes the frozen benchmark's lock
//! file, so it goes in the next change that re-baselines the benchmark.

use gnn_dm_nn::loss::softmax_cross_entropy;
use gnn_dm_nn::optim::Optimizer;
use gnn_dm_tensor::{init, ops, Matrix};

/// A plain multi-layer perceptron (ReLU between layers, logits at the end).
#[derive(Debug, Clone)]
pub struct Mlp {
    /// Weight matrices, input-most first.
    pub weights: Vec<Matrix>,
    /// Biases, input-most first.
    pub biases: Vec<Vec<f32>>,
}

impl Mlp {
    /// Builds an MLP with layer widths `dims = [in, hidden…, classes]`.
    pub fn new(dims: &[usize], seed: u64) -> Self {
        assert!(dims.len() >= 2, "need at least input and output widths");
        let weights = (0..dims.len() - 1)
            .map(|l| init::glorot_uniform(dims[l], dims[l + 1], seed.wrapping_add(l as u64)))
            .collect();
        let biases = (0..dims.len() - 1).map(|l| vec![0.0; dims[l + 1]]).collect();
        Mlp { weights, biases }
    }

    /// Number of layers.
    pub fn num_layers(&self) -> usize {
        self.weights.len()
    }

    /// Total parameter count.
    pub fn num_params(&self) -> usize {
        self.weights.iter().map(|w| w.rows() * w.cols()).sum::<usize>()
            + self.biases.iter().map(Vec::len).sum::<usize>()
    }

    /// Forward pass; returns logits and the per-layer caches backward needs.
    pub fn forward(&self, x: &Matrix) -> (Matrix, Vec<Matrix>, Vec<Matrix>) {
        let last = self.num_layers() - 1;
        let mut h = x.clone();
        let mut inputs = Vec::with_capacity(self.num_layers());
        let mut pres = Vec::with_capacity(last);
        for l in 0..self.num_layers() {
            inputs.push(h.clone());
            let mut z = ops::matmul(&h, &self.weights[l]);
            ops::add_bias(&mut z, &self.biases[l]);
            if l < last {
                pres.push(ops::relu_forward(&mut z));
            }
            h = z;
        }
        (h, inputs, pres)
    }

    /// One training step (forward, loss, backward, optimizer update).
    /// Returns the batch loss.
    pub fn train_step(&mut self, opt: &mut dyn Optimizer, x: &Matrix, labels: &[u32]) -> f32 {
        let (logits, inputs, pres) = self.forward(x);
        let (loss, mut d) = softmax_cross_entropy(&logits, labels);
        let last = self.num_layers() - 1;
        let mut grads_w: Vec<Matrix> = Vec::with_capacity(self.num_layers());
        let mut grads_b: Vec<Vec<f32>> = Vec::with_capacity(self.num_layers());
        for _ in 0..self.num_layers() {
            grads_w.push(Matrix::zeros(0, 0));
            grads_b.push(Vec::new());
        }
        for l in (0..self.num_layers()).rev() {
            if l < last {
                ops::relu_backward(&mut d, &pres[l]);
            }
            grads_w[l] = ops::matmul_tn(&inputs[l], &d);
            grads_b[l] = ops::column_sums(&d);
            if l > 0 {
                d = ops::matmul_nt(&d, &self.weights[l]);
            }
        }
        let mut params: Vec<&mut [f32]> = Vec::new();
        for (w, b) in self.weights.iter_mut().zip(&mut self.biases) {
            params.push(w.as_mut_slice());
            params.push(b.as_mut_slice());
        }
        let mut grads: Vec<&[f32]> = Vec::new();
        for (gw, gb) in grads_w.iter().zip(&grads_b) {
            grads.push(gw.as_slice());
            grads.push(gb.as_slice());
        }
        opt.step(params, grads);
        loss
    }

    /// Prediction accuracy on `(x, labels)`.
    pub fn accuracy(&self, x: &Matrix, labels: &[u32]) -> f64 {
        let (logits, _, _) = self.forward(x);
        let pred = logits.argmax_rows();
        let correct = pred.iter().zip(labels).filter(|(p, l)| **p == **l as usize).count();
        correct as f64 / labels.len().max(1) as f64
    }
}

#[cfg(test)]
#[expect(clippy::disallowed_methods, reason = "unit tests seed their fixtures directly")]
mod tests {
    use super::*;
    use gnn_dm_nn::Adam;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Two Gaussian blobs → a linear-ish problem an MLP must solve.
    fn blobs(n: usize, seed: u64) -> (Matrix, Vec<u32>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut x = Matrix::zeros(n, 4);
        let mut y = Vec::with_capacity(n);
        for r in 0..n {
            let label = (rng.random::<f64>() < 0.5) as u32;
            let center = if label == 0 { -1.0 } else { 1.0 };
            for c in 0..4 {
                x.set(r, c, center + 0.4 * (rng.random::<f64>() - 0.5) as f32 * 2.0);
            }
            y.push(label);
        }
        (x, y)
    }

    #[test]
    fn mlp_learns_blobs() {
        let (x, y) = blobs(400, 1);
        let mut mlp = Mlp::new(&[4, 16, 2], 3);
        let mut opt = Adam::new(0.01);
        let first = mlp.train_step(&mut opt, &x, &y);
        let mut last = first;
        for _ in 0..60 {
            last = mlp.train_step(&mut opt, &x, &y);
        }
        assert!(last < first * 0.2, "loss {first} -> {last}");
        assert!(mlp.accuracy(&x, &y) > 0.95);
    }

    #[test]
    fn param_count() {
        let mlp = Mlp::new(&[4, 8, 2], 0);
        assert_eq!(mlp.num_params(), 4 * 8 + 8 + 8 * 2 + 2);
    }

    #[test]
    fn forward_shapes() {
        let mlp = Mlp::new(&[4, 8, 3], 0);
        let x = Matrix::zeros(5, 4);
        let (logits, inputs, pres) = mlp.forward(&x);
        assert_eq!(logits.shape(), (5, 3));
        assert_eq!(inputs.len(), 2);
        assert_eq!(pres.len(), 1);
    }
}
