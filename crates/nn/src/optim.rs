//! Optimizers operating on flat parameter views.
//!
//! Parameters and gradients are passed as parallel lists of slices in the
//! order produced by `GnnModel::param_views_mut` / `Gradients::flat_views`,
//! so the optimizer stays independent of model structure.
//!
//! Updates are element-wise with no cross-element dependency, so both
//! optimizers run through the `gnn-dm-par` substrate over fixed
//! `OPT_CHUNK`-sized chunks: identical bits at any thread count.

/// Elements per parallel optimizer chunk. Fixed — never derived from the
/// thread count — so chunk boundaries (and therefore bits) are invariant.
const OPT_CHUNK: usize = 1 << 12;

/// An optimizer updates parameters in place from gradients.
pub trait Optimizer {
    /// Applies one update step. `params[i]` and `grads[i]` must have equal
    /// lengths, consistent across calls.
    fn step(&mut self, params: Vec<&mut [f32]>, grads: Vec<&[f32]>);
}

/// Plain stochastic gradient descent with optional L2 weight decay.
#[derive(Debug, Clone)]
pub struct Sgd {
    /// Learning rate.
    pub lr: f32,
    /// L2 weight-decay coefficient (0 disables).
    pub weight_decay: f32,
}

impl Sgd {
    /// SGD with the given learning rate and no weight decay.
    pub fn new(lr: f32) -> Self {
        Sgd { lr, weight_decay: 0.0 }
    }
}

impl Optimizer for Sgd {
    fn step(&mut self, params: Vec<&mut [f32]>, grads: Vec<&[f32]>) {
        assert_eq!(params.len(), grads.len(), "parameter/gradient list mismatch");
        let (lr, wd) = (self.lr, self.weight_decay);
        for (p, g) in params.into_iter().zip(grads) {
            assert_eq!(p.len(), g.len(), "parameter/gradient length mismatch");
            gnn_dm_par::par_chunks_mut(p, OPT_CHUNK, |ci, chunk| {
                let (off, len) = (ci * OPT_CHUNK, chunk.len());
                for (x, &d) in chunk.iter_mut().zip(&g[off..off + len]) {
                    *x -= lr * (d + wd * *x);
                }
            });
        }
    }
}

/// Adam (Kingma & Ba) with bias correction.
#[derive(Debug, Clone)]
pub struct Adam {
    /// Learning rate.
    pub lr: f32,
    /// First-moment decay.
    pub beta1: f32,
    /// Second-moment decay.
    pub beta2: f32,
    /// Numerical-stability epsilon.
    pub eps: f32,
    t: u32,
    /// Interleaved moments: `state[k][i]` is `[m, v]` for element `i` of
    /// parameter tensor `k` (one cache line serves both moments).
    state: Vec<Vec<[f32; 2]>>,
}

impl Adam {
    /// Adam with standard betas (0.9, 0.999).
    pub fn new(lr: f32) -> Self {
        Adam { lr, beta1: 0.9, beta2: 0.999, eps: 1e-8, t: 0, state: Vec::new() }
    }
}

impl Optimizer for Adam {
    fn step(&mut self, params: Vec<&mut [f32]>, grads: Vec<&[f32]>) {
        assert_eq!(params.len(), grads.len(), "parameter/gradient list mismatch");
        if self.state.is_empty() {
            self.state = params.iter().map(|p| vec![[0.0f32; 2]; p.len()]).collect();
        }
        assert_eq!(self.state.len(), params.len(), "parameter list changed between steps");
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        let (lr, b1, b2, eps) = (self.lr, self.beta1, self.beta2, self.eps);
        for ((p, g), mv) in params.into_iter().zip(grads).zip(self.state.iter_mut()) {
            assert_eq!(p.len(), g.len(), "parameter/gradient length mismatch");
            gnn_dm_par::par_zip_chunks_mut(p, mv.as_mut_slice(), OPT_CHUNK, |ci, pc, mvc| {
                let (off, len) = (ci * OPT_CHUNK, pc.len());
                let gc = &g[off..off + len];
                for i in 0..len {
                    let s = &mut mvc[i];
                    s[0] = b1 * s[0] + (1.0 - b1) * gc[i];
                    s[1] = b2 * s[1] + (1.0 - b2) * gc[i] * gc[i];
                    let m_hat = s[0] / bc1;
                    let v_hat = s[1] / bc2;
                    pc[i] -= lr * m_hat / (v_hat.sqrt() + eps);
                }
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimizes f(x) = (x - 3)^2 with each optimizer.
    fn optimize(opt: &mut dyn Optimizer, iters: usize) -> f32 {
        let mut x = vec![0.0f32];
        for _ in 0..iters {
            let g = vec![2.0 * (x[0] - 3.0)];
            opt.step(vec![&mut x], vec![&g]);
        }
        x[0]
    }

    #[test]
    fn sgd_converges_on_quadratic() {
        let mut sgd = Sgd::new(0.1);
        let x = optimize(&mut sgd, 100);
        assert!((x - 3.0).abs() < 1e-3, "x = {x}");
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let mut adam = Adam::new(0.1);
        let x = optimize(&mut adam, 500);
        assert!((x - 3.0).abs() < 1e-2, "x = {x}");
    }

    #[test]
    fn sgd_weight_decay_shrinks_params() {
        let mut sgd = Sgd { lr: 0.1, weight_decay: 0.5 };
        let mut x = vec![1.0f32];
        sgd.step(vec![&mut x], vec![&[0.0f32][..]]);
        assert!((x[0] - 0.95).abs() < 1e-6);
    }

    #[test]
    fn adam_moves_symmetric_gradients_symmetrically() {
        let mut adam = Adam::new(0.01);
        let mut x = vec![0.0f32; 2];
        adam.step(vec![&mut x], vec![&[1.0, -1.0][..]]);
        adam.step(vec![&mut x], vec![&[1.0, -1.0][..]]);
        // Symmetric gradients move symmetrically.
        assert!((x[0] + x[1]).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn shape_mismatch_panics() {
        let mut sgd = Sgd::new(0.1);
        let mut x = vec![0.0f32; 2];
        sgd.step(vec![&mut x], vec![&[1.0f32][..]]);
    }
}
