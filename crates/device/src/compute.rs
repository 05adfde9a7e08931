//! Compute cost models: GPU NN kernels and CPU sampling.
//!
//! The paper's timing figures combine measured stage durations; this
//! reproduction derives stage durations from operation counts — FLOPs for
//! the NN, edge/vertex touches for sampling — through calibrated
//! throughput models. Absolute times differ from the paper's testbed;
//! ratios between configurations are what the figures compare.

use gnn_dm_sampling::MiniBatch;

/// Sustained GPU floating-point throughput, FLOP/s, of an NVIDIA T4: 8.1
/// TFLOPS peak fp32, but GNN workloads mix irregular gather/scatter
/// aggregation with skinny GEMMs and sustain only a few percent of peak
/// (calibrated against Figure 14's stage proportions, where NN compute
/// exceeds batch preparation but stays well below data transfer).
pub const GPU_FLOPS: f64 = 1.2e12;

/// Fixed per-kernel (or per-batch) GPU launch overhead, seconds.
pub const GPU_LAUNCH_OVERHEAD_S: f64 = 30.0e-6;

/// Seconds the T4 takes to execute `flops` floating-point operations.
pub fn gpu_seconds(flops: f64) -> f64 {
    assert!(flops >= 0.0, "negative flops");
    GPU_LAUNCH_OVERHEAD_S + flops / GPU_FLOPS
}

/// FLOPs of a dense `m x k · k x n` product.
pub fn gemm_flops(m: usize, k: usize, n: usize) -> f64 {
    2.0 * m as f64 * k as f64 * n as f64
}

/// Forward+backward FLOPs of aggregating over `edges` edges at feature
/// width plus hidden width: `edges · 2 · (feat_dim + hidden) · 2`. The
/// edge-count model of NN compute the cluster time model and the
/// convergence runners price epochs with.
pub fn aggregation_flops(edges: u64, feat_dim: usize, hidden: usize) -> f64 {
    edges as f64 * 2.0 * (feat_dim + hidden) as f64 * 2.0
}

/// FLOPs of one forward+backward pass over a sampled mini-batch for a model
/// with layer widths `dims` (`dims[0]` = feature width). Aggregation costs
/// `2 · edges · width` per layer; the dense part costs a GEMM per layer;
/// backward roughly doubles everything.
pub fn minibatch_flops(mb: &MiniBatch, dims: &[usize]) -> f64 {
    assert_eq!(mb.num_layers(), dims.len() - 1, "layer count mismatch");
    let mut total = 0.0;
    for (l, block) in mb.blocks.iter().enumerate() {
        let width_in = dims[l];
        total += 2.0 * block.num_edges() as f64 * width_in as f64; // aggregation
        total += gemm_flops(block.num_dst(), width_in, dims[l + 1]); // dense
    }
    2.0 * total // backward ≈ forward
}

/// Per-sampled-edge CPU cost of neighbor sampling (random access into CSR,
/// hash dedup) in seconds. Calibrated (together with the transfer engine's
/// gather/zero-copy parameters) against Figure 2's proportions: the
/// 40-vCPU sampler keeps batch preparation well below the transfer stage.
pub const SAMPLE_SECONDS_PER_EDGE: f64 = 15.0e-9;

/// Per-vertex CPU cost of batch bookkeeping (dedup, relabeling).
pub const SAMPLE_SECONDS_PER_VERTEX: f64 = 20.0e-9;

/// Seconds of CPU time to prepare a sampled mini-batch (the "batch
/// preparation" stage of the pipeline).
pub fn sampling_seconds(mb: &MiniBatch) -> f64 {
    mb.involved_edges() as f64 * SAMPLE_SECONDS_PER_EDGE
        + mb.involved_vertices() as f64 * SAMPLE_SECONDS_PER_VERTEX
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnn_dm_sampling::Block;

    fn tiny_mb() -> MiniBatch {
        tiny_mb_with(&[(2, 0), (3, 1), (2, 1)])
    }

    fn tiny_mb_with(input_edges: &[(u32, u32)]) -> MiniBatch {
        let b0 = Block::from_edges(4, 2, input_edges);
        let b1 = Block::from_edges(2, 1, &[(1, 0)]);
        MiniBatch::new(vec![0, 1, 2, 3], vec![b0, b1])
    }

    #[test]
    fn gemm_flops_formula() {
        assert_eq!(gemm_flops(2, 3, 4), 48.0);
    }

    #[test]
    fn minibatch_flops_counts_layers() {
        let mb = tiny_mb();
        let dims = [8, 4, 2];
        // layer 0: agg 2*3*8 = 48, gemm 2*2*8*4 = 128
        // layer 1: agg 2*1*4 = 8, gemm 2*1*4*2 = 16
        // total fwd = 200, fwd+bwd = 400
        assert_eq!(minibatch_flops(&mb, &dims), 400.0);
    }

    #[test]
    fn aggregation_flops_formula() {
        // 10 edges · 2 · (8 + 4) · 2
        assert_eq!(aggregation_flops(10, 8, 4), 480.0);
    }

    #[test]
    fn sampling_seconds_positive_and_monotone() {
        let mb = tiny_mb();
        let t = sampling_seconds(&mb);
        assert!(t > 0.0);
        let bigger = tiny_mb_with(&[(2, 0), (3, 1), (2, 1), (1, 0)]);
        assert!(sampling_seconds(&bigger) > t);
    }
}
