//! Neighborhood aggregation kernels.
//!
//! Two aggregation families, matching the paper's two models:
//!
//! * **GCN** — mean over the closed neighborhood (self plus sampled
//!   in-neighbors), the renormalized-adjacency form used when GCN is trained
//!   on sampled blocks;
//! * **GraphSAGE (mean)** — mean over sampled in-neighbors, concatenated
//!   with the vertex's own embedding (width doubles).
//!
//! Each kernel exists in a *block* form (mini-batch training over
//! [`Block`]s) and a *full* form (whole-graph inference over a [`Csr`]),
//! plus the exact adjoint for backprop. The block kernels are linear in the
//! number of block edges — the quantity §5.3.1 counts as "aggregation
//! computational load".
//!
//! Both forms are one loop per family, over an `Adjacency` (who feeds
//! output row `i`) and a *row source* (`row(s)` is input row `s`): copy the
//! self row, add the neighbors in adjacency order, scale, and the output
//! row is written once. The row source is what lets the first layer read
//! the feature table in place (`|s| features.row(ids[s])`) instead of a
//! gathered copy; a `&Matrix` input is the `|s| h.row(s)` instance of the
//! same loop. Output rows are independent, so the loops run in parallel
//! over fixed `ROW_CHUNK`-row chunks; every output element accumulates
//! the same terms in the same order as the serial per-edge loop, so the
//! result is bitwise-identical at any thread count.
//!
//! The loops write into a caller's matrix and never read what it held: a
//! row that accumulates (the GraphSAGE neighbor half, every adjoint row)
//! adds its first term onto +0.0 instead of onto a zero-filled row
//! (`RowSum`) — the same additions, without the zero pass — so the
//! output may be a recycled buffer (the training step's workspace). The
//! public kernels below are the allocating instances; the adjoints'
//! source-major regrouping of a block (`SourceMajor`) is likewise
//! rebuilt in place.

use gnn_dm_graph::csr::{Csr, VId};
use gnn_dm_par::par_chunks_mut;
use gnn_dm_sampling::Block;
use gnn_dm_tensor::Matrix;

/// Output rows per parallel work item. Fixed — never derived from the
/// thread count — so chunk boundaries are identical at any parallelism.
const ROW_CHUNK: usize = 64;

/// Row-major adjacency the aggregation loops walk: output row `i` combines
/// the input rows `neighbors_of(i)`, in that order.
pub(crate) trait Adjacency: Sync {
    /// Number of output rows.
    fn num_rows(&self) -> usize;
    /// Input rows feeding output row `i`.
    fn neighbors_of(&self, i: usize) -> &[u32];
}

impl Adjacency for Block {
    fn num_rows(&self) -> usize {
        self.num_dst()
    }
    fn neighbors_of(&self, d: usize) -> &[u32] {
        self.sources_of(d)
    }
}

impl Adjacency for Csr {
    fn num_rows(&self) -> usize {
        self.num_vertices()
    }
    fn neighbors_of(&self, v: usize) -> &[u32] {
        self.neighbors(v as VId)
    }
}

/// A block's edges regrouped by source — the adjacency its adjoints walk.
/// Built with a stable counting sort over the destination-major edge list,
/// so each source meets its destinations in edge order. Rebuilt in place
/// for each block, so a warm one allocates nothing.
#[derive(Default)]
pub(crate) struct SourceMajor {
    offsets: Vec<u32>,
    dsts: Vec<u32>,
    /// Per-source fill cursor of the sort.
    next: Vec<u32>,
}

impl SourceMajor {
    fn rebuild(&mut self, block: &Block) {
        let SourceMajor { offsets, dsts, next } = self;
        offsets.clear();
        offsets.resize(block.num_src() + 1, 0);
        for &s in &block.edge_src {
            offsets[s as usize + 1] += 1;
        }
        for s in 0..block.num_src() {
            offsets[s + 1] += offsets[s];
        }
        next.clear();
        next.extend_from_slice(offsets);
        // Every slot is written below: one per edge.
        dsts.resize(block.num_edges(), 0);
        for d in 0..block.num_dst() {
            for &s in block.sources_of(d) {
                dsts[next[s as usize] as usize] = d as u32;
                next[s as usize] += 1;
            }
        }
    }
}

impl Adjacency for SourceMajor {
    fn num_rows(&self) -> usize {
        self.offsets.len() - 1
    }
    fn neighbors_of(&self, s: usize) -> &[u32] {
        &self.dsts[self.offsets[s] as usize..self.offsets[s + 1] as usize]
    }
}

/// Runs `body(i, out_row)` for every row of `out`, in parallel over
/// [`ROW_CHUNK`]-row chunks. `out_row` holds whatever the buffer held:
/// `body` must write all of it before reading any of it.
fn build_rows(out: &mut Matrix, body: impl Fn(usize, &mut [f32]) + Sync) {
    let width = out.cols();
    par_chunks_mut(out.as_mut_slice(), ROW_CHUNK * width, |ci, chunk| {
        for (j, out_row) in chunk.chunks_mut(width).enumerate() {
            body(ci * ROW_CHUNK + j, out_row);
        }
    });
}

/// `acc += x`.
#[inline]
fn add(acc: &mut [f32], x: &[f32]) {
    debug_assert_eq!(acc.len(), x.len());
    for (o, &v) in acc.iter_mut().zip(x) {
        *o += v;
    }
}

/// An output row that is a sum of terms, written without first zeroing
/// it: the first term is added onto +0.0 (the empty sum; `0.0 + -0.0` is
/// `+0.0`, so it is added, not copied), later terms onto the row, and a row
/// no term reaches is set to +0.0 — whatever the row held is never read.
struct RowSum<'r> {
    row: &'r mut [f32],
    empty: bool,
}

impl<'r> RowSum<'r> {
    fn new(row: &'r mut [f32]) -> Self {
        RowSum { row, empty: true }
    }

    /// `row += a * x`.
    #[inline]
    fn add_scaled(&mut self, a: f32, x: &[f32]) {
        debug_assert_eq!(self.row.len(), x.len());
        if std::mem::take(&mut self.empty) {
            for (o, &v) in self.row.iter_mut().zip(x) {
                *o = 0.0 + a * v;
            }
        } else {
            for (o, &v) in self.row.iter_mut().zip(x) {
                *o += a * v;
            }
        }
    }

    /// `row += x`.
    #[inline]
    fn add(&mut self, x: &[f32]) {
        if std::mem::take(&mut self.empty) {
            for (o, &v) in self.row.iter_mut().zip(x) {
                *o = 0.0 + v;
            }
        } else {
            add(self.row, x);
        }
    }

    /// The finished row.
    fn finish(self) -> &'r mut [f32] {
        if self.empty {
            self.row.fill(0.0);
        }
        self.row
    }
}

/// The GCN forward loop: `out[i] = (row(i) + Σ_{s ∈ adj(i)} row(s)) / (1 + |adj(i)|)`
/// for the adjacency rows `i` in `first..first + out.rows()`.
pub(crate) fn gcn_forward<'a>(
    adj: &impl Adjacency,
    first: usize,
    row: impl Fn(usize) -> &'a [f32] + Sync,
    out: &mut Matrix,
) {
    assert!(first + out.rows() <= adj.num_rows(), "output rows beyond the adjacency");
    build_rows(out, |i, out| {
        let i = first + i;
        out.copy_from_slice(row(i));
        let nbrs = adj.neighbors_of(i);
        for &s in nbrs {
            add(out, row(s as usize));
        }
        let inv = 1.0 / (1.0 + nbrs.len() as f32);
        for o in out {
            *o *= inv;
        }
    })
}

/// The GraphSAGE forward loop: `out[i] = [row(i) ‖ mean_{s ∈ adj(i)} row(s)]`
/// (the neighbor half stays zero where `adj(i)` is empty) for the adjacency
/// rows `i` in `first..first + out.rows()`.
pub(crate) fn sage_forward<'a>(
    adj: &impl Adjacency,
    first: usize,
    row: impl Fn(usize) -> &'a [f32] + Sync,
    out: &mut Matrix,
) {
    assert!(first + out.rows() <= adj.num_rows(), "output rows beyond the adjacency");
    let dim = out.cols() / 2;
    assert_eq!(out.cols(), 2 * dim, "output width must be even");
    build_rows(out, |i, out| {
        let i = first + i;
        let (own, neigh) = out.split_at_mut(dim);
        own.copy_from_slice(row(i));
        let nbrs = adj.neighbors_of(i);
        let mut sum = RowSum::new(neigh);
        for &s in nbrs {
            sum.add(row(s as usize));
        }
        let neigh = sum.finish();
        if !nbrs.is_empty() {
            let inv = 1.0 / nbrs.len() as f32;
            for o in neigh {
                *o *= inv;
            }
        }
    })
}

/// The GCN adjoint loop over the transposed adjacency: input row `s` gets
/// `inv(s) · d_out[s]` for its own slot (the first `num_self` rows have
/// one) and `inv(d) · d_out[d]` from every output row `d` it fed.
fn gcn_backward(
    adj_t: &impl Adjacency,
    num_self: usize,
    inv: impl Fn(usize) -> f32 + Sync,
    d_out: &Matrix,
    d_in: &mut Matrix,
) {
    assert_eq!(d_in.shape(), (adj_t.num_rows(), d_out.cols()), "one gradient row per input row");
    build_rows(d_in, |s, d_in| {
        let mut sum = RowSum::new(d_in);
        if s < num_self {
            sum.add_scaled(inv(s), d_out.row(s));
        }
        for &d in adj_t.neighbors_of(s) {
            sum.add_scaled(inv(d as usize), d_out.row(d as usize));
        }
        sum.finish();
    })
}

/// The GraphSAGE adjoint loop: the self half of `d_out[s]` flows to `s`
/// itself, the neighbor half of `d_out[d]`, scaled by `inv(d)`, to every
/// input row that fed `d`.
fn sage_backward(
    adj_t: &impl Adjacency,
    num_self: usize,
    inv: impl Fn(usize) -> f32 + Sync,
    d_out: &Matrix,
    d_in: &mut Matrix,
) {
    let dim = d_out.cols() / 2;
    assert_eq!(d_out.cols(), 2 * dim, "gradient width must be even");
    assert_eq!(d_in.shape(), (adj_t.num_rows(), dim), "one gradient row per input row");
    build_rows(d_in, |s, d_in| {
        let mut sum = RowSum::new(d_in);
        if s < num_self {
            sum.add(&d_out.row(s)[..dim]);
        }
        for &d in adj_t.neighbors_of(s) {
            sum.add_scaled(inv(d as usize), &d_out.row(d as usize)[dim..]);
        }
        sum.finish();
    })
}

/// GCN block aggregation: `out[d] = (h[d] + Σ_{(s,d)} h[s]) / (1 + indeg(d))`.
///
/// Relies on the block invariant that destination `d`'s own embedding is at
/// source index `d` (destinations prefix the sources).
pub fn gcn_block_forward(block: &Block, h_src: &Matrix) -> Matrix {
    assert_eq!(h_src.rows(), block.num_src(), "one embedding per source");
    let mut out = Matrix::zeros(block.num_dst(), h_src.cols());
    gcn_forward(block, 0, |s| h_src.row(s), &mut out);
    out
}

/// Adjoint of [`gcn_block_forward`]: distributes `d_out[d] / (1 + indeg(d))`
/// to `d`'s own slot and to every sampled in-neighbor.
pub fn gcn_block_backward(block: &Block, d_out: &Matrix) -> Matrix {
    let mut d_src = Matrix::zeros(block.num_src(), d_out.cols());
    gcn_block_backward_into(block, d_out, &mut SourceMajor::default(), &mut d_src);
    d_src
}

/// [`gcn_block_backward`] into `d_src`, regrouping the block in `by_source`.
pub(crate) fn gcn_block_backward_into(
    block: &Block,
    d_out: &Matrix,
    by_source: &mut SourceMajor,
    d_src: &mut Matrix,
) {
    assert_eq!(d_out.rows(), block.num_dst(), "one gradient per destination");
    let inv = |d: usize| 1.0 / (1.0 + block.in_degree(d) as f32);
    by_source.rebuild(block);
    gcn_backward(&*by_source, block.num_dst(), inv, d_out, d_src);
}

/// GraphSAGE block aggregation: `out[d] = [h[d] ‖ mean_{(s,d)} h[s]]`
/// (neighbor half is zero for isolated destinations). Output width is
/// `2 * dim`.
pub fn sage_block_forward(block: &Block, h_src: &Matrix) -> Matrix {
    assert_eq!(h_src.rows(), block.num_src(), "one embedding per source");
    let mut out = Matrix::zeros(block.num_dst(), 2 * h_src.cols());
    sage_forward(block, 0, |s| h_src.row(s), &mut out);
    out
}

/// Adjoint of [`sage_block_forward`].
pub fn sage_block_backward(block: &Block, d_out: &Matrix) -> Matrix {
    let mut d_src = Matrix::zeros(block.num_src(), d_out.cols() / 2);
    sage_block_backward_into(block, d_out, &mut SourceMajor::default(), &mut d_src);
    d_src
}

/// [`sage_block_backward`] into `d_src`, regrouping the block in `by_source`.
pub(crate) fn sage_block_backward_into(
    block: &Block,
    d_out: &Matrix,
    by_source: &mut SourceMajor,
    d_src: &mut Matrix,
) {
    assert_eq!(d_out.rows(), block.num_dst(), "one gradient per destination");
    // Only read for destinations with an edge, so the degree is positive.
    let inv = |d: usize| 1.0 / block.in_degree(d) as f32;
    by_source.rebuild(block);
    sage_backward(&*by_source, block.num_dst(), inv, d_out, d_src);
}

/// Full-graph GCN aggregation over the in-CSR (exact inference):
/// `out[v] = (h[v] + Σ_{u ∈ N_in(v)} h[u]) / (1 + |N_in(v)|)`.
pub fn gcn_full_forward(in_csr: &Csr, h: &Matrix) -> Matrix {
    assert_eq!(h.rows(), in_csr.num_vertices(), "one embedding per vertex");
    let mut out = Matrix::zeros(h.rows(), h.cols());
    gcn_forward(in_csr, 0, |v| h.row(v), &mut out);
    out
}

/// Full-graph GraphSAGE aggregation (exact inference): `[h[v] ‖ mean_in]`.
pub fn sage_full_forward(in_csr: &Csr, h: &Matrix) -> Matrix {
    assert_eq!(h.rows(), in_csr.num_vertices(), "one embedding per vertex");
    let mut out = Matrix::zeros(h.rows(), 2 * h.cols());
    sage_forward(in_csr, 0, |v| h.row(v), &mut out);
    out
}

/// Adjoint of [`gcn_full_forward`] for full-batch training: since the
/// forward reads in-neighbors, the adjoint collects along *out*-edges —
/// `d_h[u] = Σ_{v : u ∈ N_in(v)} d_out[v] / (1 + |N_in(v)|)` plus `u`'s own
/// term — which is a pass over the out-CSR. `in_degrees[v]` must be
/// `in_csr.degree(v)`.
pub fn gcn_full_backward(out_csr: &Csr, in_degrees: &[usize], d_out: &Matrix) -> Matrix {
    let mut d_in = Matrix::zeros(out_csr.num_vertices(), d_out.cols());
    gcn_full_backward_into(out_csr, in_degrees, d_out, &mut d_in);
    d_in
}

/// [`gcn_full_backward`] into `d_in`.
pub(crate) fn gcn_full_backward_into(
    out_csr: &Csr,
    in_degrees: &[usize],
    d_out: &Matrix,
    d_in: &mut Matrix,
) {
    let n = out_csr.num_vertices();
    assert_eq!(d_out.rows(), n, "one gradient per vertex");
    assert_eq!(in_degrees.len(), n, "one in-degree per vertex");
    gcn_backward(out_csr, n, |v| 1.0 / (1.0 + in_degrees[v] as f32), d_out, d_in);
}

/// Adjoint of [`sage_full_forward`]. `in_degrees[v]` must be
/// `in_csr.degree(v)`, so every vertex an out-edge reaches has a positive
/// in-degree.
pub fn sage_full_backward(out_csr: &Csr, in_degrees: &[usize], d_out: &Matrix) -> Matrix {
    let mut d_in = Matrix::zeros(out_csr.num_vertices(), d_out.cols() / 2);
    sage_full_backward_into(out_csr, in_degrees, d_out, &mut d_in);
    d_in
}

/// [`sage_full_backward`] into `d_in`.
pub(crate) fn sage_full_backward_into(
    out_csr: &Csr,
    in_degrees: &[usize],
    d_out: &Matrix,
    d_in: &mut Matrix,
) {
    let n = out_csr.num_vertices();
    assert_eq!(d_out.rows(), n, "one gradient per vertex");
    assert_eq!(in_degrees.len(), n, "one in-degree per vertex");
    sage_backward(out_csr, n, |v| 1.0 / in_degrees[v] as f32, d_out, d_in);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Block: sources [10, 11, 12, 13], dsts [10, 11];
    /// edges 12→10, 13→10, 12→11.
    fn block() -> Block {
        Block::from_edges(vec![10, 11, 12, 13], vec![10, 11], &[(2, 0), (3, 0), (2, 1)])
    }

    fn h4() -> Matrix {
        Matrix::from_vec(4, 2, vec![1.0, 0.0, 0.0, 1.0, 2.0, 2.0, 4.0, -4.0])
    }

    #[test]
    fn gcn_forward_values() {
        let out = gcn_block_forward(&block(), &h4());
        // dst 0: (h0 + h2 + h3)/3 = (7, -2)/3
        assert!((out.get(0, 0) - 7.0 / 3.0).abs() < 1e-6);
        assert!((out.get(0, 1) + 2.0 / 3.0).abs() < 1e-6);
        // dst 1: (h1 + h2)/2 = (2, 3)/2
        assert!((out.get(1, 0) - 1.0).abs() < 1e-6);
        assert!((out.get(1, 1) - 1.5).abs() < 1e-6);
    }

    #[test]
    fn sage_forward_values() {
        let out = sage_block_forward(&block(), &h4());
        assert_eq!(out.cols(), 4);
        // dst 0 self = h0, neigh = (h2 + h3)/2 = (3, -1)
        assert_eq!(&out.row(0)[..2], &[1.0, 0.0]);
        assert_eq!(&out.row(0)[2..], &[3.0, -1.0]);
        // dst 1 neigh = h2
        assert_eq!(&out.row(1)[2..], &[2.0, 2.0]);
    }

    /// Adjoint check: for linear maps, ⟨A x, y⟩ == ⟨x, Aᵀ y⟩ for all x, y.
    #[test]
    fn gcn_backward_is_exact_adjoint() {
        let b = block();
        let x = h4();
        let y = Matrix::from_vec(2, 2, vec![0.3, -1.0, 0.7, 2.0]);
        let ax = gcn_block_forward(&b, &x);
        let aty = gcn_block_backward(&b, &y);
        let lhs: f32 = ax.as_slice().iter().zip(y.as_slice()).map(|(a, b)| a * b).sum();
        let rhs: f32 = x.as_slice().iter().zip(aty.as_slice()).map(|(a, b)| a * b).sum();
        assert!((lhs - rhs).abs() < 1e-5, "lhs {lhs} rhs {rhs}");
    }

    #[test]
    fn sage_backward_is_exact_adjoint() {
        let b = block();
        let x = h4();
        let y = Matrix::from_vec(2, 4, vec![0.1, 0.2, -0.5, 1.0, -0.3, 0.4, 2.0, 0.9]);
        let ax = sage_block_forward(&b, &x);
        let aty = sage_block_backward(&b, &y);
        let lhs: f32 = ax.as_slice().iter().zip(y.as_slice()).map(|(a, b)| a * b).sum();
        let rhs: f32 = x.as_slice().iter().zip(aty.as_slice()).map(|(a, b)| a * b).sum();
        assert!((lhs - rhs).abs() < 1e-5, "lhs {lhs} rhs {rhs}");
    }

    #[test]
    fn isolated_destination_keeps_self_only() {
        let b = Block::from_edges(vec![5], vec![5], &[]);
        let h = Matrix::from_vec(1, 2, vec![3.0, 4.0]);
        let gcn = gcn_block_forward(&b, &h);
        assert_eq!(gcn.row(0), &[3.0, 4.0]);
        let sage = sage_block_forward(&b, &h);
        assert_eq!(sage.row(0), &[3.0, 4.0, 0.0, 0.0]);
    }

    #[test]
    fn full_backward_is_exact_adjoint() {
        use gnn_dm_graph::Csr;
        // Directed graph on 4 vertices.
        let out_csr = Csr::from_edges(4, &[(0, 1), (0, 2), (1, 2), (3, 0)]);
        let in_csr = out_csr.transpose();
        let in_degrees: Vec<usize> = (0..4).map(|v| in_csr.degree(v)).collect();
        let x = Matrix::from_fn(4, 3, |r, c| (r as f32 + 1.0) * (c as f32 - 1.0));
        let y = Matrix::from_fn(4, 3, |r, c| (r as f32 - 2.0) * (c as f32 + 0.5));
        let ax = gcn_full_forward(&in_csr, &x);
        let aty = gcn_full_backward(&out_csr, &in_degrees, &y);
        let lhs: f32 = ax.as_slice().iter().zip(y.as_slice()).map(|(a, b)| a * b).sum();
        let rhs: f32 = x.as_slice().iter().zip(aty.as_slice()).map(|(a, b)| a * b).sum();
        assert!((lhs - rhs).abs() < 1e-4, "gcn lhs {lhs} rhs {rhs}");

        let y2 = Matrix::from_fn(4, 6, |r, c| ((r * 6 + c) as f32 * 0.31).sin());
        let ax2 = sage_full_forward(&in_csr, &x);
        let aty2 = sage_full_backward(&out_csr, &in_degrees, &y2);
        let lhs2: f32 = ax2.as_slice().iter().zip(y2.as_slice()).map(|(a, b)| a * b).sum();
        let rhs2: f32 = x.as_slice().iter().zip(aty2.as_slice()).map(|(a, b)| a * b).sum();
        assert!((lhs2 - rhs2).abs() < 1e-4, "sage lhs {lhs2} rhs {rhs2}");
    }

    #[test]
    fn full_forward_matches_block_with_full_neighbors() {
        use gnn_dm_graph::Csr;
        // 3-vertex graph: in-neighbors 1→0, 2→0, 2→1.
        let in_csr = Csr::from_edges(3, &[(0, 1), (0, 2), (1, 2)]);
        let h = Matrix::from_vec(3, 2, vec![1.0, 1.0, 2.0, 0.0, 0.0, 4.0]);
        let full = gcn_full_forward(&in_csr, &h);
        // Block equivalent over all three vertices with every in-edge.
        let b = Block::from_edges(vec![0, 1, 2], vec![0, 1, 2], &[(1, 0), (2, 0), (2, 1)]);
        let blk = gcn_block_forward(&b, &h);
        for i in 0..6 {
            assert!((full.as_slice()[i] - blk.as_slice()[i]).abs() < 1e-6);
        }
        let fs = sage_full_forward(&in_csr, &h);
        let bs = sage_block_forward(&b, &h);
        for i in 0..12 {
            assert!((fs.as_slice()[i] - bs.as_slice()[i]).abs() < 1e-6);
        }
    }
}
