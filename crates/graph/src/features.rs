//! Dense vertex feature storage.
//!
//! The graph crate deliberately stores features as a plain row-major `f32`
//! buffer rather than depending on the tensor crate: partitioners and the
//! device model only ever need row *sizes* and row *copies*, while the NN
//! crate views rows directly.

/// Row-major dense feature table: one row of `dim` floats per vertex.
///
/// A zero-width table (`dim == 0`) is a table of empty rows: it still has
/// one row per vertex, which is why the row count is stored rather than
/// derived from the buffer.
#[derive(Debug, Clone, PartialEq)]
pub struct FeatureTable {
    data: Vec<f32>,
    rows: usize,
    dim: usize,
}

impl FeatureTable {
    /// A zero-filled table of `rows x dim`; `dim` may be 0.
    pub fn zeros(rows: usize, dim: usize) -> Self {
        FeatureTable { data: vec![0.0; rows * dim], rows, dim }
    }

    /// Wraps an existing buffer. An empty buffer cannot say how many empty
    /// rows it holds, so a zero-width table comes from [`Self::zeros`].
    ///
    /// # Panics
    ///
    /// Panics if `dim` is 0 or `data.len()` is not a multiple of `dim`.
    pub fn from_vec(data: Vec<f32>, dim: usize) -> Self {
        assert!(dim > 0, "feature dim must be positive");
        assert_eq!(data.len() % dim, 0, "buffer length must be a multiple of dim");
        FeatureTable { rows: data.len() / dim, data, dim }
    }

    /// Feature dimensionality.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of rows (vertices).
    #[inline]
    pub fn num_rows(&self) -> usize {
        self.rows
    }

    /// The feature row of vertex `v`.
    #[inline]
    pub fn row(&self, v: u32) -> &[f32] {
        let start = v as usize * self.dim;
        &self.data[start..start + self.dim]
    }

    /// Mutable feature row of vertex `v`.
    #[inline]
    pub fn row_mut(&mut self, v: u32) -> &mut [f32] {
        let start = v as usize * self.dim;
        &mut self.data[start..start + self.dim]
    }

    /// The whole backing buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Bytes one feature row occupies — the unit of the paper's
    /// communication-volume accounting (features dominate transfer sizes).
    #[inline]
    pub fn row_bytes(&self) -> usize {
        self.dim * std::mem::size_of::<f32>()
    }

    /// Copies the rows named by `ids` into a fresh contiguous buffer, in
    /// order — the "extract" half of the extract-load transfer method. Row
    /// blocks are copied in parallel; pure disjoint copies, so the result is
    /// bitwise-identical at any thread count.
    pub fn gather(&self, ids: &[u32]) -> FeatureTable {
        /// Rows per parallel work item; fixed so chunk boundaries never
        /// depend on the thread count.
        const GATHER_BLOCK: usize = 256;
        let mut out = vec![0.0f32; ids.len() * self.dim];
        gnn_dm_par::par_chunks_mut(&mut out, GATHER_BLOCK * self.dim, |ci, chunk| {
            let base = ci * GATHER_BLOCK;
            for (j, dst) in chunk.chunks_mut(self.dim).enumerate() {
                dst.copy_from_slice(self.row(ids[base + j]));
            }
        });
        FeatureTable { data: out, rows: ids.len(), dim: self.dim }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_shape() {
        let t = FeatureTable::zeros(3, 4);
        assert_eq!(t.num_rows(), 3);
        assert_eq!(t.dim(), 4);
        // zeros() writes literal 0.0; the exact-bit check is the point.
        assert!(t.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn zero_width_table_has_empty_rows() {
        let t = FeatureTable::zeros(3, 0);
        assert_eq!(t.num_rows(), 3);
        assert_eq!(t.row(2), &[] as &[f32]);
        let g = t.gather(&[2, 0]);
        assert_eq!((g.num_rows(), g.dim()), (2, 0));
    }

    #[test]
    fn row_access_and_mutation() {
        let mut t = FeatureTable::zeros(2, 2);
        t.row_mut(1).copy_from_slice(&[1.0, 2.0]);
        assert_eq!(t.row(0), &[0.0, 0.0]);
        assert_eq!(t.row(1), &[1.0, 2.0]);
    }

    #[test]
    fn gather_orders_rows_by_ids() {
        let t = FeatureTable::from_vec(vec![0.0, 0.1, 1.0, 1.1, 2.0, 2.1], 2);
        let g = t.gather(&[2, 0]);
        assert_eq!(g.as_slice(), &[2.0, 2.1, 0.0, 0.1]);
        assert_eq!(g.num_rows(), 2);
    }

    #[test]
    fn row_bytes() {
        let t = FeatureTable::zeros(1, 128);
        assert_eq!(t.row_bytes(), 512);
    }

    #[test]
    #[should_panic(expected = "multiple of dim")]
    fn from_vec_rejects_ragged() {
        let _ = FeatureTable::from_vec(vec![1.0; 5], 2);
    }
}
