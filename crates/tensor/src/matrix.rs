//! Row-major dense f32 matrix.

/// Row-major dense matrix of `f32`.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// A `rows x cols` zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Wraps a row-major buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "buffer length must equal rows * cols");
        Matrix { rows, cols, data }
    }

    /// Builds from a closure `f(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Immutable view of row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable view of row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        self.data[r * self.cols + c]
    }

    /// Element setter.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        self.data[r * self.cols + c] = v;
    }

    /// The raw row-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable raw buffer.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// The row-major buffer, for reuse as another matrix's storage.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Gathers rows named by `ids` into a fresh matrix, in order.
    pub fn gather_rows(&self, ids: &[u32]) -> Matrix {
        Matrix::gather_from(self.cols, ids, |v| self.row(v as usize))
    }

    /// The `ids.len() x cols` matrix whose row `i` is `row(ids[i])` — the
    /// one row gather behind [`Matrix::gather_rows`] and the feature
    /// "extract" step. Row blocks are copied in parallel; pure disjoint
    /// copies, so the result is bitwise-identical at any thread count.
    pub fn gather_from<'a>(cols: usize, ids: &[u32], row: impl Fn(u32) -> &'a [f32] + Sync) -> Matrix {
        /// Rows per parallel work item; fixed so chunk boundaries never
        /// depend on the thread count.
        const GATHER_BLOCK: usize = 256;
        let mut out = vec![0.0f32; ids.len() * cols];
        gnn_dm_par::par_chunks_mut(&mut out, GATHER_BLOCK * cols, |ci, chunk| {
            let base = ci * GATHER_BLOCK;
            for (j, dst) in chunk.chunks_mut(cols).enumerate() {
                dst.copy_from_slice(row(ids[base + j]));
            }
        });
        Matrix { rows: ids.len(), cols, data: out }
    }

    /// The transpose (allocates).
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
    }

    /// Index of the maximum element in each row (ties go to the first).
    pub fn argmax_rows(&self) -> Vec<usize> {
        (0..self.rows)
            .map(|r| {
                let row = self.row(r);
                let mut best = 0usize;
                for (i, &x) in row.iter().enumerate() {
                    if x > row[best] {
                        best = i;
                    }
                }
                best
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let mut m = Matrix::zeros(2, 3);
        m.set(1, 2, 5.0);
        assert_eq!(m.get(1, 2), 5.0);
        assert_eq!(m.shape(), (2, 3));
        assert_eq!(m.row(1), &[0.0, 0.0, 5.0]);
    }

    #[test]
    fn from_fn_layout() {
        let m = Matrix::from_fn(2, 2, |r, c| (r * 10 + c) as f32);
        assert_eq!(m.as_slice(), &[0.0, 1.0, 10.0, 11.0]);
    }

    #[test]
    fn transpose_round_trip() {
        let m = Matrix::from_fn(3, 2, |r, c| (r * 2 + c) as f32);
        assert_eq!(m.transpose().transpose(), m);
        assert_eq!(m.transpose().get(1, 2), m.get(2, 1));
    }

    #[test]
    fn gather_rows_orders() {
        let m = Matrix::from_fn(3, 2, |r, _| r as f32);
        let g = m.gather_rows(&[2, 0, 2]);
        assert_eq!(g.rows(), 3);
        assert_eq!(g.row(0), &[2.0, 2.0]);
        assert_eq!(g.row(1), &[0.0, 0.0]);
        assert_eq!(g.row(2), &[2.0, 2.0]);
        let empty_rows = Matrix::zeros(3, 0).gather_rows(&[2, 0]);
        assert_eq!(empty_rows.shape(), (2, 0));
    }

    #[test]
    fn argmax_rows_ties_first() {
        let m = Matrix::from_vec(2, 3, vec![1.0, 3.0, 3.0, -1.0, -2.0, -0.5]);
        assert_eq!(m.argmax_rows(), vec![1, 2]);
    }

    #[test]
    #[should_panic(expected = "rows * cols")]
    fn from_vec_shape_checked() {
        let _ = Matrix::from_vec(2, 2, vec![0.0; 3]);
    }
}
