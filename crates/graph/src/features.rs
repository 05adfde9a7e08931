//! Dense vertex feature storage.
//!
//! The graph crate deliberately stores features as a plain row-major `f32`
//! buffer rather than depending on the tensor crate. Only the NN crate reads
//! feature *values*; partitioners, the device model and the cluster
//! simulator price rows by their *size* (rows × [`FeatureTable::row_bytes`])
//! and never read one. A generated table is therefore built on its first
//! value read: until then it holds the recipe that draws it, and
//! `tests/widths_only.rs` checks that the simulators leave it unbuilt.

#![expect(clippy::disallowed_types, reason = "a deferred table is built once, on its first read, by whichever thread reads first; the values come from the table's own RNG stream, so they are the same bits whoever builds them")]

use crate::generate::CentroidRecipe;
use std::fmt;
use std::sync::OnceLock;

/// Row-major dense feature table: one row of `dim` floats per vertex.
///
/// A zero-width table (`dim == 0`) is a table of empty rows: it still has
/// one row per vertex, which is why the row count is stored rather than
/// derived from the buffer.
///
/// A table from [`crate::generate::planted_partition`] is *deferred*: its
/// values are drawn the first time one is read ([`Self::row`],
/// [`Self::as_slice`], [`Self::view`], [`Self::row_mut`]),
/// from the table's own RNG stream, so they are the same bits whenever
/// that happens. [`Self::dim`], [`Self::num_rows`] and [`Self::row_bytes`]
/// never build it. Every other constructor is eager.
#[derive(Clone)]
pub struct FeatureTable {
    /// The values, once built; always full for an eager table.
    data: OnceLock<Vec<f32>>,
    /// What draws the values of a deferred table.
    recipe: Option<CentroidRecipe>,
    rows: usize,
    dim: usize,
}

/// A built table's rows, borrowed. It is `Copy` and its reads never build
/// anything, so a parallel closure captures one taken before the dispatch
/// instead of the table: a first read inside the closure would build the
/// table on whichever worker got there first.
#[derive(Debug, Clone, Copy)]
pub struct FeatureRows<'a> {
    data: &'a [f32],
    dim: usize,
}

impl<'a> FeatureRows<'a> {
    /// Feature dimensionality.
    #[inline]
    pub fn dim(self) -> usize {
        self.dim
    }

    /// The feature row of vertex `v`. Named apart from
    /// [`FeatureTable::row`], which may build the table, so a read inside a
    /// parallel closure is visibly one that cannot.
    #[inline]
    pub fn of(self, v: u32) -> &'a [f32] {
        let start = v as usize * self.dim;
        &self.data[start..start + self.dim]
    }
}

impl FeatureTable {
    /// A zero-filled table of `rows x dim`; `dim` may be 0.
    pub fn zeros(rows: usize, dim: usize) -> Self {
        Self::built(vec![0.0; rows * dim], rows, dim)
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
        let rows = data.len() / dim;
        Self::built(data, rows, dim)
    }

    fn built(data: Vec<f32>, rows: usize, dim: usize) -> Self {
        FeatureTable { data: OnceLock::from(data), recipe: None, rows, dim }
    }

    /// A deferred `dim`-wide table with one row per label of `recipe`.
    pub(crate) fn deferred(recipe: CentroidRecipe, dim: usize) -> Self {
        FeatureTable { data: OnceLock::new(), rows: recipe.labels.len(), recipe: Some(recipe), dim }
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

    /// Bytes one feature row occupies — the unit of the paper's
    /// communication-volume accounting (features dominate transfer sizes).
    #[inline]
    pub fn row_bytes(&self) -> usize {
        self.dim * std::mem::size_of::<f32>()
    }

    /// Whether the values exist yet: always for an eager table, and for a
    /// deferred one after its first value read.
    pub fn is_materialized(&self) -> bool {
        self.data.get().is_some()
    }

    /// The whole backing buffer, built first if the table is deferred.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        self.data.get_or_init(|| self.recipe.as_ref().map_or_else(Vec::new, |r| r.values(self.dim)))
    }

    /// The rows as a [`FeatureRows`], built first if the table is deferred.
    #[inline]
    pub fn view(&self) -> FeatureRows<'_> {
        FeatureRows { data: self.as_slice(), dim: self.dim }
    }

    /// The feature row of vertex `v`.
    #[inline]
    pub fn row(&self, v: u32) -> &[f32] {
        self.view().of(v)
    }

    /// Mutable feature row of vertex `v`.
    #[inline]
    pub fn row_mut(&mut self, v: u32) -> &mut [f32] {
        let start = v as usize * self.dim;
        self.as_slice();
        // `as_slice` filled the cell, so the default is never taken.
        let data = self.data.get_mut().map(Vec::as_mut_slice).unwrap_or_default();
        &mut data[start..start + self.dim]
    }
}

/// The shape and whether the values are built — never the values, which
/// run to millions of floats and which a derived impl would build.
impl fmt::Debug for FeatureTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FeatureTable")
            .field("rows", &self.rows)
            .field("dim", &self.dim)
            .field("materialized", &self.is_materialized())
            .finish()
    }
}

/// Equal shapes and equal values; a deferred side is built to compare.
impl PartialEq for FeatureTable {
    fn eq(&self, other: &Self) -> bool {
        (self.rows, self.dim) == (other.rows, other.dim) && self.as_slice() == other.as_slice()
    }
}

#[cfg(test)]
#[expect(clippy::disallowed_methods, reason = "unit tests seed their fixtures directly")]
mod tests {
    use super::*;
    use crate::generate::class_centroid_features;

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
    }

    #[test]
    fn row_access_and_mutation() {
        let mut t = FeatureTable::zeros(2, 2);
        t.row_mut(1).copy_from_slice(&[1.0, 2.0]);
        assert_eq!(t.row(0), &[0.0, 0.0]);
        assert_eq!(t.row(1), &[1.0, 2.0]);
    }

    #[test]
    fn row_bytes() {
        let t = FeatureTable::zeros(1, 128);
        assert_eq!(t.row_bytes(), 512);
    }

    /// A deferred table of `n` rows over three classes, with the
    /// [`class_centroid_features`] table it must become. `n` spans several
    /// generation chunks at `dim` 7.
    fn deferred(n: u32, dim: usize) -> (FeatureTable, FeatureTable) {
        let labels: Vec<u32> = (0..n).map(|v| v * 7 % 3).collect();
        let eager = class_centroid_features(&labels, 3, dim, 0.8, 11);
        let stream = rand::SeedableRng::seed_from_u64(11);
        let recipe = CentroidRecipe { labels, num_classes: 3, noise: 0.8, stream };
        (FeatureTable::deferred(recipe, dim), eager)
    }

    fn bits(xs: &[f32]) -> Vec<u32> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn deferred_table_is_class_centroid_features_at_any_thread_count() {
        let (_, eager) = deferred(20_000, 7);
        for threads in [1, 2, 3, 8] {
            let (t, _) = deferred(20_000, 7);
            assert!(!t.is_materialized());
            let got = gnn_dm_par::with_threads(threads, || bits(t.as_slice()));
            assert!(got == bits(eager.as_slice()), "threads {threads}: values differ");
            assert!(t.is_materialized());
        }
    }

    #[test]
    fn first_read_of_one_row_builds_the_whole_table() {
        let (t, eager) = deferred(500, 7);
        assert_eq!(bits(t.row(499)), bits(eager.row(499)));
        assert!(t.is_materialized());
        assert!(t == eager);
    }

    /// Every worker reads the unbuilt table at once: one builds it (its
    /// nested dispatch runs serially), the rest wait, and all see its bits.
    #[test]
    fn first_read_inside_a_parallel_closure() {
        let (_, eager) = deferred(20_000, 7);
        for threads in [2, 3, 8] {
            let (t, _) = deferred(20_000, 7);
            let mut firsts = vec![0u32; 64];
            gnn_dm_par::with_threads(threads, || {
                gnn_dm_par::par_chunks_mut(&mut firsts, 1, |i, x| {
                    x[0] = t.row(i as u32 * 311)[0].to_bits();
                });
            });
            let want: Vec<u32> = (0..64).map(|i| eager.row(i * 311)[0].to_bits()).collect();
            assert_eq!(firsts, want, "threads {threads}");
            assert!(bits(t.as_slice()) == bits(eager.as_slice()), "threads {threads}");
        }
    }

    #[test]
    fn shape_queries_clone_and_debug_do_not_build() {
        let (t, _) = deferred(500, 7);
        assert_eq!((t.num_rows(), t.dim(), t.row_bytes()), (500, 7, 28));
        let copy = t.clone();
        assert_eq!(
            format!("{t:?}"),
            "FeatureTable { rows: 500, dim: 7, materialized: false }"
        );
        assert!(!t.is_materialized() && !copy.is_materialized());
        // A clone of an unbuilt table builds on its own first read.
        assert!(copy == t);
        assert!(copy.is_materialized() && t.is_materialized());
    }

    #[test]
    fn row_mut_builds_then_writes_one_row() {
        let (mut t, eager) = deferred(500, 7);
        t.row_mut(4).fill(0.5);
        assert_eq!(t.row(4), &[0.5; 7]);
        assert_eq!(t.row(5), eager.row(5));
    }

    #[test]
    fn zero_width_deferred_table_has_empty_rows() {
        let (t, _) = deferred(60, 0);
        assert_eq!((t.num_rows(), t.dim(), t.row_bytes()), (60, 0, 0));
        assert_eq!(t.row(59), &[] as &[f32]);
        assert_eq!(t, FeatureTable::zeros(60, 0));
    }

    #[test]
    fn eager_tables_are_built_from_the_start() {
        assert!(FeatureTable::zeros(3, 0).is_materialized());
        let t = FeatureTable::from_vec(vec![1.0, 2.0], 1);
        assert!(t.is_materialized());
        assert_eq!(format!("{t:?}"), "FeatureTable { rows: 2, dim: 1, materialized: true }");
    }

    #[test]
    #[should_panic(expected = "multiple of dim")]
    fn from_vec_rejects_ragged() {
        let _ = FeatureTable::from_vec(vec![1.0; 5], 2);
    }
}
