//! Compressed sparse row adjacency storage.

use std::sync::Arc;

/// Vertex identifier. `u32` keeps adjacency arrays half the size of `usize`
/// on 64-bit targets, which matters for the large synthetic graphs the
/// transfer experiments use.
pub type VId = u32;

/// Rows one parallel sort-and-deduplicate task owns. Fixed, so the work
/// split never depends on the thread count.
const ROW_CHUNK: usize = 2048;

/// Compressed sparse row adjacency.
///
/// `offsets` has `n + 1` entries; the neighbors of vertex `v` are
/// `targets[offsets[v] .. offsets[v + 1]]`, sorted ascending and free of
/// duplicates when built through [`Csr::from_edges`] or
/// [`Csr::from_undirected_edges`].
///
/// A `Csr` is immutable once built, and its two arrays are shared: `clone`
/// copies two pointers, so a symmetric graph's in- and out-adjacency are
/// one pair of arrays ([`Csr::shares_storage`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Csr {
    offsets: Arc<[usize]>,
    targets: Arc<[VId]>,
}

impl Csr {
    /// Builds a CSR from an unsorted edge list over `n` vertices.
    ///
    /// Self-loops and duplicate edges are removed. Endpoints must be `< n`.
    ///
    /// ```
    /// use gnn_dm_graph::Csr;
    /// let csr = Csr::from_edges(3, &[(0, 2), (0, 1), (0, 2), (1, 1)]);
    /// assert_eq!(csr.neighbors(0), &[1, 2]); // sorted, deduplicated
    /// assert_eq!(csr.num_edges(), 2);        // self-loop dropped
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if any endpoint is out of range.
    pub fn from_edges(n: usize, edges: &[(VId, VId)]) -> Self {
        Rows::fill(row_counts(n, edges, false), edges, false).sorted().into()
    }

    /// [`Csr::from_edges`] with each `(u, v)` standing for both `u -> v`
    /// and `v -> u`: the result is symmetric, and an edge listed in either
    /// direction, or in both, or more than once, appears once per row.
    ///
    /// ```
    /// use gnn_dm_graph::Csr;
    /// let csr = Csr::from_undirected_edges(3, &[(0, 2), (2, 0), (1, 2)]);
    /// assert_eq!(csr.neighbors(2), &[0, 1]);
    /// assert!(csr.is_symmetric());
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if any endpoint is out of range.
    pub fn from_undirected_edges(n: usize, edges: &[(VId, VId)]) -> Self {
        Rows::fill(row_counts(n, edges, true), edges, true).sorted().mirror()
    }

    /// Builds a CSR directly from parts. `offsets` must be monotone with
    /// `offsets[0] == 0` and `offsets[n] == targets.len()`, and each
    /// neighbor list must be sorted, duplicate-free and made of vertices
    /// (`< n`).
    ///
    /// # Panics
    ///
    /// Panics if the invariants above do not hold.
    pub fn from_parts(offsets: Vec<usize>, targets: Vec<VId>) -> Self {
        assert!(!offsets.is_empty(), "offsets must have at least one entry");
        assert_eq!(offsets[0], 0, "offsets[0] must be 0");
        assert_eq!(offsets.last().copied(), Some(targets.len()), "offsets must end at targets.len()");
        assert!(offsets.windows(2).all(|w| w[0] <= w[1]), "offsets must be monotone");
        let csr: Csr = Rows { offsets, targets }.into();
        let n = csr.num_vertices();
        for v in 0..n {
            let nbrs = csr.neighbors(v as VId);
            assert!(
                nbrs.windows(2).all(|w| w[0] < w[1]),
                "neighbors of {v} must be strictly sorted"
            );
            assert!(
                nbrs.last().is_none_or(|&u| (u as usize) < n),
                "neighbors of {v} must be vertices of a {n}-vertex graph"
            );
        }
        csr
    }

    /// An empty graph over `n` isolated vertices.
    pub fn empty(n: usize) -> Self {
        Csr { offsets: std::iter::repeat_n(0, n + 1).collect(), targets: Arc::new([]) }
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of directed edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.targets.len()
    }

    /// Neighbors of `v`, sorted ascending.
    #[inline]
    pub fn neighbors(&self, v: VId) -> &[VId] {
        &self.targets[self.offsets[v as usize]..self.offsets[v as usize + 1]]
    }

    /// Out-degree of `v`.
    #[inline]
    pub fn degree(&self, v: VId) -> usize {
        self.offsets[v as usize + 1] - self.offsets[v as usize]
    }

    /// `true` if the directed edge `u -> v` exists (binary search).
    pub fn has_edge(&self, u: VId, v: VId) -> bool {
        self.neighbors(u).binary_search(&v).is_ok()
    }

    /// The raw offset array (length `n + 1`).
    #[inline]
    pub fn offsets(&self) -> &[usize] {
        &self.offsets
    }

    /// The raw target array.
    #[inline]
    pub fn targets(&self) -> &[VId] {
        &self.targets
    }

    /// `true` if `self` and `other` read the same two arrays — one is a
    /// clone of the other — rather than merely equal ones.
    pub fn shares_storage(&self, other: &Csr) -> bool {
        Arc::ptr_eq(&self.offsets, &other.offsets) && Arc::ptr_eq(&self.targets, &other.targets)
    }

    /// Iterates `(source, target)` over every directed edge.
    pub fn edges(&self) -> impl Iterator<Item = (VId, VId)> + '_ {
        (0..self.num_vertices()).flat_map(move |v| {
            self.neighbors(v as VId).iter().map(move |&t| (v as VId, t))
        })
    }

    /// Reverse adjacency: `transpose().neighbors(v)` are the in-neighbors
    /// of `v` in `self`. Both arrays are written in place at their final
    /// length.
    pub fn transpose(&self) -> Csr {
        let n = self.num_vertices();
        let mut offsets: Arc<[usize]> = std::iter::repeat_n(0, n + 1).collect();
        let counts = Arc::make_mut(&mut offsets);
        for &t in self.targets.iter() {
            counts[t as usize + 1] += 1;
        }
        for i in 0..n {
            counts[i + 1] += counts[i];
        }
        let mut targets: Arc<[VId]> = std::iter::repeat_n(0, self.targets.len()).collect();
        let rows = Arc::make_mut(&mut targets);
        let mut cursor = counts[..n].to_vec();
        // Walking sources in ascending order makes each output list sorted.
        for v in 0..n {
            for &t in self.neighbors(v as VId) {
                rows[cursor[t as usize]] = v as VId;
                cursor[t as usize] += 1;
            }
        }
        Csr { offsets, targets }
    }

    /// `true` if for every edge `u -> v` the edge `v -> u` also exists.
    pub fn is_symmetric(&self) -> bool {
        self.edges().all(|(u, v)| self.has_edge(v, u))
    }

    /// Bytes of the two adjacency arrays this CSR reads. Storage shared
    /// with a clone is counted by each holder, so a symmetric graph's `out`
    /// and `inn` each report the whole adjacency; add the two only when
    /// they do not [`Csr::shares_storage`].
    pub fn memory_bytes(&self) -> usize {
        self.offsets.len() * std::mem::size_of::<usize>()
            + self.targets.len() * std::mem::size_of::<VId>()
    }

    /// The maximum out-degree over all vertices (0 for an empty graph).
    pub fn max_degree(&self) -> usize {
        (0..self.num_vertices()).map(|v| self.degree(v as VId)).max().unwrap_or(0)
    }
}

/// A CSR while it is being built: rows filled unsorted, then sorted and
/// deduplicated. Directed rows become a [`Csr`]'s shared arrays by one copy
/// of the kept entries, made after the spare capacity is released; upper
/// rows are [`Rows::mirror`]ed straight into them. A caller that drops its
/// edge list once the rows are filled never holds it beside anything but
/// the unsorted rows.
pub(crate) struct Rows {
    offsets: Vec<usize>,
    targets: Vec<VId>,
}

impl From<Rows> for Csr {
    fn from(Rows { offsets, mut targets }: Rows) -> Self {
        targets.shrink_to_fit();
        Csr { offsets: offsets.into(), targets: targets.into() }
    }
}

impl Rows {
    /// The counting-sort fill behind both constructors; [`Rows::sorted`]
    /// finishes the rows. Without `mirror` each edge `(u, v)` goes to row
    /// `u`; with it, each edge is taken undirected and goes once, as its
    /// larger endpoint, to the row of its smaller one (the upper triangle
    /// [`Rows::mirror`] expects). `counts[v + 1]` must be the number of
    /// non-self-loop edges that go to row `v`, and endpoints must be in
    /// range. Each edge is written straight into its row.
    pub(crate) fn fill(mut counts: Vec<usize>, edges: &[(VId, VId)], mirror: bool) -> Self {
        let n = counts.len() - 1;
        for i in 0..n {
            counts[i + 1] += counts[i];
        }
        let mut targets = vec![0 as VId; counts[n]];
        // Each row's start is its write cursor, which ends at the next
        // row's start; shifting right by one restores the starts.
        for &(u, v) in edges {
            if u != v {
                let (row, target) = if mirror { (u.min(v), u.max(v)) } else { (u, v) };
                targets[counts[row as usize]] = target;
                counts[row as usize] += 1;
            }
        }
        counts.copy_within(..n, 1);
        counts[0] = 0;
        Rows { offsets: counts, targets }
    }

    /// The rows, each sorted and duplicate-free.
    pub(crate) fn sorted(mut self) -> Self {
        self.sort_and_dedup();
        self
    }

    /// Sorts every row and drops repeats, then closes the gaps. Rows are
    /// sorted and deduplicated in place, [`ROW_CHUNK`] rows per parallel
    /// task; the compaction is one serial pass that only moves each kept
    /// prefix left.
    fn sort_and_dedup(&mut self) {
        let n = self.offsets.len() - 1;
        let Rows { offsets, targets } = self;
        let mut kept = vec![0usize; n];
        let mut tasks = Vec::with_capacity(n.div_ceil(ROW_CHUNK));
        let mut rest: &mut [VId] = targets;
        for (ci, kept) in kept.chunks_mut(ROW_CHUNK).enumerate() {
            let rows = &offsets[ci * ROW_CHUNK..=ci * ROW_CHUNK + kept.len()];
            let (chunk, tail) = std::mem::take(&mut rest).split_at_mut(rows[kept.len()] - rows[0]);
            rest = tail;
            tasks.push((rows, chunk, kept));
        }
        gnn_dm_par::par_chunks_mut(&mut tasks, 1, |_, task| {
            for (rows, chunk, kept) in task {
                let base = rows[0];
                for (r, kept) in kept.iter_mut().enumerate() {
                    let row = &mut chunk[rows[r] - base..rows[r + 1] - base];
                    row.sort_unstable();
                    *kept = dedup_sorted(row);
                }
            }
        });

        let mut write = 0usize;
        for (v, &k) in kept.iter().enumerate() {
            let start = offsets[v];
            if start != write {
                targets.copy_within(start..start + k, write);
            }
            offsets[v] = write;
            write += k;
        }
        offsets[n] = write;
        targets.truncate(write);
    }

    /// The symmetric CSR of sorted upper rows (every entry above its row,
    /// as [`Rows::fill`] leaves them under `mirror`), written in place into
    /// arrays of their final length: row `r` is each `w < r` whose upper
    /// row holds `r`, ascending, then `r`'s own upper row. Walking rows in
    /// ascending order appends those lower entries in order and reaches
    /// row `r` just after the last of them, so every row comes out sorted
    /// and duplicate-free.
    pub(crate) fn mirror(self) -> Csr {
        let n = self.offsets.len() - 1;
        let upper = |w: usize| &self.targets[self.offsets[w]..self.offsets[w + 1]];
        let mut offsets: Arc<[usize]> = std::iter::repeat_n(0, n + 1).collect();
        let ends = Arc::make_mut(&mut offsets);
        for &x in &self.targets {
            ends[x as usize + 1] += 1;
        }
        for w in 0..n {
            ends[w + 1] += ends[w] + upper(w).len();
        }
        let mut targets: Arc<[VId]> = std::iter::repeat_n(0, ends[n]).collect();
        let rows = Arc::make_mut(&mut targets);
        // Each row's start is its write cursor, as in [`Rows::fill`]: row
        // `w`'s has passed its lower entries when the walk reaches it.
        for w in 0..n {
            for &x in upper(w) {
                rows[ends[x as usize]] = w as VId;
                ends[x as usize] += 1;
            }
            let at = ends[w];
            rows[at..at + upper(w).len()].copy_from_slice(upper(w));
            ends[w] += upper(w).len();
        }
        ends.copy_within(..n, 1);
        ends[0] = 0;
        Csr { offsets, targets }
    }
}

/// `counts[v + 1]` = the entries [`Rows::fill`] gives row `v` for `edges`
/// over `n` vertices (self-loops skipped), checking every endpoint.
pub(crate) fn row_counts(n: usize, edges: &[(VId, VId)], mirror: bool) -> Vec<usize> {
    let mut counts = vec![0usize; n + 1];
    for &(u, v) in edges {
        assert!(
            (u as usize) < n && (v as usize) < n,
            "edge ({u}, {v}) out of range for {n} vertices"
        );
        if u != v {
            let row = if mirror { u.min(v) } else { u };
            counts[row as usize + 1] += 1;
        }
    }
    counts
}

/// Moves the distinct values of the sorted `row` to its front, in order,
/// and returns how many there are.
fn dedup_sorted(row: &mut [VId]) -> usize {
    let mut kept = 0usize;
    for i in 0..row.len() {
        if kept == 0 || row[i] != row[kept - 1] {
            row[kept] = row[i];
            kept += 1;
        }
    }
    kept
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_edges_sorts_and_dedups() {
        let csr = Csr::from_edges(4, &[(0, 2), (0, 1), (0, 2), (2, 3), (1, 1)]);
        assert_eq!(csr.num_vertices(), 4);
        assert_eq!(csr.num_edges(), 3); // duplicate (0,2) and self-loop (1,1) dropped
        assert_eq!(csr.neighbors(0), &[1, 2]);
        assert_eq!(csr.neighbors(1), &[] as &[VId]);
        assert_eq!(csr.neighbors(2), &[3]);
    }

    #[test]
    fn empty_graph() {
        let csr = Csr::empty(5);
        assert_eq!(csr.num_vertices(), 5);
        assert_eq!(csr.num_edges(), 0);
        for v in 0..5 {
            assert!(csr.neighbors(v).is_empty());
        }
    }

    #[test]
    fn transpose_reverses_edges() {
        let csr = Csr::from_edges(3, &[(0, 1), (0, 2), (1, 2)]);
        let t = csr.transpose();
        assert_eq!(t.neighbors(0), &[] as &[VId]);
        assert_eq!(t.neighbors(1), &[0]);
        assert_eq!(t.neighbors(2), &[0, 1]);
        assert_eq!(t.transpose(), csr);
    }

    #[test]
    fn has_edge_and_symmetry() {
        let asym = Csr::from_edges(3, &[(0, 1)]);
        assert!(asym.has_edge(0, 1));
        assert!(!asym.has_edge(1, 0));
        assert!(!asym.is_symmetric());
        let sym = Csr::from_edges(3, &[(0, 1), (1, 0)]);
        assert!(sym.is_symmetric());
    }

    #[test]
    fn edges_iterator_round_trips() {
        let input = vec![(0, 1), (1, 2), (2, 0), (2, 1)];
        let csr = Csr::from_edges(3, &input);
        let out: Vec<_> = csr.edges().collect();
        assert_eq!(out.len(), 4);
        for e in &input {
            assert!(out.contains(e));
        }
    }

    #[test]
    fn degree_and_max_degree() {
        let csr = Csr::from_edges(4, &[(0, 1), (0, 2), (0, 3), (1, 2)]);
        assert_eq!(csr.degree(0), 3);
        assert_eq!(csr.degree(1), 1);
        assert_eq!(csr.degree(3), 0);
        assert_eq!(csr.max_degree(), 3);
    }

    #[test]
    fn undirected_build_mirrors() {
        let csr = Csr::from_undirected_edges(3, &[(0, 1), (1, 2)]);
        assert_eq!(csr.num_edges(), 4);
        assert!(csr.is_symmetric());
        assert_eq!(csr.neighbors(1), &[0, 2]);
        let directed = Csr::from_edges(3, &[(0, 1), (1, 2)]);
        assert!(!directed.is_symmetric());
    }

    #[test]
    fn clones_share_storage_and_equal_builds_do_not() {
        let csr = Csr::from_undirected_edges(3, &[(0, 1), (1, 2)]);
        assert!(csr.clone().shares_storage(&csr));
        let rebuilt = Csr::from_edges(3, &[(0, 1), (1, 0), (1, 2), (2, 1)]);
        assert_eq!(rebuilt, csr);
        assert!(!rebuilt.shares_storage(&csr));
        assert_eq!(csr.memory_bytes(), 4 * std::mem::size_of::<usize>() + 4 * std::mem::size_of::<VId>());
    }

    #[test]
    fn duplicate_undirected_edges_collapse() {
        let csr = Csr::from_undirected_edges(2, &[(0, 1), (1, 0), (0, 1)]);
        assert_eq!(csr.num_edges(), 2);
        assert_eq!((csr.neighbors(0), csr.neighbors(1)), (&[1][..], &[0][..]));
    }

    #[test]
    fn rows_past_one_chunk_sort_and_dedup_at_any_thread_count() {
        // Rows spanning several `ROW_CHUNK`s, each listed backwards and
        // twice, plus empty rows between them.
        let n = 2 * ROW_CHUNK + 7;
        let edges: Vec<(VId, VId)> = (0..n as VId)
            .rev()
            .flat_map(|u| [(u, (u * 7 + 1) % n as VId), (u, (u * 3 + 2) % n as VId)])
            .filter(|&(u, _)| u % 5 != 0)
            .flat_map(|e| [e, e])
            .collect();
        let serial = gnn_dm_par::with_threads(1, || Csr::from_undirected_edges(n, &edges));
        let mut expect: Vec<(VId, VId)> =
            edges.iter().flat_map(|&(u, v)| [(u, v), (v, u)]).filter(|&(u, v)| u != v).collect();
        expect.sort_unstable();
        expect.dedup();
        assert_eq!(serial.edges().collect::<Vec<_>>(), expect);
        for threads in [2, 3] {
            let got = gnn_dm_par::with_threads(threads, || Csr::from_undirected_edges(n, &edges));
            assert_eq!(got, serial, "threads {threads}");
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn from_edges_rejects_out_of_range() {
        let _ = Csr::from_edges(2, &[(0, 2)]);
    }

    #[test]
    fn from_parts_validates() {
        let csr = Csr::from_parts(vec![0, 2, 2], vec![0, 1]);
        assert_eq!(csr.neighbors(0), &[0, 1]);
    }

    #[test]
    #[should_panic(expected = "strictly sorted")]
    fn from_parts_rejects_unsorted() {
        let _ = Csr::from_parts(vec![0, 2], vec![1, 0]);
    }

    #[test]
    #[should_panic(expected = "must be vertices")]
    fn from_parts_rejects_out_of_range_targets() {
        let _ = Csr::from_parts(vec![0, 1, 1], vec![5]);
    }
}
