//! `metis-raw(refine=N)` is Metis-VE with its refinement passes
//! overridden: at the default four passes it must reproduce `metis-ve`
//! exactly, on a directed graph (whose reverse-only in-edges the finest
//! level adds) and at a k large enough that the coarsening floor `8k`
//! exceeds 64.

use gnn_dm_graph::datasets::{DatasetId, DatasetSpec};
use gnn_dm_graph::{Csr, Graph};
use gnn_dm_harness::Partitioner;

/// The 3 000-vertex Arxiv graph reduced to its `u < v` edges.
fn directed_arxiv() -> Graph {
    let g = DatasetSpec::get(DatasetId::OgbArxiv).generate_scaled(3000, 5);
    let edges: Vec<(u32, u32)> = g.out.edges().filter(|&(u, v)| u < v).collect();
    let out = Csr::from_edges(g.num_vertices(), &edges);
    Graph { inn: out.transpose(), out, ..g }
}

#[test]
fn metis_raw_at_four_passes_is_metis_ve() {
    let raw = Partitioner::parse("metis-raw(refine=4)").expect("valid spec");
    let ve = Partitioner::parse("metis-ve").expect("valid spec");
    let directed = directed_arxiv();
    let symmetric = DatasetSpec::get(DatasetId::OgbArxiv).generate_scaled(3000, 5);
    for g in [&directed, &symmetric] {
        for k in [4, 16] {
            assert_eq!(
                raw.build(g, k, 7).assignment,
                ve.build(g, k, 7).assignment,
                "k = {k}, {} edges",
                g.num_edges()
            );
        }
    }
}
