//! Pins every Metis and streaming assignment bit for bit: 64-bit FNV-1a
//! fingerprints of `metis_extend` (all three variants, k ∈ {4, 8}) and
//! `metis_clusters` (k ∈ {8, 16, 64}) on small generated graphs, recorded
//! before the hierarchy moved to compressed rows with integer edge weights,
//! and of Stream-V's assignment and halos and Stream-B's assignment (both
//! scorers, k ∈ {4, 8}), recorded before their vertex sets were read off a
//! bitmap. Any change to a matching, contraction, region-growing,
//! refinement or streaming decision moves a fingerprint.

use gnn_dm_graph::datasets::{DatasetId, DatasetSpec};
use gnn_dm_graph::generate::{planted_partition, PplConfig};
use gnn_dm_graph::{Csr, Graph};
use gnn_dm_partition::metis::{metis_clusters, metis_extend, MetisVariant};
use gnn_dm_partition::stream::{stream_b, stream_b_fast, stream_v, stream_v_fast, DEFAULT_BLOCK_SIZE};

/// 64-bit FNV-1a with one step per assignment entry (the entry as `u64`).
fn fnv1a(assignment: &[u32]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &a in assignment {
        h ^= u64::from(a);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Keeps only the `u < v` edges, so the reverse-only in-neighbours the
/// partitioner adds to symmetrize a directed graph are exercised.
fn directed(g: Graph) -> Graph {
    let edges: Vec<(u32, u32)> = g.out.edges().filter(|&(u, v)| u < v).collect();
    let out = Csr::from_edges(g.num_vertices(), &edges);
    Graph { inn: out.transpose(), out, ..g }
}

/// The two small graphs the Metis and streaming pins share: a planted
/// partition and a directed OGB-Arxiv stand-in.
fn small_graphs() -> [Graph; 2] {
    let planted = planted_partition(&PplConfig {
        n: 2000,
        avg_degree: 12.0,
        num_classes: 8,
        homophily: 0.9,
        skew: 0.6,
        ..Default::default()
    });
    let arxiv_directed = directed(DatasetSpec::get(DatasetId::OgbArxiv).generate_scaled(3000, 5));
    [planted, arxiv_directed]
}

#[test]
fn metis_extend_fingerprints() {
    let mut got = Vec::new();
    for g in &small_graphs() {
        for variant in [MetisVariant::V, MetisVariant::VE, MetisVariant::VET] {
            for k in [4, 8] {
                got.push(fnv1a(&metis_extend(g, variant, k, 7).assignment));
            }
        }
    }
    let expect: [u64; 12] = [
        0x255a_5ceb_41ab_8fc8, // planted, V, k = 4
        0x1763_d74f_4638_6d0e, // planted, V, k = 8
        0x03d9_0bb4_075c_c328, // planted, VE, k = 4
        0xe11f_ec92_e5e6_a786, // planted, VE, k = 8
        0x882f_3f5b_1206_0841, // planted, VET, k = 4
        0x71a0_f76a_2946_316f, // planted, VET, k = 8
        0xc096_f83e_b222_e82e, // directed Arxiv, V, k = 4
        0xe11e_8198_d60c_efb6, // directed Arxiv, V, k = 8
        0xaa42_c865_e022_11ea, // directed Arxiv, VE, k = 4
        0x0c9e_a0a9_3fb1_cbfd, // directed Arxiv, VE, k = 8
        0xad21_a95c_8b76_cd37, // directed Arxiv, VET, k = 4
        0x203b_3813_7310_767e, // directed Arxiv, VET, k = 8
    ];
    assert_eq!(got, expect);
}

/// Stream-V (2 hops; assignment, then its halos one after the other, so a
/// halo that gains, loses or reorders a vertex moves the pin) and Stream-B
/// (default block size, seed 7; assignment), k ∈ {4, 8}. The faithful and
/// the fast scorer must both give the recorded values.
#[test]
fn stream_fingerprints() {
    let mut got = Vec::new();
    for g in &small_graphs() {
        for k in [4, 8] {
            for fast in [false, true] {
                let (v, b) = if fast {
                    (stream_v_fast(g, k, 2), stream_b_fast(g, k, DEFAULT_BLOCK_SIZE, 7))
                } else {
                    (stream_v(g, k, 2), stream_b(g, k, DEFAULT_BLOCK_SIZE, 7))
                };
                got.push((fast, [fnv1a(&v.assignment), fnv1a(&v.halos.concat()), fnv1a(&b.assignment)]));
            }
        }
    }
    let expect: [[u64; 3]; 4] = [
        [0x69dd_7d8b_2cf4_dbbd, 0x4796_af73_eadd_de4f, 0x379f_34f1_c5e3_fdc3], // planted, k = 4
        [0x92dd_32f3_b556_ab9e, 0x2698_e801_327b_e061, 0x3814_7b43_e26b_bb0e], // planted, k = 8
        [0x12d7_c5cf_ea0a_c5d3, 0x16a6_019a_d205_874a, 0x1a33_0deb_44c3_6110], // directed Arxiv, k = 4
        [0xe6f4_dbf1_eff6_dba8, 0x0d3c_1ab6_2b3a_5d30, 0x3d81_5581_fc25_be4a], // directed Arxiv, k = 8
    ];
    let expect: Vec<(bool, [u64; 3])> =
        expect.into_iter().flat_map(|pins| [(false, pins), (true, pins)]).collect();
    assert_eq!(got, expect);
}

#[test]
fn metis_clusters_fingerprints() {
    let cases = [(DatasetId::OgbArxiv, 16), (DatasetId::Reddit, 64), (DatasetId::OgbPapers, 8)];
    let got: Vec<u64> = cases
        .iter()
        .map(|&(id, k)| {
            let g = DatasetSpec::get(id).generate_scaled(3000, 5);
            fnv1a(&metis_clusters(&g, k, 1))
        })
        .collect();
    assert_eq!(got, [0x02e0_5fdc_36da_946d, 0xa088_a67d_80c5_246a, 0x0301_a386_f807_15e2]);
}

/// `(edge cut, FNV-1a)` of Metis-V, -VE and -VET (k = 4, seed 7) and of
/// `metis_clusters` (k = 16, seed 7) on one graph. A cluster assignment's
/// cut counts the directed `out` edges whose endpoints differ.
fn pins(g: &Graph) -> Vec<(usize, u64)> {
    let cut = |assignment: &[u32]| {
        g.out.edges().filter(|&(u, v)| assignment[u as usize] != assignment[v as usize]).count()
    };
    let mut got: Vec<(usize, u64)> = [MetisVariant::V, MetisVariant::VE, MetisVariant::VET]
        .into_iter()
        .map(|variant| metis_extend(g, variant, 4, 7).assignment)
        .map(|a| (cut(&a), fnv1a(&a)))
        .collect();
    let clusters = metis_clusters(g, 16, 7);
    got.push((cut(&clusters), fnv1a(&clusters)));
    got
}

/// The benchmark's `cluster_epoch` graph (a symmetric graph, whose finest
/// level is its own adjacency), a power-law LiveJournal stand-in, and a
/// directed variant of the first (whose finest level merges `out` and
/// `inn`), at 1 and 3 threads. Recorded before the hierarchy stopped
/// holding every level at once. About 25 s in a debug build, so it runs in
/// release from `scripts/check.sh`.
#[test]
#[ignore = "benchmark-sized graphs; run in release by scripts/check.sh"]
fn metis_pins_on_benchmark_sized_graphs() {
    let products = DatasetSpec::get(DatasetId::OgbProducts).generate_scaled(20_000, 42);
    let livejournal = DatasetSpec::get(DatasetId::LiveJournal).generate_scaled(40_000, 42);
    let products_directed = directed(products.clone());
    let expect: [[(usize, u64); 4]; 3] = [
        [
            (89_308, 0xfdd3_af83_77ca_096e), // Products, V
            (89_308, 0xfdd3_af83_77ca_096e), // Products, VE
            (96_454, 0x7f3c_c7a9_2707_4433), // Products, VET
            (129_334, 0x6296_2f8e_2724_2b94), // Products, clusters
        ],
        [
            (247_438, 0x4073_5265_aaf7_5aa8), // LiveJournal, V
            (234_182, 0xcf86_bf35_d75d_c8f8), // LiveJournal, VE
            (233_972, 0x3faa_ebbe_0420_c429), // LiveJournal, VET
            (295_648, 0xac5f_1228_aada_5fe4), // LiveJournal, clusters
        ],
        [
            (44_464, 0x1ef0_13c0_4798_effc), // directed Products, V
            (44_464, 0x1ef0_13c0_4798_effc), // directed Products, VE
            (48_466, 0x93e0_121a_8fcc_dcce), // directed Products, VET
            (68_077, 0xa1ab_e2c8_0b12_5ded), // directed Products, clusters
        ],
    ];
    for threads in [1, 3] {
        let got = gnn_dm_par::with_threads(threads, || {
            [&products, &livejournal, &products_directed].map(pins)
        });
        assert_eq!(got, expect.map(Vec::from), "{threads} threads");
    }
}
