//! Partitioning study: compare all six partitioning methods of the paper's
//! §5 on one graph — static quality metrics, per-worker load ledgers from
//! the cluster simulator, and a short distributed training run — all
//! assembled through the harness registry: each method is one spec on the
//! partitioner axis of a declarative grid, not a hand-built special case.
//!
//! Run: `cargo run --release --example partitioning_study`

use gnn_dm::harness::{Axis, ClusterExperiment, Grid, GridSpec, Registry, TrainExperiment};
use gnn_dm::graph::datasets::{DatasetId, DatasetSpec};
use gnn_dm::partition::metrics;
use std::time::Instant;

fn main() {
    let graph = DatasetSpec::get(DatasetId::OgbProducts).generate_scaled(5000, 42);
    let reg = Registry::builtin();
    let base = GridSpec {
        batch_prep: "fanout(10,5)+fixed(256)".to_string(),
        parallel: "cluster(4)".to_string(),
        ..GridSpec::default()
    };
    let grid = Grid::over(base)
        .vary(Axis::Partitioner, reg.specs(Axis::Partitioner))
        .expect("partitioner sweep is a valid grid");
    let configs = grid.configs(&reg).expect("registered partitioners resolve");

    let exp = ClusterExperiment::paper(&graph);
    println!(
        "{:<10} {:>8} {:>9} {:>10} {:>10} {:>10} {:>9}",
        "method", "cut%", "locality", "comp_imb", "comm_MiB", "repl", "part_s"
    );
    for cfg in &configs {
        #[expect(clippy::disallowed_methods, reason = "this example reports real partitioning wall time (Figure 6)")]
        let start = Instant::now();
        let part = exp.partition(cfg);
        let part_s = start.elapsed().as_secs_f64();

        // Static quality metrics (§5.1's goals).
        let cut = metrics::edge_cut(&graph, &part) as f64 / graph.num_edges() as f64;
        let locality = metrics::l_hop_locality(&graph, &part, 2, 200);

        // Dynamic per-worker loads from one simulated epoch (§5.3.1/2).
        let sampler = cfg.batch_prep.sampler(&graph);
        let sim = exp.sim_with(&part, cfg.batch_prep.batch_size(0));
        let report = sim.simulate_epoch(&*sampler, 0);
        println!(
            "{:<10} {:>7.1}% {:>9.3} {:>10.3} {:>10.2} {:>10.2} {:>9.3}",
            cfg.partitioner.name(),
            cut * 100.0,
            locality,
            report.compute.imbalance(),
            report.comm.total_volume() as f64 / (1024.0 * 1024.0),
            part.replication_factor(),
            part_s,
        );
    }

    // Convergence under two contrasting methods (§5.3.4) — the same grid
    // machinery, restricted to the extremes.
    println!("\ndistributed training (4 workers, GCN):");
    let train = TrainExperiment::paper(&graph, 5);
    for cfg in configs
        .iter()
        .filter(|c| matches!(c.partitioner.spec().as_str(), "hash" | "metis-vet"))
    {
        let (result, epoch_s) = train.run_distributed(cfg);
        println!(
            "  {:<10} best val acc {:.3}, modelled epoch time {:.4}s",
            cfg.partitioner.name(),
            result.best_acc,
            epoch_s
        );
    }
    println!("\nLessons (paper §5.4): hash balances but over-communicates; Metis clusters");
    println!("cut communication; streaming trades partitioning time for locality.");
}
