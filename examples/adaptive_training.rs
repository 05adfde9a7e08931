//! The paper's two training proposals in action: adaptive batch sizing
//! (§6.3.1) and fanout-rate hybrid sampling (§6.3.4), against their fixed
//! counterparts. Each run is one harness batch-prep spec trained with the
//! suite's convergence setup (`TrainExperiment::paper`: GCN, hidden 64,
//! lr 0.01, seed 5).
//!
//! Run: `cargo run --release --example adaptive_training`

use gnn_dm::graph::generate::{planted_partition, PplConfig};
use gnn_dm::harness::{GridSpec, Registry, SystemConfig, TrainExperiment};

fn main() {
    // A deliberately hard task (high feature noise, moderate homophily) so
    // the convergence differences are visible — see DESIGN.md.
    let graph = planted_partition(&PplConfig {
        n: 8000,
        avg_degree: 12.0,
        num_classes: 16,
        homophily: 0.6,
        skew: 0.8,
        feat_dim: 64,
        feat_noise: 10.0,
        seed: 42,
    });
    let reg = Registry::builtin();
    let exp = TrainExperiment::paper(&graph, 20);
    let train = |prep: &str| {
        let spec = GridSpec { batch_prep: prep.to_string(), ..GridSpec::default() };
        exp.run(&SystemConfig::from_spec(&reg, &spec).expect("batch-prep specs resolve"))
    };

    println!("--- adaptive batch size (paper §6.3.1) ---");
    let results: Vec<_> = [
        ("fixed 128", "fanout(5,5)+fixed(128)"),
        ("fixed 2048", "fanout(5,5)+fixed(2048)"),
        ("adaptive 128→2048", "fanout(5,5)+adaptive(128,2048,x2,every3)"),
    ]
    .into_iter()
    .map(|(label, prep)| (label, train(prep)))
    .collect();
    let best = results.iter().map(|(_, r)| r.best_acc).fold(0.0f64, f64::max);
    for (label, r) in &results {
        println!(
            "  {:<18} best acc {:.3}, time to 97% of best: {}",
            label,
            r.best_acc,
            r.time_to(0.97 * best).map_or("never".into(), |t| format!("{t:.3}s"))
        );
    }

    println!("\n--- fanout-rate hybrid sampling (paper §6.3.4) ---");
    for (label, prep) in [
        ("fanout (8,8)", "fanout(8,8)+fixed(512)"),
        ("rate 0.5", "rate(0.5,0.5;min=1)+fixed(512)"),
        ("hybrid f=8 / r=0.3", "hybrid(8,8;0.3,0.3;thr=24)+fixed(512)"),
    ] {
        println!("  {:<18} best acc {:.3}", label, train(prep).best_acc);
    }
    println!("\nTakeaway (paper §6.4): grow the batch during training; sample low-degree");
    println!("vertices by fanout and high-degree vertices by rate.");
}
