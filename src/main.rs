//! `gnn-dm` — command-line interface to the GNN data-management evaluation
//! workspace.
//!
//! ```console
//! $ gnn-dm generate --dataset OGB-Arxiv --scale 5000 --out arxiv.gndm
//! $ gnn-dm info arxiv.gndm
//! $ gnn-dm partition arxiv.gndm --method metis-ve --workers 4
//! $ gnn-dm train arxiv.gndm --model gcn --epochs 10 --batch 512 --fanout 10,5
//! $ gnn-dm transfer arxiv.gndm --transfer zero-copy --pipeline full --cache presample
//! ```

use gnn_dm::cluster::ClusterSim;
use gnn_dm::core::config::ModelKind;
use gnn_dm::core::convergence::train_single;
use gnn_dm::core::trainer::{HeteroTrainer, HeteroTrainerConfig};
use gnn_dm::device::cache::CachePolicy;
use gnn_dm::device::pipeline::PipelineMode;
use gnn_dm::device::transfer::TransferMethod;
use gnn_dm::graph::datasets::DatasetSpec;
use gnn_dm::graph::{io, stats, Graph};
use gnn_dm::partition::{metrics, partition_graph, PartitionMethod};
use gnn_dm::sampling::{BatchSelection, BatchSizeSchedule, FanoutSampler};
use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;

const USAGE: &str = "gnn-dm — GNN training data-management evaluation toolkit

USAGE:
  gnn-dm generate --dataset <NAME> [--scale N] [--seed N] --out <FILE>
  gnn-dm info <FILE>
  gnn-dm partition <FILE> [--method M] [--workers K] [--seed N]
  gnn-dm train <FILE> [--model gcn|sage] [--epochs N] [--batch N]
               [--fanout A,B] [--adaptive] [--hidden N] [--lr X] [--seed N]
  gnn-dm transfer <FILE> [--transfer extract-load|zero-copy|hybrid]
               [--pipeline none|bp|full] [--cache none|degree|presample]
               [--ratio X] [--batch N]

DATASETS: Reddit, OGB-Arxiv, OGB-Products, OGB-Papers, Amazon,
          LiveJournal, Lj-large, Lj-links, Enwiki-links
METHODS:  hash, metis-v, metis-ve, metis-vet, stream-v, stream-b";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}\n\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}

/// Splits `args` into positional arguments and `--key value` flags
/// (`--adaptive`-style switches get the value `"true"`).
fn parse_flags(args: &[String]) -> Result<(Vec<&str>, BTreeMap<&str, &str>), String> {
    let mut positional = Vec::new();
    let mut flags = BTreeMap::new();
    let mut i = 0;
    while i < args.len() {
        let a = args[i].as_str();
        if let Some(key) = a.strip_prefix("--") {
            let value = args.get(i + 1).map(String::as_str);
            match value {
                Some(v) if !v.starts_with("--") => {
                    flags.insert(key, v);
                    i += 2;
                }
                _ => {
                    flags.insert(key, "true");
                    i += 1;
                }
            }
        } else {
            positional.push(a);
            i += 1;
        }
    }
    Ok((positional, flags))
}

fn flag_parse<T: std::str::FromStr>(
    flags: &BTreeMap<&str, &str>,
    key: &str,
    default: T,
) -> Result<T, String> {
    match flags.get(key) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| format!("invalid value for --{key}: {v}")),
    }
}

/// [`flag_parse`], then a range check: a value `ok` rejects is an error
/// that names the flag and the range `want`.
fn flag_in<T: std::str::FromStr + std::fmt::Display>(
    flags: &BTreeMap<&str, &str>,
    key: &str,
    default: T,
    ok: impl Fn(&T) -> bool,
    want: &str,
) -> Result<T, String> {
    let value = flag_parse(flags, key, default)?;
    if ok(&value) {
        Ok(value)
    } else {
        Err(format!("invalid value for --{key}: {value} (must be {want})"))
    }
}

/// A batch size: at least 1, as the harness grammar requires.
fn batch_flag(flags: &BTreeMap<&str, &str>) -> Result<usize, String> {
    flag_in(flags, "batch", 512, |&b| b >= 1, "at least 1")
}

/// A ratio or threshold: finite and in `[0, 1]`, as the harness grammar
/// requires (`NaN` and the infinities fail the range test).
fn unit_flag(flags: &BTreeMap<&str, &str>, key: &str, default: f64) -> Result<f64, String> {
    flag_in(flags, key, default, |x| (0.0..=1.0).contains(x), "a number in [0, 1]")
}

fn load_graph(path: &str) -> Result<Graph, String> {
    io::load(Path::new(path)).map_err(|e| format!("cannot load {path}: {e}"))
}

fn run(args: &[String]) -> Result<(), String> {
    let Some(command) = args.first() else {
        return Err("no command given".into());
    };
    let rest = &args[1..];
    let (positional, flags) = parse_flags(rest)?;
    match command.as_str() {
        "generate" => cmd_generate(&flags),
        "info" => cmd_info(&positional),
        "partition" => cmd_partition(&positional, &flags),
        "train" => cmd_train(&positional, &flags),
        "transfer" => cmd_transfer(&positional, &flags),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command: {other}")),
    }
}

fn cmd_generate(flags: &BTreeMap<&str, &str>) -> Result<(), String> {
    let name = flags.get("dataset").ok_or("--dataset is required")?;
    let spec = DatasetSpec::all()
        .iter()
        .find(|d| d.name.eq_ignore_ascii_case(name))
        .ok_or_else(|| format!("unknown dataset: {name}"))?;
    // Two vertices is the smallest graph with the generator's two classes.
    let scale = flag_in(flags, "scale", 5000, |&n| n >= 2, "at least 2")?;
    let seed: u64 = flag_parse(flags, "seed", 42)?;
    let out = flags.get("out").ok_or("--out is required")?;
    let graph = spec.generate_scaled(scale, seed);
    io::save(&graph, Path::new(out)).map_err(|e| format!("cannot write {out}: {e}"))?;
    println!(
        "wrote {out}: {} vertices, {} edges, {} features, {} classes",
        graph.num_vertices(),
        graph.num_edges(),
        graph.feat_dim(),
        graph.num_classes
    );
    Ok(())
}

fn cmd_info(positional: &[&str]) -> Result<(), String> {
    let path = positional.first().ok_or("missing graph file")?;
    let g = load_graph(path)?;
    let (tr, va, te) = g.split.counts();
    println!("vertices:     {}", g.num_vertices());
    println!("edges:        {}", g.num_edges());
    println!("features:     {} ({} B/row)", g.feat_dim(), g.features.row_bytes());
    println!("classes:      {}", g.num_classes);
    println!("split:        {tr} train / {va} val / {te} test");
    println!("degree gini:  {:.3}", stats::degree_gini(&g.out));
    println!("clustering:   {:.4}", stats::avg_clustering(&g.out, 2000));
    println!("max degree:   {}", g.out.max_degree());
    println!("memory:       {:.1} MiB adjacency", g.out.memory_bytes() as f64 / (1 << 20) as f64);
    Ok(())
}

fn parse_method(name: &str) -> Result<PartitionMethod, String> {
    Ok(match name.to_ascii_lowercase().as_str() {
        "hash" => PartitionMethod::Hash,
        "metis-v" => PartitionMethod::MetisV,
        "metis-ve" => PartitionMethod::MetisVE,
        "metis-vet" => PartitionMethod::MetisVET,
        "stream-v" => PartitionMethod::StreamV,
        "stream-b" => PartitionMethod::StreamB,
        other => return Err(format!("unknown partition method: {other}")),
    })
}

fn cmd_partition(positional: &[&str], flags: &BTreeMap<&str, &str>) -> Result<(), String> {
    let path = positional.first().ok_or("missing graph file")?;
    let g = load_graph(path)?;
    let method = parse_method(flags.get("method").unwrap_or(&"metis-ve"))?;
    let n = g.num_vertices();
    let want = format!("between 1 and the graph's {n} vertices");
    let workers = flag_in(flags, "workers", 4, |k| (1..=n).contains(k), &want)?;
    let seed: u64 = flag_parse(flags, "seed", 7)?;
    #[expect(clippy::disallowed_methods, reason = "the CLI reports real partitioning wall time")]
    let start = std::time::Instant::now();
    let part = partition_graph(&g, method, workers, seed);
    let elapsed = start.elapsed().as_secs_f64();
    println!("method:        {}", method.name());
    println!("time:          {elapsed:.3}s");
    println!("sizes:         {:?}", part.sizes());
    println!("train counts:  {:?}", part.train_counts(&g));
    let cut = metrics::edge_cut(&g, &part);
    println!("edge cut:      {} ({:.1}%)", cut, 100.0 * cut as f64 / g.num_edges() as f64);
    println!("2-hop local:   {:.3}", metrics::l_hop_locality(&g, &part, 2, 300));
    println!("replication:   {:.2}", part.replication_factor());
    let sampler = FanoutSampler::new(vec![10, 5]);
    let sim = ClusterSim { graph: &g, part: &part, batch_size: 256, seed };
    let report = sim.simulate_epoch(&sampler, 0);
    println!("comm volume:   {:.2} MiB/epoch", report.comm.total_volume() as f64 / (1 << 20) as f64);
    println!("comp imbal.:   {:.3}", report.compute.imbalance());
    Ok(())
}

fn cmd_train(positional: &[&str], flags: &BTreeMap<&str, &str>) -> Result<(), String> {
    let path = positional.first().ok_or("missing graph file")?;
    let g = load_graph(path)?;
    let model = match flags.get("model").unwrap_or(&"gcn").to_ascii_lowercase().as_str() {
        "gcn" => ModelKind::Gcn,
        "sage" => ModelKind::Sage,
        other => return Err(format!("unknown model: {other}")),
    };
    let epochs: usize = flag_parse(flags, "epochs", 10)?;
    let batch = batch_flag(flags)?;
    let hidden: usize = flag_parse(flags, "hidden", 128)?;
    let lr = flag_in(flags, "lr", 0.01f32, |x| x.is_finite() && *x > 0.0, "finite and above 0")?;
    let seed: u64 = flag_parse(flags, "seed", 5)?;
    let fanout = flags.get("fanout").unwrap_or(&"10,5");
    let fanouts: Vec<usize> = fanout
        .split(',')
        .map(|s| match s.trim().parse() {
            Ok(f) if f >= 1 => Ok(f),
            _ => Err(format!("invalid value for --fanout: {s} (each layer must be at least 1)")),
        })
        .collect::<Result<_, _>>()?;
    // `train_single` builds a two-layer model, which consumes exactly two hops.
    if fanouts.len() != 2 {
        return Err(format!("invalid value for --fanout: {fanout} (must be two layers, A,B)"));
    }
    let schedule = if flags.contains_key("adaptive") {
        BatchSizeSchedule::Adaptive { start: batch / 4, max: batch, growth: 2.0, grow_every: 3 }
    } else {
        BatchSizeSchedule::Fixed(batch)
    };
    let sampler = FanoutSampler::new(fanouts);
    let result = train_single(
        &g,
        model,
        hidden,
        &sampler,
        &BatchSelection::Random,
        &schedule,
        lr,
        epochs,
        seed,
    );
    for p in &result.curve {
        println!(
            "epoch {:>3}: loss {:.4}  val acc {:.3}  sim time {:.3}s",
            p.epoch, p.train_loss, p.val_acc, p.sim_time
        );
    }
    println!("best val accuracy: {:.3}", result.best_acc);
    println!("test accuracy:     {:.3}", result.test_acc);
    Ok(())
}

fn cmd_transfer(positional: &[&str], flags: &BTreeMap<&str, &str>) -> Result<(), String> {
    let path = positional.first().ok_or("missing graph file")?;
    let g = load_graph(path)?;
    let batch = batch_flag(flags)?;
    let transfer = match flags.get("transfer").unwrap_or(&"zero-copy").to_ascii_lowercase().as_str() {
        "extract-load" => TransferMethod::ExtractLoad,
        "zero-copy" => TransferMethod::ZeroCopy,
        "hybrid" => TransferMethod::Hybrid { threshold: unit_flag(flags, "threshold", 0.5)? },
        other => return Err(format!("unknown transfer method: {other}")),
    };
    let pipeline = match flags.get("pipeline").unwrap_or(&"none").to_ascii_lowercase().as_str() {
        "none" => PipelineMode::None,
        "bp" => PipelineMode::OverlapBp,
        "full" => PipelineMode::Full,
        other => return Err(format!("unknown pipeline mode: {other}")),
    };
    let cache = match flags.get("cache").unwrap_or(&"none").to_ascii_lowercase().as_str() {
        "none" => None,
        "degree" => Some(CachePolicy::Degree),
        "presample" => Some(CachePolicy::PreSample),
        other => return Err(format!("unknown cache policy: {other}")),
    };
    let mut cfg = HeteroTrainerConfig::baseline(&g, batch);
    cfg.transfer = transfer;
    cfg.pipeline = pipeline;
    cfg.cache_policy = cache;
    cfg.cache_ratio = unit_flag(flags, "ratio", 0.3)?;
    let t = HeteroTrainer::new(&g, cfg).run_epoch_model(0);
    println!("batches:        {}", t.num_batches);
    println!("batch prep:     {:.4}s", t.bp);
    println!("data transfer:  {:.4}s (gather {:.4}s)", t.dt, t.gather);
    println!("nn compute:     {:.4}s", t.nn);
    println!("epoch makespan: {:.4}s", t.makespan);
    println!("pcie traffic:   {:.1} MiB", t.pcie_bytes as f64 / (1 << 20) as f64);
    println!("cache hit rate: {:.1}%", t.cache_hit_rate * 100.0);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parse_flags_splits_positional_and_keyed() {
        let args = argv("file.gndm --method metis-ve --workers 4 --adaptive");
        let (pos, flags) = parse_flags(&args).unwrap();
        assert_eq!(pos, vec!["file.gndm"]);
        assert_eq!(flags.get("method"), Some(&"metis-ve"));
        assert_eq!(flags.get("workers"), Some(&"4"));
        assert_eq!(flags.get("adaptive"), Some(&"true"), "switch flag");
    }

    #[test]
    fn parse_flags_handles_adjacent_flags() {
        let args = argv("--adaptive --batch 64");
        let (_, flags) = parse_flags(&args).unwrap();
        assert_eq!(flags.get("adaptive"), Some(&"true"));
        assert_eq!(flags.get("batch"), Some(&"64"));
    }

    #[test]
    fn flag_parse_defaults_and_errors() {
        let args = argv("--batch notanumber");
        let (_, flags) = parse_flags(&args).unwrap();
        assert_eq!(flag_parse::<usize>(&flags, "missing", 7).unwrap(), 7);
        assert!(flag_parse::<usize>(&flags, "batch", 1).is_err());
    }

    #[test]
    fn method_names_round_trip() {
        for m in PartitionMethod::all() {
            let parsed = parse_method(&m.name().to_ascii_lowercase()).unwrap();
            assert_eq!(parsed, m);
        }
        assert!(parse_method("nonsense").is_err());
    }

    #[test]
    fn unknown_command_is_an_error() {
        assert!(run(&argv("frobnicate")).is_err());
        assert!(run(&[]).is_err());
    }

    #[test]
    fn missing_file_reports_cleanly() {
        let err = run(&argv("info /definitely/not/a/file.gndm")).unwrap_err();
        assert!(err.contains("cannot load"), "{err}");
    }

    /// `gnn-dm <command> <graph> <flags>` must return an error naming
    /// `--flag`, not panic or run. `<graph>` is a 16-vertex OGB-Arxiv
    /// stand-in, one temp file per test so parallel tests never share one;
    /// `generate` gets it as its `--out` instead.
    fn rejects(test: &str, command: &str, flags: &str, flag: &str) {
        let path = std::env::temp_dir().join(format!("gnn-dm-cli-{}-{test}.gndm", std::process::id()));
        let path = path.to_str().expect("temp dir is UTF-8");
        let line = if command == "generate" {
            format!("generate --dataset OGB-Arxiv --out {path} {flags}")
        } else {
            run(&argv(&format!("generate --dataset OGB-Arxiv --scale 16 --out {path}"))).unwrap();
            format!("{command} {path} {flags}")
        };
        let result = run(&argv(&line));
        let _ = std::fs::remove_file(path);
        let err = result.expect_err(&line);
        assert!(err.contains(&format!("--{flag}")), "{line}: {err}");
    }

    #[test]
    fn train_rejects_batch_zero() {
        rejects("train_batch", "train", "--batch 0", "batch");
    }

    #[test]
    fn transfer_rejects_batch_zero() {
        rejects("transfer_batch", "transfer", "--batch 0", "batch");
    }

    #[test]
    fn partition_rejects_zero_workers() {
        rejects("workers_zero", "partition", "--workers 0", "workers");
    }

    #[test]
    fn partition_rejects_more_workers_than_vertices() {
        rejects("workers_many", "partition", "--workers 17", "workers");
    }

    #[test]
    fn generate_rejects_scale_zero() {
        rejects("scale_zero", "generate", "--scale 0", "scale");
    }

    #[test]
    fn generate_rejects_scale_one() {
        rejects("scale_one", "generate", "--scale 1", "scale");
    }

    #[test]
    fn transfer_rejects_nan_ratio() {
        rejects("ratio_nan", "transfer", "--cache degree --ratio nan", "ratio");
    }

    #[test]
    fn transfer_rejects_ratio_above_one() {
        rejects("ratio_two", "transfer", "--cache degree --ratio 2", "ratio");
    }

    #[test]
    fn transfer_rejects_hybrid_threshold_above_one() {
        rejects("threshold", "transfer", "--transfer hybrid --threshold 7", "threshold");
    }

    #[test]
    fn train_rejects_zero_fanout() {
        rejects("fanout", "train", "--fanout 0,0", "fanout");
    }

    #[test]
    fn train_rejects_one_layer_fanout() {
        rejects("fanout_one", "train", "--fanout 5", "fanout");
    }

    #[test]
    fn train_rejects_three_layer_fanout() {
        rejects("fanout_three", "train", "--fanout 5,5,5", "fanout");
    }

    #[test]
    fn train_rejects_nan_lr() {
        rejects("lr_nan", "train", "--lr nan", "lr");
    }

    #[test]
    fn train_rejects_negative_lr() {
        rejects("lr_negative", "train", "--lr -1", "lr");
    }
}
