//! `gnn-dm` — command-line interface to the GNN data-management evaluation
//! workspace.
//!
//! `partition`, `train` and `transfer` take their data-management choices
//! as `gnn-dm-harness` axis specs, parsed and range-checked by the axes'
//! own `parse`: the grammar every experiment's config id uses.
//!
//! ```console
//! $ gnn-dm generate --dataset OGB-Arxiv --scale 5000 --out arxiv.gndm
//! $ gnn-dm info arxiv.gndm
//! $ gnn-dm partition arxiv.gndm --partitioner metis-ve --workers 4
//! $ gnn-dm train arxiv.gndm --model gcn --epochs 10 --prep 'fanout(10,5)+fixed(512)'
//! $ gnn-dm transfer arxiv.gndm --transfer 'zero-copy+pipe(full)' --cache 'presample(0.3,1)'
//! ```

use gnn_dm::cluster::ClusterSim;
use gnn_dm::core::config::ModelKind;
use gnn_dm::core::convergence::train_single;
use gnn_dm::graph::datasets::DatasetSpec;
use gnn_dm::graph::{io, stats, Graph};
use gnn_dm::harness::{
    Axis, BatchPrep, Cache, GridSpec, HarnessError, Partitioner, Registry, SystemConfig, Transfer,
};
use gnn_dm::partition::metrics;
use gnn_dm::sampling::FanoutSampler;
use std::collections::BTreeMap;
use std::error::Error;
use std::io::{ErrorKind, Write};
use std::path::Path;
use std::process::ExitCode;

type Flags<'a> = BTreeMap<&'a str, &'a str>;
type CliResult = Result<(), Box<dyn Error>>;

/// The usage text. Dataset names and example specs come from the
/// registries that resolve them, so the text cannot drift from them.
fn usage() -> String {
    let reg = Registry::builtin();
    let examples = |axis| reg.specs(axis).join("  ");
    let datasets: Vec<&str> = DatasetSpec::all().iter().map(|d| d.name).collect();
    format!(
        "gnn-dm — GNN training data-management evaluation toolkit

USAGE:
  gnn-dm generate --dataset <NAME> [--scale N] [--seed N] --out <FILE>
  gnn-dm info <FILE>
  gnn-dm partition <FILE> [--partitioner SPEC] [--workers K] [--seed N]
  gnn-dm train <FILE> [--prep SPEC] [--model gcn|sage] [--epochs N]
               [--hidden N] [--lr X] [--seed N]
  gnn-dm transfer <FILE> [--transfer SPEC] [--cache SPEC] [--prep SPEC]

DATASETS: {}

SPECS are gnn-dm-harness axis specs (DESIGN.md §14.1); for example:
  --partitioner  {}
  --prep         {}
  --transfer     {}
  --cache        {}",
        datasets.join(", "),
        examples(Axis::Partitioner),
        examples(Axis::BatchPrep),
        examples(Axis::Transfer),
        examples(Axis::Cache),
    )
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args, &mut std::io::stdout().lock()) {
        Ok(()) => ExitCode::SUCCESS,
        // The reader went away (`gnn-dm info g.gndm | head -1`): it wants
        // no more output, which is not a failure.
        Err(e) if e.downcast_ref::<std::io::Error>().is_some_and(|e| e.kind() == ErrorKind::BrokenPipe) => {
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}\n\n{}", usage());
            ExitCode::FAILURE
        }
    }
}

/// Splits `args` into positional arguments and `--key value` flags. A key
/// outside `known`, a repeated key, or a key without a value is an error
/// naming it.
fn parse_flags<'a>(args: &'a [String], known: &[&str]) -> Result<(Vec<&'a str>, Flags<'a>), String> {
    let mut positional = Vec::new();
    let mut flags = BTreeMap::new();
    let mut args = args.iter().map(String::as_str);
    while let Some(a) = args.next() {
        let Some(key) = a.strip_prefix("--") else {
            positional.push(a);
            continue;
        };
        if !known.contains(&key) {
            return Err(format!("unknown flag --{key}"));
        }
        match args.next() {
            Some(v) if !v.starts_with("--") => {
                if flags.insert(key, v).is_some() {
                    return Err(format!("--{key} is given twice"));
                }
            }
            _ => return Err(format!("--{key} needs a value")),
        }
    }
    Ok((positional, flags))
}

/// Parses `args` against `known` and loads the one graph file among them.
fn graph_and_flags<'a>(args: &'a [String], known: &[&str]) -> Result<(Graph, Flags<'a>), String> {
    let (positional, flags) = parse_flags(args, known)?;
    let [path] = positional[..] else {
        return Err(format!("expected one graph file, got {}", positional.len()));
    };
    let graph = io::load(Path::new(path)).map_err(|e| format!("cannot load {path}: {e}"))?;
    Ok((graph, flags))
}

fn flag_parse<T: std::str::FromStr>(flags: &Flags, key: &str, default: T) -> Result<T, String> {
    match flags.get(key) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| format!("invalid value for --{key}: {v}")),
    }
}

/// [`flag_parse`], then a range check: a value `ok` rejects is an error
/// that names the flag and the range `want`.
fn flag_in<T: std::str::FromStr + std::fmt::Display>(
    flags: &Flags,
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

/// The axis value `--key` spells (`default` when absent), parsed by the
/// axis's own `parse`; an error names the flag.
fn spec_flag<T>(
    flags: &Flags,
    key: &str,
    default: &str,
    parse: fn(&str) -> Result<T, HarnessError>,
) -> Result<T, String> {
    parse(flags.get(key).copied().unwrap_or(default)).map_err(|e| format!("invalid value for --{key}: {e}"))
}

fn run(args: &[String], out: &mut impl Write) -> CliResult {
    let Some(command) = args.first() else {
        return Err("no command given".into());
    };
    let rest = &args[1..];
    match command.as_str() {
        "generate" => cmd_generate(rest, out),
        "info" => cmd_info(rest, out),
        "partition" => cmd_partition(rest, out),
        "train" => cmd_train(rest, out),
        "transfer" => cmd_transfer(rest, out),
        "help" | "--help" | "-h" => Ok(writeln!(out, "{}", usage())?),
        other => Err(format!("unknown command: {other}").into()),
    }
}

fn cmd_generate(args: &[String], out: &mut impl Write) -> CliResult {
    let (positional, flags) = parse_flags(args, &["dataset", "scale", "seed", "out"])?;
    if let Some(arg) = positional.first() {
        return Err(format!("unexpected argument: {arg}").into());
    }
    let name = flags.get("dataset").ok_or("--dataset is required")?;
    let spec = DatasetSpec::all()
        .iter()
        .find(|d| d.name.eq_ignore_ascii_case(name))
        .ok_or_else(|| format!("unknown dataset: {name}"))?;
    // Two vertices is the smallest graph with the generator's two classes.
    let scale = flag_in(&flags, "scale", 5000, |&n| n >= 2, "at least 2")?;
    let seed: u64 = flag_parse(&flags, "seed", 42)?;
    let path = flags.get("out").ok_or("--out is required")?;
    let graph = spec.generate_scaled(scale, seed);
    io::save(&graph, Path::new(path)).map_err(|e| format!("cannot write {path}: {e}"))?;
    writeln!(
        out,
        "wrote {path}: {} vertices, {} edges, {} features, {} classes",
        graph.num_vertices(),
        graph.num_edges(),
        graph.feat_dim(),
        graph.num_classes
    )?;
    Ok(())
}

fn cmd_info(args: &[String], out: &mut impl Write) -> CliResult {
    let (g, _) = graph_and_flags(args, &[])?;
    let (tr, va, te) = g.split.counts();
    writeln!(out, "vertices:     {}", g.num_vertices())?;
    writeln!(out, "edges:        {}", g.num_edges())?;
    writeln!(out, "features:     {} ({} B/row)", g.feat_dim(), g.features.row_bytes())?;
    writeln!(out, "classes:      {}", g.num_classes)?;
    writeln!(out, "split:        {tr} train / {va} val / {te} test")?;
    writeln!(out, "degree gini:  {:.3}", stats::degree_gini(&g.out))?;
    writeln!(out, "clustering:   {:.4}", stats::avg_clustering(&g.out, 2000))?;
    writeln!(out, "max degree:   {}", g.out.max_degree())?;
    writeln!(out, "memory:       {:.1} MiB adjacency", g.out.memory_bytes() as f64 / (1 << 20) as f64)?;
    Ok(())
}

fn cmd_partition(args: &[String], out: &mut impl Write) -> CliResult {
    let (g, flags) = graph_and_flags(args, &["partitioner", "workers", "seed"])?;
    let partitioner = spec_flag(&flags, "partitioner", "metis-ve", Partitioner::parse)?;
    let n = g.num_vertices();
    let want = format!("between 1 and the graph's {n} vertices");
    let workers = flag_in(&flags, "workers", 4, |k| (1..=n).contains(k), &want)?;
    let seed: u64 = flag_parse(&flags, "seed", 7)?;
    #[expect(clippy::disallowed_methods, reason = "the CLI reports real partitioning wall time")]
    let start = std::time::Instant::now();
    let part = partitioner.build(&g, workers, seed);
    let elapsed = start.elapsed().as_secs_f64();
    writeln!(out, "method:        {}", partitioner.name())?;
    writeln!(out, "time:          {elapsed:.3}s")?;
    writeln!(out, "sizes:         {:?}", part.sizes())?;
    writeln!(out, "train counts:  {:?}", part.train_counts(&g))?;
    let cut = metrics::edge_cut(&g, &part);
    writeln!(out, "edge cut:      {} ({:.1}%)", cut, 100.0 * cut as f64 / g.num_edges() as f64)?;
    writeln!(out, "2-hop local:   {:.3}", metrics::l_hop_locality(&g, &part, 2, 300))?;
    writeln!(out, "replication:   {:.2}", part.replication_factor())?;
    let sampler = FanoutSampler::new(vec![10, 5]);
    let sim = ClusterSim { graph: &g, part: &part, batch_size: 256, seed };
    let report = sim.simulate_epoch(&sampler, 0);
    writeln!(out, "comm volume:   {:.2} MiB/epoch", report.comm.total_volume() as f64 / (1 << 20) as f64)?;
    writeln!(out, "comp imbal.:   {:.3}", report.compute.imbalance())?;
    Ok(())
}

fn cmd_train(args: &[String], out: &mut impl Write) -> CliResult {
    let (g, flags) = graph_and_flags(args, &["prep", "model", "epochs", "hidden", "lr", "seed"])?;
    let prep = spec_flag(&flags, "prep", "fanout(10,5)+fixed(512)", BatchPrep::parse)?;
    let sampler = prep.sampler(&g);
    // `train_single` builds a two-layer model, which consumes exactly two hops.
    if sampler.num_layers() != 2 {
        let spec = prep.spec();
        return Err(format!("invalid value for --prep: {spec} (the sampler must have two layers)").into());
    }
    let model = match flags.get("model").unwrap_or(&"gcn").to_ascii_lowercase().as_str() {
        "gcn" => ModelKind::Gcn,
        "sage" => ModelKind::Sage,
        other => return Err(format!("unknown model: {other}").into()),
    };
    let epochs: usize = flag_parse(&flags, "epochs", 10)?;
    let hidden: usize = flag_parse(&flags, "hidden", 128)?;
    let lr = flag_in(&flags, "lr", 0.01f32, |x| x.is_finite() && *x > 0.0, "finite and above 0")?;
    let seed: u64 = flag_parse(&flags, "seed", 5)?;
    let result =
        train_single(&g, model, hidden, &*sampler, &prep.selection(&g), prep.schedule(), lr, epochs, seed);
    for p in &result.curve {
        writeln!(
            out,
            "epoch {:>3}: loss {:.4}  val acc {:.3}  sim time {:.3}s",
            p.epoch, p.train_loss, p.val_acc, p.sim_time
        )?;
    }
    writeln!(out, "best val accuracy: {:.3}", result.best_acc)?;
    writeln!(out, "test accuracy:     {:.3}", result.test_acc)?;
    Ok(())
}

fn cmd_transfer(args: &[String], out: &mut impl Write) -> CliResult {
    let (g, flags) = graph_and_flags(args, &["transfer", "cache", "prep"])?;
    let prep = spec_flag(&flags, "prep", "fanout(25,10)+fixed(512)", BatchPrep::parse)?;
    // The hetero trainer samples with a `FanoutSampler` over the prep's
    // fanouts whatever the spec's sampler is; only fanout specs mean that.
    let spec = prep.spec();
    if !spec.starts_with("fanout(") {
        return Err(format!("invalid value for --prep: {spec} (transfer needs a fanout(..) sampler)").into());
    }
    let system = SystemConfig {
        batch_prep: prep,
        transfer: spec_flag(&flags, "transfer", "zero-copy", Transfer::parse)?,
        cache: spec_flag(&flags, "cache", "none", Cache::parse)?,
        ..SystemConfig::from_spec(&Registry::builtin(), &GridSpec::default())?
    };
    let t = system.hetero_trainer(&g).run_epoch_model(0);
    writeln!(out, "batches:        {}", t.num_batches)?;
    writeln!(out, "batch prep:     {:.4}s", t.bp)?;
    writeln!(out, "data transfer:  {:.4}s (gather {:.4}s)", t.dt, t.gather)?;
    writeln!(out, "nn compute:     {:.4}s", t.nn)?;
    writeln!(out, "epoch makespan: {:.4}s", t.makespan)?;
    writeln!(out, "pcie traffic:   {:.1} MiB", t.pcie_bytes as f64 / (1 << 20) as f64)?;
    writeln!(out, "cache hit rate: {:.1}%", t.cache_hit_rate * 100.0)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    /// [`run`] with its output discarded and its error as text.
    fn run_quiet(line: &str) -> Result<(), String> {
        run(&argv(line), &mut std::io::sink()).map_err(|e| e.to_string())
    }

    #[test]
    fn parse_flags_splits_positional_and_keyed() {
        let args = argv("file.gndm --partitioner metis-ve --workers 4");
        let (pos, flags) = parse_flags(&args, &["partitioner", "workers", "seed"]).unwrap();
        assert_eq!(pos, vec!["file.gndm"]);
        assert_eq!(flags.get("partitioner"), Some(&"metis-ve"));
        assert_eq!(flags.get("workers"), Some(&"4"));
        assert_eq!(flags.get("seed"), None);
    }

    #[test]
    fn parse_flags_handles_adjacent_flags() {
        let known = ["epochs", "seed"];
        let args = argv("--epochs 3 --seed 64");
        let (_, flags) = parse_flags(&args, &known).unwrap();
        assert_eq!(flags.get("epochs"), Some(&"3"));
        assert_eq!(flags.get("seed"), Some(&"64"));
        // A flag followed by a flag has no value of its own.
        let err = parse_flags(&argv("--epochs --seed 64"), &known).unwrap_err();
        assert!(err.contains("--epochs"), "{err}");
        let err = parse_flags(&argv("--seed 1 --seed 2"), &known).unwrap_err();
        assert!(err.contains("--seed"), "{err}");
    }

    #[test]
    fn flag_parse_defaults_and_errors() {
        let args = argv("--epochs notanumber");
        let (_, flags) = parse_flags(&args, &["epochs"]).unwrap();
        assert_eq!(flag_parse::<usize>(&flags, "missing", 7).unwrap(), 7);
        assert!(flag_parse::<usize>(&flags, "epochs", 1).is_err());
    }

    #[test]
    fn unknown_command_is_an_error() {
        assert!(run_quiet("frobnicate").is_err());
        assert!(run_quiet("").is_err());
    }

    #[test]
    fn missing_file_reports_cleanly() {
        let err = run_quiet("info /definitely/not/a/file.gndm").unwrap_err();
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
            run_quiet(&format!("generate --dataset OGB-Arxiv --scale 16 --out {path}")).unwrap();
            format!("{command} {path} {flags}")
        };
        let result = run_quiet(&line);
        let _ = std::fs::remove_file(path);
        let err = result.expect_err(&line);
        assert!(err.contains(&format!("--{flag}")), "{line}: {err}");
    }

    #[test]
    fn train_rejects_batch_zero() {
        rejects("train_batch", "train", "--prep fanout(10,5)+fixed(0)", "prep");
    }

    #[test]
    fn transfer_rejects_batch_zero() {
        rejects("transfer_batch", "transfer", "--prep fanout(25,10)+fixed(0)", "prep");
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
        rejects("ratio_nan", "transfer", "--cache degree(nan)", "cache");
    }

    #[test]
    fn transfer_rejects_ratio_above_one() {
        rejects("ratio_two", "transfer", "--cache degree(2)", "cache");
    }

    #[test]
    fn transfer_rejects_hybrid_threshold_above_one() {
        rejects("threshold", "transfer", "--transfer hybrid(7)", "transfer");
    }

    #[test]
    fn train_rejects_zero_fanout() {
        rejects("fanout", "train", "--prep fanout(0,0)+fixed(512)", "prep");
    }

    #[test]
    fn train_rejects_one_layer_fanout() {
        rejects("fanout_one", "train", "--prep fanout(5)+fixed(512)", "prep");
    }

    #[test]
    fn train_rejects_three_layer_fanout() {
        rejects("fanout_three", "train", "--prep fanout(5,5,5)+fixed(512)", "prep");
    }

    #[test]
    fn train_rejects_nan_lr() {
        rejects("lr_nan", "train", "--lr nan", "lr");
    }

    #[test]
    fn train_rejects_negative_lr() {
        rejects("lr_negative", "train", "--lr -1", "lr");
    }

    /// `HeteroTrainer` samples with `FanoutSampler(cfg.fanouts)`, so a rate
    /// prep would silently price the default fanouts.
    #[test]
    fn transfer_rejects_non_fanout_prep() {
        rejects("rate_prep", "transfer", "--prep rate(0.5,0.5;min=1)+fixed(512)", "prep");
    }

    /// A misspelt flag, and every spelling the spec flags replaced, is an
    /// error naming it rather than a run with the defaults.
    #[test]
    fn unknown_flags_are_rejected() {
        rejects("typo", "train", "--fanot 5,5", "fanot");
        for (command, flag) in [
            ("partition", "method"),
            ("train", "batch"),
            ("train", "fanout"),
            ("train", "adaptive"),
            ("transfer", "batch"),
            ("transfer", "threshold"),
            ("transfer", "pipeline"),
            ("transfer", "ratio"),
        ] {
            rejects(&format!("old_{command}_{flag}"), command, &format!("--{flag} 1"), flag);
        }
    }

    #[test]
    fn flag_without_a_value_is_rejected() {
        rejects("bare_last", "train", "--prep", "prep");
        rejects("bare_mid", "train", "--seed --epochs 1", "seed");
    }
}
