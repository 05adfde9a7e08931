//! The repo's reference benchmark. See `benchmark/README.md` for what each
//! workload and metric means and `BENCHMARK.json` for the contract.
//!
//! With `--workload W` this process *is* the run: it sets the workload up,
//! drives the timed loop, checks the outputs and prints every metric by
//! name, the last line being one JSON object. Without it (or with `--runs`)
//! it starts one fresh process of itself per run, because the first pass
//! over any code in a process is up to twice as slow as the second and
//! reusing a process would time a different program.

mod cluster;
mod hetero;
mod json;
mod mb;
mod probes;
mod report;
mod sets;
mod spans;
mod workload;

use probes::Yardstick;
use report::{Machine, END_TO_END, PER_LAYER};
use spans::Recorder;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use workload::{drive, Kind, Layer, LoopResult, Params};

/// Set-ups per end-to-end run; `setup_s` is their median. The first one is
/// the set-up the loop runs on.
const SETUP_REPEATS: usize = 3;
/// Worker threads when `GNN_DM_THREADS` is not set: `min(nproc, 4)`.
const MAX_DEFAULT_THREADS: usize = 4;

pub struct Cli {
    pub workload: Option<Kind>,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub runs: Option<usize>,
    pub smoke: bool,
    pub compare: Option<(PathBuf, PathBuf)>,
    pub out_dir: PathBuf,
    pub spec: PathBuf,
}

const USAGE: &str =
    "usage: run.sh [--workload W] [--seed N] [--seconds S] [--trace [0|1]] [--runs R] [--smoke]
       run.sh --compare A.json B.json
  W is one of mb_wide, mb_deep, hetero_transfer, cluster_epoch";

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: 42,
        seconds: 30,
        trace: false,
        runs: None,
        smoke: false,
        compare: None,
        out_dir: PathBuf::from("benchmark/out"),
        spec: PathBuf::from("BENCHMARK.json"),
    };
    let mut i = 0;
    let value = |i: &mut usize| -> Result<&String, String> {
        *i += 1;
        args.get(*i)
            .ok_or_else(|| format!("{} needs a value", args[*i - 1]))
    };
    fn number<T: std::str::FromStr>(flag: &str, s: &str) -> Result<T, String> {
        s.parse()
            .map_err(|_| format!("{flag}: `{s}` is not a number"))
    }
    while i < args.len() {
        match args[i].as_str() {
            "--workload" => {
                let w = value(&mut i)?;
                cli.workload =
                    Some(Kind::parse(w).ok_or_else(|| format!("unknown workload `{w}`"))?);
            }
            "--seed" => cli.seed = number("--seed", value(&mut i)?)?,
            "--seconds" => cli.seconds = number::<u64>("--seconds", value(&mut i)?)?.max(1),
            "--runs" => cli.runs = Some(number::<usize>("--runs", value(&mut i)?)?.max(1)),
            "--trace" => {
                // `--trace 0|1` (the driver's form) or a bare `--trace`.
                cli.trace = match args.get(i + 1).map(String::as_str) {
                    Some("0") => {
                        i += 1;
                        false
                    }
                    Some("1") => {
                        i += 1;
                        true
                    }
                    _ => true,
                };
            }
            "--smoke" => cli.smoke = true,
            "--compare" => {
                let a = PathBuf::from(value(&mut i)?);
                cli.compare = Some((a, PathBuf::from(value(&mut i)?)));
            }
            "--out-dir" => cli.out_dir = PathBuf::from(value(&mut i)?),
            "--spec" => cli.spec = PathBuf::from(value(&mut i)?),
            other => return Err(format!("unknown argument `{other}`")),
        }
        i += 1;
    }
    Ok(cli)
}

pub fn threads() -> usize {
    std::env::var("GNN_DM_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map_or(1, |n| n.get())
                .min(MAX_DEFAULT_THREADS)
        })
}

/// Sets the workload up and drives the loop, then (end-to-end run only) sets
/// it up `SETUP_REPEATS - 1` more times for the `setup_s` median. Returns each
/// set-up's wall seconds with the yardstick seconds measured around it.
///
/// The order matters when the allocator is left to adapt (README, "Allocator
/// regime"): a process that has freed one large block before the loop runs
/// `mb_wide` iterations about twice as fast as one that has not, and a user's
/// process sets up once. So the loop runs on the first set-up of a fresh
/// process, and everything else that allocates — repeated set-ups, ceiling
/// probes — comes after it.
fn run_workload(
    p: &Params,
    rec: &mut Recorder,
    yardstick: &Yardstick,
) -> (Vec<(f64, f64)>, LoopResult, Layer) {
    let threads = gnn_dm_par::thread_count();
    macro_rules! run {
        ($module:ident) => {{
            let timing = yardstick.start(threads);
            let graph = $module::graph(p, rec);
            let mut w = $module::build(&graph, p, rec);
            let mut setups = vec![timing.finish()];
            let result = drive(&mut w, p.iterations(), rec, yardstick);
            let mut layer = Layer::new();
            if p.trace {
                use workload::Workload as _;
                w.layer_counters(&mut layer);
                layer.insert("graph.edges", graph.num_edges() as f64);
                layer.insert(
                    "graph.feature_bytes",
                    (graph.num_vertices() * graph.feat_dim() * 4) as f64,
                );
            }
            drop(w);
            drop(graph);
            let mut off = Recorder::new(false);
            for _ in 1..if p.trace { 1 } else { SETUP_REPEATS } {
                let timing = yardstick.start(threads);
                let graph = $module::graph(p, &mut off);
                std::hint::black_box(&$module::build(&graph, p, &mut off));
                setups.push(timing.finish());
            }
            (setups, result, layer)
        }};
    }
    match p.kind {
        Kind::MbWide | Kind::MbDeep => run!(mb),
        Kind::HeteroTransfer => run!(hetero),
        Kind::ClusterEpoch => run!(cluster),
    }
}

/// One run in this process. Prints every metric by name with its unit and,
/// as the last line, the result object.
fn single_run(cli: &Cli, kind: Kind) -> ExitCode {
    let p = Params {
        kind,
        seed: cli.seed,
        seconds: cli.seconds,
        smoke: cli.smoke,
        trace: cli.trace,
    };
    let threads = threads();
    let mut rec = Recorder::new(p.trace);
    let (values, result, table, setups) = gnn_dm_par::with_threads(threads, || {
        let yardstick = Yardstick::new();
        let (setups, result, mut layer) = run_workload(&p, &mut rec, &yardstick);
        if p.trace {
            let machine = Machine {
                threads,
                dispatch_us: probes::dispatch_us(),
                peak_gflops: probes::peak_gflops(),
                copy_gbps: probes::copy_gbps(),
            };
            report::per_layer(kind, &mut layer, &rec.totals(), &result, &machine);
            layer.insert("bench.spans", rec.spans().len() as f64);
            let values = PER_LAYER
                .iter()
                .map(|(n, _)| layer.get(n).copied().unwrap_or(0.0))
                .collect();
            (values, result, &PER_LAYER[..], setups)
        } else {
            let values = report::end_to_end(&setups, &result, probes::peak_rss_mb());
            (values, result, &END_TO_END[..], setups)
        }
    });

    let mut failures = result.failures.clone();
    // The traced run leaves its spans behind, the end-to-end run its
    // iteration series (where drift and noisy stretches can be seen).
    let (file, text) = if p.trace {
        (format!("trace_{}.json", kind.name()), rec.to_json())
    } else {
        let list = |xs: &[f64]| xs.iter().map(f64::to_string).collect::<Vec<_>>().join(",");
        let text = format!(
            "{{\"iter_s\":[{}],\"yardstick_s\":[{}]}}\n",
            list(&result.iter_s),
            list(&result.yardstick_s)
        );
        (format!("iter_s_{}.json", kind.name()), text)
    };
    let path = cli.out_dir.join(file);
    if let Err(e) = std::fs::create_dir_all(&cli.out_dir).and_then(|()| std::fs::write(&path, text))
    {
        failures.push(format!("cannot write {}: {e}", path.display()));
    }
    if p.trace {
        print_attribution(&rec, &result);
    }
    let env = |name: &str| std::env::var(name).unwrap_or_else(|_| "adaptive".to_string());
    println!(
        "workload {} seed {} seconds {} threads {threads} iterations {} trace {}{} malloc-mmap/trim-threshold {}/{}",
        kind.name(),
        p.seed,
        p.seconds,
        result.iterations,
        u8::from(p.trace),
        if p.smoke { " smoke" } else { "" },
        env("MALLOC_MMAP_THRESHOLD_"),
        env("MALLOC_TRIM_THRESHOLD_")
    );
    let mut metrics = String::new();
    for ((name, unit), value) in table.iter().zip(&values) {
        println!("  {name:<30} {value:>18.6} {unit}");
        if !value.is_finite() {
            failures.push(format!("{name} is not finite"));
        }
        let sep = if metrics.is_empty() { "" } else { "," };
        let shown = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(
            metrics,
            "{sep}\"{name}\":{{\"value\":{shown},\"unit\":\"{unit}\"}}"
        );
    }
    for f in &failures {
        eprintln!("FAILED {}: {f}", kind.name());
    }
    let correct = failures.is_empty();
    if !p.trace {
        println!("{}", report::loop_summary(&setups, &result));
    }
    println!(
        "  ops {} failed {} correct {correct}",
        result.iterations, result.failed
    );
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{metrics}}}}}",
        result.iterations, result.failed
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Where the traced iterations' time went: self seconds by span name, as a
/// share of the traced loop (replays listed apart, outside the 100 %).
fn print_attribution(rec: &Recorder, r: &LoopResult) {
    let totals = rec.totals();
    let in_loop: f64 = r.traced_iter_s.iter().sum();
    println!(
        "self time by span, traced loop {in_loop:.3} s over {} iterations:",
        r.iterations
    );
    for (name, t) in &totals.real {
        if t.in_loop {
            println!(
                "  {name:<30} {:>10.4} s  {:>5.1} %  {} calls",
                t.self_s,
                100.0 * t.self_s / in_loop,
                t.calls
            );
        } else {
            println!(
                "  {name:<30} {:>10.4} s   set-up, {} calls",
                t.self_s, t.calls
            );
        }
    }
    for (name, t) in &totals.replay {
        println!(
            "  {name:<30} {:>10.4} s   replay, {} calls",
            t.self_s, t.calls
        );
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_cli(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some((a, b)) = &cli.compare {
        return sets::compare(a, b, &cli.spec);
    }
    match (cli.workload, cli.runs) {
        (Some(kind), None) => single_run(&cli, kind),
        _ => sets::run_set(&cli),
    }
}
