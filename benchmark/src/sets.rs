//! Run sets and their comparison: `--runs R` runs the workloads round-robin,
//! each run a fresh process, and aggregates every metric by median and
//! quartiles into `out/set_<timestamp>.json`; `--compare A B` holds two sets
//! against the bounds in `BENCHMARK.json`.

use crate::json::Json;
use crate::report::{END_TO_END, PER_LAYER};
use crate::workload::Kind;
use crate::Cli;
use std::fmt::Write as _;
use std::path::Path;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

/// Runs per set unless `--runs` says otherwise: on the shared reference host
/// single runs of one build differ by 10–15 % even on `epoch_rel`.
const DEFAULT_RUNS: usize = 5;
/// End-to-end metrics that are simulated or counted, not timed: two sets of
/// the same inputs must agree on them exactly.
const EXACT: [&str; 2] = ["quality", "modelled_s"];
const EXACT_TOLERANCE: f64 = 1e-12;

/// Samples of one metric over the runs of a set.
struct Series {
    name: String,
    unit: String,
    values: Vec<f64>,
}

/// First quartile, median and third quartile as Python's
/// `statistics.quantiles(values, n=4)` gives them (the rule the acceptance
/// driver applies); a single sample is all three.
fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut x = values.to_vec();
    x.sort_by(f64::total_cmp);
    let n = x.len();
    if n < 2 {
        return [x.first().copied().unwrap_or(0.0); 3];
    }
    [1, 2, 3].map(|i| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (x[j - 1] * (4.0 - delta) + x[j] * delta) / 4.0
    })
}

/// Runs one child and returns its result object and, for a traced run, the
/// self-time table only the run itself can print.
fn run_child(cli: &Cli, kind: Kind, traced: bool) -> Result<(Json, String), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args([
        "--workload",
        kind.name(),
        "--trace",
        if traced { "1" } else { "0" },
    ])
    .args([
        "--seed",
        &cli.seed.to_string(),
        "--seconds",
        &cli.seconds.to_string(),
    ])
    .arg("--out-dir")
    .arg(&cli.out_dir)
    .stdout(Stdio::piped())
    .stderr(Stdio::inherit());
    if cli.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd.output().map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let attribution: String = stdout
        .lines()
        .take_while(|l| !l.starts_with("workload "))
        .map(|l| format!("    {l}\n"))
        .collect();
    let last = stdout.lines().last().unwrap_or_default();
    let result = Json::parse(last).map_err(|e| format!("no result line ({e})"))?;
    if !out.status.success() || result.get("correct") != Some(&Json::Bool(true)) {
        return Err(format!("run failed ({})", out.status));
    }
    Ok((result, attribution))
}

fn record(series: &mut Vec<Series>, result: &Json) {
    for (name, m) in result.get("metrics").map_or(&[][..], Json::fields) {
        let value = m.get("value").and_then(Json::num).unwrap_or(0.0);
        match series.iter_mut().find(|s| s.name == *name) {
            Some(s) => s.values.push(value),
            None => series.push(Series {
                name: name.clone(),
                unit: m
                    .get("unit")
                    .and_then(Json::str)
                    .unwrap_or_default()
                    .to_string(),
                values: vec![value],
            }),
        }
    }
}

fn series_json(series: &[Series]) -> String {
    let mut out = String::from("{");
    for (i, s) in series.iter().enumerate() {
        let [q1, median, q3] = quartiles(&s.values);
        let values: Vec<String> = s.values.iter().map(f64::to_string).collect();
        let _ = write!(
            out,
            "{}\"{}\":{{\"unit\":\"{}\",\"n\":{},\"median\":{median},\"q1\":{q1},\"q3\":{q3},\"values\":[{}]}}",
            if i == 0 { "" } else { "," },
            s.name,
            s.unit,
            s.values.len(),
            values.join(",")
        );
    }
    out.push('}');
    out
}

/// Names, units and workloads of `BENCHMARK.json` must be the tables this
/// program prints from.
fn check_spec(spec: &Path) -> Result<(), String> {
    let text = std::fs::read_to_string(spec).map_err(|e| format!("{}: {e}", spec.display()))?;
    let json = Json::parse(&text)?;
    let listed = |key: &str, field: &str| -> Vec<String> {
        let items = json.get(key).map_or(&[][..], Json::arr);
        items
            .iter()
            .map(|m| {
                m.get(field)
                    .and_then(Json::str)
                    .unwrap_or_default()
                    .to_string()
            })
            .collect()
    };
    let pairs = |table: &[(&str, &str)]| -> (Vec<String>, Vec<String>) {
        table
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .unzip()
    };
    let expected = [
        ("end_to_end", pairs(&END_TO_END)),
        ("per_layer", pairs(&PER_LAYER)),
    ];
    for (key, (names, units)) in expected {
        if listed(key, "name") != names || listed(key, "unit") != units {
            return Err(format!(
                "{}: `{key}` differs from the benchmark's metric table",
                spec.display()
            ));
        }
    }
    let workloads: Vec<String> = Kind::ALL.iter().map(|k| k.name().to_string()).collect();
    if listed("workloads", "name") != workloads {
        return Err(format!(
            "{}: `workloads` differs from the benchmark's",
            spec.display()
        ));
    }
    Ok(())
}

pub fn run_set(cli: &Cli) -> ExitCode {
    let kinds = cli.workload.map_or(Kind::ALL.to_vec(), |k| vec![k]);
    let runs = cli.runs.unwrap_or(if cli.smoke { 1 } else { DEFAULT_RUNS });
    let modes: &[bool] = if cli.trace || cli.smoke {
        &[false, true]
    } else {
        &[false]
    };
    // Per workload: end-to-end series, per-layer series.
    let mut samples: Vec<(Kind, Vec<Series>, Vec<Series>)> =
        kinds.iter().map(|&k| (k, Vec::new(), Vec::new())).collect();
    let mut failed = false;
    if cli.smoke {
        if let Err(e) = check_spec(&cli.spec) {
            eprintln!("FAILED {e}");
            failed = true;
        }
    }
    // Round-robin: never the same workload back to back, always a fresh process.
    for round in 1..=runs {
        for &traced in modes {
            for (kind, e2e, layer) in samples.iter_mut() {
                let t = Instant::now();
                let label = if traced { "traced" } else { "end-to-end" };
                print!("run {round}/{runs} {} {label}: ", kind.name());
                match run_child(cli, *kind, traced) {
                    Ok((result, attribution)) => {
                        println!("ok ({:.1} s)", t.elapsed().as_secs_f64());
                        print!("{attribution}");
                        record(if traced { layer } else { e2e }, &result);
                    }
                    Err(e) => {
                        println!("FAILED: {e}");
                        failed = true;
                    }
                }
            }
        }
    }

    let mut body = String::new();
    for (i, (kind, e2e, layer)) in samples.iter().enumerate() {
        println!("{}  (median [q1, q3] over {runs} runs)", kind.name());
        for s in e2e.iter().chain(layer) {
            let [q1, median, q3] = quartiles(&s.values);
            println!(
                "  {:<30} {median:>18.6} [{q1:.6}, {q3:.6}] {}",
                s.name, s.unit
            );
        }
        let _ = write!(
            body,
            "{}\"{}\":{{\"end_to_end\":{},\"per_layer\":{}}}",
            if i == 0 { "" } else { "," },
            kind.name(),
            series_json(e2e),
            series_json(layer)
        );
    }
    if !cli.smoke {
        let stamp = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map_or(0, |d| d.as_secs());
        let path = cli.out_dir.join(format!("set_{stamp}.json"));
        let text = format!(
            "{{\"seed\":{},\"seconds\":{},\"runs\":{runs},\"threads\":{},\"workloads\":{{{body}}}}}\n",
            cli.seed,
            cli.seconds,
            crate::threads()
        );
        match std::fs::create_dir_all(&cli.out_dir).and_then(|()| std::fs::write(&path, text)) {
            Ok(()) => println!("set written to {}", path.display()),
            Err(e) => {
                eprintln!("FAILED cannot write {}: {e}", path.display());
                failed = true;
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// One row per (workload, end-to-end metric): B against A. Fails when B is
/// worse than A by more than the metric's bound, or differs at all on an
/// exact metric of the same inputs; where the runs of either set spread
/// wider than the bound the pair is *unresolved*, not unchanged.
pub fn compare(a: &Path, b: &Path, spec: &Path) -> ExitCode {
    let (a, b, spec) = match (load(a), load(b), load(spec)) {
        (Ok(a), Ok(b), Ok(spec)) => (a, b, spec),
        (a, b, spec) => {
            for e in [a.err(), b.err(), spec.err()].into_iter().flatten() {
                eprintln!("{e}");
            }
            return ExitCode::from(2);
        }
    };
    let same_inputs = ["seed", "seconds", "threads"]
        .iter()
        .all(|k| a.get(k) == b.get(k));
    if !same_inputs {
        println!("the sets differ in seed, seconds or threads: simulated metrics are held to their bounds, not to equality");
    }
    println!(
        "{:<16} {:<12} {:>14} {:>14} {:>8} {:>7} {:>8}  verdict",
        "workload", "metric", "A median", "B median", "change", "bound", "spread"
    );
    let mut failed = false;
    for (workload, wa) in a.get("workloads").map_or(&[][..], Json::fields) {
        let Some(wb) = b.get("workloads").and_then(|w| w.get(workload)) else {
            continue;
        };
        for m in spec.get("end_to_end").map_or(&[][..], Json::arr) {
            let name = m.get("name").and_then(Json::str).unwrap_or_default();
            let bound = m.get("bound").and_then(Json::num).unwrap_or(0.0);
            let lower_is_better = m.get("better").and_then(Json::str) == Some("lower");
            let stat = |w: &Json, key: &str| {
                w.get("end_to_end")
                    .and_then(|e| e.get(name))
                    .and_then(|s| s.get(key))
                    .and_then(Json::num)
            };
            let (Some(ma), Some(mb)) = (stat(wa, "median"), stat(wb, "median")) else {
                continue;
            };
            let spread_of = |w: &Json, median: f64| {
                (stat(w, "q3").unwrap_or(median) - stat(w, "q1").unwrap_or(median)) / median.abs()
            };
            let spread = spread_of(wa, ma).max(spread_of(wb, mb));
            let change = (mb - ma) / ma.abs();
            let worse = if lower_is_better { change } else { -change };
            let verdict = if same_inputs && EXACT.contains(&name) {
                if change.abs() <= EXACT_TOLERANCE && spread <= EXACT_TOLERANCE {
                    "exact"
                } else {
                    failed = true;
                    "DIFFERS (must repeat exactly)"
                }
            } else if change.abs() <= bound {
                "same"
            } else if spread > bound {
                "unresolved (spread wider than bound)"
            } else if worse > 0.0 {
                failed = true;
                "REGRESSION"
            } else {
                "improved"
            };
            println!(
                "{workload:<16} {name:<12} {ma:>14.6} {mb:>14.6} {:>+7.2}% {:>6.1}% {:>7.2}%  {verdict}",
                100.0 * change,
                100.0 * bound,
                100.0 * spread
            );
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
