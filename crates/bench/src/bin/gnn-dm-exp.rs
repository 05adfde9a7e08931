//! The experiment driver: runs rows of [`gnn_dm_bench::experiments::EXPERIMENTS`].
//!
//! ```text
//! gnn-dm-exp <name>...     run the named experiments, in the order given
//! gnn-dm-exp all           run the whole suite, in table order
//! gnn-dm-exp --list        one line per row: name, results/ stem (or -), paper reference
//! ```
//!
//! Each run prints its tables and then the row's paper shape to stdout;
//! the `=== name ===` separators go to stderr, so redirecting stdout of a
//! single experiment gives exactly its `results/<stem>.txt`.
//! `chaos_grid` reads `--smoke` (the reduced grid `scripts/check.sh`
//! regenerates its golden trace from); no other flag exists.

use std::io::{self, ErrorKind, Write};
use std::process::ExitCode;

use gnn_dm_bench::experiments::{Experiment, EXPERIMENTS};

/// Writes the `--list` table, one row per line.
fn list(out: &mut impl Write) -> io::Result<()> {
    for e in &EXPERIMENTS {
        writeln!(out, "{}\t{}\t{}", e.name, e.output.unwrap_or("-"), e.paper_ref)?;
    }
    out.flush()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (flags, names): (Vec<&str>, Vec<&str>) =
        args.iter().map(String::as_str).partition(|a| a.starts_with("--"));
    if let Some(bad) = flags.iter().find(|f| !["--list", "--smoke"].contains(f)) {
        eprintln!("gnn-dm-exp: unknown flag `{bad}` (usage: <name>... | all | --list)");
        return ExitCode::from(2);
    }
    if flags.contains(&"--list") {
        return match list(&mut io::stdout().lock()) {
            // The reader went away (`gnn-dm-exp --list | head -1`): it wants
            // no more output, which is not a failure.
            Err(e) if e.kind() != ErrorKind::BrokenPipe => {
                eprintln!("gnn-dm-exp: {e}");
                ExitCode::FAILURE
            }
            _ => ExitCode::SUCCESS,
        };
    }
    let mut selected: Vec<&Experiment> = Vec::new();
    for name in names {
        match EXPERIMENTS.iter().find(|e| e.name == name) {
            Some(e) => selected.push(e),
            None if name == "all" => selected.extend(&EXPERIMENTS),
            None => {
                eprintln!("gnn-dm-exp: no experiment `{name}` (see --list)");
                return ExitCode::from(2);
            }
        }
    }
    if selected.is_empty() {
        eprintln!("usage: gnn-dm-exp <name>... | all | --list");
        return ExitCode::from(2);
    }
    for e in selected {
        eprintln!("=== {} ===", e.name);
        (e.run)();
        if !e.paper_shape.is_empty() {
            println!("{}", e.paper_shape);
        }
    }
    ExitCode::SUCCESS
}
