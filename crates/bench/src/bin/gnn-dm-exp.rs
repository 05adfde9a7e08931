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
//! single experiment gives exactly its `results/<stem>.txt`. Measured
//! seconds go to stderr too. `--list` is the only flag; any other exits 2.

use std::io::{self, ErrorKind, Write};
use std::process::ExitCode;
#[expect(clippy::disallowed_types, reason = "READER_GONE is written by the panic hook and read after the run")]
use std::sync::atomic::{AtomicBool, Ordering};

use gnn_dm_bench::experiments::{Experiment, EXPERIMENTS};

/// Set by the panic hook when the panic came from printing to a stdout
/// whose reader has gone.
#[expect(clippy::disallowed_types, reason = "the panic hook sets it on whichever thread panicked; one flag, read once")]
static READER_GONE: AtomicBool = AtomicBool::new(false);

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (flags, names): (Vec<&str>, Vec<&str>) =
        args.iter().map(String::as_str).partition(|a| a.starts_with("--"));
    if let Some(bad) = flags.iter().find(|&&f| f != "--list") {
        eprintln!("gnn-dm-exp: unknown flag `{bad}` (usage: <name>... | all | --list)");
        return ExitCode::from(2);
    }
    let list = flags.contains(&"--list");
    let mut selected: Vec<&Experiment> = Vec::new();
    if !list {
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
    }
    // A reader that goes away (`gnn-dm-exp --list | head -1`,
    // `gnn-dm-exp grid_smoke | true`) makes the next `println!` panic. It
    // wants no more output, so that panic ends the run quietly, as a
    // success; any other panic is reported and propagated.
    let report = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let printing = info.payload_as_str().is_some_and(|m| m.starts_with("failed printing to stdout"));
        if printing && stdout_reader_gone() {
            READER_GONE.store(true, Ordering::Relaxed);
        } else {
            report(info);
        }
    }));
    let run = std::panic::catch_unwind(|| {
        if list {
            for e in &EXPERIMENTS {
                println!("{}\t{}\t{}", e.name, e.output.unwrap_or("-"), e.paper_ref);
            }
        }
        for e in selected {
            eprintln!("=== {} ===", e.name);
            (e.run)();
            if !e.paper_shape.is_empty() {
                println!("{}", e.paper_shape);
            }
        }
    });
    match run {
        Ok(()) => ExitCode::SUCCESS,
        Err(_) if READER_GONE.load(Ordering::Relaxed) => ExitCode::SUCCESS,
        Err(payload) => std::panic::resume_unwind(payload),
    }
}

/// `true` when stdout's reader has gone: one more byte fails to write with
/// [`ErrorKind::BrokenPipe`]. Asked only after a print to stdout failed, so
/// the typed error, not the panic text, decides.
fn stdout_reader_gone() -> bool {
    io::stdout().write_all(b"\n").is_err_and(|e| e.kind() == ErrorKind::BrokenPipe)
}
