//! CLI entry point: `cargo run -p gnn-dm-lint -- [ROOT]`.
//!
//! Prints one `file:line [RULE] message` line per diagnostic, then one
//! `N violation(s) in M files` line.
//!
//! Exit codes: `0` clean, `1` at least one diagnostic, `2` usage or I/O
//! error (unknown flag, extra arguments, no `.rs` files under ROOT, or a
//! `.rs` file that could not be read).

use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: gnn-dm-lint [ROOT]";

fn main() -> ExitCode {
    let mut root: Option<PathBuf> = None;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            _ if arg.starts_with('-') => {
                eprintln!("error: unknown flag `{arg}`\n{USAGE}");
                return ExitCode::from(2);
            }
            _ if root.is_none() => root = Some(PathBuf::from(&arg)),
            _ => {
                eprintln!("error: more than one ROOT argument\n{USAGE}");
                return ExitCode::from(2);
            }
        }
    }
    // Default to the workspace root this crate was compiled in; an explicit
    // argument overrides (useful for linting a checkout from elsewhere).
    let root =
        root.unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../.."));

    let report = gnn_dm_lint::lint_workspace(&root);
    if report.files_scanned == 0 {
        eprintln!("error: no .rs files found under {} — wrong workspace root?", root.display());
        return ExitCode::from(2);
    }
    for (file, err) in &report.read_errors {
        eprintln!("error: could not read {file}: {err}");
    }
    for d in &report.diagnostics {
        println!("{}:{} [{}] {}", d.file, d.line, d.rule, d.message);
    }
    println!("{} violation(s) in {} files", report.diagnostics.len(), report.files_scanned);
    if !report.read_errors.is_empty() {
        ExitCode::from(2)
    } else if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
