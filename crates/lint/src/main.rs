//! CLI entry point:
//! `cargo run -p gnn-dm-lint -- [--format=text|json] [--explain ID] [ROOT]`.
//!
//! * `--format=text` (default) prints one `file:line [RULE] message` line
//!   per diagnostic, then the one-line JSON summary.
//! * `--format=json` prints a single JSON object with the summary fields
//!   plus every diagnostic and read error — the form `scripts/check.sh`
//!   consumes.
//! * `--explain ID` prints rule ID's row of the DESIGN.md §7 catalog.
//!
//! Exit codes: `0` clean, `1` at least one diagnostic, `2` usage or I/O
//! error (unknown flag, unknown rule, extra arguments, no `.rs` files
//! under ROOT, or a `.rs` file that could not be read).

use std::path::PathBuf;
use std::process::ExitCode;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Format {
    Text,
    Json,
}

const USAGE: &str = "usage: gnn-dm-lint [--format=text|json] [--explain ID] [ROOT]";

use gnn_dm_lint::explain;

fn main() -> ExitCode {
    let mut format = Format::Text;
    let mut root: Option<PathBuf> = None;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        let arg = args[i].as_str();
        match arg {
            "--format=text" => format = Format::Text,
            "--format=json" => format = Format::Json,
            "--explain" => {
                let Some(rule) = args.get(i + 1) else {
                    eprintln!("error: --explain needs a rule id\n{USAGE}");
                    return ExitCode::from(2);
                };
                return match explain(rule) {
                    Ok(text) => {
                        println!("{text}");
                        ExitCode::SUCCESS
                    }
                    Err(e) => {
                        eprintln!("error: {e}");
                        ExitCode::from(2)
                    }
                };
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            _ if arg.starts_with('-') => {
                eprintln!("error: unknown flag `{arg}`\n{USAGE}");
                return ExitCode::from(2);
            }
            _ if root.is_none() => root = Some(PathBuf::from(arg)),
            _ => {
                eprintln!("error: more than one ROOT argument\n{USAGE}");
                return ExitCode::from(2);
            }
        }
        i += 1;
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
    match format {
        Format::Text => {
            for (file, err) in &report.read_errors {
                eprintln!("error: could not read {file}: {err}");
            }
            for d in &report.diagnostics {
                println!("{}:{} [{}] {}", d.file, d.line, d.rule, d.message);
            }
            println!("{}", report.summary_json());
        }
        Format::Json => println!("{}", report.to_json()),
    }
    if !report.read_errors.is_empty() {
        ExitCode::from(2)
    } else if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
