//! `gnn-dm-exp`'s output is meant for pipes: a reader that closes early
//! (`gnn-dm-exp --list | head -1`, `gnn-dm-exp grid_smoke | true`) is a
//! quiet exit 0, never a panic. A flag it does not know is exit 2 before
//! any experiment runs.

use std::process::{Command, Output};

/// Runs `gnn-dm-exp args` with a stdout whose reader is already gone, so
/// the first write fails with a broken pipe.
fn into_closed_pipe(args: &[&str]) -> Output {
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    Command::new(env!("CARGO_BIN_EXE_gnn-dm-exp"))
        .args(args)
        .stdout(writer)
        .output()
        .expect("the gnn-dm-exp binary runs")
}

#[test]
fn list_into_a_closed_pipe_is_a_quiet_success() {
    let out = into_closed_pipe(&["--list"]);
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(!err.contains("panicked"), "{err}");
    assert_eq!(out.status.code(), Some(0), "{err}");
}

/// Experiment tables go through `println!`, which panics on a closed pipe;
/// `gnn-dm-exp` turns exactly that panic into a quiet success.
#[test]
fn experiments_into_a_closed_pipe_are_a_quiet_success() {
    for name in ["tables_taxonomy", "grid_smoke"] {
        let out = into_closed_pipe(&[name]);
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(!err.contains("panicked") && !err.contains("Broken pipe"), "{name}: {err}");
        assert_eq!(out.status.code(), Some(0), "{name}: {err}");
    }
}

/// `--list` is the only flag: any other, such as `--smoke`,
/// is a usage error that prints nothing to stdout and runs no experiment.
#[test]
fn an_unknown_flag_exits_2_and_runs_nothing() {
    let out = Command::new(env!("CARGO_BIN_EXE_gnn-dm-exp"))
        .args(["tables_taxonomy", "--smoke"])
        .output()
        .expect("the gnn-dm-exp binary runs");
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{err}");
    assert!(err.contains("unknown flag `--smoke`"), "{err}");
    assert!(!err.contains("==="), "an experiment ran: {err}");
    assert!(out.stdout.is_empty(), "{}", String::from_utf8_lossy(&out.stdout));
}
