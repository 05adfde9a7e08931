//! The `gnn-dm` binary's process interface: exit 0 on success, exit 1 with
//! an error naming the flag on a bad argument, and a reader that closes
//! the pipe early (`gnn-dm info g.gndm | head -1`) is a quiet exit 0, never
//! a panic.

use std::path::PathBuf;
use std::process::{Command, Output};

fn gnn_dm(args: &[&str]) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_gnn-dm"));
    cmd.args(args);
    cmd
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// A 200-vertex OGB-Arxiv stand-in written by `gnn-dm generate`.
fn graph(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("cli_{name}.gndm"));
    let path = path.to_str().expect("target dir is UTF-8").to_string();
    let out = gnn_dm(&["generate", "--dataset", "OGB-Arxiv", "--scale", "200", "--out", &path])
        .output()
        .expect("the gnn-dm binary runs");
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    path
}

#[test]
fn exit_status_follows_the_contract() {
    let g = graph("status");
    let ok = gnn_dm(&["info", &g]).output().expect("runs");
    assert_eq!(ok.status.code(), Some(0), "{ok:?}");
    assert!(String::from_utf8_lossy(&ok.stdout).starts_with("vertices:"), "{ok:?}");

    let bad = gnn_dm(&["transfer", &g, "--cache", "degree(2)"]).output().expect("runs");
    assert_eq!(bad.status.code(), Some(1), "{bad:?}");
    let err = stderr(&bad);
    assert!(err.contains("--cache") && !err.contains("panicked"), "{err}");
}

#[test]
fn closed_stdout_is_a_quiet_success() {
    let g = graph("pipe");
    for args in [&["info", &g][..], &["transfer", &g], &["help"]] {
        // No reader is left, so the first write fails with a broken pipe.
        let (reader, writer) = std::io::pipe().expect("pipe");
        drop(reader);
        let out = gnn_dm(args).stdout(writer).output().expect("runs");
        let err = stderr(&out);
        assert!(!err.contains("panicked"), "{args:?}: {err}");
        assert_eq!(out.status.code(), Some(0), "{args:?}: {err}");
    }
}
