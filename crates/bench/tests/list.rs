//! `gnn-dm-exp --list` is a table meant for pipes: a reader that closes
//! early (`gnn-dm-exp --list | head -1`) is a quiet exit 0, never a panic.

use std::process::Command;

#[test]
fn list_into_a_closed_pipe_is_a_quiet_success() {
    // No reader is left, so the first write fails with a broken pipe.
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    let out = Command::new(env!("CARGO_BIN_EXE_gnn-dm-exp"))
        .arg("--list")
        .stdout(writer)
        .output()
        .expect("the gnn-dm-exp binary runs");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(!err.contains("panicked"), "{err}");
    assert_eq!(out.status.code(), Some(0), "{err}");
}
