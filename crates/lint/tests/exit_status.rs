//! The binary's exit status is the whole interface `scripts/check.sh`
//! reads: `0` clean, `1` violations, `2` usage or I/O error.

use std::path::{Path, PathBuf};
use std::process::Output;

fn run(root: &Path) -> Output {
    std::process::Command::new(env!("CARGO_BIN_EXE_gnn-dm-lint"))
        .arg(root)
        .output()
        .expect("the lint binary runs")
}

#[test]
fn exit_status_follows_the_contract() {
    let fixtures = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");

    let clean = run(&fixtures.join("l001_ws_clean"));
    assert_eq!(clean.status.code(), Some(0), "{clean:?}");

    let fires = run(&fixtures.join("l001_ws_fires"));
    assert_eq!(fires.status.code(), Some(1), "{fires:?}");
    let stdout = String::from_utf8_lossy(&fires.stdout);
    assert_eq!(stdout.lines().filter(|l| l.contains(" [L001] ")).count(), 3, "{stdout}");
    assert_eq!(stdout.lines().last(), Some("3 violation(s) in 1 files"));

    // No scan roots under the fixtures dir itself: wrong workspace root.
    assert_eq!(run(&fixtures).status.code(), Some(2));

    // A file that cannot be read was not linted, so the run is not clean.
    let tmp = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("lint_unreadable_root");
    let src = tmp.join("src");
    std::fs::create_dir_all(&src).expect("temp root");
    std::fs::write(src.join("ok.rs"), "pub fn ok() {}\n").expect("ok.rs");
    std::fs::write(src.join("bad.rs"), [0xff, 0xfe, b'\n']).expect("bad.rs");
    let unreadable = run(&tmp);
    std::fs::remove_dir_all(&tmp).expect("temp root removed");
    assert_eq!(unreadable.status.code(), Some(2), "{unreadable:?}");
    let stderr = String::from_utf8_lossy(&unreadable.stderr);
    assert!(stderr.contains("could not read src/bad.rs"), "{stderr}");
}
