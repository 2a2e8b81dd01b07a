//! Command-line contract of the `replay` binary: `--help` prints the usage and exits
//! 0; an unknown flag, a missing, malformed or zero value, an extra file or a
//! conflicting mode exits 2 with the usage on stderr, reading and writing nothing;
//! a replay that diverges is the only exit 1.

use std::path::PathBuf;
use std::process::{Command, Output};

/// Runs the binary with `args` in a fresh scratch directory, so a fixture write
/// would be visible there. Returns the output and the directory.
fn run(label: &str, args: &[&str]) -> (Output, PathBuf) {
    let dir = std::env::temp_dir().join(format!("replay_cli_{}_{label}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch directory");
    let output = Command::new(env!("CARGO_BIN_EXE_replay"))
        .args(args)
        .current_dir(&dir)
        .output()
        .expect("spawn replay");
    (output, dir)
}

fn assert_wrote_nothing(dir: &PathBuf, label: &str) {
    let entries: Vec<_> = std::fs::read_dir(dir)
        .expect("scratch directory")
        .map(|e| e.expect("entry").file_name())
        .collect();
    assert!(entries.is_empty(), "{label}: wrote {entries:?}");
    std::fs::remove_dir_all(dir).expect("clean up");
}

#[test]
fn help_prints_usage_and_exits_zero() {
    for flag in ["--help", "-h"] {
        let (output, dir) = run(flag.trim_start_matches('-'), &[flag]);
        assert_eq!(output.status.code(), Some(0), "{flag}");
        let stdout = String::from_utf8_lossy(&output.stdout);
        assert!(stdout.starts_with("usage: replay"), "{flag}: {stdout}");
        assert_wrote_nothing(&dir, flag);
    }
}

#[test]
fn bad_arguments_exit_two_with_usage_and_write_nothing() {
    let cases: [(&str, &[&str]); 11] = [
        ("none", &[]),
        ("unknown", &["--smoek"]),
        ("steps_missing", &["--smoke", "--steps"]),
        ("steps_malformed", &["--smoke", "--steps", "many"]),
        ("steps_zero", &["--smoke", "--steps", "0"]),
        ("progress_zero", &["--smoke", "--progress", "0"]),
        ("smoke_with_file", &["--smoke", "snap.ncss"]),
        ("two_files", &["a.ncss", "b.ncss"]),
        ("write_and_smoke", &["--write-fixture", "--smoke"]),
        (
            "write_bad_flag",
            &["--write-fixture", "f.ncss", "--frobnicate"],
        ),
        ("write_zero", &["--write-fixture", "f.ncss", "--steps", "0"]),
    ];
    for (label, args) in cases {
        let (output, dir) = run(label, args);
        assert_eq!(output.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(stderr.contains("usage: replay"), "{args:?}: {stderr}");
        assert!(output.stdout.is_empty(), "{args:?}: nothing on stdout");
        assert_wrote_nothing(&dir, label);
    }
}

#[test]
fn a_valid_invocation_still_replays_the_fixture() {
    let (output, dir) = run("valid", &["--smoke", "--steps", "30"]);
    assert_eq!(output.status.code(), Some(0), "{output:?}");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.starts_with("replay ok:"), "{stdout}");
    assert_wrote_nothing(&dir, "valid");
}
