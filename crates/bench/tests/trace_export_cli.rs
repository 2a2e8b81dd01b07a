//! Command-line contract of the `trace_export` binary: `--help` prints the usage and
//! exits 0, and every bad invocation exits 2 with the usage on stderr — without
//! running the traced simulation or writing `TRACE_export.json`.

use std::path::PathBuf;
use std::process::{Command, Output};

/// Runs the binary with `args` in a fresh scratch directory, so a default-path
/// trace write would be visible there. Returns the output and the directory.
fn run(label: &str, args: &[&str]) -> (Output, PathBuf) {
    let dir = std::env::temp_dir().join(format!("trace_export_cli_{}_{label}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch directory");
    let output = Command::new(env!("CARGO_BIN_EXE_trace_export"))
        .args(args)
        .current_dir(&dir)
        .output()
        .expect("spawn trace_export");
    (output, dir)
}

fn dir_entries(dir: &PathBuf) -> Vec<std::ffi::OsString> {
    std::fs::read_dir(dir)
        .expect("scratch directory")
        .map(|e| e.expect("entry").file_name())
        .collect()
}

fn assert_wrote_nothing(dir: &PathBuf, label: &str) {
    let entries = dir_entries(dir);
    assert!(entries.is_empty(), "{label}: wrote {entries:?}");
    std::fs::remove_dir_all(dir).expect("clean up");
}

#[test]
fn help_prints_usage_and_exits_zero() {
    for flag in ["--help", "-h"] {
        let (output, dir) = run(flag.trim_start_matches('-'), &[flag]);
        assert_eq!(output.status.code(), Some(0), "{flag}");
        let stdout = String::from_utf8_lossy(&output.stdout);
        assert!(
            stdout.starts_with("usage: trace_export"),
            "{flag}: {stdout}"
        );
        assert_wrote_nothing(&dir, flag);
    }
}

#[test]
fn bad_arguments_exit_two_with_usage_and_write_nothing() {
    let cases: [(&str, &[&str]); 9] = [
        ("unknown", &["--sead", "5"]),
        ("positional", &["square"]),
        ("n_missing", &["--n"]),
        ("n_malformed", &["--n", "lots"]),
        ("n_zero", &["--n", "0"]),
        ("seed_malformed", &["--seed", "-1"]),
        ("shards_zero", &["--shards", "0"]),
        ("protocol", &["--protocol", "triangle"]),
        (
            "after_valid",
            &["--protocol", "line", "--n", "8", "--frobnicate"],
        ),
    ];
    for (label, args) in cases {
        let (output, dir) = run(label, args);
        assert_eq!(output.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(stderr.contains("usage: trace_export"), "{args:?}: {stderr}");
        assert!(output.stdout.is_empty(), "{args:?}: nothing on stdout");
        assert_wrote_nothing(&dir, label);
    }
}

#[test]
fn a_valid_invocation_writes_the_named_trace() {
    let (output, dir) = run(
        "valid",
        &[
            "--protocol",
            "line",
            "--n",
            "8",
            "--seed",
            "3",
            "--shards",
            "1",
            "--steps",
            "20",
            "--out",
            "t.json",
        ],
    );
    assert_eq!(output.status.code(), Some(0), "{output:?}");
    assert_eq!(dir_entries(&dir), vec![std::ffi::OsString::from("t.json")]);
    let json = std::fs::read_to_string(dir.join("t.json")).expect("trace written");
    assert!(json.contains("line-n8-seed3"), "{json}");
    std::fs::remove_dir_all(&dir).expect("clean up");
}
