//! Command-line contract of the `scheduler_sweep` binary: `--help` prints the usage
//! and exits 0, and every bad invocation exits 2 with the usage on stderr — without
//! starting the sweep or writing `BENCH_scheduler.json`.

use std::path::PathBuf;
use std::process::{Command, Output};

/// Runs the binary with `args` in a fresh scratch directory, so a default-path
/// artifact write would be visible there. Returns the output and the directory.
fn run(label: &str, args: &[&str]) -> (Output, PathBuf) {
    let dir = std::env::temp_dir().join(format!(
        "scheduler_sweep_cli_{}_{label}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch directory");
    let output = Command::new(env!("CARGO_BIN_EXE_scheduler_sweep"))
        .args(args)
        .current_dir(&dir)
        .output()
        .expect("spawn scheduler_sweep");
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
        assert!(
            stdout.starts_with("usage: scheduler_sweep"),
            "{flag}: {stdout}"
        );
        assert_wrote_nothing(&dir, flag);
    }
}

#[test]
fn bad_arguments_exit_two_with_usage_and_write_nothing() {
    let cases: [(&str, &[&str]); 7] = [
        ("unknown", &["--bogus"]),
        ("positional", &["line"]),
        ("legacy_max", &["--legacy-max", "lots"]),
        ("legacy_max_missing", &["--legacy-max"]),
        ("sizes", &["--sizes", "64,x"]),
        ("protocols", &["--protocols", "line,triangle"]),
        (
            "after_valid",
            &["--protocols", "line", "--sizes", "64", "--frobnicate"],
        ),
    ];
    for (label, args) in cases {
        let (output, dir) = run(label, args);
        assert_eq!(output.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(
            stderr.contains("usage: scheduler_sweep"),
            "{args:?}: {stderr}"
        );
        assert!(output.stdout.is_empty(), "{args:?}: nothing on stdout");
        assert_wrote_nothing(&dir, label);
    }
}
