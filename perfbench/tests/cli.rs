//! The command line refuses what it does not know: exit code 2, the usage on
//! standard error, nothing on standard output and no file written.

use std::path::PathBuf;
use std::process::{Command, Output};

fn run_in(dir: &PathBuf, args: &[&str]) -> Output {
    std::fs::create_dir_all(dir).expect("scratch directory");
    Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("the benchmark binary runs")
}

#[test]
fn usage_errors_exit_2_and_write_nothing() {
    let cases: [&[&str]; 6] = [
        &["--help-me"],
        &["--workload", "line-64k"],
        &["--workload", "line-counting", "--smoke"],
        &["--workload", "line-counting", "--trace", "yes"],
        &["--workload", "service-mix", "--seconds", "0"],
        &[],
    ];
    for (i, args) in cases.iter().enumerate() {
        let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("cli-{i}"));
        let _ = std::fs::remove_dir_all(&dir);
        let out = run_in(&dir, args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed to stdout");
        assert!(String::from_utf8_lossy(&out.stderr).contains("usage: perfbench"));
        let left: Vec<_> = std::fs::read_dir(&dir).expect("dir").collect();
        assert!(left.is_empty(), "{args:?} wrote {left:?}");
    }
}

#[test]
fn help_prints_the_usage_and_exits_0() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("cli-help");
    let out = run_in(&dir, &["--help"]);
    assert_eq!(out.status.code(), Some(0));
    let usage = String::from_utf8_lossy(&out.stdout);
    for workload in ["line-counting", "service-mix"] {
        assert!(usage.contains(workload), "{usage}");
    }
}
