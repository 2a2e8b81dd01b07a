//! Command-line contract of the `experiments` binary: `--help` prints the usage and
//! exits 0, and every bad invocation — an unknown flag such as a mistyped `--full`,
//! or an unknown experiment id anywhere in the list — exits 2 with the usage on
//! stderr before any experiment runs.

use std::process::{Command, Output};

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .output()
        .expect("spawn experiments")
}

#[test]
fn help_prints_usage_and_exits_zero() {
    for flag in ["--help", "-h"] {
        let output = run(&[flag]);
        assert_eq!(output.status.code(), Some(0), "{flag}");
        let stdout = String::from_utf8_lossy(&output.stdout);
        assert!(stdout.starts_with("usage: experiments"), "{flag}: {stdout}");
    }
}

#[test]
fn bad_arguments_exit_two_with_usage_and_run_nothing() {
    let cases: [&[&str]; 5] = [
        &["all", "--ful"],
        &["--quick"],
        &["-x"],
        &["e1", "e99"],
        &["e99", "all"],
    ];
    for args in cases {
        let output = run(args);
        assert_eq!(output.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(stderr.contains("usage: experiments"), "{args:?}: {stderr}");
        assert!(
            output.stdout.is_empty(),
            "{args:?}: no experiment may run before the rejection"
        );
    }
    let unknown = run(&["e99"]);
    let stderr = String::from_utf8_lossy(&unknown.stderr);
    assert!(
        stderr.contains("known: e1–e9, e10b, e11–e13, all"),
        "an unknown id names the known ones: {stderr}"
    );
}
