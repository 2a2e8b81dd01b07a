//! Command-line contract of the `service` binary: `--help` prints the usage and
//! exits 0, and every bad invocation — an unknown flag, a missing or malformed
//! value, or a zero `--workers`/`--slice` — exits 2 with the usage on stderr before
//! anything binds a port or starts a worker.

use std::process::{Command, Output};

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_service"))
        .args(args)
        .output()
        .expect("spawn service")
}

#[test]
fn help_prints_usage_and_exits_zero() {
    for flag in ["--help", "-h"] {
        let output = run(&[flag]);
        assert_eq!(output.status.code(), Some(0), "{flag}");
        let stdout = String::from_utf8_lossy(&output.stdout);
        assert!(stdout.starts_with("usage: service"), "{flag}: {stdout}");
    }
}

#[test]
fn bad_arguments_exit_two_with_usage_and_start_nothing() {
    let cases: [&[&str]; 10] = [
        &["--wrokers", "2"],
        &["serve"],
        &["--workers"],
        &["--workers", "0"],
        &["--workers", "two"],
        &["--slice", "0"],
        &["--slice", "-5"],
        &["--port", "65536"],
        &["--seed", "x"],
        &["--smoke", "--workers", "0"],
    ];
    for args in cases {
        let output = run(args);
        assert_eq!(output.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(stderr.contains("usage: service"), "{args:?}: {stderr}");
        assert!(
            output.stdout.is_empty(),
            "{args:?}: nothing may listen or print before the rejection"
        );
    }
}
