//! CLI for the experiment harness.
//!
//! ```text
//! cargo run -p nc-bench --release --bin experiments -- all          # every experiment, quick sizes
//! cargo run -p nc-bench --release --bin experiments -- all --full   # full sizes (EXPERIMENTS.md)
//! cargo run -p nc-bench --release --bin experiments -- e1 e9 e11    # a subset
//! ```
//!
//! `--help` prints the usage and exits 0. An unknown flag or experiment id prints a
//! message and the usage on stderr and exits 2 before any experiment runs.

use nc_bench::experiments::{self, Experiment};
use std::process::ExitCode;
use std::time::Instant;

const USAGE: &str = "\
usage: experiments [--full] [all | ID...] [--help]

  ID          e1–e9, e10b, e11–e13 (case-insensitive); `all`, or no ID, runs every one
  --full      full sizes (EXPERIMENTS.md) instead of the quick ones
  --help, -h  print this message and exit";

/// What the command line asks for: the usage text, or the experiments to run
/// (empty for all of them) and whether at full size.
enum Command {
    Help,
    Run {
        full: bool,
        selected: Vec<fn(bool) -> Experiment>,
    },
}

/// Parses the arguments after the program name. Every id is checked before any
/// experiment runs, so a typo never runs half a selection or the quick sizes.
fn parse_args(args: &[String]) -> Result<Command, String> {
    let mut full = false;
    let mut all = false;
    let mut selected = Vec::new();
    for arg in args {
        match arg.as_str() {
            "--help" | "-h" => return Ok(Command::Help),
            "--full" => full = true,
            "all" => all = true,
            other if other.starts_with('-') => {
                return Err(format!("unknown argument `{other}`"));
            }
            id => match experiments::lookup(id) {
                Some(run) => selected.push(run),
                None => {
                    return Err(format!(
                        "unknown experiment id `{id}`; known: e1–e9, e10b, e11–e13, all"
                    ))
                }
            },
        }
    }
    if all {
        selected.clear();
    }
    Ok(Command::Run { full, selected })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (full, selected) = match parse_args(&args) {
        Ok(Command::Run { full, selected }) => (full, selected),
        Ok(Command::Help) => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("experiments: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let quick = !full;
    let started = Instant::now();
    if selected.is_empty() {
        for experiment in experiments::all(quick) {
            println!("{experiment}");
        }
    } else {
        for run in selected {
            println!("{}", run(quick));
        }
    }
    eprintln!(
        "({} mode, finished in {:.1} s)",
        if quick { "quick" } else { "full" },
        started.elapsed().as_secs_f64()
    );
    ExitCode::SUCCESS
}
