//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a header line, then the result as the last line of standard output: one
//! JSON object with `correct`, `attempted`, `failed` and `metrics`. Exit codes: 0
//! after a run (whether or not its checks passed — that is what `correct` says),
//! 1 when the workload could not run, 2 on a usage error.

use std::process::ExitCode;

use perfbench::cli::{self, Command};
use perfbench::report::{END_TO_END, PER_LAYER};

fn main() -> ExitCode {
    let args = match cli::parse(std::env::args().skip(1)) {
        Ok(Command::Run(args)) => args,
        Ok(Command::Help) => {
            print!("{}", cli::USAGE);
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", cli::USAGE);
            return ExitCode::from(2);
        }
    };
    println!("{}", perfbench::header::header(&args));
    let outcome = match perfbench::run::run(args.workload, args.seed, args.seconds, args.trace) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {} could not run: {e}", args.workload.name());
            return ExitCode::FAILURE;
        }
    };
    let catalog = if args.trace { PER_LAYER } else { END_TO_END };
    match outcome.to_json(catalog) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: incomplete result: {e}");
            ExitCode::FAILURE
        }
    }
}
