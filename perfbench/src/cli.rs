//! Command-line parsing. Every flag is typed; anything unknown is a usage error
//! (exit code 2, nothing run, nothing written).

use crate::run::Workload;

/// Usage text.
pub const USAGE: &str = "\
usage: perfbench --workload <line-counting|service-mix> [--seed N] [--seconds S] [--trace 0|1]

  --workload  which workload to run (required)
  --seed      workload seed; the same seed gives the same inputs (default 1)
  --seconds   how long to measure, 1..=3600 (default 10)
  --trace     0: untraced run, end-to-end metrics; 1: traced run with its
              untraced twin, per-layer metrics (default 0)
  --help      print this text
";

/// Parsed arguments.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Args {
    /// The workload.
    pub workload: Workload,
    /// The workload seed.
    pub seed: u64,
    /// Measuring time in seconds.
    pub seconds: u64,
    /// Whether this is the traced run.
    pub trace: bool,
}

/// What the command line asks for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Command {
    /// Run a workload.
    Run(Args),
    /// Print the usage and exit 0.
    Help,
}

/// Parses the arguments after the program name.
///
/// # Errors
/// A message naming the offending argument.
pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Command, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.into_iter();
    while let Some(flag) = it.next() {
        if flag == "--help" || flag == "-h" {
            return Ok(Command::Help);
        }
        let (name, inline) = match flag.split_once('=') {
            Some((name, value)) => (name.to_string(), Some(value.to_string())),
            None => (flag.clone(), None),
        };
        let slot_taken = match name.as_str() {
            "--workload" => workload.is_some(),
            "--seed" => seed.is_some(),
            "--seconds" => seconds.is_some(),
            "--trace" => trace.is_some(),
            _ => return Err(format!("unknown argument: {flag}")),
        };
        if slot_taken {
            return Err(format!("{name} given twice"));
        }
        let value = match inline {
            Some(value) => value,
            None => it.next().ok_or_else(|| format!("{name} needs a value"))?,
        };
        match name.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload: {value}"))?,
                );
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| format!("--seed needs an unsigned integer, got {value}"))?,
                );
            }
            "--seconds" => {
                let s = value
                    .parse::<u64>()
                    .ok()
                    .filter(|s| (1..=3600).contains(s))
                    .ok_or_else(|| {
                        format!("--seconds needs an integer in 1..=3600, got {value}")
                    })?;
                seconds = Some(s);
            }
            _ => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace needs 0 or 1, got {value}")),
                });
            }
        }
    }
    Ok(Command::Run(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Result<Command, String> {
        parse(line.split_whitespace().map(String::from))
    }

    #[test]
    fn a_full_command_line_parses() {
        assert_eq!(
            args("--workload line-counting --seed 7 --seconds 20 --trace 1"),
            Ok(Command::Run(Args {
                workload: Workload::LineCounting,
                seed: 7,
                seconds: 20,
                trace: true,
            }))
        );
        assert_eq!(
            args("--trace=0 --workload=service-mix"),
            Ok(Command::Run(Args {
                workload: Workload::ServiceMix,
                seed: 1,
                seconds: 10,
                trace: false,
            }))
        );
        assert_eq!(
            args("--workload nope --help"),
            Err("unknown workload: nope".into())
        );
        assert_eq!(args("--help"), Ok(Command::Help));
    }

    #[test]
    fn bad_arguments_are_refused() {
        for bad in [
            "",
            "--workload",
            "--workload line-64k",
            "--workload line-128k",
            "--workload line-counting --seed -1",
            "--workload line-counting --seconds 0",
            "--workload line-counting --trace 2",
            "--workload line-counting --workload line-counting",
            "--workload line-counting --smoke",
            "line-counting",
        ] {
            assert!(args(bad).is_err(), "{bad:?} must be refused");
        }
    }
}
