//! The deterministic replay oracle: re-executes a snapshot against a from-scratch
//! reference run of the same configuration and diffs `ExecutionStats` step by step.
//!
//! A snapshot embeds everything a run needs (configuration, statistics, world,
//! scheduler state), so an independent reference — constructed fresh from the
//! embedded configuration and driven to the snapshot's step count — must from then
//! on produce *exactly* the same per-step statistics and checkpoint bytes as the
//! resumed run. Any divergence is printed as a per-field diff and exits non-zero,
//! which makes the binary a CI-gateable oracle for the snapshot subsystem.
//!
//! ```text
//! cargo run -p nc-bench --release --bin replay -- <snapshot-file> [--steps N] [--progress N]
//! cargo run -p nc-bench --release --bin replay -- --smoke          # committed fixture
//! cargo run -p nc-bench --release --bin replay -- --write-fixture  # regenerate it
//! ```
//!
//! `--help` prints the usage and exits 0. An unknown flag, a missing, malformed or
//! zero value, or a conflicting combination prints the usage on stderr and exits 2
//! before anything is read or written; a replay that diverges exits 1.
//!
//! Long replays are silent until the verdict by default. `--progress N` prints a
//! stderr heartbeat every `N` lockstep steps — lockstep position, lifetime step
//! count and the statistics deltas since the previous heartbeat — without touching
//! stdout, so `--smoke` output (which never passes the flag) stays byte-stable.
//!
//! The protocol is dispatched on the snapshot's stored protocol name. Protocols
//! whose constructor takes run-scoped parameters use the experiment-suite defaults
//! (`CountingOnALine::new(2)`); a snapshot of a differently parameterised run would
//! diverge immediately and fail the oracle, which is the honest outcome.
//!
//! `--smoke` replays `tests/fixtures/square_25steps.ncss` — a Square run checkpointed
//! after 25 driver steps (each a scheduler selection batch, ~4.3k credited scheduler
//! steps), committed to the repository — for 200 lockstep steps with a
//! zero-diff requirement. Because the fixture bytes are fixed, the gate also proves
//! the *format* stays readable: an accidental encoding change breaks the smoke run
//! even if checkpoint/resume still round-trips in-process.

use nc_core::{ExecutionStats, SamplingMode, Simulation, SimulationConfig, Snapshot};
use nc_protocols::counting_line::CountingOnALine;
use nc_protocols::line::GlobalLine;
use nc_protocols::square::Square;
use std::process::ExitCode;

/// Path of the committed smoke fixture, relative to the workspace root.
const FIXTURE: &str = "tests/fixtures/square_25steps.ncss";

fn fixture_path() -> std::path::PathBuf {
    // CARGO_MANIFEST_DIR is crates/bench; the fixture lives at the workspace root.
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(FIXTURE)
}

/// The configuration the committed fixture is generated from. Changing it requires
/// regenerating the fixture (`--write-fixture`) in the same commit.
fn fixture_config() -> SimulationConfig {
    SimulationConfig::new(16)
        .with_seed(42)
        .with_sampling(SamplingMode::Sharded)
        .with_shards(2)
}

fn write_fixture(path: &std::path::Path) -> Result<(), String> {
    let mut sim = Simulation::new(Square::new(), fixture_config());
    for _ in 0..25 {
        if !sim.step() {
            return Err("fixture run went dry before 25 steps".into());
        }
    }
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    }
    std::fs::write(path, sim.checkpoint().expect("checkpoint").as_bytes())
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!(
        "wrote {} ({} bytes, {} steps)",
        path.display(),
        sim.checkpoint().expect("checkpoint").len(),
        sim.stats().steps
    );
    Ok(())
}

/// Prints a per-field diff of two statistics blocks; returns whether they match.
fn diff_stats(step: u64, resumed: &ExecutionStats, reference: &ExecutionStats) -> bool {
    if resumed == reference {
        return true;
    }
    eprintln!("stats diverged at lockstep step {step}:");
    let fields: [(&str, u64, u64); 7] = [
        ("steps", resumed.steps, reference.steps),
        (
            "effective_steps",
            resumed.effective_steps,
            reference.effective_steps,
        ),
        (
            "skipped_steps",
            resumed.skipped_steps,
            reference.skipped_steps,
        ),
        (
            "bonds_activated",
            resumed.bonds_activated,
            reference.bonds_activated,
        ),
        (
            "bonds_deactivated",
            resumed.bonds_deactivated,
            reference.bonds_deactivated,
        ),
        ("merges", resumed.merges, reference.merges),
        ("splits", resumed.splits, reference.splits),
    ];
    for (name, got, want) in fields {
        let marker = if got == want { "  " } else { "!!" };
        eprintln!("  {marker} {name:18} resumed={got:<12} reference={want}");
    }
    false
}

/// Resumes the snapshot, rebuilds the reference run from the embedded
/// configuration, fast-forwards it to the snapshot's step count, then drives both
/// in lockstep for `steps` steps diffing statistics each step and checkpoint bytes
/// every 25 steps. Returns an error description on the first divergence.
fn replay<P: nc_core::SnapshotProtocol>(
    protocol_for_resume: P,
    protocol_for_reference: P,
    snapshot: &Snapshot,
    steps: u64,
    progress: u64,
) -> Result<(), String> {
    let mut resumed = Simulation::resume(protocol_for_resume, snapshot)
        .map_err(|e| format!("resume failed: {e}"))?;
    let config = resumed.config();
    let target = resumed.stats().steps;
    let mut reference = Simulation::new(protocol_for_reference, config);
    while reference.stats().steps < target {
        if !reference.step() {
            return Err(format!(
                "reference run went dry at step {} before reaching the snapshot's step {target}",
                reference.stats().steps
            ));
        }
    }
    if reference.stats().steps != target {
        // A batched jump can overshoot a mid-skip checkpoint's step count; the
        // snapshot was taken at a step boundary, so exact equality must be reachable.
        return Err(format!(
            "reference overshot the snapshot point: {} > {target}",
            reference.stats().steps
        ));
    }
    if !diff_stats(0, &resumed.stats(), &reference.stats()) {
        return Err("statistics differ at the snapshot point itself".into());
    }
    if resumed.checkpoint().expect("checkpoint").as_bytes()
        != reference.checkpoint().expect("checkpoint").as_bytes()
    {
        return Err("checkpoint bytes differ at the snapshot point itself".into());
    }
    let mut executed = 0u64;
    let mut last_reported = resumed.stats();
    for step in 1..=steps {
        let a = resumed.step();
        let b = reference.step();
        if a != b {
            return Err(format!(
                "step availability diverged at lockstep step {step}"
            ));
        }
        if !a {
            break; // both ran dry (stable configuration): a clean end, not a diff
        }
        executed += 1;
        if !diff_stats(step, &resumed.stats(), &reference.stats()) {
            return Err(format!("per-step statistics diverged at step {step}"));
        }
        if progress > 0 && step % progress == 0 {
            let now = resumed.stats();
            eprintln!(
                "progress: lockstep {step}/{steps} — lifetime steps {} (+{}), +{} effective, +{} skipped, +{} merges, +{} splits since last report",
                now.steps,
                now.steps - last_reported.steps,
                now.effective_steps - last_reported.effective_steps,
                now.skipped_steps - last_reported.skipped_steps,
                now.merges - last_reported.merges,
                now.splits - last_reported.splits
            );
            last_reported = now;
        }
        if step % 25 == 0
            && resumed.checkpoint().expect("checkpoint").as_bytes()
                != reference.checkpoint().expect("checkpoint").as_bytes()
        {
            return Err(format!("checkpoint bytes diverged at step {step}"));
        }
    }
    if resumed.checkpoint().expect("checkpoint").as_bytes()
        != reference.checkpoint().expect("checkpoint").as_bytes()
    {
        return Err("terminal checkpoints differ".into());
    }
    println!(
        "replay ok: protocol={} n={} sampling={:?} shards={} — {} lockstep steps, zero diff",
        snapshot.protocol_name(),
        config.n,
        config.sampling,
        config.shards,
        executed
    );
    Ok(())
}

/// Dispatches on the snapshot's stored protocol name.
fn replay_by_name(snapshot: &Snapshot, steps: u64, progress: u64) -> Result<(), String> {
    match snapshot.protocol_name() {
        "global-line" => replay(
            GlobalLine::new(),
            GlobalLine::new(),
            snapshot,
            steps,
            progress,
        ),
        "square" => replay(Square::new(), Square::new(), snapshot, steps, progress),
        "counting-on-a-line" => replay(
            CountingOnALine::new(2),
            CountingOnALine::new(2),
            snapshot,
            steps,
            progress,
        ),
        other => Err(format!("no replay dispatch for protocol {other:?}")),
    }
}

const USAGE: &str = "\
usage: replay SNAPSHOT [--steps N] [--progress N]
       replay --smoke [--steps N] [--progress N]
       replay --write-fixture [PATH]

  SNAPSHOT         snapshot file to replay against a fresh reference run
  --smoke          replay the committed fixture (tests/fixtures/square_25steps.ncss)
  --write-fixture  regenerate the fixture (at PATH when given)
  --steps N        lockstep steps after the snapshot point, positive (default 200)
  --progress N     stderr heartbeat every N lockstep steps, positive (default off)
  --help, -h       print this message and exit";

/// What the command line asks for: the usage text, or a run.
enum Command {
    Help,
    Run(Mode),
}

/// The two things a run can do.
enum Mode {
    WriteFixture(std::path::PathBuf),
    Replay {
        path: std::path::PathBuf,
        steps: u64,
        progress: u64,
    },
}

/// Parses the arguments after the program name. Every unknown flag, missing,
/// malformed or zero value, extra file or conflicting mode is an error, so a typo
/// never replays or overwrites the wrong thing.
fn parse_args(args: &[String]) -> Result<Command, String> {
    let mut file: Option<std::path::PathBuf> = None;
    let mut steps = 200u64;
    let mut progress = 0u64;
    let mut smoke = false;
    let mut write = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut positive = |flag: &str| -> Result<u64, String> {
            let raw = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match raw.parse() {
                Ok(v) if v > 0 => Ok(v),
                _ => Err(format!("{flag}: `{raw}` is not a positive integer")),
            }
        };
        match arg.as_str() {
            "--help" | "-h" => return Ok(Command::Help),
            "--smoke" => smoke = true,
            "--write-fixture" => write = true,
            "--steps" => steps = positive("--steps")?,
            "--progress" => progress = positive("--progress")?,
            other if other.starts_with('-') => {
                return Err(format!("unknown argument `{other}`"));
            }
            other => {
                if file.replace(other.into()).is_some() {
                    return Err("more than one snapshot file".into());
                }
            }
        }
    }
    match (write, smoke, file) {
        (true, false, path) => Ok(Command::Run(Mode::WriteFixture(
            path.unwrap_or_else(fixture_path),
        ))),
        (true, true, _) => Err("--write-fixture and --smoke exclude each other".into()),
        (false, true, Some(_)) => Err("--smoke takes no snapshot file".into()),
        (false, true, None) => Ok(Command::Run(Mode::Replay {
            path: fixture_path(),
            steps,
            progress,
        })),
        (false, false, Some(path)) => Ok(Command::Run(Mode::Replay {
            path,
            steps,
            progress,
        })),
        (false, false, None) => Err("no snapshot file (or --smoke)".into()),
    }
}

fn run(mode: Mode) -> Result<(), String> {
    let (path, steps, progress) = match mode {
        Mode::WriteFixture(path) => return write_fixture(&path),
        Mode::Replay {
            path,
            steps,
            progress,
        } => (path, steps, progress),
    };
    let bytes = std::fs::read(&path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    let snapshot = Snapshot::from_bytes(bytes)
        .map_err(|e| format!("{}: invalid snapshot: {e}", path.display()))?;
    replay_by_name(&snapshot, steps, progress)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mode = match parse_args(&args) {
        Ok(Command::Run(mode)) => mode,
        Ok(Command::Help) => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("replay: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(mode) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("replay: {message}");
            ExitCode::FAILURE
        }
    }
}
