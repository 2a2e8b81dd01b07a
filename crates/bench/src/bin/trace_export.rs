//! Exports the step-indexed structured trace of a pinned run as a Chrome
//! trace-event JSON document (loadable in `about://tracing` / Perfetto's legacy
//! importer).
//!
//! Events are stamped `(lifetime_step, lane)` — never wall clock — and the lane
//! is a fixed partition of node ids independent of the runtime shard layout, so
//! the export of a pinned run is a *byte-reproducible* artifact: same protocol,
//! seed and step count ⇒ same bytes, at every `NC_SHARDS` setting. That turns
//! the exporter into a determinism oracle on top of a debugging aid.
//!
//! ```text
//! cargo run -p nc-bench --release --bin trace_export -- --out trace.json
//! cargo run -p nc-bench --release --bin trace_export -- --protocol line --n 32 --steps 500
//! cargo run -p nc-bench --release --bin trace_export -- --smoke   # CI determinism gate
//! ```
//!
//! `--smoke` runs the pinned configuration (Square, n = 16, seed 42, sharded
//! sampling, 200 driver steps plus one checkpoint) at 1 and at 4 shards,
//! requires the two exports to be **byte-identical**, and requires the trace to
//! contain every event family the simulator is expected to emit on that run
//! (selection, merge, index flush, class allocation, checkpoint). Nothing is
//! written to disk in smoke mode.
//!
//! `--help` prints the usage and exits 0. An unknown flag, a missing value or a
//! malformed one prints the usage on stderr and exits 2 before any run starts or any
//! file is written.

use nc_core::{
    SamplingMode, Simulation, SimulationConfig, SnapshotProtocol, Telemetry, TraceEvent,
};
use nc_obs::chrome_trace_json;
use nc_protocols::counting_line::CountingOnALine;
use nc_protocols::line::GlobalLine;
use nc_protocols::square::Square;
use std::process::ExitCode;

/// The pinned smoke configuration (mirrors the replay fixture's spirit: small,
/// fast, committed in code so the gate cannot drift silently).
const SMOKE_N: usize = 16;
const SMOKE_SEED: u64 = 42;
const SMOKE_STEPS: u64 = 200;

/// Runs `steps` driver steps of one protocol with telemetry attached and
/// returns the trace (plus how many events the bounded ring evicted).
fn traced_run<P: SnapshotProtocol>(
    protocol: P,
    n: usize,
    seed: u64,
    shards: usize,
    steps: u64,
) -> (Vec<TraceEvent>, u64) {
    let config = SimulationConfig::new(n)
        .with_seed(seed)
        .with_sampling(SamplingMode::Sharded)
        .with_shards(shards);
    let mut sim = Simulation::new(protocol, config);
    sim.set_telemetry(Telemetry::enabled());
    for _ in 0..steps {
        if !sim.step() {
            break;
        }
    }
    // One checkpoint so the export exercises the `checkpoint` event family too.
    sim.checkpoint().expect("end-of-run checkpoint");
    (
        sim.telemetry().trace_events(),
        sim.telemetry().trace_dropped(),
    )
}

/// The protocols the exporter can drive, by command-line name.
#[derive(Clone, Copy)]
enum Proto {
    Line,
    Square,
    Counting,
}

impl Proto {
    fn parse(name: &str) -> Result<Proto, String> {
        match name {
            "line" => Ok(Proto::Line),
            "square" => Ok(Proto::Square),
            "counting" => Ok(Proto::Counting),
            other => Err(format!(
                "--protocol: unknown protocol `{other}` (use line,square,counting)"
            )),
        }
    }

    fn name(self) -> &'static str {
        match self {
            Proto::Line => "line",
            Proto::Square => "square",
            Proto::Counting => "counting",
        }
    }

    fn traced_run(self, n: usize, seed: u64, shards: usize, steps: u64) -> (Vec<TraceEvent>, u64) {
        match self {
            Proto::Line => traced_run(GlobalLine::new(), n, seed, shards, steps),
            Proto::Square => traced_run(Square::new(), n, seed, shards, steps),
            Proto::Counting => traced_run(CountingOnALine::new(2), n, seed, shards, steps),
        }
    }
}

/// The determinism gate: the pinned run's export must be byte-identical at 1
/// and 4 shards, and must contain every expected event family.
fn smoke() -> Result<(), String> {
    let (events_one, dropped_one) = traced_run(Square::new(), SMOKE_N, SMOKE_SEED, 1, SMOKE_STEPS);
    let (events_four, dropped_four) =
        traced_run(Square::new(), SMOKE_N, SMOKE_SEED, 4, SMOKE_STEPS);
    let one = chrome_trace_json(&events_one, "square-n16-seed42");
    let four = chrome_trace_json(&events_four, "square-n16-seed42");
    if dropped_one != 0 || dropped_four != 0 {
        return Err(format!(
            "smoke trace overflowed the ring ({dropped_one}/{dropped_four} dropped): raise the capacity or shrink the run"
        ));
    }
    if one != four {
        return Err(format!(
            "trace exports differ across shard counts ({} vs {} events, {} vs {} bytes) — \
             the step-indexed trace must be layout-invariant",
            events_one.len(),
            events_four.len(),
            one.len(),
            four.len()
        ));
    }
    for family in [
        "selection",
        "merge",
        "index_flush",
        "class_alloc",
        "checkpoint",
    ] {
        if !one.contains(&format!("\"name\":\"{family}\"")) {
            return Err(format!(
                "pinned run emitted no {family:?} event — an instrumentation hook went missing"
            ));
        }
    }
    println!(
        "trace_export smoke ok: {} events, byte-identical at 1 and 4 shards ({} bytes)",
        events_one.len(),
        one.len()
    );
    Ok(())
}

const USAGE: &str = "\
usage: trace_export [--smoke] [--protocol NAME] [--n N] [--seed S] [--shards K]
                    [--steps T] [--out PATH] [--help]

  --smoke          run the CI determinism gate instead of an export (writes nothing)
  --protocol NAME  one of line,square,counting (default square)
  --n N            population size, positive (default 16)
  --seed S         scheduler seed (default 42)
  --shards K       shard count, positive (default NC_SHARDS or 1)
  --steps T        driver steps before the end-of-run checkpoint (default 200)
  --out PATH       where to write the trace (default TRACE_export.json)
  --help, -h       print this message and exit";

/// The parsed command line.
struct Options {
    smoke: bool,
    protocol: Proto,
    n: usize,
    seed: u64,
    shards: usize,
    steps: u64,
    out_path: String,
}

/// What the command line asks for: the usage text, or a run.
enum Command {
    Help,
    Run(Options),
}

/// Parses the arguments after the program name. Every unknown flag, missing value or
/// malformed value is an error, so a typo never silently exports the defaults over an
/// existing trace.
fn parse_args(args: &[String]) -> Result<Command, String> {
    let mut options = Options {
        smoke: false,
        protocol: Proto::Square,
        n: SMOKE_N,
        seed: SMOKE_SEED,
        shards: default_shards(),
        steps: SMOKE_STEPS,
        out_path: "TRACE_export.json".to_string(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        let number = |flag: &str, raw: String| {
            raw.parse::<u64>()
                .map_err(|_| format!("{flag}: `{raw}` is not an integer"))
        };
        let positive = |flag: &str, raw: String| match raw.parse::<usize>() {
            Ok(v) if v > 0 => Ok(v),
            _ => Err(format!("{flag}: `{raw}` is not a positive integer")),
        };
        match arg.as_str() {
            "--help" | "-h" => return Ok(Command::Help),
            "--smoke" => options.smoke = true,
            "--protocol" => options.protocol = Proto::parse(&value("--protocol")?)?,
            "--n" => options.n = positive("--n", value("--n")?)?,
            "--seed" => options.seed = number("--seed", value("--seed")?)?,
            "--shards" => options.shards = positive("--shards", value("--shards")?)?,
            "--steps" => options.steps = number("--steps", value("--steps")?)?,
            "--out" => options.out_path = value("--out")?,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Command::Run(options))
}

fn export(options: &Options) -> Result<(), String> {
    let (events, dropped) =
        options
            .protocol
            .traced_run(options.n, options.seed, options.shards, options.steps);
    let name = format!(
        "{}-n{}-seed{}",
        options.protocol.name(),
        options.n,
        options.seed
    );
    let json = chrome_trace_json(&events, &name);
    let out_path = &options.out_path;
    std::fs::write(out_path, &json).map_err(|e| format!("writing {out_path}: {e}"))?;
    eprintln!(
        "wrote {out_path}: {} events ({} dropped from the ring), {} bytes",
        events.len(),
        dropped,
        json.len()
    );
    Ok(())
}

/// The `NC_SHARDS` default, so a plain invocation matches the simulator's.
fn default_shards() -> usize {
    nc_core::shard::default_shard_count()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = match parse_args(&args) {
        Ok(Command::Run(options)) => options,
        Ok(Command::Help) => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("trace_export: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = if options.smoke {
        smoke()
    } else {
        export(&options)
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("trace_export: {message}");
            ExitCode::FAILURE
        }
    }
}
