//! The scheduler n-sweep: `GlobalLine`, `Square` and `CountingOnALine` run to
//! completion under the legacy rejection sampler, the adaptive indexed sampler, the
//! batched geometric-jump sampler and the sharded composed-jump sampler at 1, 2 and
//! 4 shards, on the same seed, for n = 64 … 1024. Emits `BENCH_scheduler.json`
//! (steps/sec and speedup per size).
//!
//! "Steps" follow the paper's convention — every scheduler selection counts, and the
//! batched/sharded samplers' bulk-credited ineffective selections are included (they
//! have the same distribution as one-at-a-time draws; see the geometric-jump invariant
//! in `nc_core::scheduler`), so steps/sec across modes compares like for like. The
//! three sharded rows of one (protocol, n) cell run the same seed at 1, 2 and 4 shards
//! and must report **identical step counts** — the parallel-equivalence property the
//! sharded runtime guarantees (shard count is layout, not semantics).
//!
//! ```text
//! cargo run -p nc-bench --release --bin scheduler_sweep            # writes BENCH_scheduler.json
//! cargo run -p nc-bench --release --bin scheduler_sweep -- --out /dev/stdout
//! cargo run -p nc-bench --release --bin scheduler_sweep -- --smoke # CI gate, see below
//! cargo run -p nc-bench --release --bin scheduler_sweep -- --profile # per-phase columns
//! ```
//!
//! `--profile` attaches a telemetry handle to every benchmarked run and emits the
//! per-phase wall-clock breakdown (sample/apply/flush/rollback, plus the
//! delta-log record counter) both on stderr and as extra row columns
//! (`nc_bench::sweep::SweepProfile`). The smoke gates always run unprofiled — the
//! throughput comparisons stay free of instrumentation overhead.
//!
//! Each cell additionally runs the three deterministic adversarial-but-fair schedulers
//! (`nc_core::adversary`: round-robin, worst-case, eclipse) at n ≤ 128 — they must
//! still reach the guaranteed outcome, pinning fairness-despite-adversity in the
//! artifact alongside the throughput rows.
//!
//! `--smoke` asserts (a) every mode completes with the protocol's guaranteed outcome at
//! n = 256 — including the three adversaries at n = 64, which must also be
//! bit-deterministic across two runs — (b) batched achieves at least the indexed
//! steps/sec at n = 256, (c) the
//! sharded rows report step counts identical to each other across shard counts, and
//! (d) on Square n = 512 the sharded sampler at 4 shards achieves at least the
//! batched steps/sec (best of three runs each, since both finish in milliseconds
//! there) — the sharded aggregate-count hot path regressing below the batched recount
//! path fails the build.
//!
//! Per-protocol caps keep the sweep finite: the legacy sampler's full-scan stability
//! checks cost `O(n²·ports²)` per probe, which at GlobalLine n = 1024 is ~13 minutes
//! (recorded once in PR 1) and far worse for Square, whose single productive port pair
//! drives the step count towards `Θ(n³)` — Square n = 512 already needs ~3·10⁸
//! selections and n = 1024 exceeds 2·10⁹, so Square is swept to 512 and its legacy
//! rows to 128. `--legacy-max` can lower (never raise) the legacy caps.
//!
//! `--help` prints the usage and exits 0. An unknown flag, a missing value or a
//! malformed one prints the usage on stderr and exits 2 before any run starts or any
//! file is written.

use nc_bench::sweep::{SweepProfile, SweepRow};
use nc_core::scheduler::Scheduler;
use nc_core::{
    EclipseScheduler, RoundRobinScheduler, RunReport, SamplingMode, Simulation, SimulationConfig,
    SnapshotProtocol, StopReason, Telemetry, WorstCaseScheduler,
};
use nc_protocols::counting_line::{final_count, CountingOnALine};
use nc_protocols::line::GlobalLine;
use nc_protocols::square::Square;
use std::time::Instant;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Proto {
    Line,
    Square,
    Counting,
}

impl Proto {
    fn name(self) -> &'static str {
        match self {
            Proto::Line => "global-line",
            Proto::Square => "square",
            Proto::Counting => "counting-on-a-line",
        }
    }

    /// Largest population the legacy rejection sampler is run at (see module docs).
    fn legacy_cap(self) -> usize {
        match self {
            Proto::Line => 512,
            Proto::Square => 128,
            Proto::Counting => 1024,
        }
    }

    /// Largest population swept at all (Square's step count explodes past 512).
    fn size_cap(self) -> usize {
        match self {
            Proto::Square => 512,
            Proto::Line | Proto::Counting => 1024,
        }
    }
}

/// One benchmarked execution: a sampling mode plus (for sharded rows) the shard count.
#[derive(Clone, Copy, PartialEq, Eq)]
struct ModeSpec {
    mode: SamplingMode,
    shards: usize,
    label: &'static str,
}

const MODES: [ModeSpec; 6] = [
    ModeSpec {
        mode: SamplingMode::Legacy,
        shards: 1,
        label: "legacy",
    },
    ModeSpec {
        mode: SamplingMode::Adaptive,
        shards: 1,
        label: "indexed",
    },
    ModeSpec {
        mode: SamplingMode::Batched,
        shards: 1,
        label: "batched",
    },
    ModeSpec {
        mode: SamplingMode::Sharded,
        shards: 1,
        label: "sharded1",
    },
    ModeSpec {
        mode: SamplingMode::Sharded,
        shards: 2,
        label: "sharded2",
    },
    ModeSpec {
        mode: SamplingMode::Sharded,
        shards: 4,
        label: "sharded4",
    },
];

/// Row type shared with the `nc-service` stats tier (`nc_bench::sweep`): the sweep
/// binary and the serving tier emit the same JSON schema.
type Row = SweepRow;

/// Times one `checkpoint()` and one `resume()` of the finished run (milliseconds),
/// sanity-checking that the round trip reproduces the statistics — so the bench
/// artifact doubles as a coarse end-of-run snapshot-exactness probe on every cell.
fn snapshot_timings<P: SnapshotProtocol>(protocol: P, sim: &Simulation<P>) -> (f64, f64) {
    let started = Instant::now();
    let snapshot = sim.checkpoint().expect("checkpoint");
    let snapshot_ms = started.elapsed().as_secs_f64() * 1e3;
    let started = Instant::now();
    let resumed = Simulation::resume(protocol, &snapshot).expect("end-of-run snapshot resumes");
    let resume_ms = started.elapsed().as_secs_f64() * 1e3;
    assert_eq!(
        resumed.stats(),
        sim.stats(),
        "a resumed end-of-run snapshot must carry the statistics verbatim"
    );
    (snapshot_ms, resume_ms)
}

/// Runs one protocol to its completion condition and checks the guaranteed outcome:
/// the spanning line, the ⌊√n⌋ square for perfect squares, or a halted counting leader.
fn run_one(proto: Proto, n: usize, seed: u64, spec: ModeSpec, profile: bool) -> Row {
    let config = SimulationConfig::new(n)
        .with_seed(seed)
        .with_max_steps(2_000_000_000)
        .with_sampling(spec.mode)
        .with_shards(spec.shards);
    let obs = if profile {
        Telemetry::enabled()
    } else {
        Telemetry::disabled()
    };
    let started = Instant::now();
    let (report, stats, completed, timings, delta_records) = match proto {
        Proto::Line => {
            let mut sim = Simulation::new(GlobalLine::new(), config);
            sim.set_telemetry(obs.clone());
            let report = sim.run_until_stable();
            let ok = report.reason == StopReason::Stable;
            assert!(
                !ok || sim.output_shape().is_line(n),
                "a stable GlobalLine run must produce the spanning line"
            );
            let timings = snapshot_timings(GlobalLine::new(), &sim);
            (
                report,
                sim.stats(),
                ok,
                timings,
                sim.world().delta_records(),
            )
        }
        Proto::Square => {
            let mut sim = Simulation::new(Square::new(), config);
            sim.set_telemetry(obs.clone());
            let report = sim.run_until_stable();
            let ok = report.reason == StopReason::Stable;
            let d = (n as f64).sqrt() as u32;
            assert!(
                !ok || (d as usize * d as usize != n) || sim.output_shape().is_full_square(d),
                "a stable Square run on a perfect-square population must produce the square"
            );
            let timings = snapshot_timings(Square::new(), &sim);
            (
                report,
                sim.stats(),
                ok,
                timings,
                sim.world().delta_records(),
            )
        }
        Proto::Counting => {
            let mut sim = Simulation::new(CountingOnALine::new(2), config);
            sim.set_telemetry(obs.clone());
            let report = sim.run_until_any_halted();
            let ok = report.reason == StopReason::AllHalted;
            assert!(
                !ok || final_count(&sim).is_some(),
                "a halted counting run must leave a halted leader"
            );
            let timings = snapshot_timings(CountingOnALine::new(2), &sim);
            (
                report,
                sim.stats(),
                ok,
                timings,
                sim.world().delta_records(),
            )
        }
    };
    // The run's wall-clock is measured before the snapshot probe but the probe runs
    // inside the `match`, so subtract it from the elapsed time.
    let seconds = started.elapsed().as_secs_f64() - (timings.0 + timings.1) / 1e3;
    Row {
        protocol: proto.name().to_string(),
        n,
        mode: spec.label.to_string(),
        shards: spec.shards,
        seed,
        seconds,
        steps: report.steps,
        effective_steps: report.effective_steps,
        skipped_steps: stats.skipped_steps,
        steps_per_sec: report.steps as f64 / seconds.max(1e-9),
        completed,
        snapshot_ms: timings.0,
        resume_ms: timings.1,
        profile: profile.then(|| SweepProfile::from_run(&report.phases, delta_records)),
    }
}

/// The adversarial-but-fair schedulers (see `nc_core::adversary`), run as extra rows
/// at small n: they are deterministic worst cases, not samplers, so they are compared
/// on completion and determinism rather than throughput. Population capped because
/// their pair views re-enumerate all permissible pairs on every world change.
const ADVERSARIES: [&str; 3] = ["round-robin", "worst-case", "eclipse"];
const ADVERSARY_CAP: usize = 128;
const ADVERSARY_PATIENCE: u64 = 8;

/// Runs one protocol to completion under a named adversarial scheduler and checks the
/// same guaranteed outcome as `run_one`. Snapshot timings are zero: checkpoints are
/// deliberately only offered for the uniform scheduler (PR 5), so adversary rows
/// carry no snapshot probe.
fn run_adversary(proto: Proto, n: usize, adversary: &'static str) -> Row {
    fn go<P: SnapshotProtocol, S: Scheduler>(
        protocol: P,
        n: usize,
        halt: bool,
        scheduler: S,
        check: impl FnOnce(&nc_core::World<P>) -> bool,
    ) -> (RunReport, nc_core::ExecutionStats, bool) {
        let config = SimulationConfig::new(n).with_max_steps(2_000_000_000);
        let mut sim = Simulation::with_scheduler(protocol, config, scheduler);
        let report = if halt {
            sim.run_until_any_halted()
        } else {
            sim.run_until_stable()
        };
        let wanted = if halt {
            report.reason == StopReason::AllHalted
        } else {
            report.reason == StopReason::Stable
        };
        let ok = wanted && check(sim.world());
        (report, sim.stats(), ok)
    }
    let started = Instant::now();
    macro_rules! go_proto {
        ($sched:expr) => {
            match proto {
                Proto::Line => go(GlobalLine::new(), n, false, $sched, |w| {
                    w.output_shape().is_line(n)
                }),
                Proto::Square => {
                    let d = (n as f64).sqrt() as u32;
                    go(Square::new(), n, false, $sched, move |w| {
                        d as usize * d as usize != n || w.output_shape().is_full_square(d)
                    })
                }
                Proto::Counting => go(CountingOnALine::new(2), n, true, $sched, |w| w.any_halted()),
            }
        };
    }
    let (report, stats, completed) = match adversary {
        "round-robin" => go_proto!(RoundRobinScheduler::new()),
        "worst-case" => go_proto!(WorstCaseScheduler::new(ADVERSARY_PATIENCE)),
        "eclipse" => go_proto!(EclipseScheduler::against_leader(ADVERSARY_PATIENCE)),
        other => panic!("unknown adversary {other}"),
    };
    let seconds = started.elapsed().as_secs_f64();
    Row {
        protocol: proto.name().to_string(),
        n,
        mode: adversary.to_string(),
        shards: 1,
        seed: 0,
        seconds,
        steps: report.steps,
        effective_steps: report.effective_steps,
        skipped_steps: stats.skipped_steps,
        steps_per_sec: report.steps as f64 / seconds.max(1e-9),
        completed,
        snapshot_ms: 0.0,
        resume_ms: 0.0,
        profile: None,
    }
}

fn spec(label: &str) -> ModeSpec {
    *MODES
        .iter()
        .find(|m| m.label == label)
        .expect("known mode label")
}

/// Best steps/sec over `reps` runs of the same (protocol, n, seed, mode) — the smoke
/// gate compares millisecond-scale runs, so a best-of dampens scheduler noise.
fn best_of(proto: Proto, n: usize, seed: u64, spec: ModeSpec, reps: u32) -> Row {
    let mut best: Option<Row> = None;
    for _ in 0..reps {
        let row = run_one(proto, n, seed, spec, false);
        if best
            .as_ref()
            .is_none_or(|b| row.steps_per_sec > b.steps_per_sec)
        {
            best = Some(row);
        }
    }
    best.expect("at least one repetition")
}

/// Asserts the cross-mode equivalences the smoke gate guards: the stable output shape
/// of GlobalLine/Square is unique, so every mode must reach it (checked inside
/// `run_one`); counting's final tape length is schedule-dependent, so only the halting
/// guarantee is compared. On top of that, batched must not be slower than indexed at
/// n = 256, the sharded rows must agree on step counts across 1/2/4 shards, and on
/// Square n = 512 sharded@4 must not be slower than batched.
fn smoke(protos: &[Proto], seed: u64) {
    let n = 256;
    let mut failures = Vec::new();
    for &proto in protos {
        let mut per_mode = Vec::new();
        for mode in MODES {
            if mode.mode == SamplingMode::Legacy && n > proto.legacy_cap() {
                continue;
            }
            // The smoke gates compare throughput, so they always run unprofiled.
            let row = run_one(proto, n, seed, mode, false);
            eprintln!(
                "smoke {:>18} {:>8}: {:>12.3}s {:>12} steps {:>14.0} steps/s completed={}",
                row.protocol, row.mode, row.seconds, row.steps, row.steps_per_sec, row.completed
            );
            if !row.completed {
                failures.push(format!("{} {} did not complete", proto.name(), row.mode));
            }
            per_mode.push(row);
        }
        // A missing mode row (e.g. a future filtered run that skips a sampler) must
        // degrade this gate to "skipped with a note", not abort the whole sweep.
        let indexed = per_mode.iter().find(|r| r.mode == "indexed");
        let batched = per_mode.iter().find(|r| r.mode == "batched");
        match (indexed, batched) {
            (Some(indexed), Some(batched)) => {
                if batched.steps_per_sec < indexed.steps_per_sec {
                    failures.push(format!(
                        "{}: batched {:.0} steps/s slower than indexed {:.0} steps/s",
                        proto.name(),
                        batched.steps_per_sec,
                        indexed.steps_per_sec
                    ));
                }
            }
            _ => {
                eprintln!(
                "smoke note: {}: batched-vs-indexed gate skipped (indexed row {}, batched row {})",
                proto.name(),
                if indexed.is_some() { "present" } else { "missing" },
                if batched.is_some() { "present" } else { "missing" },
            )
            }
        }
        let sharded: Vec<&Row> = per_mode
            .iter()
            .filter(|r| r.mode.starts_with("sharded"))
            .collect();
        if sharded
            .iter()
            .any(|r| (r.steps, r.effective_steps) != (sharded[0].steps, sharded[0].effective_steps))
        {
            failures.push(format!(
                "{}: sharded step counts differ across shard counts \
                 (parallel equivalence broken)",
                proto.name()
            ));
        }
    }
    // Adversarial-but-fair schedulers: every protocol must still reach its guaranteed
    // outcome under each deterministic adversary, and two runs of the same adversary
    // must take the identical trajectory (they consume no randomness).
    let adv_n = 64;
    for &proto in protos {
        for adversary in ADVERSARIES {
            let row = run_adversary(proto, adv_n, adversary);
            let again = run_adversary(proto, adv_n, adversary);
            eprintln!(
                "smoke {:>18} {:>11}: {:>12.3}s {:>12} steps {:>14.0} steps/s completed={} (adversary, n={adv_n})",
                row.protocol, row.mode, row.seconds, row.steps, row.steps_per_sec, row.completed
            );
            if !row.completed {
                failures.push(format!(
                    "{} under the {} adversary did not complete",
                    proto.name(),
                    adversary
                ));
            }
            if (row.steps, row.effective_steps) != (again.steps, again.effective_steps) {
                failures.push(format!(
                    "{} under the {} adversary is not deterministic ({} vs {} steps)",
                    proto.name(),
                    adversary,
                    row.steps,
                    again.steps
                ));
            }
        }
    }
    // The headline gate: Square n = 512, sharded@4 vs batched, best of three.
    if protos.contains(&Proto::Square) {
        let batched = best_of(Proto::Square, 512, seed, spec("batched"), 3);
        let sharded4 = best_of(Proto::Square, 512, seed, spec("sharded4"), 3);
        for row in [&batched, &sharded4] {
            eprintln!(
                "smoke {:>18} {:>8}: {:>12.3}s {:>12} steps {:>14.0} steps/s completed={} (n=512 best-of-3)",
                row.protocol, row.mode, row.seconds, row.steps, row.steps_per_sec, row.completed
            );
            if !row.completed {
                failures.push(format!("square n=512 {} did not complete", row.mode));
            }
        }
        if sharded4.steps_per_sec < batched.steps_per_sec {
            failures.push(format!(
                "square n=512: sharded@4 {:.0} steps/s slower than batched {:.0} steps/s",
                sharded4.steps_per_sec, batched.steps_per_sec
            ));
        }
    }
    assert!(failures.is_empty(), "smoke failures: {failures:?}");
    eprintln!(
        "smoke ok: batched ≥ indexed at n = {n}, sharded step counts invariant \
         across shard counts, sharded@4 ≥ batched on square n = 512, all modes \
         completed, adversarial schedulers deterministic and fair at n = {adv_n}"
    );
}

const USAGE: &str = "\
usage: scheduler_sweep [--smoke] [--profile] [--out PATH] [--protocols LIST]
                       [--sizes LIST] [--legacy-max N] [--help]

  --smoke           run the CI gate instead of the sweep (writes nothing)
  --profile         attach telemetry and report per-phase columns
  --out PATH        where to write the artifact (default BENCH_scheduler.json)
  --protocols LIST  comma-separated subset of line,square,counting
  --sizes LIST      comma-separated population sizes (default 64,128,256,512,1024)
  --legacy-max N    lower the legacy sampler's per-protocol size caps to N
  --help, -h        print this message and exit";

/// The parsed command line.
struct Options {
    out_path: String,
    protos: Vec<Proto>,
    sizes: Vec<usize>,
    legacy_max: usize,
    profile: bool,
    smoke: bool,
}

/// What the command line asks for: the usage text, or a run.
enum Command {
    Help,
    Run(Options),
}

/// Parses the arguments after the program name. Every unknown flag, missing value or
/// malformed value is an error, so a typo never silently starts the full sweep.
fn parse_args(args: &[String]) -> Result<Command, String> {
    let mut options = Options {
        out_path: "BENCH_scheduler.json".to_string(),
        protos: vec![Proto::Line, Proto::Square, Proto::Counting],
        sizes: vec![64, 128, 256, 512, 1024],
        legacy_max: usize::MAX,
        profile: false,
        smoke: false,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--help" | "-h" => return Ok(Command::Help),
            "--smoke" => options.smoke = true,
            "--profile" => options.profile = true,
            "--out" => options.out_path = value("--out")?,
            "--protocols" => {
                options.protos = value("--protocols")?
                    .split(',')
                    .map(|p| match p {
                        "line" => Ok(Proto::Line),
                        "square" => Ok(Proto::Square),
                        "counting" => Ok(Proto::Counting),
                        other => Err(format!(
                            "unknown protocol `{other}` (use line,square,counting)"
                        )),
                    })
                    .collect::<Result<_, _>>()?;
            }
            "--sizes" => {
                options.sizes = value("--sizes")?
                    .split(',')
                    .map(|n| match n.parse() {
                        Ok(n) if n > 0 => Ok(n),
                        _ => Err(format!("--sizes: `{n}` is not a positive integer")),
                    })
                    .collect::<Result<_, _>>()?;
            }
            "--legacy-max" => {
                let v = value("--legacy-max")?;
                options.legacy_max = v
                    .parse()
                    .map_err(|_| format!("--legacy-max: `{v}` is not an integer"))?;
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Command::Run(options))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Options {
        out_path,
        protos,
        sizes,
        legacy_max,
        profile,
        smoke: smoke_only,
    } = match parse_args(&args) {
        Ok(Command::Run(options)) => options,
        Ok(Command::Help) => {
            println!("{USAGE}");
            return;
        }
        Err(e) => {
            eprintln!("scheduler_sweep: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let seed = 1u64;

    if smoke_only {
        smoke(&protos, seed);
        return;
    }

    let mut rows: Vec<Row> = Vec::new();
    eprintln!("seed = {seed}, run-to-completion wall-clock (steps incl. batched credits)");
    eprintln!(
        "{:>18}  {:>6}  {:>8}  {:>12}  {:>12}  {:>14}  {:>9}",
        "protocol", "n", "mode", "seconds", "steps", "steps/sec", "completed"
    );
    for &proto in &protos {
        for &n in &sizes {
            if n > proto.size_cap() {
                continue;
            }
            let mut indexed_secs = f64::NAN;
            for mode in MODES {
                if mode.mode == SamplingMode::Legacy && n > legacy_max.min(proto.legacy_cap()) {
                    continue;
                }
                let row = run_one(proto, n, seed, mode, profile);
                eprintln!(
                    "{:>18}  {:>6}  {:>8}  {:>12.3}  {:>12}  {:>14.0}  {:>9}",
                    row.protocol,
                    row.n,
                    row.mode,
                    row.seconds,
                    row.steps,
                    row.steps_per_sec,
                    row.completed
                );
                if let Some(p) = &row.profile {
                    eprintln!(
                        "{:>18}  {n:>6}  {} phases: sample {:.1}ms, apply {:.1}ms, flush {:.1}ms, rollback {:.1}ms, {} delta records",
                        proto.name(),
                        row.mode,
                        p.sample_ms,
                        p.apply_ms,
                        p.flush_ms,
                        p.rollback_ms,
                        p.delta_records
                    );
                }
                if mode.mode == SamplingMode::Adaptive {
                    indexed_secs = row.seconds;
                }
                if mode.mode == SamplingMode::Batched {
                    eprintln!(
                        "{:>18}  {n:>6}  speedup (indexed/batched): {:.2}x",
                        proto.name(),
                        indexed_secs / row.seconds.max(1e-9)
                    );
                }
                rows.push(row);
            }
            // Adversary rows ride along at small n: deterministic worst cases that must
            // still reach the guaranteed outcome (fairness despite adversarial choice).
            if n <= ADVERSARY_CAP {
                for adversary in ADVERSARIES {
                    let row = run_adversary(proto, n, adversary);
                    eprintln!(
                        "{:>18}  {:>6}  {:>8}  {:>12.3}  {:>12}  {:>14.0}  {:>9}",
                        row.protocol,
                        row.n,
                        row.mode,
                        row.seconds,
                        row.steps,
                        row.steps_per_sec,
                        row.completed
                    );
                    assert!(
                        row.completed,
                        "{} n={n}: the {adversary} adversary must still complete",
                        proto.name()
                    );
                    rows.push(row);
                }
            }
            // Parallel-equivalence check rides along with every sweep: the sharded rows
            // of this cell must agree on step counts (shard count is a layout knob,
            // never a semantic one).
            let cell: Vec<&Row> = rows
                .iter()
                .filter(|r| r.protocol == proto.name() && r.n == n && r.mode.starts_with("sharded"))
                .collect();
            assert!(
                cell.iter().all(|r| r.steps == cell[0].steps),
                "{} n={n}: sharded step counts differ across shard counts",
                proto.name()
            );
        }
    }

    let body: Vec<String> = rows.iter().map(Row::to_json).collect();
    let json = format!(
        "{{\n  \"experiment\": \"scheduler-n-sweep\",\n  \"metric\": \"run-to-completion wall-clock, same seed per size; steps include batched/sharded bulk credits; sharded rows at 1/2/4 shards report identical steps (parallel equivalence); snapshot_ms/resume_ms time one end-of-run checkpoint and its resume (round-trip verified against the run's statistics); legacy capped per protocol (line 512, square 128, counting 1024), square swept to 512\",\n  \"rows\": [\n{}\n  ]\n}}\n",
        body.join(",\n")
    );
    std::fs::write(&out_path, json).expect("write bench artifact");
    eprintln!("wrote {out_path}");
}
