//! Running one workload for a fixed time and turning what it measured into the
//! catalog's metrics.

use std::time::{Duration, Instant};

use nc_protocols::counting_line::CountingOnALine;
use nc_protocols::line::GlobalLine;

use crate::report::{median, peak_rss_mb, per_task, quantile, Metrics, Outcome};
use crate::seeds::mix;
use crate::service::{self, MixSpec, Round, WorkerTrace};
use crate::sim::{self, Part, SimSpec, TracedSolve};

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// One GlobalLine solve at n = 2¹⁷, run to stability, and one
    /// CountingOnALine solve with head start 4 at n = 2¹⁵, run until the leader
    /// halts, per task.
    LineCounting,
    /// The simulation service under a closed loop of two clients.
    ServiceMix,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 2] = [Workload::LineCounting, Workload::ServiceMix];

    /// The workload's command-line name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::LineCounting => "line-counting",
            Workload::ServiceMix => "service-mix",
        }
    }

    /// The workload named `name`.
    #[must_use]
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Runs `workload` for about `seconds` and reports its end-to-end metrics
/// (`trace == false`) or its per-layer metrics (`trace == true`).
///
/// # Errors
/// When the workload cannot run at all (for instance the service cannot bind).
pub fn run(workload: Workload, seed: u64, seconds: u64, trace: bool) -> Result<Outcome, String> {
    let budget = Duration::from_secs(seconds);
    match workload {
        Workload::LineCounting => {
            let line = SimSpec::new(GlobalLine::new(), 1 << 17);
            let counting = SimSpec::new(CountingOnALine::new(4), 1 << 15);
            Ok(run_sim(&[&line, &counting], seed, budget, trace))
        }
        Workload::ServiceMix => run_service(&MixSpec::standard(), seed, budget, trace),
    }
}

/// Fewest distinct tasks an untraced simulation run solves, however long they take.
const MIN_TASKS: u64 = 2;

/// Extra set-ups (construction and teardown, no load) an untraced run measures
/// before each task, so that `setup_s` is a median of many samples spread over
/// the whole run rather than taken at one moment.
const SETUPS_PER_TASK: u64 = 2;

/// Whether a pass that has finished `tasks` tasks since `started` should stop:
/// when it is nearer to `budget` now than it would be, on average, after one
/// more task. A pass so ends at the task end nearest to `budget`, which may lie
/// past it by up to half a task.
fn done(started: Instant, budget: Duration, tasks: u64) -> bool {
    let elapsed = started.elapsed();
    elapsed + elapsed / (2 * tasks as u32).max(1) >= budget
}

/// How far below zero a traced task's unattributed time may read: the clock's
/// resolution, with room for rounding in sums of many timed spans. Every span
/// lies inside the traced wall time, so anything lower means layer times overlap
/// or are counted twice.
const CLOCK_SLACK_S: f64 = 1e-6;

/// Checks that layer self times fit inside the traced wall time they split.
fn adds_up(unattributed_s: f64) -> Result<(), String> {
    if unattributed_s < -CLOCK_SLACK_S {
        Err(format!(
            "layer times exceed the traced wall time by {:.9} s",
            -unattributed_s
        ))
    } else {
        Ok(())
    }
}

/// The seed of part `part` of task `task`.
fn task_seed(seed: u64, task: u64, part: u64) -> u64 {
    mix(mix(seed, task), part)
}

/// Runs a simulation workload for `budget`: every task solves each of `parts`
/// once. See [`untraced_sim`] and [`traced_sim`].
pub fn run_sim(parts: &[&dyn Part], seed: u64, budget: Duration, trace: bool) -> Outcome {
    if trace {
        traced_sim(parts, seed, budget)
    } else {
        untraced_sim(parts, seed, budget)
    }
}

/// The untraced run. Two passes solve the same tasks: the first pass solves
/// task after task for half the budget, the second solves those tasks again.
/// Both executions of a solve do identical work (their `ExecutionStats` must
/// match), so the faster of the two is the less disturbed measurement of that
/// solve; a task's time is the sum over its parts of those times, and the
/// metrics are medians over tasks. This filters the host's speed swings, which
/// on a shared machine reach 1.5× for tens of seconds.
fn untraced_sim(parts: &[&dyn Part], seed: u64, budget: Duration) -> Outcome {
    let started = Instant::now();
    let mut setup = Vec::new();
    let set_up = |setup: &mut Vec<f64>| {
        for _ in 0..SETUPS_PER_TASK {
            let setup_seed = mix(seed, u64::MAX - setup.len() as u64);
            setup.push(parts.iter().map(|p| p.setup_only(setup_seed)).sum());
        }
    };
    let run_task = |task: u64| -> Vec<sim::Solve> {
        (0..)
            .zip(parts)
            .map(|(j, part)| {
                let mut solve = part.solve(task_seed(seed, task, j));
                solve.checkpoint = Vec::new();
                solve
            })
            .collect()
    };
    let mut first = Vec::new();
    while first.len() < MIN_TASKS as usize || !done(started, budget / 2, first.len() as u64) {
        set_up(&mut setup);
        first.push(run_task(first.len() as u64));
    }
    let mut attempted = 0;
    let mut failed = 0;
    let mut latency = Vec::new();
    let mut rate = Vec::new();
    for (task, a) in (0..).zip(first) {
        set_up(&mut setup);
        let mut b = run_task(task);
        let mut best = 0.0;
        let mut effective = 0;
        for (j, (a, b)) in (0..).zip(a.iter().zip(&mut b)) {
            if b.failure.is_none() && b.stats != a.stats {
                b.failure = Some(format!(
                    "a second solve of the same seed executed differently: {:?} then {:?}",
                    a.stats, b.stats
                ));
            }
            for (pass, s) in [a, &*b].into_iter().enumerate() {
                attempted += 1;
                if let Some(why) = &s.failure {
                    failed += 1;
                    eprintln!("perfbench: task {task} part {j} (pass {pass}) failed: {why}");
                }
            }
            eprintln!(
                "perfbench: task {task} part {j}: solve {:.6} s then {:.6} s, {} effective, {} steps",
                a.solve_s, b.solve_s, a.stats.effective_steps, a.stats.steps
            );
            best += a.solve_s.min(b.solve_s);
            effective += a.stats.effective_steps;
        }
        setup.push(a.iter().map(|s| s.setup_s).sum());
        setup.push(b.iter().map(|s| s.setup_s).sum());
        latency.push(best);
        rate.push(effective as f64 / best);
    }
    let mut m = Metrics::default();
    m.set("latency_p50_s", median(&latency));
    m.set("latency_p90_s", quantile(&latency, 0.9));
    m.set("throughput_per_s", median(&rate));
    m.set("setup_s", median(&setup));
    m.set("peak_rss_mb", peak_rss_mb());
    m.set(
        "success_ratio",
        (attempted - failed) as f64 / attempted as f64,
    );
    Outcome {
        attempted,
        failed,
        metrics: m,
    }
}

/// The traced run: each solve is run untraced, then replayed traced, and the
/// replay must reproduce the untraced execution exactly. A task's layer times
/// and counts are summed over its parts.
fn traced_sim(parts: &[&dyn Part], seed: u64, budget: Duration) -> Outcome {
    let started = Instant::now();
    let mut untraced_s = 0.0;
    let mut traced = Vec::new();
    let mut attempted = 0;
    let mut failed = 0;
    let mut task = 0;
    while task == 0 || !done(started, budget, task) {
        let mut sum = TracedSolve::default();
        for (j, part) in (0..).zip(parts) {
            let solve_seed = task_seed(seed, task, j);
            let untraced = part.solve(solve_seed);
            let replay = part.solve_traced(solve_seed);
            let replay_failure = replay
                .failure
                .clone()
                .or_else(|| sim::trajectory_matches(&untraced, &replay).err())
                .or_else(|| adds_up(replay.unattributed_s()).err());
            for (what, failure) in [("untraced", &untraced.failure), ("traced", &replay_failure)] {
                attempted += 1;
                if let Some(why) = failure {
                    failed += 1;
                    eprintln!("perfbench: {what} solve of seed {solve_seed} failed: {why}");
                }
            }
            untraced_s += untraced.solve_s;
            sum.absorb(&replay);
        }
        traced.push(sum);
        task += 1;
    }
    let mut m = Metrics::default();
    sim_layers(&mut m, &traced, untraced_s);
    Outcome {
        attempted,
        failed,
        metrics: m,
    }
}

/// Per-layer metrics of traced tasks (means per task). `untraced_s` is the
/// total solve time of their untraced twins.
fn sim_layers(m: &mut Metrics, traced: &[TracedSolve], untraced_s: f64) {
    let k = traced.len();
    let mean = |f: &dyn Fn(&TracedSolve) -> f64| per_task(traced.iter().map(f).sum(), k);
    m.set("scheduler.sample_s", mean(&|t| t.sample_s));
    m.set("scheduler.calls", mean(&|t| t.calls as f64));
    m.set(
        "scheduler.credited_steps",
        mean(&|t| t.credited_steps as f64),
    );
    m.set("world.apply_s", mean(&|t| t.apply_s));
    m.set("world.applies", mean(&|t| t.applies as f64));
    m.set("world.merges", mean(&|t| t.stats.merges as f64));
    m.set("world.splits", mean(&|t| t.stats.splits as f64));
    m.set("world.delta_records", mean(&|t| t.delta_records as f64));
    let applies: u64 = traced.iter().map(|t| t.applies).sum();
    let effective: u64 = traced.iter().map(|t| t.effective_applies).sum();
    m.set(
        "world.effective_ratio",
        per_task(effective as f64, applies as usize),
    );
    m.set("world.is_stable_s", mean(&|t| t.is_stable_s));
    m.set("world.any_halted_s", mean(&|t| t.any_halted_s));
    m.set("index.dirty_marks", mean(&|t| t.index.dirty_marks as f64));
    m.set("index.node_scans", mean(&|t| t.index.node_scans as f64));
    m.set(
        "index.candidate_hits",
        mean(&|t| t.index.candidate_hits as f64),
    );
    m.set(
        "index.quiescent_hits",
        mean(&|t| t.index.quiescent_hits as f64),
    );
    m.set("snapshot.encode_s", mean(&|t| t.encode_s));
    m.set("snapshot.decode_s", mean(&|t| t.decode_s));
    m.set(
        "snapshot.bytes_per_node",
        mean(&|t| t.checkpoint_len as f64 / t.nodes as f64),
    );
    for name in [
        "runner.slices",
        "runner.start_s",
        "runner.resume_s",
        "runner.advance_s",
        "runner.checkpoint_s",
        "queue.wait_s",
        "queue.claim_s",
        "queue.complete_s",
        "worker.idle_s",
        "http.request_s_p50",
        "http.request_s_p99",
        "http.requests",
        "http.polls_per_job",
    ] {
        m.set(name, 0.0);
    }
    let traced_s: f64 = traced.iter().map(|t| t.wall_s).sum();
    let unattributed_s: f64 = traced.iter().map(TracedSolve::unattributed_s).sum();
    m.set("trace.wall_s", per_task(traced_s, k));
    m.set("trace.unattributed_s", per_task(unattributed_s, k));
    m.set("trace.unattributed_ratio", unattributed_s / traced_s);
    m.set("trace.overhead_ratio", traced_s / untraced_s);
}

/// Runs the service workload for `budget`. Like the simulations, an untraced
/// run makes two passes over the same rounds and keeps, per round, the faster
/// execution (both must report byte-identical JSON for every job); a traced run
/// follows every untraced round with a traced round of the same seed.
///
/// # Errors
/// When the service cannot be started.
pub fn run_service(
    spec: &MixSpec,
    seed: u64,
    budget: Duration,
    trace: bool,
) -> Result<Outcome, String> {
    let started = Instant::now();
    let mut attempted = 0;
    let mut failed = 0;
    let mut r = 0;
    let mut m = Metrics::default();
    if trace {
        let mut untraced_s = 0.0;
        let mut traced_rounds = Vec::new();
        while r == 0 || !done(started, budget, r) {
            let plain = service::round(spec, seed, r, false)?;
            let mut traced = service::round(spec, seed, r, true)?;
            // Layer times that do not fit their worker's wall time make every
            // layer figure of the round suspect, so each of its jobs fails.
            if let Some(why) = traced
                .workers
                .iter()
                .find_map(|w| adds_up(w.unattributed_s()).err())
            {
                for job in traced.jobs.iter_mut().filter(|j| j.failure.is_none()) {
                    job.failure = Some(why.clone());
                }
            }
            attempted += (plain.jobs.len() + traced.jobs.len()) as u64;
            failed +=
                report_failures(&plain, r, "untraced") + report_failures(&traced, r, "traced");
            failed += mismatches(&plain, &traced, r);
            untraced_s += plain.load_s;
            traced_rounds.push(traced);
            r += 1;
        }
        service_layers(&mut m, &traced_rounds, untraced_s);
        return Ok(Outcome {
            attempted,
            failed,
            metrics: m,
        });
    }

    let mut setup = Vec::new();
    let set_up = |setup: &mut Vec<f64>| -> Result<(), String> {
        for _ in 0..2 * SETUPS_PER_TASK {
            let queue_seed = mix(seed, u64::MAX - setup.len() as u64);
            setup.push(service::setup_only(queue_seed, spec.workers)?);
        }
        Ok(())
    };
    let mut first = Vec::new();
    while first.is_empty() || !done(started, budget / 2, r) {
        set_up(&mut setup)?;
        first.push(service::round(spec, seed, r, false)?);
        r += 1;
    }
    let mut kept = Vec::new();
    for (r, a) in (0..).zip(first) {
        set_up(&mut setup)?;
        let b = service::round(spec, seed, r, false)?;
        for (pass, round) in [&a, &b].into_iter().enumerate() {
            attempted += round.jobs.len() as u64;
            failed += report_failures(round, r, &format!("pass {pass}"));
            setup.push(round.setup_s);
        }
        failed += mismatches(&a, &b, r);
        eprintln!(
            "perfbench: round {r}: load {:.6} s then {:.6} s",
            a.load_s, b.load_s
        );
        kept.push(if a.load_s <= b.load_s { a } else { b });
    }
    let latency: Vec<f64> = kept
        .iter()
        .flat_map(|r| r.jobs.iter().map(|j| j.latency_s))
        .collect();
    let completed = kept
        .iter()
        .flat_map(|r| &r.jobs)
        .filter(|j| j.failure.is_none())
        .count();
    let load_s: f64 = kept.iter().map(|r| r.load_s).sum();
    m.set("latency_p50_s", median(&latency));
    m.set("latency_p90_s", quantile(&latency, 0.9));
    m.set("throughput_per_s", completed as f64 / load_s);
    m.set("setup_s", median(&setup));
    m.set("peak_rss_mb", peak_rss_mb());
    m.set(
        "success_ratio",
        (attempted - failed) as f64 / attempted as f64,
    );
    Ok(Outcome {
        attempted,
        failed,
        metrics: m,
    })
}

/// Counts (and logs) the jobs whose report in `b` differs from the one in `a`,
/// among those that did not already fail.
fn mismatches(a: &Round, b: &Round, r: u64) -> u64 {
    let mut bad = 0;
    for j in service::report_mismatches(a, b) {
        if b.jobs[j].failure.is_none() {
            bad += 1;
            eprintln!("perfbench: round {r} job {j}: reports of the same job differ");
        }
    }
    bad
}

fn report_failures(round: &Round, r: u64, what: &str) -> u64 {
    for job in &round.jobs {
        if let Some(why) = &job.failure {
            eprintln!("perfbench: {what} round {r} job {}: {why}", job.j);
        }
    }
    round.failed()
}

/// Per-layer metrics of traced service rounds (means per job). `untraced_s` is
/// the total load time of their untraced twins.
fn service_layers(m: &mut Metrics, traced: &[Round], untraced_s: f64) {
    let jobs: usize = traced.iter().map(|r| r.jobs.len()).sum();
    let workers = || traced.iter().flat_map(|r| &r.workers);
    let total = |f: &dyn Fn(&WorkerTrace) -> f64| workers().map(f).sum::<f64>();
    let per_job = |f: &dyn Fn(&WorkerTrace) -> f64| per_task(total(f), jobs);

    let finished = workers().fold(nc_core::ExecutionStats::default(), |mut acc, w| {
        acc.absorb(&w.finished);
        acc
    });
    let applies = finished.steps - finished.skipped_steps;
    for name in [
        "scheduler.sample_s",
        "scheduler.calls",
        "world.apply_s",
        "world.is_stable_s",
        "world.any_halted_s",
    ] {
        m.set(name, 0.0);
    }
    m.set(
        "scheduler.credited_steps",
        per_task(finished.skipped_steps as f64, jobs),
    );
    m.set("world.applies", per_task(applies as f64, jobs));
    m.set("world.merges", per_task(finished.merges as f64, jobs));
    m.set("world.splits", per_task(finished.splits as f64, jobs));
    m.set("world.delta_records", per_job(&|w| w.delta_records as f64));
    m.set(
        "world.effective_ratio",
        per_task(finished.effective_steps as f64, applies as usize),
    );
    m.set(
        "index.dirty_marks",
        per_job(&|w| w.index.dirty_marks as f64),
    );
    m.set("index.node_scans", per_job(&|w| w.index.node_scans as f64));
    m.set(
        "index.candidate_hits",
        per_job(&|w| w.index.candidate_hits as f64),
    );
    m.set(
        "index.quiescent_hits",
        per_job(&|w| w.index.quiescent_hits as f64),
    );

    let resume = per_job(&|w| w.resume_s);
    let checkpoint = per_job(&|w| w.checkpoint_s);
    m.set("snapshot.encode_s", checkpoint);
    m.set("snapshot.decode_s", resume);
    m.set(
        "snapshot.bytes_per_node",
        per_task(
            total(&|w| w.bytes_per_node),
            total(&|w| w.parked as f64) as usize,
        ),
    );
    m.set("runner.slices", per_job(&|w| w.slices as f64));
    m.set("runner.start_s", per_job(&|w| w.start_s));
    m.set("runner.resume_s", resume);
    m.set("runner.advance_s", per_job(&|w| w.advance_s));
    m.set("runner.checkpoint_s", checkpoint);

    let waits: Vec<f64> = traced.iter().flat_map(service::queue_waits).collect();
    m.set("queue.wait_s", per_task(waits.iter().sum(), jobs));
    m.set("queue.claim_s", per_job(&|w| w.claim_s));
    m.set("queue.complete_s", per_job(&|w| w.complete_s));
    m.set("worker.idle_s", per_job(&|w| w.idle_s));

    let requests: Vec<f64> = traced
        .iter()
        .flat_map(|r| r.requests.iter().copied())
        .collect();
    let polls: u64 = traced.iter().flat_map(|r| &r.jobs).map(|j| j.polls).sum();
    m.set("http.request_s_p50", median(&requests));
    m.set("http.request_s_p99", quantile(&requests, 0.99));
    m.set("http.requests", per_task(requests.len() as f64, jobs));
    m.set("http.polls_per_job", per_task(polls as f64, jobs));

    // The add-up for the service is over worker-thread time: every second a
    // worker thread ran is in one of the timed calls, idle, or unattributed.
    m.set("trace.wall_s", per_job(&|w| w.wall_s));
    m.set(
        "trace.unattributed_s",
        per_job(&WorkerTrace::unattributed_s),
    );
    m.set(
        "trace.unattributed_ratio",
        total(&WorkerTrace::unattributed_s) / total(&|w| w.wall_s),
    );
    let traced_s: f64 = traced.iter().map(|r| r.load_s).sum();
    m.set("trace.overhead_ratio", traced_s / untraced_s);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{END_TO_END, PER_LAYER};

    #[test]
    fn a_two_part_task_prints_every_metric_of_both_runs() {
        let line = SimSpec::new(GlobalLine::new(), 24);
        let counting = SimSpec::new(CountingOnALine::new(4), 64);
        let parts: &[&dyn Part] = &[&line, &counting];

        let plain = run_sim(parts, 1, Duration::from_millis(1), false);
        assert_eq!(plain.attempted, 2 * 2 * MIN_TASKS, "2 parts × 2 passes");
        plain.to_json(END_TO_END).expect("every end-to-end metric");

        let traced = run_sim(parts, 1, Duration::from_millis(1), true);
        assert_eq!(
            traced.attempted,
            2 * 2,
            "one task: 2 parts × (untraced + traced)"
        );
        traced.to_json(PER_LAYER).expect("every per-layer metric");
        let get = |name| traced.metrics.get(name).expect(name);
        // Both stop predicates ran: the line's stability check and the count's
        // halt check, summed into the one task.
        assert!(get("world.is_stable_s") > 0.0 && get("world.any_halted_s") > 0.0);
        assert_eq!(get("runner.slices"), 0.0);
        let layers = get("scheduler.sample_s")
            + get("world.apply_s")
            + get("world.is_stable_s")
            + get("world.any_halted_s");
        let unattributed = get("trace.unattributed_s");
        assert!(unattributed >= 0.0);
        assert!((layers + unattributed - get("trace.wall_s")).abs() < 1e-9);
        let share = get("trace.unattributed_ratio");
        assert!((0.0..1.0).contains(&share), "{share}");
    }

    #[test]
    fn layer_times_past_the_wall_time_fail_the_add_up() {
        assert!(adds_up(0.0).is_ok());
        assert!(
            adds_up(0.25).is_ok(),
            "time outside the layers is reported, not failed"
        );
        assert!(
            adds_up(-CLOCK_SLACK_S / 2.0).is_ok(),
            "within the clock's resolution"
        );
        let err = adds_up(-1e-3).expect_err("a millisecond counted twice");
        assert!(err.contains("exceed the traced wall time"), "{err}");
    }
}
