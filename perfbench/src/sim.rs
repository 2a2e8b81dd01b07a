//! The simulation workloads: one protocol at one population size, solved from a
//! fresh world per seed.
//!
//! The untraced solve goes through the entry points users call
//! (`Simulation::new`, `run_until_stable` / `run_until_any_halted`). The traced
//! solve replays the same step loop from outside — `Scheduler::prepare` and
//! `Scheduler::next_interaction_bounded`, then `World::apply`, then the stop
//! predicate (`World::is_stable` gated by `World::version`, or `World::any_halted`
//! after every applied step) — timing each call. [`trajectory_matches`] then
//! requires the replay to have executed exactly the untraced program.

use std::time::Instant;

use nc_core::scheduler::{Scheduler, UniformScheduler};
use nc_core::snapshot::SnapshotReader;
use nc_core::{
    ExecutionStats, IndexStats, SamplingMode, Simulation, SimulationConfig, SnapshotProtocol,
    StopReason, World,
};
use nc_protocols::counting_line::{final_count, CountingOnALine};
use nc_protocols::line::GlobalLine;
use nc_tm::arith::bit_width;

use crate::timed;

/// A protocol the benchmark can solve and check.
pub trait SimProtocol: SnapshotProtocol + Clone {
    /// Whether a solve runs until a node halts (else until the configuration is
    /// stable).
    const HALTS: bool;

    /// Checks the protocol's guaranteed outcome on a finished simulation.
    ///
    /// # Errors
    /// What is wrong with the outcome.
    fn check(sim: &Simulation<Self>) -> Result<(), String>;
}

impl SimProtocol for GlobalLine {
    const HALTS: bool = false;

    fn check(sim: &Simulation<Self>) -> Result<(), String> {
        let n = sim.config().n;
        if sim.output_shape().is_line(n) {
            Ok(())
        } else {
            Err(format!("no spanning line of {n} nodes"))
        }
    }
}

impl SimProtocol for CountingOnALine {
    const HALTS: bool = true;

    fn check(sim: &Simulation<Self>) -> Result<(), String> {
        let n = sim.config().n as u64;
        let c = final_count(sim).ok_or("no halted leader")?;
        if 2 * c.r0 < n || c.r0 >= n {
            return Err(format!("count r0 = {} outside [n/2, n) for n = {n}", c.r0));
        }
        // Lemma 1: the tape is a line of ⌊lg r0⌋ + 1 cells.
        let cells = bit_width(c.r0);
        let leader = sim.world().halted_nodes()[0];
        let tape = sim.world().shape_of(leader, false);
        if tape.is_line(cells) {
            Ok(())
        } else {
            Err(format!(
                "tape of {} cells is not a line of {cells} cells",
                tape.len()
            ))
        }
    }
}

/// One simulation workload.
#[derive(Clone, Debug)]
pub struct SimSpec<P> {
    /// The protocol.
    pub protocol: P,
    /// Population size.
    pub n: usize,
    /// Step budget of one solve; reaching it is a failure.
    pub max_steps: u64,
}

impl<P> SimSpec<P> {
    /// A workload at `n` with the step budget `64·n²·⌈lg n⌉`. Both protocols
    /// need Θ(n² log n) steps in expectation (Remark 1 of the paper for counting;
    /// coupon collection over the leader's port for the line), so the budget sits
    /// far above a normal solve and far below the 10⁹-step default only at tiny n.
    pub fn new(protocol: P, n: usize) -> SimSpec<P> {
        let n64 = n as u64;
        let lg = u64::from(n64.max(2).next_power_of_two().trailing_zeros());
        SimSpec {
            protocol,
            n,
            max_steps: 64 * n64 * n64 * lg,
        }
    }

    /// The configuration of the solve with scheduler seed `seed`: the exact jump
    /// sampler on one shard with speculation off, set explicitly so that
    /// `NC_SHARDS` / `NC_SPECULATION` cannot change the measured program.
    #[must_use]
    pub fn config(&self, seed: u64) -> SimulationConfig {
        SimulationConfig::new(self.n)
            .with_seed(seed)
            .with_max_steps(self.max_steps)
            .with_sampling(SamplingMode::Sharded)
            .with_shards(1)
            .with_speculation(0)
    }
}

/// A simulation workload seen only through its solves, whatever its protocol,
/// so that one task can solve several protocols.
pub trait Part {
    /// Seconds `Simulation::new` takes (see [`setup_only`]).
    fn setup_only(&self, seed: u64) -> f64;
    /// An untraced solve (see [`solve`]).
    fn solve(&self, seed: u64) -> Solve;
    /// A traced replay (see [`solve_traced`]).
    fn solve_traced(&self, seed: u64) -> TracedSolve;
}

impl<P: SimProtocol> Part for SimSpec<P> {
    fn setup_only(&self, seed: u64) -> f64 {
        setup_only(self, seed)
    }

    fn solve(&self, seed: u64) -> Solve {
        solve(self, seed)
    }

    fn solve_traced(&self, seed: u64) -> TracedSolve {
        solve_traced(self, seed)
    }
}

/// Seconds `Simulation::new` takes for the solve with seed `seed` (the world is
/// dropped unsolved).
#[must_use]
pub fn setup_only<P: SimProtocol>(spec: &SimSpec<P>, seed: u64) -> f64 {
    let started = Instant::now();
    let sim = Simulation::new(spec.protocol.clone(), spec.config(seed));
    let setup_s = started.elapsed().as_secs_f64();
    drop(sim);
    setup_s
}

/// An untraced solve.
#[derive(Clone, Debug)]
pub struct Solve {
    /// Seconds in `Simulation::new`.
    pub setup_s: f64,
    /// Seconds from `Simulation::new` returning to the run's stop.
    pub solve_s: f64,
    /// Lifetime statistics at the stop.
    pub stats: ExecutionStats,
    /// The end checkpoint.
    pub checkpoint: Vec<u8>,
    /// Why the solve failed its checks, if it did.
    pub failure: Option<String>,
}

/// Solves `spec` with scheduler seed `seed` through the public entry points,
/// then checks the outcome and the checkpoint round trip (outside the timing).
#[must_use]
pub fn solve<P: SimProtocol>(spec: &SimSpec<P>, seed: u64) -> Solve {
    let started = Instant::now();
    let mut sim = Simulation::new(spec.protocol.clone(), spec.config(seed));
    let setup_s = started.elapsed().as_secs_f64();
    let started = Instant::now();
    let report = if P::HALTS {
        sim.run_until_any_halted()
    } else {
        sim.run_until_stable()
    };
    let solve_s = started.elapsed().as_secs_f64();
    let (checkpoint, failure) = finish(&sim, report.reason, report.condition_met());
    Solve {
        setup_s,
        solve_s,
        stats: sim.stats(),
        checkpoint: checkpoint.bytes,
        failure,
    }
}

/// A traced replay of one solve.
#[derive(Clone, Debug, Default)]
pub struct TracedSolve {
    /// Wall seconds of the replayed step loop.
    pub wall_s: f64,
    /// Seconds in `Scheduler::prepare` + `next_interaction_bounded` +
    /// `drain_skipped_steps`.
    pub sample_s: f64,
    /// Seconds in `World::apply`.
    pub apply_s: f64,
    /// Seconds in `World::is_stable`.
    pub is_stable_s: f64,
    /// Seconds in `World::any_halted`.
    pub any_halted_s: f64,
    /// Scheduler calls.
    pub calls: u64,
    /// Ineffective selections the scheduler credited in bulk.
    pub credited_steps: u64,
    /// `World::apply` calls.
    pub applies: u64,
    /// Applies that changed a state or a bond.
    pub effective_applies: u64,
    /// Delta-log records the world appended.
    pub delta_records: u64,
    /// The pair index's work counters at the stop.
    pub index: IndexStats,
    /// Seconds to encode the end checkpoint.
    pub encode_s: f64,
    /// Seconds to decode it again.
    pub decode_s: f64,
    /// Lifetime statistics the replay accounted.
    pub stats: ExecutionStats,
    /// The end checkpoint of the replayed execution.
    pub checkpoint: Vec<u8>,
    /// Its length in bytes.
    pub checkpoint_len: usize,
    /// Population size.
    pub nodes: usize,
    /// Why the solve failed its checks, if it did.
    pub failure: Option<String>,
}

impl TracedSolve {
    /// Traced wall time not spent in any timed layer call.
    #[must_use]
    pub fn unattributed_s(&self) -> f64 {
        self.wall_s - self.sample_s - self.apply_s - self.is_stable_s - self.any_halted_s
    }

    /// Adds the times and counts of `other` (a solve of another part of the same
    /// task) to this one. Checkpoint bytes and failures are not carried.
    pub fn absorb(&mut self, other: &TracedSolve) {
        self.wall_s += other.wall_s;
        self.sample_s += other.sample_s;
        self.apply_s += other.apply_s;
        self.is_stable_s += other.is_stable_s;
        self.any_halted_s += other.any_halted_s;
        self.calls += other.calls;
        self.credited_steps += other.credited_steps;
        self.applies += other.applies;
        self.effective_applies += other.effective_applies;
        self.delta_records += other.delta_records;
        self.index.dirty_marks += other.index.dirty_marks;
        self.index.node_scans += other.index.node_scans;
        self.index.candidate_hits += other.index.candidate_hits;
        self.index.quiescent_hits += other.index.quiescent_hits;
        self.encode_s += other.encode_s;
        self.decode_s += other.decode_s;
        self.stats.absorb(&other.stats);
        self.checkpoint_len += other.checkpoint_len;
        self.nodes += other.nodes;
    }
}

/// How one replayed scheduler call ended (mirrors the simulation's own loop).
enum Step {
    Applied,
    BudgetSpent,
    Dry,
}

/// Replays the solve of `spec` with scheduler seed `seed`, timing every layer call.
#[must_use]
pub fn solve_traced<P: SimProtocol>(spec: &SimSpec<P>, seed: u64) -> TracedSolve {
    let config = spec.config(seed);
    let mut world = World::with_shards(spec.protocol.clone(), config.n, config.shards);
    // As `Simulation::new` builds it.
    let mut scheduler = UniformScheduler::with_mode(config.seed, config.sampling)
        .with_speculation(config.speculation);
    let mut t = TracedSolve::default();
    let budget = config.max_steps;

    let started = Instant::now();
    let reason = if P::HALTS {
        // `Simulation::run_until` with the `any_halted` predicate.
        if timed(&mut t.any_halted_s, || world.any_halted()) {
            StopReason::AllHalted
        } else {
            loop {
                if t.stats.steps >= budget {
                    break StopReason::StepBudget;
                }
                match step(&mut world, &mut scheduler, budget - t.stats.steps, &mut t) {
                    Step::Applied => {
                        if timed(&mut t.any_halted_s, || world.any_halted()) {
                            break StopReason::AllHalted;
                        }
                    }
                    Step::BudgetSpent => {}
                    Step::Dry => break StopReason::NoInteraction,
                }
            }
        }
    } else {
        // `Simulation::run_until_stable` on an indexed sampler.
        let mut checked_version = None;
        loop {
            let version = world.version();
            if checked_version != Some(version) {
                if timed(&mut t.is_stable_s, || world.is_stable()) {
                    break StopReason::Stable;
                }
                checked_version = Some(version);
            }
            if t.stats.steps >= budget {
                break StopReason::StepBudget;
            }
            match step(&mut world, &mut scheduler, budget - t.stats.steps, &mut t) {
                Step::Applied | Step::BudgetSpent => {}
                Step::Dry => break StopReason::NoInteraction,
            }
        }
    };
    t.wall_s = started.elapsed().as_secs_f64();
    t.delta_records = world.delta_records();
    t.index = world.index_stats();

    // Hand the replayed world and scheduler to a simulation so that the end state
    // goes through the same checkpoint encoder as the untraced solve.
    let mut twin = Simulation::with_scheduler(spec.protocol.clone(), config, scheduler);
    std::mem::swap(twin.world_mut(), &mut world);
    drop(world);
    let met = matches!(reason, StopReason::Stable | StopReason::AllHalted);
    let (checkpoint, failure) = finish(&twin, reason, met);
    t.encode_s = checkpoint.encode_s;
    t.decode_s = checkpoint.decode_s;
    t.checkpoint_len = checkpoint.bytes.len();
    t.nodes = config.n;
    t.checkpoint = checkpoint.bytes;
    t.failure = failure;
    t
}

/// One replayed `Simulation::step_within`: draw, drain the credited skips, apply.
fn step<P: SimProtocol>(
    world: &mut World<P>,
    scheduler: &mut UniformScheduler,
    allowance: u64,
    t: &mut TracedSolve,
) -> Step {
    let (picked, skipped) = timed(&mut t.sample_s, || {
        scheduler.prepare(world);
        let picked = scheduler.next_interaction_bounded(world, allowance);
        (picked, scheduler.drain_skipped_steps())
    });
    t.calls += 1;
    t.credited_steps += skipped;
    t.stats.steps += skipped;
    t.stats.skipped_steps += skipped;
    let Some(interaction) = picked else {
        return if skipped > 0 {
            Step::BudgetSpent
        } else {
            Step::Dry
        };
    };
    let outcome = timed(&mut t.apply_s, || world.apply(&interaction));
    t.applies += 1;
    let s = &mut t.stats;
    s.steps += 1;
    s.effective_steps += u64::from(outcome.effective);
    s.bonds_activated += u64::from(outcome.bond_activated);
    s.bonds_deactivated += u64::from(outcome.bond_deactivated);
    s.merges += u64::from(outcome.merged);
    s.splits += u64::from(outcome.split);
    t.effective_applies += u64::from(outcome.effective);
    Step::Applied
}

/// An end checkpoint and the time its round trip took.
struct Checkpoint {
    bytes: Vec<u8>,
    encode_s: f64,
    decode_s: f64,
}

/// The checks every solve ends with: the stop condition was met, the protocol's
/// outcome holds, and `checkpoint → resume → checkpoint` is byte-identical.
fn finish<P: SimProtocol>(
    sim: &Simulation<P>,
    reason: StopReason,
    condition_met: bool,
) -> (Checkpoint, Option<String>) {
    let mut checkpoint = Checkpoint {
        bytes: Vec::new(),
        encode_s: 0.0,
        decode_s: 0.0,
    };
    let mut failure = if condition_met {
        P::check(sim).err()
    } else {
        Some(format!(
            "stopped by {reason:?} after {} steps",
            sim.stats().steps
        ))
    };
    let started = Instant::now();
    let first = match sim.checkpoint() {
        Ok(snapshot) => snapshot,
        Err(e) => {
            return (
                checkpoint,
                failure.or(Some(format!("checkpoint failed: {e}"))),
            );
        }
    };
    checkpoint.encode_s = started.elapsed().as_secs_f64();
    let started = Instant::now();
    let resumed = Simulation::resume(sim.world().protocol().clone(), &first);
    checkpoint.decode_s = started.elapsed().as_secs_f64();
    let round_trip = resumed
        .map_err(|e| format!("resume failed: {e}"))
        .and_then(|resumed| {
            resumed
                .checkpoint()
                .map_err(|e| format!("checkpoint failed: {e}"))
        });
    match round_trip {
        Ok(second) if second.as_bytes() == first.as_bytes() => {}
        Ok(_) => failure = failure.or(Some("checkpoint → resume → checkpoint differs".into())),
        Err(e) => failure = failure.or(Some(e)),
    }
    checkpoint.bytes = first.into_bytes();
    (checkpoint, failure)
}

/// The trajectory check: the traced replay must have executed exactly the
/// untraced program — the same `ExecutionStats`, and an end checkpoint that is
/// byte-identical except for the statistics block, which must hold those stats.
///
/// (The replay's checkpoint is taken through a fresh simulation that carries the
/// replayed world and scheduler but zero statistics, since `Simulation` offers
/// no way to set them; the block is therefore compared as values.)
///
/// # Errors
/// Where the two executions differ.
pub fn trajectory_matches(untraced: &Solve, traced: &TracedSolve) -> Result<(), String> {
    if untraced.stats != traced.stats {
        return Err(format!(
            "execution stats differ: untraced {:?}, traced {:?}",
            untraced.stats, traced.stats
        ));
    }
    let (head_a, stats_a, rest_a) = split_checkpoint(&untraced.checkpoint)?;
    let (head_b, stats_b, rest_b) = split_checkpoint(&traced.checkpoint)?;
    if head_a != head_b {
        return Err("checkpoint headers differ".into());
    }
    if stats_a != untraced.stats || stats_b != ExecutionStats::default() {
        return Err("checkpoint statistics do not match the accounted ones".into());
    }
    if rest_a != rest_b {
        return Err(format!(
            "end states differ ({} vs {} bytes of world and scheduler state)",
            rest_a.len(),
            rest_b.len()
        ));
    }
    Ok(())
}

/// Splits a checkpoint into (header without statistics, statistics, the world and
/// scheduler state). Layout: magic (4), version (2), protocol name (u16-prefixed),
/// n, seed, max_steps (u64), sampling tag (u8), shards, speculation (u64), seven
/// u64 statistics, state, checksum (u64).
fn split_checkpoint(bytes: &[u8]) -> Result<(Vec<u8>, ExecutionStats, &[u8]), String> {
    const PREFIX: usize = 6;
    const CHECKSUM: usize = 8;
    if bytes.len() < PREFIX + CHECKSUM {
        return Err("checkpoint too short".into());
    }
    let body = &bytes[PREFIX..bytes.len() - CHECKSUM];
    let mut r = SnapshotReader::new(body);
    let parse = |r: &mut SnapshotReader| -> nc_core::Result<ExecutionStats> {
        r.str16()?;
        for _ in 0..3 {
            r.u64()?;
        }
        r.u8()?;
        r.u64()?;
        r.u64()?;
        Ok(ExecutionStats {
            steps: r.u64()?,
            effective_steps: r.u64()?,
            skipped_steps: r.u64()?,
            bonds_activated: r.u64()?,
            bonds_deactivated: r.u64()?,
            merges: r.u64()?,
            splits: r.u64()?,
        })
    };
    let stats = parse(&mut r).map_err(|e| format!("checkpoint header: {e}"))?;
    let state_at = r.pos();
    let stats_at = state_at - 7 * 8;
    let mut head = bytes[..PREFIX].to_vec();
    head.extend_from_slice(&body[..stats_at]);
    Ok((head, stats, &body[state_at..]))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(n: usize) -> SimSpec<GlobalLine> {
        SimSpec::new(GlobalLine::new(), n)
    }

    fn counting(n: usize) -> SimSpec<CountingOnALine> {
        SimSpec::new(CountingOnALine::new(4), n)
    }

    #[test]
    fn the_replay_reproduces_the_untraced_line() {
        let spec = line(48);
        let untraced = solve(&spec, 7);
        assert_eq!(untraced.failure, None);
        let traced = solve_traced(&spec, 7);
        assert_eq!(traced.failure, None);
        trajectory_matches(&untraced, &traced).expect("same program");
        assert_eq!(
            traced.stats.merges, 47,
            "every effective line step is a merge"
        );
        assert_eq!(traced.applies, traced.calls);
        assert!(traced.is_stable_s > 0.0 && traced.any_halted_s == 0.0);
    }

    #[test]
    fn the_replay_reproduces_the_untraced_count() {
        // At n = 40 the n/2 guarantee of Theorem 1 fails for some seeds; the
        // replay must reproduce failing and passing solves alike.
        let spec = counting(40);
        let mut outcomes = Vec::new();
        for seed in 0..8 {
            let untraced = solve(&spec, seed);
            let traced = solve_traced(&spec, seed);
            trajectory_matches(&untraced, &traced).expect("same program");
            assert_eq!(untraced.failure, traced.failure, "seed {seed}");
            assert!(traced.any_halted_s > 0.0 && traced.is_stable_s == 0.0);
            assert!(
                traced.stats.skipped_steps > 0,
                "the jump sampler credits skips"
            );
            outcomes.push(untraced.failure);
        }
        assert!(outcomes.iter().any(Option::is_none), "{outcomes:?}");
        // Seed 3 undercounts: the check reports it instead of passing it.
        assert!(outcomes[3]
            .as_deref()
            .is_some_and(|why| why.contains("outside [n/2, n)")));
    }

    #[test]
    fn a_divergent_replay_is_caught() {
        let spec = line(32);
        let untraced = solve(&spec, 11);
        // A replay of another seed executes another trajectory of the same length:
        // the stats or the end state must give it away.
        let traced = solve_traced(&spec, 12);
        assert!(trajectory_matches(&untraced, &traced).is_err());

        // Same stats, different end state: only the checkpoint comparison can tell.
        let mut forged = solve_traced(&spec, 11);
        let other = solve_traced(&spec, 12);
        let len = forged.checkpoint.len();
        forged.checkpoint[len - 9] ^= 1;
        assert!(trajectory_matches(&untraced, &forged)
            .unwrap_err()
            .contains("end states differ"));
        forged.checkpoint = other.checkpoint;
        assert!(trajectory_matches(&untraced, &forged).is_err());
    }

    #[test]
    fn a_step_budget_stop_is_a_failure() {
        let mut spec = line(32);
        spec.max_steps = 10;
        let untraced = solve(&spec, 1);
        assert!(untraced.failure.unwrap().contains("StepBudget"));
        let traced = solve_traced(&spec, 1);
        assert!(traced.failure.unwrap().contains("StepBudget"));
    }

    #[test]
    fn budgets_come_from_the_workload() {
        let spec = counting(1 << 15);
        assert!(spec.max_steps > 10 * 58_000_000_000, "{}", spec.max_steps);
    }
}
