//! Driving one job in bounded slices, with checkpoints at every slice boundary.
//!
//! A [`JobRunner`] owns a running [`Simulation`] of one of the three snapshot-capable
//! reference protocols, type-erased behind an enum so the queue and workers never
//! carry protocol type parameters. Workers call [`JobRunner::advance`] with a slice
//! allowance; between slices they checkpoint ([`JobRunner::checkpoint_bytes`]) and
//! park the job, so no single job starves the queue and a crashed worker loses at
//! most one slice of progress.
//!
//! # Determinism across crash/resume
//!
//! The slice arithmetic uses only state that survives a resume: the lifetime step
//! count carried by [`ExecutionStats`](nc_core::ExecutionStats) and the immutable
//! spec. A run that crashes and resumes from its last checkpoint therefore computes
//! the **same** per-slice allowances at the same lifetime step counts as an
//! uninterrupted run, drives the same byte-identical trajectory (the PR 5 snapshot
//! guarantee), and lands on the same [`JobReport`] — pinned by the crash-recovery
//! suite and the `--smoke` gate.

use nc_core::snapshot::Snapshot;
use nc_core::{Simulation, SimulationConfig, StopReason};
use nc_protocols::counting_line::{final_count, CountingOnALine};
use nc_protocols::line::GlobalLine;
use nc_protocols::square::Square;

use crate::job::{JobSpec, ProtocolKind};

/// What one bounded slice of execution produced.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SliceOutcome {
    /// The job reached its protocol's stopping condition. `completed` is whether the
    /// guaranteed outcome (spanning line, full square, halted counting leader) holds.
    Finished {
        /// Whether the protocol's guaranteed outcome was verified.
        completed: bool,
    },
    /// The lifetime step budget ran out before the stopping condition.
    BudgetExhausted,
    /// The slice allowance was spent; the job should be checkpointed and requeued.
    Yielded,
}

/// A type-erased running job.
pub enum JobRunner {
    /// A `GlobalLine` run (to stability).
    Line(Simulation<GlobalLine>),
    /// A `Square` run (to stability).
    Square(Simulation<Square>),
    /// A `CountingOnALine` run (until the leader halts).
    Counting(Simulation<CountingOnALine>),
}

impl JobRunner {
    /// Starts a fresh run from a spec.
    #[must_use]
    pub fn start(spec: &JobSpec) -> JobRunner {
        let config = SimulationConfig::new(spec.n)
            .with_seed(spec.seed)
            .with_sampling(spec.mode)
            .with_shards(spec.shards);
        match spec.protocol {
            ProtocolKind::Line => JobRunner::Line(Simulation::new(GlobalLine::new(), config)),
            ProtocolKind::Square => JobRunner::Square(Simulation::new(Square::new(), config)),
            ProtocolKind::Counting => {
                JobRunner::Counting(Simulation::new(CountingOnALine::new(2), config))
            }
        }
    }

    /// Rebuilds a run from checkpoint bytes taken by [`JobRunner::checkpoint_bytes`].
    ///
    /// # Errors
    /// The snapshot layer's typed errors (corrupt, truncated, protocol mismatch).
    pub fn resume(spec: &JobSpec, bytes: &[u8]) -> nc_core::Result<JobRunner> {
        let snapshot = Snapshot::from_bytes(bytes.to_vec())?;
        Ok(match spec.protocol {
            ProtocolKind::Line => {
                JobRunner::Line(Simulation::resume(GlobalLine::new(), &snapshot)?)
            }
            ProtocolKind::Square => {
                JobRunner::Square(Simulation::resume(Square::new(), &snapshot)?)
            }
            ProtocolKind::Counting => {
                JobRunner::Counting(Simulation::resume(CountingOnALine::new(2), &snapshot)?)
            }
        })
    }

    /// Serializes the run's full execution state (the PR 5 snapshot format).
    ///
    /// # Errors
    /// The snapshot layer's typed errors; never panics.
    pub fn checkpoint_bytes(&self) -> nc_core::Result<Vec<u8>> {
        let snapshot = match self {
            JobRunner::Line(sim) => sim.checkpoint()?,
            JobRunner::Square(sim) => sim.checkpoint()?,
            JobRunner::Counting(sim) => sim.checkpoint()?,
        };
        Ok(snapshot.into_bytes())
    }

    /// Lifetime execution statistics (survive checkpoint/resume).
    #[must_use]
    pub fn stats(&self) -> nc_core::ExecutionStats {
        match self {
            JobRunner::Line(sim) => sim.stats(),
            JobRunner::Square(sim) => sim.stats(),
            JobRunner::Counting(sim) => sim.stats(),
        }
    }

    /// Runs one slice: up to `slice` scheduler steps, clipped to whatever remains of
    /// the job's lifetime `step_budget`. The slice allowance is a function of the
    /// lifetime step count only, so crashed-and-resumed runs recompute identical
    /// slice boundaries (see the module docs).
    pub fn advance(&mut self, slice: u64, step_budget: u64) -> SliceOutcome {
        let lifetime = self.stats().steps;
        if lifetime >= step_budget {
            return SliceOutcome::BudgetExhausted;
        }
        let allowance = slice.min(step_budget - lifetime);
        let report = match self {
            JobRunner::Line(sim) => {
                sim.config_mut().max_steps = allowance;
                sim.run_until_stable()
            }
            JobRunner::Square(sim) => {
                sim.config_mut().max_steps = allowance;
                sim.run_until_stable()
            }
            JobRunner::Counting(sim) => {
                sim.config_mut().max_steps = allowance;
                sim.run_until_any_halted()
            }
        };
        match report.reason {
            StopReason::Stable | StopReason::AllHalted => SliceOutcome::Finished {
                completed: self.outcome_holds(),
            },
            // A dry scheduler (single-node population) can never progress further.
            StopReason::NoInteraction => SliceOutcome::Finished {
                completed: self.outcome_holds(),
            },
            StopReason::StepBudget => {
                if self.stats().steps >= step_budget {
                    SliceOutcome::BudgetExhausted
                } else {
                    SliceOutcome::Yielded
                }
            }
            // run_until_stable / run_until_any_halted never return Predicate.
            StopReason::Predicate => SliceOutcome::Finished {
                completed: self.outcome_holds(),
            },
        }
    }

    /// Whether the protocol's guaranteed outcome holds in the current configuration:
    /// the spanning line, the ⌊√n⌋ full square on perfect-square populations, or a
    /// halted counting leader — the same checks the `scheduler_sweep` rows assert.
    #[must_use]
    pub fn outcome_holds(&self) -> bool {
        match self {
            JobRunner::Line(sim) => {
                let n = sim.config().n;
                sim.output_shape().is_line(n)
            }
            JobRunner::Square(sim) => {
                let n = sim.config().n;
                let d = (n as f64).sqrt() as u32;
                // Non-perfect-square populations have no guaranteed shape; stability
                // itself is the outcome.
                d as usize * d as usize != n || sim.output_shape().is_full_square(d)
            }
            JobRunner::Counting(sim) => final_count(sim).is_some(),
        }
    }
}

/// The deterministic end-of-job report: every field is a pure function of the spec
/// and the executed trajectory, so a crashed-and-recovered run serializes to bytes
/// **identical** to an uncrashed run's (wall-clock metrics live in the stats tier's
/// sweep rows instead, which make no such promise).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JobReport {
    /// Protocol name.
    pub protocol: String,
    /// Population size.
    pub n: usize,
    /// Scheduler seed.
    pub seed: u64,
    /// Sampling-mode label (sweep-row convention).
    pub mode: String,
    /// Shard count.
    pub shards: usize,
    /// Lifetime scheduler steps.
    pub steps: u64,
    /// Lifetime effective steps.
    pub effective_steps: u64,
    /// Lifetime bulk-credited ineffective selections.
    pub skipped_steps: u64,
    /// Whether the protocol's guaranteed outcome was verified.
    pub completed: bool,
}

impl JobReport {
    /// Builds the report from a finished runner.
    #[must_use]
    pub fn from_runner(spec: &JobSpec, runner: &JobRunner, completed: bool) -> JobReport {
        let stats = runner.stats();
        JobReport {
            protocol: spec.protocol.name().to_string(),
            n: spec.n,
            seed: spec.seed,
            mode: spec.mode_label(),
            shards: spec.shards,
            steps: stats.steps,
            effective_steps: stats.effective_steps,
            skipped_steps: stats.skipped_steps,
            completed,
        }
    }

    /// The report as one JSON object (fixed field order; deterministic bytes).
    #[must_use]
    pub fn to_json(&self) -> String {
        format!(
            "{{\"protocol\": \"{}\", \"n\": {}, \"seed\": {}, \"mode\": \"{}\", \"shards\": {}, \"steps\": {}, \"effective_steps\": {}, \"skipped_steps\": {}, \"completed\": {}}}",
            self.protocol,
            self.n,
            self.seed,
            self.mode,
            self.shards,
            self.steps,
            self.effective_steps,
            self.skipped_steps,
            self.completed
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{JobSpec, ProtocolKind};

    #[test]
    fn sliced_execution_matches_an_unsliced_run() {
        let spec = JobSpec::new(ProtocolKind::Square, 16);
        // Unsliced reference.
        let mut reference = JobRunner::start(&spec);
        let outcome = reference.advance(spec.step_budget, spec.step_budget);
        assert_eq!(outcome, SliceOutcome::Finished { completed: true });

        // Sliced run: tiny slices, checkpoint round-trip between every slice.
        let mut runner = JobRunner::start(&spec);
        let mut slices = 0;
        let completed = loop {
            match runner.advance(64, spec.step_budget) {
                SliceOutcome::Finished { completed } => break completed,
                SliceOutcome::Yielded => {
                    let bytes = runner.checkpoint_bytes().expect("checkpoint");
                    runner = JobRunner::resume(&spec, &bytes).expect("resume");
                    slices += 1;
                    assert!(slices < 100_000, "square(16) must converge");
                }
                SliceOutcome::BudgetExhausted => panic!("budget must suffice"),
            }
        };
        assert!(completed);
        assert_eq!(
            JobReport::from_runner(&spec, &runner, true),
            JobReport::from_runner(&spec, &reference, true),
            "slicing plus checkpoint round-trips must not change the trajectory"
        );
    }

    #[test]
    fn budget_exhaustion_is_reported_not_panicked() {
        let mut spec = JobSpec::new(ProtocolKind::Line, 64);
        spec.step_budget = 10;
        let mut runner = JobRunner::start(&spec);
        assert_eq!(
            runner.advance(64, spec.step_budget),
            SliceOutcome::BudgetExhausted
        );
        assert!(runner.stats().steps <= 10);
    }

    #[test]
    fn counting_runs_to_a_halted_leader() {
        let spec = JobSpec::new(ProtocolKind::Counting, 8);
        let mut runner = JobRunner::start(&spec);
        loop {
            match runner.advance(512, spec.step_budget) {
                SliceOutcome::Finished { completed } => {
                    assert!(completed, "the halted run must leave a halted leader");
                    break;
                }
                SliceOutcome::Yielded => {}
                SliceOutcome::BudgetExhausted => panic!("budget must suffice"),
            }
        }
    }

    #[test]
    fn report_json_is_deterministic() {
        let spec = JobSpec::new(ProtocolKind::Square, 9);
        let mut a = JobRunner::start(&spec);
        let mut b = JobRunner::start(&spec);
        while !matches!(
            a.advance(128, spec.step_budget),
            SliceOutcome::Finished { .. }
        ) {}
        while !matches!(
            b.advance(32, spec.step_budget),
            SliceOutcome::Finished { .. }
        ) {}
        assert_eq!(
            JobReport::from_runner(&spec, &a, a.outcome_holds()).to_json(),
            JobReport::from_runner(&spec, &b, b.outcome_holds()).to_json(),
            "different slice lengths must serialize identical reports"
        );
    }
}
