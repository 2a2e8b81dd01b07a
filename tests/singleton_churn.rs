//! Singleton-class churn against the pair index's lazily filled effectiveness tables.
//!
//! The index fills the column of a state class in its dense `effmask`/`epc` tables
//! the first time the class registers a free singleton, and only the row of a class
//! that becomes live otherwise (see the section comment in `crates/core/src/index.rs`).
//! The counting leader churns classes, but it rides a multi-node component, so it
//! exercises only the row path. The `Drift` protocol here moves *free singletons* to
//! fresh states on almost every interaction, with pairs bonding and dissolving on the
//! side, so columns are filled, their class slots are freed and reused, and a
//! rollback resurrects classes whose columns a later tenant overwrote.
//!
//! The suite runs it with a checkpoint → apply → rollback → `validate_pair_index` →
//! re-apply cycle around every apply at 1 and 4 shards (the validation checks every
//! filled table entry against the class states), and resumes it from snapshots taken
//! mid-churn, requiring byte-identical checkpoints afterwards.

use shape_constructors::core::scheduler::{Scheduler, UniformScheduler};
use shape_constructors::core::{
    CoreError, NodeId, Placement, Protocol, SamplingMode, Simulation, SimulationConfig, Snapshot,
    SnapshotProtocol, SnapshotReader, SnapshotWriter, Transition, World,
};
use shape_constructors::geometry::Dir;
use std::collections::HashSet;

/// Number of distinct states. Live classes never exceed the population, which the
/// suite keeps well below the class table's cap of 64.
const PHASES: u8 = 48;

/// States are phases `0..PHASES`. Two unbonded nodes either bond (keeping their
/// phases) or both move to new phases; a bonded pair either dissolves or moves one
/// end to a new phase. Which rule fires depends on the phases and the ports, and not
/// symmetrically in the two roles, so the per-port masks are neither full nor empty.
struct Drift;

impl Protocol for Drift {
    type State = u8;

    fn initial_state(&self, node: NodeId, _n: usize) -> u8 {
        (node.index() % 6) as u8
    }

    fn transition(&self, a: &u8, pa: Dir, b: &u8, pb: Dir, bonded: bool) -> Option<Transition<u8>> {
        let (v, w) = (*a, *b);
        let next = |x: u32| (x % u32::from(PHASES)) as u8;
        if bonded {
            return Some(if (v + w) % 2 == 1 {
                // Dissolve: `b` keeps its phase, so a class first seen inside a pair
                // (row only) can become a singleton class later.
                Transition {
                    a: next(u32::from(v) + 1),
                    b: w,
                    bond: false,
                }
            } else {
                Transition {
                    a: v,
                    b: next(u32::from(w) + 1),
                    bond: true,
                }
            });
        }
        let ports = pa.index() + pb.index();
        if (v + w).is_multiple_of(5) && ports.is_multiple_of(2) {
            Some(Transition {
                a: v,
                b: w,
                bond: true,
            })
        } else if (usize::from(v) + pa.index()).is_multiple_of(2) {
            Some(Transition {
                a: next(u32::from(v) + u32::from(w) + 1),
                b: next(2 * u32::from(v) + u32::from(w) + 3),
                bond: false,
            })
        } else {
            None
        }
    }

    fn name(&self) -> &str {
        "drift"
    }
}

impl SnapshotProtocol for Drift {
    fn encode_state(&self, state: &u8, out: &mut SnapshotWriter) {
        out.u8(*state);
    }

    fn decode_state(&self, r: &mut SnapshotReader<'_>) -> Result<u8, CoreError> {
        match r.u8()? {
            s if s < PHASES => Ok(s),
            _ => Err(CoreError::SnapshotCorrupt {
                what: "drift phase out of range",
            }),
        }
    }
}

/// Everything observable about a `World`, for comparison around a rollback.
#[derive(Clone, PartialEq, Debug)]
struct Fingerprint {
    states: Vec<u8>,
    links: Vec<Vec<Option<(NodeId, Dir)>>>,
    placements: Vec<Placement>,
    comp_members: Vec<Vec<NodeId>>,
}

fn fingerprint(world: &World<Drift>) -> Fingerprint {
    let dirs = world.dim().dirs();
    Fingerprint {
        states: world.state_slice().to_vec(),
        links: world
            .nodes()
            .map(|x| dirs.iter().map(|&d| world.bonded_peer(x, d)).collect())
            .collect(),
        placements: world.nodes().map(|x| world.placement(x)).collect(),
        comp_members: world
            .nodes()
            .map(|x| world.component(x).members().to_vec())
            .collect(),
    }
}

/// The live states, and the states held by at least one free singleton.
fn classes(world: &World<Drift>) -> (HashSet<u8>, HashSet<u8>) {
    let live = world.state_slice().iter().copied().collect();
    let singleton = world
        .nodes()
        .filter(|&x| world.component(x).len() == 1)
        .map(|x| world.state_slice()[x.index()])
        .collect();
    (live, singleton)
}

/// How often the run took each path of the lazy fill.
#[derive(Default, Debug)]
struct Coverage {
    /// A singleton moved to a state no node held: a fresh class whose column the
    /// registration fills.
    fresh_singleton_classes: u32,
    /// A class already live without a singleton gained one: its column is filled
    /// after its row.
    late_columns: u32,
    /// A singleton class was retired by the apply; the rollback resurrects it and the
    /// undone drop refills its column.
    resurrected_columns: u32,
}

fn cycle_every_apply(n: usize, seed: u64, shards: usize, steps: u32) -> Coverage {
    let mut world = World::with_shards(Drift, n, shards);
    let mut scheduler = UniformScheduler::with_mode(seed, SamplingMode::Sharded);
    world.validate_pair_index().expect("initial index");
    let mut coverage = Coverage::default();
    for step in 0..steps {
        let interaction = scheduler
            .next_interaction(&world)
            .unwrap_or_else(|| panic!("step {step}: drift never runs dry"));
        let pre = fingerprint(&world);
        let (live_before, singleton_before) = classes(&world);
        let mark = world.checkpoint();
        world.apply(&interaction);
        let post = fingerprint(&world);
        let (live_after, singleton_after) = classes(&world);
        for state in &singleton_after {
            if !live_before.contains(state) {
                coverage.fresh_singleton_classes += 1;
            } else if !singleton_before.contains(state) {
                coverage.late_columns += 1;
            }
        }
        coverage.resurrected_columns += singleton_before
            .iter()
            .filter(|state| !live_after.contains(state))
            .count() as u32;
        world.rollback(mark).expect("epoch is open");
        assert_eq!(
            fingerprint(&world),
            pre,
            "shards={shards} step {step}: rollback must restore the world"
        );
        world
            .validate_pair_index()
            .unwrap_or_else(|e| panic!("shards={shards} step {step}: after rollback: {e}"));
        world.apply(&interaction);
        assert_eq!(
            fingerprint(&world),
            post,
            "shards={shards} step {step}: re-apply must reproduce the apply"
        );
    }
    world
        .validate_pair_index()
        .unwrap_or_else(|e| panic!("shards={shards}: at the end of the churn: {e}"));
    coverage
}

#[test]
fn rollback_keeps_lazily_filled_columns_exact_under_singleton_churn() {
    // At most n = 20 classes are ever live, so after the first 20 allocations every
    // allocation reuses a freed slot, whose column a former tenant may have filled.
    for shards in [1, 4] {
        let coverage = cycle_every_apply(20, 13, shards, 1_500);
        assert!(
            coverage.fresh_singleton_classes >= 200
                && coverage.late_columns >= 50
                && coverage.resurrected_columns >= 200,
            "shards={shards}: the churn must take every fill path: {coverage:?}"
        );
    }
}

#[test]
fn resume_mid_churn_is_byte_identical() {
    for shards in [1, 4] {
        let config = SimulationConfig::new(20)
            .with_seed(29)
            .with_sampling(SamplingMode::Sharded)
            .with_shards(shards);
        let mut reference = Simulation::new(Drift, config);
        let mut checkpoints = Vec::new();
        for _ in 0..600 {
            assert!(reference.step(), "drift never runs dry");
            checkpoints.push(reference.checkpoint().expect("checkpoint").into_bytes());
        }
        for crash_at in [0, 150, 377] {
            let label = format!("shards={shards} resume after step {crash_at}");
            let snapshot = Snapshot::from_bytes(checkpoints[crash_at].clone())
                .unwrap_or_else(|e| panic!("{label}: snapshot must validate: {e}"));
            let mut resumed = Simulation::resume(Drift, &snapshot)
                .unwrap_or_else(|e| panic!("{label}: resume failed: {e}"));
            resumed
                .world()
                .validate_pair_index()
                .unwrap_or_else(|e| panic!("{label}: restored index: {e}"));
            for (step, expected) in checkpoints.iter().enumerate().skip(crash_at + 1) {
                assert!(resumed.step(), "{label}: went dry at step {step}");
                assert_eq!(
                    resumed.checkpoint().expect("checkpoint").as_bytes(),
                    &expected[..],
                    "{label}: trajectory diverged at step {step}"
                );
                if step % 50 == 0 {
                    resumed
                        .world()
                        .validate_pair_index()
                        .unwrap_or_else(|e| panic!("{label}: step {step}: {e}"));
                }
            }
        }
    }
}
