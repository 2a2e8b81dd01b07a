//! The `O(1)` halt predicates: `World::any_halted` and `World::all_halted` read a
//! halted-node count that the world maintains next to its per-node halted cache.
//! Every path that writes the cache must keep the count in step. This suite checks
//! the predicates against a direct scan of the cache (`World::halted_nodes`) after
//! each such path: `set_state`, a checkpoint → apply → rollback cycle, and a snapshot
//! resume. `World::validate_pair_index` checks the count against the same scan.

use shape_constructors::core::scheduler::{Scheduler, UniformScheduler};
use shape_constructors::core::{
    CoreError, NodeId, Protocol, SamplingMode, Simulation, SimulationConfig, SnapshotProtocol,
    SnapshotReader, SnapshotWriter, Transition, World,
};
use shape_constructors::geometry::Dir;
use shape_constructors::protocols::counting_line::CountingOnALine;

/// Two active nodes bond and both halt, so with `n` even every node ends halted.
struct HaltInPairs;

const ACTIVE: u8 = 0;
const HALTED: u8 = 1;

impl Protocol for HaltInPairs {
    type State = u8;

    fn initial_state(&self, _node: NodeId, _n: usize) -> u8 {
        ACTIVE
    }

    fn transition(
        &self,
        a: &u8,
        _pa: Dir,
        b: &u8,
        _pb: Dir,
        bonded: bool,
    ) -> Option<Transition<u8>> {
        (*a == ACTIVE && *b == ACTIVE && !bonded).then_some(Transition {
            a: HALTED,
            b: HALTED,
            bond: true,
        })
    }

    fn is_halted(&self, state: &u8) -> bool {
        *state == HALTED
    }

    fn name(&self) -> &str {
        "halt-in-pairs"
    }
}

impl SnapshotProtocol for HaltInPairs {
    fn encode_state(&self, state: &u8, out: &mut SnapshotWriter) {
        out.u8(*state);
    }

    fn decode_state(&self, r: &mut SnapshotReader<'_>) -> Result<u8, CoreError> {
        match r.u8()? {
            s @ (ACTIVE | HALTED) => Ok(s),
            _ => Err(CoreError::SnapshotCorrupt {
                what: "unknown halt-in-pairs state",
            }),
        }
    }
}

/// Both predicates agree with a scan of the per-node cache, and the index validation
/// (which checks the count itself) passes.
fn assert_predicates_match_scan<P: Protocol>(world: &World<P>, context: &str) {
    let halted = world.halted_nodes().len();
    assert_eq!(world.any_halted(), halted > 0, "{context}: any_halted");
    assert_eq!(
        world.all_halted(),
        halted == world.len(),
        "{context}: all_halted"
    );
    world
        .validate_pair_index()
        .unwrap_or_else(|e| panic!("{context}: {e}"));
}

#[test]
fn set_state_keeps_the_predicates_exact() {
    for shards in [1, 3] {
        let n = 6;
        let mut world = World::with_shards(HaltInPairs, n, shards);
        assert_predicates_match_scan(&world, "initial");
        assert!(!world.any_halted());
        for i in 0..n {
            world.set_state(NodeId::new(i as u32), HALTED);
            assert_predicates_match_scan(&world, &format!("halted {i}"));
        }
        assert!(world.all_halted());
        // Writing a halted node's state again must not count it twice.
        world.set_state(NodeId::new(2), HALTED);
        assert_predicates_match_scan(&world, "re-halted 2");
        world.set_state(NodeId::new(4), ACTIVE);
        assert_predicates_match_scan(&world, "revived 4");
        assert!(world.any_halted() && !world.all_halted());
        // A `set_state` inside an epoch is undone by the rollback.
        let mark = world.checkpoint();
        world.set_state(NodeId::new(4), HALTED);
        assert!(world.all_halted());
        world.rollback(mark).expect("epoch is open");
        assert_predicates_match_scan(&world, "rolled back set_state");
        assert!(!world.all_halted());
    }
}

/// Around every apply of a seeded run: checkpoint, apply, rollback, re-apply, with the
/// predicates checked against the scan at each stage. Runs until `stop` holds or no
/// effective interaction is left, and returns the final world.
fn cycle_every_apply<P: Protocol>(
    protocol: P,
    n: usize,
    seed: u64,
    shards: usize,
    stop: impl Fn(&World<P>) -> bool,
) -> World<P> {
    let mut world = World::with_shards(protocol, n, shards);
    let mut scheduler = UniformScheduler::with_mode(seed, SamplingMode::Sharded);
    let mut step = 0;
    while !stop(&world) {
        let Some(interaction) = scheduler.next_interaction(&world) else {
            break;
        };
        let before = (world.any_halted(), world.all_halted());
        let mark = world.checkpoint();
        world.apply(&interaction);
        assert_predicates_match_scan(&world, &format!("step {step}: applied"));
        world.rollback(mark).expect("epoch is open");
        assert_predicates_match_scan(&world, &format!("step {step}: rolled back"));
        assert_eq!(
            (world.any_halted(), world.all_halted()),
            before,
            "step {step}"
        );
        world.apply(&interaction);
        assert_predicates_match_scan(&world, &format!("step {step}: re-applied"));
        step += 1;
    }
    world
}

#[test]
fn checkpoint_apply_rollback_keeps_the_predicates_exact() {
    for shards in [1, 4] {
        let world = cycle_every_apply(HaltInPairs, 10, 5, shards, World::all_halted);
        assert!(world.all_halted(), "every pair halts at even n");
        let world = cycle_every_apply(CountingOnALine::new(2), 12, 8, shards, World::any_halted);
        assert!(world.any_halted(), "the counting leader halts");
        assert!(!world.all_halted());
    }
}

fn resumed<P: SnapshotProtocol>(sim: &Simulation<P>, protocol: P) -> Simulation<P> {
    let snapshot = sim.checkpoint().expect("checkpoint");
    Simulation::resume(protocol, &snapshot).expect("resume")
}

#[test]
fn snapshot_resume_restores_the_predicates() {
    let config = SimulationConfig::new(12)
        .with_seed(3)
        .with_sharded_sampling()
        .with_shards(2);
    let mut sim = Simulation::new(HaltInPairs, config);
    // Before anything halted, part way, and after every node halted.
    for target in [0, 6, 12] {
        while sim.world().halted_nodes().len() < target {
            assert!(
                sim.step(),
                "the run must not dry up before every node halts"
            );
        }
        let back = resumed(&sim, HaltInPairs);
        assert_predicates_match_scan(back.world(), &format!("{target} halted"));
        assert_eq!(back.world().any_halted(), sim.world().any_halted());
        assert_eq!(back.world().all_halted(), sim.world().all_halted());
    }
    assert!(sim.world().all_halted());

    let config = SimulationConfig::new(16)
        .with_seed(8)
        .with_sharded_sampling()
        .with_shards(1);
    let mut sim = Simulation::new(CountingOnALine::new(2), config);
    sim.run_until_any_halted();
    let back = resumed(&sim, CountingOnALine::new(2));
    assert_predicates_match_scan(back.world(), "counting leader halted");
    assert!(back.world().any_halted() && !back.world().all_halted());
}
