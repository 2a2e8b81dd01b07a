//! Exactness suite for the `World` delta log (`World::checkpoint` / `rollback` /
//! `release`).
//!
//! The `nc-verify` explorer applies every transition inside a checkpoint and rolls it
//! back, and `tests/halt_count.rs` and `tests/singleton_churn.rs` wrap checkpoints
//! around applies, so the log must restore a world *exactly*. Pinned here, every case at 1
//! **and** 4 shards:
//!
//! 1. **Per-apply exactness** — after *every* apply in randomized merge/split,
//!    class-churn and line/square growth runs, `rollback` reproduces the
//!    pre-checkpoint `World` byte for byte (states, halted flags, links, placements,
//!    components, O(1) aggregates) *and* the pair index passes its oracle validation;
//!    re-applying then reproduces the post-apply fingerprint.
//! 2. **No drift** — a 4-shard cross-shard churn run with a rollback/re-apply cycle
//!    around every apply draws exactly the interactions of a never-checkpointed
//!    1-shard run of the same seed, so the restored sampler-visible counts and
//!    canonical orders are exact, not just equivalent.
//! 3. **Epoch semantics** — nested checkpoints unwind independently, `release`
//!    commits an inner epoch without losing the outer frame's undo, and closing an
//!    epoch that is not open is a typed `EpochNotOpen`.

use shape_constructors::core::scheduler::{Scheduler, UniformScheduler};
use shape_constructors::core::{
    CoreError, NodeId, Placement, Protocol, SamplingMode, Transition, World,
};
use shape_constructors::geometry::Dir;
use shape_constructors::protocols::counting_line::CountingOnALine;
use shape_constructors::protocols::line::GlobalLine;
use shape_constructors::protocols::square::Square;

/// Every case runs at both layouts explicitly, so 4-shard coverage does not depend
/// on the `NC_SHARDS` the suite happens to run under.
const SHARDS: [usize; 2] = [1, 4];

/// Endless churn: solo nodes pair up (merge), pairs dissolve (split) — every applied
/// interaction changes the class counts *and* the component structure. At 4 shards
/// most pairings cross a shard boundary.
struct Churn;

#[derive(Clone, PartialEq, Debug)]
enum ChurnState {
    Solo,
    Paired,
}

impl Protocol for Churn {
    type State = ChurnState;

    fn initial_state(&self, _node: NodeId, _n: usize) -> ChurnState {
        ChurnState::Solo
    }

    fn transition(
        &self,
        a: &ChurnState,
        _pa: Dir,
        b: &ChurnState,
        _pb: Dir,
        bonded: bool,
    ) -> Option<Transition<ChurnState>> {
        match (a, b, bonded) {
            (ChurnState::Solo, ChurnState::Solo, false) => Some(Transition {
                a: ChurnState::Paired,
                b: ChurnState::Paired,
                bond: true,
            }),
            (ChurnState::Paired, ChurnState::Paired, true) => Some(Transition {
                a: ChurnState::Solo,
                b: ChurnState::Solo,
                bond: false,
            }),
            _ => None,
        }
    }
}

/// Everything observable about a `World`, for byte-for-byte comparison around a
/// checkpoint/rollback cycle.
#[derive(Clone, PartialEq, Debug)]
struct Fingerprint<S> {
    states: Vec<S>,
    halted: Vec<NodeId>,
    links: Vec<Vec<Option<(NodeId, Dir)>>>,
    placements: Vec<Placement>,
    comp_ids: Vec<usize>,
    comp_members: Vec<Vec<NodeId>>,
    bond_count: usize,
    component_count: usize,
    cross_component_universe: u64,
}

fn fingerprint<P: Protocol>(world: &World<P>) -> Fingerprint<P::State> {
    let dirs = world.dim().dirs();
    Fingerprint {
        states: world.state_slice().to_vec(),
        halted: world.halted_nodes(),
        links: world
            .nodes()
            .map(|x| dirs.iter().map(|&d| world.bonded_peer(x, d)).collect())
            .collect(),
        placements: world.nodes().map(|x| world.placement(x)).collect(),
        comp_ids: world.nodes().map(|x| world.component_id(x)).collect(),
        comp_members: world
            .nodes()
            .map(|x| world.component(x).members().to_vec())
            .collect(),
        bond_count: world.bond_count(),
        component_count: world.component_count(),
        cross_component_universe: world.cross_component_universe(),
    }
}

/// Drives `steps` scheduler selections on a `shards`-way world; around every apply:
/// checkpoint, apply, rollback, assert the pre-apply fingerprint *and* the pair-index
/// oracle, re-apply, assert the post-apply fingerprint. The execution therefore
/// advances exactly as it would have without the delta log — with a full undo/redo
/// cycle wedged into every single step.
fn assert_rollback_exact_per_apply<P: Protocol>(
    protocol: P,
    n: usize,
    seed: u64,
    steps: u32,
    shards: usize,
) {
    let mut world = World::with_shards(protocol, n, shards);
    let mut scheduler = UniformScheduler::with_mode(seed, SamplingMode::Sharded);
    world.validate_pair_index().expect("initial index");
    for step in 0..steps {
        let Some(interaction) = scheduler.next_interaction(&world) else {
            break;
        };
        let pre = fingerprint(&world);
        let mark = world.checkpoint();
        world.apply(&interaction);
        let post = fingerprint(&world);
        world.rollback(mark).expect("epoch is open");
        assert_eq!(
            fingerprint(&world),
            pre,
            "shards={shards} step {step}: rollback must restore the world byte for byte"
        );
        world.validate_pair_index().unwrap_or_else(|e| {
            panic!("shards={shards} step {step}: index wrong after rollback: {e}")
        });
        assert!(world.check_invariants(), "shards={shards} step {step}");
        world.apply(&interaction);
        assert_eq!(
            fingerprint(&world),
            post,
            "shards={shards} step {step}: replay must reproduce the apply byte for byte"
        );
    }
    world
        .validate_pair_index()
        .unwrap_or_else(|e| panic!("shards={shards}: index wrong at the end: {e}"));
}

#[test]
fn rollback_is_exact_across_merge_split_churn() {
    // Every apply is a component merge or split; at 4 shards most cross a shard
    // boundary (the cross-shard pending-queue path of the log).
    for shards in SHARDS {
        assert_rollback_exact_per_apply(Churn, 16, 17, 4_000, shards);
    }
}

#[test]
fn rollback_is_exact_across_class_churn() {
    // The counting leader allocates a fresh state class on almost every effective
    // step: class allocation, retirement and slot reuse all pass through the log.
    for shards in SHARDS {
        assert_rollback_exact_per_apply(CountingOnALine::new(2), 10, 9, 3_000, shards);
    }
}

#[test]
fn rollback_is_exact_across_line_and_square_growth() {
    for shards in SHARDS {
        assert_rollback_exact_per_apply(GlobalLine::new(), 16, 3, 2_000, shards);
        assert_rollback_exact_per_apply(Square::new(), 12, 7, 2_000, shards);
    }
}

#[test]
fn cross_shard_churn_rolls_back_every_apply_without_divergence() {
    // 3 000 merge/split interactions on a 4-shard world, each applied, rolled back
    // and re-applied, in lockstep with a plain 1-shard world of the same seed. Both
    // samplers draw from the restored counts and canonical orders, so a rollback
    // that left any of them merely equivalent would change a later draw.
    let n = 16;
    let mut logged = World::with_shards(Churn, n, 4);
    let mut plain = World::with_shards(Churn, n, 1);
    let mut logged_sampler = UniformScheduler::with_mode(77, SamplingMode::Sharded);
    let mut plain_sampler = UniformScheduler::with_mode(77, SamplingMode::Sharded);
    let (mut merges, mut splits) = (0u32, 0u32);
    for step in 0..3_000u32 {
        let interaction = logged_sampler
            .next_interaction(&logged)
            .expect("churn never runs dry");
        let reference = plain_sampler.next_interaction(&plain).expect("churn");
        assert_eq!(interaction, reference, "draws diverged at step {step}");
        assert_eq!(
            logged_sampler.drain_skipped_steps(),
            plain_sampler.drain_skipped_steps(),
            "credited skips diverged at step {step}"
        );
        let mark = logged.checkpoint();
        logged.apply(&interaction);
        logged.rollback(mark).expect("epoch is open");
        let outcome = logged.apply(&interaction);
        assert_eq!(outcome, plain.apply(&reference), "step {step}");
        merges += u32::from(outcome.merged);
        splits += u32::from(outcome.split);
        if step % 250 == 0 || step == 2_999 {
            assert_eq!(fingerprint(&logged), fingerprint(&plain), "step {step}");
            assert!(logged.check_invariants(), "step {step}");
        }
    }
    logged
        .validate_pair_index()
        .expect("index exact after 3k rollback cycles");
    assert!(merges > 0 && splits > 0, "{merges} merges, {splits} splits");
    assert!(
        logged.shard_stats().cross_shard_events > 0,
        "most pairings cross the 4-shard boundaries"
    );
}

#[test]
fn nested_checkpoints_unwind_independently() {
    for shards in SHARDS {
        let mut world = World::with_shards(Churn, 8, shards);
        world.validate_pair_index().expect("initial index");
        let mut scheduler = UniformScheduler::with_mode(21, SamplingMode::Sharded);
        let base = fingerprint(&world);
        let outer = world.checkpoint();
        let first = scheduler.next_interaction(&world).expect("churn pairs");
        world.apply(&first);
        let after_first = fingerprint(&world);
        let inner = world.checkpoint();
        let second = scheduler.next_interaction(&world).expect("churn pairs");
        world.apply(&second);
        world.rollback(inner).expect("inner epoch is open");
        assert_eq!(
            fingerprint(&world),
            after_first,
            "shards={shards}: inner rollback must stop at the inner mark"
        );
        world
            .validate_pair_index()
            .expect("index after inner rollback");
        world.rollback(outer).expect("outer epoch is open");
        assert_eq!(
            fingerprint(&world),
            base,
            "shards={shards}: outer rollback reaches the base"
        );
        world
            .validate_pair_index()
            .expect("index after outer rollback");
        assert!(world.check_invariants());
    }
}

#[test]
fn release_commits_an_inner_epoch_but_keeps_the_outer_undo() {
    for shards in SHARDS {
        let mut world = World::with_shards(Churn, 8, shards);
        world.validate_pair_index().expect("initial index");
        let mut scheduler = UniformScheduler::with_mode(33, SamplingMode::Sharded);
        let base = fingerprint(&world);
        let outer = world.checkpoint();
        let first = scheduler.next_interaction(&world).expect("churn pairs");
        world.apply(&first);
        let inner = world.checkpoint();
        let second = scheduler.next_interaction(&world).expect("churn pairs");
        world.apply(&second);
        let after_second = fingerprint(&world);
        world.release(inner).expect("inner epoch is open");
        assert_eq!(
            fingerprint(&world),
            after_second,
            "shards={shards}: release keeps the inner epoch's mutations"
        );
        world.rollback(outer).expect("outer epoch is open");
        assert_eq!(
            fingerprint(&world),
            base,
            "shards={shards}: the outer frame still undoes the released epoch's mutations"
        );
        world
            .validate_pair_index()
            .expect("index after outer rollback");
    }
}

#[test]
fn released_toplevel_checkpoint_commits_for_good() {
    for shards in SHARDS {
        let mut world = World::with_shards(Churn, 8, shards);
        world.validate_pair_index().expect("initial index");
        let mut scheduler = UniformScheduler::with_mode(11, SamplingMode::Sharded);
        let mark = world.checkpoint();
        let interaction = scheduler.next_interaction(&world).expect("churn pairs");
        world.apply(&interaction);
        let after = fingerprint(&world);
        world.release(mark).expect("epoch is open");
        assert_eq!(fingerprint(&world), after, "shards={shards}");
        world.validate_pair_index().expect("index after release");
        // The world keeps working normally — including a fresh checkpoint cycle.
        let pre = fingerprint(&world);
        let mark = world.checkpoint();
        let next = scheduler.next_interaction(&world).expect("churn pairs");
        world.apply(&next);
        world.rollback(mark).expect("epoch is open");
        assert_eq!(fingerprint(&world), pre, "shards={shards}");
        world
            .validate_pair_index()
            .expect("index after the second cycle");
    }
}

#[test]
fn closing_a_non_open_epoch_is_a_typed_error_not_a_panic() {
    for shards in SHARDS {
        let mut world = World::with_shards(Churn, 8, shards);
        let mark = world.checkpoint();
        world.release(mark).expect("epoch is open");
        assert_eq!(world.release(mark), Err(CoreError::EpochNotOpen));
        assert_eq!(world.rollback(mark), Err(CoreError::EpochNotOpen));
        // A stale *inner* epoch below a live outer one must fail without consuming
        // the outer frame.
        let base = fingerprint(&world);
        let outer = world.checkpoint();
        let inner = world.checkpoint();
        world.rollback(inner).expect("inner epoch is open");
        assert_eq!(world.rollback(inner), Err(CoreError::EpochNotOpen));
        let mut scheduler = UniformScheduler::with_mode(5, SamplingMode::Sharded);
        let interaction = scheduler.next_interaction(&world).expect("churn pairs");
        world.apply(&interaction);
        world
            .rollback(outer)
            .expect("outer epoch survived the stale inner close");
        assert_eq!(fingerprint(&world), base, "shards={shards}");
        world.validate_pair_index().expect("index after rollback");
    }
}
