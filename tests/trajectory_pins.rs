//! Trajectory pins: FNV-1a digests of the end-of-run checkpoint bytes of seeded
//! `SamplingMode::Sharded` executions.
//!
//! A checkpoint carries the node states, the embeddings, the pair-index class
//! layout, the RNG stream position and the execution statistics, so equal end
//! bytes mean the whole sampled trajectory is unchanged. The digests below were
//! recorded before the pair index's rank buckets moved from sorted `Vec`s to
//! blocked rank sets, and they must survive any later change to the index's
//! storage layout: the samplers resolve draws through canonical rank order, never
//! through storage order. A mismatch means a layout change leaked into the
//! trajectory (or the snapshot format changed, which needs its own version bump).
//!
//! The n = 4096 rows hold buckets of several thousand nodes, so their draws cross
//! the block boundaries of the rank sets.
//!
//! Each case runs at one and at four shards. The shard count is part of the
//! snapshot header, so the two layouts have their own digests; the trajectories
//! themselves are identical (see `tests/sharded.rs`).

use shape_constructors::core::{Simulation, SimulationConfig, SnapshotProtocol, StopReason};
use shape_constructors::protocols::counting_line::CountingOnALine;
use shape_constructors::protocols::line::GlobalLine;
use shape_constructors::protocols::square::Square;

/// FNV-1a, 64-bit.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Runs one seeded sharded execution to its stop condition and digests the final
/// checkpoint.
fn end_digest<P: SnapshotProtocol>(
    protocol: P,
    n: usize,
    seed: u64,
    shards: usize,
    halt: bool,
) -> u64 {
    let config = SimulationConfig::new(n)
        .with_seed(seed)
        .with_max_steps(u64::MAX / 4)
        .with_sharded_sampling()
        .with_shards(shards);
    let mut sim = Simulation::new(protocol, config);
    let report = if halt {
        sim.run_until_any_halted()
    } else {
        sim.run_until_stable()
    };
    let expected = if halt {
        StopReason::AllHalted
    } else {
        StopReason::Stable
    };
    assert_eq!(report.reason, expected, "n = {n}, seed = {seed}");
    fnv1a(sim.checkpoint().expect("checkpoint").as_bytes())
}

/// `(n, seed, digest at 1 shard, digest at 4 shards)`.
type Pin = (usize, u64, u64, u64);

fn check<P: SnapshotProtocol>(label: &str, make: impl Fn() -> P, halt: bool, pins: &[Pin]) {
    let mut mismatches = Vec::new();
    for &(n, seed, one, four) in pins {
        for (shards, want) in [(1, one), (4, four)] {
            let got = end_digest(make(), n, seed, shards, halt);
            if got != want {
                mismatches.push(format!(
                    "{label} n={n} seed={seed} shards={shards}: got {got:#018x}, pinned {want:#018x}"
                ));
            }
        }
    }
    assert!(
        mismatches.is_empty(),
        "sampled trajectories changed:\n{}",
        mismatches.join("\n")
    );
}

#[test]
fn global_line_trajectories_are_pinned() {
    check(
        "GlobalLine",
        GlobalLine::new,
        false,
        &[
            (64, 1, 0xaa40935d5e4e4618, 0x4d8ff8fd0dbfa487),
            (256, 2, 0x4c2ed686ce7475ff, 0x56c0c9026f2cecc8),
            (1024, 3, 0x619b15461c8ff1a1, 0x8c1be0a863740a94),
            (4096, 10, 0xdce353665d53b099, 0xd37c5e5114e6b63f),
        ],
    );
}

#[test]
fn square_trajectories_are_pinned() {
    check(
        "Square",
        Square::new,
        false,
        &[
            (64, 4, 0x68b1c914c84b83ab, 0x09be3d003080ba35),
            (256, 5, 0x810cb9fa649efc92, 0xf7a2e6b560363f1c),
            (1024, 6, 0x824f04ebeb530af3, 0xf82bc62f600880cd),
        ],
    );
}

#[test]
fn counting_on_a_line_trajectories_are_pinned() {
    check(
        "CountingOnALine",
        || CountingOnALine::new(4),
        true,
        &[
            (64, 7, 0x05369927817f2a31, 0xec5fa248bc447cb9),
            (256, 8, 0x5a76c06fb7961e2f, 0xc75187ee939c34b1),
            (1024, 9, 0x7d37ec4380f0bd89, 0xd95e7a110231a171),
            (4096, 11, 0xca4ea98e90a8db10, 0x0c6cbe0c379220a3),
        ],
    );
}
