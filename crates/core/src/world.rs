//! The configuration of the system: node states, bonds, and rigid component embeddings.
//!
//! Since the interaction-index refactor the world also maintains incremental metadata:
//! a per-node halted cache, a monotone configuration [`World::version`], and the dirty
//! frontier of [`crate::index`] that makes [`World::is_stable`] and
//! [`World::find_effective_interaction`] amortised `O(active)` instead of a full
//! `O(n² · ports²)` rescan.
//!
//! # Sharded interior state
//!
//! The population is partitioned into contiguous node-id **shards**
//! ([`crate::shard::ShardMap`]; count from [`crate::SimulationConfig::shards`] /
//! `NC_SHARDS`). Each shard owns its slice of the dirty frontier, its sub-index of the
//! permissible-pair index, and its **pending queue** — the cross-shard routing queue
//! through which merges and splits hand re-derivation work to the shards of the touched
//! nodes (a merge moving nodes of shard A next to cells owned by shard B queues B's
//! neighbours on B's queue, under B's lock only — components migrate between shards
//! without a world-wide lock). All interior mutability is `Mutex`/atomic based, so
//! `World: Sync` holds and read-side queries (`is_stable`, sampling) may run
//! concurrently; large maintenance batches fan out per shard on the vendored `rayon`
//! pool. The sampled *trajectory* is byte-identical across shard counts — see the
//! invariance notes in [`crate::index`].

use crate::delta::{DeltaLog, Epoch, EpochFrame, WorldRecord};
use crate::index::{BaseCounts, GeomView, IndexStats, InteractionIndex, PairIndex};
use crate::lock::relock;
use crate::shard::{trace_lane, ShardMap, PARALLEL_CROSS_MIN};
use crate::stats::ShardStats;
use crate::{Component, CoreError, NodeId, Placement, Protocol};
use nc_geometry::{Coord, Dim, Dir, Rotation, Shape};
use nc_obs::{Phase, Telemetry, TraceEventKind};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

/// Budget for cross-component enumeration work, in node pairs, as a multiple of the
/// population size. One constant shared by the adaptive sampler's enumeration refusal,
/// the batched sampler's multi×multi enumeration, and the stability fast path, so they
/// all agree on when cross-component enumeration is affordable.
pub(crate) const CROSS_BUDGET_PER_NODE: usize = 64;

/// Whether applying the pair `(sa, pa) – (sb, pb)` (in either order, as the simulator
/// does) would change a state or the bond. Shared between
/// [`World::effective_interaction_at`] and the permissible-pair index so both agree on
/// one definition of effectiveness. Halted-participant filtering is the caller's job.
pub(crate) fn transition_effective<P: Protocol>(
    protocol: &P,
    sa: &P::State,
    pa: Dir,
    sb: &P::State,
    pb: Dir,
    bonded: bool,
) -> bool {
    let attempt = protocol
        .transition(sa, pa, sb, pb, bonded)
        .map(|t| (t, false))
        .or_else(|| {
            protocol
                .transition(sb, pb, sa, pa, bonded)
                .map(|t| (t, true))
        });
    attempt.is_some_and(|(t, swapped)| {
        let (new_a, new_b) = if swapped { (&t.b, &t.a) } else { (&t.a, &t.b) };
        t.bond != bonded || new_a != sa || new_b != sb
    })
}

/// Lifecycle of the permissible-pair index: built lazily on first use (so executions
/// that never sample in batched mode pay nothing), abandoned permanently when the
/// protocol's live state diversity overflows the class table. The mode only ever
/// advances (`Disabled → Active → Overflowed`), which is what lets a rollback infer
/// what happened mid-epoch from the (checkpointed, current) mode pair alone.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum PairMode {
    Disabled,
    Active,
    Overflowed,
}

struct PairCell<S> {
    mode: PairMode,
    index: PairIndex<S>,
    /// Base counts memoised per configuration version (the index itself is always
    /// current; only the `O(classes²·ports²)` count aggregation is worth caching).
    counts_cache: Option<(u64, BaseCounts)>,
}

/// Exact pair counts of a frozen configuration, as reported by
/// [`World::pair_counts`]: the base classes are maintained incrementally; multi×multi
/// cross-component pairs (if any) must be added by the caller via
/// [`World::enumerate_cross_multi`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct PairSummary {
    /// Permissible pairs excluding multi×multi cross pairs.
    pub(crate) permissible_base: u64,
    /// Effective pairs excluding multi×multi cross pairs.
    pub(crate) effective_base: u64,
    /// Number of components with at least two nodes.
    pub(crate) multi_components: usize,
}

/// Why a pair of node-ports is allowed to interact at the current configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Permissibility {
    /// The two ports are already joined by an active bond.
    Bonded,
    /// The two nodes belong to the same component and the two ports face each other at
    /// unit distance (so activating the bond keeps the component a valid shape).
    SameComponentAdjacent,
    /// The two nodes belong to different components which can be rigidly placed so that
    /// the two ports face each other at unit distance without any two nodes overlapping.
    /// The transform maps the second node's component frame into the first node's frame.
    Merge {
        /// Rotation applied to the second component.
        rotation: Rotation,
        /// Translation applied after the rotation.
        translation: Coord,
    },
}

/// A scheduled interaction: an unordered pair of node-ports plus the geometric reason it
/// is permissible. Produced by [`World::permissibility`] or a scheduler and consumed by
/// [`World::apply`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Interaction {
    /// First participant.
    pub a: NodeId,
    /// Port of the first participant.
    pub pa: Dir,
    /// Second participant.
    pub b: NodeId,
    /// Port of the second participant.
    pub pb: Dir,
    /// Why the pair may interact.
    pub permissibility: Permissibility,
}

/// The effect an applied interaction had on the configuration.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct InteractionOutcome {
    /// Whether the interaction was effective (changed a state or the bond).
    pub effective: bool,
    /// Whether a bond was activated.
    pub bond_activated: bool,
    /// Whether a bond was deactivated.
    pub bond_deactivated: bool,
    /// Whether two components merged.
    pub merged: bool,
    /// Whether a component split in two.
    pub split: bool,
}

/// A configuration `(C_V, C_E)` of the model together with the rigid embedding of every
/// connected component, for a fixed protocol.
///
/// `World<P>` is `Sync`: all interior mutability (the dirty frontier, the sharded
/// permissible-pair index and its pending queues) is `Mutex`/atomic based, so read-side
/// queries may run from several threads concurrently.
pub struct World<P: Protocol> {
    protocol: P,
    dim: Dim,
    states: Vec<P::State>,
    placements: Vec<Placement>,
    comp_of: Vec<usize>,
    components: Vec<Option<Component>>,
    links: Vec<[Option<(NodeId, Dir)>; 6]>,
    bond_count: usize,
    rotations: Vec<Rotation>,
    /// Cached `protocol.is_halted(state)` per node, kept in sync with every state write.
    /// Written only through [`World::set_halted`], which keeps `halted_count` in step.
    halted: Vec<bool>,
    /// Number of `true` entries in `halted`: makes `any_halted`/`all_halted` `O(1)`.
    halted_count: usize,
    /// The partition of node ids into contiguous shards (see [`crate::shard`]).
    shard_map: ShardMap,
    /// The incremental interaction index (per-shard dirty frontier + configuration
    /// version).
    index: InteractionIndex,
    /// The sharded incremental permissible-pair index (exact pair counts for the
    /// batched and sharded samplers). Lazily activated.
    pairs: Mutex<PairCell<P::State>>,
    /// Per-shard pending queues of nodes to re-derive: the cross-shard merge/split
    /// routing queues. A mutation only takes the locks of the shards it actually
    /// touches, never a world-wide one.
    pair_pending: Vec<Mutex<Vec<NodeId>>>,
    /// Mirror of `pairs.mode == Active`, readable without a lock on the mutation hot
    /// path.
    pairs_active: AtomicBool,
    /// Merges/splits whose two participants lived in different shards — the events the
    /// cross-shard queues exist for. Reported through [`World::shard_stats`].
    cross_shard_events: AtomicU64,
    /// `Σ |component|²` over live components, maintained O(1) per merge/split; gives
    /// the cross-component node-pair universe `(n² − Σsz²)/2` without enumeration.
    sum_sq_sizes: u64,
    /// Number of live components, maintained O(1) per merge/split.
    live_components: usize,
    /// Epoch-stamped scratch buffer for the split-detection BFS (avoids an O(n)
    /// allocation per bond deactivation).
    scratch_stamp: Vec<u64>,
    scratch_epoch: u64,
    /// The per-epoch undo log behind [`World::checkpoint`] / [`World::rollback`]
    /// (see [`crate::delta`]). Inert (a cheap branch per mutation) while no
    /// checkpoint is open.
    delta: DeltaLog<P::State>,
    /// The telemetry handle (disabled by default — every hook is an early return).
    /// Muted while a delta epoch is open: scratch applies that are rolled back (the
    /// `nc-verify` explorer's probes) are not part of any trajectory and must be
    /// invisible in the trace.
    obs: Telemetry,
}

impl<P: Protocol> World<P> {
    /// Creates the initial configuration on `n` nodes: every node free (a singleton
    /// component), in its protocol-defined initial state, with all bonds inactive.
    /// The shard count comes from the `NC_SHARDS` environment default
    /// ([`crate::shard::default_shard_count`]); use [`World::with_shards`] to pick it
    /// explicitly.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    #[must_use]
    pub fn new(protocol: P, n: usize) -> World<P> {
        World::with_shards(protocol, n, crate::shard::default_shard_count())
    }

    /// Creates the initial configuration on `n` nodes partitioned into `shards`
    /// contiguous id ranges (clamped to `1..=n`). The shard count only shapes the
    /// runtime layout — executions are byte-identical across shard counts.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    #[must_use]
    pub fn with_shards(protocol: P, n: usize, shards: usize) -> World<P> {
        assert!(n > 0, "the population must contain at least one node");
        let dim = protocol.dim();
        let states: Vec<P::State> = (0..n)
            .map(|i| protocol.initial_state(NodeId::new(i as u32), n))
            .collect();
        let components = (0..n)
            .map(|i| Some(Component::singleton(NodeId::new(i as u32))))
            .collect();
        let shard_map = ShardMap::new(n, shards);
        let mut world = World {
            rotations: Rotation::all(dim),
            protocol,
            dim,
            states,
            placements: vec![Placement::origin(); n],
            comp_of: (0..n).collect(),
            components,
            links: vec![[None; 6]; n],
            bond_count: 0,
            halted: vec![false; n],
            halted_count: 0,
            shard_map,
            index: InteractionIndex::new(shard_map),
            pairs: Mutex::new(PairCell {
                mode: PairMode::Disabled,
                index: PairIndex::new(shard_map),
                counts_cache: None,
            }),
            pair_pending: (0..shard_map.count())
                .map(|_| Mutex::new(Vec::new()))
                .collect(),
            pairs_active: AtomicBool::new(false),
            cross_shard_events: AtomicU64::new(0),
            sum_sq_sizes: n as u64,
            live_components: n,
            scratch_stamp: vec![0; n],
            scratch_epoch: 0,
            delta: DeltaLog::new(),
            obs: Telemetry::disabled(),
        };
        world.refresh_halted_all();
        world
    }

    /// Attaches a telemetry handle: subsequent merges/splits, index flushes and
    /// class-table changes emit step-indexed trace events into it, and the flush /
    /// rollback phases are timed. Pass [`Telemetry::disabled`] (the construction
    /// default) to turn all hooks back into early returns. Telemetry never touches
    /// the trajectory and is not persisted in snapshots.
    pub fn set_telemetry(&mut self, obs: Telemetry) {
        relock(&self.pairs).index.set_telemetry(obs.clone());
        self.obs = obs;
    }

    /// The attached telemetry handle (disabled unless [`World::set_telemetry`] was
    /// called).
    #[must_use]
    pub fn telemetry(&self) -> &Telemetry {
        &self.obs
    }

    /// Lifetime number of undo records the delta log has appended (monotone, never
    /// rewound): the observable of checkpoint/rollback churn.
    #[must_use]
    pub fn delta_records(&self) -> u64 {
        self.delta.lifetime_records()
    }

    /// The number of shards the runtime structures are partitioned into.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shard_map.count()
    }

    /// Marks `node` dirty in its shard's frontier queue.
    fn mark_dirty(&self, node: NodeId) {
        self.index.mark_dirty(self.shard_map, node);
    }

    /// Records the pre-write state *and* halted flag of `node` (the two are always
    /// overwritten together). No-op while no checkpoint is open.
    #[inline]
    fn record_state(&mut self, node: usize) {
        if self.delta.recording() {
            let old = self.states[node].clone();
            self.delta.record(move || WorldRecord::State { node, old });
            let old = self.halted[node];
            self.delta.record(move || WorldRecord::Halted { node, old });
        }
    }

    /// Writes the halted cache of `node`. Every write to `halted` goes through here, so
    /// `halted_count` always equals the number of halted nodes.
    #[inline]
    fn set_halted(&mut self, node: usize, halted: bool) {
        let was = std::mem::replace(&mut self.halted[node], halted);
        self.halted_count = self.halted_count + usize::from(halted) - usize::from(was);
    }

    /// Re-derives the halted cache of `node` from its current state.
    #[inline]
    fn refresh_halted(&mut self, node: usize) {
        let halted = self.protocol.is_halted(&self.states[node]);
        self.set_halted(node, halted);
    }

    /// Re-derives the whole halted cache (construction and snapshot restore).
    fn refresh_halted_all(&mut self) {
        for node in 0..self.states.len() {
            self.refresh_halted(node);
        }
    }

    /// Records the pre-write value of `links[node][port]`.
    #[inline]
    fn record_link(&mut self, node: usize, port: usize) {
        if self.delta.recording() {
            let old = self.links[node][port];
            self.delta
                .record(move || WorldRecord::Link { node, port, old });
        }
    }

    fn lock_pairs(&self) -> MutexGuard<'_, PairCell<P::State>> {
        relock(&self.pairs)
    }

    /// A monotone configuration version: bumped on every observable change (state write,
    /// bond flip, merge, split). Samplers use it to cache derived structures — e.g. the
    /// enumerated permissible set — and invalidate them precisely.
    #[must_use]
    pub fn version(&self) -> u64 {
        self.index.version()
    }

    /// Work counters of the interaction index (scans performed, candidate reuse, …).
    #[must_use]
    pub fn index_stats(&self) -> IndexStats {
        self.index.stats()
    }

    /// The population size `n`.
    #[must_use]
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// Whether the population is empty (never true: constructors require `n ≥ 1`).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }

    /// The dimensionality of the model.
    #[must_use]
    pub fn dim(&self) -> Dim {
        self.dim
    }

    /// The protocol driving this world.
    #[must_use]
    pub fn protocol(&self) -> &P {
        &self.protocol
    }

    /// The current state of `node`.
    ///
    /// # Panics
    /// Panics if `node` is outside the population.
    #[must_use]
    pub fn state(&self, node: NodeId) -> &P::State {
        &self.states[node.index()]
    }

    /// Overrides the state of `node`. Intended for test setups and for composing phased
    /// protocols that hand over a configuration.
    ///
    /// # Panics
    /// Panics if `node` is outside the population.
    pub fn set_state(&mut self, node: NodeId, state: P::State) {
        self.record_state(node.index());
        self.states[node.index()] = state;
        self.refresh_halted(node.index());
        self.index.bump_version();
        self.mark_dirty(node);
        self.pair_touch(node);
        self.flush_pairs();
    }

    /// Iterates over all node states in node order.
    pub fn states(&self) -> impl Iterator<Item = &P::State> {
        self.states.iter()
    }

    /// All node states as a slice, in node order (used by the population-protocol
    /// wrapper, whose predicates are written against the state vector).
    #[must_use]
    pub fn state_slice(&self) -> &[P::State] {
        &self.states
    }

    /// All node identifiers.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        (0..self.len() as u32).map(NodeId::new)
    }

    /// Number of active bonds in the configuration.
    #[must_use]
    pub fn bond_count(&self) -> usize {
        self.bond_count
    }

    /// The peer currently bonded to `node`'s port `port`, if any.
    #[must_use]
    pub fn bonded_peer(&self, node: NodeId, port: Dir) -> Option<(NodeId, Dir)> {
        self.links[node.index()][port.index()]
    }

    /// The placement of `node` within its component's frame.
    #[must_use]
    pub fn placement(&self, node: NodeId) -> Placement {
        self.placements[node.index()]
    }

    /// The identifier of the component containing `node`.
    #[must_use]
    pub fn component_id(&self, node: NodeId) -> usize {
        self.comp_of[node.index()]
    }

    /// The component containing `node`.
    #[must_use]
    pub fn component(&self, node: NodeId) -> &Component {
        self.components[self.comp_of[node.index()]]
            .as_ref()
            .expect("component slot of a live node must be occupied")
    }

    /// Number of connected components (free nodes count as singleton components).
    /// O(1): the count is maintained across merges and splits.
    #[must_use]
    pub fn component_count(&self) -> usize {
        self.live_components
    }

    /// The number of unordered node pairs spanning two different components — the
    /// candidate universe of cross-component interactions. O(1): derived from the
    /// maintained `Σ |component|²`.
    #[must_use]
    pub fn cross_component_universe(&self) -> u64 {
        let n = self.len() as u64;
        (n * n - self.sum_sq_sizes) / 2
    }

    /// Decides whether the unordered pair of node-ports may interact in the current
    /// configuration and, if so, why.
    ///
    /// Returns `None` when the pair is not permissible (same node, port outside the
    /// dimension, non-aligned ports of one component, or unavoidable overlap between the
    /// two components).
    #[must_use]
    pub fn permissibility(&self, a: NodeId, pa: Dir, b: NodeId, pb: Dir) -> Option<Permissibility> {
        if a == b || !self.dim.contains(pa) || !self.dim.contains(pb) {
            return None;
        }
        if a.index() >= self.len() || b.index() >= self.len() {
            return None;
        }
        if self.links[a.index()][pa.index()] == Some((b, pb)) {
            return Some(Permissibility::Bonded);
        }
        let pl_a = self.placements[a.index()];
        let pl_b = self.placements[b.index()];
        let ga = pl_a.rot.apply_dir(pa);
        if self.comp_of[a.index()] == self.comp_of[b.index()] {
            // Same component: the ports must already face each other at unit distance.
            let aligned =
                pl_b.pos == pl_a.pos + ga.unit() && pl_b.rot.apply_dir(pb) == ga.opposite();
            return aligned.then_some(Permissibility::SameComponentAdjacent);
        }
        // Different components: try to place b's component so the ports face each other.
        let comp_a = self.component(a);
        let comp_b = self.component(b);
        let target = pl_a.pos + ga.unit();
        if comp_a.is_occupied(target) {
            return None;
        }
        let from = pl_b.rot.apply_dir(pb);
        let to = ga.opposite();
        for &rotation in &self.rotations {
            if rotation.apply_dir(from) != to {
                continue;
            }
            let translation = target - rotation.apply_coord(pl_b.pos);
            // Overlap is symmetric, so scan the cells of the *smaller* component against
            // the occupancy map of the larger one: a cell `c` of `a`'s component collides
            // iff `b`'s component occupies `R⁻¹(c − t)`. This turns the hot
            // free-node-against-big-component checks into O(1).
            let collision = if comp_b.len() <= comp_a.len() {
                comp_b
                    .iter()
                    .any(|(_, pos)| comp_a.is_occupied(rotation.apply_coord(pos) + translation))
            } else {
                let inverse = rotation.inverse();
                comp_a
                    .iter()
                    .any(|(_, pos)| comp_b.is_occupied(inverse.apply_coord(pos - translation)))
            };
            if !collision {
                return Some(Permissibility::Merge {
                    rotation,
                    translation,
                });
            }
        }
        None
    }

    /// Convenience wrapper building an [`Interaction`] when the pair is permissible.
    #[must_use]
    pub fn interaction(&self, a: NodeId, pa: Dir, b: NodeId, pb: Dir) -> Option<Interaction> {
        self.permissibility(a, pa, b, pb)
            .map(|permissibility| Interaction {
                a,
                pa,
                b,
                pb,
                permissibility,
            })
    }

    /// Applies a (currently permissible) interaction: consults the protocol's transition
    /// function — in both orders, since pairs are unordered — and updates states, bonds
    /// and component embeddings accordingly.
    ///
    /// Interactions involving a halted participant are ineffective by definition.
    pub fn apply(&mut self, interaction: &Interaction) -> InteractionOutcome {
        let Interaction {
            a,
            pa,
            b,
            pb,
            permissibility,
        } = *interaction;
        let mut outcome = InteractionOutcome::default();
        if self.halted[a.index()] || self.halted[b.index()] {
            return outcome;
        }
        let bonded = matches!(permissibility, Permissibility::Bonded);
        let sa = &self.states[a.index()];
        let sb = &self.states[b.index()];
        let attempt = self
            .protocol
            .transition(sa, pa, sb, pb, bonded)
            .map(|t| (t, false))
            .or_else(|| {
                self.protocol
                    .transition(sb, pb, sa, pa, bonded)
                    .map(|t| (t, true))
            });
        let Some((transition, swapped)) = attempt else {
            return outcome;
        };
        let (new_a, new_b) = if swapped {
            (transition.b, transition.a)
        } else {
            (transition.a, transition.b)
        };
        outcome.effective = new_a != self.states[a.index()]
            || new_b != self.states[b.index()]
            || transition.bond != bonded;
        self.record_state(a.index());
        self.record_state(b.index());
        self.states[a.index()] = new_a;
        self.states[b.index()] = new_b;
        match (bonded, transition.bond) {
            (true, true) | (false, false) => {}
            (true, false) => {
                self.deactivate_bond(a, pa, b, pb, &mut outcome);
            }
            (false, true) => {
                if let Permissibility::Merge {
                    rotation,
                    translation,
                } = permissibility
                {
                    self.merge_components(a, b, rotation, translation);
                    outcome.merged = true;
                }
                self.record_link(a.index(), pa.index());
                self.record_link(b.index(), pb.index());
                self.links[a.index()][pa.index()] = Some((b, pb));
                self.links[b.index()][pb.index()] = Some((a, pa));
                self.bond_count += 1;
                outcome.bond_activated = true;
            }
        }
        if outcome.merged || outcome.split {
            // Stamped with the smaller participant's canonical lane (not its runtime
            // shard — see `shard::trace_lane`); muted inside open delta epochs.
            let lane = trace_lane(a.min(b), self.len());
            if outcome.merged {
                self.obs.trace(lane, TraceEventKind::Merge);
            }
            if outcome.split {
                self.obs.trace(lane, TraceEventKind::Split);
            }
        }
        if outcome.effective {
            self.refresh_halted(a.index());
            self.refresh_halted(b.index());
            self.index.bump_version();
            self.mark_dirty(a);
            self.mark_dirty(b);
            self.pair_touch(a);
            self.pair_touch(b);
            self.flush_pairs();
        }
        outcome
    }

    /// Merges the components of `a` and `b`, where `(rotation, translation)` maps `b`'s
    /// component frame into `a`'s. The *smaller* component is the one physically moved
    /// (re-embedded), which bounds the total re-embedding work of an execution by
    /// `O(n log n)` node moves; frames are arbitrary (the solution is well mixed), so
    /// permissibility and transitions are unaffected by which frame survives.
    fn merge_components(&mut self, a: NodeId, b: NodeId, rotation: Rotation, translation: Coord) {
        let comp_a_id = self.comp_of[a.index()];
        let comp_b_id = self.comp_of[b.index()];
        debug_assert_ne!(comp_a_id, comp_b_id);
        if self.shard_map.shard_of(a) != self.shard_map.shard_of(b) {
            self.cross_shard_events.fetch_add(1, Ordering::Relaxed);
        }
        let len = |c: &Option<Component>| c.as_ref().map_or(0, Component::len);
        let (absorbed_id, surviving_id, rotation, translation) =
            if len(&self.components[comp_b_id]) <= len(&self.components[comp_a_id]) {
                (comp_b_id, comp_a_id, rotation, translation)
            } else {
                // Move `a`'s side instead, through the inverse rigid motion:
                // x_B = R⁻¹·x_A − R⁻¹·t.
                let inverse = rotation.inverse();
                let translation = Coord::ORIGIN - inverse.apply_coord(translation);
                (comp_a_id, comp_b_id, inverse, translation)
            };
        if self.delta.recording() {
            let old = self.components[absorbed_id].clone();
            self.delta.record(move || WorldRecord::CompSlot {
                idx: absorbed_id,
                old,
            });
            let old = self.components[surviving_id].clone();
            self.delta.record(move || WorldRecord::CompSlot {
                idx: surviving_id,
                old,
            });
        }
        let absorbed = self.components[absorbed_id]
            .take()
            .expect("component slot of a live node must be occupied");
        let surviving = self.components[surviving_id]
            .as_mut()
            .expect("component slot of a live node must be occupied");
        let absorbed_len = absorbed.len() as u64;
        let surviving_len = surviving.len() as u64;
        let mut moved: Vec<(NodeId, Coord)> = Vec::with_capacity(absorbed.len());
        // Walk the absorbed members in their membership-vector order, not the
        // occupancy map's hash order: the surviving `members` push order (and the
        // pending-queue touch order below) is sampler-visible through cross-pair
        // enumeration and class allocation, and the membership vector — unlike the
        // hash map — is part of the serialized configuration, so a resumed run
        // reproduces this walk exactly.
        for &node in absorbed.members() {
            let pos = self.placements[node.index()].pos;
            let new_pos = rotation.apply_coord(pos) + translation;
            {
                let idx = node.index();
                let old = self.placements[idx];
                self.delta
                    .record(move || WorldRecord::PlacementOf { node: idx, old });
                let old = self.comp_of[idx];
                self.delta
                    .record(move || WorldRecord::CompOf { node: idx, old });
            }
            let placement = &mut self.placements[node.index()];
            placement.pos = new_pos;
            placement.rot = rotation.compose(placement.rot);
            self.comp_of[node.index()] = surviving_id;
            surviving.insert(node, new_pos);
            // Moved nodes sit in a grown component with fresh relative geometry: pairs
            // involving them may have become effective.
            self.index.mark_dirty(self.shard_map, node);
            moved.push((node, new_pos));
        }
        // Component-size bookkeeping: (a+b)² replaces a² + b².
        self.sum_sq_sizes += 2 * absorbed_len * surviving_len;
        self.live_components -= 1;
        if self.pairs_active.load(Ordering::Relaxed) {
            // The moved nodes must be re-derived (new component, new adjacency, new
            // free-port flags), and so must the *unmoved* neighbours of every inserted
            // cell — their ports just got blocked, which is exactly the non-local
            // removal a grown component can cause in the singleton cross classes.
            // Each touch is routed to the pending queue of the touched node's shard:
            // this is the cross-shard migration path — a merge in one shard hands work
            // to neighbouring shards under their queue locks only.
            let surviving = self.components[surviving_id]
                .as_ref()
                .expect("component slot of a live node must be occupied");
            for &(node, new_pos) in &moved {
                self.pair_touch(node);
                for &d in self.dim.dirs() {
                    if let Some(neighbour) = surviving.node_at(new_pos + d.unit()) {
                        self.pair_touch(neighbour);
                    }
                }
            }
        }
    }

    fn deactivate_bond(
        &mut self,
        a: NodeId,
        pa: Dir,
        b: NodeId,
        pb: Dir,
        outcome: &mut InteractionOutcome,
    ) {
        debug_assert_eq!(self.links[a.index()][pa.index()], Some((b, pb)));
        self.record_link(a.index(), pa.index());
        self.record_link(b.index(), pb.index());
        self.links[a.index()][pa.index()] = None;
        self.links[b.index()][pb.index()] = None;
        self.bond_count -= 1;
        outcome.bond_deactivated = true;
        // The component may have split: collect everything still reachable from `a`.
        // The visited marks live in an epoch-stamped scratch buffer on the world, so a
        // bond flip costs O(component traversed), not an O(n) allocation.
        let comp_id = self.comp_of[a.index()];
        self.scratch_epoch += 1;
        let epoch = self.scratch_epoch;
        let reached = |scratch: &[u64], node: NodeId| scratch[node.index()] == epoch;
        self.scratch_stamp[a.index()] = epoch;
        let mut queue = VecDeque::from([a]);
        let mut reached_b = false;
        while let Some(node) = queue.pop_front() {
            if node == b {
                reached_b = true;
                break;
            }
            for (peer, _) in self.links[node.index()].iter().flatten() {
                if !reached(&self.scratch_stamp, *peer) {
                    self.scratch_stamp[peer.index()] = epoch;
                    queue.push_back(*peer);
                }
            }
        }
        if reached_b {
            return;
        }
        // Split: the stamped nodes are exactly `a`'s side; move everything else (i.e.
        // `b`'s side) of the old component into a new component. Only an actual split
        // counts as a cross-shard event (cycle-bond deactivations route no
        // re-derivation work between shards), mirroring the merge path.
        outcome.split = true;
        if self.shard_map.shard_of(a) != self.shard_map.shard_of(b) {
            self.cross_shard_events.fetch_add(1, Ordering::Relaxed);
        }
        let old_members: Vec<NodeId> = self.components[comp_id]
            .as_ref()
            .expect("component slot of a live node must be occupied")
            .members()
            .to_vec();
        let old_len = old_members.len() as u64;
        if self.delta.recording() {
            // One wholesale record of the pre-split slot covers every `remove` the
            // loop below performs on it.
            let old = self.components[comp_id].clone();
            self.delta
                .record(move || WorldRecord::CompSlot { idx: comp_id, old });
        }
        let new_comp_id = self.allocate_component_slot();
        let mut new_comp = Component::empty();
        for node in old_members {
            // Both halves shrank, which can unlock merge placements for every old
            // member: mark them all dirty (each touch routed to the member's shard).
            self.mark_dirty(node);
            self.pair_touch(node);
            if self.comp_of[node.index()] == comp_id && !reached(&self.scratch_stamp, node) {
                let pos = self.placements[node.index()].pos;
                self.components[comp_id]
                    .as_mut()
                    .expect("component slot of a live node must be occupied")
                    .remove(node, pos);
                new_comp.insert(node, pos);
                let idx = node.index();
                self.delta.record(move || WorldRecord::CompOf {
                    node: idx,
                    old: comp_id,
                });
                self.comp_of[node.index()] = new_comp_id;
            }
        }
        debug_assert!(!new_comp.is_empty());
        // Component-size bookkeeping: a² + b² replaces (a+b)².
        let split_len = new_comp.len() as u64;
        self.sum_sq_sizes -= 2 * split_len * (old_len - split_len);
        self.live_components += 1;
        self.components[new_comp_id] = Some(new_comp);
    }

    fn allocate_component_slot(&mut self) -> usize {
        if let Some(idx) = self.components.iter().position(Option::is_none) {
            // The record also covers the caller's later assignment into the slot.
            self.delta
                .record(move || WorldRecord::CompSlot { idx, old: None });
            idx
        } else {
            self.components.push(None);
            self.delta.record(|| WorldRecord::CompPush);
            self.components.len() - 1
        }
    }

    /// Activates the bond between two node-ports *without consulting the protocol*,
    /// merging components as needed. Intended for setting up initial configurations
    /// (pre-built seed lines, the input shape of the self-replication protocols) and for
    /// handing configurations between sequentially composed phases.
    ///
    /// # Errors
    /// Returns [`crate::CoreError::PopulationTooSmall`] never; returns
    /// [`crate::CoreError::UnknownNode`] if a node is out of range and
    /// [`crate::CoreError::InvalidPort`] if the pair is not geometrically permissible or
    /// is already bonded.
    pub fn setup_bond(&mut self, a: NodeId, pa: Dir, b: NodeId, pb: Dir) -> crate::Result<()> {
        if a.index() >= self.len() {
            return Err(crate::CoreError::UnknownNode(a));
        }
        if b.index() >= self.len() {
            return Err(crate::CoreError::UnknownNode(b));
        }
        match self.permissibility(a, pa, b, pb) {
            Some(Permissibility::Merge {
                rotation,
                translation,
            }) => {
                self.merge_components(a, b, rotation, translation);
            }
            Some(Permissibility::SameComponentAdjacent) => {}
            Some(Permissibility::Bonded) | None => {
                return Err(crate::CoreError::InvalidPort {
                    node: a,
                    port: pa.short_name(),
                });
            }
        }
        self.record_link(a.index(), pa.index());
        self.record_link(b.index(), pb.index());
        self.links[a.index()][pa.index()] = Some((b, pb));
        self.links[b.index()][pb.index()] = Some((a, pa));
        self.bond_count += 1;
        self.index.bump_version();
        self.mark_dirty(a);
        self.mark_dirty(b);
        self.pair_touch(a);
        self.pair_touch(b);
        self.flush_pairs();
        Ok(())
    }

    /// Decides whether the (unordered) node-port pair is both permissible and
    /// *effective* — applying it would change a state or the bond — and returns the
    /// ready-to-apply [`Interaction`] if so. Identity transitions count as ineffective.
    #[must_use]
    pub fn effective_interaction_at(
        &self,
        a: NodeId,
        pa: Dir,
        b: NodeId,
        pb: Dir,
    ) -> Option<Interaction> {
        if self.halted[a.index()] || self.halted[b.index()] {
            return None;
        }
        let permissibility = self.permissibility(a, pa, b, pb)?;
        let bonded = matches!(permissibility, Permissibility::Bonded);
        let sa = &self.states[a.index()];
        let sb = &self.states[b.index()];
        let effective = transition_effective(&self.protocol, sa, pa, sb, pb, bonded);
        effective.then_some(Interaction {
            a,
            pa,
            b,
            pb,
            permissibility,
        })
    }

    /// Scans one node against the whole population for an effective interaction.
    fn scan_node_for_effective(&self, x: NodeId) -> Option<Interaction> {
        if self.halted[x.index()] {
            return None;
        }
        let ports = self.dim.dirs();
        for yi in 0..self.len() {
            if yi == x.index() || self.halted[yi] {
                continue;
            }
            let y = NodeId::new(yi as u32);
            for &pa in ports {
                for &pb in ports {
                    if let Some(found) = self.effective_interaction_at(x, pa, y, pb) {
                        return Some(found);
                    }
                }
            }
        }
        None
    }

    /// Finds an effective permissible interaction, using the incremental index.
    ///
    /// Amortised cost: each node dirtied by an [`World::apply`] delta is scanned at most
    /// once (against the whole population) across *all* queries, so a query sequence
    /// interleaved with applies costs `O(Σ dirtied · n · ports²)` in total instead of
    /// `O(n² · ports²)` per query. Queries on an unchanged configuration are `O(1)`
    /// (cached candidate revalidation, or the quiescent flag once stability is proven).
    ///
    /// The per-shard queues are drained in shard order (deterministic for a given
    /// configuration history); with one shard this is the historical single-queue
    /// behaviour.
    #[must_use]
    pub fn find_effective_interaction(&self) -> Option<Interaction> {
        let mut index = self.index.lock();
        if let Some(candidate) = index.candidate {
            if let Some(fresh) =
                self.effective_interaction_at(candidate.a, candidate.pa, candidate.b, candidate.pb)
            {
                index.stats.candidate_hits += 1;
                index.candidate = Some(fresh);
                return Some(fresh);
            }
            index.candidate = None;
        }
        if index.quiescent {
            index.stats.quiescent_hits += 1;
            return None;
        }
        for shard in 0..index.queues.len() {
            while let Some(&x) = index.queues[shard].last() {
                index.stats.node_scans += 1;
                if let Some(found) = self.scan_node_for_effective(x) {
                    // `x` stays dirty: the found interaction will usually be applied,
                    // and `x` may have further effective pairs to report afterwards.
                    index.candidate = Some(found);
                    return Some(found);
                }
                index.queues[shard].pop();
                index.dirty[x.index()] = false;
            }
        }
        index.quiescent = true;
        None
    }

    /// The pre-index full scan, kept as the reference implementation: `O(n² · ports²)`.
    /// Used by the equivalence and property suites to validate the indexed path.
    #[must_use]
    pub fn find_effective_interaction_scan(&self) -> Option<Interaction> {
        let ports = self.dim.dirs();
        for ai in 0..self.len() {
            let a = NodeId::new(ai as u32);
            for bi in (ai + 1)..self.len() {
                let b = NodeId::new(bi as u32);
                for &pa in ports {
                    for &pb in ports {
                        if let Some(found) = self.effective_interaction_at(a, pa, b, pb) {
                            return Some(found);
                        }
                    }
                }
            }
        }
        None
    }

    /// Enumerates **exactly** the permissible node-port pairs of the configuration, one
    /// entry per unordered pair, or `None` when the cross-component part would exceed
    /// `cross_budget` node-pair checks (the caller then falls back to rejection
    /// sampling, which is cheap precisely when the permissible set is large).
    ///
    /// Cost: `O(n · ports)` for the bonded and same-component-adjacent parts plus
    /// `O(Σ_{A≠B} |A|·|B| · ports²)` for the cross-component part (bounded by
    /// `cross_budget · ports²` permissibility checks).
    #[must_use]
    pub fn enumerate_permissible(&self, cross_budget: usize) -> Option<Vec<Interaction>> {
        let ports = self.dim.dirs();
        let mut out = Vec::new();
        // Bonded pairs and same-component facing adjacencies: O(n · ports).
        for ai in 0..self.len() {
            let a = NodeId::new(ai as u32);
            let pl_a = self.placements[ai];
            for &pa in ports {
                if let Some((b, pb)) = self.links[ai][pa.index()] {
                    if (ai, pa.index()) < (b.index(), pb.index()) {
                        out.push(Interaction {
                            a,
                            pa,
                            b,
                            pb,
                            permissibility: Permissibility::Bonded,
                        });
                    }
                    continue;
                }
                let facing = pl_a.rot.apply_dir(pa);
                let target = pl_a.pos + facing.unit();
                if let Some(b) = self.component(a).node_at(target) {
                    let pb = self.placements[b.index()]
                        .rot
                        .inverse()
                        .apply_dir(facing.opposite());
                    if (ai, pa.index()) < (b.index(), pb.index()) {
                        out.push(Interaction {
                            a,
                            pa,
                            b,
                            pb,
                            permissibility: Permissibility::SameComponentAdjacent,
                        });
                    }
                }
            }
        }
        // Cross-component pairs. The budget check is O(1) from the maintained
        // component-size bookkeeping instead of an O(components²) size sweep.
        if self.cross_component_universe() > cross_budget as u64 {
            return None;
        }
        let live: Vec<usize> = (0..self.components.len())
            .filter(|&i| self.components[i].is_some())
            .collect();
        for (i, &ca) in live.iter().enumerate() {
            for &cb in live.iter().skip(i + 1) {
                let comp_a = self.components[ca].as_ref().expect("live slot");
                let comp_b = self.components[cb].as_ref().expect("live slot");
                for &a in comp_a.members() {
                    for &b in comp_b.members() {
                        for &pa in ports {
                            for &pb in ports {
                                if let Some(permissibility) = self.permissibility(a, pa, b, pb) {
                                    out.push(Interaction {
                                        a,
                                        pa,
                                        b,
                                        pb,
                                        permissibility,
                                    });
                                }
                            }
                        }
                    }
                }
            }
        }
        Some(out)
    }

    /// Queues `node` for re-derivation in the permissible-pair index, on the pending
    /// queue of the shard owning `node` (no-op while the index is inactive). Only that
    /// shard's queue lock is taken — this is the cross-shard merge/split routing.
    fn pair_touch(&self, node: NodeId) {
        if self.pairs_active.load(Ordering::Relaxed) {
            relock(&self.pair_pending[self.shard_map.shard_of(node)]).push(node);
        }
    }

    /// The read-only geometry view the pair index derives entries from.
    fn geom_view(&self) -> GeomView<'_, P::State> {
        GeomView {
            dim: self.dim,
            states: &self.states,
            halted: &self.halted,
            comp_of: &self.comp_of,
            components: &self.components,
            placements: &self.placements,
            links: &self.links,
        }
    }

    /// Re-derives the queued nodes in the permissible-pair index. Called at the end of
    /// every mutation; each queued node costs `O(ports · classes)`. The batch is
    /// gathered from every shard's pending queue, sorted (ascending node id — the
    /// canonical re-derivation order that keeps class allocation shard-count
    /// independent) and handed to the index, which fans large batches out per shard.
    fn flush_pairs(&self) {
        if !self.pairs_active.load(Ordering::Relaxed) {
            return;
        }
        let mut pending: Vec<NodeId> = Vec::new();
        for queue in &self.pair_pending {
            pending.append(&mut relock(queue));
        }
        if pending.is_empty() {
            return;
        }
        pending.sort_unstable();
        pending.dedup();
        let mut timer = self.obs.phase(Phase::Flush);
        timer.add_units(pending.len() as u64);
        self.obs.trace(
            trace_lane(pending[0], self.len()),
            TraceEventKind::IndexFlush {
                touched: pending.len() as u32,
            },
        );
        let mut cell = self.lock_pairs();
        let view = self.geom_view();
        if cell
            .index
            .flush_batch(&view, &self.protocol, &pending)
            .is_err()
        {
            cell.mode = PairMode::Overflowed;
            cell.index.clear();
            self.pairs_active.store(false, Ordering::Relaxed);
        }
    }

    /// Ensures the pair index is built and active, or reports why it cannot be
    /// (`false` ⇔ the protocol's live state diversity has overflowed the class table).
    fn ensure_pairs_active(&self, cell: &mut PairCell<P::State>) -> bool {
        match cell.mode {
            PairMode::Overflowed => false,
            PairMode::Active => true,
            PairMode::Disabled => {
                let view = self.geom_view();
                if cell.index.build(&view, &self.protocol).is_err() {
                    cell.mode = PairMode::Overflowed;
                    cell.index.clear();
                    return false;
                }
                cell.mode = PairMode::Active;
                self.pairs_active.store(true, Ordering::Relaxed);
                true
            }
        }
    }

    fn summary_from(&self, cell: &PairCell<P::State>, counts: BaseCounts) -> PairSummary {
        PairSummary {
            permissible_base: counts.permissible,
            effective_base: counts.effective,
            multi_components: self.live_components - cell.index.singleton_count(),
        }
    }

    /// Exact permissible/effective pair counts of the current configuration, excluding
    /// multi×multi cross-component pairs (see [`World::enumerate_cross_multi`]),
    /// *recounted* per frozen configuration version from the per-shard lists (memoised
    /// per version). Activates (builds) the incremental pair index on first use;
    /// returns `None` when the protocol's live state diversity has overflowed the
    /// index's class table, in which case callers must fall back to rejection or
    /// enumerated sampling. This is the batched sampler's path; the sharded sampler
    /// reads the O(1) running aggregate instead ([`World::pair_counts_sharded`]).
    pub(crate) fn pair_counts(&self) -> Option<PairSummary> {
        let mut cell = self.lock_pairs();
        if !self.ensure_pairs_active(&mut cell) {
            return None;
        }
        let version = self.version();
        let counts = match cell.counts_cache {
            Some((v, counts)) if v == version => counts,
            _ => {
                let counts = cell.index.counts(&self.protocol, self.dim);
                cell.counts_cache = Some((version, counts));
                counts
            }
        };
        Some(self.summary_from(&cell, counts))
    }

    /// Exact pair counts served from the incrementally maintained shared aggregate —
    /// the sum of the per-shard registration streams — in `O(1)` per call, no
    /// per-version recount. Same activation/overflow contract as
    /// [`World::pair_counts`]; the two are asserted equal by
    /// [`World::validate_pair_index`].
    pub(crate) fn pair_counts_sharded(&self) -> Option<PairSummary> {
        let mut cell = self.lock_pairs();
        if !self.ensure_pairs_active(&mut cell) {
            return None;
        }
        let counts = cell.index.aggregate_counts(self.dim);
        Some(self.summary_from(&cell, counts))
    }

    /// The `idx`-th effective base pair as a ready-to-apply [`Interaction`]; uniform
    /// over the effective base set when `idx` is uniform over `0..effective_base`, and
    /// — the canonical cell walk being configuration-determined — independent of the
    /// shard count. Must only be called right after [`World::pair_counts`] /
    /// [`World::pair_counts_sharded`] on the same (frozen) configuration version.
    pub(crate) fn sample_effective_base(&self, idx: u64) -> Interaction {
        let cell = self.lock_pairs();
        let (a, pa, b, pb) = cell.index.sample_effective(self.dim, idx);
        drop(cell);
        self.interaction(a, pa, b, pb)
            .expect("pair-index effective entry must be permissible")
    }

    /// The `idx`-th permissible base pair (uniform when `idx` is uniform over
    /// `0..permissible_base`). Same calling contract as
    /// [`World::sample_effective_base`].
    pub(crate) fn sample_permissible_base(&self, idx: u64) -> Interaction {
        let cell = self.lock_pairs();
        let (a, pa, b, pb) = cell.index.sample_permissible(self.dim, idx);
        drop(cell);
        self.interaction(a, pa, b, pb)
            .expect("pair-index permissible entry must be permissible")
    }

    /// Per-shard load and routing statistics (node counts from the shard map, bucket
    /// and intra-pair loads from the pair index when it is active, and the number of
    /// cross-shard merge/split events routed through the pending queues).
    #[must_use]
    pub fn shard_stats(&self) -> ShardStats {
        let cell = self.lock_pairs();
        let loads = if matches!(cell.mode, PairMode::Active) {
            cell.index.shard_loads()
        } else {
            vec![(0, 0, 0); self.shard_map.count()]
        };
        drop(cell);
        ShardStats {
            shards: self.shard_map.count(),
            nodes: (0..self.shard_map.count())
                .map(|s| self.shard_map.range(s).len())
                .collect(),
            singletons: loads.iter().map(|&(s, _, _)| s).collect(),
            free_ports: loads.iter().map(|&(_, f, _)| f).collect(),
            intra_pairs: loads.iter().map(|&(_, _, i)| i).collect(),
            cross_shard_events: self.cross_shard_events.load(Ordering::Relaxed),
        }
    }

    // --- checkpoint / rollback (the delta log) -----------------------------------------

    /// Opens a checkpoint: until the matching [`World::rollback`] or
    /// [`World::release`], every mutation appends an undoable record to the delta log
    /// (see [`crate::delta`]). Checkpoints nest; rolling back to an outer epoch
    /// discards inner ones. This is the transition primitive of the `nc-verify`
    /// explorer (apply, fingerprint, roll back) and of the delta-log suites.
    pub fn checkpoint(&mut self) -> Epoch {
        if !self.delta.recording() {
            self.delta.reset_records();
        }
        let (dirty, queues, candidate, quiescent) = {
            let state = self.index.lock();
            (
                state.dirty.clone(),
                state.queues.clone(),
                state.candidate,
                state.quiescent,
            )
        };
        let pending: Vec<Vec<NodeId>> = self
            .pair_pending
            .iter()
            .map(|q| relock(q).clone())
            .collect();
        let (index_pos, pairs_mode) = {
            let mut cell = relock(&self.pairs);
            let mode = cell.mode;
            let pos = if matches!(mode, PairMode::Active) {
                if !cell.index.is_logging() {
                    cell.index.clear_oplog();
                    cell.index.set_logging(true);
                }
                cell.index.oplog_len()
            } else {
                0
            };
            (pos, mode)
        };
        let frame = EpochFrame {
            id: 0, // assigned by `open`
            world_pos: self.delta.world_pos(),
            index_pos,
            index_rebuilt: false,
            bond_count: self.bond_count,
            sum_sq_sizes: self.sum_sq_sizes,
            live_components: self.live_components,
            cross_shard_events: self.cross_shard_events.load(Ordering::Relaxed),
            dirty,
            queues,
            candidate,
            quiescent,
            pending,
            pairs_mode,
        };
        let epoch = self.delta.open(frame);
        // Mutations from here to the matching rollback/release are scratch work
        // (explorer probes, undo-suite probes): keep them out of the step-indexed trace.
        self.obs.set_muted(true);
        epoch
    }

    /// Rolls the world back to the state it had when `epoch` was opened (discarding
    /// any checkpoints opened after it): world records are undone in strict reverse,
    /// the `O(1)` bookkeeping scalars, dirty-frontier memoisation and pending queues
    /// are restored from the frame's snapshots, and the permissible-pair index is
    /// unwound through its operation log — so the per-shard sub-index layouts and the
    /// running aggregates come back exactly, not just equivalently (asserted by the
    /// delta-log exactness suite via [`World::validate_pair_index`]).
    ///
    /// The configuration version is **bumped**, not rewound: version-keyed sampler
    /// caches must re-derive from the restored state, and equality of versions — not
    /// their numeric values — is all they rely on. Work counters
    /// ([`World::index_stats`]) are likewise not rewound.
    ///
    /// One caveat: if the epoch saw the index overflow or an inner rollback rebuilt
    /// it, the index is rebuilt from the restored configuration instead of unwound —
    /// counts and sets are exact either way, but state-class *ids* may then differ
    /// from a never-checkpointed run's (they are allocation-history dependent). The
    /// `nc-verify` explorer only applies one interaction per epoch to small worlds of
    /// protocols far below the class cap, and compares configurations up to class
    /// ids, so it never depends on this path.
    ///
    /// # Errors
    /// [`CoreError::EpochNotOpen`] if `epoch` is not open (already rolled back or
    /// released); the world is left untouched in that case.
    pub fn rollback(&mut self, epoch: Epoch) -> crate::Result<()> {
        let frame = self.delta.take_frame(epoch)?;
        let obs = self.obs.clone();
        let mut timer = obs.phase(Phase::Rollback);
        let records = self.delta.split_records(frame.world_pos);
        timer.add_units(records.len() as u64);
        for record in records.into_iter().rev() {
            match record {
                WorldRecord::State { node, old } => self.states[node] = old,
                WorldRecord::Halted { node, old } => self.set_halted(node, old),
                WorldRecord::Link { node, port, old } => self.links[node][port] = old,
                WorldRecord::CompOf { node, old } => self.comp_of[node] = old,
                WorldRecord::PlacementOf { node, old } => self.placements[node] = old,
                WorldRecord::CompSlot { idx, old } => self.components[idx] = old,
                WorldRecord::CompPush => {
                    self.components.pop();
                }
            }
        }
        self.bond_count = frame.bond_count;
        self.sum_sq_sizes = frame.sum_sq_sizes;
        self.live_components = frame.live_components;
        self.cross_shard_events
            .store(frame.cross_shard_events, Ordering::Relaxed);
        {
            let mut state = self.index.lock();
            state.dirty = frame.dirty;
            state.queues = frame.queues;
            state.candidate = frame.candidate;
            state.quiescent = frame.quiescent;
        }
        for (queue, saved) in self.pair_pending.iter().zip(frame.pending) {
            *relock(queue) = saved;
        }
        let mut rebuilt = false;
        let still_active = {
            let mut cell = relock(&self.pairs);
            cell.counts_cache = None;
            match (frame.pairs_mode, cell.mode) {
                (PairMode::Active, PairMode::Active) if !frame.index_rebuilt => {
                    cell.index
                        .rollback_ops(frame.index_pos, &self.protocol, self.dim);
                }
                (PairMode::Active, _) => {
                    // The op log no longer reaches the checkpoint (mid-epoch overflow
                    // wiped it, or an inner rollback already rebuilt): rebuild from
                    // the restored configuration. The configuration was indexable at
                    // checkpoint time, so the rebuild succeeds.
                    cell.index.set_logging(false);
                    let view = GeomView {
                        dim: self.dim,
                        states: &self.states,
                        halted: &self.halted,
                        comp_of: &self.comp_of,
                        components: &self.components,
                        placements: &self.placements,
                        links: &self.links,
                    };
                    if cell.index.build(&view, &self.protocol).is_ok() {
                        cell.mode = PairMode::Active;
                        rebuilt = true;
                    } else {
                        cell.mode = PairMode::Overflowed;
                        cell.index.clear();
                    }
                }
                (PairMode::Disabled, PairMode::Active | PairMode::Overflowed) => {
                    // The index was activated mid-epoch: return it to its
                    // lazily-unbuilt state.
                    cell.index.clear();
                    cell.mode = PairMode::Disabled;
                }
                (PairMode::Disabled, PairMode::Disabled) | (PairMode::Overflowed, _) => {}
            }
            matches!(cell.mode, PairMode::Active)
        };
        self.pairs_active.store(still_active, Ordering::Relaxed);
        if rebuilt {
            // Outer frames' op positions point into the wiped log: their rollbacks
            // must rebuild too. New checkpoints restart the log from scratch.
            self.delta.poison_index_positions();
        }
        if !self.delta.recording() {
            self.delta.reset_records();
            let mut cell = relock(&self.pairs);
            cell.index.set_logging(false);
            cell.index.clear_oplog();
        }
        self.index.bump_version();
        // The unwind itself ran muted (the flag was raised by `checkpoint`); unmute
        // only once the outermost epoch is gone.
        self.obs.set_muted(self.delta.recording());
        Ok(())
    }

    /// Closes `epoch` (and any checkpoints opened after it) *keeping* the mutations
    /// made since. While outer checkpoints remain open their records are retained —
    /// an outer rollback still undoes the released epoch's mutations.
    ///
    /// # Errors
    /// [`CoreError::EpochNotOpen`] if `epoch` is not open (already rolled back or
    /// released); the world is left untouched in that case.
    pub fn release(&mut self, epoch: Epoch) -> crate::Result<()> {
        let _frame = self.delta.take_frame(epoch)?;
        if !self.delta.recording() {
            self.delta.reset_records();
            let mut cell = relock(&self.pairs);
            cell.index.set_logging(false);
            cell.index.clear_oplog();
        }
        self.obs.set_muted(self.delta.recording());
        Ok(())
    }

    // --- snapshots (see `crate::snapshot` for the format and the exactness notes) ------

    /// Encodes the sampler-visible runtime state of the configuration: the scalar
    /// bookkeeping, every node's state/placement/links, the component-slot layout
    /// with each component's membership order, and — when the permissible-pair index
    /// is active — its pinned class-table layout. Derived state (halted flags, the
    /// dirty frontier, count caches) is deliberately omitted; see the module docs of
    /// [`crate::snapshot`] for what is recomputed on resume and why that is exact.
    pub(crate) fn snapshot_encode(&self, out: &mut crate::SnapshotWriter)
    where
        P: crate::SnapshotProtocol,
    {
        out.u8(match self.dim {
            Dim::Two => 2,
            Dim::Three => 3,
        });
        out.u64(self.bond_count as u64);
        out.u64(self.sum_sq_sizes);
        out.u64(self.live_components as u64);
        out.u64(self.cross_shard_events.load(Ordering::Relaxed));
        for i in 0..self.len() {
            self.protocol.encode_state(&self.states[i], out);
            let placement = self.placements[i];
            out.i32(placement.pos.x);
            out.i32(placement.pos.y);
            out.i32(placement.pos.z);
            // A rotation is determined by the images of the three axes; encoding
            // them through the public `apply_dir` round-trips via
            // `Rotation::from_axis_images`, which validates on decode.
            out.u8(placement.rot.apply_dir(Dir::Right).index() as u8);
            out.u8(placement.rot.apply_dir(Dir::Up).index() as u8);
            out.u8(placement.rot.apply_dir(Dir::ZPlus).index() as u8);
            out.u64(self.comp_of[i] as u64);
            for link in &self.links[i] {
                match link {
                    Some((peer, port)) => {
                        out.u8(1);
                        out.u32(peer.index() as u32);
                        out.u8(port.index() as u8);
                    }
                    None => out.u8(0),
                }
            }
        }
        out.u64(self.components.len() as u64);
        for slot in &self.components {
            match slot {
                Some(comp) => {
                    out.u8(1);
                    out.u64(comp.len() as u64);
                    // Membership order is sampler-visible (cross-pair enumeration
                    // walks it) and execution-history dependent: persist it. Frame
                    // positions are not stored — the occupancy map is rebuilt from
                    // the members' placements.
                    for &member in comp.members() {
                        out.u32(member.index() as u32);
                    }
                }
                None => out.u8(0),
            }
        }
        let cell = self.lock_pairs();
        out.u8(match cell.mode {
            PairMode::Disabled => 0,
            PairMode::Active => 1,
            PairMode::Overflowed => 2,
        });
        if matches!(cell.mode, PairMode::Active) {
            let (slots, free) = cell.index.snapshot_class_layout();
            out.u64(slots.len() as u64);
            for slot in &slots {
                match slot {
                    Some(state) => {
                        out.u8(1);
                        self.protocol.encode_state(state, out);
                    }
                    None => out.u8(0),
                }
            }
            out.u64(free.len() as u64);
            for id in free {
                out.u32(id);
            }
        }
    }

    /// Decodes a configuration encoded by [`World::snapshot_encode`] into a fresh
    /// world of `n` nodes on `shards` shards.
    ///
    /// Decoding is defensive end to end: the input has only passed a checksum, so
    /// every id is bounds-checked, every tag validated, cell occupancy pre-checked
    /// before insertion, the stored scalar bookkeeping compared against a recount,
    /// and the full embedding invariant suite run at the end — malformed input yields
    /// a typed [`CoreError`], never a panic. Halted flags are recomputed from the
    /// decoded states; the dirty frontier starts conservatively all-dirty.
    ///
    /// # Errors
    /// [`CoreError::SnapshotTruncated`] or [`CoreError::SnapshotCorrupt`].
    pub(crate) fn snapshot_decode(
        protocol: P,
        n: usize,
        shards: usize,
        r: &mut crate::SnapshotReader<'_>,
    ) -> crate::Result<World<P>>
    where
        P: crate::SnapshotProtocol,
    {
        fn corrupt(what: &'static str) -> CoreError {
            CoreError::SnapshotCorrupt { what }
        }
        if n == 0 {
            return Err(corrupt("population size is zero"));
        }
        // Every node costs at least 30 body bytes (state tag, position, rotation
        // axes, component id, six link tags), so a population the remaining bytes
        // cannot possibly hold is rejected *before* the world — whose runtime
        // structures are sized by `n` — is allocated. Without this bound a
        // corrupted-but-checksum-valid population count could demand terabytes.
        const MIN_NODE_BYTES: usize = 30;
        if n > r.remaining() / MIN_NODE_BYTES {
            return Err(corrupt("population size exceeds the snapshot body"));
        }
        let world = World::with_shards(protocol, n, shards);
        let dim = match r.u8()? {
            2 => Dim::Two,
            3 => Dim::Three,
            _ => return Err(corrupt("dimension tag is neither 2 nor 3")),
        };
        if dim != world.dim {
            return Err(corrupt(
                "snapshot dimensionality disagrees with the protocol",
            ));
        }
        let bond_count = r.u64()?;
        let sum_sq_sizes = r.u64()?;
        let live_components = r.u64()?;
        let cross_shard_events = r.u64()?;
        let mut states = Vec::with_capacity(n);
        let mut placements = Vec::with_capacity(n);
        let mut comp_of = Vec::with_capacity(n);
        let mut links = Vec::with_capacity(n);
        for _ in 0..n {
            states.push(world.protocol.decode_state(r)?);
            let pos = Coord::new(r.i32()?, r.i32()?, r.i32()?);
            // Reachable embeddings stay within O(n) of the origin; a generous ±2³⁰
            // bound rejects corrupted coordinates long before the neighbour
            // arithmetic (`pos + dir.unit()`) could overflow an `i32`.
            const COORD_BOUND: i32 = 1 << 30;
            let in_bounds = |c: i32| (-COORD_BOUND..=COORD_BOUND).contains(&c);
            if !(in_bounds(pos.x) && in_bounds(pos.y) && in_bounds(pos.z)) {
                return Err(corrupt("node position is outside the plausible grid"));
            }
            let mut axes = [Dir::Up; 3];
            for axis in &mut axes {
                let idx = r.u8()? as usize;
                if idx >= 6 {
                    return Err(corrupt("direction index out of range"));
                }
                *axis = Dir::from_index(idx);
            }
            let rot = Rotation::from_axis_images(axes[0], axes[1], axes[2])
                .ok_or_else(|| corrupt("axis images do not form a rigid grid rotation"))?;
            placements.push(Placement { pos, rot });
            let comp = r.u64()?;
            comp_of.push(usize::try_from(comp).map_err(|_| corrupt("component id out of range"))?);
            let mut node_links = [None; 6];
            for entry in &mut node_links {
                match r.u8()? {
                    0 => {}
                    1 => {
                        let peer = r.u32()? as usize;
                        if peer >= n {
                            return Err(corrupt("link peer out of range"));
                        }
                        let port = r.u8()? as usize;
                        if port >= 6 {
                            return Err(corrupt("direction index out of range"));
                        }
                        *entry = Some((NodeId::new(peer as u32), Dir::from_index(port)));
                    }
                    _ => return Err(corrupt("link tag is neither 0 nor 1")),
                }
            }
            links.push(node_links);
        }
        let slot_count = r.count(1)?;
        let mut components: Vec<Option<Component>> = Vec::with_capacity(slot_count);
        let mut assigned = vec![false; n];
        for idx in 0..slot_count {
            match r.u8()? {
                0 => components.push(None),
                1 => {
                    let members = r.count(4)?;
                    if members == 0 {
                        return Err(corrupt("live component slot with no members"));
                    }
                    let mut comp = Component::empty();
                    for _ in 0..members {
                        let member = r.u32()? as usize;
                        if member >= n {
                            return Err(corrupt("component member out of range"));
                        }
                        if assigned[member] {
                            return Err(corrupt("node listed in two components"));
                        }
                        assigned[member] = true;
                        if comp_of[member] != idx {
                            return Err(corrupt(
                                "component membership disagrees with the node's component id",
                            ));
                        }
                        let pos = placements[member].pos;
                        // `Component::insert` treats double occupancy as a caller
                        // bug and panics; on snapshot input it is corruption.
                        if comp.is_occupied(pos) {
                            return Err(corrupt("two component members occupy one cell"));
                        }
                        comp.insert(NodeId::new(member as u32), pos);
                    }
                    components.push(Some(comp));
                }
                _ => return Err(corrupt("component slot tag is neither 0 nor 1")),
            }
        }
        if assigned.iter().any(|&a| !a) {
            return Err(corrupt("node missing from every component"));
        }
        // The stored scalar bookkeeping is redundant with the structures above:
        // recount and compare, so a corrupted scalar cannot skew the samplers.
        let linked = links.iter().flatten().flatten().count();
        if linked % 2 != 0 || (linked / 2) as u64 != bond_count {
            return Err(corrupt("bond count disagrees with the link table"));
        }
        let live = components.iter().flatten().count();
        if live as u64 != live_components {
            return Err(corrupt("live component count disagrees with the slot list"));
        }
        let recount_sq: u64 = components
            .iter()
            .flatten()
            .map(|c| (c.len() * c.len()) as u64)
            .sum();
        if recount_sq != sum_sq_sizes {
            return Err(corrupt(
                "component size aggregate disagrees with the slot list",
            ));
        }
        let mode = match r.u8()? {
            0 => PairMode::Disabled,
            1 => PairMode::Active,
            2 => PairMode::Overflowed,
            _ => return Err(corrupt("pair-index mode tag out of range")),
        };
        let pinned = if matches!(mode, PairMode::Active) {
            let class_slots = r.count(1)?;
            let mut slots = Vec::with_capacity(class_slots);
            for _ in 0..class_slots {
                match r.u8()? {
                    0 => slots.push(None),
                    1 => slots.push(Some(world.protocol.decode_state(r)?)),
                    _ => return Err(corrupt("class slot tag is neither 0 nor 1")),
                }
            }
            let free_count = r.count(4)?;
            let mut free = Vec::with_capacity(free_count);
            for _ in 0..free_count {
                free.push(r.u32()?);
            }
            Some((slots, free))
        } else {
            None
        };
        let mut world = world;
        world.states = states;
        world.refresh_halted_all();
        world.placements = placements;
        world.comp_of = comp_of;
        world.components = components;
        world.links = links;
        world.bond_count = bond_count as usize;
        world.sum_sq_sizes = sum_sq_sizes;
        world.live_components = live;
        world
            .cross_shard_events
            .store(cross_shard_events, Ordering::Relaxed);
        if !world.check_invariants() {
            return Err(corrupt("configuration violates the embedding invariants"));
        }
        match mode {
            PairMode::Disabled => {}
            PairMode::Overflowed => {
                world.lock_pairs().mode = PairMode::Overflowed;
            }
            PairMode::Active => {
                let (slots, free) = pinned.expect("decoded for the Active mode above");
                let view = world.geom_view();
                let mut cell = relock(&world.pairs);
                cell.index
                    .restore_pinned(&view, &world.protocol, slots, free)
                    .map_err(|what| CoreError::SnapshotCorrupt { what })?;
                cell.mode = PairMode::Active;
                drop(cell);
                world.pairs_active.store(true, Ordering::Relaxed);
            }
        }
        Ok(world)
    }

    /// The multi-node components of the configuration (with the candidate universe of
    /// their pairwise node products), or `None` when the universe exceeds `budget`.
    /// Shared ground truth for [`World::enumerate_cross_multi`] and the stability fast
    /// path, so both agree on what counts as a multi component and when enumeration is
    /// affordable.
    fn cross_multi_components(&self, budget: u64) -> Option<(Vec<usize>, u64)> {
        let multi: Vec<usize> = (0..self.components.len())
            .filter(|&i| self.components[i].as_ref().is_some_and(|c| c.len() >= 2))
            .collect();
        let mut universe = 0u64;
        for (i, &ca) in multi.iter().enumerate() {
            let size_a = self.components[ca].as_ref().map_or(0, Component::len) as u64;
            for &cb in multi.iter().skip(i + 1) {
                let size_b = self.components[cb].as_ref().map_or(0, Component::len) as u64;
                universe = universe.saturating_add(size_a * size_b);
            }
        }
        (universe <= budget).then_some((multi, universe))
    }

    /// The default budget for per-version multi×multi cross-pair work, in node pairs.
    pub(crate) fn cross_multi_budget(&self) -> u64 {
        (CROSS_BUDGET_PER_NODE * self.len()) as u64
    }

    /// Visits every permissible pair between the two given components with its
    /// effectiveness; stops early (returning `true`) when `visit` does.
    fn visit_cross_pair(
        &self,
        ca: usize,
        cb: usize,
        visit: &mut impl FnMut(Interaction, bool) -> bool,
    ) -> bool {
        let ports = self.dim.dirs();
        let comp_a = self.components[ca].as_ref().expect("live slot");
        let comp_b = self.components[cb].as_ref().expect("live slot");
        for &a in comp_a.members() {
            for &b in comp_b.members() {
                for &pa in ports {
                    for &pb in ports {
                        if let Some(interaction) = self.interaction(a, pa, b, pb) {
                            let effective = self.effective_interaction_at(a, pa, b, pb).is_some();
                            if visit(interaction, effective) {
                                return true;
                            }
                        }
                    }
                }
            }
        }
        false
    }

    /// Runs `body` over the component-pair list, fanned out in chunks on the vendored
    /// pool when the candidate universe is large, sequentially (one chunk holding the
    /// whole list) otherwise. The single definition of the multi×multi
    /// parallelisation policy, shared by enumeration and the stability fast path so
    /// they cannot drift apart; chunk results come back in pair order.
    fn map_cross_pair_chunks<T: Send + Default>(
        &self,
        multi: &[usize],
        universe: u64,
        body: impl Fn(&[(usize, usize)], &mut T) + Send + Sync,
    ) -> Vec<T> {
        let pairs: Vec<(usize, usize)> = multi
            .iter()
            .enumerate()
            .flat_map(|(i, &ca)| multi.iter().skip(i + 1).map(move |&cb| (ca, cb)))
            .collect();
        let workers = self.shard_map.count();
        if universe >= PARALLEL_CROSS_MIN && workers > 1 && pairs.len() > 1 {
            let chunk = pairs.len().div_ceil(workers);
            let chunks: Vec<&[(usize, usize)]> = pairs.chunks(chunk).collect();
            let mut outs: Vec<T> = chunks.iter().map(|_| T::default()).collect();
            let body = &body;
            rayon::scope(|scope| {
                for (chunk, out) in chunks.iter().zip(outs.iter_mut()) {
                    scope.spawn(move |_| body(chunk, out));
                }
            });
            outs
        } else {
            let mut out = T::default();
            body(&pairs, &mut out);
            vec![out]
        }
    }

    /// Enumerates the permissible pairs spanning two *multi-node* components together
    /// with their effectiveness, or `None` when the candidate universe (node pairs
    /// across multi-component pairs) exceeds `budget`. This is the one class of the
    /// pair decomposition whose permissibility depends on non-local geometry (shape
    /// collision), so it is enumerated per frozen configuration instead of being
    /// maintained incrementally; in single-growth workloads it is empty and costs
    /// `O(components)`.
    ///
    /// Large universes (many concurrent multi-node components, the merge-queue stress
    /// regime) fan the sweep out over component pairs on the vendored pool; the chunks
    /// are concatenated in pair order, so the result is identical to the sequential
    /// sweep.
    pub(crate) fn enumerate_cross_multi(&self, budget: u64) -> Option<Vec<(Interaction, bool)>> {
        let (multi, universe) = self.cross_multi_components(budget)?;
        let outs = self.map_cross_pair_chunks(
            &multi,
            universe,
            |chunk, out: &mut Vec<(Interaction, bool)>| {
                for &(ca, cb) in chunk {
                    self.visit_cross_pair(ca, cb, &mut |interaction, effective| {
                        out.push((interaction, effective));
                        false
                    });
                }
            },
        );
        Some(outs.concat())
    }

    /// Validates the incremental permissible-pair index against the enumeration oracle:
    /// the recounted permissible/effective totals must equal the brute-force
    /// [`World::enumerate_permissible`] classification, the incrementally maintained
    /// shared aggregate must equal the recount (the two are computed through
    /// independent code paths — per-shard list sums with a hash memo vs running deltas
    /// over dense tables), the sharded layout invariants must hold (including the
    /// block invariants of every rank bucket), and the maintained effective *set* must
    /// match pair for pair. It also checks the halted-node count behind
    /// [`World::any_halted`]/[`World::all_halted`] against a scan of the per-node
    /// halted cache. Activates the index if necessary.
    ///
    /// # Errors
    /// Returns a description of the first discrepancy. Intended for the equivalence
    /// suite; `O(n²·ports²)` — do not call on hot paths.
    pub fn validate_pair_index(&self) -> Result<(), String> {
        let scanned = self.halted.iter().filter(|&&h| h).count();
        if scanned != self.halted_count {
            return Err(format!(
                "halted count {} disagrees with the {scanned} halted nodes in the cache",
                self.halted_count
            ));
        }
        let Some(summary) = self.pair_counts() else {
            return Err("pair index overflowed its class table".to_string());
        };
        let aggregate = self
            .pair_counts_sharded()
            .expect("aggregate counts must be available while the index is active");
        if aggregate != summary {
            return Err(format!(
                "aggregate counts {aggregate:?} disagree with the recount {summary:?}"
            ));
        }
        {
            let cell = self.lock_pairs();
            cell.index.check_sharding(&self.protocol, self.dim)?;
        }
        let mm = self
            .enumerate_cross_multi(u64::MAX)
            .expect("unbounded enumeration cannot be refused");
        let oracle = self
            .enumerate_permissible(usize::MAX)
            .expect("unbounded enumeration cannot be refused");
        let index_permissible = summary.permissible_base + mm.len() as u64;
        if index_permissible != oracle.len() as u64 {
            return Err(format!(
                "permissible count mismatch: index {index_permissible}, oracle {}",
                oracle.len()
            ));
        }
        let mut oracle_eff: Vec<u64> = oracle
            .iter()
            .filter(|i| {
                self.effective_interaction_at(i.a, i.pa, i.b, i.pb)
                    .is_some()
            })
            .map(|i| crate::index::pair_key(i.a, i.pa, i.b, i.pb))
            .collect();
        let mut index_eff: Vec<u64> = {
            let cell = self.lock_pairs();
            cell.index.collect_effective(self.dim)
        };
        index_eff.extend(
            mm.iter()
                .filter(|(_, eff)| *eff)
                .map(|(i, _)| crate::index::pair_key(i.a, i.pa, i.b, i.pb)),
        );
        let index_eff_count = index_eff.len() as u64;
        let mm_eff = mm.iter().filter(|(_, eff)| *eff).count() as u64;
        if summary.effective_base + mm_eff != index_eff_count {
            return Err(format!(
                "effective count/set mismatch inside the index: counted {}, expanded {index_eff_count}",
                summary.effective_base + mm_eff
            ));
        }
        oracle_eff.sort_unstable();
        index_eff.sort_unstable();
        if oracle_eff != index_eff {
            return Err(format!(
                "effective set mismatch: index has {} pairs, oracle {}",
                index_eff.len(),
                oracle_eff.len()
            ));
        }
        Ok(())
    }

    /// Whether any permissible pair spanning two multi-node components is effective,
    /// or `None` when the multi×multi candidate universe exceeds `budget` (early exit
    /// on the first effective pair; no allocation). Large universes fan out across
    /// component pairs with a shared found-flag (existence is order-independent, so the
    /// parallel answer is identical to the sequential one).
    fn any_effective_cross_multi(&self, budget: u64) -> Option<bool> {
        let (multi, universe) = self.cross_multi_components(budget)?;
        let found = AtomicBool::new(false);
        self.map_cross_pair_chunks(&multi, universe, |chunk, (): &mut ()| {
            for &(ca, cb) in chunk {
                if found.load(Ordering::Relaxed) {
                    return;
                }
                if self.visit_cross_pair(ca, cb, &mut |_, effective| effective) {
                    found.store(true, Ordering::Relaxed);
                    return;
                }
            }
        });
        Some(found.into_inner())
    }

    /// Whether the configuration is stable: no permissible interaction is effective, so
    /// the configuration (and in particular its output shape) can never change again.
    ///
    /// While the permissible-pair index is active (batched and sharded executions), the
    /// answer comes from the incrementally maintained aggregate effective count in
    /// `O(1)` instead of draining the dirty frontier, whose per-node scans are
    /// `O(n·ports²)`. Otherwise, and whenever the multi×multi cross budget is exceeded,
    /// the dirty-frontier index answers (see [`World::find_effective_interaction`] for
    /// the amortised cost).
    #[must_use]
    pub fn is_stable(&self) -> bool {
        if self.pairs_active.load(Ordering::Relaxed) {
            if let Some(summary) = self.pair_counts_sharded() {
                if summary.effective_base > 0 {
                    return false;
                }
                // Base classes are quiescent; only multi×multi pairs could still act.
                if let Some(any) = self.any_effective_cross_multi(self.cross_multi_budget()) {
                    return !any;
                }
            }
        }
        self.find_effective_interaction().is_none()
    }

    /// Stability through the exhaustive pre-index scan: `O(n² · ports²)`. Kept as the
    /// reference implementation for the equivalence suite and for the faithful legacy
    /// execution path of [`crate::Simulation::run_until_stable`].
    #[must_use]
    pub fn is_stable_scan(&self) -> bool {
        self.find_effective_interaction_scan().is_none()
    }

    /// Whether every node is in a halted state. `O(1)`: reads the halted-node count
    /// maintained alongside the per-node halted cache.
    #[must_use]
    pub fn all_halted(&self) -> bool {
        self.halted_count == self.halted.len()
    }

    /// Whether at least one node is in a halted state. `O(1)` and allocation-free:
    /// reads the halted-node count maintained alongside the per-node halted cache, so
    /// it is cheap enough to check after every step.
    #[must_use]
    pub fn any_halted(&self) -> bool {
        self.halted_count > 0
    }

    /// Nodes currently in a halted state.
    #[must_use]
    pub fn halted_nodes(&self) -> Vec<NodeId> {
        self.nodes().filter(|&n| self.halted[n.index()]).collect()
    }

    /// The shape of the component containing `node`, expressed in the component frame.
    ///
    /// When `only_output` is set, only members in output states (and bonds between them)
    /// are included, matching the paper's definition of the output of a configuration.
    #[must_use]
    pub fn shape_of(&self, node: NodeId, only_output: bool) -> Shape {
        let comp = self.component(node);
        let mut shape = Shape::new();
        let included = |n: NodeId| !only_output || self.protocol.is_output(self.state(n));
        for (member, pos) in comp.iter() {
            if included(member) {
                shape.insert_cell(pos);
            }
        }
        for (member, pos) in comp.iter() {
            if !included(member) {
                continue;
            }
            for (peer, _) in self.links[member.index()].iter().flatten() {
                if included(*peer) && self.comp_of[peer.index()] == self.comp_of[member.index()] {
                    let peer_pos = self.placements[peer.index()].pos;
                    let _ = shape.insert_edge(pos, peer_pos);
                }
            }
        }
        shape
    }

    /// The output shapes of the configuration: for every component, the subgraph induced
    /// by its output-state members, skipping components with no output members.
    #[must_use]
    pub fn output_shapes(&self) -> Vec<Shape> {
        let mut seen = vec![false; self.components.len()];
        let mut out = Vec::new();
        for node in self.nodes() {
            let cid = self.comp_of[node.index()];
            if seen[cid] {
                continue;
            }
            seen[cid] = true;
            let shape = self.shape_of(node, true);
            if !shape.is_empty() {
                out.push(shape);
            }
        }
        out
    }

    /// The largest output shape of the configuration (by number of cells), or the empty
    /// shape when no node is in an output state.
    #[must_use]
    pub fn output_shape(&self) -> Shape {
        self.output_shapes()
            .into_iter()
            .max_by_key(Shape::len)
            .unwrap_or_default()
    }

    /// Checks internal consistency of the embedding: every bonded pair of nodes is in the
    /// same component, at unit distance, with ports facing each other, and no two nodes
    /// of a component occupy the same cell. Used by tests and debug assertions.
    #[must_use]
    pub fn check_invariants(&self) -> bool {
        for node in self.nodes() {
            let placement = self.placements[node.index()];
            let comp_id = self.comp_of[node.index()];
            let comp = self.components[comp_id].as_ref();
            let Some(comp) = comp else {
                return false;
            };
            if comp.node_at(placement.pos) != Some(node) {
                return false;
            }
            for (idx, link) in self.links[node.index()].iter().enumerate() {
                let Some((peer, peer_port)) = link else {
                    continue;
                };
                let port = Dir::from_index(idx);
                if !self.dim.contains(port) {
                    return false;
                }
                if self.comp_of[peer.index()] != comp_id {
                    return false;
                }
                if self.links[peer.index()][peer_port.index()] != Some((node, port)) {
                    return false;
                }
                let peer_placement = self.placements[peer.index()];
                let facing = placement.rot.apply_dir(port);
                if peer_placement.pos != placement.pos + facing.unit() {
                    return false;
                }
                if peer_placement.rot.apply_dir(*peer_port) != facing.opposite() {
                    return false;
                }
            }
        }
        // The O(1)-maintained component bookkeeping must agree with a recount.
        let live = self.components.iter().filter(|c| c.is_some()).count();
        if live != self.live_components {
            return false;
        }
        let sum_sq: u64 = self
            .components
            .iter()
            .flatten()
            .map(|c| (c.len() * c.len()) as u64)
            .sum();
        if sum_sq != self.sum_sq_sizes {
            return false;
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Transition;

    /// A tiny protocol that bonds chains: a `Head` grabs a `Free` node through its right
    /// port (any port of the free node), making the grabbed node the new `Head`.
    struct Chain;

    #[derive(Clone, PartialEq, Debug)]
    enum C {
        Head,
        Body,
        Free,
    }

    impl Protocol for Chain {
        type State = C;

        fn initial_state(&self, node: NodeId, _n: usize) -> C {
            if node.index() == 0 {
                C::Head
            } else {
                C::Free
            }
        }

        fn transition(
            &self,
            a: &C,
            pa: Dir,
            b: &C,
            _pb: Dir,
            bonded: bool,
        ) -> Option<Transition<C>> {
            if !bonded && *a == C::Head && pa == Dir::Right && *b == C::Free {
                Some(Transition {
                    a: C::Body,
                    b: C::Head,
                    bond: true,
                })
            } else {
                None
            }
        }
    }

    #[test]
    fn initial_world() {
        let world = World::new(Chain, 4);
        assert_eq!(world.len(), 4);
        assert_eq!(world.component_count(), 4);
        assert_eq!(world.bond_count(), 0);
        assert_eq!(world.state(NodeId::new(0)), &C::Head);
        assert_eq!(world.state(NodeId::new(3)), &C::Free);
        assert!(world.check_invariants());
    }

    #[test]
    fn permissibility_of_free_nodes() {
        let world = World::new(Chain, 3);
        let a = NodeId::new(0);
        let b = NodeId::new(1);
        // Two free nodes may always interact (any ports).
        for &pa in Dim::Two.dirs() {
            for &pb in Dim::Two.dirs() {
                assert!(matches!(
                    world.permissibility(a, pa, b, pb),
                    Some(Permissibility::Merge { .. })
                ));
            }
        }
        // A node never interacts with itself, and z-ports are rejected in 2D.
        assert_eq!(world.permissibility(a, Dir::Up, a, Dir::Down), None);
        assert_eq!(world.permissibility(a, Dir::ZPlus, b, Dir::Up), None);
    }

    #[test]
    fn apply_merges_and_updates_states() {
        let mut world = World::new(Chain, 3);
        let head = NodeId::new(0);
        let free = NodeId::new(1);
        let interaction = world
            .interaction(head, Dir::Right, free, Dir::Left)
            .unwrap();
        let outcome = world.apply(&interaction);
        assert!(outcome.effective);
        assert!(outcome.bond_activated);
        assert!(outcome.merged);
        assert_eq!(world.bond_count(), 1);
        assert_eq!(world.component_count(), 2);
        assert_eq!(world.state(head), &C::Body);
        assert_eq!(world.state(free), &C::Head);
        assert!(world.check_invariants());
        // The grabbed node sits to the right of the old head in the component frame.
        assert_eq!(world.placement(free).pos, Coord::new2(1, 0));
    }

    #[test]
    fn unordered_pair_is_tried_both_ways() {
        let mut world = World::new(Chain, 2);
        let head = NodeId::new(0);
        let free = NodeId::new(1);
        // Present the pair with the free node first: the engine must still find the rule.
        let interaction = world
            .interaction(free, Dir::Left, head, Dir::Right)
            .unwrap();
        let outcome = world.apply(&interaction);
        assert!(outcome.effective);
        assert_eq!(world.state(free), &C::Head);
        assert_eq!(world.state(head), &C::Body);
    }

    #[test]
    fn ineffective_interactions_change_nothing() {
        let mut world = World::new(Chain, 3);
        let a = NodeId::new(1);
        let b = NodeId::new(2);
        let interaction = world.interaction(a, Dir::Up, b, Dir::Up).unwrap();
        let outcome = world.apply(&interaction);
        assert!(!outcome.effective);
        assert_eq!(world.bond_count(), 0);
        assert_eq!(world.component_count(), 3);
    }

    #[test]
    fn chain_growth_is_geometric() {
        let mut world = World::new(Chain, 4);
        // Grow a chain 0-1-2-3 by always bonding the current head's right port to the
        // next free node's left port.
        for k in 1..4u32 {
            let head = NodeId::new(k - 1);
            let free = NodeId::new(k);
            let interaction = world
                .interaction(head, Dir::Right, free, Dir::Left)
                .unwrap();
            let outcome = world.apply(&interaction);
            assert!(outcome.effective);
        }
        assert_eq!(world.component_count(), 1);
        assert_eq!(world.bond_count(), 3);
        assert!(world.check_invariants());
        let shape = world.shape_of(NodeId::new(0), false);
        assert!(shape.is_line(4));
        // All permissible internal pairs are the bonded ones plus nothing else effective.
        assert!(world.is_stable());
    }

    #[test]
    fn collision_prevents_merge() {
        // Build a chain 0-1-2; nodes 3..5 stay free.
        let mut world = World::new(Chain, 6);
        for k in 1..3u32 {
            let i = world
                .interaction(NodeId::new(k - 1), Dir::Right, NodeId::new(k), Dir::Left)
                .unwrap();
            assert!(world.apply(&i).effective);
        }
        assert_eq!(world.component_count(), 4);
        // Node 0's Right port already faces the occupied cell of node 1, so no other
        // component can ever attach there.
        assert_eq!(
            world.permissibility(NodeId::new(0), Dir::Right, NodeId::new(3), Dir::Left),
            None
        );
        // Side bonding against a free cell is geometrically allowed (even though the
        // protocol would not make it effective).
        assert!(world
            .permissibility(NodeId::new(1), Dir::Up, NodeId::new(4), Dir::Down)
            .is_some());
        // A pair of nodes inside the chain that are not adjacent may not interact: no
        // elasticity, unlike the abstract Network Constructors model.
        assert_eq!(
            world.permissibility(NodeId::new(0), Dir::Right, NodeId::new(2), Dir::Left),
            None
        );
    }

    /// A protocol that first bonds two free nodes and later releases the bond.
    struct BondThenRelease;

    #[derive(Clone, PartialEq, Debug)]
    enum B {
        Fresh,
        Bonded,
        Released,
    }

    impl Protocol for BondThenRelease {
        type State = B;

        fn initial_state(&self, _node: NodeId, _n: usize) -> B {
            B::Fresh
        }

        fn transition(
            &self,
            a: &B,
            _pa: Dir,
            b: &B,
            _pb: Dir,
            bonded: bool,
        ) -> Option<Transition<B>> {
            match (a, b, bonded) {
                (B::Fresh, B::Fresh, false) => Some(Transition {
                    a: B::Bonded,
                    b: B::Bonded,
                    bond: true,
                }),
                (B::Bonded, B::Bonded, true) => Some(Transition {
                    a: B::Released,
                    b: B::Released,
                    bond: false,
                }),
                _ => None,
            }
        }
    }

    #[test]
    fn bond_deactivation_splits_component() {
        let mut world = World::new(BondThenRelease, 2);
        let a = NodeId::new(0);
        let b = NodeId::new(1);
        let i = world.interaction(a, Dir::Right, b, Dir::Left).unwrap();
        assert!(world.apply(&i).merged);
        assert_eq!(world.component_count(), 1);
        let i = world.interaction(a, Dir::Right, b, Dir::Left).unwrap();
        assert_eq!(i.permissibility, Permissibility::Bonded);
        let outcome = world.apply(&i);
        assert!(outcome.bond_deactivated);
        assert!(outcome.split);
        assert_eq!(world.component_count(), 2);
        assert_eq!(world.bond_count(), 0);
        assert!(world.check_invariants());
        assert!(world.is_stable());
    }

    #[test]
    fn output_shape_filters_non_output_states() {
        struct OnlyHeadOutputs;
        impl Protocol for OnlyHeadOutputs {
            type State = C;
            fn initial_state(&self, node: NodeId, n: usize) -> C {
                Chain.initial_state(node, n)
            }
            fn transition(
                &self,
                a: &C,
                pa: Dir,
                b: &C,
                pb: Dir,
                bonded: bool,
            ) -> Option<Transition<C>> {
                Chain.transition(a, pa, b, pb, bonded)
            }
            fn is_output(&self, state: &C) -> bool {
                matches!(state, C::Head | C::Body)
            }
        }
        let mut world = World::new(OnlyHeadOutputs, 3);
        let i = world
            .interaction(NodeId::new(0), Dir::Right, NodeId::new(1), Dir::Left)
            .unwrap();
        world.apply(&i);
        // Node 2 is still Free (not an output state), so the output shape is the 2-chain.
        let shapes = world.output_shapes();
        assert_eq!(shapes.len(), 1);
        assert!(shapes[0].is_line(2));
        assert!(world.output_shape().is_line(2));
    }

    #[test]
    fn halted_nodes_do_not_interact() {
        struct HaltImmediately;
        impl Protocol for HaltImmediately {
            type State = bool; // true = halted
            fn initial_state(&self, node: NodeId, _n: usize) -> bool {
                node.index() == 0
            }
            fn transition(
                &self,
                _a: &bool,
                _pa: Dir,
                _b: &bool,
                _pb: Dir,
                _c: bool,
            ) -> Option<Transition<bool>> {
                Some(Transition {
                    a: true,
                    b: true,
                    bond: true,
                })
            }
            fn is_halted(&self, state: &bool) -> bool {
                *state
            }
        }
        let mut world = World::new(HaltImmediately, 2);
        let i = world
            .interaction(NodeId::new(0), Dir::Right, NodeId::new(1), Dir::Left)
            .unwrap();
        // Node 0 is halted, so the interaction must be ineffective.
        let outcome = world.apply(&i);
        assert!(!outcome.effective);
        assert_eq!(world.halted_nodes(), vec![NodeId::new(0)]);
        assert!(!world.all_halted());
    }
}
