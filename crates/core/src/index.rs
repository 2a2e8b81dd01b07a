//! The incremental indexes of the runtime: the *interaction index* (dirty frontier)
//! that makes stability detection and effective-pair lookup amortised `O(active)`
//! instead of `O(n² · ports²)`, and — further down in this module — the sharded
//! *permissible-pair index* that maintains exact permissible/effective pair counts for
//! the batched and sharded geometric-jump samplers.
//!
//! # Design (interaction index)
//!
//! A pair of node-ports can only *become* effective when something about one of its
//! endpoints changes: a state, the bond between the two ports, or the geometry of an
//! endpoint's component. [`crate::World::apply`] translates every delta it produces into
//! *dirty* marks on exactly the nodes whose pairs may have become effective:
//!
//! * a state change or a bond flip marks the two participants;
//! * a merge marks every *moved* node (the members of the absorbed component — the
//!   surviving component's cells only gain neighbours, which can remove permissible
//!   pairs but never create effective ones);
//! * a split marks every member of the pre-split component (both halves shrink, which
//!   can unlock merge placements for all of them).
//!
//! A stability query drains the dirty queues: each dirty node is scanned against the
//! whole population; a node is cleaned only when its scan finds nothing. Because every
//! effective pair must keep at least one dirty endpoint (or be the cached candidate from
//! a previous scan), empty queues with no valid candidate prove stability. Each dirty
//! mark is therefore paid for **once**, regardless of how often stability is queried —
//! which is what lets [`crate::Simulation::run_until_stable`] check for stability after
//! every step and stop exactly at stabilisation.
//!
//! Since the sharding refactor each shard owns its slice of the dirty frontier (one
//! queue per contiguous node-id range, drained in shard order, which at one shard is
//! byte-identical to the previous single queue), and the interior mutability that lets
//! read-only queries (`is_stable` takes `&self`) update the memoisation is a [`Mutex`]
//! plus an atomic version counter instead of the former `RefCell`/`Cell` pair — so
//! [`crate::World`] is `Sync` and concurrent read-side queries are safe.

use crate::component::{Component, DeterministicState};
use crate::ranked::RankedSet;
use crate::shard::{ShardMap, PARALLEL_FLUSH_MIN};
use crate::{Interaction, NodeId, Placement, Protocol};
use nc_geometry::{Dim, Dir};
use nc_obs::{Telemetry, TraceEventKind};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

/// Counters describing how much work the index has done (and saved).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IndexStats {
    /// Nodes marked dirty since creation (includes re-marks of already-dirty nodes).
    pub dirty_marks: u64,
    /// Full per-node scans performed while draining the dirty queues.
    pub node_scans: u64,
    /// Queries answered by revalidating the cached candidate interaction.
    pub candidate_hits: u64,
    /// Queries answered immediately by the quiescent flag (configuration known stable).
    pub quiescent_hits: u64,
}

/// The mutable part of the index (see the module docs for the invariant).
pub(crate) struct IndexState {
    /// Per-node dirty flag; `true` iff the node is in its shard's queue.
    pub(crate) dirty: Vec<bool>,
    /// Per-shard queues of nodes whose pairs must be rescanned before stability can be
    /// concluded. Drained in shard order; with one shard this is the historical single
    /// queue.
    pub(crate) queues: Vec<Vec<NodeId>>,
    /// The most recently found effective interaction; revalidated in `O(1)` before any
    /// scan work happens.
    pub(crate) candidate: Option<Interaction>,
    /// `true` once a drain proved that no effective pair exists; reset by any dirty mark.
    pub(crate) quiescent: bool,
    /// Work counters.
    pub(crate) stats: IndexStats,
}

/// Interior-mutable wrapper so `&World` queries can memoise their progress. `Sync`:
/// the drain state sits behind a [`Mutex`], the version counter is atomic.
pub(crate) struct InteractionIndex {
    inner: Mutex<IndexState>,
    /// Monotonically increasing configuration version: bumped on every observable world
    /// change so that samplers can cache derived structures (e.g. the enumerated
    /// permissible set) and invalidate them precisely. The version starts at a
    /// process-unique value (see `new`), so versions from two different worlds never
    /// collide — a scheduler driven against several worlds cannot replay a cached
    /// structure into the wrong one.
    version: AtomicU64,
}

impl InteractionIndex {
    /// Creates the index for the given shard layout with every node dirty (nothing
    /// proven yet).
    pub(crate) fn new(map: ShardMap) -> InteractionIndex {
        // Disjoint per-world version ranges: each world claims a 2⁴⁰-wide window, far
        // beyond any realistic number of configuration changes.
        static NEXT_WORLD: AtomicU64 = AtomicU64::new(0);
        let base = NEXT_WORLD.fetch_add(1, Ordering::Relaxed) << 40;
        let n: usize = (0..map.count()).map(|s| map.range(s).len()).sum();
        let queues = (0..map.count())
            .map(|s| map.range(s).map(|i| NodeId::new(i as u32)).collect())
            .collect();
        InteractionIndex {
            inner: Mutex::new(IndexState {
                dirty: vec![true; n],
                queues,
                candidate: None,
                quiescent: false,
                stats: IndexStats::default(),
            }),
            version: AtomicU64::new(base),
        }
    }

    /// The current configuration version.
    pub(crate) fn version(&self) -> u64 {
        self.version.load(Ordering::Relaxed)
    }

    /// Records an observable world change (invalidates samplers' caches).
    pub(crate) fn bump_version(&self) {
        self.version.fetch_add(1, Ordering::Relaxed);
    }

    /// Marks a node dirty in its shard's queue: some pair involving it may have become
    /// effective.
    pub(crate) fn mark_dirty(&self, map: ShardMap, node: NodeId) {
        let mut state = self.lock();
        state.stats.dirty_marks += 1;
        state.quiescent = false;
        if !state.dirty[node.index()] {
            state.dirty[node.index()] = true;
            state.queues[map.shard_of(node)].push(node);
        }
    }

    /// Exclusive access to the drain state for the scan loop in `World`.
    pub(crate) fn lock(&self) -> MutexGuard<'_, IndexState> {
        crate::lock::relock(&self.inner)
    }

    /// A snapshot of the work counters.
    pub(crate) fn stats(&self) -> IndexStats {
        self.lock().stats
    }
}

// =======================================================================================
// The sharded incremental permissible-pair index
// =======================================================================================
//
// While the dirty-frontier index above answers "does *some* effective pair exist?",
// the batched and sharded samplers need the exact *counts* of permissible and effective
// pairs of a frozen configuration — and the ability to draw uniformly from either set —
// without re-enumerating `O(n²·ports²)` candidates per configuration version. The
// [`PairIndex`] below maintains those counts in `O(changed)` per world delta, fed from
// the same delta stream that feeds the dirty frontier (state writes, bond flips,
// merges, splits).
//
// # Decomposition
//
// The permissible set splits into classes whose sizes are maintainable exactly:
//
// 1. **Intra-component pairs** (bonded, or facing-adjacent in the same component):
//    purely local — whether `(x, pa)` participates depends only on `x`'s links and the
//    occupancy of the single cell its port faces. Stored as canonical pair keys in a
//    blocked rank bucket (below) of the shard owning the pair's smaller endpoint.
// 2. **Multi-component node × free singleton**: a port of a node in a ≥2-node component
//    whose facing cell is unoccupied accepts *any* free singleton through *any* of its
//    ports (singletons are arbitrarily rotatable and have no other cells to collide),
//    so these pairs are counted as `free_ports · ports · singletons` without being
//    materialised. Effectiveness only depends on the two states and the two ports, so
//    grouping singletons (and free ports) by *state class* turns the effective count
//    into a small sum over class pairs.
// 3. **Singleton × singleton**: always permissible (any ports, a rotation always
//    exists, nothing can collide), counted as `ports² · C(s, 2)`; effectiveness again
//    per class pair.
// 4. **Multi × multi cross-component pairs**: the only class whose permissibility
//    depends on non-local geometry (collision between two rigid shapes). These are
//    *not* maintained incrementally — [`crate::World::enumerate_cross_multi`]
//    enumerates them per frozen version under a budget, and the caller falls back to
//    rejection sampling when the budget is exceeded. In the growth workloads this
//    index optimises (one growing component absorbing free nodes) this class is empty.
//
// Exactness of the merge case is worth spelling out: when a component grows, pairs
// anchored at its *unmoved* members can silently lose permissibility (the new cells
// block previously valid placements), which is why class 4 cannot ride the dirty
// stream. Classes 1–3 are immune: intra adjacency is rigid under merges, and the
// singleton classes only depend on the facing cell of one port — the world marks the
// neighbours of every newly inserted cell as touched, which is exactly the set whose
// free-port flags can flip.
//
// # Sharded layout and the shared class-count aggregate
//
// Registrations are split by node across **shards** (contiguous id ranges,
// [`ShardMap`]): each shard owns the singleton/free-port buckets of its nodes (per
// state class) and the canonical keys of the intra pairs whose smaller endpoint it
// owns. On top of the per-shard sub-indices one **shared aggregate** keeps,
// per state class, the population-wide bucket sizes (`g[class][port]`, `s[class]`) and
// a running total of the effective pair count, updated with an exact `O(classes·ports)`
// delta on every single registration change — the "sum of per-shard rates" the sharded
// sampler composes its geometric jumps from. Class-pair effectiveness lives in dense
// tables (`effmask[x][pa][c]`, `epc[x][c]`), so both the delta maintenance and the
// uniform sampling walk touch plain arrays, never a hash map.
//
// Every reader of the dense tables looks at column `c` only while class `c` holds a
// free singleton (`s[c] > 0`), and at `epc[x][c]` only while both classes do. So the
// tables are filled by **column**, lazily: the first time a class registers a
// singleton, its column is filled against every live class and its `epc` entries
// against every other column-filled class; a class that becomes live (allocation, or
// a rollback resurrecting a freed slot) fills only its row against the column-filled
// classes. The invariant — every live class with `s > 0` is column-filled, and every
// filled entry equals a fresh evaluation of the two class states — is checked by
// [`PairIndex::check_sharding`]. A class that never holds a singleton (the counting
// leader, which rides a multi-node component) costs one row against the few singleton
// classes instead of a row and a column against every live class. Filled entries are
// a pure function of the live class states, so the lazy fill cannot move a draw.
//
// # Blocked rank buckets
//
// Every bucket and key list is a [`RankedSet`]: a sorted sequence cut into blocks of
// fewer than `2·B` entries (a full block splits in half, an empty one is dropped).
// A registration change binary-searches the block list and shifts entries inside one
// block, so its cost does not grow with the bucket (one sorted array would pay an
// `O(bucket)` memmove per change, and a bucket can hold most of the population).
// Rank queries (`kth_singleton`, `kth_free_port`, the intra segment of the sampling
// walks) walk the block lengths and answer in the bucket's sorted order, exactly as
// a single sorted `Vec` would; the block layout is invisible to every sampler, so
// trajectories and checkpoint bytes do not depend on it (`tests/trajectory_pins.rs`).
//
// # Shard-count invariance (the parallel-equivalence property)
//
// Every ordering the samplers can observe is canonical in the *configuration*, not in
// the shard layout:
//
// * per-shard buckets and key lists are ranked in sorted order, and shards are
//   contiguous id ranges, so concatenating them in shard order yields the global
//   sorted order for any shard count;
// * state-class ids are allocated in the order classes are first seen, and nodes are
//   re-derived in ascending id order (`World::flush_pairs` sorts its batch), so the
//   class table is identical for any shard count;
// * the uniform draws map an index `idx ∈ 0..E` through a deterministic cell walk
//   (intra keys, then class-2 cells, then class-3 cells, in class/port order) with
//   arithmetic decomposition inside each cell — no storage-order-dependent choice
//   remains.
//
// Hence an execution driven by a seeded scheduler is byte-identical across 1, 2 or 4
// shards — the property `tests/sharded.rs` pins.
//
// The pre-existing full enumeration ([`crate::World::enumerate_permissible`]) is kept
// as the validation oracle; [`crate::World::validate_pair_index`] compares the
// recounted totals, the incrementally maintained aggregate and the exact effective
// sets after arbitrary delta sequences.

/// Hard cap on simultaneously *live* state classes. Protocols whose live state
/// diversity exceeds this (e.g. universal TM constructors) overflow the index, which
/// permanently falls back to the adaptive sampler — a soundness valve, not an error.
pub const CLASS_CAP: usize = 64;

/// Ports per node in the widest (3D) model; dense per-class tables are sized by it.
const PORT_CAP: usize = 6;

/// Sentinel for "not a member" positions.
const NONE: u32 = u32::MAX;

/// Packs an unordered node-port pair into a canonical `u64` key. The smaller
/// `(node, port)` endpoint occupies the high bits, so sorting keys sorts by owner node
/// — which is what makes per-shard sorted key lists concatenate into the global sorted
/// order (shards are contiguous id ranges).
pub(crate) fn pair_key(a: NodeId, pa: Dir, b: NodeId, pb: Dir) -> u64 {
    // Node ids get 24 bits each; beyond that the keys would alias silently.
    debug_assert!(
        a.index() < (1 << 24) && b.index() < (1 << 24),
        "pair keys support at most 2^24 nodes"
    );
    let (lo, hi) = if (a.index(), pa.index()) <= (b.index(), pb.index()) {
        ((a, pa), (b, pb))
    } else {
        ((b, pb), (a, pa))
    };
    ((lo.0.index() as u64) << 40)
        | ((lo.1.index() as u64) << 32)
        | ((hi.0.index() as u64) << 8)
        | hi.1.index() as u64
}

fn unpack_key(key: u64) -> (NodeId, Dir, NodeId, Dir) {
    (
        NodeId::new(((key >> 40) & 0xFF_FFFF) as u32),
        Dir::from_index(((key >> 32) & 0xFF) as usize),
        NodeId::new(((key >> 8) & 0xFF_FFFF) as u32),
        Dir::from_index((key & 0xFF) as usize),
    )
}

/// The smaller endpoint of a canonical pair key (decides the owning shard).
fn key_owner(key: u64) -> NodeId {
    NodeId::new(((key >> 40) & 0xFF_FFFF) as u32)
}

/// A read-only view of the world geometry the pair index derives its entries from.
/// Bundled so the index can live beside the `World` fields it reads without borrow
/// conflicts; `Sync` (all fields are shared slices), so the flush can fan the
/// geometry derivation out across shards.
pub(crate) struct GeomView<'a, S> {
    pub(crate) dim: Dim,
    pub(crate) states: &'a [S],
    pub(crate) halted: &'a [bool],
    pub(crate) comp_of: &'a [usize],
    pub(crate) components: &'a [Option<Component>],
    pub(crate) placements: &'a [Placement],
    pub(crate) links: &'a [[Option<(NodeId, Dir)>; 6]],
}

impl<S> GeomView<'_, S> {
    fn comp(&self, x: NodeId) -> &Component {
        self.components[self.comp_of[x.index()]]
            .as_ref()
            .expect("component slot of a live node must be occupied")
    }

    fn is_singleton(&self, x: NodeId) -> bool {
        self.comp(x).len() == 1
    }

    /// Whether the cell faced by `x`'s port `pa` is unoccupied in `x`'s component.
    fn port_free(&self, x: NodeId, pa: Dir) -> bool {
        let pl = self.placements[x.index()];
        let target = pl.pos + pl.rot.apply_dir(pa).unit();
        !self.comp(x).is_occupied(target)
    }

    /// The intra-component pair `x`'s port `pa` currently participates in, if any:
    /// the bonded peer, or the same-component node whose facing cell it touches.
    fn intra_entry_at(&self, x: NodeId, pa: Dir) -> Option<IntraEntry> {
        if let Some((peer, pport)) = self.links[x.index()][pa.index()] {
            return Some(IntraEntry {
                peer,
                pport,
                bonded: true,
            });
        }
        let pl = self.placements[x.index()];
        let facing = pl.rot.apply_dir(pa);
        let target = pl.pos + facing.unit();
        let peer = self.comp(x).node_at(target)?;
        let pport = self.placements[peer.index()]
            .rot
            .inverse()
            .apply_dir(facing.opposite());
        Some(IntraEntry {
            peer,
            pport,
            bonded: false,
        })
    }
}

/// One intra-component pair as seen from one of its endpoints.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct IntraEntry {
    peer: NodeId,
    pport: Dir,
    bonded: bool,
}

/// The geometry-derived facts a re-derivation of one node needs: computed read-only
/// (and therefore in parallel across shards when a flush batch is large), applied to
/// the index sequentially in ascending node order.
struct NodeFacts {
    singleton: bool,
    /// Bit `p` set ⇔ the node is multi-component and its port `p` faces a free cell.
    free_mask: u8,
    intra: [Option<IntraEntry>; 6],
}

fn derive_facts<S>(view: &GeomView<'_, S>, x: NodeId) -> NodeFacts {
    let singleton = view.is_singleton(x);
    let mut free_mask = 0u8;
    let mut intra = [None; 6];
    for &pa in view.dim.dirs() {
        if !singleton && view.port_free(x, pa) {
            free_mask |= 1 << pa.index();
        }
        intra[pa.index()] = view.intra_entry_at(x, pa);
    }
    NodeFacts {
        singleton,
        free_mask,
        intra,
    }
}

/// A live state class of the shared class table.
struct ClassSlot<S> {
    state: S,
    halted: bool,
    /// Number of nodes registered with this class (frees the slot at zero).
    refs: u32,
}

/// Exact base counts of the frozen configuration, excluding multi×multi cross pairs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct BaseCounts {
    /// Permissible pairs in classes 1–3 of the decomposition.
    pub(crate) permissible: u64,
    /// Effective pairs in classes 1–3.
    pub(crate) effective: u64,
}

/// One shard's sub-index: the registrations of its contiguous node-id range, every
/// bucket a [`RankedSet`] so shard-order concatenation is the global canonical order.
#[derive(Default)]
struct Shard {
    /// Canonical keys of the intra pairs whose smaller endpoint this shard owns.
    intra: RankedSet<u64>,
    /// The effective subset of `intra`.
    intra_eff: RankedSet<u64>,
    /// Per state class: this shard's free singletons, ascending by node id.
    singletons: Vec<RankedSet<NodeId>>,
    /// Per state class and port: this shard's multi-component nodes in that state whose
    /// port faces a free cell, ascending by node id.
    free_ports: Vec<[RankedSet<NodeId>; 6]>,
}

/// The bucket of a class a shard has never registered.
static EMPTY_BUCKET: RankedSet<NodeId> = RankedSet::new();

impl Shard {
    fn singleton_bucket(&self, class: u32) -> &RankedSet<NodeId> {
        self.singletons.get(class as usize).unwrap_or(&EMPTY_BUCKET)
    }

    fn free_bucket(&self, class: u32, pa: Dir) -> &RankedSet<NodeId> {
        self.free_ports
            .get(class as usize)
            .map_or(&EMPTY_BUCKET, |ports| &ports[pa.index()])
    }

    fn singleton_bucket_mut(&mut self, class: u32) -> &mut RankedSet<NodeId> {
        if self.singletons.len() <= class as usize {
            self.singletons
                .resize_with(class as usize + 1, RankedSet::new);
        }
        &mut self.singletons[class as usize]
    }

    fn free_bucket_mut(&mut self, class: u32, pa: Dir) -> &mut RankedSet<NodeId> {
        if self.free_ports.len() <= class as usize {
            self.free_ports
                .resize_with(class as usize + 1, Default::default);
        }
        &mut self.free_ports[class as usize][pa.index()]
    }
}

/// Inserts into a sorted vector (no-op when present); returns whether it was new. Used
/// for the short `live_ids` list only; the buckets are [`RankedSet`]s.
fn sorted_insert<T: Ord + Copy>(list: &mut Vec<T>, value: T) -> bool {
    match list.binary_search(&value) {
        Ok(_) => false,
        Err(at) => {
            list.insert(at, value);
            true
        }
    }
}

/// Removes from a sorted vector; returns whether it was present.
fn sorted_remove<T: Ord + Copy>(list: &mut Vec<T>, value: T) -> bool {
    match list.binary_search(&value) {
        Ok(at) => {
            list.remove(at);
            true
        }
        Err(_) => false,
    }
}

/// One undoable mutation of the pair index, appended to the operation log while a
/// [`crate::World`] checkpoint is open. Every variant names the *registration-level*
/// primitive that ran (not the slot it touched), so the undo in
/// [`PairIndex::rollback_ops`] can call the symmetric primitive — which replays the
/// exact aggregate-delta formulas (`free_port_rate`, `singleton_class*_rate`) at the
/// exact totals they were originally evaluated against, keeping the running
/// `class2_eff`/`class3_eff` aggregates bit-exact under rollback.
pub(crate) enum IndexOp<S> {
    /// `register_singleton(class, x)` ran.
    RegSingleton { x: NodeId, class: u32 },
    /// `drop_singleton_reg(x)` removed a registration of `class`.
    DropSingleton { x: NodeId, class: u32 },
    /// `register_free_port(class, x, pa)` ran.
    RegFreePort { x: NodeId, pa: Dir, class: u32 },
    /// `drop_free_port_reg(x, pa)` removed a registration of `class`.
    DropFreePort { x: NodeId, pa: Dir, class: u32 },
    /// `key` was inserted into its shard's intra list.
    IntraInsert { key: u64 },
    /// `key` was removed from its shard's intra list.
    IntraRemove { key: u64 },
    /// `key` was inserted into its shard's effective-intra list.
    IntraEffInsert { key: u64 },
    /// `key` was removed from its shard's effective-intra list.
    IntraEffRemove { key: u64 },
    /// `intra[x][pa]` was overwritten; `old` is the previous cell value.
    IntraCell {
        x: NodeId,
        pa: Dir,
        old: Option<IntraEntry>,
    },
    /// `node_class[x]` was overwritten.
    NodeClass { x: NodeId, old: u32 },
    /// `classes[class].refs` was incremented (class-switch re-registration).
    RefsInc { class: u32 },
    /// `class_for` allocated a fresh class slot (`reused_slot`: popped from the free
    /// list rather than pushed).
    AllocClass { class: u32, reused_slot: bool },
    /// `release_class(class)` decremented the refcount without freeing the slot.
    ReleaseDec { class: u32 },
    /// `release_class(class)` freed the slot; `state`/`halted` restore it.
    ReleaseFree { class: u32, state: S, halted: bool },
}

/// The sharded incremental permissible-pair index. See the section comment above for
/// the decomposition, the shared aggregate and the shard-count-invariance argument.
pub(crate) struct PairIndex<S> {
    map: ShardMap,
    shards: Vec<Shard>,
    /// Class id each node is registered under (`NONE` before `build`).
    node_class: Vec<u32>,
    /// Whether the node is registered as a free singleton.
    reg_singleton: Vec<bool>,
    /// Bit `p` set ⇔ the node is registered as a free port on `p`.
    reg_free: Vec<u8>,
    /// Per node-port: the intra-component pair the port participates in.
    intra: Vec<[Option<IntraEntry>; 6]>,
    /// The shared class table.
    classes: Vec<Option<ClassSlot<S>>>,
    free_class_slots: Vec<u32>,
    /// Live class ids, ascending — the canonical cell-walk order.
    live_ids: Vec<u32>,
    // --- the shared class-count aggregate -------------------------------------------
    /// Per class and port: population-wide free-port bucket size (Σ over shards).
    g: Vec<[u64; PORT_CAP]>,
    /// Per class: population-wide singleton count (Σ over shards).
    s: Vec<u64>,
    free_total: u64,
    singleton_total: u64,
    intra_total: u64,
    intra_eff_total: u64,
    /// Running effective count of class 2 (free port × singleton) pairs.
    class2_eff: u64,
    /// Running effective count of class 3 (singleton × singleton) pairs.
    class3_eff: u64,
    /// Dense per-(class, port, class) bitmask over the peer port: bit `pb` set ⇔ an
    /// unbonded cross pair of those states/ports is effective. Valid in the columns of
    /// `filled` classes only (see the section comment); lets the aggregate deltas and
    /// the sampling walk avoid hashing.
    effmask: Vec<u8>,
    /// Dense per-class-pair count of effective ordered port pairs (`Σ popcount`),
    /// valid where both classes are in `filled`.
    epc: Vec<u16>,
    /// Bit `c` set ⇔ class `c` is live and its column of `effmask` (and its `epc`
    /// entries against the other filled classes) is filled. Set by the first singleton
    /// registration of the class, cleared when the class leaves the live set.
    filled: u64,
    /// Effectiveness memo for the *recount* path ([`PairIndex::counts`]), kept
    /// hash-based and independent of the dense tables so the two computations
    /// cross-validate each other.
    memo: HashMap<u64, bool, DeterministicState>,
    /// Undo log of registration-level mutations, appended while `logging` (i.e. while
    /// a world checkpoint is open). Positions into it are recorded by the world's
    /// epoch frames; `rollback_ops` unwinds a suffix.
    oplog: Vec<IndexOp<S>>,
    logging: bool,
    /// Telemetry handle shared with the owning world (disabled by default): class
    /// allocations/retirements are sampler-visible, deterministic events — they
    /// happen only on the strictly sequential `apply_facts` path of a flush, in
    /// ascending node order — and are worth a step-indexed trace entry each.
    obs: Telemetry,
}

/// Raised when the live class count exceeds [`CLASS_CAP`]; the world then abandons the
/// index for the rest of the execution.
pub(crate) struct ClassOverflow;

impl<S: Clone + PartialEq + Sync> PairIndex<S> {
    pub(crate) fn new(map: ShardMap) -> PairIndex<S> {
        PairIndex {
            map,
            shards: Vec::new(),
            node_class: Vec::new(),
            reg_singleton: Vec::new(),
            reg_free: Vec::new(),
            intra: Vec::new(),
            classes: Vec::new(),
            free_class_slots: Vec::new(),
            live_ids: Vec::new(),
            g: Vec::new(),
            s: Vec::new(),
            free_total: 0,
            singleton_total: 0,
            intra_total: 0,
            intra_eff_total: 0,
            class2_eff: 0,
            class3_eff: 0,
            effmask: Vec::new(),
            epc: Vec::new(),
            filled: 0,
            memo: HashMap::default(),
            oplog: Vec::new(),
            logging: false,
            obs: Telemetry::disabled(),
        }
    }

    /// Attaches the world's telemetry handle (see the `obs` field docs).
    pub(crate) fn set_telemetry(&mut self, obs: Telemetry) {
        self.obs = obs;
    }

    /// Appends an operation if logging is enabled (the hot-path guard).
    #[inline]
    fn log(&mut self, op: impl FnOnce() -> IndexOp<S>) {
        if self.logging {
            self.oplog.push(op());
        }
    }

    /// Enables/disables the operation log (driven by the world's checkpoint stack).
    pub(crate) fn set_logging(&mut self, on: bool) {
        self.logging = on;
    }

    /// Whether the operation log is currently being appended to.
    pub(crate) fn is_logging(&self) -> bool {
        self.logging
    }

    /// Current length of the operation log.
    pub(crate) fn oplog_len(&self) -> usize {
        self.oplog.len()
    }

    /// Discards the operation log.
    pub(crate) fn clear_oplog(&mut self) {
        self.oplog.clear();
    }

    /// Builds the index from scratch for the current configuration.
    pub(crate) fn build<P: Protocol<State = S>>(
        &mut self,
        view: &GeomView<'_, S>,
        protocol: &P,
    ) -> Result<(), ClassOverflow> {
        let n = view.states.len();
        let map = self.map;
        let obs = self.obs.clone();
        *self = PairIndex::new(map);
        self.obs = obs;
        self.shards = (0..map.count()).map(|_| Shard::default()).collect();
        self.node_class = vec![NONE; n];
        self.reg_singleton = vec![false; n];
        self.reg_free = vec![0; n];
        self.intra = vec![[None; 6]; n];
        self.g = vec![[0; PORT_CAP]; CLASS_CAP];
        self.s = vec![0; CLASS_CAP];
        self.effmask = vec![0; CLASS_CAP * PORT_CAP * CLASS_CAP];
        self.epc = vec![0; CLASS_CAP * CLASS_CAP];
        let all: Vec<NodeId> = (0..n as u32).map(NodeId::new).collect();
        self.flush_batch(view, protocol, &all)
    }

    /// Drops every registration (after an overflow: the index stays unusable).
    pub(crate) fn clear(&mut self) {
        let obs = self.obs.clone();
        *self = PairIndex::new(self.map);
        self.obs = obs;
    }

    /// The pinned class-table layout for a snapshot: per slot the live class's state
    /// (`None` for freed slots awaiting reuse) plus the free-slot stack in pop order.
    /// Class ids are allocation-history dependent (freed slots are reused LIFO) and
    /// the canonical sampling walks iterate live ids in ascending order, so a resumed
    /// run must reproduce this layout exactly, not just an equivalent one.
    pub(crate) fn snapshot_class_layout(&self) -> (Vec<Option<S>>, Vec<u32>) {
        let slots = self
            .classes
            .iter()
            .map(|slot| slot.as_ref().map(|class| class.state.clone()))
            .collect();
        (slots, self.free_class_slots.clone())
    }

    /// Rebuilds the index from scratch for the current configuration while pinning
    /// the class table to a snapshot's layout: the slots are pre-seeded (with zero
    /// refcounts and recomputed halted flags) so that `class_for` resolves every node
    /// to its snapshot-time class id by state equality, and the free-slot stack is
    /// restored in pop order. Registering the whole population then rebuilds the
    /// refcounts, the per-shard buckets and the running aggregates exactly.
    ///
    /// # Errors
    /// A static description when the layout is internally inconsistent or does not
    /// cover the configuration's states (the decoder maps it into
    /// [`crate::CoreError::SnapshotCorrupt`]); the index is left cleared.
    pub(crate) fn restore_pinned<P: Protocol<State = S>>(
        &mut self,
        view: &GeomView<'_, S>,
        protocol: &P,
        slots: Vec<Option<S>>,
        free_slots: Vec<u32>,
    ) -> Result<(), &'static str> {
        if slots.len() > CLASS_CAP {
            return Err("class table exceeds the class cap");
        }
        // The free stack must list exactly the empty slots, each once.
        let mut freed = vec![false; slots.len()];
        for &id in &free_slots {
            let Some(flag) = freed.get_mut(id as usize) else {
                return Err("free class slot out of range");
            };
            if *flag {
                return Err("free class slot listed twice");
            }
            *flag = true;
        }
        for (slot, &free) in slots.iter().zip(&freed) {
            if slot.is_none() != free {
                return Err("free-slot stack disagrees with the slot list");
            }
        }
        // `class_for` resolves nodes by state equality against ascending live ids:
        // duplicate states would alias two pinned ids (and can never arise in a
        // genuine run, which allocates a class only when no live one matches).
        let live_states: Vec<&S> = slots.iter().flatten().collect();
        for (i, a) in live_states.iter().enumerate() {
            if live_states.iter().skip(i + 1).any(|b| **a == **b) {
                return Err("two live classes share one state");
            }
        }
        let n = view.states.len();
        let map = self.map;
        let obs = self.obs.clone();
        *self = PairIndex::new(map);
        self.obs = obs;
        self.shards = (0..map.count()).map(|_| Shard::default()).collect();
        self.node_class = vec![NONE; n];
        self.reg_singleton = vec![false; n];
        self.reg_free = vec![0; n];
        self.intra = vec![[None; 6]; n];
        self.g = vec![[0; PORT_CAP]; CLASS_CAP];
        self.s = vec![0; CLASS_CAP];
        self.effmask = vec![0; CLASS_CAP * PORT_CAP * CLASS_CAP];
        self.epc = vec![0; CLASS_CAP * CLASS_CAP];
        self.classes = slots
            .into_iter()
            .map(|slot| {
                slot.map(|state| ClassSlot {
                    halted: protocol.is_halted(&state),
                    state,
                    refs: 0,
                })
            })
            .collect();
        self.free_class_slots = free_slots;
        self.live_ids = (0..self.classes.len() as u32)
            .filter(|&id| self.classes[id as usize].is_some())
            .collect();
        // No column is filled yet, so the seeded classes need no rows: registering the
        // population fills each singleton class's column against all of them.
        let pinned_live = self.live_ids.clone();
        let pinned_free = self.free_class_slots.clone();
        let pinned_len = self.classes.len();
        let all: Vec<NodeId> = (0..n as u32).map(NodeId::new).collect();
        if self.flush_batch(view, protocol, &all).is_err() {
            self.clear();
            return Err("class table overflowed while re-registering the population");
        }
        // Registration must not have disturbed the pinned layout: every node found
        // its class in the table (no fresh allocation popped the free stack or grew
        // the slot list), and every pinned class is actually referenced.
        if self.live_ids != pinned_live
            || self.free_class_slots != pinned_free
            || self.classes.len() != pinned_len
        {
            self.clear();
            return Err("node states do not match the pinned class table");
        }
        if self.live_ids.iter().any(|&id| self.class(id).refs == 0) {
            self.clear();
            return Err("pinned class has no member nodes");
        }
        Ok(())
    }

    /// Number of free singleton nodes (= singleton components).
    pub(crate) fn singleton_count(&self) -> usize {
        self.singleton_total as usize
    }

    /// The incrementally maintained aggregate counts (exact at every configuration).
    pub(crate) fn aggregate_counts(&self, dim: Dim) -> BaseCounts {
        let p = dim.port_count() as u64;
        let s = self.singleton_total;
        BaseCounts {
            permissible: self.intra_total
                + self.free_total * p * s
                + p * p * s.saturating_sub(1) * s / 2,
            effective: self.intra_eff_total + self.class2_eff + self.class3_eff,
        }
    }

    /// Re-derives a batch of nodes (ascending, deduplicated). When the batch is large
    /// the geometry derivation fans out to one task per shard on the vendored pool —
    /// the application to the index stays sequential in ascending node order, so the
    /// resulting structures are identical to a sequential flush.
    pub(crate) fn flush_batch<P: Protocol<State = S>>(
        &mut self,
        view: &GeomView<'_, S>,
        protocol: &P,
        nodes: &[NodeId],
    ) -> Result<(), ClassOverflow> {
        debug_assert!(
            nodes.windows(2).all(|w| w[0] < w[1]),
            "batch must be sorted"
        );
        if nodes.len() >= PARALLEL_FLUSH_MIN && self.map.count() > 1 {
            // Contiguous shard ranges + sorted batch ⇒ the batch splits into per-shard
            // runs whose concatenation is the original order.
            let map = self.map;
            let mut parts: Vec<&[NodeId]> = Vec::with_capacity(map.count());
            let mut rest = nodes;
            for shard in 0..map.count() {
                let end = rest.partition_point(|&x| map.shard_of(x) <= shard);
                let (part, tail) = rest.split_at(end);
                parts.push(part);
                rest = tail;
            }
            let mut facts: Vec<Vec<NodeFacts>> = parts
                .iter()
                .map(|part| Vec::with_capacity(part.len()))
                .collect();
            rayon::scope(|scope| {
                for (part, out) in parts.iter().zip(facts.iter_mut()) {
                    scope.spawn(move |_| {
                        out.extend(part.iter().map(|&x| derive_facts(view, x)));
                    });
                }
            });
            for (part, shard_facts) in parts.iter().zip(facts) {
                for (&x, f) in part.iter().zip(shard_facts) {
                    self.apply_facts(view, protocol, x, &f)?;
                }
            }
            Ok(())
        } else {
            for &x in nodes {
                self.reindex(view, protocol, x)?;
            }
            Ok(())
        }
    }

    /// Re-derives every registration of `x` from the current geometry. Idempotent; the
    /// world calls it (via [`PairIndex::flush_batch`]) for exactly the nodes a delta
    /// may have re-classified: participants, moved nodes, split members, and the
    /// neighbours of newly inserted cells.
    pub(crate) fn reindex<P: Protocol<State = S>>(
        &mut self,
        view: &GeomView<'_, S>,
        protocol: &P,
        x: NodeId,
    ) -> Result<(), ClassOverflow> {
        let facts = derive_facts(view, x);
        self.apply_facts(view, protocol, x, &facts)
    }

    fn apply_facts<P: Protocol<State = S>>(
        &mut self,
        view: &GeomView<'_, S>,
        protocol: &P,
        x: NodeId,
        facts: &NodeFacts,
    ) -> Result<(), ClassOverflow> {
        let xi = x.index();
        let dim = view.dim;
        let halted = view.halted[xi];
        let class = match self.class_for(protocol, dim, &view.states[xi], halted) {
            Ok(class) => class,
            Err(ClassOverflow) => {
                // If `x` is the sole member of its current class, that class is about
                // to be retired anyway: retiring it first frees a slot, so protocols
                // whose *steady-state* diversity sits exactly at the cap (one node
                // churning through fresh states) do not spuriously overflow.
                let old = self.node_class[xi];
                if old == NONE || self.class(old).refs > 1 {
                    return Err(ClassOverflow);
                }
                self.drop_singleton_reg(dim, x);
                for &pa in dim.dirs() {
                    self.drop_free_port_reg(x, pa);
                }
                self.log(|| IndexOp::NodeClass { x, old });
                self.node_class[xi] = NONE;
                self.release_class(old);
                self.class_for(protocol, dim, &view.states[xi], halted)?
            }
        };
        let old_class = self.node_class[xi];
        if old_class != class {
            // Memberships are keyed by class: detach them before re-registering.
            self.drop_singleton_reg(dim, x);
            for &pa in dim.dirs() {
                self.drop_free_port_reg(x, pa);
            }
            self.log(|| IndexOp::RefsInc { class });
            self.class_mut(class).refs += 1;
            self.log(|| IndexOp::NodeClass { x, old: old_class });
            self.node_class[xi] = class;
            if old_class != NONE {
                self.release_class(old_class);
            }
        }
        if facts.singleton != self.reg_singleton[xi] {
            if facts.singleton {
                self.register_singleton(protocol, dim, class, x);
            } else {
                self.drop_singleton_reg(dim, x);
            }
        }
        for &pa in dim.dirs() {
            let free = !facts.singleton && facts.free_mask & (1 << pa.index()) != 0;
            let registered = self.reg_free[xi] & (1 << pa.index()) != 0;
            if free && !registered {
                self.register_free_port(class, x, pa);
            } else if !free && registered {
                self.drop_free_port_reg(x, pa);
            }
            // Intra pair at this port.
            let desired = facts.intra[pa.index()];
            let stored = self.intra[xi][pa.index()];
            if stored != desired {
                if let Some(old) = stored {
                    self.unlink_intra(x, pa, old);
                }
                if let Some(new) = desired {
                    if let Some(stale) = self.intra[new.peer.index()][new.pport.index()] {
                        if stale.peer != x || stale.pport != pa {
                            self.unlink_intra(new.peer, new.pport, stale);
                        }
                    }
                    self.intra_cell_set(x, pa, Some(new));
                    self.intra_cell_set(
                        new.peer,
                        new.pport,
                        Some(IntraEntry {
                            peer: x,
                            pport: pa,
                            bonded: new.bonded,
                        }),
                    );
                    self.intra_insert(pair_key(x, pa, new.peer, new.pport));
                }
            }
            if let Some(entry) = self.intra[xi][pa.index()] {
                let key = pair_key(x, pa, entry.peer, entry.pport);
                let eff = !view.halted[xi]
                    && !view.halted[entry.peer.index()]
                    && crate::world::transition_effective(
                        protocol,
                        &view.states[xi],
                        pa,
                        &view.states[entry.peer.index()],
                        entry.pport,
                        entry.bonded,
                    );
                if eff {
                    self.intra_eff_insert(key);
                } else {
                    self.intra_eff_remove(key);
                }
            }
        }
        Ok(())
    }

    // --- class table -------------------------------------------------------------------

    fn class(&self, id: u32) -> &ClassSlot<S> {
        self.classes[id as usize]
            .as_ref()
            .expect("class id must be live")
    }

    fn class_mut(&mut self, id: u32) -> &mut ClassSlot<S> {
        self.classes[id as usize]
            .as_mut()
            .expect("class id must be live")
    }

    fn class_for<P: Protocol<State = S>>(
        &mut self,
        protocol: &P,
        dim: Dim,
        state: &S,
        halted: bool,
    ) -> Result<u32, ClassOverflow> {
        for &id in &self.live_ids {
            if self.class(id).state == *state {
                return Ok(id);
            }
        }
        if self.live_ids.len() == CLASS_CAP {
            return Err(ClassOverflow);
        }
        let slot = ClassSlot {
            state: state.clone(),
            halted,
            refs: 0,
        };
        let (id, reused_slot) = if let Some(id) = self.free_class_slots.pop() {
            self.classes[id as usize] = Some(slot);
            (id, true)
        } else {
            self.classes.push(Some(slot));
            (self.classes.len() as u32 - 1, false)
        };
        sorted_insert(&mut self.live_ids, id);
        self.obs.trace(0, TraceEventKind::ClassAlloc { class: id });
        self.log(|| IndexOp::AllocClass {
            class: id,
            reused_slot,
        });
        self.fill_class_row(protocol, dim, id);
        Ok(id)
    }

    /// Fills row `id` of the dense tables against every column-filled class. Called
    /// when `id` becomes live — on allocation, and when a rollback resurrects a freed
    /// class whose row a slot-reusing allocation may have overwritten. The class holds
    /// no singleton yet, so its own column stays unfilled (see
    /// [`PairIndex::fill_class_column`]) and its `epc` entries are not read.
    fn fill_class_row<P: Protocol<State = S>>(&mut self, protocol: &P, dim: Dim, id: u32) {
        debug_assert!(self.s[id as usize] == 0 && self.g[id as usize] == [0; PORT_CAP]);
        debug_assert_eq!(self.filled & (1 << id), 0, "a fresh class has no column");
        let mut columns = self.filled;
        while columns != 0 {
            let c = columns.trailing_zeros();
            columns &= columns - 1;
            for &pa in dim.dirs() {
                self.effmask[Self::mask_at(id, pa, c)] =
                    self.effective_ports(protocol, dim, id, pa, c);
            }
        }
    }

    /// Fills column `id` of `effmask` against every live class (itself included) and
    /// the `epc` entries between `id` and every column-filled class, then marks `id`
    /// filled. Called by the first singleton registration of the class, before the
    /// rates read the column; the class has no singleton yet, so no running aggregate
    /// depends on the entries being written.
    ///
    /// `transition_effective` resolves the unordered pair by trying the first-argument
    /// order first, so effectiveness is not automatically symmetric in the two
    /// (state, port) roles: the tables are stored *directionally*
    /// (`epc[x][y] = Σ eff(x, pa, y, pb)`), and every consumer picks the same canonical
    /// orientation as the recount and the sampling walks (lower live class id first).
    fn fill_class_column<P: Protocol<State = S>>(&mut self, protocol: &P, dim: Dim, id: u32) {
        debug_assert_eq!(self.s[id as usize], 0);
        for i in 0..self.live_ids.len() {
            let x = self.live_ids[i];
            for &pa in dim.dirs() {
                self.effmask[Self::mask_at(x, pa, id)] =
                    self.effective_ports(protocol, dim, x, pa, id);
            }
        }
        self.filled |= 1 << id;
        let mut columns = self.filled;
        while columns != 0 {
            let c = columns.trailing_zeros();
            columns &= columns - 1;
            self.epc[id as usize * CLASS_CAP + c as usize] = self.port_pair_count(dim, id, c);
            self.epc[c as usize * CLASS_CAP + id as usize] = self.port_pair_count(dim, c, id);
        }
    }

    /// `Σ_pa popcount(effmask[ca][pa][cb])`, read from the filled column `cb`.
    fn port_pair_count(&self, dim: Dim, ca: u32, cb: u32) -> u16 {
        dim.dirs()
            .iter()
            .map(|&pa| self.effmask[Self::mask_at(ca, pa, cb)].count_ones() as u16)
            .sum()
    }

    fn mask_at(ca: u32, pa: Dir, cb: u32) -> usize {
        (ca as usize * PORT_CAP + pa.index()) * CLASS_CAP + cb as usize
    }

    /// The `effmask` entry for `(ca, pa, cb)`, evaluated from the class states.
    fn effective_ports<P: Protocol<State = S>>(
        &self,
        protocol: &P,
        dim: Dim,
        ca: u32,
        pa: Dir,
        cb: u32,
    ) -> u8 {
        let mut mask = 0u8;
        for &pb in dim.dirs() {
            if self.raw_cross_effective(protocol, ca, pa, cb, pb) {
                mask |= 1 << pb.index();
            }
        }
        mask
    }

    /// Uncached effectiveness of an unbonded cross pair between the two classes.
    fn raw_cross_effective<P: Protocol<State = S>>(
        &self,
        protocol: &P,
        ca: u32,
        pa: Dir,
        cb: u32,
        pb: Dir,
    ) -> bool {
        let a = self.class(ca);
        let b = self.class(cb);
        !a.halted
            && !b.halted
            && crate::world::transition_effective(protocol, &a.state, pa, &b.state, pb, false)
    }

    fn release_class(&mut self, id: u32) {
        let slot = self.class_mut(id);
        slot.refs -= 1;
        if slot.refs == 0 {
            debug_assert_eq!(self.s[id as usize], 0);
            debug_assert_eq!(self.g[id as usize], [0; PORT_CAP]);
            let freed = self.classes[id as usize]
                .take()
                .expect("class id must be live");
            self.obs.trace(0, TraceEventKind::ClassRetire { class: id });
            self.log(|| IndexOp::ReleaseFree {
                class: id,
                state: freed.state,
                halted: freed.halted,
            });
            self.free_class_slots.push(id);
            sorted_remove(&mut self.live_ids, id);
            self.filled &= !(1 << id);
            // Memo entries referencing a retired class id would alias its successor.
            self.memo.retain(|&key, _| {
                (key >> 40) as u32 != id && ((key >> 8) & 0xFF_FFFF) as u32 != id
            });
        } else {
            self.log(|| IndexOp::ReleaseDec { class: id });
        }
    }

    // --- registrations and the running aggregate ---------------------------------------

    /// `Σ_{cb live} s[cb] · |{pb : eff(ca, pa, cb, pb)}|` — the class-2 effective pairs
    /// one free port on `(ca, pa)` participates in.
    fn free_port_rate(&self, ca: u32, pa: Dir) -> u64 {
        let mut sum = 0;
        for &cb in &self.live_ids {
            let sc = self.s[cb as usize];
            if sc > 0 {
                sum += sc * u64::from(self.effmask[Self::mask_at(ca, pa, cb)].count_ones());
            }
        }
        sum
    }

    /// `Σ_{ca live, pa} g[ca][pa] · |{pb : eff(ca, pa, c, pb)}|` — the class-2
    /// effective pairs one singleton of class `c` participates in.
    fn singleton_class2_rate(&self, dim: Dim, c: u32) -> u64 {
        let mut sum = 0;
        for &ca in &self.live_ids {
            for &pa in dim.dirs() {
                let ga = self.g[ca as usize][pa.index()];
                if ga > 0 {
                    sum += ga * u64::from(self.effmask[Self::mask_at(ca, pa, c)].count_ones());
                }
            }
        }
        sum
    }

    /// `Σ_{cb live} s[cb] · epc[lo][hi]` (with `(lo, hi) = (min(c, cb), max(c, cb))`) —
    /// the class-3 effective pairs one singleton of class `c` forms with the currently
    /// registered singletons, evaluated in the same canonical orientation (lower live
    /// class id takes the `pa` role) as the recount and the sampling walk, so the
    /// running aggregate stays consistent with both even for protocols whose
    /// transition table is not symmetric in the two roles.
    fn singleton_class3_rate(&self, c: u32) -> u64 {
        let mut sum = 0;
        for &cb in &self.live_ids {
            let sc = self.s[cb as usize];
            if sc > 0 {
                let (lo, hi) = (c.min(cb) as usize, c.max(cb) as usize);
                sum += sc * u64::from(self.epc[lo * CLASS_CAP + hi]);
            }
        }
        sum
    }

    fn register_singleton<P: Protocol<State = S>>(
        &mut self,
        protocol: &P,
        dim: Dim,
        class: u32,
        x: NodeId,
    ) {
        debug_assert!(!self.reg_singleton[x.index()]);
        self.log(|| IndexOp::RegSingleton { x, class });
        if self.filled & (1 << class) == 0 {
            self.fill_class_column(protocol, dim, class);
        }
        // Deltas are computed against the *pre-registration* totals: the new singleton
        // pairs with every existing free port and singleton.
        self.class2_eff += self.singleton_class2_rate(dim, class);
        self.class3_eff += self.singleton_class3_rate(class);
        self.s[class as usize] += 1;
        self.singleton_total += 1;
        let shard = self.map.shard_of(x);
        let inserted = self.shards[shard].singleton_bucket_mut(class).insert(x);
        debug_assert!(inserted);
        self.reg_singleton[x.index()] = true;
    }

    fn drop_singleton_reg(&mut self, dim: Dim, x: NodeId) {
        if !self.reg_singleton[x.index()] {
            return;
        }
        let class = self.node_class[x.index()];
        self.log(|| IndexOp::DropSingleton { x, class });
        let shard = self.map.shard_of(x);
        let removed = self.shards[shard].singleton_bucket_mut(class).remove(x);
        debug_assert!(removed);
        self.reg_singleton[x.index()] = false;
        self.s[class as usize] -= 1;
        self.singleton_total -= 1;
        // Post-removal totals: exactly the pairs the departed singleton was part of.
        self.class2_eff -= self.singleton_class2_rate(dim, class);
        self.class3_eff -= self.singleton_class3_rate(class);
    }

    fn register_free_port(&mut self, class: u32, x: NodeId, pa: Dir) {
        self.log(|| IndexOp::RegFreePort { x, pa, class });
        self.class2_eff += self.free_port_rate(class, pa);
        self.g[class as usize][pa.index()] += 1;
        self.free_total += 1;
        let shard = self.map.shard_of(x);
        let inserted = self.shards[shard].free_bucket_mut(class, pa).insert(x);
        debug_assert!(inserted);
        self.reg_free[x.index()] |= 1 << pa.index();
    }

    fn drop_free_port_reg(&mut self, x: NodeId, pa: Dir) {
        if self.reg_free[x.index()] & (1 << pa.index()) == 0 {
            return;
        }
        let class = self.node_class[x.index()];
        self.log(|| IndexOp::DropFreePort { x, pa, class });
        let shard = self.map.shard_of(x);
        let removed = self.shards[shard].free_bucket_mut(class, pa).remove(x);
        debug_assert!(removed);
        self.reg_free[x.index()] &= !(1 << pa.index());
        self.g[class as usize][pa.index()] -= 1;
        self.free_total -= 1;
        self.class2_eff -= self.free_port_rate(class, pa);
    }

    fn intra_insert(&mut self, key: u64) {
        let shard = self.map.shard_of(key_owner(key));
        if self.shards[shard].intra.insert(key) {
            self.intra_total += 1;
            self.log(|| IndexOp::IntraInsert { key });
        }
    }

    fn intra_eff_insert(&mut self, key: u64) {
        let shard = self.map.shard_of(key_owner(key));
        if self.shards[shard].intra_eff.insert(key) {
            self.intra_eff_total += 1;
            self.log(|| IndexOp::IntraEffInsert { key });
        }
    }

    fn intra_eff_remove(&mut self, key: u64) {
        let shard = self.map.shard_of(key_owner(key));
        if self.shards[shard].intra_eff.remove(key) {
            self.intra_eff_total -= 1;
            self.log(|| IndexOp::IntraEffRemove { key });
        }
    }

    /// Overwrites `intra[x][pa]`, logging the previous cell value.
    fn intra_cell_set(&mut self, x: NodeId, pa: Dir, value: Option<IntraEntry>) {
        let old = self.intra[x.index()][pa.index()];
        self.log(|| IndexOp::IntraCell { x, pa, old });
        self.intra[x.index()][pa.index()] = value;
    }

    /// Removes the stored intra pair anchored at `(x, pa)` from the lists and clears
    /// the mirror entry if it still points back.
    fn unlink_intra(&mut self, x: NodeId, pa: Dir, entry: IntraEntry) {
        let key = pair_key(x, pa, entry.peer, entry.pport);
        let shard = self.map.shard_of(key_owner(key));
        if self.shards[shard].intra.remove(key) {
            self.intra_total -= 1;
            self.log(|| IndexOp::IntraRemove { key });
        }
        self.intra_eff_remove(key);
        self.intra_cell_set(x, pa, None);
        let mirror = self.intra[entry.peer.index()][entry.pport.index()];
        if mirror.is_some_and(|m| m.peer == x && m.pport == pa) {
            self.intra_cell_set(entry.peer, entry.pport, None);
        }
    }

    /// Unwinds the operation log back to length `to`, restoring the per-shard
    /// sub-index layouts, the class table and the running aggregates to their exact
    /// values at that position.
    ///
    /// Registration ops are undone by calling the *symmetric primitive* (with logging
    /// suspended): a `register` computes its aggregate delta against pre-registration
    /// totals and a `drop` against post-removal totals, which are the same totals —
    /// so a strict-reverse replay re-evaluates every delta formula at exactly the
    /// state it originally saw, and the running `class2_eff`/`class3_eff` come back
    /// bit-exact without storing the deltas. Slot-level ops (`intra` cells,
    /// `node_class`, class alloc/release) restore the recorded old values directly;
    /// the free-slot stack inverts exactly because pushes and pops alternate with
    /// their logged counterparts under strict reverse order.
    pub(crate) fn rollback_ops<P: Protocol<State = S>>(
        &mut self,
        to: usize,
        protocol: &P,
        dim: Dim,
    ) {
        let ops = self.oplog.split_off(to);
        let was_logging = self.logging;
        self.logging = false;
        for op in ops.into_iter().rev() {
            match op {
                IndexOp::RegSingleton { x, class } => {
                    debug_assert_eq!(self.node_class[x.index()], class);
                    self.drop_singleton_reg(dim, x);
                }
                IndexOp::DropSingleton { x, class } => {
                    self.register_singleton(protocol, dim, class, x);
                }
                IndexOp::RegFreePort { x, pa, class } => {
                    debug_assert_eq!(self.node_class[x.index()], class);
                    self.drop_free_port_reg(x, pa);
                }
                IndexOp::DropFreePort { x, pa, class } => {
                    self.register_free_port(class, x, pa);
                }
                IndexOp::IntraInsert { key } => {
                    let shard = self.map.shard_of(key_owner(key));
                    let removed = self.shards[shard].intra.remove(key);
                    debug_assert!(removed);
                    self.intra_total -= 1;
                }
                IndexOp::IntraRemove { key } => {
                    let shard = self.map.shard_of(key_owner(key));
                    let inserted = self.shards[shard].intra.insert(key);
                    debug_assert!(inserted);
                    self.intra_total += 1;
                }
                IndexOp::IntraEffInsert { key } => self.intra_eff_remove(key),
                IndexOp::IntraEffRemove { key } => self.intra_eff_insert(key),
                IndexOp::IntraCell { x, pa, old } => {
                    self.intra[x.index()][pa.index()] = old;
                }
                IndexOp::NodeClass { x, old } => {
                    self.node_class[x.index()] = old;
                }
                IndexOp::RefsInc { class } => {
                    self.class_mut(class).refs -= 1;
                }
                IndexOp::AllocClass { class, reused_slot } => {
                    debug_assert_eq!(self.class(class).refs, 0);
                    let removed = sorted_remove(&mut self.live_ids, class);
                    debug_assert!(removed);
                    self.filled &= !(1 << class);
                    if reused_slot {
                        self.classes[class as usize] = None;
                        self.free_class_slots.push(class);
                    } else {
                        debug_assert_eq!(class as usize, self.classes.len() - 1);
                        self.classes.pop();
                    }
                    // Recount memoisations inserted during the epoch may reference the
                    // retired id; purge them or they would alias its next tenant (the
                    // same guard `release_class` applies on the forward path).
                    self.memo.retain(|&key, _| {
                        (key >> 40) as u32 != class && ((key >> 8) & 0xFF_FFFF) as u32 != class
                    });
                }
                IndexOp::ReleaseDec { class } => {
                    self.class_mut(class).refs += 1;
                }
                IndexOp::ReleaseFree {
                    class,
                    state,
                    halted,
                } => {
                    let top = self.free_class_slots.pop();
                    debug_assert_eq!(top, Some(class));
                    sorted_insert(&mut self.live_ids, class);
                    self.classes[class as usize] = Some(ClassSlot {
                        state,
                        halted,
                        refs: 1,
                    });
                    // A slot-reusing allocation after the release may have overwritten
                    // this id's row; refill it against the filled columns. Its column
                    // is refilled when an undone drop re-registers a singleton.
                    self.fill_class_row(protocol, dim, class);
                }
            }
        }
        self.logging = was_logging;
    }

    // --- the recount (validation twin of the aggregate) --------------------------------

    /// Memoised effectiveness of an unbonded cross pair between a node of class `ca`
    /// interacting through `pa` and a node of class `cb` through `pb`. Hash-memo based
    /// and deliberately independent of the dense `effmask` tables, so
    /// [`PairIndex::counts`] recounts cross-validate the running aggregate.
    fn cross_effective<P: Protocol<State = S>>(
        &mut self,
        protocol: &P,
        ca: u32,
        pa: Dir,
        cb: u32,
        pb: Dir,
    ) -> bool {
        let key = (u64::from(ca) << 40)
            | ((pa.index() as u64) << 32)
            | (u64::from(cb) << 8)
            | pb.index() as u64;
        if let Some(&v) = self.memo.get(&key) {
            return v;
        }
        let v = self.raw_cross_effective(protocol, ca, pa, cb, pb);
        self.memo.insert(key, v);
        v
    }

    /// Per-shard bucket sums, recomputed from the stored lists (not the aggregate).
    fn recount_bucket(&self, class: u32, port: Option<Dir>) -> u64 {
        self.shards
            .iter()
            .map(|shard| match port {
                Some(pa) => shard.free_bucket(class, pa).len() as u64,
                None => shard.singleton_bucket(class).len() as u64,
            })
            .sum()
    }

    /// Exact counts of the base classes (1–3) of the decomposition, recomputed from the
    /// per-shard lists and the hash memo in `O(classes²·ports²)`. This is the
    /// independent twin of [`PairIndex::aggregate_counts`]: the batched sampler derives
    /// its per-version counts here, and `validate` asserts both agree.
    pub(crate) fn counts<P: Protocol<State = S>>(&mut self, protocol: &P, dim: Dim) -> BaseCounts {
        let p = dim.port_count() as u64;
        let intra: u64 = self.shards.iter().map(|sh| sh.intra.len() as u64).sum();
        let intra_eff: u64 = self.shards.iter().map(|sh| sh.intra_eff.len() as u64).sum();
        let ids = self.live_ids.clone();
        let s_total: u64 = ids.iter().map(|&c| self.recount_bucket(c, None)).sum();
        let free_total: u64 = ids
            .iter()
            .flat_map(|&c| dim.dirs().iter().map(move |&pa| (c, pa)))
            .map(|(c, pa)| self.recount_bucket(c, Some(pa)))
            .sum();
        let permissible =
            intra + free_total * p * s_total + p * p * s_total.saturating_sub(1) * s_total / 2;
        let mut effective = intra_eff;
        // Class 2: multi-component free ports × singletons, by class pair.
        for &ca in &ids {
            for &pa in dim.dirs() {
                let g = self.recount_bucket(ca, Some(pa));
                if g == 0 {
                    continue;
                }
                for &cb in &ids {
                    let sc = self.recount_bucket(cb, None);
                    if sc == 0 {
                        continue;
                    }
                    for &pb in dim.dirs() {
                        if self.cross_effective(protocol, ca, pa, cb, pb) {
                            effective += g * sc;
                        }
                    }
                }
            }
        }
        // Class 3: singleton × singleton, by unordered class pair; for pairs within one
        // class the node with the smaller id takes `pa`, so each unordered interaction
        // is counted exactly once over the ordered `(pa, pb)` sweep.
        for (i, &ca) in ids.iter().enumerate() {
            let sa = self.recount_bucket(ca, None);
            if sa == 0 {
                continue;
            }
            for &cb in &ids[i..] {
                let sb = self.recount_bucket(cb, None);
                if sb == 0 {
                    continue;
                }
                let pairs = if ca == cb { sa * (sa - 1) / 2 } else { sa * sb };
                if pairs == 0 {
                    continue;
                }
                for &pa in dim.dirs() {
                    for &pb in dim.dirs() {
                        if self.cross_effective(protocol, ca, pa, cb, pb) {
                            effective += pairs;
                        }
                    }
                }
            }
        }
        BaseCounts {
            permissible,
            effective,
        }
    }

    // --- canonical uniform sampling -----------------------------------------------------

    /// The `k`-th singleton of class `c` in the global canonical order (shards in shard
    /// order; contiguous ranges make that ascending node-id order).
    fn kth_singleton(&self, c: u32, mut k: u64) -> NodeId {
        for shard in &self.shards {
            let bucket = shard.singleton_bucket(c);
            if let Some(x) = bucket.get(k as usize) {
                return x;
            }
            k -= bucket.len() as u64;
        }
        unreachable!("singleton rank exceeded the class bucket");
    }

    /// The `k`-th free port of `(c, pa)` in the global canonical order.
    fn kth_free_port(&self, c: u32, pa: Dir, mut k: u64) -> NodeId {
        for shard in &self.shards {
            let bucket = shard.free_bucket(c, pa);
            if let Some(x) = bucket.get(k as usize) {
                return x;
            }
            k -= bucket.len() as u64;
        }
        unreachable!("free-port rank exceeded the class bucket");
    }

    /// Unranks `r ∈ 0..C(s, 2)` to the `r`-th pair `(i, j)`, `i < j`, in lexicographic
    /// order over ranks `0..s`.
    fn unrank_pair(r: u64, s: u64) -> (u64, u64) {
        debug_assert!(s >= 2 && r < s * (s - 1) / 2);
        // Rows before row i hold f(i) = i·s − i(i+1)/2 pairs; invert approximately in
        // floats, then fix up exactly (the approximation is off by at most a few rows).
        let sf = s as f64;
        let mut i = (sf - 0.5 - ((sf - 0.5) * (sf - 0.5) - 2.0 * r as f64).max(0.0).sqrt())
            .floor()
            .max(0.0) as u64;
        let row_start = |i: u64| i * s - i * (i + 1) / 2;
        while i + 1 < s && row_start(i + 1) <= r {
            i += 1;
        }
        while row_start(i) > r {
            i -= 1;
        }
        let j = i + 1 + (r - row_start(i));
        debug_assert!(j < s);
        (i, j)
    }

    /// The `idx`-th effective base pair under the canonical walk order: per-shard intra
    /// keys, then class-2 cells, then class-3 cells (classes and ports ascending), with
    /// arithmetic decomposition inside each cell. The result is uniform over the
    /// effective base set when `idx` is uniform over `0..aggregate effective`, and —
    /// because every ordering involved is configuration-canonical — independent of the
    /// shard count.
    pub(crate) fn sample_effective(&self, dim: Dim, mut idx: u64) -> (NodeId, Dir, NodeId, Dir) {
        for shard in &self.shards {
            if let Some(key) = shard.intra_eff.get(idx as usize) {
                return unpack_key(key);
            }
            idx -= shard.intra_eff.len() as u64;
        }
        // Class 2 cells: free port (ca, pa) × singleton (cb, pb).
        for &ca in &self.live_ids {
            for &pa in dim.dirs() {
                let g = self.g[ca as usize][pa.index()];
                if g == 0 {
                    continue;
                }
                for &cb in &self.live_ids {
                    let sc = self.s[cb as usize];
                    if sc == 0 {
                        continue;
                    }
                    let mask = self.effmask[Self::mask_at(ca, pa, cb)];
                    if mask == 0 {
                        continue;
                    }
                    for &pb in dim.dirs() {
                        if mask & (1 << pb.index()) == 0 {
                            continue;
                        }
                        let cell = g * sc;
                        if idx < cell {
                            let x = self.kth_free_port(ca, pa, idx / sc);
                            let y = self.kth_singleton(cb, idx % sc);
                            return (x, pa, y, pb);
                        }
                        idx -= cell;
                    }
                }
            }
        }
        // Class 3 cells: singleton × singleton by unordered class pair; within one
        // class the smaller node takes `pa` (the counting convention).
        for (i, &ca) in self.live_ids.iter().enumerate() {
            let sa = self.s[ca as usize];
            if sa == 0 {
                continue;
            }
            for &cb in &self.live_ids[i..] {
                let sb = self.s[cb as usize];
                if sb == 0 {
                    continue;
                }
                let pairs = if ca == cb { sa * (sa - 1) / 2 } else { sa * sb };
                if pairs == 0 {
                    continue;
                }
                for &pa in dim.dirs() {
                    let mask = self.effmask[Self::mask_at(ca, pa, cb)];
                    if mask == 0 {
                        continue;
                    }
                    for &pb in dim.dirs() {
                        if mask & (1 << pb.index()) == 0 {
                            continue;
                        }
                        if idx < pairs {
                            return if ca == cb {
                                let (i, j) = Self::unrank_pair(idx, sa);
                                (self.kth_singleton(ca, i), pa, self.kth_singleton(ca, j), pb)
                            } else {
                                (
                                    self.kth_singleton(ca, idx / sb),
                                    pa,
                                    self.kth_singleton(cb, idx % sb),
                                    pb,
                                )
                            };
                        }
                        idx -= pairs;
                    }
                }
            }
        }
        unreachable!("sample index exceeded the effective base count");
    }

    /// The `idx`-th *permissible* base pair under the canonical walk order (intra keys,
    /// then free-port × singleton, then singleton²) — uniform over the base permissible
    /// set when `idx` is uniform, shard-count independent for the same reasons as
    /// [`PairIndex::sample_effective`].
    pub(crate) fn sample_permissible(&self, dim: Dim, mut idx: u64) -> (NodeId, Dir, NodeId, Dir) {
        for shard in &self.shards {
            if let Some(key) = shard.intra.get(idx as usize) {
                return unpack_key(key);
            }
            idx -= shard.intra.len() as u64;
        }
        let p = dim.port_count() as u64;
        let s = self.singleton_total;
        let ms = self.free_total * p * s;
        if idx < ms {
            let free_rank = idx / (p * s);
            let rem = idx % (p * s);
            let pb = dim.dirs()[(rem / s) as usize];
            let y = self.global_singleton(rem % s);
            let (x, pa) = self.global_free_port(free_rank);
            return (x, pa, y, pb);
        }
        idx -= ms;
        let pair_rank = idx / (p * p);
        let port_rank = idx % (p * p);
        let pa = dim.dirs()[(port_rank / p) as usize];
        let pb = dim.dirs()[(port_rank % p) as usize];
        let (i, j) = Self::unrank_pair(pair_rank, s);
        (self.global_singleton(i), pa, self.global_singleton(j), pb)
    }

    /// The `k`-th singleton in the canonical global order (class-major, then shard,
    /// then node id).
    fn global_singleton(&self, mut k: u64) -> NodeId {
        for &c in &self.live_ids {
            let sc = self.s[c as usize];
            if k < sc {
                return self.kth_singleton(c, k);
            }
            k -= sc;
        }
        unreachable!("singleton rank exceeded the population");
    }

    /// The `k`-th free port in the canonical global order (class-major, port, shard,
    /// node id).
    fn global_free_port(&self, mut k: u64) -> (NodeId, Dir) {
        for &c in &self.live_ids {
            for pa in 0..PORT_CAP {
                let pa = Dir::from_index(pa);
                let g = self.g[c as usize][pa.index()];
                if k < g {
                    return (self.kth_free_port(c, pa, k), pa);
                }
                k -= g;
            }
        }
        unreachable!("free-port rank exceeded the registration count");
    }

    /// Expands the full effective base set (validation oracle support; `O(E)`).
    pub(crate) fn collect_effective(&self, dim: Dim) -> Vec<u64> {
        let mut out: Vec<u64> = self
            .shards
            .iter()
            .flat_map(|sh| sh.intra_eff.iter())
            .collect();
        for &ca in &self.live_ids {
            for &pa in dim.dirs() {
                if self.g[ca as usize][pa.index()] == 0 {
                    continue;
                }
                for &cb in &self.live_ids {
                    if self.s[cb as usize] == 0 {
                        continue;
                    }
                    let mask = self.effmask[Self::mask_at(ca, pa, cb)];
                    for &pb in dim.dirs() {
                        if mask & (1 << pb.index()) == 0 {
                            continue;
                        }
                        for shard_x in &self.shards {
                            for x in shard_x.free_bucket(ca, pa).iter() {
                                for shard_y in &self.shards {
                                    for y in shard_y.singleton_bucket(cb).iter() {
                                        out.push(pair_key(x, pa, y, pb));
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        for (i, &ca) in self.live_ids.iter().enumerate() {
            if self.s[ca as usize] == 0 {
                continue;
            }
            for &cb in &self.live_ids[i..] {
                if self.s[cb as usize] == 0 {
                    continue;
                }
                for &pa in dim.dirs() {
                    let mask = self.effmask[Self::mask_at(ca, pa, cb)];
                    for &pb in dim.dirs() {
                        if mask & (1 << pb.index()) == 0 {
                            continue;
                        }
                        for shard_y in &self.shards {
                            for y in shard_y.singleton_bucket(ca).iter() {
                                for shard_z in &self.shards {
                                    for z in shard_z.singleton_bucket(cb).iter() {
                                        // Within one class the smaller id takes `pa`
                                        // (the counting convention); across classes all
                                        // ordered role assignments are distinct cells.
                                        if ca == cb && y >= z {
                                            continue;
                                        }
                                        out.push(pair_key(y, pa, z, pb));
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        out
    }

    /// Per-shard load summary: `(singletons, free ports, intra pairs)` per shard.
    pub(crate) fn shard_loads(&self) -> Vec<(usize, usize, usize)> {
        self.shards
            .iter()
            .map(|shard| {
                (
                    shard.singletons.iter().map(RankedSet::len).sum(),
                    shard
                        .free_ports
                        .iter()
                        .flat_map(|ports| ports.iter().map(RankedSet::len))
                        .sum(),
                    shard.intra.len(),
                )
            })
            .collect()
    }

    /// Structural invariants of the sharded layout: every bucket satisfies the
    /// [`RankedSet`] block invariants (no empty block, no block of `2·B` entries or
    /// more, `len` equal to the summed block lengths, entries strictly increasing),
    /// every entry is owned by its shard, the aggregate totals equal recounted bucket
    /// sums, and the dense tables hold their column invariant: every live class with a
    /// free singleton is column-filled, only live classes are, and every filled
    /// `effmask`/`epc` entry equals a fresh evaluation of the class states — so a stale
    /// column left by slot reuse fails here even when no draw happens to read it. Used
    /// by the validation suite.
    pub(crate) fn check_sharding<P: Protocol<State = S>>(
        &self,
        protocol: &P,
        dim: Dim,
    ) -> Result<(), String> {
        self.check_tables(protocol, dim)?;
        for (i, shard) in self.shards.iter().enumerate() {
            for list in [&shard.intra, &shard.intra_eff] {
                list.check()
                    .map_err(|e| format!("shard {i}: intra key list: {e}"))?;
            }
            for key in shard.intra.iter().chain(shard.intra_eff.iter()) {
                if self.map.shard_of(key_owner(key)) != i {
                    return Err(format!("shard {i}: foreign intra key {key:#x}"));
                }
            }
            for bucket in shard
                .singletons
                .iter()
                .chain(shard.free_ports.iter().flat_map(|p| p.iter()))
            {
                bucket
                    .check()
                    .map_err(|e| format!("shard {i}: bucket: {e}"))?;
                if bucket.iter().any(|x| self.map.shard_of(x) != i) {
                    return Err(format!("shard {i}: foreign bucket member"));
                }
            }
        }
        for &c in &self.live_ids {
            if self.recount_bucket(c, None) != self.s[c as usize] {
                return Err(format!("class {c}: singleton aggregate out of sync"));
            }
            for pa in 0..PORT_CAP {
                let pa = Dir::from_index(pa);
                if self.recount_bucket(c, Some(pa)) != self.g[c as usize][pa.index()] {
                    return Err(format!("class {c}: free-port aggregate out of sync"));
                }
            }
        }
        let intra: u64 = self.shards.iter().map(|sh| sh.intra.len() as u64).sum();
        let intra_eff: u64 = self.shards.iter().map(|sh| sh.intra_eff.len() as u64).sum();
        if intra != self.intra_total || intra_eff != self.intra_eff_total {
            return Err("intra totals out of sync".to_string());
        }
        Ok(())
    }

    /// The column invariant of the dense tables (see [`PairIndex::check_sharding`]).
    fn check_tables<P: Protocol<State = S>>(&self, protocol: &P, dim: Dim) -> Result<(), String> {
        let live = self.live_ids.iter().fold(0u64, |bits, &c| bits | 1 << c);
        if self.filled & !live != 0 {
            return Err(format!(
                "column-filled classes {:#x} are not all live",
                self.filled & !live
            ));
        }
        let filled: Vec<u32> = self
            .live_ids
            .iter()
            .copied()
            .filter(|&c| self.filled & (1 << c) != 0)
            .collect();
        for &c in &self.live_ids {
            if self.s[c as usize] > 0 && self.filled & (1 << c) == 0 {
                return Err(format!(
                    "class {c} holds singletons but its column is unfilled"
                ));
            }
        }
        for &c in &filled {
            for &x in &self.live_ids {
                for &pa in dim.dirs() {
                    let stored = self.effmask[Self::mask_at(x, pa, c)];
                    let fresh = self.effective_ports(protocol, dim, x, pa, c);
                    if stored != fresh {
                        return Err(format!(
                            "effmask[{x}][{pa:?}][{c}] is {stored:#b}, the class states give {fresh:#b}"
                        ));
                    }
                }
            }
            for &d in &filled {
                let stored = self.epc[c as usize * CLASS_CAP + d as usize];
                let mut fresh = 0u16;
                for &pa in dim.dirs() {
                    for &pb in dim.dirs() {
                        fresh += u16::from(self.raw_cross_effective(protocol, c, pa, d, pb));
                    }
                }
                if stored != fresh {
                    return Err(format!(
                        "epc[{c}][{d}] is {stored}, the class states give {fresh}"
                    ));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_map(n: usize, shards: usize) -> ShardMap {
        ShardMap::new(n, shards)
    }

    #[test]
    fn marks_deduplicate_but_count() {
        let index = InteractionIndex::new(test_map(3, 1));
        {
            let mut state = index.lock();
            state.queues.iter_mut().for_each(Vec::clear);
            state.dirty.fill(false);
            state.quiescent = true;
        }
        index.mark_dirty(test_map(3, 1), NodeId::new(1));
        index.mark_dirty(test_map(3, 1), NodeId::new(1));
        let state = index.lock();
        assert_eq!(state.queues[0], vec![NodeId::new(1)]);
        assert!(state.dirty[1] && !state.dirty[0]);
        assert!(!state.quiescent);
        assert_eq!(state.stats.dirty_marks, 2);
    }

    #[test]
    fn dirty_marks_route_to_the_owning_shard() {
        let map = test_map(8, 4);
        let index = InteractionIndex::new(map);
        {
            let mut state = index.lock();
            state.queues.iter_mut().for_each(Vec::clear);
            state.dirty.fill(false);
        }
        index.mark_dirty(map, NodeId::new(0));
        index.mark_dirty(map, NodeId::new(7));
        let state = index.lock();
        assert_eq!(state.queues[0], vec![NodeId::new(0)]);
        assert_eq!(state.queues[3], vec![NodeId::new(7)]);
        assert!(state.queues[1].is_empty() && state.queues[2].is_empty());
    }

    #[test]
    fn versions_increase() {
        let index = InteractionIndex::new(test_map(1, 1));
        let v0 = index.version();
        index.bump_version();
        assert_eq!(index.version(), v0 + 1);
    }

    #[test]
    fn pair_unranking_is_a_bijection() {
        for s in 2u64..30 {
            let mut seen = std::collections::HashSet::new();
            for r in 0..s * (s - 1) / 2 {
                let (i, j) = PairIndex::<u8>::unrank_pair(r, s);
                assert!(i < j && j < s, "s={s} r={r} gave ({i}, {j})");
                assert!(seen.insert((i, j)), "s={s}: duplicate pair ({i}, {j})");
            }
        }
    }

    #[test]
    fn sorted_insert_remove_roundtrip() {
        let mut v = Vec::new();
        assert!(sorted_insert(&mut v, 5u64));
        assert!(sorted_insert(&mut v, 1));
        assert!(sorted_insert(&mut v, 9));
        assert!(!sorted_insert(&mut v, 5));
        assert_eq!(v, vec![1, 5, 9]);
        assert!(sorted_remove(&mut v, 5));
        assert!(!sorted_remove(&mut v, 5));
        assert_eq!(v, vec![1, 9]);
    }
}
