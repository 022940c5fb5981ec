//! Bounded exhaustive exploration of interleavings — a tiny model checker.
//!
//! For small systems (a handful of processes, a bounded number of steps) it
//! is feasible to enumerate *every* schedule and check a safety predicate in
//! every reachable configuration. This provides much stronger evidence than
//! randomized testing:
//!
//! * the paper's algorithms (Figures 3–5) are checked to satisfy Validity and
//!   k-Agreement in **all** interleavings of small configurations, and
//! * deliberately under-provisioned variants (fewer registers than the lower
//!   bounds allow) are shown to have *some* interleaving that violates
//!   k-agreement — an executable companion to the Theorem 2 argument.
//!
//! States are deduplicated by a collision-resistant 128-bit [`StateKey`]
//! over the automata, the raw memory contents and the decisions taken so
//! far, which keeps the search tractable well beyond naive schedule
//! enumeration without risking an unsound prune (see
//! [`Exploration::verified`]).
//!
//! This module is the serial explorer — one path-stack depth-first search
//! for every [`ExploreConfig`] (see [`explore`]); its work-stealing
//! counterpart, which shares the [`StateKey`] dedup guarantee, lives in
//! [`parallel_explore`](crate::parallel_explore).

use crate::commutation::{orders_commute, orders_commute_after};
use crate::executor::Executor;
use crate::store::{
    decode_frontier_record, encode_frontier_record, read_segment, FrontierRecord, KeyTable,
    SegmentKind, SegmentWriter, SpillDir,
};
use sa_model::{independent, Automaton, IdRelabeling, InstanceId, Op, ProcessId, SymmetryClass};
use std::collections::hash_map::{DefaultHasher, Entry};
use std::collections::HashMap;
use std::fmt::Debug;
use std::hash::{Hash, Hasher};
use std::ops::ControlFlow;
use std::path::PathBuf;

/// Whether an explorer deduplicates reachable configurations up to
/// process-id symmetry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SymmetryMode {
    /// Every configuration is its own dedup key — the historical behavior.
    #[default]
    Off,
    /// Configurations are canonicalized up to process-id orbits before
    /// computing their [`StateKey`]: processes that the algorithm cannot
    /// distinguish may be relabeled, so one representative per orbit is
    /// explored.
    ///
    /// This is **requested**, not guaranteed: automata must opt in through
    /// [`Automaton::symmetry_class`], and a system whose automata report
    /// [`SymmetryClass::Opaque`] (or disable dedup) falls back to [`Off`]
    /// rather than prune unsoundly —
    /// [`Exploration::symmetry_applied`] records what actually happened.
    ProcessIds,
}

impl SymmetryMode {
    /// A stable label used by records and CLIs.
    pub fn label(&self) -> &'static str {
        match self {
            SymmetryMode::Off => "off",
            SymmetryMode::ProcessIds => "process-ids",
        }
    }

    /// Parses [`SymmetryMode::label`] output.
    pub fn parse(text: &str) -> Option<SymmetryMode> {
        match text {
            "off" => Some(SymmetryMode::Off),
            "process-ids" => Some(SymmetryMode::ProcessIds),
            _ => None,
        }
    }
}

/// Whether an explorer prunes commuting interleavings with sleep sets over
/// the static independence relation ([`sa_model::independent`]).
///
/// Sleep-set reduction visits **every** reachable state the plain search
/// visits — it only skips redundant *transitions* between them (the second
/// order of an independent pair), so `states_visited` and every safety
/// verdict are invariant while [`Exploration::expansions`] shrinks. It
/// composes multiplicatively with [`SymmetryMode`]: sleep masks are kept in
/// canonical process coordinates, making the combined search a sleep-set
/// traversal of the symmetry quotient graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ReductionMode {
    /// Every enabled transition of every visited state is expanded — the
    /// historical behavior.
    #[default]
    Off,
    /// Per-configuration sleep sets: once a transition has been expanded
    /// from a state, sibling orders that commute with it are skipped.
    ///
    /// This is **requested**, not guaranteed: the masks are a dedup-map
    /// payload, so searches with dedup disabled fall back to [`Off`] rather
    /// than prune unsoundly — [`Exploration::reduction_applied`] records
    /// what actually happened. (Systems of more than [`MAX_PROCESSES`]
    /// processes, the mask width, are rejected by every explorer outright.)
    SleepSets,
    /// Persistent-set selective search: each state expands only a
    /// provably sufficient subset of its enabled processes — a seed closed
    /// under the static dependency relation (see [`persistent_set`]) — so
    /// whole successor *states* are cut, not just redundant transitions.
    /// Subsumes [`SleepSets`]: sleep masks still prune the second order of
    /// commuting pairs within the persistent subset.
    ///
    /// The serial explorer pairs the selection with Flanagan–Godefroid
    /// dynamic backtracking over its path stack: on discovering (while
    /// expanding a transition) a static dependency with an earlier
    /// transition of the DFS path, the stepping process is added to that
    /// ancestor's backtrack set, which re-establishes the persistent-set
    /// condition the cheap seed may have missed. The breadth-first explorer
    /// and the adversary search, which keep no path to backtrack over,
    /// apply the cut only at states where it is locally provable (every
    /// non-member halts after its poised op — see
    /// [`persistent_set_applies`]).
    ///
    /// Same fallback contract as [`SleepSets`]: dedup off falls back to
    /// [`Off`].
    PersistentSets,
}

impl ReductionMode {
    /// A stable label used by records and CLIs.
    pub fn label(&self) -> &'static str {
        match self {
            ReductionMode::Off => "off",
            ReductionMode::SleepSets => "sleep-set",
            ReductionMode::PersistentSets => "persistent-set",
        }
    }

    /// Parses [`ReductionMode::label`] output.
    pub fn parse(text: &str) -> Option<ReductionMode> {
        match text {
            "off" => Some(ReductionMode::Off),
            "sleep-set" => Some(ReductionMode::SleepSets),
            "persistent-set" => Some(ReductionMode::PersistentSets),
            _ => None,
        }
    }
}

/// Configuration of a bounded exploration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExploreConfig {
    /// Maximum number of steps along any single execution path.
    pub max_depth: u64,
    /// Maximum number of states to visit before giving up (truncation).
    /// A state space of **exactly** `max_states` states is exhausted, not
    /// truncated: truncation means the budget ran out while unexplored
    /// work remained.
    pub max_states: u64,
    /// Whether to deduplicate states (requires hashing each state; almost
    /// always worth it).
    pub dedup: bool,
    /// Whether to deduplicate up to process-id symmetry (requires `dedup`;
    /// falls back to [`SymmetryMode::Off`] for automata that do not opt
    /// in — see [`SymmetryMode::ProcessIds`]).
    pub symmetry: SymmetryMode,
    /// Whether to prune commuting interleavings with sleep sets (requires
    /// `dedup`; falls back to [`ReductionMode::Off`] otherwise — see
    /// [`ReductionMode::SleepSets`]).
    pub reduction: ReductionMode,
    /// Whether the explorer may freeze path-stack frames to disk when the
    /// resident frames exceed [`max_resident_bytes`](Self::max_resident_bytes).
    /// A frozen frame stores only its schedule on disk (the executor state
    /// is reconstructed by deterministic replay), so the
    /// search verdict and every statistic except
    /// [`Exploration::spilled_entries`] are identical with spill on or off.
    pub spill: bool,
    /// A budget, in estimated deep bytes ([`Executor::approx_deep_bytes`]),
    /// on the resident path-stack frames. `0` means unlimited. When the
    /// budget is exceeded: with [`spill`](Self::spill) the explorer freezes
    /// the coldest half of the resident frames to disk and continues;
    /// without it the search deterministically truncates before its next
    /// new state, preserving the pending count in
    /// [`Exploration::pending_at_exit`].
    pub max_resident_bytes: u64,
}

impl Default for ExploreConfig {
    fn default() -> Self {
        ExploreConfig {
            max_depth: 60,
            max_states: 2_000_000,
            dedup: true,
            symmetry: SymmetryMode::Off,
            reduction: ReductionMode::Off,
            spill: false,
            max_resident_bytes: 0,
        }
    }
}

impl ExploreConfig {
    /// A config with the given depth bound.
    pub fn with_depth(max_depth: u64) -> Self {
        ExploreConfig {
            max_depth,
            ..ExploreConfig::default()
        }
    }
}

/// A safety violation discovered by the explorer, together with the schedule
/// that exhibits it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExploredViolation {
    /// The schedule (sequence of process ids) leading to the violation. An
    /// empty schedule means the **initial** configuration already violates
    /// the predicate.
    pub schedule: Vec<ProcessId>,
    /// A human-readable description produced by the predicate.
    pub description: String,
}

/// What [`Exploration::frontier_peak`] measures — the two explorers keep
/// fundamentally different frontiers: a DFS path depth is *not* comparable
/// to a BFS level width when sizing a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum FrontierSemantics {
    /// The serial [`explore`](crate::explore): the deepest DFS path stack,
    /// counting resident and frozen frames alike.
    #[default]
    DfsStackDepth,
    /// [`parallel_explore`](crate::parallel_explore): the widest
    /// breadth-first level awaiting expansion.
    BfsLevelWidth,
}

impl FrontierSemantics {
    /// A stable label used by records and summaries.
    pub fn label(&self) -> &'static str {
        match self {
            FrontierSemantics::DfsStackDepth => "dfs-stack-depth",
            FrontierSemantics::BfsLevelWidth => "bfs-level-width",
        }
    }
}

/// The result of a bounded exploration. The default is the empty report of
/// a search that has not started.
#[derive(Debug, Clone, Default)]
pub struct Exploration {
    /// Number of states visited.
    pub states_visited: u64,
    /// Number of maximal paths (all-halted or depth-bounded) examined.
    pub paths: u64,
    /// The first violation found, if any.
    pub violation: Option<ExploredViolation>,
    /// `true` if the search stopped because a limit was hit rather than
    /// because the state space was exhausted.
    pub truncated: bool,
    /// The deepest schedule prefix (in steps) the search examined. With
    /// dedup on this is the longest *non-revisiting* path for the serial
    /// explorer, and the breadth-first radius of the explored state space
    /// for the parallel explorer — both can be far below `max_depth` even
    /// when the state space is exhausted.
    pub max_depth_reached: u64,
    /// Peak size of the explorer's frontier; what a "frontier entry" *is*
    /// differs per backend — see
    /// [`frontier_semantics`](Self::frontier_semantics). Spilled entries
    /// count: the peak is a property of the search, not of where the
    /// entries happened to live.
    pub frontier_peak: u64,
    /// What [`frontier_peak`](Self::frontier_peak) measures for the backend
    /// that produced this report: the deepest DFS path stack for the
    /// serial explorer, the widest BFS level for the parallel one.
    pub frontier_semantics: FrontierSemantics,
    /// States that were discovered but still awaiting expansion when the
    /// search stopped (0 when the space was exhausted). Together with
    /// [`states_visited`](Self::states_visited) this accounts for **every**
    /// discovered state: a truncated search loses nothing, which is what a
    /// checkpoint-resume needs.
    pub pending_at_exit: u64,
    /// Entries held by the dedup seen-set when the search stopped (0 with
    /// dedup disabled).
    pub seen_entries: u64,
    /// A rough, deterministic estimate of the bytes held by the explorer's
    /// data structures at their peak: the deep size of the peak frontier —
    /// the serial explorer's path-stack frames, the parallel explorer's
    /// widest level — resident plus spilled, so the figure is
    /// spill-invariant, plus the final seen-set table. Deep means heap
    /// payloads — register contents, histories, decision maps — are charged
    /// per entry, not just the struct shells.
    pub approx_bytes: u64,
    /// Cumulative number of frontier entries written to disk (0 unless
    /// [`ExploreConfig::spill`] was on and the resident budget was
    /// exceeded). The only statistic that legitimately differs between a
    /// spilled and an in-core run of the same cell.
    pub spilled_entries: u64,
    /// `true` if the search deduplicated up to process-id symmetry:
    /// [`SymmetryMode::ProcessIds`] was requested **and** every automaton
    /// opted in (see [`Automaton::symmetry_class`]). When `false` despite a
    /// request, the search fell back to plain exploration — same verdicts,
    /// no reduction.
    pub symmetry_applied: bool,
    /// A lower bound on the number of distinct reachable configurations
    /// represented by the visited states: with symmetry applied, the sum
    /// over visited orbit representatives of the number of distinct
    /// configurations their input-preserving relabelings produce (every one
    /// of them reachable); without symmetry, exactly `states_visited`. The
    /// ratio `full_states_lower_bound / states_visited` is the reduction
    /// factor the quotient achieved. Exact up to 128-bit signature
    /// collisions between distinct slot states.
    pub full_states_lower_bound: u64,
    /// `true` if the search pruned commuting interleavings with sleep sets:
    /// [`ReductionMode::SleepSets`] was requested **and** its preconditions
    /// held (dedup on). When `false` despite a request, the search fell back
    /// to plain expansion — same verdicts, no transition reduction.
    pub reduction_applied: bool,
    /// Number of successor configurations generated (one per expanded
    /// transition). Sleep sets leave
    /// [`states_visited`](Self::states_visited) untouched and shrink
    /// **this** figure; the ratio `(expansions + sleep_pruned) / expansions`
    /// is the transition-level reduction factor achieved.
    pub expansions: u64,
    /// Number of enabled transitions skipped because they were asleep at a
    /// state's expansion (0 without [`ReductionMode::SleepSets`]).
    pub sleep_pruned: u64,
    /// Number of transitions expanded out of persistent/backtrack sets —
    /// i.e. from states where the persistent-set selection restricted the
    /// expansion (0 without [`ReductionMode::PersistentSets`]).
    pub persistent_expanded: u64,
    /// Number of enabled transitions the persistent-set selection left
    /// permanently unexpanded — each the root of a successor subtree the
    /// selective search proved redundant, which is how this mode cuts
    /// *states* rather than transitions (0 without
    /// [`ReductionMode::PersistentSets`]).
    pub states_cut: u64,
}

impl Exploration {
    /// `true` if no violation was found and the search was not truncated —
    /// i.e. the predicate holds in **every** reachable configuration within
    /// the depth bound.
    ///
    /// # Soundness
    ///
    /// Deduplication keys are 128-bit salted hashes of the **full** canonical
    /// state (every automaton, the raw register/snapshot contents and all
    /// decisions — see [`StateKey`]), so a reachable state is pruned only if
    /// a state with the same key was already expanded. A false `verified`
    /// therefore requires a 128-bit collision between two distinct reachable
    /// states (probability ≈ `s² / 2¹²⁹` for `s` states — below `10⁻²⁵` even
    /// at the default two-million-state budget), not a 64-bit one as in
    /// earlier releases.
    pub fn verified(&self) -> bool {
        self.violation.is_none() && !self.truncated
    }
}

/// A collision-resistant dedup key: two independently salted 64-bit hashes
/// over the full canonical state. A single 64-bit key would collide
/// somewhere in a million-state search with probability ≈ `s² / 2⁶⁵` (one
/// in ~10⁷ per cell, material across campaigns) and unsoundly prune a
/// reachable state; see [`Exploration::verified`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StateKey([u64; 2]);

impl StateKey {
    /// Reassembles a key from [`parts`](Self::parts) output — used when
    /// keys round-trip through on-disk seen-set shards.
    pub fn from_parts(parts: [u64; 2]) -> StateKey {
        StateKey(parts)
    }

    /// The two independently salted halves of the key.
    pub fn parts(&self) -> [u64; 2] {
        self.0
    }

    /// The shard index this key belongs to when the seen-set is split into
    /// `shards` parts — a prefix of the first half, so keys spread evenly.
    pub fn shard(&self, shards: usize) -> usize {
        debug_assert!(shards.is_power_of_two(), "shard counts are powers of two");
        ((self.0[0] >> 48) as usize) & (shards - 1)
    }
}

/// A hasher that yields a whole [`StateKey`]. The key functions are generic
/// over it only so tests can pin [`SplitHasher`] against a reference that
/// writes both streams directly.
trait KeyHasher: Hasher {
    fn new() -> Self;

    /// Consumes the hasher into the full 128-bit key. Deliberately not
    /// named `finish`: `Hasher::finish` yields only the unsalted half, and
    /// shadowing it would invite exactly the 64-bit-key bug the wide key
    /// exists to fix.
    fn into_key(self) -> StateKey;
}

/// The unsalted and the salted `DefaultHasher` behind both halves of a
/// [`StateKey`]. Any fixed non-trivial salt prefix decorrelates the two
/// finishes; the SplitMix64 increment is as good as any.
fn key_streams() -> (DefaultHasher, DefaultHasher) {
    let mut salted = DefaultHasher::new();
    salted.write_u64(0x9E37_79B9_7F4A_7C15);
    (DefaultHasher::new(), salted)
}

/// Bytes [`SplitHasher`] gathers before feeding both streams: a state of
/// the paper's cells writes a few hundred bytes in many 1–8 byte pieces.
const SPLIT_BUFFER: usize = 256;

/// Feeds one canonical-state stream into two differently salted
/// `DefaultHasher`s, producing both halves of a [`StateKey`] in one
/// traversal of the state.
///
/// Writes are gathered in a stack buffer and handed to both SipHash
/// streams in bulk: most writes are single integers, and SipHash pays a
/// tail-merge per write call. SipHash is a byte-stream hash — its result
/// depends on the bytes written, not on how they were chunked — so every
/// key is bit-identical to feeding each write to both streams directly.
struct SplitHasher {
    plain: DefaultHasher,
    salted: DefaultHasher,
    buf: [u8; SPLIT_BUFFER],
    len: usize,
}

impl SplitHasher {
    /// Hands the buffered bytes to both streams.
    fn flush(&mut self) {
        let bytes = &self.buf[..self.len];
        self.plain.write(bytes);
        self.salted.write(bytes);
        self.len = 0;
    }
}

impl KeyHasher for SplitHasher {
    fn new() -> Self {
        let (plain, salted) = key_streams();
        SplitHasher {
            plain,
            salted,
            buf: [0; SPLIT_BUFFER],
            len: 0,
        }
    }

    fn into_key(mut self) -> StateKey {
        self.flush();
        StateKey([self.plain.finish(), self.salted.finish()])
    }
}

impl Hasher for SplitHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        if self.len + bytes.len() > SPLIT_BUFFER {
            self.flush();
            if bytes.len() >= SPLIT_BUFFER {
                self.plain.write(bytes);
                self.salted.write(bytes);
                return;
            }
        }
        self.buf[self.len..self.len + bytes.len()].copy_from_slice(bytes);
        self.len += bytes.len();
    }

    fn finish(&self) -> u64 {
        let mut plain = self.plain.clone();
        plain.write(&self.buf[..self.len]);
        plain.finish()
    }
}

/// The dedup key of an executor configuration: automata, raw memory
/// contents and decisions, hashed into a [`StateKey`]. Shared by the serial
/// and the parallel explorer so their seen-sets agree on state identity.
pub fn state_key<A>(executor: &Executor<A>) -> StateKey
where
    A: Automaton + Hash,
    A::Value: Hash + Clone + Eq + Debug,
{
    state_key_with::<SplitHasher, A>(executor)
}

fn state_key_with<H, A>(executor: &Executor<A>) -> StateKey
where
    H: KeyHasher,
    A: Automaton + Hash,
    A::Value: Hash + Clone + Eq + Debug,
{
    let mut hasher = H::new();
    for p in 0..executor.process_count() {
        executor.automaton(ProcessId(p)).hash(&mut hasher);
    }
    // Hash the raw contents, not `content_fingerprint()`: routing the state
    // through a 64-bit intermediate would cap the whole key at 64 bits of
    // collision resistance no matter how wide the final key is.
    executor.memory().hash_contents(&mut hasher);
    executor.decisions().hash(&mut hasher);
    hasher.into_key()
}

/// The precomputed symmetry structure of one exploration: whether reduction
/// applies at all, and which process slots may exchange positions during
/// canonicalization.
///
/// Built once per search from the **initial** configuration (see
/// [`SymmetryPlan::for_executor`]) and shared by the serial and the parallel
/// explorer, so their canonical keys agree exactly.
#[derive(Debug, Clone)]
pub struct SymmetryPlan {
    applied: bool,
    n: usize,
    /// The automata's declared class; id-carrying systems additionally sign
    /// slots with their memory-occurrence profile (see `canonical_order`).
    class: SymmetryClass,
    /// Canonical sorting domain per slot: slots may only exchange canonical
    /// positions with slots of the same domain. One domain for anonymous
    /// systems (full-group permutation); equal-initial-behavior domains for
    /// id-carrying systems (so the relabelings quotiented by are exactly
    /// those fixing the initial configuration).
    canon_class: Vec<usize>,
    /// Equal-initial-behavior class per slot, used by the orbit-size lower
    /// bound: relabelings within these classes fix the initial
    /// configuration, so every orbit member they produce is reachable.
    initial_class: Vec<usize>,
    /// The id-erasing map used for order-independent slot signatures.
    erase: IdRelabeling,
}

impl SymmetryPlan {
    /// A plan that applies no reduction.
    fn off(n: usize) -> SymmetryPlan {
        SymmetryPlan {
            applied: false,
            n,
            class: SymmetryClass::Opaque,
            canon_class: Vec::new(),
            initial_class: Vec::new(),
            erase: IdRelabeling::erase(n),
        }
    }

    /// Builds the plan for exploring from `initial` under `mode`.
    ///
    /// [`SymmetryMode::ProcessIds`] is **established** (rather than assumed)
    /// here: every automaton must report the same non-
    /// [`Opaque`](SymmetryClass::Opaque) [`Automaton::symmetry_class`],
    /// otherwise the plan falls back to no reduction — an unsound prune is
    /// worse than a slow search. Anonymous systems get one orbit group over
    /// all slots; id-carrying systems get one group per class of processes
    /// with identical (id-erased) initial behavior, i.e. identical inputs.
    pub fn for_executor<A>(initial: &Executor<A>, mode: SymmetryMode) -> SymmetryPlan
    where
        A: Automaton + Hash,
        A::Value: Hash + Clone + Eq + Debug,
    {
        let n = initial.process_count();
        if mode == SymmetryMode::Off || n == 0 {
            return SymmetryPlan::off(n);
        }
        let class = initial.automaton(ProcessId(0)).symmetry_class();
        if class == SymmetryClass::Opaque {
            return SymmetryPlan::off(n);
        }
        for p in 1..n {
            if initial.automaton(ProcessId(p)).symmetry_class() != class {
                return SymmetryPlan::off(n);
            }
        }
        let erase = IdRelabeling::erase(n);
        // Group slots by their id-erased initial behavior: for the paper's
        // algorithms this is exactly "identical input sequence".
        let signatures: Vec<StateKey> = (0..n)
            .map(|p| {
                let mut hasher = SplitHasher::new();
                initial
                    .automaton(ProcessId(p))
                    .hash_behavior(&erase, &mut hasher);
                hasher.into_key()
            })
            .collect();
        let mut initial_class = vec![0usize; n];
        let mut representatives: Vec<StateKey> = Vec::new();
        for p in 0..n {
            initial_class[p] = representatives
                .iter()
                .position(|sig| *sig == signatures[p])
                .unwrap_or_else(|| {
                    representatives.push(signatures[p]);
                    representatives.len() - 1
                });
        }
        let canon_class = match class {
            // Anonymous algorithms permit full-group permutation: nothing
            // in the transition system references a slot index.
            SymmetryClass::Anonymous => vec![0usize; n],
            // Id-carrying algorithms only within equal-input groups, where
            // the consistent relabeling fixes the initial configuration.
            SymmetryClass::IdCarrying => initial_class.clone(),
            SymmetryClass::Opaque => unreachable!("checked above"),
        };
        SymmetryPlan {
            applied: true,
            n,
            class,
            canon_class,
            initial_class,
            erase,
        }
    }

    /// `true` if this plan performs symmetry reduction.
    pub fn applied(&self) -> bool {
        self.applied
    }

    /// `true` if every orbit group is a single slot, so canonicalization is
    /// provably the identity and no two distinct configurations can ever
    /// merge — e.g. a distinct-workload cell of an id-carrying algorithm.
    /// The explorers use this to take the plain [`state_key`] fast path
    /// (same dedup semantics, none of the per-slot signature work) while
    /// still reporting the symmetry as applied.
    pub fn is_trivial(&self) -> bool {
        let groups = self.orbit_groups();
        groups == self.n && self.n > 0
    }

    /// The number of orbit groups canonicalization sorts within (`0` when
    /// the plan applies no reduction).
    pub fn orbit_groups(&self) -> usize {
        self.canon_class.iter().copied().max().map_or(0, |c| c + 1)
    }

    /// The canonical relabeling of `executor`'s configuration: a bijection
    /// `old id → new id` that, applied consistently to slots, local states,
    /// memory values and decisions, yields the orbit representative whose
    /// [`canonical_state_key`] is computed. The identity when the plan
    /// applies no reduction.
    pub fn canonical_relabeling<A>(&self, executor: &Executor<A>) -> IdRelabeling
    where
        A: Automaton + Hash,
        A::Value: Hash + Clone + Eq + Debug,
    {
        if !self.applied {
            return IdRelabeling::identity(self.n);
        }
        let (order, _) = self.canonical_order::<SplitHasher, A>(executor);
        relabel_for_order(&order)
    }

    /// The canonical slot order (`order[new_slot] = old_slot`) plus the
    /// orbit-size lower bound of the configuration.
    ///
    /// Within each orbit group, slots are sorted by an id-erased signature
    /// of their behavioral state and per-slot decisions; ties keep original
    /// slot order, so the result is a deterministic function of the
    /// configuration alone (never of thread count or discovery order).
    fn canonical_order<H, A>(&self, executor: &Executor<A>) -> (Vec<usize>, u64)
    where
        H: KeyHasher,
        A: Automaton + Hash,
        A::Value: Hash + Clone + Eq + Debug,
    {
        let n = self.n;
        let instances: Vec<InstanceId> = executor.decisions().instances().collect();
        let signatures: Vec<[u64; 2]> = (0..n)
            .map(|p| {
                let mut hasher = H::new();
                executor
                    .automaton(ProcessId(p))
                    .hash_behavior(&self.erase, &mut hasher);
                // The slot's decisions travel with it under relabeling, so
                // they are part of what makes slots interchangeable.
                for &instance in &instances {
                    if let Some(value) = executor.decisions().decision_of(ProcessId(p), instance) {
                        instance.hash(&mut hasher);
                        value.hash(&mut hasher);
                    }
                }
                // Id-carrying values couple slots to memory: two slots whose
                // local states differ only in the id are still distinguished
                // by WHERE their ids occur in memory (e.g. only p1 has a
                // pair in the snapshot). Sign each slot with its
                // id-occurrence profile — every value hashed under a
                // "spotlight" map sending this slot's id to p1 and every
                // other id to p0 — so the canonical order separates them
                // consistently across the whole orbit. (Anonymous values
                // embed no ids; the profile would be constant, so skip it.)
                if self.class == SymmetryClass::IdCarrying && n > 1 {
                    let mut spotlight = vec![ProcessId(0); n];
                    spotlight[p] = ProcessId(1);
                    let spotlight = IdRelabeling::from_map(spotlight);
                    executor
                        .memory()
                        .hash_contents_mapped(&mut hasher, |value| {
                            A::relabel_value(value, &spotlight)
                        });
                }
                hasher.into_key().parts()
            })
            .collect();
        // Within each orbit group, reassign the group's slot positions to
        // its members in signature order (stable: ties keep slot order).
        let mut order: Vec<usize> = (0..n).collect();
        let groups = self.canon_class.iter().copied().max().map_or(0, |c| c + 1);
        for group in 0..groups {
            let positions: Vec<usize> = (0..n).filter(|p| self.canon_class[*p] == group).collect();
            let mut members = positions.clone();
            members.sort_by_key(|p| (signatures[*p], *p));
            for (position, member) in positions.into_iter().zip(members) {
                order[position] = member;
            }
        }
        // Orbit-size lower bound: within each equal-initial-behavior class,
        // relabelings fix the initial configuration, so they produce
        // class_size! / (product of equal-signature run lengths!) distinct
        // reachable configurations. Slots whose *projected* states collide
        // are conservatively treated as interchangeable, keeping this a
        // lower bound.
        let classes = self
            .initial_class
            .iter()
            .copied()
            .max()
            .map_or(0, |c| c + 1);
        let mut orbit_lower: u64 = 1;
        for class in 0..classes {
            let mut sigs: Vec<[u64; 2]> = (0..n)
                .filter(|p| self.initial_class[*p] == class)
                .map(|p| signatures[p])
                .collect();
            sigs.sort_unstable();
            let mut arrangements: u64 = factorial(sigs.len() as u64);
            let mut run = 1u64;
            for i in 1..=sigs.len() {
                if i < sigs.len() && sigs[i] == sigs[i - 1] {
                    run += 1;
                } else {
                    arrangements /= factorial(run);
                    run = 1;
                }
            }
            orbit_lower = orbit_lower.saturating_mul(arrangements);
        }
        (order, orbit_lower)
    }
}

/// `n!`, saturating — orbit groups are at most `n` slots wide, and a
/// saturated count still satisfies the "lower bound" contract because it is
/// only ever *divided* by factorials of run lengths that partition `n`.
fn factorial(n: u64) -> u64 {
    (2..=n).fold(1u64, |acc, i| acc.saturating_mul(i))
}

/// The symmetry-reduced dedup key of a configuration, plus the orbit-size
/// lower bound feeding [`Exploration::full_states_lower_bound`].
///
/// The key is the 128-bit [`StateKey`] of the configuration's **canonical
/// orbit representative**: slots are reordered within their orbit groups by
/// id-erased behavioral signature, then the automata
/// ([`Automaton::hash_behavior`]), the memory contents
/// ([`SimMemory::hash_contents_mapped`](sa_memory::SimMemory::hash_contents_mapped)
/// with [`Automaton::relabel_value`]) and the decisions are hashed under the
/// resulting relabeling. Two configurations share a key **only if** one is
/// the other's image under an orbit-group permutation applied consistently
/// through states, values and decisions (up to the same 128-bit collision
/// bound as plain [`state_key`]) — so pruning on this key is sound: the
/// pruned configuration's entire future is the relabeled image of an
/// explored one, with identical safety verdicts.
///
/// A plan that applies no reduction (a fallback for Opaque automata, or
/// [`SymmetryMode::Off`]) degrades gracefully to the plain [`state_key`]
/// with a singleton orbit weight.
pub fn canonical_state_key<A>(executor: &Executor<A>, plan: &SymmetryPlan) -> (StateKey, u64)
where
    A: Automaton + Hash,
    A::Value: Hash + Clone + Eq + Debug,
{
    canonical_state_key_with::<SplitHasher, A>(executor, plan)
}

fn canonical_state_key_with<H, A>(executor: &Executor<A>, plan: &SymmetryPlan) -> (StateKey, u64)
where
    H: KeyHasher,
    A: Automaton + Hash,
    A::Value: Hash + Clone + Eq + Debug,
{
    if !plan.applied {
        // A fallback plan (Opaque automata, or `SymmetryMode::Off`) defines
        // no orbits: the canonical key degrades to the plain key with a
        // singleton orbit, so callers can use the two interchangeably.
        return (state_key_with::<H, A>(executor), 1);
    }
    let (order, orbit_lower) = plan.canonical_order::<H, A>(executor);
    let relabel = relabel_for_order(&order);
    (
        canonical_key_for_order::<H, A>(executor, &order, &relabel),
        orbit_lower,
    )
}

/// The canonical relabeling (`old id → new id`) induced by a canonical slot
/// order (`order[new_slot] = old_slot`).
fn relabel_for_order(order: &[usize]) -> IdRelabeling {
    let mut map = vec![ProcessId(0); order.len()];
    for (new_slot, &old_slot) in order.iter().enumerate() {
        map[old_slot] = ProcessId(new_slot);
    }
    IdRelabeling::from_map(map)
}

/// Hashes the orbit representative selected by `order`/`relabel` into its
/// [`StateKey`] — the shared tail of [`canonical_state_key`] and
/// [`keyed_relabeled`].
fn canonical_key_for_order<H, A>(
    executor: &Executor<A>,
    order: &[usize],
    relabel: &IdRelabeling,
) -> StateKey
where
    H: KeyHasher,
    A: Automaton + Hash,
    A::Value: Hash + Clone + Eq + Debug,
{
    let mut hasher = H::new();
    for &old_slot in order {
        executor
            .automaton(ProcessId(old_slot))
            .hash_behavior(relabel, &mut hasher);
    }
    executor
        .memory()
        .hash_contents_mapped(&mut hasher, |value| A::relabel_value(value, relabel));
    for instance in executor.decisions().instances() {
        instance.hash(&mut hasher);
        for (new_slot, &old_slot) in order.iter().enumerate() {
            if let Some(value) = executor
                .decisions()
                .decision_of(ProcessId(old_slot), instance)
            {
                new_slot.hash(&mut hasher);
                value.hash(&mut hasher);
            }
        }
    }
    hasher.into_key()
}

/// The dedup key (and visited-orbit weight) of a configuration under a
/// plan: [`canonical_state_key`] when the plan applies non-trivially, the
/// plain [`state_key`] (weight 1) otherwise. The single key function both
/// explorers share. Trivial plans (every orbit group a singleton, e.g. a
/// distinct-workload id-carrying cell) provably cannot merge anything, so
/// they skip the per-slot signature work entirely rather than pay n extra
/// memory hashes per state for a 1.0x reduction.
pub fn keyed<A>(executor: &Executor<A>, plan: &SymmetryPlan) -> (StateKey, u64)
where
    A: Automaton + Hash,
    A::Value: Hash + Clone + Eq + Debug,
{
    if plan.applied && !plan.is_trivial() {
        canonical_state_key(executor, plan)
    } else {
        (state_key(executor), 1)
    }
}

/// [`keyed`], additionally returning the canonical relabeling that maps the
/// configuration onto its orbit representative — what sleep-set reduction
/// needs to store its masks in **canonical** process coordinates, where
/// masks from different members of one orbit are comparable. The identity
/// when the plan applies no (or only trivial) reduction. One
/// `canonical_order` pass serves the key, the weight and the relabeling.
pub fn keyed_relabeled<A>(
    executor: &Executor<A>,
    plan: &SymmetryPlan,
) -> (StateKey, u64, IdRelabeling)
where
    A: Automaton + Hash,
    A::Value: Hash + Clone + Eq + Debug,
{
    if plan.applied && !plan.is_trivial() {
        let (order, orbit_lower) = plan.canonical_order::<SplitHasher, A>(executor);
        let relabel = relabel_for_order(&order);
        let key = canonical_key_for_order::<SplitHasher, A>(executor, &order, &relabel);
        (key, orbit_lower, relabel)
    } else {
        (
            state_key(executor),
            1,
            IdRelabeling::identity(executor.process_count()),
        )
    }
}

/// The most processes an explorer accepts: enabled, sleep and backtrack
/// sets are `u64` bit masks indexed by process slot.
pub const MAX_PROCESSES: usize = u64::BITS as usize;

/// Rejects a system too wide for the process masks — the check every
/// exploration engine makes once, at its entry.
///
/// # Panics
///
/// Panics, naming the limit, if `process_count` exceeds [`MAX_PROCESSES`].
pub fn check_process_count(process_count: usize) {
    assert!(
        process_count <= MAX_PROCESSES,
        "exploration supports at most {MAX_PROCESSES} processes (process sets are \
         64-bit masks), but this system has {process_count}"
    );
}

/// One process's bit in a `u64` process mask, checked: `None` for
/// `p.index() >= 64`. The single chokepoint every mask builder below goes
/// through — `1u64 << p.index()` alone is a masked shift in release builds,
/// so a 65th process would silently alias process 1.
pub fn checked_bit_of(process: ProcessId) -> Option<u64> {
    1u64.checked_shl(process.index() as u32)
}

/// The bit mask of a process set, checked: `None` if any process index is
/// outside the 64-bit mask width.
pub fn checked_mask_of(processes: &[ProcessId]) -> Option<u64> {
    processes
        .iter()
        .try_fold(0u64, |mask, p| Some(mask | checked_bit_of(*p)?))
}

/// The bit mask of a process set.
///
/// # Panics
///
/// Panics if a process index is outside the mask width — a bug inside the
/// explorers, which reject systems of more than [`MAX_PROCESSES`] processes
/// at entry ([`check_process_count`]). Use [`checked_mask_of`] when the
/// limit is not already established.
pub fn mask_of(processes: &[ProcessId]) -> u64 {
    checked_mask_of(processes).expect("process index outside the 64-bit mask width")
}

/// The image of a process-set mask under a relabeling: bit `p` maps to bit
/// `relabel(p)` (used to store sleep masks in canonical coordinates).
///
/// # Panics
///
/// Panics if the relabeling maps a set bit outside the 64-bit mask width
/// (see [`mask_of`]).
pub fn relabel_mask(mask: u64, relabel: &IdRelabeling) -> u64 {
    let mut out = 0u64;
    let mut rest = mask;
    while rest != 0 {
        let p = rest.trailing_zeros() as usize;
        out |= checked_bit_of(relabel.apply(ProcessId(p)))
            .expect("relabeled process index outside the 64-bit mask width");
        rest &= rest - 1;
    }
    out
}

/// The preimage of a canonical-coordinate mask under a relabeling: bit `p`
/// is set iff bit `relabel(p)` is set in `mask`. Scanning the domain avoids
/// materializing the inverse map.
///
/// # Panics
///
/// Panics if the relabeling maps a domain slot outside the 64-bit mask
/// width (see [`mask_of`]).
pub fn unrelabel_mask(mask: u64, relabel: &IdRelabeling) -> u64 {
    let mut out = 0u64;
    for p in 0..relabel.len() {
        let image = checked_bit_of(relabel.apply(ProcessId(p)))
            .expect("relabeled process index outside the 64-bit mask width");
        if mask & image != 0 {
            out |= 1u64 << p;
        }
    }
    out
}

/// The sleep set inherited by the successor reached by stepping `process`
/// from `state`: the members of `sleep` whose poised operations commute with
/// the one `process` is about to perform (dependent members wake — their
/// orders with `process` are now distinguishable and must be explored).
///
/// Commutation is judged by a three-tier interference analysis, every tier
/// a pure (and, across the pair, symmetric) function of the configuration,
/// so reduced output stays byte-identical at any worker count:
///
/// 1. the static footprint relation ([`independent`]) — free, holds in
///    every state;
/// 2. the invisible-write refinement
///    ([`SimMemory::invisibly_independent`](sa_memory::SimMemory::invisibly_independent))
///    — a value comparison against the current contents;
/// 3. the dynamic commutation checker
///    ([`orders_commute`](crate::orders_commute)) — executes both orders
///    from this very configuration and keeps the pair asleep only if the
///    successors collapse to one state key. This is the precise state-local
///    diamond, so it also prunes pairs no footprint analysis can clear —
///    e.g. an update racing a scan whose caller's behavior is insensitive
///    to that one component.
///
/// Each tier is evaluated at exactly the state the pruning decision is made
/// from, which is what the sleep-set induction needs: a per-state diamond,
/// re-established here at every expansion. (Enabledness preservation, the
/// other diamond leg, is structural — stepping one process never disables
/// another in this model.)
///
/// Debug builds run the dynamic oracle on every pair the *cheap* tiers
/// retain: if either analysis ever called a non-commuting pair independent,
/// the very expansion that would prune unsoundly panics instead (see
/// [`check_commutation`](crate::check_commutation) for the standalone
/// campaign-level sweep). Tier 3 needs no audit — it is the oracle.
///
/// An explorer that has already stepped `process` calls
/// [`successor_sleep_from`] instead, which starts tier 3 from that
/// successor.
pub fn successor_sleep<A>(state: &Executor<A>, process: ProcessId, sleep: u64) -> u64
where
    A: Automaton + Clone + Hash,
    A::Value: Hash + Clone + Eq + Debug,
{
    sleep_after(state, process, None, sleep)
}

/// [`successor_sleep`] for a caller holding `successor`, the configuration
/// reached by stepping `process` from `state`: the dynamic tier executes
/// the `process`-first order as one step from a copy of `successor`
/// rather than two steps from a copy of `state`. Same result, bit for bit.
pub fn successor_sleep_from<A>(
    state: &Executor<A>,
    process: ProcessId,
    successor: &Executor<A>,
    sleep: u64,
) -> u64
where
    A: Automaton + Clone + Hash,
    A::Value: Hash + Clone + Eq + Debug,
{
    sleep_after(state, process, Some(successor), sleep)
}

/// The body of [`successor_sleep`] and [`successor_sleep_from`].
fn sleep_after<A>(
    state: &Executor<A>,
    process: ProcessId,
    successor: Option<&Executor<A>>,
    sleep: u64,
) -> u64
where
    A: Automaton + Clone + Hash,
    A::Value: Hash + Clone + Eq + Debug,
{
    let commutes = |q: ProcessId| match successor {
        Some(next) => orders_commute_after(state, process, next.clone(), q),
        None => orders_commute(state, process, q),
    };
    if sleep == 0 {
        return 0;
    }
    let Some(op) = state.poised(process) else {
        return 0;
    };
    let mut kept = 0u64;
    let mut rest = sleep;
    while rest != 0 {
        let q = ProcessId(rest.trailing_zeros() as usize);
        rest &= rest - 1;
        // A sleeping process with no poised op cannot be judged; waking it
        // is always sound.
        let Some(other) = state.poised(q) else {
            continue;
        };
        if independent(&op, &other) || state.memory().invisibly_independent(&op, &other) {
            kept |= 1u64 << q.index();
            // Debug oracle: the pair the interference analysis called
            // independent must reach one successor state key either way.
            debug_assert!(
                commutes(q),
                "independent pair {process}/{q} does not commute — the interference analysis is unsound here"
            );
        } else if commutes(q) {
            kept |= 1u64 << q.index();
        }
    }
    kept
}

/// The persistent subset of `runnable` at `state`: seeded from the lowest-
/// indexed enabled process and closed under the **static** dependency
/// relation over poised operations — a process joins the set when its
/// poised op fails [`independent`] against any member's poised op, until a
/// fixpoint.
///
/// Static (footprint) independence holds in *every* state, so members'
/// pending operations stay independent of non-members' poised operations no
/// matter which non-members step in between — the part of the persistent-set
/// condition a state-conditional relation could not deliver. What the
/// closure cannot see is a non-member's *future* operations becoming
/// dependent after it steps; the two consumers each close that hole their
/// own way: the serial DFS with Flanagan–Godefroid dynamic backtracking
/// (the missed process is added to the ancestor's backtrack set the moment
/// the dependency materializes), the breadth-first engines by applying the
/// cut only where [`persistent_set_applies`] proves non-members have no
/// future operations at all.
///
/// A process with no poised op cannot conflict and never joins. The result
/// is a pure function of the configuration, so reduced output stays
/// byte-identical at any worker count.
pub fn persistent_set<A>(state: &Executor<A>, runnable: &[ProcessId]) -> u64
where
    A: Automaton,
    A::Value: Clone + Eq + Debug,
{
    let Some(seed) = runnable.first() else {
        return 0;
    };
    persistent_closure(state, runnable, *seed)
}

/// The static-dependency closure of `{seed}` over `runnable` — the engine
/// behind [`persistent_set`], with the seed chosen by the caller (the DFS
/// seeds from the lowest *non-sleeping* enabled process so a sleep-filtered
/// backtrack set never starts empty).
fn persistent_closure<A>(state: &Executor<A>, runnable: &[ProcessId], seed: ProcessId) -> u64
where
    A: Automaton,
    A::Value: Clone + Eq + Debug,
{
    let mut set = mask_of(&[seed]);
    loop {
        let mut grew = false;
        for q in runnable {
            let q_bit = mask_of(&[*q]);
            if set & q_bit != 0 {
                continue;
            }
            let Some(q_op) = state.poised(*q) else {
                continue;
            };
            let mut members = set;
            while members != 0 {
                let p = ProcessId(members.trailing_zeros() as usize);
                members &= members - 1;
                let Some(p_op) = state.poised(p) else {
                    continue;
                };
                if !independent(&p_op, &q_op) {
                    set |= q_bit;
                    grew = true;
                    break;
                }
            }
        }
        if !grew {
            return set;
        }
    }
}

/// `true` when expanding only `set` (a [`persistent_set`] result) from
/// `state` is sound *without* dynamic backtracking: every enabled process
/// outside the set halts after its poised operation. Then any sequence of
/// non-member steps consists solely of their poised ops — each statically
/// independent of every member op by the closure — so the set is persistent
/// by definition, with no future operation left to conflict. The
/// breadth-first explorer and the adversary search, which keep no DFS path
/// to hang backtrack sets on, gate their state cuts on exactly this check;
/// the serial DFS needs no gate because its backtracking re-adds whatever
/// a non-member's future turns out to need.
pub fn persistent_set_applies<A>(state: &Executor<A>, set: u64, runnable: &[ProcessId]) -> bool
where
    A: Automaton + Clone,
    A::Value: Clone + Eq + Debug,
{
    runnable.iter().all(|q| {
        if set & mask_of(&[*q]) != 0 {
            return true;
        }
        let mut stepped = state.clone();
        stepped.step(*q);
        stepped.automaton(*q).is_halted()
    })
}

/// The deterministic deep-byte charge of one frontier entry or path-stack
/// frame: the executor's [`deep size`](Executor::approx_deep_bytes) (struct
/// shells **plus** heap payloads — register contents, histories, decision
/// maps) plus the schedule vector and the entry's bookkeeping words.
///
/// A shallow `size_of` charge misses every heap allocation inside a state
/// (a 4-process repeated-agreement cell read ~430 MB while allocating
/// ~3.8 GB). Length-based deep accounting keeps the figure a pure function
/// of the search (never of capacities or discovery order), so it stays
/// byte-identical across worker counts and spill modes.
///
/// Path-stack frames hold no schedule (the path spells it) but are still
/// charged their depth as `schedule_len`, the accounting unit of the
/// parallel explorer's schedule-owning entries.
pub(crate) fn entry_bytes<A: Automaton>(state: &Executor<A>, schedule_len: usize) -> u64 {
    state.approx_deep_bytes()
        + (std::mem::size_of::<Vec<ProcessId>>()
            + schedule_len * std::mem::size_of::<ProcessId>()
            + 2 * std::mem::size_of::<u64>()) as u64
}

/// Reconstructs the executor reached by `schedule` from `initial` by
/// deterministic replay — the reason spilled frontier records need to store
/// no automaton or memory bytes at all.
pub(crate) fn replay<A>(initial: &Executor<A>, schedule: &[ProcessId]) -> Executor<A>
where
    A: Automaton + Clone,
    A::Value: Clone + Eq + Debug,
{
    let mut state = initial.clone();
    for &process in schedule {
        state.step(process);
    }
    state
}

/// An eagerly admitted successor awaiting its descent: everything its frame
/// needs except the executor, which the descent rebuilds by re-stepping the
/// parent frame's state.
struct Child {
    process: ProcessId,
    /// The sleep set the child arrives with, in its own labeling.
    sleep: u64,
    /// `Some` for a revisit: see [`Claim::owed`].
    owed: Option<u64>,
    orbit: u64,
}

/// One frame of the DFS path stack. The stack *is* the current schedule:
/// frame `i` holds the state reached by the first `i` steps — the `taken`
/// processes of `frames[..i]`, so no frame stores a schedule. States keep
/// their *original* labeling (canonical forms exist only inside the dedup
/// keys), so witness schedules replay on the caller's executor as-is.
///
/// Without persistent sets a frame expands **eagerly** when it is entered:
/// every target transition is stepped, checked and claimed at once, and the
/// admitted successors wait as [`Child`] records. Under
/// [`ReductionMode::PersistentSets`] it expands **lazily**, one transition
/// at a time from its backtrack set, so race detection can add processes to
/// an ancestor's `backtrack` **after** the ancestor was first expanded.
struct Frame<A: Automaton> {
    /// `None` while the frame is frozen in a spill segment; rebuilt by
    /// replay of the path prefix on thaw. The fields below stay resident so
    /// race additions can target frozen frames without touching disk.
    state: Option<Executor<A>>,
    /// The next step of the current path, valid whenever a frame sits above
    /// this one.
    taken: ProcessId,
    /// Persistent sets: the operation `taken` executed — the anchor races
    /// are detected against.
    taken_op: Option<Op<A::Value>>,
    bytes: u64,
    /// Enabled processes at this frame, in its own labeling.
    runnable_mask: u64,
    /// The sleep set this frame arrived with (own labeling).
    sleep: u64,
    /// `false` for owed-revisit frames, which are not re-counted.
    fresh: bool,
    /// Persistent sets: processes promised an expansion — the
    /// sleep-filtered persistent set at creation, grown by dynamic
    /// backtracking when a deeper transition races with an op outside it.
    /// Never holds a sleeping process.
    backtrack: u64,
    /// Persistent sets: processes already expanded from this frame.
    done: u64,
    /// Persistent sets: the canonical key and relabeling of the frame's
    /// stored promise, which backtrack growth shrinks.
    promise: Option<(StateKey, IdRelabeling)>,
    /// Eager expansion: the admitted successors not yet descended into, in
    /// ascending process order; the DFS takes the last (highest) first.
    children: Vec<Child>,
}

impl<A: Automaton> Frame<A> {
    /// The transitions still awaiting their descent, as counted in
    /// [`Exploration::pending_at_exit`]: one per admitted child, one for an
    /// undrained backtrack set.
    fn pending(&self) -> u64 {
        self.children.len() as u64 + u64::from(self.backtrack & !self.done != 0)
    }
}

/// The serial explorer's seen structure: nothing with dedup off, a bare key
/// table without reduction, or — under sleep-set or persistent-set
/// reduction — a map from key to the canonical-coordinate mask of enabled
/// transitions the state's expansion is **not** accountable for (smaller
/// mask ⇒ more transitions covered). The map is only ever probed by key,
/// never iterated, so the std `HashMap`'s seeded hasher cannot leak
/// nondeterminism into output.
enum Seen {
    Off,
    Keys(KeyTable),
    Masks(HashMap<StateKey, u64>),
}

/// A successor admitted by the seen structure.
struct Claim {
    /// `None` for a state never seen before. `Some(owed)` for a **revisit**
    /// of a seen state whose stored promise leaves the `owed` transitions
    /// (own labeling) uncovered: exactly those must still be expanded.
    owed: Option<u64>,
    key: StateKey,
    orbit: u64,
    relabel: IdRelabeling,
}

impl Seen {
    fn len(&self) -> u64 {
        match self {
            Seen::Off => 0,
            Seen::Keys(table) => table.len() as u64,
            Seen::Masks(map) => map.len() as u64,
        }
    }

    /// The deterministic byte charge of the seen structure: the key table
    /// for its entry count, plus one mask word per entry when masked.
    fn table_bytes(&self) -> u64 {
        let len = self.len();
        match self {
            Seen::Off => 0,
            Seen::Keys(_) => KeyTable::bytes_for_len(len),
            Seen::Masks(_) => KeyTable::bytes_for_len(len) + len * 8,
        }
    }

    /// Keys `state` under `plan` and claims it for an arrival with sleep
    /// set `sleep` (own labeling); `None` when its expansion is already
    /// accounted for. Masks live in canonical coordinates, so arrivals from
    /// different orbit members are comparable. A fresh state is stored with
    /// the arrival's sleep set as its promise mask. A seen state with
    /// stored mask `M` had its expansion cover enabled∖M; this arrival
    /// needs enabled∖sleep, so `M`∖sleep is still owed, and the stored
    /// promise shrinks to `M ∩ sleep`.
    fn claim<A>(&mut self, plan: &SymmetryPlan, state: &Executor<A>, sleep: u64) -> Option<Claim>
    where
        A: Automaton + Hash,
        A::Value: Hash + Clone + Eq + Debug,
    {
        let (key, orbit, relabel) = match self {
            Seen::Off => (StateKey([0, 0]), 1, IdRelabeling::identity(0)),
            Seen::Keys(_) => {
                let (key, orbit) = keyed(state, plan);
                (key, orbit, IdRelabeling::identity(0))
            }
            Seen::Masks(_) => keyed_relabeled(state, plan),
        };
        let owed = match self {
            Seen::Off => None,
            // Plain keys: an identical state was expanded. Canonical keys: a
            // configuration whose entire future is the consistently
            // relabeled image of an expanded one — same verdicts, so pruning
            // it is sound.
            Seen::Keys(table) => match table.insert(key) {
                true => None,
                false => return None,
            },
            Seen::Masks(map) => {
                let sleep = relabel_mask(sleep, &relabel);
                match map.entry(key) {
                    Entry::Vacant(vacant) => {
                        vacant.insert(sleep);
                        None
                    }
                    Entry::Occupied(mut occupied) => {
                        let stored = *occupied.get();
                        if stored & !sleep == 0 {
                            return None;
                        }
                        occupied.insert(stored & sleep);
                        Some(unrelabel_mask(stored & !sleep, &relabel))
                    }
                }
            }
        };
        Some(Claim {
            owed,
            key,
            orbit,
            relabel,
        })
    }

    /// Stores `uncovered` (canonical coordinates) as the promise of `key`.
    fn promise(&mut self, key: StateKey, uncovered: u64) {
        if let Seen::Masks(map) = self {
            map.insert(key, uncovered);
        }
    }

    /// Narrows the stored promise of `key`: its expansion now also covers
    /// `covered` (canonical coordinates).
    fn cover(&mut self, key: &StateKey, covered: u64) {
        if let Seen::Masks(map) = self {
            *map.get_mut(key)
                .expect("every entered frame's key is stored") &= !covered;
        }
    }
}

/// Exhaustively explores every interleaving of the executor's processes up to
/// the configured depth, checking `predicate` in every reachable
/// configuration — **including the initial one**.
///
/// The predicate receives the executor after each step and returns
/// `Some(description)` to report a violation (which stops the search) or
/// `None` if the configuration is acceptable.
///
/// One path-stack DFS serves every [`ExploreConfig`]. Without persistent
/// sets each state expands eagerly on entry — successors in ascending
/// process order, each checked, given its sleep set and claimed in the seen
/// structure — and the search descends into the highest admitted successor
/// first. Under [`ReductionMode::PersistentSets`] frames expand lazily from
/// backtrack sets seeded by the sleep-filtered [static persistent
/// set](persistent_set) and grown by Flanagan–Godefroid race detection,
/// which also runs for dedup-pruned successors. Under either reduction the
/// seen-map stores, per canonical key, the enabled transitions **not**
/// promised an expansion, and an arrival whose sleep set leaves part of
/// that uncovered enters an owed revisit for exactly that part.
///
/// All decisions are pure functions of the configuration, and every
/// statistic is accounted when a frame is entered or left — never at spill
/// boundaries — so output is byte-identical with spill on or off.
///
/// # Panics
///
/// Panics if the system has more than [`MAX_PROCESSES`] processes.
pub fn explore<A, F>(initial: &Executor<A>, config: ExploreConfig, predicate: F) -> Exploration
where
    A: Automaton + Clone + Hash,
    A::Value: Hash + Clone + Eq + Debug,
    F: FnMut(&Executor<A>) -> Option<String>,
{
    let n = initial.process_count();
    check_process_count(n);
    // Symmetry and both reductions are dedup strategies (the masks are
    // seen-map payloads), so dedup-off searches fall back to plain
    // enumeration.
    let (symmetry, reduction) = if config.dedup && n > 0 {
        (config.symmetry, config.reduction)
    } else {
        (SymmetryMode::Off, ReductionMode::Off)
    };
    let plan = SymmetryPlan::for_executor(initial, symmetry);
    let seen = match (config.dedup, reduction) {
        (false, _) => Seen::Off,
        (true, ReductionMode::Off) => Seen::Keys(KeyTable::new()),
        (true, _) => Seen::Masks(HashMap::new()),
    };
    Dfs {
        initial,
        config,
        result: Exploration {
            symmetry_applied: plan.applied(),
            reduction_applied: reduction != ReductionMode::Off,
            ..Exploration::default()
        },
        plan,
        predicate,
        lazy: reduction == ReductionMode::PersistentSets,
        seen,
        frames: Vec::new(),
        resident: 0,
        spilled_logical: 0,
        logical_peak: 0,
        spill_dir: None,
        segments: Vec::new(),
        frozen_below: 0,
    }
    .run()
}

/// The state of one [`explore`] call.
struct Dfs<'a, A: Automaton, F> {
    initial: &'a Executor<A>,
    config: ExploreConfig,
    plan: SymmetryPlan,
    predicate: F,
    /// Persistent-set frames expand lazily from backtrack sets; all others
    /// expand eagerly on entry.
    lazy: bool,
    seen: Seen,
    result: Exploration,
    frames: Vec<Frame<A>>,
    /// Byte accounting: `resident` is the deep bytes of resident frames
    /// (what the cap polices), `spilled_logical` what the frozen ones would
    /// occupy resident. Their sum — whose peak feeds `approx_bytes` — is
    /// conserved by freezing and thawing, so the figure is spill-invariant.
    resident: u64,
    spilled_logical: u64,
    logical_peak: u64,
    spill_dir: Option<SpillDir>,
    /// Each segment freezes the frames `[start, start + count)` of the path
    /// stack — always the coldest prefix of the still-resident frames — and
    /// thaws only once the DFS has popped back down to its top frame.
    segments: Vec<(PathBuf, usize, usize)>,
    frozen_below: usize,
}

impl<A, F> Dfs<'_, A, F>
where
    A: Automaton + Clone + Hash,
    A::Value: Hash + Clone + Eq + Debug,
    F: FnMut(&Executor<A>) -> Option<String>,
{
    fn run(mut self) -> Exploration {
        // The initial configuration is reachable (by the empty schedule): a
        // predicate that rejects it must be reported, not silently skipped.
        if let Some(description) = (self.predicate)(self.initial) {
            self.result.states_visited = 1;
            self.result.full_states_lower_bound = 1;
            let _ = self.violation(Vec::new(), description);
            return self.result;
        }
        let root = self
            .seen
            .claim(&self.plan, self.initial, 0)
            .expect("nothing seen yet");
        let promise = self.lazy.then_some((root.key, root.relabel));
        let mut flow = self.enter(self.initial.clone(), 0, None, root.orbit, promise);
        while flow.is_continue() {
            let Some(top) = self.frames.len().checked_sub(1) else {
                break;
            };
            let frame = &mut self.frames[top];
            if frame.state.is_none() {
                self.thaw();
                continue;
            }
            if frame.pending() == 0 {
                self.pop();
                continue;
            }
            flow = if self.lazy {
                self.expand_lazily(top)
            } else {
                // Descend into the highest pending child, rebuilding its
                // state by one step from the frame's.
                let child = frame.children.pop().expect("the frame has work");
                frame.taken = child.process;
                let mut state = frame.state.clone().expect("the top frame is resident");
                state.step(child.process);
                self.enter(state, child.sleep, child.owed, child.orbit, None)
            };
            if flow.is_continue() {
                self.spill();
            }
        }
        self.result.seen_entries = self.seen.len();
        self.result.approx_bytes = self.logical_peak + self.seen.table_bytes();
        self.result
    }

    /// Stops the search at a violating configuration reached by `schedule`.
    fn violation(&mut self, schedule: Vec<ProcessId>, description: String) -> ControlFlow<()> {
        self.result.max_depth_reached = self.result.max_depth_reached.max(schedule.len() as u64);
        self.result.violation = Some(ExploredViolation {
            schedule,
            description,
        });
        ControlFlow::Break(())
    }

    /// Enters `state`, reached by the current path plus one step (or the
    /// initial state): counts it if fresh, pushes its frame and, for eager
    /// frames, expands it at once. `owed` is `Some(mask)` for revisits;
    /// `promise` carries a persistent-set frame's key and relabeling.
    ///
    /// The one budget check sits here, right before a new state is
    /// visited: the state budget, and — without spill — the resident byte
    /// budget. A space of exactly `max_states` states is therefore
    /// exhausted, not truncated, and a truncated search leaves the state it
    /// was about to enter and every frame's unfinished work *pending*
    /// ([`Exploration::pending_at_exit`]), never silently discarded.
    fn enter(
        &mut self,
        state: Executor<A>,
        sleep: u64,
        owed: Option<u64>,
        orbit: u64,
        promise: Option<(StateKey, IdRelabeling)>,
    ) -> ControlFlow<()> {
        let fresh = owed.is_none();
        let cap = self.config.max_resident_bytes;
        if fresh
            && (self.result.states_visited >= self.config.max_states
                || (cap > 0 && !self.config.spill && self.resident > cap))
        {
            self.result.truncated = true;
            self.result.pending_at_exit = 1 + self.frames.iter().map(Frame::pending).sum::<u64>();
            return ControlFlow::Break(());
        }
        let depth = self.frames.len();
        let runnable = state.runnable();
        let runnable_mask = mask_of(&runnable);
        let leaf = runnable.is_empty() || depth as u64 >= self.config.max_depth;
        if fresh {
            self.result.states_visited += 1;
            self.result.full_states_lower_bound =
                self.result.full_states_lower_bound.saturating_add(orbit);
            self.result.max_depth_reached = self.result.max_depth_reached.max(depth as u64);
            // An eager leaf expands nothing, so it prunes nothing either.
            if self.lazy || !leaf {
                self.result.sleep_pruned += (sleep & runnable_mask).count_ones() as u64;
            }
        }
        // Persistent-set revisits expand what they owe even past the depth
        // bound; everything else stops at a leaf.
        if leaf && (fresh || !self.lazy) {
            // A leaf with enabled processes is a path the depth bound cut.
            self.result.truncated |= runnable_mask != 0;
            self.result.paths += u64::from(fresh);
        }
        let backtrack = match owed {
            _ if !self.lazy => 0,
            Some(owed) => owed,
            None if leaf => 0,
            // Seed from the lowest non-sleeping enabled process; the closure
            // still ranges over everything enabled, but sleeping members are
            // filtered out of the promise (their coverage is owned by the
            // path that put them to sleep).
            None => {
                runnable
                    .iter()
                    .find(|q| sleep & mask_of(&[**q]) == 0)
                    .map(|seed| persistent_closure(&state, &runnable, *seed))
                    .unwrap_or(0)
                    & !sleep
            }
        };
        if let (true, Some((key, relabel))) = (fresh, &promise) {
            // Promise: everything enabled outside the (sleep-filtered)
            // backtrack set is *not* covered here.
            self.seen
                .promise(*key, relabel_mask(runnable_mask & !backtrack, relabel));
        }
        let bytes = entry_bytes(&state, depth);
        self.frames.push(Frame {
            state: Some(state),
            taken: ProcessId(0),
            taken_op: None,
            bytes,
            runnable_mask,
            sleep,
            fresh,
            backtrack,
            done: 0,
            promise,
            children: Vec::new(),
        });
        self.resident += bytes;
        let flow = if self.lazy || leaf {
            ControlFlow::Continue(())
        } else {
            // Fresh frames expand everything enabled outside their sleep
            // set; revisits exactly the transitions still owed. (Enabledness
            // is monotone — a process stays enabled until it steps — so
            // both masks only name runnable processes.)
            self.expand_eagerly(&runnable, owed.unwrap_or(runnable_mask & !sleep))
        };
        self.result.frontier_peak = self.result.frontier_peak.max(self.frames.len() as u64);
        self.logical_peak = self.logical_peak.max(self.resident + self.spilled_logical);
        flow
    }

    /// Steps every `targets` transition of the (just entered) top frame,
    /// checks each successor, and records the admitted ones as children.
    fn expand_eagerly(&mut self, runnable: &[ProcessId], targets: u64) -> ControlFlow<()> {
        let top = self.frames.len() - 1;
        let frame = &self.frames[top];
        let state = frame.state.as_ref().expect("an entered frame is resident");
        let sleep_sets = matches!(self.seen, Seen::Masks(_));
        let mut sleep_cur = frame.sleep;
        let mut children = Vec::new();
        for &process in runnable {
            let bit = 1u64 << process.index();
            if targets & bit == 0 {
                continue;
            }
            self.result.expansions += 1;
            let mut next = state.clone();
            next.step(process);
            if let Some(description) = (self.predicate)(&next) {
                let mut schedule = path_schedule(&self.frames[..top]);
                schedule.push(process);
                return self.violation(schedule, description);
            }
            // The successor sleeps on every still-independent member of the
            // *current* sleep set — which grows by each transition expanded
            // from this state, so later siblings sleep on earlier ones.
            let sleep = if sleep_sets {
                successor_sleep_from(state, process, &next, sleep_cur)
            } else {
                0
            };
            if let Some(claim) = self.seen.claim(&self.plan, &next, sleep) {
                children.push(Child {
                    process,
                    sleep,
                    owed: claim.owed,
                    orbit: claim.orbit,
                });
            }
            // The transition was expanded (or its target's coverage is
            // promised elsewhere): later siblings may sleep on it.
            sleep_cur |= bit;
        }
        self.frames[top].children = children;
        ControlFlow::Continue(())
    }

    /// Expands the lowest pending backtrack transition of persistent-set
    /// frame `top`, runs race detection for the successor and enters it
    /// unless the seen structure already covers it.
    fn expand_lazily(&mut self, top: usize) -> ControlFlow<()> {
        let frame = &mut self.frames[top];
        let todo = frame.backtrack & !frame.done;
        let bit = todo & todo.wrapping_neg();
        let process = ProcessId(bit.trailing_zeros() as usize);
        frame.done |= bit;
        let state = frame.state.as_ref().expect("the top frame is resident");
        let taken_op = state.poised(process);
        let mut next = state.clone();
        next.step(process);
        // The successor sleeps on still-independent previously expanded
        // siblings (done ∖ {bit}) and inherited sleepers.
        let sleep = successor_sleep_from(state, process, &next, frame.sleep | (frame.done & !bit));
        frame.taken_op = taken_op;
        frame.taken = process;
        self.result.expansions += 1;
        self.result.persistent_expanded += 1;
        if let Some(description) = (self.predicate)(&next) {
            // `next` sits one step above the top frame: the whole path.
            return self.violation(path_schedule(&self.frames), description);
        }
        // Flanagan–Godefroid race detection, run for EVERY generated
        // successor (entered or dedup-pruned): each process enabled at the
        // successor is raced against the ops executed along the current
        // path — frame `top`'s op is the one just taken. The *last*
        // dependent frame gains the process in its backtrack set. No
        // happens-before check beyond program order is attempted (skipping
        // one only errs toward more exploration), and program order needs
        // no explicit test: if `q`'s own last op is dependent with its next
        // one, the frame that executed it has `q` in `done` and the scan
        // stops there; if independent (a no-op prelude, say), the scan
        // correctly ranges past it to older conflicting frames.
        for q in next.runnable() {
            let q_bit = mask_of(&[q]);
            let q_op = next.poised(q);
            for frame in self.frames.iter_mut().rev() {
                // An op we cannot judge is treated as dependent.
                let dependent = match (&frame.taken_op, &q_op) {
                    (Some(t), Some(o)) => !independent(t, o),
                    _ => true,
                };
                if !dependent {
                    continue;
                }
                if (frame.backtrack | frame.done | frame.sleep) & q_bit == 0 {
                    debug_assert!(
                        frame.runnable_mask & q_bit != 0,
                        "enabledness is monotone: a process enabled deeper is enabled here"
                    );
                    frame.backtrack |= q_bit;
                    // The frame now promises this transition too.
                    let (key, relabel) = frame.promise.as_ref().expect("lazy frames promise");
                    self.seen.cover(key, relabel_mask(q_bit, relabel));
                }
                break;
            }
        }
        let Some(claim) = self.seen.claim(&self.plan, &next, sleep) else {
            return ControlFlow::Continue(());
        };
        let promise = Some((claim.key, claim.relabel));
        self.enter(next, sleep, claim.owed, claim.orbit, promise)
    }

    /// Leaves the finished top frame.
    fn pop(&mut self) {
        let frame = self.frames.pop().expect("the top frame exists");
        self.resident -= frame.bytes;
        // The popped frame sat at depth `frames.len()`.
        let at_bound = self.frames.len() as u64 >= self.config.max_depth;
        if self.lazy && frame.fresh && frame.runnable_mask != 0 && !at_bound {
            // Enabled, unslept, never expanded: the roots of the subtrees
            // the persistent set proved redundant.
            self.result.states_cut +=
                (frame.runnable_mask & !frame.done & !frame.sleep).count_ones() as u64;
        }
    }

    /// Over the resident cap with spill on: freezes the coldest half of the
    /// still-resident frames (never the top — it is about to be expanded)
    /// into a sealed segment. Masks, children and taken steps stay
    /// resident, so race additions keep working and the path still spells
    /// every frozen frame's schedule; only the executor bytes leave memory.
    /// Each record holds just the schedule reaching its frame, which the
    /// thaw checks against the path.
    fn spill(&mut self) {
        let cap = self.config.max_resident_bytes;
        let live = self.frames.len() - self.frozen_below;
        if !self.config.spill || cap == 0 || self.resident <= cap || live < 2 {
            return;
        }
        let dir = self
            .spill_dir
            .get_or_insert_with(|| SpillDir::fresh().expect("creating the spill directory"));
        // Segments are numbered by the frames frozen before them: unique,
        // since every segment holds at least one.
        let seq = self.result.spilled_entries;
        let path = dir.file(&format!("dfs-{seq:08}.seg"));
        let mut writer = SegmentWriter::create(&path, SegmentKind::FrontierLevel, seq)
            .expect("creating a DFS spill segment");
        let start = self.frozen_below;
        let count = live / 2;
        // One record buffer walks up the path: its schedule is the prefix
        // reaching each frame in turn.
        let mut record = FrontierRecord {
            schedule: path_schedule(&self.frames[..start]),
            ..FrontierRecord::default()
        };
        for frame in &mut self.frames[start..start + count] {
            writer
                .append(&encode_frontier_record(&record))
                .expect("writing a DFS spill record");
            record.schedule.push(frame.taken);
            frame.state = None;
            self.resident -= frame.bytes;
            self.spilled_logical += frame.bytes;
        }
        writer.finish().expect("sealing a DFS spill segment");
        self.segments.push((path, start, count));
        self.frozen_below = start + count;
        self.result.spilled_entries += count as u64;
    }

    /// The DFS popped back down into a frozen range: thaws the most
    /// recently sealed segment (it covers exactly the frames up to and
    /// including the current top). The resident path is authoritative:
    /// each state is rebuilt by replaying the path prefix, one step past
    /// the frame below, and a record whose schedule disagrees with that
    /// prefix stops the search rather than resume from a state the path
    /// does not reach.
    fn thaw(&mut self) {
        let (path, start, count) = self.segments.pop().expect("frozen frames have a segment");
        debug_assert_eq!(start + count, self.frames.len());
        let (_tag, records) = read_segment(&path, SegmentKind::FrontierLevel)
            .expect("reading back a spilled DFS segment");
        let _ = std::fs::remove_file(&path);
        assert_eq!(
            records.len(),
            count,
            "spilled DFS segment {} holds the wrong number of frames",
            path.display()
        );
        let mut prefix = path_schedule(&self.frames[..start]);
        let mut state = replay(self.initial, &prefix);
        for (offset, record) in records.iter().enumerate() {
            let depth = start + offset;
            if offset > 0 {
                let taken = self.frames[depth - 1].taken;
                state.step(taken);
                prefix.push(taken);
            }
            let frozen = decode_frontier_record(record, self.initial.process_count())
                .expect("decoding a spilled DFS record");
            assert!(
                frozen.schedule == prefix,
                "spilled DFS segment {} records schedule {:?} for the frame at depth \
                 {depth}, but the resident path reaches it by {:?}",
                path.display(),
                frozen.schedule,
                prefix
            );
            let frame = &mut self.frames[depth];
            self.resident += frame.bytes;
            self.spilled_logical = self.spilled_logical.saturating_sub(frame.bytes);
            frame.state = Some(state.clone());
        }
        self.frozen_below = self.segments.last().map_or(0, |(_, s, c)| s + c);
    }
}

/// The schedule reaching the frame above `frames`: the processes each frame
/// of a path stack took.
fn path_schedule<A: Automaton>(frames: &[Frame<A>]) -> Vec<ProcessId> {
    frames.iter().map(|frame| frame.taken).collect()
}

/// Convenience predicate: fail whenever more than `k` distinct values have
/// been decided in any instance (the k-Agreement safety property).
///
/// The closure is `Fn + Sync`, so one definition serves both [`explore`]
/// (which accepts any `FnMut`) and
/// [`parallel_explore`](crate::parallel_explore).
pub fn agreement_predicate<A>(k: usize) -> impl Fn(&Executor<A>) -> Option<String> + Sync
where
    A: Automaton,
    A::Value: Clone + Eq + Debug,
{
    move |executor: &Executor<A>| {
        for instance in executor.decisions().instances() {
            let outputs = executor.decisions().outputs(instance);
            if outputs.len() > k {
                return Some(format!(
                    "instance {instance} has {} distinct outputs {:?}, exceeding k = {k}",
                    outputs.len(),
                    outputs
                ));
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::toy::{RacyConsensus, ToyWriter};
    use sa_core::AnonymousSetAgreement;
    use sa_model::Params;

    /// The reference [`SplitHasher`] is pinned against: every write goes to
    /// both streams as it arrives, with no buffering.
    struct DirectSplitHasher {
        plain: DefaultHasher,
        salted: DefaultHasher,
    }

    impl KeyHasher for DirectSplitHasher {
        fn new() -> Self {
            let (plain, salted) = key_streams();
            DirectSplitHasher { plain, salted }
        }

        fn into_key(self) -> StateKey {
            StateKey([self.plain.finish(), self.salted.finish()])
        }
    }

    impl Hasher for DirectSplitHasher {
        fn write(&mut self, bytes: &[u8]) {
            self.plain.write(bytes);
            self.salted.write(bytes);
        }

        fn finish(&self) -> u64 {
            self.plain.finish()
        }
    }

    /// The one-shot anonymous algorithm on an `n`/`m`/`k` cell with
    /// distinct inputs.
    fn anon_cell(n: usize, m: usize, k: usize) -> Executor<AnonymousSetAgreement> {
        let params = Params::new(n, m, k).expect("valid cell");
        Executor::new(
            (0..n)
                .map(|p| AnonymousSetAgreement::one_shot(params, p as u64 + 1))
                .collect(),
        )
    }

    /// States met by seeded random walks of `initial`, every other step.
    fn random_walk_states<A>(initial: &Executor<A>, seed: u64, walks: usize) -> Vec<Executor<A>>
    where
        A: Automaton + Clone,
        A::Value: Clone + Eq + Debug,
    {
        let mut x = seed | 1;
        let mut states = Vec::new();
        for _ in 0..walks {
            let mut state = initial.clone();
            for step in 0..400 {
                let runnable = state.runnable();
                if runnable.is_empty() {
                    break;
                }
                if step % 2 == 0 {
                    states.push(state.clone());
                }
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                state.step(runnable[(x % runnable.len() as u64) as usize]);
            }
            states.push(state);
        }
        states
    }

    #[test]
    fn explorer_verifies_trivially_safe_system() {
        // Two independent writers can never violate 2-agreement.
        let exec = Executor::new(vec![ToyWriter::new(0, 1), ToyWriter::new(1, 2)]);
        let result = explore(&exec, ExploreConfig::default(), agreement_predicate(2));
        assert!(result.verified(), "unexpected result: {result:?}");
        assert!(result.states_visited > 0);
    }

    #[test]
    fn explorer_finds_the_racy_interleaving() {
        // RacyConsensus violates 1-agreement only when both processes read
        // before either writes; the explorer must find that schedule.
        let exec = Executor::new(vec![
            RacyConsensus::new(ProcessId(0), 10),
            RacyConsensus::new(ProcessId(1), 20),
        ]);
        let result = explore(&exec, ExploreConfig::default(), agreement_predicate(1));
        let violation = result.violation.expect("the race must be found");
        assert!(violation.description.contains("exceeding k = 1"));
        // The violating schedule necessarily lets both processes read first.
        assert!(violation.schedule.len() >= 3);
    }

    #[test]
    fn racy_consensus_satisfies_two_agreement() {
        let exec = Executor::new(vec![
            RacyConsensus::new(ProcessId(0), 10),
            RacyConsensus::new(ProcessId(1), 20),
        ]);
        let result = explore(&exec, ExploreConfig::default(), agreement_predicate(2));
        assert!(result.verified());
    }

    #[test]
    fn explorer_checks_the_initial_configuration() {
        // A predicate that rejects ONLY the initial configuration (before
        // any step is taken): pre-fix, the explorer never evaluated the
        // predicate on the root, so this system read as `verified`.
        let exec = Executor::new(vec![ToyWriter::new(0, 1), ToyWriter::new(1, 2)]);
        let result = explore(&exec, ExploreConfig::default(), |e| {
            (e.steps() == 0).then(|| "the initial configuration is rejected".to_string())
        });
        assert!(!result.verified());
        assert_eq!(result.states_visited, 1);
        let violation = result
            .violation
            .expect("a depth-0 violation must be reported");
        assert!(
            violation.schedule.is_empty(),
            "the witnessing schedule for a root violation is empty, got {:?}",
            violation.schedule
        );
        assert!(violation.description.contains("initial configuration"));
    }

    #[test]
    fn depth_bound_reports_truncation() {
        let exec = Executor::new(vec![ToyWriter::new(0, 1), ToyWriter::new(1, 2)]);
        let result = explore(&exec, ExploreConfig::with_depth(1), agreement_predicate(2));
        assert!(result.truncated);
        assert!(!result.verified());
        assert_eq!(result.max_depth_reached, 1, "depth bound caps the search");
    }

    #[test]
    fn max_depth_reached_spans_the_full_run_when_exhausted() {
        // Two ToyWriters halt after 2 steps each: the deepest maximal path
        // is exactly 4 steps, and exhausting the space must report it.
        let exec = Executor::new(vec![ToyWriter::new(0, 1), ToyWriter::new(1, 2)]);
        let result = explore(&exec, ExploreConfig::default(), agreement_predicate(2));
        assert!(result.verified());
        assert_eq!(result.max_depth_reached, 4);
    }

    #[test]
    fn state_limit_reports_truncation() {
        let exec = Executor::new(vec![ToyWriter::new(0, 1), ToyWriter::new(1, 2)]);
        let config = ExploreConfig {
            max_states: 2,
            ..ExploreConfig::default()
        };
        let result = explore(&exec, config, agreement_predicate(2));
        assert!(result.truncated);
        assert_eq!(result.states_visited, 2, "the budget itself is honored");
    }

    #[test]
    fn exact_state_budget_is_exhausted_not_truncated() {
        // The 2-writer space has a known, fixed size; a budget of exactly
        // that size must report an exhausted (verified) search. Pre-fix, the
        // `>=`-after-increment comparison flagged it as truncated.
        let exec = Executor::new(vec![ToyWriter::new(0, 1), ToyWriter::new(1, 2)]);
        let space = explore(&exec, ExploreConfig::default(), agreement_predicate(2));
        assert!(space.verified());
        let exact = ExploreConfig {
            max_states: space.states_visited,
            ..ExploreConfig::default()
        };
        let result = explore(&exec, exact, agreement_predicate(2));
        assert!(
            result.verified(),
            "a budget of exactly the space size ({}) must exhaust, got {result:?}",
            space.states_visited
        );
        assert_eq!(result.states_visited, space.states_visited);

        // One state fewer genuinely truncates.
        let short = ExploreConfig {
            max_states: space.states_visited - 1,
            ..ExploreConfig::default()
        };
        let result = explore(&exec, short, agreement_predicate(2));
        assert!(result.truncated);
        assert!(!result.verified());
    }

    #[test]
    fn state_keys_are_wide_and_distinguish_states() {
        // Regression shape for the 64-bit dedup keys: the seen-set key is
        // 128 bits wide, its halves are independently salted, and distinct
        // reachable states produce distinct keys. (The pre-fix code had a
        // single `u64` key, so this test did not even compile against it.)
        assert_eq!(std::mem::size_of::<StateKey>(), 16);
        let mut exec = Executor::new(vec![ToyWriter::new(0, 1), ToyWriter::new(1, 2)]);
        let root = state_key(&exec);
        assert_ne!(
            root.parts()[0],
            root.parts()[1],
            "the salt must decorrelate the two halves"
        );
        exec.step(ProcessId(0));
        let stepped = state_key(&exec);
        assert_ne!(root, stepped);
        // Keys are pure functions of the state.
        assert_eq!(stepped, state_key(&exec));
        // Shards are a prefix of the first half and stay in range.
        assert!(root.shard(64) < 64);
    }

    #[test]
    fn buffered_split_hasher_matches_direct_writes() {
        // Each case writes one byte stream in a different chunking; the
        // buffered hasher must agree with the direct reference at every
        // point, unsalted half included.
        let long: Vec<u8> = (0..3 * SPLIT_BUFFER + 7).map(|i| (i * 31) as u8).collect();
        let cases: Vec<Vec<&[u8]>> = vec![
            vec![],
            vec![&[], &[], &[]],
            // Writes that fill the buffer exactly, then straddle its edge.
            vec![&long[..SPLIT_BUFFER], &long[..1], &[]],
            vec![
                &long[..SPLIT_BUFFER - 3],
                &long[..8],
                &long[..SPLIT_BUFFER - 1],
            ],
            vec![&long[..1]; 3 * SPLIT_BUFFER + 1],
            // One write longer than the buffer, before and after buffered
            // bytes.
            vec![&long],
            vec![
                &long[..5],
                &long,
                &[],
                &long[..SPLIT_BUFFER + 1],
                &long[..2],
            ],
        ];
        for chunks in &cases {
            let mut buffered = SplitHasher::new();
            let mut direct = DirectSplitHasher::new();
            for chunk in chunks {
                buffered.write(chunk);
                direct.write(chunk);
                assert_eq!(buffered.finish(), direct.finish());
            }
            assert_eq!(buffered.into_key(), direct.into_key());
        }
        // `str` hashing goes through `Hasher::write_str`, integers through
        // the fixed-width writers.
        let mut buffered = SplitHasher::new();
        let mut direct = DirectSplitHasher::new();
        for (i, text) in ["", "a", "straddling", &"x".repeat(SPLIT_BUFFER + 9)]
            .iter()
            .enumerate()
        {
            text.hash(&mut buffered);
            text.hash(&mut direct);
            (i as u64).hash(&mut buffered);
            (i as u64).hash(&mut direct);
            (i as u8).hash(&mut buffered);
            (i as u8).hash(&mut direct);
        }
        assert_eq!(buffered.into_key(), direct.into_key());
    }

    #[test]
    fn buffered_state_keys_match_direct_writes() {
        // Plain and canonical keys of states of the 4/1/3 anonymous cell
        // are bit-identical to those of the direct-writing reference.
        let initial = anon_cell(4, 1, 3);
        let plan = SymmetryPlan::for_executor(&initial, SymmetryMode::ProcessIds);
        assert!(plan.applied() && !plan.is_trivial());
        let states = random_walk_states(&initial, 0x5eed, 32);
        assert!(states.len() > 200, "{} states", states.len());
        for state in &states {
            assert_eq!(
                state_key(state),
                state_key_with::<DirectSplitHasher, _>(state)
            );
            assert_eq!(
                canonical_state_key(state, &plan),
                canonical_state_key_with::<DirectSplitHasher, _>(state, &plan)
            );
        }
    }

    #[test]
    fn dedup_reduces_states_visited() {
        let exec = Executor::new(vec![
            ToyWriter::new(0, 1),
            ToyWriter::new(1, 2),
            ToyWriter::new(2, 3),
        ]);
        let with_dedup = explore(&exec, ExploreConfig::default(), agreement_predicate(3));
        let without = explore(
            &exec,
            ExploreConfig {
                dedup: false,
                ..ExploreConfig::default()
            },
            agreement_predicate(3),
        );
        assert!(with_dedup.verified() && without.verified());
        assert!(
            with_dedup.states_visited <= without.states_visited,
            "dedup should not increase the number of visited states"
        );
        assert_eq!(with_dedup.seen_entries, with_dedup.states_visited);
        assert_eq!(without.seen_entries, 0, "dedup off stores no keys");
    }

    #[test]
    fn symmetric_toy_writers_merge_under_process_id_symmetry() {
        // Two identical ToyWriters (same register, same value) are
        // interchangeable: the quotient halves the mixed-progress states.
        let exec = Executor::new(vec![ToyWriter::new(0, 7), ToyWriter::new(0, 7)]);
        let off = explore(&exec, ExploreConfig::default(), agreement_predicate(2));
        let sym = explore(
            &exec,
            ExploreConfig {
                symmetry: SymmetryMode::ProcessIds,
                ..ExploreConfig::default()
            },
            agreement_predicate(2),
        );
        assert!(off.verified() && sym.verified());
        assert!(!off.symmetry_applied);
        assert!(sym.symmetry_applied);
        assert!(
            sym.states_visited < off.states_visited,
            "equal-input slots must merge: {} !< {}",
            sym.states_visited,
            off.states_visited
        );
        // Equal-initial slots: every orbit member is reachable, so the
        // lower bound recovers the full state count exactly.
        assert_eq!(sym.full_states_lower_bound, off.states_visited);
        assert_eq!(off.full_states_lower_bound, off.states_visited);
    }

    #[test]
    fn id_carrying_slots_with_distinct_inputs_do_not_merge() {
        // RacyConsensus is IdCarrying: with distinct values the orbit
        // groups are singletons, so the quotient equals the full space and
        // the same witness is found.
        let exec = Executor::new(vec![
            RacyConsensus::new(ProcessId(0), 10),
            RacyConsensus::new(ProcessId(1), 20),
        ]);
        let off = explore(&exec, ExploreConfig::default(), agreement_predicate(1));
        let sym = explore(
            &exec,
            ExploreConfig {
                symmetry: SymmetryMode::ProcessIds,
                ..ExploreConfig::default()
            },
            agreement_predicate(1),
        );
        assert!(sym.symmetry_applied);
        assert_eq!(sym.violation, off.violation, "witness must not change");
        assert_eq!(sym.states_visited, off.states_visited);
        assert_eq!(sym.full_states_lower_bound, off.states_visited);

        // With equal values the two slots form one orbit group and merge.
        let uniform = Executor::new(vec![
            RacyConsensus::new(ProcessId(0), 5),
            RacyConsensus::new(ProcessId(1), 5),
        ]);
        let off = explore(&uniform, ExploreConfig::default(), agreement_predicate(1));
        let sym = explore(
            &uniform,
            ExploreConfig {
                symmetry: SymmetryMode::ProcessIds,
                ..ExploreConfig::default()
            },
            agreement_predicate(1),
        );
        assert!(off.verified() && sym.verified());
        assert!(sym.states_visited < off.states_visited);
        assert_eq!(sym.full_states_lower_bound, off.states_visited);
    }

    #[test]
    fn opaque_automata_fall_back_to_plain_exploration() {
        use crate::toy::Spinner;
        // Spinner keeps the Opaque default, so the request must be refused
        // (fall back) and the results must equal a plain exploration.
        let exec = Executor::new(vec![Spinner::new(0), Spinner::new(1)]);
        let config = ExploreConfig {
            max_depth: 4,
            max_states: 10_000,
            ..ExploreConfig::default()
        };
        let off = explore(&exec, config, agreement_predicate(2));
        let requested = explore(
            &exec,
            ExploreConfig {
                symmetry: SymmetryMode::ProcessIds,
                ..config
            },
            agreement_predicate(2),
        );
        assert!(!requested.symmetry_applied, "Opaque must refuse symmetry");
        assert_eq!(requested.states_visited, off.states_visited);
        assert_eq!(requested.paths, off.paths);
        assert_eq!(requested.truncated, off.truncated);
        assert_eq!(requested.full_states_lower_bound, off.states_visited);
    }

    #[test]
    fn symmetry_requires_dedup() {
        let exec = Executor::new(vec![ToyWriter::new(0, 7), ToyWriter::new(0, 7)]);
        let result = explore(
            &exec,
            ExploreConfig {
                dedup: false,
                symmetry: SymmetryMode::ProcessIds,
                ..ExploreConfig::default()
            },
            agreement_predicate(2),
        );
        assert!(
            !result.symmetry_applied,
            "symmetry is a dedup strategy; without a seen-set it must fall back"
        );
        assert_eq!(result.full_states_lower_bound, result.states_visited);
    }

    #[test]
    fn canonical_keys_are_invariant_under_orbit_permutations() {
        use sa_model::IdRelabeling;
        let mut exec = Executor::new(vec![ToyWriter::new(0, 7), ToyWriter::new(0, 7)]);
        exec.step(ProcessId(1));
        let plan = SymmetryPlan::for_executor(&exec, SymmetryMode::ProcessIds);
        assert!(plan.applied());
        assert_eq!(plan.orbit_groups(), 1);
        assert!(!plan.is_trivial(), "a 2-slot orbit group can merge");
        // Distinct-input id-carrying slots form singleton groups: the plan
        // is trivial, so the explorers take the plain-key fast path.
        let distinct = Executor::new(vec![
            RacyConsensus::new(ProcessId(0), 10),
            RacyConsensus::new(ProcessId(1), 20),
        ]);
        let trivial = SymmetryPlan::for_executor(&distinct, SymmetryMode::ProcessIds);
        assert!(trivial.applied() && trivial.is_trivial());
        // A fallback plan degrades canonical keys to plain keys.
        let off = SymmetryPlan::for_executor(&exec, SymmetryMode::Off);
        assert!(!off.applied());
        assert_eq!(canonical_state_key(&exec, &off), (state_key(&exec), 1));
        let swap = IdRelabeling::swap(2, ProcessId(0), ProcessId(1));
        let swapped = exec.permuted(&swap);
        // The permuted configuration is a genuinely different state...
        assert_ne!(state_key(&exec), state_key(&swapped));
        // ...but canonicalization maps both to the same key and weight.
        assert_eq!(
            canonical_state_key(&exec, &plan),
            canonical_state_key(&swapped, &plan)
        );
        // Canonicalizing a canonical state is the identity.
        let canonical = exec.permuted(&plan.canonical_relabeling(&exec));
        assert!(plan.canonical_relabeling(&canonical).is_identity());
        assert_eq!(
            canonical_state_key(&canonical, &plan).0,
            canonical_state_key(&exec, &plan).0
        );
    }

    #[test]
    fn state_budget_preserves_pending_work() {
        // Budget of one state: the root is visited, its two children are
        // discovered and must BOTH remain pending. The pre-fix explorer
        // popped before checking the budget, so one discovered child was
        // silently discarded — neither visited, nor pending, nor counted —
        // which is unsound for checkpoint-resume accounting.
        let exec = Executor::new(vec![ToyWriter::new(0, 1), ToyWriter::new(1, 2)]);
        let config = ExploreConfig {
            max_states: 1,
            ..ExploreConfig::default()
        };
        let result = explore(&exec, config, agreement_predicate(2));
        assert!(result.truncated);
        assert_eq!(result.states_visited, 1);
        assert_eq!(
            result.pending_at_exit, 2,
            "both children of the root stay pending"
        );
        assert_eq!(
            result.frontier_semantics,
            FrontierSemantics::DfsStackDepth,
            "the serial explorer reports a DFS stack depth"
        );

        // An exhausted search has nothing pending.
        let exhausted = explore(&exec, ExploreConfig::default(), agreement_predicate(2));
        assert!(exhausted.verified());
        assert_eq!(exhausted.pending_at_exit, 0);
    }

    #[test]
    fn spill_mode_is_byte_identical_to_in_core() {
        let exec = Executor::new(vec![
            ToyWriter::new(0, 1),
            ToyWriter::new(1, 2),
            ToyWriter::new(2, 3),
        ]);
        let base = explore(&exec, ExploreConfig::default(), agreement_predicate(3));
        assert!(base.verified());
        assert_eq!(base.spilled_entries, 0);
        // A 1-byte resident budget forces a spill after every expansion.
        let spilled = explore(
            &exec,
            ExploreConfig {
                spill: true,
                max_resident_bytes: 1,
                ..ExploreConfig::default()
            },
            agreement_predicate(3),
        );
        assert!(
            spilled.spilled_entries > 0,
            "the tiny cap must force spills"
        );
        assert!(spilled.verified());
        assert_eq!(spilled.states_visited, base.states_visited);
        assert_eq!(spilled.paths, base.paths);
        assert_eq!(spilled.violation, base.violation);
        assert_eq!(spilled.truncated, base.truncated);
        assert_eq!(spilled.max_depth_reached, base.max_depth_reached);
        assert_eq!(spilled.frontier_peak, base.frontier_peak);
        assert_eq!(spilled.pending_at_exit, base.pending_at_exit);
        assert_eq!(spilled.seen_entries, base.seen_entries);
        assert_eq!(spilled.approx_bytes, base.approx_bytes);
        assert_eq!(
            spilled.full_states_lower_bound,
            base.full_states_lower_bound
        );
    }

    #[test]
    fn spill_mode_finds_the_same_violation() {
        let exec = Executor::new(vec![
            RacyConsensus::new(ProcessId(0), 10),
            RacyConsensus::new(ProcessId(1), 20),
        ]);
        let base = explore(&exec, ExploreConfig::default(), agreement_predicate(1));
        let spilled = explore(
            &exec,
            ExploreConfig {
                spill: true,
                max_resident_bytes: 1,
                ..ExploreConfig::default()
            },
            agreement_predicate(1),
        );
        assert_eq!(spilled.violation, base.violation, "witness must not change");
        assert_eq!(spilled.states_visited, base.states_visited);
    }

    #[test]
    fn memory_cap_without_spill_truncates_and_spill_rescues_it() {
        let exec = Executor::new(vec![
            ToyWriter::new(0, 1),
            ToyWriter::new(1, 2),
            ToyWriter::new(2, 3),
        ]);
        // Pick a cap below the cell's in-core peak but far above any single
        // entry, so the capped run makes real progress before giving up.
        let base = explore(&exec, ExploreConfig::default(), agreement_predicate(3));
        let cap = base.approx_bytes / 4;
        let capped_config = ExploreConfig {
            max_resident_bytes: cap,
            ..ExploreConfig::default()
        };
        let capped = explore(&exec, capped_config, agreement_predicate(3));
        assert!(capped.truncated, "an in-core run over budget must truncate");
        assert!(!capped.verified());
        assert!(capped.pending_at_exit > 0);
        // Deterministic: the same capped run yields the same report.
        let again = explore(&exec, capped_config, agreement_predicate(3));
        assert_eq!(capped.states_visited, again.states_visited);
        assert_eq!(capped.pending_at_exit, again.pending_at_exit);
        // The same budget with spill enabled exhausts the space.
        let rescued = explore(
            &exec,
            ExploreConfig {
                spill: true,
                ..capped_config
            },
            agreement_predicate(3),
        );
        assert!(
            rescued.verified(),
            "spill must let the capped cell exhaust: {rescued:?}"
        );
        assert!(rescued.spilled_entries > 0);
        assert_eq!(rescued.states_visited, base.states_visited);
    }

    #[test]
    fn deep_byte_accounting_charges_heap_payloads() {
        // ToyWriter states carry SimMemory registers: the deep estimate must
        // exceed the shallow per-entry struct sizes the pre-fix accounting
        // charged, and stay a pure function of the state.
        let exec = Executor::new(vec![ToyWriter::new(0, 1), ToyWriter::new(1, 2)]);
        let shallow = std::mem::size_of::<Executor<ToyWriter>>() as u64;
        assert!(
            exec.approx_deep_bytes() > shallow,
            "deep size must charge heap payloads beyond the struct shell"
        );
        assert_eq!(exec.approx_deep_bytes(), exec.clone().approx_deep_bytes());
        assert_eq!(entry_bytes(&exec, 3), entry_bytes(&exec, 3));
        assert!(entry_bytes(&exec, 3) > entry_bytes(&exec, 0));
    }

    #[test]
    fn memory_statistics_are_populated_and_deterministic() {
        let exec = Executor::new(vec![ToyWriter::new(0, 1), ToyWriter::new(1, 2)]);
        let a = explore(&exec, ExploreConfig::default(), agreement_predicate(2));
        let b = explore(&exec, ExploreConfig::default(), agreement_predicate(2));
        assert!(a.frontier_peak > 0);
        assert_eq!(a.seen_entries, a.states_visited);
        assert!(a.approx_bytes > 0);
        assert_eq!(
            (a.frontier_peak, a.seen_entries, a.approx_bytes),
            (b.frontier_peak, b.seen_entries, b.approx_bytes)
        );
    }

    /// `n` writers on distinct registers.
    fn writers(n: usize) -> Executor<ToyWriter> {
        Executor::new((0..n).map(|p| ToyWriter::new(p, p as u64 + 1)).collect())
    }

    #[test]
    #[should_panic(expected = "at most 64 processes")]
    fn explore_rejects_more_than_64_processes() {
        let config = ExploreConfig {
            max_states: 50,
            ..ExploreConfig::default()
        };
        explore(&writers(65), config, agreement_predicate(65));
    }

    #[test]
    fn explore_accepts_exactly_64_processes_under_every_reduction() {
        // Bit 63 is the last mask bit: a 64-process system must run (and
        // reduce) like any other, truncating at the tiny budget.
        for reduction in [
            ReductionMode::Off,
            ReductionMode::SleepSets,
            ReductionMode::PersistentSets,
        ] {
            let config = ExploreConfig {
                max_states: 50,
                reduction,
                ..ExploreConfig::default()
            };
            let result = explore(&writers(64), config, agreement_predicate(64));
            assert!(result.truncated, "{reduction:?}: {result:?}");
            assert_eq!(result.states_visited, 50, "{reduction:?}");
            assert_eq!(
                result.reduction_applied,
                reduction != ReductionMode::Off,
                "{reduction:?}"
            );
        }
    }

    #[test]
    fn sleep_sets_preserve_states_and_reduce_expansions() {
        // Three writers on distinct registers commute pairwise: sleep sets
        // must prune redundant orders while still visiting every state —
        // the soundness pin is states_visited invariance, the win is
        // measured on expansions.
        let exec = Executor::new(vec![
            ToyWriter::new(0, 1),
            ToyWriter::new(1, 2),
            ToyWriter::new(2, 3),
        ]);
        let off = explore(&exec, ExploreConfig::default(), agreement_predicate(3));
        let on = explore(
            &exec,
            ExploreConfig {
                reduction: ReductionMode::SleepSets,
                ..ExploreConfig::default()
            },
            agreement_predicate(3),
        );
        assert!(off.verified() && on.verified());
        assert!(!off.reduction_applied);
        assert!(on.reduction_applied);
        assert_eq!(on.states_visited, off.states_visited);
        assert_eq!(on.seen_entries, off.seen_entries);
        assert!(
            on.expansions < off.expansions,
            "sleep sets must prune expansions: {} !< {}",
            on.expansions,
            off.expansions
        );
        assert!(on.sleep_pruned > 0);
        assert_eq!(off.sleep_pruned, 0);
        // Deterministic: the same reduced run yields the same report.
        let again = explore(
            &exec,
            ExploreConfig {
                reduction: ReductionMode::SleepSets,
                ..ExploreConfig::default()
            },
            agreement_predicate(3),
        );
        assert_eq!(on.expansions, again.expansions);
        assert_eq!(on.sleep_pruned, again.sleep_pruned);
        assert_eq!(on.states_visited, again.states_visited);
    }

    #[test]
    fn sleep_sets_keep_the_racy_verdict() {
        // The dependent read/write pairs of RacyConsensus must never be
        // pruned: the reduced search still finds the 1-agreement violation
        // and visits the exact same set of states.
        let exec = Executor::new(vec![
            RacyConsensus::new(ProcessId(0), 10),
            RacyConsensus::new(ProcessId(1), 20),
        ]);
        let off = explore(&exec, ExploreConfig::default(), agreement_predicate(1));
        let on = explore(
            &exec,
            ExploreConfig {
                reduction: ReductionMode::SleepSets,
                ..ExploreConfig::default()
            },
            agreement_predicate(1),
        );
        assert!(on.reduction_applied);
        assert!(!off.verified() && !on.verified(), "both must find the race");
        // (states_visited at exit may differ: a violating search stops
        // early, and pruning changes the order states are reached in. The
        // invariance pin applies to exhausted spaces — see the other tests.)
        let witness = on.violation.expect("the race must still be found");
        assert!(witness.description.contains("exceeding k = 1"));
        // The witness replays to a genuine violation of the same predicate.
        let mut replayed = exec.clone();
        for &p in &witness.schedule {
            replayed.step(p);
        }
        assert!(agreement_predicate(1)(&replayed).is_some());
    }

    #[test]
    fn sleep_sets_compose_with_symmetry() {
        // Identical writers: symmetry quotients states, sleep sets prune
        // orders of the quotient — the reductions multiply.
        let exec = Executor::new(vec![
            ToyWriter::new(0, 7),
            ToyWriter::new(1, 7),
            ToyWriter::new(2, 9),
        ]);
        let sym_only = explore(
            &exec,
            ExploreConfig {
                symmetry: SymmetryMode::ProcessIds,
                ..ExploreConfig::default()
            },
            agreement_predicate(3),
        );
        let both = explore(
            &exec,
            ExploreConfig {
                symmetry: SymmetryMode::ProcessIds,
                reduction: ReductionMode::SleepSets,
                ..ExploreConfig::default()
            },
            agreement_predicate(3),
        );
        assert!(sym_only.verified() && both.verified());
        assert!(both.symmetry_applied && both.reduction_applied);
        assert_eq!(both.states_visited, sym_only.states_visited);
        assert_eq!(
            both.full_states_lower_bound,
            sym_only.full_states_lower_bound
        );
        assert!(
            both.expansions < sym_only.expansions,
            "sleep sets must prune on top of the symmetry quotient: {} !< {}",
            both.expansions,
            sym_only.expansions
        );
    }

    #[test]
    fn sleep_sets_require_dedup() {
        // Sleep-set promises live in the seen-map; without dedup the mode
        // must fall back and report it, leaving the plain results intact.
        let exec = Executor::new(vec![ToyWriter::new(0, 1), ToyWriter::new(1, 2)]);
        let plain = explore(
            &exec,
            ExploreConfig {
                dedup: false,
                ..ExploreConfig::default()
            },
            agreement_predicate(2),
        );
        let requested = explore(
            &exec,
            ExploreConfig {
                dedup: false,
                reduction: ReductionMode::SleepSets,
                ..ExploreConfig::default()
            },
            agreement_predicate(2),
        );
        assert!(!requested.reduction_applied);
        assert_eq!(requested.states_visited, plain.states_visited);
        assert_eq!(requested.expansions, plain.expansions);
        assert_eq!(requested.sleep_pruned, 0);
    }

    #[test]
    fn sleep_set_spill_is_byte_identical() {
        // Frontier spilling under reduction serializes sleep masks and
        // expansion promises through the record codec; draining them back
        // must change nothing but spilled_entries.
        let exec = Executor::new(vec![
            ToyWriter::new(0, 1),
            ToyWriter::new(1, 2),
            ToyWriter::new(2, 3),
        ]);
        let config = ExploreConfig {
            reduction: ReductionMode::SleepSets,
            ..ExploreConfig::default()
        };
        let base = explore(&exec, config, agreement_predicate(3));
        let spilled = explore(
            &exec,
            ExploreConfig {
                spill: true,
                max_resident_bytes: 1,
                ..config
            },
            agreement_predicate(3),
        );
        assert!(
            spilled.spilled_entries > 0,
            "the tiny cap must force spills"
        );
        assert!(spilled.verified());
        assert_eq!(spilled.states_visited, base.states_visited);
        assert_eq!(spilled.expansions, base.expansions);
        assert_eq!(spilled.sleep_pruned, base.sleep_pruned);
        assert_eq!(spilled.paths, base.paths);
        assert_eq!(spilled.max_depth_reached, base.max_depth_reached);
        assert_eq!(spilled.seen_entries, base.seen_entries);
    }

    #[test]
    fn persistent_sets_cut_states_below_sleep_sets() {
        // Three writers on distinct registers commute pairwise: a singleton
        // persistent set is dependency-closed, so the DPOR search explores
        // one interleaving where sleep sets still walk the whole product
        // lattice — the win is measured on *states*, not just expansions.
        let exec = Executor::new(vec![
            ToyWriter::new(0, 1),
            ToyWriter::new(1, 2),
            ToyWriter::new(2, 3),
        ]);
        let sleep = explore(
            &exec,
            ExploreConfig {
                reduction: ReductionMode::SleepSets,
                ..ExploreConfig::default()
            },
            agreement_predicate(3),
        );
        let dpor = explore(
            &exec,
            ExploreConfig {
                reduction: ReductionMode::PersistentSets,
                ..ExploreConfig::default()
            },
            agreement_predicate(3),
        );
        assert!(sleep.verified() && dpor.verified());
        assert!(dpor.reduction_applied);
        assert!(
            dpor.states_visited < sleep.states_visited,
            "persistent sets must cut states: {} !< {}",
            dpor.states_visited,
            sleep.states_visited
        );
        assert!(dpor.states_cut > 0);
        assert!(dpor.persistent_expanded > 0);
        assert_eq!(sleep.persistent_expanded, 0);
        assert_eq!(sleep.states_cut, 0);
        // Deterministic: the same reduced run yields the same report.
        let again = explore(
            &exec,
            ExploreConfig {
                reduction: ReductionMode::PersistentSets,
                ..ExploreConfig::default()
            },
            agreement_predicate(3),
        );
        assert_eq!(dpor.states_visited, again.states_visited);
        assert_eq!(dpor.expansions, again.expansions);
        assert_eq!(dpor.states_cut, again.states_cut);
        assert_eq!(dpor.persistent_expanded, again.persistent_expanded);
    }

    #[test]
    fn persistent_sets_keep_the_racy_verdict() {
        // RacyConsensus's read/write pairs are dependent: the backtrack sets
        // must grow until the violating interleaving is scheduled, and the
        // witness must replay to a genuine violation.
        let exec = Executor::new(vec![
            RacyConsensus::new(ProcessId(0), 10),
            RacyConsensus::new(ProcessId(1), 20),
        ]);
        let off = explore(&exec, ExploreConfig::default(), agreement_predicate(1));
        let on = explore(
            &exec,
            ExploreConfig {
                reduction: ReductionMode::PersistentSets,
                ..ExploreConfig::default()
            },
            agreement_predicate(1),
        );
        assert!(on.reduction_applied);
        assert!(!off.verified() && !on.verified(), "both must find the race");
        let witness = on.violation.expect("the race must still be found");
        assert!(witness.description.contains("exceeding k = 1"));
        let mut replayed = exec.clone();
        for &p in &witness.schedule {
            replayed.step(p);
        }
        assert!(agreement_predicate(1)(&replayed).is_some());
    }

    #[test]
    fn persistent_sets_compose_with_symmetry() {
        // Symmetry quotients states, persistent sets then cut redundant
        // interleavings of the quotient; the verified verdict must survive
        // the composition.
        let exec = Executor::new(vec![
            ToyWriter::new(0, 7),
            ToyWriter::new(1, 7),
            ToyWriter::new(2, 9),
        ]);
        let sym_only = explore(
            &exec,
            ExploreConfig {
                symmetry: SymmetryMode::ProcessIds,
                ..ExploreConfig::default()
            },
            agreement_predicate(3),
        );
        let both = explore(
            &exec,
            ExploreConfig {
                symmetry: SymmetryMode::ProcessIds,
                reduction: ReductionMode::PersistentSets,
                ..ExploreConfig::default()
            },
            agreement_predicate(3),
        );
        assert!(sym_only.verified() && both.verified());
        assert!(both.symmetry_applied && both.reduction_applied);
        assert!(
            both.states_visited < sym_only.states_visited,
            "persistent sets must cut orbit states too: {} !< {}",
            both.states_visited,
            sym_only.states_visited
        );
    }

    #[test]
    fn persistent_sets_require_dedup() {
        // The DPOR seen-map carries the backtrack promises; without dedup
        // the mode must fall back and report it.
        let exec = Executor::new(vec![ToyWriter::new(0, 1), ToyWriter::new(1, 2)]);
        let plain = explore(
            &exec,
            ExploreConfig {
                dedup: false,
                ..ExploreConfig::default()
            },
            agreement_predicate(2),
        );
        let requested = explore(
            &exec,
            ExploreConfig {
                dedup: false,
                reduction: ReductionMode::PersistentSets,
                ..ExploreConfig::default()
            },
            agreement_predicate(2),
        );
        assert!(!requested.reduction_applied);
        assert_eq!(requested.states_visited, plain.states_visited);
        assert_eq!(requested.expansions, plain.expansions);
        assert_eq!(requested.states_cut, 0);
        assert_eq!(requested.persistent_expanded, 0);
    }

    #[test]
    fn persistent_set_spill_finds_the_same_violation() {
        // Under a 1-byte resident cap the DPOR path stack freezes frames
        // after nearly every expansion, so the witness is spelled across
        // frozen frames; it must equal the in-core one and replay to a
        // genuine violation.
        let exec = Executor::new(vec![
            RacyConsensus::new(ProcessId(0), 10),
            RacyConsensus::new(ProcessId(1), 20),
            RacyConsensus::new(ProcessId(2), 30),
        ]);
        let config = ExploreConfig {
            reduction: ReductionMode::PersistentSets,
            ..ExploreConfig::default()
        };
        let base = explore(&exec, config, agreement_predicate(1));
        let spilled = explore(
            &exec,
            ExploreConfig {
                spill: true,
                max_resident_bytes: 1,
                ..config
            },
            agreement_predicate(1),
        );
        assert_eq!(base.spilled_entries, 0);
        assert!(
            spilled.spilled_entries > 0,
            "the tiny cap must force spills"
        );
        let witness = base.violation.expect("the race must be found in core");
        assert_eq!(
            spilled.violation.as_ref(),
            Some(&witness),
            "witness must not change"
        );
        assert_eq!(spilled.states_visited, base.states_visited);
        assert_eq!(spilled.expansions, base.expansions);
        assert_eq!(spilled.max_depth_reached, base.max_depth_reached);
        assert!(agreement_predicate(1)(&replay(&exec, &witness.schedule)).is_some());
    }

    #[test]
    fn persistent_set_spill_is_byte_identical() {
        // DPOR frames spill their schedules through the frontier record
        // codec while their backtrack/done masks stay resident; draining
        // them back must change nothing but spilled_entries.
        let exec = Executor::new(vec![
            RacyConsensus::new(ProcessId(0), 10),
            RacyConsensus::new(ProcessId(1), 10),
        ]);
        let config = ExploreConfig {
            reduction: ReductionMode::PersistentSets,
            ..ExploreConfig::default()
        };
        let base = explore(&exec, config, agreement_predicate(2));
        let spilled = explore(
            &exec,
            ExploreConfig {
                spill: true,
                max_resident_bytes: 1,
                ..config
            },
            agreement_predicate(2),
        );
        assert!(
            spilled.spilled_entries > 0,
            "the tiny cap must force spills"
        );
        assert!(base.verified() && spilled.verified());
        assert_eq!(spilled.states_visited, base.states_visited);
        assert_eq!(spilled.expansions, base.expansions);
        assert_eq!(spilled.states_cut, base.states_cut);
        assert_eq!(spilled.persistent_expanded, base.persistent_expanded);
        assert_eq!(spilled.paths, base.paths);
        assert_eq!(spilled.max_depth_reached, base.max_depth_reached);
        assert_eq!(spilled.seen_entries, base.seen_entries);
    }
}
