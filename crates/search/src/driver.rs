//! The deterministic goal-directed search driver.
//!
//! A level-synchronized breadth-first search over schedule space, built on
//! the same state machinery as the exhaustive explorers: configurations are
//! deduplicated by their (optionally symmetry-canonicalized) 128-bit
//! [`StateKey`], every first-visited configuration is evaluated against the
//! configured [`WitnessGoal`](crate::goal::WitnessGoal), and the best
//! witness is kept under a total order — most registers, then widest
//! covering, then shallowest depth, then lexicographically smallest
//! schedule. Levels are expanded in contiguous chunks across worker
//! threads and merged back in submission order, so the report (and the
//! campaign JSONL built from it) is **byte-identical at any thread count**;
//! a serial search is simply the one-chunk case of the same merge.
//!
//! With [`ReductionMode::SleepSets`] the search additionally prunes
//! commuting interleavings through the same footprint-based independence
//! relation the exhaustive explorers use. Sleep sets still visit every
//! reachable configuration, so on an exhausted space the set of evaluated
//! configurations — and hence whether a witness structure exists — is
//! unchanged; only [`SearchReport::expansions`] shrinks. The *champion*
//! witness may differ from the unreduced search's (states can be first
//! reached along different schedules, and on truncated searches along
//! deeper ones), which is why the report always re-verifies it by replay.

use crate::goal::{goal_for, GoalMeasure};
use crate::witness::{verify, Certificate, Witness};
use sa_model::{Automaton, IdRelabeling, ProcessId};
use sa_runtime::{
    check_process_count, keyed, keyed_relabeled, mask_of, persistent_set, persistent_set_applies,
    relabel_mask, successor_sleep_from, unrelabel_mask, Executor, ReductionMode, SearchConfig,
    SearchGoal, StateKey, SymmetryPlan,
};
use std::collections::{HashMap, HashSet};
use std::fmt::Debug;
use std::hash::Hash;

/// Why an adversary search stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SearchStop {
    /// A witness with at least `target_registers` registers was found (the
    /// level it was found in was finished first, so the result is the best
    /// witness of that level).
    TargetReached,
    /// Every reachable configuration within the depth bound was visited.
    StateSpaceExhausted,
    /// A state or depth budget ran out while work remained.
    Truncated,
}

impl SearchStop {
    /// A short identifier used in records and reports.
    pub fn label(&self) -> &'static str {
        match self {
            SearchStop::TargetReached => "target-reached",
            SearchStop::StateSpaceExhausted => "state-space-exhausted",
            SearchStop::Truncated => "truncated",
        }
    }
}

/// The result of one adversary search.
#[derive(Debug, Clone)]
pub struct SearchReport {
    /// The goal that was searched for.
    pub goal: SearchGoal,
    /// The register target (`0` = none: search the whole budgeted space).
    pub target_registers: usize,
    /// The worker threads the levels were expanded over.
    pub threads: usize,
    /// Distinct configurations visited (orbit representatives under
    /// symmetry reduction).
    pub states_visited: u64,
    /// The deepest BFS level a first-visit configuration was found at.
    pub max_depth_reached: u64,
    /// `true` if a budget ran out while unexplored work remained.
    pub truncated: bool,
    /// `true` if the target register count was reached.
    pub target_reached: bool,
    /// `true` if configurations were canonicalized up to process-id orbits
    /// before deduplication.
    pub symmetry_applied: bool,
    /// `true` if sleep-set partial-order reduction was active (requested
    /// on a system with at least one process).
    pub reduction_applied: bool,
    /// Successor expansions performed. Sleep sets shrink **this** figure;
    /// `states_visited` is invariant on exhausted spaces.
    pub expansions: u64,
    /// Expansions skipped because the stepping process was asleep.
    pub sleep_pruned: u64,
    /// Expansions performed at states where the persistent-set cut applied
    /// (0 unless [`ReductionMode::PersistentSets`] was active).
    pub persistent_expanded: u64,
    /// Enabled transitions left permanently unexpanded by persistent-set
    /// selection — roots of subtrees proven redundant (0 without
    /// persistent-set reduction).
    pub states_cut: u64,
    /// Why the search stopped.
    pub stop: SearchStop,
    /// The best witness found, if any.
    pub witness: Option<Witness>,
    /// `true` if the emitted witness (when there is one) replayed to an
    /// identical certificate — the driver's own verification pass.
    pub verified: bool,
}

/// One expansion chunk's output: candidates plus the chunk's expansion,
/// sleep-pruned, persistent-expanded and states-cut counters.
type ChunkExpansion<A> = (Vec<Candidate<A>>, u64, u64, u64, u64);

/// A successor produced by expanding one frontier entry. `sleep_canon` is
/// the successor's sleep set in canonical coordinates (so masks from
/// different members of one orbit are comparable); `relabel` maps back.
struct Candidate<A: Automaton> {
    key: StateKey,
    state: Executor<A>,
    schedule: Vec<ProcessId>,
    hit: Option<GoalMeasure>,
    sleep_canon: u64,
    relabel: IdRelabeling,
}

/// One frontier entry: a configuration, the schedule reaching it, its sleep
/// set (original coordinates) and, for a *revisit* of a seen state, the
/// exact target mask still owed to the stored-mask promise.
struct Frontier<A: Automaton> {
    state: Executor<A>,
    schedule: Vec<ProcessId>,
    sleep: u64,
    expand: Option<u64>,
}

/// `true` when `candidate` beats `best` under the witness order: most
/// registers, then widest covering, then shallowest, then lexicographically
/// smallest schedule.
fn better(candidate: &Witness, best: &Witness) -> bool {
    let c = &candidate.certificate;
    let b = &best.certificate;
    (
        c.registers,
        c.registers_covered,
        std::cmp::Reverse(c.depth),
        std::cmp::Reverse(candidate.schedule.clone()),
    ) > (
        b.registers,
        b.registers_covered,
        std::cmp::Reverse(b.depth),
        std::cmp::Reverse(best.schedule.clone()),
    )
}

/// Runs a goal-directed adversary search from `initial`.
///
/// The search visits configurations breadth-first up to
/// [`SearchConfig::max_depth`] steps and [`SearchConfig::max_states`]
/// distinct configurations, evaluating the goal on every first visit. With
/// a non-zero [`SearchConfig::target_registers`] it stops at the end of the
/// first level containing a witness with at least that many registers;
/// otherwise it searches the whole budgeted space for the best witness.
/// The emitted witness is replay-verified before the report is returned.
///
/// # Panics
///
/// Panics if the system has more than
/// [`MAX_PROCESSES`](sa_runtime::MAX_PROCESSES) processes.
pub fn search<A>(initial: &Executor<A>, config: SearchConfig) -> SearchReport
where
    A: Automaton + Clone + Hash + Send + Sync,
    A::Value: Hash + Clone + Eq + Debug + Send + Sync,
{
    let n = initial.process_count();
    check_process_count(n);
    let plan = SymmetryPlan::for_executor(initial, config.symmetry);
    let goal = goal_for::<A>(config.goal);
    let threads = config.threads.max(1);
    let reduce = matches!(
        config.reduction,
        ReductionMode::SleepSets | ReductionMode::PersistentSets
    ) && n > 0;
    // Persistent-set cuts on top of the sleep discipline: with no DFS path
    // to backtrack over, the cut is taken only at states where it is
    // locally provable (every non-member halts after its poised op — see
    // `persistent_set_applies`), where pset-first expansion covers every
    // behavior of the acyclic state graph. Both checks are pure functions
    // of the configuration, preserving thread-count byte-identity.
    let persistent = reduce && config.reduction == ReductionMode::PersistentSets;

    // Exactly one of these is used: a plain seen-set without reduction, a
    // stored-sleep-mask map (Godefroid's state-matching promises) with it.
    let mut seen: HashSet<StateKey> = HashSet::new();
    let mut masks: HashMap<StateKey, u64> = HashMap::new();
    let mut best: Option<Witness> = None;
    let mut states_visited: u64 = 0;
    let mut max_depth_reached: u64 = 0;
    let mut expansions: u64 = 0;
    let mut sleep_pruned: u64 = 0;
    let mut persistent_expanded: u64 = 0;
    let mut states_cut: u64 = 0;
    let mut truncated = false;

    let consider = |best: &mut Option<Witness>, schedule: &[ProcessId], measure: GoalMeasure| {
        let candidate = Witness {
            goal: config.goal,
            schedule: schedule.to_vec(),
            certificate: Certificate::from_measure(config.goal, schedule.len() as u64, measure),
        };
        if best.as_ref().is_none_or(|b| better(&candidate, b)) {
            *best = Some(candidate);
        }
    };

    // Depth 0: the initial configuration is visited (and measured) too.
    if reduce {
        masks.insert(keyed(initial, &plan).0, 0);
    } else {
        seen.insert(keyed(initial, &plan).0);
    }
    states_visited += 1;
    if let Some(measure) = goal.evaluate(initial) {
        consider(&mut best, &[], measure);
    }

    let mut frontier: Vec<Frontier<A>> = vec![Frontier {
        state: initial.clone(),
        schedule: Vec::new(),
        sleep: 0,
        expand: None,
    }];
    let mut depth: u64 = 0;
    let stop = loop {
        let target_reached = config.target_registers > 0
            && best
                .as_ref()
                .is_some_and(|w| w.certificate.registers >= config.target_registers);
        if target_reached {
            break SearchStop::TargetReached;
        }
        if frontier.is_empty() {
            break SearchStop::StateSpaceExhausted;
        }
        if depth >= config.max_depth {
            truncated = true;
            break SearchStop::Truncated;
        }

        // Expand the level in contiguous chunks, merged back in submission
        // order — the order is a pure function of the frontier, never of
        // the thread count.
        let chunk_count = threads.min(frontier.len());
        let chunk_size = frontier.len().div_ceil(chunk_count);
        let expand = |chunk: &[Frontier<A>]| -> ChunkExpansion<A> {
            let mut out = Vec::new();
            let mut stepped: u64 = 0;
            let mut pruned: u64 = 0;
            let mut pset_stepped: u64 = 0;
            let mut cut: u64 = 0;
            for entry in chunk {
                let runnable = entry.state.runnable();
                if reduce && entry.expand.is_none() {
                    pruned += (entry.sleep & mask_of(&runnable)).count_ones() as u64;
                }
                // A fresh entry expands everything outside its sleep set; a
                // revisit expands exactly the owed targets of its promise.
                let mut targets = entry.expand.unwrap_or(!entry.sleep);
                if persistent && entry.expand.is_none() {
                    let pset = persistent_set(&entry.state, &runnable);
                    if persistent_set_applies(&entry.state, pset, &runnable) {
                        let enabled = mask_of(&runnable) & targets;
                        cut += (enabled & !pset).count_ones() as u64;
                        pset_stepped += (enabled & pset).count_ones() as u64;
                        targets &= pset;
                    }
                }
                let mut sleep_cur = entry.sleep;
                for process in runnable {
                    if targets & (1u64 << process.index()) == 0 {
                        continue;
                    }
                    stepped += 1;
                    let mut successor = entry.state.clone();
                    successor.step(process);
                    let (key, sleep_canon, relabel) = if reduce {
                        let child_sleep =
                            successor_sleep_from(&entry.state, process, &successor, sleep_cur);
                        let (key, _weight, relabel) = keyed_relabeled(&successor, &plan);
                        (key, relabel_mask(child_sleep, &relabel), relabel)
                    } else {
                        (keyed(&successor, &plan).0, 0, IdRelabeling::identity(0))
                    };
                    if reduce {
                        sleep_cur |= 1u64 << process.index();
                    }
                    let hit = goal.evaluate(&successor);
                    let mut next_schedule = Vec::with_capacity(entry.schedule.len() + 1);
                    next_schedule.extend_from_slice(&entry.schedule);
                    next_schedule.push(process);
                    out.push(Candidate {
                        key,
                        state: successor,
                        schedule: next_schedule,
                        hit,
                        sleep_canon,
                        relabel,
                    });
                }
            }
            (out, stepped, pruned, pset_stepped, cut)
        };
        let merged: Vec<ChunkExpansion<A>> = if chunk_count == 1 {
            vec![expand(&frontier)]
        } else {
            std::thread::scope(|scope| {
                let handles: Vec<_> = frontier
                    .chunks(chunk_size)
                    .map(|chunk| scope.spawn(|| expand(chunk)))
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            })
        };

        depth += 1;
        let mut next: Vec<Frontier<A>> = Vec::new();
        let mut budget_hit = false;
        'merge: for (chunk, stepped, pruned, pset_stepped, cut) in merged {
            expansions += stepped;
            sleep_pruned += pruned;
            persistent_expanded += pset_stepped;
            states_cut += cut;
            for candidate in chunk {
                if reduce {
                    if let Some(&stored) = masks.get(&candidate.key) {
                        // Seen before: the arrival owes exactly the stored
                        // promises its own sleep set does not renew. Nothing
                        // owed — skip; otherwise shrink the promise and
                        // queue a revisit expanding exactly the owed set.
                        let owed = stored & !candidate.sleep_canon;
                        if owed == 0 {
                            continue;
                        }
                        masks.insert(candidate.key, stored & candidate.sleep_canon);
                        next.push(Frontier {
                            state: candidate.state,
                            schedule: candidate.schedule,
                            sleep: unrelabel_mask(candidate.sleep_canon, &candidate.relabel),
                            expand: Some(unrelabel_mask(owed, &candidate.relabel)),
                        });
                        continue;
                    }
                } else if seen.contains(&candidate.key) {
                    continue;
                }
                if states_visited >= config.max_states {
                    budget_hit = true;
                    break 'merge;
                }
                let sleep = if reduce {
                    masks.insert(candidate.key, candidate.sleep_canon);
                    unrelabel_mask(candidate.sleep_canon, &candidate.relabel)
                } else {
                    seen.insert(candidate.key);
                    0
                };
                states_visited += 1;
                max_depth_reached = depth;
                if let Some(measure) = candidate.hit {
                    consider(&mut best, &candidate.schedule, measure);
                }
                next.push(Frontier {
                    state: candidate.state,
                    schedule: candidate.schedule,
                    sleep,
                    expand: None,
                });
            }
        }
        if budget_hit {
            truncated = true;
            break SearchStop::Truncated;
        }
        frontier = next;
    };

    let target_reached = stop == SearchStop::TargetReached;
    let verified = match &best {
        Some(witness) => verify(initial, witness).is_ok(),
        None => true,
    };
    SearchReport {
        goal: config.goal,
        target_registers: config.target_registers,
        threads,
        states_visited,
        max_depth_reached,
        truncated,
        target_reached,
        symmetry_applied: plan.applied(),
        reduction_applied: reduce,
        expansions,
        sleep_pruned,
        persistent_expanded,
        states_cut,
        stop,
        witness: best,
        verified,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sa_runtime::toy::ToyWriter;
    use sa_runtime::SymmetryMode;

    #[test]
    #[should_panic(expected = "at most 64 processes")]
    fn search_rejects_more_than_64_processes() {
        let exec = Executor::new((0..65).map(|p| ToyWriter::new(p, p as u64 + 1)).collect());
        search(
            &exec,
            SearchConfig {
                max_states: 50,
                ..SearchConfig::default()
            },
        );
    }

    #[test]
    fn sleep_sets_keep_the_verdict_and_prune_expansions() {
        // On an exhausted space sleep sets still visit (and goal-evaluate)
        // every configuration: the best register count is invariant, only
        // the expansion count shrinks. The champion schedule may differ, so
        // both reports must replay-verify rather than compare witnesses.
        // Three writers on pairwise-distinct registers: every pair commutes,
        // so the reduction has real work to do.
        let exec = Executor::new(vec![
            ToyWriter::new(0, 1),
            ToyWriter::new(1, 2),
            ToyWriter::new(2, 3),
        ]);
        let config = SearchConfig {
            goal: SearchGoal::Covering,
            max_depth: 32,
            max_states: 1_000_000,
            ..SearchConfig::default()
        };
        let off = search(&exec, config);
        let on = search(
            &exec,
            SearchConfig {
                reduction: ReductionMode::SleepSets,
                ..config
            },
        );
        assert_eq!(off.stop, SearchStop::StateSpaceExhausted);
        assert_eq!(on.stop, SearchStop::StateSpaceExhausted);
        assert!(!off.reduction_applied && on.reduction_applied);
        assert_eq!(on.states_visited, off.states_visited);
        assert!(
            on.expansions < off.expansions,
            "sleep sets must prune expansions: {} !< {}",
            on.expansions,
            off.expansions
        );
        assert!(on.sleep_pruned > 0);
        assert_eq!(off.sleep_pruned, 0);
        let off_best = off.witness.expect("a covering must be found");
        let on_best = on.witness.expect("a covering must be found");
        assert_eq!(
            on_best.certificate.registers,
            off_best.certificate.registers
        );
        assert!(off.verified && on.verified);
    }

    #[test]
    fn reduced_search_is_thread_invariant() {
        // A symmetric same-register pair (dependent, mergeable orbit) plus
        // an independent writer: symmetry and sleep sets both engage, and
        // the merged report must stay byte-identical at any thread count.
        let exec = Executor::new(vec![
            ToyWriter::new(0, 7),
            ToyWriter::new(0, 7),
            ToyWriter::new(1, 9),
        ]);
        let config = SearchConfig {
            goal: SearchGoal::BlockWrite,
            max_depth: 32,
            max_states: 1_000_000,
            symmetry: SymmetryMode::ProcessIds,
            reduction: ReductionMode::SleepSets,
            ..SearchConfig::default()
        };
        let serial = search(&exec, config);
        assert!(serial.reduction_applied);
        for threads in [2, 8] {
            let parallel = search(&exec, SearchConfig { threads, ..config });
            assert_eq!(parallel.states_visited, serial.states_visited);
            assert_eq!(parallel.expansions, serial.expansions);
            assert_eq!(parallel.sleep_pruned, serial.sleep_pruned);
            assert_eq!(parallel.max_depth_reached, serial.max_depth_reached);
            assert_eq!(parallel.stop, serial.stop);
            let (a, b) = (&parallel.witness, &serial.witness);
            assert_eq!(
                a.as_ref().map(|w| (&w.schedule, &w.certificate)),
                b.as_ref().map(|w| (&w.schedule, &w.certificate)),
                "witness must be byte-identical at {threads} threads"
            );
        }
    }
}
