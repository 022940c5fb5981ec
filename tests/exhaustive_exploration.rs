//! Exhaustive (bounded) model checking of the paper's algorithms on tiny
//! configurations: k-agreement is checked in **every** interleaving up to a
//! depth bound, not just on sampled schedules.

use set_agreement::algorithms::{AnonymousSetAgreement, OneShotSetAgreement, RepeatedSetAgreement};
use set_agreement::model::{Params, ProcessId};
use set_agreement::runtime::{
    agreement_predicate, explore, Executor, ExploreConfig, ReductionMode, SymmetryMode,
};

#[test]
fn one_shot_consensus_is_safe_in_every_interleaving() {
    // 2 processes, m = k = 1, paper width 3: every interleaving up to depth 30
    // keeps agreement.
    let params = Params::new(2, 1, 1).unwrap();
    let automata: Vec<_> = (0..2)
        .map(|p| OneShotSetAgreement::new(params, ProcessId(p), 10 + p as u64))
        .collect();
    let exec = Executor::new(automata);
    let result = explore(&exec, ExploreConfig::with_depth(30), agreement_predicate(1));
    assert!(
        result.violation.is_none(),
        "violation found: {:?}",
        result.violation
    );
    assert!(result.states_visited > 100, "exploration was trivial");
}

#[test]
fn one_shot_three_process_set_agreement_is_safe_in_every_interleaving() {
    // 3 processes, 2-set agreement, m = 1: width 3. Depth-bounded exhaustive
    // check of 2-agreement.
    let params = Params::new(3, 1, 2).unwrap();
    let automata: Vec<_> = (0..3)
        .map(|p| OneShotSetAgreement::new(params, ProcessId(p), 10 + p as u64))
        .collect();
    let exec = Executor::new(automata);
    let result = explore(&exec, ExploreConfig::with_depth(22), agreement_predicate(2));
    assert!(
        result.violation.is_none(),
        "violation found: {:?}",
        result.violation
    );
}

#[test]
fn repeated_consensus_is_safe_in_every_interleaving() {
    let params = Params::new(2, 1, 1).unwrap();
    let automata: Vec<_> = (0..2)
        .map(|p| {
            RepeatedSetAgreement::new(params, ProcessId(p), vec![10 + p as u64, 20 + p as u64])
                .unwrap()
        })
        .collect();
    let exec = Executor::new(automata);
    let result = explore(&exec, ExploreConfig::with_depth(26), agreement_predicate(1));
    assert!(
        result.violation.is_none(),
        "violation found: {:?}",
        result.violation
    );
}

#[test]
fn under_provisioned_variant_has_a_reachable_violation() {
    // The same exhaustive search *does* find a violation once the snapshot is
    // stripped below the paper's width — the executable content of the lower
    // bound for this algorithm family.
    let params = Params::new(2, 1, 1).unwrap();
    let automata: Vec<_> = (0..2)
        .map(|p| OneShotSetAgreement::deficient(params, ProcessId(p), 10 + p as u64, 1).unwrap())
        .collect();
    let exec = Executor::new(automata);
    let result = explore(&exec, ExploreConfig::with_depth(40), agreement_predicate(1));
    let violation = result.violation.expect("a violation must be reachable");
    assert!(!violation.schedule.is_empty());
    assert!(violation.description.contains("distinct outputs"));
}

#[test]
fn exploration_reports_are_reproducible() {
    let params = Params::new(2, 1, 1).unwrap();
    let build = || {
        let automata: Vec<_> = (0..2)
            .map(|p| OneShotSetAgreement::new(params, ProcessId(p), 10 + p as u64))
            .collect();
        Executor::new(automata)
    };
    let a = explore(
        &build(),
        ExploreConfig::with_depth(20),
        agreement_predicate(1),
    );
    let b = explore(
        &build(),
        ExploreConfig::with_depth(20),
        agreement_predicate(1),
    );
    assert_eq!(a.states_visited, b.states_visited);
    assert_eq!(a.paths, b.paths);
    assert_eq!(a.violation, b.violation);
}

/// The serial traversal of the 3/1/2 anonymous one-shot cell (the
/// `exhaustive.spec` cell: distinct workload, depth bound 100,000) without
/// reduction and with sleep sets, each with and without process-id
/// symmetry. The figures were recorded from the sibling-stack explorer the
/// path-stack DFS replaced; any change in visit order moves
/// `max_depth_reached`, and any change in expansion or pruning moves the
/// other counts, so a traversal change fails here first.
#[test]
fn serial_traversal_of_the_anonymous_cell_is_pinned() {
    let params = Params::new(3, 1, 2).unwrap();
    let exec = Executor::new(
        (0..3)
            .map(|p| AnonymousSetAgreement::one_shot(params, 1000 + p as u64))
            .collect(),
    );
    // (reduction, symmetry, states, depth, expansions, sleep_pruned, paths)
    let pinned = [
        (
            ReductionMode::Off,
            SymmetryMode::Off,
            137_318,
            949,
            286_455,
            0,
            2_700,
        ),
        (
            ReductionMode::SleepSets,
            SymmetryMode::Off,
            137_318,
            1_287,
            233_686,
            79_686,
            2_700,
        ),
        (
            ReductionMode::Off,
            SymmetryMode::ProcessIds,
            21_137,
            401,
            57_708,
            0,
            9,
        ),
        (
            ReductionMode::SleepSets,
            SymmetryMode::ProcessIds,
            21_137,
            415,
            46_896,
            16_813,
            9,
        ),
    ];
    for (reduction, symmetry, states, depth, expansions, sleep_pruned, paths) in pinned {
        let config = ExploreConfig {
            max_depth: 100_000,
            max_states: 1_000_000,
            symmetry,
            reduction,
            ..ExploreConfig::default()
        };
        let result = explore(&exec, config, agreement_predicate(2));
        let label = format!("{reduction:?}/{symmetry:?}");
        assert!(result.verified(), "{label}: {result:?}");
        assert_eq!(
            (
                result.states_visited,
                result.max_depth_reached,
                result.expansions,
                result.sleep_pruned,
                result.paths
            ),
            (states, depth, expansions, sleep_pruned, paths),
            "{label}: (states, depth, expansions, sleep_pruned, paths)"
        );
    }
}
