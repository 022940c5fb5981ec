//! `explore-dpor` and `explore-bfs-spill`: the serial persistent-set
//! explorer and the spilling parallel breadth-first explorer, both on the
//! 4/1/3 anonymous one-shot cell up to process-id symmetry.

use crate::probe::{self, costed, median, ns_per_call, timed, Sample, SetupSamples, SplitMix};
use crate::procfs;
use crate::report::Report;
use sa_core::AnonymousSetAgreement;
use sa_model::{Automaton, InputValue, InstanceId, ProcessId};
use sa_runtime::store::{
    encode_frontier_record, read_segment, FrontierRecord, KeyTable, ScheduleArena, SegmentKind,
    SegmentWriter, SpillDir, SCHEDULE_ROOT,
};
use sa_runtime::{
    canonical_state_key, explore, mask_of, orders_commute, parallel_explore, persistent_set,
    successor_sleep, Executor, Exploration, ExploreConfig, ParallelExploreConfig, ReductionMode,
    StateKey, SymmetryPlan,
};
use sa_sweep::ScenarioSpec;
use set_agreement::Algorithm;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Debug;
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;

/// Orbit states the persistent-set explorer visits on the cell.
const DPOR_STATES: u64 = 789_163;
/// Orbit states the unreduced breadth-first explorer visits on the cell.
const BFS_STATES: u64 = 849_892;
/// The state-space counts of the in-core breadth-first exploration of the
/// cell (see [`Explored::counts`]). Untraced runs compare the spilled run's
/// counts with them; traced runs also explore the cell in core and compare
/// the whole record, memory estimate included.
const IN_CORE_COUNTS: &str = "states=849892 paths=40 depth=36 frontier_peak=86596 \
    expansions=3051864 seen=849892 sleep_pruned=0 states_cut=0 max_locations=3";

/// Set-ups a timing burst repeats; one takes a few microseconds.
const SETUP_REPS: usize = 101;

/// Which explorer a workload drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// `sa_runtime::explore` with persistent sets (`explore-dpor`).
    SerialDpor,
    /// `sa_runtime::parallel_explore` with spill on (`explore-bfs-spill`).
    ParallelSpill,
}

impl Engine {
    fn spec(self) -> &'static str {
        match self {
            Engine::SerialDpor => include_str!("../specs/explore_dpor.spec"),
            Engine::ParallelSpill => include_str!("../specs/explore_bfs_spill.spec"),
        }
    }

    fn expected_states(self) -> u64 {
        match self {
            Engine::SerialDpor => DPOR_STATES,
            Engine::ParallelSpill => BFS_STATES,
        }
    }
}

/// The check every explored state must pass, as the sweep engine's
/// explore path makes it: each decided value was proposed in its instance,
/// no instance has more than `k` distinct outputs, and the most base
/// objects written in any state is tracked for the space-bound check.
/// With `traced`, calls are counted and timed.
#[derive(Debug)]
struct Safety {
    k: usize,
    allowed: BTreeMap<InstanceId, BTreeSet<InputValue>>,
    max_locations: AtomicUsize,
    traced: bool,
    calls: AtomicU64,
    nanos: AtomicU64,
}

impl Safety {
    fn check<A: Automaton>(&self, state: &Executor<A>) -> Option<String>
    where
        A::Value: Clone + Eq + Debug,
    {
        let start = self.traced.then(Instant::now);
        let locations = state.memory().metrics().distinct_locations_written();
        self.max_locations.fetch_max(locations, Ordering::Relaxed);
        let mut verdict = None;
        for instance in state.decisions().instances() {
            let outputs = state.decisions().outputs(instance);
            let allowed = self.allowed.get(&instance);
            if let Some(bad) = outputs
                .iter()
                .find(|v| !allowed.is_some_and(|a| a.contains(v)))
            {
                verdict = Some(format!("instance {instance} decided {bad}, never proposed"));
                break;
            }
            if outputs.len() > self.k {
                verdict = Some(format!("instance {instance} decided {outputs:?}, over k"));
                break;
            }
        }
        if let Some(start) = start {
            self.calls.fetch_add(1, Ordering::Relaxed);
            self.nanos
                .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        }
        verdict
    }
}

/// Everything set-up produces: the cell's scenario, its initial
/// configuration and the safety check's inputs.
struct Cell {
    engine: Engine,
    scenario: ScenarioSpec,
    initial: Executor<AnonymousSetAgreement>,
    allowed: BTreeMap<InstanceId, BTreeSet<InputValue>>,
    /// The paper's bound on base objects for the cell.
    space_bound: usize,
}

impl Cell {
    /// Spec parse, grid expansion and automata construction: everything up
    /// to the first engine call.
    fn setup(engine: Engine) -> Cell {
        let spec = sa_sweep::CampaignSpec::parse(engine.spec()).expect("benchmark spec parses");
        let (scenarios, _) = sa_sweep::expand(&spec);
        let [scenario] = <[_; 1]>::try_from(scenarios).expect("the spec names one cell");
        assert_eq!(scenario.algorithm, Algorithm::AnonymousOneShot);
        let params = scenario.params;
        let automata = (0..params.n())
            .map(|p| AnonymousSetAgreement::one_shot(params, scenario.workload.input(p, 1)))
            .collect();
        let mut allowed: BTreeMap<InstanceId, BTreeSet<InputValue>> = BTreeMap::new();
        for p in 0..scenario.workload.processes() {
            for (i, value) in scenario.workload.sequence(p).iter().enumerate() {
                allowed.entry(i as u64 + 1).or_default().insert(*value);
            }
        }
        Cell {
            engine,
            initial: Executor::new(automata),
            allowed,
            space_bound: scenario.algorithm.component_bound(params),
            scenario,
        }
    }

    fn resident_budget(&self) -> u64 {
        self.scenario.max_resident_mb * 1024 * 1024
    }

    /// One engine call. `traced` counts and times the predicate; `in_core`
    /// turns spilling off and lifts the resident budget, which must not
    /// change the result.
    fn explore(&self, traced: bool, in_core: bool) -> Explored {
        let s = &self.scenario;
        let safety = Safety {
            k: s.params.k(),
            allowed: self.allowed.clone(),
            max_locations: AtomicUsize::new(0),
            traced,
            calls: AtomicU64::new(0),
            nanos: AtomicU64::new(0),
        };
        let predicate = |state: &Executor<AnonymousSetAgreement>| safety.check(state);
        let (spill, max_resident_bytes) = if in_core {
            (false, 0)
        } else {
            (s.spill, self.resident_budget())
        };
        let x = match self.engine {
            Engine::SerialDpor => {
                let config = ExploreConfig {
                    max_depth: s.max_steps,
                    max_states: s.max_states,
                    dedup: true,
                    symmetry: s.symmetry,
                    reduction: s.reduction,
                    spill,
                    max_resident_bytes,
                };
                explore(&self.initial, config, predicate)
            }
            Engine::ParallelSpill => {
                let config = ParallelExploreConfig {
                    threads: s.explore_threads,
                    max_depth: s.max_steps,
                    max_states: s.max_states,
                    symmetry: s.symmetry,
                    reduction: s.reduction,
                    spill,
                    max_resident_bytes,
                };
                parallel_explore(&self.initial, config, predicate)
            }
        };
        Explored {
            x,
            max_locations: safety.max_locations.into_inner(),
            predicate_calls: safety.calls.into_inner(),
            predicate_nanos: safety.nanos.into_inner(),
        }
    }

    /// Worker threads of the engine call.
    fn threads(&self) -> usize {
        self.scenario.explore_threads.max(1)
    }
}

/// One engine call's report and what its predicate saw.
struct Explored {
    x: Exploration,
    max_locations: usize,
    predicate_calls: u64,
    predicate_nanos: u64,
}

impl Explored {
    /// Every statistic of the exploration except `spilled_entries`, the one
    /// that legitimately differs between a spilled and an in-core run.
    fn record(&self) -> String {
        let x = &self.x;
        format!(
            "states={} paths={} violation={:?} truncated={} depth={} frontier_peak={} \
             frontier={} pending={} seen={} approx_bytes={} symmetry={} full_lower={} \
             reduction={} expansions={} sleep_pruned={} persistent_expanded={} \
             states_cut={} max_locations={}",
            x.states_visited,
            x.paths,
            x.violation,
            x.truncated,
            x.max_depth_reached,
            x.frontier_peak,
            x.frontier_semantics.label(),
            x.pending_at_exit,
            x.seen_entries,
            x.approx_bytes,
            x.symmetry_applied,
            x.full_states_lower_bound,
            x.reduction_applied,
            x.expansions,
            x.sleep_pruned,
            x.persistent_expanded,
            x.states_cut,
            self.max_locations,
        )
    }

    /// The counts that depend only on the explored state space, not on how
    /// the program lays it out in memory.
    fn counts(&self) -> String {
        let x = &self.x;
        format!(
            "states={} paths={} depth={} frontier_peak={} expansions={} seen={} \
             sleep_pruned={} states_cut={} max_locations={}",
            x.states_visited,
            x.paths,
            x.max_depth_reached,
            x.frontier_peak,
            x.expansions,
            x.seen_entries,
            x.sleep_pruned,
            x.states_cut,
            self.max_locations,
        )
    }

    /// The output checks of one engine call.
    fn check(&self, report: &mut Report, cell: &Cell) {
        let (x, engine) = (&self.x, cell.engine);
        report.check(
            x.verified(),
            format_args!("{engine:?} did not exhaust the cell safely: {x:?}"),
        );
        report.check(
            x.states_visited == engine.expected_states(),
            format_args!(
                "{engine:?} visited {} states, expected {}",
                x.states_visited,
                engine.expected_states()
            ),
        );
        report.check(
            self.max_locations > 0 && self.max_locations <= cell.space_bound,
            format_args!(
                "{} base objects written, bound {}",
                self.max_locations, cell.space_bound
            ),
        );
        report.check(x.symmetry_applied, "symmetry was not applied");
        match engine {
            Engine::SerialDpor => {
                report.check(x.reduction_applied, "persistent sets were not applied")
            }
            Engine::ParallelSpill => {
                report.check(x.spilled_entries > 0, "the resident budget never spilled")
            }
        }
    }
}

/// Runs the in-core twin of `explore-bfs-spill` in a child process, so its
/// memory stays out of this process's peak, and returns its record.
fn in_core_record_from_child() -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = std::process::Command::new(exe)
        .arg("--in-core-reference")
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    if !output.status.success() {
        return Err(format!("in-core reference exited with {}", output.status));
    }
    let text = String::from_utf8(output.stdout).map_err(|e| e.to_string())?;
    Ok(text.trim_end().to_string())
}

/// The `--in-core-reference` child: explores the spill workload's cell
/// in core and prints its record.
pub fn print_in_core_record() {
    let cell = Cell::setup(Engine::ParallelSpill);
    println!("{}", cell.explore(false, true).record());
}

/// Compares the spilled run with the in-core one: its state-space counts
/// with the pinned ones, and with `live` its whole record with a fresh
/// in-core exploration's.
fn check_in_core(report: &mut Report, spilled: &Explored, live: bool) {
    let counts = spilled.counts();
    report.check(
        counts == IN_CORE_COUNTS,
        format_args!(
            "spilled counts differ from the in-core ones:\n  {counts}\n  {IN_CORE_COUNTS}"
        ),
    );
    if !live {
        return;
    }
    let ours = spilled.record();
    match in_core_record_from_child() {
        Ok(theirs) => report.check(
            theirs == ours,
            format_args!("spilled record differs from the in-core one:\n  {ours}\n  {theirs}"),
        ),
        Err(e) => report.check(false, format_args!("in-core reference failed: {e}")),
    }
}

/// Runs an explore workload. `seed` seeds the random walks the layer
/// probes sample states with; the explored cell does not depend on it.
/// An untraced run explores the cell once, however long that takes.
pub fn run(engine: Engine, seed: u64, trace: bool) -> Report {
    let mut report = Report::default();
    let cell = Cell::setup(engine);
    if !trace {
        let mut setup = SetupSamples::new(SETUP_REPS, || {
            black_box(Cell::setup(engine));
        });
        setup.sample();
        // One exploration, as a user runs it: a second one in the same
        // process would reuse the first one's freed memory, so its peak and
        // its page faults would differ.
        let rotation = (engine == Engine::SerialDpor).then(procfs::Rotation::start);
        let (run, cost) = costed(|| cell.explore(false, false));
        drop(rotation);
        let peak = procfs::peak_rss_mb();
        setup.sample();
        run.check(&mut report, &cell);
        if engine == Engine::ParallelSpill {
            check_in_core(&mut report, &run, false);
        }
        report.metric("setup_s", setup.seconds());
        report.metric("cpu_s", cost.cpu);
        report.metric("peak_rss_mb", peak);
        return report;
    }

    // Untraced pass: the figures tracing is measured against.
    let (plain, cost) = costed(|| cell.explore(false, false));
    let peak = procfs::peak_rss_mb();
    plain.check(&mut report, &cell);
    // Traced pass: the same call with the predicate span counted and timed.
    let (run, wall) = timed(|| cell.explore(true, false));
    run.check(&mut report, &cell);
    report.check(
        plain.record() == run.record() && plain.x.spilled_entries == run.x.spilled_entries,
        "a count differs between the untraced and the traced run",
    );
    if engine == Engine::ParallelSpill {
        check_in_core(&mut report, &run, true);
    }
    let x = &run.x;
    report.metric(
        "process.cpu_util",
        cost.cpu / (cost.wall * cell.threads() as f64),
    );
    report.metric("process.wall_s", cost.wall);
    report.metric("trace.overhead_wall_s", wall - cost.wall);
    report.metric("explore.states", x.states_visited as f64);
    report.metric("explore.expansions", x.expansions as f64);
    report.metric("explore.depth", x.max_depth_reached as f64);
    report.metric(
        "explore.states_per_expansion",
        x.states_visited as f64 / x.expansions.max(1) as f64,
    );
    report.metric("explore.sleep_pruned", x.sleep_pruned as f64);
    report.metric("explore.states_cut", x.states_cut as f64);
    report.metric("explore.states_per_s", x.states_visited as f64 / wall);
    report.metric("explore.call_s", wall);
    report.metric(
        "explore.predicate_ns",
        run.predicate_nanos as f64 / run.predicate_calls.max(1) as f64,
    );
    if engine == Engine::ParallelSpill {
        report.metric("store.spilled_entries", x.spilled_entries as f64);
        report.metric(
            "store.resident_budget_ratio",
            peak * 1024.0 * 1024.0 / cell.resident_budget() as f64,
        );
        report.metric("parallel.frontier_peak", x.frontier_peak as f64);
        report.metric(
            "parallel.approx_mb",
            x.approx_bytes as f64 / (1024.0 * 1024.0),
        );
    }
    let summary = RunSummary {
        reduction: if x.reduction_applied {
            cell.scenario.reduction
        } else {
            ReductionMode::Off
        },
        seen_entries: x.seen_entries,
        depth: x.max_depth_reached,
        spilled: x.spilled_entries > 0,
    };
    drop((plain, run));
    probe_layers(&mut report, &cell, summary, seed);
    report
}

/// What the layer probes need to know about the traced run: which layers
/// it called, at what seen-set size and how deep.
struct RunSummary {
    reduction: ReductionMode,
    seen_entries: u64,
    depth: u64,
    spilled: bool,
}

/// Per-call timings of the layers the workload calls, over states sampled
/// by seeded random walks of the cell.
fn probe_layers(report: &mut Report, cell: &Cell, run: RunSummary, seed: u64) {
    let samples = probe::random_walk_states(&cell.initial, seed, 64, 400, 4);
    let mut rng = SplitMix::new(seed ^ 0x5eed);
    let steps = probe::pick_steps(&samples, &mut rng);
    report.metric(
        "executor.clone_step_ns",
        ns_per_call(&steps, 7, |(state, p)| {
            let mut next = (*state).clone();
            next.step(*p);
            next
        }),
    );
    let plan = SymmetryPlan::for_executor(&cell.initial, cell.scenario.symmetry);
    report.metric(
        "explore.canonical_key_ns",
        ns_per_call(&samples, 7, |s| canonical_state_key(&s.state, &plan)),
    );
    if run.reduction != ReductionMode::Off {
        let pairs: Vec<_> = steps
            .iter()
            .filter_map(|(state, p)| {
                let others: Vec<ProcessId> =
                    state.runnable().into_iter().filter(|q| q != p).collect();
                let q = *others.first()?;
                Some((*state, *p, q, mask_of(&others)))
            })
            .collect();
        report.metric(
            "commutation.successor_sleep_ns",
            ns_per_call(&pairs, 7, |(state, p, _, sleep)| {
                successor_sleep(state, *p, *sleep)
            }),
        );
        report.metric(
            "commutation.orders_commute_ns",
            ns_per_call(&pairs, 7, |(state, p, q, _)| orders_commute(state, *p, *q)),
        );
        if run.reduction == ReductionMode::PersistentSets {
            report.metric(
                "explore.persistent_set_ns",
                ns_per_call(&samples, 7, |s| persistent_set(&s.state, &s.runnable)),
            );
        }
    }
    probe_store(report, &samples, run, seed);
}

/// The seen-set, schedule and spill-segment layers.
fn probe_store(
    report: &mut Report,
    samples: &[Sample<AnonymousSetAgreement>],
    run: RunSummary,
    seed: u64,
) {
    let mut rng = SplitMix::new(seed ^ 0x7ab1e);
    let mut key = || StateKey::from_parts([rng.next_u64(), rng.next_u64()]);
    // Inserts into a table already holding the workload's seen set.
    let mut table = KeyTable::new();
    let seen: Vec<StateKey> = (0..run.seen_entries).map(|_| key()).collect();
    for k in &seen {
        table.insert(*k);
    }
    let fresh: Vec<StateKey> = (0..20_000).map(|_| key()).collect();
    let per_pass: Vec<f64> = fresh
        .chunks(4_000)
        .map(|chunk| {
            let start = Instant::now();
            for k in chunk {
                black_box(table.insert(*k));
            }
            start.elapsed().as_nanos() as f64 / chunk.len() as f64
        })
        .collect();
    report.metric("store.key_table_insert_ns", median(&per_pass));
    drop(table);

    let schedules: Vec<&[ProcessId]> = samples.iter().map(|s| s.schedule.as_slice()).collect();
    let pushes: usize = schedules.iter().map(|s| s.len()).sum();
    let per_pass: Vec<f64> = (0..7)
        .map(|_| {
            let mut arena = ScheduleArena::new();
            let start = Instant::now();
            for schedule in &schedules {
                let mut node = SCHEDULE_ROOT;
                for step in *schedule {
                    node = arena.push(node, *step);
                }
                black_box(node);
            }
            start.elapsed().as_nanos() as f64 / pushes.max(1) as f64
        })
        .collect();
    report.metric("store.arena_push_ns", median(&per_pass));

    if !run.spilled {
        return;
    }
    // Frontier records of sampled states no deeper than the search went.
    let records: Vec<Vec<u8>> = samples
        .iter()
        .filter(|s| s.schedule.len() as u64 <= run.depth)
        .map(|s| {
            encode_frontier_record(&FrontierRecord {
                schedule: s.schedule.clone(),
                orbit_lower: 1,
                ..FrontierRecord::default()
            })
        })
        .collect();
    let record_bytes =
        records.iter().map(Vec::len).sum::<usize>() as f64 / records.len().max(1) as f64;
    report.metric("store.frontier_record_bytes", record_bytes);
    // A seen-shard segment of the workload's keys, as the parallel explorer
    // spills them: written, sealed, then read back and verified.
    let dir = SpillDir::fresh().expect("creating a spill directory");
    let path = dir.file("probe-seen.seg");
    let payload_mb = seen.len() as f64 * 16.0 / (1024.0 * 1024.0);
    let mut writes = Vec::new();
    let mut reads = Vec::new();
    for _ in 0..3 {
        let (_, write_s) = timed(|| {
            let mut writer = SegmentWriter::create(&path, SegmentKind::SeenShard, seed)
                .expect("creating a segment");
            for k in &seen {
                let parts = k.parts();
                let mut bytes = [0u8; 16];
                bytes[..8].copy_from_slice(&parts[0].to_le_bytes());
                bytes[8..].copy_from_slice(&parts[1].to_le_bytes());
                writer.append(&bytes).expect("appending a key");
            }
            writer.finish().expect("sealing a segment");
        });
        let ((tag, back), read_s) =
            timed(|| read_segment(&path, SegmentKind::SeenShard).expect("reading a segment"));
        report.check(
            tag == seed && back.len() == seen.len(),
            "a probe segment did not read back whole",
        );
        writes.push(payload_mb / write_s);
        reads.push(payload_mb / read_s);
    }
    report.metric("store.segment_write_mb_s", median(&writes));
    report.metric("store.segment_read_mb_s", median(&reads));
}
