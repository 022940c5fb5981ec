//! `sample-crash`: `campaigns/crash.spec` through the sweep engine at two
//! threads — 594 sampled scenarios under crash adversaries, nearly all of
//! whose steps are in the round-robin runs that hit the step limit.

use crate::probe::{self, costed, median, timed, SetupSamples, SplitMix};
use crate::procfs;
use crate::report::Report;
use sa_core::RepeatedSetAgreement;
use sa_model::ProcessId;
use sa_runtime::store::fnv1a64;
use sa_runtime::Executor;
use sa_sweep::{
    expand, run_campaign, run_scenario, CampaignOutcome, CampaignSpec, EngineConfig,
};
use set_agreement::Algorithm;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Campaign worker threads, as in `sweep run --threads 2`.
const THREADS: usize = 2;
/// Scenarios the spec expands to.
const SCENARIOS: u64 = 594;
/// FNV-1a 64 of the JSONL the spec's own `campaign-seed` produces.
const PINNED_FINGERPRINT: u64 = 0x981f_c999_e4de_0690;
/// The fewest timed campaigns a run makes.
const MIN_REPS: usize = 3;
/// Set-ups a timing burst repeats; one takes about a millisecond.
const SETUP_REPS: usize = 11;

/// Spec parse and grid expansion: everything up to the engine call. The
/// engine builds each scenario's automata itself.
fn setup() -> CampaignSpec {
    let spec = CampaignSpec::parse(include_str!("../specs/crash.spec")).expect("crash spec parses");
    black_box(expand(&spec));
    spec
}

fn engine() -> EngineConfig {
    EngineConfig {
        threads: THREADS,
        ..EngineConfig::default()
    }
}

/// One campaign through `run_campaign`: its JSONL and outcome.
fn campaign(spec: &CampaignSpec) -> (Vec<u8>, CampaignOutcome) {
    let mut jsonl = Vec::new();
    let outcome = run_campaign(spec, engine(), &mut jsonl).expect("writing to memory");
    (jsonl, outcome)
}

fn check_outcome(report: &mut Report, outcome: &CampaignOutcome, what: &str) {
    report.check(
        outcome.records == SCENARIOS,
        format_args!("{what}: {} records, expected {SCENARIOS}", outcome.records),
    );
    report.check(
        outcome.clean(),
        format_args!(
            "{what}: {} safety and {} bound violations",
            outcome.safety_violations, outcome.bound_violations
        ),
    );
}

fn check_pinned(report: &mut Report, jsonl: &[u8]) {
    let fingerprint = fnv1a64(jsonl);
    report.check(
        fingerprint == PINNED_FINGERPRINT,
        format_args!(
            "crash.spec JSONL fingerprint {fingerprint:016x}, pinned {PINNED_FINGERPRINT:016x}"
        ),
    );
}

/// Runs the workload. Timed campaigns use the spec's own campaign seed, so
/// their output is checked against a pinned fingerprint and their work does
/// not change between runs; each run also executes the campaign once under
/// `seed` as its campaign seed and checks it is safe and complete.
/// `cpu_s` is the median CPU time of a timed `run_campaign`, nearly all of
/// it the step-limited tail.
pub fn run(seed: u64, seconds: f64, trace: bool) -> Report {
    let mut report = Report::default();
    let pinned = setup();
    let mut seeded = pinned.clone();
    seeded.campaign_seed = seed;
    let (_, outcome) = campaign(&seeded);
    check_outcome(&mut report, &outcome, "campaign under the run's seed");

    if !trace {
        let mut setup_samples = SetupSamples::new(SETUP_REPS, || {
            black_box(setup());
        });
        setup_samples.sample();
        let start = std::time::Instant::now();
        let mut cpus = Vec::new();
        loop {
            let ((jsonl, outcome), cost) = costed(|| campaign(&pinned));
            check_outcome(&mut report, &outcome, "crash.spec");
            check_pinned(&mut report, &jsonl);
            cpus.push(cost.cpu);
            setup_samples.sample();
            // Another campaign only if it would end within the run.
            if cpus.len() >= MIN_REPS && start.elapsed().as_secs_f64() + cost.wall > seconds {
                break;
            }
        }
        report.metric("setup_s", setup_samples.seconds());
        report.metric("cpu_s", median(&cpus));
        report.metric("peak_rss_mb", procfs::peak_rss_mb());
        return report;
    }

    // Untraced pass.
    let ((jsonl, outcome), cost) = costed(|| campaign(&pinned));
    check_outcome(&mut report, &outcome, "crash.spec");
    check_pinned(&mut report, &jsonl);
    // Traced pass: the engine's work loop, with a span per scenario.
    let (spans, wall) = timed(|| traced_campaign(&pinned));
    let mut traced_jsonl = Vec::new();
    for span in &spans {
        traced_jsonl.extend_from_slice(span.line.as_bytes());
        traced_jsonl.push(b'\n');
    }
    report.check(
        traced_jsonl == jsonl,
        "the traced campaign's JSONL differs from run_campaign's",
    );

    let times: Vec<f64> = spans.iter().map(|s| s.seconds).collect();
    let limited: Vec<&Span> = spans.iter().filter(|s| s.step_limited).collect();
    let steps: u64 = spans.iter().map(|s| s.steps).sum();
    report.metric("process.cpu_util", cost.cpu / (cost.wall * THREADS as f64));
    report.metric("process.wall_s", cost.wall);
    report.metric("trace.overhead_wall_s", wall - cost.wall);
    report.metric("sweep.scenario_p50_ms", median(&times) * 1e3);
    report.metric(
        "sweep.scenario_max_ms",
        times.iter().copied().fold(0.0, f64::max) * 1e3,
    );
    report.metric("sweep.steps_per_s", steps as f64 / wall);
    report.metric("sweep.step_limit_scenarios", limited.len() as f64);
    report.metric(
        "sweep.tail_share",
        limited.iter().map(|s| s.seconds).sum::<f64>() / times.iter().sum::<f64>(),
    );
    probe_step(&mut report, &pinned, &spans, seed);
    report
}

/// One scenario's span in the traced campaign.
struct Span {
    line: String,
    seconds: f64,
    steps: u64,
    step_limited: bool,
    index: usize,
}

/// The engine's work loop — workers pull scenario indices from a shared
/// cursor — calling `run_scenario` directly, so each scenario is timed.
/// Spans come back in scenario order.
fn traced_campaign(spec: &CampaignSpec) -> Vec<Span> {
    let (scenarios, _) = expand(spec);
    let cursor = AtomicUsize::new(0);
    let spans = Mutex::new(BTreeMap::new());
    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            scope.spawn(|| loop {
                let index = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(scenario) = scenarios.get(index) else {
                    break;
                };
                let (record, seconds) = timed(|| run_scenario(&spec.name, scenario));
                let span = Span {
                    line: record.to_json(),
                    seconds,
                    steps: record.steps,
                    step_limited: record.stop == "step-limit",
                    index,
                };
                spans.lock().expect("span log").insert(index, span);
            });
        }
    });
    spans
        .into_inner()
        .expect("span log")
        .into_values()
        .collect()
}

/// `executor.step_ns` over states of the first step-limited Figure 4 cell,
/// sampled by seeded random walks: the per-step cost the tail pays.
fn probe_step(report: &mut Report, spec: &CampaignSpec, spans: &[Span], seed: u64) {
    let (scenarios, _) = expand(spec);
    let Some(scenario) = spans
        .iter()
        .filter(|s| s.step_limited)
        .map(|s| &scenarios[s.index])
        .find(|s| matches!(s.algorithm, Algorithm::Repeated(_)))
    else {
        return;
    };
    let params = scenario.params;
    let instances = scenario.algorithm.instances() as u64;
    let automata: Vec<RepeatedSetAgreement> = (0..params.n())
        .map(|p| {
            let inputs = (1..=instances)
                .map(|t| scenario.workload.input(p, t))
                .collect();
            RepeatedSetAgreement::new(params, ProcessId(p), inputs).expect("a valid cell")
        })
        .collect();
    let initial = Executor::new(automata);
    let samples = probe::random_walk_states(&initial, seed, 32, 4_000, 8);
    let mut rng = SplitMix::new(seed ^ 0x57e9);
    let steps = probe::pick_steps(&samples, &mut rng);
    let per_pass: Vec<f64> = (0..7)
        .map(|_| {
            let mut states: Vec<(Executor<RepeatedSetAgreement>, ProcessId)> =
                steps.iter().map(|(s, p)| ((*s).clone(), *p)).collect();
            let (_, seconds) = timed(|| {
                for (state, p) in states.iter_mut() {
                    black_box(state.step(*p));
                }
            });
            seconds * 1e9 / states.len().max(1) as f64
        })
        .collect();
    report.metric("executor.step_ns", median(&per_pass));
}
