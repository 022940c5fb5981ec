//! `serve-wall`: the batched Figure 4 service under the wall clock, one
//! shard plus the sequencer, driven open loop in two phases: bursts far
//! above capacity (the work of serving a fixed backlog) and a fixed rate
//! near a third of capacity (latency, in the traced run).

use crate::probe::{costed, median, ns_per_call, timed, Cost, SetupSamples, SplitMix};
use crate::procfs;
use crate::report::Report;
use sa_core::{AgreementInstance, RepeatedSetAgreement};
use sa_model::{Params, ProcessId};
use sa_serve::{
    serve, Batcher, LatencyHistogram, LoadGenerator, Proposal, ServeClock, ServeConfig, ServeReport,
};
use std::hint::black_box;
use std::time::Instant;

/// Proposals offered per 1 ms tick in the saturated phase: over three
/// times what one shard can decide, so the backlog grows and a call's cost
/// is the service's work on its 200,000 proposals, not the schedule they
/// were offered on.
const SATURATED_RATE: u64 = 2_000;
/// Ticks of one saturated serve call.
const SATURATED_TICKS: u64 = 100;
/// The fewest saturated serve calls an untraced run makes.
const MIN_SATURATED_CALLS: usize = 5;
/// Saturated serve calls in each pass of a traced run.
const TRACED_SATURATED_CALLS: usize = 3;
/// Proposals offered per tick in the fixed-rate phase, about a third of
/// capacity.
const FIXED_RATE: u64 = 200;
/// Ticks of one fixed-rate serve call. Each pass of a traced run makes one
/// per second of `--seconds`.
const FIXED_TICKS: u64 = 500;
/// Set-ups a timing burst repeats; one takes a few microseconds.
const SETUP_REPS: usize = 101;
/// Round-robin contention steps per participant before a batch's solo
/// phase, as the service's shards run it.
const CONTENTION_FACTOR: u64 = 8;
/// Serving threads: the sequencer and one shard worker.
const THREADS: f64 = 2.0;

/// Spec parse and grid expansion into the service configuration.
fn setup(seed: u64) -> ServeConfig {
    let spec = sa_sweep::CampaignSpec::parse(include_str!("../specs/serve_wall.spec"))
        .expect("serve spec parses");
    let (scenarios, _) = sa_sweep::expand(&spec);
    let [scenario] = <[_; 1]>::try_from(scenarios).expect("the spec names one cell");
    let mut config = ServeConfig::new(scenario.params.m(), scenario.params.k());
    config.max_steps_per_batch = scenario.max_steps;
    config.options.shards = scenario.shards;
    config.options.batch_max = scenario.batch_max;
    config.options.clients = scenario.clients;
    config.options.load = scenario.serve_load;
    config.options.clock = ServeClock::Wall;
    config.options.seed = seed;
    config
}

/// One open-loop phase: its configuration under the wall clock, and the
/// decided fingerprint of the same configuration under the virtual clock,
/// which every call must reproduce.
struct Phase {
    config: ServeConfig,
    virtual_fingerprint: u64,
    what: &'static str,
}

impl Phase {
    fn new(config: &ServeConfig, rate: u64, ticks: u64, what: &'static str) -> Phase {
        let mut config = *config;
        config.options.rate = rate;
        config.options.duration_ticks = ticks;
        let mut virtual_config = config;
        virtual_config.options.clock = ServeClock::Virtual;
        config.options.clock = ServeClock::Wall;
        Phase {
            config,
            virtual_fingerprint: serve(&virtual_config).decided_fingerprint(),
            what,
        }
    }

    /// One serve call and its checks: drained, safe, every proposal
    /// answered, and the virtual clock's decided values.
    fn call(&self, report: &mut Report) -> (ServeReport, Cost) {
        let (served, cost) = costed(|| serve(&self.config));
        let what = self.what;
        report.check(served.drained, format_args!("{what}: not drained"));
        report.check(
            served.safety_violations() == 0 && served.unfinished == 0,
            format_args!(
                "{what}: {} safety violations, {} unfinished",
                served.safety_violations(),
                served.unfinished
            ),
        );
        report.check(
            served.decided_fingerprint() == self.virtual_fingerprint,
            format_args!(
                "{what}: decided fingerprint {:016x}, virtual clock {:016x}",
                served.decided_fingerprint(),
                self.virtual_fingerprint
            ),
        );
        (served, cost)
    }
}

/// One pass of a traced run: [`TRACED_SATURATED_CALLS`] saturated calls,
/// then `fixed_calls` fixed-rate calls.
struct Pass {
    saturated: Vec<(ServeReport, Cost)>,
    fixed: Vec<ServeReport>,
}

impl Pass {
    fn run(report: &mut Report, saturated: &Phase, fixed: &Phase, fixed_calls: usize) -> Pass {
        Pass {
            saturated: (0..TRACED_SATURATED_CALLS)
                .map(|_| saturated.call(report))
                .collect(),
            fixed: (0..fixed_calls).map(|_| fixed.call(report).0).collect(),
        }
    }

    /// The counts of every call, which must repeat from pass to pass.
    fn counts(&self) -> Vec<(u64, u64, u64)> {
        self.saturated
            .iter()
            .map(|(r, _)| r)
            .chain(&self.fixed)
            .map(|r| (r.proposals, r.batches, r.steps))
            .collect()
    }

    /// The median wall seconds of a saturated call.
    fn saturated_wall(&self) -> f64 {
        median(&self.saturated.iter().map(|(_, c)| c.wall).collect::<Vec<_>>())
    }
}

/// Runs the workload. `seed` is the load generator's seed. Untraced, the
/// run makes saturated calls for `seconds` and `cpu_s` is their median CPU
/// time; traced, it makes two passes of both phases.
pub fn run(seed: u64, seconds: f64, trace: bool) -> Report {
    let mut report = Report::default();
    let config = setup(seed);
    let saturated = Phase::new(&config, SATURATED_RATE, SATURATED_TICKS, "saturated phase");
    if !trace {
        let mut setup_samples = SetupSamples::new(SETUP_REPS, || {
            black_box(setup(seed));
        });
        setup_samples.sample();
        let start = Instant::now();
        let mut cpus = Vec::new();
        loop {
            let (_, cost) = saturated.call(&mut report);
            cpus.push(cost.cpu);
            setup_samples.sample();
            // Another call only if it would end within the run.
            if cpus.len() >= MIN_SATURATED_CALLS
                && start.elapsed().as_secs_f64() + cost.wall > seconds
            {
                break;
            }
        }
        report.metric("setup_s", setup_samples.seconds());
        report.metric("cpu_s", median(&cpus));
        report.metric("peak_rss_mb", procfs::peak_rss_mb());
        return report;
    }

    // Untraced pass, then the same calls again as the traced pass: the
    // service is one call, so its spans are the calls themselves.
    let fixed = Phase::new(&config, FIXED_RATE, FIXED_TICKS, "fixed-rate phase");
    let fixed_calls = (seconds.round() as usize).max(1);
    let (plain, cost) = costed(|| Pass::run(&mut report, &saturated, &fixed, fixed_calls));
    let (pass, wall) = timed(|| Pass::run(&mut report, &saturated, &fixed, fixed_calls));
    report.check(
        plain.counts() == pass.counts(),
        "a count differs between the untraced and the traced run",
    );
    let (last, _) = pass.saturated.last().expect("saturated calls");
    let mut histogram = LatencyHistogram::new();
    for call in &pass.fixed {
        histogram.merge(&call.histogram);
    }
    let drains: Vec<f64> = pass
        .fixed
        .iter()
        .map(|f| f.duration_us as f64 / 1e3 - FIXED_TICKS as f64)
        .collect();
    report.metric("process.cpu_util", cost.cpu / (cost.wall * THREADS));
    report.metric("process.wall_s", plain.saturated_wall());
    report.metric("trace.overhead_wall_s", wall - cost.wall);
    report.metric(
        "serve.capacity_pps",
        last.proposals as f64 / pass.saturated_wall(),
    );
    report.metric("serve.p50_us", histogram.percentile(50.0) as f64);
    report.metric("serve.p99_us", histogram.percentile(99.0) as f64);
    report.metric("serve.p999_us", histogram.percentile(99.9) as f64);
    report.metric("serve.drain_ms", median(&drains));
    report.metric(
        "serve.steps_per_batch",
        last.steps as f64 / last.batches.max(1) as f64,
    );
    probe_layers(&mut report, &config, seed);
    report
}

/// Per-call timings of the service's layers: one batch through
/// `AgreementInstance` as a shard runs it, the batcher, the histogram and
/// the load generator.
fn probe_layers(report: &mut Report, config: &ServeConfig, seed: u64) {
    let options = config.options;
    let b = options.batch_max;
    let k = config.k;
    let params = Params::new(b, config.m.min(k), k).expect("a batch is a valid cell");
    let mut generator = LoadGenerator::new(options.clients, 2_000, options.load, seed);
    let batches: Vec<Vec<u64>> = generator
        .tick()
        .chunks(b)
        .map(|chunk| chunk.iter().map(|(_, value)| *value).collect())
        .collect();
    let batch_ns = ns_per_call(&batches, 7, |values| {
        let automata = values
            .iter()
            .enumerate()
            .map(|(i, value)| {
                RepeatedSetAgreement::new(params, ProcessId(i), vec![*value]).expect("valid")
            })
            .collect();
        let mut instance = AgreementInstance::new(automata);
        instance.run_round_robin(b as u64 * CONTENTION_FACTOR);
        for i in 0..values.len() {
            let budget = config.max_steps_per_batch.saturating_sub(instance.steps());
            black_box(instance.run_solo(ProcessId(i), budget));
        }
        instance.steps()
    });
    report.metric("serve.batch_exec_us", batch_ns / 1e3);

    let proposals: Vec<Proposal> = (0..20_000)
        .map(|i| Proposal {
            client: i % options.clients as u64,
            value: i,
            arrival: i / 200,
        })
        .collect();
    let per_pass: Vec<f64> = (0..7)
        .map(|_| {
            let mut batcher = Batcher::new(b);
            let (_, seconds) = timed(|| {
                for proposal in &proposals {
                    black_box(batcher.push(*proposal, proposal.arrival));
                }
            });
            seconds * 1e9 / proposals.len() as f64
        })
        .collect();
    report.metric("serve.batcher_push_ns", median(&per_pass));

    let mut rng = SplitMix::new(seed ^ 0x415);
    let latencies: Vec<u64> = (0..20_000).map(|_| 100 + rng.next_u64() % 3_000).collect();
    let mut histogram = LatencyHistogram::new();
    report.metric(
        "serve.histogram_record_ns",
        ns_per_call(&latencies, 7, |value| histogram.record(*value)),
    );

    let ticks: Vec<()> = vec![(); 200];
    let mut generator = LoadGenerator::new(options.clients, SATURATED_RATE, options.load, seed);
    report.metric(
        "serve.loadgen_tick_us",
        ns_per_call(&ticks, 7, |_| generator.tick()) / 1e3,
    );
}
