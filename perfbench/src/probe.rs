//! Timing helpers and the seeded random walks that sample the executor
//! states per-call layer timings run over.

use crate::procfs;
use sa_model::{Automaton, ProcessId};
use sa_runtime::Executor;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Bursts of set-up repetitions one sample takes.
const SETUP_BURSTS: usize = 10;
/// The pause between two bursts of one sample, so they see different
/// moments of the host.
const SETUP_PAUSE: Duration = Duration::from_millis(10);

/// The median of `values` (the mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Seconds taken by `f`, with its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// What one piece of work cost.
#[derive(Debug, Clone, Copy)]
pub struct Cost {
    /// CPU seconds of every thread of the process, the threads the work
    /// started and ended included.
    pub cpu: f64,
    /// Wall seconds.
    pub wall: f64,
}

/// The cost of `f`, with its result.
pub fn costed<T>(f: impl FnOnce() -> T) -> (T, Cost) {
    let cpu = procfs::cpu_seconds();
    let (out, wall) = timed(f);
    let cpu = procfs::cpu_seconds() - cpu;
    (out, Cost { cpu, wall })
}

/// Set-up timings taken at several moments of a run, around its engine
/// calls. Each sample is [`SETUP_BURSTS`] bursts [`SETUP_PAUSE`] apart,
/// each burst `reps` back-to-back set-ups timed together on this thread's
/// CPU clock, and `setup_s` is the median set-up of all bursts of the run.
#[derive(Debug)]
pub struct SetupSamples<F> {
    setup: F,
    reps: usize,
    bursts: Vec<f64>,
}

impl<F: FnMut()> SetupSamples<F> {
    /// Samples to be taken of `setup`, `reps` set-ups a burst; `setup`
    /// must do the whole set-up and pass its result through [`black_box`].
    pub fn new(reps: usize, setup: F) -> Self {
        SetupSamples {
            setup,
            reps: reps.max(1),
            bursts: Vec::new(),
        }
    }

    /// Takes one sample now.
    pub fn sample(&mut self) {
        for burst in 0..SETUP_BURSTS {
            if burst > 0 {
                std::thread::sleep(SETUP_PAUSE);
            }
            let start = procfs::thread_cpu_seconds();
            for _ in 0..self.reps {
                (self.setup)();
            }
            let cpu = procfs::thread_cpu_seconds() - start;
            self.bursts.push(cpu / self.reps as f64);
        }
    }

    /// `setup_s`: the median set-up CPU seconds of the bursts taken.
    pub fn seconds(&self) -> f64 {
        median(&self.bursts)
    }
}

/// Nanoseconds per call of `f` over `items`: each pass calls `f` once per
/// item, and the median pass is reported, so one descheduling does not
/// skew the figure. 0 when there is nothing to time.
pub fn ns_per_call<T, R>(items: &[T], passes: usize, mut f: impl FnMut(&T) -> R) -> f64 {
    if items.is_empty() {
        return 0.0;
    }
    let per_pass: Vec<f64> = (0..passes.max(1))
        .map(|_| {
            let start = Instant::now();
            for item in items {
                black_box(f(black_box(item)));
            }
            start.elapsed().as_nanos() as f64 / items.len() as f64
        })
        .collect();
    median(&per_pass)
}

/// SplitMix64: a small, seedable generator for walks and synthetic keys.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    /// The next 64 pseudo-random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform index below `bound` (which must be non-zero).
    pub fn below(&mut self, bound: usize) -> usize {
        (self.next_u64() % bound as u64) as usize
    }
}

/// A state reached by a random walk, with the schedule that reached it.
#[derive(Debug, Clone)]
pub struct Sample<A: Automaton> {
    /// The configuration.
    pub state: Executor<A>,
    /// The steps from the initial configuration to `state`.
    pub schedule: Vec<ProcessId>,
    /// Its runnable processes (never empty).
    pub runnable: Vec<ProcessId>,
}

/// States with at least one runnable process, drawn from `walks` seeded
/// random walks of at most `max_len` steps from `initial`: each walk steps
/// a uniformly chosen runnable process until every process halts or the
/// walk is long enough, and keeps every `every`-th state it passes, so deep
/// and shallow states both stay.
pub fn random_walk_states<A>(
    initial: &Executor<A>,
    seed: u64,
    walks: usize,
    max_len: usize,
    every: usize,
) -> Vec<Sample<A>>
where
    A: Automaton + Clone,
    A::Value: Clone,
{
    let mut rng = SplitMix::new(seed);
    let mut samples = Vec::new();
    for _ in 0..walks {
        let mut state = initial.clone();
        let mut schedule = Vec::new();
        while schedule.len() < max_len {
            let runnable = state.runnable();
            if runnable.is_empty() {
                break;
            }
            let process = runnable[rng.below(runnable.len())];
            if schedule.len() % every.max(1) == 0 {
                samples.push(Sample {
                    state: state.clone(),
                    schedule: schedule.clone(),
                    runnable,
                });
            }
            state.step(process);
            schedule.push(process);
        }
    }
    samples
}

/// One (state, process) pair per sample: the process is a runnable one
/// picked by `rng`.
pub fn pick_steps<'a, A: Automaton>(
    samples: &'a [Sample<A>],
    rng: &mut SplitMix,
) -> Vec<(&'a Executor<A>, ProcessId)> {
    samples
        .iter()
        .map(|s| (&s.state, s.runnable[rng.below(s.runnable.len())]))
        .collect()
}
