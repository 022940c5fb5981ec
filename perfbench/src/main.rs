//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload through the crates' public functions, checks its
//! output, and prints one JSON line: `correct`, `attempted`, `failed` and
//! `metrics`. Untraced (`--trace 0`) it reports the end-to-end metrics;
//! traced (`--trace 1`) it runs the workload untraced and again with spans
//! around the calls it makes into each layer, checks that every count
//! repeats, and reports the per-layer metrics and the tracing overhead.
//! A failed check is printed to stderr, marks the run incorrect and makes
//! the exit code 1. `python3 perfbench/run.py` builds and runs this.
//!
//! Workloads:
//! - `explore-dpor`: `sa_runtime::explore`, persistent sets, 4/1/3.
//! - `explore-bfs-spill`: `sa_runtime::parallel_explore`, 2 workers, spill.
//! - `sample-crash`: `sa_sweep::run_campaign` over `crash.spec`, 2 threads.
//! - `serve-wall`: `sa_serve::serve` under the wall clock, two phases.

mod crash;
mod explore;
mod probe;
mod procfs;
mod report;
mod serve;

use report::{END_TO_END, PER_LAYER};

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload <explore-dpor|explore-bfs-spill|sample-crash|serve-wall> \
         --seed <n> --seconds <s> --trace <0|1>"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--in-core-reference") {
        explore::print_in_core_record();
        return;
    }
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut rest = args.iter();
    while let Some(flag) = rest.next() {
        let value = rest.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => trace = Some(value == "1"),
            _ => usage(),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        usage()
    };
    let mut report = match workload.as_str() {
        "explore-dpor" => explore::run(explore::Engine::SerialDpor, seed, trace),
        "explore-bfs-spill" => explore::run(explore::Engine::ParallelSpill, seed, trace),
        "sample-crash" => crash::run(seed, seconds, trace),
        "serve-wall" => serve::run(seed, seconds, trace),
        _ => usage(),
    };
    let catalog = if trace {
        report.metric("failed_share", report.failed_share());
        PER_LAYER
    } else {
        END_TO_END
    };
    println!("{}", report.to_json(catalog));
    if !report.correct() {
        std::process::exit(1);
    }
}
