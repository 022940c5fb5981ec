//! The result of one benchmark run: the checks it made and the metrics it
//! measured, printed as the single JSON line the run ends with.

use std::fmt::Display;

/// The end-to-end metrics every untraced run reports, with their units.
/// `setup_s` and `cpu_s` are CPU seconds (see [`crate::procfs`]).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics every traced run reports, with their units. A
/// layer the workload never calls reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("failed_share", "share"),
    ("process.cpu_util", "share"),
    ("process.wall_s", "s"),
    ("trace.overhead_wall_s", "s"),
    ("executor.clone_step_ns", "ns"),
    ("executor.step_ns", "ns"),
    ("explore.canonical_key_ns", "ns"),
    ("explore.predicate_ns", "ns"),
    ("commutation.successor_sleep_ns", "ns"),
    ("commutation.orders_commute_ns", "ns"),
    ("explore.persistent_set_ns", "ns"),
    ("explore.states", "count"),
    ("explore.expansions", "count"),
    ("explore.depth", "count"),
    ("explore.states_per_expansion", "ratio"),
    ("explore.sleep_pruned", "count"),
    ("explore.states_cut", "count"),
    ("explore.states_per_s", "1/s"),
    ("explore.call_s", "s"),
    ("store.key_table_insert_ns", "ns"),
    ("store.segment_write_mb_s", "MB/s"),
    ("store.segment_read_mb_s", "MB/s"),
    ("store.frontier_record_bytes", "B"),
    ("store.arena_push_ns", "ns"),
    ("store.spilled_entries", "count"),
    ("store.resident_budget_ratio", "ratio"),
    ("parallel.frontier_peak", "count"),
    ("parallel.approx_mb", "MB"),
    ("sweep.scenario_p50_ms", "ms"),
    ("sweep.scenario_max_ms", "ms"),
    ("sweep.steps_per_s", "1/s"),
    ("sweep.step_limit_scenarios", "count"),
    ("sweep.tail_share", "share"),
    ("serve.capacity_pps", "1/s"),
    ("serve.p50_us", "us"),
    ("serve.p99_us", "us"),
    ("serve.p999_us", "us"),
    ("serve.drain_ms", "ms"),
    ("serve.batch_exec_us", "us"),
    ("serve.batcher_push_ns", "ns"),
    ("serve.histogram_record_ns", "ns"),
    ("serve.loadgen_tick_us", "us"),
    ("serve.steps_per_batch", "count"),
];

/// Checks made and metrics measured by one run.
#[derive(Debug, Default)]
pub struct Report {
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64)>,
}

impl Report {
    /// Records one output check. A failed check is reported on stderr at
    /// once and makes the whole run incorrect.
    pub fn check(&mut self, ok: bool, what: impl Display) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: CHECK FAILED: {what}");
        }
    }

    /// Records a metric; `name` must be one of [`END_TO_END`] or
    /// [`PER_LAYER`].
    pub fn metric(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END
                .iter()
                .chain(PER_LAYER)
                .any(|(known, _)| *known == name),
            "unknown metric {name}"
        );
        self.metrics.retain(|(known, _)| *known != name);
        self.metrics.push((name, value));
    }

    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The result line: every metric of `catalog`, in catalog order. A
    /// metric the run did not set is an idle layer and reads 0.
    pub fn to_json(&self, catalog: &[(&str, &str)]) -> String {
        let metrics: Vec<String> = catalog
            .iter()
            .map(|(name, unit)| {
                let value = self
                    .metrics
                    .iter()
                    .find(|(known, _)| known == name)
                    .map_or(0.0, |(_, value)| *value);
                let value = if value.is_finite() { value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }

    /// `failed / attempted`.
    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}
