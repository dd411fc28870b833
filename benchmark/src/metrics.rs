//! The metric catalogue: names, units and bounds, in one place.
//! `BENCHMARK.json` repeats it and a unit test keeps the two in step.

/// An end-to-end metric and the share of the baseline's median by which it
/// may worsen before `compare` calls it a regression.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "throughput_tps",
        unit: "txn/s",
        higher_is_better: true,
        bound: 0.20,
    },
    EndToEnd {
        name: "latency_p50_us",
        unit: "us",
        higher_is_better: false,
        bound: 0.20,
    },
    EndToEnd {
        name: "latency_p95_us",
        unit: "us",
        higher_is_better: false,
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        higher_is_better: false,
        bound: 0.25,
    },
];

/// `failed_frac` is the fifth end-to-end metric: failures ÷ attempted, which
/// may rise by this much in absolute terms.  It is 0 on every workload, so
/// it has no relative bound and is reported through the result's
/// `attempted`/`failed` counts instead of `BENCHMARK.json`'s metric list.
pub const FAILED_FRAC: &str = "failed_frac";
pub const FAILED_FRAC_ABS_BOUND: f64 = 0.001;

/// Per-layer metrics `(name, unit)`, grouped by the crate they describe.
/// None is gated.  Means carry their denominator in the unit.
pub const PER_LAYER: [(&str, &str); 33] = [
    ("session.submit_us", "us/call"),
    ("session.wait_us", "us/call"),
    ("declsched.round_us", "us/round"),
    ("declsched.rule_eval_us", "us/round"),
    ("declsched.batch_size", "req/round"),
    ("declsched.rounds_per_txn", "ratio"),
    ("declsched.deferred_rounds_per_request", "ratio"),
    ("declsched.inline_tps", "txn/s"),
    ("declsched.submit_us", "us/req"),
    ("declsched.run_round_us", "us/req"),
    ("declsched.execute_batch_us", "us/req"),
    ("declsched.inline_accounted_frac", "ratio"),
    ("runtime.gap_frac", "ratio"),
    ("datalog.eval_us_per_round", "us/round"),
    ("relalg.scratch_eval_us", "us/eval"),
    ("schedlang.compile_us", "us/call"),
    ("txnstore.exec_us_per_stmt", "us/stmt"),
    ("txnstore.lock_waits", "count"),
    ("txnstore.deadlocks", "count"),
    ("shard.router_batch_size", "req/batch"),
    ("shard.busiest_busy_frac", "ratio"),
    ("shard.escalations_per_txn", "ratio"),
    ("shard.retries_per_escalation", "ratio"),
    ("shard.lane_prepare_us", "us/call"),
    ("shard.lane_commit_us", "us/call"),
    ("obs.queue_us_mean", "us/req"),
    ("obs.execute_us_mean", "us/req"),
    ("obs.trace_overhead_frac", "ratio"),
    ("obs.dropped_frac", "ratio"),
    ("simkit.pacer_lag_p99_us", "us/arrival"),
    ("process.cpu_us_per_txn", "us/txn"),
    ("process.peak_rss_mb", "MB"),
    ("process.rss_bytes_per_txn", "B/txn"),
];

/// One measured per-layer value with the number of observations behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LayerValue {
    pub name: &'static str,
    pub value: f64,
    pub count: u64,
}

pub fn layer_unit(name: &str) -> &'static str {
    PER_LAYER
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, unit)| *unit)
        .unwrap_or_else(|| panic!("`{name}` is not in the per-layer catalogue"))
}

/// Collects per-layer values; naming a metric outside the catalogue is a bug.
#[derive(Debug, Default, Clone)]
pub struct Layers(pub Vec<LayerValue>);

impl Layers {
    /// Set `name`, keeping its place if it is already present.
    pub fn put(&mut self, name: &'static str, value: f64, count: u64) {
        layer_unit(name);
        let new = LayerValue { name, value, count };
        match self.0.iter_mut().find(|v| v.name == name) {
            Some(slot) => *slot = new,
            None => self.0.push(new),
        }
    }

    /// A mean: `total / count`, 0 when nothing was observed.
    pub fn put_mean(&mut self, name: &'static str, total: f64, count: u64) {
        self.put(name, crate::stats::ratio(total, count as f64), count);
    }

    pub fn get(&self, name: &str) -> Option<LayerValue> {
        self.0.iter().copied().find(|v| v.name == name)
    }
}
