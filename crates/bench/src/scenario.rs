//! The scenario matrix: every registered workload scenario driven through
//! the unified `session` façade against every deployment.
//!
//! Closed-loop scenarios replay their stream with a bounded number of
//! transactions in flight (the classical bench shape).  Open-loop scenarios
//! first measure the backend's closed-loop capacity on the *same* stream,
//! then replay it paced by a pre-generated arrival schedule
//! ([`simkit::arrival`]) whose mean rate is a chosen multiple of that
//! capacity — so offered load is decoupled from completion, and driving the
//! multiple past 1 exposes the saturation knee (achieved throughput
//! plateaus at capacity while offered load keeps rising and latency
//! explodes).  That knee is what [`saturation_series`] sweeps.

use crate::hist::LatencyHistogram;
use crate::{shard_scaling_workload, MatrixBackend, Scale};
use declsched::{Protocol, ProtocolKind, SchedulerConfig, SlaMeta, TriggerPolicy};
use simkit::arrival::{ArrivalSchedule, OpenLoopPacer};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;
use workload::scenario::{registry, Scenario, ScenarioParams, ScenarioTxn};
use workload::ArrivalSpec;

/// Open-loop runs pace their mean offered rate at this multiple of the
/// measured closed-loop capacity: high enough that bursts overrun the
/// backend transiently, low enough that the run still drains.
const OPEN_LOOP_LOAD_FACTOR: f64 = 0.6;

/// Pipeline depth used when measuring a backend's closed-loop capacity for
/// an open-loop scenario.
const CAPACITY_DEPTH: usize = 32;

/// Mixed into the workload seed to derive the arrival-schedule seed, so
/// arrival gaps are statistically independent of transaction content (both
/// generators would otherwise walk the identical splitmix64 sequence).
const ARRIVAL_SEED_SALT: u64 = 0xA881_55C1_0F0F_9E3D;

/// The scenario parameters used at a given benchmark scale — shared by the
/// bin, the tests and the saturation sweep so every consumer sees the
/// identical stream.  The workload seed honours `CHAOS_SEED` so a failing
/// matrix run reproduces with one environment variable.
pub fn scenario_params(scale: Scale) -> ScenarioParams {
    let (transactions, table_rows) = shard_scaling_workload(scale);
    ScenarioParams {
        transactions,
        table_rows,
        seed: chaos::seed_from_env(42),
    }
}

/// One measured (scenario, backend) cell of the matrix.
#[derive(Debug, Clone)]
pub struct ScenarioMatrixRow {
    /// Scenario name (stable registry key).
    pub scenario: String,
    /// Deployment label (`passthrough`, `unsharded`, `sharded4`, …).
    pub backend: String,
    /// `closed` or `open` loop.
    pub mode: &'static str,
    /// Transactions submitted.
    pub transactions: u64,
    /// Transactions aborted (native deadlock victims in passthrough mode;
    /// scheduled backends never abort).
    pub aborted: u64,
    /// Wall-clock seconds from first submission to last completion.
    pub wall_secs: f64,
    /// Mean offered load in transactions per second (0 for closed loops —
    /// offered load is completion-coupled there).
    pub offered_tps: f64,
    /// Committed transactions per second.
    pub achieved_tps: f64,
    /// Median transaction latency (submit → complete), milliseconds;
    /// `None` when the run completed nothing to measure.
    pub p50_ms: Option<f64>,
    /// 99th-percentile latency, milliseconds (`None` with no samples).
    pub p99_ms: Option<f64>,
    /// 99.9th-percentile latency, milliseconds (`None` with no samples).
    pub p999_ms: Option<f64>,
    /// Largest number of transactions simultaneously in flight — the
    /// queue-growth witness under open-loop overload.
    pub peak_in_flight: u64,
    /// Latency samples that saturated the histogram range (≥ 100 s): any
    /// nonzero value means the reported quantiles understate the tail (see
    /// [`LatencyHistogram::overflow`]).
    pub latency_overflow: u64,
    /// Router homes-map entries still live at shutdown (sharded backends
    /// only; always 0 on a clean run — the bin fails otherwise).
    pub unreclaimed_homes: u64,
}

impl ScenarioMatrixRow {
    /// CSV header.
    pub fn csv_header() -> &'static str {
        "scenario,backend,mode,transactions,aborted,wall_secs,offered_tps,achieved_tps,p50_ms,p99_ms,p999_ms,peak_in_flight,latency_overflow,unreclaimed_homes"
    }

    /// CSV rendering (empty cells for unmeasurable quantiles).
    pub fn to_csv(&self) -> String {
        format!(
            "{},{},{},{},{},{:.3},{:.0},{:.0},{},{},{},{},{},{}",
            self.scenario,
            self.backend,
            self.mode,
            self.transactions,
            self.aborted,
            self.wall_secs,
            self.offered_tps,
            self.achieved_tps,
            csv_ms(self.p50_ms),
            csv_ms(self.p99_ms),
            csv_ms(self.p999_ms),
            self.peak_in_flight,
            self.latency_overflow,
            self.unreclaimed_homes
        )
    }

    /// One JSON object (hand-rolled; the workspace builds offline without a
    /// serde dependency).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"scenario\":\"{}\",\"backend\":\"{}\",\"mode\":\"{}\",\"transactions\":{},\"aborted\":{},\"wall_secs\":{:.6},\"offered_tps\":{:.1},\"achieved_tps\":{:.1},\"p50_ms\":{},\"p99_ms\":{},\"p999_ms\":{},\"peak_in_flight\":{},\"latency_overflow\":{},\"unreclaimed_homes\":{}}}",
            self.scenario,
            self.backend,
            self.mode,
            self.transactions,
            self.aborted,
            self.wall_secs,
            self.offered_tps,
            self.achieved_tps,
            json_ms(self.p50_ms),
            json_ms(self.p99_ms),
            json_ms(self.p999_ms),
            self.peak_in_flight,
            self.latency_overflow,
            self.unreclaimed_homes
        )
    }
}

/// One point of the saturation sweep: offered load as a multiple of the
/// measured capacity, and what the backend actually delivered.
#[derive(Debug, Clone)]
pub struct SaturationPoint {
    /// Scenario swept.
    pub scenario: String,
    /// Deployment label.
    pub backend: String,
    /// Offered load as a multiple of measured closed-loop capacity.
    pub load_factor: f64,
    /// Mean offered transactions per second.
    pub offered_tps: f64,
    /// Committed transactions per second.
    pub achieved_tps: f64,
    /// 99th-percentile latency, milliseconds (`None` with no samples).
    pub p99_ms: Option<f64>,
    /// Peak transactions in flight.
    pub peak_in_flight: u64,
}

impl SaturationPoint {
    /// One JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"scenario\":\"{}\",\"backend\":\"{}\",\"load_factor\":{:.2},\"offered_tps\":{:.1},\"achieved_tps\":{:.1},\"p99_ms\":{},\"peak_in_flight\":{}}}",
            self.scenario,
            self.backend,
            self.load_factor,
            self.offered_tps,
            self.achieved_tps,
            json_ms(self.p99_ms),
            self.peak_in_flight
        )
    }
}

/// A millisecond quantile as a JSON value: a number, or `null` when the
/// histogram recorded nothing — an empty run must not report a fabricated
/// p99 (the old behaviour synthesised one from bucket bounds).
pub(crate) fn json_ms(ms: Option<f64>) -> String {
    match ms {
        Some(value) => format!("{value:.4}"),
        None => "null".to_string(),
    }
}

/// A millisecond quantile as a CSV cell (empty when unmeasured).
fn csv_ms(ms: Option<f64>) -> String {
    match ms {
        Some(value) => format!("{value:.3}"),
        None => String::new(),
    }
}

/// What one driver pass measured.
struct RunStats {
    wall_secs: f64,
    committed: u64,
    aborted: u64,
    latency: LatencyHistogram,
    peak_in_flight: u64,
    /// Router homes-map entries still live at shutdown (0 for non-sharded
    /// backends and on every clean run).
    unreclaimed_homes: u64,
}

impl RunStats {
    fn achieved_tps(&self) -> f64 {
        if self.wall_secs > 0.0 {
            self.committed as f64 / self.wall_secs
        } else {
            0.0
        }
    }
}

/// Build the scheduler deployment for one (scenario, backend) cell.
fn start_deployment(
    scenario: &dyn Scenario,
    backend: MatrixBackend,
    table_rows: usize,
) -> session::Scheduler {
    let kind = if scenario.sla_aware() {
        ProtocolKind::SlaPriority
    } else {
        ProtocolKind::Ss2pl
    };
    let builder = session::Scheduler::builder()
        .policy(Protocol::algebra(kind))
        .scheduler_config(SchedulerConfig {
            trigger: TriggerPolicy::Hybrid {
                interval_ms: 1,
                threshold: 64,
            },
            ..SchedulerConfig::default()
        })
        .table("bench", table_rows);
    match backend {
        MatrixBackend::Passthrough => builder.passthrough(),
        MatrixBackend::Unsharded => builder.unsharded(),
        MatrixBackend::Sharded(n) => builder.shards(n),
    }
    .build()
    .expect("deployment start cannot fail")
}

/// Turn one generated scenario transaction into a session [`session::Txn`],
/// attaching SLA metadata when the scenario models service classes.
pub(crate) fn to_session_txn(txn: &ScenarioTxn, arrival_us: u64) -> session::Txn {
    let built = session::Txn::from_statements(&txn.statements);
    match txn.class {
        None => built,
        Some(class) => {
            let arrival_ms = arrival_us / 1_000;
            built.with_sla(SlaMeta {
                priority: class.priority(),
                class: class.as_str(),
                arrival_ms,
                deadline_ms: arrival_ms + class.deadline_ms(),
            })
        }
    }
}

/// Closed-loop driver: at most `depth` transactions in flight, latency
/// measured per transaction, aborts tolerated (passthrough deadlock
/// victims).
fn run_closed_loop(
    scenario: &dyn Scenario,
    backend: MatrixBackend,
    stream: &[ScenarioTxn],
    table_rows: usize,
    depth: usize,
) -> RunStats {
    use std::collections::VecDeque;

    let depth = depth.max(1);
    let scheduler = start_deployment(scenario, backend, table_rows);
    let mut session = scheduler.connect();

    let mut latency = LatencyHistogram::new();
    let mut committed = 0u64;
    let mut aborted = 0u64;
    let mut window: VecDeque<(session::Ticket, Instant)> = VecDeque::with_capacity(depth);
    let started = Instant::now();
    for txn in stream {
        if window.len() >= depth {
            let (ticket, submitted) = window.pop_front().expect("window non-empty");
            match ticket.wait() {
                Ok(_) => committed += 1,
                Err(_) => aborted += 1,
            }
            latency.record(submitted.elapsed());
        }
        window.push_back((
            session
                .submit(to_session_txn(txn, 0))
                .expect("submission cannot fail while the deployment is up"),
            Instant::now(),
        ));
    }
    while let Some((ticket, submitted)) = window.pop_front() {
        match ticket.wait() {
            Ok(_) => committed += 1,
            Err(_) => aborted += 1,
        }
        latency.record(submitted.elapsed());
    }
    let wall_secs = started.elapsed().as_secs_f64().max(1e-9);
    let report = scheduler.shutdown();

    RunStats {
        wall_secs,
        committed,
        aborted,
        latency,
        peak_in_flight: depth.min(stream.len()) as u64,
        unreclaimed_homes: unreclaimed_homes(&report),
    }
}

/// Homes-map entries the router failed to reclaim (0 for non-sharded
/// backends) — the leak witness every matrix cell asserts on.
fn unreclaimed_homes(report: &session::Report) -> u64 {
    report
        .sharded
        .as_ref()
        .map(|detail| detail.unreclaimed_homes)
        .unwrap_or(0)
}

/// Open-loop driver: submissions paced by `schedule` regardless of
/// completion; a collector thread drains tickets in submission order and
/// records latency, so the submitting thread never blocks on the backend.
///
/// Latency is *as observed in submission order*: a transaction that
/// completes out of order is recorded when its ticket is reached, so its
/// sample is bounded below by the completion of everything submitted
/// before it.  Under overload that head-of-line wait **is** the queueing
/// delay the open loop exists to expose; in uncontended runs the window is
/// shallow and the skew negligible.  The closed-loop driver observes the
/// same way (as `backend_matrix` always has).
fn run_open_loop(
    scenario: &dyn Scenario,
    backend: MatrixBackend,
    stream: &[ScenarioTxn],
    table_rows: usize,
    schedule: &ArrivalSchedule,
) -> RunStats {
    assert_eq!(schedule.len(), stream.len());
    let scheduler = start_deployment(scenario, backend, table_rows);
    let mut session = scheduler.connect();

    let completed = Arc::new(AtomicU64::new(0));
    let (ticket_tx, ticket_rx) = crossbeam::channel::unbounded::<(session::Ticket, Instant)>();
    let collector = {
        let completed = Arc::clone(&completed);
        std::thread::spawn(move || {
            let mut latency = LatencyHistogram::new();
            let mut committed = 0u64;
            let mut aborted = 0u64;
            while let Ok((ticket, submitted)) = ticket_rx.recv() {
                match ticket.wait() {
                    Ok(_) => committed += 1,
                    Err(_) => aborted += 1,
                }
                latency.record(submitted.elapsed());
                completed.fetch_add(1, Ordering::Relaxed);
            }
            (latency, committed, aborted)
        })
    };

    let started = Instant::now();
    let pacer = OpenLoopPacer::start();
    let mut peak_in_flight = 0u64;
    for (index, (txn, &arrival_us)) in stream.iter().zip(schedule.offsets_us()).enumerate() {
        pacer.pace_until(arrival_us);
        let ticket = session
            .submit(to_session_txn(txn, arrival_us))
            .expect("submission cannot fail while the deployment is up");
        ticket_tx
            .send((ticket, Instant::now()))
            .expect("collector outlives the submission loop");
        let in_flight = (index as u64 + 1) - completed.load(Ordering::Relaxed);
        peak_in_flight = peak_in_flight.max(in_flight);
    }
    drop(ticket_tx);
    let (latency, committed, aborted) = collector.join().expect("collector thread never panics");
    let wall_secs = started.elapsed().as_secs_f64().max(1e-9);
    let report = scheduler.shutdown();

    RunStats {
        wall_secs,
        committed,
        aborted,
        latency,
        peak_in_flight,
        unreclaimed_homes: unreclaimed_homes(&report),
    }
}

/// Measure a backend's closed-loop capacity (committed tps at pipeline
/// depth [`CAPACITY_DEPTH`]) on the scenario's own stream.
fn measure_capacity(
    scenario: &dyn Scenario,
    backend: MatrixBackend,
    stream: &[ScenarioTxn],
    table_rows: usize,
) -> f64 {
    run_closed_loop(scenario, backend, stream, table_rows, CAPACITY_DEPTH).achieved_tps()
}

/// The arrival schedule for an open-loop run at `load_factor` × the
/// measured capacity, preserving the scenario's arrival *shape* (burst
/// ratio, duty cycle).
pub(crate) fn scaled_schedule(
    scenario: &dyn Scenario,
    capacity_tps: f64,
    load_factor: f64,
    n: usize,
    seed: u64,
) -> ArrivalSchedule {
    let spec = scenario.arrival();
    let mean = spec.mean_rate_tps().unwrap_or(1.0).max(f64::MIN_POSITIVE);
    let target = (capacity_tps * load_factor).max(1.0);
    ArrivalSchedule::generate(&spec.scaled(target / mean), n, seed ^ ARRIVAL_SEED_SALT)
}

/// Run one (scenario, backend) cell of the matrix.
pub fn scenario_matrix_run(
    scenario: &dyn Scenario,
    backend: MatrixBackend,
    scale: Scale,
) -> ScenarioMatrixRow {
    let params = scenario_params(scale);
    let stream = scenario.generate(&params);
    let (mode, offered_tps, stats) = match scenario.arrival() {
        ArrivalSpec::Closed { depth } => {
            let stats = run_closed_loop(scenario, backend, &stream, params.table_rows, depth);
            ("closed", 0.0, stats)
        }
        _ => {
            let capacity = measure_capacity(scenario, backend, &stream, params.table_rows);
            let schedule = scaled_schedule(
                scenario,
                capacity,
                OPEN_LOOP_LOAD_FACTOR,
                stream.len(),
                params.seed,
            );
            let offered = schedule.offered_tps();
            let stats = run_open_loop(scenario, backend, &stream, params.table_rows, &schedule);
            ("open", offered, stats)
        }
    };

    ScenarioMatrixRow {
        scenario: scenario.name().to_string(),
        backend: backend.label(),
        mode,
        transactions: stream.len() as u64,
        aborted: stats.aborted,
        wall_secs: stats.wall_secs,
        offered_tps,
        achieved_tps: stats.achieved_tps(),
        p50_ms: stats.latency.p50_ms(),
        p99_ms: stats.latency.p99_ms(),
        p999_ms: stats.latency.p999_ms(),
        peak_in_flight: stats.peak_in_flight,
        latency_overflow: stats.latency.overflow(),
        unreclaimed_homes: stats.unreclaimed_homes,
    }
}

/// The full matrix: every registered scenario against every deployment.
pub fn scenario_matrix_sweep(backends: &[MatrixBackend], scale: Scale) -> Vec<ScenarioMatrixRow> {
    let mut rows = Vec::new();
    for scenario in registry() {
        for &backend in backends {
            rows.push(scenario_matrix_run(scenario.as_ref(), backend, scale));
        }
    }
    rows
}

/// Sweep offered load across `load_factors` × closed-loop capacity for one
/// scenario on one backend.  Past factor 1.0 the offered rate keeps rising
/// while achieved throughput plateaus at capacity — the saturation point
/// the open-loop harness exists to expose.
///
/// `capacity_tps` lets a caller that already measured the backend's
/// closed-loop capacity reuse it (keeping one calibration across an
/// emitted document); `None` measures it here with a depth-32 replay of
/// the same stream.
pub fn saturation_series(
    scenario: &dyn Scenario,
    backend: MatrixBackend,
    scale: Scale,
    load_factors: &[f64],
    capacity_tps: Option<f64>,
) -> Vec<SaturationPoint> {
    let params = scenario_params(scale);
    let stream = scenario.generate(&params);
    let capacity = capacity_tps
        .unwrap_or_else(|| measure_capacity(scenario, backend, &stream, params.table_rows));
    load_factors
        .iter()
        .map(|&factor| {
            let schedule = scaled_schedule(scenario, capacity, factor, stream.len(), params.seed);
            let stats = run_open_loop(scenario, backend, &stream, params.table_rows, &schedule);
            SaturationPoint {
                scenario: scenario.name().to_string(),
                backend: backend.label(),
                load_factor: factor,
                offered_tps: schedule.offered_tps(),
                achieved_tps: stats.achieved_tps(),
                p99_ms: stats.latency.p99_ms(),
                peak_in_flight: stats.peak_in_flight,
            }
        })
        .collect()
}

/// Render the matrix and the saturation sweep as the
/// `BENCH_scenario_matrix.json` document.
pub fn scenario_matrix_json(
    rows: &[ScenarioMatrixRow],
    saturation: &[SaturationPoint],
    scale_label: &str,
) -> String {
    let names: Vec<String> = registry()
        .iter()
        .map(|s| format!("\"{}\"", s.name()))
        .collect();
    let series: Vec<String> = rows.iter().map(ScenarioMatrixRow::to_json).collect();
    let knee: Vec<String> = saturation.iter().map(SaturationPoint::to_json).collect();
    format!(
        "{{\n  \"bench\": \"scenario_matrix\",\n  \"scale\": \"{}\",\n  \"scenarios\": [{}],\n  \"series\": [\n    {}\n  ],\n  \"saturation\": [\n    {}\n  ]\n}}\n",
        scale_label,
        names.join(", "),
        series.join(",\n    "),
        knee.join(",\n    ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closed_loop_cell_commits_the_whole_stream_on_a_scheduled_backend() {
        let scenario = workload::scenario::by_name("zipf-hotspot").unwrap();
        let row = scenario_matrix_run(scenario.as_ref(), MatrixBackend::Unsharded, Scale::smoke());
        assert_eq!(row.mode, "closed");
        assert_eq!(row.transactions, 256);
        assert_eq!(row.aborted, 0, "scheduled backends never abort");
        assert!(row.achieved_tps > 0.0);
        assert!(row.p50_ms <= row.p99_ms && row.p99_ms <= row.p999_ms);
        assert!(row.to_csv().starts_with("zipf-hotspot,unsharded,closed"));
    }

    #[test]
    fn open_loop_cell_reports_offered_load_decoupled_from_completion() {
        let scenario = workload::scenario::by_name("bursty").unwrap();
        let row = scenario_matrix_run(scenario.as_ref(), MatrixBackend::Unsharded, Scale::smoke());
        assert_eq!(row.mode, "open");
        assert!(row.offered_tps > 0.0, "open loop must report offered load");
        assert_eq!(row.transactions - row.aborted, 256);
        assert!(row.peak_in_flight >= 1);
        assert!(row.to_json().contains("\"mode\":\"open\""));
    }

    #[test]
    fn sla_scenario_runs_under_the_priority_protocol_end_to_end() {
        let scenario = workload::scenario::by_name("sla-tiers").unwrap();
        assert!(scenario.sla_aware());
        let row = scenario_matrix_run(scenario.as_ref(), MatrixBackend::Sharded(2), Scale::smoke());
        assert_eq!(row.aborted, 0);
        assert_eq!(row.transactions, 256);
        assert!(row.achieved_tps > 0.0);
        assert_eq!(row.unreclaimed_homes, 0, "router must reclaim every home");
        assert_eq!(row.latency_overflow, 0, "no smoke run takes 100 s");
    }

    #[test]
    fn saturation_sweep_shows_achieved_plateauing_below_offered() {
        let scenario = workload::scenario::by_name("bursty").unwrap();
        let points = saturation_series(
            scenario.as_ref(),
            MatrixBackend::Unsharded,
            Scale::smoke(),
            &[0.5, 4.0],
            None,
        );
        assert_eq!(points.len(), 2);
        let overload = &points[1];
        assert!(
            overload.achieved_tps < overload.offered_tps * 0.8,
            "at 4x capacity the backend must fall behind offered load: \
             achieved {:.0} vs offered {:.0}",
            overload.achieved_tps,
            overload.offered_tps
        );
        assert!(
            overload.peak_in_flight > points[0].peak_in_flight,
            "overload must grow the in-flight queue"
        );
    }

    #[test]
    fn json_document_lists_every_registered_scenario() {
        let rows = vec![scenario_matrix_run(
            workload::scenario::by_name("read-mostly").unwrap().as_ref(),
            MatrixBackend::Passthrough,
            Scale::smoke(),
        )];
        let json = scenario_matrix_json(&rows, &[], "smoke");
        for scenario in registry() {
            assert!(
                json.contains(&format!("\"{}\"", scenario.name())),
                "JSON must list {}",
                scenario.name()
            );
        }
        assert!(json.contains("\"bench\": \"scenario_matrix\""));
    }
}
