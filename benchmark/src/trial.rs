//! One trial: a fresh deployment, a warm-up, a measured window, a drain, a
//! shutdown and the output checks — everything through the public `session`
//! API.  A trial runs in a process of its own (see `main.rs`).

use crate::metrics::Layers;
use crate::procfs::{self, ProcSample};
use crate::spans::{Spans, ROOT};
use crate::stats::{percentile, ratio};
use crate::workloads::{Block, Deployment, Load, Workload, PINNED_SEED, TABLE_ROWS};
use declsched::SchedulerConfig;
use session::obs::TraceConfig;
use session::{Report, Scheduler, Session, Ticket};
use simkit::{ArrivalSchedule, OpenLoopPacer};
use std::collections::VecDeque;
use std::sync::mpsc;
use std::time::{Duration, Instant};
use workload::ArrivalSpec;

/// Flight-recorder ring size (events per worker) of a traced trial.
const TRACE_RING_EVENTS: usize = 1 << 16;

/// A closed-loop client trims the session's in-flight list this often, so
/// the list stays a few pages instead of growing with the run.
const TRIM_EVERY: u64 = 4_096;

#[derive(Debug, Clone, Copy)]
pub struct TrialSpec {
    pub workload: &'static Workload,
    pub seed: u64,
    pub warmup: Duration,
    pub window: Duration,
    /// Where in the block the stream starts.  The trials of one run start at
    /// different offsets, so their median is taken over different stretches
    /// of the block: a slow workload executes only a few thousand
    /// transactions per trial, and how contended those are varies by stretch.
    pub offset: u64,
    /// Flight recorder on, benchmark spans kept.
    pub traced: bool,
}

#[derive(Debug, Clone)]
pub struct Check {
    pub name: &'static str,
    pub ok: bool,
    pub detail: String,
}

#[derive(Debug)]
pub struct Trial {
    pub throughput_tps: f64,
    pub latency_p50_us: f64,
    pub latency_p95_us: f64,
    pub latency_samples: u64,
    pub setup_s: f64,
    pub attempted: u64,
    pub failed: u64,
    pub fingerprint: u64,
    pub checks: Vec<Check>,
    pub layers: Layers,
    pub spans: Spans,
}

impl Trial {
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.ok)
    }
}

/// What driving the load produced, before the deployment is shut down.
#[derive(Debug, Default)]
struct Drive {
    /// Submit-to-resolve time of every ticket that resolved `Ok` inside the
    /// measured window.
    latencies_ns: Vec<u64>,
    attempted: u64,
    resolved_ok: u64,
    failed: u64,
    /// How late each measured arrival was submitted (open loop only).
    pacer_lag_ns: Vec<u64>,
    proc_start: ProcSample,
    proc_end: ProcSample,
    /// The measured window on the span clock.
    window_ns: (u64, u64),
}

impl Drive {
    /// Wait for one ticket and account for it; `window` is `None` during
    /// warm-up.
    fn settle(
        &mut self,
        ticket: Ticket,
        submitted: Instant,
        window: Option<(Instant, Instant)>,
        spans: &mut Spans,
    ) {
        let ta = ticket.ta();
        let wait_start = spans.enabled().then(Instant::now);
        let result = ticket.wait();
        let done = Instant::now();
        if let Some(start) = wait_start {
            spans.record("wait", start, done, ROOT, ta);
        }
        match result {
            Ok(_) => {
                self.resolved_ok += 1;
                if window.is_some_and(|(from, to)| done >= from && done <= to) {
                    self.latencies_ns.push((done - submitted).as_nanos() as u64);
                }
            }
            Err(_) => self.failed += 1,
        }
    }
}

/// Run one trial.  `started` is when the trial's process began: set-up time
/// counts from there.
pub fn run_trial(spec: &TrialSpec, started: Instant) -> Result<Trial, String> {
    let workload = spec.workload;
    let mut spans = Spans::new(started, spec.traced);
    let mut layers = Layers::default();

    // --- set-up: generate, fingerprint, compile, build --------------------
    let block = Block::generate(workload.traffic, spec.seed);
    let fingerprint = block.fingerprint();
    let schedule = match workload.load {
        Load::Closed { .. } => None,
        Load::Open { rate_tps } => {
            let arrivals = (rate_tps * (spec.warmup + spec.window).as_secs_f64() * 1.05) as usize;
            Some(ArrivalSchedule::generate(
                &ArrivalSpec::Poisson { rate_tps },
                arrivals + 64,
                spec.seed,
            ))
        }
    };
    let (policy, _) = spans.time("compile", ROOT, || workload.policy.build());
    let policy = policy?;
    let (scheduler, _) = spans.time("build", ROOT, || {
        let mut builder = Scheduler::builder().table("bench", TABLE_ROWS);
        if let Some(policy) = policy {
            builder = builder.policy(policy);
        }
        if let Some(trigger) = workload.trigger {
            builder = builder.scheduler_config(SchedulerConfig {
                trigger,
                ..SchedulerConfig::default()
            });
        }
        if spec.traced {
            builder = builder.trace(TraceConfig::full(TRACE_RING_EVENTS));
        }
        match workload.deployment {
            Deployment::Passthrough => builder.passthrough(),
            Deployment::Unsharded => builder.unsharded(),
            Deployment::Sharded(shards) => builder.shards(shards),
        }
        .build()
    });
    let scheduler = scheduler.map_err(|e| format!("deployment does not start: {e}"))?;
    let registry = scheduler.registry();
    let mut session = scheduler.connect();
    let setup_s = started.elapsed().as_secs_f64();

    // --- drive ------------------------------------------------------------
    let mut drive = match (workload.load, &schedule) {
        (Load::Closed { depth }, _) => drive_closed(&mut session, &block, depth, spec, &mut spans),
        (Load::Open { .. }, Some(schedule)) => {
            drive_open(&mut session, &block, schedule, spec, &mut spans)
        }
        (Load::Open { .. }, None) => unreachable!("open loops generate a schedule"),
    };
    drop(session);

    // --- shut down and check ------------------------------------------------
    let (report, _) = spans.time("shutdown", ROOT, || scheduler.try_shutdown());
    let report = report.map_err(|e| format!("shutdown failed: {e}"))?;
    spans.close_root(Instant::now());

    let mut latencies = std::mem::take(&mut drive.latencies_ns);
    latencies.sort_unstable();

    if latencies.is_empty() {
        return Err("no transaction completed inside the measured window".to_string());
    }
    let window_s = spec.window.as_secs_f64();

    let (submit_ns, submits) = spans.total("submit", drive.window_ns.0, drive.window_ns.1);
    let (wait_ns, waits) = spans.total("wait", drive.window_ns.0, drive.window_ns.1);
    layers.put_mean("session.submit_us", submit_ns as f64 / 1e3, submits);
    layers.put_mean("session.wait_us", wait_ns as f64 / 1e3, waits);
    if !drive.pacer_lag_ns.is_empty() {
        let lag = &mut drive.pacer_lag_ns;
        lag.sort_unstable();
        layers.put(
            "simkit.pacer_lag_p99_us",
            percentile(lag, 0.99) as f64 / 1e3,
            lag.len() as u64,
        );
    }
    let measured = latencies.len() as u64;
    layers.put_mean(
        "process.cpu_us_per_txn",
        (drive.proc_end.cpu_us - drive.proc_start.cpu_us) as f64,
        measured,
    );
    layers.put_mean(
        "process.rss_bytes_per_txn",
        drive.proc_end.rss_bytes as f64 - drive.proc_start.rss_bytes as f64,
        measured,
    );
    layers.put(
        "process.peak_rss_mb",
        procfs::sample().peak_rss_bytes as f64 / (1024.0 * 1024.0),
        1,
    );
    report_layers(&report, &registry, &mut layers);

    let checks = check_outputs(spec, &block, fingerprint, &drive, &report);
    Ok(Trial {
        throughput_tps: measured as f64 / window_s,
        latency_p50_us: percentile(&latencies, 0.50) as f64 / 1e3,
        latency_p95_us: percentile(&latencies, 0.95) as f64 / 1e3,
        latency_samples: measured,
        setup_s,
        attempted: drive.attempted,
        failed: drive.failed,
        fingerprint,
        checks,
        layers,
        spans,
    })
}

/// Closed loop: one client keeps `depth` transactions in flight, awaiting
/// tickets in submission order.  Latency runs from the `submit` call to the
/// return of `wait`.
fn drive_closed(
    session: &mut Session,
    block: &Block,
    depth: usize,
    spec: &TrialSpec,
    spans: &mut Spans,
) -> Drive {
    let mut drive = Drive::default();
    drive.latencies_ns.reserve(1 << 20);
    spans.reserve(1 << 21);
    let mut inflight: VecDeque<(Ticket, Instant)> = VecDeque::with_capacity(depth);
    let warm_end = Instant::now() + spec.warmup;
    let mut window: Option<(Instant, Instant)> = None;
    let mut seq = spec.offset;
    loop {
        let now = Instant::now();
        match window {
            None if now >= warm_end => {
                window = Some((now, now + spec.window));
                drive.proc_start = procfs::sample();
            }
            Some((_, end)) if now >= end => break,
            _ => {}
        }
        if inflight.len() == depth {
            let (ticket, submitted) = inflight.pop_front().expect("depth is at least 1");
            drive.settle(ticket, submitted, window, spans);
        }
        let txn = block.txn(seq, 0);
        let submitted = Instant::now();
        match session.submit(txn) {
            Ok(ticket) => {
                if spans.enabled() {
                    spans.record("submit", submitted, Instant::now(), ROOT, seq + 1);
                }
                inflight.push_back((ticket, submitted));
            }
            Err(_) => drive.failed += 1,
        }
        drive.attempted += 1;
        seq += 1;
        if seq.is_multiple_of(TRIM_EVERY) {
            session.in_flight();
        }
    }
    drive.proc_end = procfs::sample();
    for (ticket, submitted) in inflight {
        drive.settle(ticket, submitted, window, spans);
    }
    let (from, to) = window.expect("the loop only ends inside a window");
    drive.window_ns = (spans.at_ns(from), spans.at_ns(to));
    drive
}

/// Open loop: this thread submits each transaction when its seeded Poisson
/// arrival is due, whatever the backend does; a collector thread awaits the
/// tickets in submission order.  Latency runs from the *due* time, so a
/// stalled generator's delay is charged to the requests it delayed.
fn drive_open(
    session: &mut Session,
    block: &Block,
    schedule: &ArrivalSchedule,
    spec: &TrialSpec,
    spans: &mut Spans,
) -> Drive {
    let warm_us = spec.warmup.as_micros() as u64;
    let end_us = warm_us + spec.window.as_micros() as u64;
    let mut drive = Drive::default();
    spans.reserve(1 << 18);
    let mut collector_spans = spans.sibling();
    collector_spans.reserve(1 << 18);
    let (tickets, arrivals) = mpsc::channel::<(Ticket, Instant)>();

    let pacer = OpenLoopPacer::start();
    let origin = Instant::now();
    let window = (
        origin + Duration::from_micros(warm_us),
        origin + Duration::from_micros(end_us),
    );
    let collected = std::thread::scope(|scope| {
        let collector = scope.spawn(move || {
            let mut collected = Drive::default();
            collected.latencies_ns.reserve(1 << 18);
            for (ticket, due) in arrivals {
                collected.settle(ticket, due, Some(window), &mut collector_spans);
            }
            (collected, collector_spans)
        });
        let mut sampled_start = false;
        for (seq, &due_us) in (spec.offset..).zip(schedule.offsets_us()) {
            if due_us > end_us {
                break;
            }
            pacer.pace_until(due_us);
            let due = origin + Duration::from_micros(due_us);
            let measured = due_us >= warm_us;
            if measured && !sampled_start {
                drive.proc_start = procfs::sample();
                sampled_start = true;
            }
            let txn = block.txn(seq, due_us);
            let submitted = Instant::now();
            if measured {
                drive
                    .pacer_lag_ns
                    .push(submitted.saturating_duration_since(due).as_nanos() as u64);
            }
            drive.attempted += 1;
            match session.submit(txn) {
                Ok(ticket) => {
                    if spans.enabled() {
                        spans.record("submit", submitted, Instant::now(), ROOT, seq + 1);
                    }
                    if tickets.send((ticket, due)).is_err() {
                        drive.failed += 1;
                    }
                }
                Err(_) => drive.failed += 1,
            }
        }
        drive.proc_end = procfs::sample();
        drop(tickets);
        collector.join()
    });
    let (collected, collector_spans) = collected.expect("the collector thread does not panic");
    spans.absorb(collector_spans);
    drive.latencies_ns = collected.latencies_ns;
    drive.resolved_ok = collected.resolved_ok;
    drive.failed += collected.failed;
    drive.window_ns = (spans.at_ns(window.0), spans.at_ns(window.1));
    drive
}

/// Per-layer values read from what the run report and the metrics registry
/// already export.
fn report_layers(report: &Report, registry: &session::obs::Registry, layers: &mut Layers) {
    let scheduler = &report.scheduler;
    let rounds = scheduler.rounds;
    layers.put_mean("declsched.round_us", scheduler.round_micros as f64, rounds);
    layers.put_mean(
        "declsched.rule_eval_us",
        scheduler.rule_eval_micros as f64,
        rounds,
    );
    layers.put_mean(
        "declsched.batch_size",
        scheduler.requests_scheduled as f64,
        rounds,
    );
    layers.put(
        "declsched.rounds_per_txn",
        ratio(rounds as f64, report.transactions as f64),
        report.transactions,
    );
    layers.put(
        "declsched.deferred_rounds_per_request",
        ratio(
            scheduler.deferred_request_rounds as f64,
            scheduler.requests_scheduled as f64,
        ),
        scheduler.requests_scheduled,
    );
    if let Some(server) = &report.server {
        layers.put("txnstore.lock_waits", server.lock_waits as f64, 1);
        layers.put("txnstore.deadlocks", server.deadlock_aborts as f64, 1);
    }
    if let Some(detail) = &report.sharded {
        let histogram_mean = |layers: &mut Layers, name: &'static str, source: &str| {
            let histogram = registry.histogram(source);
            layers.put_mean(name, histogram.sum() as f64, histogram.count());
        };
        histogram_mean(layers, "shard.router_batch_size", "router.batch_size");
        histogram_mean(layers, "shard.lane_prepare_us", "lane.prepare_us");
        histogram_mean(layers, "shard.lane_commit_us", "lane.commit_us");
        let busiest = detail.reports.iter().map(|r| r.busy_us).max().unwrap_or(0);
        layers.put(
            "shard.busiest_busy_frac",
            ratio(busiest as f64, report.wall.as_micros() as f64),
            detail.reports.len() as u64,
        );
        let escalations = detail.escalation.escalations;
        layers.put(
            "shard.escalations_per_txn",
            ratio(escalations as f64, report.transactions as f64),
            report.transactions,
        );
        layers.put(
            "shard.retries_per_escalation",
            ratio(detail.escalation.retries as f64, escalations as f64),
            escalations,
        );
    }
    if report.trace.sample_one_in() > 0 {
        let phases = report.trace.phase_histograms();
        layers.put(
            "obs.queue_us_mean",
            phases.queue.mean_us(),
            phases.queue.count,
        );
        layers.put(
            "obs.execute_us_mean",
            phases.execute.mean_us(),
            phases.execute.count,
        );
        let kept = report.trace.len() as u64;
        let dropped = report.trace.dropped();
        layers.put(
            "obs.dropped_frac",
            ratio(dropped as f64, (kept + dropped) as f64),
            kept + dropped,
        );
    }
}

/// The output checks of one trial.
fn check_outputs(
    spec: &TrialSpec,
    block: &Block,
    fingerprint: u64,
    drive: &Drive,
    report: &Report,
) -> Vec<Check> {
    let mut checks = Vec::new();
    let mut check = |name: &'static str, ok: bool, detail: String| {
        checks.push(Check { name, ok, detail });
    };

    // Every ticket was awaited before shutdown, so each one resolved.
    let resolved = drive.resolved_ok + drive.failed;
    check(
        "all_tickets_resolve",
        resolved == drive.attempted,
        format!("{resolved} resolved of {} submitted", drive.attempted),
    );
    // Not `dispatch.commits`: a sharded deployment commits a spanning
    // transaction once on every engine it touched.
    check(
        "report_counts_every_transaction",
        report.transactions == resolved,
        format!(
            "report.transactions = {}, tickets resolved = {resolved}",
            report.transactions
        ),
    );

    // Writes store the key as the value, so the final state is known
    // whatever order the scheduler chose: `k` where a completed transaction
    // wrote, the initial 0 elsewhere.  (A failed transaction may leave a row
    // it would have written at 0.)
    let mut written = vec![false; TABLE_ROWS];
    for seq in spec.offset..spec.offset + drive.attempted.min(block.len() as u64) {
        for (is_write, key) in block.statements((seq % block.len() as u64) as usize) {
            written[key as usize] |= is_write;
        }
    }
    let wrong = (0..TABLE_ROWS)
        .filter(|&key| {
            let value = report.final_rows.get(key).copied();
            let unwritten = value == Some(0) && (!written[key] || drive.failed > 0);
            let stored = written[key] && value == Some(key as i64);
            !(unwritten || stored)
        })
        .count();
    check(
        "final_rows_match_the_writes",
        wrong == 0,
        format!("{wrong} of {TABLE_ROWS} rows differ from the expected state"),
    );

    if let Some(detail) = &report.sharded {
        check(
            "no_unreclaimed_homes",
            detail.unreclaimed_homes == 0,
            format!("{} homes entries left", detail.unreclaimed_homes),
        );
    }
    if spec.seed == PINNED_SEED {
        check(
            "generator_fingerprint_pinned",
            fingerprint == spec.workload.pinned_fingerprint,
            format!(
                "block fingerprint {fingerprint:#018x}, pinned {:#018x}",
                spec.workload.pinned_fingerprint
            ),
        );
    }
    checks
}
