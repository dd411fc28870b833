//! Observability tour: the flight recorder, the live metrics registry and
//! phase histograms, on a 2-shard fleet — full guide in
//! `docs/OBSERVABILITY.md`.
//!
//! Run with: `cargo run --release --example trace_tour`
//!
//! Four stops:
//!  1. turn the flight recorder on with one builder call and submit a mix
//!     of single-shard and one cross-shard transaction,
//!  2. peek at the live metrics registry *mid-run* (snapshot + Prometheus
//!     text — no shutdown needed),
//!  3. reconstruct per-request timelines from `Report::trace`, including
//!     the cross-shard escalation protocol stamped event by event,
//!  4. read the phase histograms the whole trace aggregates into.

use declsched::shard_of;
use session::{Scheduler, Txn};

fn main() {
    const SHARDS: usize = 2;
    const ROWS: usize = 1_000;

    // Stop 1: `.trace(...)` is the only observability-specific line.
    // `TraceConfig::full` records every transaction; `sampled(16, cap)`
    // records 1-in-16 (whole transactions, so timelines stay complete);
    // the default is off and costs one branch per instrumentation site.
    let scheduler = Scheduler::builder()
        .table("accounts", ROWS)
        .shards(SHARDS)
        .trace(obs::TraceConfig::full(obs::TraceConfig::DEFAULT_CAPACITY))
        .build()
        .expect("fleet starts");
    let mut session = scheduler.connect();

    // A handful of single-shard writes...
    let mut tickets = Vec::new();
    for ta in 1..=8u64 {
        let object = (ta * 37) as i64 % ROWS as i64;
        tickets.push(
            session
                .submit(Txn::new(ta).write(object, ta as i64).commit())
                .expect("fleet is up"),
        );
    }
    // ...and one transaction whose footprint spans both shards, so it
    // takes the escalation lane and leaves the richest timeline.
    let left = (0..ROWS as i64)
        .find(|&o| shard_of(o, SHARDS) == 0)
        .expect("shard 0 owns something");
    let right = (0..ROWS as i64)
        .find(|&o| shard_of(o, SHARDS) == 1)
        .expect("shard 1 owns something");
    let spanning_ta = 9u64;
    tickets.push(
        session
            .submit(
                Txn::new(spanning_ta)
                    .write(left, -1)
                    .write(right, -2)
                    .commit(),
            )
            .expect("fleet is up"),
    );
    for ticket in tickets {
        ticket.wait().expect("all transactions commit");
    }

    // Stop 2: the registry is live — snapshot it while the fleet is still
    // running.  Counters/gauges/histograms are shared atomics, so this
    // never blocks a worker.
    let registry = scheduler.registry();
    let snap = registry.snapshot();
    println!("mid-run registry snapshot:");
    println!(
        "   session.submitted   = {}",
        snap.counter("session.submitted")
    );
    println!(
        "   session.committed   = {}",
        snap.counter("session.committed")
    );
    println!(
        "   router.cross_shard  = {}",
        snap.counter("router.cross_shard")
    );
    println!(
        "   lane.escalations    = {}",
        snap.counter("lane.escalations")
    );
    println!("\nthe same, as a Prometheus scrape body (excerpt):");
    for line in registry
        .render_text()
        .lines()
        .filter(|l| l.contains("session_") || l.contains("router_"))
    {
        println!("   {line}");
    }

    // Stop 3: shut down and merge every per-thread ring into one
    // time-ordered trace.
    let report = scheduler.shutdown();
    println!(
        "\nmerged trace: {} events ({} dropped by ring bounds)",
        report.trace.len(),
        report.trace.dropped()
    );

    // A single-shard request: Submitted → Routed{home} → Qualified →
    // Dispatched → Executed → Committed.
    println!("\ntimeline of T1 (single-shard):");
    for ev in report.trace.transaction(1) {
        println!("   {:>6}µs  {:<14} {}", ev.at_us, ev.kind.label(), ev.req);
    }

    // The spanning transaction: Escalated{shards} replaces Routed, the
    // lane qualifies it once, and its commit request is dispatched and
    // executed once per frozen shard.
    println!("\ntimeline of T{spanning_ta} (cross-shard, via the escalation lane):");
    for ev in report.trace.transaction(spanning_ta) {
        println!("   {:>6}µs  {:<14} {}", ev.at_us, ev.kind.label(), ev.req);
    }

    // Stop 4: phase histograms across every traced request.
    let phases = report.trace.phase_histograms();
    println!("\nphase histograms over the whole trace:");
    for (name, stats) in [
        ("queue (submit→qualify)", &phases.queue),
        ("execute (dispatch→exec)", &phases.execute),
        ("end-to-end", &phases.end_to_end),
    ] {
        println!(
            "   {name:<24} n={:<3} mean={:>6.1}µs max={:>5}µs",
            stats.count,
            stats.mean_us(),
            stats.max_us
        );
    }

    // Anomaly windows would appear here: a poisoned scheduler, a deadlock
    // victim or a shed burst freezes the recent event stream
    // into `report.anomalies`.  This clean run has none.
    println!("\nanomaly windows: {}", report.anomalies.len());
}
