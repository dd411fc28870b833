//! Adaptive consistency under load — the paper's cloud-scheduling goal:
//! "reduced consistency criteria may be used during times of high load."
//!
//! Run with: `cargo run --example adaptive_consistency`
//!
//! The deployment is built with an adaptive policy: SS2PL while the pending
//! load stays below a threshold, relaxed reads above it.  A long-running
//! writer holds locks on the hot rows; light read traffic is deferred by
//! the strict rule, then a burst pushes the scheduler into overload mode
//! and the relaxed rule admits the readers despite the write locks — all
//! driven through the same pipelined `Session` surface.

use declsched::{AdaptiveProtocol, SchedResult, SchedulerConfig, TriggerPolicy};
use session::{Scheduler, Txn};
use std::time::Duration;

fn main() -> SchedResult<()> {
    let adaptive = AdaptiveProtocol::ss2pl_with_relaxed_overflow(16);
    println!(
        "adaptive policy: {} below {} pending requests, {} at or above\n",
        adaptive.normal.name(),
        adaptive.overload_threshold,
        adaptive.overload.name()
    );

    let scheduler = Scheduler::builder()
        .policy(adaptive)
        .scheduler_config(SchedulerConfig {
            trigger: TriggerPolicy::Hybrid {
                interval_ms: 2,
                threshold: 64,
            },
            ..SchedulerConfig::default()
        })
        .table("hot", 64)
        .build()?;
    let mut session = scheduler.connect();

    // A long-running writer takes locks on the 8 hot rows and holds them
    // (no terminal yet).
    let mut writer = Txn::new(1);
    for object in 0..8 {
        writer = writer.write(object, object);
    }
    session.submit(writer)?.wait()?;
    println!("writer T1 holds write locks on the 8 hot rows");

    // Phase 1: light read traffic on the locked rows — strict mode defers
    // it, so the tickets stay unresolved.
    for i in 0..6i64 {
        session.submit(Txn::new(2 + i as u64).read(i % 8))?;
    }
    std::thread::sleep(Duration::from_millis(20));
    println!(
        "light load : {} readers still in flight (ss2pl defers reads on locked rows)",
        session.in_flight()
    );

    // Phase 2: a burst of 40 readers arrives — pending load crosses the
    // threshold, the policy switches to relaxed reads and admits everyone
    // despite the write locks.
    for i in 0..40i64 {
        session.submit(Txn::new(100 + i as u64).read(i % 8))?;
    }
    session.drain()?;
    println!("burst load : all 46 readers completed under the relaxed rule");

    // Phase 3: the burst is over; the writer commits and strict mode
    // resumes for whatever comes next.
    session.submit(Txn::resume(1, 8).commit())?.wait()?;
    println!("calm       : writer committed, locks released");

    let report = scheduler.shutdown();
    println!(
        "\n{} rounds, {} of them in overload mode; {} requests scheduled in total on the {} backend",
        report.rounds, report.scheduler.overload_rounds, report.scheduler.requests_scheduled, report.backend
    );
    Ok(())
}
