//! Web-shop SLA scenario: premium customers ahead of free-tier customers.
//!
//! Run with: `cargo run --example webshop_sla`
//!
//! The paper motivates declarative scheduling with service-level agreements
//! "e.g. for premium vs. free customers in Web applications".  This example
//! generates an SLA-tiered OLTP workload, drives it through the unified
//! `Session` API once under plain FIFO SS2PL and once under the
//! SLA-priority protocol, and compares how early each class gets
//! dispatched.  Only the `.policy(...)` line changes — no scheduler code,
//! no driver code.
//!
//! The `Txn::with_sla` metadata travels end-to-end: through the session,
//! the middleware channel, the scheduler's `sla` relation, and back out in
//! the report's execution log.

use declsched::{Protocol, ProtocolKind, SchedResult, SchedulerConfig, SlaMeta, TriggerPolicy};
use session::{Scheduler, Txn};
use std::collections::HashMap;
use workload::{ClientClass, OltpSpec, SlaSpec};

fn run(policy_name: &str, protocol: Protocol) -> SchedResult<()> {
    let spec = SlaSpec {
        oltp: OltpSpec::small(12),
        premium_fraction: 0.25,
        free_fraction: 0.5,
        mean_think_time_ms: 5,
        seed: 2,
    };
    let (clients, metas) = spec.generate();
    let class_of: HashMap<u64, ClientClass> = metas.iter().map(|m| (m.txn.0, m.class)).collect();

    // A wide trigger window batches every submission into one scheduling
    // round, so that round has to arbitrate between premium and free
    // traffic.
    let scheduler = Scheduler::builder()
        .policy(protocol)
        .scheduler_config(SchedulerConfig {
            trigger: TriggerPolicy::Hybrid {
                interval_ms: 40,
                threshold: 64,
            },
            ..SchedulerConfig::default()
        })
        .table("shop", 500)
        .build()?;
    let mut session = scheduler.connect();

    // Submit the first request of every client's first transaction, tagged
    // with its SLA class — pipelined, nothing waits in between.
    for client in &clients {
        let txn = &client.transactions[0];
        let stmt = &txn.statements[0];
        let meta = metas
            .iter()
            .find(|m| m.txn == txn.txn)
            .expect("meta exists");
        session.submit(
            Txn::from_statements(std::slice::from_ref(stmt)).with_sla(SlaMeta {
                priority: meta.class.priority(),
                class: meta.class.as_str(),
                arrival_ms: meta.arrival_ms,
                deadline_ms: meta.deadline_ms,
            }),
        )?;
    }
    session.drain()?;
    let report = scheduler.shutdown();

    // Dispatch position per class: lower is better.
    let mut first_position: HashMap<&'static str, usize> = HashMap::new();
    for (pos, request) in report.executed_log.iter().enumerate() {
        let class = class_of[&request.ta].as_str();
        first_position.entry(class).or_insert(pos);
    }
    println!("--- {policy_name} ---");
    println!("dispatch order ({} requests):", report.executed_log.len());
    for (pos, request) in report.executed_log.iter().enumerate() {
        println!(
            "  {:>2}. T{:<3} {} (class {})",
            pos + 1,
            request.ta,
            request.op,
            class_of[&request.ta].as_str()
        );
    }
    for class in ["premium", "standard", "free"] {
        if let Some(pos) = first_position.get(class) {
            println!("  first {class} request dispatched at position {}", pos + 1);
        }
    }
    println!();
    Ok(())
}

fn main() -> SchedResult<()> {
    run(
        "FIFO SS2PL (arrival order)",
        Protocol::algebra(ProtocolKind::Ss2pl),
    )?;
    run(
        "SLA priority (premium first)",
        Protocol::algebra(ProtocolKind::SlaPriority),
    )?;
    run(
        "Earliest deadline first",
        schedlang::stdlib::protocol(ProtocolKind::EarliestDeadline),
    )?;
    println!("Same correctness rule, three QoS policies — only the declarative protocol changed.");
    Ok(())
}
