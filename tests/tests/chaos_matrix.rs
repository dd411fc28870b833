//! The chaos matrix: every registered workload scenario on passthrough,
//! unsharded and a 4-shard fleet, fault-free, plus the four adversarial
//! scenarios on the same deployments under a seeded [`FaultPlan`].  An
//! oracle checks that every cell stayed correct:
//!
//! 1. **Exactly-once resolution** — each transaction committed, failed or
//!    was shed, exactly once.
//! 2. **Replay equivalence** — every committed statement executed once, and
//!    the committed subset replays on a fault-free unsharded reference to
//!    the same value in every row no failed transaction wrote.
//! 3. **Per-object admission order** — from a committed transaction's
//!    access of an object until its terminal, no other committed
//!    transaction accessed the object in conflict (strict two-phase locking
//!    on the executed log).
//! 4. **No leaked homes** — a sharded fleet reclaims every routing entry.
//! 5. **Well-formed timelines** — no traced request has two terminal
//!    events or a terminal before its submission.
//!
//! Fault-free, the scheduled deployments must commit everything.  A planned
//! `LaneJob` / `LanePrepare` fault that never fired in a cell that escalated
//! fails too; other unfired faults are printed.  `CHAOS_SEED` (default 42)
//! seeds the streams and, salted per cell, every plan; a failure names the
//! broken cells and prints the `CHAOS_SEED=<n>` line that replays them.

use chaos::{BackendProfile, FaultEntry, FaultInjector, FaultPlan, Hook};
use declsched::{Operation, Protocol, ProtocolKind, Request, SchedError, SchedulerConfig};
use declsched::{SlaMeta, TriggerPolicy};
use session::{Scheduler, Ticket, Txn};
use std::collections::{HashMap, HashSet, VecDeque};
use txnstore::StatementKind;
use workload::scenario::{registry, Scenario, ScenarioParams, ScenarioTxn};

const CHAOS_SCENARIOS: [&str; 4] = [
    "drifting-hotspot",
    "deadlock-storm",
    "oltp-analytical-mix",
    "tenant-quota",
];

const DEPLOYMENTS: [BackendProfile; 3] = [
    BackendProfile::Passthrough,
    BackendProfile::Unsharded,
    BackendProfile::Sharded { shards: 4 },
];

const TRANSACTIONS: usize = 256;
const TABLE_ROWS: usize = 2_048;
/// Closed-loop pipeline depth: paced arrivals would only add timing noise
/// on top of the scripted faults.
const DEPTH: usize = 16;

fn label(deployment: BackendProfile) -> String {
    match deployment {
        BackendProfile::Passthrough => "passthrough".to_string(),
        BackendProfile::Unsharded => "unsharded".to_string(),
        BackendProfile::Sharded { shards } => format!("sharded{shards}"),
    }
}

/// Salt the base seed per (scenario, deployment) cell so every cell draws
/// its own fault schedule (FNV-1a over the labels).
fn cell_seed(base: u64, scenario: &str, deployment: &str) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for byte in scenario.bytes().chain([b'/']).chain(deployment.bytes()) {
        hash ^= byte as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    base ^ hash
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Outcome {
    Committed,
    Failed,
    Shed,
}

fn start(
    scenario: &dyn Scenario,
    deployment: BackendProfile,
    plan: Option<FaultPlan>,
) -> Scheduler {
    let kind = if scenario.sla_aware() {
        ProtocolKind::SlaPriority
    } else {
        ProtocolKind::Ss2pl
    };
    let mut builder = Scheduler::builder()
        .policy(Protocol::algebra(kind))
        .scheduler_config(SchedulerConfig {
            trigger: TriggerPolicy::Hybrid {
                interval_ms: 1,
                threshold: 64,
            },
            ..SchedulerConfig::default()
        })
        .table("bench", TABLE_ROWS)
        .trace(obs::TraceConfig::full(1 << 16));
    if let Some(plan) = plan {
        builder = builder.chaos(plan);
    }
    match deployment {
        BackendProfile::Passthrough => builder.passthrough(),
        BackendProfile::Unsharded => builder.unsharded(),
        BackendProfile::Sharded { shards } => builder.shards(shards),
    }
    .build()
    .expect("deployment starts")
}

/// A scenario transaction as a session [`Txn`], with SLA metadata when the
/// scenario models service classes.
fn session_txn(txn: &ScenarioTxn) -> Txn {
    let built = Txn::from_statements(&txn.statements);
    match txn.class {
        None => built,
        Some(class) => built.with_sla(SlaMeta {
            priority: class.priority(),
            class: class.as_str(),
            arrival_ms: 0,
            deadline_ms: class.deadline_ms(),
        }),
    }
}

/// `plan.entries` minus the injector's fired records, matched on hook and
/// fault (a late fault fires at a later visit than planned).
fn unfired(plan: FaultPlan, injector: &FaultInjector) -> Vec<FaultEntry> {
    let mut fired = injector.fired();
    let mut left = plan.entries;
    left.retain(|e| {
        let hit = fired
            .iter()
            .position(|f| f.hook == e.hook && f.fault == e.fault);
        hit.map(|index| fired.swap_remove(index)).is_none()
    });
    left
}

/// The first three findings, then a count of the rest.
fn capped(mut found: Vec<String>, what: &str) -> Vec<String> {
    if found.len() > 3 {
        let more = found.len() - 3;
        found.truncate(3);
        found.push(format!("… and {more} more {what}"));
    }
    found
}

/// Replay the scenario closed-loop against the deployment (under `plan`, if
/// any), then run the oracle.  Returns the violations, each prefixed with
/// the cell's name.
fn run_cell(
    scenario: &dyn Scenario,
    deployment: BackendProfile,
    seed: u64,
    plan: Option<FaultPlan>,
) -> Vec<String> {
    let faults = plan.as_ref().map(|p| format!("+faults(seed {})", p.seed));
    let name = format!("{}/{}", scenario.name(), label(deployment)) + &faults.unwrap_or_default();
    let stream = scenario.generate(&ScenarioParams {
        transactions: TRANSACTIONS,
        table_rows: TABLE_ROWS,
        seed,
    });
    let scheduler = start(scenario, deployment, plan.clone());
    let injector = scheduler.chaos_injector();
    let mut session = scheduler.connect();

    let mut outcomes: Vec<Option<Outcome>> = vec![None; stream.len()];
    let mut window: VecDeque<(usize, Ticket)> = VecDeque::with_capacity(DEPTH);
    let outcome = |ticket: Ticket| match ticket.wait() {
        Ok(_) => Outcome::Committed,
        Err(SchedError::Shed { .. }) => Outcome::Shed,
        Err(_) => Outcome::Failed,
    };
    for (index, txn) in stream.iter().enumerate() {
        if window.len() >= DEPTH {
            let (settled, ticket) = window.pop_front().expect("window non-empty");
            outcomes[settled] = Some(outcome(ticket));
        }
        match session.submit(session_txn(txn)) {
            Ok(ticket) => window.push_back((index, ticket)),
            // A killed backend refuses at the channel: still exactly-once.
            Err(_) => outcomes[index] = Some(Outcome::Failed),
        }
    }
    for (index, ticket) in window {
        outcomes[index] = Some(outcome(ticket));
    }
    drop(session);
    let report = scheduler.shutdown();

    let mut violations = oracle_violations(scenario, &stream, &outcomes, &report);
    let all_committed = outcomes.iter().all(|o| *o == Some(Outcome::Committed));
    if plan.is_none() && deployment != BackendProfile::Passthrough && !all_committed {
        violations.push("a transaction failed or was shed without faults".to_string());
    }
    let (escalations, leaked) = report.sharded.as_ref().map_or((0, 0), |detail| {
        (detail.escalation.escalations, detail.unreclaimed_homes)
    });
    if leaked != 0 {
        violations.push(format!("router leaked {leaked} transaction homes"));
    }
    for entry in plan.map_or_else(Vec::new, |plan| unfired(plan, &injector)) {
        let lane = matches!(entry.hook, Hook::LaneJob | Hook::LanePrepare { .. });
        let missed = format!("planned {} at {} never fired", entry.fault, entry.hook);
        if lane && escalations > 0 {
            violations.push(format!("{missed} across {escalations} escalations"));
        } else {
            println!("{name}: {missed} ({escalations} escalations)");
        }
    }
    violations.iter().map(|v| format!("{name}: {v}")).collect()
}

/// Checks 1, 2, 3 and 5 of the module contract.
fn oracle_violations(
    scenario: &dyn Scenario,
    stream: &[ScenarioTxn],
    outcomes: &[Option<Outcome>],
    report: &session::Report,
) -> Vec<String> {
    let mut violations = Vec::new();
    let ta = |index: usize| index as u64 + 1;

    // 1. Exactly-once resolution.
    for (index, _) in outcomes.iter().enumerate().filter(|(_, o)| o.is_none()) {
        violations.push(format!("T{} never resolved", ta(index)));
    }
    let committed: HashSet<u64> = (0..outcomes.len())
        .filter(|&index| outcomes[index] == Some(Outcome::Committed))
        .map(ta)
        .collect();

    // 2a. Every committed statement executed exactly once.
    let mut executed: HashMap<(u64, u32), usize> = HashMap::new();
    for request in report.executed_log.iter().filter(|r| r.op.is_data()) {
        *executed.entry((request.ta, request.intra)).or_default() += 1;
    }
    for ((t, intra), count) in &executed {
        if *count > 1 && committed.contains(t) {
            violations.push(format!("committed T{t}#{intra} executed {count} times"));
        }
    }
    for index in (0..stream.len()).filter(|&index| committed.contains(&ta(index))) {
        for s in stream[index]
            .statements
            .iter()
            .filter(|s| s.object().is_some())
        {
            if !executed.contains_key(&(ta(index), s.intra)) {
                violations.push(format!(
                    "committed T{}#{} never executed",
                    ta(index),
                    s.intra
                ));
            }
        }
    }

    // 2b. The committed subset commits on a fault-free unsharded reference
    // and leaves the same rows, outside rows failed transactions wrote.
    let reference = start(scenario, BackendProfile::Unsharded, None);
    let mut ref_session = reference.connect();
    let tickets: Vec<(u64, Ticket)> = (0..stream.len())
        .filter(|&index| committed.contains(&ta(index)))
        .map(|index| {
            let ticket = ref_session.submit(session_txn(&stream[index]));
            (ta(index), ticket.expect("reference submission"))
        })
        .collect();
    for (t, ticket) in tickets {
        if ticket.wait().is_err() {
            violations.push(format!("committed T{t} failed on the reference replay"));
        }
    }
    drop(ref_session);
    let ref_rows = reference.shutdown().final_rows;
    let tainted: HashSet<i64> = (0..stream.len())
        .filter(|&index| !committed.contains(&ta(index)))
        .flat_map(|index| &stream[index].statements)
        .filter(|s| matches!(s.kind, StatementKind::Update { .. }))
        .filter_map(|s| s.object().map(|o| o.0))
        .collect();
    let rows = report.final_rows.len().max(ref_rows.len());
    let diverged = (0..rows)
        .map(|key| (key, report.final_rows.get(key), ref_rows.get(key)))
        .filter(|(key, a, b)| a != b && !tainted.contains(&(*key as i64)))
        .map(|(key, a, b)| format!("row {key} diverged from the reference: {a:?} vs {b:?}"));
    violations.extend(capped(diverged.collect(), "diverged rows"));

    // 3. Strict two-phase locking.  An object's accesses all run on its
    // home shard and a terminal runs on every shard its transaction
    // touched, so in the concatenated log the first terminal after an
    // access is the one on the same shard.
    let mut terminals: HashMap<u64, Vec<usize>> = HashMap::new();
    let mut per_object: HashMap<i64, Vec<(usize, &Request)>> = HashMap::new();
    for (at, request) in report.executed_log.iter().enumerate() {
        if !committed.contains(&request.ta) {
            continue;
        } else if request.op.is_terminal() {
            terminals.entry(request.ta).or_default().push(at);
        } else {
            per_object
                .entry(request.object)
                .or_default()
                .push((at, request));
        }
    }
    let mut conflicts = Vec::new();
    for (object, accesses) in &per_object {
        for (position, &(at, holder)) in accesses.iter().enumerate() {
            let ends = terminals.get(&holder.ta).into_iter().flatten();
            let released = ends.copied().find(|&end| end > at);
            let held = accesses[position + 1..]
                .iter()
                .take_while(|(later, _)| released.is_none_or(|end| *later < end));
            for (_, other) in held {
                let write = |r: &Request| r.op == Operation::Write;
                if other.ta != holder.ta && (write(holder) || write(other)) {
                    conflicts.push(format!(
                        "object {object}: T{} {:?} admitted while T{} held it for {:?}",
                        other.ta, other.op, holder.ta, holder.op
                    ));
                }
            }
        }
    }
    violations.extend(capped(conflicts, "lock conflicts"));

    // 5. Well-formed trace timelines.
    let mut lifecycle: HashMap<obs::ReqId, (Vec<u64>, Vec<u64>)> = HashMap::new();
    for event in report.trace.events() {
        let (submitted, terminals) = lifecycle.entry(event.req).or_default();
        match &event.kind {
            obs::EventKind::Submitted => submitted.push(event.at_us),
            kind if kind.is_terminal() => terminals.push(event.at_us),
            _ => {}
        }
    }
    for (req, (submitted, terminals)) in &lifecycle {
        if terminals.len() > 1 {
            violations.push(format!("{req}: {} terminal events", terminals.len()));
        }
        if let (Some(submitted), Some(terminal)) = (submitted.iter().min(), terminals.first()) {
            if terminal < submitted {
                violations.push(format!("{req}: terminal precedes submission"));
            }
        }
    }
    violations
}

fn base_seed() -> u64 {
    let seed = chaos::seed_from_env(42);
    chaos::announce_seed_on_panic(seed);
    seed
}

fn assert_green(violations: Vec<String>) {
    assert!(
        violations.is_empty(),
        "the oracle flagged {} violations:\n  {}",
        violations.len(),
        violations.join("\n  ")
    );
}

#[test]
fn fault_free_cells_are_green_for_every_scenario_and_deployment() {
    let seed = base_seed();
    let mut violations = Vec::new();
    for scenario in registry() {
        for deployment in DEPLOYMENTS {
            violations.extend(run_cell(scenario.as_ref(), deployment, seed, None));
        }
    }
    assert_green(violations);
}

#[test]
fn seeded_fault_plans_are_green_on_the_chaos_scenarios() {
    let seed = base_seed();
    let mut violations = Vec::new();
    for name in CHAOS_SCENARIOS {
        let scenario = workload::scenario::by_name(name).expect("registered");
        for deployment in DEPLOYMENTS {
            let plan_seed = cell_seed(seed, name, &label(deployment));
            let plan = FaultPlan::seeded(plan_seed, deployment);
            violations.extend(run_cell(scenario.as_ref(), deployment, seed, Some(plan)));
        }
    }
    assert_green(violations);
}

#[test]
fn cell_seeds_separate_cells_deterministically() {
    let a = cell_seed(42, "deadlock-storm", "unsharded");
    assert_ne!(a, cell_seed(42, "deadlock-storm", "sharded4"));
    assert_ne!(a, cell_seed(7, "deadlock-storm", "unsharded"));
    assert_eq!(a, cell_seed(42, "deadlock-storm", "unsharded"));
}
