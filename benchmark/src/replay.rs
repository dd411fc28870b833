//! Single-threaded replays: each drives one layer's public functions
//! directly over the workload's block, with no threads, channels or tickets,
//! so the layer's own cost is read without the runtime around it.

use crate::metrics::Layers;
use crate::stats::ratio;
use crate::workloads::{Block, Load, Workload, TABLE_ROWS};
use declsched::{
    DeclarativeScheduler, Dispatcher, Protocol, ProtocolKind, Request, SchedulerConfig,
    TriggerPolicy,
};
use relalg::{Catalog, Table};
use std::time::Instant;

/// Rounds one depth-sized group may take before the replay gives up: a group
/// that does not drain means the rule deadlocked on the generated stream.
const MAX_ROUNDS_PER_GROUP: usize = 10_000;

/// Pending × history sizes of the from-scratch rule evaluation (the paper's
/// §4.3 measurement) and how often it is repeated.
const SCRATCH_PENDING: usize = 64;
const SCRATCH_HISTORY: usize = 256;
const SCRATCH_EVALS: u64 = 200;

const COMPILE_CALLS: u64 = 20;

/// Counts of one inline replay; they repeat exactly from run to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplayCounts {
    pub rounds: u64,
    pub scheduled: u64,
    pub delta_rows: u64,
}

/// Drive `DeclarativeScheduler::submit → run_round → Dispatcher::execute_batch
/// → recycle_batch` over the first `replay_txns` transactions of `block`, in
/// groups as large as the workload's pipeline depth.  The result is the
/// ceiling the threaded deployment could reach if channels, wake-ups and the
/// completion hub cost nothing.
pub fn inline_replay(
    workload: &Workload,
    policy: Protocol,
    block: &Block,
    layers: &mut Layers,
) -> Result<ReplayCounts, String> {
    let custom = policy.kind == ProtocolKind::Custom;
    let mut scheduler = DeclarativeScheduler::new(
        policy,
        SchedulerConfig {
            trigger: TriggerPolicy::Always,
            ..SchedulerConfig::default()
        },
    );
    let mut dispatcher =
        Dispatcher::new("bench", TABLE_ROWS).map_err(|e| format!("dispatcher: {e}"))?;
    let group = match workload.load {
        Load::Closed { depth } => depth,
        // The open loop has no depth; a fill-level trigger's worth of
        // transactions (64 requests ÷ 4 per transaction) stands in.
        Load::Open { .. } => 16,
    };
    let txns = workload.replay_txns.min(block.len());

    // Requests are built before the clock starts: building them is the
    // client's work, not the scheduler's.
    let groups: Vec<Vec<Request>> = (0..txns)
        .step_by(group)
        .map(|first| {
            (first..(first + group).min(txns))
                .flat_map(|seq| block.txn(seq as u64, 0).requests().to_vec())
                .collect()
        })
        .collect();

    let (mut submit_ns, mut round_ns, mut execute_ns) = (0u64, 0u64, 0u64);
    let mut requests = 0u64;
    let started = Instant::now();
    for (index, built) in groups.into_iter().enumerate() {
        let t0 = Instant::now();
        for request in built {
            scheduler.submit(request, 0);
            requests += 1;
        }
        submit_ns += t0.elapsed().as_nanos() as u64;

        let mut rounds = 0;
        while scheduler.queued() + scheduler.pending() > 0 {
            rounds += 1;
            if rounds > MAX_ROUNDS_PER_GROUP {
                return Err(format!(
                    "group {index} does not drain ({} pending)",
                    scheduler.pending()
                ));
            }
            let t1 = Instant::now();
            let batch = scheduler
                .run_round(0)
                .map_err(|e| format!("round failed: {e}"))?;
            let t2 = Instant::now();
            dispatcher
                .execute_batch(&batch)
                .map_err(|e| format!("dispatch failed: {e}"))?;
            scheduler.recycle_batch(batch.requests);
            let t3 = Instant::now();
            round_ns += (t2 - t1).as_nanos() as u64;
            execute_ns += (t3 - t2).as_nanos() as u64;
        }
    }
    let wall_ns = started.elapsed().as_nanos() as u64;
    let metrics = scheduler.metrics();

    layers.put(
        "declsched.inline_tps",
        ratio(txns as f64, wall_ns as f64 / 1e9),
        txns as u64,
    );
    layers.put_mean("declsched.submit_us", submit_ns as f64 / 1e3, requests);
    layers.put_mean("declsched.run_round_us", round_ns as f64 / 1e3, requests);
    layers.put_mean(
        "declsched.execute_batch_us",
        execute_ns as f64 / 1e3,
        requests,
    );
    layers.put(
        "declsched.inline_accounted_frac",
        ratio((submit_ns + round_ns + execute_ns) as f64, wall_ns as f64),
        1,
    );
    if custom {
        layers.put_mean(
            "datalog.eval_us_per_round",
            metrics.rule_eval_micros as f64,
            metrics.rounds,
        );
    }
    Ok(ReplayCounts {
        rounds: metrics.rounds,
        scheduled: metrics.requests_scheduled,
        delta_rows: metrics.delta_rows,
    })
}

/// `Dispatcher::execute_request` over the block on one thread: what the
/// storage engine costs per statement when nothing schedules or waits.
pub fn txnstore_replay(
    workload: &Workload,
    block: &Block,
    layers: &mut Layers,
) -> Result<(), String> {
    let mut dispatcher =
        Dispatcher::new("bench", TABLE_ROWS).map_err(|e| format!("dispatcher: {e}"))?;
    let txns = workload.replay_txns.min(block.len());
    let mut busy_ns = 0u64;
    let mut statements = 0u64;
    for seq in 0..txns {
        let txn = block.txn(seq as u64, 0);
        let t0 = Instant::now();
        for request in txn.requests() {
            dispatcher
                .execute_request(request)
                .map_err(|e| format!("statement failed: {e}"))?;
        }
        busy_ns += t0.elapsed().as_nanos() as u64;
        statements += txn.len() as u64;
    }
    layers.put_mean(
        "txnstore.exec_us_per_stmt",
        busy_ns as f64 / 1e3,
        statements,
    );
    Ok(())
}

/// `RuleSet::qualify` of the algebra SS2PL rule from scratch on a snapshot of
/// 64 pending requests over a history of 256 lock-holding requests — the
/// paper's §4.3 figure.  No workload takes this path in production (the
/// incremental qualifier does), so it predicts no end-to-end change.
pub fn relalg_scratch_eval(layers: &mut Layers) -> Result<(), String> {
    let mut pending = Table::new("requests", Request::schema());
    let mut history = Table::new("history", Request::schema());
    // History: 128 open transactions, each holding one read and one write
    // lock.  Pending: 64 transactions, half of them conflicting with it.
    for ta in 0..(SCRATCH_HISTORY / 2) as u64 {
        let id = ta * 2 + 1;
        let key = ta as i64 * 2;
        history
            .push(Request::read(id, ta + 1, 0, key).to_tuple())
            .and_then(|()| history.push(Request::write(id + 1, ta + 1, 1, key + 1).to_tuple()))
            .map_err(|e| format!("history row: {e}"))?;
    }
    for i in 0..SCRATCH_PENDING as u64 {
        let key = if i % 2 == 0 {
            i as i64
        } else {
            10_000 + i as i64
        };
        pending
            .push(Request::write(1_000 + i, 1_000 + i, 0, key).to_tuple())
            .map_err(|e| format!("pending row: {e}"))?;
    }
    let mut catalog = Catalog::new();
    catalog.register(pending);
    catalog.register(history);
    let rules = Protocol::algebra(ProtocolKind::Ss2pl).rules;

    let mut qualified = 0;
    let started = Instant::now();
    for _ in 0..SCRATCH_EVALS {
        qualified = std::hint::black_box(
            rules
                .qualify(std::hint::black_box(&catalog))
                .map_err(|e| format!("rule evaluation: {e}"))?
                .len(),
        );
    }
    let total_us = started.elapsed().as_secs_f64() * 1e6;
    // Odd pending requests touch untouched keys and must all qualify; even
    // ones hit a locked key and must not.
    if qualified != SCRATCH_PENDING / 2 {
        return Err(format!(
            "scratch rule qualified {qualified} of {SCRATCH_PENDING}, expected {}",
            SCRATCH_PENDING / 2
        ));
    }
    layers.put_mean("relalg.scratch_eval_us", total_us, SCRATCH_EVALS);
    Ok(())
}

/// `schedlang::compile_protocol` on the standard library's SS2PL source.
pub fn schedlang_compile(layers: &mut Layers) -> Result<(), String> {
    let started = Instant::now();
    for _ in 0..COMPILE_CALLS {
        std::hint::black_box(
            schedlang::compile_protocol(std::hint::black_box(schedlang::stdlib::SS2PL))
                .map_err(|e| format!("schedlang SS2PL does not compile: {e}"))?,
        );
    }
    layers.put_mean(
        "schedlang.compile_us",
        started.elapsed().as_secs_f64() * 1e6,
        COMPILE_CALLS,
    );
    Ok(())
}
