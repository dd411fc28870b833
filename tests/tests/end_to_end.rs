//! Cross-crate integration tests: workload generation → declarative
//! scheduling → dispatch on the storage engine, compared against the natively
//! scheduled baseline.

use declsched::prelude::*;
use std::collections::HashMap;
use workload::{KeyDistribution, OltpSpec};

/// Run a whole generated workload through the declarative scheduler with the
/// given protocol, driving each client like an interactive session (one
/// outstanding request per transaction), and return the dispatcher at the
/// end.
fn run_workload(protocol: Protocol, spec: &OltpSpec) -> (Dispatcher, SchedulerMetrics) {
    let clients = spec.generate();
    let mut scheduler = DeclarativeScheduler::new(
        protocol,
        SchedulerConfig {
            trigger: TriggerPolicy::Always,
            ..SchedulerConfig::default()
        },
    );
    let mut dispatcher = Dispatcher::new(spec.table.clone(), spec.table_rows).unwrap();

    // Cursor per client: (transaction index, statement index).
    let mut cursors: Vec<(usize, usize)> = vec![(0, 0); clients.len()];
    // Statements submitted but not yet dispatched, per transaction.
    let mut outstanding: HashMap<u64, usize> = HashMap::new();
    let mut now_ms = 0u64;

    loop {
        let mut all_done = true;
        for (client, cursor) in clients.iter().zip(cursors.iter_mut()) {
            let Some(txn) = client.transactions.get(cursor.0) else {
                continue;
            };
            all_done = false;
            // Interactive model: submit the next statement only when the
            // previous one has been dispatched.
            if outstanding.get(&txn.txn.0).copied().unwrap_or(0) == 0 {
                if let Some(stmt) = txn.statements.get(cursor.1) {
                    scheduler.submit_statement(stmt, now_ms);
                    *outstanding.entry(txn.txn.0).or_insert(0) += 1;
                    cursor.1 += 1;
                    if cursor.1 >= txn.statements.len() {
                        cursor.0 += 1;
                        cursor.1 = 0;
                    }
                }
            }
        }
        if all_done && scheduler.pending() == 0 && scheduler.queued() == 0 {
            break;
        }

        let batch = scheduler.run_round(now_ms).expect("round succeeds");
        for request in &batch.requests {
            *outstanding.entry(request.ta).or_insert(1) -= 1;
        }
        dispatcher.execute_batch(&batch).expect("dispatch succeeds");
        now_ms += 1;
        assert!(now_ms < 20_000, "workload did not converge");
    }
    (dispatcher, scheduler.metrics())
}

fn small_spec(clients: usize, rows: usize, seed: u64) -> OltpSpec {
    OltpSpec {
        clients,
        transactions_per_client: 2,
        selects_per_txn: 3,
        updates_per_txn: 3,
        table_rows: rows,
        table: "bench".to_string(),
        distribution: KeyDistribution::Uniform,
        seed,
    }
}

#[test]
fn declaratively_scheduled_workload_completes_and_commits_everything() {
    let spec = small_spec(6, 500, 11);
    let (dispatcher, metrics) = run_workload(Protocol::algebra(ProtocolKind::Ss2pl), &spec);
    let expected_txns = (spec.clients * spec.transactions_per_client) as u64;
    assert_eq!(dispatcher.totals().commits, expected_txns);
    assert_eq!(dispatcher.totals().executed, spec.total_statements() as u64);
    assert_eq!(
        metrics.requests_scheduled as usize,
        spec.total_statements() + spec.clients * spec.transactions_per_client
    );
    assert!(metrics.rounds > 0);
}

#[test]
fn ss2pl_scheduled_execution_matches_native_server_final_state() {
    // The same workload executed (a) through the declarative middleware with
    // server locking disabled and (b) directly on the natively scheduled
    // engine, sequentially per client (a correct serial order), must agree on
    // the final database state for single-writer rows.
    let spec = small_spec(4, 500, 23);
    let (dispatcher, _) = run_workload(Protocol::algebra(ProtocolKind::Ss2pl), &spec);

    // Native sequential execution: client after client (a serial schedule).
    let mut engine = txnstore::Engine::new();
    engine
        .setup_benchmark_table(&spec.table, spec.table_rows)
        .unwrap();
    for client in spec.generate() {
        for txn in &client.transactions {
            for stmt in &txn.statements {
                engine.execute(stmt).unwrap();
            }
        }
    }

    // Both executions applied the same set of committed writes; for rows
    // written by exactly one transaction the final value must be identical
    // (rows written by several transactions may differ in write order, which
    // serialisability permits).
    let mut writers_per_row: HashMap<i64, std::collections::HashSet<u64>> = HashMap::new();
    for client in spec.generate() {
        for txn in &client.transactions {
            for stmt in &txn.statements {
                if let txnstore::StatementKind::Update { key, .. } = &stmt.kind {
                    writers_per_row.entry(*key).or_default().insert(stmt.txn.0);
                }
            }
        }
    }
    for (row, writers) in writers_per_row {
        if writers.len() == 1 {
            let a = dispatcher
                .engine()
                .store()
                .read(&spec.table, row)
                .unwrap()
                .values;
            let b = engine.store().read(&spec.table, row).unwrap().values;
            assert_eq!(a, b, "row {row} diverged");
        }
    }
}

#[test]
fn relaxed_protocol_needs_no_more_rounds_than_strict() {
    let spec = small_spec(4, 120, 31); // smallish table: frequent read-write conflicts
    let (_, strict) = run_workload(Protocol::algebra(ProtocolKind::Ss2pl), &spec);
    let (_, relaxed) = run_workload(Protocol::algebra(ProtocolKind::RelaxedReads), &spec);
    assert!(
        relaxed.rounds <= strict.rounds,
        "relaxed ({}) should not need more rounds than strict ({})",
        relaxed.rounds,
        strict.rounds
    );
}

#[test]
fn datalog_and_algebra_backends_schedule_identically_end_to_end() {
    let spec = small_spec(5, 400, 47);
    let (da, ma) = run_workload(Protocol::algebra(ProtocolKind::Ss2pl), &spec);
    let (dd, md) = run_workload(schedlang::stdlib::protocol(ProtocolKind::Ss2pl), &spec);
    assert_eq!(ma.rounds, md.rounds);
    assert_eq!(ma.requests_scheduled, md.requests_scheduled);
    assert_eq!(da.totals(), dd.totals());
    for row in 0..spec.table_rows as i64 {
        assert_eq!(
            da.engine().store().read(&spec.table, row).unwrap().values,
            dd.engine().store().read(&spec.table, row).unwrap().values,
            "row {row} diverged between back-ends"
        );
    }
}

#[test]
fn schedlang_ss2pl_drives_the_full_pipeline() {
    let spec = small_spec(4, 400, 53);
    let protocol = schedlang::compile_protocol(schedlang::stdlib::SS2PL).unwrap();
    let (dispatcher, _) = run_workload(protocol, &spec);
    assert_eq!(
        dispatcher.totals().commits,
        (spec.clients * spec.transactions_per_client) as u64
    );
}
