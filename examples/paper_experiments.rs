//! The paper's evaluation in one run: Figure 2 and the Section 4.2.2
//! operating points (the native lock-based scheduler), Section 4.3.2 (the
//! cost of one declarative SS2PL round, relational-algebra and Datalog
//! back-ends), the Section 4.4 crossover and Tables 1–2.
//!
//! Run with: `cargo run --release --example paper_experiments [-- --paper]`
//!
//! The default scale (5 transactions per client over 20 000 rows) finishes
//! in seconds; `--paper` uses the paper's 50 transactions per client over
//! 100 000 rows.  Figure 2 and Section 4.2.2 are virtual-time results of
//! `simkit`'s calibrated lock-manager model; Section 4.3.2 times real
//! scheduling rounds on the machine that runs it.  Every section ends with
//! the paper's own figures on `# paper:` lines.

use declsched::{Backend, DeclarativeScheduler, Protocol, ProtocolKind, Request};
use declsched::{SchedulerConfig, TriggerPolicy};
use simkit::{fig2_point, CostModel, Fig2Point, MultiUserConfig};
use std::time::Instant;
use workload::OltpSpec;

/// Table 1's related approaches on its axes (P, QoS, D, F, HS), verbatim.
const TABLE1_RELATED: [(&str, [bool; 5]); 7] = [
    ("EQMS", [true, true, false, false, false]),
    ("Ganymed", [true, false, false, false, true]),
    ("WLMS", [true, true, false, false, false]),
    ("C-JDBC", [true, false, false, false, true]),
    ("GP", [true, false, false, false, false]),
    ("WebQoS", [true, true, false, true, false]),
    ("QShuffler", [true, false, false, false, false]),
];

/// The paper's workload (20 SELECT + 20 UPDATE per transaction, uniform
/// keys) for `clients` clients, at the quick scale unless `paper`.
fn workload_spec(clients: usize, paper: bool) -> OltpSpec {
    let mut spec = OltpSpec::paper(clients);
    if !paper {
        (spec.transactions_per_client, spec.table_rows) = (5, 20_000);
    }
    spec
}

/// Figure 2: the multi-user vs single-user execution-time ratio of the
/// native lock-based scheduler at each client count.
fn fig2_series(client_counts: &[usize], paper: bool) -> Vec<Fig2Point> {
    let config = MultiUserConfig {
        cost: CostModel::paper_calibrated(),
        time_budget: None,
    };
    let point = |&clients: &usize| fig2_point(&workload_spec(clients, paper), &config);
    client_counts.iter().map(point).collect()
}

/// One measured round of the Section 4.3.2 experiment.
#[derive(Debug)]
struct Sec43Row {
    clients: usize,
    history_rows: usize,
    /// The whole round — the paper's "total execution time".
    round_micros: u64,
    rule_micros: u64,
    qualified: usize,
    /// Rounds the whole workload needs at this qualification rate.
    scheduler_runs: u64,
    /// `scheduler_runs × round_micros`, in seconds.
    total_overhead_secs: f64,
}

/// The Section 4.3 scenario: each of `clients` active transactions has
/// executed the first half of its statements (in the history, uncommitted —
/// the paper's pre-fill) and has its next statement pending.  Also returns
/// the statement count of the whole workload, which the paper extrapolates
/// from.
fn sec43_scheduler(clients: usize, backend: Backend, paper: bool) -> (DeclarativeScheduler, u64) {
    let spec = workload_spec(clients, paper);
    let generated = spec.generate();
    let mut scheduler = DeclarativeScheduler::new(
        Protocol::new(ProtocolKind::Ss2pl, backend),
        SchedulerConfig {
            trigger: TriggerPolicy::Always,
            prune_history: false,
            enforce_intra_order: false,
            // The experiment measures the declarative evaluation itself,
            // which the incremental qualifier would skip.
            incremental: false,
            ..SchedulerConfig::default()
        },
    );
    let first_txns = generated.iter().map(|client| &client.transactions[0]);
    let (mut preload, mut next) = (Vec::new(), Vec::new());
    for txn in first_txns {
        let (done, rest) = txn.statements.split_at(txn.statements.len() / 2);
        preload.extend(done.iter().map(|stmt| Request::from_statement(0, stmt)));
        next.push(Request::from_statement(0, &rest[0]));
    }
    scheduler.preload_history(&preload).expect("preload");
    for request in next {
        scheduler.submit(request, 1);
    }
    (scheduler, spec.total_statements() as u64)
}

/// Section 4.3.2: time one declarative scheduling round per client count.
fn sec43_experiment(client_counts: &[usize], backend: Backend, paper: bool) -> Vec<Sec43Row> {
    let measure = |clients| {
        let (mut scheduler, total_statements) = sec43_scheduler(clients, backend, paper);
        let history_rows = scheduler.history_len();
        let started = Instant::now();
        let batch = scheduler.run_round(2).expect("measurement round");
        let round_micros = (started.elapsed().as_micros() as u64).max(batch.round_micros);
        let scheduler_runs = total_statements / batch.len().max(1) as u64;
        Sec43Row {
            clients,
            history_rows,
            round_micros,
            rule_micros: batch.rule_eval_micros,
            qualified: batch.len(),
            scheduler_runs,
            total_overhead_secs: scheduler_runs as f64 * round_micros as f64 / 1e6,
        }
    };
    client_counts.iter().map(|&c| measure(c)).collect()
}

/// Section 4.4: per client count, the native overhead per 240 s window
/// (Figure 2) against the extrapolated declarative overhead (Section 4.3,
/// algebra back-end).
fn crossover_table(client_counts: &[usize], paper: bool) -> Vec<(usize, f64, f64)> {
    let fig2 = fig2_series(client_counts, paper);
    let sec43 = sec43_experiment(client_counts, Backend::Algebra, paper);
    let pair = |(f, s): (&Fig2Point, &Sec43Row)| {
        (f.clients, f.overhead_secs_per_240s(), s.total_overhead_secs)
    };
    fig2.iter().zip(&sec43).map(pair).collect()
}

/// One `+`/`-` row of Table 1.
fn render_matrix_row(name: &str, features: [bool; 5]) -> String {
    let symbols = features.map(|on| if on { "+" } else { "-" });
    format!("{name:<12} {}", symbols.join("    "))
}

fn print_fig2(paper: bool) {
    let client_counts: Vec<usize> = [1, 25].into_iter().chain((50..=600).step_by(50)).collect();
    let rows = workload_spec(1, paper).table_rows;
    println!("# Figure 2 — native scheduler overhead (multi-user / single-user, %)");
    println!("# workload: 20 SELECT + 20 UPDATE per txn, {rows} rows, uniform");
    println!("{}", Fig2Point::csv_header());
    for point in fig2_series(&client_counts, paper) {
        println!("{}", point.to_csv());
    }
    println!("# paper: 300 clients ≈ 124 %, 500 clients ≈ 1600 %");
}

fn print_sec42(paper: bool) {
    println!("# Section 4.2.2 — native scheduler operating points");
    println!("clients,committed_stmts_per_240s,su_seconds_for_that_schedule,mu_over_su_percent,overhead_secs_per_240s,deadlock_aborts");
    for p in fig2_series(&[300, 500], paper) {
        // Single-user time over the same 240 s window, comparable with the
        // paper's 194 s / 15 s.
        let su_per_240 = 240.0 * p.su_time.secs_f64() / p.mu_time.secs_f64().max(1e-9);
        println!(
            "{},{:.0},{su_per_240:.1},{:.1},{:.1},{}",
            p.clients,
            p.statements_per_240s,
            p.ratio_percent(),
            p.overhead_secs_per_240s(),
            p.deadlock_aborts
        );
    }
    println!("# paper: 300 clients -> 550055 stmts / 240s, SU 194s (overhead 46s)");
    println!("# paper: 500 clients ->  48267 stmts / 240s, SU  15s (overhead 225s)");
}

fn print_sec43(paper: bool) {
    let client_counts = [100, 200, 300, 400, 500, 600];
    println!("# Section 4.3.2 — declarative scheduling overhead (SS2PL rule, Listing 1)");
    println!("clients,backend,history_rows,round_micros,rule_micros,qualified,scheduler_runs,total_overhead_secs");
    let algebra = sec43_experiment(&client_counts, Backend::Algebra, paper);
    let datalog = sec43_experiment(&client_counts, Backend::Datalog, paper);
    for (backend, rows) in [("algebra", &algebra), ("datalog", &datalog)] {
        for r in rows {
            println!(
                "{},{backend},{},{},{},{},{},{:.1}",
                r.clients,
                r.history_rows,
                r.round_micros,
                r.rule_micros,
                r.qualified,
                r.scheduler_runs,
                r.total_overhead_secs
            );
        }
    }
    // One rule, two back-ends: over the same history they must qualify the
    // same number of requests — some, and at most one per client.
    for (a, d) in algebra.iter().zip(&datalog) {
        let agree = (a.qualified, a.history_rows) == (d.qualified, d.history_rows);
        assert!(agree, "algebra and Datalog disagree: {a:?} vs {d:?}");
        assert!((1..=a.clients).contains(&a.qualified), "{a:?}");
    }
    println!(
        "# paper (commercial DBMS, SQL): 358 ms per round @ 300 clients, 545 ms @ 500 clients"
    );
    println!("# paper: ~clients/2 tuples returned per round");
    println!("# paper: total overhead 3668 runs x 358 ms = 1314 s @ 300 clients; 193 runs x 545 ms = 106 s @ 500 clients");
}

fn print_crossover(paper: bool) {
    let client_counts = [50, 100, 200, 300, 400, 500, 600];
    println!(
        "# Section 4.4 — native vs declarative scheduling overhead (seconds per 240 s window)"
    );
    println!("clients,native_overhead_secs,declarative_overhead_secs,winner");
    let mut first_win = None;
    for (clients, native, declarative) in crossover_table(&client_counts, paper) {
        let wins = declarative < native;
        first_win = first_win.or(wins.then_some(clients));
        let winner = if wins { "declarative" } else { "native" };
        println!("{clients},{native:.1},{declarative:.1},{winner}");
    }
    match first_win {
        Some(clients) => println!(
            "# crossover: declarative scheduling wins from {clients} concurrent clients onwards"
        ),
        None => println!("# crossover: native scheduling won at every measured client count"),
    }
    println!("# paper: native wins at 300 clients (46 s vs 1314 s), declarative wins at 500 clients (225 s vs 106 s)");
}

fn print_tables() {
    println!("# Table 1 — related approaches (P QoS D F HS)");
    println!("{:<12} P    QoS  D    F    HS", "approach");
    for (name, features) in TABLE1_RELATED {
        println!("{}", render_matrix_row(name, features));
    }
    println!("# This system's declaratively defined protocols (same axes)");
    println!("{:<12} P    QoS  D    F    HS", "protocol");
    for &kind in ProtocolKind::all() {
        let p = Protocol::algebra(kind);
        let f = p.features;
        let features = [
            f.performance,
            f.qos,
            f.declarative,
            f.flexible,
            f.high_scalability,
        ];
        println!("{}", render_matrix_row(p.name(), features));
    }
    println!("# Table 2 — attributes of the requests / history / rte relations");
    println!("{:<12} type", "attribute");
    for field in Request::schema().fields() {
        println!("{:<12} {}", field.name, field.data_type);
    }
}

fn main() {
    let paper = std::env::args().any(|a| a == "--paper");
    print_fig2(paper);
    println!();
    print_sec42(paper);
    println!();
    print_sec43(paper);
    println!();
    print_crossover(paper);
    println!();
    print_tables();
}
