//! Batch dispatch to the server.
//!
//! The paper: "All qualified requests are now sent to the server and, if
//! possible, executed as a batch job, whereby we expect a performance
//! improvement."  The dispatcher owns a [`txnstore::Engine`] with its native
//! per-row locking disabled — the declarative scheduler has already
//! guaranteed that the batch is conflict-free, which is precisely the
//! "disable the server's own schedulers as far as possible" configuration of
//! the paper's architecture.

use crate::error::SchedResult;
use crate::request::{Operation, Request};
use crate::scheduler::ScheduleBatch;
use txnstore::{Engine, ExecOutcome};

/// Outcome of dispatching one batch.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct DispatchReport {
    /// Data requests executed.
    pub executed: u64,
    /// Reads among them.
    pub reads: u64,
    /// Writes among them.
    pub writes: u64,
    /// Transactions committed by this batch.
    pub commits: u64,
    /// Transactions aborted by this batch.
    pub aborts: u64,
}

impl DispatchReport {
    /// Merge another report into this one.
    pub fn merge(&mut self, other: &DispatchReport) {
        self.executed += other.executed;
        self.reads += other.reads;
        self.writes += other.writes;
        self.commits += other.commits;
        self.aborts += other.aborts;
    }
}

/// Executes scheduled batches against the storage engine.
#[derive(Debug)]
pub struct Dispatcher {
    engine: Engine,
    table: String,
    totals: DispatchReport,
}

impl Dispatcher {
    /// Create a dispatcher with a fresh engine (locking disabled) and a
    /// benchmark table of `rows` rows named `table`.
    pub fn new(table: impl Into<String>, rows: usize) -> SchedResult<Self> {
        let table = table.into();
        let mut engine = Engine::without_locking();
        engine.setup_benchmark_table(&table, rows)?;
        Ok(Dispatcher {
            engine,
            table,
            totals: DispatchReport::default(),
        })
    }

    /// Wrap an existing engine (must target `table`).  The engine should have
    /// locking disabled; with locking enabled the server would re-schedule
    /// what the middleware already scheduled.
    pub fn with_engine(engine: Engine, table: impl Into<String>) -> Self {
        Dispatcher {
            engine,
            table: table.into(),
            totals: DispatchReport::default(),
        }
    }

    /// Access the underlying engine (e.g. to inspect final database state).
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Totals across all dispatched batches.
    pub fn totals(&self) -> DispatchReport {
        self.totals
    }

    /// Whether the engine has finished (committed or aborted) transaction
    /// `ta` — in which case it refuses every later statement of it.
    pub fn transaction_finished(&self, ta: u64) -> bool {
        self.engine
            .txns()
            .state(txnstore::TxnId(ta))
            .is_some_and(|state| state.is_finished())
    }

    /// Snapshot the final value of benchmark rows `0..rows` (see
    /// [`snapshot_final_rows`]).  Reports embed this so backends can be
    /// compared for final-state equivalence without exposing their engines.
    pub fn final_rows(&self, rows: usize) -> Vec<i64> {
        snapshot_final_rows(&self.engine, &self.table, rows)
    }

    /// Execute one request.
    pub fn execute_request(&mut self, request: &Request) -> SchedResult<()> {
        let stmt = request.to_statement(&self.table);
        let outcome = self.engine.execute(&stmt)?;
        debug_assert!(
            matches!(outcome, ExecOutcome::Completed { .. }),
            "scheduled requests never block: the rule guaranteed conflict freedom"
        );
        match request.op {
            Operation::Read => {
                self.totals.executed += 1;
                self.totals.reads += 1;
            }
            Operation::Write => {
                self.totals.executed += 1;
                self.totals.writes += 1;
            }
            Operation::Commit => self.totals.commits += 1,
            Operation::Abort => self.totals.aborts += 1,
        }
        Ok(())
    }

    /// Execute a whole scheduled batch in order, returning a report for just
    /// this batch.
    pub fn execute_batch(&mut self, batch: &ScheduleBatch) -> SchedResult<DispatchReport> {
        let before = self.totals;
        for request in &batch.requests {
            self.execute_request(request)?;
        }
        let mut report = self.totals;
        report.executed -= before.executed;
        report.reads -= before.reads;
        report.writes -= before.writes;
        report.commits -= before.commits;
        report.aborts -= before.aborts;
        Ok(report)
    }
}

/// Snapshot the final value of benchmark rows `0..rows` on `engine`
/// (missing rows and non-integer payloads read as 0).  The single
/// definition every backend's report uses, so final-state equivalence
/// comparisons cannot diverge on snapshot conventions.
pub fn snapshot_final_rows(engine: &Engine, table: &str, rows: usize) -> Vec<i64> {
    (0..rows as i64)
        .map(|key| {
            engine
                .store()
                .read(table, key)
                .ok()
                .and_then(|row| row.values.first().and_then(|v| v.as_int()))
                .unwrap_or(0)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use relalg::Value;

    fn batch(requests: Vec<Request>) -> ScheduleBatch {
        ScheduleBatch {
            round: 1,
            requests,
            pending_before: 0,
            pending_after: 0,
            rule_eval_micros: 0,
            round_micros: 0,
        }
    }

    #[test]
    fn executes_reads_writes_and_commits() {
        let mut d = Dispatcher::new("bench", 100).unwrap();
        let mut w = Request::write(1, 1, 0, 5);
        w.write_value = Some(Value::Int(42));
        let b = batch(vec![Request::read(2, 1, 1, 5), w, Request::commit(3, 1, 2)]);
        let report = d.execute_batch(&b).unwrap();
        assert_eq!(report.executed, 2);
        assert_eq!(report.reads, 1);
        assert_eq!(report.writes, 1);
        assert_eq!(report.commits, 1);
        assert_eq!(
            d.engine().store().read("bench", 5).unwrap().values,
            vec![Value::Int(42)]
        );
        assert_eq!(d.totals().executed, 2);
    }

    #[test]
    fn aborts_roll_back() {
        let mut d = Dispatcher::new("bench", 10).unwrap();
        let mut w = Request::write(1, 7, 0, 3);
        w.write_value = Some(Value::Int(99));
        d.execute_request(&w).unwrap();
        d.execute_request(&Request::abort(2, 7, 1)).unwrap();
        assert_eq!(
            d.engine().store().read("bench", 3).unwrap().values,
            vec![Value::Int(0)]
        );
        assert_eq!(d.totals().aborts, 1);
        assert!(d.transaction_finished(7));
        assert!(!d.transaction_finished(8), "never seen");
        assert!(d.execute_request(&Request::read(3, 7, 2, 3)).is_err());
    }

    #[test]
    fn missing_row_surfaces_as_dispatch_error() {
        let mut d = Dispatcher::new("bench", 10).unwrap();
        let err = d
            .execute_request(&Request::read(1, 1, 0, 9_999))
            .unwrap_err();
        assert!(matches!(err, crate::error::SchedError::Dispatch { .. }));
    }

    #[test]
    fn totals_accumulate_across_batches() {
        let mut d = Dispatcher::new("bench", 10).unwrap();
        for ta in 1..=3u64 {
            let b = batch(vec![Request::read(1, ta, 0, 1), Request::commit(2, ta, 1)]);
            d.execute_batch(&b).unwrap();
        }
        assert_eq!(d.totals().executed, 3);
        assert_eq!(d.totals().commits, 3);
    }
}
