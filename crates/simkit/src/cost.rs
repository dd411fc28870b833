//! The virtual-time cost model.
//!
//! ## Calibration
//!
//! The paper reports two operating points for its native-scheduler baseline
//! (Section 4.2.2, both for 240 s multi-user runs of the 20 SELECT + 20
//! UPDATE workload over 100 000 uniform rows):
//!
//! | clients | statements in 240 s (MU) | single-user replay time | MU/SU |
//! |---|---|---|---|
//! | 300 | 550 055 | 194 s | ≈ 124 % |
//! | 500 |  48 267 |  15 s | ≈ 1600 % |
//!
//! From the single-user line we get the base per-statement service time:
//! 194 s / 550 055 ≈ 353 µs.  The multi-user collapse between 300 and 500
//! clients is far steeper than pure row-lock contention on a uniform
//! 100 000-row table can explain; it is the DBMS-internal cost of sustaining
//! hundreds of concurrently active transactions (lock-manager pressure,
//! working-set/thrashing effects, scheduler overhead).  We model it as a
//! multiplicative overhead on every statement,
//!
//! ```text
//! factor(c) = 1 + (c / knee)^steepness
//! ```
//!
//! with `knee = 360` and `steepness = 8`, which passes through both reported
//! points (≈1.2 at 300 clients, ≈14–16 at 500 clients).  Lock waits and
//! deadlock restarts come on top of this from the actual lock manager in
//! `txnstore`, so low-client-count behaviour is dominated by real blocking
//! and the knee only matters where the paper's own curve explodes.

/// Per-statement virtual cost model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Cost of a SELECT in single-user mode, microseconds.
    pub select_us: u64,
    /// Cost of an UPDATE in single-user mode, microseconds.
    pub update_us: u64,
    /// Cost of a COMMIT / ABORT, microseconds.
    pub terminal_us: u64,
    /// Fixed extra cost per statement in multi-user mode (lock acquisition,
    /// per-request scheduling), microseconds.
    pub mu_per_statement_us: u64,
    /// Client count at which the multi-user overhead knee sits.
    pub knee_clients: f64,
    /// Steepness of the overhead curve past the knee.
    pub steepness: f64,
    /// Cost charged when a statement has to wait for a lock (queueing it,
    /// suspending the client), microseconds.
    pub wait_overhead_us: u64,
    /// Cost of rolling back a deadlock victim, microseconds.
    pub deadlock_rollback_us: u64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel::paper_calibrated()
    }
}

impl CostModel {
    /// The model calibrated against the two operating points reported in the
    /// paper (see module documentation).
    pub fn paper_calibrated() -> Self {
        CostModel {
            select_us: 310,
            update_us: 395,
            terminal_us: 150,
            mu_per_statement_us: 55,
            knee_clients: 360.0,
            steepness: 8.0,
            wait_overhead_us: 120,
            deadlock_rollback_us: 2_000,
        }
    }

    /// A flat model with no concurrency knee — used to
    /// isolate what the pure lock manager contributes.
    pub fn flat() -> Self {
        CostModel {
            knee_clients: f64::INFINITY,
            steepness: 1.0,
            ..CostModel::paper_calibrated()
        }
    }

    /// The concurrency overhead factor for `clients` concurrently active
    /// clients (1.0 means no overhead).
    pub fn concurrency_factor(&self, clients: usize) -> f64 {
        if clients <= 1 || !self.knee_clients.is_finite() {
            return 1.0;
        }
        1.0 + (clients as f64 / self.knee_clients).powf(self.steepness)
    }

    /// Single-user cost of a data statement.
    pub fn single_user_statement_us(&self, is_update: bool) -> u64 {
        if is_update {
            self.update_us
        } else {
            self.select_us
        }
    }

    /// Multi-user cost of a data statement when `clients` clients are active.
    pub fn multi_user_statement_us(&self, is_update: bool, clients: usize) -> u64 {
        let base = self.single_user_statement_us(is_update) + self.mu_per_statement_us;
        (base as f64 * self.concurrency_factor(clients)).round() as u64
    }

    /// Multi-user cost of a commit/abort when `clients` clients are active.
    pub fn multi_user_terminal_us(&self, clients: usize) -> u64 {
        (self.terminal_us as f64 * self.concurrency_factor(clients)).round() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_user_costs_are_flat() {
        let m = CostModel::paper_calibrated();
        assert_eq!(m.single_user_statement_us(false), m.select_us);
        assert_eq!(m.single_user_statement_us(true), m.update_us);
    }

    #[test]
    fn concurrency_factor_matches_paper_operating_points() {
        let m = CostModel::paper_calibrated();
        let at_300 = m.concurrency_factor(300);
        let at_500 = m.concurrency_factor(500);
        // Paper: ~1.24x at 300 clients, ~16x at 500 clients.
        assert!((1.05..1.6).contains(&at_300), "factor at 300 was {at_300}");
        assert!((8.0..25.0).contains(&at_500), "factor at 500 was {at_500}");
        // Monotonically increasing.
        assert!(m.concurrency_factor(100) < at_300);
        assert!(at_300 < m.concurrency_factor(400));
        assert!(m.concurrency_factor(400) < at_500);
    }

    #[test]
    fn single_client_has_no_concurrency_overhead() {
        let m = CostModel::paper_calibrated();
        assert_eq!(m.concurrency_factor(1), 1.0);
        assert_eq!(m.concurrency_factor(0), 1.0);
    }

    #[test]
    fn flat_model_has_no_knee() {
        let m = CostModel::flat();
        assert_eq!(m.concurrency_factor(600), 1.0);
        assert_eq!(
            m.multi_user_statement_us(true, 600),
            m.update_us + m.mu_per_statement_us
        );
    }

    #[test]
    fn multi_user_costs_exceed_single_user_costs() {
        let m = CostModel::paper_calibrated();
        for clients in [1usize, 50, 300, 500] {
            assert!(m.multi_user_statement_us(false, clients) > m.select_us);
            assert!(m.multi_user_statement_us(true, clients) > m.update_us);
        }
        assert!(m.multi_user_terminal_us(500) > m.terminal_us);
    }
}
