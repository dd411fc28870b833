//! Operation mixes beyond the paper's 50/50 OLTP workload.
//!
//! The paper's future-work section calls for "different workloads with more
//! complex statements"; these mixes (read-heavy web traffic, write-heavy
//! ingest, long BI-style read batches) are what the scenarios and tests use
//! to probe how the declarative scheduler behaves away from the 20+20 setting.

use crate::dist::KeyDistribution;
use crate::oltp::OltpSpec;

/// A named read/write mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OperationMix {
    /// The paper's mix: 20 SELECT + 20 UPDATE.
    Paper,
    /// Read-mostly web traffic: 18 SELECT + 2 UPDATE.
    ReadHeavy,
    /// Ingest: 2 SELECT + 18 UPDATE.
    WriteHeavy,
    /// Business-intelligence batch: 200 SELECTs, no writes (long read-only
    /// transactions, the QShuffler scenario from related work).
    BiBatch,
    /// Short point transactions: 2 SELECT + 2 UPDATE.
    Short,
}

impl OperationMix {
    /// `(selects, updates)` per transaction.
    pub fn counts(self) -> (usize, usize) {
        match self {
            OperationMix::Paper => (20, 20),
            OperationMix::ReadHeavy => (18, 2),
            OperationMix::WriteHeavy => (2, 18),
            OperationMix::BiBatch => (200, 0),
            OperationMix::Short => (2, 2),
        }
    }

    /// Fraction of statements that are writes.
    pub fn write_fraction(self) -> f64 {
        let (r, w) = self.counts();
        if r + w == 0 {
            0.0
        } else {
            w as f64 / (r + w) as f64
        }
    }

    /// Human-readable label used in experiment output.
    pub fn label(self) -> &'static str {
        match self {
            OperationMix::Paper => "paper-20r20w",
            OperationMix::ReadHeavy => "read-heavy",
            OperationMix::WriteHeavy => "write-heavy",
            OperationMix::BiBatch => "bi-batch",
            OperationMix::Short => "short",
        }
    }
}

/// A workload built from a named mix plus contention knobs.
#[derive(Debug, Clone)]
pub struct MixSpec {
    /// The read/write mix.
    pub mix: OperationMix,
    /// Concurrent clients.
    pub clients: usize,
    /// Transactions per client.
    pub transactions_per_client: usize,
    /// Table size.
    pub table_rows: usize,
    /// Key distribution.
    pub distribution: KeyDistribution,
    /// RNG seed.
    pub seed: u64,
}

impl MixSpec {
    /// Build a spec with sensible defaults for the given mix and client count.
    pub fn new(mix: OperationMix, clients: usize) -> Self {
        MixSpec {
            mix,
            clients,
            transactions_per_client: 20,
            table_rows: 10_000,
            distribution: KeyDistribution::Uniform,
            seed: 99,
        }
    }

    /// Convert to the underlying [`OltpSpec`] so the same generator is used
    /// for every mix.
    pub fn to_oltp(&self) -> OltpSpec {
        let (selects, updates) = self.mix.counts();
        OltpSpec {
            clients: self.clients,
            transactions_per_client: self.transactions_per_client,
            selects_per_txn: selects,
            updates_per_txn: updates,
            table_rows: self.table_rows,
            table: "bench".to_string(),
            distribution: self.distribution.clone(),
            seed: self.seed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use txnstore::StatementKind;

    #[test]
    fn mixes_have_expected_write_fractions() {
        assert!((OperationMix::Paper.write_fraction() - 0.5).abs() < 1e-12);
        assert!(OperationMix::ReadHeavy.write_fraction() < 0.2);
        assert!(OperationMix::WriteHeavy.write_fraction() > 0.8);
        assert_eq!(OperationMix::BiBatch.write_fraction(), 0.0);
        assert_eq!(OperationMix::Short.counts(), (2, 2));
        assert_eq!(OperationMix::BiBatch.label(), "bi-batch");
    }

    #[test]
    fn mix_spec_generates_matching_statement_counts() {
        let spec = MixSpec::new(OperationMix::ReadHeavy, 3);
        let oltp = spec.to_oltp();
        let clients = oltp.generate();
        let txn = &clients[0].transactions[0];
        let reads = txn
            .statements
            .iter()
            .filter(|s| matches!(s.kind, StatementKind::Select { .. }))
            .count();
        let writes = txn
            .statements
            .iter()
            .filter(|s| matches!(s.kind, StatementKind::Update { .. }))
            .count();
        assert_eq!((reads, writes), OperationMix::ReadHeavy.counts());
    }

    #[test]
    fn bi_batch_is_read_only() {
        let spec = MixSpec::new(OperationMix::BiBatch, 2);
        let clients = spec.to_oltp().generate();
        for c in &clients {
            for t in &c.transactions {
                assert!(t
                    .statements
                    .iter()
                    .all(|s| !matches!(s.kind, StatementKind::Update { .. })));
            }
        }
    }
}
