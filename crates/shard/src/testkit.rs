//! Test support shared by the one-thread FIFO fleet (`worker`'s tests) and
//! the threaded fleets whose cores share drivers (the crate's tests): a
//! seeded, contended four-shard stream and the checks every run of it must
//! pass.

use crate::ShardConfig;
use declsched::{
    shard_of, Operation, Protocol, ProtocolKind, Request, SchedulerConfig, TriggerPolicy,
};
use std::collections::BTreeSet;

pub(crate) const SHARDS: usize = 4;
pub(crate) const ROWS: usize = 64;
pub(crate) const TRANSACTIONS: u64 = 1_000;

/// The stream's fleet: SS2PL on [`SHARDS`] shards over [`ROWS`] rows.
pub(crate) fn config() -> ShardConfig {
    ShardConfig::new(SHARDS, Protocol::algebra(ProtocolKind::Ss2pl))
        .with_scheduler(SchedulerConfig {
            trigger: TriggerPolicy::Hybrid {
                interval_ms: 1,
                threshold: 4,
            },
            ..SchedulerConfig::default()
        })
        .with_table("bench", ROWS)
}

/// A seeded stream: two statements and a commit per transaction, every
/// fifth spanning two shards, over a small table so they contend.
pub(crate) fn stream() -> Vec<Vec<Request>> {
    let mut state = 0x2545_f491_4f6c_dd1d_u64;
    let mut next = move |bound: u64| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state % bound
    };
    let on_shard = |shard: usize| -> Vec<i64> {
        (0..ROWS as i64)
            .filter(|&o| shard_of(o, SHARDS) == shard)
            .collect()
    };
    let homes: Vec<Vec<i64>> = (0..SHARDS).map(on_shard).collect();
    (1..=TRANSACTIONS)
        .map(|ta| {
            let first = next(SHARDS as u64) as usize;
            let second = if ta % 5 == 0 {
                (first + 1 + next(SHARDS as u64 - 1) as usize) % SHARDS
            } else {
                first
            };
            let mut requests: Vec<Request> = [first, second]
                .iter()
                .enumerate()
                .map(|(intra, &shard)| {
                    let object = homes[shard][next(homes[shard].len() as u64) as usize];
                    if next(2) == 0 {
                        Request::read(0, ta, intra as u32, object)
                    } else {
                        Request::write(0, ta, intra as u32, object)
                    }
                })
                .collect();
            requests.push(Request::commit(0, ta, 2));
            requests
        })
        .collect()
}

/// Strict two-phase locking on one shard's log: from a transaction's
/// access of an object until its terminal there, no other transaction
/// accesses the object in conflict.
pub(crate) fn strict_2pl_violations(log: &[Request]) -> Vec<String> {
    let mut violations = Vec::new();
    for (at, holder) in log.iter().enumerate().filter(|(_, r)| r.op.is_data()) {
        let later = log[at + 1..].iter();
        for other in later.take_while(|r| !(r.ta == holder.ta && r.op.is_terminal())) {
            let write = holder.op == Operation::Write || other.op == Operation::Write;
            if other.op.is_data() && other.object == holder.object && other.ta != holder.ta && write
            {
                violations.push(format!("T{} {:?} under T{}", other.ta, other.op, holder.ta));
            }
        }
    }
    violations
}

/// Check each shard's executed log (`logs[shard]`) after `stream` ran to
/// completion: every statement executed once, on its home; every commit
/// once on each shard its transaction touched; strict 2PL on every shard.
pub(crate) fn check_logs(stream: &[Vec<Request>], logs: &[&[Request]]) {
    for (shard, log) in logs.iter().enumerate() {
        for request in log.iter().filter(|r| r.op.is_data()) {
            assert_eq!(shard_of(request.object, SHARDS), shard, "{request:?}");
        }
        let violations = strict_2pl_violations(log);
        assert!(violations.is_empty(), "shard {shard}: {violations:?}");
    }
    for requests in stream {
        let ta = requests[0].ta;
        let touched: BTreeSet<usize> = requests
            .iter()
            .filter(|r| r.op.is_data())
            .map(|r| shard_of(r.object, SHARDS))
            .collect();
        for (shard, log) in logs.iter().enumerate() {
            let mine = log.iter().filter(|r| r.ta == ta);
            let (terminals, data): (Vec<&Request>, Vec<&Request>) =
                mine.partition(|r| r.op.is_terminal());
            let expected_terminals = usize::from(touched.contains(&shard));
            assert_eq!(
                terminals.len(),
                expected_terminals,
                "T{ta} on shard {shard}"
            );
            let homed = requests
                .iter()
                .filter(|r| r.op.is_data() && shard_of(r.object, SHARDS) == shard);
            assert_eq!(data.len(), homed.count(), "T{ta} on shard {shard}");
        }
    }
}
