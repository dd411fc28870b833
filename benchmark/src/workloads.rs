//! The eight workloads: what is deployed, what traffic it gets, and the
//! compact transaction block that traffic is replayed from.
//!
//! `name` and `why` are repeated in `BENCHMARK.json` (a unit test keeps the
//! two in step); `README.md` has the longer rationale per workload.

use declsched::{shard_of, Protocol, ProtocolKind, SlaMeta, TriggerPolicy};
use session::Txn;
use txnstore::StatementKind;
use workload::scenario::{by_name, ScenarioParams};
use workload::{ClientClass, ShardedSpec};

/// Transactions per generated block.  A closed loop cycles the block, so a
/// trial of any length costs one generation.
pub const BLOCK_TXNS: usize = 65_536;

/// Rows of table `bench` in every workload.
pub const TABLE_ROWS: usize = 20_000;

/// The seed whose block fingerprints are pinned below.
pub const PINNED_SEED: u64 = 42;

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Deployment {
    Passthrough,
    Unsharded,
    Sharded(usize),
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Policy {
    /// Passthrough: the server's native locking decides, no rule runs.
    Native,
    /// `Protocol::algebra(kind)`: the hand-written incremental qualifier.
    Builtin(ProtocolKind),
    /// SS2PL compiled from its SchedLang source: the declared-rule path.
    SchedlangSs2pl,
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Traffic {
    /// A stream from `workload::scenario::by_name`.
    Scenario(&'static str),
    /// `workload::ShardedSpec`: uniform keys, every data statement a write,
    /// transactions placed against a `shards`-way hash partitioning.
    Placed {
        shards: usize,
        statements_per_txn: usize,
        cross_shard_fraction: f64,
    },
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Load {
    /// One client keeps `depth` transactions in flight.
    Closed { depth: usize },
    /// Seeded Poisson arrivals at a fixed rate, whatever the backend does.
    Open { rate_tps: f64 },
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub deployment: Deployment,
    pub policy: Policy,
    /// `None` on passthrough, which has no scheduling rounds to trigger.
    pub trigger: Option<TriggerPolicy>,
    pub traffic: Traffic,
    pub load: Load,
    /// FNV-1a fingerprint of the block generated from [`PINNED_SEED`]: a
    /// silent change to a generator fails the trial instead of shifting
    /// every number.
    pub pinned_fingerprint: u64,
    /// Transactions the single-threaded replays cover: fixed per workload so
    /// the replay's round and request counts repeat exactly.
    pub replay_txns: usize,
}

const SS2PL: Policy = Policy::Builtin(ProtocolKind::Ss2pl);
const ZIPF: Traffic = Traffic::Scenario("zipf-hotspot");

pub const WORKLOADS: [Workload; 8] = [
    Workload {
        name: "passthrough_zipf_d32",
        why: "Native-scheduler baseline and bypass control: txnstore and session do all the work, declsched and shard none, so a scheduler optimisation predicts no change here.",
        deployment: Deployment::Passthrough,
        policy: Policy::Native,
        trigger: None,
        traffic: ZIPF,
        load: Load::Closed { depth: 32 },
        pinned_fingerprint: 0x9e77_fb77_707b_585a,
        replay_txns: BLOCK_TXNS,
    },
    Workload {
        name: "unsharded_zipf_d32",
        why: "Contention: zipfian 2r+2w transactions defer and wait several rounds, so declsched's pending, qualify and history bookkeeping is the busiest layer.",
        deployment: Deployment::Unsharded,
        policy: SS2PL,
        trigger: Some(TriggerPolicy::Always),
        traffic: ZIPF,
        load: Load::Closed { depth: 32 },
        pinned_fingerprint: 0x9e77_fb77_707b_585a,
        replay_txns: BLOCK_TXNS,
    },
    Workload {
        name: "unsharded_readmostly_d32",
        why: "Same scheduler used differently: 95% reads share locks and never defer, rounds are large, and txnstore, dispatch and reply take a large share of the time.",
        deployment: Deployment::Unsharded,
        policy: SS2PL,
        trigger: Some(TriggerPolicy::Always),
        traffic: Traffic::Scenario("read-mostly"),
        load: Load::Closed { depth: 32 },
        pinned_fingerprint: 0x623e_4771_2dea_15f1,
        replay_txns: BLOCK_TXNS,
    },
    Workload {
        name: "unsharded_customrule_d32",
        why: "The paper's thesis path: SS2PL declared in schedlang and evaluated by datalog and relalg, on the byte-identical stream of unsharded_zipf_d32.",
        deployment: Deployment::Unsharded,
        policy: Policy::SchedlangSs2pl,
        trigger: Some(TriggerPolicy::Always),
        traffic: ZIPF,
        load: Load::Closed { depth: 32 },
        pinned_fingerprint: 0x9e77_fb77_707b_585a,
        replay_txns: 4_096,
    },
    Workload {
        name: "unsharded_handoff_d1",
        why: "One blocking client at depth 1: nothing overlaps and the rule costs nothing, so submit, mailbox, round, dispatch, reply and wake-up transit sets both numbers.",
        deployment: Deployment::Unsharded,
        policy: SS2PL,
        trigger: Some(TriggerPolicy::Always),
        traffic: Traffic::Placed {
            shards: 1,
            statements_per_txn: 1,
            cross_shard_fraction: 0.0,
        },
        load: Load::Closed { depth: 1 },
        pinned_fingerprint: 0xa102_9b9d_55e0_3379,
        replay_txns: BLOCK_TXNS,
    },
    Workload {
        name: "sharded4_local_d32",
        why: "Router fast path: single-key transactions, none cross-shard, exercise placement, per-shard buffers, the flusher and the completion hub while the escalation lane idles.",
        deployment: Deployment::Sharded(4),
        policy: SS2PL,
        trigger: Some(TriggerPolicy::Always),
        traffic: Traffic::Placed {
            shards: 4,
            statements_per_txn: 1,
            cross_shard_fraction: 0.0,
        },
        load: Load::Closed { depth: 32 },
        pinned_fingerprint: 0x644b_81cf_43ed_ad04,
        replay_txns: BLOCK_TXNS,
    },
    Workload {
        name: "sharded4_cross20_d32",
        why: "Two-key transactions, 20% spanning two shards: two-phase escalation and the holds it puts on local traffic dominate; router batching predicts no change.",
        deployment: Deployment::Sharded(4),
        policy: SS2PL,
        trigger: Some(TriggerPolicy::Always),
        traffic: Traffic::Placed {
            shards: 4,
            statements_per_txn: 2,
            cross_shard_fraction: 0.2,
        },
        load: Load::Closed { depth: 32 },
        pinned_fingerprint: 0xfa65_9747_b732_3aa2,
        replay_txns: BLOCK_TXNS,
    },
    Workload {
        name: "unsharded_sla_open20k",
        why: "Open loop: seeded Poisson arrivals at a fixed 20000 txn/s under the paper's time/fill-level trigger with SLA ordering; the one workload whose latency is not throughput's reciprocal.",
        deployment: Deployment::Unsharded,
        policy: Policy::Builtin(ProtocolKind::SlaPriority),
        trigger: Some(TriggerPolicy::Hybrid {
            interval_ms: 1,
            threshold: 64,
        }),
        traffic: Traffic::Scenario("sla-tiers"),
        load: Load::Open { rate_tps: 20_000.0 },
        pinned_fingerprint: 0xa5fd_31d9_0290_7b53,
        replay_txns: BLOCK_TXNS,
    },
];

pub fn workload_by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Policy {
    /// Build the scheduling policy; `None` for passthrough.
    pub fn build(self) -> Result<Option<Protocol>, String> {
        match self {
            Policy::Native => Ok(None),
            Policy::Builtin(kind) => Ok(Some(Protocol::algebra(kind))),
            Policy::SchedlangSs2pl => schedlang::compile_protocol(schedlang::stdlib::SS2PL)
                .map(Some)
                .map_err(|e| format!("schedlang SS2PL does not compile: {e}")),
        }
    }

    pub fn label(self) -> String {
        match self {
            Policy::Native => "native".to_string(),
            Policy::Builtin(kind) => format!("algebra({})", kind.name()),
            Policy::SchedlangSs2pl => "schedlang(ss2pl)".to_string(),
        }
    }
}

impl Deployment {
    pub fn label(self) -> String {
        match self {
            Deployment::Passthrough => "passthrough".to_string(),
            Deployment::Unsharded => "unsharded".to_string(),
            Deployment::Sharded(n) => format!("sharded{n}"),
        }
    }

    pub fn shards(self) -> usize {
        match self {
            Deployment::Sharded(n) => n,
            _ => 0,
        }
    }
}

/// One block of generated transactions, stored as flat `(is_write, key)`
/// arrays instead of per-statement heap objects: building a `Txn` from it
/// allocates only what `session::Txn` itself allocates.
#[derive(Debug, Clone, PartialEq)]
pub struct Block {
    /// Statement offsets: transaction `i` owns `starts[i]..starts[i + 1]`.
    starts: Vec<u32>,
    writes: Vec<bool>,
    keys: Vec<i64>,
    /// Service class per transaction; empty for untiered traffic.
    classes: Vec<ClientClass>,
}

impl Block {
    /// Generate [`BLOCK_TXNS`] transactions of `traffic` from `seed`.
    pub fn generate(traffic: Traffic, seed: u64) -> Block {
        let mut block = Block {
            starts: vec![0],
            writes: Vec::new(),
            keys: Vec::new(),
            classes: Vec::new(),
        };
        match traffic {
            Traffic::Scenario(name) => {
                let scenario = by_name(name).expect("workload table names registered scenarios");
                let stream = scenario.generate(&ScenarioParams {
                    transactions: BLOCK_TXNS,
                    table_rows: TABLE_ROWS,
                    seed,
                });
                for txn in &stream {
                    block.push(txn.statements.iter().map(|s| &s.kind));
                    block.classes.extend(txn.class);
                }
            }
            Traffic::Placed {
                shards,
                statements_per_txn,
                cross_shard_fraction,
            } => {
                let spec = ShardedSpec {
                    statements_per_txn,
                    seed,
                    ..ShardedSpec::single_object(shards, BLOCK_TXNS, TABLE_ROWS)
                }
                .with_cross_shard_fraction(cross_shard_fraction);
                for txn in spec.generate(|object| shard_of(object, shards)) {
                    block.push(txn.statements.iter().map(|s| &s.kind));
                }
            }
        }
        assert_eq!(block.len(), BLOCK_TXNS);
        assert!(block.classes.is_empty() || block.classes.len() == BLOCK_TXNS);
        block
    }

    fn push<'a>(&mut self, statements: impl Iterator<Item = &'a StatementKind>) {
        for kind in statements {
            match kind {
                StatementKind::Select { key } => {
                    self.writes.push(false);
                    self.keys.push(*key);
                }
                // Every generator writes the key as the value, which is what
                // makes replaying the block state-idempotent.
                StatementKind::Update { key, .. } => {
                    self.writes.push(true);
                    self.keys.push(*key);
                }
                StatementKind::Commit => {}
                StatementKind::Abort => panic!("generated transactions always commit"),
            }
        }
        self.starts.push(self.keys.len() as u32);
    }

    pub fn len(&self) -> usize {
        self.starts.len() - 1
    }

    /// The data statements of block transaction `index` as `(is_write, key)`.
    pub fn statements(&self, index: usize) -> impl Iterator<Item = (bool, i64)> + '_ {
        let range = self.starts[index] as usize..self.starts[index + 1] as usize;
        range.map(|i| (self.writes[i], self.keys[i]))
    }

    /// The `seq`-th transaction of the endless stream that cycles this block:
    /// statements of block entry `seq % len`, transaction id `seq + 1` — ids
    /// are rebased by one block length per cycle and never repeat.
    /// `arrival_us` stamps the SLA metadata of tiered traffic.
    pub fn txn(&self, seq: u64, arrival_us: u64) -> Txn {
        let index = (seq % self.len() as u64) as usize;
        let mut txn = Txn::new(seq + 1);
        for (is_write, key) in self.statements(index) {
            txn = if is_write {
                txn.write(key, key)
            } else {
                txn.read(key)
            };
        }
        txn = txn.commit();
        match self.classes.get(index) {
            None => txn,
            Some(class) => {
                let arrival_ms = arrival_us / 1_000;
                txn.with_sla(SlaMeta {
                    priority: class.priority(),
                    class: class.as_str(),
                    arrival_ms,
                    deadline_ms: arrival_ms + class.deadline_ms(),
                })
            }
        }
    }

    /// FNV-1a over every transaction's statements and class.
    pub fn fingerprint(&self) -> u64 {
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                hash = (hash ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for index in 0..self.len() {
            eat(&(self.starts[index + 1] - self.starts[index]).to_le_bytes());
            for (is_write, key) in self.statements(index) {
                eat(&[is_write as u8]);
                eat(&key.to_le_bytes());
            }
            if let Some(class) = self.classes.get(index) {
                eat(&[class.priority() as u8]);
            }
        }
        hash
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn same_seed_same_block_and_another_seed_another_block() {
        for workload in &WORKLOADS {
            let a = Block::generate(workload.traffic, 7);
            let b = Block::generate(workload.traffic, 7);
            let c = Block::generate(workload.traffic, 8);
            assert_eq!(a.fingerprint(), b.fingerprint(), "{}", workload.name);
            assert_ne!(a.fingerprint(), c.fingerprint(), "{}", workload.name);
        }
    }

    #[test]
    fn pinned_seed_fingerprints_match_the_generators() {
        for workload in &WORKLOADS {
            let block = Block::generate(workload.traffic, PINNED_SEED);
            assert_eq!(
                block.fingerprint(),
                workload.pinned_fingerprint,
                "{}: generator output changed (got {:#018x})",
                workload.name,
                block.fingerprint()
            );
        }
    }

    #[test]
    fn customrule_replays_the_zipf_stream_byte_for_byte() {
        let zipf = workload_by_name("unsharded_zipf_d32").unwrap();
        let custom = workload_by_name("unsharded_customrule_d32").unwrap();
        assert_eq!(zipf.traffic, custom.traffic);
        assert_eq!(zipf.pinned_fingerprint, custom.pinned_fingerprint);
    }

    #[test]
    fn rebasing_never_repeats_a_transaction_id() {
        let block = Block::generate(Traffic::Scenario("sla-tiers"), 3);
        // Two full cycles and a bit: ids stay distinct across both wraps.
        let ids: HashSet<u64> = (0..2 * BLOCK_TXNS as u64 + 10)
            .map(|seq| block.txn(seq, 0).ta())
            .collect();
        assert_eq!(ids.len(), 2 * BLOCK_TXNS + 10);
        // The wrap replays the same statements under the new id.
        let first = block.txn(5, 0);
        let again = block.txn(5 + BLOCK_TXNS as u64, 0);
        assert_ne!(first.ta(), again.ta());
        assert_eq!(first.footprint(), again.footprint());
        assert_eq!(first.len(), again.len());
        assert_eq!(first.sla().map(|s| s.class), again.sla().map(|s| s.class));
    }

    #[test]
    fn cross_shard_share_is_what_the_name_says() {
        let block = Block::generate(workload_by_name("sharded4_cross20_d32").unwrap().traffic, 1);
        let crossing = (0..block.len())
            .filter(|&i| {
                let shards: HashSet<usize> = block
                    .statements(i)
                    .map(|(_, key)| shard_of(key, 4))
                    .collect();
                shards.len() > 1
            })
            .count();
        let share = crossing as f64 / block.len() as f64;
        assert!((share - 0.2).abs() < 0.001, "cross-shard share {share}");
    }
}
