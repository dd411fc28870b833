//! The scenario library: named, reusable traffic shapes.
//!
//! The single OLTP mix the paper evaluates ([`crate::oltp::OltpSpec`]) is one
//! point in a large space of traffic shapes.  This module turns "a workload"
//! into a first-class, *named* object — a [`Scenario`] — so every benchmark,
//! test and example can iterate over the same [`registry`] instead of
//! hard-coding one statement stream.  A scenario bundles
//!
//! * a deterministic transaction stream (seeded generation, identical on
//!   every backend it is replayed against),
//! * an [`ArrivalSpec`] describing *how* those transactions arrive at the
//!   scheduler: closed-loop (a fixed number in flight, the classical bench
//!   shape that can never over-run the system) or **open-loop** (Poisson or
//!   bursty arrivals, where offered load is decoupled from completion and
//!   queueing collapse becomes observable),
//! * optional per-transaction service classes ([`ClientClass`]) for the
//!   SLA/priority protocols.
//!
//! The eleven registered scenarios:
//!
//! | name                 | shape                                              | arrivals |
//! |----------------------|----------------------------------------------------|----------|
//! | `zipf-hotspot`       | short 2r+2w transactions, Zipfian s = 1.1 keys     | closed   |
//! | `read-mostly`        | YCSB-B-style 95 % reads, Zipfian s = 0.8           | closed   |
//! | `order-pipeline`     | TPC-C-lite multi-step orders over key regions      | closed   |
//! | `bursty`             | single-update transactions, on/off burst arrivals  | open     |
//! | `sla-tiers`          | premium/standard/free classes, Poisson arrivals    | open     |
//! | `extreme-skew`       | 95 % of writes on 16 keys co-located by the router | closed   |
//! | `tiered-overload`    | mostly-sheddable tiers for the overload experiment | open     |
//! | `drifting-hotspot`   | hot key-set jumps to a disjoint region per phase   | closed   |
//! | `deadlock-storm`     | single-key upgrades on 4 keys — native deadlocks   | closed   |
//! | `oltp-analytical-mix`| OLTP point updates + wide sorted analytical scans  | closed   |
//! | `tenant-quota`       | per-tenant tiers under Poisson — quota pressure    | open     |
//!
//! Writes always store the row key as the value, so the *final database
//! state* of a committed scenario run is independent of admission order —
//! the property the cross-backend equivalence tests rely on.

use crate::dist::KeyDistribution;
use crate::sla::ClientClass;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use txnstore::{Statement, TxnId};

/// How the transactions of a scenario arrive at the scheduler.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalSpec {
    /// Closed loop: keep at most `depth` transactions in flight; a new one
    /// is submitted only when an earlier one completes.  Offered load is
    /// *coupled* to completion — the system can never be over-run.
    Closed {
        /// Maximum transactions in flight.
        depth: usize,
    },
    /// Open loop: transactions arrive at exponentially distributed
    /// inter-arrival gaps with the given mean rate, whether or not earlier
    /// ones completed.  Offered load is decoupled from completion.
    Poisson {
        /// Mean arrival rate in transactions per second.
        rate_tps: f64,
    },
    /// Open loop with on/off bursts: a Poisson process whose rate switches
    /// between `base_tps` and `burst_tps` on a fixed cycle.
    Bursty {
        /// Arrival rate outside bursts, transactions per second.
        base_tps: f64,
        /// Arrival rate inside bursts, transactions per second.
        burst_tps: f64,
        /// Full on/off cycle length in milliseconds.
        period_ms: u64,
        /// Burst length at the start of each cycle, in milliseconds.
        burst_ms: u64,
    },
}

impl ArrivalSpec {
    /// Whether this spec describes open-loop arrivals.
    pub fn is_open_loop(&self) -> bool {
        !matches!(self, ArrivalSpec::Closed { .. })
    }

    /// The mean offered rate of an open-loop spec in transactions per
    /// second (duty-cycle-weighted for bursts); `None` for closed loops,
    /// whose rate is whatever the backend completes.
    pub fn mean_rate_tps(&self) -> Option<f64> {
        match *self {
            ArrivalSpec::Closed { .. } => None,
            ArrivalSpec::Poisson { rate_tps } => Some(rate_tps),
            ArrivalSpec::Bursty {
                base_tps,
                burst_tps,
                period_ms,
                burst_ms,
            } => {
                let period = period_ms.max(1) as f64;
                let duty = (burst_ms.min(period_ms) as f64) / period;
                Some(burst_tps * duty + base_tps * (1.0 - duty))
            }
        }
    }

    /// Scale every arrival rate by `factor` (closed-loop specs are
    /// unchanged).  Benchmarks use this to express offered load as a
    /// multiple of a measured capacity.
    pub fn scaled(self, factor: f64) -> Self {
        match self {
            ArrivalSpec::Closed { depth } => ArrivalSpec::Closed { depth },
            ArrivalSpec::Poisson { rate_tps } => ArrivalSpec::Poisson {
                rate_tps: rate_tps * factor,
            },
            ArrivalSpec::Bursty {
                base_tps,
                burst_tps,
                period_ms,
                burst_ms,
            } => ArrivalSpec::Bursty {
                base_tps: base_tps * factor,
                burst_tps: burst_tps * factor,
                period_ms,
                burst_ms,
            },
        }
    }
}

/// Scale knobs a scenario generator receives from the caller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScenarioParams {
    /// Transactions to generate.
    pub transactions: usize,
    /// Rows in the benchmark table.
    pub table_rows: usize,
    /// RNG seed; the same seed always yields the identical stream.
    pub seed: u64,
}

impl ScenarioParams {
    /// A tiny parameter set for unit tests and doctests.
    pub fn small() -> Self {
        ScenarioParams {
            transactions: 64,
            table_rows: 512,
            seed: 7,
        }
    }
}

/// One generated transaction of a scenario: its statements (ending in a
/// commit) plus an optional service class for SLA-aware protocols.
#[derive(Debug, Clone)]
pub struct ScenarioTxn {
    /// Statements in intra order, terminated by a commit.
    pub statements: Vec<Statement>,
    /// Service class, when the scenario models tiered clients.
    pub class: Option<ClientClass>,
}

impl ScenarioTxn {
    fn plain(statements: Vec<Statement>) -> Self {
        ScenarioTxn {
            statements,
            class: None,
        }
    }
}

/// A named, reusable traffic shape.
///
/// Implementations must be deterministic: the same [`ScenarioParams`]
/// (including the seed) must generate the identical transaction stream, so
/// a scenario can be replayed bit-for-bit against every backend.
pub trait Scenario: Send + Sync {
    /// Stable scenario name, used as the key in benchmark output.
    fn name(&self) -> &'static str;

    /// One-line description for listings.
    fn description(&self) -> &'static str;

    /// How transactions of this scenario arrive at the scheduler.
    fn arrival(&self) -> ArrivalSpec;

    /// Whether the scenario tags transactions with service classes (and
    /// should therefore be scheduled by an SLA/priority protocol).
    fn sla_aware(&self) -> bool {
        false
    }

    /// Generate the transaction stream.  Transaction ids are `1..=n` in
    /// stream order; every transaction ends in a commit.
    fn generate(&self, params: &ScenarioParams) -> Vec<ScenarioTxn>;
}

/// Weighted choice over `items`: returns the item whose weight bucket the
/// roll lands in.  Non-positive weights are skipped; if *no* weight is
/// positive the choice falls back to uniform over all items; an empty slice
/// yields `None`.
pub fn pick_weighted<'a, T, R: Rng + ?Sized>(rng: &mut R, items: &'a [(f64, T)]) -> Option<&'a T> {
    if items.is_empty() {
        return None;
    }
    let total: f64 = items.iter().map(|(w, _)| w.max(0.0)).sum();
    if total <= 0.0 {
        // Degenerate mix (all weights zero/negative): uniform fallback.
        let index = rng.gen_range(0..items.len());
        return items.get(index).map(|(_, item)| item);
    }
    let mut roll = rng.gen_range(0.0..total);
    for (weight, item) in items {
        let weight = weight.max(0.0);
        if weight > 0.0 && roll < weight {
            return Some(item);
        }
        roll -= weight;
    }
    // Floating-point slack at the top of the range: last positive-weight item.
    items
        .iter()
        .rev()
        .find(|(w, _)| *w > 0.0)
        .map(|(_, item)| item)
}

const TABLE: &str = "bench";

fn read(txn: TxnId, intra: u32, key: i64) -> Statement {
    Statement::select(txn, intra, TABLE, key)
}

/// Writes store the key as the value so final state is order-independent.
fn write(txn: TxnId, intra: u32, key: i64) -> Statement {
    Statement::update(txn, intra, TABLE, key, key)
}

fn commit(txn: TxnId, intra: u32) -> Statement {
    Statement::commit(txn, intra, TABLE)
}

// ---------------------------------------------------------------------------
// 1. zipf-hotspot
// ---------------------------------------------------------------------------

/// Short read/write transactions with heavily skewed (Zipfian s = 1.1) key
/// choice: the contention-stress scenario.
pub struct ZipfHotspot;

impl Scenario for ZipfHotspot {
    fn name(&self) -> &'static str {
        "zipf-hotspot"
    }

    fn description(&self) -> &'static str {
        "short 2r+2w transactions on Zipfian (s=1.1) keys — contention stress"
    }

    fn arrival(&self) -> ArrivalSpec {
        ArrivalSpec::Closed { depth: 32 }
    }

    fn generate(&self, params: &ScenarioParams) -> Vec<ScenarioTxn> {
        let mut rng = StdRng::seed_from_u64(params.seed);
        let dist = KeyDistribution::Zipfian { s: 1.1 };
        (0..params.transactions)
            .map(|index| {
                let txn = TxnId(index as u64 + 1);
                let mut statements = Vec::with_capacity(5);
                for intra in 0..4u32 {
                    let key = distinct_key(&dist, &mut rng, params.table_rows, &statements);
                    statements.push(if intra < 2 {
                        read(txn, intra, key)
                    } else {
                        write(txn, intra, key)
                    });
                }
                statements.push(commit(txn, 4));
                ScenarioTxn::plain(statements)
            })
            .collect()
    }
}

/// Draw a key the transaction has not touched yet (the declarative rules
/// assume each transaction accesses an object at most once per batch).
fn distinct_key(
    dist: &KeyDistribution,
    rng: &mut StdRng,
    table_rows: usize,
    taken: &[Statement],
) -> i64 {
    loop {
        let key = dist.sample(rng, table_rows);
        if !taken.iter().any(|s| s.object().map(|o| o.0) == Some(key)) {
            return key;
        }
    }
}

// ---------------------------------------------------------------------------
// 2. read-mostly
// ---------------------------------------------------------------------------

/// YCSB-B-style traffic: 95 % reads, 5 % writes, moderately skewed keys.
pub struct ReadMostly;

impl Scenario for ReadMostly {
    fn name(&self) -> &'static str {
        "read-mostly"
    }

    fn description(&self) -> &'static str {
        "YCSB-B-style 95% reads / 5% writes on Zipfian (s=0.8) keys"
    }

    fn arrival(&self) -> ArrivalSpec {
        ArrivalSpec::Closed { depth: 32 }
    }

    fn generate(&self, params: &ScenarioParams) -> Vec<ScenarioTxn> {
        let mut rng = StdRng::seed_from_u64(params.seed);
        let dist = KeyDistribution::Zipfian { s: 0.8 };
        (0..params.transactions)
            .map(|index| {
                let txn = TxnId(index as u64 + 1);
                let statements_per_txn = 6usize;
                let mut statements = Vec::with_capacity(statements_per_txn + 1);
                for intra in 0..statements_per_txn as u32 {
                    let key = distinct_key(&dist, &mut rng, params.table_rows, &statements);
                    statements.push(if rng.gen_bool(0.05) {
                        write(txn, intra, key)
                    } else {
                        read(txn, intra, key)
                    });
                }
                statements.push(commit(txn, statements_per_txn as u32));
                ScenarioTxn::plain(statements)
            })
            .collect()
    }
}

// ---------------------------------------------------------------------------
// 3. order-pipeline
// ---------------------------------------------------------------------------

/// The three TPC-C-lite transaction templates of [`OrderPipeline`].
enum OrderTemplate {
    NewOrder,
    Payment,
    Delivery,
}

/// TPC-C-lite: multi-step order transactions over three key regions — a
/// small hot *district* region (sequence counters), a large *stock* region
/// (item inventory) and an *order* region (one fresh row per order).
///
/// Templates are mixed by weight: 45 % new-order (read+bump a district,
/// read+decrement three stock rows, insert an order row), 45 % payment
/// (read+bump a district, update an order row), 10 % delivery (read an
/// order row, restock one stock row).
pub struct OrderPipeline;

impl OrderPipeline {
    /// Region boundaries `(districts, stock_end)` within `table_rows`:
    /// districts are the first ~1/64th of the table (at least one row, at
    /// most 64), stock the following ~60 %, orders the remainder.
    fn regions(table_rows: usize) -> (usize, usize) {
        let districts = (table_rows / 64).clamp(1, 64);
        let stock_end = districts + (table_rows - districts) * 3 / 5;
        (districts, stock_end.min(table_rows - 1))
    }
}

impl Scenario for OrderPipeline {
    fn name(&self) -> &'static str {
        "order-pipeline"
    }

    fn description(&self) -> &'static str {
        "TPC-C-lite multi-step orders: hot district counters, stock updates, order inserts"
    }

    fn arrival(&self) -> ArrivalSpec {
        ArrivalSpec::Closed { depth: 16 }
    }

    fn generate(&self, params: &ScenarioParams) -> Vec<ScenarioTxn> {
        assert!(
            params.table_rows >= 16,
            "order-pipeline needs at least 16 rows to form its key regions"
        );
        let mut rng = StdRng::seed_from_u64(params.seed);
        let (districts, stock_end) = Self::regions(params.table_rows);
        let stock_dist = KeyDistribution::Zipfian { s: 0.9 };
        let stock_span = stock_end - districts;
        let order_span = params.table_rows - stock_end;
        let templates = [
            (0.45, OrderTemplate::NewOrder),
            (0.45, OrderTemplate::Payment),
            (0.10, OrderTemplate::Delivery),
        ];

        (0..params.transactions)
            .map(|index| {
                let txn = TxnId(index as u64 + 1);
                let district = rng.gen_range(0..districts as i64);
                // Spread the order region round-robin so order rows are
                // unique per transaction (an "insert" into a pre-sized table).
                let order_row = (stock_end + index % order_span) as i64;
                let template =
                    pick_weighted(&mut rng, &templates).expect("template mix is non-empty");
                let mut statements = Vec::new();
                let mut intra = 0u32;
                let mut push = |s: Statement, intra: &mut u32| {
                    statements.push(s);
                    *intra += 1;
                };
                match template {
                    OrderTemplate::NewOrder => {
                        // Step 1: read + bump the district's order counter.
                        push(read(txn, intra, district), &mut intra);
                        push(write(txn, intra, district), &mut intra);
                        // Step 2: check + decrement three distinct stock rows.
                        let mut items: Vec<i64> = Vec::with_capacity(3);
                        while items.len() < 3 {
                            let item = districts as i64 + stock_dist.sample(&mut rng, stock_span);
                            if !items.contains(&item) {
                                items.push(item);
                            }
                        }
                        for item in items {
                            push(read(txn, intra, item), &mut intra);
                            push(write(txn, intra, item), &mut intra);
                        }
                        // Step 3: write the order row.
                        push(write(txn, intra, order_row), &mut intra);
                    }
                    OrderTemplate::Payment => {
                        push(read(txn, intra, district), &mut intra);
                        push(write(txn, intra, district), &mut intra);
                        push(write(txn, intra, order_row), &mut intra);
                    }
                    OrderTemplate::Delivery => {
                        push(read(txn, intra, order_row), &mut intra);
                        let item = districts as i64 + stock_dist.sample(&mut rng, stock_span);
                        push(write(txn, intra, item), &mut intra);
                    }
                }
                statements.push(commit(txn, intra));
                ScenarioTxn::plain(statements)
            })
            .collect()
    }
}

// ---------------------------------------------------------------------------
// 4. bursty
// ---------------------------------------------------------------------------

/// Single-update transactions arriving in open-loop on/off bursts: the
/// queueing-collapse probe.  During a burst the offered rate far exceeds
/// the trough rate; an open-loop driver keeps submitting through the burst
/// whether or not the backend keeps up, so saturation becomes visible as
/// growing latency instead of silently throttled submission.
pub struct BurstyArrivals;

impl Scenario for BurstyArrivals {
    fn name(&self) -> &'static str {
        "bursty"
    }

    fn description(&self) -> &'static str {
        "single-update transactions under open-loop on/off burst arrivals"
    }

    fn arrival(&self) -> ArrivalSpec {
        // Rates are relative: a driver rescales them to the measured
        // closed-loop capacity of the backend under test via
        // `ArrivalSpec::scaled`.
        ArrivalSpec::Bursty {
            base_tps: 2_000.0,
            burst_tps: 20_000.0,
            period_ms: 100,
            burst_ms: 20,
        }
    }

    fn generate(&self, params: &ScenarioParams) -> Vec<ScenarioTxn> {
        let mut rng = StdRng::seed_from_u64(params.seed);
        (0..params.transactions)
            .map(|index| {
                let txn = TxnId(index as u64 + 1);
                let key = rng.gen_range(0..params.table_rows as i64);
                ScenarioTxn::plain(vec![write(txn, 0, key), commit(txn, 1)])
            })
            .collect()
    }
}

// ---------------------------------------------------------------------------
// 5. sla-tiers
// ---------------------------------------------------------------------------

/// Mixed premium/standard/free traffic under open-loop Poisson arrivals,
/// for the SLA-priority scheduling protocol: 20 % premium, 50 % standard,
/// 30 % free, assigned deterministically round-robin-by-weight so every
/// class is present from the first few transactions.
pub struct SlaTiers;

impl Scenario for SlaTiers {
    fn name(&self) -> &'static str {
        "sla-tiers"
    }

    fn description(&self) -> &'static str {
        "premium/standard/free classes under Poisson arrivals — drives the SLA protocol"
    }

    fn arrival(&self) -> ArrivalSpec {
        ArrivalSpec::Poisson { rate_tps: 5_000.0 }
    }

    fn sla_aware(&self) -> bool {
        true
    }

    fn generate(&self, params: &ScenarioParams) -> Vec<ScenarioTxn> {
        let mut rng = StdRng::seed_from_u64(params.seed);
        let dist = KeyDistribution::HotSpot {
            hot_fraction: 0.3,
            hot_rows: (params.table_rows / 16).max(1),
        };
        (0..params.transactions)
            .map(|index| {
                let txn = TxnId(index as u64 + 1);
                // Deterministic 2/5/3 class cycle out of every 10 transactions.
                let class = match index % 10 {
                    0 | 1 => ClientClass::Premium,
                    2..=6 => ClientClass::Standard,
                    _ => ClientClass::Free,
                };
                let mut statements = Vec::with_capacity(4);
                for intra in 0..3u32 {
                    let key = distinct_key(&dist, &mut rng, params.table_rows, &statements);
                    statements.push(if intra == 2 {
                        write(txn, intra, key)
                    } else {
                        read(txn, intra, key)
                    });
                }
                statements.push(commit(txn, 3));
                ScenarioTxn {
                    statements,
                    class: Some(class),
                }
            })
            .collect()
    }
}

// ---------------------------------------------------------------------------
// 6. extreme-skew
// ---------------------------------------------------------------------------

/// Shard count the skewed hot set is co-located against.  The scenario is
/// adversarial *by construction*: its hot keys all hash to the same shard
/// of a [`EXTREME_SKEW_REFERENCE_SHARDS`]-way fleet, so a static
/// footprint-hash router serves ~all of the traffic from one worker.  This
/// is the workload the control plane's hot-object re-homing exists for.
pub const EXTREME_SKEW_REFERENCE_SHARDS: usize = 4;

/// Number of hot keys in the co-located hot set.
pub const EXTREME_SKEW_HOT_KEYS: usize = 16;

/// Fraction of transactions that target the hot set.
pub const EXTREME_SKEW_HOT_FRACTION: f64 = 0.95;

/// Single-write transactions with 95 % of the traffic on a small hot set
/// whose keys all share one home shard under the router's hash at
/// [`EXTREME_SKEW_REFERENCE_SHARDS`]-way partitioning — hash-balancing
/// cannot help, only placement migration can.
pub struct ExtremeSkew;

impl ExtremeSkew {
    /// The co-located hot set within `table_rows`: the first
    /// [`EXTREME_SKEW_HOT_KEYS`] keys whose hash home is shard 0 of the
    /// reference fleet.
    pub fn hot_keys(table_rows: usize) -> Vec<i64> {
        (0..table_rows as i64)
            .filter(|&key| declsched::shard_of(key, EXTREME_SKEW_REFERENCE_SHARDS) == 0)
            .take(EXTREME_SKEW_HOT_KEYS)
            .collect()
    }
}

impl Scenario for ExtremeSkew {
    fn name(&self) -> &'static str {
        "extreme-skew"
    }

    fn description(&self) -> &'static str {
        "95% single-key writes on 16 hot keys co-located on one shard by the router hash"
    }

    fn arrival(&self) -> ArrivalSpec {
        ArrivalSpec::Closed { depth: 32 }
    }

    fn generate(&self, params: &ScenarioParams) -> Vec<ScenarioTxn> {
        let hot = Self::hot_keys(params.table_rows);
        assert!(
            !hot.is_empty(),
            "extreme-skew needs a table large enough to contain its hot set"
        );
        let mut rng = StdRng::seed_from_u64(params.seed);
        (0..params.transactions)
            .map(|index| {
                let txn = TxnId(index as u64 + 1);
                let key = if rng.gen_bool(EXTREME_SKEW_HOT_FRACTION) {
                    hot[rng.gen_range(0..hot.len())]
                } else {
                    rng.gen_range(0..params.table_rows as i64)
                };
                ScenarioTxn::plain(vec![write(txn, 0, key), commit(txn, 1)])
            })
            .collect()
    }
}

// ---------------------------------------------------------------------------
// 7. tiered-overload
// ---------------------------------------------------------------------------

/// The overload-shedding experiment's traffic: open-loop Poisson arrivals
/// where only a small premium slice (15 %) is protected and the bulk of the
/// load (25 % standard, 60 % free) is sheddable.  Driven past capacity,
/// an SLA-aware deployment keeps premium latency bounded by rejecting the
/// sheddable tiers; without shedding every tier queues together.
pub struct TieredOverload;

impl Scenario for TieredOverload {
    fn name(&self) -> &'static str {
        "tiered-overload"
    }

    fn description(&self) -> &'static str {
        "15% premium / 25% standard / 60% free under Poisson arrivals — the shedding probe"
    }

    fn arrival(&self) -> ArrivalSpec {
        ArrivalSpec::Poisson { rate_tps: 5_000.0 }
    }

    fn sla_aware(&self) -> bool {
        true
    }

    fn generate(&self, params: &ScenarioParams) -> Vec<ScenarioTxn> {
        let mut rng = StdRng::seed_from_u64(params.seed);
        (0..params.transactions)
            .map(|index| {
                let txn = TxnId(index as u64 + 1);
                // Deterministic 3/5/12 class cycle out of every 20
                // transactions, so every class is present from the start.
                let class = match index % 20 {
                    0..=2 => ClientClass::Premium,
                    3..=7 => ClientClass::Standard,
                    _ => ClientClass::Free,
                };
                // Single-object read-modify-write: the read lock upgrades
                // to the write, and a single-object footprint keeps the
                // transaction on one shard — overload then lands on worker
                // queues, which is the backlog the shedding watermark (and
                // the rebalancer) observe.
                let key = rng.gen_range(0..params.table_rows as i64);
                ScenarioTxn {
                    statements: vec![read(txn, 0, key), write(txn, 1, key), commit(txn, 2)],
                    class: Some(class),
                }
            })
            .collect()
    }
}

// ---------------------------------------------------------------------------
// 8. drifting-hotspot
// ---------------------------------------------------------------------------

/// Number of phases the hot set moves through over a [`DriftingHotspot`] run.
pub const DRIFT_PHASES: usize = 4;

/// Hot keys per phase of the drifting hotspot.
pub const DRIFT_HOT_KEYS: usize = 8;

/// Fraction of transactions that target the current phase's hot set.
pub const DRIFT_HOT_FRACTION: f64 = 0.8;

/// A hotspot that *moves*: the stream is split into [`DRIFT_PHASES`] equal
/// phases and each phase concentrates [`DRIFT_HOT_FRACTION`] of its
/// single-key read-modify-write traffic on a phase-private, pairwise
/// disjoint [`DRIFT_HOT_KEYS`]-key hot set.  A placement rebalancer that
/// chased phase 1's hot keys is wrong by phase 2 — the adversarial probe
/// for migration-cooldown bounds (a naive rebalancer churns placements
/// every phase boundary).
pub struct DriftingHotspot;

impl DriftingHotspot {
    /// Which phase the `index`-th of `transactions` transactions falls in.
    pub fn phase_of(index: usize, transactions: usize) -> usize {
        (index * DRIFT_PHASES / transactions.max(1)).min(DRIFT_PHASES - 1)
    }

    /// The hot set of `phase` within `table_rows`: [`DRIFT_HOT_KEYS`] keys
    /// strided across the table, pairwise disjoint between phases.
    pub fn hot_keys(phase: usize, table_rows: usize) -> Vec<i64> {
        let stride = (table_rows / (DRIFT_PHASES * DRIFT_HOT_KEYS)).max(1);
        (0..DRIFT_HOT_KEYS)
            .map(|i| (((phase * DRIFT_HOT_KEYS + i) * stride) % table_rows) as i64)
            .collect()
    }
}

impl Scenario for DriftingHotspot {
    fn name(&self) -> &'static str {
        "drifting-hotspot"
    }

    fn description(&self) -> &'static str {
        "hot key-set moves to a disjoint region each quarter of the run — rebalancer churn probe"
    }

    fn arrival(&self) -> ArrivalSpec {
        ArrivalSpec::Closed { depth: 32 }
    }

    fn generate(&self, params: &ScenarioParams) -> Vec<ScenarioTxn> {
        assert!(
            params.table_rows >= DRIFT_PHASES * DRIFT_HOT_KEYS,
            "drifting-hotspot needs disjoint per-phase hot sets"
        );
        let mut rng = StdRng::seed_from_u64(params.seed);
        (0..params.transactions)
            .map(|index| {
                let txn = TxnId(index as u64 + 1);
                let phase = Self::phase_of(index, params.transactions);
                let hot = Self::hot_keys(phase, params.table_rows);
                let key = if rng.gen_bool(DRIFT_HOT_FRACTION) {
                    hot[rng.gen_range(0..hot.len())]
                } else {
                    rng.gen_range(0..params.table_rows as i64)
                };
                ScenarioTxn::plain(vec![read(txn, 0, key), write(txn, 1, key), commit(txn, 2)])
            })
            .collect()
    }
}

// ---------------------------------------------------------------------------
// 9. deadlock-storm
// ---------------------------------------------------------------------------

/// Size of the deadlock storm's hot set (keys `0..4`).
pub const DEADLOCK_STORM_HOT_KEYS: usize = 4;

/// Fraction of transactions landing on the storm's hot set.
pub const DEADLOCK_STORM_HOT_FRACTION: f64 = 0.9;

/// Concurrent single-key read→write upgrades on a tiny hot set.  On the
/// passthrough backend two transactions that both hold the shared lock on
/// the same key and both request the upgrade form a genuine native
/// upgrade deadlock — the server's waits-for detector must abort victims.
/// The scheduled backends qualify each transaction's read *and* write
/// together under SS2PL batch-conflict rules, so the same stream commits
/// without a single deadlock: the scenario measures exactly the class of
/// conflict declarative scheduling removes.
pub struct DeadlockStorm;

impl Scenario for DeadlockStorm {
    fn name(&self) -> &'static str {
        "deadlock-storm"
    }

    fn description(&self) -> &'static str {
        "single-key lock upgrades on 4 hot keys — native upgrade deadlocks on passthrough"
    }

    fn arrival(&self) -> ArrivalSpec {
        ArrivalSpec::Closed { depth: 16 }
    }

    fn generate(&self, params: &ScenarioParams) -> Vec<ScenarioTxn> {
        assert!(
            params.table_rows >= DEADLOCK_STORM_HOT_KEYS,
            "deadlock-storm needs its hot keys inside the table"
        );
        let mut rng = StdRng::seed_from_u64(params.seed);
        (0..params.transactions)
            .map(|index| {
                let txn = TxnId(index as u64 + 1);
                let key = if rng.gen_bool(DEADLOCK_STORM_HOT_FRACTION) {
                    rng.gen_range(0..DEADLOCK_STORM_HOT_KEYS as i64)
                } else {
                    rng.gen_range(0..params.table_rows as i64)
                };
                ScenarioTxn::plain(vec![read(txn, 0, key), write(txn, 1, key), commit(txn, 2)])
            })
            .collect()
    }
}

// ---------------------------------------------------------------------------
// 10. oltp-analytical-mix
// ---------------------------------------------------------------------------

/// Every n-th transaction of the mix is analytical.
pub const ANALYTICAL_EVERY: usize = 8;

/// Distinct rows one analytical transaction scans.
pub const ANALYTICAL_READS: usize = 12;

/// OLTP point read-modify-writes with a long-running analytical scan mixed
/// in every [`ANALYTICAL_EVERY`]-th transaction: [`ANALYTICAL_READS`]
/// distinct reads in ascending key order, holding shared locks across a
/// wide footprint until commit.  The scan's held read locks collide with
/// the point writers' upgrades — the classic OLTP-vs-analytics
/// interference shape.
pub struct OltpAnalyticalMix;

impl Scenario for OltpAnalyticalMix {
    fn name(&self) -> &'static str {
        "oltp-analytical-mix"
    }

    fn description(&self) -> &'static str {
        "point updates with a wide sorted analytical scan every 8th transaction"
    }

    fn arrival(&self) -> ArrivalSpec {
        ArrivalSpec::Closed { depth: 16 }
    }

    fn generate(&self, params: &ScenarioParams) -> Vec<ScenarioTxn> {
        assert!(
            params.table_rows >= ANALYTICAL_READS * 2,
            "oltp-analytical-mix needs room for its scan footprint"
        );
        let mut rng = StdRng::seed_from_u64(params.seed);
        let dist = KeyDistribution::HotSpot {
            hot_fraction: 0.6,
            hot_rows: (params.table_rows / 16).max(1),
        };
        (0..params.transactions)
            .map(|index| {
                let txn = TxnId(index as u64 + 1);
                if index % ANALYTICAL_EVERY == 0 {
                    // Analytical: a wide scan over distinct rows, emitted in
                    // ascending key order so concurrent scans acquire their
                    // shared locks in one global order.
                    let mut keys: Vec<i64> = Vec::with_capacity(ANALYTICAL_READS);
                    while keys.len() < ANALYTICAL_READS {
                        let key = rng.gen_range(0..params.table_rows as i64);
                        if !keys.contains(&key) {
                            keys.push(key);
                        }
                    }
                    keys.sort_unstable();
                    let mut statements: Vec<Statement> = keys
                        .iter()
                        .enumerate()
                        .map(|(i, &key)| read(txn, i as u32, key))
                        .collect();
                    statements.push(commit(txn, ANALYTICAL_READS as u32));
                    ScenarioTxn::plain(statements)
                } else {
                    let key = dist.sample(&mut rng, params.table_rows);
                    ScenarioTxn::plain(vec![read(txn, 0, key), write(txn, 1, key), commit(txn, 2)])
                }
            })
            .collect()
    }
}

// ---------------------------------------------------------------------------
// 11. tenant-quota
// ---------------------------------------------------------------------------

/// Multi-tenant quota pressure: a 1/2/7 premium/standard/free tenant cycle
/// under open-loop Poisson arrivals, all issuing hotspot-skewed single-key
/// read-modify-writes.  Layered under the session layer's shed-policy
/// watermark the free bulk is the first to be refused while the thin
/// premium slice must never be — the chaos suite flips the policy mid-run
/// against exactly this stream.
pub struct TenantQuota;

impl Scenario for TenantQuota {
    fn name(&self) -> &'static str {
        "tenant-quota"
    }

    fn description(&self) -> &'static str {
        "1/2/7 premium/standard/free tenants under Poisson arrivals — quota-shedding pressure"
    }

    fn arrival(&self) -> ArrivalSpec {
        ArrivalSpec::Poisson { rate_tps: 5_000.0 }
    }

    fn sla_aware(&self) -> bool {
        true
    }

    fn generate(&self, params: &ScenarioParams) -> Vec<ScenarioTxn> {
        let mut rng = StdRng::seed_from_u64(params.seed);
        let dist = KeyDistribution::HotSpot {
            hot_fraction: 0.5,
            hot_rows: (params.table_rows / 32).max(1),
        };
        (0..params.transactions)
            .map(|index| {
                let txn = TxnId(index as u64 + 1);
                // Deterministic 1/2/7 tenant cycle out of every 10.
                let class = match index % 10 {
                    0 => ClientClass::Premium,
                    1..=2 => ClientClass::Standard,
                    _ => ClientClass::Free,
                };
                let key = dist.sample(&mut rng, params.table_rows);
                ScenarioTxn {
                    statements: vec![read(txn, 0, key), write(txn, 1, key), commit(txn, 2)],
                    class: Some(class),
                }
            })
            .collect()
    }
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

/// Pre-intern every string literal the generated streams feed into the
/// scheduler's relations — the table name and the service-class names (the
/// operation codes are pre-interned by the core crate itself).  Called at
/// registry construction so the first scheduling round never takes the
/// interner's write lock on the hot path.
fn intern_literals() {
    declsched::Symbol::intern(TABLE);
    for class in [
        ClientClass::Premium,
        ClientClass::Standard,
        ClientClass::Free,
    ] {
        declsched::Symbol::intern(class.as_str());
    }
}

/// Every registered scenario, in stable order.  Benchmarks iterate this so
/// a newly added scenario is picked up everywhere without further wiring.
pub fn registry() -> Vec<Box<dyn Scenario>> {
    intern_literals();
    vec![
        Box::new(ZipfHotspot),
        Box::new(ReadMostly),
        Box::new(OrderPipeline),
        Box::new(BurstyArrivals),
        Box::new(SlaTiers),
        Box::new(ExtremeSkew),
        Box::new(TieredOverload),
        Box::new(DriftingHotspot),
        Box::new(DeadlockStorm),
        Box::new(OltpAnalyticalMix),
        Box::new(TenantQuota),
    ]
}

/// Look a scenario up by its stable name.
pub fn by_name(name: &str) -> Option<Box<dyn Scenario>> {
    registry().into_iter().find(|s| s.name() == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use txnstore::StatementKind;

    fn render(stream: &[ScenarioTxn]) -> Vec<String> {
        stream
            .iter()
            .flat_map(|t| t.statements.iter())
            .map(|s| s.to_string())
            .collect()
    }

    #[test]
    fn registry_has_five_uniquely_named_scenarios() {
        let names: Vec<&str> = registry().iter().map(|s| s.name()).collect();
        assert!(names.len() >= 5, "registry shrank: {names:?}");
        let unique: HashSet<&&str> = names.iter().collect();
        assert_eq!(unique.len(), names.len(), "duplicate scenario names");
        for name in names {
            assert!(by_name(name).is_some());
        }
        assert!(by_name("no-such-scenario").is_none());
    }

    #[test]
    fn every_scenario_generates_well_formed_deterministic_streams() {
        let params = ScenarioParams::small();
        for scenario in registry() {
            let stream = scenario.generate(&params);
            assert_eq!(stream.len(), params.transactions, "{}", scenario.name());
            for (index, txn) in stream.iter().enumerate() {
                let expected = TxnId(index as u64 + 1);
                assert!(
                    txn.statements.iter().all(|s| s.txn == expected),
                    "{}: stray txn id",
                    scenario.name()
                );
                // Consecutive intra numbering from zero, commit-terminated.
                for (i, s) in txn.statements.iter().enumerate() {
                    assert_eq!(s.intra as usize, i, "{}", scenario.name());
                }
                assert!(matches!(
                    txn.statements.last().unwrap().kind,
                    StatementKind::Commit
                ));
                // Keys stay within the table.
                for s in &txn.statements {
                    if let Some(object) = s.object() {
                        assert!((0..params.table_rows as i64).contains(&object.0));
                    }
                }
                // No object is read twice or written twice by one
                // transaction (a read+write pair on the same object is fine
                // — it upgrades to a write lock).
                let mut seen = HashSet::new();
                for s in &txn.statements {
                    if let Some(object) = s.object() {
                        assert!(
                            seen.insert((std::mem::discriminant(&s.kind), object.0)),
                            "{}: object {} repeated with the same operation",
                            scenario.name(),
                            object.0
                        );
                    }
                }
            }
            // Same seed → identical stream; different seed → different one.
            let again = scenario.generate(&params);
            assert_eq!(render(&stream), render(&again), "{}", scenario.name());
            let other = scenario.generate(&ScenarioParams {
                seed: params.seed + 1,
                ..params
            });
            assert_ne!(render(&stream), render(&other), "{}", scenario.name());
        }
    }

    #[test]
    fn zipf_hotspot_concentrates_traffic() {
        let params = ScenarioParams {
            transactions: 400,
            table_rows: 4_096,
            seed: 3,
        };
        let stream = ZipfHotspot.generate(&params);
        let hot_cut = params.table_rows as i64 / 100; // lowest 1% of keys
        let (mut hot, mut total) = (0usize, 0usize);
        for txn in &stream {
            for s in &txn.statements {
                if let Some(object) = s.object() {
                    total += 1;
                    if object.0 < hot_cut {
                        hot += 1;
                    }
                }
            }
        }
        assert!(
            hot as f64 / total as f64 > 0.2,
            "hotspot too cold: {hot}/{total}"
        );
    }

    #[test]
    fn read_mostly_is_mostly_reads() {
        let stream = ReadMostly.generate(&ScenarioParams::small());
        let (mut reads, mut writes) = (0usize, 0usize);
        for txn in &stream {
            for s in &txn.statements {
                match s.kind {
                    StatementKind::Select { .. } => reads += 1,
                    StatementKind::Update { .. } => writes += 1,
                    _ => {}
                }
            }
        }
        let write_fraction = writes as f64 / (reads + writes) as f64;
        assert!(write_fraction < 0.15, "write fraction {write_fraction}");
        assert!(writes > 0, "some writes must occur");
    }

    #[test]
    fn order_pipeline_touches_its_three_regions() {
        let params = ScenarioParams {
            transactions: 200,
            table_rows: 2_048,
            seed: 5,
        };
        let (districts, stock_end) = OrderPipeline::regions(params.table_rows);
        let stream = OrderPipeline.generate(&params);
        let (mut district_hits, mut stock_hits, mut order_hits) = (0usize, 0usize, 0usize);
        for txn in &stream {
            for s in &txn.statements {
                if let Some(object) = s.object() {
                    let key = object.0 as usize;
                    if key < districts {
                        district_hits += 1;
                    } else if key < stock_end {
                        stock_hits += 1;
                    } else {
                        order_hits += 1;
                    }
                }
            }
        }
        assert!(district_hits > 0 && stock_hits > 0 && order_hits > 0);
        // Districts are the hot region: far fewer rows, many hits.
        assert!(district_hits as f64 / districts as f64 > 1.0);
    }

    #[test]
    fn sla_tiers_assigns_all_classes_and_marks_itself_sla_aware() {
        let scenario = SlaTiers;
        assert!(scenario.sla_aware());
        assert!(scenario.arrival().is_open_loop());
        let stream = scenario.generate(&ScenarioParams::small());
        let classes: HashSet<ClientClass> = stream.iter().filter_map(|t| t.class).collect();
        assert_eq!(classes.len(), 3, "all three classes present");
        let premium = stream
            .iter()
            .filter(|t| t.class == Some(ClientClass::Premium))
            .count();
        let expected = (0..stream.len()).filter(|i| i % 10 < 2).count();
        assert_eq!(premium, expected, "2-in-10 premium cycle");
    }

    #[test]
    fn extreme_skew_co_locates_its_hot_set_on_one_reference_shard() {
        let params = ScenarioParams {
            transactions: 400,
            table_rows: 2_048,
            seed: 9,
        };
        let hot = ExtremeSkew::hot_keys(params.table_rows);
        assert_eq!(hot.len(), EXTREME_SKEW_HOT_KEYS);
        for &key in &hot {
            assert_eq!(
                declsched::shard_of(key, EXTREME_SKEW_REFERENCE_SHARDS),
                0,
                "hot key {key} must hash to the reference shard"
            );
        }
        let stream = ExtremeSkew.generate(&params);
        let hot_writes = stream
            .iter()
            .flat_map(|t| t.statements.iter())
            .filter(|s| s.object().is_some_and(|o| hot.contains(&o.0)))
            .count();
        let data = stream
            .iter()
            .flat_map(|t| t.statements.iter())
            .filter(|s| s.object().is_some())
            .count();
        let fraction = hot_writes as f64 / data as f64;
        assert!(
            fraction > 0.85,
            "hot set must dominate the traffic: {fraction:.2}"
        );
    }

    #[test]
    fn tiered_overload_is_mostly_sheddable() {
        let scenario = TieredOverload;
        assert!(scenario.sla_aware());
        assert!(scenario.arrival().is_open_loop());
        let stream = scenario.generate(&ScenarioParams::small());
        let premium = stream
            .iter()
            .filter(|t| t.class == Some(ClientClass::Premium))
            .count();
        let sheddable = stream
            .iter()
            .filter(|t| {
                matches!(
                    t.class,
                    Some(ClientClass::Standard) | Some(ClientClass::Free)
                )
            })
            .count();
        assert_eq!(premium + sheddable, stream.len(), "every txn is classed");
        assert!(
            sheddable as f64 / stream.len() as f64 > 0.7,
            "the bulk of the load must be sheddable"
        );
    }

    #[test]
    fn drifting_hotspot_moves_between_disjoint_phase_hot_sets() {
        let params = ScenarioParams {
            transactions: 400,
            table_rows: 2_048,
            seed: 13,
        };
        // Phase hot sets are pairwise disjoint.
        let sets: Vec<HashSet<i64>> = (0..DRIFT_PHASES)
            .map(|p| {
                DriftingHotspot::hot_keys(p, params.table_rows)
                    .into_iter()
                    .collect()
            })
            .collect();
        for a in 0..sets.len() {
            assert_eq!(sets[a].len(), DRIFT_HOT_KEYS);
            for b in (a + 1)..sets.len() {
                assert!(
                    sets[a].is_disjoint(&sets[b]),
                    "phase {a} and {b} hot sets overlap"
                );
            }
        }
        // Each phase's traffic concentrates on its own hot set, not the
        // previous phase's.
        let stream = DriftingHotspot.generate(&params);
        for (phase, hot_set) in sets.iter().enumerate().take(DRIFT_PHASES) {
            let txns: Vec<&ScenarioTxn> = stream
                .iter()
                .enumerate()
                .filter(|(i, _)| DriftingHotspot::phase_of(*i, params.transactions) == phase)
                .map(|(_, t)| t)
                .collect();
            let on_own = txns
                .iter()
                .filter(|t| {
                    t.statements[0]
                        .object()
                        .is_some_and(|o| hot_set.contains(&o.0))
                })
                .count();
            let fraction = on_own as f64 / txns.len() as f64;
            assert!(
                fraction > 0.6,
                "phase {phase} hot fraction {fraction:.2} too cold"
            );
        }
    }

    #[test]
    fn deadlock_storm_is_single_key_upgrades_on_a_tiny_hot_set() {
        let params = ScenarioParams {
            transactions: 300,
            table_rows: 1_024,
            seed: 17,
        };
        let stream = DeadlockStorm.generate(&params);
        let mut hot_hits = 0usize;
        for txn in &stream {
            // Shape: read k, write k, commit — the upgrade pattern.
            assert_eq!(txn.statements.len(), 3);
            let read_key = txn.statements[0].object().expect("read has an object");
            let write_key = txn.statements[1].object().expect("write has an object");
            assert!(matches!(
                txn.statements[0].kind,
                StatementKind::Select { .. }
            ));
            assert!(matches!(
                txn.statements[1].kind,
                StatementKind::Update { .. }
            ));
            assert_eq!(read_key, write_key, "the write must upgrade the read");
            if (read_key.0 as usize) < DEADLOCK_STORM_HOT_KEYS {
                hot_hits += 1;
            }
        }
        assert!(
            hot_hits as f64 / stream.len() as f64 > 0.8,
            "storm must concentrate on the hot set: {hot_hits}/{}",
            stream.len()
        );
    }

    #[test]
    fn oltp_analytical_mix_interleaves_sorted_scans() {
        let params = ScenarioParams {
            transactions: 160,
            table_rows: 1_024,
            seed: 19,
        };
        let stream = OltpAnalyticalMix.generate(&params);
        for (index, txn) in stream.iter().enumerate() {
            if index % ANALYTICAL_EVERY == 0 {
                assert_eq!(txn.statements.len(), ANALYTICAL_READS + 1);
                let keys: Vec<i64> = txn
                    .statements
                    .iter()
                    .filter_map(|s| s.object())
                    .map(|o| o.0)
                    .collect();
                assert!(
                    txn.statements[..ANALYTICAL_READS]
                        .iter()
                        .all(|s| matches!(s.kind, StatementKind::Select { .. })),
                    "analytical transactions only read"
                );
                assert!(
                    keys.windows(2).all(|w| w[0] < w[1]),
                    "scan keys must be strictly ascending: {keys:?}"
                );
            } else {
                assert_eq!(txn.statements.len(), 3, "point txns are rmw+commit");
            }
        }
    }

    #[test]
    fn tenant_quota_cycles_tenants_with_a_thin_premium_slice() {
        let scenario = TenantQuota;
        assert!(scenario.sla_aware());
        assert!(scenario.arrival().is_open_loop());
        let stream = scenario.generate(&ScenarioParams::small());
        let classes: HashSet<ClientClass> = stream.iter().filter_map(|t| t.class).collect();
        assert_eq!(classes.len(), 3, "all three tenant tiers present");
        let premium = stream
            .iter()
            .filter(|t| t.class == Some(ClientClass::Premium))
            .count();
        let free = stream
            .iter()
            .filter(|t| t.class == Some(ClientClass::Free))
            .count();
        let expected_premium = (0..stream.len()).filter(|i| i % 10 == 0).count();
        assert_eq!(premium, expected_premium, "1-in-10 premium cycle");
        assert!(
            free as f64 / stream.len() as f64 > 0.6,
            "the free bulk carries the quota pressure"
        );
    }

    #[test]
    fn arrival_spec_scaling_multiplies_rates_only() {
        let closed = ArrivalSpec::Closed { depth: 8 }.scaled(3.0);
        assert_eq!(closed, ArrivalSpec::Closed { depth: 8 });
        assert!(!closed.is_open_loop());
        match (ArrivalSpec::Poisson { rate_tps: 100.0 }).scaled(2.5) {
            ArrivalSpec::Poisson { rate_tps } => assert!((rate_tps - 250.0).abs() < 1e-9),
            other => panic!("unexpected {other:?}"),
        }
        match (ArrivalSpec::Bursty {
            base_tps: 10.0,
            burst_tps: 100.0,
            period_ms: 50,
            burst_ms: 10,
        })
        .scaled(2.0)
        {
            ArrivalSpec::Bursty {
                base_tps,
                burst_tps,
                period_ms,
                burst_ms,
            } => {
                assert!((base_tps - 20.0).abs() < 1e-9);
                assert!((burst_tps - 200.0).abs() < 1e-9);
                assert_eq!((period_ms, burst_ms), (50, 10));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn weighted_pick_handles_empty_and_degenerate_mixes() {
        let mut rng = StdRng::seed_from_u64(1);
        let empty: [(f64, u8); 0] = [];
        assert!(pick_weighted(&mut rng, &empty).is_none());

        // All-zero weights fall back to uniform over the items.
        let zeros = [(0.0, 'a'), (0.0, 'b')];
        let mut seen = HashSet::new();
        for _ in 0..200 {
            seen.insert(*pick_weighted(&mut rng, &zeros).unwrap());
        }
        assert_eq!(seen.len(), 2, "uniform fallback must reach every item");

        // Negative weights are treated as zero.
        let mixed = [(-5.0, 'x'), (1.0, 'y')];
        for _ in 0..100 {
            assert_eq!(*pick_weighted(&mut rng, &mixed).unwrap(), 'y');
        }

        // Weights bias the choice.
        let biased = [(0.9, 'h'), (0.1, 't')];
        let heads = (0..1_000)
            .filter(|_| *pick_weighted(&mut rng, &biased).unwrap() == 'h')
            .count();
        assert!((800..=980).contains(&heads), "heads {heads}");
    }
}
