//! The declarative scheduler core loop (the paper's Section 3.3).
//!
//! One scheduling round performs, in order:
//!
//! 1. drain the incoming queue into the pending-request database,
//! 2. evaluate the configured protocol's declarative rule over
//!    `requests` ∪ `history` (∪ auxiliary relations),
//! 3. enforce intra-transaction ordering on the qualified set,
//! 4. order the qualified requests per the protocol's [`crate::rules::OrderingSpec`],
//! 5. delete them from the pending database and insert them into the
//!    history database,
//! 6. hand the ordered batch to the caller (who dispatches it to the server).
//!
//! Steps 1–5 are exactly what the paper times in Section 4.3.2; the
//! per-round wall-clock cost is recorded in [`SchedulerMetrics`], split by
//! phase in [`crate::metrics::RoundPhases`].

use crate::error::SchedResult;
use crate::history::HistoryStore;
use crate::metrics::{RoundPhases, SchedulerMetrics};
use crate::pending::PendingStore;
use crate::protocol::SchedulingPolicy;
use crate::qualify::IncrementalQualifier;
use crate::queue::IncomingQueue;
use crate::request::{Request, RequestKey};
use crate::rules::{datalog_output_key, datalog_output_keys, RuleBackend};
use crate::trigger::TriggerPolicy;
use obs::{FastIdMap, FastIdSet};
use relalg::{Catalog, Symbol, Table, Tuple};
use std::time::Instant;
use txnstore::Statement;

/// Configuration of a [`DeclarativeScheduler`].
#[derive(Debug, Clone)]
pub struct SchedulerConfig {
    /// When to start a scheduling round.
    pub trigger: TriggerPolicy,
    /// Drop history rows of finished transactions after every round.  Keeps
    /// rule-evaluation cost proportional to the number of *active*
    /// transactions; disable to mimic the paper's unbounded history table.
    pub prune_history: bool,
    /// Only dispatch a qualified request if every earlier request of the
    /// same transaction (smaller `INTRATA`) is already scheduled or part of
    /// the same batch.  The paper's example assumes one pending request per
    /// transaction, where this is a no-op; with batched submissions it is
    /// required for correct execution order.
    pub enforce_intra_order: bool,
    /// Evaluate qualification incrementally: built-in protocols go through
    /// the O(delta) [`crate::qualify::IncrementalQualifier`] (driven by the
    /// history store's per-object conflict index and cross-round dirty
    /// tracking), and custom Datalog protocols through the engine-level
    /// [`datalog::IncrementalEvaluation`], which is fed each round's
    /// arrivals, batch and pruned transactions as row deltas and patches
    /// the rule's strata from them — instead of re-evaluating the
    /// declarative rule over the full `requests` ∪ `history` state every
    /// round.  Both paths produce exactly the sets the from-scratch rule
    /// does (enforced by the property suite); disable only to measure the
    /// from-scratch baseline, as the paper's Section 4.3.2 experiment does.
    pub incremental: bool,
    /// Latency bound, in microseconds, on the sharded router's submission
    /// batching: the router accumulates per-shard batches and flushes them
    /// when a batch fills, when the fleet goes idle, or at this interval —
    /// whichever comes first.  `0` disables batching entirely (every
    /// submission is its own channel send, the pre-batching behaviour).
    /// Unsharded backends ignore the knob.
    pub batch_flush_micros: u64,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig {
            trigger: TriggerPolicy::default(),
            prune_history: true,
            enforce_intra_order: true,
            incremental: true,
            batch_flush_micros: 100,
        }
    }
}

/// The result of one scheduling round: the ordered, qualified batch.
#[derive(Debug, Clone)]
pub struct ScheduleBatch {
    /// Round number (1-based).
    pub round: u64,
    /// Qualified requests in dispatch order.
    pub requests: Vec<Request>,
    /// Pending requests before the round (after draining the queue).
    pub pending_before: usize,
    /// Pending requests left after the round.
    pub pending_after: usize,
    /// Wall-clock microseconds spent evaluating the declarative rule.
    pub rule_eval_micros: u64,
    /// Wall-clock microseconds for the whole round.
    pub round_micros: u64,
    /// Name of the protocol that was applied (relevant for adaptive
    /// policies).  Built-in protocol names are static; custom protocol
    /// names are interned once, so no round allocates for this field.
    pub protocol: &'static str,
}

impl ScheduleBatch {
    /// Number of scheduled requests.
    pub fn len(&self) -> usize {
        self.requests.len()
    }

    /// Whether the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.requests.is_empty()
    }
}

/// Reusable per-round buffers.  Every allocation the round loop used to
/// make per call — the drain buffer, the changed-object lists, the
/// qualified-key vector, the intra-order scratch sets and the dispatched
/// batch itself — lives here instead and is cleared, not freed, between
/// rounds.  Batch buffers handed out in [`ScheduleBatch::requests`] come
/// back through [`DeclarativeScheduler::recycle_batch`].
#[derive(Debug, Default)]
struct RoundScratch {
    /// Requests drained from the incoming queue this round — a custom
    /// rule's `requests` delta, and the only candidates for a first
    /// deferral, so bookkeeping touches the arrival delta instead of
    /// rescanning the whole pending backlog every round.
    drained: Vec<Request>,
    /// Objects whose pending/history rows changed (two uses per round).
    changed: Vec<i64>,
    /// Qualified keys produced by rule evaluation.
    keys: Vec<RequestKey>,
    /// Intra-order filter: the qualified set, for O(1) membership.
    qualified_set: FastIdSet<RequestKey>,
    /// Recycled dispatch-batch buffers (fed by `recycle_batch`).
    batch_pool: Vec<Vec<Request>>,
}

/// How many spare batch buffers the scheduler keeps.  A dispatch loop
/// recycles one batch per round, so a tiny pool suffices; the cap only
/// guards against a caller recycling buffers it never got from us.
const BATCH_POOL_CAP: usize = 8;

/// The persistent Datalog evaluation for a custom protocol, plus what ties
/// it to the stores: the round feeds it its own outcome (the batch taken
/// out of `requests` and into `history`, the transactions a prune removed)
/// and the next round its arrivals, so the inputs move by rows in and rows
/// out and the qualified set by the rule's own delta.
#[derive(Debug)]
struct DatalogCache {
    /// Interned name of the protocol the program belongs to (an adaptive
    /// policy may swap custom protocols; a name change rebuilds the cache).
    protocol: &'static str,
    eval: datalog::IncrementalEvaluation,
    /// The output relation as request keys, sorted — kept in step with it
    /// from its delta, read whole only when the evaluation recomputed it.
    qualified: Vec<RequestKey>,
    /// The round that last evaluated the rule (the one whose outcome is fed
    /// back at its end).
    round: u64,
    /// The store generations the fed inputs stand for (`None`: not fed, or
    /// the row counts disagreed after a feed).  The next round expects to
    /// find them unmoved but for its own arrivals; anything else — a purge,
    /// a preload, rounds run under another protocol — means no delta
    /// describes the change and the input is fed whole.
    pending_generation: Option<u64>,
    history_generation: Option<u64>,
    sla_generation: u64,
    aux_generation: u64,
    /// The round's arrivals, then its taken batch, as rows (reused across
    /// rounds).
    batch_rows: Vec<Tuple>,
}

/// Position of `ta` in the `requests` / `history` rows.
const TA_COLUMN: usize = 1;

impl DatalogCache {
    fn fed_rows(&self, predicate: &str) -> usize {
        self.eval
            .database()
            .relation(predicate)
            .map_or(0, |relation| relation.len())
    }

    /// Bring the inputs up to date at the start of a round: `requests`
    /// takes the round's `arrivals` (its drained batch), `history` is in
    /// step already; an input whose store moved otherwise is replaced by
    /// the relation the store builds for the purpose.
    fn feed_round_start(
        &mut self,
        pending: &PendingStore,
        history: &HistoryStore,
        arrivals: &[Request],
    ) -> SchedResult<()> {
        let expected = self
            .pending_generation
            .map(|generation| generation + u64::from(!arrivals.is_empty()));
        let mut in_step = expected == Some(pending.generation());
        if in_step {
            let mut rows = std::mem::take(&mut self.batch_rows);
            rows.clear();
            rows.extend(arrivals.iter().map(Request::to_tuple));
            self.eval
                .extend_input("requests", rows.iter().map(Tuple::values))?;
            self.batch_rows = rows;
            // A superseded duplicate key left the store without a round.
            in_step = self.fed_rows("requests") == pending.len();
        }
        if !in_step {
            let table = pending.table();
            self.eval
                .replace_input("requests", table.rows().iter().map(Tuple::values))?;
        }
        self.pending_generation = Some(pending.generation());
        if self.history_generation != Some(history.generation()) {
            let table = history.table();
            self.eval
                .replace_input("history", table.rows().iter().map(Tuple::values))?;
            self.history_generation = Some(history.generation());
        }
        Ok(())
    }

    /// Feed a round's outcome: the `batch` left `requests` and entered
    /// `history`, except that a prune (`pruned`) has already taken out every
    /// row — fed earlier or in this batch — of the transactions whose
    /// terminal the batch carries.
    fn feed_round_outcome(
        &mut self,
        batch: &[Request],
        pruned: bool,
        pending: &PendingStore,
        history: &HistoryStore,
    ) -> SchedResult<()> {
        let mut rows = std::mem::take(&mut self.batch_rows);
        rows.clear();
        rows.extend(batch.iter().map(Request::to_tuple));
        self.eval
            .retract_input("requests", rows.iter().map(Tuple::values))?;
        let terminals = || batch.iter().filter(|r| pruned && r.op.is_terminal());
        for terminal in terminals() {
            let ta = relalg::Value::Int(terminal.ta as i64);
            self.eval.retract_matching("history", TA_COLUMN, &ta)?;
        }
        let kept = batch
            .iter()
            .zip(&rows)
            .filter(|(r, _)| !terminals().any(|terminal| terminal.ta == r.ta));
        self.eval
            .extend_input("history", kept.map(|(_, row)| row.values()))?;
        self.batch_rows = rows;
        // Cheap cross-check; a mismatch (a preloaded terminal pruned with
        // this batch, say) costs one whole feed next round.
        self.pending_generation =
            (self.fed_rows("requests") == pending.len()).then_some(pending.generation());
        self.history_generation =
            (self.fed_rows("history") == history.len()).then_some(history.generation());
        Ok(())
    }

    /// Bring the sorted key set up to date with the `output` relation after
    /// an evaluation.
    fn refresh_qualified(&mut self, output: &str) -> SchedResult<()> {
        let relation = self.eval.database().relation(output);
        // Beyond arity 2 several rows may share a key: no row-wise upkeep.
        let delta = match relation.and_then(|r| r.arity()) {
            Some(2) => self.eval.derived_delta(output),
            _ => None,
        };
        let Some((inserted, retracted)) = delta else {
            self.qualified.clear();
            return datalog_output_keys(relation, output, self.protocol, &mut self.qualified);
        };
        for row in retracted {
            let key = datalog_output_key(row, self.protocol)?;
            if let Ok(at) = self.qualified.binary_search(&key) {
                self.qualified.remove(at);
            }
        }
        for row in inserted {
            let key = datalog_output_key(row, self.protocol)?;
            if let Err(at) = self.qualified.binary_search(&key) {
                self.qualified.insert(at, key);
            }
        }
        Ok(())
    }
}

/// The declarative middleware scheduler.
#[derive(Debug)]
pub struct DeclarativeScheduler {
    policy: SchedulingPolicy,
    config: SchedulerConfig,
    queue: IncomingQueue,
    pending: PendingStore,
    history: HistoryStore,
    aux: Vec<Table>,
    metrics: SchedulerMetrics,
    sla_rows: FastIdMap<u64, Request>,
    /// The derived `sla` relation, maintained incrementally: appended on
    /// first sight of a transaction's SLA, fully rebuilt only when existing
    /// metadata is overwritten.
    sla_table: Table,
    sla_rebuild: bool,
    /// Generation counters for the relations that are not stores of their
    /// own (bumped on every effective change).
    sla_generation: u64,
    aux_generation: u64,
    /// The incremental qualification engine for built-in protocols.
    qualifier: IncrementalQualifier,
    /// The persistent Datalog evaluation for custom Datalog protocols.
    datalog_cache: Option<DatalogCache>,
    /// State fingerprint `[pending, history, aux, sla]` recorded after a
    /// round that changed nothing (empty batch, no prune) — while it still
    /// matches, `tick` skips re-deriving the provably identical result.
    noop_fingerprint: Option<[u64; 4]>,
    /// Pending keys already counted in `requests_deferred` (bounded by the
    /// pending set: entries leave when their request is scheduled).
    deferred_seen: FastIdSet<RequestKey>,
    /// Reusable round buffers (see [`RoundScratch`]).
    scratch: RoundScratch,
    next_request_id: u64,
    round: u64,
}

impl DeclarativeScheduler {
    /// Create a scheduler with the given policy and configuration.
    pub fn new(policy: impl Into<SchedulingPolicy>, config: SchedulerConfig) -> Self {
        DeclarativeScheduler {
            policy: policy.into(),
            config,
            queue: IncomingQueue::new(),
            pending: PendingStore::new(),
            history: HistoryStore::new(),
            aux: Vec::new(),
            metrics: SchedulerMetrics::new(),
            sla_rows: FastIdMap::default(),
            sla_table: Table::new("sla", Request::sla_schema()),
            sla_rebuild: false,
            sla_generation: 0,
            aux_generation: 0,
            qualifier: IncrementalQualifier::new(),
            datalog_cache: None,
            noop_fingerprint: None,
            deferred_seen: FastIdSet::default(),
            scratch: RoundScratch::default(),
            next_request_id: 0,
            round: 0,
        }
    }

    /// Register an auxiliary relation (e.g. `object_class`) that protocol
    /// rules may join against.
    pub fn register_aux_relation(&mut self, table: Table) {
        self.aux.push(table);
        self.aux_generation += 1;
        self.qualifier.note_aux_changed();
    }

    /// Submit a fully formed request (the id is assigned by the scheduler).
    pub fn submit(&mut self, mut request: Request, now_ms: u64) -> u64 {
        self.next_request_id += 1;
        request.id = self.next_request_id;
        if request.sla.is_some() {
            match self.sla_rows.insert(request.ta, request) {
                None => {
                    if let Some(tuple) = request.to_sla_tuple() {
                        self.sla_table
                            .push(tuple)
                            .expect("sla tuples always match the sla schema");
                    }
                    self.sla_generation += 1;
                }
                Some(old) => {
                    if old.sla != request.sla {
                        self.sla_rebuild = true;
                        self.sla_generation += 1;
                    }
                }
            }
        }
        self.queue.push(request, now_ms);
        self.metrics.requests_submitted += 1;
        self.next_request_id
    }

    /// Submit a [`txnstore::Statement`] as a request.
    pub fn submit_statement(&mut self, stmt: &Statement, now_ms: u64) -> u64 {
        self.next_request_id += 1;
        let request = Request::from_statement(self.next_request_id, stmt);
        self.queue.push(request, now_ms);
        self.metrics.requests_submitted += 1;
        self.next_request_id
    }

    /// Number of requests waiting in the incoming queue.
    pub fn queued(&self) -> usize {
        self.queue.len()
    }

    /// Number of requests in the pending-request database.
    pub fn pending(&self) -> usize {
        self.pending.len()
    }

    /// Number of rows currently in the history database.
    pub fn history_len(&self) -> usize {
        self.history.len()
    }

    /// The current `history` relation (rows of unpruned scheduled requests,
    /// in insertion order), built on request: O(history).  A custom rule's
    /// cross-shard escalation snapshots this from every touched shard and
    /// evaluates the rule over the union.
    pub fn history_table(&self) -> Table {
        self.history.table()
    }

    /// The current `requests` (pending) relation, in arrival order, built
    /// on request: O(pending).
    pub fn pending_table(&self) -> Table {
        self.pending.table()
    }

    /// Requests buffered in the incoming queue (submitted but not yet
    /// drained into the pending relation), in arrival order.
    pub fn queued_requests(&self) -> Vec<&Request> {
        self.queue.requests().collect()
    }

    /// Whether transaction `ta` still has un-admitted requests on this
    /// scheduler — buffered in the incoming queue or sitting in the pending
    /// relation.  The escalation lane's prepare phase uses this to defer a
    /// cross-shard transaction until its own earlier fast-path submissions
    /// have been admitted, preserving intra-transaction order.
    pub fn transaction_pending(&self, ta: u64) -> bool {
        self.pending.min_pending_intra(ta).is_some() || self.queue.requests().any(|r| r.ta == ta)
    }

    /// Whether an escalated transaction's local `slice` (its data requests
    /// homed here) is admitted in full by the built-in rule of `kind`
    /// against this scheduler's *live* history — the shard's vote in the
    /// two-phase escalation handshake.
    ///
    /// The slice is judged by the same per-object machinery a regular
    /// round uses, as if it were the only pending work; no scheduling
    /// state changes.  Because every built-in rule evaluates per object and each
    /// object lives on exactly one shard, the conjunction of these
    /// shard-local verdicts equals a union-snapshot evaluation — that
    /// equivalence is what lets the handshake hold only the touched shards.
    pub fn escalated_slice_admitted(
        &mut self,
        kind: crate::protocol::ProtocolKind,
        slice: &[Request],
    ) -> bool {
        self.qualifier
            .slice_admitted(kind, slice, &self.history, &self.aux)
    }

    /// Whether `object` is completely idle on this scheduler: no queued
    /// request targets it, no pending request targets it, and no unfinished
    /// transaction holds a lock on it.  This is the quiescence condition a
    /// placement migration requires before an object may leave this shard —
    /// answered from the incremental indexes, not a relation scan.
    pub fn object_idle(&self, object: i64) -> bool {
        self.pending.rows_on_object(object).is_empty()
            && !self.history.lock_index().locked(object)
            && !self
                .queue
                .requests()
                .any(|r| r.op.is_data() && r.object == object)
    }

    /// Accumulated metrics.
    pub fn metrics(&self) -> SchedulerMetrics {
        self.metrics
    }

    /// The label of the configured scheduling policy.
    pub fn policy_label(&self) -> String {
        self.policy.label()
    }

    /// Insert requests straight into the history database, bypassing
    /// qualification.  This models requests that were already executed before
    /// the scheduler took over — the paper's Section 4.3 experiment pre-fills
    /// the history table with half of the workload's requests exactly this
    /// way.
    pub fn preload_history(&mut self, requests: &[Request]) -> SchedResult<()> {
        let mut changed = std::mem::take(&mut self.scratch.changed);
        for request in requests {
            self.next_request_id += 1;
            let mut r = *request;
            r.id = self.next_request_id;
            changed.clear();
            self.history.insert_into(&r, &mut changed);
            self.qualifier.note_history_changed(&changed);
        }
        changed.clear();
        self.scratch.changed = changed;
        Ok(())
    }

    /// The generation fingerprint of everything qualification depends on.
    fn state_fingerprint(&self) -> [u64; 4] {
        [
            self.pending.generation(),
            self.history.generation(),
            self.aux_generation,
            self.sla_generation,
        ]
    }

    /// Run a round if the trigger condition holds at `now_ms`.
    ///
    /// While `pending` is non-empty a poll used to run a full round — rule
    /// re-evaluation included — even when nothing changed since the last
    /// round, so a blocked request made every idle poll O(state).  A round
    /// that produced an empty batch records the state fingerprint it
    /// evaluated; as long as no arrival, history change, SLA or aux update
    /// has moved the fingerprint, the rule would provably re-derive the
    /// same empty result and the poll is skipped
    /// ([`SchedulerMetrics::rounds_skipped`] counts these).
    pub fn tick(&mut self, now_ms: u64) -> SchedResult<Option<ScheduleBatch>> {
        if !self.config.trigger.should_fire(&self.queue, now_ms) && self.pending.is_empty() {
            return Ok(None);
        }
        if self.queue.is_empty() && self.pending.is_empty() {
            return Ok(None);
        }
        if self.queue.is_empty() && self.noop_fingerprint == Some(self.state_fingerprint()) {
            self.metrics.rounds_skipped += 1;
            return Ok(None);
        }
        self.run_round(now_ms).map(Some)
    }

    /// Run one scheduling round unconditionally.
    pub fn run_round(&mut self, now_ms: u64) -> SchedResult<ScheduleBatch> {
        let round_start = Instant::now();
        let mut mark = round_start;
        self.round += 1;

        // 1. Drain the incoming queue into the pending database.  Both
        //    buffers are round scratch: cleared, never freed.
        let mut drained = std::mem::take(&mut self.scratch.drained);
        let mut changed = std::mem::take(&mut self.scratch.changed);
        drained.clear();
        changed.clear();
        self.queue.drain_into(now_ms, &mut drained);
        self.pending.insert_batch_into(&drained, &mut changed);
        self.qualifier.note_pending_changed(&changed);
        let pending_before = self.pending.len();
        let drain_insert_nanos = lap(&mut mark);

        // 2. Evaluate the declarative rule.  Both paths borrow the selected
        //    protocol: the hot (built-in incremental) one extracts the
        //    `Copy` facts it needs — kind, ordering, the interned name —
        //    and the cold ones (custom rules, from-scratch evaluation)
        //    select it again where they use it.
        let selected = self.policy.select(pending_before);
        let kind = selected.kind;
        let ordering = selected.rules.ordering;
        let protocol_name: &'static str = if selected.name() == kind.name() {
            kind.name()
        } else {
            Symbol::intern(selected.name()).as_str()
        };
        let hot_path = self.config.incremental && IncrementalQualifier::supports(kind);
        if let SchedulingPolicy::Adaptive(a) = &self.policy {
            if a.is_overloaded(pending_before) {
                self.metrics.overload_rounds += 1;
            }
        }
        let mut keys = std::mem::take(&mut self.scratch.keys);
        keys.clear();
        let cold_rule_eval_micros = if hot_path {
            self.qualifier
                .qualify_into(kind, &self.pending, &self.history, &self.aux, &mut keys);
            self.metrics.incremental_rounds += 1;
            self.metrics.delta_rows += self.qualifier.last_delta_rows();
            None
        } else {
            Some(self.qualify_cold(pending_before, protocol_name, &drained, &mut keys)?)
        };
        let qualify_nanos = lap(&mut mark);
        // The built-in qualifier is all of the qualify phase; the cold paths
        // report their rule evaluation proper.
        let mut rule_eval_micros = cold_rule_eval_micros.unwrap_or(qualify_nanos / 1_000);

        // 3. Enforce intra-transaction ordering.
        if self.config.enforce_intra_order {
            self.filter_intra_order(&mut keys);
        }
        let intra_filter_nanos = lap(&mut mark);

        // 4. Recover the full requests and order them.  The batch buffer is
        //    pooled: it leaves with the `ScheduleBatch` and comes back via
        //    `recycle_batch`.
        let mut batch = self.scratch.batch_pool.pop().unwrap_or_default();
        batch.clear();
        self.pending.take_into(&keys, &mut batch);
        keys.clear();
        self.scratch.keys = keys;
        self.qualifier.note_taken(&batch);
        ordering.sort(&mut batch);
        let take_sort_nanos = lap(&mut mark);

        // 5. Record them in the history database.
        changed.clear();
        self.history.insert_batch_into(batch.iter(), &mut changed);
        self.qualifier.note_history_changed(&changed);
        changed.clear();
        self.scratch.changed = changed;
        let history_insert_nanos = lap(&mut mark);
        let pruned = if self.config.prune_history {
            self.history.prune_finished()
        } else {
            0
        };
        let prune_nanos = lap(&mut mark);
        // A custom Datalog rule is told what its round did, as rows — part
        // of what evaluating it costs.
        let mut custom_feed_nanos = 0;
        if let Some(cache) = self
            .datalog_cache
            .as_mut()
            .filter(|c| c.round == self.round)
        {
            cache.feed_round_outcome(&batch, pruned > 0, &self.pending, &self.history)?;
            custom_feed_nanos = lap(&mut mark);
            rule_eval_micros += custom_feed_nanos / 1_000;
        }

        let pending_after = self.pending.len();
        let round_micros = (mark - round_start).as_micros() as u64;
        self.metrics.phases.merge(&RoundPhases {
            drain_insert_nanos,
            qualify_nanos,
            intra_filter_nanos,
            take_sort_nanos,
            history_insert_nanos,
            prune_nanos,
            custom_feed_nanos,
        });

        // Bookkeeping.  Deferral is counted two ways: `requests_deferred`
        // counts each request once, the first time it survives a round
        // unqualified; `deferred_request_rounds` accumulates the waiting
        // request-rounds (the quantity the old `requests_deferred`
        // conflated with a deferral count).  Only this round's arrivals can
        // be *newly* deferred — everything older is already in
        // `deferred_seen` from its own arrival round — so the scan covers
        // the drained requests, not the whole pending backlog.
        for request in &batch {
            self.deferred_seen.remove(&request.key());
        }
        let mut newly_deferred = 0u64;
        for request in &drained {
            let key = request.key();
            if self.pending.get(key).is_some() && self.deferred_seen.insert(key) {
                newly_deferred += 1;
            }
        }
        drained.clear();
        self.scratch.drained = drained;
        self.metrics.rounds += 1;
        self.metrics.requests_scheduled += batch.len() as u64;
        self.metrics.requests_deferred += newly_deferred;
        self.metrics.deferred_request_rounds += pending_after as u64;
        self.metrics.rule_eval_micros += rule_eval_micros;
        self.metrics.round_micros += round_micros;
        self.metrics.max_batch = self.metrics.max_batch.max(batch.len() as u64);

        // An empty batch with no pruning changed nothing: until the
        // fingerprint moves, `tick` may skip re-evaluating this state.
        self.noop_fingerprint = if batch.is_empty() && pruned == 0 {
            Some(self.state_fingerprint())
        } else {
            None
        };

        Ok(ScheduleBatch {
            round: self.round,
            requests: batch,
            pending_before,
            pending_after,
            rule_eval_micros,
            round_micros,
            protocol: protocol_name,
        })
    }

    /// Return a dispatched batch's buffer to the round pool.  Dispatch
    /// loops call this after executing a [`ScheduleBatch`] so the next
    /// round reuses the allocation instead of growing a fresh `Vec`.
    /// Contents are cleared here; excess buffers beyond the pool cap are
    /// simply dropped.
    pub fn recycle_batch(&mut self, mut requests: Vec<Request>) {
        requests.clear();
        if self.scratch.batch_pool.len() < BATCH_POOL_CAP {
            self.scratch.batch_pool.push(requests);
        }
    }

    /// Discard every request that has not been scheduled yet — the queued
    /// *and* the pending set — without executing anything.  Returns how
    /// many requests were dropped.
    ///
    /// This is the state-side half of a worker kill (the chaos engine's
    /// `Fault::Kill`): the owning loop has already failed its waiting
    /// clients, so the un-admitted requests must never qualify later.
    /// History is left untouched — locks held by already-admitted
    /// transactions stay visible to post-mortem inspection, and a killed
    /// worker schedules nothing afterwards anyway.
    pub fn purge_unscheduled(&mut self, now_ms: u64) -> usize {
        let drained = self.queue.drain(now_ms).len();
        let keys: Vec<RequestKey> = self.pending.keys().collect();
        let taken = self.pending.take(&keys);
        self.qualifier.note_taken(&taken);
        self.deferred_seen.clear();
        self.noop_fingerprint = None;
        drained + taken.len()
    }

    /// Evaluate the round's qualification rule over the current state on
    /// the *cold* paths — the persistent Datalog evaluation for custom
    /// Datalog rules, or a from-scratch evaluation over a freshly built
    /// catalog — appending the qualified keys to `keys`.  (The hot built-in
    /// incremental path lives inline in [`DeclarativeScheduler::run_round`].)
    /// Returns the microseconds spent on rule evaluation proper — catalog
    /// assembly is accounted separately in
    /// [`SchedulerMetrics::catalog_build_micros`], never in
    /// `rule_eval_micros`, preserving the paper's Section 4.3 metric.
    fn qualify_cold(
        &mut self,
        pending_before: usize,
        protocol_name: &'static str,
        arrivals: &[Request],
        keys: &mut Vec<RequestKey>,
    ) -> SchedResult<u64> {
        let backend = &self.policy.select(pending_before).rules.backend;
        if self.config.incremental && matches!(backend, RuleBackend::Datalog { .. }) {
            let rule_start = Instant::now();
            self.qualify_custom_datalog(pending_before, protocol_name, arrivals, keys)?;
            self.metrics.incremental_rounds += 1;
            return Ok(rule_start.elapsed().as_micros() as u64);
        }
        let catalog_start = Instant::now();
        let catalog = self.build_catalog();
        self.metrics.catalog_build_micros += catalog_start.elapsed().as_micros() as u64;
        let rule_start = Instant::now();
        let protocol = self.policy.select(pending_before);
        keys.extend(protocol.rules.qualify(&catalog)?);
        Ok(rule_start.elapsed().as_micros() as u64)
    }

    /// Qualification for custom Datalog protocols via the engine-level
    /// persistent evaluation: the program is compiled once, the fixpoint
    /// and the input relations survive across rounds, and the inputs are
    /// fed as deltas —
    ///
    /// * `requests`: this round's `arrivals` (its drained batch) come in
    ///   here; the batch a round takes goes out at that round's end (see
    ///   [`DatalogCache::feed_round_outcome`]);
    /// * `history`: the same batch comes in at the round's end, and after a
    ///   prune the rows of the transactions whose terminal it carried go
    ///   out, found by an index probe on `ta`;
    /// * `sla` and auxiliary relations are small and replaced when their
    ///   generation moves.
    ///
    /// The evaluation pushes those rows through the rule's strata
    /// ([`datalog::IncrementalEvaluation`]) and the qualified keys follow
    /// the output relation's own delta.  The input rows consumed (arrivals,
    /// scheduled, pruned: O(delta) per round) are counted in
    /// [`SchedulerMetrics::delta_rows`], the strata patched and recomputed in
    /// [`SchedulerMetrics::strata_maintained`] and
    /// [`SchedulerMetrics::strata_recomputed`].  If a store changed in a way
    /// no delta describes, that input is fed whole once (see
    /// [`DatalogCache`]).
    fn qualify_custom_datalog(
        &mut self,
        pending_before: usize,
        name: &'static str,
        arrivals: &[Request],
        keys: &mut Vec<RequestKey>,
    ) -> SchedResult<()> {
        self.refresh_sla_table();
        let DeclarativeScheduler {
            policy,
            pending,
            history,
            aux,
            metrics,
            sla_table,
            sla_generation,
            aux_generation,
            datalog_cache,
            round,
            ..
        } = self;
        let RuleBackend::Datalog { program, output } = &policy.select(pending_before).rules.backend
        else {
            unreachable!("the caller checked the backend")
        };
        if datalog_cache.as_ref().is_none_or(|c| c.protocol != name) {
            *datalog_cache = Some(DatalogCache {
                protocol: name,
                eval: datalog::IncrementalEvaluation::new(program)?,
                qualified: Vec::new(),
                round: 0,
                pending_generation: None,
                history_generation: None,
                sla_generation: u64::MAX,
                aux_generation: u64::MAX,
                batch_rows: Vec::new(),
            });
        }
        let cache = datalog_cache
            .as_mut()
            .expect("cache was just ensured above");
        cache.round = *round;

        cache.feed_round_start(pending, history, arrivals)?;
        if cache.sla_generation != *sla_generation {
            cache
                .eval
                .replace_input("sla", sla_table.rows().iter().map(Tuple::values))?;
            cache.sla_generation = *sla_generation;
        }
        if cache.aux_generation != *aux_generation {
            for table in aux.iter() {
                cache
                    .eval
                    .replace_input(table.name(), table.rows().iter().map(Tuple::values))?;
            }
            cache.aux_generation = *aux_generation;
        }

        cache.eval.evaluate();
        let stats = cache.eval.last_stats();
        metrics.delta_rows += stats.delta_rows_in as u64;
        metrics.strata_maintained += stats.maintained as u64;
        metrics.strata_recomputed += stats.recomputed as u64;
        cache.refresh_qualified(output)?;
        keys.extend_from_slice(&cache.qualified);
        Ok(())
    }

    /// Rebuild the cached `sla` relation if overwritten metadata made the
    /// append-only copy stale.
    fn refresh_sla_table(&mut self) {
        if !self.sla_rebuild {
            return;
        }
        let mut sla = Table::new("sla", Request::sla_schema());
        for request in self.sla_rows.values() {
            if let Some(tuple) = request.to_sla_tuple() {
                sla.push(tuple)
                    .expect("sla tuples always match the sla schema");
            }
        }
        self.sla_table = sla;
        self.sla_rebuild = false;
    }

    /// Build the relational catalog the rule is evaluated against:
    /// `requests` and `history`, built from the stores for this evaluation,
    /// the `sla` relation derived from request metadata, and any registered
    /// auxiliary relations.  The last two are zero-copy snapshots ([`Table`]
    /// clones share row storage), and the `sla` relation is maintained
    /// across rounds rather than re-derived.
    fn build_catalog(&mut self) -> Catalog {
        self.refresh_sla_table();
        let mut catalog = Catalog::new();
        catalog.register(self.pending.table());
        catalog.register(self.history.table());
        catalog.register(self.sla_table.clone());
        for table in &self.aux {
            catalog.replace(table.clone());
        }
        catalog
    }

    /// Keep only qualified keys whose earlier same-transaction requests are
    /// either no longer pending or also qualified.  Filters in place using
    /// the round scratch set, asking the pending store for each qualified
    /// transaction's earliest pending step — O(qualified keys), independent
    /// of how large the deferred backlog has grown.
    fn filter_intra_order(&mut self, keys: &mut Vec<RequestKey>) {
        self.scratch.qualified_set.clear();
        self.scratch.qualified_set.extend(keys.iter().copied());
        let qualified = &self.scratch.qualified_set;
        let pending = &self.pending;
        keys.retain(|key| {
            let Some(first) = pending.min_pending_intra(key.ta) else {
                return false;
            };
            // Every pending request of this transaction between the first
            // pending one and this one must be qualified too.
            (first..key.intra).all(|intra| {
                let probe = RequestKey { ta: key.ta, intra };
                pending.get(probe).is_none() || qualified.contains(&probe)
            })
        });
    }
}

/// Nanoseconds from `mark` to now, moving `mark` to now: one clock read per
/// round-phase boundary.
fn lap(mark: &mut Instant) -> u64 {
    let now = Instant::now();
    let nanos = (now - *mark).as_nanos() as u64;
    *mark = now;
    nanos
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{Backend, Protocol, ProtocolKind};

    fn scheduler(kind: ProtocolKind) -> DeclarativeScheduler {
        DeclarativeScheduler::new(
            Protocol::new(kind, Backend::Algebra),
            SchedulerConfig {
                trigger: TriggerPolicy::Always,
                ..SchedulerConfig::default()
            },
        )
    }

    #[test]
    fn round_moves_qualified_requests_to_history() {
        let mut s = scheduler(ProtocolKind::Ss2pl);
        s.submit(Request::read(0, 1, 0, 10), 0);
        s.submit(Request::write(0, 2, 0, 11), 0);
        let batch = s.run_round(1).unwrap();
        assert_eq!(batch.len(), 2);
        assert_eq!(batch.pending_before, 2);
        assert_eq!(batch.pending_after, 0);
        assert_eq!(s.history_len(), 2);
        assert_eq!(s.pending(), 0);
        assert_eq!(s.metrics().rounds, 1);
        assert_eq!(s.metrics().requests_scheduled, 2);
        assert_eq!(batch.protocol, "ss2pl");
    }

    #[test]
    fn conflicting_request_stays_pending_until_lock_released() {
        let mut s = scheduler(ProtocolKind::Ss2pl);
        // Round 1: T1 writes object 5.
        s.submit(Request::write(0, 1, 0, 5), 0);
        let b1 = s.run_round(0).unwrap();
        assert_eq!(b1.len(), 1);
        // Round 2: T2 wants the same object — deferred.
        s.submit(Request::read(0, 2, 0, 5), 1);
        let b2 = s.run_round(1).unwrap();
        assert!(b2.is_empty());
        assert_eq!(s.pending(), 1);
        // Round 3: T1 commits, which releases the lock …
        s.submit(Request::commit(0, 1, 1), 2);
        let b3 = s.run_round(2).unwrap();
        // The commit qualifies; T2 may or may not qualify in the same round
        // depending on pruning, so run one more round.
        assert!(b3.requests.iter().any(|r| r.ta == 1));
        let b4 = s.run_round(3).unwrap();
        let scheduled: Vec<u64> = b3
            .requests
            .iter()
            .chain(b4.requests.iter())
            .map(|r| r.ta)
            .collect();
        assert!(scheduled.contains(&2), "T2 must eventually be scheduled");
        assert_eq!(s.pending(), 0);
    }

    #[test]
    fn intra_order_is_enforced_for_batched_submissions() {
        let mut s = scheduler(ProtocolKind::Ss2pl);
        // T1 submits a write on a free object plus its commit in one batch;
        // T2 submits a conflicting write first so T1's write is deferred.
        s.submit(Request::write(0, 1, 0, 7), 0);
        s.run_round(0).unwrap();
        // Now T2's write conflicts, but its commit would trivially qualify.
        s.submit(Request::write(0, 2, 0, 7), 1);
        s.submit(Request::commit(0, 2, 1), 1);
        let batch = s.run_round(1).unwrap();
        // Neither of T2's requests may run: the write is blocked and the
        // commit must wait for the write.
        assert!(batch.is_empty(), "got {:?}", batch.requests);
        assert_eq!(s.pending(), 2);
    }

    #[test]
    fn fcfs_schedules_everything_in_submission_order() {
        let mut s = scheduler(ProtocolKind::Fcfs);
        for i in 0..5u64 {
            s.submit(Request::write(0, i + 1, 0, 3), 0);
        }
        let batch = s.run_round(0).unwrap();
        assert_eq!(batch.len(), 5);
        let ids: Vec<u64> = batch.requests.iter().map(|r| r.id).collect();
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        assert_eq!(ids, sorted);
    }

    #[test]
    fn tick_respects_the_trigger() {
        let mut s = DeclarativeScheduler::new(
            Protocol::algebra(ProtocolKind::Ss2pl),
            SchedulerConfig {
                trigger: TriggerPolicy::FillLevel { threshold: 3 },
                ..SchedulerConfig::default()
            },
        );
        s.submit(Request::read(0, 1, 0, 1), 0);
        assert!(s.tick(0).unwrap().is_none());
        s.submit(Request::read(0, 2, 0, 2), 0);
        assert!(s.tick(0).unwrap().is_none());
        s.submit(Request::read(0, 3, 0, 3), 0);
        let batch = s.tick(0).unwrap().expect("fill level reached");
        assert_eq!(batch.len(), 3);
        // Nothing left: tick is a no-op again.
        assert!(s.tick(100).unwrap().is_none());
    }

    #[test]
    fn adaptive_policy_switches_and_counts_overload_rounds() {
        use crate::protocol::AdaptiveProtocol;
        let mut s = DeclarativeScheduler::new(
            AdaptiveProtocol::ss2pl_with_relaxed_overflow(Backend::Algebra, 3),
            SchedulerConfig {
                trigger: TriggerPolicy::Always,
                ..SchedulerConfig::default()
            },
        );
        // Low load: strict protocol blocks the conflicting read.
        s.submit(Request::write(0, 1, 0, 5), 0);
        s.run_round(0).unwrap();
        s.submit(Request::read(0, 2, 0, 5), 1);
        let low = s.run_round(1).unwrap();
        assert_eq!(low.protocol, "ss2pl");
        assert!(low.is_empty());
        // High load (>= 3 pending): relaxed protocol admits reads despite the
        // write lock.
        s.submit(Request::read(0, 3, 0, 5), 2);
        s.submit(Request::read(0, 4, 0, 5), 2);
        let high = s.run_round(2).unwrap();
        assert_eq!(high.protocol, "relaxed-reads");
        assert_eq!(high.len(), 3);
        assert_eq!(s.metrics().overload_rounds, 1);
        assert!(s.policy_label().contains("adaptive"));
    }

    #[test]
    fn metrics_track_round_costs() {
        let mut s = scheduler(ProtocolKind::Ss2pl);
        for i in 0..20u64 {
            s.submit(Request::write(0, i + 1, 0, i as i64), 0);
        }
        s.run_round(0).unwrap();
        let m = s.metrics();
        assert_eq!(m.rounds, 1);
        assert_eq!(m.requests_scheduled, 20);
        assert_eq!(m.max_batch, 20);
        assert!(m.avg_batch_size() > 0.0);
        // Timings are measured (they may legitimately be zero microseconds on
        // a fast machine, so only check they are consistent).
        assert!(m.round_micros >= m.rule_eval_micros);
    }

    /// Built-in rounds read the stores' indexes, never their relational
    /// view: a 2 000-request contended SS2PL stream (pruned, as by default)
    /// builds neither `requests` nor `history`.
    #[test]
    fn a_contended_builtin_stream_builds_no_relation() {
        const TRANSACTIONS: u64 = 400; // × 5 = 2 000 requests
        let built = || crate::request::RELATIONS_BUILT.with(std::cell::Cell::get);
        let before = built();
        let mut s = scheduler(ProtocolKind::Ss2pl);
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut object = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            // Skewed over eight hot objects.
            (((state >> 33) % 8) * ((state >> 43) % 8) / 8) as i64
        };
        let (mut next_ta, mut in_flight, mut committed, mut round) = (1u64, 0, 0, 0u64);
        while committed < TRANSACTIONS {
            while in_flight < 12 && next_ta <= TRANSACTIONS {
                for intra in 0..5u32 {
                    let request = match intra {
                        0 | 1 => Request::read(0, next_ta, intra, object()),
                        2 | 3 => Request::write(0, next_ta, intra, object()),
                        _ => Request::commit(0, next_ta, intra),
                    };
                    s.submit(request, round);
                }
                next_ta += 1;
                in_flight += 1;
            }
            let batch = s.run_round(round).unwrap();
            let finished = batch.requests.iter().filter(|r| r.op.is_terminal()).count();
            in_flight -= finished;
            committed += finished as u64;
            s.recycle_batch(batch.requests);
            round += 1;
            assert!(round < 20_000, "the stream must drain");
        }
        assert_eq!(s.metrics().requests_scheduled, TRANSACTIONS * 5);
        assert!(s.metrics().requests_deferred > 0, "the stream contended");
        assert_eq!(built(), before, "a built-in round built a relation");
        // The counter does see the cold consumers.
        let _ = s.pending_table();
        let _ = s.history_table();
        assert_eq!(built(), before + 2);
    }

    #[test]
    fn tick_skips_rounds_while_nothing_changed() {
        let mut s = scheduler(ProtocolKind::Ss2pl);
        // T1 write-locks object 5; T2's read then stays blocked.
        s.submit(Request::write(0, 1, 0, 5), 0);
        s.run_round(0).unwrap();
        s.submit(Request::read(0, 2, 0, 5), 1);
        let blocked_round = s.run_round(1).unwrap();
        assert!(blocked_round.is_empty());
        assert_eq!(s.pending(), 1);

        // Polling with no arrivals used to re-run the rule every time.
        for now in 2..10 {
            assert!(s.tick(now).unwrap().is_none());
        }
        assert_eq!(s.metrics().rounds_skipped, 8);
        assert_eq!(s.metrics().rounds, 2, "no extra rounds ran");

        // A new arrival moves the fingerprint: the next tick really runs,
        // and T1's commit releases the lock for T2 on the following round.
        s.submit(Request::commit(0, 1, 1), 10);
        let commit_round = s.tick(10).unwrap().expect("arrival must run a round");
        assert_eq!(commit_round.len(), 1);
        let release_round = s.tick(11).unwrap().expect("history changed");
        assert_eq!(release_round.requests[0].ta, 2);
        assert!(s.tick(12).unwrap().is_none());
    }

    #[test]
    fn deferral_metrics_count_requests_once_and_rounds_cumulatively() {
        let mut s = scheduler(ProtocolKind::Ss2pl);
        s.submit(Request::write(0, 1, 0, 5), 0);
        s.run_round(0).unwrap();
        // T2 waits three rounds for the lock.
        s.submit(Request::read(0, 2, 0, 5), 1);
        s.run_round(1).unwrap();
        s.run_round(2).unwrap();
        s.run_round(3).unwrap();
        let m = s.metrics();
        assert_eq!(
            m.requests_deferred, 1,
            "one request deferred, however long it waited"
        );
        assert_eq!(m.deferred_request_rounds, 3, "it waited three rounds");
        // Once scheduled, it is not re-counted.
        s.submit(Request::commit(0, 1, 1), 4);
        s.run_round(4).unwrap();
        s.run_round(5).unwrap();
        let m = s.metrics();
        assert_eq!(m.requests_deferred, 1);
        assert_eq!(s.pending(), 0);
    }

    #[test]
    fn incremental_rounds_and_delta_rows_are_recorded() {
        let mut s = scheduler(ProtocolKind::Ss2pl);
        s.submit(Request::write(0, 1, 0, 5), 0);
        s.run_round(0).unwrap();
        let m = s.metrics();
        assert_eq!(m.incremental_rounds, 1);
        assert_eq!(m.delta_rows, 1);
        assert_eq!(m.catalog_build_micros, 0, "no catalog was assembled");

        // The from-scratch configuration records catalog assembly instead.
        let mut scratch = DeclarativeScheduler::new(
            Protocol::algebra(ProtocolKind::Ss2pl),
            SchedulerConfig {
                trigger: TriggerPolicy::Always,
                incremental: false,
                ..SchedulerConfig::default()
            },
        );
        scratch.submit(Request::write(0, 1, 0, 5), 0);
        scratch.run_round(0).unwrap();
        assert_eq!(scratch.metrics().incremental_rounds, 0);
    }

    #[test]
    fn transaction_pending_sees_the_pending_and_the_queued_half() {
        let mut s = scheduler(ProtocolKind::Ss2pl);
        s.submit(Request::write(0, 1, 0, 5), 0);
        s.run_round(0).unwrap();
        assert!(!s.transaction_pending(1), "scheduled, nothing left");
        assert!(!s.transaction_pending(2), "never seen");

        // Queued only: submitted, not yet drained by a round.
        s.submit(Request::read(0, 2, 0, 5), 1);
        assert_eq!((s.queued(), s.pending()), (1, 0));
        assert!(s.transaction_pending(2));

        // Pending only: drained, but blocked behind T1's write lock.
        assert!(s.run_round(1).unwrap().is_empty());
        assert_eq!((s.queued(), s.pending()), (0, 1));
        assert!(s.transaction_pending(2));
        assert!(!s.transaction_pending(1));

        // Released and scheduled: gone from both.
        s.submit(Request::commit(0, 1, 1), 2);
        s.run_round(2).unwrap();
        s.run_round(3).unwrap();
        assert!(!s.transaction_pending(2));
    }

    fn custom_ss2pl(prune_history: bool) -> DeclarativeScheduler {
        use crate::rules::{OrderingSpec, RuleBackend, RuleSet};
        let rules = RuleSet::new(
            "custom-ss2pl",
            RuleBackend::Datalog {
                program: datalog::parse_program(crate::protocol::SS2PL_DATALOG_SOURCE)
                    .expect("embedded SS2PL program parses"),
                output: "qualified".into(),
            },
            OrderingSpec::FifoById,
        );
        DeclarativeScheduler::new(
            Protocol::custom(rules, "SS2PL supplied as a Datalog program"),
            SchedulerConfig {
                trigger: TriggerPolicy::Always,
                prune_history,
                ..SchedulerConfig::default()
            },
        )
    }

    #[test]
    fn custom_rule_rounds_feed_deltas_and_count_them() {
        let mut s = custom_ss2pl(true);
        let fed = |s: &DeclarativeScheduler, before: u64| s.metrics().delta_rows - before;

        // Round 1: T1 and T2 write objects 5 and 6 — two arrivals.
        s.submit(Request::write(0, 1, 0, 5), 0);
        s.submit(Request::write(0, 2, 0, 6), 0);
        assert_eq!(s.run_round(0).unwrap().len(), 2);
        assert_eq!(fed(&s, 0), 2);
        let recomputed_by_round_one = s.metrics().strata_recomputed;
        assert!(recomputed_by_round_one > 0);
        assert_eq!(s.metrics().strata_maintained, 0);

        // Round 2: both leave `requests` and enter `history` (2 + 2), T3's
        // read of object 5 arrives (1) and is blocked.
        let mark = s.metrics().delta_rows;
        s.submit(Request::read(0, 3, 0, 5), 1);
        assert!(s.run_round(1).unwrap().is_empty());
        assert_eq!(fed(&s, mark), 5);

        // Round 3: nothing was scheduled; T1's commit arrives (1).
        let mark = s.metrics().delta_rows;
        s.submit(Request::commit(0, 1, 1), 2);
        assert_eq!(s.run_round(2).unwrap().len(), 1);
        assert_eq!(fed(&s, mark), 1);

        // Round 4: the commit leaves `requests` (1) and T1's write is pruned
        // from `history` (1); the commit itself was pruned before it was
        // ever fed.  T3 now qualifies.
        let mark = s.metrics().delta_rows;
        let batch = s.run_round(3).unwrap();
        assert_eq!(batch.requests[0].ta, 3);
        assert_eq!(fed(&s, mark), 2);
        assert_eq!(s.metrics().incremental_rounds, 4);
        assert_eq!(s.metrics().catalog_build_micros, 0);
        // Only the first round had no delta to go by.
        assert_eq!(s.metrics().strata_recomputed, recomputed_by_round_one);
        assert!(s.metrics().strata_maintained > 0);
    }

    #[test]
    fn custom_rule_inputs_are_fed_whole_after_an_undescribed_change() {
        let mut s = custom_ss2pl(true);
        s.submit(Request::write(0, 1, 0, 5), 0);
        s.run_round(0).unwrap();
        s.submit(Request::read(0, 2, 0, 5), 1);
        s.submit(Request::read(0, 3, 0, 6), 1);
        s.submit(Request::read(0, 3, 1, 5), 1);
        // T3's first read is scheduled, its second is blocked like T2's.
        assert_eq!(s.run_round(1).unwrap().len(), 1);
        // A purge is not a round: the evaluator still holds both blocked
        // reads when the next round starts, and must drop them.
        assert_eq!(s.purge_unscheduled(2), 2);
        s.submit(Request::write(0, 4, 0, 5), 3);
        let mark = s.metrics().delta_rows;
        assert!(s.run_round(3).unwrap().is_empty(), "T1 still holds 5");
        // `requests` was replaced by its single row; `history` took T3's
        // scheduled read as a delta.
        assert_eq!(s.metrics().delta_rows - mark, 1 + 1);
        assert_eq!(s.pending(), 1);
        s.submit(Request::commit(0, 1, 1), 4);
        s.run_round(4).unwrap();
        assert_eq!(s.run_round(5).unwrap().requests[0].ta, 4);
    }

    #[test]
    fn custom_rule_drops_a_superseded_duplicate_from_its_inputs() {
        let mut s = custom_ss2pl(true);
        s.submit(Request::write(0, 1, 0, 5), 0);
        s.run_round(0).unwrap();
        // T2's read of object 5 waits behind T1 …
        s.submit(Request::read(0, 2, 0, 5), 1);
        assert!(s.run_round(1).unwrap().is_empty());
        // … and is then superseded (same key) by a read of the free object
        // 6.  The generations move as in any round; only the row counts
        // tell the evaluator that a row left without being scheduled.
        s.submit(Request::read(0, 2, 0, 6), 2);
        let batch = s.run_round(2).unwrap();
        assert_eq!(batch.requests[0].object, 6);
        // Were the old row still fed, T3's write would wait behind T2's
        // phantom read of object 5 even after T1 commits.
        s.submit(Request::commit(0, 1, 1), 3);
        s.submit(Request::write(0, 3, 0, 5), 3);
        s.run_round(3).unwrap();
        let batch = s.run_round(4).unwrap();
        assert_eq!(batch.requests.len(), 1, "T3 takes the released object");
        assert_eq!(batch.requests[0].ta, 3);
    }

    #[test]
    fn a_custom_rule_with_a_malformed_output_names_itself() {
        use crate::error::SchedError;
        use crate::rules::{OrderingSpec, RuleBackend, RuleSet};
        // The operation where `ta` belongs.
        let program =
            datalog::parse_program("qualified(Op, I) :- requests(Id, T, I, Op, O).").unwrap();
        let rules = RuleSet::new(
            "op-for-ta",
            RuleBackend::Datalog {
                program,
                output: "qualified".into(),
            },
            OrderingSpec::FifoById,
        );
        for incremental in [true, false] {
            let mut s = DeclarativeScheduler::new(
                Protocol::custom(rules.clone(), "a rule whose output is not a request key"),
                SchedulerConfig {
                    trigger: TriggerPolicy::Always,
                    incremental,
                    ..SchedulerConfig::default()
                },
            );
            s.submit(Request::write(0, 1, 0, 5), 0);
            match s.run_round(0) {
                Err(SchedError::MalformedRuleOutput { protocol, detail }) => {
                    assert_eq!(protocol, "op-for-ta", "incremental={incremental}");
                    assert!(detail.contains("non-integer ta value"), "{detail}");
                }
                other => panic!("incremental={incremental}: unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn sla_metadata_flows_into_the_sla_relation() {
        use crate::request::SlaMeta;
        let mut s = scheduler(ProtocolKind::SlaPriority);
        let premium = Request::read(0, 1, 0, 9).with_sla(SlaMeta {
            priority: 3,
            class: "premium",
            arrival_ms: 0,
            deadline_ms: 50,
        });
        s.submit(premium, 0);
        let catalog = s.build_catalog();
        assert_eq!(catalog.get("sla").unwrap().len(), 1);
        let batch = s.run_round(0).unwrap();
        assert_eq!(batch.len(), 1);
        assert_eq!(batch.requests[0].sla.unwrap().priority, 3);
    }
}
