//! Configuration of a sharded scheduler deployment.

use declsched::{Protocol, SchedulerConfig};
use relalg::Table;
use std::sync::Arc;

/// Configuration for a [`crate::ShardRouter`].
#[derive(Debug, Clone)]
pub struct ShardConfig {
    /// Number of shards (shard cores, on min(shards, available cores)
    /// driver threads).  One shard degenerates to the
    /// paper's single global scheduler behind a router.
    pub shards: usize,
    /// The declarative protocol every shard applies, in its rounds and in
    /// its escalation votes (and the lane, for a custom rule, over the
    /// participants' merged relations).
    pub protocol: Protocol,
    /// Per-shard scheduler configuration (trigger, pruning, intra-order).
    pub scheduler: SchedulerConfig,
    /// Name of the benchmark table every shard's dispatcher serves.
    pub table: String,
    /// Rows in the benchmark table.  Every shard engine materialises the full
    /// table; the router guarantees an object is only ever touched through
    /// its home shard (or through the escalation lane, which also executes on
    /// the home shard), so the copies never diverge.
    pub rows: usize,
    /// Auxiliary relations (e.g. `object_class` for consistency rationing)
    /// registered with every shard's scheduler and with the escalation
    /// lane's merged catalog, so aux-joining protocols work sharded too.
    pub aux_relations: Vec<Table>,
    /// Chaos fault injector shared by the router, every shard worker and
    /// the escalation lane.  Disabled (never fires) by default.
    pub injector: Arc<chaos::FaultInjector>,
}

impl ShardConfig {
    /// A config with the given shard count and protocol, default scheduler
    /// settings and a 10k-row `bench` table.
    pub fn new(shards: usize, protocol: Protocol) -> Self {
        ShardConfig {
            shards: shards.max(1),
            protocol,
            scheduler: SchedulerConfig::default(),
            table: "bench".to_string(),
            rows: 10_000,
            aux_relations: Vec::new(),
            injector: Arc::new(chaos::FaultInjector::disabled()),
        }
    }

    /// Thread a chaos fault injector through the deployment: the router's
    /// fast-path sends, every shard worker's loop and terminal executions,
    /// and the escalation lane all fire their hooks against it.
    pub fn with_chaos(mut self, injector: Arc<chaos::FaultInjector>) -> Self {
        self.injector = injector;
        self
    }

    /// Register an auxiliary relation protocol rules may join against.  A
    /// reserved name (`requests`, `history`, `sla`) fails the fleet's start.
    pub fn with_aux_relation(mut self, table: Table) -> Self {
        self.aux_relations.push(table);
        self
    }

    /// Replace the per-shard scheduler configuration.
    pub fn with_scheduler(mut self, scheduler: SchedulerConfig) -> Self {
        self.scheduler = scheduler;
        self
    }

    /// Replace the benchmark table name and size.
    pub fn with_table(mut self, table: impl Into<String>, rows: usize) -> Self {
        self.table = table.into();
        self.rows = rows;
        self
    }
}
