//! [`Backend`] over the shard worker fleet — both the `.shards(n)`
//! deployment and, as a fleet of one, the `.unsharded()` deployment.

use crate::backend::{Backend, BackendKind, Completion};
use crate::report::Report;
use declsched::{Request, SchedError, SchedResult};
use shard::ShardRouter;
use std::sync::Mutex;

pub(crate) struct ShardedBackend {
    /// The label this fleet runs under: [`BackendKind::Unsharded`] for the
    /// fleet of one behind `.unsharded()`, [`BackendKind::Sharded`] for
    /// `.shards(n)`.  Only what is reported differs, never what runs.
    kind: BackendKind,
    /// Submission side: a cheap clone of the fleet's client handle, usable
    /// without touching the shutdown lock.
    handle: shard::FleetHandle,
    /// Ownership side: consumed by the first shutdown.
    router: Mutex<Option<ShardRouter>>,
}

impl ShardedBackend {
    pub(crate) fn new(kind: BackendKind, router: ShardRouter) -> Self {
        ShardedBackend {
            kind,
            handle: router.handle(),
            router: Mutex::new(Some(router)),
        }
    }
}

impl Backend for ShardedBackend {
    fn kind(&self) -> BackendKind {
        self.kind
    }

    fn submit(&self, requests: Vec<Request>) -> SchedResult<Completion> {
        Ok(Completion::Sharded(
            self.handle.submit_transaction(requests)?,
        ))
    }

    fn shutdown(&self) -> SchedResult<Report> {
        let backend = self.kind.label();
        let router = self
            .router
            .lock()
            .map_err(|_| SchedError::Poisoned {
                what: "backend shutdown lock",
            })?
            .take()
            .ok_or(SchedError::BackendShutdown { backend })?;
        Ok(Report::from_fleet(self.kind, router.shutdown()))
    }

    fn queue_depth(&self) -> usize {
        self.handle.max_queue_depth()
    }

    fn abandon(&self, ta: u64) {
        self.handle.abandon_transaction(ta);
    }
}
