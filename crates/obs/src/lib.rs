//! # obs — low-overhead observability for the declarative scheduler
//!
//! Three pieces, threaded through every layer of the reproduction:
//!
//! 1. **Request flight recorder** — per-request timestamped lifecycle
//!    events (`Submitted → Routed → RoundDeferred → Qualified →
//!    Dispatched → Executed → Committed/Aborted/Shed/Escalated`) written
//!    to per-worker bounded drop-oldest ring buffers ([`Recorder`]),
//!    sampled by transaction id ([`TraceConfig`]), merged at shutdown
//!    into a queryable [`Trace`] (`Report::trace` in the `session`
//!    crate).
//! 2. **Live metrics registry** — named atomic counters, gauges and
//!    histograms ([`Registry`]) the core scheduler, shard workers,
//!    router, escalation lane and session shedding all register into;
//!    snapshot-able mid-run, renderable as Prometheus-style text.
//! 3. **Anomaly hooks** — on poisoned locks, deadlock-victim aborts and
//!    shed bursts, the surrounding event window is frozen into an [`AnomalyWindow`] for post-mortem
//!    (`Report::anomalies`).
//!
//! The crate is a dependency-free leaf: every other crate in the
//! workspace may depend on it.
//!
//! ```
//! use obs::{EventKind, Registry, TraceConfig, TraceSink};
//!
//! let sink = TraceSink::new(TraceConfig::full(1024));
//! let mut recorder = sink.recorder();
//! recorder.emit(7, 0, EventKind::Submitted);
//! recorder.emit(7, 0, EventKind::Qualified);
//! recorder.emit(7, 0, EventKind::Committed);
//! drop(recorder); // worker join flushes the ring
//!
//! let trace = sink.merged_trace();
//! assert_eq!(trace.timeline(obs::ReqId::new(7, 0)).len(), 3);
//!
//! let registry = Registry::new();
//! registry.counter("core.rounds").inc();
//! assert_eq!(registry.snapshot().counter("core.rounds"), 1);
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

mod event;
mod hash;
mod registry;
mod trace;

pub use event::{Event, EventKind, ReqId};
pub use hash::{FastIdBuildHasher, FastIdHasher, FastIdMap, FastIdSet};
pub use registry::{Counter, Gauge, MetricHistogram, MetricsSnapshot, Registry};
pub use trace::{
    AnomalyWindow, PhaseHistograms, PhaseStats, Recorder, SharedRecorder, Trace, TraceConfig,
    TraceSink, MAX_ANOMALY_WINDOWS,
};
