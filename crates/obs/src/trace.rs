//! The request flight recorder: per-worker bounded drop-oldest ring
//! buffers, a shared sink that merges them at shutdown, and the queryable
//! [`Trace`] the merged events become.

use crate::event::{Event, EventKind, ReqId};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, Weak};
use std::time::Instant;

/// Upper bound on anomaly windows kept per run, so a pathological run
/// (e.g. a shed storm) cannot grow `Report::anomalies` without bound.
pub const MAX_ANOMALY_WINDOWS: usize = 32;

/// Tracing knob: how many transactions to sample and how much history each
/// worker keeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceConfig {
    /// Sample one transaction in this many (`0` disables tracing, `1`
    /// traces everything).  Sampling is by transaction id (`ta %
    /// sample_one_in == 0`), so every event of a sampled transaction is
    /// kept and a timeline is never partial.
    pub sample_one_in: u64,
    /// Ring capacity (events) per worker.  When a ring fills, the oldest
    /// events are overwritten and counted as dropped.
    pub capacity: usize,
}

impl TraceConfig {
    /// Default per-worker ring capacity.  Deliberately small enough
    /// (~0.5 MB of events) that a cycling ring stays cache-resident: a
    /// multi-megabyte ring turns every emission into a cache miss *and*
    /// evicts the scheduler's working set, which is where a flight
    /// recorder's overhead actually comes from.  Runs that need a complete
    /// event log (integration tests, short diagnostic captures) pass an
    /// explicit larger capacity.
    pub const DEFAULT_CAPACITY: usize = 8_192;

    /// Tracing disabled: recorders become no-ops.
    pub fn off() -> Self {
        TraceConfig {
            sample_one_in: 0,
            capacity: 0,
        }
    }

    /// Trace every transaction.
    pub fn full(capacity: usize) -> Self {
        TraceConfig {
            sample_one_in: 1,
            capacity,
        }
    }

    /// Trace one transaction in `n`.
    pub fn sampled(n: u64, capacity: usize) -> Self {
        TraceConfig {
            sample_one_in: n,
            capacity,
        }
    }

    /// Whether any tracing happens at all.
    pub fn enabled(&self) -> bool {
        self.sample_one_in > 0 && self.capacity > 0
    }

    /// Whether transaction `ta` is in the sample.  The full-tracing case
    /// short-circuits before the modulo: a hardware division per emission
    /// is most expensive exactly when every transaction takes it.
    pub fn samples(&self, ta: u64) -> bool {
        self.enabled() && (self.sample_one_in == 1 || ta.is_multiple_of(self.sample_one_in))
    }
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig::off()
    }
}

/// A frozen event window captured around an anomaly (poisoned lock,
/// deadlock-victim abort, shed burst): the recorder's
/// current ring contents at the moment the anomaly was noticed, plus a
/// reason string and timestamp.  With tracing off the window is empty but
/// the reason and timestamp are still recorded.
#[derive(Debug, Clone)]
pub struct AnomalyWindow {
    /// What tripped the hook.
    pub reason: String,
    /// Microseconds since the sink epoch when the window was frozen.
    pub at_us: u64,
    /// The freezing worker's ring contents, oldest first.
    pub events: Vec<Event>,
}

fn lock_or_recover<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|e| e.into_inner())
}

/// Microseconds in `elapsed`, in `u64` arithmetic throughout —
/// `Duration::as_micros` divides a 128-bit nanosecond count, which shows
/// up at flight-recorder emission rates.
fn duration_us(elapsed: std::time::Duration) -> u64 {
    elapsed.as_secs() * 1_000_000 + u64::from(elapsed.subsec_micros())
}

struct SinkInner {
    config: TraceConfig,
    epoch: Instant,
    /// Flushed events from retired recorders, unordered until merge.
    merged: Mutex<Vec<Event>>,
    dropped: Mutex<u64>,
    anomalies: Mutex<Vec<AnomalyWindow>>,
    /// Live shared recorders (session-side), flushed in place at merge
    /// time.  Weak, because each recorder holds an `Arc` back to this
    /// sink and a strong reference both ways would leak the pair.
    shared: Mutex<Vec<Weak<Mutex<Recorder>>>>,
}

/// The per-run trace sink: hands out [`Recorder`]s to workers, keeps the
/// shared epoch clock, and merges everything into a [`Trace`] at shutdown.
/// Cheap to clone (one `Arc`).
#[derive(Clone)]
pub struct TraceSink {
    inner: Arc<SinkInner>,
}

impl TraceSink {
    /// A sink with the given tracing configuration.
    pub fn new(config: TraceConfig) -> Self {
        TraceSink {
            inner: Arc::new(SinkInner {
                config,
                epoch: Instant::now(),
                merged: Mutex::new(Vec::new()),
                dropped: Mutex::new(0),
                anomalies: Mutex::new(Vec::new()),
                shared: Mutex::new(Vec::new()),
            }),
        }
    }

    /// A sink that records nothing (anomaly reasons are still kept).
    pub fn disabled() -> Self {
        TraceSink::new(TraceConfig::off())
    }

    /// The sink's tracing configuration.
    pub fn config(&self) -> TraceConfig {
        self.inner.config
    }

    /// Whether tracing is enabled on this sink.
    pub fn enabled(&self) -> bool {
        self.inner.config.enabled()
    }

    /// Microseconds since this sink's epoch — the shared monotonic clock
    /// every recorder stamps events with.
    pub fn now_us(&self) -> u64 {
        duration_us(self.inner.epoch.elapsed())
    }

    /// A thread-owned recorder for one worker.  Emission never locks; the
    /// ring is flushed into the sink when the recorder drops (worker join).
    pub fn recorder(&self) -> Recorder {
        Recorder::new(Arc::clone(&self.inner))
    }

    /// A clonable recorder for call sites without a single owning thread
    /// (the session layer, the router).  Emission takes one uncontended
    /// mutex; the sink flushes it in place during [`TraceSink::merged_trace`],
    /// so it need not be dropped before merging.
    pub fn shared_recorder(&self) -> SharedRecorder {
        let recorder = Arc::new(Mutex::new(Recorder::new(Arc::clone(&self.inner))));
        lock_or_recover(&self.inner.shared).push(Arc::downgrade(&recorder));
        SharedRecorder {
            enabled: self.inner.config.enabled(),
            sample_one_in: self.inner.config.sample_one_in,
            epoch: self.inner.epoch,
            inner: recorder,
        }
    }

    /// Merge every flushed ring (plus any still-live shared recorders)
    /// into one causally ordered [`Trace`].  Call after all worker-owned
    /// recorders have dropped, i.e. after the backend threads joined.
    pub fn merged_trace(&self) -> Trace {
        for weak in lock_or_recover(&self.inner.shared).drain(..) {
            if let Some(live) = weak.upgrade() {
                lock_or_recover(&live).flush();
            }
        }
        let mut events = std::mem::take(&mut *lock_or_recover(&self.inner.merged));
        events.sort_by(|a, b| {
            (a.at_us, a.req.ta, a.req.intra, a.kind.rank()).cmp(&(
                b.at_us,
                b.req.ta,
                b.req.intra,
                b.kind.rank(),
            ))
        });
        Trace {
            events,
            dropped: *lock_or_recover(&self.inner.dropped),
            sample_one_in: self.inner.config.sample_one_in,
        }
    }

    /// Take the anomaly windows frozen so far (drains the sink's list).
    pub fn take_anomalies(&self) -> Vec<AnomalyWindow> {
        std::mem::take(&mut *lock_or_recover(&self.inner.anomalies))
    }
}

impl Default for TraceSink {
    fn default() -> Self {
        TraceSink::disabled()
    }
}

impl std::fmt::Debug for TraceSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceSink")
            .field("config", &self.inner.config)
            .finish()
    }
}

/// A thread-owned event ring: bounded, drop-oldest, no locking on the
/// emission path.  Obtained from [`TraceSink::recorder`]; its contents move
/// into the sink when it drops or is explicitly flushed.
pub struct Recorder {
    inner: Arc<SinkInner>,
    sample_one_in: u64,
    capacity: usize,
    ring: Vec<Event>,
    head: usize,
    dropped: u64,
}

impl Recorder {
    fn new(inner: Arc<SinkInner>) -> Self {
        let config = inner.config;
        Recorder {
            inner,
            sample_one_in: config.sample_one_in,
            capacity: if config.enabled() { config.capacity } else { 0 },
            ring: Vec::new(),
            head: 0,
            dropped: 0,
        }
    }

    /// Whether tracing is enabled on the owning sink.
    pub fn enabled(&self) -> bool {
        self.capacity > 0
    }

    /// Whether transaction `ta` is in the sample.  Callers check this once
    /// per transaction and skip all bookkeeping for unsampled ones.  Full
    /// tracing short-circuits before the modulo (see
    /// [`TraceConfig::samples`]).
    pub fn samples(&self, ta: u64) -> bool {
        self.capacity > 0 && (self.sample_one_in == 1 || ta.is_multiple_of(self.sample_one_in))
    }

    /// Microseconds since the sink epoch.
    pub fn now_us(&self) -> u64 {
        duration_us(self.inner.epoch.elapsed())
    }

    /// Record an event for request `(ta, intra)` stamped now.  No-op when
    /// `ta` is not sampled.
    pub fn emit(&mut self, ta: u64, intra: u32, kind: EventKind) {
        if self.samples(ta) {
            let at_us = self.now_us();
            self.push(Event {
                req: ReqId::new(ta, intra),
                at_us,
                kind,
            });
        }
    }

    /// Record an event with a caller-provided timestamp, so a batch of
    /// requests qualified together can share one clock read.
    pub fn emit_at(&mut self, ta: u64, intra: u32, at_us: u64, kind: EventKind) {
        if self.samples(ta) {
            self.push(Event {
                req: ReqId::new(ta, intra),
                at_us,
                kind,
            });
        }
    }

    fn push(&mut self, event: Event) {
        if self.ring.len() < self.capacity {
            self.ring.push(event);
        } else {
            // Compare-and-reset rather than modulo: once the ring wraps,
            // every subsequent emission takes this branch, and a division
            // per event is measurable at full-tracing rates.
            self.ring[self.head] = event;
            self.head += 1;
            if self.head == self.capacity {
                self.head = 0;
            }
            self.dropped += 1;
        }
    }

    /// The ring's contents, oldest first.
    fn ordered(&self) -> Vec<Event> {
        let mut out = Vec::with_capacity(self.ring.len());
        out.extend_from_slice(&self.ring[self.head..]);
        out.extend_from_slice(&self.ring[..self.head]);
        out
    }

    /// Move the ring's contents into the sink and reset the ring.
    pub fn flush(&mut self) {
        if !self.ring.is_empty() {
            let events = self.ordered();
            lock_or_recover(&self.inner.merged).extend(events);
            self.ring.clear();
            self.head = 0;
        }
        if self.dropped > 0 {
            *lock_or_recover(&self.inner.dropped) += self.dropped;
            self.dropped = 0;
        }
    }

    /// Freeze the current ring contents into an anomaly window on the
    /// sink.  Works with tracing off too (empty window, reason kept), so
    /// anomaly *occurrence* is always visible post-mortem.  Windows past
    /// [`MAX_ANOMALY_WINDOWS`] are dropped.
    pub fn freeze_anomaly(&mut self, reason: &str) {
        let window = AnomalyWindow {
            reason: reason.to_string(),
            at_us: self.now_us(),
            events: self.ordered(),
        };
        let mut anomalies = lock_or_recover(&self.inner.anomalies);
        if anomalies.len() < MAX_ANOMALY_WINDOWS {
            anomalies.push(window);
        }
    }
}

impl Drop for Recorder {
    fn drop(&mut self) {
        self.flush();
    }
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Recorder")
            .field("capacity", &self.capacity)
            .field("len", &self.ring.len())
            .field("dropped", &self.dropped)
            .finish()
    }
}

/// A clonable recorder for multi-threaded call sites (session handles, the
/// router): one mutex around a [`Recorder`], with the sampling check
/// answerable without taking it.
#[derive(Clone)]
pub struct SharedRecorder {
    enabled: bool,
    sample_one_in: u64,
    epoch: Instant,
    inner: Arc<Mutex<Recorder>>,
}

impl SharedRecorder {
    /// Whether transaction `ta` is in the sample (lock-free check).
    pub fn samples(&self, ta: u64) -> bool {
        self.enabled && (self.sample_one_in == 1 || ta.is_multiple_of(self.sample_one_in))
    }

    /// Microseconds since the sink epoch (lock-free — the epoch is a copy
    /// of the sink's, so reading the clock never contends with emission).
    pub fn now_us(&self) -> u64 {
        duration_us(self.epoch.elapsed())
    }

    /// Record an event stamped now.  No-op when `ta` is not sampled.
    pub fn emit(&self, ta: u64, intra: u32, kind: EventKind) {
        if self.samples(ta) {
            let at_us = self.now_us();
            lock_or_recover(&self.inner).emit_at(ta, intra, at_us, kind);
        }
    }

    /// Record an event with a caller-provided timestamp.
    pub fn emit_at(&self, ta: u64, intra: u32, at_us: u64, kind: EventKind) {
        if self.samples(ta) {
            lock_or_recover(&self.inner).emit_at(ta, intra, at_us, kind);
        }
    }

    /// Record one `kind` event per request of a transaction, all stamped
    /// `at_us`, under a single lock acquisition — the session layer emits
    /// `Submitted` and terminal brackets for every request of a
    /// transaction at once, and one lock per request would double the
    /// session-side emission cost.
    pub fn emit_group_at(&self, ta: u64, intras: &[u32], at_us: u64, kind: EventKind) {
        if self.samples(ta) && !intras.is_empty() {
            let mut recorder = lock_or_recover(&self.inner);
            for &intra in intras {
                recorder.emit_at(ta, intra, at_us, kind.clone());
            }
        }
    }

    /// Freeze the current window into the sink's anomaly list.
    pub fn freeze_anomaly(&self, reason: &str) {
        lock_or_recover(&self.inner).freeze_anomaly(reason);
    }
}

impl std::fmt::Debug for SharedRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedRecorder")
            .field("enabled", &self.enabled)
            .finish()
    }
}

/// The merged, causally ordered flight-recorder output of one run.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    events: Vec<Event>,
    dropped: u64,
    sample_one_in: u64,
}

impl Trace {
    /// An empty trace (what disabled tracing reports).
    pub fn empty() -> Self {
        Trace::default()
    }

    /// All events, sorted by `(timestamp, ta, intra, lifecycle rank)`.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the trace holds no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events overwritten in full rings before they could be merged.  When
    /// nonzero, early timelines may be truncated.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The sampling rate the trace was recorded at (`0` = tracing off).
    pub fn sample_one_in(&self) -> u64 {
        self.sample_one_in
    }

    /// The full lifecycle of one request, in causal order.
    pub fn timeline(&self, req: ReqId) -> Vec<Event> {
        self.events
            .iter()
            .filter(|e| e.req == req)
            .cloned()
            .collect()
    }

    /// Every event of one transaction (all intra positions), in causal
    /// order.
    pub fn transaction(&self, ta: u64) -> Vec<Event> {
        self.events
            .iter()
            .filter(|e| e.req.ta == ta)
            .cloned()
            .collect()
    }

    /// Per-phase latency histograms over every request with the relevant
    /// event pairs: queue wait (`Submitted → Qualified`), execution
    /// (`Dispatched → Executed`), and end-to-end (`Submitted → terminal`).
    pub fn phase_histograms(&self) -> PhaseHistograms {
        #[derive(Default)]
        struct Life {
            submitted: Option<u64>,
            dispatched: Option<u64>,
            qualified: Option<u64>,
            executed: Option<u64>,
            terminal: Option<u64>,
        }
        let mut lives: HashMap<ReqId, Life> = HashMap::new();
        for event in &self.events {
            let life = lives.entry(event.req).or_default();
            match event.kind {
                EventKind::Submitted => life.submitted = life.submitted.or(Some(event.at_us)),
                EventKind::Qualified => life.qualified = life.qualified.or(Some(event.at_us)),
                EventKind::Dispatched => life.dispatched = life.dispatched.or(Some(event.at_us)),
                EventKind::Executed => life.executed = Some(event.at_us),
                ref kind if kind.is_terminal() => {
                    life.terminal = life.terminal.or(Some(event.at_us))
                }
                _ => {}
            }
        }
        let mut histograms = PhaseHistograms::default();
        for life in lives.values() {
            if let (Some(s), Some(q)) = (life.submitted, life.qualified) {
                histograms.queue.record(q.saturating_sub(s));
            }
            if let (Some(d), Some(x)) = (life.dispatched, life.executed) {
                histograms.execute.record(x.saturating_sub(d));
            }
            if let (Some(s), Some(t)) = (life.submitted, life.terminal) {
                histograms.end_to_end.record(t.saturating_sub(s));
            }
        }
        histograms
    }
}

const PHASE_BUCKETS: usize = 40;

/// Latency statistics for one lifecycle phase: count/sum/min/max plus a
/// power-of-two bucket histogram (bucket 0 holds zero; bucket `i ≥ 1`
/// holds values in `[2^(i-1), 2^i)` microseconds).
#[derive(Debug, Clone)]
pub struct PhaseStats {
    /// Samples recorded.
    pub count: u64,
    /// Sum of all samples (µs).
    pub sum_us: u64,
    /// Smallest sample (µs); 0 when empty.
    pub min_us: u64,
    /// Largest sample (µs).
    pub max_us: u64,
    /// Power-of-two buckets.
    pub buckets: [u64; PHASE_BUCKETS],
}

impl Default for PhaseStats {
    fn default() -> Self {
        PhaseStats {
            count: 0,
            sum_us: 0,
            min_us: 0,
            max_us: 0,
            buckets: [0; PHASE_BUCKETS],
        }
    }
}

impl PhaseStats {
    /// Record one sample in microseconds.
    pub fn record(&mut self, us: u64) {
        if self.count == 0 || us < self.min_us {
            self.min_us = us;
        }
        self.max_us = self.max_us.max(us);
        self.count += 1;
        self.sum_us += us;
        let index = (64 - us.leading_zeros() as usize).min(PHASE_BUCKETS - 1);
        self.buckets[index] += 1;
    }

    /// Mean sample in microseconds.
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_us as f64 / self.count as f64
        }
    }

    /// Approximate quantile (bucket upper bound), `q` in `[0, 1]`.
    pub fn quantile_us(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((self.count as f64) * q.clamp(0.0, 1.0)).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (index, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= target {
                return if index == 0 { 0 } else { 1u64 << index };
            }
        }
        self.max_us
    }
}

/// Per-phase latency histograms derived from a [`Trace`].
#[derive(Debug, Clone, Default)]
pub struct PhaseHistograms {
    /// `Submitted → Qualified`: queue wait plus rule-evaluation share.
    pub queue: PhaseStats,
    /// `Dispatched → Executed`: storage-engine execution latency.
    pub execute: PhaseStats,
    /// `Submitted → terminal`: full client-visible latency.
    pub end_to_end: PhaseStats,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_config_samples_nothing() {
        let config = TraceConfig::off();
        assert!(!config.enabled());
        assert!(!config.samples(0));
        let sink = TraceSink::new(config);
        let mut recorder = sink.recorder();
        recorder.emit(0, 0, EventKind::Submitted);
        drop(recorder);
        assert!(sink.merged_trace().is_empty());
    }

    #[test]
    fn sampling_is_by_transaction_id() {
        let config = TraceConfig::sampled(4, 16);
        assert!(config.samples(0));
        assert!(config.samples(8));
        assert!(!config.samples(3));
    }

    #[test]
    fn merge_orders_by_time_then_lifecycle_rank() {
        let sink = TraceSink::new(TraceConfig::full(64));
        let mut a = sink.recorder();
        let mut b = sink.recorder();
        // Same timestamp, ranks force causal order regardless of ring.
        b.emit_at(1, 0, 10, EventKind::Executed);
        a.emit_at(1, 0, 10, EventKind::Qualified);
        a.emit_at(1, 0, 5, EventKind::Submitted);
        drop(a);
        drop(b);
        let trace = sink.merged_trace();
        let kinds: Vec<&'static str> = trace.events().iter().map(|e| e.kind.label()).collect();
        assert_eq!(kinds, vec!["submitted", "qualified", "executed"]);
        assert_eq!(trace.timeline(ReqId::new(1, 0)).len(), 3);
        assert!(trace.timeline(ReqId::new(2, 0)).is_empty());
    }

    #[test]
    fn ring_drops_oldest_and_counts_it() {
        let sink = TraceSink::new(TraceConfig::full(4));
        let mut recorder = sink.recorder();
        for i in 0..10u64 {
            recorder.emit_at(1, 0, i, EventKind::Qualified);
        }
        drop(recorder);
        let trace = sink.merged_trace();
        assert_eq!(trace.len(), 4);
        assert_eq!(trace.dropped(), 6);
        // The survivors are the newest four, oldest first.
        let stamps: Vec<u64> = trace.events().iter().map(|e| e.at_us).collect();
        assert_eq!(stamps, vec![6, 7, 8, 9]);
    }

    #[test]
    fn shared_recorders_flush_at_merge_without_dropping() {
        let sink = TraceSink::new(TraceConfig::full(64));
        let shared = sink.shared_recorder();
        shared.emit(2, 1, EventKind::Submitted);
        shared.emit(3, 0, EventKind::Shed);
        // `shared` is still alive — merged_trace must see its events.
        let trace = sink.merged_trace();
        assert_eq!(trace.len(), 2);
        assert_eq!(trace.transaction(3)[0].kind, EventKind::Shed);
    }

    #[test]
    fn anomaly_window_freezes_ring_even_when_tracing_off() {
        let sink = TraceSink::disabled();
        let mut recorder = sink.recorder();
        recorder.freeze_anomaly("poisoned: scheduler");
        let windows = sink.take_anomalies();
        assert_eq!(windows.len(), 1);
        assert_eq!(windows[0].reason, "poisoned: scheduler");
        assert!(windows[0].events.is_empty());
        assert!(sink.take_anomalies().is_empty());

        let sink = TraceSink::new(TraceConfig::full(8));
        let mut recorder = sink.recorder();
        recorder.emit(1, 0, EventKind::Submitted);
        recorder.freeze_anomaly("deadlock victim T1");
        let windows = sink.take_anomalies();
        assert_eq!(windows[0].events.len(), 1);
    }

    #[test]
    fn anomaly_windows_are_capped() {
        let sink = TraceSink::new(TraceConfig::full(8));
        let mut recorder = sink.recorder();
        for i in 0..(MAX_ANOMALY_WINDOWS + 10) {
            recorder.freeze_anomaly(&format!("window {i}"));
        }
        assert_eq!(sink.take_anomalies().len(), MAX_ANOMALY_WINDOWS);
    }

    #[test]
    fn phase_histograms_measure_the_three_phases() {
        let sink = TraceSink::new(TraceConfig::full(64));
        let mut r = sink.recorder();
        r.emit_at(1, 0, 100, EventKind::Submitted);
        r.emit_at(1, 0, 180, EventKind::Qualified);
        r.emit_at(1, 0, 200, EventKind::Dispatched);
        r.emit_at(1, 0, 230, EventKind::Executed);
        r.emit_at(1, 0, 300, EventKind::Committed);
        drop(r);
        let phases = sink.merged_trace().phase_histograms();
        assert_eq!(phases.queue.count, 1);
        assert_eq!(phases.queue.sum_us, 80);
        assert_eq!(phases.execute.sum_us, 30);
        assert_eq!(phases.end_to_end.sum_us, 200);
        assert!(phases.end_to_end.quantile_us(0.99) >= 200);
        assert_eq!(phases.end_to_end.mean_us(), 200.0);
    }

    #[test]
    fn recorder_timestamps_are_monotone() {
        let sink = TraceSink::new(TraceConfig::full(16));
        let recorder = sink.recorder();
        let a = recorder.now_us();
        let b = recorder.now_us();
        assert!(b >= a);
        assert!(sink.now_us() >= b);
    }
}
