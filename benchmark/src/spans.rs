//! The benchmark's own spans: one per call into a layer, recorded from
//! outside the program (nothing inside `crates/*` is instrumented here).
//! Spans stay in memory while a trial runs and are written out at its end.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Rows a span file holds at most; a traced trial records two spans per
/// transaction, which at 100 k txn/s would leave tens of megabytes per
/// workload in the checkout.  The earliest spans are kept.
pub const SPAN_FILE_ROWS: usize = 50_000;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Id (1-based recording position) of the span that caused this one;
    /// 0 for the root.
    pub parent: u32,
    /// Transaction the span belongs to; 0 when it belongs to none.
    pub ta: u64,
}

impl Span {
    pub fn nanos(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Id of the root span every recorder starts with: the whole trial.
pub const ROOT: u32 = 1;

/// A span recorder.  Disabled recorders drop everything, so untraced trials
/// pay one branch per call site and no clock reads.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Spans {
    /// A recorder whose root span `trial` starts at `origin`; close it with
    /// [`Spans::close_root`].
    pub fn new(origin: Instant, enabled: bool) -> Spans {
        let mut spans = Spans {
            origin,
            enabled,
            spans: Vec::new(),
        };
        spans.record("trial", origin, origin, 0, 0);
        spans
    }

    pub fn close_root(&mut self, end: Instant) {
        let end_ns = self.at_ns(end);
        if let Some(root) = self.spans.first_mut() {
            root.end_ns = end_ns;
        }
    }

    /// A second, rootless recorder on the same clock, for another thread;
    /// [`Spans::absorb`] it when that thread is done.
    pub fn sibling(&self) -> Spans {
        Spans {
            origin: self.origin,
            enabled: self.enabled,
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn reserve(&mut self, additional: usize) {
        if self.enabled {
            self.spans.reserve(additional);
        }
    }

    /// `at` on the span clock: nanoseconds since the recorder's origin.
    pub fn at_ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: u32,
        ta: u64,
    ) {
        if self.enabled {
            self.spans.push(Span {
                name,
                start_ns: self.at_ns(start),
                end_ns: self.at_ns(end),
                parent,
                ta,
            });
        }
    }

    /// Time `f` as a span and return its result with the span's duration in
    /// microseconds (measured whether or not the recorder keeps spans).
    pub fn time<T>(&mut self, name: &'static str, parent: u32, f: impl FnOnce() -> T) -> (T, f64) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.record(name, start, end, parent, 0);
        (out, (end - start).as_secs_f64() * 1e6)
    }

    pub fn absorb(&mut self, other: Spans) {
        self.spans.extend(other.spans);
    }

    pub fn all(&self) -> &[Span] {
        &self.spans
    }

    /// Sum (ns) and count of spans named `name` that lie inside
    /// `[from_ns, to_ns]`.
    pub fn total(&self, name: &str, from_ns: u64, to_ns: u64) -> (u64, u64) {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.start_ns >= from_ns && s.end_ns <= to_ns)
            .fold((0, 0), |(sum, n), s| (sum + s.nanos(), n + 1))
    }

    /// Write `id,name,start_us,end_us,parent,ta` rows, earliest first.
    pub fn write_csv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut rows: Vec<(usize, &Span)> = self.spans.iter().enumerate().collect();
        rows.sort_by_key(|(_, s)| s.start_ns);
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(
            out,
            "# {} of {} spans (earliest first)",
            rows.len().min(SPAN_FILE_ROWS),
            rows.len()
        )?;
        writeln!(out, "id,name,start_us,end_us,parent,ta")?;
        for (index, span) in rows.iter().take(SPAN_FILE_ROWS) {
            writeln!(
                out,
                "{},{},{:.3},{:.3},{},{}",
                index + 1,
                span.name,
                span.start_ns as f64 / 1e3,
                span.end_ns as f64 / 1e3,
                span.parent,
                span.ta
            )?;
        }
        out.flush()
    }
}
