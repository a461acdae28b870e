//! In-memory spans recorded by the benchmark around its calls into the
//! stack, written out as JSON lines when the run ends.

use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One timed call: a named interval, the span that caused it, and the
/// request it served.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unique within the tracer, from 1.
    pub id: u64,
    /// The enclosing span's id, 0 for a root.
    pub parent: u64,
    /// Request id shared by every span of one request (0: none).
    pub req: u64,
    /// Layer call, e.g. `server.submit`.
    pub name: &'static str,
    /// Start, microseconds since the tracer's origin.
    pub start_us: f64,
    /// End, microseconds since the tracer's origin.
    pub end_us: f64,
}

impl Span {
    /// The span's duration in microseconds.
    #[must_use]
    pub fn dur_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// Collects spans when enabled; every call is a no-op otherwise, so the
/// untraced run takes the same timestamps and stores nothing.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer that records (`enabled`) or ignores every span.
    #[must_use]
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are being kept.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Reserves a span id, so children can name a parent that is
    /// recorded after them. Returns 0 when disabled.
    pub fn reserve(&self) -> u64 {
        if self.enabled {
            self.next_id.fetch_add(1, Ordering::Relaxed)
        } else {
            0
        }
    }

    /// Records a span under a reserved id.
    pub fn record_as(
        &self,
        id: u64,
        name: &'static str,
        parent: u64,
        req: u64,
        start: Instant,
        end: Instant,
    ) {
        if !self.enabled {
            return;
        }
        let at = |t: Instant| t.saturating_duration_since(self.origin).as_secs_f64() * 1e6;
        let span = Span {
            id,
            parent,
            req,
            name,
            start_us: at(start),
            end_us: at(end),
        };
        self.spans.lock().expect("span log lock").push(span);
    }

    /// Records a span under a fresh id and returns the id (0 when
    /// disabled).
    pub fn record(
        &self,
        name: &'static str,
        parent: u64,
        req: u64,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let id = self.reserve();
        self.record_as(id, name, parent, req, start, end);
        id
    }

    /// Every recorded span, in recording order.
    #[must_use]
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span log lock").clone()
    }

    /// Durations (µs) of every span called `name`.
    #[must_use]
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        let spans = self.spans.lock().expect("span log lock");
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur_us)
            .collect()
    }

    /// Writes the spans as JSON lines, one span per line, after a first
    /// line describing the run.
    ///
    /// # Errors
    ///
    /// Propagates file-system errors.
    pub fn write_jsonl(&self, path: &Path, header: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{header}")?;
        for s in self.spans.lock().expect("span log lock").iter() {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"req\":{},\"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3}}}",
                s.id, s.parent, s.req, s.name, s.start_us, s.end_us
            )?;
        }
        out.flush()
    }
}
