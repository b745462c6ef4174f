//! In-memory spans for the traced run: one record per layer boundary
//! the benchmark crosses, spans of one request sharing its id, written
//! out as JSON lines when the run ends.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Request (or operation) id shared by all spans of one request.
    pub req: u64,
    /// Layer boundary, e.g. `net.connect`.
    pub name: &'static str,
    /// The enclosing span's name (`None` for a request's root span).
    pub parent: Option<&'static str>,
    /// Start, nanoseconds since the run's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the run's epoch.
    pub end_ns: u64,
}

/// A span recorder; a disabled recorder keeps nothing, so the
/// untraced runs pay only the branch.
#[derive(Clone)]
pub struct Spans {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Spans {
    /// A recorder measuring from `epoch`.
    pub fn new(epoch: Instant, enabled: bool) -> Spans {
        Spans {
            epoch,
            enabled,
            spans: Vec::new(),
        }
    }

    /// An empty recorder sharing this one's epoch and setting (one per
    /// thread).
    pub fn fork(&self) -> Spans {
        Spans::new(self.epoch, self.enabled)
    }

    /// Records one span.
    pub fn record(
        &mut self,
        req: u64,
        name: &'static str,
        parent: Option<&'static str>,
        start: Instant,
        end: Instant,
    ) {
        if !self.enabled {
            return;
        }
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            req,
            name,
            parent,
            start_ns: ns(start),
            end_ns: ns(end),
        });
    }

    /// Takes over another recorder's spans.
    pub fn merge(&mut self, other: Spans) {
        self.spans.extend(other.spans);
    }

    /// Spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Writes every span as one JSON object per line, ordered by start.
    pub fn write(&mut self, path: &Path) -> Result<(), String> {
        self.spans.sort_by_key(|s| (s.start_ns, s.req));
        let mut out = std::io::BufWriter::new(
            std::fs::File::create(path).map_err(|e| format!("create {}: {e}", path.display()))?,
        );
        for s in &self.spans {
            writeln!(
                out,
                "{{\"req\": {}, \"name\": \"{}\", \"parent\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
                s.req,
                s.name,
                s.parent.map_or("null".to_owned(), |p| format!("\"{p}\"")),
                s.start_ns,
                s.end_ns
            )
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        }
        out.flush()
            .map_err(|e| format!("write {}: {e}", path.display()))
    }
}
