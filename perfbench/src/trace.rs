//! In-memory span recorder for traced runs.
//!
//! Spans are recorded only by the benchmark, around its calls into each
//! crate. A span is named `<layer>:<what>`; its self time is its busy
//! time minus the busy time of its direct children. Calls too fine to
//! record one by one (a block's per-chunk calls) are folded into one
//! span per operation whose busy time is the sum of the calls.

use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::Instant;

/// Index of a recorded span.
pub type SpanId = usize;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// `<layer>:<what>`.
    pub name: String,
    /// Start, in nanoseconds since the recorder's origin.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder's origin.
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// The operation (chain run, grid point or job) it belongs to.
    pub op: u64,
    /// Time actually spent inside: `end - start` for a single call, the
    /// sum of the calls for a folded span.
    pub busy_ns: u64,
    /// Calls folded into the span (1 for a single call).
    pub calls: u64,
}

/// A thread-safe span store; spans stay in memory until [`Trace::write`].
#[derive(Debug)]
pub struct Trace {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Trace {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Trace {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Nanoseconds since the origin of `t`.
    pub fn ns(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Records a single call from `start` to `end`.
    pub fn span(
        &self,
        name: &str,
        start: Instant,
        end: Instant,
        parent: Option<SpanId>,
        op: u64,
    ) -> SpanId {
        let (s, e) = (self.ns(start), self.ns(end));
        self.push(Span {
            name: name.to_owned(),
            start_ns: s,
            end_ns: e,
            parent,
            op,
            busy_ns: e.saturating_sub(s),
            calls: 1,
        })
    }

    /// Records `calls` calls totalling `busy_ns`, all inside
    /// `start..end`.
    pub fn folded(
        &self,
        name: &str,
        (start, end): (Instant, Instant),
        parent: Option<SpanId>,
        op: u64,
        busy_ns: u64,
        calls: u64,
    ) -> SpanId {
        self.push(Span {
            name: name.to_owned(),
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            op,
            busy_ns,
            calls,
        })
    }

    /// Opens a span at `start`; [`Trace::close`] sets its end, so its
    /// children can name it as their parent while it runs.
    pub fn open(&self, name: &str, start: Instant, parent: Option<SpanId>, op: u64) -> SpanId {
        self.span(name, start, start, parent, op)
    }

    /// Ends a span opened with [`Trace::open`].
    pub fn close(&self, id: SpanId, end: Instant) {
        let e = self.ns(end);
        let mut spans = self.spans.lock().expect("no thread panics while recording");
        if let Some(s) = spans.get_mut(id) {
            s.end_ns = e;
            s.busy_ns = e.saturating_sub(s.start_ns);
        }
    }

    fn push(&self, span: Span) -> SpanId {
        let mut spans = self.spans.lock().expect("no thread panics while recording");
        spans.push(span);
        spans.len() - 1
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("no thread panics while recording")
            .clone()
    }

    /// Self time per layer in milliseconds and the layer's span count,
    /// layers in first-seen order.
    pub fn self_time_ms(&self) -> Vec<(String, f64, usize)> {
        let spans = self.spans();
        let mut child_busy = vec![0u64; spans.len()];
        for s in &spans {
            if let Some(p) = s.parent {
                child_busy[p] += s.busy_ns;
            }
        }
        let mut layers: Vec<(String, f64, usize)> = Vec::new();
        for (s, children) in spans.iter().zip(child_busy) {
            let layer = s.name.split(':').next().unwrap_or(&s.name);
            let own = s.busy_ns.saturating_sub(children) as f64 / 1e6;
            match layers.iter_mut().find(|(l, _, _)| l == layer) {
                Some((_, ms, n)) => {
                    *ms += own;
                    *n += 1;
                }
                None => layers.push((layer.to_owned(), own, 1)),
            }
        }
        layers
    }

    /// Writes every span as one JSON document.
    ///
    /// # Errors
    ///
    /// The I/O error from writing `path`.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = String::from("{\"schema\": \"perfbench-trace/v1\", \"spans\": [\n");
        for (i, s) in self.spans().iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{}{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"op\": {}, \"busy_ns\": {}, \"calls\": {}}}",
                if i > 0 { "," } else { "" },
                s.name,
                s.start_ns,
                s.end_ns,
                s.op,
                s.busy_ns,
                s.calls
            );
        }
        out.push_str("]}\n");
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_children() {
        let t = Trace::new();
        let a = Instant::now();
        let b = a + Duration::from_millis(10);
        let root = t.span("rfsim:graph", a, b, None, 0);
        t.folded("core:source", (a, b), Some(root), 0, 6_000_000, 4);
        let times = t.self_time_ms();
        assert_eq!(times[0], ("rfsim".to_owned(), 4.0, 1));
        assert_eq!(times[1], ("core".to_owned(), 6.0, 1));
    }
}
