//! The benchmark's own spans, recorded around its calls into each
//! layer. Spans stay in memory (one buffer per thread) and are written
//! as one chrome-trace JSON file when the run ends. A disabled buffer
//! reads no clock, so the untraced run pays one branch per call site.

use std::io::Write;
use std::path::Path;
use std::sync::OnceLock;
use std::time::Instant;

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub tid: u32,
    pub id: u64,
    /// The enclosing span on the same thread (`0` = none).
    pub parent: u64,
    /// The operation (request, kernel run, compile unit) the span
    /// belongs to: spans of one operation share it.
    pub op: u64,
    pub start_ns: u64,
    pub dur_ns: u64,
}

/// One thread's spans.
pub struct SpanBuf {
    enabled: bool,
    tid: u32,
    next_id: u64,
    open: Vec<(u64, &'static str, u64, u64)>,
    spans: Vec<Span>,
}

/// Handle of an open span; pass it back to [`SpanBuf::end`].
#[must_use]
pub struct Open(u64);

impl SpanBuf {
    pub fn new(enabled: bool, tid: u32) -> SpanBuf {
        epoch();
        SpanBuf {
            enabled,
            tid,
            next_id: (tid as u64) << 40,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    pub fn begin(&mut self, name: &'static str, op: u64) -> Open {
        if !self.enabled {
            return Open(0);
        }
        self.next_id += 1;
        let id = self.next_id;
        let start = epoch().elapsed().as_nanos() as u64;
        self.open.push((id, name, op, start));
        Open(id)
    }

    pub fn end(&mut self, open: Open) {
        if !self.enabled {
            return;
        }
        let now = epoch().elapsed().as_nanos() as u64;
        let (id, name, op, start) = self.open.pop().expect("span end without begin");
        assert_eq!(id, open.0, "spans must close innermost first");
        let parent = self.open.last().map(|o| o.0).unwrap_or(0);
        self.spans.push(Span {
            name,
            tid: self.tid,
            id,
            parent,
            op,
            start_ns: start,
            dur_ns: now - start,
        });
    }

    /// Runs `f` inside a span named `name`.
    pub fn scope<R>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> R) -> R {
        let s = self.begin(name, op);
        let r = f();
        self.end(s);
        r
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Every span of a run, merged from the per-thread buffers.
#[derive(Default)]
pub struct Trace {
    pub spans: Vec<Span>,
}

impl Trace {
    pub fn absorb(&mut self, buf: SpanBuf) {
        self.spans.extend(buf.into_spans());
    }

    /// Median duration (µs) of the spans called `name`.
    pub fn median_us(&self, name: &str) -> f64 {
        let us: Vec<f64> = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns as f64 / 1e3)
            .collect();
        crate::util::median(&us)
    }

    /// Writes the spans as chrome-trace JSON (loadable in Perfetto).
    pub fn write_chrome(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{{\"traceEvents\": [")?;
        for (k, s) in self.spans.iter().enumerate() {
            let sep = if k + 1 == self.spans.len() { "" } else { "," };
            writeln!(
                out,
                "{{\"name\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": {}, \"ts\": {:.3}, \"dur\": {:.3}, \"args\": {{\"id\": {}, \"parent\": {}, \"op\": {}}}}}{sep}",
                s.name,
                s.tid,
                s.start_ns as f64 / 1e3,
                s.dur_ns as f64 / 1e3,
                s.id,
                s.parent,
                s.op,
            )?;
        }
        writeln!(out, "]}}")?;
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_know_their_parent() {
        let mut buf = SpanBuf::new(true, 3);
        let outer = buf.begin("outer", 9);
        buf.scope("inner", 9, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        buf.end(outer);
        let mut t = Trace::default();
        t.absorb(buf);
        assert_eq!(t.spans.len(), 2);
        let inner = &t.spans[0];
        let outer = &t.spans[1];
        assert_eq!(inner.parent, outer.id);
        assert_eq!(outer.parent, 0);
        assert!(outer.dur_ns >= inner.dur_ns && inner.dur_ns >= 2_000_000);
    }

    #[test]
    fn disabled_buffer_records_nothing() {
        let mut buf = SpanBuf::new(false, 0);
        buf.scope("x", 1, || ());
        assert!(buf.into_spans().is_empty());
    }
}
