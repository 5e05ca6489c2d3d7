//! Wall-clock spans around the benchmark's calls into each layer's public API.
//!
//! A span has a name (`layer.call`), a start, an end, its parent span and the
//! id of the message it belongs to. Spans are kept in memory and written out
//! when the run ends. Every span also folds into a per-name total and self
//! time (its duration minus the part its child spans cover), so the report
//! can name where wall time went and how much of it no span covers.
//!
//! A disabled tracer records nothing: [`Tracer::span`] then only calls the
//! wrapped closure, which is how the untraced run measures.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// At most this many span records are kept for the written trace; later spans
/// still count into the per-name totals.
const KEPT_SPANS: usize = 50_000;

/// Message id used for spans that belong to no single message (set-up, the
/// measured loop as a whole).
pub const NO_MSG: u64 = u64::MAX;

#[derive(Debug, Clone, Copy)]
struct Span {
    id: u32,
    name: &'static str,
    msg: u64,
    parent: u32,
    start_ns: u64,
    end_ns: u64,
}

#[derive(Debug, Clone, Copy, Default)]
pub struct SpanTotal {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

struct Open {
    name: &'static str,
    msg: u64,
    id: u32,
    start: Instant,
    child_ns: u64,
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    dropped: u64,
    next_id: u32,
    stack: Vec<Open>,
    totals: BTreeMap<&'static str, SpanTotal>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            dropped: 0,
            next_id: 0,
            stack: Vec::new(),
            totals: BTreeMap::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Run `f` inside a span named `name` for message `msg`.
    #[inline]
    pub fn span<T>(&mut self, name: &'static str, msg: u64, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        self.open(name, msg);
        let out = f();
        self.close();
        out
    }

    pub fn open(&mut self, name: &'static str, msg: u64) {
        if !self.enabled {
            return;
        }
        self.next_id += 1;
        self.stack.push(Open {
            name,
            msg,
            id: self.next_id,
            start: Instant::now(),
            child_ns: 0,
        });
    }

    pub fn close(&mut self) {
        if !self.enabled {
            return;
        }
        let end = Instant::now();
        let open = self.stack.pop().expect("close without a matching open");
        let dur = end.duration_since(open.start).as_nanos() as u64;
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += dur;
        }
        let total = self.totals.entry(open.name).or_default();
        total.count += 1;
        total.total_ns += dur;
        total.self_ns += dur.saturating_sub(open.child_ns);
        if self.spans.len() < KEPT_SPANS {
            let start_ns = open.start.duration_since(self.origin).as_nanos() as u64;
            self.spans.push(Span {
                id: open.id,
                name: open.name,
                msg: open.msg,
                parent: self.stack.last().map_or(0, |p| p.id),
                start_ns,
                end_ns: start_ns + dur,
            });
        } else {
            self.dropped += 1;
        }
    }

    pub fn total(&self, name: &str) -> SpanTotal {
        self.totals.get(name).copied().unwrap_or_default()
    }

    /// Self time summed over every span whose name starts with `layer.`.
    pub fn layer_self_ns(&self, layer: &str) -> u64 {
        self.totals
            .iter()
            .filter(|(name, _)| name.split('.').next() == Some(layer))
            .map(|(_, t)| t.self_ns)
            .sum()
    }

    /// Write every kept span as one JSON object per line, after `header`.
    pub fn write(&self, path: &std::path::Path, header: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{header}")?;
        for s in &self.spans {
            writeln!(
                out,
                "{{\"id\": {}, \"name\": \"{}\", \"msg\": {}, \"parent\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
                s.id,
                s.name,
                if s.msg == NO_MSG { -1 } else { s.msg as i64 },
                s.parent,
                s.start_ns,
                s.end_ns
            )?;
        }
        writeln!(out, "{{\"dropped_spans\": {}}}", self.dropped)?;
        out.flush()
    }
}
