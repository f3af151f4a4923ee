//! Spans recorded around the calls into the engine, kept in memory and
//! written as Chrome-trace JSON when the run ends (open the file in
//! `chrome://tracing` or <https://ui.perfetto.dev>).

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// No span: the parent of the run span, the statement of a round span.
pub const NONE: u32 = u32::MAX;

/// A span's id is its index in [`Trace::spans`].
pub struct Span {
    pub parent: u32,
    /// Index of the statement in the workload's statement table.
    pub stmt: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub dur_ns: u64,
}

/// Counter values sampled at a round boundary.
pub struct Counters {
    pub at_ns: u64,
    pub values: Vec<(&'static str, u64)>,
}

pub struct Trace {
    origin: Instant,
    pub spans: Vec<Span>,
    pub counters: Vec<Counters>,
}

impl Trace {
    pub fn new() -> Trace {
        Trace { origin: Instant::now(), spans: Vec::new(), counters: Vec::new() }
    }

    /// Nanoseconds since the trace began.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Records a finished span and returns its id.
    pub fn span(
        &mut self,
        parent: u32,
        stmt: u32,
        name: &'static str,
        start_ns: u64,
        dur_ns: u64,
    ) -> u32 {
        let id = self.spans.len() as u32;
        self.spans.push(Span { parent, stmt, name, start_ns, dur_ns });
        id
    }

    /// Opens a span whose end is not known yet; close it with [`Trace::end`].
    pub fn begin(&mut self, parent: u32, name: &'static str) -> u32 {
        let now = self.now_ns();
        self.span(parent, NONE, name, now, 0)
    }

    pub fn end(&mut self, id: u32) {
        let now = self.now_ns();
        let span = &mut self.spans[id as usize];
        span.dur_ns = now - span.start_ns;
    }

    pub fn sample_counters(&mut self, values: Vec<(&'static str, u64)>) {
        let at_ns = self.now_ns();
        self.counters.push(Counters { at_ns, values });
    }

    /// Writes the trace as Chrome-trace JSON: one complete (`X`) event
    /// per span with its id, parent and statement in `args`, one counter
    /// (`C`) event per sampled value.
    pub fn write_chrome(&self, path: &Path, sql_of: impl Fn(u32) -> String) -> std::io::Result<()> {
        let mut out = String::with_capacity(self.spans.len() * 120 + 64);
        out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        for (id, s) in self.spans.iter().enumerate() {
            if id > 0 {
                out.push_str(",\n");
            }
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{},\"parent\":{},\"stmt\":{}",
                s.name,
                s.start_ns as f64 / 1e3,
                s.dur_ns as f64 / 1e3,
                id,
                if s.parent == NONE { -1 } else { i64::from(s.parent) },
                if s.stmt == NONE { -1 } else { i64::from(s.stmt) },
            );
            if s.name == "statement" {
                let _ = write!(out, ",\"sql\":{}", crate::report::json_string(&sql_of(s.stmt)));
            }
            out.push_str("}}");
        }
        for c in &self.counters {
            for (name, value) in &c.values {
                let _ = write!(
                    out,
                    ",\n{{\"name\":\"{name}\",\"ph\":\"C\",\"pid\":1,\"ts\":{:.3},\
                     \"args\":{{\"value\":{value}}}}}",
                    c.at_ns as f64 / 1e3
                );
            }
        }
        out.push_str("\n]}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}
