//! In-memory span recorder for the traced run.
//!
//! A span is a name, a start, an end and the span that was open when it
//! began. Spans live in memory until the run ends, when
//! [`Tracer::write_jsonl`] writes them out one per line. A disabled
//! tracer records nothing, so the untraced run pays one branch per span.
//!
//! Naming: top-level spans are the workload's own steps; spans named
//! `trace.*` hold work only the traced run does (repeating a layer's call
//! on the same input to time it) and are left out of span coverage.

use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start: Duration,
    pub end: Duration,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end - self.start).as_secs_f64()
    }
}

/// Handle of an open span.
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<usize>);

/// The recorder.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    /// Start of the workload's steps (set-up excluded).
    mark: Duration,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            mark: Duration::ZERO,
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Marks the start of the workload's steps: set-up ends here.
    pub fn mark(&mut self) {
        self.mark = self.origin.elapsed();
    }

    /// Seconds since [`Tracer::mark`].
    pub fn since_mark(&self) -> f64 {
        (self.origin.elapsed() - self.mark).as_secs_f64()
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let now = self.origin.elapsed();
        self.spans.push(Span {
            name,
            parent: self.stack.last().copied(),
            start: now,
            end: now,
        });
        self.stack.push(self.spans.len() - 1);
        Open(Some(self.spans.len() - 1))
    }

    /// Closes `open`, which must be the innermost open span.
    pub fn end(&mut self, open: Open) {
        let Some(i) = open.0 else { return };
        let popped = self.stack.pop();
        debug_assert_eq!(popped, Some(i), "spans close innermost first");
        self.spans[i].end = self.origin.elapsed();
    }

    /// Times one call as a leaf span.
    pub fn leaf<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let open = self.begin(name);
        let out = f();
        self.end(open);
        out
    }

    /// Records an interval measured elsewhere (e.g. between two observer
    /// callbacks) as a leaf span under the innermost open one.
    pub fn interval(&mut self, name: &'static str, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        self.spans.push(Span {
            name,
            parent: self.stack.last().copied(),
            start: start.saturating_duration_since(self.origin),
            end: end.saturating_duration_since(self.origin),
        });
    }

    /// Durations in seconds of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .collect()
    }

    /// Seconds spent in top-level spans since the mark:
    /// `(workload steps, trace-only work)`.
    pub fn top_level_secs(&self) -> (f64, f64) {
        let mut steps = 0.0;
        let mut trace_only = 0.0;
        for s in self
            .spans
            .iter()
            .filter(|s| s.parent.is_none() && s.start >= self.mark)
        {
            if s.name.starts_with("trace.") {
                trace_only += s.secs();
            } else {
                steps += s.secs();
            }
        }
        (steps, trace_only)
    }

    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let file = std::fs::File::create(path)?;
        let mut out = std::io::BufWriter::new(file);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name,
                s.start.as_nanos(),
                s.end.as_nanos()
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_parents_and_split_top_level_time() {
        let mut t = Tracer::new(true);
        let outer = t.begin("step");
        t.leaf("layer", || ());
        t.end(outer);
        let replica = t.begin("trace.replica");
        t.leaf("layer", || ());
        t.end(replica);
        assert_eq!(t.len(), 4);
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.spans[3].parent, Some(2));
        assert_eq!(t.durations("layer").len(), 2);
        let (steps, trace_only) = t.top_level_secs();
        assert!(steps >= 0.0 && trace_only >= 0.0);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let open = t.begin("step");
        assert_eq!(t.leaf("layer", || 7), 7);
        t.end(open);
        t.interval("x", Instant::now(), Instant::now());
        assert_eq!(t.len(), 0);
    }
}
