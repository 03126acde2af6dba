//! In-memory spans and counters recorded around calls into each layer.
//!
//! Spans are kept in memory while the benchmark runs and written out as
//! JSON Lines when it ends. They are recorded only from the benchmark's
//! own files, around public functions of the layer crates; nothing is
//! recorded inside the program. A disabled recorder keeps nothing and
//! costs one branch per call, which is how the end-to-end runs use it.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed call into a layer.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The job (compile-and-run job, configuration or session) it served.
    pub job: u64,
}

impl Span {
    pub fn ns(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64
    }
}

/// The recorder: spans plus named counters measured at the same places.
pub struct Spans {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    counters: BTreeMap<&'static str, f64>,
}

impl Spans {
    pub fn new(enabled: bool) -> Self {
        Spans {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            counters: BTreeMap::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Run `f` inside a span named `name` for `job`. Spans opened by `f`
    /// get this one as their parent.
    pub fn span<T>(&mut self, name: &'static str, job: u64, f: impl FnOnce(&mut Self) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            job,
        });
        self.open.push(index);
        let value = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.now_ns();
        value
    }

    /// Record an already measured interval as a span (for work timed
    /// on another thread, such as a pool worker).
    pub fn record(&mut self, name: &'static str, job: u64, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        let start_ns = start.saturating_duration_since(self.origin).as_nanos() as u64;
        let end_ns = end.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: end_ns.max(start_ns),
            parent: self.open.last().copied(),
            job,
        });
    }

    /// Record a span of `ns` nanoseconds that ended now (for work the
    /// caller timed itself, such as one call in a loop).
    pub fn record_ns(&mut self, name: &'static str, job: u64, ns: f64) {
        if !self.enabled {
            return;
        }
        let end_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: end_ns.saturating_sub(ns as u64),
            end_ns,
            parent: self.open.last().copied(),
            job,
        });
    }

    /// Add `by` to counter `name`.
    pub fn count(&mut self, name: &'static str, by: f64) {
        if self.enabled {
            *self.counters.entry(name).or_insert(0.0) += by;
        }
    }

    pub fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0.0)
    }

    /// Durations in nanoseconds of every span named `name`.
    pub fn durations_ns(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ns)
            .collect()
    }

    /// Total nanoseconds spent in spans named `name`.
    pub fn total_ns(&self, name: &str) -> f64 {
        self.durations_ns(name).iter().sum()
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Write every span, then every counter, as JSON Lines.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"job\": {}}}",
                s.name, s.start_ns, s.end_ns, s.job
            )?;
        }
        for (name, value) in &self.counters {
            writeln!(out, "{{\"counter\": \"{name}\", \"value\": {value}}}")?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_their_parent() {
        let mut s = Spans::new(true);
        s.span("outer", 7, |s| s.span("inner", 7, |_| ()));
        assert_eq!(s.spans.len(), 2);
        assert_eq!(s.spans[1].parent, Some(0));
        assert_eq!(s.spans[0].parent, None);
        assert!(s.spans[0].end_ns >= s.spans[1].end_ns);
    }

    #[test]
    fn disabled_recorder_keeps_nothing() {
        let mut s = Spans::new(false);
        assert_eq!(s.span("outer", 1, |_| 5), 5);
        s.count("c", 1.0);
        assert!(s.spans.is_empty() && s.counter("c") == 0.0);
    }
}
