//! In-memory span recorder for the traced run.
//!
//! Spans are recorded around the benchmark's own calls into each layer's
//! public function (never inside the program). Each span has a name, a
//! start and end, the span that caused it, and the job it belongs to.
//! They stay in memory until the run ends and are then written out as
//! NDJSON. A layer's self time is its duration minus what its child
//! spans cover.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub job: u64,
    pub parent: Option<usize>,
    pub start_us: f64,
    pub end_us: f64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_us - self.start_us) / 1e3
    }
}

/// Records spans on the driving thread. Layers may run worker threads
/// internally; the spans bracket the calls that block on them.
pub struct Tracer {
    epoch: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
    counts: RefCell<BTreeMap<&'static str, f64>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
            counts: RefCell::new(BTreeMap::new()),
        }
    }
}

impl Tracer {
    pub fn new() -> Self {
        Self::default()
    }

    /// A tracer whose span times count from `epoch`.
    pub fn with_epoch(epoch: Instant) -> Self {
        Tracer {
            epoch,
            ..Self::default()
        }
    }

    fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    /// Run `f` inside a span named `name`, child of the innermost open
    /// span.
    pub fn span<T>(&self, name: &'static str, job: u64, f: impl FnOnce() -> T) -> T {
        let id = {
            let mut spans = self.spans.borrow_mut();
            let parent = self.open.borrow().last().copied();
            spans.push(Span {
                name,
                job,
                parent,
                start_us: self.now_us(),
                end_us: f64::NAN,
            });
            spans.len() - 1
        };
        self.open.borrow_mut().push(id);
        let out = f();
        self.open.borrow_mut().pop();
        self.spans.borrow_mut()[id].end_us = self.now_us();
        out
    }

    /// Record an already finished span, e.g. one timed on another
    /// thread; returns its id for use as a parent.
    pub fn record(
        &self,
        name: &'static str,
        job: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        let us = |t: Instant| t.saturating_duration_since(self.epoch).as_secs_f64() * 1e6;
        let mut spans = self.spans.borrow_mut();
        spans.push(Span {
            name,
            job,
            parent,
            start_us: us(start),
            end_us: us(end),
        });
        spans.len() - 1
    }

    /// Add `v` to the counter `name`.
    pub fn count(&self, name: &'static str, v: f64) {
        *self.counts.borrow_mut().entry(name).or_insert(0.0) += v;
    }

    pub fn counter(&self, name: &str) -> f64 {
        self.counts.borrow().get(name).copied().unwrap_or(0.0)
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.borrow().clone()
    }

    /// Total duration of every span named `name`, in milliseconds.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.spans
            .borrow()
            .iter()
            .filter(|s| s.name == name)
            .fold(0.0, |total, s| total + s.ms())
    }

    /// Total self time of every span named `name`: duration minus the
    /// time covered by direct children (children never overlap, since
    /// they are opened and closed on one thread).
    pub fn self_ms(&self, name: &str) -> f64 {
        let spans = self.spans.borrow();
        let mut child_ms = vec![0.0; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                child_ms[p] += s.ms();
            }
        }
        spans
            .iter()
            .zip(child_ms)
            .filter(|(s, _)| s.name == name)
            .fold(0.0, |total, (s, c)| total + s.ms() - c)
    }

    /// Self time per span name, over every recorded span.
    pub fn self_ms_by_name(&self) -> BTreeMap<&'static str, f64> {
        let names: Vec<&'static str> = self.spans.borrow().iter().map(|s| s.name).collect();
        let mut out = BTreeMap::new();
        for n in names {
            if !out.contains_key(n) {
                out.insert(n, self.self_ms(n));
            }
        }
        out
    }

    /// Write every span as one NDJSON line.
    pub fn write_ndjson(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.borrow().iter().enumerate() {
            let line = serde_json::json!({
                "id": id,
                "name": s.name,
                "job": s.job,
                "parent": s.parent,
                "start_us": s.start_us,
                "end_us": s.end_us,
            });
            writeln!(out, "{line}")?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let t = Tracer::new();
        t.span("job", 1, || {
            t.span("a", 1, || {
                std::thread::sleep(std::time::Duration::from_millis(20))
            });
            std::thread::sleep(std::time::Duration::from_millis(5));
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(t.self_ms("a") >= 20.0);
        let job_self = t.self_ms("job");
        assert!((5.0..20.0).contains(&job_self), "{job_self}");
        assert!((t.total_ms("job") - t.self_ms("a") - job_self).abs() < 1e-6);
    }
}
