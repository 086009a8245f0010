//! Spans recorded from outside the program, around the calls into each
//! layer's public functions. Kept in memory during the run, written out
//! once at exit. A span's *self* time is its duration minus what its
//! child spans cover, so a layer is never charged for the layers it
//! calls. Only the `--trace 1` run records anything; the end-to-end
//! numbers come from the run that does not.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

pub struct Span {
    /// Layer and call, named after the obs stage it brackets.
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that was open when this one began.
    pub parent: Option<usize>,
    /// Which repetition of the workload the span belongs to.
    pub trial: u32,
    /// Work done inside the span (entries, events, tuples, bytes, ...).
    pub units: u64,
}

/// Totals of every span sharing one name.
#[derive(Default, Clone, Copy)]
pub struct Totals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
    pub units: u64,
}

impl Totals {
    /// Mean nanoseconds per unit of work, 0 when no work was recorded.
    pub fn ns_per_unit(&self) -> f64 {
        crate::stats::ratio(self.total_ns as f64, self.units as f64)
    }
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    trial: u32,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            trial: 0,
        }
    }

    pub fn set_trial(&mut self, trial: u32) {
        self.trial = trial;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span as a child of the innermost open one.
    pub fn open(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            trial: self.trial,
            units: 0,
        });
        self.open.push(id);
        id
    }

    /// Close the innermost span, which must be `id`.
    pub fn close(&mut self, id: usize, units: u64) {
        let end = self.now_ns();
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end_ns = end;
        self.spans[id].units = units;
    }

    /// Time one call as a leaf span.
    pub fn leaf<T>(&mut self, name: &'static str, f: impl FnOnce() -> (T, u64)) -> T {
        let id = self.open(name);
        let (out, units) = f();
        self.close(id, units);
        out
    }

    /// Record a span measured elsewhere (another thread's tick record),
    /// as a child of the innermost open span.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant, units: u64) {
        let at = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: at(start),
            end_ns: at(end),
            parent: self.open.last().copied(),
            trial: self.trial,
            units,
        });
    }

    /// Durations, in nanoseconds, of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .collect()
    }

    /// Per-name totals, in first-seen order.
    pub fn totals(&self) -> Vec<(&'static str, Totals)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: Vec<(&'static str, Totals)> = Vec::new();
        for (i, s) in self.spans.iter().enumerate() {
            let dur = s.end_ns - s.start_ns;
            let slot = match out.iter().position(|(n, _)| *n == s.name) {
                Some(at) => at,
                None => {
                    out.push((s.name, Totals::default()));
                    out.len() - 1
                }
            };
            let t = &mut out[slot].1;
            t.count += 1;
            t.total_ns += dur;
            t.self_ns += dur.saturating_sub(child_ns[i]);
            t.units += s.units;
        }
        out
    }

    /// Totals of one name (zeros when no such span was recorded).
    pub fn total(&self, name: &str) -> Totals {
        self.totals()
            .into_iter()
            .find(|(n, _)| *n == name)
            .map_or_else(Totals::default, |(_, t)| t)
    }

    /// Write every span and the per-name totals as one JSON document.
    pub fn write_json(&self, path: &Path, workload: &str, seed: u64) -> std::io::Result<()> {
        let mut out = String::with_capacity(64 + self.spans.len() * 96);
        let _ = write!(
            out,
            "{{\"workload\":\"{workload}\",\"seed\":{seed},\"by_name\":["
        );
        for (i, (name, t)) in self.totals().iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                out,
                "{sep}\n{{\"name\":\"{name}\",\"count\":{},\"total_ns\":{},\"self_ns\":{},\"units\":{}}}",
                t.count, t.total_ns, t.self_ns, t.units
            );
        }
        out.push_str("\n],\"spans\":[");
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{sep}\n{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"trial\":{},\"units\":{}}}",
                s.name, s.start_ns, s.end_ns, s.trial, s.units
            );
        }
        out.push_str("\n]}\n");
        std::fs::write(path, out)
    }
}
