//! The metric registry.
//!
//! An [`ObsRegistry`] owns counters, gauges, and histograms keyed by
//! `(family, labels)`, and one [`TraceStore`] of per-epoch timelines.
//! Handles come back as
//! `Arc`s so hot paths resolve their instrument once (at construction
//! time) and record with pure atomics afterwards — the get-or-create
//! lookup itself takes a mutex and is meant for setup, not per-event
//! use. There is no process-wide registry: a daemon builds one and
//! hands it to every layer it starts (`bgp-serve`'s `Metrics` is a set
//! of handles on it), and each test builds its own. A publisher puts
//! each epoch's timeline in the store of the registry it records on,
//! and an archive writer closes and persists the timelines of its own
//! registry's store, so an archived epoch carries its trace exactly
//! when the daemon hands both one registry.
//!
//! [`render_prometheus`](ObsRegistry::render_prometheus) emits
//! text-format v0.0.4: one `# HELP`/`# TYPE` preamble per family, then
//! every label set's samples — histograms as cumulative `_bucket{le=…}`
//! lines (seconds) plus `_sum`/`_count`.

use crate::hist::{write_seconds, Histogram, HistogramSnapshot, BUCKET_COUNT};
use crate::trace::TraceStore;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Add 1.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge that can move both ways (queue depths, error flags).
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// Add `d` (negative to decrement).
    pub fn add(&self, d: i64) {
        self.0.fetch_add(d, Ordering::Relaxed);
    }

    /// Set an absolute value.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// One registered instrument: its identity plus the shared value.
#[derive(Debug)]
struct MetricEntry<T> {
    family: String,
    help: String,
    labels: Vec<(String, String)>,
    value: Arc<T>,
}

impl<T> MetricEntry<T> {
    /// This entry against the key `(family, labels)`. Each instrument
    /// list is kept sorted by it, so a family's label sets are adjacent
    /// and the exposition and the per-family view need no sort pass.
    fn cmp_key(&self, family: &str, labels: &[(&str, &str)]) -> std::cmp::Ordering {
        self.family.as_str().cmp(family).then_with(|| {
            self.labels
                .iter()
                .map(|(k, v)| (k.as_str(), v.as_str()))
                .cmp(labels.iter().copied())
        })
    }
}

fn find_or_insert<T: Default>(
    entries: &Mutex<Vec<MetricEntry<T>>>,
    family: &str,
    help: &str,
    labels: &[(&str, &str)],
) -> Arc<T> {
    let mut guard = entries.lock().expect("registry lock");
    match guard.binary_search_by(|e| e.cmp_key(family, labels)) {
        Ok(at) => Arc::clone(&guard[at].value),
        Err(at) => {
            let value = Arc::new(T::default());
            guard.insert(
                at,
                MetricEntry {
                    family: family.to_string(),
                    help: help.to_string(),
                    labels: labels
                        .iter()
                        .map(|(k, v)| (k.to_string(), v.to_string()))
                        .collect(),
                    value: Arc::clone(&value),
                },
            );
            value
        }
    }
}

/// A histogram's identity and point-in-time state, for JSON rendering.
#[derive(Debug, Clone)]
pub struct HistogramEntrySnapshot {
    /// Metric family name (e.g. `bgp_stream_seal_duration_seconds`).
    pub family: String,
    /// Label pairs distinguishing this series within the family.
    pub labels: Vec<(String, String)>,
    /// The histogram state.
    pub snap: HistogramSnapshot,
}

/// Counters + gauges + histograms, and the per-epoch trace store.
#[derive(Debug, Default)]
pub struct ObsRegistry {
    counters: Mutex<Vec<MetricEntry<Counter>>>,
    gauges: Mutex<Vec<MetricEntry<Gauge>>>,
    hists: Mutex<Vec<MetricEntry<Histogram>>>,
    traces: Arc<TraceStore>,
}

impl ObsRegistry {
    /// An empty registry.
    pub fn new() -> ObsRegistry {
        ObsRegistry::default()
    }

    /// Get or create the counter `family{labels}`.
    pub fn counter(&self, family: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        find_or_insert(&self.counters, family, help, labels)
    }

    /// Get or create the gauge `family{labels}`.
    pub fn gauge(&self, family: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        find_or_insert(&self.gauges, family, help, labels)
    }

    /// Get or create the histogram `family{labels}`.
    pub fn histogram(&self, family: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Histogram> {
        find_or_insert(&self.hists, family, help, labels)
    }

    /// The per-epoch provenance timelines recorded on this registry.
    pub fn traces(&self) -> &Arc<TraceStore> {
        &self.traces
    }

    /// Point-in-time state of every histogram series, sorted by
    /// (family, labels).
    pub fn histogram_snapshots(&self) -> Vec<HistogramEntrySnapshot> {
        let guard = self.hists.lock().expect("registry lock");
        guard
            .iter()
            .map(|e| HistogramEntrySnapshot {
                family: e.family.clone(),
                labels: e.labels.clone(),
                snap: e.value.snapshot(),
            })
            .collect()
    }

    /// Append every registered metric in Prometheus text-format v0.0.4:
    /// counters, then gauges, then histograms, each sorted by (family,
    /// labels). One pass per instrument list, under its lock (recording
    /// goes through the `Arc` handles and never takes it), written
    /// straight into `out`.
    pub fn render_prometheus(&self, out: &mut String) {
        render_families(out, &self.counters, "counter", |out, e| {
            write_series(out, e, "", None);
            let _ = writeln!(out, " {}", e.value.get());
        });
        render_families(out, &self.gauges, "gauge", |out, e| {
            write_series(out, e, "", None);
            let _ = writeln!(out, " {}", e.value.get());
        });
        // The `le` bounds are the same for every series: format them once.
        let bounds: [String; BUCKET_COUNT] = std::array::from_fn(|i| {
            let mut le = String::new();
            write_seconds(&mut le, Histogram::bucket_bound_nanos(i));
            le
        });
        render_families(out, &self.hists, "histogram", |out, e| {
            let snap = e.value.snapshot();
            let mut cum = 0u64;
            for (le, &c) in bounds.iter().zip(&snap.buckets) {
                cum += c;
                write_series(out, e, "_bucket", Some(le));
                let _ = writeln!(out, " {cum}");
            }
            write_series(out, e, "_bucket", Some("+Inf"));
            let _ = writeln!(out, " {}", snap.count);
            write_series(out, e, "_sum", None);
            out.push(' ');
            write_seconds(out, snap.sum_nanos);
            out.push('\n');
            write_series(out, e, "_count", None);
            let _ = writeln!(out, " {}", snap.count);
        });
    }
}

/// Walk `entries` in order: the `# HELP`/`# TYPE` preamble where the
/// family changes, then `samples` for each entry.
fn render_families<T>(
    out: &mut String,
    entries: &Mutex<Vec<MetricEntry<T>>>,
    kind: &str,
    samples: impl Fn(&mut String, &MetricEntry<T>),
) {
    let guard = entries.lock().expect("registry lock");
    let mut last_family = "";
    for e in guard.iter() {
        if e.family != last_family {
            let (family, help) = (&e.family, &e.help);
            let _ = writeln!(out, "# HELP {family} {help}\n# TYPE {family} {kind}");
            last_family = family;
        }
        samples(out, e);
    }
}

/// Append the series name of one sample line: `family<suffix>{labels}`,
/// with the bucket bound `le` as the last label when given.
fn write_series<T>(out: &mut String, e: &MetricEntry<T>, suffix: &str, le: Option<&str>) {
    out.push_str(&e.family);
    out.push_str(suffix);
    if e.labels.is_empty() && le.is_none() {
        return;
    }
    out.push('{');
    for (k, v) in &e.labels {
        out.push_str(k);
        out.push_str("=\"");
        crate::logger::escape_json_into(out, v);
        out.push_str("\",");
    }
    match le {
        Some(le) => {
            out.push_str("le=\"");
            out.push_str(le);
            out.push('"');
        }
        None => {
            out.pop(); // the last pair's comma
        }
    }
    out.push('}');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_or_create_is_stable_per_family_and_labels() {
        let r = ObsRegistry::new();
        let a = r.counter("f_total", "help", &[("k", "a")]);
        let b = r.counter("f_total", "help", &[("k", "a")]);
        let c = r.counter("f_total", "help", &[("k", "b")]);
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3);
        assert_eq!(c.get(), 0);
    }

    #[test]
    fn gauge_moves_both_ways() {
        let r = ObsRegistry::new();
        let g = r.gauge("depth", "help", &[]);
        g.add(5);
        g.add(-2);
        assert_eq!(g.get(), 3);
        g.set(0);
        assert_eq!(g.get(), 0);
    }

    /// The page, byte for byte: HELP/TYPE once per family although
    /// `bgp_x_total`'s two label sets were registered either side of
    /// `bgp_a_total`; labelled and unlabelled counters; a negative
    /// gauge; a labelled and an unlabelled histogram series.
    #[test]
    fn prometheus_rendering_is_pinned_byte_for_byte() {
        let r = ObsRegistry::new();
        r.counter("bgp_x_total", "Things done", &[("kind", "b")])
            .add(1);
        r.counter("bgp_a_total", "Plain", &[]).add(4);
        r.counter("bgp_x_total", "Things done", &[("kind", "a")])
            .add(7);
        r.gauge("bgp_depth", "Queue depth", &[]).set(-2);
        let h = r.histogram("bgp_y_duration_seconds", "Y time", &[("kind", "a")]);
        h.record(300);
        h.record(300);
        h.record(70_000);
        r.histogram("bgp_z_duration_seconds", "Z time", &[]);

        let mut out = String::new();
        r.render_prometheus(&mut out);
        let (simple, hists) = out.split_at(out.find("# HELP bgp_y").expect("histograms"));
        assert_eq!(
            simple,
            r#"# HELP bgp_a_total Plain
# TYPE bgp_a_total counter
bgp_a_total 4
# HELP bgp_x_total Things done
# TYPE bgp_x_total counter
bgp_x_total{kind="a"} 7
bgp_x_total{kind="b"} 1
# HELP bgp_depth Queue depth
# TYPE bgp_depth gauge
bgp_depth -2
"#
        );
        // Per series: preamble, 32 finite buckets, +Inf, _sum, _count.
        // Buckets are cumulative: both 300 ns observations land by 512 ns.
        let per_series = 2 + BUCKET_COUNT + 3;
        let lines: Vec<&str> = hists.lines().collect();
        assert_eq!(lines.len(), 2 * per_series);
        assert_eq!(
            lines[..4].join("\n"),
            r#"# HELP bgp_y_duration_seconds Y time
# TYPE bgp_y_duration_seconds histogram
bgp_y_duration_seconds_bucket{kind="a",le="0.000000256"} 0
bgp_y_duration_seconds_bucket{kind="a",le="0.000000512"} 2"#
        );
        assert_eq!(
            lines[per_series - 4..per_series + 3].join("\n"),
            r#"bgp_y_duration_seconds_bucket{kind="a",le="549.755813888"} 3
bgp_y_duration_seconds_bucket{kind="a",le="+Inf"} 3
bgp_y_duration_seconds_sum{kind="a"} 0.0000706
bgp_y_duration_seconds_count{kind="a"} 3
# HELP bgp_z_duration_seconds Z time
# TYPE bgp_z_duration_seconds histogram
bgp_z_duration_seconds_bucket{le="0.000000256"} 0"#
        );
        assert!(out.ends_with(
            r#"bgp_z_duration_seconds_bucket{le="+Inf"} 0
bgp_z_duration_seconds_sum 0
bgp_z_duration_seconds_count 0
"#
        ));
    }

    #[test]
    fn histogram_snapshots_keep_each_label_set() {
        let r = ObsRegistry::new();
        r.histogram("t_seconds", "h", &[("k", "a")]).record(100);
        r.histogram("t_seconds", "h", &[("k", "b")]).record(200);

        let hists = r.histogram_snapshots();
        let family: Vec<_> = hists.iter().filter(|h| h.family == "t_seconds").collect();
        assert_eq!(family.len(), 2);
        assert_eq!(family.iter().map(|h| h.snap.count).sum::<u64>(), 2);
        assert_eq!(family.iter().map(|h| h.snap.sum_nanos).sum::<u64>(), 300);
        assert_eq!(family.iter().map(|h| h.snap.max_nanos).max(), Some(200));
        let labels: Vec<_> = family.iter().map(|h| h.labels[0].1.as_str()).collect();
        assert_eq!(labels, ["a", "b"]);
    }
}
