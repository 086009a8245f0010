//! The serving layer's instruments: a set of handles on the
//! [`ObsRegistry`].
//!
//! One [`Metrics`] instance is shared between the API handler, the
//! publisher, the ingest driver and the health state. It stores nothing
//! itself: every field is an `Arc` handle resolved once on the registry
//! (the daemon's one registry, which it also hands to every other layer
//! it starts), so recording is pure atomics and `/metrics`,
//! `/v1/debug/timings` and `/healthz` all read the same store. The
//! registry is the only Prometheus renderer; this module has none.

use crate::snapshot::ServeSnapshot;
use obs::{Counter, Gauge, Histogram, ObsRegistry};
use std::sync::Arc;

/// The API endpoints metered individually.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Endpoint {
    /// `/v1/class/{asn}`
    Class,
    /// `/v1/classes`
    Classes,
    /// `/v1/community/{community}`
    Community,
    /// `/v1/flips`
    Flips,
    /// `/v1/reclassify`
    Reclassify,
    /// `/v1/stats`
    Stats,
    /// `/v1/epochs`
    Epochs,
    /// `/v1/history/{asn}`
    History,
    /// `/healthz`
    Health,
    /// `/metrics`
    Metrics,
    /// `/v1/debug/timings`
    DebugTimings,
    /// `/v1/debug/epoch/{epoch}/trace`
    EpochTrace,
    /// `/v1/version`
    Version,
    /// Anything that matched no route.
    Other,
}

impl Endpoint {
    /// Every metered endpoint, in label/index order.
    pub const ALL: [Endpoint; 14] = [
        Endpoint::Class,
        Endpoint::Classes,
        Endpoint::Community,
        Endpoint::Flips,
        Endpoint::Reclassify,
        Endpoint::Stats,
        Endpoint::Epochs,
        Endpoint::History,
        Endpoint::Health,
        Endpoint::Metrics,
        Endpoint::DebugTimings,
        Endpoint::EpochTrace,
        Endpoint::Version,
        Endpoint::Other,
    ];

    /// Stable label for exposition (`endpoint="…"`).
    pub fn label(self) -> &'static str {
        match self {
            Endpoint::Class => "class",
            Endpoint::Classes => "classes",
            Endpoint::Community => "community",
            Endpoint::Flips => "flips",
            Endpoint::Reclassify => "reclassify",
            Endpoint::Stats => "stats",
            Endpoint::Epochs => "epochs",
            Endpoint::History => "history",
            Endpoint::Health => "healthz",
            Endpoint::Metrics => "metrics",
            Endpoint::DebugTimings => "debug_timings",
            Endpoint::EpochTrace => "epoch_trace",
            Endpoint::Version => "version",
            Endpoint::Other => "other",
        }
    }

    /// Position in [`Endpoint::ALL`] (dense array index).
    pub fn index(self) -> usize {
        self as usize
    }
}

/// Status classes of `bgp_serve_http_responses_total{class=…}`.
const RESPONSE_CLASSES: [&str; 3] = ["2xx", "4xx", "5xx"];

/// Registry handles for everything the serving layer counts.
#[derive(Debug)]
pub struct Metrics {
    obs: Arc<ObsRegistry>,
    /// `bgp_serve_http_request_duration_seconds{endpoint=…}`, indexed by
    /// [`Endpoint::index`]; its `_count` is the per-endpoint request
    /// count.
    requests: [Arc<Histogram>; Endpoint::ALL.len()],
    /// `bgp_serve_http_responses_total{class=…}`, in
    /// [`RESPONSE_CLASSES`] order.
    responses: [Arc<Counter>; RESPONSE_CLASSES.len()],
    /// The ingest side's handles, which the publisher, the driver and
    /// the health state move and read in place:
    /// `bgp_serve_epochs_published_total`,
    pub(crate) epochs_published: Arc<Counter>,
    /// `bgp_serve_events_ingested_total`,
    pub(crate) events_ingested: Arc<Counter>,
    /// `bgp_serve_quarantined_total` (as each driver batch is pulled),
    pub(crate) records_quarantined: Arc<Counter>,
    /// `bgp_serve_publish_duration_seconds`,
    pub(crate) publish: Arc<Histogram>,
    /// `bgp_serve_ingest_batch_duration_seconds`,
    pub(crate) ingest_batch: Arc<Histogram>,
    /// `bgp_serve_seal_queue_depth`.
    pub(crate) seal_queue_depth: Arc<Gauge>,
    snapshot_version: Arc<Gauge>,
    snapshot_records: Arc<Gauge>,
    snapshot_total_events: Arc<Gauge>,
    snapshot_unique_tuples: Arc<Gauge>,
}

impl Default for Metrics {
    fn default() -> Self {
        Metrics::new()
    }
}

impl Metrics {
    /// Handles on a fresh private registry.
    pub fn new() -> Self {
        Metrics::with_registry(Arc::default())
    }

    /// Handles on `obs`, the registry the daemon renders.
    pub fn with_registry(obs: Arc<ObsRegistry>) -> Self {
        let requests = Endpoint::ALL.map(|e| {
            obs.histogram(
                "bgp_serve_http_request_duration_seconds",
                "Wall time to dispatch one HTTP request, by endpoint",
                &[("endpoint", e.label())],
            )
        });
        let responses = RESPONSE_CLASSES.map(|class| {
            obs.counter(
                "bgp_serve_http_responses_total",
                "Responses, by status class.",
                &[("class", class)],
            )
        });
        Metrics {
            requests,
            responses,
            epochs_published: obs.counter(
                "bgp_serve_epochs_published_total",
                "Epoch snapshots published to the serving slot.",
                &[],
            ),
            events_ingested: obs.counter(
                "bgp_serve_events_ingested_total",
                "Stream events pushed by the ingest driver.",
                &[],
            ),
            records_quarantined: obs.counter(
                "bgp_serve_quarantined_total",
                "Malformed records and chunks the ingest driver quarantined.",
                &[],
            ),
            publish: obs.histogram(
                "bgp_serve_publish_duration_seconds",
                "Wall time to build and publish one ServeSnapshot",
                &[],
            ),
            ingest_batch: obs.histogram(
                "bgp_serve_ingest_batch_duration_seconds",
                "Wall time to push one ingest batch through the pipeline (including any seals)",
                &[],
            ),
            seal_queue_depth: obs.gauge(
                "bgp_serve_seal_queue_depth",
                "Event batches queued between the feed puller and the sealer worker",
                &[],
            ),
            snapshot_version: obs.gauge(
                "bgp_serve_snapshot_version",
                "Version of the snapshot currently served.",
                &[],
            ),
            snapshot_records: obs.gauge(
                "bgp_serve_snapshot_records",
                "Classified AS records in the served snapshot.",
                &[],
            ),
            snapshot_total_events: obs.gauge(
                "bgp_serve_snapshot_total_events",
                "Stream events behind the served snapshot.",
                &[],
            ),
            snapshot_unique_tuples: obs.gauge(
                "bgp_serve_snapshot_unique_tuples",
                "Unique tuples behind the served snapshot.",
                &[],
            ),
            obs,
        }
    }

    /// The registry the handles live on — what `/metrics` renders and
    /// the debug routes read.
    pub fn registry(&self) -> &Arc<ObsRegistry> {
        &self.obs
    }

    /// Record one request to `endpoint` answered with `status` after
    /// `nanos` in the handler.
    pub fn observe(&self, endpoint: Endpoint, status: u16, nanos: u64) {
        self.requests[endpoint.index()].record(nanos);
        let class = match status {
            200..=299 => 0,
            400..=499 => 1,
            _ => 2,
        };
        self.responses[class].inc();
    }

    /// Point the `bgp_serve_snapshot_*` gauges at `snapshot` (the one a
    /// `/metrics` request loaded, so the page describes what is served).
    pub fn observe_snapshot(&self, snapshot: &ServeSnapshot) {
        let set = |gauge: &Gauge, v: u64| gauge.set(i64::try_from(v).unwrap_or(i64::MAX));
        set(&self.snapshot_version, snapshot.version());
        set(&self.snapshot_records, snapshot.records.len() as u64);
        let (events, tuples) = snapshot
            .epoch
            .as_deref()
            .map_or((0, 0), |e| (e.total_events, e.unique_tuples as u64));
        set(&self.snapshot_total_events, events);
        set(&self.snapshot_unique_tuples, tuples);
    }

    /// Total requests across all endpoints.
    pub fn total_requests(&self) -> u64 {
        self.requests.iter().map(|h| h.count()).sum()
    }

    /// Requests observed for one endpoint.
    pub fn requests_for(&self, endpoint: Endpoint) -> u64 {
        self.requests[endpoint.index()].count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgp_infer::counters::Thresholds;

    #[test]
    fn endpoint_index_is_the_position_in_all() {
        for (i, e) in Endpoint::ALL.iter().enumerate() {
            assert_eq!(e.index(), i, "{e:?}");
        }
        let mut labels: Vec<&str> = Endpoint::ALL.iter().map(|e| e.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), Endpoint::ALL.len(), "labels are distinct");
    }

    #[test]
    fn observations_land_on_the_registry() {
        let obs = Arc::new(ObsRegistry::new());
        let m = Metrics::with_registry(Arc::clone(&obs));
        m.observe(Endpoint::Class, 200, 1_000);
        m.observe(Endpoint::Class, 404, 1_000);
        m.observe(Endpoint::Health, 503, 1_000);
        m.epochs_published.inc();
        m.events_ingested.add(42);
        m.observe_snapshot(&ServeSnapshot::empty(Thresholds::default()));
        assert_eq!(m.total_requests(), 3);
        assert_eq!(m.requests_for(Endpoint::Class), 2);

        let mut text = String::new();
        obs.render_prometheus(&mut text);
        for line in [
            "bgp_serve_http_request_duration_seconds_count{endpoint=\"class\"} 2",
            "bgp_serve_http_responses_total{class=\"2xx\"} 1",
            "bgp_serve_http_responses_total{class=\"4xx\"} 1",
            "bgp_serve_http_responses_total{class=\"5xx\"} 1",
            "bgp_serve_epochs_published_total 1",
            "bgp_serve_events_ingested_total 42",
            "bgp_serve_snapshot_version 0",
        ] {
            assert!(text.lines().any(|l| l == line), "missing {line:?}");
        }
    }
}
