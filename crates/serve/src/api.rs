//! The query API: routes, parameter parsing, and JSON response shapes.
//!
//! Every response is produced against exactly one immutable
//! [`ServeSnapshot`] loaded at the top of the request, so concurrent
//! epoch seals can never tear a response. Endpoints:
//!
//! | route                        | answer |
//! |------------------------------|--------|
//! | `/v1/class/{asn}`            | one AS record |
//! | `/v1/class/{asn}?epoch=N`    | the same record as of archived epoch `N` |
//! | `/v1/classes?class=tf`       | filtered record table (paged) |
//! | `/v1/community/{a}:{v}`      | dictionary lookup of a community value |
//! | `/v1/flips?since_epoch=N`    | class flips from epoch `N` on |
//! | `/v1/flips?since_epoch=N&wait_ms=M` | long-poll: parks until epoch `N` seals (or `M` ms) |
//! | `/v1/reclassify?uniform=0.9` | threshold what-if on the live snapshot |
//! | `/v1/stats`                  | ingest + serving statistics |
//! | `/v1/epochs`                 | every epoch the archive retains |
//! | `/v1/history/{asn}`          | one AS's class across every archived epoch |
//! | `/healthz`                   | liveness + served version |
//! | `/metrics`                   | Prometheus text exposition |
//!
//! | `/v1/debug/timings`          | per-stage latency histograms (p50/p99/max) |
//! | `/v1/debug/epoch/{N}/trace`  | epoch `N`'s provenance timeline (live or archived) |
//! | `/v1/version`                | crate version, build profile, uptime |
//!
//! The three time-travel routes (`?epoch=`, `/v1/epochs`,
//! `/v1/history/…`) answer from the durable archive through a
//! [`HistoryStore`] and respond `400` when the daemon runs without
//! `--archive`; everything else is served from the live snapshot.
//!
//! Every request is timed into a per-endpoint histogram
//! (`bgp_serve_http_request_duration_seconds{endpoint=…}`), so
//! `/metrics` and `/v1/debug/timings` expose the serving tail without
//! any external tracing dependency. Only a request answered `>= 500` is
//! also logged (`warn` on target `http`): at serving rates a line per
//! request would bury everything else on stderr.
//!
//! The handler keeps no metrics store of its own: it records through its
//! [`Metrics`] handles, and `/metrics` and the debug routes read the
//! registry those handles live on.

use crate::health::{HealthState, HealthStatus};
use crate::history::HistoryStore;
use crate::http::{Dispatch, Handler, Request, Response};
use crate::json::{push_u64, JsonWriter};
use crate::metrics::{Endpoint, Metrics};
use crate::snapshot::{write_record, ServeSnapshot, SnapshotReader, SnapshotSlot};
use bgp_infer::classify::Class;
use bgp_infer::counters::Thresholds;
use bgp_infer::db::DbRecord;
use bgp_types::prelude::*;
use obs::trace::EpochTrace;
use obs::ObsRegistry;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Default (and maximum) `limit` for `/v1/classes` pages.
pub const MAX_PAGE: usize = 10_000;

/// The shared request handler: snapshot slot + metrics, plus the
/// optional archive-backed history store for time travel.
#[derive(Debug)]
pub struct Api {
    slot: Arc<SnapshotSlot>,
    metrics: Arc<Metrics>,
    history: Option<Arc<HistoryStore>>,
    /// Degraded-mode health state; when attached, `/healthz` answers
    /// from the state machine instead of liveness alone.
    health: Option<Arc<HealthState>>,
    /// Process start, for `/v1/version` and `/v1/stats` uptime.
    start: Instant,
}

thread_local! {
    /// Per-worker snapshot cache: revalidated with one atomic load per
    /// request, so steady-state queries never touch the slot mutex.
    static READER: RefCell<Option<SnapshotReader>> = const { RefCell::new(None) };
}

impl Api {
    /// Handler over `slot`, metering into `metrics`; `/metrics` and the
    /// debug routes read the registry `metrics` records into.
    pub fn new(slot: Arc<SnapshotSlot>, metrics: Arc<Metrics>) -> Self {
        Api {
            slot,
            metrics,
            history: None,
            health: None,
            start: Instant::now(),
        }
    }

    /// Serve the time-travel routes from `history` (the daemon's
    /// `--archive` directory).
    pub fn with_history(mut self, history: Arc<HistoryStore>) -> Self {
        self.history = Some(history);
        self
    }

    /// Answer `/healthz` from the degraded-mode state machine (and grow
    /// `/v1/stats` with the supervision counters) instead of liveness
    /// alone.
    pub fn with_health(mut self, health: Arc<HealthState>) -> Self {
        self.health = Some(health);
        self
    }

    /// The slot queries are answered from.
    pub fn slot(&self) -> &Arc<SnapshotSlot> {
        &self.slot
    }

    /// The metrics sink.
    pub fn metrics(&self) -> &Arc<Metrics> {
        &self.metrics
    }

    fn snapshot(&self) -> Arc<ServeSnapshot> {
        READER.with(|cell| {
            let mut cached = cell.borrow_mut();
            match cached.as_mut() {
                Some(reader) if Arc::ptr_eq(reader.slot(), &self.slot) => reader.current().clone(),
                _ => {
                    let mut reader = self.slot.reader();
                    let snap = reader.current().clone();
                    *cached = Some(reader);
                    snap
                }
            }
        })
    }

    fn dispatch(&self, request: &Request) -> (Endpoint, Response) {
        let snap = self.snapshot();
        let path = request.path.as_str();
        if let Some(asn) = path.strip_prefix("/v1/class/") {
            // `?epoch=N` answers from the archived epoch instead of the
            // live snapshot — same record shape, historical envelope.
            if let Some(raw_epoch) = request.param("epoch") {
                return (Endpoint::Class, self.class_at_endpoint(asn, raw_epoch));
            }
            return (Endpoint::Class, class_endpoint(&snap, asn));
        }
        if let Some(community) = path.strip_prefix("/v1/community/") {
            return (Endpoint::Community, community_endpoint(&snap, community));
        }
        if let Some(asn) = path.strip_prefix("/v1/history/") {
            return (Endpoint::History, self.history_endpoint(&snap, asn));
        }
        if let Some(rest) = path.strip_prefix("/v1/debug/epoch/") {
            if let Some(raw_epoch) = rest.strip_suffix("/trace") {
                return (
                    Endpoint::EpochTrace,
                    self.epoch_trace_endpoint(&snap, raw_epoch),
                );
            }
        }
        match path {
            "/v1/classes" => (Endpoint::Classes, classes_endpoint(&snap, request)),
            "/v1/flips" => (Endpoint::Flips, flips_endpoint(&snap, request)),
            "/v1/reclassify" => (Endpoint::Reclassify, reclassify_endpoint(&snap, request)),
            "/v1/stats" => (
                Endpoint::Stats,
                stats_endpoint(
                    &snap,
                    self.metrics.total_requests(),
                    self.health.as_deref(),
                    self.start.elapsed().as_secs(),
                ),
            ),
            "/v1/epochs" => (Endpoint::Epochs, self.epochs_endpoint(&snap)),
            "/v1/version" => (
                Endpoint::Version,
                version_endpoint(&snap, self.start.elapsed().as_secs()),
            ),
            "/v1/debug/timings" => (
                Endpoint::DebugTimings,
                timings_endpoint(&snap, self.metrics.registry()),
            ),
            "/healthz" => (
                Endpoint::Health,
                health_endpoint(&snap, self.health.as_deref()),
            ),
            "/metrics" => {
                self.metrics.observe_snapshot(&snap);
                let mut text = String::new();
                self.metrics.registry().render_prometheus(&mut text);
                (Endpoint::Metrics, Response::text(text))
            }
            _ => (Endpoint::Other, Response::error(404, "no such route")),
        }
    }

    fn history_store(&self) -> Result<&Arc<HistoryStore>, Response> {
        self.history.as_ref().ok_or_else(|| {
            Response::error(
                400,
                "no archive attached (start the daemon with --archive DIR)",
            )
        })
    }

    /// `/v1/class/{asn}?epoch=N` — the record as of an archived epoch.
    fn class_at_endpoint(&self, raw_asn: &str, raw_epoch: &str) -> Response {
        let history = match self.history_store() {
            Ok(h) => h,
            Err(resp) => return resp,
        };
        let Ok(epoch) = raw_epoch.parse::<u64>() else {
            return Response::error(400, "epoch must be an unsigned integer");
        };
        match history.snapshot_at(epoch) {
            Ok(Some(historical)) => class_endpoint(&historical, raw_asn),
            Ok(None) => Response::error(404, "epoch not retained in the archive"),
            Err(e) => Response::error(500, &format!("archive: {e}")),
        }
    }

    /// `/v1/epochs` — every epoch the archive retains, oldest first.
    fn epochs_endpoint(&self, snap: &ServeSnapshot) -> Response {
        let history = match self.history_store() {
            Ok(h) => h,
            Err(resp) => return resp,
        };
        let metas = match history.epochs() {
            Ok(metas) => metas,
            Err(e) => return Response::error(500, &format!("archive: {e}")),
        };
        let mut w = begin_envelope(snap);
        w.field_u64("count", metas.len() as u64);
        w.begin_arr_field("epochs");
        for meta in &metas {
            w.begin_obj();
            w.field_u64("epoch", meta.epoch);
            w.field_u64("sealed_at", meta.sealed_at);
            w.field_u64("events", meta.events);
            w.field_u64("total_events", meta.total_events);
            w.field_u64("unique_tuples", meta.unique_tuples);
            w.end_obj();
        }
        w.end_arr();
        w.end_obj();
        Response::json(w.finish())
    }

    /// `/v1/debug/epoch/{N}/trace` — the epoch's provenance timeline:
    /// the trace store of the metrics' registry first, then the
    /// archive's persisted Trace frame (same shape either way, so
    /// restarts and evicted epochs answer identically).
    fn epoch_trace_endpoint(&self, snap: &ServeSnapshot, raw_epoch: &str) -> Response {
        let Ok(epoch) = raw_epoch.parse::<u64>() else {
            return Response::error(400, "epoch must be an unsigned integer");
        };
        let mut trace = self.metrics.registry().traces().get(epoch);
        let mut source = "live";
        if trace.is_none() {
            if let Some(history) = &self.history {
                match history.trace_at(epoch) {
                    Ok(t) => {
                        trace = t;
                        source = "archive";
                    }
                    Err(e) => return Response::error(500, &format!("archive: {e}")),
                }
            }
        }
        let Some(trace) = trace else {
            return Response::error(404, "no trace recorded for this epoch");
        };
        let mut w = begin_envelope(snap);
        w.field_u64("trace_epoch", trace.epoch);
        w.field_str("source", source);
        write_trace_stages(&mut w, &trace);
        w.end_obj();
        Response::json(w.finish())
    }

    /// `/v1/history/{asn}` — one AS's class across every archived epoch.
    fn history_endpoint(&self, snap: &ServeSnapshot, raw_asn: &str) -> Response {
        let history = match self.history_store() {
            Ok(h) => h,
            Err(resp) => return resp,
        };
        let Ok(asn) = raw_asn.parse::<u32>() else {
            return Response::error(400, "asn must be a 32-bit integer");
        };
        let trajectory = match history.trajectory(Asn(asn)) {
            Ok(t) => t,
            Err(e) => return Response::error(500, &format!("archive: {e}")),
        };
        let mut w = begin_envelope(snap);
        w.field_u64("asn", asn as u64);
        w.field_u64("count", trajectory.len() as u64);
        w.begin_arr_field("history");
        for (epoch, class) in &trajectory {
            w.begin_obj();
            w.field_u64("epoch", *epoch);
            match class {
                Some(c) => w.field_str("class", c.as_str()),
                None => w.field_null("class"),
            }
            w.end_obj();
        }
        w.end_arr();
        w.end_obj();
        Response::json(w.finish())
    }
}

impl Handler for Api {
    /// Long-poll entry point: `/v1/flips?since_epoch=N&wait_ms=M` parks
    /// the connection while no epoch `>= N` has been published yet. The
    /// transport re-polls on every publish wakeup, so the answer lands
    /// within one publish of the epoch the client is waiting for; at
    /// the deadline (or graceful shutdown) [`Handler::handle`] produces
    /// the regular — possibly empty — flips envelope. Requests without
    /// `wait_ms` (or with malformed parameters, which must surface as
    /// `400`s) are answered immediately.
    fn poll(&self, request: &Request) -> Dispatch {
        if request.path == "/v1/flips" {
            let wait_ms = request
                .param("wait_ms")
                .and_then(|raw| raw.parse::<u64>().ok())
                .unwrap_or(0);
            let since = match request.param("since_epoch") {
                None => Some(0),
                Some(raw) => raw.parse::<u64>().ok(),
            };
            if let (true, Some(since)) = (wait_ms > 0, since) {
                let have = self.snapshot().epoch_id();
                if have.is_none_or(|epoch| epoch < since) {
                    return Dispatch::Park { wait_ms };
                }
            }
        }
        Dispatch::Ready(self.handle(request))
    }

    fn handle(&self, request: &Request) -> Response {
        let t_request = Instant::now();
        let (endpoint, response) = self.dispatch(request);
        let nanos = t_request.elapsed().as_nanos() as u64;
        self.metrics.observe(endpoint, response.status, nanos);
        if response.status >= 500 {
            obs::warn!(
                "http",
                "endpoint={} status={} nanos={nanos}",
                endpoint.label(),
                response.status
            );
        }
        response
    }
}

/// Open the standard response envelope: `{"version":V,"epoch":E|null`.
fn begin_envelope(snap: &ServeSnapshot) -> JsonWriter {
    let mut w = JsonWriter::new();
    w.begin_obj();
    w.field_u64("version", snap.version());
    match snap.epoch_id() {
        Some(e) => w.field_u64("epoch", e),
        None => w.field_null("epoch"),
    }
    w
}

fn health_endpoint(snap: &ServeSnapshot, health: Option<&HealthState>) -> Response {
    let mut w = begin_envelope(snap);
    let Some(health) = health else {
        // No health state attached (the example, the ledger): liveness
        // only.
        w.field_str("status", "ok");
        w.end_obj();
        return Response::json(w.finish());
    };
    let report = health.evaluate(Instant::now());
    w.field_str("status", report.status.as_str());
    w.begin_arr_field("reasons");
    for reason in &report.reasons {
        w.elem_str(reason);
    }
    w.end_arr();
    write_supervision_fields(&mut w, health);
    w.end_obj();
    let status = match report.status {
        // Degraded still serves traffic — only a dead ingest side is a
        // load-balancer-visible failure.
        HealthStatus::Ok | HealthStatus::Degraded => 200,
        HealthStatus::Unhealthy => 503,
    };
    Response::json_status(status, w.finish())
}

/// The supervision counters shared by `/healthz` and `/v1/stats`.
fn write_supervision_fields(w: &mut JsonWriter, health: &HealthState) {
    w.field_u64("quarantined", health.quarantined());
    w.field_u64("driver_restarts", health.restarts());
    match health.sink() {
        Some(sink) => {
            w.field_u64("archive_retries", sink.retries());
            w.field_u64("archive_epochs_dropped", sink.dropped());
            w.field_u64("archive_committed", sink.committed());
        }
        None => {
            w.field_u64("archive_retries", 0);
            w.field_u64("archive_epochs_dropped", 0);
            w.field_u64("archive_committed", 0);
        }
    }
}

fn class_endpoint(snap: &ServeSnapshot, raw_asn: &str) -> Response {
    let Ok(asn) = raw_asn.parse::<u32>() else {
        return Response::error(400, "asn must be a 32-bit integer");
    };
    let Some(record) = snap.record_of(Asn(asn)) else {
        return Response::error(404, "asn not in the classification database");
    };
    let mut w = begin_envelope(snap);
    write_record(&mut w, Some("record"), record);
    w.end_obj();
    Response::json(w.finish())
}

/// Conjunctive record filter from `class` / `tagging` / `forwarding`;
/// `None` when none of the three is given.
fn record_filter(request: &Request) -> Result<Option<impl Fn(&DbRecord) -> bool>, Response> {
    let class: Option<Class> = match request.param("class") {
        Some(raw) => Some(
            raw.parse()
                .map_err(|e: String| Response::error(400, &format!("class: {e}")))?,
        ),
        None => None,
    };
    let tagging = match request.param("tagging") {
        Some(raw) => {
            let mut chars = raw.chars();
            match (
                chars
                    .next()
                    .and_then(bgp_infer::classify::TaggingClass::from_code),
                chars.next(),
            ) {
                (Some(t), None) => Some(t),
                _ => return Err(Response::error(400, "tagging: expected one of t/s/u/n")),
            }
        }
        None => None,
    };
    let forwarding = match request.param("forwarding") {
        Some(raw) => {
            let mut chars = raw.chars();
            match (
                chars
                    .next()
                    .and_then(bgp_infer::classify::ForwardingClass::from_code),
                chars.next(),
            ) {
                (Some(f), None) => Some(f),
                _ => return Err(Response::error(400, "forwarding: expected one of f/c/u/n")),
            }
        }
        None => None,
    };
    if class.is_none() && tagging.is_none() && forwarding.is_none() {
        return Ok(None);
    }
    Ok(Some(move |r: &DbRecord| {
        class.is_none_or(|c| r.class == c)
            && tagging.is_none_or(|t| r.class.tagging == t)
            && forwarding.is_none_or(|f| r.class.forwarding == f)
    }))
}

fn parse_usize(request: &Request, name: &str, default: usize) -> Result<usize, Response> {
    match request.param(name) {
        Some(raw) => raw
            .parse()
            .map_err(|_| Response::error(400, &format!("{name} must be an unsigned integer"))),
        None => Ok(default),
    }
}

fn classes_endpoint(snap: &ServeSnapshot, request: &Request) -> Response {
    let filter = match record_filter(request) {
        Ok(f) => f,
        Err(resp) => return resp,
    };
    let limit = match parse_usize(request, "limit", MAX_PAGE) {
        Ok(v) => v.min(MAX_PAGE),
        Err(resp) => return resp,
    };
    let offset = match parse_usize(request, "offset", 0) {
        Ok(v) => v,
        Err(resp) => return resp,
    };

    let mut w = begin_envelope(snap);
    w.field_u64("offset", offset as u64);
    match filter {
        // Unfiltered: the page is a slice of the table.
        None => {
            let total = snap.records.len();
            let page = &snap.records[offset.min(total)..offset.saturating_add(limit).min(total)];
            write_page(&mut w, total, page.iter());
        }
        // Filtered: `total` counts every match, so the scan is whole.
        Some(filter) => {
            let mut total = 0usize;
            let mut page = Vec::new();
            for record in snap.records.iter().filter(|r| filter(r)) {
                if total >= offset && page.len() < limit {
                    page.push(record);
                }
                total += 1;
            }
            write_page(&mut w, total, page.into_iter());
        }
    }
    w.end_obj();
    Response::json(w.finish())
}

/// About the bytes one record takes on the wire, to size a page's body
/// before writing it.
const RECORD_BYTES: usize = 80;

/// The same for one flip.
const FLIP_BYTES: usize = 48;

/// `"total":T,"count":N,"records":[...]` for one page.
fn write_page<'a>(
    w: &mut JsonWriter,
    total: usize,
    page: impl ExactSizeIterator<Item = &'a DbRecord>,
) {
    w.field_u64("total", total as u64);
    w.field_u64("count", page.len() as u64);
    w.reserve(page.len() * RECORD_BYTES);
    w.begin_arr_field("records");
    for record in page {
        write_record(w, None, record);
    }
    w.end_arr();
}

fn parse_community(raw: &str) -> Option<AnyCommunity> {
    match raw.matches(':').count() {
        1 => raw.parse::<Community>().ok().map(AnyCommunity::Regular),
        2 => raw.parse::<LargeCommunity>().ok().map(AnyCommunity::Large),
        _ => None,
    }
}

fn community_endpoint(snap: &ServeSnapshot, raw: &str) -> Response {
    let Some(community) = parse_community(raw) else {
        return Response::error(400, "expected a:b (regular) or a:b:c (large) community");
    };
    // Dictionary semantics live in bgp_infer::db (`community_verdict`),
    // evaluated against this snapshot's record table (a point lookup).
    let owner = community.upper_field();
    let owner_record = snap.record_of(owner);
    let verdict = bgp_infer::db::community_verdict(owner_record, &community);

    let mut w = begin_envelope(snap);
    w.field_str("community", &community.to_string());
    w.field_u64("owner", owner.0 as u64);
    w.field_str("verdict", verdict.name());
    match bgp_types::wellknown::lookup_any(&community) {
        Some(wk) => {
            w.begin_obj_field("well_known");
            w.field_str("name", wk.name);
            w.field_str("rfc", wk.rfc);
            w.field_bool("default_action", wk.default_action);
            w.end_obj();
        }
        None => w.field_null("well_known"),
    }
    match owner_record {
        Some(record) => write_record(&mut w, Some("owner_record"), record),
        None => w.field_null("owner_record"),
    }
    w.end_obj();
    Response::json(w.finish())
}

fn flips_endpoint(snap: &ServeSnapshot, request: &Request) -> Response {
    let since = match request.param("since_epoch") {
        Some(raw) => match raw.parse::<u64>() {
            Ok(v) => v,
            Err(_) => return Response::error(400, "since_epoch must be an unsigned integer"),
        },
        None => 0,
    };
    // Only the long-poll reads `wait_ms` (see `Api::poll`), but a
    // malformed one must not pass for "answer now".
    if request
        .param("wait_ms")
        .is_some_and(|raw| raw.parse::<u64>().is_err())
    {
        return Response::error(400, "wait_ms must be an unsigned integer");
    }
    let (flips, complete) = snap.flips_since(since);
    let count = snap.flip_log.count_since(since);
    let mut w = begin_envelope(snap);
    w.field_u64("since_epoch", since);
    w.field_bool("complete", complete);
    w.field_u64("count", count as u64);
    w.reserve(count * FLIP_BYTES);
    w.begin_arr_field("flips");
    for (epoch, flip) in flips {
        // `{"epoch":E,"asn":A,"from":"xy","to":"xy"}` in one pass.
        let out = w.value(None);
        out.push_str("{\"epoch\":");
        push_u64(out, epoch);
        out.push_str(",\"asn\":");
        push_u64(out, flip.asn.0 as u64);
        out.push_str(",\"from\":\"");
        out.push_str(flip.from.as_str());
        out.push_str("\",\"to\":\"");
        out.push_str(flip.to.as_str());
        out.push_str("\"}");
    }
    w.end_arr();
    w.end_obj();
    Response::json(w.finish())
}

/// Threshold overrides for `/v1/reclassify`. Baseline: the snapshot's
/// own thresholds. `uniform` sets all four; `ft` sets the tagging side
/// (tagger + silent), `fp` the forwarding/propagation side (forward +
/// cleaner); the four named fields override individually.
fn parse_thresholds(snap: &ServeSnapshot, request: &Request) -> Result<Thresholds, Response> {
    let mut th = snap.thresholds;
    let grab = |name: &str| -> Result<Option<f64>, Response> {
        match request.param(name) {
            Some(raw) => {
                let v: f64 = raw
                    .parse()
                    .map_err(|_| Response::error(400, &format!("{name} must be a float")))?;
                if !(0.0..=1.0).contains(&v) {
                    return Err(Response::error(400, &format!("{name} outside [0, 1]")));
                }
                Ok(Some(v))
            }
            None => Ok(None),
        }
    };
    if let Some(v) = grab("uniform")? {
        th = Thresholds::uniform(v);
    }
    if let Some(v) = grab("ft")? {
        th.tagger = v;
        th.silent = v;
    }
    if let Some(v) = grab("fp")? {
        th.forward = v;
        th.cleaner = v;
    }
    if let Some(v) = grab("tagger")? {
        th.tagger = v;
    }
    if let Some(v) = grab("silent")? {
        th.silent = v;
    }
    if let Some(v) = grab("forward")? {
        th.forward = v;
    }
    if let Some(v) = grab("cleaner")? {
        th.cleaner = v;
    }
    Ok(th)
}

fn reclassify_endpoint(snap: &ServeSnapshot, request: &Request) -> Response {
    let th = match parse_thresholds(snap, request) {
        Ok(th) => th,
        Err(resp) => return resp,
    };
    let full = request
        .param("full")
        .is_some_and(|v| v == "1" || v == "true");

    let mut histogram: BTreeMap<&str, u64> = BTreeMap::new();
    let mut changed: Vec<(&DbRecord, Class)> = Vec::new();
    for (record, new_class) in snap.reclassify(&th) {
        *histogram.entry(new_class.as_str()).or_insert(0) += 1;
        if new_class != record.class {
            changed.push((record, new_class));
        }
    }

    let mut w = begin_envelope(snap);
    w.begin_obj_field("thresholds");
    w.field_f64("tagger", th.tagger);
    w.field_f64("silent", th.silent);
    w.field_f64("forward", th.forward);
    w.field_f64("cleaner", th.cleaner);
    w.end_obj();
    w.field_u64("total", snap.records.len() as u64);
    w.field_u64("changed", changed.len() as u64);
    w.begin_obj_field("classes");
    for (class, count) in &histogram {
        w.field_u64(class, *count);
    }
    w.end_obj();
    if full {
        w.begin_arr_field("records");
        for (record, new_class) in &changed {
            w.begin_obj();
            w.field_u64("asn", record.asn.0 as u64);
            w.field_str("from", record.class.as_str());
            w.field_str("to", new_class.as_str());
            w.end_obj();
        }
        w.end_arr();
    }
    w.end_obj();
    Response::json(w.finish())
}

/// `/v1/version` — build identity and process uptime.
fn version_endpoint(snap: &ServeSnapshot, uptime_seconds: u64) -> Response {
    let mut w = begin_envelope(snap);
    w.field_str("crate_version", env!("CARGO_PKG_VERSION"));
    w.field_str(
        "profile",
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
    );
    w.field_u64("uptime_seconds", uptime_seconds);
    w.end_obj();
    Response::json(w.finish())
}

/// The `"stages"` array shared by live and archived trace responses.
fn write_trace_stages(w: &mut JsonWriter, trace: &EpochTrace) {
    w.field_u64("stage_count", trace.stages.len() as u64);
    w.begin_arr_field("stages");
    for stage in &trace.stages {
        w.begin_obj();
        w.field_str("stage", &stage.stage);
        w.field_u64("start_offset_nanos", stage.start_offset_nanos);
        w.field_u64("duration_nanos", stage.duration_nanos);
        w.begin_obj_field("counters");
        for (name, value) in &stage.counters {
            w.field_u64(name, *value);
        }
        w.end_obj();
        w.end_obj();
    }
    w.end_arr();
}

/// `/v1/stats` — the served snapshot's ingest statistics and its own
/// epoch's seal / count durations (deterministic: identical across a
/// restart from the archive), plus the request count, uptime and — with
/// a health state attached — the supervision counters, read off the same
/// registry counters `/metrics` renders. The daemon's latency
/// distributions are `/v1/debug/timings`.
fn stats_endpoint(
    snap: &ServeSnapshot,
    requests_total: u64,
    health: Option<&HealthState>,
    uptime_seconds: u64,
) -> Response {
    let mut w = begin_envelope(snap);
    if let Some(epoch) = &snap.epoch {
        w.field_u64("sealed_at", epoch.sealed_at);
        w.field_u64("epoch_events", epoch.events);
        w.field_u64("seal_nanos", epoch.seal_nanos);
        w.field_u64("count_nanos", epoch.count_nanos);
        w.field_u64("total_events", epoch.total_events);
        w.field_u64("unique_tuples", epoch.unique_tuples as u64);
    } else {
        w.field_null("sealed_at");
        w.field_u64("epoch_events", 0);
        w.field_u64("seal_nanos", 0);
        w.field_u64("count_nanos", 0);
        w.field_u64("total_events", 0);
        w.field_u64("unique_tuples", 0);
    }
    w.field_u64("duplicates", snap.ingest.duplicates);
    w.field_u64("classified", snap.records.len() as u64);
    w.field_u64("flips_logged", snap.flip_log.len() as u64);
    w.field_u64("interned_asns", snap.ingest.interned_asns);
    w.field_u64("arena_hops", snap.ingest.arena_hops);
    w.begin_obj_field("last_replay");
    w.field_u64("replayed", snap.ingest.replayed_steps);
    w.field_u64("total", snap.ingest.total_steps);
    w.end_obj();
    w.begin_arr_field("shard_loads");
    for &load in &snap.ingest.shard_loads {
        w.elem_u64(load);
    }
    w.end_arr();
    w.field_u64("requests_total", requests_total);
    w.field_u64("uptime_seconds", uptime_seconds);
    if let Some(health) = health {
        let report = health.evaluate(Instant::now());
        w.field_str("health", report.status.as_str());
        w.begin_arr_field("health_reasons");
        for reason in &report.reasons {
            w.elem_str(reason);
        }
        w.end_arr();
        write_supervision_fields(&mut w, health);
    }
    w.end_obj();
    Response::json(w.finish())
}

/// `/v1/debug/timings` — every stage histogram's p50/p99/max, one entry
/// per (family, label set), sorted.
fn timings_endpoint(snap: &ServeSnapshot, obs: &ObsRegistry) -> Response {
    let stages = obs.histogram_snapshots();
    let mut w = begin_envelope(snap);
    w.field_u64("stages", stages.len() as u64);
    w.begin_arr_field("timings");
    for entry in &stages {
        w.begin_obj();
        w.field_str("family", &entry.family);
        w.begin_obj_field("labels");
        for (k, v) in &entry.labels {
            w.field_str(k, v);
        }
        w.end_obj();
        w.field_u64("observed", entry.snap.count);
        w.field_u64("sum_nanos", entry.snap.sum_nanos);
        if entry.snap.count == 0 {
            w.field_null("p50_nanos");
            w.field_null("p99_nanos");
        } else {
            w.field_u64("p50_nanos", entry.snap.quantile_nanos(0.5));
            w.field_u64("p99_nanos", entry.snap.quantile_nanos(0.99));
        }
        w.field_u64("max_nanos", entry.snap.max_nanos);
        w.end_obj();
    }
    w.end_arr();
    w.end_obj();
    Response::json(w.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::Publisher;
    use bgp_stream::epoch::EpochPolicy;
    use bgp_stream::ingest::StreamEvent;
    use bgp_stream::pipeline::{StreamConfig, StreamPipeline};

    fn request(path: &str, query: &[(&str, &str)]) -> Request {
        Request {
            method: "GET".to_string(),
            path: path.to_string(),
            query: query
                .iter()
                .map(|&(k, v)| (k.to_string(), v.to_string()))
                .collect(),
        }
    }

    fn served_api() -> Api {
        let slot = Arc::new(SnapshotSlot::new(Thresholds::default()));
        let mut publisher = Publisher::new(Arc::clone(&slot), 1024);
        let mut pipe = StreamPipeline::new(StreamConfig {
            shards: 2,
            epoch: EpochPolicy::every_events(3),
            ..Default::default()
        });
        let mk = |p: &[u32], tags: &[u32]| {
            PathCommTuple::new(
                path(p),
                CommunitySet::from_iter(tags.iter().map(|&a| AnyCommunity::tag_for(Asn(a), 100))),
            )
        };
        pipe.push(StreamEvent::new(10, mk(&[5, 9], &[5])));
        pipe.push(StreamEvent::new(20, mk(&[1, 5, 9], &[1, 5])));
        pipe.push(StreamEvent::new(30, mk(&[2, 9], &[])));
        publisher.sync(&pipe);
        // A registry of its own: the request counts asserted below must
        // not see the other tests' requests.
        let obs = Arc::new(ObsRegistry::new());
        Api::new(slot, Arc::new(Metrics::with_registry(obs)))
    }

    #[test]
    fn class_endpoint_shapes() {
        let api = served_api();
        let ok = api.handle(&request("/v1/class/5", &[]));
        assert_eq!(ok.status, 200);
        assert!(ok.body.contains("\"asn\":5"), "{}", ok.body);
        assert!(ok.body.contains("\"class\":\"t"), "{}", ok.body);
        assert!(
            ok.body.starts_with("{\"version\":1,\"epoch\":0,"),
            "{}",
            ok.body
        );

        assert_eq!(api.handle(&request("/v1/class/999999", &[])).status, 404);
        assert_eq!(api.handle(&request("/v1/class/notanasn", &[])).status, 400);
    }

    #[test]
    fn classes_filter_and_paging() {
        let api = served_api();
        let all = api.handle(&request("/v1/classes", &[]));
        assert_eq!(all.status, 200);
        let taggers = api.handle(&request("/v1/classes", &[("tagging", "t")]));
        assert!(taggers.body.contains("\"asn\":5"), "{}", taggers.body);
        let none = api.handle(&request("/v1/classes", &[("class", "sc")]));
        assert!(none.body.contains("\"total\":0"), "{}", none.body);
        let bad = api.handle(&request("/v1/classes", &[("class", "xx")]));
        assert_eq!(bad.status, 400);
        let paged = api.handle(&request("/v1/classes", &[("limit", "1"), ("offset", "1")]));
        assert!(paged.body.contains("\"count\":1"), "{}", paged.body);
    }

    #[test]
    fn community_endpoint_verdicts() {
        let api = served_api();
        let attributable = api.handle(&request("/v1/community/5:100", &[]));
        assert!(attributable.body.contains("\"verdict\":\"attributable\""));
        let wk = api.handle(&request("/v1/community/65535:65281", &[]));
        assert!(wk.body.contains("\"verdict\":\"well-known\""));
        assert!(wk.body.contains("\"name\":\"NO_EXPORT\""));
        let bad = api.handle(&request("/v1/community/zzz", &[]));
        assert_eq!(bad.status, 400);
        let large = api.handle(&request("/v1/community/200001:1:2", &[]));
        assert_eq!(large.status, 200);
        assert!(large.body.contains("\"owner\":200001"));
    }

    #[test]
    fn flips_and_reclassify_and_stats() {
        let api = served_api();
        let flips = api.handle(&request("/v1/flips", &[("since_epoch", "0")]));
        assert_eq!(flips.status, 200);
        assert!(flips.body.contains("\"complete\":true"));

        let what_if = api.handle(&request("/v1/reclassify", &[("uniform", "0.5")]));
        assert!(what_if.body.contains("\"changed\":"), "{}", what_if.body);
        let bad = api.handle(&request("/v1/reclassify", &[("ft", "1.5")]));
        assert_eq!(bad.status, 400);

        let stats = api.handle(&request("/v1/stats", &[]));
        assert!(stats.body.contains("\"total_events\":3"), "{}", stats.body);
        assert!(stats.body.contains("\"seal_nanos\":"), "{}", stats.body);
        assert!(stats.body.contains("\"last_replay\":{"), "{}", stats.body);

        let health = api.handle(&request("/healthz", &[]));
        assert!(health.body.contains("\"status\":\"ok\""));

        let metrics = api.handle(&request("/metrics", &[]));
        assert!(metrics.body.contains("bgp_serve_snapshot_version 1\n"));

        let missing = api.handle(&request("/nope", &[]));
        assert_eq!(missing.status, 404);
        assert_eq!(api.metrics().total_requests(), 7);
    }

    #[test]
    fn a_long_poll_with_a_malformed_wait_is_400() {
        let api = served_api();
        for wait in ["soon", "-1", ""] {
            for since in ["0", "99"] {
                let query = [("since_epoch", since), ("wait_ms", wait)];
                match api.poll(&request("/v1/flips", &query)) {
                    Dispatch::Ready(r) => assert_eq!(r.status, 400, "{query:?}: {}", r.body),
                    Dispatch::Park { .. } => panic!("{query:?} parked"),
                }
            }
        }
        let fine = [("since_epoch", "0"), ("wait_ms", "5")];
        assert!(matches!(
            api.poll(&request("/v1/flips", &fine)),
            Dispatch::Ready(Response { status: 200, .. })
        ));
    }

    #[test]
    fn time_travel_routes_without_archive_are_400() {
        let api = served_api();
        assert_eq!(api.handle(&request("/v1/epochs", &[])).status, 400);
        assert_eq!(api.handle(&request("/v1/history/5", &[])).status, 400);
        assert_eq!(
            api.handle(&request("/v1/class/5", &[("epoch", "0")]))
                .status,
            400
        );
        // The live route is unaffected.
        assert_eq!(api.handle(&request("/v1/class/5", &[])).status, 200);
        assert_eq!(api.metrics().requests_for(Endpoint::Epochs), 1);
        assert_eq!(api.metrics().requests_for(Endpoint::History), 1);
        assert_eq!(api.metrics().requests_for(Endpoint::Class), 2);
    }

    #[test]
    fn time_travel_routes_answer_from_the_archive() {
        use bgp_archive::prelude::{ArchiveWriter, SegmentStats};

        let dir = std::env::temp_dir().join(format!("bgp-api-history-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let slot = Arc::new(SnapshotSlot::new(Thresholds::default()));
        let mut publisher = Publisher::new(Arc::clone(&slot), 1024);
        let mut pipe = StreamPipeline::new(StreamConfig {
            shards: 2,
            epoch: EpochPolicy::every_events(2),
            ..Default::default()
        });
        let mk = |p: &[u32], tags: &[u32]| {
            PathCommTuple::new(
                path(p),
                CommunitySet::from_iter(tags.iter().map(|&a| AnyCommunity::tag_for(Asn(a), 100))),
            )
        };
        for i in 0..6u64 {
            pipe.push(StreamEvent::new(i, mk(&[5, 9], &[5])));
        }
        publisher.sync(&pipe);
        let mut writer = ArchiveWriter::open(&dir).unwrap();
        for snap in pipe.snapshots() {
            writer.append_epoch(snap, &SegmentStats::default()).unwrap();
        }
        let history = Arc::new(crate::history::HistoryStore::open(&dir, 1024).unwrap());
        let api = Api::new(slot, Arc::new(Metrics::new())).with_history(history);

        let epochs = api.handle(&request("/v1/epochs", &[]));
        assert_eq!(epochs.status, 200);
        assert!(epochs.body.contains("\"count\":3"), "{}", epochs.body);

        let at0 = api.handle(&request("/v1/class/5", &[("epoch", "0")]));
        assert_eq!(at0.status, 200);
        assert!(
            at0.body.starts_with("{\"version\":1,\"epoch\":0,"),
            "{}",
            at0.body
        );
        assert!(at0.body.contains("\"asn\":5"), "{}", at0.body);

        let beyond = api.handle(&request("/v1/class/5", &[("epoch", "99")]));
        assert_eq!(beyond.status, 404);

        let traj = api.handle(&request("/v1/history/5", &[]));
        assert_eq!(traj.status, 200);
        assert!(traj.body.contains("\"count\":3"), "{}", traj.body);
        assert!(traj.body.contains("\"epoch\":2"), "{}", traj.body);

        std::fs::remove_dir_all(&dir).unwrap();
    }
}
