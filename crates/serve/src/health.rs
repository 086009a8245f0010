//! The daemon's degraded-mode health state machine.
//!
//! An `Api` with no [`HealthState`] attached answers `/healthz` with
//! liveness alone (`"status":"ok"`): that is what the example and the
//! ledger serve, neither of which supervises anything. The daemon
//! attaches one, and it aggregates the supervision signals the
//! resilient pipeline produces (archive sink retries and drops, ingest
//! quarantine counts, driver restarts, publish staleness) into a
//! three-state report:
//!
//! * **ok** — everything supervised is quiet.
//! * **degraded** — the daemon is serving but something needs
//!   attention; each active condition is named in `reasons`:
//!   `archive_sink_retrying`, `archive_epochs_dropped`,
//!   `epochs_stale`, `quarantine_rate`, `driver_restarted`.
//! * **unhealthy** — ingest is gone for good (`ingest_failed`): the
//!   restart budget was exhausted or the feed aborted. `/healthz`
//!   answers 503 so load balancers eject the instance.
//!
//! These built-in rules are the daemon's one health judgment. Any other
//! condition worth alerting on is a rule over the families `/metrics`
//! exposes, evaluated by whatever scrapes it.
//!
//! The state is built on the daemon's [`Metrics`] and counts nothing
//! twice: the published, ingested and quarantined totals it judges are
//! the counters `/metrics` renders. It keeps only what no family holds —
//! the last publish's instant, the restart count and the publish count
//! at the last restart, the done / failed flags, and the attached sink.
//! The ingest driver (which always reports into its
//! [`DriverConfig::health`](crate::driver::DriverConfig::health)), the
//! archive sink thread and the HTTP workers all touch the same
//! `Arc<HealthState>`; only a publish and an evaluation take its one
//! lock, around the last publish's instant.
//!
//! Time is an input: the state reads no clock. It keeps the instants it
//! is handed — one at construction, one per publish — and
//! [`evaluate`](HealthState::evaluate) judges them at the instant it is
//! given, so a test (or the driver's simulation) steps a synthetic
//! clock past [`STALE_AFTER`] instead of sleeping.
//!
//! Recovery is first-class — every degraded reason has a condition
//! that clears it (a commit after drops, a publish after a restart,
//! quarantine rate falling back under the threshold), which the soak
//! test drives end to end.

use crate::metrics::Metrics;
use bgp_archive::prelude::SinkStatus;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::time::{Duration, Instant};

/// How long the live snapshot may go without a new epoch before the
/// daemon reports `epochs_stale` (only while ingest is running — a
/// drained feed is done, not stale). Exactly this long is not stale yet.
pub const STALE_AFTER: Duration = Duration::from_secs(30);

/// Quarantined share of the feed ([`quarantine_ratio`]) above which the
/// daemon reports `quarantine_rate`.
pub const QUARANTINE_MAX_RATIO: f64 = 0.05;

/// The quarantined share of a feed, `quarantined / (quarantined +
/// ingested)`, 0 when nothing was quarantined: what the
/// `quarantine_rate` reason judges.
pub fn quarantine_ratio(quarantined: u64, ingested: u64) -> f64 {
    quarantined as f64 / (quarantined + ingested).max(1) as f64
}

/// The health verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HealthStatus {
    /// All supervised subsystems quiet.
    Ok,
    /// Serving, but at least one degraded condition is active.
    Degraded,
    /// Ingest is permanently gone; `/healthz` answers 503.
    Unhealthy,
}

impl HealthStatus {
    /// Stable lowercase name for JSON and logs.
    pub fn as_str(self) -> &'static str {
        match self {
            HealthStatus::Ok => "ok",
            HealthStatus::Degraded => "degraded",
            HealthStatus::Unhealthy => "unhealthy",
        }
    }
}

/// One evaluated health report: the verdict plus every active reason.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HealthReport {
    /// The rolled-up verdict.
    pub status: HealthStatus,
    /// Active conditions, stable names, deterministic order.
    pub reasons: Vec<String>,
}

/// Shared health state (see module docs).
#[derive(Debug)]
pub struct HealthState {
    /// The counters the verdict reads.
    metrics: Arc<Metrics>,
    /// The latest instant handed to [`new`](Self::new) or to a
    /// [`note_publish`](Self::note_publish) that published something.
    last_publish: Mutex<Instant>,
    restarts: AtomicU64,
    /// Epochs published at the most recent restart — the
    /// `driver_restarted` reason clears once a publish lands after it.
    publishes_at_restart: AtomicU64,
    ingest_done: AtomicBool,
    ingest_failed: AtomicBool,
    sink: OnceLock<Arc<SinkStatus>>,
}

impl HealthState {
    /// Fresh state judging the counters on `metrics`; the staleness
    /// grace period starts at `now`.
    pub fn new(metrics: Arc<Metrics>, now: Instant) -> HealthState {
        HealthState {
            metrics,
            last_publish: Mutex::new(now),
            restarts: AtomicU64::new(0),
            publishes_at_restart: AtomicU64::new(0),
            ingest_done: AtomicBool::new(false),
            ingest_failed: AtomicBool::new(false),
            sink: OnceLock::new(),
        }
    }

    /// Watch an archive sink's retry/drop state (the first one attached).
    pub fn attach_sink(&self, status: Arc<SinkStatus>) {
        let _ = self.sink.set(status);
    }

    fn last_publish(&self) -> std::sync::MutexGuard<'_, Instant> {
        self.last_publish
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Note that `n` snapshots were published at `now` (the metrics
    /// count them): the staleness clock restarts when `n > 0`. An
    /// instant older than one already noted changes nothing.
    pub fn note_publish(&self, n: u64, now: Instant) {
        if n > 0 {
            let mut last = self.last_publish();
            *last = (*last).max(now);
        }
    }

    /// Record a supervised driver respawn after a panic.
    pub fn note_restart(&self) {
        self.publishes_at_restart
            .store(self.metrics.epochs_published.get(), Ordering::Release);
        self.restarts.fetch_add(1, Ordering::AcqRel);
    }

    /// The feed drained cleanly; staleness no longer applies.
    pub fn mark_ingest_done(&self) {
        self.ingest_done.store(true, Ordering::Release);
    }

    /// Ingest is gone for good (budget exhausted / fatal feed error).
    pub fn mark_ingest_failed(&self) {
        self.ingest_failed.store(true, Ordering::Release);
    }

    /// Driver respawns so far.
    pub fn restarts(&self) -> u64 {
        self.restarts.load(Ordering::Acquire)
    }

    /// Quarantined records/chunks so far (`bgp_serve_quarantined_total`).
    pub fn quarantined(&self) -> u64 {
        self.metrics.records_quarantined.get()
    }

    /// The watched sink's live status, if one is attached.
    pub fn sink(&self) -> Option<Arc<SinkStatus>> {
        self.sink.get().cloned()
    }

    /// Judge the state machine at `now`.
    pub fn evaluate(&self, now: Instant) -> HealthReport {
        if self.ingest_failed.load(Ordering::Acquire) {
            return HealthReport {
                status: HealthStatus::Unhealthy,
                reasons: vec!["ingest_failed".to_string()],
            };
        }
        let done = self.ingest_done.load(Ordering::Acquire);
        let mut reasons = Vec::new();
        if let Some(sink) = self.sink() {
            if sink.retrying() {
                reasons.push("archive_sink_retrying".to_string());
            }
            if sink.in_drop_state() {
                reasons.push("archive_epochs_dropped".to_string());
            }
        }
        if !done && now.saturating_duration_since(*self.last_publish()) > STALE_AFTER {
            reasons.push("epochs_stale".to_string());
        }
        let ingested = self.metrics.events_ingested.get();
        if quarantine_ratio(self.quarantined(), ingested) > QUARANTINE_MAX_RATIO {
            reasons.push("quarantine_rate".to_string());
        }
        // A restart stays visible until the respawned driver proves
        // itself with a publish (or drains the feed completely).
        if self.restarts() > 0
            && !done
            && self.metrics.epochs_published.get()
                == self.publishes_at_restart.load(Ordering::Acquire)
        {
            reasons.push("driver_restarted".to_string());
        }
        HealthReport {
            status: if reasons.is_empty() {
                HealthStatus::Ok
            } else {
                HealthStatus::Degraded
            },
            reasons,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A state on metrics of its own, which the test records to, born
    /// at the returned instant.
    fn health() -> (HealthState, Arc<Metrics>, Instant) {
        let metrics = Arc::new(Metrics::new());
        let born = Instant::now();
        (HealthState::new(Arc::clone(&metrics), born), metrics, born)
    }

    #[test]
    fn starts_ok_within_grace() {
        let (h, _, born) = health();
        assert_eq!(h.evaluate(born).status, HealthStatus::Ok);
        assert!(h.evaluate(born + STALE_AFTER).reasons.is_empty());
    }

    #[test]
    fn staleness_is_judged_at_the_given_instant() {
        let (h, _, born) = health();
        let ns = Duration::from_nanos(1);
        assert!(h.evaluate(born + STALE_AFTER).reasons.is_empty());
        let report = h.evaluate(born + STALE_AFTER + ns);
        assert_eq!(report.status, HealthStatus::Degraded);
        assert_eq!(report.reasons, vec!["epochs_stale"]);

        // A publish clears it, and the grace period restarts there.
        let published = born + STALE_AFTER * 2;
        h.note_publish(1, published);
        assert_eq!(h.evaluate(published).status, HealthStatus::Ok);
        assert_eq!(h.evaluate(published + STALE_AFTER).status, HealthStatus::Ok);
        // Nothing published, or an older instant, moves nothing.
        h.note_publish(0, published + STALE_AFTER);
        h.note_publish(1, born);
        assert_eq!(
            h.evaluate(published + STALE_AFTER + ns).reasons,
            vec!["epochs_stale"]
        );

        // A drained feed is done, not stale, however long it idles.
        h.mark_ingest_done();
        assert_eq!(
            h.evaluate(published + STALE_AFTER + ns).status,
            HealthStatus::Ok
        );
        assert_eq!(
            h.evaluate(published + STALE_AFTER * 1000).status,
            HealthStatus::Ok
        );
    }

    #[test]
    fn quarantine_rate_thresholds() {
        let (h, m, born) = health();
        m.events_ingested.add(95);
        m.records_quarantined.add(5);
        assert_eq!(h.evaluate(born).status, HealthStatus::Ok, "5% is not over");
        m.records_quarantined.add(16);
        assert_eq!(h.quarantined(), 21);
        let report = h.evaluate(born);
        assert_eq!(report.status, HealthStatus::Degraded);
        assert_eq!(report.reasons, vec!["quarantine_rate"]);
        // Rate recovers as clean events keep flowing.
        m.events_ingested.add(10_000);
        assert_eq!(h.evaluate(born).status, HealthStatus::Ok);
    }

    #[test]
    fn restart_visible_until_next_publish() {
        let (h, m, born) = health();
        m.epochs_published.inc();
        h.note_restart();
        let report = h.evaluate(born);
        assert_eq!(report.status, HealthStatus::Degraded);
        assert_eq!(report.reasons, vec!["driver_restarted"]);
        assert_eq!(h.restarts(), 1);
        m.epochs_published.inc();
        assert_eq!(h.evaluate(born).status, HealthStatus::Ok);
    }

    #[test]
    fn ingest_failure_is_unhealthy() {
        let (h, _, born) = health();
        h.mark_ingest_failed();
        let report = h.evaluate(born);
        assert_eq!(report.status, HealthStatus::Unhealthy);
        assert_eq!(report.reasons, vec!["ingest_failed"]);
    }
}
