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
//!   `epochs_stale`, `quarantine_rate`, `driver_restarted`, plus one
//!   `alert:{name}` per firing rule of an attached
//!   [`AlertState`] (`--alert-rules`).
//! * **unhealthy** — ingest is gone for good (`ingest_failed`): the
//!   restart budget was exhausted or the feed aborted. `/healthz`
//!   answers 503 so load balancers eject the instance.
//!
//! The state is built on the daemon's [`Metrics`] and counts nothing
//! twice: the published, ingested and quarantined totals it judges are
//! the counters `/metrics` renders. It keeps only what no family holds —
//! the last publish's instant, the restart count and the publish count
//! at the last restart, the done / failed flags, and the attached sink
//! and alerts. The ingest driver (which always reports into its
//! [`DriverConfig::health`](crate::driver::DriverConfig::health)), the
//! archive sink thread and the HTTP workers all touch the same
//! `Arc<HealthState>` without locks on the hot path.
//! Recovery is first-class — every degraded reason has a condition
//! that clears it (a commit after drops, a publish after a restart,
//! quarantine rate falling back under the threshold), which the soak
//! test drives end to end.

use crate::metrics::Metrics;
use bgp_archive::prelude::SinkStatus;
use obs::AlertState;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Thresholds for the degraded conditions.
#[derive(Debug, Clone)]
pub struct HealthConfig {
    /// How long the live snapshot may go without a new epoch before the
    /// daemon reports `epochs_stale` (only while ingest is running —
    /// a drained feed is done, not stale).
    pub stale_after: Duration,
    /// Quarantined share of the feed (`quarantined / (quarantined +
    /// ingested)`) above which the daemon reports `quarantine_rate`.
    pub quarantine_max_ratio: f64,
}

impl Default for HealthConfig {
    fn default() -> Self {
        HealthConfig {
            stale_after: Duration::from_secs(30),
            quarantine_max_ratio: 0.05,
        }
    }
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

/// Shared, lock-free-readable health state (see module docs).
#[derive(Debug)]
pub struct HealthState {
    cfg: HealthConfig,
    /// The counters the verdict reads.
    metrics: Arc<Metrics>,
    created: Instant,
    /// Nanos since `created` of the last snapshot publication (0 =
    /// never published).
    last_publish_nanos: AtomicU64,
    restarts: AtomicU64,
    /// Epochs published at the most recent restart — the
    /// `driver_restarted` reason clears once a publish lands after it.
    publishes_at_restart: AtomicU64,
    ingest_done: AtomicBool,
    ingest_failed: AtomicBool,
    sink: Mutex<Option<Arc<SinkStatus>>>,
    alerts: Mutex<Option<Arc<AlertState>>>,
}

impl HealthState {
    /// Fresh state judging the counters on `metrics`; the staleness
    /// grace period starts now.
    pub fn new(cfg: HealthConfig, metrics: Arc<Metrics>) -> HealthState {
        HealthState {
            cfg,
            metrics,
            created: Instant::now(),
            last_publish_nanos: AtomicU64::new(0),
            restarts: AtomicU64::new(0),
            publishes_at_restart: AtomicU64::new(0),
            ingest_done: AtomicBool::new(false),
            ingest_failed: AtomicBool::new(false),
            sink: Mutex::new(None),
            alerts: Mutex::new(None),
        }
    }

    /// Watch an archive sink's retry/drop state.
    pub fn attach_sink(&self, status: Arc<SinkStatus>) {
        *self
            .sink
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner) = Some(status);
    }

    /// Surface an alert engine's firing rules as `alert:{name}`
    /// degraded reasons.
    pub fn attach_alerts(&self, alerts: Arc<AlertState>) {
        *self
            .alerts
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner) = Some(alerts);
    }

    /// Note that `n` snapshots were just published (the metrics count
    /// them): the staleness clock restarts when `n > 0`.
    pub fn note_publish(&self, n: u64) {
        if n == 0 {
            return;
        }
        let nanos = self.created.elapsed().as_nanos() as u64;
        self.last_publish_nanos
            .store(nanos.max(1), Ordering::Release);
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
        self.sink
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clone()
    }

    /// Quarantined share of the feed seen so far (0.0 when nothing was
    /// ingested yet).
    pub fn quarantine_ratio(&self) -> f64 {
        let q = self.quarantined();
        let i = self.metrics.events_ingested.get();
        if q == 0 {
            return 0.0;
        }
        q as f64 / (q + i) as f64
    }

    /// Evaluate the state machine now.
    pub fn evaluate(&self) -> HealthReport {
        if self.ingest_failed.load(Ordering::Acquire) {
            return HealthReport {
                status: HealthStatus::Unhealthy,
                reasons: vec!["ingest_failed".to_string()],
            };
        }
        let mut reasons = Vec::new();
        if let Some(sink) = self.sink() {
            if sink.retrying() {
                reasons.push("archive_sink_retrying".to_string());
            }
            if sink.in_drop_state() {
                reasons.push("archive_epochs_dropped".to_string());
            }
        }
        if !self.ingest_done.load(Ordering::Acquire) {
            let last = self.last_publish_nanos.load(Ordering::Acquire);
            let since = self.created.elapsed().as_nanos() as u64 - last;
            if since > self.cfg.stale_after.as_nanos() as u64 {
                reasons.push("epochs_stale".to_string());
            }
        }
        if self.quarantine_ratio() > self.cfg.quarantine_max_ratio {
            reasons.push("quarantine_rate".to_string());
        }
        // A restart stays visible until the respawned driver proves
        // itself with a publish (or drains the feed completely).
        if self.restarts.load(Ordering::Acquire) > 0
            && !self.ingest_done.load(Ordering::Acquire)
            && self.metrics.epochs_published.get()
                == self.publishes_at_restart.load(Ordering::Acquire)
        {
            reasons.push("driver_restarted".to_string());
        }
        // Alert-rule reasons come last: operator-defined conditions
        // annotate, never mask, the built-in supervision signals.
        if let Some(alerts) = self
            .alerts
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clone()
        {
            for name in alerts.firing() {
                reasons.push(format!("alert:{name}"));
            }
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

impl Default for HealthState {
    /// Default thresholds on a fresh [`Metrics`] nothing else records to.
    fn default() -> Self {
        HealthState::new(HealthConfig::default(), Arc::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A state on metrics of its own, which the test records to.
    fn health(cfg: HealthConfig) -> (HealthState, Arc<Metrics>) {
        let metrics = Arc::new(Metrics::new());
        (HealthState::new(cfg, Arc::clone(&metrics)), metrics)
    }

    #[test]
    fn starts_ok_within_grace() {
        let (h, _) = health(HealthConfig {
            stale_after: Duration::from_secs(60),
            ..Default::default()
        });
        assert_eq!(h.evaluate().status, HealthStatus::Ok);
        assert!(h.evaluate().reasons.is_empty());
    }

    #[test]
    fn staleness_degrades_then_publish_recovers() {
        let (h, _) = health(HealthConfig {
            stale_after: Duration::from_millis(1),
            ..Default::default()
        });
        std::thread::sleep(Duration::from_millis(10));
        let report = h.evaluate();
        assert_eq!(report.status, HealthStatus::Degraded);
        assert_eq!(report.reasons, vec!["epochs_stale"]);
        h.note_publish(1);
        assert_eq!(h.evaluate().status, HealthStatus::Ok);
        // A drained feed is done, not stale.
        std::thread::sleep(Duration::from_millis(10));
        assert_eq!(h.evaluate().status, HealthStatus::Degraded);
        h.mark_ingest_done();
        assert_eq!(h.evaluate().status, HealthStatus::Ok);
    }

    #[test]
    fn quarantine_rate_thresholds() {
        let (h, m) = health(HealthConfig {
            stale_after: Duration::from_secs(60),
            quarantine_max_ratio: 0.10,
        });
        m.events_ingested.add(99);
        m.records_quarantined.add(1);
        assert_eq!(h.evaluate().status, HealthStatus::Ok, "1% is fine");
        m.records_quarantined.add(20);
        assert_eq!(h.quarantined(), 21);
        let report = h.evaluate();
        assert_eq!(report.status, HealthStatus::Degraded);
        assert_eq!(report.reasons, vec!["quarantine_rate"]);
        // Rate recovers as clean events keep flowing.
        m.events_ingested.add(10_000);
        assert_eq!(h.evaluate().status, HealthStatus::Ok);
    }

    #[test]
    fn restart_visible_until_next_publish() {
        let (h, m) = health(HealthConfig {
            stale_after: Duration::from_secs(60),
            ..Default::default()
        });
        m.epochs_published.inc();
        h.note_restart();
        let report = h.evaluate();
        assert_eq!(report.status, HealthStatus::Degraded);
        assert_eq!(report.reasons, vec!["driver_restarted"]);
        assert_eq!(h.restarts(), 1);
        m.epochs_published.inc();
        assert_eq!(h.evaluate().status, HealthStatus::Ok);
    }

    #[test]
    fn ingest_failure_is_unhealthy() {
        let h = HealthState::default();
        h.mark_ingest_failed();
        let report = h.evaluate();
        assert_eq!(report.status, HealthStatus::Unhealthy);
        assert_eq!(report.reasons, vec!["ingest_failed"]);
    }
}
