//! The degraded-mode `/healthz` surface, end to end over loopback TCP.
//!
//! Each test drives a *real* failure into the supervised pipeline —
//! a permanently failing archive sink, a stalled feed, a dead ingest
//! driver — and asserts the health endpoint reports it with the right
//! JSON body, the right status code, and (where the fault clears) the
//! transition back to `ok`.

use bgp_archive::prelude::*;
use bgp_infer::counters::Thresholds;
use bgp_serve::prelude::*;
use bgp_stream::epoch::EpochPolicy;
use bgp_stream::pipeline::StreamConfig;
use fault::FaultPlan;
use std::sync::Arc;
use std::time::Duration;

mod support;
use support::{tag_events, tmp_dir, Client};

fn serve_with_health(health: Arc<HealthState>) -> (HttpServer, Client, Arc<SnapshotSlot>) {
    let slot = Arc::new(SnapshotSlot::new(Thresholds::default()));
    let api = Api::new(Arc::clone(&slot), Arc::new(Metrics::new())).with_health(health);
    let http = HttpServer::start(
        HttpConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            ..Default::default()
        },
        Arc::new(api),
    )
    .expect("bind loopback");
    let client = Client::connect(http.local_addr());
    (http, client, slot)
}

#[test]
fn stalled_feed_degrades_then_publish_recovers() {
    let health = Arc::new(HealthState::new(HealthConfig {
        stale_after: Duration::from_millis(5),
        ..Default::default()
    }));
    let (http, mut client, _slot) = serve_with_health(Arc::clone(&health));

    std::thread::sleep(Duration::from_millis(20));
    let (status, body) = client.get("/healthz");
    assert_eq!(status, 200, "degraded still serves traffic");
    assert!(body.contains("\"status\":\"degraded\""), "{body}");
    assert!(body.contains("\"epochs_stale\""), "{body}");

    // A publish clears the staleness; /healthz transitions back to ok.
    health.note_publish(1);
    let (status, body) = client.get("/healthz");
    assert_eq!(status, 200);
    assert!(body.contains("\"status\":\"ok\""), "{body}");
    assert!(body.contains("\"reasons\":[]"), "{body}");
    http.shutdown();
}

#[test]
fn sink_drops_degrade_healthz_and_stats() {
    // An archive whose durable writes ALWAYS fail: every submitted
    // epoch exhausts its retries and is dropped.
    let dir = tmp_dir("drops");
    let plan = FaultPlan::parse("archive:fail%1.0").unwrap();
    let writer = ArchiveWriter::open_with_io(&dir, Box::new(plan.archive_io(7).unwrap())).unwrap();
    let sink = ArchiveSink::spawn_with(
        writer,
        SinkConfig {
            max_retries: 1,
            backoff_base: Duration::from_millis(1),
            ..Default::default()
        },
    );
    let health = Arc::new(HealthState::new(HealthConfig {
        stale_after: Duration::from_secs(600),
        ..Default::default()
    }));
    let (http, mut client, slot) = serve_with_health(Arc::clone(&health));

    let report = bgp_serve::driver::spawn_supervised(
        DriverConfig {
            stream: StreamConfig {
                shards: 2,
                epoch: EpochPolicy::every_events(4),
                ..Default::default()
            },
            batch: 3,
            ..Default::default()
        },
        Feed::Events(tag_events(10)),
        Arc::clone(&slot),
        Arc::new(Metrics::new()),
        Some(sink),
        None,
        Some(Arc::clone(&health)),
    )
    .join()
    .expect("drops are not fatal to the run");
    assert_eq!(report.archived_epochs, 0, "nothing durably committed");
    assert!(report.archive_dropped > 0, "every epoch dropped");

    let (status, body) = client.get("/healthz");
    assert_eq!(status, 200, "degraded still serves traffic");
    assert!(body.contains("\"status\":\"degraded\""), "{body}");
    assert!(body.contains("\"archive_epochs_dropped\""), "{body}");
    assert!(!body.contains("\"status\":\"ok\""), "{body}");

    // /v1/stats grows the same supervision fields.
    let (status, stats) = client.get("/v1/stats");
    assert_eq!(status, 200);
    assert!(stats.contains("\"health\":\"degraded\""), "{stats}");
    assert!(stats.contains("\"archive_epochs_dropped\""), "{stats}");
    assert!(stats.contains("\"driver_restarts\":0"), "{stats}");
    assert!(stats.contains("\"quarantined\":0"), "{stats}");
    http.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sink_retry_recovers_to_ok() {
    // The first durable write fails, the retry (after reopen) succeeds:
    // the sink reports retries but zero drops, and health ends ok.
    let dir = tmp_dir("retry");
    let plan = FaultPlan::parse("archive:fail@1").unwrap();
    let writer = ArchiveWriter::open_with_io(&dir, Box::new(plan.archive_io(7).unwrap())).unwrap();
    let sink = ArchiveSink::spawn_with(
        writer,
        SinkConfig {
            backoff_base: Duration::from_millis(1),
            ..Default::default()
        },
    );
    let health = Arc::new(HealthState::new(HealthConfig {
        stale_after: Duration::from_secs(600),
        ..Default::default()
    }));
    let (http, mut client, slot) = serve_with_health(Arc::clone(&health));

    let report = bgp_serve::driver::spawn_supervised(
        DriverConfig {
            stream: StreamConfig {
                shards: 2,
                epoch: EpochPolicy::every_events(4),
                ..Default::default()
            },
            batch: 3,
            ..Default::default()
        },
        Feed::Events(tag_events(10)),
        Arc::clone(&slot),
        Arc::new(Metrics::new()),
        Some(sink),
        None,
        Some(Arc::clone(&health)),
    )
    .join()
    .expect("retried run succeeds");
    assert_eq!(report.archive_dropped, 0, "retry salvaged the epoch");
    assert_eq!(report.archived_epochs, 3, "all epochs durable");

    let (status, body) = client.get("/healthz");
    assert_eq!(status, 200);
    assert!(body.contains("\"status\":\"ok\""), "{body}");
    let retries = health.sink().expect("sink attached").retries();
    assert!(retries > 0, "the injected failure forced a retry");
    let (_, stats) = client.get("/v1/stats");
    assert!(stats.contains("\"archive_retries\""), "{stats}");
    assert!(stats.contains("\"archive_committed\":3"), "{stats}");

    // And the archive on disk is clean despite the faulted first write.
    let verify = Archive::open(&dir).unwrap().verify();
    assert!(verify.is_ok(), "{:?}", verify.problems);
    http.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn dead_ingest_is_unhealthy_503() {
    // Every feed attempt panics; the restart budget exhausts and the
    // daemon reports itself unhealthy so load balancers eject it.
    let plan = FaultPlan::parse("feed:panic%1.0").unwrap();
    let health = Arc::new(HealthState::new(HealthConfig {
        stale_after: Duration::from_secs(600),
        ..Default::default()
    }));
    let (http, mut client, slot) = serve_with_health(Arc::clone(&health));
    let err = bgp_serve::driver::spawn_supervised(
        DriverConfig {
            fault: Some(Arc::new(plan.feed_injector(7).unwrap())),
            restart_budget: 1,
            ..Default::default()
        },
        Feed::Events(tag_events(10)),
        slot,
        Arc::new(Metrics::new()),
        None,
        None,
        Some(Arc::clone(&health)),
    )
    .join()
    .unwrap_err();
    assert!(err.contains("restart budget"), "{err}");

    let (status, body) = client.get("/healthz");
    assert_eq!(status, 503, "unhealthy is load-balancer visible");
    assert!(body.contains("\"status\":\"unhealthy\""), "{body}");
    assert!(body.contains("\"ingest_failed\""), "{body}");
    http.shutdown();
}

#[test]
fn legacy_healthz_without_health_state_is_unchanged() {
    let slot = Arc::new(SnapshotSlot::new(Thresholds::default()));
    let api = Api::new(slot, Arc::new(Metrics::new()));
    let http = HttpServer::start(
        HttpConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 1,
            ..Default::default()
        },
        Arc::new(api),
    )
    .unwrap();
    let mut client = Client::connect(http.local_addr());
    let (status, body) = client.get("/healthz");
    assert_eq!(status, 200);
    assert_eq!(body, "{\"version\":0,\"epoch\":null,\"status\":\"ok\"}");
    http.shutdown();
}
