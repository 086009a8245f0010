//! The degraded-mode `/healthz` surface, end to end over loopback TCP.
//!
//! Each test drives a *real* failure into the supervised pipeline —
//! a permanently failing archive sink, a stalled feed, a dead ingest
//! driver — and asserts the health endpoint reports it with the right
//! JSON body, the right status code, and (where the fault clears) the
//! transition back to `ok`. Quarantine is counted across every source
//! of a feed, and reaches health and `/metrics` as each batch is pulled.
//! Each test's serving half is a daemon's: one registry under its
//! metrics, its health state, its API and its driver.

use bgp_archive::prelude::*;
use bgp_infer::counters::Thresholds;
use bgp_serve::health::STALE_AFTER;
use bgp_serve::prelude::*;
use bgp_stream::epoch::EpochPolicy;
use bgp_stream::pipeline::StreamConfig;
use fault::FaultPlan;
use std::sync::Arc;
use std::time::{Duration, Instant};

mod support;
use support::{metric, tag_events, tmp_dir, Client};

/// A daemon's serving half, every part on one fresh registry.
struct Served {
    http: HttpServer,
    client: Client,
    slot: Arc<SnapshotSlot>,
    metrics: Arc<Metrics>,
    health: Arc<HealthState>,
}

/// A daemon's serving half whose health state was born at `born`.
fn serve_with_health(born: Instant) -> Served {
    let slot = Arc::new(SnapshotSlot::new(Thresholds::default()));
    let metrics = Arc::new(Metrics::new());
    let health = Arc::new(HealthState::new(Arc::clone(&metrics), born));
    let api = Api::new(Arc::clone(&slot), Arc::clone(&metrics)).with_health(Arc::clone(&health));
    let http = HttpServer::start(
        HttpConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            registry: Arc::clone(metrics.registry()),
            ..Default::default()
        },
        Arc::new(api),
    )
    .expect("bind loopback");
    let client = Client::connect(http.local_addr());
    Served {
        http,
        client,
        slot,
        metrics,
        health,
    }
}

/// An instant the `/healthz` handler's clock is already past
/// [`STALE_AFTER`] from: a state born then is stale at once, no sleep.
fn long_ago() -> Instant {
    Instant::now()
        .checked_sub(STALE_AFTER + Duration::from_secs(1))
        .expect("the monotonic clock has run past STALE_AFTER")
}

#[test]
fn stalled_feed_degrades_then_publish_recovers() {
    let Served {
        http,
        mut client,
        health,
        ..
    } = serve_with_health(long_ago());

    let (status, body) = client.get("/healthz");
    assert_eq!(status, 200, "degraded still serves traffic");
    assert!(body.contains("\"status\":\"degraded\""), "{body}");
    assert!(body.contains("\"epochs_stale\""), "{body}");

    // A publish clears the staleness; /healthz transitions back to ok.
    health.note_publish(1, Instant::now());
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
    let Served {
        http,
        mut client,
        slot,
        metrics,
        health,
    } = serve_with_health(Instant::now());
    let io = Box::new(plan.archive_io(7).unwrap());
    let writer = ArchiveWriter::open_with_io(&dir, io, Arc::clone(metrics.registry())).unwrap();
    let sink = ArchiveSink::spawn(writer);

    let report = spawn_ingest_archived(
        DriverConfig {
            stream: StreamConfig {
                shards: 2,
                epoch: EpochPolicy::every_events(4),
                ..Default::default()
            },
            batch: 3,
            health: Arc::clone(&health),
            ..Default::default()
        },
        Feed::Events(tag_events(10)),
        Arc::clone(&slot),
        metrics,
        Some(sink),
        None,
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
    let Served {
        http,
        mut client,
        slot,
        metrics,
        health,
    } = serve_with_health(Instant::now());
    let io = Box::new(plan.archive_io(7).unwrap());
    let writer = ArchiveWriter::open_with_io(&dir, io, Arc::clone(metrics.registry())).unwrap();
    let sink = ArchiveSink::spawn(writer);

    let report = spawn_ingest_archived(
        DriverConfig {
            stream: StreamConfig {
                shards: 2,
                epoch: EpochPolicy::every_events(4),
                ..Default::default()
            },
            batch: 3,
            health: Arc::clone(&health),
            ..Default::default()
        },
        Feed::Events(tag_events(10)),
        Arc::clone(&slot),
        metrics,
        Some(sink),
        None,
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
    let Served {
        http,
        mut client,
        slot,
        metrics,
        health,
    } = serve_with_health(Instant::now());
    let err = spawn_ingest_archived(
        DriverConfig {
            fault: Some(Arc::new(plan.feed_injector(7).unwrap())),
            restart_budget: 1,
            health: Arc::clone(&health),
            ..Default::default()
        },
        Feed::Events(tag_events(10)),
        slot,
        metrics,
        None,
        None,
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
fn quarantine_abort_bounds_the_whole_feed() {
    // Three files that each fail to decode: one quarantined chunk apiece,
    // within a bound of 2 per file but past it across the feed.
    let dir = tmp_dir("abort");
    let files: Vec<String> = (0..3)
        .map(|i| {
            let file = dir.join(format!("{i}.mrt"));
            std::fs::write(&file, b"not an MRT record").unwrap();
            file.display().to_string()
        })
        .collect();
    let Served {
        http,
        mut client,
        slot,
        metrics,
        health,
    } = serve_with_health(Instant::now());
    let err = spawn_ingest_archived(
        DriverConfig {
            quarantine_abort: 2,
            health: Arc::clone(&health),
            ..Default::default()
        },
        Feed::MrtFiles(files),
        slot,
        metrics,
        None,
        None,
    )
    .join()
    .unwrap_err();
    assert!(err.contains("quarantine threshold exceeded"), "{err}");
    assert_eq!(health.quarantined(), 3, "counted across the files");
    assert_eq!(
        health.evaluate(Instant::now()).reasons,
        vec!["ingest_failed"]
    );

    let (status, body) = client.get("/healthz");
    assert_eq!(status, 503, "{body}");
    assert!(body.contains("\"ingest_failed\""), "{body}");
    http.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_quarantine_is_reported_before_its_source_drains() {
    // A malformed record at the head of a 100-event source; the third
    // pull panics and no respawn is allowed, so the source never drains.
    let mut events = tag_events(100);
    events.insert(0, fault::malformed_event());
    let plan = FaultPlan::parse("feed:panic@3").unwrap();
    let metrics = Arc::new(Metrics::new());
    let health = Arc::new(HealthState::new(Arc::clone(&metrics), Instant::now()));
    let err = spawn_ingest_archived(
        DriverConfig {
            batch: 10,
            fault: Some(Arc::new(plan.feed_injector(7).unwrap())),
            restart_budget: 0,
            health: Arc::clone(&health),
            ..Default::default()
        },
        Feed::Events(events),
        Arc::new(SnapshotSlot::new(Thresholds::default())),
        Arc::clone(&metrics),
        None,
        None,
    )
    .join()
    .unwrap_err();
    assert!(err.contains("restart budget"), "{err}");
    assert_eq!(health.quarantined(), 1, "reported as its batch was pulled");
    let mut page = String::new();
    metrics.registry().render_prometheus(&mut page);
    assert_eq!(
        metric(&page, "bgp_serve_quarantined_total"),
        Some(1.0),
        "{page}"
    );
}

#[test]
fn two_daemons_in_one_process_each_count_their_own_quarantines() {
    // 40 clean events each, with 1 and with 5 malformed records among
    // them: 2.4 % and 11.1 % of the feed, against the 5 % threshold.
    let daemons = [1u64, 5].map(|malformed| {
        let served = serve_with_health(Instant::now());
        let mut events = tag_events(40);
        for i in 0..malformed {
            events.insert(usize::try_from(i * 9).unwrap(), fault::malformed_event());
        }
        let driver = spawn_ingest_archived(
            DriverConfig {
                batch: 8,
                health: Arc::clone(&served.health),
                ..Default::default()
            },
            Feed::Events(events),
            Arc::clone(&served.slot),
            Arc::clone(&served.metrics),
            None,
            None,
        );
        (served, driver, malformed)
    });
    for (mut served, driver, malformed) in daemons {
        let report = driver.join().expect("the feed drains");
        assert_eq!((report.total_events, report.quarantined), (40, malformed));
        let field = format!("\"quarantined\":{malformed}");
        let (_, healthz) = served.client.get("/healthz");
        assert!(healthz.contains(&field), "{healthz}");
        let (_, stats) = served.client.get("/v1/stats");
        assert!(stats.contains(&field), "{stats}");
        let (_, page) = served.client.get("/metrics");
        assert_eq!(
            metric(&page, "bgp_serve_quarantined_total"),
            Some(malformed as f64)
        );
        assert_eq!(metric(&page, "bgp_serve_events_ingested_total"), Some(40.0));
        let over = malformed as f64 / (malformed + 40) as f64 > 0.05;
        assert_eq!(healthz.contains("\"quarantine_rate\""), over, "{healthz}");
        assert_eq!(healthz.contains("\"status\":\"ok\""), !over, "{healthz}");
        served.http.shutdown();
    }
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
