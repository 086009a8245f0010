//! Self-monitoring end-to-end: the per-epoch provenance traces and the
//! alert-rules engine, observed over real loopback TCP.
//!
//! Two proofs:
//! 1. An epoch's provenance trace is byte-identical whether served live
//!    (from the in-memory `TraceStore`) or from the archive's persisted
//!    trace frame after a "restart" (a fresh server with no live store).
//! 2. An alert rule fires into `/healthz` reasons after its consecutive
//!    over-threshold windows, and clears once the signal drops.
//!
//! Plus, in process: a rule can name what the serving layer itself
//! counts, because `Metrics` records into the registry rules read.

use bgp_archive::prelude::{ArchiveWriter, SegmentStats};
use bgp_infer::counters::Thresholds;
use bgp_serve::prelude::*;
use bgp_stream::epoch::EpochPolicy;
use bgp_stream::ingest::StreamEvent;
use bgp_stream::pipeline::{StreamConfig, StreamPipeline};
use bgp_types::prelude::*;
use obs::trace::TraceStore;
use obs::AlertState;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

/// One-shot HTTP/1.1 GET over a fresh loopback connection.
fn http_get(addr: SocketAddr, path: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let head = format!("GET {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n");
    stream.write_all(head.as_bytes()).expect("write request");
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read response");
    let text = String::from_utf8(raw).expect("UTF-8 response");
    let status: u16 = text[9..12].parse().expect("status code");
    let body = text
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

fn serve(api: Api) -> HttpServer {
    HttpServer::start(
        HttpConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            ..Default::default()
        },
        Arc::new(api),
    )
    .expect("bind loopback")
}

fn tag_events(n: u64) -> Vec<StreamEvent> {
    (0..n)
        .map(|i| {
            let tag = u32::try_from(2 + i % 5).unwrap();
            StreamEvent::new(
                i,
                PathCommTuple::new(
                    path(&[tag, 9]),
                    CommunitySet::from_iter([AnyCommunity::tag_for(Asn(tag), 100)]),
                ),
            )
        })
        .collect()
}

fn tmp_dir(tag: &str) -> std::path::PathBuf {
    static N: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let n = N.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    std::env::temp_dir().join(format!("bgp-selfmon-{tag}-{}-{n}", std::process::id()))
}

/// `Metrics` is a set of handles on the registry rules are evaluated
/// against: what the serving layer itself counts is alertable.
#[test]
fn a_rule_on_the_serve_response_counter_fires() {
    let obs = Arc::new(obs::ObsRegistry::new());
    let api = Api::new(
        Arc::new(SnapshotSlot::new(Thresholds::default())),
        Arc::new(Metrics::with_registry(Arc::clone(&obs))),
    );
    let rules = obs::parse_alert_rules("bgp_serve_http_responses_total>1@1").unwrap();
    let alerts = AlertState::new(rules, obs);
    let get = |path: &str| {
        api.handle(&Request {
            method: "GET".to_string(),
            path: path.to_string(),
            query: Vec::new(),
        })
    };
    assert_eq!(get("/healthz").status, 200);
    alerts.evaluate();
    assert!(alerts.firing().is_empty(), "one response is not over 1");
    // The family's label sets are summed: a 2xx and a 4xx make two.
    assert_eq!(get("/nope").status, 404);
    alerts.evaluate();
    assert_eq!(alerts.firing(), ["bgp_serve_http_responses_total"]);
}

#[test]
fn epoch_trace_is_identical_across_restart() {
    let dir = tmp_dir("trace");
    let _ = std::fs::remove_dir_all(&dir);

    // "First boot": pipeline + publisher + archive writer all threaded
    // with one TraceStore, exactly like the daemon wires them.
    let traces = Arc::new(TraceStore::new(64));
    let mut pipe = StreamPipeline::new(StreamConfig {
        shards: 2,
        epoch: EpochPolicy::every_events(6),
        trace: Some(Arc::clone(&traces)),
        ..Default::default()
    });
    let slot = Arc::new(SnapshotSlot::new(Thresholds::default()));
    let mut publisher = Publisher::new(Arc::clone(&slot), 4096).with_traces(Arc::clone(&traces));
    for ev in tag_events(18) {
        if pipe.push(ev).is_some() {
            publisher.sync(&pipe);
        }
    }
    let mut writer = ArchiveWriter::open(&dir)
        .unwrap()
        .with_traces(Arc::clone(&traces));
    for snap in pipe.snapshots() {
        writer.append_epoch(snap, &SegmentStats::default()).unwrap();
    }
    drop(writer);

    let live_api =
        Api::new(Arc::clone(&slot), Arc::new(Metrics::new())).with_traces(Arc::clone(&traces));
    let live = serve(live_api);
    let (status, live_body) = http_get(live.local_addr(), "/v1/debug/epoch/1/trace");
    assert_eq!(status, 200, "{live_body}");
    assert!(live_body.contains("\"source\":\"live\""), "{live_body}");
    for stage in ["seal", "publish", "archive"] {
        assert!(
            live_body.contains(&format!("\"stage\":\"{stage}\"")),
            "missing {stage}: {live_body}"
        );
    }
    // The seal row says how many tuples its steps visited; it reaches
    // the archive copy through the tail comparison below.
    assert!(live_body.contains("\"visited_tuples\":"), "{live_body}");
    live.shutdown();

    // "Restart": a fresh server with no live TraceStore answers the same
    // epoch from the archive's persisted trace frame.
    let history = Arc::new(HistoryStore::open(&dir, 4, 4096).unwrap());
    let restarted_api = Api::new(Arc::clone(&slot), Arc::new(Metrics::new())).with_history(history);
    let restarted = serve(restarted_api);
    let (status, archived_body) = http_get(restarted.local_addr(), "/v1/debug/epoch/1/trace");
    assert_eq!(status, 200, "{archived_body}");
    assert!(
        archived_body.contains("\"source\":\"archive\""),
        "{archived_body}"
    );

    // Everything from the stage timeline on is byte-identical; only the
    // source marker (live vs archive) may differ.
    let tail = |body: &str| {
        let at = body.find("\"stage_count\":").expect("stage timeline");
        body[at..].to_string()
    };
    assert_eq!(tail(&live_body), tail(&archived_body));

    // An epoch nobody recorded: 404, not an empty trace.
    assert_eq!(
        http_get(restarted.local_addr(), "/v1/debug/epoch/99/trace").0,
        404
    );
    restarted.shutdown();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn alert_fires_into_healthz_and_clears() {
    // Rule over a test-owned counter family: `_rate` selects its
    // per-second delta over the window since the last evaluation.
    let rules = obs::parse_alert_rules("bgp_selfmon_alert_total_rate>5@2").unwrap();
    let alerts = Arc::new(AlertState::new(rules, obs::global()));
    let health = Arc::new(HealthState::default());
    health.attach_alerts(Arc::clone(&alerts));

    let slot = Arc::new(SnapshotSlot::new(Thresholds::default()));
    let api =
        Api::new(Arc::clone(&slot), Arc::new(Metrics::new())).with_health(Arc::clone(&health));
    let http = serve(api);
    let addr = http.local_addr();

    let counter = obs::global().counter("bgp_selfmon_alert_total", "Alert-rule test traffic", &[]);
    // Baseline evaluation so the family has a previous value to delta from.
    alerts.evaluate();

    // Two consecutive over-threshold windows: the streak requirement.
    for _ in 0..2 {
        counter.add(10_000);
        std::thread::sleep(Duration::from_millis(2));
        alerts.evaluate();
    }
    assert_eq!(alerts.firing(), vec!["bgp_selfmon_alert_total_rate"]);
    let (status, body) = http_get(addr, "/healthz");
    assert_eq!(status, 200);
    assert!(
        body.contains("\"alert:bgp_selfmon_alert_total_rate\""),
        "{body}"
    );
    assert!(body.contains("\"status\":\"degraded\""), "{body}");

    // Quiet windows: the rule clears and /healthz drops the reason.
    for _ in 0..2 {
        std::thread::sleep(Duration::from_millis(2));
        alerts.evaluate();
    }
    assert!(alerts.firing().is_empty());
    let (status, body) = http_get(addr, "/healthz");
    assert_eq!(status, 200);
    assert!(
        !body.contains("alert:bgp_selfmon_alert_total_rate"),
        "{body}"
    );
    http.shutdown();
}
