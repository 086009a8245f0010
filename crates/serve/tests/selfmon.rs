//! Self-monitoring end-to-end: the per-epoch provenance traces,
//! observed over real loopback TCP.
//!
//! An epoch's provenance trace is byte-identical whether served live
//! (from the trace store of the registry every layer records on) or
//! from the archive's persisted trace frame after a "restart" (a fresh
//! server on a fresh registry).

use bgp_archive::prelude::{ArchiveWriter, RealIo, SegmentStats};
use bgp_infer::counters::Thresholds;
use bgp_serve::prelude::*;
use bgp_stream::epoch::EpochPolicy;
use bgp_stream::pipeline::{StreamConfig, StreamPipeline};
use std::sync::Arc;

mod support;
use support::{tag_events, tmp_dir, Client};

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

#[test]
fn epoch_trace_is_identical_across_restart() {
    let dir = tmp_dir("trace");

    // "First boot": pipeline, publisher, archive writer and API all on
    // one registry, exactly like the daemon wires them.
    let obs = Arc::new(obs::ObsRegistry::new());
    let metrics = Arc::new(Metrics::with_registry(Arc::clone(&obs)));
    let cfg = StreamConfig {
        shards: 2,
        epoch: EpochPolicy::every_events(6),
        ..Default::default()
    };
    let mut pipe = StreamPipeline::with_registry(cfg, &obs);
    let slot = Arc::new(SnapshotSlot::new(Thresholds::default()));
    let mut publisher = Publisher::new(Arc::clone(&slot), 4096).with_metrics(Arc::clone(&metrics));
    for ev in tag_events(18) {
        if pipe.push(ev).is_some() {
            publisher.sync(&pipe);
        }
    }
    let mut writer = ArchiveWriter::open_with_io(&dir, Box::new(RealIo), Arc::clone(&obs)).unwrap();
    for snap in pipe.snapshots() {
        writer.append_epoch(snap, &SegmentStats::default()).unwrap();
    }
    drop(writer);

    let live = serve(Api::new(Arc::clone(&slot), metrics));
    // "Restart": a fresh server on a fresh registry, whose store traced
    // nothing, answers the same epochs from the archive's trace frames.
    let history = Arc::new(HistoryStore::open(&dir, 4096).unwrap());
    let restarted_api = Api::new(Arc::clone(&slot), Arc::new(Metrics::new())).with_history(history);
    let restarted = serve(restarted_api);
    let trace = |server: &HttpServer, epoch: u64, source: &str| {
        let path = format!("/v1/debug/epoch/{epoch}/trace");
        let (status, body) = Client::connect(server.local_addr()).get(&path);
        assert_eq!(status, 200, "{body}");
        assert!(body.contains(&format!("\"source\":\"{source}\"")), "{body}");
        body
    };
    // Epoch 0 counted its tuples; epoch 1 saw only duplicates, so its
    // zero-delta seal has no count or merge row.
    for (epoch, stages) in [
        (
            0,
            &[
                "ingest",
                "seal",
                "shard_count",
                "shard_merge",
                "publish",
                "archive",
            ][..],
        ),
        (1, &["ingest", "seal", "publish", "archive"][..]),
    ] {
        let live_body = trace(&live, epoch, "live");
        let at = live_body.find("\"stages\":").expect("stage timeline");
        let names: Vec<&str> = live_body[at..]
            .split("\"stage\":\"")
            .skip(1)
            .map(|row| &row[..row.find('"').unwrap()])
            .collect();
        assert_eq!(names, stages, "{live_body}");
        // The seal row says how many tuples its steps visited, how many
        // rows its corrections re-evaluated and how many ids moved; all
        // reach the archive copy through the tail comparison below.
        for counter in ["visited_tuples", "corrected_rows", "moved"] {
            assert!(
                live_body.contains(&format!("\"{counter}\":")),
                "{live_body}"
            );
        }
        // Everything from the stage timeline on is byte-identical; only
        // the source marker (live vs archive) may differ.
        let archived_body = trace(&restarted, epoch, "archive");
        let tail = |body: &str| body[body.find("\"stage_count\":").unwrap()..].to_string();
        assert_eq!(tail(&live_body), tail(&archived_body));
    }
    live.shutdown();

    // An epoch nobody recorded: 404, not an empty trace.
    assert_eq!(
        Client::connect(restarted.local_addr())
            .get("/v1/debug/epoch/99/trace")
            .0,
        404
    );
    restarted.shutdown();
    std::fs::remove_dir_all(&dir).unwrap();
}
