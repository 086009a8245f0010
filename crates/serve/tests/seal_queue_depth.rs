//! `bgp_serve_seal_queue_depth` after a driver finishes, read on the
//! registry of the `Metrics` the driver was handed.

use bgp_infer::counters::Thresholds;
use bgp_serve::prelude::*;
use bgp_stream::epoch::EpochPolicy;
use bgp_stream::ingest::StreamEvent;
use bgp_stream::pipeline::StreamConfig;
use bgp_types::prelude::*;
use fault::FaultPlan;
use std::sync::Arc;

fn depth(metrics: &Metrics) -> i64 {
    metrics
        .registry()
        .gauge(
            "bgp_serve_seal_queue_depth",
            "Event batches queued between the feed puller and the sealer worker",
            &[],
        )
        .get()
}

/// A 2,000-event feed in 3-event batches: hundreds of sends, so a
/// count lost or doubled anywhere shows.
fn run(metrics: &Arc<Metrics>, fault: Option<&str>) -> IngestReport {
    let events = (0..2_000u64)
        .map(|i| {
            let tag = 2 + (i % 97) as u32;
            let tuple = PathCommTuple::new(
                path(&[tag, 9, 10_000 + (i % 500) as u32]),
                CommunitySet::from_iter([AnyCommunity::tag_for(Asn(tag), 100)]),
            );
            StreamEvent::new(i, tuple)
        })
        .collect();
    let fault =
        fault.map(|plan| Arc::new(FaultPlan::parse(plan).unwrap().feed_injector(7).unwrap()));
    let cfg = DriverConfig {
        stream: StreamConfig {
            shards: 2,
            epoch: EpochPolicy::every_events(64),
            ..Default::default()
        },
        batch: 3,
        fault,
        restart_budget: 2,
        ..Default::default()
    };
    spawn_ingest_archived(
        cfg,
        Feed::Events(events),
        Arc::new(SnapshotSlot::new(Thresholds::default())),
        Arc::clone(metrics),
        None,
        None,
    )
    .join()
    .expect("the driver finishes")
}

#[test]
fn the_seal_queue_reads_empty_after_a_clean_run_and_after_a_respawn() {
    let metrics = Arc::new(Metrics::new());
    assert_eq!(depth(&metrics), 0, "before any driver");
    let clean = run(&metrics, None);
    assert_eq!((clean.total_events, clean.restarts), (2_000, 0));
    assert_eq!(depth(&metrics), 0, "after a clean run");
    let respawned = run(&metrics, Some("feed:panic@2"));
    assert_eq!((respawned.total_events, respawned.restarts), (2_000, 1));
    assert_eq!(depth(&metrics), 0, "after a respawn");
}
