//! Live classification over a simulated update feed.
//!
//! Builds a small Internet, materializes a random-role scenario, replays
//! it as a timestamped update stream (re-announcements included), and
//! runs the sharded `bgp-stream` pipeline with hourly epochs — printing
//! how classifications converge and flip as evidence accumulates, then
//! checking the final answer against the batch engine.
//!
//! Run with: `cargo run --release --example streaming_inference`

use bgp_community_usage::prelude::*;

fn main() {
    // 1. A world with ground truth.
    let mut cfg = TopologyConfig::small();
    cfg.transit = 30;
    cfg.edge = 120;
    cfg.collector_peers = 16;
    let graph = cfg.seed(42).build();
    let paths = PathSubstrate::generate(&graph, 3).paths;
    let ds = Scenario::Random.materialize(&graph, &paths, 42);
    println!(
        "world: {} tuples from {} paths",
        ds.tuples.len(),
        paths.len()
    );

    // 2. Replay it as a day-long update feed (each route re-announced up
    //    to 3 extra times at random moments).
    let feed = UpdateFeed::new(&ds, 42, 3);
    println!(
        "feed: {} timestamped announcements over one day\n",
        feed.len()
    );

    // 3. Stream it: 4 shards, one epoch per simulated hour.
    let mut pipe = StreamPipeline::new(StreamConfig {
        shards: 4,
        epoch: EpochPolicy::every_span(3_600),
        ..Default::default()
    });
    let mut source = IterSource::new(feed.map(|(ts, t)| StreamEvent::new(ts, t)));
    pipe.drive(&mut source, 512)
        .expect("in-memory feed cannot fail");
    let out = pipe.finish();

    println!("epoch  version  events  unique  classified  flips");
    for s in &out.snapshots {
        println!(
            "{:>5}  {:>7}  {:>6}  {:>6}  {:>10}  {:>5}",
            s.epoch,
            s.version,
            s.events,
            s.unique_tuples,
            s.classes.len(),
            s.flips.len()
        );
    }

    // 4. Watch one AS converge: replay its flip history.
    if let Some((epoch, flip)) = out.all_flips().last() {
        println!("\nlast flip (epoch {epoch}): {flip}");
    }

    // 5. The final answer is byte-identical to a batch run on the same
    //    unique tuples — streaming trades nothing for liveness.
    let unique: TupleSet = ds.tuples.iter().cloned().collect();
    let batch = InferenceEngine::new(InferenceConfig::default()).run(&unique.to_vec());
    assert_eq!(batch.classes(), out.classes(), "stream must equal batch");
    println!(
        "\nparity: {} ASes classified identically to the batch engine",
        out.classes().len()
    );
    println!(
        "stream stats: {} events, {} unique, {} duplicates, shard loads {:?}",
        out.total_events(),
        out.unique_tuples(),
        out.duplicates(),
        out.shard_loads()
    );

    // 6. And the snapshot exports through the same release-db format.
    let db = out.export_db();
    println!("release db: {} lines", db.lines().count());
}
