//! Parity and epoch-semantics guarantees of the `bgp-stream` pipeline:
//! streaming must produce *identical* `(Asn, Class)` output (and raw
//! counters) to the batch `InferenceEngine::run` on the same input, for
//! any shard count and any epoch slicing; snapshots version monotonically
//! and their flip streams compose back into the final classification.
//!
//! A stream counts each distinct tuple once, as the paper's `TupleSet`
//! pipeline does, so every batch and reference oracle here runs over the
//! feed's unique tuples (`unique`).

use bgp_community_usage::prelude::*;
use std::collections::HashMap;

fn world(seed: u64) -> GroundTruthDataset {
    let mut cfg = TopologyConfig::small();
    cfg.transit = 30;
    cfg.edge = 100;
    cfg.collector_peers = 14;
    let g = cfg.seed(seed).build();
    let paths = PathSubstrate::generate(&g, 3).paths;
    Scenario::Random.materialize(&g, &paths, seed)
}

/// The feed's `TupleSet`-unique tuples: what a stream over it stores.
fn unique(tuples: &[PathCommTuple]) -> Vec<PathCommTuple> {
    tuples.iter().cloned().collect::<TupleSet>().to_vec()
}

fn batch_outcome(tuples: &[PathCommTuple]) -> InferenceOutcome {
    InferenceEngine::new(InferenceConfig {
        threads: 1,
        ..Default::default()
    })
    .run(&unique(tuples))
}

fn reference_outcome(tuples: &[PathCommTuple]) -> InferenceOutcome {
    InferenceEngine::new(InferenceConfig {
        threads: 1,
        ..Default::default()
    })
    .run_reference(&unique(tuples))
}

fn stream_over(tuples: &[PathCommTuple], shards: usize, epoch: EpochPolicy) -> StreamOutcome {
    let mut pipe = StreamPipeline::new(StreamConfig {
        shards,
        epoch,
        ..Default::default()
    });
    for (i, t) in tuples.iter().enumerate() {
        pipe.push(StreamEvent::new(i as u64, t.clone()));
    }
    pipe.finish()
}

fn assert_counter_parity(batch: &InferenceOutcome, stream: &StreamOutcome, ctx: &str) {
    // Classes AND the raw counters behind them must match exactly.
    assert_eq!(batch.classes(), stream.classes(), "{ctx}: classes diverged");
    assert_eq!(records(batch), stream.records(), "{ctx}: counters diverged");
    let last = stream.snapshots.last().expect("a finished stream sealed");
    let dense = last
        .dense
        .as_ref()
        .expect("the last epoch keeps its counters");
    assert_eq!(
        batch.deepest_active_index, dense.deepest_active_index,
        "{ctx}: deepest active index diverged"
    );
}

#[test]
fn compiled_shards_match_the_reference_oracle() {
    // The shards now count over the compiled columnar store
    // (`bgp_infer::compiled`); pin them not just against the (also
    // compiled) batch engine but against the uncompiled Listing-1
    // oracle `run_reference`, for a plain feed and one with repeats.
    let ds = world(37);
    let oracle = reference_outcome(&ds.tuples);
    for shards in [1usize, 3] {
        let out = stream_over(&ds.tuples, shards, EpochPolicy::every_events(250));
        assert_counter_parity(&oracle, &out, &format!("compiled store, {shards} shards"));
    }

    // Repeats: the oracle's unique set is unchanged by them.
    let mut pipe = StreamPipeline::new(StreamConfig {
        shards: 4,
        epoch: EpochPolicy::every_events(300),
        ..Default::default()
    });
    for (i, t) in ds
        .tuples
        .iter()
        .chain(ds.tuples.iter().take(200))
        .enumerate()
    {
        pipe.push(StreamEvent::new(i as u64, t.clone()));
    }
    let out = pipe.finish();
    assert_counter_parity(&oracle, &out, "compiled store, repeating feed");
}

#[test]
fn stream_matches_batch_for_every_shard_count() {
    let ds = world(11);
    let batch = batch_outcome(&ds.tuples);
    for shards in [1usize, 2, 4, 8] {
        let out = stream_over(&ds.tuples, shards, EpochPolicy::manual());
        assert_counter_parity(&batch, &out, &format!("{shards} shards"));
    }
}

#[test]
fn epoch_slicing_never_changes_the_final_answer() {
    let ds = world(13);
    let batch = batch_outcome(&ds.tuples);
    for epoch in [
        EpochPolicy::manual(),
        EpochPolicy::every_events(1),
        EpochPolicy::every_events(97),
        EpochPolicy::either(64, 3),
    ] {
        let out = stream_over(&ds.tuples, 4, epoch);
        assert_counter_parity(&batch, &out, &format!("{epoch:?}"));
    }
}

#[test]
fn shard_count_cannot_change_snapshots() {
    // Determinism across shard counts must hold per-epoch, not just at
    // the end: same events, same epoch policy => identical snapshot
    // classes and flips for 1, 2 and 4 shards.
    let ds = world(17);
    let policy = EpochPolicy::every_events(200);
    let runs: Vec<StreamOutcome> = [1usize, 2, 4]
        .iter()
        .map(|&s| stream_over(&ds.tuples, s, policy))
        .collect();
    for other in &runs[1..] {
        assert_eq!(runs[0].epochs(), other.epochs());
        for (a, b) in runs[0].snapshots.iter().zip(&other.snapshots) {
            assert_eq!(a.classes, b.classes, "epoch {} classes", a.epoch);
            let fa: Vec<(Asn, Class, Class)> =
                a.flips.iter().map(|f| (f.asn, f.from, f.to)).collect();
            let fb: Vec<(Asn, Class, Class)> =
                b.flips.iter().map(|f| (f.asn, f.from, f.to)).collect();
            assert_eq!(fa, fb, "epoch {} flips", a.epoch);
        }
    }
}

#[test]
fn snapshots_version_monotonically_and_flips_compose() {
    let ds = world(19);
    let out = stream_over(&ds.tuples, 2, EpochPolicy::every_events(150));
    assert!(
        out.epochs() >= 2,
        "want multiple epochs, got {}",
        out.epochs()
    );

    // Versions are strictly increasing from 1.
    for (i, s) in out.snapshots.iter().enumerate() {
        assert_eq!(s.epoch, i as u64);
        assert_eq!(s.version, i as u64 + 1);
    }

    // Replaying every flip stream over an empty map reproduces exactly
    // the final classification (and each flip's `from` matches the state
    // it was applied to — the diff is consistent, not merely eventual).
    let mut state: HashMap<Asn, Class> = HashMap::new();
    for s in &out.snapshots {
        for f in s.flips.iter() {
            let prev = state.get(&f.asn).copied().unwrap_or(Class::NONE);
            assert_eq!(prev, f.from, "flip for {} disagrees with history", f.asn);
            state.insert(f.asn, f.to);
        }
    }
    let mut replayed: Vec<(Asn, Class)> = state
        .into_iter()
        .filter(|&(_, c)| c != Class::NONE)
        .collect();
    replayed.sort_by_key(|&(a, _)| a);
    let finals: Vec<(Asn, Class)> = out
        .classes()
        .into_iter()
        .filter(|&(_, c)| c != Class::NONE)
        .collect();
    assert_eq!(replayed, finals);
}

#[test]
fn mrt_day_stream_matches_batch_ingest() {
    // Full-system parity: generate a collector day, consume it once via
    // the batch path (ingest_day -> TupleSet -> engine) and once via the
    // streaming path (one MrtSource per published file, RIB snapshot then
    // each update bin -> sharded pipeline).
    let mut cfg = TopologyConfig::small();
    cfg.transit = 25;
    cfg.edge = 80;
    cfg.collector_peers = 10;
    let g = cfg.seed(23).build();
    let roles = Scenario::Random.assign_roles(&g, 23);
    let paths = PathSubstrate::generate(&g, 3).paths;
    let day = ArchiveBuilder::new(&g, &roles).build_day(&CollectorProject::ripe(), &paths, 23);

    let mut set = TupleSet::new();
    ingest_day(&day, &mut set).expect("archive parses");
    let batch = batch_outcome(&set.to_vec());

    let mut pipe = StreamPipeline::new(StreamConfig {
        shards: 4,
        epoch: EpochPolicy::every_events(500),
        ..Default::default()
    });
    for chunk in day.chunks() {
        pipe.drive(&mut MrtSource::new(chunk), 256)
            .expect("stream parses");
    }
    let out = pipe.finish();

    assert_eq!(
        out.unique_tuples(),
        set.len(),
        "dedup diverged from TupleSet"
    );
    assert_counter_parity(&batch, &out, "collector day");
}

#[test]
fn reclassify_matches_batch_reclassify() {
    let ds = world(29);
    let batch = batch_outcome(&ds.tuples);
    let out = stream_over(&ds.tuples, 2, EpochPolicy::every_events(100));
    for th in [0.5, 0.75, 0.9] {
        assert_eq!(
            batch.reclassify(Thresholds::uniform(th)),
            out.reclassify(Thresholds::uniform(th)),
            "reclassify at {th}"
        );
    }
}

mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// The shards of a set speak one id space, at any shard count:
        /// its ids are what a private interner fed the new tuples' hops
        /// in arrival order assigns (dedup hits intern nothing), every
        /// id is some hop's, and `resolve` ∘ `get` is the identity.
        #[test]
        fn shards_share_one_dense_id_space(seed in 0u64..200, run in 1usize..300) {
            let ds = world(seed);
            let feed: Vec<&PathCommTuple> = ds
                .tuples
                .iter()
                .chain(ds.tuples.iter().take(ds.tuples.len() / 3))
                .collect();
            let mut stored = TupleSet::new();
            let mut want = AsnInterner::new();
            for &t in &feed {
                if stored.insert(t.clone()) {
                    for &hop in t.path.asns() {
                        want.intern(hop);
                    }
                }
            }
            for shards in [1usize, 2, 4, 7] {
                let mut set = ShardSet::new(shards);
                for chunk in feed.chunks(run) {
                    let batch: EventBatch = chunk
                        .iter()
                        .map(|&t| StreamEvent::new(0, t.clone()))
                        .collect();
                    set.push_records(batch.iter().map(|(_, t)| t));
                }
                let got = set.interner();
                prop_assert_eq!(got.asns(), want.asns(), "{} shards", shards);
                let mut named = vec![false; got.len()];
                for &t in &feed {
                    for &hop in t.path.asns() {
                        let id = got.get(hop);
                        prop_assert!(id.is_some(), "{} unnamed", hop);
                        let id = id.unwrap_or_default();
                        prop_assert_eq!(got.resolve(id), hop);
                        named[id as usize] = true;
                    }
                }
                prop_assert!(named.iter().all(|&n| n), "an id no hop holds");
                for (id, asn) in got.iter() {
                    prop_assert_eq!(got.get(asn), Some(id));
                }
            }
        }

        /// The dense-id stream path — one interner, columnar shards,
        /// any shard count and epoch slicing (`every = 100_000` seals
        /// once: the fresh pipeline that is every later seal's oracle),
        /// a feed with repeats or without — is byte-identical to the
        /// uncompiled batch oracle over its unique tuples: classes AND
        /// raw counters.
        #[test]
        fn stream_matrix_matches_batch_oracle(
            seed in 0u64..500,
            shards in 1usize..5,
            every in (0usize..4).prop_map(|i| [1u64, 97, 250, 100_000][i]),
            repeats in any::<bool>(),
        ) {
            let ds = world(seed);
            let tuples: Vec<PathCommTuple> = if repeats {
                ds.tuples
                    .iter()
                    .chain(ds.tuples.iter().take(ds.tuples.len() / 3))
                    .cloned()
                    .collect()
            } else {
                ds.tuples.clone()
            };
            let oracle = reference_outcome(&tuples);

            let mut pipe = StreamPipeline::new(StreamConfig {
                shards,
                epoch: EpochPolicy::every_events(every),
                ..Default::default()
            });
            for (i, t) in tuples.iter().enumerate() {
                pipe.push(StreamEvent::new(i as u64, t.clone()));
            }
            let out = pipe.finish();
            assert_counter_parity(
                &oracle,
                &out,
                &format!("seed={seed} shards={shards} every={every} repeats={repeats}"),
            );
        }
    }
}

#[test]
fn duplicate_heavy_feed_dedups_to_batch_answer() {
    // A live feed re-announces the same routes over and over; the
    // stream's answer equals the batch answer on the unique set.
    let ds = world(31);
    let feed = UpdateFeed::new(&ds, 31, 3);
    let unique = unique(&ds.tuples);
    let batch = batch_outcome(&unique);

    let mut pipe = StreamPipeline::new(StreamConfig {
        shards: 4,
        epoch: EpochPolicy::every_span(7_200), // two-hour epochs
        ..Default::default()
    });
    let mut source = IterSource::new(feed.map(|(ts, t)| StreamEvent::new(ts, t)));
    pipe.drive(&mut source, 512).expect("feed streams");
    let out = pipe.finish();

    assert!(out.duplicates() > 0, "feed should contain re-announcements");
    assert_eq!(out.unique_tuples(), unique.len());
    assert_counter_parity(&batch, &out, "duplicate-heavy feed");
    assert!(out.epochs() > 1, "day should span multiple two-hour epochs");
}
