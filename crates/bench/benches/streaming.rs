//! Streaming pipeline benchmarks: batch `InferenceEngine::run` vs the
//! `bgp-stream` sharded pipeline at 1/2/4 shards on `sim`-generated
//! workloads, the epoch-overhead and ingest-path costs — plus the
//! dense-id measurements backing `BENCH_stream.json`:
//!
//! * **dense vs sparse delta merge** — folding a shard phase delta into
//!   the coordinator's counters as a dense slice add (the shared-interner
//!   path) vs through the old `HashMap<Asn, AsCounters>` hop;
//! * **full vs incremental epoch seal** — recounting everything stored
//!   vs replaying the previous seal's cached step deltas and counting
//!   only the tuples added since (`StreamConfig::incremental_seal`),
//!   plus the O(1) zero-delta re-seal fast path.
//!
//! The shard sweep measures sharding overhead (routing, per-shard
//! stores and caches), not parallel speedup: a (column, phase) step is
//! counted on per-shard threads only once it visits
//! `bgp_infer::compiled::FANOUT_MIN_VISITS` tuples, and these worlds
//! stay far below that — expect ~flat numbers across shard counts.
//!
//! Set `BENCH_QUICK=1` for the CI smoke mode (shrunken worlds; the JSON
//! then records `"quick": true` and is routed to an untracked path so it
//! can never clobber the committed baseline). `scripts/bench_guard`
//! compares quick output against the committed baseline at the
//! overlapping world size.

use bgp_bench::{consistent_world, quick_mode};
use bgp_infer::compiled::DenseCounterStore;
use bgp_infer::counters::{merge_delta_map, AsCounters, CounterStore};
use bgp_sim::prelude::*;
use bgp_stream::prelude::*;
use bgp_topology::prelude::*;
use bgp_types::prelude::*;
use criterion::{criterion_group, BenchmarkId, Criterion, Throughput};
use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

use bgp_infer::prelude::{InferenceConfig, InferenceEngine};

fn dataset(n_edge: usize) -> Vec<PathCommTuple> {
    let mut cfg = TopologyConfig::small();
    cfg.transit = 50;
    cfg.edge = n_edge;
    cfg.collector_peers = 25;
    let g = cfg.seed(3).build();
    let paths = PathSubstrate::generate(&g, 4).paths;
    Scenario::Random.materialize(&g, &paths, 3).tuples
}

fn run_stream(tuples: &[PathCommTuple], shards: usize, epoch: EpochPolicy) -> usize {
    let mut pipe = StreamPipeline::new(StreamConfig {
        shards,
        epoch,
        dedup: false,
        ..Default::default()
    });
    for (i, t) in tuples.iter().enumerate() {
        pipe.push(StreamEvent::new(i as u64, t.clone()));
    }
    pipe.finish().outcome.counters.len()
}

/// Batch engine vs streaming pipeline, one epoch (the pure counting
/// comparison: same arithmetic, different scheduler).
fn bench_batch_vs_stream(c: &mut Criterion) {
    let tuples = dataset(400);
    let mut g = c.benchmark_group("batch_vs_stream");
    g.sample_size(10);
    g.throughput(Throughput::Elements(tuples.len() as u64));
    g.bench_function("batch_1_thread", |b| {
        let cfg = InferenceConfig {
            threads: 1,
            ..Default::default()
        };
        b.iter(|| {
            black_box(
                InferenceEngine::new(cfg.clone())
                    .run(&tuples)
                    .counters
                    .len(),
            )
        })
    });
    for shards in [1usize, 2, 4] {
        g.bench_with_input(BenchmarkId::new("stream", shards), &shards, |b, &shards| {
            b.iter(|| black_box(run_stream(&tuples, shards, EpochPolicy::manual())))
        });
    }
    g.finish();
}

/// The shard sweep the acceptance criterion watches: identical workload,
/// 1/2/4 shards, single final epoch.
fn bench_shard_scaling(c: &mut Criterion) {
    let tuples = dataset(600);
    let mut g = c.benchmark_group("stream_shards");
    g.sample_size(10);
    g.throughput(Throughput::Elements(tuples.len() as u64));
    for shards in [1usize, 2, 4] {
        g.bench_with_input(
            BenchmarkId::from_parameter(shards),
            &shards,
            |b, &shards| b.iter(|| black_box(run_stream(&tuples, shards, EpochPolicy::manual()))),
        );
    }
    g.finish();
}

/// What epoch frequency costs: without incremental seals every seal is a
/// full recount; with them (the default) seal cost tracks the per-epoch
/// delta — this is the knob a deployment tunes against its liveness
/// requirement.
fn bench_epoch_overhead(c: &mut Criterion) {
    let tuples = dataset(300);
    let mut g = c.benchmark_group("epoch_overhead");
    g.sample_size(10);
    g.throughput(Throughput::Elements(tuples.len() as u64));
    for epochs in [1usize, 4, 16] {
        let every = tuples.len().div_ceil(epochs).max(1) as u64;
        g.bench_with_input(BenchmarkId::new("epochs", epochs), &every, |b, &every| {
            b.iter(|| black_box(run_stream(&tuples, 2, EpochPolicy::every_events(every))))
        });
    }
    g.finish();
}

/// Ingest-path cost: streaming a simulated feed (dedup on, duplicates
/// included) through the full pipeline, as `bgp-stream-infer --sim` does.
fn bench_feed_ingest(c: &mut Criterion) {
    let mut cfg = TopologyConfig::small();
    cfg.transit = 40;
    cfg.edge = 300;
    cfg.collector_peers = 20;
    let g_topo = cfg.seed(5).build();
    let paths = PathSubstrate::generate(&g_topo, 3).paths;
    let ds = Scenario::Random.materialize(&g_topo, &paths, 5);
    let feed = UpdateFeed::new(&ds, 5, 2);
    let events: Vec<(u64, PathCommTuple)> = feed.events().to_vec();

    let mut g = c.benchmark_group("feed_ingest");
    g.sample_size(10);
    g.throughput(Throughput::Elements(events.len() as u64));
    g.bench_function("dedup_pipeline_4_shards", |b| {
        b.iter(|| {
            let mut pipe = StreamPipeline::new(StreamConfig {
                shards: 4,
                epoch: EpochPolicy::manual(),
                ..Default::default()
            });
            for (ts, t) in &events {
                pipe.push(StreamEvent::new(*ts, t.clone()));
            }
            black_box(pipe.finish().unique_tuples)
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_batch_vs_stream,
    bench_shard_scaling,
    bench_epoch_overhead,
    bench_feed_ingest
);

// ---------------------------------------------------------------------
// BENCH_stream.json baseline
// ---------------------------------------------------------------------

const SHARDS: usize = 4;
const DELTA_TUPLES: usize = 256;
const SEAL_TRIALS: usize = 5;
/// Untimed delta seals before the timed trials: lets the predicate
/// trajectory converge (first-evidence flips decay as evidence
/// accumulates), which is the steady state a long-lived stream sits in.
const SEAL_WARMUP: usize = 3;

fn world_sizes() -> Vec<usize> {
    if quick_mode() {
        vec![2_500, 10_000]
    } else {
        vec![10_000, 50_000, 100_000]
    }
}

/// Median wall-clock of the samples, in nanoseconds.
fn median(mut samples: Vec<u128>) -> u128 {
    samples.sort_unstable();
    samples[samples.len() / 2]
}

fn pipeline(incremental: bool) -> StreamPipeline {
    StreamPipeline::new(StreamConfig {
        shards: SHARDS,
        epoch: EpochPolicy::manual(),
        dedup: false,
        incremental_seal: incremental,
        ..Default::default()
    })
}

/// Seal timings over a store of `n` tuples: push the base world, seal,
/// then repeatedly push a `DELTA_TUPLES`-sized delta and time the seal.
/// Returns `(delta_seal_ns, zero_delta_seal_ns)`.
fn seal_times(base: &[PathCommTuple], extra: &[PathCommTuple], incremental: bool) -> (u128, u128) {
    let mut pipe = pipeline(incremental);
    for (i, t) in base.iter().enumerate() {
        pipe.push(StreamEvent::new(i as u64, t.clone()));
    }
    pipe.seal_epoch();
    let mut deltas = extra.chunks(DELTA_TUPLES);
    let mut samples = Vec::new();
    for trial in 0..SEAL_WARMUP + SEAL_TRIALS {
        let chunk = deltas.next().expect("enough extra tuples");
        for (i, t) in chunk.iter().enumerate() {
            pipe.push(StreamEvent::new(i as u64, t.clone()));
        }
        let t0 = Instant::now();
        black_box(pipe.seal_epoch());
        if trial >= SEAL_WARMUP {
            samples.push(t0.elapsed().as_nanos());
        }
    }
    // Zero-delta re-seal: nothing stored since the last seal.
    let t0 = Instant::now();
    black_box(pipe.seal_epoch());
    let zero = t0.elapsed().as_nanos();
    (median(samples), zero)
}

/// Dense (slice-add) vs sparse (`HashMap<Asn, _>` fold) delta merging of
/// one synthetic full-coverage delta, `reps` times.
fn merge_times(n_ids: usize, reps: usize) -> (u128, u128) {
    let delta_dense = {
        let mut d = DenseCounterStore::zeroed(n_ids);
        for id in 0..n_ids {
            d.get_mut(id as u32).t = (id as u64 % 7) + 1;
            d.get_mut(id as u32).f = id as u64 % 3;
        }
        d
    };
    let delta_sparse: HashMap<Asn, AsCounters> = (0..n_ids)
        .map(|id| {
            (
                Asn(10 + id as u32),
                AsCounters {
                    t: (id as u64 % 7) + 1,
                    s: 0,
                    f: id as u64 % 3,
                    c: 0,
                },
            )
        })
        .collect();

    let t0 = Instant::now();
    let mut dense_acc = DenseCounterStore::zeroed(n_ids);
    for _ in 0..reps {
        dense_acc.merge(black_box(&delta_dense));
    }
    black_box(dense_acc.get(0));
    let dense_ns = t0.elapsed().as_nanos() / reps as u128;

    // Pre-clone outside the timed loop: `merge_delta_map` consumes its
    // delta (as the old shard fan-in did), but the clone itself is not
    // part of the merge being compared.
    let sparse_inputs: Vec<HashMap<Asn, AsCounters>> =
        (0..reps).map(|_| delta_sparse.clone()).collect();
    let t0 = Instant::now();
    let mut sparse_acc: HashMap<Asn, AsCounters> = HashMap::new();
    let mut store = CounterStore::new();
    for delta in sparse_inputs {
        merge_delta_map(&mut sparse_acc, black_box(delta));
        store.merge(&sparse_acc);
        sparse_acc.clear();
    }
    black_box(store.len());
    let sparse_ns = t0.elapsed().as_nanos() / reps as u128;
    (dense_ns, sparse_ns)
}

/// Time the seal paths per world size and write the `BENCH_stream.json`
/// baseline at the workspace root.
fn emit_baseline() {
    let mut entries = Vec::new();
    for n in world_sizes() {
        let all = consistent_world(n + DELTA_TUPLES * (SEAL_WARMUP + SEAL_TRIALS + 1), 42);
        let (base, extra) = all.split_at(n);
        let (full_ns, _) = seal_times(base, extra, false);
        let (incr_ns, zero_ns) = seal_times(base, extra, true);
        let ratio = full_ns as f64 / incr_ns as f64;
        let n_ids = n / 4; // synthetic_world's id-space density
        let (dense_ns, sparse_ns) = merge_times(n_ids, 50);
        let merge_speedup = sparse_ns as f64 / dense_ns.max(1) as f64;
        println!(
            "baseline {n}: full seal {:.2} ms, incremental {:.2} ms ({ratio:.2}x), \
             zero-delta {:.3} ms, merge dense {:.3} ms vs sparse {:.3} ms ({merge_speedup:.2}x)",
            full_ns as f64 / 1e6,
            incr_ns as f64 / 1e6,
            zero_ns as f64 / 1e6,
            dense_ns as f64 / 1e6,
            sparse_ns as f64 / 1e6,
        );
        entries.push(format!(
            "    {{\"tuples\": {n}, \"full_seal_ns\": {full_ns}, \
             \"incremental_seal_ns\": {incr_ns}, \"zero_delta_seal_ns\": {zero_ns}, \
             \"full_over_incremental\": {ratio:.3}, \"dense_merge_ns\": {dense_ns}, \
             \"sparse_merge_ns\": {sparse_ns}, \"merge_speedup\": {merge_speedup:.3}}}"
        ));
    }
    let unix_secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let json = format!(
        "{{\n  \"bench\": \"streaming\",\n  \"quick\": {},\n  \"unix_secs\": {unix_secs},\n  \
         \"shards\": {SHARDS},\n  \"delta_tuples\": {DELTA_TUPLES},\n  \"worlds\": [\n{}\n  ]\n}}\n",
        quick_mode(),
        entries.join(",\n"),
    );
    // Quick-mode numbers come from shrunken worlds; route them to an
    // untracked path so they can never clobber the committed baseline.
    let path = if quick_mode() {
        concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../target/BENCH_stream_quick.json"
        )
    } else {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_stream.json")
    };
    match std::fs::write(path, &json) {
        Ok(()) => println!("baseline written to {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}

fn main() {
    benches();
    emit_baseline();
}
