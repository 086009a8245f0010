//! `stream_bulk` and `stream_trickle`: the same driver and archive
//! sink, fed the day's RIB snapshots in a few big epochs (cold
//! backfill) or its update files in many small ones (following the live
//! stream).

use crate::batch;
use crate::run::{
    class_digest, driver_config, stream_config, Ctx, Report, FLIP_LOG_CAP, INGEST_BATCH,
};
use crate::stats::{fastest, median, percentile, ratio};
use bgp_archive::prelude::{Archive, ArchiveSink, ArchiveWriter, Manifest, SegmentStats};
use bgp_infer::prelude::*;
use bgp_serve::prelude::*;
use bgp_stream::prelude::*;
use std::path::Path;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// What one pass through the threaded driver gave.
struct Driven {
    wall: Duration,
    /// Spawn → the first snapshot readers could see.
    first_publish: Duration,
    report: IngestReport,
    records: Vec<DbRecord>,
    sink_retries: u64,
}

/// The program as the daemon runs it: feed puller, sealer and archive
/// sink on their own threads. Timed from spawn to `join()`, when every
/// epoch is published and durable.
fn drive(files: &[String], epoch_events: u64, archive_dir: &Path) -> Result<Driven, String> {
    let slot = Arc::new(SnapshotSlot::new(Thresholds::default()));
    let first_seen: Arc<OnceLock<Instant>> = Arc::new(OnceLock::new());
    let seen = Arc::clone(&first_seen);
    slot.register_waker(Arc::new(move || {
        seen.get_or_init(Instant::now);
    }));
    let writer = ArchiveWriter::open(archive_dir).map_err(|e| format!("open archive: {e}"))?;
    let sink = ArchiveSink::spawn(writer);
    let sink_status = sink.status();

    let started = Instant::now();
    let handle = spawn_ingest_archived(
        driver_config(EpochPolicy::every_events(epoch_events)),
        Feed::MrtFiles(files.to_vec()),
        Arc::clone(&slot),
        Arc::new(Metrics::new()),
        Some(sink),
        None,
    );
    let report = handle.join()?;
    let wall = started.elapsed();

    let first = first_seen
        .get()
        .ok_or("driver finished without publishing")?;
    Ok(Driven {
        wall,
        first_publish: first.duration_since(started),
        report,
        records: slot.load().records.clone(),
        sink_retries: sink_status.retries(),
    })
}

/// The archive a run left behind must verify clean and restore to the
/// records the run served last.
fn check_archive(report: &mut Report, dir: &Path, served: &[DbRecord], ctx: &str) {
    let archive = match Archive::open(dir) {
        Ok(archive) => archive,
        Err(e) => {
            report.gate(false, || format!("{ctx}: archive does not open: {e}"));
            return;
        }
    };
    let verdict = archive.verify();
    report.gate(verdict.is_ok(), || {
        format!("{ctx}: archive verify found {:?}", verdict.problems)
    });
    match restore_latest(&archive, FLIP_LOG_CAP) {
        Ok(Some(restored)) => report.gate(restored.records == served, || {
            format!("{ctx}: restore_latest rebuilt different records")
        }),
        other => report.gate(false, || {
            format!(
                "{ctx}: restore_latest gave {:?}",
                other.map(|o| o.is_some())
            )
        }),
    }
}

/// What the serial replay gave, beyond its spans.
#[derive(Default)]
struct Replayed {
    epochs: usize,
    records: Vec<DbRecord>,
    zero_delta_seals: u64,
    replayed_steps: u64,
    total_steps: u64,
    dedup_hits: u64,
    raw_entries: u64,
    total_events: u64,
    shard_loads: Vec<usize>,
    interned_asns: usize,
    bytes_appended: u64,
}

/// The traced stand-in for the driver: the same public calls in the
/// same order and at the same event counts, on one thread, so each can
/// be timed from outside. (The driver's quarantine wrapper, a scan for
/// AS0 that passes clean batches through, is not replayed.)
fn replay(
    ctx: &mut Ctx<'_>,
    files: &[String],
    epoch_events: u64,
    dir: &Path,
) -> Result<Replayed, String> {
    let tracer = ctx.tracer.as_mut().expect("replay is the traced run");
    let root = tracer.open("stream.replay");
    let slot = Arc::new(SnapshotSlot::new(Thresholds::default()));
    let mut pipeline = StreamPipeline::new(stream_config(EpochPolicy::manual()));
    let mut publisher = Publisher::new(Arc::clone(&slot), FLIP_LOG_CAP);
    let mut writer = ArchiveWriter::open(dir).map_err(|e| format!("open archive: {e}"))?;
    let mut out = Replayed::default();
    let mut sealed_tuples = usize::MAX;

    let mut seal =
        |pipeline: &mut StreamPipeline, tracer: &mut crate::trace::Tracer| -> Result<(), String> {
            tracer.leaf("stream.pipeline.seal", || {
                pipeline.seal_epoch();
                ((), 1)
            });
            let sealed = Arc::clone(pipeline.latest().expect("just sealed"));
            if sealed.unique_tuples == sealed_tuples {
                out.zero_delta_seals += 1;
            }
            sealed_tuples = sealed.unique_tuples;
            let (replayed, total) = pipeline.last_replay();
            out.replayed_steps += replayed as u64;
            out.total_steps += total as u64;
            tracer.leaf("serve.snapshot.publish", || {
                let published = publisher.sync(pipeline);
                ((), published as u64)
            });
            let served = slot.load();
            let stats = SegmentStats {
                duplicates: served.ingest.duplicates,
                interned_asns: served.ingest.interned_asns as u64,
                arena_hops: served.ingest.arena_hops as u64,
                replayed_steps: served.ingest.replayed_steps,
                total_steps: served.ingest.total_steps,
                shard_loads: served
                    .ingest
                    .shard_loads
                    .iter()
                    .map(|&n| n as u64)
                    .collect(),
            };
            let appended = tracer.leaf("archive.writer.append", || {
                (writer.append_epoch(&sealed, &stats), 1)
            });
            appended.map_err(|e| format!("append epoch {}: {e}", sealed.epoch))?;
            out.epochs += 1;
            Ok(())
        };

    let mut in_epoch = 0u64;
    let mut raw_entries = 0u64;
    for file in files {
        let bytes = tracer.leaf("fs.read", || {
            let read = std::fs::read(file);
            let n = read.as_ref().map_or(0, |b| b.len() as u64);
            (read, n)
        });
        let bytes = bytes.map_err(|e| format!("{file}: {e}"))?;
        let mut source = MrtSource::new(&bytes);
        loop {
            let events = tracer.leaf("stream.ingest.source", || {
                let batch = source.next_batch(INGEST_BATCH);
                let n = batch.as_ref().map_or(0, |b| b.len() as u64);
                (batch, n)
            });
            let events = events.map_err(|e| format!("{file}: {e}"))?;
            if events.is_empty() {
                break;
            }
            let mut events = events.into_iter();
            while events.len() > 0 {
                let room = (epoch_events - in_epoch) as usize;
                let pushed = tracer.leaf("stream.shard.push", || {
                    let mut n = 0u64;
                    for ev in events.by_ref().take(room) {
                        pipeline.push(ev);
                        n += 1;
                    }
                    (n, n)
                });
                in_epoch += pushed;
                if in_epoch == epoch_events {
                    seal(&mut pipeline, tracer)?;
                    in_epoch = 0;
                }
            }
        }
        raw_entries += source.raw_entries();
    }
    // The driver seals whatever the last policy window left open.
    if in_epoch > 0 || pipeline.snapshots().is_empty() {
        seal(&mut pipeline, tracer)?;
    }
    out.records = slot.load().records.clone();
    out.raw_entries = raw_entries;
    out.dedup_hits = pipeline.duplicates();
    out.total_events = pipeline.total_events();
    out.shard_loads = pipeline.shard_loads();
    out.interned_asns = pipeline.interned_asns();
    drop(writer);
    out.bytes_appended = Manifest::load(dir)
        .map_err(|e| format!("manifest: {e}"))?
        .entries
        .iter()
        .map(|e| e.bytes)
        .sum();
    let events = out.total_events;
    ctx.tracer.as_mut().expect("traced run").close(root, events);
    Ok(out)
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn stream(
    ctx: &mut Ctx<'_>,
    name: &str,
    files: Vec<String>,
    epoch_events: u64,
) -> Result<Report, String> {
    let mut report = Report::default();

    // Set-up: the batch classes of the same feed are the oracle; one
    // untimed pass warms the page cache and the allocator.
    let traced = ctx.tracer.take();
    let (tuples, _) = batch::read_tuples(ctx, &files)?;
    let oracle = bgp_infer::db::records(&batch::infer(ctx, &tuples));
    drop(tuples);
    let warm_dir = ctx.fresh_dir("archive-warm")?;
    let warm = drive(&files, epoch_events, &warm_dir)?;
    report.gate(warm.records == oracle, || {
        format!("{name}: streamed records differ from the batch run of the same feed")
    });
    check_archive(&mut report, &warm_dir, &warm.records, name);
    ctx.tracer = traced;
    ctx.setup_done();

    let mut wall_s = Vec::new();
    let mut first_publish_s = Vec::new();
    let mut sink_retries = 0;
    let mut dropped = 0;
    let mut last = warm;
    let measuring = Instant::now();
    // The traced run spends half its time on the threaded driver (the
    // wall the overlap ratio compares against), half on the replay.
    let share = if ctx.tracer.is_some() { 0.5 } else { 1.0 };
    while ctx.more(wall_s.len(), measuring, share) {
        let dir = ctx.fresh_dir("archive")?;
        let run = drive(&files, epoch_events, &dir)?;
        wall_s.push(run.wall.as_secs_f64());
        first_publish_s.push(run.first_publish.as_secs_f64());
        report.attempted += run.report.total_events;
        report.failed += run.report.archive_dropped + run.report.quarantined + run.report.restarts;
        sink_retries += run.sink_retries;
        dropped += run.report.archive_dropped;
        let trial = wall_s.len();
        report.gate(run.records == oracle, || {
            format!("{name}: run {trial} streamed different records than the batch run")
        });
        report.gate(
            run.report.archived_epochs == run.report.epochs as u64,
            || {
                format!(
                    "{name}: run {trial} archived {} of {} epochs",
                    run.report.archived_epochs, run.report.epochs
                )
            },
        );
        check_archive(&mut report, &dir, &run.records, name);
        last = run;
    }

    let driven_s = fastest(&wall_s);
    report.throughput_per_s = last.report.total_events as f64 / driven_s;
    report.layer(
        "stream.first_publish_ms_p50",
        median(&first_publish_s) * 1e3,
    );
    report.class_digest = class_digest(&last.records);
    report.fact("throughput_unit", "\"events\"");
    report.fact("iterations", wall_s.len());
    report.fact("iteration_ms", crate::stats::json_ms(&wall_s));
    report.fact("files", files.len());
    report.fact("events", last.report.total_events);
    report.fact("epochs", last.report.epochs);
    report.fact("unique_tuples", last.report.unique_tuples);

    if ctx.tracer.is_some() {
        let mut replays = 0usize;
        let mut replayed = None;
        let replaying = Instant::now();
        while ctx.more(replays, replaying, share) {
            ctx.tracer
                .as_mut()
                .expect("traced run")
                .set_trial(replays as u32);
            let dir = ctx.fresh_dir("archive-replay")?;
            let run = replay(ctx, &files, epoch_events, &dir)?;
            report.gate(run.epochs == last.report.epochs, || {
                format!(
                    "{name}: replay sealed {} epochs, the driver {}",
                    run.epochs, last.report.epochs
                )
            });
            report.gate(class_digest(&run.records) == report.class_digest, || {
                format!("{name}: replay's class digest differs from the driver's")
            });
            replays += 1;
            replayed = Some((run, dir));
        }
        let (run, dir) = replayed.expect("at least one replay");

        // Cold restore of what the replay archived: open + rebuild.
        let mut restore_ms = Vec::new();
        for _ in 0..20 {
            let started = Instant::now();
            let archive = Archive::open(&dir).map_err(|e| format!("open archive: {e}"))?;
            let restored =
                restore_latest(&archive, FLIP_LOG_CAP).map_err(|e| format!("restore: {e}"))?;
            std::hint::black_box(restored);
            restore_ms.push(started.elapsed().as_secs_f64() * 1e3);
        }

        let t = ctx.tracer.as_ref().expect("traced run");
        let mut seals = t.durations("stream.pipeline.seal");
        seals.sort_unstable();
        let mut publishes = t.durations("serve.snapshot.publish");
        publishes.sort_unstable();
        let mut appends = t.durations("archive.writer.append");
        appends.sort_unstable();
        let append_total = t.total("archive.writer.append");
        let replay_s = t.total("stream.replay").total_ns as f64 / 1e9 / replays as f64;
        let mean_load = ratio(
            run.shard_loads.iter().sum::<usize>() as f64,
            run.shard_loads.len() as f64,
        );
        let max_load = run.shard_loads.iter().copied().max().unwrap_or(0) as f64;

        report.layer(
            "mrt.bytes_in",
            t.total("fs.read").units as f64 / replays as f64,
        );
        report.layer("mrt.entries", run.raw_entries as f64);
        report.layer(
            "stream.ingest.source_ns_per_event",
            t.total("stream.ingest.source").ns_per_unit(),
        );
        report.layer(
            "stream.shard.push_ns_per_event",
            t.total("stream.shard.push").ns_per_unit(),
        );
        report.layer(
            "stream.shard.dedup_hit_share",
            ratio(run.dedup_hits as f64, run.total_events as f64),
        );
        report.layer("stream.shard.skew", ratio(max_load, mean_load));
        report.layer("stream.interned_asns", run.interned_asns as f64);
        report.layer("stream.pipeline.seals", run.epochs as f64);
        report.layer("stream.pipeline.seal_ms_p50", ms(percentile(&seals, 0.5)));
        report.layer("stream.pipeline.seal_ms_max", ms(percentile(&seals, 1.0)));
        report.layer(
            "stream.pipeline.zero_delta_share",
            ratio(run.zero_delta_seals as f64, run.epochs as f64),
        );
        report.layer(
            "stream.pipeline.replayed_step_share",
            ratio(run.replayed_steps as f64, run.total_steps as f64),
        );
        report.layer(
            "serve.snapshot.publish_ms_p50",
            ms(percentile(&publishes, 0.5)),
        );
        report.layer("serve.snapshot.records", run.records.len() as f64);
        report.layer("serve.snapshot.epochs_published", run.epochs as f64);
        report.layer(
            "archive.writer.append_ms_p50",
            ms(percentile(&appends, 0.5)),
        );
        report.layer(
            "archive.writer.bytes_per_epoch",
            ratio(run.bytes_appended as f64, run.epochs as f64),
        );
        report.layer(
            "archive.writer.write_mb_per_s",
            ratio(
                run.bytes_appended as f64 * replays as f64 / 1e6,
                append_total.total_ns as f64 / 1e9,
            ),
        );
        report.layer("archive.sink.dropped", dropped as f64);
        report.layer("archive.sink.retries", sink_retries as f64);
        report.layer("archive.restore_ms", median(&restore_ms));
        report.layer("serve.driver.overlap_ratio", ratio(replay_s, driven_s));
        report.layer("core.classified_ases", run.records.len() as f64);
        report.layer("trace.traced_wall_s", replay_s);
        report.layer("trace.untraced_wall_s", driven_s);
        report.fact("replays", replays);
    }
    Ok(report)
}

pub fn stream_bulk(ctx: &mut Ctx<'_>) -> Result<Report, String> {
    let files = ctx.world.ribs.clone();
    stream(ctx, "stream_bulk", files, crate::run::BULK_EPOCH_EVENTS)
}

pub fn stream_trickle(ctx: &mut Ctx<'_>) -> Result<Report, String> {
    let files = ctx.world.updates.clone();
    stream(
        ctx,
        "stream_trickle",
        files,
        crate::run::TRICKLE_EPOCH_EVENTS,
    )
}
