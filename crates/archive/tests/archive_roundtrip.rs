//! End-to-end archive coverage: pipeline epochs → segments on disk →
//! recovered reads, with every crash shape the commit protocol claims to
//! survive exercised for real (exhaustive truncation, orphan adoption,
//! compaction), the delta chain within a segment held as a property, and
//! hand-written hostile segments refused as corrupt.

use bgp_archive::frame::{put_frame, Fnv64, Kind, PutBytes};
use bgp_archive::prelude::*;
use bgp_archive::segment::{decode_segment, DecodeFilter, MAGIC, TRACE_FRAME, VERSION};
use bgp_archive::sink::{MAX_RETRIES, QUEUE_CAP};
use bgp_infer::classify::Class;
use bgp_infer::compiled::DenseOutcome;
use bgp_infer::counters::{AsCounters, Thresholds};
use bgp_stream::prelude::*;
use bgp_types::prelude::*;
use obs::trace::STAGES;
use proptest::TestRng;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

fn tmp_dir(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "bgpa-test-{tag}-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// Deterministic multi-epoch world: interner growth every epoch (some
/// 32-bit ASNs), taggers, forwarders, duplicates.
fn build_world(epochs: u64, events_per_epoch: u64) -> StreamOutcome {
    let mut pipe = StreamPipeline::new(StreamConfig {
        shards: 2,
        epoch: EpochPolicy::every_events(events_per_epoch),
        ..Default::default()
    });
    let mut state = 0x2545_F491_4F6C_DD1Du64;
    let mut rng = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    for i in 0..epochs * events_per_epoch {
        let r = rng();
        // A rotating pool of ASNs that keeps introducing new ones.
        let origin = 9_000 + (i / 7) as u32;
        let tagger = 64_496 + (r % 23) as u32;
        let upstream = if r % 5 == 0 {
            70_000 + (r % 11) as u32 // 32-bit map path
        } else {
            100 + (r % 13) as u32
        };
        let tuple = PathCommTuple::new(
            path(&[upstream, tagger, origin]),
            CommunitySet::from_iter([AnyCommunity::tag_for(Asn(tagger), (r % 900) as u32)]),
        );
        pipe.push(StreamEvent::new(10 * i + 1, tuple));
    }
    pipe.finish()
}

fn archive_outcome(dir: &Path, out: &StreamOutcome) -> ArchiveWriter {
    let mut writer = ArchiveWriter::open(dir).unwrap();
    for snap in &out.snapshots {
        assert!(writer.append_epoch(snap, &snap.ingest).unwrap());
    }
    writer
}

fn dir_snapshot(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<(String, Vec<u8>)> = fs::read_dir(dir)
        .unwrap()
        .map(|e| {
            let e = e.unwrap();
            (
                e.file_name().to_string_lossy().into_owned(),
                fs::read(e.path()).unwrap(),
            )
        })
        .collect();
    files.sort();
    files
}

fn dir_restore(dir: &Path, files: &[(String, Vec<u8>)]) {
    for entry in fs::read_dir(dir).unwrap() {
        fs::remove_file(entry.unwrap().path()).unwrap();
    }
    for (name, bytes) in files {
        fs::write(dir.join(name), bytes).unwrap();
    }
}

#[test]
fn roundtrip_preserves_every_epoch() {
    let dir = tmp_dir("roundtrip");
    let out = build_world(4, 32);
    assert!(out.snapshots.len() >= 4);
    archive_outcome(&dir, &out);

    let archive = Archive::open(&dir).unwrap();
    let report = archive.verify();
    assert!(report.is_ok(), "problems: {:?}", report.problems);
    assert_eq!(report.epochs, out.snapshots.len() as u64);

    let archived = archive.read_all(DecodeFilter::all()).unwrap();
    for (snap, arch) in out.snapshots.iter().zip(&archived) {
        assert_eq!(arch.meta.epoch, snap.epoch);
        assert_eq!(arch.meta.sealed_at, snap.sealed_at);
        assert_eq!(arch.meta.events, snap.events);
        assert_eq!(arch.meta.total_events, snap.total_events);
        assert_eq!(arch.meta.unique_tuples, snap.unique_tuples as u64);
        assert_eq!(&arch.classes, snap.classes.as_ref());
        assert_eq!(arch.flips.as_deref().unwrap(), snap.flips.as_slice());
        let dense = snap.dense.as_ref().unwrap();
        assert_eq!(arch.counters.as_deref().unwrap(), &**dense.counters);
        assert_eq!(arch.interner_len(), dense.counters.len());
    }

    // The accumulated ASN table matches the live epoch's `(asn, id)`
    // table id for id.
    let last = out.snapshots.last().unwrap();
    let dense = last.dense.as_ref().unwrap();
    let table = archive.interner_upto(last.epoch).unwrap();
    assert_eq!(table.len(), dense.counters.len());
    assert_eq!(dense.by_asn.len(), table.len());
    for &(asn, id) in dense.by_asn.iter() {
        assert_eq!(table[id as usize], asn, "id {id}");
    }

    // Time travel: the trajectory of every classified AS matches each
    // snapshot's class table.
    for &(asn, _) in last.classes.iter() {
        let traj = archive.class_trajectory(asn).unwrap();
        assert_eq!(traj.len(), out.snapshots.len());
        for (snap, (epoch, class)) in out.snapshots.iter().zip(&traj) {
            assert_eq!(*epoch, snap.epoch);
            let expect = match snap.classes.binary_search_by_key(&asn, |&(a, _)| a) {
                Ok(i) => Some(snap.classes[i].1),
                Err(_) => None,
            };
            assert_eq!(*class, expect, "asn {asn} epoch {epoch}");
        }
    }
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn writer_skips_committed_epochs_on_replay() {
    let dir = tmp_dir("skip");
    let out = build_world(3, 16);
    archive_outcome(&dir, &out);

    // A restarted daemon replays the deterministic feed from epoch 0;
    // the writer must not duplicate what it already holds.
    let mut writer = ArchiveWriter::open(&dir).unwrap();
    assert_eq!(
        writer.last_epoch(),
        Some(out.snapshots.last().unwrap().epoch)
    );
    for snap in &out.snapshots {
        assert!(!writer.append_epoch(snap, &SegmentStats::default()).unwrap());
    }
    let archive = Archive::open(&dir).unwrap();
    assert_eq!(archive.manifest().epoch_count(), out.snapshots.len() as u64);
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn truncation_at_every_byte_recovers_to_last_complete_epoch() {
    let dir = tmp_dir("truncate");
    let out = build_world(3, 16);
    archive_outcome(&dir, &out);
    let pristine = dir_snapshot(&dir);
    let manifest = Manifest::load(&dir).unwrap();
    let tail = manifest.entries.last().unwrap().clone();
    let tail_bytes = fs::read(dir.join(&tail.file)).unwrap();
    let prev_epoch = tail.first_epoch - 1;

    // Stride through every region; offset 0 and the final byte are
    // always included, and every byte is covered for a small file.
    let stride = (tail_bytes.len() / 256).max(1);
    let mut cuts: Vec<usize> = (0..tail_bytes.len()).step_by(stride).collect();
    cuts.push(tail_bytes.len() - 1);
    for cut in cuts {
        dir_restore(&dir, &pristine);
        fs::write(dir.join(&tail.file), &tail_bytes[..cut]).unwrap();
        let archive = Archive::open(&dir).unwrap();
        assert_eq!(
            archive.manifest().last_epoch(),
            Some(prev_epoch),
            "cut at byte {cut}"
        );
        let report = archive.verify();
        assert!(report.is_ok(), "cut {cut}: {:?}", report.problems);

        // And the writer can seamlessly re-append the lost epoch.
        let mut writer = ArchiveWriter::open(&dir).unwrap();
        let lost = &out.snapshots[tail.first_epoch as usize];
        assert!(writer.append_epoch(lost, &SegmentStats::default()).unwrap());
        assert_eq!(writer.last_epoch(), Some(tail.first_epoch));
    }
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn orphan_segment_is_adopted_after_manifest_crash() {
    let dir = tmp_dir("orphan");
    let out = build_world(3, 16);
    archive_outcome(&dir, &out);

    // Simulate a crash between segment rename and manifest commit: the
    // segment file exists, the manifest predates it.
    let manifest = Manifest::load(&dir).unwrap();
    let rolled_back = Manifest {
        entries: manifest.entries[..manifest.entries.len() - 1].to_vec(),
    };
    rolled_back.store(&dir).unwrap();

    let archive = Archive::open(&dir).unwrap();
    assert_eq!(archive.manifest(), &manifest, "orphan must be re-adopted");
    assert!(archive.verify().is_ok());

    // A stale orphan that does NOT chain (gap) stays ignored.
    let gapped = Manifest {
        entries: manifest.entries[..manifest.entries.len() - 2].to_vec(),
    };
    gapped.store(&dir).unwrap();
    let last_file = &manifest.entries.last().unwrap().file;
    let keep = fs::read(dir.join(last_file)).unwrap();
    fs::remove_file(dir.join(&manifest.entries[manifest.entries.len() - 2].file)).unwrap();
    fs::write(dir.join(last_file), keep).unwrap();
    let archive = Archive::open(&dir).unwrap();
    assert_eq!(archive.manifest().last_epoch(), gapped.last_epoch());
    assert!(archive.verify().is_ok());
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn tmp_files_are_swept_on_open() {
    let dir = tmp_dir("sweep");
    let out = build_world(2, 16);
    archive_outcome(&dir, &out);
    fs::write(dir.join("seg-00000009.bgpa.tmp"), b"half-written").unwrap();
    fs::write(dir.join("MANIFEST.tmp"), b"half-written").unwrap();
    let archive = Archive::open(&dir).unwrap();
    assert!(archive.verify().is_ok());
    assert!(!dir.join("seg-00000009.bgpa.tmp").exists());
    assert!(!dir.join("MANIFEST.tmp").exists());
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn compaction_slims_history_and_preserves_trajectories() {
    let dir = tmp_dir("compact");
    let out = build_world(6, 16);
    archive_outcome(&dir, &out);
    let before = Archive::open(&dir).unwrap();
    let traj_before: Vec<_> = out
        .snapshots
        .last()
        .unwrap()
        .classes
        .iter()
        .map(|&(asn, _)| (asn, before.class_trajectory(asn).unwrap()))
        .collect();
    let interner_before = before
        .interner_upto(out.snapshots.last().unwrap().epoch)
        .unwrap();
    let bytes_before: u64 = before.manifest().entries.iter().map(|e| e.bytes).sum();
    drop(before);

    let keep = 2u64;
    let report = compact(&dir, keep).unwrap().expect("something to merge");
    assert_eq!(report.epochs_merged, out.snapshots.len() as u64 - keep);
    assert!(report.bytes_after < bytes_before);
    assert!(report.segments_after < report.segments_before);

    let after = Archive::open(&dir).unwrap();
    let vr = after.verify();
    assert!(vr.is_ok(), "problems: {:?}", vr.problems);
    assert_eq!(after.manifest().epoch_count(), out.snapshots.len() as u64);

    // Old epochs: counters and flips gone, classes and meta intact.
    let all = after.read_all(DecodeFilter::all()).unwrap();
    for ep in &all {
        let in_window = ep.meta.epoch + keep > out.snapshots.last().unwrap().epoch;
        assert_eq!(ep.has_counters, in_window, "epoch {}", ep.meta.epoch);
        assert_eq!(ep.has_flips, in_window, "epoch {}", ep.meta.epoch);
        assert!(!ep.classes.is_empty());
    }

    // Trajectories and the interner are unchanged.
    for (asn, traj) in &traj_before {
        assert_eq!(&after.class_trajectory(*asn).unwrap(), traj);
    }
    assert_eq!(
        after
            .interner_upto(out.snapshots.last().unwrap().epoch)
            .unwrap(),
        interner_before
    );

    // Compacting again with nothing new to merge is a no-op.
    assert!(compact(&dir, keep).unwrap().is_none());
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn sink_archives_off_thread_and_reports_counts() {
    let dir = tmp_dir("sink");
    let out = build_world(4, 16);
    let writer = ArchiveWriter::open(&dir).unwrap();
    let sink = ArchiveSink::spawn(writer);
    for snap in &out.snapshots {
        sink.submit(Arc::clone(snap));
    }
    assert_eq!(sink.status().dropped(), 0);
    let (writer, report) = sink.finish().unwrap();
    assert_eq!(report.written, out.snapshots.len() as u64);
    assert_eq!(report.dropped, 0);
    assert_eq!(report.retries, 0);
    assert_eq!(
        writer.last_epoch(),
        Some(out.snapshots.last().unwrap().epoch)
    );
    let archive = Archive::open(&dir).unwrap();
    assert!(archive.verify().is_ok());
    fs::remove_dir_all(&dir).unwrap();
}

fn run_of(snaps: &[Arc<EpochSnapshot>]) -> Vec<(&EpochSnapshot, &SegmentStats)> {
    snaps.iter().map(|snap| (&**snap, &snap.ingest)).collect()
}

/// Every epoch of `dir`, decoded, as text (`ArchivedEpoch` has no `Eq`).
fn epochs_as_text(dir: &Path) -> Vec<String> {
    let archive = Archive::open(dir).unwrap();
    assert!(archive.verify().is_ok());
    archive
        .read_all(DecodeFilter::all())
        .unwrap()
        .iter()
        .map(|ep| format!("{ep:?}"))
        .collect()
}

fn epoch_ranges(dir: &Path) -> Vec<(u64, u64)> {
    let manifest = Manifest::load(dir).unwrap();
    manifest
        .entries
        .iter()
        .map(|e| (e.first_epoch, e.last_epoch))
        .collect()
}

#[test]
fn a_run_is_one_segment_holding_what_single_appends_hold() {
    let out = build_world(8, 16);
    let snaps = &out.snapshots[..8];
    let single = tmp_dir("run-single");
    archive_outcome(&single, &out);

    // Two runs, the second overlapping the first: the held epochs are
    // skipped, the rest land in one segment under one manifest entry.
    let grouped = tmp_dir("run-grouped");
    let mut writer = ArchiveWriter::open(&grouped).unwrap();
    assert_eq!(writer.append_epochs(&run_of(&snaps[..5])).unwrap(), 5);
    assert_eq!(writer.append_epochs(&run_of(&snaps[3..])).unwrap(), 3);
    assert_eq!(epoch_ranges(&grouped), [(0, 4), (5, 7)]);
    assert_eq!(
        epochs_as_text(&grouped)[..],
        epochs_as_text(&single)[..8],
        "a grouped epoch decodes to what the same epoch appended alone does"
    );

    // Nothing new: no write at all.
    let before = dir_snapshot(&grouped);
    assert_eq!(writer.append_epochs(&run_of(&snaps[2..6])).unwrap(), 0);
    assert_eq!(writer.append_epochs(&[]).unwrap(), 0);
    assert!(!writer
        .append_epoch(&snaps[7], &SegmentStats::default())
        .unwrap());
    assert_eq!(dir_snapshot(&grouped), before);
    fs::remove_dir_all(&single).unwrap();
    fs::remove_dir_all(&grouped).unwrap();
}

#[test]
fn a_run_that_does_not_chain_writes_nothing() {
    let out = build_world(4, 16);
    let snaps = &out.snapshots;
    let dir = tmp_dir("run-gap");
    let mut writer = ArchiveWriter::open(&dir).unwrap();

    let err = writer.append_epochs(&run_of(&snaps[1..3])).unwrap_err();
    assert!(err.to_string().contains("expected 0"), "{err}");
    let holed = [Arc::clone(&snaps[0]), Arc::clone(&snaps[2])];
    let err = writer.append_epochs(&run_of(&holed)).unwrap_err();
    assert!(err.to_string().contains("of the same append"), "{err}");
    assert!(dir_snapshot(&dir).is_empty(), "a rejected run left files");

    assert_eq!(writer.append_epochs(&run_of(&snaps[..2])).unwrap(), 2);
    let err = writer.append_epochs(&run_of(&snaps[3..])).unwrap_err();
    assert!(err.to_string().contains("does not chain"), "{err}");
    assert_eq!(epoch_ranges(&dir), [(0, 1)]);
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn an_asn_table_that_is_not_one_to_one_is_corrupt() {
    // The archived ASN delta is read off the epoch's own `(asn, id)`
    // table, which must name every id below the seal-time length once.
    // One that misses, repeats or over-runs an id writes nothing.
    let out = build_world(1, 16);
    let good = &out.snapshots[0];
    let by_asn = good.dense.as_ref().unwrap().by_asn.as_ref().clone();
    let ids = by_asn.len() as u32;
    let mut missing = by_asn.clone();
    missing.pop();
    let mut repeated = by_asn.clone();
    repeated[1].1 = repeated[0].1;
    let mut over_run = by_asn;
    over_run[0].1 = ids;
    let dir = tmp_dir("asn-table");
    let mut writer = ArchiveWriter::open(&dir).unwrap();
    for (what, table) in [
        ("missing", missing),
        ("repeated", repeated),
        ("over-run", over_run),
    ] {
        let mut snap = EpochSnapshot::clone(good);
        snap.dense.as_mut().unwrap().by_asn = Arc::new(table);
        let err = writer
            .append_epoch(&snap, &SegmentStats::default())
            .unwrap_err();
        assert!(matches!(err, ArchiveError::Corrupt(_)), "{what}: {err}");
        assert!(err.to_string().contains("ASN table"), "{what}: {err}");
    }
    assert!(dir_snapshot(&dir).is_empty(), "a rejected epoch left files");
    assert!(writer.append_epoch(good, &SegmentStats::default()).unwrap());
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_class_table_out_of_asn_order_is_corrupt() {
    // Class frames are deltas merged by ASN: a table out of order could
    // not read back as itself, so the writer refuses it and writes nothing.
    let out = build_world(1, 16);
    let mut snap = EpochSnapshot::clone(&out.snapshots[0]);
    let mut classes = snap.classes.as_ref().clone();
    assert!(classes.len() >= 2);
    classes.swap(0, 1);
    snap.classes = Arc::new(classes);
    let dir = tmp_dir("class-order");
    let mut writer = ArchiveWriter::open(&dir).unwrap();
    let err = writer
        .append_epoch(&snap, &SegmentStats::default())
        .unwrap_err();
    assert!(matches!(err, ArchiveError::Corrupt(_)), "{err}");
    assert!(err.to_string().contains("class table"), "{err}");
    assert!(dir_snapshot(&dir).is_empty(), "a rejected epoch left files");
    fs::remove_dir_all(&dir).unwrap();
}

/// A disk whose write after the first `ungated` blocks until the test
/// lets it through, so what queues up behind it is the test's to decide;
/// it dies after `writes_left` writes.
#[derive(Debug)]
struct GatedIo {
    entered: std::sync::mpsc::Sender<()>,
    release: Option<std::sync::mpsc::Receiver<()>>,
    ungated: usize,
    writes_left: usize,
}

impl IoShim for GatedIo {
    fn write_atomic(&mut self, dir: &Path, name: &str, bytes: &[u8]) -> Result<()> {
        if self.ungated > 0 {
            self.ungated -= 1;
        } else if let Some(release) = self.release.take() {
            self.entered.send(()).unwrap();
            release.recv().unwrap();
        }
        if self.writes_left == 0 {
            return Err(std::io::Error::other("dead disk").into());
        }
        self.writes_left -= 1;
        RealIo.write_atomic(dir, name, bytes)
    }
}

/// A sink on a gated disk, with epoch 0 already submitted and its write
/// held; `open()` lets the disk go.
fn gated_sink(
    dir: &Path,
    first: &Arc<EpochSnapshot>,
    writes_left: usize,
) -> (ArchiveSink, impl FnOnce()) {
    let (entered, has_entered) = std::sync::mpsc::channel();
    let (open, release) = std::sync::mpsc::channel();
    let io = GatedIo {
        entered,
        release: Some(release),
        ungated: 0,
        writes_left,
    };
    let writer = ArchiveWriter::open_with_io(dir, Box::new(io), Arc::default()).unwrap();
    let sink = ArchiveSink::spawn(writer);
    sink.submit(Arc::clone(first));
    has_entered.recv().unwrap();
    (sink, move || open.send(()).unwrap())
}

#[test]
fn sink_commits_a_backlog_in_runs() {
    let out = build_world(20, 16);
    let snaps = &out.snapshots[..20];
    let single = tmp_dir("backlog-single");
    archive_outcome(&single, &out);

    // Epoch 0 is on its way to a disk that does not answer; the other 19
    // pile up behind it.
    let dir = tmp_dir("backlog");
    let (sink, open) = gated_sink(&dir, &snaps[0], usize::MAX);
    for snap in &snaps[1..] {
        sink.submit(Arc::clone(snap));
    }
    open();
    let (writer, report) = sink.finish().unwrap();
    assert_eq!((report.written, report.dropped, report.retries), (20, 0, 0));
    assert_eq!(writer.last_epoch(), Some(19));

    // The backlog cost three commits, not twenty: the epoch in flight, a
    // full run, and the rest.
    assert_eq!(epoch_ranges(&dir), [(0, 0), (1, 16), (17, 19)]);
    assert_eq!(epochs_as_text(&dir)[..], epochs_as_text(&single)[..20]);
    fs::remove_dir_all(&single).unwrap();
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_sink_that_is_behind_waits_for_a_full_run() {
    let out = build_world(18, 16);
    let snaps = &out.snapshots[..18];
    let dir = tmp_dir("linger-full");
    // Epoch 1 arrives while epoch 0 is being written: the sink is behind
    // when that write returns, with one epoch to show for it.
    let (sink, open) = gated_sink(&dir, &snaps[0], usize::MAX);
    sink.submit(Arc::clone(&snaps[1]));
    open();
    let status = sink.status();
    while status.committed() < 1 {
        std::thread::yield_now();
    }
    // The rest come one at a time, as a feed's do. The sixteenth queued
    // epoch wakes the sink; nothing else has to.
    for snap in &snaps[2..17] {
        sink.submit(Arc::clone(snap));
    }
    while status.committed() < 17 {
        std::thread::yield_now();
    }
    // Having caught up, it takes the next epoch as it comes.
    sink.submit(Arc::clone(&snaps[17]));
    while status.committed() < 18 {
        std::thread::yield_now();
    }
    assert_eq!(epoch_ranges(&dir), [(0, 0), (1, 16), (17, 17)]);
    let (_, report) = sink.finish().unwrap();
    assert_eq!((report.written, report.dropped, report.retries), (18, 0, 0));
    assert!(Archive::open(&dir).unwrap().verify().is_ok());
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_lingering_sink_settles_for_a_short_run() {
    let out = build_world(2, 16);
    let snaps = &out.snapshots[..2];
    let dir = tmp_dir("linger-short");
    let (sink, open) = gated_sink(&dir, &snaps[0], usize::MAX);
    sink.submit(Arc::clone(&snaps[1]));
    let opened = std::time::Instant::now();
    open();
    // Behind, and the feed has gone quiet: epoch 1 is committed anyway,
    // once the sink has waited out its linger (100 ms) — no `finish`, no
    // further submission.
    let status = sink.status();
    while status.committed() < 2 {
        std::thread::yield_now();
    }
    assert!(opened.elapsed() >= std::time::Duration::from_millis(100));
    assert_eq!(epoch_ranges(&dir), [(0, 0), (1, 1)]);
    let (_, report) = sink.finish().unwrap();
    assert_eq!((report.written, report.dropped, report.retries), (2, 0, 0));
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_restart_backfill_ends_the_run_it_lands_behind() {
    let out = build_world(6, 16);
    let snaps = &out.snapshots[..6];
    let dir = tmp_dir("backfill-run");
    let (sink, open) = gated_sink(&dir, &snaps[0], usize::MAX);
    // 1..=3 queue up, then a respawned driver replays the feed from 0.
    for snap in snaps[1..4].iter().chain(snaps) {
        sink.submit(Arc::clone(snap));
    }
    open();
    let (_, report) = sink.finish().unwrap();
    assert_eq!((report.written, report.dropped, report.retries), (6, 0, 0));
    assert_eq!(epoch_ranges(&dir), [(0, 0), (1, 3), (4, 5)]);
    assert!(Archive::open(&dir).unwrap().verify().is_ok());
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_run_is_retried_and_dropped_as_one() {
    let out = build_world(8, 16);
    let snaps = &out.snapshots[..8];
    let dir = tmp_dir("drop-run");
    // The disk takes epoch 0 (segment + manifest) and then dies.
    let (sink, open) = gated_sink(&dir, &snaps[0], 2);
    for snap in &snaps[1..5] {
        sink.submit(Arc::clone(snap));
    }
    open();
    let status = sink.status();
    while status.dropped() == 0 {
        std::thread::yield_now();
    }
    // 1..=4 went down together after one retry budget; what follows no
    // longer chains and is dropped without one.
    let retries = u64::from(MAX_RETRIES);
    assert_eq!((status.dropped(), status.retries()), (4, retries));
    for snap in &snaps[5..] {
        sink.submit(Arc::clone(snap));
    }
    let err = sink.finish().unwrap_err();
    assert_eq!(
        (err.report.written, err.report.dropped, err.report.retries),
        (1, 7, retries)
    );
    // The error reported is the write error that opened the gap, not the
    // chain check of the epochs dropped onto it.
    assert!(err.error.to_string().contains("dead disk"), "{}", err.error);
    assert_eq!(epoch_ranges(&dir), [(0, 0)]);
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_queue_eviction_degrades_the_sink_at_once() {
    let out = build_world(QUEUE_CAP as u64 + 3, 16);
    let snaps = &out.snapshots[..QUEUE_CAP + 3];
    let dir = tmp_dir("evict");
    // Epoch 0 commits (segment + manifest); epoch 1's write is held.
    let (entered, has_entered) = std::sync::mpsc::channel();
    let (open, release) = std::sync::mpsc::channel();
    let io = GatedIo {
        entered,
        release: Some(release),
        ungated: 2,
        writes_left: usize::MAX,
    };
    let obs = Arc::new(obs::ObsRegistry::new());
    let writer = ArchiveWriter::open_with_io(&dir, Box::new(io), Arc::clone(&obs)).unwrap();
    let sink = ArchiveSink::spawn(writer);
    // Declared after the sink, so a failing assertion opens the gate
    // before the sink's drop joins its thread.
    let open = open;
    let failed = || obs.gauge("bgp_archive_sink_failed", "", &[]).get();
    let status = sink.status();
    sink.submit(Arc::clone(&snaps[0]));
    while status.committed() < 1 {
        std::thread::yield_now();
    }
    sink.submit(Arc::clone(&snaps[1]));
    has_entered.recv().unwrap();

    // 2 up to QUEUE_CAP + 1 fill the queue; the last evicts 2, while
    // epoch 1 is still on its way to the disk.
    for snap in &snaps[2..] {
        sink.submit(Arc::clone(snap));
    }
    assert_eq!(status.dropped(), 1);
    assert!(status.in_drop_state(), "an eviction is a drop at once");
    assert_eq!(failed(), 1);

    // Epoch 1's commit was submitted before the eviction and does not
    // clear it; the rest no longer chain and are dropped too.
    open.send(()).unwrap();
    let err = sink.finish().unwrap_err();
    assert_eq!(
        (err.report.written, err.report.dropped),
        (2, QUEUE_CAP as u64 + 1)
    );
    assert!(status.in_drop_state());
    assert_eq!(failed(), 1);
    assert_eq!(epoch_ranges(&dir), [(0, 0), (1, 1)]);
    fs::remove_dir_all(&dir).unwrap();
}

/// A Trace frame is what the writer's registry traced: the world's
/// epochs were sealed but never published, so a writer on a fresh
/// registry writes none, except for the epoch whose timeline was put on
/// its registry, which it closes with the `archive` row and persists.
#[test]
fn only_an_epoch_traced_on_the_writers_registry_persists_a_trace() {
    let out = build_world(3, 16);
    let dir = tmp_dir("untraced");
    let obs = Arc::new(obs::ObsRegistry::new());
    let mut writer = ArchiveWriter::open_with_io(&dir, Box::new(RealIo), Arc::clone(&obs)).unwrap();
    writer.append_epochs(&run_of(&out.snapshots[..2])).unwrap();
    let mut timeline = obs::Timeline::new(2, std::time::Instant::now());
    let seal = vec![0; obs::Stage::SEAL.counters().len()];
    timeline.set(obs::Stage::SEAL, timeline.base, 10, &seal);
    obs.traces().put(timeline);
    writer.append_epochs(&run_of(&out.snapshots[2..])).unwrap();
    assert_eq!(obs.traces().epochs(), [2], "no timeline for 0 and 1");

    let archived = Archive::open(&dir)
        .unwrap()
        .read_all(DecodeFilter::all())
        .unwrap();
    let traced: Vec<bool> = archived.iter().map(|e| e.has_trace).collect();
    assert_eq!(traced, [false, false, true]);
    let trace = archived[2].trace.as_ref().expect("decoded trace");
    assert_eq!(Some(trace), obs.traces().get(2).as_ref());
    let stages: Vec<&str> = trace.rows().map(|r| r.stage.name()).collect();
    assert_eq!(stages, ["seal", "archive"]);
    fs::remove_dir_all(&dir).unwrap();
}

/// A disk whose first write fails and whose others go through.
#[derive(Debug)]
struct FailsOnce(bool);

impl IoShim for FailsOnce {
    fn write_atomic(&mut self, dir: &Path, name: &str, bytes: &[u8]) -> Result<()> {
        if std::mem::take(&mut self.0) {
            return Err(std::io::Error::other("flaky disk").into());
        }
        RealIo.write_atomic(dir, name, bytes)
    }
}

#[test]
fn each_append_attempt_is_one_duration_sample() {
    // The append histogram times the segment + manifest commit: a run
    // that fails once and commits on its retry is two samples, one per
    // attempt, not one sample spanning the backoff between them.
    let out = build_world(1, 16);
    let dir = tmp_dir("append-hist");
    let obs = Arc::new(obs::ObsRegistry::new());
    let io = Box::new(FailsOnce(true));
    let writer = ArchiveWriter::open_with_io(&dir, io, Arc::clone(&obs)).unwrap();
    let sink = ArchiveSink::spawn(writer);
    sink.submit(Arc::clone(&out.snapshots[0]));
    let (_, report) = sink.finish().unwrap();
    assert_eq!((report.written, report.dropped, report.retries), (1, 0, 1));
    let hist = obs.histogram("bgp_archive_append_duration_seconds", "", &[]);
    assert_eq!(hist.count(), 2);
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn truncating_a_multi_epoch_delta_segment_recovers_to_the_run_before() {
    // The tail segment is a run of five epochs, so its counter and class
    // frames after the first are deltas: a cut anywhere in it must still
    // pop the whole run, never fold a partial chain.
    let dir = tmp_dir("truncate-run");
    let out = build_world(8, 16);
    let snaps = &out.snapshots[..8];
    let mut writer = ArchiveWriter::open(&dir).unwrap();
    assert_eq!(writer.append_epochs(&run_of(&snaps[..3])).unwrap(), 3);
    assert_eq!(writer.append_epochs(&run_of(&snaps[3..])).unwrap(), 5);
    drop(writer);
    let pristine = dir_snapshot(&dir);
    let tail = Manifest::load(&dir)
        .unwrap()
        .entries
        .last()
        .unwrap()
        .clone();
    let tail_bytes = fs::read(dir.join(&tail.file)).unwrap();
    assert_eq!((tail.first_epoch, tail.last_epoch), (3, 7));

    let stride = (tail_bytes.len() / 256).max(1);
    let mut cuts: Vec<usize> = (0..tail_bytes.len()).step_by(stride).collect();
    cuts.push(tail_bytes.len() - 1);
    for cut in cuts {
        dir_restore(&dir, &pristine);
        fs::write(dir.join(&tail.file), &tail_bytes[..cut]).unwrap();
        let archive = Archive::open(&dir).unwrap();
        assert_eq!(
            archive.manifest().last_epoch(),
            Some(2),
            "cut at byte {cut}"
        );
        let report = archive.verify();
        assert!(report.is_ok(), "cut {cut}: {:?}", report.problems);

        let mut writer = ArchiveWriter::open(&dir).unwrap();
        assert_eq!(writer.append_epochs(&run_of(&snaps[3..])).unwrap(), 5);
    }
    // The re-appended run is the same bytes under the same name.
    assert_eq!(dir_snapshot(&dir), pristine);
    fs::remove_dir_all(&dir).unwrap();
}

/// One generated epoch: what its counter column and class table hold.
struct GenEpoch {
    column: Vec<AsCounters>,
    classes: Vec<(Asn, Class)>,
}

/// The ASNs generated class tables draw from, 16- and 32-bit.
const CLASS_POOL: [u32; 10] = [
    1,
    2,
    3,
    100,
    64_512,
    65_535,
    65_536,
    70_000,
    4_200_000_000,
    u32::MAX,
];

const CLASSES: [&str; 6] = ["tf", "tc", "sf", "un", "nu", "uu"];

/// A generated epoch sequence: a column that only grows, random rows
/// changed (id 0 and the last id often, a row now and then back to zero),
/// epochs that change nothing, class rows added, changed and removed.
fn generate_epochs(rng: &mut TestRng) -> Vec<GenEpoch> {
    let epochs = rng.random_range(1..24usize);
    let mut column = vec![AsCounters::default(); rng.random_range(0..40usize)];
    let mut classes: std::collections::BTreeMap<Asn, Class> = Default::default();
    let mut out = Vec::with_capacity(epochs);
    for _ in 0..epochs {
        if rng.random_range(0..4u32) != 0 {
            let grown = column.len() + rng.random_range(0..6usize);
            column.resize(grown, AsCounters::default());
            for _ in 0..rng.random_range(0..8usize) {
                if column.is_empty() {
                    break;
                }
                let id = match rng.random_range(0..4u32) {
                    0 => 0,
                    1 => column.len() - 1,
                    _ => rng.random_range(0..column.len()),
                };
                column[id] = if rng.random_range(0..8u32) == 0 {
                    AsCounters::default()
                } else {
                    AsCounters {
                        t: column[id].t + rng.random_range(0..3u64),
                        s: rng.random_range(0..5u64),
                        f: rng.random_range(0..5u64),
                        c: rng.next_u64(),
                    }
                };
            }
            for _ in 0..rng.random_range(0..6usize) {
                let asn = Asn(CLASS_POOL[rng.random_range(0..CLASS_POOL.len())]);
                if rng.random_range(0..3u32) == 0 {
                    classes.remove(&asn);
                } else {
                    let class = CLASSES[rng.random_range(0..CLASSES.len())];
                    classes.insert(asn, class.parse().unwrap());
                }
            }
        }
        out.push(GenEpoch {
            column: column.clone(),
            classes: classes.iter().map(|(&asn, &class)| (asn, class)).collect(),
        });
    }
    out
}

/// A sealed epoch holding `gen`: id `i` is AS `1000 + i`.
fn generated_snapshot(epoch: u64, gen: &GenEpoch) -> Arc<EpochSnapshot> {
    let ids = gen.column.len() as u32;
    Arc::new(EpochSnapshot {
        epoch,
        version: epoch + 1,
        sealed_at: 10 * epoch,
        events: 1,
        total_events: epoch + 1,
        unique_tuples: ids as usize,
        dense: Some(DenseOutcome {
            counters: Arc::new(gen.column.clone()),
            by_asn: Arc::new((0..ids).map(|id| (Asn(1_000 + id), id)).collect()),
            // The archive writes the column and the class table; it never
            // reads the record table (and these classes are not the
            // column's).
            records: Arc::new(Vec::new()),
            thresholds: Thresholds::default(),
            deepest_active_index: 0,
        }),
        classes: Arc::new(gen.classes.clone()),
        flips: Arc::new(Vec::new()),
        seal_nanos: 0,
        count_nanos: 0,
        ingest: Default::default(),
        seal: Default::default(),
        instants: None,
    })
}

/// Every epoch of `dir` decodes to what was generated for it: the full
/// column (none for the first `slim` epochs, which compaction merged),
/// the full class table, and every pooled ASN's trajectory.
fn check_generated(dir: &Path, gens: &[GenEpoch], slim: u64, ctx: &str) {
    let archive = Archive::open(dir).unwrap();
    let report = archive.verify();
    assert!(report.is_ok(), "{ctx}: {:?}", report.problems);
    for (e, gen) in gens.iter().enumerate() {
        let ep = archive.load_epoch(e as u64, DecodeFilter::all()).unwrap();
        assert_eq!(ep.interner_len(), gen.column.len(), "{ctx} epoch {e}");
        if (e as u64) < slim {
            assert!(!ep.has_counters && ep.counters.is_none(), "{ctx} epoch {e}");
        } else {
            assert_eq!(
                ep.counters.as_deref(),
                Some(&gen.column[..]),
                "{ctx} epoch {e}"
            );
        }
        assert_eq!(ep.classes, gen.classes, "{ctx} epoch {e}");
    }
    for asn in CLASS_POOL.map(Asn) {
        let expect: Vec<(u64, Option<Class>)> = gens
            .iter()
            .enumerate()
            .map(|(e, gen)| {
                let class = gen
                    .classes
                    .iter()
                    .find(|&&(a, _)| a == asn)
                    .map(|&(_, c)| c);
                (e as u64, class)
            })
            .collect();
        assert_eq!(
            archive.class_trajectory(asn).unwrap(),
            expect,
            "{ctx} {asn}"
        );
    }
}

/// One generated sequence, appended under random run splits, read back,
/// compacted with a random `keep`, and read back again.
fn check_delta_chain(case: u32) {
    let mut rng = TestRng::for_case("delta_chain", case);
    let gens = generate_epochs(&mut rng);
    let snaps: Vec<Arc<EpochSnapshot>> = gens
        .iter()
        .enumerate()
        .map(|(e, gen)| generated_snapshot(e as u64, gen))
        .collect();
    let dir = tmp_dir("delta-chain");
    let mut writer = ArchiveWriter::open(&dir).unwrap();
    let mut at = 0;
    while at < snaps.len() {
        let n = rng.random_range(1..7usize).min(snaps.len() - at);
        assert_eq!(
            writer.append_epochs(&run_of(&snaps[at..at + n])).unwrap(),
            n
        );
        at += n;
    }
    drop(writer);
    check_generated(&dir, &gens, 0, &format!("case {case}"));

    let keep = rng.random_range(0..gens.len() as u64 + 2);
    let merged = compact(&dir, keep)
        .unwrap()
        .map_or(0, |report| report.epochs_merged);
    check_generated(&dir, &gens, merged, &format!("case {case} keep {keep}"));
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn delta_chains_fold_back_to_every_epoch() {
    for case in 0..48 {
        check_delta_chain(case);
    }
}

#[test]
#[ignore = "long: run with --release -- --ignored"]
fn delta_chains_fold_back_to_every_epoch_at_length() {
    for case in 0..1_000 {
        check_delta_chain(case);
    }
}

/// Hand-written frames: kind and payload.
type Frames = Vec<(Kind, Vec<u8>)>;

/// A segment of `frames` under `version`, with a correct checksum trailer,
/// so only its content can be refused.
fn sealed(version: u32, frames: &[(Kind, Vec<u8>)]) -> Vec<u8> {
    let mut seg = MAGIC.to_vec();
    seg.put_u32(version);
    for (kind, payload) in frames {
        put_frame(&mut seg, *kind, payload);
    }
    let digest = Fnv64::of(&seg);
    put_frame(&mut seg, Kind::End, &digest.to_le_bytes());
    seg
}

fn meta_frame(epoch: u64) -> (Kind, Vec<u8>) {
    let mut p = Vec::new();
    p.put_u64(epoch);
    for _ in 0..11 {
        p.put_u64(0);
    }
    (Kind::EpochMeta, p)
}

fn interner_frame(base: u32, ids: u32) -> (Kind, Vec<u8>) {
    let mut p = Vec::new();
    p.put_u32(base);
    p.put_u32(ids);
    for i in 0..ids {
        p.put_u32(1_000 + base + i);
    }
    (Kind::Interner, p)
}

/// A counter frame of a `len`-id column claiming `claimed` rows, with
/// one row (all counters 1) for each of `ids`.
fn counter_frame(len: u32, claimed: u32, ids: &[u32]) -> (Kind, Vec<u8>) {
    let mut p = Vec::new();
    p.put_u32(len);
    p.put_u32(claimed);
    for &id in ids {
        p.put_u32(id);
        for _ in 0..4 {
            p.put_u64(1);
        }
    }
    (Kind::Counters, p)
}

/// A counter frame of [`epoch_of`]'s three-id column, one row for each of
/// `ids`.
fn rows(ids: &[u32]) -> (Kind, Vec<u8>) {
    counter_frame(3, ids.len() as u32, ids)
}

/// A class frame upserting `upserts` (as `tf`) and removing `removed`.
fn class_frame(upserts: &[u32], removed: &[u32]) -> (Kind, Vec<u8>) {
    let mut p = Vec::new();
    p.put_u32(upserts.len() as u32);
    for &asn in upserts {
        p.put_u32(asn);
        p.extend_from_slice(b"tf");
    }
    p.put_u32(removed.len() as u32);
    for &asn in removed {
        p.put_u32(asn);
    }
    (Kind::Classes, p)
}

/// A frame of `kind` whose payload is `prefix` then a count of `u32::MAX`
/// rows and nothing else.
fn max_count(kind: Kind, prefix: &[u8]) -> (Kind, Vec<u8>) {
    let mut p = prefix.to_vec();
    p.put_u32(u32::MAX);
    (kind, p)
}

/// Epoch `epoch` of a hand-written segment: three ids, all interned by
/// epoch 0, then `rest`.
fn epoch_of(epoch: u64, rest: Frames) -> Frames {
    let (base, ids) = if epoch == 0 { (0, 3) } else { (3, 0) };
    [meta_frame(epoch), interner_frame(base, ids)]
        .into_iter()
        .chain(rest)
        .collect()
}

#[test]
fn hand_written_delta_segments_fold_or_are_corrupt() {
    // The control: two epochs whose deltas fold as the format says.
    let good = sealed(
        VERSION,
        &[
            meta_frame(0),
            interner_frame(0, 3),
            counter_frame(3, 2, &[0, 2]),
            class_frame(&[1, 2], &[]),
            meta_frame(1),
            interner_frame(3, 1),
            counter_frame(4, 1, &[3]),
            class_frame(&[3], &[1]),
        ],
    );
    let epochs = decode_segment(&good, DecodeFilter::all()).unwrap();
    let one = AsCounters {
        t: 1,
        s: 1,
        f: 1,
        c: 1,
    };
    let zero = AsCounters::default();
    assert_eq!(epochs[0].counters.as_deref(), Some(&[one, zero, one][..]));
    assert_eq!(
        epochs[1].counters.as_deref(),
        Some(&[one, zero, one, one][..])
    );
    let tf: Class = "tf".parse().unwrap();
    assert_eq!(epochs[0].classes, [(Asn(1), tf), (Asn(2), tf)]);
    assert_eq!(epochs[1].classes, [(Asn(2), tf), (Asn(3), tf)]);

    let mut stats = Vec::new();
    for _ in 0..5 {
        stats.put_u64(0);
    }
    // A trace frame's payload: a presence word, then the record's words.
    let trace = |present: u64, len: usize| {
        let mut p = present.to_le_bytes().to_vec();
        p.resize(len, 0);
        (Kind::Trace, p)
    };
    let hostile: Vec<(&str, Frames)> = vec![
        ("a row id past the column", epoch_of(0, vec![rows(&[3])])),
        ("a repeated row id", epoch_of(0, vec![rows(&[1, 1])])),
        ("descending row ids", epoch_of(0, vec![rows(&[2, 1])])),
        (
            "a row count past the payload",
            epoch_of(0, vec![counter_frame(3, 2, &[0])]),
        ),
        (
            "a column longer than the interner",
            epoch_of(0, vec![counter_frame(4, 0, &[])]),
        ),
        (
            "a column shorter than its predecessor",
            [
                epoch_of(0, vec![rows(&[])]),
                vec![
                    meta_frame(1),
                    interner_frame(0, 2),
                    counter_frame(2, 0, &[]),
                ],
            ]
            .concat(),
        ),
        (
            "two counter frames in one epoch",
            epoch_of(0, vec![rows(&[]), rows(&[])]),
        ),
        (
            "descending class rows",
            epoch_of(0, vec![class_frame(&[2, 1], &[])]),
        ),
        (
            "a removal of an absent AS",
            epoch_of(0, vec![class_frame(&[], &[5])]),
        ),
        (
            "a repeated removal",
            [
                epoch_of(0, vec![class_frame(&[1, 2], &[])]),
                epoch_of(1, vec![class_frame(&[], &[1, 1])]),
            ]
            .concat(),
        ),
        (
            "an AS upserted and removed",
            [
                epoch_of(0, vec![class_frame(&[1], &[])]),
                epoch_of(1, vec![class_frame(&[1], &[1])]),
            ]
            .concat(),
        ),
        // Counts that would size an allocation the payload cannot back.
        (
            "an interner of u32::MAX ids",
            vec![meta_frame(0), max_count(Kind::Interner, &[0; 4])],
        ),
        (
            "an interner starting past every id an archive holds",
            vec![
                meta_frame(0),
                interner_frame(u32::MAX, 0),
                counter_frame(u32::MAX, 0, &[]),
            ],
        ),
        (
            "u32::MAX counter rows",
            epoch_of(0, vec![max_count(Kind::Counters, &3u32.to_le_bytes())]),
        ),
        (
            "u32::MAX upserted class rows",
            epoch_of(0, vec![max_count(Kind::Classes, &[])]),
        ),
        (
            "u32::MAX removed class rows",
            epoch_of(0, vec![max_count(Kind::Classes, &[0; 4])]),
        ),
        (
            "u32::MAX flips",
            epoch_of(0, vec![max_count(Kind::Flips, &[])]),
        ),
        (
            "u32::MAX shard loads",
            epoch_of(0, vec![max_count(Kind::Stats, &stats)]),
        ),
        // The trace frame is one fixed length, naming only known stages.
        (
            "a trace frame one byte short",
            epoch_of(0, vec![trace(1, TRACE_FRAME - 1)]),
        ),
        (
            "a trace frame one byte long",
            epoch_of(0, vec![trace(1, TRACE_FRAME + 1)]),
        ),
        (
            "a presence word with an unknown bit",
            epoch_of(0, vec![trace(1 << STAGES.len(), TRACE_FRAME)]),
        ),
    ];
    for (what, frames) in hostile {
        let seg = sealed(VERSION, &frames);
        match decode_segment(&seg, DecodeFilter::all()) {
            Err(ArchiveError::Corrupt(_)) => {}
            other => panic!("{what}: {other:?}"),
        }
    }

    // Version 1 held full columns and tables, version 2 a trace frame of
    // named rows; both are refused, not misread.
    for version in [1, 2] {
        let err =
            decode_segment(&sealed(version, &[meta_frame(0)]), DecodeFilter::all()).unwrap_err();
        assert!(
            err.to_string()
                .contains(&format!("unsupported segment version {version}")),
            "{err}"
        );
    }
}

#[test]
fn a_hostile_orphan_is_left_alone_at_open() {
    // `Archive::open` decodes every orphan it finds: one whose counts
    // overrun its payload must be skipped, not take the process down.
    let dir = tmp_dir("hostile-orphan");
    let out = build_world(2, 16);
    archive_outcome(&dir, &out);
    let last = Manifest::load(&dir).unwrap().last_epoch().unwrap();
    let orphan = sealed(
        VERSION,
        &[
            meta_frame(last + 1),
            interner_frame(0, 3),
            max_count(Kind::Counters, &3u32.to_le_bytes()),
        ],
    );
    fs::write(dir.join("seg-00000099.bgpa"), orphan).unwrap();
    let archive = Archive::open(&dir).unwrap();
    assert_eq!(archive.manifest().last_epoch(), Some(last));
    assert!(archive.verify().is_ok());
    fs::remove_dir_all(&dir).unwrap();
}
