//! End-to-end archive coverage: pipeline epochs → segments on disk →
//! recovered reads, with every crash shape the commit protocol claims to
//! survive exercised for real (exhaustive truncation, orphan adoption,
//! compaction).

use bgp_archive::prelude::*;
use bgp_archive::segment::DecodeFilter;
use bgp_stream::prelude::*;
use bgp_types::prelude::*;
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
        assert!(writer.append_epoch(snap, &SegmentStats::default()).unwrap());
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
        sink.submit(Arc::clone(snap), SegmentStats::default());
    }
    assert!(!sink.is_failed());
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
    static STATS: std::sync::OnceLock<SegmentStats> = std::sync::OnceLock::new();
    let stats = STATS.get_or_init(SegmentStats::default);
    snaps.iter().map(|snap| (&**snap, stats)).collect()
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

/// A disk whose first write blocks until the test lets it through, so
/// what queues up behind it is the test's to decide; it dies after
/// `writes_left` writes.
#[derive(Debug)]
struct GatedIo {
    entered: std::sync::mpsc::Sender<()>,
    release: Option<std::sync::mpsc::Receiver<()>>,
    writes_left: usize,
}

impl IoShim for GatedIo {
    fn write_atomic(&mut self, dir: &Path, name: &str, bytes: &[u8]) -> Result<()> {
        if let Some(release) = self.release.take() {
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
        writes_left,
    };
    let writer = ArchiveWriter::open_with_io(dir, Box::new(io)).unwrap();
    let sink = ArchiveSink::spawn_with(
        writer,
        SinkConfig {
            max_retries: 2,
            backoff_base: std::time::Duration::from_millis(1),
            ..Default::default()
        },
    );
    sink.submit(Arc::clone(first), SegmentStats::default());
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
        sink.submit(Arc::clone(snap), SegmentStats::default());
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
    sink.submit(Arc::clone(&snaps[1]), SegmentStats::default());
    open();
    let status = sink.status();
    while status.committed() < 1 {
        std::thread::yield_now();
    }
    // The rest come one at a time, as a feed's do. The sixteenth queued
    // epoch wakes the sink; nothing else has to.
    for snap in &snaps[2..17] {
        sink.submit(Arc::clone(snap), SegmentStats::default());
    }
    while status.committed() < 17 {
        std::thread::yield_now();
    }
    // Having caught up, it takes the next epoch as it comes.
    sink.submit(Arc::clone(&snaps[17]), SegmentStats::default());
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
    sink.submit(Arc::clone(&snaps[1]), SegmentStats::default());
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
        sink.submit(Arc::clone(snap), SegmentStats::default());
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
        sink.submit(Arc::clone(snap), SegmentStats::default());
    }
    open();
    let status = sink.status();
    while status.dropped() == 0 {
        std::thread::yield_now();
    }
    // 1..=4 went down together after one retry budget; what follows no
    // longer chains and is dropped without one.
    assert_eq!((status.dropped(), status.retries()), (4, 2));
    for snap in &snaps[5..] {
        sink.submit(Arc::clone(snap), SegmentStats::default());
    }
    let err = sink.finish().unwrap_err();
    assert_eq!(
        (err.report.written, err.report.dropped, err.report.retries),
        (1, 7, 2)
    );
    assert_eq!(epoch_ranges(&dir), [(0, 0)]);
    fs::remove_dir_all(&dir).unwrap();
}
