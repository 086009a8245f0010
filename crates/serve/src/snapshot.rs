//! Snapshot publication: immutable query views hot-swapped atomically.
//!
//! The ingest side seals epochs; each seal produces one immutable
//! [`ServeSnapshot`] published through a [`SnapshotSlot`]. Readers obtain
//! an `Arc<ServeSnapshot>` and answer any number of queries against it —
//! the snapshot can never change under them, so a request sees exactly
//! one epoch (never a mix), and the writer never waits for readers.
//!
//! The slot itself is a version-stamped cell: `publish` (writer, rare)
//! stores the new `Arc` and bumps an atomic version; `load` (readers)
//! clones the `Arc` under a mutex held for the duration of a pointer
//! copy. Steady-state readers use a [`SnapshotReader`], which caches the
//! last `Arc` it saw and revalidates with one atomic load — the hot query
//! path takes no lock at all between epoch seals, which at production
//! epoch policies (thousands of events per seal) is effectively always.
//!
//! Publishing is cheap by construction: the record table is a copy of
//! the one the seal patched at the ids that moved
//! ([`EpochSnapshot::records`]: no map, no sort, no per-AS work), and the
//! cumulative flip log is a [`FlipLog`] of per-epoch `Arc`'d chunks
//! shared by every snapshot that retains them — per publish the log
//! costs one chunk pointer per retained epoch, not a deep copy of every
//! entry.
//!
//! A publish is also where an epoch's trace is written, once: the
//! [`Publisher`] builds the rows the seal dated
//! ([`EpochSnapshot::stage_runs`]), adds its `publish` row and puts them
//! in its registry's trace store. An epoch it skips — a backfill epoch
//! the archive already holds, a replayed one the slot already serves —
//! writes nothing, so the store or the archive keeps the timeline of
//! the epoch's first publish.

use crate::json::{push_u64, JsonWriter};
use bgp_archive::prelude::ArchiveSink;
use bgp_infer::classify::Class;
use bgp_infer::counters::Thresholds;
use bgp_infer::db::DbRecord;
use bgp_stream::epoch::{ClassFlip, EpochSnapshot, IngestStats};
use bgp_stream::pipeline::StreamPipeline;
use obs::StageRun;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One sealed epoch's contribution to the flip log: the epoch id plus
/// the epoch's flip list, shared (`Arc`) with the pipeline snapshot that
/// produced it — appending an epoch to the log copies no entries.
#[derive(Debug, Clone)]
pub struct FlipChunk {
    /// The epoch the flips belong to.
    pub epoch: u64,
    /// The epoch's flips, ascending by ASN.
    pub flips: Arc<Vec<ClassFlip>>,
}

/// The cumulative class-flip log as a sequence of per-epoch `Arc`'d
/// chunks, ascending by epoch. Cloning the log (one per published
/// snapshot) copies chunk pointers, not entries, so sealing cost no
/// longer scales with the retained log size; capping trims whole chunks
/// from the front, which keeps every retained epoch complete — the
/// invariant `flips_since` needs to report completeness honestly.
#[derive(Debug, Clone, Default)]
pub struct FlipLog {
    chunks: Vec<FlipChunk>,
    /// Epoch id of the oldest epoch whose flips are fully retained: the
    /// one after the last trimmed chunk's (epochs between it and the
    /// first retained chunk flipped nothing, so they are complete too).
    start_epoch: u64,
    /// Total retained entries across chunks.
    len: usize,
}

impl FlipLog {
    /// Retained flip entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no flips are retained.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Epoch id of the oldest fully retained epoch.
    pub fn start_epoch(&self) -> u64 {
        self.start_epoch
    }

    /// Append one sealed epoch's flips (no-op when the epoch flipped
    /// nothing) and trim whole chunks from the front while more than
    /// `cap` entries are retained.
    fn push_epoch(&mut self, epoch: u64, flips: &Arc<Vec<ClassFlip>>, cap: usize) {
        if !flips.is_empty() {
            self.len += flips.len();
            self.chunks.push(FlipChunk {
                epoch,
                flips: Arc::clone(flips),
            });
        }
        let mut dropped = 0;
        while self.len > cap && dropped < self.chunks.len() {
            self.len -= self.chunks[dropped].flips.len();
            dropped += 1;
        }
        if dropped > 0 {
            self.start_epoch = self.chunks[dropped - 1].epoch + 1;
            self.chunks.drain(..dropped);
        }
    }

    /// Rebuild a log from archived per-epoch chunks (the daemon restart
    /// path): each chunk is replayed through the same append-and-trim
    /// step a live publisher would have taken, so the restored log is
    /// identical to one that never went down. `start_floor` is the
    /// oldest epoch whose flips the archive still retains — for an
    /// archive that was never compacted it is 0, matching a fresh log.
    pub fn from_chunks(
        start_floor: u64,
        chunks: impl IntoIterator<Item = (u64, Arc<Vec<ClassFlip>>)>,
        cap: usize,
    ) -> FlipLog {
        let mut log = FlipLog {
            start_epoch: start_floor,
            ..FlipLog::default()
        };
        for (epoch, flips) in chunks {
            log.push_epoch(epoch, &flips, cap);
        }
        log
    }

    /// Flips from epochs `>= since_epoch`, in epoch order, plus whether
    /// the answer is complete (`false` when the requested range starts
    /// before the retained log).
    pub fn flips_since(&self, since_epoch: u64) -> (impl Iterator<Item = (u64, &ClassFlip)>, bool) {
        let start = self.chunks.partition_point(|c| c.epoch < since_epoch);
        let iter = self.chunks[start..]
            .iter()
            .flat_map(|c| c.flips.iter().map(move |f| (c.epoch, f)));
        (iter, since_epoch >= self.start_epoch)
    }

    /// Number of retained flips from epochs `>= since_epoch` — computed
    /// from the per-chunk lengths, no entry iteration or allocation (the
    /// `/v1/flips` envelope writes the count before the entries).
    pub fn count_since(&self, since_epoch: u64) -> usize {
        let start = self.chunks.partition_point(|c| c.epoch < since_epoch);
        self.chunks[start..].iter().map(|c| c.flips.len()).sum()
    }

    /// Iterate every retained `(epoch, flip)` pair in epoch order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &ClassFlip)> {
        self.chunks
            .iter()
            .flat_map(|c| c.flips.iter().map(move |f| (c.epoch, f)))
    }
}

/// One immutable, queryable view of the classification database.
///
/// Everything a query needs is precomputed at publish time (sorted record
/// table, cumulative flip log), so serving threads only ever binary-search
/// and format — no locks, no shared mutable state.
#[derive(Debug)]
pub struct ServeSnapshot {
    /// The sealed stream epoch behind this view; `None` before the first
    /// seal (the "version 0" boot snapshot serves empty answers).
    pub epoch: Option<Arc<EpochSnapshot>>,
    /// Per-AS records, sorted by ASN (the `db::records` table), copied
    /// at publish time from the record table the seal patched.
    pub records: Vec<DbRecord>,
    /// Thresholds the records were classified under.
    pub thresholds: Thresholds,
    /// Cumulative flip log: `Arc`'d per-epoch chunks shared across
    /// snapshots.
    pub flip_log: FlipLog,
    /// A copy of the epoch's [`EpochSnapshot::ingest`], captured at its
    /// seal (the default before the first seal).
    pub ingest: IngestStats,
}

impl ServeSnapshot {
    /// The boot snapshot: version 0, nothing classified yet.
    pub fn empty(thresholds: Thresholds) -> Self {
        ServeSnapshot {
            epoch: None,
            records: Vec::new(),
            thresholds,
            flip_log: FlipLog::default(),
            ingest: IngestStats::default(),
        }
    }

    /// Monotone publication version: 0 before the first seal, then the
    /// sealed epoch's `version` (`epoch + 1`).
    pub fn version(&self) -> u64 {
        self.epoch.as_ref().map_or(0, |e| e.version)
    }

    /// The sealed epoch id, or `None` before the first seal.
    pub fn epoch_id(&self) -> Option<u64> {
        self.epoch.as_ref().map(|e| e.epoch)
    }

    /// Point lookup, `None` for an AS this epoch never counted.
    pub fn record_of(&self, asn: bgp_types::asn::Asn) -> Option<&DbRecord> {
        self.records
            .binary_search_by_key(&asn, |r| r.asn)
            .ok()
            .map(|i| &self.records[i])
    }

    /// Classification of one AS ([`Class::NONE`] when never counted).
    pub fn class_of(&self, asn: bgp_types::asn::Asn) -> Class {
        self.record_of(asn).map_or(Class::NONE, |r| r.class)
    }

    /// Flips from epochs `>= since_epoch`, in epoch order. The boolean is
    /// `false` when the requested range starts before the retained log
    /// (the answer is then truncated at [`FlipLog::start_epoch`]).
    pub fn flips_since(&self, since_epoch: u64) -> (impl Iterator<Item = (u64, &ClassFlip)>, bool) {
        self.flip_log.flips_since(since_epoch)
    }

    /// Re-classify every record under different thresholds without
    /// re-counting — the same approximation the batch engine's
    /// `reclassify` documents, evaluated against this immutable snapshot.
    pub fn reclassify(&self, th: &Thresholds) -> impl Iterator<Item = (&DbRecord, Class)> + '_ {
        let th = *th;
        self.records
            .iter()
            .map(move |r| (r, r.counters.classify(&th)))
    }
}

/// Records for an epoch whose counter column is gone (compacted in the
/// pipeline or dropped from the archive's retention window): classes
/// survive, counters serve as zero.
pub(crate) fn zeroed_records(classes: &[(bgp_types::asn::Asn, Class)]) -> Vec<DbRecord> {
    classes
        .iter()
        .map(|&(asn, class)| DbRecord {
            asn,
            class,
            counters: Default::default(),
        })
        .collect()
}

/// Append one record, as an array element (`key` `None`) or as the
/// field `"key":{...}`. The single definition of the wire shape every
/// endpoint shares, written in one pass as literal pieces and digits:
/// `{"asn":…,"class":"xy","counters":{"t":…,"s":…,"f":…,"c":…}}`.
pub(crate) fn write_record(w: &mut JsonWriter, key: Option<&str>, r: &DbRecord) {
    let out = w.value(key);
    out.push_str("{\"asn\":");
    push_u64(out, r.asn.0 as u64);
    out.push_str(",\"class\":\"");
    out.push_str(r.class.as_str());
    out.push_str("\",\"counters\":{\"t\":");
    push_u64(out, r.counters.t);
    out.push_str(",\"s\":");
    push_u64(out, r.counters.s);
    out.push_str(",\"f\":");
    push_u64(out, r.counters.f);
    out.push_str(",\"c\":");
    push_u64(out, r.counters.c);
    out.push_str("}}");
}

/// The atomic publication slot: one writer, any number of readers.
pub struct SnapshotSlot {
    /// Bumped to the snapshot's version on every publish. Readers use it
    /// to revalidate cached `Arc`s without locking.
    version: AtomicU64,
    slot: Mutex<Arc<ServeSnapshot>>,
    /// Callbacks fired after every publish — the HTTP transport
    /// registers its reactor waker here so parked long-poll clients
    /// are resumed the moment a new epoch lands.
    wakers: Mutex<Vec<Arc<dyn Fn() + Send + Sync>>>,
}

impl std::fmt::Debug for SnapshotSlot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SnapshotSlot")
            .field("version", &self.version)
            .field("slot", &self.slot)
            .field(
                "wakers",
                &self
                    .wakers
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .len(),
            )
            .finish()
    }
}

impl SnapshotSlot {
    /// A slot holding the boot snapshot.
    pub fn new(thresholds: Thresholds) -> Self {
        SnapshotSlot {
            version: AtomicU64::new(0),
            slot: Mutex::new(Arc::new(ServeSnapshot::empty(thresholds))),
            wakers: Mutex::new(Vec::new()),
        }
    }

    /// Register a callback invoked (outside the slot lock) after every
    /// successful publish.
    pub fn register_waker(&self, waker: Arc<dyn Fn() + Send + Sync>) {
        self.wakers
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .push(waker);
    }

    /// Current publication version (lock-free).
    pub fn version(&self) -> u64 {
        self.version.load(Ordering::Acquire)
    }

    /// Swap in a new snapshot. Panics if the version does not advance —
    /// publications must be monotone or readers could observe time moving
    /// backwards between requests.
    pub fn publish(&self, snapshot: Arc<ServeSnapshot>) {
        let new_version = snapshot.version();
        // Recover a poisoned lock rather than panic: the slot only ever
        // holds a complete `Arc` swap, so a panic elsewhere (e.g. the
        // monotonicity assert below) never leaves a torn value behind.
        let mut guard = self
            .slot
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let old_version = guard.version();
        assert!(
            new_version > old_version,
            "snapshot version must advance: {old_version} -> {new_version}"
        );
        *guard = snapshot;
        // Publish the version while still holding the lock so a reader
        // that sees the new version always finds the new snapshot.
        self.version.store(new_version, Ordering::Release);
        drop(guard);
        // Wake listeners outside the lock: a waker that triggers a
        // reader must find the new snapshot already visible.
        let wakers = self
            .wakers
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        for waker in wakers.iter() {
            waker();
        }
    }

    /// The current snapshot (brief lock, pointer-copy only).
    pub fn load(&self) -> Arc<ServeSnapshot> {
        self.slot
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clone()
    }

    /// A caching reader handle for a serving thread.
    pub fn reader(self: &Arc<Self>) -> SnapshotReader {
        SnapshotReader {
            slot: Arc::clone(self),
            cached: self.load(),
        }
    }
}

/// A per-thread reader: revalidates its cached snapshot with one atomic
/// load and only touches the slot mutex when an epoch actually sealed.
#[derive(Debug)]
pub struct SnapshotReader {
    slot: Arc<SnapshotSlot>,
    cached: Arc<ServeSnapshot>,
}

impl SnapshotReader {
    /// The slot this reader watches.
    pub fn slot(&self) -> &Arc<SnapshotSlot> {
        &self.slot
    }

    /// The freshest snapshot (lock-free when nothing sealed since the
    /// last call).
    pub fn current(&mut self) -> &Arc<ServeSnapshot> {
        if self.slot.version() != self.cached.version() {
            self.cached = self.slot.load();
        }
        &self.cached
    }
}

/// Builds `ServeSnapshot`s out of a pipeline's newly sealed epochs and
/// publishes them in order — the bridge the ingest driver (and tests)
/// drive after every pushed batch.
#[derive(Debug)]
pub struct Publisher {
    slot: Arc<SnapshotSlot>,
    /// Pipeline snapshots already published.
    published: usize,
    /// Cumulative flip log carried across publications (chunk-shared).
    log: FlipLog,
    /// Retain at most this many flip entries (oldest epochs trimmed
    /// first, whole).
    flip_log_cap: usize,
    /// Counts and times each published epoch
    /// (`bgp_serve_epochs_published_total`,
    /// `bgp_serve_publish_duration_seconds`).
    metrics: Arc<crate::metrics::Metrics>,
    /// Durable epoch tap: every newly published epoch is also queued
    /// here (one `Arc` clone + one queue push — the disk write happens
    /// on the sink's own thread). Shared (`Arc`) so a supervised driver
    /// can keep the sink alive across publisher respawns.
    archive: Option<Arc<ArchiveSink>>,
    /// Epochs `<=` this id were already archived and republished at boot
    /// by the restore path; the deterministic-feed backfill re-seals
    /// them, but they must not reach the slot (versions would move
    /// backwards), the flip log (already seeded), or the sink (already
    /// committed).
    resume_skip: Option<u64>,
}

impl Publisher {
    /// A publisher feeding `slot`, retaining at most `flip_log_cap` flips,
    /// counting on a fresh private [`Metrics`](crate::metrics::Metrics).
    pub fn new(slot: Arc<SnapshotSlot>, flip_log_cap: usize) -> Self {
        Publisher {
            slot,
            published: 0,
            log: FlipLog::default(),
            flip_log_cap,
            metrics: Arc::default(),
            archive: None,
            resume_skip: None,
        }
    }

    /// Count and time each published epoch on `metrics`, and put its
    /// timeline in the trace store of their registry.
    pub fn with_metrics(mut self, metrics: Arc<crate::metrics::Metrics>) -> Self {
        self.metrics = metrics;
        self
    }

    /// Tap every newly published epoch into `sink` for durable archiving.
    pub fn with_archive(mut self, sink: Arc<ArchiveSink>) -> Self {
        self.archive = Some(sink);
        self
    }

    /// Resume after a restart that republished `restored` from the
    /// archive: seed the flip log from the restored snapshot and skip
    /// every backfill epoch at or below its id. Call before the first
    /// `sync`.
    pub fn resume_from(&mut self, restored: &ServeSnapshot) {
        self.resume_skip = restored.epoch_id();
        self.log = restored.flip_log.clone();
    }

    /// The slot this publisher feeds.
    pub fn slot(&self) -> &Arc<SnapshotSlot> {
        &self.slot
    }

    /// Publish every epoch the pipeline sealed since the last call, one
    /// `ServeSnapshot` per epoch (readers may observe each version, so
    /// none are skipped). Returns how many were published — on a
    /// restart, backfill epochs the archive already holds are re-sealed
    /// by the deterministic feed but not re-published, and don't count.
    pub fn sync(&mut self, pipeline: &StreamPipeline) -> usize {
        let snapshots = pipeline.snapshots();
        let new = &snapshots[self.published.min(snapshots.len())..];
        let thresholds = pipeline.config().thresholds;
        let mut count = 0;
        for sealed in new {
            if self.publish_epoch(thresholds, Arc::clone(sealed)) {
                count += 1;
            }
        }
        self.published = snapshots.len();
        count
    }

    /// Publish one sealed epoch with the numbers it sealed with: nothing
    /// here reads the pipeline's state at publish time. Its timeline (the
    /// rows its seal dated, and the `publish` row) goes into the trace
    /// store in one call, replacing any the store held; a skipped epoch
    /// writes none.
    fn publish_epoch(&mut self, thresholds: Thresholds, sealed: Arc<EpochSnapshot>) -> bool {
        if self.resume_skip.is_some_and(|skip| sealed.epoch <= skip) {
            return false;
        }
        let t_publish = Instant::now();
        self.log
            .push_epoch(sealed.epoch, &sealed.flips, self.flip_log_cap);
        // An epoch compacted before it was published keeps classes but
        // not counters: serve them with zeroed counters rather than fail.
        let records = sealed
            .records()
            .unwrap_or_else(|| zeroed_records(&sealed.classes));
        let snapshot = ServeSnapshot {
            records,
            thresholds,
            flip_log: self.log.clone(),
            ingest: sealed.ingest.clone(),
            epoch: Some(Arc::clone(&sealed)),
        };
        let snapshot = Arc::new(snapshot);
        self.slot.publish(Arc::clone(&snapshot));
        // Put the epoch's timeline before handing the epoch to the
        // archive sink: the sink's thread closes it with its `archive`
        // row and encodes the trace frame.
        let mut runs = sealed.stage_runs();
        runs.push(StageRun {
            stage: "publish",
            started: t_publish,
            nanos: t_publish.elapsed().as_nanos() as u64,
            counters: vec![
                ("records", snapshot.records.len() as u64),
                ("version", snapshot.version()),
            ],
        });
        self.metrics.registry().traces().put(sealed.epoch, &runs);
        if let Some(sink) = &self.archive {
            sink.submit(sealed);
        }
        self.metrics.epochs_published.inc();
        self.metrics
            .publish
            .record(t_publish.elapsed().as_nanos() as u64);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgp_stream::epoch::EpochPolicy;
    use bgp_stream::ingest::StreamEvent;
    use bgp_stream::pipeline::StreamConfig;
    use bgp_types::prelude::*;

    fn tag_tuple(p: &[u32], uppers: &[u32]) -> PathCommTuple {
        PathCommTuple::new(
            path(p),
            CommunitySet::from_iter(uppers.iter().map(|&u| AnyCommunity::tag_for(Asn(u), 100))),
        )
    }

    fn batch(p: &[u32], uppers: &[u32]) -> bgp_infer::engine::InferenceOutcome {
        bgp_infer::engine::InferenceEngine::default().run(&[tag_tuple(p, uppers)])
    }

    fn pipeline(every: u64) -> StreamPipeline {
        StreamPipeline::new(StreamConfig {
            shards: 2,
            epoch: EpochPolicy::every_events(every),
            ..Default::default()
        })
    }

    #[test]
    fn boot_snapshot_is_version_zero() {
        let slot = Arc::new(SnapshotSlot::new(Thresholds::default()));
        let snap = slot.load();
        assert_eq!(snap.version(), 0);
        assert_eq!(snap.epoch_id(), None);
        assert!(snap.records.is_empty());
        assert_eq!(snap.class_of(Asn(1)), Class::NONE);
    }

    #[test]
    fn publisher_tracks_sealed_epochs() {
        let slot = Arc::new(SnapshotSlot::new(Thresholds::default()));
        let mut publisher = Publisher::new(Arc::clone(&slot), 1024);
        let mut pipe = pipeline(2);

        for i in 0..4u64 {
            pipe.push(StreamEvent::new(i, tag_tuple(&[1, 9], &[1])));
        }
        assert_eq!(publisher.sync(&pipe), 2);
        let snap = slot.load();
        assert_eq!(snap.version(), 2);
        assert_eq!(snap.epoch_id(), Some(1));
        assert_eq!(snap.class_of(Asn(1)).tagging.code(), 't');
        // Records match the batch engine's over the one unique tuple.
        assert_eq!(snap.records, bgp_infer::db::records(&batch(&[1, 9], &[1])));
        // Nothing new -> no publish.
        assert_eq!(publisher.sync(&pipe), 0);
    }

    /// Six distinct tuples, one push at a time, sealed every two events
    /// and published with an archive sink attached: `sync_every` calls
    /// `sync` after each push, else once at the end. Returns every
    /// publish, as a slot waker saw it, and each archived epoch's stats.
    fn published_and_archived(sync_every: bool) -> (Vec<Arc<ServeSnapshot>>, Vec<IngestStats>) {
        use bgp_archive::prelude::{Archive, ArchiveSink, ArchiveWriter, DecodeFilter};
        static N: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "bgp-snapshot-catch-up-{}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let slot = Arc::new(SnapshotSlot::new(Thresholds::default()));
        let seen = Arc::new(Mutex::new(Vec::new()));
        let (weak, into) = (Arc::downgrade(&slot), Arc::clone(&seen));
        slot.register_waker(Arc::new(move || {
            let slot = weak.upgrade().expect("the slot publishes");
            into.lock().unwrap().push(slot.load());
        }));
        let sink = Arc::new(ArchiveSink::spawn(ArchiveWriter::open(&dir).unwrap()));
        let mut publisher = Publisher::new(Arc::clone(&slot), 1024).with_archive(Arc::clone(&sink));
        let mut pipe = pipeline(2);
        for i in 0..6u32 {
            pipe.push(StreamEvent::new(
                u64::from(i),
                tag_tuple(&[10 + i, 5, 9], &[5]),
            ));
            if sync_every {
                publisher.sync(&pipe);
            }
        }
        assert_eq!(publisher.sync(&pipe), if sync_every { 0 } else { 3 });
        drop(publisher);
        let sink = Arc::try_unwrap(sink).expect("the publisher is gone");
        assert_eq!(sink.finish().unwrap().1.written, 3);
        let archived = Archive::open(&dir)
            .unwrap()
            .read_all(DecodeFilter::all())
            .unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        let published = seen.lock().unwrap().clone();
        (published, archived.into_iter().map(|ep| ep.stats).collect())
    }

    #[test]
    fn a_catch_up_sync_publishes_and_archives_each_epoch_as_sealed() {
        let (published, archived) = published_and_archived(false);
        assert_eq!(published.len(), 3);
        for snap in &published {
            let epoch = snap.epoch.as_ref().unwrap();
            let stored: u64 = snap.ingest.shard_loads.iter().sum();
            assert_eq!(stored, epoch.unique_tuples as u64, "epoch {}", epoch.epoch);
            assert_eq!(snap.ingest, epoch.ingest, "epoch {}", epoch.epoch);
        }
        assert_eq!(
            published[0].ingest.replayed_steps, 0,
            "a first seal replays nothing"
        );
        let (_, per_seal) = published_and_archived(true);
        assert_eq!(archived, per_seal);
    }

    #[test]
    fn reader_revalidates_on_new_version() {
        let slot = Arc::new(SnapshotSlot::new(Thresholds::default()));
        let mut publisher = Publisher::new(Arc::clone(&slot), 1024);
        let mut reader = slot.reader();
        assert_eq!(reader.current().version(), 0);

        let mut pipe = pipeline(1);
        pipe.push(StreamEvent::new(0, tag_tuple(&[1, 9], &[1])));
        publisher.sync(&pipe);
        assert_eq!(reader.current().version(), 1);
        pipe.push(StreamEvent::new(1, tag_tuple(&[2, 9], &[])));
        publisher.sync(&pipe);
        assert_eq!(reader.current().version(), 2);
    }

    #[test]
    fn flip_log_accumulates_and_caps() {
        let slot = Arc::new(SnapshotSlot::new(Thresholds::default()));
        let mut publisher = Publisher::new(Arc::clone(&slot), 2);
        let mut pipe = pipeline(1);
        // Each epoch flips AS1: t.. then u.. alternating evidence.
        pipe.push(StreamEvent::new(0, tag_tuple(&[1, 9], &[1])));
        pipe.push(StreamEvent::new(1, tag_tuple(&[1, 8], &[])));
        pipe.push(StreamEvent::new(2, tag_tuple(&[2, 9], &[2])));
        publisher.sync(&pipe);
        let snap = slot.load();
        assert!(snap.flip_log.len() <= 2, "cap respected");
        let (all, complete) = snap.flips_since(0);
        assert_eq!(all.count(), snap.flip_log.len());
        assert!(!complete, "front of the log was trimmed");
        let (recent, complete) = snap.flips_since(snap.flip_log.start_epoch());
        assert!(complete);
        assert_eq!(recent.count(), snap.flip_log.len());
    }

    #[test]
    #[should_panic(expected = "version must advance")]
    fn non_monotone_publish_panics() {
        // Empty snapshots are version 0 and the slot boots at version 0,
        // so re-publishing the boot view fails the strict-advance check.
        let slot = SnapshotSlot::new(Thresholds::default());
        slot.publish(Arc::new(ServeSnapshot::empty(Thresholds::default())));
    }

    #[test]
    fn trim_extends_to_epoch_boundary() {
        let slot = Arc::new(SnapshotSlot::new(Thresholds::default()));
        let mut publisher = Publisher::new(Arc::clone(&slot), 2);
        let mut pipe = pipeline(1);
        // One epoch sealing three flips at once: a naive cap trim would
        // keep 2 of them and claim the epoch complete.
        pipe.push(StreamEvent::new(0, tag_tuple(&[1, 5, 9], &[1, 5])));
        publisher.sync(&pipe);
        let snap = slot.load();
        let (_, complete) = snap.flips_since(0);
        if snap.flip_log.is_empty() {
            // The whole epoch was trimmed: since_epoch=0 must NOT claim
            // completeness, the next epoch is the first complete one.
            assert!(!complete);
            assert_eq!(snap.flip_log.start_epoch(), 1);
        } else {
            // Nothing trimmed mid-epoch: every retained epoch is whole.
            let first_epoch = snap.flip_log.iter().next().unwrap().0;
            assert!(
                snap.flip_log
                    .iter()
                    .filter(|&(e, _)| e == first_epoch)
                    .count()
                    >= 1
            );
            assert_eq!(snap.flip_log.start_epoch(), first_epoch);
        }
    }

    fn flip(asn: u32) -> ClassFlip {
        ClassFlip {
            asn: Asn(asn),
            from: Class::NONE,
            to: "tf".parse().unwrap(),
        }
    }

    fn chunk(asns: &[u32]) -> Arc<Vec<ClassFlip>> {
        Arc::new(asns.iter().map(|&a| flip(a)).collect())
    }

    #[test]
    fn trim_lands_exactly_on_chunk_boundary() {
        // cap=4, chunks of 2: the trim removes exactly one whole chunk
        // and start_epoch advances to the next retained chunk's epoch.
        let log = FlipLog::from_chunks(
            0,
            [
                (0, chunk(&[1, 2])),
                (1, chunk(&[3, 4])),
                (2, chunk(&[5, 6])),
            ],
            4,
        );
        assert_eq!(log.len(), 4);
        assert_eq!(log.start_epoch(), 1);
        let (iter, complete) = log.flips_since(1);
        assert!(complete);
        assert_eq!(iter.count(), 4);
        let (_, complete) = log.flips_since(0);
        assert!(!complete, "epoch 0 was trimmed");
    }

    #[test]
    fn epochs_without_flips_after_a_trim_are_complete() {
        // Epochs 1–4 flipped nothing; trimming epoch 0 leaves them
        // complete, so the log starts at 1, not at the next chunk (5).
        let chunks = [(0, chunk(&[1, 2])), (5, chunk(&[3, 4]))];
        let restored = FlipLog::from_chunks(0, chunks.clone(), 2);
        let mut live = FlipLog::default();
        for (e, flips) in &chunks {
            live.push_epoch(*e, flips, 2);
        }
        for log in [restored, live] {
            assert_eq!((log.start_epoch(), log.len()), (1, 2));
            for since in [1, 3, 5] {
                let (iter, complete) = log.flips_since(since);
                assert!(complete, "since={since}");
                assert_eq!(iter.count(), 2, "since={since}");
            }
            let (_, complete) = log.flips_since(0);
            assert!(!complete, "epoch 0 was trimmed");
        }
    }

    #[test]
    fn since_epoch_older_than_start_after_trim_is_incomplete_but_served() {
        let log = FlipLog::from_chunks(
            5,
            [(5, chunk(&[1])), (6, chunk(&[2, 3])), (7, chunk(&[4, 5]))],
            4,
        );
        // Epoch 5 trimmed (5 entries > cap 4): start is 6, len 4.
        assert_eq!(log.start_epoch(), 6);
        assert_eq!(log.len(), 4);
        // Asking for an epoch older than anything ever retained (3) and
        // older than start after trimming (5): both incomplete, both
        // still answer with everything retained.
        for since in [3, 5] {
            let (iter, complete) = log.flips_since(since);
            assert!(!complete, "since={since}");
            assert_eq!(iter.count(), 4, "since={since}");
            assert_eq!(log.count_since(since), 4);
        }
        let (_, complete) = log.flips_since(6);
        assert!(complete);
    }

    #[test]
    fn empty_epoch_chunks_are_noops_for_retention_and_start() {
        // Epochs that flipped nothing produce empty chunks; replaying
        // them must neither retain anything nor move start_epoch.
        let log = FlipLog::from_chunks(
            0,
            [
                (0, chunk(&[])),
                (1, chunk(&[1, 2])),
                (2, chunk(&[])),
                (3, chunk(&[3])),
                (4, chunk(&[])),
            ],
            100,
        );
        assert_eq!(log.len(), 3);
        assert_eq!(log.start_epoch(), 0, "nothing trimmed");
        let (iter, complete) = log.flips_since(0);
        assert!(complete);
        let got: Vec<u64> = iter.map(|(e, _)| e).collect();
        assert_eq!(got, vec![1, 1, 3]);
        // An empty chunk right at the cap boundary: trimming is driven
        // by entry counts, so an all-empty log never trims.
        let empty = FlipLog::from_chunks(0, [(0, chunk(&[])), (1, chunk(&[]))], 0);
        assert!(empty.is_empty());
        assert_eq!(empty.start_epoch(), 0);
    }

    #[test]
    fn restored_log_matches_live_replay() {
        // from_chunks over the exact chunk sequence a live publisher
        // consumed must land on the same (len, start_epoch, contents).
        let chunks: Vec<(u64, Arc<Vec<ClassFlip>>)> = (0..10u64)
            .map(|e| {
                let n = (e % 3) as u32;
                (
                    e,
                    chunk(&(0..n).map(|i| 100 + e as u32 * 10 + i).collect::<Vec<_>>()),
                )
            })
            .collect();
        let cap = 5;
        let mut live = FlipLog::default();
        for (e, fl) in &chunks {
            live.push_epoch(*e, fl, cap);
        }
        let restored = FlipLog::from_chunks(0, chunks.clone(), cap);
        assert_eq!(restored.len(), live.len());
        assert_eq!(restored.start_epoch(), live.start_epoch());
        let a: Vec<(u64, ClassFlip)> = live.iter().map(|(e, f)| (e, *f)).collect();
        let b: Vec<(u64, ClassFlip)> = restored.iter().map(|(e, f)| (e, *f)).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn per_seal_publication_survives_compaction() {
        // With compact_history, sealing epoch N strips epoch N-1's
        // counter store in the pipeline. A publisher that synced after
        // every seal must keep serving epoch N-1's real counters
        // (compaction copy-on-writes the shared Arc).
        let slot = Arc::new(SnapshotSlot::new(Thresholds::default()));
        let mut publisher = Publisher::new(Arc::clone(&slot), 1024);
        let mut pipe = StreamPipeline::new(StreamConfig {
            shards: 1,
            epoch: EpochPolicy::every_events(1),
            compact_history: true,
            ..Default::default()
        });

        pipe.push(StreamEvent::new(0, tag_tuple(&[1, 9], &[1])));
        publisher.sync(&pipe);
        let first = slot.load();
        assert_eq!(first.version(), 1);
        assert!(first.records.iter().any(|r| !r.counters.is_zero()));

        // The next seal compacts epoch 0 inside the pipeline...
        pipe.push(StreamEvent::new(1, tag_tuple(&[2, 9], &[2])));
        publisher.sync(&pipe);
        assert!(
            pipe.snapshots()[0].dense.is_none(),
            "pipeline history compacted"
        );
        // ...but the published epoch-0 snapshot keeps its full state.
        assert_eq!(
            first.epoch.as_ref().unwrap().records().as_ref(),
            Some(&first.records)
        );
        assert!(first.records.iter().any(|r| !r.counters.is_zero()));
        // And the live snapshot moved on with real counters too.
        let second = slot.load();
        assert_eq!(second.version(), 2);
        assert!(second.records.iter().any(|r| !r.counters.is_zero()));
    }

    #[test]
    fn reclassify_is_pure_over_records() {
        let slot = Arc::new(SnapshotSlot::new(Thresholds::default()));
        let mut publisher = Publisher::new(Arc::clone(&slot), 64);
        let mut pipe = pipeline(4);
        for i in 0..4u64 {
            pipe.push(StreamEvent::new(i, tag_tuple(&[1, 5, 9], &[1, 5])));
        }
        publisher.sync(&pipe);
        let snap = slot.load();
        let relaxed = Thresholds::uniform(0.5);
        let reclassified: Vec<Class> = snap.reclassify(&relaxed).map(|(_, c)| c).collect();
        let oracle = batch(&[1, 5, 9], &[1, 5]).reclassify(relaxed);
        let oracle_classes: Vec<Class> = oracle.into_iter().map(|(_, c)| c).collect();
        assert_eq!(reclassified, oracle_classes);
    }
}
