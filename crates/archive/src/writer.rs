//! Appending epochs to an archive, synchronously ([`ArchiveWriter`]) or
//! off the ingest thread ([`ArchiveSink`]).
//!
//! The writer's commit protocol is the inverse of the reader's recovery:
//! segment bytes first (temp + fsync + rename), manifest second (same
//! dance). A crash between the two leaves an orphan segment the next
//! [`Archive::open`](crate::archive::Archive::open) adopts; a crash
//! during either write leaves a `*.tmp` that is swept.
//!
//! [`ArchiveSink`] wraps a writer in a background thread fed by a
//! bounded queue of `Arc<EpochSnapshot>`s, so the publishing path pays
//! one `Arc` clone and one mutex push per epoch — a slow disk backs up
//! the sink's queue, never the feed. The sink **group-commits**: each
//! turn it takes the head of the queue *and the consecutive epochs
//! already waiting behind it* (at most `GROUP_COMMIT_EPOCHS`) and
//! appends them as one segment under one manifest commit. A sink that
//! keeps up therefore writes one segment per epoch, exactly as the
//! synchronous writer does; one that falls behind pays the disk's four
//! `fsync`s once per run instead of once per epoch, so how long a feed
//! takes to become durable follows the feed, not the latency of the
//! disk under it. A run also costs fewer bytes than its epochs written
//! alone: within a segment each epoch's counter column and class table
//! are the rows that moved since the epoch before it (see
//! [`crate::segment`]), so only the run's first epoch writes every
//! non-zero row. A sink that finds epochs waiting when a commit returns
//! *is* behind, and holds its next commit until a full run is queued
//! (for at most `GROUP_LINGER`, or until `finish`): a feed that outruns
//! the disk is then cut into full runs, not into however many epochs
//! each `fsync` happened to let through. The sink is *supervised*, not
//! sticky: a failed append is retried with exponential backoff and a
//! writer reopen between attempts (so orphan adoption repairs a
//! segment-committed/manifest-failed split), and only after the retry
//! budget is exhausted is the epoch dropped — loudly, with an error
//! log line and a counter, never silently. A run is retried and dropped
//! as the unit it is committed as. A dropped epoch leaves a chain
//! gap, so subsequent epochs are fast-dropped until a restart backfill
//! (which replays the feed from epoch 0 and dedups) heals the archive.
//!
//! The sink thread reads only what a sealed snapshot holds, immutable
//! columns behind `Arc`s: the archived ASN table comes from the epoch's
//! own Asn-sorted `(asn, id)` table, not from the pipeline's interner, so
//! nothing the pipeline interns after the seal can reach a segment.

use crate::archive::Archive;
use crate::frame::{corrupt, ArchiveError, Result};
use crate::manifest::{segment_file_name, IoShim, Manifest, ManifestEntry, RealIo, MANIFEST_FILE};
use crate::segment::{DecodeFilter, EpochFrames, EpochMeta, SegmentBuilder, SegmentStats};
use bgp_infer::compiled::DenseOutcome;
use bgp_stream::epoch::EpochSnapshot;
use bgp_types::asn::Asn;
use obs::trace::TraceStore;
use obs::{Counter, Gauge, ObsRegistry};
use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Synchronous epoch appender. One segment file per append — one epoch
/// ([`append_epoch`](ArchiveWriter::append_epoch)) or a run of them
/// ([`append_epochs`](ArchiveWriter::append_epochs)), each epoch after
/// the first of a run written as the rows it changed;
/// `compact` (see [`crate::compact`]) later merges old ones.
#[derive(Debug)]
pub struct ArchiveWriter {
    dir: PathBuf,
    manifest: Manifest,
    /// Interner ids already persisted by earlier segments — the next
    /// epoch writes only ids `>= interner_written`.
    interner_written: u32,
    /// Durable-write backend; [`RealIo`] in production, a fault shim in
    /// soak tests.
    io: Box<dyn IoShim>,
    /// Where this writer and its sink record (see
    /// [`registry`](ArchiveWriter::registry)).
    obs: Arc<ObsRegistry>,
    /// Instruments resolved once at open: committed segment count and
    /// payload bytes (both paths, sync and sink).
    segments_appended: Arc<Counter>,
    bytes_written: Arc<Counter>,
    /// Provenance store to record the `archive` stage into (and whose
    /// timeline each epoch persists as a Trace frame). `None` keeps the
    /// writer trace-free.
    trace: Option<Arc<TraceStore>>,
    /// `(last epoch, attempts)` of the most recent append, so a sink
    /// retry re-records the archive stage with a bumped attempt count.
    last_attempt: (u64, u64),
}

/// Interner ids already persisted by `archive`'s committed epochs.
fn interner_written_of(archive: &Archive) -> Result<u32> {
    match archive.manifest().last_epoch() {
        Some(last) => {
            let filter = DecodeFilter {
                counters: false,
                classes: false,
                flips: false,
                trace: false,
            };
            let ep = archive.load_epoch(last, filter)?;
            Ok(u32::try_from(ep.interner_len()).expect("interner fits u32"))
        }
        None => Ok(0),
    }
}

impl ArchiveWriter {
    /// Open `dir` for appending, running full crash recovery first. The
    /// writer (and a sink spawned on it) records on a private registry.
    pub fn open(dir: impl Into<PathBuf>) -> Result<ArchiveWriter> {
        ArchiveWriter::open_with_io(dir, Box::new(RealIo), Arc::default())
    }

    /// Like [`open`](ArchiveWriter::open), but with an explicit
    /// [`IoShim`] through which all of this writer's durable writes go,
    /// and the registry it and its sink record on. Recovery itself
    /// (orphan adoption, tmp sweeps) always uses real I/O — the shim
    /// models append-path faults, not a broken disk.
    pub fn open_with_io(
        dir: impl Into<PathBuf>,
        io: Box<dyn IoShim>,
        obs: Arc<ObsRegistry>,
    ) -> Result<ArchiveWriter> {
        let archive = Archive::open(dir)?;
        let interner_written = interner_written_of(&archive)?;
        Ok(ArchiveWriter {
            dir: archive.dir().to_path_buf(),
            manifest: archive.manifest().clone(),
            interner_written,
            io,
            segments_appended: obs.counter(
                "bgp_archive_segments_appended_total",
                "Segment files committed to the archive",
                &[],
            ),
            bytes_written: obs.counter(
                "bgp_archive_bytes_written_total",
                "Segment payload bytes committed to the archive",
                &[],
            ),
            obs,
            trace: None,
            last_attempt: (u64::MAX, 0),
        })
    }

    /// Record archive stages into `store` and persist each epoch's
    /// timeline as a Trace frame alongside its data frames.
    pub fn with_traces(mut self, store: Arc<TraceStore>) -> ArchiveWriter {
        self.trace = Some(store);
        self
    }

    /// The registry this writer records on, and an [`ArchiveSink`]
    /// spawned on it too.
    pub fn registry(&self) -> &Arc<ObsRegistry> {
        &self.obs
    }

    /// The archive directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Last committed epoch, `None` for an empty archive.
    pub fn last_epoch(&self) -> Option<u64> {
        self.manifest.last_epoch()
    }

    /// Re-run crash recovery in place after a failed append: reload the
    /// manifest (adopting any orphan segment a torn commit left behind)
    /// and recompute the interner watermark. Keeps the I/O shim.
    pub fn reopen(&mut self) -> Result<()> {
        let archive = Archive::open(&self.dir)?;
        self.interner_written = interner_written_of(&archive)?;
        self.manifest = archive.manifest().clone();
        Ok(())
    }

    /// Append one sealed epoch. Returns `false` without touching disk
    /// when the epoch is already committed (the restart-backfill path:
    /// a restored daemon re-ingests the feed from the start and the
    /// writer must not duplicate epochs it already holds). The epoch
    /// must otherwise chain directly onto the committed range.
    pub fn append_epoch(&mut self, snap: &EpochSnapshot, stats: &SegmentStats) -> Result<bool> {
        Ok(self.append_epochs(&[(snap, stats)])? == 1)
    }

    /// Append a run of consecutive sealed epochs as **one** segment and
    /// one manifest commit, so a run of any length costs the durable
    /// writes of a single epoch (group commit; the sink uses it to work
    /// off a backlog). Leading epochs the archive already holds are
    /// skipped, as in [`append_epoch`](ArchiveWriter::append_epoch); the
    /// rest must chain directly onto the committed range and onto each
    /// other. Returns how many epochs were committed — all of the rest or,
    /// on an error, none.
    pub fn append_epochs(&mut self, run: &[(&EpochSnapshot, &SegmentStats)]) -> Result<usize> {
        let committed = self.manifest.last_epoch();
        let held = run
            .iter()
            .take_while(|(snap, _)| committed.is_some_and(|last| snap.epoch <= last))
            .count();
        let run = &run[held..];
        let Some(&(first, _)) = run.first() else {
            return Ok(0);
        };
        match committed {
            Some(last) if first.epoch != last + 1 => {
                return Err(corrupt(format!(
                    "epoch {} does not chain onto committed epoch {last}",
                    first.epoch
                )))
            }
            None if first.epoch != 0 => {
                return Err(corrupt(format!(
                    "epoch {} appended to an empty archive (expected 0)",
                    first.epoch
                )))
            }
            _ => {}
        }
        let last_epoch = first.epoch + run.len() as u64 - 1;
        // A retry of the same run re-records each epoch's archive stage
        // with a bumped attempt count.
        let attempts = if self.last_attempt.0 == last_epoch {
            self.last_attempt.1 + 1
        } else {
            1
        };

        // Ids only grow, so the run's last epoch names every ASN any epoch
        // of the run adds; each takes its delta as a slice of that table.
        let (last, _) = run[run.len() - 1];
        let asns = asns_by_id(last)?;
        let mut builder = SegmentBuilder::new();
        let mut interner_written = self.interner_written;
        for (i, &(snap, stats)) in run.iter().enumerate() {
            if snap.epoch != first.epoch + i as u64 {
                return Err(corrupt(format!(
                    "epoch {} does not chain onto epoch {} of the same append",
                    snap.epoch,
                    first.epoch + i as u64 - 1
                )));
            }
            let dense = dense_of(snap)?;
            // Class frames are deltas merged by ASN, so only an ordered
            // table reads back as itself.
            if !snap.classes.windows(2).all(|w| w[0].0 < w[1].0) {
                return Err(corrupt(format!(
                    "epoch {}: class table does not strictly ascend by ASN",
                    snap.epoch
                )));
            }

            // The seal-time interner length is pinned by the counter column:
            // ids >= counters.len() were interned after this seal and belong
            // to a later epoch's delta.
            let seal_len = u32::try_from(dense.counters.len()).expect("interner fits u32");
            if seal_len < interner_written {
                return Err(corrupt(format!(
                    "epoch {} interner length {seal_len} below already-written {interner_written}",
                    snap.epoch
                )));
            }
            let delta = asns
                .get(interner_written as usize..seal_len as usize)
                .ok_or_else(|| {
                    corrupt(format!(
                        "epoch {} interner length {seal_len} above the run's last epoch's {}",
                        snap.epoch,
                        asns.len()
                    ))
                })?;

            let meta = EpochMeta {
                epoch: snap.epoch,
                sealed_at: snap.sealed_at,
                events: snap.events,
                total_events: snap.total_events,
                unique_tuples: snap.unique_tuples as u64,
                seal_nanos: snap.seal_nanos,
                count_nanos: snap.count_nanos,
                deepest_active_index: dense.deepest_active_index as u64,
                thresholds: dense.thresholds,
            };
            // Close the epoch's provenance timeline: the archive stage spans
            // from the end of the last pipeline stage to this commit attempt,
            // and a retry replaces the row with a bumped attempt count — so
            // the persisted frame always equals what the store serves live.
            let trace = self.trace.as_ref().and_then(|store| {
                store.record_since_last(snap.epoch, "archive", &[("attempt", attempts)]);
                store.get(snap.epoch)
            });
            builder.push_epoch(&EpochFrames {
                meta,
                interner_base: interner_written,
                interner_delta: delta,
                counters: Some(&dense.counters),
                classes: &snap.classes,
                flips: Some(&snap.flips),
                stats,
                trace: trace.as_ref(),
            });
            interner_written = seal_len;
        }
        if self.trace.is_some() {
            self.last_attempt = (last_epoch, attempts);
        }
        let (bytes, checksum) = builder.finish();

        let file = segment_file_name(self.manifest.next_seq());
        self.io.write_atomic(&self.dir, &file, &bytes)?;
        // Commit is transactional: the in-memory manifest only advances
        // once the on-disk manifest write succeeded, so a failed store
        // leaves the writer consistent with disk (segment = orphan).
        let mut next = self.manifest.clone();
        next.entries.push(ManifestEntry {
            file,
            first_epoch: first.epoch,
            last_epoch,
            bytes: bytes.len() as u64,
            checksum,
        });
        next.validate()?;
        self.io
            .write_atomic(&self.dir, MANIFEST_FILE, next.render().as_bytes())?;
        self.manifest = next;
        self.interner_written = interner_written;
        self.segments_appended.inc();
        self.bytes_written.add(bytes.len() as u64);
        Ok(run.len())
    }
}

/// The dense state of a snapshot that still has it.
fn dense_of(snap: &EpochSnapshot) -> Result<&DenseOutcome> {
    snap.dense.as_ref().ok_or_else(|| {
        corrupt(format!(
            "epoch {} was compacted before archiving",
            snap.epoch
        ))
    })
}

/// A sealed epoch's ASNs in id order, scattered from its Asn-sorted
/// `(asn, id)` table, which must name every id below the seal-time
/// length (the counter column's) exactly once: as many pairs as ids, none
/// past the end, none twice.
fn asns_by_id(snap: &EpochSnapshot) -> Result<Vec<Asn>> {
    let dense = dense_of(snap)?;
    let (epoch, ids) = (snap.epoch, dense.counters.len());
    let bad = |why: String| corrupt(format!("epoch {epoch}: ASN table {why}"));
    if dense.by_asn.len() != ids {
        return Err(bad(format!(
            "has {} pairs for {ids} ids",
            dense.by_asn.len()
        )));
    }
    let mut by_id: Vec<Option<Asn>> = vec![None; ids];
    for &(asn, id) in dense.by_asn.iter() {
        match by_id.get_mut(id as usize) {
            Some(slot @ None) => *slot = Some(asn),
            Some(Some(_)) => return Err(bad(format!("names id {id} twice"))),
            None => return Err(bad(format!("names id {id}, past its {ids} ids"))),
        }
    }
    Ok(by_id.into_iter().flatten().collect())
}

/// Retry/queue policy for an [`ArchiveSink`].
#[derive(Debug, Clone)]
pub struct SinkConfig {
    /// Maximum epochs queued; submitting past this drops the *oldest*
    /// queued epoch (newest data wins — readers care about now).
    pub queue_cap: usize,
    /// Append retries per epoch before it is dropped.
    pub max_retries: u32,
    /// Backoff before the first retry; doubles per attempt.
    pub backoff_base: Duration,
    /// Upper bound on any single backoff sleep.
    pub backoff_cap: Duration,
}

impl Default for SinkConfig {
    fn default() -> Self {
        SinkConfig {
            queue_cap: 1024,
            max_retries: 6,
            backoff_base: Duration::from_millis(10),
            backoff_cap: Duration::from_secs(2),
        }
    }
}

/// Live sink state, shared with the serving layer's health machine.
/// All fields are monotone counters or last-event markers; `op`
/// ordinals (one per submission, stamped under the queue lock) order
/// drops against commits without wall clocks.
#[derive(Debug, Default)]
pub struct SinkStatus {
    retrying: AtomicBool,
    retries: AtomicU64,
    dropped: AtomicU64,
    committed: AtomicU64,
    last_commit_op: AtomicU64,
    last_drop_op: AtomicU64,
}

impl SinkStatus {
    /// Whether the sink is currently inside a retry/backoff cycle.
    pub fn retrying(&self) -> bool {
        self.retrying.load(Ordering::Acquire)
    }

    /// Total append retries across all epochs.
    pub fn retries(&self) -> u64 {
        self.retries.load(Ordering::Acquire)
    }

    /// Epochs dropped (retry budget exhausted, chain gap, or queue
    /// overflow).
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Acquire)
    }

    /// Epochs durably committed by this sink.
    pub fn committed(&self) -> u64 {
        self.committed.load(Ordering::Acquire)
    }

    /// Whether the archive has lost an epoch and committed none submitted
    /// after it — an eviction from a full queue counts at once, and the
    /// in-flight commit of an earlier submission does not clear it. This
    /// is the "archive degraded until restart backfill" signal.
    pub fn in_drop_state(&self) -> bool {
        let drops = self.dropped.load(Ordering::Acquire);
        drops > 0
            && self.last_drop_op.load(Ordering::Acquire)
                >= self.last_commit_op.load(Ordering::Acquire)
    }
}

/// What an [`ArchiveSink`] did over its lifetime, returned by
/// [`finish`](ArchiveSink::finish).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SinkReport {
    /// Epochs durably committed (including ones that landed via orphan
    /// adoption during a retry reopen).
    pub written: u64,
    /// Epochs dropped after exhausting retries, fast-dropped onto a
    /// chain gap, or evicted from a full queue.
    pub dropped: u64,
    /// Total append retries performed.
    pub retries: u64,
}

/// Terminal sink failure: at least one epoch was dropped. Carries the
/// full [`SinkReport`] plus the last underlying write error.
#[derive(Debug)]
pub struct SinkError {
    /// Lifetime accounting, including the dropped-epoch count.
    pub report: SinkReport,
    /// The last write error observed before an epoch was dropped.
    pub error: ArchiveError,
}

impl std::fmt::Display for SinkError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "archive sink dropped {} epoch(s) ({} committed, {} retries); last error: {}",
            self.report.dropped, self.report.written, self.report.retries, self.error
        )
    }
}

impl std::error::Error for SinkError {}

/// One submitted epoch and its submission ordinal.
type Queued = (Arc<EpochSnapshot>, SegmentStats, u64);

#[derive(Debug)]
struct SinkQueue {
    queue: VecDeque<Queued>,
    closed: bool,
    /// Submissions so far: the ordinal of the last one.
    submitted: u64,
}

/// Counters a sink exposes to its owner across threads.
#[derive(Debug)]
struct SinkShared {
    error: Mutex<Option<ArchiveError>>,
    /// Epochs submitted but not yet appended.
    queue_depth: Arc<Gauge>,
    /// [`SinkStatus::in_drop_state`] as 1 or 0, set under the queue lock.
    failed: Arc<Gauge>,
    /// 1 while an append is inside its retry/backoff cycle.
    retrying_gauge: Arc<Gauge>,
    /// Append retries, total.
    retries_total: Arc<Counter>,
    /// Epochs dropped, total.
    dropped_total: Arc<Counter>,
}

impl SinkShared {
    fn new(reg: &ObsRegistry) -> Self {
        SinkShared {
            error: Mutex::new(None),
            queue_depth: reg.gauge(
                "bgp_archive_sink_queue_depth",
                "Epochs submitted to the archive sink and not yet appended",
                &[],
            ),
            failed: reg.gauge(
                "bgp_archive_sink_failed",
                "1 while the archive sink has dropped an epoch without a later commit",
                &[],
            ),
            retrying_gauge: reg.gauge(
                "bgp_archive_sink_retrying",
                "1 while an archive append is inside its retry/backoff cycle",
                &[],
            ),
            retries_total: reg.counter(
                "bgp_archive_sink_retries_total",
                "Archive append retries after transient write failures",
                &[],
            ),
            dropped_total: reg.counter(
                "bgp_archive_epochs_dropped_total",
                "Epochs the archive sink dropped (retries exhausted, chain gap, or queue overflow)",
                &[],
            ),
        }
    }

    /// Set the `failed` gauge from `status`. Called with the queue lock
    /// held, so the sink thread and `submit` cannot set it out of order.
    fn settle_failed(&self, status: &SinkStatus) {
        self.failed.set(i64::from(status.in_drop_state()));
    }
}

/// A supervised background archiving thread: epochs go in via a
/// non-blocking bounded-queue push, segment + manifest writes happen
/// off the caller's thread. Failed appends are retried with exponential
/// backoff and a writer reopen between attempts; an epoch is dropped
/// only once its retry budget is exhausted, and every retry and drop is
/// logged and counted. [`finish`](ArchiveSink::finish) surfaces the
/// drop count and last error.
#[derive(Debug)]
pub struct ArchiveSink {
    queue: Arc<(Mutex<SinkQueue>, Condvar)>,
    thread: Option<std::thread::JoinHandle<(ArchiveWriter, SinkReport)>>,
    shared: Arc<SinkShared>,
    status: Arc<SinkStatus>,
    queue_cap: usize,
}

impl ArchiveSink {
    /// Spawn the archiving thread around `writer` with default policy.
    /// The sink records on the writer's registry.
    pub fn spawn(writer: ArchiveWriter) -> ArchiveSink {
        ArchiveSink::spawn_with(writer, SinkConfig::default())
    }

    /// Spawn the archiving thread with an explicit retry/queue policy.
    pub fn spawn_with(writer: ArchiveWriter, cfg: SinkConfig) -> ArchiveSink {
        let queue = Arc::new((
            Mutex::new(SinkQueue {
                queue: VecDeque::new(),
                closed: false,
                submitted: 0,
            }),
            Condvar::new(),
        ));
        let shared = Arc::new(SinkShared::new(writer.registry()));
        let status = Arc::new(SinkStatus::default());
        let thread_queue = Arc::clone(&queue);
        let thread_shared = Arc::clone(&shared);
        let thread_status = Arc::clone(&status);
        let append_hist = writer.registry().histogram(
            "bgp_archive_append_duration_seconds",
            "Wall time of one sink append (segment + manifest commit; an epoch or a queued run)",
            &[],
        );
        let queue_cap = cfg.queue_cap;
        let thread = std::thread::Builder::new()
            .name("bgp-archive-sink".into())
            .spawn(move || {
                let mut writer = writer;
                let mut report = SinkReport {
                    written: 0,
                    dropped: 0,
                    retries: 0,
                };
                loop {
                    let (lock, cvar) = &*thread_queue;
                    let mut guard = lock
                        .lock()
                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                    // Epochs that arrived while the last run was being
                    // written: the feed outruns one commit per epoch.
                    let behind = !guard.queue.is_empty();
                    while guard.queue.is_empty() && !guard.closed {
                        guard = cvar
                            .wait(guard)
                            .unwrap_or_else(std::sync::PoisonError::into_inner);
                    }
                    if behind {
                        guard = linger_for_full_run(cvar, guard);
                    }
                    let run = take_run(&mut guard.queue);
                    drop(guard);
                    let Some(&(_, _, op)) = run.last() else {
                        break; // closed and drained
                    };
                    let t_append = Instant::now();
                    let outcome =
                        append_supervised(&mut writer, &run, &cfg, &thread_shared, &thread_status);
                    append_hist.record(t_append.elapsed().as_nanos() as u64);
                    thread_shared.queue_depth.add(-(run.len() as i64));
                    match outcome {
                        // Dedup: the archive already held the whole run.
                        Appended::Committed(0) => {}
                        Appended::Committed(epochs) => {
                            report.written += epochs;
                            thread_status.committed.fetch_add(epochs, Ordering::AcqRel);
                            thread_status.last_commit_op.fetch_max(op, Ordering::AcqRel);
                        }
                        Appended::Dropped(epochs, e) => {
                            report.dropped += epochs;
                            thread_status.dropped.fetch_add(epochs, Ordering::AcqRel);
                            thread_status.last_drop_op.fetch_max(op, Ordering::AcqRel);
                            thread_shared.dropped_total.add(epochs);
                            obs::error!(
                                "archive",
                                "sink dropped {} after exhausting retries: {e}",
                                run_label(&run)
                            );
                            *thread_shared
                                .error
                                .lock()
                                .unwrap_or_else(std::sync::PoisonError::into_inner) = Some(e);
                        }
                    }
                    let _queue = lock
                        .lock()
                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                    thread_shared.settle_failed(&thread_status);
                }
                report.retries = thread_status.retries.load(Ordering::Acquire);
                (writer, report)
            })
            .expect("spawn archive sink thread");
        ArchiveSink {
            queue,
            thread: Some(thread),
            shared,
            status,
            queue_cap,
        }
    }

    /// Live retry/drop counters, shareable with a health state machine.
    pub fn status(&self) -> Arc<SinkStatus> {
        Arc::clone(&self.status)
    }

    /// Queue one epoch for archiving. Never blocks on disk; when the
    /// queue is full the *oldest* queued epoch is dropped (counted and
    /// logged) so the newest data keeps flowing.
    pub fn submit(&self, snap: Arc<EpochSnapshot>, stats: SegmentStats) {
        let (lock, cvar) = &*self.queue;
        let mut guard = lock
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if guard.closed {
            return;
        }
        while guard.queue.len() >= self.queue_cap.max(1) {
            let Some((old, _, op)) = guard.queue.pop_front() else {
                break;
            };
            self.shared.queue_depth.add(-1);
            self.shared.dropped_total.inc();
            self.status.dropped.fetch_add(1, Ordering::AcqRel);
            self.status.last_drop_op.fetch_max(op, Ordering::AcqRel);
            self.shared.settle_failed(&self.status);
            obs::error!(
                "archive",
                "sink queue full: evicted oldest queued epoch {}",
                old.epoch
            );
        }
        guard.submitted += 1;
        let op = guard.submitted;
        guard.queue.push_back((snap, stats, op));
        self.shared.queue_depth.add(1);
        cvar.notify_one();
    }

    /// Whether the sink has dropped at least one epoch.
    pub fn is_failed(&self) -> bool {
        self.status.dropped() > 0
    }

    /// Close the queue, drain everything already submitted, and join
    /// the thread. Returns the writer (for reuse or inspection) and the
    /// lifetime [`SinkReport`]; if any epoch was dropped the report
    /// comes wrapped in a [`SinkError`] together with the last write
    /// error.
    pub fn finish(mut self) -> std::result::Result<(ArchiveWriter, SinkReport), SinkError> {
        let thread = {
            let (lock, cvar) = &*self.queue;
            let mut guard = lock
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            guard.closed = true;
            cvar.notify_all();
            drop(guard);
            self.thread.take().expect("sink joined twice")
        };
        let (writer, mut report) = match thread.join() {
            Ok(pair) => pair,
            Err(_) => {
                return Err(SinkError {
                    report: SinkReport {
                        written: self.status.committed(),
                        dropped: self.status.dropped().max(1),
                        retries: self.status.retries(),
                    },
                    error: corrupt("archive sink thread panicked"),
                })
            }
        };
        // Queue-overflow evictions happen on the submit side and never
        // reach the thread's report; fold them in from the status.
        report.dropped = self.status.dropped();
        if report.dropped > 0 {
            let error = self
                .shared
                .error
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .take()
                .unwrap_or_else(|| corrupt("epochs evicted from a full sink queue"));
            return Err(SinkError { report, error });
        }
        Ok((writer, report))
    }
}

/// Most epochs one group commit folds into a segment: enough that a
/// backlog costs a sixteenth of the durable writes, small enough that
/// reading one epoch back never decodes more than a few megabytes.
const GROUP_COMMIT_EPOCHS: usize = 16;

/// Longest a sink that has fallen behind waits for a full run before it
/// commits a shorter one. A feed that outruns the disk fills a run in a
/// few milliseconds, so this only ever elapses on a feed that slowed down
/// again; [`finish`](ArchiveSink::finish) cuts it short.
const GROUP_LINGER: Duration = Duration::from_millis(100);

/// Hold the queue until it has a full run, the sink is closed, or
/// [`GROUP_LINGER`] is over. Only a sink that is behind waits here: how
/// many commits a backlog costs is then decided by the backlog (a full
/// run each), not by how long each `fsync` happened to take. Committing
/// whatever is waiting the moment the disk answers cuts the same feed
/// differently on every pass over a disk whose latency wanders, and each
/// commit is work the feed's own threads wait behind on a small box.
fn linger_for_full_run<'a>(
    cvar: &Condvar,
    mut guard: std::sync::MutexGuard<'a, SinkQueue>,
) -> std::sync::MutexGuard<'a, SinkQueue> {
    let deadline = Instant::now() + GROUP_LINGER;
    while guard.queue.len() < GROUP_COMMIT_EPOCHS && !guard.closed {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            break;
        }
        guard = cvar
            .wait_timeout(guard, left)
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .0;
    }
    guard
}

/// Pop the next group commit off the queue: the head and whatever
/// consecutive epochs are already waiting behind it. A sink that keeps up
/// finds one epoch and commits it as before; one that has fallen behind a
/// slow disk finds several and pays that disk once for all of them, so the
/// backlog shrinks instead of growing. A restart backfill re-submits from
/// epoch 0, which ends the run it lands behind.
fn take_run(queue: &mut VecDeque<Queued>) -> Vec<Queued> {
    let mut run: Vec<Queued> = Vec::new();
    while run.len() < GROUP_COMMIT_EPOCHS {
        let chains = match (run.last(), queue.front()) {
            (_, None) => false,
            (None, Some(_)) => true,
            (Some((prev, ..)), Some((next, ..))) => next.epoch == prev.epoch + 1,
        };
        if !chains {
            break;
        }
        run.extend(queue.pop_front());
    }
    run
}

/// `epoch=N` or `epochs=N..=M`: what the log calls a run.
fn run_label(run: &[Queued]) -> String {
    match run {
        [(only, ..)] => format!("epoch={}", only.epoch),
        [(first, ..), .., (last, ..)] => format!("epochs={}..={}", first.epoch, last.epoch),
        [] => String::new(),
    }
}

enum Appended {
    /// This many epochs of the run became durable through this sink
    /// (fresh commit, or adopted as an orphan during a retry reopen); the
    /// archive held the others before the append.
    Committed(u64),
    /// Retry budget exhausted (or unrecoverable chain gap): this many
    /// epochs are lost.
    Dropped(u64, ArchiveError),
}

/// One run through the retry/backoff/reopen cycle.
fn append_supervised(
    writer: &mut ArchiveWriter,
    run: &[Queued],
    cfg: &SinkConfig,
    shared: &SinkShared,
    status: &SinkStatus,
) -> Appended {
    let borrowed: Vec<(&EpochSnapshot, &SegmentStats)> = run
        .iter()
        .map(|(snap, stats, _)| (&**snap, stats))
        .collect();
    // What the archive does not hold yet is what this append commits or
    // loses, however many attempts it takes.
    let fresh = fresh_of(writer, run).len() as u64;
    match writer.append_epochs(&borrowed) {
        Ok(_) => Appended::Committed(fresh),
        Err(first) => {
            // A chain gap is permanent until a restart backfill: no
            // amount of retrying lets epoch N+2 append over a missing
            // N+1. Fast-drop instead of burning the retry budget.
            if is_chain_gap(writer, run) {
                return Appended::Dropped(fresh, first);
            }
            let label = run_label(run);
            let mut last_err = first;
            let mut committed = false;
            status.retrying.store(true, Ordering::Release);
            shared.retrying_gauge.set(1);
            for attempt in 1..=cfg.max_retries {
                let backoff = backoff_for(cfg, attempt);
                obs::warn!(
                    "archive",
                    "retrying {label} attempt={attempt} backoff_ms={} error={last_err}",
                    backoff.as_millis()
                );
                shared.retries_total.inc();
                status.retries.fetch_add(1, Ordering::AcqRel);
                std::thread::sleep(backoff);
                // Reopen re-runs recovery: if the segment committed but
                // the manifest write failed, the orphan is adopted and
                // the retry below finds the run already held — durable,
                // so it counts as written.
                if let Err(e) = writer.reopen() {
                    last_err = e;
                    continue;
                }
                match writer.append_epochs(&borrowed) {
                    Ok(_) => {
                        committed = true;
                        break;
                    }
                    Err(e) => {
                        if is_chain_gap(writer, run) {
                            break;
                        }
                        last_err = e;
                    }
                }
            }
            status.retrying.store(false, Ordering::Release);
            shared.retrying_gauge.set(0);
            if committed {
                Appended::Committed(fresh)
            } else {
                Appended::Dropped(fresh, last_err)
            }
        }
    }
}

/// The epochs of `run` the archive does not hold yet: all but a leading
/// stretch, since a run ascends.
fn fresh_of<'a>(writer: &ArchiveWriter, run: &'a [Queued]) -> &'a [Queued] {
    let held = run
        .iter()
        .take_while(|(snap, ..)| writer.last_epoch().is_some_and(|last| snap.epoch <= last))
        .count();
    &run[held..]
}

/// Whether `run` can never chain onto the writer's committed range (an
/// earlier epoch was dropped, leaving a permanent gap).
fn is_chain_gap(writer: &ArchiveWriter, run: &[Queued]) -> bool {
    let expected = writer.last_epoch().map_or(0, |last| last + 1);
    fresh_of(writer, run)
        .first()
        .is_some_and(|(next, ..)| next.epoch != expected)
}

/// Exponential backoff for the `attempt`-th retry (1-based), capped.
fn backoff_for(cfg: &SinkConfig, attempt: u32) -> Duration {
    let factor = 1u32 << (attempt - 1).min(16);
    cfg.backoff_base
        .checked_mul(factor)
        .map_or(cfg.backoff_cap, |d| d.min(cfg.backoff_cap))
}

impl Drop for ArchiveSink {
    fn drop(&mut self) {
        let (lock, cvar) = &*self.queue;
        if let Ok(mut guard) = lock.lock() {
            guard.closed = true;
        }
        cvar.notify_all();
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}
