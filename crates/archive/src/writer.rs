//! Appending epochs to an archive, one segment per append.
//!
//! The writer's commit protocol is the inverse of the reader's recovery:
//! segment bytes first (temp + fsync + rename), manifest second (same
//! dance). A crash between the two leaves an orphan segment the next
//! [`Archive::open`](crate::archive::Archive::open) adopts; a crash
//! during either write leaves a `*.tmp` that is swept. An append of a run
//! of epochs is one segment under one manifest commit; the
//! [`ArchiveSink`](crate::sink::ArchiveSink) uses it to group-commit a
//! backlog off the ingest thread.
//!
//! The writer reads only what a sealed snapshot holds, immutable columns
//! behind `Arc`s: the archived ASN table comes from the epoch's own
//! Asn-sorted `(asn, id)` table, not from the pipeline's interner, so
//! nothing the pipeline interns after the seal can reach a segment.
//!
//! An epoch's provenance timeline is persisted as a Trace frame when the
//! trace store of the writer's registry holds one for it: the writer
//! closes it with the `archive` row and writes what the store then
//! serves. A writer on a registry that traced nothing (a private one,
//! or one no publisher records on) writes no Trace frame.

use crate::archive::Archive;
use crate::frame::{corrupt, Result};
use crate::manifest::{segment_file_name, IoShim, Manifest, ManifestEntry, RealIo, MANIFEST_FILE};
use crate::segment::{DecodeFilter, EpochFrames, EpochMeta, SegmentBuilder, SegmentStats};
use bgp_infer::compiled::DenseOutcome;
use bgp_stream::epoch::EpochSnapshot;
use bgp_types::asn::Asn;
use obs::{Counter, ObsRegistry};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

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
    /// [`registry`](ArchiveWriter::registry)), and whose trace store
    /// holds the timelines its epochs persist.
    obs: Arc<ObsRegistry>,
    /// Instruments resolved once at open: committed segment count and
    /// payload bytes (both paths, sync and sink).
    segments_appended: Arc<Counter>,
    bytes_written: Arc<Counter>,
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
            last_attempt: (u64::MAX, 0),
        })
    }

    /// The registry this writer records on, and an
    /// [`ArchiveSink`](crate::sink::ArchiveSink) spawned on it too.
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
        let attempted = Instant::now();
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
            // Close the epoch's provenance timeline, if one was traced: the
            // archive stage spans from the end of the last pipeline stage to
            // this commit attempt, and a retry replaces the row with a bumped
            // attempt count — so the persisted frame always equals what the
            // store serves live.
            let trace = self
                .obs
                .traces()
                .close_archive(snap.epoch, attempted, attempts);
            builder.push_epoch(&EpochFrames {
                meta,
                interner_base: interner_written,
                interner_delta: delta,
                counters: Some(&dense.counters),
                classes: &snap.classes,
                flips: Some(&snap.flips),
                stats,
                trace,
            });
            interner_written = seal_len;
        }
        self.last_attempt = (last_epoch, attempts);
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
