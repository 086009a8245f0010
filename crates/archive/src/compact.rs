//! Manifest-driven compaction: merge aged segments and slim them down.
//!
//! The writer appends one segment per epoch (per run of epochs, when the
//! sink works off a backlog), which is ideal for commit
//! latency and terrible for a month-old archive: thousands of files,
//! each restarting its deltas from an empty base, so each repeats every
//! non-zero counter row and every class of its first epoch. Compaction
//! rewrites every segment wholly outside the retention window into a
//! single merged segment that keeps what history queries need (epoch
//! meta, interner deltas, class tables, ingest stats) and drops what they
//! don't (the counter columns, and flip chunks beyond the window). The
//! merged segment is one delta chain: after its first epoch, a class
//! table costs only the rows that changed. The manifest
//! rewrite is the commit point: a crash anywhere leaves either the old
//! manifest (merged file is an inert orphan, never adopted because it
//! does not chain onto the committed tail) or the new one (retired files
//! are garbage, deleted best-effort on this and any later compaction).

use crate::archive::Archive;
use crate::frame::Result;
use crate::manifest::{segment_file_name, write_atomic, Manifest, ManifestEntry};
use crate::segment::{DecodeFilter, EpochFrames, SegmentBuilder};
use std::fs;
use std::path::Path;

/// What one compaction pass did.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct CompactReport {
    /// Segment files before the pass.
    pub segments_before: usize,
    /// Segment files after the pass.
    pub segments_after: usize,
    /// Committed bytes before the pass.
    pub bytes_before: u64,
    /// Committed bytes after the pass.
    pub bytes_after: u64,
    /// Epochs rewritten into the merged segment.
    pub epochs_merged: u64,
    /// Counter columns dropped.
    pub counters_dropped: u64,
    /// Flip chunks dropped.
    pub flips_dropped: u64,
}

/// Compact `dir`, keeping the last `keep_full` epochs untouched (full
/// counters + flips). Epochs older than that are merged into one slim
/// segment. Must not run concurrently with a live writer on the same
/// directory. Returns `None` when there is nothing to merge (fewer than
/// two segments wholly outside the retention window).
pub fn compact(dir: &Path, keep_full: u64) -> Result<Option<CompactReport>> {
    let archive = Archive::open(dir)?;
    let manifest = archive.manifest();
    let Some(last_epoch) = manifest.last_epoch() else {
        return Ok(None);
    };
    let cutoff = (last_epoch + 1).saturating_sub(keep_full);

    // Only segments wholly before the cutoff are merged; a window edge
    // inside a segment leaves that segment alone until it ages out.
    let prefix: Vec<ManifestEntry> = manifest
        .entries
        .iter()
        .take_while(|e| e.last_epoch < cutoff)
        .cloned()
        .collect();
    if prefix.len() < 2 {
        return Ok(None);
    }

    let mut report = CompactReport {
        segments_before: manifest.entries.len(),
        bytes_before: manifest.entries.iter().map(|e| e.bytes).sum(),
        ..CompactReport::default()
    };

    let mut builder = SegmentBuilder::new();
    for entry in &prefix {
        for ep in archive.read_segment(entry, DecodeFilter::all())? {
            if ep.has_counters {
                report.counters_dropped += 1;
            }
            if ep.has_flips {
                report.flips_dropped += 1;
            }
            report.epochs_merged += 1;
            builder.push_epoch(&EpochFrames {
                meta: ep.meta,
                interner_base: ep.interner_base,
                interner_delta: &ep.interner_delta,
                counters: None,
                classes: &ep.classes,
                flips: None,
                stats: &ep.stats,
                trace: ep.trace,
            });
        }
    }
    let (first_epoch, merged_last) = builder.epoch_range().expect("prefix is non-empty");
    let (bytes, checksum) = builder.finish();

    let file = segment_file_name(manifest.next_seq());
    write_atomic(dir, &file, &bytes)?;

    let mut entries = vec![ManifestEntry {
        file,
        first_epoch,
        last_epoch: merged_last,
        bytes: bytes.len() as u64,
        checksum,
    }];
    entries.extend(manifest.entries.iter().skip(prefix.len()).cloned());
    let new_manifest = Manifest { entries };
    new_manifest.store(dir)?; // commit point

    // Retired files are garbage now; removal is best-effort.
    for entry in &prefix {
        let _ = fs::remove_file(dir.join(&entry.file));
    }

    report.segments_after = new_manifest.entries.len();
    report.bytes_after = new_manifest.entries.iter().map(|e| e.bytes).sum();
    Ok(Some(report))
}
