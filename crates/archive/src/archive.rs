//! Opening, recovering, and reading an archive directory.
//!
//! [`Archive::open`] is the crash-recovery entry point. It never trusts
//! the directory: stale `*.tmp` files are swept, the manifest tail is
//! re-verified against the actual segment bytes (popping entries whose
//! segment is torn or missing until a verified tail remains), and a
//! fully-written segment that crashed *between* its rename and the
//! manifest commit is adopted back if it chains onto the committed
//! epochs. After `open`, the manifest on disk and in memory agree and
//! every committed byte has been checksummed at least once.

use crate::frame::{corrupt, ArchiveError, Result};
use crate::manifest::{segment_seq, sweep_tmp_files, Manifest, ManifestEntry};
use crate::segment::{decode_segment, segment_extent, ArchivedEpoch, DecodeFilter, EpochMeta};
use bgp_infer::classify::Class;
use bgp_stream::epoch::ClassFlip;
use bgp_types::asn::Asn;
use std::fs;
use std::path::{Path, PathBuf};

/// A recovered, readable archive directory.
#[derive(Debug)]
pub struct Archive {
    dir: PathBuf,
    manifest: Manifest,
}

/// What [`Archive::verify`] found.
#[derive(Debug, Default)]
pub struct VerifyReport {
    /// Segments checked.
    pub segments: usize,
    /// Epochs decoded across all segments.
    pub epochs: u64,
    /// Total committed bytes.
    pub bytes: u64,
    /// Human-readable problems; empty means the archive is sound.
    pub problems: Vec<String>,
}

impl VerifyReport {
    /// Whether verification passed.
    pub fn is_ok(&self) -> bool {
        self.problems.is_empty()
    }
}

/// Read and fully decode one committed segment, enforcing the size and
/// checksum the manifest recorded. Extra bytes past `entry.bytes` are
/// ignored (an interrupted overwrite can only *append* garbage after a
/// rename, never shorten the committed prefix).
fn read_entry(
    dir: &Path,
    entry: &ManifestEntry,
    filter: DecodeFilter,
) -> Result<Vec<ArchivedEpoch>> {
    let path = dir.join(&entry.file);
    let bytes = fs::read(&path)?;
    if (bytes.len() as u64) < entry.bytes {
        return Err(corrupt(format!(
            "{}: {} bytes on disk, manifest committed {}",
            entry.file,
            bytes.len(),
            entry.bytes
        )));
    }
    let bytes = &bytes[..entry.bytes as usize];
    let epochs = decode_segment(bytes, filter)?;
    match (epochs.first(), epochs.last()) {
        (Some(first), Some(last))
            if first.meta.epoch == entry.first_epoch && last.meta.epoch == entry.last_epoch => {}
        _ => {
            return Err(corrupt(format!(
                "{}: epoch range on disk disagrees with manifest {}..={}",
                entry.file, entry.first_epoch, entry.last_epoch
            )))
        }
    }
    Ok(epochs)
}

impl Archive {
    /// Open `dir`, creating it if absent, and run crash recovery. The
    /// returned archive's manifest matches what `dir` now contains.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Archive> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        sweep_tmp_files(&dir)?;
        let mut manifest = Manifest::load(&dir)?;
        let mut dirty = false;

        // Pop torn or missing tail segments until the tail verifies. A
        // crash can only damage the most recent write, but popping in a
        // loop also digs out of multi-fault states (e.g. a truncated
        // segment *and* a stale manifest).
        while let Some(entry) = manifest.entries.last() {
            match read_entry(&dir, entry, DecodeFilter::all()) {
                Ok(_) => break,
                Err(ArchiveError::Io(e)) if e.kind() != std::io::ErrorKind::NotFound => {
                    return Err(ArchiveError::Io(e))
                }
                Err(_) => {
                    manifest.entries.pop();
                    dirty = true;
                }
            }
        }

        // Adopt fully-written segments that crashed before their
        // manifest commit: they must decode cleanly and chain directly
        // onto the committed epoch range.
        let mut orphans: Vec<(u64, String)> = Vec::new();
        for item in fs::read_dir(&dir)? {
            let name = item?.file_name().to_string_lossy().into_owned();
            if let Some(seq) = segment_seq(&name) {
                if !manifest.entries.iter().any(|e| e.file == name) {
                    orphans.push((seq, name));
                }
            }
        }
        orphans.sort();
        for (_, name) in orphans {
            let path = dir.join(&name);
            let Ok(bytes) = fs::read(&path) else { continue };
            let Ok((total_len, checksum)) = segment_extent(&bytes) else {
                continue;
            };
            let Ok(epochs) = decode_segment(&bytes[..total_len], DecodeFilter::all()) else {
                continue;
            };
            let (Some(first), Some(last)) = (epochs.first(), epochs.last()) else {
                continue;
            };
            let chains = match manifest.last_epoch() {
                Some(last_committed) => first.meta.epoch == last_committed + 1,
                None => first.meta.epoch == 0,
            };
            if !chains {
                continue;
            }
            manifest.entries.push(ManifestEntry {
                file: name,
                first_epoch: first.meta.epoch,
                last_epoch: last.meta.epoch,
                bytes: total_len as u64,
                checksum,
            });
            dirty = true;
        }

        manifest.validate()?;
        if dirty {
            manifest.store(&dir)?;
        }
        Ok(Archive { dir, manifest })
    }

    /// The archive directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The committed manifest.
    pub fn manifest(&self) -> &Manifest {
        &self.manifest
    }

    /// Re-read the manifest from disk, picking up segments committed by
    /// a concurrent writer since `open`. Never pops entries: a reader
    /// refresh must not fight the writer's commit protocol.
    pub fn refresh(&mut self) -> Result<bool> {
        let fresh = Manifest::load(&self.dir)?;
        if fresh.entries.len() != self.manifest.entries.len() || fresh != self.manifest {
            self.manifest = fresh;
            return Ok(true);
        }
        Ok(false)
    }

    /// Decode the segment holding `epoch` and return that epoch.
    pub fn load_epoch(&self, epoch: u64, filter: DecodeFilter) -> Result<ArchivedEpoch> {
        let entry = self
            .manifest
            .entry_for_epoch(epoch)
            .ok_or_else(|| corrupt(format!("epoch {epoch} is not in the archive")))?;
        let epochs = read_entry(&self.dir, entry, filter)?;
        epochs
            .into_iter()
            .find(|e| e.meta.epoch == epoch)
            .ok_or_else(|| corrupt(format!("epoch {epoch} missing from {}", entry.file)))
    }

    /// Read and decode one committed segment, enforcing the manifest's
    /// size and checksum.
    pub fn read_segment(
        &self,
        entry: &ManifestEntry,
        filter: DecodeFilter,
    ) -> Result<Vec<ArchivedEpoch>> {
        read_entry(&self.dir, entry, filter)
    }

    /// Decode every retained epoch in order.
    pub fn read_all(&self, filter: DecodeFilter) -> Result<Vec<ArchivedEpoch>> {
        let mut out = Vec::new();
        for entry in &self.manifest.entries {
            out.extend(read_entry(&self.dir, entry, filter)?);
        }
        Ok(out)
    }

    /// The headers of every retained epoch, in order (cheap scan — the
    /// heavyweight frames are skipped, not parsed).
    pub fn epoch_metas(&self) -> Result<Vec<EpochMeta>> {
        let filter = DecodeFilter {
            counters: false,
            classes: false,
            flips: false,
            trace: false,
        };
        Ok(self.read_all(filter)?.into_iter().map(|e| e.meta).collect())
    }

    /// The full interner table (ASN per id, in id order) as of `epoch`:
    /// the concatenation of every retained delta up to and including
    /// that epoch. Errors if the archive's first retained epoch has a
    /// non-zero base (compaction never drops interner deltas, so this
    /// only happens on a foreign or hand-edited archive).
    pub fn interner_upto(&self, epoch: u64) -> Result<Vec<Asn>> {
        let filter = DecodeFilter {
            counters: false,
            classes: false,
            flips: false,
            trace: false,
        };
        let mut table: Vec<Asn> = Vec::new();
        for entry in &self.manifest.entries {
            if entry.first_epoch > epoch {
                break;
            }
            for ep in read_entry(&self.dir, entry, filter)? {
                if ep.meta.epoch > epoch {
                    break;
                }
                if ep.interner_base as usize != table.len() {
                    return Err(corrupt(format!(
                        "epoch {} interner base {} does not extend accumulated table of {}",
                        ep.meta.epoch,
                        ep.interner_base,
                        table.len()
                    )));
                }
                table.extend(ep.interner_delta);
            }
        }
        Ok(table)
    }

    /// Per-epoch class of `asn` across every retained epoch: `None`
    /// where the AS had no observed class that epoch.
    pub fn class_trajectory(&self, asn: Asn) -> Result<Vec<(u64, Option<Class>)>> {
        let mut out = Vec::new();
        for entry in &self.manifest.entries {
            for ep in read_entry(&self.dir, entry, DecodeFilter::classes_only())? {
                let class = ep
                    .classes
                    .binary_search_by_key(&asn, |&(a, _)| a)
                    .ok()
                    .map(|i| ep.classes[i].1);
                out.push((ep.meta.epoch, class));
            }
        }
        Ok(out)
    }

    /// Flip chunks of the retained epochs that still carry a flips
    /// frame, in epoch order (compaction drops old flip frames, so this
    /// is a suffix of the archive).
    pub fn flip_chunks(&self) -> Result<Vec<(u64, Vec<ClassFlip>)>> {
        let mut out = Vec::new();
        for ep in self.read_all(DecodeFilter::flips_only())? {
            if let Some(flips) = ep.flips {
                out.push((ep.meta.epoch, flips));
            }
        }
        Ok(out)
    }

    /// Exhaustively verify every committed segment: checksums, framing,
    /// manifest agreement, epoch contiguity, and interner continuity.
    pub fn verify(&self) -> VerifyReport {
        let mut report = VerifyReport::default();
        let mut expect_epoch = self.manifest.first_epoch();
        let mut interner_len: Option<usize> = None;
        for entry in &self.manifest.entries {
            report.segments += 1;
            report.bytes += entry.bytes;
            let epochs = match read_entry(&self.dir, entry, DecodeFilter::all()) {
                Ok(eps) => eps,
                Err(e) => {
                    report.problems.push(format!("{}: {e}", entry.file));
                    continue;
                }
            };
            for ep in &epochs {
                report.epochs += 1;
                if Some(ep.meta.epoch) != expect_epoch {
                    report.problems.push(format!(
                        "{}: epoch {} out of sequence (expected {:?})",
                        entry.file, ep.meta.epoch, expect_epoch
                    ));
                }
                expect_epoch = Some(ep.meta.epoch + 1);
                match interner_len {
                    None => interner_len = Some(ep.interner_len()),
                    Some(len) => {
                        if ep.interner_base as usize != len {
                            report.problems.push(format!(
                                "{}: epoch {} interner base {} != accumulated {}",
                                entry.file, ep.meta.epoch, ep.interner_base, len
                            ));
                        }
                        interner_len = Some(ep.interner_len());
                    }
                }
            }
        }
        report
    }
}
