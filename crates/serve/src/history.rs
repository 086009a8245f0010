//! Time-travel serving: lazily materialized historical epochs.
//!
//! A [`HistoryStore`] wraps the epoch archive the daemon is writing and
//! answers three questions the live snapshot cannot: *what epochs
//! exist* (`/v1/epochs`), *what did the world look like at epoch N*
//! (`/v1/class/{asn}?epoch=N`), and *how did one AS's class evolve*
//! (`/v1/history/{asn}`).
//!
//! Historical epochs are rebuilt on demand through
//! [`rebuild_snapshot`] and kept in a
//! small LRU — rebuilding walks segment files, sorts the id table and
//! slices the record table, so repeated queries against the same epoch
//! must not pay that twice. The store re-reads the manifest (cheap: one small text file)
//! whenever a request mentions an epoch it does not know yet, so a
//! long-lived reader keeps up with the concurrent writer without any
//! channel between them.

use crate::restore::rebuild_snapshot;
use crate::snapshot::ServeSnapshot;
use bgp_archive::prelude::*;
use bgp_infer::classify::Class;
use bgp_types::asn::Asn;
use std::path::Path;
use std::sync::{Arc, Mutex};

/// How many rebuilt historical snapshots a [`HistoryStore`] retains.
pub const DEFAULT_CACHE_CAPACITY: usize = 8;

struct HistoryInner {
    archive: Archive,
    /// `(epoch, snapshot)` in least-recently-used order (front evicts
    /// first).
    cache: Vec<(u64, Arc<ServeSnapshot>)>,
}

/// Concurrent, lazily-caching reader over the epoch archive.
pub struct HistoryStore {
    inner: Mutex<HistoryInner>,
    flip_log_cap: usize,
}

impl std::fmt::Debug for HistoryStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HistoryStore")
            .field("flip_log_cap", &self.flip_log_cap)
            .finish_non_exhaustive()
    }
}

impl HistoryStore {
    /// Open the archive at `dir` for historical reads, caching up to
    /// [`DEFAULT_CACHE_CAPACITY`] rebuilt epochs. `flip_log_cap` should
    /// match the daemon's live cap so rebuilt snapshots carry the log a
    /// live publisher would have held.
    pub fn open(dir: &Path, flip_log_cap: usize) -> Result<HistoryStore> {
        Ok(HistoryStore {
            inner: Mutex::new(HistoryInner {
                archive: Archive::open(dir)?,
                cache: Vec::new(),
            }),
            flip_log_cap,
        })
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, HistoryInner> {
        // Recover a poisoned lock rather than panic: the cache is a
        // plain Vec of `Arc`s and the archive reader re-validates on
        // refresh, so a panicking request can't leave torn state that
        // would make recovery unsound.
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Every retained epoch's header, in order, after picking up any
    /// segments the writer committed since the last call.
    pub fn epochs(&self) -> Result<Vec<EpochMeta>> {
        let mut inner = self.lock();
        inner.archive.refresh()?;
        inner.archive.epoch_metas()
    }

    /// Materialize epoch `epoch` as a full [`ServeSnapshot`], or `None`
    /// when the archive does not retain it. Cached; an epoch beyond the
    /// known range triggers a manifest refresh first.
    pub fn snapshot_at(&self, epoch: u64) -> Result<Option<Arc<ServeSnapshot>>> {
        let mut inner = self.lock();
        if let Some(pos) = inner.cache.iter().position(|&(e, _)| e == epoch) {
            let hit = inner.cache.remove(pos);
            let snap = Arc::clone(&hit.1);
            inner.cache.push(hit);
            return Ok(Some(snap));
        }
        if inner.archive.manifest().entry_for_epoch(epoch).is_none() {
            inner.archive.refresh()?;
            if inner.archive.manifest().entry_for_epoch(epoch).is_none() {
                return Ok(None);
            }
        }
        let snap = Arc::new(rebuild_snapshot(&inner.archive, epoch, self.flip_log_cap)?);
        inner.cache.push((epoch, Arc::clone(&snap)));
        while inner.cache.len() > DEFAULT_CACHE_CAPACITY {
            inner.cache.remove(0);
        }
        Ok(Some(snap))
    }

    /// The provenance trace persisted with epoch `epoch`, or `None`
    /// when the archive does not retain that epoch (or it was written
    /// without tracing). Trace frames are tiny, so these reads skip the
    /// snapshot cache entirely.
    pub fn trace_at(&self, epoch: u64) -> Result<Option<obs::trace::EpochTrace>> {
        let mut inner = self.lock();
        if inner.archive.manifest().entry_for_epoch(epoch).is_none() {
            inner.archive.refresh()?;
            if inner.archive.manifest().entry_for_epoch(epoch).is_none() {
                return Ok(None);
            }
        }
        let archived = inner
            .archive
            .load_epoch(epoch, DecodeFilter::trace_only())?;
        Ok(archived.trace)
    }

    /// Per-epoch class of `asn` across every retained epoch (`None`
    /// where the AS had no class that epoch).
    pub fn trajectory(&self, asn: Asn) -> Result<Vec<(u64, Option<Class>)>> {
        let mut inner = self.lock();
        inner.archive.refresh()?;
        inner.archive.class_trajectory(asn)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgp_stream::epoch::EpochPolicy;
    use bgp_stream::ingest::StreamEvent;
    use bgp_stream::pipeline::{StreamConfig, StreamPipeline};
    use bgp_types::prelude::*;

    fn tmp_dir(tag: &str) -> std::path::PathBuf {
        static N: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let n = N.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        std::env::temp_dir().join(format!("bgp-history-{tag}-{}-{n}", std::process::id()))
    }

    fn tag_tuple(p: &[u32], uppers: &[u32]) -> PathCommTuple {
        PathCommTuple::new(
            path(p),
            CommunitySet::from_iter(uppers.iter().map(|&u| AnyCommunity::tag_for(Asn(u), 100))),
        )
    }

    fn archived_world(dir: &Path, epochs: u64) -> Vec<Arc<bgp_stream::epoch::EpochSnapshot>> {
        let mut pipe = StreamPipeline::new(StreamConfig {
            shards: 2,
            epoch: EpochPolicy::every_events(2),
            ..Default::default()
        });
        for i in 0..epochs * 2 {
            let origin = 9000 + (i % 3) as u32;
            pipe.push(StreamEvent::new(i, tag_tuple(&[origin, 7, 9], &[7])));
        }
        let out = pipe.finish();
        let mut writer = ArchiveWriter::open(dir).unwrap();
        for snap in &out.snapshots {
            writer.append_epoch(snap, &SegmentStats::default()).unwrap();
        }
        out.snapshots
    }

    #[test]
    fn snapshot_at_matches_live_epochs_and_caches() {
        let dir = tmp_dir("at");
        // More epochs than the cache holds, so reading them all evicts.
        let snaps = archived_world(&dir, DEFAULT_CACHE_CAPACITY as u64 + 2);
        let store = HistoryStore::open(&dir, 1024).unwrap();
        assert_eq!(store.epochs().unwrap().len(), snaps.len());
        let first = store.snapshot_at(0).unwrap().unwrap();
        for live in &snaps {
            let hist = store.snapshot_at(live.epoch).unwrap().unwrap();
            assert_eq!(hist.epoch_id(), Some(live.epoch));
            assert_eq!(hist.version(), live.version);
            for &(asn, class) in live.classes.iter() {
                assert_eq!(hist.class_of(asn), class);
            }
        }
        // Cache hit returns the same Arc.
        let last = snaps.last().unwrap().epoch;
        let a = store.snapshot_at(last).unwrap().unwrap();
        let b = store.snapshot_at(last).unwrap().unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        // The least recently used epoch was evicted and is rebuilt.
        let again = store.snapshot_at(0).unwrap().unwrap();
        assert!(!Arc::ptr_eq(&first, &again));
        assert_eq!(again.records, first.records);
        // Beyond the archive: None, not an error.
        assert!(store.snapshot_at(last + 10).unwrap().is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn trajectory_matches_per_epoch_classes() {
        let dir = tmp_dir("traj");
        let snaps = archived_world(&dir, 3);
        let store = HistoryStore::open(&dir, 1024).unwrap();
        let asn = Asn(7);
        let traj = store.trajectory(asn).unwrap();
        assert_eq!(traj.len(), snaps.len());
        for (i, live) in snaps.iter().enumerate() {
            let expect = live
                .classes
                .binary_search_by_key(&asn, |&(a, _)| a)
                .ok()
                .map(|j| live.classes[j].1);
            assert_eq!(traj[i], (live.epoch, expect));
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn refresh_sees_epochs_committed_after_open() {
        let dir = tmp_dir("refresh");
        let first = archived_world(&dir, 2);
        let store = HistoryStore::open(&dir, 1024).unwrap();
        let last = first.last().unwrap().epoch;
        assert!(store.snapshot_at(last).unwrap().is_some());

        // A second writer extends the archive; the store picks the new
        // epoch up on demand without reopening.
        let mut pipe = StreamPipeline::new(StreamConfig {
            shards: 2,
            epoch: EpochPolicy::every_events(2),
            ..Default::default()
        });
        for i in 0..(last + 2) * 2 {
            let origin = 9000 + (i % 3) as u32;
            pipe.push(StreamEvent::new(i, tag_tuple(&[origin, 7, 9], &[7])));
        }
        let out = pipe.finish();
        let mut writer = ArchiveWriter::open(&dir).unwrap();
        for snap in &out.snapshots {
            writer.append_epoch(snap, &SegmentStats::default()).unwrap();
        }
        let new_last = out.snapshots.last().unwrap().epoch;
        assert!(new_last > last);
        assert!(store.snapshot_at(new_last).unwrap().is_some());
        let epochs: Vec<u64> = store.epochs().unwrap().iter().map(|m| m.epoch).collect();
        assert_eq!(epochs, (0..=new_last).collect::<Vec<u64>>());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
