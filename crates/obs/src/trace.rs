//! Per-epoch provenance traces.
//!
//! A [`TraceStore`] collects, for every sealed epoch, a timeline of the
//! stages that produced it — ingest batches, per-shard counting, the
//! merge, the seal itself, the snapshot publish, and the archive append
//! — each with a start offset relative to the first recorded stage, a
//! wall-clock duration, and a small bag of named counters. The daemon
//! serves the timeline at `/v1/debug/epoch/{N}/trace` and persists it
//! as an optional archive frame, so "where did this epoch come from and
//! what did it cost" survives a restart and time-travels with the rest
//! of the archive.
//!
//! Each [`ObsRegistry`](crate::ObsRegistry) owns one store, so every
//! layer records on the store of the registry it already records its
//! histograms on. The store reads no clock: each row is handed the
//! instant its stage started (or, for the archive row, ended), so a row
//! is dated where its stage ran, not where it was written down.
//!
//! Concurrency follows the workspace's writer-owned discipline: the
//! single ingest/seal thread records, readers clone finished timelines
//! out from under a short mutex. The store is bounded — old epochs are
//! evicted front-first past [`CAPACITY`] (the archive frame is the
//! durable copy).

use std::collections::VecDeque;
use std::sync::Mutex;
use std::time::Instant;

/// Epochs a store retains.
pub const CAPACITY: usize = 256;

/// One stage of an epoch's timeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceStage {
    /// Stage name (`ingest`, `shard_count`, `shard_merge`, `seal`,
    /// `publish`, `archive`).
    pub stage: String,
    /// Nanoseconds from the epoch's first recorded stage to this
    /// stage's start.
    pub start_offset_nanos: u64,
    /// Stage wall time in nanoseconds (accumulated stages sum their
    /// batches; parallel shard counting sums CPU time across shards).
    pub duration_nanos: u64,
    /// Stage-specific counters (`events`, `tuples`, `attempt`, …).
    pub counters: Vec<(String, u64)>,
}

impl TraceStage {
    fn new(
        stage: &str,
        start_offset_nanos: u64,
        duration_nanos: u64,
        counters: &[(&str, u64)],
    ) -> Self {
        TraceStage {
            stage: stage.to_string(),
            start_offset_nanos,
            duration_nanos,
            counters: counters.iter().map(|&(k, v)| (k.to_string(), v)).collect(),
        }
    }
}

/// A finished (or in-flight) epoch timeline: every recorded stage in
/// the order it was recorded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EpochTrace {
    /// The epoch this timeline belongs to.
    pub epoch: u64,
    /// Stages, in the order they were recorded.
    pub stages: Vec<TraceStage>,
}

/// One epoch's in-flight trace plus the instant offsets anchor to.
#[derive(Debug)]
struct TraceEntry {
    /// The instant of the first recorded stage's start; later stages
    /// measure their offset against it.
    base: Instant,
    trace: EpochTrace,
}

impl TraceEntry {
    /// Nanoseconds from `base` to `at` (0 for an instant before it).
    fn offset(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.base).as_nanos() as u64
    }
}

/// Bounded store of per-epoch provenance timelines.
#[derive(Debug, Default)]
pub struct TraceStore {
    entries: Mutex<VecDeque<TraceEntry>>,
}

impl TraceStore {
    /// A store retaining the last [`CAPACITY`] epochs.
    pub fn new() -> TraceStore {
        TraceStore::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, VecDeque<TraceEntry>> {
        self.entries
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Record one completed stage that began at `started` and took
    /// `duration_nanos`. The first stage recorded for an epoch anchors
    /// the timeline (its start is offset 0); later stages are offset
    /// against it. A stage name recorded twice appends a second row.
    pub fn record(
        &self,
        epoch: u64,
        stage: &str,
        started: Instant,
        duration_nanos: u64,
        counters: &[(&str, u64)],
    ) {
        self.push(epoch, stage, started, duration_nanos, counters, false);
    }

    /// Like [`record`](Self::record), but a repeated stage name merges
    /// into the existing row: durations and same-named counters sum,
    /// the first start offset is kept. Used for per-batch ingest, where
    /// one epoch sees many batches.
    pub fn accumulate(
        &self,
        epoch: u64,
        stage: &str,
        started: Instant,
        duration_nanos: u64,
        counters: &[(&str, u64)],
    ) {
        self.push(epoch, stage, started, duration_nanos, counters, true);
    }

    /// Find-or-create `epoch`'s entry (a new one anchored at `started`,
    /// evicting the oldest past [`CAPACITY`]) and add the row, merged
    /// into a same-named one when `merge`.
    fn push(
        &self,
        epoch: u64,
        stage: &str,
        started: Instant,
        duration_nanos: u64,
        counters: &[(&str, u64)],
        merge: bool,
    ) {
        let mut entries = self.lock();
        let at = match entries.iter().rposition(|e| e.trace.epoch == epoch) {
            Some(at) => at,
            None => {
                entries.push_back(TraceEntry {
                    base: started,
                    trace: EpochTrace {
                        epoch,
                        stages: Vec::new(),
                    },
                });
                if entries.len() > CAPACITY {
                    entries.pop_front();
                }
                entries.len() - 1
            }
        };
        let entry = &mut entries[at];
        let stages = &mut entry.trace.stages;
        if let Some(existing) = stages.iter_mut().find(|s| merge && s.stage == stage) {
            existing.duration_nanos += duration_nanos;
            for &(k, v) in counters {
                match existing.counters.iter_mut().find(|(ek, _)| ek == k) {
                    Some((_, ev)) => *ev += v,
                    None => existing.counters.push((k.to_string(), v)),
                }
            }
            return;
        }
        let row = TraceStage::new(stage, entry.offset(started), duration_nanos, counters);
        entry.trace.stages.push(row);
    }

    /// Close `epoch`'s timeline with `stage`, spanning from the end of
    /// the last other stage to `ended` and replacing any row of the same
    /// name, and return the timeline. Used for the archive append, whose
    /// duration includes queueing and retries and is only known at
    /// commit time — a sink retry re-records the stage with the final
    /// attempt count. Records nothing and returns `None` when the store
    /// holds no timeline for `epoch`.
    pub fn record_since_last(
        &self,
        epoch: u64,
        stage: &str,
        ended: Instant,
        counters: &[(&str, u64)],
    ) -> Option<EpochTrace> {
        let mut entries = self.lock();
        let entry = entries.iter_mut().rfind(|e| e.trace.epoch == epoch)?;
        let end = entry.offset(ended);
        let stages = &mut entry.trace.stages;
        let last_end = stages
            .iter()
            .filter(|s| s.stage != stage)
            .map(|s| s.start_offset_nanos + s.duration_nanos)
            .max()
            .unwrap_or(0)
            .min(end);
        let row = TraceStage::new(stage, last_end, end - last_end, counters);
        match stages.iter_mut().find(|s| s.stage == stage) {
            Some(existing) => *existing = row,
            None => stages.push(row),
        }
        Some(entry.trace.clone())
    }

    /// The timeline recorded for `epoch`, if still retained.
    pub fn get(&self, epoch: u64) -> Option<EpochTrace> {
        let entries = self.lock();
        let entry = entries.iter().rfind(|e| e.trace.epoch == epoch)?;
        Some(entry.trace.clone())
    }

    /// Epochs currently retained, oldest first.
    pub fn epochs(&self) -> Vec<u64> {
        self.lock().iter().map(|e| e.trace.epoch).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn ns(n: u64) -> Duration {
        Duration::from_nanos(n)
    }

    #[test]
    fn record_orders_stages_and_offsets() {
        let (t, t0) = (TraceStore::new(), Instant::now());
        t.record(3, "seal", t0, 1_000, &[("events", 10)]);
        t.record(3, "publish", t0 + ns(1_200), 500, &[("records", 4)]);
        // A row dated before the anchor clamps to offset 0.
        t.record(3, "early", t0 - ns(50), 10, &[]);
        let trace = t.get(3).unwrap();
        assert_eq!(trace.epoch, 3);
        let rows: Vec<_> = trace
            .stages
            .iter()
            .map(|s| (s.stage.as_str(), s.start_offset_nanos, s.duration_nanos))
            .collect();
        assert_eq!(
            rows,
            [
                ("seal", 0, 1_000),
                ("publish", 1_200, 500),
                ("early", 0, 10)
            ]
        );
        assert_eq!(trace.stages[0].counters, vec![("events".to_string(), 10)]);
        assert!(t.get(99).is_none());
    }

    #[test]
    fn accumulate_merges_batches() {
        let (t, t0) = (TraceStore::new(), Instant::now());
        t.accumulate(0, "ingest", t0, 100, &[("batches", 1), ("events", 32)]);
        t.accumulate(
            0,
            "ingest",
            t0 + ns(400),
            200,
            &[("batches", 1), ("events", 32)],
        );
        let trace = t.get(0).unwrap();
        assert_eq!(trace.stages.len(), 1);
        assert_eq!(trace.stages[0].start_offset_nanos, 0);
        assert_eq!(trace.stages[0].duration_nanos, 300);
        assert_eq!(
            trace.stages[0].counters,
            vec![("batches".to_string(), 2), ("events".to_string(), 64)]
        );
    }

    #[test]
    fn record_since_last_replaces_and_spans_tail() {
        let (t, t0) = (TraceStore::new(), Instant::now());
        // No timeline for the epoch: nothing is recorded.
        assert!(t.record_since_last(1, "archive", t0, &[]).is_none());
        assert!(t.epochs().is_empty());

        t.record(1, "seal", t0, 1_000, &[]);
        let first = t
            .record_since_last(1, "archive", t0 + ns(1_500), &[("attempt", 1)])
            .unwrap();
        assert_eq!(first, t.get(1).unwrap());
        assert_eq!(first.stages.len(), 2);
        let archive = &first.stages[1];
        assert_eq!(archive.stage, "archive");
        assert_eq!(
            (archive.start_offset_nanos, archive.duration_nanos),
            (1_000, 500)
        );
        // A retry re-records the same row instead of appending.
        let second = t
            .record_since_last(1, "archive", t0 + ns(2_000), &[("attempt", 2)])
            .unwrap();
        assert_eq!(second.stages.len(), 2);
        assert_eq!(second.stages[1].counters, vec![("attempt".to_string(), 2)]);
        assert_eq!(second.stages[1].duration_nanos, 1_000);
    }

    #[test]
    fn bounded_eviction_drops_oldest() {
        let (t, t0) = (TraceStore::new(), Instant::now());
        let epochs = CAPACITY as u64 + 3;
        for epoch in 0..epochs {
            t.record(epoch, "seal", t0, 10, &[]);
        }
        assert_eq!(t.epochs(), (3..epochs).collect::<Vec<_>>());
        assert!(t.get(2).is_none());
        assert!(t.get(epochs - 1).is_some());
    }
}
