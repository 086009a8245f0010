//! Per-epoch provenance traces.
//!
//! A [`TraceStore`] collects, for every published epoch, a timeline of
//! the stages that produced it — the span in which it filled, the seal
//! and its per-shard counting and merge, the snapshot publish, and the
//! archive append — each with a start offset relative to the earliest
//! stage, a wall-clock duration, and a small bag of named counters. The
//! daemon serves the timeline at `/v1/debug/epoch/{N}/trace` and
//! persists it as an optional archive frame, so "where did this epoch
//! come from and what did it cost" survives a restart and time-travels
//! with the rest of the archive.
//!
//! Each [`ObsRegistry`](crate::ObsRegistry) owns one store, and a
//! timeline is written in one call ([`TraceStore::put`]) when its epoch
//! is published, from [`StageRun`]s that each carry the instant their
//! stage started; the archive writer then closes it with its row
//! ([`TraceStore::record_since_last`]). The store reads no clock, so a
//! row is dated where its stage ran, not where it was written down.
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
    /// Stage wall time in nanoseconds (shard counting and the merge sum
    /// their time across the recount's steps and shards).
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

/// A stage as it ran, before it is placed on a timeline.
#[derive(Debug, Clone)]
pub struct StageRun {
    /// Stage name.
    pub stage: &'static str,
    /// The instant the stage started.
    pub started: Instant,
    /// Stage wall time in nanoseconds.
    pub nanos: u64,
    /// Stage-specific counters.
    pub counters: Vec<(&'static str, u64)>,
}

/// An epoch's timeline: every stage in the order it was recorded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EpochTrace {
    /// The epoch this timeline belongs to.
    pub epoch: u64,
    /// Stages, in the order they were recorded.
    pub stages: Vec<TraceStage>,
}

/// One epoch's timeline plus the instant its offsets anchor to.
#[derive(Debug)]
struct TraceEntry {
    /// The earliest stage's start; every offset is measured from it.
    base: Instant,
    trace: EpochTrace,
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

    /// Put `epoch`'s timeline: `runs` in order, each offset from the
    /// earliest start among them. Replaces any timeline the store holds
    /// for `epoch`; a new one evicts the oldest past [`CAPACITY`]. Puts
    /// nothing for no runs.
    pub fn put(&self, epoch: u64, runs: &[StageRun]) {
        let Some(base) = runs.iter().map(|r| r.started).min() else {
            return;
        };
        let stages = runs.iter().map(|r| {
            let offset = r.started.duration_since(base).as_nanos() as u64;
            TraceStage::new(r.stage, offset, r.nanos, &r.counters)
        });
        let trace = EpochTrace {
            epoch,
            stages: stages.collect(),
        };
        let entry = TraceEntry { base, trace };
        let mut entries = self.lock();
        match entries.iter_mut().rfind(|e| e.trace.epoch == epoch) {
            Some(held) => *held = entry,
            None => {
                entries.push_back(entry);
                if entries.len() > CAPACITY {
                    entries.pop_front();
                }
            }
        }
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
        let end = ended.saturating_duration_since(entry.base).as_nanos() as u64;
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

    fn run(stage: &'static str, started: Instant, nanos: u64) -> StageRun {
        StageRun {
            stage,
            started,
            nanos,
            counters: Vec::new(),
        }
    }

    #[test]
    fn put_orders_stages_and_offsets() {
        let (t, t0) = (TraceStore::new(), Instant::now());
        let seal = StageRun {
            counters: vec![("events", 10)],
            ..run("seal", t0, 1_000)
        };
        // A row listed last but started first anchors the timeline.
        let early = run("early", t0 - ns(50), 10);
        t.put(3, &[seal, run("publish", t0 + ns(1_200), 500), early]);
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
                ("seal", 50, 1_000),
                ("publish", 1_250, 500),
                ("early", 0, 10)
            ]
        );
        assert_eq!(trace.stages[0].counters, vec![("events".to_string(), 10)]);
        assert!(t.get(99).is_none());
    }

    #[test]
    fn put_replaces_the_epochs_timeline() {
        let (t, t0) = (TraceStore::new(), Instant::now());
        t.put(1, &[run("seal", t0, 10), run("publish", t0 + ns(10), 5)]);
        t.put(2, &[run("seal", t0, 10)]);
        t.put(1, &[run("ingest", t0 + ns(7), 3)]);
        assert_eq!(t.epochs(), [1, 2], "replaced in place");
        let stages = t.get(1).unwrap().stages;
        assert_eq!(stages.len(), 1);
        assert_eq!(
            (stages[0].stage.as_str(), stages[0].start_offset_nanos),
            ("ingest", 0)
        );
        t.put(3, &[]);
        assert_eq!(t.epochs(), [1, 2], "no runs, no timeline");
    }

    #[test]
    fn record_since_last_replaces_and_spans_tail() {
        let (t, t0) = (TraceStore::new(), Instant::now());
        // No timeline for the epoch: nothing is recorded.
        assert!(t.record_since_last(1, "archive", t0, &[]).is_none());
        assert!(t.epochs().is_empty());

        t.put(1, &[run("seal", t0, 1_000)]);
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
            t.put(epoch, &[run("seal", t0, 10)]);
        }
        assert_eq!(t.epochs(), (3..epochs).collect::<Vec<_>>());
        assert!(t.get(2).is_none());
        assert!(t.get(epochs - 1).is_some());
    }
}
