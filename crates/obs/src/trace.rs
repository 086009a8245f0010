//! Per-epoch provenance traces.
//!
//! An epoch's trace is one fixed-size [`EpochTrace`]: for each stage that
//! produced it — the span in which it filled, the seal and its per-shard
//! counting and merge, the snapshot publish, and the archive append — a
//! start offset from the epoch's first push, a wall-clock duration and
//! the stage's counters, all plain `u64`s. The stage and counter names
//! are written once, in [`STAGES`]: the daemon's renderer at
//! `/v1/debug/epoch/{N}/trace` reads them from there, and the archive's
//! Trace frame is the record's words, so neither lists them again and
//! the record holds no name. A trace survives a restart and
//! time-travels with the rest of the archive.
//!
//! Each [`ObsRegistry`](crate::ObsRegistry) owns one [`TraceStore`]. A
//! [`Timeline`] — a record and the instant its offsets count from — is
//! put in one call when its epoch is published, its rows dated by the
//! instants their stages started; the archive writer then closes it with
//! its row ([`TraceStore::close_archive`]). The store reads no clock, so
//! a row is dated where its stage ran, not where it was written down.
//!
//! Concurrency follows the workspace's writer-owned discipline: the
//! publisher and the archive writer record, readers copy finished
//! records out from under a short mutex. The store is a ring of the
//! last [`CAPACITY`] epochs (the archive frame is the durable copy);
//! once it has filled, a put, a close and a get allocate nothing.

use std::collections::VecDeque;
use std::ops::Range;
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// Epochs a store retains.
pub const CAPACITY: usize = 256;

/// Every stage of an epoch's timeline, in the order its rows are listed,
/// with the names of the stage's counters: the one place either is named.
pub const STAGES: [(&str, &[&str]); 6] = [
    ("ingest", &["batches", "events"]),
    (
        "seal",
        &[
            "events",
            "tuples",
            "replayed",
            "corrected",
            "corrected_words",
            "corrected_rows",
            "total_steps",
            "visited_tuples",
            "moved",
            "kind",
        ],
    ),
    ("shard_count", &["steps"]),
    ("shard_merge", &[]),
    ("publish", &["records", "version"]),
    ("archive", &["attempt"]),
];

/// Words of an [`EpochTrace`]: every stage's row, each its start offset,
/// its duration and its counters.
pub const WORDS: usize = row_at(STAGES.len());

/// Where stage `i`'s row starts in [`EpochTrace::words`].
const fn row_at(i: usize) -> usize {
    let (mut at, mut s) = (0, 0);
    while s < i {
        at += 2 + STAGES[s].1.len();
        s += 1;
    }
    at
}

/// A stage of an epoch's timeline: its index in [`STAGES`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stage(usize);

impl Stage {
    /// The span in which the epoch filled.
    pub const INGEST: Stage = Stage(0);
    /// The seal.
    pub const SEAL: Stage = Stage(1);
    /// The seal's shard counting, summed across its steps and shards.
    pub const SHARD_COUNT: Stage = Stage(2);
    /// The seal's dense merge, summed across its steps.
    pub const SHARD_MERGE: Stage = Stage(3);
    /// The snapshot publish.
    pub const PUBLISH: Stage = Stage(4);
    /// The archive append, queueing and retries included.
    pub const ARCHIVE: Stage = Stage(5);

    /// The stage's name.
    pub fn name(self) -> &'static str {
        STAGES[self.0].0
    }

    /// The stage's counter names, in the order its row holds them.
    pub fn counters(self) -> &'static [&'static str] {
        STAGES[self.0].1
    }

    /// The stage's row in [`EpochTrace::words`].
    fn words(self) -> Range<usize> {
        row_at(self.0)..row_at(self.0 + 1)
    }
}

/// An epoch's trace: one fixed-size record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EpochTrace {
    /// The epoch this trace belongs to.
    pub epoch: u64,
    /// Bit `i` set: stage `i` of [`STAGES`] ran, and `words` holds its row.
    pub present: u64,
    /// Each stage's row, in [`STAGES`] order: nanoseconds from the
    /// epoch's first push to its start, its duration in nanoseconds,
    /// then its counters. Zero where the stage did not run.
    pub words: [u64; WORDS],
}

/// One stage's row, read off an [`EpochTrace`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Row<'a> {
    /// The stage.
    pub stage: Stage,
    /// Nanoseconds from the epoch's first push to the stage's start.
    pub start_offset_nanos: u64,
    /// Stage wall time in nanoseconds.
    pub duration_nanos: u64,
    /// The stage's counters, in [`Stage::counters`] order.
    pub counters: &'a [u64],
}

impl EpochTrace {
    /// A trace of `epoch` in which no stage ran.
    pub fn new(epoch: u64) -> EpochTrace {
        EpochTrace {
            epoch,
            ..EpochTrace::default()
        }
    }

    /// Set `stage`'s row, replacing any: one value in `counters` for
    /// each of [`Stage::counters`], in that order.
    pub fn set(&mut self, stage: Stage, start_offset_nanos: u64, nanos: u64, counters: &[u64]) {
        let row = &mut self.words[stage.words()];
        assert_eq!(row.len(), 2 + counters.len(), "{}'s counters", stage.name());
        row[0] = start_offset_nanos;
        row[1] = nanos;
        row[2..].copy_from_slice(counters);
        self.present |= 1 << stage.0;
    }

    /// The rows of the stages that ran, in [`STAGES`] order.
    pub fn rows(&self) -> impl Iterator<Item = Row<'_>> {
        (0..STAGES.len()).map(Stage).filter_map(|s| self.row(s))
    }

    /// `stage`'s row, if it ran.
    pub fn row(&self, stage: Stage) -> Option<Row<'_>> {
        let row = &self.words[stage.words()];
        (self.present & 1 << stage.0 != 0).then(|| Row {
            stage,
            start_offset_nanos: row[0],
            duration_nanos: row[1],
            counters: &row[2..],
        })
    }
}

/// An epoch's trace and the instant its offsets count from: what a
/// publisher puts in the store.
#[derive(Debug, Clone, Copy)]
pub struct Timeline {
    /// The instant offset 0 stands for: the epoch's first push, the
    /// earliest of its stages' starts.
    pub base: Instant,
    /// The record.
    pub trace: EpochTrace,
}

impl Timeline {
    /// A timeline of `epoch` with no rows, counting from `base`.
    pub fn new(epoch: u64, base: Instant) -> Timeline {
        let trace = EpochTrace::new(epoch);
        Timeline { base, trace }
    }

    /// Set `stage`'s row: it started at `started` and ran `nanos`.
    pub fn set(&mut self, stage: Stage, started: Instant, nanos: u64, counters: &[u64]) {
        let offset = started.saturating_duration_since(self.base).as_nanos() as u64;
        self.trace.set(stage, offset, nanos, counters);
    }
}

/// A ring of the last [`CAPACITY`] epochs' timelines.
#[derive(Debug, Default)]
pub struct TraceStore {
    ring: Mutex<VecDeque<Timeline>>,
}

impl TraceStore {
    /// An empty store.
    pub fn new() -> TraceStore {
        TraceStore::default()
    }

    fn lock(&self) -> MutexGuard<'_, VecDeque<Timeline>> {
        self.ring.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Put `timeline`, replacing any the store holds for its epoch; a new
    /// epoch evicts the oldest once the ring is full.
    pub fn put(&self, timeline: Timeline) {
        let mut ring = self.lock();
        let epoch = timeline.trace.epoch;
        match ring.iter_mut().rfind(|held| held.trace.epoch == epoch) {
            Some(held) => *held = timeline,
            None => {
                if ring.len() == CAPACITY {
                    ring.pop_front();
                }
                ring.push_back(timeline);
            }
        }
    }

    /// Close `epoch`'s timeline with its `archive` row, spanning from the
    /// end of the last other row to the commit attempt at `ended`, and
    /// return the trace. The archive append's duration includes queueing
    /// and retries and is only known at commit time: a retry replaces
    /// the row with its `attempt`. Records nothing and returns `None`
    /// when the store holds no timeline for `epoch`.
    pub fn close_archive(&self, epoch: u64, ended: Instant, attempt: u64) -> Option<EpochTrace> {
        let mut ring = self.lock();
        let held = ring.iter_mut().rfind(|held| held.trace.epoch == epoch)?;
        let end = ended.saturating_duration_since(held.base).as_nanos() as u64;
        let others = held.trace.rows().filter(|r| r.stage != Stage::ARCHIVE);
        let ends = others.map(|r| r.start_offset_nanos + r.duration_nanos);
        let from = ends.max().unwrap_or(0).min(end);
        held.trace.set(Stage::ARCHIVE, from, end - from, &[attempt]);
        Some(held.trace)
    }

    /// The trace recorded for `epoch`, if still retained.
    pub fn get(&self, epoch: u64) -> Option<EpochTrace> {
        let ring = self.lock();
        Some(ring.iter().rfind(|held| held.trace.epoch == epoch)?.trace)
    }

    /// Epochs currently retained, oldest first.
    pub fn epochs(&self) -> Vec<u64> {
        self.lock().iter().map(|held| held.trace.epoch).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn ns(n: u64) -> Duration {
        Duration::from_nanos(n)
    }

    /// A timeline of `epoch` from `t0` with a `seal` row of no counts.
    fn sealed(epoch: u64, t0: Instant, nanos: u64) -> Timeline {
        let mut timeline = Timeline::new(epoch, t0);
        timeline.set(Stage::SEAL, t0, nanos, &[0; 10]);
        timeline
    }

    #[test]
    fn the_table_sizes_the_record() {
        assert_eq!(WORDS, 28);
        assert!(STAGES.len() <= 64, "one presence bit a stage");
        let stages = [
            Stage::INGEST,
            Stage::SEAL,
            Stage::SHARD_COUNT,
            Stage::SHARD_MERGE,
            Stage::PUBLISH,
            Stage::ARCHIVE,
        ];
        let names: Vec<_> = stages.iter().map(|s| s.name()).collect();
        let table: Vec<_> = STAGES.iter().map(|&(name, _)| name).collect();
        assert_eq!(names, table);
    }

    #[test]
    fn rows_list_in_table_order_at_their_offsets() {
        let t0 = Instant::now();
        let mut timeline = Timeline::new(3, t0 - ns(50));
        timeline.set(Stage::PUBLISH, t0 + ns(1_200), 500, &[7, 4]);
        timeline.set(Stage::INGEST, t0 - ns(50), 10, &[1, 10]);
        let trace = timeline.trace;
        assert_eq!(trace.epoch, 3);
        let rows: Vec<_> = trace
            .rows()
            .map(|r| (r.stage.name(), r.start_offset_nanos, r.duration_nanos))
            .collect();
        assert_eq!(rows, [("ingest", 0, 10), ("publish", 1_250, 500)]);
        let ingest = trace.row(Stage::INGEST).unwrap();
        assert_eq!(ingest.counters, [1, 10]);
        assert_eq!(ingest.stage.counters(), ["batches", "events"]);
        assert!(trace.row(Stage::SEAL).is_none());
    }

    #[test]
    #[should_panic(expected = "ingest's counters")]
    fn a_row_holds_exactly_its_stages_counters() {
        EpochTrace::new(0).set(Stage::INGEST, 0, 0, &[1]);
    }

    #[test]
    fn put_replaces_the_epochs_timeline() {
        let (t, t0) = (TraceStore::new(), Instant::now());
        t.put(sealed(1, t0, 10));
        t.put(sealed(2, t0, 10));
        let mut again = Timeline::new(1, t0);
        again.set(Stage::INGEST, t0 + ns(7), 3, &[0, 0]);
        t.put(again);
        assert_eq!(t.epochs(), [1, 2], "replaced in place");
        let rows: Vec<_> = t.get(1).unwrap().rows().map(|r| r.stage).collect();
        assert_eq!(rows, [Stage::INGEST]);
        assert!(t.get(99).is_none());
    }

    #[test]
    fn close_archive_replaces_and_spans_tail() {
        let (t, t0) = (TraceStore::new(), Instant::now());
        // No timeline for the epoch: nothing is recorded.
        assert!(t.close_archive(1, t0, 1).is_none());
        assert!(t.epochs().is_empty());

        t.put(sealed(1, t0, 1_000));
        let first = t.close_archive(1, t0 + ns(1_500), 1).unwrap();
        assert_eq!(first, t.get(1).unwrap());
        assert_eq!(first.rows().count(), 2);
        let archive = first.row(Stage::ARCHIVE).unwrap();
        assert_eq!(
            (archive.start_offset_nanos, archive.duration_nanos),
            (1_000, 500)
        );
        // A retry re-records the same row instead of appending.
        let second = t.close_archive(1, t0 + ns(2_000), 2).unwrap();
        assert_eq!(second.rows().count(), 2);
        let archive = second.row(Stage::ARCHIVE).unwrap();
        assert_eq!(archive.counters, [2]);
        assert_eq!(archive.duration_nanos, 1_000);
    }

    #[test]
    fn bounded_eviction_drops_oldest() {
        let (t, t0) = (TraceStore::new(), Instant::now());
        let epochs = CAPACITY as u64 + 3;
        for epoch in 0..epochs {
            t.put(sealed(epoch, t0, 10));
        }
        assert_eq!(t.epochs(), (3..epochs).collect::<Vec<_>>());
        assert!(t.get(2).is_none());
        assert!(t.get(epochs - 1).is_some());
    }
}
