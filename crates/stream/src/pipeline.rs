//! The coordinator: ingest → shard → epoch, in one push-driven object.
//!
//! Every event enters through one loop, [`StreamPipeline::push_events`]
//! over an [`EventBatch`]: it cuts the batch where the epoch policy trips,
//! hands each run between cuts to [`ShardSet::push_records`] (hash pass,
//! then probe pass), and seals at the cut. The other entry points are its
//! special cases: `push_ref` a run of one, `push` and `push_batch` owned
//! events encoded into a reused batch, `drive` a source's batches in turn.
//!
//! A seal has one path: [`ShardSet::recount`] under Cond1 and Cond2,
//! replaying the previous seal's step caches where they hold, then a
//! classify of the moved ids alone, patched into the previous seal's
//! class and record tables. A first seal has nothing to replay, so its
//! moved set is every id it counted and it patches empty tables. That
//! makes a fresh pipeline fed the same cumulative events and sealed once
//! the oracle of every seal, and the tests hold each seal's tables to it.
//!
//! What a seal measured goes into the epoch it seals: the recount's
//! counts come back in its [`Recount`], the shard set's dedup, interner,
//! arena and load counts are read at the cut, and both land in the
//! snapshot's [`IngestStats`] and [`SealStats`]. The seal's histogram and
//! debug line read them there, and so does everyone downstream — a
//! publisher that catches up on several epochs at once publishes and
//! archives each with its own numbers.
//!
//! The pipeline writes no trace rows. Each epoch carries the instants
//! they are dated by ([`EpochInstants`]): its first push, read once an
//! epoch beside its first timestamp, the seal's start and the recount's
//! start, and how many pushes filled it. Whoever publishes the epoch
//! builds its rows from them ([`EpochSnapshot::stage_runs`]).

use crate::epoch::{
    ClassFlip, EpochInstants, EpochPolicy, EpochSnapshot, IngestStats, SealKind, SealStats,
};
use crate::ingest::{EventBatch, IngestError, StreamEvent, TupleSource};
use crate::outcome::StreamOutcome;
use crate::shard::{Recount, ShardSet};
use bgp_infer::classify::Class;
use bgp_infer::compiled::DenseOutcome;
use bgp_infer::counters::{AsCounters, Thresholds};
use bgp_infer::db::DbRecord;
use bgp_types::prelude::*;
use obs::{Histogram, ObsRegistry};
use std::sync::Arc;
use std::time::Instant;

/// Configuration of a streaming inference run. What a seal does is not
/// configured: it always enforces Cond1 and Cond2 over every path column
/// and reuses the previous seal's step caches where they hold (see
/// [`crate::shard`]). The batch engine's `InferenceConfig` keeps the
/// ablation switches and the column cap. Nor is tracing: every sealed
/// epoch carries the instants its trace rows are dated by
/// ([`EpochInstants`]).
#[derive(Debug, Clone)]
pub struct StreamConfig {
    /// Shards: how tuples are partitioned for deduplication, step
    /// caching and load reporting. A seal counts them in turn on the
    /// sealing thread. Identical tuples are always counted once, as the
    /// paper's `TupleSet` pipeline does.
    pub shards: usize,
    /// When to seal epochs.
    pub epoch: EpochPolicy,
    /// Classification thresholds (shared with the batch engine).
    pub thresholds: Thresholds,
    /// Keep only the latest snapshot's full counter state, dropping the
    /// dense outcome of older epochs as new ones seal. Classes and flips
    /// are kept for every epoch either way; what compaction costs is
    /// [`StreamOutcome::export_epoch_db`] and the record table of
    /// *historical* epochs. On a long-lived stream the history would
    /// otherwise grow by a full per-AS counter column every epoch,
    /// without bound.
    pub compact_history: bool,
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig {
            shards: 4,
            epoch: EpochPolicy::default(),
            thresholds: Thresholds::default(),
            compact_history: false,
        }
    }
}

/// Push-driven streaming inference.
///
/// Feed an [`EventBatch`] with [`push_events`](StreamPipeline::push_events),
/// the one entry point: [`push_ref`](StreamPipeline::push_ref) is its
/// run of one, [`push`](StreamPipeline::push) and
/// [`push_batch`](StreamPipeline::push_batch) encode owned events into a
/// reused batch first, and [`drive`](StreamPipeline::drive) drains a whole
/// [`TupleSource`] through it. Epochs seal automatically per the
/// [`EpochPolicy`], and [`finish`](StreamPipeline::finish) seals the
/// trailing partial epoch and returns the [`StreamOutcome`].
#[derive(Debug)]
pub struct StreamPipeline {
    cfg: StreamConfig,
    shards: ShardSet,
    snapshots: Vec<Arc<EpochSnapshot>>,
    /// The last class each id was given, indexed by interned id: where
    /// a flip's `from` comes from.
    prev_classes: Vec<Class>,
    /// `(asn, id)` pairs sorted by ASN, covering ids `< perm_len`;
    /// extended by merge whenever the shards' interner grew.
    by_asn: Arc<Vec<(Asn, AsnId)>>,
    perm_len: usize,
    events_in_epoch: u64,
    /// Pushes that brought the open epoch's events.
    pushes_in_epoch: u64,
    total_events: u64,
    /// The open epoch's first timestamp, and the instant it was pushed.
    epoch_start: Option<(u64, Instant)>,
    last_ts: u64,
    /// Seal-stage histograms by kind (one per [`SealKind::ALL`] entry) plus
    /// the whole-recount histogram, resolved once on the registry so
    /// sealing records with pure atomics.
    seal_hists: [Arc<Histogram>; 3],
    recount_hist: Arc<Histogram>,
    /// What [`push_batch`](Self::push_batch) encodes owned events into.
    owned: EventBatch,
}

impl StreamPipeline {
    /// New pipeline, recording its stage histograms on a private
    /// registry.
    pub fn new(cfg: StreamConfig) -> Self {
        StreamPipeline::with_registry(cfg, &ObsRegistry::new())
    }

    /// New pipeline whose seal, recount, count and merge histograms
    /// resolve on `reg` (a daemon's one registry).
    pub fn with_registry(cfg: StreamConfig, reg: &ObsRegistry) -> Self {
        let shards = ShardSet::with_registry(cfg.shards, reg);
        let seal_help = "Wall time of one epoch seal";
        let seal_hists = SealKind::ALL.map(|kind| {
            reg.histogram(
                "bgp_stream_seal_duration_seconds",
                seal_help,
                &[("kind", kind.label())],
            )
        });
        let recount_hist = reg.histogram(
            "bgp_stream_recount_duration_seconds",
            "Wall time of the whole recount of one sealed epoch",
            &[],
        );
        StreamPipeline {
            cfg,
            shards,
            snapshots: Vec::new(),
            prev_classes: Vec::new(),
            by_asn: Arc::new(Vec::new()),
            perm_len: 0,
            events_in_epoch: 0,
            pushes_in_epoch: 0,
            total_events: 0,
            epoch_start: None,
            last_ts: 0,
            seal_hists,
            recount_hist,
            owned: EventBatch::new(),
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &StreamConfig {
        &self.cfg
    }

    /// Events ingested so far.
    pub fn total_events(&self) -> u64 {
        self.total_events
    }

    /// Unique tuples stored so far.
    pub fn stored_tuples(&self) -> usize {
        self.shards.stored_tuples()
    }

    /// Distinct ASNs in the shards' interner (one id space for all
    /// shards — an AS spanning shards counts once).
    pub fn interned_asns(&self) -> usize {
        self.shards.interned_asns()
    }

    /// Total path positions held in the shard compiled-store id arenas.
    pub fn arena_hops(&self) -> usize {
        self.shards.arena_hops()
    }

    /// Dedup hits observed so far.
    pub fn duplicates(&self) -> u64 {
        self.shards.duplicates()
    }

    /// Stored-tuple count per shard so far (load-balance introspection).
    pub fn shard_loads(&self) -> Vec<usize> {
        self.shards.shard_loads()
    }

    /// `(replayed, total)` (shard, step) counting units of the latest
    /// seal's recount, read from its [`IngestStats`] — how much of the
    /// seal was served from cached step deltas (`(0, 0)` before any seal
    /// or after an O(1) re-seal).
    pub fn last_replay(&self) -> (usize, usize) {
        self.latest().map_or((0, 0), |s| {
            (
                s.ingest.replayed_steps as usize,
                s.ingest.total_steps as usize,
            )
        })
    }

    /// Sealed snapshots so far. Snapshots are reference-counted so a
    /// serving layer can retain and publish them ([`Arc::clone`] is a
    /// pointer copy) while ingestion keeps running.
    pub fn snapshots(&self) -> &[Arc<EpochSnapshot>] {
        &self.snapshots
    }

    /// The latest sealed snapshot, if any epoch has sealed.
    pub fn latest(&self) -> Option<&Arc<EpochSnapshot>> {
        self.snapshots.last()
    }

    /// Live classification of one AS as of the latest sealed epoch
    /// ([`Class::NONE`] before the first seal).
    pub fn class_of(&self, asn: Asn) -> Class {
        self.latest().map_or(Class::NONE, |s| s.class_of(asn))
    }

    /// Ingest a batch, its tuples borrowed and copied only if new: the
    /// entry point every other push goes through. The batch is cut where
    /// the epoch policy trips — a walk over event counts and timestamps
    /// that reads no record — and each run between cuts goes to the
    /// shards whole ([`ShardSet::push_records`]). At each cut the epoch
    /// seals and `on_seal` sees the pipeline: a publisher syncs there,
    /// because with `compact_history` the next seal strips the epoch it
    /// must read. Returns how many epochs sealed.
    pub fn push_events(&mut self, batch: &EventBatch, on_seal: impl FnMut(&Self)) -> usize {
        self.ingest(batch.iter(), on_seal)
    }

    /// [`push_events`](Self::push_events) over a run of one. Returns the
    /// snapshot sealed by this event, if the epoch policy tripped.
    pub fn push_ref(&mut self, timestamp: u64, tuple: TupleRef<'_>) -> Option<&Arc<EpochSnapshot>> {
        let sealed = self.ingest(std::iter::once((timestamp, tuple)), |_| {});
        self.snapshots.last().filter(|_| sealed > 0)
    }

    /// [`push_ref`](Self::push_ref) for an owned event.
    pub fn push(&mut self, ev: StreamEvent) -> Option<&Arc<EpochSnapshot>> {
        let sealed = self.push_batch([ev]);
        self.snapshots.last().filter(|_| sealed > 0)
    }

    /// [`push_events`](Self::push_events) for owned events, encoded into
    /// the pipeline's reused batch first. Returns how many epochs sealed.
    pub fn push_batch(&mut self, events: impl IntoIterator<Item = StreamEvent>) -> usize {
        let mut owned = std::mem::take(&mut self.owned);
        owned.clear();
        for ev in events {
            owned.push_event(&ev);
        }
        let sealed = self.push_events(&owned, |_| {});
        self.owned = owned;
        sealed
    }

    /// The one ingest loop (see [`push_events`](Self::push_events)).
    fn ingest<'a>(
        &mut self,
        events: impl Iterator<Item = (u64, TupleRef<'a>)> + Clone,
        mut on_seal: impl FnMut(&Self),
    ) -> usize {
        let before = self.snapshots.len();
        let mut rest = events;
        loop {
            let run = rest.clone();
            let mut len = 0;
            let mut trips = false;
            for (timestamp, _) in rest.by_ref() {
                len += 1;
                if self.count_event(timestamp) {
                    trips = true;
                    break;
                }
            }
            self.pushes_in_epoch += u64::from(len > 0);
            self.shards.push_records(run.take(len).map(|(_, t)| t));
            if !trips {
                break;
            }
            self.seal_epoch();
            on_seal(self);
        }
        self.snapshots.len() - before
    }

    /// Account for one event; whether the epoch policy trips on it. The
    /// epoch's first event reads the clock: its first push.
    fn count_event(&mut self, timestamp: u64) -> bool {
        let (start_ts, _) = *self
            .epoch_start
            .get_or_insert_with(|| (timestamp, Instant::now()));
        self.last_ts = timestamp;
        self.total_events += 1;
        self.events_in_epoch += 1;
        let span = timestamp.saturating_sub(start_ts);
        self.cfg.epoch.should_seal(self.events_in_epoch, span)
    }

    /// Drain a source to exhaustion in `batch`-sized pulls. Returns how
    /// many epochs sealed. Errors stop ingestion at the failing record
    /// (everything already pushed stays counted).
    pub fn drive(
        &mut self,
        source: &mut dyn TupleSource,
        batch: usize,
    ) -> Result<usize, IngestError> {
        let mut sealed = 0;
        loop {
            let events = source.next_batch(batch.max(1))?;
            if events.is_empty() {
                return Ok(sealed);
            }
            sealed += self.push_events(&events, |_| {});
        }
    }

    /// Extend the Asn-sorted id permutation with any ids interned since
    /// the last seal (a sorted merge of the old table with the new tail).
    fn refresh_by_asn(&mut self) {
        let n = self.shards.interned_asns();
        if n == self.perm_len {
            return;
        }
        let mut fresh: Vec<(Asn, AsnId)> = self.shards.interner().asns()[self.perm_len..]
            .iter()
            .zip(self.perm_len as AsnId..)
            .map(|(&asn, id)| (asn, id))
            .collect();
        fresh.sort_unstable_by_key(|&(a, _)| a);
        if self.perm_len == 0 {
            self.by_asn = Arc::new(fresh);
        } else {
            let old = self.by_asn.as_slice();
            let mut merged = Vec::with_capacity(old.len() + fresh.len());
            let (mut i, mut j) = (0, 0);
            while i < old.len() || j < fresh.len() {
                match (old.get(i), fresh.get(j)) {
                    (Some(&a), Some(&b)) => {
                        if a.0 <= b.0 {
                            merged.push(a);
                            i += 1;
                        } else {
                            merged.push(b);
                            j += 1;
                        }
                    }
                    (Some(&a), None) => {
                        merged.push(a);
                        i += 1;
                    }
                    (None, Some(&b)) => {
                        merged.push(b);
                        j += 1;
                    }
                    (None, None) => unreachable!(),
                }
            }
            self.by_asn = Arc::new(merged);
        }
        self.perm_len = n;
    }

    /// Force-seal the running epoch: recount everything stored (cached
    /// steps replayed where valid, shards counted in turn), then classify
    /// only the ids the recount says moved and patch the previous seal's
    /// class and record tables at them in one sorted walk; the flips are
    /// the moved ids whose class changed. An id outside the moved set kept
    /// its counters, so it keeps its class and record. A first seal moves
    /// every id it counted, so patching empty tables is the full build.
    /// When nothing was stored
    /// since the previous seal the new snapshot shares its predecessor's
    /// dense state wholesale — an O(1) re-seal. Idempotent on an empty
    /// epoch only in the sense that it still produces a (possibly
    /// flip-free) snapshot.
    pub fn seal_epoch(&mut self) -> &Arc<EpochSnapshot> {
        let t_seal = Instant::now();
        let epoch = self.snapshots.len() as u64;
        let mut ingest = IngestStats {
            duplicates: self.shards.duplicates(),
            interned_asns: self.shards.interned_asns() as u64,
            arena_hops: self.shards.arena_hops() as u64,
            shard_loads: self
                .shards
                .shard_loads()
                .into_iter()
                .map(|n| n as u64)
                .collect(),
            ..Default::default()
        };
        let mut seal = SealStats::default();
        let (dense, classes, flips, count_nanos, t_count) = if self.shards.unchanged_since_seal() {
            // O(1) fast path: identical tuple set => identical counters,
            // classes, and (empty) flip set. Share every component.
            let prev = self.snapshots.last().expect("unchanged implies a seal");
            let dense = prev
                .dense
                .clone()
                .expect("latest snapshot is never compacted");
            (dense, Arc::clone(&prev.classes), Vec::new(), 0, None)
        } else {
            let t_count = Instant::now();
            let Recount {
                counters,
                deepest_active,
                moved,
                replayed_steps,
                total_steps,
                stats,
            } = self.shards.recount(&self.cfg.thresholds);
            let count_nanos = t_count.elapsed().as_nanos() as u64;
            self.recount_hist.record(count_nanos);
            (ingest.replayed_steps, ingest.total_steps) = (replayed_steps, total_steps);
            seal = stats;
            self.refresh_by_asn();
            let counters = Arc::new(counters.into_counts());
            let th = self.cfg.thresholds;
            let asns = self.shards.interner().asns();
            let mut upserts: Vec<(Asn, AsnId)> =
                moved.iter().map(|&id| (asns[id as usize], id)).collect();
            upserts.sort_unstable_by_key(|&(asn, _)| asn);
            self.prev_classes.resize(self.perm_len, Class::NONE);
            let (old_classes, old_records) = match self.snapshots.last() {
                Some(prev) => (
                    prev.classes.as_slice(),
                    prev.dense
                        .as_ref()
                        .expect("latest snapshot is never compacted")
                        .records
                        .as_slice(),
                ),
                None => (&[][..], &[][..]),
            };
            let (classes, records, flips) = patch_tables(
                &upserts,
                &counters,
                &th,
                &mut self.prev_classes,
                old_classes,
                old_records,
            );
            let dense = DenseOutcome {
                counters,
                by_asn: Arc::clone(&self.by_asn),
                records: Arc::new(records),
                thresholds: th,
                deepest_active_index: deepest_active,
            };
            (dense, Arc::new(classes), flips, count_nanos, Some(t_count))
        };
        let mut snapshot = EpochSnapshot {
            epoch,
            version: epoch + 1,
            sealed_at: self.last_ts,
            events: self.events_in_epoch,
            total_events: self.total_events,
            unique_tuples: self.shards.stored_tuples(),
            dense: Some(dense),
            classes,
            flips: Arc::new(flips),
            seal_nanos: 0,
            count_nanos,
            ingest,
            seal,
            instants: Some(EpochInstants {
                t_first_push: self.epoch_start.map_or(t_seal, |(_, t)| t),
                pushes: self.pushes_in_epoch,
                t_seal,
                t_count,
            }),
        };
        self.events_in_epoch = 0;
        self.pushes_in_epoch = 0;
        self.epoch_start = None;
        if self.cfg.compact_history {
            if let Some(prev) = self.snapshots.last_mut() {
                // A shared snapshot (e.g. one a serving layer still
                // publishes) is cloned before stripping, so external
                // holders keep their full counter state; only the
                // pipeline's history copy drops its counters.
                Arc::make_mut(prev).dense = None;
            }
        }
        snapshot.seal_nanos = t_seal.elapsed().as_nanos() as u64;
        self.seal_hists[seal.kind as usize].record(snapshot.seal_nanos);
        let EpochSnapshot { ingest, seal, .. } = &snapshot;
        obs::debug!(
            "stream",
            "sealed epoch {epoch} kind={} events={} tuples={} flips={} moved={} replayed={}/{} corrected={} corrected_words={} corrected_rows={} seal_nanos={} count_nanos={}",
            seal.kind.label(),
            snapshot.events,
            snapshot.unique_tuples,
            snapshot.flips.len(),
            seal.moved,
            ingest.replayed_steps,
            ingest.total_steps,
            seal.corrected,
            seal.corrected_words,
            seal.corrected_rows,
            snapshot.seal_nanos,
            snapshot.count_nanos
        );
        self.snapshots.push(Arc::new(snapshot));
        self.snapshots.last().expect("just pushed")
    }

    /// Seal any trailing partial epoch and return the final outcome.
    pub fn finish(mut self) -> StreamOutcome {
        if self.events_in_epoch > 0 || self.snapshots.is_empty() {
            self.seal_epoch();
        }
        StreamOutcome {
            snapshots: self.snapshots,
        }
    }
}

/// The sorted merge-walk of one seal: `upserts` are the moved ids,
/// sorted by ASN, and `old_classes` / `old_records` the previous seal's
/// tables (index-aligned: both list exactly the ids whose counters were
/// not all zero, by ASN). Runs between moved ASNs are copied whole; each
/// moved id is classified from `counters` and written in place of its old
/// row, or dropped if its counters are zero. A class that differs from
/// `prev_classes` (the last class the id was given, by id) is a flip.
/// Returns the new class table, record table and flips, all by ASN.
fn patch_tables(
    upserts: &[(Asn, AsnId)],
    counters: &[AsCounters],
    th: &Thresholds,
    prev_classes: &mut [Class],
    old_classes: &[(Asn, Class)],
    old_records: &[DbRecord],
) -> (Vec<(Asn, Class)>, Vec<DbRecord>, Vec<ClassFlip>) {
    debug_assert_eq!(old_classes.len(), old_records.len());
    let mut classes = Vec::with_capacity(old_classes.len() + upserts.len());
    let mut records = Vec::with_capacity(old_records.len() + upserts.len());
    let mut flips = Vec::new();
    let mut at = 0;
    for &(asn, id) in upserts {
        let mut run = at;
        while old_classes.get(run).is_some_and(|&(a, _)| a < asn) {
            run += 1;
        }
        classes.extend_from_slice(&old_classes[at..run]);
        records.extend_from_slice(&old_records[at..run]);
        at = run + old_classes.get(run).is_some_and(|&(a, _)| a == asn) as usize;
        let c = counters[id as usize];
        if c.is_zero() {
            continue;
        }
        let class = c.classify(th);
        let prev = &mut prev_classes[id as usize];
        if *prev != class {
            flips.push(ClassFlip {
                asn,
                from: *prev,
                to: class,
            });
            *prev = class;
        }
        classes.push((asn, class));
        records.push(DbRecord {
            asn,
            class,
            counters: c,
        });
    }
    classes.extend_from_slice(&old_classes[at..]);
    records.extend_from_slice(&old_records[at..]);
    (classes, records, flips)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ingest::StreamEvent;
    use crate::testing::{followed_feed, tag_tuple, FollowedFeed, Rng};
    use bgp_infer::classify::TaggingClass;
    use std::time::Duration;

    #[test]
    fn epochs_seal_by_event_count() {
        let mut pipe = StreamPipeline::new(StreamConfig {
            shards: 2,
            epoch: EpochPolicy::every_events(5),
            ..Default::default()
        });
        for i in 0..12u64 {
            pipe.push(StreamEvent::new(i, tag_tuple(&[1, 9], &[1])));
        }
        assert_eq!(pipe.snapshots().len(), 2);
        let out = pipe.finish(); // trailing 2 events seal a third epoch
        assert_eq!(out.snapshots.len(), 3);
        assert_eq!(out.snapshots[0].version, 1);
        assert_eq!(out.snapshots[2].version, 3);
        assert_eq!(out.total_events(), 12);
    }

    #[test]
    fn epochs_seal_by_time_span() {
        let mut pipe = StreamPipeline::new(StreamConfig {
            shards: 1,
            epoch: EpochPolicy::every_span(100),
            ..Default::default()
        });
        assert!(pipe
            .push(StreamEvent::new(1_000, tag_tuple(&[1, 9], &[1])))
            .is_none());
        assert!(pipe
            .push(StreamEvent::new(1_050, tag_tuple(&[2, 9], &[])))
            .is_none());
        let sealed = pipe.push(StreamEvent::new(1_100, tag_tuple(&[1, 8], &[1])));
        assert!(sealed.is_some());
        assert_eq!(sealed.unwrap().sealed_at, 1_100);
    }

    #[test]
    fn live_class_updates_between_epochs() {
        let mut pipe = StreamPipeline::new(StreamConfig {
            shards: 2,
            epoch: EpochPolicy::every_events(1),
            ..Default::default()
        });
        assert_eq!(pipe.class_of(Asn(1)), Class::NONE);
        pipe.push(StreamEvent::new(0, tag_tuple(&[1, 9], &[1])));
        assert_eq!(pipe.class_of(Asn(1)).tagging, TaggingClass::Tagger);
        // A contradicting observation flips 1 to undecided next epoch.
        pipe.push(StreamEvent::new(1, tag_tuple(&[1, 8], &[])));
        assert_eq!(pipe.class_of(Asn(1)).tagging, TaggingClass::Undecided);
        let flips = &pipe.latest().unwrap().flips;
        assert!(flips.iter().any(|f| f.asn == Asn(1)));
    }

    #[test]
    fn dedup_reseal_shares_the_previous_snapshot() {
        // Epoch 2 ingests only duplicates: the seal must take the O(1)
        // fast path, sharing the dense state and classes by pointer.
        let mut pipe = StreamPipeline::new(StreamConfig {
            shards: 2,
            epoch: EpochPolicy::every_events(2),
            ..Default::default()
        });
        pipe.push(StreamEvent::new(0, tag_tuple(&[1, 9], &[1])));
        pipe.push(StreamEvent::new(1, tag_tuple(&[2, 9], &[])));
        let first = Arc::clone(pipe.latest().unwrap());
        pipe.push(StreamEvent::new(2, tag_tuple(&[1, 9], &[1])));
        pipe.push(StreamEvent::new(3, tag_tuple(&[2, 9], &[])));
        let second = Arc::clone(pipe.latest().unwrap());
        assert_eq!(second.epoch, 1);
        assert!(second.flips.is_empty());
        assert!(Arc::ptr_eq(&first.classes, &second.classes));
        assert!(Arc::ptr_eq(
            &first.dense.as_ref().unwrap().counters,
            &second.dense.as_ref().unwrap().counters
        ));
        assert_eq!(second.count_nanos, 0, "no recount ran");
        assert_eq!(second.seal, SealStats::default(), "nothing counted");
        assert_eq!(first.seal.kind, SealKind::Full);
        // The epoch keeps the counts of its own seal: the first recounted
        // every unit, the second none, and only the second saw dedup hits.
        let steps = |s: &EpochSnapshot| (s.ingest.replayed_steps, s.ingest.total_steps);
        assert_eq!(steps(&first), (0, first.ingest.total_steps));
        assert!(first.ingest.total_steps > 0);
        assert_eq!(steps(&second), (0, 0));
        assert_eq!((first.ingest.duplicates, second.ingest.duplicates), (0, 2));
        assert_eq!(first.ingest.shard_loads, second.ingest.shard_loads);
        // And the duplicate events are still accounted for.
        assert_eq!(second.total_events, 4);
        assert_eq!(second.events, 2);
    }

    #[test]
    fn compact_history_keeps_only_latest_outcome() {
        let mut pipe = StreamPipeline::new(StreamConfig {
            shards: 1,
            epoch: EpochPolicy::every_events(2),
            compact_history: true,
            ..Default::default()
        });
        for i in 0..6u64 {
            pipe.push(StreamEvent::new(i, tag_tuple(&[1, 9], &[1])));
        }
        let out = pipe.finish();
        assert_eq!(out.snapshots.len(), 3);
        assert!(out.snapshots[..2].iter().all(|s| s.records().is_none()));
        assert_eq!(
            out.snapshots.last().unwrap().records().as_deref(),
            Some(out.records())
        );
        // Compacted epochs still answer class queries and keep flips;
        // only their counter-store exports are gone.
        assert_eq!(out.snapshots[0].class_of(Asn(1)).tagging.code(), 't');
        assert!(!out.snapshots[0].flips.is_empty());
        assert!(out.export_epoch_db(0).is_none());
        assert!(out.export_epoch_db(2).is_some());
    }

    #[test]
    fn empty_stream_finishes_clean() {
        let out = StreamPipeline::new(StreamConfig::default()).finish();
        assert_eq!(out.total_events(), 0);
        assert_eq!(out.snapshots.len(), 1);
        assert!(out.records().is_empty());
        assert_eq!(out.export_db().lines().count(), 2, "the header only");
    }

    #[test]
    fn a_first_count_on_a_large_store_is_corrected_not_recounted() {
        // The measured trickle case: a 20 k-tuple store, and one AS (77)
        // seen once, four hops deep behind a mid (6000) nobody has seen
        // forward, so never counted. One new tuple shows 77 tagging at
        // column 3. That flips `is_tagger(77)` entering step 3.forwarding,
        // where the sealed tuple now counts 6000 as forwarding 77's tag;
        // 6000 turns `is_forward`, and column 4 counts 77 on the sealed
        // tuple too. Three ids move, a few sealed rows are re-read: every
        // unit must come from its cache, for a few hundred tuple visits
        // against the ~130 k of a recount — and each snapshot must be the
        // oracle's: a fresh pipeline fed the same events and sealed once.
        let peers = |i: u32| (10 + i % 6, 10 + (i + 1 + i / 6 % 5) % 6);
        let base = (0..20_000u32).map(|i| {
            let (p, q) = peers(i);
            let tuple = if i.is_multiple_of(3) {
                tag_tuple(&[p, q, 200_000 + i], &[p, q])
            } else {
                let mid = 1_000 + i % 400;
                tag_tuple(&[p, q, mid, 200_000 + i], &[p, q, mid])
            };
            StreamEvent::new(u64::from(i), tuple)
        });
        let lone = StreamEvent::new(20_000, tag_tuple(&[10, 11, 6_000, 77], &[10, 11, 77]));
        let first_count =
            StreamEvent::new(20_001, tag_tuple(&[12, 13, 77, 300_000], &[12, 13, 77]));
        let pipe = || {
            StreamPipeline::new(StreamConfig {
                shards: 2,
                epoch: EpochPolicy::manual(),
                ..Default::default()
            })
        };
        let mut corrected = pipe();
        let mut oracles = [pipe(), pipe()];
        corrected.push_batch(base.clone().chain([lone.clone()]));
        corrected.seal_epoch();
        corrected.push(first_count.clone());
        corrected.seal_epoch();
        for (seals, oracle) in oracles.iter_mut().enumerate() {
            oracle.push_batch(base.clone().chain([lone.clone()]));
            if seals > 0 {
                oracle.push(first_count.clone());
            }
            oracle.seal_epoch();
        }
        let (replayed, units) = corrected.last_replay();
        assert_eq!(replayed, units, "no unit recounts");
        assert_eq!(units, 2 * 2 * 4, "two shards, four columns");
        let seal = corrected.latest().unwrap().seal;
        let (corrected_units, words, rows) =
            (seal.corrected, seal.corrected_words, seal.corrected_rows);
        assert!((1..=3).contains(&corrected_units), "{corrected_units}");
        assert_eq!(words, corrected_units, "one sealed word each");
        assert!(words <= rows && rows <= 64 * words, "{rows} rows");
        let visits = seal.visited_tuples;
        assert!(visits <= 2 * rows + 8, "{visits} tuple visits");
        let recounted = &oracles[1];
        assert!(recounted.latest().unwrap().seal.visited_tuples > 100_000);
        assert_eq!(recounted.last_replay(), (0, units));
        for (a, oracle) in corrected.snapshots().iter().zip(&oracles) {
            let b = oracle.latest().unwrap();
            assert_eq!(a.classes, b.classes, "epoch {}", a.epoch);
            assert_eq!(a.records(), b.records(), "epoch {}", a.epoch);
            let (a, b) = (a.dense.as_ref().unwrap(), b.dense.as_ref().unwrap());
            assert_eq!(a.deepest_active_index, b.deepest_active_index);
        }
        assert_eq!(
            corrected.snapshots()[0].flips,
            oracles[0].latest().unwrap().flips
        );
        // The flip did what the comment says it does.
        let last = corrected.latest().unwrap();
        assert_eq!(last.class_of(Asn(77)).tagging, TaggingClass::Tagger);
        assert_eq!(last.class_of(Asn(6_000)).forwarding.code(), 'f');
        let records = last.records().unwrap();
        let at = records.binary_search_by_key(&Asn(77), |r| r.asn).unwrap();
        assert_eq!(records[at].counters.t, 2);
        assert_eq!(last.flips.len(), 2, "{:?}", last.flips);
    }

    /// A feed of `events` cut into batches of 1 to 1,500: paths over a
    /// few dozen 16- and 32-bit ASNs (the latter tag with large
    /// communities), extra large communities, a third of the events a
    /// repeat of an earlier tuple, and now and then a tuple sent twice in
    /// a row; timestamps that stand still or jump.
    fn generated_feed(rng: &mut Rng, events: u32) -> Vec<EventBatch> {
        let mut sent: Vec<PathCommTuple> = Vec::new();
        let mut feed = Vec::new();
        let mut ts = 1_000u64;
        let mut left = events;
        while left > 0 {
            let cap = [8, 64, 1_500][rng.below(3) as usize];
            let size = (1 + rng.below(cap)).min(left);
            left -= size;
            let mut batch = EventBatch::new();
            while batch.len() < size as usize {
                ts += [0, 0, 1, 3, 40][rng.below(5) as usize];
                let tuple = if !sent.is_empty() && rng.below(3) == 0 {
                    sent[rng.below(sent.len() as u32) as usize].clone()
                } else {
                    let mut hops: Vec<u32> = Vec::new();
                    for _ in 0..1 + rng.below(5) {
                        let asn = match rng.below(3) {
                            0 => 70_000 + rng.below(12),
                            _ => 10 + rng.below(30),
                        };
                        if !hops.contains(&asn) {
                            hops.push(asn);
                        }
                    }
                    let tags = hops.iter().filter(|_| rng.below(2) == 0);
                    let mut comm: Vec<AnyCommunity> =
                        tags.map(|&a| AnyCommunity::tag_for(Asn(a), 100)).collect();
                    if rng.below(4) == 0 {
                        comm.push(AnyCommunity::large(rng.below(3), 1, rng.below(2)));
                    }
                    PathCommTuple::new(path(&hops), CommunitySet::from_iter(comm))
                };
                let twice = rng.below(10) == 0 && batch.len() + 1 < size as usize;
                for _ in 0..1 + twice as usize {
                    batch.push_event(&StreamEvent::new(ts, tuple.clone()));
                }
                sent.push(tuple);
            }
            feed.push(batch);
        }
        feed
    }

    /// One generated feed through two pipelines: whole batches
    /// (`push_events`, and the owned `push_batch`) into one, one event at
    /// a time (`push_ref`, and the owned `push`) into the other. They must
    /// seal the same epochs at the same events, the batch side calling
    /// back once a seal as it happens, and end with the same shards; and
    /// a seal must hold every tuple offered up to the event that tripped
    /// it, that one included.
    fn check_batches_against_single_events(seed: u64) {
        let mut rng = Rng(seed);
        // Each policy with a feed long enough to seal a few dozen times.
        let (policy, events) = match rng.below(6) {
            0 => (EpochPolicy::every_events(1), 120),
            1 => (EpochPolicy::every_events(7), 600),
            2 => (EpochPolicy::every_events(2_000), 6_000),
            3 => (
                EpochPolicy::every_span(20 + u64::from(rng.below(400))),
                3_000,
            ),
            4 => (
                EpochPolicy::either(u64::from(1 + rng.below(300)), 200),
                3_000,
            ),
            _ => (EpochPolicy::manual(), 3_000),
        };
        let shards = [1, 2, 4, 7][rng.below(4) as usize];
        let events = 1 + rng.below(events);
        let feed = generated_feed(&mut rng, events);
        let ctx = format!("seed {seed}: {policy:?}, {shards} shards, {events} events");
        let cfg = StreamConfig {
            shards,
            epoch: policy,
            ..Default::default()
        };
        let mut batched = StreamPipeline::new(cfg.clone());
        let mut single = StreamPipeline::new(cfg);
        let mut distinct = std::collections::BTreeSet::new();
        let mut offered = 0;
        for (i, batch) in feed.iter().enumerate() {
            let mut seen = Vec::new();
            let sealed = if i % 2 == 0 {
                batched.push_events(batch, |p| {
                    seen.push(p.latest().map(|s| (s.epoch, s.total_events)));
                })
            } else {
                batched.push_batch(batch.clone())
            };
            for (k, (timestamp, tuple)) in batch.iter().enumerate() {
                let owned = tuple.to_owned();
                offered += 1;
                distinct.insert(owned.clone());
                let snap = if k % 2 == 0 {
                    single.push_ref(timestamp, tuple)
                } else {
                    single.push(StreamEvent::new(timestamp, owned))
                };
                // A seal covers the event that tripped it.
                if let Some(s) = snap {
                    let covers = (s.total_events, s.unique_tuples, s.sealed_at);
                    assert_eq!(covers, (offered, distinct.len(), timestamp), "{ctx}");
                }
            }
            let sealed_now = &single.snapshots()[single.snapshots().len() - sealed..];
            if i % 2 == 0 {
                let want: Vec<_> = sealed_now
                    .iter()
                    .map(|s| Some((s.epoch, s.total_events)))
                    .collect();
                assert_eq!(seen, want, "{ctx}: batch {i} callbacks");
            }
            assert_eq!(
                batched.snapshots().len(),
                single.snapshots().len(),
                "{ctx}: batch {i}"
            );
        }
        assert_eq!(batched.duplicates(), single.duplicates(), "{ctx}");
        assert_eq!(batched.shard_loads(), single.shard_loads(), "{ctx}");
        assert_eq!(batched.arena_hops(), single.arena_hops(), "{ctx}");
        let (a, b) = (batched.finish(), single.finish());
        assert_eq!(a.snapshots.len(), b.snapshots.len(), "{ctx}");
        for (x, y) in a.snapshots.iter().zip(&b.snapshots) {
            let ctx = format!("{ctx}, epoch {}", y.epoch);
            assert_eq!(
                (
                    x.epoch,
                    x.events,
                    x.sealed_at,
                    x.total_events,
                    x.unique_tuples
                ),
                (
                    y.epoch,
                    y.events,
                    y.sealed_at,
                    y.total_events,
                    y.unique_tuples
                ),
                "{ctx}"
            );
            assert_eq!(x.classes, y.classes, "{ctx}");
            assert_eq!(x.flips, y.flips, "{ctx}");
            assert_eq!(x.records(), y.records(), "{ctx}: counters");
        }
    }

    #[test]
    fn batches_seal_as_one_event_at_a_time() {
        for seed in 0..64 {
            check_batches_against_single_events(seed);
        }
    }

    #[test]
    #[ignore = "long: run with --release -- --ignored"]
    fn batches_seal_as_one_event_at_a_time_at_length() {
        for seed in 64..4_096 {
            check_batches_against_single_events(seed);
        }
    }

    /// The full classify loop, the oracle of [`patch_tables`]: classify
    /// every counted id of the epoch's permutation from its dense
    /// counters, flip where the class differs from the last one the id
    /// was given (`given`, by id), and slice the record table out of the
    /// columns.
    fn classify_every_id(
        dense: &DenseOutcome,
        given: &mut Vec<Class>,
    ) -> (Vec<(Asn, Class)>, Vec<ClassFlip>, Vec<DbRecord>) {
        given.resize(dense.counters.len(), Class::NONE);
        let (mut classes, mut flips) = (Vec::new(), Vec::new());
        for &(asn, id) in dense.by_asn.iter() {
            let c = dense.counters[id as usize];
            if c.is_zero() {
                continue;
            }
            let class = c.classify(&dense.thresholds);
            let was = &mut given[id as usize];
            if *was != class {
                flips.push(ClassFlip {
                    asn,
                    from: *was,
                    to: class,
                });
                *was = class;
            }
            classes.push((asn, class));
        }
        let records = bgp_infer::db::slice_records(&dense.by_asn, &dense.counters, &classes)
            .expect("the loop classes exactly the counted ids");
        (classes, flips, records)
    }

    /// What the moved-set seals of the generated worlds exercised, so a
    /// generator that stopped reaching a path fails rather than passes.
    #[derive(Debug, Default)]
    struct MovedReached {
        /// Later seals that moved some ids but not all of them.
        partial: usize,
        /// Later seals whose paths outgrew the previous deepest column
        /// (direct-mode steps past the trajectory).
        outgrown: usize,
        /// Later seals that corrected a cached step.
        corrected: usize,
        flips: usize,
    }

    /// A manually sealed pipeline of `shards` over `th`.
    fn manual(shards: usize, th: Thresholds) -> StreamPipeline {
        StreamPipeline::new(StreamConfig {
            shards,
            epoch: EpochPolicy::manual(),
            thresholds: th,
            ..Default::default()
        })
    }

    /// Seal `pipe`'s epoch and check the class table, flips and record
    /// table it patched at its moved ids against the full loop over the
    /// same dense counters. Returns the sealed snapshot and how many ids
    /// it moved.
    fn seal_checked(
        pipe: &mut StreamPipeline,
        given: &mut Vec<Class>,
        ctx: &str,
    ) -> (Arc<EpochSnapshot>, usize) {
        let sealed = Arc::clone(pipe.seal_epoch());
        let dense = sealed.dense.as_ref().expect("latest keeps its columns");
        let (classes, flips, records) = classify_every_id(dense, given);
        assert_eq!(*sealed.classes, classes, "{ctx}: classes");
        assert_eq!(*sealed.flips, flips, "{ctx}: flips");
        assert_eq!(*dense.records, records, "{ctx}: records");
        let moved = sealed.seal.moved as usize;
        if sealed.epoch == 0 {
            assert_eq!(
                moved,
                classes.len(),
                "{ctx}: a first seal moves what it counted"
            );
        }
        (sealed, moved)
    }

    /// One [`followed_feed`] sealed epoch by epoch through pipelines of
    /// 1, 2 and 4 shards. After every seal the class table, flips and
    /// record table each seal patched at its moved ids must be the full
    /// loop's over the same dense counters, and its classes and records
    /// those of the oracle: a fresh pipeline fed every tuple so far and
    /// sealed once, itself held to the full loop.
    fn check_moved_set_seals(seed: u64, reached: &mut MovedReached) {
        let FollowedFeed { th, epochs } = followed_feed(seed);
        let mut pipes: Vec<_> = [1usize, 2, 4]
            .map(|shards| (manual(shards, th), Vec::new(), 0))
            .into();
        for (epoch, batch) in epochs.iter().enumerate() {
            let event = |t: &PathCommTuple| StreamEvent::new(0, t.clone());
            let mut fresh = manual(1, th);
            fresh.push_batch(epochs[..=epoch].iter().flatten().map(event));
            let ctx = format!("seed {seed}, epoch {epoch}");
            let (want, ..) = seal_checked(&mut fresh, &mut Vec::new(), &ctx);
            for (pipe, given, longest) in &mut pipes {
                let ctx = format!("{ctx}, {} shards", pipe.shards.shard_count());
                pipe.push_batch(batch.iter().map(event));
                let (sealed, moved) = seal_checked(pipe, given, &ctx);
                assert_eq!(sealed.classes, want.classes, "{ctx}: oracle classes");
                assert_eq!(sealed.records(), want.records(), "{ctx}: oracle records");
                if epoch > 0 {
                    let ids = pipe.interned_asns();
                    reached.partial += (0 < moved && moved < ids) as usize;
                    reached.outgrown += (pipe.shards.max_path_len() > *longest) as usize;
                    reached.corrected += (sealed.seal.corrected > 0) as usize;
                }
                reached.flips += sealed.flips.len();
                *longest = pipe.shards.max_path_len();
            }
        }
    }

    fn check_moved_set_worlds(seeds: std::ops::Range<u64>) {
        let mut reached = MovedReached::default();
        for seed in seeds {
            check_moved_set_seals(seed, &mut reached);
        }
        assert!(
            reached.partial > 0
                && reached.outgrown > 0
                && reached.corrected > 0
                && reached.flips > 0,
            "{reached:?}"
        );
    }

    #[test]
    fn moved_set_seals_match_the_full_loop() {
        check_moved_set_worlds(0..64);
    }

    #[test]
    #[ignore = "long: run with --release -- --ignored"]
    fn moved_set_seals_match_the_full_loop_at_length() {
        check_moved_set_worlds(64..2_064);
    }

    #[test]
    fn a_trickle_seal_moves_a_few_ids_not_the_id_space() {
        // A 50 k-tuple store over ~50 k ASes (six peers, 400 mids and an
        // origin a tuple), then one 256-tuple seal: new origins behind
        // known peers and mids. What moves is the new origins and the
        // few known ids whose counters their tuples change. A seal that
        // went back to classifying every id would report ~50 k.
        let peers = |i: u32| (10 + i % 6, 10 + (i + 1 + i / 6 % 5) % 6);
        let tuple = |i: u32, origin: u32| {
            let (p, q) = peers(i);
            if i.is_multiple_of(3) {
                tag_tuple(&[p, q, origin], &[p, q])
            } else {
                let mid = 1_000 + i % 400;
                tag_tuple(&[p, q, mid, origin], &[p, q, mid])
            }
        };
        let mut pipe = manual(2, Thresholds::default());
        pipe.push_batch((0..50_000).map(|i| StreamEvent::new(u64::from(i), tuple(i, 200_000 + i))));
        let first = pipe.seal_epoch();
        let counted = first.classes.len();
        // A first seal moves the ids it counted, not every interned one.
        assert_eq!(first.seal.moved as usize, counted);
        assert!(counted < pipe.interned_asns(), "{counted} counted");
        pipe.push_batch((0..256).map(|i| StreamEvent::new(50_000, tuple(i * 7, 400_000 + i))));
        let moved = pipe.seal_epoch().seal.moved;
        let ids = pipe.interned_asns();
        assert!(ids > 50_000, "{ids} ids");
        // 262 when this was written: the 256 new origins and six more.
        assert!((256..=300).contains(&moved), "{moved} of {ids} ids moved");
        assert_eq!(
            pipe.last_replay().0,
            pipe.last_replay().1,
            "every unit replayed"
        );
    }

    #[test]
    fn seal_timings_are_recorded() {
        let mut pipe = StreamPipeline::new(StreamConfig {
            shards: 1,
            epoch: EpochPolicy::manual(),
            ..Default::default()
        });
        for i in 0..50u64 {
            pipe.push(StreamEvent::new(
                i,
                tag_tuple(&[2 + (i % 5) as u32, 9], &[2 + (i % 5) as u32]),
            ));
        }
        let snap = pipe.seal_epoch();
        assert!(snap.seal_nanos > 0);
        assert!(snap.seal_nanos >= snap.count_nanos);
    }

    /// The stage names of `runs`, in order.
    fn stages(runs: &[obs::StageRun]) -> Vec<&'static str> {
        runs.iter().map(|r| r.stage).collect()
    }

    /// An epoch's trace rows, read off the sealed epoch, each dated where
    /// it ran: `ingest` ends where the seal starts, and `shard_count` and
    /// `shard_merge` sum over the recount's interleaved steps, so both
    /// start where the recount starts, inside the `seal` row's span.
    #[test]
    fn seal_rows_are_dated_where_they_ran() {
        let mut pipe = manual(2, Thresholds::default());
        for i in 0..2_000u32 {
            let tags = [2 + i % 7, 100 + i % 13];
            let p = [tags[0], tags[1], 1_000 + i];
            pipe.push(StreamEvent::new(u64::from(i), tag_tuple(&p, &tags)));
        }
        let sealed = Arc::clone(pipe.seal_epoch());
        assert_ne!(sealed.seal.kind, SealKind::ZeroDelta);
        let runs = sealed.stage_runs();
        assert_eq!(
            stages(&runs),
            ["ingest", "seal", "shard_count", "shard_merge"]
        );
        let span = |r: &obs::StageRun| (r.started, r.started + Duration::from_nanos(r.nanos));
        let (ingest, seal, count, merge) = (
            span(&runs[0]),
            span(&runs[1]),
            span(&runs[2]),
            span(&runs[3]),
        );
        assert!(ingest.1 <= seal.0, "{runs:?}");
        assert_eq!(runs[0].counters, [("batches", 2_000), ("events", 2_000)]);
        assert_eq!(count.0, merge.0, "{runs:?}");
        for (start, end) in [count, merge] {
            assert!(seal.0 <= start && end <= seal.1, "{runs:?}");
        }
        // A zero-delta seal counts nothing: no count or merge row, and an
        // ingest row of nothing, ending where the seal starts.
        let runs = pipe.seal_epoch().stage_runs();
        assert_eq!(stages(&runs), ["ingest", "seal"]);
        assert_eq!(runs[0].counters, [("batches", 0), ("events", 0)]);
        assert_eq!(span(&runs[0]).1, runs[1].started);

        // Batches of 4 into epochs of 6: the second batch is cut, two of
        // its events in each epoch, and each epoch's ingest row counts
        // its own six events, brought by two pushes.
        let mut pipe = StreamPipeline::new(StreamConfig {
            shards: 1,
            epoch: EpochPolicy::every_events(6),
            ..Default::default()
        });
        for b in 0..3u32 {
            let batch = (4 * b..4 * b + 4)
                .map(|i| StreamEvent::new(u64::from(i), tag_tuple(&[2, 9, 100 + i], &[2])));
            pipe.push_batch(batch);
        }
        assert_eq!(pipe.snapshots().len(), 2);
        for sealed in pipe.snapshots() {
            let runs = sealed.stage_runs();
            assert_eq!(runs[0].stage, "ingest");
            assert_eq!(sealed.events, 6);
            assert_eq!(
                runs[0].counters,
                [("batches", 2), ("events", sealed.events)]
            );
            assert!(
                span(&runs[0]).1 <= runs[1].started,
                "epoch {}",
                sealed.epoch
            );
        }
    }
}
