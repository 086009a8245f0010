//! The coordinator: ingest → shard → epoch, in one push-driven object.

use crate::epoch::{ClassFlip, EpochPolicy, EpochSnapshot};
use crate::ingest::{IngestError, StreamEvent, TupleSource};
use crate::outcome::StreamOutcome;
use crate::shard::ShardSet;
use bgp_infer::classify::Class;
use bgp_infer::compiled::DenseOutcome;
use bgp_infer::counters::Thresholds;
use bgp_types::prelude::*;
use obs::trace::TraceStore;
use obs::Histogram;
use std::sync::Arc;
use std::time::Instant;

/// Configuration of a streaming inference run.
#[derive(Debug, Clone)]
pub struct StreamConfig {
    /// Shards: how tuples are partitioned for deduplication, step
    /// caching and load reporting. A seal counts them in turn on the
    /// sealing thread.
    pub shards: usize,
    /// When to seal epochs.
    pub epoch: EpochPolicy,
    /// Classification thresholds (shared with the batch engine).
    pub thresholds: Thresholds,
    /// Optional cap on the deepest path column processed.
    pub max_index: Option<usize>,
    /// Enforce Cond1 (clean upstream) — see `InferenceConfig`.
    pub enforce_cond1: bool,
    /// Enforce Cond2 (visible downstream tagger) — see `InferenceConfig`.
    pub enforce_cond2: bool,
    /// Deduplicate identical tuples (the paper's `TupleSet` semantics).
    /// Disable to mirror a batch run over a raw (non-deduplicated) slice.
    pub dedup: bool,
    /// Keep only the latest snapshot's full counter state, dropping the
    /// dense outcome of older epochs as new ones seal. Classes and flips
    /// are kept for every epoch either way; what compaction costs is
    /// [`StreamOutcome::export_epoch_db`]/`reclassify` on *historical*
    /// epochs. On a long-lived stream the history would otherwise grow by
    /// a full per-AS counter column every epoch, without bound.
    pub compact_history: bool,
    /// Reuse the previous seal's per-(shard, column, phase) deltas when
    /// recounting an epoch, so seal cost scales with the tuples added
    /// since the last seal instead of the whole store (byte-identical to
    /// a full recount; see `crate::shard`). Disable to force full
    /// recounts.
    pub incremental_seal: bool,
    /// Provenance store to record per-epoch stage timelines into
    /// (shard counting, merge, seal; owners of the pipeline add ingest,
    /// publish, and archive stages around it). `None` disables tracing.
    pub trace: Option<Arc<TraceStore>>,
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig {
            shards: 4,
            epoch: EpochPolicy::default(),
            thresholds: Thresholds::default(),
            max_index: None,
            enforce_cond1: true,
            enforce_cond2: true,
            dedup: true,
            compact_history: false,
            incremental_seal: true,
            trace: None,
        }
    }
}

/// The kinds of seal, as `bgp_stream_seal_duration_seconds{kind=…}`
/// labels them; an index into this table is what the `seal` trace row
/// carries as its `kind` counter and the `stream` debug line spells out.
const SEAL_KINDS: [&str; 3] = ["zero_delta", "incremental", "full"];

/// Push-driven streaming inference.
///
/// Feed borrowed events with [`push_ref`](StreamPipeline::push_ref),
/// owned ones with [`push`](StreamPipeline::push) /
/// [`push_batch`](StreamPipeline::push_batch), or drain a whole
/// [`TupleSource`] with [`drive`](StreamPipeline::drive); epochs seal
/// automatically per the [`EpochPolicy`], and [`finish`](StreamPipeline::finish)
/// seals the trailing partial epoch and returns the [`StreamOutcome`].
#[derive(Debug)]
pub struct StreamPipeline {
    cfg: StreamConfig,
    shards: ShardSet,
    snapshots: Vec<Arc<EpochSnapshot>>,
    /// Classification as of the previous seal, indexed by interned id —
    /// the dense diff source for flip computation.
    prev_classes: Vec<Class>,
    /// `(asn, id)` pairs sorted by ASN, covering ids `< perm_len`;
    /// extended by merge whenever the shared interner grew.
    by_asn: Arc<Vec<(Asn, AsnId)>>,
    perm_len: usize,
    events_in_epoch: u64,
    total_events: u64,
    epoch_start_ts: Option<u64>,
    last_ts: u64,
    /// Seal-stage histograms by kind (one per [`SEAL_KINDS`] entry) plus
    /// the whole-recount histogram, resolved once from the global
    /// registry so sealing records with pure atomics.
    seal_hists: [Arc<Histogram>; 3],
    recount_hist: Arc<Histogram>,
    /// What [`push`](Self::push) encodes its owned tuple into.
    buf: TupleBuf,
}

impl StreamPipeline {
    /// New pipeline.
    pub fn new(cfg: StreamConfig) -> Self {
        let shards = ShardSet::new(cfg.shards, cfg.dedup, cfg.incremental_seal);
        let reg = obs::global();
        let seal_help = "Wall time of one epoch seal";
        let seal_hists = SEAL_KINDS.map(|kind| {
            reg.histogram(
                "bgp_stream_seal_duration_seconds",
                seal_help,
                &[("kind", kind)],
            )
        });
        let recount_hist = reg.histogram(
            "bgp_stream_recount_duration_seconds",
            "Wall time of the whole recount of one sealed epoch",
            &[],
        );
        if let Some(trace) = &cfg.trace {
            trace.set_active(0);
        }
        StreamPipeline {
            cfg,
            shards,
            snapshots: Vec::new(),
            prev_classes: Vec::new(),
            by_asn: Arc::new(Vec::new()),
            perm_len: 0,
            events_in_epoch: 0,
            total_events: 0,
            epoch_start_ts: None,
            last_ts: 0,
            seal_hists,
            recount_hist,
            buf: TupleBuf::new(),
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

    /// Distinct ASNs in the workspace-shared interner (one id space for
    /// all shards — an AS spanning shards counts once).
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

    /// `(replayed, total)` (shard, step) counting units of the last
    /// epoch recount — how much of the seal was served from cached step
    /// deltas (`(0, 0)` before any seal or after an O(1) re-seal).
    pub fn last_replay(&self) -> (usize, usize) {
        self.shards.last_replay()
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

    /// Ingest one event, its tuple borrowed (from an
    /// [`EventBatch`](crate::ingest::EventBatch), typically) and copied
    /// only if it is new. Returns the snapshot sealed by this event, if
    /// the epoch policy tripped.
    pub fn push_ref(&mut self, timestamp: u64, tuple: TupleRef<'_>) -> Option<&Arc<EpochSnapshot>> {
        self.shards.push(tuple);
        self.event_pushed(timestamp)
    }

    /// [`push_ref`](Self::push_ref) for an owned event, encoded into the
    /// pipeline's reused buffer first.
    pub fn push(&mut self, ev: StreamEvent) -> Option<&Arc<EpochSnapshot>> {
        self.shards.push(self.buf.encode_tuple(&ev.tuple));
        self.event_pushed(ev.timestamp)
    }

    /// Account for the event just offered to the shards and seal if the
    /// epoch policy trips on it.
    fn event_pushed(&mut self, timestamp: u64) -> Option<&Arc<EpochSnapshot>> {
        self.epoch_start_ts.get_or_insert(timestamp);
        self.last_ts = timestamp;
        self.total_events += 1;
        self.events_in_epoch += 1;

        let span = self
            .last_ts
            .saturating_sub(self.epoch_start_ts.unwrap_or(self.last_ts));
        if self.cfg.epoch.should_seal(self.events_in_epoch, span) {
            Some(self.seal_epoch())
        } else {
            None
        }
    }

    /// Ingest a batch; returns how many epochs sealed.
    pub fn push_batch(&mut self, events: impl IntoIterator<Item = StreamEvent>) -> usize {
        let before = self.snapshots.len();
        for ev in events {
            self.push(ev);
        }
        self.snapshots.len() - before
    }

    /// Drain a source to exhaustion in `batch`-sized pulls. Returns how
    /// many epochs sealed. Errors stop ingestion at the failing record
    /// (everything already pushed stays counted).
    pub fn drive(
        &mut self,
        source: &mut dyn TupleSource,
        batch: usize,
    ) -> Result<usize, IngestError> {
        let before = self.snapshots.len();
        loop {
            let events = source.next_batch(batch.max(1))?;
            if events.is_empty() {
                break;
            }
            for (timestamp, tuple) in events.iter() {
                self.push_ref(timestamp, tuple);
            }
        }
        Ok(self.snapshots.len() - before)
    }

    /// Extend the Asn-sorted id permutation with any ids interned since
    /// the last seal (a sorted merge of the old table with the new tail).
    fn refresh_by_asn(&mut self) {
        let n = self.shards.interned_asns();
        if n == self.perm_len {
            return;
        }
        let interner = self.shards.interner();
        let mut fresh: Vec<(Asn, AsnId)> = interner
            .range(self.perm_len as AsnId, n as AsnId)
            .map(|(id, asn)| (asn, id))
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
    /// steps replayed where valid, shards counted in turn), classify over
    /// the dense columns, and diff against the previous snapshot by
    /// interned id. When nothing was stored since the previous seal the
    /// new snapshot shares its predecessor's dense state wholesale —
    /// an O(1) re-seal. Idempotent on an empty epoch only in the sense
    /// that it still produces a (possibly flip-free) snapshot.
    pub fn seal_epoch(&mut self) -> &Arc<EpochSnapshot> {
        let t_seal = Instant::now();
        let epoch = self.snapshots.len() as u64;
        let zero_delta = self.shards.unchanged_since_seal();
        let mut snapshot = if zero_delta {
            // O(1) fast path: identical tuple set => identical counters,
            // classes, and (empty) flip set. Share every component.
            self.shards.clear_replay_stats();
            let prev = self.snapshots.last().expect("unchanged implies a seal");
            EpochSnapshot::assemble(
                epoch,
                self.last_ts,
                self.events_in_epoch,
                self.total_events,
                self.shards.stored_tuples(),
                prev.dense
                    .clone()
                    .expect("latest snapshot is never compacted"),
                Arc::clone(&prev.classes),
                Arc::new(Vec::new()),
            )
        } else {
            let t_count = Instant::now();
            let (counters, deepest_active_index) = self.shards.recount(
                &self.cfg.thresholds,
                self.cfg.max_index,
                self.cfg.enforce_cond1,
                self.cfg.enforce_cond2,
            );
            let count_nanos = t_count.elapsed().as_nanos() as u64;
            self.recount_hist.record(count_nanos);
            self.refresh_by_asn();
            let counters = Arc::new(counters.into_counts());
            let th = self.cfg.thresholds;
            self.prev_classes.resize(self.perm_len, Class::NONE);
            let mut classes = Vec::new();
            let mut flips = Vec::new();
            for &(asn, id) in self.by_asn.iter() {
                let c = counters[id as usize];
                if c.is_zero() {
                    continue;
                }
                let class = c.classify(&th);
                let prev = self.prev_classes[id as usize];
                if prev != class {
                    flips.push(ClassFlip {
                        asn,
                        from: prev,
                        to: class,
                    });
                    self.prev_classes[id as usize] = class;
                }
                classes.push((asn, class));
            }
            let dense = DenseOutcome {
                interner: Arc::clone(self.shards.interner()),
                counters,
                by_asn: Arc::clone(&self.by_asn),
                thresholds: th,
                deepest_active_index,
            };
            let mut snap = EpochSnapshot::assemble(
                epoch,
                self.last_ts,
                self.events_in_epoch,
                self.total_events,
                self.shards.stored_tuples(),
                dense,
                Arc::new(classes),
                Arc::new(flips),
            );
            snap.count_nanos = count_nanos;
            snap
        };
        self.events_in_epoch = 0;
        self.epoch_start_ts = None;
        if self.cfg.compact_history {
            if let Some(prev) = self.snapshots.last_mut() {
                // A shared snapshot (e.g. one a serving layer still
                // publishes) is cloned before stripping, so external
                // holders keep their full counter state; only the
                // pipeline's history copy is compacted.
                Arc::make_mut(prev).compact();
            }
        }
        snapshot.seal_nanos = t_seal.elapsed().as_nanos() as u64;
        let (replayed, total) = self.shards.last_replay();
        let (corrected, corrected_words) = self.shards.last_corrected();
        let kind = if zero_delta {
            0
        } else if replayed > 0 {
            1
        } else {
            2
        };
        self.seal_hists[kind].record(snapshot.seal_nanos);
        obs::debug!(
            "stream",
            "sealed epoch {epoch} kind={} events={} tuples={} flips={} replayed={replayed}/{total} corrected={corrected} corrected_words={corrected_words} seal_nanos={} count_nanos={}",
            SEAL_KINDS[kind],
            snapshot.events,
            snapshot.unique_tuples,
            snapshot.flips.len(),
            snapshot.seal_nanos,
            snapshot.count_nanos
        );
        if let Some(trace) = &self.cfg.trace {
            if !zero_delta {
                trace.record(
                    epoch,
                    "shard_count",
                    self.shards.last_count_nanos(),
                    &[("steps", total as u64)],
                );
                trace.record(epoch, "shard_merge", self.shards.last_merge_nanos(), &[]);
            }
            // `kind` indexes `SEAL_KINDS`; `replayed` counts the units
            // answered from their cache, `corrected` those of them whose
            // cache was first corrected over `corrected_words` words;
            // `visited_tuples` is what all of it read, step by step.
            trace.record(
                epoch,
                "seal",
                snapshot.seal_nanos,
                &[
                    ("events", snapshot.events),
                    ("tuples", snapshot.unique_tuples as u64),
                    ("replayed", replayed as u64),
                    ("corrected", corrected as u64),
                    ("corrected_words", corrected_words as u64),
                    ("total_steps", total as u64),
                    ("visited_tuples", self.shards.last_visits() as u64),
                    ("kind", kind as u64),
                ],
            );
            // Later batches belong to the next epoch's timeline.
            trace.set_active(epoch + 1);
        }
        self.snapshots.push(Arc::new(snapshot));
        self.snapshots.last().expect("just pushed")
    }

    /// Seal any trailing partial epoch and return the final outcome.
    pub fn finish(mut self) -> StreamOutcome {
        if self.events_in_epoch > 0 || self.snapshots.is_empty() {
            self.seal_epoch();
        }
        let last = self.snapshots.last().expect("finish always seals once");
        StreamOutcome {
            outcome: last
                .outcome()
                .cloned()
                .expect("latest snapshot is never compacted"),
            total_events: self.total_events,
            unique_tuples: self.shards.stored_tuples(),
            duplicates: self.shards.duplicates(),
            shard_loads: self.shards.shard_loads(),
            snapshots: self.snapshots,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ingest::StreamEvent;
    use bgp_infer::classify::TaggingClass;

    fn tag_tuple(p: &[u32], uppers: &[u32]) -> PathCommTuple {
        PathCommTuple::new(
            path(p),
            CommunitySet::from_iter(uppers.iter().map(|&u| AnyCommunity::tag_for(Asn(u), 100))),
        )
    }

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
        assert_eq!(out.total_events, 12);
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
            dedup: true,
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
        assert!(out.snapshots[..2].iter().all(|s| s.outcome().is_none()));
        assert!(out.snapshots.last().unwrap().outcome().is_some());
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
        assert_eq!(out.total_events, 0);
        assert_eq!(out.snapshots.len(), 1);
        assert!(out.outcome.counters.is_empty());
    }

    #[test]
    fn a_first_count_on_a_large_store_is_corrected_not_recounted() {
        // The measured trickle case: a 20 k-tuple store, and one AS (77)
        // seen once, four hops deep behind a mid (6000) nobody has seen
        // forward, so never counted. One new tuple shows 77 tagging at
        // column 3. That flips `is_tagger(77)` entering step 3.forwarding,
        // where the sealed tuple now counts 6000 as forwarding 77's tag;
        // 6000 turns `is_forward`, and column 4 counts 77 on the sealed
        // tuple too. Three ids move, one sealed word is re-read: every
        // unit must come from its cache, for a few hundred tuple visits
        // against the ~130 k of a recount — and the snapshots must be the
        // ones full recounts give.
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
        let run = |incremental_seal: bool| {
            let mut pipe = StreamPipeline::new(StreamConfig {
                shards: 2,
                epoch: EpochPolicy::manual(),
                incremental_seal,
                ..Default::default()
            });
            pipe.push_batch(base.clone().chain([lone.clone()]));
            pipe.seal_epoch();
            pipe.push(first_count.clone());
            pipe.seal_epoch();
            pipe
        };
        let corrected = run(true);
        let recounted = run(false);
        let (replayed, units) = corrected.last_replay();
        assert_eq!(replayed, units, "no unit recounts");
        assert_eq!(units, 2 * 2 * 4, "two shards, four columns");
        let (corrected_units, words) = corrected.shards.last_corrected();
        assert!((1..=3).contains(&corrected_units), "{corrected_units}");
        assert_eq!(words, corrected_units, "one sealed word each");
        let visits = corrected.shards.last_visits();
        assert!(visits <= 2 * 64 * words + 8, "{visits} tuple visits");
        assert!(recounted.shards.last_visits() > 100_000);
        assert_eq!(recounted.last_replay(), (0, units));
        for (a, b) in corrected.snapshots().iter().zip(recounted.snapshots()) {
            assert_eq!(a.classes, b.classes, "epoch {}", a.epoch);
            assert_eq!(a.flips, b.flips, "epoch {}", a.epoch);
            let (a, b) = (a.dense.as_ref().unwrap(), b.dense.as_ref().unwrap());
            assert_eq!(a.counters, b.counters);
            assert_eq!(a.deepest_active_index, b.deepest_active_index);
        }
        // The flip did what the comment says it does.
        let last = corrected.latest().unwrap();
        assert_eq!(last.class_of(Asn(77)).tagging, TaggingClass::Tagger);
        assert_eq!(last.class_of(Asn(6_000)).forwarding.code(), 'f');
        assert_eq!(last.dense.as_ref().unwrap().lookup(Asn(77)).unwrap().t, 2);
        assert_eq!(last.flips.len(), 2, "{:?}", last.flips);
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
}
