//! Epoch layer: when to seal, and what a sealed epoch publishes.
//!
//! The coordinator cuts the stream into *epochs* — by ingested event
//! count, by stream-time span, or whichever trips first — and publishes an
//! [`EpochSnapshot`] per epoch: a monotonically versioned classification
//! of every counted AS plus the [`ClassFlip`]s since the previous
//! snapshot. Downstream consumers (alerting on a neighbor that stopped
//! forwarding, dashboards, the `bgp-stream-infer` binary) watch the flip
//! stream instead of diffing full databases.
//!
//! A snapshot's state is **dense**: a [`DenseOutcome`] holding the
//! `Arc`'d counter column over the shards' one id space, the Asn-sorted
//! id permutation and the record table, beside the seal-time class
//! table. Classes and flips are `Arc`'d too, so an epoch that sealed
//! without new evidence shares every component of its predecessor at
//! pointer-copy cost. The seal builds the class and record tables by
//! patching its predecessor's at the ids that moved (see
//! `StreamPipeline::seal_epoch`); a reader copies the record table out
//! with [`EpochSnapshot::records`]. There is no sparse view, lazy or
//! otherwise.
//!
//! What the seal measured is part of the epoch too: its
//! [`IngestStats`] (dedup hits, interned ASNs, arena hops, replayed and
//! total recount units, shard loads — the counts the archive keeps) and
//! its [`SealStats`] (seal kind, corrections, tuple visits, moved ids,
//! count and merge time — not archived) are captured at the seal and
//! read from the epoch by whoever publishes, archives or traces it, so
//! an epoch published late still reports its own numbers, never those
//! of a later seal.
//!
//! So are the instants its trace rows are dated by ([`EpochInstants`]:
//! the epoch's first push, the seal's start and the recount's start)
//! and how many pushes filled it. The seal writes no trace row:
//! [`EpochSnapshot::stage_runs`] builds the `ingest`, `seal`,
//! `shard_count` and `shard_merge` rows from what the epoch carries,
//! and whoever publishes the epoch puts them in a trace store, once.
//!
//! `dense` is `None` in two cases. A **compacted** epoch (see
//! `StreamConfig::compact_history`) is a pipeline history entry whose
//! counters were dropped once a later epoch sealed; it keeps classes and
//! flips. A **restored** epoch ([`EpochSnapshot::restored`]) never had
//! columns: the archive restore slices its record table from the archive
//! and keeps only the header, classes and flips here. A restored epoch
//! carries no [`EpochInstants`] either: its timeline is the archive's.

use bgp_infer::classify::Class;
use bgp_infer::compiled::DenseOutcome;
use bgp_infer::db::DbRecord;
use bgp_types::prelude::*;
use obs::StageRun;
use std::sync::Arc;
use std::time::Instant;

/// When the pipeline seals the running epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EpochPolicy {
    /// Seal after this many ingested events (dedup hits included — they
    /// are stream progress even when they add no tuple). `None` disables.
    pub max_events: Option<u64>,
    /// Seal when an event's timestamp is at least this many seconds past
    /// the epoch's first event. `None` disables.
    pub max_span_secs: Option<u64>,
}

impl EpochPolicy {
    /// Seal every `n` events.
    pub fn every_events(n: u64) -> Self {
        EpochPolicy {
            max_events: Some(n.max(1)),
            max_span_secs: None,
        }
    }

    /// Seal every `secs` of stream time.
    pub fn every_span(secs: u64) -> Self {
        EpochPolicy {
            max_events: None,
            max_span_secs: Some(secs.max(1)),
        }
    }

    /// Seal on whichever of the two triggers first.
    pub fn either(events: u64, secs: u64) -> Self {
        EpochPolicy {
            max_events: Some(events.max(1)),
            max_span_secs: Some(secs.max(1)),
        }
    }

    /// The CLIs' `-e N` / `--epoch-secs S`: seal on whichever limit is
    /// given (on the first to trip when both are), and on the default
    /// policy when neither is.
    pub fn from_limits(events: Option<u64>, secs: Option<u64>) -> Self {
        match (events, secs) {
            (Some(e), Some(s)) => EpochPolicy::either(e, s),
            (Some(e), None) => EpochPolicy::every_events(e),
            (None, Some(s)) => EpochPolicy::every_span(s),
            (None, None) => EpochPolicy::default(),
        }
    }

    /// Never seal automatically (single epoch at `finish`).
    pub fn manual() -> Self {
        EpochPolicy {
            max_events: None,
            max_span_secs: None,
        }
    }

    /// Whether the running epoch should seal given its event count and
    /// the span between its first and latest event timestamps.
    pub fn should_seal(&self, events_in_epoch: u64, span_secs: u64) -> bool {
        self.max_events.is_some_and(|m| events_in_epoch >= m)
            || self.max_span_secs.is_some_and(|m| span_secs >= m)
    }
}

impl Default for EpochPolicy {
    fn default() -> Self {
        EpochPolicy::every_events(8_192)
    }
}

/// One AS whose classification changed between consecutive snapshots.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClassFlip {
    /// The AS.
    pub asn: Asn,
    /// Class in the previous snapshot ([`Class::NONE`] when newly seen).
    pub from: Class,
    /// Class in this snapshot.
    pub to: Class,
}

impl std::fmt::Display for ClassFlip {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} {}->{}", self.asn, self.from, self.to)
    }
}

/// What a seal measured of the stream behind it, captured at the seal:
/// the counts an epoch is archived with (`bgp_archive`'s `SegmentStats`
/// is this type) and served with (`/v1/stats`).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IngestStats {
    /// Dedup hits observed since the stream began.
    pub duplicates: u64,
    /// Distinct ASNs in the shards' one interner.
    pub interned_asns: u64,
    /// Total path positions in the shard id arenas.
    pub arena_hops: u64,
    /// (shard, step) counting units of the seal's recount served from
    /// their cached step.
    pub replayed_steps: u64,
    /// (shard, step) counting units of the seal's recount (0 when the
    /// seal recounted nothing).
    pub total_steps: u64,
    /// Stored-tuple count per shard.
    pub shard_loads: Vec<u64>,
}

/// How a seal counted: the `kind` label of
/// `bgp_stream_seal_duration_seconds`, and (as its index in
/// [`SealKind::ALL`]) the `seal` trace row's `kind` counter.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum SealKind {
    /// Nothing was stored since the previous seal: its state is shared
    /// whole and nothing is counted.
    #[default]
    ZeroDelta,
    /// Some (shard, step) units were served from their cached step.
    Incremental,
    /// Every unit was recounted: a first seal, or nothing replayed.
    Full,
}

impl SealKind {
    /// Every kind, in label-index order.
    pub const ALL: [SealKind; 3] = [SealKind::ZeroDelta, SealKind::Incremental, SealKind::Full];

    /// The metric label.
    pub fn label(self) -> &'static str {
        ["zero_delta", "incremental", "full"][self as usize]
    }
}

/// What a seal's recount did besides the [`IngestStats`] counts: not
/// archived. The default is what a zero-delta seal measures (nothing);
/// a restored epoch carries it too.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SealStats {
    /// How the seal counted.
    pub kind: SealKind,
    /// Replayed units whose cached step was corrected first.
    pub corrected: u64,
    /// The 64-tuple words holding the rows re-evaluated to correct them.
    pub corrected_words: u64,
    /// Those rows (each evaluated twice).
    pub corrected_rows: u64,
    /// Tuples the recount visited, summed over its steps: whole buckets
    /// where a shard recounted, dirty suffixes where it replayed, two
    /// visits per corrected row.
    pub visited_tuples: u64,
    /// Ids the seal classified and patched (the recount's moved set).
    pub moved: u64,
    /// Shard-counting nanoseconds, summed across shards and steps.
    pub shard_count_nanos: u64,
    /// Dense-merge nanoseconds, summed across steps.
    pub merge_nanos: u64,
}

/// When a live epoch filled and sealed: what its trace rows are dated
/// by (see [`EpochSnapshot::stage_runs`]).
#[derive(Debug, Clone, Copy)]
pub struct EpochInstants {
    /// The epoch's first push (the seal's start when nothing was
    /// pushed): where its `ingest` row starts.
    pub t_first_push: Instant,
    /// Pushes that brought the epoch's events; a batch a seal cuts
    /// counts in the epoch on either side of the cut.
    pub pushes: u64,
    /// The seal's start.
    pub t_seal: Instant,
    /// The recount's start; `None` for a zero-delta seal, which counted
    /// nothing.
    pub t_count: Option<Instant>,
}

/// The published state of one sealed epoch.
#[derive(Debug, Clone)]
pub struct EpochSnapshot {
    /// 0-based epoch sequence number.
    pub epoch: u64,
    /// Monotonically increasing classification version (`epoch + 1`;
    /// version 0 is "nothing classified yet").
    pub version: u64,
    /// Timestamp of the last event ingested before sealing.
    pub sealed_at: u64,
    /// Events ingested during this epoch (including dedup hits).
    pub events: u64,
    /// Events ingested since the stream began.
    pub total_events: u64,
    /// Unique tuples stored across all shards at seal time.
    pub unique_tuples: usize,
    /// The dense inference state — counter column over the shared id
    /// space, Asn-sorted permutation, thresholds. `None` once the
    /// snapshot has been compacted (see `StreamConfig::compact_history`):
    /// a long-lived stream keeps every epoch's classes and flips, but
    /// only the latest epoch's counters. Also `None` on a restored
    /// snapshot (see [`restored`](EpochSnapshot::restored)).
    pub dense: Option<DenseOutcome>,
    /// Classification of every counted AS, sorted by ASN. Shared with the
    /// previous snapshot when nothing changed.
    pub classes: Arc<Vec<(Asn, Class)>>,
    /// ASes whose class changed since the previous snapshot, sorted by
    /// ASN. `Arc`'d so the serving layer's flip log can retain epochs as
    /// zero-copy chunks.
    pub flips: Arc<Vec<ClassFlip>>,
    /// Wall-clock nanoseconds the seal took (recount + snapshot build).
    pub seal_nanos: u64,
    /// Wall-clock nanoseconds of the counting (recount) portion alone;
    /// 0 when the seal reused the previous epoch wholesale.
    pub count_nanos: u64,
    /// The stream's counts at this seal (archived with the epoch).
    pub ingest: IngestStats,
    /// The rest of what this seal measured (not archived).
    pub seal: SealStats,
    /// When the epoch filled and sealed (not archived); `None` on a
    /// restored snapshot.
    pub instants: Option<EpochInstants>,
}

impl EpochSnapshot {
    /// Rebuild a snapshot's header from durable state — the archive
    /// restore path. It takes the persisted timing fields and ingest
    /// stats verbatim, carries the default [`SealStats`] and no
    /// [`EpochInstants`] (neither is archived) and no counter columns
    /// (`dense` is `None`): whoever restores an epoch builds its record
    /// table from the archive itself.
    #[allow(clippy::too_many_arguments)]
    pub fn restored(
        epoch: u64,
        sealed_at: u64,
        events: u64,
        total_events: u64,
        unique_tuples: usize,
        classes: Arc<Vec<(Asn, Class)>>,
        flips: Arc<Vec<ClassFlip>>,
        seal_nanos: u64,
        count_nanos: u64,
        ingest: IngestStats,
    ) -> Self {
        EpochSnapshot {
            epoch,
            version: epoch + 1,
            sealed_at,
            events,
            total_events,
            unique_tuples,
            dense: None,
            classes,
            flips,
            seal_nanos,
            count_nanos,
            ingest,
            seal: SealStats::default(),
            instants: None,
        }
    }

    /// The trace rows of this epoch's filling and sealing, dated by its
    /// [`EpochInstants`]: `ingest`, from the first push to the seal's
    /// start, with the epoch's own `events` and the pushes that brought
    /// them; `seal`; and for a seal that counted, `shard_count` and
    /// `shard_merge`. Those two sum over the recount's interleaved
    /// steps, so both start where the recount starts. Empty for a
    /// restored epoch.
    pub fn stage_runs(&self) -> Vec<StageRun> {
        let Some(at) = self.instants else {
            return Vec::new();
        };
        let (ingest, seal) = (&self.ingest, &self.seal);
        let run = |stage, started, nanos, counters| StageRun {
            stage,
            started,
            nanos,
            counters,
        };
        let filled = at.t_seal.saturating_duration_since(at.t_first_push);
        let filled = filled.as_nanos() as u64;
        let filled_by = vec![("batches", at.pushes), ("events", self.events)];
        // `kind` indexes `SealKind::ALL`; `replayed` counts the units
        // answered from their cache, `corrected` those of them whose
        // cache was first corrected, re-evaluating `corrected_rows` rows
        // of `corrected_words` words; `visited_tuples` is what all of it
        // read, step by step; `moved` counts the ids classified and
        // patched.
        let sealed = vec![
            ("events", self.events),
            ("tuples", self.unique_tuples as u64),
            ("replayed", ingest.replayed_steps),
            ("corrected", seal.corrected),
            ("corrected_words", seal.corrected_words),
            ("corrected_rows", seal.corrected_rows),
            ("total_steps", ingest.total_steps),
            ("visited_tuples", seal.visited_tuples),
            ("moved", seal.moved),
            ("kind", seal.kind as u64),
        ];
        let mut runs = vec![
            run("ingest", at.t_first_push, filled, filled_by),
            run("seal", at.t_seal, self.seal_nanos, sealed),
        ];
        if let Some(t_count) = at.t_count {
            let steps = vec![("steps", ingest.total_steps)];
            runs.push(run("shard_count", t_count, seal.shard_count_nanos, steps));
            runs.push(run("shard_merge", t_count, seal.merge_nanos, Vec::new()));
        }
        runs
    }

    /// A copy of this epoch's per-AS record table, sorted by ASN
    /// ([`DenseOutcome::records`], which the seal patched). `None` when
    /// the snapshot carries no counters (compacted or restored).
    pub fn records(&self) -> Option<Vec<DbRecord>> {
        Some(self.dense.as_ref()?.records.to_vec())
    }

    /// Classification of one AS in this snapshot ([`Class::NONE`] for an
    /// AS the epoch never counted). Served from the sorted class table,
    /// so it works on compacted snapshots too.
    pub fn class_of(&self, asn: Asn) -> Class {
        match self.classes.binary_search_by_key(&asn, |&(a, _)| a) {
            Ok(i) => self.classes[i].1,
            Err(_) => Class::NONE,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_event_trigger() {
        let p = EpochPolicy::every_events(3);
        assert!(!p.should_seal(2, 1_000_000));
        assert!(p.should_seal(3, 0));
    }

    #[test]
    fn policy_span_trigger() {
        let p = EpochPolicy::every_span(300);
        assert!(!p.should_seal(1_000_000, 299));
        assert!(p.should_seal(0, 300));
    }

    #[test]
    fn policy_either_and_manual() {
        let p = EpochPolicy::either(10, 60);
        assert!(p.should_seal(10, 0));
        assert!(p.should_seal(0, 60));
        assert!(!p.should_seal(9, 59));
        assert!(!EpochPolicy::manual().should_seal(u64::MAX, u64::MAX));
    }

    #[test]
    fn policy_from_the_cli_limits() {
        let from = EpochPolicy::from_limits;
        assert_eq!(from(Some(10), Some(60)), EpochPolicy::either(10, 60));
        assert_eq!(from(Some(10), None), EpochPolicy::every_events(10));
        assert_eq!(from(None, Some(60)), EpochPolicy::every_span(60));
        assert_eq!(from(None, None), EpochPolicy::default());
    }
}
