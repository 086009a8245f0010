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
//! A snapshot's primary state is **dense**: a [`DenseOutcome`] holding the
//! `Arc`'d counter column over the shared interner's id space plus the
//! Asn-sorted id permutation. Classes and flips are `Arc`'d too, so an
//! epoch that sealed without new evidence shares every component of its
//! predecessor at pointer-copy cost, and the serving layer slices record
//! tables straight from the columns. The sparse map-backed
//! [`InferenceOutcome`] the batch engine returns is materialized lazily
//! (once, on first use) for exports and historical queries.

use bgp_infer::classify::Class;
use bgp_infer::compiled::DenseOutcome;
use bgp_infer::engine::InferenceOutcome;
use bgp_types::prelude::*;
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

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

/// The published state of one sealed epoch.
#[derive(Debug)]
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
    /// only the latest epoch's counters.
    pub dense: Option<DenseOutcome>,
    /// Lazily materialized sparse view of `dense` (the batch engine's
    /// shape, kept for exports and historical-epoch tooling).
    outcome_cell: OnceLock<InferenceOutcome>,
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
}

impl Clone for EpochSnapshot {
    fn clone(&self) -> Self {
        let outcome_cell = OnceLock::new();
        if let Some(v) = self.outcome_cell.get() {
            let _ = outcome_cell.set(v.clone());
        }
        EpochSnapshot {
            epoch: self.epoch,
            version: self.version,
            sealed_at: self.sealed_at,
            events: self.events,
            total_events: self.total_events,
            unique_tuples: self.unique_tuples,
            dense: self.dense.clone(),
            outcome_cell,
            classes: Arc::clone(&self.classes),
            flips: Arc::clone(&self.flips),
            seal_nanos: self.seal_nanos,
            count_nanos: self.count_nanos,
        }
    }
}

impl EpochSnapshot {
    /// Assemble a snapshot (pipeline-internal; the lazy sparse cell
    /// starts empty).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn assemble(
        epoch: u64,
        sealed_at: u64,
        events: u64,
        total_events: u64,
        unique_tuples: usize,
        dense: DenseOutcome,
        classes: Arc<Vec<(Asn, Class)>>,
        flips: Arc<Vec<ClassFlip>>,
    ) -> Self {
        EpochSnapshot {
            epoch,
            version: epoch + 1,
            sealed_at,
            events,
            total_events,
            unique_tuples,
            dense: Some(dense),
            outcome_cell: OnceLock::new(),
            classes,
            flips,
            seal_nanos: 0,
            count_nanos: 0,
        }
    }

    /// Rebuild a snapshot from durable state — the archive restore path.
    /// Unlike `assemble`, the seal path's constructor, this is `pub` (the
    /// archive lives downstream of this crate), takes the persisted
    /// timing fields verbatim, and accepts `dense: None` for epochs
    /// whose counter column was compacted away on disk.
    #[allow(clippy::too_many_arguments)]
    pub fn restored(
        epoch: u64,
        sealed_at: u64,
        events: u64,
        total_events: u64,
        unique_tuples: usize,
        dense: Option<DenseOutcome>,
        classes: Arc<Vec<(Asn, Class)>>,
        flips: Arc<Vec<ClassFlip>>,
        seal_nanos: u64,
        count_nanos: u64,
    ) -> Self {
        EpochSnapshot {
            epoch,
            version: epoch + 1,
            sealed_at,
            events,
            total_events,
            unique_tuples,
            dense,
            outcome_cell: OnceLock::new(),
            classes,
            flips,
            seal_nanos,
            count_nanos,
        }
    }

    /// The sparse map-backed [`InferenceOutcome`] of this epoch —
    /// materialized from the dense state on first use, then cached.
    /// `None` once the snapshot has been compacted.
    pub fn outcome(&self) -> Option<&InferenceOutcome> {
        let dense = self.dense.as_ref()?;
        Some(self.outcome_cell.get_or_init(|| dense.to_outcome()))
    }

    /// Drop the counter state (history compaction), keeping classes and
    /// flips.
    pub(crate) fn compact(&mut self) {
        self.dense = None;
        self.outcome_cell = OnceLock::new();
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

/// Diff two classification maps into a sorted flip list. `prev` may be
/// empty (first epoch): every decided AS then flips from [`Class::NONE`].
/// (The pipeline itself diffs densely by interned id; this is the
/// reference shape, kept for tools and tests.)
pub fn diff_classes(prev: &HashMap<Asn, Class>, now: &[(Asn, Class)]) -> Vec<ClassFlip> {
    let mut flips = Vec::new();
    for &(asn, to) in now {
        let from = prev.get(&asn).copied().unwrap_or(Class::NONE);
        if from != to {
            flips.push(ClassFlip { asn, from, to });
        }
    }
    // ASes that vanish from the counted set cannot happen (counters only
    // grow), so no reverse sweep is needed.
    flips.sort_by_key(|f| f.asn);
    flips
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgp_infer::classify::{ForwardingClass, TaggingClass};

    const TF: Class = Class {
        tagging: TaggingClass::Tagger,
        forwarding: ForwardingClass::Forward,
    };
    const TN: Class = Class {
        tagging: TaggingClass::Tagger,
        forwarding: ForwardingClass::None,
    };

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
    fn diff_reports_new_and_changed() {
        let mut prev = HashMap::new();
        prev.insert(Asn(1), TN);
        prev.insert(Asn(2), TF);
        let now = vec![(Asn(1), TF), (Asn(2), TF), (Asn(3), TN)];
        let flips = diff_classes(&prev, &now);
        assert_eq!(flips.len(), 2);
        assert_eq!(flips[0].asn, Asn(1));
        assert_eq!(flips[0].from, TN);
        assert_eq!(flips[0].to, TF);
        assert_eq!(flips[1].asn, Asn(3));
        assert_eq!(flips[1].from, Class::NONE);
    }
}
