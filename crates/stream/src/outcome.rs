//! Query/export layer: the finished stream's answer surface, which is its
//! last epoch. The run's counts are that epoch's header and
//! [`IngestStats`](crate::epoch::IngestStats), and its answers are that
//! epoch's record table, which the latest snapshot always keeps. A
//! historical epoch's export copies that epoch's table.

use crate::epoch::{ClassFlip, EpochSnapshot};
use bgp_infer::classify::Class;
use bgp_infer::compiled::DenseOutcome;
use bgp_infer::counters::Thresholds;
use bgp_infer::db::DbRecord;
use bgp_types::prelude::*;
use std::sync::Arc;

/// The result of a completed streaming run — the streaming mirror of
/// a batch run's outcome, with the epoch history attached.
///
/// `class_of` / `classes` / `reclassify` behave exactly as on the batch
/// outcome (and, by the parity guarantee, *return* exactly what a batch
/// run over the same unique tuples would). [`export_db`](StreamOutcome::export_db)
/// writes the paper's release format through [`bgp_infer::db`], so a
/// streaming deployment publishes byte-compatible databases.
#[derive(Debug, Clone)]
pub struct StreamOutcome {
    /// Every sealed epoch, in order. Never empty, and the last one keeps
    /// its counters. Snapshots are shared ([`Arc`]) with any serving
    /// layer that retained them mid-stream.
    pub snapshots: Vec<Arc<EpochSnapshot>>,
}

impl StreamOutcome {
    /// The last sealed epoch: the state the run finished in.
    fn last(&self) -> &EpochSnapshot {
        self.snapshots
            .last()
            .expect("a finished run sealed an epoch")
    }

    /// The last epoch's dense state.
    fn dense(&self) -> &DenseOutcome {
        let dense = self.last().dense.as_ref();
        dense.expect("latest snapshot is never compacted")
    }

    /// Total events ingested.
    pub fn total_events(&self) -> u64 {
        self.last().total_events
    }

    /// Unique tuples stored.
    pub fn unique_tuples(&self) -> usize {
        self.last().unique_tuples
    }

    /// Dedup hits observed.
    pub fn duplicates(&self) -> u64 {
        self.last().ingest.duplicates
    }

    /// Stored-tuple count per shard (load-balance introspection).
    pub fn shard_loads(&self) -> &[u64] {
        &self.last().ingest.shard_loads
    }

    /// Final per-AS records (ASN, class, counters), sorted by ASN — the
    /// rows of [`export_db`](StreamOutcome::export_db).
    pub fn records(&self) -> &[DbRecord] {
        &self.dense().records
    }

    /// Final classification of one AS ([`Class::NONE`] when never
    /// counted).
    pub fn class_of(&self, asn: Asn) -> Class {
        self.last().class_of(asn)
    }

    /// Final classification of every counted AS, sorted by ASN.
    pub fn classes(&self) -> Vec<(Asn, Class)> {
        self.last().classes.to_vec()
    }

    /// Re-classify every counted AS under different thresholds without
    /// re-counting (same approximation the batch engine documents).
    pub fn reclassify(&self, thresholds: Thresholds) -> Vec<(Asn, Class)> {
        self.records()
            .iter()
            .map(|r| (r.asn, r.counters.classify(&thresholds)))
            .collect()
    }

    /// Number of sealed epochs.
    pub fn epochs(&self) -> usize {
        self.snapshots.len()
    }

    /// All class flips across the whole run, in epoch order.
    pub fn all_flips(&self) -> impl Iterator<Item = (u64, &ClassFlip)> {
        self.snapshots
            .iter()
            .flat_map(|s| s.flips.iter().map(move |f| (s.epoch, f)))
    }

    /// Export the final state in the paper's release db format.
    pub fn export_db(&self) -> String {
        let dense = self.dense();
        bgp_infer::db::export_records(&dense.thresholds, &dense.records)
    }

    /// Export one historical epoch in the release db format. `None` for
    /// an out-of-range epoch or one compacted away by
    /// `StreamConfig::compact_history`.
    pub fn export_epoch_db(&self, epoch: usize) -> Option<String> {
        let dense = self.snapshots.get(epoch)?.dense.as_ref()?;
        Some(bgp_infer::db::export_records(
            &dense.thresholds,
            &dense.records,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::epoch::EpochPolicy;
    use crate::ingest::StreamEvent;
    use crate::pipeline::{StreamConfig, StreamPipeline};
    use bgp_infer::classify::TaggingClass;

    fn run() -> StreamOutcome {
        let mut pipe = StreamPipeline::new(StreamConfig {
            shards: 2,
            epoch: EpochPolicy::every_events(2),
            ..Default::default()
        });
        let mk = |p: &[u32], tags: &[u32]| {
            PathCommTuple::new(
                path(p),
                CommunitySet::from_iter(tags.iter().map(|&a| AnyCommunity::tag_for(Asn(a), 100))),
            )
        };
        pipe.push(StreamEvent::new(10, mk(&[5, 9], &[5])));
        pipe.push(StreamEvent::new(20, mk(&[1, 5, 9], &[1, 5])));
        pipe.push(StreamEvent::new(30, mk(&[2, 9], &[])));
        pipe.finish()
    }

    #[test]
    fn query_surface_mirrors_batch_outcome() {
        let out = run();
        assert_eq!(out.class_of(Asn(5)).tagging, TaggingClass::Tagger);
        assert_eq!(out.class_of(Asn(64_000)), Class::NONE);
        let classes = out.classes();
        assert!(classes.windows(2).all(|w| w[0].0 < w[1].0));
        assert_eq!(classes.len(), out.records().len());
        let relaxed = out.reclassify(Thresholds::uniform(0.5));
        assert_eq!(relaxed.len(), classes.len());
    }

    #[test]
    fn db_exports_roundtrip() {
        let out = run();
        let text = out.export_db();
        let back = bgp_infer::db::import(&text).unwrap();
        for (asn, class) in out.classes() {
            assert_eq!(back.class_of(asn), class);
        }
        // Historical epoch export exists for every sealed epoch, and the
        // last one is the final export.
        assert_eq!(out.epochs(), 2);
        assert!(out.export_epoch_db(0).is_some());
        assert_eq!(out.export_epoch_db(1), Some(text));
        assert!(out.export_epoch_db(5).is_none());
    }

    #[test]
    fn flip_stream_covers_history() {
        let out = run();
        let flips: Vec<_> = out.all_flips().collect();
        assert!(!flips.is_empty());
        // Epoch indices are ordered.
        assert!(flips.windows(2).all(|w| w[0].0 <= w[1].0));
    }
}
