//! # bgp-stream
//!
//! Streaming, sharded, incremental inference over `(path, comm)` tuples —
//! the live counterpart of the batch [`bgp_infer::engine::InferenceEngine`].
//!
//! The batch engine answers "given this finished dataset, classify every
//! AS". A route collector, though, never finishes: RIB snapshots land
//! every few hours and update files every few minutes. This crate keeps
//! per-AS classifications continuously up to date over such a feed:
//!
//! ```text
//!            ┌──────────── ingest ─────────────┐
//! MRT bytes ─┤ MrtSource: chunked record pull  │──┐ EventBatch: one flat
//! sim feed ──┤ IterSource: any event iterator  │  │ buffer of records
//!            └─────────────────────────────────┘  ▼
//!            ┌─────────────── shard ────────────────┐
//!            │ route(tuple) = fnv(on-path ASNs) % N │  N shards, each a
//!            │ private dedup table + tuple store    │  private dense delta
//!            └──────────────────────────────────────┘
//!                              │ dense merge at phase boundaries
//!                              ▼
//!            ┌─────────────── epoch ────────────────┐
//!            │ EpochPolicy (tuple count / time span)│ → EpochSnapshot:
//!            │ coordinator recount, versioned       │   classes + flips
//!            └──────────────────────────────────────┘
//!                              │
//!                              ▼
//!            StreamOutcome: the last epoch's record table (patched
//!            at the moved ids) → class_of / reclassify / db export
//! ```
//!
//! ## Exactness
//!
//! The paper's algorithm (Listing 1) transfers knowledge *between* path
//! columns through counter thresholds, so classifications are a function
//! of the whole tuple set — there is no per-tuple shortcut that preserves
//! its semantics. This pipeline therefore keeps the phase structure: at
//! every epoch boundary the coordinator re-runs the column loop, with each
//! phase counted shard by shard through the batch engine's own entry
//! point, [`CompiledTuples::count_phase_dense`](bgp_infer::compiled::CompiledTuples::count_phase_dense),
//! and the shard deltas merged into one dense counter column.
//! Because counting within a phase is order-free, the result is
//! byte-identical to the batch engine on the same tuples — for any shard
//! count — which the parity tests in `tests/stream_parity.rs` pin down.
//! What streaming buys is (a) bounded ingest memory (no full-archive tuple
//! vector), (b) seals that recount only what changed, and (c) *live*
//! answers: every epoch yields a monotonically versioned snapshot plus the
//! class flips since the last one, instead of one answer at the end of
//! the world.
//!
//! ```
//! use bgp_stream::prelude::*;
//! use bgp_types::prelude::*;
//!
//! let mut pipe = StreamPipeline::new(StreamConfig {
//!     shards: 2,
//!     epoch: EpochPolicy::every_events(2),
//!     ..Default::default()
//! });
//! // Peer AS5 tags; AS1 forwards AS5's tag.
//! let mk = |p: &[u32], tags: &[u32]| PathCommTuple::new(
//!     path(p),
//!     CommunitySet::from_iter(tags.iter().map(|&a| AnyCommunity::tag_for(Asn(a), 100))),
//! );
//! pipe.push(StreamEvent::new(10, mk(&[5, 9], &[5])));
//! pipe.push(StreamEvent::new(20, mk(&[1, 5, 9], &[1, 5])));
//! let out = pipe.finish();
//! assert_eq!(out.class_of(Asn(5)).tagging.code(), 't');
//! assert_eq!(out.class_of(Asn(1)).forwarding.code(), 'f');
//! assert!(!out.snapshots.is_empty());
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]
#![warn(rust_2018_idioms)]

pub mod epoch;
pub mod ingest;
pub mod outcome;
pub mod pipeline;
pub mod shard;

/// What the crate's generated-input tests share.
#[cfg(test)]
mod testing {
    use bgp_infer::counters::Thresholds;
    use bgp_types::prelude::*;

    /// A tuple over `p` tagged by exactly the ASes in `uppers`.
    pub(crate) fn tag_tuple(p: &[u32], uppers: &[u32]) -> PathCommTuple {
        PathCommTuple::new(
            path(p),
            CommunitySet::from_iter(uppers.iter().map(|&u| AnyCommunity::tag_for(Asn(u), 100))),
        )
    }

    /// A generated [`followed_feed`]: its tuples epoch by epoch, and the
    /// thresholds to count them under.
    pub(crate) struct FollowedFeed {
        pub(crate) th: Thresholds,
        pub(crate) epochs: Vec<Vec<PathCommTuple>>,
    }

    /// One world shaped like a followed feed — a handful of core ASes at
    /// every position (collector peers included, which is what lets the
    /// column loop get past column 1), a long tail of ASes seen one to
    /// three times, per-AS tagging habits that are constant, mixed, or
    /// change partway, a cleaner on some paths, paths that get longer
    /// epoch by epoch, thresholds that small shares land on exactly.
    pub(crate) fn followed_feed(seed: u64) -> FollowedFeed {
        let mut rng = Rng(seed);
        let th = Thresholds::uniform([0.99, 0.5, 0.75, 2.0 / 3.0][rng.below(4) as usize]);
        // An unused draw: it keeps each seed's world, whose paths the
        // reach checks of the generated-world tests count.
        rng.below(8);
        let epochs = 3 + rng.below(6);
        let core = 4 + rng.below(8);
        let mut feed: Vec<Vec<PathCommTuple>> = Vec::new();
        let mut tail_next = 1_000;
        let mut tail: Vec<u32> = Vec::new();
        let mut longest = 3 + rng.below(2);
        for epoch in 0..epochs {
            // A store first, then a trickle onto it; now and then a
            // longer path than any before.
            let tuples = if epoch == 0 {
                300 + rng.below(1_500)
            } else {
                longest = (longest + (rng.below(3) == 0) as u32).min(7);
                5 + rng.below(120)
            };
            let mut batch = Vec::new();
            for _ in 0..tuples {
                let len = 1 + rng.below(longest) as usize;
                let mut hops: Vec<u32> = Vec::with_capacity(len);
                while hops.len() < len {
                    let asn = if hops.is_empty() || rng.below(2) == 0 {
                        10 + rng.below(core)
                    } else if tail.is_empty() || rng.below(3) == 0 {
                        // A new tail AS: seen again twice at most.
                        tail_next += 1;
                        tail.extend([tail_next; 2]);
                        tail_next
                    } else {
                        tail.swap_remove(rng.below(tail.len() as u32) as usize)
                    };
                    if !hops.contains(&asn) {
                        hops.push(asn);
                    }
                }
                // Habits hang off the AS number so they hold across tuples.
                let cleaner_at = (rng.below(4) == 0).then(|| rng.below(len as u32) as usize);
                let uppers: Vec<u32> = hops
                    .iter()
                    .enumerate()
                    .filter(|&(p, &asn)| {
                        let tags = match (asn ^ seed as u32) % 5 {
                            0 | 1 => true,
                            2 => false,
                            3 => epoch < epochs / 2,
                            _ => rng.below(2) == 0,
                        };
                        tags && cleaner_at.is_none_or(|c| p <= c)
                    })
                    .map(|(_, &asn)| asn)
                    .collect();
                batch.push(tag_tuple(&hops, &uppers));
            }
            feed.push(batch);
        }
        FollowedFeed { th, epochs: feed }
    }

    /// SplitMix64 — a generated input is a pure function of its seed.
    pub(crate) struct Rng(pub(crate) u64);

    impl Rng {
        pub(crate) fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        pub(crate) fn below(&mut self, n: u32) -> u32 {
            (self.next() % u64::from(n)) as u32
        }
    }
}

/// Commonly used items.
pub mod prelude {
    pub use crate::epoch::{ClassFlip, EpochPolicy, EpochSnapshot};
    pub use crate::ingest::{
        EventBatch, IterSource, MrtSource, QuarantinedSource, StreamEvent, TupleSource,
    };
    pub use crate::outcome::StreamOutcome;
    pub use crate::pipeline::{StreamConfig, StreamPipeline};
    pub use crate::shard::ShardSet;
}
