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
//! MRT bytes ─┤ MrtSource: chunked record pull  │──┐
//! sim feed ──┤ IterSource: any event iterator  │  │ EventBatch: one flat
//! DayArchive┄┤ DaySource: per-bin update files │  │ buffer of records
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
//!            StreamOutcome: class_of / reclassify / db export
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
#![warn(rust_2018_idioms)]

pub mod epoch;
pub mod ingest;
pub mod outcome;
pub mod pipeline;
pub mod shard;

/// Commonly used items.
pub mod prelude {
    pub use crate::epoch::{ClassFlip, EpochPolicy, EpochSnapshot};
    pub use crate::ingest::{
        DaySource, EventBatch, IterSource, MrtSource, QuarantinedSource, StreamEvent, TupleSource,
    };
    pub use crate::outcome::StreamOutcome;
    pub use crate::pipeline::{StreamConfig, StreamPipeline};
    pub use crate::shard::ShardSet;
}
