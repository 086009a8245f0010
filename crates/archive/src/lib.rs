//! # bgp-archive
//!
//! Durable epoch archive for the streaming inference pipeline: an
//! append-only on-disk log of sealed [`EpochSnapshot`]s plus a manifest,
//! giving the serving daemon instant restart and time-travel queries.
//!
//! ```text
//! <dir>/
//!   MANIFEST            committed segments + epoch ranges (commit point)
//!   seg-00000000.bgpa   framed epochs: meta, interner Δ, counters Δ,
//!   seg-00000001.bgpa   classes Δ, flips, ingest stats, FNV-64 trailer
//!   ...
//! ```
//!
//! Layering:
//!
//! * [`frame`] — little-endian primitives, FNV-1a-64 checksums, and the
//!   `[kind][len][payload]` frame walker.
//! * [`segment`] — epochs ⇄ frames; every decode verifies the trailer
//!   checksum first, so truncation at any byte offset is detected.
//!   Within a segment, counter columns and class tables are stored as
//!   the rows that moved since the previous epoch, and decoded whole.
//! * [`manifest`] — the `MANIFEST` text file and the temp+fsync+rename
//!   atomic-write helper both commit paths share.
//! * [`archive`] — opening a directory: sweeps temp files, pops torn
//!   tail segments, adopts fully-written orphans, then serves reads
//!   (per-epoch load, class trajectories, flip chunks).
//! * [`writer`] — appending: segment first, manifest second.
//! * [`sink`] — an [`ArchiveSink`](sink::ArchiveSink) background thread
//!   so the ingest hot path pays one `Arc` clone per epoch, never a disk
//!   wait. The sink group-commits: epochs that queued up while a commit
//!   was in flight go out as one segment under one manifest write, so a
//!   slow disk costs a backlog its `fsync`s once per run, not once per
//!   epoch; a sink that is behind waits (briefly) for a full run. Its
//!   policy is one pure transition on a caller-supplied clock.
//! * [`compact`] — merge aged segments, dropping counter columns and
//!   flip chunks outside the retention window.
//!
//! The workspace is offline: the format is hand-rolled over `std::fs` +
//! `std::io`, in the same spirit as the serve layer's hand-rolled JSON.
//!
//! ```
//! use bgp_archive::prelude::*;
//! use bgp_stream::prelude::*;
//! use bgp_types::prelude::*;
//!
//! let dir = std::env::temp_dir().join(format!("bgpa-doc-{}", std::process::id()));
//! let mut pipe = StreamPipeline::new(StreamConfig {
//!     epoch: EpochPolicy::every_events(2),
//!     ..Default::default()
//! });
//! let mk = |p: &[u32], tags: &[u32]| PathCommTuple::new(
//!     path(p),
//!     CommunitySet::from_iter(tags.iter().map(|&a| AnyCommunity::tag_for(Asn(a), 100))),
//! );
//! pipe.push(StreamEvent::new(10, mk(&[5, 9], &[5])));
//! pipe.push(StreamEvent::new(20, mk(&[1, 5, 9], &[1, 5])));
//! let out = pipe.finish();
//!
//! let mut writer = ArchiveWriter::open(&dir).unwrap();
//! for snap in &out.snapshots {
//!     writer.append_epoch(snap, &SegmentStats::default()).unwrap();
//! }
//! let archive = Archive::open(&dir).unwrap();
//! assert_eq!(archive.manifest().last_epoch(), Some(out.snapshots.last().unwrap().epoch));
//! assert!(archive.verify().is_ok());
//! std::fs::remove_dir_all(&dir).unwrap();
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]
#![warn(rust_2018_idioms)]

pub mod archive;
pub mod compact;
pub mod frame;
pub mod manifest;
pub mod segment;
pub mod sink;
pub mod writer;

#[cfg(doc)]
use bgp_stream::epoch::EpochSnapshot;

/// Commonly used items.
pub mod prelude {
    pub use crate::archive::{Archive, VerifyReport};
    pub use crate::compact::{compact, CompactReport};
    pub use crate::frame::{ArchiveError, Result};
    pub use crate::manifest::{IoShim, Manifest, ManifestEntry, RealIo};
    pub use crate::segment::{ArchivedEpoch, DecodeFilter, EpochMeta, SegmentStats};
    pub use crate::sink::{ArchiveSink, SinkError, SinkReport, SinkStatus};
    pub use crate::writer::ArchiveWriter;
}
