//! # bgp-collector
//!
//! Route-collector infrastructure for the IMC'21 reproduction:
//!
//! * [`project`] — RIPE / RouteViews / Isolario / PCH analogues with
//!   per-project peer subsets, RIB availability, and update intensity;
//! * [`archive`] — renders the simulated Internet into **real MRT bytes**
//!   (TABLE_DUMP_V2 RIBs + BGP4MP updates) and ingests them back through
//!   the codec and sanitation pipeline;
//! * [`stats`] — every row of the paper's Table 1 per dataset.
//!
//! The byte-level round trip matters: inference results in this workspace
//! are produced from tuples that traveled `simulation → MRT encode → MRT
//! decode → sanitize`, the exact shape of a real collector pipeline.

#![deny(missing_docs)]
#![forbid(unsafe_code)]
#![warn(rust_2018_idioms)]

pub mod archive;
pub mod project;
pub mod stats;

/// Commonly used items.
pub mod prelude {
    pub use crate::archive::{ingest_day, origin_prefix, ArchiveBuilder, DayArchive};
    pub use crate::project::CollectorProject;
    pub use crate::stats::DatasetStats;
}
