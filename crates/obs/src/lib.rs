//! Zero-dependency observability spine for the workspace.
//!
//! The daemon spans four layers — ingest → shard count → epoch seal →
//! publish → archive → serve — and every one of them answers latency
//! questions through this crate instead of ad-hoc timers and scattered
//! `eprintln!`. Three primitives, all hand-rolled over `std::sync::atomic`
//! (the workspace is offline: no `log`, no `tracing`):
//!
//! - **Leveled structured logging** ([`log!`], [`error!`] … [`trace!`]):
//!   text or JSON lines on stderr, a per-target level filter, and a
//!   lock-free fast path — a disabled level costs one relaxed atomic
//!   load and a branch.
//! - **Spans + histograms** ([`span!`], [`Histogram`]): wall-time of a
//!   scope recorded into fixed power-of-2-nanosecond buckets on drop.
//!   Buckets are plain `AtomicU64`s, so recording is wait-free and
//!   scraping never blocks a writer — the same writer-owned /
//!   concurrently-read discipline `SnapshotSlot` uses for snapshots.
//! - **A bounded ring-buffer journal** ([`Journal`]): the last N span
//!   completions and log events, queryable while the daemon runs
//!   (`/v1/debug/trace` in `bgp-serve`).
//!
//! Everything meets in an [`ObsRegistry`] — counters, gauges, and
//! histograms keyed by (family, labels) plus the journal: one
//! [`global()`] registry for the process, `Arc`-cloned into whoever
//! records into or renders it (`bgp-serve`'s `Metrics` is a set of
//! handles on it, and `/metrics` is its one renderer). Unit tests build
//! private registries with [`ObsRegistry::new`] instead.
//!
//! Histogram semantics: bucket upper bounds are powers of two from
//! 256 ns to ~137 s (factor-2 resolution); quantiles are reported as
//! the upper bound of the bucket the rank falls in, so a p99 of
//! `0.000524288` means "99% of observations took ≤ 524 µs". Exact
//! `sum`, `count`, and `max` are tracked alongside.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod hist;
pub mod journal;
pub mod logger;
pub mod registry;
pub mod span;
pub mod timeseries;
pub mod trace;

pub use hist::{Histogram, HistogramSnapshot, BUCKET_COUNT};
pub use journal::{Journal, JournalEntry, JournalKind};
pub use logger::{Level, LogConfig};
pub use registry::{global, Counter, Gauge, ObsRegistry};
pub use span::SpanGuard;
pub use timeseries::{
    parse_alert_rules, spawn_sampler, AlertRule, AlertState, MetricRing, MetricSelector, Recorder,
    Sample, SamplerHandle,
};
pub use trace::{EpochTrace, TraceStage, TraceStore};
