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
//!   load and a branch. "What just happened" is read here.
//! - **Histograms on the registry** ([`Histogram`], [`ObsRegistry`]):
//!   wall time of a stage recorded into fixed power-of-2-nanosecond
//!   buckets. Buckets are plain `AtomicU64`s, so recording is wait-free
//!   and scraping never blocks a writer — the same writer-owned /
//!   concurrently-read discipline `SnapshotSlot` uses for snapshots.
//!   "How long does this stage take" is read here.
//! - **Per-epoch traces** ([`TraceStore`]): one fixed-size record per
//!   published epoch ([`EpochTrace`]), each stage's offset, duration and
//!   counters as plain words under names listed once
//!   ([`trace::STAGES`]), persisted with the epoch in the archive. Each
//!   registry owns one ring of the last 256 epochs, a timeline is put
//!   whole when its epoch is published, and the store reads no clock:
//!   every row is handed the instant its stage ran. "Where did epoch
//!   N's time go" is read here.
//!
//! Every event is written to exactly one of each it needs — a seal is
//! one histogram observation, one trace stage and one debug log line —
//! and nothing restates them: no second store replays log lines or
//! stage completions, and nothing in the process samples the registry
//! that `/metrics` already exposes.
//!
//! Counters, gauges and histograms are keyed by (family, labels) in an
//! [`ObsRegistry`], beside its trace store. There is no process-wide
//! one: `bgp-served` builds a registry and `Arc`-clones it into every
//! layer that records into or renders it (`bgp-serve`'s `Metrics` is a
//! set of handles on it, `/metrics` is its one renderer, and
//! `/v1/debug/epoch/{N}/trace` reads its store). A constructor handed no
//! registry records on a fresh private one, and each test builds its
//! own with [`ObsRegistry::new`].
//!
//! Histogram semantics: bucket upper bounds are powers of two from
//! 256 ns to ~137 s (factor-2 resolution); quantiles are reported as
//! the upper bound of the bucket the rank falls in, so a p99 of
//! `0.000524288` means "99% of observations took ≤ 524 µs". Exact
//! `sum`, `count`, and `max` are tracked alongside.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod hist;
pub mod logger;
pub mod registry;
pub mod trace;

pub use hist::{Histogram, HistogramSnapshot, BUCKET_COUNT};
pub use logger::{Level, LogConfig};
pub use registry::{Counter, Gauge, ObsRegistry};
pub use trace::{EpochTrace, Stage, Timeline, TraceStore};
