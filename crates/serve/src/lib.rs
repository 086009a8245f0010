//! # bgp-serve
//!
//! A concurrent query-serving daemon over live streaming-inference
//! snapshots — the layer that turns the [`bgp_stream`] pipeline from a
//! batch-style tool ("run, then export a db") into a long-running
//! service ("query the classification database *while* it ingests").
//!
//! ```text
//!             ┌── feed puller (1 thread) ──┐   bounded   ┌─ sealer worker ─────┐
//! MRT files ──┤ read, parse, fault-inject, ├─── queue ──▶│ StreamPipeline:     │
//! sim feed  ──┤ quarantine                 │  (batches)  │ count, seal epochs  │
//!             └────────────────────────────┘             │ Publisher: publish  │
//!                                                        └──────────┬──────────┘
//!                   SnapshotSlot::publish (atomic version bump)     │
//!                   + waker: TransportWaker::wake_all ◀─────────────┘
//!                                │
//!                                ▼
//!             ┌──────────── SnapshotSlot ─────────────┐
//!             │ version: AtomicU64   slot: Arc swap   │
//!             └──────────────────┬────────────────────┘
//!                                │ SnapshotReader::current (lock-free revalidate)
//!                                ▼
//!             ┌──── epoll reactors (≤ cores threads) ──┐
//!             │ nonblocking HTTP/1.1 state machines:   │ /v1/class /v1/classes
//!             │ reading / writing / parked (long-poll) │ /v1/community /v1/flips
//!             │ 10k+ keep-alive conns, every request   │ /v1/reclassify /v1/stats
//!             │ answered from ONE immutable snapshot   │ /healthz /metrics
//!             └────────────────────────────────────────┘
//! ```
//!
//! ## Consistency model
//!
//! Epochs seal into immutable [`snapshot::ServeSnapshot`] values that are
//! hot-swapped through [`snapshot::SnapshotSlot`]. A request loads one
//! snapshot `Arc` and answers entirely from it, so responses are always
//! internally consistent (one epoch, never a mix), publication versions
//! are strictly monotone, and the ingest writer never waits for readers.
//! Between seals — at production epoch policies, almost always — the
//! per-worker [`snapshot::SnapshotReader`] revalidates its cached
//! snapshot with a single atomic load: the steady-state query path takes
//! no lock.
//!
//! ## Pieces
//!
//! * [`snapshot`] — the publication layer (slot, reader, publisher,
//!   publish wakeups for parked long-pollers);
//! * [`http`] — nonblocking HTTP/1.1 transport: per-core epoll reactors,
//!   connection budgets, idle/head deadlines, long-poll parking;
//! * [`json`] — hand-rolled JSON encoder (the vendored serde shim has no
//!   JSON backend);
//! * [`api`] — routes, parameter parsing, response shapes;
//! * [`metrics`] — the serving layer's instruments, as handles on the
//!   daemon's one `obs` registry, which every layer records on and
//!   `/metrics` renders;
//! * [`driver`] — the ingest pair: a feed-puller thread (MRT files,
//!   simulated scenario feeds, or in-memory events) handing batches over
//!   a bounded queue to a dedicated sealer/publisher worker, started by
//!   one function, [`driver::spawn_ingest_archived`], and always
//!   reporting to the [`health`] state in its
//!   [`DriverConfig`](driver::DriverConfig);
//! * [`health`] — the degraded-mode `/healthz` state machine, judging
//!   the counters on [`metrics`] (quarantines counted per feed as each
//!   batch is pulled) plus what the driver reports into it (respawns,
//!   staleness) and archive sink trouble;
//! * [`restore`] — rebuilding `ServeSnapshot`s from the durable epoch
//!   archive (`bgp-served --archive`): instant restart without waiting
//!   for the feed to replay;
//! * [`history`] — lazily cached historical epochs for time-travel
//!   queries (`/v1/epochs`, `/v1/class/{asn}?epoch=N`,
//!   `/v1/history/{asn}`);
//! * [`shutdown`] — SIGINT/SIGTERM flag so the daemon stops ingest and
//!   flushes the archive before exiting, leaving the trailing partial
//!   epoch for the next run's backfill;
//! * two binaries: `bgp-served` (the daemon) and `bgp-flood` (its
//!   connection-flood load generator).
//!
//! ```
//! use bgp_serve::prelude::*;
//! use bgp_stream::prelude::*;
//! use bgp_types::prelude::*;
//! use std::sync::Arc;
//!
//! // Publish one epoch and query it through the API handler.
//! let slot = Arc::new(SnapshotSlot::new(Default::default()));
//! let mut publisher = Publisher::new(Arc::clone(&slot), 1024);
//! let mut pipe = StreamPipeline::new(StreamConfig::default());
//! pipe.push(StreamEvent::new(0, PathCommTuple::new(
//!     path(&[5, 9]),
//!     CommunitySet::from_iter([AnyCommunity::tag_for(Asn(5), 100)]),
//! )));
//! pipe.seal_epoch();
//! publisher.sync(&pipe);
//! assert_eq!(slot.load().class_of(Asn(5)).tagging.code(), 't');
//! ```

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod api;
pub mod driver;
pub mod health;
pub mod history;
pub mod http;
pub mod json;
pub mod metrics;
pub mod restore;
pub mod shutdown;
pub mod snapshot;

/// Commonly used items.
pub mod prelude {
    pub use crate::api::Api;
    pub use crate::driver::{
        spawn_ingest_archived, DriverConfig, Feed, IngestHandle, IngestReport,
    };
    pub use crate::health::{HealthReport, HealthState, HealthStatus};
    pub use crate::history::HistoryStore;
    pub use crate::http::{
        Dispatch, Handler, HttpConfig, HttpServer, Request, Response, TransportWaker,
    };
    pub use crate::json::JsonWriter;
    pub use crate::metrics::{Endpoint, Metrics};
    pub use crate::restore::{rebuild_snapshot, restore_latest};
    pub use crate::snapshot::{Publisher, ServeSnapshot, SnapshotReader, SnapshotSlot};
}
