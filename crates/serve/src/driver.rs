//! The ingest side of the daemon: a feed-puller thread and a dedicated
//! sealer worker, publishing sealed epochs to the snapshot slot.
//!
//! The serving architecture is single-writer/many-readers: exactly one
//! sealer thread owns the [`StreamPipeline`] (ingest needs `&mut`), and
//! everything query-facing reads the immutable snapshots it publishes.
//! The sealer never blocks on readers and readers never block on the
//! sealer — the only shared state is the [`SnapshotSlot`].
//!
//! Within one feed attempt the work is split across two threads:
//!
//! * the **feed puller** (the supervised driver thread) reads, parses,
//!   fault-injects, and quarantines source batches, pushing clean event
//!   batches into a bounded channel;
//! * the **sealer worker** owns the pipeline + publisher: it pushes
//!   events, seals epochs when the policy fires, and publishes — so a
//!   slow recount stalls the feed only once the small channel fills,
//!   instead of on every seal.
//!
//! What crosses the channel is an [`EventBatch`]: one flat buffer of
//! encoded tuple records per pull, not a vector of owned events. The
//! puller makes one allocation a batch and the sealer frees one, instead
//! of two `malloc`s an event on one thread and two `free`s on the other.
//! The sealer hands each batch whole to
//! [`StreamPipeline::push_events`], which hashes every record of a run
//! before probing any of them, publishes from its per-seal callback, and
//! copies out of the buffer only a tuple no shard has seen.
//!
//! Every instrument the driver builds records on the registry of the
//! [`Metrics`] it is handed: the pipeline and its shards
//! ([`StreamPipeline::with_registry`]), the publisher, the batch
//! histogram and the seal-queue gauge. The driver writes no trace row:
//! each sealed epoch carries the instants of its filling and sealing,
//! and the publisher puts the epoch's timeline in that registry's store
//! when it publishes it. An epoch a respawn's replay or a restart's
//! backfill seals again is not published again, so it keeps the
//! timeline of its first publish, or the archive's. A daemon therefore
//! hands down its one registry through `metrics` alone, and
//! [`DriverConfig`] carries none.
//!
//! `bgp_serve_seal_queue_depth` counts a batch in before the puller
//! sends it and out after the sealer receives it; whatever an attempt
//! leaves queued (its sealer died) is taken back after the join, so the
//! gauge neither dips below zero nor drifts up across respawns.
//!
//! A panic on either side is contained: the puller always joins the
//! sealer before propagating, so the supervisor never respawns while an
//! old publisher could still touch the slot.
//!
//! Each half is a step that is handed the time and reads no clock: the
//! puller's `pump` hands each batch to a `send` callback, the sealer is
//! `take(&batch, now)` plus `finish(now, …)`, and how an attempt ended
//! and what the supervisor does next (report, fail, or respawn past the
//! slot's version within the restart budget) are pure functions. The
//! supervisor and the attempt are thread shells around them: they move
//! batches, join, settle the queue gauge and read the clock. The test
//! module's simulation drives the same steps on one thread and one
//! seeded clock, with [`HealthState`] judged at simulated instants, and
//! replays a failing seed.
//!
//! The driver is *supervised*: each feed attempt runs under
//! `catch_unwind`, and a panicking attempt is respawned (up to
//! [`DriverConfig::restart_budget`] times) with the pipeline rebuilt
//! and the feed replayed from the start — the same deterministic-replay
//! backfill the restart path uses, resuming past whatever the slot
//! already serves so versions stay monotone. Only a feed that drained
//! seals its trailing partial epoch: a stopped, panicked or failed
//! attempt leaves it open, since a replay (the respawn's, or the next
//! run's backfill) seals that epoch number over the whole feed and the
//! slot and the archive must hold each version as a never-faulted run
//! would. Every source is wrapped in
//! a [`QuarantinedSource`], so malformed records are skipped instead of
//! poisoning the feed, and an optional [`fault::FeedInjector`] slots in
//! underneath for resilience soaks. An attempt keeps one quarantine
//! count across all of its sources: it bounds
//! [`DriverConfig::quarantine_abort`] feed-wide, and each pulled batch's
//! quarantines reach `bgp_serve_quarantined_total` at once — the counter
//! [`DriverConfig::health`] judges, when it is built on the same
//! [`Metrics`].

use crate::health::HealthState;
use crate::metrics::Metrics;
use crate::snapshot::{Publisher, ServeSnapshot, SnapshotSlot};
use bgp_archive::prelude::ArchiveSink;
use bgp_sim::prelude::*;
use bgp_stream::ingest::{
    EventBatch, IngestError, IterSource, MrtSource, QuarantinedSource, StreamEvent, TupleSource,
};
use bgp_stream::pipeline::{StreamConfig, StreamPipeline};
use fault::{FaultSource, FeedInjector};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use std::sync::mpsc::SyncSender;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// What the driver feeds the pipeline with.
#[derive(Debug, Clone)]
pub enum Feed {
    /// Raw (uncompressed) MRT archive files, streamed in order.
    MrtFiles(Vec<String>),
    /// A simulated scenario feed (see `bgp_sim::scenario::Scenario`
    /// names), the same worlds `bgp-stream-infer --sim` uses.
    Sim {
        /// Scenario name (`alltf`, `random`, …).
        scenario: String,
        /// Simulation seed.
        seed: u64,
        /// Extra re-announcements per tuple.
        repeats: u32,
    },
    /// An in-memory event list (tests, benches, examples).
    Events(Vec<StreamEvent>),
}

/// Driver configuration.
#[derive(Debug, Clone)]
pub struct DriverConfig {
    /// Pipeline configuration (shards, epoch policy, thresholds, …).
    pub stream: StreamConfig,
    /// Ingest pull size per batch.
    pub batch: usize,
    /// Flip-log entries retained across publications.
    pub flip_log_cap: usize,
    /// Panicking feed attempts respawned before the driver gives up and
    /// reports itself failed (0 = die on the first panic).
    pub restart_budget: u32,
    /// Abort the feed once more than this many records were quarantined
    /// across all of its sources (0 = never abort, quarantine forever).
    pub quarantine_abort: u64,
    /// Feed-domain fault injector for resilience soaks (shared so the
    /// fault clock survives driver respawns — a `panic@N` fires once
    /// ever, not once per attempt).
    pub fault: Option<Arc<FeedInjector>>,
    /// Where the driver reports the supervision events no counter holds
    /// (publish instant, respawn, drain, fatal failure). A daemon that
    /// serves `/healthz` builds it on the [`Metrics`] it hands the driver
    /// and hands the same state to
    /// [`Api::with_health`](crate::api::Api::with_health); the default is
    /// a fresh state nobody reads.
    pub health: Arc<HealthState>,
}

impl Default for DriverConfig {
    fn default() -> Self {
        DriverConfig {
            stream: StreamConfig::default(),
            batch: 1024,
            flip_log_cap: 100_000,
            restart_budget: 2,
            quarantine_abort: 0,
            fault: None,
            health: Arc::new(HealthState::new(Arc::default(), Instant::now())),
        }
    }
}

/// What the driver reports when its feed is exhausted.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IngestReport {
    /// Events ingested.
    pub total_events: u64,
    /// Epochs sealed and published.
    pub epochs: usize,
    /// Unique tuples stored.
    pub unique_tuples: usize,
    /// Epochs newly committed to the durable archive this run (0 when
    /// the driver runs without an archive sink).
    pub archived_epochs: u64,
    /// Epochs the archive sink had to drop (retries exhausted or queue
    /// overflow); every one was logged and counted when it happened.
    pub archive_dropped: u64,
    /// Malformed records/chunks quarantined during the successful feed
    /// attempt.
    pub quarantined: u64,
    /// Supervised respawns after ingest panics.
    pub restarts: u64,
}

/// A running ingest thread.
#[derive(Debug)]
pub struct IngestHandle {
    thread: JoinHandle<Result<IngestReport, String>>,
    stop: Arc<AtomicBool>,
}

impl IngestHandle {
    /// Ask the driver to stop after the batch in flight. The epochs the
    /// policy sealed so far are published (and archived); the trailing
    /// partial epoch is not sealed, so the next run's backfill over the
    /// same feed seals that epoch number as a never-stopped run would.
    pub fn stop(&self) {
        self.stop.store(true, Ordering::Release);
    }

    /// Whether the driver thread has exited.
    pub fn is_finished(&self) -> bool {
        self.thread.is_finished()
    }

    /// Wait for the feed to drain (or [`stop`](IngestHandle::stop) to be
    /// honored) and return the report.
    pub fn join(self) -> Result<IngestReport, String> {
        self.thread
            .join()
            .map_err(|_| "ingest driver panicked".to_string())?
    }
}

/// Spawn the ingest driver: drives `feed` through a fresh pipeline,
/// publishing every sealed epoch to `slot` and reporting every
/// supervision event to [`DriverConfig::health`]. When the feed drains,
/// a trailing partial epoch is sealed (and published), so the served
/// snapshot covers every ingested event once the driver finishes; after
/// a [`stop`](IngestHandle::stop) it stays open.
///
/// With a `sink`, every newly sealed epoch is queued into it (committed
/// off this thread), and `resume` — the snapshot the restore path
/// republished at boot — makes the deterministic-feed backfill skip
/// epochs the archive already holds. When the feed drains (or `stop` is
/// honored), the sink is flushed and joined, and the report carries how
/// many epochs this run newly committed.
pub fn spawn_ingest_archived(
    cfg: DriverConfig,
    feed: Feed,
    slot: Arc<SnapshotSlot>,
    metrics: Arc<Metrics>,
    sink: Option<ArchiveSink>,
    resume: Option<Arc<ServeSnapshot>>,
) -> IngestHandle {
    let stop = Arc::new(AtomicBool::new(false));
    let driver = Driver {
        cfg,
        feed,
        slot,
        metrics,
        sink: sink.map(Arc::new),
        stop: Arc::clone(&stop),
    };
    let thread = std::thread::Builder::new()
        .name("bgp-serve-ingest".to_string())
        .spawn(move || driver.run(resume))
        .expect("spawn ingest driver");
    IngestHandle { thread, stop }
}

/// What every feed attempt of one driver shares.
struct Driver {
    cfg: DriverConfig,
    feed: Feed,
    slot: Arc<SnapshotSlot>,
    metrics: Arc<Metrics>,
    sink: Option<Arc<ArchiveSink>>,
    stop: Arc<AtomicBool>,
}

impl Driver {
    /// The supervisor shell: run each attempt under `catch_unwind`,
    /// count a panic as a restart, and apply what [`next`] decides. A
    /// respawn replays the feed on a fresh pipeline; the fault
    /// injector's clock is shared across attempts, so an injected
    /// `panic@N` fires once ever.
    fn run(self, mut resume: Option<Arc<ServeSnapshot>>) -> Result<IngestReport, String> {
        let health = &self.cfg.health;
        if let Some(sink) = &self.sink {
            health.attach_sink(sink.status());
        }
        let budget = self.cfg.restart_budget;
        let mut restarts = 0u64;
        let mut report = loop {
            let ended = std::panic::catch_unwind(AssertUnwindSafe(|| self.attempt(resume.clone())))
                .and_then(|ended| ended);
            if ended.is_err() {
                restarts += 1;
                health.note_restart();
            }
            match next(ended, restarts, budget, resume, &self.slot) {
                Next::Done(report) => break report,
                Next::Fail(e) => {
                    health.mark_ingest_failed();
                    return Err(e);
                }
                Next::Respawn(from) => {
                    obs::error!(
                        "serve",
                        "ingest driver panicked; respawning ({restarts}/{budget} used)"
                    );
                    if let Some(injector) = &self.cfg.fault {
                        injector.reset_stream();
                    }
                    resume = from;
                }
            }
        };
        health.mark_ingest_done();

        // Flush and join the archive sink before reporting: once `finish`
        // returns, every committed epoch is durable (segment + manifest).
        // Dropped epochs are NOT fatal to the run — each one was already
        // logged and counted when it happened, the report carries the
        // total, and `/healthz` stays degraded — but they do mean a restart
        // must re-derive those epochs from the feed.
        if let Some(sink) = self.sink {
            let sink = Arc::try_unwrap(sink)
                .map_err(|_| "archive sink still shared at shutdown".to_string())?;
            match sink.finish() {
                Ok((_, sunk)) => report.archived_epochs = sunk.written,
                Err(err) => {
                    obs::error!("serve", "archive sink finished degraded: {err}");
                    report.archived_epochs = err.report.written;
                    report.archive_dropped = err.report.dropped;
                }
            }
        }
        Ok(report)
    }

    /// One feed attempt's thread shell: this (supervised) thread becomes
    /// the **feed puller** and a dedicated **sealer worker** takes each
    /// batch it sends over a bounded channel. Once the puller returns,
    /// the sealer takes what is still queued and comes back through its
    /// join; only then does a feed that drained seal its trailing
    /// epoch, or a panic on either side propagate to [`Driver::run`] — so
    /// a respawned attempt can never race an old publisher on the slot.
    fn attempt(&self, resume: Option<Arc<ServeSnapshot>>) -> Ended {
        let mut sealer = self.sealer(resume);
        let (tx, rx) = std::sync::mpsc::sync_channel::<EventBatch>(SEAL_QUEUE_BATCHES);
        let depth = Arc::new(QueueDepth::new(Arc::clone(&self.metrics.seal_queue_depth)));
        let worker = {
            let depth = Arc::clone(&depth);
            std::thread::Builder::new()
                .name("bgp-serve-sealer".to_string())
                .spawn(move || {
                    while let Ok(batch) = rx.recv() {
                        depth.add(-1);
                        let started = Instant::now();
                        sealer.take(&batch, started);
                        let took = started.elapsed().as_nanos() as u64;
                        sealer.metrics.ingest_batch.record(took);
                    }
                    sealer
                })
                .expect("spawn sealer worker")
        };

        // Pull the feed under catch_unwind so the sealer is ALWAYS joined
        // before a puller panic reaches the supervisor.
        let mut puller = Puller {
            driver: self,
            quarantined: 0,
        };
        let pulled = std::panic::catch_unwind(AssertUnwindSafe(|| {
            puller.pull(&self.feed, &mut |batch| depth.send(&tx, batch))
        }));
        drop(tx); // disconnect: the sealer takes what is queued and exits
        let joined = worker.join();
        depth.settle();
        ended(pulled, joined, Instant::now())
    }

    /// A fresh pipeline and publisher for one attempt, resuming past
    /// `resume`.
    fn sealer(&self, resume: Option<Arc<ServeSnapshot>>) -> Sealer {
        let cfg = &self.cfg;
        let pipeline = StreamPipeline::with_registry(cfg.stream.clone(), self.metrics.registry());
        let mut publisher = Publisher::new(Arc::clone(&self.slot), cfg.flip_log_cap)
            .with_metrics(Arc::clone(&self.metrics));
        if let Some(restored) = &resume {
            publisher.resume_from(restored);
        }
        if let Some(sink) = &self.sink {
            publisher = publisher.with_archive(Arc::clone(sink));
        }
        Sealer {
            pipeline,
            publisher,
            metrics: Arc::clone(&self.metrics),
            health: Arc::clone(&cfg.health),
        }
    }
}

/// How one attempt ended: its report or fatal error, or its panic.
type Ended = std::thread::Result<Result<IngestReport, String>>;

/// How one attempt ended, once its sealer came back through its join: a
/// feed that drained seals its trailing epoch as of `now` and reports; a
/// stopped feed reports without sealing; a feed error or a panic on
/// either side leaves that epoch open too. A replay seals it over the
/// whole feed.
fn ended(
    pulled: std::thread::Result<Result<Pulled, String>>,
    joined: std::thread::Result<Sealer>,
    now: Instant,
) -> Ended {
    match (pulled, joined) {
        (Err(panic), _) | (Ok(Ok(_)), Err(panic)) => Err(panic),
        (Ok(Err(e)), _) => Ok(Err(e)),
        (Ok(Ok(pulled)), Ok(sealer)) => Ok(Ok(sealer.finish(now, pulled))),
    }
}

/// What the supervisor does once an attempt ended.
enum Next {
    /// The feed ended (drained, or `stop` honored): report.
    Done(IngestReport),
    /// Ingest is gone for good: a fatal feed error, or a panic past the
    /// restart budget.
    Fail(String),
    /// Replay the feed on a fresh pipeline, resuming past this snapshot.
    Respawn(Option<Arc<ServeSnapshot>>),
}

/// The supervisor's decision: how an attempt `ended`, given the panics
/// so far (`restarts`, this one included), the restart `budget`, the
/// snapshot the attempt resumed past, and the `slot` — read here, once
/// the attempt has ended, so nothing of it can publish any more.
fn next(
    ended: Ended,
    restarts: u64,
    budget: u32,
    resume: Option<Arc<ServeSnapshot>>,
    slot: &SnapshotSlot,
) -> Next {
    match ended {
        Ok(Ok(report)) => Next::Done(IngestReport { restarts, ..report }),
        Ok(Err(e)) => Next::Fail(e),
        Err(_) if restarts > u64::from(budget) => Next::Fail(format!(
            "ingest driver panicked {restarts} time(s); restart budget ({budget}) exhausted"
        )),
        // Resume past whatever the crashed attempt already published so
        // slot versions stay monotone.
        Err(_) if slot.version() > 0 => Next::Respawn(Some(slot.load())),
        Err(_) => Next::Respawn(resume),
    }
}

/// Bounded seal-queue depth, in batches. Small on purpose: it is the
/// feed's only slack during a slow recount — deep enough to absorb one
/// seal, shallow enough that a stuck sealer applies backpressure fast.
const SEAL_QUEUE_BATCHES: usize = 4;

/// One attempt's share of `bgp_serve_seal_queue_depth`, a gauge other
/// drivers on the same [`Metrics`] add to as well. The puller counts a
/// batch in before it sends it and the sealer counts it out after it
/// receives it, so the share never reads below zero; what a dead sealer
/// leaves queued is taken back once both threads have joined.
struct QueueDepth {
    gauge: Arc<obs::Gauge>,
    /// Sent minus received, this attempt only.
    queued: AtomicI64,
}

impl QueueDepth {
    fn new(gauge: Arc<obs::Gauge>) -> Self {
        QueueDepth {
            gauge,
            queued: AtomicI64::new(0),
        }
    }

    fn add(&self, d: i64) {
        self.queued.fetch_add(d, Ordering::Relaxed);
        self.gauge.add(d);
    }

    /// Count `batch` in and send it; a send the sealer is no longer there
    /// to receive (it panicked) takes its count back. Whether it was sent.
    fn send(&self, tx: &SyncSender<EventBatch>, batch: EventBatch) -> bool {
        self.add(1);
        tx.send(batch).inspect_err(|_| self.add(-1)).is_ok()
    }

    /// Take back whatever the attempt left queued. Call after both
    /// threads joined; never `set(0)`: the gauge is not this attempt's.
    fn settle(&self) {
        self.gauge.add(-self.queued.swap(0, Ordering::Relaxed));
    }
}

/// The feed-puller half of one attempt: it hands each clean batch to a
/// `send` callback, and keeps the quarantine count across every source
/// of the feed.
struct Puller<'a> {
    driver: &'a Driver,
    /// Records quarantined so far this attempt, all sources together.
    quarantined: u64,
}

/// Where the puller hands each batch; `false` = the sealer is gone.
type SendBatch<'s> = dyn FnMut(EventBatch) -> bool + 's;

/// How a pull that raised no error ended.
#[derive(Debug)]
struct Pulled {
    /// Records the feed quarantined.
    quarantined: u64,
    /// Whether every source ran dry; `false` when `stop` was raised or
    /// the sealer was gone first.
    drained: bool,
}

impl Puller<'_> {
    /// Materialize each source of `feed` in turn and pump it to `send`,
    /// until the feed drains, `stop` is raised, or the sealer is gone.
    fn pull(&mut self, feed: &Feed, send: &mut SendBatch<'_>) -> Result<Pulled, String> {
        let drained = match feed {
            Feed::MrtFiles(files) => {
                let mut drained = true;
                for file in files {
                    let bytes = std::fs::read(file).map_err(|e| format!("read {file}: {e}"))?;
                    drained = self
                        .pump(&mut MrtSource::new(&bytes), send)
                        .map_err(|e| format!("{file}: {e}"))?;
                    if !drained {
                        break;
                    }
                }
                drained
            }
            Feed::Sim {
                scenario,
                seed,
                repeats,
            } => {
                // The churny resilience scenarios are overlays on the
                // paper's pinned `random` world, not new entries in
                // `Scenario::ALL`: they only ADD duplicate re-announcements,
                // so the classification state they converge to is identical.
                let (base, churn) = match scenario.as_str() {
                    "flap-storm" => ("random", Churn::FlapStorm),
                    "peer-reset" => ("random", Churn::PeerReset),
                    other => (other, Churn::Steady),
                };
                let feed = UpdateFeed::simulated(base, *seed, *repeats, churn)
                    .ok_or_else(|| format!("unknown scenario {base:?}"))?;
                let events = feed.map(|(ts, tuple)| StreamEvent::new(ts, tuple));
                self.pump(&mut IterSource::new(events), send)
                    .map_err(|e| e.to_string())?
            }
            Feed::Events(events) => self
                .pump(&mut IterSource::new(events.clone().into_iter()), send)
                .map_err(|e| e.to_string())?,
        };
        Ok(Pulled {
            quarantined: self.quarantined,
            drained,
        })
    }

    /// Pump one source, the optional fault injector underneath and the
    /// quarantine filter on top, until it drains, `stop` is raised, or
    /// `send` refuses a batch. Each pull's quarantines are counted into
    /// the attempt's running total and reported before the batch is
    /// sent. Returns whether the source drained: `false` after a stop,
    /// or when the sealer died (the shell discovers its panic at join
    /// time).
    fn pump(
        &mut self,
        source: &mut dyn TupleSource,
        send: &mut SendBatch<'_>,
    ) -> Result<bool, IngestError> {
        let cfg = &self.driver.cfg;
        let mut faulty;
        let source: &mut dyn TupleSource = match &cfg.fault {
            Some(injector) => {
                faulty = FaultSource::new(injector, source);
                &mut faulty
            }
            None => source,
        };
        let mut guarded =
            QuarantinedSource::new(source, cfg.quarantine_abort).counted_from(self.quarantined);
        loop {
            if self.driver.stop.load(Ordering::Acquire) {
                return Ok(false);
            }
            // A pull that panics (an injected panic) still reports what
            // it quarantined before the panic goes on.
            let pulled =
                std::panic::catch_unwind(AssertUnwindSafe(|| guarded.next_batch(cfg.batch.max(1))));
            let fresh = guarded.quarantined() - self.quarantined;
            if fresh > 0 {
                self.quarantined += fresh;
                self.driver.metrics.records_quarantined.add(fresh);
            }
            let events = pulled.unwrap_or_else(|panic| std::panic::resume_unwind(panic))?;
            if events.is_empty() {
                return Ok(true);
            }
            if !send(events) {
                return Ok(false);
            }
        }
    }
}

/// The sealer half of one attempt: the pipeline and its publisher,
/// stepped a batch at a time at the instant each step is handed.
struct Sealer {
    pipeline: StreamPipeline,
    publisher: Publisher,
    metrics: Arc<Metrics>,
    health: Arc<HealthState>,
}

impl Sealer {
    /// Push one batch, publishing every epoch it seals as of `now`.
    fn take(&mut self, batch: &EventBatch, now: Instant) {
        let (pipeline, publisher, health) = (&mut self.pipeline, &mut self.publisher, &self.health);
        // Publish per seal, not per batch: with `compact_history` the
        // NEXT seal strips the previous epoch's counter store, so the
        // publisher must clone the Arc before that happens (compaction
        // then copy-on-writes, leaving the published snapshot intact).
        // A batch can seal several epochs.
        pipeline.push_events(batch, |pipeline| {
            health.note_publish(publisher.sync(pipeline) as u64, now);
        });
        self.metrics.events_ingested.add(batch.len() as u64);
    }

    /// The pull ended without an error. If the feed drained, seal
    /// whatever the last epoch policy window left open, publishing it as
    /// of `now`, so queries reflect the complete feed (idempotent when
    /// nothing is pending and at least one epoch already sealed); a
    /// stopped feed seals nothing more. Reports the pipeline's share of
    /// the [`IngestReport`] and the feed's quarantined count.
    fn finish(mut self, now: Instant, pulled: Pulled) -> IngestReport {
        let pipeline = &mut self.pipeline;
        let open = pipeline.latest().map(|s| s.total_events) != Some(pipeline.total_events());
        if pulled.drained && open {
            pipeline.seal_epoch();
            let published = self.publisher.sync(pipeline) as u64;
            self.health.note_publish(published, now);
        }
        IngestReport {
            total_events: pipeline.total_events(),
            epochs: pipeline.snapshots().len(),
            unique_tuples: pipeline.stored_tuples(),
            quarantined: pulled.quarantined,
            ..IngestReport::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::health::HealthStatus;
    use bgp_infer::counters::Thresholds;
    use bgp_stream::epoch::{EpochPolicy, SealKind};
    use bgp_types::prelude::*;

    fn events(n: u64) -> Vec<StreamEvent> {
        (0..n)
            .map(|i| {
                let tag = u32::try_from(2 + i % 5).unwrap();
                StreamEvent::new(
                    i,
                    PathCommTuple::new(
                        path(&[tag, 9]),
                        CommunitySet::from_iter([AnyCommunity::tag_for(Asn(tag), 100)]),
                    ),
                )
            })
            .collect()
    }

    /// A driver over an empty event feed and a fresh slot, for tests that
    /// step its halves themselves.
    fn driver(cfg: DriverConfig) -> Driver {
        Driver {
            cfg,
            feed: Feed::Events(Vec::new()),
            slot: Arc::new(SnapshotSlot::new(Thresholds::default())),
            metrics: Arc::new(Metrics::new()),
            sink: None,
            stop: Arc::default(),
        }
    }

    #[test]
    fn the_queue_depth_never_counts_a_batch_it_did_not_queue() {
        // A private gauge, already carrying another driver's share.
        let gauge = obs::ObsRegistry::new().gauge("depth", "", &[]);
        gauge.add(5);
        let depth = QueueDepth::new(Arc::clone(&gauge));
        let driver = driver(DriverConfig {
            batch: 3,
            ..Default::default()
        });
        let (tx, rx) = std::sync::mpsc::sync_channel::<EventBatch>(SEAL_QUEUE_BATCHES);
        let mut send = |batch| depth.send(&tx, batch);
        let mut puller = Puller {
            driver: &driver,
            quarantined: 0,
        };
        let mut source = IterSource::new(events(9).into_iter());
        assert!(puller.pump(&mut source, &mut send).unwrap(), "drained");
        assert_eq!(gauge.get(), 5 + 3);
        // The sealer takes one batch and dies with two queued.
        rx.recv().unwrap();
        depth.add(-1);
        drop(rx);
        assert_eq!(gauge.get(), 5 + 2);
        // A send that fails takes back its own count.
        let mut source = IterSource::new(events(3).into_iter());
        assert!(!puller.pump(&mut source, &mut send).unwrap(), "not drained");
        assert_eq!(gauge.get(), 5 + 2);
        // After the join the attempt's leftovers go, and only they.
        depth.settle();
        assert_eq!(gauge.get(), 5);
        depth.settle();
        assert_eq!(gauge.get(), 5);
    }

    #[test]
    fn driver_publishes_trailing_epoch() {
        let slot = Arc::new(SnapshotSlot::new(Thresholds::default()));
        let metrics = Arc::new(Metrics::new());
        let cfg = DriverConfig {
            stream: StreamConfig {
                shards: 2,
                epoch: EpochPolicy::every_events(4),
                ..Default::default()
            },
            batch: 3,
            flip_log_cap: 1024,
            ..Default::default()
        };
        let handle = spawn_ingest_archived(
            cfg,
            Feed::Events(events(10)),
            Arc::clone(&slot),
            Arc::clone(&metrics),
            None,
            None,
        );
        let report = handle.join().expect("driver succeeds");
        assert_eq!(report.total_events, 10);
        assert_eq!(report.epochs, 3, "two full epochs + trailing partial");
        let snap = slot.load();
        assert_eq!(snap.version(), 3);
        assert_eq!(snap.epoch.as_ref().unwrap().total_events, 10);
    }

    #[test]
    fn driver_serves_sim_feed() {
        let slot = Arc::new(SnapshotSlot::new(Thresholds::default()));
        let metrics = Arc::new(Metrics::new());
        let cfg = DriverConfig {
            stream: StreamConfig {
                shards: 2,
                epoch: EpochPolicy::every_events(256),
                ..Default::default()
            },
            ..Default::default()
        };
        let feed = Feed::Sim {
            scenario: "alltf".to_string(),
            seed: 7,
            repeats: 1,
        };
        let report = spawn_ingest_archived(cfg, feed, Arc::clone(&slot), metrics, None, None)
            .join()
            .unwrap();
        assert!(report.total_events > 0);
        let snap = slot.load();
        assert!(!snap.records.is_empty());
        assert_eq!(
            snap.epoch.as_ref().unwrap().total_events,
            report.total_events
        );
    }

    #[test]
    fn driver_stop_is_honored() {
        let slot = Arc::new(SnapshotSlot::new(Thresholds::default()));
        let metrics = Arc::new(Metrics::new());
        let handle = spawn_ingest_archived(
            DriverConfig::default(),
            Feed::Events(events(100_000)),
            slot,
            metrics,
            None,
            None,
        );
        handle.stop();
        // Must terminate promptly even with a large feed.
        let report = handle.join().expect("stop is clean");
        assert!(report.total_events <= 100_000);
    }

    #[test]
    fn driver_archives_and_resumes() {
        use bgp_archive::prelude::{Archive, ArchiveWriter};

        let dir = std::env::temp_dir().join(format!("bgp-driver-archive-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = || DriverConfig {
            stream: StreamConfig {
                shards: 2,
                epoch: EpochPolicy::every_events(4),
                ..Default::default()
            },
            batch: 3,
            flip_log_cap: 1024,
            ..Default::default()
        };

        // First run: every sealed epoch lands in the archive.
        let slot = Arc::new(SnapshotSlot::new(Thresholds::default()));
        let sink = ArchiveSink::spawn(ArchiveWriter::open(&dir).unwrap());
        let report = spawn_ingest_archived(
            cfg(),
            Feed::Events(events(10)),
            Arc::clone(&slot),
            Arc::new(Metrics::new()),
            Some(sink),
            None,
        )
        .join()
        .unwrap();
        assert_eq!(report.epochs, 3);
        assert_eq!(report.archived_epochs, 3);
        let live = slot.load();

        // Restart: republish the archived tail instantly, then replay
        // the same deterministic feed as backfill — nothing may be
        // re-archived and the slot version may never move backwards.
        let slot2 = Arc::new(SnapshotSlot::new(Thresholds::default()));
        let archive = Archive::open(&dir).unwrap();
        let restored = crate::restore::restore_latest(&archive, 1024)
            .unwrap()
            .unwrap();
        slot2.publish(Arc::clone(&restored));
        assert_eq!(slot2.load().version(), live.version());
        let sink = ArchiveSink::spawn(ArchiveWriter::open(&dir).unwrap());
        let report2 = spawn_ingest_archived(
            cfg(),
            Feed::Events(events(10)),
            Arc::clone(&slot2),
            Arc::new(Metrics::new()),
            Some(sink),
            Some(restored),
        )
        .join()
        .unwrap();
        assert_eq!(report2.archived_epochs, 0, "backfill re-archives nothing");
        let after = slot2.load();
        assert_eq!(after.version(), live.version());
        assert_eq!(after.records, live.records);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn driver_respawns_after_injected_panic() {
        use fault::FaultPlan;

        let plan = FaultPlan::parse("feed:panic@2").unwrap();
        let injector = Arc::new(plan.feed_injector(7).unwrap());
        let slot = Arc::new(SnapshotSlot::new(Thresholds::default()));
        let metrics = Arc::new(Metrics::new());
        let health = Arc::new(HealthState::new(Arc::clone(&metrics), Instant::now()));
        let cfg = DriverConfig {
            stream: StreamConfig {
                shards: 2,
                epoch: EpochPolicy::every_events(4),
                ..Default::default()
            },
            batch: 3,
            fault: Some(Arc::clone(&injector)),
            restart_budget: 2,
            health: Arc::clone(&health),
            ..Default::default()
        };
        let report = spawn_ingest_archived(
            cfg,
            Feed::Events(events(10)),
            Arc::clone(&slot),
            metrics,
            None,
            None,
        )
        .join()
        .expect("supervisor respawns past the panic");
        assert_eq!(report.restarts, 1, "one panic, one respawn");
        assert_eq!(report.total_events, 10, "replay re-derives the feed");
        assert_eq!(health.restarts(), 1);
        // The respawned attempt published, so the restart reason cleared
        // and the drained feed leaves the daemon healthy again.
        let verdict = health.evaluate(Instant::now());
        assert_eq!(verdict.status, HealthStatus::Ok, "{:?}", verdict.reasons);
        assert_eq!(slot.load().epoch.as_ref().unwrap().total_events, 10);
    }

    #[test]
    fn driver_restart_budget_exhausts_to_unhealthy() {
        use fault::FaultPlan;

        // Probability-1 panics: every attempt dies on its first pull.
        let plan = FaultPlan::parse("feed:panic%1.0").unwrap();
        let injector = Arc::new(plan.feed_injector(7).unwrap());
        let health = Arc::new(HealthState::new(Arc::default(), Instant::now()));
        let cfg = DriverConfig {
            fault: Some(injector),
            restart_budget: 1,
            health: Arc::clone(&health),
            ..Default::default()
        };
        let err = spawn_ingest_archived(
            cfg,
            Feed::Events(events(10)),
            Arc::new(SnapshotSlot::new(Thresholds::default())),
            Arc::new(Metrics::new()),
            None,
            None,
        )
        .join()
        .unwrap_err();
        assert!(err.contains("restart budget"), "{err}");
        let verdict = health.evaluate(Instant::now());
        assert_eq!(verdict.status, HealthStatus::Unhealthy);
        assert_eq!(verdict.reasons, vec!["ingest_failed"]);
    }

    #[test]
    fn driver_quarantines_malformed_events() {
        let mut feed = events(10);
        feed.insert(4, fault::malformed_event());
        feed.insert(8, fault::malformed_event());
        let slot = Arc::new(SnapshotSlot::new(Thresholds::default()));
        let report = spawn_ingest_archived(
            DriverConfig::default(),
            Feed::Events(feed),
            Arc::clone(&slot),
            Arc::new(Metrics::new()),
            None,
            None,
        )
        .join()
        .unwrap();
        assert_eq!(report.quarantined, 2);
        assert_eq!(report.total_events, 10, "clean events all ingested");
    }

    #[test]
    fn driver_runs_churn_scenarios() {
        for name in ["flap-storm", "peer-reset"] {
            let slot = Arc::new(SnapshotSlot::new(Thresholds::default()));
            let feed = Feed::Sim {
                scenario: name.to_string(),
                seed: 7,
                repeats: 0,
            };
            let report = spawn_ingest_archived(
                DriverConfig::default(),
                feed,
                Arc::clone(&slot),
                Arc::new(Metrics::new()),
                None,
                None,
            )
            .join()
            .unwrap();
            assert!(report.total_events > 0, "{name} produced events");
            assert!(!slot.load().records.is_empty(), "{name} classified");
        }
    }

    #[test]
    fn driver_reports_unknown_scenario() {
        let slot = Arc::new(SnapshotSlot::new(Thresholds::default()));
        let feed = Feed::Sim {
            scenario: "nope".to_string(),
            seed: 1,
            repeats: 0,
        };
        let err = spawn_ingest_archived(
            DriverConfig::default(),
            feed,
            slot,
            Arc::new(Metrics::new()),
            None,
            None,
        )
        .join()
        .unwrap_err();
        assert!(err.contains("unknown scenario"), "{err}");
    }

    // ---- The supervised driver, simulated --------------------------------
    //
    // One thread, one seeded clock: the puller's pump over a fault-injected
    // feed, the sealer's steps into a slot, the respawn decision and the
    // health state, interleaved by a seeded scheduler and checked after
    // every step against a never-faulted run and against a model of
    // `/healthz`. The channel is a queue of `SEAL_QUEUE_BATCHES` the
    // scheduler fills and drains; the thread shells (`Driver::run`,
    // `Driver::attempt`) are what the threaded tests above and the soaks
    // drive. A failing case replays from its number: the
    // method of FoundationDB's simulation testing (Zhou et al., SIGMOD '21).

    use crate::health::{QUARANTINE_MAX_RATIO, STALE_AFTER};
    use bgp_infer::db::DbRecord;
    use fault::{FaultKind, FaultRule, Trigger};
    use proptest::TestRng;
    use std::collections::{BTreeMap, VecDeque};
    use std::sync::Mutex;
    use std::time::Duration;

    /// Every path a run of the simulation must reach, or it checks nothing.
    const PATHS: [&str; 14] = [
        "quarantined",
        "queue full",
        "respawn",
        "respawn past a publish",
        "taken after a panic",
        "backfill skipped",
        "budget exhausted",
        "drained",
        "stopped",
        "stopped with an epoch open",
        "stale",
        "stale at exactly STALE_AFTER",
        "restart reason",
        "quarantine rate",
    ];

    /// Every snapshot `slot` publishes from now on, in order.
    fn watch(slot: &Arc<SnapshotSlot>) -> Arc<Mutex<Vec<Arc<ServeSnapshot>>>> {
        let log = Arc::new(Mutex::new(Vec::new()));
        let (seen, weak) = (Arc::clone(&log), Arc::downgrade(slot));
        slot.register_waker(Arc::new(move || {
            if let Some(slot) = weak.upgrade() {
                seen.lock().unwrap().push(slot.load());
            }
        }));
        log
    }

    /// A feed over a few dozen ASes: most tuples new, some repeated, so
    /// every epoch's record table differs from its neighbours'.
    fn arb_feed(rng: &mut TestRng) -> Vec<StreamEvent> {
        (0..rng.random_range(20..120u64))
            .map(|i| {
                let (near, far) = (rng.random_range(2..24u32), rng.random_range(24..32u32));
                let tagger = if rng.random_range(0..3u32) == 0 {
                    far
                } else {
                    near
                };
                let tag = AnyCommunity::tag_for(Asn(tagger), rng.random_range(100..103u32));
                StreamEvent::new(
                    i,
                    PathCommTuple::new(path(&[near, far]), CommunitySet::from_iter([tag])),
                )
            })
            .collect()
    }

    /// The simulation's state beside the driver's: the clock, the model
    /// of what `/healthz` must say, and the paths reached.
    struct World {
        rng: TestRng,
        now: Instant,
        slot: Arc<SnapshotSlot>,
        metrics: Arc<Metrics>,
        health: Arc<HealthState>,
        injector: Arc<FeedInjector>,
        /// The never-faulted run's record table of each version.
        clean: Vec<Vec<DbRecord>>,
        published: Arc<Mutex<Vec<Arc<ServeSnapshot>>>>,
        /// Each published epoch's timeline, as its publish put it.
        timelines: Vec<obs::EpochTrace>,
        /// The highest version published so far.
        version: u64,
        last_publish: Instant,
        ingested: u64,
        panics: u64,
        /// Records quarantined as of the last check.
        checked_quarantined: u64,
        restart_pending: bool,
        done: bool,
        failed: bool,
        seen: BTreeMap<&'static str, u64>,
    }

    impl World {
        fn saw(&mut self, path: &'static str) {
            *self.seen.entry(path).or_default() += 1;
        }

        /// Records quarantined so far: one per injected `corrupt` or
        /// `truncate`, the faults that are not panics.
        fn quarantined(&self) -> u64 {
            self.injector.fired() - self.panics
        }

        /// Check every snapshot published since the last call against
        /// the never-faulted run, and its epoch's one live timeline; how
        /// many there were.
        fn publishes(&mut self, ctx: &str) -> usize {
            let fresh: Vec<_> = std::mem::take(&mut *self.published.lock().unwrap());
            for snap in &fresh {
                let v = snap.version();
                assert!(
                    v > self.version,
                    "{ctx}: version {v} after {}",
                    self.version
                );
                let clean = &self.clean[usize::try_from(v).unwrap() - 1];
                assert!(snap.records == *clean, "{ctx}: version {v} diverged");
                self.version = v;
                let epoch = snap.epoch.as_ref().expect("a sealed epoch");
                let trace = self.metrics.registry().traces().get(epoch.epoch);
                let trace = trace.unwrap_or_else(|| panic!("{ctx}: version {v} untraced"));
                let names: Vec<&str> = trace.stages.iter().map(|s| s.stage.as_str()).collect();
                let want: &[&str] = match epoch.seal.kind {
                    SealKind::ZeroDelta => &["ingest", "seal", "publish"],
                    _ => &["ingest", "seal", "shard_count", "shard_merge", "publish"],
                };
                assert_eq!(names, want, "{ctx}: version {v}");
                let events = trace.stages[0].counters.iter().find(|(k, _)| k == "events");
                assert_eq!(events, Some(&("events".to_string(), epoch.events)), "{ctx}");
                self.timelines.push(trace);
            }
            self.timelines_stand(ctx);
            if !fresh.is_empty() {
                self.last_publish = self.now;
                self.restart_pending = false;
            }
            fresh.len()
        }

        /// Every published epoch has one live timeline, still the one its
        /// publish put: a replay that seals it again writes none.
        fn timelines_stand(&self, ctx: &str) {
            let traces = self.metrics.registry().traces();
            let held = traces.epochs();
            let mut distinct = held.clone();
            distinct.sort_unstable();
            distinct.dedup();
            assert_eq!(distinct.len(), held.len(), "{ctx}: one timeline an epoch");
            for trace in &self.timelines {
                let live = traces.get(trace.epoch);
                assert_eq!(live.as_ref(), Some(trace), "{ctx}: epoch {}", trace.epoch);
            }
        }

        /// The sealer takes one batch at the simulated instant.
        fn take(&mut self, sealer: &mut Sealer, batch: &EventBatch, ctx: &str) {
            let sealed = sealer.pipeline.snapshots().len();
            sealer.take(batch, self.now);
            self.ingested += batch.len() as u64;
            let published = self.publishes(ctx);
            if sealer.pipeline.snapshots().len() - sealed > published {
                self.saw("backfill skipped");
            }
        }

        /// A step that is neither a pull nor a take: the clock moves
        /// (sometimes to just at or past the staleness bound), or stands.
        fn elsewhere(&mut self, ctx: &str) {
            match self.rng.random_range(0..4u32) {
                0 | 1 => self.now += Duration::from_millis(self.rng.random_range(0..=2_000u64)),
                2 => {
                    let past = [0, 1, self.rng.random_range(2..1_000_000_000u64)];
                    let to = self.last_publish
                        + STALE_AFTER
                        + Duration::from_nanos(past[self.rng.random_range(0..3usize)]);
                    self.now = self.now.max(to);
                }
                _ => {}
            }
            self.check(ctx);
        }

        /// `/healthz` and the counters against the model.
        fn check(&mut self, ctx: &str) {
            assert_eq!(self.slot.version(), self.version, "{ctx}: slot version");
            let (q, i) = (self.quarantined(), self.ingested);
            assert_eq!(
                self.metrics.records_quarantined.get(),
                q,
                "{ctx}: quarantined"
            );
            if q > std::mem::replace(&mut self.checked_quarantined, q) {
                self.saw("quarantined");
            }
            assert_eq!(self.metrics.events_ingested.get(), i, "{ctx}: ingested");
            let mut reasons = Vec::new();
            if self.failed {
                reasons.push("ingest_failed".to_string());
            } else {
                let idle = self.now.saturating_duration_since(self.last_publish);
                if !self.done && idle > STALE_AFTER {
                    reasons.push("epochs_stale".to_string());
                    self.saw("stale");
                } else if !self.done && idle == STALE_AFTER {
                    self.saw("stale at exactly STALE_AFTER");
                }
                if q > 0 && q as f64 / (q + i) as f64 > QUARANTINE_MAX_RATIO {
                    reasons.push("quarantine_rate".to_string());
                    self.saw("quarantine rate");
                }
                if self.restart_pending && !self.done {
                    reasons.push("driver_restarted".to_string());
                    self.saw("restart reason");
                }
            }
            let status = match (self.failed, reasons.is_empty()) {
                (true, _) => HealthStatus::Unhealthy,
                (false, true) => HealthStatus::Ok,
                (false, false) => HealthStatus::Degraded,
            };
            let report = self.health.evaluate(self.now);
            assert_eq!((report.status, report.reasons), (status, reasons), "{ctx}");
        }
    }

    /// The injected panic's message, as `FaultSource` raises it.
    fn injected(panic: &(dyn std::any::Any + Send)) -> bool {
        panic
            .downcast_ref::<&str>()
            .is_some_and(|m| m.starts_with("injected ingest panic"))
    }

    fn simulate(case: u32) -> BTreeMap<&'static str, u64> {
        let mut rng = TestRng::for_case("driver_simulation", case);
        let events = arb_feed(&mut rng);
        let total = events.len() as u64;
        let stream = StreamConfig {
            shards: rng.random_range(1..=2usize),
            epoch: EpochPolicy::every_events(rng.random_range(3..=12u64)),
            ..Default::default()
        };
        let batch = rng.random_range(1..=6usize);
        let budget = rng.random_range(0..=3u32);
        let t0 = Instant::now();

        // The never-faulted run: the same steps, no faults, one attempt.
        let clean_driver = Driver {
            feed: Feed::Events(events.clone()),
            ..driver(DriverConfig {
                stream: stream.clone(),
                batch,
                ..Default::default()
            })
        };
        let published = watch(&clean_driver.slot);
        let mut sealer = clean_driver.sealer(None);
        let mut puller = Puller {
            driver: &clean_driver,
            quarantined: 0,
        };
        let mut send = |batch: EventBatch| {
            sealer.take(&batch, t0);
            true
        };
        let pulled = puller.pull(&clean_driver.feed, &mut send).unwrap();
        sealer.finish(t0, pulled);
        let clean: Vec<Vec<DbRecord>> = published
            .lock()
            .unwrap()
            .iter()
            .enumerate()
            .map(|(at, snap)| {
                assert_eq!(snap.version(), at as u64 + 1);
                snap.records.clone()
            })
            .collect();

        // The faulted run. One roll a pull picks the fault: the panic
        // rule is listed first, so it owns the lowest band.
        let (p_panic, p_truncate, p_corrupt) = match rng.random_range(0..4u32) {
            0 => (0.0, 0.0, 0.0),
            _ => (
                rng.random_range(0..60u32) as f64 / 1000.0,
                rng.random_range(0..150u32) as f64 / 1000.0,
                rng.random_range(0..250u32) as f64 / 1000.0,
            ),
        };
        let panic_at = match rng.random_range(0..2u32) {
            0 => Trigger::Prob(p_panic),
            _ => Trigger::At(rng.random_range(1..40u64)),
        };
        let rule = |kind, trigger| FaultRule { kind, trigger };
        let injector = Arc::new(FeedInjector::new(
            vec![
                rule(FaultKind::Panic, panic_at),
                rule(FaultKind::Truncate, Trigger::Prob(p_panic + p_truncate)),
                rule(
                    FaultKind::Corrupt,
                    Trigger::Prob(p_panic + p_truncate + p_corrupt),
                ),
            ],
            rng.next_u64(),
        ));
        let metrics = Arc::new(Metrics::new());
        let health = Arc::new(HealthState::new(Arc::clone(&metrics), t0));
        let driver = Driver {
            feed: Feed::Events(events),
            metrics: Arc::clone(&metrics),
            ..driver(DriverConfig {
                stream,
                batch,
                restart_budget: budget,
                fault: Some(Arc::clone(&injector)),
                health: Arc::clone(&health),
                ..Default::default()
            })
        };
        let mut w = World {
            rng,
            now: t0,
            slot: Arc::clone(&driver.slot),
            published: watch(&driver.slot),
            timelines: Vec::new(),
            metrics,
            health,
            injector,
            clean,
            version: 0,
            last_publish: t0,
            ingested: 0,
            panics: 0,
            checked_quarantined: 0,
            restart_pending: false,
            done: false,
            failed: false,
            seen: BTreeMap::new(),
        };

        let (mut resume, mut restarts, mut stopped) = (None, 0u64, false);
        for attempt in 0.. {
            let ctx = format!("case {case} attempt {attempt}");
            let mut sealer = driver.sealer(resume.clone());
            let mut queue = VecDeque::new();
            let mut puller = Puller {
                driver: &driver,
                quarantined: 0,
            };
            let pulled = std::panic::catch_unwind(AssertUnwindSafe(|| {
                puller.pull(&driver.feed, &mut |batch| {
                    w.check(&ctx);
                    // Now and then, once a case, an operator stops the
                    // daemon: the pull ends after this batch.
                    if !stopped && w.rng.random_range(0..32u32) == 0 {
                        driver.stop.store(true, Ordering::Release);
                        stopped = true;
                    }
                    loop {
                        match w.rng.random_range(0..10u32) {
                            0..=3 if queue.len() < SEAL_QUEUE_BATCHES => {
                                queue.push_back(batch);
                                return true;
                            }
                            0..=3 => w.saw("queue full"),
                            4..=6 => match queue.pop_front() {
                                Some(taken) => w.take(&mut sealer, &taken, &ctx),
                                None => continue,
                            },
                            _ => w.elsewhere(&ctx),
                        }
                        w.check(&ctx);
                    }
                })
            }));
            match &pulled {
                Ok(Ok(_)) => {}
                Ok(Err(e)) => panic!("{ctx}: the feed failed: {e}"),
                Err(panic) if injected(&**panic) => w.panics += 1,
                Err(_) => std::panic::resume_unwind(pulled.unwrap_err()),
            }
            w.check(&ctx);
            // The puller is gone; the sealer takes what is queued before
            // its join hands it back.
            if pulled.is_err() && !queue.is_empty() {
                w.saw("taken after a panic");
            }
            while let Some(taken) = queue.pop_front() {
                while w.rng.random_range(0..2u32) == 0 {
                    w.elsewhere(&ctx);
                }
                w.take(&mut sealer, &taken, &ctx);
                w.check(&ctx);
            }
            let open = sealer.pipeline.latest().map(|s| s.total_events)
                != Some(sealer.pipeline.total_events());
            let ended = ended(pulled, Ok(sealer), w.now);
            w.publishes(&ctx);
            if ended.is_err() {
                restarts += 1;
                w.health.note_restart();
                w.restart_pending = true;
            }
            w.check(&ctx);
            let stop = driver.stop.swap(false, Ordering::AcqRel);
            match next(ended, restarts, budget, resume.clone(), &w.slot) {
                Next::Done(report) if stop => {
                    // Stopped: what sealed is published, the trailing
                    // epoch stays open. The daemon's next run restores
                    // the last published snapshot and replays the whole
                    // feed, sealing that epoch as a never-stopped run.
                    w.saw("stopped");
                    if open {
                        w.saw("stopped with an epoch open");
                    }
                    assert!(report.total_events <= total, "{ctx}");
                    assert!(w.version as usize <= w.clean.len(), "{ctx}");
                    if w.slot.version() > 0 {
                        resume = Some(w.slot.load());
                    }
                    w.injector.reset_stream();
                }
                Next::Done(report) => {
                    w.health.mark_ingest_done();
                    w.done = true;
                    w.saw("drained");
                    assert_eq!(report.restarts, restarts, "{ctx}");
                    assert_eq!(report.total_events, total, "{ctx}");
                    assert_eq!(report.epochs, w.clean.len(), "{ctx}");
                    assert_eq!(w.version as usize, w.clean.len(), "{ctx}");
                    break;
                }
                Next::Fail(e) => {
                    assert!(restarts > u64::from(budget), "{ctx}: {e}");
                    w.health.mark_ingest_failed();
                    w.failed = true;
                    w.saw("budget exhausted");
                    break;
                }
                Next::Respawn(from) => {
                    assert!(restarts <= u64::from(budget), "{ctx}");
                    w.saw("respawn");
                    if let Some(from) = &from {
                        assert_eq!(from.version(), w.version, "{ctx}: resumed past");
                        w.saw("respawn past a publish");
                    }
                    w.injector.reset_stream();
                    resume = from;
                }
            }
            w.check(&ctx);
        }
        // Time goes on after the driver: drained is never stale, failed
        // stays failed.
        for step in 0..8 {
            w.elsewhere(&format!("case {case} after the driver, step {step}"));
        }
        w.seen
    }

    fn simulate_cases(cases: u32) {
        let mut seen: BTreeMap<&str, u64> = BTreeMap::new();
        for case in 0..cases {
            for (path, n) in simulate(case) {
                *seen.entry(path).or_default() += n;
            }
        }
        for path in PATHS {
            assert!(seen.contains_key(path), "no case reached {path}: {seen:?}");
        }
    }

    #[test]
    fn the_supervised_driver_matches_its_model_on_a_seeded_clock() {
        simulate_cases(64);
    }

    #[test]
    #[ignore = "long: run with --release -- --ignored"]
    fn the_supervised_driver_matches_its_model_on_a_seeded_clock_at_length() {
        simulate_cases(2_000);
    }
}
