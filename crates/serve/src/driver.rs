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
//! histogram and the seal-queue gauge. A daemon therefore hands down its
//! one registry through `metrics` alone, and [`DriverConfig`] carries
//! none.
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
//! The driver is *supervised*: each feed attempt runs under
//! `catch_unwind`, and a panicking attempt is respawned (up to
//! [`DriverConfig::restart_budget`] times) with the pipeline rebuilt
//! and the feed replayed from the start — the same deterministic-replay
//! backfill the restart path uses, resuming past whatever the slot
//! already serves so versions stay monotone. Every source is wrapped in
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
            health: Arc::default(),
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
    /// Ask the driver to stop after the batch in flight.
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
/// supervision event to [`DriverConfig::health`]. A trailing partial
/// epoch is sealed (and published) when the feed ends, so the served
/// snapshot always covers every ingested event once the driver finishes.
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
    /// The supervisor: run the feed under `catch_unwind`; a panicking
    /// attempt is respawned with a fresh pipeline, resuming past the
    /// snapshot the slot already serves (deterministic-replay backfill,
    /// same as the restart path). The fault injector's clock is shared
    /// across attempts, so an injected `panic@N` fires once ever.
    fn run(self, mut resume: Option<Arc<ServeSnapshot>>) -> Result<IngestReport, String> {
        let health = &self.cfg.health;
        if let Some(sink) = &self.sink {
            health.attach_sink(sink.status());
        }
        let mut restarts = 0u64;
        let mut report = loop {
            match std::panic::catch_unwind(AssertUnwindSafe(|| self.attempt(resume.clone()))) {
                Ok(Ok(report)) => break report,
                Ok(Err(e)) => {
                    health.mark_ingest_failed();
                    return Err(e);
                }
                Err(_) => {
                    restarts += 1;
                    health.note_restart();
                    if restarts > u64::from(self.cfg.restart_budget) {
                        health.mark_ingest_failed();
                        return Err(format!(
                            "ingest driver panicked {restarts} time(s); restart budget ({}) exhausted",
                            self.cfg.restart_budget
                        ));
                    }
                    obs::error!(
                        "serve",
                        "ingest driver panicked; respawning ({restarts}/{} used)",
                        self.cfg.restart_budget
                    );
                    if let Some(injector) = &self.cfg.fault {
                        injector.reset_stream();
                    }
                    // Resume past whatever the crashed attempt already
                    // published so slot versions stay monotone.
                    if self.slot.version() > 0 {
                        resume = Some(self.slot.load());
                    }
                }
            }
        };
        health.mark_ingest_done();
        report.restarts = restarts;

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

    /// One feed attempt: a fresh pipeline + publisher are handed to a
    /// dedicated **sealer worker** thread, and this (supervised) thread
    /// becomes the **feed puller**, pushing quarantine-scrubbed event
    /// batches over a bounded channel. Panics on either side propagate to
    /// the supervisor in [`Driver::run`] — but only after the sealer has
    /// been joined, so a respawned attempt can never race an old publisher
    /// on the slot.
    fn attempt(&self, resume: Option<Arc<ServeSnapshot>>) -> Result<IngestReport, String> {
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
        if let Some(traces) = &cfg.stream.trace {
            publisher = publisher.with_traces(Arc::clone(traces));
        }

        let (tx, rx) = std::sync::mpsc::sync_channel::<EventBatch>(SEAL_QUEUE_BATCHES);
        let depth = Arc::new(QueueDepth::new(Arc::clone(&self.metrics.seal_queue_depth)));
        let sealer = {
            let metrics = Arc::clone(&self.metrics);
            let health = Arc::clone(&cfg.health);
            let depth = Arc::clone(&depth);
            std::thread::Builder::new()
                .name("bgp-serve-sealer".to_string())
                .spawn(move || sealer_main(pipeline, publisher, rx, &metrics, &health, &depth))
                .expect("spawn sealer worker")
        };

        // Pull the feed under catch_unwind so the sealer is ALWAYS joined
        // before a puller panic reaches the supervisor.
        let mut puller = Puller {
            cfg,
            metrics: &self.metrics,
            stop: &self.stop,
            tx,
            depth: &depth,
            quarantined: 0,
        };
        let pulled = std::panic::catch_unwind(AssertUnwindSafe(|| puller.pull(&self.feed)));
        let quarantined = puller.quarantined;
        drop(puller); // disconnect: the sealer drains, seals the trailing epoch, exits
        let sealed = sealer.join();
        depth.settle();
        match pulled {
            Err(panic) => std::panic::resume_unwind(panic),
            Ok(Err(e)) => return Err(e),
            Ok(Ok(())) => {}
        }
        let mut report = sealed.unwrap_or_else(|panic| std::panic::resume_unwind(panic));
        report.quarantined = quarantined;
        Ok(report)
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

    /// Take back whatever the attempt left queued. Call after both
    /// threads joined; never `set(0)`: the gauge is not this attempt's.
    fn settle(&self) {
        self.gauge.add(-self.queued.swap(0, Ordering::Relaxed));
    }
}

/// The feed-puller half of one attempt: the sending end of the seal
/// queue, and the quarantine count across every source of the feed.
struct Puller<'a> {
    cfg: &'a DriverConfig,
    metrics: &'a Metrics,
    stop: &'a AtomicBool,
    tx: SyncSender<EventBatch>,
    depth: &'a QueueDepth,
    /// Records quarantined so far this attempt, all sources together.
    quarantined: u64,
}

impl Puller<'_> {
    /// Materialize each source of `feed` in turn and pump it to the
    /// sealer, until the feed ends, `stop` is raised, or the sealer dies.
    fn pull(&mut self, feed: &Feed) -> Result<(), String> {
        match feed {
            Feed::MrtFiles(files) => {
                for file in files {
                    let bytes = std::fs::read(file).map_err(|e| format!("read {file}: {e}"))?;
                    let sealer_alive = self
                        .pump(&mut MrtSource::new(&bytes))
                        .map_err(|e| format!("{file}: {e}"))?;
                    if !sealer_alive || self.stop.load(Ordering::Acquire) {
                        break;
                    }
                }
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
                self.pump(&mut IterSource::new(events))
                    .map_err(|e| e.to_string())?;
            }
            Feed::Events(events) => {
                self.pump(&mut IterSource::new(events.clone().into_iter()))
                    .map_err(|e| e.to_string())?;
            }
        }
        Ok(())
    }

    /// Pump one source, the optional fault injector underneath and the
    /// quarantine filter on top, until it drains, `stop` is raised, or
    /// the sealer hangs up. Each pull's quarantines are counted into the
    /// attempt's running total and reported before the batch is sent.
    /// Returns whether the sealer was still accepting batches (false = it
    /// died; the caller discovers the panic at join time).
    fn pump(&mut self, source: &mut dyn TupleSource) -> Result<bool, IngestError> {
        let cfg = self.cfg;
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
            if self.stop.load(Ordering::Acquire) {
                return Ok(true);
            }
            let pulled = guarded.next_batch(cfg.batch.max(1));
            let fresh = guarded.quarantined() - self.quarantined;
            if fresh > 0 {
                self.quarantined += fresh;
                self.metrics.records_quarantined.add(fresh);
            }
            let events = pulled?;
            if events.is_empty() {
                return Ok(true);
            }
            self.depth.add(1);
            if self.tx.send(events).is_err() {
                // Receiver gone: the sealer panicked. Surface it via join.
                self.depth.add(-1);
                return Ok(false);
            }
        }
    }
}

/// Sealer-worker main: owns the pipeline + publisher for one attempt.
/// Pushes every received batch, seals/publishes when the epoch policy
/// fires, and seals the trailing partial epoch once the feed hangs up,
/// so the served snapshot always covers every ingested event. Reports
/// the pipeline's share of the [`IngestReport`].
fn sealer_main(
    mut pipeline: StreamPipeline,
    mut publisher: Publisher,
    rx: std::sync::mpsc::Receiver<EventBatch>,
    metrics: &Metrics,
    health: &HealthState,
    depth: &QueueDepth,
) -> IngestReport {
    let traces = pipeline.config().trace.clone();
    while let Ok(events) = rx.recv() {
        depth.add(-1);
        let t_batch = std::time::Instant::now();
        let n = events.len() as u64;
        // Publish per seal, not per batch: with `compact_history` the
        // NEXT seal strips the previous epoch's counter store, so the
        // publisher must clone the Arc before that happens (compaction
        // then copy-on-writes, leaving the published snapshot intact).
        // A batch can seal several epochs.
        pipeline.push_events(&events, |pipeline| {
            health.note_publish(publisher.sync(pipeline) as u64);
        });
        metrics.events_ingested.add(n);
        let batch_nanos = t_batch.elapsed().as_nanos() as u64;
        metrics.ingest_batch.record(batch_nanos);
        if let Some(traces) = &traces {
            // Accumulated into whichever epoch is open when the batch
            // ends — a batch that straddles a seal attributes its tail
            // to the next epoch, which is close enough for provenance.
            traces.accumulate(
                traces.active(),
                "ingest",
                batch_nanos,
                &[("batches", 1), ("events", n)],
            );
        }
    }

    // Seal whatever the last epoch policy window left open so queries
    // reflect the complete feed (idempotent when nothing is pending and
    // at least one epoch already sealed).
    let sealed_events = pipeline.latest().map(|s| s.total_events);
    if sealed_events != Some(pipeline.total_events()) {
        pipeline.seal_epoch();
        health.note_publish(publisher.sync(&pipeline) as u64);
    }

    IngestReport {
        total_events: pipeline.total_events(),
        epochs: pipeline.snapshots().len(),
        unique_tuples: pipeline.stored_tuples(),
        ..IngestReport::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgp_infer::counters::Thresholds;
    use bgp_stream::epoch::EpochPolicy;
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

    #[test]
    fn the_queue_depth_never_counts_a_batch_it_did_not_queue() {
        // A private gauge, already carrying another driver's share.
        let gauge = obs::ObsRegistry::new().gauge("depth", "", &[]);
        gauge.add(5);
        let depth = QueueDepth::new(Arc::clone(&gauge));
        let stop = AtomicBool::new(false);
        let cfg = DriverConfig {
            batch: 3,
            ..Default::default()
        };
        let (tx, rx) = std::sync::mpsc::sync_channel::<EventBatch>(SEAL_QUEUE_BATCHES);
        let mut puller = Puller {
            cfg: &cfg,
            metrics: &Metrics::new(),
            stop: &stop,
            tx,
            depth: &depth,
            quarantined: 0,
        };
        let mut source = IterSource::new(events(9).into_iter());
        assert!(puller.pump(&mut source).unwrap());
        assert_eq!(gauge.get(), 5 + 3);
        // The sealer takes one batch and dies with two queued.
        rx.recv().unwrap();
        depth.add(-1);
        drop(rx);
        assert_eq!(gauge.get(), 5 + 2);
        // A send that fails takes back its own count.
        let mut source = IterSource::new(events(3).into_iter());
        assert!(!puller.pump(&mut source).unwrap());
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
        assert_eq!(snap.ingest.total_events, 10);
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
        assert_eq!(snap.ingest.total_events, report.total_events);
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
        let health = Arc::new(crate::health::HealthState::new(
            Default::default(),
            Arc::clone(&metrics),
        ));
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
        assert_eq!(
            health.evaluate().status,
            crate::health::HealthStatus::Ok,
            "reasons: {:?}",
            health.evaluate().reasons
        );
        assert_eq!(slot.load().ingest.total_events, 10);
    }

    #[test]
    fn driver_restart_budget_exhausts_to_unhealthy() {
        use fault::FaultPlan;

        // Probability-1 panics: every attempt dies on its first pull.
        let plan = FaultPlan::parse("feed:panic%1.0").unwrap();
        let injector = Arc::new(plan.feed_injector(7).unwrap());
        let health = Arc::new(crate::health::HealthState::default());
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
        assert_eq!(
            health.evaluate().status,
            crate::health::HealthStatus::Unhealthy
        );
        assert_eq!(health.evaluate().reasons, vec!["ingest_failed"]);
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
}
