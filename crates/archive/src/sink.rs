//! Archiving epochs off the publishing thread.
//!
//! [`ArchiveSink`] wraps an [`ArchiveWriter`] in a background thread fed
//! by a bounded queue of `Arc<EpochSnapshot>`s, so the publishing path
//! pays one `Arc` clone and one mutex push per epoch: a slow disk backs
//! up the sink's queue, never the feed.
//!
//! The sink's policy is one pure transition, `Sink::step(input, now)`,
//! which reads no clock, makes no syscall and keeps no counter or thread
//! of its own. The thread, [`submit`](ArchiveSink::submit),
//! [`finish`](ArchiveSink::finish) and `Drop` each step it under the one
//! lock and set the sink's gauges from it before they let go; the thread
//! applies the action it gets (append a run, reopen the writer, wait
//! until a deadline, report a drop) and steps again with the result. The
//! unit tests drive the same transition on a synthetic clock against a
//! model archive. The policy:
//!
//! * **Group commit.** Each turn takes the head of the queue *and the
//!   consecutive epochs already waiting behind it* (at most
//!   [`GROUP_COMMIT_EPOCHS`]) and appends them as one segment under one
//!   manifest commit. A sink that keeps up writes one segment per epoch,
//!   as the synchronous writer does; one that falls behind pays the
//!   disk's four `fsync`s once per run instead of once per epoch, so how
//!   long a feed takes to become durable follows the feed, not the
//!   latency of the disk under it. A run also costs fewer bytes than its
//!   epochs written alone: within a segment each epoch after the first
//!   is stored as the rows that moved (see [`crate::segment`]). A restart
//!   backfill, which re-submits from epoch 0, ends the run it lands
//!   behind.
//! * **Linger.** A sink that finds epochs waiting when a run ends *is*
//!   behind, and holds its next commit until a full run is queued, for at
//!   most [`GROUP_LINGER`] or until `finish`: a feed that outruns the
//!   disk is then cut into full runs, not into however many epochs each
//!   `fsync` happened to let through.
//! * **Retries.** A failed append is retried up to [`MAX_RETRIES`] times
//!   after a backoff that doubles from [`BACKOFF_BASE`] up to
//!   [`BACKOFF_CAP`], with a writer reopen before each attempt (so orphan
//!   adoption repairs a segment-committed / manifest-failed split).
//!   `finish` waits a backoff out rather than cut it short.
//! * **Drops.** A run is retried and dropped as the unit it is committed
//!   as, loudly: an error log line naming the cause and a counter, never
//!   silently. A dropped epoch leaves a chain gap, and a run that does not
//!   chain onto what the archive holds is dropped without an append until
//!   a restart backfill (which replays the feed from epoch 0 and dedups)
//!   heals the archive. A submission past [`QUEUE_CAP`] queued epochs
//!   evicts the oldest: newest data wins, readers care about now.
//! * **Drop state.** Each submission gets an ordinal; the sink is in drop
//!   state while its latest dropped ordinal is not below its latest
//!   committed one, so the commit of a run submitted before an eviction
//!   does not clear it.

use crate::frame::{corrupt, ArchiveError};
use crate::writer::ArchiveWriter;
use bgp_stream::epoch::EpochSnapshot;
use obs::{Counter, Gauge, Histogram, ObsRegistry};
use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Most epochs one group commit folds into a segment: enough that a
/// backlog costs a sixteenth of the durable writes, small enough that
/// reading one epoch back never decodes more than a few megabytes.
pub const GROUP_COMMIT_EPOCHS: usize = 16;

/// Longest a sink that has fallen behind waits for a full run before it
/// commits a shorter one. A feed that outruns the disk fills a run in a
/// few milliseconds, so this only ever elapses on a feed that slowed down
/// again; [`finish`](ArchiveSink::finish) cuts it short.
pub const GROUP_LINGER: Duration = Duration::from_millis(100);

/// Most epochs queued behind the run in flight; a submission past this
/// evicts the oldest queued epoch.
pub const QUEUE_CAP: usize = 1024;

/// Retries of a failed append before its run is dropped.
pub const MAX_RETRIES: u32 = 6;

/// Backoff before the first retry; it doubles with each further one.
pub const BACKOFF_BASE: Duration = Duration::from_millis(10);

/// Upper bound on any one backoff.
pub const BACKOFF_CAP: Duration = Duration::from_secs(2);

/// The backoff before the `attempt`-th retry (1-based).
fn backoff_for(attempt: u32) -> Duration {
    BACKOFF_BASE
        .checked_mul(1 << (attempt - 1).min(16))
        .map_or(BACKOFF_CAP, |d| d.min(BACKOFF_CAP))
}

/// One submission: what the thread appends, its epoch, and its ordinal.
#[derive(Debug)]
struct Queued<T> {
    item: T,
    epoch: u64,
    op: u64,
}

/// What happened since the sink's last transition. Every writer result
/// carries the writer's last committed epoch.
#[derive(Debug)]
enum Input<T> {
    /// An epoch was submitted.
    Submit(T, u64),
    /// The run's append returned.
    Appended { held: Option<u64> },
    /// The writer re-ran crash recovery (and may have adopted an orphan).
    Reopened { held: Option<u64> },
    /// The append or the reopen failed.
    Failed {
        error: ArchiveError,
        held: Option<u64>,
    },
    /// The thread woke: a submission, a deadline, or nothing at all.
    Tick,
    /// No more submissions: drain, then stop.
    Finish,
}

/// What the thread applies after a transition. `Submit` and `Finish`
/// give only `Wait(None)` or, for an eviction, `Drop`.
#[derive(Debug)]
enum Action<T> {
    /// Append these epochs as one run; step `Appended` or `Failed`.
    Append(Vec<T>),
    /// Reopen the writer; step `Reopened` or `Failed`.
    Reopen,
    /// Wait for a submission or `finish`, at most until the instant; then
    /// step `Tick`.
    Wait(Option<Instant>),
    /// Report these lost epochs (a run, or an evicted epoch); then step
    /// `Tick`.
    Drop(Vec<Queued<T>>, Cause),
    /// Closed and drained: the thread ends.
    Done,
}

/// Why epochs were dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Cause {
    Retries,
    ChainGap,
    Evicted,
}

/// The run in flight.
#[derive(Debug)]
struct Run<T> {
    queued: Vec<Queued<T>>,
    /// Epochs of the run the archive did not hold when it was taken:
    /// what it commits or loses, however many attempts that takes.
    fresh: u64,
}

/// The sink's whole state, advanced only by [`Sink::step`].
#[derive(Debug)]
struct Sink<T> {
    queue: VecDeque<Queued<T>>,
    closed: bool,
    /// Ordinal of the last accepted submission.
    submitted: u64,
    run: Option<Run<T>>,
    /// Retries the run in flight has made.
    attempt: u32,
    /// With a run in flight, when its backoff ends, kept until the writer
    /// has reopened (`None`: an append is due or under way); without,
    /// until when a sink that is behind lingers for a full run.
    until: Option<Instant>,
    /// The writer's last committed epoch, as its last result reported.
    held: Option<u64>,
    committed: u64,
    dropped: u64,
    retries: u64,
    last_commit_op: u64,
    last_drop_op: u64,
    /// The last write error: what `finish` reports with a drop.
    error: Option<ArchiveError>,
}

impl<T: Clone> Sink<T> {
    /// An idle sink on a writer that holds epochs up to `held`.
    fn new(held: Option<u64>) -> Sink<T> {
        Sink {
            queue: VecDeque::new(),
            closed: false,
            submitted: 0,
            run: None,
            attempt: 0,
            until: None,
            held,
            committed: 0,
            dropped: 0,
            retries: 0,
            last_commit_op: 0,
            last_drop_op: 0,
            error: None,
        }
    }

    /// Epochs submitted and neither committed nor dropped yet.
    fn depth(&self) -> usize {
        self.queue.len() + self.run.as_ref().map_or(0, |run| run.queued.len())
    }

    /// Whether the run in flight has failed at least once.
    fn retrying(&self) -> bool {
        self.run.is_some() && self.attempt > 0
    }

    /// Whether an epoch was dropped and none submitted after it committed.
    fn in_drop_state(&self) -> bool {
        self.dropped > 0 && self.last_drop_op >= self.last_commit_op
    }

    /// The one transition: apply `input` at `now`, and say what the
    /// thread does next.
    fn step(&mut self, input: Input<T>, now: Instant) -> Action<T> {
        match input {
            Input::Submit(item, epoch) => return self.submit(item, epoch),
            Input::Finish => {
                self.closed = true;
                return Action::Wait(None);
            }
            Input::Tick => {}
            Input::Appended { held } => {
                self.held = held;
                return self.end_run(None, now);
            }
            Input::Reopened { held } => (self.held, self.until) = (held, None),
            Input::Failed { error, held } => {
                self.held = held;
                self.error = Some(error);
                if self.attempt == MAX_RETRIES {
                    return self.end_run(Some(Cause::Retries), now);
                }
                self.attempt += 1;
                self.retries += 1;
                self.until = Some(now + backoff_for(self.attempt));
            }
        }
        self.next(now)
    }

    fn submit(&mut self, item: T, epoch: u64) -> Action<T> {
        if !self.closed {
            self.submitted += 1;
            let op = self.submitted;
            self.queue.push_back(Queued { item, epoch, op });
        }
        if self.queue.len() <= QUEUE_CAP {
            return Action::Wait(None);
        }
        let oldest = self.queue.pop_front().expect("a full queue");
        self.dropped += 1;
        self.last_drop_op = self.last_drop_op.max(oldest.op);
        Action::Drop(vec![oldest], Cause::Evicted)
    }

    /// The thread's next action: carry on with the run in flight, or
    /// take the next one once the sink need not wait for it.
    fn next(&mut self, now: Instant) -> Action<T> {
        let short = self.queue.len() < GROUP_COMMIT_EPOCHS && !self.closed;
        match (&self.run, self.until) {
            (Some(_), Some(until)) if now < until => return Action::Wait(Some(until)),
            (Some(_), Some(_)) => return Action::Reopen,
            (Some(_), None) => {}
            (None, _) if self.queue.is_empty() && self.closed => return Action::Done,
            (None, _) if self.queue.is_empty() => return Action::Wait(None),
            (None, Some(until)) if now < until && short => return Action::Wait(Some(until)),
            (None, _) => {
                let queued = take_run(&mut self.queue);
                let fresh = fresh_of(&queued, self.held) as u64;
                self.run = Some(Run { queued, fresh });
                (self.attempt, self.until) = (0, None);
            }
        }
        let run = self.run.as_ref().expect("a run in flight");
        // A chain gap is permanent until a restart backfill: no attempt
        // lets epoch N+2 append over a missing N+1.
        if is_chain_gap(&run.queued, self.held) {
            return self.end_run(Some(Cause::ChainGap), now);
        }
        Action::Append(run.queued.iter().map(|q| q.item.clone()).collect())
    }

    /// The run in flight ended, committed or dropped for a cause. Epochs
    /// that queued up behind it mean the sink is behind: it lingers from
    /// now for a full run.
    fn end_run(&mut self, dropped: Option<Cause>, now: Instant) -> Action<T> {
        let run = self.run.take().expect("a run in flight");
        let (count, last_op) = match dropped {
            None => (&mut self.committed, &mut self.last_commit_op),
            Some(_) => (&mut self.dropped, &mut self.last_drop_op),
        };
        if let Some(last) = run.queued.last().filter(|_| run.fresh > 0) {
            *count += run.fresh;
            *last_op = (*last_op).max(last.op);
        }
        self.until = (!self.queue.is_empty()).then_some(now + GROUP_LINGER);
        match dropped {
            None => self.next(now),
            Some(cause) => Action::Drop(run.queued, cause),
        }
    }
}

/// Pop the next group commit off the non-empty queue: the head and the
/// consecutive epochs waiting behind it, at most [`GROUP_COMMIT_EPOCHS`].
/// A restart backfill, which re-submits from epoch 0, ends the run.
fn take_run<T>(queue: &mut VecDeque<Queued<T>>) -> Vec<Queued<T>> {
    let chained = (queue.iter().zip(queue.iter().skip(1)))
        .take(GROUP_COMMIT_EPOCHS - 1)
        .take_while(|(prev, next)| next.epoch == prev.epoch + 1)
        .count();
    queue.drain(..=chained).collect()
}

/// How many epochs of `run` an archive holding up to `held` lacks: all
/// but a leading stretch, since a run ascends.
fn fresh_of<T>(run: &[Queued<T>], held: Option<u64>) -> usize {
    let next = held.map_or(0, |last| last + 1);
    run.iter().filter(|q| q.epoch >= next).count()
}

/// Whether `run` can never chain onto an archive holding up to `held`.
fn is_chain_gap<T>(run: &[Queued<T>], held: Option<u64>) -> bool {
    let next = held.map_or(0, |last| last + 1);
    let first = run.iter().find(|q| q.epoch >= next);
    first.is_some_and(|q| q.epoch != next)
}

/// `epoch=N` or `epochs=N..=M`: what the log calls a run.
fn run_label<T>(run: &[Queued<T>]) -> String {
    match run {
        [only] => format!("epoch={}", only.epoch),
        [first, .., last] => format!("epochs={}..={}", first.epoch, last.epoch),
        [] => String::new(),
    }
}

/// What the thread appends for one submission: the epoch, with the
/// stats its seal captured.
type Pending = Arc<EpochSnapshot>;

/// Live sink state, shared with the serving layer's health machine: each
/// read takes the sink's lock and reads its core.
#[derive(Debug)]
pub struct SinkStatus {
    core: Mutex<Sink<Pending>>,
    wake: Condvar,
}

impl SinkStatus {
    fn lock(&self) -> MutexGuard<'_, Sink<Pending>> {
        self.core.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Whether the sink is currently inside a retry/backoff cycle.
    pub fn retrying(&self) -> bool {
        self.lock().retrying()
    }

    /// Total append retries across all epochs.
    pub fn retries(&self) -> u64 {
        self.lock().retries
    }

    /// Epochs dropped (retry budget exhausted, chain gap, or queue
    /// overflow).
    pub fn dropped(&self) -> u64 {
        self.lock().dropped
    }

    /// Epochs durably committed by this sink.
    pub fn committed(&self) -> u64 {
        self.lock().committed
    }

    /// Whether the archive has lost an epoch and committed none submitted
    /// after it — an eviction from a full queue counts at once, and the
    /// in-flight commit of an earlier submission does not clear it. This
    /// is the "archive degraded until restart backfill" signal.
    pub fn in_drop_state(&self) -> bool {
        self.lock().in_drop_state()
    }
}

/// What an [`ArchiveSink`] did over its lifetime, returned by
/// [`finish`](ArchiveSink::finish).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SinkReport {
    /// Epochs durably committed (including ones that landed via orphan
    /// adoption during a retry reopen).
    pub written: u64,
    /// Epochs dropped after exhausting retries, dropped onto a chain
    /// gap, or evicted from a full queue.
    pub dropped: u64,
    /// Total append retries performed.
    pub retries: u64,
}

/// Terminal sink failure: at least one epoch was dropped. Carries the
/// full [`SinkReport`] plus the last underlying write error.
#[derive(Debug)]
pub struct SinkError {
    /// Lifetime accounting, including the dropped-epoch count.
    pub report: SinkReport,
    /// The last write error observed before an epoch was dropped.
    pub error: ArchiveError,
}

impl std::fmt::Display for SinkError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "archive sink dropped {} epoch(s) ({} committed, {} retries); last error: {}",
            self.report.dropped, self.report.written, self.report.retries, self.error
        )
    }
}

impl std::error::Error for SinkError {}

/// The sink's instruments on its writer's registry.
#[derive(Debug)]
struct Instruments {
    queue_depth: Arc<Gauge>,
    failed: Arc<Gauge>,
    retrying: Arc<Gauge>,
    retries: Arc<Counter>,
    dropped: Arc<Counter>,
    append: Arc<Histogram>,
}

impl Instruments {
    fn new(reg: &ObsRegistry) -> Self {
        Instruments {
            queue_depth: reg.gauge(
                "bgp_archive_sink_queue_depth",
                "Epochs submitted to the archive sink and not yet appended",
                &[],
            ),
            failed: reg.gauge(
                "bgp_archive_sink_failed",
                "1 while the archive sink has dropped an epoch without a later commit",
                &[],
            ),
            retrying: reg.gauge(
                "bgp_archive_sink_retrying",
                "1 while an archive append is inside its retry/backoff cycle",
                &[],
            ),
            retries: reg.counter(
                "bgp_archive_sink_retries_total",
                "Archive append retries after transient write failures",
                &[],
            ),
            dropped: reg.counter(
                "bgp_archive_epochs_dropped_total",
                "Epochs the archive sink dropped (retries exhausted, chain gap, or queue overflow)",
                &[],
            ),
            append: reg.histogram(
                "bgp_archive_append_duration_seconds",
                "Wall time of one sink append (segment + manifest commit; an epoch or a queued run)",
                &[],
            ),
        }
    }

    /// Step `core`, whose lock the caller holds, then set every instrument
    /// from it and log the retry or drop the step made.
    fn step(&self, core: &mut Sink<Pending>, input: Input<Pending>) -> Action<Pending> {
        let (retries, dropped) = (core.retries, core.dropped);
        let action = core.step(input, Instant::now());
        self.retries.add(core.retries - retries);
        self.dropped.add(core.dropped - dropped);
        self.queue_depth.set(core.depth() as i64);
        self.failed.set(i64::from(core.in_drop_state()));
        self.retrying.set(i64::from(core.retrying()));
        let error = || core.error.as_ref().map_or(String::new(), |e| e.to_string());
        if let Some(run) = core.run.as_ref().filter(|_| core.retries > retries) {
            let (label, attempt, error) = (run_label(&run.queued), core.attempt, error());
            let backoff = backoff_for(attempt).as_millis();
            obs::warn!(
                "archive",
                "retrying {label} attempt={attempt} backoff_ms={backoff} error={error}"
            );
        }
        if let Action::Drop(run, cause) = &action {
            let next = core.held.map_or(0, |last| last + 1);
            let why = match cause {
                Cause::Retries => format!("retries exhausted after {MAX_RETRIES}: {}", error()),
                Cause::ChainGap => format!("chain gap, the archive's next epoch is {next}"),
                Cause::Evicted => format!("evicted from a full queue of {QUEUE_CAP}"),
            };
            obs::error!("archive", "sink dropped {}: {why}", run_label(run));
        }
        action
    }
}

/// A supervised background archiving thread: epochs go in via a
/// non-blocking bounded-queue push, segment + manifest writes happen
/// off the caller's thread. Failed appends are retried with exponential
/// backoff and a writer reopen between attempts; an epoch is dropped
/// only once its retry budget is exhausted, and every retry and drop is
/// logged and counted. [`finish`](ArchiveSink::finish) surfaces the
/// drop count and last error.
#[derive(Debug)]
pub struct ArchiveSink {
    status: Arc<SinkStatus>,
    obs: Arc<Instruments>,
    thread: Option<JoinHandle<ArchiveWriter>>,
}

impl ArchiveSink {
    /// Spawn the archiving thread around `writer`. The sink records on
    /// the writer's registry.
    pub fn spawn(writer: ArchiveWriter) -> ArchiveSink {
        let status = Arc::new(SinkStatus {
            core: Mutex::new(Sink::new(writer.last_epoch())),
            wake: Condvar::new(),
        });
        let obs = Arc::new(Instruments::new(writer.registry()));
        let (thread_status, thread_obs) = (Arc::clone(&status), Arc::clone(&obs));
        let thread = std::thread::Builder::new()
            .name("bgp-archive-sink".into())
            .spawn(move || run(writer, &thread_status, &thread_obs))
            .expect("spawn archive sink thread");
        ArchiveSink {
            status,
            obs,
            thread: Some(thread),
        }
    }

    /// Live retry/drop counters, shareable with a health state machine.
    pub fn status(&self) -> Arc<SinkStatus> {
        Arc::clone(&self.status)
    }

    /// Queue one epoch for archiving. Never blocks on disk; when the
    /// queue is full the *oldest* queued epoch is dropped (counted and
    /// logged) so the newest data keeps flowing. The epoch is archived
    /// with the stats its seal captured ([`EpochSnapshot::ingest`]).
    pub fn submit(&self, snap: Arc<EpochSnapshot>) {
        let epoch = snap.epoch;
        // An evicted epoch is let go of after the lock.
        let _evicted = (self.obs).step(&mut self.status.lock(), Input::Submit(snap, epoch));
        self.status.wake.notify_one();
    }

    /// Close the queue, drain everything already submitted, and join
    /// the thread. Returns the writer (for reuse or inspection) and the
    /// lifetime [`SinkReport`]; if any epoch was dropped the report
    /// comes wrapped in a [`SinkError`] together with the last write
    /// error.
    pub fn finish(mut self) -> std::result::Result<(ArchiveWriter, SinkReport), SinkError> {
        let joined = self.close();
        let mut core = self.status.lock();
        let mut report = SinkReport {
            written: core.committed,
            dropped: core.dropped,
            retries: core.retries,
        };
        let error = match joined {
            Some(Ok(writer)) if report.dropped == 0 => return Ok((writer, report)),
            Some(Ok(_)) => core.error.take().unwrap_or_else(|| {
                corrupt("epochs evicted from a full sink queue or dropped onto a chain gap")
            }),
            _ => {
                report.dropped = report.dropped.max(1);
                corrupt("archive sink thread panicked")
            }
        };
        Err(SinkError { report, error })
    }

    /// Close the queue and join the thread once it has drained it.
    fn close(&mut self) -> Option<std::thread::Result<ArchiveWriter>> {
        self.obs.step(&mut self.status.lock(), Input::Finish);
        self.status.wake.notify_all();
        self.thread.take().map(JoinHandle::join)
    }
}

impl Drop for ArchiveSink {
    fn drop(&mut self) {
        let _ = self.close();
    }
}

/// The sink thread: step the core and apply each action, holding the
/// lock except while the writer works, until the sink is closed and
/// drained.
fn run(mut writer: ArchiveWriter, status: &SinkStatus, obs: &Instruments) -> ArchiveWriter {
    let mut core = status.lock();
    let mut input = Input::Tick;
    loop {
        let action = obs.step(&mut core, input);
        input = Input::Tick;
        // What the writer did: appended (`true`) or reopened (`false`).
        let result = match action {
            Action::Wait(None) => {
                core = status
                    .wake
                    .wait(core)
                    .unwrap_or_else(PoisonError::into_inner);
                continue;
            }
            Action::Wait(Some(until)) => {
                let left = until.saturating_duration_since(Instant::now());
                let woke = status.wake.wait_timeout(core, left);
                core = woke.unwrap_or_else(PoisonError::into_inner).0;
                continue;
            }
            Action::Drop(..) => continue,
            Action::Done => return writer,
            Action::Append(run) => {
                drop(core);
                let run: Vec<_> = run.iter().map(|snap| (&**snap, &snap.ingest)).collect();
                let started = Instant::now();
                let result = writer.append_epochs(&run).map(|_| true);
                obs.append.record(started.elapsed().as_nanos() as u64);
                result
            }
            Action::Reopen => {
                drop(core);
                writer.reopen().map(|()| false)
            }
        };
        core = status.lock();
        let held = writer.last_epoch();
        input = match result {
            Ok(true) => Input::Appended { held },
            Ok(false) => Input::Reopened { held },
            Err(error) => Input::Failed { error, held },
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::TestRng;
    use std::collections::BTreeMap;

    /// How one submission ended.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Fate {
        Committed,
        Held,
        Dropped,
    }

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Disk {
        Good,
        Flaky,
        Dead,
    }

    /// What an `ArchiveWriter` holds, on a disk whose failures the script
    /// decides: a failed commit writes nothing, a torn one lands its
    /// segment but not its manifest, and the next reopen adopts that
    /// orphan if it chains.
    struct ModelArchive {
        held: Option<u64>,
        orphan: Option<(u64, u64)>,
        disk: Disk,
    }

    impl ModelArchive {
        fn append(&mut self, epochs: &[u64], rng: &mut TestRng) -> Result<(), ArchiveError> {
            let held = self.held;
            let fresh: Vec<u64> = epochs
                .iter()
                .copied()
                .filter(|&e| held.is_none_or(|last| e > last))
                .collect();
            let (Some(&first), Some(&last)) = (fresh.first(), fresh.last()) else {
                return Ok(());
            };
            let roll = rng.random_range(0..10u32);
            match self.disk {
                Disk::Good => {}
                Disk::Flaky if roll < 6 => {}
                Disk::Flaky if roll < 8 => return Err(corrupt("model disk failed")),
                Disk::Flaky => {
                    self.orphan = Some((first, last));
                    return Err(corrupt("model manifest write torn"));
                }
                Disk::Dead => return Err(corrupt("model disk is dead")),
            }
            self.held = Some(last);
            self.orphan = None;
            Ok(())
        }

        /// Re-run recovery; whether it adopted an orphan.
        fn reopen(&mut self, rng: &mut TestRng) -> Result<bool, ArchiveError> {
            let fails = match self.disk {
                Disk::Good => false,
                Disk::Flaky => rng.random_range(0..10u32) < 2,
                Disk::Dead => rng.random_range(0..2u32) == 0,
            };
            if fails {
                return Err(corrupt("model reopen failed"));
            }
            let orphan = self.orphan.take();
            let adopted = orphan.filter(|&(first, _)| first == self.held.map_or(0, |h| h + 1));
            if let Some((_, last)) = adopted {
                self.held = Some(last);
            }
            Ok(adopted.is_some())
        }
    }

    /// What the sink thread is doing.
    #[derive(Debug, Clone, PartialEq)]
    enum Thread {
        Waiting(Option<Instant>),
        Appending(Vec<usize>),
        Reopening,
        Done,
    }

    /// The run in flight as the model sees it.
    struct ModelRun {
        items: Vec<usize>,
        /// What the archive held when the run was taken.
        held: Option<u64>,
        failures: u32,
        failed_at: Instant,
    }

    /// One case: the core under test, the model archive it writes to, and
    /// what the model derives on its own. Items are submission indexes;
    /// submission `i` has ordinal `i + 1`.
    struct World {
        sink: Sink<usize>,
        archive: ModelArchive,
        now: Instant,
        epochs: Vec<u64>,
        fates: Vec<Option<Fate>>,
        /// Submissions that ended as each [`Fate`], and the last ordinal
        /// that did (0 if none).
        ended: [(u64, usize); 3],
        /// Accepted submissions not yet taken into a run.
        queue: VecDeque<usize>,
        thread: Thread,
        run: Option<ModelRun>,
        /// When the linger of a sink that is behind ends.
        behind: Option<Instant>,
        closed: bool,
        retries: u64,
        /// How often each path the model means to reach was reached.
        seen: BTreeMap<&'static str, u64>,
    }

    /// Every path a run of the model must reach, or it checks nothing.
    const PATHS: [&str; 9] = [
        "eviction",
        "chain gap",
        "retries exhausted",
        "retry committed",
        "orphan adopted",
        "already held",
        "linger wait",
        "linger lapsed",
        "backoff after finish",
    ];

    impl World {
        fn saw(&mut self, path: &'static str) {
            *self.seen.entry(path).or_default() += 1;
        }

        fn epochs_of(&self, items: &[usize]) -> Vec<u64> {
            items.iter().map(|&i| self.epochs[i]).collect()
        }

        fn fate(&mut self, item: usize, fate: Fate, ctx: &str) {
            let old = self.fates[item].replace(fate);
            assert!(old.is_none(), "{ctx}: submission {item} ended twice");
            let (count, last_op) = &mut self.ended[fate as usize];
            *count += 1;
            *last_op = (*last_op).max(item + 1);
        }

        fn count(&self, fate: Fate) -> u64 {
            self.ended[fate as usize].0
        }

        fn last_op(&self, fate: Fate) -> usize {
            self.ended[fate as usize].1
        }

        /// What the core's counts, gauges and flags must read.
        fn check(&self, ctx: &str) {
            let sink = &self.sink;
            assert_eq!(
                sink.committed,
                self.count(Fate::Committed),
                "{ctx}: committed"
            );
            assert_eq!(sink.dropped, self.count(Fate::Dropped), "{ctx}: dropped");
            assert_eq!(sink.retries, self.retries, "{ctx}: retries");
            let ended: u64 = self.ended.iter().map(|(count, _)| count).sum();
            let open = self.fates.len() - ended as usize;
            assert_eq!(sink.depth(), open, "{ctx}: queue depth");
            let retrying = self.run.as_ref().is_some_and(|r| r.failures > 0);
            assert_eq!(sink.retrying(), retrying, "{ctx}: retrying");
            let dropped = self.count(Fate::Dropped) > 0
                && self.last_op(Fate::Dropped) >= self.last_op(Fate::Committed);
            assert_eq!(sink.in_drop_state(), dropped, "{ctx}: drop state");
            assert_eq!(sink.held, self.archive.held, "{ctx}: held");
        }

        fn submit(&mut self, epoch: u64, ctx: &str) {
            let item = self.epochs.len();
            let action = self.sink.step(Input::Submit(item, epoch), self.now);
            if self.closed {
                assert!(matches!(action, Action::Wait(None)), "{ctx}: {action:?}");
                return self.check(ctx);
            }
            self.epochs.push(epoch);
            self.fates.push(None);
            let evicted = (self.queue.len() >= QUEUE_CAP).then(|| self.queue.pop_front());
            self.queue.push_back(item);
            match (action, evicted.flatten()) {
                (Action::Wait(None), None) => {}
                (Action::Drop(run, cause), Some(oldest)) => {
                    assert_eq!(cause, Cause::Evicted, "{ctx}");
                    let run: Vec<usize> = run.iter().map(|q| q.item).collect();
                    assert_eq!(run, [oldest], "{ctx}: the oldest is evicted");
                    self.fate(oldest, Fate::Dropped, ctx);
                    self.saw("eviction");
                }
                (action, evicted) => panic!("{ctx}: submit gave {action:?}, evicting {evicted:?}"),
            }
            self.check(ctx);
        }

        fn finish(&mut self, ctx: &str) {
            let action = self.sink.step(Input::Finish, self.now);
            assert!(matches!(action, Action::Wait(None)), "{ctx}: {action:?}");
            self.closed = true;
            self.check(ctx);
        }

        /// A new run leaves the queue: the longest chaining prefix, at most
        /// `GROUP_COMMIT_EPOCHS`, short only when the sink need not wait.
        fn take(&mut self, items: &[usize], ctx: &str) {
            assert!(!items.is_empty(), "{ctx}: an empty run");
            assert!(
                items.len() <= GROUP_COMMIT_EPOCHS,
                "{ctx}: run of {}",
                items.len()
            );
            // A full run's worth queued ends the linger even where a
            // restart backfill cuts the run at its head short.
            let queued_full = self.queue.len() >= GROUP_COMMIT_EPOCHS;
            let taken: Vec<usize> = self.queue.drain(..items.len()).collect();
            assert_eq!(taken, items, "{ctx}: the run is the queue's head");
            let epochs = self.epochs_of(items);
            assert!(
                epochs.windows(2).all(|w| w[1] == w[0] + 1),
                "{ctx}: run {epochs:?} does not ascend by one"
            );
            if items.len() < GROUP_COMMIT_EPOCHS {
                if let Some(&next) = self.queue.front() {
                    let last = epochs[epochs.len() - 1];
                    assert_ne!(self.epochs[next], last + 1, "{ctx}: run cut short");
                }
                if self.behind.is_some_and(|until| self.now >= until) {
                    self.saw("linger lapsed");
                }
                let lingered = self.behind.is_none_or(|until| self.now >= until);
                assert!(
                    lingered || self.closed || queued_full,
                    "{ctx}: a short run of a sink that is behind, before its linger ended"
                );
            }
            self.behind = None;
            self.run = Some(ModelRun {
                items: items.to_vec(),
                held: self.archive.held,
                failures: 0,
                failed_at: self.now,
            });
        }

        /// The run in flight ended: `fate` for what the archive did not
        /// hold when it was taken.
        fn end_run(&mut self, fate: Fate, ctx: &str) {
            let run = self.run.take().expect("a run in flight");
            for item in run.items {
                let held = run.held.is_some_and(|last| self.epochs[item] <= last);
                self.fate(item, if held { Fate::Held } else { fate }, ctx);
                if held {
                    self.saw("already held");
                }
            }
            if fate == Fate::Committed && run.failures > 0 {
                self.saw("retry committed");
            }
            self.behind = (!self.queue.is_empty()).then_some(self.now + GROUP_LINGER);
        }

        /// Step the thread's input and apply actions until it waits,
        /// works, or ends.
        fn thread(&mut self, mut input: Input<usize>, ctx: &str) {
            loop {
                let action = self.sink.step(input, self.now);
                match action {
                    Action::Append(items) => self.on_append(items, ctx),
                    Action::Reopen => {
                        let run = self.run.as_ref().expect("a reopen without a run");
                        assert!(run.failures > 0, "{ctx}: a reopen before any failure");
                        let due = run.failed_at + backoff_for(run.failures);
                        assert!(
                            self.now >= due,
                            "{ctx}: retry {} before its backoff ended",
                            run.failures
                        );
                        self.thread = Thread::Reopening;
                    }
                    Action::Wait(until) => self.on_wait(until, ctx),
                    Action::Drop(run, cause) => {
                        self.on_drop(&run, cause, ctx);
                        self.check(ctx);
                        input = Input::Tick;
                        continue;
                    }
                    Action::Done => {
                        assert!(self.closed, "{ctx}: done before finish");
                        assert!(
                            self.queue.is_empty() && self.run.is_none(),
                            "{ctx}: done early"
                        );
                        self.thread = Thread::Done;
                    }
                }
                return self.check(ctx);
            }
        }

        fn on_append(&mut self, items: Vec<usize>, ctx: &str) {
            match &self.run {
                None => self.take(&items, ctx),
                Some(run) => assert_eq!(run.items, items, "{ctx}: a retry appends its run"),
            }
            let epochs = self.epochs_of(&items);
            let expected = self.archive.held.map_or(0, |h| h + 1);
            if let Some(&first) = epochs.iter().find(|&&e| e >= expected) {
                assert_eq!(
                    first, expected,
                    "{ctx}: {epochs:?} appended onto a chain gap"
                );
            }
            self.thread = Thread::Appending(items);
        }

        fn on_drop(&mut self, run: &[Queued<usize>], cause: Cause, ctx: &str) {
            let items: Vec<usize> = run.iter().map(|q| q.item).collect();
            match cause {
                Cause::Evicted => panic!("{ctx}: the thread evicted"),
                Cause::ChainGap => {
                    if self.run.is_none() {
                        self.take(&items, ctx);
                    }
                    let expected = self.archive.held.map_or(0, |h| h + 1);
                    let epochs = self.epochs_of(&items);
                    let first = epochs.iter().find(|&&e| e >= expected);
                    assert!(
                        first.is_some_and(|&e| e != expected),
                        "{ctx}: {epochs:?} chains"
                    );
                    self.saw("chain gap");
                }
                Cause::Retries => {
                    let failures = self.run.as_ref().map(|r| r.failures);
                    assert_eq!(failures, Some(MAX_RETRIES + 1), "{ctx}: dropped early");
                    self.saw("retries exhausted");
                }
            }
            assert_eq!(
                self.run.as_ref().map(|r| &r.items),
                Some(&items),
                "{ctx}: the dropped run is the run in flight"
            );
            self.end_run(Fate::Dropped, ctx);
        }

        fn on_wait(&mut self, until: Option<Instant>, ctx: &str) {
            match &self.run {
                Some(run) => {
                    assert!(run.failures > 0, "{ctx}: waits with an append due");
                    let due = run.failed_at + backoff_for(run.failures);
                    assert_eq!(until, Some(due), "{ctx}: backoff {}", run.failures);
                    assert!(self.now < due, "{ctx}: waits past its backoff");
                    if self.closed {
                        self.saw("backoff after finish");
                    }
                }
                None if self.queue.is_empty() => {
                    assert!(!self.closed, "{ctx}: a closed, drained sink waits");
                    assert_eq!(until, None, "{ctx}: an idle sink waits for a deadline");
                }
                None => {
                    let short = self.queue.len() < GROUP_COMMIT_EPOCHS;
                    let lingers = self
                        .behind
                        .filter(|&d| self.now < d && short && !self.closed);
                    assert!(lingers.is_some(), "{ctx}: waits with a run to take");
                    assert_eq!(until, lingers, "{ctx}: linger deadline");
                    self.saw("linger wait");
                }
            }
            self.thread = Thread::Waiting(until);
        }

        /// The thread's next move: the writer answers, or it wakes.
        fn advance(&mut self, rng: &mut TestRng, ctx: &str) {
            let input = match self.thread.clone() {
                Thread::Appending(items) => {
                    let epochs = self.epochs_of(&items);
                    match self.archive.append(&epochs, rng) {
                        Ok(()) => {
                            self.end_run(Fate::Committed, ctx);
                            Input::Appended {
                                held: self.archive.held,
                            }
                        }
                        Err(error) => self.failed(error),
                    }
                }
                Thread::Reopening => match self.archive.reopen(rng) {
                    Ok(adopted) => {
                        if adopted {
                            self.saw("orphan adopted");
                        }
                        Input::Reopened {
                            held: self.archive.held,
                        }
                    }
                    Err(error) => self.failed(error),
                },
                Thread::Waiting(_) => Input::Tick,
                Thread::Done => return,
            };
            self.thread(input, ctx);
        }

        fn failed(&mut self, error: ArchiveError) -> Input<usize> {
            let run = self.run.as_mut().expect("a failure without a run");
            run.failures += 1;
            run.failed_at = self.now;
            if run.failures <= MAX_RETRIES {
                self.retries += 1;
            }
            Input::Failed {
                error,
                held: self.archive.held,
            }
        }
    }

    fn check_case(case: u32) -> BTreeMap<&'static str, u64> {
        let rng = &mut TestRng::for_case("archive_sink_model", case);
        let held = match rng.random_range(0..3u32) {
            0 => None,
            _ => Some(rng.random_range(0..40u64)),
        };
        let mut w = World {
            sink: Sink::new(held),
            archive: ModelArchive {
                held,
                orphan: None,
                disk: Disk::Good,
            },
            now: Instant::now(),
            epochs: Vec::new(),
            fates: Vec::new(),
            ended: [(0, 0); 3],
            queue: VecDeque::new(),
            thread: Thread::Waiting(None),
            run: None,
            behind: None,
            closed: false,
            retries: 0,
            seen: BTreeMap::new(),
        };
        w.thread(Input::Tick, &format!("case {case} start"));
        // A fresh feed, or a restart that replays the feed from epoch 0.
        let mut epoch = match rng.random_range(0..2u32) {
            0 => held.map_or(0, |h| h + 1),
            _ => 0,
        };
        for op in 0..rng.random_range(20..300u32) {
            let ctx = format!("case {case} op {op}");
            match rng.random_range(0..100u32) {
                0..=29 => {
                    w.submit(epoch, &ctx);
                    epoch += 1;
                }
                30 => {
                    // A stalled disk's backlog: the queue overflows.
                    for _ in 0..QUEUE_CAP + rng.random_range(1..40usize) {
                        w.submit(epoch, &ctx);
                        epoch += 1;
                    }
                }
                31..=33 => epoch = rng.random_range(0..=epoch),
                34..=38 => {
                    w.archive.disk = match rng.random_range(0..4u32) {
                        0 | 1 => Disk::Good,
                        2 => Disk::Flaky,
                        _ => Disk::Dead,
                    }
                }
                39..=58 => w.now += Duration::from_millis(rng.random_range(0..=150u64)),
                59..=98 => w.advance(rng, &ctx),
                _ => w.finish(&ctx),
            }
        }

        // `finish`, then the thread runs on, time jumping to each deadline:
        // the sink drains, or reports what it could not write.
        w.finish(&format!("case {case} finish"));
        for round in 0..100_000 {
            let ctx = format!("case {case} drain round {round}");
            match w.thread {
                Thread::Done => break,
                Thread::Waiting(Some(until)) => w.now = w.now.max(until),
                _ => {}
            }
            w.advance(rng, &ctx);
        }
        assert_eq!(
            w.thread,
            Thread::Done,
            "case {case}: the sink never finished"
        );
        let open: Vec<usize> = (0..w.fates.len())
            .filter(|&i| w.fates[i].is_none())
            .collect();
        assert!(
            open.is_empty(),
            "case {case}: submissions {open:?} never ended"
        );
        w.seen
    }

    fn check_cases(cases: u32) {
        let mut seen: BTreeMap<&str, u64> = BTreeMap::new();
        for case in 0..cases {
            for (path, n) in check_case(case) {
                *seen.entry(path).or_default() += n;
            }
        }
        for path in PATHS {
            assert!(seen.contains_key(path), "no case reached {path}: {seen:?}");
        }
    }

    #[test]
    fn the_core_matches_the_archive_model() {
        check_cases(64);
    }

    #[test]
    #[ignore = "long: run with --release -- --ignored"]
    fn the_core_matches_the_archive_model_at_length() {
        check_cases(2_000);
    }

    #[test]
    fn backoff_doubles_to_its_cap() {
        let backoffs: Vec<u128> = (1..=MAX_RETRIES)
            .map(|k| backoff_for(k).as_millis())
            .collect();
        assert_eq!(backoffs, [10, 20, 40, 80, 160, 320]);
        assert_eq!(backoff_for(9), BACKOFF_CAP);
        assert_eq!(backoff_for(40), BACKOFF_CAP);
    }
}
