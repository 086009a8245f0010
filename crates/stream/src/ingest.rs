//! Ingest layer: chunked sources of timestamped tuples.
//!
//! A [`TupleSource`] hands the pipeline bounded [`EventBatch`]es instead
//! of one giant tuple vector, so decode and sanitation memory stay bounded
//! by one record, not one archive. (The MRT-backed sources still borrow
//! the archive *bytes* as a slice — per [`bgp_mrt::MrtReader`]'s design —
//! so whole-file bytes are the caller's to provide, e.g. via `fs::read` or
//! an mmap; what never materializes is the tuple vector.) Two sources
//! cover the workspace's data planes:
//!
//! * [`MrtSource`] — pulls records incrementally out of a
//!   [`bgp_mrt::TupleStream`], the §4.1 path-shape cleaning used by the
//!   batch [`bgp_mrt::extract_tuples`] itself; a collector's files are
//!   one source each, in publication order;
//! * [`IterSource`] — adapts any in-memory event iterator (e.g. the
//!   [`bgp_sim::feed::UpdateFeed`] scenario stream).
//!
//! # One buffer a batch
//!
//! An [`EventBatch`] is one flat `Vec<u32>` of `[ts_lo, ts_hi, record..]`
//! entries — the tuple records of [`bgp_types::tuple`], as
//! [`TupleStream::next_ref`] lends them — plus an event count. Every
//! source returns one, wrappers ([`QuarantinedSource`], the fault
//! injector) scan and edit it in place, and it is what crosses the
//! driver's puller → sealer channel: a batch is one allocation made and
//! one freed, whatever it holds, and the pipeline pushes it whole
//! (`StreamPipeline::push_events`), each tuple a [`TupleRef`] borrowed
//! from it. Its `IntoIterator` yields owned [`StreamEvent`]s for callers
//! that keep events.

use bgp_infer::prelude::SanitationStats;
use bgp_mrt::TupleStream;
use bgp_types::prelude::*;

/// One timestamped `(path, comm)` observation entering the pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamEvent {
    /// Capture time, seconds since epoch (drives time-based epochs).
    pub timestamp: u64,
    /// The sanitized observation.
    pub tuple: PathCommTuple,
}

impl StreamEvent {
    /// Construct an event.
    pub fn new(timestamp: u64, tuple: PathCommTuple) -> Self {
        StreamEvent { timestamp, tuple }
    }
}

/// A batch of timestamped tuples in one flat buffer (see the [module
/// docs](self)).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EventBatch {
    /// `[ts_lo, ts_hi, record..]` per event, in order.
    words: Vec<u32>,
    events: usize,
}

/// Words of an entry before its record: the timestamp's two halves.
const STAMP_WORDS: usize = 2;

/// The entry `words` starts with, and the words after it.
fn read_entry(words: &[u32]) -> ((u64, TupleRef<'_>), &[u32]) {
    let timestamp = words[0] as u64 | (words[1] as u64) << 32;
    let (tuple, rest) = TupleRef::read(&words[STAMP_WORDS..]);
    ((timestamp, tuple), rest)
}

impl EventBatch {
    /// An empty batch; nothing is allocated until the first push.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty batch with room for `words` buffer words — a source's
    /// previous batch is a good guess at its next.
    pub fn with_capacity(words: usize) -> Self {
        EventBatch {
            words: Vec::with_capacity(words),
            events: 0,
        }
    }

    /// Events held.
    pub fn len(&self) -> usize {
        self.events
    }

    /// Whether no event is held.
    pub fn is_empty(&self) -> bool {
        self.events == 0
    }

    /// Buffer words held: what [`with_capacity`](Self::with_capacity)
    /// takes.
    pub fn words(&self) -> usize {
        self.words.len()
    }

    /// Append one event, copying the record.
    pub fn push(&mut self, timestamp: u64, tuple: TupleRef<'_>) {
        self.push_stamp(timestamp);
        self.words.extend_from_slice(tuple.words());
    }

    /// Append one owned event, encoding its tuple in place.
    pub fn push_event(&mut self, ev: &StreamEvent) {
        self.push_stamp(ev.timestamp);
        ev.tuple.encode_into(&mut self.words);
    }

    fn push_stamp(&mut self, timestamp: u64) {
        self.words
            .extend_from_slice(&[timestamp as u32, (timestamp >> 32) as u32]);
        self.events += 1;
    }

    /// Drop every event, keeping the buffer for reuse.
    pub fn clear(&mut self) {
        self.words.clear();
        self.events = 0;
    }

    /// The events in order, their tuples borrowed from the batch. A clone
    /// resumes where the original stands, so a caller can read a run of
    /// events twice.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (u64, TupleRef<'_>)> + Clone {
        let mut rest = self.words.as_slice();
        (0..self.events).map(move |_| {
            let (entry, after) = read_entry(rest);
            rest = after;
            entry
        })
    }

    /// Split at event `at`: the batch keeps the events before it, the
    /// returned one holds the rest, order kept.
    ///
    /// # Panics
    /// If `at > len()`.
    pub fn split_off(&mut self, at: usize) -> EventBatch {
        assert!(at <= self.events, "split at {at} of {} events", self.events);
        let mut rest = self.words.as_slice();
        for _ in 0..at {
            rest = read_entry(rest).1;
        }
        let cut = self.words.len() - rest.len();
        let tail = EventBatch {
            words: self.words.split_off(cut),
            events: self.events - at,
        };
        self.events = at;
        tail
    }

    /// Keep only the events `keep` accepts, in place and in order.
    pub fn retain(&mut self, mut keep: impl FnMut(u64, TupleRef<'_>) -> bool) {
        let (mut read, mut write, mut kept) = (0, 0, 0);
        for _ in 0..self.events {
            let ((timestamp, tuple), rest) = read_entry(&self.words[read..]);
            let end = self.words.len() - rest.len();
            if keep(timestamp, tuple) {
                self.words.copy_within(read..end, write);
                write += end - read;
                kept += 1;
            }
            read = end;
        }
        self.words.truncate(write);
        self.events = kept;
    }
}

/// The owned reading of a batch: every event as a [`StreamEvent`].
#[derive(Debug)]
pub struct IntoEvents {
    words: Vec<u32>,
    /// Where in `words` the next event starts.
    at: usize,
    /// Events not yet yielded.
    left: usize,
}

impl Iterator for IntoEvents {
    type Item = StreamEvent;

    fn next(&mut self) -> Option<StreamEvent> {
        if self.left == 0 {
            return None;
        }
        let words = &self.words[self.at..];
        let ((timestamp, tuple), rest) = read_entry(words);
        self.at += words.len() - rest.len();
        self.left -= 1;
        Some(StreamEvent::new(timestamp, tuple.to_owned()))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl ExactSizeIterator for IntoEvents {}

impl IntoIterator for EventBatch {
    type Item = StreamEvent;
    type IntoIter = IntoEvents;

    fn into_iter(self) -> IntoEvents {
        IntoEvents {
            words: self.words,
            at: 0,
            left: self.events,
        }
    }
}

impl FromIterator<StreamEvent> for EventBatch {
    fn from_iter<I: IntoIterator<Item = StreamEvent>>(events: I) -> Self {
        let mut batch = EventBatch::new();
        for ev in events {
            batch.push_event(&ev);
        }
        batch
    }
}

/// Errors a source can surface mid-stream.
#[derive(Debug)]
pub enum IngestError {
    /// The underlying MRT bytes failed to decode.
    Mrt(bgp_mrt::MrtError),
    /// A [`QuarantinedSource`] hit its abort threshold: too much of the
    /// feed was malformed to keep skipping.
    QuarantineExceeded {
        /// Records/chunks quarantined when the threshold tripped.
        quarantined: u64,
        /// The configured abort threshold.
        threshold: u64,
    },
}

impl std::fmt::Display for IngestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IngestError::Mrt(e) => write!(f, "mrt decode: {e}"),
            IngestError::QuarantineExceeded {
                quarantined,
                threshold,
            } => write!(
                f,
                "quarantine threshold exceeded: {quarantined} malformed records/chunks (abort at {threshold})"
            ),
        }
    }
}

impl std::error::Error for IngestError {}

impl From<bgp_mrt::MrtError> for IngestError {
    fn from(e: bgp_mrt::MrtError) -> Self {
        IngestError::Mrt(e)
    }
}

/// A pull-based source of event batches.
pub trait TupleSource {
    /// Produce up to `max` events. An empty batch means the source is
    /// exhausted. An error consumes the failing unit (record, chunk):
    /// callers may stop, or call again to continue with whatever the
    /// source can still deliver — [`QuarantinedSource`] wraps that
    /// retry-and-count policy for supervised pipelines.
    fn next_batch(&mut self, max: usize) -> Result<EventBatch, IngestError>;
}

/// Whether `tuple` is a malformed observation a supervised pipeline must
/// quarantine rather than classify: AS0 anywhere in the path (RFC 7607
/// forbids AS0 on the wire; sanitized real feeds never produce it, so
/// it doubles as the fault-injection marker).
pub fn is_malformed(tuple: TupleRef<'_>) -> bool {
    tuple.hops().any(|asn| asn == Asn::ZERO)
}

/// A [`TupleSource`] wrapper that quarantines malformed input instead
/// of letting it poison the feed: decode errors are counted and the
/// source is re-polled (the failing unit was consumed), and malformed
/// events ([`is_malformed`]) are filtered out and counted. Once the
/// quarantine count passes `abort_threshold` (0 = never), the wrapper
/// aborts with [`IngestError::QuarantineExceeded`] — a feed that is
/// mostly garbage should stop the daemon, not silently serve nothing.
pub struct QuarantinedSource<'a> {
    inner: &'a mut dyn TupleSource,
    abort_threshold: u64,
    quarantined: u64,
}

impl<'a> QuarantinedSource<'a> {
    /// Wrap `inner`; abort after `abort_threshold` quarantined units
    /// (0 disables the abort).
    pub fn new(inner: &'a mut dyn TupleSource, abort_threshold: u64) -> Self {
        QuarantinedSource {
            inner,
            abort_threshold,
            quarantined: 0,
        }
    }

    /// Continue a count that earlier sources of the same feed started:
    /// the abort threshold then bounds the whole feed, not this source.
    pub fn counted_from(mut self, quarantined: u64) -> Self {
        self.quarantined = quarantined;
        self
    }

    /// Malformed records and failed chunks skipped so far.
    pub fn quarantined(&self) -> u64 {
        self.quarantined
    }

    fn check(&self) -> Result<(), IngestError> {
        if self.abort_threshold > 0 && self.quarantined > self.abort_threshold {
            return Err(IngestError::QuarantineExceeded {
                quarantined: self.quarantined,
                threshold: self.abort_threshold,
            });
        }
        Ok(())
    }
}

impl TupleSource for QuarantinedSource<'_> {
    fn next_batch(&mut self, max: usize) -> Result<EventBatch, IngestError> {
        loop {
            let mut batch = match self.inner.next_batch(max) {
                Ok(b) => b,
                Err(e @ IngestError::QuarantineExceeded { .. }) => return Err(e),
                Err(_) => {
                    // The failing unit is consumed; count it and poll
                    // again — an exhausted inner source returns an
                    // empty batch next, ending the loop cleanly.
                    self.quarantined += 1;
                    self.check()?;
                    continue;
                }
            };
            // Clean batches (the overwhelmingly common case, and the
            // empty one that ends the stream) pass through on a scan.
            if !batch.iter().any(|(_, tuple)| is_malformed(tuple)) {
                return Ok(batch);
            }
            let before = batch.len();
            batch.retain(|_, tuple| !is_malformed(tuple));
            self.quarantined += (before - batch.len()) as u64;
            self.check()?;
            if !batch.is_empty() {
                return Ok(batch);
            }
            // The whole batch was quarantined; pull again rather than
            // signal a false end-of-stream.
        }
    }
}

/// Streams one MRT archive's records through the §4.1 sanitation pipeline
/// without ever materializing the full tuple vector.
///
/// It wraps [`bgp_mrt::TupleStream`] — the exact record-at-a-time
/// extraction behind the batch [`bgp_mrt::extract_tuples`] — so it applies
/// path-shape cleaning only and emits **one event per update message** (a
/// multi-prefix announcement carries one `(path, comm)`). Sharing that
/// implementation is what makes the stream/batch parity guarantee hold on
/// arbitrary archives, including ones mentioning reserved ASNs.
pub struct MrtSource<'a> {
    stream: TupleStream<'a>,
    done: bool,
    /// Buffer words of the largest batch so far: the next one's capacity.
    batch_words: usize,
}

impl<'a> MrtSource<'a> {
    /// Stream `bytes` with path-shape cleaning only — the batch
    /// [`bgp_mrt::extract_tuples`] semantics, record for record.
    pub fn new(bytes: &'a [u8]) -> Self {
        MrtSource {
            stream: TupleStream::new(bytes),
            done: false,
            batch_words: 0,
        }
    }

    /// Sanitation counters accumulated so far.
    pub fn stats(&self) -> SanitationStats {
        SanitationStats {
            offered: self.stream.kept() + self.stream.shape_dropped(),
            dropped_path: self.stream.shape_dropped(),
            kept: self.stream.kept(),
            ..SanitationStats::default()
        }
    }

    /// Raw MRT entries seen so far (Table 1's "entries" accounting).
    pub fn raw_entries(&self) -> u64 {
        self.stream.raw_entries()
    }
}

impl TupleSource for MrtSource<'_> {
    fn next_batch(&mut self, max: usize) -> Result<EventBatch, IngestError> {
        if self.done {
            return Ok(EventBatch::new());
        }
        let mut out = EventBatch::with_capacity(self.batch_words);
        while out.len() < max {
            match self.stream.next_ref() {
                None => {
                    self.done = true;
                    break;
                }
                Some(Err(e)) => {
                    self.done = true;
                    return Err(e.into());
                }
                Some(Ok((ts, tuple))) => out.push(ts, tuple),
            }
        }
        self.batch_words = self.batch_words.max(out.words());
        Ok(out)
    }
}

/// Adapts any event iterator (a simulated feed, a replayed trace) into a
/// [`TupleSource`].
pub struct IterSource<I> {
    inner: I,
}

impl<I: Iterator<Item = StreamEvent>> IterSource<I> {
    /// Wrap an iterator.
    pub fn new(inner: I) -> Self {
        IterSource { inner }
    }
}

impl<I: Iterator<Item = StreamEvent>> TupleSource for IterSource<I> {
    fn next_batch(&mut self, max: usize) -> Result<EventBatch, IngestError> {
        Ok(self.inner.by_ref().take(max).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgp_mrt::MrtWriter;

    fn update(peer: u32, path: &[u32], tag: Option<u32>, ts: u64) -> UpdateMessage {
        UpdateMessage::announcement(
            Asn(peer),
            ts,
            Prefix::v4([203, 0, 114, 0], 24),
            RawAsPath::from_sequence(path.iter().map(|&v| Asn(v)).collect()),
            CommunitySet::from_iter(tag.map(|a| AnyCommunity::tag_for(Asn(a), 100))),
        )
    }

    #[test]
    fn mrt_source_streams_in_batches() {
        let mut w = MrtWriter::new();
        for i in 0..10u32 {
            w.write_update(&update(3000 + i, &[3000 + i, 3356], Some(3356), i as u64))
                .unwrap();
        }
        let bytes = w.into_bytes();
        let mut src = MrtSource::new(&bytes);
        let mut total = 0;
        loop {
            let batch = src.next_batch(3).unwrap();
            if batch.is_empty() {
                break;
            }
            assert!(batch.len() <= 3);
            total += batch.len();
        }
        assert_eq!(total, 10);
        assert_eq!(src.raw_entries(), 10);
        assert_eq!(src.stats().kept, 10);
    }

    #[test]
    fn mrt_source_matches_extract_tuples() {
        let mut w = MrtWriter::new();
        // Prepending + route-server style peers exercise sanitation.
        w.write_update(&update(3320, &[3320, 3320, 3356], Some(3356), 5))
            .unwrap();
        w.write_update(&update(6695, &[3320, 3356], None, 6))
            .unwrap();
        let bytes = w.into_bytes();

        let (batch_tuples, raw) = bgp_mrt::extract_tuples(&bytes).unwrap();
        let mut src = MrtSource::new(&bytes);
        let mut streamed = Vec::new();
        loop {
            let b = src.next_batch(1).unwrap();
            if b.is_empty() {
                break;
            }
            streamed.extend(b.into_iter().map(|e| e.tuple));
        }
        assert_eq!(streamed, batch_tuples);
        assert_eq!(src.raw_entries(), raw);
    }

    #[test]
    fn mrt_source_keeps_reserved_asns_like_the_batch_path() {
        // extract_tuples applies no registry filter; the default
        // MrtSource must not either, or real archives mentioning private
        // ASNs (64512+) would classify differently batch vs stream.
        let mut w = MrtWriter::new();
        w.write_update(&update(64512, &[64512, 3356], Some(3356), 1))
            .unwrap();
        let bytes = w.into_bytes();

        let (batch_tuples, _) = bgp_mrt::extract_tuples(&bytes).unwrap();
        assert_eq!(batch_tuples.len(), 1);
        let mut src = MrtSource::new(&bytes);
        let streamed: Vec<StreamEvent> = src.next_batch(16).unwrap().into_iter().collect();
        assert_eq!(streamed.len(), 1);
        assert_eq!(streamed[0].tuple, batch_tuples[0]);
    }

    #[test]
    fn multi_prefix_update_emits_one_event() {
        // One update announcing N prefixes carries one (path, comm):
        // extract_tuples yields one tuple, so the stream must emit one
        // event — per-prefix emission would overcount with dedup off.
        let mut u = update(3320, &[3320, 3356], Some(3356), 9);
        u.announced.push(Prefix::v4([198, 51, 100, 0], 24));
        u.announced.push(Prefix::v4([203, 0, 113, 0], 24));
        let mut w = MrtWriter::new();
        w.write_update(&u).unwrap();
        let bytes = w.into_bytes();

        let (batch_tuples, _) = bgp_mrt::extract_tuples(&bytes).unwrap();
        let mut src = MrtSource::new(&bytes);
        let streamed: Vec<StreamEvent> = src.next_batch(16).unwrap().into_iter().collect();
        assert_eq!(batch_tuples.len(), 1);
        assert_eq!(streamed.len(), 1);
        assert_eq!(streamed[0].tuple, batch_tuples[0]);
        assert_eq!(src.stats().kept, 1);
    }

    /// A source whose first pull fails, then yields `events`.
    struct FailsOnce {
        failed: bool,
        events: IterSource<std::vec::IntoIter<StreamEvent>>,
    }

    impl TupleSource for FailsOnce {
        fn next_batch(&mut self, max: usize) -> Result<EventBatch, IngestError> {
            if !std::mem::replace(&mut self.failed, true) {
                let e = bgp_mrt::MrtError::Truncated {
                    context: "test",
                    needed: 1,
                };
                return Err(e.into());
            }
            self.events.next_batch(max)
        }
    }

    #[test]
    fn quarantined_source_skips_errors_and_malformed_events() {
        let good = vec![StreamEvent::new(
            0,
            PathCommTuple::new(path(&[1, 2]), CommunitySet::new()),
        )];
        let mut inner = FailsOnce {
            failed: false,
            events: IterSource::new(good.into_iter()),
        };
        let mut src = QuarantinedSource::new(&mut inner, 0);
        // The failed pull is absorbed: callers only see good events.
        assert_eq!(src.next_batch(16).unwrap().len(), 1);
        assert!(src.next_batch(16).unwrap().is_empty());
        assert_eq!(src.quarantined(), 1);

        // Malformed (AS0) events are filtered and counted.
        let evs = vec![
            StreamEvent::new(0, PathCommTuple::new(path(&[0, 2]), CommunitySet::new())),
            StreamEvent::new(1, PathCommTuple::new(path(&[1, 2]), CommunitySet::new())),
        ];
        let mut inner = IterSource::new(evs.into_iter());
        let mut src = QuarantinedSource::new(&mut inner, 0);
        let batch = src.next_batch(16).unwrap();
        assert_eq!(batch.len(), 1);
        assert_eq!(batch.iter().next().unwrap().0, 1);
        assert_eq!(src.quarantined(), 1);
    }

    #[test]
    fn quarantined_source_aborts_past_threshold() {
        let evs: Vec<StreamEvent> = (0..4)
            .map(|i| StreamEvent::new(i, PathCommTuple::new(path(&[0, 2]), CommunitySet::new())))
            .collect();
        let mut inner = IterSource::new(evs.into_iter());
        let mut src = QuarantinedSource::new(&mut inner, 2);
        let err = src.next_batch(1).unwrap_err();
        assert!(matches!(err, IngestError::QuarantineExceeded { .. }));
    }

    #[test]
    fn mrt_source_surfaces_decode_errors() {
        let mut w = MrtWriter::new();
        w.write_update(&update(1, &[1, 2], None, 0)).unwrap();
        let mut bytes = w.into_bytes();
        bytes.truncate(bytes.len() - 3);
        let mut src = MrtSource::new(&bytes);
        assert!(src.next_batch(64).is_err());
        // Sticky: after the error the source reports exhaustion.
        assert!(src.next_batch(64).unwrap().is_empty());
    }

    /// Events `0..n`, each distinct in timestamp, path and set size.
    fn numbered(n: u64) -> Vec<StreamEvent> {
        (0..n)
            .map(|i| {
                let comm = (0..i % 3).map(|c| AnyCommunity::regular(7, c as u16));
                let tuple =
                    PathCommTuple::new(path(&[1, 100 + i as u32]), CommunitySet::from_iter(comm));
                StreamEvent::new(u64::MAX - i, tuple)
            })
            .collect()
    }

    #[test]
    fn event_batch_reads_back_what_was_pushed() {
        let events = numbered(7);
        let batch: EventBatch = events.iter().cloned().collect();
        assert_eq!((batch.len(), batch.is_empty()), (7, false));
        assert_eq!(batch.iter().len(), 7);
        let borrowed: Vec<StreamEvent> = batch
            .iter()
            .map(|(ts, tuple)| StreamEvent::new(ts, tuple.to_owned()))
            .collect();
        assert_eq!(borrowed, events);
        // Pushing the borrowed form builds the same buffer.
        let mut copy = EventBatch::new();
        for (ts, tuple) in batch.iter() {
            copy.push(ts, tuple);
        }
        assert_eq!(copy, batch);
        // The owned reading knows its length at every step.
        let mut owned = batch.into_iter();
        for (i, ev) in events.iter().enumerate() {
            assert_eq!(owned.len(), 7 - i);
            assert_eq!(owned.next().as_ref(), Some(ev));
        }
        assert_eq!((owned.len(), owned.next()), (0, None));
        assert!(EventBatch::new().is_empty());
        assert_eq!(EventBatch::new().into_iter().next(), None);
    }

    #[test]
    fn event_batch_split_off_keeps_order_on_both_sides() {
        let events = numbered(6);
        for at in 0..=6 {
            let mut head: EventBatch = events.iter().cloned().collect();
            let tail = head.split_off(at);
            assert_eq!((head.len(), tail.len()), (at, 6 - at));
            assert_eq!(head.into_iter().collect::<Vec<_>>(), events[..at]);
            assert_eq!(tail.into_iter().collect::<Vec<_>>(), events[at..]);
        }
    }

    #[test]
    fn event_batch_retain_compacts_in_place() {
        let events = numbered(9);
        for keep_mask in [
            0u32,
            0b1_1111_1111,
            0b1_0101_0101,
            0b0_1110_0001,
            0b1_0000_0000,
        ] {
            let kept = |i: usize| keep_mask >> i & 1 == 1;
            let mut batch: EventBatch = events.iter().cloned().collect();
            let mut seen = 0;
            batch.retain(|ts, tuple| {
                // Every event is offered once, in order, intact.
                assert_eq!(StreamEvent::new(ts, tuple.to_owned()), events[seen]);
                seen += 1;
                kept(seen - 1)
            });
            assert_eq!(seen, 9);
            let want: Vec<StreamEvent> = (0..9)
                .filter(|&i| kept(i))
                .map(|i| events[i].clone())
                .collect();
            assert_eq!(batch.len(), want.len());
            assert_eq!(batch, want.iter().cloned().collect::<EventBatch>());
            assert_eq!(batch.into_iter().collect::<Vec<_>>(), want);
        }
    }

    #[test]
    fn iter_source_drains() {
        let evs: Vec<StreamEvent> = (0..5)
            .map(|i| StreamEvent::new(i, PathCommTuple::new(path(&[1, 2]), CommunitySet::new())))
            .collect();
        let mut src = IterSource::new(evs.into_iter());
        assert_eq!(src.next_batch(2).unwrap().len(), 2);
        assert_eq!(src.next_batch(10).unwrap().len(), 3);
        assert!(src.next_batch(10).unwrap().is_empty());
    }
}
