//! Segment encoding: one or more sealed epochs in a self-describing,
//! checksummed, length-prefix-framed byte container.
//!
//! ```text
//! segment := "BGPA" u32(version) frame* end-frame
//! frame   := u8(kind) u32(len) payload
//! ```
//!
//! An [`Kind::EpochMeta`](crate::frame::Kind) frame opens an epoch; the
//! frames after it (interner delta, counters, classes, flips, stats,
//! trace) belong to that epoch until the next meta frame or the
//! trailer. The trailer ([`Kind::End`](crate::frame::Kind)) carries the FNV-1a-64
//! digest of every preceding byte — the per-segment checksum that turns
//! a torn tail into a detected, recoverable condition instead of silent
//! garbage.
//!
//! Frames are *optional by omission*: a compacted epoch simply has no
//! counters (and possibly no flips) frame. Decoders must therefore key
//! off presence, never position — which is also what lets future format
//! versions add frame kinds without breaking old readers of old files.
//!
//! The interner frame is **incremental**: it records only the ids this
//! epoch added to the workspace-shared table (`base .. base + delta`),
//! so a long archive stores each AS once, not once per epoch. Replaying
//! the deltas of epochs `0..=e` in order rebuilds the exact id space the
//! epoch-`e` counter column is indexed by.
//!
//! The counter and class frames are **deltas within the segment**
//! (since format version 2): each holds only the rows that differ from
//! the same frame of the epoch pushed before it into the same segment.
//! The first epoch of a segment, or one whose predecessor has no such
//! frame, is diffed against an empty base — an all-zero column, an empty
//! table — so a segment's first counter frame holds its non-zero rows,
//! and an epoch that moved nothing costs a few bytes. [`decode_segment`] folds
//! the chain, so every decoded epoch still carries its full column and
//! table, and every segment still decodes on its own.
//!
//! ```text
//! counters := u32(len) u32(n) n × (u32(id) u64(t) u64(s) u64(f) u64(c))
//! classes  := u32(n) n × (u32(asn) u8(tagging) u8(forwarding)) u32(m) m × u32(asn)
//! trace    := u64(present) WORDS × u64
//! ```
//!
//! A counter frame's `len` is the epoch's interner length, never below
//! its predecessor's, and its rows ascend by id. A class frame's rows are
//! the upserted `(asn, class)` pairs, ascending by ASN, then the ASNs
//! removed from the previous table, ascending — exact even if an AS's
//! counters ever return to zero.
//!
//! The trace frame is fixed-length (since format version 3): an
//! [`EpochTrace`]'s presence word, one bit a stage of
//! [`obs::trace::STAGES`], then its words, every stage's row in that
//! table's order whether it ran or not. Versions 1 (a full column and
//! table in every epoch) and 2 (a trace frame of named rows) are refused
//! as unsupported.

use crate::frame::{
    corrupt, put_frame, ByteReader, Fnv64, Frame, FrameWalker, Kind, PutBytes, Result,
};
use bgp_infer::classify::{Class, ForwardingClass, TaggingClass};
use bgp_infer::counters::{AsCounters, Thresholds};
use bgp_stream::epoch::ClassFlip;
use bgp_types::asn::Asn;
use obs::trace::{EpochTrace, STAGES, WORDS};

/// File magic: the first four bytes of every segment.
pub const MAGIC: &[u8; 4] = b"BGPA";
/// Format version this crate reads and writes.
pub const VERSION: u32 = 3;

/// Bytes of one counter row: the id, then `t`, `s`, `f` and `c`.
const COUNTER_ROW: usize = 4 + 4 * 8;
/// Bytes of one upserted class row: the ASN, then the two class codes.
const CLASS_ROW: usize = 4 + 2;
/// Bytes of one ASN: an interner entry, a removed class row.
const ASN_BYTES: usize = 4;
/// Bytes of one flip: the ASN, then the codes of both classes.
const FLIP_ROW: usize = 4 + 4;
/// Bytes of one shard load.
const SHARD_LOAD: usize = 8;
/// Bytes of a trace frame: the presence word, then the record's words.
pub const TRACE_FRAME: usize = 8 * (1 + WORDS);
/// Most ids an interner may hold, far more ASes than the routing system
/// has. A decoded counter column is this long at most, whatever a
/// segment claims about the ids its earlier segments wrote.
const MAX_IDS: usize = 1 << 22;

/// The fixed per-epoch header fields.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochMeta {
    /// 0-based epoch sequence number.
    pub epoch: u64,
    /// Timestamp of the last event ingested before sealing.
    pub sealed_at: u64,
    /// Events ingested during this epoch.
    pub events: u64,
    /// Events ingested since the stream began.
    pub total_events: u64,
    /// Unique tuples stored across all shards at seal time.
    pub unique_tuples: u64,
    /// Wall-clock nanoseconds the seal took.
    pub seal_nanos: u64,
    /// Wall-clock nanoseconds of the counting portion alone.
    pub count_nanos: u64,
    /// Deepest path index at which any counter was incremented.
    pub deepest_active_index: u64,
    /// Thresholds the epoch was classified under.
    pub thresholds: Thresholds,
}

/// The stats frame: what the epoch's seal measured of the stream
/// ([`EpochSnapshot::ingest`](bgp_stream::epoch::EpochSnapshot::ingest)),
/// captured at the seal and written as the epoch carries it, so a
/// restored epoch serves the numbers it sealed with.
pub use bgp_stream::epoch::IngestStats as SegmentStats;

/// One decoded epoch, owned. `counters`/`flips` are `None` either when
/// the frame was dropped by compaction or when the decode filter skipped
/// it — `has_counters`/`has_flips` record on-disk presence either way.
#[derive(Debug, Clone)]
pub struct ArchivedEpoch {
    /// Fixed header fields.
    pub meta: EpochMeta,
    /// Ids below this were interned by earlier epochs.
    pub interner_base: u32,
    /// ASNs of ids `interner_base ..`, in id order.
    pub interner_delta: Vec<Asn>,
    /// Whether a counters frame exists on disk.
    pub has_counters: bool,
    /// Dense per-id counter column (ids `0 .. interner_base + delta`).
    pub counters: Option<Vec<AsCounters>>,
    /// `(asn, class)` for every counted AS, ascending by ASN.
    pub classes: Vec<(Asn, Class)>,
    /// Whether a flips frame exists on disk.
    pub has_flips: bool,
    /// Class flips sealed by this epoch.
    pub flips: Option<Vec<ClassFlip>>,
    /// Ingest statistics at archive time.
    pub stats: SegmentStats,
    /// Whether a provenance trace frame exists on disk.
    pub has_trace: bool,
    /// The epoch's provenance timeline, when archived and requested.
    pub trace: Option<EpochTrace>,
}

impl ArchivedEpoch {
    /// The interner length this epoch's counter column is indexed by.
    pub fn interner_len(&self) -> usize {
        self.interner_base as usize + self.interner_delta.len()
    }
}

/// Borrowed view of one epoch for encoding — the writer fills it from a
/// live `EpochSnapshot`, the compactor from a decoded [`ArchivedEpoch`].
#[derive(Debug)]
pub struct EpochFrames<'a> {
    /// Fixed header fields.
    pub meta: EpochMeta,
    /// Ids below this were written by earlier segments.
    pub interner_base: u32,
    /// ASNs this epoch adds, in id order.
    pub interner_delta: &'a [Asn],
    /// Dense counter column; `None` drops the frame (compaction).
    pub counters: Option<&'a [AsCounters]>,
    /// Class table, ascending by ASN.
    pub classes: &'a [(Asn, Class)],
    /// Flips; `None` drops the frame (flip retention window).
    pub flips: Option<&'a [ClassFlip]>,
    /// Ingest statistics.
    pub stats: &'a SegmentStats,
    /// Provenance trace; `None` omits the frame (an epoch the writer's
    /// registry never published, so holds no timeline for).
    pub trace: Option<EpochTrace>,
}

/// Which heavyweight frames to materialize when decoding. Meta, interner
/// and stats frames are always parsed (they are small and every consumer
/// needs them); skipping the rest lets a class-trajectory scan walk a
/// whole archive without touching counter bytes.
#[derive(Debug, Clone, Copy)]
pub struct DecodeFilter {
    /// Parse counter columns.
    pub counters: bool,
    /// Parse class tables.
    pub classes: bool,
    /// Parse flip lists.
    pub flips: bool,
    /// Parse provenance traces.
    pub trace: bool,
}

impl DecodeFilter {
    /// Parse everything.
    pub fn all() -> Self {
        DecodeFilter {
            counters: true,
            classes: true,
            flips: true,
            trace: true,
        }
    }

    /// Parse only the class tables (plus meta/interner/stats).
    pub fn classes_only() -> Self {
        DecodeFilter {
            counters: false,
            classes: true,
            flips: false,
            trace: false,
        }
    }

    /// Parse only the flip lists (plus meta/interner/stats).
    pub fn flips_only() -> Self {
        DecodeFilter {
            counters: false,
            classes: false,
            flips: true,
            trace: false,
        }
    }

    /// Parse only the provenance traces (plus meta/interner/stats).
    pub fn trace_only() -> Self {
        DecodeFilter {
            counters: false,
            classes: false,
            flips: false,
            trace: true,
        }
    }
}

fn class_codes(c: Class) -> [u8; 2] {
    [c.tagging.code() as u8, c.forwarding.code() as u8]
}

fn class_from_codes(t: u8, f: u8) -> Result<Class> {
    let tagging = TaggingClass::from_code(t as char)
        .ok_or_else(|| corrupt(format!("bad tagging code {t:#x}")))?;
    let forwarding = ForwardingClass::from_code(f as char)
        .ok_or_else(|| corrupt(format!("bad forwarding code {f:#x}")))?;
    Ok(Class {
        tagging,
        forwarding,
    })
}

/// Incrementally builds one segment; [`finish`](SegmentBuilder::finish)
/// appends the checksum trailer.
#[derive(Debug)]
pub struct SegmentBuilder {
    buf: Vec<u8>,
    first_epoch: Option<u64>,
    last_epoch: u64,
    /// The counter column of the epoch pushed last (empty when it had
    /// none): what the next counter frame is a delta against.
    counters: Vec<AsCounters>,
    /// The class table of the epoch pushed last: what the next class
    /// frame is a delta against.
    classes: Vec<(Asn, Class)>,
}

impl Default for SegmentBuilder {
    fn default() -> Self {
        SegmentBuilder::new()
    }
}

impl SegmentBuilder {
    /// Empty segment: magic + version, no epochs yet.
    pub fn new() -> Self {
        let mut buf = Vec::with_capacity(4096);
        buf.extend_from_slice(MAGIC);
        buf.put_u32(VERSION);
        SegmentBuilder {
            buf,
            first_epoch: None,
            last_epoch: 0,
            counters: Vec::new(),
            classes: Vec::new(),
        }
    }

    /// Whether any epoch was pushed.
    pub fn is_empty(&self) -> bool {
        self.first_epoch.is_none()
    }

    /// Epoch range pushed so far (`None` when empty).
    pub fn epoch_range(&self) -> Option<(u64, u64)> {
        self.first_epoch.map(|f| (f, self.last_epoch))
    }

    /// Bytes buffered so far (header + epoch frames, no trailer yet).
    pub fn byte_len(&self) -> usize {
        self.buf.len()
    }

    /// Append one epoch's frames, its counter column and class table as
    /// deltas against the epoch pushed before it.
    ///
    /// # Panics
    ///
    /// If the counter column is shorter than the previous epoch's (ids
    /// only grow), or the class table does not strictly ascend by ASN.
    pub fn push_epoch(&mut self, ep: &EpochFrames<'_>) {
        self.first_epoch.get_or_insert(ep.meta.epoch);
        self.last_epoch = ep.meta.epoch;

        let mut p = Vec::with_capacity(96);
        let m = &ep.meta;
        p.put_u64(m.epoch);
        p.put_u64(m.sealed_at);
        p.put_u64(m.events);
        p.put_u64(m.total_events);
        p.put_u64(m.unique_tuples);
        p.put_u64(m.seal_nanos);
        p.put_u64(m.count_nanos);
        p.put_u64(m.deepest_active_index);
        p.put_f64(m.thresholds.tagger);
        p.put_f64(m.thresholds.silent);
        p.put_f64(m.thresholds.forward);
        p.put_f64(m.thresholds.cleaner);
        put_frame(&mut self.buf, Kind::EpochMeta, &p);

        let mut p = Vec::with_capacity(8 + 4 * ep.interner_delta.len());
        p.put_u32(ep.interner_base);
        p.put_u32(u32::try_from(ep.interner_delta.len()).expect("interner delta fits u32"));
        for asn in ep.interner_delta {
            p.put_u32(asn.0);
        }
        put_frame(&mut self.buf, Kind::Interner, &p);

        match ep.counters {
            Some(column) => {
                let p = counter_delta(&self.counters, column);
                put_frame(&mut self.buf, Kind::Counters, &p);
                self.counters.clear();
                self.counters.extend_from_slice(column);
            }
            None => self.counters.clear(),
        }

        let p = class_delta(&self.classes, ep.classes);
        put_frame(&mut self.buf, Kind::Classes, &p);
        self.classes.clear();
        self.classes.extend_from_slice(ep.classes);

        if let Some(flips) = ep.flips {
            let mut p = Vec::with_capacity(4 + 8 * flips.len());
            p.put_u32(u32::try_from(flips.len()).expect("flip list fits u32"));
            for flip in flips {
                p.put_u32(flip.asn.0);
                let [ft, ff] = class_codes(flip.from);
                let [tt, tf] = class_codes(flip.to);
                p.put_u8(ft);
                p.put_u8(ff);
                p.put_u8(tt);
                p.put_u8(tf);
            }
            put_frame(&mut self.buf, Kind::Flips, &p);
        }

        let s = ep.stats;
        let mut p = Vec::with_capacity(48 + 8 * s.shard_loads.len());
        p.put_u64(s.duplicates);
        p.put_u64(s.interned_asns);
        p.put_u64(s.arena_hops);
        p.put_u64(s.replayed_steps);
        p.put_u64(s.total_steps);
        p.put_u32(u32::try_from(s.shard_loads.len()).expect("shard count fits u32"));
        for &load in &s.shard_loads {
            p.put_u64(load);
        }
        put_frame(&mut self.buf, Kind::Stats, &p);

        if let Some(trace) = ep.trace {
            let mut p = Vec::with_capacity(TRACE_FRAME);
            p.put_u64(trace.present);
            for &word in &trace.words {
                p.put_u64(word);
            }
            put_frame(&mut self.buf, Kind::Trace, &p);
        }
    }

    /// Seal the segment: append the checksum trailer and return the
    /// finished bytes plus their digest (what the manifest records).
    pub fn finish(mut self) -> (Vec<u8>, u64) {
        let digest = Fnv64::of(&self.buf);
        let mut trailer = Vec::with_capacity(8);
        trailer.put_u64(digest);
        put_frame(&mut self.buf, Kind::End, &trailer);
        (self.buf, digest)
    }
}

/// The counter frame of `column` against `base`: the column's length,
/// then the rows that differ from `base`'s, ids past `base` differing from
/// zero.
fn counter_delta(base: &[AsCounters], column: &[AsCounters]) -> Vec<u8> {
    assert!(
        column.len() >= base.len(),
        "a counter column of {} ids follows one of {}: ids only grow",
        column.len(),
        base.len()
    );
    let (kept, added) = column.split_at(base.len());
    let zero = AsCounters::default();
    let changed = kept
        .iter()
        .zip(base)
        .enumerate()
        .filter(|(_, (now, was))| now != was)
        .map(|(id, (now, _))| (id, now))
        .chain(
            added
                .iter()
                .enumerate()
                .filter(|(_, now)| **now != zero)
                .map(|(i, now)| (base.len() + i, now)),
        );
    let mut p = Vec::with_capacity(256);
    p.put_u32(u32::try_from(column.len()).expect("counter column fits u32"));
    p.put_u32(0);
    let mut rows = 0u32;
    for (id, c) in changed {
        p.put_u32(id as u32);
        p.put_u64(c.t);
        p.put_u64(c.s);
        p.put_u64(c.f);
        p.put_u64(c.c);
        rows += 1;
    }
    p[4..8].copy_from_slice(&rows.to_le_bytes());
    p
}

/// The class frame of `table` against `base` (both ascending by ASN): the
/// rows that are new or changed, then the ASNs `table` no longer holds.
fn class_delta(base: &[(Asn, Class)], table: &[(Asn, Class)]) -> Vec<u8> {
    assert!(
        table.windows(2).all(|w| w[0].0 < w[1].0),
        "a class table strictly ascends by ASN"
    );
    let mut p = Vec::with_capacity(64);
    p.put_u32(0);
    let mut upserts = 0u32;
    let mut removed: Vec<Asn> = Vec::new();
    let mut old = base.iter().peekable();
    for &(asn, class) in table {
        while let Some(&(gone, _)) = old.next_if(|&&(a, _)| a < asn) {
            removed.push(gone);
        }
        if old
            .next_if(|&&(a, _)| a == asn)
            .is_some_and(|&(_, was)| was == class)
        {
            continue;
        }
        p.put_u32(asn.0);
        let [t, f] = class_codes(class);
        p.put_u8(t);
        p.put_u8(f);
        upserts += 1;
    }
    removed.extend(old.map(|&(asn, _)| asn));
    p[..4].copy_from_slice(&upserts.to_le_bytes());
    p.put_u32(u32::try_from(removed.len()).expect("class table fits u32"));
    for asn in removed {
        p.put_u32(asn.0);
    }
    p
}

fn parse_meta(payload: &[u8]) -> Result<EpochMeta> {
    let mut r = ByteReader::new(payload);
    let meta = EpochMeta {
        epoch: r.u64()?,
        sealed_at: r.u64()?,
        events: r.u64()?,
        total_events: r.u64()?,
        unique_tuples: r.u64()?,
        seal_nanos: r.u64()?,
        count_nanos: r.u64()?,
        deepest_active_index: r.u64()?,
        thresholds: Thresholds {
            tagger: r.f64()?,
            silent: r.f64()?,
            forward: r.f64()?,
            cleaner: r.f64()?,
        },
    };
    if !r.is_empty() {
        return Err(corrupt("trailing bytes in epoch meta frame"));
    }
    Ok(meta)
}

fn parse_interner(payload: &[u8]) -> Result<(u32, Vec<Asn>)> {
    let mut r = ByteReader::new(payload);
    let base = r.u32()?;
    let n = r.count(ASN_BYTES)?;
    if base as usize + n > MAX_IDS {
        return Err(corrupt(format!(
            "interner of {base} + {n} ids is past the {MAX_IDS} an archive holds"
        )));
    }
    let mut delta = Vec::with_capacity(n);
    for _ in 0..n {
        delta.push(Asn(r.u32()?));
    }
    if !r.is_empty() {
        return Err(corrupt("trailing bytes in interner frame"));
    }
    Ok((base, delta))
}

/// Fold a counter frame onto `base`, the previous epoch's column (empty
/// when it had none), into the epoch's full column of `len` ids.
fn fold_counters(payload: &[u8], base: &[AsCounters], len: usize) -> Result<Vec<AsCounters>> {
    let mut r = ByteReader::new(payload);
    let claimed = r.u32()? as usize;
    if claimed != len {
        return Err(corrupt(format!(
            "counter column of {claimed} ids for an interner of {len}"
        )));
    }
    if len < base.len() {
        return Err(corrupt(format!(
            "counter column of {len} ids follows one of {}",
            base.len()
        )));
    }
    let rows = r.count(COUNTER_ROW)?;
    let mut column = Vec::with_capacity(len);
    column.extend_from_slice(base);
    column.resize(len, AsCounters::default());
    let mut next = 0;
    for _ in 0..rows {
        let id = r.u32()? as usize;
        if id < next || id >= len {
            return Err(corrupt(format!(
                "counter row id {id} repeats, descends, or is past {len} ids"
            )));
        }
        column[id] = AsCounters {
            t: r.u64()?,
            s: r.u64()?,
            f: r.u64()?,
            c: r.u64()?,
        };
        next = id + 1;
    }
    if !r.is_empty() {
        return Err(corrupt("trailing bytes in counter frame"));
    }
    Ok(column)
}

/// Fold a class frame onto `base`, the previous epoch's table (empty when
/// it had none), into the epoch's full table. Each upsert and removal
/// must ascend, and a removal must name an ASN `base` holds and no upsert
/// touches.
fn fold_classes(payload: &[u8], base: &[(Asn, Class)]) -> Result<Vec<(Asn, Class)>> {
    let mut r = ByteReader::new(payload);
    let n = r.count(CLASS_ROW)?;
    let mut upserts = Vec::with_capacity(n);
    for _ in 0..n {
        let asn = Asn(r.u32()?);
        upserts.push((asn, class_from_codes(r.u8()?, r.u8()?)?));
    }
    let m = r.count(ASN_BYTES)?;
    let mut removed = Vec::with_capacity(m);
    for _ in 0..m {
        removed.push(Asn(r.u32()?));
    }
    if !r.is_empty() {
        return Err(corrupt("trailing bytes in class frame"));
    }
    if !upserts.windows(2).all(|w| w[0].0 < w[1].0) || !removed.windows(2).all(|w| w[0] < w[1]) {
        return Err(corrupt("class rows do not ascend by ASN"));
    }
    let absent = |asn: Asn| corrupt(format!("class frame removes {asn}, which it does not hold"));
    let mut table = Vec::with_capacity(base.len() + n);
    let mut up = upserts.into_iter().peekable();
    let mut gone = removed.into_iter().peekable();
    for &(asn, class) in base {
        if let Some(missing) = gone.next_if(|&a| a < asn) {
            return Err(absent(missing));
        }
        table.extend(std::iter::from_fn(|| up.next_if(|&(a, _)| a < asn)));
        let replaced = up.next_if(|&(a, _)| a == asn);
        if gone.next_if(|&a| a == asn).is_some() {
            if replaced.is_some() {
                return Err(corrupt(format!(
                    "class frame both upserts and removes {asn}"
                )));
            }
            continue;
        }
        table.push(replaced.unwrap_or((asn, class)));
    }
    table.extend(up);
    match gone.next() {
        Some(missing) => Err(absent(missing)),
        None => Ok(table),
    }
}

fn parse_flips(payload: &[u8]) -> Result<Vec<ClassFlip>> {
    let mut r = ByteReader::new(payload);
    let n = r.count(FLIP_ROW)?;
    let mut flips = Vec::with_capacity(n);
    for _ in 0..n {
        let asn = Asn(r.u32()?);
        let from = class_from_codes(r.u8()?, r.u8()?)?;
        let to = class_from_codes(r.u8()?, r.u8()?)?;
        flips.push(ClassFlip { asn, from, to });
    }
    Ok(flips)
}

/// Parse a trace frame; the epoch id comes from the meta frame.
fn parse_trace(payload: &[u8], epoch: u64) -> Result<EpochTrace> {
    let mut r = ByteReader::new(payload);
    let mut trace = EpochTrace::new(epoch);
    trace.present = r.u64()?;
    for word in &mut trace.words {
        *word = r.u64()?;
    }
    if !r.is_empty() || trace.present >> STAGES.len() != 0 {
        return Err(corrupt("trace frame is not one record of known stages"));
    }
    Ok(trace)
}

fn parse_stats(payload: &[u8]) -> Result<SegmentStats> {
    let mut r = ByteReader::new(payload);
    let mut stats = SegmentStats {
        duplicates: r.u64()?,
        interned_asns: r.u64()?,
        arena_hops: r.u64()?,
        replayed_steps: r.u64()?,
        total_steps: r.u64()?,
        shard_loads: Vec::new(),
    };
    let n = r.count(SHARD_LOAD)?;
    stats.shard_loads.reserve(n);
    for _ in 0..n {
        stats.shard_loads.push(r.u64()?);
    }
    Ok(stats)
}

/// Walk a segment's framing and return `(total_len, digest)`: the byte
/// length up to and including the End frame (trailing garbage after a
/// committed segment is excluded) and the verified checksum. Errors on
/// bad magic/version, torn frames, or checksum mismatch.
pub fn segment_extent(bytes: &[u8]) -> Result<(usize, u64)> {
    if bytes.len() < 8 || &bytes[..4] != MAGIC {
        return Err(corrupt("bad segment magic"));
    }
    let version = u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes"));
    if version != VERSION {
        return Err(corrupt(format!("unsupported segment version {version}")));
    }
    let mut walker = FrameWalker::new(bytes, 8);
    while let Some(frame) = walker.next_frame()? {
        if frame.kind == Kind::End {
            let mut r = ByteReader::new(frame.payload);
            let claimed = r.u64()?;
            let actual = Fnv64::of(&bytes[..frame.start]);
            if actual != claimed {
                return Err(corrupt(format!(
                    "segment checksum mismatch: stored {claimed:#018x}, computed {actual:#018x}"
                )));
            }
            return Ok((frame.start + 5 + frame.payload.len(), claimed));
        }
    }
    Err(corrupt("segment has no End trailer"))
}

/// Decode a whole segment, verifying magic, version, framing, and the
/// trailer checksum before any epoch is surfaced. A truncation at *any*
/// byte offset yields `Corrupt`, never partial data.
pub fn decode_segment(bytes: &[u8], filter: DecodeFilter) -> Result<Vec<ArchivedEpoch>> {
    if bytes.len() < 8 || &bytes[..4] != MAGIC {
        return Err(corrupt("bad segment magic"));
    }
    let version = u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes"));
    if version != VERSION {
        return Err(corrupt(format!("unsupported segment version {version}")));
    }

    // First pass: collect frames and verify the checksum trailer.
    let mut frames: Vec<Frame<'_>> = Vec::new();
    let mut walker = FrameWalker::new(bytes, 8);
    let mut end: Option<(usize, u64)> = None;
    while let Some(frame) = walker.next_frame()? {
        if frame.kind == Kind::End {
            let mut r = ByteReader::new(frame.payload);
            end = Some((frame.start, r.u64()?));
        } else {
            frames.push(frame);
        }
    }
    let Some((end_start, claimed)) = end else {
        return Err(corrupt("segment has no End trailer"));
    };
    let actual = Fnv64::of(&bytes[..end_start]);
    if actual != claimed {
        return Err(corrupt(format!(
            "segment checksum mismatch: stored {claimed:#018x}, computed {actual:#018x}"
        )));
    }

    // Second pass: group frames into epochs. The counter and class frames
    // are deltas, folded below once every epoch's interner is known.
    let mut epochs: Vec<ArchivedEpoch> = Vec::new();
    let mut deltas: Vec<Deltas<'_>> = Vec::new();
    for frame in frames {
        if frame.kind == Kind::EpochMeta {
            epochs.push(ArchivedEpoch {
                meta: parse_meta(frame.payload)?,
                interner_base: 0,
                interner_delta: Vec::new(),
                has_counters: false,
                counters: None,
                classes: Vec::new(),
                has_flips: false,
                flips: None,
                stats: SegmentStats::default(),
                has_trace: false,
                trace: None,
            });
            deltas.push(Deltas::default());
            continue;
        }
        let (Some(epoch), Some(delta)) = (epochs.last_mut(), deltas.last_mut()) else {
            return Err(corrupt(format!(
                "{:?} frame before any epoch meta",
                frame.kind
            )));
        };
        match frame.kind {
            Kind::Interner => {
                let (base, delta) = parse_interner(frame.payload)?;
                epoch.interner_base = base;
                epoch.interner_delta = delta;
            }
            Kind::Counters => {
                epoch.has_counters = true;
                once(&mut delta.counters, frame)?;
            }
            Kind::Classes => once(&mut delta.classes, frame)?,
            Kind::Flips => {
                epoch.has_flips = true;
                if filter.flips {
                    epoch.flips = Some(parse_flips(frame.payload)?);
                }
            }
            Kind::Stats => epoch.stats = parse_stats(frame.payload)?,
            Kind::Trace => {
                epoch.has_trace = true;
                if filter.trace {
                    epoch.trace = Some(parse_trace(frame.payload, epoch.meta.epoch)?);
                }
            }
            Kind::EpochMeta | Kind::End => unreachable!("handled above"),
        }
    }

    // Third pass: fold each delta onto the previous epoch's column and
    // table, or onto an empty base where that epoch had no such frame.
    for (i, delta) in deltas.iter().enumerate() {
        let (done, rest) = epochs.split_at_mut(i);
        let (prev, epoch) = (done.last(), &mut rest[0]);
        if let (true, Some(payload)) = (filter.counters, delta.counters) {
            let base = prev.and_then(|p| p.counters.as_deref()).unwrap_or_default();
            epoch.counters = Some(fold_counters(payload, base, epoch.interner_len())?);
        }
        if let (true, Some(payload)) = (filter.classes, delta.classes) {
            let base = prev.map_or(&[][..], |p| &p.classes);
            epoch.classes = fold_classes(payload, base)?;
        }
    }
    Ok(epochs)
}

/// One epoch's delta frames, held until the whole segment is grouped.
#[derive(Default)]
struct Deltas<'a> {
    counters: Option<&'a [u8]>,
    classes: Option<&'a [u8]>,
}

/// Hold a frame's payload, refusing a second frame of its kind in the
/// same epoch.
fn once<'a>(slot: &mut Option<&'a [u8]>, frame: Frame<'a>) -> Result<()> {
    if slot.replace(frame.payload).is_some() {
        return Err(corrupt(format!("two {:?} frames in one epoch", frame.kind)));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs::trace::Stage;

    fn sample_epoch(epoch: u64, base: u32) -> (EpochMeta, Vec<Asn>, Vec<AsCounters>) {
        let meta = EpochMeta {
            epoch,
            sealed_at: 100 + epoch,
            events: 10,
            total_events: 10 * (epoch + 1),
            unique_tuples: 7,
            seal_nanos: 1234,
            count_nanos: 999,
            deepest_active_index: 3,
            thresholds: Thresholds::default(),
        };
        let delta = vec![Asn(10 + base), Asn(20 + base)];
        let counters = (0..base + 2)
            .map(|i| AsCounters {
                t: i as u64,
                s: 1,
                f: 0,
                c: 2,
            })
            .collect();
        (meta, delta, counters)
    }

    fn classes() -> Vec<(Asn, Class)> {
        vec![
            (Asn(10), "tf".parse().unwrap()),
            (Asn(20), "un".parse().unwrap()),
        ]
    }

    #[test]
    fn roundtrip_two_epochs() {
        let mut b = SegmentBuilder::new();
        let stats = SegmentStats {
            duplicates: 3,
            interned_asns: 2,
            arena_hops: 9,
            replayed_steps: 1,
            total_steps: 4,
            shard_loads: vec![4, 3],
        };
        for e in 0..2u64 {
            let (meta, delta, counters) = sample_epoch(e, (e * 2) as u32);
            let flips = vec![ClassFlip {
                asn: Asn(10),
                from: Class::NONE,
                to: "tf".parse().unwrap(),
            }];
            b.push_epoch(&EpochFrames {
                meta,
                interner_base: (e * 2) as u32,
                interner_delta: &delta,
                counters: Some(&counters),
                classes: &classes(),
                flips: Some(&flips),
                stats: &stats,
                trace: None,
            });
        }
        assert_eq!(b.epoch_range(), Some((0, 1)));
        let (bytes, _digest) = b.finish();
        let epochs = decode_segment(&bytes, DecodeFilter::all()).unwrap();
        assert_eq!(epochs.len(), 2);
        assert_eq!(epochs[0].meta.epoch, 0);
        assert_eq!(epochs[1].meta.epoch, 1);
        assert_eq!(epochs[1].interner_base, 2);
        assert_eq!(epochs[1].interner_len(), 4);
        assert_eq!(epochs[1].counters.as_ref().unwrap().len(), 4);
        assert_eq!(epochs[0].classes, classes());
        assert_eq!(epochs[0].flips.as_ref().unwrap().len(), 1);
        assert_eq!(epochs[0].stats, stats);
        assert_eq!(epochs[0].meta.thresholds, Thresholds::default());
    }

    #[test]
    fn trace_frame_roundtrips_and_filters() {
        let mut trace = EpochTrace::new(0);
        trace.set(Stage::INGEST, 0, 5_000, &[3, 10]);
        let seal = vec![0; Stage::SEAL.counters().len()];
        trace.set(Stage::SEAL, 5_000, 2_000, &seal);
        let segment = |trace| {
            let mut b = SegmentBuilder::new();
            let (meta, delta, counters) = sample_epoch(0, 0);
            b.push_epoch(&EpochFrames {
                meta,
                interner_base: 0,
                interner_delta: &delta,
                counters: Some(&counters),
                classes: &classes(),
                flips: None,
                stats: &SegmentStats::default(),
                trace,
            });
            b.finish().0
        };
        let bytes = segment(Some(trace));
        // The frame is its header and the fixed payload, whichever rows ran.
        assert_eq!(bytes.len() - segment(None).len(), 5 + TRACE_FRAME);
        let full = decode_segment(&bytes, DecodeFilter::all()).unwrap();
        assert!(full[0].has_trace);
        assert_eq!(full[0].trace, Some(trace));
        // trace_only keeps the timeline but drops the heavy frames.
        let slim = decode_segment(&bytes, DecodeFilter::trace_only()).unwrap();
        assert_eq!(slim[0].trace, Some(trace));
        assert!(slim[0].counters.is_none());
        assert!(slim[0].classes.is_empty());
        // classes_only records presence without materializing.
        let classes_only = decode_segment(&bytes, DecodeFilter::classes_only()).unwrap();
        assert!(classes_only[0].has_trace);
        assert!(classes_only[0].trace.is_none());
    }

    #[test]
    fn filter_skips_heavy_frames_but_records_presence() {
        let mut b = SegmentBuilder::new();
        let (meta, delta, counters) = sample_epoch(0, 0);
        b.push_epoch(&EpochFrames {
            meta,
            interner_base: 0,
            interner_delta: &delta,
            counters: Some(&counters),
            classes: &classes(),
            flips: None,
            stats: &SegmentStats::default(),
            trace: None,
        });
        let (bytes, _) = b.finish();
        let epochs = decode_segment(&bytes, DecodeFilter::classes_only()).unwrap();
        assert!(epochs[0].has_counters);
        assert!(epochs[0].counters.is_none());
        assert!(!epochs[0].has_flips);
        assert_eq!(epochs[0].classes.len(), 2);
    }

    #[test]
    fn every_truncation_is_detected() {
        let mut b = SegmentBuilder::new();
        let (meta, delta, counters) = sample_epoch(0, 0);
        b.push_epoch(&EpochFrames {
            meta,
            interner_base: 0,
            interner_delta: &delta,
            counters: Some(&counters),
            classes: &classes(),
            flips: Some(&[]),
            stats: &SegmentStats::default(),
            trace: None,
        });
        let (bytes, _) = b.finish();
        for cut in 0..bytes.len() {
            assert!(
                decode_segment(&bytes[..cut], DecodeFilter::all()).is_err(),
                "truncation at byte {cut} of {} must not decode",
                bytes.len()
            );
        }
        assert!(decode_segment(&bytes, DecodeFilter::all()).is_ok());
    }

    /// Payload sizes of the `kind` frames of a finished segment, in order.
    fn payload_sizes(bytes: &[u8], kind: Kind) -> Vec<usize> {
        let mut walker = FrameWalker::new(bytes, 8);
        let mut sizes = Vec::new();
        while let Some(frame) = walker.next_frame().unwrap() {
            if frame.kind == kind {
                sizes.push(frame.payload.len());
            }
        }
        sizes
    }

    /// A run of `epochs` over one `ids`-long column and `ids / 4`-row
    /// class table, each epoch after the first changing `k` counter rows
    /// and `k` class rows; the finished segment.
    fn moving_run(epochs: u64, ids: u32, k: u32) -> Vec<u8> {
        let mut column: Vec<AsCounters> = (0..ids)
            .map(|i| AsCounters {
                t: i as u64,
                s: 1,
                f: 0,
                c: 2,
            })
            .collect();
        let (tf, un): (Class, Class) = ("tf".parse().unwrap(), "un".parse().unwrap());
        let mut table: Vec<(Asn, Class)> = (0..ids / 4).map(|i| (Asn(10 * i), tf)).collect();
        let delta: Vec<Asn> = (0..ids).map(Asn).collect();
        let mut b = SegmentBuilder::new();
        for e in 0..epochs {
            for j in 0..k * (e > 0) as u32 {
                let id = (e as u32 * 131 + j * 977) % ids;
                column[id as usize].t += 1;
                let row = &mut table[(id % (ids / 4)) as usize].1;
                *row = if *row == tf { un } else { tf };
            }
            let (meta, _, _) = sample_epoch(e, 0);
            b.push_epoch(&EpochFrames {
                meta,
                interner_base: if e == 0 { 0 } else { ids },
                interner_delta: if e == 0 { &delta } else { &[] },
                counters: Some(&column),
                classes: &table,
                flips: None,
                stats: &SegmentStats::default(),
                trace: None,
            });
        }
        b.finish().0
    }

    #[test]
    fn bytes_follow_what_moved() {
        // A 16-epoch run costs its first epoch plus what each later one
        // moved: k rows of each frame and a small constant (the meta,
        // interner and stats frames, the two delta headers).
        const SMALL: usize = 192;
        let (ids, k) = (4_000, 7);
        let first = moving_run(1, ids, k).len();
        let run = moving_run(16, ids, k).len();
        let per_epoch = k as usize * (COUNTER_ROW + CLASS_ROW) + SMALL;
        assert!(
            run <= first + 15 * per_epoch,
            "16 epochs took {run} bytes, the first {first}"
        );
        // An epoch that moves nothing adds its two delta headers, whatever
        // the column and table hold.
        for ids in [8, 4_000] {
            let idle = moving_run(2, ids, 0);
            assert_eq!(payload_sizes(&idle, Kind::Counters)[1], 8, "{ids} ids");
            assert_eq!(payload_sizes(&idle, Kind::Classes)[1], 8, "{ids} ids");
        }
    }

    #[test]
    fn bitflips_in_payload_fail_the_checksum() {
        let mut b = SegmentBuilder::new();
        let (meta, delta, counters) = sample_epoch(0, 0);
        b.push_epoch(&EpochFrames {
            meta,
            interner_base: 0,
            interner_delta: &delta,
            counters: Some(&counters),
            classes: &classes(),
            flips: None,
            stats: &SegmentStats::default(),
            trace: None,
        });
        let (bytes, _) = b.finish();
        // Flip one byte inside the counters payload (past header+meta).
        let mut evil = bytes.clone();
        let idx = bytes.len() / 2;
        evil[idx] ^= 0xFF;
        assert!(decode_segment(&evil, DecodeFilter::all()).is_err());
    }
}
