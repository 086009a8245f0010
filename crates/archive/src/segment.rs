//! Segment encoding: one or more sealed epochs in a self-describing,
//! checksummed, length-prefix-framed byte container.
//!
//! ```text
//! segment := "BGPA" u32(version) frame* end-frame
//! frame   := u8(kind) u32(len) payload
//! ```
//!
//! An [`Kind::EpochMeta`](crate::frame::Kind) frame opens an epoch; the
//! frames after it (interner delta, counters, classes, flips, stats)
//! belong to that epoch until the next meta frame or the trailer. The
//! trailer ([`Kind::End`](crate::frame::Kind)) carries the FNV-1a-64
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

use crate::frame::{
    corrupt, put_frame, ByteReader, Fnv64, Frame, FrameWalker, Kind, PutBytes, Result,
};
use bgp_infer::classify::{Class, ForwardingClass, TaggingClass};
use bgp_infer::counters::{AsCounters, Thresholds};
use bgp_stream::epoch::ClassFlip;
use bgp_types::asn::Asn;
use obs::trace::{EpochTrace, TraceStage};

/// File magic: the first four bytes of every segment.
pub const MAGIC: &[u8; 4] = b"BGPA";
/// Format version this crate reads and writes.
pub const VERSION: u32 = 1;

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

/// Ingest-side statistics frozen when the epoch was archived — what the
/// serve layer's `IngestStats` needs to come back byte-identical after a
/// restart.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SegmentStats {
    /// Dedup hits observed.
    pub duplicates: u64,
    /// Distinct ASNs in the shards' interner.
    pub interned_asns: u64,
    /// Total path positions in the shard id arenas.
    pub arena_hops: u64,
    /// Replayed (shard, step) counting units of the sealing recount.
    pub replayed_steps: u64,
    /// Total (shard, step) counting units of the sealing recount.
    pub total_steps: u64,
    /// Stored-tuple count per shard.
    pub shard_loads: Vec<u64>,
}

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
    /// Provenance timeline; `None` omits the frame (daemon running
    /// without tracing, or a pre-trace archive being compacted).
    pub trace: Option<&'a EpochTrace>,
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

    /// Append one epoch's frames.
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

        if let Some(counters) = ep.counters {
            let mut p = Vec::with_capacity(4 + 32 * counters.len());
            p.put_u32(u32::try_from(counters.len()).expect("counter column fits u32"));
            for c in counters {
                p.put_u64(c.t);
                p.put_u64(c.s);
                p.put_u64(c.f);
                p.put_u64(c.c);
            }
            put_frame(&mut self.buf, Kind::Counters, &p);
        }

        let mut p = Vec::with_capacity(4 + 6 * ep.classes.len());
        p.put_u32(u32::try_from(ep.classes.len()).expect("class table fits u32"));
        for &(asn, class) in ep.classes {
            p.put_u32(asn.0);
            let [t, f] = class_codes(class);
            p.put_u8(t);
            p.put_u8(f);
        }
        put_frame(&mut self.buf, Kind::Classes, &p);

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
            let mut p = Vec::with_capacity(16 + 64 * trace.stages.len());
            p.put_u32(u32::try_from(trace.stages.len()).expect("stage count fits u32"));
            for stage in &trace.stages {
                put_str(&mut p, &stage.stage);
                p.put_u64(stage.start_offset_nanos);
                p.put_u64(stage.duration_nanos);
                p.put_u32(u32::try_from(stage.counters.len()).expect("counter count fits u32"));
                for (k, v) in &stage.counters {
                    put_str(&mut p, k);
                    p.put_u64(*v);
                }
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
    let n = r.u32()? as usize;
    let mut delta = Vec::with_capacity(n);
    for _ in 0..n {
        delta.push(Asn(r.u32()?));
    }
    Ok((base, delta))
}

fn parse_counters(payload: &[u8]) -> Result<Vec<AsCounters>> {
    let mut r = ByteReader::new(payload);
    let n = r.u32()? as usize;
    let mut counters = Vec::with_capacity(n);
    for _ in 0..n {
        counters.push(AsCounters {
            t: r.u64()?,
            s: r.u64()?,
            f: r.u64()?,
            c: r.u64()?,
        });
    }
    Ok(counters)
}

fn parse_classes(payload: &[u8]) -> Result<Vec<(Asn, Class)>> {
    let mut r = ByteReader::new(payload);
    let n = r.u32()? as usize;
    let mut classes = Vec::with_capacity(n);
    for _ in 0..n {
        let asn = Asn(r.u32()?);
        let t = r.u8()?;
        let f = r.u8()?;
        classes.push((asn, class_from_codes(t, f)?));
    }
    Ok(classes)
}

fn parse_flips(payload: &[u8]) -> Result<Vec<ClassFlip>> {
    let mut r = ByteReader::new(payload);
    let n = r.u32()? as usize;
    let mut flips = Vec::with_capacity(n);
    for _ in 0..n {
        let asn = Asn(r.u32()?);
        let from = class_from_codes(r.u8()?, r.u8()?)?;
        let to = class_from_codes(r.u8()?, r.u8()?)?;
        flips.push(ClassFlip { asn, from, to });
    }
    Ok(flips)
}

/// Append a length-prefixed UTF-8 string.
fn put_str(out: &mut Vec<u8>, s: &str) {
    out.put_u32(u32::try_from(s.len()).expect("string fits u32"));
    out.extend_from_slice(s.as_bytes());
}

fn read_str(r: &mut ByteReader<'_>) -> Result<String> {
    let n = r.u32()? as usize;
    let bytes = r.take(n)?;
    String::from_utf8(bytes.to_vec()).map_err(|_| corrupt("non-UTF-8 string in trace frame"))
}

/// Parse a trace frame's stages; the epoch id comes from the meta frame.
fn parse_trace(payload: &[u8], epoch: u64) -> Result<EpochTrace> {
    let mut r = ByteReader::new(payload);
    let n = r.u32()? as usize;
    let mut stages = Vec::with_capacity(n);
    for _ in 0..n {
        let stage = read_str(&mut r)?;
        let start_offset_nanos = r.u64()?;
        let duration_nanos = r.u64()?;
        let counter_count = r.u32()? as usize;
        let mut counters = Vec::with_capacity(counter_count);
        for _ in 0..counter_count {
            let k = read_str(&mut r)?;
            counters.push((k, r.u64()?));
        }
        stages.push(TraceStage {
            stage,
            start_offset_nanos,
            duration_nanos,
            counters,
        });
    }
    if !r.is_empty() {
        return Err(corrupt("trailing bytes in trace frame"));
    }
    Ok(EpochTrace { epoch, stages })
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
    let n = r.u32()? as usize;
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

    // Second pass: group frames into epochs.
    let mut epochs: Vec<ArchivedEpoch> = Vec::new();
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
            continue;
        }
        let Some(epoch) = epochs.last_mut() else {
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
                if filter.counters {
                    epoch.counters = Some(parse_counters(frame.payload)?);
                }
            }
            Kind::Classes => {
                if filter.classes {
                    epoch.classes = parse_classes(frame.payload)?;
                }
            }
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
    Ok(epochs)
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let trace = EpochTrace {
            epoch: 0,
            stages: vec![
                TraceStage {
                    stage: "ingest".to_string(),
                    start_offset_nanos: 0,
                    duration_nanos: 5_000,
                    counters: vec![("batches".to_string(), 3), ("events".to_string(), 10)],
                },
                TraceStage {
                    stage: "seal".to_string(),
                    start_offset_nanos: 5_000,
                    duration_nanos: 2_000,
                    counters: vec![],
                },
            ],
        };
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
            trace: Some(&trace),
        });
        let (bytes, _) = b.finish();
        let full = decode_segment(&bytes, DecodeFilter::all()).unwrap();
        assert!(full[0].has_trace);
        assert_eq!(full[0].trace.as_ref().unwrap(), &trace);
        // trace_only keeps the timeline but drops the heavy frames.
        let slim = decode_segment(&bytes, DecodeFilter::trace_only()).unwrap();
        assert_eq!(slim[0].trace.as_ref().unwrap(), &trace);
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
