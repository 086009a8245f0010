//! Streaming MRT archive writer and the two readers.
//!
//! [`MrtWriter`] serializes records into an in-memory archive (or any
//! `Vec<u8>`-backed file image). [`MrtReader`] iterates records back out,
//! tracking the active PEER_INDEX_TABLE so RIB entries resolve their peers
//! — exactly how consumers of RIPE/RouteViews dumps (e.g. bgpkit-parser)
//! behave.
//!
//! The reader is an `Iterator<Item = Result<MrtRecord>>`, so callers can
//! choose to abort or skip on malformed frames. Resynchronisation after a
//! corrupt frame is impossible in MRT (lengths chain), matching real-world
//! tooling.
//!
//! # Two readers
//!
//! [`MrtReader`] is the full decoder: every record becomes an owned
//! [`MrtRecord`]. Use it when the record itself is wanted — encoder
//! round-trips, registry filters that look at prefixes, collector
//! statistics — and as the reference for the reader below.
//!
//! [`TupleStream`] is what inference runs on. The paper's pipeline (§4.1)
//! reduces an entry to one sanitized `(path, comm)` pair, so for the three
//! record kinds a collector day consists of — `BGP4MP_MESSAGE_AS4`,
//! `RIB_IPV4_UNICAST`, `RIB_IPV6_UNICAST` — it advances a cursor over the
//! record instead of building it: the peer ASN comes from the BGP4MP
//! prelude or the held peer table; withdrawn routes, NLRI and every
//! attribute other than AS_PATH, COMMUNITIES and LARGE_COMMUNITIES are
//! checked and skipped by length (MP_REACH_NLRI only far enough to know
//! whether it announces a prefix); `AS_SEQUENCE` hops and communities go
//! into two reused scratch buffers, where the communities are sorted and
//! deduplicated in place, and from there — the hops through
//! [`AsPath::sanitized_hops`] — into one encoded tuple record
//! ([`bgp_types::tuple`]) in a third reused buffer.
//!
//! **It lends.** [`TupleStream::next_ref`] hands out that record as a
//! [`TupleRef`] borrowed until the next call, so a drain into a dedup
//! table allocates nothing per entry: most entries are tuples already
//! seen, and recognising one needs its words, not its ownership. The
//! `Iterator` impl is `next_ref` plus [`TupleRef::to_owned`] — two
//! exact-size allocations per kept tuple — for callers that keep what
//! they are given ([`extract_tuples`]). One walk, one fallback, one place
//! errors come from, either way. A withdrawal or a shape-dropped path
//! writes nothing.
//!
//! The walk has no error path of its own. PEER_INDEX_TABLE, the legacy
//! subtypes, unsupported types and **any record the walk cannot prove
//! well-formed** — a length that does not fit, a bad marker, a BGP message
//! that is not an UPDATE, an over-long prefix, a malformed ORIGIN /
//! NEXT_HOP / community length / segment type, an attribute value not
//! consumed exactly, a second AS_PATH (the decoder lets it overwrite the
//! first), a RIB record before any peer table, a peer index out of range —
//! rewind to the record's first byte and go through [`MrtReader`], whose
//! owned tuples are encoded into the same record buffer. Every
//! [`MrtError`](crate::MrtError) therefore comes from the one decoder that
//! constructs them, and a record stays all-or-nothing: the counters move,
//! and a RIB group's tuples are released, only when the whole record has
//! been walked. Both readers frame records with the same helpers
//! (`read_frame`, `read_bgp4mp_as4_prelude`, `read_rib_entry_header`,
//! `read_attr_header`, `read_mp_reach_header`, `read_nlri_prefix`), so the
//! only thing the walk adds is *which attributes are materialised*.
//! `tests/walk_differential.rs` holds the lending reader to the decoder's
//! items, counters and terminal error on generated, damaged and hand-built
//! archives; `tests/alloc_budget.rs` counts the allocations of both ways
//! to drain it.

use crate::attributes::{
    read_attr_header, read_mp_reach_header, read_nlri_prefix, ATTR_AS_PATH, ATTR_COMMUNITIES,
    ATTR_LARGE_COMMUNITIES, ATTR_MP_REACH_NLRI, ATTR_NEXT_HOP, ATTR_ORIGIN, SEG_AS_SEQUENCE,
    SEG_AS_SET,
};
use crate::error::Result;
use crate::record::{
    decode_record, encode_peer_index, encode_rib_group, encode_update, read_bgp4mp_as4_prelude,
    read_frame, read_rib_entry_header, MrtRecord, PeerIndexTable, RibGroup,
    SUBTYPE_BGP4MP_MESSAGE_AS4, SUBTYPE_RIB_IPV4_UNICAST, SUBTYPE_RIB_IPV6_UNICAST, TYPE_BGP4MP,
    TYPE_TABLE_DUMP_V2,
};
use crate::wire::Cursor;
use bgp_types::prelude::*;

/// Serializes MRT records into a contiguous archive buffer.
#[derive(Debug, Default)]
pub struct MrtWriter {
    buf: Vec<u8>,
    records: usize,
}

impl MrtWriter {
    /// New empty archive.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a BGP4MP_MESSAGE_AS4 update record.
    pub fn write_update(&mut self, msg: &UpdateMessage) -> Result<()> {
        let bytes = encode_update(msg)?;
        self.buf.extend_from_slice(&bytes);
        self.records += 1;
        Ok(())
    }

    /// Append a PEER_INDEX_TABLE record (must precede RIB records).
    pub fn write_peer_index(&mut self, table: &PeerIndexTable, timestamp: u32) -> Result<()> {
        let bytes = encode_peer_index(table, timestamp)?;
        self.buf.extend_from_slice(&bytes);
        self.records += 1;
        Ok(())
    }

    /// Append a RIB record for one prefix.
    pub fn write_rib_group(&mut self, group: &RibGroup, timestamp: u32) -> Result<()> {
        let bytes = encode_rib_group(group, timestamp)?;
        self.buf.extend_from_slice(&bytes);
        self.records += 1;
        Ok(())
    }

    /// Number of records written.
    pub fn record_count(&self) -> usize {
        self.records
    }

    /// Size of the archive in bytes.
    pub fn byte_len(&self) -> usize {
        self.buf.len()
    }

    /// Finish and take the archive bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Borrow the bytes written so far.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }
}

/// Iterates records out of an MRT archive.
pub struct MrtReader<'a> {
    cursor: Cursor<'a>,
    peer_table: Option<PeerIndexTable>,
    failed: bool,
}

impl<'a> MrtReader<'a> {
    /// Wrap archive bytes.
    pub fn new(bytes: &'a [u8]) -> Self {
        MrtReader {
            cursor: Cursor::new(bytes),
            peer_table: None,
            failed: false,
        }
    }

    /// The PEER_INDEX_TABLE seen so far, if any.
    pub fn peer_table(&self) -> Option<&PeerIndexTable> {
        self.peer_table.as_ref()
    }

    /// Decode every record, failing on the first error.
    pub fn read_all(self) -> Result<Vec<MrtRecord>> {
        let mut out = Vec::new();
        for r in self {
            out.push(r?);
        }
        Ok(out)
    }
}

impl Iterator for MrtReader<'_> {
    type Item = Result<MrtRecord>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.failed || self.cursor.is_exhausted() {
            return None;
        }
        match decode_record(&mut self.cursor, self.peer_table.as_ref()) {
            Ok(MrtRecord::PeerIndex(t)) => {
                self.peer_table = Some(t.clone());
                Some(Ok(MrtRecord::PeerIndex(t)))
            }
            Ok(r) => Some(Ok(r)),
            Err(e) => {
                // Lengths chain; once a frame is bad the stream is dead.
                self.failed = true;
                Some(Err(e))
            }
        }
    }
}

/// What the in-place walk keeps of one attribute section: the
/// `AS_SEQUENCE` hops and the communities, in buffers reused from entry
/// to entry.
#[derive(Default)]
struct Scratch {
    hops: Vec<Asn>,
    comms: Vec<AnyCommunity>,
}

impl Scratch {
    /// Walk one attribute section, keeping hops and communities and
    /// checking and skipping everything else. `Some(announces)` says
    /// whether an MP_REACH_NLRI carried a prefix; `None` means the section
    /// is not provably what [`decode_attributes`] would accept and turn
    /// into the same two fields, so the record is the full decoder's.
    ///
    /// [`decode_attributes`]: crate::attributes::decode_attributes
    fn walk_attributes(&mut self, c: &mut Cursor<'_>) -> Option<bool> {
        self.hops.clear();
        self.comms.clear();
        let (mut path_seen, mut announces) = (false, false);
        while !c.is_exhausted() {
            let (_flags, type_code, mut val) = read_attr_header(c).ok()?;
            let len = val.remaining();
            match type_code {
                ATTR_ORIGIN => {
                    Origin::from_code(val.get_u8("origin code").ok()?)?;
                }
                ATTR_NEXT_HOP => {
                    val.get_bytes(4, "next hop").ok()?;
                }
                ATTR_AS_PATH => {
                    // The decoder lets a second AS_PATH overwrite the first.
                    if std::mem::replace(&mut path_seen, true) {
                        return None;
                    }
                    while !val.is_exhausted() {
                        let seg_type = val.get_u8("segment type").ok()?;
                        let count = val.get_u8("segment length").ok()? as usize;
                        let asns = val.get_bytes(count * 4, "segment asns").ok()?;
                        match seg_type {
                            SEG_AS_SEQUENCE => self
                                .hops
                                .extend(asns.chunks_exact(4).map(|b| Asn(be_u32(b)))),
                            SEG_AS_SET => {}
                            _ => return None,
                        }
                    }
                }
                ATTR_COMMUNITIES => {
                    // A second attribute adds to the first, as in the decoder.
                    if len % 4 != 0 {
                        return None;
                    }
                    let raw = val.get_bytes(len, "communities").ok()?;
                    self.comms.extend(
                        raw.chunks_exact(4)
                            .map(|b| AnyCommunity::Regular(Community(be_u32(b)))),
                    );
                }
                ATTR_LARGE_COMMUNITIES => {
                    if len % 12 != 0 {
                        return None;
                    }
                    let raw = val.get_bytes(len, "large communities").ok()?;
                    self.comms.extend(
                        raw.chunks_exact(12).map(|b| {
                            AnyCommunity::large(be_u32(b), be_u32(&b[4..]), be_u32(&b[8..]))
                        }),
                    );
                }
                ATTR_MP_REACH_NLRI => {
                    let v6 = read_mp_reach_header(&mut val).ok()?;
                    announces |= skip_nlri(&mut val, v6)?;
                }
                _ => continue, // its length fitted; nothing else is checked
            }
            if !val.is_exhausted() {
                return None;
            }
        }
        Some(announces)
    }

    /// Append the tuple of the section just walked, as seen from `peer`
    /// and stamped `timestamp`, to `queue`: the shared sanitation rule
    /// over the kept hops, and the kept communities sorted and
    /// deduplicated where they lie. `false` — nothing written — for a
    /// shape-dropped path.
    fn encode(&mut self, timestamp: u64, peer: Asn, queue: &mut Vec<u32>) -> bool {
        let Some(hops) = AsPath::sanitized_hops(self.hops.iter().copied(), Some(peer)) else {
            return false;
        };
        self.comms.sort_unstable();
        self.comms.dedup();
        push_queued(queue, timestamp, hops, &self.comms);
        true
    }
}

/// Append one `[ts_lo, ts_hi, record..]` entry to a [`TupleStream`] queue.
fn push_queued(
    queue: &mut Vec<u32>,
    timestamp: u64,
    hops: impl Iterator<Item = Asn>,
    comms: &[AnyCommunity],
) {
    queue.extend_from_slice(&[timestamp as u32, (timestamp >> 32) as u32]);
    encode_record(queue, hops, comms);
}

/// The big-endian `u32` that `b` starts with.
fn be_u32(b: &[u8]) -> u32 {
    u32::from_be_bytes([b[0], b[1], b[2], b[3]])
}

/// Check and skip packed NLRI prefixes to the end of `c`; whether there
/// was at least one.
fn skip_nlri(c: &mut Cursor<'_>, v6: bool) -> Option<bool> {
    let any = !c.is_exhausted();
    while !c.is_exhausted() {
        read_nlri_prefix(c, v6).ok()?;
    }
    Some(any)
}

/// Lazy, record-at-a-time tuple extraction: the streaming counterpart of
/// [`extract_tuples`]. Yields `(timestamp, tuple)` pairs as records
/// decode — update messages carry their capture time, RIB entries their
/// `originated` time — applying the path-shape sanitation (AS_SET
/// removal, peer prepending, prepend collapse) per entry. Memory stays
/// bounded by one record regardless of archive size.
///
/// Extraction reads two fields of an entry, so the three record kinds a
/// collector day consists of (see the [module docs](self)) are walked in
/// place; every other record, and every record the walk cannot prove
/// well-formed, goes through [`MrtReader`] from its first byte. The items,
/// the counters and the terminal error are the full decoder's either way.
///
/// [`next_ref`](Self::next_ref) lends each tuple as an encoded record;
/// the `Iterator` impl owns what it yields.
pub struct TupleStream<'a> {
    reader: MrtReader<'a>,
    scratch: Scratch,
    /// The tuples of the record last walked or decoded and not yet
    /// handed out, as `[ts_lo, ts_hi, record..]` entries: one for an
    /// update, one per kept entry of a RIB group.
    queue: Vec<u32>,
    /// Where in `queue` the next entry to hand out starts.
    queue_at: usize,
    raw_entries: u64,
    kept: u64,
    shape_dropped: u64,
    failed: bool,
}

impl<'a> TupleStream<'a> {
    /// Stream tuples out of archive bytes.
    pub fn new(bytes: &'a [u8]) -> Self {
        TupleStream {
            reader: MrtReader::new(bytes),
            scratch: Scratch::default(),
            queue: Vec::new(),
            queue_at: 0,
            raw_entries: 0,
            kept: 0,
            shape_dropped: 0,
            failed: false,
        }
    }

    /// Raw entries seen so far (Table 1's "Entries total" accounting —
    /// final once the iterator is exhausted).
    pub fn raw_entries(&self) -> u64 {
        self.raw_entries
    }

    /// Tuples yielded so far.
    pub fn kept(&self) -> u64 {
        self.kept
    }

    /// Announcements dropped so far because the path was unusable after
    /// shape cleaning (pure AS_SET, AS0, empty).
    pub fn shape_dropped(&self) -> u64 {
        self.shape_dropped
    }

    /// The next `(timestamp, tuple)`, the tuple lent as an encoded record
    /// that the following call overwrites — not an `Iterator`, whose items
    /// must outlive the next one. `None` once the archive is exhausted or
    /// after the one `Err` a malformed record ends the stream with.
    pub fn next_ref(&mut self) -> Option<Result<(u64, TupleRef<'_>)>> {
        while self.queue_at == self.queue.len() {
            if self.failed {
                return None;
            }
            self.queue.clear();
            self.queue_at = 0;
            if self.walk_record().is_none() {
                if let Err(e) = self.decode_record()? {
                    self.failed = true;
                    return Some(Err(e));
                }
            }
        }
        let entry = &self.queue[self.queue_at..];
        let timestamp = entry[0] as u64 | (entry[1] as u64) << 32;
        let (tuple, _) = TupleRef::read(&entry[2..]);
        self.queue_at += 2 + tuple.words().len();
        Some(Ok((timestamp, tuple)))
    }

    /// Walk the record under the reader's cursor in place. `None` leaves
    /// the cursor and the counters as they were and the queue empty: the
    /// record is the full decoder's. `Some` has consumed it and queued
    /// its tuples.
    fn walk_record(&mut self) -> Option<()> {
        let mut c = self.reader.cursor.clone();
        let (header, mut body) = read_frame(&mut c).ok()?;
        match (header.mrt_type, header.subtype) {
            (TYPE_BGP4MP, SUBTYPE_BGP4MP_MESSAGE_AS4) => {
                self.walk_update(header.timestamp, &mut body)?
            }
            (TYPE_TABLE_DUMP_V2, SUBTYPE_RIB_IPV4_UNICAST | SUBTYPE_RIB_IPV6_UNICAST) => {
                let v6 = header.subtype == SUBTYPE_RIB_IPV6_UNICAST;
                if self.walk_rib_group(&mut body, v6).is_none() {
                    self.queue.clear(); // entries ahead of the bad one
                    return None;
                }
            }
            _ => return None,
        }
        self.reader.cursor = c;
        Some(())
    }

    /// One BGP4MP_MESSAGE_AS4 body: count the entry and, if it announces
    /// anything, queue its tuple.
    fn walk_update(&mut self, timestamp: u32, body: &mut Cursor<'_>) -> Option<()> {
        let prelude = read_bgp4mp_as4_prelude(body).ok()?;
        let mut msg = prelude.update;
        let withdrawn_len = msg.get_u16("withdrawn routes length").ok()? as usize;
        skip_nlri(&mut msg.sub(withdrawn_len, "withdrawn routes").ok()?, false)?;
        let attrs_len = msg.get_u16("attributes length").ok()? as usize;
        let mp_reach = self
            .scratch
            .walk_attributes(&mut msg.sub(attrs_len, "attributes").ok()?)?;
        let nlri = skip_nlri(&mut msg, false)?;

        self.raw_entries += 1;
        if !(nlri || mp_reach) {
            return Some(()); // withdrawals carry no usable (path, comm)
        }
        if self
            .scratch
            .encode(timestamp as u64, prelude.peer_asn, &mut self.queue)
        {
            self.kept += 1;
        } else {
            self.shape_dropped += 1;
        }
        Some(())
    }

    /// One RIB_IPVx_UNICAST body: queue every entry's tuple, and count the
    /// entries once the whole group has been walked.
    fn walk_rib_group(&mut self, body: &mut Cursor<'_>, v6: bool) -> Option<()> {
        // Without a table the decoder resolves every peer to AS0.
        let table = self.reader.peer_table.as_ref()?;
        body.get_u32("rib sequence").ok()?;
        read_nlri_prefix(body, v6).ok()?;
        let count = body.get_u16("rib entry count").ok()?;
        let mut kept = 0;
        for _ in 0..count {
            let (peer_idx, originated, mut attrs) = read_rib_entry_header(body).ok()?;
            self.scratch.walk_attributes(&mut attrs)?;
            let peer = table.peers.get(peer_idx)?.asn;
            kept += self
                .scratch
                .encode(originated as u64, peer, &mut self.queue) as u64;
        }
        self.raw_entries += count as u64;
        self.kept += kept;
        self.shape_dropped += count as u64 - kept;
        Some(())
    }

    /// The record under the reader's cursor through the full decoder:
    /// what the walk hands back. `None` at the end of the archive.
    fn decode_record(&mut self) -> Option<Result<()>> {
        match self.reader.next()? {
            Err(e) => return Some(Err(e)),
            Ok(MrtRecord::PeerIndex(_)) => {}
            Ok(MrtRecord::Update(u)) => {
                self.raw_entries += 1;
                // Withdrawals carry no usable (path, comm).
                if !u.announced.is_empty() {
                    self.offer(u.timestamp, u.peer_asn, u.attributes);
                }
            }
            Ok(MrtRecord::RibEntries(entries)) => {
                for e in entries {
                    self.raw_entries += 1;
                    self.offer(e.originated, e.peer_asn, e.attributes);
                }
            }
        }
        Some(Ok(()))
    }

    /// Sanitize one fully decoded announcement and queue its tuple.
    fn offer(&mut self, timestamp: u64, peer: Asn, attrs: PathAttributes) {
        match attrs.as_path.sanitize(Some(peer)) {
            Some(path) => {
                self.kept += 1;
                let hops = path.asns().iter().copied();
                push_queued(
                    &mut self.queue,
                    timestamp,
                    hops,
                    attrs.communities.as_slice(),
                );
            }
            None => self.shape_dropped += 1,
        }
    }
}

impl Iterator for TupleStream<'_> {
    type Item = Result<(u64, PathCommTuple)>;

    fn next(&mut self) -> Option<Self::Item> {
        let item = self.next_ref()?;
        Some(item.map(|(timestamp, tuple)| (timestamp, tuple.to_owned())))
    }
}

/// Convenience: extract every `(path, comm)` observation from an archive,
/// sanitizing paths per the paper's §4.1 pipeline (AS_SET removal, peer
/// prepending, prepend collapse) and dropping unusable entries.
///
/// Returns the tuples plus the number of raw entries seen (for Table 1's
/// "Entries total" accounting). Withdrawals carry no path and are skipped.
/// This is [`TupleStream`]'s owning iterator drained into a vector.
pub fn extract_tuples(bytes: &[u8]) -> Result<(Vec<PathCommTuple>, u64)> {
    let mut stream = TupleStream::new(bytes);
    // A RIB entry with a path and a community is some 40 wire bytes and an
    // update more, so this is rarely outgrown, and then once.
    let mut tuples = Vec::with_capacity(bytes.len() / 40);
    for item in &mut stream {
        tuples.push(item?.1);
    }
    Ok((tuples, stream.raw_entries()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::PeerEntry;

    fn update(peer: u32, path: &[u32], comms: &[(u16, u16)], ts: u64) -> UpdateMessage {
        UpdateMessage::announcement(
            Asn(peer),
            ts,
            Prefix::v4([203, 0, 114, 0], 24),
            RawAsPath::from_sequence(path.iter().map(|&v| Asn(v)).collect()),
            CommunitySet::from_iter(comms.iter().map(|&(a, b)| AnyCommunity::regular(a, b))),
        )
    }

    #[test]
    fn write_read_mixed_archive() {
        let mut w = MrtWriter::new();
        let table = PeerIndexTable {
            collector_id: 1,
            view_name: "test".into(),
            peers: vec![PeerEntry {
                bgp_id: 1,
                ip: vec![192, 0, 2, 1],
                asn: Asn(64500),
            }],
        };
        w.write_peer_index(&table, 0).unwrap();
        let g = RibGroup {
            sequence: 0,
            prefix: Prefix::v4([193, 0, 0, 0], 16),
            entries: vec![(
                0,
                0,
                PathAttributes {
                    as_path: RawAsPath::from_sequence(vec![Asn(64500), Asn(3356)]),
                    ..Default::default()
                },
            )],
        };
        w.write_rib_group(&g, 0).unwrap();
        w.write_update(&update(64500, &[64500, 3356, 15169], &[(3356, 1)], 100))
            .unwrap();
        assert_eq!(w.record_count(), 3);

        let bytes = w.into_bytes();
        let records = MrtReader::new(&bytes).read_all().unwrap();
        assert_eq!(records.len(), 3);
        assert!(matches!(records[0], MrtRecord::PeerIndex(_)));
        assert!(matches!(records[1], MrtRecord::RibEntries(_)));
        assert!(matches!(records[2], MrtRecord::Update(_)));
    }

    #[test]
    fn rib_entries_resolve_peers_via_stream_state() {
        let mut w = MrtWriter::new();
        let table = PeerIndexTable {
            collector_id: 1,
            view_name: String::new(),
            peers: vec![PeerEntry {
                bgp_id: 1,
                ip: vec![10, 0, 0, 1],
                asn: Asn(7018),
            }],
        };
        w.write_peer_index(&table, 0).unwrap();
        let g = RibGroup {
            sequence: 1,
            prefix: Prefix::v4([8, 8, 0, 0], 16),
            entries: vec![(
                0,
                5,
                PathAttributes {
                    as_path: RawAsPath::from_sequence(vec![Asn(7018), Asn(15169)]),
                    ..Default::default()
                },
            )],
        };
        w.write_rib_group(&g, 0).unwrap();
        let bytes = w.into_bytes();
        let recs = MrtReader::new(&bytes).read_all().unwrap();
        match &recs[1] {
            MrtRecord::RibEntries(es) => assert_eq!(es[0].peer_asn, Asn(7018)),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn extract_tuples_sanitizes() {
        let mut w = MrtWriter::new();
        // Path with prepending; peer equals first hop.
        w.write_update(&update(64500, &[64500, 64500, 3356], &[(3356, 9)], 0))
            .unwrap();
        let (tuples, raw) = extract_tuples(w.as_bytes()).unwrap();
        assert_eq!(raw, 1);
        assert_eq!(tuples.len(), 1);
        assert_eq!(tuples[0].path.asns(), &[Asn(64500), Asn(3356)]);
        assert!(tuples[0].comm.contains_upper(Asn(3356)));
    }

    #[test]
    fn extract_tuples_prepends_missing_peer() {
        // Route-server style: peer ASN not on path.
        let mut w = MrtWriter::new();
        w.write_update(&update(6695, &[64500, 3356], &[], 0))
            .unwrap();
        let (tuples, _) = extract_tuples(w.as_bytes()).unwrap();
        assert_eq!(tuples[0].path.peer(), Asn(6695));
        assert_eq!(tuples[0].path.len(), 3);
    }

    #[test]
    fn tuple_stream_matches_extract_and_carries_timestamps() {
        let mut w = MrtWriter::new();
        w.write_update(&update(64500, &[64500, 3356], &[(3356, 1)], 100))
            .unwrap();
        w.write_update(&update(64501, &[64501, 174], &[], 200))
            .unwrap();
        let bytes = w.into_bytes();

        let mut stream = TupleStream::new(&bytes);
        let streamed: Vec<(u64, PathCommTuple)> = (&mut stream).map(|r| r.unwrap()).collect();
        let (batch, raw) = extract_tuples(&bytes).unwrap();
        assert_eq!(stream.raw_entries(), raw);
        assert_eq!(streamed.len(), batch.len());
        assert_eq!(streamed[0].0, 100);
        assert_eq!(streamed[1].0, 200);
        for ((_, s), b) in streamed.iter().zip(&batch) {
            assert_eq!(s, b);
        }
    }

    #[test]
    fn tuple_stream_stops_at_first_error() {
        let mut w = MrtWriter::new();
        w.write_update(&update(1, &[1, 2], &[], 0)).unwrap();
        let mut bytes = w.into_bytes();
        bytes.truncate(bytes.len() - 3);
        let results: Vec<_> = TupleStream::new(&bytes).collect();
        assert_eq!(results.len(), 1);
        assert!(results[0].is_err());
    }

    #[test]
    fn corrupt_archive_reports_error_then_stops() {
        let mut w = MrtWriter::new();
        w.write_update(&update(1, &[1, 2], &[], 0)).unwrap();
        let mut bytes = w.into_bytes();
        bytes.truncate(bytes.len() - 3);
        let results: Vec<_> = MrtReader::new(&bytes).collect();
        assert_eq!(results.len(), 1);
        assert!(results[0].is_err());
    }

    #[test]
    fn empty_archive_yields_nothing() {
        assert!(MrtReader::new(&[]).read_all().unwrap().is_empty());
        let (tuples, raw) = extract_tuples(&[]).unwrap();
        assert!(tuples.is_empty());
        assert_eq!(raw, 0);
    }

    #[test]
    fn withdrawal_only_updates_counted_but_not_tupled() {
        let mut w = MrtWriter::new();
        let mut u = update(1, &[1, 2], &[], 0);
        u.withdrawn = u.announced.drain(..).collect();
        w.write_update(&u).unwrap();
        let (tuples, raw) = extract_tuples(w.as_bytes()).unwrap();
        assert_eq!(raw, 1);
        assert!(tuples.is_empty());
    }
}
