//! Streaming MRT archive reader/writer.
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

use crate::error::Result;
use crate::record::{
    decode_record, encode_peer_index, encode_rib_group, encode_update, MrtRecord, PeerIndexTable,
    RibGroup,
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

/// Lazy, record-at-a-time tuple extraction: the streaming counterpart of
/// [`extract_tuples`]. Yields `(timestamp, tuple)` pairs as records
/// decode — update messages carry their capture time, RIB entries their
/// `originated` time — applying the path-shape sanitation (AS_SET
/// removal, peer prepending, prepend collapse) per entry. Memory stays
/// bounded by one record regardless of archive size.
pub struct TupleStream<'a> {
    reader: MrtReader<'a>,
    pending: std::collections::VecDeque<(u64, PathCommTuple)>,
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
            pending: std::collections::VecDeque::new(),
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

    /// Sanitize one decoded announcement and queue its tuple. The record
    /// is owned, so the path buffer and the community set move into the
    /// tuple instead of being copied.
    fn offer(&mut self, timestamp: u64, peer: Asn, attrs: PathAttributes) {
        match attrs.as_path.into_sanitized(Some(peer)) {
            Some(path) => {
                self.kept += 1;
                self.pending
                    .push_back((timestamp, PathCommTuple::new(path, attrs.communities)));
            }
            None => self.shape_dropped += 1,
        }
    }
}

impl Iterator for TupleStream<'_> {
    type Item = Result<(u64, PathCommTuple)>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if let Some(item) = self.pending.pop_front() {
                return Some(Ok(item));
            }
            if self.failed {
                return None;
            }
            match self.reader.next()? {
                Err(e) => {
                    self.failed = true;
                    return Some(Err(e));
                }
                Ok(MrtRecord::PeerIndex(_)) => {}
                Ok(MrtRecord::Update(u)) => {
                    self.raw_entries += 1;
                    if u.announced.is_empty() {
                        continue; // withdrawals carry no usable (path, comm)
                    }
                    self.offer(u.timestamp, u.peer_asn, u.attributes);
                }
                Ok(MrtRecord::RibEntries(entries)) => {
                    for e in entries {
                        self.raw_entries += 1;
                        self.offer(e.originated, e.peer_asn, e.attributes);
                    }
                }
            }
        }
    }
}

/// Convenience: extract every `(path, comm)` observation from an archive,
/// sanitizing paths per the paper's §4.1 pipeline (AS_SET removal, peer
/// prepending, prepend collapse) and dropping unusable entries.
///
/// Returns the tuples plus the number of raw entries seen (for Table 1's
/// "Entries total" accounting). Withdrawals carry no path and are skipped.
/// This is [`TupleStream`] drained into a vector.
pub fn extract_tuples(bytes: &[u8]) -> Result<(Vec<PathCommTuple>, u64)> {
    let mut stream = TupleStream::new(bytes);
    let mut tuples = Vec::new();
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
    fn tuple_stream_counts_and_tuples_match_borrowing_sanitation() {
        // RIB entries, announcements and a withdrawal; lone sequences
        // (the buffer-reusing path), multi-segment and AS_SET paths (the
        // fallback), a missing peer, prepending, an empty path, and an
        // AS0 path that sanitation drops.
        let seq = |hops: &[u32]| PathSegment::Sequence(hops.iter().map(|&v| Asn(v)).collect());
        let set = |hops: &[u32]| PathSegment::Set(hops.iter().map(|&v| Asn(v)).collect());
        let raw = |segments: Vec<PathSegment>| RawAsPath { segments };
        let paths = [
            raw(vec![seq(&[64500, 64500, 3356])]),
            raw(vec![seq(&[3356, 174])]), // peer 64500 absent
            raw(vec![seq(&[64500, 3356]), set(&[7, 8]), seq(&[9])]),
            raw(vec![seq(&[64500]), seq(&[64500, 2914])]),
            raw(vec![seq(&[64500, 0, 174])]), // AS0: dropped
            raw(vec![]),                      // becomes the peer alone
        ];
        let comm = CommunitySet::from_iter([AnyCommunity::regular(3356, 9)]);
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
        let attrs = |as_path: &RawAsPath| PathAttributes {
            as_path: as_path.clone(),
            communities: comm.clone(),
            ..Default::default()
        };
        let group = RibGroup {
            sequence: 0,
            prefix: Prefix::v4([193, 0, 0, 0], 16),
            entries: paths.iter().map(|p| (0, 5, attrs(p))).collect(),
        };
        w.write_rib_group(&group, 0).unwrap();
        for (i, p) in paths.iter().enumerate() {
            let mut u = update(64500, &[], &[], 100 + i as u64);
            u.attributes = attrs(p);
            w.write_update(&u).unwrap();
        }
        let mut withdrawal = update(64500, &[64500, 3356], &[], 200);
        withdrawal.withdrawn = withdrawal.announced.drain(..).collect();
        w.write_update(&withdrawal).unwrap();
        let bytes = w.into_bytes();

        // The oracle: the records as decoded, through `sanitize(&self)`.
        let mut expect = Vec::new();
        for record in MrtReader::new(&bytes).read_all().unwrap() {
            let entries: Vec<(u64, Asn, PathAttributes)> = match record {
                MrtRecord::PeerIndex(_) => vec![],
                MrtRecord::Update(u) if u.announced.is_empty() => vec![],
                MrtRecord::Update(u) => vec![(u.timestamp, u.peer_asn, u.attributes)],
                MrtRecord::RibEntries(es) => es
                    .into_iter()
                    .map(|e| (e.originated, e.peer_asn, e.attributes))
                    .collect(),
            };
            for (ts, peer, a) in entries {
                if let Some(path) = a.as_path.sanitize(Some(peer)) {
                    expect.push((ts, PathCommTuple::new(path, a.communities.clone())));
                }
            }
        }

        let mut stream = TupleStream::new(&bytes);
        let got: Vec<(u64, PathCommTuple)> = (&mut stream).map(|r| r.unwrap()).collect();
        assert_eq!(got, expect);
        assert_eq!(stream.raw_entries(), 13); // 6 RIB + 6 announcements + 1 withdrawal
        assert_eq!(stream.kept(), 10);
        assert_eq!(stream.shape_dropped(), 2);
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
