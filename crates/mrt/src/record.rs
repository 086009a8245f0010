//! MRT records (RFC 6396): common header, `BGP4MP_MESSAGE_AS4` updates, and
//! `TABLE_DUMP_V2` RIB snapshots.
//!
//! Every record is a common header (`timestamp, type, subtype, length`)
//! followed by a type-specific body. This module implements the record
//! types route-collector archives actually contain for this study:
//!
//! * `BGP4MP (16) / BGP4MP_MESSAGE_AS4 (4)` — BGP UPDATE messages with
//!   4-byte ASNs (what RIPE RIS / RouteViews emit for updates today).
//! * `TABLE_DUMP_V2 (13) / PEER_INDEX_TABLE (1)` — the peer table shared by
//!   all RIB entries of a dump.
//! * `TABLE_DUMP_V2 (13) / RIB_IPV4_UNICAST (2)` and `RIB_IPV6_UNICAST (4)`
//!   — per-prefix RIB entries.

use crate::attributes::{
    decode_attributes, decode_nlri_prefix, encode_attributes, encode_nlri_prefix,
};
use crate::error::{MrtError, Result};
use crate::wire::{Cursor, PutExt};
use bgp_types::prelude::*;

/// MRT type: BGP4MP.
pub const TYPE_BGP4MP: u16 = 16;
/// BGP4MP subtype: MESSAGE_AS4 (4-byte ASNs).
pub const SUBTYPE_BGP4MP_MESSAGE_AS4: u16 = 4;
/// MRT type: TABLE_DUMP_V2.
pub const TYPE_TABLE_DUMP_V2: u16 = 13;
/// TABLE_DUMP_V2 subtype: PEER_INDEX_TABLE.
pub const SUBTYPE_PEER_INDEX_TABLE: u16 = 1;
/// TABLE_DUMP_V2 subtype: RIB_IPV4_UNICAST.
pub const SUBTYPE_RIB_IPV4_UNICAST: u16 = 2;
/// TABLE_DUMP_V2 subtype: RIB_IPV6_UNICAST.
pub const SUBTYPE_RIB_IPV6_UNICAST: u16 = 4;

/// BGP message type: UPDATE.
const BGP_MSG_UPDATE: u8 = 2;

/// MRT common header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MrtHeader {
    /// Seconds since the Unix epoch.
    pub timestamp: u32,
    /// MRT type.
    pub mrt_type: u16,
    /// MRT subtype.
    pub subtype: u16,
    /// Body length in bytes.
    pub length: u32,
}

impl MrtHeader {
    /// Wire size of the common header.
    pub const SIZE: usize = 12;

    /// Encode into `out`.
    pub fn encode(&self, out: &mut Vec<u8>) {
        out.put_u32(self.timestamp);
        out.put_u16(self.mrt_type);
        out.put_u16(self.subtype);
        out.put_u32(self.length);
    }

    /// Decode from a cursor.
    #[inline]
    pub fn decode(c: &mut Cursor<'_>) -> Result<Self> {
        Ok(MrtHeader {
            timestamp: c.get_u32("mrt timestamp")?,
            mrt_type: c.get_u16("mrt type")?,
            subtype: c.get_u16("mrt subtype")?,
            length: c.get_u32("mrt length")?,
        })
    }
}

/// One entry of a PEER_INDEX_TABLE.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PeerEntry {
    /// Peer BGP ID (router ID).
    pub bgp_id: u32,
    /// Peer IP address bytes (4 or 16).
    pub ip: Vec<u8>,
    /// Peer ASN.
    pub asn: Asn,
}

/// Decoded PEER_INDEX_TABLE.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PeerIndexTable {
    /// Collector BGP ID.
    pub collector_id: u32,
    /// Optional view name.
    pub view_name: String,
    /// Peer entries; RIB entries reference these by index.
    pub peers: Vec<PeerEntry>,
}

/// A decoded MRT record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MrtRecord {
    /// A BGP4MP_MESSAGE_AS4 update message.
    Update(UpdateMessage),
    /// A TABLE_DUMP_V2 peer index table.
    PeerIndex(PeerIndexTable),
    /// RIB entries for one prefix (one decoded entry per (peer, attrs)).
    RibEntries(Vec<RibEntry>),
}

// ---------------------------------------------------------------------------
// BGP4MP_MESSAGE_AS4
// ---------------------------------------------------------------------------

/// Encode an [`UpdateMessage`] as a full MRT record (header + body).
pub fn encode_update(msg: &UpdateMessage) -> Result<Vec<u8>> {
    let v6_announced: Vec<Prefix> = msg
        .announced
        .iter()
        .filter(|p| p.is_v6())
        .cloned()
        .collect();
    let v4_announced: Vec<&Prefix> = msg.announced.iter().filter(|p| p.is_v4()).collect();

    // --- BGP UPDATE message ---
    let mut withdrawn = Vec::new();
    for p in &msg.withdrawn {
        if p.is_v4() {
            encode_nlri_prefix(&mut withdrawn, p);
        }
    }
    let attrs = encode_attributes(&msg.attributes, &v6_announced, &[])?;

    let mut bgp = Vec::new();
    bgp.extend_from_slice(&[0xFF; 16]); // marker
                                        // UPDATE body: withdrawn-len(2) + withdrawn + attrs-len(2) + attrs + NLRI.
    let inner = 2
        + withdrawn.len()
        + 2
        + attrs.len()
        + v4_announced
            .iter()
            .map(|p| 1 + p.nlri_byte_len())
            .sum::<usize>();
    let total = 19 + inner; // marker(16) + length(2) + type(1)
    if total > u16::MAX as usize {
        return Err(MrtError::EncodeOverflow {
            context: "bgp message",
        });
    }
    bgp.put_u16(total as u16);
    bgp.put_u8(BGP_MSG_UPDATE);
    bgp.put_u16(withdrawn.len() as u16);
    bgp.extend_from_slice(&withdrawn);
    bgp.put_u16(attrs.len() as u16);
    bgp.extend_from_slice(&attrs);
    for p in v4_announced {
        encode_nlri_prefix(&mut bgp, p);
    }

    // --- BGP4MP_MESSAGE_AS4 body ---
    let v6_peer = msg.peer_ip.len() == 16;
    let mut body = Vec::new();
    body.put_u32(msg.peer_asn.0);
    body.put_u32(0); // local ASN (collector side)
    body.put_u16(0); // interface index
    body.put_u16(if v6_peer { 2 } else { 1 }); // AFI
                                               // peer ip + local ip
    let ip_len = if v6_peer { 16 } else { 4 };
    let mut peer_ip = msg.peer_ip.clone();
    peer_ip.resize(ip_len, 0);
    body.extend_from_slice(&peer_ip);
    body.extend_from_slice(&vec![0u8; ip_len]);
    body.extend_from_slice(&bgp);

    let mut out = Vec::with_capacity(MrtHeader::SIZE + body.len());
    MrtHeader {
        timestamp: msg.timestamp as u32,
        mrt_type: TYPE_BGP4MP,
        subtype: SUBTYPE_BGP4MP_MESSAGE_AS4,
        length: body.len() as u32,
    }
    .encode(&mut out);
    out.extend_from_slice(&body);
    Ok(out)
}

/// A `BGP4MP_MESSAGE_AS4` body up to the UPDATE's own fields.
pub(crate) struct Bgp4mpPrelude<'a> {
    pub(crate) peer_asn: Asn,
    pub(crate) peer_ip: &'a [u8],
    /// The UPDATE message body, past the 19-byte BGP header.
    pub(crate) update: Cursor<'a>,
}

/// Read the BGP4MP_MESSAGE_AS4 prelude and the BGP message header it
/// wraps; only an UPDATE is accepted.
#[inline]
pub(crate) fn read_bgp4mp_as4_prelude<'a>(body: &mut Cursor<'a>) -> Result<Bgp4mpPrelude<'a>> {
    let peer_asn = Asn(body.get_u32("peer asn")?);
    let _local_asn = body.get_u32("local asn")?;
    let _ifindex = body.get_u16("interface index")?;
    let afi = body.get_u16("afi")?;
    let ip_len = match afi {
        1 => 4,
        2 => 16,
        other => {
            return Err(MrtError::Malformed {
                context: "bgp4mp afi",
                detail: format!("afi {other}"),
            })
        }
    };
    let peer_ip = body.get_bytes(ip_len, "peer ip")?;
    body.get_bytes(ip_len, "local ip")?;

    // BGP message header.
    let marker = body.get_bytes(16, "bgp marker")?;
    if marker != [0xFF; 16] {
        return Err(MrtError::Malformed {
            context: "bgp marker",
            detail: "non-0xFF bytes".into(),
        });
    }
    let msg_len = body.get_u16("bgp message length")? as usize;
    if msg_len < 19 {
        return Err(MrtError::Malformed {
            context: "bgp message length",
            detail: format!("{msg_len} < 19"),
        });
    }
    let msg_type = body.get_u8("bgp message type")?;
    if msg_type != BGP_MSG_UPDATE {
        return Err(MrtError::UnsupportedType {
            mrt_type: TYPE_BGP4MP,
            subtype: msg_type as u16,
        });
    }
    Ok(Bgp4mpPrelude {
        peer_asn,
        peer_ip,
        update: body.sub(msg_len - 19, "bgp update body")?,
    })
}

fn decode_bgp4mp_message_as4(timestamp: u32, body: &mut Cursor<'_>) -> Result<UpdateMessage> {
    let Bgp4mpPrelude {
        peer_asn,
        peer_ip,
        update: mut msg,
    } = read_bgp4mp_as4_prelude(body)?;

    let withdrawn_len = msg.get_u16("withdrawn routes length")? as usize;
    let mut wcur = msg.sub(withdrawn_len, "withdrawn routes")?;
    let mut withdrawn = Vec::new();
    while !wcur.is_exhausted() {
        withdrawn.push(decode_nlri_prefix(&mut wcur, false)?);
    }

    let attrs_len = msg.get_u16("attributes length")? as usize;
    let mut acur = msg.sub(attrs_len, "attributes")?;
    let decoded = decode_attributes(&mut acur)?;

    let mut announced = Vec::new();
    while !msg.is_exhausted() {
        announced.push(decode_nlri_prefix(&mut msg, false)?);
    }
    announced.extend(decoded.mp_reach_nlri);

    Ok(UpdateMessage {
        peer_asn,
        peer_ip: peer_ip.to_vec(),
        timestamp: timestamp as u64,
        withdrawn,
        announced,
        attributes: decoded.attrs,
    })
}

// ---------------------------------------------------------------------------
// TABLE_DUMP_V2
// ---------------------------------------------------------------------------

/// Encode a PEER_INDEX_TABLE record.
pub fn encode_peer_index(table: &PeerIndexTable, timestamp: u32) -> Result<Vec<u8>> {
    let mut body = Vec::new();
    body.put_u32(table.collector_id);
    if table.view_name.len() > u16::MAX as usize {
        return Err(MrtError::EncodeOverflow {
            context: "view name",
        });
    }
    body.put_u16(table.view_name.len() as u16);
    body.extend_from_slice(table.view_name.as_bytes());
    if table.peers.len() > u16::MAX as usize {
        return Err(MrtError::EncodeOverflow {
            context: "peer count",
        });
    }
    body.put_u16(table.peers.len() as u16);
    for p in &table.peers {
        let v6 = p.ip.len() == 16;
        // peer type bit 0: ip family (0=v4, 1=v6); bit 1: asn size (1=4 bytes).
        body.put_u8(if v6 { 0b11 } else { 0b10 });
        body.put_u32(p.bgp_id);
        let mut ip = p.ip.clone();
        ip.resize(if v6 { 16 } else { 4 }, 0);
        body.extend_from_slice(&ip);
        body.put_u32(p.asn.0);
    }

    let mut out = Vec::with_capacity(MrtHeader::SIZE + body.len());
    MrtHeader {
        timestamp,
        mrt_type: TYPE_TABLE_DUMP_V2,
        subtype: SUBTYPE_PEER_INDEX_TABLE,
        length: body.len() as u32,
    }
    .encode(&mut out);
    out.extend_from_slice(&body);
    Ok(out)
}

fn decode_peer_index(body: &mut Cursor<'_>) -> Result<PeerIndexTable> {
    let collector_id = body.get_u32("collector id")?;
    let name_len = body.get_u16("view name length")? as usize;
    let name = body.get_bytes(name_len, "view name")?;
    let view_name = String::from_utf8(name.to_vec()).map_err(|_| MrtError::Malformed {
        context: "view name",
        detail: "invalid utf-8".into(),
    })?;
    let count = body.get_u16("peer count")? as usize;
    // A peer entry is at least 11 bytes: reserve what the body can hold,
    // not what the count claims.
    let mut peers = Vec::with_capacity(count.min(body.remaining() / 11));
    for _ in 0..count {
        let peer_type = body.get_u8("peer type")?;
        let bgp_id = body.get_u32("peer bgp id")?;
        let ip_len = if peer_type & 0b01 != 0 { 16 } else { 4 };
        let ip = body.get_bytes(ip_len, "peer ip")?.to_vec();
        let asn = if peer_type & 0b10 != 0 {
            Asn(body.get_u32("peer asn")?)
        } else {
            Asn(body.get_u16("peer asn16")? as u32)
        };
        peers.push(PeerEntry { bgp_id, ip, asn });
    }
    Ok(PeerIndexTable {
        collector_id,
        view_name,
        peers,
    })
}

/// RIB entries for one prefix, ready for encoding: pairs of (peer index,
/// originated time, attributes, extra IPv6 NLRI ignored — the prefix *is*
/// the NLRI in TABLE_DUMP_V2).
#[derive(Debug, Clone)]
pub struct RibGroup {
    /// Sequence number of the record within the dump.
    pub sequence: u32,
    /// The prefix all entries describe.
    pub prefix: Prefix,
    /// Per-peer entries: (peer table index, originated timestamp, attrs).
    pub entries: Vec<(u16, u32, PathAttributes)>,
}

/// Encode a RIB_IPVx_UNICAST record for one prefix.
pub fn encode_rib_group(g: &RibGroup, timestamp: u32) -> Result<Vec<u8>> {
    let mut body = Vec::new();
    body.put_u32(g.sequence);
    encode_nlri_prefix(&mut body, &g.prefix);
    if g.entries.len() > u16::MAX as usize {
        return Err(MrtError::EncodeOverflow {
            context: "rib entry count",
        });
    }
    body.put_u16(g.entries.len() as u16);
    for (peer_idx, originated, attrs) in &g.entries {
        body.put_u16(*peer_idx);
        body.put_u32(*originated);
        // In TABLE_DUMP_V2 the NLRI lives in the record, not MP_REACH, so no
        // v6 NLRI is passed here.
        let encoded = encode_attributes(attrs, &[], &[])?;
        if encoded.len() > u16::MAX as usize {
            return Err(MrtError::EncodeOverflow {
                context: "rib attributes",
            });
        }
        body.put_u16(encoded.len() as u16);
        body.extend_from_slice(&encoded);
    }

    let subtype = if g.prefix.is_v6() {
        SUBTYPE_RIB_IPV6_UNICAST
    } else {
        SUBTYPE_RIB_IPV4_UNICAST
    };
    let mut out = Vec::with_capacity(MrtHeader::SIZE + body.len());
    MrtHeader {
        timestamp,
        mrt_type: TYPE_TABLE_DUMP_V2,
        subtype,
        length: body.len() as u32,
    }
    .encode(&mut out);
    out.extend_from_slice(&body);
    Ok(out)
}

/// Frame one RIB entry: its peer-table index, its originated time, and a
/// cursor over exactly its attribute section.
#[inline]
pub(crate) fn read_rib_entry_header<'a>(body: &mut Cursor<'a>) -> Result<(usize, u32, Cursor<'a>)> {
    let peer_idx = body.get_u16("rib peer index")? as usize;
    let originated = body.get_u32("rib originated time")?;
    let attr_len = body.get_u16("rib attribute length")? as usize;
    Ok((peer_idx, originated, body.sub(attr_len, "rib attributes")?))
}

fn decode_rib_group(
    body: &mut Cursor<'_>,
    v6: bool,
    peer_table: Option<&PeerIndexTable>,
) -> Result<Vec<RibEntry>> {
    let _sequence = body.get_u32("rib sequence")?;
    let prefix = decode_nlri_prefix(body, v6)?;
    let count = body.get_u16("rib entry count")? as usize;
    // A RIB entry is at least 8 bytes: reserve what the body can hold,
    // not what the count claims.
    let mut out = Vec::with_capacity(count.min(body.remaining() / 8));
    for _ in 0..count {
        let (peer_idx, originated, mut acur) = read_rib_entry_header(body)?;
        let decoded = decode_attributes(&mut acur)?;
        let (peer_asn, peer_ip) = match peer_table {
            Some(t) => {
                let entry = t.peers.get(peer_idx).ok_or_else(|| MrtError::Malformed {
                    context: "rib peer index",
                    detail: format!("index {peer_idx} out of range ({} peers)", t.peers.len()),
                })?;
                (entry.asn, entry.ip.clone())
            }
            None => (Asn(0), Vec::new()),
        };
        out.push(RibEntry {
            peer_asn,
            peer_ip,
            originated: originated as u64,
            prefix,
            attributes: decoded.attrs,
        });
    }
    Ok(out)
}

/// Frame one record: its common header and a cursor over exactly its body.
#[inline]
pub(crate) fn read_frame<'a>(c: &mut Cursor<'a>) -> Result<(MrtHeader, Cursor<'a>)> {
    let header = MrtHeader::decode(c)?;
    let body = c.sub(header.length as usize, "mrt body")?;
    Ok((header, body))
}

/// Decode a single MRT record starting at the cursor.
///
/// `peer_table` must be the most recently seen PEER_INDEX_TABLE when
/// decoding RIB subtypes (as in a real dump, where it is the first record).
pub fn decode_record(c: &mut Cursor<'_>, peer_table: Option<&PeerIndexTable>) -> Result<MrtRecord> {
    let (header, mut body) = read_frame(c)?;
    match (header.mrt_type, header.subtype) {
        (TYPE_BGP4MP, SUBTYPE_BGP4MP_MESSAGE_AS4) => Ok(MrtRecord::Update(
            decode_bgp4mp_message_as4(header.timestamp, &mut body)?,
        )),
        (TYPE_BGP4MP, crate::legacy::SUBTYPE_BGP4MP_MESSAGE) => Ok(MrtRecord::Update(
            crate::legacy::decode_bgp4mp_message(header.timestamp, &mut body)?,
        )),
        (crate::legacy::TYPE_TABLE_DUMP, crate::legacy::SUBTYPE_TABLE_DUMP_AFI_IPV4) => {
            Ok(MrtRecord::RibEntries(vec![
                crate::legacy::decode_table_dump_v1(&mut body)?,
            ]))
        }
        (TYPE_TABLE_DUMP_V2, SUBTYPE_PEER_INDEX_TABLE) => {
            Ok(MrtRecord::PeerIndex(decode_peer_index(&mut body)?))
        }
        (TYPE_TABLE_DUMP_V2, SUBTYPE_RIB_IPV4_UNICAST) => Ok(MrtRecord::RibEntries(
            decode_rib_group(&mut body, false, peer_table)?,
        )),
        (TYPE_TABLE_DUMP_V2, SUBTYPE_RIB_IPV6_UNICAST) => Ok(MrtRecord::RibEntries(
            decode_rib_group(&mut body, true, peer_table)?,
        )),
        (t, s) => Err(MrtError::UnsupportedType {
            mrt_type: t,
            subtype: s,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_update() -> UpdateMessage {
        UpdateMessage::announcement(
            Asn(64500),
            1_621_382_400,
            Prefix::v4([203, 0, 114, 0], 24),
            RawAsPath::from_sequence(vec![Asn(64500), Asn(3356), Asn(15169)]),
            CommunitySet::from_iter([
                AnyCommunity::regular(3356, 2001),
                AnyCommunity::large(200_000, 1, 2),
            ]),
        )
    }

    #[test]
    fn update_roundtrip() {
        let msg = sample_update();
        let bytes = encode_update(&msg).unwrap();
        let rec = decode_record(&mut Cursor::new(&bytes), None).unwrap();
        match rec {
            MrtRecord::Update(got) => assert_eq!(got, msg),
            other => panic!("unexpected record {other:?}"),
        }
    }

    #[test]
    fn update_roundtrip_with_withdrawals() {
        let mut msg = sample_update();
        msg.withdrawn = vec![Prefix::v4([198, 51, 0, 0], 16)];
        let bytes = encode_update(&msg).unwrap();
        match decode_record(&mut Cursor::new(&bytes), None).unwrap() {
            MrtRecord::Update(got) => assert_eq!(got, msg),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn update_roundtrip_v6_nlri() {
        let mut msg = sample_update();
        msg.announced = vec!["2001:678:4::/48".parse().unwrap()];
        let bytes = encode_update(&msg).unwrap();
        match decode_record(&mut Cursor::new(&bytes), None).unwrap() {
            MrtRecord::Update(got) => {
                assert_eq!(got.announced, msg.announced);
                assert_eq!(got.attributes.communities, msg.attributes.communities);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn update_roundtrip_v6_peer() {
        let mut msg = sample_update();
        msg.peer_ip = vec![0x20, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1];
        let bytes = encode_update(&msg).unwrap();
        match decode_record(&mut Cursor::new(&bytes), None).unwrap() {
            MrtRecord::Update(got) => assert_eq!(got.peer_ip, msg.peer_ip),
            other => panic!("unexpected {other:?}"),
        }
    }

    fn sample_peer_table() -> PeerIndexTable {
        PeerIndexTable {
            collector_id: 0xC0000201,
            view_name: "rrc00".into(),
            peers: vec![
                PeerEntry {
                    bgp_id: 1,
                    ip: vec![192, 0, 2, 1],
                    asn: Asn(64500),
                },
                PeerEntry {
                    bgp_id: 2,
                    ip: vec![0x20, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2],
                    asn: Asn(200_000),
                },
            ],
        }
    }

    #[test]
    fn peer_index_roundtrip() {
        let table = sample_peer_table();
        let bytes = encode_peer_index(&table, 0).unwrap();
        match decode_record(&mut Cursor::new(&bytes), None).unwrap() {
            MrtRecord::PeerIndex(got) => assert_eq!(got, table),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn rib_group_roundtrip_with_peer_resolution() {
        let table = sample_peer_table();
        let attrs = PathAttributes {
            origin: Some(Origin::Igp),
            as_path: RawAsPath::from_sequence(vec![Asn(64500), Asn(3356)]),
            next_hop: Some([192, 0, 2, 1]),
            communities: CommunitySet::from_iter([AnyCommunity::regular(3356, 7)]),
        };
        let g = RibGroup {
            sequence: 42,
            prefix: Prefix::v4([193, 0, 0, 0], 16),
            entries: vec![
                (0, 1_621_000_000, attrs.clone()),
                (1, 1_621_000_001, attrs.clone()),
            ],
        };
        let bytes = encode_rib_group(&g, 10).unwrap();
        match decode_record(&mut Cursor::new(&bytes), Some(&table)).unwrap() {
            MrtRecord::RibEntries(entries) => {
                assert_eq!(entries.len(), 2);
                assert_eq!(entries[0].peer_asn, Asn(64500));
                assert_eq!(entries[1].peer_asn, Asn(200_000));
                assert_eq!(entries[0].prefix, g.prefix);
                assert_eq!(entries[0].attributes, attrs);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn rib_v6_roundtrip() {
        let table = sample_peer_table();
        let g = RibGroup {
            sequence: 0,
            prefix: "2001:678::/32".parse().unwrap(),
            entries: vec![(
                0,
                0,
                PathAttributes {
                    as_path: RawAsPath::from_sequence(vec![Asn(64500)]),
                    ..Default::default()
                },
            )],
        };
        let bytes = encode_rib_group(&g, 0).unwrap();
        match decode_record(&mut Cursor::new(&bytes), Some(&table)).unwrap() {
            MrtRecord::RibEntries(entries) => assert_eq!(entries[0].prefix, g.prefix),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn rib_with_bad_peer_index_errors() {
        let table = sample_peer_table();
        let g = RibGroup {
            sequence: 0,
            prefix: Prefix::v4([193, 0, 0, 0], 16),
            entries: vec![(99, 0, PathAttributes::default())],
        };
        let bytes = encode_rib_group(&g, 0).unwrap();
        assert!(decode_record(&mut Cursor::new(&bytes), Some(&table)).is_err());
    }

    #[test]
    fn unsupported_type_errors() {
        let mut bytes = Vec::new();
        MrtHeader {
            timestamp: 0,
            mrt_type: 99,
            subtype: 1,
            length: 0,
        }
        .encode(&mut bytes);
        assert!(matches!(
            decode_record(&mut Cursor::new(&bytes), None),
            Err(MrtError::UnsupportedType { mrt_type: 99, .. })
        ));
    }

    #[test]
    fn truncated_record_errors_not_panics() {
        let bytes = encode_update(&sample_update()).unwrap();
        for cut in 0..bytes.len() {
            let _ = decode_record(&mut Cursor::new(&bytes[..cut]), None);
        }
    }

    #[test]
    fn corrupt_marker_rejected() {
        let mut bytes = encode_update(&sample_update()).unwrap();
        // The BGP marker starts after MRT header (12) + bgp4mp prelude
        // (4+4+2+2+4+4 = 20 for v4 peers).
        bytes[32] = 0x00;
        assert!(matches!(
            decode_record(&mut Cursor::new(&bytes), None),
            Err(MrtError::Malformed {
                context: "bgp marker",
                ..
            })
        ));
    }
}
