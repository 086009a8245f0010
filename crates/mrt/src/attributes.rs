//! BGP path attribute encoding and decoding (RFC 4271 §4.3, RFC 1997,
//! RFC 8092, RFC 4760).
//!
//! The codec understands the attributes the study pipeline consumes —
//! ORIGIN, AS_PATH (4-byte ASNs as in `BGP4MP_MESSAGE_AS4` / TABLE_DUMP_V2),
//! NEXT_HOP, COMMUNITIES, LARGE_COMMUNITIES, and MP_REACH_NLRI for IPv6 —
//! and preserves unknown attributes opaquely so round-trips are lossless.

use crate::error::{MrtError, Result};
use crate::wire::{Cursor, PutExt};
use bgp_types::prelude::*;

/// ORIGIN attribute type code.
pub const ATTR_ORIGIN: u8 = 1;
/// AS_PATH attribute type code.
pub const ATTR_AS_PATH: u8 = 2;
/// NEXT_HOP attribute type code.
pub const ATTR_NEXT_HOP: u8 = 3;
/// COMMUNITIES attribute type code (RFC 1997).
pub const ATTR_COMMUNITIES: u8 = 8;
/// MP_REACH_NLRI attribute type code (RFC 4760).
pub const ATTR_MP_REACH_NLRI: u8 = 14;
/// LARGE_COMMUNITIES attribute type code (RFC 8092).
pub const ATTR_LARGE_COMMUNITIES: u8 = 32;

/// Attribute flag: optional.
pub const FLAG_OPTIONAL: u8 = 0x80;
/// Attribute flag: transitive.
pub const FLAG_TRANSITIVE: u8 = 0x40;
/// Attribute flag: extended (2-byte) length.
pub const FLAG_EXTENDED: u8 = 0x10;

/// AS_PATH segment type: AS_SET.
pub(crate) const SEG_AS_SET: u8 = 1;
/// AS_PATH segment type: AS_SEQUENCE.
pub(crate) const SEG_AS_SEQUENCE: u8 = 2;

/// Decoded attribute section plus any IPv6 NLRI found in MP_REACH.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DecodedAttributes {
    /// Semantically decoded attributes.
    pub attrs: PathAttributes,
    /// IPv6 prefixes announced via MP_REACH_NLRI.
    pub mp_reach_nlri: Vec<Prefix>,
    /// Unknown attributes preserved as (flags, type, value) for lossless
    /// round-trips.
    pub unknown: Vec<(u8, u8, Vec<u8>)>,
}

/// Encode one attribute with automatic extended-length handling.
fn put_attr(out: &mut Vec<u8>, flags: u8, type_code: u8, value: &[u8]) -> Result<()> {
    if value.len() > u16::MAX as usize {
        return Err(MrtError::EncodeOverflow {
            context: "attribute value",
        });
    }
    if value.len() > u8::MAX as usize {
        out.put_u8(flags | FLAG_EXTENDED);
        out.put_u8(type_code);
        out.put_u16(value.len() as u16);
    } else {
        out.put_u8(flags & !FLAG_EXTENDED);
        out.put_u8(type_code);
        out.put_u8(value.len() as u8);
    }
    out.extend_from_slice(value);
    Ok(())
}

/// Encode a packed NLRI prefix (length byte + significant network bytes).
pub fn encode_nlri_prefix(out: &mut Vec<u8>, p: &Prefix) {
    out.put_u8(p.len());
    let bytes = p.net_bytes();
    out.extend_from_slice(&bytes[..p.nlri_byte_len()]);
}

/// Frame one packed NLRI prefix: its length in bits, checked against the
/// family's maximum, and the significant network bytes that follow.
#[inline]
pub(crate) fn read_nlri_prefix<'a>(c: &mut Cursor<'a>, v6: bool) -> Result<(u8, &'a [u8])> {
    let len = c.get_u8("nlri prefix length")?;
    let max = if v6 { 128 } else { 32 };
    if len > max {
        return Err(MrtError::Malformed {
            context: "nlri prefix length",
            detail: format!("/{} exceeds maximum /{max}", len),
        });
    }
    let raw = c.get_bytes((len as usize).div_ceil(8), "nlri prefix bytes")?;
    Ok((len, raw))
}

/// Decode one packed NLRI prefix for the given address family.
pub fn decode_nlri_prefix(c: &mut Cursor<'_>, v6: bool) -> Result<Prefix> {
    let (len, raw) = read_nlri_prefix(c, v6)?;
    if v6 {
        let mut o = [0u8; 16];
        o[..raw.len()].copy_from_slice(raw);
        Ok(Prefix::v6(o, len))
    } else {
        let mut o = [0u8; 4];
        o[..raw.len()].copy_from_slice(raw);
        Ok(Prefix::v4(o, len))
    }
}

/// Frame one attribute: its flags, its type code, and a cursor over
/// exactly its value (so the value's length is `remaining()`).
#[inline]
pub(crate) fn read_attr_header<'a>(c: &mut Cursor<'a>) -> Result<(u8, u8, Cursor<'a>)> {
    let flags = c.get_u8("attribute flags")?;
    let type_code = c.get_u8("attribute type")?;
    let len = if flags & FLAG_EXTENDED != 0 {
        c.get_u16("attribute extended length")? as usize
    } else {
        c.get_u8("attribute length")? as usize
    };
    Ok((flags, type_code, c.sub(len, "attribute value")?))
}

/// Read an MP_REACH_NLRI value up to its NLRI list, leaving `val` on the
/// first prefix; returns whether those prefixes are IPv6.
#[inline]
pub(crate) fn read_mp_reach_header(val: &mut Cursor<'_>) -> Result<bool> {
    let afi = val.get_u16("mp_reach afi")?;
    let _safi = val.get_u8("mp_reach safi")?;
    let nh_len = val.get_u8("mp_reach nexthop length")? as usize;
    val.get_bytes(nh_len, "mp_reach nexthop")?;
    val.get_u8("mp_reach reserved")?;
    Ok(afi == 2)
}

/// Encode the complete path-attribute section (without the section length
/// prefix — callers add the 2-byte total-length field).
///
/// `mp_reach` carries IPv6 prefixes to embed in an MP_REACH_NLRI attribute.
pub fn encode_attributes(
    attrs: &PathAttributes,
    mp_reach: &[Prefix],
    unknown: &[(u8, u8, Vec<u8>)],
) -> Result<Vec<u8>> {
    let mut out = Vec::with_capacity(64);

    if let Some(origin) = attrs.origin {
        put_attr(&mut out, FLAG_TRANSITIVE, ATTR_ORIGIN, &[origin.code()])?;
    }

    // AS_PATH with 4-byte ASNs.
    let mut pathval = Vec::new();
    for seg in &attrs.as_path.segments {
        let (ty, asns) = match seg {
            PathSegment::Set(v) => (SEG_AS_SET, v),
            PathSegment::Sequence(v) => (SEG_AS_SEQUENCE, v),
        };
        if asns.is_empty() {
            continue;
        }
        if asns.len() > 255 {
            return Err(MrtError::EncodeOverflow {
                context: "AS_PATH segment",
            });
        }
        pathval.put_u8(ty);
        pathval.put_u8(asns.len() as u8);
        for a in asns {
            pathval.put_u32(a.0);
        }
    }
    put_attr(&mut out, FLAG_TRANSITIVE, ATTR_AS_PATH, &pathval)?;

    if let Some(nh) = attrs.next_hop {
        put_attr(&mut out, FLAG_TRANSITIVE, ATTR_NEXT_HOP, &nh)?;
    }

    // COMMUNITIES (regular) and LARGE_COMMUNITIES, each only if non-empty.
    let mut regular = Vec::new();
    let mut large = Vec::new();
    for comm in attrs.communities.iter() {
        match comm {
            AnyCommunity::Regular(c) => regular.put_u32(c.raw()),
            AnyCommunity::Large(c) => {
                large.put_u32(c.global_admin);
                large.put_u32(c.local1);
                large.put_u32(c.local2);
            }
        }
    }
    if !regular.is_empty() {
        put_attr(
            &mut out,
            FLAG_OPTIONAL | FLAG_TRANSITIVE,
            ATTR_COMMUNITIES,
            &regular,
        )?;
    }
    if !large.is_empty() {
        put_attr(
            &mut out,
            FLAG_OPTIONAL | FLAG_TRANSITIVE,
            ATTR_LARGE_COMMUNITIES,
            &large,
        )?;
    }

    if !mp_reach.is_empty() {
        // MP_REACH_NLRI: AFI(2)=2, SAFI(1)=1, next-hop-len(1)=16, next hop,
        // reserved(1)=0, NLRI.
        let mut val = Vec::new();
        val.put_u16(2); // AFI IPv6
        val.put_u8(1); // SAFI unicast
        val.put_u8(16);
        val.extend_from_slice(&[0u8; 16]);
        val.put_u8(0);
        for p in mp_reach {
            if !p.is_v6() {
                return Err(MrtError::Malformed {
                    context: "MP_REACH_NLRI",
                    detail: "IPv4 prefix in IPv6 NLRI list".into(),
                });
            }
            encode_nlri_prefix(&mut val, p);
        }
        put_attr(&mut out, FLAG_OPTIONAL, ATTR_MP_REACH_NLRI, &val)?;
    }

    for (flags, ty, val) in unknown {
        put_attr(&mut out, *flags, *ty, val)?;
    }

    Ok(out)
}

/// Decode a complete path-attribute section.
pub fn decode_attributes(c: &mut Cursor<'_>) -> Result<DecodedAttributes> {
    let mut out = DecodedAttributes::default();

    while !c.is_exhausted() {
        let (flags, type_code, mut val) = read_attr_header(c)?;
        let len = val.remaining();

        match type_code {
            ATTR_ORIGIN => {
                let code = val.get_u8("origin code")?;
                out.attrs.origin =
                    Some(Origin::from_code(code).ok_or_else(|| MrtError::Malformed {
                        context: "origin",
                        detail: format!("code {code}"),
                    })?);
            }
            ATTR_AS_PATH => {
                let mut segments = Vec::new();
                while !val.is_exhausted() {
                    let seg_type = val.get_u8("segment type")?;
                    let count = val.get_u8("segment length")? as usize;
                    let mut asns = Vec::with_capacity(count);
                    for _ in 0..count {
                        asns.push(Asn(val.get_u32("segment asn")?));
                    }
                    segments.push(match seg_type {
                        SEG_AS_SET => PathSegment::Set(asns),
                        SEG_AS_SEQUENCE => PathSegment::Sequence(asns),
                        other => {
                            return Err(MrtError::Malformed {
                                context: "AS_PATH segment type",
                                detail: format!("type {other}"),
                            })
                        }
                    });
                }
                out.attrs.as_path = RawAsPath { segments };
            }
            ATTR_NEXT_HOP => {
                let b = val.get_bytes(4, "next hop")?;
                out.attrs.next_hop = Some([b[0], b[1], b[2], b[3]]);
            }
            ATTR_COMMUNITIES => {
                if len % 4 != 0 {
                    return Err(MrtError::LengthMismatch {
                        context: "COMMUNITIES",
                        declared: len,
                        actual: len / 4 * 4,
                    });
                }
                while !val.is_exhausted() {
                    let raw = val.get_u32("community")?;
                    out.attrs
                        .communities
                        .insert(AnyCommunity::Regular(Community(raw)));
                }
            }
            ATTR_LARGE_COMMUNITIES => {
                if len % 12 != 0 {
                    return Err(MrtError::LengthMismatch {
                        context: "LARGE_COMMUNITIES",
                        declared: len,
                        actual: len / 12 * 12,
                    });
                }
                while !val.is_exhausted() {
                    let ga = val.get_u32("large community ga")?;
                    let l1 = val.get_u32("large community l1")?;
                    let l2 = val.get_u32("large community l2")?;
                    out.attrs
                        .communities
                        .insert(AnyCommunity::large(ga, l1, l2));
                }
            }
            ATTR_MP_REACH_NLRI => {
                let v6 = read_mp_reach_header(&mut val)?;
                while !val.is_exhausted() {
                    out.mp_reach_nlri.push(decode_nlri_prefix(&mut val, v6)?);
                }
            }
            _ => {
                let raw = val.get_bytes(len, "unknown attribute value")?.to_vec();
                out.unknown.push((flags, type_code, raw));
            }
        }
        // Semantic decoders must consume exactly their value.
        if !val.is_exhausted() {
            return Err(MrtError::LengthMismatch {
                context: "attribute value",
                declared: len,
                actual: len - val.remaining(),
            });
        }
    }

    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_attrs() -> PathAttributes {
        PathAttributes {
            origin: Some(Origin::Igp),
            as_path: RawAsPath {
                segments: vec![
                    PathSegment::Sequence(vec![Asn(64500), Asn(3356), Asn(200_000)]),
                    PathSegment::Set(vec![Asn(7), Asn(9)]),
                ],
            },
            next_hop: Some([10, 0, 0, 1]),
            communities: CommunitySet::from_iter([
                AnyCommunity::regular(3356, 2001),
                AnyCommunity::regular(64500, 1),
                AnyCommunity::large(200_000, 5, 6),
            ]),
        }
    }

    #[test]
    fn roundtrip_full_attribute_set() {
        let attrs = sample_attrs();
        let bytes = encode_attributes(&attrs, &[], &[]).unwrap();
        let decoded = decode_attributes(&mut Cursor::new(&bytes)).unwrap();
        assert_eq!(decoded.attrs, attrs);
        assert!(decoded.mp_reach_nlri.is_empty());
        assert!(decoded.unknown.is_empty());
    }

    #[test]
    fn roundtrip_mp_reach_v6() {
        let attrs = PathAttributes {
            origin: Some(Origin::Incomplete),
            as_path: RawAsPath::from_sequence(vec![Asn(1), Asn(2)]),
            next_hop: None,
            communities: CommunitySet::new(),
        };
        let p: Prefix = "2001:678:4::/48".parse().unwrap();
        let bytes = encode_attributes(&attrs, &[p], &[]).unwrap();
        let decoded = decode_attributes(&mut Cursor::new(&bytes)).unwrap();
        assert_eq!(decoded.mp_reach_nlri, vec![p]);
    }

    #[test]
    fn v4_prefix_in_mp_reach_rejected() {
        let attrs = PathAttributes::default();
        let p = Prefix::v4([8, 8, 8, 0], 24);
        assert!(matches!(
            encode_attributes(&attrs, &[p], &[]),
            Err(MrtError::Malformed { .. })
        ));
    }

    #[test]
    fn unknown_attributes_preserved() {
        let attrs = PathAttributes {
            as_path: RawAsPath::from_sequence(vec![Asn(1)]),
            ..Default::default()
        };
        let unknown = vec![(FLAG_OPTIONAL | FLAG_TRANSITIVE, 99u8, vec![1, 2, 3])];
        let bytes = encode_attributes(&attrs, &[], &unknown).unwrap();
        let decoded = decode_attributes(&mut Cursor::new(&bytes)).unwrap();
        assert_eq!(decoded.unknown, unknown);
    }

    #[test]
    fn extended_length_roundtrip() {
        // >255 bytes of communities forces the extended-length encoding.
        let comms: Vec<AnyCommunity> = (0..100u16)
            .map(|i| AnyCommunity::regular(3356, i))
            .collect();
        let attrs = PathAttributes {
            as_path: RawAsPath::from_sequence(vec![Asn(1)]),
            communities: CommunitySet::from_iter(comms.clone()),
            ..Default::default()
        };
        let bytes = encode_attributes(&attrs, &[], &[]).unwrap();
        let decoded = decode_attributes(&mut Cursor::new(&bytes)).unwrap();
        assert_eq!(decoded.attrs.communities.len(), 100);
    }

    #[test]
    fn truncated_input_errors() {
        let attrs = sample_attrs();
        let bytes = encode_attributes(&attrs, &[], &[]).unwrap();
        for cut in [1, 3, 5, bytes.len() - 1] {
            let res = decode_attributes(&mut Cursor::new(&bytes[..cut]));
            assert!(res.is_err(), "cut at {cut} should error");
        }
    }

    #[test]
    fn bad_community_length_rejected() {
        // Hand-craft a COMMUNITIES attribute with a 3-byte value.
        let mut bytes = Vec::new();
        bytes.put_u8(FLAG_OPTIONAL | FLAG_TRANSITIVE);
        bytes.put_u8(ATTR_COMMUNITIES);
        bytes.put_u8(3);
        bytes.extend_from_slice(&[0, 0, 0]);
        assert!(matches!(
            decode_attributes(&mut Cursor::new(&bytes)),
            Err(MrtError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn bad_origin_code_rejected() {
        let mut bytes = Vec::new();
        bytes.put_u8(FLAG_TRANSITIVE);
        bytes.put_u8(ATTR_ORIGIN);
        bytes.put_u8(1);
        bytes.put_u8(7); // invalid origin
        assert!(matches!(
            decode_attributes(&mut Cursor::new(&bytes)),
            Err(MrtError::Malformed { .. })
        ));
    }

    #[test]
    fn bad_segment_type_rejected() {
        let mut bytes = Vec::new();
        bytes.put_u8(FLAG_TRANSITIVE);
        bytes.put_u8(ATTR_AS_PATH);
        bytes.put_u8(6);
        bytes.put_u8(9); // invalid segment type
        bytes.put_u8(1);
        bytes.put_u32(42);
        assert!(matches!(
            decode_attributes(&mut Cursor::new(&bytes)),
            Err(MrtError::Malformed { .. })
        ));
    }

    #[test]
    fn nlri_prefix_roundtrip() {
        for (p, v6) in [
            (Prefix::v4([193, 0, 0, 0], 16), false),
            (Prefix::v4([8, 8, 8, 8], 32), false),
            (Prefix::v4([0, 0, 0, 0], 0), false),
            ("2001:678::/32".parse().unwrap(), true),
        ] {
            let mut buf = Vec::new();
            encode_nlri_prefix(&mut buf, &p);
            let got = decode_nlri_prefix(&mut Cursor::new(&buf), v6).unwrap();
            assert_eq!(got, p);
        }
    }

    #[test]
    fn nlri_overlong_prefix_rejected() {
        let buf = [33u8, 1, 2, 3, 4, 5];
        assert!(decode_nlri_prefix(&mut Cursor::new(&buf), false).is_err());
    }
}
