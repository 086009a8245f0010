//! # bgp-mrt
//!
//! A from-scratch, byte-accurate codec for the Multi-Threaded Routing
//! Toolkit (MRT) export format (RFC 6396) and the BGP-4 messages it wraps
//! (RFC 4271), including the community attributes this study revolves
//! around: RFC 1997 regular communities and RFC 8092 large communities.
//!
//! Supported records — the ones real collector archives contain:
//!
//! * `BGP4MP / BGP4MP_MESSAGE_AS4` — update messages with 4-byte ASNs
//! * `TABLE_DUMP_V2 / PEER_INDEX_TABLE` — RIB peer tables
//! * `TABLE_DUMP_V2 / RIB_IPV4_UNICAST`, `RIB_IPV6_UNICAST` — RIB entries
//!
//! Design rules (mirroring what production parsers like bgpkit-parser do):
//!
//! * decoding never panics on malformed input — every failure is a typed
//!   [`error::MrtError`] — and never reserves more than the input can hold,
//!   whatever a count field claims;
//! * unknown attributes are preserved opaquely so round-trips are lossless;
//! * the reader is a streaming iterator and maintains PEER_INDEX_TABLE
//!   state so RIB entries resolve peer ASNs exactly as in real dumps.
//!
//! Two readers share that state and the framing code in [`record`] and
//! [`attributes`]:
//!
//! * [`MrtReader`] yields whole owned [`MrtRecord`]s: prefixes, every
//!   attribute, peer addresses. It is what the encoders round-trip
//!   through, what registry-filtered ingest and `bgp-collector`'s
//!   statistics read, and the oracle the other reader is tested against.
//! * [`TupleStream`] yields the sanitized `(path, comm)` pair inference
//!   reads and nothing else. It walks BGP4MP_MESSAGE_AS4 and
//!   RIB_IPV4/IPV6_UNICAST records in place and lends each tuple as one
//!   encoded record ([`TupleStream::next_ref`]: no allocation an entry;
//!   its `Iterator` impl owns what it yields, two exact-size allocations
//!   a tuple, none for a withdrawal), and hands every other record, and
//!   every record it cannot prove well-formed, to [`MrtReader`]; see
//!   [`stream`] for why its output and its errors cannot differ.
//!
//! ```
//! use bgp_mrt::{MrtWriter, extract_tuples};
//! use bgp_types::prelude::*;
//!
//! let mut w = MrtWriter::new();
//! w.write_update(&UpdateMessage::announcement(
//!     Asn(64500), 1_621_382_400,
//!     Prefix::v4([203, 0, 114, 0], 24),
//!     RawAsPath::from_sequence(vec![Asn(64500), Asn(3356)]),
//!     CommunitySet::from_iter([AnyCommunity::regular(3356, 2001)]),
//! )).unwrap();
//! let (tuples, raw) = extract_tuples(w.as_bytes()).unwrap();
//! assert_eq!(raw, 1);
//! assert_eq!(tuples[0].path.peer(), Asn(64500));
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]
#![warn(rust_2018_idioms)]

pub mod attributes;
pub mod error;
pub mod legacy;
pub mod record;
pub mod stream;
pub mod wire;

pub use error::{MrtError, Result};
pub use record::{MrtHeader, MrtRecord, PeerEntry, PeerIndexTable, RibGroup};
pub use stream::{extract_tuples, MrtReader, MrtWriter, TupleStream};

#[cfg(test)]
mod proptests {
    use super::*;
    use bgp_types::prelude::*;
    use proptest::prelude::*;

    fn arb_prefix_v4() -> impl Strategy<Value = Prefix> {
        (any::<u32>(), 8u8..=32).prop_map(|(net, len)| Prefix::v4(net.to_be_bytes(), len))
    }

    fn arb_comm() -> impl Strategy<Value = AnyCommunity> {
        prop_oneof![
            (1u16..65535, any::<u16>()).prop_map(|(a, b)| AnyCommunity::regular(a, b)),
            (1u32..4_000_000, any::<u32>(), any::<u32>())
                .prop_map(|(a, b, c)| AnyCommunity::large(a, b, c)),
        ]
    }

    fn arb_update() -> impl Strategy<Value = UpdateMessage> {
        (
            1u32..400_000,
            prop::collection::vec(1u32..400_000, 1..8),
            prop::collection::vec(arb_comm(), 0..12),
            arb_prefix_v4(),
            any::<u32>(),
        )
            .prop_map(|(peer, path, comms, prefix, ts)| {
                UpdateMessage::announcement(
                    Asn(peer),
                    ts as u64,
                    prefix,
                    RawAsPath::from_sequence(path.into_iter().map(Asn).collect()),
                    CommunitySet::from_iter(comms),
                )
            })
    }

    proptest! {
        #[test]
        fn update_roundtrip(msg in arb_update()) {
            let bytes = record::encode_update(&msg).unwrap();
            let rec = record::decode_record(&mut wire::Cursor::new(&bytes), None).unwrap();
            prop_assert_eq!(rec, MrtRecord::Update(msg));
        }

        #[test]
        fn archive_roundtrip(msgs in prop::collection::vec(arb_update(), 0..20)) {
            let mut w = MrtWriter::new();
            for m in &msgs {
                w.write_update(m).unwrap();
            }
            let bytes = w.into_bytes();
            let recs = MrtReader::new(&bytes).read_all().unwrap();
            prop_assert_eq!(recs.len(), msgs.len());
            for (r, m) in recs.into_iter().zip(msgs) {
                prop_assert_eq!(r, MrtRecord::Update(m));
            }
        }

        #[test]
        fn decoder_never_panics_on_garbage(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
            // Exhausting the iterator over random bytes must not panic.
            for r in MrtReader::new(&bytes) {
                let _ = r;
            }
        }

        #[test]
        fn decoder_never_panics_on_bitflips(
            msg in arb_update(),
            flip_byte in any::<prop::sample::Index>(),
            flip_bit in 0u8..8,
        ) {
            let mut bytes = record::encode_update(&msg).unwrap();
            let idx = flip_byte.index(bytes.len());
            bytes[idx] ^= 1 << flip_bit;
            for r in MrtReader::new(&bytes) {
                let _ = r;
            }
        }
    }
}
