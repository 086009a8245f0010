//! `TupleStream`'s in-place walk against the full decoder, on every input.
//!
//! The oracle is the extraction spelled out over whole records:
//! [`MrtReader`] decodes each one, `RawAsPath::sanitize(&self)` cleans each
//! path. The lending reader (`TupleStream::next_ref`, each lent record
//! read back with `TupleRef::to_owned`) must agree with it item by item —
//! every `Ok((ts, tuple))`, the terminal `Err` value and where it falls,
//! and the three counters at every returned item and at the end — on
//! well-formed archives, on the same archives damaged, and on records the
//! encoder cannot emit. The owning iterator is the lending reader plus
//! `to_owned`, and is held to the same items.

use bgp_mrt::attributes::{
    encode_attributes, encode_nlri_prefix, ATTR_AS_PATH, ATTR_COMMUNITIES, ATTR_MP_REACH_NLRI,
    FLAG_EXTENDED, FLAG_OPTIONAL, FLAG_TRANSITIVE,
};
use bgp_mrt::record::{encode_peer_index, PeerEntry};
use bgp_mrt::wire::PutExt;
use bgp_mrt::{MrtError, MrtReader, MrtRecord, PeerIndexTable, TupleStream};
use bgp_types::prelude::*;
use proptest::prelude::*;

/// What the stream yields: a timestamp and a tuple.
type Item = (u64, PathCommTuple);
/// `(raw_entries, kept, shape_dropped)`.
type Counters = (u64, u64, u64);
/// One returned item and the counters as they read when it is returned.
type Step = (Result<Item, MrtError>, Counters);

/// The extraction over fully decoded records. A record's entries are
/// counted together, when the record completes, and a record that fails
/// to decode contributes nothing but the error that ends the stream.
fn oracle(bytes: &[u8]) -> (Vec<Step>, Counters) {
    let mut steps = Vec::new();
    let (mut raw, mut kept, mut dropped) = (0, 0, 0);
    for record in MrtReader::new(bytes) {
        let entries: Vec<(u64, Asn, PathAttributes)> = match record {
            Err(e) => {
                steps.push((Err(e), (raw, kept, dropped)));
                break;
            }
            Ok(MrtRecord::PeerIndex(_)) => vec![],
            Ok(MrtRecord::Update(u)) => {
                raw += 1;
                if u.announced.is_empty() {
                    vec![]
                } else {
                    vec![(u.timestamp, u.peer_asn, u.attributes)]
                }
            }
            Ok(MrtRecord::RibEntries(es)) => {
                raw += es.len() as u64;
                es.into_iter()
                    .map(|e| (e.originated, e.peer_asn, e.attributes))
                    .collect()
            }
        };
        let mut tuples = Vec::new();
        for (ts, peer, attrs) in entries {
            match attrs.as_path.sanitize(Some(peer)) {
                Some(path) => tuples.push((ts, PathCommTuple::new(path, attrs.communities))),
                None => dropped += 1,
            }
        }
        kept += tuples.len() as u64;
        steps.extend(tuples.into_iter().map(|t| (Ok(t), (raw, kept, dropped))));
    }
    (steps, (raw, kept, dropped))
}

fn counters(s: &TupleStream<'_>) -> Counters {
    (s.raw_entries(), s.kept(), s.shape_dropped())
}

/// Drain a stream over `bytes` through `next`, noting the counters at
/// every item.
fn drained(
    bytes: &[u8],
    mut next: impl FnMut(&mut TupleStream<'_>) -> Option<Result<Item, MrtError>>,
) -> (Vec<Step>, Counters) {
    let mut stream = TupleStream::new(bytes);
    let mut steps = Vec::new();
    while let Some(item) = next(&mut stream) {
        steps.push((item, counters(&stream)));
    }
    assert!(
        next(&mut stream).is_none(),
        "a drained stream stays drained"
    );
    (steps, counters(&stream))
}

/// The lending reader, every lent record read back before the next call.
fn walked(bytes: &[u8]) -> (Vec<Step>, Counters) {
    drained(bytes, |stream| {
        let item = stream.next_ref()?;
        Some(item.map(|(ts, tuple)| (ts, tuple.to_owned())))
    })
}

fn assert_walk_matches_oracle(bytes: &[u8]) -> (Vec<Step>, Counters) {
    let got = walked(bytes);
    assert_eq!(got, oracle(bytes), "archive: {bytes:02x?}");
    let owned = drained(bytes, |stream| stream.next());
    assert_eq!(got, owned, "owning iterator, archive: {bytes:02x?}");
    got
}

// ---------------------------------------------------------------------------
// A test-side encoder: raw enough to emit what `MrtWriter` cannot, and it
// remembers where every length field sits.
// ---------------------------------------------------------------------------

/// Archive bytes plus the `(offset, width)` of every length or count field.
#[derive(Debug, Clone, Default)]
struct Archive {
    bytes: Vec<u8>,
    length_fields: Vec<(usize, usize)>,
}

impl Archive {
    /// Append a placeholder length field of `width` bytes; returns its offset.
    fn reserve_len(&mut self, width: usize) -> usize {
        let at = self.bytes.len();
        self.length_fields.push((at, width));
        self.bytes.resize(at + width, 0);
        at
    }

    /// Fill the field at `at` with `value`, big-endian.
    fn patch(&mut self, at: usize, width: usize, value: usize) {
        let be = (value as u64).to_be_bytes();
        self.bytes[at..at + width].copy_from_slice(&be[8 - width..]);
    }

    /// Fill the field at `at` with the number of bytes written after it.
    fn close_len(&mut self, at: usize, width: usize) {
        self.patch(at, width, self.bytes.len() - at - width);
    }

    /// An MRT record: header, then whatever `body` writes.
    fn record(
        &mut self,
        timestamp: u32,
        mrt_type: u16,
        subtype: u16,
        body: impl FnOnce(&mut Self),
    ) {
        self.bytes.put_u32(timestamp);
        self.bytes.put_u16(mrt_type);
        self.bytes.put_u16(subtype);
        let len = self.reserve_len(4);
        body(self);
        self.close_len(len, 4);
    }

    /// An encoded attribute section, with each attribute's own length
    /// field noted.
    fn attributes(&mut self, section: &[u8]) {
        let base = self.bytes.len();
        let mut at = 0;
        while at + 3 <= section.len() {
            let extended = section[at] & FLAG_EXTENDED != 0;
            let (width, len) = if extended && at + 4 <= section.len() {
                (
                    2,
                    u16::from_be_bytes([section[at + 2], section[at + 3]]) as usize,
                )
            } else {
                (1, section[at + 2] as usize)
            };
            self.length_fields.push((base + at + 2, width));
            at += 2 + width + len;
        }
        self.bytes.extend_from_slice(section);
    }

    fn peer_table(&mut self, peers: &[u32]) {
        let table = PeerIndexTable {
            collector_id: 1,
            view_name: "test".into(),
            peers: peers
                .iter()
                .map(|&asn| PeerEntry {
                    bgp_id: asn,
                    ip: vec![192, 0, 2, 1],
                    asn: Asn(asn),
                })
                .collect(),
        };
        let at = self.bytes.len();
        self.bytes
            .extend_from_slice(&encode_peer_index(&table, 0).unwrap());
        self.length_fields.push((at + 8, 4));
    }

    /// A BGP4MP_MESSAGE_AS4 record wrapping a BGP message of `msg_type`;
    /// `trailing` bytes follow the message inside the MRT body.
    #[allow(clippy::too_many_arguments)]
    fn bgp4mp(
        &mut self,
        timestamp: u32,
        peer: u32,
        v6_peer: bool,
        msg_type: u8,
        withdrawn: &[u8],
        attrs: &[u8],
        nlri: &[u8],
        trailing: &[u8],
    ) {
        self.record(timestamp, 16, 4, |a| {
            a.bytes.put_u32(peer);
            a.bytes.put_u32(0);
            a.bytes.put_u16(0);
            a.bytes.put_u16(if v6_peer { 2 } else { 1 });
            let ip_len = if v6_peer { 16 } else { 4 };
            a.bytes.extend(std::iter::repeat_n(9, 2 * ip_len));
            let message = a.bytes.len();
            a.bytes.extend_from_slice(&[0xFF; 16]);
            let bgp_len = a.reserve_len(2);
            a.bytes.put_u8(msg_type);
            if msg_type == 2 {
                let w = a.reserve_len(2);
                a.bytes.extend_from_slice(withdrawn);
                a.close_len(w, 2);
                let s = a.reserve_len(2);
                a.attributes(attrs);
                a.close_len(s, 2);
                a.bytes.extend_from_slice(nlri);
            }
            a.patch(bgp_len, 2, a.bytes.len() - message);
            a.bytes.extend_from_slice(trailing);
        });
    }

    /// A RIB_IPVx_UNICAST record over `(peer index, originated, attribute
    /// section)` entries; `trailing` bytes follow the last entry.
    fn rib(&mut self, v6: bool, entries: &[(u16, u32, Vec<u8>)], trailing: &[u8]) {
        self.record(7, 13, if v6 { 4 } else { 2 }, |a| {
            a.bytes.put_u32(0);
            let prefix: Prefix = if v6 {
                "2001:678::/32".parse().unwrap()
            } else {
                Prefix::v4([193, 0, 0, 0], 16)
            };
            encode_nlri_prefix(&mut a.bytes, &prefix);
            let count = a.reserve_len(2);
            a.patch(count, 2, entries.len());
            for (peer_idx, originated, attrs) in entries {
                a.bytes.put_u16(*peer_idx);
                a.bytes.put_u32(*originated);
                let len = a.reserve_len(2);
                a.attributes(attrs);
                a.close_len(len, 2);
            }
            a.bytes.extend_from_slice(trailing);
        });
    }
}

/// One attribute, by hand.
fn attr(flags: u8, type_code: u8, value: &[u8]) -> Vec<u8> {
    let mut out = vec![flags, type_code, value.len() as u8];
    out.extend_from_slice(value);
    out
}

/// An AS_PATH attribute of one AS_SEQUENCE.
fn as_path_attr(hops: &[u32]) -> Vec<u8> {
    let mut value = vec![2, hops.len() as u8];
    for &h in hops {
        value.put_u32(h);
    }
    attr(FLAG_TRANSITIVE, ATTR_AS_PATH, &value)
}

/// A COMMUNITIES attribute carrying `comms` in the order given.
fn communities_attr(comms: &[(u16, u16)]) -> Vec<u8> {
    let mut value = Vec::new();
    for &(upper, lower) in comms {
        value.put_u16(upper);
        value.put_u16(lower);
    }
    attr(FLAG_OPTIONAL | FLAG_TRANSITIVE, ATTR_COMMUNITIES, &value)
}

fn nlri(prefixes: &[Prefix]) -> Vec<u8> {
    let mut out = Vec::new();
    for p in prefixes {
        encode_nlri_prefix(&mut out, p);
    }
    out
}

const V4: Prefix = Prefix::V4 {
    net: u32::from_be_bytes([203, 0, 114, 0]),
    len: 24,
};

// ---------------------------------------------------------------------------
// Generated archives
// ---------------------------------------------------------------------------

/// An attribute section as the generator describes it.
#[derive(Debug, Clone)]
struct Attrs {
    attrs: PathAttributes,
    unknown: Vec<(u8, u8, Vec<u8>)>,
}

impl Attrs {
    fn encode(&self, mp_reach: &[Prefix]) -> Vec<u8> {
        encode_attributes(&self.attrs, mp_reach, &self.unknown).unwrap()
    }
}

#[derive(Debug, Clone)]
enum Rec {
    Table(Vec<u32>),
    Rib {
        v6: bool,
        entries: Vec<(u16, u32, Attrs)>,
    },
    Update {
        timestamp: u32,
        peer: u32,
        v6_peer: bool,
        withdrawn: Vec<Prefix>,
        announced: Vec<Prefix>,
        mp_reach: Vec<Prefix>,
        attrs: Attrs,
    },
}

/// The peers every generated table lists; hops are drawn around them so a
/// peer leading its own path, prepending and AS0 all come up often.
const PEERS: [u32; 3] = [64500, 64501, 3];

fn arb_hop() -> impl Strategy<Value = u32> {
    prop_oneof![1u32..5, 1u32..5, 64500u32..64502, 0u32..3, any::<u32>()]
}

fn arb_comm() -> impl Strategy<Value = AnyCommunity> {
    prop_oneof![
        (1u16..4, 0u16..4).prop_map(|(a, b)| AnyCommunity::regular(a, b)),
        (1u16..4, 0u16..4).prop_map(|(a, b)| AnyCommunity::regular(a, b)),
        (1u32..3, 0u32..2, 0u32..2).prop_map(|(a, b, c)| AnyCommunity::large(a, b, c)),
    ]
}

fn arb_attrs() -> impl Strategy<Value = Attrs> {
    (
        prop::collection::vec((0u8..6, prop::collection::vec(arb_hop(), 0..5)), 0..4),
        prop::collection::vec(arb_comm(), 0..5),
        0u8..8,
        prop::collection::vec(
            (any::<u8>(), prop::collection::vec(any::<u8>(), 0..6)),
            0..2,
        ),
        any::<bool>(),
    )
        .prop_map(|(segments, mut comms, wide, unknown, bare)| {
            if wide == 0 {
                // 70 regular communities: 280 bytes, an extended length.
                comms.extend((0..70).map(|i| AnyCommunity::regular(7, i)));
            }
            let segments = segments
                .into_iter()
                .map(|(kind, hops)| {
                    let hops = hops.into_iter().map(Asn).collect();
                    if kind == 0 {
                        PathSegment::Set(hops)
                    } else {
                        PathSegment::Sequence(hops)
                    }
                })
                .collect();
            Attrs {
                attrs: PathAttributes {
                    origin: (!bare).then_some(Origin::Igp),
                    as_path: RawAsPath { segments },
                    next_hop: (!bare).then_some([192, 0, 2, 1]),
                    communities: CommunitySet::from_iter(comms),
                },
                // Type codes no decoder arm claims: 128 and up.
                unknown: unknown
                    .into_iter()
                    .map(|(ty, val)| (FLAG_OPTIONAL | FLAG_TRANSITIVE, ty | 0x80, val))
                    .collect(),
            }
        })
}

fn arb_v4() -> impl Strategy<Value = Prefix> {
    (any::<u32>(), 0u8..=32).prop_map(|(net, len)| Prefix::v4(net.to_be_bytes(), len))
}

fn arb_v6() -> impl Strategy<Value = Prefix> {
    (any::<u64>(), 0u8..=128).prop_map(|(net, len)| {
        let mut o = [0u8; 16];
        o[..8].copy_from_slice(&net.to_be_bytes());
        Prefix::v6(o, len)
    })
}

fn arb_rib() -> impl Strategy<Value = Rec> {
    (
        any::<bool>(),
        prop::collection::vec((0u16..3, any::<u32>(), arb_attrs()), 0..5),
    )
        .prop_map(|(v6, entries)| Rec::Rib { v6, entries })
}

fn arb_update() -> impl Strategy<Value = Rec> {
    (
        (any::<u32>(), 0usize..4, any::<bool>()),
        prop::collection::vec(arb_v4(), 0..3),
        prop::collection::vec(arb_v4(), 0..3),
        prop::collection::vec(arb_v6(), 0..2),
        arb_attrs(),
    )
        .prop_map(
            |((timestamp, peer, v6_peer), withdrawn, announced, mp_reach, attrs)| Rec::Update {
                timestamp,
                // Index 3 is a peer no path and no table mentions.
                peer: PEERS.get(peer).copied().unwrap_or(65000),
                v6_peer,
                withdrawn,
                announced,
                mp_reach,
                attrs,
            },
        )
}

fn arb_archive() -> impl Strategy<Value = Archive> {
    (
        0u8..8,
        prop::collection::vec(
            prop_oneof![
                arb_rib(),
                arb_rib(),
                arb_update(),
                arb_update(),
                arb_update(),
                (0u8..1).prop_map(|_| Rec::Table(PEERS.to_vec())),
            ],
            0..10,
        ),
    )
        .prop_map(|(no_table, records)| {
            let mut a = Archive::default();
            if no_table != 0 {
                a.peer_table(&PEERS);
            }
            for r in &records {
                match r {
                    Rec::Table(peers) => a.peer_table(peers),
                    Rec::Rib { v6, entries } => {
                        let entries: Vec<(u16, u32, Vec<u8>)> = entries
                            .iter()
                            .map(|(idx, originated, attrs)| (*idx, *originated, attrs.encode(&[])))
                            .collect();
                        a.rib(*v6, &entries, &[]);
                    }
                    Rec::Update {
                        timestamp,
                        peer,
                        v6_peer,
                        withdrawn,
                        announced,
                        mp_reach,
                        attrs,
                    } => a.bgp4mp(
                        *timestamp,
                        *peer,
                        *v6_peer,
                        2,
                        &nlri(withdrawn),
                        &attrs.encode(mp_reach),
                        &nlri(announced),
                        &[],
                    ),
                }
            }
            a
        })
}

/// The archive as generated, then cut short, then with one bit flipped,
/// then with one length field overwritten.
fn check_archive_and_its_damage(
    archive: &Archive,
    cut: prop::sample::Index,
    flip: prop::sample::Index,
    field: prop::sample::Index,
    value: u32,
) {
    let bytes = &archive.bytes;
    let (steps, _) = assert_walk_matches_oracle(bytes);
    assert!(
        steps.iter().all(|(item, _)| item.is_ok()),
        "a generated archive decodes cleanly: {steps:?}"
    );
    if bytes.is_empty() {
        return;
    }

    assert_walk_matches_oracle(&bytes[..cut.index(bytes.len())]);

    let mut flipped = bytes.clone();
    let bit = flip.index(bytes.len() * 8);
    flipped[bit / 8] ^= 1 << (bit % 8);
    assert_walk_matches_oracle(&flipped);

    let (at, width) = archive.length_fields[field.index(archive.length_fields.len())];
    let mut current = [0u8; 8];
    current[8 - width..].copy_from_slice(&bytes[at..at + width]);
    let current = u64::from_be_bytes(current);
    // Off by one either way, zero, a small value, anything.
    let new = match value % 5 {
        0 => current.wrapping_add(1),
        1 => current.wrapping_sub(1),
        2 => 0,
        3 => (value / 5 % 64) as u64,
        _ => value as u64,
    };
    let mut relengthed = archive.clone();
    relengthed.patch(at, width, new as usize);
    assert_walk_matches_oracle(&relengthed.bytes);
}

proptest! {
    #[test]
    fn walk_matches_oracle_on_generated_and_damaged_archives(
        archive in arb_archive(),
        cut in any::<prop::sample::Index>(),
        flip in any::<prop::sample::Index>(),
        field in any::<prop::sample::Index>(),
        value in any::<u32>(),
    ) {
        check_archive_and_its_damage(&archive, cut, flip, field, value);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    /// The same property at length; CI runs it in release.
    #[test]
    #[ignore = "long: run with --release -- --ignored"]
    fn walk_matches_oracle_at_length(
        archive in arb_archive(),
        cut in any::<prop::sample::Index>(),
        flip in any::<prop::sample::Index>(),
        field in any::<prop::sample::Index>(),
        value in any::<u32>(),
    ) {
        check_archive_and_its_damage(&archive, cut, flip, field, value);
    }
}

#[test]
fn the_generator_reaches_the_shapes_it_is_for() {
    // The differential is only worth what the generator draws: count the
    // shapes that need luck over as many cases as the default run has.
    let mut seen = std::collections::BTreeMap::<&str, u32>::new();
    let mut hit = |what: &'static str, yes: bool| *seen.entry(what).or_default() += yes as u32;
    for case in 0..ProptestConfig::default().cases {
        let mut rng = proptest::TestRng::for_case("coverage", case);
        let archive = arb_archive().sample(&mut rng);
        let (steps, (raw, kept, dropped)) = walked(&archive.bytes);
        hit("tuples", kept > 0);
        hit("shape drops", dropped > 0);
        hit("withdrawals", raw > kept + dropped);
        hit(
            "wide community sets",
            steps
                .iter()
                .any(|(i, _)| i.as_ref().is_ok_and(|(_, t)| t.comm.len() >= 64)),
        );
        hit(
            "peer prepended",
            steps
                .iter()
                .any(|(i, _)| i.as_ref().is_ok_and(|(_, t)| t.path.peer() == Asn(65000))),
        );
    }
    assert!(seen.values().all(|&n| n > 0), "{seen:?}");
}

// ---------------------------------------------------------------------------
// Hand-built records the encoder cannot emit
// ---------------------------------------------------------------------------

/// An ordinary announcement, to show what the stream does after a record.
fn follow_up(a: &mut Archive) {
    let attrs = [as_path_attr(&[64500, 174]), communities_attr(&[(174, 1)])].concat();
    a.bgp4mp(900, 64500, false, 2, &[], &attrs, &nlri(&[V4]), &[]);
}

fn tuple(hops: &[u32], comms: &[(u16, u16)]) -> PathCommTuple {
    PathCommTuple::new(
        path(hops),
        CommunitySet::from_iter(comms.iter().map(|&(a, b)| AnyCommunity::regular(a, b))),
    )
}

#[test]
fn hand_built_records_match_the_oracle() {
    let path_attr = as_path_attr(&[64500, 3356]);
    let follow = (900, tuple(&[64500, 174], &[(174, 1)]));
    // (what, archive, the items expected; `None` ends the list with an error).
    let mut table: Vec<(&str, Archive, Vec<Option<Item>>)> = Vec::new();
    let mut case = |what, build: &dyn Fn(&mut Archive), expect| {
        let mut a = Archive::default();
        a.peer_table(&PEERS);
        build(&mut a);
        follow_up(&mut a);
        table.push((what, a, expect));
    };

    let unsorted = communities_attr(&[(3, 3), (1, 1), (3, 3), (2, 2), (1, 1)]);
    case(
        "communities unsorted and duplicated on the wire",
        &|a| {
            let attrs = [path_attr.clone(), unsorted.clone()].concat();
            a.bgp4mp(100, 64500, false, 2, &[], &attrs, &nlri(&[V4]), &[]);
            a.rib(false, &[(0, 101, attrs)], &[]);
        },
        vec![
            Some((100, tuple(&[64500, 3356], &[(1, 1), (2, 2), (3, 3)]))),
            Some((101, tuple(&[64500, 3356], &[(1, 1), (2, 2), (3, 3)]))),
            Some(follow.clone()),
        ],
    );
    case(
        "AS_PATH twice: the second overwrites the first",
        &|a| {
            let attrs = [path_attr.clone(), as_path_attr(&[64500, 2914, 7])].concat();
            a.bgp4mp(100, 64500, false, 2, &[], &attrs, &nlri(&[V4]), &[]);
        },
        vec![
            Some((100, tuple(&[64500, 2914, 7], &[]))),
            Some(follow.clone()),
        ],
    );
    case(
        "COMMUNITIES twice: the second is unioned into the first",
        &|a| {
            let attrs = [
                path_attr.clone(),
                communities_attr(&[(2, 2)]),
                communities_attr(&[(1, 1), (2, 2)]),
            ]
            .concat();
            a.rib(true, &[(1, 100, attrs)], &[]);
        },
        vec![
            Some((100, tuple(&[64501, 64500, 3356], &[(1, 1), (2, 2)]))),
            Some(follow.clone()),
        ],
    );
    case(
        "a KEEPALIVE in a BGP4MP record",
        &|a| a.bgp4mp(100, 64500, false, 4, &[], &[], &[], &[]),
        vec![None],
    );
    case(
        "a peer index out of range, after a good entry",
        &|a| {
            a.rib(
                false,
                &[(0, 100, path_attr.clone()), (3, 100, path_attr.clone())],
                &[],
            )
        },
        vec![None],
    );
    case(
        "trailing bytes after the last RIB entry and after the BGP message",
        &|a| {
            a.rib(false, &[(0, 100, path_attr.clone())], &[0xAB; 5]);
            a.bgp4mp(
                101,
                64500,
                false,
                2,
                &[],
                &path_attr,
                &nlri(&[V4]),
                &[0xCD; 3],
            );
        },
        vec![
            Some((100, tuple(&[64500, 3356], &[]))),
            Some((101, tuple(&[64500, 3356], &[]))),
            Some(follow.clone()),
        ],
    );
    let v6: Prefix = "2001:678:4::/48".parse().unwrap();
    case(
        "an update whose only announcement is in MP_REACH",
        &|a| {
            let mut mp_reach = vec![0, 2, 1, 16];
            mp_reach.extend_from_slice(&[0; 17]);
            encode_nlri_prefix(&mut mp_reach, &v6);
            let attrs = [
                path_attr.clone(),
                attr(FLAG_OPTIONAL, ATTR_MP_REACH_NLRI, &mp_reach),
            ]
            .concat();
            a.bgp4mp(100, 64500, true, 2, &nlri(&[V4]), &attrs, &[], &[]);
        },
        vec![
            Some((100, tuple(&[64500, 3356], &[]))),
            Some(follow.clone()),
        ],
    );
    case(
        "an MP_REACH that announces nothing, beside a withdrawal",
        &|a| {
            let mut mp_reach = vec![0, 2, 1, 16];
            mp_reach.extend_from_slice(&[0; 17]);
            let attrs = [
                path_attr.clone(),
                attr(FLAG_OPTIONAL, ATTR_MP_REACH_NLRI, &mp_reach),
            ]
            .concat();
            a.bgp4mp(100, 64500, false, 2, &nlri(&[V4]), &attrs, &[], &[]);
        },
        vec![Some(follow.clone())],
    );

    // No peer table before the RIB record: every peer resolves to AS0,
    // which sanitation drops.
    let mut no_table = Archive::default();
    no_table.rib(false, &[(0, 100, path_attr.clone())], &[]);
    follow_up(&mut no_table);
    table.push((
        "a RIB record with no peer table before it",
        no_table,
        vec![Some(follow.clone())],
    ));

    for (what, archive, expect) in table {
        let (steps, _) = assert_walk_matches_oracle(&archive.bytes);
        let got: Vec<Option<Item>> = steps.into_iter().map(|(item, _)| item.ok()).collect();
        assert_eq!(got, expect, "{what}");
    }
}

#[test]
fn tuple_stream_counts_and_tuples_match_borrowing_sanitation() {
    // RIB entries, announcements and a withdrawal, over lone sequences,
    // multi-segment and AS_SET paths, a missing peer, prepending, an
    // empty path, and an AS0 path that sanitation drops.
    let seq = |hops: &[u32]| PathSegment::Sequence(hops.iter().map(|&v| Asn(v)).collect());
    let set = |hops: &[u32]| PathSegment::Set(hops.iter().map(|&v| Asn(v)).collect());
    let paths = [
        vec![seq(&[64500, 64500, 3356])],
        vec![seq(&[3356, 174])], // peer 64500 absent
        vec![seq(&[64500, 3356]), set(&[7, 8]), seq(&[9])],
        vec![seq(&[64500]), seq(&[64500, 2914])],
        vec![seq(&[64500, 0, 174])], // AS0: dropped
        vec![],                      // becomes the peer alone
    ];
    let sections: Vec<Vec<u8>> = paths
        .into_iter()
        .map(|segments| {
            let attrs = PathAttributes {
                as_path: RawAsPath { segments },
                communities: CommunitySet::from_iter([AnyCommunity::regular(3356, 9)]),
                ..Default::default()
            };
            encode_attributes(&attrs, &[], &[]).unwrap()
        })
        .collect();
    let mut a = Archive::default();
    a.peer_table(&PEERS);
    let group: Vec<(u16, u32, Vec<u8>)> = sections.iter().map(|s| (0, 5, s.clone())).collect();
    a.rib(false, &group, &[]);
    for (i, s) in sections.iter().enumerate() {
        a.bgp4mp(100 + i as u32, 64500, false, 2, &[], s, &nlri(&[V4]), &[]);
    }
    a.bgp4mp(200, 64500, false, 2, &nlri(&[V4]), &sections[0], &[], &[]);

    let (steps, counters) = assert_walk_matches_oracle(&a.bytes);
    assert_eq!(steps.len(), 10);
    // 6 RIB + 6 announcements + 1 withdrawal; 10 kept; 2 AS0 paths dropped.
    assert_eq!(counters, (13, 10, 2));
}

#[test]
fn a_long_path_and_a_wide_set_keep_their_full_lengths() {
    // 300 hops over two AS_SEQUENCE segments (one holds at most 255), 260
    // regular and 20 large communities: some 2.5 KB of attributes, inside
    // one 4,096-byte UPDATE, and every length past a `u8`.
    let hops: Vec<Asn> = (1..=300).map(Asn).collect();
    let comms = (0..260u16)
        .map(|i| AnyCommunity::regular(300, i))
        .chain((0..20).map(|i| AnyCommunity::large(70_000, i, 1)));
    let msg = UpdateMessage::announcement(
        Asn(1),
        77,
        V4,
        RawAsPath {
            segments: vec![
                PathSegment::Sequence(hops[..200].to_vec()),
                PathSegment::Sequence(hops[200..].to_vec()),
            ],
        },
        CommunitySet::from_iter(comms),
    );
    let mut w = bgp_mrt::MrtWriter::new();
    w.write_update(&msg).unwrap();
    w.write_update(&msg).unwrap();
    let bytes = w.into_bytes();
    assert!(bytes.len() / 2 < 4096, "{} bytes a record", bytes.len() / 2);

    let (steps, totals) = assert_walk_matches_oracle(&bytes);
    assert_eq!(totals, (2, 2, 0));
    let (_, tuple) = steps[0].0.clone().unwrap();
    assert_eq!(tuple.path.asns(), hops);
    assert_eq!((tuple.comm.len(), tuple.comm.large_count()), (280, 20));

    // Lent record → dedup table → sorted owned view: the same tuple, once.
    let mut set = TupleSet::new();
    let mut stream = TupleStream::new(&bytes);
    let mut fresh = Vec::new();
    while let Some(item) = stream.next_ref() {
        let (_, lent) = item.unwrap();
        assert_eq!((lent.path_len(), lent.communities().count()), (300, 280));
        fresh.push(set.insert_ref(lent));
    }
    assert_eq!(fresh, [true, false]);
    assert_eq!(set.to_vec(), [tuple]);
}
