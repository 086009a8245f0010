//! What extraction may allocate, counted.
//!
//! This file is its own test binary so that the counting
//! `#[global_allocator]` of `support/counting_alloc.rs` is seen by no other
//! suite. Counts are kept per thread, so the tests here do not see each
//! other's either.

#[path = "support/counting_alloc.rs"]
mod counting_alloc;

use bgp_mrt::record::{PeerEntry, RibGroup};
use bgp_mrt::{MrtError, MrtHeader, MrtReader, MrtWriter, PeerIndexTable, TupleStream};
use bgp_types::prelude::*;
use counting_alloc::requested_by;

fn attrs(hops: &[u32], comms: &[(u16, u16)]) -> PathAttributes {
    PathAttributes {
        origin: Some(Origin::Igp),
        as_path: RawAsPath::from_sequence(hops.iter().map(|&h| Asn(h)).collect()),
        next_hop: Some([192, 0, 2, 1]),
        communities: CommunitySet::from_iter(
            comms.iter().map(|&(a, b)| AnyCommunity::regular(a, b)),
        ),
    }
}

/// 3,200 entries: 2,400 kept tuples, all distinct, 300 dropped paths, 500
/// withdrawals.
fn budget_archive() -> Vec<u8> {
    const PEERS: [u32; 4] = [64500, 64501, 64502, 64503];
    let mut w = MrtWriter::new();
    let table = PeerIndexTable {
        collector_id: 1,
        view_name: "budget".into(),
        peers: PEERS
            .iter()
            .map(|&asn| PeerEntry {
                bgp_id: asn,
                ip: vec![192, 0, 2, 1],
                asn: Asn(asn),
            })
            .collect(),
    };
    w.write_peer_index(&table, 0).unwrap();
    // 300 RIB groups of four entries: peers leading their own path, a
    // prepending one, one absent from its path, one behind AS0 (dropped).
    for g in 0..300u32 {
        let group = RibGroup {
            sequence: g,
            prefix: Prefix::v4(g.to_be_bytes(), 24),
            entries: vec![
                (0, g, attrs(&[64500, 3356, 1000 + g], &[(3356, 1)])),
                (1, g, attrs(&[64501, 64501, 174, 1000 + g], &[])),
                (2, g, attrs(&[2914, 1000 + g], &[(2914, 1), (2914, 2)])),
                (3, g, attrs(&[64503, 0, 1000 + g], &[(1, 1)])),
            ],
        };
        w.write_rib_group(&group, 0).unwrap();
    }
    // 1,500 announcements, every third one followed by a withdrawal.
    for u in 0..1500u32 {
        let peer = PEERS[u as usize % 4];
        let mut msg = UpdateMessage::announcement(
            Asn(peer),
            u as u64,
            Prefix::v4(u.to_be_bytes(), 24),
            attrs(&[peer, 3356, 174, 2000 + u], &[]).as_path,
            attrs(&[], &[(3356, (u % 7) as u16)]).communities,
        );
        w.write_update(&msg).unwrap();
        if u % 3 == 0 {
            msg.withdrawn = std::mem::take(&mut msg.announced);
            w.write_update(&msg).unwrap();
        }
    }
    w.into_bytes()
}

fn assert_budget_counters(stream: &TupleStream<'_>) {
    assert_eq!(stream.raw_entries(), 300 * 4 + 1500 + 500);
    assert_eq!(stream.kept(), 300 * 3 + 1500);
    assert_eq!(stream.shape_dropped(), 300);
}

#[test]
fn draining_a_well_formed_archive_allocates_what_the_tuples_hold() {
    let bytes = budget_archive();
    let mut stream = TupleStream::new(&bytes);
    let (payload, allocations, requested) = requested_by(|| {
        let mut payload = 0u64;
        for item in &mut stream {
            let (_, tuple) = item.unwrap();
            payload += (std::mem::size_of::<Asn>() * tuple.path.len()
                + std::mem::size_of::<AnyCommunity>() * tuple.comm.len())
                as u64;
        }
        payload
    });
    assert_budget_counters(&stream);

    // The owning iterator: a path and, unless it is empty, a set per kept
    // tuple; nothing for a withdrawal or a dropped path. The slack covers
    // the peer table (the full decoder's, a dozen small vectors) and the
    // growth of the scratch buffers and the record queue. Whole-record
    // decoding spends three to five allocations an entry and fails this
    // several times over; so would well-formed records that took the
    // fallback.
    let kept = stream.kept();
    assert!(
        allocations <= 2 * kept + 64,
        "{allocations} allocations for {kept} tuples"
    );
    // Exact-size buffers: the bytes requested are the bytes the tuples hold.
    assert!(
        requested <= payload + 4096,
        "{requested} bytes requested for {payload} bytes of tuples"
    );
}

#[test]
fn a_lending_drain_into_a_set_allocates_a_constant_and_the_doublings() {
    let bytes = budget_archive();
    let mut stream = TupleStream::new(&bytes);
    let (set, allocations, _) = requested_by(|| {
        let mut set = TupleSet::new();
        while let Some(item) = stream.next_ref() {
            set.insert_ref(item.unwrap().1);
        }
        set
    });
    assert_budget_counters(&stream);
    assert_eq!(set.total_ingested(), 2400);
    assert_eq!(
        set.len(),
        2400,
        "every kept tuple of this archive is distinct"
    );

    // Nothing per entry: the scratch buffers and the record queue growing
    // to their working size, the peer table, and the set's arena and index
    // doubling as 2,400 records arrive.
    assert!(
        allocations <= 64,
        "{allocations} allocations to take in {} tuples",
        stream.kept()
    );
}

/// A record header and `body`.
fn record(mrt_type: u16, subtype: u16, body: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    MrtHeader {
        timestamp: 0,
        mrt_type,
        subtype,
        length: body.len() as u32,
    }
    .encode(&mut out);
    out.extend_from_slice(body);
    out
}

#[test]
fn a_hostile_count_reserves_no_more_than_the_body_can_hold() {
    // RIB_IPV4_UNICAST: sequence 0, prefix 0/0, 65,535 entries, no bytes.
    let rib = record(13, 2, &[0, 0, 0, 0, 0, 0xFF, 0xFF]);
    assert_eq!(rib.len(), 19);
    let rib_err = MrtError::Truncated {
        context: "rib peer index",
        needed: 2,
    };
    // PEER_INDEX_TABLE: collector 0, empty view name, 65,535 peers, no bytes.
    let peers = record(13, 1, &[0, 0, 0, 0, 0, 0, 0xFF, 0xFF]);
    let peers_err = MrtError::Truncated {
        context: "peer type",
        needed: 1,
    };
    for (bytes, err) in [(rib, rib_err), (peers, peers_err)] {
        let (got, _, requested) = requested_by(|| MrtReader::new(&bytes).read_all());
        assert_eq!(got, Err(err.clone()));
        assert!(
            requested < 64 << 10,
            "MrtReader requested {requested} bytes"
        );
        let (got, _, requested) =
            requested_by(|| TupleStream::new(&bytes).collect::<Result<Vec<_>, _>>());
        assert_eq!(got, Err(err));
        assert!(
            requested < 64 << 10,
            "TupleStream requested {requested} bytes"
        );
    }
}
