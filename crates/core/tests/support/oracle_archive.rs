//! The MRT archive the CLI oracle tests run their binary over
//! (`cli_oracle.rs` here and in `crates/stream/tests`, which includes
//! this file by path), and what the oracle reads of it.

use bgp_mrt::{MrtWriter, PeerEntry, PeerIndexTable, RibGroup};
use bgp_types::prelude::*;
use std::path::PathBuf;

const PEERS: [u32; 3] = [64500, 64501, 3320];

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

/// A peer table, two RIB groups (one entry behind AS0, which §4.1
/// sanitation drops; one peer prepending itself), and 24 announcements
/// carrying 8 distinct tuples three times each.
pub fn archive() -> Vec<u8> {
    let mut w = MrtWriter::new();
    let table = PeerIndexTable {
        collector_id: 1,
        view_name: "oracle".into(),
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
    let groups = [
        vec![
            (0, 0, attrs(&[64500, 3356, 1000], &[(3356, 1), (64500, 7)])),
            (1, 0, attrs(&[64501, 64501, 174, 1000], &[(174, 2)])),
            (2, 0, attrs(&[3320, 0, 1000], &[(3320, 1)])),
        ],
        vec![
            (0, 0, attrs(&[64500, 174, 2000], &[(64500, 1), (174, 5)])),
            (1, 0, attrs(&[64501, 3356, 2000], &[(3356, 1)])),
            (
                2,
                0,
                attrs(&[3320, 3356, 174, 2000], &[(3320, 9), (174, 5)]),
            ),
        ],
    ];
    for (g, entries) in groups.into_iter().enumerate() {
        let group = RibGroup {
            sequence: g as u32,
            prefix: Prefix::v4([10, 0, g as u8, 0], 24),
            entries,
        };
        w.write_rib_group(&group, 0).unwrap();
    }
    for u in 0..24u32 {
        let peer = PEERS[u as usize % 2];
        let origin = 3000 + (u / 2) % 4;
        let comms: &[(u16, u16)] = if origin % 2 == 0 {
            &[(3356, 1), (174, 2)]
        } else {
            &[(174, 2)]
        };
        let msg = UpdateMessage::announcement(
            Asn(peer),
            u64::from(u),
            Prefix::v4([20, 0, u as u8, 0], 24),
            attrs(&[peer, 3356, 174, origin], &[]).as_path,
            attrs(&[], comms).communities,
        );
        w.write_update(&msg).unwrap();
    }
    w.into_bytes()
}

/// The archive's sanitized tuples, deduplicated and sorted: what the
/// oracle counts.
pub fn unique_tuples(bytes: &[u8]) -> Vec<PathCommTuple> {
    let (tuples, _) = bgp_mrt::extract_tuples(bytes).unwrap();
    tuples.into_iter().collect::<TupleSet>().into_sorted_vec()
}

/// A fresh directory under Cargo's per-target temp dir, removed on drop.
pub struct TempDir(pub PathBuf);

impl TempDir {
    pub fn new(name: &str) -> TempDir {
        let dir = TempDir(PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name));
        std::fs::create_dir_all(&dir.0).unwrap();
        dir
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
