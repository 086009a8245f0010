//! `bgp-community-infer` end to end against the oracle: a small MRT
//! archive written to disk, the binary run over it, and its db compared
//! byte for byte with the reference engine's export over the same
//! sorted, deduplicated tuples. The engine switches the binary once had
//! are refused.

use bgp_infer::prelude::*;
use bgp_mrt::{MrtWriter, PeerEntry, PeerIndexTable, RibGroup};
use bgp_types::prelude::*;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

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
fn archive() -> Vec<u8> {
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

fn infer(args: &[&str], input: &Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_bgp-community-infer"))
        .args(args)
        .arg(input)
        .output()
        .expect("spawn bgp-community-infer")
}

/// A fresh directory under Cargo's per-target temp dir, removed on drop.
struct TempDir(PathBuf);

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[test]
fn the_db_is_the_reference_engines_export() {
    let dir = TempDir(Path::new(env!("CARGO_TARGET_TMPDIR")).join("cli-oracle"));
    std::fs::create_dir_all(&dir.0).unwrap();
    let input = dir.0.join("day.mrt");
    let bytes = archive();
    std::fs::write(&input, &bytes).unwrap();

    // The archive is what it says: repeats and a dropped path.
    let (tuples, entries) = bgp_mrt::extract_tuples(&bytes).unwrap();
    assert_eq!(entries, 6 + 24);
    assert_eq!(tuples.len(), 5 + 24, "the AS0 path is dropped");
    assert!(tuples.iter().all(|t| !t.path.asns().contains(&Asn(0))));
    let mut set = TupleSet::new();
    for t in tuples {
        set.insert(t);
    }
    let sorted = set.into_sorted_vec();
    assert_eq!(sorted.len(), 5 + 8);

    for (args, t) in [(&[][..], 0.99), (&["-t", "0.75"][..], 0.75)] {
        let db = dir.0.join(format!("db-{t}"));
        let mut argv = args.to_vec();
        argv.extend(["-o", db.to_str().unwrap()]);
        let out = infer(&argv, &input);
        assert!(
            out.status.success(),
            "{argv:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let got = std::fs::read_to_string(&db).unwrap();
        let want = export(
            &InferenceEngine::new(InferenceConfig::with_threshold(t)).run_reference(&sorted),
        );
        assert!(want.lines().count() > 2, "the oracle classified something");
        assert_eq!(got, want, "{argv:?}");
    }
}

#[test]
fn engine_switches_are_unknown_options() {
    for args in [&["-j", "2"][..], &["--reference"], &["--row-based"]] {
        let out = infer(args, Path::new("unused.mrt"));
        assert_eq!(out.status.code(), Some(1), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("unknown option"), "{args:?}: {stderr}");
    }
}
