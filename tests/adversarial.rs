//! Failure injection and adversarial inputs across the pipeline: the
//! codec must error (never panic) on corrupt archives; sanitation must
//! neutralize pathological paths; the inference must stay sane on
//! degenerate datasets.

use bgp_community_usage::mrt;
use bgp_community_usage::prelude::*;

fn sample_update() -> UpdateMessage {
    UpdateMessage::announcement(
        Asn(60500),
        0,
        Prefix::v4([16, 0, 1, 0], 24),
        RawAsPath::from_sequence(vec![Asn(60500), Asn(3356), Asn(15169)]),
        CommunitySet::from_iter([AnyCommunity::regular(3356, 1)]),
    )
}

#[test]
fn every_truncation_point_errors_cleanly() {
    let bytes = mrt::record::encode_update(&sample_update()).unwrap();
    for cut in 0..bytes.len() {
        let results: Vec<_> = mrt::MrtReader::new(&bytes[..cut]).collect();
        // Either nothing (cut == 0) or exactly one error.
        if cut == 0 {
            assert!(results.is_empty());
        } else {
            assert_eq!(results.len(), 1);
            assert!(results[0].is_err(), "cut at {cut} decoded?!");
        }
    }
}

#[test]
fn bitflip_storm_never_panics() {
    let base = mrt::record::encode_update(&sample_update()).unwrap();
    for i in 0..base.len() {
        for bit in 0..8 {
            let mut bytes = base.clone();
            bytes[i] ^= 1 << bit;
            for r in mrt::MrtReader::new(&bytes) {
                let _ = r; // decoding may fail or succeed; it must not panic
            }
        }
    }
}

#[test]
fn as_set_only_paths_are_dropped() {
    let sanitizer = Sanitizer::permissive();
    let mut set = TupleSet::new();
    let mut u = sample_update();
    u.attributes.as_path = RawAsPath {
        segments: vec![PathSegment::Set(vec![Asn(1), Asn(2)])],
    };
    // Peer prepend still applies, so the path becomes just the peer.
    let stats = sanitizer.ingest_updates([&u], &mut set);
    assert_eq!(stats.kept, 1);
    let t = set.iter().next().unwrap();
    assert!(t.hops().eq([Asn(60500)]));
}

#[test]
fn heavy_prepending_collapses() {
    let sanitizer = Sanitizer::permissive();
    let mut set = TupleSet::new();
    let mut u = sample_update();
    let mut path = vec![Asn(60500)];
    for _ in 0..200 {
        path.push(Asn(3356));
    }
    path.push(Asn(15169));
    u.attributes.as_path = RawAsPath::from_sequence(path);
    sanitizer.ingest_updates([&u], &mut set);
    let t = set.iter().next().unwrap();
    assert_eq!(t.path_len(), 3);
}

#[test]
fn inference_on_contradiction_storm_stays_undecided() {
    // Adversary alternates a peer's tagging every other tuple: the engine
    // must refuse to decide rather than flap.
    let mut tuples = Vec::new();
    for i in 0..200u32 {
        let comm = if i % 2 == 0 {
            CommunitySet::from_iter([AnyCommunity::regular(10, 1)])
        } else {
            CommunitySet::new()
        };
        tuples.push(PathCommTuple::new(path(&[10, 1000 + i]), comm));
    }
    let outcome = InferenceEngine::new(InferenceConfig::default()).run(&tuples);
    assert_eq!(outcome.class_of(Asn(10)).tagging, TaggingClass::Undecided);
}

#[test]
fn inference_ignores_adversarial_stray_floods() {
    // Flood every tuple with communities naming off-path and private ASNs:
    // classifications must be identical to the clean run.
    let clean: Vec<PathCommTuple> = (0..100u32)
        .map(|i| {
            PathCommTuple::new(
                path(&[10, 20, 1000 + i]),
                CommunitySet::from_iter([AnyCommunity::regular(20, 5)]),
            )
        })
        .collect();
    let flooded: Vec<PathCommTuple> = clean
        .iter()
        .map(|t| {
            let mut c = t.comm.clone();
            for j in 0..20u16 {
                c.insert(AnyCommunity::regular(30_000 + j, j)); // stray
                c.insert(AnyCommunity::regular(64_512 + j, j)); // private
            }
            PathCommTuple::new(t.path.clone(), c)
        })
        .collect();
    let cfg = InferenceConfig::default();
    let a = InferenceEngine::new(cfg.clone()).run(&clean);
    let b = InferenceEngine::new(cfg).run(&flooded);
    assert_eq!(a.classes(), b.classes());
}

#[test]
fn empty_and_single_as_paths_handled() {
    let tuples = vec![
        PathCommTuple::new(path(&[7]), CommunitySet::new()),
        PathCommTuple::new(
            path(&[8]),
            CommunitySet::from_iter([AnyCommunity::regular(8, 1)]),
        ),
    ];
    let outcome = InferenceEngine::new(InferenceConfig::default()).run(&tuples);
    assert_eq!(outcome.class_of(Asn(7)).tagging, TaggingClass::Silent);
    assert_eq!(outcome.class_of(Asn(8)).tagging, TaggingClass::Tagger);
    // Origin-only peers have no forwarding evidence.
    assert_eq!(outcome.class_of(Asn(7)).forwarding, ForwardingClass::None);
}

#[test]
fn db_import_rejects_adversarial_payloads() {
    use bgp_community_usage::infer::db;
    for garbage in [
        "999999999999999999999\ttf\t1 2 3 4", // asn overflow
        "12\ttf\t1 2 3",                      // short counters
        "12\ttf\tx y z w",                    // non-numeric
        "# thresholds tagger=nope",           // bad header
    ] {
        assert!(db::import(garbage).is_err(), "{garbage:?} accepted");
    }
}

#[test]
fn malformed_rib_peer_index_rejected_not_panicking() {
    // A RIB record referencing a peer index beyond the table.
    let table = mrt::PeerIndexTable {
        collector_id: 1,
        view_name: "x".into(),
        peers: vec![mrt::PeerEntry {
            bgp_id: 1,
            ip: vec![10, 0, 0, 1],
            asn: Asn(1),
        }],
    };
    let group = mrt::RibGroup {
        sequence: 0,
        prefix: Prefix::v4([16, 0, 0, 0], 16),
        entries: vec![(7, 0, PathAttributes::default())], // index 7 of 1
    };
    let mut w = mrt::MrtWriter::new();
    w.write_peer_index(&table, 0).unwrap();
    w.write_rib_group(&group, 0).unwrap();
    let results: Vec<_> = mrt::MrtReader::new(w.as_bytes()).collect();
    assert!(results[0].is_ok());
    assert!(results[1].is_err());
}
