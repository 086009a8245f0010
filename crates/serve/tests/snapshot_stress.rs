//! Hot-swap stress: N reader threads query the slot while the writer
//! seals epochs as fast as it can.
//!
//! Invariants under test:
//!
//! * **No mixed-epoch views** — every snapshot a reader obtains matches
//!   the fingerprint the writer computed for that exact version before
//!   publishing it (any cross-epoch tearing changes the fingerprint);
//! * **Monotone versions** — per reader, observed versions never
//!   decrease, and every observed version is one the writer published;
//! * **Immutability** — a retained snapshot's contents are identical
//!   before and after later seals.

use bgp_infer::counters::Thresholds;
use bgp_serve::prelude::*;
use bgp_stream::epoch::EpochPolicy;
use bgp_stream::ingest::StreamEvent;
use bgp_stream::pipeline::{StreamConfig, StreamPipeline};
use bgp_types::prelude::*;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

const EPOCHS: u64 = 150;
const READERS: usize = 4;

/// Order-insensitive content fingerprint of a snapshot's record table,
/// mixed with its version so cross-version tearing cannot cancel out.
fn fingerprint(version: u64, records: &[bgp_infer::db::DbRecord]) -> u64 {
    let mut acc = version.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    for r in records {
        let mut h = r.asn.0 as u64;
        h = h
            .wrapping_mul(31)
            .wrapping_add(r.counters.t)
            .wrapping_mul(31)
            .wrapping_add(r.counters.s)
            .wrapping_mul(31)
            .wrapping_add(r.counters.f)
            .wrapping_mul(31)
            .wrapping_add(r.counters.c)
            .wrapping_mul(31)
            .wrapping_add(r.class.as_str().as_bytes()[0] as u64);
        acc = acc.wrapping_add(h.wrapping_mul(0x100_0000_01b3));
    }
    acc
}

#[test]
fn readers_never_observe_mixed_epochs() {
    let slot = Arc::new(SnapshotSlot::new(Thresholds::default()));
    let fingerprints: Arc<Mutex<HashMap<u64, u64>>> = Arc::new(Mutex::new(HashMap::new()));
    let done = Arc::new(AtomicBool::new(false));

    let readers: Vec<_> = (0..READERS)
        .map(|_| {
            let slot = Arc::clone(&slot);
            let fingerprints = Arc::clone(&fingerprints);
            let done = Arc::clone(&done);
            std::thread::spawn(move || {
                let mut reader = slot.reader();
                let mut last_version = 0u64;
                let mut observed = 0u64;
                let mut retained: Option<(Arc<ServeSnapshot>, u64)> = None;
                while !done.load(Ordering::Acquire) || last_version < EPOCHS {
                    let snap = Arc::clone(reader.current());
                    let version = snap.version();
                    assert!(
                        version >= last_version,
                        "version regressed: {last_version} -> {version}"
                    );
                    // Envelope consistency: version always equals the
                    // sealed epoch's version; the records table is the
                    // one sealed WITH that epoch (fingerprint match).
                    if version > 0 {
                        let epoch = snap.epoch.as_ref().expect("sealed snapshot has epoch");
                        assert_eq!(epoch.version, version);
                        assert_eq!(epoch.epoch + 1, version);
                        let expected = fingerprints
                            .lock()
                            .unwrap()
                            .get(&version)
                            .copied()
                            .unwrap_or_else(|| panic!("unpublished version {version}"));
                        assert_eq!(
                            fingerprint(version, &snap.records),
                            expected,
                            "mixed-epoch view at version {version}"
                        );
                        // Records stay sorted (binary-search contract).
                        assert!(snap.records.windows(2).all(|w| w[0].asn < w[1].asn));
                    }
                    // A retained snapshot must never change, no matter
                    // how many epochs seal after it.
                    if let Some((old, old_fp)) = &retained {
                        assert_eq!(fingerprint(old.version(), &old.records), *old_fp);
                    }
                    if version % 10 == 3 && retained.is_none() {
                        let fp = fingerprint(version, &snap.records);
                        retained = Some((snap, fp));
                    }
                    last_version = version;
                    observed += 1;
                    // Single-core CI: give the writer a turn.
                    std::thread::yield_now();
                }
                observed
            })
        })
        .collect();

    // The writer: seal an epoch per loop iteration, fingerprint it, then
    // publish. Shifting evidence per epoch keeps counters moving so a
    // torn view cannot accidentally fingerprint-match.
    let mut pipe = StreamPipeline::new(StreamConfig {
        shards: 2,
        epoch: EpochPolicy::manual(),
        ..Default::default()
    });
    let mut publisher = Publisher::new(Arc::clone(&slot), 1_000_000);
    for i in 0..EPOCHS {
        let asn = 2 + (i % 7) as u32;
        let tags: &[u32] = if i % 3 == 0 { &[] } else { &[asn] };
        let tuple = PathCommTuple::new(
            path(&[asn, 5, 900 + (i % 11) as u32]),
            CommunitySet::from_iter(
                tags.iter()
                    .map(|&a| AnyCommunity::tag_for(Asn(a), 100 + i as u32)),
            ),
        );
        pipe.push(StreamEvent::new(i, tuple));
        let sealed = pipe.seal_epoch();
        let records = sealed.records().expect("manual seals keep their counters");
        fingerprints
            .lock()
            .unwrap()
            .insert(sealed.version, fingerprint(sealed.version, &records));
        publisher.sync(&pipe);
    }
    done.store(true, Ordering::Release);

    // Every reader loops until it has seen the final version, so joining
    // cleanly already proves full-version coverage; the count only
    // confirms they all actually iterated.
    let total_observed: u64 = readers
        .into_iter()
        .map(|r| r.join().expect("reader ok"))
        .sum();
    assert!(
        total_observed >= READERS as u64,
        "({total_observed} observations)"
    );
    assert_eq!(slot.load().version(), EPOCHS);
}
