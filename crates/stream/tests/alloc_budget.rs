//! What taking in a feed may allocate, counted.
//!
//! This file is its own test binary so that the counting
//! `#[global_allocator]` it shares with `crates/mrt/tests/alloc_budget.rs`
//! is seen by no other suite. Counts are kept per thread.

#[path = "../../mrt/tests/support/counting_alloc.rs"]
mod counting_alloc;

use bgp_mrt::MrtWriter;
use bgp_stream::prelude::*;
use bgp_types::prelude::*;
use counting_alloc::requested_by;

/// `events` announcements, every fourth a repeat of the one before it.
fn archive(events: u32) -> Vec<u8> {
    let mut w = MrtWriter::new();
    for i in 0..events {
        let n = i - (i % 4 == 3) as u32;
        let peer = 64500 + n % 8;
        let msg = UpdateMessage::announcement(
            Asn(peer),
            i as u64,
            Prefix::v4(n.to_be_bytes(), 24),
            RawAsPath::from_sequence(
                [peer, 3356, 100_000 + n % 512, 200_000 + n]
                    .map(Asn)
                    .to_vec(),
            ),
            CommunitySet::from_iter([AnyCommunity::regular(3356, (n % 5) as u16)]),
        );
        w.write_update(&msg).unwrap();
    }
    w.into_bytes()
}

/// Allocations this thread requests to drive `events` events through a
/// fresh four-shard pipeline in 1,024-event batches, no seal included.
fn allocations_to_drive(events: u32) -> u64 {
    let bytes = archive(events);
    let mut pipe = StreamPipeline::new(StreamConfig {
        epoch: EpochPolicy::manual(),
        ..Default::default()
    });
    let (driven, allocations, _) = requested_by(|| pipe.drive(&mut MrtSource::new(&bytes), 1024));
    driven.unwrap();
    assert_eq!(pipe.total_events(), events as u64);
    assert_eq!(pipe.stored_tuples() as u64, events as u64 * 3 / 4);
    allocations
}

#[test]
fn driving_a_feed_allocates_by_the_batch_and_the_doubling_not_by_the_event() {
    let small = allocations_to_drive(8 * 1024);
    let large = allocations_to_drive(32 * 1024);
    // A batch is one buffer (the first of a source grows to size); the
    // rest is growth by doubling — the shard set's one dedup table's arena
    // and index, the compiled stores' columns, the interner — so four
    // times the feed costs 24 more batches and two more doublings of
    // each, nowhere near four times the allocations, and an event costs
    // none. (314 and 410: one of them the shard set's `(record, tag)`
    // scratch, sized once by the first batch and reused; owned events
    // cost two each, 16,384 and up.)
    assert!(
        small <= 8 * 1024 / 16,
        "{small} allocations for 8,192 events"
    );
    assert!(
        large <= small + 24 + small / 2,
        "{small} -> {large} allocations"
    );
}
