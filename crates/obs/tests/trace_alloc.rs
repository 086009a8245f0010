//! What the trace path may allocate once its ring has filled: nothing.
//!
//! This file is its own test binary so that the counting
//! `#[global_allocator]` it shares with `crates/mrt/tests/alloc_budget.rs`
//! is seen by no other suite. Counts are kept per thread.

#[path = "../../mrt/tests/support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::requested_by;
use obs::trace::{Stage, Timeline, CAPACITY};
use obs::ObsRegistry;
use std::time::{Duration, Instant};

/// `epoch`'s timeline as a publisher puts it: every row but `archive`.
fn published(epoch: u64, t0: Instant) -> Timeline {
    let at = |nanos| t0 + Duration::from_nanos(nanos);
    let mut timeline = Timeline::new(epoch, t0);
    timeline.set(Stage::INGEST, t0, 100, &[2, epoch]);
    timeline.set(Stage::SEAL, at(100), 50, &[epoch; 10]);
    timeline.set(Stage::SHARD_COUNT, at(110), 20, &[4]);
    timeline.set(Stage::SHARD_MERGE, at(110), 10, &[]);
    timeline.set(Stage::PUBLISH, at(150), 5, &[epoch, epoch + 1]);
    timeline
}

#[test]
fn a_full_ring_puts_closes_and_gets_without_allocating() {
    let (obs, t0) = (ObsRegistry::new(), Instant::now());
    let store = obs.traces();
    // The control: the first put grows the empty ring, and is counted.
    let ((), first, _) = requested_by(|| store.put(published(0, t0)));
    assert!(first > 0, "the allocator counts the store's ring");
    let cap = CAPACITY as u64;
    for epoch in 1..cap {
        store.put(published(epoch, t0));
    }

    let ((), allocations, bytes) = requested_by(|| {
        for epoch in cap..3 * cap {
            store.put(published(epoch, t0));
            let closed = store.close_archive(epoch, t0 + Duration::from_nanos(300), 1);
            assert!(closed.is_some() && closed == store.get(epoch));
        }
    });
    assert_eq!((allocations, bytes), (0, 0));
    assert_eq!(store.epochs(), (2 * cap..3 * cap).collect::<Vec<_>>());
}
