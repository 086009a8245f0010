//! Scenario-as-stream adapter: turn a materialized ground-truth dataset
//! into a live update feed.
//!
//! The batch experiments hand the engine a finished tuple vector; a
//! streaming consumer wants the same world delivered the way a collector
//! would see it — as timestamped re-announcements trickling in over a
//! day, with popular routes re-announced more than once and everything
//! interleaved by time. [`UpdateFeed`] produces exactly that,
//! deterministically per seed, so streaming runs are reproducible and
//! comparable against the batch engine on the identical tuple set.

use crate::scenario::{GroundTruthDataset, Scenario};
use bgp_topology::prelude::*;
use bgp_types::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Default feed day start (2021-05-19T00:00:00Z, the paper's d_May21).
pub const FEED_DAY_START: u64 = 1_621_382_400;

/// Churn overlays for adversarial soak feeds. Each mode only *adds*
/// re-announcements of tuples the base feed already delivers — the
/// unique tuple set (and therefore the converged classification) is
/// identical to [`Churn::Steady`], which is what makes churn feeds
/// usable as fault-soak inputs with a known-good final state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Churn {
    /// The plain feed: no extra churn.
    #[default]
    Steady,
    /// A flap storm: ~5% of tuples become "flappers", each re-announced
    /// many times inside a tight mid-day window — the classic
    /// dampening-bait burst.
    FlapStorm,
    /// A peer reset: one peer's entire table is re-announced back to
    /// back mid-day, the way a collector sees a session re-establish
    /// and replay its Adj-RIB-In.
    PeerReset,
}

/// A deterministic, time-ordered stream of `(timestamp, tuple)` events
/// over one simulated day.
#[derive(Debug, Clone)]
pub struct UpdateFeed {
    events: Vec<(u64, PathCommTuple)>,
    cursor: usize,
}

impl UpdateFeed {
    /// Build a feed from a dataset: every tuple is announced at least
    /// once, plus `0..=extra_repeats` pseudo-random re-announcements, all
    /// at pseudo-random offsets within the day, sorted by timestamp.
    pub fn new(ds: &GroundTruthDataset, seed: u64, extra_repeats: u32) -> Self {
        Self::from_tuples(&ds.tuples, seed, extra_repeats)
    }

    /// The simulated world behind `--sim` in both streaming front ends
    /// (`bgp-stream-infer`, `bgp-served`): the scenario named `scenario`
    /// ([`Scenario::name`]) materialized over the small topology with 12
    /// collector peers, delivered as a feed with `churn` on top. `None`
    /// when no scenario has that name.
    pub fn simulated(scenario: &str, seed: u64, extra_repeats: u32, churn: Churn) -> Option<Self> {
        let scenario = Scenario::ALL.into_iter().find(|s| s.name() == scenario)?;
        let mut topology = TopologyConfig::small();
        topology.collector_peers = 12;
        let graph = topology.seed(seed).build();
        let paths = PathSubstrate::generate(&graph, 3).paths;
        let ds = scenario.materialize(&graph, &paths, seed);
        Some(Self::churned(&ds, seed, extra_repeats, churn))
    }

    /// Like [`UpdateFeed::new`], with a [`Churn`] overlay on top.
    pub fn churned(ds: &GroundTruthDataset, seed: u64, extra_repeats: u32, churn: Churn) -> Self {
        Self::from_tuples_churned(&ds.tuples, seed, extra_repeats, churn)
    }

    /// Build a feed from a raw tuple list (same semantics as
    /// [`UpdateFeed::new`]).
    pub fn from_tuples(tuples: &[PathCommTuple], seed: u64, extra_repeats: u32) -> Self {
        Self::from_tuples_churned(tuples, seed, extra_repeats, Churn::Steady)
    }

    /// Build a feed from a raw tuple list with a [`Churn`] overlay. The
    /// base event stream is identical to the steady feed for the same
    /// seed; churn only appends duplicate re-announcements.
    pub fn from_tuples_churned(
        tuples: &[PathCommTuple],
        seed: u64,
        extra_repeats: u32,
        churn: Churn,
    ) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED_FEED);
        let mut events = Vec::with_capacity(tuples.len());
        for t in tuples {
            let repeats = 1 + if extra_repeats > 0 {
                rng.random_range(0..=extra_repeats)
            } else {
                0
            };
            for _ in 0..repeats {
                let ts = FEED_DAY_START + rng.random_range(0u64..86_400);
                events.push((ts, t.clone()));
            }
        }
        match churn {
            Churn::Steady => {}
            Churn::FlapStorm => {
                // Every 20th tuple flaps: a burst of re-announcements
                // inside a one-hour mid-day window.
                for t in tuples.iter().step_by(20) {
                    let bursts = 8 + rng.random_range(0u32..8);
                    for _ in 0..bursts {
                        let ts = FEED_DAY_START + 40_000 + rng.random_range(0u64..3_600);
                        events.push((ts, t.clone()));
                    }
                }
            }
            Churn::PeerReset => {
                // The first tuple's peer resets mid-day and replays its
                // whole table back to back.
                if let Some(first) = tuples.first() {
                    let peer = first.path.peer();
                    let replay: Vec<&PathCommTuple> =
                        tuples.iter().filter(|t| t.path.peer() == peer).collect();
                    for (i, t) in replay.into_iter().enumerate() {
                        let ts = (FEED_DAY_START + 60_000 + i as u64).min(FEED_DAY_START + 86_399);
                        events.push((ts, (*t).clone()));
                    }
                }
            }
        }
        events.sort_by_key(|a| a.0);
        UpdateFeed { events, cursor: 0 }
    }

    /// Total events the feed will deliver.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the feed has no events at all.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events not yet delivered.
    pub fn remaining(&self) -> usize {
        self.events.len() - self.cursor
    }

    /// Borrow the full (already sorted) event list.
    pub fn events(&self) -> &[(u64, PathCommTuple)] {
        &self.events
    }
}

impl Iterator for UpdateFeed {
    type Item = (u64, PathCommTuple);

    fn next(&mut self) -> Option<Self::Item> {
        let ev = self.events.get(self.cursor)?.clone();
        self.cursor += 1;
        Some(ev)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tuples() -> Vec<PathCommTuple> {
        (0..50u32)
            .map(|i| {
                PathCommTuple::new(
                    path(&[10 + i % 5, 100 + i]),
                    CommunitySet::from_iter([AnyCommunity::tag_for(Asn(10 + i % 5), 100)]),
                )
            })
            .collect()
    }

    #[test]
    fn deterministic_per_seed() {
        let a = UpdateFeed::from_tuples(&tuples(), 7, 3);
        let b = UpdateFeed::from_tuples(&tuples(), 7, 3);
        assert_eq!(a.events(), b.events());
        let c = UpdateFeed::from_tuples(&tuples(), 8, 3);
        assert_ne!(a.events(), c.events());
    }

    #[test]
    fn covers_every_tuple_at_least_once() {
        let ts = tuples();
        let feed = UpdateFeed::from_tuples(&ts, 3, 2);
        assert!(feed.len() >= ts.len());
        for t in &ts {
            assert!(feed.events().iter().any(|(_, e)| e == t), "missing {t:?}");
        }
    }

    #[test]
    fn time_ordered_within_day() {
        let feed = UpdateFeed::from_tuples(&tuples(), 11, 4);
        let times: Vec<u64> = feed.events().iter().map(|(t, _)| *t).collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
        assert!(times
            .iter()
            .all(|&t| (FEED_DAY_START..FEED_DAY_START + 86_400).contains(&t)));
    }

    #[test]
    fn churn_only_adds_duplicates() {
        let ts = tuples();
        let steady = UpdateFeed::from_tuples(&ts, 7, 2);
        let uniq = |f: &UpdateFeed| {
            f.events()
                .iter()
                .map(|(_, t)| t.clone())
                .collect::<std::collections::BTreeSet<_>>()
        };
        for churn in [Churn::FlapStorm, Churn::PeerReset] {
            let churned = UpdateFeed::from_tuples_churned(&ts, 7, 2, churn);
            assert!(churned.len() > steady.len(), "{churn:?} adds events");
            // Same unique tuple set → same converged classification.
            assert_eq!(uniq(&steady), uniq(&churned), "{churn:?} changed tuples");
            // Still deterministic and time-ordered within the day.
            let again = UpdateFeed::from_tuples_churned(&ts, 7, 2, churn);
            assert_eq!(churned.events(), again.events());
            let times: Vec<u64> = churned.events().iter().map(|(t, _)| *t).collect();
            assert!(times.windows(2).all(|w| w[0] <= w[1]));
            assert!(times
                .iter()
                .all(|&t| (FEED_DAY_START..FEED_DAY_START + 86_400).contains(&t)));
        }
    }

    #[test]
    fn iterator_drains() {
        let mut feed = UpdateFeed::from_tuples(&tuples(), 1, 0);
        let n = feed.len();
        assert_eq!(n, 50, "extra_repeats=0 delivers each tuple once");
        assert_eq!(feed.by_ref().count(), n);
        assert_eq!(feed.remaining(), 0);
    }
}
