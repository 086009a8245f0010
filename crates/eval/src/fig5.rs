//! Figure 5 — community source types at fully-classified peer ASes.
//!
//! For every collector peer with a full classification, counts the
//! peer/foreign/stray/private communities across all tuples where that AS
//! is the collector peer. The paper's consistency check (§7.2):
//!
//! * `t?` peers show many **peer** communities; `s?` peers show none;
//! * `?f` peers show **foreign** communities; `?c` peers few to none;
//! * **stray**/**private** appear everywhere (the algorithm ignores them).

use crate::report::{thousands, Table};
use bgp_infer::prelude::*;
use bgp_types::prelude::*;
use std::collections::HashMap;

/// Community-type counts for one peer AS.
#[derive(Debug, Clone)]
pub struct PeerTypeCounts {
    /// The peer.
    pub asn: Asn,
    /// Its full class (`tf`/`tc`/`sf`/`sc`).
    pub class: String,
    /// peer / foreign / stray / private totals.
    pub counts: SourceCounts,
}

/// The computed Figure 5.
#[derive(Debug, Clone, Default)]
pub struct Fig5 {
    /// Rows grouped by class then descending total.
    pub peers: Vec<PeerTypeCounts>,
}

/// Run: classify the dataset, then profile fully-classified peers.
pub fn run(tuples: &[PathCommTuple]) -> Fig5 {
    let outcome = InferenceEngine::new(InferenceConfig::default()).run(tuples);

    // Group tuples by collector peer.
    let mut by_peer: HashMap<Asn, SourceCounts> = HashMap::new();
    for t in tuples {
        by_peer
            .entry(t.path.peer())
            .or_default()
            .add(&SourceCounts::of_tuple(t));
    }

    let mut peers: Vec<PeerTypeCounts> = by_peer
        .into_iter()
        .filter_map(|(asn, counts)| {
            let class = outcome.class_of(asn);
            class.is_full().then(|| PeerTypeCounts {
                asn,
                class: class.as_str().to_string(),
                counts,
            })
        })
        .collect();
    peers.sort_by(|a, b| {
        a.class
            .cmp(&b.class)
            .then(b.counts.total().cmp(&a.counts.total()))
            .then(a.asn.cmp(&b.asn))
    });
    Fig5 { peers }
}

impl Fig5 {
    /// Aggregate counts per class.
    pub fn class_totals(&self) -> HashMap<String, SourceCounts> {
        let mut out: HashMap<String, SourceCounts> = HashMap::new();
        for p in &self.peers {
            out.entry(p.class.clone()).or_default().add(&p.counts);
        }
        out
    }

    /// Render: per-class aggregate plus the top peers per class.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let mut totals: Vec<(String, SourceCounts)> = self.class_totals().into_iter().collect();
        totals.sort_by(|a, b| a.0.cmp(&b.0));
        let mut t = Table::new(
            "Figure 5: community types at fully-classified peer ASes (aggregate)",
            &["class", "peers", "peer", "foreign", "stray", "private"],
        );
        for (class, counts) in &totals {
            let npeers = self.peers.iter().filter(|p| &p.class == class).count();
            t.row(&[
                class.clone(),
                npeers.to_string(),
                thousands(counts.peer),
                thousands(counts.foreign),
                thousands(counts.stray),
                thousands(counts.private),
            ]);
        }
        out.push_str(&t.render());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::{realistic_roles, AmbientCommunities, World};
    use bgp_sim::prelude::*;
    use bgp_topology::prelude::*;

    fn tuples() -> Vec<PathCommTuple> {
        let mut cfg = TopologyConfig::small();
        cfg.transit = 35;
        cfg.edge = 120;
        cfg.collector_peers = 16;
        let graph = cfg.seed(31).build();
        let paths = PathSubstrate::generate(&graph, 2).paths;
        let cones = CustomerCones::compute(&graph);
        let w = World {
            graph,
            paths,
            cones,
        };
        let roles = realistic_roles(&w.graph, &w.cones, 2);
        let prop = Propagator::new(&w.graph, &roles);
        AmbientCommunities::paper_like(2).decorate_vec(&prop.tuples(&w.paths))
    }

    #[test]
    fn expectations_hold() {
        let fig = run(&tuples());
        assert!(!fig.peers.is_empty(), "no fully-classified peers");
        let totals = fig.class_totals();

        // Taggers show peer communities; silent peers (as a class) none.
        for (class, counts) in &totals {
            if class.starts_with('t') {
                assert!(counts.peer > 0, "{class} should show peer communities");
            } else {
                assert_eq!(counts.peer, 0, "{class} must not show peer communities");
            }
            // Forwarders show foreign communities.
            if class.ends_with('f') {
                assert!(
                    counts.foreign > 0,
                    "{class} should show foreign communities"
                );
            }
        }

        // Cleaners show at most a sliver of foreign communities relative
        // to forwarders (the paper allows a contradiction tail from
        // unidentified taggers).
        let f_foreign: u64 = totals
            .iter()
            .filter(|(c, _)| c.ends_with('f'))
            .map(|(_, s)| s.foreign)
            .sum();
        let c_foreign: u64 = totals
            .iter()
            .filter(|(c, _)| c.ends_with('c'))
            .map(|(_, s)| s.foreign)
            .sum();
        if f_foreign > 0 {
            assert!(
                (c_foreign as f64) < (f_foreign as f64) * 0.25,
                "cleaners show too many foreign communities ({c_foreign} vs {f_foreign})"
            );
        }

        // Stray/private mass exists somewhere (ambient decoration).
        let any_stray: u64 = totals.values().map(|s| s.stray + s.private).sum();
        assert!(any_stray > 0);
    }

    #[test]
    fn renders() {
        let s = run(&tuples()).render();
        assert!(s.contains("foreign"));
        assert!(s.contains("private"));
    }
}
