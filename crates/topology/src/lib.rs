//! # bgp-topology
//!
//! Internet-like AS-level topology substrate for the IMC'21 community-usage
//! reproduction:
//!
//! * [`graph`] — the AS graph with Gao–Rexford business relationships
//!   (customer→provider, peer↔peer);
//! * [`generate`] — seeded, tiered topology generation (Tier-1 clique,
//!   preferentially-attached transit layer, multihomed edge) matching the
//!   macro-structure of the paper's `d_May21` substrate;
//! * [`routing`] — valley-free routing trees and the full collector-peer
//!   path substrate;
//! * [`cone`] — CAIDA-style customer cones (the AS-size metric of Fig. 6);
//! * [`churn`] — edge churn for the longitudinal experiment (Fig. 4).
//!
//! ```
//! use bgp_topology::prelude::*;
//!
//! let g = TopologyConfig::small().seed(42).build();
//! let substrate = PathSubstrate::generate_for_origins(
//!     &g, &g.node_ids().take(50).collect::<Vec<_>>(), 2);
//! assert!(!substrate.is_empty());
//! let cones = CustomerCones::compute(&g);
//! let biggest = g.node_ids().map(|i| cones.size(i)).max().unwrap();
//! assert!(biggest > 1);
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]
#![warn(rust_2018_idioms)]

pub mod churn;
pub mod cone;
pub mod generate;
pub mod graph;
pub mod routing;

/// Commonly used items.
pub mod prelude {
    pub use crate::churn::ChurnModel;
    pub use crate::cone::CustomerCones;
    pub use crate::generate::TopologyConfig;
    pub use crate::graph::{AsGraph, AsNode, EdgeKind, NodeId, Relationship, Tier};
    pub use crate::routing::{is_valley_free, PathSubstrate, Route, RouteKind, RoutingTree};
}

#[cfg(test)]
mod proptests {
    use crate::prelude::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// Every path the router produces must be valley-free, regardless
        /// of seed.
        #[test]
        fn all_paths_valley_free(seed in 0u64..500) {
            let mut cfg = TopologyConfig::small();
            cfg.transit = 40;
            cfg.edge = 120;
            cfg.collector_peers = 10;
            let g = cfg.seed(seed).build();
            let origins: Vec<NodeId> = g.node_ids().step_by(17).collect();
            for &o in &origins {
                let tree = RoutingTree::compute(&g, o);
                for p in g.collector_peer_ids() {
                    if let Some(path) = tree.node_path(p) {
                        prop_assert!(is_valley_free(&g, &path));
                    }
                }
            }
        }

        /// Routing trees never contain loops: path extraction terminates
        /// and each node appears once.
        #[test]
        fn paths_are_simple(seed in 0u64..500) {
            let mut cfg = TopologyConfig::small();
            cfg.transit = 30;
            cfg.edge = 80;
            cfg.collector_peers = 8;
            let g = cfg.seed(seed).build();
            let o = g.node_ids().next().unwrap();
            let tree = RoutingTree::compute(&g, o);
            for p in g.collector_peer_ids() {
                if let Some(path) = tree.node_path(p) {
                    let mut sorted = path.clone();
                    sorted.sort_unstable();
                    sorted.dedup();
                    prop_assert_eq!(sorted.len(), path.len(), "loop in path");
                }
            }
        }
    }
}
