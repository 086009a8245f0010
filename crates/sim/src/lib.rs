//! # bgp-sim
//!
//! Ground-truth community propagation for the IMC'21 reproduction,
//! implementing the paper's mental model (§3.3):
//!
//! ```text
//! output(A) = tagging(A) ∪ forwarding(A, input(A))
//! ```
//!
//! * [`role`] — tagger/silent × forward/cleaner roles, plus selective
//!   tagging policies conditioned on business relationships;
//! * [`propagate`] — computes `output(A1)` for every AS path;
//! * [`noise`] — the two §6.1 noise sources (action communities, spurious
//!   origin communities), deterministic under a seed;
//! * [`scenario`] — the six §6 verification scenarios (`alltf`, `alltc`,
//!   `random`, `random+noise`, `random-p`, `random-pp`);
//! * [`visibility`] — ground-truth hidden/leaf annotation for the
//!   confusion matrices of Tables 5/6;
//! * [`peering`] — the §7.4 PEERING testbed analogue.

#![deny(missing_docs)]
#![forbid(unsafe_code)]
#![warn(rust_2018_idioms)]

pub mod feed;
pub mod noise;
pub mod peering;
pub mod propagate;
pub mod role;
pub mod scenario;
pub mod visibility;

/// Commonly used items.
pub mod prelude {
    pub use crate::feed::{Churn, UpdateFeed, FEED_DAY_START};
    pub use crate::noise::NoiseModel;
    pub use crate::peering::{pop_communities, PeeringExperiment, PeeringObservation, PEERING_ASN};
    pub use crate::propagate::{tag_community, Propagator, TAG_VALUE};
    pub use crate::role::{
        ForwardingBehavior, Role, RoleAssignment, SelectivePolicy, TaggingBehavior,
    };
    pub use crate::scenario::{GroundTruthDataset, Scenario};
    pub use crate::visibility::Visibility;
}

#[cfg(test)]
mod proptests {
    use crate::prelude::*;
    use bgp_topology::prelude::*;
    use bgp_types::prelude::*;
    use proptest::prelude::*;

    fn world(seed: u64) -> (AsGraph, Vec<AsPath>) {
        let mut cfg = TopologyConfig::small();
        cfg.transit = 25;
        cfg.edge = 60;
        cfg.collector_peers = 8;
        let g = cfg.seed(seed).build();
        let origins: Vec<NodeId> = g.node_ids().collect();
        let s = PathSubstrate::generate_for_origins(&g, &origins, 2);
        (g, s.paths)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(10))]

        /// Model invariant: an AS's community never appears upstream of a
        /// cleaner that sits between it and the collector (noise-free).
        #[test]
        fn cleaner_blocks_downstream_tags(seed in 0u64..200) {
            let (g, paths) = world(seed);
            let ds = Scenario::Random.materialize(&g, &paths, seed);
            for t in &ds.tuples {
                let asns = t.path.asns();
                for (i, &a) in asns.iter().enumerate() {
                    // If any AS strictly upstream of position i is a
                    // cleaner, a's tag cannot be in the output. Paths are
                    // simple, so `a` cannot also sit upstream of the
                    // cleaner.
                    let blocked = asns[..i].iter().any(|&u| !ds.roles.role(u).is_forward());
                    prop_assert!(
                        !(blocked && t.comm.contains_upper(a)),
                        "tag of {} leaked past a cleaner on {}", a, t.path
                    );
                }
            }
        }

        /// Silent ASes never contribute their own community (noise-free).
        #[test]
        fn silent_never_tags(seed in 0u64..200) {
            let (g, paths) = world(seed);
            let ds = Scenario::Random.materialize(&g, &paths, seed);
            for t in &ds.tuples {
                for &a in t.path.asns() {
                    if ds.roles.role(a) == Role::SF || ds.roles.role(a) == Role::SC {
                        prop_assert!(!t.comm.contains_upper(a),
                            "silent {} appears in {}", a, t.comm);
                    }
                }
            }
        }

        /// The peer's own tag is always present when the peer is a tagger:
        /// nothing upstream of A1 can clean it.
        #[test]
        fn peer_tagger_always_visible(seed in 0u64..200) {
            let (g, paths) = world(seed);
            let ds = Scenario::Random.materialize(&g, &paths, seed);
            for t in &ds.tuples {
                if ds.roles.role(t.path.peer()).is_tagger() {
                    prop_assert!(t.comm.contains_upper(t.path.peer()));
                }
            }
        }
    }
}
