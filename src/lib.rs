//! # bgp-community-usage
//!
//! Facade crate for the IMC'21 *AS-Level BGP Community Usage Classification*
//! reproduction. Re-exports every workspace crate under one roof so examples
//! and downstream users need a single dependency:
//!
//! * [`types`] — BGP data model (ASNs, communities, paths, prefixes, tuples)
//! * [`mrt`] — RFC 6396 MRT + RFC 4271 BGP-4 binary codec
//! * [`topology`] — Internet-like AS graph generation, valley-free routing,
//!   customer cones
//! * [`sim`] — community propagation per the paper's mental model, scenario
//!   generators, PEERING testbed analogue
//! * [`collector`] — route-collector projects, RIB/update archives, stats
//! * [`infer`] — **the paper's contribution**: the passive per-AS community
//!   usage inference algorithm
//! * [`eval`] — regenerators for every table and figure in the paper
//! * [`stream`] — streaming incremental inference: sharded parallel
//!   ingest, epoch snapshots, live reclassification
//! * [`serve`] — the query-serving daemon: lock-free snapshot
//!   publication, hand-rolled HTTP/1.1 API over live inference state
//!
//! ## Quickstart
//!
//! ```
//! use bgp_community_usage::prelude::*;
//!
//! // 1. Generate a small Internet-like topology and its path substrate.
//! let mut cfg = TopologyConfig::small();
//! cfg.transit = 20;
//! cfg.edge = 50;
//! cfg.collector_peers = 6;
//! let topo = cfg.seed(7).build();
//! let paths = PathSubstrate::generate(&topo, 2).paths;
//!
//! // 2. Assign ground-truth roles and propagate communities to collectors.
//! let dataset = Scenario::Random.materialize(&topo, &paths, 7);
//!
//! // 3. Run the paper's inference algorithm.
//! let outcome = InferenceEngine::new(InferenceConfig::default())
//!     .run(&dataset.tuples);
//!
//! // 4. Inspect a classification (e.g. the first collector peer).
//! let some_as = topo.collector_peers()[0];
//! let class = outcome.class_of(some_as);
//! println!("{some_as} is {class}");
//! ```

#![forbid(unsafe_code)]

pub use bgp_collector as collector;
pub use bgp_eval as eval;
pub use bgp_infer as infer;
pub use bgp_mrt as mrt;
pub use bgp_serve as serve;
pub use bgp_sim as sim;
pub use bgp_stream as stream;
pub use bgp_topology as topology;
pub use bgp_types as types;

/// One-stop import for examples and tests.
pub mod prelude {
    pub use bgp_collector::prelude::*;
    pub use bgp_infer::prelude::*;
    pub use bgp_serve::prelude::*;
    pub use bgp_sim::prelude::*;
    pub use bgp_stream::prelude::*;
    pub use bgp_topology::prelude::*;
    pub use bgp_types::prelude::*;
}
