//! # bgp-infer
//!
//! The paper's primary contribution: a passive algorithm inferring per-AS
//! BGP community usage — does an AS **tag** announcements with its own
//! communities, and does it **forward or clean** communities set by others
//! — from nothing but `(AS path, community set)` observations at route
//! collectors.
//!
//! Pipeline:
//!
//! 1. [`sanitize`] — §4.1 data cleaning (AS_SET removal, peer prepending,
//!    prepend collapse, unallocated-resource filters);
//! 2. [`source`] — §3.2 community source grouping (peer / foreign / stray
//!    / private);
//! 3. [`engine`] — §5.6 column-based counting under Cond1/Cond2, the
//!    algorithm of Listing 1, executed through the [`compiled`] layer
//!    (interned columnar tuples + phase predicate bitsets) with the
//!    uncompiled Listing-1 loop kept as the parity oracle;
//! 4. [`classify`] + [`counters`] — §5.3/§5.5 threshold classification
//!    into `t/s/u/n × f/c/u/n`;
//! 5. [`metrics`] — §6 precision/recall, confusion matrices, ROC sweeps;
//! 6. [`row`] — the Listing 2 row-based baseline, kept as comparator;
//! 7. [`db`] — export/import of the inference database (the paper's
//!    public release artifact).
//!
//! ## Batch vs. stream
//!
//! This crate is the **batch** half of the pipeline:
//! [`engine::InferenceEngine::run`] consumes a finished tuple slice and
//! returns one [`engine::InferenceOutcome`]. The **streaming** half lives
//! in the `bgp-stream` crate, which ingests `(path, comm)` observations
//! continuously (chunked MRT, collector day archives, simulated feeds),
//! shards them across workers, and re-derives classifications at epoch
//! boundaries — publishing versioned snapshots and per-epoch class flips
//! instead of a single end-of-run answer.
//!
//! The two halves share their execution substrate: both count over the
//! [`compiled`] layer's columnar store ([`compiled::CompiledTuples`] —
//! interned ids, bit-packed tag arena, per-phase predicate bitsets),
//! which evaluates Cond1/Cond2 against an immutable counter snapshot and
//! accumulates into caller-owned deltas. Within one (column, phase) that
//! makes counting order-free — any partition of the tuples, counted
//! separately and folded together, produces byte-identical counters.
//! The batch engine counts a step with
//! [`compiled::CompiledTuples::count_phase_dense`] over one store, and a
//! `bgp-stream` seal calls the same entry point once per shard, in turn,
//! which is why streaming results are bit-for-bit equal to batch results
//! on the same input (pinned by `tests/stream_parity.rs` at the
//! workspace root). The uncompiled per-tuple step
//! [`engine::count_tuple_at`] remains public as the readable reference
//! semantics and the parity oracle (`InferenceEngine::run_reference`).
//!
//! ```
//! use bgp_infer::prelude::*;
//! use bgp_types::prelude::*;
//!
//! // Peer AS5 tags; AS1 forwards AS5's tag.
//! let tuples = vec![
//!     PathCommTuple::new(path(&[5, 9]),
//!         CommunitySet::from_iter([AnyCommunity::regular(5, 100)])),
//!     PathCommTuple::new(path(&[1, 5, 9]),
//!         CommunitySet::from_iter([AnyCommunity::regular(5, 100)])),
//! ];
//! let outcome = InferenceEngine::new(InferenceConfig::default()).run(&tuples);
//! assert_eq!(outcome.class_of(Asn(5)).tagging, TaggingClass::Tagger);
//! assert_eq!(outcome.class_of(Asn(1)).forwarding, ForwardingClass::Forward);
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]
#![warn(rust_2018_idioms)]

pub mod attribution;
pub mod classify;
pub mod compiled;
pub mod counters;
pub mod db;
pub mod engine;
pub mod metrics;
pub mod row;
pub mod sanitize;
pub mod selectivity;
pub mod source;

/// Commonly used items.
pub mod prelude {
    pub use crate::attribution::{
        attribute, AttributedCommunity, AttributionConfig, AttributionMap, UsageKind,
    };
    pub use crate::classify::{Class, ForwardingClass, TaggingClass};
    pub use crate::compiled::{
        CompiledTuples, DeltaStore, DenseCounterStore, DenseOutcome, IdBitSet, PhasePredicates,
    };
    pub use crate::counters::{AsCounters, CounterStore, Thresholds};
    pub use crate::db::{export, import, records, DbRecord};
    pub use crate::engine::{InferenceConfig, InferenceEngine, InferenceOutcome};
    pub use crate::metrics::{
        precision_recall, roc_sweep, ConfusionMatrix, PrecisionRecall, RocPoint, TruthEntry,
        TruthForwarding, TruthTagging,
    };
    pub use crate::row::run_row_based;
    pub use crate::sanitize::{SanitationStats, Sanitizer};
    pub use crate::selectivity::{selectivity_report, SelectivityRecord, SelectivityVerdict};
    pub use crate::source::{classify_community, retain_inferable, SourceCounts, SourceGroup};
}

#[cfg(test)]
mod proptests {
    use crate::prelude::*;
    use bgp_types::prelude::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    /// Generate a random tuple corpus with a planted consistent world:
    /// even ASNs tag, odd ASNs are silent; every AS forwards.
    fn planted_world(seed: u64, n_paths: usize) -> Vec<PathCommTuple> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut tuples = Vec::new();
        for _ in 0..n_paths {
            let len = rng.random_range(1..6usize);
            let mut asns: Vec<u32> = Vec::new();
            while asns.len() < len {
                let a = rng.random_range(2u32..60);
                if !asns.contains(&a) {
                    asns.push(a);
                }
            }
            let comm = CommunitySet::from_iter(
                asns.iter()
                    .filter(|a| *a % 2 == 0)
                    .map(|&a| AnyCommunity::tag_for(Asn(a), 100)),
            );
            tuples.push(PathCommTuple::new(path(&asns), comm));
        }
        tuples
    }

    /// A deliberately messy corpus: random paths, probabilistic taggers,
    /// occasional cleaners and stray/foreign communities — enough churn
    /// that the phase predicates flip in both directions across columns.
    fn messy_world(seed: u64, n_paths: usize) -> Vec<PathCommTuple> {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9).wrapping_add(1));
        let mut tuples = Vec::new();
        for _ in 0..n_paths {
            let len = rng.random_range(1..8usize);
            let mut asns: Vec<u32> = Vec::new();
            while asns.len() < len {
                let a = rng.random_range(2u32..80);
                if asns.last() != Some(&a) {
                    asns.push(a);
                }
            }
            let mut comm = CommunitySet::new();
            for &a in &asns {
                // Selective taggers: tag with an AS-dependent probability.
                if rng.random_range(0u32..10) < a % 10 {
                    comm.insert(AnyCommunity::tag_for(Asn(a), 100 + a % 3));
                }
            }
            if rng.random_range(0u32..5) == 0 {
                // Stray community from an off-path AS (incl. 32-bit).
                comm.insert(AnyCommunity::tag_for(
                    Asn(rng.random_range(90u32..200_100)),
                    7,
                ));
            }
            tuples.push(PathCommTuple::new(path(&asns), comm));
        }
        tuples
    }

    fn assert_outcome_identical(a: &InferenceOutcome, b: &InferenceOutcome, ctx: &str) {
        assert_eq!(a.classes(), b.classes(), "{ctx}: classes diverged");
        let mut ca: Vec<(Asn, AsCounters)> = a.counters.iter().collect();
        let mut cb: Vec<(Asn, AsCounters)> = b.counters.iter().collect();
        ca.sort_by_key(|&(x, _)| x);
        cb.sort_by_key(|&(x, _)| x);
        assert_eq!(ca, cb, "{ctx}: counters diverged");
        assert_eq!(
            a.deepest_active_index, b.deepest_active_index,
            "{ctx}: deepest active index diverged"
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// The tentpole parity pin: the compiled engine (`run`) is
        /// byte-identical to the reference `count_tuple_at` path
        /// (`run_reference`) — classes, raw counters, and the deepest
        /// active index — across random worlds, the reference's thread
        /// counts and both ablation switches.
        #[test]
        fn compiled_engine_matches_reference(
            seed in 0u64..400,
            threads in 1usize..8,
            enforce_cond1 in any::<bool>(),
            enforce_cond2 in any::<bool>(),
        ) {
            let tuples = messy_world(seed, 250);
            let cfg = InferenceConfig {
                threads,
                enforce_cond1,
                enforce_cond2,
                ..Default::default()
            };
            let compiled = CompiledTuples::from_tuples(&tuples).run(&cfg);
            let reference = InferenceEngine::new(cfg).run_reference(&tuples);
            assert_outcome_identical(
                &compiled,
                &reference,
                &format!("seed={seed} threads={threads} \
                          c1={enforce_cond1} c2={enforce_cond2}"),
            );
        }

        /// In an all-forward world with consistent taggers, the engine
        /// never misclassifies: every decided tagging class matches parity.
        #[test]
        fn no_misclassification_in_consistent_world(seed in 0u64..1000) {
            let tuples = planted_world(seed, 300);
            let outcome = InferenceEngine::new(
                InferenceConfig { threads: 1, ..Default::default() }).run(&tuples);
            for (asn, class) in outcome.classes() {
                match class.tagging {
                    TaggingClass::Tagger => prop_assert_eq!(asn.0 % 2, 0, "AS{} wrong", asn.0),
                    TaggingClass::Silent => prop_assert_eq!(asn.0 % 2, 1, "AS{} wrong", asn.0),
                    _ => {}
                }
                // Everyone forwards: no cleaner inference may appear.
                prop_assert_ne!(class.forwarding, ForwardingClass::Cleaner);
            }
        }

        /// Counters are monotone in input: adding tuples never removes
        /// counter mass.
        #[test]
        fn counter_monotonicity(seed in 0u64..200) {
            let tuples = planted_world(seed, 200);
            let half = &tuples[..100];
            let cfg = InferenceConfig { threads: 1, ..Default::default() };
            let small = InferenceEngine::new(cfg.clone()).run(half);
            let big = InferenceEngine::new(cfg).run(&tuples);
            // Total counter mass grows.
            let mass = |o: &InferenceOutcome| -> u64 {
                o.counters.iter().map(|(_, c)| c.t + c.s + c.f + c.c).sum()
            };
            prop_assert!(mass(&big) >= mass(&small));
        }

        /// The db export/import round-trip preserves classifications for
        /// arbitrary engine outcomes.
        #[test]
        fn db_roundtrip(seed in 0u64..200) {
            let tuples = planted_world(seed, 120);
            let outcome = InferenceEngine::new(
                InferenceConfig { threads: 1, ..Default::default() }).run(&tuples);
            let back = import(&export(&outcome)).unwrap();
            for (asn, class) in outcome.classes() {
                prop_assert_eq!(back.class_of(asn), class);
            }
        }
    }
}
