//! The column-based inference algorithm (paper §5.6, Listing 1).
//!
//! The engine makes two passes (tagging, then forwarding) over the input
//! tuples **per path index**, starting at the collector peers (`A1`) and
//! moving right. Knowledge gained at lower indices — expressed through the
//! counter-threshold predicates `is_forward` / `is_tagger` — feeds the
//! conditions at higher indices:
//!
//! * **Cond1** (any statement about `Ax`): every upstream `Ai`, `i<x`,
//!   satisfies `is_forward`;
//! * **Cond2** (forwarding of `Ax`): some downstream `At` satisfies
//!   `is_tagger` with every intermediate `Aj`, `x<j<t`, `is_forward`.
//!
//! ## Determinism
//!
//! Within one (index, phase) the conditions are evaluated against the
//! counter snapshot taken at phase start; increments are accumulated as
//! deltas and merged at phase end. This makes each phase order-independent
//! — any partition of the tuples, counted separately and merged, gives the
//! same counters (the stream layer's shards are such a partition) — and
//! the whole run deterministic, while preserving the paper's
//! column-to-column knowledge transfer exactly. The production path counts
//! on the calling thread; only the reference path splits a phase over
//! [`InferenceConfig::threads`] workers.

use crate::classify::Class;
use crate::compiled::CompiledTuples;
use crate::counters::{AsCounters, CounterStore, Thresholds};
use bgp_types::prelude::*;
use std::collections::HashMap;

/// Configuration of an inference run.
#[derive(Debug, Clone)]
pub struct InferenceConfig {
    /// Threshold set (default: 99% everywhere, as in the paper).
    pub thresholds: Thresholds,
    /// Worker threads of the oracle,
    /// [`InferenceEngine::run_reference`], which splits each phase of a
    /// slice of 1,024 tuples or more over them. The compiled engine
    /// ([`InferenceEngine::run`]) ignores it and counts on the calling
    /// thread.
    pub threads: usize,
    /// Ablation switch: enforce Cond1 (clean upstream). Disabling it makes
    /// the engine count tagging/forwarding behind cleaners — the
    /// misclassification mode §5.2 warns about. Production default: true.
    pub enforce_cond1: bool,
    /// Ablation switch: enforce Cond2 (visible downstream tagger with
    /// forwarding intermediates). When disabled, *any* downstream AS is
    /// treated as an eligible tagger witness. Production default: true.
    pub enforce_cond2: bool,
}

impl Default for InferenceConfig {
    fn default() -> Self {
        InferenceConfig {
            thresholds: Thresholds::default(),
            threads: 4,
            enforce_cond1: true,
            enforce_cond2: true,
        }
    }
}

impl InferenceConfig {
    /// Config with a uniform threshold (Figure 2 sweeps).
    pub fn with_threshold(v: f64) -> Self {
        InferenceConfig {
            thresholds: Thresholds::uniform(v),
            ..Default::default()
        }
    }
}

/// The outcome of an inference run: final counters and classifications.
#[derive(Debug, Clone)]
pub struct InferenceOutcome {
    /// Final counter state.
    pub counters: CounterStore,
    /// Thresholds used (classification is a pure function of both).
    pub thresholds: Thresholds,
    /// Deepest path index at which any counter was incremented.
    pub deepest_active_index: usize,
}

impl InferenceOutcome {
    /// Classification of one AS.
    pub fn class_of(&self, asn: Asn) -> Class {
        self.counters.class_of(asn, &self.thresholds)
    }

    /// Re-classify every counted AS, returning (ASN, class) pairs.
    pub fn classes(&self) -> Vec<(Asn, Class)> {
        let mut v: Vec<(Asn, Class)> = self
            .counters
            .iter()
            .map(|(a, _)| (a, self.class_of(a)))
            .collect();
        v.sort_by_key(|&(a, _)| a);
        v
    }

    /// Re-classify under different thresholds without re-counting.
    ///
    /// Note: thresholds also participate in the *counting* conditions, so
    /// this is an approximation the paper itself uses when discussing
    /// threshold sensitivity; for exact semantics re-run the engine.
    pub fn reclassify(&self, thresholds: Thresholds) -> Vec<(Asn, Class)> {
        let mut v: Vec<(Asn, Class)> = self
            .counters
            .iter()
            .map(|(a, _)| (a, self.counters.class_of(a, &thresholds)))
            .collect();
        v.sort_by_key(|&(a, _)| a);
        v
    }
}

/// Which of the two per-column counting passes (§5.6) is being executed.
///
/// One column `x` of Listing 1 runs a [`CountPhase::Tagging`] pass over
/// every tuple, merges the resulting deltas, then runs a
/// [`CountPhase::Forwarding`] pass — the tagging evidence gathered in the
/// first pass feeds the Cond2 tagger search of the second.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CountPhase {
    /// Count `t`/`s`: does `Ax` put its own community on the wire?
    Tagging,
    /// Count `f`/`c`: does `Ax` pass a downstream tagger's community on?
    Forwarding,
}

/// Count one tuple's contribution to column `x` during `phase`.
///
/// This is the reentrant core of the reference path
/// ([`InferenceEngine::run_reference`]): it reads the Cond1/Cond2
/// predicates from the immutable `counters` snapshot (state as of the
/// previous phase boundary) and accumulates increments into `delta`.
/// Because `counters` is never written here, calls are
/// order-free within a phase — any partition of the tuple set counted on
/// any number of threads and merged with [`CounterStore::merge`] yields
/// byte-identical results to a serial pass.
#[allow(clippy::too_many_arguments)]
pub fn count_tuple_at(
    counters: &CounterStore,
    th: &Thresholds,
    tuple: &PathCommTuple,
    x: usize,
    phase: CountPhase,
    enforce_cond1: bool,
    enforce_cond2: bool,
    delta: &mut HashMap<Asn, AsCounters>,
) {
    let Some(ax) = tuple.path.at(x) else { return };
    if enforce_cond1 && !cond1(counters, th, &tuple.path, x) {
        return;
    }
    match phase {
        CountPhase::Tagging => {
            let e = delta.entry(ax).or_default();
            if tuple.comm.contains_upper(ax) {
                e.t += 1;
            } else {
                e.s += 1;
            }
        }
        CountPhase::Forwarding => {
            let at = if enforce_cond2 {
                match cond2_tagger(counters, th, &tuple.path, x) {
                    Some(at) => at,
                    None => return,
                }
            } else {
                // Ablated: use the adjacent downstream AS blindly.
                match tuple.path.at(x + 1) {
                    Some(a) => a,
                    None => return,
                }
            };
            let e = delta.entry(ax).or_default();
            if tuple.comm.contains_upper(at) {
                e.f += 1;
            } else {
                e.c += 1;
            }
        }
    }
}

/// The column-based inference engine.
#[derive(Debug, Clone, Default)]
pub struct InferenceEngine {
    config: InferenceConfig,
}

impl InferenceEngine {
    /// Build an engine.
    pub fn new(config: InferenceConfig) -> Self {
        InferenceEngine { config }
    }

    /// Run the algorithm over deduplicated `(path, comm)` tuples.
    ///
    /// Production path: compiles the tuples into the columnar
    /// [`CompiledTuples`] store (interned ids, bit-packed tag arena,
    /// length-sorted iteration) and runs the per-phase predicate-bitset
    /// loop — byte-identical to [`run_reference`](Self::run_reference)
    /// but without per-tuple hashing or threshold re-derivation; see
    /// [`crate::compiled`] for the layout and the parity argument.
    pub fn run(&self, tuples: &[PathCommTuple]) -> InferenceOutcome {
        CompiledTuples::from_tuples(tuples).run(&self.config)
    }

    /// The uncompiled reference implementation — the paper's Listing 1,
    /// one [`count_tuple_at`] call per tuple per (column, phase). Kept as
    /// the oracle the compiled path is pinned against (property tests in
    /// this crate, `tests/stream_parity.rs`), and as the readable
    /// statement of the algorithm.
    pub fn run_reference(&self, tuples: &[PathCommTuple]) -> InferenceOutcome {
        let th = self.config.thresholds;
        let mut counters = CounterStore::new();
        let max_len = tuples.iter().map(|t| t.path.len()).max().unwrap_or(0);
        let mut deepest_active = 0;

        let enforce1 = self.config.enforce_cond1;
        let enforce2 = self.config.enforce_cond2;
        for x in 1..=max_len {
            // PHASE 1: count tagging at index x.
            let delta = self.parallel_count(tuples, |t, delta| {
                count_tuple_at(
                    &counters,
                    &th,
                    t,
                    x,
                    CountPhase::Tagging,
                    enforce1,
                    enforce2,
                    delta,
                )
            });
            let active1 = !delta.is_empty();
            counters.merge(&delta);

            // PHASE 2: count forwarding at index x.
            let delta = self.parallel_count(tuples, |t, delta| {
                count_tuple_at(
                    &counters,
                    &th,
                    t,
                    x,
                    CountPhase::Forwarding,
                    enforce1,
                    enforce2,
                    delta,
                )
            });
            let active2 = !delta.is_empty();
            counters.merge(&delta);

            if active1 || active2 {
                deepest_active = x;
            }
        }

        InferenceOutcome {
            counters,
            thresholds: th,
            deepest_active_index: deepest_active,
        }
    }

    /// Shard `tuples` over worker threads; each worker runs `count` into a
    /// local delta map; deltas are merged into one map (order-free).
    fn parallel_count<F>(&self, tuples: &[PathCommTuple], count: F) -> HashMap<Asn, AsCounters>
    where
        F: Fn(&PathCommTuple, &mut HashMap<Asn, AsCounters>) + Sync,
    {
        let threads = self.config.threads.max(1);
        if threads == 1 || tuples.len() < 1_024 {
            let mut delta = HashMap::new();
            for t in tuples {
                count(t, &mut delta);
            }
            return delta;
        }
        let chunk = tuples.len().div_ceil(threads);
        let mut merged: HashMap<Asn, AsCounters> = HashMap::new();
        std::thread::scope(|s| {
            let handles: Vec<_> = tuples
                .chunks(chunk)
                .map(|shard| {
                    let count = &count;
                    s.spawn(move || {
                        let mut delta = HashMap::new();
                        for t in shard {
                            count(t, &mut delta);
                        }
                        delta
                    })
                })
                .collect();
            for h in handles {
                merge_delta_map(&mut merged, h.join().expect("counting worker panicked"));
            }
        });
        merged
    }
}

/// Fold one worker's phase-delta map into the oracle's accumulator map.
fn merge_delta_map(into: &mut HashMap<Asn, AsCounters>, delta: HashMap<Asn, AsCounters>) {
    for (asn, d) in delta {
        into.entry(asn).or_default().accumulate(&d);
    }
}

/// Cond1: all upstream ASes of position `x` satisfy `is_forward`.
/// Drops out at `x == 1` (no upstream).
fn cond1(counters: &CounterStore, th: &Thresholds, path: &AsPath, x: usize) -> bool {
    path.upstream_of(x)
        .iter()
        .all(|&a| counters.is_forward(a, th))
}

/// Cond2: find the nearest downstream `At` with `is_tagger`, requiring
/// every intermediate `Aj` (`x < j < t`) to satisfy `is_forward`. Returns
/// the tagger's ASN, or `None`.
fn cond2_tagger(counters: &CounterStore, th: &Thresholds, path: &AsPath, x: usize) -> Option<Asn> {
    let asns = path.asns();
    for &a in &asns[x..] {
        if counters.is_tagger(a, th) {
            return Some(a);
        }
        // `a` is an intermediate for any farther tagger: it must forward.
        if !counters.is_forward(a, th) {
            return None;
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::{ForwardingClass, TaggingClass};

    fn comm(uppers: &[u32]) -> CommunitySet {
        CommunitySet::from_iter(uppers.iter().map(|&u| AnyCommunity::tag_for(Asn(u), 100)))
    }

    fn tup(p: &[u32], uppers: &[u32]) -> PathCommTuple {
        PathCommTuple::new(path(p), comm(uppers))
    }

    fn engine() -> InferenceEngine {
        InferenceEngine::new(InferenceConfig {
            threads: 1,
            ..Default::default()
        })
    }

    #[test]
    fn peer_tagging_is_trivial() {
        // Peer 1 tags; peer 2 does not.
        let tuples = vec![tup(&[1, 9], &[1]), tup(&[2, 9], &[])];
        let out = engine().run(&tuples);
        assert_eq!(out.class_of(Asn(1)).tagging, TaggingClass::Tagger);
        assert_eq!(out.class_of(Asn(2)).tagging, TaggingClass::Silent);
    }

    #[test]
    fn forward_inferred_via_downstream_tagger() {
        // First learn that 5 is a tagger (as peer of another path), then
        // paths through 1 carrying 5:* prove 1 forwards.
        let tuples = vec![
            tup(&[5, 9], &[5]),       // 5 is a tagger (peer position)
            tup(&[1, 5, 9], &[1, 5]), // 5's tag passes through... wait, 5 is at index 2
        ];
        let out = engine().run(&tuples);
        assert_eq!(out.class_of(Asn(5)).tagging, TaggingClass::Tagger);
        assert_eq!(out.class_of(Asn(1)).forwarding, ForwardingClass::Forward);
    }

    #[test]
    fn cleaner_inferred_when_tagger_tag_missing() {
        let tuples = vec![
            tup(&[5, 9], &[5]),   // 5 tagger
            tup(&[2, 5, 9], &[]), // 2 strips 5's tag (and is silent)
        ];
        let out = engine().run(&tuples);
        assert_eq!(out.class_of(Asn(2)).forwarding, ForwardingClass::Cleaner);
        assert_eq!(out.class_of(Asn(2)).tagging, TaggingClass::Silent);
    }

    #[test]
    fn cond1_blocks_counting_behind_cleaner() {
        // 2 is a cleaner; 7 sits behind it, so 7 gets no tagging counters.
        let tuples = vec![
            tup(&[5, 9], &[5]),
            tup(&[2, 5, 9], &[]), // establishes 2 as cleaner
            tup(&[2, 7, 9], &[]), // 7 hidden behind cleaner 2
        ];
        let out = engine().run(&tuples);
        let c7 = out.counters.get(Asn(7));
        assert_eq!(c7.t + c7.s, 0, "no counters for hidden AS");
        assert_eq!(out.class_of(Asn(7)), Class::NONE);
    }

    #[test]
    fn race_condition_leaves_none() {
        // Single path 1-2: 1's forwarding needs 2 to be a known tagger,
        // but 2's tagging needs 1 to be a known forward (§5.2.1). With an
        // empty community set neither resolves.
        let tuples = vec![tup(&[1, 2], &[])];
        let out = engine().run(&tuples);
        assert_eq!(out.class_of(Asn(2)), Class::NONE);
        // 1's tagging IS counted (peer position): silent.
        assert_eq!(out.class_of(Asn(1)).tagging, TaggingClass::Silent);
        assert_eq!(out.class_of(Asn(1)).forwarding, ForwardingClass::None);
    }

    #[test]
    fn undecided_on_contradiction() {
        // Peer 1 tags on one path, not on another (selective) — with a
        // 99% threshold and a 50/50 split, undecided.
        let tuples = vec![tup(&[1, 8], &[1]), tup(&[1, 9], &[])];
        let out = engine().run(&tuples);
        assert_eq!(out.class_of(Asn(1)).tagging, TaggingClass::Undecided);
    }

    #[test]
    fn cond2_requires_intermediate_forwarders() {
        // 5 tagger; 3 cleaner between 1 and 5: 1's forwarding must remain
        // unknown (5's light blocked; 3 is silent so it adds no light).
        let tuples = vec![
            tup(&[5, 9], &[5]),
            tup(&[3, 5, 9], &[]),    // 3 cleaner + silent
            tup(&[1, 3, 5, 9], &[]), // 1 before cleaner 3
        ];
        let out = engine().run(&tuples);
        assert_eq!(out.class_of(Asn(3)).forwarding, ForwardingClass::Cleaner);
        let c1 = out.counters.get(Asn(1));
        assert_eq!(c1.f + c1.c, 0, "no forwarding evidence for 1");
    }

    #[test]
    fn deepest_active_index_reported() {
        let tuples = vec![tup(&[1, 2, 3], &[1, 2, 3]), tup(&[2, 9], &[2])];
        let out = engine().run(&tuples);
        assert!(out.deepest_active_index >= 1);
        assert!(out.deepest_active_index <= 3);
    }

    #[test]
    fn empty_input() {
        let out = engine().run(&[]);
        assert!(out.counters.is_empty());
        assert_eq!(out.deepest_active_index, 0);
    }

    #[test]
    fn reclassify_threshold_shift() {
        let tuples = vec![
            tup(&[1, 8], &[1]),
            tup(&[1, 9], &[1]),
            tup(&[1, 7], &[1]),
            tup(&[1, 6], &[]),
        ];
        let out = engine().run(&tuples); // 3/4 = 75% tagger
        assert_eq!(out.class_of(Asn(1)).tagging, TaggingClass::Undecided);
        let relaxed = out.reclassify(Thresholds::uniform(0.7));
        let c1 = relaxed.iter().find(|(a, _)| *a == Asn(1)).unwrap().1;
        assert_eq!(c1.tagging, TaggingClass::Tagger);
    }
}
