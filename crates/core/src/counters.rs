//! Per-AS community-usage counters and threshold queries (paper §5.3).
//!
//! Four counters per AS: `t` (seen tagging), `s` (seen silent), `f` (seen
//! forwarding), `c` (seen cleaning). Counters only grow; the threshold
//! queries `is_tagger` / `is_silent` / `is_forward` / `is_cleaner` turn
//! counter shares into predicates, and [`CounterStore::class_of`]
//! implements `get_class` (§5.5).

use crate::classify::{Class, ForwardingClass, TaggingClass};
use bgp_types::prelude::*;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Classification thresholds. The paper uses 99% for all four by default
/// and sweeps 50–100% in Figure 2.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Thresholds {
    /// `t/(t+s)` must reach this for `is_tagger`.
    pub tagger: f64,
    /// `s/(t+s)` must reach this for `is_silent`.
    pub silent: f64,
    /// `f/(f+c)` must reach this for `is_forward`.
    pub forward: f64,
    /// `c/(f+c)` must reach this for `is_cleaner`.
    pub cleaner: f64,
}

impl Default for Thresholds {
    fn default() -> Self {
        Thresholds::uniform(0.99)
    }
}

impl Thresholds {
    /// All four thresholds set to `v`.
    pub fn uniform(v: f64) -> Self {
        assert!((0.0..=1.0).contains(&v), "threshold {v} out of [0,1]");
        Thresholds {
            tagger: v,
            silent: v,
            forward: v,
            cleaner: v,
        }
    }
}

/// The four counters of one AS.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct AsCounters {
    /// Observed tagging.
    pub t: u64,
    /// Observed silence.
    pub s: u64,
    /// Observed forwarding.
    pub f: u64,
    /// Observed cleaning.
    pub c: u64,
}

impl AsCounters {
    /// `t/(t+s)`, or `None` when no tagging observations exist.
    pub fn tag_share(&self) -> Option<f64> {
        let total = self.t + self.s;
        (total > 0).then(|| self.t as f64 / total as f64)
    }

    /// `f/(f+c)`, or `None` when no forwarding observations exist.
    pub fn fwd_share(&self) -> Option<f64> {
        let total = self.f + self.c;
        (total > 0).then(|| self.f as f64 / total as f64)
    }

    /// Add another counter quadruple onto this one. The single merge
    /// primitive behind every delta fold in the workspace (dense column
    /// merges, cached stream steps, [`CounterStore::merge`]).
    #[inline]
    pub fn accumulate(&mut self, d: &AsCounters) {
        self.t += d.t;
        self.s += d.s;
        self.f += d.f;
        self.c += d.c;
    }

    /// Take `d` back out — the inverse of
    /// [`accumulate`](AsCounters::accumulate), for a `d` that is part of
    /// what these counters hold.
    #[inline]
    pub fn retract(&mut self, d: &AsCounters) {
        self.t -= d.t;
        self.s -= d.s;
        self.f -= d.f;
        self.c -= d.c;
    }

    /// Whether all four counters are zero.
    #[inline]
    pub fn is_zero(&self) -> bool {
        self.t == 0 && self.s == 0 && self.f == 0 && self.c == 0
    }

    /// `get_class` (§5.5) evaluated on this quadruple alone — the
    /// store-free classification primitive behind
    /// [`CounterStore::class_of`]. Exposed so per-query consumers (the
    /// serve layer's what-if reclassification) can classify a single
    /// record without materializing a counter store.
    pub fn classify(&self, th: &Thresholds) -> Class {
        let tagging = if self.t + self.s == 0 {
            TaggingClass::None
        } else if self.tag_share().is_some_and(|x| x >= th.tagger) {
            TaggingClass::Tagger
        } else if self.tag_share().is_some_and(|x| (1.0 - x) >= th.silent) {
            TaggingClass::Silent
        } else {
            TaggingClass::Undecided
        };
        let forwarding = if self.f + self.c == 0 {
            ForwardingClass::None
        } else if self.fwd_share().is_some_and(|x| x >= th.forward) {
            ForwardingClass::Forward
        } else if self.fwd_share().is_some_and(|x| (1.0 - x) >= th.cleaner) {
            ForwardingClass::Cleaner
        } else {
            ForwardingClass::Undecided
        };
        Class {
            tagging,
            forwarding,
        }
    }
}

/// Counter storage for all ASes, plus threshold-based queries — the
/// batch engine's outcome and the reference engine's working state. A
/// sealed stream epoch keeps dense columns instead and never builds one.
///
/// Keyed by the multiply-xorshift [`AsnHasher`] (per-process seeded via
/// [`AsnBuildHasher`] — AS_PATH contents are remote-influenced, so the
/// seed blocks offline collision crafting) rather than SipHash: the map
/// is on the dense-to-sparse conversion path of every batch run.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct CounterStore {
    counters: HashMap<Asn, AsCounters, AsnBuildHasher>,
}

impl CounterStore {
    /// Empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Empty store pre-sized for `n` ASes (dense-to-sparse conversions
    /// know the counted-AS cardinality up front; pre-sizing skips the
    /// incremental rehash growth).
    pub fn with_capacity(n: usize) -> Self {
        CounterStore {
            counters: HashMap::with_capacity_and_hasher(n, Default::default()),
        }
    }

    /// Counters of one AS (zeros if never touched).
    pub fn get(&self, asn: Asn) -> AsCounters {
        self.counters.get(&asn).copied().unwrap_or_default()
    }

    /// Counters of one AS, or `None` when the AS was never counted —
    /// distinguishes "never seen" from "seen with zero evidence".
    pub fn lookup(&self, asn: Asn) -> Option<AsCounters> {
        self.counters.get(&asn).copied()
    }

    /// Mutable counters of one AS.
    pub fn entry(&mut self, asn: Asn) -> &mut AsCounters {
        self.counters.entry(asn).or_default()
    }

    /// Merge a delta map produced by a parallel counting shard.
    pub fn merge(&mut self, delta: &HashMap<Asn, AsCounters>) {
        for (&asn, d) in delta {
            self.counters.entry(asn).or_default().accumulate(d);
        }
    }

    /// Number of ASes with any counter.
    pub fn len(&self) -> usize {
        self.counters.len()
    }

    /// Whether no AS has counters.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
    }

    /// Iterate (ASN, counters).
    pub fn iter(&self) -> impl Iterator<Item = (Asn, AsCounters)> + '_ {
        self.counters.iter().map(|(&a, &c)| (a, c))
    }

    /// `is_tagger(A)` — §5.3.
    pub fn is_tagger(&self, asn: Asn, th: &Thresholds) -> bool {
        self.get(asn).tag_share().is_some_and(|x| x >= th.tagger)
    }

    /// `is_silent(A)` — §5.3.
    pub fn is_silent(&self, asn: Asn, th: &Thresholds) -> bool {
        self.get(asn)
            .tag_share()
            .is_some_and(|x| (1.0 - x) >= th.silent)
    }

    /// `is_forward(A)` — §5.3. Used as `Cond1` building block: with no
    /// forwarding observations this is `false` (conservative).
    pub fn is_forward(&self, asn: Asn, th: &Thresholds) -> bool {
        self.get(asn).fwd_share().is_some_and(|x| x >= th.forward)
    }

    /// `is_cleaner(A)` — §5.3.
    pub fn is_cleaner(&self, asn: Asn, th: &Thresholds) -> bool {
        self.get(asn)
            .fwd_share()
            .is_some_and(|x| (1.0 - x) >= th.cleaner)
    }

    /// `get_class(A)` — §5.5.
    pub fn class_of(&self, asn: Asn, th: &Thresholds) -> Class {
        self.get(asn).classify(th)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shares() {
        let c = AsCounters {
            t: 99,
            s: 1,
            f: 0,
            c: 0,
        };
        assert!((c.tag_share().unwrap() - 0.99).abs() < 1e-9);
        assert_eq!(c.fwd_share(), None);
        assert_eq!(AsCounters::default().tag_share(), None);
    }

    #[test]
    fn threshold_queries() {
        let th = Thresholds::default(); // 0.99
        let mut store = CounterStore::new();
        store.entry(Asn(1)).t = 99;
        store.entry(Asn(1)).s = 1;
        assert!(store.is_tagger(Asn(1), &th));
        assert!(!store.is_silent(Asn(1), &th));

        store.entry(Asn(2)).t = 98;
        store.entry(Asn(2)).s = 2; // 98% < 99%
        assert!(!store.is_tagger(Asn(2), &th));
        assert!(!store.is_silent(Asn(2), &th));

        // No observations: all predicates false.
        assert!(!store.is_tagger(Asn(3), &th));
        assert!(!store.is_forward(Asn(3), &th));
    }

    #[test]
    fn class_of_matrix() {
        let th = Thresholds::default();
        let mut store = CounterStore::new();
        // tagger-forward
        *store.entry(Asn(1)) = AsCounters {
            t: 100,
            s: 0,
            f: 100,
            c: 0,
        };
        assert_eq!(store.class_of(Asn(1), &th).to_string(), "tf");
        // silent-cleaner
        *store.entry(Asn(2)) = AsCounters {
            t: 0,
            s: 100,
            f: 0,
            c: 100,
        };
        assert_eq!(store.class_of(Asn(2), &th).to_string(), "sc");
        // undecided tagging, none forwarding
        *store.entry(Asn(3)) = AsCounters {
            t: 50,
            s: 50,
            f: 0,
            c: 0,
        };
        assert_eq!(store.class_of(Asn(3), &th).to_string(), "un");
        // none at all
        assert_eq!(store.class_of(Asn(4), &th).to_string(), "nn");
    }

    #[test]
    fn lower_threshold_decides_more() {
        let mut store = CounterStore::new();
        *store.entry(Asn(1)) = AsCounters {
            t: 80,
            s: 20,
            f: 0,
            c: 0,
        };
        assert_eq!(
            store.class_of(Asn(1), &Thresholds::uniform(0.99)).tagging,
            TaggingClass::Undecided
        );
        assert_eq!(
            store.class_of(Asn(1), &Thresholds::uniform(0.75)).tagging,
            TaggingClass::Tagger
        );
    }

    #[test]
    fn merge_accumulates() {
        let mut store = CounterStore::new();
        store.entry(Asn(1)).t = 5;
        let mut delta = HashMap::new();
        delta.insert(
            Asn(1),
            AsCounters {
                t: 2,
                s: 1,
                f: 0,
                c: 0,
            },
        );
        delta.insert(
            Asn(2),
            AsCounters {
                t: 0,
                s: 0,
                f: 3,
                c: 0,
            },
        );
        store.merge(&delta);
        assert_eq!(
            store.get(Asn(1)),
            AsCounters {
                t: 7,
                s: 1,
                f: 0,
                c: 0
            }
        );
        assert_eq!(store.get(Asn(2)).f, 3);
        assert_eq!(store.len(), 2);
    }

    #[test]
    #[should_panic(expected = "out of [0,1]")]
    fn bad_threshold_panics() {
        Thresholds::uniform(1.5);
    }

    #[test]
    fn boundary_threshold_one() {
        // threshold 1.0: even one contrary observation blocks the class.
        let th = Thresholds::uniform(1.0);
        let mut store = CounterStore::new();
        *store.entry(Asn(1)) = AsCounters {
            t: 1000,
            s: 1,
            f: 0,
            c: 0,
        };
        assert!(!store.is_tagger(Asn(1), &th));
        *store.entry(Asn(2)) = AsCounters {
            t: 1000,
            s: 0,
            f: 0,
            c: 0,
        };
        assert!(store.is_tagger(Asn(2), &th));
    }
}
