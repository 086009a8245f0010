//! The row-based baseline algorithm (paper §5.7, Listing 2).
//!
//! A naive comparator that processes each tuple independently, without the
//! Cond1/Cond2 machinery: tagging counters are incremented at every path
//! position, and forwarding counters from adjacency alone (if my
//! downstream neighbor's community survived to the collector, everyone
//! upstream of it forwarded; if not, I cleaned).
//!
//! The paper keeps this as the motivating straw man: it is cheaper but
//! susceptible to hidden behavior and noise — the ablation and
//! comparison tests quantify exactly that.

use crate::counters::{CounterStore, Thresholds};
use crate::engine::InferenceOutcome;
use bgp_types::prelude::*;

/// Run the row-based baseline over deduplicated tuples.
pub fn run_row_based(tuples: &[PathCommTuple], thresholds: Thresholds) -> InferenceOutcome {
    let mut counters = CounterStore::new();
    let mut deepest = 0usize;

    // PHASE 1: tagging — every position of every path, unconditionally.
    for t in tuples {
        for (i, &ax) in t.path.asns().iter().enumerate() {
            deepest = deepest.max(i + 1);
            let e = counters.entry(ax);
            if t.comm.contains_upper(ax) {
                e.t += 1;
            } else {
                e.s += 1;
            }
        }
    }

    // PHASE 2: forwarding — adjacency heuristic from Listing 2: walk from
    // the origin side; when A_{x+1}'s community is absent charge A_x as a
    // cleaner, otherwise credit everyone upstream of A_{x+1} as forwards.
    for t in tuples {
        let asns = t.path.asns();
        let n = asns.len();
        for x in (1..n).rev() {
            let downstream = asns[x]; // A_{x+1} in 1-based terms
            if t.comm.contains_upper(downstream) {
                for &aj in &asns[..x] {
                    counters.entry(aj).f += 1;
                }
            } else {
                counters.entry(asns[x - 1]).c += 1;
            }
        }
    }

    InferenceOutcome {
        counters,
        thresholds,
        deepest_active_index: deepest,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::{ForwardingClass, TaggingClass};
    use crate::engine::{InferenceConfig, InferenceEngine};

    fn tup(p: &[u32], uppers: &[u32]) -> PathCommTuple {
        PathCommTuple::new(
            path(p),
            CommunitySet::from_iter(uppers.iter().map(|&u| AnyCommunity::tag_for(Asn(u), 100))),
        )
    }

    #[test]
    fn counts_all_positions() {
        let out = run_row_based(&[tup(&[1, 2, 3], &[1, 2, 3])], Thresholds::default());
        for a in [1u32, 2, 3] {
            assert_eq!(out.class_of(Asn(a)).tagging, TaggingClass::Tagger);
        }
        // 1 and 2 get forward credit from surviving downstream tags.
        assert_eq!(out.class_of(Asn(1)).forwarding, ForwardingClass::Forward);
        assert_eq!(out.class_of(Asn(2)).forwarding, ForwardingClass::Forward);
    }

    #[test]
    fn cleaner_charged_on_missing_downstream_tag() {
        // 2 sits before silent 3 — row-based wrongly charges 2 as cleaner
        // even though 3 simply never tagged. This is exactly the §5.7
        // weakness the column-based design avoids.
        let out = run_row_based(&[tup(&[2, 3], &[])], Thresholds::default());
        assert_eq!(out.class_of(Asn(2)).forwarding, ForwardingClass::Cleaner);
    }

    #[test]
    fn hidden_behavior_misclassified_vs_column() {
        // 2 is a cleaner; 7 behind it looks silent to the row-based
        // approach but gets NO counters from the column-based engine.
        let tuples = vec![
            tup(&[5, 9], &[5]),
            tup(&[2, 5, 9], &[]),
            tup(&[2, 7, 9], &[]),
        ];
        let row = run_row_based(&tuples, Thresholds::default());
        assert_eq!(
            row.class_of(Asn(7)).tagging,
            TaggingClass::Silent,
            "row-based guesses"
        );
        let col = InferenceEngine::new(InferenceConfig {
            threads: 1,
            ..Default::default()
        })
        .run(&tuples);
        assert_eq!(
            col.class_of(Asn(7)).tagging,
            TaggingClass::None,
            "column-based abstains"
        );
    }

    #[test]
    fn empty_input() {
        let out = run_row_based(&[], Thresholds::default());
        assert!(out.counters.is_empty());
    }
}
