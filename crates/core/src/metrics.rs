//! Evaluation metrics against ground truth (paper §6.3–§6.4).
//!
//! * [`ConfusionMatrix`] — assigned roles vs. classification results, with
//!   separate rows for hidden and leaf ASes (Tables 5/6);
//! * [`PrecisionRecall`] — the paper's headline quality numbers (Table 2);
//! * [`roc_sweep`] — threshold sweeps for the ROC curves (Figure 2).
//!
//! Ground truth arrives as [`TruthEntry`] values, decoupled from the
//! simulator so the inference crate stays reusable on real data (where
//! ground truth may come from operator surveys instead).

use crate::classify::{ForwardingClass, TaggingClass};
use crate::engine::{InferenceConfig, InferenceEngine, InferenceOutcome};
use bgp_types::prelude::*;
use std::collections::HashMap;

/// Ground-truth tagging behavior, from the evaluator's perspective.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TruthTagging {
    /// Consistent tagger.
    Tagger,
    /// Consistent silent.
    Silent,
    /// Selective tagger (counts toward precision when classified tagger,
    /// but is excluded from recall).
    Selective,
}

/// Ground-truth forwarding behavior.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TruthForwarding {
    /// Forwards foreign communities.
    Forward,
    /// Cleans foreign communities.
    Cleaner,
}

/// Ground truth for one AS, including observability annotations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TruthEntry {
    /// Assigned tagging behavior.
    pub tagging: TruthTagging,
    /// Assigned forwarding behavior.
    pub forwarding: TruthForwarding,
    /// Tagging hidden behind cleaners on every path.
    pub tagging_hidden: bool,
    /// Forwarding unobservable (no clean upstream + lit downstream combo).
    pub forwarding_hidden: bool,
    /// Leaf AS (no forwarding behavior to observe).
    pub leaf: bool,
}

/// One row of a confusion matrix: counts per classification outcome.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConfusionRow {
    /// Classified into the first positive class (tagger / forward).
    pub pos: u64,
    /// Classified into the second class (silent / cleaner).
    pub neg: u64,
    /// Classified undecided.
    pub undecided: u64,
    /// No inference.
    pub none: u64,
}

impl ConfusionRow {
    /// Total ASes in the row.
    pub fn total(&self) -> u64 {
        self.pos + self.neg + self.undecided + self.none
    }
}

/// Confusion matrices for one scenario (tagging side and forwarding side).
///
/// Row keys mirror the paper's tables: the truth label plus a visibility
/// qualifier (`""`, `"hidden"`, `"leaf"`).
#[derive(Debug, Clone, Default)]
pub struct ConfusionMatrix {
    /// Tagging rows: `(label, qualifier) -> row`.
    pub tagging: HashMap<(&'static str, &'static str), ConfusionRow>,
    /// Forwarding rows.
    pub forwarding: HashMap<(&'static str, &'static str), ConfusionRow>,
}

impl ConfusionMatrix {
    /// Build from an outcome and ground truth.
    pub fn build(outcome: &InferenceOutcome, truth: &HashMap<Asn, TruthEntry>) -> Self {
        let mut m = ConfusionMatrix::default();
        for (&asn, t) in truth {
            let class = outcome.class_of(asn);

            let tag_label = match t.tagging {
                TruthTagging::Tagger => "tagger",
                TruthTagging::Silent => "silent",
                TruthTagging::Selective => "selective",
            };
            let tag_qual = if t.tagging_hidden { "hidden" } else { "" };
            let row = m.tagging.entry((tag_label, tag_qual)).or_default();
            match class.tagging {
                TaggingClass::Tagger => row.pos += 1,
                TaggingClass::Silent => row.neg += 1,
                TaggingClass::Undecided => row.undecided += 1,
                TaggingClass::None => row.none += 1,
            }

            let fwd_label = match t.forwarding {
                TruthForwarding::Forward => "forward",
                TruthForwarding::Cleaner => "cleaner",
            };
            let fwd_qual = if t.leaf {
                "leaf"
            } else if t.forwarding_hidden {
                "hidden"
            } else {
                ""
            };
            let row = m.forwarding.entry((fwd_label, fwd_qual)).or_default();
            match class.forwarding {
                ForwardingClass::Forward => row.pos += 1,
                ForwardingClass::Cleaner => row.neg += 1,
                ForwardingClass::Undecided => row.undecided += 1,
                ForwardingClass::None => row.none += 1,
            }
        }
        m
    }

    /// Fetch a tagging row (zeros when absent).
    pub fn tagging_row(&self, label: &'static str, qual: &'static str) -> ConfusionRow {
        self.tagging
            .get(&(label, qual))
            .copied()
            .unwrap_or_default()
    }

    /// Fetch a forwarding row (zeros when absent).
    pub fn forwarding_row(&self, label: &'static str, qual: &'static str) -> ConfusionRow {
        self.forwarding
            .get(&(label, qual))
            .copied()
            .unwrap_or_default()
    }
}

/// Precision/recall per behavior dimension (Table 2 columns).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PrecisionRecall {
    /// Tagging recall.
    pub tagging_recall: f64,
    /// Tagging precision.
    pub tagging_precision: f64,
    /// Forwarding recall.
    pub forwarding_recall: f64,
    /// Forwarding precision.
    pub forwarding_precision: f64,
}

/// Compute precision/recall following the paper's accounting:
///
/// * **Recall** considers only behaviors that are visible, consistent
///   (non-selective) and present (non-leaf for forwarding); a false
///   negative is a visible instance classified `u` or `n`.
/// * **Precision** counts every decided inference; a selective tagger
///   classified `t` is treated as correct (it does tag), classified `s` as
///   wrong.
pub fn precision_recall(
    outcome: &InferenceOutcome,
    truth: &HashMap<Asn, TruthEntry>,
) -> PrecisionRecall {
    let mut t_tp = 0u64; // visible consistent, correctly classified
    let mut t_vis = 0u64; // visible consistent instances
    let mut t_correct = 0u64;
    let mut t_decided = 0u64;
    let mut f_tp = 0u64;
    let mut f_vis = 0u64;
    let mut f_correct = 0u64;
    let mut f_decided = 0u64;

    for (&asn, t) in truth {
        let class = outcome.class_of(asn);

        // ---- tagging ----
        let decided_tag = matches!(class.tagging, TaggingClass::Tagger | TaggingClass::Silent);
        if decided_tag {
            t_decided += 1;
            let correct = match (t.tagging, class.tagging) {
                (TruthTagging::Tagger, TaggingClass::Tagger) => true,
                (TruthTagging::Silent, TaggingClass::Silent) => true,
                // A selective tagger does tag: `t` is acceptable.
                (TruthTagging::Selective, TaggingClass::Tagger) => true,
                _ => false,
            };
            if correct {
                t_correct += 1;
            }
        }
        if !t.tagging_hidden && t.tagging != TruthTagging::Selective {
            t_vis += 1;
            let correct = matches!(
                (t.tagging, class.tagging),
                (TruthTagging::Tagger, TaggingClass::Tagger)
                    | (TruthTagging::Silent, TaggingClass::Silent)
            );
            if correct {
                t_tp += 1;
            }
        }

        // ---- forwarding ----
        let decided_fwd = matches!(
            class.forwarding,
            ForwardingClass::Forward | ForwardingClass::Cleaner
        );
        if decided_fwd {
            f_decided += 1;
            let correct = matches!(
                (t.forwarding, class.forwarding),
                (TruthForwarding::Forward, ForwardingClass::Forward)
                    | (TruthForwarding::Cleaner, ForwardingClass::Cleaner)
            );
            if correct {
                f_correct += 1;
            }
        }
        if !t.leaf && !t.forwarding_hidden {
            f_vis += 1;
            let correct = matches!(
                (t.forwarding, class.forwarding),
                (TruthForwarding::Forward, ForwardingClass::Forward)
                    | (TruthForwarding::Cleaner, ForwardingClass::Cleaner)
            );
            if correct {
                f_tp += 1;
            }
        }
    }

    let ratio = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    PrecisionRecall {
        tagging_recall: ratio(t_tp, t_vis),
        tagging_precision: ratio(t_correct, t_decided),
        forwarding_recall: ratio(f_tp, f_vis),
        forwarding_precision: ratio(f_correct, f_decided),
    }
}

/// One point on a ROC curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RocPoint {
    /// The uniform threshold that produced this point.
    pub threshold: f64,
    /// Tagging classifier: true-positive rate (tagger detection).
    pub tagging_tpr: f64,
    /// Tagging classifier: false-positive rate.
    pub tagging_fpr: f64,
    /// Forwarding classifier: true-positive rate (forward detection).
    pub forwarding_tpr: f64,
    /// Forwarding classifier: false-positive rate.
    pub forwarding_fpr: f64,
}

/// Sweep uniform thresholds and compute ROC points (Figure 2).
///
/// For the *tagging* classifier the positive class is `tagger`; negatives
/// are silent and selective ASes (a selective AS classified `t` at a lax
/// threshold is a false positive in the ROC view — this is what bends the
/// curves in the paper). Only visible, non-leaf-irrelevant instances are
/// scored. The engine is re-run per threshold because thresholds also
/// gate the counting conditions.
pub fn roc_sweep(
    tuples: &[PathCommTuple],
    truth: &HashMap<Asn, TruthEntry>,
    thresholds: &[f64],
) -> Vec<RocPoint> {
    thresholds
        .iter()
        .map(|&thr| {
            let outcome = InferenceEngine::new(InferenceConfig::with_threshold(thr)).run(tuples);

            let (mut tp, mut fp, mut pos, mut neg) = (0u64, 0u64, 0u64, 0u64);
            let (mut ftp, mut ffp, mut fpos, mut fneg) = (0u64, 0u64, 0u64, 0u64);
            for (&asn, t) in truth {
                let class = outcome.class_of(asn);
                if !t.tagging_hidden {
                    match t.tagging {
                        TruthTagging::Tagger => {
                            pos += 1;
                            if class.tagging == TaggingClass::Tagger {
                                tp += 1;
                            }
                        }
                        TruthTagging::Silent | TruthTagging::Selective => {
                            neg += 1;
                            if class.tagging == TaggingClass::Tagger {
                                fp += 1;
                            }
                        }
                    }
                }
                if !t.leaf && !t.forwarding_hidden {
                    match t.forwarding {
                        TruthForwarding::Forward => {
                            fpos += 1;
                            if class.forwarding == ForwardingClass::Forward {
                                ftp += 1;
                            }
                        }
                        TruthForwarding::Cleaner => {
                            fneg += 1;
                            if class.forwarding == ForwardingClass::Forward {
                                ffp += 1;
                            }
                        }
                    }
                }
            }
            let ratio = |n: u64, d: u64| if d == 0 { 0.0 } else { n as f64 / d as f64 };
            RocPoint {
                threshold: thr,
                tagging_tpr: ratio(tp, pos),
                tagging_fpr: ratio(fp, neg),
                forwarding_tpr: ratio(ftp, fpos),
                forwarding_fpr: ratio(ffp, fneg),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tup(p: &[u32], uppers: &[u32]) -> PathCommTuple {
        PathCommTuple::new(
            path(p),
            CommunitySet::from_iter(uppers.iter().map(|&u| AnyCommunity::tag_for(Asn(u), 100))),
        )
    }

    fn truth(entries: &[(u32, TruthTagging, TruthForwarding, bool)]) -> HashMap<Asn, TruthEntry> {
        entries
            .iter()
            .map(|&(a, tg, fw, leaf)| {
                (
                    Asn(a),
                    TruthEntry {
                        tagging: tg,
                        forwarding: fw,
                        tagging_hidden: false,
                        forwarding_hidden: false,
                        leaf,
                    },
                )
            })
            .collect()
    }

    fn run(tuples: &[PathCommTuple]) -> InferenceOutcome {
        InferenceEngine::new(InferenceConfig {
            threads: 1,
            ..Default::default()
        })
        .run(tuples)
    }

    #[test]
    fn perfect_world_prec_rec_one() {
        // 1 tags + forwards 5's tag; 5 tags. Origin 9 silent leaf.
        let tuples = vec![tup(&[5, 9], &[5]), tup(&[1, 5, 9], &[1, 5])];
        let outcome = run(&tuples);
        let t = truth(&[
            (1, TruthTagging::Tagger, TruthForwarding::Forward, false),
            (5, TruthTagging::Tagger, TruthForwarding::Forward, false),
            (9, TruthTagging::Silent, TruthForwarding::Forward, true),
        ]);
        // 9's tagging is visible (all upstream forward) and correct-silent;
        // mark as visible in this hand-built truth.
        let pr = precision_recall(&outcome, &t);
        assert!((pr.tagging_precision - 1.0).abs() < 1e-9);
        assert!(pr.tagging_recall > 0.6);
        assert!((pr.forwarding_precision - 1.0).abs() < 1e-9);
    }

    #[test]
    fn selective_counts_for_precision_not_recall() {
        let tuples = vec![tup(&[3, 9], &[3])];
        let outcome = run(&tuples); // 3 classified tagger
        let mut t = truth(&[(3, TruthTagging::Selective, TruthForwarding::Forward, false)]);
        t.get_mut(&Asn(3)).unwrap().forwarding_hidden = true;
        let pr = precision_recall(&outcome, &t);
        assert!(
            (pr.tagging_precision - 1.0).abs() < 1e-9,
            "selective->t is correct"
        );
        assert_eq!(
            pr.tagging_recall, 0.0,
            "selective excluded from recall denominator"
        );
    }

    #[test]
    fn misclassification_hurts_precision() {
        let tuples = vec![tup(&[3, 9], &[3])];
        let outcome = run(&tuples); // 3 classified tagger
        let t = truth(&[(3, TruthTagging::Silent, TruthForwarding::Forward, false)]);
        let pr = precision_recall(&outcome, &t);
        assert_eq!(pr.tagging_precision, 0.0);
    }

    #[test]
    fn confusion_rows_sum_to_truth_size() {
        let tuples = vec![tup(&[5, 9], &[5]), tup(&[1, 5, 9], &[1, 5])];
        let outcome = run(&tuples);
        let t = truth(&[
            (1, TruthTagging::Tagger, TruthForwarding::Forward, false),
            (5, TruthTagging::Tagger, TruthForwarding::Forward, false),
            (9, TruthTagging::Silent, TruthForwarding::Forward, true),
        ]);
        let m = ConfusionMatrix::build(&outcome, &t);
        let tag_total: u64 = m.tagging.values().map(|r| r.total()).sum();
        let fwd_total: u64 = m.forwarding.values().map(|r| r.total()).sum();
        assert_eq!(tag_total, 3);
        assert_eq!(fwd_total, 3);
        assert_eq!(m.tagging_row("tagger", "").pos, 2);
        assert_eq!(m.forwarding_row("forward", "leaf").total(), 1);
    }

    #[test]
    fn hidden_rows_separated() {
        let outcome = run(&[]); // classifies everything as none
        let mut t = truth(&[(7, TruthTagging::Tagger, TruthForwarding::Cleaner, false)]);
        t.get_mut(&Asn(7)).unwrap().tagging_hidden = true;
        t.get_mut(&Asn(7)).unwrap().forwarding_hidden = true;
        let m = ConfusionMatrix::build(&outcome, &t);
        assert_eq!(m.tagging_row("tagger", "hidden").none, 1);
        assert_eq!(m.tagging_row("tagger", "").total(), 0);
        assert_eq!(m.forwarding_row("cleaner", "hidden").none, 1);
    }

    #[test]
    fn roc_monotone_tpr_in_threshold() {
        // Peer 1: tags 3 of 4 paths -> threshold 0.7 classifies tagger,
        // 0.8+ does not.
        let tuples = vec![
            tup(&[1, 6], &[1]),
            tup(&[1, 7], &[1]),
            tup(&[1, 8], &[1]),
            tup(&[1, 9], &[]),
        ];
        let t = truth(&[(1, TruthTagging::Tagger, TruthForwarding::Forward, false)]);
        let pts = roc_sweep(&tuples, &t, &[0.5, 0.9]);
        assert_eq!(pts.len(), 2);
        assert!(
            pts[0].tagging_tpr >= pts[1].tagging_tpr,
            "TPR falls as threshold rises"
        );
        assert_eq!(pts[0].tagging_tpr, 1.0);
        assert_eq!(pts[1].tagging_tpr, 0.0);
    }
}
