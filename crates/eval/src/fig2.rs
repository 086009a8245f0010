//! Figure 2 — ROC curves under threshold sweeps.
//!
//! Repeats the inference on the `random-p` and `random-pp` scenarios for
//! every threshold between 50% and 100%, reporting the tagging and
//! forwarding classifiers' TPR/FPR. The paper's headline: performance is
//! *not* sensitive to the threshold — FPR moves only a few percent across
//! the whole sweep while TPR drops ~20%.

use crate::report::{ratio, Table};
use crate::world::{truth_map, World};
use bgp_infer::prelude::*;
use bgp_sim::prelude::*;

/// ROC results for one scenario.
#[derive(Debug, Clone)]
pub struct RocCurve {
    /// Scenario name.
    pub scenario: &'static str,
    /// Sweep points, ascending threshold.
    pub points: Vec<RocPoint>,
}

/// The full Figure 2 (both scenarios).
#[derive(Debug, Clone)]
pub struct Fig2 {
    /// `random-p` (left plot) and `random-pp` (right plot).
    pub curves: Vec<RocCurve>,
}

/// Default sweep: 50%..=100% in 5-point steps.
pub fn default_thresholds() -> Vec<f64> {
    (0..=10).map(|i| 0.50 + i as f64 * 0.05).collect()
}

/// Run the sweep for both selective scenarios.
pub fn run(world: &World, thresholds: &[f64], seed: u64) -> Fig2 {
    let curves = [Scenario::RandomP, Scenario::RandomPp]
        .into_iter()
        .map(|scenario| {
            let ds = scenario.materialize(&world.graph, &world.paths, seed);
            let truth = truth_map(&ds);
            let points = roc_sweep(&ds.tuples, &truth, thresholds);
            RocCurve {
                scenario: scenario.name(),
                points,
            }
        })
        .collect();
    Fig2 { curves }
}

impl Fig2 {
    /// Render both curves as threshold tables.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for curve in &self.curves {
            let mut t = Table::new(
                format!("Figure 2: ROC ({})", curve.scenario),
                &["threshold", "tag TPR", "tag FPR", "fwd TPR", "fwd FPR"],
            );
            for p in &curve.points {
                t.row(&[
                    format!("{:.0}%", p.threshold * 100.0),
                    ratio(p.tagging_tpr),
                    ratio(p.tagging_fpr),
                    ratio(p.forwarding_tpr),
                    ratio(p.forwarding_fpr),
                ]);
            }
            out.push_str(&t.render());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgp_topology::prelude::*;

    fn tiny_world() -> World {
        let mut cfg = TopologyConfig::small();
        cfg.transit = 30;
        cfg.edge = 110;
        cfg.collector_peers = 12;
        let graph = cfg.seed(17).build();
        let paths = PathSubstrate::generate(&graph, 2).paths;
        let cones = CustomerCones::compute(&graph);
        World {
            graph,
            paths,
            cones,
        }
    }

    #[test]
    fn roc_shape_matches_paper() {
        let w = tiny_world();
        let fig = run(&w, &[0.5, 0.75, 1.0], 3);
        assert_eq!(fig.curves.len(), 2);
        for curve in &fig.curves {
            let pts = &curve.points;
            assert_eq!(pts.len(), 3);
            // Raising the threshold lowers (or holds) both rates: fewer
            // decided inferences overall.
            assert!(pts[0].tagging_tpr >= pts[2].tagging_tpr);
            assert!(pts[0].tagging_fpr >= pts[2].tagging_fpr);
            // Forwarding FPR stays small across the sweep (paper: 1% -> 0%).
            for p in pts {
                assert!(
                    p.forwarding_fpr < 0.15,
                    "fwd FPR {} too high",
                    p.forwarding_fpr
                );
            }
        }
    }

    #[test]
    fn insensitivity_band() {
        // The paper's core claim: the spread of FPR across the whole sweep
        // is small (tagging ~10 percentage points, forwarding ~1).
        let w = tiny_world();
        let fig = run(&w, &default_thresholds(), 5);
        for curve in &fig.curves {
            let fprs: Vec<f64> = curve.points.iter().map(|p| p.tagging_fpr).collect();
            let spread =
                fprs.iter().cloned().fold(0.0, f64::max) - fprs.iter().cloned().fold(1.0, f64::min);
            assert!(
                spread < 0.25,
                "{}: tagging FPR spread {spread}",
                curve.scenario
            );
        }
    }

    #[test]
    fn renders() {
        let w = tiny_world();
        let fig = run(&w, &[0.5, 1.0], 1);
        let s = fig.render();
        assert!(s.contains("random-p"));
        assert!(s.contains("random-pp"));
    }
}
