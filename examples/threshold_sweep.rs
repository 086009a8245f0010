//! Threshold sensitivity (the Figure 2 experiment, interactive size).
//!
//! Sweeps the classification threshold from 50% to 100% on the `random-p`
//! selective-tagging scenario and prints the ROC points for the tagging
//! and forwarding classifiers — demonstrating the paper's claim that the
//! algorithm is not threshold-sensitive.
//!
//! ```sh
//! cargo run --release --example threshold_sweep
//! ```

use bgp_community_usage::prelude::*;
use bgp_eval::world::truth_map;

fn main() {
    let mut cfg = TopologyConfig::small();
    cfg.collector_peers = 40;
    let topo = cfg.seed(11).build();
    let paths = PathSubstrate::generate(&topo, 4).paths;

    let ds = Scenario::RandomP.materialize(&topo, &paths, 11);
    let truth = truth_map(&ds);
    println!(
        "scenario random-p: {} tuples, {} ASes with ground truth",
        ds.tuples.len(),
        truth.len()
    );

    let thresholds: Vec<f64> = (0..=10).map(|i| 0.5 + 0.05 * i as f64).collect();
    let points = roc_sweep(&ds.tuples, &truth, &thresholds);

    println!("\n thresh | tag TPR | tag FPR | fwd TPR | fwd FPR");
    println!(" -------+---------+---------+---------+--------");
    for p in &points {
        println!(
            "  {:>4.0}% |  {:>6.3} |  {:>6.3} |  {:>6.3} |  {:>6.3}",
            p.threshold * 100.0,
            p.tagging_tpr,
            p.tagging_fpr,
            p.forwarding_tpr,
            p.forwarding_fpr
        );
    }

    let fpr_spread = points.iter().map(|p| p.tagging_fpr).fold(0.0, f64::max)
        - points.iter().map(|p| p.tagging_fpr).fold(1.0, f64::min);
    println!(
        "\ntagging FPR spread across the whole sweep: {:.3} — the threshold barely matters",
        fpr_spread
    );
}
