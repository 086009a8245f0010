//! Figure 3 — inference stability when incrementally adding days.
//!
//! Generates five successive days of update data (day-salted update
//! selection and noise), ingests them cumulatively, classifies after each
//! day, and buckets every fully-classified AS as **new** (first time in
//! this class), **stable** (in the class every day since day 1), or
//! **recurring** (returned after an interruption). The paper's finding:
//! 90–97% of ASes are stable from day 1 — one day of data suffices.

use crate::report::Table;
use crate::world::{realistic_roles, World};
use bgp_collector::prelude::*;
use bgp_infer::prelude::*;
use bgp_sim::prelude::NoiseModel;
use bgp_types::prelude::*;
use std::collections::{HashMap, HashSet};

/// The four full classes tracked.
pub const FULL_CLASSES: [&str; 4] = ["tf", "tc", "sf", "sc"];

/// Per-day, per-class membership counts.
#[derive(Debug, Clone, Default)]
pub struct DayCounts {
    /// New ASes (first appearance in the class).
    pub new: u64,
    /// Stable since day 1.
    pub stable: u64,
    /// Recurring after an interruption.
    pub recurring: u64,
}

/// The computed Figure 3.
#[derive(Debug, Clone, Default)]
pub struct Fig3 {
    /// `counts[class][day]` with class order `FULL_CLASSES`, day 0-based.
    pub counts: [Vec<DayCounts>; 4],
    /// Number of days.
    pub days: usize,
}

/// Run the stability experiment over `days` successive days.
pub fn run(world: &World, days: usize, seed: u64) -> Fig3 {
    let roles = realistic_roles(&world.graph, &world.cones, seed);

    let mut cumulative = TupleSet::new();
    // Per class: day-indexed membership sets.
    let mut history: [Vec<HashSet<Asn>>; 4] = Default::default();

    for day in 0..days {
        // Day-specific noise keeps day-to-day outputs slightly different,
        // mimicking real-world measurement variation.
        let noise = NoiseModel::paper_defaults(world.graph.asns(), seed ^ (day as u64 + 1) << 8);
        let builder = ArchiveBuilder::new(&world.graph, &roles).with_noise(&noise);
        // Real collectors dump RIBs daily; each day also contributes a
        // day-salted update stream.
        let project = CollectorProject::routeviews();
        let archive = builder.build_day(&project, &world.paths, seed + day as u64);
        ingest_day(&archive, &mut cumulative).expect("day archive parses");

        let outcome = InferenceEngine::new(InferenceConfig::default()).run(&cumulative.to_vec());
        let mut members: HashMap<&str, HashSet<Asn>> =
            FULL_CLASSES.iter().map(|&c| (c, HashSet::new())).collect();
        for (asn, class) in outcome.classes() {
            if class.is_full() {
                members.get_mut(class.as_str()).unwrap().insert(asn);
            }
        }
        for (ci, &cname) in FULL_CLASSES.iter().enumerate() {
            history[ci].push(members.remove(cname).unwrap());
        }
    }

    let mut fig = Fig3 {
        days,
        ..Default::default()
    };
    for (ci, class_history) in history.iter().enumerate() {
        for day in 0..days {
            let today = &class_history[day];
            let mut dc = DayCounts::default();
            for &asn in today {
                let seen_before = class_history[..day].iter().any(|s| s.contains(&asn));
                let stable_since_day1 = class_history[..day].iter().all(|s| s.contains(&asn));
                if !seen_before {
                    dc.new += 1;
                } else if stable_since_day1 {
                    dc.stable += 1;
                } else {
                    dc.recurring += 1;
                }
            }
            fig.counts[ci].push(dc);
        }
    }
    fig
}

impl Fig3 {
    /// Share of day-`d` members that are stable since day 1 (day > 0).
    pub fn stable_share(&self, class_idx: usize, day: usize) -> f64 {
        let dc = &self.counts[class_idx][day];
        let total = dc.new + dc.stable + dc.recurring;
        if total == 0 {
            0.0
        } else {
            dc.stable as f64 / total as f64
        }
    }

    /// Render as one table per full class.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (ci, cname) in FULL_CLASSES.iter().enumerate() {
            let mut t = Table::new(
                format!("Figure 3: stability of {cname} over {} days", self.days),
                &["day", "new", "stable", "recurring"],
            );
            for (day, dc) in self.counts[ci].iter().enumerate() {
                t.row(&[
                    if day == 0 {
                        "1".into()
                    } else {
                        format!("+{day}")
                    },
                    dc.new.to_string(),
                    dc.stable.to_string(),
                    dc.recurring.to_string(),
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
        cfg.transit = 40;
        cfg.edge = 120;
        cfg.collector_peers = 28;
        let graph = cfg.seed(23).build();
        let paths = PathSubstrate::generate(&graph, 2).paths;
        let cones = CustomerCones::compute(&graph);
        World {
            graph,
            paths,
            cones,
        }
    }

    #[test]
    fn day_one_is_all_new() {
        let w = tiny_world();
        let fig = run(&w, 3, 1);
        for ci in 0..4 {
            let d0 = &fig.counts[ci][0];
            assert_eq!(d0.stable, 0);
            assert_eq!(d0.recurring, 0);
        }
    }

    #[test]
    fn few_new_ases_after_day_one() {
        let w = tiny_world();
        let fig = run(&w, 4, 1);
        // The paper's operative claim: day 1 already finds almost
        // everything — later days add only a handful of new ASes (max 10
        // in their data). At this scale: new stays a minority of members
        // and some membership persists across all days.
        let (mut new, mut total, mut persisted) = (0u64, 0u64, 0u64);
        for ci in 0..4 {
            for day in 1..fig.days {
                let dc = &fig.counts[ci][day];
                new += dc.new;
                total += dc.new + dc.stable + dc.recurring;
                persisted += dc.stable + dc.recurring;
            }
        }
        assert!(total > 0, "no full-class members at all");
        let new_share = new as f64 / total as f64;
        assert!(
            new_share < 0.5,
            "new share {new_share} too high after day 1"
        );
        assert!(persisted > 0, "no membership persistence at all");
    }

    #[test]
    fn renders() {
        let w = tiny_world();
        let s = run(&w, 2, 1).render();
        assert!(s.contains("stability of tf"));
        assert!(s.contains("recurring"));
    }
}
