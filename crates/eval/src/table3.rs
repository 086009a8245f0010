//! Table 3 — classification results on (simulated) real BGP data.
//!
//! Runs the full production pipeline per collector project: generate one
//! day of MRT (RIBs + updates), ingest, sanitize, infer, classify. Reports
//! the tagging and forwarding class counts plus the four full classes, per
//! project and for the `d_May21` aggregate — the PCH column is update-only
//! and expected to classify least, exactly as in the paper.

use crate::report::{thousands, Table};
use crate::world::{realistic_roles, AmbientCommunities, World};
use bgp_collector::prelude::*;
use bgp_infer::prelude::*;
use bgp_types::prelude::*;

/// Class counts for one dataset column.
#[derive(Debug, Clone, Default)]
pub struct ClassCounts {
    /// Dataset label.
    pub name: String,
    /// tagging: tagger / silent / undecided / none.
    pub tagging: [u64; 4],
    /// forwarding: forward / cleaner / undecided / none.
    pub forwarding: [u64; 4],
    /// full classes: tf / tc / sf / sc.
    pub full: [u64; 4],
    /// ASes observed in the dataset.
    pub observed: u64,
}

/// The computed Table 3.
#[derive(Debug, Clone, Default)]
pub struct Table3 {
    /// One column per dataset (RIPE, RouteViews, Isolario, d_May21, PCH).
    pub datasets: Vec<ClassCounts>,
}

/// Classify one ingested dataset.
pub fn classify_dataset(name: &str, tuples: &[PathCommTuple]) -> ClassCounts {
    let outcome = InferenceEngine::new(InferenceConfig::default()).run(tuples);
    let mut set = std::collections::BTreeSet::new();
    for t in tuples {
        set.extend(t.path.asns().iter().copied());
    }
    let mut out = ClassCounts {
        name: name.to_string(),
        observed: set.len() as u64,
        ..Default::default()
    };
    for &asn in &set {
        let class = outcome.class_of(asn);
        let ti = match class.tagging {
            TaggingClass::Tagger => 0,
            TaggingClass::Silent => 1,
            TaggingClass::Undecided => 2,
            TaggingClass::None => 3,
        };
        out.tagging[ti] += 1;
        let fi = match class.forwarding {
            ForwardingClass::Forward => 0,
            ForwardingClass::Cleaner => 1,
            ForwardingClass::Undecided => 2,
            ForwardingClass::None => 3,
        };
        out.forwarding[fi] += 1;
        match class.as_str() {
            "tf" => out.full[0] += 1,
            "tc" => out.full[1] += 1,
            "sf" => out.full[2] += 1,
            "sc" => out.full[3] += 1,
            _ => {}
        }
    }
    out
}

/// Run the experiment over all five dataset columns.
pub fn run(world: &World, seed: u64) -> Table3 {
    let roles = realistic_roles(&world.graph, &world.cones, seed);
    let ambient = AmbientCommunities::paper_like(seed);
    let builder = ArchiveBuilder::new(&world.graph, &roles);

    let mut datasets = Vec::new();
    let mut aggregate = TupleSet::new();
    for project in CollectorProject::aggregated_trio() {
        let day = builder.build_day(&project, &world.paths, seed);
        let mut set = TupleSet::new();
        ingest_day(&day, &mut set).expect("archive parses");
        let set = ambient.decorate_set(&set);
        aggregate.merge(&set);
        datasets.push(classify_dataset(project.name, &set.to_vec()));
    }
    datasets.push(classify_dataset("d_May21", &aggregate.to_vec()));

    let pch_day = builder.build_day(&CollectorProject::pch(), &world.paths, seed);
    let mut pch = TupleSet::new();
    ingest_day(&pch_day, &mut pch).expect("pch parses");
    let pch = ambient.decorate_set(&pch);
    datasets.push(classify_dataset("PCH", &pch.to_vec()));

    Table3 { datasets }
}

/// One rendered row: label plus the count it projects out of a dataset.
type CountRow = (&'static str, Box<dyn Fn(&ClassCounts) -> u64>);

impl Table3 {
    /// Find a dataset column by name.
    pub fn dataset(&self, name: &str) -> Option<&ClassCounts> {
        self.datasets.iter().find(|d| d.name == name)
    }

    /// Render in the paper's layout.
    pub fn render(&self) -> String {
        let mut header: Vec<&str> = vec!["Input data"];
        let names: Vec<String> = self.datasets.iter().map(|d| d.name.clone()).collect();
        header.extend(names.iter().map(String::as_str));
        let mut t = Table::new(
            "Table 3: Classification results using (simulated) real BGP data",
            &header,
        );

        let sections: Vec<CountRow> = vec![
            ("tagger", Box::new(|d: &ClassCounts| d.tagging[0])),
            ("silent", Box::new(|d: &ClassCounts| d.tagging[1])),
            ("undecided (tag)", Box::new(|d: &ClassCounts| d.tagging[2])),
            ("none (tag)", Box::new(|d: &ClassCounts| d.tagging[3])),
            ("forward", Box::new(|d: &ClassCounts| d.forwarding[0])),
            ("cleaner", Box::new(|d: &ClassCounts| d.forwarding[1])),
            (
                "undecided (fwd)",
                Box::new(|d: &ClassCounts| d.forwarding[2]),
            ),
            ("none (fwd)", Box::new(|d: &ClassCounts| d.forwarding[3])),
            ("tagger-forward", Box::new(|d: &ClassCounts| d.full[0])),
            ("tagger-cleaner", Box::new(|d: &ClassCounts| d.full[1])),
            ("silent-forward", Box::new(|d: &ClassCounts| d.full[2])),
            ("silent-cleaner", Box::new(|d: &ClassCounts| d.full[3])),
        ];
        for (label, get) in &sections {
            let mut cells = vec![label.to_string()];
            cells.extend(self.datasets.iter().map(|d| thousands(get(d))));
            t.row(&cells);
        }
        t.render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::World;
    use bgp_topology::prelude::*;

    fn tiny_world() -> World {
        let mut cfg = TopologyConfig::small();
        cfg.transit = 30;
        cfg.edge = 120;
        cfg.collector_peers = 14;
        let graph = cfg.seed(19).build();
        let paths = PathSubstrate::generate(&graph, 2).paths;
        let cones = CustomerCones::compute(&graph);
        World {
            graph,
            paths,
            cones,
        }
    }

    #[test]
    fn shape_matches_paper() {
        let w = tiny_world();
        let t3 = run(&w, 1);
        assert_eq!(t3.datasets.len(), 5);

        let agg = t3.dataset("d_May21").unwrap();
        // Silent dominates tagger (paper: 12,315 vs 860).
        assert!(
            agg.tagging[1] > agg.tagging[0],
            "silent must dominate taggers"
        );
        // The vast majority of ASes get no tagging inference... relative to
        // classified ones, `none` is the largest bucket (paper: 58,782/72,951).
        assert!(agg.tagging[3] > agg.tagging[0]);
        // Aggregate classifies at least as much as any single project.
        for name in ["RIPE", "RouteViews", "Isolario"] {
            let d = t3.dataset(name).unwrap();
            assert!(
                agg.tagging[0] >= d.tagging[0],
                "aggregate taggers >= {name}"
            );
        }
        // Forwarding inferences are scarcer than tagging ones.
        let fwd_decided = agg.forwarding[0] + agg.forwarding[1];
        let tag_decided = agg.tagging[0] + agg.tagging[1];
        assert!(fwd_decided < tag_decided);
        // Full classifications exist.
        assert!(agg.full.iter().sum::<u64>() > 0);
    }

    #[test]
    fn renders() {
        let w = tiny_world();
        let s = run(&w, 1).render();
        assert!(s.contains("tagger-cleaner"));
        assert!(s.contains("PCH"));
    }
}
