//! The shared experiment world.
//!
//! Verification experiments (Table 2, Fig. 2, Tables 5/6) use the §6
//! scenarios from `bgp-sim` directly. The *application* experiments
//! (Tables 1/3/4, Figs. 3–6) need a stand-in for the real Internet's
//! community usage, where tagging is rare and concentrated at large
//! networks. [`realistic_roles`] provides that stand-in, calibrated to the
//! paper's §7 findings:
//!
//! * taggers and cleaners concentrate in large-cone transit networks
//!   (Fig. 6: "tagger/forward/cleaner typically have large customer
//!   cones"),
//! * the overwhelming majority of edge ASes are silent-forward,
//! * a minority of taggers behave selectively (which produces the
//!   `undecided` mass Table 3 reports).

use bgp_sim::prelude::*;
use bgp_topology::prelude::*;
use bgp_types::prelude::*;
use std::collections::HashMap;
use std::hash::{DefaultHasher, Hash, Hasher};

/// Experiment scale, settable via the `BGP_EVAL_SCALE` environment
/// variable (`small` / `paper` / `full`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvalScale {
    /// ~1.2k ASes — CI and quick iteration.
    Small,
    /// ~7.3k ASes — default for the experiment binaries (1:10 of the
    /// paper's substrate).
    Paper,
    /// ~73k ASes — full paper scale; expect minutes per experiment.
    Full,
}

impl EvalScale {
    /// Read from `BGP_EVAL_SCALE`, defaulting to `Paper`.
    pub fn from_env() -> Self {
        match std::env::var("BGP_EVAL_SCALE").as_deref() {
            Ok("small") => EvalScale::Small,
            Ok("full") => EvalScale::Full,
            _ => EvalScale::Paper,
        }
    }

    /// The topology config for this scale.
    pub fn config(&self) -> TopologyConfig {
        match self {
            EvalScale::Small => TopologyConfig::small(),
            EvalScale::Paper => TopologyConfig::paper_scale(),
            EvalScale::Full => TopologyConfig::full_scale(),
        }
    }
}

/// A fully built world: topology, path substrate, cones.
#[derive(Debug, Clone)]
pub struct World {
    /// The AS graph.
    pub graph: AsGraph,
    /// All unique collector-peer paths.
    pub paths: Vec<AsPath>,
    /// Customer cones.
    pub cones: CustomerCones,
}

impl World {
    /// Build the world at a given scale and seed.
    pub fn build(scale: EvalScale, seed: u64) -> Self {
        let graph = scale.config().seed(seed).build();
        let threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4);
        let paths = PathSubstrate::generate(&graph, threads).paths;
        let cones = CustomerCones::compute(&graph);
        World {
            graph,
            paths,
            cones,
        }
    }
}

/// Deterministic per-ASN hash in [0, 1) used for stable role dice: an AS
/// keeps its behavior across topology snapshots and days, as real
/// operators do.
fn die(seed: u64, salt: u8, asn: Asn) -> f64 {
    let mut h = DefaultHasher::new();
    (seed, salt, asn.0).hash(&mut h);
    (h.finish() % 1_000_000) as f64 / 1_000_000.0
}

/// Assign Internet-like roles: tagging concentrated in large ASes,
/// cleaning rare, a slice of selective taggers.
pub fn realistic_roles(graph: &AsGraph, cones: &CustomerCones, seed: u64) -> RoleAssignment {
    let mut ra = RoleAssignment::new();
    for id in graph.node_ids() {
        let asn = graph.asn_of(id);
        let cone = cones.size(id) as f64;

        // Tagging probability grows with log-cone: ~45% for the biggest
        // providers, ~2% at the edge (matches Fig. 6's separation).
        let p_tag = (0.02 + 0.10 * cone.ln_1p()).min(0.45);
        let r_tag = die(seed, 1, asn);
        let tagging = if r_tag < p_tag {
            // A third of taggers are selective (no tagging toward
            // providers) — the real-world mass behind `undecided`.
            if die(seed, 2, asn) < 0.33 {
                TaggingBehavior::Selective(SelectivePolicy::NoProvider)
            } else {
                TaggingBehavior::Tagger
            }
        } else {
            TaggingBehavior::Silent
        };

        // Cleaning skews large and is somewhat more common than one would
        // guess (the paper infers more cleaners than forwards, 417 vs 271,
        // and silent-cleaner is the most common full class): ~30% of big
        // transit, ~6% at the edge.
        let p_clean = (0.06 + 0.06 * cone.ln_1p()).min(0.30);
        let forwarding = if die(seed, 3, asn) < p_clean {
            ForwardingBehavior::Cleaner
        } else {
            ForwardingBehavior::Forward
        };

        ra.set(
            asn,
            Role {
                tagging,
                forwarding,
            },
        );
    }
    ra
}

/// Ambient stray/private community decoration.
///
/// Real collector data carries communities whose upper field is a private
/// ASN or an ASN that never appears on the path (Table 1's `w/o private` /
/// `w/o stray` rows; Figure 5's stray/private bands). The propagation
/// model only emits on-path communities, so the realistic world adds an
/// ambient layer: per tuple, a chance of one private-upper community and
/// one stray-upper community. The inference algorithm ignores both by
/// construction (§5.1), which the integration tests assert.
#[derive(Debug, Clone, Copy)]
pub struct AmbientCommunities {
    /// Probability a tuple carries a private-upper community.
    pub private_prob: f64,
    /// Probability a tuple carries a stray-upper community.
    pub stray_prob: f64,
    seed: u64,
}

impl AmbientCommunities {
    /// Rates that produce a Table-1-like stray/private share.
    pub fn paper_like(seed: u64) -> Self {
        AmbientCommunities {
            private_prob: 0.18,
            stray_prob: 0.12,
            seed,
        }
    }

    /// Decorate one tuple.
    pub fn decorate(&self, t: &PathCommTuple) -> PathCommTuple {
        let mut out = t.clone();
        let h = {
            let mut hh = DefaultHasher::new();
            (self.seed, 0xEEu8, t.path.asns()).hash(&mut hh);
            hh.finish()
        };
        let u1 = (h % 1_000_000) as f64 / 1_000_000.0;
        let u2 = ((h >> 20) % 1_000_000) as f64 / 1_000_000.0;
        if u1 < self.private_prob {
            // Private-use upper field (RFC 6996), value varies.
            let upper = 64_512 + (h % 64) as u16;
            out.comm
                .insert(AnyCommunity::regular(upper, (h >> 8) as u16));
        }
        if u2 < self.stray_prob {
            // A public ASN engineered to be off-path. Real stray uppers
            // come from a bounded population (the paper finds ~1.4k stray
            // uppers among 6.6k total); draw from a ~150-slot pool (1:10
            // scale) and skip anything actually on the path.
            let slot = (h >> 32) % 150;
            let mut cand =
                1 + ((self.seed.wrapping_mul(2654435761) ^ (slot * 397)) % 60_000) as u32;
            while t.path.contains(Asn(cand)) || Asn(cand).is_reserved_or_private() {
                cand = 1 + (cand + 7) % 64_000;
            }
            out.comm
                .insert(AnyCommunity::regular(cand as u16, (h >> 16) as u16));
        }
        out
    }

    /// Decorate a whole tuple set.
    pub fn decorate_set(&self, set: &TupleSet) -> TupleSet {
        let mut out = TupleSet::new();
        for t in set.unordered() {
            out.insert(self.decorate(&t.to_owned()));
        }
        out
    }

    /// Decorate a tuple slice.
    pub fn decorate_vec(&self, tuples: &[PathCommTuple]) -> Vec<PathCommTuple> {
        tuples.iter().map(|t| self.decorate(t)).collect()
    }
}

/// Convert a simulator ground-truth dataset into the inference crate's
/// [`bgp_infer::metrics::TruthEntry`] map.
pub fn truth_map(ds: &GroundTruthDataset) -> HashMap<Asn, bgp_infer::metrics::TruthEntry> {
    use bgp_infer::metrics::{TruthEntry, TruthForwarding, TruthTagging};
    let mut out = HashMap::new();
    for (asn, role) in ds.roles.iter() {
        if !ds.visibility.all.contains(&asn) {
            continue; // never observed on any path
        }
        let tagging = match role.tagging {
            TaggingBehavior::Tagger => TruthTagging::Tagger,
            TaggingBehavior::Silent => TruthTagging::Silent,
            TaggingBehavior::Selective(_) => TruthTagging::Selective,
        };
        let forwarding = match role.forwarding {
            ForwardingBehavior::Forward => TruthForwarding::Forward,
            // The selective-forwarding extension has no paper ground-truth
            // row; treat it as a cleaner for scoring (it does clean on
            // some sessions), mirroring how selective taggers score.
            ForwardingBehavior::Cleaner | ForwardingBehavior::SelectiveForward(_) => {
                TruthForwarding::Cleaner
            }
        };
        out.insert(
            asn,
            TruthEntry {
                tagging,
                forwarding,
                tagging_hidden: ds.visibility.tagging_hidden(asn),
                forwarding_hidden: ds.visibility.forwarding_hidden(asn),
                leaf: ds.visibility.is_leaf(asn),
            },
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn world() -> World {
        let mut cfg = TopologyConfig::small();
        cfg.transit = 30;
        cfg.edge = 100;
        cfg.collector_peers = 10;
        let graph = cfg.seed(2).build();
        let paths = PathSubstrate::generate(&graph, 2).paths;
        let cones = CustomerCones::compute(&graph);
        World {
            graph,
            paths,
            cones,
        }
    }

    #[test]
    fn realistic_roles_cover_everyone() {
        let w = world();
        let ra = realistic_roles(&w.graph, &w.cones, 1);
        assert_eq!(ra.len(), w.graph.node_count());
    }

    #[test]
    fn tagging_skews_to_large_cones() {
        let w = world();
        let ra = realistic_roles(&w.graph, &w.cones, 1);
        let (mut big_tag, mut big_n, mut small_tag, mut small_n) = (0f64, 0f64, 0f64, 0f64);
        for id in w.graph.node_ids() {
            let asn = w.graph.asn_of(id);
            let tags = !matches!(ra.role(asn).tagging, TaggingBehavior::Silent);
            if w.cones.size(id) > 5 {
                big_n += 1.0;
                if tags {
                    big_tag += 1.0;
                }
            } else {
                small_n += 1.0;
                if tags {
                    small_tag += 1.0;
                }
            }
        }
        assert!(
            big_tag / big_n > small_tag / small_n,
            "taggers must skew large"
        );
        // The global tagger share stays a small minority.
        let share = (big_tag + small_tag) / (big_n + small_n);
        assert!(share < 0.25, "global tagger share {share}");
    }

    #[test]
    fn roles_stable_across_calls_and_graphs() {
        let w = world();
        let a = realistic_roles(&w.graph, &w.cones, 5);
        let b = realistic_roles(&w.graph, &w.cones, 5);
        for asn in w.graph.asns() {
            assert_eq!(a.role(asn), b.role(asn));
        }
    }

    #[test]
    fn truth_map_covers_observed_ases() {
        let w = world();
        let ds = Scenario::Random.materialize(&w.graph, &w.paths, 3);
        let t = truth_map(&ds);
        assert_eq!(t.len(), ds.visibility.all.len());
        // Leaf flags must agree.
        for (asn, entry) in &t {
            assert_eq!(entry.leaf, ds.visibility.is_leaf(*asn));
        }
    }

    #[test]
    fn ambient_adds_only_stray_private() {
        use bgp_infer::prelude::{classify_community, SourceGroup};
        let w = world();
        let ds = Scenario::Random.materialize(&w.graph, &w.paths, 3);
        let amb = AmbientCommunities::paper_like(3);
        let decorated = amb.decorate_vec(&ds.tuples);
        let mut added = 0;
        for (before, after) in ds.tuples.iter().zip(&decorated) {
            assert_eq!(before.path, after.path);
            for c in after.comm.iter() {
                if !before.comm.contains(c) {
                    added += 1;
                    let g = classify_community(c, &after.path);
                    assert!(
                        matches!(g, SourceGroup::Stray | SourceGroup::Private),
                        "ambient community {c} classified {g:?}"
                    );
                }
            }
        }
        assert!(added > 0, "ambient layer added nothing");
    }

    #[test]
    fn ambient_does_not_change_inference() {
        use bgp_infer::prelude::*;
        let w = world();
        let ds = Scenario::Random.materialize(&w.graph, &w.paths, 3);
        let amb = AmbientCommunities::paper_like(3);
        let decorated = amb.decorate_vec(&ds.tuples);
        let cfg = InferenceConfig {
            threads: 1,
            ..Default::default()
        };
        let clean = InferenceEngine::new(cfg.clone()).run(&ds.tuples);
        let noisy = InferenceEngine::new(cfg).run(&decorated);
        assert_eq!(
            clean.classes(),
            noisy.classes(),
            "stray/private must be inert"
        );
    }

    #[test]
    fn scale_from_env_default() {
        std::env::remove_var("BGP_EVAL_SCALE");
        assert_eq!(EvalScale::from_env(), EvalScale::Paper);
    }
}
