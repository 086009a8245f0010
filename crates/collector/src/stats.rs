//! Dataset statistics — every row of the paper's Table 1.
//!
//! Computed from raw day archives plus the deduplicated tuple set they
//! ingest into: entry counts, unique `(path, comm)` pairs, AS populations
//! (with leaf and 32-bit breakdowns), collector peers, community volumes
//! (with the large-community share), and unique upper fields with the
//! private/stray exclusions that bound the tagger-candidate set.

use crate::archive::DayArchive;
use bgp_infer::prelude::{classify_community, SourceGroup};
use bgp_types::prelude::*;
use std::collections::BTreeSet;

/// All Table 1 rows for one dataset (a project, or an aggregate).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DatasetStats {
    /// Dataset label.
    pub name: String,
    /// Entries total (RIB entries + update messages).
    pub entries_total: u64,
    /// Of which RIB entries.
    pub rib_entries: u64,
    /// Unique (path, comm) pairs.
    pub unique_tuples: u64,
    /// Distinct ASNs before cleaning-style filters (as observed on paths).
    pub as_numbers: u64,
    /// Distinct ASNs after cleaning (here: identical — synthetic data is
    /// pre-sanitized — kept as its own row for fidelity to the table).
    pub after_cleaning: u64,
    /// Leaf ASes.
    pub leaf_ases: u64,
    /// 32-bit ASes.
    pub ases_32bit: u64,
    /// Collector peers.
    pub collector_peers: u64,
    /// Total community instances across all tuples.
    pub communities_total: u64,
    /// Of which large communities.
    pub communities_large: u64,
    /// Unique community values.
    pub unique_communities: u64,
    /// Of which large.
    pub unique_large: u64,
    /// Unique upper fields among regular communities.
    pub upper_regular: u64,
    /// Unique upper fields among large communities.
    pub upper_large: u64,
    /// Unique upper fields over both variants.
    pub upper_both: u64,
    /// Upper fields remaining after dropping private.
    pub upper_wo_private: u64,
    /// Upper fields remaining after additionally dropping stray.
    pub upper_wo_stray: u64,
}

impl DatasetStats {
    /// Compute stats for a set of day archives that were ingested into
    /// `tuples`.
    pub fn compute(name: &str, archives: &[&DayArchive], tuples: &TupleSet) -> DatasetStats {
        let mut s = DatasetStats {
            name: name.to_string(),
            ..Default::default()
        };

        for a in archives {
            s.rib_entries += a.rib_entries;
            s.entries_total += a.rib_entries + a.update_messages;
        }
        s.unique_tuples = tuples.len() as u64;

        let asns = tuples.distinct_asns();
        s.as_numbers = asns.len() as u64;
        s.after_cleaning = asns.len() as u64;
        s.leaf_ases = tuples.leaf_asns().len() as u64;
        s.ases_32bit = asns.iter().filter(|a| a.is_32bit_only()).count() as u64;
        s.collector_peers = tuples.distinct_peers().len() as u64;

        let mut unique_comms: BTreeSet<AnyCommunity> = BTreeSet::new();
        let mut upper_regular: BTreeSet<Asn> = BTreeSet::new();
        let mut upper_large: BTreeSet<Asn> = BTreeSet::new();
        let mut upper_public: BTreeSet<Asn> = BTreeSet::new();
        let mut upper_onpath: BTreeSet<Asn> = BTreeSet::new();

        for t in tuples.unordered().map(TupleRef::to_owned) {
            for c in t.comm.iter() {
                s.communities_total += 1;
                if c.is_large() {
                    s.communities_large += 1;
                    upper_large.insert(c.upper_field());
                } else {
                    upper_regular.insert(c.upper_field());
                }
                unique_comms.insert(*c);

                let upper = c.upper_field();
                match classify_community(c, &t.path) {
                    SourceGroup::Private => {}
                    SourceGroup::Stray => {
                        upper_public.insert(upper);
                    }
                    SourceGroup::Peer | SourceGroup::Foreign => {
                        upper_public.insert(upper);
                        upper_onpath.insert(upper);
                    }
                }
            }
        }

        s.unique_communities = unique_comms.len() as u64;
        s.unique_large = unique_comms.iter().filter(|c| c.is_large()).count() as u64;
        s.upper_regular = upper_regular.len() as u64;
        s.upper_large = upper_large.len() as u64;
        let both: BTreeSet<Asn> = upper_regular.union(&upper_large).copied().collect();
        s.upper_both = both.len() as u64;
        s.upper_wo_private = upper_public.len() as u64;
        s.upper_wo_stray = upper_onpath.len() as u64;
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::archive::{ingest_day, ArchiveBuilder};
    use crate::project::CollectorProject;
    use bgp_sim::prelude::*;
    use bgp_topology::prelude::*;

    fn dataset() -> (Vec<DayArchive>, TupleSet) {
        let mut cfg = TopologyConfig::small();
        cfg.transit = 25;
        cfg.edge = 70;
        cfg.collector_peers = 10;
        let g = cfg.seed(6).build();
        let roles = Scenario::Random.assign_roles(&g, 6);
        let origins: Vec<NodeId> = g.node_ids().collect();
        let paths = PathSubstrate::generate_for_origins(&g, &origins, 2).paths;
        let b = ArchiveBuilder::new(&g, &roles);
        let day = b.build_day(&CollectorProject::ripe(), &paths, 1);
        let mut set = TupleSet::new();
        ingest_day(&day, &mut set).unwrap();
        (vec![day], set)
    }

    #[test]
    fn basic_invariants() {
        let (archives, tuples) = dataset();
        let refs: Vec<&DayArchive> = archives.iter().collect();
        let s = DatasetStats::compute("test", &refs, &tuples);
        assert!(s.entries_total >= s.rib_entries);
        assert!(s.unique_tuples > 0);
        assert!(s.unique_tuples <= s.entries_total);
        assert!(s.leaf_ases < s.as_numbers);
        assert!(s.collector_peers <= s.as_numbers);
        assert!(s.communities_large <= s.communities_total);
        assert!(s.unique_large <= s.unique_communities);
        assert!(s.upper_both <= s.upper_regular + s.upper_large);
        // The exclusion chain only shrinks.
        assert!(s.upper_wo_private <= s.upper_both);
        assert!(s.upper_wo_stray <= s.upper_wo_private);
    }

    #[test]
    fn thirty_two_bit_share_reasonable() {
        let (archives, tuples) = dataset();
        let refs: Vec<&DayArchive> = archives.iter().collect();
        let s = DatasetStats::compute("test", &refs, &tuples);
        let share = s.ases_32bit as f64 / s.as_numbers as f64;
        assert!((0.2..0.6).contains(&share), "32-bit share {share}");
    }

    #[test]
    fn large_communities_present() {
        // 32-bit taggers must produce large communities in the archive.
        let (archives, tuples) = dataset();
        let refs: Vec<&DayArchive> = archives.iter().collect();
        let s = DatasetStats::compute("test", &refs, &tuples);
        assert!(s.communities_large > 0, "no large communities in dataset");
        assert!(s.upper_large > 0);
    }

    #[test]
    fn empty_dataset() {
        let s = DatasetStats::compute("empty", &[], &TupleSet::new());
        assert_eq!(s.entries_total, 0);
        assert_eq!(s.unique_tuples, 0);
        assert_eq!(s.upper_wo_stray, 0);
    }
}
