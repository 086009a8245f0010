//! `(path, comm)` tuples — the canonical input of the inference algorithm.
//!
//! The paper reduces billions of MRT entries to tens of millions of *unique*
//! `(path, comm)` pairs (Table 1) and runs the column-based algorithm over
//! that deduplicated list. [`TupleSet`] is that deduplicated list plus the
//! bookkeeping needed for dataset statistics.
//!
//! Most offered tuples are duplicates, so dedup is the intake's hot
//! operation: the set is a hash table keyed by the process-seeded
//! [`AsnBuildHasher`] — one hash and an expected O(1) probe per offer,
//! exact full-tuple `Eq` on a hit. Order is not stored; the readers that
//! promise sorted output ([`TupleSet::iter`], [`TupleSet::to_vec`],
//! [`TupleSet::into_sorted_vec`]) sort when called, once per read
//! (O(n log n) tuple comparisons), instead of on every insert.

use crate::as_path::AsPath;
use crate::asn::Asn;
use crate::comm_set::CommunitySet;
use crate::intern::AsnBuildHasher;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeSet, HashSet};

/// One AS-path / community-set observation.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct PathCommTuple {
    /// Sanitized AS path `A1..An`.
    pub path: AsPath,
    /// The community set `output(A1)` observed with it.
    pub comm: CommunitySet,
}

impl PathCommTuple {
    /// Construct a tuple.
    pub fn new(path: AsPath, comm: CommunitySet) -> Self {
        PathCommTuple { path, comm }
    }
}

/// A deduplicated collection of tuples with ingestion counters.
///
/// `total_ingested` counts every offered tuple (the paper's "entries"),
/// while `len()` is the number of *unique* pairs actually stored.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct TupleSet {
    set: HashSet<PathCommTuple, AsnBuildHasher>,
    total_ingested: u64,
}

impl TupleSet {
    /// Empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Offer a tuple; duplicates are counted but not stored twice.
    /// Returns `true` when the tuple was new.
    pub fn insert(&mut self, t: PathCommTuple) -> bool {
        self.total_ingested += 1;
        self.set.insert(t)
    }

    /// Number of unique tuples.
    pub fn len(&self) -> usize {
        self.set.len()
    }

    /// Whether no tuples are stored.
    pub fn is_empty(&self) -> bool {
        self.set.is_empty()
    }

    /// Total tuples offered, including duplicates.
    pub fn total_ingested(&self) -> u64 {
        self.total_ingested
    }

    /// Iterate unique tuples in deterministic (sorted) order.
    ///
    /// The table keeps no order, so every call collects one reference per
    /// tuple and sorts them: O(n log n) comparisons and an n-entry
    /// allocation up front, then a plain slice walk. Call it once per
    /// pass, not once per lookup.
    pub fn iter(&self) -> impl Iterator<Item = &PathCommTuple> {
        let mut refs: Vec<&PathCommTuple> = self.set.iter().collect();
        refs.sort_unstable();
        refs.into_iter()
    }

    /// Clone into a sorted Vec for indexed access by the inference
    /// engine (one [`iter`](Self::iter) sort plus a clone per tuple).
    pub fn to_vec(&self) -> Vec<PathCommTuple> {
        self.iter().cloned().collect()
    }

    /// The stored tuples as a sorted Vec, equal to
    /// [`to_vec`](Self::to_vec), moving them out of the table instead of
    /// cloning them.
    pub fn into_sorted_vec(self) -> Vec<PathCommTuple> {
        let mut tuples: Vec<PathCommTuple> = self.set.into_iter().collect();
        tuples.sort_unstable();
        tuples
    }

    /// Merge another set into this one (used when aggregating collector
    /// projects into d_May21-style datasets).
    pub fn merge(&mut self, other: &TupleSet) {
        self.total_ingested += other.total_ingested;
        for t in &other.set {
            self.set.insert(t.clone());
        }
    }

    /// All distinct ASNs appearing on any stored path.
    pub fn distinct_asns(&self) -> BTreeSet<Asn> {
        let mut out = BTreeSet::new();
        for t in &self.set {
            out.extend(t.path.asns().iter().copied());
        }
        out
    }

    /// Distinct collector-peer ASNs (`A1` of each path).
    pub fn distinct_peers(&self) -> BTreeSet<Asn> {
        self.set.iter().map(|t| t.path.peer()).collect()
    }

    /// The maximum path length observed.
    pub fn max_path_len(&self) -> usize {
        self.set.iter().map(|t| t.path.len()).max().unwrap_or(0)
    }

    /// ASNs that appear only as origin (`An`) — leaf ASes in the paper's
    /// definition: never forwarding someone else's announcement.
    pub fn leaf_asns(&self) -> BTreeSet<Asn> {
        let mut transit: BTreeSet<Asn> = BTreeSet::new();
        let mut seen: BTreeSet<Asn> = BTreeSet::new();
        for t in &self.set {
            let asns = t.path.asns();
            seen.extend(asns.iter().copied());
            for &a in &asns[..asns.len() - 1] {
                transit.insert(a);
            }
        }
        seen.difference(&transit).copied().collect()
    }
}

impl FromIterator<PathCommTuple> for TupleSet {
    fn from_iter<I: IntoIterator<Item = PathCommTuple>>(iter: I) -> Self {
        let mut s = TupleSet::new();
        for t in iter {
            s.insert(t);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::as_path::path;
    use crate::community::AnyCommunity;

    fn tup(p: &[u32], comms: &[(u16, u16)]) -> PathCommTuple {
        PathCommTuple::new(
            path(p),
            CommunitySet::from_iter(comms.iter().map(|&(a, b)| AnyCommunity::regular(a, b))),
        )
    }

    #[test]
    fn dedup_counts_total() {
        let mut s = TupleSet::new();
        assert!(s.insert(tup(&[1, 2], &[(2, 5)])));
        assert!(!s.insert(tup(&[1, 2], &[(2, 5)])));
        assert!(s.insert(tup(&[1, 2], &[(2, 6)])));
        assert_eq!(s.len(), 2);
        assert_eq!(s.total_ingested(), 3);
    }

    #[test]
    fn distinct_asns_and_peers() {
        let s: TupleSet = [tup(&[1, 2, 3], &[]), tup(&[4, 2], &[])]
            .into_iter()
            .collect();
        assert_eq!(s.distinct_asns().len(), 4);
        let peers = s.distinct_peers();
        assert!(peers.contains(&Asn(1)) && peers.contains(&Asn(4)));
        assert_eq!(peers.len(), 2);
    }

    #[test]
    fn leaf_detection() {
        // 3 only ever appears as origin; 2 forwards.
        let s: TupleSet = [tup(&[1, 2, 3], &[]), tup(&[1, 2], &[])]
            .into_iter()
            .collect();
        let leaves = s.leaf_asns();
        assert!(leaves.contains(&Asn(3)));
        assert!(!leaves.contains(&Asn(2)));
        // 1 is a peer that forwards (appears at non-terminal position).
        assert!(!leaves.contains(&Asn(1)));
    }

    #[test]
    fn origin_only_peer_is_leaf() {
        // A collector peer that only originates is a leaf.
        let s: TupleSet = [tup(&[9], &[])].into_iter().collect();
        assert!(s.leaf_asns().contains(&Asn(9)));
    }

    #[test]
    fn merge_aggregates() {
        let mut a: TupleSet = [tup(&[1, 2], &[])].into_iter().collect();
        let b: TupleSet = [tup(&[1, 2], &[]), tup(&[3, 4], &[])].into_iter().collect();
        a.merge(&b);
        assert_eq!(a.len(), 2);
        assert_eq!(a.total_ingested(), 3);
    }

    #[test]
    fn max_path_len() {
        let s: TupleSet = [tup(&[1, 2, 3, 4], &[]), tup(&[1, 2], &[])]
            .into_iter()
            .collect();
        assert_eq!(s.max_path_len(), 4);
        assert_eq!(TupleSet::new().max_path_len(), 0);
    }
}
