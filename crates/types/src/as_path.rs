//! AS paths and the sanitation transforms the paper applies to them (§4.1).
//!
//! An AS path is a sequence of segments; in practice almost always a single
//! `AS_SEQUENCE`, with occasional `AS_SET` segments produced by route
//! aggregation. The paper's pipeline:
//!
//! 1. removes `AS_SET`s,
//! 2. prepends the MRT *Peer AS Number* when it differs from `A1` (route
//!    servers at IXPs do not put themselves on the path but may touch the
//!    community attribute),
//! 3. collapses path prepending (identical consecutive ASNs).
//!
//! Index convention (paper §3.1): `A1` is the collector peer, `An` the
//! origin; *upstream* of `Ax` means smaller indices, *downstream* larger.

use crate::asn::Asn;
use serde::{Deserialize, Serialize};
use std::fmt;

/// One AS_PATH segment (RFC 4271 §4.3).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PathSegment {
    /// Ordered sequence of ASNs.
    Sequence(Vec<Asn>),
    /// Unordered set of ASNs (route aggregation).
    Set(Vec<Asn>),
}

impl PathSegment {
    /// ASNs in the segment, in stored order.
    pub fn asns(&self) -> &[Asn] {
        match self {
            PathSegment::Sequence(v) | PathSegment::Set(v) => v,
        }
    }

    /// Whether this is an `AS_SET` segment.
    pub fn is_set(&self) -> bool {
        matches!(self, PathSegment::Set(_))
    }
}

/// A raw AS path: one or more segments, as decoded from the wire.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct RawAsPath {
    /// Segments in wire order (leftmost = most recently traversed = `A1`).
    pub segments: Vec<PathSegment>,
}

impl RawAsPath {
    /// A path consisting of a single sequence.
    pub fn from_sequence(asns: Vec<Asn>) -> Self {
        RawAsPath {
            segments: vec![PathSegment::Sequence(asns)],
        }
    }

    /// Whether any segment is an `AS_SET`.
    pub fn has_as_set(&self) -> bool {
        self.segments.iter().any(PathSegment::is_set)
    }

    /// Total number of ASNs across all segments (prepends counted).
    pub fn raw_len(&self) -> usize {
        self.segments.iter().map(|s| s.asns().len()).sum()
    }

    /// All ASNs in order, flattened across segments.
    pub fn flatten(&self) -> Vec<Asn> {
        self.segments
            .iter()
            .flat_map(|s| s.asns().iter().copied())
            .collect()
    }

    /// Apply the full sanitation pipeline and produce a clean [`AsPath`]:
    ///
    /// * drop `AS_SET` segments entirely (paper: "we remove AS_SETs"),
    /// * prepend `peer_asn` if the first ASN differs from it,
    /// * collapse consecutive duplicates (prepending),
    /// * reject empty results and paths containing AS0.
    pub fn sanitize(&self, peer_asn: Option<Asn>) -> Option<AsPath> {
        let hops = self
            .segments
            .iter()
            .filter(|s| !s.is_set())
            .flat_map(|s| s.asns().iter().copied());
        AsPath::sanitized(hops, peer_asn)
    }
}

/// A sanitized AS path: non-empty, prepending collapsed, no sets.
///
/// This is the `path` half of the inference input tuples. Indexing follows
/// the paper: [`AsPath::at`]`(1)` is the collector peer `A1`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct AsPath {
    asns: Vec<Asn>,
}

impl AsPath {
    /// The sanitation rule that follows `AS_SET` removal, over the
    /// `AS_SEQUENCE` hops in wire order: prepend `peer_asn` unless it
    /// already leads, collapse consecutive duplicates (prepending), reject
    /// an empty result and any path containing AS0. `Some` yields the hops
    /// of the sanitized path; `None` is a rejected one.
    ///
    /// Everything that sanitizes ends here: [`AsPath::sanitized`] (and so
    /// [`RawAsPath::sanitize`]) collects the hops into an owned path, the
    /// in-place MRT walk writes them straight into a tuple record.
    pub fn sanitized_hops<I>(
        hops: I,
        peer_asn: Option<Asn>,
    ) -> Option<impl Iterator<Item = Asn> + Clone>
    where
        I: Iterator<Item = Asn> + Clone,
    {
        let lead = peer_asn.filter(|peer| hops.clone().next() != Some(*peer));
        let hops = lead.into_iter().chain(hops);
        let mut empty = true;
        for asn in hops.clone() {
            if asn == Asn::ZERO {
                return None;
            }
            empty = false;
        }
        if empty {
            return None;
        }
        let mut last = None;
        Some(hops.filter(move |&asn| last.replace(asn) != Some(asn)))
    }

    /// [`sanitized_hops`](Self::sanitized_hops) as an owned path. `hops`
    /// is walked once to check it, once to size the path and once to fill
    /// it, so a kept path is one exact-size allocation and a rejected one
    /// allocates nothing.
    pub fn sanitized<I>(hops: I, peer_asn: Option<Asn>) -> Option<AsPath>
    where
        I: Iterator<Item = Asn> + Clone,
    {
        let hops = Self::sanitized_hops(hops, peer_asn)?;
        let mut asns = Vec::with_capacity(hops.clone().count());
        asns.extend(hops);
        Some(AsPath { asns })
    }

    /// Wrap hops that already satisfy the path invariant (non-empty, no
    /// consecutive duplicates) — what a tuple record holds.
    pub(crate) fn from_clean(asns: Vec<Asn>) -> AsPath {
        debug_assert!(!asns.is_empty() && asns.windows(2).all(|w| w[0] != w[1]));
        AsPath { asns }
    }

    /// Construct directly from an ordered ASN list, applying prepend
    /// collapse. Returns `None` if empty after cleaning.
    pub fn new(mut asns: Vec<Asn>) -> Option<Self> {
        asns.dedup();
        if asns.is_empty() {
            None
        } else {
            Some(AsPath { asns })
        }
    }

    /// Path length `n` (number of distinct hops after collapse).
    pub fn len(&self) -> usize {
        self.asns.len()
    }

    /// Paths are never empty; provided for clippy symmetry.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// 1-based access following the paper's `A1..An` convention.
    ///
    /// Returns `None` when `index` is 0 or beyond the path end.
    pub fn at(&self, index: usize) -> Option<Asn> {
        if index == 0 {
            None
        } else {
            self.asns.get(index - 1).copied()
        }
    }

    /// The collector peer `A1`.
    pub fn peer(&self) -> Asn {
        self.asns[0]
    }

    /// The origin `An`.
    pub fn origin(&self) -> Asn {
        *self.asns.last().expect("AsPath is non-empty")
    }

    /// All hops in order `A1..An`.
    pub fn asns(&self) -> &[Asn] {
        &self.asns
    }

    /// Whether `asn` appears anywhere on the path.
    pub fn contains(&self, asn: Asn) -> bool {
        self.asns.contains(&asn)
    }

    /// 1-based position of the first occurrence of `asn`.
    pub fn position(&self, asn: Asn) -> Option<usize> {
        self.asns.iter().position(|&a| a == asn).map(|i| i + 1)
    }

    /// Upstream ASes of the AS at 1-based `index`: `A1..A(index-1)`.
    pub fn upstream_of(&self, index: usize) -> &[Asn] {
        &self.asns[..index.saturating_sub(1).min(self.asns.len())]
    }

    /// Downstream ASes of the AS at 1-based `index`: `A(index+1)..An`.
    pub fn downstream_of(&self, index: usize) -> &[Asn] {
        if index >= self.asns.len() {
            &[]
        } else {
            &self.asns[index..]
        }
    }
}

impl fmt::Display for AsPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for a in &self.asns {
            if !first {
                write!(f, " ")?;
            }
            write!(f, "{}", a.0)?;
            first = false;
        }
        Ok(())
    }
}

/// Convenience: build a sanitized path from raw u32 ASNs (mostly for tests
/// and examples).
pub fn path(asns: &[u32]) -> AsPath {
    AsPath::new(asns.iter().map(|&v| Asn(v)).collect()).expect("non-empty path")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sanitize_strips_as_sets() {
        let raw = RawAsPath {
            segments: vec![
                PathSegment::Sequence(vec![Asn(1), Asn(2)]),
                PathSegment::Set(vec![Asn(3), Asn(4)]),
                PathSegment::Sequence(vec![Asn(5)]),
            ],
        };
        let p = raw.sanitize(None).unwrap();
        assert_eq!(p.asns(), &[Asn(1), Asn(2), Asn(5)]);
    }

    #[test]
    fn sanitize_prepends_peer_when_missing() {
        let raw = RawAsPath::from_sequence(vec![Asn(2), Asn(3)]);
        let p = raw.sanitize(Some(Asn(99))).unwrap();
        assert_eq!(p.peer(), Asn(99));
        assert_eq!(p.len(), 3);
        // When A1 already equals the peer, nothing is added.
        let q = RawAsPath::from_sequence(vec![Asn(2), Asn(3)])
            .sanitize(Some(Asn(2)))
            .unwrap();
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn sanitize_collapses_prepending() {
        let raw = RawAsPath::from_sequence(vec![Asn(1), Asn(1), Asn(1), Asn(2), Asn(2), Asn(3)]);
        let p = raw.sanitize(None).unwrap();
        assert_eq!(p.asns(), &[Asn(1), Asn(2), Asn(3)]);
    }

    #[test]
    fn sanitize_rejects_as0_and_empty() {
        assert!(RawAsPath::from_sequence(vec![Asn(1), Asn(0)])
            .sanitize(None)
            .is_none());
        assert!(RawAsPath { segments: vec![] }.sanitize(None).is_none());
        assert!(RawAsPath {
            segments: vec![PathSegment::Set(vec![Asn(1)])]
        }
        .sanitize(None)
        .is_none());
    }

    #[test]
    fn one_based_indexing() {
        let p = path(&[10, 20, 30]);
        assert_eq!(p.at(0), None);
        assert_eq!(p.at(1), Some(Asn(10)));
        assert_eq!(p.at(3), Some(Asn(30)));
        assert_eq!(p.at(4), None);
        assert_eq!(p.peer(), Asn(10));
        assert_eq!(p.origin(), Asn(30));
    }

    #[test]
    fn upstream_downstream_slices() {
        let p = path(&[10, 20, 30, 40]);
        assert_eq!(p.upstream_of(1), &[] as &[Asn]);
        assert_eq!(p.upstream_of(3), &[Asn(10), Asn(20)]);
        assert_eq!(p.downstream_of(3), &[Asn(40)]);
        assert_eq!(p.downstream_of(4), &[] as &[Asn]);
        assert_eq!(p.downstream_of(1), &[Asn(20), Asn(30), Asn(40)]);
    }

    #[test]
    fn position_is_one_based() {
        let p = path(&[10, 20, 30]);
        assert_eq!(p.position(Asn(10)), Some(1));
        assert_eq!(p.position(Asn(30)), Some(3));
        assert_eq!(p.position(Asn(77)), None);
    }

    #[test]
    fn display_space_separated() {
        assert_eq!(path(&[64496, 3356, 174]).to_string(), "64496 3356 174");
    }

    #[test]
    fn new_collapses_duplicates() {
        let p = AsPath::new(vec![Asn(1), Asn(1), Asn(2)]).unwrap();
        assert_eq!(p.len(), 2);
        assert!(AsPath::new(vec![]).is_none());
    }

    #[test]
    fn raw_len_counts_prepends() {
        let raw = RawAsPath::from_sequence(vec![Asn(1), Asn(1), Asn(2)]);
        assert_eq!(raw.raw_len(), 3);
        assert_eq!(raw.flatten().len(), 3);
    }
}
