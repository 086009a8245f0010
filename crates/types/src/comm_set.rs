//! Community sets: the `comm` half of the paper's `(path, comm)` tuples.
//!
//! A community attribute carries an unordered set of communities. The
//! inference algorithm's hot operation is *"does this set contain any
//! community whose upper field is ASN `A`?"* (`A:*` membership, paper §5.3),
//! so the set keeps its elements sorted and additionally exposes an
//! upper-field membership test that is O(log n).

use crate::asn::Asn;
use crate::community::AnyCommunity;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A sorted, deduplicated set of communities.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct CommunitySet {
    items: Vec<AnyCommunity>,
}

impl CommunitySet {
    /// The empty set (a *silent-and-cleaner* output, in mental-model terms).
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of communities in the set.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Insert a community, keeping sortedness. Returns `true` if new.
    pub fn insert(&mut self, c: AnyCommunity) -> bool {
        match self.items.binary_search(&c) {
            Ok(_) => false,
            Err(pos) => {
                self.items.insert(pos, c);
                true
            }
        }
    }

    /// Exact membership.
    pub fn contains(&self, c: &AnyCommunity) -> bool {
        self.items.binary_search(c).is_ok()
    }

    /// The paper's `A:* ∈ comm` test: does any community carry upper field
    /// `asn`? (Both variants are considered, per §3.2.)
    ///
    /// O(log n): the derived [`AnyCommunity`] ordering sorts every regular
    /// community before every large one, and orders each variant by its
    /// upper field first, so one binary probe per variant suffices — seek
    /// the smallest community with upper field `asn` and check whether the
    /// element landed on actually carries it.
    pub fn contains_upper(&self, asn: Asn) -> bool {
        if let Ok(upper) = u16::try_from(asn.0) {
            let bound = AnyCommunity::Regular(crate::community::Community::new(upper, 0));
            let i = self.items.partition_point(|c| *c < bound);
            if matches!(self.items.get(i), Some(AnyCommunity::Regular(c)) if c.upper() == upper) {
                return true;
            }
        }
        let bound = AnyCommunity::Large(crate::community::LargeCommunity::new(asn.0, 0, 0));
        let i = self.items.partition_point(|c| *c < bound);
        matches!(self.items.get(i), Some(AnyCommunity::Large(c)) if c.global_admin == asn.0)
    }

    /// All communities whose upper field is `asn`.
    pub fn with_upper(&self, asn: Asn) -> impl Iterator<Item = &AnyCommunity> {
        self.items.iter().filter(move |c| c.upper_field() == asn)
    }

    /// Union, consuming neither operand — `output(A) = tagging(A) ∪
    /// forwarding(A, input)` in the mental model (§3.3.2).
    pub fn union(&self, other: &CommunitySet) -> CommunitySet {
        // Merge two sorted vecs.
        let mut out = Vec::with_capacity(self.items.len() + other.items.len());
        let (mut i, mut j) = (0, 0);
        while i < self.items.len() && j < other.items.len() {
            match self.items[i].cmp(&other.items[j]) {
                std::cmp::Ordering::Less => {
                    out.push(self.items[i]);
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    out.push(other.items[j]);
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    out.push(self.items[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        out.extend_from_slice(&self.items[i..]);
        out.extend_from_slice(&other.items[j..]);
        CommunitySet { items: out }
    }

    /// In-place union: grows `self.items` by exactly the number of new
    /// elements and merges backwards within that one buffer, so no scratch
    /// vector is allocated (unlike [`CommunitySet::union`]).
    pub fn extend_union(&mut self, other: &CommunitySet) {
        if other.is_empty() {
            return;
        }
        if self.is_empty() {
            self.items.clone_from(&other.items);
            return;
        }
        // First walk: count elements of `other` absent from `self`.
        let (mut i, mut j, mut fresh) = (0usize, 0usize, 0usize);
        while i < self.items.len() && j < other.items.len() {
            match self.items[i].cmp(&other.items[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => {
                    fresh += 1;
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    i += 1;
                    j += 1;
                }
            }
        }
        fresh += other.items.len() - j;
        if fresh == 0 {
            return;
        }
        // Second walk: merge from the back into the grown tail. Elements
        // of `self` below the final read cursor are already in place.
        let old = self.items.len();
        self.items.resize(old + fresh, other.items[0]);
        let (mut r, mut s, mut w) = (old, other.items.len(), old + fresh);
        while s > 0 {
            w -= 1;
            if r > 0 && self.items[r - 1] > other.items[s - 1] {
                self.items[w] = self.items[r - 1];
                r -= 1;
            } else {
                if r > 0 && self.items[r - 1] == other.items[s - 1] {
                    r -= 1;
                }
                self.items[w] = other.items[s - 1];
                s -= 1;
            }
        }
    }

    /// Remove every community for which `pred` returns false.
    pub fn retain<F: FnMut(&AnyCommunity) -> bool>(&mut self, pred: F) {
        self.items.retain(pred);
    }

    /// Drop all communities (what a *cleaner* does on the forwarding path).
    pub fn clear(&mut self) {
        self.items.clear();
    }

    /// The communities as a sorted, duplicate-free slice.
    pub fn as_slice(&self) -> &[AnyCommunity] {
        &self.items
    }

    /// Wrap communities that are already sorted and duplicate-free — what
    /// a tuple record holds.
    pub(crate) fn from_sorted(items: Vec<AnyCommunity>) -> Self {
        debug_assert!(items.windows(2).all(|w| w[0] < w[1]));
        CommunitySet { items }
    }

    /// Iterate in sorted order.
    pub fn iter(&self) -> impl Iterator<Item = &AnyCommunity> {
        self.items.iter()
    }

    /// Count of large-variant communities (Table 1's `incl. large` rows).
    pub fn large_count(&self) -> usize {
        self.items.iter().filter(|c| c.is_large()).count()
    }

    /// Distinct upper fields present in the set.
    pub fn upper_fields(&self) -> Vec<Asn> {
        let mut v: Vec<Asn> = self.items.iter().map(|c| c.upper_field()).collect();
        v.sort_unstable();
        v.dedup();
        v
    }
}

impl FromIterator<AnyCommunity> for CommunitySet {
    fn from_iter<I: IntoIterator<Item = AnyCommunity>>(iter: I) -> Self {
        let mut items: Vec<AnyCommunity> = iter.into_iter().collect();
        items.sort_unstable();
        items.dedup();
        CommunitySet { items }
    }
}

impl<'a> IntoIterator for &'a CommunitySet {
    type Item = &'a AnyCommunity;
    type IntoIter = std::slice::Iter<'a, AnyCommunity>;

    fn into_iter(self) -> Self::IntoIter {
        self.items.iter()
    }
}

impl fmt::Display for CommunitySet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return write!(f, "∅");
        }
        let mut first = true;
        for c in &self.items {
            if !first {
                write!(f, " ")?;
            }
            write!(f, "{c}")?;
            first = false;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::community::AnyCommunity as C;

    #[test]
    fn insert_dedups_and_sorts() {
        let mut s = CommunitySet::new();
        assert!(s.insert(C::regular(30, 1)));
        assert!(s.insert(C::regular(10, 1)));
        assert!(!s.insert(C::regular(30, 1)));
        assert_eq!(s.len(), 2);
        let v: Vec<_> = s.iter().cloned().collect();
        assert_eq!(v, vec![C::regular(10, 1), C::regular(30, 1)]);
    }

    #[test]
    fn from_iter_dedups() {
        let s = CommunitySet::from_iter([C::regular(1, 1), C::regular(1, 1), C::regular(2, 2)]);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn upper_membership_covers_both_variants() {
        let s = CommunitySet::from_iter([C::regular(3356, 1), C::large(200_000, 5, 6)]);
        assert!(s.contains_upper(Asn(3356)));
        assert!(s.contains_upper(Asn(200_000)));
        assert!(!s.contains_upper(Asn(1)));
    }

    #[test]
    fn union_is_sorted_and_deduped() {
        let a = CommunitySet::from_iter([C::regular(1, 1), C::regular(3, 3)]);
        let b = CommunitySet::from_iter([C::regular(2, 2), C::regular(3, 3)]);
        let u = a.union(&b);
        assert_eq!(u.len(), 3);
        assert!(u.contains(&C::regular(1, 1)));
        assert!(u.contains(&C::regular(2, 2)));
        assert!(u.contains(&C::regular(3, 3)));
    }

    #[test]
    fn union_with_empty_is_identity() {
        let a = CommunitySet::from_iter([C::regular(1, 1)]);
        assert_eq!(a.union(&CommunitySet::new()), a);
        assert_eq!(CommunitySet::new().union(&a), a);
    }

    #[test]
    fn clear_models_cleaner() {
        let mut s = CommunitySet::from_iter([C::regular(1, 1), C::large(9, 9, 9)]);
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.to_string(), "∅");
    }

    #[test]
    fn large_count() {
        let s = CommunitySet::from_iter([C::regular(1, 1), C::large(9, 9, 9), C::large(9, 9, 10)]);
        assert_eq!(s.large_count(), 2);
    }

    #[test]
    fn upper_fields_dedup() {
        let s = CommunitySet::from_iter([C::regular(5, 1), C::regular(5, 2), C::regular(7, 1)]);
        assert_eq!(s.upper_fields(), vec![Asn(5), Asn(7)]);
    }

    #[test]
    fn retain_filters() {
        let mut s = CommunitySet::from_iter([C::regular(5, 1), C::regular(7, 1)]);
        s.retain(|c| c.upper_field() == Asn(5));
        assert_eq!(s.len(), 1);
        assert!(s.contains_upper(Asn(5)));
    }

    #[test]
    fn contains_upper_probes_both_regions() {
        // Many uppers on both sides of the probe target, both variants.
        let s = CommunitySet::from_iter([
            C::regular(10, 5),
            C::regular(10, 9),
            C::regular(3356, 0),
            C::regular(3356, 2001),
            C::regular(65000, 1),
            C::large(10, 0, 0),
            C::large(200_000, 5, 6),
            C::large(300_000, 0, 1),
        ]);
        for hit in [10u32, 3356, 65000, 200_000, 300_000] {
            assert!(s.contains_upper(Asn(hit)), "AS{hit} should match");
        }
        for miss in [
            9u32,
            11,
            3355,
            3357,
            64999,
            65001,
            199_999,
            200_001,
            4_000_000_000,
        ] {
            assert!(!s.contains_upper(Asn(miss)), "AS{miss} should not match");
        }
        assert!(!CommunitySet::new().contains_upper(Asn(10)));
    }

    #[test]
    fn extend_union_matches_union() {
        let cases: &[(&[AnyCommunity], &[AnyCommunity])] = &[
            (&[], &[]),
            (&[C::regular(1, 1)], &[]),
            (&[], &[C::regular(1, 1)]),
            (
                &[C::regular(1, 1), C::regular(3, 3)],
                &[C::regular(2, 2), C::regular(3, 3)],
            ),
            (&[C::regular(5, 5)], &[C::regular(1, 1), C::regular(9, 9)]),
            (&[C::large(9, 9, 9)], &[C::regular(1, 1), C::large(9, 9, 9)]),
            (
                &[C::regular(1, 1), C::regular(2, 2)],
                &[C::regular(1, 1), C::regular(2, 2)],
            ),
        ];
        for (a, b) in cases {
            let left = CommunitySet::from_iter(a.iter().copied());
            let right = CommunitySet::from_iter(b.iter().copied());
            let mut merged = left.clone();
            merged.extend_union(&right);
            assert_eq!(merged, left.union(&right), "a={a:?} b={b:?}");
        }
    }

    #[test]
    fn display_format() {
        let s = CommunitySet::from_iter([C::regular(3356, 1), C::regular(174, 2)]);
        assert_eq!(s.to_string(), "174:2 3356:1");
    }
}
