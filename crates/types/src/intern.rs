//! ASN interning: dense `u32` ids for hot-path indexed storage.
//!
//! The inference hot loop is dominated by per-AS lookups — counters,
//! phase predicates, tag evidence. Keying those by [`Asn`] forces a hash
//! per touch; interning every ASN once into a dense id space turns each
//! of them into a plain array index and makes per-AS tables mergeable by
//! slice addition. The interner is the id authority shared by the
//! compiled tuple store and the dense counter store in `bgp-infer`.
//!
//! [`AsnInterner`] is the only one. A batch compile keeps a private
//! interner; a stream's shards all intern through the one their shard
//! set owns on the sealing thread, so they speak a single id space. No
//! other thread reads it: a sealed epoch carries its own Asn-sorted
//! `(asn, id)` table.

use crate::asn::Asn;
use std::collections::HashMap;
use std::hash::Hasher;

/// A multiply-xorshift hasher for `Asn`-keyed maps and the tuple dedup
/// table ([`crate::tuple::TupleTable`], under `TupleSet` and every stream
/// shard).
///
/// Hashing happens once per path hop on ingest paths, so the default
/// SipHash dominates; ASN keys are 32-bit values needing good avalanche,
/// not cryptographic strength. AS_PATH contents *are*
/// remote-attacker-influenced, though, so the companion
/// [`AsnBuildHasher`] seeds every map with per-process entropy — bucket
/// collisions cannot be precomputed offline.
#[derive(Debug, Clone, Default)]
pub struct AsnHasher(u64);

impl AsnHasher {
    /// One multiply-xorshift round: the multiply carries every input bit
    /// into the high half (the bits `hashbrown` tags with, and all that
    /// `TupleTable` keeps), the shift folds the high half back onto the
    /// low bits `hashbrown` indexes with.
    #[inline]
    fn mix(&mut self, v: u64) {
        let mut x = (self.0 ^ v).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        x ^= x >> 32;
        self.0 = x;
    }
}

impl Hasher for AsnHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        // Fallback path (FNV-1a). Nothing the workspace keys a table by
        // reaches it: derived `Hash` on `Asn`, communities and paths
        // emits only `u32` fields (`write_u32`), slice length prefixes
        // (`write_usize`) and enum discriminants (`write_isize`), and
        // `TupleTable` feeds a record word by word (`write_u32`).
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x100_0000_01b3);
        }
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.mix(v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.mix(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.mix(v as u64);
    }

    #[inline]
    fn write_isize(&mut self, v: isize) {
        self.mix(v as u64);
    }
}

/// Per-process random seed for [`AsnBuildHasher`]: wall-clock nanos
/// mixed with ASLR-randomized addresses. Computed once.
fn process_seed() -> u64 {
    static SEED: std::sync::OnceLock<u64> = std::sync::OnceLock::new();
    *SEED.get_or_init(|| {
        let t = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0x9E37_79B9_7F4A_7C15);
        let heap = Box::new(0u8);
        let addr = &*heap as *const u8 as u64;
        let stack_probe = &t as *const u64 as u64;
        let mut x = t ^ addr.rotate_left(32) ^ stack_probe.rotate_left(17);
        x ^= x >> 33;
        x = x.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        x ^= x >> 33;
        x
    })
}

/// Builds [`AsnHasher`]s whose initial state carries per-process random
/// entropy, so an attacker who controls AS_PATH contents cannot craft
/// offline-computed bucket-collision sets (hash-flooding DoS) against
/// the interner's reverse map, the counter stores or the tuple dedup
/// tables. Every builder in a process carries the same seed, so tables
/// built separately hash alike (a cloned `TupleTable` relies on it).
#[derive(Debug, Clone)]
pub struct AsnBuildHasher(u64);

impl AsnBuildHasher {
    /// A builder with a chosen seed, for tests that must know it.
    #[cfg(test)]
    pub(crate) fn with_seed(seed: u64) -> Self {
        AsnBuildHasher(seed)
    }
}

impl Default for AsnBuildHasher {
    fn default() -> Self {
        AsnBuildHasher(process_seed())
    }
}

impl std::hash::BuildHasher for AsnBuildHasher {
    type Hasher = AsnHasher;

    fn build_hasher(&self) -> AsnHasher {
        AsnHasher(self.0)
    }
}

/// A dense id assigned by [`AsnInterner::intern`].
///
/// Ids are assigned in first-seen order starting at 0 and are only
/// meaningful relative to the interner that produced them.
pub type AsnId = u32;

/// Bidirectional ASN ⇄ dense-id map.
///
/// ```
/// use bgp_types::prelude::*;
///
/// let mut interner = AsnInterner::new();
/// let a = interner.intern(Asn(3356));
/// let b = interner.intern(Asn(174));
/// assert_eq!(interner.intern(Asn(3356)), a); // stable
/// assert_ne!(a, b);
/// assert_eq!(interner.resolve(b), Asn(174));
/// assert_eq!(interner.len(), 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct AsnInterner {
    /// Direct-indexed id table for 16-bit ASNs (the vast majority of
    /// path hops): `small[asn] == VACANT` until assigned. Allocated
    /// lazily on the first 16-bit intern (256 KiB).
    small: Vec<AsnId>,
    /// 32-bit-only ASNs go through the hash map.
    ids: HashMap<Asn, AsnId, AsnBuildHasher>,
    asns: Vec<Asn>,
}

/// Sentinel for "no id assigned" in the direct 16-bit table. Ids are
/// dense from 0, so the sentinel is unreachable as a real id.
const VACANT: AsnId = AsnId::MAX;

impl AsnInterner {
    /// Empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Pre-size for roughly `n` distinct ASNs (avoids rehash churn in
    /// bulk compiles).
    pub fn reserve(&mut self, n: usize) {
        self.asns.reserve(n);
    }

    /// Id of `asn`, allocating the next dense id on first sight.
    pub fn intern(&mut self, asn: Asn) -> AsnId {
        if let Ok(short) = u16::try_from(asn.0) {
            if self.small.is_empty() {
                self.small = vec![VACANT; 1 << 16];
            }
            let slot = &mut self.small[short as usize];
            if *slot == VACANT {
                *slot = self.asns.len() as AsnId;
                self.asns.push(asn);
            }
            return *slot;
        }
        if let Some(&id) = self.ids.get(&asn) {
            return id;
        }
        let id = self.asns.len() as AsnId;
        self.ids.insert(asn, id);
        self.asns.push(asn);
        id
    }

    /// Id of `asn` if it has been interned.
    pub fn get(&self, asn: Asn) -> Option<AsnId> {
        if let Ok(short) = u16::try_from(asn.0) {
            return self
                .small
                .get(short as usize)
                .copied()
                .filter(|&id| id != VACANT);
        }
        self.ids.get(&asn).copied()
    }

    /// The ASN behind a dense id.
    ///
    /// # Panics
    /// If `id` was not produced by this interner.
    pub fn resolve(&self, id: AsnId) -> Asn {
        self.asns[id as usize]
    }

    /// Number of distinct ASNs interned (== the dense id space size).
    pub fn len(&self) -> usize {
        self.asns.len()
    }

    /// Whether nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.asns.is_empty()
    }

    /// All interned ASNs in id order (index == id).
    pub fn asns(&self) -> &[Asn] {
        &self.asns
    }

    /// Iterate `(id, asn)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (AsnId, Asn)> + '_ {
        self.asns.iter().enumerate().map(|(i, &a)| (i as AsnId, a))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_dense_and_stable() {
        let mut it = AsnInterner::new();
        let ids: Vec<AsnId> = [5u32, 7, 5, 9, 7]
            .iter()
            .map(|&v| it.intern(Asn(v)))
            .collect();
        assert_eq!(ids, vec![0, 1, 0, 2, 1]);
        assert_eq!(it.len(), 3);
        assert_eq!(it.resolve(2), Asn(9));
        assert_eq!(it.get(Asn(7)), Some(1));
        assert_eq!(it.get(Asn(8)), None);
    }

    #[test]
    fn iter_is_id_ordered() {
        let mut it = AsnInterner::new();
        it.intern(Asn(30));
        it.intern(Asn(10));
        let pairs: Vec<(AsnId, Asn)> = it.iter().collect();
        assert_eq!(pairs, vec![(0, Asn(30)), (1, Asn(10))]);
        assert_eq!(it.asns(), &[Asn(30), Asn(10)]);
    }

    #[test]
    fn empty() {
        let it = AsnInterner::new();
        assert!(it.is_empty());
        assert_eq!(it.len(), 0);
    }

    #[test]
    fn hasher_spreads_one_hop_differences_over_index_and_tag_bits() {
        use crate::as_path::path;
        use std::collections::BTreeSet;
        use std::hash::BuildHasher;
        // `hashbrown` picks the bucket from the low bits of the hash and
        // tags the slot with the top 7; `TupleTable` keeps the high half,
        // homes a record by its low bits and compares the rest. Paths that
        // differ in one hop must land all over each, wherever on the path
        // the hop sits.
        let build = AsnBuildHasher::default();
        for varied in 0..4 {
            let mut low = BTreeSet::new();
            let mut home = BTreeSet::new();
            let mut top = BTreeSet::new();
            for v in 0..512u32 {
                let mut hops = [64_500, 3356, 174, 15_169];
                hops[varied] = 200_000 + v;
                let h = build.hash_one(path(&hops));
                low.insert(h & 0x7f);
                home.insert((h >> 32) & 0x7f);
                top.insert(h >> 57);
            }
            assert!(low.len() >= 100, "hop {varied}: {} low values", low.len());
            assert!(home.len() >= 100, "hop {varied}: {} homes", home.len());
            assert!(top.len() >= 100, "hop {varied}: {} top values", top.len());
        }
    }

    #[test]
    fn build_hashers_of_one_process_agree() {
        use std::hash::BuildHasher;
        // A cloned or merged-from table was built from a separate
        // `default()` call.
        let t = (crate::as_path::path(&[64_500, 3356]), 7u64, 3usize, -1isize);
        assert_eq!(
            AsnBuildHasher::default().hash_one(&t),
            AsnBuildHasher::default().hash_one(&t)
        );
    }
}
