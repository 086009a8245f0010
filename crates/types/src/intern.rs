//! ASN interning: dense `u32` ids for hot-path indexed storage.
//!
//! The inference hot loop is dominated by per-AS lookups — counters,
//! phase predicates, tag evidence. Keying those by [`Asn`] forces a hash
//! per touch; interning every ASN once into a dense id space turns each
//! of them into a plain array index and makes per-AS tables mergeable by
//! slice addition. The interner is the id authority shared by the
//! compiled tuple store and the dense counter store in `bgp-infer`.

use crate::asn::Asn;
use std::collections::HashMap;
use std::hash::Hasher;
use std::sync::atomic::{AtomicPtr, AtomicU32, AtomicUsize, Ordering};
use std::sync::Mutex;

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
        let heap = Box::into_raw(Box::new(0u8));
        let addr = heap as u64;
        // SAFETY: freshly boxed above, never shared.
        drop(unsafe { Box::from_raw(heap) });
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

/// Number of id segments in a [`SharedInterner`]. Segment `s` holds
/// `SEG_BASE << s` ids, so 23 segments cover the whole `u32` id space.
const N_SEGMENTS: usize = 23;

/// Capacity of segment 0 (must be a power of two).
const SEG_BASE: u32 = 1 << SEG_BASE_BITS;
const SEG_BASE_BITS: u32 = 10;

/// `(segment, offset)` of a dense id in the doubling-segment layout.
#[inline]
fn segment_of(id: AsnId) -> (usize, usize) {
    let adj = id as u64 + SEG_BASE as u64;
    let seg = (63 - adj.leading_zeros() - SEG_BASE_BITS) as usize;
    let offset = (adj - ((SEG_BASE as u64) << seg)) as usize;
    (seg, offset)
}

/// Capacity of segment `seg`.
#[inline]
fn segment_cap(seg: usize) -> usize {
    (SEG_BASE as usize) << seg
}

/// Writer-side state of a [`SharedInterner`] — the `Asn → id` direction,
/// only ever touched under the writer mutex.
#[derive(Debug, Default)]
struct SharedWriter {
    /// Direct-indexed table for 16-bit ASNs (see [`AsnInterner::small`]).
    small: Vec<AsnId>,
    /// 32-bit-only ASNs go through the hash map.
    ids: HashMap<Asn, AsnId, AsnBuildHasher>,
}

/// A workspace-level ASN interner shared across stream shards: one dense
/// `u32` id space for the whole pipeline, so per-shard counter deltas are
/// plain slices over a common index and merge by slice addition — no
/// `Asn`-keyed hop between shard and coordinator.
///
/// Concurrency model:
///
/// * **Writes** (`intern`) serialize on an internal mutex. Interning
///   happens on the single ingest thread in production, so the lock is
///   effectively uncontended; it exists so tests and future multi-writer
///   ingest paths stay correct.
/// * **Reads** (`resolve`, `len`) are lock-free. The `id → Asn` direction
///   lives in append-only *segments* of doubling size whose pointers are
///   published with `Release` stores and read with `Acquire` loads; `len`
///   is bumped (`Release`) only after the new slot is written, so any
///   reader that observes `id < len()` can read the slot without
///   synchronization. Serving threads can therefore resolve ids from a
///   published snapshot while the ingest thread keeps interning.
///
/// Ids are assigned in first-intern order starting at 0 and never change
/// — the structure is strictly append-only.
pub struct SharedInterner {
    /// `id → Asn` segments; segment `s` holds `SEG_BASE << s` slots.
    /// Null until allocated by the writer.
    segments: [AtomicPtr<AtomicU32>; N_SEGMENTS],
    /// Published id count: slots `< len` are initialized and immutable.
    len: AtomicUsize,
    writer: Mutex<SharedWriter>,
}

impl std::fmt::Debug for SharedInterner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedInterner")
            .field("len", &self.len())
            .finish_non_exhaustive()
    }
}

impl Default for SharedInterner {
    fn default() -> Self {
        Self::new()
    }
}

impl SharedInterner {
    /// Empty shared interner.
    pub fn new() -> Self {
        SharedInterner {
            segments: std::array::from_fn(|_| AtomicPtr::new(std::ptr::null_mut())),
            len: AtomicUsize::new(0),
            writer: Mutex::new(SharedWriter::default()),
        }
    }

    /// Number of distinct ASNs interned (== the dense id space size).
    /// Lock-free; safe to call concurrently with writers.
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Acquire)
    }

    /// Whether nothing has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The segment slot array holding `id`, allocating it if needed.
    /// Writer-side only (called under the mutex).
    fn slot(&self, id: AsnId) -> &AtomicU32 {
        let (seg, offset) = segment_of(id);
        let mut ptr = self.segments[seg].load(Ordering::Acquire);
        if ptr.is_null() {
            let boxed: Box<[AtomicU32]> =
                (0..segment_cap(seg)).map(|_| AtomicU32::new(0)).collect();
            ptr = Box::into_raw(boxed) as *mut AtomicU32;
            // Only the mutex-holding writer allocates, so a plain store
            // suffices; Release pairs with reader Acquire loads.
            self.segments[seg].store(ptr, Ordering::Release);
        }
        // SAFETY: `ptr` points at a live `[AtomicU32; segment_cap(seg)]`
        // allocation (published above or by a previous writer) and
        // `offset < segment_cap(seg)` by construction of `segment_of`.
        unsafe { &*ptr.add(offset) }
    }

    /// Id of `asn`, allocating the next dense id on first sight.
    /// Serializes on the writer mutex.
    pub fn intern(&self, asn: Asn) -> AsnId {
        let mut w = self.writer.lock().expect("interner writer poisoned");
        self.intern_locked(&mut w, asn)
    }

    /// Take the writer lock once and intern any number of ASNs through
    /// the returned guard — the shard push path's per-tuple batch.
    pub fn batch(&self) -> InternBatch<'_> {
        InternBatch {
            interner: self,
            writer: self.writer.lock().expect("interner writer poisoned"),
        }
    }

    fn intern_locked(&self, w: &mut SharedWriter, asn: Asn) -> AsnId {
        if let Ok(short) = u16::try_from(asn.0) {
            if w.small.is_empty() {
                w.small = vec![VACANT; 1 << 16];
            }
            if w.small[short as usize] != VACANT {
                return w.small[short as usize];
            }
            let id = self.append_locked(asn);
            w.small[short as usize] = id;
            return id;
        }
        if let Some(&id) = w.ids.get(&asn) {
            return id;
        }
        let id = self.append_locked(asn);
        w.ids.insert(asn, id);
        id
    }

    fn append_locked(&self, asn: Asn) -> AsnId {
        let id = AsnId::try_from(self.len.load(Ordering::Relaxed)).expect("id space exhausted");
        self.slot(id).store(asn.0, Ordering::Relaxed);
        // Publish: readers that see the new length also see the slot.
        self.len.store(id as usize + 1, Ordering::Release);
        id
    }

    /// Id of `asn` if it has been interned. Takes the writer lock (query
    /// paths resolve through snapshot-side sorted tables instead).
    pub fn get(&self, asn: Asn) -> Option<AsnId> {
        let w = self.writer.lock().expect("interner writer poisoned");
        if let Ok(short) = u16::try_from(asn.0) {
            return w
                .small
                .get(short as usize)
                .copied()
                .filter(|&id| id != VACANT);
        }
        w.ids.get(&asn).copied()
    }

    /// The ASN behind a dense id. Lock-free.
    ///
    /// # Panics
    /// If `id` has not been published by this interner.
    pub fn resolve(&self, id: AsnId) -> Asn {
        assert!((id as usize) < self.len(), "unpublished interner id {id}");
        let (seg, offset) = segment_of(id);
        let ptr = self.segments[seg].load(Ordering::Acquire);
        debug_assert!(!ptr.is_null());
        // SAFETY: `id < len` (Acquire) guarantees the slot was written and
        // the segment pointer published before `len` advanced past `id`.
        Asn(unsafe { &*ptr.add(offset) }.load(Ordering::Relaxed))
    }

    /// Iterate `(id, asn)` pairs for ids in `lo..hi` (clamped to the
    /// published length) — the publisher's incremental sorted-table
    /// maintenance walks only the ids added since its last sync.
    pub fn range(&self, lo: AsnId, hi: AsnId) -> impl Iterator<Item = (AsnId, Asn)> + '_ {
        let hi = (hi as usize).min(self.len()) as AsnId;
        (lo.min(hi)..hi).map(move |id| (id, self.resolve(id)))
    }
}

/// A held writer lock on a [`SharedInterner`]: interns without
/// re-locking per call. Readers stay lock-free while this is held.
pub struct InternBatch<'a> {
    interner: &'a SharedInterner,
    writer: std::sync::MutexGuard<'a, SharedWriter>,
}

impl InternBatch<'_> {
    /// Id of `asn`, allocating the next dense id on first sight.
    #[inline]
    pub fn intern(&mut self, asn: Asn) -> AsnId {
        self.interner.intern_locked(&mut self.writer, asn)
    }
}

impl Drop for SharedInterner {
    fn drop(&mut self) {
        for (seg, slot) in self.segments.iter().enumerate() {
            let ptr = slot.load(Ordering::Acquire);
            if !ptr.is_null() {
                // SAFETY: allocated by `slot()` as a boxed slice of
                // exactly `segment_cap(seg)` AtomicU32s, never freed
                // elsewhere, and no readers outlive `&mut self`.
                drop(unsafe {
                    Box::from_raw(std::ptr::slice_from_raw_parts_mut(ptr, segment_cap(seg)))
                });
            }
        }
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

    #[test]
    fn segment_math_is_contiguous() {
        // Every id maps into a valid (segment, offset) and ids are laid
        // out back to back across segment boundaries.
        let mut expect = (0usize, 0usize);
        for id in 0u32..10_000 {
            let (seg, off) = segment_of(id);
            assert_eq!((seg, off), expect, "id {id}");
            expect = if off + 1 == segment_cap(seg) {
                (seg + 1, 0)
            } else {
                (seg, off + 1)
            };
            assert!(off < segment_cap(seg));
        }
        // Spot-check deep into the 32-bit space.
        let (seg, off) = segment_of(u32::MAX - 1);
        assert!(seg < N_SEGMENTS);
        assert!(off < segment_cap(seg));
    }

    #[test]
    fn shared_interner_matches_private_semantics() {
        let shared = SharedInterner::new();
        let mut own = AsnInterner::new();
        // Mix of 16-bit and 32-bit ASNs, with repeats.
        let asns = [5u32, 70_000, 5, 9, 70_000, 200_001, 9, 64_000];
        for &a in &asns {
            assert_eq!(shared.intern(Asn(a)), own.intern(Asn(a)), "asn {a}");
        }
        assert_eq!(shared.len(), own.len());
        for (id, asn) in own.iter() {
            assert_eq!(shared.resolve(id), asn);
            assert_eq!(shared.get(asn), Some(id));
        }
        assert_eq!(shared.get(Asn(12345)), None);
    }

    #[test]
    fn shared_interner_intern_path_is_one_shot() {
        let shared = SharedInterner::new();
        let out: Vec<AsnId> = {
            let mut batch = shared.batch();
            [Asn(3356), Asn(174), Asn(3356)]
                .iter()
                .map(|&a| batch.intern(a))
                .collect()
        };
        assert_eq!(out, vec![0, 1, 0]);
        assert_eq!(shared.len(), 2);
        let pairs: Vec<(AsnId, Asn)> = shared.range(0, u32::MAX).collect();
        assert_eq!(pairs, vec![(0, Asn(3356)), (1, Asn(174))]);
        assert_eq!(shared.range(1, u32::MAX).count(), 1);
    }

    #[test]
    fn shared_interner_crosses_segment_boundaries() {
        let shared = SharedInterner::new();
        let n = (SEG_BASE as usize) * 3 + 17; // spans segments 0 and 1
        for i in 0..n {
            let asn = Asn(100_000 + i as u32); // force the 32-bit map path
            assert_eq!(shared.intern(asn), i as AsnId);
        }
        assert_eq!(shared.len(), n);
        for i in 0..n {
            assert_eq!(shared.resolve(i as AsnId), Asn(100_000 + i as u32));
        }
    }

    #[test]
    fn shared_interner_concurrent_readers_see_published_prefix() {
        use std::sync::Arc;
        let shared = Arc::new(SharedInterner::new());
        let writer = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || {
                for i in 0..20_000u32 {
                    shared.intern(Asn(3_000_000 + i));
                }
            })
        };
        // Readers continuously validate every published id while the
        // writer appends.
        let readers: Vec<_> = (0..3)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || {
                    for _ in 0..200 {
                        let n = shared.len();
                        if n > 0 {
                            // Sample the prefix rather than scanning all.
                            for id in [0, n / 2, n - 1] {
                                let asn = shared.resolve(id as AsnId);
                                assert_eq!(asn, Asn(3_000_000 + id as u32));
                            }
                        }
                        std::hint::spin_loop();
                    }
                })
            })
            .collect();
        writer.join().unwrap();
        for r in readers {
            r.join().unwrap();
        }
        assert_eq!(shared.len(), 20_000);
    }
}
