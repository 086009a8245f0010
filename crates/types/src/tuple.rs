//! `(path, comm)` tuples — the canonical input of the inference algorithm.
//!
//! The paper reduces billions of MRT entries to tens of millions of *unique*
//! `(path, comm)` pairs (Table 1) and runs the column-based algorithm over
//! that deduplicated list. Intake is therefore mostly *recognising a tuple
//! already seen*, and this module is built so that doing so never allocates.
//!
//! # One record, borrowed
//!
//! Between the MRT walk and the counters a tuple travels as one encoded
//! record of `u32` words,
//!
//! ```text
//! [path_len, n_regular, n_large, hops.., regulars.., larges×3..]
//! ```
//!
//! with full-width lengths (a sanitized path can exceed 255 hops, a set
//! 255 communities), the hops of a sanitized path, and the communities
//! sorted and duplicate-free — regular ones as their raw value, then large
//! ones as three words each, which is [`CommunitySet`]'s own order.
//! [`encode_record`] appends one to any `Vec<u32>`, [`TupleBuf`] is the
//! reused one-record buffer the owned entry points encode into, and
//! [`TupleRef`] is the `Copy` view everything downstream takes. The
//! encoding is canonical: two records are the same tuple exactly when
//! their words are equal, and [`TupleRef`]'s `Ord` is [`PathCommTuple`]'s.
//! The owned [`PathCommTuple`] stays the type of everything that keeps or
//! inspects a tuple (datasets, exports, the reference engine).
//!
//! # One table
//!
//! [`TupleTable`] is the dedup table of both data planes ([`TupleSet`]
//! here, the shard set in `bgp_stream`): the records themselves, back
//! to back in insertion order in one `Vec<u32>` arena, plus an
//! open-addressed index of `(32-bit tag, word offset)` slots kept at most
//! ~0.6 full. The hash is the process-seeded [`AsnBuildHasher`], one
//! `write_u32` per record word; the tag is its high half and the home slot
//! the tag's low bits, so growth re-places slots from their stored tags
//! without reading the arena. A duplicate costs a hash, a probe and one
//! compare against the arena — no allocation, no free; a new tuple is an
//! `extend_from_slice`; dropping the table is two frees.
//!
//! When the tag is computed is the caller's choice. [`TupleTable::insert`]
//! hashes the record itself, which is all [`TupleSet`] needs. A caller
//! can also tag first ([`TupleTable::tag`]) and insert later
//! ([`TupleTable::insert_tagged`]): the stream's shard set tags a whole
//! batch before probing any of it, so the slot misses of neighbouring
//! records overlap. Every table in a process hashes from one seed, so any
//! table's tag is every table's.
//!
//! **Limit:** offsets are `u32` word offsets, so one table holds at most
//! `u32::MAX` words (16 GiB) of records — some 250 million tuples of the
//! sizes a collector day produces, per [`TupleSet`] and per stream shard
//! set (its shards share one table). Past it [`TupleTable::insert`]
//! panics with a message naming the limit; it never wraps an offset.
//!
//! Order is not stored; the [`TupleSet`] readers that promise sorted
//! output ([`TupleSet::iter`], [`TupleSet::to_vec`],
//! [`TupleSet::into_sorted_vec`]) sort record offsets when called, once
//! per read, and only then materialise.

use crate::as_path::AsPath;
use crate::asn::Asn;
use crate::comm_set::CommunitySet;
use crate::community::{AnyCommunity, Community, LargeCommunity};
use crate::intern::AsnBuildHasher;
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::collections::BTreeSet;
use std::hash::{BuildHasher, Hasher};

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

    /// Append this tuple's record to `out` (see [`encode_record`]).
    pub fn encode_into(&self, out: &mut Vec<u32>) {
        encode_record(out, self.path.asns().iter().copied(), self.comm.as_slice());
    }
}

/// Words before a record's hops: `path_len`, `n_regular`, `n_large`.
const HEADER_WORDS: usize = 3;

/// A section length as its header word.
fn header_word(len: usize) -> u32 {
    u32::try_from(len).expect("a tuple record section holds at most u32::MAX items")
}

/// Append the record of one tuple to `out`: `hops` are a sanitized path's
/// (non-empty, no consecutive repeats), `comms` are sorted and
/// duplicate-free, as [`CommunitySet::as_slice`] hands them out. Nothing
/// else is written and nothing before `out.len()` is touched, so records
/// can be laid back to back (or behind a caller's own prefix words) in
/// one buffer and read back with [`TupleRef::read`].
pub fn encode_record(
    out: &mut Vec<u32>,
    hops: impl IntoIterator<Item = Asn>,
    comms: &[AnyCommunity],
) {
    debug_assert!(comms.windows(2).all(|w| w[0] < w[1]));
    let start = out.len();
    out.extend_from_slice(&[0; HEADER_WORDS]);
    out.extend(hops.into_iter().map(|asn| asn.0));
    let regulars = out.len();
    out.extend(comms.iter().filter_map(|c| match c {
        AnyCommunity::Regular(c) => Some(c.0),
        AnyCommunity::Large(_) => None,
    }));
    let larges = out.len();
    for c in comms {
        if let AnyCommunity::Large(c) = c {
            out.extend_from_slice(&[c.global_admin, c.local1, c.local2]);
        }
    }
    out[start] = header_word(regulars - start - HEADER_WORDS);
    out[start + 1] = header_word(larges - regulars);
    out[start + 2] = header_word((out.len() - larges) / 3);
}

/// A reused one-record buffer: what an owned entry point
/// ([`TupleSet::insert`], the stream pipeline's `push(StreamEvent)`)
/// encodes its tuple into before calling the borrowed one.
#[derive(Debug, Clone, Default)]
pub struct TupleBuf {
    words: Vec<u32>,
}

impl TupleBuf {
    /// An empty buffer; it grows to the largest record it has held.
    pub fn new() -> Self {
        Self::default()
    }

    /// Overwrite the buffer with `t`'s record and lend it.
    pub fn encode_tuple(&mut self, t: &PathCommTuple) -> TupleRef<'_> {
        self.words.clear();
        t.encode_into(&mut self.words);
        TupleRef { words: &self.words }
    }
}

/// A borrowed view of one encoded tuple record (see the [module
/// docs](self)). Equality is word equality; the order is
/// [`PathCommTuple`]'s — path first, then the community set, every regular
/// community before every large one.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct TupleRef<'a> {
    /// Exactly one record.
    words: &'a [u32],
}

impl<'a> TupleRef<'a> {
    /// The record `words` starts with, and the words after it.
    ///
    /// # Panics
    /// If `words` ends before the record its first three words announce.
    pub fn read(words: &'a [u32]) -> (TupleRef<'a>, &'a [u32]) {
        let len = HEADER_WORDS + words[0] as usize + words[1] as usize + 3 * words[2] as usize;
        let (words, rest) = words.split_at(len);
        (TupleRef { words }, rest)
    }

    /// The record's words, header included.
    pub fn words(self) -> &'a [u32] {
        self.words
    }

    /// Number of hops on the path.
    pub fn path_len(self) -> usize {
        self.words[0] as usize
    }

    fn hop_words(self) -> &'a [u32] {
        &self.words[HEADER_WORDS..HEADER_WORDS + self.path_len()]
    }

    fn regular_words(self) -> &'a [u32] {
        let start = HEADER_WORDS + self.path_len();
        &self.words[start..start + self.words[1] as usize]
    }

    fn large_words(self) -> &'a [u32] {
        &self.words[HEADER_WORDS + self.path_len() + self.words[1] as usize..]
    }

    /// The hops `A1..An`.
    pub fn hops(self) -> impl ExactSizeIterator<Item = Asn> + Clone + 'a {
        self.hop_words().iter().map(|&w| Asn(w))
    }

    /// The communities, in [`CommunitySet`] order.
    pub fn communities(self) -> impl Iterator<Item = AnyCommunity> + Clone + 'a {
        let regulars = self
            .regular_words()
            .iter()
            .map(|&w| AnyCommunity::Regular(Community(w)));
        let larges = self
            .large_words()
            .chunks_exact(3)
            .map(|c| AnyCommunity::Large(LargeCommunity::new(c[0], c[1], c[2])));
        regulars.chain(larges)
    }

    /// The upper field of every community (repeats included) — all the
    /// inference engine reads of a community set.
    pub fn uppers(self) -> impl Iterator<Item = Asn> + 'a {
        let regulars = self.regular_words().iter().map(|&w| Asn(w >> 16));
        let larges = self.large_words().chunks_exact(3).map(|c| Asn(c[0]));
        regulars.chain(larges)
    }

    /// The owned tuple: one exact-size allocation for the path and one for
    /// the set (none when it is empty).
    pub fn to_owned(self) -> PathCommTuple {
        PathCommTuple {
            path: AsPath::from_clean(self.hops().collect()),
            comm: CommunitySet::from_sorted(self.communities().collect()),
        }
    }
}

impl Ord for TupleRef<'_> {
    fn cmp(&self, other: &Self) -> Ordering {
        self.hop_words()
            .cmp(other.hop_words())
            .then_with(|| self.communities().cmp(other.communities()))
    }
}

impl PartialOrd for TupleRef<'_> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl std::fmt::Debug for TupleRef<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TupleRef")
            .field("hops", &self.hop_words())
            .field("comm", &self.communities().collect::<Vec<_>>())
            .finish()
    }
}

/// An index slot nothing has been placed in. A live slot is
/// `tag << 32 | offset` with `offset < u32::MAX`, so it never reads as this.
const EMPTY: u64 = u64::MAX;

/// Index slots of a table's first allocation (a power of two).
const FIRST_SLOTS: usize = 64;

/// Hops a sort entry carries beside its offset (see
/// [`TupleTable::sorted`]): a collector day's paths average 4.5 hops, and
/// past five the sort stops getting faster.
const LEAD_HOPS: usize = 5;

/// Where the next record starts, as the index stores it.
fn next_offset(arena_len: usize) -> u32 {
    u32::try_from(arena_len)
        .ok()
        .filter(|&offset| offset != u32::MAX)
        .expect("a TupleTable holds at most u32::MAX words (16 GiB) of records")
}

/// The arena-backed dedup table: every distinct record once, in insertion
/// order, and an open-addressed index over them. See the [module
/// docs](self) for the layout, the costs and the size limit.
#[derive(Debug, Clone, Default)]
pub struct TupleTable {
    /// The records, back to back, oldest first.
    arena: Vec<u32>,
    /// `tag << 32 | word offset` or [`EMPTY`]; a power of two long (or
    /// empty before the first insert), linear probing.
    slots: Vec<u64>,
    len: usize,
    build: AsnBuildHasher,
}

impl TupleTable {
    /// An empty table; nothing is allocated until the first insert.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty table hashing from `build` instead of the process seed.
    #[cfg(test)]
    fn with_hasher(build: AsnBuildHasher) -> Self {
        TupleTable {
            build,
            ..Self::default()
        }
    }

    /// Number of distinct records.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The tag of a record: the high half of the seeded hash of its
    /// words. Its low bits pick the home slot.
    #[inline]
    pub fn tag(&self, t: TupleRef<'_>) -> u32 {
        let mut h = self.build.build_hasher();
        for &w in t.words {
            h.write_u32(w);
        }
        (h.finish() >> 32) as u32
    }

    /// Walk `t`'s probe sequence: the slot that holds an equal record
    /// (`true`), or the empty slot a new one goes in (`false`). The index
    /// must have been allocated.
    fn probe(&self, tag: u32, t: TupleRef<'_>) -> (usize, bool) {
        let mask = self.slots.len() - 1;
        let mut i = tag as usize & mask;
        loop {
            let slot = self.slots[i];
            if slot == EMPTY {
                return (i, false);
            }
            if (slot >> 32) as u32 == tag {
                // Records are self-delimiting, so equal words at a record
                // start are an equal record.
                let at = slot as u32 as usize;
                if self.arena.get(at..at + t.words.len()) == Some(t.words) {
                    return (i, true);
                }
            }
            i = (i + 1) & mask;
        }
    }

    /// Store `t` unless an equal record is already held; `true` when it
    /// was new.
    ///
    /// # Panics
    /// If the arena would pass `u32::MAX` words (see the [module
    /// docs](self)).
    pub fn insert(&mut self, t: TupleRef<'_>) -> bool {
        self.insert_tagged(self.tag(t), t)
    }

    /// [`insert`](Self::insert) with `t`'s tag already computed by
    /// [`tag`](Self::tag). Any other
    /// value breaks membership: an equal record would be looked for in
    /// the wrong run of slots and stored twice.
    ///
    /// # Panics
    /// As [`insert`](Self::insert).
    pub fn insert_tagged(&mut self, tag: u32, t: TupleRef<'_>) -> bool {
        debug_assert_eq!(tag, self.tag(t), "a tag computed for another record");
        if (self.len + 1) * 5 > self.slots.len() * 3 {
            self.grow();
        }
        let (i, held) = self.probe(tag, t);
        if held {
            return false;
        }
        let offset = next_offset(self.arena.len());
        self.arena.extend_from_slice(t.words);
        self.slots[i] = (tag as u64) << 32 | offset as u64;
        self.len += 1;
        true
    }

    /// Double the index (or make the first one) and re-place every slot
    /// from its stored tag; the arena is not read.
    fn grow(&mut self) {
        let slots = (self.slots.len() * 2).max(FIRST_SLOTS);
        let old = std::mem::replace(&mut self.slots, vec![EMPTY; slots]);
        let mask = slots - 1;
        for slot in old.into_iter().filter(|&s| s != EMPTY) {
            let mut i = (slot >> 32) as usize & mask;
            while self.slots[i] != EMPTY {
                i = (i + 1) & mask;
            }
            self.slots[i] = slot;
        }
    }

    /// The stored records, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = TupleRef<'_>> {
        let mut rest = self.arena.as_slice();
        std::iter::from_fn(move || {
            if rest.is_empty() {
                return None;
            }
            let (t, after) = TupleRef::read(rest);
            rest = after;
            Some(t)
        })
    }

    /// The stored records in [`TupleRef`] order. Sorts one small entry per
    /// record — its offset behind its leading hops, which decide most
    /// comparisons without touching the arena — and copies no record.
    pub fn sorted(&self) -> impl Iterator<Item = TupleRef<'_>> {
        let at = |offset: u32| TupleRef::read(&self.arena[offset as usize..]).0;
        let mut entries: Vec<([u32; LEAD_HOPS], u32)> = Vec::with_capacity(self.len);
        let mut offset = 0;
        for t in self.iter() {
            // Zero-padded: a path that ends early sorts first, as it
            // does in full, and a tie is settled in full.
            let mut lead = [0; LEAD_HOPS];
            for (slot, &hop) in lead.iter_mut().zip(t.hop_words()) {
                *slot = hop;
            }
            entries.push((lead, offset as u32)); // `insert` checked every offset
            offset += t.words.len();
        }
        entries.sort_unstable_by(|a, b| a.0.cmp(&b.0).then_with(|| at(a.1).cmp(&at(b.1))));
        entries.into_iter().map(move |(_, offset)| at(offset))
    }

    /// How many slots a lookup of the stored record `t` visits.
    #[cfg(test)]
    fn probe_len(&self, t: TupleRef<'_>) -> usize {
        let tag = self.tag(t);
        let (i, held) = self.probe(tag, t);
        assert!(held, "{t:?} is not stored");
        let mask = self.slots.len() - 1;
        (i.wrapping_sub(tag as usize) & mask) + 1
    }
}

/// A deduplicated collection of tuples with ingestion counters.
///
/// `total_ingested` counts every offered tuple (the paper's "entries"),
/// while `len()` is the number of *unique* pairs actually stored.
#[derive(Debug, Clone, Default)]
pub struct TupleSet {
    table: TupleTable,
    total_ingested: u64,
    /// What [`insert`](Self::insert) encodes its owned tuple into.
    buf: TupleBuf,
}

impl TupleSet {
    /// Empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Offer a record; duplicates are counted but not stored twice.
    /// Returns `true` when the tuple was new. Nothing is allocated for a
    /// duplicate.
    pub fn insert_ref(&mut self, t: TupleRef<'_>) -> bool {
        self.total_ingested += 1;
        self.table.insert(t)
    }

    /// [`insert_ref`](Self::insert_ref) for an owned tuple, encoded into
    /// the set's reused buffer first.
    pub fn insert(&mut self, t: PathCommTuple) -> bool {
        self.total_ingested += 1;
        self.table.insert(self.buf.encode_tuple(&t))
    }

    /// Number of unique tuples.
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// Whether no tuples are stored.
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }

    /// Total tuples offered, including duplicates.
    pub fn total_ingested(&self) -> u64 {
        self.total_ingested
    }

    /// The unique tuples in the order they were first offered — no sort,
    /// no allocation. The inference engine is order-free, so this is what
    /// a compile reads.
    pub fn unordered(&self) -> impl Iterator<Item = TupleRef<'_>> {
        self.table.iter()
    }

    /// Iterate unique tuples in deterministic (sorted) order.
    ///
    /// The table keeps no order, so every call collects one offset per
    /// tuple and sorts them: O(n log n) comparisons and an n-entry
    /// allocation up front, then a walk. Call it once per pass, not once
    /// per lookup.
    pub fn iter(&self) -> impl Iterator<Item = TupleRef<'_>> {
        self.table.sorted()
    }

    /// The unique tuples as a sorted Vec of owned tuples, for indexed
    /// access ([`iter`](Self::iter), materialised).
    pub fn to_vec(&self) -> Vec<PathCommTuple> {
        self.iter().map(TupleRef::to_owned).collect()
    }

    /// [`to_vec`](Self::to_vec), consuming the set.
    pub fn into_sorted_vec(self) -> Vec<PathCommTuple> {
        self.to_vec()
    }

    /// Merge another set into this one (used when aggregating collector
    /// projects into d_May21-style datasets).
    pub fn merge(&mut self, other: &TupleSet) {
        self.total_ingested += other.total_ingested;
        for t in other.table.iter() {
            self.table.insert(t);
        }
    }

    /// All distinct ASNs appearing on any stored path.
    pub fn distinct_asns(&self) -> BTreeSet<Asn> {
        self.table.iter().flat_map(TupleRef::hops).collect()
    }

    /// Distinct collector-peer ASNs (`A1` of each path).
    pub fn distinct_peers(&self) -> BTreeSet<Asn> {
        self.table.iter().filter_map(|t| t.hops().next()).collect()
    }

    /// The maximum path length observed.
    pub fn max_path_len(&self) -> usize {
        self.table.iter().map(TupleRef::path_len).max().unwrap_or(0)
    }

    /// ASNs that appear only as origin (`An`) — leaf ASes in the paper's
    /// definition: never forwarding someone else's announcement.
    pub fn leaf_asns(&self) -> BTreeSet<Asn> {
        let mut transit: BTreeSet<Asn> = BTreeSet::new();
        let mut seen: BTreeSet<Asn> = BTreeSet::new();
        for t in self.table.iter() {
            seen.extend(t.hops());
            transit.extend(t.hops().take(t.path_len().saturating_sub(1)));
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

    #[test]
    fn a_record_is_its_three_sections_and_reads_back() {
        let t = PathCommTuple::new(
            path(&[64500, 3356, 70_000]),
            CommunitySet::from_iter([
                AnyCommunity::large(70_000, 1, 2),
                AnyCommunity::regular(3356, 9),
                AnyCommunity::regular(174, 1),
            ]),
        );
        let mut words = vec![0xAAAA]; // a caller's own prefix word
        t.encode_into(&mut words);
        t.encode_into(&mut words);
        let record = [
            3,
            2,
            1,
            64500,
            3356,
            70_000,
            174 << 16 | 1,
            3356 << 16 | 9,
            70_000,
            1,
            2,
        ];
        assert_eq!(words[1..], [record, record].concat());
        let (first, rest) = TupleRef::read(&words[1..]);
        let (second, rest) = TupleRef::read(rest);
        assert!(rest.is_empty());
        assert_eq!(first, second);
        assert_eq!(first.words(), record);
        assert_eq!(first.path_len(), 3);
        assert!(first.hops().eq(t.path.asns().iter().copied()));
        assert!(first.communities().eq(t.comm.iter().copied()));
        let uppers: Vec<Asn> = first.uppers().collect();
        assert_eq!(uppers, [Asn(174), Asn(3356), Asn(70_000)]);
        assert_eq!(first.to_owned(), t);
        assert_eq!(TupleBuf::new().encode_tuple(&t), first);
    }

    #[test]
    fn lengths_past_a_byte_and_a_half_word_survive() {
        // 300 hops, 260 regular and 70,000 large communities: none of the
        // three header fields may be a u8 or a u16.
        let hops: Vec<u32> = (1..=300).collect();
        let comms = (0..260u16)
            .map(|i| AnyCommunity::regular(7, i))
            .chain((0..70_000).map(|i| AnyCommunity::large(9, i, 0)));
        let t = PathCommTuple::new(path(&hops), CommunitySet::from_iter(comms));
        let mut set = TupleSet::new();
        assert!(set.insert(t.clone()));
        assert!(!set.insert(t.clone()));
        assert_eq!(set.max_path_len(), 300);
        assert_eq!(set.to_vec(), [t]);
    }

    #[test]
    #[should_panic(expected = "at most u32::MAX words (16 GiB)")]
    fn an_arena_past_the_offset_width_is_refused_not_wrapped() {
        next_offset(u32::MAX as usize);
    }

    #[test]
    fn the_last_offset_below_the_limit_is_itself() {
        assert_eq!(next_offset(u32::MAX as usize - 1), u32::MAX - 1);
    }

    /// `n` distinct two-hop records, from `first` up. The number goes in
    /// the first hop: a multiply spreads consecutive values of the *last*
    /// word hashed perfectly, which no real feed would.
    fn numbered(first: u32, n: u32) -> impl Iterator<Item = Vec<u32>> {
        (first..first + n).map(|i| {
            let mut words = Vec::new();
            encode_record(&mut words, [Asn(100_000 + i), Asn(64500)], &[]);
            words
        })
    }

    fn record(words: &[u32]) -> TupleRef<'_> {
        TupleRef::read(words).0
    }

    /// A table seeded `seed` over `records`, asserting what a set must:
    /// each new once, each found again, none lost. Inserts go through the
    /// tagged path, the one the stream shards take.
    fn exact_table(seed: u64, records: &[Vec<u32>]) -> TupleTable {
        let mut table = TupleTable::with_hasher(AsnBuildHasher::with_seed(seed));
        let mut insert = |r: &[u32]| table.insert_tagged(table.tag(record(r)), record(r));
        for r in records {
            assert!(insert(r), "{:?} is new", record(r));
        }
        for r in records {
            assert!(!insert(r), "{:?} is held", record(r));
        }
        assert_eq!(table.len(), records.len());
        assert!(table
            .iter()
            .map(TupleRef::words)
            .eq(records.iter().map(Vec::as_slice)));
        table
    }

    fn max_probe(table: &TupleTable) -> usize {
        table.iter().map(|t| table.probe_len(t)).max().unwrap_or(0)
    }

    const SEED_ATTACKED: u64 = 0x5EED_0001;
    const SEED_OTHER: u64 = 0x5EED_0002;

    /// `n` records that all hash to home slot 0 of every index up to
    /// `1 << bits` slots under [`SEED_ATTACKED`], found by trying records
    /// in turn — what an attacker who knew the seed would send.
    fn colliding(n: usize, bits: u32) -> Vec<Vec<u32>> {
        let probe = TupleTable::with_hasher(AsnBuildHasher::with_seed(SEED_ATTACKED));
        let mut words = Vec::new();
        (1_000_000..u32::MAX)
            .filter(|&i| {
                words.clear();
                encode_record(&mut words, [Asn(100_000 + i), Asn(64500)], &[]);
                probe.tag(record(&words)) & ((1 << bits) - 1) == 0
            })
            .take(n)
            .flat_map(|i| numbered(i, 1))
            .collect()
    }

    /// The adversarial case at `colliders` crafted records among `total`.
    fn collisions_stay_exact_and_do_not_carry_over(colliders: usize, bits: u32, total: u32) {
        let crafted = colliding(colliders, bits);
        // Under the seed they were made for: one run of `colliders` slots,
        // slow and exact.
        let attacked = exact_table(SEED_ATTACKED, &crafted);
        assert!(attacked.slots.len() <= 1 << bits);
        assert_eq!(max_probe(&attacked), colliders);
        // Under any other seed they are ordinary records: with enough
        // others around them to make `total`, no lookup walks far.
        let mut all = crafted;
        all.extend(numbered(0, total - colliders as u32));
        let other = exact_table(SEED_OTHER, &all);
        let longest = max_probe(&other);
        assert!(longest <= 48, "longest probe {longest} of {total} records");
    }

    #[test]
    fn crafted_collisions_stay_exact_and_spread_under_another_seed() {
        collisions_stay_exact_and_do_not_carry_over(1_000, 11, 100_000);
    }

    #[test]
    #[ignore = "long: run with --release -- --ignored"]
    fn crafted_collisions_at_length() {
        collisions_stay_exact_and_do_not_carry_over(10_000, 15, 1_000_000);
    }

    #[test]
    fn equal_tags_fall_through_to_the_arena_compare() {
        // Among 300,000 records some pairs share all 32 tag bits (a
        // birthday: ~10 expected). Both of a pair must be stored and found.
        let probe = TupleTable::with_hasher(AsnBuildHasher::with_seed(SEED_ATTACKED));
        let mut tags: Vec<(u32, u32)> = numbered(0, 300_000)
            .zip(0..)
            .map(|(r, i)| (probe.tag(record(&r)), i))
            .collect();
        tags.sort_unstable();
        let twins: Vec<Vec<u32>> = tags
            .windows(2)
            .filter(|w| w[0].0 == w[1].0)
            .flat_map(|w| [w[0].1, w[1].1])
            .flat_map(|i| numbered(i, 1))
            .collect();
        assert!(twins.len() >= 4, "{} records share a tag", twins.len());
        exact_table(SEED_ATTACKED, &twins);
    }

    #[test]
    fn growth_keeps_every_record_findable() {
        // Re-check the whole table across each of its first doublings.
        let records: Vec<Vec<u32>> = numbered(0, 2_000).collect();
        let mut table = TupleTable::new();
        let mut doublings = 0;
        for (n, r) in records.iter().enumerate() {
            let slots = table.slots.len();
            assert!(table.insert(record(r)));
            if table.slots.len() != slots {
                doublings += 1;
                for held in &records[..=n] {
                    assert!(!table.insert(record(held)), "lost across a doubling");
                }
                assert_eq!(table.len(), n + 1);
            }
            assert!(table.len() * 5 <= table.slots.len() * 3, "load over 0.6");
        }
        assert!(doublings >= 6, "{doublings} doublings");
    }
}
