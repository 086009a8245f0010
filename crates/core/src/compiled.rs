//! The compiled execution layer: length-bucketed columnar tuples,
//! word-parallel Cond1, interned counters, per-phase predicate bitsets.
//!
//! [`engine::count_tuple_at`](crate::engine::count_tuple_at) is the
//! *reference* semantics of one column step, and it pays for its clarity
//! in the innermost loop: every tuple touch hashes `Asn` keys, re-walks
//! the `O(x)` upstream prefix through `HashMap` lookups, re-derives the
//! `is_forward`/`is_tagger` threshold arithmetic per touch, and scans the
//! community set for `A:*` membership. This module compiles the same
//! algorithm into a representation where each of those costs is paid once
//! — and where the per-tuple conditions are evaluated **64 tuples at a
//! time**:
//!
//! * **Interning** — every on-path ASN is mapped to a dense `u32` id at
//!   build time, so all per-AS state lives in flat vectors indexed by id.
//!   A store interns either privately ([`AsnInterner`], the batch path)
//!   or through a workspace-level [`SharedInterner`] (the stream shards),
//!   in which case every shard speaks one global id space and shard
//!   deltas merge into the coordinator's [`DenseCounterStore`] by slice
//!   addition — no `Asn`-keyed map hop anywhere in the pipeline.
//! * **Length-bucketed transposed columns** — tuples are grouped by exact
//!   path length; within bucket `ℓ` the store keeps, for each position
//!   `p < ℓ`, a contiguous id column `cols[p]` plus a static bit column
//!   `tag_cols[p]` over the bucket's tuples (does the tuple's community
//!   set contain `A:*` for the AS at `p`). Buckets are append-only — new
//!   tuples take the next slot of their bucket, so nothing ever
//!   re-sorts, the active set of column `x` is exactly the buckets with
//!   `ℓ >= x`, and the tuples appended since the last epoch seal are
//!   always a per-bucket *suffix* (the dirty range). The columns *are*
//!   the storage — a push interns its hops and writes them straight
//!   into the columns; no row-major arena exists.
//! * **Word-parallel Cond1** — the clean-prefix condition at column `x`
//!   is `AND` over positions `p < x-1` of `is_forward(path[p])`. Per
//!   64-tuple word, the engine gathers each position's predicate bits
//!   from the id column into one `u64` and ANDs the positions together
//!   (with an early exit once a word goes all-dirty); the old per-tuple
//!   `Cond1Pass::Record`/`Replay` buffers are gone — both phases of a
//!   column share the same `clean` words, because the tagging merge
//!   moves only `t`/`s` counters, which `is_forward` never reads. The
//!   tagging pass is then fully word-parallel: `clean & tag` are the `t`
//!   increments, `clean & !tag` the `s` increments. The forwarding pass
//!   resolves the common Cond2 case the same way — a word-parallel
//!   gather of `is_tagger` over the adjacent downstream position —
//!   and walks deeper hops per element only for the tuples that miss it.
//! * **Phase predicate bitsets** ([`PhasePredicates`]) — `is_forward` and
//!   `is_tagger` are pure functions of the phase-start counter snapshot,
//!   evaluated with exactly the reference float arithmetic and refreshed
//!   per *touched* AS at every delta merge
//!   ([`DenseCounterStore::merge_update`], which also exploits that a
//!   tagging merge can only move `is_tagger` and a forwarding merge only
//!   `is_forward`).
//! * **Dirty-suffix counting** — [`commit_clean`](CompiledTuples::commit_clean)
//!   records the bucket fill levels at an epoch seal;
//!   [`count_phase_dense`](CompiledTuples::count_phase_dense) can then
//!   count only the tuples appended since (`dirty_only`), which is what
//!   makes the stream layer's incremental epoch recounts (see
//!   `bgp_stream::shard`) scale with the delta instead of the store.
//! * **Occurrence index and word-restricted counting** — a
//!   shared-interner store also keeps, per id, the 64-tuple words whose
//!   tuples contain it (appended by [`prepare`](CompiledTuples::prepare)
//!   at seal time, never by a push).
//!   [`affected_clean_words`](CompiledTuples::affected_clean_words) turns
//!   a few ids into the sealed words one step can read them in, and
//!   [`count_clean_words`](CompiledTuples::count_clean_words) runs the
//!   same per-word kernel over just those words under whatever
//!   predicates it is handed. A step's delta is a sum over tuples, so
//!   evaluating the words that hold a moved predicate under the old and
//!   the new bits gives exactly what a recount of the step would change
//!   — the stream layer's cached-step correction (see
//!   `bgp_stream::shard`, *Incremental recounts*). The batch path
//!   ([`run`](CompiledTuples::run)) builds and reads none of it.
//!
//! ## Parity guarantee
//!
//! The compiled engine is **byte-identical** to the reference path. The
//! argument: within one (column, phase) the reference evaluates its
//! predicates against the immutable phase-start snapshot, so hoisting
//! them into bitsets — and gathering those bits 64 tuples at a time —
//! changes nothing; the predicate values themselves are computed by the
//! very same [`AsCounters::tag_share`]/[`AsCounters::fwd_share`] float
//! comparisons; counter increments are `u64` additions, which commute,
//! so dense slice merges equal map merges for any partition of the
//! tuples into buckets, words, or stream shards; and a reference delta
//! entry exists iff it received at least one increment,
//! so filtering zero rows when sparsifying reproduces the reference key
//! set exactly. `InferenceEngine::run_reference` is kept as the oracle,
//! and the property tests in this crate plus `tests/stream_parity.rs`
//! pin classes *and* raw counters equal across random worlds, thread
//! counts, `max_index` caps, ablation flags, shard counts, and epoch
//! slicings.

use crate::counters::{AsCounters, CounterStore, Thresholds};
use crate::engine::{CountPhase, InferenceConfig, InferenceOutcome};
use bgp_types::prelude::*;
use std::sync::Arc;

/// One bit per interned AS id. Used for the phase predicates and for the
/// stream layer's overlay membership during incremental recounts.
#[derive(Debug, Clone, Default)]
pub struct IdBitSet {
    words: Vec<u64>,
}

impl IdBitSet {
    /// An empty set able to hold `bits` ids without growing.
    pub fn with_capacity(bits: usize) -> Self {
        IdBitSet {
            words: vec![0; bits.div_ceil(64)],
        }
    }

    /// Grow (zero-filled) so ids `< bits` are addressable.
    pub fn ensure(&mut self, bits: usize) {
        let words = bits.div_ceil(64);
        if words > self.words.len() {
            self.words.resize(words, 0);
        }
    }

    /// Set the bit of `id` (the set must cover `id`; see
    /// [`ensure`](IdBitSet::ensure)).
    #[inline]
    pub fn set(&mut self, id: AsnId) {
        self.words[(id / 64) as usize] |= 1u64 << (id % 64);
    }

    /// Assign the bit of `id`.
    #[inline]
    pub fn assign(&mut self, id: AsnId, v: bool) {
        let word = &mut self.words[(id / 64) as usize];
        let mask = 1u64 << (id % 64);
        if v {
            *word |= mask;
        } else {
            *word &= !mask;
        }
    }

    /// Whether the bit of `id` is set (ids beyond the capacity read as
    /// unset).
    #[inline]
    pub fn get(&self, id: AsnId) -> bool {
        self.words
            .get((id / 64) as usize)
            .is_some_and(|w| w & (1u64 << (id % 64)) != 0)
    }

    /// The raw bit words (64 ids per word, id order).
    pub fn words(&self) -> &[u64] {
        &self.words
    }
}

/// `is_forward` / `is_tagger` for every interned AS, frozen at the start
/// of one counting phase.
///
/// The reference path re-derives these from counter shares on every
/// Cond1/Cond2 touch; here they are maintained incrementally (with the
/// identical float arithmetic, so thresholds behave bit-for-bit the
/// same) and the hot loop gathers them 64 tuples at a time.
#[derive(Debug)]
pub struct PhasePredicates {
    forward: IdBitSet,
    tagger: IdBitSet,
}

impl PhasePredicates {
    /// All-false predicates over `n_ids` — the state of a zeroed counter
    /// store, where every share is `None` and every predicate `false`.
    pub fn empty(n_ids: usize) -> Self {
        PhasePredicates {
            forward: IdBitSet::with_capacity(n_ids),
            tagger: IdBitSet::with_capacity(n_ids),
        }
    }

    /// Whether interned AS `id` satisfied `is_forward` at phase start.
    #[inline]
    pub fn is_forward(&self, id: AsnId) -> bool {
        self.forward.get(id)
    }

    /// Whether interned AS `id` satisfied `is_tagger` at phase start.
    #[inline]
    pub fn is_tagger(&self, id: AsnId) -> bool {
        self.tagger.get(id)
    }

    /// The raw `is_forward` bit words.
    pub fn forward_words(&self) -> &[u64] {
        self.forward.words()
    }

    /// The raw `is_tagger` bit words.
    pub fn tagger_words(&self) -> &[u64] {
        self.tagger.words()
    }

    /// Overwrite both bitsets from raw words, zero-extending to `n_ids`
    /// — the stream layer's trajectory-replay bulk load.
    pub fn load_words(&mut self, forward: &[u64], tagger: &[u64], n_ids: usize) {
        let words = n_ids.div_ceil(64);
        self.forward.words.clear();
        self.forward.words.extend_from_slice(forward);
        self.forward.words.resize(words.max(forward.len()), 0);
        self.tagger.words.clear();
        self.tagger.words.extend_from_slice(tagger);
        self.tagger.words.resize(words.max(tagger.len()), 0);
    }

    /// Re-evaluate both predicate bits of one id from its actual
    /// counters (the trajectory-replay overlay patch). Returns whether
    /// either bit changed.
    pub fn refresh_both(&mut self, id: AsnId, c: &AsCounters, th: &Thresholds) -> bool {
        let fwd = c.fwd_share().is_some_and(|x| x >= th.forward);
        let tag = c.tag_share().is_some_and(|x| x >= th.tagger);
        let changed = self.forward.get(id) != fwd || self.tagger.get(id) != tag;
        self.forward.assign(id, fwd);
        self.tagger.assign(id, tag);
        changed
    }

    /// Evaluate both predicates for every id of `counters` from scratch
    /// (the mode-switch snapshot when a replay seal runs past the
    /// recorded trajectory).
    pub fn snapshot_from(&mut self, counters: &DenseCounterStore, th: &Thresholds) {
        let n = counters.len();
        self.forward.words.clear();
        self.forward.words.resize(n.div_ceil(64), 0);
        self.tagger.words.clear();
        self.tagger.words.resize(n.div_ceil(64), 0);
        for (id, c) in counters.counts().iter().enumerate() {
            if c.fwd_share().is_some_and(|x| x >= th.forward) {
                self.forward.set(id as AsnId);
            }
            if c.tag_share().is_some_and(|x| x >= th.tagger) {
                self.tagger.set(id as AsnId);
            }
        }
    }
}

/// Shortest path length a (column, phase) step counts. A forwarding
/// pass needs a downstream hop: buckets of exactly length `x` can never
/// satisfy it (Cond2 on or off).
fn shortest_counted(x: usize, phase: CountPhase) -> usize {
    match phase {
        CountPhase::Tagging => x,
        CountPhase::Forwarding => x + 1,
    }
}

/// Gather one predicate bit per id of `col` into a word (bit `i` =
/// predicate of `col[i]`). The word-parallel building block for Cond1
/// and the adjacent-tagger Cond2 fast path. Every id must be covered by
/// `set` (the engine sizes its predicate sets to the full id space).
#[inline]
fn gather_bits(set: &IdBitSet, col: &[AsnId]) -> u64 {
    let words = set.words.as_slice();
    let mut g = 0u64;
    for (i, &id) in col.iter().enumerate() {
        let w = words[(id >> 6) as usize];
        g |= ((w >> (id & 63)) & 1) << i;
    }
    g
}

/// A word with its `n` lowest rows set (`n <= 64`).
#[inline]
fn low_rows(n: usize) -> u64 {
    if n >= 64 {
        !0u64
    } else {
        (1u64 << n) - 1
    }
}

/// The Cond1 `clean` word of column `x` for bucket word `w`: per
/// upstream position, the `is_forward` bits of the word's ids gathered
/// into a `u64`, ANDed together (early exit once all-dirty); all rows
/// set when `x == 1` or Cond1 is ablated.
#[inline]
fn clean_word(b: &Bucket, preds: &PhasePredicates, x: usize, enforce_cond1: bool, w: usize) -> u64 {
    let base = w * 64;
    let n = (b.slots() - base).min(64);
    let mut acc = low_rows(n);
    if enforce_cond1 {
        for p in 0..x - 1 {
            acc &= gather_bits(&preds.forward, &b.cols[p][base..base + n]);
            if acc == 0 {
                break;
            }
        }
    }
    acc
}

/// A phase delta over the dense id space: flat counters plus a touched
/// bitmap, so the per-increment bookkeeping is one OR and clearing /
/// sparsifying cost O(id space / 64 + touched) instead of O(id space).
/// A step, or one shard's share of it, counts into one of these; the
/// coordinator folds it with [`DenseCounterStore::merge_update`].
/// Touched ids enumerate in ascending order — the stream layer's cached
/// step deltas come out sorted for free.
#[derive(Debug, Default)]
pub struct DeltaStore {
    counts: Vec<AsCounters>,
    touched: Vec<u64>,
}

impl DeltaStore {
    /// A zeroed delta covering `n_ids`.
    pub fn zeroed(n_ids: usize) -> Self {
        DeltaStore {
            counts: vec![AsCounters::default(); n_ids],
            touched: vec![0; n_ids.div_ceil(64)],
        }
    }

    /// Grow to cover `n_ids` (the shared interner keeps growing between
    /// epoch seals; deltas are resized at seal start).
    pub fn resize(&mut self, n_ids: usize) {
        if n_ids > self.counts.len() {
            self.counts.resize(n_ids, AsCounters::default());
            self.touched.resize(n_ids.div_ceil(64), 0);
        }
    }

    /// Mutable counters of one id, marking the touch.
    #[inline]
    pub fn entry(&mut self, id: AsnId) -> &mut AsCounters {
        self.touched[(id / 64) as usize] |= 1u64 << (id % 64);
        &mut self.counts[id as usize]
    }

    /// Counters of one id (zeros when untouched).
    #[inline]
    pub fn get(&self, id: AsnId) -> AsCounters {
        self.counts[id as usize]
    }

    /// Whether no id was touched.
    pub fn is_empty(&self) -> bool {
        self.touched.iter().all(|&w| w == 0)
    }

    /// Iterate the touched ids in ascending order.
    pub fn touched(&self) -> impl Iterator<Item = AsnId> + '_ {
        self.touched.iter().enumerate().flat_map(|(wi, &word)| {
            let mut w = word;
            std::iter::from_fn(move || {
                if w == 0 {
                    return None;
                }
                let id = (wi * 64) + w.trailing_zeros() as usize;
                w &= w - 1;
                Some(id as AsnId)
            })
        })
    }

    /// Iterate the touched `(id, counters)` pairs in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = (AsnId, AsCounters)> + '_ {
        self.touched().map(|id| (id, self.get(id)))
    }

    /// Zero the touched slots and the bitmap — O(ids/64 + touched).
    pub fn clear(&mut self) {
        for wi in 0..self.touched.len() {
            let mut w = self.touched[wi];
            if w == 0 {
                continue;
            }
            while w != 0 {
                let id = wi * 64 + w.trailing_zeros() as usize;
                self.counts[id] = AsCounters::default();
                w &= w - 1;
            }
            self.touched[wi] = 0;
        }
    }
}

/// The interned counterpart of [`CounterStore`]: a flat `Vec<AsCounters>`
/// indexed by [`AsnId`], O(1) per touch and mergeable by slice addition.
/// This is the coordinator-side cumulative store; phase deltas use
/// [`DeltaStore`].
#[derive(Debug, Clone, Default)]
pub struct DenseCounterStore {
    counts: Vec<AsCounters>,
}

impl DenseCounterStore {
    /// A zeroed store covering `n_ids` interned ASes.
    pub fn zeroed(n_ids: usize) -> Self {
        DenseCounterStore {
            counts: vec![AsCounters::default(); n_ids],
        }
    }

    /// Counters of one interned AS.
    #[inline]
    pub fn get(&self, id: AsnId) -> &AsCounters {
        &self.counts[id as usize]
    }

    /// Number of id slots (zeroed slots included).
    pub fn len(&self) -> usize {
        self.counts.len()
    }

    /// Whether the store covers no ids at all.
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// The raw counter column, indexed by id.
    pub fn counts(&self) -> &[AsCounters] {
        &self.counts
    }

    /// Consume into the raw counter column (epoch snapshots publish this
    /// as an `Arc`'d slice).
    pub fn into_counts(self) -> Vec<AsCounters> {
        self.counts
    }

    /// Refresh the predicate bit of `id` that `phase`'s increments can
    /// move: a tagging merge only changes `t`/`s` (so only `is_tagger`
    /// can flip), a forwarding merge only `f`/`c` (so only `is_forward`)
    /// — the other predicate is left untouched, with the value it must
    /// still hold.
    #[inline]
    fn refresh_predicate(
        e: &AsCounters,
        id: AsnId,
        preds: &mut PhasePredicates,
        th: &Thresholds,
        phase: CountPhase,
    ) {
        match phase {
            CountPhase::Tagging => preds
                .tagger
                .assign(id, e.tag_share().is_some_and(|x| x >= th.tagger)),
            CountPhase::Forwarding => preds
                .forward
                .assign(id, e.fwd_share().is_some_and(|x| x >= th.forward)),
        }
    }

    /// Merge a phase delta *and* refresh the predicate bits of exactly
    /// the touched ASes. Counters only change through merges, so bits
    /// maintained here always equal a fresh evaluation of the merged
    /// state — the next phase's start snapshot — at O(touched) float
    /// work instead of O(all ids) per phase. `phase` names the pass that
    /// produced the delta (it determines which predicate can move).
    pub fn merge_update(
        &mut self,
        delta: &DeltaStore,
        preds: &mut PhasePredicates,
        th: &Thresholds,
        phase: CountPhase,
    ) {
        for (id, d) in delta.iter() {
            let e = &mut self.counts[id as usize];
            e.accumulate(&d);
            Self::refresh_predicate(e, id, preds, th, phase);
        }
    }

    /// Accumulate a phase delta without touching any predicate state —
    /// the trajectory-replay merge, where the predicate evolution is
    /// known in advance and bulk-loaded per step.
    pub fn merge_counts(&mut self, delta: &DeltaStore) {
        for (id, d) in delta.iter() {
            self.counts[id as usize].accumulate(&d);
        }
    }

    /// Accumulate a sparse cached delta without predicate maintenance
    /// (see [`merge_counts`](DenseCounterStore::merge_counts)).
    pub fn merge_sparse_counts(&mut self, entries: &[(AsnId, AsCounters)]) {
        for &(id, d) in entries {
            self.counts[id as usize].accumulate(&d);
        }
    }
}

/// One sealed epoch's dense classification state: the counter column, the
/// shared interner that gives the ids meaning, and the Asn-sorted id
/// permutation every publish-time table walk uses. All three are `Arc`'d,
/// so an epoch with no new evidence republishes as three pointer copies
/// and a serving layer can slice record tables straight out of the
/// columns instead of rebuilding them from a sparse map.
#[derive(Debug, Clone)]
pub struct DenseOutcome {
    /// The workspace id authority.
    pub interner: Arc<SharedInterner>,
    /// Final counters, indexed by id; covers ids `< counters.len()`.
    pub counters: Arc<Vec<AsCounters>>,
    /// `(asn, id)` pairs sorted by ASN — the publication order.
    pub by_asn: Arc<Vec<(Asn, AsnId)>>,
    /// Thresholds the epoch was counted under.
    pub thresholds: Thresholds,
    /// Deepest path index at which any counter was incremented.
    pub deepest_active_index: usize,
}

impl DenseOutcome {
    /// Counters of one AS, `None` when the AS was never counted.
    pub fn lookup(&self, asn: Asn) -> Option<AsCounters> {
        self.by_asn
            .binary_search_by_key(&asn, |&(a, _)| a)
            .ok()
            .map(|i| self.counters[self.by_asn[i].1 as usize])
            .filter(|c| !c.is_zero())
    }

    /// Materialize the sparse map-backed [`InferenceOutcome`] — the batch
    /// engine's shape, kept for exports and historical-epoch queries.
    /// O(counted ASes); epoch snapshots do this lazily.
    pub fn to_outcome(&self) -> InferenceOutcome {
        let mut store = CounterStore::with_capacity(self.by_asn.len());
        for &(asn, id) in self.by_asn.iter() {
            let c = self.counters[id as usize];
            if !c.is_zero() {
                *store.entry(asn) = c;
            }
        }
        InferenceOutcome {
            counters: store,
            thresholds: self.thresholds,
            deepest_active_index: self.deepest_active_index,
        }
    }
}

/// The id authority of one compiled store: private (batch runs) or the
/// workspace-shared interner (stream shards speaking one id space).
#[derive(Debug)]
enum StoreInterner {
    Own(AsnInterner),
    Shared(Arc<SharedInterner>),
}

impl StoreInterner {
    fn resolve(&self, id: AsnId) -> Asn {
        match self {
            StoreInterner::Own(it) => it.resolve(id),
            StoreInterner::Shared(s) => s.resolve(id),
        }
    }

    fn len(&self) -> usize {
        match self {
            StoreInterner::Own(it) => it.len(),
            StoreInterner::Shared(s) => s.len(),
        }
    }
}

/// All tuples of one exact path length, stored column-major.
#[derive(Debug, Default)]
struct Bucket {
    /// Stored tuples (slots) in this bucket.
    len: usize,
    /// `cols[p][k]`: interned id at position `p` of the bucket's `k`-th
    /// tuple.
    cols: Vec<Vec<AsnId>>,
    /// Bit `k` of `tag_cols[p]`: does tuple `k`'s community set contain
    /// an upper field equal to the AS at position `p`? Static.
    tag_cols: Vec<Vec<u64>>,
    /// Per-column scratch: the Cond1 word AND for the current column.
    clean: Vec<u64>,
    /// Slots `< mat_k` have their ids recorded in the occurrence index.
    mat_k: usize,
    /// `word_keys[w]`: the store-wide key of this bucket's `w`-th
    /// 64-tuple word in the occurrence index (words `< ceil(mat_k / 64)`).
    word_keys: Vec<u32>,
    /// Slots `< clean_k` were already present at the last epoch seal
    /// (the incremental-recount boundary); slots `>= clean_k` are dirty.
    clean_k: usize,
}

impl Bucket {
    fn slots(&self) -> usize {
        self.len
    }

    fn words(&self) -> usize {
        self.len.div_ceil(64)
    }
}

/// "No entry" in the occurrence index's links and heads.
const NO_OCCURRENCE: u32 = u32::MAX;

/// Per interned id, the 64-tuple words whose tuples contain it — what
/// lets the stream layer re-evaluate a step over just the words a
/// diverged predicate can reach instead of recounting the store.
///
/// A word is named by a store-wide key (`words[key]` = its bucket and
/// its index there; keys are handed out as words are first indexed, so
/// no path length or bucket size limits them). An id's words form a
/// chain through `nodes`, newest first: appending is two flat pushes
/// whatever the id, and a store of mostly one-occurrence ASes pays one
/// 8-byte node each. `prepare` walks word by word, so `last_key` keeps a
/// word from being chained twice for one id within a walk; a word that
/// fills over two walks can be, which readers absorb by deduplicating
/// (they merge the chains of several ids anyway).
#[derive(Debug, Default)]
struct OccurrenceIndex {
    /// `key -> (bucket, word index in that bucket)`.
    words: Vec<(u32, u32)>,
    /// `id -> (last_key, newest node)`, [`NO_OCCURRENCE`] when absent.
    heads: Vec<(u32, u32)>,
    /// `(key, next older node of the same id)`.
    nodes: Vec<(u32, u32)>,
}

/// The columnar tuple store the compiled engine runs over. The columns
/// *are* the storage — there is no row-major arena; a push writes its
/// hops straight into the bucket's id and tag columns. See the module
/// docs for the layout rationale and the parity argument.
#[derive(Debug)]
pub struct CompiledTuples {
    interner: StoreInterner,
    /// Length buckets; index == exact path length (index 0 unused).
    buckets: Vec<Bucket>,
    /// Tuples stored (zero-length paths included — they count nothing
    /// but are remembered).
    n_tuples: usize,
    /// Total path positions across all buckets.
    total_hops: usize,
    max_len: usize,
    /// Where each id occurs (current up to the last
    /// [`prepare`](CompiledTuples::prepare)); shared-interner stores only.
    occurrences: OccurrenceIndex,
    /// Reused per-push scratch: the pushed tuple's community upper
    /// fields as raw `u32`s, probed once per hop.
    upper_scratch: Vec<u32>,
}

impl CompiledTuples {
    /// An empty store with a private interner (the batch path).
    pub fn new() -> Self {
        Self::with_interner(StoreInterner::Own(AsnInterner::new()))
    }

    /// An empty store interning through the workspace-shared interner —
    /// the stream-shard constructor. All shards sharing `interner` speak
    /// one dense id space, so their deltas merge by slice addition.
    pub fn with_shared(interner: Arc<SharedInterner>) -> Self {
        Self::with_interner(StoreInterner::Shared(interner))
    }

    fn with_interner(interner: StoreInterner) -> Self {
        CompiledTuples {
            interner,
            buckets: Vec::new(),
            n_tuples: 0,
            total_hops: 0,
            max_len: 0,
            occurrences: OccurrenceIndex::default(),
            upper_scratch: Vec::new(),
        }
    }

    /// Compile a finished tuple slice (batch entry point). Buckets group
    /// by length as a side effect of pushing, so no sort pass exists —
    /// and the input is walked sequentially, which the per-tuple heap
    /// reads (path, community set) reward far more than any regrouping
    /// would.
    pub fn from_tuples(tuples: &[PathCommTuple]) -> Self {
        let mut store = CompiledTuples::new();
        for t in tuples {
            store.push(t);
        }
        store
    }

    /// Append one owned tuple (see [`push_ref`](Self::push_ref)).
    pub fn push(&mut self, t: &PathCommTuple) {
        let uppers = t.comm.iter().map(|c| c.upper_field());
        self.push_parts(t.path.asns().iter().copied(), uppers);
    }

    /// Append one tuple from its encoded record: intern its hops and
    /// write them straight into the next slot of its length bucket's id
    /// and tag columns. Nothing of the record is kept.
    pub fn push_ref(&mut self, t: TupleRef<'_>) {
        self.push_parts(t.hops(), t.uppers());
    }

    /// The one append: all a tuple contributes is its hops and the upper
    /// fields of its communities.
    fn push_parts(
        &mut self,
        hops: impl ExactSizeIterator<Item = Asn>,
        uppers: impl Iterator<Item = Asn>,
    ) {
        let blen = hops.len();
        self.n_tuples += 1;
        if blen == 0 {
            return;
        }
        // Flatten the community upper fields once; per-hop membership is
        // then a scan over raw u32s (communities sharing an upper field
        // produce repeats — harmless for a membership probe). Sets this
        // small scan faster than they binary-search; large ones get
        // sorted and probed logarithmically.
        self.upper_scratch.clear();
        self.upper_scratch.extend(uppers.map(|asn| asn.0));
        let big_comm = self.upper_scratch.len() > 16;
        if big_comm {
            self.upper_scratch.sort_unstable();
        }
        if self.buckets.len() <= blen {
            self.buckets.resize_with(blen + 1, Bucket::default);
        }
        let CompiledTuples {
            interner,
            buckets,
            upper_scratch,
            ..
        } = self;
        let b = &mut buckets[blen];
        if b.cols.is_empty() {
            b.cols = vec![Vec::new(); blen];
            b.tag_cols = vec![Vec::new(); blen];
        }
        let k = b.len;
        let new_word = k % 64 == 0;
        let word = k / 64;
        let bit = 1u64 << (k % 64);
        let probe = |asn: Asn| {
            if big_comm {
                upper_scratch.binary_search(&asn.0).is_ok()
            } else {
                upper_scratch.contains(&asn.0)
            }
        };
        match interner {
            // Batch path: intern, column append, and tag probe in one
            // pass over the hops.
            StoreInterner::Own(it) => {
                for (p, asn) in hops.enumerate() {
                    b.cols[p].push(it.intern(asn));
                    if new_word {
                        b.tag_cols[p].push(0);
                    }
                    if probe(asn) {
                        b.tag_cols[p][word] |= bit;
                    }
                }
            }
            // Shared path: one writer-lock acquisition for the whole
            // path, then the column/tag pass.
            StoreInterner::Shared(s) => {
                let mut batch = s.batch();
                for (p, asn) in hops.enumerate() {
                    b.cols[p].push(batch.intern(asn));
                    if new_word {
                        b.tag_cols[p].push(0);
                    }
                    if probe(asn) {
                        b.tag_cols[p][word] |= bit;
                    }
                }
            }
        }
        b.len += 1;
        self.total_hops += blen;
        self.max_len = self.max_len.max(blen);
    }

    /// Number of compiled tuples.
    pub fn len(&self) -> usize {
        self.n_tuples
    }

    /// Whether no tuples are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Longest compiled path.
    pub fn max_path_len(&self) -> usize {
        self.max_len
    }

    /// Total path positions across the bucket id columns.
    pub fn arena_len(&self) -> usize {
        self.total_hops
    }

    /// Size of the id space this store counts over (for a shared
    /// interner: the workspace-global id count).
    pub fn interned_asns(&self) -> usize {
        self.interner.len()
    }

    /// Tuples appended since the last [`commit_clean`](CompiledTuples::commit_clean).
    pub fn dirty_tuples(&self) -> usize {
        self.buckets.iter().map(|b| b.slots() - b.clean_k).sum()
    }

    /// Tuples one (column, phase) step visits: the slots of every
    /// bucket long enough to reach column `x` (one longer for a
    /// forwarding pass, which needs a downstream hop), or with
    /// `dirty_only` just their dirty suffixes.
    pub fn step_visits(&self, x: usize, phase: CountPhase, dirty_only: bool) -> usize {
        self.buckets
            .iter()
            .skip(shortest_counted(x, phase))
            .map(|b| b.slots() - if dirty_only { b.clean_k } else { 0 })
            .sum()
    }

    /// Mark everything currently stored as covered by the seal that just
    /// completed: subsequent `dirty_only` counting passes skip it.
    pub fn commit_clean(&mut self) {
        for b in &mut self.buckets {
            b.clean_k = b.slots();
        }
    }

    /// Extend the occurrence index with the tuples appended since the
    /// last call. O(new hops), zero when nothing was pushed. Only feeds
    /// the stream layer's step corrections, so private-interner (batch)
    /// stores skip it entirely. Must run before a recount that calls
    /// [`affected_clean_words`](CompiledTuples::affected_clean_words).
    pub fn prepare(&mut self) {
        if !matches!(self.interner, StoreInterner::Shared(_)) {
            return;
        }
        let occ = &mut self.occurrences;
        if occ.heads.len() < self.interner.len() {
            occ.heads
                .resize(self.interner.len(), (NO_OCCURRENCE, NO_OCCURRENCE));
        }
        let index_u32 = |n: usize| u32::try_from(n).expect("occurrence index fits u32");
        for (blen, b) in self.buckets.iter_mut().enumerate() {
            let nk = b.slots();
            if b.mat_k == nk {
                continue;
            }
            for w in b.mat_k / 64..nk.div_ceil(64) {
                if w == b.word_keys.len() {
                    b.word_keys.push(index_u32(occ.words.len()));
                    occ.words.push((index_u32(blen), index_u32(w)));
                }
                let key = b.word_keys[w];
                let rows = (w * 64).max(b.mat_k)..((w + 1) * 64).min(nk);
                for col in &b.cols {
                    for &id in &col[rows.clone()] {
                        let head = &mut occ.heads[id as usize];
                        if head.0 != key {
                            occ.nodes.push((key, head.1));
                            *head = (key, index_u32(occ.nodes.len() - 1));
                        }
                    }
                }
            }
            b.mat_k = nk;
        }
    }

    /// Collect into `out`, sorted and without repeats, the keys of the
    /// clean-prefix words that one (column, phase) step reads and that
    /// hold any of `ids`: words of buckets long enough for the step (see
    /// [`step_visits`](CompiledTuples::step_visits)) with at least one
    /// tuple sealed by the last
    /// [`commit_clean`](CompiledTuples::commit_clean). Those are all the
    /// sealed tuples whose contribution to the step can depend on a
    /// predicate bit of `ids`. Current as of the last
    /// [`prepare`](CompiledTuples::prepare).
    pub fn affected_clean_words(
        &self,
        ids: &[AsnId],
        x: usize,
        phase: CountPhase,
        out: &mut Vec<u32>,
    ) {
        out.clear();
        let occ = &self.occurrences;
        let shortest = shortest_counted(x, phase);
        for &id in ids {
            let mut node = occ.heads.get(id as usize).map_or(NO_OCCURRENCE, |h| h.1);
            while node != NO_OCCURRENCE {
                let (key, older) = occ.nodes[node as usize];
                let (blen, w) = occ.words[key as usize];
                if blen as usize >= shortest
                    && (w as usize) * 64 < self.buckets[blen as usize].clean_k
                {
                    out.push(key);
                }
                node = older;
            }
        }
        out.sort_unstable();
        out.dedup();
    }

    /// Count one (column, phase) over just `words` — keys from
    /// [`affected_clean_words`](CompiledTuples::affected_clean_words) for
    /// the same step — under `preds`, clean-prefix tuples only: the rows
    /// of a boundary word appended since the last
    /// [`commit_clean`](CompiledTuples::commit_clean) are masked off.
    /// This is [`compute_clean`](CompiledTuples::compute_clean) +
    /// [`count_phase_dense`](CompiledTuples::count_phase_dense) restricted
    /// to those words — same kernel, so what it adds to `delta` is exactly
    /// those tuples' share of a full count under `preds` — and it leaves
    /// their `clean` scratch words computed under `preds`.
    #[allow(clippy::too_many_arguments)]
    pub fn count_clean_words(
        &mut self,
        preds: &PhasePredicates,
        x: usize,
        phase: CountPhase,
        enforce_cond1: bool,
        enforce_cond2: bool,
        words: &[u32],
        delta: &mut DeltaStore,
    ) {
        for &key in words {
            let (blen, w) = self.occurrences.words[key as usize];
            let (blen, w) = (blen as usize, w as usize);
            let b = &mut self.buckets[blen];
            debug_assert!(blen >= shortest_counted(x, phase) && w * 64 < b.clean_k);
            if b.clean.len() <= w {
                b.clean.resize(b.words(), 0);
            }
            b.clean[w] = clean_word(b, preds, x, enforce_cond1, w);
            let sealed_mask = low_rows(b.clean_k - w * 64);
            let b = &self.buckets[blen];
            self.count_bucket_words(
                b,
                blen,
                preds,
                x,
                phase,
                enforce_cond2,
                w,
                w + 1,
                sealed_mask,
                delta,
            );
        }
    }

    /// Compute the Cond1 `clean` words for column `x` in every active
    /// bucket: per 64-tuple word, gather `is_forward` of each upstream
    /// position's ids into a word and AND the positions together
    /// (early-exiting once a word is all-dirty); all-ones when `x == 1`
    /// (no upstream) or Cond1 is ablated. Valid for both of the column's
    /// phases — the tagging merge moves only `t`/`s` counters, which
    /// `is_forward` never reads. With `dirty_only`, only the words
    /// covering the dirty suffix are computed (enough for a replayed
    /// step's suffix counting).
    pub fn compute_clean(
        &mut self,
        preds: &PhasePredicates,
        x: usize,
        enforce_cond1: bool,
        dirty_only: bool,
    ) {
        for blen in x..self.buckets.len() {
            let b = &mut self.buckets[blen];
            let nk = b.slots();
            if nk == 0 {
                continue;
            }
            let words = b.words();
            b.clean.resize(words, 0);
            let w_lo = if dirty_only {
                if b.clean_k >= nk {
                    continue;
                }
                b.clean_k / 64
            } else {
                0
            };
            for w in w_lo..words {
                b.clean[w] = clean_word(b, preds, x, enforce_cond1, w);
            }
        }
    }

    /// Count one (column, phase) over this store into `delta`, using the
    /// `clean` words computed by [`compute_clean`](CompiledTuples::compute_clean).
    /// With `dirty_only`, only tuples appended since the last
    /// [`commit_clean`](CompiledTuples::commit_clean) are visited — the
    /// incremental-recount fresh-suffix pass. Returns whether any counter
    /// was incremented.
    pub fn count_phase_dense(
        &self,
        preds: &PhasePredicates,
        x: usize,
        phase: CountPhase,
        enforce_cond2: bool,
        dirty_only: bool,
        delta: &mut DeltaStore,
    ) -> bool {
        let mut touched = false;
        for blen in shortest_counted(x, phase)..self.buckets.len() {
            let b = &self.buckets[blen];
            let nk = b.slots();
            if nk == 0 {
                continue;
            }
            let (w_lo, lo_mask) = if dirty_only {
                if b.clean_k >= nk {
                    continue;
                }
                (b.clean_k / 64, !0u64 << (b.clean_k % 64))
            } else {
                (0, !0u64)
            };
            touched |= self.count_bucket_words(
                b,
                blen,
                preds,
                x,
                phase,
                enforce_cond2,
                w_lo,
                b.words(),
                lo_mask,
                delta,
            );
        }
        touched
    }

    /// The innermost loop: one (column, phase) over one bucket's word
    /// range. `lo_mask` filters the first word (dirty-suffix boundaries).
    #[allow(clippy::too_many_arguments, clippy::needless_range_loop)]
    fn count_bucket_words(
        &self,
        b: &Bucket,
        blen: usize,
        preds: &PhasePredicates,
        x: usize,
        phase: CountPhase,
        enforce_cond2: bool,
        w_lo: usize,
        w_hi: usize,
        lo_mask: u64,
        delta: &mut DeltaStore,
    ) -> bool {
        debug_assert!(blen >= x);
        let p = x - 1;
        let axids = &b.cols[p];
        let mut touched = false;
        match phase {
            CountPhase::Tagging => {
                let tags = &b.tag_cols[p];
                for w in w_lo..w_hi {
                    let mut cl = b.clean[w];
                    if w == w_lo {
                        cl &= lo_mask;
                    }
                    if cl == 0 {
                        continue;
                    }
                    // Every clean active tuple increments exactly one of
                    // t/s at its position-x AS: split the word once.
                    touched = true;
                    let tg = tags[w];
                    let mut m = cl & tg;
                    while m != 0 {
                        let k = (w << 6) + m.trailing_zeros() as usize;
                        delta.entry(axids[k]).t += 1;
                        m &= m - 1;
                    }
                    let mut m = cl & !tg;
                    while m != 0 {
                        let k = (w << 6) + m.trailing_zeros() as usize;
                        delta.entry(axids[k]).s += 1;
                        m &= m - 1;
                    }
                }
            }
            CountPhase::Forwarding => {
                debug_assert!(blen > x);
                for w in w_lo..w_hi {
                    let mut cl = b.clean[w];
                    if w == w_lo {
                        cl &= lo_mask;
                    }
                    if cl == 0 {
                        continue;
                    }
                    let lo = w * 64;
                    let wn = (b.slots() - lo).min(64);
                    // Layered word-parallel Cond2: walk the downstream
                    // positions once per *word*, peeling off the tuples
                    // whose nearest tagger sits at position `p` and
                    // keeping the rest alive while position `p`
                    // forwards. With Cond2 ablated every tuple takes the
                    // adjacent AS (`p = x`) unconditionally.
                    let mut undecided = cl;
                    for p in x..blen {
                        let local = &b.cols[p][lo..lo + wn];
                        let found = if enforce_cond2 {
                            undecided & gather_bits(&preds.tagger, local)
                        } else {
                            undecided
                        };
                        if found != 0 {
                            touched = true;
                            let tg = b.tag_cols[p][w];
                            let mut m = found & tg;
                            while m != 0 {
                                let k = lo + m.trailing_zeros() as usize;
                                delta.entry(axids[k]).f += 1;
                                m &= m - 1;
                            }
                            let mut m = found & !tg;
                            while m != 0 {
                                let k = lo + m.trailing_zeros() as usize;
                                delta.entry(axids[k]).c += 1;
                                m &= m - 1;
                            }
                        }
                        undecided &= !found;
                        if undecided == 0 || p + 1 == blen {
                            break;
                        }
                        // Intermediates must forward for deeper taggers.
                        undecided &= gather_bits(&preds.forward, local);
                        if undecided == 0 {
                            break;
                        }
                    }
                }
            }
        }
        touched
    }

    /// Run the full column loop — the compiled `InferenceEngine::run`.
    ///
    /// The predicate bitsets are maintained incrementally: they start
    /// all-false (zero counters) and are refreshed per touched AS at
    /// every delta merge, so each phase reads exactly the snapshot the
    /// reference path would compute at its start. One `clean`
    /// gather-and-AND per column serves both phases. Every step is
    /// counted on the calling thread by
    /// [`count_phase_dense`](CompiledTuples::count_phase_dense), the
    /// entry point a stream seal counts its shards with.
    pub fn run(&mut self, config: &InferenceConfig) -> InferenceOutcome {
        let th = config.thresholds;
        let deepest = config.max_index.unwrap_or(self.max_len).min(self.max_len);
        let n_ids = self.interner.len();
        self.prepare();
        let mut counters = DenseCounterStore::zeroed(n_ids);
        let mut preds = PhasePredicates::empty(n_ids);
        let mut delta = DeltaStore::zeroed(n_ids);
        let mut deepest_active = 0;
        for x in 1..=deepest {
            self.compute_clean(&preds, x, config.enforce_cond1, false);
            let mut col_active = false;
            for phase in [CountPhase::Tagging, CountPhase::Forwarding] {
                col_active |= self.count_phase_dense(
                    &preds,
                    x,
                    phase,
                    config.enforce_cond2,
                    false,
                    &mut delta,
                );
                counters.merge_update(&delta, &mut preds, &th, phase);
                delta.clear();
            }
            if col_active {
                deepest_active = x;
            }
        }
        InferenceOutcome {
            counters: self.sparse_counters(&counters),
            thresholds: th,
            deepest_active_index: deepest_active,
        }
    }

    /// Convert a dense counter column back to the map-based
    /// [`CounterStore`], keeping exactly the ASes that received at least
    /// one increment — the reference engine's key set.
    fn sparse_counters(&self, dense: &DenseCounterStore) -> CounterStore {
        let counted = dense.counts().iter().filter(|c| !c.is_zero()).count();
        let mut store = CounterStore::with_capacity(counted);
        for (id, c) in dense.counts().iter().enumerate() {
            if !c.is_zero() {
                *store.entry(self.interner.resolve(id as AsnId)) = *c;
            }
        }
        store
    }
}

impl Default for CompiledTuples {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::InferenceEngine;

    fn tup(p: &[u32], uppers: &[u32]) -> PathCommTuple {
        PathCommTuple::new(
            path(p),
            CommunitySet::from_iter(uppers.iter().map(|&u| AnyCommunity::tag_for(Asn(u), 100))),
        )
    }

    fn cfg1() -> InferenceConfig {
        InferenceConfig {
            threads: 1,
            ..Default::default()
        }
    }

    #[test]
    fn buckets_group_by_exact_length() {
        let tuples = vec![
            tup(&[1, 2], &[1]),
            tup(&[3, 4, 5, 6], &[3]),
            tup(&[7, 8, 9], &[]),
            tup(&[2, 1], &[]),
        ];
        let mut store = CompiledTuples::from_tuples(&tuples);
        store.prepare();
        assert_eq!(store.len(), 4);
        assert_eq!(store.max_path_len(), 4);
        assert_eq!(store.arena_len(), 11);
        assert_eq!(store.buckets[2].slots(), 2);
        assert_eq!(store.buckets[3].slots(), 1);
        assert_eq!(store.buckets[4].slots(), 1);
        // Transposed columns align with the row arena.
        let b = &store.buckets[2];
        assert_eq!(b.cols.len(), 2);
        assert_eq!(b.cols[0].len(), 2);
        assert_eq!(store.dirty_tuples(), 4);
    }

    #[test]
    fn incremental_push_matches_batch_build() {
        let tuples = vec![
            tup(&[1, 2], &[1]),
            tup(&[3, 4, 5, 6], &[3, 5]),
            tup(&[7, 8, 9], &[8]),
            tup(&[1, 5, 9], &[5]),
        ];
        let cfg = cfg1();
        let mut incremental = CompiledTuples::new();
        for t in &tuples {
            incremental.push(t);
        }
        let a = incremental.run(&cfg);
        let b = CompiledTuples::from_tuples(&tuples).run(&cfg);
        assert_eq!(a.classes(), b.classes());
        let reference = InferenceEngine::new(cfg).run_reference(&tuples);
        assert_eq!(a.classes(), reference.classes());
    }

    #[test]
    fn tag_bits_cross_word_boundaries() {
        // One long tuple pushes arena positions past 64: tag bits must
        // stay position-accurate across u64 words.
        let mut tuples = Vec::new();
        for i in 0..30u32 {
            let a = 100 + 3 * i;
            tuples.push(tup(&[a, a + 1, a + 2], &[a, a + 2]));
        }
        let store = CompiledTuples::from_tuples(&tuples);
        assert!(store.arena_len() > 64);
        let cfg = cfg1();
        let compiled = CompiledTuples::from_tuples(&tuples).run(&cfg);
        let reference = InferenceEngine::new(cfg).run_reference(&tuples);
        assert_eq!(compiled.classes(), reference.classes());
    }

    #[test]
    fn word_parallel_cond1_crosses_bucket_words() {
        // >64 same-length tuples exercise multi-word clean/tag columns,
        // with enough predicate churn that forward bits flip in both
        // directions across columns.
        let mut tuples = Vec::new();
        for i in 0..200u32 {
            let a = 10 + i % 23;
            let b = 40 + i % 17;
            let c = 70 + i % 11;
            let mut uppers = Vec::new();
            if i % 3 != 0 {
                uppers.push(a);
            }
            if i % 4 != 0 {
                uppers.push(b);
            }
            if i % 7 == 0 {
                uppers.push(c);
            }
            tuples.push(tup(&[a, b, c, 9_000 + i], &uppers));
        }
        let cfg = cfg1();
        let compiled = CompiledTuples::from_tuples(&tuples).run(&cfg);
        let reference = InferenceEngine::new(cfg).run_reference(&tuples);
        assert_eq!(compiled.classes(), reference.classes());
        let mut got: Vec<(Asn, AsCounters)> = compiled.counters.iter().collect();
        let mut want: Vec<(Asn, AsCounters)> = reference.counters.iter().collect();
        got.sort_by_key(|&(a, _)| a);
        want.sort_by_key(|&(a, _)| a);
        assert_eq!(got, want);
    }

    #[test]
    fn rerunning_a_store_is_stable() {
        // `run` mutates pass state (clean scratch, column
        // materialization); a second run must be byte-identical.
        let mut tuples = Vec::new();
        for i in 0..80u32 {
            tuples.push(tup(&[5 + i % 9, 30 + i % 5, 900 + i], &[5 + i % 9]));
        }
        let mut store = CompiledTuples::from_tuples(&tuples);
        let cfg = cfg1();
        let a = store.run(&cfg);
        let b = store.run(&cfg);
        assert_eq!(a.classes(), b.classes());
        assert_eq!(a.deepest_active_index, b.deepest_active_index);
    }

    #[test]
    fn delta_store_tracks_touched_ids() {
        let mut d = DeltaStore::zeroed(8);
        d.entry(3).t += 1;
        d.entry(5).s += 2;
        d.entry(3).f += 1;
        assert_eq!(d.touched().collect::<Vec<_>>(), vec![3, 5]);
        assert_eq!(
            d.get(3),
            AsCounters {
                t: 1,
                s: 0,
                f: 1,
                c: 0
            }
        );
        d.clear();
        assert!(d.is_empty());
        assert!(d.get(3).is_zero());
        assert!(d.get(5).is_zero());
    }

    #[test]
    fn words_of_an_id_sum_to_the_whole_store() {
        // The word-restricted evaluation against `count_phase_dense`: ask
        // the occurrence index for the words of *every* id and the two
        // must agree on every step — both phases, Cond1/Cond2 on and off,
        // predicates with bits of every kind set. 150 three-hop tuples
        // leave that bucket's last word partial (22 rows); a second,
        // longer bucket and a dirty suffix sharing its boundary word
        // with sealed rows check the row mask.
        let shared = Arc::new(SharedInterner::new());
        let mut store = CompiledTuples::with_shared(Arc::clone(&shared));
        let row = |i: u32| {
            let (a, b) = (10 + i % 7, 40 + i % 13);
            let mut uppers = vec![];
            if !i.is_multiple_of(3) {
                uppers.push(a);
            }
            if i % 5 < 3 {
                uppers.push(b);
            }
            if i.is_multiple_of(4) {
                tup(&[a, b, 70 + i % 11, 9_000 + i], &uppers)
            } else {
                tup(&[a, b, 9_000 + i], &uppers)
            }
        };
        for i in 0..200 {
            store.push(&row(i));
        }
        assert_eq!(store.buckets[3].slots() % 64, 22);
        store.prepare();
        store.commit_clean();
        for i in 200..230 {
            store.push(&row(i));
        }
        store.prepare();
        let n = store.interned_asns();
        let mut preds = PhasePredicates::empty(n);
        for id in 0..n as AsnId {
            preds.forward.assign(id, id % 3 != 1);
            preds.tagger.assign(id, id % 4 == 0);
        }
        let every_id: Vec<AsnId> = (0..n as AsnId).collect();
        let mut words = Vec::new();
        let (mut by_word, mut whole, mut suffix) = (
            DeltaStore::zeroed(n),
            DeltaStore::zeroed(n),
            DeltaStore::zeroed(n),
        );
        for (cond1, cond2) in [(true, true), (true, false), (false, true), (false, false)] {
            for x in 1..=4 {
                for phase in [CountPhase::Tagging, CountPhase::Forwarding] {
                    store.affected_clean_words(&every_id, x, phase, &mut words);
                    assert!(words.windows(2).all(|w| w[0] < w[1]), "sorted, no repeats");
                    store.count_clean_words(&preds, x, phase, cond1, cond2, &words, &mut by_word);
                    // Sealed tuples = everything minus the dirty suffix.
                    store.compute_clean(&preds, x, cond1, false);
                    store.count_phase_dense(&preds, x, phase, cond2, false, &mut whole);
                    store.count_phase_dense(&preds, x, phase, cond2, true, &mut suffix);
                    let ctx = format!("x={x} {phase:?} cond1={cond1} cond2={cond2}");
                    for id in every_id.iter().copied() {
                        let mut want = whole.get(id);
                        want.retract(&suffix.get(id));
                        assert_eq!(by_word.get(id), want, "{ctx}: id {id}");
                    }
                    assert_eq!(
                        by_word.touched().collect::<Vec<_>>(),
                        whole
                            .touched()
                            .filter(|&id| whole.get(id) != suffix.get(id))
                            .collect::<Vec<_>>(),
                        "{ctx}: touched ids"
                    );
                    by_word.clear();
                    whole.clear();
                    suffix.clear();
                }
            }
        }
        // One id's words are a strict subset: the origin of one sealed
        // tuple lives in exactly one word.
        let origin = shared.get(Asn(9_001)).expect("interned");
        store.affected_clean_words(&[origin], 1, CountPhase::Tagging, &mut words);
        assert_eq!(words.len(), 1);
        // Its path is three hops long: no column-4 step reads that word.
        store.affected_clean_words(&[origin], 4, CountPhase::Tagging, &mut words);
        assert!(words.is_empty());
    }

    #[test]
    fn shared_interner_store_matches_private_store() {
        let tuples: Vec<PathCommTuple> = (0..120u32)
            .map(|i| {
                tup(
                    &[3 + i % 11, 50 + i % 7, 2_000 + i],
                    &[3 + i % 11, 50 + i % 7],
                )
            })
            .collect();
        let shared = Arc::new(SharedInterner::new());
        let mut a = CompiledTuples::with_shared(Arc::clone(&shared));
        for t in &tuples {
            a.push(t);
        }
        let cfg = cfg1();
        let got = a.run(&cfg);
        let want = InferenceEngine::new(cfg).run_reference(&tuples);
        assert_eq!(got.classes(), want.classes());
        assert_eq!(shared.len(), a.interned_asns());
    }

    #[test]
    fn dirty_suffix_counts_only_new_tuples() {
        // Count a store fully, commit, push more tuples; the dirty-only
        // pass over column 1 must produce exactly the new tuples' tagging
        // delta.
        let mut store = CompiledTuples::new();
        for i in 0..70u32 {
            store.push(&tup(&[1, 100 + i], &[1]));
        }
        store.commit_clean();
        assert_eq!(store.dirty_tuples(), 0);
        for i in 0..5u32 {
            store.push(&tup(&[2, 200 + i], &[]));
        }
        assert_eq!(store.dirty_tuples(), 5);
        store.prepare();
        let n = store.interned_asns();
        let preds = PhasePredicates::empty(n);
        store.compute_clean(&preds, 1, true, false);
        let mut delta = DeltaStore::zeroed(n);
        let any = store.count_phase_dense(&preds, 1, CountPhase::Tagging, true, true, &mut delta);
        assert!(any);
        // Only AS 2 (peer of the dirty tuples) is touched, with s = 5.
        let entries: Vec<(AsnId, AsCounters)> = delta.iter().collect();
        assert_eq!(entries.len(), 1);
        assert_eq!(
            entries[0].1,
            AsCounters {
                t: 0,
                s: 5,
                f: 0,
                c: 0
            }
        );
        // The full pass covers old + new.
        delta.clear();
        store.count_phase_dense(&preds, 1, CountPhase::Tagging, true, false, &mut delta);
        let total: u64 = delta.iter().map(|(_, c)| c.t + c.s).sum();
        assert_eq!(total, 75);
    }

    #[test]
    fn step_visits_follow_the_active_buckets() {
        // Lengths 1, 2, 2, 4: column x reaches the buckets >= x, and a
        // forwarding pass (downstream hop needed) those >= x + 1.
        let tuples = vec![
            tup(&[1], &[]),
            tup(&[1, 2], &[]),
            tup(&[3, 2], &[]),
            tup(&[1, 2, 3, 4], &[]),
        ];
        let mut store = CompiledTuples::from_tuples(&tuples);
        let visits = |s: &CompiledTuples, dirty| {
            [1, 2, 3, 4, 5].map(|x| {
                (
                    s.step_visits(x, CountPhase::Tagging, dirty),
                    s.step_visits(x, CountPhase::Forwarding, dirty),
                )
            })
        };
        let full = [(4, 3), (3, 1), (1, 1), (1, 0), (0, 0)];
        assert_eq!(visits(&store, false), full);
        assert_eq!(visits(&store, true), full, "nothing sealed yet");
        store.commit_clean();
        store.push(&tup(&[5, 6, 7, 8], &[]));
        assert_eq!(
            visits(&store, true),
            [(1, 1), (1, 1), (1, 1), (1, 0), (0, 0)]
        );
        assert_eq!(store.step_visits(1, CountPhase::Tagging, false), 5);
    }

    #[test]
    fn dense_outcome_lookup_and_materialize() {
        let shared = Arc::new(SharedInterner::new());
        let a = shared.intern(Asn(30));
        let b = shared.intern(Asn(10));
        let mut counters = vec![AsCounters::default(); 2];
        counters[a as usize].t = 3;
        let by_asn = vec![(Asn(10), b), (Asn(30), a)];
        let dense = DenseOutcome {
            interner: shared,
            counters: Arc::new(counters),
            by_asn: Arc::new(by_asn),
            thresholds: Thresholds::default(),
            deepest_active_index: 1,
        };
        assert_eq!(dense.lookup(Asn(30)).unwrap().t, 3);
        assert_eq!(dense.lookup(Asn(10)), None, "zero rows are not counted");
        assert_eq!(dense.lookup(Asn(99)), None);
        let outcome = dense.to_outcome();
        assert_eq!(outcome.counters.len(), 1);
        assert_eq!(outcome.counters.get(Asn(30)).t, 3);
    }
}
