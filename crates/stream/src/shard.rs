//! Shard layer: partitioned tuple ownership, dense phase counting over
//! one shared id space, and incremental epoch recounts.
//!
//! Incoming tuples arrive as borrowed records ([`TupleRef`]). The shard
//! set recognises a tuple it has seen in its one [`TupleTable`] (a hash, a
//! probe and a compare against the table's record arena; nothing is
//! allocated or freed for a duplicate) and stores a new one exactly once:
//! its record in that arena, its columns in the compiled store of one of
//! `N` shards, chosen by an FNV-1a hash of its on-path ASNs.
//!
//! ## One pass a record
//!
//! Records come in runs ([`ShardSet::push_records`]; a lone record is a
//! run of one), and a run is taken in two passes. The **hash pass**
//! computes each record's seeded table tag ([`TupleTable::tag`]) and
//! writes the record with it into a reused scratch buffer. The **probe
//! pass** then walks that buffer and inserts in arrival order through
//! [`TupleTable::insert_tagged`]; with no hashing or parsing between
//! them, the slot and arena misses of neighbouring records overlap
//! instead of queuing. Only a record the table stores is routed and
//! appended to its shard's compiled store, so a duplicate — most of a
//! followed feed — costs a tag and a probe, nothing more.
//!
//! A record's shard is a function of its hops alone, and an identical
//! record is stored once, so the shard loads are what they would be if
//! every shard kept its own table. The route is unseeded FNV-1a over the
//! hop bytes and must stay so: shard loads are archived and compared
//! across restarts (the routing test pins it by value).
//!
//! ## The compiled partitions
//!
//! Each shard owns its partition as a [`CompiledTuples`] store (the
//! length-bucketed columnar representation of `bgp_infer::compiled`,
//! appended incrementally as events arrive — from the record's hops and
//! community upper fields, all the engine reads of a tuple), and **every
//! shard interns through the shard set's one [`AsnInterner`]**, lent to
//! the store for each push ([`CompiledTuples::push_ref_with`]) on the
//! thread that pushes and seals. All shards speak the same dense `u32`
//! id space, so a counting phase hands the coordinator a [`DeltaStore`]
//! (flat counters + touched-id bitmap) that folds into the epoch's
//! [`DenseCounterStore`] by slice addition — the old
//! `HashMap<Asn, AsCounters>` hop between shard and coordinator is gone
//! end to end. The coordinator maintains the phase predicate bitsets
//! incrementally per touched AS at each merge; shards evaluate Cond1 and
//! Cond2 word-parallel against them (see `bgp_infer::compiled`).
//!
//! ## Incremental recounts
//!
//! A full recount replays the batch engine's column loop (tagging phase,
//! merge, forwarding phase, merge, next column) over everything stored.
//! Because counters only ever *accumulate*, the per-shard delta of one
//! (column, phase) step is a pure function of (a) the shard's tuples with
//! `len >= column` and (b) the predicate bits of the ASes occurring in
//! the shard. The shard set exploits that to make seal cost scale with
//! the delta instead of the store:
//!
//! * each shard's buckets are append-only, so the tuples added since the
//!   previous seal are a *suffix* of each bucket (the dirty range);
//! * every (shard, column, phase) step's sparse delta from the previous
//!   seal is cached, along with the *predicate trajectory* — the
//!   `is_forward`/`is_tagger` bit words entering each step (two tiny
//!   bitsets per step);
//! * at the next seal, a step's entering predicates are compared with
//!   the recorded trajectory (counters keep growing every seal, but
//!   predicates only move when a share crosses a threshold, so they
//!   almost always agree). A shard none of whose sealed tuples can read a
//!   diverged bit replays its cached delta as it stands; it counts only
//!   its dirty suffix fresh and folds that into the cache;
//! * a shard that does hold a diverged id **corrects** its cached delta
//!   instead of discarding it. The compiled store keeps an occurrence
//!   index — per id, the 64-tuple words whose tuples contain it and, in
//!   each, the mask of the rows that do
//!   ([`CompiledTuples::affected_clean_words`]) — so the shard gathers
//!   the sealed rows that hold a diverged id and evaluates each of them
//!   on its own, twice ([`CompiledTuples::correct_words`]): once under
//!   the *recorded* trajectory, which gives `old`, what those rows put
//!   into the cache, and once under the entering predicates, which gives
//!   `new`, what they contribute now. A row is gathered wherever in it
//!   the id sits; where the step does not read that position, the two
//!   evaluations agree. `cache + new − old`, entries that reach zero
//!   dropped, is then merged as a replayed step, and every id either pass
//!   touched joins the overlay.
//!
//! Which diverged ids a step asks for follows from what it reads: a
//! forwarding step reads both bits downstream of the counted position
//! (Cond2), so every diverged id; a tagging step reads only `is_forward`
//! upstream of it (Cond1), so only the ids whose `is_forward` moved, and
//! none at column 1. A seal always enforces both conditions; the
//! kernels' switches for them are the batch engine's ablation.
//!
//! A followed feed is where this matters: an AS with one or two counted
//! occurrences crosses a threshold on its first count, its bit then
//! differs from the trajectory at every later step of that seal, and the
//! correction re-reads one or two rows a step where a recount read the
//! shard's every tuple — and put the whole cached step into the overlay.
//!
//! **The fallback** is the full recount of the step, and it is kept for
//! exactly two cases: steps past the previous seal's deepest column (no
//! cache and no trajectory for them; a first seal is the case whose
//! previous deepest column is 0), and a step whose affected rows reach
//! half of what recounting it would
//! visit — a corrected row is evaluated twice, so that is the
//! break-even, read off two counts the plan already has (the gathered
//! rows and [`CompiledTuples::step_visits`]); it is not a tunable. A
//! collector peer's flip lands there: it sits in nearly every row.
//!
//! Replayed steps are byte-identical to recounting by the purity argument
//! above — the cached delta was computed under bit-identical predicate
//! inputs over an identical tuple prefix. Corrected steps are by the same
//! argument applied row by row: a step's delta is a sum over tuples of
//! integer increments, each a function of the predicate bits of the ids
//! on that tuple alone — and only of those the step reads. A sealed
//! tuple outside the counted rows reads no diverged bit, so its
//! increments are the same under both predicate states and stay in the
//! cache; for the counted rows, `old` is precisely what the cache holds
//! on their behalf and `new` what a recount would add, and since
//! counters are integer sums the order of
//! the additions and the subtraction is immaterial. The corrected cache
//! is therefore entry for entry what refilling it after a full
//! recount would hold — which is what the generated-world test in this
//! module checks after every seal, beside the counters. So the merged
//! result is identical for every shard count and cache state, and
//! identical to the batch engine's reference path, pinned by
//! `tests/stream_parity.rs` across epochs and shard counts. The oracle
//! of every seal is a **fresh set** fed the same cumulative tuples and
//! sealed once: a first seal has no cache to reuse, so it counts every
//! step in full.
//!
//! ## What moved
//!
//! A recount also returns the **moved set** ([`Recount::moved`]): every
//! id whose final counters may differ from the previous seal's. In
//! trajectory mode it is the overlay — the ids a fresh suffix delta, a
//! retracted correction or a recounted step touched — plus every id a
//! direct-mode step past the previous seal's deepest column merged. An
//! id outside it had every contribution replayed, so its counters, and
//! with them its class and record, are the previous seal's. A first seal
//! runs every step past a deepest column of 0, so its moved set is the
//! ids it counted; an id interned but never counted has zero counters
//! and no row in either table. The
//! pipeline classifies the moved ids alone and patches the previous
//! seal's class and record tables at them, so what a seal does after
//! counting costs O(moved ids), not O(id space).
//!
//! The overlay keeps its own predicate bits beside the trajectory. A
//! member is re-evaluated only after it joins or a merge moves its
//! counters (a merge marks every id it moves in a bitmap, which is
//! cheaper than asking whether it is a member), and a step's entering
//! words and diverged ids come a word of ids at a time,
//! `(bits ^ trajectory) & overlay`
//! ([`PhasePredicates::load_patched`]). A replayed step absorbs its fresh
//! suffix in place: 95 % of a trickle pass's fresh entries hit an id the
//! cached step already holds, so the entries move only when a new id
//! arrives.
//!
//! What it costs to keep: the occurrence index is one 16-byte node per
//! distinct (id, word), its row mask included — 164 k nodes, 2.65 MB with
//! the heads and word table, for a shard of 61 k tuples (291 k hops) on
//! the ledger's seed-7 trickle feed, about twice what its id columns
//! take — appended at seal time by the walk over new hops that
//! [`CompiledTuples::prepare`] makes (a repeat of an id within a word
//! sets its row in the node it already has); a push does not touch it.
//! On a *small* store of barely-seen ASes the bookkeeping still loses to
//! recounting: on a generated world of 8,192 ASes at 4 shards, where
//! every 256-tuple delta flips many of them, an incremental seal of a
//! 10 k-tuple store costs 1.3× a full one (2.0× *faster* at 50 k, 3.0× at
//! 100 k). On the trickle feed itself the incremental seal is 4× faster
//! already at 10 k tuples (both measured on a 2-vCPU guest). The
//! small-store cost is accepted, not selectable: a seal has one path.
//!
//! What a recount took — replayed and total (shard, step) units,
//! corrections, tuple visits, count and merge time — it returns in its
//! [`Recount`] for the seal to keep with the epoch; the shard set keeps
//! no per-seal statistics of its own.
//!
//! ## Who counts
//!
//! A seal counts its shards in turn, on the sealing thread, each with
//! the batch engine's own entry point
//! ([`CompiledTuples::count_phase_dense`]). A step visits at most the
//! store's tuples, and a trickle seal a few thousand of them, so no
//! workload has a step large enough to pay for a thread spawn.

use crate::epoch::{SealKind, SealStats};
use bgp_infer::compiled::{
    CompiledTuples, DeltaStore, DenseCounterStore, IdBitSet, PhasePredicates,
};
use bgp_infer::counters::{AsCounters, Thresholds};
use bgp_infer::engine::CountPhase;
use bgp_types::prelude::*;
use obs::{Histogram, ObsRegistry};
use std::sync::Arc;
use std::time::Instant;

/// The predicate bit words entering one (column, phase) step at the
/// previous seal — the incremental-recount validity reference.
#[derive(Debug, Clone, Default)]
struct StepTrajectory {
    forward: Vec<u64>,
    tagger: Vec<u64>,
}

impl StepTrajectory {
    /// Record `preds` as this step's entering state.
    fn record(&mut self, preds: &PhasePredicates) {
        self.forward.clear();
        self.forward.extend_from_slice(preds.forward_words());
        self.tagger.clear();
        self.tagger.extend_from_slice(preds.tagger_words());
    }
}

/// One cached (column, phase) delta: the sparse contribution of a
/// shard's clean-prefix tuples as of the previous seal, sorted by id.
#[derive(Debug, Clone, Default)]
struct CachedStep {
    entries: Vec<(AsnId, AsCounters)>,
}

impl CachedStep {
    /// Replace the cache with a fresh step delta, reusing the allocation.
    /// (`DeltaStore::iter` enumerates ascending by id.)
    fn refill(&mut self, delta: &DeltaStore) {
        self.entries.clear();
        self.entries.extend(delta.iter());
    }

    /// Fold a fresh dirty-suffix delta into the cache (the suffix becomes
    /// part of the clean prefix at the next seal). `delta` comes
    /// ascending by id; an id the cache holds accumulates in place, found
    /// by walking on from the previous one. The ids it lacks gather in
    /// `fresh` (a shard-owned buffer, so a replayed step stays
    /// allocation-free) and are merged in from the back, so the entries
    /// move only when a new id arrives.
    fn absorb(
        &mut self,
        delta: impl Iterator<Item = (AsnId, AsCounters)>,
        fresh: &mut Vec<(AsnId, AsCounters)>,
    ) {
        fresh.clear();
        let mut at = 0;
        for (id, c) in delta {
            while self.entries.get(at).is_some_and(|&(e, _)| e < id) {
                at += 1;
            }
            match self.entries.get_mut(at) {
                Some((e, prev)) if *e == id => prev.accumulate(&c),
                _ => fresh.push((id, c)),
            }
        }
        if fresh.is_empty() {
            return;
        }
        let mut old = self.entries.len();
        self.entries.resize(old + fresh.len(), Default::default());
        for slot in (0..self.entries.len()).rev() {
            let Some(&new) = fresh.last() else { break };
            if old > 0 && self.entries[old - 1].0 > new.0 {
                old -= 1;
                self.entries[slot] = self.entries[old];
            } else {
                self.entries[slot] = new;
                fresh.pop();
            }
        }
    }

    /// Take `old` — the share of this cache that some of its tuples
    /// contributed — back out, dropping the entries that leaves at zero
    /// (a cache lists exactly the ids that were incremented, as a fresh
    /// [`refill`](CachedStep::refill) would).
    fn retract(&mut self, old: &DeltaStore) {
        let mut old = old.iter().peekable();
        self.entries.retain_mut(|(id, c)| {
            if let Some((_, o)) = old.next_if(|&(oid, _)| oid == *id) {
                c.retract(&o);
            }
            !c.is_zero()
        });
        debug_assert!(old.next().is_none(), "retracted an id the cache lacks");
    }
}

/// What a recount hands the seal: the counters, and what counting them
/// took. The seal copies the counts into the epoch it seals (its
/// [`IngestStats`](crate::epoch::IngestStats) and [`SealStats`]); the
/// shard set keeps none of them.
#[derive(Debug)]
pub struct Recount {
    /// The final dense counters over the shared id space.
    pub counters: DenseCounterStore,
    /// The deepest column where anything counted.
    pub deepest_active: usize,
    /// The **moved set**: every id whose final counters may differ from
    /// the previous seal's, once each, in no particular order. On a first
    /// seal, the ids it counted; none on a seal that stored nothing new.
    pub moved: Vec<AsnId>,
    /// (shard, step) counting units served from their cached step,
    /// corrected or as it stood; the rest were recounted in full.
    pub replayed_steps: u64,
    /// (shard, step) counting units, replayed or not.
    pub total_steps: u64,
    /// The seal's kind (incremental or full), corrections, tuple visits,
    /// moved ids and count / merge nanoseconds.
    pub stats: SealStats,
}

/// The trajectory replay's overlay: the ids whose counters moved off the
/// previous seal's this seal, each with its own predicate bits. An id
/// outside it had every contribution replayed, so its bits at every step
/// are the trajectory's; a member's bits are re-evaluated only after it
/// joins or a merge moves its counters.
#[derive(Debug)]
struct Overlay {
    /// Members in the order they joined.
    ids: Vec<AsnId>,
    member: IdBitSet,
    /// Both predicate bits of every member, from its counters when it was
    /// last refreshed.
    bits: PhasePredicates,
    /// Ids whose counters a merge moved (or that joined) since the last
    /// refresh, members or not: setting a bit is cheaper than asking.
    touched: IdBitSet,
}

impl Overlay {
    fn new(n_ids: usize) -> Self {
        Overlay {
            ids: Vec::new(),
            member: IdBitSet::with_capacity(n_ids),
            bits: PhasePredicates::empty(n_ids),
            touched: IdBitSet::with_capacity(n_ids),
        }
    }

    /// `id` left the replayed trajectory, or moved again: it is (now) a
    /// member, and its bits are stale.
    #[inline]
    fn join(&mut self, id: AsnId) {
        if !self.member.get(id) {
            self.member.set(id);
            self.ids.push(id);
        }
        self.touched.set(id);
    }

    /// Re-evaluate the bits of the members that moved since the last
    /// refresh, a word of ids at a time.
    fn refresh(&mut self, counters: &DenseCounterStore, th: &Thresholds) {
        self.touched.drain_masked(&self.member, |id| {
            self.bits.refresh_both(id, counters.get(id), th)
        });
    }
}

/// How one shard answers one (column, phase) step of a recount.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StepPlan {
    /// Count every tuple the step reaches (and refill the cache).
    Recount,
    /// Merge the cached step as it stands; count only the dirty suffix.
    Replay,
    /// As `Replay`, after re-evaluating the cached step's sealed rows
    /// that hold a diverged id (`Shard::affected`).
    Correct,
}

/// One worker shard: a privately owned, incrementally compiled tuple
/// partition plus its per-seal scratch and the cached step deltas. The
/// compiled store holds the columns of every tuple routed here; which
/// tuples are new is the shard set's one table's to say.
#[derive(Debug)]
struct Shard {
    compiled: CompiledTuples,
    /// Reused per-phase dense delta (touched-id tracked, O(touched) to
    /// clear).
    delta: DeltaStore,
    /// `cache[x-1][phase]` — previous seal's step deltas.
    cache: Vec<[CachedStep; 2]>,
    /// The ids new to a cached step, gathered by [`CachedStep::absorb`].
    absorb_fresh: Vec<(AsnId, AsCounters)>,
    /// A corrected step's words (occurrence-index keys) with the mask of
    /// their sealed rows that hold a diverged id, how many rows that is,
    /// and what those rows contributed under the recorded trajectory —
    /// read only during a [`StepPlan::Correct`] step.
    affected: Vec<(u32, u64)>,
    affected_rows: usize,
    retracted: DeltaStore,
}

impl Shard {
    fn new() -> Self {
        Shard {
            compiled: CompiledTuples::new(),
            delta: DeltaStore::default(),
            cache: Vec::new(),
            absorb_fresh: Vec::new(),
            affected: Vec::new(),
            affected_rows: 0,
            retracted: DeltaStore::default(),
        }
    }

    fn len(&self) -> usize {
        self.compiled.len()
    }
}

/// One record of the run being pushed, as the hash pass leaves it for
/// the probe pass.
#[derive(Debug, Clone, Copy)]
struct Routed<'a> {
    t: TupleRef<'a>,
    tag: u32,
}

/// `v` emptied and retyped to borrow for another lifetime, on the same
/// allocation: collecting an empty `vec::IntoIter` through `map` into a
/// vector of a same-sized type reuses its buffer. This is how the hash
/// pass's scratch outlives the runs it borrows from.
fn recycle<'b>(mut v: Vec<Routed<'_>>) -> Vec<Routed<'b>> {
    v.clear();
    v.into_iter()
        .map(|_| unreachable!("the vector was cleared"))
        .collect()
}

/// FNV-1a's offset basis: the route of a path before its first hop.
const ROUTE_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// Stable tuple→shard routing: FNV-1a over the little-endian bytes of
/// the hops. Shard loads are archived and compared across restarts, so
/// this is not the seeded hash the dedup table uses.
#[inline]
fn route_hash(t: TupleRef<'_>) -> u64 {
    let mut h = ROUTE_BASIS;
    for hop in t.hops() {
        for b in hop.0.to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(0x100_0000_01b3);
        }
    }
    h
}

/// `N` shards plus the coordinator-side counting entry points.
#[derive(Debug)]
pub struct ShardSet {
    /// Every record stored, whichever shard it routed to: one dedup
    /// table for the set.
    seen: TupleTable,
    shards: Vec<Shard>,
    /// The hash pass's output, kept empty between runs so its buffer is
    /// reused (see [`recycle`]).
    routed: Vec<Routed<'static>>,
    /// The one id space of every shard's compiled store.
    interner: AsnInterner,
    unique: usize,
    duplicates: u64,
    /// Columns covered by the step caches of the previous seal.
    prev_deepest: usize,
    sealed_once: bool,
    /// `trajectory[x-1][phase]` — predicate words entering each step at
    /// the previous seal.
    trajectory: Vec<[StepTrajectory; 2]>,
    /// Per-phase stage histograms (`[tagging, forwarding]`), resolved
    /// once on the registry so the recount loop records with
    /// pure atomics: one observation per (shard, column, phase) count
    /// and one per (column, phase) merge.
    hist_count: [Arc<Histogram>; 2],
    hist_merge: [Arc<Histogram>; 2],
}

impl ShardSet {
    /// `n` empty shards (`n >= 1`) interning into one fresh id space.
    /// Repeated identical tuples are counted once, as the paper's
    /// `TupleSet` pipeline does. The count and merge histograms go on a
    /// private registry.
    pub fn new(n: usize) -> Self {
        ShardSet::with_registry(n, &ObsRegistry::new())
    }

    /// [`new`](ShardSet::new), with the count and merge histograms on
    /// `reg` (a daemon's one registry).
    pub fn with_registry(n: usize, reg: &ObsRegistry) -> Self {
        let n = n.max(1);
        let phases = ["tagging", "forwarding"];
        let hist_count = phases.map(|phase| {
            reg.histogram(
                "bgp_stream_count_duration_seconds",
                "Wall time of one shard's count of one (column, phase) step",
                &[("phase", phase)],
            )
        });
        let hist_merge = phases.map(|phase| {
            reg.histogram(
                "bgp_stream_merge_duration_seconds",
                "Wall time of the serial dense merge of one (column, phase) step",
                &[("phase", phase)],
            )
        });
        ShardSet {
            seen: TupleTable::new(),
            shards: (0..n).map(|_| Shard::new()).collect(),
            routed: Vec::new(),
            interner: AsnInterner::new(),
            unique: 0,
            duplicates: 0,
            prev_deepest: 0,
            sealed_once: false,
            trajectory: Vec::new(),
            hist_count,
            hist_merge,
        }
    }

    /// The interner all shards intern through: ids `0..len()` are the
    /// id space of the counters a [`recount`](ShardSet::recount) returns.
    pub fn interner(&self) -> &AsnInterner {
        &self.interner
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard a tuple routes to.
    pub fn route(&self, t: TupleRef<'_>) -> usize {
        // A power-of-two count, the usual one, takes the same remainder
        // as a mask, without a division.
        let (route, n) = (route_hash(t), self.shards.len() as u64);
        let shard = if n.is_power_of_two() {
            route & (n - 1)
        } else {
            route % n
        };
        shard as usize
    }

    /// Offer a run of records, in arrival order: the hash pass over all
    /// of them, then the probe pass (see the [module docs](self)).
    /// Returns how many were stored; the rest were dedup hits.
    pub fn push_records<'a>(&mut self, records: impl IntoIterator<Item = TupleRef<'a>>) -> usize {
        let mut routed = recycle(std::mem::take(&mut self.routed));
        routed.extend(records.into_iter().map(|t| Routed {
            t,
            tag: self.seen.tag(t),
        }));
        let mut stored = 0;
        for &Routed { t, tag } in &routed {
            if self.seen.insert_tagged(tag, t) {
                let shard = self.route(t);
                self.shards[shard]
                    .compiled
                    .push_ref_with(&mut self.interner, t);
                stored += 1;
            }
        }
        self.unique += stored;
        self.duplicates += (routed.len() - stored) as u64;
        self.routed = recycle(routed);
        stored
    }

    /// Tuples stored across all shards.
    pub fn stored_tuples(&self) -> usize {
        self.unique
    }

    /// Dedup hits observed.
    pub fn duplicates(&self) -> u64 {
        self.duplicates
    }

    /// Longest path currently stored.
    pub fn max_path_len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.compiled.max_path_len())
            .max()
            .unwrap_or(0)
    }

    /// Per-shard stored-tuple counts (load-balance introspection).
    pub fn shard_loads(&self) -> Vec<usize> {
        self.shards.iter().map(|s| s.len()).collect()
    }

    /// Distinct ASNs in the shared id space (exact — shards share one
    /// interner, an AS spanning shards counts once).
    pub fn interned_asns(&self) -> usize {
        self.interner.len()
    }

    /// Total path positions held in the shard id arenas.
    pub fn arena_hops(&self) -> usize {
        self.shards.iter().map(|s| s.compiled.arena_len()).sum()
    }

    /// Tuples stored since the previous seal.
    pub fn dirty_tuples(&self) -> usize {
        self.shards.iter().map(|s| s.compiled.dirty_tuples()).sum()
    }

    /// Whether a recount right now would reproduce the previous seal's
    /// counters exactly (at least one seal happened and nothing was
    /// stored since) — the pipeline's O(1) re-seal fast path.
    pub fn unchanged_since_seal(&self) -> bool {
        self.sealed_once && self.dirty_tuples() == 0
    }

    /// The cache invariant, checked the slow way (tests only; call after
    /// a seal): every (shard, step) cache is what [`CachedStep::refill`]
    /// would hold after counting the step over all of the shard's tuples
    /// under the trajectory recorded for it.
    #[cfg(test)]
    fn assert_caches_fresh(&mut self, ctx: &str) {
        let n_ids = self.interner.len();
        let mut preds = PhasePredicates::empty(0);
        let mut delta = DeltaStore::zeroed(n_ids);
        for (si, s) in self.shards.iter_mut().enumerate() {
            for x in 1..=self.prev_deepest {
                for (pi, phase) in [CountPhase::Tagging, CountPhase::Forwarding]
                    .into_iter()
                    .enumerate()
                {
                    let traj = &self.trajectory[x - 1][pi];
                    preds.load_words(&traj.forward, &traj.tagger, n_ids);
                    s.compiled.compute_clean(&preds, x, true, false);
                    s.compiled
                        .count_phase_dense(&preds, x, phase, true, false, &mut delta);
                    assert_eq!(
                        s.cache[x - 1][pi].entries,
                        delta.iter().collect::<Vec<_>>(),
                        "{ctx}: shard {si} cache of step {x}.{pi}"
                    );
                    delta.clear();
                }
            }
        }
    }

    /// Full recount over everything currently stored: the exact column
    /// loop of the batch engine (tagging phase, merge, forwarding phase,
    /// merge, next column) under Cond1 and Cond2, each step counted shard
    /// by shard with cached-step reuse where the incremental invariants
    /// hold. Returns the final dense counters over the shared id space,
    /// the deepest column where anything counted, and the ids that moved.
    pub fn recount(&mut self, th: &Thresholds) -> Recount {
        let n_ids = self.interner.len();
        let deepest = self.max_path_len();
        let mut counters = DenseCounterStore::zeroed(n_ids);
        let mut preds = PhasePredicates::empty(n_ids);
        for s in &mut self.shards {
            s.compiled.prepare(n_ids);
            s.delta.resize(n_ids);
            if s.cache.len() < deepest {
                s.cache.resize(deepest, Default::default());
            }
        }
        if self.trajectory.len() < deepest {
            self.trajectory.resize(deepest, Default::default());
        }
        // Replay requires caches + a trajectory from a previous seal, so
        // columns past its deepest (every column, on a first seal) are
        // counted in direct mode. In trajectory mode, predicates are
        // bulk-loaded from the recorded per-step words and patched at the
        // overlay — the ids whose counters actually moved this seal
        // (suffix contributions, corrections and fresh recounts) — so a
        // replayed step costs accumulate-only merges, a word-by-word
        // patch and a re-evaluation of the overlay ids a merge moved.
        let mut direct_mode = false;
        let mut overlay = Overlay::new(n_ids);
        // The overlay ids whose entering bits left the trajectory at the
        // current step, and the trajectory's own words for the shards
        // that correct a cached step against them.
        let mut diverged: Vec<AsnId> = Vec::new();
        let mut recorded = PhasePredicates::empty(0);
        let mut deepest_active = 0;
        let mut plan = vec![StepPlan::Recount; self.shards.len()];
        let mut clean_full = vec![false; self.shards.len()];
        let (mut replayed_steps, mut total_steps) = (0, 0);
        let mut stats = SealStats::default();
        for x in 1..=deepest {
            let mut col_active = false;
            for phase in [CountPhase::Tagging, CountPhase::Forwarding] {
                let pi = (phase == CountPhase::Forwarding) as usize;
                if !direct_mode && x > self.prev_deepest {
                    // Ran past the recorded trajectory (longer paths
                    // arrived, or a first seal has none): reconstruct
                    // full predicates from the actual counters and
                    // maintain them directly from here on.
                    preds.snapshot_from(&counters, th);
                    direct_mode = true;
                }
                if !direct_mode {
                    // Entering state = recorded trajectory, with the
                    // overlay's own bits word by word; the patch also
                    // yields the diverged ids the plans need. Ids outside
                    // the overlay had every contribution replayed, so
                    // their bits match the trajectory by construction.
                    overlay.refresh(&counters, th);
                    let traj = &self.trajectory[x - 1][pi];
                    diverged.clear();
                    preds.load_patched(
                        &traj.forward,
                        &traj.tagger,
                        n_ids,
                        &overlay.bits,
                        &overlay.member,
                        &mut diverged,
                    );
                    // Keep the ids whose moved bit this step reads: a
                    // forwarding step reads both bits downstream (Cond2);
                    // a tagging step reads only `is_forward` upstream of
                    // the counted position (Cond1), which column 1 does
                    // not have.
                    if phase == CountPhase::Tagging {
                        let was_forward = |id: AsnId| {
                            traj.forward
                                .get(id as usize / 64)
                                .is_some_and(|w| (w >> (id % 64)) & 1 != 0)
                        };
                        diverged.retain(|&id| x > 1 && was_forward(id) != preds.is_forward(id));
                    }
                    for (p, s) in plan.iter_mut().zip(&mut self.shards) {
                        *p = StepPlan::Replay;
                        if diverged.is_empty() {
                            continue;
                        }
                        // Only sealed rows that hold a diverged id can
                        // have contributed differently (ids interned since
                        // the last seal sit in dirty rows and move
                        // freely). Each such row is evaluated twice, so
                        // correcting pays while they are under half of
                        // what a recount would visit.
                        s.affected_rows =
                            s.compiled
                                .affected_clean_words(&diverged, x, phase, &mut s.affected);
                        if s.affected_rows == 0 {
                            continue;
                        }
                        if 2 * s.affected_rows < s.compiled.step_visits(x, phase, false) {
                            *p = StepPlan::Correct;
                            s.retracted.resize(n_ids);
                        } else {
                            *p = StepPlan::Recount;
                        }
                    }
                    if plan.contains(&StepPlan::Correct) {
                        // Read before this step's record overwrites it.
                        recorded.load_words(&traj.forward, &traj.tagger, n_ids);
                    }
                } else {
                    plan.fill(StepPlan::Recount);
                }
                // Record this step's entering predicates as the new
                // trajectory for the next seal.
                self.trajectory[x - 1][pi].record(&preds);
                // Counting, shard by shard: each fills its private delta
                // — only the dirty suffix when its cached step will be
                // replayed. The Cond1 `clean` words are computed at the
                // tagging phase (they serve both) and only over the dirty
                // suffix when that phase replays; a forwarding phase that
                // stops replaying recomputes them in full. A correction
                // evaluates its rows one at a time and reads no `clean`
                // word.
                for (s, (&p, clean_full)) in self
                    .shards
                    .iter_mut()
                    .zip(plan.iter().zip(clean_full.iter_mut()))
                {
                    let cached = p != StepPlan::Recount;
                    replayed_steps += cached as u64;
                    stats.visited_tuples += s.compiled.step_visits(x, phase, cached) as u64;
                    let t_count = Instant::now();
                    if phase == CountPhase::Tagging {
                        s.compiled.compute_clean(&preds, x, true, cached);
                        *clean_full = !cached;
                    } else if !cached && !*clean_full {
                        s.compiled.compute_clean(&preds, x, true, false);
                        *clean_full = true;
                    }
                    if p == StepPlan::Correct {
                        stats.corrected += 1;
                        stats.corrected_words += s.affected.len() as u64;
                        stats.corrected_rows += s.affected_rows as u64;
                        stats.visited_tuples += 2 * s.affected_rows as u64;
                        s.compiled.correct_words(
                            &recorded,
                            &preds,
                            x,
                            phase,
                            true,
                            true,
                            &s.affected,
                            &mut s.retracted,
                            &mut s.delta,
                        );
                    }
                    s.compiled
                        .count_phase_dense(&preds, x, phase, true, cached, &mut s.delta);
                    let nanos = t_count.elapsed().as_nanos() as u64;
                    self.hist_count[pi].record(nanos);
                    stats.shard_count_nanos += nanos;
                }
                total_steps += plan.len() as u64;
                // Serial merge in shard order. In trajectory mode the
                // merges are accumulate-only — the predicate evolution is
                // already known — and every id whose counters moved off
                // the replayed trajectory joins the overlay; an overlay
                // id a merge moves has its bits re-evaluated before the
                // next step.
                let t_merge = Instant::now();
                for (s, &p) in self.shards.iter_mut().zip(&plan) {
                    if p != StepPlan::Recount {
                        // The cached step, with what its affected rows
                        // contributed under the recorded trajectory
                        // swapped for what they contribute now, and the
                        // freshly counted dirty suffix folded in — it is
                        // clean-prefix material at the next seal.
                        let step = &mut s.cache[x - 1][pi];
                        let fresh = s.delta.drain().inspect(|&(id, _)| overlay.join(id));
                        step.absorb(fresh, &mut s.absorb_fresh);
                        if p == StepPlan::Correct {
                            for id in s.retracted.touched() {
                                overlay.join(id);
                            }
                            step.retract(&s.retracted);
                            s.retracted.clear();
                        }
                        if !step.entries.is_empty() {
                            col_active = true;
                        }
                        counters.merge_sparse_counts(&step.entries, |id| overlay.touched.set(id));
                    } else if direct_mode {
                        if !s.delta.is_empty() {
                            col_active = true;
                        }
                        counters.merge_update(&s.delta, &mut preds, th, phase);
                        // Past the previous seal's deepest column:
                        // nothing here was counted before.
                        for id in s.delta.touched() {
                            overlay.join(id);
                        }
                        s.cache[x - 1][pi].refill(&s.delta);
                        s.delta.clear();
                    } else {
                        // Trajectory mode, fresh recount of this shard's
                        // step: both the old cached contribution and the
                        // fresh one leave the replayed trajectory.
                        if !s.delta.is_empty() {
                            col_active = true;
                        }
                        for &(id, _) in &s.cache[x - 1][pi].entries {
                            overlay.join(id);
                        }
                        counters.merge_counts(&s.delta);
                        for id in s.delta.touched() {
                            overlay.join(id);
                        }
                        s.cache[x - 1][pi].refill(&s.delta);
                        s.delta.clear();
                    }
                }
                let merge_elapsed = t_merge.elapsed().as_nanos() as u64;
                self.hist_merge[pi].record(merge_elapsed);
                stats.merge_nanos += merge_elapsed;
            }
            if col_active {
                deepest_active = x;
            }
        }
        for s in &mut self.shards {
            s.compiled.commit_clean();
        }
        self.prev_deepest = deepest;
        self.sealed_once = true;
        stats.kind = if replayed_steps > 0 {
            SealKind::Incremental
        } else {
            SealKind::Full
        };
        stats.moved = overlay.ids.len() as u64;
        Recount {
            counters,
            deepest_active,
            moved: overlay.ids,
            replayed_steps,
            total_steps,
            stats,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A recount's `(replayed, total)` units, `(corrected, words, rows)`
    /// and tuple visits.
    fn counts(r: &Recount) -> ((usize, usize), (usize, usize, usize), usize) {
        let n = |v: u64| v as usize;
        let s = &r.stats;
        (
            (n(r.replayed_steps), n(r.total_steps)),
            (n(s.corrected), n(s.corrected_words), n(s.corrected_rows)),
            n(s.visited_tuples),
        )
    }
    use crate::testing::{followed_feed, tag_tuple as tup, FollowedFeed};
    use bgp_infer::classify::{Class, TaggingClass};
    use bgp_infer::engine::{InferenceConfig, InferenceEngine};

    fn corpus() -> Vec<PathCommTuple> {
        corpus_of(500)
    }

    fn corpus_of(tuples: u32) -> Vec<PathCommTuple> {
        let mut v = Vec::new();
        for i in 0..tuples {
            let peer = 10 + (i % 7);
            v.push(tup(
                &[peer, 100 + (i % 40), 10_000 + i],
                &[peer, 100 + (i % 40)],
            ));
        }
        v
    }

    /// Offer an owned tuple as a run of one; whether it was stored.
    fn push(set: &mut ShardSet, t: &PathCommTuple) -> bool {
        set.push_records(std::iter::once(TupleBuf::new().encode_tuple(t))) == 1
    }

    /// The counted ASes and their counters, sorted by ASN.
    fn counted(set: &ShardSet, counters: &DenseCounterStore) -> Vec<(Asn, AsCounters)> {
        let mut rows: Vec<(Asn, AsCounters)> = counters
            .counts()
            .iter()
            .enumerate()
            .filter(|(_, c)| !c.is_zero())
            .map(|(id, &c)| (set.interner().resolve(id as AsnId), c))
            .collect();
        rows.sort_by_key(|&(asn, _)| asn);
        rows
    }

    #[test]
    fn routing_is_stable_and_total() {
        let set = ShardSet::new(4);
        let mut buf = TupleBuf::new();
        for t in corpus() {
            let a = set.route(buf.encode_tuple(&t));
            let b = set.route(buf.encode_tuple(&t));
            assert_eq!(a, b);
            assert!(a < 4);
        }
    }

    #[test]
    fn a_run_is_deduplicated_in_order_on_a_reused_scratch() {
        // The whole corpus as one run, twice over, each tuple offered
        // twice in a row the first time.
        let mut words = Vec::new();
        for t in corpus() {
            t.encode_into(&mut words);
            t.encode_into(&mut words);
        }
        fn records(mut rest: &[u32]) -> impl Iterator<Item = TupleRef<'_>> {
            std::iter::from_fn(move || {
                (!rest.is_empty()).then(|| {
                    let (t, after) = TupleRef::read(rest);
                    rest = after;
                    t
                })
            })
        }
        let mut set = ShardSet::new(3);
        assert_eq!(set.push_records(records(&words)), 500);
        assert_eq!(set.duplicates(), 500);
        let (at, capacity) = (set.routed.as_ptr(), set.routed.capacity());
        assert!(set.routed.is_empty() && capacity >= 1_000);
        assert_eq!(set.push_records(records(&words)), 0);
        assert_eq!((set.stored_tuples(), set.duplicates()), (500, 1_500));
        assert_eq!((set.routed.as_ptr(), set.routed.capacity()), (at, capacity));
    }

    #[test]
    fn routing_is_pinned_across_versions() {
        // Shard loads are archived and compared across restarts, so a
        // record's shard is part of the format. The expectations were
        // computed before the route became a lane of the hash pass; the
        // communities are there to show they play no part.
        let paths: [&[u32]; 12] = [
            &[3356],
            &[64500, 3356, 174],
            &[174, 3356],
            &[6939, 13335],
            &[396_982, 15169],
            &[65536, 1],
            &[4_294_967_294, 64512],
            &[
                1299, 2914, 3257, 6762, 7018, 701, 3320, 5511, 6453, 1273, 12956, 209, 3491, 4637,
                9002, 20485,
            ],
            &[20940, 16625, 4_200_000_001],
            &[1, 2, 3, 4, 5],
            &[8075],
            &[212_345, 3356, 174, 13335],
        ];
        let expected: [(usize, [usize; 12]); 3] = [
            (2, [0, 1, 0, 0, 1, 1, 0, 0, 0, 0, 1, 0]),
            (4, [2, 1, 0, 0, 3, 1, 0, 2, 0, 0, 3, 2]),
            (7, [3, 4, 6, 6, 1, 2, 0, 6, 1, 1, 4, 2]),
        ];
        let comm = CommunitySet::from_iter([
            AnyCommunity::regular(3356, 9),
            AnyCommunity::large(70_000, 1, 2),
        ]);
        let mut buf = TupleBuf::new();
        for (n, want) in expected {
            let mut set = ShardSet::new(n);
            for (p, &shard) in paths.iter().zip(&want) {
                for comm in [CommunitySet::new(), comm.clone()] {
                    let t = PathCommTuple::new(path(p), comm);
                    assert_eq!(set.route(buf.encode_tuple(&t)), shard, "{p:?} at {n}");
                    // And a pushed record lands where it routes.
                    let loads = set.shard_loads();
                    push(&mut set, &t);
                    let grew: Vec<usize> = (0..n)
                        .filter(|&s| set.shard_loads()[s] > loads[s])
                        .collect();
                    assert_eq!(grew, [shard], "{p:?} at {n}");
                }
            }
        }
    }

    #[test]
    fn dedup_is_global_across_shards() {
        let mut set = ShardSet::new(4);
        for t in corpus() {
            push(&mut set, &t);
        }
        let unique = set.stored_tuples();
        for t in corpus() {
            assert!(!push(&mut set, &t), "duplicate accepted");
        }
        assert_eq!(set.stored_tuples(), unique);
        assert_eq!(set.duplicates(), unique as u64);
    }

    #[test]
    fn recount_matches_batch_engine_any_shard_count() {
        let tuples = corpus();
        let batch = InferenceEngine::new(InferenceConfig {
            threads: 1,
            ..Default::default()
        })
        .run(&tuples);
        for shards in [1usize, 2, 4, 7] {
            let mut set = ShardSet::new(shards);
            for t in &tuples {
                push(&mut set, t);
            }
            let Recount {
                counters,
                deepest_active: deepest,
                ..
            } = set.recount(&batch.thresholds);
            assert_eq!(deepest, batch.deepest_active_index, "{shards} shards");
            let mut want: Vec<(Asn, AsCounters)> = batch.counters.iter().collect();
            want.sort_by_key(|&(a, _)| a);
            assert_eq!(
                counted(&set, &counters),
                want,
                "{shards} shards diverged from batch"
            );
        }
    }

    #[test]
    fn three_seals_replay_correct_and_visit_as_planned() {
        // Everything a recount decides, over three seals: a first seal
        // (nothing cached), a fully replayed seal with a dirty suffix,
        // and a seal whose delta drops AS 99 below the tagger threshold.
        // From there on the shards whose sealed tuples hold 99 correct
        // their cached steps — one to three words each, which on the
        // 4,000-tuple corpus is far from a recount's worth at every shard
        // count; on the 500-tuple one some of them are better off
        // recounting — and the rest replay theirs as they stand. Every
        // path is three hops: three tagging steps and two forwarding
        // steps read a tuple, six steps run in all.
        let th = Thresholds::default();
        for (tuples, recounts_nothing) in [(500, false), (4_000, true)] {
            let mut base = corpus_of(tuples);
            let second = base.split_off(tuples as usize * 3 / 5);
            base.extend((0..3).map(|i| tup(&[99, 500 + i, 20_000 + i], &[99])));
            let flip: Vec<_> = (0..3)
                .map(|i| tup(&[99, 600 + i, 30_000 + i], &[]))
                .collect();
            for shards in [1usize, 2, 4, 7] {
                let mut set = ShardSet::new(shards);
                for (seal, batch) in [&base, &second, &flip].into_iter().enumerate() {
                    let ctx = format!("{tuples} tuples, {shards} shards, seal {seal}");
                    for t in batch {
                        push(&mut set, t);
                    }
                    let ((replayed, units), (corrected, words, rows), visits) =
                        counts(&set.recount(&th));
                    set.assert_caches_fresh(&ctx);
                    let fresh = 5 * batch.len();
                    assert_eq!(units, 6 * shards, "{ctx}");
                    match seal {
                        0 => {
                            assert_eq!((replayed, corrected), (0, 0), "{ctx}");
                            assert_eq!(visits, fresh, "{ctx}");
                        }
                        1 => {
                            assert_eq!((replayed, corrected), (units, 0), "{ctx}");
                            assert_eq!(visits, fresh, "{ctx}");
                        }
                        _ => {
                            assert!(
                                corrected <= words && words <= rows,
                                "{ctx}: {corrected} units, {words} words, {rows} rows"
                            );
                            assert!(corrected < replayed, "{ctx}: {corrected}/{replayed}");
                            let corrections = fresh + 2 * rows;
                            if recounts_nothing {
                                assert_eq!(replayed, units, "{ctx}");
                                assert!(corrected > 0, "{ctx}");
                                assert_eq!(visits, corrections, "{ctx}");
                            } else {
                                assert!(replayed < units || corrected > 0, "{ctx}");
                                assert!(visits >= corrections, "{ctx}: {visits}");
                            }
                        }
                    }
                }
            }
        }
    }

    /// What the seals of one generated world exercised, summed so the
    /// test can tell a generator that stopped reaching the paths it is
    /// for from one that passes because nothing happens.
    #[derive(Debug, Default)]
    struct Reached {
        seals: usize,
        corrected_units: usize,
        corrected_words: usize,
        /// Units recounted in a seal that added no longer path — the
        /// half-a-recount fallback, not the steps past `prev_deepest`.
        fallback_units: usize,
        outgrown: usize,
        became_tagger: usize,
        stopped_tagging: usize,
        deepest_active: usize,
    }

    /// One [`followed_feed`] sealed epoch by epoch at 1, 2, 4 and 7
    /// shards. After every seal each set must agree with the oracle — a
    /// fresh set fed every tuple so far and sealed once, built once an
    /// epoch since its counters do not depend on the shard count — on
    /// counters, deepest active index and classes, and hold caches a
    /// fresh refill would.
    fn check_generated_world(seed: u64, reached: &mut Reached) {
        let FollowedFeed { th, epochs: feed } = followed_feed(seed);
        let tagger_codes = |rows: &[(Asn, AsCounters)]| -> Vec<(Asn, Class)> {
            rows.iter()
                .map(|&(asn, c)| (asn, c.classify(&th)))
                .collect()
        };
        let mut sets: Vec<ShardSet> = [1, 2, 4, 7].map(ShardSet::new).into();
        let mut prev_classes: Vec<(Asn, Class)> = Vec::new();
        for (epoch, batch) in feed.iter().enumerate() {
            let mut fresh = ShardSet::new(1);
            for t in feed[..=epoch].iter().flatten() {
                push(&mut fresh, t);
            }
            let Recount {
                counters: want,
                deepest_active: want_deepest,
                ..
            } = fresh.recount(&th);
            let want_rows = counted(&fresh, &want);
            let classes = tagger_codes(&want_rows);
            for set in &mut sets {
                let ctx = format!("seed {seed}, {} shards, epoch {epoch}", set.shard_count());
                let longest_before = set.max_path_len();
                for t in batch {
                    push(set, t);
                }
                let recount = set.recount(&th);
                let ((replayed, units), (corrected, words, rows), _) = counts(&recount);
                let Recount {
                    counters: got,
                    deepest_active: got_deepest,
                    ..
                } = recount;
                assert_eq!(got_deepest, want_deepest, "{ctx}: deepest active index");
                let got_rows = counted(set, &got);
                assert_eq!(got_rows, want_rows, "{ctx}: counters");
                assert_eq!(tagger_codes(&got_rows), classes, "{ctx}: classes");
                set.assert_caches_fresh(&ctx);

                assert!(corrected <= replayed && replayed <= units, "{ctx}");
                assert!(
                    corrected <= words && words <= rows && rows <= 64 * words,
                    "{ctx}"
                );
                reached.seals += 1;
                reached.corrected_units += corrected;
                reached.corrected_words += words;
                if epoch > 0 && set.max_path_len() == longest_before {
                    reached.fallback_units += units - replayed;
                } else if epoch > 0 {
                    reached.outgrown += 1;
                }
            }
            reached.deepest_active = reached.deepest_active.max(want_deepest);
            for &(asn, class) in &classes {
                let was = prev_classes
                    .binary_search_by_key(&asn, |&(a, _)| a)
                    .map_or(TaggingClass::None, |i| prev_classes[i].1.tagging);
                let is = class.tagging;
                reached.became_tagger += (was != is && is == TaggingClass::Tagger) as usize;
                reached.stopped_tagging += (was != is && was == TaggingClass::Tagger) as usize;
            }
            prev_classes = classes;
        }
    }

    fn check_generated_worlds(seeds: std::ops::Range<u64>) {
        let mut reached = Reached::default();
        for seed in seeds {
            check_generated_world(seed, &mut reached);
        }
        // The measured pattern, not a quiet world: flips both ways,
        // corrections (several words at times), steps better off
        // recounted, paths outgrowing the caches, counting past the peers.
        assert!(
            reached.corrected_units > 0
                && reached.corrected_words > reached.corrected_units
                && reached.fallback_units > 0
                && reached.outgrown > 0
                && reached.became_tagger > 0
                && reached.stopped_tagging > 0
                && reached.deepest_active >= 3,
            "{reached:?}"
        );
    }

    #[test]
    fn corrected_caches_match_fresh_ones_on_generated_worlds() {
        check_generated_worlds(0..64);
    }

    #[test]
    #[ignore = "long: run with --release -- --ignored"]
    fn corrected_caches_match_fresh_ones_at_length() {
        check_generated_worlds(64..2_064);
    }

    #[test]
    fn incremental_reseal_matches_full_recount() {
        // Seal, add tuples, seal again (replayed steps + dirty suffixes),
        // and compare against the oracle: a fresh shard set over the
        // union, sealed once.
        let tuples = corpus();
        let th = Thresholds::default();
        let (first, rest) = tuples.split_at(300);

        let mut warm = ShardSet::new(3);
        for t in first {
            push(&mut warm, t);
        }
        warm.recount(&th);
        for t in rest {
            push(&mut warm, t);
        }
        let Recount {
            counters: inc,
            deepest_active: inc_deepest,
            ..
        } = warm.recount(&th);

        let mut cold = ShardSet::new(3);
        for t in &tuples {
            push(&mut cold, t);
        }
        let Recount {
            counters: full,
            deepest_active: full_deepest,
            ..
        } = cold.recount(&th);

        assert_eq!(inc_deepest, full_deepest);
        assert_eq!(
            counted(&warm, &inc),
            counted(&cold, &full),
            "incremental reseal diverged"
        );
    }

    #[test]
    fn unchanged_reseal_is_detected_and_stable() {
        let mut set = ShardSet::new(2);
        for t in corpus() {
            push(&mut set, &t);
        }
        assert!(!set.unchanged_since_seal(), "never sealed yet");
        let th = Thresholds::default();
        let Recount {
            counters: a,
            deepest_active: da,
            ..
        } = set.recount(&th);
        assert!(set.unchanged_since_seal());
        // A recount with zero dirty tuples replays every step.
        let Recount {
            counters: b,
            deepest_active: db,
            ..
        } = set.recount(&th);
        assert_eq!(da, db);
        assert_eq!(a.counts(), b.counts());
        // A dedup hit adds no tuple, so the set stays unchanged.
        push(&mut set, &corpus()[0]);
        assert!(set.unchanged_since_seal());
    }

    #[test]
    fn load_spreads_across_shards() {
        let mut set = ShardSet::new(4);
        for t in corpus() {
            push(&mut set, &t);
        }
        let loads = set.shard_loads();
        assert_eq!(loads.len(), 4);
        assert!(
            loads.iter().all(|&l| l > 0),
            "a shard got nothing: {loads:?}"
        );
        // One shared id space: far fewer interned ids than arena hops.
        assert!(set.interned_asns() <= set.arena_hops());
    }
}
