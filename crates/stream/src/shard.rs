//! Shard layer: partitioned tuple ownership, dense phase counting over
//! one shared id space, and incremental epoch recounts.
//!
//! Incoming tuples arrive as borrowed records ([`TupleRef`]) and are
//! routed onto `N` shards by an FNV-1a hash of their on-path ASNs, so an
//! identical tuple always lands on the same shard — which makes per-shard
//! deduplication equivalent to global deduplication. With dedup on, a
//! shard recognises a tuple it has seen in its [`TupleTable`] (a hash, a
//! probe and a compare against the table's record arena; nothing is
//! allocated or freed for a duplicate) and stores a new one exactly once:
//! its record in that arena, its columns in the compiled store. With dedup
//! off there is no table. Each shard owns its partition as a
//! [`CompiledTuples`] store (the length-bucketed columnar representation
//! of `bgp_infer::compiled`, appended incrementally as events arrive —
//! from the record's hops and community upper fields, all the engine
//! reads of a tuple), and **every shard interns
//! through one workspace-level [`SharedInterner`]**: all shards speak the
//! same dense `u32` id space, so a counting phase hands the coordinator a
//! [`DeltaStore`] (flat counters + touched-id bitmap) that folds into
//! the epoch's [`DenseCounterStore`] by slice addition — the old
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
//!   index — per id, the 64-tuple words whose tuples contain it
//!   ([`CompiledTuples::affected_clean_words`]) — so the shard gathers
//!   the sealed words that hold a diverged id, runs the ordinary word
//!   kernel over just those words twice
//!   ([`CompiledTuples::count_clean_words`], rows newer than the last
//!   seal masked off): once under the *recorded* trajectory, which gives
//!   `old`, what those words put into the cache, and once under the
//!   entering predicates, which gives `new`, what they contribute now.
//!   `cache + new − old`, entries that reach zero dropped, is then merged
//!   as a replayed step, and every id either pass touched joins the
//!   overlay.
//!
//! A followed feed is where this matters: an AS with one or two counted
//! occurrences crosses a threshold on its first count, its bit then
//! differs from the trajectory at every later step of that seal, and the
//! correction re-reads one or two words a step where a recount read the
//! shard's every tuple — and put the whole cached step into the overlay.
//!
//! **The fallback** is the full recount of the step, and it is kept for
//! exactly three cases: the first seal (nothing cached), steps past the
//! previous seal's deepest column (no cache and no trajectory for them),
//! and a step whose affected words reach half of what recounting it
//! would visit — a corrected word is evaluated twice, so that is the
//! break-even, read off two counts the plan already has (the gathered
//! words and [`CompiledTuples::step_visits`]); it is not a tunable. A
//! collector peer's flip lands there: it sits in nearly every word.
//!
//! Replayed steps are byte-identical to recounting by the purity argument
//! above — the cached delta was computed under bit-identical predicate
//! inputs over an identical tuple prefix. Corrected steps are by the same
//! argument applied word by word: a step's delta is a sum over tuples of
//! integer increments, each a function of the predicate bits of the ids
//! on that tuple alone. A sealed tuple outside the gathered words holds
//! no diverged id, so its increments are the same under both predicate
//! states and stay in the cache; for the tuples inside them, `old` is
//! precisely what the cache holds on their behalf and `new` what a
//! recount would add, and since counters are integer sums the order of
//! the additions and the subtraction is immaterial. The corrected cache
//! is therefore entry for entry what refilling it after a full
//! recount would hold — which is what the generated-world test in this
//! module checks after every seal, beside the counters. So the merged
//! result is identical for every shard count and cache state, and
//! identical to the batch engine's reference path, pinned by
//! `tests/stream_parity.rs` across epochs, shard counts, and incremental
//! on/off; `incremental: false` stays the oracle.
//!
//! What it costs to keep: the occurrence index is one 8-byte node per
//! distinct (id, word) — 164 k nodes, 1.3 MB, for a shard of 61 k tuples
//! (291 k hops) on the ledger's trickle feed, about what its id columns
//! take — appended at seal time by the walk over new hops that
//! [`CompiledTuples::prepare`] already made; a push does not touch it.
//! On a *small* store the bookkeeping still loses to recounting: with
//! most ASes a handful of occurrences old, every 256-tuple delta flips
//! many of them and an incremental seal of a 10 k-tuple store costs 2.7×
//! a full one (1.4× *faster* at 50 k, 3× at 100 k; CHANGES PR 24).
//!
//! ## Who counts
//!
//! A seal counts its shards in turn, on the sealing thread, each with
//! the batch engine's own entry point
//! ([`CompiledTuples::count_phase_dense`]). A step visits at most the
//! store's tuples, and a trickle seal a few thousand of them, so no
//! workload has a step large enough to pay for a thread spawn.

use bgp_infer::compiled::{
    CompiledTuples, DeltaStore, DenseCounterStore, IdBitSet, PhasePredicates,
};
use bgp_infer::counters::{AsCounters, Thresholds};
use bgp_infer::engine::CountPhase;
use bgp_types::prelude::*;
use obs::Histogram;
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
    /// part of the clean prefix at the next seal): a sorted merge into
    /// `scratch`, which then trades places with the entries — the
    /// shard-owned buffer keeps a replayed step allocation-free.
    fn absorb(&mut self, delta: &DeltaStore, scratch: &mut Vec<(AsnId, AsCounters)>) {
        if delta.is_empty() {
            return;
        }
        scratch.clear();
        let mut old = self.entries.iter().copied().peekable();
        for (id, mut c) in delta.iter() {
            while let Some(e) = old.next_if(|&(oid, _)| oid < id) {
                scratch.push(e);
            }
            if let Some((_, prev)) = old.next_if(|&(oid, _)| oid == id) {
                c.accumulate(&prev);
            }
            scratch.push((id, c));
        }
        scratch.extend(old);
        std::mem::swap(&mut self.entries, scratch);
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

/// Tuple visits a corrected word costs: 64 rows, evaluated under the
/// recorded trajectory and again under the entering predicates.
const VISITS_PER_CORRECTED_WORD: usize = 2 * 64;

/// How one shard answers one (column, phase) step of a recount.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StepPlan {
    /// Count every tuple the step reaches (and refill the cache).
    Recount,
    /// Merge the cached step as it stands; count only the dirty suffix.
    Replay,
    /// As `Replay`, after re-evaluating the cached step's words that
    /// hold a diverged id (`Shard::affected`).
    Correct,
}

/// One worker shard: a privately owned, incrementally compiled tuple
/// partition plus its per-seal scratch and the cached step deltas. With
/// dedup on, `seen` provides exact membership and is never iterated
/// (counting order is irrelevant — phases are order-free); the compiled
/// store holds the columns of every stored tuple either way.
#[derive(Debug)]
struct Shard {
    /// The records stored so far; `None` when the set does not dedup.
    seen: Option<TupleTable>,
    compiled: CompiledTuples,
    /// Reused per-phase dense delta (touched-id tracked, O(touched) to
    /// clear).
    delta: DeltaStore,
    /// `cache[x-1][phase]` — previous seal's step deltas.
    cache: Vec<[CachedStep; 2]>,
    /// Reused merge buffer of [`CachedStep::absorb`].
    absorb_scratch: Vec<(AsnId, AsCounters)>,
    /// A corrected step's words (occurrence-index keys) holding a
    /// diverged id, and what they contributed under the recorded
    /// trajectory — read only during a [`StepPlan::Correct`] step.
    affected: Vec<u32>,
    retracted: DeltaStore,
}

impl Shard {
    fn new(interner: Arc<SharedInterner>, dedup: bool) -> Self {
        Shard {
            seen: dedup.then(TupleTable::new),
            compiled: CompiledTuples::with_shared(interner),
            delta: DeltaStore::default(),
            cache: Vec::new(),
            absorb_scratch: Vec::new(),
            affected: Vec::new(),
            retracted: DeltaStore::default(),
        }
    }

    fn push(&mut self, t: TupleRef<'_>) -> bool {
        let fresh = self.seen.as_mut().is_none_or(|seen| seen.insert(t));
        if fresh {
            self.compiled.push_ref(t);
        }
        fresh
    }

    fn len(&self) -> usize {
        self.compiled.len()
    }
}

/// Stable tuple→shard routing: FNV-1a over the on-path ASNs. Shard loads
/// are archived and compared across restarts, so this is not the seeded
/// hash the dedup table uses.
fn route_hash(hops: impl Iterator<Item = Asn>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for asn in hops {
        for b in asn.0.to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(0x100_0000_01b3);
        }
    }
    h
}

/// `N` shards plus the coordinator-side counting entry points.
#[derive(Debug)]
pub struct ShardSet {
    shards: Vec<Shard>,
    interner: Arc<SharedInterner>,
    incremental: bool,
    unique: usize,
    duplicates: u64,
    /// Columns covered by the step caches of the previous seal.
    prev_deepest: usize,
    sealed_once: bool,
    /// `trajectory[x-1][phase]` — predicate words entering each step at
    /// the previous seal.
    trajectory: Vec<[StepTrajectory; 2]>,
    /// `(replayed, total)` (shard, step) counting units of the last
    /// recount — incremental-seal observability.
    last_replay: (usize, usize),
    /// `(units, words)` of the last recount: replayed units whose cached
    /// step was corrected first, and the words re-evaluated for them.
    last_corrected: (usize, usize),
    /// Tuple visits of the last recount, summed over its steps.
    last_visits: usize,
    /// Per-phase stage histograms (`[tagging, forwarding]`), resolved
    /// once from the global registry so the recount loop records with
    /// pure atomics: one observation per (shard, column, phase) count
    /// and one per (column, phase) merge.
    hist_count: [Arc<Histogram>; 2],
    hist_merge: [Arc<Histogram>; 2],
    /// Counting / merge nanoseconds accumulated by the last recount,
    /// summed across shards and steps — the provenance-trace inputs
    /// mirroring the per-step histograms.
    count_nanos: u64,
    merge_nanos: u64,
}

impl ShardSet {
    /// `n` empty shards (`n >= 1`) sharing one fresh interner. With
    /// `dedup`, repeated identical tuples are counted once, as the
    /// paper's `TupleSet` pipeline does. With `incremental`, epoch
    /// recounts reuse the previous seal's step deltas where valid.
    pub fn new(n: usize, dedup: bool, incremental: bool) -> Self {
        let n = n.max(1);
        let interner = Arc::new(SharedInterner::new());
        let reg = obs::global();
        let phase_hist = |family: &str, help: &str| {
            [
                reg.histogram(family, help, &[("phase", "tagging")]),
                reg.histogram(family, help, &[("phase", "forwarding")]),
            ]
        };
        let hist_count = phase_hist(
            "bgp_stream_count_duration_seconds",
            "Wall time of one shard's count of one (column, phase) step",
        );
        let hist_merge = phase_hist(
            "bgp_stream_merge_duration_seconds",
            "Wall time of the serial dense merge of one (column, phase) step",
        );
        ShardSet {
            shards: (0..n)
                .map(|_| Shard::new(Arc::clone(&interner), dedup))
                .collect(),
            interner,
            incremental,
            unique: 0,
            duplicates: 0,
            prev_deepest: 0,
            sealed_once: false,
            trajectory: Vec::new(),
            last_replay: (0, 0),
            last_corrected: (0, 0),
            last_visits: 0,
            hist_count,
            hist_merge,
            count_nanos: 0,
            merge_nanos: 0,
        }
    }

    /// `(replayed, total)` (shard, step) units of the last recount — how
    /// much of the seal was served from cached step deltas, corrected or
    /// as they stood; the rest were recounted in full.
    pub fn last_replay(&self) -> (usize, usize) {
        self.last_replay
    }

    /// `(units, words)` of the last recount: the replayed units whose
    /// cached step was corrected for diverged predicates before it was
    /// merged, and the 64-tuple words re-evaluated (twice each) to do it.
    pub(crate) fn last_corrected(&self) -> (usize, usize) {
        self.last_corrected
    }

    /// Tuples the last recount visited, summed over its steps: whole
    /// buckets where a shard recounted, dirty suffixes where it replayed,
    /// plus two visits per tuple of every corrected word.
    pub(crate) fn last_visits(&self) -> usize {
        self.last_visits
    }

    /// Reset the per-recount stats: at the start of every recount, and
    /// by the pipeline's O(1) re-seal fast path, which skips the recount
    /// entirely (no counting units ran).
    pub(crate) fn clear_replay_stats(&mut self) {
        self.last_replay = (0, 0);
        self.last_corrected = (0, 0);
        self.last_visits = 0;
        self.count_nanos = 0;
        self.merge_nanos = 0;
    }

    /// Shard-counting nanoseconds of the last recount, summed across
    /// shards and (column, phase) steps.
    pub fn last_count_nanos(&self) -> u64 {
        self.count_nanos
    }

    /// Dense-merge nanoseconds of the last recount, summed across
    /// (column, phase) steps.
    pub fn last_merge_nanos(&self) -> u64 {
        self.merge_nanos
    }

    /// The workspace-shared interner all shards intern through.
    pub fn interner(&self) -> &Arc<SharedInterner> {
        &self.interner
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard a tuple routes to.
    pub fn route(&self, t: TupleRef<'_>) -> usize {
        (route_hash(t.hops()) % self.shards.len() as u64) as usize
    }

    /// Offer a tuple; returns `true` when stored (not a dedup hit).
    pub fn push(&mut self, t: TupleRef<'_>) -> bool {
        let idx = self.route(t);
        let stored = self.shards[idx].push(t);
        if stored {
            self.unique += 1;
        } else {
            self.duplicates += 1;
        }
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
    fn assert_caches_fresh(&mut self, enforce_cond1: bool, enforce_cond2: bool, ctx: &str) {
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
                    s.compiled.compute_clean(&preds, x, enforce_cond1, false);
                    s.compiled.count_phase_dense(
                        &preds,
                        x,
                        phase,
                        enforce_cond2,
                        false,
                        &mut delta,
                    );
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
    /// merge, next column), each step counted shard by shard with
    /// cached-step reuse where the incremental invariants hold. Returns
    /// the final dense counters over the shared id space and the deepest
    /// column where anything counted.
    pub fn recount(
        &mut self,
        th: &Thresholds,
        max_index: Option<usize>,
        enforce_cond1: bool,
        enforce_cond2: bool,
    ) -> (DenseCounterStore, usize) {
        let n_ids = self.interner.len();
        let max_len = self.max_path_len();
        let deepest = max_index.unwrap_or(max_len).min(max_len);
        let mut counters = DenseCounterStore::zeroed(n_ids);
        let mut preds = PhasePredicates::empty(n_ids);
        for s in &mut self.shards {
            s.compiled.prepare();
            s.delta.resize(n_ids);
            if self.incremental && s.cache.len() < deepest {
                s.cache.resize(deepest, Default::default());
            }
        }
        if self.incremental && self.trajectory.len() < deepest {
            self.trajectory.resize(deepest, Default::default());
        }
        // Replay requires caches + a trajectory from a previous seal;
        // storing starts on the first seal so the second can replay. In
        // trajectory mode, predicates are bulk-loaded from the recorded
        // per-step words and corrected only at the *overlay* — the ids
        // whose counters actually moved this seal (suffix contributions,
        // corrections and fresh recounts) — so a replayed step costs
        // accumulate-only merges plus O(overlay) float work instead of
        // O(touched ids).
        let mut direct_mode = !(self.incremental && self.sealed_once);
        let mut overlay: Vec<AsnId> = Vec::new();
        let mut overlay_set = IdBitSet::with_capacity(n_ids);
        let grow_overlay = |overlay: &mut Vec<AsnId>, overlay_set: &mut IdBitSet, id: AsnId| {
            if !overlay_set.get(id) {
                overlay_set.ensure(id as usize + 1);
                overlay_set.set(id);
                overlay.push(id);
            }
        };
        // The overlay ids whose entering bits left the trajectory at the
        // current step, and the trajectory's own words for the shards
        // that correct a cached step against them.
        let mut diverged: Vec<AsnId> = Vec::new();
        let mut recorded = PhasePredicates::empty(0);
        let mut deepest_active = 0;
        let mut plan = vec![StepPlan::Recount; self.shards.len()];
        let mut clean_full = vec![false; self.shards.len()];
        self.clear_replay_stats();
        for x in 1..=deepest {
            let mut col_active = false;
            for phase in [CountPhase::Tagging, CountPhase::Forwarding] {
                let pi = (phase == CountPhase::Forwarding) as usize;
                if !direct_mode && x > self.prev_deepest {
                    // Ran past the recorded trajectory (longer paths
                    // arrived): reconstruct full predicates from the
                    // actual counters and maintain them directly from
                    // here on.
                    preds.snapshot_from(&counters, th);
                    direct_mode = true;
                }
                if !direct_mode {
                    // Entering state = recorded trajectory, patched at
                    // the overlay; the patch also yields the diverged
                    // ids the plans need. Ids outside the overlay had
                    // every contribution replayed, so their bits match
                    // the trajectory by construction.
                    let traj = &self.trajectory[x - 1][pi];
                    preds.load_words(&traj.forward, &traj.tagger, n_ids);
                    diverged.clear();
                    for &id in &overlay {
                        if preds.refresh_both(id, counters.get(id), th) {
                            diverged.push(id);
                        }
                    }
                    for (p, s) in plan.iter_mut().zip(&mut self.shards) {
                        *p = StepPlan::Replay;
                        if diverged.is_empty() {
                            continue;
                        }
                        // Only sealed tuples in a word that holds a
                        // diverged id can have contributed differently
                        // (ids interned since the last seal sit in dirty
                        // rows and move freely). Each such word is
                        // evaluated twice, so correcting pays while they
                        // are under half of what a recount would visit.
                        s.compiled
                            .affected_clean_words(&diverged, x, phase, &mut s.affected);
                        if s.affected.is_empty() {
                            continue;
                        }
                        let correction = VISITS_PER_CORRECTED_WORD * s.affected.len();
                        if correction < s.compiled.step_visits(x, phase, false) {
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
                if self.incremental {
                    self.trajectory[x - 1][pi].record(&preds);
                }
                // Counting, shard by shard: each fills its private delta
                // — only the dirty suffix when its cached step will be
                // replayed. The Cond1 `clean` words are computed at the
                // tagging phase (they serve both) and only over the dirty
                // suffix when that phase replays; a forwarding phase that
                // stops replaying recomputes them in full. A correction
                // evaluates its words under the recorded trajectory first
                // and the entering predicates second, which leaves their
                // `clean` words as the suffix needs.
                for (s, (&p, clean_full)) in self
                    .shards
                    .iter_mut()
                    .zip(plan.iter().zip(clean_full.iter_mut()))
                {
                    let cached = p != StepPlan::Recount;
                    self.last_replay.0 += cached as usize;
                    self.last_visits += s.compiled.step_visits(x, phase, cached);
                    let t_count = Instant::now();
                    if phase == CountPhase::Tagging {
                        s.compiled.compute_clean(&preds, x, enforce_cond1, cached);
                        *clean_full = !cached;
                    } else if !cached && !*clean_full {
                        s.compiled.compute_clean(&preds, x, enforce_cond1, false);
                        *clean_full = true;
                    }
                    if p == StepPlan::Correct {
                        self.last_corrected.0 += 1;
                        self.last_corrected.1 += s.affected.len();
                        self.last_visits += VISITS_PER_CORRECTED_WORD * s.affected.len();
                        for (under, delta) in
                            [(&recorded, &mut s.retracted), (&preds, &mut s.delta)]
                        {
                            s.compiled.count_clean_words(
                                under,
                                x,
                                phase,
                                enforce_cond1,
                                enforce_cond2,
                                &s.affected,
                                delta,
                            );
                        }
                    }
                    s.compiled.count_phase_dense(
                        &preds,
                        x,
                        phase,
                        enforce_cond2,
                        cached,
                        &mut s.delta,
                    );
                    let nanos = t_count.elapsed().as_nanos() as u64;
                    self.hist_count[pi].record(nanos);
                    self.count_nanos += nanos;
                }
                self.last_replay.1 += plan.len();
                // Serial merge in shard order. In trajectory mode the
                // merges are accumulate-only — the predicate evolution is
                // already known — and every id whose counters moved off
                // the replayed trajectory joins the overlay.
                let t_merge = Instant::now();
                for (s, &p) in self.shards.iter_mut().zip(&plan) {
                    if p != StepPlan::Recount {
                        // The cached step, with what its affected words
                        // contributed under the recorded trajectory
                        // swapped for what they contribute now, and the
                        // freshly counted dirty suffix folded in — it is
                        // clean-prefix material at the next seal.
                        let step = &mut s.cache[x - 1][pi];
                        for id in s.delta.touched().chain(s.retracted.touched()) {
                            grow_overlay(&mut overlay, &mut overlay_set, id);
                        }
                        step.absorb(&s.delta, &mut s.absorb_scratch);
                        if p == StepPlan::Correct {
                            step.retract(&s.retracted);
                            s.retracted.clear();
                        }
                        if !step.entries.is_empty() {
                            col_active = true;
                        }
                        counters.merge_sparse_counts(&step.entries);
                    } else if direct_mode {
                        if !s.delta.is_empty() {
                            col_active = true;
                        }
                        counters.merge_update(&s.delta, &mut preds, th, phase);
                        if self.incremental {
                            s.cache[x - 1][pi].refill(&s.delta);
                        }
                    } else {
                        // Trajectory mode, fresh recount of this shard's
                        // step: both the old cached contribution and the
                        // fresh one leave the replayed trajectory.
                        if !s.delta.is_empty() {
                            col_active = true;
                        }
                        for &(id, _) in &s.cache[x - 1][pi].entries {
                            grow_overlay(&mut overlay, &mut overlay_set, id);
                        }
                        counters.merge_counts(&s.delta);
                        for id in s.delta.touched() {
                            grow_overlay(&mut overlay, &mut overlay_set, id);
                        }
                        s.cache[x - 1][pi].refill(&s.delta);
                    }
                    s.delta.clear();
                }
                let merge_elapsed = t_merge.elapsed().as_nanos() as u64;
                self.hist_merge[pi].record(merge_elapsed);
                self.merge_nanos += merge_elapsed;
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
        (counters, deepest_active)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgp_infer::classify::{Class, TaggingClass};
    use bgp_infer::counters::CounterStore;
    use bgp_infer::engine::{InferenceConfig, InferenceEngine};

    fn tup(p: &[u32], uppers: &[u32]) -> PathCommTuple {
        PathCommTuple::new(
            path(p),
            CommunitySet::from_iter(uppers.iter().map(|&u| AnyCommunity::tag_for(Asn(u), 100))),
        )
    }

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

    /// Offer an owned tuple the way the pipeline's owned wrapper does.
    fn push(set: &mut ShardSet, t: &PathCommTuple) -> bool {
        set.push(TupleBuf::new().encode_tuple(t))
    }

    fn sparse(set: &ShardSet, counters: &DenseCounterStore) -> CounterStore {
        let mut store = CounterStore::new();
        for (id, c) in counters.counts().iter().enumerate() {
            if !c.is_zero() {
                *store.entry(set.interner().resolve(id as AsnId)) = *c;
            }
        }
        store
    }

    #[test]
    fn routing_is_stable_and_total() {
        let set = ShardSet::new(4, true, true);
        let mut buf = TupleBuf::new();
        for t in corpus() {
            let a = set.route(buf.encode_tuple(&t));
            let b = set.route(buf.encode_tuple(&t));
            assert_eq!(a, b);
            assert!(a < 4);
        }
    }

    #[test]
    fn dedup_is_global_across_shards() {
        let mut set = ShardSet::new(4, true, true);
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
            for incremental in [false, true] {
                let mut set = ShardSet::new(shards, false, incremental);
                for t in &tuples {
                    push(&mut set, t);
                }
                let (counters, deepest) = set.recount(&batch.thresholds, None, true, true);
                assert_eq!(deepest, batch.deepest_active_index, "{shards} shards");
                let mut got: Vec<(Asn, AsCounters)> = sparse(&set, &counters).iter().collect();
                let mut want: Vec<(Asn, AsCounters)> = batch.counters.iter().collect();
                got.sort_by_key(|&(a, _)| a);
                want.sort_by_key(|&(a, _)| a);
                assert_eq!(got, want, "{shards} shards diverged from batch");
            }
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
                let mut set = ShardSet::new(shards, false, true);
                for (seal, batch) in [&base, &second, &flip].into_iter().enumerate() {
                    let ctx = format!("{tuples} tuples, {shards} shards, seal {seal}");
                    for t in batch {
                        push(&mut set, t);
                    }
                    set.recount(&th, None, true, true);
                    set.assert_caches_fresh(true, true, &ctx);
                    let (replayed, units) = set.last_replay();
                    let (corrected, words) = set.last_corrected();
                    let visits = set.last_visits();
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
                                corrected <= words,
                                "{ctx}: {corrected} units, {words} words"
                            );
                            assert!(corrected < replayed, "{ctx}: {corrected}/{replayed}");
                            let corrections = fresh + VISITS_PER_CORRECTED_WORD * words;
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

    /// SplitMix64 — the worlds below are a pure function of their seed.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u32) -> u32 {
            (self.next() % u64::from(n)) as u32
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

    /// One world shaped like a followed feed — a handful of core ASes at
    /// every position (collector peers included, which is what lets the
    /// column loop get past column 1), a long tail of ASes seen one to
    /// three times, per-AS tagging habits that are constant, mixed, or
    /// change partway, a cleaner on some paths, paths that get longer
    /// epoch by epoch, thresholds that small shares land on exactly —
    /// sealed epoch by epoch at 1, 2, 4 and 7 shards. After every seal
    /// the incremental set must agree with an `incremental: false` set
    /// over the same tuples on counters, deepest active index and
    /// classes, and hold caches a fresh refill would.
    fn check_generated_world(seed: u64, reached: &mut Reached) {
        let mut rng = Rng(seed);
        let th = Thresholds::uniform([0.99, 0.5, 0.75, 2.0 / 3.0][rng.below(4) as usize]);
        let (cond1, cond2) = match rng.below(8) {
            0 => (false, true),
            1 => (true, false),
            _ => (true, true),
        };
        let epochs = 3 + rng.below(6);
        let core = 4 + rng.below(8);
        let mut feed: Vec<Vec<PathCommTuple>> = Vec::new();
        let mut tail_next = 1_000;
        let mut tail: Vec<u32> = Vec::new();
        let mut longest = 3 + rng.below(2);
        for epoch in 0..epochs {
            // A store first, then a trickle onto it; now and then a
            // longer path than any before.
            let tuples = if epoch == 0 {
                300 + rng.below(1_500)
            } else {
                longest = (longest + (rng.below(3) == 0) as u32).min(7);
                5 + rng.below(120)
            };
            let mut batch = Vec::new();
            for _ in 0..tuples {
                let len = 1 + rng.below(longest) as usize;
                let mut hops: Vec<u32> = Vec::with_capacity(len);
                while hops.len() < len {
                    let asn = if hops.is_empty() || rng.below(2) == 0 {
                        10 + rng.below(core)
                    } else if tail.is_empty() || rng.below(3) == 0 {
                        // A new tail AS: seen again twice at most.
                        tail_next += 1;
                        tail.extend([tail_next; 2]);
                        tail_next
                    } else {
                        tail.swap_remove(rng.below(tail.len() as u32) as usize)
                    };
                    if !hops.contains(&asn) {
                        hops.push(asn);
                    }
                }
                // Habits hang off the AS number so they hold across tuples.
                let cleaner_at = (rng.below(4) == 0).then(|| rng.below(len as u32) as usize);
                let uppers: Vec<u32> = hops
                    .iter()
                    .enumerate()
                    .filter(|&(p, &asn)| {
                        let tags = match (asn ^ seed as u32) % 5 {
                            0 | 1 => true,
                            2 => false,
                            3 => epoch < epochs / 2,
                            _ => rng.below(2) == 0,
                        };
                        tags && cleaner_at.is_none_or(|c| p <= c)
                    })
                    .map(|(_, &asn)| asn)
                    .collect();
                batch.push(tup(&hops, &uppers));
            }
            feed.push(batch);
        }
        let tagger_codes = |set: &ShardSet, counters: &DenseCounterStore| {
            let mut classes: Vec<(Asn, Class)> = sparse(set, counters)
                .iter()
                .map(|(asn, c)| (asn, c.classify(&th)))
                .collect();
            classes.sort_by_key(|&(asn, _)| asn);
            classes
        };
        for shards in [1usize, 2, 4, 7] {
            let mut inc = ShardSet::new(shards, false, true);
            let mut full = ShardSet::new(shards, false, false);
            let mut prev_classes: Vec<(Asn, Class)> = Vec::new();
            for (epoch, batch) in feed.iter().enumerate() {
                let ctx = format!("seed {seed}, {shards} shards, epoch {epoch}");
                let longest_before = inc.max_path_len();
                for t in batch {
                    push(&mut inc, t);
                    push(&mut full, t);
                }
                let (got, got_deepest) = inc.recount(&th, None, cond1, cond2);
                let (want, want_deepest) = full.recount(&th, None, cond1, cond2);
                assert_eq!(got_deepest, want_deepest, "{ctx}: deepest active index");
                let mut got_rows: Vec<_> = sparse(&inc, &got).iter().collect();
                let mut want_rows: Vec<_> = sparse(&full, &want).iter().collect();
                got_rows.sort_by_key(|&(asn, _)| asn);
                want_rows.sort_by_key(|&(asn, _)| asn);
                assert_eq!(got_rows, want_rows, "{ctx}: counters");
                let classes = tagger_codes(&inc, &got);
                assert_eq!(classes, tagger_codes(&full, &want), "{ctx}: classes");
                inc.assert_caches_fresh(cond1, cond2, &ctx);

                let (replayed, units) = inc.last_replay();
                let (corrected, words) = inc.last_corrected();
                assert!(corrected <= replayed && replayed <= units, "{ctx}");
                reached.seals += 1;
                reached.corrected_units += corrected;
                reached.corrected_words += words;
                if epoch > 0 && inc.max_path_len() == longest_before {
                    reached.fallback_units += units - replayed;
                } else if epoch > 0 {
                    reached.outgrown += 1;
                }
                reached.deepest_active = reached.deepest_active.max(got_deepest);
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
        // and compare against a from-scratch shard set over the union.
        let tuples = corpus();
        let th = Thresholds::default();
        let (first, rest) = tuples.split_at(300);

        let mut warm = ShardSet::new(3, false, true);
        for t in first {
            push(&mut warm, t);
        }
        warm.recount(&th, None, true, true);
        for t in rest {
            push(&mut warm, t);
        }
        let (inc, inc_deepest) = warm.recount(&th, None, true, true);

        let mut cold = ShardSet::new(3, false, false);
        for t in &tuples {
            push(&mut cold, t);
        }
        let (full, full_deepest) = cold.recount(&th, None, true, true);

        assert_eq!(inc_deepest, full_deepest);
        let mut got: Vec<(Asn, AsCounters)> = sparse(&warm, &inc).iter().collect();
        let mut want: Vec<(Asn, AsCounters)> = sparse(&cold, &full).iter().collect();
        got.sort_by_key(|&(a, _)| a);
        want.sort_by_key(|&(a, _)| a);
        assert_eq!(got, want, "incremental reseal diverged");
    }

    #[test]
    fn unchanged_reseal_is_detected_and_stable() {
        let mut set = ShardSet::new(2, true, true);
        for t in corpus() {
            push(&mut set, &t);
        }
        assert!(!set.unchanged_since_seal(), "never sealed yet");
        let th = Thresholds::default();
        let (a, da) = set.recount(&th, None, true, true);
        assert!(set.unchanged_since_seal());
        // A recount with zero dirty tuples replays every step.
        let (b, db) = set.recount(&th, None, true, true);
        assert_eq!(da, db);
        assert_eq!(a.counts(), b.counts());
        // A dedup hit adds no tuple, so the set stays unchanged.
        push(&mut set, &corpus()[0]);
        assert!(set.unchanged_since_seal());
    }

    #[test]
    fn load_spreads_across_shards() {
        let mut set = ShardSet::new(4, true, true);
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
