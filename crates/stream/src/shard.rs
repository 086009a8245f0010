//! Shard layer: partitioned tuple ownership, dense parallel phase
//! counting over one shared id space, and incremental epoch recounts.
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
//! * at the next seal, a step's entering predicates are XOR-diffed
//!   against the recorded trajectory (counters keep growing every seal,
//!   but predicates only move when a share crosses a threshold, so the
//!   diff is almost always empty). A shard replays its cached delta iff
//!   no diverged predicate bit belongs to an AS present in the shard; it
//!   then counts only its dirty suffix fresh and folds that into the
//!   cache. Otherwise it recounts the step in full.
//!
//! Replayed steps are byte-identical to recounting by the purity argument
//! above — the cached delta was computed under bit-identical predicate
//! inputs over an identical tuple prefix — so the merged result is
//! identical for every shard count and cache state, and identical to the
//! batch engine's reference path, pinned by `tests/stream_parity.rs`
//! across epochs, shard counts, and incremental on/off.
//!
//! ## When counting fans out
//!
//! The shard count is an upper bound on the threads that count a seal,
//! not a promise to use them. Each (column, phase) step asks
//! [`step_fans_out`] — the one policy the batch engine's thread fan-out
//! shares — about the tuples it is about to visit, summed over shards:
//! the dirty suffix of a shard that replays its cached step, the whole
//! buckets of one that recounts. Only a step that reaches
//! [`FANOUT_MIN_VISITS`](bgp_infer::compiled::FANOUT_MIN_VISITS) spawns
//! one scoped thread per shard; every smaller step counts the shards in
//! turn on the sealing thread. (A guard on the store's size would make
//! every seal of a 2,000-event epoch pay `2 × max_path_len` spawn+join
//! rounds to count a few hundred tuples.) Who counts never changes what
//! is counted — a shard's delta is the same pure function either way —
//! so counters, replay decisions, trajectories and caches are identical
//! on both branches; [`ShardSet::last_fanout`] reports which one ran.

use bgp_infer::compiled::{
    step_fans_out, CompiledTuples, DeltaStore, DenseCounterStore, IdBitSet, PhasePredicates,
};
use bgp_infer::counters::{AsCounters, Thresholds};
use bgp_infer::engine::CountPhase;
use bgp_types::prelude::*;
use obs::Histogram;
use std::sync::atomic::{AtomicU64, Ordering};
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
}

impl Shard {
    fn new(interner: Arc<SharedInterner>, dedup: bool) -> Self {
        Shard {
            seen: dedup.then(TupleTable::new),
            compiled: CompiledTuples::with_shared(interner),
            delta: DeltaStore::default(),
            cache: Vec::new(),
            absorb_scratch: Vec::new(),
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
    /// `(fanned, total)` (column, phase) steps of the last recount —
    /// how many were counted on per-shard worker threads.
    last_fanout: (usize, usize),
    /// Test-only override of the fan-out policy: `Some(true)` fans every
    /// step out (one thread per shard), `Some(false)` none.
    #[cfg(test)]
    pub(crate) force_fanout: Option<bool>,
    /// Per-phase stage histograms (`[tagging, forwarding]`), resolved
    /// once from the global registry so the recount loop records with
    /// pure atomics: one observation per (shard, column, phase) count
    /// and one per (column, phase) merge.
    hist_count: [Arc<Histogram>; 2],
    hist_merge: [Arc<Histogram>; 2],
    /// Counting / serial-merge nanoseconds accumulated by the last
    /// recount, summed across shards and steps — the provenance-trace
    /// inputs mirroring the per-step histograms. Atomic because the
    /// count side accumulates from scoped worker threads.
    count_nanos: AtomicU64,
    merge_nanos: AtomicU64,
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
            last_fanout: (0, 0),
            #[cfg(test)]
            force_fanout: None,
            hist_count,
            hist_merge,
            count_nanos: AtomicU64::new(0),
            merge_nanos: AtomicU64::new(0),
        }
    }

    /// `(replayed, total)` (shard, step) units of the last recount — how
    /// much of the seal was served from cached step deltas.
    pub fn last_replay(&self) -> (usize, usize) {
        self.last_replay
    }

    /// `(fanned, total)` (column, phase) steps of the last recount — how
    /// many of the seal's steps paid a spawn+join round (see *When
    /// counting fans out* in the module docs). A trickle seal reads
    /// `0/total`.
    pub fn last_fanout(&self) -> (usize, usize) {
        self.last_fanout
    }

    /// Reset the per-recount stats: at the start of every recount, and
    /// by the pipeline's O(1) re-seal fast path, which skips the recount
    /// entirely (no counting units ran).
    pub(crate) fn clear_replay_stats(&mut self) {
        self.last_replay = (0, 0);
        self.last_fanout = (0, 0);
        self.count_nanos.store(0, Ordering::Relaxed);
        self.merge_nanos.store(0, Ordering::Relaxed);
    }

    /// Shard-counting nanoseconds of the last recount, summed across
    /// shards and (column, phase) steps — CPU time, not wall time, when
    /// shards count in parallel.
    pub fn last_count_nanos(&self) -> u64 {
        self.count_nanos.load(Ordering::Relaxed)
    }

    /// Serial dense-merge nanoseconds of the last recount, summed
    /// across (column, phase) steps.
    pub fn last_merge_nanos(&self) -> u64 {
        self.merge_nanos.load(Ordering::Relaxed)
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

    /// [`step_fans_out`] applied to one step of a recount: `visits` is
    /// what the shards will visit between them, one worker per shard.
    fn fans_out(&self, visits: usize) -> bool {
        #[cfg(test)]
        {
            if let Some(forced) = self.force_fanout {
                return forced && self.shards.len() > 1;
            }
        }
        step_fans_out(visits, self.shards.len())
    }

    /// Full recount over everything currently stored: the exact column
    /// loop of the batch engine (tagging phase, merge, forwarding phase,
    /// merge, next column), each step counted per shard — on worker
    /// threads when the step is large enough (see *When counting fans
    /// out* in the module docs) — with cached-step reuse where the
    /// incremental invariants hold. Returns the final dense counters
    /// over the shared id space and the deepest column where anything
    /// counted.
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
        let mut diff_scratch: Vec<u64> = vec![0; n_ids.div_ceil(64)];
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
        // whose counters actually moved this seal (suffix contributions
        // and fresh recounts) — so a replayed step costs accumulate-only
        // merges plus O(overlay) float work instead of O(touched ids).
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
        let mut deepest_active = 0;
        let mut reuse = vec![false; self.shards.len()];
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
                    // the overlay; the patch also yields the divergence
                    // mask the replay decisions need. Ids outside the
                    // overlay had every contribution replayed, so their
                    // bits match the trajectory by construction.
                    let traj = &self.trajectory[x - 1][pi];
                    preds.load_words(&traj.forward, &traj.tagger, n_ids);
                    diff_scratch.fill(0);
                    diff_scratch.resize(n_ids.div_ceil(64), 0);
                    for &id in &overlay {
                        if preds.refresh_both(id, counters.get(id), th) {
                            diff_scratch[(id / 64) as usize] |= 1u64 << (id % 64);
                        }
                    }
                    for (r, s) in reuse.iter_mut().zip(&self.shards) {
                        // Tested against the ids the *clean prefix* can
                        // contain: predicates of ids interned after the
                        // previous seal may move freely (they cannot
                        // occur in older tuples).
                        *r = !s
                            .compiled
                            .clean_present_ids()
                            .intersects_words(&diff_scratch);
                    }
                } else {
                    reuse.fill(false);
                }
                // Record this step's entering predicates as the new
                // trajectory for the next seal.
                if self.incremental {
                    self.trajectory[x - 1][pi].record(&preds);
                }
                self.last_replay.0 += reuse.iter().filter(|&&r| r).count();
                self.last_replay.1 += reuse.len();
                // Who counts is decided per step, on the tuples the
                // shards will visit between them: dirty suffixes where a
                // cached step replays, whole buckets where it recounts.
                let visits = self
                    .shards
                    .iter()
                    .zip(&reuse)
                    .map(|(s, &replay)| s.compiled.step_visits(x, phase, replay))
                    .sum();
                let fanned = self.fans_out(visits);
                self.last_fanout.0 += fanned as usize;
                self.last_fanout.1 += 1;
                // Counting: each shard fills its private delta — only the
                // dirty suffix when its cached step will be replayed.
                // The Cond1 `clean` words are computed at the tagging
                // phase (they serve both) and only over the dirty
                // suffix when that phase replays; a forwarding phase
                // that stops replaying recomputes them in full.
                let preds_ref = &preds;
                let count_hist = &self.hist_count[pi];
                let count_acc = &self.count_nanos;
                let count_one = |s: &mut Shard, replay: bool, clean_full: &mut bool| {
                    let t_count = Instant::now();
                    if phase == CountPhase::Tagging {
                        s.compiled
                            .compute_clean(preds_ref, x, enforce_cond1, replay);
                        *clean_full = !replay;
                    } else if !replay && !*clean_full {
                        s.compiled.compute_clean(preds_ref, x, enforce_cond1, false);
                        *clean_full = true;
                    }
                    s.compiled.count_phase_dense(
                        preds_ref,
                        x,
                        phase,
                        enforce_cond2,
                        replay,
                        &mut s.delta,
                    );
                    let nanos = t_count.elapsed().as_nanos() as u64;
                    count_hist.record(nanos);
                    count_acc.fetch_add(nanos, Ordering::Relaxed);
                };
                if fanned {
                    std::thread::scope(|scope| {
                        let handles: Vec<_> = self
                            .shards
                            .iter_mut()
                            .zip(reuse.iter().zip(clean_full.iter_mut()))
                            .map(|(s, (&replay, cf))| scope.spawn(move || count_one(s, replay, cf)))
                            .collect();
                        for h in handles {
                            h.join().expect("shard counting worker panicked");
                        }
                    });
                } else {
                    for (s, (&replay, cf)) in self
                        .shards
                        .iter_mut()
                        .zip(reuse.iter().zip(clean_full.iter_mut()))
                    {
                        count_one(s, replay, cf);
                    }
                }
                // Serial merge in shard order. In trajectory mode the
                // merges are accumulate-only — the predicate evolution is
                // already known — and every id whose counters moved off
                // the replayed trajectory joins the overlay.
                let t_merge = Instant::now();
                for (s, &replay) in self.shards.iter_mut().zip(&reuse) {
                    if replay {
                        let step = &s.cache[x - 1][pi];
                        if !step.entries.is_empty() {
                            col_active = true;
                        }
                        counters.merge_sparse_counts(&step.entries);
                        if !s.delta.is_empty() {
                            // Fold the freshly counted dirty suffix into
                            // the cache — it is clean-prefix material at
                            // the next seal.
                            col_active = true;
                            counters.merge_counts(&s.delta);
                            for id in s.delta.touched() {
                                grow_overlay(&mut overlay, &mut overlay_set, id);
                            }
                            s.cache[x - 1][pi].absorb(&s.delta, &mut s.absorb_scratch);
                        }
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
                self.merge_nanos.fetch_add(merge_elapsed, Ordering::Relaxed);
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
    use bgp_infer::counters::CounterStore;
    use bgp_infer::engine::{InferenceConfig, InferenceEngine};

    fn tup(p: &[u32], uppers: &[u32]) -> PathCommTuple {
        PathCommTuple::new(
            path(p),
            CommunitySet::from_iter(uppers.iter().map(|&u| AnyCommunity::tag_for(Asn(u), 100))),
        )
    }

    fn corpus() -> Vec<PathCommTuple> {
        let mut v = Vec::new();
        for i in 0..500u32 {
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
    fn fan_out_cannot_change_a_recount() {
        // No test corpus reaches a step the policy would fan out, so pin
        // it both ways and compare everything a recount produces or
        // decides, over three seals: a first seal (nothing cached), a
        // fully replayed seal with a dirty suffix, and a seal whose
        // delta drops AS 99 below the tagger threshold — the shards
        // whose clean prefix holds 99 recount, the rest keep replaying.
        let th = Thresholds::default();
        let mut base = corpus();
        let second = base.split_off(300);
        base.extend((0..3).map(|i| tup(&[99, 500 + i, 20_000 + i], &[99])));
        let flip: Vec<_> = (0..3)
            .map(|i| tup(&[99, 600 + i, 30_000 + i], &[]))
            .collect();
        for shards in [1usize, 2, 4, 7] {
            let mut serial = ShardSet::new(shards, false, true);
            serial.force_fanout = Some(false);
            let mut fanned = ShardSet::new(shards, false, true);
            fanned.force_fanout = Some(true);
            for (seal, batch) in [&base, &second, &flip].into_iter().enumerate() {
                let ctx = format!("{shards} shards, seal {seal}");
                for t in batch {
                    push(&mut serial, t);
                    push(&mut fanned, t);
                }
                let (a, a_deepest) = serial.recount(&th, None, true, true);
                let (b, b_deepest) = fanned.recount(&th, None, true, true);
                assert_eq!(a.counts(), b.counts(), "{ctx}: counters");
                assert_eq!(a_deepest, b_deepest, "{ctx}: deepest active index");
                assert_eq!(serial.last_replay(), fanned.last_replay(), "{ctx}: replay");
                let (replayed, units) = serial.last_replay();
                match seal {
                    0 => assert_eq!(replayed, 0, "{ctx}"),
                    1 => assert_eq!(replayed, units, "{ctx}"),
                    _ => assert!(
                        0 < replayed && replayed < units,
                        "{ctx}: {replayed}/{units}"
                    ),
                }
                let steps = units / shards;
                assert_eq!(serial.last_fanout(), (0, steps), "{ctx}");
                let want = if shards > 1 { steps } else { 0 };
                assert_eq!(fanned.last_fanout(), (want, steps), "{ctx}");
            }
        }
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
