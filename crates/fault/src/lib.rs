//! Deterministic fault injection for resilience soaks.
//!
//! The supervision layers in `bgp-archive` (retrying
//! [`ArchiveSink`](bgp_archive::writer::ArchiveSink))
//! and `bgp-serve` (quarantining ingest, respawning driver, degraded
//! health) are only trustworthy if they are *exercised* — so this crate
//! turns "the disk failed" and "the feed went bad" into seeded,
//! replayable events. A [`FaultPlan`] is parsed from a compact spec
//! string:
//!
//! ```text
//! archive:fail@7,torn@9;feed:corrupt%0.01,stall@3
//! ```
//!
//! Two injection domains, each a comma-separated rule list of
//! `kind@N` (fire on the N-th operation, 1-based) or `kind%P` (fire
//! each operation with probability P, driven by a seeded SplitMix64 —
//! same plan + same seed ⇒ same faults, byte for byte):
//!
//! * **archive** — threaded through the writer's
//!   [`IoShim`] as [`FaultyIo`]:
//!   `fail` (write errors without touching disk), `torn` (half the
//!   segment bytes land, then the write errors — the classic
//!   power-cut), `slow` (the write succeeds after a delay). An
//!   operation is one durable write (a segment or a manifest). The sink
//!   commits epochs that queued up behind a write as one run — two
//!   writes, not two per epoch — so which epoch the N-th write belongs
//!   to depends on how far the sink had fallen behind.
//! * **feed** — wrapped around any
//!   [`TupleSource`] as
//!   [`FaultSource`]: `corrupt` (a malformed AS0-path event is
//!   injected), `truncate` (a batch is cut short mid-delivery, the
//!   remainder redelivered later — never lost), `stall` (the source
//!   blocks briefly), `panic` (the ingest thread panics — exercising
//!   the driver supervisor's respawn path).
//!
//! Fault *clocks* are persistent: a [`FeedInjector`] survives driver
//! respawns, so a `panic@3` fires once, not once per restart. Injected
//! faults are additive — real events are never consumed, reordered, or
//! silently dropped — so a supervised pipeline must converge to the
//! exact classification state of a fault-free run. That invariant is
//! what the end-to-end soak asserts.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

use bgp_archive::frame::Result as ArchiveResult;
use bgp_archive::manifest::{write_atomic, IoShim};
use bgp_stream::ingest::{EventBatch, IngestError, StreamEvent, TupleSource};
use bgp_types::prelude::{AsPath, Asn, CommunitySet, PathCommTuple};
use std::path::Path;
use std::sync::Mutex;
use std::time::Duration;

/// How long a `slow` archive write or `stall`ed feed batch sleeps.
pub const FAULT_DELAY: Duration = Duration::from_millis(100);

/// What a single fault does when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Archive: the durable write fails; nothing reaches disk.
    Fail,
    /// Archive: a prefix of the bytes lands, then the write fails —
    /// only applied to segment files (a torn manifest is just `Fail`,
    /// since `write_atomic`'s rename makes a half-manifest impossible).
    Torn,
    /// Archive: the write succeeds after [`FAULT_DELAY`].
    Slow,
    /// Feed: a malformed event (AS0 in the path) is injected; real
    /// events are untouched.
    Corrupt,
    /// Feed: the next batch is cut in half mid-delivery with a
    /// malformed trailer; the cut-off remainder is redelivered on the
    /// following call.
    Truncate,
    /// Feed: the source blocks for [`FAULT_DELAY`] before delivering.
    Stall,
    /// Feed: the ingest thread panics (the driver supervisor respawns).
    Panic,
}

impl FaultKind {
    fn name(self) -> &'static str {
        match self {
            FaultKind::Fail => "fail",
            FaultKind::Torn => "torn",
            FaultKind::Slow => "slow",
            FaultKind::Corrupt => "corrupt",
            FaultKind::Truncate => "truncate",
            FaultKind::Stall => "stall",
            FaultKind::Panic => "panic",
        }
    }

    fn for_domain(name: &str, domain: Domain) -> Option<FaultKind> {
        let kind = match (domain, name) {
            (Domain::Archive, "fail") => FaultKind::Fail,
            (Domain::Archive, "torn") => FaultKind::Torn,
            (Domain::Archive, "slow") => FaultKind::Slow,
            (Domain::Feed, "corrupt") => FaultKind::Corrupt,
            (Domain::Feed, "truncate") => FaultKind::Truncate,
            (Domain::Feed, "stall") => FaultKind::Stall,
            (Domain::Feed, "panic") => FaultKind::Panic,
            _ => return None,
        };
        Some(kind)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Domain {
    Archive,
    Feed,
}

/// When a fault fires.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Trigger {
    /// On exactly the N-th operation (1-based) of the domain's clock.
    At(u64),
    /// On each operation independently with this probability.
    Prob(f64),
}

/// One `kind@N` / `kind%P` rule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultRule {
    /// What happens.
    pub kind: FaultKind,
    /// When it happens.
    pub trigger: Trigger,
}

/// A parsed fault spec: the archive-domain and feed-domain rule lists.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// Rules applied to archive writes (through [`FaultyIo`]).
    pub archive: Vec<FaultRule>,
    /// Rules applied to feed batches (through [`FaultSource`]).
    pub feed: Vec<FaultRule>,
}

impl FaultPlan {
    /// Parse a spec string like
    /// `archive:fail@7,torn@9;feed:corrupt%0.01,stall@3`.
    pub fn parse(spec: &str) -> std::result::Result<FaultPlan, String> {
        let mut plan = FaultPlan::default();
        for section in spec.split(';') {
            let section = section.trim();
            if section.is_empty() {
                continue;
            }
            let (domain_name, rules) = section
                .split_once(':')
                .ok_or_else(|| format!("fault section {section:?} missing `domain:`"))?;
            let domain = match domain_name.trim() {
                "archive" => Domain::Archive,
                "feed" => Domain::Feed,
                other => return Err(format!("unknown fault domain {other:?}")),
            };
            for rule in rules.split(',') {
                let rule = rule.trim();
                if rule.is_empty() {
                    continue;
                }
                let parsed = Self::parse_rule(rule, domain)?;
                match domain {
                    Domain::Archive => plan.archive.push(parsed),
                    Domain::Feed => plan.feed.push(parsed),
                }
            }
        }
        Ok(plan)
    }

    fn parse_rule(rule: &str, domain: Domain) -> std::result::Result<FaultRule, String> {
        let (name, trigger) = if let Some((name, n)) = rule.split_once('@') {
            let n: u64 = n
                .parse()
                .map_err(|_| format!("bad op count in fault rule {rule:?}"))?;
            if n == 0 {
                return Err(format!("fault rule {rule:?}: op counts are 1-based"));
            }
            (name, Trigger::At(n))
        } else if let Some((name, p)) = rule.split_once('%') {
            let p: f64 = p
                .parse()
                .map_err(|_| format!("bad probability in fault rule {rule:?}"))?;
            if !(0.0..=1.0).contains(&p) {
                return Err(format!("fault rule {rule:?}: probability outside [0,1]"));
            }
            (name, Trigger::Prob(p))
        } else {
            return Err(format!("fault rule {rule:?} needs `@N` or `%P`"));
        };
        let kind = FaultKind::for_domain(name.trim(), domain).ok_or_else(|| {
            format!(
                "unknown {} fault kind {:?}",
                match domain {
                    Domain::Archive => "archive",
                    Domain::Feed => "feed",
                },
                name.trim()
            )
        })?;
        Ok(FaultRule { kind, trigger })
    }

    /// Build the archive-domain I/O shim, or `None` when the plan has
    /// no archive rules (use the real I/O path).
    pub fn archive_io(&self, seed: u64) -> Option<FaultyIo> {
        if self.archive.is_empty() {
            None
        } else {
            Some(FaultyIo::new(self.archive.clone(), seed))
        }
    }

    /// Build the feed-domain injector, or `None` when the plan has no
    /// feed rules.
    pub fn feed_injector(&self, seed: u64) -> Option<FeedInjector> {
        if self.feed.is_empty() {
            None
        } else {
            Some(FeedInjector::new(self.feed.clone(), seed))
        }
    }
}

/// SplitMix64 — tiny, seedable, and good enough for fault dice. The
/// workspace's vendored `rand` lives behind `bgp-sim`; this crate stays
/// dependency-light by rolling the 3-line generator itself.
#[derive(Debug, Clone)]
struct SplitMix64(u64);

impl SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// A domain's fault dice: a monotone operation counter plus a seeded
/// RNG evaluated against the rule list. The first matching rule wins.
#[derive(Debug, Clone)]
pub struct FaultClock {
    ops: u64,
    rng: SplitMix64,
    rules: Vec<FaultRule>,
}

impl FaultClock {
    /// A clock over `rules`, seeded for replayable `%P` triggers.
    pub fn new(rules: Vec<FaultRule>, seed: u64) -> FaultClock {
        FaultClock {
            ops: 0,
            rng: SplitMix64(seed ^ 0xFA17_FA17_FA17_FA17),
            rules,
        }
    }

    /// Count one operation; returns the fault to inject, if any.
    pub fn tick(&mut self) -> Option<FaultKind> {
        self.ops += 1;
        // One dice roll per tick regardless of rule count keeps the
        // stream deterministic under rule-list edits.
        let roll = self.rng.next_f64();
        for rule in &self.rules {
            match rule.trigger {
                Trigger::At(n) if n == self.ops => return Some(rule.kind),
                Trigger::Prob(p) if roll < p => return Some(rule.kind),
                _ => {}
            }
        }
        None
    }

    /// Operations counted so far.
    pub fn ops(&self) -> u64 {
        self.ops
    }
}

/// An [`IoShim`] that injects archive-domain faults, one clock tick per
/// durable write.
#[derive(Debug)]
pub struct FaultyIo {
    clock: FaultClock,
    /// Injected faults so far (for test assertions).
    fired: u64,
}

impl FaultyIo {
    /// A shim over `rules`, seeded.
    pub fn new(rules: Vec<FaultRule>, seed: u64) -> FaultyIo {
        FaultyIo {
            clock: FaultClock::new(rules, seed),
            fired: 0,
        }
    }
}

fn injected_err(what: &str) -> bgp_archive::frame::ArchiveError {
    std::io::Error::other(format!("injected fault: {what}")).into()
}

impl IoShim for FaultyIo {
    fn write_atomic(&mut self, dir: &Path, name: &str, bytes: &[u8]) -> ArchiveResult<()> {
        match self.clock.tick() {
            None => write_atomic(dir, name, bytes),
            Some(FaultKind::Slow) => {
                self.fired += 1;
                std::thread::sleep(FAULT_DELAY);
                write_atomic(dir, name, bytes)
            }
            Some(FaultKind::Torn) if name.ends_with(".bgpa") => {
                self.fired += 1;
                // Commit a prefix under the real name — the torn tail
                // the reader's recovery must detect and discard.
                write_atomic(dir, name, &bytes[..bytes.len() / 2])?;
                Err(injected_err(&format!("torn write of {name}")))
            }
            Some(FaultKind::Torn) | Some(FaultKind::Fail) => {
                self.fired += 1;
                Err(injected_err(&format!("failed write of {name}")))
            }
            Some(other) => {
                // Feed-domain kinds in an archive rule list can't be
                // expressed by the parser; treat defensively as Fail.
                self.fired += 1;
                Err(injected_err(&format!("{} write of {name}", other.name())))
            }
        }
    }
}

/// The marker a feed fault injects: an AS0 path (forbidden on the wire
/// by RFC 7607), which the ingest quarantine
/// ([`bgp_stream::ingest::is_malformed`]) must skip and count.
pub fn malformed_event() -> StreamEvent {
    let path = AsPath::new(vec![Asn(0)]).expect("AS0 path is non-empty");
    StreamEvent::new(0, PathCommTuple::new(path, CommunitySet::new()))
}

#[derive(Debug)]
struct InjectorState {
    clock: FaultClock,
    /// Real events pulled but not yet delivered (a truncated batch's
    /// tail). Redelivered, in order, before anything else.
    pending: EventBatch,
}

/// Feed-domain fault state that survives driver respawns: the clock
/// keeps counting across attempts (a `panic@3` fires once, ever), while
/// the pending buffer is cleared per attempt (a respawned driver
/// replays its feed from the start).
#[derive(Debug)]
pub struct FeedInjector {
    state: Mutex<InjectorState>,
    /// Injected faults so far (for test assertions and reports).
    fired: std::sync::atomic::AtomicU64,
}

impl FeedInjector {
    /// An injector over `rules`, seeded.
    pub fn new(rules: Vec<FaultRule>, seed: u64) -> FeedInjector {
        FeedInjector {
            state: Mutex::new(InjectorState {
                clock: FaultClock::new(rules, seed),
                pending: EventBatch::new(),
            }),
            fired: std::sync::atomic::AtomicU64::new(0),
        }
    }

    /// Forget buffered events at the start of a (re)spawned attempt —
    /// the attempt replays its feed from scratch, so redelivering a
    /// previous attempt's tail would duplicate events.
    pub fn reset_stream(&self) {
        self.lock().pending = EventBatch::new();
    }

    /// Faults injected so far, across all attempts.
    pub fn fired(&self) -> u64 {
        self.fired.load(std::sync::atomic::Ordering::Acquire)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, InjectorState> {
        self.state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn note_fired(&self) {
        self.fired.fetch_add(1, std::sync::atomic::Ordering::AcqRel);
    }
}

/// A [`TupleSource`] wrapper injecting feed-domain faults around an
/// inner source. Injected faults are additive: every real event the
/// inner source produces is eventually delivered exactly once, in
/// order.
pub struct FaultSource<'a> {
    injector: &'a FeedInjector,
    inner: &'a mut dyn TupleSource,
}

impl<'a> FaultSource<'a> {
    /// Wrap `inner` with `injector`'s fault clock.
    pub fn new(injector: &'a FeedInjector, inner: &'a mut dyn TupleSource) -> FaultSource<'a> {
        FaultSource { injector, inner }
    }
}

impl TupleSource for FaultSource<'_> {
    fn next_batch(&mut self, max: usize) -> std::result::Result<EventBatch, IngestError> {
        // Redeliver a truncated batch's tail before pulling new data.
        {
            let mut state = self.injector.lock();
            if !state.pending.is_empty() {
                let take = state.pending.len().min(max.max(1));
                let later = state.pending.split_off(take);
                return Ok(std::mem::replace(&mut state.pending, later));
            }
        }
        let fault = self.injector.lock().clock.tick();
        match fault {
            None => self.inner.next_batch(max),
            Some(FaultKind::Stall) => {
                self.injector.note_fired();
                std::thread::sleep(FAULT_DELAY);
                self.inner.next_batch(max)
            }
            Some(FaultKind::Corrupt) => {
                // Inject a malformed marker *instead of* pulling real
                // events — nothing real is consumed, so order and
                // completeness are preserved by construction.
                self.injector.note_fired();
                Ok(EventBatch::from_iter([malformed_event()]))
            }
            Some(FaultKind::Truncate) => {
                self.injector.note_fired();
                let mut batch = self.inner.next_batch(max)?;
                let tail = batch.split_off(batch.len() / 2);
                self.injector.lock().pending = tail;
                batch.push_event(&malformed_event());
                Ok(batch)
            }
            Some(FaultKind::Panic) => {
                self.injector.note_fired();
                panic!("injected ingest panic (fault plan)");
            }
            Some(other) => {
                // Archive-domain kinds can't parse into a feed rule
                // list; inert if constructed by hand.
                let _ = other;
                self.inner.next_batch(max)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgp_stream::ingest::{is_malformed, IterSource};

    #[test]
    fn spec_roundtrip() {
        let plan = FaultPlan::parse("archive:fail@7,torn@9;feed:corrupt%0.01,stall@3").unwrap();
        assert_eq!(plan.archive.len(), 2);
        assert_eq!(plan.feed.len(), 2);
        assert_eq!(plan.archive[0].kind, FaultKind::Fail);
        assert_eq!(plan.archive[0].trigger, Trigger::At(7));
        assert_eq!(plan.archive[1].kind, FaultKind::Torn);
        assert_eq!(plan.feed[0].kind, FaultKind::Corrupt);
        assert_eq!(plan.feed[0].trigger, Trigger::Prob(0.01));
        assert_eq!(plan.feed[1].kind, FaultKind::Stall);
    }

    #[test]
    fn spec_rejects_nonsense() {
        assert!(FaultPlan::parse("bogus:fail@1").is_err());
        assert!(FaultPlan::parse("archive:corrupt@1").is_err()); // feed kind
        assert!(FaultPlan::parse("feed:fail@1").is_err()); // archive kind
        assert!(FaultPlan::parse("archive:fail@0").is_err()); // 1-based
        assert!(FaultPlan::parse("feed:corrupt%1.5").is_err());
        assert!(FaultPlan::parse("archive:fail").is_err());
        assert!(FaultPlan::parse("").unwrap().archive.is_empty());
    }

    #[test]
    fn at_trigger_fires_exactly_once() {
        let mut clock = FaultClock::new(
            vec![FaultRule {
                kind: FaultKind::Fail,
                trigger: Trigger::At(3),
            }],
            42,
        );
        let fires: Vec<Option<FaultKind>> = (0..6).map(|_| clock.tick()).collect();
        assert_eq!(
            fires,
            vec![None, None, Some(FaultKind::Fail), None, None, None]
        );
    }

    #[test]
    fn prob_trigger_is_seed_deterministic() {
        let rules = vec![FaultRule {
            kind: FaultKind::Corrupt,
            trigger: Trigger::Prob(0.25),
        }];
        let run = |seed| {
            let mut clock = FaultClock::new(rules.clone(), seed);
            (0..64).map(|_| clock.tick().is_some()).collect::<Vec<_>>()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
        assert!(run(7).iter().any(|&f| f), "0.25 over 64 ops should fire");
    }

    fn events(n: u64) -> Vec<StreamEvent> {
        (0..n)
            .map(|i| {
                let path = AsPath::new(vec![Asn(10 + i as u32), Asn(20)]).unwrap();
                StreamEvent::new(i, PathCommTuple::new(path, CommunitySet::new()))
            })
            .collect()
    }

    /// Drain a source, partitioning malformed markers from real events.
    fn drain(src: &mut dyn TupleSource, max: usize) -> (Vec<StreamEvent>, u64) {
        let mut real = Vec::new();
        let mut markers = 0;
        loop {
            let batch = src.next_batch(max).unwrap();
            if batch.is_empty() {
                return (real, markers);
            }
            for (timestamp, tuple) in batch.iter() {
                if is_malformed(tuple) {
                    markers += 1;
                } else {
                    real.push(StreamEvent::new(timestamp, tuple.to_owned()));
                }
            }
        }
    }

    #[test]
    fn corrupt_injects_without_losing_events() {
        let injector = FeedInjector::new(
            vec![FaultRule {
                kind: FaultKind::Corrupt,
                trigger: Trigger::At(2),
            }],
            1,
        );
        let orig = events(10);
        let mut inner = IterSource::new(orig.clone().into_iter());
        let mut src = FaultSource::new(&injector, &mut inner);
        let (real, markers) = drain(&mut src, 3);
        assert_eq!(real, orig);
        assert_eq!(markers, 1);
        assert_eq!(injector.fired(), 1);
    }

    #[test]
    fn truncate_redelivers_the_tail_in_order() {
        let injector = FeedInjector::new(
            vec![FaultRule {
                kind: FaultKind::Truncate,
                trigger: Trigger::At(1),
            }],
            1,
        );
        let orig = events(9);
        let mut inner = IterSource::new(orig.clone().into_iter());
        let mut src = FaultSource::new(&injector, &mut inner);
        let (real, markers) = drain(&mut src, 4);
        assert_eq!(real, orig);
        assert_eq!(markers, 1);
    }

    #[test]
    fn panic_fires_once_across_respawns() {
        let injector = FeedInjector::new(
            vec![FaultRule {
                kind: FaultKind::Panic,
                trigger: Trigger::At(2),
            }],
            1,
        );
        let orig = events(6);
        // First attempt: panics on the second batch.
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut inner = IterSource::new(orig.clone().into_iter());
            let mut src = FaultSource::new(&injector, &mut inner);
            drain(&mut src, 2)
        }));
        assert!(caught.is_err());
        // Respawned attempt: replays from scratch, no second panic.
        injector.reset_stream();
        let mut inner = IterSource::new(orig.clone().into_iter());
        let mut src = FaultSource::new(&injector, &mut inner);
        let (real, _) = drain(&mut src, 2);
        assert_eq!(real, orig);
    }

    #[test]
    fn faulty_io_fail_then_clean() {
        let dir = std::env::temp_dir().join(format!("fault-io-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut io = FaultyIo::new(
            vec![FaultRule {
                kind: FaultKind::Fail,
                trigger: Trigger::At(1),
            }],
            9,
        );
        assert!(io.write_atomic(&dir, "x.bgpa", b"hello").is_err());
        assert!(!dir.join("x.bgpa").exists());
        io.write_atomic(&dir, "x.bgpa", b"hello").unwrap();
        assert_eq!(std::fs::read(dir.join("x.bgpa")).unwrap(), b"hello");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn faulty_io_torn_commits_a_prefix() {
        let dir = std::env::temp_dir().join(format!("fault-torn-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut io = FaultyIo::new(
            vec![FaultRule {
                kind: FaultKind::Torn,
                trigger: Trigger::At(1),
            }],
            9,
        );
        assert!(io.write_atomic(&dir, "seg.bgpa", b"12345678").is_err());
        assert_eq!(std::fs::read(dir.join("seg.bgpa")).unwrap(), b"1234");
        // Torn on a non-segment name downgrades to a plain failure.
        let mut io2 = FaultyIo::new(
            vec![FaultRule {
                kind: FaultKind::Torn,
                trigger: Trigger::At(1),
            }],
            9,
        );
        assert!(io2.write_atomic(&dir, "MANIFEST", b"manifest").is_err());
        assert!(!dir.join("MANIFEST").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
