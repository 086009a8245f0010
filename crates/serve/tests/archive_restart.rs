//! Restart fidelity and crash safety for `bgp-served --archive`,
//! exercised end to end through the query API.
//!
//! * A daemon restarted from its archive must answer a fixed request
//!   sequence **byte-for-byte** identically to the daemon that never
//!   stopped — before the feed backfill even begins — and the restore
//!   itself must be a milliseconds affair, not a feed replay.
//! * Time-travel answers (`?epoch=N`, `/v1/history`) must match an
//!   independently-run batch pipeline, epoch by epoch.
//! * A crash-truncated archive (any byte offset in the tail segment,
//!   with or without a rolled-back manifest) must recover on open and
//!   converge back to the never-crashed state once the deterministic
//!   feed backfills.
//! * The backfill seals the archived epochs again but publishes none of
//!   them, so each answers `/v1/debug/epoch/N/trace` from the archive,
//!   as the first boot traced it.

use bgp_archive::prelude::*;
use bgp_infer::counters::Thresholds;
use bgp_serve::driver::spawn_ingest_archived;
use bgp_serve::prelude::*;
use bgp_stream::epoch::EpochPolicy;
use bgp_stream::ingest::StreamEvent;
use bgp_stream::pipeline::{StreamConfig, StreamPipeline};
use bgp_types::prelude::*;
use proptest::prelude::*;
use std::fs;
use std::path::Path;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

mod support;
use support::tmp_dir;

// ----------------------------------------------------------- the world

const EPOCH_EVENTS: u64 = 16;
const EVENTS: u64 = 70; // 4 full epochs + a trailing partial → 5 epochs

/// Deterministic feed: rotating origins keep growing the interner, a
/// small tagger pool accumulates evidence (and flips early on), every
/// 11th tuple is untagged so silent/contradictory classes appear too.
fn world_events() -> Vec<StreamEvent> {
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut rng = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    (0..EVENTS)
        .map(|i| {
            let r = rng();
            let origin = 9_000 + (i / 5) as u32;
            let tagger = 64_496 + (r % 7) as u32;
            let upstream = if r % 4 == 0 {
                70_000 + (r % 5) as u32 // 32-bit map path
            } else {
                100 + (r % 9) as u32
            };
            let comms = if r % 11 == 0 {
                CommunitySet::from_iter([])
            } else {
                CommunitySet::from_iter([AnyCommunity::tag_for(Asn(tagger), (r % 900) as u32)])
            };
            let tuple = PathCommTuple::new(path(&[upstream, tagger, origin]), comms);
            StreamEvent::new(10 * i + 1, tuple)
        })
        .collect()
}

fn cfg() -> DriverConfig {
    DriverConfig {
        stream: StreamConfig {
            shards: 2,
            epoch: EpochPolicy::every_events(EPOCH_EVENTS),
            ..Default::default()
        },
        batch: 7,
        flip_log_cap: 4096,
        ..Default::default()
    }
}

// ----------------------------------------------------- the API client

/// Answer one request through [`Api::handle`] directly (no TCP): the
/// byte-identity claim is about the handler's output, and the transport
/// is covered by `http_integration.rs`.
fn get(api: &Api, target: &str) -> (u16, String) {
    let (path, raw_query) = target.split_once('?').unwrap_or((target, ""));
    let query = raw_query
        .split('&')
        .filter(|kv| !kv.is_empty())
        .map(|kv| {
            let (k, v) = kv.split_once('=').unwrap_or((kv, ""));
            (k.to_string(), v.to_string())
        })
        .collect();
    let response = api.handle(&Request {
        method: "GET".to_string(),
        path: path.to_string(),
        query,
    });
    (response.status, response.body)
}

/// Metrics on a registry of their own, so `/v1/stats.requests_total`
/// counts one daemon's requests and not the whole test process's.
fn isolated_metrics() -> Arc<Metrics> {
    Arc::new(Metrics::with_registry(Arc::new(obs::ObsRegistry::new())))
}

/// A response body without its `uptime_seconds` value — the one field
/// that is wall clock. Everything else must match byte for byte.
fn without_uptime(body: &str) -> String {
    let Some(at) = body.find(",\"uptime_seconds\":") else {
        return body.to_string();
    };
    let end = at + 1 + body[at + 1..].find([',', '}']).expect("uptime value end");
    format!("{}{}", &body[..at], &body[end..])
}

/// The fixed request sequence both daemons answer. `/v1/stats` goes
/// last: its `requests_total` depends on everything before it, so the
/// sequences must be identical — they are, by construction.
fn request_sequence(asns: &[u32]) -> Vec<String> {
    let mut seq = vec![
        "/healthz".to_string(),
        "/v1/classes".to_string(),
        "/v1/flips?since_epoch=0".to_string(),
        "/v1/flips?since_epoch=3".to_string(),
        "/v1/epochs".to_string(),
        "/v1/reclassify?uniform=0.8".to_string(),
    ];
    for asn in asns.iter().take(8) {
        seq.push(format!("/v1/class/{asn}"));
        seq.push(format!("/v1/class/{asn}?epoch=2"));
        seq.push(format!("/v1/history/{asn}"));
    }
    seq.push("/v1/stats".to_string());
    seq
}

/// Run the archived ingest to completion and return the served state.
fn run_archived(
    dir: &Path,
    resume: Option<Arc<ServeSnapshot>>,
) -> (Arc<SnapshotSlot>, Arc<Metrics>, IngestReport) {
    let slot = Arc::new(SnapshotSlot::new(Thresholds::default()));
    let metrics = isolated_metrics();
    if let Some(snap) = &resume {
        slot.publish(Arc::clone(snap));
    }
    let sink = ArchiveSink::spawn(ArchiveWriter::open(dir).unwrap());
    let report = spawn_ingest_archived(
        cfg(),
        Feed::Events(world_events()),
        Arc::clone(&slot),
        Arc::clone(&metrics),
        Some(sink),
        resume,
    )
    .join()
    .expect("archived ingest succeeds");
    (slot, metrics, report)
}

fn api_with_history(dir: &Path, slot: &Arc<SnapshotSlot>, metrics: &Arc<Metrics>) -> Api {
    let history = HistoryStore::open(dir, cfg().flip_log_cap).unwrap();
    Api::new(Arc::clone(slot), Arc::clone(metrics)).with_history(Arc::new(history))
}

// ---------------------------------------------------------------- tests

#[test]
fn restart_serves_byte_identical_responses() {
    let dir = tmp_dir("identical");

    // The daemon that never stops: ingest everything, archive everything.
    let (slot, metrics, report) = run_archived(&dir, None);
    assert!(
        report.epochs >= 4,
        "world too small: {} epochs",
        report.epochs
    );
    assert_eq!(report.archived_epochs, report.epochs as u64);
    let live = slot.load();
    let asns: Vec<u32> = live.records.iter().map(|r| r.asn.0).collect();
    assert!(asns.len() >= 4, "world too small: {} records", asns.len());
    let api = api_with_history(&dir, &slot, &metrics);
    let sequence = request_sequence(&asns);
    let expected: Vec<(u16, String)> = sequence.iter().map(|t| get(&api, t)).collect();

    // "Restart": a fresh process boots from the archive alone. The whole
    // sequence is answered BEFORE any feed backfill — restore is the
    // boot path, replay is background catch-up.
    let slot2 = Arc::new(SnapshotSlot::new(Thresholds::default()));
    let metrics2 = isolated_metrics();
    let boot = Instant::now();
    let archive = Archive::open(&dir).unwrap();
    let restored = restore_latest(&archive, cfg().flip_log_cap)
        .unwrap()
        .expect("archive holds epochs");
    slot2.publish(Arc::clone(&restored));
    let api2 = api_with_history(&dir, &slot2, &metrics2);
    let mut actual = vec![get(&api2, &sequence[0])];
    let boot_elapsed = boot.elapsed();
    for target in &sequence[1..] {
        actual.push(get(&api2, target));
    }
    assert!(
        boot_elapsed < Duration::from_millis(100),
        "boot-to-first-answer took {boot_elapsed:?}"
    );
    for (target, (exp, act)) in sequence.iter().zip(expected.iter().zip(&actual)) {
        assert_eq!(exp.0, act.0, "status diverged on {target}");
        assert_eq!(
            without_uptime(&exp.1),
            without_uptime(&act.1),
            "body diverged on {target}"
        );
    }

    // Backfill: the same deterministic feed replays underneath. Nothing
    // is re-archived, the version never moves, the records stay equal.
    let sink = ArchiveSink::spawn(ArchiveWriter::open(&dir).unwrap());
    let report2 = spawn_ingest_archived(
        cfg(),
        Feed::Events(world_events()),
        Arc::clone(&slot2),
        Arc::new(Metrics::new()),
        Some(sink),
        Some(restored),
    )
    .join()
    .unwrap();
    assert_eq!(report2.archived_epochs, 0, "backfill re-archives nothing");
    let after = slot2.load();
    assert_eq!(after.version(), live.version());
    assert_eq!(after.records, live.records);
    // Snapshot-derived bodies are still byte-identical post-backfill.
    for target in ["/healthz", "/v1/classes", "/v1/flips?since_epoch=0"] {
        let idx = sequence.iter().position(|t| t == target).unwrap();
        assert_eq!(
            get(&api2, target).1,
            expected[idx].1,
            "{target} after backfill"
        );
    }
    fs::remove_dir_all(&dir).unwrap();
}

/// One boot with the daemon's wiring: one registry for the metrics, the
/// archive writer and its sink; the restore of whatever the archive
/// holds; then the feed, backfilling past it.
fn boot(dir: &Path) -> (Arc<SnapshotSlot>, Arc<Metrics>, IngestReport) {
    let obs = Arc::new(obs::ObsRegistry::new());
    let metrics = Arc::new(Metrics::with_registry(Arc::clone(&obs)));
    let slot = Arc::new(SnapshotSlot::new(Thresholds::default()));
    let archive = Archive::open(dir).unwrap();
    let restored = restore_latest(&archive, cfg().flip_log_cap).unwrap();
    if let Some(snap) = &restored {
        slot.publish(Arc::clone(snap));
    }
    let writer = ArchiveWriter::open_with_io(dir, Box::new(RealIo), obs).unwrap();
    let report = spawn_ingest_archived(
        cfg(),
        Feed::Events(world_events()),
        Arc::clone(&slot),
        Arc::clone(&metrics),
        Some(ArchiveSink::spawn(writer)),
        restored,
    )
    .join()
    .expect("archived ingest succeeds");
    (slot, metrics, report)
}

#[test]
fn a_backfilled_epoch_serves_its_archived_trace() {
    let dir = tmp_dir("trace");
    let trace = |api: &Api, epoch: usize| {
        let (status, body) = get(api, &format!("/v1/debug/epoch/{epoch}/trace"));
        assert_eq!(status, 200, "epoch {epoch}: {body}");
        body
    };
    let tail = |body: &str| body[body.find("\"stage_count\":").unwrap()..].to_string();

    // First boot: every epoch is published, traced and archived.
    let (slot, metrics, report) = boot(&dir);
    assert_eq!(report.archived_epochs, report.epochs as u64);
    let api = api_with_history(&dir, &slot, &metrics);
    let first: Vec<String> = (0..report.epochs).map(|e| trace(&api, e)).collect();
    for body in &first {
        assert!(body.contains("\"source\":\"live\""), "{body}");
    }
    // ingest, seal, shard_count, shard_merge, publish, archive.
    assert!(first[0].contains("\"stage_count\":6"), "{}", first[0]);

    // Second boot: the backfill seals every epoch again and publishes
    // none, so each answers from the archive, as the first boot traced it.
    let (slot, metrics, again) = boot(&dir);
    assert_eq!(again.archived_epochs, 0, "the backfill re-archives nothing");
    assert_eq!(
        again.epochs, report.epochs,
        "the backfill seals every epoch"
    );
    let api = api_with_history(&dir, &slot, &metrics);
    for (epoch, body) in first.iter().enumerate() {
        let restarted = trace(&api, epoch);
        assert!(restarted.contains("\"source\":\"archive\""), "{restarted}");
        assert_eq!(tail(&restarted), tail(body), "epoch {epoch}");
    }
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn time_travel_matches_batch_replay_oracle() {
    let dir = tmp_dir("oracle");
    let (slot, metrics, _report) = run_archived(&dir, None);
    let api = api_with_history(&dir, &slot, &metrics);

    // The oracle: the same events through an independent batch pipeline,
    // keeping every per-epoch snapshot (no history compaction).
    let mut pipe = StreamPipeline::new(cfg().stream);
    for ev in world_events() {
        pipe.push(ev);
    }
    if pipe.latest().map(|s| s.total_events) != Some(pipe.total_events()) {
        pipe.seal_epoch();
    }
    let out = pipe.finish();
    let live = slot.load();
    assert_eq!(out.snapshots.len() as u64, live.version());

    // `/v1/class/{asn}?epoch=N` byte-matches a record built straight
    // from the oracle epoch's dense counters + class table.
    for snap in &out.snapshots {
        let dense = snap.dense.as_ref().expect("oracle keeps history");
        for &(asn, class) in snap.classes.iter() {
            let id = match dense.by_asn.binary_search_by_key(&asn, |&(a, _)| a) {
                Ok(i) => dense.by_asn[i].1,
                Err(_) => continue,
            };
            let c = &dense.counters[id as usize];
            if c.t == 0 && c.s == 0 && c.f == 0 && c.c == 0 {
                continue; // zero-counter ASes are not in the record table
            }
            let (status, body) = get(&api, &format!("/v1/class/{}?epoch={}", asn.0, snap.epoch));
            assert_eq!(status, 200, "asn {asn} epoch {}", snap.epoch);
            assert_eq!(
                body,
                format!(
                    "{{\"version\":{},\"epoch\":{},\"record\":{{\"asn\":{},\"class\":\"{class}\",\
                     \"counters\":{{\"t\":{},\"s\":{},\"f\":{},\"c\":{}}}}}}}",
                    snap.version, snap.epoch, asn.0, c.t, c.s, c.f, c.c
                )
            );
        }
    }

    // `/v1/history/{asn}` equals the class trajectory read off the
    // oracle's per-epoch class tables.
    let last = out.snapshots.last().unwrap();
    for &(asn, _) in last.classes.iter() {
        let mut history = String::new();
        for (i, snap) in out.snapshots.iter().enumerate() {
            if i > 0 {
                history.push(',');
            }
            let class = snap
                .classes
                .binary_search_by_key(&asn, |&(a, _)| a)
                .ok()
                .map(|i| snap.classes[i].1);
            match class {
                Some(c) => {
                    history.push_str(&format!("{{\"epoch\":{},\"class\":\"{c}\"}}", snap.epoch))
                }
                None => history.push_str(&format!("{{\"epoch\":{},\"class\":null}}", snap.epoch)),
            }
        }
        let (status, body) = get(&api, &format!("/v1/history/{}", asn.0));
        assert_eq!(status, 200);
        assert_eq!(
            body,
            format!(
                "{{\"version\":{},\"epoch\":{},\"asn\":{},\"count\":{},\"history\":[{history}]}}",
                live.version(),
                last.epoch,
                asn.0,
                out.snapshots.len(),
            )
        );
    }
    fs::remove_dir_all(&dir).unwrap();
}

// ----------------------------------------------------- crash proptest

/// The never-crashed run every truncated restart must converge back to.
struct Baseline {
    pristine: Vec<(String, Vec<u8>)>,
    live: Arc<ServeSnapshot>,
    last_epoch: u64,
    classes_body: String,
    flips_body: String,
}

fn baseline() -> &'static Baseline {
    static BASELINE: OnceLock<Baseline> = OnceLock::new();
    BASELINE.get_or_init(|| {
        let dir = tmp_dir("baseline");
        let (slot, metrics, report) = run_archived(&dir, None);
        let live = slot.load();
        let api = Api::new(Arc::clone(&slot), metrics);
        let pristine = fs::read_dir(&dir)
            .unwrap()
            .map(|e| {
                let e = e.unwrap();
                (
                    e.file_name().to_string_lossy().into_owned(),
                    fs::read(e.path()).unwrap(),
                )
            })
            .collect();
        let classes_body = get(&api, "/v1/classes").1;
        let flips_body = get(&api, "/v1/flips?since_epoch=0").1;
        let out = Baseline {
            pristine,
            live,
            last_epoch: report.epochs as u64 - 1,
            classes_body,
            flips_body,
        };
        fs::remove_dir_all(&dir).unwrap();
        out
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Crash model: the most recent write is damaged — the tail segment
    /// is truncated at an arbitrary byte offset, and (half the time) the
    /// manifest additionally predates that segment (crash between the
    /// segment rename and the manifest commit). `Archive::open` must
    /// recover to the longest intact prefix, and a restarted daemon,
    /// after its deterministic backfill, must serve exactly what the
    /// never-crashed daemon serves — re-archiving exactly the epochs the
    /// crash destroyed.
    #[test]
    fn truncated_tail_recovers_and_converges(
        cut in any::<prop::sample::Index>(),
        rollback in any::<bool>(),
    ) {
        let b = baseline();
        let dir = tmp_dir("crash");
        for (name, bytes) in &b.pristine {
            fs::write(dir.join(name), bytes).unwrap();
        }
        let manifest = Manifest::load(&dir).unwrap();
        let tail = manifest.entries.last().unwrap().clone();
        let tail_bytes = fs::read(dir.join(&tail.file)).unwrap();
        fs::write(dir.join(&tail.file), &tail_bytes[..cut.index(tail_bytes.len())]).unwrap();
        if rollback {
            Manifest { entries: manifest.entries[..manifest.entries.len() - 1].to_vec() }
                .store(&dir)
                .unwrap();
        }

        // Recovery: open repairs the manifest to the last complete epoch
        // and the archive verifies clean.
        let archive = Archive::open(&dir).unwrap();
        let report = archive.verify();
        prop_assert!(report.is_ok(), "after recovery: {:?}", report.problems);
        let recovered_last = archive.manifest().last_epoch();
        prop_assert!(recovered_last < Some(b.last_epoch), "tail epoch must be lost");
        let lost = b.last_epoch + 1 - recovered_last.map_or(0, |e| e + 1);

        // Restart: restore what survived, backfill the same feed.
        let restored = restore_latest(&archive, cfg().flip_log_cap).unwrap();
        prop_assert_eq!(restored.as_ref().map(|s| s.epoch_id().unwrap()), recovered_last);
        let (slot, _, report) = run_archived(&dir, restored);
        prop_assert_eq!(report.archived_epochs, lost, "re-archives exactly the lost epochs");

        // Convergence: the served state equals the never-crashed run.
        let after = slot.load();
        prop_assert_eq!(after.version(), b.live.version());
        prop_assert_eq!(&after.records, &b.live.records);
        let api = Api::new(Arc::clone(&slot), Arc::new(Metrics::new()));
        prop_assert_eq!(get(&api, "/v1/classes").1, b.classes_body.clone());
        prop_assert_eq!(get(&api, "/v1/flips?since_epoch=0").1, b.flips_body.clone());

        // And so does the repaired archive itself.
        let archive = Archive::open(&dir).unwrap();
        prop_assert_eq!(archive.manifest().last_epoch(), Some(b.last_epoch));
        prop_assert!(archive.verify().is_ok());
        fs::remove_dir_all(&dir).unwrap();
    }
}
