//! End-to-end integration: `bgp-serve` over real loopback TCP.
//!
//! A raw `TcpStream` client (no HTTP library — the responses are checked
//! as bytes on the wire) drives every endpoint against a served world
//! and compares each JSON body **byte-for-byte** against an oracle
//! derived from `bgp_infer::db::records` over an independently-run
//! replica pipeline. A final test hammers the server from several
//! keep-alive connections while the ingest driver seals epochs,
//! asserting responses stay internally consistent and versions monotone.

use bgp_infer::counters::Thresholds;
use bgp_infer::db::DbRecord;
use bgp_serve::prelude::*;
use bgp_stream::epoch::EpochPolicy;
use bgp_stream::pipeline::{StreamConfig, StreamPipeline};
use bgp_types::prelude::*;
use std::fmt::Write as _;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;

mod support;
use support::Client;

// ----------------------------------------------------------- the world

/// Deterministic event list exercising every class: AS5 tagger/forwarded,
/// AS1 tagger, AS2 silent, AS3 contradictory (undecided).
fn world_events() -> Vec<bgp_stream::ingest::StreamEvent> {
    let mk = |p: &[u32], tags: &[u32]| {
        PathCommTuple::new(
            path(p),
            CommunitySet::from_iter(tags.iter().map(|&a| AnyCommunity::tag_for(Asn(a), 100))),
        )
    };
    let mut tuples: Vec<PathCommTuple> = Vec::new();
    for i in 0..6u32 {
        tuples.push(mk(&[5, 900 + i], &[5]));
        tuples.push(mk(&[1, 5, 900 + i], &[1, 5]));
    }
    for i in 0..4u32 {
        tuples.push(mk(&[2, 900 + i], &[]));
    }
    tuples.push(mk(&[3, 901], &[3]));
    tuples.push(mk(&[3, 902], &[]));
    tuples
        .into_iter()
        .enumerate()
        .map(|(i, t)| bgp_stream::ingest::StreamEvent::new(i as u64, t))
        .collect()
}

const EPOCH_EVENTS: u64 = 7;

fn stream_config() -> StreamConfig {
    StreamConfig {
        shards: 2,
        epoch: EpochPolicy::every_events(EPOCH_EVENTS),
        ..Default::default()
    }
}

/// The oracle: the same events through an independent pipeline, plus its
/// final record table.
struct Oracle {
    records: Vec<DbRecord>,
    outcome: bgp_stream::outcome::StreamOutcome,
}

fn oracle() -> Oracle {
    let mut pipe = StreamPipeline::new(stream_config());
    for ev in world_events() {
        pipe.push(ev);
    }
    // Mirror the driver: seal the trailing partial epoch explicitly.
    if pipe.latest().map(|s| s.total_events) != Some(pipe.total_events()) {
        pipe.seal_epoch();
    }
    let outcome = pipe.finish();
    Oracle {
        records: outcome.records().to_vec(),
        outcome,
    }
}

/// Start a served copy of the world: ingest runs to completion before
/// the tests query, so the served snapshot equals the oracle's final
/// state. The metrics live on a registry of their own, so the request
/// and event counts asserted below are this world's alone.
fn served() -> (HttpServer, Arc<SnapshotSlot>, Arc<Metrics>, IngestReport) {
    let slot = Arc::new(SnapshotSlot::new(Thresholds::default()));
    let metrics = Arc::new(Metrics::with_registry(Arc::new(obs::ObsRegistry::new())));
    let report = spawn_ingest_archived(
        DriverConfig {
            stream: stream_config(),
            batch: 5,
            flip_log_cap: 100_000,
            ..Default::default()
        },
        Feed::Events(world_events()),
        Arc::clone(&slot),
        Arc::clone(&metrics),
        None,
        None,
    )
    .join()
    .expect("ingest succeeds");
    let http = HttpServer::start(
        HttpConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            ..Default::default()
        },
        Arc::new(Api::new(Arc::clone(&slot), Arc::clone(&metrics))),
    )
    .expect("bind loopback");
    (http, slot, metrics, report)
}

/// `{"asn":5,"class":"tf","counters":{"t":1,"s":0,"f":2,"c":0}}` — the
/// wire shape of one record, built independently of the serve encoder.
fn record_json(r: &DbRecord) -> String {
    format!(
        "{{\"asn\":{},\"class\":\"{}\",\"counters\":{{\"t\":{},\"s\":{},\"f\":{},\"c\":{}}}}}",
        r.asn.0, r.class, r.counters.t, r.counters.s, r.counters.f, r.counters.c
    )
}

fn envelope(oracle: &Oracle) -> String {
    let last = oracle.outcome.snapshots.last().expect("at least one epoch");
    format!("{{\"version\":{},\"epoch\":{}", last.version, last.epoch)
}

// ---------------------------------------------------------------- tests

#[test]
fn every_endpoint_matches_the_records_oracle() {
    let oracle = oracle();
    let (http, _slot, _metrics, report) = served();
    assert_eq!(report.total_events, world_events().len() as u64);
    assert_eq!(report.epochs, oracle.outcome.snapshots.len());
    let mut client = Client::connect(http.local_addr());
    let env = envelope(&oracle);

    // /healthz
    let (status, body) = client.get("/healthz");
    assert_eq!(status, 200);
    assert_eq!(body, format!("{env},\"status\":\"ok\"}}"));

    // /v1/class/{asn}: byte-for-byte for every counted AS.
    for r in &oracle.records {
        let (status, body) = client.get(&format!("/v1/class/{}", r.asn.0));
        assert_eq!(status, 200);
        assert_eq!(body, format!("{env},\"record\":{}}}", record_json(r)));
    }
    // Unknown and malformed ASNs.
    let (status, body) = client.get("/v1/class/4000000000");
    assert_eq!(status, 404);
    assert_eq!(
        body,
        "{\"error\":\"asn not in the classification database\"}"
    );
    let (status, _) = client.get("/v1/class/xyz");
    assert_eq!(status, 400);

    // /v1/classes: the whole table.
    let all: Vec<String> = oracle.records.iter().map(record_json).collect();
    let (status, body) = client.get("/v1/classes");
    assert_eq!(status, 200);
    assert_eq!(
        body,
        format!(
            "{env},\"offset\":0,\"total\":{n},\"count\":{n},\"records\":[{}]}}",
            all.join(","),
            n = oracle.records.len(),
        )
    );

    // /v1/classes?class=: filtered per distinct class in the world.
    let mut classes: Vec<String> = oracle
        .records
        .iter()
        .map(|r| r.class.as_str().to_string())
        .collect();
    classes.sort();
    classes.dedup();
    assert!(
        classes.len() >= 2,
        "world should span several classes: {classes:?}"
    );
    for class in classes {
        let matching: Vec<String> = oracle
            .records
            .iter()
            .filter(|r| r.class.as_str() == class)
            .map(record_json)
            .collect();
        let (status, body) = client.get(&format!("/v1/classes?class={class}"));
        assert_eq!(status, 200);
        assert_eq!(
            body,
            format!(
                "{env},\"offset\":0,\"total\":{n},\"count\":{n},\"records\":[{}]}}",
                matching.join(","),
                n = matching.len(),
            )
        );
    }

    // /v1/community/{asn}:{value} — dictionary over the record table.
    let tagger = oracle
        .records
        .iter()
        .find(|r| r.class.tagging == bgp_infer::classify::TaggingClass::Tagger)
        .expect("world has a tagger");
    let (status, body) = client.get(&format!("/v1/community/{}:100", tagger.asn.0));
    assert_eq!(status, 200);
    assert_eq!(
        body,
        format!(
            "{env},\"community\":\"{a}:100\",\"owner\":{a},\"verdict\":\"attributable\",\
             \"well_known\":null,\"owner_record\":{}}}",
            record_json(tagger),
            a = tagger.asn.0,
        )
    );
    let (status, body) = client.get("/v1/community/65535:65281");
    assert_eq!(status, 200);
    assert_eq!(
        body,
        format!(
            "{env},\"community\":\"65535:65281\",\"owner\":65535,\"verdict\":\"well-known\",\
             \"well_known\":{{\"name\":\"NO_EXPORT\",\"rfc\":\"RFC1997\",\
             \"default_action\":true}},\"owner_record\":null}}"
        )
    );
    let (status, _) = client.get("/v1/community/not-a-community");
    assert_eq!(status, 400);

    // /v1/flips?since_epoch=0 — the full history, from the epoch diffs.
    let mut flips_json = String::new();
    let mut flip_count = 0usize;
    for snap in &oracle.outcome.snapshots {
        for f in snap.flips.iter() {
            if flip_count > 0 {
                flips_json.push(',');
            }
            let _ = write!(
                flips_json,
                "{{\"epoch\":{},\"asn\":{},\"from\":\"{}\",\"to\":\"{}\"}}",
                snap.epoch, f.asn.0, f.from, f.to
            );
            flip_count += 1;
        }
    }
    assert!(flip_count > 0, "the world must produce flips");
    let (status, body) = client.get("/v1/flips?since_epoch=0");
    assert_eq!(status, 200);
    assert_eq!(
        body,
        format!(
            "{env},\"since_epoch\":0,\"complete\":true,\"count\":{flip_count},\
             \"flips\":[{flips_json}]}}"
        )
    );
    // since_epoch beyond the last epoch: empty but complete.
    let last_epoch = oracle.outcome.snapshots.last().unwrap().epoch;
    let (_, body) = client.get(&format!("/v1/flips?since_epoch={}", last_epoch + 1));
    assert_eq!(
        body,
        format!(
            "{env},\"since_epoch\":{},\"complete\":true,\"count\":0,\"flips\":[]}}",
            last_epoch + 1
        )
    );

    // /v1/reclassify?uniform=0.5 — what-if against AsCounters::classify.
    let relaxed = Thresholds::uniform(0.5);
    let mut histogram: std::collections::BTreeMap<String, u64> = Default::default();
    let mut changed: Vec<String> = Vec::new();
    for r in &oracle.records {
        let new_class = r.counters.classify(&relaxed);
        *histogram.entry(new_class.as_str().to_string()).or_insert(0) += 1;
        if new_class != r.class {
            changed.push(format!(
                "{{\"asn\":{},\"from\":\"{}\",\"to\":\"{}\"}}",
                r.asn.0, r.class, new_class
            ));
        }
    }
    let histogram_json: Vec<String> = histogram
        .iter()
        .map(|(k, v)| format!("\"{k}\":{v}"))
        .collect();
    let (status, body) = client.get("/v1/reclassify?uniform=0.5&full=1");
    assert_eq!(status, 200);
    assert_eq!(
        body,
        format!(
            "{env},\"thresholds\":{{\"tagger\":0.5,\"silent\":0.5,\"forward\":0.5,\
             \"cleaner\":0.5}},\"total\":{},\"changed\":{},\"classes\":{{{}}},\
             \"records\":[{}]}}",
            oracle.records.len(),
            changed.len(),
            histogram_json.join(","),
            changed.join(","),
        )
    );

    // /v1/stats — the requests made above are part of the oracle value.
    let requests_so_far = _metrics.total_requests();
    let last = oracle.outcome.snapshots.last().unwrap();
    let shard_loads: Vec<String> = oracle
        .outcome
        .shard_loads()
        .iter()
        .map(|l| l.to_string())
        .collect();
    // Seal/count durations and replay counters are real measurements,
    // not oracle-derivable — read them off the served snapshot itself.
    let served = _slot.load();
    let served_epoch = served.epoch.as_ref().expect("served snapshot has an epoch");
    let (status, body) = client.get("/v1/stats");
    assert_eq!(status, 200);
    // Uptime is wall-clock, not oracle-derivable — check presence, then
    // excise the scalar before the byte-compare.
    let uptime_at = body.find(",\"uptime_seconds\":").expect("uptime_seconds");
    let uptime_end = uptime_at
        + 1
        + body[uptime_at + 1..]
            .find([',', '}'])
            .expect("uptime value end");
    let body = format!("{}{}", &body[..uptime_at], &body[uptime_end..]);
    assert_eq!(
        body,
        format!(
            "{env},\"sealed_at\":{},\"epoch_events\":{},\"seal_nanos\":{},\
             \"count_nanos\":{},\"total_events\":{},\
             \"unique_tuples\":{},\"duplicates\":{},\"classified\":{},\"flips_logged\":{},\
             \"interned_asns\":{},\"arena_hops\":{},\
             \"last_replay\":{{\"replayed\":{},\"total\":{}}},\"shard_loads\":[{}],\
             \"requests_total\":{requests_so_far}}}",
            last.sealed_at,
            last.events,
            served_epoch.seal_nanos,
            served_epoch.count_nanos,
            last.total_events,
            last.unique_tuples,
            oracle.outcome.duplicates(),
            oracle.records.len(),
            flip_count,
            served.ingest.interned_asns,
            served.ingest.arena_hops,
            served.ingest.replayed_steps,
            served.ingest.total_steps,
            shard_loads.join(","),
        )
    );

    // /metrics — exposition carries the snapshot gauges and the counts
    // of everything this world did.
    let (status, body) = client.get("/metrics");
    assert_eq!(status, 200);
    assert!(body.contains(&format!(
        "bgp_serve_epochs_published_total {}\n",
        oracle.outcome.snapshots.len()
    )));
    assert!(body.contains(&format!(
        "bgp_serve_snapshot_version {}",
        oracle.outcome.snapshots.last().unwrap().version
    )));
    assert!(body.contains(&format!(
        "bgp_serve_snapshot_unique_tuples {}",
        oracle.outcome.unique_tuples()
    )));
    assert!(body.contains(&format!(
        "bgp_serve_events_ingested_total {}",
        oracle.outcome.total_events()
    )));

    // Close the keep-alive connection before shutdown, or the worker
    // parked in read() on it would only notice at its read timeout.
    drop(client);
    http.shutdown();
}

#[test]
fn every_page_is_filter_then_skip_then_take() {
    use bgp_serve::api::MAX_PAGE;

    let oracle = oracle();
    let (http, _slot, _metrics, _report) = served();
    let mut client = Client::connect(http.local_addr());
    let env = envelope(&oracle);

    // No filter, then one filter of each kind, each matching some but
    // not all of the world.
    let tagger = oracle
        .records
        .iter()
        .find(|r| r.class.tagging == bgp_infer::classify::TaggingClass::Tagger)
        .expect("world has a tagger")
        .class;
    type Keep = Box<dyn Fn(&DbRecord) -> bool>;
    let filters: [(String, Keep); 4] = [
        (String::new(), Box::new(|_| true)),
        (
            format!("&class={tagger}"),
            Box::new(move |r| r.class == tagger),
        ),
        (
            format!("&tagging={}", tagger.tagging.code()),
            Box::new(move |r| r.class.tagging == tagger.tagging),
        ),
        (
            format!("&forwarding={}", tagger.forwarding.code()),
            Box::new(move |r| r.class.forwarding == tagger.forwarding),
        ),
    ];
    for (filter, keep) in &filters {
        let matching: Vec<&DbRecord> = oracle.records.iter().filter(|r| keep(r)).collect();
        let total = matching.len();
        assert!(total > 0, "{filter:?} matches nothing");
        let offsets = [0, 1, total - 1, total, total + 1, usize::MAX];
        let limits = [
            None,
            Some(0),
            Some(1),
            Some(100),
            Some(MAX_PAGE),
            Some(MAX_PAGE + 1),
        ];
        for offset in offsets {
            for limit in limits {
                let mut target = format!("/v1/classes?offset={offset}{filter}");
                if let Some(limit) = limit {
                    let _ = write!(target, "&limit={limit}");
                }
                let page: Vec<String> = matching
                    .iter()
                    .skip(offset)
                    .take(limit.unwrap_or(MAX_PAGE).min(MAX_PAGE))
                    .map(|r| record_json(r))
                    .collect();
                let (status, body) = client.get(&target);
                assert_eq!(status, 200, "{target}");
                assert_eq!(
                    body,
                    format!(
                        "{env},\"offset\":{offset},\"total\":{total},\"count\":{},\
                         \"records\":[{}]}}",
                        page.len(),
                        page.join(","),
                    ),
                    "{target}"
                );
            }
        }
    }
    drop(client);
    http.shutdown();
}

#[test]
fn keepalive_head_and_transport_limits() {
    let (http, _slot, _metrics, _report) = served();
    let addr = http.local_addr();

    // One connection, many requests (keep-alive).
    let mut client = Client::connect(addr);
    for _ in 0..32 {
        let (status, body) = client.get("/healthz");
        assert_eq!(status, 200);
        assert!(body.contains("\"status\":\"ok\""));
    }

    // HEAD: headers only, Content-Length of the would-be body.
    let (status, headers, body) = client.request("HEAD", "/healthz");
    assert_eq!(status, 200);
    assert!(body.is_empty());
    let len: usize = headers
        .iter()
        .find(|(k, _)| k == "content-length")
        .unwrap()
        .1
        .parse()
        .unwrap();
    assert!(len > 0);
    // The connection still serves GETs after the HEAD.
    let (status, body) = client.get("/healthz");
    assert_eq!(status, 200);
    assert_eq!(body.len(), len);

    // Unsupported method.
    let mut client2 = Client::connect(addr);
    let (status, _, body) = client2.request("DELETE", "/healthz");
    assert_eq!(status, 405);
    assert!(body.contains("only GET and HEAD"));

    drop(client);
    drop(client2);
    http.shutdown();

    // Oversized request head: 431 and the connection closes. A dedicated
    // server with a tiny head limit keeps the whole oversized request in
    // one segment the server fully drains, so the close is a clean FIN
    // (no RST race on the unread remainder).
    let small = HttpServer::start(
        HttpConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 1,
            max_request_bytes: 512,
            ..Default::default()
        },
        Arc::new(Api::new(
            Arc::new(SnapshotSlot::new(Thresholds::default())),
            Arc::new(Metrics::new()),
        )),
    )
    .unwrap();
    let mut stream = TcpStream::connect(small.local_addr()).unwrap();
    // No head terminator: the server keeps reading until the 512-byte
    // cap trips (draining everything we sent along the way).
    let huge = format!("GET /healthz HTTP/1.1\r\nX-Pad: {}", "x".repeat(600));
    stream.write_all(huge.as_bytes()).unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    assert!(response.starts_with("HTTP/1.1 431"), "{response}");
    small.shutdown();
}

#[test]
fn shutdown_is_prompt_despite_idle_keepalive_connection() {
    let (http, _slot, _metrics, _report) = served();
    let mut client = Client::connect(http.local_addr());
    let (status, _) = client.get("/healthz");
    assert_eq!(status, 200);
    // The connection stays open and idle: the worker parked on it must
    // notice the stop flag within a poll slice, not the 30 s idle
    // timeout.
    let started = std::time::Instant::now();
    http.shutdown();
    assert!(
        started.elapsed() < std::time::Duration::from_secs(10),
        "shutdown took {:?}",
        started.elapsed()
    );
}

#[test]
fn concurrent_queries_stay_consistent_during_epoch_seals() {
    // Serve while the driver is still ingesting: a large replayed feed
    // with a tiny epoch policy seals continuously under the queries.
    let slot = Arc::new(SnapshotSlot::new(Thresholds::default()));
    let metrics = Arc::new(Metrics::new());
    let mut events = Vec::new();
    for round in 0..60u64 {
        for ev in world_events() {
            events.push(bgp_stream::ingest::StreamEvent::new(
                round * 100 + ev.timestamp,
                ev.tuple,
            ));
        }
    }
    let total = events.len() as u64;
    let ingest = spawn_ingest_archived(
        DriverConfig {
            stream: StreamConfig {
                shards: 2,
                epoch: EpochPolicy::every_events(11),
                ..Default::default()
            },
            batch: 7,
            flip_log_cap: 100_000,
            ..Default::default()
        },
        Feed::Events(events),
        Arc::clone(&slot),
        Arc::clone(&metrics),
        None,
        None,
    );
    let http = HttpServer::start(
        HttpConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            ..Default::default()
        },
        Arc::new(Api::new(Arc::clone(&slot), Arc::clone(&metrics))),
    )
    .unwrap();
    let addr = http.local_addr();

    let readers: Vec<_> = (0..4)
        .map(|_| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr);
                let mut last_version = 0u64;
                let mut observed_versions = 0usize;
                while observed_versions < 120 {
                    let (status, body) = client.get("/v1/stats");
                    assert_eq!(status, 200);
                    // A response is a view of exactly one snapshot:
                    // version == epoch + 1 always (post-first-seal), and
                    // versions never go backwards on a connection.
                    let version = json_u64(&body, "version");
                    if let Some(epoch) = json_u64_opt(&body, "epoch") {
                        assert_eq!(version, epoch + 1, "torn envelope: {body}");
                    } else {
                        assert_eq!(version, 0, "epoch null but version set: {body}");
                    }
                    assert!(version >= last_version, "version went backwards: {body}");
                    assert!(
                        json_u64(&body, "classified") == 0 || version > 0,
                        "records served before any seal: {body}"
                    );
                    last_version = version;
                    observed_versions += 1;
                }
                last_version
            })
        })
        .collect();

    let report = ingest.join().expect("ingest ok");
    assert_eq!(report.total_events, total);
    for r in readers {
        let final_version = r.join().expect("reader ok");
        assert!(final_version <= report.epochs as u64);
    }
    // After ingest, everyone sees the final epoch.
    let mut client = Client::connect(addr);
    let (_, body) = client.get("/healthz");
    assert_eq!(json_u64(&body, "version"), report.epochs as u64);
    drop(client);
    http.shutdown();
}

/// Extract `"name":123` from a flat JSON body (test-grade parsing).
fn json_u64(body: &str, name: &str) -> u64 {
    json_u64_opt(body, name).unwrap_or_else(|| panic!("{name} not found in {body}"))
}

fn json_u64_opt(body: &str, name: &str) -> Option<u64> {
    let key = format!("\"{name}\":");
    let start = body.find(&key)? + key.len();
    let rest = &body[start..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}
