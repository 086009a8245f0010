//! The observability surface, end to end over loopback TCP.
//!
//! A full world (ingest driver + archive sink + HTTP server) runs to
//! completion, then a raw-socket client:
//!
//! * scrapes `/metrics` and **parses the text back** — every family
//!   must carry a `# HELP` / `# TYPE` preamble, histogram buckets must
//!   be cumulative-monotone and end at `+Inf`, `_count` must equal the
//!   `+Inf` bucket, and `_sum` must be present — and the stage-latency
//!   histogram families added by the obs layer must all be live;
//! * hits `/v1/debug/timings` and asserts the seal/publish/archive
//!   stages report real observations with ordered quantiles;
//! * pins the surface: `/v1/debug/trace` and `/v1/debug/timeseries`
//!   are gone (404, metered as `other`), and the `endpoint` labels on
//!   `/metrics` are exactly the routes that exist.

use bgp_archive::prelude::*;
use bgp_infer::counters::Thresholds;
use bgp_serve::driver::spawn_ingest_archived;
use bgp_serve::prelude::*;
use bgp_stream::epoch::EpochPolicy;
use bgp_stream::ingest::StreamEvent;
use bgp_stream::pipeline::StreamConfig;
use bgp_types::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;

mod support;
use support::{tmp_dir, Client};

// ----------------------------------------------------------- the world

fn world_events() -> Vec<StreamEvent> {
    let mut state = 0x0123_4567_89AB_CDEFu64;
    let mut rng = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    (0..60u64)
        .map(|i| {
            let r = rng();
            let origin = 8_000 + (i / 4) as u32;
            let tagger = 64_500 + (r % 5) as u32;
            let comms = if r % 9 == 0 {
                CommunitySet::from_iter([])
            } else {
                CommunitySet::from_iter([AnyCommunity::tag_for(Asn(tagger), (r % 700) as u32)])
            };
            let tuple = PathCommTuple::new(path(&[100, tagger, origin]), comms);
            StreamEvent::new(5 * i + 1, tuple)
        })
        .collect()
}

/// Run the full observable stack — archived ingest to completion, then
/// a live HTTP server — every layer on one registry, as the daemon
/// builds it, and return it, a connected client and the ingest report.
fn served() -> (HttpServer, Client, IngestReport) {
    let slot = Arc::new(SnapshotSlot::new(Thresholds::default()));
    let metrics = Arc::new(Metrics::new());
    let obs = Arc::clone(metrics.registry());
    let dir = tmp_dir("obs");
    let writer = ArchiveWriter::open_with_io(&dir, Box::new(RealIo), Arc::clone(&obs))
        .expect("open archive");
    let sink = ArchiveSink::spawn(writer);
    let report = spawn_ingest_archived(
        DriverConfig {
            stream: StreamConfig {
                shards: 2,
                epoch: EpochPolicy::every_events(16),
                ..Default::default()
            },
            batch: 8,
            flip_log_cap: 100_000,
            ..Default::default()
        },
        Feed::Events(world_events()),
        Arc::clone(&slot),
        Arc::clone(&metrics),
        Some(sink),
        None,
    )
    .join()
    .expect("ingest succeeds");
    let http = HttpServer::start(
        HttpConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            registry: obs,
            ..Default::default()
        },
        Arc::new(Api::new(slot, metrics)),
    )
    .expect("bind loopback");
    let client = Client::connect(http.local_addr());
    (http, client, report)
}

// ------------------------------------------- Prometheus text parse-back

#[derive(Debug, Default)]
struct Family {
    help: bool,
    kind: String,
    /// Sample lines in exposition order: (full label part, value).
    samples: Vec<(String, f64)>,
}

/// Parse text-format v0.0.4 into families, panicking on any line that
/// is not a comment, a blank, or a `name{labels} value` sample whose
/// name (sans `_bucket`/`_sum`/`_count` suffix for histograms) has
/// already been declared by a HELP/TYPE preamble above it.
fn parse_families(text: &str) -> BTreeMap<String, Family> {
    let mut families: BTreeMap<String, Family> = BTreeMap::new();
    for line in text.lines() {
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let name = rest.split_whitespace().next().expect("HELP name");
            assert!(
                rest.len() > name.len() + 1,
                "HELP line for {name} has no help text"
            );
            families.entry(name.to_string()).or_default().help = true;
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut it = rest.split_whitespace();
            let name = it.next().expect("TYPE name");
            let kind = it.next().expect("TYPE kind");
            assert!(
                matches!(kind, "counter" | "gauge" | "histogram"),
                "unknown TYPE {kind} for {name}"
            );
            let fam = families.entry(name.to_string()).or_default();
            assert!(fam.help, "TYPE for {name} precedes its HELP");
            assert!(fam.kind.is_empty(), "duplicate TYPE for {name}");
            fam.kind = kind.to_string();
            continue;
        }
        assert!(!line.starts_with('#'), "unexpected comment: {line}");
        // Sample: `name value` or `name{labels} value`.
        let (name_labels, value) = line.rsplit_once(' ').expect("sample has a value");
        let value: f64 = value.parse().unwrap_or_else(|e| {
            panic!("non-numeric sample value in {line:?}: {e}");
        });
        let (name, labels) = match name_labels.split_once('{') {
            Some((n, l)) => (n, format!("{{{l}")),
            None => (name_labels, String::new()),
        };
        let family = name
            .strip_suffix("_bucket")
            .or_else(|| name.strip_suffix("_sum"))
            .or_else(|| name.strip_suffix("_count"))
            .filter(|f| families.get(*f).is_some_and(|fam| fam.kind == "histogram"))
            .unwrap_or(name);
        let fam = families
            .get_mut(family)
            .unwrap_or_else(|| panic!("sample {name} has no HELP/TYPE preamble"));
        assert!(!fam.kind.is_empty(), "sample {name} precedes its TYPE");
        let suffix = name.strip_prefix(family).unwrap_or("");
        fam.samples.push((format!("{suffix}{labels}"), value));
    }
    families
}

/// The `le` bound of a bucket sample key like `_bucket{kind="full",le="0.5"}`.
fn le_bound(sample_key: &str) -> Option<f64> {
    let le = sample_key.split("le=\"").nth(1)?.split('"').next()?;
    Some(if le == "+Inf" {
        f64::INFINITY
    } else {
        le.parse().expect("numeric le bound")
    })
}

/// Split a sample key into its (`_bucket`/`_sum`/`_count`) suffix and
/// label part.
fn split_key(key: &str) -> (&str, &str) {
    match key.find('{') {
        Some(i) => (&key[..i], &key[i..]),
        None => (key, ""),
    }
}

/// Strip the `le` label: the series key a sample belongs to.
fn series_of(labels: &str) -> String {
    labels
        .trim_matches(|c| c == '{' || c == '}')
        .split(',')
        .filter(|kv| !kv.is_empty() && !kv.starts_with("le="))
        .collect::<Vec<&str>>()
        .join(",")
}

fn validate_histogram(name: &str, fam: &Family) {
    // Group buckets / sums / counts by label series.
    let mut buckets: BTreeMap<String, Vec<(f64, f64)>> = BTreeMap::new();
    let mut sums: BTreeMap<String, f64> = BTreeMap::new();
    let mut counts: BTreeMap<String, f64> = BTreeMap::new();
    for (key, value) in &fam.samples {
        let (suffix, labels) = split_key(key);
        match suffix {
            "_bucket" => {
                let le = le_bound(key).unwrap_or_else(|| panic!("{name} bucket without le: {key}"));
                buckets
                    .entry(series_of(labels))
                    .or_default()
                    .push((le, *value));
            }
            "_sum" => {
                sums.insert(series_of(labels), *value);
            }
            "_count" => {
                counts.insert(series_of(labels), *value);
            }
            other => panic!("{name}: unexpected histogram sample suffix {other:?}"),
        }
    }
    assert!(!buckets.is_empty(), "{name}: histogram with no buckets");
    for (series, bs) in &buckets {
        let mut prev_le = f64::NEG_INFINITY;
        let mut prev_cum = 0.0;
        for &(le, cum) in bs {
            assert!(le > prev_le, "{name}{series}: le bounds not increasing");
            assert!(
                cum >= prev_cum,
                "{name}{series}: bucket counts not cumulative-monotone"
            );
            prev_le = le;
            prev_cum = cum;
        }
        let (last_le, last_cum) = *bs.last().unwrap();
        assert_eq!(
            last_le,
            f64::INFINITY,
            "{name}{series}: last bucket must be +Inf"
        );
        let count = counts
            .get(series)
            .unwrap_or_else(|| panic!("{name}{series}: missing _count"));
        assert_eq!(
            *count, last_cum,
            "{name}{series}: _count disagrees with +Inf bucket"
        );
        let sum = sums
            .get(series)
            .unwrap_or_else(|| panic!("{name}{series}: missing _sum"));
        assert!(*sum >= 0.0, "{name}{series}: negative _sum");
        if *count > 0.0 {
            assert!(
                *sum > 0.0,
                "{name}{series}: observations but zero _sum (sub-nanosecond stages?)"
            );
        }
    }
}

/// Stage-latency families the obs layer adds to the exposition. Each is
/// exercised by the archived-ingest world above, so they must all be
/// present *and live* (at least one observation).
const OBS_HISTOGRAMS: [&str; 8] = [
    "bgp_stream_seal_duration_seconds",
    "bgp_stream_count_duration_seconds",
    "bgp_stream_merge_duration_seconds",
    "bgp_stream_recount_duration_seconds",
    "bgp_serve_publish_duration_seconds",
    "bgp_serve_ingest_batch_duration_seconds",
    "bgp_archive_append_duration_seconds",
    "bgp_serve_http_request_duration_seconds",
];

#[test]
fn metrics_exposition_parses_back_and_is_live() {
    let (http, mut client, report) = served();
    // One request before the scrape so the http-request histogram has
    // at least one completed observation.
    let (status, _) = client.get("/v1/stats");
    assert_eq!(status, 200);
    let (status, text) = client.get("/metrics");
    assert_eq!(status, 200);

    let families = parse_families(&text);
    for (name, fam) in &families {
        assert!(fam.help, "{name}: missing HELP");
        assert!(!fam.kind.is_empty(), "{name}: missing TYPE");
        if fam.kind == "histogram" {
            validate_histogram(name, fam);
        } else {
            assert!(!fam.samples.is_empty(), "{name}: family with no samples");
        }
    }

    for name in OBS_HISTOGRAMS {
        let fam = families
            .get(name)
            .unwrap_or_else(|| panic!("obs family {name} missing from /metrics"));
        assert_eq!(fam.kind, "histogram", "{name}: wrong TYPE");
        let observed: f64 = fam
            .samples
            .iter()
            .filter(|(k, _)| k.starts_with("_count"))
            .map(|(_, v)| v)
            .sum();
        assert!(observed > 0.0, "{name}: present but never observed");
    }

    // Archive counters/gauges are part of the same exposition.
    for name in [
        "bgp_archive_segments_appended_total",
        "bgp_archive_bytes_written_total",
        "bgp_archive_sink_queue_depth",
        "bgp_archive_sink_failed",
    ] {
        assert!(families.contains_key(name), "{name} missing from /metrics");
    }
    let appended = families["bgp_archive_segments_appended_total"].samples[0].1;
    assert!(appended >= 1.0, "no segments appended during the run");
    // This world's sink drained clean: every sealed epoch committed,
    // none dropped, and its own gauges say so.
    assert!(report.epochs > 1, "{report:?}");
    assert_eq!(report.archived_epochs, report.epochs as u64, "{report:?}");
    assert_eq!(report.archive_dropped, 0, "{report:?}");
    for line in [
        "bgp_archive_sink_queue_depth 0",
        "bgp_archive_sink_failed 0",
        "bgp_archive_epochs_dropped_total 0",
    ] {
        assert!(text.lines().any(|l| l == line), "missing {line:?}");
    }

    http.shutdown();
}

// ------------------------------------------------------ debug endpoints

/// Pull `"field":<number>` out of a JSON body (flat, no nesting smarts).
fn json_u64(body: &str, field: &str) -> Option<u64> {
    let at = body.find(&format!("\"{field}\":"))?;
    let rest = &body[at + field.len() + 3..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

#[test]
fn debug_timings_reports_live_stage_latencies() {
    let (http, mut client, _) = served();
    let (status, body) = client.get("/v1/debug/timings");
    assert_eq!(status, 200);
    for family in OBS_HISTOGRAMS {
        assert!(
            body.contains(&format!("\"family\":\"{family}\"")),
            "timings missing {family}: {body}"
        );
    }
    // Each timing carries quantiles; spot-check the seal stage reports
    // a real latency with ordered quantiles.
    let seal_at = body
        .find("\"family\":\"bgp_stream_seal_duration_seconds\"")
        .unwrap();
    let seal = &body[seal_at..];
    let observed = json_u64(seal, "observed").expect("seal observed");
    let p50 = json_u64(seal, "p50_nanos").expect("seal p50");
    let p99 = json_u64(seal, "p99_nanos").expect("seal p99");
    let max = json_u64(seal, "max_nanos").expect("seal max");
    assert!(observed >= 1, "no seals observed");
    assert!(p50 > 0 && p50 <= p99 && p99 <= max, "unordered quantiles");
    http.shutdown();
}

fn request(path: &str) -> Request {
    Request {
        method: "GET".to_string(),
        path: path.to_string(),
        query: Vec::new(),
    }
}

/// The introspection surface is what the route table says and nothing
/// else: the two retired debug routes are plain 404s, every meter has a
/// route that reaches it, and `/metrics` carries exactly those meters.
/// On a registry of its own, so the counts are exact.
#[test]
fn the_debug_surface_is_pinned() {
    let slot = Arc::new(SnapshotSlot::new(Thresholds::default()));
    let obs = Arc::new(obs::ObsRegistry::new());
    let api = Api::new(slot, Arc::new(Metrics::with_registry(obs)));

    for gone in ["/v1/debug/trace", "/v1/debug/timeseries"] {
        assert_eq!(api.handle(&request(gone)).status, 404, "{gone}");
    }
    assert_eq!(api.metrics().requests_for(Endpoint::Other), 2);

    // One path per route, in `Endpoint::ALL` order (`Other` was reached
    // above): a route that is added, or a meter that loses its route,
    // has to show up here.
    let routes = [
        "/v1/class/1",
        "/v1/classes",
        "/v1/community/1:1",
        "/v1/flips",
        "/v1/reclassify",
        "/v1/stats",
        "/v1/epochs",
        "/v1/history/1",
        "/healthz",
        "/metrics",
        "/v1/debug/timings",
        "/v1/debug/epoch/0/trace",
        "/v1/version",
    ];
    for path in routes {
        assert_ne!(api.handle(&request(path)).status, 500, "{path}");
    }

    let text = api.handle(&request("/metrics")).body;
    let families = parse_families(&text);
    let requested: BTreeMap<String, f64> = families["bgp_serve_http_request_duration_seconds"]
        .samples
        .iter()
        .filter(|(key, _)| key.starts_with("_count"))
        .map(|(key, count)| {
            let label = key.split("endpoint=\"").nth(1).expect("endpoint label");
            (label.split('"').next().unwrap().to_string(), *count)
        })
        .collect();
    let metered: Vec<&str> = requested.keys().map(String::as_str).collect();
    let mut expected: Vec<&str> = Endpoint::ALL.iter().map(|e| e.label()).collect();
    expected.sort_unstable();
    assert_eq!(metered, expected, "meters on /metrics vs Endpoint::ALL");
    for (label, count) in &requested {
        assert!(*count >= 1.0, "no route reaches the {label:?} meter");
    }
}

/// An empty histogram has no quantiles: `/v1/debug/timings` must report
/// `null` for p50/p99 (never a misleading `0`), and switch to numbers
/// once the family records an observation.
#[test]
fn empty_histogram_quantiles_are_null_in_json() {
    let slot = Arc::new(SnapshotSlot::new(Thresholds::default()));
    let obs = Arc::new(obs::ObsRegistry::new());
    // Registered but never recorded — along with the endpoint
    // histograms Metrics registers on construction, everything is empty.
    obs.histogram("bgp_stream_seal_duration_seconds", "h", &[]);
    let api = Api::new(slot, Arc::new(Metrics::with_registry(Arc::clone(&obs))));

    let timings = api.handle(&request("/v1/debug/timings"));
    assert_eq!(timings.status, 200);
    assert!(timings.body.contains("\"observed\":0"), "{}", timings.body);
    assert!(
        timings
            .body
            .contains("\"p50_nanos\":null,\"p99_nanos\":null"),
        "{}",
        timings.body
    );
    assert!(
        !timings.body.contains("\"p50_nanos\":0"),
        "zero quantile leaked for an empty histogram: {}",
        timings.body
    );

    // One observation: the same family now reports numeric quantiles.
    obs.histogram("bgp_stream_seal_duration_seconds", "h", &[])
        .record(1_000);
    let timings = api.handle(&request("/v1/debug/timings"));
    let seal_at = timings
        .body
        .find("\"family\":\"bgp_stream_seal_duration_seconds\"")
        .expect("seal family");
    let p50 = json_u64(&timings.body[seal_at..], "p50_nanos").expect("numeric p50 after a record");
    assert!(p50 > 0, "{}", timings.body);
}
