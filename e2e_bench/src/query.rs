//! `query_static` and `query_live`: the HTTP daemon under a closed-loop
//! request mix — over a finished day with ingest idle, or beside a
//! pacer that pushes, seals and publishes a fixed number of epochs.
//!
//! Phase A saturates the one reactor: 2 keep-alive connections × 16
//! pipelined requests. Phase B leaves it mostly idle: 1 connection, 1
//! request outstanding. Only phase A feeds an end-to-end metric, so the
//! untraced run spends all its seconds there; the traced run gives
//! phase A two thirds and phase B, whose latencies are per-layer
//! metrics, the rest.

use crate::cpu;
use crate::loadgen::{self, Conn, Kind, Phase, Scheduled};
use crate::run::{
    class_digest, driver_config, stream_config, Ctx, Report, FLIP_LOG_CAP, HTTP_WORKERS,
    INGEST_BATCH,
};
use crate::stats::{median, percentile, ratio};
use crate::trace::Tracer;
use bgp_archive::prelude::{ArchiveSink, ArchiveWriter};
use bgp_infer::prelude::*;
use bgp_serve::prelude::*;
use bgp_stream::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The pacer seals one epoch every tick.
const TICK: Duration = Duration::from_millis(100);
/// A tick that starts this late makes the run's numbers suspect.
const LATE_TICK: Duration = Duration::from_millis(20);
/// Point look-ups whose bodies are checked are those of this many ASes.
const WATCHED: usize = 32;
const PHASE_A_CONNS: usize = 2;
const PHASE_A_DEPTH: usize = 16;
const REACTOR_THREADS: &str = "bgp-serve-react";

/// `(version, asn)` → the body `/v1/class/{asn}` must have carried.
type Expected = HashMap<(u64, u32), String>;

/// The `/v1/class/{asn}` body, written here from the snapshot's record
/// and not by the program's own encoder.
fn expected_bodies(snap: &ServeSnapshot, watched: &[u32], into: &mut Expected) {
    let epoch = snap
        .epoch_id()
        .map_or("null".to_string(), |e| e.to_string());
    for &asn in watched {
        if let Some(r) = snap.record_of(bgp_types::asn::Asn(asn)) {
            let c = r.counters;
            into.insert(
                (snap.version(), asn),
                format!(
                    "{{\"version\":{},\"epoch\":{epoch},\"record\":{{\"asn\":{asn},\"class\":\"{}\",\
                     \"counters\":{{\"t\":{},\"s\":{},\"f\":{},\"c\":{}}}}}}}",
                    snap.version(),
                    r.class,
                    c.t,
                    c.s,
                    c.f,
                    c.c
                ),
            );
        }
    }
}

/// `"version":N` is the first field of every envelope.
fn body_version(body: &[u8]) -> Option<u64> {
    let rest = body.strip_prefix(b"{\"version\":")?;
    let digits = rest.iter().take_while(|b| b.is_ascii_digit()).count();
    std::str::from_utf8(&rest[..digits]).ok()?.parse().ok()
}

/// One tick of the pacer, as instants.
struct Tick {
    due: Instant,
    began: Instant,
    pushed: Instant,
    sealed: Instant,
    published: Instant,
    events: u64,
}

struct Paced {
    ticks: Vec<Tick>,
    expected: Expected,
    /// Whether each seal was incremental: `(replayed, total)` steps.
    replayed_steps: u64,
    total_steps: u64,
    records: Vec<DbRecord>,
}

/// The writer beside the readers: every `TICK`, push the next slice of
/// pre-decoded update events, seal, publish. Never skips a slice, so
/// the final state is the same however late it ran.
fn pace(
    mut pipeline: StreamPipeline,
    mut publisher: Publisher,
    slices: Vec<Vec<StreamEvent>>,
    watched: Vec<u32>,
    start: Instant,
) -> Paced {
    let slot = Arc::clone(publisher.slot());
    let mut paced = Paced {
        ticks: Vec::with_capacity(slices.len()),
        expected: Expected::new(),
        replayed_steps: 0,
        total_steps: 0,
        records: Vec::new(),
    };
    for (k, slice) in slices.into_iter().enumerate() {
        let due = start + TICK * k as u32;
        std::thread::sleep(due.saturating_duration_since(Instant::now()));
        let began = Instant::now();
        let events = slice.len() as u64;
        pipeline.push_batch(slice);
        let pushed = Instant::now();
        pipeline.seal_epoch();
        let sealed = Instant::now();
        publisher.sync(&pipeline);
        let published = Instant::now();
        paced.ticks.push(Tick {
            due,
            began,
            pushed,
            sealed,
            published,
            events,
        });
        let (replayed, total) = pipeline.last_replay();
        paced.replayed_steps += replayed as u64;
        paced.total_steps += total as u64;
        expected_bodies(&slot.load(), &watched, &mut paced.expected);
    }
    paced.records = slot.load().records.clone();
    paced
}

/// A request as the in-process handler takes it.
fn request_of(target: &str) -> Request {
    let (path, query) = target.split_once('?').unwrap_or((target, ""));
    Request {
        method: "GET".to_string(),
        path: path.to_string(),
        query: query
            .split('&')
            .filter_map(|pair| pair.split_once('='))
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect(),
    }
}

/// CPU clocks read at a phase boundary.
#[derive(Clone, Copy)]
struct Clocks {
    at: Instant,
    reactor_ns: u64,
    loadgen_ns: u64,
    process_ns: u64,
}

impl Clocks {
    fn now() -> Clocks {
        Clocks {
            at: Instant::now(),
            reactor_ns: cpu::threads_cpu_ns(REACTOR_THREADS),
            loadgen_ns: cpu::this_thread_cpu_ns(),
            process_ns: cpu::process_cpu_ns(),
        }
    }
}

/// Shares of one phase's wall time, from the clocks around it.
struct Usage {
    wall_ns: f64,
    reactor_ns: f64,
    /// Everything that is neither a reactor nor the generator: the
    /// pacer and the shard workers it forks at each seal.
    other_ns: f64,
}

fn usage(before: Clocks, after: Clocks) -> Usage {
    let reactor_ns = (after.reactor_ns - before.reactor_ns) as f64;
    let loadgen_ns = (after.loadgen_ns - before.loadgen_ns) as f64;
    let process_ns = after.process_ns.saturating_sub(before.process_ns) as f64;
    Usage {
        wall_ns: after.at.duration_since(before.at).as_nanos() as f64,
        reactor_ns,
        other_ns: (process_ns - reactor_ns - loadgen_ns).max(0.0),
    }
}

/// A manual-seal pipeline publishing to `slot`, warmed with one epoch
/// per RIB snapshot.
fn warmed(
    ribs: &[String],
    slot: &Arc<SnapshotSlot>,
) -> Result<(StreamPipeline, Publisher), String> {
    let mut pipeline = StreamPipeline::new(stream_config(EpochPolicy::manual()));
    let mut publisher = Publisher::new(Arc::clone(slot), FLIP_LOG_CAP);
    for file in ribs {
        let bytes = std::fs::read(file).map_err(|e| format!("{file}: {e}"))?;
        pipeline
            .drive(&mut MrtSource::new(&bytes), INGEST_BATCH)
            .map_err(|e| format!("{file}: {e}"))?;
        pipeline.seal_epoch();
        publisher.sync(&pipeline);
    }
    Ok((pipeline, publisher))
}

/// Every update event of the day, decoded ahead of time, sorted by
/// timestamp and cut into one equal slice per tick.
fn slices_of(updates: &[String], ticks: usize) -> Result<Vec<Vec<StreamEvent>>, String> {
    let mut events = Vec::new();
    for file in updates {
        let bytes = std::fs::read(file).map_err(|e| format!("{file}: {e}"))?;
        let mut source = MrtSource::new(&bytes);
        loop {
            let batch = source
                .next_batch(INGEST_BATCH)
                .map_err(|e| format!("{file}: {e}"))?;
            if batch.is_empty() {
                break;
            }
            events.extend(batch);
        }
    }
    events.sort_by_key(|ev| ev.timestamp);
    let per_tick = events.len().div_ceil(ticks);
    let mut events = events.into_iter();
    Ok((0..ticks)
        .map(|_| events.by_ref().take(per_tick).collect())
        .collect())
}

/// The ASes a point look-up may name in `query_live`: those with a
/// record in every snapshot the run will serve. Counts depend on the
/// classes of the neighbours, so a record can lose its last count and
/// vanish; a look-up would then be a 404. Found by rehearsing the run on
/// a slot nobody reads — it is deterministic, so the real one serves the
/// same snapshots.
fn rehearse(ribs: &[String], slices: &[Vec<StreamEvent>]) -> Result<Vec<u32>, String> {
    let slot = Arc::new(SnapshotSlot::new(Thresholds::default()));
    let (mut pipeline, mut publisher) = warmed(ribs, &slot)?;
    let mut askable: Vec<u32> = slot.load().records.iter().map(|r| r.asn.0).collect();
    for slice in slices {
        pipeline.push_batch(slice.iter().cloned());
        pipeline.seal_epoch();
        publisher.sync(&pipeline);
        let served = slot.load();
        askable.retain(|&asn| served.record_of(bgp_types::asn::Asn(asn)).is_some());
    }
    Ok(askable)
}

/// Gates on what came back over the sockets: every answer a full 200,
/// and each sampled point look-up exactly the record of the snapshot
/// version it names.
fn check_answers(report: &mut Report, name: &str, expected: &Expected, a: &Phase, b: &Phase) {
    let samples: Vec<&(u32, Vec<u8>)> = a.samples.iter().chain(&b.samples).collect();
    let mismatched = samples
        .iter()
        .filter(|(asn, body)| {
            let wanted = body_version(body).and_then(|v| expected.get(&(v, *asn)));
            wanted.map(String::as_bytes) != Some(body.as_slice())
        })
        .count();
    report.gate(!samples.is_empty(), || {
        format!("{name}: no point look-up was sampled")
    });
    report.gate(mismatched == 0, || {
        format!(
            "{name}: {mismatched} of {} sampled bodies differ from the served snapshot",
            samples.len()
        )
    });
    report.gate(a.failed + b.failed == 0, || {
        format!("{name}: {} answers were not 200", a.failed + b.failed)
    });
}

fn sorted_ns(ticks: &[Tick], span: impl Fn(&Tick) -> Duration) -> Vec<u64> {
    let mut ns: Vec<u64> = ticks.iter().map(|t| span(t).as_nanos() as u64).collect();
    ns.sort_unstable();
    ns
}

/// What the pacer's ticks say about the write side.
fn pacer_layers(report: &mut Report, paced: &Paced, late: Duration, tracer: Option<&mut Tracer>) {
    let ticks = &paced.ticks;
    let lag_ms: Vec<f64> = ticks
        .iter()
        .map(|t| t.published.duration_since(t.due).as_secs_f64() * 1e3)
        .collect();
    let seal_ns = sorted_ns(ticks, |t| t.sealed.duration_since(t.pushed));
    let publish_ns = sorted_ns(ticks, |t| t.published.duration_since(t.sealed));
    let push_ns: u64 = sorted_ns(ticks, |t| t.pushed.duration_since(t.began))
        .iter()
        .sum();
    let events: u64 = ticks.iter().map(|t| t.events).sum();
    report.layer("serve.snapshot.publish_lag_ms_p50", median(&lag_ms));
    report.layer("stream.pipeline.seals", ticks.len() as f64);
    report.layer(
        "stream.pipeline.seal_ms_p50",
        percentile(&seal_ns, 0.5) as f64 / 1e6,
    );
    report.layer(
        "stream.pipeline.seal_ms_max",
        percentile(&seal_ns, 1.0) as f64 / 1e6,
    );
    report.layer(
        "stream.pipeline.replayed_step_share",
        ratio(paced.replayed_steps as f64, paced.total_steps as f64),
    );
    report.layer(
        "stream.shard.push_ns_per_event",
        ratio(push_ns as f64, events as f64),
    );
    report.layer(
        "serve.snapshot.publish_ms_p50",
        percentile(&publish_ns, 0.5) as f64 / 1e6,
    );
    report.layer("loadgen.tick_late_ms_max", late.as_secs_f64() * 1e3);
    if let Some(tracer) = tracer {
        for t in ticks {
            tracer.record("stream.shard.push", t.began, t.pushed, t.events);
            tracer.record("stream.pipeline.seal", t.pushed, t.sealed, 1);
            tracer.record("serve.snapshot.publish", t.sealed, t.published, 1);
        }
    }
}

/// The traced run's probes, made after the phases: the handler alone, in
/// process, per endpoint of the mix (and `/metrics`, which the mix
/// leaves out), and the cost of a fresh connection. Returns the mean
/// handler time of one request of phase A's mix, in µs: what of a
/// request's reactor time is not transport.
fn probe(
    ctx: &mut Ctx<'_>,
    report: &mut Report,
    name: &str,
    api: &Api,
    addr: std::net::SocketAddr,
    schedule: &[Scheduled],
    a: &Phase,
) -> f64 {
    let probes: [(&'static str, &'static str, Option<Kind>); 5] = [
        (
            "serve.api.handle.class",
            "serve.api.handle_us.class",
            Some(Kind::Class),
        ),
        (
            "serve.api.handle.healthz",
            "serve.api.handle_us.healthz",
            Some(Kind::Healthz),
        ),
        (
            "serve.api.handle.classes_page",
            "serve.api.handle_us.classes_page",
            Some(Kind::ClassesPage),
        ),
        (
            "serve.api.handle.flips",
            "serve.api.handle_us.flips",
            Some(Kind::Flips),
        ),
        (
            "serve.api.handle.metrics",
            "serve.api.handle_us.metrics",
            None,
        ),
    ];
    let mut handler_us_per_req = 0.0;
    for (span, metric, kind) in probes {
        let targets: Vec<&str> = match kind {
            Some(kind) => schedule
                .iter()
                .filter(|s| s.kind == kind)
                .map(|s| s.target.as_str())
                .collect(),
            None => vec!["/metrics"],
        };
        let calls = if kind.is_some() { 1_000 } else { 200 };
        for target in targets.iter().cycle().take(calls) {
            let request = request_of(target);
            let status = ctx.leaf(span, || (api.handle(&request).status, 1));
            report.gate(status == 200, || {
                format!("{name}: in-process {target} answered {status}")
            });
        }
        let mut ns = ctx.tracer.as_ref().expect("traced run").durations(span);
        ns.sort_unstable();
        report.layer(metric, percentile(&ns, 0.5) as f64 / 1e3);
        if let Some(kind) = kind {
            // The mean, not the median: a few whole-log flips answers
            // carry most of that endpoint's cost.
            let mean_us = ns.iter().sum::<u64>() as f64 / ns.len() as f64 / 1e3;
            handler_us_per_req +=
                mean_us * ratio(a.by_kind[kind as usize] as f64, a.attempted as f64);
        }
    }
    let healthz = &schedule
        .iter()
        .find(|s| s.kind == Kind::Healthz)
        .expect("mix has healthz")
        .wire;
    for _ in 0..50 {
        let answered = ctx.leaf("serve.http.conn_setup", || {
            let answered = Conn::connect(addr).and_then(|mut conn| {
                conn.send(healthz)?;
                Ok(conn.recv()?.ok)
            });
            (answered, 1)
        });
        report.gate(matches!(answered, Ok(true)), || {
            format!("{name}: fresh connection: {answered:?}")
        });
    }
    let mut setup_ns = ctx
        .tracer
        .as_ref()
        .expect("traced run")
        .durations("serve.http.conn_setup");
    setup_ns.sort_unstable();
    report.layer(
        "serve.http.conn_setup_us",
        percentile(&setup_ns, 0.5) as f64 / 1e3,
    );
    handler_us_per_req
}

fn query(ctx: &mut Ctx<'_>, name: &str, live: bool) -> Result<Report, String> {
    let mut report = Report::default();
    let slot = Arc::new(SnapshotSlot::new(Thresholds::default()));
    let metrics = Arc::new(Metrics::new());
    let ticks = ((ctx.seconds * 1e3) as u64 / TICK.as_millis() as u64).max(3) as usize;
    let ticks_a = if ctx.tracer.is_some() {
        ticks * 2 / 3
    } else {
        ticks
    };
    let phase_a = TICK * ticks_a as u32;
    let phase_b = TICK * (ticks - ticks_a) as u32;

    // Set-up, ingest side. Static: the whole day through the driver,
    // archive on. Live: a pipeline of our own warmed with the RIBs; the
    // pacer will feed it the update slices.
    let mut pacer_parts = None;
    let askable: Vec<u32> = if live {
        let slices = slices_of(&ctx.world.updates, ticks)?;
        let askable = rehearse(&ctx.world.ribs, &slices)?;
        let (pipeline, publisher) = warmed(&ctx.world.ribs, &slot)?;
        pacer_parts = Some((
            pipeline,
            publisher.with_metrics(Arc::clone(&metrics)),
            slices,
        ));
        askable
    } else {
        let dir = ctx.fresh_dir("archive")?;
        let writer = ArchiveWriter::open(&dir).map_err(|e| format!("open archive: {e}"))?;
        let ingest = spawn_ingest_archived(
            driver_config(EpochPolicy::every_events(crate::run::QUERY_EPOCH_EVENTS)),
            Feed::MrtFiles(ctx.world.all_files()),
            Arc::clone(&slot),
            Arc::clone(&metrics),
            Some(ArchiveSink::spawn(writer)),
            None,
        )
        .join()?;
        report.failed += ingest.archive_dropped + ingest.quarantined + ingest.restarts;
        report.fact("epochs_ingested", ingest.epochs);
        slot.load().records.iter().map(|r| r.asn.0).collect()
    };

    // Set-up, serving side.
    let api = Arc::new(Api::new(Arc::clone(&slot), Arc::clone(&metrics)));
    let http = HttpServer::start(
        HttpConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: HTTP_WORKERS,
            // Connections must never recycle mid-run.
            max_keepalive_requests: usize::MAX,
            ..Default::default()
        },
        Arc::clone(&api) as Arc<dyn Handler>,
    )
    .map_err(|e| format!("bind loopback: {e}"))?;
    let addr = http.local_addr();

    let schedule = loadgen::schedule(ctx.seed, &askable);
    report.schedule_fingerprint = loadgen::schedule_fingerprint(&schedule);
    let mut watched: Vec<u32> = Vec::new();
    for s in schedule.iter().filter(|s| s.kind == Kind::Class) {
        if watched.len() < WATCHED && !watched.contains(&s.asn) {
            watched.push(s.asn);
        }
    }
    let mut expected = Expected::new();
    expected_bodies(&slot.load(), &watched, &mut expected);

    let io = |e: std::io::Error| format!("{name}: load connection: {e}");
    let mut conns_a = Vec::new();
    for _ in 0..PHASE_A_CONNS {
        conns_a.push(Conn::connect(addr).map_err(io)?);
    }
    let mut conns_b = vec![Conn::connect(addr).map_err(io)?];
    let mut cursor = 0usize;
    let mut phase = |conns: &mut [Conn], depth: usize, duration: Duration| {
        loadgen::run_phase(conns, depth, &schedule, &mut cursor, &watched, duration).map_err(io)
    };
    let warm = Duration::from_millis(if ctx.seconds < 2.0 { 100 } else { 500 });
    phase(&mut conns_a, PHASE_A_DEPTH, warm)?;
    phase(&mut conns_b, 1, warm / 5)?;
    ctx.setup_done();

    // The measured part: phase A then phase B, the pacer (if any)
    // ticking through both.
    let version_before = slot.version();
    let start = Instant::now();
    let pacer = pacer_parts.map(|(pipeline, publisher, slices)| {
        let watched = watched.clone();
        std::thread::Builder::new()
            .name("e2e-pacer".to_string())
            .spawn(move || pace(pipeline, publisher, slices, watched, start))
            .expect("spawn pacer")
    });
    let clocks_0 = Clocks::now();
    let a = phase(&mut conns_a, PHASE_A_DEPTH, phase_a)?;
    let clocks_a = Clocks::now();
    let b = if phase_b.is_zero() {
        Phase::default()
    } else {
        phase(&mut conns_b, 1, phase_b)?
    };
    let clocks_b = Clocks::now();
    let published_in_phases = slot.version() - version_before;
    let mut paced = match pacer {
        Some(handle) => Some(
            handle
                .join()
                .map_err(|_| format!("{name}: pacer panicked"))?,
        ),
        None => None,
    };

    if let Some(paced) = &mut paced {
        expected.extend(paced.expected.drain());
    }
    check_answers(&mut report, name, &expected, &a, &b);
    report.attempted = a.attempted + b.attempted;
    report.failed += a.failed + b.failed;
    report.throughput_per_s = a.rate();
    report.fact("throughput_unit", "\"requests\"");

    // Validity: a throughput number only counts if the server, not the
    // generator, was the bottleneck — and, live, if the writer kept its
    // schedule.
    let use_a = usage(clocks_0, clocks_a);
    let use_b = usage(clocks_a, clocks_b);
    let reactor_util = ratio(use_a.reactor_ns, use_a.wall_ns);
    let wait_share = ratio(a.waited.as_secs_f64(), a.wall.as_secs_f64());
    let mut throughput_valid = reactor_util >= 0.85 && wait_share >= 0.05;
    let late = paced.as_ref().map(|paced| {
        paced
            .ticks
            .iter()
            .map(|t| t.began.duration_since(t.due))
            .max()
            .unwrap_or_default()
    });
    if let (Some(paced), Some(late)) = (&paced, late) {
        let published = slot.version() - version_before;
        report.gate(published == paced.ticks.len() as u64, || {
            format!(
                "{name}: {} ticks but {published} epochs published",
                paced.ticks.len()
            )
        });
        let on_time = published_in_phases as usize == paced.ticks.len() && late <= LATE_TICK;
        throughput_valid &= on_time;
        report.fact("live_valid", on_time);
        report.fact("epochs_published_in_phases", published_in_phases);
    }
    let final_records = match &paced {
        Some(paced) => paced.records.clone(),
        None => slot.load().records.clone(),
    };
    report.class_digest = class_digest(&final_records);
    report.fact("throughput_valid", throughput_valid);
    report.fact("reactor_util", format!("{reactor_util:.4}"));
    report.fact("loadgen_wait_share", format!("{wait_share:.4}"));
    report.fact(
        "window_krps",
        format!(
            "[{}]",
            a.window_rates
                .iter()
                .map(|r| format!("{:.1}", r / 1e3))
                .collect::<Vec<_>>()
                .join(",")
        ),
    );
    report.fact("requests_phase_a", a.attempted);
    report.fact("requests_phase_b", b.attempted);
    report.fact(
        "mean_bytes_class_healthz_page_flips",
        format!(
            "{:?}",
            [0, 1, 2, 3].map(|k| (a.bytes_by_kind[k] + b.bytes_by_kind[k])
                / (a.by_kind[k] + b.by_kind[k]).max(1))
        ),
    );

    // Per-layer numbers. The phases record no spans of their own, so
    // traced and untraced wall are the same here.
    let mut latencies = b.latencies_ns.clone();
    latencies.sort_unstable();
    // The untraced run has no phase B, and so no latencies.
    let latency_us = |p: f64| {
        if latencies.is_empty() {
            0.0
        } else {
            percentile(&latencies, p) as f64 / 1e3
        }
    };
    let answered = (a.attempted + b.attempted) as f64;
    let reactor_us_per_req = ratio(use_a.reactor_ns / 1e3, a.attempted as f64);
    let wall_s = (use_a.wall_ns + use_b.wall_ns) / 1e9;
    for (metric, value) in [
        ("serve.http.reactor_util", reactor_util),
        ("serve.http.reactor_cpu_us_per_req", reactor_us_per_req),
        (
            "serve.http.bytes_per_resp",
            ratio((a.response_bytes + b.response_bytes) as f64, answered),
        ),
        ("serve.http.latency_p50_us", latency_us(0.5)),
        ("serve.http.latency_p99_us", latency_us(0.99)),
        ("serve.http.latency_max_us", latency_us(1.0)),
        (
            "serve.sealer.cpu_share",
            ratio(
                use_a.other_ns + use_b.other_ns,
                use_a.wall_ns + use_b.wall_ns,
            ),
        ),
        (
            "serve.snapshot.epochs_published",
            published_in_phases as f64,
        ),
        ("serve.snapshot.records", final_records.len() as f64),
        ("core.classified_ases", final_records.len() as f64),
        (
            "loadgen.busy_us_per_req",
            ratio((a.wall - a.waited).as_secs_f64() * 1e6, a.attempted as f64),
        ),
        ("loadgen.wait_share", wait_share),
        ("trace.traced_wall_s", wall_s),
        ("trace.untraced_wall_s", wall_s),
    ] {
        report.layer(metric, value);
    }
    if let (Some(paced), Some(late)) = (&paced, late) {
        pacer_layers(&mut report, paced, late, ctx.tracer.as_mut());
    }
    if ctx.tracer.is_some() {
        let handler_us_per_req = probe(ctx, &mut report, name, &api, addr, &schedule, &a);
        report.layer(
            "serve.http.transport_us_per_req",
            reactor_us_per_req - handler_us_per_req,
        );
    }

    drop(conns_a);
    drop(conns_b);
    http.shutdown();
    Ok(report)
}

pub fn query_static(ctx: &mut Ctx<'_>) -> Result<Report, String> {
    query(ctx, "query_static", false)
}

pub fn query_live(ctx: &mut Ctx<'_>) -> Result<Report, String> {
    query(ctx, "query_live", true)
}
