//! `bgp-served` — the query-serving daemon: ingest MRT archives or a
//! simulated scenario feed through the sharded epoch pipeline and serve
//! the classification database over HTTP while it builds.
//!
//! ```text
//! USAGE:
//!   bgp-served [OPTIONS] <MRT-FILE>...
//!   bgp-served [OPTIONS] --sim <SCENARIO>
//!
//! OPTIONS:
//!   -l, --listen <ADDR>         bind address (default 127.0.0.1:7179)
//!   -w, --workers <N>           HTTP reactor (event-loop) threads
//!                               (default 4; each owns an epoll instance,
//!                               and connections are balanced across them
//!                               at accept time — this no longer bounds
//!                               concurrent connections, see --max-conns)
//!       --max-conns <N>         global concurrent-connection budget;
//!                               beyond it new connections are shed with
//!                               503 and accept pauses (default 16384)
//!   -s, --shards <N>            pipeline shards (default 4)
//!   -e, --epoch-events <N>      seal an epoch every N events (default 8192)
//!       --epoch-secs <S>        seal an epoch every S seconds of stream time
//!   -t, --threshold <0.5..=1.0> classification threshold (default 0.99)
//!   -b, --batch <N>             ingest pull size (default 1024)
//!       --sim <SCENARIO>        serve a simulated scenario feed
//!                               (alltf|alltc|random|random+noise|random-p|random-pp,
//!                               plus the churn overlays flap-storm|peer-reset)
//!       --seed <N>              simulation seed (default 7)
//!       --repeats <N>           extra re-announcements per tuple in --sim (default 2)
//!       --archive <DIR>         durable epoch archive: restore the last
//!                               committed epoch at boot (instant serving,
//!                               feed replay backfills), persist every new
//!                               seal, and enable the time-travel routes
//!                               (/v1/epochs, /v1/class/{asn}?epoch=N,
//!                               /v1/history/{asn})
//!       --linger                keep serving after the feed is exhausted
//!                               (default: exit once ingest drains; the
//!                               daemon always serves *during* ingest)
//!       --fault-plan <SPEC>     inject seeded faults for resilience soaks,
//!                               e.g. `archive:fail@7,torn@9;feed:corrupt%0.01`
//!                               (kinds: archive fail/torn/slow, feed
//!                               corrupt/truncate/stall/panic; `@N` = on the
//!                               Nth op, `%P` = with probability P)
//!       --fault-seed <N>        fault-plan RNG seed (default 7)
//!       --restart-budget <N>    driver respawns allowed after ingest
//!                               panics (default 2)
//!       --quarantine-abort <N>  abort the feed once more than N records
//!                               were quarantined, counted across all of
//!                               its files (default 0 = never)
//!       --log-level <SPEC>      log filter: a default level and optional
//!                               per-target overrides, e.g. `info`,
//!                               `debug,http=warn`, `info,stream=trace`
//!                               (targets: serve, stream, archive, http;
//!                               default info)
//!       --log-json              one JSON object per log line instead of text
//!   -h, --help                  show this help
//! ```
//!
//! SIGINT/SIGTERM shut the daemon down gracefully: ingest stops after
//! the batch in flight, and the archive sink (when `--archive` is on) is
//! flushed and joined before the process exits — a `kill` never loses a
//! sealed epoch. The trailing partial epoch is left open: the next run
//! restores the last archived epoch and its backfill over the same feed
//! seals that epoch number as a never-stopped run would.
//!
//! The API surface is documented in `bgp_serve::api`; try
//! `curl http://127.0.0.1:7179/v1/stats` once it is up.

use bgp_archive::prelude::{Archive, ArchiveSink, ArchiveWriter, IoShim, RealIo};
use bgp_serve::prelude::*;
use bgp_serve::shutdown;
use bgp_stream::epoch::EpochPolicy;
use bgp_stream::pipeline::StreamConfig;
use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

struct Options {
    listen: String,
    workers: usize,
    max_conns: usize,
    shards: usize,
    epoch_events: Option<u64>,
    epoch_secs: Option<u64>,
    threshold: f64,
    batch: usize,
    sim: Option<String>,
    seed: u64,
    repeats: u32,
    archive: Option<String>,
    linger: bool,
    fault_plan: Option<String>,
    fault_seed: u64,
    restart_budget: u32,
    quarantine_abort: u64,
    log_level: String,
    log_json: bool,
    inputs: Vec<String>,
}

fn usage() -> &'static str {
    "usage: bgp-served [-h] [-l ADDR] [-w WORKERS] [--max-conns N] [-s SHARDS] [-e EVENTS]\n\
     \x20                 [--epoch-secs S] [-t THRESHOLD] [-b BATCH] [--archive DIR] [--linger]\n\
     \x20                 [--fault-plan SPEC] [--fault-seed N] [--restart-budget N]\n\
     \x20                 [--quarantine-abort N] [--log-level SPEC] [--log-json]\n\
     \x20                 <MRT-FILE>... | --sim SCENARIO [--seed N] [--repeats N]\n\
     Serves the live per-AS classification database over HTTP while ingesting."
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        listen: "127.0.0.1:7179".to_string(),
        workers: 4,
        max_conns: 16_384,
        shards: StreamConfig::default().shards,
        epoch_events: None,
        epoch_secs: None,
        threshold: 0.99,
        batch: 1024,
        sim: None,
        seed: 7,
        repeats: 2,
        archive: None,
        linger: false,
        fault_plan: None,
        fault_seed: 7,
        restart_budget: 2,
        quarantine_abort: 0,
        log_level: "info".to_string(),
        log_json: false,
        inputs: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut num = |name: &str| -> Result<String, String> {
            it.next()
                .cloned()
                .ok_or(format!("missing value for {name}"))
        };
        match arg.as_str() {
            "-l" | "--listen" => opts.listen = num(arg)?,
            "-w" | "--workers" => {
                opts.workers = num(arg)?.parse().map_err(|e| format!("bad workers: {e}"))?;
                if opts.workers == 0 {
                    return Err("workers must be >= 1".into());
                }
            }
            "--max-conns" => {
                opts.max_conns = num(arg)?
                    .parse()
                    .map_err(|e| format!("bad max-conns: {e}"))?;
                if opts.max_conns == 0 {
                    return Err("max-conns must be >= 1".into());
                }
            }
            "-s" | "--shards" => {
                opts.shards = num(arg)?.parse().map_err(|e| format!("bad shards: {e}"))?;
                if opts.shards == 0 {
                    return Err("shards must be >= 1".into());
                }
            }
            "-e" | "--epoch-events" => {
                opts.epoch_events = Some(
                    num(arg)?
                        .parse()
                        .map_err(|e| format!("bad epoch-events: {e}"))?,
                );
            }
            "--epoch-secs" => {
                opts.epoch_secs = Some(
                    num(arg)?
                        .parse()
                        .map_err(|e| format!("bad epoch-secs: {e}"))?,
                );
            }
            "-t" | "--threshold" => {
                opts.threshold = num(arg)?
                    .parse()
                    .map_err(|e| format!("bad threshold: {e}"))?;
                if !(0.5..=1.0).contains(&opts.threshold) {
                    return Err(format!("threshold {} outside 0.5..=1.0", opts.threshold));
                }
            }
            "-b" | "--batch" => {
                opts.batch = num(arg)?.parse().map_err(|e| format!("bad batch: {e}"))?;
            }
            "--sim" => opts.sim = Some(num(arg)?),
            "--seed" => {
                opts.seed = num(arg)?.parse().map_err(|e| format!("bad seed: {e}"))?;
            }
            "--repeats" => {
                opts.repeats = num(arg)?.parse().map_err(|e| format!("bad repeats: {e}"))?;
            }
            "--archive" => opts.archive = Some(num(arg)?),
            "--linger" => opts.linger = true,
            "--fault-plan" => opts.fault_plan = Some(num(arg)?),
            "--fault-seed" => {
                opts.fault_seed = num(arg)?
                    .parse()
                    .map_err(|e| format!("bad fault-seed: {e}"))?;
            }
            "--restart-budget" => {
                opts.restart_budget = num(arg)?
                    .parse()
                    .map_err(|e| format!("bad restart-budget: {e}"))?;
            }
            "--quarantine-abort" => {
                opts.quarantine_abort = num(arg)?
                    .parse()
                    .map_err(|e| format!("bad quarantine-abort: {e}"))?;
            }
            "--log-level" => opts.log_level = num(arg)?,
            "--log-json" => opts.log_json = true,
            "-h" | "--help" => return Err(String::new()),
            other if other.starts_with('-') => return Err(format!("unknown option {other}")),
            file => opts.inputs.push(file.to_string()),
        }
    }
    if opts.sim.is_none() && opts.inputs.is_empty() {
        return Err("no MRT files given and no --sim scenario".into());
    }
    if opts.sim.is_some() && !opts.inputs.is_empty() {
        return Err("--sim and MRT files are mutually exclusive".into());
    }
    Ok(opts)
}

fn run(opts: Options) -> Result<(), String> {
    let mut log_cfg =
        obs::LogConfig::parse(&opts.log_level).map_err(|e| format!("--log-level: {e}"))?;
    log_cfg.json = opts.log_json;
    obs::logger::init(log_cfg);
    shutdown::install();
    let thresholds = bgp_infer::counters::Thresholds::uniform(opts.threshold);
    let slot = Arc::new(SnapshotSlot::new(thresholds));
    // The daemon's one registry: every layer below records on it, the
    // publisher puts each epoch's timeline in its store, and /metrics,
    // /healthz and /v1/debug/epoch/{N}/trace read it.
    let obs = Arc::new(obs::ObsRegistry::new());
    let metrics = Arc::new(Metrics::with_registry(Arc::clone(&obs)));
    let health = Arc::new(HealthState::new(Arc::clone(&metrics), Instant::now()));

    let fault_plan = match &opts.fault_plan {
        Some(spec) => {
            let plan = fault::FaultPlan::parse(spec).map_err(|e| format!("--fault-plan: {e}"))?;
            obs::info!(
                "serve",
                "fault plan armed (seed {}): {spec}",
                opts.fault_seed
            );
            Some(plan)
        }
        None => None,
    };

    let driver_cfg = DriverConfig {
        stream: StreamConfig {
            shards: opts.shards,
            epoch: EpochPolicy::from_limits(opts.epoch_events, opts.epoch_secs),
            thresholds,
            // The daemon serves the latest snapshot; historical counter
            // stores would grow without bound on a long-lived feed.
            compact_history: true,
        },
        batch: opts.batch,
        restart_budget: opts.restart_budget,
        quarantine_abort: opts.quarantine_abort,
        fault: fault_plan
            .as_ref()
            .and_then(|p| p.feed_injector(opts.fault_seed))
            .map(Arc::new),
        health: Arc::clone(&health),
        ..Default::default()
    };

    // With --archive: republish the last durable epoch before the
    // listener opens (boot-to-first-answer is an archive read, not a
    // feed replay), then let the driver backfill and persist new seals.
    let mut restored: Option<Arc<ServeSnapshot>> = None;
    let mut sink: Option<ArchiveSink> = None;
    let mut history: Option<Arc<HistoryStore>> = None;
    if let Some(dir) = &opts.archive {
        let boot = Instant::now();
        let archive = Archive::open(dir).map_err(|e| format!("archive {dir}: {e}"))?;
        restored = restore_latest(&archive, driver_cfg.flip_log_cap)
            .map_err(|e| format!("archive {dir}: restore: {e}"))?;
        match &restored {
            Some(snap) => {
                slot.publish(Arc::clone(snap));
                obs::info!(
                    "serve",
                    "restored epoch {} ({} classified, {} events) from {dir} in {:.1} ms; feed replay backfills",
                    snap.epoch_id().unwrap_or(0),
                    snap.records.len(),
                    snap.epoch.as_ref().map_or(0, |e| e.total_events),
                    boot.elapsed().as_secs_f64() * 1e3,
                );
            }
            None => obs::info!("serve", "archive {dir} is empty; starting fresh"),
        }
        let io: Box<dyn IoShim> = match fault_plan
            .as_ref()
            .and_then(|p| p.archive_io(opts.fault_seed))
        {
            Some(io) => Box::new(io),
            None => Box::new(RealIo),
        };
        let writer = ArchiveWriter::open_with_io(dir, io, Arc::clone(&obs))
            .map_err(|e| format!("archive {dir}: {e}"))?;
        sink = Some(ArchiveSink::spawn(writer));
        history = Some(Arc::new(
            HistoryStore::open(Path::new(dir), driver_cfg.flip_log_cap)
                .map_err(|e| format!("archive {dir}: history: {e}"))?,
        ));
    }

    let mut api =
        Api::new(Arc::clone(&slot), Arc::clone(&metrics)).with_health(Arc::clone(&health));
    if let Some(history) = &history {
        api = api.with_history(Arc::clone(history));
    }
    let http_cfg = HttpConfig {
        addr: opts.listen.clone(),
        workers: opts.workers,
        max_connections: opts.max_conns,
        registry: Arc::clone(&obs),
        ..Default::default()
    };
    let http = HttpServer::start(http_cfg, Arc::new(api))
        .map_err(|e| format!("bind {}: {e}", opts.listen))?;
    // Publish wakeups: every sealed epoch resumes parked long-poll
    // clients (/v1/flips?since_epoch=N&wait_ms=M) within one publish.
    let waker = http.waker();
    slot.register_waker(Arc::new(move || waker.wake_all()));
    obs::info!(
        "http",
        "bgp-served listening on http://{} ({} reactor threads, {} connection budget)",
        http.local_addr(),
        opts.workers,
        opts.max_conns,
    );

    let feed = match &opts.sim {
        Some(scenario) => Feed::Sim {
            scenario: scenario.clone(),
            seed: opts.seed,
            repeats: opts.repeats,
        },
        None => Feed::MrtFiles(opts.inputs.clone()),
    };
    let ingest = spawn_ingest_archived(
        driver_cfg,
        feed,
        Arc::clone(&slot),
        Arc::clone(&metrics),
        sink,
        restored,
    );

    // Report progress until the feed drains, polling for shutdown
    // signals: a SIGINT/SIGTERM stops ingest after the batch in flight,
    // and the driver's thread exits once the archive sink has flushed
    // what sealed, leaving the trailing partial epoch open.
    let mut last_version = 0;
    let mut stop_sent = false;
    while !ingest.is_finished() {
        std::thread::sleep(std::time::Duration::from_millis(250));
        if shutdown::requested() && !stop_sent {
            obs::info!(
                "serve",
                "shutdown signal: stopping ingest; the trailing partial epoch stays open"
            );
            ingest.stop();
            stop_sent = true;
        }
        let version = slot.version();
        if version != last_version {
            let snap = slot.load();
            obs::info!(
                "serve",
                "serving v{version}: {} classified, {} events, {} requests answered",
                snap.records.len(),
                snap.epoch.as_ref().map_or(0, |e| e.total_events),
                metrics.total_requests(),
            );
            last_version = version;
        }
    }
    let report = match ingest.join() {
        Ok(report) => report,
        Err(e) => {
            // The supervisor already marked the health state unhealthy;
            // report it so soak harnesses see the verdict before exit.
            obs::error!("serve", "ingest failed: {e}");
            obs::info!(
                "serve",
                "final health: {}",
                health.evaluate(Instant::now()).status.as_str()
            );
            http.shutdown();
            return Err(e);
        }
    };
    obs::info!(
        "serve",
        "ingest done: {} events, {} unique tuples, {} epochs; {} requests answered",
        report.total_events,
        report.unique_tuples,
        report.epochs,
        metrics.total_requests(),
    );
    if report.restarts > 0 || report.quarantined > 0 {
        obs::info!(
            "serve",
            "supervision: {} driver restart(s), {} quarantined record(s)",
            report.restarts,
            report.quarantined,
        );
    }
    if opts.archive.is_some() {
        obs::info!("serve", "archived {} new epochs", report.archived_epochs);
        if report.archive_dropped > 0 {
            obs::error!(
                "serve",
                "archive dropped {} epoch(s); a restart re-derives them from the feed",
                report.archive_dropped,
            );
        }
    }

    if opts.linger && !shutdown::requested() {
        obs::info!(
            "serve",
            "serving final snapshot until interrupted (--linger)"
        );
        while !shutdown::requested() {
            std::thread::sleep(std::time::Duration::from_millis(250));
        }
        obs::info!("serve", "shutdown signal: exiting");
    }
    obs::info!(
        "serve",
        "final health: {}",
        health.evaluate(Instant::now()).status.as_str()
    );
    http.shutdown();
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(msg) => {
            if msg.is_empty() {
                eprintln!("{}", usage()); // cli-out
                return ExitCode::SUCCESS;
            }
            eprintln!("error: {msg}\n{}", usage()); // cli-out
            return ExitCode::FAILURE;
        }
    };
    match run(opts) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}"); // cli-out
            ExitCode::FAILURE
        }
    }
}
