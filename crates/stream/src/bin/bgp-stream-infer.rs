//! `bgp-stream-infer` — the streaming front end of the inference
//! pipeline: drive the sharded epoch pipeline over MRT archive files or a
//! simulated scenario feed, printing one line per sealed epoch (events,
//! unique tuples, class flips) and writing the final per-AS database.
//!
//! ```text
//! USAGE:
//!   bgp-stream-infer [OPTIONS] <MRT-FILE>...
//!   bgp-stream-infer [OPTIONS] --sim <SCENARIO>
//!
//! OPTIONS:
//!   -s, --shards <N>            shards (default 4)
//!   -e, --epoch-events <N>      seal an epoch every N events (default 8192)
//!       --epoch-secs <S>        seal an epoch every S seconds of stream time
//!   -t, --threshold <0.5..=1.0> classification threshold (default 0.99)
//!   -b, --batch <N>             ingest pull size (default 1024)
//!   -o, --output <FILE>         write the final inference db here (default stdout)
//!       --sim <SCENARIO>        stream a simulated scenario instead of files
//!                               (alltf|alltc|random|random+noise|random-p|random-pp)
//!       --seed <N>              simulation seed (default 7)
//!       --repeats <N>           extra re-announcements per tuple in --sim (default 2)
//!       --flips                 print every class flip, not just counts
//!   -h, --help                  show this help
//! ```
//!
//! Input files must be raw (uncompressed) MRT as served by RIPE RIS,
//! RouteViews, or this workspace's own `bgp-collector` generator. To
//! query the database over HTTP while it builds, run `bgp-served`.

use bgp_sim::prelude::*;
use bgp_stream::prelude::*;
use std::io::Write;
use std::process::ExitCode;

struct Options {
    shards: usize,
    epoch_events: Option<u64>,
    epoch_secs: Option<u64>,
    threshold: f64,
    batch: usize,
    output: Option<String>,
    sim: Option<String>,
    seed: u64,
    repeats: u32,
    print_flips: bool,
    inputs: Vec<String>,
}

fn usage() -> &'static str {
    "usage: bgp-stream-infer [-s SHARDS] [-e EVENTS] [--epoch-secs S] [-t THRESHOLD]\n\
     \x20                      [-b BATCH] [-o FILE] [--flips]\n\
     \x20                      <MRT-FILE>... | --sim SCENARIO\n\
     Streams MRT archives (or a simulated feed) through the sharded epoch pipeline,\n\
     reporting per-epoch class flips, and writes the final inference database."
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        shards: StreamConfig::default().shards,
        epoch_events: None,
        epoch_secs: None,
        threshold: 0.99,
        batch: 1024,
        output: None,
        sim: None,
        seed: 7,
        repeats: 2,
        print_flips: false,
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
            "-o" | "--output" => opts.output = Some(num(arg)?),
            "--sim" => opts.sim = Some(num(arg)?),
            "--seed" => {
                opts.seed = num(arg)?.parse().map_err(|e| format!("bad seed: {e}"))?;
            }
            "--repeats" => {
                opts.repeats = num(arg)?.parse().map_err(|e| format!("bad repeats: {e}"))?;
            }
            "--flips" => opts.print_flips = true,
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

fn report_epoch(snap: &EpochSnapshot, print_flips: bool) {
    obs::info!(
        "stream",
        "epoch {:>4} v{:<4} sealed_at={} events={:<8} unique={:<8} classified={:<6} flips={}",
        snap.epoch,
        snap.version,
        snap.sealed_at,
        snap.events,
        snap.unique_tuples,
        snap.classes.len(),
        snap.flips.len(),
    );
    if print_flips {
        for f in snap.flips.iter() {
            obs::info!("stream", "  flip {f}");
        }
    }
}

/// Drain a source batch-by-batch: ingest and report newly sealed epochs.
fn drain(
    pipe: &mut StreamPipeline,
    source: &mut dyn TupleSource,
    batch: usize,
    print_flips: bool,
    reported: &mut usize,
) -> Result<(), bgp_stream::ingest::IngestError> {
    loop {
        let events = source.next_batch(batch.max(1))?;
        if events.is_empty() {
            return Ok(());
        }
        pipe.push_events(&events, |_| {});
        for snap in &pipe.snapshots()[*reported..] {
            report_epoch(snap, print_flips);
        }
        *reported = pipe.snapshots().len();
    }
}

fn run(opts: &Options) -> Result<(), String> {
    let thresholds = bgp_infer::counters::Thresholds::uniform(opts.threshold);
    let mut pipe = StreamPipeline::new(StreamConfig {
        shards: opts.shards,
        epoch: EpochPolicy::from_limits(opts.epoch_events, opts.epoch_secs),
        thresholds,
        // Long-running front end: epochs are reported as they seal, and
        // only the final db is exported, so historical counter stores
        // would be dead weight.
        compact_history: true,
    });

    let mut reported = 0usize;
    if let Some(name) = &opts.sim {
        let feed = UpdateFeed::simulated(name, opts.seed, opts.repeats, Churn::Steady)
            .ok_or_else(|| format!("unknown scenario {name:?} (see --help)"))?;
        obs::info!("stream", "simulated scenario {name}: {} events", feed.len());
        let mut source = IterSource::new(feed.map(|(ts, tuple)| StreamEvent::new(ts, tuple)));
        drain(
            &mut pipe,
            &mut source,
            opts.batch,
            opts.print_flips,
            &mut reported,
        )
        .map_err(|e| e.to_string())?;
    } else {
        for file in &opts.inputs {
            let bytes = std::fs::read(file).map_err(|e| format!("read {file}: {e}"))?;
            let mut source = MrtSource::new(&bytes);
            drain(
                &mut pipe,
                &mut source,
                opts.batch,
                opts.print_flips,
                &mut reported,
            )
            .map_err(|e| format!("{file}: {e}"))?;
            let st = source.stats();
            obs::info!(
                "stream",
                "{file}: {} raw entries, kept {} dropped {}",
                source.raw_entries(),
                st.kept,
                st.offered - st.kept,
            );
        }
    }

    let interned_asns = pipe.interned_asns();
    let arena_hops = pipe.arena_hops();
    let out = pipe.finish();
    for snap in &out.snapshots[reported..] {
        report_epoch(snap, opts.print_flips);
    }
    obs::info!(
        "stream",
        "stream done: {} events, {} unique tuples ({} dups), {} epochs, shard loads {:?}",
        out.total_events(),
        out.unique_tuples(),
        out.duplicates(),
        out.epochs(),
        out.shard_loads(),
    );
    obs::info!(
        "stream",
        "compiled stores: {arena_hops} arena hops, {interned_asns} interned ASNs across shards",
    );

    let db = out.export_db();
    match &opts.output {
        Some(path) => std::fs::write(path, db).map_err(|e| format!("write {path}: {e}"))?,
        None => std::io::stdout()
            .write_all(db.as_bytes())
            .map_err(|e| format!("write stdout: {e}"))?,
    }
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
    match run(&opts) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}"); // cli-out
            ExitCode::FAILURE
        }
    }
}
