//! `e2e-bench` — the repository's one performance ledger.
//!
//! ```text
//! e2e-bench --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//! ```
//!
//! Builds a seeded world in set-up, hands the program only the
//! generated inputs (MRT files on disk, request bytes on sockets),
//! times the calls into its public functions from outside, checks what
//! came back, and prints every metric by name with its unit. The last
//! line of standard output is the result object; the line before it is
//! a summary (fingerprint, digests, validity flags, failed gates).
//! `--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer
//! ones and writes the spans to `target/e2e/trace_<workload>.json`.
//! See README.md for what each workload and metric means.

mod batch;
mod cpu;
mod loadgen;
mod query;
mod run;
mod stats;
mod stream;
mod trace;
mod world;

use run::{Ctx, Report};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

type Workload = fn(&mut Ctx<'_>) -> Result<Report, String>;

const WORKLOADS: &[(&str, Workload)] = &[
    ("batch_day", batch::batch_day),
    ("stream_bulk", stream::stream_bulk),
    ("stream_trickle", stream::stream_trickle),
    ("query_static", query::query_static),
    ("query_live", query::query_live),
];

/// Every metric this binary can print, with its unit. `BENCHMARK.json`
/// declares the same names; `tests/smoke.rs` holds the two together.
const END_TO_END: &[(&str, &str)] = &[("setup_s", "s"), ("throughput_per_s", "1/s")];

const PER_LAYER: &[(&str, &str)] = &[
    ("sim.world_s", "s"),
    ("collector.build_day_s", "s"),
    ("mrt.bytes_in", "B"),
    ("mrt.entries", "count"),
    ("mrt.decode_ns_per_entry", "ns"),
    ("mrt.extract_ns_per_entry", "ns"),
    ("core.sanitize.kept_share", "ratio"),
    ("types.tupleset.insert_ns_per_tuple", "ns"),
    ("types.tupleset.dup_share", "ratio"),
    ("core.compile_ns_per_tuple", "ns"),
    ("core.engine_ns_per_tuple", "ns"),
    ("core.reference_ns_per_tuple", "ns"),
    ("core.db.export_ns_per_as", "ns"),
    ("core.classified_ases", "count"),
    ("stream.ingest.source_ns_per_event", "ns"),
    ("stream.shard.push_ns_per_event", "ns"),
    ("stream.shard.dedup_hit_share", "ratio"),
    ("stream.shard.skew", "ratio"),
    ("stream.interned_asns", "count"),
    ("stream.first_publish_ms_p50", "ms"),
    ("stream.pipeline.seals", "count"),
    ("stream.pipeline.seal_ms_p50", "ms"),
    ("stream.pipeline.seal_ms_max", "ms"),
    ("stream.pipeline.zero_delta_share", "ratio"),
    ("stream.pipeline.replayed_step_share", "ratio"),
    ("serve.snapshot.publish_ms_p50", "ms"),
    ("serve.snapshot.publish_lag_ms_p50", "ms"),
    ("serve.snapshot.records", "count"),
    ("serve.snapshot.epochs_published", "count"),
    ("archive.writer.append_ms_p50", "ms"),
    ("archive.writer.bytes_per_epoch", "B"),
    ("archive.writer.write_mb_per_s", "MB/s"),
    ("archive.sink.dropped", "count"),
    ("archive.sink.retries", "count"),
    ("archive.restore_ms", "ms"),
    ("serve.driver.overlap_ratio", "ratio"),
    ("serve.api.handle_us.class", "us"),
    ("serve.api.handle_us.classes_page", "us"),
    ("serve.api.handle_us.flips", "us"),
    ("serve.api.handle_us.healthz", "us"),
    ("serve.api.handle_us.metrics", "us"),
    ("serve.http.reactor_cpu_us_per_req", "us"),
    ("serve.http.reactor_util", "ratio"),
    ("serve.http.transport_us_per_req", "us"),
    ("serve.http.bytes_per_resp", "B"),
    ("serve.http.conn_setup_us", "us"),
    ("serve.http.latency_p50_us", "us"),
    ("serve.http.latency_p99_us", "us"),
    ("serve.http.latency_max_us", "us"),
    ("serve.sealer.cpu_share", "ratio"),
    ("loadgen.tick_late_ms_max", "ms"),
    ("loadgen.busy_us_per_req", "us"),
    ("loadgen.wait_share", "ratio"),
    ("proc.peak_rss_mb", "MB"),
    ("trace.traced_wall_s", "s"),
    ("trace.untraced_wall_s", "s"),
];

/// World generation is repeated and its fastest time reported (see
/// `stats::fastest`), so that one slow disk flush or a stolen vCPU does
/// not read as a set-up regression.
const SETUP_REPEATS: usize = 3;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
}

fn usage() -> String {
    let names: Vec<&str> = WORKLOADS.iter().map(|(n, _)| *n).collect();
    format!(
        "usage: e2e-bench --workload <{}> [--seed N] [--seconds S] [--trace 0|1] [--smoke]\n\
         --smoke alone runs every workload at test scale.",
        names.join("|")
    )
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        seed: 7,
        seconds: None,
        trace: false,
        smoke: false,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("missing value for {what}"));
        match arg.as_str() {
            "--workload" => out.workload = Some(value("--workload")?.clone()),
            "--seed" => {
                let v = value("--seed")?;
                out.seed = v.parse().map_err(|e| format!("bad seed {v:?}: {e}"))?;
            }
            "--seconds" => {
                let v = value("--seconds")?;
                let s: f64 = v.parse().map_err(|e| format!("bad seconds {v:?}: {e}"))?;
                if !(0.3..=60.0).contains(&s) {
                    return Err(format!("seconds {s} outside 0.3..=60"));
                }
                out.seconds = Some(s);
            }
            "--trace" => {
                out.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--smoke" => out.smoke = true,
            "-h" | "--help" => return Err(usage()),
            other => return Err(format!("unknown argument {other:?}\n{}", usage())),
        }
    }
    if out.workload.is_none() && !out.smoke {
        return Err(format!("no workload named\n{}", usage()));
    }
    Ok(out)
}

/// Removes the run's scratch directory however the run ends.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn json_string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Print one workload's summary line and result line; returns whether
/// every gate held.
fn emit(
    name: &str,
    args: &Args,
    world: &world::World,
    setup_world_s: f64,
    ctx: &Ctx<'_>,
    report: &Report,
    peak_rss_mb: f64,
) -> bool {
    let correct = report.gate_failures.is_empty();
    let mut fingerprint = bgp_archive::frame::Fnv64::new();
    fingerprint.update(&world.fingerprint.to_le_bytes());
    fingerprint.update(&report.schedule_fingerprint.to_le_bytes());

    let declared = if args.trace { PER_LAYER } else { END_TO_END };
    let value_of = |metric: &str| -> f64 {
        match metric {
            "setup_s" => setup_world_s + ctx.setup_extra_s,
            "throughput_per_s" => report.throughput_per_s,
            "proc.peak_rss_mb" => peak_rss_mb,
            "sim.world_s" => world.sim_world_s,
            "collector.build_day_s" => world.build_day_s,
            _ => report
                .layers
                .iter()
                .find(|(n, _)| *n == metric)
                .map_or(0.0, |(_, v)| *v),
        }
    };
    for (layer, _) in &report.layers {
        assert!(
            PER_LAYER.iter().any(|(n, _)| n == layer),
            "workload reported undeclared layer metric {layer}"
        );
    }

    let mut summary = String::new();
    let _ = write!(
        summary,
        "{{\"workload\":{},\"seed\":{},\"trace\":{},\"smoke\":{},\"seconds\":{},\"cores\":{},\
         \"workload_fingerprint\":\"{:016x}\",\"class_digest\":\"{:016x}\",\
         \"mrt_bytes\":{},\"ops_attempted\":{},\"ops_failed\":{},\"rss_reset\":{},\"setup_world_s\":{},\"setup_workload_s\":{}",
        json_string(name),
        args.seed,
        u8::from(args.trace),
        args.smoke,
        json_number(ctx.seconds),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        fingerprint.digest(),
        report.class_digest,
        world.bytes,
        report.attempted,
        report.failed,
        ctx.rss_reset,
        json_number(setup_world_s),
        json_number(ctx.setup_extra_s),
    );
    for (key, json) in &report.facts {
        let _ = write!(summary, ",{}:{json}", json_string(key));
    }
    if !args.trace {
        // The traced run's wall times are diagnostics, not results:
        // show the end-to-end numbers only where they were measured.
        let _ = write!(
            summary,
            ",\"throughput_per_s\":{},\"peak_rss_mb\":{}",
            json_number(report.throughput_per_s),
            json_number(peak_rss_mb)
        );
    }
    let failures: Vec<String> = report
        .gate_failures
        .iter()
        .map(|f| json_string(f))
        .collect();
    let _ = write!(
        summary,
        ",\"gate_failures\":[{}],\"claim\":null}}",
        failures.join(",")
    );
    println!("{summary}");

    let mut result = String::new();
    let _ = write!(
        result,
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{",
        report.attempted.max(1),
        report.failed
    );
    for (i, (metric, unit)) in declared.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let value = value_of(metric);
        let _ = write!(
            result,
            "{sep}{}:{{\"value\":{},\"unit\":{}}}",
            json_string(metric),
            json_number(value),
            json_string(unit)
        );
        eprintln!("{name:<15} {metric:<40} {value:>16.4} {unit}");
    }
    result.push_str("}}");
    println!("{result}");
    for failure in &report.gate_failures {
        eprintln!("GATE FAILED: {failure}");
    }
    correct
}

fn run(args: &Args) -> Result<bool, String> {
    let chosen: Vec<&(&str, Workload)> = match &args.workload {
        Some(name) => vec![WORKLOADS
            .iter()
            .find(|(n, _)| n == name)
            .ok_or_else(|| format!("unknown workload {name:?}\n{}", usage()))?],
        None => WORKLOADS.iter().collect(),
    };
    let seconds = args.seconds.unwrap_or(if args.smoke { 1.0 } else { 18.0 });
    let min_iters = if args.smoke { 1 } else { 3 };
    let topology = if args.smoke {
        world::world_smoke(args.seed)
    } else {
        world::world_mid(args.seed)
    };

    let out_dir = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("target")
        .join("e2e");
    let tag = args.workload.as_deref().unwrap_or("smoke");
    let scratch = Scratch(out_dir.join(format!("{tag}-{}-{}", args.seed, std::process::id())));

    // Set-up shared by every workload: the world, on disk. Generated
    // several times over; the same seed must give the same bytes.
    let mut world_s = Vec::new();
    let mut built: Option<world::World> = None;
    for _ in 0..SETUP_REPEATS {
        let started = Instant::now();
        let again = world::World::generate(&topology, &scratch.0)
            .map_err(|e| format!("write world: {e}"))?;
        world_s.push(started.elapsed().as_secs_f64());
        if let Some(first) = &built {
            if first.fingerprint != again.fingerprint {
                return Err(format!("seed {} generated two different worlds", args.seed));
            }
        }
        built = Some(again);
    }
    let world = built.expect("generated at least once");
    let setup_world_s = stats::fastest(&world_s);

    let mut all_correct = true;
    for (name, workload) in chosen {
        let mut ctx = Ctx::new(
            &world, args.seed, seconds, min_iters, &scratch.0, args.trace,
        );
        let report = workload(&mut ctx).map_err(|e| format!("{name}: {e}"))?;
        let peak_rss_mb = cpu::peak_rss_mb();
        if let Some(tracer) = &ctx.tracer {
            let path = out_dir.join(format!("trace_{name}.json"));
            tracer
                .write_json(&path, name, args.seed)
                .map_err(|e| format!("{}: {e}", path.display()))?;
            eprintln!("{name}: self time by span (written to {})", path.display());
            for (span, t) in tracer.totals() {
                eprintln!(
                    "  {span:<28} n={:<7} total {:>10.3} ms  self {:>10.3} ms  units {}",
                    t.count,
                    t.total_ns as f64 / 1e6,
                    t.self_ns as f64 / 1e6,
                    t.units
                );
            }
        }
        all_correct &= emit(
            name,
            args,
            &world,
            setup_world_s,
            &ctx,
            &report,
            peak_rss_mb,
        );
    }
    Ok(all_correct)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&args) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}
