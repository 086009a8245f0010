//! `batch_day`: the paper's batch job — every MRT file of the day
//! through `bgp-community-infer`'s path, bytes on disk to db text.

use crate::run::{class_digest, infer_config, Ctx, Report};
use crate::stats::{fastest, ratio};
use bgp_infer::prelude::*;
use bgp_mrt::{extract_tuples, MrtReader, MrtRecord};
use bgp_types::prelude::*;
use std::time::Instant;

/// Counts one pass over the files produced.
#[derive(Clone, Copy, Default)]
pub struct Intake {
    pub bytes: u64,
    pub raw_entries: u64,
    /// Tuples that survived path-shape sanitation.
    pub kept: u64,
    pub unique: usize,
}

/// Files → deduplicated tuples, exactly as the CLI's read loop does it.
pub fn read_tuples(
    ctx: &mut Ctx<'_>,
    files: &[String],
) -> Result<(Vec<PathCommTuple>, Intake), String> {
    let mut set = TupleSet::new();
    let mut intake = Intake::default();
    for file in files {
        let bytes = ctx.leaf("fs.read", || {
            let read = std::fs::read(file);
            let n = read.as_ref().map_or(0, |b| b.len() as u64);
            (read, n)
        });
        let bytes = bytes.map_err(|e| format!("{file}: {e}"))?;
        intake.bytes += bytes.len() as u64;
        let extracted = ctx.leaf("mrt.extract", || {
            let out = extract_tuples(&bytes);
            let raw = out.as_ref().map_or(0, |(_, raw)| *raw);
            (out, raw)
        });
        let (tuples, raw) = extracted.map_err(|e| format!("{file}: {e}"))?;
        intake.raw_entries += raw;
        intake.kept += tuples.len() as u64;
        ctx.leaf("types.tupleset.insert", || {
            let n = tuples.len() as u64;
            for t in tuples {
                set.insert(t);
            }
            ((), n)
        });
    }
    intake.unique = set.len();
    let tuples = ctx.leaf("types.tupleset.to_vec", || (set.to_vec(), set.len() as u64));
    Ok((tuples, intake))
}

/// The production engine over `tuples`. The traced run calls the two
/// public halves of `InferenceEngine::run` itself, to time them apart.
pub fn infer(ctx: &mut Ctx<'_>, tuples: &[PathCommTuple]) -> InferenceOutcome {
    let config = infer_config();
    match &mut ctx.tracer {
        None => InferenceEngine::new(config).run(tuples),
        Some(tracer) => {
            let n = tuples.len() as u64;
            let mut compiled =
                tracer.leaf("core.compile", || (CompiledTuples::from_tuples(tuples), n));
            tracer.leaf("core.engine", || (compiled.run(&config), n))
        }
    }
}

/// One whole job: what a user of the CLI waits for.
fn job(ctx: &mut Ctx<'_>, files: &[String]) -> Result<(String, Intake, InferenceOutcome), String> {
    let (tuples, intake) = read_tuples(ctx, files)?;
    let outcome = infer(ctx, &tuples);
    let ases = outcome.counters.iter().count() as u64;
    let db = ctx.leaf("core.db.export", || (export(&outcome), ases));
    Ok((db, intake, outcome))
}

pub fn batch_day(ctx: &mut Ctx<'_>) -> Result<Report, String> {
    let files = ctx.world.all_files();
    let mut report = Report::default();

    // Set-up: the oracle (the uncompiled Listing-1 engine on the same
    // tuples) and one untimed job to warm the page cache and allocator.
    let traced = ctx.tracer.take();
    let (tuples, _) = read_tuples(ctx, &files)?;
    let t_reference = Instant::now();
    let reference = InferenceEngine::new(infer_config()).run_reference(&tuples);
    let reference_ns = t_reference.elapsed().as_nanos() as f64;
    let oracle_db = export(&reference);
    let t_warm = Instant::now();
    let (warm_db, _, _) = job(ctx, &files)?;
    let untraced_job_s = t_warm.elapsed().as_secs_f64();
    report.gate(warm_db == oracle_db, || {
        "batch_day: compiled engine's db differs from run_reference's on the same tuples".into()
    });
    drop(tuples);
    ctx.tracer = traced;
    ctx.setup_done();

    let mut wall_s = Vec::new();
    let mut intake = Intake::default();
    let mut last_outcome = None;
    let measuring = Instant::now();
    while ctx.more(wall_s.len(), measuring, 1.0) {
        let trial = wall_s.len() as u32;
        let root = ctx.tracer.as_mut().map(|t| {
            t.set_trial(trial);
            t.open("batch_day.job")
        });
        let started = Instant::now();
        let (db, seen, outcome) = job(ctx, &files)?;
        wall_s.push(started.elapsed().as_secs_f64());
        if let (Some(t), Some(root)) = (ctx.tracer.as_mut(), root) {
            t.close(root, seen.raw_entries);
        }
        report.gate(db == oracle_db, || {
            format!("batch_day: job {trial} produced a different db")
        });
        intake = seen;
        last_outcome = Some(outcome);
    }
    let records = bgp_infer::db::records(&last_outcome.expect("at least one job"));

    let job_s = fastest(&wall_s);
    report.throughput_per_s = intake.raw_entries as f64 / job_s;
    report.attempted = (files.len() * wall_s.len()) as u64;
    report.class_digest = class_digest(&records);
    report.fact("throughput_unit", "\"entries\"");
    report.fact("iterations", wall_s.len());
    report.fact("iteration_ms", crate::stats::json_ms(&wall_s));
    report.fact("files", files.len());
    report.fact("raw_entries", intake.raw_entries);
    report.fact("unique_tuples", intake.unique);

    if ctx.tracer.is_some() {
        // Decoding alone, which `extract_tuples` does not expose: one
        // extra pass of `MrtReader::read_all`, outside any job.
        for file in &files {
            let bytes = std::fs::read(file).map_err(|e| format!("{file}: {e}"))?;
            let records = ctx.leaf("mrt.decode", || {
                let records = MrtReader::new(&bytes).read_all();
                let entries = records.as_ref().map_or(0, |rs| {
                    rs.iter()
                        .map(|r| match r {
                            MrtRecord::Update(_) => 1,
                            MrtRecord::RibEntries(es) => es.len() as u64,
                            MrtRecord::PeerIndex(_) => 0,
                        })
                        .sum()
                });
                (records, entries)
            });
            records.map_err(|e| format!("{file}: {e}"))?;
        }
        let t = ctx.tracer.as_ref().expect("traced run");
        let jobs = wall_s.len() as f64;
        report.layer(
            "mrt.decode_ns_per_entry",
            t.total("mrt.decode").ns_per_unit(),
        );
        report.layer(
            "mrt.extract_ns_per_entry",
            t.total("mrt.extract").ns_per_unit(),
        );
        report.layer("mrt.bytes_in", intake.bytes as f64);
        report.layer("mrt.entries", intake.raw_entries as f64);
        report.layer(
            "core.sanitize.kept_share",
            ratio(intake.kept as f64, intake.raw_entries as f64),
        );
        report.layer(
            "types.tupleset.insert_ns_per_tuple",
            t.total("types.tupleset.insert").ns_per_unit(),
        );
        report.layer(
            "types.tupleset.dup_share",
            1.0 - ratio(intake.unique as f64, intake.kept as f64),
        );
        report.layer(
            "core.compile_ns_per_tuple",
            t.total("core.compile").ns_per_unit(),
        );
        report.layer(
            "core.engine_ns_per_tuple",
            t.total("core.engine").ns_per_unit(),
        );
        report.layer(
            "core.reference_ns_per_tuple",
            ratio(reference_ns, intake.unique as f64),
        );
        report.layer(
            "core.db.export_ns_per_as",
            t.total("core.db.export").ns_per_unit(),
        );
        report.layer("core.classified_ases", records.len() as f64);
        report.layer(
            "trace.traced_wall_s",
            t.total("batch_day.job").total_ns as f64 / 1e9 / jobs,
        );
        report.layer("trace.untraced_wall_s", untraced_job_s);
    }
    Ok(report)
}
