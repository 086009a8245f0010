//! `bgp-archive` — inspect, verify, and compact an epoch archive
//! written by `bgp-served --archive` (or [`bgp_archive::writer`]).
//!
//! ```text
//! USAGE:
//!   bgp-archive inspect <DIR> [--epoch N]
//!   bgp-archive verify  <DIR>
//!   bgp-archive classes <DIR> [--epoch N]
//!   bgp-archive compact <DIR> [--keep N]
//!
//! COMMANDS:
//!   inspect   print the manifest and per-epoch summaries; with --epoch,
//!             dump one epoch's header, class histogram, and flips
//!   verify    re-read every committed byte: checksums, framing, epoch
//!             contiguity, interner continuity; exit 1 on any problem
//!   classes   dump one epoch's full classification table (default: the
//!             latest epoch) as sorted `asn class` lines — a stable text
//!             form two archives can be diffed by (the fault-injection
//!             soak compares a faulted run against a clean one this way)
//!   compact   merge segments older than the retention window into one
//!             slim segment (drops counter columns and flip chunks);
//!             --keep N retains the last N epochs untouched (default 16)
//! ```
//!
//! `compact` must not run while a daemon is writing the same directory.

use bgp_archive::prelude::*;
use std::path::PathBuf;
use std::process::ExitCode;

fn usage() -> &'static str {
    "usage: bgp-archive inspect <DIR> [--epoch N]\n\
     \x20      bgp-archive verify  <DIR>\n\
     \x20      bgp-archive classes <DIR> [--epoch N]\n\
     \x20      bgp-archive compact <DIR> [--keep N]\n\
     Inspect, verify, dump, or compact a bgp-served epoch archive."
}

fn human_bytes(n: u64) -> String {
    if n >= 1 << 20 {
        format!("{:.1} MiB", n as f64 / (1 << 20) as f64)
    } else if n >= 1 << 10 {
        format!("{:.1} KiB", n as f64 / (1 << 10) as f64)
    } else {
        format!("{n} B")
    }
}

fn inspect(dir: PathBuf, epoch: Option<u64>) -> Result<ExitCode> {
    let archive = Archive::open(dir)?;
    let manifest = archive.manifest();
    if let Some(epoch) = epoch {
        let ep = archive.load_epoch(epoch, DecodeFilter::all())?;
        let m = &ep.meta;
        println!("epoch {}:", m.epoch); // cli-out
        println!("  sealed_at        {}", m.sealed_at); // cli-out
        println!("  events           {} (total {})", m.events, m.total_events); // cli-out
        println!("  unique_tuples    {}", m.unique_tuples); // cli-out
                                                            // cli-out
        println!(
            "  interner         base {} + {} new = {}",
            ep.interner_base,
            ep.interner_delta.len(),
            ep.interner_len()
        );
        // cli-out
        println!(
            "  counters         {}",
            match &ep.counters {
                Some(c) => format!("{} ids", c.len()),
                None => "dropped (compacted)".to_string(),
            }
        );
        println!("  classified       {}", ep.classes.len()); // cli-out
        let mut histogram: Vec<(String, usize)> = Vec::new();
        for &(_, class) in &ep.classes {
            let key = class.to_string();
            match histogram.iter_mut().find(|(k, _)| *k == key) {
                Some((_, n)) => *n += 1,
                None => histogram.push((key, 1)),
            }
        }
        histogram.sort_by_key(|&(_, n)| std::cmp::Reverse(n));
        for (class, n) in histogram {
            println!("    {class}  {n}"); // cli-out
        }
        match &ep.flips {
            Some(flips) => {
                println!("  flips            {}", flips.len()); // cli-out
                for flip in flips.iter().take(20) {
                    println!("    {flip}"); // cli-out
                }
                if flips.len() > 20 {
                    println!("    … {} more", flips.len() - 20); // cli-out
                }
            }
            None => println!("  flips            dropped (compacted)"), // cli-out
        }
        // cli-out
        println!(
            "  seal             {:.2} ms ({:.2} ms counting)",
            m.seal_nanos as f64 / 1e6,
            m.count_nanos as f64 / 1e6
        );
        return Ok(ExitCode::SUCCESS);
    }

    let bytes: u64 = manifest.entries.iter().map(|e| e.bytes).sum();
    // cli-out
    println!(
        "archive {}: {} segments, {} epochs, {}",
        archive.dir().display(),
        manifest.entries.len(),
        manifest.epoch_count(),
        human_bytes(bytes)
    );
    for entry in &manifest.entries {
        // cli-out
        println!(
            "  {}  epochs {}..={}  {}  fnv {:016x}",
            entry.file,
            entry.first_epoch,
            entry.last_epoch,
            human_bytes(entry.bytes),
            entry.checksum
        );
    }
    for meta in archive.epoch_metas()? {
        // cli-out
        println!(
            "  epoch {:>4}  sealed_at {:>12}  events {:>8}  tuples {:>8}",
            meta.epoch, meta.sealed_at, meta.events, meta.unique_tuples
        );
    }
    Ok(ExitCode::SUCCESS)
}

fn verify(dir: PathBuf) -> Result<ExitCode> {
    let archive = Archive::open(dir)?;
    let report = archive.verify();
    // cli-out
    println!(
        "verified {} segments, {} epochs, {}",
        report.segments,
        report.epochs,
        human_bytes(report.bytes)
    );
    if report.is_ok() {
        println!("archive OK"); // cli-out
        Ok(ExitCode::SUCCESS)
    } else {
        for problem in &report.problems {
            eprintln!("problem: {problem}"); // cli-out
        }
        Ok(ExitCode::FAILURE)
    }
}

fn classes(dir: PathBuf, epoch: Option<u64>) -> Result<ExitCode> {
    let archive = Archive::open(dir)?;
    let epoch = match epoch {
        Some(e) => e,
        None => match archive.epoch_metas()?.last() {
            Some(meta) => meta.epoch,
            None => {
                eprintln!("error: archive holds no epochs"); // cli-out
                return Ok(ExitCode::FAILURE);
            }
        },
    };
    let ep = archive.load_epoch(epoch, DecodeFilter::classes_only())?;
    let mut table = ep.classes.clone();
    table.sort_by_key(|&(asn, _)| asn);
    println!("epoch {epoch} classes {}", table.len()); // cli-out
    for (asn, class) in table {
        println!("{} {class}", asn.0); // cli-out
    }
    Ok(ExitCode::SUCCESS)
}

fn run_compact(dir: PathBuf, keep: u64) -> Result<ExitCode> {
    match compact(&dir, keep)? {
        Some(report) => {
            println!( // cli-out
                "compacted: {} -> {} segments, {} -> {} ({} epochs merged, {} counter columns and {} flip chunks dropped)",
                report.segments_before,
                report.segments_after,
                human_bytes(report.bytes_before),
                human_bytes(report.bytes_after),
                report.epochs_merged,
                report.counters_dropped,
                report.flips_dropped
            );
        }
        None => {
            // cli-out
            println!("nothing to compact (fewer than 2 segments outside the last {keep} epochs)")
        }
    }
    Ok(ExitCode::SUCCESS)
}

fn parse_and_run(args: &[String]) -> std::result::Result<Result<ExitCode>, String> {
    if args.is_empty() || args.iter().any(|a| a == "-h" || a == "--help") {
        return Err(String::new());
    }
    let command = args[0].as_str();
    let mut dir: Option<PathBuf> = None;
    let mut epoch: Option<u64> = None;
    let mut keep: u64 = 16;
    let mut it = args[1..].iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--epoch" => {
                let v = it.next().ok_or("missing value for --epoch")?;
                epoch = Some(v.parse().map_err(|e| format!("bad --epoch: {e}"))?);
            }
            "--keep" => {
                let v = it.next().ok_or("missing value for --keep")?;
                keep = v.parse().map_err(|e| format!("bad --keep: {e}"))?;
            }
            other if other.starts_with('-') => return Err(format!("unknown option {other}")),
            path => {
                if dir.replace(PathBuf::from(path)).is_some() {
                    return Err("more than one directory given".into());
                }
            }
        }
    }
    let dir = dir.ok_or("no archive directory given")?;
    match command {
        "inspect" => Ok(inspect(dir, epoch)),
        "verify" => Ok(verify(dir)),
        "classes" => Ok(classes(dir, epoch)),
        "compact" => Ok(run_compact(dir, keep)),
        other => Err(format!("unknown command {other}")),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse_and_run(&args) {
        Ok(Ok(code)) => code,
        Ok(Err(e)) => {
            eprintln!("error: {e}"); // cli-out
            ExitCode::FAILURE
        }
        Err(msg) => {
            if msg.is_empty() {
                eprintln!("{}", usage()); // cli-out
                return ExitCode::SUCCESS;
            }
            eprintln!("error: {msg}\n{}", usage()); // cli-out
            ExitCode::FAILURE
        }
    }
}
