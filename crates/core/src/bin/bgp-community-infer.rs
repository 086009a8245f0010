//! `bgp-community-infer` — the command-line front end of the inference
//! pipeline: read MRT archive files (RIB dumps and/or update files), run
//! the §4.1 sanitation and the column-based inference, and write the
//! per-AS community-usage database to stdout or a file.
//!
//! ```text
//! USAGE:
//!   bgp-community-infer [OPTIONS] <MRT-FILE>...
//!
//! OPTIONS:
//!   -t, --threshold <0.5..=1.0>   classification threshold (default 0.99)
//!   -o, --output <FILE>           write the inference db here (default stdout)
//!       --summary                 print class counts to stderr
//!   -h, --help                    show this help
//! ```
//!
//! Input files must be raw (uncompressed) MRT as served by RIPE RIS,
//! RouteViews, or this workspace's own `bgp-collector` generator.

use bgp_infer::prelude::*;
use bgp_types::prelude::*;
use std::io::Write;
use std::process::ExitCode;

struct Options {
    threshold: f64,
    output: Option<String>,
    summary: bool,
    inputs: Vec<String>,
}

fn usage() -> &'static str {
    "usage: bgp-community-infer [-t THRESHOLD] [-o FILE] [--summary] <MRT-FILE>...\n\
     Reads MRT archives (RIBs and/or updates), infers per-AS BGP community usage\n\
     (tagger/silent x forward/cleaner), and writes the inference database."
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        threshold: 0.99,
        output: None,
        summary: false,
        inputs: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "-t" | "--threshold" => {
                let v = it.next().ok_or("missing value for --threshold")?;
                opts.threshold = v.parse().map_err(|e| format!("bad threshold {v:?}: {e}"))?;
                if !(0.5..=1.0).contains(&opts.threshold) {
                    return Err(format!("threshold {} outside 0.5..=1.0", opts.threshold));
                }
            }
            "-o" | "--output" => {
                opts.output = Some(it.next().ok_or("missing value for --output")?.clone());
            }
            "--summary" => opts.summary = true,
            "-h" | "--help" => return Err(String::new()),
            other if other.starts_with('-') => {
                return Err(format!("unknown option {other:?}\n{}", usage()));
            }
            file => opts.inputs.push(file.to_string()),
        }
    }
    if opts.inputs.is_empty() {
        return Err(format!("no input files\n{}", usage()));
    }
    Ok(opts)
}

fn run(opts: &Options) -> Result<(), String> {
    let mut set = TupleSet::new();
    for input in &opts.inputs {
        let bytes = std::fs::read(input).map_err(|e| format!("{input}: {e}"))?;
        let mut stream = bgp_mrt::TupleStream::new(&bytes);
        while let Some(item) = stream.next_ref() {
            let (_, tuple) = item.map_err(|e| format!("{input}: {e}"))?;
            set.insert_ref(tuple);
        }
        eprintln!(
            "{input}: {} entries, {} usable tuples",
            stream.raw_entries(),
            stream.kept()
        );
    }
    eprintln!(
        "total: {} entries ingested, {} unique (path, comm) tuples",
        set.total_ingested(),
        set.len()
    );

    // The engine is order-free: compile straight off the set's records,
    // in the order they arrived, and own no tuple at all.
    let mut compiled = CompiledTuples::new();
    for t in set.unordered() {
        compiled.push_ref(t);
    }
    drop(set);
    let outcome = compiled.run(&InferenceConfig::with_threshold(opts.threshold));

    if opts.summary {
        let mut counts = std::collections::BTreeMap::new();
        for (_, class) in outcome.classes() {
            *counts.entry(class.as_str()).or_insert(0u64) += 1;
        }
        eprintln!("classes: {counts:?}");
    }

    let text = export(&outcome);
    match &opts.output {
        Some(path) => std::fs::write(path, text).map_err(|e| format!("{path}: {e}"))?,
        None => {
            std::io::stdout()
                .write_all(text.as_bytes())
                .map_err(|e| e.to_string())?;
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(msg) => {
            if msg.is_empty() {
                eprintln!("{}", usage());
                return ExitCode::SUCCESS;
            }
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    match run(&opts) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}
