//! What every workload shares: the pinned program configuration, the
//! context a workload runs in, and the report it hands back.

use crate::cpu;
use crate::trace::Tracer;
use crate::world::World;
use bgp_archive::frame::Fnv64;
use bgp_infer::prelude::*;
use bgp_serve::prelude::DriverConfig;
use bgp_stream::prelude::{EpochPolicy, StreamConfig};
use std::path::{Path, PathBuf};
use std::time::Instant;

// The program's configuration is fixed here, never read from `nproc`:
// a number must mean the same thing on every box it is measured on.
pub const SHARDS: usize = 2;
pub const INGEST_BATCH: usize = 1_024;
pub const ENGINE_THREADS: usize = 2;
pub const HTTP_WORKERS: usize = 1;
pub const FLIP_LOG_CAP: usize = 200;
/// Events per epoch: cold backfill, following the live stream, and the
/// day the query workloads ingest in set-up.
pub const BULK_EPOCH_EVENTS: u64 = 50_000;
pub const TRICKLE_EPOCH_EVENTS: u64 = 2_000;
pub const QUERY_EPOCH_EVENTS: u64 = 10_000;

pub fn stream_config(epoch: EpochPolicy) -> StreamConfig {
    StreamConfig {
        shards: SHARDS,
        epoch,
        compact_history: true,
        ..Default::default()
    }
}

pub fn driver_config(epoch: EpochPolicy) -> DriverConfig {
    DriverConfig {
        stream: stream_config(epoch),
        batch: INGEST_BATCH,
        flip_log_cap: FLIP_LOG_CAP,
        ..Default::default()
    }
}

/// `bgp-community-infer`'s defaults, with the thread count pinned.
pub fn infer_config() -> InferenceConfig {
    InferenceConfig {
        threads: ENGINE_THREADS,
        ..Default::default()
    }
}

/// Digest of a classification: what two runs must agree on.
pub fn class_digest(records: &[DbRecord]) -> u64 {
    let mut h = Fnv64::new();
    for r in records {
        h.update(&u64::from(r.asn.0).to_le_bytes());
        h.update(r.class.as_str().as_bytes());
    }
    h.digest()
}

pub struct Ctx<'a> {
    pub world: &'a World,
    pub seed: u64,
    /// How long the measured part runs.
    pub seconds: f64,
    /// Fewest timed iterations of a batch or stream workload.
    pub min_iters: usize,
    /// This run's scratch directory (holds the MRT files; workloads put
    /// their archive directories beside them).
    pub scratch: &'a Path,
    /// `Some` in the `--trace 1` run.
    pub tracer: Option<Tracer>,
    setup_began: Instant,
    /// Seconds of the workload's own set-up (oracles, warm-up, ingest).
    pub setup_extra_s: f64,
    /// Whether the kernel let us reset the peak-RSS mark after set-up.
    pub rss_reset: bool,
}

impl<'a> Ctx<'a> {
    pub fn new(
        world: &'a World,
        seed: u64,
        seconds: f64,
        min_iters: usize,
        scratch: &'a Path,
        traced: bool,
    ) -> Self {
        Ctx {
            world,
            seed,
            seconds,
            min_iters,
            scratch,
            tracer: traced.then(Tracer::new),
            setup_began: Instant::now(),
            setup_extra_s: 0.0,
            rss_reset: false,
        }
    }

    /// Set-up ends here; the next call is the first timed one.
    pub fn setup_done(&mut self) {
        self.setup_extra_s = self.setup_began.elapsed().as_secs_f64();
        self.rss_reset = cpu::reset_peak_rss();
    }

    /// A fresh directory under the scratch directory.
    pub fn fresh_dir(&self, name: &str) -> Result<PathBuf, String> {
        let dir = self.scratch.join(name);
        if dir.exists() {
            std::fs::remove_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        Ok(dir)
    }

    /// Whether a batch or stream workload should run another iteration
    /// of a loop that may use `share` of the run's seconds.
    pub fn more(&self, done: usize, looping_since: Instant, share: f64) -> bool {
        done < self.min_iters || looping_since.elapsed().as_secs_f64() < self.seconds * share
    }

    /// Time `f` as a leaf span in the traced run; just call it otherwise.
    pub fn leaf<T>(&mut self, name: &'static str, f: impl FnOnce() -> (T, u64)) -> T {
        match &mut self.tracer {
            Some(tracer) => tracer.leaf(name, f),
            None => f().0,
        }
    }
}

/// What one workload measured.
#[derive(Default)]
pub struct Report {
    /// The workload's unit of work per second (entries, events or
    /// requests — see README).
    pub throughput_per_s: f64,
    pub attempted: u64,
    pub failed: u64,
    /// One line per correctness gate that did not hold.
    pub gate_failures: Vec<String>,
    pub class_digest: u64,
    /// Hash of the request schedule (0: the workload sends no requests).
    pub schedule_fingerprint: u64,
    /// Per-layer values this workload produced; every other declared
    /// layer metric reads 0 for it.
    pub layers: Vec<(&'static str, f64)>,
    /// Extra `"key": json` pairs for the summary line.
    pub facts: Vec<(&'static str, String)>,
}

impl Report {
    pub fn gate(&mut self, holds: bool, what: impl FnOnce() -> String) {
        if !holds {
            self.gate_failures.push(what());
        }
    }

    pub fn layer(&mut self, name: &'static str, value: f64) {
        self.layers.push((name, value));
    }

    pub fn fact(&mut self, key: &'static str, json: impl ToString) {
        self.facts.push((key, json.to_string()));
    }
}
