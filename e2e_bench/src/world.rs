//! The seeded world every workload shares: one simulated Internet, one
//! day of collector data for the four projects of the paper, written
//! out as the raw MRT files the program is then pointed at.

use bgp_archive::frame::Fnv64;
use bgp_collector::prelude::*;
use bgp_eval::world::realistic_roles;
use bgp_mrt::{MrtReader, MrtRecord};
use bgp_topology::prelude::*;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// `world-mid`: between `TopologyConfig::small()` and `paper_scale()`,
/// sized so that set-up stays near two seconds on two cores.
pub fn world_mid(seed: u64) -> TopologyConfig {
    TopologyConfig {
        tier1: 12,
        transit: 500,
        edge: 2_500,
        collector_peers: 60,
        frac_32bit: 0.43,
        transit_peering: 0.5,
        seed,
    }
}

/// The `--smoke` world: the laptop-scale topology the test suites use.
pub fn world_smoke(seed: u64) -> TopologyConfig {
    TopologyConfig::small().seed(seed)
}

/// The generated inputs, on disk.
pub struct World {
    /// RIB snapshot files: RIPE, RouteViews, Isolario (PCH has none
    /// that carry communities).
    pub ribs: Vec<String>,
    /// Per-bin update files of all four projects, ordered by bin start;
    /// ties in the order RIPE, RouteViews, Isolario, PCH.
    pub updates: Vec<String>,
    /// Total bytes written.
    pub bytes: u64,
    /// FNV-1a-64 over every file's bytes, in the order above.
    pub fingerprint: u64,
    /// Seconds spent on topology, routing, cones and roles.
    pub sim_world_s: f64,
    /// Seconds spent rendering the four projects' days into MRT bytes.
    pub build_day_s: f64,
}

impl World {
    /// Every file, RIBs first — the order `batch_day` reads them in.
    pub fn all_files(&self) -> Vec<String> {
        self.ribs.iter().chain(&self.updates).cloned().collect()
    }

    /// Generate the world for `cfg` and write its files under `dir`.
    pub fn generate(cfg: &TopologyConfig, dir: &Path) -> std::io::Result<World> {
        let seed = cfg.seed;
        let t_sim = Instant::now();
        let graph = cfg.build();
        let paths = PathSubstrate::generate(&graph, 2).paths;
        let cones = CustomerCones::compute(&graph);
        let roles = realistic_roles(&graph, &cones, seed);
        let sim_world_s = t_sim.elapsed().as_secs_f64();

        let t_day = Instant::now();
        let builder = ArchiveBuilder::new(&graph, &roles);
        let projects = [
            CollectorProject::ripe(),
            CollectorProject::routeviews(),
            CollectorProject::isolario(),
            CollectorProject::pch(),
        ];
        let days: Vec<DayArchive> = projects
            .iter()
            .map(|p| builder.build_day(p, &paths, seed))
            .collect();
        let build_day_s = t_day.elapsed().as_secs_f64();

        std::fs::create_dir_all(dir)?;
        let mut fingerprint = Fnv64::new();
        let mut bytes = 0u64;
        let mut write = |name: String, data: &[u8]| -> std::io::Result<String> {
            let path: PathBuf = dir.join(name);
            std::fs::write(&path, data)?;
            fingerprint.update(data);
            bytes += data.len() as u64;
            Ok(path.to_string_lossy().into_owned())
        };

        let mut ribs = Vec::new();
        for day in days.iter().filter(|d| !d.rib_bytes.is_empty()) {
            ribs.push(write(format!("{}.rib.mrt", day.project), &day.rib_bytes)?);
        }

        // (bin start, project index, file index): the order a consumer
        // following all four projects live would see the files appear.
        let mut order: Vec<(u64, usize, usize)> = Vec::new();
        for (p, day) in days.iter().enumerate() {
            let bin_secs = u64::from(projects[p].update_bin_minutes.max(1)) * 60;
            for (i, file) in day.update_files.iter().enumerate() {
                let first_ts = match MrtReader::new(file).next() {
                    Some(Ok(MrtRecord::Update(u))) => u.timestamp,
                    _ => panic!("generated update file does not start with an update record"),
                };
                let day_start = u64::from(builder.day_start);
                let bin = (first_ts - day_start) / bin_secs;
                order.push((day_start + bin * bin_secs, p, i));
            }
        }
        order.sort_unstable();
        let mut updates = Vec::with_capacity(order.len());
        for (n, &(_, p, i)) in order.iter().enumerate() {
            let name = format!("upd.{n:04}.{}.mrt", days[p].project);
            updates.push(write(name, &days[p].update_files[i])?);
        }

        Ok(World {
            ribs,
            updates,
            bytes,
            fingerprint: fingerprint.digest(),
            sim_world_s,
            build_day_s,
        })
    }
}
