//! MRT archive generation and ingestion.
//!
//! This is the end-to-end data plane of the reproduction: the simulated
//! Internet (topology + roles) is rendered into **real RFC 6396 MRT
//! bytes** — RIB snapshots (`TABLE_DUMP_V2`) and update streams
//! (`BGP4MP_MESSAGE_AS4`) — exactly as a collector would archive them, and
//! then re-parsed through the `bgp-mrt` codec and the §4.1 sanitation
//! pipeline back into `(path, comm)` tuples. Running inference on tuples
//! that survived a byte-level round trip is what makes the reproduction
//! faithful to how the paper's pipeline consumes RIPE/RouteViews data.

use crate::project::CollectorProject;
use bgp_mrt::{MrtWriter, PeerEntry, PeerIndexTable, RibGroup};
use bgp_sim::prelude::*;
use bgp_topology::prelude::*;
use bgp_types::prelude::*;
use std::collections::HashMap;
use std::hash::{DefaultHasher, Hash, Hasher};

/// A generated day of collector data for one project.
#[derive(Debug, Clone)]
pub struct DayArchive {
    /// Project name.
    pub project: &'static str,
    /// RIB snapshot bytes (empty when the project has no community RIBs).
    pub rib_bytes: Vec<u8>,
    /// Update stream bytes (concatenation of `update_files`; MRT files
    /// concatenate losslessly).
    pub update_bytes: Vec<u8>,
    /// Per-bin update files, as the project would publish them (RIPE:
    /// 5-minute files, RouteViews: 15-minute, per `update_bin_minutes`).
    /// Empty bins produce no file.
    pub update_files: Vec<Vec<u8>>,
    /// Number of RIB entries written.
    pub rib_entries: u64,
    /// Number of update messages written.
    pub update_messages: u64,
}

impl DayArchive {
    /// The archive as the chunk sequence a streaming consumer polls: the
    /// RIB snapshot first (when the project publishes one), then each
    /// per-bin update file in publication order. Concatenating the chunks
    /// reproduces `rib_bytes` + `update_bytes`; consuming them one at a
    /// time (e.g. one `bgp-stream` `MrtSource` per chunk) bounds ingest
    /// memory to one file instead of one day.
    pub fn chunks(&self) -> impl Iterator<Item = &[u8]> {
        std::iter::once(self.rib_bytes.as_slice())
            .filter(|b| !b.is_empty())
            .chain(self.update_files.iter().map(|f| f.as_slice()))
    }
}

/// Deterministic per-origin prefix: maps the i-th origin into public
/// 16.0.0.0/8 space as a /24.
pub fn origin_prefix(index: usize) -> Prefix {
    let net = 0x1000_0000u32 + (index as u32) * 256;
    Prefix::v4(net.to_be_bytes(), 24)
}

/// Archive generator for one simulated day.
pub struct ArchiveBuilder<'a> {
    graph: &'a AsGraph,
    roles: &'a RoleAssignment,
    noise: Option<&'a NoiseModel>,
    /// Base timestamp of the day (2021-05-19T00:00:00Z by default).
    pub day_start: u32,
}

impl<'a> ArchiveBuilder<'a> {
    /// New builder over a world.
    pub fn new(graph: &'a AsGraph, roles: &'a RoleAssignment) -> Self {
        ArchiveBuilder {
            graph,
            roles,
            noise: None,
            day_start: 1_621_382_400,
        }
    }

    /// Inject a noise model into propagation.
    pub fn with_noise(mut self, noise: &'a NoiseModel) -> Self {
        self.noise = Some(noise);
        self
    }

    /// Generate one day of data for `project`.
    ///
    /// * RIB: one snapshot per day; for every (project peer, origin) pair
    ///   with a route, one `RIB_IPV4_UNICAST` entry carrying the
    ///   propagated community set.
    /// * Updates: per pair, a deterministic-pseudorandom number of
    ///   re-announcements (mean `update_intensity`) spread over the day,
    ///   plus occasional withdrawals.
    pub fn build_day(
        &self,
        project: &CollectorProject,
        substrate: &[AsPath],
        seed: u64,
    ) -> DayArchive {
        let peers = project.select_peers(self.graph, seed);
        let peer_set: HashMap<Asn, u16> = peers
            .iter()
            .enumerate()
            .map(|(i, &a)| (a, i as u16))
            .collect();

        let mut prop = Propagator::new(self.graph, self.roles);
        if let Some(n) = self.noise {
            prop = prop.with_noise(n);
        }

        // Origin index for prefix derivation.
        let mut origin_index: HashMap<Asn, usize> = HashMap::new();
        for p in substrate {
            let next = origin_index.len();
            origin_index.entry(p.origin()).or_insert(next);
        }

        // --- RIB snapshot ---
        let mut rib = MrtWriter::new();
        let mut rib_entries = 0u64;
        if project.ribs_with_communities {
            let table = PeerIndexTable {
                collector_id: 0xC000_0000 | project.salt as u32,
                view_name: project.name.to_string(),
                peers: peers
                    .iter()
                    .map(|&a| PeerEntry {
                        bgp_id: a.0,
                        ip: vec![192, 0, 2, 1],
                        asn: a,
                    })
                    .collect(),
            };
            rib.write_peer_index(&table, self.day_start)
                .expect("peer index encodes");

            // Group substrate paths by prefix (origin).
            let mut by_origin: HashMap<Asn, Vec<&AsPath>> = HashMap::new();
            for p in substrate {
                if peer_set.contains_key(&p.peer()) {
                    by_origin.entry(p.origin()).or_default().push(p);
                }
            }
            let mut origins: Vec<Asn> = by_origin.keys().copied().collect();
            origins.sort();
            for (seq, origin) in origins.iter().enumerate() {
                let paths = &by_origin[origin];
                let entries: Vec<(u16, u32, PathAttributes)> = paths
                    .iter()
                    .map(|p| {
                        let comm = prop.output(p);
                        let attrs = PathAttributes {
                            origin: Some(Origin::Igp),
                            as_path: wire_path(p, project, seed),
                            next_hop: Some([192, 0, 2, 1]),
                            communities: comm,
                        };
                        (peer_set[&p.peer()], self.day_start, attrs)
                    })
                    .collect();
                rib_entries += entries.len() as u64;
                let group = RibGroup {
                    sequence: seq as u32,
                    prefix: origin_prefix(origin_index[origin]),
                    entries,
                };
                rib.write_rib_group(&group, self.day_start)
                    .expect("rib group encodes");
            }
        }

        // --- Update stream ---
        let mut messages: Vec<UpdateMessage> = Vec::new();
        for p in substrate {
            if !peer_set.contains_key(&p.peer()) {
                continue;
            }
            let h = stable_hash((seed, project.salt, p.asns()));
            let n_updates = poissonish(h, project.update_intensity);
            if n_updates == 0 {
                continue;
            }
            let comm = prop.output(p);
            let prefix = origin_prefix(origin_index[&p.origin()]);
            for k in 0..n_updates {
                let ts = self.day_start as u64 + (h.rotate_left(k) % 86_400);
                messages.push(UpdateMessage::announcement(
                    p.peer(),
                    ts,
                    prefix,
                    wire_path(p, project, seed),
                    comm.clone(),
                ));
            }
            // Occasional withdrawal churn (~6% of pairs).
            if h % 16 == 0 {
                let mut w = UpdateMessage::announcement(
                    p.peer(),
                    self.day_start as u64 + (h % 86_400),
                    prefix,
                    wire_path(p, project, seed),
                    CommunitySet::new(),
                );
                w.withdrawn = w.announced.drain(..).collect();
                messages.push(w);
            }
        }

        // Bin by timestamp into per-file writers, as the project publishes
        // them; the concatenation is the whole day.
        messages.sort_by_key(|m| m.timestamp);
        let update_messages = messages.len() as u64;
        let bin_secs = (project.update_bin_minutes.max(1) as u64) * 60;
        let mut update_files: Vec<Vec<u8>> = Vec::new();
        let mut current = MrtWriter::new();
        let mut current_bin: Option<u64> = None;
        for msg in &messages {
            let bin = (msg.timestamp - self.day_start as u64) / bin_secs;
            if current_bin.is_some() && current_bin != Some(bin) && current.record_count() > 0 {
                update_files.push(std::mem::take(&mut current).into_bytes());
                current = MrtWriter::new();
            }
            current_bin = Some(bin);
            current.write_update(msg).expect("update encodes");
        }
        if current.record_count() > 0 {
            update_files.push(current.into_bytes());
        }
        let mut update_bytes = Vec::new();
        for f in &update_files {
            update_bytes.extend_from_slice(f);
        }

        DayArchive {
            project: project.name,
            rib_bytes: rib.into_bytes(),
            update_bytes,
            update_files,
            rib_entries,
            update_messages,
        }
    }
}

/// Ingest a day archive back into a deduplicated [`TupleSet`] through the
/// MRT codec and §4.1 sanitation.
pub fn ingest_day(archive: &DayArchive, set: &mut TupleSet) -> bgp_mrt::Result<()> {
    for bytes in [&archive.rib_bytes, &archive.update_bytes] {
        if bytes.is_empty() {
            continue;
        }
        let mut stream = bgp_mrt::TupleStream::new(bytes);
        while let Some(item) = stream.next_ref() {
            set.insert_ref(item?.1);
        }
    }
    Ok(())
}

/// The AS path as it appears on the wire for this peer: IXP route servers
/// (per project policy) do not put themselves on the path — the MRT Peer
/// AS Number still names them, and the §4.1 sanitation re-prepends them on
/// ingestion.
fn wire_path(p: &AsPath, project: &CollectorProject, seed: u64) -> RawAsPath {
    let asns = p.asns();
    if asns.len() > 1 && project.is_route_server(p.peer(), seed) {
        RawAsPath::from_sequence(asns[1..].to_vec())
    } else {
        RawAsPath::from_sequence(asns.to_vec())
    }
}

fn stable_hash<T: Hash>(v: T) -> u64 {
    let mut h = DefaultHasher::new();
    v.hash(&mut h);
    h.finish()
}

/// Map a hash to a small count with the given mean (geometric-ish; good
/// enough to model churn volume without an RNG dependency in the hot
/// path).
fn poissonish(hash: u64, mean: f64) -> u32 {
    if mean <= 0.0 {
        return 0;
    }
    let u = (hash % 1_000_000) as f64 / 1_000_000.0;
    // Inverse-CDF of a geometric distribution with the same mean.
    let p = 1.0 / (1.0 + mean);
    let k = (1.0 - u).ln() / (1.0 - p).ln();
    k.floor().clamp(0.0, 12.0) as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    fn world() -> (AsGraph, RoleAssignment, Vec<AsPath>) {
        let mut cfg = TopologyConfig::small();
        cfg.transit = 30;
        cfg.edge = 90;
        cfg.collector_peers = 12;
        let g = cfg.seed(5).build();
        let roles = Scenario::Random.assign_roles(&g, 5);
        let origins: Vec<NodeId> = g.node_ids().collect();
        let s = PathSubstrate::generate_for_origins(&g, &origins, 2);
        (g, roles, s.paths)
    }

    #[test]
    fn roundtrip_preserves_tuples() {
        let (g, roles, paths) = world();
        let builder = ArchiveBuilder::new(&g, &roles);
        let day = builder.build_day(&CollectorProject::ripe(), &paths, 1);
        assert!(day.rib_entries > 0);
        assert!(day.update_messages > 0);

        let mut set = TupleSet::new();
        ingest_day(&day, &mut set).unwrap();
        assert!(!set.is_empty());

        // Every ingested tuple must match the direct propagation output.
        let prop = Propagator::new(&g, &roles);
        let project_peers = CollectorProject::ripe().select_peers(&g, 1);
        for t in set.to_vec() {
            assert!(project_peers.contains(&t.path.peer()));
            assert_eq!(
                t.comm,
                prop.output(&t.path),
                "byte round-trip altered communities"
            );
        }
    }

    #[test]
    fn pch_has_no_rib_bytes() {
        let (g, roles, paths) = world();
        let day = ArchiveBuilder::new(&g, &roles).build_day(&CollectorProject::pch(), &paths, 1);
        assert!(day.rib_bytes.is_empty());
        assert_eq!(day.rib_entries, 0);
        assert!(day.update_messages > 0);
    }

    #[test]
    fn deterministic_generation() {
        let (g, roles, paths) = world();
        let b = ArchiveBuilder::new(&g, &roles);
        let d1 = b.build_day(&CollectorProject::isolario(), &paths, 9);
        let d2 = b.build_day(&CollectorProject::isolario(), &paths, 9);
        assert_eq!(d1.rib_bytes, d2.rib_bytes);
        assert_eq!(d1.update_bytes, d2.update_bytes);
    }

    #[test]
    fn different_projects_different_data() {
        let (g, roles, paths) = world();
        let b = ArchiveBuilder::new(&g, &roles);
        let d1 = b.build_day(&CollectorProject::ripe(), &paths, 9);
        let d2 = b.build_day(&CollectorProject::routeviews(), &paths, 9);
        assert_ne!(d1.rib_bytes, d2.rib_bytes);
    }

    #[test]
    fn origin_prefixes_unique_and_public() {
        let mut seen = std::collections::BTreeSet::new();
        for i in 0..5_000 {
            let p = origin_prefix(i);
            assert!(!p.is_bogon(), "{p} is bogon");
            assert!(seen.insert(p), "{p} duplicated");
        }
    }

    #[test]
    fn update_binning_concatenates_losslessly() {
        let (g, roles, paths) = world();
        let project = CollectorProject::ripe(); // 5-minute bins
        let day = ArchiveBuilder::new(&g, &roles).build_day(&project, &paths, 3);
        assert!(
            day.update_files.len() > 1,
            "a day should span multiple bins"
        );
        // Concatenation equals update_bytes and every file parses alone.
        let concat: Vec<u8> = day.update_files.concat();
        assert_eq!(concat, day.update_bytes);
        let mut from_files = 0u64;
        for f in &day.update_files {
            let (_, raw) = bgp_mrt::extract_tuples(f).unwrap();
            from_files += raw;
        }
        let (_, raw_whole) = bgp_mrt::extract_tuples(&day.update_bytes).unwrap();
        assert_eq!(from_files, raw_whole);
        assert_eq!(raw_whole, day.update_messages);
        // Timestamps are non-decreasing across the stream.
        let mut last = 0u64;
        for rec in bgp_mrt::MrtReader::new(&day.update_bytes) {
            if let bgp_mrt::MrtRecord::Update(u) = rec.unwrap() {
                assert!(u.timestamp >= last);
                last = u.timestamp;
            }
        }
    }

    #[test]
    fn route_server_paths_reconstructed_on_ingest() {
        // With a 100% route-server share, every written AS_PATH omits the
        // peer; sanitation must re-prepend it so ingested tuples equal the
        // direct propagation output.
        let (g, roles, paths) = world();
        let project = CollectorProject {
            route_server_share: 1.0,
            ..CollectorProject::ripe()
        };
        let day = ArchiveBuilder::new(&g, &roles).build_day(&project, &paths, 1);
        let mut set = TupleSet::new();
        ingest_day(&day, &mut set).unwrap();
        assert!(!set.is_empty());
        let prop = Propagator::new(&g, &roles);
        for t in set.to_vec() {
            assert_eq!(
                t.comm,
                prop.output(&t.path),
                "tuple diverged for {}",
                t.path
            );
        }
        // And the raw bytes really do lack the peer: decode one update.
        let (tuples_direct, _) = bgp_mrt::extract_tuples(&day.update_bytes).unwrap();
        assert!(!tuples_direct.is_empty());
    }

    #[test]
    fn poissonish_mean_tracks() {
        let n = 50_000u64;
        let total: u64 = (0..n).map(|i| poissonish(stable_hash(i), 1.5) as u64).sum();
        let mean = total as f64 / n as f64;
        assert!((1.0..2.0).contains(&mean), "empirical mean {mean}");
    }
}
