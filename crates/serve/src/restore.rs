//! Rebuilding [`ServeSnapshot`]s from the durable epoch archive.
//!
//! This is the boot path of `bgp-served --archive`: instead of waiting
//! for the feed to re-ingest from the start, the daemon maps the
//! archive's last committed epoch back into a fully formed
//! [`ServeSnapshot`] — dense counter column, shared interner, Asn-sorted
//! record table, seeded flip log — and publishes it before the first
//! event is read. The same rebuild serves time-travel queries: any
//! retained epoch can be materialized on demand (see
//! [`crate::history`]).
//!
//! Fidelity is the contract here. The record table is sliced by the
//! *same* code the live publisher uses
//! (`snapshot::slice_records`), the interner is
//! re-interned in id order (the id assignment is deterministic, so ids
//! match the originals exactly), and the flip log is replayed through
//! the same append-and-trim step — a restarted daemon answers every
//! endpoint byte-identically to one that never went down.

use crate::snapshot::{slice_records, zeroed_records, FlipLog, IngestStats, ServeSnapshot};
use bgp_archive::prelude::*;
use bgp_infer::compiled::DenseOutcome;
use bgp_stream::epoch::EpochSnapshot;
use bgp_types::asn::Asn;
use bgp_types::intern::SharedInterner;
use std::sync::Arc;

fn corrupt(why: String) -> ArchiveError {
    ArchiveError::Corrupt(why)
}

/// Re-intern the archived ASN table in id order. Interner ids are
/// assigned densely in first-seen order, so replaying the table yields
/// the exact original id space — checked, not assumed.
fn rebuild_interner(table: &[Asn]) -> Result<Arc<SharedInterner>> {
    let interner = SharedInterner::new();
    for (id, &asn) in table.iter().enumerate() {
        let got = interner.intern(asn);
        if got as usize != id {
            return Err(corrupt(format!(
                "archived interner table is not an id sequence: {asn} re-interned as {got}, expected {id}"
            )));
        }
    }
    Ok(Arc::new(interner))
}

/// Rebuild the dense inference state of one archived epoch. `None` when
/// the epoch's counter column was dropped by compaction (classes still
/// serve, counters read as zero).
fn rebuild_dense(archive: &Archive, ep: &ArchivedEpoch) -> Result<Option<DenseOutcome>> {
    let Some(counters) = ep.counters.clone() else {
        return Ok(None);
    };
    let table = archive.interner_upto(ep.meta.epoch)?;
    if table.len() != ep.interner_len() {
        return Err(corrupt(format!(
            "epoch {}: accumulated interner table {} != epoch interner length {}",
            ep.meta.epoch,
            table.len(),
            ep.interner_len()
        )));
    }
    if counters.len() != table.len() {
        return Err(corrupt(format!(
            "epoch {}: counter column {} != interner length {}",
            ep.meta.epoch,
            counters.len(),
            table.len()
        )));
    }
    let interner = rebuild_interner(&table)?;
    let mut by_asn: Vec<(Asn, u32)> = table
        .iter()
        .enumerate()
        .map(|(id, &asn)| (asn, id as u32))
        .collect();
    by_asn.sort_unstable_by_key(|&(asn, _)| asn);
    Ok(Some(DenseOutcome {
        interner,
        counters: Arc::new(counters),
        by_asn: Arc::new(by_asn),
        thresholds: ep.meta.thresholds,
        deepest_active_index: ep.meta.deepest_active_index as usize,
    }))
}

/// Replay the archived flip chunks up to and including `epoch` into a
/// fresh [`FlipLog`] capped at `cap` — the log a live publisher would
/// hold after sealing `epoch`. The floor below which flips are no
/// longer retained is the first epoch that still carries a flips frame
/// (0 for an archive that was never compacted).
fn rebuild_flip_log(archive: &Archive, epoch: u64, cap: usize) -> Result<FlipLog> {
    let chunks = archive.flip_chunks()?;
    let floor = chunks
        .iter()
        .map(|&(e, _)| e)
        .find(|&e| e <= epoch)
        .unwrap_or(epoch + 1);
    Ok(FlipLog::from_chunks(
        floor,
        chunks
            .into_iter()
            .filter(|&(e, _)| e <= epoch)
            .map(|(e, flips)| (e, Arc::new(flips))),
        cap,
    ))
}

/// Materialize one archived epoch as the [`ServeSnapshot`] the live
/// publisher would have produced for it.
pub fn rebuild_snapshot(
    archive: &Archive,
    epoch: u64,
    flip_log_cap: usize,
) -> Result<ServeSnapshot> {
    let ep = archive.load_epoch(epoch, DecodeFilter::all())?;
    let dense = rebuild_dense(archive, &ep)?;
    let records = match &dense {
        Some(dense) => slice_records(dense, &ep.classes),
        None => zeroed_records(&ep.classes),
    };
    let flip_log = rebuild_flip_log(archive, epoch, flip_log_cap)?;
    let thresholds = ep.meta.thresholds;
    let ingest = IngestStats {
        total_events: ep.meta.total_events,
        unique_tuples: ep.meta.unique_tuples as usize,
        duplicates: ep.stats.duplicates,
        shard_loads: ep.stats.shard_loads.iter().map(|&n| n as usize).collect(),
        interned_asns: ep.stats.interned_asns as usize,
        arena_hops: ep.stats.arena_hops as usize,
        replayed_steps: ep.stats.replayed_steps,
        total_steps: ep.stats.total_steps,
    };
    let snapshot = EpochSnapshot::restored(
        ep.meta.epoch,
        ep.meta.sealed_at,
        ep.meta.events,
        ep.meta.total_events,
        ep.meta.unique_tuples as usize,
        dense,
        Arc::new(ep.classes),
        Arc::new(ep.flips.unwrap_or_default()),
        ep.meta.seal_nanos,
        ep.meta.count_nanos,
    );
    Ok(ServeSnapshot {
        epoch: Some(Arc::new(snapshot)),
        records,
        thresholds,
        flip_log,
        ingest,
    })
}

/// Rebuild the archive's last committed epoch for the instant-boot
/// publish, or `None` for an empty archive (first start).
pub fn restore_latest(
    archive: &Archive,
    flip_log_cap: usize,
) -> Result<Option<Arc<ServeSnapshot>>> {
    match archive.manifest().last_epoch() {
        Some(last) => Ok(Some(Arc::new(rebuild_snapshot(
            archive,
            last,
            flip_log_cap,
        )?))),
        None => Ok(None),
    }
}
