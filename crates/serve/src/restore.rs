//! Rebuilding [`ServeSnapshot`]s from the durable epoch archive.
//!
//! This is the boot path of `bgp-served --archive`: instead of waiting
//! for the feed to re-ingest from the start, the daemon maps the
//! archive's last committed epoch back into a fully formed
//! [`ServeSnapshot`] — Asn-sorted record table, epoch header, seeded flip
//! log — and publishes it before the first event is read. The same
//! rebuild serves time-travel queries: any retained epoch can be
//! materialized on demand (see [`crate::history`]).
//!
//! Fidelity is the contract here. The record table is sliced by
//! [`bgp_infer::db::slice_records`] from the archived counter column and
//! class table through the archived ASN table ([`Archive::interner_upto`])
//! sorted into `(asn, id)` pairs — the table the live seal patched at its
//! moved ids must equal it, which the restore tests check — and the
//! flip log is replayed through the
//! same append-and-trim step — a restarted daemon answers every endpoint
//! byte-identically to one that never went down. Nothing is re-interned:
//! the restored [`EpochSnapshot`] has `dense: None` and carries the
//! header, classes and flips, all the serving layer reads of it.
//!
//! Archived bytes that disagree are [`ArchiveError::Corrupt`], never a
//! panic or a wrong answer. Checked: the ASN table is as long as the
//! epoch's id space and the counter column as long as the table, no ASN
//! holds two ids, and the class table pairs with the counted ids one for
//! one, ASN for ASN.

use crate::snapshot::{zeroed_records, FlipLog, ServeSnapshot};
use bgp_archive::prelude::*;
use bgp_infer::db::{slice_records, DbRecord};
use bgp_stream::epoch::EpochSnapshot;
use bgp_types::asn::Asn;
use bgp_types::intern::AsnId;
use std::sync::Arc;

fn corrupt(why: String) -> ArchiveError {
    ArchiveError::Corrupt(why)
}

/// The record table of one archived epoch. An epoch whose counter
/// column was dropped by compaction still serves its classes, with
/// counters read as zero.
fn epoch_records(archive: &Archive, ep: &ArchivedEpoch) -> Result<Vec<DbRecord>> {
    let epoch = ep.meta.epoch;
    let Some(counters) = &ep.counters else {
        return Ok(zeroed_records(&ep.classes));
    };
    let table = archive.interner_upto(epoch)?;
    if table.len() != ep.interner_len() {
        return Err(corrupt(format!(
            "epoch {epoch}: accumulated interner table {} != epoch interner length {}",
            table.len(),
            ep.interner_len()
        )));
    }
    if counters.len() != table.len() {
        return Err(corrupt(format!(
            "epoch {epoch}: counter column {} != interner length {}",
            counters.len(),
            table.len()
        )));
    }
    let mut by_asn: Vec<(Asn, AsnId)> = table.into_iter().zip(0..).collect();
    by_asn.sort_unstable();
    if let Some(w) = by_asn.windows(2).find(|w| w[0].0 == w[1].0) {
        return Err(corrupt(format!(
            "epoch {epoch}: interner table gives {} two ids ({} and {})",
            w[0].0, w[0].1, w[1].1
        )));
    }
    slice_records(&by_asn, counters, &ep.classes)
        .map_err(|e| corrupt(format!("epoch {epoch}: class table: {e}")))
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
    let records = epoch_records(archive, &ep)?;
    let flip_log = rebuild_flip_log(archive, epoch, flip_log_cap)?;
    let thresholds = ep.meta.thresholds;
    let snapshot = EpochSnapshot::restored(
        ep.meta.epoch,
        ep.meta.sealed_at,
        ep.meta.events,
        ep.meta.total_events,
        ep.meta.unique_tuples as usize,
        Arc::new(ep.classes),
        Arc::new(ep.flips.unwrap_or_default()),
        ep.meta.seal_nanos,
        ep.meta.count_nanos,
        ep.stats,
    );
    Ok(ServeSnapshot {
        ingest: snapshot.ingest.clone(),
        epoch: Some(Arc::new(snapshot)),
        records,
        thresholds,
        flip_log,
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

#[cfg(test)]
mod tests {
    use super::*;
    use bgp_infer::classify::Class;
    use bgp_stream::epoch::EpochPolicy;
    use bgp_stream::ingest::StreamEvent;
    use bgp_stream::pipeline::{StreamConfig, StreamPipeline};
    use bgp_types::prelude::*;

    /// One sealed epoch of three tagging peers, archived with its class
    /// table intact and then with one AS missing, renamed or extra.
    #[test]
    fn a_class_table_that_disagrees_with_the_counters_is_corrupt() {
        let mut pipe = StreamPipeline::new(StreamConfig {
            epoch: EpochPolicy::manual(),
            ..Default::default()
        });
        for peer in [7u32, 8, 9] {
            let tags = CommunitySet::from_iter([AnyCommunity::tag_for(Asn(peer), 100)]);
            pipe.push(StreamEvent::new(
                0,
                PathCommTuple::new(path(&[peer, 100]), tags),
            ));
        }
        let sealed = pipe.seal_epoch().as_ref().clone();
        let intact = sealed.classes.as_ref().clone();
        assert_eq!(intact.len(), 3, "{intact:?}");
        let mut missing = intact.clone();
        missing.remove(1);
        // Renamed in place of the highest ASN, so the table stays in the
        // ASN order the writer requires of it.
        let mut renamed = intact.clone();
        renamed[2].0 = Asn(64_000);
        let mut extra = intact.clone();
        extra.push((Asn(64_001), Class::NONE));
        for (tag, classes) in [
            ("intact", intact),
            ("missing", missing),
            ("renamed", renamed),
            ("extra", extra),
        ] {
            let mut snap = sealed.clone();
            snap.classes = Arc::new(classes);
            let dir =
                std::env::temp_dir().join(format!("bgp-restore-{tag}-{}", std::process::id()));
            let mut writer = ArchiveWriter::open(&dir).unwrap();
            writer
                .append_epoch(&snap, &SegmentStats::default())
                .unwrap();
            let restored = restore_latest(&Archive::open(&dir).unwrap(), 64);
            std::fs::remove_dir_all(&dir).unwrap();
            match restored {
                Ok(Some(r)) if tag == "intact" => {
                    assert_eq!(Some(r.records.clone()), sealed.records());
                    assert!(r.epoch.as_ref().unwrap().dense.is_none());
                }
                Err(ArchiveError::Corrupt(why)) if tag != "intact" => {
                    assert!(why.contains("class table"), "{why}")
                }
                other => panic!("{tag}: restored {other:?}"),
            }
        }
    }
}
