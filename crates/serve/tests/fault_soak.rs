//! The resilience soak: a churny scenario feed driven through the
//! supervised pipeline under a seeded fault plan must converge to the
//! *exact* classification state of the never-faulted run.
//!
//! The invariant stack this exercises:
//!
//! * injected faults are additive/recoverable only — corrupt batches
//!   are quarantined, truncated tails are redelivered in order, panics
//!   respawn the driver which replays the deterministic feed;
//! * churn overlays (`flap-storm`, `peer-reset`) only ADD duplicate
//!   re-announcements, so the unique-tuple set — and therefore the
//!   classification database — is identical to the steady feed's;
//! * archive faults are retried (with writer reopen) until durable, so
//!   the on-disk archive verifies clean afterwards.

use bgp_archive::prelude::*;
use bgp_infer::counters::Thresholds;
use bgp_serve::driver::spawn_ingest_archived;
use bgp_serve::prelude::*;
use bgp_stream::epoch::EpochPolicy;
use bgp_stream::pipeline::StreamConfig;
use fault::FaultPlan;
use std::sync::Arc;
use std::time::Instant;

mod support;
use support::tmp_dir;

const SEED: u64 = 11;

fn cfg() -> DriverConfig {
    DriverConfig {
        stream: StreamConfig {
            shards: 2,
            epoch: EpochPolicy::every_events(500),
            ..Default::default()
        },
        batch: 128,
        ..Default::default()
    }
}

fn feed(scenario: &str) -> Feed {
    Feed::Sim {
        scenario: scenario.to_string(),
        seed: SEED,
        repeats: 1,
    }
}

/// Run a scenario to completion and return its final snapshot + report.
fn clean_run(scenario: &str) -> (Arc<ServeSnapshot>, IngestReport) {
    let slot = Arc::new(SnapshotSlot::new(Thresholds::default()));
    let report = spawn_ingest_archived(
        cfg(),
        feed(scenario),
        Arc::clone(&slot),
        Arc::new(Metrics::new()),
        None,
        None,
    )
    .join()
    .expect("clean run succeeds");
    (slot.load(), report)
}

#[test]
fn faulted_flap_storm_converges_to_the_clean_state() {
    let (clean, clean_report) = clean_run("flap-storm");
    assert!(clean_report.total_events > 1_000, "feed is non-trivial");
    assert!(clean_report.epochs > 2, "several epochs seal");

    // Same feed, now under fire: a mid-run driver panic, a truncated
    // batch, probabilistic corrupt injections, and an archive whose
    // third durable write fails (retry + reopen salvages it).
    let dir = tmp_dir("flap");
    let plan = FaultPlan::parse("feed:truncate@4,panic@8,corrupt%0.05;archive:fail@3").unwrap();
    let metrics = Arc::new(Metrics::new());
    let io = Box::new(plan.archive_io(SEED).unwrap());
    let writer = ArchiveWriter::open_with_io(&dir, io, Arc::clone(metrics.registry()))
        .expect("open faulted archive");
    let sink = ArchiveSink::spawn(writer);
    let health = Arc::new(HealthState::new(Arc::clone(&metrics), Instant::now()));
    let slot = Arc::new(SnapshotSlot::new(Thresholds::default()));
    let mut driver_cfg = cfg();
    driver_cfg.fault = Some(Arc::new(plan.feed_injector(SEED).unwrap()));
    driver_cfg.restart_budget = 2;
    driver_cfg.health = Arc::clone(&health);
    let report = spawn_ingest_archived(
        driver_cfg,
        feed("flap-storm"),
        Arc::clone(&slot),
        metrics,
        Some(sink),
        None,
    )
    .join()
    .expect("faulted run survives");

    // The injected panic fired and the supervisor respawned through it.
    assert_eq!(report.restarts, 1, "panic@8 respawned once");
    assert!(
        report.quarantined > 0,
        "corrupt injections were quarantined"
    );
    assert_eq!(report.archive_dropped, 0, "retries salvaged every epoch");

    // Convergence: the faulted run's final classification state is
    // byte-identical to the never-faulted run's.
    let faulted = slot.load();
    assert_eq!(report.total_events, clean_report.total_events);
    assert_eq!(report.unique_tuples, clean_report.unique_tuples);
    assert_eq!(report.epochs, clean_report.epochs);
    assert_eq!(faulted.records, clean.records, "classification diverged");

    // The archive took a write fault mid-run and still verifies clean,
    // holding every sealed epoch.
    let archive = Archive::open(&dir).unwrap();
    let verify = archive.verify();
    assert!(verify.is_ok(), "{:?}", verify.problems);
    assert_eq!(verify.epochs, report.epochs as u64);
    assert_eq!(report.archived_epochs, report.epochs as u64);

    // And the survivor reports itself healthy: restart reason cleared
    // by the respawned attempt's publishes, sink quiet, feed drained.
    let verdict = health.evaluate(Instant::now());
    assert_eq!(
        verdict.status,
        HealthStatus::Ok,
        "reasons: {:?}",
        verdict.reasons
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn churn_overlays_are_classification_neutral() {
    // flap-storm and peer-reset only add duplicate re-announcements on
    // top of the steady `random` world: all three runs must land on the
    // same unique-tuple set and the same classification database.
    let (steady, steady_report) = clean_run("random");
    for scenario in ["flap-storm", "peer-reset"] {
        let (churned, churned_report) = clean_run(scenario);
        assert!(
            churned_report.total_events > steady_report.total_events,
            "{scenario} adds churn events"
        );
        assert_eq!(
            churned_report.unique_tuples, steady_report.unique_tuples,
            "{scenario} added new tuples"
        );
        assert_eq!(
            churned.records, steady.records,
            "{scenario} changed the classification state"
        );
    }
}

#[test]
fn peer_reset_survives_ingest_stall_and_archive_torn_write() {
    // The other scenario + the other fault kinds: a stalled feed tick
    // and a torn (half-written) segment, which the retry path must
    // clean up via the tmp-sweep + reopen recovery.
    let (clean, clean_report) = clean_run("peer-reset");

    let dir = tmp_dir("reset");
    let plan = FaultPlan::parse("feed:stall@3;archive:torn@2").unwrap();
    let metrics = Arc::new(Metrics::new());
    let io = Box::new(plan.archive_io(SEED).unwrap());
    let writer = ArchiveWriter::open_with_io(&dir, io, Arc::clone(metrics.registry()))
        .expect("open faulted archive");
    let sink = ArchiveSink::spawn(writer);
    let health = Arc::new(HealthState::new(Arc::clone(&metrics), Instant::now()));
    let slot = Arc::new(SnapshotSlot::new(Thresholds::default()));
    let mut driver_cfg = cfg();
    driver_cfg.fault = Some(Arc::new(plan.feed_injector(SEED).unwrap()));
    driver_cfg.health = Arc::clone(&health);
    let report = spawn_ingest_archived(
        driver_cfg,
        feed("peer-reset"),
        Arc::clone(&slot),
        metrics,
        Some(sink),
        None,
    )
    .join()
    .expect("faulted run survives");

    assert_eq!(report.restarts, 0);
    assert_eq!(report.archive_dropped, 0);
    assert_eq!(report.total_events, clean_report.total_events);
    assert_eq!(
        slot.load().records,
        clean.records,
        "classification diverged"
    );

    let verify = Archive::open(&dir).unwrap().verify();
    assert!(verify.is_ok(), "{:?}", verify.problems);
    assert_eq!(report.archived_epochs, report.epochs as u64);
    assert_eq!(health.evaluate(Instant::now()).status, HealthStatus::Ok);
    let _ = std::fs::remove_dir_all(&dir);
}
