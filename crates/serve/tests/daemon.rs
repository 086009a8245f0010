//! `bgp-served` as a process: what only the binary's flag wiring and
//! its signal handler can show. Each test runs the built binary on
//! `127.0.0.1:0`, reads the bound port and the log off its stderr, and
//! talks to it over loopback.
//!
//! * The flap-storm feed under a seeded fault plan (truncated and
//!   corrupt batches, a driver panic, a failed archive write) converges
//!   to the clean run: one supervised restart, no dropped epoch, `final
//!   health: ok`, both archives verify, equal last-epoch class tables.
//! * An archive whose every write fails drops epochs loudly and ends
//!   `degraded`.
//! * A feed that quarantines past `--quarantine-abort` ends the daemon
//!   with a non-zero exit and `final health: unhealthy`.
//! * SIGTERM answers a parked long-poller with a 200 and a clean close,
//!   and the daemon exits 0.
//! * With an archive, `/metrics` carries every family README's table
//!   names (each layer records on the daemon's registry) and counts the
//!   bytes archived, an epoch's trace and `/v1/version` answer, and
//!   SIGTERM ends the lingering daemon with exit 0 and `final health:
//!   ok`.

use bgp_archive::prelude::*;
use bgp_infer::classify::Class;
use bgp_types::asn::Asn;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, Command, ExitStatus, Stdio};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

mod support;
use support::{metric, readme_metric_families, tmp_dir, Client};

const SEED: &str = "11";

/// A running `bgp-served` whose stderr lines are collected as they come.
struct Daemon {
    child: Child,
    log: Arc<Mutex<Vec<String>>>,
    drain: Option<JoinHandle<()>>,
}

impl Daemon {
    fn spawn(args: &[&str]) -> Daemon {
        let mut child = Command::new(env!("CARGO_BIN_EXE_bgp-served"))
            .args(args)
            .args(["-l", "127.0.0.1:0"])
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn bgp-served");
        let stderr = child.stderr.take().expect("piped stderr");
        let log = Arc::new(Mutex::new(Vec::new()));
        let lines = Arc::clone(&log);
        let drain = std::thread::spawn(move || {
            for line in BufReader::new(stderr).lines() {
                lines.lock().unwrap().push(line.expect("stderr is UTF-8"));
            }
        });
        Daemon {
            child,
            log,
            drain: Some(drain),
        }
    }

    /// The first log line so far that contains `needle`.
    fn logged(&self, needle: &str) -> Option<String> {
        let log = self.log.lock().unwrap();
        log.iter().find(|line| line.contains(needle)).cloned()
    }

    /// Retry `probe` every 20 ms until it yields. Fails the test if the
    /// daemon exits first or two minutes pass.
    fn poll<T>(&mut self, what: &str, mut probe: impl FnMut(&Daemon) -> Option<T>) -> T {
        let deadline = Instant::now() + Duration::from_secs(120);
        loop {
            if let Some(seen) = probe(self) {
                return seen;
            }
            if let Some(status) = self.child.try_wait().expect("poll child") {
                panic!("bgp-served exited ({status}) before {what}");
            }
            assert!(Instant::now() < deadline, "timed out waiting for {what}");
            std::thread::sleep(Duration::from_millis(20));
        }
    }

    /// The address it listens on, read off its startup line.
    fn addr(&mut self) -> SocketAddr {
        let line = self.poll("the listening line", |d| d.logged("listening on http://"));
        let rest = line.split("http://").nth(1).expect("address after http://");
        rest.split_whitespace()
            .next()
            .and_then(|addr| addr.parse().ok())
            .unwrap_or_else(|| panic!("no address in {line:?}"))
    }

    fn terminate(&self) {
        let status = Command::new("kill")
            .args(["-TERM", &self.child.id().to_string()])
            .status()
            .expect("run kill");
        assert!(status.success(), "kill -TERM: {status}");
    }

    /// Wait for the process to exit: its status and its whole log.
    fn wait(mut self) -> (ExitStatus, String) {
        let status = self.child.wait().expect("wait for bgp-served");
        self.drain.take().unwrap().join().expect("stderr drain");
        let log = self.log.lock().unwrap().join("\n");
        (status, log)
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // A failing test must not leave a lingering daemon behind.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One run over the flap-storm feed to its end, archiving into
/// `archive`: the log, after asserting a zero exit.
fn flap_storm(archive: &Path, extra: &[&str]) -> String {
    let dir = archive.to_str().expect("UTF-8 path");
    let mut args = vec![
        "--sim",
        "flap-storm",
        "--seed",
        SEED,
        "-e",
        "2048",
        "-b",
        "256",
        "--archive",
        dir,
    ];
    args.extend_from_slice(extra);
    let (status, log) = Daemon::spawn(&args).wait();
    assert!(
        status.success(),
        "bgp-served {args:?} exited {status}:\n{log}"
    );
    log
}

/// The archive at `dir` verifies; its last epoch and that epoch's
/// class table.
fn last_class_table(dir: &Path) -> (u64, Vec<(Asn, Class)>) {
    let archive = Archive::open(dir).expect("open archive");
    let report = archive.verify();
    assert!(report.is_ok(), "{}: {:?}", dir.display(), report.problems);
    let last = archive.epoch_metas().expect("epoch headers");
    let last = last.last().expect("the archive holds epochs").epoch;
    let epoch = archive
        .load_epoch(last, DecodeFilter::classes_only())
        .expect("load the last epoch");
    (last, epoch.classes)
}

#[test]
fn a_faulted_run_converges_to_the_clean_run() {
    let clean_dir = tmp_dir("daemon-clean");
    let clean = flap_storm(&clean_dir, &[]);
    assert!(clean.contains("final health: ok"), "{clean}");

    let faulted_dir = tmp_dir("daemon-faulted");
    let faulted = flap_storm(
        &faulted_dir,
        &[
            "--fault-plan",
            "feed:truncate@4,panic@9,corrupt%0.02;archive:fail@3",
            "--fault-seed",
            SEED,
        ],
    );
    assert!(
        faulted.contains("supervision: 1 driver restart(s)"),
        "the injected panic did not reach the supervisor:\n{faulted}"
    );
    assert!(
        !faulted.contains("archive dropped"),
        "retries should salvage every epoch:\n{faulted}"
    );
    assert!(faulted.contains("final health: ok"), "{faulted}");

    let (clean_epoch, clean_classes) = last_class_table(&clean_dir);
    let (faulted_epoch, faulted_classes) = last_class_table(&faulted_dir);
    assert!(!clean_classes.is_empty());
    assert_eq!(faulted_epoch, clean_epoch);
    assert!(
        faulted_classes == clean_classes,
        "the faulted run's classes diverged from the clean run's"
    );
    std::fs::remove_dir_all(&clean_dir).unwrap();
    std::fs::remove_dir_all(&faulted_dir).unwrap();
}

#[test]
fn a_dead_archive_drops_loudly_and_degrades() {
    let dir = tmp_dir("daemon-dead");
    let log = flap_storm(
        &dir,
        &["--fault-plan", "archive:fail%1.0", "--fault-seed", SEED],
    );
    assert!(log.contains("archive dropped"), "{log}");
    assert!(log.contains("final health: degraded"), "{log}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_feed_past_its_quarantine_abort_exits_unhealthy() {
    // One corrupt pull in five over ~110 pulls: about 24 quarantined,
    // past the abort at 10.
    let args = [
        "--sim",
        "random",
        "-b",
        "256",
        "--fault-plan",
        "feed:corrupt%0.2",
        "--quarantine-abort",
        "10",
    ];
    let (status, log) = Daemon::spawn(&args).wait();
    assert!(!status.success(), "bgp-served {args:?} exited 0:\n{log}");
    assert!(log.contains("quarantine threshold exceeded"), "{log}");
    assert!(log.contains("final health: unhealthy"), "{log}");
}

#[test]
fn sigterm_answers_a_parked_long_poller_and_exits_zero() {
    let mut daemon = Daemon::spawn(&["--sim", "random", "--seed", SEED, "-e", "2048", "--linger"]);
    let addr = daemon.addr();
    let poller = std::thread::spawn(move || {
        let mut client = Client::connect(addr);
        let answer = client.get("/v1/flips?since_epoch=999999999&wait_ms=600000");
        (answer, client.closed_by_server())
    });
    let mut client = Client::connect(addr);
    daemon.poll("the long-poller to park", |_| {
        let parked = metric(&client.get("/metrics").1, "bgp_http_parked_waiters");
        (parked >= Some(1.0)).then_some(())
    });
    drop(client);

    daemon.terminate();
    let ((status, body), clean) = poller.join().expect("long-poll client");
    assert_eq!(status, 200, "{body}");
    assert!(clean, "the parked long-poller was not closed with a FIN");
    let (exit, log) = daemon.wait();
    assert!(exit.success(), "exit {exit}:\n{log}");
    assert!(log.contains("shutdown signal"), "{log}");
}

#[test]
fn every_family_in_the_readme_is_on_the_daemons_page() {
    let dir = tmp_dir("daemon-families");
    let mut daemon = Daemon::spawn(&[
        "--sim",
        "random",
        "--seed",
        SEED,
        "-e",
        "2048",
        "--archive",
        dir.to_str().unwrap(),
        "--linger",
    ]);
    let mut client = Client::connect(daemon.addr());
    daemon.poll("the feed to drain", |d| d.logged("ingest done:"));
    let (status, page) = client.get("/metrics");
    assert_eq!(status, 200);
    let families = readme_metric_families();
    assert!(families.len() > 20, "{families:?}");
    let missing: Vec<&String> = families
        .iter()
        .filter(|family| !page.contains(&format!("# TYPE {family} ")))
        .collect();
    assert!(missing.is_empty(), "not on /metrics: {missing:?}\n{page}");

    // What the archive wrote, an epoch's trace and the version endpoint.
    let written = metric(&page, "bgp_archive_bytes_written_total").unwrap_or(0.0);
    assert!(written > 0.0, "bgp_archive_bytes_written_total {written}");
    let (status, trace) = client.get("/v1/debug/epoch/1/trace");
    assert_eq!(status, 200);
    assert!(trace.contains("\"trace_epoch\":1"), "{trace}");
    let (status, version) = client.get("/v1/version");
    assert_eq!(status, 200);
    assert!(version.contains("\"uptime_seconds\":"), "{version}");

    drop(client);
    daemon.terminate();
    let (status, log) = daemon.wait();
    assert!(status.success(), "exit {status}:\n{log}");
    assert!(log.contains("final health: ok"), "{log}");
    std::fs::remove_dir_all(&dir).unwrap();
}
