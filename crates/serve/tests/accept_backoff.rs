//! An accept error pauses the listener until the next timer tick: a
//! connection pending while the process is out of file descriptors
//! (`EMFILE`) must not spin the reactor. The test re-runs itself under
//! `ulimit -n 64` so only that child process runs short of descriptors;
//! the child's server records on a registry of its own.

use bgp_serve::prelude::*;
use std::fs::File;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::process::Command;
use std::sync::Arc;
use std::time::Duration;

/// Set in the child's environment: run the child role.
const CHILD: &str = "ACCEPT_BACKOFF_CHILD";
const NAME: &str = "an_accept_error_backs_off_until_the_next_tick";

#[test]
fn an_accept_error_backs_off_until_the_next_tick() {
    if std::env::var_os(CHILD).is_some() {
        return child();
    }
    let exe = std::env::current_exe().expect("test binary path");
    let out = Command::new("sh")
        .arg("-c")
        .arg(format!(
            "ulimit -n 64 && exec \"$0\" --exact {NAME} --nocapture --test-threads=1"
        ))
        .arg(exe)
        .env(CHILD, "1")
        .output()
        .expect("run the child under sh");
    assert!(
        out.status.success(),
        "child failed:\n{}\n{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
}

/// Busy event-loop iterations so far on `obs`.
fn loop_iterations(obs: &obs::ObsRegistry) -> u64 {
    obs.histogram_families()
        .into_iter()
        .find(|(name, _)| name == "bgp_http_event_loop_duration_seconds")
        .map_or(0, |(_, snap)| snap.count)
}

fn child() {
    let obs = Arc::new(obs::ObsRegistry::new());
    let http = HttpServer::start(
        HttpConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 1,
            registry: Arc::clone(&obs),
            ..Default::default()
        },
        Arc::new(|_: &Request| Response::text("ok".to_string())),
    )
    .expect("bind loopback");
    // One answered request proves the reactor holds its descriptors; the
    // connection stays open so none of them is freed later.
    let mut warm = TcpStream::connect(http.local_addr()).expect("connect");
    warm.write_all(b"GET / HTTP/1.1\r\nHost: t\r\n\r\n")
        .expect("write request");
    let mut byte = [0u8; 1];
    assert_eq!(warm.read(&mut byte).expect("read answer"), 1);
    // Use up the descriptor table, then free one for the client's socket:
    // the server's accept of it fails with EMFILE.
    let mut held = Vec::new();
    while let Ok(f) = File::open("/dev/null") {
        held.push(f);
    }
    held.pop();
    let client = TcpStream::connect(http.local_addr()).expect("connect");
    let before = loop_iterations(&obs);
    std::thread::sleep(Duration::from_millis(500));
    let spins = loop_iterations(&obs) - before;
    drop(held);
    drop(client);
    drop(warm);
    http.shutdown();
    assert!(
        spins <= 50,
        "{spins} busy reactor iterations in 500 ms with an accept pending at EMFILE"
    );
}
