//! A parked long-poll whose read buffer is full waits on its peer's
//! hang-up alone: the pipelined bytes behind it stay in the kernel, and
//! the level-triggered reactor does not spin on them. The server records
//! on a registry of its own, so its event-loop histogram counts this
//! server's iterations only.

use bgp_serve::prelude::*;
use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Parks every request for three seconds, then answers it.
struct Parks;

impl Handler for Parks {
    fn handle(&self, _: &Request) -> Response {
        Response::text("late".to_string())
    }

    fn poll(&self, _: &Request) -> Dispatch {
        Dispatch::Park { wait_ms: 3_000 }
    }
}

/// Busy event-loop iterations so far on `obs`.
fn loop_iterations(obs: &obs::ObsRegistry) -> u64 {
    obs.histogram_snapshots()
        .iter()
        .filter(|h| h.family == "bgp_http_event_loop_duration_seconds")
        .map(|h| h.snap.count)
        .sum()
}

#[test]
fn a_parked_connection_with_a_full_buffer_does_not_spin() {
    let obs = Arc::new(obs::ObsRegistry::new());
    let http = HttpServer::start(
        HttpConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 1,
            registry: Arc::clone(&obs),
            ..Default::default()
        },
        Arc::new(Parks),
    )
    .expect("bind loopback");
    let mut client = TcpStream::connect(http.local_addr()).expect("connect");
    client
        .write_all(b"GET /park HTTP/1.1\r\nHost: t\r\n\r\n")
        .expect("write the parked request");
    // 21 KB pipelined behind it, past the 8 KiB `max_request_bytes`.
    let pipelined = "GET /next HTTP/1.1\r\nHost: t\r\n\r\n".repeat(700);
    client
        .write_all(pipelined.as_bytes())
        .expect("write the pipelined requests");
    std::thread::sleep(Duration::from_millis(100));

    let before = loop_iterations(&obs);
    std::thread::sleep(Duration::from_millis(500));
    let spins = loop_iterations(&obs) - before;
    assert!(
        spins <= 50,
        "{spins} busy reactor iterations in 500 ms with a full parked connection"
    );

    // The hang-up is still seen: the connection closes long before its
    // park would have ended.
    drop(client);
    let deadline = Instant::now() + Duration::from_secs(2);
    while http.open_connections() > 0 {
        assert!(
            Instant::now() < deadline,
            "a parked peer's hang-up went unnoticed"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    http.shutdown();
}
