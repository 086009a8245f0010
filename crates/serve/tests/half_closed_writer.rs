//! A connection writing a large answer to a peer that half-closed its
//! side waits for room to write, not on the hang-up it has already seen:
//! write interest is `EPOLLOUT` alone, so the level-triggered reactor does
//! not wake on the peer's FIN every iteration while the socket buffer is
//! full. The server records on a registry of its own, so its event-loop
//! histogram counts this server's iterations only.

use bgp_serve::prelude::*;
use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::Arc;
use std::time::Duration;

/// Far more than the loopback socket buffers hold, so the answer is
/// still being written when the peer stops reading.
const BODY_BYTES: usize = 32 << 20;

/// Busy event-loop iterations so far on `obs`.
fn loop_iterations(obs: &obs::ObsRegistry) -> u64 {
    obs.histogram_families()
        .into_iter()
        .find(|(name, _)| name == "bgp_http_event_loop_duration_seconds")
        .map_or(0, |(_, snap)| snap.count)
}

#[test]
fn a_writer_whose_peer_half_closed_does_not_spin() {
    let obs = Arc::new(obs::ObsRegistry::new());
    let http = HttpServer::start(
        HttpConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 1,
            registry: Arc::clone(&obs),
            ..Default::default()
        },
        Arc::new(|_: &Request| Response::text("x".repeat(BODY_BYTES))),
    )
    .expect("bind loopback");
    let mut client = TcpStream::connect(http.local_addr()).expect("connect");
    client
        .write_all(b"GET /large HTTP/1.1\r\nHost: t\r\n\r\n")
        .expect("write the request");
    // The peer's FIN: the request is all it will send.
    client.shutdown(Shutdown::Write).expect("half-close");
    std::thread::sleep(Duration::from_millis(100));

    // The answer fills the socket buffers and nobody reads for 500 ms.
    let before = loop_iterations(&obs);
    std::thread::sleep(Duration::from_millis(500));
    let spins = loop_iterations(&obs) - before;

    // Then the peer reads, and gets every byte before the close.
    let mut got = Vec::new();
    client.read_to_end(&mut got).expect("read the answer");
    let head = got
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .expect("a response head")
        + 4;
    assert!(got.starts_with(b"HTTP/1.1 200"), "{:?}", &got[..head]);
    let body = &got[head..];
    assert_eq!(body.len(), BODY_BYTES);
    assert!(body.iter().all(|&b| b == b'x'));
    assert!(
        spins <= 50,
        "{spins} busy reactor iterations in 500 ms writing to a half-closed peer"
    );
    http.shutdown();
}
