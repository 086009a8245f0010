//! Serve a live classification database and query it over HTTP.
//!
//! Spins the whole serving stack up in-process: a simulated scenario
//! feed ingests through the sharded epoch pipeline while an HTTP server
//! answers queries from hot-swapped snapshots — then plays a few
//! requests against it with a plain `TcpStream` client (what `curl`
//! would see).
//!
//! Run: `cargo run --release --example query_server`

use bgp_community_usage::prelude::*;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;

fn get(addr: std::net::SocketAddr, path: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let request = format!("GET {path} HTTP/1.1\r\nHost: example\r\nConnection: close\r\n\r\n");
    stream.write_all(request.as_bytes()).expect("send request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    let body_at = response.find("\r\n\r\n").map(|i| i + 4).unwrap_or(0);
    response[body_at..].to_string()
}

fn main() {
    // The serving stack: snapshot slot, metrics, HTTP workers, ingest.
    let slot = Arc::new(SnapshotSlot::new(Default::default()));
    let metrics = Arc::new(Metrics::new());
    let http = HttpServer::start(
        HttpConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            ..Default::default()
        },
        Arc::new(Api::new(Arc::clone(&slot), Arc::clone(&metrics))),
    )
    .expect("bind loopback");
    let addr = http.local_addr();
    println!("serving on http://{addr}");

    // Ingest a simulated world: random roles, epoch per 500 events.
    let driver_cfg = DriverConfig {
        stream: StreamConfig {
            shards: 2,
            epoch: EpochPolicy::every_events(500),
            ..Default::default()
        },
        ..Default::default()
    };
    let feed = Feed::Sim {
        scenario: "random".to_string(),
        seed: 7,
        repeats: 2,
    };
    let report = spawn_ingest_archived(
        driver_cfg,
        feed,
        Arc::clone(&slot),
        Arc::clone(&metrics),
        None,
        None,
    )
    .join()
    .expect("ingest runs to completion");
    println!(
        "ingested {} events into {} epochs ({} unique tuples)\n",
        report.total_events, report.epochs, report.unique_tuples
    );

    // Query it like any HTTP client would.
    println!("GET /healthz\n  {}\n", get(addr, "/healthz"));
    println!("GET /v1/stats\n  {}\n", get(addr, "/v1/stats"));

    // Pick a classified AS off the snapshot and look it up by ASN.
    let snapshot = slot.load();
    let tagger = snapshot
        .records
        .iter()
        .find(|r| r.class.tagging.code() == 't')
        .expect("the random scenario always yields taggers");
    let path = format!("/v1/class/{}", tagger.asn.0);
    println!("GET {path}\n  {}\n", get(addr, &path));

    // The community dictionary: is 0:666 anyone's to interpret?
    let path = format!("/v1/community/{}:100", tagger.asn.0);
    println!("GET {path}\n  {}\n", get(addr, &path));
    println!(
        "GET /v1/community/65535:666\n  {}\n",
        get(addr, "/v1/community/65535:666")
    );

    // Threshold what-if: how many classifications move at 90%?
    println!(
        "GET /v1/reclassify?uniform=0.9\n  {}\n",
        get(addr, "/v1/reclassify?uniform=0.9")
    );

    // Recent class flips.
    println!(
        "GET /v1/flips?since_epoch=1\n  {}\n",
        get(addr, "/v1/flips?since_epoch=1")
    );

    println!(
        "answered {} requests; shutting down",
        metrics.total_requests()
    );
    http.shutdown();
}
