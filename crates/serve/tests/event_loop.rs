//! Transport-level tests for the epoll event loop in `bgp_serve::http`:
//! partial-write resumption, pipelining, idle reaping, connection-budget
//! shedding, slowloris fairness, long-poll parking, and the c10k proof
//! (10,000 concurrent keep-alive connections held by a separate
//! `bgp-flood` client process so the two fd populations don't share one
//! `RLIMIT_NOFILE`).

use bgp_infer::counters::Thresholds;
use bgp_serve::prelude::*;
use bgp_stream::ingest::StreamEvent;
use bgp_stream::pipeline::{StreamConfig, StreamPipeline};
use bgp_types::prelude::*;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

mod support;

// ------------------------------------------------------------- helpers

/// A handler that answers from the request path alone: `/big` returns a
/// multi-megabyte body (to force partial writes), anything else echoes
/// the path.
struct Echo {
    big: usize,
}

impl Handler for Echo {
    fn handle(&self, request: &Request) -> Response {
        match request.path.as_str() {
            "/big" => Response::text("x".repeat(self.big)),
            p => Response::text(format!("ok {p}")),
        }
    }
}

fn echo_server(tune: impl FnOnce(&mut HttpConfig), big: usize) -> HttpServer {
    let mut cfg = HttpConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        ..Default::default()
    };
    tune(&mut cfg);
    HttpServer::start(cfg, Arc::new(Echo { big })).expect("bind loopback")
}

/// Read exactly one HTTP/1.1 response off the stream; returns
/// `(status, body)`.
fn read_response(stream: &mut TcpStream) -> (u16, String) {
    let mut buf = Vec::new();
    let mut byte = [0u8; 1];
    while !buf.ends_with(b"\r\n\r\n") {
        let n = stream.read(&mut byte).expect("read head");
        assert!(n > 0, "EOF mid-head: {:?}", String::from_utf8_lossy(&buf));
        buf.push(byte[0]);
    }
    let head = String::from_utf8(buf).unwrap();
    let status: u16 = head[9..12].parse().expect("status code");
    let length: usize = head
        .lines()
        .find_map(|l| l.strip_prefix("Content-Length: "))
        .expect("Content-Length")
        .trim()
        .parse()
        .unwrap();
    let mut body = vec![0u8; length];
    stream.read_exact(&mut body).expect("read body");
    (status, String::from_utf8(body).unwrap())
}

fn get(stream: &mut TcpStream, path: &str) -> (u16, String) {
    let req = format!("GET {path} HTTP/1.1\r\nHost: t\r\n\r\n");
    stream.write_all(req.as_bytes()).expect("write request");
    read_response(stream)
}

// ------------------------------------------- state-machine regressions

#[test]
fn partial_writes_resume_until_the_response_is_flushed() {
    // A 12 MB body cannot fit any socket buffer: the reactor's write
    // hits `WouldBlock`, the connection flips to EPOLLOUT interest, and
    // the response must complete across many readiness cycles — made
    // worse by a client that doesn't read at all for a while.
    const BIG: usize = 12 * 1024 * 1024;
    let http = echo_server(|_| {}, BIG);
    let mut stream = TcpStream::connect(http.local_addr()).unwrap();
    stream
        .write_all(b"GET /big HTTP/1.1\r\nHost: t\r\n\r\n")
        .unwrap();
    std::thread::sleep(Duration::from_millis(300));
    let (status, body) = read_response(&mut stream);
    assert_eq!(status, 200);
    assert_eq!(body.len(), BIG);
    assert!(body.bytes().all(|b| b == b'x'));
    // The connection survived the Writing -> Reading transition: the
    // same socket serves another request.
    let (status, body) = get(&mut stream, "/after");
    assert_eq!(status, 200);
    assert_eq!(body, "ok /after");
    drop(stream);
    http.shutdown();
}

#[test]
fn pipelined_requests_in_one_segment_each_get_a_response() {
    let http = echo_server(|_| {}, 0);
    let mut stream = TcpStream::connect(http.local_addr()).unwrap();
    // Three requests in a single write: the reactor must serve all
    // three from one read buffer, in order, without waiting for more
    // readability between them.
    stream
        .write_all(
            b"GET /a HTTP/1.1\r\nHost: t\r\n\r\n\
              GET /b HTTP/1.1\r\nHost: t\r\n\r\n\
              GET /c HTTP/1.1\r\nHost: t\r\n\r\n",
        )
        .unwrap();
    for path in ["/a", "/b", "/c"] {
        let (status, body) = read_response(&mut stream);
        assert_eq!(status, 200);
        assert_eq!(body, format!("ok {path}"));
    }
    drop(stream);
    http.shutdown();
}

#[test]
fn idle_keepalive_connections_are_reaped_at_the_read_timeout() {
    let http = echo_server(|cfg| cfg.read_timeout = Duration::from_millis(200), 0);
    let mut stream = TcpStream::connect(http.local_addr()).unwrap();
    let (status, _) = get(&mut stream, "/x");
    assert_eq!(status, 200);
    assert_eq!(http.open_connections(), 1);
    // Go idle: the server must close us around read_timeout (plus a
    // timer-wheel tick), not hold the socket forever.
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let started = Instant::now();
    let mut tail = [0u8; 16];
    let n = stream.read(&mut tail).expect("clean FIN, not a timeout");
    assert_eq!(n, 0, "expected EOF, got bytes");
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "reap took {:?}",
        started.elapsed()
    );
    http.shutdown();
}

#[test]
fn connection_budget_sheds_overflow_with_503() {
    let http = echo_server(|cfg| cfg.max_connections = 3, 0);
    let addr = http.local_addr();
    // Fill the budget with served keep-alive connections.
    let mut held: Vec<TcpStream> = (0..3)
        .map(|_| {
            let mut s = TcpStream::connect(addr).unwrap();
            assert_eq!(get(&mut s, "/held").0, 200);
            s
        })
        .collect();
    // The overflow connection is answered 503 and closed.
    let mut extra = TcpStream::connect(addr).unwrap();
    extra
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let (status, body) = read_response(&mut extra);
    assert_eq!(status, 503);
    assert!(body.contains("connection budget exhausted"), "{body}");
    let mut tail = [0u8; 16];
    assert_eq!(extra.read(&mut tail).expect("clean close"), 0);
    // The held connections still serve.
    for s in &mut held {
        assert_eq!(get(s, "/still").0, 200);
    }
    // Freeing a slot resumes accepting within a tick or two.
    drop(held.remove(0));
    std::thread::sleep(Duration::from_millis(400));
    let mut fresh = TcpStream::connect(addr).unwrap();
    assert_eq!(get(&mut fresh, "/fresh").0, 200);
    drop(held);
    drop(fresh);
    http.shutdown();
}

#[test]
fn slowloris_clients_get_408_and_do_not_degrade_fast_clients() {
    let http = echo_server(|cfg| cfg.head_deadline = Duration::from_millis(600), 0);
    let addr = http.local_addr();
    // 40 clients that each trickle a partial request head and then stall.
    let slow: Vec<TcpStream> = (0..40)
        .map(|i| {
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(format!("GET /slow{i} HTTP/1.1\r\nX-Half:").as_bytes())
                .unwrap();
            s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
            s
        })
        .collect();
    // Fast client latency must be unaffected: with the old blocking
    // pool, 40 stalled sockets held every worker thread and this loop
    // sat behind their read timeouts.
    let mut fast = TcpStream::connect(addr).unwrap();
    let mut worst = Duration::ZERO;
    for i in 0..50 {
        let t = Instant::now();
        let (status, _) = get(&mut fast, &format!("/fast{i}"));
        assert_eq!(status, 200);
        worst = worst.max(t.elapsed());
    }
    assert!(
        worst < Duration::from_millis(500),
        "fast request took {worst:?} behind slowloris clients"
    );
    // Each stalled head is answered 408 and closed once the head
    // deadline lapses.
    let started = Instant::now();
    for mut s in slow {
        let (status, _) = read_response(&mut s);
        assert_eq!(status, 408);
        let mut tail = [0u8; 16];
        assert_eq!(s.read(&mut tail).expect("clean close"), 0);
    }
    assert!(
        started.elapsed() < Duration::from_secs(8),
        "408s took {:?}",
        started.elapsed()
    );
    drop(fast);
    http.shutdown();
}

// ------------------------------------------------------- long-poll API

/// One classified tuple per epoch: enough to seal and publish.
fn seal_one_epoch(pipe: &mut StreamPipeline, publisher: &mut Publisher, t: u64) {
    pipe.push(StreamEvent::new(
        t,
        PathCommTuple::new(
            path(&[5, 9]),
            CommunitySet::from_iter([AnyCommunity::tag_for(Asn(5), 100)]),
        ),
    ));
    pipe.seal_epoch();
    publisher.sync(pipe);
}

/// An `Api` server with publish wakeups wired, plus the publisher side.
fn api_server() -> (HttpServer, Arc<SnapshotSlot>, Publisher, StreamPipeline) {
    let slot = Arc::new(SnapshotSlot::new(Thresholds::default()));
    let http = HttpServer::start(
        HttpConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            ..Default::default()
        },
        Arc::new(Api::new(Arc::clone(&slot), Arc::new(Metrics::new()))),
    )
    .expect("bind loopback");
    let waker = http.waker();
    slot.register_waker(Arc::new(move || waker.wake_all()));
    let publisher = Publisher::new(Arc::clone(&slot), 1024);
    let pipe = StreamPipeline::new(StreamConfig::default());
    (http, slot, publisher, pipe)
}

#[test]
fn long_poll_returns_within_one_publish_interval() {
    let (http, _slot, mut publisher, mut pipe) = api_server();
    let addr = http.local_addr();
    // Nothing published yet: since_epoch=0 parks until the first seal.
    let client = std::thread::spawn(move || {
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(b"GET /v1/flips?since_epoch=0&wait_ms=20000 HTTP/1.1\r\nHost: t\r\n\r\n")
            .unwrap();
        let t = Instant::now();
        let (status, body) = read_response(&mut s);
        (status, body, t.elapsed())
    });
    std::thread::sleep(Duration::from_millis(250));
    seal_one_epoch(&mut pipe, &mut publisher, 0);
    let (status, body, waited) = client.join().unwrap();
    assert_eq!(status, 200);
    assert!(body.contains("\"since_epoch\":0"), "{body}");
    assert!(body.contains("\"epoch\":0"), "{body}");
    // Parked across the publish, resumed well before the 20 s deadline.
    assert!(
        waited >= Duration::from_millis(200),
        "answered early: {waited:?}"
    );
    assert!(
        waited < Duration::from_secs(10),
        "missed the wake: {waited:?}"
    );
    http.shutdown();
}

#[test]
fn long_poll_deadline_lapses_into_the_regular_answer() {
    let (http, _slot, mut publisher, mut pipe) = api_server();
    seal_one_epoch(&mut pipe, &mut publisher, 0);
    let mut s = TcpStream::connect(http.local_addr()).unwrap();
    // since_epoch=5 is ahead of the published epoch 0: the request
    // parks, the 400 ms deadline lapses, and the normal (empty but
    // complete) flips envelope is the final answer.
    let t = Instant::now();
    s.write_all(b"GET /v1/flips?since_epoch=5&wait_ms=400 HTTP/1.1\r\nHost: t\r\n\r\n")
        .unwrap();
    let (status, body) = read_response(&mut s);
    let waited = t.elapsed();
    assert_eq!(status, 200);
    assert!(body.contains("\"count\":0"), "{body}");
    assert!(waited >= Duration::from_millis(350), "no park: {waited:?}");
    assert!(
        waited < Duration::from_secs(5),
        "deadline overshot: {waited:?}"
    );
    // The connection stays keep-alive after a parked answer.
    let (status, _) = get(&mut s, "/healthz");
    assert_eq!(status, 200);
    drop(s);
    http.shutdown();
}

#[test]
fn shutdown_drains_a_parked_long_poller_with_a_clean_close() {
    let (http, _slot, mut publisher, mut pipe) = api_server();
    seal_one_epoch(&mut pipe, &mut publisher, 0);
    let addr = http.local_addr();
    let client = std::thread::spawn(move || {
        let mut s = TcpStream::connect(addr).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(20))).unwrap();
        s.write_all(b"GET /v1/flips?since_epoch=99&wait_ms=600000 HTTP/1.1\r\nHost: t\r\n\r\n")
            .unwrap();
        let (status, body) = read_response(&mut s);
        // Drained parked responses are `Connection: close`: expect FIN.
        let mut tail = [0u8; 16];
        let clean = matches!(s.read(&mut tail), Ok(0));
        (status, body, clean)
    });
    std::thread::sleep(Duration::from_millis(300));
    let started = Instant::now();
    http.shutdown();
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "shutdown blocked on parked poller: {:?}",
        started.elapsed()
    );
    let (status, body, clean) = client.join().unwrap();
    assert_eq!(status, 200);
    assert!(body.contains("\"flips\":[]"), "{body}");
    assert!(clean, "parked poller closed uncleanly at shutdown");
}

/// Read one response off `r` as its raw bytes, head and body.
fn read_raw(r: &mut impl BufRead, head_only: bool) -> Vec<u8> {
    let mut raw = Vec::new();
    while !raw.ends_with(b"\r\n\r\n") {
        let n = r.read_until(b'\n', &mut raw).expect("read head");
        assert!(n > 0, "EOF mid-head: {:?}", String::from_utf8_lossy(&raw));
    }
    let length: usize = String::from_utf8_lossy(&raw)
        .lines()
        .find_map(|l| {
            l.strip_prefix("Content-Length: ")
                .map(|v| v.parse().unwrap())
        })
        .expect("Content-Length");
    if !head_only {
        let start = raw.len();
        raw.resize(start + length, 0);
        r.read_exact(&mut raw[start..]).expect("read body");
    }
    raw
}

fn request(method: &str, path: &str, close: bool) -> String {
    let close = if close { "Connection: close\r\n" } else { "" };
    format!("{method} {path} HTTP/1.1\r\nHost: t\r\n{close}\r\n")
}

#[test]
fn a_pipelined_batch_past_the_batch_bound_answers_each_request_as_if_alone() {
    let (http, _slot, mut publisher, mut pipe) = api_server();
    // 150 taggers: a 100-record classes page and the flips list are
    // about 6 KB each, so the answers to one 4 KiB read of pipelined
    // requests run past the 64 KiB a batch may queue.
    for asn in 2..152u32 {
        pipe.push(StreamEvent::new(
            u64::from(asn),
            PathCommTuple::new(
                path(&[asn, 9]),
                CommunitySet::from_iter([AnyCommunity::tag_for(Asn(asn), 100)]),
            ),
        ));
    }
    pipe.seal_epoch();
    publisher.sync(&pipe);
    let requests: Vec<(&str, String)> = (0..200)
        .map(|i| match i % 4 {
            _ if i == 101 => ("HEAD", "/v1/classes?limit=100".to_string()),
            0 => ("GET", "/v1/classes?limit=100".to_string()),
            1 => ("GET", "/v1/flips?since_epoch=0".to_string()),
            _ => ("GET", format!("/v1/class/{}", 2 + i % 150)),
        })
        .collect();
    let connect = || {
        let s = TcpStream::connect(http.local_addr()).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
        s
    };
    // Each request alone, one at a time on one keep-alive connection;
    // the last says `Connection: close` when `close_last`.
    let alone = |reqs: &[(&str, String)], close_last: bool| -> Vec<Vec<u8>> {
        let mut s = connect();
        let mut r = BufReader::new(s.try_clone().unwrap());
        reqs.iter()
            .enumerate()
            .map(|(i, (method, path))| {
                let close = close_last && i + 1 == reqs.len();
                s.write_all(request(method, path, close).as_bytes())
                    .unwrap();
                read_raw(&mut r, *method == "HEAD")
            })
            .collect()
    };
    let want = alone(&requests, false);

    // All 200 in one write; the client reads nothing for 300 ms.
    let mut s = connect();
    let wire: String = requests.iter().map(|(m, p)| request(m, p, false)).collect();
    s.write_all(wire.as_bytes()).unwrap();
    std::thread::sleep(Duration::from_millis(300));
    let mut r = BufReader::new(s.try_clone().unwrap());
    for (i, ((method, path), want)) in requests.iter().zip(&want).enumerate() {
        let got = read_raw(&mut r, *method == "HEAD");
        assert!(
            got == *want,
            "answer {i} to {method} {path} differs from its answer alone"
        );
    }

    // A second batch with `Connection: close` tenth of twenty: answers
    // stop after it and the server closes.
    let second = &requests[..20];
    let want = alone(&second[..10], true);
    let wire: String = second
        .iter()
        .enumerate()
        .map(|(i, (m, p))| request(m, p, i == 9))
        .collect();
    s.write_all(wire.as_bytes()).unwrap();
    for (i, ((method, _), want)) in second.iter().zip(&want).enumerate() {
        assert!(read_raw(&mut r, *method == "HEAD") == *want, "answer {i}");
    }
    let mut tail = Vec::new();
    r.read_to_end(&mut tail)
        .expect("EOF after the closing answer");
    assert!(
        tail.is_empty(),
        "{} bytes after the closing answer",
        tail.len()
    );
    http.shutdown();
}

#[test]
fn shutdown_flushes_an_in_flight_response() {
    // An 8 MiB body outgrows the socket buffers, so the response is still
    // being written when shutdown starts and the client has not read for
    // 300 ms; the reactor finishes it before closing.
    const BIG: usize = 8 * 1024 * 1024;
    let http = echo_server(|_| {}, BIG);
    let mut stream = TcpStream::connect(http.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(20)))
        .unwrap();
    stream
        .write_all(b"GET /big HTTP/1.1\r\nHost: t\r\n\r\n")
        .unwrap();
    // The first byte proves the response is queued and being written.
    let mut got = vec![0u8; 1];
    assert_eq!(stream.read(&mut got).unwrap(), 1);
    let stopper = std::thread::spawn(move || http.shutdown());
    std::thread::sleep(Duration::from_millis(300));
    stream
        .read_to_end(&mut got)
        .expect("clean close after the body");
    stopper.join().unwrap();
    let head_end = got.windows(4).position(|w| w == b"\r\n\r\n").unwrap() + 4;
    assert_eq!(got.len() - head_end, BIG, "body cut short at shutdown");
}

// -------------------------------------------------------------- c10k

#[test]
fn ten_thousand_keepalive_connections_on_reactor_threads() {
    const TARGET: usize = 10_000;
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let slot = Arc::new(SnapshotSlot::new(Thresholds::default()));
    let metrics = Arc::new(Metrics::new());
    let http = HttpServer::start(
        HttpConfig {
            addr: "127.0.0.1:0".to_string(),
            // The headline claim: >= 10k concurrent connections on no
            // more reactor threads than cores.
            workers: cores,
            max_connections: TARGET + 64,
            registry: Arc::clone(metrics.registry()),
            ..Default::default()
        },
        Arc::new(Api::new(Arc::clone(&slot), metrics)),
    )
    .expect("bind loopback");
    let mut publisher = Publisher::new(Arc::clone(&slot), 1024);
    let mut pipe = StreamPipeline::new(StreamConfig::default());
    seal_one_epoch(&mut pipe, &mut publisher, 0);

    // The flood client lives in its own process so its 10k fds come out
    // of a separate RLIMIT_NOFILE budget than the server's 10k.
    let mut flood = std::process::Command::new(env!("CARGO_BIN_EXE_bgp-flood"))
        .args([
            "--addr",
            &http.local_addr().to_string(),
            "--conns",
            &TARGET.to_string(),
            "--probe",
            "200",
            "--hold-ms",
            "120000",
        ])
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("spawn bgp-flood");
    let mut lines = BufReader::new(flood.stdout.take().unwrap()).lines();

    let connected = lines
        .next()
        .expect("flood reports the ramp")
        .expect("flood stdout readable");
    assert!(
        connected.contains(&format!("\"connected\":{TARGET}")),
        "flood ramp fell short: {connected}"
    );
    // Every one of those connections was served a priming request and
    // is now parked idle on the reactors.
    assert!(
        http.open_connections() >= TARGET,
        "server sees {} open connections, want >= {TARGET}",
        http.open_connections()
    );
    // Queries still answer while 10k sockets are parked: the flood's
    // own probe measures latency through the loaded server...
    let probe = lines
        .next()
        .expect("flood reports the probe")
        .expect("flood stdout readable");
    assert!(
        probe.contains("\"probe_requests\":200"),
        "probe fell short: {probe}"
    );
    let p99_us: u64 = probe
        .split("\"probe_p99_us\":")
        .nth(1)
        .and_then(|rest| rest.trim_end_matches('}').parse().ok())
        .unwrap_or_else(|| panic!("unparseable probe line: {probe}"));
    assert!(
        p99_us < 2_000_000,
        "p99 {p99_us}us with {TARGET} idle connections"
    );
    // ...and a direct query from this process confirms it end-to-end.
    let mut direct = TcpStream::connect(http.local_addr()).unwrap();
    let (status, body) = get(&mut direct, "/healthz");
    assert_eq!(status, 200);
    assert!(body.contains("\"status\":\"ok\""), "{body}");
    // The operator sees them too, on the server's own registry: the
    // flood's connections and this one, once the probe's has closed.
    let deadline = Instant::now() + Duration::from_secs(10);
    while http.open_connections() != TARGET + 1 {
        assert!(
            Instant::now() < deadline,
            "{} open connections, want {}",
            http.open_connections(),
            TARGET + 1
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    let (status, page) = get(&mut direct, "/metrics");
    assert_eq!(status, 200);
    let open = support::metric(&page, "bgp_http_open_connections").expect("open-connections gauge");
    assert!(open >= TARGET as f64, "bgp_http_open_connections {open}");
    assert_eq!(open, (TARGET + 1) as f64, "bgp_http_open_connections");

    flood.kill().ok();
    flood.wait().ok();
    drop(direct);
    http.shutdown();
}
