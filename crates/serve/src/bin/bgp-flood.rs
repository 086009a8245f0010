//! `bgp-flood` — loopback connection-flood client for the serve
//! transport's c10k test.
//!
//! The 10k-connection proof needs the client fds in a *separate
//! process* from the server (each side of a loopback connection costs
//! an fd, and typical `RLIMIT_NOFILE` hard caps would be blown by
//! holding both ends in one process). `tests/event_loop.rs` spawns this
//! binary via `CARGO_BIN_EXE_bgp-flood`; it works the same against a
//! running `bgp-served`.
//!
//! ```text
//! USAGE:
//!   bgp-flood --addr HOST:PORT [OPTIONS]
//!
//! OPTIONS:
//!   --conns <N>        keep-alive connections to open and hold (default 0);
//!                      each is primed with one request so "open" means
//!                      "accepted, served, and parked idle", not "in backlog"
//!   --path <P>         priming/probe request path (default /healthz)
//!   --probe <N>        after the ramp, issue N sequential requests on one
//!                      fresh connection and report p50/p99 latency
//!   --hold-ms <M>      keep the flood connections open this long after the
//!                      ramp completes (default 30000); the parent usually
//!                      kills the process earlier
//! ```
//!
//! Progress and results are emitted as one JSON object per line on
//! stdout: `{"connected":N}` when the ramp is done, and
//! `{"probe_requests":N,"probe_p50_us":X,"probe_p99_us":Y}` after a
//! probe.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::process::ExitCode;
use std::time::{Duration, Instant};

struct Options {
    addr: String,
    conns: usize,
    path: String,
    probe: usize,
    hold_ms: u64,
}

fn usage() -> &'static str {
    "usage: bgp-flood --addr HOST:PORT [--conns N] [--path P] [--probe N] [--hold-ms M]\n\
     Holds keep-alive connections open against a bgp-served instance."
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        addr: String::new(),
        conns: 0,
        path: "/healthz".to_string(),
        probe: 0,
        hold_ms: 30_000,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut val = |name: &str| -> Result<String, String> {
            it.next()
                .cloned()
                .ok_or(format!("missing value for {name}"))
        };
        match arg.as_str() {
            "--addr" => opts.addr = val(arg)?,
            "--conns" => {
                opts.conns = val(arg)?.parse().map_err(|e| format!("bad conns: {e}"))?;
            }
            "--path" => opts.path = val(arg)?,
            "--probe" => {
                opts.probe = val(arg)?.parse().map_err(|e| format!("bad probe: {e}"))?;
            }
            "--hold-ms" => {
                opts.hold_ms = val(arg)?.parse().map_err(|e| format!("bad hold-ms: {e}"))?;
            }
            "-h" | "--help" => return Err(String::new()),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if opts.addr.is_empty() {
        return Err("--addr is required".into());
    }
    Ok(opts)
}

/// Connect with retries: a ramp of thousands of connects can outrun the
/// listener backlog, and the server pauses accept at its budget — both
/// resolve within a tick, so briefly retry instead of failing the run.
fn connect(addr: &str) -> Result<TcpStream, String> {
    let mut delay = Duration::from_millis(5);
    for attempt in 0..8 {
        match TcpStream::connect(addr) {
            Ok(s) => return Ok(s),
            Err(e) if attempt == 7 => return Err(format!("connect {addr}: {e}")),
            Err(_) => {
                std::thread::sleep(delay);
                delay = (delay * 2).min(Duration::from_millis(200));
            }
        }
    }
    unreachable!()
}

/// One keep-alive request/response on an open connection. Returns the
/// status code and body length.
fn roundtrip(stream: &mut TcpStream, path: &str) -> Result<(u16, usize), String> {
    let req = format!("GET {path} HTTP/1.1\r\nHost: flood\r\nConnection: keep-alive\r\n\r\n");
    stream
        .write_all(req.as_bytes())
        .map_err(|e| format!("write: {e}"))?;
    read_response(stream)
}

/// Read one HTTP/1.1 response (head until CRLFCRLF, then
/// `Content-Length` body bytes).
fn read_response(stream: &mut TcpStream) -> Result<(u16, usize), String> {
    let mut buf: Vec<u8> = Vec::with_capacity(1024);
    let mut chunk = [0u8; 4096];
    let head_end = loop {
        if let Some(i) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break i + 4;
        }
        let n = stream.read(&mut chunk).map_err(|e| format!("read: {e}"))?;
        if n == 0 {
            return Err("eof before response head".into());
        }
        buf.extend_from_slice(&chunk[..n]);
    };
    let head = std::str::from_utf8(&buf[..head_end]).map_err(|e| format!("head utf8: {e}"))?;
    let status: u16 = head
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or("bad status line")?;
    let content_length: usize = head
        .lines()
        .find_map(|l| l.strip_prefix("Content-Length: "))
        .and_then(|v| v.trim().parse().ok())
        .ok_or("missing content-length")?;
    let mut have = buf.len() - head_end;
    while have < content_length {
        let n = stream.read(&mut chunk).map_err(|e| format!("read: {e}"))?;
        if n == 0 {
            return Err("eof mid-body".into());
        }
        have += n;
    }
    Ok((status, content_length))
}

fn run(opts: Options) -> Result<(), String> {
    let mut held: Vec<TcpStream> = Vec::with_capacity(opts.conns);
    let ramp = Instant::now();
    for i in 0..opts.conns {
        let mut stream = connect(&opts.addr)?;
        stream.set_nodelay(true).ok();
        let (status, _) = roundtrip(&mut stream, &opts.path)
            .map_err(|e| format!("priming request on connection {i}: {e}"))?;
        if status != 200 {
            return Err(format!(
                "priming request on connection {i}: status {status}"
            ));
        }
        held.push(stream);
    }
    // cli-out
    println!(
        "{{\"connected\":{},\"ramp_ms\":{}}}",
        held.len(),
        ramp.elapsed().as_millis()
    );

    if opts.probe > 0 {
        let mut stream = connect(&opts.addr)?;
        stream.set_nodelay(true).ok();
        let mut lat_us: Vec<u64> = Vec::with_capacity(opts.probe);
        for _ in 0..opts.probe {
            let t = Instant::now();
            let (status, _) = roundtrip(&mut stream, &opts.path)?;
            if status != 200 {
                return Err(format!("probe status {status}"));
            }
            lat_us.push(t.elapsed().as_micros() as u64);
        }
        lat_us.sort_unstable();
        let pct = |p: f64| lat_us[((lat_us.len() - 1) as f64 * p) as usize];
        // cli-out
        println!(
            "{{\"probe_requests\":{},\"probe_p50_us\":{},\"probe_p99_us\":{}}}",
            lat_us.len(),
            pct(0.50),
            pct(0.99)
        );
    }

    if !held.is_empty() && opts.hold_ms > 0 {
        std::thread::sleep(Duration::from_millis(opts.hold_ms));
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(msg) => {
            if msg.is_empty() {
                eprintln!("{}", usage()); // cli-out
                return ExitCode::SUCCESS;
            }
            eprintln!("error: {msg}\n{}", usage()); // cli-out
            return ExitCode::FAILURE;
        }
    };
    match run(opts) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}"); // cli-out
            ExitCode::FAILURE
        }
    }
}
