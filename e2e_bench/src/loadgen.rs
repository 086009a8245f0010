//! The load side of the query workloads: a seeded request schedule and
//! a closed-loop HTTP/1.1 client over loopback keep-alive connections.
//!
//! Closed loop, callers stated: a phase drives `conns × depth` callers,
//! each sending its next request only after its previous answer is in.
//! One thread drives every connection of a phase (a batch of `depth`
//! pipelined requests on each, refilled as soon as it is answered) and
//! spins while it waits, so the generator uses exactly one of the box's
//! two cores.

use crate::stats::Rng;
use bgp_archive::frame::Fnv64;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Requests in one schedule; phases cycle through it.
pub const SCHEDULE_LEN: usize = 4_096;

/// Endpoint of a scheduled request (indexes per-endpoint tallies).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    Class = 0,
    Healthz = 1,
    ClassesPage = 2,
    Flips = 3,
}

pub struct Scheduled {
    /// The request exactly as written to the socket.
    pub wire: Vec<u8>,
    pub kind: Kind,
    /// Path and query, for replaying the request in process.
    pub target: String,
    /// The AS a `Kind::Class` request asks about.
    pub asn: u32,
}

/// The `BENCH_serve` mix: 70 % point look-ups uniform over the served
/// records, 10 % each of health checks, 100-record pages and flip
/// history from one of the first 50 epochs.
pub fn schedule(seed: u64, served_asns: &[u32]) -> Vec<Scheduled> {
    assert!(!served_asns.is_empty(), "schedule needs served records");
    let mut rng = Rng::new(seed ^ 0x5C4E_D01E);
    (0..SCHEDULE_LEN)
        .map(|_| {
            let (kind, target, asn) = match rng.below(10) {
                0 => (Kind::Healthz, "/healthz".to_string(), 0),
                1 => (Kind::ClassesPage, "/v1/classes?limit=100".to_string(), 0),
                2 => {
                    let since = rng.below(50);
                    (Kind::Flips, format!("/v1/flips?since_epoch={since}"), 0)
                }
                _ => {
                    let asn = served_asns[rng.below(served_asns.len() as u64) as usize];
                    (Kind::Class, format!("/v1/class/{asn}"), asn)
                }
            };
            let wire = format!("GET {target} HTTP/1.1\r\nHost: bench\r\n\r\n").into_bytes();
            Scheduled {
                wire,
                kind,
                target,
                asn,
            }
        })
        .collect()
}

/// Hash of the schedule's wire bytes, folded into the fingerprint.
pub fn schedule_fingerprint(schedule: &[Scheduled]) -> u64 {
    let mut h = Fnv64::new();
    for s in schedule {
        h.update(&s.wire);
    }
    h.digest()
}

/// One answered request, borrowed from the connection's buffer.
pub struct Answer<'a> {
    pub ok: bool,
    pub body: &'a [u8],
    /// Head and body bytes on the wire.
    pub wire_len: usize,
}

/// One keep-alive connection with its receive buffer.
///
/// The socket is non-blocking and the generator **spins** on it. A
/// generator that blocks is woken by the server for every answer, and on
/// this box the price of that wake-up (an IPI to a halted vCPU) is set
/// by the host's mood, not by the program: identical runs gave 37k and
/// 65k req/s. A generator that never sleeps costs the server nothing to
/// talk to, whatever the host does with idle vCPUs.
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
    start: usize,
    end: usize,
    /// Time spent spinning with nothing to read.
    pub waited: Duration,
}

/// A server that stays silent this long has hung: fail the run.
const SILENCE_LIMIT: Duration = Duration::from_secs(10);

fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        Ok(Conn {
            stream,
            buf: vec![0; 256 * 1024],
            start: 0,
            end: 0,
            waited: Duration::ZERO,
        })
    }

    pub fn send(&mut self, mut wire: &[u8]) -> io::Result<()> {
        while !wire.is_empty() {
            match self.stream.write(wire) {
                Ok(n) => wire = &wire[n..],
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => std::hint::spin_loop(),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    fn fill(&mut self) -> io::Result<()> {
        if self.start == self.end {
            self.start = 0;
            self.end = 0;
        }
        if self.end == self.buf.len() {
            if self.start > 0 {
                self.buf.copy_within(self.start..self.end, 0);
                self.end -= self.start;
                self.start = 0;
            } else {
                self.buf.resize(self.buf.len() * 2, 0);
            }
        }
        let mut idle_since: Option<Instant> = None;
        loop {
            match self.stream.read(&mut self.buf[self.end..]) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "server closed the connection mid-run",
                    ))
                }
                Ok(n) => {
                    self.end += n;
                    if let Some(since) = idle_since {
                        self.waited += since.elapsed();
                    }
                    return Ok(());
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    let since = *idle_since.get_or_insert_with(Instant::now);
                    if since.elapsed() > SILENCE_LIMIT {
                        return Err(io::Error::new(
                            io::ErrorKind::TimedOut,
                            "server went silent",
                        ));
                    }
                    // Stay runnable, but hand the core to the pacer or
                    // a shard worker if one is waiting for it.
                    std::thread::yield_now();
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// Read one full response: the head, then exactly `Content-Length`
    /// body bytes. A response without that header is a short response.
    pub fn recv(&mut self) -> io::Result<Answer<'_>> {
        let (head_len, body_len) = loop {
            let window = &self.buf[self.start..self.end];
            if let Some(head_end) = find(window, b"\r\n\r\n") {
                let head = &window[..head_end];
                let length = find(head, b"Content-Length: ")
                    .and_then(|at| {
                        let digits = &head[at + 16..];
                        let stop = find(digits, b"\r\n").unwrap_or(digits.len());
                        std::str::from_utf8(&digits[..stop])
                            .ok()?
                            .parse::<usize>()
                            .ok()
                    })
                    .ok_or_else(|| {
                        io::Error::new(
                            io::ErrorKind::InvalidData,
                            "response without Content-Length",
                        )
                    })?;
                break (head_end + 4, length);
            }
            self.fill()?;
        };
        while self.end - self.start < head_len + body_len {
            self.fill()?;
        }
        let at = self.start;
        self.start += head_len + body_len;
        let response = &self.buf[at..at + head_len + body_len];
        Ok(Answer {
            ok: response.starts_with(b"HTTP/1.1 200 "),
            body: &response[head_len..],
            wire_len: head_len + body_len,
        })
    }
}

/// What one phase measured.
#[derive(Default)]
pub struct Phase {
    pub attempted: u64,
    /// Non-200 answers; a short or missing answer aborts the phase as
    /// an I/O error instead.
    pub failed: u64,
    pub wall: Duration,
    /// Of `wall`, how long the generator spun with nothing to read.
    pub waited: Duration,
    /// Answers per second in each full `RATE_WINDOW` of the phase.
    pub window_rates: Vec<f64>,
    /// Per-request latency in ns, request write → last body byte; only
    /// recorded when one request is outstanding (`conns × depth == 1`).
    pub latencies_ns: Vec<u64>,
    pub response_bytes: u64,
    /// Requests answered and bytes received, by [`Kind`].
    pub by_kind: [u64; 4],
    pub bytes_by_kind: [u64; 4],
    /// `(asn, body)` of sampled `/v1/class/{asn}` answers.
    pub samples: Vec<(u32, Vec<u8>)>,
}

/// A phase's rate is taken over windows this long (see [`Phase::rate`]);
/// long enough to hold six turns of the schedule and, in `query_live`,
/// at least two of the pacer's ticks.
const RATE_WINDOW: Duration = Duration::from_millis(250);

impl Phase {
    /// Answers per second: the upper decile of the windows' rates, or
    /// the whole phase's rate when it was shorter than one window. On
    /// this kind of host the server runs for seconds at a time at 70 %
    /// of its speed (whenever a neighbour shares its core) and the share
    /// of a run spent that way is anyone's guess, so the median window
    /// says more about the neighbours than about the program.
    pub fn rate(&self) -> f64 {
        if self.window_rates.is_empty() {
            self.attempted as f64 / self.wall.as_secs_f64()
        } else {
            crate::stats::upper_decile(&self.window_rates)
        }
    }
}

/// Keep the body of every `SAMPLE_STRIDE`-th point look-up of a watched
/// AS, up to `SAMPLE_CAP` a phase.
const SAMPLE_STRIDE: u64 = 7;
const SAMPLE_CAP: usize = 512;

/// Drive `conns` for `duration`, `depth` pipelined requests per
/// connection, cycling through `schedule` from `*cursor`. Each
/// connection gets its next batch the moment its last one is answered,
/// before the generator turns to the next connection, so the server
/// always has a batch to work on while the generator parses. Bodies of
/// look-ups for the ASes in `watched` are sampled for checking later.
pub fn run_phase(
    conns: &mut [Conn],
    depth: usize,
    schedule: &[Scheduled],
    cursor: &mut usize,
    watched: &[u32],
    duration: Duration,
) -> io::Result<Phase> {
    let mut phase = Phase::default();
    let waited_before: Duration = conns.iter().map(|c| c.waited).sum();
    let time_each = conns.len() * depth == 1;
    // Schedule positions awaiting an answer, per connection.
    let mut in_flight: Vec<Vec<usize>> = vec![Vec::with_capacity(depth); conns.len()];
    let mut sent_at = Instant::now();
    let mut watched_seen = 0u64;
    let started = Instant::now();
    // A pipelining client writes its batch in one go.
    let mut wire = Vec::with_capacity(depth * 64);
    let mut send_batch =
        |conn: &mut Conn, queue: &mut Vec<usize>, cursor: &mut usize| -> io::Result<()> {
            wire.clear();
            for _ in 0..depth {
                let at = *cursor % schedule.len();
                *cursor += 1;
                wire.extend_from_slice(&schedule[at].wire);
                queue.push(at);
            }
            conn.send(&wire)
        };
    for (conn, queue) in conns.iter_mut().zip(&mut in_flight) {
        send_batch(conn, queue, cursor)?;
    }
    let mut window_began = started;
    let mut window_base = 0u64;
    loop {
        let now = Instant::now();
        let sending = now.duration_since(started) < duration;
        let in_window = now.duration_since(window_began);
        if in_window >= RATE_WINDOW {
            phase
                .window_rates
                .push((phase.attempted - window_base) as f64 / in_window.as_secs_f64());
            window_began = now;
            window_base = phase.attempted;
        }
        for (conn, queue) in conns.iter_mut().zip(&mut in_flight) {
            for &at in queue.iter() {
                let request = &schedule[at];
                let answer = conn.recv()?;
                phase.attempted += 1;
                if !answer.ok {
                    phase.failed += 1;
                }
                phase.response_bytes += answer.wire_len as u64;
                phase.by_kind[request.kind as usize] += 1;
                phase.bytes_by_kind[request.kind as usize] += answer.wire_len as u64;
                if request.kind == Kind::Class && watched.contains(&request.asn) {
                    watched_seen += 1;
                    if watched_seen.is_multiple_of(SAMPLE_STRIDE)
                        && phase.samples.len() < SAMPLE_CAP
                    {
                        phase.samples.push((request.asn, answer.body.to_vec()));
                    }
                }
            }
            if time_each {
                phase.latencies_ns.push(sent_at.elapsed().as_nanos() as u64);
            }
            queue.clear();
            if sending {
                sent_at = Instant::now();
                send_batch(conn, queue, cursor)?;
            }
        }
        if !sending {
            break;
        }
    }
    phase.wall = started.elapsed();
    phase.waited = conns.iter().map(|c| c.waited).sum::<Duration>() - waited_before;
    Ok(phase)
}
