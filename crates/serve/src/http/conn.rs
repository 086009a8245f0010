//! The connection state machine, free of I/O: one [`Conn`] per socket,
//! advanced by [`Conn::step`] from an [`Input`] and the current instant
//! to the [`Actions`] the epoll driver applies. No syscall, clock read
//! or global counter is reached from here, so the unit tests drive it
//! as a model over a synthetic clock.

#![forbid(unsafe_code)]

use super::{Dispatch, Handler, HttpConfig, Request, Response};
use crate::json::u64_digits;
use std::time::{Duration, Instant};

/// Timer-wheel tick. Deadlines fire within one tick of their nominal
/// instant; wake-pipe events (publish, shutdown) are immediate.
pub(super) const TICK_MS: u64 = 100;
const WHEEL_SLOTS: usize = 64;

/// Cap on `Dispatch::Park` so a buggy `wait_ms` cannot park forever.
const MAX_PARK_MS: u64 = 600_000;

/// A batch of pipelined answers stops growing once this many bytes are
/// queued (about one socket send buffer), so a read buffer of tiny
/// requests for large answers queues at most this plus one answer.
const MAX_BATCH_BYTES: usize = 64 * 1024;

/// What happened to a connection since its last transition.
#[derive(Debug, Clone, Copy)]
pub(super) enum Input<'a> {
    /// Bytes read from the peer.
    Bytes(&'a [u8]),
    /// The peer finished sending (a zero-byte read).
    Eof,
    /// `n` bytes of [`Conn::queued`] reached the socket.
    Wrote(usize),
    /// A read or write failed: the connection is gone.
    PeerReset,
    /// A wheel hint came due; the connection's own deadline decides.
    Deadline,
    /// A new epoch was published: re-poll a parked request.
    Wake,
    /// The server is stopping: answer a parked request, finish the
    /// response in flight, then close.
    Shutdown,
}

/// Readiness a connection waits on.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(super) enum Interest {
    /// More request bytes (also how a parked peer's hang-up is seen).
    #[default]
    Read,
    /// Room to write [`Conn::queued`].
    Write,
    /// The peer's hang-up alone: a parked request holds a full read
    /// buffer, so no byte is read until it is answered.
    Hangup,
}

/// Which deadline a connection is under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum DeadlineKind {
    /// No request in flight: reap at `read_timeout`.
    Idle,
    /// A partial head is buffered: 408 at `head_deadline`.
    Head,
    /// A long-poll is parked: its final answer at `wait_ms`.
    Park,
}

/// What the driver applies after one transition.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(super) struct Actions {
    /// Readiness to wait on next: `Write` exactly when bytes are queued,
    /// else `Read` exactly when [`Conn::wants_bytes`].
    pub interest: Interest,
    /// Put a wheel hint at this instant.
    pub schedule: Option<Instant>,
    /// Drop the socket. Emitted at most once per connection; a closed
    /// connection ignores every later input.
    pub close: bool,
    /// Change to the parked-waiter gauge.
    pub parked_delta: i64,
    /// The deadline that fired in this transition, if one did.
    pub expired: Option<DeadlineKind>,
    /// Handler panics answered as 500 in this transition.
    pub panics: u64,
}

#[derive(Debug)]
enum ConnState {
    /// Between requests since the instant (the idle-reap anchor).
    Idle {
        since: Instant,
    },
    /// A partial head buffered since the instant (the slowloris anchor).
    Head {
        since: Instant,
    },
    /// The answers of one batch are queued in `out` and not fully
    /// written.
    Writing,
    /// A long-poll request awaiting a publish or its deadline.
    Parked {
        request: Request,
        head_only: bool,
        close_after: bool,
        until: Instant,
    },
    Closed,
}

/// One connection's protocol state and buffers.
#[derive(Debug)]
pub(super) struct Conn {
    state: ConnState,
    /// Inbound bytes; `buf[start..]` is not yet consumed (it may hold
    /// pipelined requests). Consumed heads are dropped once per step.
    buf: Vec<u8>,
    start: usize,
    /// The first `scanned` bytes of `buf[start..]` hold no head end, so
    /// the next search resumes there.
    scanned: usize,
    /// Bytes the head search has examined, for the trickle test.
    #[cfg(test)]
    head_scan_bytes: usize,
    /// Outbound bytes; `out[out_pos..]` is not yet written.
    out: Vec<u8>,
    out_pos: usize,
    served: usize,
    close_after_write: bool,
    /// The peer sent FIN: answer complete buffered requests, then close;
    /// a parked request is abandoned once the answers before it are
    /// written.
    eof: bool,
}

impl Conn {
    /// A freshly accepted connection, idle since `now`.
    pub fn open(now: Instant) -> Conn {
        Conn {
            state: ConnState::Idle { since: now },
            buf: Vec::with_capacity(1024),
            start: 0,
            scanned: 0,
            #[cfg(test)]
            head_scan_bytes: 0,
            out: Vec::new(),
            out_pos: 0,
            served: 0,
            close_after_write: false,
            eof: false,
        }
    }

    /// Bytes waiting to be written.
    pub fn queued(&self) -> &[u8] {
        &self.out[self.out_pos..]
    }

    pub fn is_parked(&self) -> bool {
        matches!(self.state, ConnState::Parked { .. })
    }

    /// Whether the driver should read. While a response is written or a
    /// request is parked, further pipelined bytes stay in the kernel
    /// buffer past `max_request_bytes` (natural backpressure).
    pub fn wants_bytes(&self, limits: &HttpConfig) -> bool {
        matches!(self.state, ConnState::Idle { .. } | ConnState::Head { .. })
            || self.buf.len() - self.start < limits.max_request_bytes
    }

    /// The connection's authoritative deadline: the wheel only holds
    /// hints, so a `Deadline` input re-checks this.
    fn deadline(&self, limits: &HttpConfig) -> Option<(DeadlineKind, Instant)> {
        match self.state {
            ConnState::Idle { since } => Some((DeadlineKind::Idle, since + limits.read_timeout)),
            ConnState::Head { since } => Some((DeadlineKind::Head, since + limits.head_deadline)),
            ConnState::Parked { until, .. } => Some((DeadlineKind::Park, until)),
            ConnState::Writing | ConnState::Closed => None,
        }
    }

    /// The one transition: apply `input` at `now`, serve what the
    /// buffers allow, and say what the driver must do.
    pub fn step(
        &mut self,
        input: Input<'_>,
        now: Instant,
        handler: &dyn Handler,
        limits: &HttpConfig,
    ) -> Actions {
        let mut acts = Actions::default();
        if matches!(self.state, ConnState::Closed) {
            return acts;
        }
        let before = self.deadline(limits).map(|(_, at)| at);
        match input {
            Input::Bytes(bytes) => self.buf.extend_from_slice(bytes),
            // A parked request and a partial head are abandoned in `advance`.
            Input::Eof => self.eof = true,
            Input::Wrote(n) => self.out_pos = (self.out_pos + n).min(self.out.len()),
            Input::PeerReset => {
                self.close(&mut acts);
                return acts;
            }
            Input::Deadline => match self.deadline(limits) {
                Some((kind, at)) if at <= now => {
                    acts.expired = Some(kind);
                    match kind {
                        DeadlineKind::Idle => {
                            self.close(&mut acts);
                            return acts;
                        }
                        DeadlineKind::Head => self.refuse(408, "request head timed out"),
                        DeadlineKind::Park => self.answer_parked(true, handler, &mut acts),
                    }
                }
                Some((_, at)) => acts.schedule = Some(at),
                None => {}
            },
            Input::Wake => self.answer_parked(false, handler, &mut acts),
            Input::Shutdown => {
                self.close_after_write = true;
                self.answer_parked(true, handler, &mut acts);
            }
        }
        self.advance(now, handler, limits, &mut acts);
        self.buf.drain(..self.start);
        self.start = 0;
        let after = self.deadline(limits).map(|(_, at)| at);
        if after != before {
            acts.schedule = after;
        }
        acts
    }

    /// Serve buffered requests until the connection blocks on a write or
    /// a read, parks, or closes. The answers of one batch — every
    /// complete request already buffered, up to one whose answer closes,
    /// one that parks, or `MAX_BATCH_BYTES` queued — go out in one write.
    fn advance(
        &mut self,
        now: Instant,
        handler: &dyn Handler,
        limits: &HttpConfig,
        acts: &mut Actions,
    ) {
        // `out` holds only answers this pass gave from the read buffer, so
        // the next buffered request may join them. An answer to a parked
        // request starts no batch: the request behind it waits for the
        // write, as it would have waited for the park.
        let mut batching = false;
        loop {
            let queued = self.queued().len();
            if queued > 0 {
                let joins = batching
                    && !self.close_after_write
                    && matches!(self.state, ConnState::Writing)
                    && queued < MAX_BATCH_BYTES;
                if !joins {
                    acts.interest = Interest::Write;
                    return;
                }
            } else {
                self.out.clear();
                self.out_pos = 0;
                if self.close_after_write {
                    // The final response is fully written.
                    return self.close(acts);
                }
                match self.state {
                    // Responses are ordered: pipelined requests wait until
                    // the parked one is answered. At EOF it is abandoned,
                    // once the answers before it are written.
                    ConnState::Parked { .. } => {
                        if self.eof {
                            return self.close(acts);
                        }
                        if !self.wants_bytes(limits) {
                            acts.interest = Interest::Hangup;
                        }
                        return;
                    }
                    ConnState::Writing => self.state = ConnState::Idle { since: now },
                    _ => {}
                }
            }
            let Some(head_end) = self.head_end(limits) else {
                if queued > 0 {
                    // No complete request is left: the batch is whole.
                    acts.interest = Interest::Write;
                    return;
                }
                if self.buf.len() - self.start >= limits.max_request_bytes {
                    self.refuse(431, "request head too large");
                    continue;
                }
                if self.eof {
                    // The peer FIN'd and no complete request remains.
                    return self.close(acts);
                }
                if self.start < self.buf.len() && matches!(self.state, ConnState::Idle { .. }) {
                    self.state = ConnState::Head { since: now };
                }
                return;
            };
            let parsed = parse_head(&self.buf[self.start..self.start + head_end]);
            self.start += head_end;
            self.scanned = 0;
            self.served += 1;
            let last_budgeted = self.served >= limits.max_keepalive_requests.max(1);
            match parsed {
                Err(msg) => self.refuse(400, msg),
                Ok(parsed) if parsed.has_body => {
                    self.refuse(400, "request bodies are not accepted")
                }
                Ok(parsed) if parsed.request.method != "GET" && parsed.request.method != "HEAD" => {
                    self.refuse(405, "only GET and HEAD are served")
                }
                Ok(parsed) => {
                    let head_only = parsed.request.method == "HEAD";
                    let close = parsed.close || last_budgeted;
                    match ask(handler, &parsed.request, false, acts) {
                        Dispatch::Ready(response) => self.respond(&response, head_only, close),
                        Dispatch::Park { wait_ms } => {
                            self.state = ConnState::Parked {
                                request: parsed.request,
                                head_only,
                                close_after: close,
                                until: now + Duration::from_millis(wait_ms.min(MAX_PARK_MS)),
                            };
                            acts.parked_delta += 1;
                        }
                    }
                }
            }
            batching = true;
        }
    }

    /// Where the first buffered request head ends, if it is complete
    /// within `max_request_bytes`. The search resumes where the last one
    /// stopped, so a head trickled in a byte at a time is scanned once.
    fn head_end(&mut self, limits: &HttpConfig) -> Option<usize> {
        let pending = &self.buf[self.start..];
        // A terminator may straddle the bytes already scanned.
        let from = self.scanned.saturating_sub(3);
        #[cfg(test)]
        {
            self.head_scan_bytes += pending.len() - from;
        }
        match find_head_end(&pending[from..]) {
            Some(end) => Some(from + end).filter(|&end| end <= limits.max_request_bytes),
            None => {
                self.scanned = pending.len();
                None
            }
        }
    }

    /// Ask the handler about the parked request — its final answer when
    /// `last`, else a re-poll that may keep it parked — and queue the
    /// answer. No-op unless parked.
    fn answer_parked(&mut self, last: bool, handler: &dyn Handler, acts: &mut Actions) {
        let ConnState::Parked {
            request,
            head_only,
            close_after,
            ..
        } = &self.state
        else {
            return;
        };
        let (head_only, close_after) = (*head_only, *close_after);
        if let Dispatch::Ready(response) = ask(handler, request, last, acts) {
            acts.parked_delta -= 1;
            self.respond(&response, head_only, close_after);
        }
    }

    /// Queue a response; once the connection is closing every later
    /// response says so.
    fn respond(&mut self, response: &Response, head_only: bool, close: bool) {
        self.close_after_write |= close;
        encode_response(&mut self.out, response, head_only, self.close_after_write);
        self.state = ConnState::Writing;
    }

    /// Answer an error and close.
    fn refuse(&mut self, status: u16, message: &str) {
        self.respond(&Response::error(status, message), false, true);
    }

    fn close(&mut self, acts: &mut Actions) {
        if self.is_parked() {
            acts.parked_delta -= 1;
        }
        self.state = ConnState::Closed;
        acts.close = true;
    }
}

/// Invoke the handler — `handle` for a final answer, else `poll` —
/// converting a panic into a 500.
fn ask(handler: &dyn Handler, request: &Request, last: bool, acts: &mut Actions) -> Dispatch {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        if last {
            Dispatch::Ready(handler.handle(request))
        } else {
            handler.poll(request)
        }
    }))
    .unwrap_or_else(|_| {
        acts.panics += 1;
        Dispatch::Ready(Response::error(500, "internal handler panic"))
    })
}

/// Coarse lazy timer wheel: slots hold connection tokens; an entry is
/// merely a hint that the connection *may* have an expired deadline —
/// the authoritative deadline is re-checked (and the entry re-scheduled)
/// when the slot comes due. Entries are never removed eagerly, so a
/// token may appear in several slots; stale hints are skipped at fire
/// time.
#[derive(Debug)]
pub(super) struct Wheel {
    slots: Vec<Vec<u64>>,
    cur: usize,
    last_advance: Instant,
}

impl Wheel {
    pub fn new(now: Instant) -> Wheel {
        Wheel {
            slots: (0..WHEEL_SLOTS).map(|_| Vec::new()).collect(),
            cur: 0,
            last_advance: now,
        }
    }

    pub fn schedule(&mut self, token: u64, deadline: Instant, now: Instant) {
        let delta_ms = deadline.saturating_duration_since(now).as_millis() as u64;
        let ticks = (delta_ms / TICK_MS + 1).min(WHEEL_SLOTS as u64 - 1) as usize;
        let slot = (self.cur + ticks) % WHEEL_SLOTS;
        self.slots[slot].push(token);
    }

    /// Collect hint tokens from every slot that has come due.
    pub fn advance(&mut self, now: Instant, due: &mut Vec<u64>) {
        let tick = Duration::from_millis(TICK_MS);
        while now.saturating_duration_since(self.last_advance) >= tick {
            self.cur = (self.cur + 1) % WHEEL_SLOTS;
            due.append(&mut self.slots[self.cur]);
            self.last_advance += tick;
        }
    }
}

fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n").map(|i| i + 4)
}

struct ParsedHead {
    request: Request,
    close: bool,
    has_body: bool,
}

fn parse_head(head: &[u8]) -> Result<ParsedHead, &'static str> {
    let text = std::str::from_utf8(head).map_err(|_| "request head is not UTF-8")?;
    let mut lines = text.split("\r\n");
    let request_line = lines.next().ok_or("empty request")?;
    let mut parts = request_line.split(' ');
    let method = parts.next().ok_or("missing method")?.to_string();
    let target = parts.next().ok_or("missing request target")?;
    let version = parts.next().ok_or("missing HTTP version")?;
    if parts.next().is_some() || !version.starts_with("HTTP/1.") {
        return Err("malformed request line");
    }

    let mut close = version == "HTTP/1.0";
    let mut has_body = false;
    for line in lines {
        if line.is_empty() {
            break;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err("malformed header line");
        };
        let value = value.trim();
        if name.eq_ignore_ascii_case("connection") {
            if value.eq_ignore_ascii_case("close") {
                close = true;
            } else if value.eq_ignore_ascii_case("keep-alive") {
                close = false;
            }
        } else if name.eq_ignore_ascii_case("content-length") {
            has_body = value.parse::<u64>().map_err(|_| "bad content-length")? > 0;
        } else if name.eq_ignore_ascii_case("transfer-encoding") {
            has_body = true;
        }
    }

    let (raw_path, raw_query) = match target.split_once('?') {
        Some((p, q)) => (p, Some(q)),
        None => (target, None),
    };
    let path = percent_decode(raw_path).ok_or("bad percent-encoding in path")?;
    let mut query = Vec::new();
    if let Some(raw_query) = raw_query {
        for pair in raw_query.split('&').filter(|p| !p.is_empty()) {
            let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
            let k = percent_decode(k).ok_or("bad percent-encoding in query")?;
            let v = percent_decode(v).ok_or("bad percent-encoding in query")?;
            query.push((k, v));
        }
    }
    Ok(ParsedHead {
        request: Request {
            method,
            path,
            query,
        },
        close,
        has_body,
    })
}

/// Decode `%XX` and `+` (space). Returns `None` on truncated or
/// non-UTF-8 escapes.
fn percent_decode(s: &str) -> Option<String> {
    if !s.contains('%') && !s.contains('+') {
        return Some(s.to_string());
    }
    let bytes = s.as_bytes();
    let mut out: Vec<u8> = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'%' => {
                let hex = bytes.get(i + 1..i + 3)?;
                let hex = std::str::from_utf8(hex).ok()?;
                out.push(u8::from_str_radix(hex, 16).ok()?);
                i += 3;
            }
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8(out).ok()
}

fn status_reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        431 => "Request Header Fields Too Large",
        503 => "Service Unavailable",
        _ => "Internal Server Error",
    }
}

/// Append the response's wire bytes.
pub(super) fn encode_response(
    out: &mut Vec<u8>,
    response: &Response,
    head_only: bool,
    close: bool,
) {
    // One reservation for the head (about 100 bytes) and the body.
    out.reserve(128 + response.body.len());
    let mut digits = [0; 20];
    out.extend_from_slice(b"HTTP/1.1 ");
    out.extend_from_slice(u64_digits(response.status.into(), &mut digits));
    out.push(b' ');
    out.extend_from_slice(status_reason(response.status).as_bytes());
    out.extend_from_slice(b"\r\nContent-Type: ");
    out.extend_from_slice(response.content_type.as_bytes());
    out.extend_from_slice(b"\r\nContent-Length: ");
    out.extend_from_slice(u64_digits(response.body.len() as u64, &mut digits));
    out.extend_from_slice(if close {
        b"\r\nConnection: close\r\n\r\n".as_slice()
    } else {
        b"\r\nConnection: keep-alive\r\n\r\n".as_slice()
    });
    if !head_only {
        out.extend_from_slice(response.body.as_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::TestRng;
    use std::collections::HashMap;
    use std::sync::{Mutex, Once};

    #[test]
    fn percent_decoding() {
        assert_eq!(percent_decode("plain").unwrap(), "plain");
        assert_eq!(percent_decode("a%3Ab+c").unwrap(), "a:b c");
        assert!(percent_decode("bad%2").is_none());
        assert!(percent_decode("bad%zz").is_none());
    }

    #[test]
    fn head_parsing() {
        let head = b"GET /v1/class/5?x=1&y=a%20b HTTP/1.1\r\nHost: h\r\nConnection: close\r\n\r\n";
        let parsed = parse_head(head).unwrap();
        assert_eq!(parsed.request.method, "GET");
        assert_eq!(parsed.request.path, "/v1/class/5");
        assert_eq!(parsed.request.param("x"), Some("1"));
        assert_eq!(parsed.request.param("y"), Some("a b"));
        assert!(parsed.close);
        assert!(!parsed.has_body);

        assert!(parse_head(b"GARBAGE\r\n\r\n").is_err());
        assert!(parse_head(b"GET / HTTP/2\r\n\r\n").is_err());
        let body = parse_head(b"POST / HTTP/1.1\r\nContent-Length: 3\r\n\r\n").unwrap();
        assert!(body.has_body);
    }

    #[test]
    fn head_end_detection() {
        assert_eq!(find_head_end(b"a\r\n\r\nrest"), Some(5));
        assert_eq!(find_head_end(b"partial\r\n"), None);
    }

    #[test]
    fn wheel_fires_due_slots_lazily() {
        let t0 = Instant::now();
        let mut wheel = Wheel::new(t0);
        wheel.schedule(7, t0 + Duration::from_millis(150), t0);
        let mut due = Vec::new();
        wheel.advance(t0 + Duration::from_millis(100), &mut due);
        assert!(due.is_empty());
        wheel.advance(t0 + Duration::from_millis(300), &mut due);
        assert_eq!(due, vec![7]);
    }

    // ---- the core against a sequential reference model ----------------

    const PANIC: &str = "scripted handler panic";
    const MAX_HEAD: usize = 256;
    const BUDGET: usize = 4;
    const PARK_MS: u64 = 25;

    fn limits() -> HttpConfig {
        HttpConfig {
            max_request_bytes: MAX_HEAD,
            max_keepalive_requests: BUDGET,
            read_timeout: Duration::from_millis(60),
            head_deadline: Duration::from_millis(30),
            ..HttpConfig::default()
        }
    }

    /// One request of a client's script.
    #[derive(Debug, Clone, Copy)]
    enum Req {
        /// Parked by `poll` `parks` times, then answered (or panics).
        Get {
            head: bool,
            parks: u32,
            panic: bool,
            close: bool,
        },
        Post,
        WithBody,
        NonUtf8,
        /// A head past `MAX_HEAD` with no end; always last.
        Oversized,
    }

    /// Parks each request `parks=` times, counting polls by path, then
    /// answers with the path (or panics when `panic=1`). Its final
    /// answer (`handle`) is the same response.
    #[derive(Default)]
    struct Scripted {
        polls: Mutex<HashMap<String, u32>>,
    }

    impl Scripted {
        fn parks(request: &Request) -> u32 {
            request.param("parks").unwrap().parse().unwrap()
        }

        /// The next `poll` of this request answers it.
        fn ready(&self, request: &Request) -> bool {
            self.polls
                .lock()
                .unwrap()
                .get(&request.path)
                .copied()
                .unwrap_or(0)
                >= Self::parks(request)
        }
    }

    impl Handler for Scripted {
        fn handle(&self, request: &Request) -> Response {
            if request.param("panic") == Some("1") {
                std::panic::panic_any(PANIC);
            }
            Response::text(request.path.clone())
        }

        fn poll(&self, request: &Request) -> Dispatch {
            let mut polls = self.polls.lock().unwrap();
            let n = polls.entry(request.path.clone()).or_insert(0);
            *n += 1;
            if *n <= Self::parks(request) {
                return Dispatch::Park { wait_ms: PARK_MS };
            }
            drop(polls);
            Dispatch::Ready(self.handle(request))
        }
    }

    /// Keep the scripted panics out of the test output; any other panic
    /// still reaches the previous hook.
    fn quiet_scripted_panics() {
        static ONCE: Once = Once::new();
        ONCE.call_once(|| {
            let prev = std::panic::take_hook();
            std::panic::set_hook(Box::new(move |info| {
                if info.payload().downcast_ref::<&str>() != Some(&PANIC) {
                    prev(info)
                }
            }));
        });
    }

    /// Path lengths differ by request so even HEAD answers (no body) and
    /// 500s tell a duplicate from the next request's answer.
    fn path(c: usize, i: usize) -> String {
        format!("/c{c}/{}", "r".repeat(i + 1))
    }

    fn request_bytes(c: usize, i: usize, req: Req) -> Vec<u8> {
        match req {
            Req::Get {
                head,
                parks,
                panic,
                close,
            } => format!(
                "{} {}?parks={parks}&panic={} HTTP/1.1\r\nHost: t\r\n{}\r\n",
                if head { "HEAD" } else { "GET" },
                path(c, i),
                u8::from(panic),
                if close { "Connection: close\r\n" } else { "" },
            )
            .into_bytes(),
            Req::Post => format!("POST {} HTTP/1.1\r\n\r\n", path(c, i)).into_bytes(),
            Req::WithBody => b"GET /b HTTP/1.1\r\nContent-Length: 3\r\n\r\n".to_vec(),
            Req::NonUtf8 => b"GET /\xff HTTP/1.1\r\n\r\n".to_vec(),
            Req::Oversized => vec![b'a'; MAX_HEAD + 10],
        }
    }

    /// One answer of the reference: its wire bytes, the bytes of the
    /// same answer given at shutdown, and whether it ends the connection.
    struct Expect {
        wire: Vec<u8>,
        at_shutdown: Vec<u8>,
        closes: bool,
    }

    fn encoded(response: &Response, head_only: bool, close: bool) -> Vec<u8> {
        let mut out = Vec::new();
        encode_response(&mut out, response, head_only, close);
        out
    }

    /// The sequential reference: the answers a client that sends its
    /// whole script and reads everything gets, in request order, up to
    /// and including the one that closes the connection.
    fn reference(c: usize, script: &[Req]) -> Vec<Expect> {
        let mut expect = Vec::new();
        for (i, &req) in script.iter().enumerate() {
            let (response, head_only, close) = match req {
                Req::Get {
                    head, panic, close, ..
                } => {
                    let response = if panic {
                        Response::error(500, "internal handler panic")
                    } else {
                        Response::text(path(c, i))
                    };
                    (response, head, close || i + 1 >= BUDGET)
                }
                Req::Post => (
                    Response::error(405, "only GET and HEAD are served"),
                    false,
                    true,
                ),
                Req::WithBody => (
                    Response::error(400, "request bodies are not accepted"),
                    false,
                    true,
                ),
                Req::NonUtf8 => (
                    Response::error(400, "request head is not UTF-8"),
                    false,
                    true,
                ),
                Req::Oversized => (Response::error(431, "request head too large"), false, true),
            };
            expect.push(Expect {
                wire: encoded(&response, head_only, close),
                at_shutdown: encoded(&response, head_only, true),
                closes: close,
            });
            if close {
                break;
            }
        }
        expect
    }

    /// One simulated client and the core serving it.
    struct Client {
        conn: Conn,
        expect: Vec<Expect>,
        wire: Vec<u8>,
        sent: usize,
        got: Vec<u8>,
        closed: bool,
        parked: i64,
        /// Wheel hints not yet fired.
        hints: Vec<Instant>,
        eof: bool,
        reset: bool,
        shutdown: bool,
        idle_reaped: bool,
        head_timed_out: bool,
    }

    impl Client {
        /// Anything that lets the connection end before its script does.
        fn cut_short(&self) -> bool {
            self.eof || self.reset || self.shutdown || self.idle_reaped || self.head_timed_out
        }

        /// Feed one input and check what the core may emit.
        fn step(&mut self, input: Input<'_>, now: Instant, handler: &Scripted, ctx: &str) {
            let acts = self.conn.step(input, now, handler, &limits());
            if self.closed {
                assert_eq!(acts, Actions::default(), "{ctx}: output after close");
                return;
            }
            self.parked += acts.parked_delta;
            self.closed = acts.close;
            self.reset |= matches!(input, Input::PeerReset);
            self.idle_reaped |= acts.expired == Some(DeadlineKind::Idle);
            self.head_timed_out |= acts.expired == Some(DeadlineKind::Head);
            if let Some(at) = acts.schedule {
                self.hints.push(at);
            }
            assert_eq!(
                self.parked,
                i64::from(self.conn.is_parked()),
                "{ctx}: parked gauge"
            );
            if self.closed {
                return;
            }
            let interest = if !self.conn.queued().is_empty() {
                Interest::Write
            } else if self.conn.wants_bytes(&limits()) {
                Interest::Read
            } else {
                Interest::Hangup
            };
            assert_eq!(acts.interest, interest, "{ctx}: interest");
            if let Some((_, at)) = self.conn.deadline(&limits()) {
                assert!(
                    self.hints.iter().any(|&h| h <= at),
                    "{ctx}: deadline {at:?} has no hint"
                );
                if matches!(input, Input::Deadline) {
                    assert!(at > now, "{ctx}: a due deadline survived its hint");
                }
            }
        }

        fn send(&mut self, rng: &mut TestRng, now: Instant, handler: &Scripted, ctx: &str) -> bool {
            if self.eof
                || self.shutdown
                || self.sent == self.wire.len()
                || !self.conn.wants_bytes(&limits())
            {
                return false;
            }
            let left = self.wire.len() - self.sent;
            let len = match rng.random_range(0..3u32) {
                0 => 1,
                1 => rng.random_range(1..=left.min(40)),
                _ => left,
            };
            let chunk = self.wire[self.sent..self.sent + len].to_vec();
            // The batch rule: a read that finds nothing queued or parked
            // queues the answer of every complete request now buffered,
            // unless one of them parks or closes.
            let batch = (self.conn.queued().is_empty() && !self.conn.is_parked()).then(|| {
                let mut pending = self.conn.buf[self.conn.start..].to_vec();
                pending.extend_from_slice(&chunk);
                (self.check_output(ctx), complete_heads(&pending))
            });
            self.sent += len;
            self.step(Input::Bytes(&chunk), now, handler, ctx);
            if let Some((answered, complete)) = batch {
                if !self.closed && !self.conn.is_parked() && !self.conn.close_after_write {
                    let want: Vec<u8> = self.expect[answered..answered + complete]
                        .iter()
                        .flat_map(|e| e.wire.iter().copied())
                        .collect();
                    assert_eq!(
                        self.conn.queued(),
                        want,
                        "{ctx}: {complete} buffered requests, not all answered in one batch"
                    );
                }
            }
            true
        }

        fn write(&mut self, n: usize, now: Instant, handler: &Scripted, ctx: &str) {
            let n = n.min(self.conn.queued().len());
            if !self.closed {
                self.got.extend_from_slice(&self.conn.queued()[..n]);
            }
            self.step(Input::Wrote(n), now, handler, ctx);
        }

        fn wake(&mut self, now: Instant, handler: &Scripted, ctx: &str) {
            let ready = matches!(&self.conn.state, ConnState::Parked { request, .. } if handler.ready(request));
            self.step(Input::Wake, now, handler, ctx);
            if ready {
                assert!(
                    !self.conn.is_parked(),
                    "{ctx}: a ready request stayed parked (lost wakeup)"
                );
            }
        }

        /// Match the written bytes against the reference; returns how
        /// many answers are complete.
        fn check_output(&self, ctx: &str) -> usize {
            let timeout = encoded(&Response::error(408, "request head timed out"), false, true);
            let mut rest = &self.got[..];
            let mut answered = 0;
            for e in &self.expect {
                let variants = [
                    (Some(&e.wire), e.closes),
                    (self.shutdown.then_some(&e.at_shutdown), true),
                    (self.head_timed_out.then_some(&timeout), true),
                ];
                let Some((wire, closes)) = variants
                    .iter()
                    .find_map(|&(w, c)| w.filter(|w| rest.starts_with(w)).map(|w| (w, c)))
                else {
                    break;
                };
                rest = &rest[wire.len()..];
                answered += 1;
                if closes {
                    assert!(self.closed, "{ctx}: not closed after a closing answer");
                    break;
                }
            }
            if self.head_timed_out && rest.starts_with(&timeout) {
                rest = &rest[timeout.len()..];
            }
            let partial_ok = self.reset
                && self.expect.get(answered).is_some_and(|e| {
                    e.wire.starts_with(rest)
                        || e.at_shutdown.starts_with(rest)
                        || timeout.starts_with(rest)
                });
            assert!(
                rest.is_empty() || partial_ok,
                "{ctx}: {answered} answers match, then {:?}",
                String::from_utf8_lossy(rest)
            );
            answered
        }
    }

    /// How many complete request heads `bytes` holds.
    fn complete_heads(mut bytes: &[u8]) -> usize {
        let mut n = 0;
        while let Some(end) = find_head_end(bytes) {
            bytes = &bytes[end..];
            n += 1;
        }
        n
    }

    fn arb_script(rng: &mut TestRng) -> Vec<Req> {
        let n = rng.random_range(1..=6usize);
        let mut script: Vec<Req> = (0..n)
            .map(|_| match rng.random_range(0..10u32) {
                0 => Req::Post,
                1 => Req::WithBody,
                2 => Req::NonUtf8,
                _ => Req::Get {
                    head: rng.random_range(0..4u32) == 0,
                    parks: rng
                        .random_range(0..=2u32)
                        .saturating_sub(rng.random_range(0..=1u32)),
                    panic: rng.random_range(0..8u32) == 0,
                    close: rng.random_range(0..8u32) == 0,
                },
            })
            .collect();
        if rng.random_range(0..8u32) == 0 {
            script.push(Req::Oversized);
        }
        script
    }

    fn check_case(case: u32) {
        let rng = &mut TestRng::for_case("conn_core_model", case);
        let handler = Scripted::default();
        let t0 = Instant::now();
        let mut now = t0;
        let mut clients: Vec<Client> = (0..rng.random_range(1..=3usize))
            .map(|c| {
                let script = arb_script(rng);
                let wire = script
                    .iter()
                    .enumerate()
                    .flat_map(|(i, &r)| request_bytes(c, i, r))
                    .collect();
                let mut client = Client {
                    conn: Conn::open(now),
                    expect: reference(c, &script),
                    wire,
                    sent: 0,
                    got: Vec::new(),
                    closed: false,
                    parked: 0,
                    hints: Vec::new(),
                    eof: false,
                    reset: false,
                    shutdown: false,
                    idle_reaped: false,
                    head_timed_out: false,
                };
                // The driver's first hint arms the idle deadline.
                client.step(Input::Deadline, now, &handler, "open");
                client
            })
            .collect();

        // Random interleavings of readiness, time, wakes and shutdown.
        for op in 0..rng.random_range(20..200u32) {
            let c = rng.random_range(0..clients.len());
            let ctx = format!("case {case} op {op} conn {c}");
            let cl = &mut clients[c];
            match rng.random_range(0..100u32) {
                0..=34 => {
                    cl.send(rng, now, &handler, &ctx);
                }
                35..=59 => {
                    let n = rng.random_range(0..=cl.conn.queued().len());
                    cl.write(n, now, &handler, &ctx);
                }
                60..=71 => now += Duration::from_millis(rng.random_range(0..=40u64)),
                72..=83 => {
                    // The wheel fires a hint: due ones, or a stale one.
                    cl.hints.retain(|&h| h > now);
                    cl.step(Input::Deadline, now, &handler, &ctx);
                }
                84..=93 => {
                    for cl in clients.iter_mut() {
                        cl.wake(now, &handler, &ctx);
                    }
                }
                94..=95 => {
                    cl.eof = true;
                    cl.step(Input::Eof, now, &handler, &ctx);
                }
                96..=97 => cl.step(Input::PeerReset, now, &handler, &ctx),
                _ => {
                    for cl in clients.iter_mut() {
                        cl.shutdown = true;
                        cl.step(Input::Shutdown, now, &handler, &ctx);
                    }
                }
            }
        }

        // Then the clients send the rest and read everything, with no
        // more time passing: every answer the reference promises arrives.
        for round in 0..10_000 {
            let ctx = format!("case {case} drain round {round}");
            let mut progress = false;
            for cl in clients.iter_mut().filter(|cl| !cl.closed) {
                progress |= if !cl.conn.queued().is_empty() {
                    let n = rng.random_range(1..=cl.conn.queued().len());
                    cl.write(n, now, &handler, &ctx);
                    true
                } else if cl.conn.is_parked() {
                    cl.wake(now, &handler, &ctx);
                    true
                } else {
                    cl.send(rng, now, &handler, &ctx)
                };
            }
            if !progress {
                break;
            }
        }
        for (c, cl) in clients.iter().enumerate() {
            let ctx = format!("case {case} conn {c}");
            let answered = cl.check_output(&ctx);
            if !cl.cut_short() {
                assert_eq!(answered, cl.expect.len(), "{ctx}: answers missing");
                assert_eq!(
                    cl.closed,
                    cl.expect.last().is_some_and(|e| e.closes),
                    "{ctx}: close"
                );
            }
        }

        // Shutdown closes whatever is left; the gauges net to zero.
        for cl in clients.iter_mut() {
            cl.shutdown = true;
            cl.step(Input::Shutdown, now, &handler, "final shutdown");
            while !cl.closed {
                let n = cl.conn.queued().len();
                assert!(
                    n > 0,
                    "case {case}: an open connection with nothing to do at shutdown"
                );
                cl.write(n, now, &handler, "final flush");
            }
        }
        let parked: i64 = clients.iter().map(|cl| cl.parked).sum();
        assert_eq!(parked, 0, "case {case}: parked gauge");
        assert!(
            clients.iter().all(|cl| cl.closed),
            "case {case}: open count"
        );
    }

    fn check_cases(cases: u32) {
        quiet_scripted_panics();
        for case in 0..cases {
            check_case(case);
        }
    }

    #[test]
    fn the_core_matches_the_sequential_model() {
        check_cases(64);
    }

    #[test]
    #[ignore = "long: run with --release -- --ignored"]
    fn the_core_matches_the_sequential_model_at_length() {
        check_cases(2_000);
    }

    // ---- the batch rule, case by case ----------------------------------

    /// A pipelined `GET` that `Scripted` answers with its path, or parks
    /// once when `parks` is 1.
    fn get(path: &str, parks: u32, close: bool) -> String {
        let close = if close { "Connection: close\r\n" } else { "" };
        format!("GET {path}?parks={parks} HTTP/1.1\r\nHost: t\r\n{close}\r\n")
    }

    #[test]
    fn a_pipelined_batch_leaves_in_one_write() {
        let (handler, limits, t0) = (Scripted::default(), HttpConfig::default(), Instant::now());
        let mut conn = Conn::open(t0);
        let paths: Vec<String> = (0..16).map(|i| format!("/p{i}")).collect();
        let wire: String = paths.iter().map(|p| get(p, 0, false)).collect();
        let acts = conn.step(Input::Bytes(wire.as_bytes()), t0, &handler, &limits);
        assert_eq!(acts.interest, Interest::Write);
        let want: Vec<u8> = paths
            .iter()
            .flat_map(|p| encoded(&Response::text(p.clone()), false, false))
            .collect();
        assert_eq!(
            String::from_utf8_lossy(conn.queued()),
            String::from_utf8_lossy(&want)
        );
        let acts = conn.step(Input::Wrote(want.len()), t0, &handler, &limits);
        assert_eq!(acts.interest, Interest::Read);
        assert!(conn.queued().is_empty());
    }

    #[test]
    fn a_batch_stops_at_its_byte_bound() {
        const BODY: usize = 40 * 1024;
        let handler = |_: &Request| Response::text("x".repeat(BODY));
        let (limits, t0) = (HttpConfig::default(), Instant::now());
        let answer = encoded(&Response::text("x".repeat(BODY)), false, false);
        let mut conn = Conn::open(t0);
        let wire: String = (0..8).map(|i| get(&format!("/{i}"), 0, false)).collect();
        let mut input = Input::Bytes(wire.as_bytes());
        let (mut got, mut writes) = (0, 0);
        loop {
            conn.step(input, t0, &handler, &limits);
            let n = conn.queued().len();
            if n == 0 {
                break;
            }
            assert!(n <= MAX_BATCH_BYTES + answer.len(), "{n} bytes queued");
            assert!(conn.queued().chunks(answer.len()).all(|a| a == answer));
            got += n;
            writes += 1;
            input = Input::Wrote(n);
        }
        assert_eq!(got, 8 * answer.len());
        // Two 40 KiB answers reach the bound: four writes, not eight or one.
        assert_eq!(writes, 4);
    }

    #[test]
    fn a_closing_answer_ends_the_batch() {
        let (handler, limits, t0) = (Scripted::default(), HttpConfig::default(), Instant::now());
        let mut conn = Conn::open(t0);
        let wire: String = (0..5).map(|i| get(&format!("/{i}"), 0, i == 2)).collect();
        let acts = conn.step(Input::Bytes(wire.as_bytes()), t0, &handler, &limits);
        assert_eq!(acts.interest, Interest::Write);
        let want: Vec<u8> = (0..3)
            .flat_map(|i| encoded(&Response::text(format!("/{i}")), false, i == 2))
            .collect();
        assert_eq!(conn.queued(), want);
        let acts = conn.step(Input::Wrote(want.len()), t0, &handler, &limits);
        assert!(acts.close);
    }

    #[test]
    fn eof_behind_queued_answers_flushes_them_before_abandoning_a_park() {
        let (handler, limits, t0) = (Scripted::default(), HttpConfig::default(), Instant::now());
        let mut conn = Conn::open(t0);
        let wire = get("/ready", 0, false) + &get("/parks", 1, false);
        let acts = conn.step(Input::Bytes(wire.as_bytes()), t0, &handler, &limits);
        assert_eq!((acts.interest, acts.parked_delta), (Interest::Write, 1));
        assert!(conn.is_parked());
        let want = encoded(&Response::text("/ready".into()), false, false);
        assert_eq!(conn.queued(), want);

        let acts = conn.step(Input::Eof, t0, &handler, &limits);
        assert!(!acts.close, "closed with an answer still queued");
        assert_eq!(acts.interest, Interest::Write);
        let mut got = Vec::new();
        for n in [want.len() / 2, want.len() - want.len() / 2] {
            got.extend_from_slice(&conn.queued()[..n]);
            let acts = conn.step(Input::Wrote(n), t0, &handler, &limits);
            assert_eq!(acts.close, got.len() == want.len());
            assert_eq!(acts.parked_delta, if acts.close { -1 } else { 0 });
        }
        assert_eq!(got, want);
    }

    #[test]
    fn a_trickled_head_is_scanned_once() {
        let handler = |_: &Request| Response::text("ok".into());
        let (limits, t0) = (HttpConfig::default(), Instant::now());
        let mut head = b"GET / HTTP/1.1\r\nX-Pad: ".to_vec();
        head.resize(8187 - 4, b'a');
        head.extend_from_slice(b"\r\n\r\n");
        let mut conn = Conn::open(t0);
        for byte in head.chunks(1) {
            assert!(conn.queued().is_empty(), "answered before the head ended");
            conn.step(Input::Bytes(byte), t0, &handler, &limits);
        }
        assert_eq!(
            conn.queued(),
            encoded(&Response::text("ok".into()), false, false)
        );
        assert!(
            conn.head_scan_bytes <= 4 * head.len(),
            "{} bytes examined for a {}-byte head",
            conn.head_scan_bytes,
            head.len()
        );
    }
}
