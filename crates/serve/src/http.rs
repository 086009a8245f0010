//! A nonblocking, readiness-driven HTTP/1.1 server on raw `epoll`.
//!
//! Deliberately narrow: `GET`/`HEAD` only, no TLS, no chunked bodies, no
//! routing DSL — the workspace's sanctioned dependency set has no async
//! runtime or HTTP crate, and the query API needs none of that. What it
//! does provide is the part that matters for a serving daemon at
//! operator scale:
//!
//! * **reactor threads** — `workers` OS threads, each owning a private
//!   `epoll` instance and a slab of nonblocking connections; the shared
//!   listener is registered `EPOLLEXCLUSIVE` in every reactor so the
//!   kernel wakes exactly one for each pending accept. An idle
//!   keep-alive connection costs a slab slot and a kernel fd — bytes,
//!   not a parked thread — so tens of thousands can stay open;
//! * **one I/O-free connection state machine** — `conn::Conn` (idle /
//!   reading-head / writing / parked long-poll) moves by one transition
//!   that the epoll driver in this file feeds and applies; pipelined
//!   requests are answered in order from the residual read buffer and
//!   leave in one write (a batch stops at an answer that closes, at a
//!   request that parks, and once 64 KiB are queued);
//! * **budgets and backpressure** — a global connection budget
//!   ([`HttpConfig::max_connections`]); at budget the overflow
//!   connection is shed with a `503` and the listener is paused until
//!   the next timer tick, so overload degrades crisply instead of
//!   accumulating threads;
//! * **deadline wheel** — a coarse lazy timer wheel enforces the idle
//!   reap deadline ([`HttpConfig::read_timeout`]), a total per-request
//!   head deadline ([`HttpConfig::head_deadline`], the anti-slowloris
//!   budget: trickling one header byte at a time no longer buys a
//!   stalled client unbounded server time), and long-poll expiry;
//! * **long-poll parking** — a handler may return
//!   [`Dispatch::Park`] instead of a response; the connection then
//!   waits — costing no thread — until a [`TransportWaker`] fires
//!   (a new epoch was published), its deadline lapses, or the server
//!   shuts down, and in every case receives exactly one response;
//! * **bounded parsing** — request head capped at
//!   [`HttpConfig::max_request_bytes`] (431 beyond that), bodies
//!   rejected (the API is read-only).

use obs::ObsRegistry;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

mod conn;

use conn::{encode_response, Actions, Conn, DeadlineKind, Input, Interest, Wheel, TICK_MS};

/// Minimal FFI bindings for `epoll(7)` and a self-pipe, in the style of
/// the `signal(2)` binding in [`crate::shutdown`]: the workspace has no
/// `libc` crate, and `std` exposes no readiness API, so the four
/// syscalls the reactor needs are declared here directly.
mod sys {
    use std::fs::File;
    use std::io::{self, Read, Write};
    use std::os::fd::{FromRawFd, OwnedFd, RawFd};

    pub const EPOLLIN: u32 = 0x001;
    pub const EPOLLOUT: u32 = 0x004;
    pub const EPOLLERR: u32 = 0x008;
    pub const EPOLLHUP: u32 = 0x010;
    pub const EPOLLRDHUP: u32 = 0x2000;
    /// Wake one epoll instance per listener readiness event instead of
    /// every reactor (avoids accept thundering herd).
    pub const EPOLLEXCLUSIVE: u32 = 1 << 28;

    pub const EPOLL_CTL_ADD: i32 = 1;
    pub const EPOLL_CTL_DEL: i32 = 2;
    pub const EPOLL_CTL_MOD: i32 = 3;

    const EPOLL_CLOEXEC: i32 = 0o2000000;
    const O_CLOEXEC: i32 = 0o2000000;
    const O_NONBLOCK: i32 = 0o4000;

    /// `struct epoll_event`. On x86-64 the kernel ABI packs the struct
    /// (no padding between `events` and `data`); elsewhere it is
    /// naturally aligned.
    #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
    #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        pub events: u32,
        pub token: u64,
    }

    extern "C" {
        fn epoll_create1(flags: i32) -> i32;
        fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout_ms: i32) -> i32;
        fn pipe2(pipefd: *mut i32, flags: i32) -> i32;
    }

    fn cvt(ret: i32) -> io::Result<i32> {
        if ret < 0 {
            Err(io::Error::last_os_error())
        } else {
            Ok(ret)
        }
    }

    /// An owned epoll instance.
    #[derive(Debug)]
    pub struct Epoll {
        fd: OwnedFd,
    }

    impl Epoll {
        pub fn new() -> io::Result<Epoll> {
            let fd = cvt(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
            Ok(Epoll {
                fd: unsafe { OwnedFd::from_raw_fd(fd) },
            })
        }

        fn ctl(&self, op: i32, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
            use std::os::fd::AsRawFd;
            let mut ev = EpollEvent { events, token };
            cvt(unsafe { epoll_ctl(self.fd.as_raw_fd(), op, fd, &mut ev) })?;
            Ok(())
        }

        pub fn add(&self, fd: RawFd, token: u64, events: u32) -> io::Result<()> {
            self.ctl(EPOLL_CTL_ADD, fd, events, token)
        }

        pub fn modify(&self, fd: RawFd, token: u64, events: u32) -> io::Result<()> {
            self.ctl(EPOLL_CTL_MOD, fd, events, token)
        }

        pub fn del(&self, fd: RawFd) -> io::Result<()> {
            // A dummy event keeps pre-2.6.9 kernel semantics happy.
            self.ctl(EPOLL_CTL_DEL, fd, 0, 0)
        }

        /// Wait for readiness; returns the number of events filled into
        /// `events`. A negative return with `EINTR` is surfaced as
        /// `Ok(0)` — the caller's loop re-enters the wait anyway.
        pub fn wait(&self, events: &mut [EpollEvent], timeout_ms: i32) -> io::Result<usize> {
            use std::os::fd::AsRawFd;
            let n = unsafe {
                epoll_wait(
                    self.fd.as_raw_fd(),
                    events.as_mut_ptr(),
                    events.len() as i32,
                    timeout_ms,
                )
            };
            if n < 0 {
                let err = io::Error::last_os_error();
                if err.kind() == io::ErrorKind::Interrupted {
                    return Ok(0);
                }
                return Err(err);
            }
            Ok(n as usize)
        }
    }

    /// Nonblocking self-pipe: the write end wakes a reactor blocked in
    /// `epoll_wait`, the read end drains pending wake bytes.
    pub fn wake_pipe() -> io::Result<(WakeTx, WakeRx)> {
        let mut fds = [0i32; 2];
        cvt(unsafe { pipe2(fds.as_mut_ptr(), O_CLOEXEC | O_NONBLOCK) })?;
        let rx = unsafe { File::from_raw_fd(fds[0]) };
        let tx = unsafe { File::from_raw_fd(fds[1]) };
        Ok((WakeTx(tx), WakeRx(rx)))
    }

    /// Write end of a reactor's wake pipe.
    #[derive(Debug)]
    pub struct WakeTx(File);

    impl WakeTx {
        /// Best-effort wake: a full pipe already implies a pending
        /// wake, so `EAGAIN` is success.
        pub fn wake(&self) {
            let _ = (&self.0).write(&[1u8]);
        }
    }

    /// Read end of a reactor's wake pipe.
    #[derive(Debug)]
    pub struct WakeRx(File);

    impl WakeRx {
        pub fn drain(&self) {
            let mut buf = [0u8; 64];
            while matches!((&self.0).read(&mut buf), Ok(n) if n > 0) {}
        }
    }

    impl std::os::fd::AsRawFd for WakeRx {
        fn as_raw_fd(&self) -> RawFd {
            self.0.as_raw_fd()
        }
    }
}

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct HttpConfig {
    /// Bind address, e.g. `127.0.0.1:7179` (port 0 picks an ephemeral
    /// port — see [`HttpServer::local_addr`]).
    pub addr: String,
    /// Reactor (event-loop) threads. Each owns one epoll instance;
    /// connections are balanced across reactors by the kernel at
    /// accept time. They do not bound concurrent connections — see
    /// `max_connections`.
    pub workers: usize,
    /// Maximum bytes of request head (request line + headers).
    pub max_request_bytes: usize,
    /// Requests served per connection before the server closes it.
    pub max_keepalive_requests: usize,
    /// Idle-reap deadline: a keep-alive connection with no request in
    /// flight for this long is closed.
    pub read_timeout: Duration,
    /// Global concurrent-connection budget across all reactors. At
    /// budget, the overflow connection is shed with a `503` and accept
    /// is paused until connections close.
    pub max_connections: usize,
    /// Total budget for reading one request head. A client trickling
    /// header bytes (slowloris) is answered `408` and closed when the
    /// head has been incomplete for this long.
    pub head_deadline: Duration,
    /// Where the reactors record their connection gauges and counters:
    /// the daemon's registry. The default is a fresh private one.
    pub registry: Arc<ObsRegistry>,
}

impl Default for HttpConfig {
    fn default() -> Self {
        HttpConfig {
            addr: "127.0.0.1:7179".to_string(),
            workers: 4,
            max_request_bytes: 8 * 1024,
            max_keepalive_requests: 10_000,
            read_timeout: Duration::from_secs(30),
            max_connections: 16_384,
            head_deadline: Duration::from_secs(10),
            registry: Arc::default(),
        }
    }
}

/// A parsed request line + the headers the server acts on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// `GET` or `HEAD` (anything else is rejected before dispatch).
    pub method: String,
    /// Percent-decoded path, e.g. `/v1/class/3356`.
    pub path: String,
    /// Decoded `key=value` pairs from the query string, in order.
    pub query: Vec<(String, String)>,
}

impl Request {
    /// First value of a query parameter.
    pub fn param(&self, name: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }
}

/// A response the handler hands back to the transport.
#[derive(Debug, Clone)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Body bytes (suppressed on HEAD; `Content-Length` always sent).
    pub body: String,
}

impl Response {
    /// 200 with a JSON body.
    pub fn json(body: String) -> Self {
        Response {
            status: 200,
            content_type: "application/json",
            body,
        }
    }

    /// Any status with a JSON body.
    pub fn json_status(status: u16, body: String) -> Self {
        Response {
            status,
            content_type: "application/json",
            body,
        }
    }

    /// 200 with a plain-text body (the Prometheus exposition format).
    pub fn text(body: String) -> Self {
        Response {
            status: 200,
            content_type: "text/plain; version=0.0.4",
            body,
        }
    }

    /// An error with a `{"error": ...}` JSON body.
    pub fn error(status: u16, message: &str) -> Self {
        let mut body = String::from("{\"error\":");
        crate::json::write_escaped(&mut body, message);
        body.push('}');
        Response::json_status(status, body)
    }
}

/// What a handler wants done with a request: answer now, or park the
/// connection and be asked again later.
#[derive(Debug)]
pub enum Dispatch {
    /// Answer immediately with this response.
    Ready(Response),
    /// Park the connection for up to `wait_ms` milliseconds. The
    /// transport re-invokes [`Handler::poll`] whenever a
    /// [`TransportWaker`] fires (the handler may park again; the
    /// original deadline stands), and invokes [`Handler::handle`] for
    /// the final answer when the deadline lapses or the server shuts
    /// down. Exactly one response reaches the client either way.
    Park {
        /// Maximum time to stay parked before the deadline answer.
        wait_ms: u64,
    },
}

/// The application layer: one immutable handler shared by all reactors.
pub trait Handler: Send + Sync + 'static {
    /// Answer one request. Infallible by contract — handlers express
    /// failures as error [`Response`]s. Also the deadline/shutdown
    /// answer for a parked request.
    fn handle(&self, request: &Request) -> Response;

    /// Dispatch one request, with the option to park it (long-poll).
    /// The default never parks.
    fn poll(&self, request: &Request) -> Dispatch {
        Dispatch::Ready(self.handle(request))
    }
}

impl<F: Fn(&Request) -> Response + Send + Sync + 'static> Handler for F {
    fn handle(&self, request: &Request) -> Response {
        self(request)
    }
}

/// Wakes every reactor so parked long-poll connections get re-polled.
/// Obtained from [`HttpServer::waker`]; typically registered with the
/// snapshot slot so each published epoch resumes waiting clients.
#[derive(Debug, Clone)]
pub struct TransportWaker {
    shared: Arc<Shared>,
}

impl TransportWaker {
    /// Wake all reactors (idempotent, lock-free, signal-safe enough
    /// for any publisher context).
    pub fn wake_all(&self) {
        for tx in &self.shared.wake_txs {
            tx.wake();
        }
    }
}

/// State shared between the server handle, its waker, and reactors.
#[derive(Debug)]
struct Shared {
    stop: AtomicBool,
    open: AtomicUsize,
    wake_txs: Vec<sys::WakeTx>,
}

/// A running server; dropping it without [`shutdown`](HttpServer::shutdown)
/// detaches the reactors (they keep serving until the process exits).
#[derive(Debug)]
pub struct HttpServer {
    local_addr: SocketAddr,
    shared: Arc<Shared>,
    reactors: Vec<JoinHandle<()>>,
}

impl HttpServer {
    /// Bind and start serving on `cfg.workers` reactor threads.
    pub fn start(cfg: HttpConfig, handler: Arc<dyn Handler>) -> io::Result<HttpServer> {
        let listener = TcpListener::bind(&cfg.addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let listener = Arc::new(listener);
        let reactor_count = cfg.workers.max(1);
        let mut wake_txs = Vec::with_capacity(reactor_count);
        let mut wake_rxs = Vec::with_capacity(reactor_count);
        for _ in 0..reactor_count {
            let (tx, rx) = sys::wake_pipe()?;
            wake_txs.push(tx);
            wake_rxs.push(rx);
        }
        let shared = Arc::new(Shared {
            stop: AtomicBool::new(false),
            open: AtomicUsize::new(0),
            wake_txs,
        });
        let reactors = wake_rxs
            .into_iter()
            .enumerate()
            .map(|(i, wake_rx)| {
                let listener = Arc::clone(&listener);
                let shared = Arc::clone(&shared);
                let handler = Arc::clone(&handler);
                let cfg = cfg.clone();
                std::thread::Builder::new()
                    .name(format!("bgp-serve-reactor-{i}"))
                    .spawn(
                        move || match Reactor::new(listener, wake_rx, shared, handler, cfg) {
                            Ok(mut reactor) => reactor.run(),
                            Err(e) => obs::error!("http", "reactor {i} failed to start: {e}"),
                        },
                    )
                    .expect("spawn http reactor")
            })
            .collect();
        Ok(HttpServer {
            local_addr,
            shared,
            reactors,
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Connections currently open across all reactors.
    pub fn open_connections(&self) -> usize {
        self.shared.open.load(Ordering::Relaxed)
    }

    /// A cheap clonable handle that wakes every reactor — wire it to
    /// the snapshot publisher so parked long-pollers resume the moment
    /// a new epoch lands.
    pub fn waker(&self) -> TransportWaker {
        TransportWaker {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Stop accepting, wake the reactors, and join them. In-flight
    /// responses are flushed; parked long-pollers receive their
    /// deadline answer and a clean close; idle keep-alive connections
    /// are dropped. A reactor gives its flushes 500 ms in all.
    pub fn shutdown(self) {
        self.shared.stop.store(true, Ordering::Release);
        for tx in &self.shared.wake_txs {
            tx.wake();
        }
        for r in self.reactors {
            let _ = r.join();
        }
    }
}

const TOKEN_LISTENER: u64 = u64::MAX;
const TOKEN_WAKE: u64 = u64::MAX - 1;

const INTEREST_READ: u32 = sys::EPOLLIN | sys::EPOLLRDHUP;
/// Room to write, alone. A peer's half-close is not news to a writing
/// connection — it reads EOF once the answer is out — and epoll is level-
/// triggered, so `EPOLLRDHUP` here would wake the reactor every iteration
/// until the write drains. A peer that goes away entirely still shows as
/// `EPOLLERR` / `EPOLLHUP`, which epoll always reports.
const INTEREST_WRITE: u32 = sys::EPOLLOUT;

/// Budget for flushing every in-flight and parked answer at shutdown,
/// shared by all of one reactor's connections so a stalled reader
/// cannot hold up the exit.
const SHUTDOWN_FLUSH: Duration = Duration::from_millis(500);

/// Connection slab: stable tokens, O(1) insert/remove, free-list reuse.
#[derive(Debug)]
struct Slab<T> {
    entries: Vec<Option<T>>,
    free: Vec<usize>,
}

impl<T> Slab<T> {
    fn insert(&mut self, entry: T) -> u64 {
        match self.free.pop() {
            Some(i) => {
                self.entries[i] = Some(entry);
                i as u64
            }
            None => {
                self.entries.push(Some(entry));
                (self.entries.len() - 1) as u64
            }
        }
    }

    fn get_mut(&mut self, token: u64) -> Option<&mut T> {
        self.entries.get_mut(token as usize)?.as_mut()
    }

    fn remove(&mut self, token: u64) -> Option<T> {
        let entry = self.entries.get_mut(token as usize)?.take();
        if entry.is_some() {
            self.free.push(token as usize);
        }
        entry
    }

    fn tokens(&self, keep: impl Fn(&T) -> bool) -> Vec<u64> {
        self.entries
            .iter()
            .enumerate()
            .filter(|(_, e)| e.as_ref().is_some_and(&keep))
            .map(|(i, _)| i as u64)
            .collect()
    }
}

/// A connection's socket, its registered readiness, and its protocol
/// state.
#[derive(Debug)]
struct Socket {
    stream: TcpStream,
    interest: u32,
    conn: Conn,
}

/// Instruments shared by all reactors, on [`HttpConfig::registry`] (the
/// gauges are moved by deltas, so the reactors' shares sum to the
/// server's totals).
struct Gauges {
    open: Arc<obs::Gauge>,
    parked: Arc<obs::Gauge>,
    accepts: Arc<obs::Counter>,
    sheds: Arc<obs::Counter>,
    idle_reaps: Arc<obs::Counter>,
    head_timeouts: Arc<obs::Counter>,
    panics: Arc<obs::Counter>,
    loop_hist: Arc<obs::Histogram>,
}

impl Gauges {
    fn new(reg: &ObsRegistry) -> Gauges {
        Gauges {
            open: reg.gauge(
                "bgp_http_open_connections",
                "HTTP connections currently open across all reactors",
                &[],
            ),
            parked: reg.gauge(
                "bgp_http_parked_waiters",
                "Long-poll connections currently parked awaiting an epoch",
                &[],
            ),
            accepts: reg.counter(
                "bgp_http_accepts_total",
                "Connections accepted by the HTTP reactors",
                &[],
            ),
            sheds: reg.counter(
                "bgp_http_sheds_total",
                "Connections shed with 503 because the connection budget was exhausted",
                &[],
            ),
            idle_reaps: reg.counter(
                "bgp_http_idle_reaps_total",
                "Idle keep-alive connections reaped at the read_timeout deadline",
                &[],
            ),
            head_timeouts: reg.counter(
                "bgp_http_head_timeouts_total",
                "Connections answered 408 because a request head stayed incomplete past the head deadline",
                &[],
            ),
            panics: reg.counter(
                "bgp_serve_handler_panics_total",
                "HTTP requests whose handler panicked (served as 500)",
                &[],
            ),
            loop_hist: reg.histogram(
                "bgp_http_event_loop_duration_seconds",
                "Busy event-loop iterations: time from epoll wakeup to quiescence",
                &[],
            ),
        }
    }
}

struct Reactor {
    epoll: sys::Epoll,
    listener: Arc<TcpListener>,
    wake_rx: sys::WakeRx,
    shared: Arc<Shared>,
    handler: Arc<dyn Handler>,
    cfg: HttpConfig,
    slab: Slab<Socket>,
    wheel: Wheel,
    gauges: Gauges,
    /// While accept is paused, the earliest instant it may resume.
    resume_accept_at: Option<Instant>,
}

impl Reactor {
    fn new(
        listener: Arc<TcpListener>,
        wake_rx: sys::WakeRx,
        shared: Arc<Shared>,
        handler: Arc<dyn Handler>,
        cfg: HttpConfig,
    ) -> io::Result<Reactor> {
        let epoll = sys::Epoll::new()?;
        epoll.add(
            listener.as_raw_fd(),
            TOKEN_LISTENER,
            sys::EPOLLIN | sys::EPOLLEXCLUSIVE,
        )?;
        epoll.add(wake_rx.as_raw_fd(), TOKEN_WAKE, sys::EPOLLIN)?;
        let gauges = Gauges::new(&cfg.registry);
        Ok(Reactor {
            epoll,
            listener,
            wake_rx,
            shared,
            handler,
            cfg,
            slab: Slab {
                entries: Vec::new(),
                free: Vec::new(),
            },
            wheel: Wheel::new(Instant::now()),
            gauges,
            resume_accept_at: None,
        })
    }

    fn run(&mut self) {
        let mut events = [sys::EpollEvent {
            events: 0,
            token: 0,
        }; 256];
        let mut due: Vec<u64> = Vec::new();
        // Set once `stop` is seen: the instant the shutdown flush gives up.
        let mut flush_until: Option<Instant> = None;
        loop {
            // While flushing at shutdown, look at the budget every 10 ms.
            let timeout = if flush_until.is_some() { 10 } else { TICK_MS };
            let n = match self.epoll.wait(&mut events, timeout as i32) {
                Ok(n) => n,
                Err(e) => {
                    obs::error!("http", "epoll_wait failed: {e}; reactor exiting");
                    break;
                }
            };
            let now = Instant::now();
            let mut publish_wake = false;
            let mut listener_ready = false;
            for ev in &events[..n] {
                // Copy out of the (possibly packed) struct before use.
                let token = ev.token;
                let bits = ev.events;
                match token {
                    TOKEN_WAKE => {
                        self.wake_rx.drain();
                        publish_wake = true;
                    }
                    TOKEN_LISTENER => listener_ready = true,
                    _ => self.on_conn_event(token, bits, now),
                }
            }
            if flush_until.is_none() && self.shared.stop.load(Ordering::Acquire) {
                // Parked long-pollers get their final answer, responses in
                // flight finish, then every connection closes.
                self.pause_accept(now + SHUTDOWN_FLUSH);
                flush_until = Some(now + SHUTDOWN_FLUSH);
                for token in self.slab.tokens(|_| true) {
                    self.pump(token, Input::Shutdown, now);
                }
            }
            if let Some(end) = flush_until {
                if now >= end || self.slab.tokens(|_| true).is_empty() {
                    break;
                }
                continue;
            }
            if publish_wake {
                for token in self.slab.tokens(|s| s.conn.is_parked()) {
                    self.pump(token, Input::Wake, now);
                }
            }
            // Accept last so a slab slot freed this iteration is never
            // reused while stale events for its old token are pending.
            if listener_ready {
                self.accept_ready(now);
            }
            self.wheel.advance(now, &mut due);
            for token in due.drain(..) {
                self.pump(token, Input::Deadline, now);
            }
            self.maybe_resume_accept(now);
            if n > 0 {
                self.gauges
                    .loop_hist
                    .record(now.elapsed().as_nanos() as u64);
            }
        }
        for token in self.slab.tokens(|_| true) {
            self.close(token);
        }
    }

    // ---- accept path -------------------------------------------------

    fn accept_ready(&mut self, now: Instant) {
        if self.resume_accept_at.is_some() {
            return;
        }
        loop {
            let stream = match self.listener.accept() {
                Ok((s, _)) => s,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    // EMFILE and friends: back off until the next tick
                    // instead of spinning on a hot error.
                    self.pause_accept(now + Duration::from_millis(TICK_MS));
                    break;
                }
            };
            self.gauges.accepts.inc();
            if self.shared.open.load(Ordering::Relaxed) >= self.cfg.max_connections {
                self.shed(stream);
                self.pause_accept(now);
                break;
            }
            if stream.set_nonblocking(true).is_err() || stream.set_nodelay(true).is_err() {
                continue;
            }
            let fd = stream.as_raw_fd();
            let token = self.slab.insert(Socket {
                stream,
                interest: INTEREST_READ,
                conn: Conn::open(now),
            });
            if self.epoll.add(fd, token, INTEREST_READ).is_err() {
                self.slab.remove(token);
                continue;
            }
            self.shared.open.fetch_add(1, Ordering::Relaxed);
            self.gauges.open.add(1);
            // A first hint has the core arm the idle deadline.
            self.pump(token, Input::Deadline, now);
        }
    }

    /// Best-effort 503 on the overflow connection, then drop it.
    fn shed(&mut self, mut stream: TcpStream) {
        self.gauges.sheds.inc();
        let mut out = Vec::new();
        encode_response(
            &mut out,
            &Response::error(503, "connection budget exhausted"),
            false,
            true,
        );
        let _ = stream.set_nonblocking(true);
        let _ = stream.write(&out);
    }

    /// Take the listener out of the epoll set until `resume_at` (and,
    /// as ever, until the connection budget has room).
    fn pause_accept(&mut self, resume_at: Instant) {
        if self.resume_accept_at.is_none() {
            let _ = self.epoll.del(self.listener.as_raw_fd());
            self.resume_accept_at = Some(resume_at);
        }
    }

    fn maybe_resume_accept(&mut self, now: Instant) {
        if self.resume_accept_at.is_some_and(|at| now >= at)
            && self.shared.open.load(Ordering::Relaxed) < self.cfg.max_connections
            && self
                .epoll
                .add(
                    self.listener.as_raw_fd(),
                    TOKEN_LISTENER,
                    sys::EPOLLIN | sys::EPOLLEXCLUSIVE,
                )
                .is_ok()
        {
            self.resume_accept_at = None;
        }
    }

    // ---- connection events -------------------------------------------

    fn on_conn_event(&mut self, token: u64, bits: u32, now: Instant) {
        if bits & sys::EPOLLERR != 0 {
            self.pump(token, Input::PeerReset, now);
            return;
        }
        if bits & sys::EPOLLOUT != 0 {
            // Room to write: a zero-byte `Wrote` has the core hand back
            // what is still queued.
            self.pump(token, Input::Wrote(0), now);
        }
        if bits & (sys::EPOLLIN | sys::EPOLLRDHUP | sys::EPOLLHUP) != 0 {
            self.on_readable(token, now);
        }
    }

    fn on_readable(&mut self, token: u64, now: Instant) {
        let Some(sock) = self.slab.get_mut(token) else {
            return;
        };
        if !sock.conn.wants_bytes(&self.cfg) {
            // Registered for the hang-up alone (`Interest::Hangup`): a
            // parked request is abandoned at EOF, unread bytes and all.
            if sock.conn.is_parked() {
                self.pump(token, Input::Eof, now);
            }
            return;
        }
        // One read per readiness event: the epoll registration is
        // level-triggered, so bytes left in the kernel buffer re-signal
        // on the next wait — draining to EAGAIN here would just spend an
        // extra syscall per request in the common one-request case.
        let mut chunk = [0u8; 4096];
        let input = loop {
            match (&sock.stream).read(&mut chunk) {
                Ok(0) => break Input::Eof,
                Ok(n) => break Input::Bytes(&chunk[..n]),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => break Input::PeerReset,
            }
        };
        self.pump(token, input, now);
    }

    /// Feed one input to a connection's core, apply the actions, and
    /// write what it queues — feeding each write's count back — until
    /// the socket would block, the core wants to read, or it closes.
    fn pump(&mut self, token: u64, mut input: Input<'_>, now: Instant) {
        while let Some(sock) = self.slab.get_mut(token) {
            let acts = sock.conn.step(input, now, &*self.handler, &self.cfg);
            if !self.apply(token, acts, now) {
                return;
            }
            let Some(sock) = self.slab.get_mut(token) else {
                return;
            };
            let want = match acts.interest {
                Interest::Read => INTEREST_READ,
                Interest::Hangup => sys::EPOLLRDHUP,
                Interest::Write => match (&sock.stream).write(sock.conn.queued()) {
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => INTEREST_WRITE,
                    written => {
                        input = match written {
                            Ok(n) if n > 0 => Input::Wrote(n),
                            Err(e) if e.kind() == io::ErrorKind::Interrupted => Input::Wrote(0),
                            _ => Input::PeerReset,
                        };
                        continue;
                    }
                },
            };
            if sock.interest != want
                && self
                    .epoll
                    .modify(sock.stream.as_raw_fd(), token, want)
                    .is_ok()
            {
                sock.interest = want;
            }
            return;
        }
    }

    /// Count, schedule and close as a transition says; `false` once the
    /// connection is closed.
    fn apply(&mut self, token: u64, acts: Actions, now: Instant) -> bool {
        let g = &self.gauges;
        if acts.parked_delta != 0 {
            g.parked.add(acts.parked_delta);
        }
        match acts.expired {
            Some(DeadlineKind::Idle) => g.idle_reaps.inc(),
            Some(DeadlineKind::Head) => g.head_timeouts.inc(),
            _ => {}
        }
        if acts.panics > 0 {
            g.panics.add(acts.panics);
            obs::error!("http", "request handler panicked; returning 500");
        }
        if let Some(at) = acts.schedule {
            self.wheel.schedule(token, at, now);
        }
        if acts.close {
            self.close(token);
        }
        !acts.close
    }

    fn close(&mut self, token: u64) {
        if let Some(sock) = self.slab.remove(token) {
            let _ = self.epoll.del(sock.stream.as_raw_fd());
            self.shared.open.fetch_sub(1, Ordering::Relaxed);
            self.gauges.open.add(-1);
            // `sock.stream` drops here, closing the fd.
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_responses_are_json() {
        let r = Response::error(404, "unknown \"asn\"");
        assert_eq!(r.status, 404);
        assert_eq!(r.body, r#"{"error":"unknown \"asn\""}"#);
    }

    #[test]
    fn epoll_event_layout_matches_kernel_abi() {
        // 12 bytes packed on x86_64, padded elsewhere.
        #[cfg(target_arch = "x86_64")]
        assert_eq!(std::mem::size_of::<sys::EpollEvent>(), 12);
        #[cfg(not(target_arch = "x86_64"))]
        assert_eq!(std::mem::size_of::<sys::EpollEvent>(), 16);
    }

    #[test]
    fn slab_reuses_slots() {
        let mk = || Conn::open(Instant::now());
        let mut slab = Slab {
            entries: Vec::new(),
            free: Vec::new(),
        };
        let a = slab.insert(mk());
        let b = slab.insert(mk());
        assert_ne!(a, b);
        slab.remove(a);
        let c = slab.insert(mk());
        assert_eq!(c, a);
        assert_eq!(slab.tokens(|_| true).len(), 2);
    }
}
