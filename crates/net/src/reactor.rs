//! The event loop: one thread multiplexing every connection.
//!
//! The [`Reactor`] owns the listener, the [`Poller`], the wake channel, and
//! every [`Connection`].  All socket I/O happens here; CPU work leaves
//! through [`Dispatch::dispatch`] (the label server hands it to its label
//! service's scheduler) and returns through the [`Completions`] queue
//! plus the eventfd waker.  Idle keep-alive connections therefore cost one
//! epoll registration and a parser buffer — no thread, no pool worker.
//!
//! Per-connection failures (malformed requests, mid-write disconnects,
//! handler panics) only ever close that one connection: the accept loop and
//! the other registrations are untouched, and closing a connection both
//! deregisters it and retires its token, so completions for dead
//! connections are dropped instead of reaching a stranger.

use crate::conn::{
    ConnState, Connection, OutboundResponse, ReadOutcome, ResponseBody, WriteOutcome,
};
use crate::metrics::ReactorMetrics;
use crate::parser::ParsedRequest;
use crate::poller::{Interest, Poller};
use crate::wake::{Completions, Waker};
use rf_obs::{RequestId, RequestSpan, Stage, StageHistograms, TraceRing};
use std::collections::HashMap;
use std::io;
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Token of the accept socket.
const TOKEN_LISTENER: u64 = 0;
/// Token of the wake eventfd.
const TOKEN_WAKER: u64 = 1;
/// First token handed to a connection.  Tokens increase monotonically and
/// are never reused, so a completion can never be delivered to a different
/// connection than the one that dispatched it.
const TOKEN_FIRST_CONN: u64 = 2;

/// How long `epoll_wait` sleeps between shutdown-flag checks.
const SHUTDOWN_POLL_MS: i32 = 50;

/// Application hook: called on the reactor thread with each complete
/// request.  Implementations must not block — hand the work to a pool and
/// answer through the [`Responder`], from any thread, when done.
pub trait Dispatch: Send + Sync + 'static {
    /// Handles one parsed request.  The [`Responder`] is one-shot; dropping
    /// it unanswered makes the reactor send a 500 and close, so a panicking
    /// handler can never strand its connection.
    fn dispatch(&self, request: ParsedRequest, responder: Responder);
}

/// The one-shot reply handle for a dispatched request.
#[derive(Debug)]
pub struct Responder {
    completions: Completions,
    metrics: Arc<ReactorMetrics>,
    conn_id: u64,
    keep_alive: bool,
    sent: bool,
    span: Arc<RequestSpan>,
}

impl Responder {
    /// The request's live span (`shard:seq` id plus per-stage timing slots).
    /// Handlers record worker-side stages into it from any thread; the
    /// reactor finishes it when the response flushes.
    #[must_use]
    pub fn span(&self) -> &Arc<RequestSpan> {
        &self.span
    }

    /// Whether the request's protocol version and `Connection` header allow
    /// the connection to stay open — the handler echoes this into the head
    /// it builds.
    #[must_use]
    pub fn keep_alive(&self) -> bool {
        self.keep_alive
    }

    /// Sends the response back to the reactor and wakes it.
    pub fn send(mut self, response: OutboundResponse) {
        self.sent = true;
        self.completions.complete(self.conn_id, response);
    }

    /// Refuses the request with a canned `503` + `Retry-After` — the
    /// admission-control path.  Unlike the connection-cap `503`, a shed
    /// request keeps its keep-alive connection open: the client paid for
    /// the handshake and should retry on the same socket after the hinted
    /// backoff.  Bumps the reactor's shed-request counter.
    pub fn shed(mut self, retry_after_secs: u64) {
        self.sent = true;
        self.metrics.on_shed_request();
        let keep_alive = self.keep_alive;
        self.completions
            .complete(self.conn_id, shed_response(retry_after_secs, keep_alive));
    }

    /// A clone of the reactor's waker — for belt-and-braces completion
    /// notification (e.g. `rf_runtime::Scheduler::execute_notify`), so the
    /// reactor re-checks its completion queue after every job no matter how
    /// the job ended.
    #[must_use]
    pub fn waker(&self) -> Waker {
        self.completions.waker().clone()
    }
}

impl Drop for Responder {
    fn drop(&mut self) {
        if !self.sent {
            // The handler died (panicked, or was dropped with its pool):
            // fail this connection, and only this connection, loudly.
            self.completions
                .complete(self.conn_id, internal_error_response());
        }
    }
}

/// The canned `400` for bytes that never were a request.
fn bad_request_response(message: &str) -> OutboundResponse {
    plain_response(400, "Bad Request", message)
}

/// The canned `500` for handlers that vanished without answering.
fn internal_error_response() -> OutboundResponse {
    plain_response(500, "Internal Server Error", "request handler failed")
}

/// The canned `503` for connections over the configured cap.
fn unavailable_response() -> OutboundResponse {
    plain_response(503, "Service Unavailable", "connection limit reached")
}

/// The canned `503` for requests refused by admission control.  Carries a
/// `Retry-After` hint and, unlike the connection-cap refusal, keeps the
/// connection open when the client asked for keep-alive.
fn shed_response(retry_after_secs: u64, keep_alive: bool) -> OutboundResponse {
    let body = "server overloaded; retry after backoff";
    OutboundResponse {
        head: format!(
            "HTTP/1.1 503 Service Unavailable\r\nContent-Type: text/plain; charset=utf-8\r\n\
             Content-Length: {}\r\nRetry-After: {retry_after_secs}\r\nConnection: {}\r\n\r\n",
            body.len(),
            if keep_alive { "keep-alive" } else { "close" }
        )
        .into_bytes(),
        body: ResponseBody::Owned(body.as_bytes().to_vec()),
        keep_alive,
    }
}

/// Splices an `X-Request-Id` header into a finished response head.  Every
/// head built by handlers or the canned responders ends with the blank line
/// (`\r\n\r\n`); the header goes right before it, leaving the body — and the
/// byte-identical label contract — untouched.
fn splice_request_id(head: &mut Vec<u8>, id: RequestId) {
    if head.ends_with(b"\r\n\r\n") {
        let insert_at = head.len() - 2;
        let header = format!("X-Request-Id: {id}\r\n");
        head.splice(insert_at..insert_at, header.into_bytes());
    }
}

fn plain_response(code: u16, reason: &str, body: &str) -> OutboundResponse {
    OutboundResponse {
        head: format!(
            "HTTP/1.1 {code} {reason}\r\nContent-Type: text/plain; charset=utf-8\r\n\
             Content-Length: {}\r\nConnection: close\r\n\r\n",
            body.len()
        )
        .into_bytes(),
        body: ResponseBody::Owned(body.as_bytes().to_vec()),
        keep_alive: false,
    }
}

/// Reactor tuning knobs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReactorConfig {
    /// Maximum simultaneously open connections; excess accepts are answered
    /// with a synchronous `503` and closed.
    pub max_connections: usize,
    /// How long a connection may sit without socket activity before it is
    /// closed — bounds both idle keep-alive clients (between requests) and
    /// stalled readers (mid-response).  Without it, `max_connections`
    /// permanently parked clients would lock every new client out.
    pub idle_timeout: std::time::Duration,
    /// How long a *started* request may take to arrive completely.  Unlike
    /// the idle timeout, dripping one byte at a time does not reset this
    /// clock (the slow-loris defence).
    pub request_deadline: std::time::Duration,
}

impl Default for ReactorConfig {
    fn default() -> Self {
        ReactorConfig {
            max_connections: 4096,
            idle_timeout: std::time::Duration::from_secs(60),
            request_deadline: std::time::Duration::from_secs(30),
        }
    }
}

/// Per-shard observability wiring: where the reactor records its
/// network-side stage timings (`parse`, `write`), how it mints request ids,
/// and where finished slow traces land.
#[derive(Debug, Clone)]
pub struct ReactorObservability {
    /// Shard index minted into request ids (`shard:seq`) and used as the
    /// `shard` label in `/metrics`.
    pub shard: u32,
    /// This shard's stage histograms (`parse` and `write` recorded here;
    /// worker-side stages go to the label service's own metrics).
    pub stages: Arc<StageHistograms>,
    /// Ring receiving completed traces that exceed `slow_threshold` —
    /// typically shared by every shard and served at `/debug/slow`.
    pub ring: Arc<TraceRing>,
    /// Requests whose end-to-end latency reaches this threshold have their
    /// trace pushed to `ring`.  Zero traces everything.
    pub slow_threshold: std::time::Duration,
}

impl Default for ReactorObservability {
    fn default() -> Self {
        ReactorObservability {
            shard: 0,
            stages: Arc::new(StageHistograms::new()),
            ring: Arc::new(TraceRing::new(64)),
            slow_threshold: std::time::Duration::from_millis(500),
        }
    }
}

/// How often the timeout sweep walks the connection table.
const SWEEP_INTERVAL: std::time::Duration = std::time::Duration::from_secs(1);

struct Tracked {
    conn: Connection,
    interest: Interest,
    /// Last socket readiness (or completion delivery) for this connection.
    last_activity: std::time::Instant,
    /// When the currently-arriving request's first bytes landed.
    request_started: Option<std::time::Instant>,
    /// The in-flight request's span, finished when its response flushes.
    span: Option<Arc<RequestSpan>>,
    /// When the in-flight request's response was enqueued for writing.
    response_started: Option<std::time::Instant>,
}

/// The epoll event loop over one listener.
pub struct Reactor<D: Dispatch> {
    poller: Poller,
    listener: TcpListener,
    dispatch: Arc<D>,
    completions: Completions,
    conns: HashMap<u64, Tracked>,
    next_token: u64,
    shutdown: Arc<AtomicBool>,
    config: ReactorConfig,
    last_sweep: std::time::Instant,
    metrics: Arc<ReactorMetrics>,
    obs: ReactorObservability,
    /// Per-shard request sequence number (starts at 1 for the first request).
    next_seq: u64,
}

impl<D: Dispatch> Reactor<D> {
    /// Builds a reactor over a bound listener.  `shutdown` stops [`run`]
    /// (checked every [`SHUTDOWN_POLL_MS`]).
    ///
    /// [`run`]: Reactor::run
    ///
    /// # Errors
    /// Poller/eventfd creation errors.
    pub fn new(
        listener: TcpListener,
        dispatch: Arc<D>,
        shutdown: Arc<AtomicBool>,
        config: ReactorConfig,
    ) -> io::Result<Self> {
        let waker = Waker::new()?;
        Ok(Reactor {
            poller: Poller::new()?,
            listener,
            dispatch,
            completions: Completions::new(waker),
            conns: HashMap::new(),
            next_token: TOKEN_FIRST_CONN,
            shutdown,
            config,
            last_sweep: std::time::Instant::now(),
            metrics: Arc::new(ReactorMetrics::new()),
            obs: ReactorObservability::default(),
            next_seq: 0,
        })
    }

    /// Replaces the default (private, shard-0) observability wiring —
    /// multi-shard servers install their shard index, the shared slow-trace
    /// ring, and the configured slow threshold here before [`run`].
    ///
    /// [`run`]: Reactor::run
    pub fn set_observability(&mut self, obs: ReactorObservability) {
        self.obs = obs;
    }

    /// The reactor's observability wiring (clone the `Arc`s before [`run`]
    /// consumes the reactor to keep reading them from other threads).
    ///
    /// [`run`]: Reactor::run
    #[must_use]
    pub fn observability(&self) -> &ReactorObservability {
        &self.obs
    }

    /// Number of currently open connections.
    #[must_use]
    pub fn connections(&self) -> usize {
        self.conns.len()
    }

    /// The reactor's live counters — clone the `Arc` before [`run`]
    /// consumes the reactor to keep observing it from other threads.
    ///
    /// [`run`]: Reactor::run
    #[must_use]
    pub fn metrics(&self) -> Arc<ReactorMetrics> {
        Arc::clone(&self.metrics)
    }

    /// Runs the event loop until the shutdown flag is set.  Connections are
    /// drained from the poller, completions from the wake channel; both per
    /// iteration.
    ///
    /// # Errors
    /// Fatal errors from the poller or the listener registration.  Per
    /// connection errors never propagate here.
    pub fn run(mut self) -> io::Result<()> {
        self.listener.set_nonblocking(true)?;
        self.poller
            .register(&self.listener, Interest::READABLE, TOKEN_LISTENER)?;
        self.poller.register_raw(
            self.completions.waker().as_raw_fd(),
            Interest::READABLE,
            TOKEN_WAKER,
        )?;
        while !self.shutdown.load(Ordering::Relaxed) {
            let events = self.poller.wait(SHUTDOWN_POLL_MS)?;
            for event in events {
                match event.token {
                    TOKEN_LISTENER => self.accept_ready(),
                    TOKEN_WAKER => self.completions.waker().drain(),
                    token => self.connection_ready(token, event.closed, event.writable),
                }
            }
            self.apply_completions();
            self.sweep_timeouts();
        }
        Ok(())
    }

    /// Closes connections that outstayed their welcome: no socket activity
    /// for `idle_timeout`, or a request that started `request_deadline` ago
    /// and still hasn't arrived completely (slow drips refresh activity but
    /// not the request clock).  In-flight requests are exempt — they are
    /// bounded by our own pool, not the client.
    fn sweep_timeouts(&mut self) {
        let now = std::time::Instant::now();
        if now.duration_since(self.last_sweep) < SWEEP_INTERVAL {
            return;
        }
        self.last_sweep = now;
        let expired: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, tracked)| match tracked.conn.state() {
                ConnState::InFlight => false,
                ConnState::Reading | ConnState::Writing => {
                    let overdue_request = tracked.request_started.is_some_and(|started| {
                        now.duration_since(started) > self.config.request_deadline
                    });
                    overdue_request
                        || now.duration_since(tracked.last_activity) > self.config.idle_timeout
                }
            })
            .map(|(&token, _)| token)
            .collect();
        for token in expired {
            self.close(token);
        }
    }

    /// Accepts until the listener would block.
    fn accept_ready(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    let Ok(mut conn) = Connection::new(stream) else {
                        continue; // set_nonblocking failed; drop the stream.
                    };
                    if self.conns.len() >= self.config.max_connections {
                        // Best-effort synchronous refusal; the socket goes
                        // away either way.
                        self.metrics.on_shed_connection();
                        conn.enqueue_response(unavailable_response());
                        let _ = conn.on_writable();
                        continue;
                    }
                    let token = self.next_token;
                    self.next_token += 1;
                    if self
                        .poller
                        .register(conn.stream(), Interest::READABLE, token)
                        .is_ok()
                    {
                        self.metrics.on_accepted();
                        self.conns.insert(
                            token,
                            Tracked {
                                conn,
                                interest: Interest::READABLE,
                                last_activity: std::time::Instant::now(),
                                request_started: None,
                                span: None,
                                response_started: None,
                            },
                        );
                    }
                }
                Err(err) if err.kind() == io::ErrorKind::WouldBlock => return,
                Err(err) => {
                    // Hard accept failures (fd exhaustion, aborted
                    // handshakes).  The listener stays readable, so a bare
                    // return would level-trigger right back here at full
                    // CPU; a short sleep turns that into a paced retry
                    // until pressure lifts.  In-flight connections are
                    // delayed by at most the sleep.
                    eprintln!("accept error (backing off): {err}");
                    std::thread::sleep(std::time::Duration::from_millis(10));
                    return;
                }
            }
        }
    }

    /// Routes a readiness event for one connection.
    fn connection_ready(&mut self, token: u64, closed: bool, writable: bool) {
        let Some(tracked) = self.conns.get_mut(&token) else {
            return; // Already closed this iteration; stale event.
        };
        tracked.last_activity = std::time::Instant::now();
        if closed {
            self.close(token);
            return;
        }
        match tracked.conn.state() {
            ConnState::Reading => self.drive_read(token),
            ConnState::Writing => {
                if writable {
                    self.drive_write(token);
                }
            }
            // Quiet while the pool works; EPOLLHUP/EPOLLERR (handled above)
            // are the only events that matter here.
            ConnState::InFlight => {}
        }
    }

    /// Reads and, on a complete request, dispatches.
    fn drive_read(&mut self, token: u64) {
        let Some(tracked) = self.conns.get_mut(&token) else {
            return;
        };
        match tracked.conn.on_readable() {
            ReadOutcome::NeedMore => {
                // Start (or keep) the request-progress clock while a
                // partial request sits in the parser.
                if tracked.conn.mid_request() {
                    tracked
                        .request_started
                        .get_or_insert_with(std::time::Instant::now);
                } else {
                    tracked.request_started = None;
                }
                self.set_interest(token, Interest::READABLE);
            }
            ReadOutcome::Disconnected => self.close(token),
            ReadOutcome::BadRequest(err) => {
                tracked
                    .conn
                    .enqueue_response(bad_request_response(&err.to_string()));
                self.drive_write(token);
            }
            ReadOutcome::Request(request) => self.dispatch_request(token, request),
        }
    }

    /// Hands a parsed request to the application and quiets the socket.
    fn dispatch_request(&mut self, token: u64, request: ParsedRequest) {
        let Some(tracked) = self.conns.get_mut(&token) else {
            return;
        };
        tracked.conn.mark_in_flight();
        self.next_seq += 1;
        let span = Arc::new(RequestSpan::begin(RequestId {
            shard: self.obs.shard,
            seq: self.next_seq,
        }));
        // Parse stage: first request byte → complete parse.  A request that
        // arrived whole in a single read never started the clock; its parse
        // time is below timer resolution and recorded as zero.
        let parse_elapsed = tracked
            .request_started
            .take()
            .map(|started| started.elapsed())
            .unwrap_or_default();
        span.record(Stage::Parse, parse_elapsed);
        self.obs.stages.record(Stage::Parse, parse_elapsed);
        tracked.span = Some(Arc::clone(&span));
        self.set_interest(token, Interest::NONE);
        self.metrics.on_dispatched();
        let responder = Responder {
            completions: self.completions.clone(),
            metrics: Arc::clone(&self.metrics),
            conn_id: token,
            keep_alive: request.keep_alive(),
            sent: false,
            span,
        };
        let dispatch = Arc::clone(&self.dispatch);
        dispatch.dispatch(request, responder);
    }

    /// Flushes buffered chunks and advances the keep-alive state machine.
    fn drive_write(&mut self, token: u64) {
        let Some(tracked) = self.conns.get_mut(&token) else {
            return;
        };
        match tracked.conn.on_writable() {
            WriteOutcome::Disconnected => self.close(token),
            WriteOutcome::Pending => self.set_interest(token, Interest::WRITABLE),
            WriteOutcome::Flushed => {
                // The in-flight request's response just fully left the
                // socket: close out its write stage and finish its span.
                if let Some(started) = tracked.response_started.take() {
                    let write_elapsed = started.elapsed();
                    if let Some(span) = tracked.span.as_ref() {
                        span.record(Stage::Write, write_elapsed);
                    }
                    self.obs.stages.record(Stage::Write, write_elapsed);
                }
                if let Some(span) = tracked.span.take() {
                    let trace = span.finish();
                    let threshold =
                        u64::try_from(self.obs.slow_threshold.as_micros()).unwrap_or(u64::MAX);
                    if trace.total_micros >= threshold {
                        self.obs.ring.push(trace);
                    }
                }
                if tracked.conn.closing() {
                    self.close(token);
                    return;
                }
                // Keep-alive: a pipelined request may already be buffered.
                match tracked.conn.poll_buffered_request() {
                    ReadOutcome::Request(request) => self.dispatch_request(token, request),
                    ReadOutcome::BadRequest(err) => {
                        tracked
                            .conn
                            .enqueue_response(bad_request_response(&err.to_string()));
                        self.drive_write(token);
                    }
                    ReadOutcome::NeedMore | ReadOutcome::Disconnected => {
                        // A pipelined request may already be partially
                        // buffered; its progress clock starts now.
                        if tracked.conn.mid_request() {
                            tracked
                                .request_started
                                .get_or_insert_with(std::time::Instant::now);
                        }
                        self.set_interest(token, Interest::READABLE);
                    }
                }
            }
        }
    }

    /// Delivers finished responses; completions for closed connections are
    /// dropped (their tokens are never reused).
    fn apply_completions(&mut self) {
        for completion in self.completions.take_all() {
            self.metrics.on_completion();
            let Some(tracked) = self.conns.get_mut(&completion.conn_id) else {
                continue; // Client left before its label finished.
            };
            tracked.last_activity = std::time::Instant::now();
            if tracked.conn.state() != ConnState::InFlight {
                continue; // One response per request; anything else is stale.
            }
            let mut response = completion.response;
            if let Some(span) = tracked.span.as_ref() {
                splice_request_id(&mut response.head, span.id());
            }
            tracked.response_started = Some(std::time::Instant::now());
            tracked.conn.enqueue_response(response);
            self.drive_write(completion.conn_id);
        }
    }

    /// Updates the poller interest when it changed.
    fn set_interest(&mut self, token: u64, interest: Interest) {
        let Some(tracked) = self.conns.get_mut(&token) else {
            return;
        };
        if tracked.interest == interest {
            return;
        }
        if self
            .poller
            .reregister(tracked.conn.stream(), interest, token)
            .is_ok()
        {
            tracked.interest = interest;
        } else {
            self.close(token);
        }
    }

    /// Closes one connection: deregisters, forgets, drops (closing the fd).
    fn close(&mut self, token: u64) {
        if let Some(tracked) = self.conns.remove(&token) {
            let _ = self.poller.deregister(tracked.conn.stream());
            self.metrics.on_closed();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::TcpStream;
    use std::time::Duration;

    /// Answers inline on the reactor thread: status 200, body = the target.
    struct Echo;

    impl Dispatch for Echo {
        fn dispatch(&self, request: ParsedRequest, responder: Responder) {
            if request.target == "/panic" {
                // Dropping the responder unanswered models a dead handler.
                return;
            }
            if request.target == "/shed" {
                responder.shed(7);
                return;
            }
            let keep_alive = responder.keep_alive();
            let body = request.target.clone();
            responder.send(OutboundResponse {
                head: format!(
                    "HTTP/1.1 200 OK\r\nContent-Length: {}\r\nConnection: {}\r\n\r\n",
                    body.len(),
                    if keep_alive { "keep-alive" } else { "close" }
                )
                .into_bytes(),
                body: ResponseBody::Owned(body.into_bytes()),
                keep_alive,
            });
        }
    }

    fn start_echo_with(config: ReactorConfig) -> (std::net::SocketAddr, Arc<AtomicBool>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let shutdown = Arc::new(AtomicBool::new(false));
        let reactor =
            Reactor::new(listener, Arc::new(Echo), Arc::clone(&shutdown), config).expect("reactor");
        std::thread::spawn(move || reactor.run().expect("reactor run"));
        (addr, shutdown)
    }

    fn start_echo() -> (std::net::SocketAddr, Arc<AtomicBool>) {
        start_echo_with(ReactorConfig::default())
    }

    fn read_one_response(stream: &mut TcpStream) -> String {
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("timeout");
        let response = crate::client::read_one_response(stream).expect("response");
        format!("{}{}", response.head, response.body_text())
    }

    #[test]
    fn serves_sequential_keep_alive_requests_on_one_connection() {
        let (addr, shutdown) = start_echo();
        let mut stream = TcpStream::connect(addr).expect("connect");
        for i in 0..5 {
            stream
                .write_all(format!("GET /req-{i} HTTP/1.1\r\nHost: t\r\n\r\n").as_bytes())
                .expect("write");
            let response = read_one_response(&mut stream);
            assert!(response.starts_with("HTTP/1.1 200 OK"), "{response}");
            assert!(response.ends_with(&format!("/req-{i}")), "{response}");
        }
        shutdown.store(true, Ordering::Relaxed);
    }

    #[test]
    fn pipelined_requests_are_answered_in_order() {
        let (addr, shutdown) = start_echo();
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .write_all(b"GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\nGET /c HTTP/1.1\r\nConnection: close\r\n\r\n")
            .expect("write");
        for target in ["/a", "/b", "/c"] {
            let response = read_one_response(&mut stream);
            assert!(response.ends_with(target), "{response}");
        }
        shutdown.store(true, Ordering::Relaxed);
    }

    #[test]
    fn malformed_request_gets_400_and_closes_only_that_connection() {
        let (addr, shutdown) = start_echo();
        let mut healthy = TcpStream::connect(addr).expect("connect healthy");
        let mut broken = TcpStream::connect(addr).expect("connect broken");
        broken.write_all(b"NOT_HTTP\r\n\r\n").expect("write");
        let response = read_one_response(&mut broken);
        assert!(response.starts_with("HTTP/1.1 400"), "{response}");
        // The broken connection is closed…
        let mut rest = Vec::new();
        broken.read_to_end(&mut rest).expect("eof");
        assert!(rest.is_empty());
        // …while the healthy one still works.
        healthy
            .write_all(b"GET /still-alive HTTP/1.1\r\n\r\n")
            .expect("write");
        let response = read_one_response(&mut healthy);
        assert!(response.ends_with("/still-alive"), "{response}");
        shutdown.store(true, Ordering::Relaxed);
    }

    #[test]
    fn dropped_responder_sends_500_instead_of_stranding_the_connection() {
        let (addr, shutdown) = start_echo();
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .write_all(b"GET /panic HTTP/1.1\r\n\r\n")
            .expect("write");
        let response = read_one_response(&mut stream);
        assert!(response.starts_with("HTTP/1.1 500"), "{response}");
        shutdown.store(true, Ordering::Relaxed);
    }

    #[test]
    fn idle_and_slow_drip_connections_are_timed_out() {
        let (addr, shutdown) = start_echo_with(ReactorConfig {
            max_connections: 64,
            idle_timeout: Duration::from_millis(1500),
            request_deadline: Duration::from_millis(1500),
        });

        // An idle connection is closed once it outlives the idle timeout.
        let mut idle = TcpStream::connect(addr).expect("idle connect");
        idle.set_read_timeout(Some(Duration::from_secs(10)))
            .expect("timeout");
        let mut buf = Vec::new();
        idle.read_to_end(&mut buf).expect("EOF from idle timeout");
        assert!(buf.is_empty());

        // A slow-dripping request keeps refreshing activity but cannot
        // outrun the request deadline.
        let mut drip = TcpStream::connect(addr).expect("drip connect");
        drip.set_read_timeout(Some(Duration::from_secs(1)))
            .expect("timeout");
        let started = std::time::Instant::now();
        drip.write_all(b"GET /slow HTTP/1.1\r\n")
            .expect("first bytes");
        // One header byte per 100ms: each write refreshes socket activity,
        // but the request clock started at the first bytes.  The server
        // drops the connection at the deadline, which surfaces as a write
        // error (RST) within a few more drips.
        let mut closed = false;
        while started.elapsed() < Duration::from_secs(8) {
            if drip.write_all(b"x").is_err() {
                closed = true;
                break;
            }
            std::thread::sleep(Duration::from_millis(100));
        }
        assert!(
            closed,
            "drip connection must be cut by the request deadline"
        );

        // A well-behaved connection opened afterwards is served normally.
        let mut fine = TcpStream::connect(addr).expect("connect");
        fine.write_all(b"GET /ok HTTP/1.1\r\n\r\n").expect("write");
        let response = read_one_response(&mut fine);
        assert!(response.ends_with("/ok"), "{response}");

        shutdown.store(true, Ordering::Relaxed);
    }

    #[test]
    fn shed_sends_503_with_retry_after_and_keeps_the_connection() {
        let (addr, shutdown) = start_echo();
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .write_all(b"GET /shed HTTP/1.1\r\nHost: t\r\nConnection: keep-alive\r\n\r\n")
            .expect("write");
        let response = read_one_response(&mut stream);
        assert!(response.starts_with("HTTP/1.1 503"), "{response}");
        assert!(response.contains("Retry-After: 7"), "{response}");
        assert!(response.contains("Connection: keep-alive"), "{response}");
        // The connection survived the shed: the retry succeeds on the same
        // socket.
        stream
            .write_all(b"GET /after-shed HTTP/1.1\r\nHost: t\r\n\r\n")
            .expect("write retry");
        let response = read_one_response(&mut stream);
        assert!(response.ends_with("/after-shed"), "{response}");
        shutdown.store(true, Ordering::Relaxed);
    }

    #[test]
    fn reuseport_listeners_share_one_address_and_both_accept() {
        // Two reactors, two SO_REUSEPORT listeners on the same port: the
        // kernel spreads accepts across them, and every connection is served
        // by whichever reactor owns it end to end.
        let first = crate::sys::listen_reuseport("127.0.0.1:0".parse().expect("addr"))
            .expect("first reuseport listener");
        let addr = first.local_addr().expect("local addr");
        let second = crate::sys::listen_reuseport(addr).expect("second reuseport listener");

        let shutdown = Arc::new(AtomicBool::new(false));
        let mut metrics = Vec::new();
        for listener in [first, second] {
            let reactor = Reactor::new(
                listener,
                Arc::new(Echo),
                Arc::clone(&shutdown),
                ReactorConfig::default(),
            )
            .expect("reactor");
            metrics.push(reactor.metrics());
            std::thread::spawn(move || reactor.run().expect("reactor run"));
        }

        // 64 one-shot connections from distinct source ports; the reuseport
        // hash puts a share on each listener (the chance one shard sees all
        // 64 is ~2^-64).
        for i in 0..64 {
            let mut stream = TcpStream::connect(addr).expect("connect");
            stream
                .write_all(format!("GET /conn-{i} HTTP/1.1\r\nHost: t\r\n\r\n").as_bytes())
                .expect("write");
            let response = read_one_response(&mut stream);
            assert!(response.ends_with(&format!("/conn-{i}")), "{response}");
        }

        let (snapshots, totals) = crate::metrics::aggregate(&metrics);
        assert_eq!(totals.accepted, 64, "{snapshots:?}");
        assert_eq!(totals.dispatched, 64, "{snapshots:?}");
        for snap in &snapshots {
            assert!(
                snap.accepted > 0,
                "kernel balanced no accepts onto one shard: {snapshots:?}"
            );
        }

        shutdown.store(true, Ordering::Relaxed);
    }

    #[test]
    fn responses_carry_unique_request_ids() {
        let (addr, shutdown) = start_echo();
        let mut stream = TcpStream::connect(addr).expect("connect");
        let mut ids = Vec::new();
        for i in 0..3 {
            stream
                .write_all(format!("GET /id-{i} HTTP/1.1\r\nHost: t\r\n\r\n").as_bytes())
                .expect("write");
            let response = read_one_response(&mut stream);
            let id_line = response
                .lines()
                .find(|line| line.starts_with("X-Request-Id: "))
                .unwrap_or_else(|| panic!("missing X-Request-Id: {response}"))
                .trim_start_matches("X-Request-Id: ")
                .to_string();
            let (shard, seq) = id_line.split_once(':').expect("shard:seq format");
            assert_eq!(shard.parse::<u32>().expect("shard"), 0);
            assert!(seq.parse::<u64>().expect("seq") >= 1);
            ids.push(id_line);
            // The body is untouched by the header splice.
            assert!(response.ends_with(&format!("/id-{i}")), "{response}");
        }
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), 3, "request ids must be unique");
        shutdown.store(true, Ordering::Relaxed);
    }

    #[test]
    fn zero_slow_threshold_traces_every_request() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let shutdown = Arc::new(AtomicBool::new(false));
        let mut reactor = Reactor::new(
            listener,
            Arc::new(Echo),
            Arc::clone(&shutdown),
            ReactorConfig::default(),
        )
        .expect("reactor");
        let ring = Arc::new(TraceRing::new(8));
        let stages = Arc::new(StageHistograms::new());
        reactor.set_observability(ReactorObservability {
            shard: 3,
            stages: Arc::clone(&stages),
            ring: Arc::clone(&ring),
            slow_threshold: Duration::ZERO,
        });
        std::thread::spawn(move || reactor.run().expect("reactor run"));

        let mut stream = TcpStream::connect(addr).expect("connect");
        for _ in 0..2 {
            stream
                .write_all(b"GET /traced HTTP/1.1\r\nHost: t\r\n\r\n")
                .expect("write");
            let response = read_one_response(&mut stream);
            assert!(response.contains("X-Request-Id: 3:"), "{response}");
        }

        // Trace finalization happens on the reactor thread right after the
        // flush that our read observed; give it a moment.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while ring.recorded() < 2 {
            assert!(std::time::Instant::now() < deadline, "traces never landed");
            std::thread::sleep(Duration::from_millis(5));
        }
        let traces = ring.snapshot();
        assert_eq!(traces.len(), 2);
        assert!(traces.iter().all(|t| t.id.shard == 3));
        // Parse and write are recorded per shard.
        let snap = stages.snapshot();
        assert_eq!(snap.get(Stage::Parse).count(), 2);
        assert_eq!(snap.get(Stage::Write).count(), 2);
        shutdown.store(true, Ordering::Relaxed);
    }

    #[test]
    fn many_idle_connections_do_not_stall_active_ones() {
        let (addr, shutdown) = start_echo();
        let idle: Vec<TcpStream> = (0..100)
            .map(|_| TcpStream::connect(addr).expect("idle connect"))
            .collect();
        let mut active = TcpStream::connect(addr).expect("active connect");
        active
            .write_all(b"GET /active HTTP/1.1\r\n\r\n")
            .expect("write");
        let response = read_one_response(&mut active);
        assert!(response.ends_with("/active"), "{response}");
        drop(idle);
        shutdown.store(true, Ordering::Relaxed);
    }
}
