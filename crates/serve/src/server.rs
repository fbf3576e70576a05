//! The serving loop: acceptor thread, bounded worker pool, request
//! routing, and the graceful-drain state machine.
//!
//! # Threading model
//!
//! One **acceptor** thread owns the (nonblocking) listener and the sending
//! half of a bounded `sync_channel` of accepted connections; `workers`
//! threads each loop `recv → handle one connection → close`. Overload
//! sheds at two rungs:
//!
//! 1. **socket**: when the accept queue is full, the acceptor itself
//!    writes a `503` (+ `Retry-After` from [`CodEngine::retry_after_hint`])
//!    and closes — the connection never occupies worker or queue memory;
//! 2. **engine**: a request that reaches evaluation can still shed with
//!    [`CodError::Overloaded`] when `max_inflight` is saturated, mapped to
//!    `503` + `Retry-After` from the error's own hint.
//!
//! # Drain state machine
//!
//! `Running → Draining → Stopped`, driven by [`ServerHandle::shutdown`]:
//! entering *Draining* flips `/readyz` to 503 and calls
//! [`CodEngine::begin_drain`] (new queries get kill-linked tokens); queued
//! and in-flight connections complete normally; fresh connections get an
//! inline `503` from the acceptor (health endpoints still answer). If the
//! drain deadline passes with work still in flight,
//! [`CodEngine::cancel_inflight`] fires the engine kill switch and the
//! remaining queries finish degraded (or `DeadlineExceeded`) within one
//! governance checkpoint. *Stopped* closes the listener and joins every
//! thread, so a clean exit leaks neither sockets nor threads.

use std::io::Write as _;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use cod_core::failpoint::{self, Site};
use cod_core::{CodAnswer, CodEngine, CodError, Method, MetricsSnapshot, Query, QueryLimits};
use cod_graph::AttrId;
use rand::prelude::*;

use crate::http::{self, ParseError, Request, Response};
use crate::json::{self, Value};

/// Tuning knobs for [`serve`]. `Default` suits tests and local use.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Worker threads handling connections.
    pub workers: usize,
    /// Accepted connections queued ahead of the workers; when full, new
    /// connections are shed at the socket with a 503.
    pub accept_queue: usize,
    /// Hard cap on a request body (413 beyond it).
    pub max_request_bytes: usize,
    /// Per-connection socket read timeout.
    pub read_timeout: Duration,
    /// Per-connection socket write timeout.
    pub write_timeout: Duration,
    /// Deadline applied to requests that do not carry `deadline_ms`
    /// themselves. `None` leaves such requests ungoverned.
    pub default_deadline: Option<Duration>,
    /// How long [`ServerHandle::shutdown`] waits for in-flight work
    /// before firing the engine kill switch.
    pub drain_deadline: Duration,
    /// Seed mixed into each request's RNG stream.
    pub seed: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers: 2,
            accept_queue: 16,
            max_request_bytes: 1 << 20,
            read_timeout: Duration::from_secs(5),
            write_timeout: Duration::from_secs(5),
            default_deadline: Some(Duration::from_secs(10)),
            drain_deadline: Duration::from_secs(5),
            seed: 0xC0D,
        }
    }
}

/// Lifecycle states of the drain state machine.
const RUNNING: u8 = 0;
const DRAINING: u8 = 1;
const STOPPED: u8 = 2;

/// Serve-layer counters, exposed alongside the engine metrics on
/// `/metrics` (relaxed atomics, scrape-consistency like the engine's).
#[derive(Debug, Default)]
pub struct HttpMetrics {
    /// Requests fully parsed and routed.
    requests: AtomicU64,
    /// Connections shed at the socket by the acceptor (queue full).
    shed_socket: AtomicU64,
    /// Requests shed by engine admission control (`Overloaded`).
    shed_engine: AtomicU64,
    /// Query requests refused because the server was draining.
    draining_rejects: AtomicU64,
    /// Panics contained by a worker's `catch_unwind`.
    panics: AtomicU64,
}

/// A point-in-time copy of the serve-layer `HttpMetrics` counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HttpStats {
    pub requests: u64,
    pub shed_socket: u64,
    pub shed_engine: u64,
    pub draining_rejects: u64,
    pub panics: u64,
}

impl HttpMetrics {
    fn snapshot(&self) -> HttpStats {
        HttpStats {
            requests: self.requests.load(Ordering::Relaxed),
            shed_socket: self.shed_socket.load(Ordering::Relaxed),
            shed_engine: self.shed_engine.load(Ordering::Relaxed),
            draining_rejects: self.draining_rejects.load(Ordering::Relaxed),
            panics: self.panics.load(Ordering::Relaxed),
        }
    }

    fn render(&self) -> String {
        let s = self.snapshot();
        let mut out = String::with_capacity(512);
        for (name, help, v) in [
            (
                "http_requests",
                "HTTP requests parsed and routed",
                s.requests,
            ),
            (
                "http_shed_socket",
                "connections shed at the socket (accept queue full)",
                s.shed_socket,
            ),
            (
                "http_shed_engine",
                "requests shed by engine admission control",
                s.shed_engine,
            ),
            (
                "http_draining_rejects",
                "query requests refused while draining",
                s.draining_rejects,
            ),
            (
                "http_worker_panics",
                "panics contained by worker catch_unwind",
                s.panics,
            ),
        ] {
            out.push_str(&format!(
                "# HELP cod_{name}_total {help}\n# TYPE cod_{name}_total counter\ncod_{name}_total {v}\n"
            ));
        }
        out
    }
}

/// State shared by the acceptor, the workers and the handle.
struct Shared {
    engine: Arc<CodEngine>,
    cfg: ServeConfig,
    state: AtomicU8,
    /// Connections accepted and not yet fully handled (queued + active).
    conn_inflight: AtomicUsize,
    http: HttpMetrics,
    /// Monotone request index, mixed into each request's RNG seed.
    req_counter: AtomicU64,
}

impl Shared {
    fn state(&self) -> u8 {
        self.state.load(Ordering::Acquire)
    }
}

/// Handle to a running server. Dropping it without calling
/// [`ServerHandle::shutdown`] aborts ungracefully (threads are detached);
/// call `shutdown` for the drain protocol.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: Option<std::thread::JoinHandle<()>>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

/// What [`ServerHandle::shutdown`] observed, plus the final metrics flush.
#[derive(Debug)]
pub struct ShutdownReport {
    /// Whether all in-flight work finished before the drain deadline
    /// (false means the engine kill switch was fired to force completion).
    pub drained_in_time: bool,
    /// Final engine metrics, snapshotted after the last worker exited.
    pub engine_metrics: MetricsSnapshot,
    /// Final serve-layer counters.
    pub http_stats: HttpStats,
}

/// Starts the server over `engine`; returns once the listener is bound and
/// the threads are running.
pub fn serve(engine: Arc<CodEngine>, cfg: ServeConfig) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(&cfg.addr)?;
    listener.set_nonblocking(true)?;
    serve_on(listener, engine, cfg)
}

/// Starts the server on an already-bound (nonblocking) listener — the
/// recovery front hands its listener over through here, so the port never
/// closes between "recovering" and "serving".
fn serve_on(
    listener: TcpListener,
    engine: Arc<CodEngine>,
    cfg: ServeConfig,
) -> std::io::Result<ServerHandle> {
    let addr = listener.local_addr()?;
    let workers = cfg.workers.max(1);
    let queue = cfg.accept_queue.max(1);
    let shared = Arc::new(Shared {
        engine,
        cfg,
        state: AtomicU8::new(RUNNING),
        conn_inflight: AtomicUsize::new(0),
        http: HttpMetrics::default(),
        req_counter: AtomicU64::new(0),
    });

    let (tx, rx) = std::sync::mpsc::sync_channel::<TcpStream>(queue);
    let rx = Arc::new(Mutex::new(rx));
    let worker_handles: Vec<_> = (0..workers)
        .map(|i| {
            let shared = Arc::clone(&shared);
            let rx = Arc::clone(&rx);
            std::thread::Builder::new()
                .name(format!("cod-serve-worker-{i}"))
                .spawn(move || worker_loop(&shared, &rx))
                .expect("spawn worker")
        })
        .collect();
    let acceptor = {
        let shared = Arc::clone(&shared);
        std::thread::Builder::new()
            .name("cod-serve-accept".into())
            .spawn(move || accept_loop(&shared, listener, tx))
            .expect("spawn acceptor")
    };

    Ok(ServerHandle {
        addr,
        shared,
        acceptor: Some(acceptor),
        workers: worker_handles,
    })
}

/// A server that is still replaying its WAL. The listener is already
/// bound and answering — `/healthz` with 200, `/readyz` with
/// `503 RECOVERING`, everything else with 503 — so orchestrators can
/// watch the pod come up without routing traffic to it. Once recovery
/// completes, the same listener is handed to the full serving loop and
/// [`RecoveringServer::wait_ready`] yields the [`ServerHandle`].
pub struct RecoveringServer {
    addr: SocketAddr,
    rx: Receiver<Result<ServerHandle, CodError>>,
}

impl RecoveringServer {
    /// The bound address (resolves port 0 to the actual port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Blocks until recovery finishes and the full server is running (or
    /// recovery failed, in which case the error is returned and the
    /// listener is closed).
    pub fn wait_ready(self) -> Result<ServerHandle, CodError> {
        match self.rx.recv() {
            Ok(res) => res,
            Err(_) => Err(CodError::Internal(
                "recovery front thread exited without a result".into(),
            )),
        }
    }
}

/// Binds the listener immediately and runs `recover` on a background
/// thread while a minimal front loop answers health probes with
/// `503 RECOVERING`. When `recover` returns an engine, the listener is
/// handed to the normal serving loop ([`serve`] semantics).
pub fn serve_recovering<F>(cfg: ServeConfig, recover: F) -> std::io::Result<RecoveringServer>
where
    F: FnOnce() -> Result<Arc<CodEngine>, CodError> + Send + 'static,
{
    let listener = TcpListener::bind(&cfg.addr)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    let (engine_tx, engine_rx) = std::sync::mpsc::channel::<Result<Arc<CodEngine>, CodError>>();
    std::thread::Builder::new()
        .name("cod-serve-recover".into())
        .spawn(move || {
            let _ = engine_tx.send(recover());
        })?;
    let (handle_tx, handle_rx) = std::sync::mpsc::channel::<Result<ServerHandle, CodError>>();
    std::thread::Builder::new()
        .name("cod-serve-recovering-front".into())
        .spawn(move || recovering_front(listener, cfg, &engine_rx, &handle_tx))?;
    Ok(RecoveringServer {
        addr,
        rx: handle_rx,
    })
}

/// The accept loop of a recovering server: answer probes, watch for the
/// recovered engine, then promote the listener to the full server.
fn recovering_front(
    listener: TcpListener,
    cfg: ServeConfig,
    engine_rx: &Receiver<Result<Arc<CodEngine>, CodError>>,
    handle_tx: &std::sync::mpsc::Sender<Result<ServerHandle, CodError>>,
) {
    use std::sync::mpsc::TryRecvError;
    loop {
        match engine_rx.try_recv() {
            Ok(Ok(engine)) => {
                let res = serve_on(listener, engine, cfg).map_err(CodError::from);
                let _ = handle_tx.send(res);
                return;
            }
            Ok(Err(e)) => {
                let _ = handle_tx.send(Err(e));
                return;
            }
            Err(TryRecvError::Disconnected) => {
                let _ = handle_tx.send(Err(CodError::Internal(
                    "recovery thread died before producing an engine".into(),
                )));
                return;
            }
            Err(TryRecvError::Empty) => {}
        }
        match listener.accept() {
            Ok((mut stream, _peer)) => {
                let _ = stream.set_read_timeout(Some(Duration::from_millis(250)));
                let _ = stream.set_write_timeout(Some(cfg.write_timeout));
                let resp = match http::read_request(&mut stream, cfg.max_request_bytes) {
                    Ok(req) if req.method == "GET" && req.path == "/healthz" => {
                        Response::text(200, "ok\n")
                    }
                    Ok(req) if req.method == "GET" && req.path == "/metrics" => Response {
                        status: 200,
                        content_type: "text/plain; version=0.0.4",
                        retry_after_secs: None,
                        body: b"# HELP cod_recovering whether WAL replay is in progress\n\
                               # TYPE cod_recovering gauge\ncod_recovering 1\n"
                            .to_vec(),
                    },
                    _ => Response::text(503, "RECOVERING\n"),
                };
                let _ = resp.write_to(&mut stream);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(1));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(1)),
        }
    }
}

impl ServerHandle {
    /// The bound address (resolves port 0 to the actual port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The engine being served.
    pub fn engine(&self) -> &Arc<CodEngine> {
        &self.shared.engine
    }

    /// Serve-layer counters so far.
    pub fn http_stats(&self) -> HttpStats {
        self.shared.http.snapshot()
    }

    /// Enters the *Draining* state without blocking: `/readyz` flips to
    /// 503, the engine starts minting kill-linked tokens, new query
    /// connections are refused. Called by [`ServerHandle::shutdown`];
    /// exposed separately so tests can observe the intermediate state.
    pub fn begin_drain(&self) {
        // Only forward: never demote Stopped back to Draining.
        let _ = self.shared.state.compare_exchange(
            RUNNING,
            DRAINING,
            Ordering::AcqRel,
            Ordering::Acquire,
        );
        self.shared.engine.begin_drain();
    }

    /// Graceful shutdown: drain in-flight work (forcing completion through
    /// the engine kill switch if the configured drain deadline passes),
    /// stop the listener, join every thread, and return the final metrics.
    pub fn shutdown(mut self) -> ShutdownReport {
        self.begin_drain();
        let deadline = Instant::now() + self.shared.cfg.drain_deadline;
        let mut drained_in_time = true;
        while self.shared.conn_inflight.load(Ordering::Acquire) > 0 {
            if Instant::now() >= deadline {
                drained_in_time = false;
                // Fire the kill switch once: every in-flight query
                // degrades at its next checkpoint, workers finish writing
                // those degraded answers, and the drain converges.
                self.shared.engine.cancel_inflight();
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        self.shared.state.store(STOPPED, Ordering::Release);
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        // The acceptor dropped the sender on exit; workers drain the
        // queue and exit. (Post-kill, queries complete within one
        // checkpoint, so these joins terminate.)
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        ShutdownReport {
            drained_in_time,
            engine_metrics: self.shared.engine.metrics(),
            http_stats: self.shared.http.snapshot(),
        }
    }
}

fn accept_loop(shared: &Shared, listener: TcpListener, tx: SyncSender<TcpStream>) {
    loop {
        match shared.state() {
            STOPPED => break,
            state => match listener.accept() {
                Ok((mut stream, _peer)) => {
                    // The Accept failpoint is the only panic-prone code on
                    // this thread; an acceptor that dies takes the whole
                    // server deaf, so isolate it like the worker sites and
                    // answer the connection with a best-effort 500.
                    if catch_unwind(|| failpoint::hit(Site::Accept, None)).is_err() {
                        shared.http.panics.fetch_add(1, Ordering::Relaxed);
                        let _ = stream.set_read_timeout(Some(Duration::from_millis(250)));
                        let _ = http::read_request(&mut stream, shared.cfg.max_request_bytes);
                        let _ =
                            Response::text(500, "internal error (accept)\n").write_to(&mut stream);
                        continue;
                    }
                    let _ = stream.set_read_timeout(Some(shared.cfg.read_timeout));
                    let _ = stream.set_write_timeout(Some(shared.cfg.write_timeout));
                    if state == DRAINING {
                        drain_reply(shared, stream);
                        continue;
                    }
                    shared.conn_inflight.fetch_add(1, Ordering::AcqRel);
                    match tx.try_send(stream) {
                        Ok(()) => {}
                        Err(TrySendError::Full(stream)) => {
                            shared.conn_inflight.fetch_sub(1, Ordering::AcqRel);
                            shed_at_socket(shared, stream);
                        }
                        Err(TrySendError::Disconnected(_)) => {
                            shared.conn_inflight.fetch_sub(1, Ordering::AcqRel);
                            break;
                        }
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(1));
                }
                Err(_) => std::thread::sleep(Duration::from_millis(1)),
            },
        }
    }
    // Dropping `tx` here closes the queue; workers exit after draining it.
}

/// Queue-full shedding, on the acceptor thread. The request is consumed
/// before replying — closing a socket with unread bytes sends an RST that
/// can destroy the queued 503, and a shed must look like an orderly 503 to
/// the client, never a reset. Having parsed it anyway, health and metrics
/// requests are answered for real: liveness stays observable at any
/// overload level, which is exactly when an operator needs it. The tight
/// read timeout bounds how long a slow client can hold the acceptor.
fn shed_at_socket(shared: &Shared, mut stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(250)));
    let resp = match http::read_request(&mut stream, shared.cfg.max_request_bytes) {
        Ok(req) if req.method == "GET" && req.path == "/healthz" => Response::text(200, "ok\n"),
        Ok(req) if req.method == "GET" && req.path == "/readyz" => Response::text(200, "ready\n"),
        Ok(req) if req.method == "GET" && req.path == "/metrics" => metrics_response(shared),
        _ => {
            shared.http.shed_socket.fetch_add(1, Ordering::Relaxed);
            Response::text(503, "overloaded: accept queue full\n")
                .with_retry_after(shared.engine.retry_after_hint())
        }
    };
    let _ = resp.write_to(&mut stream);
}

/// Connection handling while draining, on the acceptor thread: health
/// endpoints still answer (a draining pod must stay observable); query
/// endpoints are refused with 503 so load balancers move on quickly.
fn drain_reply(shared: &Shared, mut stream: TcpStream) {
    // Bound the head read tighter than the normal read timeout — a slow
    // client must not be able to stall the drain.
    let _ = stream.set_read_timeout(Some(Duration::from_millis(250)));
    let resp = match http::read_request(&mut stream, shared.cfg.max_request_bytes) {
        Ok(req) => match req.path.as_str() {
            "/healthz" => Response::text(200, "ok\n"),
            "/metrics" => metrics_response(shared),
            "/readyz" => Response::text(503, "draining\n"),
            _ => {
                shared.http.draining_rejects.fetch_add(1, Ordering::Relaxed);
                Response::text(503, "draining\n").with_retry_after(shared.cfg.drain_deadline)
            }
        },
        Err(_) => Response::text(503, "draining\n"),
    };
    let _ = resp.write_to(&mut stream);
}

fn worker_loop(shared: &Shared, rx: &Mutex<Receiver<TcpStream>>) {
    loop {
        let stream = {
            let guard = match rx.lock() {
                Ok(g) => g,
                Err(poisoned) => poisoned.into_inner(),
            };
            guard.recv()
        };
        let Ok(stream) = stream else {
            break; // channel closed and drained: shutdown
        };
        // RAII: the connection counts as in-flight until this guard
        // drops, panic or not — the drain loop keys off it.
        struct ConnGuard<'a>(&'a AtomicUsize);
        impl Drop for ConnGuard<'_> {
            fn drop(&mut self) {
                self.0.fetch_sub(1, Ordering::AcqRel);
            }
        }
        let _guard = ConnGuard(&shared.conn_inflight);
        handle_connection(shared, stream);
    }
}

/// Handles one connection: parse, route, evaluate, respond. Both the
/// parse and the route/eval stages run under `catch_unwind`, so a panic
/// (engine bug, armed failpoint) yields a 500 on this connection and
/// nothing else — the worker thread and its siblings keep serving.
fn handle_connection(shared: &Shared, mut stream: TcpStream) {
    let parsed = catch_unwind(AssertUnwindSafe(|| {
        failpoint::hit(Site::Parse, None);
        http::read_request(&mut stream, shared.cfg.max_request_bytes)
    }));
    let req = match parsed {
        Ok(Ok(req)) => req,
        Ok(Err(e)) => {
            let resp = match e {
                ParseError::ConnectionClosed => return, // nobody to answer
                ParseError::Timeout => Response::text(408, "request read timed out\n"),
                ParseError::TooLarge => Response::text(413, "request too large\n"),
                ParseError::Malformed(m) => Response::text(400, format!("bad request: {m}\n")),
            };
            let _ = resp.write_to(&mut stream);
            return;
        }
        Err(_panic) => {
            shared.http.panics.fetch_add(1, Ordering::Relaxed);
            // The panic fired before the request was consumed; drain it
            // (bounded by a tight timeout) so the close sends FIN, not an
            // RST that would destroy the 500 in the client's buffer.
            let _ = stream.set_read_timeout(Some(Duration::from_millis(250)));
            let _ = http::read_request(&mut stream, shared.cfg.max_request_bytes);
            let _ = Response::text(500, "internal error while parsing\n").write_to(&mut stream);
            return;
        }
    };

    shared.http.requests.fetch_add(1, Ordering::Relaxed);
    let routed = catch_unwind(AssertUnwindSafe(|| route(shared, &req)));
    let resp = match routed {
        Ok(resp) => resp,
        Err(_panic) => {
            shared.http.panics.fetch_add(1, Ordering::Relaxed);
            Response::text(500, "internal error\n")
        }
    };
    // The response write gets its own unwind scope: a panic here (armed
    // RespWrite failpoint) must not kill the worker either, though the
    // client necessarily sees a dropped connection.
    let write = catch_unwind(AssertUnwindSafe(|| {
        failpoint::hit(Site::RespWrite, None);
        resp.write_to(&mut stream)
    }));
    match write {
        Ok(_io_result) => {}
        Err(_panic) => {
            shared.http.panics.fetch_add(1, Ordering::Relaxed);
        }
    }
    // Give the peer a chance to read everything before the socket drops.
    let _ = stream.flush();
}

fn route(shared: &Shared, req: &Request) -> Response {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => Response::text(200, "ok\n"),
        ("GET", "/readyz") => {
            if shared.state() == RUNNING {
                Response::text(200, "ready\n")
            } else {
                Response::text(503, "draining\n")
            }
        }
        ("GET", "/metrics") => metrics_response(shared),
        ("GET" | "POST", "/query") => query_endpoint(shared, req, false),
        ("POST", "/query_batch") => query_endpoint(shared, req, true),
        // Known path, wrong verb → 405; unknown path → 404.
        (_, "/healthz" | "/readyz" | "/metrics" | "/query" | "/query_batch") => {
            Response::text(405, "method not allowed\n")
        }
        _ => Response::text(404, "not found\n"),
    }
}

fn metrics_response(shared: &Shared) -> Response {
    let mut body = shared.engine.metrics_text();
    body.push_str(&shared.http.render());
    Response {
        status: 200,
        content_type: "text/plain; version=0.0.4",
        retry_after_secs: None,
        body: body.into_bytes(),
    }
}

/// One parsed query request (before attr-name resolution).
struct QuerySpec {
    node: u64,
    attr: Option<String>,
    method: Method,
}

fn parse_method(name: &str) -> Result<Method, String> {
    match name {
        "codu" => Ok(Method::Codu),
        "codr" => Ok(Method::Codr),
        "codl_minus" | "codl-" => Ok(Method::CodlMinus),
        "codl" => Ok(Method::Codl),
        other => Err(format!(
            "unknown method {other:?} (expected codu|codr|codl_minus|codl)"
        )),
    }
}

fn spec_from_json(v: &Value) -> Result<QuerySpec, String> {
    let node = v
        .get("node")
        .and_then(Value::as_u64)
        .ok_or("missing or invalid \"node\"")?;
    let attr = match v.get("attr") {
        None | Some(Value::Null) => None,
        Some(a) => Some(a.as_str().ok_or("\"attr\" must be a string")?.to_owned()),
    };
    let method = match v.get("method") {
        None => Method::Codl,
        Some(m) => parse_method(m.as_str().ok_or("\"method\" must be a string")?)?,
    };
    Ok(QuerySpec { node, attr, method })
}

/// Builds the common error body: `{"error": ..., "kind": ...}` plus a
/// retry hint for overload.
fn error_json(e: &CodError) -> String {
    let kind = match e {
        CodError::InvalidQuery(_) => "invalid_query",
        CodError::GraphFormat(_) => "graph_format",
        CodError::IndexCorrupt(_) => "index_corrupt",
        CodError::Io(_) => "io",
        CodError::BudgetExhausted { .. } => "budget_exhausted",
        CodError::DeadlineExceeded => "deadline_exceeded",
        CodError::Overloaded { .. } => "overloaded",
        CodError::ReplayHalted { .. } => "replay_halted",
        CodError::Internal(_) => "internal",
    };
    let mut out = format!(
        "{{\"error\":\"{}\",\"kind\":\"{kind}\"",
        json::escape(&e.to_string())
    );
    if let CodError::Overloaded { retry_after, .. } = e {
        out.push_str(&format!(",\"retry_after_ms\":{}", retry_after.as_millis()));
    }
    out.push('}');
    out
}

/// HTTP status for an engine error (the failure-taxonomy table in
/// `DESIGN.md` §12 mirrors this mapping).
fn error_status(e: &CodError) -> u16 {
    match e {
        CodError::InvalidQuery(_) | CodError::GraphFormat(_) => 400,
        CodError::BudgetExhausted { .. } => 422,
        CodError::DeadlineExceeded => 504,
        CodError::Overloaded { .. } => 503,
        CodError::IndexCorrupt(_)
        | CodError::Io(_)
        | CodError::ReplayHalted { .. }
        | CodError::Internal(_) => 500,
    }
}

fn method_name(m: Method) -> &'static str {
    match m {
        Method::Codu => "codu",
        Method::Codr => "codr",
        Method::CodlMinus => "codl_minus",
        Method::Codl => "codl",
    }
}

fn answer_json(a: &Option<CodAnswer>) -> String {
    let Some(a) = a else {
        return "null".into();
    };
    let members: Vec<String> = a.members.iter().map(|m| m.to_string()).collect();
    let source = match a.source {
        cod_core::AnswerSource::Index => "index",
        cod_core::AnswerSource::Compressed => "compressed",
    };
    let degraded = match a.degraded {
        Some(rung) => format!("\"{}\"", method_name(rung)),
        None => "null".into(),
    };
    format!(
        "{{\"members\":[{}],\"rank\":{},\"source\":\"{source}\",\"uncertain\":{},\"degraded\":{degraded}}}",
        members.join(","),
        a.rank,
        a.uncertain,
    )
}

fn query_endpoint(shared: &Shared, req: &Request, batch: bool) -> Response {
    if shared.state() != RUNNING {
        shared.http.draining_rejects.fetch_add(1, Ordering::Relaxed);
        return Response::text(503, "draining\n").with_retry_after(shared.cfg.drain_deadline);
    }

    // Parse specs + optional deadline from the query string (single GET)
    // or the JSON body. A deadline that is present but not a
    // non-negative integer is a 400: dropping it would run the query
    // without the bound the caller asked for.
    const BAD_DEADLINE: &str = "\"deadline_ms\" must be a non-negative integer";
    let mut deadline_ms: Option<u64> = None;
    let specs: Result<Vec<QuerySpec>, String> = if req.method == "GET" && !batch {
        (|| {
            deadline_ms = req
                .query_param("deadline_ms")
                .map(|v| v.parse::<u64>().map_err(|_| BAD_DEADLINE))
                .transpose()?;
            let node = req
                .query_param("node")
                .ok_or("missing \"node\" query parameter")?
                .parse::<u64>()
                .map_err(|_| "\"node\" must be a non-negative integer".to_string())?;
            let attr = req.query_param("attr").map(str::to_owned);
            let method = match req.query_param("method") {
                None => Method::Codl,
                Some(m) => parse_method(m)?,
            };
            Ok(vec![QuerySpec { node, attr, method }])
        })()
    } else {
        (|| {
            let text =
                std::str::from_utf8(&req.body).map_err(|_| "body is not UTF-8".to_string())?;
            let v = json::parse(text).map_err(|e| format!("bad JSON: {e}"))?;
            deadline_ms = match v.get("deadline_ms") {
                None | Some(Value::Null) => None,
                Some(d) => Some(d.as_u64().ok_or(BAD_DEADLINE)?),
            };
            if batch {
                let items = v
                    .get("queries")
                    .and_then(Value::as_arr)
                    .ok_or("missing \"queries\" array")?;
                if items.is_empty() {
                    return Err("\"queries\" must not be empty".into());
                }
                items.iter().map(spec_from_json).collect()
            } else {
                Ok(vec![spec_from_json(&v)?])
            }
        })()
    };
    let specs = match specs {
        Ok(s) => s,
        Err(msg) => {
            return Response::json(
                400,
                format!(
                    "{{\"error\":\"{}\",\"kind\":\"bad_request\"}}",
                    json::escape(&msg)
                ),
            )
        }
    };

    // Resolve attributes up front so a typo is a 400, not a full
    // evaluation ending in InvalidQuery. Same ladder as the CLI: interned
    // name, then numeric id; an absent attribute defaults to the node's
    // first one (CODU ignores attributes and keeps `None`).
    let graph = shared.engine.graph();
    let interner = graph.interner();
    let mut queries: Vec<Query> = Vec::with_capacity(specs.len());
    for spec in &specs {
        let node = spec.node as cod_graph::NodeId;
        if spec.node >= graph.num_nodes() as u64 {
            return Response::json(
                400,
                format!(
                    "{{\"error\":\"node {} out of range (graph has {} nodes)\",\"kind\":\"bad_request\"}}",
                    spec.node,
                    graph.num_nodes()
                ),
            );
        }
        let attr: Option<AttrId> = match &spec.attr {
            None if spec.method == Method::Codu => None,
            None => graph.node_attrs(node).first().copied(),
            Some(name) => match interner.get(name).or_else(|| name.parse().ok()) {
                Some(id) => Some(id),
                None => {
                    return Response::json(
                        400,
                        format!(
                            "{{\"error\":\"unknown attribute {}\",\"kind\":\"bad_request\"}}",
                            json::escape(&format!("{name:?}"))
                        ),
                    )
                }
            },
        };
        queries.push(Query {
            node,
            attr,
            method: spec.method,
        });
    }

    // The request deadline maps straight into QueryLimits: the engine's
    // cooperative cancellation bounds everything past this point.
    let mut limits: QueryLimits = shared.engine.config().limits;
    let deadline = deadline_ms
        .map(Duration::from_millis)
        .or(shared.cfg.default_deadline);
    if let Some(d) = deadline {
        limits.deadline = Some(match limits.deadline {
            Some(base) => base.min(d),
            None => d,
        });
    }

    failpoint::hit(Site::PreEval, None);
    let idx = shared.req_counter.fetch_add(1, Ordering::Relaxed);
    let mut rng = SmallRng::seed_from_u64(shared.cfg.seed ^ idx.wrapping_mul(0x9e3779b97f4a7c15));
    let results = shared
        .engine
        .query_batch_with_limits(&queries, &limits, &mut rng);

    // Shedding is all-or-nothing per batch: one Overloaded means the
    // whole call was shed, and the 503 carries the engine's retry hint.
    if let Some(Err(e)) = results
        .iter()
        .find(|r| matches!(r, Err(CodError::Overloaded { .. })))
    {
        shared.http.shed_engine.fetch_add(1, Ordering::Relaxed);
        let CodError::Overloaded { retry_after, .. } = e else {
            unreachable!("find matched Overloaded above")
        };
        return Response::json(503, error_json(e)).with_retry_after(*retry_after);
    }

    if batch {
        let items: Vec<String> = results
            .iter()
            .map(|r| match r {
                Ok(a) => format!("{{\"answer\":{}}}", answer_json(a)),
                Err(e) => error_json(e),
            })
            .collect();
        Response::json(200, format!("{{\"results\":[{}]}}", items.join(",")))
    } else {
        match &results[0] {
            Ok(a) => Response::json(200, format!("{{\"answer\":{}}}", answer_json(a))),
            Err(e) => Response::json(error_status(e), error_json(e)),
        }
    }
}
