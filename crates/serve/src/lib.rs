//! `cod-serve`: a std-only HTTP/1.1 serving tier for the COD engine.
//!
//! The engine ([`cod_core::CodEngine`]) already carries every governance
//! primitive a long-lived service needs — per-query deadlines, admission
//! control with retriable shedding, a degradation ladder, panic isolation,
//! Prometheus metrics. This crate gives it a socket. The build environment
//! is offline, so there is no tokio or hyper: a [`std::net::TcpListener`]
//! acceptor feeds a bounded queue drained by a fixed worker pool, and the
//! HTTP parsing/writing is hand-rolled in [`http`] (one request per
//! connection, `Connection: close`).
//!
//! # Endpoints
//!
//! | endpoint | method | purpose |
//! |---|---|---|
//! | `/query` | GET/POST | one COD query (query-string or JSON body) |
//! | `/query_batch` | POST | a JSON batch, one result per query |
//! | `/metrics` | GET | engine + serve Prometheus exposition |
//! | `/healthz` | GET | liveness — 200 whenever the process can answer |
//! | `/readyz` | GET | readiness — 503 once draining begins |
//!
//! # Robustness contract
//!
//! * per-connection read/write timeouts and a request-size cap;
//! * request `deadline_ms` mapped into [`cod_core::QueryLimits`], so the
//!   engine's cooperative cancellation bounds every request;
//! * overload sheds at the socket (bounded accept queue → immediate 503 +
//!   `Retry-After`) and at the engine (`CodError::Overloaded` → 503 with
//!   the error's own hint);
//! * `catch_unwind` around parse, route/eval and response-write, so one
//!   poisoned request never kills a worker or the listener;
//! * graceful shutdown: stop admitting, flip `/readyz`, drain in-flight
//!   within [`ServeConfig::drain_deadline`], then force the stragglers
//!   through the engine kill switch and join every thread.
//!
//! See `DESIGN.md` §12 for the threading model and the drain state
//! machine, and `tests/serve.rs` for the chaos suite driving all of the
//! above under armed failpoints.

pub mod http;
pub mod json;
mod server;
pub mod signal;

pub use server::{
    serve, serve_recovering, HttpStats, RecoveringServer, ServeConfig, ServerHandle, ShutdownReport,
};
