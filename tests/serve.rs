//! Serving-tier suite: endpoint contract, error mapping, overload
//! shedding, graceful drain, and chaos under armed failpoints.
//!
//! The contract under test (DESIGN.md §12):
//! * the five endpoints answer with the documented statuses, and every
//!   engine failure maps to its documented HTTP status;
//! * overload sheds with an orderly `503 + Retry-After` — never a
//!   connection reset — at both rungs (socket accept queue, engine
//!   admission control), while `/healthz` keeps answering 200;
//! * graceful drain: `/readyz` flips to 503 while the listener stays up,
//!   in-flight requests complete, new queries are refused, and a drain
//!   overrun forces stragglers through the engine kill switch as degraded
//!   answers rather than dropped connections;
//! * under `COD_FAILPOINTS=all`-style delays at every engine and serve
//!   site plus sustained overload, the tier stays responsive and recovers
//!   to a clean steady state with zero leaked admission permits.
//!
//! Failpoint state is process-global: every test serializes behind one
//! lock, and injection scenarios gate on `failpoint::compiled_in()`.

use pcod::cod::failpoint::{self, Action, Site, SERVE_SITES, SITES};
use pcod::prelude::*;
use pcod::serve::{serve, ServeConfig, ServerHandle};
use rand::prelude::*;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

static LOCK: Mutex<()> = Mutex::new(());

fn guard() -> std::sync::MutexGuard<'static, ()> {
    match LOCK.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

fn engine(max_inflight: Option<usize>) -> Arc<CodEngine> {
    let data = pcod::datasets::amazon_like_scaled(120, 8);
    let cfg = CodConfig {
        k: 3,
        theta: 10,
        max_inflight,
        ..CodConfig::default()
    };
    Arc::new(CodEngine::new(data.graph, cfg))
}

fn start(engine: Arc<CodEngine>, patch: impl FnOnce(&mut ServeConfig)) -> ServerHandle {
    let mut cfg = ServeConfig {
        default_deadline: Some(Duration::from_secs(30)),
        ..ServeConfig::default()
    };
    patch(&mut cfg);
    serve(engine, cfg).expect("bind ephemeral port")
}

/// One full `Connection: close` HTTP exchange. Returns (status, head,
/// body); `Err` means the socket itself failed (refused, reset, timeout) —
/// which the robustness contract forbids on every served path.
fn send(addr: &str, raw: &str) -> std::io::Result<(u16, String, String)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(20)))?;
    stream.set_write_timeout(Some(Duration::from_secs(20)))?;
    stream.write_all(raw.as_bytes())?;
    let mut out = String::new();
    stream.read_to_string(&mut out)?;
    let (head, body) = out
        .split_once("\r\n\r\n")
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidData, "no header end"))?;
    let status: u16 = head
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidData, "bad status"))?;
    Ok((status, head.to_owned(), body.to_owned()))
}

fn get_request(target: &str) -> String {
    format!("GET {target} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n")
}

fn post_request(target: &str, body: &str) -> String {
    format!(
        "POST {target} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
}

fn get(addr: &str, target: &str) -> std::io::Result<(u16, String, String)> {
    send(addr, &get_request(target))
}

fn post(addr: &str, target: &str, body: &str) -> std::io::Result<(u16, String, String)> {
    send(addr, &post_request(target, body))
}

fn retry_after_secs(head: &str) -> Option<u64> {
    head.lines().find_map(|l| {
        let (name, val) = l.split_once(':')?;
        name.eq_ignore_ascii_case("retry-after")
            .then(|| val.trim().parse().ok())
            .flatten()
    })
}

/// The five endpoints answer with their documented statuses and bodies.
#[test]
fn all_endpoints_answer_with_documented_statuses() {
    let _g = guard();
    failpoint::disarm_all();
    let engine = engine(None);
    let handle = start(Arc::clone(&engine), |_| {});
    let addr = handle.addr().to_string();

    let (s, _, b) = get(&addr, "/healthz").unwrap();
    assert_eq!((s, b.as_str()), (200, "ok\n"));
    let (s, _, b) = get(&addr, "/readyz").unwrap();
    assert_eq!((s, b.as_str()), (200, "ready\n"));

    let (s, _, b) = get(&addr, "/metrics").unwrap();
    assert_eq!(s, 200);
    for needle in [
        "cod_queries_total",
        "cod_uptime_seconds",
        "cod_build_info{",
        "cod_http_requests_total",
        "cod_http_shed_socket_total",
        "cod_http_worker_panics_total",
        "cod_pool_hits_total",
        "cod_pool_misses_total",
        "cod_pool_topups_total",
        "cod_pool_evicted_bytes_total",
        "cod_pool_cache_pools",
        "cod_pool_cache_epoch",
        "cod_mutations_total{kind=\"insert\"}",
        "cod_mutations_total{kind=\"set_attrs\"}",
        "cod_repairs_total",
        "cod_full_rebuilds_total",
        "cod_flush_phase_seconds_total{phase=\"repair\"}",
        "cod_flush_phase_seconds_total{phase=\"himor_patch\"}",
        "cod_pool_scoped_evictions_total",
    ] {
        assert!(b.contains(needle), "metrics missing {needle}: {b}");
    }

    let (s, _, b) = get(&addr, "/query?node=0&method=codu&deadline_ms=20000").unwrap();
    assert_eq!(s, 200, "{b}");
    assert!(b.starts_with("{\"answer\":"), "{b}");

    let (s, _, b) = post(
        &addr,
        "/query_batch",
        r#"{"queries":[{"node":0,"method":"codu"},{"node":1,"method":"codu"}],"deadline_ms":20000}"#,
    )
    .unwrap();
    assert_eq!(s, 200, "{b}");
    assert!(b.starts_with("{\"results\":["), "{b}");
    assert_eq!(
        b.matches("\"answer\"").count() + b.matches("\"error\"").count(),
        2
    );

    let report = handle.shutdown();
    assert!(report.drained_in_time);
    assert_eq!(report.http_stats.panics, 0);
    assert_eq!(engine.inflight(), 0);
}

/// Every client failure mode maps to its documented status — and the
/// mapping is exercised through real sockets, not unit calls.
#[test]
fn error_mapping_covers_the_documented_taxonomy() {
    let _g = guard();
    failpoint::disarm_all();
    let engine = engine(None);
    let handle = start(engine, |c| c.max_request_bytes = 256);
    let addr = handle.addr().to_string();

    // 404 / 405 routing.
    assert_eq!(get(&addr, "/nonsense").unwrap().0, 404);
    assert_eq!(post(&addr, "/healthz", "").unwrap().0, 405);
    assert_eq!(get(&addr, "/query_batch").unwrap().0, 405);

    // 400: malformed JSON, bad node, unknown attribute.
    assert_eq!(post(&addr, "/query", "{not json").unwrap().0, 400);
    assert_eq!(get(&addr, "/query?node=abc").unwrap().0, 400);
    let (s, _, b) = get(&addr, "/query?node=99999").unwrap();
    assert_eq!(s, 400);
    assert!(b.contains("out of range"), "{b}");
    let (s, _, b) = get(&addr, "/query?node=0&attr=no_such_attr").unwrap();
    assert_eq!(s, 400);
    assert!(b.contains("unknown attribute"), "{b}");
    // An ASCII-only client escapes a character outside the BMP as a UTF-16
    // surrogate pair; it reaches the engine as the one character.
    let (s, _, b) = post(&addr, "/query", r#"{"node":0,"attr":"\ud83d\ude80"}"#).unwrap();
    assert_eq!(s, 400);
    assert!(b.contains("unknown attribute \\\"🚀\\\""), "{b}");
    let (s, _, b) = post(&addr, "/query", r#"{"node":0,"attr":"\ud83d"}"#).unwrap();
    assert_eq!(s, 400);
    assert!(b.contains("surrogate") && b.contains("bad_request"), "{b}");
    let (s, _, b) = post(&addr, "/query_batch", r#"{"queries":[]}"#).unwrap();
    assert_eq!(s, 400, "{b}");

    // 400: a deadline that is present but not a non-negative integer is
    // rejected, not dropped (dropping it would run the query unbounded or
    // under the server default). JSON `null` means "no deadline".
    for bad in ["abc", "-5", "%22100%22", "1.5", ""] {
        let (s, _, b) = get(
            &addr,
            &format!("/query?node=0&method=codu&deadline_ms={bad}"),
        )
        .unwrap();
        assert_eq!(s, 400, "deadline_ms={bad}: {b}");
        assert!(
            b.contains("deadline_ms") && b.contains("bad_request"),
            "{b}"
        );
    }
    for bad in [r#""100""#, "-5", "1.5", "true", "[]"] {
        let body = format!(r#"{{"node":0,"method":"codu","deadline_ms":{bad}}}"#);
        let (s, _, b) = post(&addr, "/query", &body).unwrap();
        assert_eq!(s, 400, "deadline_ms {bad}: {b}");
        assert!(b.contains("deadline_ms"), "{b}");
        let batch = format!(r#"{{"queries":[{{"node":0,"method":"codu"}}],"deadline_ms":{bad}}}"#);
        assert_eq!(
            post(&addr, "/query_batch", &batch).unwrap().0,
            400,
            "{batch}"
        );
    }
    let (s, _, b) = post(
        &addr,
        "/query",
        r#"{"node":0,"method":"codu","deadline_ms":null}"#,
    )
    .unwrap();
    assert_eq!(s, 200, "{b}");
    let (s, _, b) = get(&addr, "/query?node=0&method=codu&deadline_ms=20000").unwrap();
    assert_eq!(s, 200, "{b}");

    // 413: the body cap.
    let big = format!(r#"{{"node":0,"pad":"{}"}}"#, "x".repeat(512));
    assert_eq!(post(&addr, "/query", &big).unwrap().0, 413);

    // 400 again: malformed request line.
    assert_eq!(send(&addr, "NONSENSE\r\n\r\n").unwrap().0, 400);

    handle.shutdown();
}

/// A hopeless deadline still yields an orderly answer: 200 with a
/// degraded-rung answer, or a mapped 504 — never a hang or a reset. The
/// armed sampling delay guarantees the deadline actually trips (a fast
/// index hit can legitimately beat a 1ms deadline on a tiny graph).
#[test]
fn hopeless_deadline_degrades_or_maps_to_504() {
    let _g = guard();
    if !failpoint::compiled_in() {
        return;
    }
    failpoint::disarm_all();
    failpoint::arm(Site::SampleBatch, Action::Delay(Duration::from_millis(50)));
    let engine = engine(None);
    let handle = start(engine, |_| {});
    let addr = handle.addr().to_string();
    let (s, _, b) = get(&addr, "/query?node=0&method=codr&deadline_ms=1").unwrap();
    match s {
        200 => assert!(b.contains("\"degraded\":\""), "200 without a rung tag: {b}"),
        504 => assert!(b.contains("deadline"), "{b}"),
        other => panic!("expected 200-degraded or 504, got {other}: {b}"),
    }
    failpoint::disarm_all();
    handle.shutdown();
}

/// Overload storm at both shedding rungs: a tiny accept queue and
/// `max_inflight = 1` under slow evaluations. Every request must end in an
/// orderly 200 or 503+Retry-After (no socket errors), `/healthz` must
/// answer 200 throughout, and the engine must drain to zero permits.
#[test]
fn overload_storm_sheds_orderly_while_healthz_answers() {
    let _g = guard();
    if !failpoint::compiled_in() {
        return;
    }
    failpoint::disarm_all();
    failpoint::arm(Site::EvalWorker, Action::Delay(Duration::from_millis(40)));
    let engine = engine(Some(1));
    let handle = start(Arc::clone(&engine), |c| {
        c.workers = 4;
        c.accept_queue = 2;
    });
    let addr = handle.addr().to_string();

    const STORMERS: usize = 16; // 16× the admission cap, 2+ rounds deep
    let stop = AtomicBool::new(false);
    let (served, shed) = std::thread::scope(|scope| {
        // Liveness probe: hammer /healthz for the whole storm.
        let health = {
            let (addr, stop) = (addr.clone(), &stop);
            scope.spawn(move || {
                let mut polls = 0u32;
                while !stop.load(Ordering::Relaxed) {
                    let (s, _, b) = get(&addr, "/healthz").expect("healthz socket error");
                    assert_eq!(s, 200, "healthz failed mid-storm: {b}");
                    polls += 1;
                    std::thread::sleep(Duration::from_millis(5));
                }
                polls
            })
        };
        let stormers: Vec<_> = (0..STORMERS)
            .map(|i| {
                let addr = addr.clone();
                scope.spawn(move || {
                    let node = i % 16;
                    let (s, head, b) = get(
                        &addr,
                        &format!("/query?node={node}&method=codu&deadline_ms=20000"),
                    )
                    .expect("storm request hit a socket error (reset?)");
                    match s {
                        200 => true,
                        503 => {
                            assert!(
                                retry_after_secs(&head).is_some(),
                                "503 without Retry-After: {head}"
                            );
                            assert!(b.contains("overloaded"), "{b}");
                            false
                        }
                        other => panic!("storm request got {other}: {b}"),
                    }
                })
            })
            .collect();
        let outcomes: Vec<bool> = stormers.into_iter().map(|h| h.join().unwrap()).collect();
        stop.store(true, Ordering::Relaxed);
        let polls = health.join().unwrap();
        assert!(polls > 0, "health probe never ran");
        let served = outcomes.iter().filter(|&&ok| ok).count();
        (served, outcomes.len() - served)
    });
    assert!(served > 0, "storm starved completely");
    assert!(shed > 0, "nothing shed: the storm never built pressure");

    // Recovery: disarmed, the same server answers cleanly.
    failpoint::disarm_all();
    let (s, _, b) = get(&addr, "/query?node=0&method=codu&deadline_ms=20000").unwrap();
    assert_eq!(s, 200, "no recovery after the storm: {b}");
    assert!(!b.contains("\"degraded\":\""), "{b}");

    let stats = handle.http_stats();
    assert_eq!(stats.panics, 0);
    assert!(
        stats.shed_socket + stats.shed_engine >= shed as u64,
        "client saw {shed} sheds, server recorded {stats:?}"
    );
    let report = handle.shutdown();
    assert!(report.drained_in_time);
    assert_eq!(engine.inflight(), 0, "leaked admission permit after storm");
}

/// Graceful drain, swept across worker-pool sizes: `/readyz` flips to 503
/// while the listener still answers, in-flight requests complete with
/// clean 200s, new queries are refused with 503 + Retry-After, and the
/// drain finishes inside the deadline.
#[test]
fn graceful_drain_completes_in_flight_and_refuses_new_queries() {
    let _g = guard();
    if !failpoint::compiled_in() {
        return;
    }
    for workers in [1usize, 2, 8] {
        failpoint::disarm_all();
        failpoint::arm(Site::EvalWorker, Action::Delay(Duration::from_millis(150)));
        let engine = engine(None);
        let handle = start(Arc::clone(&engine), |c| {
            c.workers = workers;
            c.drain_deadline = Duration::from_secs(10);
        });
        let addr = handle.addr().to_string();
        assert_eq!(get(&addr, "/readyz").unwrap().0, 200);

        std::thread::scope(|scope| {
            let inflight = {
                let addr = addr.clone();
                scope.spawn(move || get(&addr, "/query?node=0&method=codu&deadline_ms=20000"))
            };
            // Let the in-flight request reach its evaluation delay, then
            // start draining underneath it.
            std::thread::sleep(Duration::from_millis(50));
            handle.begin_drain();

            // The listener is still up: readyz answers — with a 503.
            let (s, _, b) = get(&addr, "/readyz").expect("listener closed during drain");
            assert_eq!((s, b.as_str()), (503, "draining\n"), "workers={workers}");
            // Health and metrics stay observable.
            assert_eq!(get(&addr, "/healthz").unwrap().0, 200);
            assert_eq!(get(&addr, "/metrics").unwrap().0, 200);
            // New queries are refused with a retriable 503.
            let (s, head, b) = get(&addr, "/query?node=1&method=codu").unwrap();
            assert_eq!(s, 503, "workers={workers}: {b}");
            assert!(retry_after_secs(&head).is_some(), "{head}");

            // The in-flight request completes cleanly during the drain.
            let (s, _, b) = inflight.join().unwrap().expect("in-flight dropped");
            assert_eq!(s, 200, "workers={workers}: {b}");
            assert!(!b.contains("\"degraded\":\""), "drain degraded it: {b}");
        });

        failpoint::disarm_all();
        let report = handle.shutdown();
        assert!(report.drained_in_time, "workers={workers}");
        assert_eq!(report.http_stats.panics, 0);
        assert!(report.http_stats.draining_rejects >= 1, "workers={workers}");
        assert_eq!(engine.inflight(), 0, "workers={workers}");
    }
}

/// Drain-deadline overrun: a straggler slower than the drain budget is
/// forced through the engine kill switch and still receives an orderly
/// response — a degraded 200 or a mapped 504, never a dropped connection.
#[test]
fn drain_overrun_degrades_stragglers_instead_of_dropping_them() {
    let _g = guard();
    if !failpoint::compiled_in() {
        return;
    }
    failpoint::disarm_all();
    failpoint::arm(Site::EvalWorker, Action::Delay(Duration::from_millis(400)));
    let engine = engine(None);
    let handle = start(Arc::clone(&engine), |c| {
        c.drain_deadline = Duration::from_millis(50);
    });
    let addr = handle.addr().to_string();

    std::thread::scope(|scope| {
        let straggler = {
            let addr = addr.clone();
            scope.spawn(move || get(&addr, "/query?node=0&method=codu&deadline_ms=60000"))
        };
        std::thread::sleep(Duration::from_millis(100));
        // Shutdown drains for 50ms, overruns, fires the kill switch, and
        // must still join every thread because the straggler degrades at
        // its next checkpoint instead of running to completion.
        let report = handle.shutdown();
        assert!(
            !report.drained_in_time,
            "straggler finished implausibly fast"
        );

        let (s, _, b) = straggler.join().unwrap().expect("straggler dropped");
        match s {
            200 => assert!(
                b.contains("\"degraded\":\"") || b.contains("\"answer\""),
                "{b}"
            ),
            504 => assert!(b.contains("deadline"), "{b}"),
            other => panic!("straggler got {other}: {b}"),
        }
    });
    failpoint::disarm_all();
    assert_eq!(engine.inflight(), 0);
}

/// An injected panic at every serve site surfaces as a 500 (or a counted
/// drop at the accept site) and never kills a worker or the acceptor: the
/// server keeps answering afterwards with zero leaked permits.
#[test]
fn panic_at_every_serve_site_is_isolated() {
    let _g = guard();
    if !failpoint::compiled_in() {
        return;
    }
    failpoint::disarm_all();
    let engine = engine(None);
    let handle = start(Arc::clone(&engine), |c| c.workers = 2);
    let addr = handle.addr().to_string();

    for site in SERVE_SITES {
        failpoint::disarm_all();
        failpoint::arm(site, Action::Panic);
        for _ in 0..3 {
            match get(&addr, "/query?node=0&method=codu&deadline_ms=20000") {
                Ok((s, _, _)) => assert_eq!(s, 500, "{site:?}: panic not mapped to 500"),
                // A panic between response-write start and flush may tear
                // the connection; the server surviving is the contract.
                Err(_) if site == Site::RespWrite => {}
                Err(e) => panic!("{site:?}: socket error instead of 500: {e}"),
            }
        }
        failpoint::disarm_all();
        let (s, _, b) = get(&addr, "/query?node=0&method=codu&deadline_ms=20000")
            .unwrap_or_else(|e| panic!("{site:?}: server dead after panics: {e}"));
        assert_eq!(s, 200, "{site:?}: no recovery: {b}");
    }

    let stats = handle.http_stats();
    assert!(stats.panics >= 9, "panics not counted: {stats:?}");
    let report = handle.shutdown();
    assert!(report.drained_in_time);
    assert_eq!(engine.inflight(), 0);
}

/// The chaos soak: 1ms delays armed at every engine **and** serve site
/// (the `COD_FAILPOINTS=all` baseline) while an open-loop storm of mixed
/// traffic — queries, batches, health probes, malformed requests — runs at
/// several times the admission cap. Every socket exchange must complete as
/// orderly HTTP, and afterwards the tier must return to a clean steady
/// state: zero inflight permits, zero worker panics, graceful drain.
#[test]
fn chaos_soak_under_global_failpoints_recovers_clean() {
    let _g = guard();
    if !failpoint::compiled_in() {
        return;
    }
    failpoint::disarm_all();
    for site in SITES.into_iter().chain(SERVE_SITES) {
        failpoint::arm(site, Action::Delay(Duration::from_millis(1)));
    }
    let engine = engine(Some(2));
    let handle = start(Arc::clone(&engine), |c| {
        c.workers = 4;
        c.accept_queue = 2;
    });
    let addr = handle.addr().to_string();

    const ROUNDS: usize = 3;
    const CLIENTS: usize = 12; // 6× the admission cap per round
    for round in 0..ROUNDS {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..CLIENTS)
                .map(|i| {
                    let addr = addr.clone();
                    scope.spawn(move || {
                        let mut rng =
                            SmallRng::seed_from_u64((round * CLIENTS + i) as u64 ^ 0xC0D);
                        match rng.random_range(0..5u32) {
                            0 => {
                                let (s, _, _) = get(&addr, "/healthz").expect("healthz io");
                                assert_eq!(s, 200, "healthz failed in chaos");
                            }
                            1 => {
                                let (s, _, _) = get(&addr, "/metrics").expect("metrics io");
                                assert!(s == 200 || s == 503, "metrics got {s}");
                            }
                            2 => {
                                let node = rng.random_range(0..120u32);
                                let (s, head, _) = get(
                                    &addr,
                                    &format!("/query?node={node}&method=codu&deadline_ms=10000"),
                                )
                                .expect("query io error in chaos");
                                assert!(s == 200 || s == 503, "query got {s}");
                                if s == 503 {
                                    assert!(retry_after_secs(&head).is_some(), "{head}");
                                }
                            }
                            3 => {
                                let (s, _, _) = post(
                                    &addr,
                                    "/query_batch",
                                    r#"{"queries":[{"node":0,"method":"codu"},{"node":7,"method":"codu"}],"deadline_ms":10000}"#,
                                )
                                .expect("batch io error in chaos");
                                assert!(s == 200 || s == 503, "batch got {s}");
                            }
                            _ => {
                                // Malformed traffic must map to 4xx, 503
                                // under overload, never tear the server.
                                let (s, _, _) =
                                    post(&addr, "/query", "{broken").expect("bad-req io");
                                assert!(s == 400 || s == 503, "malformed got {s}");
                            }
                        }
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
        });
    }

    // Recovery to steady state: disarm everything, the same server answers
    // a clean query and the engine holds zero permits.
    failpoint::disarm_all();
    let (s, _, b) = get(&addr, "/query?node=0&method=codu&deadline_ms=20000").unwrap();
    assert_eq!(s, 200, "no steady state after chaos: {b}");
    assert!(b.starts_with("{\"answer\":"), "{b}");
    assert_eq!(engine.inflight(), 0, "leaked permit after chaos soak");

    let stats = handle.http_stats();
    assert_eq!(
        stats.panics, 0,
        "delay-only chaos must not panic: {stats:?}"
    );
    let report = handle.shutdown();
    assert!(report.drained_in_time, "drain failed after chaos");
    assert_eq!(engine.inflight(), 0);
}

/// Startup recovery: while the WAL replays, the listener is already up —
/// `/readyz` answers `503 RECOVERING`, `/healthz` stays 200, queries are
/// refused — and once recovery completes the same port serves normally
/// with the `cod_recovery_*` / `cod_wal_*` series exported.
#[test]
fn recovering_server_gates_readiness_until_replay_completes() {
    let _g = guard();
    failpoint::disarm_all();
    let engine = engine(None);
    let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
    let cfg = ServeConfig {
        default_deadline: Some(Duration::from_secs(30)),
        ..ServeConfig::default()
    };
    let recovering = pcod::serve::serve_recovering(cfg, move || {
        // Stand in for WAL replay: hold recovery open until the test has
        // probed the recovering surface, then surface replay telemetry.
        release_rx.recv().ok();
        engine.record_recovery(5, 2_000_000);
        engine.record_wal_activity(5, 3);
        Ok(engine)
    })
    .expect("bind ephemeral port");
    let addr = recovering.addr().to_string();

    let (s, _, b) = get(&addr, "/readyz").unwrap();
    assert_eq!(s, 503, "not ready while recovering");
    assert!(
        b.contains("RECOVERING"),
        "readyz body must say RECOVERING: {b:?}"
    );
    let (s, _, b) = get(&addr, "/healthz").unwrap();
    assert_eq!(
        (s, b.as_str()),
        (200, "ok\n"),
        "liveness holds during recovery"
    );
    let (s, _, _) = get(&addr, "/query?node=0").unwrap();
    assert_eq!(s, 503, "queries are refused during recovery");
    let (s, _, b) = get(&addr, "/metrics").unwrap();
    assert_eq!(s, 200);
    assert!(b.contains("cod_recovering 1"), "{b}");

    release_tx.send(()).unwrap();
    let handle = recovering.wait_ready().expect("recovery completes");
    assert_eq!(
        handle.addr().to_string(),
        addr,
        "same port across promotion"
    );
    let (s, _, b) = get(&addr, "/readyz").unwrap();
    assert_eq!((s, b.as_str()), (200, "ready\n"));
    let (s, _, b) = get(&addr, "/metrics").unwrap();
    assert_eq!(s, 200);
    for needle in [
        "cod_recovery_replayed_records_total 5",
        "cod_recovery_seconds 0.002000000",
        "cod_wal_appended_records_total 5",
        "cod_wal_fsyncs_total 3",
    ] {
        assert!(b.contains(needle), "promoted /metrics missing {needle}");
    }
    let (s, _, b) = get(&addr, "/query?node=0&method=codu").unwrap();
    assert_eq!(s, 200, "promoted server must serve queries: {b}");

    let report = handle.shutdown();
    assert_eq!(report.http_stats.panics, 0);
}

/// The JSON request bodies this suite sends, plus one with multi-byte
/// characters: the corpus of the parser fuzz below.
const REQUEST_BODIES: &[&str] = &[
    r#"{"queries":[{"node":0,"method":"codu"},{"node":1,"method":"codu"}],"deadline_ms":20000}"#,
    "{not json",
    r#"{"queries":[]}"#,
    r#"{"node":0,"method":"codu","deadline_ms":"100"}"#,
    r#"{"node":0,"method":"codu","deadline_ms":-5}"#,
    r#"{"node":0,"method":"codu","deadline_ms":1.5}"#,
    r#"{"node":0,"method":"codu","deadline_ms":true}"#,
    r#"{"node":0,"method":"codu","deadline_ms":[]}"#,
    r#"{"queries":[{"node":0,"method":"codu"}],"deadline_ms":"100"}"#,
    r#"{"node":0,"method":"codu","deadline_ms":null}"#,
    r#"{"queries":[{"node":0,"method":"codu"},{"node":7,"method":"codu"}],"deadline_ms":10000}"#,
    "{broken",
    r#"{"node":3,"attr":"Datenbanken été — 数据库 🚀","method":"codl"}"#,
];

/// Every truncation and every single-bit flip (that stays valid UTF-8) of
/// every request body parses to `Ok` or `Err` — never a panic.
#[test]
fn json_truncations_and_bit_flips_never_panic() {
    use pcod::serve::json::parse;
    for body in REQUEST_BODIES {
        let bytes = body.as_bytes();
        for end in 0..=bytes.len() {
            if let Ok(prefix) = std::str::from_utf8(&bytes[..end]) {
                let _ = parse(prefix);
            }
        }
        for i in 0..bytes.len() {
            for bit in 0..8 {
                let mut flipped = bytes.to_vec();
                flipped[i] ^= 1 << bit;
                if let Ok(text) = String::from_utf8(flipped) {
                    let _ = parse(&text);
                }
            }
        }
    }
}

/// The raw requests this suite sends: every GET target it probes, every
/// JSON body above as a `/query` POST, and a malformed request line.
fn request_corpus() -> Vec<String> {
    let mut corpus: Vec<String> = [
        "/healthz",
        "/readyz",
        "/metrics",
        "/nonsense",
        "/query_batch",
        "/query?node=abc",
        "/query?node=0&attr=no_such_attr",
        "/query?node=0&method=codu&deadline_ms=20000",
    ]
    .iter()
    .map(|target| get_request(target))
    .collect();
    corpus.extend(REQUEST_BODIES.iter().map(|b| post_request("/query", b)));
    corpus.push("NONSENSE\r\n\r\n".to_string());
    corpus
}

/// Every truncation and every single-bit flip of every request parses to
/// `Ok` or a `ParseError` — never a panic — and an accepted request never
/// carries more body than the cap, which is set low enough that flipped
/// `Content-Length` digits cross it.
#[test]
fn http_truncations_and_bit_flips_never_panic() {
    use pcod::serve::http::read_request;
    const MAX_BODY: usize = 64;
    let check = |mut bytes: &[u8]| {
        if let Ok(req) = read_request(&mut bytes, MAX_BODY) {
            assert!(
                req.body.len() <= MAX_BODY,
                "buffered {} bytes",
                req.body.len()
            );
        }
    };
    for request in request_corpus() {
        let bytes = request.as_bytes();
        for end in 0..=bytes.len() {
            check(&bytes[..end]);
        }
        for i in 0..bytes.len() {
            for bit in 0..8 {
                let mut flipped = bytes.to_vec();
                flipped[i] ^= 1 << bit;
                check(&flipped);
            }
        }
    }
}

/// A 256 KiB string of two-byte characters decodes in linear time.
#[test]
fn large_non_ascii_json_string_parses_in_linear_time() {
    let value = "é".repeat(128 * 1024);
    let body = format!(r#"{{"attr":"{value}"}}"#);
    assert!(body.len() >= 256 * 1024);
    let t0 = std::time::Instant::now();
    let parsed = pcod::serve::json::parse(&body).expect("valid JSON");
    let elapsed = t0.elapsed();
    assert_eq!(
        parsed.get("attr").and_then(|v| v.as_str()),
        Some(&value[..])
    );
    assert!(elapsed < Duration::from_secs(1), "parse took {elapsed:?}");
}
