//! `serve_cora`: the production read path. The real `cod serve` binary
//! answers CODL queries over HTTP, offered as an open loop of seeded
//! Poisson arrivals, with RR pools on and the graph cache-resident.

use std::collections::HashMap;
use std::io::{BufRead as _, BufReader};
use std::net::SocketAddr;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use pcod::cod::{CodAnswer, CodConfig, CodEngine, Method, Query};
use pcod::datasets::gen_queries;
use pcod::graph::{io, AttributedGraph};
use pcod::influence::Parallelism;
use pcod::serve::json::{self, Value};
use rand::prelude::*;

use crate::hostspeed::Probe;
use crate::layers::EngineDelta;
use crate::openloop::{self, Arrival};
use crate::procfs::{self, HostCpu};
use crate::prom::Scrape;
use crate::report::{ratio, Measured};
use crate::spans::Recorder;
use crate::{cpuclock, ms_between, note_percentile, pct, stats, RunArgs, WorkDir};

/// Offered load of the open loop.
const RATE_PER_S: f64 = 100.0;
/// Client connections (and threads) the load generator uses at most.
const CONNECTIONS: usize = 2;
/// The main thread takes a memory-latency probe sample this often while
/// the client threads run, beside a server using about 15% of one CPU.
/// Sixteen samples taken while the server was idle, half before the
/// window and half after it, spread the scaled metric by 10.6% over ten
/// runs against 6.5% unscaled; samples through the window spread it by
/// 3.0% against 2.7%.
const PROBE_EVERY: Duration = Duration::from_millis(500);
/// Client threads wake this long before a request is due and spin the
/// rest, so the generator's own timer lateness stays out of latencies
/// timed from the due time.
const SPIN_BEFORE_DUE: Duration = Duration::from_micros(300);
/// Server starts per run, half before the window and half after it, so
/// they see the host at two times; `setup_s` is their median.
const SETUPS: usize = 16;
/// Warm-up: requests sent one at a time after set-up, in chunks whose
/// pool and recluster hit shares the run reports. Measured curves show both
/// shares level off by 800 requests (recluster near 0.75, bounded by the
/// cache's 64 entries; pool near 0.85, then creeping up as rare keys turn
/// up). The length is fixed rather than detected, so every run enters the
/// window in the same cache state. It is timed apart from `setup_s`
/// (`warmup_s`): 800 round trips one at a time follow host steal as the
/// window's latencies do.
const WARM_CHUNK: usize = 200;
const WARM_CHUNKS: usize = 4;
/// Seed salts: the window, the warm-up stream and the reference stay
/// disjoint streams of one benchmark seed.
const WINDOW_SALT: u64 = 0x5e_17e0;
const WARM_SALT: u64 = 0x3a_2a0f;

/// A running `cod serve` child, killed and reaped when dropped.
struct Server {
    child: Child,
    // Held open so the server never writes into a closed pipe.
    _stdout: BufReader<ChildStdout>,
    addr: SocketAddr,
}

impl Server {
    fn spawn(run: &RunArgs, edges: &str, attrs: &str) -> Result<Server, String> {
        let mut cmd = Command::new(&run.cod);
        cmd.args(["serve", "--edges", edges, "--attrs", attrs])
            .args([
                "--seed",
                &crate::DATASET_SEED.to_string(),
                "--threads",
                "1",
                "--pool",
            ])
            .args(["--workers", "2", "--addr", "127.0.0.1:0"]);
        if run.trace {
            cmd.arg("--trace");
        }
        let mut child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", run.cod.display()))?;
        let Some(stdout) = child.stdout.take() else {
            let _ = child.kill();
            let _ = child.wait();
            return Err("cod serve has no stdout pipe".into());
        };
        let mut server = Server {
            child,
            _stdout: BufReader::new(stdout),
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        let mut line = String::new();
        loop {
            line.clear();
            let n = server
                ._stdout
                .read_line(&mut line)
                .map_err(|e| format!("reading cod serve output: {e}"))?;
            if n == 0 {
                return Err("cod serve exited before listening".into());
            }
            if let Some(addr) = line.trim().split("http://").nth(1) {
                server.addr = addr
                    .parse()
                    .map_err(|_| format!("bad listen address in {line:?}"))?;
                return Ok(server);
            }
        }
    }

    fn wait_ready(&self) -> Result<(), String> {
        let give_up = Instant::now() + Duration::from_secs(30);
        loop {
            if let Ok(r) = crate::http::get(self.addr, "/readyz") {
                if r.status == 200 {
                    return Ok(());
                }
            }
            if Instant::now() > give_up {
                return Err("cod serve never became ready".into());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    fn scrape(&self) -> Result<Scrape, String> {
        let r = crate::http::get(self.addr, "/metrics").map_err(|e| format!("/metrics: {e}"))?;
        if r.status != 200 {
            return Err(format!("/metrics answered {}", r.status));
        }
        Scrape::parse(&String::from_utf8_lossy(&r.body))
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One answered (or failed) request.
struct Sent {
    node: u32,
    attr: u32,
    due: Instant,
    send: Instant,
    done: Instant,
    /// HTTP status, or 0 when the connection itself failed.
    status: u16,
    body: Vec<u8>,
}

/// The parts of a served answer the reference comparison checks.
#[derive(Debug, PartialEq)]
struct Served {
    members: Vec<u32>,
    rank: usize,
    source: String,
    uncertain: bool,
}

/// Parses a `/query` body: `Ok(None)` is a valid "no community" answer;
/// a degraded answer is an error (a query limit fired).
fn parse_answer(body: &[u8]) -> Result<Option<Served>, String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8")?;
    let v = json::parse(text)?;
    let a = v.get("answer").ok_or("no \"answer\" member")?;
    if *a == Value::Null {
        return Ok(None);
    }
    if a.get("degraded").is_some_and(|d| *d != Value::Null) {
        return Err("degraded answer".into());
    }
    let members = a
        .get("members")
        .and_then(Value::as_arr)
        .ok_or("no members")?
        .iter()
        .map(|m| m.as_u64().map(|m| m as u32).ok_or("bad member"))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Some(Served {
        members,
        rank: a.get("rank").and_then(Value::as_u64).ok_or("no rank")? as usize,
        source: a
            .get("source")
            .and_then(Value::as_str)
            .ok_or("no source")?
            .to_string(),
        uncertain: a.get("uncertain") == Some(&Value::Bool(true)),
    }))
}

fn expected(a: &Option<CodAnswer>) -> Option<Served> {
    a.as_ref().map(|a| Served {
        members: a.members.clone(),
        rank: a.rank,
        source: match a.source {
            pcod::cod::AnswerSource::Index => "index".into(),
            pcod::cod::AnswerSource::Compressed => "compressed".into(),
        },
        uncertain: a.uncertain,
    })
}

fn query_path(g: &AttributedGraph, node: u32, attr: u32) -> String {
    let name = g
        .interner()
        .name(attr)
        .map_or(attr.to_string(), str::to_string);
    format!("/query?node={node}&attr={name}")
}

/// Sends one query and records it against the time it was due.
fn send(addr: SocketAddr, g: &AttributedGraph, node: u32, attr: u32, due: Instant) -> Sent {
    let path = query_path(g, node, attr);
    let send = Instant::now();
    let reply = crate::http::get(addr, &path);
    let done = Instant::now();
    let (status, body) = reply.map_or((0, Vec::new()), |r| (r.status, r.body));
    Sent {
        node,
        attr,
        due,
        send,
        done,
        status,
        body,
    }
}

/// The open loop: each of `CONNECTIONS` client threads takes the next
/// scheduled request, waits for its due time and sends it, so at most
/// that many requests are in flight and a stall makes later ones late.
/// Meanwhile the calling thread samples the memory-latency probe.
fn open_loop(
    addr: SocketAddr,
    g: &AttributedGraph,
    sched: &[Arrival],
    t0: Instant,
    probe: &mut Probe,
) -> Result<Vec<Sent>, String> {
    let next = AtomicUsize::new(0);
    std::thread::scope(|s| {
        let clients: Vec<_> = (0..CONNECTIONS)
            .map(|_| {
                s.spawn(|| {
                    let mut out = Vec::new();
                    while let Some(a) = sched.get(next.fetch_add(1, Ordering::Relaxed)) {
                        let due = t0 + a.due;
                        let early = due.checked_sub(SPIN_BEFORE_DUE).unwrap_or(due);
                        std::thread::sleep(early.saturating_duration_since(Instant::now()));
                        while Instant::now() < due {
                            std::hint::spin_loop();
                        }
                        out.push(send(addr, g, a.node, a.attr, due));
                    }
                    out
                })
            })
            .collect();
        let mut sampled = Ok(());
        while sampled.is_ok() && clients.iter().any(|c| !c.is_finished()) {
            std::thread::sleep(PROBE_EVERY);
            sampled = probe.sample();
        }
        let sent = clients
            .into_iter()
            .flat_map(|c| c.join().expect("client thread panicked"))
            .collect();
        sampled.map(|()| sent)
    })
}

/// A started server: `/readyz` answered 200 and so did the first query.
struct Started {
    server: Server,
    /// CPU seconds of the `cod serve` child from its start to the first
    /// answer, and the wall seconds from spawn to that answer.
    setup_s: f64,
    setup_wall_s: f64,
    first: Sent,
    /// The first query's `himor_build` phase (0 untraced: untraced
    /// servers time no phases).
    himor_build_s: f64,
    after_first: Scrape,
}

/// Set-up: spawn → `/readyz` 200 → first query answered. The first query
/// goes out alone: the lazy HIMOR build draws its seed from the RNG of the
/// server's first query, so this fixes the index every later answer uses,
/// and the query's time is mostly that build.
fn start(
    run: &RunArgs,
    g: &AttributedGraph,
    files: (&str, &str),
    (node, attr): (u32, u32),
    spans: &mut Recorder,
) -> Result<Started, String> {
    let t0 = Instant::now();
    let server = Server::spawn(run, files.0, files.1)?;
    server.wait_ready()?;
    let ready = Instant::now();
    let first = send(server.addr, g, node, attr, ready);
    let end = Instant::now();
    let setup_s = cpuclock::process_cpu_s(server.child.id())?;
    let setup = spans.record("setup", None, 0, t0, end);
    spans.record("spawn_ready", Some(setup), 0, t0, ready);
    spans.record("first_query", Some(setup), 0, ready, end);
    let after_first = server.scrape()?;
    Ok(Started {
        himor_build_s: after_first.get("cod_phase_seconds_total{phase=\"himor_build\"}"),
        server,
        setup_s,
        setup_wall_s: (end - t0).as_secs_f64(),
        first,
        after_first,
    })
}

/// The warm-up's requests, each chunk's pool and recluster hit shares, and
/// its length in seconds.
struct Warm {
    sent: Vec<Sent>,
    shares: Vec<(f64, f64)>,
    secs: f64,
}

/// Warm-up before the window, on the server the window uses: the stream's
/// requests one at a time, in chunks whose pool and recluster hit shares
/// the run reports.
fn warm_up(
    started: &Started,
    g: &AttributedGraph,
    stream: &[(u32, u32)],
    spans: &mut Recorder,
) -> Result<Warm, String> {
    let server = &started.server;
    let t0 = Instant::now();
    let mut sent = Vec::with_capacity(stream.len());
    let mut before = started.after_first.clone();
    let mut shares = Vec::new();
    for chunk in stream.chunks(WARM_CHUNK) {
        for &(node, attr) in chunk {
            sent.push(send(server.addr, g, node, attr, Instant::now()));
        }
        let after = server.scrape()?;
        shares.push(EngineDelta::from_scrapes(&before, &after).cache_shares());
        before = after;
    }
    let end = Instant::now();
    spans.record("warmup", None, 0, t0, end);
    Ok(Warm {
        sent,
        shares,
        secs: (end - t0).as_secs_f64(),
    })
}

pub fn run(run: &RunArgs) -> Result<Measured, String> {
    let work = WorkDir::new("serve_cora")?;
    let edges = work.path().join("edges.txt");
    let attrs = work.path().join("attrs.txt");
    {
        let d = pcod::datasets::cora_like(crate::DATASET_SEED);
        let file = |p: &std::path::Path| {
            std::fs::File::create(p).map_err(|e| format!("{}: {e}", p.display()))
        };
        io::write_edge_list(d.graph.csr(), file(&edges)?).map_err(|e| e.to_string())?;
        io::write_attr_list(&d.graph, file(&attrs)?).map_err(|e| e.to_string())?;
    }
    // The graph exactly as the server loads it, so attribute ids agree.
    let g = io::load_attributed(&edges, Some(&attrs)).map_err(|e| e.to_string())?;
    let files = (
        edges.to_str().ok_or("non-UTF-8 work path")?,
        attrs.to_str().ok_or("non-UTF-8 work path")?,
    );

    let mut probe = Probe::spawn()?;
    let origin = Instant::now();
    let mut spans = Recorder::new(origin);
    // Set-up's first query is drawn from the dataset seed, so every run
    // sets up with the same work; the warm-up stream from the run seed.
    let first_query = gen_queries(
        &g,
        1,
        &mut SmallRng::seed_from_u64(crate::DATASET_SEED ^ WARM_SALT),
    )[0];
    let mut rng = SmallRng::seed_from_u64(run.seed ^ WARM_SALT);
    let stream = gen_queries(&g, WARM_CHUNK * WARM_CHUNKS, &mut rng);
    let mut setups = Vec::new();
    let mut setups_wall = Vec::new();
    let mut started = None;
    for _ in 0..SETUPS / 2 {
        // Stop the previous server before starting the next.
        drop(started.take());
        let s = start(run, &g, files, first_query, &mut spans)?;
        setups.push(s.setup_s);
        setups_wall.push(s.setup_wall_s);
        started = Some(s);
    }
    let started = started.expect("SETUPS > 1");
    let warm = warm_up(&started, &g, &stream, &mut spans)?;
    let Started {
        server,
        first,
        himor_build_s,
        ..
    } = started;
    let warm_sent: Vec<Sent> = std::iter::once(first).chain(warm.sent).collect();

    let sched = openloop::schedule(
        &g,
        RATE_PER_S,
        Duration::from_secs(run.seconds),
        run.seed ^ WINDOW_SALT,
    );
    let pid = server.child.id();
    let m0 = server.scrape()?;
    let host0 = HostCpu::read()?;
    let cpu0 = cpuclock::process_cpu_s(pid)?;
    let t0 = Instant::now() + Duration::from_millis(2);
    let sent = open_loop(server.addr, &g, &sched, t0, &mut probe)?;
    let t1 = Instant::now();
    let cpu1 = cpuclock::process_cpu_s(pid)?;
    let host1 = HostCpu::read()?;
    let rss = procfs::peak_rss_mib(&pid.to_string())?;
    let m1 = server.scrape()?;
    drop(server);
    for _ in SETUPS / 2..SETUPS {
        let s = start(run, &g, files, first_query, &mut spans)?;
        setups.push(s.setup_s);
        setups_wall.push(s.setup_wall_s);
    }

    // Every answer, warm-up included, against an in-process engine built
    // from the same files, config and seed. Pooled seeded answers do not
    // depend on request order; the index seed is the first request's.
    let reference = CodEngine::new(
        g,
        CodConfig {
            parallelism: Parallelism::Threads(1),
            pool: true,
            ..CodConfig::default()
        },
    );
    reference.ensure_himor(&mut SmallRng::seed_from_u64(crate::DATASET_SEED));
    let mut want: HashMap<(u32, u32), Result<Option<Served>, String>> = HashMap::new();
    let mut rng = SmallRng::seed_from_u64(run.seed);
    let mut correct = true;
    let mut failed = 0u64;
    let mut uncertain = 0u64;
    let mut latency = Vec::new();
    let mut lateness = Vec::new();
    let mut client_ms = 0.0;
    for (i, s) in warm_sent.iter().chain(&sent).enumerate() {
        let in_window = i >= warm_sent.len();
        let got = match (s.status, parse_answer(&s.body)) {
            (200, Ok(a)) => a,
            (status, outcome) => {
                if !in_window {
                    return Err(format!(
                        "warm-up request failed: status {status}, {outcome:?}"
                    ));
                }
                failed += 1;
                continue;
            }
        };
        let expect = want.entry((s.node, s.attr)).or_insert_with(|| {
            let q = Query::new(s.node, s.attr, Method::Codl);
            reference
                .query(q, &mut rng)
                .map(|a| expected(&a))
                .map_err(|e| e.to_string())
        });
        if expect.as_ref() != Ok(&got) {
            if correct {
                eprintln!(
                    "mismatch: node {} attr {}: served {got:?}, reference {expect:?}",
                    s.node, s.attr
                );
            }
            correct = false;
        }
        uncertain += got.as_ref().is_some_and(|a| a.uncertain) as u64;
        if in_window {
            latency.push(ms_between(s.due, s.done));
            lateness.push(ms_between(s.due, s.send));
            client_ms += ms_between(s.send, s.done);
        }
    }

    let answered = sent.len() as u64 - failed;
    let mut m = Measured {
        attempted: sent.len() as u64,
        failed,
        correct,
        ..Measured::default()
    };
    let mut valid = true;
    let p50 = pct(&latency, 50.0, "latency")?;
    let p90 = pct(&latency, 90.0, "latency")?;
    note_percentile(&mut m, &mut valid, "query_p50_ms", &p50);
    note_percentile(&mut m, &mut valid, "query_p90_ms", &p90);
    // An operation is one answered query. `setup_s` is CPU time: one
    // set-up took 0.115-0.15 s of wall time at 0-7% host steal and up to
    // 0.26 s at 20-30%, while its CPU time stayed within 0.11-0.17 s.
    let cpu_ms_per_op = (cpu1 - cpu0) * 1e3 / answered.max(1) as f64;
    crate::end_to_end(&mut m, &setups, rss, cpu_ms_per_op, &probe)?;
    // Reported, not gated: the batch has no per-query latency, and these
    // follow host steal (a p50 of 1.45 ms at 1% steal is 2.5-3.5 ms at
    // 13-20%), which moved their ten-run spreads to as much as 45% and
    // 61%; see NOTES.md.
    m.meta_num("query_p50_ms", p50.value);
    m.meta_num("query_p90_ms", p90.value);
    m.meta_num("warmup_s", warm.secs);
    m.meta("valid", valid.to_string());
    m.meta_num("fail_share", ratio(failed as f64, sent.len() as f64));
    m.meta_num(
        "uncertain_share",
        ratio(uncertain as f64, (warm_sent.len() + sent.len()) as f64),
    );
    m.meta_num("steal_share", host0.steal_share_until(&host1));
    m.meta_num("lateness_p90_ms", pct(&lateness, 90.0, "lateness")?.value);
    m.meta_num("window_s", (t1 - t0).as_secs_f64());
    m.meta("setups_s", format!("{setups:?}"));
    m.meta_num(
        "setup_wall_s",
        stats::median(&setups_wall).expect("SETUPS > 1"),
    );
    m.meta("warmup_requests", warm_sent.len().to_string());
    let shares: Vec<String> = warm
        .shares
        .iter()
        .map(|(p, r)| format!("[{},{}]", crate::report::num(*p), crate::report::num(*r)))
        .collect();
    m.meta(
        "warmup_pool_recluster_shares",
        format!("[{}]", shares.join(",")),
    );

    if run.trace {
        let window = spans.record("window", None, 0, t0, t1);
        for (i, s) in sent.iter().enumerate() {
            spans.record("serve.request", Some(window), i as u64 + 1, s.send, s.done);
        }
        let engine = EngineDelta::from_scrapes(&m0, &m1);
        // Every served query is a CODL query.
        engine.record(&mut m, m0.delta(&m1, "cod_queries_total"));
        let d = |series: &str| m0.delta(&m1, series);
        m.layer(
            "serve.self_ms",
            ratio(client_ms - engine.total_ms(), answered as f64),
        );
        m.layer(
            "serve.shed_share",
            ratio(
                d("cod_http_shed_socket_total") + d("cod_http_shed_engine_total"),
                d("cod_http_requests_total"),
            ),
        );
        m.layer("himor.build_s", himor_build_s);
        m.layer(
            "pool.resident_mb",
            m1.get("cod_pool_cache_resident_bytes") / (1024.0 * 1024.0),
        );
        crate::finish_trace(run, &spans, &mut m)?;
    }
    Ok(m)
}
