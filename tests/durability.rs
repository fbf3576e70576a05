//! Crash-safety suite for the durability tier (DESIGN.md §16).
//!
//! The contract under test:
//!
//! * a crash injected at **every** durability failpoint site
//!   (`wal_append`, `wal_fsync`, `checkpoint_commit`, `manifest_swap`)
//!   leaves a directory that recovers to a state **bit-identical** to a
//!   clean replay of the recovered event prefix — at 1, 2 and 8 threads;
//! * a `kill -9` of a child `cod` process (mid-mutation and mid-serve)
//!   leaves a recoverable directory with the same bit-identity property;
//! * stale atomic-save temp files from dead processes are swept on open,
//!   while live processes' temp files are left alone;
//! * `cod mutate` reports the exact partial-apply position when a replay
//!   halts mid-log.
//!
//! Failpoint state is process-global, so the injection tests serialize
//! behind one lock and gate on `failpoint::compiled_in()`.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use pcod::cod::failpoint::{self, Action, DURABILITY_SITES};
use pcod::cod::{serialize_artifacts, DurabilityConfig, DurableCod, DynamicCod};
use pcod::prelude::*;
use rand::prelude::*;

static LOCK: Mutex<()> = Mutex::new(());

fn guard() -> std::sync::MutexGuard<'static, ()> {
    match LOCK.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

fn tmp_dir(tag: &str) -> PathBuf {
    static SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let seq = SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let p = std::env::temp_dir().join(format!("cod_dur_{tag}_{}_{seq}", std::process::id()));
    std::fs::create_dir_all(&p).expect("mkdir");
    p
}

/// A small two-community graph with three attributes — big enough that
/// mutations actually reshape the hierarchy, small enough for debug-mode
/// rebuilds per recovery.
fn graph() -> AttributedGraph {
    let n = 16usize;
    let mut b = GraphBuilder::new(n);
    for v in 0..8u32 {
        b.add_edge(v, (v + 1) % 8);
    }
    for v in 8..16u32 {
        b.add_edge(v, 8 + (v + 1) % 8);
    }
    b.add_edge(0, 8);
    b.add_edge(3, 12);
    let attrs = cod_attr_table(n);
    let mut interner = pcod::graph::AttrInterner::new();
    for name in ["A", "B", "C"] {
        interner.intern(name);
    }
    AttributedGraph::from_parts(b.build(), attrs, interner)
}

fn cod_attr_table(n: usize) -> pcod::graph::AttrTable {
    pcod::graph::AttrTable::from_lists((0..n).map(|v| vec![(v % 3) as AttrId]).collect())
}

fn cfg(threads: usize) -> CodConfig {
    CodConfig {
        k: 2,
        theta: 30,
        parallelism: Parallelism::Threads(threads),
        ..CodConfig::default()
    }
}

/// A deterministic mutation script touching both communities: edge
/// inserts, removals, and attribute edits.
fn events() -> Vec<pcod::cod::Mutation> {
    use pcod::cod::Mutation::*;
    vec![
        InsertEdge { u: 1, v: 5 },
        SetAttrs {
            node: 2,
            attrs: vec![1, 2],
        },
        InsertEdge { u: 9, v: 13 },
        RemoveEdge { u: 0, v: 8 },
        InsertEdge { u: 4, v: 11 },
        SetAttrs {
            node: 10,
            attrs: vec![0],
        },
        RemoveEdge { u: 3, v: 12 },
        InsertEdge { u: 6, v: 14 },
        SetAttrs {
            node: 15,
            attrs: vec![2, 0],
        },
        InsertEdge { u: 2, v: 13 },
    ]
}

const SEED: u64 = 0xD0_0D;

/// The canonical byte image of a clean, never-crashed replay of
/// `events()[..prefix]` on a fresh engine.
fn clean_replay_bytes(prefix: usize, threads: usize) -> Vec<u8> {
    let g = graph();
    let mut d = DynamicCod::with_seed(&g, cfg(threads), SEED).unwrap();
    for m in &events()[..prefix] {
        d.apply(m).expect("clean apply");
    }
    let (g, dendro, index) = d.artifacts().expect("clean artifacts");
    serialize_artifacts(g, dendro, index).expect("clean serialize")
}

/// Crash (panic) injected at every durability failpoint site: the
/// directory left behind recovers, and the recovered artifacts are
/// bit-identical to a clean replay of the recovered prefix — at 1, 2 and
/// 8 threads.
#[test]
fn crash_at_every_durability_site_recovers_bit_identical() {
    if !failpoint::compiled_in() {
        return;
    }
    let _g = guard();
    failpoint::disarm_all();
    let evs = events();

    for site in DURABILITY_SITES {
        let dir = tmp_dir("site");
        let dcfg = DurabilityConfig {
            // Low thresholds so the checkpoint sites fire mid-script, and
            // fsync-per-record so the wal_fsync site fires on a schedule
            // the test controls rather than the group-commit clock.
            checkpoint_every_events: 4,
            fsync: pcod::cod::FsyncPolicy::Always,
            ..DurabilityConfig::default()
        };
        let mut d = DurableCod::create(&dir, &graph(), cfg(1), SEED, dcfg).expect("create");
        // A clean warm-up prefix, then arm the site and push the rest of
        // the script into the crash.
        for m in &evs[..2] {
            d.apply(m).expect("warm-up apply");
        }
        failpoint::arm(site, Action::Panic);
        let crashed = catch_unwind(AssertUnwindSafe(|| {
            for m in &evs[2..] {
                d.apply(m).map_err(|e| e.to_string()).expect("apply");
            }
            // Sites on the checkpoint path may survive the whole script
            // if no threshold tripped — force one.
            d.checkpoint().expect("checkpoint");
        }))
        .is_err();
        failpoint::disarm_all();
        drop(d); // the "crash": the process state is gone, the disk stays
        assert!(
            crashed,
            "{site:?} armed with Panic must crash the durable pipeline"
        );

        let mut images = Vec::new();
        let mut prefix = None;
        for threads in [1usize, 2, 8] {
            let (mut back, report) = DurableCod::open(&dir, cfg(threads), dcfg)
                .unwrap_or_else(|e| panic!("recovery after {site:?} crash failed: {e}"));
            let p = back.events_total() as usize;
            assert!(
                p >= 2,
                "{site:?}: the warm-up prefix was durable (got {p} events)"
            );
            assert_eq!(
                *prefix.get_or_insert(p),
                p,
                "{site:?}: recovery must replay the same prefix at every thread count"
            );
            assert_eq!(
                report.checkpoint_events + report.replayed,
                p as u64,
                "{site:?}: checkpoint + replay accounts for every event"
            );
            images.push(back.snapshot_bytes().expect("recovered snapshot"));
        }
        assert_eq!(
            images[0], images[1],
            "{site:?}: recovery at 1 and 2 threads diverged"
        );
        assert_eq!(
            images[0], images[2],
            "{site:?}: recovery at 1 and 8 threads diverged"
        );
        let prefix = prefix.unwrap_or(0);
        assert_eq!(
            images[0],
            clean_replay_bytes(prefix, 1),
            "{site:?}: recovered state != clean replay of {prefix} event(s)"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Recovery replays through the same engine telemetry: the registry of a
/// recovered engine carries `cod_recovery_*` counters.
#[test]
fn recovery_metrics_flow_into_the_engine_registry() {
    let _g = guard();
    failpoint::disarm_all();
    let dir = tmp_dir("metrics");
    let mut d =
        DurableCod::create(&dir, &graph(), cfg(1), SEED, DurabilityConfig::default()).unwrap();
    for m in &events()[..4] {
        d.apply(m).unwrap();
    }
    d.flush_wal().unwrap();
    let appended = d.metrics_snapshot().wal_appended_records;
    assert_eq!(appended, 4, "every event leaves exactly one WAL record");
    assert!(d.metrics_snapshot().wal_fsyncs >= 1, "flush_wal fsyncs");
    drop(d);

    let (back, report) = DurableCod::open(&dir, cfg(1), DurabilityConfig::default()).unwrap();
    assert_eq!(report.replayed, 4);
    let snap = back.metrics_snapshot();
    assert_eq!(snap.recovery_replayed_records, 4);
    assert!(snap.recovery_nanos > 0, "recovery wall time was recorded");
    std::fs::remove_dir_all(&dir).ok();
}

/// `COD_FAILPOINTS=all` (the CI chaos leg) injects a 1ms delay at every
/// site, so a preset-sized index build takes minutes there.
fn chaos_armed() -> bool {
    std::env::var_os("COD_FAILPOINTS").is_some()
}

/// Live ≡ reopened after repairs: single edge events on a preset-sized
/// graph each flush as a repair (the 16-node graph above crosses the 2%
/// rebuild threshold on every edit), and the live snapshot must equal
/// that of the reopened directory, whose recovery rebuilds from the WAL.
/// A repair whose dendrogram kept its own merge numbering fails here even
/// when its community families match the rebuild's.
#[test]
fn repaired_live_state_equals_reopened_state() {
    use pcod::cod::dynamic::FlushOutcome;
    use pcod::cod::Mutation::InsertEdge;

    let _g = guard();
    failpoint::disarm_all();
    // The chaos leg shrinks the graph; 148 edges still put the threshold
    // above one edit, so single events keep repairing.
    let (data, evs) = if chaos_armed() {
        let evs = [(1, 41), (2, 42), (5, 20)];
        (pcod::datasets::amazon_like_scaled(60, 3), evs)
    } else {
        let evs = [(5, 2000), (1, 101), (2, 102)];
        (pcod::datasets::cora_like(1), evs)
    };
    let cfg = CodConfig { theta: 2, ..cfg(1) };
    let dcfg = DurabilityConfig::default();
    let dir = tmp_dir("live");
    let mut d = DurableCod::create(&dir, &data.graph, cfg, SEED, dcfg).unwrap();
    for (u, v) in evs {
        assert!(d.apply(&InsertEdge { u, v }).unwrap(), "add {u} {v}");
        let rep = d.flush().unwrap();
        assert!(
            matches!(rep.outcome, FlushOutcome::Repaired { .. }),
            "add {u} {v}: {rep:?}"
        );
    }
    d.flush_wal().unwrap();
    let live = d.snapshot_bytes().unwrap();
    drop(d);

    let (mut back, report) = DurableCod::open(&dir, cfg, dcfg).unwrap();
    assert_eq!(report.replayed, evs.len() as u64);
    assert!(
        back.snapshot_bytes().unwrap() == live,
        "reopened state differs from the live repaired state"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// `kill -9` of a child `cod mutate --wal` mid-replay: whatever prefix
/// made it to disk recovers bit-identically to a clean replay of that
/// prefix, at multiple thread counts.
#[test]
fn kill_nine_mid_mutation_recovers_bit_identical() {
    let _g = guard();
    failpoint::disarm_all();
    let work = tmp_dir("kill9");
    let dir = work.join("state");
    let edges = work.join("edges.txt");
    let attrs = work.join("attrs.txt");
    let log = work.join("log.txt");
    let g = graph();
    pcod::graph::io::write_edge_list(g.csr(), std::fs::File::create(&edges).unwrap()).unwrap();
    pcod::graph::io::write_attr_list(&g, std::fs::File::create(&attrs).unwrap()).unwrap();
    // Use the shared event script so the clean-replay oracle applies; the
    // graph reloaded from the files round-trips bit-identically (asserted
    // below before any crash is staged).
    let mut log_text = String::new();
    for m in events() {
        match m {
            pcod::cod::Mutation::InsertEdge { u, v } => {
                log_text.push_str(&format!("add {u} {v}\n"))
            }
            pcod::cod::Mutation::RemoveEdge { u, v } => {
                log_text.push_str(&format!("del {u} {v}\n"))
            }
            pcod::cod::Mutation::SetAttrs { node, attrs } => log_text.push_str(&format!(
                "attrs {node} {}\n",
                attrs
                    .iter()
                    .map(|a| a.to_string())
                    .collect::<Vec<_>>()
                    .join(",")
            )),
        }
    }
    std::fs::write(&log, log_text).unwrap();
    let reloaded = pcod::graph::io::load_attributed(&edges, Some(&attrs)).unwrap();
    assert_eq!(
        serialize_graph_for_test(&reloaded),
        serialize_graph_for_test(&g),
        "file round-trip must reproduce the in-memory graph"
    );

    let mut child = std::process::Command::new(cod_bin())
        .args([
            "mutate",
            "--edges",
            edges.to_str().unwrap(),
            "--attrs",
            attrs.to_str().unwrap(),
            "--log",
            log.to_str().unwrap(),
            "--wal",
            dir.to_str().unwrap(),
            "--fsync",
            "always",
            "--seed",
            "53261", // 0xD00D
            "--theta",
            "30",
            "--k",
            "2",
        ])
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn cod mutate");
    // Wait for the durable directory to materialize, give the replay a
    // moment to make progress, then kill -9.
    let deadline = Instant::now() + Duration::from_secs(60);
    while !dir.join("MANIFEST").exists() && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(
        dir.join("MANIFEST").exists(),
        "child never created the durable directory"
    );
    std::thread::sleep(Duration::from_millis(150));
    let _ = child.kill(); // SIGKILL on unix
    let _ = child.wait();

    let mut images = Vec::new();
    let mut prefix = None;
    for threads in [1usize, 2] {
        let (mut back, _report) = DurableCod::open(&dir, cfg(threads), DurabilityConfig::default())
            .expect("post-kill recovery");
        let p = back.events_total() as usize;
        assert_eq!(*prefix.get_or_insert(p), p);
        images.push(back.snapshot_bytes().unwrap());
    }
    assert_eq!(
        images[0], images[1],
        "thread-count divergence after kill -9"
    );
    let prefix = prefix.unwrap_or(0);
    assert_eq!(
        images[0],
        clean_replay_bytes(prefix, 1),
        "post-kill recovery != clean replay of the durable prefix ({prefix} events)"
    );
    std::fs::remove_dir_all(&work).ok();
}

/// `kill -9` of a child `cod serve --wal` after it finished recovering:
/// `/readyz` flips RECOVERING→ready during startup, the kill leaves the
/// WAL directory untouched, and it recovers bit-identically afterwards.
#[test]
fn kill_nine_of_recovered_serve_leaves_state_intact() {
    let _g = guard();
    failpoint::disarm_all();
    let dir = tmp_dir("serve9");
    let mut d =
        DurableCod::create(&dir, &graph(), cfg(1), SEED, DurabilityConfig::default()).unwrap();
    for m in &events()[..5] {
        d.apply(m).unwrap();
    }
    d.flush_wal().unwrap();
    let before = d.snapshot_bytes().unwrap();
    drop(d);

    let mut child = std::process::Command::new(cod_bin())
        .args([
            "serve",
            "--wal",
            dir.to_str().unwrap(),
            "--addr",
            "127.0.0.1:0",
            "--theta",
            "30",
            "--k",
            "2",
            "--seed",
            "53261",
            "--pool",
        ])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn cod serve");
    // The recovering front prints its address immediately.
    let addr = {
        use std::io::BufRead as _;
        let stdout = child.stdout.take().expect("piped stdout");
        let mut lines = std::io::BufReader::new(stdout).lines();
        let line = lines
            .next()
            .expect("serve printed nothing")
            .expect("read serve stdout");
        line.rsplit("http://")
            .next()
            .expect("address in startup line")
            .trim()
            .to_string()
    };
    // Poll /readyz until recovery completes (200 ready); 503 RECOVERING
    // answers in between prove the probe surface is up throughout.
    let deadline = Instant::now() + Duration::from_secs(120);
    let mut saw_ready = false;
    while Instant::now() < deadline {
        match http_get(&addr, "/readyz") {
            Ok((200, body)) => {
                assert_eq!(body, "ready\n");
                saw_ready = true;
                break;
            }
            Ok((503, body)) => {
                assert!(
                    body.contains("RECOVERING"),
                    "pre-ready 503 must say RECOVERING, got {body:?}"
                );
            }
            Ok((s, b)) => panic!("unexpected /readyz answer {s}: {b:?}"),
            Err(_) => {} // listener racing up
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(saw_ready, "serve never became ready");
    // Recovered serving exposes the recovery counters.
    let (s, metrics) = http_get(&addr, "/metrics").expect("metrics");
    assert_eq!(s, 200);
    assert!(
        metrics.contains("cod_recovery_replayed_records_total 5"),
        "recovered serve must export its replay count"
    );
    // The recovered engine answers as an engine over the durable state's
    // bytes with the same config. Pooled samples derive from the pool key,
    // not from the per-request RNG, so the answers must agree exactly.
    let arts = pcod::cod::MappedArtifacts::from_vec(before.clone()).unwrap();
    let reference = CodEngine::from_mapped(
        &arts,
        CodConfig {
            pool: true,
            ..cfg(1)
        },
    )
    .unwrap();
    for node in [0, 3, 8, 12, 15] {
        let (s, body) = http_get(&addr, &format!("/query?node={node}&method=codu")).expect("query");
        assert_eq!(s, 200, "node {node}: {body}");
        let expected = reference
            .query(Query::codu(node), &mut SmallRng::seed_from_u64(1))
            .unwrap();
        match expected {
            None => assert_eq!(body, "{\"answer\":null}", "node {node}"),
            Some(a) => {
                let members: Vec<String> = a.members.iter().map(|m| m.to_string()).collect();
                let head = format!(
                    "{{\"answer\":{{\"members\":[{}],\"rank\":{},",
                    members.join(","),
                    a.rank
                );
                assert!(
                    body.starts_with(&head),
                    "node {node}: served {body}, expected {head}…"
                );
            }
        }
    }
    let _ = child.kill();
    let _ = child.wait();

    let (mut back, report) =
        DurableCod::open(&dir, cfg(1), DurabilityConfig::default()).expect("post-kill open");
    assert_eq!(report.replayed, 5, "serving must not consume the WAL");
    assert_eq!(
        back.snapshot_bytes().unwrap(),
        before,
        "kill -9 of a read-only server must not perturb durable state"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Stale temp-sibling files from dead writers are swept; files of live
/// processes (and unparsable names) survive.
#[test]
fn stale_temp_files_are_swept_and_live_ones_kept() {
    if !std::path::Path::new("/proc").is_dir() {
        return; // the sweep is deliberately conservative without procfs
    }
    let dir = tmp_dir("sweep");
    // A provably dead pid: a child that has already exited and been reaped.
    let dead_pid = {
        let mut c = std::process::Command::new("true").spawn().expect("spawn");
        let pid = c.id();
        c.wait().expect("reap");
        pid
    };
    let me = std::process::id();
    let stale = dir.join(format!(".data.codx.tmp.{dead_pid}.0"));
    let live = dir.join(format!(".data.codx.tmp.{me}.1"));
    let odd = dir.join(".not-a-temp-file");
    std::fs::write(&stale, b"junk").unwrap();
    std::fs::write(&live, b"junk").unwrap();
    std::fs::write(&odd, b"junk").unwrap();

    let swept = pcod::cod::persist::sweep_temp_files(&dir).expect("sweep");
    assert_eq!(swept, 1, "exactly the dead writer's temp file goes");
    assert!(!stale.exists());
    assert!(live.exists(), "a live writer's temp file must survive");
    assert!(odd.exists(), "unrecognized names are not touched");
    std::fs::remove_dir_all(&dir).ok();
}

/// `cod mutate` halts with the exact partial-apply position when an event
/// in the log cannot be applied.
#[test]
fn mutate_reports_partial_apply_position() {
    let work = tmp_dir("partial");
    let edges = work.join("edges.txt");
    let attrs = work.join("attrs.txt");
    let log = work.join("log.txt");
    let g = graph();
    pcod::graph::io::write_edge_list(g.csr(), std::fs::File::create(&edges).unwrap()).unwrap();
    pcod::graph::io::write_attr_list(&g, std::fs::File::create(&attrs).unwrap()).unwrap();
    // Two good events, then an attribute edit on a node outside the graph.
    std::fs::write(&log, "add 1 5\nadd 9 13\nattrs 4096 0\n").unwrap();

    let out = std::process::Command::new(cod_bin())
        .args([
            "mutate",
            "--edges",
            edges.to_str().unwrap(),
            "--attrs",
            attrs.to_str().unwrap(),
            "--log",
            log.to_str().unwrap(),
            "--theta",
            "30",
            "--k",
            "2",
        ])
        .output()
        .expect("run cod mutate");
    assert!(!out.status.success(), "a bad event must fail the replay");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("replay halted at event 3"),
        "stderr must name the failing event, got: {stderr}"
    );
    assert!(
        stderr.contains("2 event(s) applied"),
        "stderr must report how many events landed, got: {stderr}"
    );
    std::fs::remove_dir_all(&work).ok();
}

// ---------------------------------------------------------------------
// helpers

fn cod_bin() -> PathBuf {
    // Integration tests live next to the binary under target/<profile>/.
    let mut p = std::env::current_exe().expect("test exe path");
    p.pop(); // deps/
    p.pop(); // <profile>/
    p.push(format!("cod{}", std::env::consts::EXE_SUFFIX));
    p
}

fn http_get(addr: &str, target: &str) -> std::io::Result<(u16, String)> {
    use std::io::{Read as _, Write as _};
    let mut stream = std::net::TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(20)))?;
    stream.set_write_timeout(Some(Duration::from_secs(20)))?;
    stream.write_all(
        format!("GET {target} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n").as_bytes(),
    )?;
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
    Ok((status, body.to_owned()))
}

/// A cheap structural fingerprint of a graph for the file round-trip
/// sanity check (edge set + attribute lists).
fn serialize_graph_for_test(g: &AttributedGraph) -> (Vec<(NodeId, NodeId)>, Vec<Vec<AttrId>>) {
    let mut edges: Vec<_> = g.csr().edges().collect();
    edges.sort_unstable();
    let attrs = (0..g.num_nodes() as NodeId)
        .map(|v| g.node_attrs(v).to_vec())
        .collect();
    (edges, attrs)
}
