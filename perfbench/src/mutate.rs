//! `mutate_cora`: writes beside reads on the serving configuration. A
//! `DurableCod` takes a stream of edge toggles and attribute edits, each
//! made durable, then visible, then read twice; the stream's directory is
//! then reopened and the recovered state compared with the live one.

use std::path::Path;
use std::time::Instant;

use pcod::cod::{AnswerSource, CodConfig, DurabilityConfig, DurableCod, FlushOutcome, Mutation};
use pcod::datasets::gen_queries;
use pcod::graph::{AttributedGraph, NodeId};
use pcod::influence::Parallelism;
use rand::prelude::*;

use crate::hostspeed::Probe;
use crate::procfs::{self, HostCpu};
use crate::report::{ratio, Measured};
use crate::spans::Recorder;
use crate::{cpuclock, ms_between, note_percentile, pct, stats, RunArgs, WorkDir};

/// `create`s per run, half before the window and half after it, so they
/// see the host at two times; `setup_s` is their median.
const SETUPS: usize = 8;
/// Reads that warm the pools after each `create`.
const WARM_READS: usize = 32;
/// Size of the fixed read target set: small enough that every run reads
/// all of it at least once.
const READ_TARGETS: usize = 128;
/// Reads after every event.
const READS_PER_EVENT: usize = 2;
/// Every this many events, one edits attributes (20%); the rest toggle.
const ATTR_EVERY: u64 = 5;
/// Events between memory-latency probe samples: two attribute edits and
/// eight toggles, each with its reads, about a second. The window ends on
/// a chunk boundary, so every run times whole chunks of the same mix.
const CHUNK_EVENTS: u64 = 2 * ATTR_EVERY;
/// Probe samples after each chunk: about 70 in a 30-s run (see
/// `PROBES_PER_CALL` in batch.rs for the probe's own noise).
const PROBES_PER_CHUNK: usize = 2;
/// Size of the fixed toggle sets, as a share of |E| (edges) and of |V|
/// (nodes whose attributes are edited).
const TOGGLE_SET_SHARE: f64 = 0.01;
/// The benchmark checkpoints every this many events.
const CHECKPOINT_EVERY: u64 = 64;
/// Reopens per run; `recover_s` is their median.
const REOPENS: usize = 5;
const READ_SALT: u64 = 0x6d75_7401;
const EVENT_SALT: u64 = 0x6d75_7402;

fn config(trace: bool) -> (CodConfig, DurabilityConfig) {
    (
        CodConfig {
            parallelism: Parallelism::Threads(1),
            pool: true,
            trace,
            ..CodConfig::default()
        },
        // Default fsync policy; automatic checkpoints off (the stream
        // checkpoints itself every CHECKPOINT_EVERY events).
        DurabilityConfig {
            checkpoint_every_events: u64::MAX,
            checkpoint_wal_bytes: u64::MAX,
            ..DurabilityConfig::default()
        },
    )
}

/// The event stream. Every `ATTR_EVERY`-th event toggles one node of a
/// fixed node set between its own attributes and another attribute; the
/// others toggle edges of a fixed set of absent edges. Both sets are drawn
/// from the dataset seed, so every run toggles the same edges and nodes,
/// and each is visited once per round in an order drawn from the run seed.
/// Toggling keeps the graph oscillating around the dataset's own, so the
/// per-event cost stays stationary however many events a run completes,
/// and rounds give every run the same mix, so runs differ in order only.
struct Events {
    rng: SmallRng,
    edges: Rounds<(NodeId, NodeId)>,
    nodes: Rounds<(NodeId, Vec<u32>, Vec<u32>)>,
    emitted: u64,
}

/// A fixed set of toggles visited once per round in a seeded order; each
/// remembers whether it is toggled away from the dataset's state.
struct Rounds<T> {
    items: Vec<T>,
    toggled: Vec<bool>,
    order: Vec<usize>,
    next: usize,
}

impl<T> Rounds<T> {
    fn new(items: Vec<T>) -> Rounds<T> {
        Rounds {
            toggled: vec![false; items.len()],
            order: (0..items.len()).collect(),
            next: items.len(),
            items,
        }
    }

    /// The next item of the round and whether the toggle takes it away
    /// from the dataset's state.
    fn next(&mut self, rng: &mut SmallRng) -> (&T, bool) {
        if self.next == self.order.len() {
            // Fisher–Yates: a fresh seeded order for the next round.
            for i in (1..self.order.len()).rev() {
                let j = rng.random_range(0..i + 1);
                self.order.swap(i, j);
            }
            self.next = 0;
        }
        let i = self.order[self.next];
        self.next += 1;
        self.toggled[i] = !self.toggled[i];
        (&self.items[i], self.toggled[i])
    }

    /// Every item toggled away from the dataset's state, untoggling it.
    fn take_toggled(&mut self) -> impl Iterator<Item = &T> {
        self.items
            .iter()
            .zip(&mut self.toggled)
            .filter_map(|(item, toggled)| std::mem::take(toggled).then_some(item))
    }
}

impl Events {
    fn new(g: &AttributedGraph, seed: u64) -> Events {
        let mut rng = SmallRng::seed_from_u64(crate::DATASET_SEED ^ EVENT_SALT);
        let n = g.num_nodes() as u32;
        let want = ((g.num_edges() as f64 * TOGGLE_SET_SHARE) as usize).max(1);
        let mut edges: Vec<(NodeId, NodeId)> = Vec::with_capacity(want);
        while edges.len() < want {
            let (u, v) = (rng.random_range(0..n), rng.random_range(0..n));
            let (u, v) = (u.min(v), u.max(v));
            if u != v && !g.csr().has_edge(u, v) && !edges.contains(&(u, v)) {
                edges.push((u, v));
            }
        }
        let want = ((n as f64 * TOGGLE_SET_SHARE) as usize).max(1);
        let mut nodes: Vec<(NodeId, Vec<u32>, Vec<u32>)> = Vec::with_capacity(want);
        while nodes.len() < want {
            let v = rng.random_range(0..n);
            let other = vec![rng.random_range(0..g.num_attrs() as u32)];
            let own = g.node_attrs(v).to_vec();
            if own != other && !nodes.iter().any(|(u, ..)| *u == v) {
                nodes.push((v, own, other));
            }
        }
        Events {
            rng: SmallRng::seed_from_u64(seed ^ EVENT_SALT),
            edges: Rounds::new(edges),
            nodes: Rounds::new(nodes),
            emitted: 0,
        }
    }

    fn next(&mut self) -> Mutation {
        self.emitted += 1;
        if self.emitted % ATTR_EVERY == 0 {
            let ((node, own, other), away) = self.nodes.next(&mut self.rng);
            return Mutation::SetAttrs {
                node: *node,
                attrs: if away { other } else { own }.clone(),
            };
        }
        let (&(u, v), away) = self.edges.next(&mut self.rng);
        if away {
            Mutation::InsertEdge { u, v }
        } else {
            Mutation::RemoveEdge { u, v }
        }
    }

    /// Returns the graph to the dataset's own: every toggled edge removed
    /// and every toggled node's own attributes restored.
    fn close(&mut self) -> Vec<Mutation> {
        let edges = self
            .edges
            .take_toggled()
            .map(|&(u, v)| Mutation::RemoveEdge { u, v });
        let nodes = self
            .nodes
            .take_toggled()
            .map(|(node, own, _)| Mutation::SetAttrs {
                node: *node,
                attrs: own.clone(),
            });
        edges.chain(nodes).collect()
    }

    /// The same tail for every run, from the dataset's own graph: every
    /// edge of the set inserted and every node of the set given its other
    /// attribute, in set order.
    fn tail(&self) -> Vec<Mutation> {
        let edges = self
            .edges
            .items
            .iter()
            .map(|&(u, v)| Mutation::InsertEdge { u, v });
        let nodes = self
            .nodes
            .items
            .iter()
            .map(|(node, _, other)| Mutation::SetAttrs {
                node: *node,
                attrs: other.clone(),
            });
        edges.chain(nodes).collect()
    }
}

/// The read workload: a fixed set of targets (uniform node, own attribute)
/// drawn from the dataset seed, visited in rounds in an order drawn from
/// the run seed, so every run reads the same targets.
struct Reads {
    targets: Rounds<(NodeId, u32)>,
    rng: SmallRng,
}

impl Reads {
    fn next(&mut self) -> (NodeId, u32) {
        *self.targets.next(&mut self.rng).0
    }
}

fn err(what: &'static str) -> impl Fn(pcod::cod::CodError) -> String {
    move |e| format!("{what}: {e}")
}

/// One set-up: `create` and warm-up reads of the read set's first targets.
/// Returns the instance and the set-up's CPU seconds and wall seconds.
fn setup(
    dir: &Path,
    g: &AttributedGraph,
    trace: bool,
    reads: &mut Reads,
    spans: &mut Recorder,
) -> Result<(DurableCod, [f64; 2]), String> {
    let (cfg, dcfg) = config(trace);
    let cpu0 = cpuclock::process_cpu_s(0)?;
    let t0 = Instant::now();
    let mut d =
        DurableCod::create(dir, g, cfg, crate::DATASET_SEED, dcfg).map_err(err("create"))?;
    let t1 = Instant::now();
    for &(q, a) in &reads.targets.items[..WARM_READS] {
        d.query(q, a, &mut reads.rng).map_err(err("warm-up read"))?;
    }
    let t2 = Instant::now();
    let cpu = cpuclock::process_cpu_s(0)? - cpu0;
    let span = spans.record("setup", None, 0, t0, t2);
    spans.record("recovery.create", Some(span), 0, t0, t1);
    spans.record("warmup", Some(span), 0, t1, t2);
    Ok((d, [cpu, (t2 - t0).as_secs_f64()]))
}

pub fn run(run: &RunArgs) -> Result<Measured, String> {
    let (cfg, dcfg) = config(run.trace);
    let g = pcod::datasets::cora_like(crate::DATASET_SEED).graph;
    let work = WorkDir::new("mutate_cora")?;
    let mut reads = Reads {
        targets: Rounds::new(gen_queries(
            &g,
            READ_TARGETS,
            &mut SmallRng::seed_from_u64(crate::DATASET_SEED ^ READ_SALT),
        )),
        rng: SmallRng::seed_from_u64(run.seed ^ READ_SALT),
    };

    let mut probe = Probe::spawn()?;
    let origin = Instant::now();
    let mut spans = Recorder::new(origin);
    let mut setups = Vec::new();
    let mut setups_wall = Vec::new();
    let mut live = None;
    for i in 0..SETUPS / 2 {
        // Drop the previous instance first so set-ups never overlap.
        if let Some((d, dir)) = live.take() {
            drop(d);
            let _ = std::fs::remove_dir_all(dir);
        }
        let dir = work.path().join(format!("durable-{i}"));
        let (d, [cpu, wall]) = setup(&dir, &g, run.trace, &mut reads, &mut spans)?;
        setups.push(cpu);
        setups_wall.push(wall);
        live = Some((d, dir));
    }
    let (mut d, dir) = live.expect("SETUPS > 1");

    let mut events = Events::new(&g, run.seed);
    let mut failed = 0u64;
    let mut attempted = 0u64;
    let mut durable = Vec::new();
    let mut visible = Vec::new();
    let mut query_ms = Vec::new();
    let mut apply_ms = Vec::new();
    let mut sync_ms = Vec::new();
    let mut flush_ms = Vec::new();
    let mut checkpoint_ms = Vec::new();
    let (mut repaired, mut rebuilt, mut redrawn, mut sampled) = (0u64, 0u64, 0u64, 0u64);
    let (mut index_reads, mut answered_reads) = (0u64, 0u64);
    let m0 = d.metrics_snapshot();
    let host0 = HostCpu::read()?;
    let t0 = Instant::now();
    let window = std::time::Duration::from_secs(run.seconds);
    let mut n_events = 0u64;
    let mut event_spans: Vec<[Instant; 5]> = Vec::new();
    let mut read_spans: Vec<(u64, Instant, Instant)> = Vec::new();
    let mut checkpoint_spans: Vec<(u64, Instant, Instant)> = Vec::new();
    // Resident pool bytes after each event's reads (traced runs only): the
    // gauge swings with every eviction, so one end-of-window reading says
    // little.
    let mut pool_bytes = Vec::new();
    // CPU time of the events, and the wall time spent waiting on the
    // probe, left out of `events_per_s`.
    let mut cpu_s = 0.0;
    let mut probe_s = 0.0;
    let mut cpu_a = cpuclock::process_cpu_s(0)?;
    while t0.elapsed() < window || n_events % CHUNK_EVENTS != 0 {
        let m = events.next();
        attempted += 1;
        let ta = Instant::now();
        let applied = d.apply(&m);
        let tb = Instant::now();
        let synced = d.flush_wal();
        let tc = Instant::now();
        let flushed = d.flush();
        let td = Instant::now();
        n_events += 1;
        match (applied, synced, flushed) {
            (Ok(_), Ok(()), Ok(report)) => {
                durable.push(ms_between(ta, tc));
                visible.push(ms_between(ta, td));
                apply_ms.push(ms_between(ta, tb));
                sync_ms.push(ms_between(tb, tc));
                flush_ms.push(ms_between(tc, td));
                match report.outcome {
                    FlushOutcome::Repaired {
                        samples_redrawn,
                        samples_total,
                        ..
                    } => {
                        repaired += 1;
                        redrawn += samples_redrawn;
                        sampled += samples_total;
                    }
                    FlushOutcome::Rebuilt => rebuilt += 1,
                    FlushOutcome::Noop | FlushOutcome::Refreshed => {}
                }
            }
            (a, s, f) => {
                eprintln!(
                    "event {m:?} failed: {:?} {:?} {:?}",
                    a.err(),
                    s.err(),
                    f.err()
                );
                failed += 1;
            }
        }
        let mut last = td;
        for _ in 0..READS_PER_EVENT {
            let (q, a) = reads.next();
            attempted += 1;
            let tq = Instant::now();
            let answer = d.query(q, a, &mut reads.rng);
            let te = Instant::now();
            read_spans.push((n_events, tq, te));
            last = te;
            match answer {
                Ok(a) if a.as_ref().is_some_and(|a| a.degraded.is_some()) => failed += 1,
                Ok(a) => {
                    query_ms.push(ms_between(tq, te));
                    answered_reads += 1;
                    index_reads += a.is_some_and(|a| a.source == AnswerSource::Index) as u64;
                }
                Err(e) => {
                    eprintln!("read ({q}, {a}) failed: {e}");
                    failed += 1;
                }
            }
        }
        if run.trace {
            pool_bytes.push(d.engine().pool_stats().resident_bytes as f64);
        }
        if n_events % CHECKPOINT_EVERY == 0 {
            let tk = Instant::now();
            d.checkpoint().map_err(err("checkpoint"))?;
            last = Instant::now();
            checkpoint_ms.push(ms_between(tk, last));
            checkpoint_spans.push((n_events, tk, last));
        }
        event_spans.push([ta, tb, tc, td, last]);
        if n_events % CHUNK_EVENTS == 0 {
            cpu_s += cpuclock::process_cpu_s(0)? - cpu_a;
            let tp = Instant::now();
            for _ in 0..PROBES_PER_CHUNK {
                probe.sample()?;
            }
            probe_s += tp.elapsed().as_secs_f64();
            cpu_a = cpuclock::process_cpu_s(0)?;
        }
    }
    let t1 = Instant::now();
    let host1 = HostCpu::read()?;
    let rss = procfs::peak_rss_mib("self")?;
    let m1 = d.metrics_snapshot();

    // The stream ends between checkpoints. Every run checkpoints the
    // dataset's own graph and then leaves the same tail in the WAL, so
    // reopens replay the same events whatever the run seed.
    for m in events.close() {
        d.apply(&m).map_err(err("closing apply"))?;
    }
    d.checkpoint().map_err(err("checkpoint"))?;
    for m in events.tail() {
        d.apply(&m).map_err(err("tail apply"))?;
        d.flush_wal().map_err(err("tail flush_wal"))?;
    }
    let live_bytes = d.snapshot_bytes().map_err(err("live snapshot"))?;
    drop(d);
    // Recovered equals live. This holds with repair verification on (the
    // default); see NOTES.md for the finding with it off.
    let mut correct = true;
    let mut recover_s = Vec::new();
    let mut replayed = 0;
    for _ in 0..REOPENS {
        let tr = Instant::now();
        let (mut back, report) = DurableCod::open(&dir, cfg, dcfg).map_err(err("reopen"))?;
        let te = Instant::now();
        spans.record("recovery.open", None, 0, tr, te);
        recover_s.push((te - tr).as_secs_f64());
        replayed = report.replayed;
        if back.snapshot_bytes().map_err(err("recovered snapshot"))? != live_bytes {
            if correct {
                eprintln!("recovered state differs from the live state");
            }
            correct = false;
        }
    }
    for i in SETUPS / 2..SETUPS {
        let dir = work.path().join(format!("durable-{i}"));
        let (d, [cpu, wall]) = setup(&dir, &g, run.trace, &mut reads, &mut spans)?;
        setups.push(cpu);
        setups_wall.push(wall);
        drop(d);
        let _ = std::fs::remove_dir_all(dir);
    }

    let wall = (t1 - t0).as_secs_f64();
    let mut m = Measured {
        attempted,
        failed,
        correct,
        ..Measured::default()
    };
    let mut valid = true;
    let q50 = pct(&query_ms, 50.0, "read")?;
    let q90 = pct(&query_ms, 90.0, "read")?;
    let d50 = pct(&durable, 50.0, "durable")?;
    let v50 = pct(&visible, 50.0, "visible")?;
    let v90 = pct(&visible, 90.0, "visible")?;
    for (name, p) in [
        ("query_p50_ms", &q50),
        ("query_p90_ms", &q90),
        ("durable_p50_ms", &d50),
        ("visible_p50_ms", &v50),
        ("visible_p90_ms", &v90),
    ] {
        note_percentile(&mut m, &mut valid, name, p);
    }
    // An operation is one event with its two reads and its share of the
    // checkpoints.
    crate::end_to_end(&mut m, &setups, rss, cpu_s * 1e3 / n_events as f64, &probe)?;
    // Reported, not gated: the other workloads have no events to time,
    // and these times follow the host's speed, which moved their ten-run
    // spreads to as much as 28-47%; see NOTES.md.
    m.meta_num("query_p50_ms", q50.value);
    m.meta_num("query_p90_ms", q90.value);
    m.meta_num("events_per_s", n_events as f64 / (wall - probe_s));
    m.meta_num("durable_p50_ms", d50.value);
    m.meta_num("visible_p50_ms", v50.value);
    m.meta_num("visible_p90_ms", v90.value);
    m.meta("valid", valid.to_string());
    m.meta_num("fail_share", ratio(failed as f64, attempted as f64));
    m.meta_num("steal_share", host0.steal_share_until(&host1));
    m.meta_num("window_s", wall);
    m.meta("events", n_events.to_string());
    m.meta("setups_s", format!("{setups:?}"));
    m.meta_num(
        "setup_wall_s",
        stats::median(&setups_wall).expect("SETUPS > 1"),
    );
    // Reported, not gated, for the same reasons: the median of five
    // reopens of 30-70 ms spread by up to 30% over ten runs.
    m.meta_num("recover_s", stats::median(&recover_s).expect("REOPENS > 0"));
    m.meta("recover_s_each", format!("{recover_s:?}"));
    m.meta("replayed_records", replayed.to_string());

    if run.trace {
        let per_event = |v: f64| ratio(v, n_events as f64);
        m.layer(
            "himor.hit_share",
            ratio(index_reads as f64, answered_reads as f64),
        );
        m.layer("himor.redrawn_share", ratio(redrawn as f64, sampled as f64));
        let mean_bytes = ratio(pool_bytes.iter().sum(), pool_bytes.len() as f64);
        m.layer("pool.resident_mb", mean_bytes / (1024.0 * 1024.0));
        m.layer(
            "pool.evictions_per_event",
            per_event((m1.pool_scoped_evictions - m0.pool_scoped_evictions) as f64),
        );
        let p = |v: &[f64], at: f64| stats::percentile(v, at).map_or(0.0, |p| p.value);
        m.layer("dynamic.flush_p50_ms", p(&flush_ms, 50.0));
        m.layer("dynamic.flush_p90_ms", p(&flush_ms, 90.0));
        m.layer(
            "dynamic.rebuild_share",
            ratio(rebuilt as f64, (rebuilt + repaired) as f64),
        );
        m.layer("wal.apply_p50_ms", p(&apply_ms, 50.0));
        m.layer("wal.sync_p50_ms", p(&sync_ms, 50.0));
        m.layer(
            "wal.fsyncs_per_event",
            per_event((m1.wal_fsyncs - m0.wal_fsyncs) as f64),
        );
        m.layer("recovery.checkpoint_p50_ms", p(&checkpoint_ms, 50.0));
        m.layer("recovery.replayed_records", replayed as f64);

        let win = spans.record("window", None, 0, t0, t1);
        for (i, [ta, tb, tc, td, end]) in event_spans.iter().enumerate() {
            let id = i as u64 + 1;
            let ev = spans.record("event", Some(win), id, *ta, *end);
            spans.record("wal.apply", Some(ev), id, *ta, *tb);
            spans.record("wal.flush_wal", Some(ev), id, *tb, *tc);
            spans.record("dynamic.flush", Some(ev), id, *tc, *td);
        }
        // Events are recorded in order, so event i is span 2 + 4·(i − 1)
        // after the window span; reads and checkpoints attach to it.
        let event_span = |id: u64| win + 1 + 4 * (id as usize - 1);
        for &(id, s, e) in &read_spans {
            spans.record("engine.query", Some(event_span(id)), id, s, e);
        }
        for &(id, s, e) in &checkpoint_spans {
            spans.record("recovery.checkpoint", Some(event_span(id)), id, s, e);
        }
        crate::finish_trace(run, &spans, &mut m)?;
    }
    Ok(m)
}

#[cfg(test)]
mod tests {
    use std::collections::{BTreeMap, BTreeSet};

    use super::*;

    #[test]
    fn rounds_visit_every_item_once_per_round_in_a_seeded_order() {
        let draw = |seed| {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut r = Rounds::new((0..10u32).collect());
            (0..30).map(|_| *r.next(&mut rng).0).collect::<Vec<_>>()
        };
        let seq = draw(7);
        assert_eq!(seq, draw(7));
        for round in seq.chunks(10) {
            let mut sorted = round.to_vec();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..10).collect::<Vec<_>>());
        }
        assert_ne!(seq[..10], seq[10..20], "each round draws a fresh order");
    }

    #[test]
    fn closing_the_stream_returns_to_the_dataset_graph() {
        let g = pcod::datasets::cora_like(crate::DATASET_SEED).graph;
        let mut events = Events::new(&g, 3);
        // A stream that ends mid-round on both toggle sets.
        let stream: Vec<Mutation> = (0..333).map(|_| events.next()).collect();
        let mut again = Events::new(&g, 3);
        assert!(stream.iter().all(|m| *m == again.next()), "seeded");
        let mut extra = BTreeSet::new();
        let mut attrs = BTreeMap::new();
        for m in stream.into_iter().chain(events.close()) {
            match m {
                Mutation::InsertEdge { u, v } => {
                    assert!(!g.csr().has_edge(u, v) && extra.insert((u, v)));
                }
                Mutation::RemoveEdge { u, v } => assert!(extra.remove(&(u, v))),
                Mutation::SetAttrs { node, attrs: a } => {
                    attrs.insert(node, a);
                }
            }
        }
        assert!(extra.is_empty());
        assert!(!attrs.is_empty());
        for (node, a) in attrs {
            assert_eq!(a, g.node_attrs(node));
        }
        assert!(events.close().is_empty());
    }
}
