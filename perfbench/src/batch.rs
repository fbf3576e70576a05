//! `batch_pubmed`: offline analysis with the paper's evaluation mix.
//! `CodEngine::query_batch` calls over a fixed query list, one after
//! another, on a graph whose RR samples exceed the CPU caches; nearly all
//! of their time is Θ·ω sampling.

use std::time::Instant;

use pcod::cod::{CodConfig, CodEngine, Method, Query};
use pcod::datasets::gen_queries;
use pcod::graph::AttributedGraph;
use pcod::influence::Parallelism;
use rand::prelude::*;

use crate::hostspeed::Probe;
use crate::layers::EngineDelta;
use crate::procfs::{self, HostCpu};
use crate::report::{ratio, Measured};
use crate::spans::Recorder;
use crate::{cpuclock, stats, RunArgs};

/// Engine builds per run, half before the batch and half after it, so
/// they see the host at two times; `setup_s` is their median.
const SETUPS: usize = 10;
/// Queries per second of `--seconds`: the list is fixed by the run
/// length, so the calls take about that long here. The work is fixed
/// rather than the time: the peak RSS follows the largest sampling
/// workspace the list needs, and a window of fixed time reached further
/// into the list on a faster host (80 MiB against 71 in two runs of ten).
const QUERIES_PER_WINDOW_SECOND: usize = 5;
/// Queries per `query_batch` call: two rounds of the method cycle, so
/// every call carries the whole mix and fans out over both threads. A call
/// takes about a second; the memory-latency probe samples between calls.
const BATCH: usize = 8;
/// Probe samples after each call: 54 in a 30-s run. One sample's
/// quartiles span 14% of its median; the median of 18 samples still moved
/// by about 5% from run to run on that noise alone, of 54 by about 2%.
const PROBES_PER_CALL: usize = 3;
/// The batch's method cycle (paper §V order).
const METHODS: [Method; 4] = [Method::Codu, Method::Codr, Method::CodlMinus, Method::Codl];
/// Leading queries re-evaluated one at a time on a fresh engine.
const REFERENCE_QUERIES: usize = 4;
const THREADS: usize = 2;
const LIST_SALT: u64 = 0xba7c_4001;
const HIMOR_SALT: u64 = 0xba7c_4002;
const BATCH_SALT: u64 = 0xba7c_4003;

fn config(trace: bool) -> CodConfig {
    CodConfig {
        k: 5,
        theta: 10,
        parallelism: Parallelism::Threads(THREADS),
        pool: false,
        trace,
        ..CodConfig::default()
    }
}

/// `new` + `base_hierarchy` + `ensure_himor` + `global_hierarchy` for
/// every attribute, each under its own span. Returns the engine, the
/// build's CPU seconds and wall seconds, and the wall seconds of
/// `base_hierarchy` and `ensure_himor`.
fn build(
    g: &AttributedGraph,
    cfg: CodConfig,
    spans: &mut Recorder,
) -> Result<(CodEngine, [f64; 4]), String> {
    let cpu0 = cpuclock::process_cpu_s(0)?;
    let t0 = Instant::now();
    let engine = CodEngine::new(g.clone(), cfg);
    let t1 = Instant::now();
    let _ = std::hint::black_box(engine.base_hierarchy());
    let t2 = Instant::now();
    let _ = std::hint::black_box(engine.ensure_himor(&mut SmallRng::seed_from_u64(
        crate::DATASET_SEED ^ HIMOR_SALT,
    )));
    let t3 = Instant::now();
    let mut global = Vec::new();
    for a in 0..g.num_attrs() as u32 {
        let s = Instant::now();
        let _ = std::hint::black_box(engine.global_hierarchy(a));
        global.push((s, Instant::now()));
    }
    let t4 = Instant::now();
    let cpu = cpuclock::process_cpu_s(0)? - cpu0;
    let setup = spans.record("setup", None, 0, t0, t4);
    spans.record("engine.new", Some(setup), 0, t0, t1);
    spans.record("hierarchy.base_hierarchy", Some(setup), 0, t1, t2);
    spans.record("himor.ensure_himor", Some(setup), 0, t2, t3);
    for (s, e) in global {
        spans.record("recluster.global_hierarchy", Some(setup), 0, s, e);
    }
    let secs = |a: Instant, b: Instant| (b - a).as_secs_f64();
    Ok((engine, [cpu, secs(t0, t4), secs(t1, t2), secs(t2, t3)]))
}

/// The query list: the first `n` of one fixed sample of the dataset's
/// queries (uniform node, own attribute), methods cycling in paper order.
/// Like the paper's evaluation, every run answers the same query set; the
/// run seed draws the sampling seeds. A per-seed list changed which (method,
/// attribute) groups share a fan-out thread, and so the batch's wall
/// time, by 20% between seeds.
fn queries(g: &AttributedGraph, n: usize) -> Vec<Query> {
    let mut rng = SmallRng::seed_from_u64(crate::DATASET_SEED ^ LIST_SALT);
    gen_queries(g, n, &mut rng)
        .into_iter()
        .zip(METHODS.iter().cycle())
        .map(|((node, attr), &method)| match method {
            Method::Codu => Query::codu(node),
            m => Query::new(node, attr, m),
        })
        .collect()
}

pub fn run(run: &RunArgs) -> Result<Measured, String> {
    let cfg = config(run.trace);
    let g = pcod::datasets::pubmed_like(crate::DATASET_SEED).graph;
    let n = (QUERIES_PER_WINDOW_SECOND * run.seconds as usize / BATCH).max(1) * BATCH;
    let list = queries(&g, n);
    if list.len() != n {
        return Err(format!("generated {} of {n} queries", list.len()));
    }

    let mut probe = Probe::spawn()?;
    let origin = Instant::now();
    let mut spans = Recorder::new(origin);
    let mut setups = Vec::new();
    let mut setups_wall = Vec::new();
    let mut base_s = Vec::new();
    let mut himor_s = Vec::new();
    let mut engine = None;
    let mut timed_build = |spans: &mut Recorder| -> Result<CodEngine, String> {
        let (e, [cpu, wall, base, himor]) = build(&g, cfg, spans)?;
        setups.push(cpu);
        setups_wall.push(wall);
        base_s.push(base);
        himor_s.push(himor);
        Ok(e)
    };
    for _ in 0..SETUPS / 2 {
        // Drop the previous engine first so builds never overlap in memory.
        drop(engine.take());
        engine = Some(timed_build(&mut spans)?);
    }
    let engine = engine.expect("SETUPS > 1");

    // The window: one call after another over successive slices of the
    // list, on one master-seed stream, with a probe sample after each call,
    // while the program is idle.
    let mut rng = SmallRng::seed_from_u64(run.seed ^ BATCH_SALT);
    let mut results = Vec::with_capacity(n);
    let mut cpu_s = 0.0;
    let mut calls: Vec<(Instant, Instant)> = Vec::new();
    let m0 = engine.metrics();
    let host0 = HostCpu::read()?;
    let t0 = Instant::now();
    let mut cpu_a = cpuclock::process_cpu_s(0)?;
    for chunk in list.chunks(BATCH) {
        let ta = Instant::now();
        results.extend(engine.query_batch(chunk, &mut rng));
        let tb = Instant::now();
        cpu_s += cpuclock::process_cpu_s(0)? - cpu_a;
        calls.push((ta, tb));
        for _ in 0..PROBES_PER_CALL {
            probe.sample()?;
        }
        // The probe runs in its own process; restart the clock after it
        // all the same, so the harness's wait stays out.
        cpu_a = cpuclock::process_cpu_s(0)?;
    }
    let t1 = Instant::now();
    let host1 = HostCpu::read()?;
    let rss = procfs::peak_rss_mib("self")?;
    let m1 = engine.metrics();
    drop(engine);
    for _ in SETUPS / 2..SETUPS {
        drop(timed_build(&mut spans)?);
    }

    let mut failed = 0u64;
    let mut correct = true;
    let mut uncertain = 0u64;
    let mut empty = 0u64;
    for (q, r) in list.iter().zip(&results) {
        match r {
            Ok(Some(a)) if a.degraded.is_some() => failed += 1,
            Ok(Some(a)) => {
                if a.members.binary_search(&q.node).is_err() || a.rank > cfg.k {
                    eprintln!(
                        "bad answer for {q:?}: rank {}, {} members",
                        a.rank,
                        a.members.len()
                    );
                    correct = false;
                }
                uncertain += a.uncertain as u64;
            }
            Ok(None) => empty += 1,
            Err(e) => {
                eprintln!("query {q:?} failed: {e}");
                failed += 1;
            }
        }
    }
    // An independent evaluation of the leading queries: a fresh engine
    // answering them one call at a time, on the same index seed and the
    // same master-seed stream, must reproduce the first call's answers.
    let reference = CodEngine::new(g.clone(), config(false));
    reference.ensure_himor(&mut SmallRng::seed_from_u64(
        crate::DATASET_SEED ^ HIMOR_SALT,
    ));
    let mut rng = SmallRng::seed_from_u64(run.seed ^ BATCH_SALT);
    for (q, got) in list.iter().zip(&results).take(REFERENCE_QUERIES) {
        let want = reference.query(*q, &mut rng);
        if want.as_ref().ok() != got.as_ref().ok() {
            eprintln!("batch answer for {q:?} differs from its one-at-a-time evaluation");
            correct = false;
        }
    }

    let wall = (t1 - t0).as_secs_f64();
    // Time inside the calls, without the probe samples between them.
    let busy: f64 = calls.iter().map(|(a, b)| (*b - *a).as_secs_f64()).sum();
    let mut m = Measured {
        attempted: n as u64,
        failed,
        correct,
        ..Measured::default()
    };
    // An operation is one query.
    crate::end_to_end(&mut m, &setups, rss, cpu_s * 1e3 / n as f64, &probe)?;
    // Reported, not gated: the other workloads have no batch throughput,
    // and wall time follows the host's speed (its ten-run spread ranged
    // from 1% to 23%; see NOTES.md).
    m.meta_num("queries_per_s", n as f64 / busy);
    m.meta("valid", "true".into());
    m.meta_num("fail_share", ratio(failed as f64, n as f64));
    m.meta_num("uncertain_share", ratio(uncertain as f64, n as f64));
    m.meta_num("no_community_share", ratio(empty as f64, n as f64));
    m.meta_num("steal_share", host0.steal_share_until(&host1));
    m.meta_num("window_s", wall);
    m.meta("queries", n.to_string());
    m.meta("calls", calls.len().to_string());
    m.meta("setups_s", format!("{setups:?}"));
    m.meta_num(
        "setup_wall_s",
        stats::median(&setups_wall).expect("SETUPS > 1"),
    );
    m.meta(
        "threads",
        std::thread::available_parallelism()
            .map_or(0, |p| p.get())
            .to_string(),
    );

    if run.trace {
        let window = spans.record("window", None, 0, t0, t1);
        for (i, &(ta, tb)) in calls.iter().enumerate() {
            spans.record("engine.query_batch", Some(window), i as u64 + 1, ta, tb);
        }
        let engine = EngineDelta::from_snapshots(&m0, &m1);
        layers(&mut m, &engine, &list, busy, &spans, (&base_s, &himor_s));
        crate::finish_trace(run, &spans, &mut m)?;
    }
    Ok(m)
}

fn layers(
    m: &mut Measured,
    engine: &EngineDelta,
    list: &[Query],
    busy: f64,
    spans: &Recorder,
    (base_s, himor_s): (&[f64], &[f64]),
) {
    let codl = list.iter().filter(|x| x.method == Method::Codl).count() as f64;
    engine.record(m, codl);
    // Σ global_hierarchy spans per setup: the spans come in setup order,
    // one per attribute.
    let global = spans.durations_ms("recluster.global_hierarchy");
    let per_setup: Vec<f64> = global
        .chunks((global.len() / SETUPS).max(1))
        .map(|c| c.iter().sum::<f64>() / 1e3)
        .collect();
    // Traced query time over the calls' wall time on both threads.
    m.layer(
        "engine.batch_efficiency",
        engine.total_ms() / (busy * 1e3 * THREADS as f64),
    );
    m.layer("hierarchy.build_s", stats::median(base_s).unwrap_or(0.0));
    m.layer("himor.build_s", stats::median(himor_s).unwrap_or(0.0));
    m.layer(
        "recluster.global_build_s",
        stats::median(&per_setup).unwrap_or(0.0),
    );
}
