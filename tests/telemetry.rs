//! Observability-layer guarantees: counters are exact where the paper's
//! cost model pins them down, per-query traces sum to the engine registry,
//! and telemetry never perturbs answers or RNG draw order.

use pcod::prelude::*;
use rand::prelude::*;

/// An 8-node cycle: connected, so the base hierarchy's root community is
/// the whole vertex set and a CODU chain spans the graph.
fn cycle8() -> AttributedGraph {
    let mut b = GraphBuilder::new(8);
    for v in 0..8 {
        b.add_edge(v, (v + 1) % 8);
    }
    AttributedGraph::unattributed(b.build())
}

/// On a chain that spans the graph under `UniformIc(1.0)`, every quantity
/// of the Θ·ω sampling cost is deterministic: Θ = θ·|V| RR graphs are
/// drawn (no source can fall outside the chain), each activates every arc
/// (ω = 2|E| per graph), and HFS classifies exactly |V| nodes per graph.
#[test]
fn counters_are_exact_on_a_known_toy_graph() {
    let g = cycle8();
    let theta = 3;
    let cfg = CodConfig {
        k: 8, // every node is top-8 in an 8-node community: the answer is total
        theta,
        model: Model::UniformIc(1.0),
        trace: true,
        ..CodConfig::default()
    };
    let engine = CodEngine::new(g, cfg);
    let mut rng = SmallRng::seed_from_u64(7);
    let ans = engine
        .query(Query::codu(2), &mut rng)
        .expect("valid query")
        .expect("k = 8 answers with the root community");
    let trace = ans.trace.as_ref().expect("trace requested");
    let c = &trace.counters;

    let big_theta = (theta * 8) as u64; // Θ = θ·|V|
    assert_eq!(c.get(Counter::RrGraphsSampled), big_theta);
    // p = 1.0 activates every arc of the connected graph per sample.
    assert_eq!(c.get(Counter::RrEdgesTraversed), big_theta * 16);
    // HFS sees all |V| nodes of every RR graph, each either recorded into
    // a chain bucket or pruned.
    assert_eq!(
        c.get(Counter::HfsNodesVisited) + c.get(Counter::HfsNodesPruned),
        big_theta * 8
    );
    assert!(c.get(Counter::TopKHeapOps) > 0, "top-k scan ran");
    // CODU touches neither the recluster path nor the HIMOR index.
    for idle in [
        Counter::ReclusterBuilds,
        Counter::HimorBuilds,
        Counter::HimorBucketMerges,
        Counter::HimorIndexHits,
        Counter::CacheHits,
        Counter::CacheMisses,
    ] {
        assert_eq!(c.get(idle), 0, "{} should be idle under CODU", idle.name());
    }

    // The single query is the engine's whole history, so the registry
    // holds exactly this trace.
    let snapshot = engine.metrics();
    for (counter, value) in c.iter() {
        assert_eq!(snapshot.counters.get(counter), value);
    }
    assert_eq!(snapshot.queries, 1);
}

fn dataset() -> pcod::datasets::Dataset {
    pcod::datasets::amazon_like_scaled(120, 5)
}

fn mixed_queries(g: &AttributedGraph) -> Vec<Query> {
    let attr_of = |q: NodeId| g.node_attrs(q).first().copied().unwrap_or(0);
    vec![
        Query::codu(3),
        Query::new(3, attr_of(3), Method::Codr),
        Query::new(17, attr_of(17), Method::CodlMinus),
        Query::new(17, attr_of(17), Method::Codl),
        Query::new(40, attr_of(40), Method::Codl),
        Query::new(17, attr_of(17), Method::Codr),
    ]
}

/// Per-query trace deltas sum component-wise to the engine registry: every
/// counter increment and every phase nanosecond lands in exactly one
/// query's trace, and the registry records exactly those sinks.
#[test]
fn batch_traces_sum_to_registry_aggregates() {
    let data = dataset();
    let cfg = CodConfig {
        k: 30,
        theta: 6,
        trace: true,
        ..CodConfig::default()
    };
    let queries = mixed_queries(&data.graph);
    let engine = CodEngine::new(data.graph, cfg);
    let mut rng = SmallRng::seed_from_u64(5);
    let results = engine.query_batch(&queries, &mut rng);

    let mut traces = Vec::new();
    for r in &results {
        let ans = r
            .as_ref()
            .expect("valid batch")
            .as_ref()
            .expect("k = 30 answers every query; tighten params if this trips");
        traces.push(ans.trace.expect("trace requested"));
    }

    let snapshot = engine.metrics();
    assert_eq!(snapshot.queries, queries.len() as u64);
    assert_eq!(snapshot.errors, 0);
    for counter in pcod::cod::COUNTERS {
        let summed: u64 = traces.iter().map(|t| t.counters.get(counter)).sum();
        assert_eq!(
            snapshot.counters.get(counter),
            summed,
            "counter {} diverged from the sum of per-query deltas",
            counter.name()
        );
    }
    for phase in pcod::cod::PHASES {
        let summed: u64 = traces.iter().map(|t| t.phases.get(phase)).sum();
        assert_eq!(
            snapshot.phase_nanos.get(phase),
            summed,
            "phase {} diverged from the sum of per-query deltas",
            phase.name()
        );
    }
    // Every traced query contributed one histogram observation.
    assert_eq!(snapshot.latency_count(), queries.len() as u64);

    // The work happened: sampling ran and phase time accrued somewhere.
    assert!(snapshot.counters.get(Counter::RrGraphsSampled) > 0);
    assert!(snapshot.phase_nanos.total() > 0);
}

/// Seed-replay equivalence: with the seed fixed, enabling telemetry
/// changes neither any answer nor the RNG draw order, at every thread
/// count. Counters are identical too — they observe the evaluation, they
/// never steer it.
#[test]
fn telemetry_on_off_is_bit_identical_across_thread_counts() {
    let data = dataset();
    let queries = mixed_queries(&data.graph);
    for threads in [1usize, 2, 8] {
        let cfg = |trace: bool| CodConfig {
            k: 30,
            theta: 6,
            parallelism: Parallelism::Threads(threads),
            trace,
            ..CodConfig::default()
        };
        let run = |trace: bool| {
            let engine = CodEngine::new(data.graph.clone(), cfg(trace));
            let mut rng = SmallRng::seed_from_u64(99);
            let results = engine.query_batch(&queries, &mut rng);
            let answers: Vec<Option<CodAnswer>> = results
                .into_iter()
                .map(|r| r.expect("valid batch"))
                .collect();
            (answers, rng.next_u64(), engine.metrics())
        };
        let (plain_answers, plain_draw, plain_metrics) = run(false);
        let (traced_answers, traced_draw, traced_metrics) = run(true);
        // CodAnswer equality ignores the trace diagnostics, so this
        // compares members, ranks, sources, and uncertainty flags.
        assert_eq!(
            plain_answers, traced_answers,
            "answers diverged at {threads} threads"
        );
        assert_eq!(
            plain_draw, traced_draw,
            "RNG draw order diverged at {threads} threads"
        );
        for counter in pcod::cod::COUNTERS {
            assert_eq!(
                plain_metrics.counters.get(counter),
                traced_metrics.counters.get(counter),
                "counter {} depends on timer arming at {threads} threads",
                counter.name()
            );
        }
        // Timers are armed only under trace: the plain run must not have
        // read the clock at all.
        assert_eq!(plain_metrics.phase_nanos.total(), 0);
        assert!(traced_metrics.phase_nanos.total() > 0);
        // Untimed sinks are excluded from the latency histogram.
        assert_eq!(plain_metrics.latency_count(), 0);
        assert_eq!(traced_metrics.latency_count(), queries.len() as u64);
    }
}

/// Pool-cache counters ride the same per-query sink as every other
/// counter: the cold query's trace carries exactly one miss, the warm
/// repeat exactly one hit, the registry holds their sum, and the
/// Prometheus exposition names all four pool series plus the cache gauges.
#[test]
fn pool_counters_flow_through_traces_and_registry() {
    let data = dataset();
    let cfg = CodConfig {
        k: 30,
        theta: 6,
        pool: true,
        trace: true,
        ..CodConfig::default()
    };
    let engine = CodEngine::new(data.graph, cfg);
    let mut rng = SmallRng::seed_from_u64(5);
    let trace_of = |engine: &CodEngine, rng: &mut SmallRng| {
        engine
            .query(Query::codu(3), rng)
            .expect("valid query")
            .expect("k = 30 answers")
            .trace
            .expect("trace requested")
    };
    let cold = trace_of(&engine, &mut rng);
    assert_eq!(
        cold.counters.get(Counter::PoolMisses),
        1,
        "cold query misses once"
    );
    assert_eq!(cold.counters.get(Counter::PoolHits), 0);
    assert!(
        cold.counters.get(Counter::RrGraphsSampled) > 0,
        "cold query fills the pool"
    );
    let warm = trace_of(&engine, &mut rng);
    assert_eq!(
        warm.counters.get(Counter::PoolHits),
        1,
        "warm query hits once"
    );
    assert_eq!(warm.counters.get(Counter::PoolMisses), 0);
    assert_eq!(
        warm.counters.get(Counter::RrGraphsSampled),
        0,
        "warm query folds the pool without sampling"
    );
    let snapshot = engine.metrics();
    assert_eq!(snapshot.counters.get(Counter::PoolHits), 1);
    assert_eq!(snapshot.counters.get(Counter::PoolMisses), 1);
    assert_eq!(snapshot.counters.get(Counter::PoolEvictedBytes), 0);
    let text = engine.metrics_text();
    for needle in [
        "cod_pool_hits_total 1",
        "cod_pool_misses_total 1",
        "cod_pool_topups_total 0",
        "cod_pool_evicted_bytes_total 0",
        "cod_pool_cache_pools 1",
        "cod_pool_cache_budget_bytes",
        "cod_pool_cache_resident_bytes",
        "cod_pool_cache_epoch 0",
    ] {
        assert!(
            text.contains(needle),
            "exposition lacks {needle:?}:\n{text}"
        );
    }
}

/// A query that needs more samples than the pool holds tops it up — and
/// the trace records the top-up plus only the *new* sampling work, never
/// a resample of what was already pooled.
#[test]
fn pool_topups_are_counted_and_sample_only_the_missing_suffix() {
    use pcod::cod::compressed::{compressed_cod, EvalOptions, Samples};
    use pcod::cod::pool::RrPoolEntry;
    use pcod::cod::recluster::build_hierarchy;
    use std::sync::Arc;

    let data = dataset();
    let g = data.graph.csr();
    let dendro = build_hierarchy(g);
    let lca = LcaIndex::new(&dendro);
    let q = 3u32;
    let chain = Chain::new(&dendro, &lca, q).expect("chain exists");
    let universe: Arc<Vec<NodeId>> = Arc::new(chain.universe().to_vec());
    let n = universe.len() as u64;
    let pool = RrPoolEntry::new(None, universe, false);
    let mut ws = QueryScratch::new();
    let mut run = |theta_pn: usize| {
        ws.reset_telemetry(false);
        let opts = EvalOptions {
            par: Parallelism::Threads(1),
            scratch: Some(&mut ws),
            ..EvalOptions::default()
        };
        let pooled = Samples::Pool(&pool);
        compressed_cod(
            g,
            Model::WeightedCascade,
            &chain,
            q,
            3,
            theta_pn,
            pooled,
            opts,
        )
        .expect("valid query");
        ws.take_trace()
    };
    let fill = run(2);
    assert_eq!(
        fill.counters.get(Counter::PoolTopups),
        0,
        "initial fill is not a top-up"
    );
    assert_eq!(fill.counters.get(Counter::RrGraphsSampled), 2 * n);
    let topup = run(4);
    assert_eq!(topup.counters.get(Counter::PoolTopups), 1);
    assert_eq!(
        topup.counters.get(Counter::RrGraphsSampled),
        2 * n,
        "top-up samples only the 2·|V| missing graphs"
    );
    let warm = run(4);
    assert_eq!(warm.counters.get(Counter::PoolTopups), 0);
    assert_eq!(warm.counters.get(Counter::RrGraphsSampled), 0);
}

/// `--trace` answers carry a render-ready line; sanity-check its shape so
/// the CLI contract (phase timings then counters) stays stable.
#[test]
fn trace_render_line_mentions_each_phase_and_counter_group() {
    let g = cycle8();
    let cfg = CodConfig {
        k: 8,
        theta: 2,
        trace: true,
        ..CodConfig::default()
    };
    let engine = CodEngine::new(g, cfg);
    let mut rng = SmallRng::seed_from_u64(1);
    let ans = engine
        .query(Query::codu(0), &mut rng)
        .unwrap()
        .expect("answer exists");
    let line = ans.trace.unwrap().render_line();
    for needle in ["trace:", "plan ", "sample ", "topk ", "rr ", "hfs "] {
        assert!(line.contains(needle), "{line:?} lacks {needle:?}");
    }
}

/// Mutation telemetry flows end to end: applied events, repair/rebuild
/// decisions, the stage timings of repaired flushes (and only of those)
/// and scoped pool evictions all land in the registry snapshot
/// and come out of the Prometheus exposition under their stable names —
/// the same families `cod-serve`'s `/metrics` publishes (there with zero
/// values, asserted in the serve suite). Reads land in the same registry,
/// beside the writes.
#[test]
fn mutation_counters_flow_through_the_exposition() {
    use pcod::cod::dynamic::{DynamicCod, FlushOutcome};
    let data = pcod::datasets::amazon_like_scaled(120, 8);
    let g = &data.graph;
    let cfg = CodConfig {
        k: 3,
        theta: 10,
        parallelism: Parallelism::Threads(1),
        ..CodConfig::default()
    };
    let mut d = DynamicCod::with_seed(g, cfg, 5).unwrap();
    d.set_rebuild_threshold(10.0);
    assert!(d.insert_edge(0, 60).unwrap());
    assert!(d.insert_edge(1, 61).unwrap());
    assert!(d.remove_edge(0, 60));
    d.set_attrs(5, vec![0]).unwrap();
    let _ = d.flush().unwrap(); // one repair
    let repaired = d.metrics_snapshot();
    assert!(repaired.repair_nanos > 0, "{repaired:?}");
    assert!(repaired.himor_patch_nanos > 0, "{repaired:?}");
    d.set_attrs(6, vec![0]).unwrap();
    let report = d.flush().unwrap();
    assert_eq!(report.outcome, FlushOutcome::Refreshed);
    let refreshed = d.metrics_snapshot();
    assert_eq!(refreshed.repair_nanos, repaired.repair_nanos);
    assert_eq!(refreshed.himor_patch_nanos, repaired.himor_patch_nanos);
    d.set_rebuild_threshold(0.0);
    assert!(d.insert_edge(2, 62).unwrap());
    let _ = d.flush().unwrap(); // one forced full rebuild
    let reads = 12;
    for q in 0..reads as NodeId {
        let attr = g.node_attrs(q).first().copied().unwrap_or(0);
        d.query(q, attr, &mut SmallRng::seed_from_u64(u64::from(q)))
            .unwrap();
    }

    let snap = d.metrics_snapshot();
    assert_eq!(snap.queries, reads);
    assert_eq!(
        snap.answers_index + snap.answers_compressed + snap.answers_none,
        reads
    );
    assert_eq!(snap.errors, 0);
    assert_eq!(snap.mutations_insert, 3);
    assert_eq!(snap.mutations_remove, 1);
    assert_eq!(snap.mutations_set_attrs, 2);
    assert_eq!(snap.repairs, 1);
    assert_eq!(snap.full_rebuilds, 1);

    let text = snap.render_prometheus(&CacheStats::default(), &d.pool_stats());
    let repair_line = format!(
        "cod_flush_phase_seconds_total{{phase=\"repair\"}} {:.9}",
        repaired.repair_nanos as f64 / 1e9
    );
    let patch_line = format!(
        "cod_flush_phase_seconds_total{{phase=\"himor_patch\"}} {:.9}",
        repaired.himor_patch_nanos as f64 / 1e9
    );
    for needle in [
        "cod_mutations_total{kind=\"insert\"} 3",
        "cod_mutations_total{kind=\"remove\"} 1",
        "cod_mutations_total{kind=\"set_attrs\"} 2",
        &repair_line,
        &patch_line,
        "cod_repairs_total 1",
        "cod_full_rebuilds_total 1",
        "cod_pool_scoped_evictions_total",
        "cod_queries_total 12",
    ] {
        assert!(
            text.contains(needle),
            "exposition lacks {needle:?}:\n{text}"
        );
    }
}

/// The durability telemetry rides the same registry → snapshot →
/// exposition path as every other counter: a recovered `DurableCod`'s
/// recovery tally and the WAL activity after it land, with the documented
/// names, in the exposition of the engine it hands over.
#[test]
fn durability_counters_flow_through_engine_exposition() {
    use pcod::cod::{DurabilityConfig, DurableCod, FsyncPolicy, Mutation};
    let dir = std::env::temp_dir().join(format!("cod_telemetry_durable_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let dcfg = DurabilityConfig {
        fsync: FsyncPolicy::Always,
        ..DurabilityConfig::default()
    };
    let cfg = CodConfig::default();
    let chords = [(0, 4), (1, 5), (2, 6), (3, 7)].map(|(u, v)| Mutation::InsertEdge { u, v });
    let mut d = DurableCod::create(&dir, &cycle8(), cfg, 3, dcfg).unwrap();
    for m in &chords[..3] {
        d.apply(m).unwrap();
    }
    drop(d);
    let (mut d, report) = DurableCod::open(&dir, cfg, dcfg).unwrap();
    assert_eq!(report.replayed, 3);
    d.apply(&chords[3]).unwrap(); // one append, synced by the policy
    let engine = d.into_engine().unwrap();

    let snap = engine.metrics();
    assert_eq!(snap.wal_appended_records, 1);
    assert_eq!(snap.wal_fsyncs, 1);
    assert_eq!(snap.recovery_replayed_records, 3);
    assert_eq!(snap.recovery_nanos, report.wall_time.as_nanos() as u64);

    let text = engine.metrics_text();
    let seconds = format!(
        "cod_recovery_seconds {:.9}",
        snap.recovery_nanos as f64 / 1e9
    );
    for needle in [
        "cod_wal_appended_records_total 1",
        "cod_wal_fsyncs_total 1",
        "cod_recovery_replayed_records_total 3",
        &seconds,
    ] {
        assert!(
            text.contains(needle),
            "exposition lacks {needle:?}:\n{text}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}
