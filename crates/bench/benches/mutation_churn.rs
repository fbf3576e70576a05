//! Criterion companion to the incremental-mutation pipeline: a ~1% edge
//! churn stream over the cora-like dataset, applied one event at a time
//! and flushed after every event — the streaming model where queries
//! interleave with mutations, so the engine must be consistent after each
//! edge. The repair leg takes the production repair path: a full
//! recluster of the mutated graph, the tree diff and the HIMOR patch. The
//! rebuild leg pins the rebuild threshold to zero so the identical stream
//! is absorbed by full from-scratch rebuilds, which recluster the same way
//! and build the index anew instead of patching it. The
//! `repair_vs_rebuild` ratio gate in `bench_report` holds the repair leg
//! to a fraction of the rebuild leg.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use cod_core::dynamic::DynamicCod;
use cod_core::{CodConfig, DurabilityConfig, DurableCod, FsyncPolicy, Mutation};
use cod_graph::NodeId;
use cod_influence::Parallelism;
use rand::prelude::*;

/// `count` edges absent from `g`, deterministic in `seed`.
fn absent_edges(g: &cod_graph::AttributedGraph, count: usize, seed: u64) -> Vec<(NodeId, NodeId)> {
    let n = g.num_nodes() as NodeId;
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut picked = Vec::with_capacity(count);
    while picked.len() < count {
        let a = rng.random_range(0..n);
        let b = rng.random_range(0..n);
        let (u, v) = (a.min(b), a.max(b));
        if u != v && !g.csr().has_edge(u, v) && !picked.contains(&(u, v)) {
            picked.push((u, v));
        }
    }
    picked
}

fn bench_churn(c: &mut Criterion) {
    let data = cod_datasets::cora_like(1);
    let g = &data.graph;
    let cfg = CodConfig {
        parallelism: Parallelism::Threads(1),
        ..CodConfig::default()
    };
    let batch = (g.num_edges() / 100).max(1); // ~1% of |E| in the stream
    let edges = absent_edges(g, batch, 0xC0D);

    let mut group = c.benchmark_group("mutation_churn");
    group.sample_size(10);

    // One iteration = one edge event + one flush through the repair path.
    // The stream cycles through the 1%-churn edge list, toggling each edge
    // so the graph never drifts from its seed topology.
    group.bench_function("repair_per_event", |b| {
        let mut d = DynamicCod::with_seed(g, cfg, 7).expect("valid config");
        let mut present = vec![false; edges.len()];
        let mut i = 0usize;
        b.iter(|| {
            let (u, v) = edges[i % edges.len()];
            if present[i % edges.len()] {
                d.remove_edge(u, v);
            } else {
                d.insert_edge(u, v).expect("in range");
            }
            present[i % edges.len()] = !present[i % edges.len()];
            i += 1;
            black_box(d.flush().expect("ungoverned flush").outcome)
        })
    });

    // The identical stream through the durable wrapper: every event is
    // appended to a group-commit WAL (fsync'd every 32 records / 10 ms)
    // before the same repair-path flush. The `wal_append_overhead` gate in
    // `bench_report` holds this leg to ≤ 1.25× the bare repair leg.
    group.bench_function("wal_group_commit_per_event", |b| {
        let dir = std::env::temp_dir().join(format!("cod_bench_wal_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let dcfg = DurabilityConfig {
            fsync: FsyncPolicy::GroupCommit {
                max_records: 32,
                max_delay: std::time::Duration::from_millis(10),
            },
            // Never checkpoint mid-measurement: the leg isolates append +
            // apply + flush, the checkpoint cost has its own cadence.
            checkpoint_every_events: u64::MAX,
            checkpoint_wal_bytes: u64::MAX,
        };
        let mut d = DurableCod::create(&dir, g, cfg, 7, dcfg).expect("create durable dir");
        let mut present = vec![false; edges.len()];
        let mut i = 0usize;
        b.iter(|| {
            let (u, v) = edges[i % edges.len()];
            let m = if present[i % edges.len()] {
                Mutation::RemoveEdge { u, v }
            } else {
                Mutation::InsertEdge { u, v }
            };
            present[i % edges.len()] = !present[i % edges.len()];
            i += 1;
            d.apply(&m).expect("durable apply");
            black_box(d.flush().expect("durable flush").outcome)
        });
        drop(d);
        let _ = std::fs::remove_dir_all(&dir);
    });

    // The identical stream forced through full from-scratch rebuilds.
    group.bench_function("rebuild_per_event", |b| {
        let mut d = DynamicCod::with_seed(g, cfg, 7).expect("valid config");
        d.set_rebuild_threshold(0.0);
        let mut present = vec![false; edges.len()];
        let mut i = 0usize;
        b.iter(|| {
            let (u, v) = edges[i % edges.len()];
            if present[i % edges.len()] {
                d.remove_edge(u, v);
            } else {
                d.insert_edge(u, v).expect("in range");
            }
            present[i % edges.len()] = !present[i % edges.len()];
            i += 1;
            black_box(d.flush().expect("ungoverned flush").outcome)
        })
    });

    group.finish();
}

criterion_group!(benches, bench_churn);
criterion_main!(benches);
