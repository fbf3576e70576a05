//! Micro-benchmarks for the substrate layers: RR-graph sampling,
//! agglomerative clustering, LCA indexing and truss decomposition.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;

use cod_core::recluster::build_hierarchy;
use cod_graph::NodeId;
use cod_hierarchy::{cluster_unweighted, LcaIndex};
use cod_influence::{Model, RrGraph, RrSampler};
use cod_search::truss::TrussDecomposition;
use rand::prelude::*;

fn bench_substrates(c: &mut Criterion) {
    let data = cod_datasets::cora_like(1);
    let g = data.graph.csr();

    let mut group = c.benchmark_group("substrates");
    group.sample_size(20);

    group.bench_function("rr_sample_1k_wc", |b| {
        let mut sampler = RrSampler::new(g, Model::WeightedCascade);
        let mut rng = SmallRng::seed_from_u64(1);
        let mut rr = RrGraph::default();
        b.iter(|| {
            let mut total = 0usize;
            for _ in 0..1000 {
                let source = rng.random_range(0..g.num_nodes()) as NodeId;
                sampler.sample_into(source, &mut rng, |_| true, &mut rr);
                total += rr.view().len();
            }
            black_box(total)
        })
    });

    group.bench_function("rr_sample_1k_lt", |b| {
        let mut sampler = RrSampler::new(g, Model::LinearThreshold);
        let mut rng = SmallRng::seed_from_u64(2);
        let mut rr = RrGraph::default();
        b.iter(|| {
            let mut total = 0usize;
            for _ in 0..1000 {
                let source = rng.random_range(0..g.num_nodes()) as NodeId;
                sampler.sample_into(source, &mut rng, |_| true, &mut rr);
                total += rr.view().len();
            }
            black_box(total)
        })
    });

    group.bench_function("nnchain_cluster_cora", |b| {
        b.iter(|| black_box(cluster_unweighted(g).len()))
    });

    group.bench_function("lca_build_cora", |b| {
        let dendro = build_hierarchy(g);
        b.iter(|| black_box(LcaIndex::new(&dendro)))
    });

    group.bench_function("lca_query_10k", |b| {
        let dendro = build_hierarchy(g);
        let lca = LcaIndex::new(&dendro);
        let nv = dendro.num_vertices() as u32;
        let mut rng = SmallRng::seed_from_u64(3);
        let pairs: Vec<(u32, u32)> = (0..10_000)
            .map(|_| (rng.random_range(0..nv), rng.random_range(0..nv)))
            .collect();
        b.iter_batched(
            || pairs.clone(),
            |pairs| {
                let mut acc = 0u64;
                for (a, x) in pairs {
                    acc += u64::from(lca.lca(a, x));
                }
                black_box(acc)
            },
            BatchSize::SmallInput,
        )
    });

    group.bench_function("truss_decomposition_cora", |b| {
        b.iter(|| black_box(TrussDecomposition::new(g).trussness.len()))
    });

    group.finish();
}

criterion_group!(benches, bench_substrates);
criterion_main!(benches);
