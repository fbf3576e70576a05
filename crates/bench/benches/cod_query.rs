//! Query-time benchmark for the four COD variants (the criterion
//! companion to the Fig. 9 harness binary).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use cod_bench::multik::{codl_minus_multi_k, codl_multi_k, codr_multi_k, codu_multi_k};
use cod_bench::util::himor;
use cod_core::recluster::build_hierarchy;
use cod_core::CodConfig;
use cod_hierarchy::LcaIndex;
use rand::prelude::*;

fn bench_queries(c: &mut Criterion) {
    let data = cod_datasets::cora_like(1);
    let g = &data.graph;
    let cfg = CodConfig::default();
    let dendro = build_hierarchy(g.csr());
    let lca = LcaIndex::new(&dendro);
    let mut rng = SmallRng::seed_from_u64(4);
    let index = himor(g.csr(), cfg, &dendro, &lca, &mut rng);
    let queries = cod_datasets::gen_queries(g, 8, &mut rng);

    let mut group = c.benchmark_group("cod_query_cora");
    group.sample_size(10);

    group.bench_function("codu", |b| {
        let mut rng = SmallRng::seed_from_u64(5);
        b.iter(|| {
            for &(q, _) in &queries {
                black_box(
                    codu_multi_k(g, cfg, &dendro, &lca, q, cfg.k, &mut rng)
                        .per_k
                        .len(),
                );
            }
        })
    });

    group.bench_function("codr", |b| {
        let mut rng = SmallRng::seed_from_u64(6);
        b.iter(|| {
            for &(q, a) in &queries {
                black_box(codr_multi_k(g, cfg, q, a, cfg.k, &mut rng).per_k.len());
            }
        })
    });

    group.bench_function("codl_minus", |b| {
        let mut rng = SmallRng::seed_from_u64(7);
        b.iter(|| {
            for &(q, a) in &queries {
                black_box(
                    codl_minus_multi_k(g, cfg, &dendro, &lca, q, a, cfg.k, &mut rng)
                        .per_k
                        .len(),
                );
            }
        })
    });

    group.bench_function("codl", |b| {
        let mut rng = SmallRng::seed_from_u64(8);
        b.iter(|| {
            for &(q, a) in &queries {
                black_box(
                    codl_multi_k(g, cfg, &dendro, &lca, &index, q, a, cfg.k, &mut rng)
                        .per_k
                        .len(),
                );
            }
        })
    });

    group.finish();
}

criterion_group!(benches, bench_queries);
criterion_main!(benches);
