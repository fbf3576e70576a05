//! Criterion companion to Table II: HIMOR index construction time.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use cod_bench::util::himor;
use cod_core::recluster::build_hierarchy;
use cod_core::CodConfig;
use cod_hierarchy::LcaIndex;
use cod_influence::Parallelism;
use rand::prelude::*;

fn bench_build(c: &mut Criterion) {
    let cfg = CodConfig::default();
    let mut group = c.benchmark_group("himor_build");
    group.sample_size(10);

    for (name, data) in [
        ("cora", cod_datasets::cora_like(1)),
        ("citeseer", cod_datasets::citeseer_like(2)),
    ] {
        let g = data.graph.csr().clone();
        let dendro = build_hierarchy(&g);
        let lca = LcaIndex::new(&dendro);
        group.bench_function(name, |b| {
            let mut rng = SmallRng::seed_from_u64(30);
            b.iter(|| black_box(himor(&g, cfg, &dendro, &lca, &mut rng).memory_bytes()))
        });
        group.bench_function(format!("{name}_parallel4"), |b| {
            let four = CodConfig {
                parallelism: Parallelism::Threads(4),
                ..cfg
            };
            let mut rng = SmallRng::seed_from_u64(30);
            b.iter(|| black_box(himor(&g, four, &dendro, &lca, &mut rng).memory_bytes()))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_build);
criterion_main!(benches);
