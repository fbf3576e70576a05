//! Criterion companion to Fig. 8(c)/(f): compressed vs independent COD
//! evaluation time per query on the Cora preset.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use cod_bench::util::compressed;
use cod_core::chain::Chain;
use cod_core::independent::independent_cod;
use cod_core::recluster::global_recluster;
use cod_core::CodConfig;
use cod_hierarchy::LcaIndex;
use rand::prelude::*;

fn bench_eval(c: &mut Criterion) {
    let data = cod_datasets::cora_like(1);
    let g = &data.graph;
    let cfg = CodConfig::default();
    let mut rng = SmallRng::seed_from_u64(20);
    let queries = cod_datasets::gen_queries(g, 4, &mut rng);
    // Fix one attribute-aware hierarchy per query up front: the benchmark
    // isolates the *evaluation* cost, as Fig. 8 does.
    let prepared: Vec<_> = queries
        .iter()
        .map(|&(q, a)| {
            let dendro = global_recluster(g, a, cfg.beta);
            (q, dendro)
        })
        .collect();

    let mut group = c.benchmark_group("cod_evaluation_cora");
    group.sample_size(10);

    for theta in [10usize, 40] {
        group.bench_function(format!("compressed_theta{theta}"), |b| {
            let mut rng = SmallRng::seed_from_u64(21);
            b.iter(|| {
                for (q, dendro) in &prepared {
                    let lca = LcaIndex::new(dendro);
                    let chain = Chain::new(dendro, &lca, *q).expect("query node within hierarchy");
                    black_box(
                        compressed(g.csr(), cfg, &chain, *q, cfg.k, theta, &mut rng).best_level,
                    );
                }
            })
        });
        group.bench_function(format!("independent_theta{theta}"), |b| {
            let mut rng = SmallRng::seed_from_u64(22);
            b.iter(|| {
                for (q, dendro) in &prepared {
                    let lca = LcaIndex::new(dendro);
                    let chain = Chain::new(dendro, &lca, *q).expect("query node within hierarchy");
                    black_box(
                        independent_cod(g.csr(), cfg.model, &chain, *q, cfg.k, theta, &mut rng)
                            .best_level,
                    );
                }
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_eval);
criterion_main!(benches);
