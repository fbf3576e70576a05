//! Ablation benches for the design choices called out in `DESIGN.md` §4:
//! hierarchy family, attribute weight `β`, and diffusion model.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use cod_bench::util::compressed;
use cod_core::chain::Chain;
use cod_core::recluster::{build_hierarchy, global_recluster};
use cod_core::CodConfig;
use cod_hierarchy::LcaIndex;
use cod_influence::Model;
use rand::prelude::*;

fn bench_ablations(c: &mut Criterion) {
    let data = cod_datasets::cora_like(1);
    let g = &data.graph;
    let cfg = CodConfig::default();

    let mut group = c.benchmark_group("ablations");
    group.sample_size(10);

    // Hierarchy construction family: agglomerative NN-chain vs divisive
    // recursive bisection (the balancedness lever of Table II).
    group.bench_function("hgc_divisive_bisection", |b| {
        b.iter(|| black_box(cod_hierarchy::bisect(g.csr()).num_vertices()))
    });

    // Attribute boost β: global reclustering cost (identical asymptotics;
    // measures the weight-transform overhead).
    for beta in [0.0f64, 1.0, 4.0] {
        group.bench_function(format!("recluster_beta_{beta}"), |b| {
            b.iter(|| black_box(global_recluster(g, 0, beta).num_vertices()))
        });
    }

    // Diffusion model: compressed evaluation under WC / uniform IC / LT.
    let dendro = build_hierarchy(g.csr());
    let lca = LcaIndex::new(&dendro);
    let mut qrng = SmallRng::seed_from_u64(40);
    let queries = cod_datasets::gen_queries(g, 4, &mut qrng);
    for (name, model) in [
        ("model_weighted_cascade", Model::WeightedCascade),
        ("model_uniform_ic", Model::UniformIc(0.05)),
        ("model_linear_threshold", Model::LinearThreshold),
    ] {
        let cfg = CodConfig { model, ..cfg };
        group.bench_function(name, |b| {
            let mut rng = SmallRng::seed_from_u64(41);
            b.iter(|| {
                for &(q, _) in &queries {
                    let chain = Chain::new(&dendro, &lca, q).expect("query node within hierarchy");
                    black_box(
                        compressed(g.csr(), cfg, &chain, q, cfg.k, cfg.theta, &mut rng).best_level,
                    );
                }
            })
        });
    }

    group.finish();
}

criterion_group!(benches, bench_ablations);
criterion_main!(benches);
