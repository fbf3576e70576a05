//! Serial vs parallel throughput of the deterministic execution layer.
//!
//! Both sides of every pair run the *same* seeded code path and produce
//! bit-identical results (see `tests/seed_replay.rs`); this bench measures
//! only the wall-clock effect of the thread count. The acceptance bar is
//! >1.5× RR-pool throughput at 4 threads.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use cod_core::recluster::build_hierarchy;
use cod_core::{CodConfig, HimorIndex};
use cod_hierarchy::LcaIndex;
use cod_influence::{Model, Parallelism, RrPool, SeedSequence};

fn bench_rr_pool(c: &mut Criterion) {
    let mut group = c.benchmark_group("parallel_scaling/rr_pool");
    group.sample_size(10);

    for (name, data) in [
        ("cora", cod_datasets::cora_like(1)),
        ("citeseer", cod_datasets::citeseer_like(2)),
    ] {
        let g = data.graph.csr().clone();
        let theta = 4 * g.num_nodes();
        let seeds = SeedSequence::new(42);
        for (label, par) in [
            ("serial", Parallelism::Threads(1)),
            ("threads4", Parallelism::Threads(4)),
        ] {
            group.bench_function(format!("{name}_{label}"), |b| {
                b.iter(|| {
                    black_box(
                        RrPool::sample(&g, Model::WeightedCascade, theta, seeds, None, par).len(),
                    )
                })
            });
        }
    }
    group.finish();
}

fn bench_himor_build(c: &mut Criterion) {
    let cfg = CodConfig::default();
    let mut group = c.benchmark_group("parallel_scaling/himor_build");
    group.sample_size(10);

    for (name, data) in [
        ("cora", cod_datasets::cora_like(1)),
        ("citeseer", cod_datasets::citeseer_like(2)),
    ] {
        let g = data.graph.csr().clone();
        let dendro = build_hierarchy(&g, cfg.linkage);
        let lca = LcaIndex::new(&dendro);
        for (label, par) in [
            ("serial", Parallelism::Threads(1)),
            ("threads4", Parallelism::Threads(4)),
        ] {
            group.bench_function(format!("{name}_{label}"), |b| {
                b.iter(|| {
                    black_box(
                        HimorIndex::build(&g, cfg.model, &dendro, &lca, cfg.theta, 30, par, None)
                            .expect("ungoverned build")
                            .memory_bytes(),
                    )
                })
            });
        }
    }
    group.finish();
}

/// Prints a speedup summary (serial / 4-thread median) so the CI log shows
/// the scaling factor directly. On a single-core host the ratio is
/// meaningless — threads can only add overhead — so the report says so
/// instead of pretending to measure scaling.
fn speedup_report(_c: &mut Criterion) {
    use std::time::Instant;

    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if cores < 2 {
        println!(
            "parallel_scaling/speedup: host has {cores} core(s); \
             scaling cannot be measured here (need >= 2)"
        );
        return;
    }

    let data = cod_datasets::cora_like(1);
    let g = data.graph.csr().clone();
    let theta = 4 * g.num_nodes();
    let seeds = SeedSequence::new(42);
    let median = |par: Parallelism| {
        let mut runs: Vec<f64> = (0..5)
            .map(|_| {
                let t = Instant::now();
                black_box(RrPool::sample(
                    &g,
                    Model::WeightedCascade,
                    theta,
                    seeds,
                    None,
                    par,
                ));
                t.elapsed().as_secs_f64()
            })
            .collect();
        runs.sort_by(|a, b| a.total_cmp(b));
        runs[runs.len() / 2]
    };
    let serial = median(Parallelism::Threads(1));
    let par4 = median(Parallelism::Threads(4));
    let speedup = serial / par4;
    println!(
        "parallel_scaling/speedup: rr_pool serial {serial:.4}s vs threads4 {par4:.4}s \
         -> {speedup:.2}x (target > 1.5x on >= 4 cores)"
    );
}

criterion_group!(benches, bench_rr_pool, bench_himor_build, speedup_report);
criterion_main!(benches);
