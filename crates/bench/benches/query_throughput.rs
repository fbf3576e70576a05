//! Serving-layer throughput: what the `CodEngine` reuse layers actually buy.
//!
//! The comparisons all run over identical query streams with identical
//! (bit-for-bit) answers — the engine's caches and scratch reuse are not
//! allowed to change results, only latency:
//!
//! * **cold vs warm artifact cache** — repeat-attribute CODR queries with
//!   the recluster cache disabled (capacity 0: every query rebuilds `T_ℓ`)
//!   vs enabled and pre-warmed;
//! * **single vs batch** — the same mixed workload issued one `query()` at
//!   a time vs one `query_batch()` call that groups by attribute and fans
//!   groups out;
//! * a plain-text QPS report with the measured cache hit rate, so the CI
//!   log shows the warm/cold ratio directly.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use cod_core::{CodConfig, CodEngine, Method, Query, QueryLimits};
use cod_influence::Parallelism;
use rand::prelude::*;

fn cfg(par: Parallelism) -> CodConfig {
    CodConfig {
        k: 3,
        theta: 8,
        parallelism: par,
        ..CodConfig::default()
    }
}

/// A repeat-attribute workload: many nodes querying the same few
/// attributes, the access pattern the artifact cache is built for.
fn repeat_attr_queries(n_nodes: usize) -> Vec<Query> {
    (0..n_nodes as u32)
        .map(|q| Query::new(q, (q % 2) as cod_graph::AttrId, Method::Codr))
        .collect()
}

fn run_all(engine: &CodEngine, queries: &[Query], seed: u64) -> usize {
    let mut rng = SmallRng::seed_from_u64(seed);
    engine
        .query_batch(queries, &mut rng)
        .into_iter()
        .flatten()
        .flatten()
        .map(|a| a.size())
        .sum()
}

fn bench_cold_vs_warm_cache(c: &mut Criterion) {
    let mut group = c.benchmark_group("query_throughput/repeat_attr");
    group.sample_size(10);

    for (name, data) in [
        ("cora", cod_datasets::cora_like(1)),
        ("citeseer", cod_datasets::citeseer_like(2)),
    ] {
        let queries = repeat_attr_queries(32);
        // Capacity 0: every query rebuilds its reclustered hierarchy from
        // scratch.
        let uncached = CodEngine::with_cache_capacity(
            std::sync::Arc::new(data.graph.clone()),
            cfg(Parallelism::Threads(1)),
            0,
        );
        group.bench_function(format!("{name}_uncached"), |b| {
            b.iter(|| black_box(run_all(&uncached, &queries, 42)))
        });

        let cached = CodEngine::new(data.graph.clone(), cfg(Parallelism::Threads(1)));
        run_all(&cached, &queries, 42); // pre-warm: steady state is all hits
        group.bench_function(format!("{name}_warm_cache"), |b| {
            b.iter(|| black_box(run_all(&cached, &queries, 42)))
        });

        // The shared RR-pool cache on top: a warm pool skips the Θ·ω
        // sampling term entirely, leaving only the HFS + top-k fold.
        // `bench_report` gates cora_pool_warm/cora_uncached at ≤ 0.2
        // (≥ 5× QPS).
        let pool_cfg = CodConfig {
            pool: true,
            ..cfg(Parallelism::Threads(1))
        };
        let pooled = CodEngine::new(data.graph.clone(), pool_cfg);
        run_all(&pooled, &queries, 42); // pre-warm pools + artifact cache
        group.bench_function(format!("{name}_pool_warm"), |b| {
            b.iter(|| black_box(run_all(&pooled, &queries, 42)))
        });
    }
    group.finish();
}

fn bench_single_vs_batch(c: &mut Criterion) {
    let mut group = c.benchmark_group("query_throughput/single_vs_batch");
    group.sample_size(10);

    let data = cod_datasets::cora_like(1);
    let queries = repeat_attr_queries(32);
    let engine = CodEngine::new(data.graph.clone(), cfg(Parallelism::Threads(4)));
    run_all(&engine, &queries, 7); // warm the cache for both sides

    group.bench_function("single", |b| {
        b.iter(|| {
            let mut rng = SmallRng::seed_from_u64(7);
            let mut total = 0usize;
            for &q in &queries {
                if let Ok(Some(a)) = engine.query(q, &mut rng) {
                    total += a.size();
                }
            }
            black_box(total)
        })
    });
    group.bench_function("batch", |b| {
        b.iter(|| black_box(run_all(&engine, &queries, 7)))
    });
    group.finish();
}

/// Governance checkpoint overhead: the same warm workload with query limits
/// unarmed (no token; checkpoints are no-ops) vs armed with generous caps
/// that never fire (every checkpoint polls a token and charges budgets).
/// Answers are bit-identical; `bench_report` gates the armed/unarmed ratio
/// at ≤ 1.05 — the governance layer may cost at most 5%.
fn bench_governance_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("query_throughput/governance");
    group.sample_size(10);

    let data = cod_datasets::cora_like(1);
    let queries = repeat_attr_queries(32);

    let unarmed = CodEngine::new(data.graph.clone(), cfg(Parallelism::Threads(1)));
    run_all(&unarmed, &queries, 42); // warm: measure checkpoints, not builds
    group.bench_function("limits_unarmed", |b| {
        b.iter(|| black_box(run_all(&unarmed, &queries, 42)))
    });

    let armed_cfg = CodConfig {
        limits: QueryLimits {
            deadline: Some(std::time::Duration::from_secs(3600)),
            max_rr_edges: Some(u64::MAX / 2),
            max_memory_bytes: Some(usize::MAX / 2),
        },
        ..cfg(Parallelism::Threads(1))
    };
    let armed = CodEngine::new(data.graph.clone(), armed_cfg);
    run_all(&armed, &queries, 42);
    group.bench_function("limits_armed", |b| {
        b.iter(|| black_box(run_all(&armed, &queries, 42)))
    });
    group.finish();
}

/// Prints warm-vs-cold QPS and the measured hit rate so the CI log carries
/// the acceptance number (warm-cache repeat-attribute queries must beat the
/// legacy rebuild-every-time path).
fn throughput_report(_c: &mut Criterion) {
    use std::time::Instant;

    let data = cod_datasets::cora_like(1);
    let queries = repeat_attr_queries(32);
    let median_secs = |engine: &CodEngine| {
        let mut runs: Vec<f64> = (0..5)
            .map(|_| {
                let t = Instant::now();
                black_box(run_all(engine, &queries, 42));
                t.elapsed().as_secs_f64()
            })
            .collect();
        runs.sort_by(|a, b| a.total_cmp(b));
        runs[runs.len() / 2]
    };

    let uncached = CodEngine::with_cache_capacity(
        std::sync::Arc::new(data.graph.clone()),
        cfg(Parallelism::Threads(1)),
        0,
    );
    let cold = median_secs(&uncached);

    let cached = CodEngine::new(data.graph.clone(), cfg(Parallelism::Threads(1)));
    run_all(&cached, &queries, 42);
    let warm = median_secs(&cached);

    let pool_cfg = CodConfig {
        pool: true,
        ..cfg(Parallelism::Threads(1))
    };
    let pooled = CodEngine::new(data.graph.clone(), pool_cfg);
    run_all(&pooled, &queries, 42);
    let pool_warm = median_secs(&pooled);

    let stats = cached.cache_stats();
    let qps = |secs: f64| queries.len() as f64 / secs;
    println!(
        "query_throughput/report: uncached {:.1} q/s vs warm-cache {:.1} q/s -> {:.2}x \
         (cache: {} hits / {} misses, {:.0}% hit rate)",
        qps(cold),
        qps(warm),
        cold / warm,
        stats.hits,
        stats.misses,
        stats.hit_rate() * 100.0,
    );
    let pstats = pooled.pool_stats();
    println!(
        "query_throughput/report: pool-warm {:.1} q/s -> {:.2}x over uncached \
         (pools: {}, resident {} KiB; gate pool_warm_ratio <= 0.2)",
        qps(pool_warm),
        cold / pool_warm,
        pstats.pools,
        pstats.resident_bytes / 1024,
    );
}

/// Out-of-core startup: opening a CODX v3 file as a memory mapping and
/// serving a cold batch vs eagerly deserializing the same file first.
/// The mmap path defers section loads (and their CRC sweeps) to first
/// touch, so cold start-to-first-answer should never be slower than the
/// parse-everything path; `bench_report` tracks `mmap_cold_vs_eager`.
fn bench_mmap_cold_vs_eager(c: &mut Criterion) {
    use cod_core::MappedArtifacts;

    let mut group = c.benchmark_group("query_throughput/mmap");
    group.sample_size(10);

    let data = cod_datasets::cora_like(1);
    let g = &data.graph;
    let engine = CodEngine::new(g.clone(), cfg(Parallelism::Threads(1)));
    let base = engine.base_hierarchy();
    let index = engine
        .ensure_himor(&mut SmallRng::seed_from_u64(4242))
        .expect("valid config");
    let path = std::env::temp_dir().join(format!("bench_mmap_{}.codx", std::process::id()));
    cod_core::save_artifacts(&path, g, &base.dendro, &index).expect("save artifacts");
    let queries = repeat_attr_queries(16);
    let limits = QueryLimits::default();
    let run_cold = |arts: MappedArtifacts| {
        let engine = CodEngine::from_mapped(&arts, cfg(Parallelism::Threads(1))).expect("engine");
        let mut rng = SmallRng::seed_from_u64(42);
        engine
            .query_batch_with_limits(&queries, &limits, &mut rng)
            .into_iter()
            .flatten()
            .flatten()
            .map(|a| a.size())
            .sum::<usize>()
    };

    group.bench_function("mmap_cold", |b| {
        b.iter(|| black_box(run_cold(MappedArtifacts::open(&path).expect("open"))))
    });
    group.bench_function("eager_cold", |b| {
        b.iter(|| black_box(run_cold(MappedArtifacts::open_eager(&path).expect("open"))))
    });
    group.finish();
    std::fs::remove_file(&path).ok();
}

criterion_group!(
    benches,
    bench_cold_vs_warm_cache,
    bench_single_vs_batch,
    bench_governance_overhead,
    bench_mmap_cold_vs_eager,
    throughput_report
);
criterion_main!(benches);
