//! Serial vs parallel throughput of the deterministic execution layer.
//!
//! Both sides of every pair run the *same* seeded code path and produce
//! bit-identical results (see `tests/pool_reuse.rs` and
//! `tests/seed_replay.rs`); this bench measures only the wall-clock effect
//! of the thread count. The pool legs time `RrPoolEntry::ensure` from an
//! empty pool up to θ = 4·|V|, the growth a pooled query runs. The
//! acceptance bar is >1.5× that growth's throughput at 4 threads, which
//! [`speedup_report`] enforces on hosts with at least 4 cores.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use cod_core::pool::RrPoolEntry;
use cod_core::recluster::build_hierarchy;
use cod_core::{CodConfig, HimorIndex};
use cod_graph::{Csr, NodeId};
use cod_hierarchy::LcaIndex;
use cod_influence::{Model, Parallelism};

/// Grows a fresh whole-graph pool from empty to `4·|V|` samples under
/// `par` and returns how many it holds.
fn grow_pool(g: &Csr, par: Parallelism) -> usize {
    let universe: Arc<Vec<NodeId>> = Arc::new((0..g.num_nodes() as NodeId).collect());
    let pool = RrPoolEntry::new(None, universe, false);
    let (view, _) = pool.ensure(g, Model::WeightedCascade, 4 * g.num_nodes(), par, None);
    view.len()
}

fn bench_rr_pool(c: &mut Criterion) {
    let mut group = c.benchmark_group("parallel_scaling/rr_pool");
    group.sample_size(10);

    for (name, data) in [
        ("cora", cod_datasets::cora_like(1)),
        ("citeseer", cod_datasets::citeseer_like(2)),
    ] {
        let g = data.graph.csr().clone();
        for (label, par) in [
            ("serial", Parallelism::Threads(1)),
            ("threads4", Parallelism::Threads(4)),
        ] {
            group.bench_function(format!("{name}_{label}"), |b| {
                b.iter(|| black_box(grow_pool(&g, par)))
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
        let dendro = build_hierarchy(&g);
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

/// Times pool growth on cora in alternated serial / 4-thread pairs and
/// prints the median per-pair speedup. On a host with at least 4 cores a
/// median of 1.5× or less fails the run; with fewer cores 4 threads cannot
/// scale, so the report says the check was skipped.
fn speedup_report(_c: &mut Criterion) {
    const PAIRS: usize = 7;
    let data = cod_datasets::cora_like(1);
    let g = data.graph.csr();
    let secs = |par: Parallelism| {
        let t = Instant::now();
        black_box(grow_pool(g, par));
        t.elapsed().as_secs_f64()
    };
    let mut ratios: Vec<f64> = (0..PAIRS)
        .map(|_| secs(Parallelism::Threads(1)) / secs(Parallelism::Threads(4)))
        .collect();
    ratios.sort_by(f64::total_cmp);
    let speedup = ratios[PAIRS / 2];
    println!(
        "parallel_scaling/speedup: pool growth to 4|V| on cora, median of {PAIRS} \
         serial/threads4 pairs -> {speedup:.2}x (target > 1.5x on >= 4 cores)"
    );
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if cores < 4 {
        println!(
            "parallel_scaling/speedup: host has {cores} core(s); scaling not checked \
             (needs >= 4)"
        );
        return;
    }
    assert!(
        speedup > 1.5,
        "pool growth sped up {speedup:.2}x at 4 threads on {cores} cores (needs > 1.5x)"
    );
}

criterion_group!(benches, bench_rr_pool, bench_himor_build, speedup_report);
criterion_main!(benches);
