//! Cross-query RR-pool cache suite: the determinism, reuse, and
//! invalidation contracts of `cod_core::pool`.
//!
//! The contract under test:
//! * a pool grown in several top-ups is **bit-identical** to a pool
//!   sampled fresh at the final size, at every thread count (the pool's
//!   sample `i` is a pure function of the cache key and `i`),
//! * answers served from a warm (cached) pool equal answers served from a
//!   cold pool, for all four methods — reuse is invisible in results,
//! * every `DynamicCod` mutation and `CodEngine::clear_cache` bumps the
//!   pool epoch and drops every pool, so a stale pool is never consulted,
//! * the two pool failpoint sites (`pool_grow`, `pool_fold`) degrade and
//!   recover like every other governed site.
//!
//! Failpoint state is process-global, so every test in this binary
//! serializes behind one lock (armed injections must never leak into a
//! concurrently running pool test).

use pcod::cod::failpoint::{self, Action, Site};
use pcod::cod::pool::RrPoolEntry;
use pcod::cod::{AnswerSource, DynamicCod};
use pcod::prelude::*;
use proptest::prelude::*;
use rand::prelude::*;
use std::sync::{Arc, Mutex};
use std::time::Duration;

const THREADS: [usize; 3] = [1, 2, 8];

static LOCK: Mutex<()> = Mutex::new(());

fn guard() -> std::sync::MutexGuard<'static, ()> {
    match LOCK.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// `COD_FAILPOINTS=all` (the CI chaos leg) injects a 1ms delay at *every*
/// compiled-in site, and `hfs_level` fires once per chain level per RR
/// graph — cost scales with Θ·|U|. The contracts here are size-independent,
/// so the chaos leg runs them on a smaller graph with a smaller pool to
/// stay CI-feasible; plain `cargo test` keeps the full-size workload.
fn chaos_armed() -> bool {
    std::env::var_os("COD_FAILPOINTS").is_some()
}

fn dataset() -> pcod::datasets::Dataset {
    let n = if chaos_armed() { 60 } else { 300 };
    pcod::datasets::amazon_like_scaled(n, 9)
}

fn pooled_cfg(threads: usize) -> CodConfig {
    CodConfig {
        k: 3,
        theta: if chaos_armed() { 4 } else { 15 },
        pool: true,
        parallelism: Parallelism::Threads(threads),
        ..CodConfig::default()
    }
}

/// Every method against a few query nodes.
fn workload(g: &AttributedGraph) -> Vec<Query> {
    let n = g.num_nodes() as u32;
    let mut queries = Vec::new();
    for &q in &[0u32, 9 % n, 42 % n, 133 % n] {
        let attr = g.node_attrs(q).first().copied().unwrap_or(0);
        queries.push(Query::codu(q));
        queries.push(Query::new(q, attr, Method::Codr));
        queries.push(Query::new(q, attr, Method::CodlMinus));
        queries.push(Query::new(q, attr, Method::Codl));
    }
    queries
}

/// Strips the unequatable error type for whole-sequence comparison.
fn comparable(
    results: Vec<CodResult<Option<CodAnswer>>>,
) -> Vec<Result<Option<CodAnswer>, String>> {
    results
        .into_iter()
        .map(|r| r.map_err(|e| e.to_string()))
        .collect()
}

// ---------------------------------------------------------------------------
// Pool determinism: grown ≡ fresh, at every thread count.
// ---------------------------------------------------------------------------

/// A pool grown in three top-ups at t threads equals a pool sampled fresh
/// to the final size serially — graph for graph, edge for edge. This is
/// the cache's foundational identity: reuse can never change a sample.
#[test]
fn grown_pool_matches_fresh_pool_across_thread_counts() {
    let _g = guard();
    failpoint::disarm_all();
    let data = dataset();
    let g = data.graph.csr();
    let universe: Arc<Vec<NodeId>> = Arc::new((0..g.num_nodes() as NodeId).collect());
    let fresh = RrPoolEntry::new(Some(2), universe.clone(), false);
    let (fv, _) = fresh.ensure(
        g,
        Model::WeightedCascade,
        220,
        Parallelism::Threads(1),
        None,
    );
    assert_eq!(fv.len(), 220);
    for t in THREADS {
        let grown = RrPoolEntry::new(Some(2), universe.clone(), false);
        for target in [40, 100, 220] {
            grown.ensure(
                g,
                Model::WeightedCascade,
                target,
                Parallelism::Threads(t),
                None,
            );
        }
        let (gv, stats) = grown.ensure(
            g,
            Model::WeightedCascade,
            220,
            Parallelism::Threads(t),
            None,
        );
        assert_eq!(stats.graphs, 0, "threads {t}: final ensure is a pure read");
        assert_eq!(gv.len(), 220);
        assert!(
            gv.iter().eq(fv.iter()),
            "threads {t}: grown pool diverged from fresh pool"
        );
        assert_eq!(grown.chunk_lens(), vec![40, 60, 120], "threads {t}");
    }
}

/// Restricted pools (chain universes smaller than the graph) replay the
/// same way: growth at any thread count reproduces the serial fresh pool.
#[test]
fn restricted_grown_pool_matches_fresh_pool() {
    let _g = guard();
    failpoint::disarm_all();
    let data = dataset();
    let g = data.graph.csr();
    let mut members = data
        .communities
        .iter()
        .max_by_key(|c| c.len())
        .filter(|c| c.len() >= 4)
        .expect("a non-trivial community exists")
        .clone();
    members.sort_unstable();
    members.dedup();
    let universe = Arc::new(members);
    let fresh = RrPoolEntry::new(None, universe.clone(), true);
    let (fv, _) = fresh.ensure(
        g,
        Model::WeightedCascade,
        150,
        Parallelism::Threads(1),
        None,
    );
    for t in THREADS {
        let grown = RrPoolEntry::new(None, universe.clone(), true);
        grown.ensure(g, Model::WeightedCascade, 70, Parallelism::Threads(t), None);
        let (gv, _) = grown.ensure(
            g,
            Model::WeightedCascade,
            150,
            Parallelism::Threads(t),
            None,
        );
        assert!(
            gv.iter().eq(fv.iter()),
            "threads {t}: restricted top-up diverged"
        );
    }
}

// ---------------------------------------------------------------------------
// Engine reuse: warm answers ≡ cold answers, all four methods.
// ---------------------------------------------------------------------------

/// On a pool-enabled engine, a warm pass (every pool already resident)
/// answers bit-identically to the cold pass that built the pools, for all
/// four methods and at every thread count — and all thread counts agree
/// with the serial reference.
#[test]
fn warm_pool_answers_match_cold_pool_answers_for_every_method() {
    let _g = guard();
    failpoint::disarm_all();
    let data = dataset();
    let g = &data.graph;
    let queries = workload(g);
    let mut reference: Option<Vec<Result<Option<CodAnswer>, String>>> = None;
    for t in THREADS {
        let engine = CodEngine::new(g.clone(), pooled_cfg(t));
        // Prebuild the index with a fixed stream so no pass consumes a
        // mid-stream index-build draw (seed-replay idiom).
        engine
            .ensure_himor(&mut SmallRng::seed_from_u64(1000))
            .unwrap();
        let mut rng = SmallRng::seed_from_u64(3000);
        let cold = comparable(engine.query_batch(&queries, &mut rng));
        let miss_floor = engine.metrics().counters.get(Counter::PoolMisses);
        assert!(miss_floor > 0, "threads {t}: cold pass never built a pool");
        assert!(engine.pool_stats().pools > 0, "threads {t}: no pool cached");
        let mut rng = SmallRng::seed_from_u64(3000);
        let warm = comparable(engine.query_batch(&queries, &mut rng));
        assert_eq!(
            warm, cold,
            "threads {t}: warm pool answers diverged from cold"
        );
        let m = engine.metrics();
        assert!(
            m.counters.get(Counter::PoolHits) > 0,
            "threads {t}: warm pass never hit the pool cache"
        );
        assert_eq!(
            m.counters.get(Counter::PoolMisses),
            miss_floor,
            "threads {t}: warm pass built a pool it should have found"
        );
        assert!(cold.iter().any(|r| matches!(r, Ok(Some(_)))));
        match &reference {
            None => reference = Some(cold),
            Some(r) => assert_eq!(&cold, r, "threads {t}: diverged from serial reference"),
        }
    }
}

/// `clear_cache` drops every pool and bumps the epoch; the rebuilt pools
/// are key-derived, so post-clear answers equal pre-clear answers exactly.
#[test]
fn clear_cache_invalidates_pools_and_rebuilds_identically() {
    let _g = guard();
    failpoint::disarm_all();
    let data = dataset();
    let engine = CodEngine::new(data.graph.clone(), pooled_cfg(2));
    let queries = workload(&data.graph);
    engine
        .ensure_himor(&mut SmallRng::seed_from_u64(1000))
        .unwrap();
    let mut rng = SmallRng::seed_from_u64(3000);
    let before = comparable(engine.query_batch(&queries, &mut rng));
    assert!(engine.pool_stats().pools > 0);
    let epoch = engine.pool_epoch();
    engine.clear_cache();
    assert_eq!(
        engine.pool_epoch(),
        epoch + 1,
        "clear_cache must bump the epoch"
    );
    assert_eq!(
        engine.pool_stats().pools,
        0,
        "clear_cache must drop every pool"
    );
    let mut rng = SmallRng::seed_from_u64(3000);
    let after = comparable(engine.query_batch(&queries, &mut rng));
    assert_eq!(after, before, "re-derived pools changed answers");
}

// ---------------------------------------------------------------------------
// DynamicCod: every mutation invalidates, a stale pool is never served.
// ---------------------------------------------------------------------------

/// Every `DynamicCod` mutation path — edge insert, edge removal, attribute
/// edit, explicit rebuild — bumps the pool epoch, and scoped eviction
/// drops every pool the mutation could stale. All pools in this workload
/// span the query node (edge edits) or are keyed to its attribute
/// (attribute edits), so each mutation must leave zero pools resident: a
/// pool sampled on the old graph does not survive to the first
/// post-mutation lookup.
///
/// Queries flush (repair) first, so the index is always current and
/// answers whatever it can; the script needs a query node that pooled
/// compressed evaluation serves at every step. Candidates are tried in id
/// order, and every run checks every assertion up to the step (if any)
/// where the index answered instead.
#[test]
fn dynamic_mutations_invalidate_the_pool() {
    let _g = guard();
    failpoint::disarm_all();
    let data = dataset();
    let g = &data.graph;
    let served = (0..g.num_nodes() as NodeId).find(|&q| pool_invalidation_script(g, q).is_some());
    assert!(
        served.is_some(),
        "no query node is served by pooled evaluation at every step"
    );
}

/// The mutation script of [`dynamic_mutations_invalidate_the_pool`] on
/// query node `q`; `None` when the index answers `q` at some step.
fn pool_invalidation_script(g: &AttributedGraph, q: NodeId) -> Option<()> {
    let mut dyn_cod = DynamicCod::new(g, pooled_cfg(1), &mut SmallRng::seed_from_u64(11)).unwrap();
    let attr = g.node_attrs(q).first().copied().unwrap_or(0);
    let ask = |d: &mut DynamicCod| {
        let answer = d
            .query(q, attr, &mut SmallRng::seed_from_u64(500))
            .expect("valid query")?;
        (answer.source == AnswerSource::Compressed).then_some(answer)
    };
    ask(&mut dyn_cod)?;
    // Pick an endpoint not adjacent to q so the insert is a real edit.
    let other = (0..g.num_nodes() as NodeId)
        .find(|&v| v != q && !g.csr().neighbors(q).contains(&v))
        .expect("a non-neighbor exists");

    // Edge insert.
    let epoch = dyn_cod.pool_epoch();
    assert!(dyn_cod.insert_edge(q, other).unwrap());
    assert_eq!(
        dyn_cod.pool_epoch(),
        epoch + 1,
        "insert_edge must invalidate"
    );
    assert_eq!(dyn_cod.pool_stats().pools, 0);
    // The query repairs the hierarchy and index, then runs the pooled
    // compressed evaluation: the pool repopulates, and a repeat query
    // reuses it with the identical answer.
    let cold = ask(&mut dyn_cod)?;
    assert!(
        dyn_cod.pool_stats().pools > 0,
        "post-mutation query did not rebuild the pool"
    );
    let warm = ask(&mut dyn_cod)?;
    assert_eq!(warm, cold, "warm pooled answer diverged after mutation");

    // Edge removal.
    let epoch = dyn_cod.pool_epoch();
    assert!(dyn_cod.remove_edge(q, other));
    assert_eq!(
        dyn_cod.pool_epoch(),
        epoch + 1,
        "remove_edge must invalidate"
    );
    assert_eq!(dyn_cod.pool_stats().pools, 0);

    // Attribute edit (repopulate first so the drop is observable).
    ask(&mut dyn_cod)?;
    assert!(dyn_cod.pool_stats().pools > 0);
    let epoch = dyn_cod.pool_epoch();
    dyn_cod.set_attrs(q, vec![attr]).expect("q is in range");
    assert_eq!(dyn_cod.pool_epoch(), epoch + 1, "set_attrs must invalidate");
    assert_eq!(dyn_cod.pool_stats().pools, 0);

    // Explicit rebuild.
    ask(&mut dyn_cod)?;
    let epoch = dyn_cod.pool_epoch();
    dyn_cod.rebuild().unwrap();
    assert_eq!(dyn_cod.pool_epoch(), epoch + 1, "rebuild must invalidate");
    assert_eq!(dyn_cod.pool_stats().pools, 0);
    Some(())
}

// ---------------------------------------------------------------------------
// Failpoints on the shared-pool paths.
// ---------------------------------------------------------------------------

/// An injected panic during pool growth surfaces as `CodError::Internal`
/// and leaves the engine (and its pool cache) fully serviceable.
#[test]
fn pool_grow_panic_is_isolated_and_recoverable() {
    let _g = guard();
    if !failpoint::compiled_in() {
        return;
    }
    let data = dataset();
    let prior_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|info| {
        let payload = info.payload();
        let injected = payload
            .downcast_ref::<String>()
            .map(|s| s.as_str())
            .or_else(|| payload.downcast_ref::<&str>().copied())
            .is_some_and(|m| m.contains("failpoint"));
        if !injected {
            eprintln!("{info}");
        }
    }));
    failpoint::disarm_all();
    failpoint::arm(Site::PoolGrow, Action::Panic);
    let engine = CodEngine::new(data.graph.clone(), pooled_cfg(2));
    let mut rng = SmallRng::seed_from_u64(7777);
    let poisoned = engine.query_batch(&workload(&data.graph), &mut rng);
    let internals = poisoned
        .iter()
        .filter(|r| matches!(r, Err(CodError::Internal(m)) if m.contains("failpoint")))
        .count();
    assert!(internals > 0, "armed pool_grow panic never surfaced");
    failpoint::disarm_all();
    let mut rng = SmallRng::seed_from_u64(7777);
    let recovered = engine.query_batch(&workload(&data.graph), &mut rng);
    assert!(
        recovered.iter().all(|r| r.is_ok()),
        "engine not serviceable after pool_grow panic: {:?}",
        recovered.iter().find(|r| r.is_err())
    );
    assert!(recovered.iter().any(|r| matches!(r, Ok(Some(_)))));
    std::panic::set_hook(prior_hook);
}

/// Forced cancellation at the pooled fold degrades gracefully: bounded,
/// typed outcomes only, at least one query visibly degraded, and full
/// fidelity returns once the injection is gone.
#[test]
fn pool_fold_cancellation_degrades_gracefully() {
    let _g = guard();
    if !failpoint::compiled_in() {
        return;
    }
    let data = dataset();
    failpoint::disarm_all();
    failpoint::arm(Site::PoolFold, Action::Cancel);
    // A deadline must be armed for a token to exist; a long one never
    // passes on its own, so every cancellation comes from the injection.
    let cfg = CodConfig {
        deadline: Some(Duration::from_secs(3600)),
        ..pooled_cfg(2)
    };
    let engine = CodEngine::new(data.graph.clone(), cfg);
    let mut rng = SmallRng::seed_from_u64(7777);
    let results = engine.query_batch(&workload(&data.graph), &mut rng);
    let mut fired = 0u64;
    for r in &results {
        match r {
            Ok(Some(a)) if a.degraded.is_some() => {
                assert!(a.uncertain, "degraded pooled answer not uncertain");
                fired += 1;
            }
            Ok(_) => {}
            Err(CodError::DeadlineExceeded) => fired += 1,
            Err(other) => panic!("unexpected error under pool_fold cancel: {other}"),
        }
    }
    assert!(fired > 0, "forced pool_fold cancellation never degraded");
    failpoint::disarm_all();
    let mut rng = SmallRng::seed_from_u64(7777);
    for r in engine.query_batch(&workload(&data.graph), &mut rng) {
        let r = r.unwrap_or_else(|e| panic!("post-recovery error: {e}"));
        if let Some(a) = r {
            assert!(a.degraded.is_none(), "stale degradation: {a:?}");
        }
    }
}

// ---------------------------------------------------------------------------
// Property: top-up schedules tile the index space injectively, gap-free.
// ---------------------------------------------------------------------------

/// A random connected graph: a random spanning tree plus `extra` edges.
fn random_graph(n: usize, extra: usize, rng: &mut SmallRng) -> Csr {
    let mut b = GraphBuilder::new(n);
    for v in 1..n as NodeId {
        b.add_edge(rng.random_range(0..v), v);
    }
    for _ in 0..extra {
        b.add_edge(
            rng.random_range(0..n as NodeId),
            rng.random_range(0..n as NodeId),
        );
    }
    b.build()
}

/// The whole node range, or with `restrict` a random sorted strict subset
/// of it (never empty): the universe of a restricted pool.
fn random_universe(n: usize, restrict: bool, rng: &mut SmallRng) -> Vec<NodeId> {
    let mut members: Vec<NodeId> = (0..n as NodeId)
        .filter(|_| !restrict || rng.random_bool(0.5))
        .collect();
    if restrict {
        if members.is_empty() {
            members.push(rng.random_range(0..n as NodeId));
        } else if members.len() == n {
            members.remove(rng.random_range(0..n));
        }
    }
    members
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Any top-up schedule (arbitrary increments, arbitrary per-step
    /// thread counts) on any graph shape, over the whole graph or a
    /// restricted universe, produces exactly the fresh pool of the final
    /// size: the chunks partition `0..total` in order (no index sampled
    /// twice, none skipped), which is only possible if every top-up drew
    /// exactly the missing suffix.
    #[test]
    fn any_topup_schedule_equals_the_fresh_pool(
        increments in proptest::collection::vec(1usize..40, 1..6),
        threads in proptest::collection::vec(1usize..12, 6),
        n in 2usize..30,
        extra in 0usize..40,
        gseed in 0u64..500,
        restrict in 0u8..2,
    ) {
        let _g = guard();
        failpoint::disarm_all();
        let mut rng = SmallRng::seed_from_u64(gseed);
        let g = random_graph(n, extra, &mut rng);
        let restricted = restrict == 1;
        let universe = Arc::new(random_universe(n, restricted, &mut rng));
        let grown = RrPoolEntry::new(Some(1), universe.clone(), restricted);
        let mut target = 0usize;
        let mut expected_chunks = Vec::new();
        for (step, &inc) in increments.iter().enumerate() {
            target += inc;
            let (view, stats) = grown.ensure(
                &g,
                Model::WeightedCascade,
                target,
                Parallelism::Threads(threads[step % threads.len()]),
                None,
            );
            prop_assert_eq!(view.len(), target, "ensure left the pool short");
            prop_assert_eq!(stats.graphs, inc as u64);
            prop_assert_eq!(stats.topped_up, step > 0);
            expected_chunks.push(inc);
        }
        // Chunks tile 0..target contiguously: lengths sum to the total and
        // match the schedule exactly — injective and gap-free.
        prop_assert_eq!(grown.chunk_lens(), expected_chunks);
        prop_assert_eq!(grown.len(), target);
        let fresh = RrPoolEntry::new(Some(1), universe, restricted);
        let (fv, _) = fresh.ensure(&g, Model::WeightedCascade, target, Parallelism::Threads(1), None);
        let (gv, _) = grown.ensure(&g, Model::WeightedCascade, target, Parallelism::Threads(1), None);
        prop_assert!(gv.iter().eq(fv.iter()), "schedule diverged from fresh pool");
    }
}
