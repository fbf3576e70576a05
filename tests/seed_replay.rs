//! Seed-replay equivalence suite: the determinism contract of the parallel
//! execution layer.
//!
//! Every seeded entry point must be a **pure function of its inputs and the
//! master seed** — bit-identical across thread counts (1, 2, 8), across
//! repeated runs, and under the `Auto` policy (whatever thread count the
//! environment resolves to). These tests are the enforcement layer for that
//! contract; if any of them fails, the per-index seed derivation has leaked
//! scheduling or chunking into a result.

use pcod::cod::compressed::{compressed_cod, CodOutcome, EvalOptions, Samples};
use pcod::cod::recluster::build_hierarchy;
use pcod::cod::AnswerSource;
use pcod::influence::estimate::InfluenceEstimate;
use pcod::influence::montecarlo;
use pcod::prelude::*;
use rand::prelude::*;

const THREADS: [usize; 3] = [1, 2, 8];

fn dataset() -> pcod::datasets::Dataset {
    pcod::datasets::amazon_like_scaled(300, 9)
}

/// Compressed evaluation from master seed `seed` under `par`.
#[allow(clippy::too_many_arguments)] // the paper's query signature plus seed and fan-out
fn evaluate(
    g: &Csr,
    chain: &Chain<'_>,
    q: NodeId,
    k: usize,
    theta: usize,
    seed: u64,
    par: Parallelism,
) -> CodOutcome {
    let opts = EvalOptions {
        par,
        ..EvalOptions::default()
    };
    compressed_cod(
        g,
        Model::WeightedCascade,
        chain,
        q,
        k,
        theta,
        Samples::Seed(seed),
        opts,
    )
    .unwrap()
}

fn hierarchy(g: &AttributedGraph) -> (Dendrogram, LcaIndex) {
    let dendro = build_hierarchy(g.csr());
    let lca = LcaIndex::new(&dendro);
    (dendro, lca)
}

/// `compressed_cod` returns byte-identical outcomes — ranks, sigma
/// estimates, uncertainty flags, best level — at 1, 2, and 8 threads and
/// across repeated runs.
#[test]
fn compressed_cod_outcome_is_bit_identical_across_threads_and_runs() {
    let data = dataset();
    let g = data.graph.csr();
    let (dendro, lca) = hierarchy(&data.graph);
    for q in [0u32, 17, 101] {
        let chain = Chain::new(&dendro, &lca, q).unwrap();
        let mut outcomes: Vec<CodOutcome> = Vec::new();
        for t in THREADS {
            for _run in 0..2 {
                let out = evaluate(g, &chain, q, 3, 20, 4242, Parallelism::Threads(t));
                outcomes.push(out);
            }
        }
        for out in &outcomes[1..] {
            assert_eq!(out, &outcomes[0], "q={q}: outcome diverged");
        }
    }
}

/// HIMOR build: every node's full rank vector matches across thread counts
/// and repeated runs.
#[test]
fn himor_build_is_bit_identical_across_threads_and_runs() {
    let data = dataset();
    let g = data.graph.csr();
    let (dendro, lca) = hierarchy(&data.graph);
    let build = |t: usize| {
        let par = Parallelism::Threads(t);
        HimorIndex::build(
            g,
            Model::WeightedCascade,
            &dendro,
            &lca,
            8,
            31337,
            par,
            None,
        )
        .unwrap()
    };
    let reference = build(1);
    for t in THREADS {
        for run in 0..2 {
            let idx = build(t);
            assert_eq!(idx.theta(), reference.theta());
            for v in 0..g.num_nodes() as NodeId {
                assert_eq!(
                    idx.ranks_of(v),
                    reference.ranks_of(v),
                    "threads {t} run {run}: node {v} ranks diverged"
                );
            }
        }
    }
}

/// The Monte-Carlo estimator sums integer activation counts, so even its
/// `f64` average must be exactly equal across thread counts.
#[test]
fn montecarlo_estimate_is_bit_identical_across_threads() {
    let data = dataset();
    let g = data.graph.csr();
    let seeds = SeedSequence::new(2024);
    let reference = montecarlo::influence(
        g,
        Model::WeightedCascade,
        0,
        5000,
        seeds,
        Parallelism::Threads(1),
        |_| true,
    );
    for t in THREADS {
        let got = montecarlo::influence(
            g,
            Model::WeightedCascade,
            0,
            5000,
            seeds,
            Parallelism::Threads(t),
            |_| true,
        );
        assert_eq!(got.to_bits(), reference.to_bits(), "threads {t}");
    }
}

/// Whole-graph influence estimates carry identical per-node counts for
/// every thread count.
#[test]
fn influence_estimate_is_bit_identical_across_threads() {
    let data = dataset();
    let g = data.graph.csr();
    let seeds = SeedSequence::new(606);
    let reference = InfluenceEstimate::on_graph(
        g,
        Model::WeightedCascade,
        3000,
        seeds,
        Parallelism::Threads(1),
    );
    for t in THREADS {
        let est = InfluenceEstimate::on_graph(
            g,
            Model::WeightedCascade,
            3000,
            seeds,
            Parallelism::Threads(t),
        );
        for v in 0..g.num_nodes() as NodeId {
            assert_eq!(est.count(v), reference.count(v), "threads {t} node {v}");
        }
    }
}

/// `Auto` resolves to *some* thread count — and because results are
/// thread-count-invariant, it must agree with `Threads(1)` exactly,
/// whatever the environment picked.
#[test]
fn auto_policy_matches_explicit_thread_counts() {
    let data = dataset();
    let g = data.graph.csr();
    let (dendro, lca) = hierarchy(&data.graph);
    let q = 3u32;
    let chain = Chain::new(&dendro, &lca, q).unwrap();
    let one = evaluate(g, &chain, q, 3, 15, 5, Parallelism::Threads(1));
    let auto = evaluate(g, &chain, q, 3, 15, 5, Parallelism::Auto);
    assert_eq!(auto, one);
}

const METHODS: [Method; 4] = [Method::Codu, Method::Codr, Method::CodlMinus, Method::Codl];

/// Node `q`'s query under `method`, on the node's first attribute.
fn query_for(g: &AttributedGraph, q: NodeId, method: Method) -> Query {
    match method {
        Method::Codu => Query::codu(q),
        _ => Query::new(q, g.node_attrs(q).first().copied().unwrap_or(0), method),
    }
}

/// Four fresh engines, one per method (in [`METHODS`] order), built the
/// way a one-method caller builds them: only the CODL engine draws from
/// `rng`, one seed for its index, up front.
fn engine_per_method(g: &AttributedGraph, cfg: CodConfig, rng: &mut SmallRng) -> Vec<CodEngine> {
    let engines: Vec<CodEngine> = METHODS
        .iter()
        .map(|_| CodEngine::new(g.clone(), cfg))
        .collect();
    engines[3].ensure_himor(rng).unwrap();
    engines
}

/// Answers of `methods` (each on its own engine from
/// [`engine_per_method`]) for every query node, interleaved per node in
/// [`METHODS`] order.
fn per_method_answers(
    g: &AttributedGraph,
    cfg: CodConfig,
    seed: u64,
    nodes: &[NodeId],
    methods: &[Method],
) -> Vec<Option<CodAnswer>> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let engines = engine_per_method(g, cfg, &mut rng);
    let mut answers = Vec::new();
    for &q in nodes {
        for (&m, engine) in METHODS.iter().zip(&engines) {
            if methods.contains(&m) {
                answers.push(engine.query(query_for(g, q, m), &mut rng).unwrap());
            }
        }
    }
    answers
}

/// Regression for latent nondeterminism under the default config (one
/// thread): running every method twice with the same seed must produce
/// identical answers — any divergence means a hash-iteration order leaked
/// into results.
#[test]
fn full_pipeline_twice_with_same_seed_gives_identical_answers() {
    let data = dataset();
    let g = &data.graph;
    let cfg = CodConfig {
        k: 3,
        theta: 15,
        ..CodConfig::default()
    };
    let nodes: Vec<NodeId> = vec![0, 9, 42, 133];
    let run = || per_method_answers(g, cfg, 1000, &nodes, &METHODS);
    assert_eq!(run(), run(), "default-config pipeline is not replayable");
}

/// The same regression for the seeded parallel pipeline: two full runs of
/// CODU and CODL under `Threads(8)` replay exactly.
#[test]
fn parallel_pipeline_twice_with_same_seed_gives_identical_answers() {
    let data = dataset();
    let g = &data.graph;
    let cfg = CodConfig {
        k: 3,
        theta: 15,
        parallelism: Parallelism::Threads(8),
        ..CodConfig::default()
    };
    let nodes: Vec<NodeId> = vec![0, 9, 42];
    let methods = [Method::Codu, Method::Codl];
    let run = || per_method_answers(g, cfg, 2000, &nodes, &methods);
    assert_eq!(run(), run(), "seeded parallel pipeline is not replayable");
}

// ---------------------------------------------------------------------------
// One engine for every method: sharing artifacts must not change answers.
// ---------------------------------------------------------------------------

/// Strips the unequatable error type so whole result sequences can be
/// compared with `assert_eq!`.
fn comparable(
    results: Vec<CodResult<Option<CodAnswer>>>,
) -> Vec<Result<Option<CodAnswer>, String>> {
    results
        .into_iter()
        .map(|r| r.map_err(|e| e.to_string()))
        .collect()
}

/// One engine serving all four methods answers bit-identically to four
/// fresh one-method engines, cold cache and warm, for every thread count —
/// even though the shared engine keeps one artifact cache across methods
/// (CODL⁻ warms the local recluster CODL later reuses) while each fresh
/// engine rebuilds everything.
#[test]
fn engine_answers_match_facade_answers_across_threads() {
    let data = dataset();
    let g = &data.graph;
    let nodes: Vec<NodeId> = vec![0, 9, 42, 133];
    for t in THREADS {
        let cfg = CodConfig {
            k: 3,
            theta: 15,
            parallelism: Parallelism::Threads(t),
            ..CodConfig::default()
        };
        let fresh_answers = per_method_answers(g, cfg, 1000, &nodes, &METHODS);
        let engine = CodEngine::new(g.clone(), cfg);
        // Build the index with the stream's first draw (where the fresh
        // CODL engine consumed it); each pass below skips that draw to stay
        // aligned.
        engine
            .ensure_himor(&mut SmallRng::seed_from_u64(1000))
            .unwrap();
        let pass = |engine: &CodEngine| {
            let mut rng = SmallRng::seed_from_u64(1000);
            let _ = rng.next_u64(); // the index-build draw, consumed at setup
            let mut answers = Vec::new();
            for &q in &nodes {
                for m in METHODS {
                    answers.push(engine.query(query_for(g, q, m), &mut rng).unwrap());
                }
            }
            answers
        };
        let cold = pass(&engine);
        let warm = pass(&engine);
        assert_eq!(
            cold, fresh_answers,
            "threads {t}: cold shared engine diverged from fresh engines"
        );
        assert_eq!(
            warm, fresh_answers,
            "threads {t}: warm shared engine diverged from fresh engines"
        );
        assert!(
            engine.cache_stats().hits > 0,
            "threads {t}: warm pass never hit the cache"
        );
    }
}

/// A deadline that never passes is invisible: an engine with a generous
/// deadline armed (so every checkpoint actually polls a token) answers
/// bit-identically to the unlimited engine, for every thread count, cold
/// cache and warm. This is the governance layer's no-trigger determinism
/// contract.
#[test]
fn generous_limits_replay_bit_identically_across_threads() {
    let data = dataset();
    let g = &data.graph;
    let mut queries: Vec<Query> = Vec::new();
    for &q in &[0u32, 9, 42, 133] {
        let attr = g.node_attrs(q).first().copied().unwrap_or(0);
        queries.push(Query::codu(q));
        queries.push(Query::new(q, attr, Method::Codr));
        queries.push(Query::new(q, attr, Method::CodlMinus));
        queries.push(Query::new(q, attr, Method::Codl));
    }
    // Cold and warm passes are compared *pairwise* between the limited and
    // unlimited engines at the same cache state (a cold CODL query draws an
    // index-build seed mid-stream, so cold and warm streams differ by
    // design — that offset must be identical on both sides).
    type Passes = (
        Vec<Result<Option<CodAnswer>, String>>,
        Vec<Result<Option<CodAnswer>, String>>,
    );
    let run = |t: usize, deadline: Option<std::time::Duration>| -> Passes {
        let cfg = CodConfig {
            k: 3,
            theta: 15,
            parallelism: Parallelism::Threads(t),
            deadline,
            ..CodConfig::default()
        };
        let engine = CodEngine::new(g.clone(), cfg);
        let mut rng = SmallRng::seed_from_u64(5000);
        let cold = comparable(engine.query_batch(&queries, &mut rng));
        let mut rng = SmallRng::seed_from_u64(5000);
        let warm = comparable(engine.query_batch(&queries, &mut rng));
        (cold, warm)
    };
    let generous = Some(std::time::Duration::from_secs(3600));
    let (ref_cold, ref_warm) = run(1, None);
    assert!(ref_cold.iter().any(|r| matches!(r, Ok(Some(_)))));
    for t in THREADS {
        let (cold, warm) = run(t, generous);
        assert_eq!(
            cold, ref_cold,
            "threads {t}: a generous deadline changed cold answers"
        );
        assert_eq!(
            warm, ref_warm,
            "threads {t}: a generous deadline changed warm answers"
        );
    }
}

/// Batched answers are bit-identical to one-at-a-time answers with the same
/// seed, cold cache and warm, for every thread count — including the
/// positions of per-query errors.
#[test]
fn batched_answers_match_sequential_answers() {
    let data = dataset();
    let g = &data.graph;
    let mut queries: Vec<Query> = Vec::new();
    for &q in &[0u32, 9, 42, 133] {
        let attr = g.node_attrs(q).first().copied().unwrap_or(0);
        queries.push(Query::codu(q));
        queries.push(Query::new(q, attr, Method::Codr));
        queries.push(Query::new(q, attr, Method::CodlMinus));
        queries.push(Query::new(q, attr, Method::Codl));
    }
    queries.push(Query::codu(9999)); // out of range: errors in place
                                     // Prebuild the index with one fixed setup stream everywhere, so no run
                                     // consumes a mid-stream index-build draw and all query streams align.
    let make_engine = |t: usize| {
        let cfg = CodConfig {
            k: 3,
            theta: 15,
            parallelism: Parallelism::Threads(t),
            ..CodConfig::default()
        };
        let engine = CodEngine::new(g.clone(), cfg);
        engine
            .ensure_himor(&mut SmallRng::seed_from_u64(4000))
            .unwrap();
        engine
    };
    let reference = {
        let engine = make_engine(1);
        let mut rng = SmallRng::seed_from_u64(3000);
        comparable(
            queries
                .iter()
                .map(|&query| engine.query(query, &mut rng))
                .collect(),
        )
    };
    assert!(reference.iter().any(|r| r.is_err()), "error case missing");
    assert!(reference.iter().any(|r| matches!(r, Ok(Some(_)))));
    for t in THREADS {
        let engine = make_engine(t);
        let mut rng = SmallRng::seed_from_u64(3000);
        let cold = comparable(engine.query_batch(&queries, &mut rng));
        assert_eq!(cold, reference, "threads {t}: cold batch diverged");
        let mut rng = SmallRng::seed_from_u64(3000);
        let warm = comparable(engine.query_batch(&queries, &mut rng));
        assert_eq!(warm, reference, "threads {t}: warm batch diverged");
        let stats = engine.cache_stats();
        assert!(
            stats.hits > 0,
            "threads {t}: warm batch never hit the cache"
        );
    }
}

/// The pool-cache-warm path joins the thread matrix: with the shared
/// RR-pool cache enabled, cold batches (pools built in-line) and warm
/// batches (every pool served from cache) are bit-identical to each other
/// and across 1, 2, and 8 threads — pool growth uses the same per-index
/// seed derivation as everything else, and the warm fold replays the
/// identical sample prefix.
#[test]
fn pooled_engine_batches_replay_across_threads_cold_and_warm() {
    let data = dataset();
    let g = &data.graph;
    let mut queries: Vec<Query> = Vec::new();
    for &q in &[0u32, 9, 42, 133] {
        let attr = g.node_attrs(q).first().copied().unwrap_or(0);
        queries.push(Query::codu(q));
        queries.push(Query::new(q, attr, Method::Codr));
        queries.push(Query::new(q, attr, Method::CodlMinus));
        queries.push(Query::new(q, attr, Method::Codl));
    }
    let make_engine = |t: usize| {
        let cfg = CodConfig {
            k: 3,
            theta: 15,
            pool: true,
            parallelism: Parallelism::Threads(t),
            ..CodConfig::default()
        };
        let engine = CodEngine::new(g.clone(), cfg);
        engine
            .ensure_himor(&mut SmallRng::seed_from_u64(4000))
            .unwrap();
        engine
    };
    let reference = {
        let engine = make_engine(1);
        let mut rng = SmallRng::seed_from_u64(3000);
        comparable(engine.query_batch(&queries, &mut rng))
    };
    assert!(reference.iter().any(|r| matches!(r, Ok(Some(_)))));
    for t in THREADS {
        let engine = make_engine(t);
        let mut rng = SmallRng::seed_from_u64(3000);
        let cold = comparable(engine.query_batch(&queries, &mut rng));
        assert_eq!(cold, reference, "threads {t}: cold pooled batch diverged");
        assert!(engine.pool_stats().pools > 0, "threads {t}: no pool built");
        let mut rng = SmallRng::seed_from_u64(3000);
        let warm = comparable(engine.query_batch(&queries, &mut rng));
        assert_eq!(warm, reference, "threads {t}: warm pooled batch diverged");
        assert!(
            engine.metrics().counters.get(pcod::cod::Counter::PoolHits) > 0,
            "threads {t}: warm batch never hit the pool cache"
        );
    }
}

// ---------------------------------------------------------------------------
// DynamicCod: the mutation pipeline joins the thread matrix.
// ---------------------------------------------------------------------------

/// Randomized mutate+query interleavings replay bit-identically at 1, 2
/// and 8 threads: instances built with the same pinned HIMOR seed and fed
/// the same event stream — edge inserts/removals, attribute re-keys,
/// interleaved queries, and a mid-stream explicit rebuild — answer every
/// query identically no matter how many repair cycles each thread count
/// went through.
#[test]
fn dynamic_mutation_interleavings_replay_across_threads() {
    use pcod::cod::dynamic::DynamicCod;
    let data = dataset();
    let g = &data.graph;
    let run = |t: usize| {
        let cfg = CodConfig {
            k: 3,
            theta: 15,
            parallelism: Parallelism::Threads(t),
            ..CodConfig::default()
        };
        let mut d = DynamicCod::with_seed(g, cfg, 0xD15C).unwrap();
        d.set_rebuild_threshold(10.0); // exercise the repair path
        let mut script = SmallRng::seed_from_u64(31);
        let n = g.num_nodes() as NodeId;
        let mut answers: Vec<Option<(Vec<NodeId>, usize)>> = Vec::new();
        for step in 0..30u64 {
            match script.random_range(0..4u32) {
                0 => {
                    let u = script.random_range(0..n);
                    let v = script.random_range(0..n);
                    if u != v {
                        d.insert_edge(u, v).unwrap();
                    }
                }
                1 => {
                    let u = script.random_range(0..n);
                    for &v in g.csr().neighbors(u) {
                        if d.remove_edge(u, v) {
                            break;
                        }
                    }
                }
                2 => {
                    let v = script.random_range(0..n);
                    let a = script.random_range(0..g.interner().len() as AttrId);
                    d.set_attrs(v, vec![a]).unwrap();
                }
                _ => {}
            }
            if step == 15 {
                // An explicit rebuild mid-stream must not desynchronize
                // anything either (same pinned seed).
                d.rebuild().unwrap();
            }
            let q = script.random_range(0..n);
            let attr = g.node_attrs(q).first().copied().unwrap_or(0);
            let ans = d
                .query(q, attr, &mut SmallRng::seed_from_u64(5000 + step))
                .unwrap();
            answers.push(ans.map(|a| (a.members, a.rank)));
        }
        answers
    };
    let reference = run(1);
    assert!(reference.iter().any(|a| a.is_some()), "no query answered");
    for t in THREADS {
        assert_eq!(run(t), reference, "threads {t}: interleaving diverged");
    }
}

// ---------------------------------------------------------------------------
// Pinned answers: the sample stream itself, not only its self-consistency.
// ---------------------------------------------------------------------------
//
// Every other test here compares the code with itself, so a change that
// alters the drawn samples everywhere at once (a reordered coin, another
// source draw, an HFS that buckets a node elsewhere) would pass them all.
// These fixtures were recorded from the release before stage 1 became
// allocation-free and table-driven. Thread invariance makes one table
// serve every thread count, and the default config is one thread.

/// The pinned query list: 16 nodes of `cora_like(1)`, each asked with its
/// first attribute under all four methods.
const PINNED_NODES: [NodeId; 16] = [
    0, 7, 42, 99, 256, 311, 512, 640, 777, 901, 1024, 1337, 1500, 1789, 2048, 2400,
];

/// FNV-1a over the members' little-endian bytes: a compact, stable
/// fingerprint of an answer's member list.
fn members_fingerprint(members: &[NodeId]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &v in members {
        for b in v.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// One pinned answer: `(|members|, members fingerprint, rank, uncertain,
/// answered from the index)`, or `None` when no community qualifies.
type Pinned = Option<(usize, u64, usize, bool, bool)>;

/// Answers the pinned list on `cora_like(1)` under `parallelism` and
/// `pool`, with a fixed index-build stream and a fixed query stream.
fn pinned_answers(parallelism: Parallelism, pool: bool) -> Vec<Pinned> {
    let g = pcod::datasets::cora_like(1).graph;
    let cfg = CodConfig {
        theta: 4,
        parallelism,
        pool,
        ..CodConfig::default()
    };
    let engine = CodEngine::new(g.clone(), cfg);
    engine
        .ensure_himor(&mut SmallRng::seed_from_u64(16))
        .unwrap();
    let mut rng = SmallRng::seed_from_u64(1616);
    let mut out = Vec::new();
    for &q in &PINNED_NODES {
        let attr = g.node_attrs(q).first().copied().unwrap_or(0);
        let queries = [
            Query::codu(q),
            Query::new(q, attr, Method::Codr),
            Query::new(q, attr, Method::CodlMinus),
            Query::new(q, attr, Method::Codl),
        ];
        for query in queries {
            let answer = engine.query(query, &mut rng).unwrap();
            out.push(answer.map(|a| {
                (
                    a.members.len(),
                    members_fingerprint(&a.members),
                    a.rank,
                    a.uncertain,
                    a.source == AnswerSource::Index,
                )
            }));
        }
    }
    out
}

/// Asserts the pinned list's answers under `parallelism` and `pool` equal
/// the recorded fixture, answer by answer.
fn check_pinned(name: &str, parallelism: Parallelism, pool: bool, want: &[Pinned; 64]) {
    let got = pinned_answers(parallelism, pool);
    assert_eq!(got.len(), want.len());
    for (i, (got, want)) in got.iter().zip(want).enumerate() {
        assert_eq!(
            got,
            want,
            "{name}: answer {i} (node {}, method #{}) moved off the fixture",
            PINNED_NODES[i / 4],
            i % 4
        );
    }
}

#[test]
fn seeded_one_thread_answers_match_the_pinned_fixture() {
    check_pinned("threads 1", Parallelism::Threads(1), false, &PINNED_SEEDED);
}

#[test]
fn seeded_two_thread_answers_match_the_pinned_fixture() {
    check_pinned("threads 2", Parallelism::Threads(2), false, &PINNED_SEEDED);
}

/// `CodConfig::default()` is the one-thread seeded contract.
#[test]
fn default_config_answers_match_the_pinned_fixture() {
    let default = CodConfig::default();
    assert_eq!(default.parallelism, Parallelism::Threads(1));
    assert!(!default.pool);
    check_pinned("default", default.parallelism, default.pool, &PINNED_SEEDED);
}

#[test]
fn pooled_answers_match_the_pinned_fixture() {
    check_pinned("pooled", Parallelism::Threads(2), true, &PINNED_POOLED);
}

#[rustfmt::skip]
const PINNED_SEEDED: [Pinned; 64] = [
    Some((10, 0x04c831a007808507, 3, true, false)),
    Some((19, 0xb6841aa6030528f4, 4, true, false)),
    Some((46, 0x253693a4aaeea16c, 4, true, false)),
    Some((22, 0x4a20d55171afe1d0, 4, true, false)),
    Some((8, 0x5f8cda989451daab, 5, true, false)),
    Some((8, 0x5f8cda989451daab, 2, true, false)),
    Some((29, 0xf057f336a1c5b741, 5, true, false)),
    Some((19, 0x63e5455541a16509, 5, true, false)),
    Some((6, 0xa1926a92e3a8ca95, 4, false, false)),
    Some((6, 0xa1926a92e3a8ca95, 3, true, false)),
    Some((5, 0xd206ed444cfaa668, 5, false, false)),
    Some((6, 0xa1926a92e3a8ca95, 5, false, true)),
    Some((6, 0x051bcc3d6d9196df, 2, true, false)),
    Some((6, 0x051bcc3d6d9196df, 1, false, false)),
    Some((6, 0x051bcc3d6d9196df, 3, true, false)),
    Some((6, 0x051bcc3d6d9196df, 2, false, true)),
    Some((7, 0xc0c6054b1e567fda, 4, true, false)),
    Some((6, 0x7c0ead852bc73c1d, 4, true, false)),
    Some((3, 0xb1f5919cd1075e67, 2, false, false)),
    Some((16, 0xc4125843f2984371, 5, true, false)),
    Some((18, 0xd876c550761a20a0, 5, true, false)),
    Some((7, 0x87abf83f3d070e98, 2, true, false)),
    Some((7, 0x87abf83f3d070e98, 3, true, false)),
    Some((18, 0xd876c550761a20a0, 3, false, true)),
    Some((4, 0x711aacd1c4de9b71, 4, false, false)),
    Some((7, 0xde0f8c01b165ec89, 4, true, false)),
    Some((22, 0xd55d16423f54f849, 4, true, false)),
    Some((7, 0xde0f8c01b165ec89, 4, false, true)),
    Some((58, 0xae998711c3f82809, 4, true, false)),
    Some((372, 0x0590418f2cd8a522, 5, true, false)),
    Some((17, 0xa9caede93b8e7845, 2, true, false)),
    Some((17, 0xa9caede93b8e7845, 4, true, false)),
    Some((7, 0xab051df94dff05a2, 2, true, false)),
    Some((28, 0x13d35ee2a88ff8d4, 5, true, false)),
    Some((23, 0xbd576f3eaa6b5e41, 3, true, false)),
    Some((7, 0xab051df94dff05a2, 5, false, true)),
    Some((5, 0x09bfd5747ed0f8b2, 3, false, false)),
    Some((5, 0x09bfd5747ed0f8b2, 5, false, false)),
    Some((14, 0x7cd94ad2595fdd2a, 5, true, false)),
    Some((5, 0x09bfd5747ed0f8b2, 3, false, true)),
    Some((10, 0xfd0b528da2fc8b28, 5, true, false)),
    Some((11, 0x4865ab2d19882539, 4, true, false)),
    Some((5, 0x0b1f77fdbaba29c1, 5, false, false)),
    Some((5, 0x0b1f77fdbaba29c1, 3, false, false)),
    Some((5, 0xf15ef10397116c38, 3, false, false)),
    Some((5, 0xab05a4fef40aff1c, 4, false, false)),
    Some((5, 0xab05a4fef40aff1c, 5, false, false)),
    Some((5, 0xab05a4fef40aff1c, 4, false, false)),
    Some((4, 0x7cfd4e98fb1edb98, 3, false, false)),
    Some((7, 0xe0d3da98f6f484a9, 5, true, false)),
    Some((6, 0x83ef746608d0d5aa, 5, true, false)),
    Some((6, 0x83ef746608d0d5aa, 3, true, false)),
    Some((6, 0xe5bbbd80409ebd6b, 5, true, false)),
    Some((4, 0xadc8ee9fe023185d, 4, false, false)),
    Some((9, 0x5c7b98ddb350e970, 5, true, false)),
    Some((6, 0xe5bbbd80409ebd6b, 5, false, true)),
    Some((12, 0x708b55659f0203a8, 4, true, false)),
    Some((6, 0x2eae47947b31ed1f, 4, true, false)),
    Some((11, 0x4b7ae434c9fa14e8, 5, true, false)),
    Some((11, 0x4b7ae434c9fa14e8, 4, true, false)),
    Some((9, 0xec4f199cef60bcd7, 3, true, false)),
    Some((5, 0x8173384d1160e531, 4, false, false)),
    Some((12, 0x72f3f23927c4b087, 4, true, false)),
    Some((5, 0x8173384d1160e531, 5, false, false)),
];

#[rustfmt::skip]
const PINNED_POOLED: [Pinned; 64] = [
    Some((10, 0x04c831a007808507, 2, true, false)),
    Some((12, 0xb82c471522b893f0, 5, true, false)),
    Some((13, 0x7ba2e8a9f7c9232b, 5, true, false)),
    Some((22, 0x4a20d55171afe1d0, 5, true, false)),
    Some((15, 0xa57151bdd5f6bc36, 5, true, false)),
    Some((29, 0xf057f336a1c5b741, 3, true, false)),
    Some((29, 0xf057f336a1c5b741, 3, true, false)),
    Some((8, 0x5f8cda989451daab, 1, true, false)),
    Some((13, 0xf79e31b19eed23a9, 5, true, false)),
    Some((5, 0xd206ed444cfaa668, 5, false, false)),
    Some((5, 0xd206ed444cfaa668, 5, false, false)),
    Some((6, 0xa1926a92e3a8ca95, 5, false, true)),
    Some((6, 0x051bcc3d6d9196df, 2, true, false)),
    Some((6, 0x051bcc3d6d9196df, 2, true, false)),
    Some((6, 0x051bcc3d6d9196df, 2, true, false)),
    Some((6, 0x051bcc3d6d9196df, 2, false, true)),
    Some((7, 0xc0c6054b1e567fda, 4, true, false)),
    Some((6, 0x7c0ead852bc73c1d, 2, true, false)),
    Some((3, 0xb1f5919cd1075e67, 1, false, false)),
    Some((3, 0xb1f5919cd1075e67, 2, false, false)),
    Some((7, 0x87abf83f3d070e98, 3, true, false)),
    Some((4, 0x53077ce0fa9e3da3, 3, false, false)),
    Some((4, 0x53077ce0fa9e3da3, 3, false, false)),
    Some((18, 0xd876c550761a20a0, 3, false, true)),
    Some((7, 0xde0f8c01b165ec89, 5, true, false)),
    Some((16, 0x872aec899bc0292b, 5, true, false)),
    Some((14, 0x3f682ea425a24094, 5, true, false)),
    Some((7, 0xde0f8c01b165ec89, 4, false, true)),
    Some((85, 0x7f06700598a412bd, 5, true, false)),
    Some((55, 0xd258fdd491a94992, 3, true, false)),
    Some((50, 0x459a1e9a985f04ec, 3, true, false)),
    Some((50, 0x459a1e9a985f04ec, 3, true, false)),
    Some((23, 0xbd576f3eaa6b5e41, 1, true, false)),
    Some((28, 0x13d35ee2a88ff8d4, 5, true, false)),
    Some((47, 0x98bad8fc002ddb3f, 4, true, false)),
    Some((7, 0xab051df94dff05a2, 5, false, true)),
    Some((5, 0x09bfd5747ed0f8b2, 4, false, false)),
    Some((5, 0x09bfd5747ed0f8b2, 4, false, false)),
    Some((5, 0x09bfd5747ed0f8b2, 4, false, false)),
    Some((5, 0x09bfd5747ed0f8b2, 3, false, true)),
    Some((5, 0x0b1f77fdbaba29c1, 3, false, false)),
    Some((19, 0xf4b4a8230cf94ad7, 5, true, false)),
    Some((5, 0x0b1f77fdbaba29c1, 5, false, false)),
    Some((5, 0x0b1f77fdbaba29c1, 4, false, false)),
    Some((10, 0xcaf848cc923f1a8d, 4, true, false)),
    Some((5, 0xab05a4fef40aff1c, 5, false, false)),
    Some((5, 0xab05a4fef40aff1c, 5, false, false)),
    Some((5, 0xab05a4fef40aff1c, 3, false, false)),
    Some((4, 0x7cfd4e98fb1edb98, 4, false, false)),
    Some((7, 0xe0d3da98f6f484a9, 5, true, false)),
    Some((6, 0x83ef746608d0d5aa, 3, true, false)),
    Some((21, 0x63f8cb68f4cdc051, 5, true, false)),
    Some((6, 0xe5bbbd80409ebd6b, 4, true, false)),
    Some((4, 0xadc8ee9fe023185d, 2, false, false)),
    Some((9, 0x5c7b98ddb350e970, 5, true, false)),
    Some((6, 0xe5bbbd80409ebd6b, 5, false, true)),
    Some((5, 0x550e7ced198565d6, 5, false, false)),
    Some((6, 0x2eae47947b31ed1f, 5, true, false)),
    Some((6, 0x2eae47947b31ed1f, 5, true, false)),
    Some((6, 0x2eae47947b31ed1f, 5, true, false)),
    Some((9, 0xec4f199cef60bcd7, 3, true, false)),
    Some((15, 0x574ff9ed32bcb487, 5, true, false)),
    Some((12, 0x72f3f23927c4b087, 3, true, false)),
    Some((5, 0x8173384d1160e531, 3, false, false)),
];

// The answer fixtures above would miss a tie-break change in NN-chain
// that happens to leave those 64 answers alone, and CODX equality compares
// two builds of one binary. These fingerprints pin the merge sequences
// themselves, recorded from the release before the linkage became fixed.

/// FNV-1a over a merge list, each merge as its `a` then `b` vertex id,
/// hashed as [`members_fingerprint`] hashes a member list.
fn merges_fingerprint(merges: &[pcod::hierarchy::Merge]) -> u64 {
    let ids: Vec<NodeId> = merges.iter().flat_map(|m| [m.a, m.b]).collect();
    members_fingerprint(&ids)
}

/// `(preset, T, g_ℓ for attribute 0 at β = 1)` merge fingerprints on the
/// seed-1 presets.
#[rustfmt::skip]
const PINNED_MERGES: [(&str, u64, u64); 3] = [
    ("cora", 0x11d7536a7816353d, 0xa3669d51e9de9b59),
    ("citeseer", 0xa892d844044714e0, 0xea68159a47a61608),
    ("pubmed", 0xd05b04ead36005d5, 0xf44f884ad904ca61),
];

/// `cluster` on `cora_like(1)` for attribute 0 under the two ablation
/// weight schemes, `JaccardBlend(1.0)` and `DegreeNormalized(1.0)`. Each
/// cora node carries one label, so the Jaccard-blend weights are the
/// integers 1, 2 and 3; the degree-normalized weights are not integers,
/// so a reordered sum would show there.
const PINNED_SCHEMES_CORA: [u64; 2] = [0x4785006d148051f5, 0x3280df1266848131];

#[test]
fn nn_chain_merges_match_the_pinned_fixture() {
    use pcod::cod::recluster::{attribute_weights_with, global_recluster, WeightScheme};
    for (name, want_t, want_g) in PINNED_MERGES {
        let g = pcod::datasets::by_name(name, 1).unwrap().graph;
        let t = merges_fingerprint(&build_hierarchy(g.csr()).merges());
        let gl = merges_fingerprint(&global_recluster(&g, 0, 1.0).merges());
        assert_eq!(t, want_t, "{name}: T merge order moved");
        assert_eq!(gl, want_g, "{name}: g_ℓ merge order moved");
    }
    let g = pcod::datasets::cora_like(1).graph;
    let schemes = [
        WeightScheme::JaccardBlend(1.0),
        WeightScheme::DegreeNormalized(1.0),
    ];
    for (scheme, want) in schemes.into_iter().zip(PINNED_SCHEMES_CORA) {
        let w = attribute_weights_with(&g, 0, scheme);
        let got = merges_fingerprint(&pcod::hierarchy::cluster(g.csr(), &w));
        assert_eq!(got, want, "cora {scheme:?} merge order moved");
    }
}
