//! Estimator-equivalence tests: the theorems of §II–§III hold numerically.

use pcod::cod::compressed::{compressed_cod, CodOutcome, EvalOptions, Samples};
use pcod::cod::independent::independent_cod;
use pcod::cod::recluster::build_hierarchy;
use pcod::influence::estimate::InfluenceEstimate;
use pcod::influence::montecarlo;
use pcod::prelude::*;
use rand::prelude::*;

/// Compressed evaluation on one thread, its master seed drawn from `rng`.
fn evaluate(
    g: &Csr,
    chain: &Chain<'_>,
    q: NodeId,
    k: usize,
    theta: usize,
    rng: &mut SmallRng,
) -> CodOutcome {
    let opts = EvalOptions {
        par: Parallelism::Threads(1),
        ..EvalOptions::default()
    };
    let seed = Samples::Seed(rng.next_u64());
    compressed_cod(g, Model::WeightedCascade, chain, q, k, theta, seed, opts).unwrap()
}

/// One-thread seeds drawn from `rng`.
fn seeds(rng: &mut SmallRng) -> (SeedSequence, Parallelism) {
    (SeedSequence::new(rng.next_u64()), Parallelism::Threads(1))
}

fn dataset() -> pcod::datasets::Dataset {
    pcod::datasets::amazon_like_scaled(600, 123)
}

/// Theorem 2: restricting RR-graph traversal to a community estimates the
/// same influence as forward Monte-Carlo simulation inside the community.
#[test]
fn theorem_2_induced_estimates_match_forward_simulation() {
    let data = dataset();
    let g = data.graph.csr();
    let mut rng = SmallRng::seed_from_u64(7);
    // Pick a mid-size planted community as C.
    let members = data
        .communities
        .iter()
        .find(|c| c.len() >= 12 && c.len() <= 60)
        .expect("a mid-size community exists")
        .clone();
    let (seq, par) = seeds(&mut rng);
    let est = InfluenceEstimate::on_community(g, Model::WeightedCascade, &members, 4000, seq, par);
    let mut mc_rng = SmallRng::seed_from_u64(8);
    for &v in members.iter().take(6) {
        let (seq, par) = seeds(&mut mc_rng);
        let truth = montecarlo::influence(g, Model::WeightedCascade, v, 4000, seq, par, |u| {
            members.binary_search(&u).is_ok()
        });
        let got = est.sigma(v);
        assert!(
            (got - truth).abs() < 0.35 * truth.max(1.0),
            "node {v}: RR estimate {got} vs Monte-Carlo {truth}"
        );
    }
}

/// Compressed and Independent agree on per-level ranks (up to sampling
/// noise) and therefore on the found community, at high θ.
#[test]
fn compressed_matches_independent_at_high_theta() {
    let data = dataset();
    let g = &data.graph;
    let dendro = build_hierarchy(g.csr());
    let lca = LcaIndex::new(&dendro);
    let mut rng = SmallRng::seed_from_u64(9);
    let queries = pcod::datasets::gen_queries(g, 5, &mut rng);
    let k = 5;
    for &(q, _) in &queries {
        let chain = Chain::new(&dendro, &lca, q).unwrap();
        if chain.len() > 14 {
            continue; // keep Independent affordable
        }
        let a = evaluate(g.csr(), &chain, q, k, 60, &mut rng);
        let b = independent_cod(g.csr(), Model::WeightedCascade, &chain, q, k, 60, &mut rng);
        // Compare the top-k verdict per level; allow a one-level slack for
        // borderline ranks.
        let mut disagreements = 0;
        for h in 0..chain.len() {
            let x = a.ranks[h] <= k;
            let y = b.ranks[h] <= k;
            if x != y {
                disagreements += 1;
            }
        }
        assert!(
            disagreements * 4 <= chain.len(),
            "q={q}: {disagreements}/{} levels disagree (ranks {:?} vs {:?})",
            chain.len(),
            a.ranks,
            b.ranks
        );
    }
}

/// The compressed evaluator's per-level σ̂ of the query node is consistent
/// with a direct per-community estimate.
#[test]
fn compressed_sigma_is_calibrated() {
    let data = dataset();
    let g = &data.graph;
    let dendro = build_hierarchy(g.csr());
    let lca = LcaIndex::new(&dendro);
    let mut rng = SmallRng::seed_from_u64(10);
    let q = pcod::datasets::gen_queries(g, 1, &mut rng)[0].0;
    let chain = Chain::new(&dendro, &lca, q).unwrap();
    let out = evaluate(g.csr(), &chain, q, 5, 80, &mut rng);
    // Root-level sigma equals the global influence of q.
    let mut mc_rng = SmallRng::seed_from_u64(11);
    let (seq, par) = seeds(&mut mc_rng);
    let truth = montecarlo::influence(g.csr(), Model::WeightedCascade, q, 6000, seq, par, |_| true);
    let est = *out.sigma_q.last().unwrap();
    assert!(
        (est - truth).abs() < 0.35 * truth.max(1.0) + 0.5,
        "sigma {est} vs Monte-Carlo {truth}"
    );
}

/// The linear threshold model round-trips through RR estimation too
/// (the paper's §II-A claims model-generality of the framework).
#[test]
fn lt_model_estimates_match_simulation() {
    let mut b = GraphBuilder::new(6);
    for v in 1..6 {
        b.add_edge(0, v);
    }
    b.add_edge(1, 2);
    let g = b.build();
    let mut rng = SmallRng::seed_from_u64(12);
    let (seq, par) = seeds(&mut rng);
    let est = InfluenceEstimate::on_graph(&g, Model::LinearThreshold, 30_000, seq, par);
    let mut mc_rng = SmallRng::seed_from_u64(13);
    for v in 0..6u32 {
        let (seq, par) = seeds(&mut mc_rng);
        let truth =
            montecarlo::influence(&g, Model::LinearThreshold, v, 20_000, seq, par, |_| true);
        let got = est.sigma(v);
        assert!(
            (got - truth).abs() < 0.25 * truth.max(1.0),
            "node {v}: LT estimate {got} vs simulation {truth}"
        );
    }
}

/// HIMOR index answers equal index-free compressed evaluation over the
/// same (non-attributed) hierarchy for globally influential nodes.
#[test]
fn himor_is_consistent_with_direct_evaluation() {
    let data = dataset();
    let g = &data.graph;
    let dendro = build_hierarchy(g.csr());
    let lca = LcaIndex::new(&dendro);
    let mut rng = SmallRng::seed_from_u64(14);
    let (model, seed, par) = (
        Model::WeightedCascade,
        rng.next_u64(),
        Parallelism::Threads(1),
    );
    let index = HimorIndex::build(g.csr(), model, &dendro, &lca, 60, seed, par, None).unwrap();
    let queries = pcod::datasets::gen_queries(g, 8, &mut rng);
    let k = 5;
    let mut agreements = 0;
    let mut total = 0;
    for &(q, _) in &queries {
        let chain = Chain::new(&dendro, &lca, q).unwrap();
        let direct = evaluate(g.csr(), &chain, q, k, 60, &mut rng);
        let from_index = index.largest_top_k(&dendro, q, None, k);
        let direct_vertex = direct.best_level.map(|h| dendro.root_path(q)[h]);
        total += 1;
        if from_index == direct_vertex {
            agreements += 1;
        } else if let (Some(a), Some(b)) = (from_index, direct_vertex) {
            // Allow near-misses from sampling noise: sizes within 4x.
            let (x, y) = (dendro.size(a) as f64, dendro.size(b) as f64);
            if x.max(y) / x.min(y) < 4.0 {
                agreements += 1;
            }
        }
    }
    assert!(
        agreements * 3 >= total * 2,
        "index vs direct agreement too low: {agreements}/{total}"
    );
}

// ---------------------------------------------------------------------------
// Thread-invariance at the query surface: under any seeded `Parallelism`,
// every method is a pure function of `(graph, seed, cfg)` — the thread
// count must never show through in an answer, including the `uncertain`
// flag on budgeted runs.
// ---------------------------------------------------------------------------

/// Runs every method on one engine with `Parallelism::Threads(t)` and a
/// fresh RNG seeded identically, returning all answers for comparison
/// across `t`.
fn answers_at_threads(
    data: &pcod::datasets::Dataset,
    cfg_base: CodConfig,
    t: usize,
) -> Vec<Option<CodAnswer>> {
    let g = &data.graph;
    let cfg = CodConfig {
        parallelism: Parallelism::Threads(t),
        ..cfg_base
    };
    let mut rng = SmallRng::seed_from_u64(0xEC0D);
    let engine = CodEngine::new(g.clone(), cfg);
    let mut answers = Vec::new();
    for q in [0u32, 31, 77, 150] {
        let attr = g.node_attrs(q).first().copied().unwrap_or(0);
        answers.push(engine.query(Query::codu(q), &mut rng).unwrap());
        for method in [Method::Codr, Method::CodlMinus, Method::Codl] {
            let query = Query::new(q, attr, method);
            answers.push(engine.query(query, &mut rng).unwrap());
        }
    }
    answers
}

/// CODU, CODR, CODL⁻ and CODL give byte-identical answers at 1, 2 and 8
/// threads when seeded parallelism is on.
#[test]
fn facades_are_thread_count_invariant() {
    let data = dataset();
    let cfg = CodConfig {
        k: 3,
        theta: 12,
        ..CodConfig::default()
    };
    let reference = answers_at_threads(&data, cfg, 1);
    for t in [2usize, 8] {
        let got = answers_at_threads(&data, cfg, t);
        assert_eq!(got, reference, "threads {t}: answers diverged");
    }
}

/// Budgeted evaluation — including whether the budget ran out and flagged
/// the answer `uncertain` — is thread-count-invariant too.
#[test]
fn budgeted_facades_are_thread_count_invariant() {
    let data = dataset();
    let cfg = CodConfig {
        k: 3,
        theta: 12,
        budget: Some(600), // small enough to trip on deep chains
        ..CodConfig::default()
    };
    let reference = answers_at_threads(&data, cfg, 1);
    assert!(
        reference.iter().flatten().any(|a| a.uncertain),
        "budget never tripped — test is not exercising the budgeted path"
    );
    for t in [2usize, 8] {
        let got = answers_at_threads(&data, cfg, t);
        assert_eq!(got, reference, "threads {t}: budgeted answers diverged");
    }
}
