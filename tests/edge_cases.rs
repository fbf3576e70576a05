//! Cross-crate edge-case tests: tiny graphs, degenerate parameters, and
//! behavioural contracts that unit tests don't cover.

use pcod::cod::compressed::{compressed_cod, CodOutcome, EvalOptions, Samples};
use pcod::cod::recluster::build_hierarchy;
use pcod::graph::subgraph::Subgraph;
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
) -> CodResult<CodOutcome> {
    let opts = EvalOptions {
        par: Parallelism::Threads(1),
        ..EvalOptions::default()
    };
    let seed = Samples::Seed(rng.next_u64());
    compressed_cod(g, Model::WeightedCascade, chain, q, k, theta, seed, opts)
}

fn two_node_graph() -> AttributedGraph {
    let mut b = GraphBuilder::new(2);
    b.add_edge(0, 1);
    AttributedGraph::unattributed(b.build())
}

#[test]
fn cod_on_two_nodes() {
    let g = two_node_graph();
    let cfg = CodConfig {
        k: 1,
        theta: 100,
        ..CodConfig::default()
    };
    let engine = CodEngine::new(g, cfg);
    let mut rng = SmallRng::seed_from_u64(1);
    let ans = engine
        .query(Query::codu(0), &mut rng)
        .unwrap()
        .expect("a pair has one community");
    assert_eq!(ans.members, vec![0, 1]);
}

#[test]
fn k_at_least_community_size_accepts_every_level() {
    let data = pcod::datasets::paper_example();
    let g = &data.graph;
    let dendro = build_hierarchy(g.csr());
    let lca = LcaIndex::new(&dendro);
    let chain = Chain::new(&dendro, &lca, 0).unwrap();
    let mut rng = SmallRng::seed_from_u64(2);
    // k = |V| dominates every rank: best level must be the chain top.
    let out = evaluate(g.csr(), &chain, 0, 10, 200, &mut rng).unwrap();
    assert_eq!(out.best_level, Some(chain.len() - 1));
    for (h, &r) in out.ranks.iter().enumerate() {
        assert!(r <= chain.size(h), "rank bounded by community size");
    }
}

#[test]
fn codr_with_unused_attribute_degenerates_to_codu_hierarchy() {
    // An attribute carried by no node leaves g_ℓ unweighted, so CODR's
    // hierarchy equals CODU's.
    let data = pcod::datasets::paper_example();
    let g = &data.graph;
    let unused_attr = 77;
    let r = pcod::cod::recluster::global_recluster(g, unused_attr, 1.0);
    let u = build_hierarchy(g.csr());
    for v in 0..g.num_nodes() as NodeId {
        assert_eq!(r.root_path(v).len(), u.root_path(v).len());
    }
    // Same community structure vertex by vertex.
    for x in 0..r.num_vertices() as u32 {
        assert_eq!(r.members_sorted(x), u.members_sorted(x));
    }
}

#[test]
fn identity_subgraph_round_trips() {
    let data = pcod::datasets::paper_example();
    let g = data.graph.csr();
    let all: Vec<NodeId> = (0..g.num_nodes() as NodeId).collect();
    let s = Subgraph::induced(g, &all);
    assert_eq!(s.csr.num_edges(), g.num_edges());
    for v in 0..g.num_nodes() as NodeId {
        assert_eq!(s.local(v), Some(v));
        assert_eq!(s.parent(v), v);
    }
}

#[test]
fn dendrogram_merges_round_trip() {
    let data = pcod::datasets::cora_like(3);
    let d = build_hierarchy(data.graph.csr());
    let d2 = Dendrogram::from_merges(d.num_leaves(), &d.merges());
    assert_eq!(d.num_vertices(), d2.num_vertices());
    for v in 0..d.num_vertices() as u32 {
        assert_eq!(d.size(v), d2.size(v));
        assert_eq!(d.depth(v), d2.depth(v));
        assert_eq!(d.parent(v), d2.parent(v));
    }
}

#[test]
fn divisive_hierarchy_supports_cod_queries() {
    // The COD machinery is hierarchy-agnostic (paper §II): run compressed
    // evaluation over a divisive bisection hierarchy.
    let data = pcod::datasets::citeseer_like(4);
    let g = &data.graph;
    let dendro = pcod::hierarchy::bisect(g.csr());
    let lca = LcaIndex::new(&dendro);
    let mut rng = SmallRng::seed_from_u64(5);
    let queries = pcod::datasets::gen_queries(g, 6, &mut rng);
    for &(q, _) in &queries {
        let chain = Chain::new(&dendro, &lca, q).unwrap();
        let out = evaluate(g.csr(), &chain, q, 5, 10, &mut rng).unwrap();
        assert_eq!(out.ranks.len(), chain.len());
        if let Some(h) = out.best_level {
            assert!(chain.members(h).binary_search(&q).is_ok());
        }
    }
}

#[test]
fn divisive_hierarchy_is_much_flatter_on_skewed_graphs() {
    let data = pcod::datasets::retweet_like(6);
    let g = data.graph.csr();
    let agglomerative = build_hierarchy(g);
    let divisive = pcod::hierarchy::bisect(g);
    assert!(
        divisive.avg_chain_len() * 3.0 < agglomerative.avg_chain_len(),
        "divisive {:.1} vs agglomerative {:.1}",
        divisive.avg_chain_len(),
        agglomerative.avg_chain_len()
    );
}

#[test]
fn baselines_reject_out_of_attribute_queries() {
    let data = pcod::datasets::paper_example();
    let g = &data.graph;
    let ml = g.interner().get("ML").unwrap();
    // Node 0 carries DB only.
    assert!(pcod::search::acq_query(g, 0, ml, 1).is_none());
    assert!(pcod::search::cac_query(g, 0, ml).is_none());
}

#[test]
fn lore_on_every_node_of_the_example_is_stable() {
    let data = pcod::datasets::paper_example();
    let g = &data.graph;
    let dendro = build_hierarchy(g.csr());
    let lca = LcaIndex::new(&dendro);
    for q in 0..10u32 {
        for attr in 0..2u32 {
            if let Some(choice) =
                pcod::cod::lore::select_recluster_community(g, &dendro, &lca, q, attr)
            {
                // The chosen community must contain q and at least 2 nodes.
                assert!(dendro.contains(choice.vertex, q));
                assert!(dendro.size(choice.vertex) >= 2);
                assert!(choice.score > 0.0);
            }
        }
    }
}

#[test]
fn quality_measures_on_whole_graph() {
    let data = pcod::datasets::paper_example();
    let g = &data.graph;
    let all: Vec<NodeId> = (0..10).collect();
    let rho = pcod::graph::measures::topology_density(g.csr(), &all);
    assert!((rho - 15.0 / 45.0).abs() < 1e-12);
    let db = g.interner().get("DB").unwrap();
    let phi = pcod::graph::measures::attribute_density(g, &all, db);
    assert!((phi - 0.6).abs() < 1e-12);
    assert_eq!(pcod::graph::measures::conductance(g.csr(), &all), 0.0);
}

#[test]
fn chain_universe_matches_top_community() {
    let data = pcod::datasets::citeseer_like(7);
    let g = &data.graph;
    let dendro = build_hierarchy(g.csr());
    let lca = LcaIndex::new(&dendro);
    let chain = Chain::new(&dendro, &lca, 42).unwrap();
    assert_eq!(chain.universe(), chain.members(chain.len() - 1));
}

#[test]
fn himor_on_two_node_graph() {
    let g = two_node_graph();
    let dendro = build_hierarchy(g.csr());
    let lca = LcaIndex::new(&dendro);
    let mut rng = SmallRng::seed_from_u64(8);
    let index = HimorIndex::build(
        g.csr(),
        Model::WeightedCascade,
        &dendro,
        &lca,
        100,
        rng.next_u64(),
        Parallelism::Threads(1),
        None,
    )
    .unwrap();
    // Both nodes have exactly one path community (the root) and rank <= 2.
    for v in 0..2u32 {
        assert_eq!(index.ranks_of(v).len(), 1);
        assert!(index.ranks_of(v)[0] <= 2);
    }
    assert_eq!(
        index.largest_top_k(&dendro, 0, None, 2),
        Some(dendro.root())
    );
}

#[test]
fn zero_budget_reports_the_chain_wide_requirement() {
    // The `required` figure in BudgetExhausted is the chain-wide draw
    // count θ·|universe| a full evaluation would make — not the per-node
    // θ. The two-node graph makes the distinction visible: θ = 7 per node
    // but the universe has 2 nodes, so the query needs 14 draws.
    let g = two_node_graph();
    let cfg = CodConfig {
        k: 1,
        theta: 7,
        budget: Some(0),
        ..CodConfig::default()
    };
    let engine = CodEngine::new(g, cfg);
    let mut rng = SmallRng::seed_from_u64(3);
    let err = engine.query(Query::codu(0), &mut rng).unwrap_err();
    match err {
        CodError::BudgetExhausted { budget, required } => {
            assert_eq!(budget, 0);
            assert_eq!(required, 14, "required must be theta * |universe|");
        }
        other => panic!("expected BudgetExhausted, got {other}"),
    }
    assert_eq!(
        err.to_string(),
        "sample budget exhausted: 0 samples allowed but the query needs at least 14"
    );
}

#[test]
fn pooled_zero_budget_nets_already_pooled_samples() {
    // On the shared-pool path, `required` is the chain-wide θ·|universe|
    // *net of samples already pooled*: the budget only has to pay for new
    // draws. θ = 7 over a 2-node universe needs 14 samples; with 5 pooled,
    // a zero budget is short exactly 9 — and once the pool holds all 14,
    // a zero budget answers outright.
    use pcod::cod::compressed::resolve_theta;
    use pcod::cod::pool::RrPoolEntry;
    use pcod::cod::recluster::build_hierarchy;
    use std::sync::Arc;

    let g = two_node_graph();
    let dendro = build_hierarchy(g.csr());
    let lca = LcaIndex::new(&dendro);
    let chain = Chain::new(&dendro, &lca, 0).unwrap();
    let universe: Arc<Vec<NodeId>> = Arc::new(chain.universe().to_vec());
    assert_eq!(universe.len(), 2);
    let pool = RrPoolEntry::new(None, universe, false);
    pool.ensure(
        g.csr(),
        Model::WeightedCascade,
        5,
        Parallelism::Threads(1),
        None,
    );
    let evaluate = |budget: Option<usize>| {
        let opts = EvalOptions {
            budget,
            par: Parallelism::Threads(1),
            ..EvalOptions::default()
        };
        let pooled = Samples::Pool(&pool);
        compressed_cod(
            g.csr(),
            Model::WeightedCascade,
            &chain,
            0,
            1,
            7,
            pooled,
            opts,
        )
    };
    match evaluate(Some(0)).unwrap_err() {
        CodError::BudgetExhausted { budget, required } => {
            assert_eq!(budget, 0);
            assert_eq!(required, 9, "required must net the 5 pooled samples");
        }
        other => panic!("expected BudgetExhausted, got {other}"),
    }
    // The resolver alone, for the exact netting arithmetic.
    assert_eq!(resolve_theta(7, 2, None, 5).unwrap(), (14, false));
    assert_eq!(resolve_theta(7, 2, Some(4), 5).unwrap(), (9, true));
    assert_eq!(resolve_theta(7, 2, Some(0), 14).unwrap(), (14, false));
    // A fully stocked pool makes a zero budget sufficient: no new draws.
    pool.ensure(
        g.csr(),
        Model::WeightedCascade,
        14,
        Parallelism::Threads(1),
        None,
    );
    let out = evaluate(Some(0)).expect("zero budget suffices on a full pool");
    assert!(
        !out.truncated,
        "nothing was cut: the pool covered θ·|universe|"
    );
    assert_eq!(out.theta, 14);
    assert_eq!(
        out,
        evaluate(None).unwrap(),
        "budgeted ≡ unbudgeted on a full pool"
    );
}

#[test]
fn theta_whose_total_overflows_is_rejected_before_sampling() {
    // Θ = θ·|V| must not wrap: on the 31-node path, θ = usize::MAX / 31 + 1
    // wraps to 15 samples, and θ = usize::MAX to a count no run finishes.
    // Every path that takes θ rejects both with InvalidQuery; queries draw
    // no randomness, and nothing builds an index.
    use pcod::cod::compressed::resolve_theta;
    use pcod::cod::dynamic::DynamicCod;
    use pcod::cod::DurableCod;

    let mut b = GraphBuilder::new(31);
    for v in 0..30 {
        b.add_edge(v, v + 1);
    }
    let mut interner = pcod::graph::AttrInterner::new();
    interner.intern("A");
    let attrs = pcod::graph::AttrTable::from_lists(vec![vec![0]; 31]);
    let g = AttributedGraph::from_parts(b.build(), attrs, interner);
    let n = g.num_nodes();
    for theta in [usize::MAX / n + 1, usize::MAX] {
        assert!(theta.checked_mul(n).is_none(), "θ = {theta} must overflow");
        let invalid = |e: CodError| {
            assert!(
                matches!(&e, CodError::InvalidQuery(m) if m.contains("overflows")),
                "θ = {theta}: {e}"
            );
        };
        invalid(resolve_theta(theta, n, None, 0).unwrap_err());

        let cfg = CodConfig {
            k: 1,
            theta,
            ..CodConfig::default()
        };
        let engine = CodEngine::new(g.clone(), cfg);
        let mut rng = SmallRng::seed_from_u64(4);
        for method in [Method::Codu, Method::Codr, Method::CodlMinus, Method::Codl] {
            let query = Query {
                node: 3,
                attr: None,
                method,
            };
            let query = if method == Method::Codu {
                query
            } else {
                Query {
                    attr: Some(0),
                    ..query
                }
            };
            match engine.query(query, &mut rng) {
                Err(e) => invalid(e),
                Ok(a) => panic!("θ = {theta}, {method:?}: answered {a:?}"),
            }
        }
        assert!(engine.himor().is_none(), "no index was built");
        let mut fresh = SmallRng::seed_from_u64(4);
        assert_eq!(rng.next_u64(), fresh.next_u64(), "no randomness was drawn");

        // The eager index build and the CODL builders fail instead of
        // panicking.
        invalid(engine.ensure_himor(&mut rng).expect_err("rejected"));
        assert!(engine.himor().is_none(), "a rejected build sets no index");

        invalid(DynamicCod::with_seed(&g, cfg, 9).err().expect("rejected"));
        let dir = std::env::temp_dir().join(format!("cod_theta_{}_{theta}", std::process::id()));
        let dcfg = pcod::cod::DurabilityConfig::default();
        invalid(
            DurableCod::create(&dir, &g, cfg, 9, dcfg)
                .err()
                .expect("rejected"),
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
