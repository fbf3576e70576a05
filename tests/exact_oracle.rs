//! Exact influence oracle: brute-force possible-world enumeration on tiny
//! graphs, validating Theorems 1 and 2 end to end.
//!
//! Under the independent cascade model, every directed edge `u → v` is live
//! with probability `p(u, v)` independently; `σ_C(q)` is the expected
//! number of nodes in `C` reachable from `q` through live edges inside
//! `C`. For graphs with at most ~11 directed edge pairs we can enumerate
//! all `2^{2|E|}` worlds exactly and compare against both the RR-based
//! estimator and the forward Monte-Carlo simulator.

use pcod::influence::estimate::InfluenceEstimate;
use pcod::influence::montecarlo;
use pcod::prelude::*;
use rand::prelude::*;

/// Exact σ_C(q) by enumerating all live/blocked states of directed edges.
fn exact_influence(g: &Csr, model: Model, q: NodeId, members: &[NodeId]) -> f64 {
    // Directed edges (u -> v) with the forward probability p(u, v).
    let mut edges: Vec<(NodeId, NodeId, f64)> = Vec::new();
    for (u, v) in g.edges() {
        edges.push((u, v, model.edge_prob(g, v)));
        edges.push((v, u, model.edge_prob(g, u)));
    }
    let m = edges.len();
    assert!(m <= 24, "exact enumeration needs a tiny graph");
    let keep = |v: NodeId| members.binary_search(&v).is_ok();
    assert!(keep(q));
    let mut total = 0.0f64;
    for world in 0u32..(1 << m) {
        let mut prob = 1.0f64;
        for (i, &(_, _, p)) in edges.iter().enumerate() {
            if world >> i & 1 == 1 {
                prob *= p;
            } else {
                prob *= 1.0 - p;
            }
            if prob == 0.0 {
                break;
            }
        }
        if prob == 0.0 {
            continue;
        }
        // BFS over live edges restricted to members.
        let mut active = vec![q];
        let mut seen = vec![false; g.num_nodes()];
        seen[q as usize] = true;
        let mut head = 0;
        while head < active.len() {
            let x = active[head];
            head += 1;
            for (i, &(a, b, _)) in edges.iter().enumerate() {
                if a == x && world >> i & 1 == 1 && !seen[b as usize] && keep(b) {
                    seen[b as usize] = true;
                    active.push(b);
                }
            }
        }
        total += prob * active.len() as f64;
    }
    total
}

/// Path 0-1-2 plus chord 0-2: 8 directed edges, enumerable.
fn tiny() -> Csr {
    let mut b = GraphBuilder::new(4);
    b.add_edge(0, 1);
    b.add_edge(1, 2);
    b.add_edge(0, 2);
    b.add_edge(2, 3);
    b.build()
}

#[test]
fn monte_carlo_converges_to_exact_ic() {
    let g = tiny();
    let members: Vec<NodeId> = (0..4).collect();
    let mut rng = SmallRng::seed_from_u64(1);
    for model in [Model::WeightedCascade, Model::UniformIc(0.4)] {
        for q in 0..4u32 {
            let exact = exact_influence(&g, model, q, &members);
            let seeds = SeedSequence::new(rng.next_u64());
            let par = Parallelism::Threads(1);
            let mc = montecarlo::influence(&g, model, q, 60_000, seeds, par, |_| true);
            assert!(
                (mc - exact).abs() < 0.03 * exact.max(1.0),
                "{model:?} q={q}: mc {mc} vs exact {exact}"
            );
        }
    }
}

#[test]
fn rr_estimator_converges_to_exact_ic() {
    let g = tiny();
    let members: Vec<NodeId> = (0..4).collect();
    let mut rng = SmallRng::seed_from_u64(2);
    for model in [Model::WeightedCascade, Model::UniformIc(0.35)] {
        let seeds = SeedSequence::new(rng.next_u64());
        let est = InfluenceEstimate::on_graph(&g, model, 120_000, seeds, Parallelism::Threads(1));
        for q in 0..4u32 {
            let exact = exact_influence(&g, model, q, &members);
            let got = est.sigma(q);
            assert!(
                (got - exact).abs() < 0.04 * exact.max(1.0),
                "{model:?} q={q}: rr {got} vs exact {exact}"
            );
        }
    }
}

#[test]
fn restricted_rr_estimator_matches_exact_community_influence() {
    // Theorem 2 exactly: σ_C with C = {0, 1, 2} (node 3 excluded).
    let g = tiny();
    let members: Vec<NodeId> = vec![0, 1, 2];
    let mut rng = SmallRng::seed_from_u64(3);
    let est = InfluenceEstimate::on_community(
        &g,
        Model::WeightedCascade,
        &members,
        150_000,
        SeedSequence::new(rng.next_u64()),
        Parallelism::Threads(1),
    );
    for &q in &members {
        let exact = exact_influence(&g, Model::WeightedCascade, q, &members);
        let got = est.sigma(q);
        assert!(
            (got - exact).abs() < 0.04 * exact.max(1.0),
            "q={q}: restricted rr {got} vs exact {exact}"
        );
    }
}

#[test]
fn exact_oracle_sanity() {
    // Hand-checkable case: two nodes, one edge, p = 1 both ways.
    let mut b = GraphBuilder::new(2);
    b.add_edge(0, 1);
    let g = b.build();
    let members = vec![0, 1];
    let exact = exact_influence(&g, Model::WeightedCascade, 0, &members);
    assert!((exact - 2.0).abs() < 1e-12);
    // Uniform IC p = 0.5: σ(0) = 1 + 0.5 = 1.5.
    let exact = exact_influence(&g, Model::UniformIc(0.5), 0, &members);
    assert!((exact - 1.5).abs() < 1e-12);
}
