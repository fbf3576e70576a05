//! Property-based tests (proptest) for the core invariants.

use std::sync::Arc;

use cod_graph::FxHashMap;
use pcod::cod::compressed::{compressed_cod, incremental_top_k, CodOutcome, EvalOptions, Samples};
use pcod::cod::pool::RrPoolEntry;
use pcod::cod::recluster::build_hierarchy;
use pcod::cod::SubgraphChain;
use pcod::graph::subgraph::Subgraph;
use pcod::influence::{RrGraph, RrPool};
use pcod::prelude::*;
use proptest::prelude::*;
use rand::prelude::*;

/// A random connected graph from a seed and size.
fn random_graph(n: usize, extra_edges: usize, seed: u64) -> Csr {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut b = GraphBuilder::new(n);
    // Random spanning tree for connectivity.
    for v in 1..n as NodeId {
        let u = rng.random_range(0..v);
        b.add_edge(u, v);
    }
    for _ in 0..extra_edges {
        let u = rng.random_range(0..n as NodeId);
        let v = rng.random_range(0..n as NodeId);
        b.add_edge(u, v);
    }
    b.build()
}

/// Definition 3 applied literally: each RR graph's node `v` is recorded
/// at the smallest level `h` whose induced RR graph — the graph restricted
/// to `C_h = {u : level_of(u) ≤ h}` — still reaches `v` from the source,
/// and the buckets are ranked by the paper's stage 2. Graphs whose source
/// lies in no chain community contribute nothing. No level table, no
/// shortcut, no HFS queues: the reference the compressed paths must equal
/// bit for bit.
fn definition3_outcome<'a>(
    chain: &impl Chain,
    draws: impl Iterator<Item = Option<&'a RrGraph>>,
    q: NodeId,
    k: usize,
    theta: usize,
) -> CodOutcome {
    let m = chain.len();
    let mut buckets: Vec<FxHashMap<NodeId, u32>> = vec![FxHashMap::default(); m];
    for rr in draws.flatten() {
        let mut recorded: Vec<NodeId> = Vec::new();
        for (h, bucket) in buckets.iter_mut().enumerate() {
            for v in rr.reachable_within(|u| chain.level_of(u).is_some_and(|l| l <= h)) {
                if !recorded.contains(&v) {
                    recorded.push(v);
                    *bucket.entry(v).or_insert(0) += 1;
                }
            }
        }
    }
    incremental_top_k(&buckets, q, k, theta, chain.universe().len())
}

/// One draw of compressed stage 1, replayed through the public sampler: a
/// uniform universe source from `rng`, no RR graph when the source is in
/// no chain community, and otherwise its RR graph restricted to the
/// universe, drawn from the same RNG.
fn replay_draw<R: Rng>(
    sampler: &mut RrSampler<'_>,
    chain: &impl Chain,
    universe: &[NodeId],
    rng: &mut R,
) -> Option<RrGraph> {
    let s = universe[rng.random_range(0..universe.len())];
    chain.level_of(s)?;
    Some(sampler.sample_restricted(s, rng, |v| universe.binary_search(&v).is_ok()))
}

/// Checks both sample sources of `compressed_cod` on `chain` against
/// [`definition3_outcome`] over the very draws they made: per-index seeding
/// at 1 and 2 threads, and a shared pool (the oracle reads the pool's own
/// view).
fn assert_compressed_matches_definition3(
    g: &Csr,
    chain: &(impl Chain + Sync),
    q: NodeId,
    seed: u64,
) {
    if chain.is_empty() {
        return;
    }
    let (model, k, theta_per_node) = (Model::WeightedCascade, 2, 6);
    let universe = chain.universe();
    let theta = theta_per_node * universe.len();
    let mut sampler = RrSampler::new(g, model);
    let opts = |t| EvalOptions {
        par: Parallelism::Threads(t),
        ..EvalOptions::default()
    };

    let seeds = SeedSequence::new(seed);
    let draws: Vec<_> = (0..theta)
        .map(|i| replay_draw(&mut sampler, chain, &universe, &mut seeds.rng_for(i as u64)))
        .collect();
    let want = definition3_outcome(chain, draws.iter().map(Option::as_ref), q, k, theta);
    for t in [1, 2] {
        let sampled = Samples::Seed(seed);
        let got = compressed_cod(g, model, chain, q, k, theta_per_node, sampled, opts(t)).unwrap();
        assert_eq!(got, want, "seeded, {t} threads");
    }

    let restricted = universe.len() < g.num_nodes();
    let pool = RrPoolEntry::new(None, Arc::new(universe), restricted);
    let pooled = Samples::Pool(&pool);
    let got = compressed_cod(g, model, chain, q, k, theta_per_node, pooled, opts(2)).unwrap();
    let (view, _) = pool.ensure(g, model, theta, Parallelism::Threads(2), None);
    let draws = view
        .iter()
        .take(theta)
        .map(|rr| chain.level_of(rr.source()).map(|_| rr));
    assert_eq!(
        got,
        definition3_outcome(chain, draws, q, k, theta),
        "pooled"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Dendrogram structural invariants on random connected graphs.
    #[test]
    fn dendrogram_invariants(n in 2usize..40, extra in 0usize..60, seed in 0u64..1000) {
        let g = random_graph(n, extra, seed);
        let d = build_hierarchy(&g, Linkage::Average);
        prop_assert_eq!(d.num_leaves(), n);
        prop_assert_eq!(d.num_vertices(), 2 * n - 1);
        prop_assert_eq!(d.size(d.root()), n);
        // Children partition their parent.
        for v in n as u32..d.num_vertices() as u32 {
            let [a, b] = d.children(v);
            prop_assert_eq!(d.size(a) + d.size(b), d.size(v));
            prop_assert_eq!(d.depth(a), d.depth(v) + 1);
            let ma = d.members_sorted(a);
            let mb = d.members_sorted(b);
            let mut union: Vec<_> = ma.iter().chain(mb.iter()).copied().collect();
            union.sort_unstable();
            prop_assert_eq!(union, d.members_sorted(v));
        }
        // contains() agrees with membership lists.
        for v in 0..d.num_vertices() as u32 {
            let members = d.members_sorted(v);
            for u in 0..n as NodeId {
                prop_assert_eq!(d.contains(v, u), members.binary_search(&u).is_ok());
            }
        }
    }

    /// LCA index agrees with parent-pointer chasing.
    #[test]
    fn lca_matches_naive(n in 2usize..30, extra in 0usize..40, seed in 0u64..1000) {
        let g = random_graph(n, extra, seed);
        let d = build_hierarchy(&g, Linkage::Average);
        let lca = LcaIndex::new(&d);
        let naive = |a: u32, b: u32| -> u32 {
            let mut anc = vec![a];
            let mut v = a;
            while d.parent(v) != pcod::hierarchy::NO_VERTEX {
                v = d.parent(v);
                anc.push(v);
            }
            let mut v = b;
            loop {
                if anc.contains(&v) {
                    return v;
                }
                v = d.parent(v);
            }
        };
        let nv = d.num_vertices() as u32;
        for a in (0..nv).step_by(3) {
            for b in (0..nv).step_by(4) {
                prop_assert_eq!(lca.lca(a, b), naive(a, b));
            }
        }
    }

    /// Every RR-graph node is reachable from the source, and induced
    /// restriction only keeps members.
    #[test]
    fn rr_graph_reachability(n in 2usize..30, extra in 0usize..50, seed in 0u64..1000) {
        let g = random_graph(n, extra, seed);
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xabcd);
        let mut sampler = RrSampler::new(&g, Model::WeightedCascade);
        for _ in 0..10 {
            let rr = sampler.sample_uniform(&mut rng);
            let mut all = rr.reachable_within(|_| true);
            all.sort_unstable();
            let mut nodes = rr.nodes().to_vec();
            nodes.sort_unstable();
            prop_assert_eq!(all, nodes);
            // Restriction to even nodes only yields even nodes (or nothing).
            let within = rr.reachable_within(|v| v % 2 == 0);
            prop_assert!(within.iter().all(|&v| v % 2 == 0));
            if rr.source().is_multiple_of(2) {
                prop_assert!(within.contains(&rr.source()));
            } else {
                prop_assert!(within.is_empty());
            }
        }
    }

    /// The incremental top-k scan (Theorem 3's pool rule) is *exactly*
    /// equivalent to brute-force re-ranking of accumulated counts.
    #[test]
    fn incremental_top_k_is_exact(
        levels in 1usize..8,
        k in 1usize..6,
        seed in 0u64..5000,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let universe: u32 = 30;
        // Random nested buckets: level h can contain any node id; counts
        // small so ties are frequent (stressing the tie-inclusive pool).
        let mut buckets: Vec<FxHashMap<NodeId, u32>> = Vec::new();
        for _ in 0..levels {
            let mut m = FxHashMap::default();
            for v in 0..universe {
                if rng.random_bool(0.4) {
                    m.insert(v, rng.random_range(1..5u32));
                }
            }
            buckets.push(m);
        }
        let q: NodeId = rng.random_range(0..universe);
        let out = incremental_top_k(&buckets, q, k, 100, universe as usize);

        // Brute force: accumulate counts level by level; q is top-k iff
        // fewer than k nodes have a strictly larger count.
        let mut acc: Vec<u32> = vec![0; universe as usize];
        let mut best = None;
        for (h, b) in buckets.iter().enumerate() {
            for (&v, &c) in b {
                acc[v as usize] += c;
            }
            let tq = acc[q as usize];
            let higher = acc.iter().filter(|&&c| c > tq).count();
            let is_top = higher < k;
            prop_assert_eq!(
                out.ranks[h] <= k,
                is_top,
                "level {}: incremental rank {} vs brute higher {}",
                h, out.ranks[h], higher
            );
            if is_top {
                best = Some(h);
            }
        }
        prop_assert_eq!(out.best_level, best);
    }

    /// Compressed evaluation equals the Definition-3 oracle bit for bit on
    /// all three chain shapes: the whole-graph `DendroChain`, a
    /// `SubgraphChain` over a proper community with its root excluded
    /// (restricted sampling, and universe nodes in no chain community) and
    /// the `ComposedChain` stitched onto that community.
    #[test]
    fn compressed_paths_match_the_definition3_oracle(
        n in 4usize..26,
        extra in 0usize..40,
        gseed in 0u64..1000,
        pick in 0usize..64,
        seed in 0u64..u64::MAX,
    ) {
        let g = random_graph(n, extra, gseed);
        let d = build_hierarchy(&g, Linkage::Average);
        let lca = LcaIndex::new(&d);
        let q = (gseed % n as u64) as NodeId;
        assert_compressed_matches_definition3(&g, &DendroChain::new(&d, &lca, q).unwrap(), q, seed);
        let communities: Vec<u32> = d
            .root_path(q)
            .into_iter()
            .filter(|&c| (3..n).contains(&d.size(c)))
            .collect();
        if !communities.is_empty() {
            let c = communities[pick % communities.len()];
            let sub = Subgraph::induced(&g, &d.members_sorted(c));
            let sd = build_hierarchy(&sub.csr, Linkage::Average);
            let slca = LcaIndex::new(&sd);
            let lower = SubgraphChain::new(&sub, &sd, &slca, q, false).unwrap();
            assert_compressed_matches_definition3(&g, &lower, q, seed);
            let lower = SubgraphChain::new(&sub, &sd, &slca, q, true).unwrap();
            let composed = ComposedChain::new(lower, &d, &lca, c).unwrap();
            assert_compressed_matches_definition3(&g, &composed, q, seed);
        }
    }

    /// k-core members all have >= k neighbors inside the community.
    #[test]
    fn kcore_degree_invariant(n in 4usize..40, extra in 5usize..80, seed in 0u64..1000, k in 1u32..5) {
        let g = random_graph(n, extra, seed);
        if let Some(c) = cod_search::kcore::kcore_component(&g, 0, k, |_| true) {
            prop_assert!(c.binary_search(&0).is_ok());
            for &v in &c {
                let internal = g
                    .neighbors(v)
                    .iter()
                    .filter(|&&u| c.binary_search(&u).is_ok())
                    .count();
                prop_assert!(internal >= k as usize, "node {} has {} < {}", v, internal, k);
            }
        }
    }

    /// Triangle-connected truss community invariants: every community edge
    /// has trussness >= k, shares a triangle with the community, and the
    /// query node is an endpoint of at least one community edge.
    #[test]
    fn truss_community_invariants(n in 4usize..25, extra in 10usize..60, seed in 0u64..1000) {
        let g = random_graph(n, extra, seed);
        let t = cod_search::truss::TrussDecomposition::new(&g);
        let q = 0;
        if let Some(kq) = t.max_trussness_at(&g, q) {
            if kq >= 3 {
                let edges = t.triangle_connected_edges(&g, q, kq).unwrap();
                prop_assert!(!edges.is_empty());
                prop_assert!(
                    edges.iter().any(|&(u, v)| u == q || v == q),
                    "q touches the community"
                );
                let edge_set: std::collections::BTreeSet<(NodeId, NodeId)> =
                    edges.iter().copied().collect();
                for &(u, v) in &edges {
                    prop_assert!(t.edge_trussness(u, v).unwrap() >= kq);
                    // Some triangle through (u, v) lies fully inside the
                    // community (triangle connectivity).
                    let has_tri = g.neighbors(u).iter().any(|&w| {
                        g.has_edge(v, w)
                            && edge_set.contains(&(u.min(w), u.max(w)))
                            && edge_set.contains(&(v.min(w), v.max(w)))
                    });
                    prop_assert!(has_tri, "edge ({u},{v}) has no in-community triangle");
                }
                // Node list agrees with the edge endpoints.
                let c = t.triangle_connected_community(&g, q, kq).unwrap();
                let mut endpoints: Vec<NodeId> =
                    edges.iter().flat_map(|&(u, v)| [u, v]).collect();
                endpoints.sort_unstable();
                endpoints.dedup();
                prop_assert_eq!(c, endpoints);
            }
        }
    }

    /// `SeedSequence::seed_for` is injective over any index window: the
    /// derivation composes two bijections, so distinct sample indices can
    /// never collide regardless of the master seed.
    #[test]
    fn seed_derivation_is_injective(master in 0u64..u64::MAX, start in 0u64..1_000_000, span in 1usize..512) {
        let seq = SeedSequence::new(master);
        let seeds: Vec<u64> = (start..start + span as u64).map(|i| seq.seed_for(i)).collect();
        let mut sorted = seeds.clone();
        sorted.sort_unstable();
        sorted.dedup();
        prop_assert_eq!(sorted.len(), seeds.len(), "seed collision within index window");
    }

    /// Child streams never collide with each other or with the parent's
    /// per-index seeds (the adaptive sampler relies on round `r` drawing a
    /// fresh, disjoint stream).
    #[test]
    fn child_streams_are_distinct(master in 0u64..u64::MAX, a in 0u64..1000, b in 0u64..1000) {
        let seq = SeedSequence::new(master);
        if a != b {
            prop_assert_ne!(seq.child(a).master(), seq.child(b).master());
        }
        prop_assert_ne!(seq.child(a).master(), seq.master());
    }

    /// Replaying the same `(master, index)` pair reproduces the RR graph
    /// bit for bit: same source, same node order, same adjacency.
    #[test]
    fn same_master_and_index_replays_same_rr_graph(
        n in 2usize..30,
        extra in 0usize..50,
        gseed in 0u64..1000,
        master in 0u64..u64::MAX,
        index in 0u64..10_000,
    ) {
        let g = random_graph(n, extra, gseed);
        let seq = SeedSequence::new(master);
        let mut s1 = RrSampler::new(&g, Model::WeightedCascade);
        let mut s2 = RrSampler::new(&g, Model::WeightedCascade);
        let rr1 = s1.sample_uniform(&mut seq.rng_for(index));
        let rr2 = s2.sample_uniform(&mut seq.rng_for(index));
        prop_assert_eq!(rr1.source(), rr2.source());
        prop_assert_eq!(rr1.nodes(), rr2.nodes());
        for l in 0..rr1.len() as u32 {
            prop_assert_eq!(rr1.out_neighbors(l), rr2.out_neighbors(l));
        }
    }

    /// Under deterministic worlds (`UniformIc(1.0)`, every coin live) the
    /// restricted sample equals reachability-within-the-restriction on the
    /// unrestricted sample — Theorem 2's possible-world coupling, checkable
    /// exactly because no randomness is left.
    #[test]
    fn deterministic_restricted_sample_is_reachability_restriction(
        n in 2usize..30,
        extra in 0usize..50,
        gseed in 0u64..1000,
        master in 0u64..u64::MAX,
    ) {
        let g = random_graph(n, extra, gseed);
        let seq = SeedSequence::new(master);
        let keep = |v: NodeId| v.is_multiple_of(2);
        let source: NodeId = 0; // even, so keep(source) holds
        let mut s1 = RrSampler::new(&g, Model::UniformIc(1.0));
        let mut s2 = RrSampler::new(&g, Model::UniformIc(1.0));
        let restricted = s1.sample_restricted(source, &mut seq.rng_for(0), keep);
        let full = s2.sample_from(source, &mut seq.rng_for(0));
        let mut got = restricted.nodes().to_vec();
        got.sort_unstable();
        let mut want = full.reachable_within(keep);
        want.sort_unstable();
        prop_assert_eq!(got, want);
    }

    /// The shared RR pool is invariant under *any* thread count, not just
    /// the fixed 1/2/8 grid of the seed-replay suite.
    #[test]
    fn rr_pool_is_invariant_under_any_thread_count(
        n in 2usize..30,
        extra in 0usize..40,
        gseed in 0u64..500,
        master in 0u64..u64::MAX,
        threads in 2usize..12,
    ) {
        let g = random_graph(n, extra, gseed);
        let seq = SeedSequence::new(master);
        let theta = 64;
        let serial = RrPool::sample(
            &g, Model::WeightedCascade, theta, seq, None, Parallelism::Threads(1),
        );
        let parallel = RrPool::sample(
            &g, Model::WeightedCascade, theta, seq, None, Parallelism::Threads(threads),
        );
        for i in 0..theta {
            prop_assert_eq!(serial.set(i), parallel.set(i), "set {} diverged", i);
        }
    }

    /// Graph measures stay in bounds on arbitrary member subsets.
    #[test]
    fn measures_are_bounded(n in 3usize..30, extra in 0usize..50, seed in 0u64..1000) {
        let g = random_graph(n, extra, seed);
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x77);
        let members: Vec<NodeId> = (0..n as NodeId).filter(|_| rng.random_bool(0.5)).collect();
        let rho = pcod::graph::measures::topology_density(&g, &members);
        prop_assert!((0.0..=1.0).contains(&rho));
        let cond = pcod::graph::measures::conductance(&g, &members);
        prop_assert!(cond >= 0.0);
    }
}
